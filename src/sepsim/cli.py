"""Command-line front end for the exclusion-process toolkit.

Every command computes its configuration fields, a JSON payload and its CSV
tables, each table a list of columns, and hands them to one writer, _emit.
A generator payload value is its own JSON text, run only when JSON is
written: JSON tables and exact's pi object write their rows so. CSV rows,
JSON table rows and the pi object go out in chunks of _CHUNK_ROWS, each
number column formatting its distinct bit patterns once (_cells). main
builds only the subparser of the command it runs. The writer echoes the
configuration, with the command name and a timestamp (left out under
--deterministic, so repeated runs are byte-identical), into every file: CSV
files start with a `# config: {...}` comment line, JSON files carry a
`config` key. JSON output is the payload in one file; duality-check always
writes JSON. CSV output writes a table of suffix None to --output and any
other table to `<stem>_<suffix>.csv`, the stem being --output without a .csv
or .json extension, plus `<stem>_summary.json` when the payload has a
"summary". Without --output everything goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Generator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import (
    Configuration,
    ModelParams,
    check_replicas,
    default_initial_configuration,
    validate_point_set,
)
from .dual import (
    estimate_absorption,
    stationary_moment,
    transient_dual_moment,
    transient_dual_cost,
)
from .errors import SepsimError, ValidationError
from .exact import occupation_profile, pair_moments, stationary_distribution
from .forward import estimate_stationary_moments, transient_cost, transient_moment
from .ladder import gamma_closed_form, ladder_tables, simulate_aux_walk
from .moments import (
    build_moment_system,
    field_from_configuration,
    integrate_moments,
    stationary_moments,
)


def _count(text: str) -> int:
    """Positive whole count, scientific notation accepted ("1e6")."""
    try:
        number = float(text)
        value = int(number)
    except (ValueError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a count: {text!r}") from exc
    if value != number:
        raise argparse.ArgumentTypeError(f"count must be a whole number, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """Finite tolerance above 0."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """Comma-separated ints; an empty item, as in "2,,4" or "", is refused."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc


def _float_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values: {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not numbers: {text!r}") from exc


_CHUNK_ROWS = 65_536  # table rows formatted and written at a time


# The JSON spelling of a bool or number where it differs from str's.
_JSON_WORDS = {
    "True": "true", "False": "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"
}


def _cells(chunk: np.ndarray, as_json: bool = False) -> list[str]:
    """The text of each cell of a column chunk: str of its Python scalar, or json.dumps.

    A bytes cell is its decoded text (only CSV tables hold bytes). A bool or
    number chunk formats each distinct bit pattern once and never merges
    equal values: 0.0 and -0.0 compare equal but print differently.
    """
    if chunk.dtype.kind not in "biuf":
        if as_json:
            return list(map(json.dumps, chunk.tolist()))
        return list(map(bytes.decode if chunk.dtype.kind == "S" else str, chunk.tolist()))
    bits, at = np.unique(chunk.view(f"u{chunk.dtype.itemsize}"), return_inverse=True)
    texts = list(map(str, bits.view(chunk.dtype).tolist()))
    if as_json:
        texts = [_JSON_WORDS.get(t, t) for t in texts]
    return np.array(texts, dtype=object)[at].tolist()


def _json_table(columns):
    """json.dumps(rows, indent=2) text of a table's rows, set in one level as _json_parts does."""
    cols = [np.asarray(c) for c in columns]
    if not len(cols[0]):
        yield "[]"
        return
    sep = "\n    ],\n    [\n      "
    for lo in range(0, len(cols[0]), _CHUNK_ROWS):
        cells = [_cells(c[lo : lo + _CHUNK_ROWS], as_json=True) for c in cols]
        rows = sep.join(map(",\n      ".join, zip(*cells)))
        yield ("[\n    [\n      " if lo == 0 else sep) + rows
    yield "\n    ]\n  ]"


def _json_object(keys: np.ndarray, values: np.ndarray):
    """json.dumps text of {keys[c]: values[c]}, gathered chunk by chunk in key order."""
    # keys[c] spells code c, bit j as character j: the keys sort as the codes bit-reversed
    in_key_order = np.arange(len(keys)).reshape((2,) * keys.dtype.itemsize).T.ravel()
    sep = ",\n    "
    for lo in range(0, len(keys), _CHUNK_ROWS):
        at = in_key_order[lo : lo + _CHUNK_ROWS]
        kv = zip(keys[at].tolist(), _cells(values[at]))
        yield ("{\n    " if lo == 0 else sep) + sep.join(f'"{k.decode()}": {v}' for k, v in kv)
    yield "\n  }"


def _json_parts(config: dict, payload: dict):
    """The JSON document {"config": config, **payload} and a newline, in parts.

    The text is that of json.dumps(..., sort_keys=True, indent=2); a generator
    value is its own text.
    """
    yield "{"
    for j, (key, value) in enumerate(sorted({"config": config, **payload}.items())):
        yield ("\n  " if j == 0 else ",\n  ") + json.dumps(key) + ": "
        if isinstance(value, Generator):
            yield from value
        else:
            yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


def _write(path: str | None, parts) -> None:
    """Write an iterable of strings to path, or to stdout when path is None.

    A reader that closes stdout early ends the output: the rest is dropped,
    and stdout then points at os.devnull so the final flush stays quiet. A
    file that cannot be written is a SepsimError, exit code 1.
    """
    if path is None:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(path, "w") as f:
            f.writelines(parts)
    except OSError as exc:
        raise SepsimError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _rows(*columns) -> list[tuple]:
    """Columns as a list of rows of Python scalars."""
    return list(zip(*(np.asarray(c).tolist() for c in columns)))


def _csv_lines(config: dict, header: list[str], columns):
    """The config comment, the header and the rows of one table, in chunks.

    A cell is the str of its value (for a float, its repr), or its decoded bytes.
    """
    yield "# config: " + json.dumps(config, sort_keys=True) + "\n" + ",".join(header) + "\n"
    cols = [np.asarray(c) for c in columns]
    for lo in range(0, len(cols[0]), _CHUNK_ROWS):
        cells = [_cells(c[lo : lo + _CHUNK_ROWS]) for c in cols]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _emit(args: argparse.Namespace, config: dict, payload: dict, tables=()) -> None:
    """Write payload as JSON, or tables of (suffix, header, columns) as CSV."""
    config = {"command": args.command, **config}
    if not args.deterministic:
        config["timestamp"] = datetime.now(timezone.utc).isoformat()
    out = args.output
    if getattr(args, "format", "json") == "json":
        _write(out, _json_parts(config, payload))
        return
    stem = out
    if out is not None and Path(out).suffix in (".csv", ".json"):
        stem = str(Path(out).with_suffix(""))
    for suffix, header, columns in tables:
        path = out if suffix is None or out is None else f"{stem}_{suffix}.csv"
        _write(path, _csv_lines(config, header, columns))
    if "summary" in payload:
        path = None if out is None else f"{stem}_summary.json"
        _write(path, _json_parts(config, {"summary": payload["summary"]}))


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(size=args.size, seed=args.seed)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--size", type=int, required=True, help="number of bulk sites S")
    p.add_argument("--seed", type=int, default=1, help="base RNG seed")


def _add_output_flags(p: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    p.add_argument("--output", default=None, help="output path (stdout if omitted)")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument(
        "--deterministic",
        action="store_true",
        help="omit the timestamp so repeated runs are byte-identical",
    )


def cmd_exact(args: argparse.Namespace) -> int:
    pi = stationary_distribution(args.size)
    profile = occupation_profile(pi)
    s = args.size
    linear = np.arange(1, s + 1) / (s + 1)
    max_dev = float(np.abs(profile - linear).max())
    print(f"max |m1(x) - x/(S+1)| = {max_dev:.3e}", file=sys.stderr)
    m1 = (np.arange(1, s + 1), profile)
    x, y = np.triu_indices(s, k=1)
    m2 = (x + 1, y + 1, np.array(list(pair_moments(pi).values())))  # x < y, lex order
    codes = np.arange(1 << s, dtype=np.uint32)
    chars = np.empty((1 << s, s), dtype=np.uint8)
    for j in range(s):  # site j+1 is bit j, written leftmost first
        chars[:, j] = ord("0") + (codes >> j & 1)
    states, probs = chars.view(f"S{s}")[:, 0], pi.probabilities
    payload = {
        "max_m1_deviation": max_dev,
        "m1": _json_table(m1),
        "m2": _json_table(m2),
        "pi": _json_object(states, probs),
        "residual": pi.residual,
    }
    tables = [
        ("m1", ["x", "m1"], m1),
        ("m2", ["x", "y", "m2"], m2),
        ("pi", ["state", "probability"], (states, probs)),
    ]
    _emit(args, {"size": s}, payload, tables)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.points is not None:
        sets = [tuple(args.points)]
    else:
        sets = [(x,) for x in range(1, params.size + 1)]
    est = estimate_stationary_moments(
        params, sets, args.replicas * args.samples, params.stream(0)
    )
    if args.tol is not None:
        if est.n_lanes < 2:
            print(
                "warning: one lane has no standard error, so --tol is not "
                "checked; raise --replicas",
                file=sys.stderr,
            )
        elif (worst := float(est.stderrs.max())) > args.tol:
            print(
                f"warning: achieved stderr {worst:.3e} exceeds requested "
                f"tolerance {args.tol:.3e}; raise --replicas or --samples",
                file=sys.stderr,
            )
    config = {
        "size": params.size,
        "seed": params.seed,
        "replicas": args.replicas,
        "samples": args.samples,
        "sample_interval": est.sample_interval,
        "points": args.points,
    }
    labels = [";".join(str(p) for p in pts) for pts in est.point_sets]
    columns = (labels, est.estimates, est.stderrs)
    payload = {
        "estimates": [
            {"points": pts, "estimate": e, "stderr": se}
            for pts, (_, e, se) in zip(est.point_sets, _rows(*columns))
        ],
        "total_events": est.total_events,
        "rounds": est.rounds,
    }
    _emit(args, config, payload, [(None, ["points", "estimate", "stderr"], columns)])
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    params = _params(args)
    pts = tuple(args.points)
    est, se = estimate_absorption(params, pts, args.replicas, params.stream(0))
    exact_val = stationary_moment(params.size, pts)
    config = {
        "size": params.size,
        "seed": params.seed,
        "points": pts,
        "replicas": args.replicas,
    }
    columns = ([";".join(str(p) for p in pts)], [est], [se], [exact_val])
    payload = {"estimate": est, "stderr": se, "exact": exact_val}
    _emit(args, config, payload, [(None, ["points", "estimate", "stderr", "exact"], columns)])
    return 0


def cmd_ladder(args: argparse.Namespace) -> int:
    params = ModelParams(size=args.size)
    if len(args.start) != 2:
        raise ValidationError(f"--start takes two sites X,Y, got {len(args.start)}")
    x0, y0 = args.start
    table = ladder_tables(params, x0, y0, k_max=args.kmax)
    config = {"size": params.size, "start": [x0, y0], "kmax": args.kmax}
    ks = range(1, table.k_max + 1)
    columns = (
        ks,
        table.c_start[1:],
        [gamma_closed_form(params.size, k) for k in ks],
        table.p[1:],
    )
    p0 = float(table.p[0])
    summary = {
        "P0": p0,
        "P_inf": table.p_inf,
        "bound": table.final_bound,
        "slack": table.final_bound - (p0 - table.p_inf),
    }
    header = ["k", "C_k", "gamma_k", "P_k"]
    payload = {"rows": _json_table(columns), "columns": header, "summary": summary}
    _emit(args, config, payload, [(None, header, columns)])
    return 0


def cmd_odes(args: argparse.Namespace) -> int:
    params = _params(args)
    system = build_moment_system(params, min(2, params.size))
    if args.time is None:
        field = stationary_moments(system)
    else:
        start = field_from_configuration(
            system, default_initial_configuration(params)
        )
        field = integrate_moments(system, start, args.time)
    payload = {"m2": [], "time": args.time}
    tables = []
    for level, values in zip(system.chain(), field.levels):
        name, columns = f"m{level.k}", (*level.points.T, values)
        payload[name] = _json_table(columns)
        tables.append((name, ["x", "y"][: level.k] + [name], columns))
    _emit(args, {"size": params.size, "time": args.time}, payload, tables)
    return 0


def cmd_duality_check(args: argparse.Namespace) -> int:
    params = _params(args)
    pts = validate_point_set(args.points, params.size, interior_only=True)
    if args.initial is not None:
        config0 = Configuration.from_interior_string(args.initial)
        if config0.size != params.size:
            raise ValidationError(
                f"--initial has {config0.size} bulk sites, --size is {params.size}"
            )
    else:
        config0 = default_initial_configuration(params)
    s, k, t = params.size, len(pts), args.time
    for rows, mean in (transient_cost(s, t), transient_dual_cost(s, k, t)):
        check_replicas(args.replicas, rows, mean)  # both samplers' caps, before either draws
    lhs, lhs_se = transient_moment(
        params, config0, args.time, pts, args.replicas, params.stream(1)
    )
    rhs, rhs_se = transient_dual_moment(
        params, pts, config0, args.time, args.replicas, params.stream(2)
    )
    denom = math.hypot(lhs_se, rhs_se)
    if math.isnan(lhs_se) or math.isnan(rhs_se):  # one replica has no stderr
        z = math.nan
    elif denom > 0:
        z = (lhs - rhs) / denom
    else:
        z = 0.0 if lhs == rhs else math.inf
    config = {
        "size": params.size,
        "seed": params.seed,
        "points": pts,
        "time": args.time,
        "replicas": args.replicas,
        "initial": config0.interior_string(),
    }
    payload = {"lhs": lhs, "lhs_se": lhs_se, "rhs": rhs, "rhs_se": rhs_se, "z": z}
    _emit(args, config, payload)
    return 0


def cmd_aux(args: argparse.Namespace) -> int:
    params = _params(args)
    result = simulate_aux_walk(params.size, args.kmax, args.replicas, params.stream(0))
    config = {
        "size": params.size,
        "seed": params.seed,
        "kmax": args.kmax,
        "replicas": args.replicas,
    }
    columns = (
        range(1, len(result.gamma)),
        result.gamma[1:],
        result.gamma_mc[1:],
        result.gamma_stderr[1:],
    )
    header = ["k", "gamma_k", "estimate", "stderr"]
    payload = {"rows": _json_table(columns), "columns": header}
    _emit(args, config, payload, [(None, header, columns)])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    a1, a2 = args.alphas
    if not (0.0 < a1 < a2 < 1.0):
        raise ValidationError(
            f"fractions must satisfy 0 < a1 < a2 < 1, got ({a1}, {a2})"
        )
    if len(set(args.grid)) < len(args.grid):
        raise ValidationError(f"grid sizes must be distinct, got {args.grid}")
    target = a1 * a2
    rows = []
    for s in args.grid:
        if s < 2:
            raise ValidationError(f"grid sizes must be >= 2, got {s}")
        x1 = math.floor(a1 * (s + 1))
        x2 = math.floor(a2 * (s + 1))
        if not 1 <= x1 < x2 <= s:
            raise ValidationError(
                f"fractions ({a1}, {a2}) give no ordered bulk pair at size {s}"
            )
        m2 = stationary_moment(s, (x1, x2))
        rows.append((s, x1, x2, m2, target, abs(m2 - target)))
    errors = np.array([r[5] for r in rows])
    sizes = np.array([float(r[0]) for r in rows])
    slope: float | None = None
    if len(rows) >= 2 and np.all(errors > 0):
        slope = float(np.polyfit(np.log(sizes), np.log(errors), 1)[0])
    config = {"alphas": [a1, a2], "grid": args.grid}
    header = ["S", "x1", "x2", "m2", "target", "abs_err"]
    columns = list(zip(*rows))
    payload = {
        "rows": _json_table(columns),
        "columns": header,
        "summary": {"target": target, "slope": slope},
    }
    _emit(args, config, payload, [(None, header, columns)])
    return 0


def _exact_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    _add_output_flags(p)


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--replicas", type=_count, default=32)
    p.add_argument("--samples", type=_count, default=200, help="lanes = replicas x samples")
    p.add_argument("--points", type=_int_list, default=None)
    p.add_argument("--tol", type=_tolerance, default=None, help="warn if stderr exceeds this")
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
    _add_output_flags(p)


def _dual_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--points", type=_int_list, required=True)
    p.add_argument("--replicas", type=_count, default=100_000)
    _add_output_flags(p)


def _ladder_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--start", type=_int_list, required=True, metavar="X,Y")
    p.add_argument("--kmax", type=int, default=40)
    _add_output_flags(p)


def _odes_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--time", type=float, default=None, help="integrate to this time")
    _add_output_flags(p)


def _duality_check_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--points", type=_int_list, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--replicas", type=_count, default=1_000_000)
    p.add_argument("--initial", default=None, help="bulk occupancy bits, site 1 first")
    _add_output_flags(p, formats=())


def _aux_flags(p: argparse.ArgumentParser) -> None:
    _add_model_flags(p)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--replicas", type=_count, default=1_000_000)
    _add_output_flags(p)


def _sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alphas", type=_float_pair, default=(0.3, 0.7), metavar="A1,A2")
    p.add_argument(
        "--grid",
        type=_int_list,
        default=[32, 64, 128, 256, 512],
        metavar="S1,S2,...",
    )
    p.add_argument("--seed", type=int, default=1)
    _add_output_flags(p)


# Each command's help line, function and flags, in the order help lists them.
_COMMANDS = {
    "exact": ("exact stationary distribution and moments", cmd_exact, _exact_flags),
    "simulate": ("stationary moments by forward Monte Carlo", cmd_simulate, _simulate_flags),
    "dual": ("absorption probability of the dual walk", cmd_dual, _dual_flags),
    "ladder": ("meeting ladder between exclusion and free pairs", cmd_ladder, _ladder_flags),
    "odes": (
        "moment hierarchy: closed-form stationary field or integration",
        cmd_odes,
        _odes_flags,
    ),
    "duality-check": (
        "forward and dual transient estimates of one moment",
        cmd_duality_check,
        _duality_check_flags,
    ),
    "aux": ("reflected-walk return counts against the closed form", cmd_aux, _aux_flags),
    "sweep": ("two-point moment against the product limit", cmd_sweep, _sweep_flags),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The sepsim parser: every subparser, or only that of the named command.

    A one-command parser spells its usage with every command's name, so its
    text matches the full parser's; the full parser leaves the metavar unset,
    so its errors keep naming the argument `command`.
    """
    parser = argparse.ArgumentParser(
        prog="sepsim",
        description="boundary-driven exclusion process: simulation and exact checks",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, func, add_flags) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            add_flags(p)
            p.set_defaults(func=func)
    return parser


def _check_output(path: str | None) -> None:
    """Refuse, before any work, an --output in a missing directory or naming one."""
    if path is None:
        return
    if Path(path).is_dir():
        raise ValidationError(f"--output names a directory: {path}")
    if not Path(path).parent.is_dir():
        raise ValidationError(f"--output directory does not exist: {path}")


def main(argv=None) -> int:
    """Run the command argv names (sys.argv[1:] when None); return its exit code.

    Only the named command's subparser is built; no command, help or an
    unknown name builds them all.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except SepsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
