"""sepsim benchmark: seeded workloads through the CLI, with checked outputs.

Usage (from the repository root):

    python3 perfbench/bench.py --workload NAME --seed N --seconds T --trace 0|1

Each pass runs every step of the workload in its own fresh child process,
one at a time, with the seed passed to each. Passes repeat while another one
fits in T seconds (at least one pass runs). Every output is checked against
an independent reference (see checks.py).

--trace 0 prints the end-to-end metrics, medians over passes:
  wall_s       sum over steps of the wall time of cli.main (or the call)
  cpu_s        the same interval in CPU time, children included
  setup_s      median over child processes of spawn-to-sepsim.cli-imported
  peak_rss_mb  largest peak RSS of any child
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics: per-step times and RSS from the untraced passes, layer times from
spans recorded around each layer's public functions in the traced passes
(written to perfbench/out/), and trace.overhead_s, the traced minus the
untraced wall time.

The last stdout line is one JSON object with correct, attempted, failed and
metrics. attempted counts checks, each exit code included; failed counts
those that failed unexpectedly. A check that fails because of a known,
recorded defect (odes --time against the matrix-exponential oracle) is an
expected failure: it enters failed_frac and moments.integrate.max_err but
does not make the run incorrect. host.calib_s times a fixed Python plus
numpy loop at the start and end of a run, to tell host speed drift from a
code change; it is context and never a gate. A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run stops starting children after this many seconds, so it ends in time.
RUN_LIMIT_S = 170.0

COMMANDS = (
    "simulate",
    "duality-check",
    "dual",
    "aux",
    "sweep",
    "ladder",
    "odes",
    "odes-time",
    "exact",
)
STEP_METRICS = [f"cli.{c}" for c in COMMANDS] + ["lib.hybrid"]
SPAN_TIMES = [
    "forward.estimate_stationary_moments",
    "forward.transient_moment",
    "dual.transient_dual_moment",
    "dual.estimate_absorption",
    "dual.pair_absorption_exact",
    "ladder.simulate_aux_walk",
    "ladder.simulate_hybrid_pair",
    "moments.build_moment_system",
    "moments.stationary_moments",
    "moments.integrate_moments",
    "exact.build_generator",
    "exact.stationary_distribution",
]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{m}.s": "s" for m in STEP_METRICS},
    **{f"{m}.rss_mb": "MB" for m in STEP_METRICS},
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    **{f"{name}.s": "s" for name in SPAN_TIMES},
    "forward.events": "count",
    "forward.ns_per_event": "ns",
    "forward.ns_per_replica_event": "ns",
    "dual.pair_absorption_exact.calls": "count",
    "dual.pair.max_residual": "1",
    "ladder.ladder_tables.self_s": "s",
    "moments.integrate.max_err": "1",
    "exact.moments.s": "s",
    "exact.residual": "1",
    "host.calib_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "1",
}


@dataclass
class Record:
    """What one step did in one pass."""

    metric: str
    rc: int
    setup_s: float = math.nan
    wall_s: float = math.nan
    cpu_s: float = math.nan
    rss_mb: float = math.nan
    bytes_out: int = 0
    spans: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus numpy reference loop."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    values = np.random.default_rng(0).random(1_000_000)
    for _ in range(4):
        np.sort(values).cumsum()
    return time.perf_counter() - t0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_step(step, seed: int, trace: bool, workload: str, run_id: str,
             run_dir: Path, deadline: float) -> Record:
    """Run one step in a fresh child process and check its output."""
    import checks

    out_dir = run_dir / "out"
    ipc = run_dir / "ipc"
    for d in (out_dir, ipc):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    output = out_dir / (step.output or f"{step.name}.out")
    result_path = ipc / "result.json"
    spec = {
        "kind": "lib" if step.call else "cli",
        "argv": [*step.argv, "--seed", str(seed), "--output", str(output)],
        "call": step.call,
        "kwargs": step.kwargs,
        "seed": seed,
        "trace": trace,
        "workload": workload,
        "run_id": run_id,
        "result": str(result_path),
    }
    spec_path = ipc / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    timeout = max(1.0, deadline - time.monotonic())
    with open(out_dir / "stdout.txt", "wb") as stdout:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path), str(spawn_ns)],
            stdout=stdout,
            env=env,
            cwd=str(ROOT),
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"bench: {step.name} killed after {timeout:.0f} s", file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    rec = Record(metric=step.metric, rc=proc.returncode)
    if proc.returncode == 0 and result_path.is_file():
        res = json.loads(result_path.read_text())
        rec.rc = res["rc"]
        rec.setup_s, rec.wall_s, rec.cpu_s = res["setup_s"], res["wall_s"], res["cpu_s"]
        rec.rss_mb, rec.spans = res["rss_mb"], res["spans"]
        for name in res["missing_spans"]:
            print(f"bench: no span for {name}: function not found", file=sys.stderr)
        value = res["value"]
    else:
        rec.rc = rec.rc or 1
        value = None
    rec.bytes_out = _dir_bytes(out_dir)
    rec.checks.append(checks.Check(f"{step.name}.exit", rec.rc == 0, float(rec.rc)))
    try:
        rec.checks.extend(step.check(output, value))
        if step.observe is not None:
            rec.observed.update(step.observe(output))
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        rec.checks.append(checks.Check(f"{step.name}.output", False, math.inf))
        print(f"bench: {step.name} output unreadable: {exc!r}", file=sys.stderr)
    return rec


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return float(statistics.median(values)) if values else 0.0


def _pass_sum(records: list[Record], attr: str) -> float:
    return sum(getattr(r, attr) for r in records)


def _span_totals(records: list[Record]) -> dict[str, float]:
    """Per-pass totals from spans: <name>.s, <name>.self_s, <name>.calls, residuals."""
    import spans as spanlib

    out: dict[str, float] = {}
    for rec in records:
        selfs = spanlib.self_times(rec.spans)
        for s in rec.spans:
            name = s["name"]
            dur = (s["end_ns"] - s["start_ns"]) / 1e9
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[s["id"]] / 1e9
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
            if "residual" in s:
                key = f"{name}.residual"
                out[key] = max(out.get(key, 0.0), s["residual"])
    return out


def per_layer(untraced: list[list[Record]], traced: list[list[Record]],
              all_checks: list, calib: list[float]) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in STEP_METRICS:
        m[f"{name}.s"] = _median(
            sum(r.wall_s for r in p if r.metric == name) for p in untraced
        )
        m[f"{name}.rss_mb"] = max(
            (r.rss_mb for p in untraced + traced for r in p if r.metric == name),
            default=0.0,
        )
    by_pass = [_span_totals(p) for p in traced]
    observed = [{k: v for r in p for k, v in r.observed.items()} for p in traced]

    def span(key: str) -> float:
        return _median(t.get(key, 0.0) for t in by_pass)

    m["cli.self_s"] = span("cli.main.self_s")
    m["cli.bytes_out"] = _median(sum(r.bytes_out for r in p) for p in untraced)
    for name in SPAN_TIMES:
        m[f"{name}.s"] = span(f"{name}.s")

    def rate(time_key: str, work_key: str) -> float:
        vals = [
            t.get(time_key, 0.0) * 1e9 / o[work_key]
            for t, o in zip(by_pass, observed)
            if o.get(work_key)
        ]
        return _median(vals)

    m["forward.events"] = _median(o.get("forward.events", 0.0) for o in observed)
    m["forward.ns_per_event"] = rate(
        "forward.estimate_stationary_moments.s", "forward.events"
    )
    m["forward.ns_per_replica_event"] = rate(
        "forward.transient_moment.s", "forward.replica_events"
    )
    m["dual.pair_absorption_exact.calls"] = span("dual.pair_absorption_exact.calls")
    m["dual.pair.max_residual"] = max(
        (t.get("dual.pair_absorption_exact.residual", 0.0) for t in by_pass),
        default=0.0,
    )
    m["ladder.ladder_tables.self_s"] = span("ladder.ladder_tables.self_s")
    m["moments.integrate.max_err"] = max(
        (c.error for c in all_checks if c.name == "odes-time.moments"), default=0.0
    )
    m["exact.moments.s"] = span("exact.occupation_profile.s") + span(
        "exact.pair_moments.s"
    )
    m["exact.residual"] = max(
        (t.get("exact.stationary_distribution.residual", 0.0) for t in by_pass),
        default=0.0,
    )
    m["host.calib_s"] = statistics.fmean(calib)
    m["trace.overhead_s"] = _median(_pass_sum(p, "wall_s") for p in traced) - _median(
        _pass_sum(p, "wall_s") for p in untraced
    )
    bad = sum(not c.ok for c in all_checks)
    m["failed_frac"] = bad / max(1, len(all_checks))
    return m


def end_to_end(untraced: list[list[Record]], records: list[Record]) -> dict[str, float]:
    return {
        "wall_s": _median(_pass_sum(p, "wall_s") for p in untraced),
        "cpu_s": _median(_pass_sum(p, "cpu_s") for p in untraced),
        "setup_s": _median(r.setup_s for r in records),
        "peak_rss_mb": max((r.rss_mb for r in records), default=0.0),
    }


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--small", action="store_true", help="toy sizes, for the benchmark's tests"
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sepsim" / "cli.py").is_file():
        print(f"bench: no sepsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    steps = WORKLOADS[args.workload](args.small)
    run_id = f"{args.workload}-s{args.seed}-{uuid.uuid4().hex[:8]}"
    run_dir = OUT / run_id
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    calib = [calibrate()]
    untraced: list[list[Record]] = []
    traced: list[list[Record]] = []
    modes = (False, True) if args.trace else (False,)
    try:
        while True:
            for mode in modes:
                recs = [
                    run_step(s, args.seed, mode, args.workload, run_id, run_dir, deadline)
                    for s in steps
                ]
                (traced if mode else untraced).append(recs)
            elapsed = time.monotonic() - t_start
            per_round = elapsed / len(untraced)
            if elapsed + per_round > min(args.seconds, RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    calib.append(calibrate())
    records = [r for p in untraced + traced for r in p]
    all_checks = [c for r in records for c in r.checks]
    failed = sum(not c.ok and not c.expected for c in all_checks)
    for c in all_checks:
        if not c.ok:
            kind = "expected failure" if c.expected else "FAILED"
            print(f"bench: {kind}: {c.name} (error {c.error:.3g})", file=sys.stderr)
    if args.trace:
        metrics = per_layer(untraced, traced, all_checks, calib)
        units = PER_LAYER
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{run_id}.json"
        spans_path.write_text(json.dumps([s for r in records for s in r.spans]))
        print(f"bench: spans written to {spans_path}", file=sys.stderr)
    else:
        metrics = end_to_end(untraced, records)
        units = END_TO_END
    print(
        f"bench: {args.workload} seed {args.seed}: {len(untraced)} pass(es) of "
        f"{' '.join('%.3f' % _pass_sum(p, 'wall_s') for p in untraced)} s, "
        f"host.calib_s {' '.join('%.4f' % c for c in calib)}, "
        f"{failed} failed of {len(all_checks)} checks",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": len(all_checks),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
