"""Independent references for every number the benchmark workloads produce.

Each check compares one command's output with a reference that does not go
through the route under test: the closed-form stationary moments, a matrix
exponential of the moment hierarchy built here from the model's definition,
or a sampling tolerance of four standard errors.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Absolute tolerance for deterministic solver outputs; the solvers reach about
# 1e-10 (Gauss-Seidel moments) to 1e-13 (sparse LU) here.
SOLVER_TOL = 1e-8
# Sampling checks accept an estimate within this many standard errors.
Z_MAX = 4.0
# Floor of the forward-profile check, which has only 32 replicas behind it.
PROFILE_FLOOR = 0.02


@dataclass(frozen=True)
class Check:
    """Outcome of one output check.

    error is the worst deviation the check saw (absolute, or in standard
    errors for sampling checks). expected marks a check that fails at this
    commit because of a known defect; it is counted but does not make the
    run incorrect.
    """

    name: str
    ok: bool
    error: float
    expected: bool = False


def m1_closed(size: int, x) -> float:
    return x / (size + 1)


def m2_closed(size: int, x, y) -> float:
    """Stationary E[eta_x eta_y] for x < y (Spohn 1983)."""
    return x * y / (size + 1) ** 2 - x * (size + 1 - y) / (size * (size + 1) ** 2)


def transient_oracle(size: int, t: float) -> tuple[np.ndarray, dict]:
    """Level-1 and level-2 moments at time t from the step start.

    Builds the stacked generator of the first two moment levels directly from
    the exchange dynamics (rate 1 per bond, site 0 empty, site S+1 full) and
    applies expm_multiply to it. Returns m1 for sites 1..S and m2 keyed by
    (x, y), x < y.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    s = size
    pairs = [(x, y) for x in range(1, s + 1) for y in range(x + 1, s + 1)]
    pair_index = {p: s + i for i, p in enumerate(pairs)}
    one = s + len(pairs)  # constant state carrying the reservoir value 1
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for x in range(1, s + 1):
        r = x - 1
        add(r, r, -2.0)
        if x > 1:
            add(r, x - 2, 1.0)
        add(r, x if x < s else one, 1.0)
    for (x, y), r in pair_index.items():
        add(r, r, -2.0 if y == x + 1 else -4.0)
        if x > 1:
            add(r, pair_index[(x - 1, y)], 1.0)
        if x + 1 < y:
            add(r, pair_index[(x + 1, y)], 1.0)
            add(r, pair_index[(x, y - 1)], 1.0)
        add(r, pair_index[(x, y + 1)] if y < s else x - 1, 1.0)
    gen = sp.csr_matrix((vals, (rows, cols)), shape=(one + 1, one + 1))
    half = (s + 1) // 2
    occ = np.array([0] + [1 if i <= half else 0 for i in range(1, s + 1)], dtype=float)
    start = np.zeros(one + 1)
    start[:s] = occ[1:]
    for (x, y), r in pair_index.items():
        start[r] = occ[x] * occ[y]
    start[one] = 1.0
    end = expm_multiply(gen * t, start)
    return end[:s], {p: end[r] for p, r in pair_index.items()}


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_csv(path: Path) -> list[list[str]]:
    """Rows of a sepsim CSV file without its config comment and header."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _max_dev(pairs) -> float:
    """Largest |got - want|; NaN (a missing or bad value) counts as infinite."""
    worst = 0.0
    for got, want in pairs:
        dev = abs(float(got) - float(want))
        worst = max(worst, dev if math.isfinite(dev) else math.inf)
    return worst


def within(name: str, error: float, tol: float, expected: bool = False) -> Check:
    return Check(name, bool(error <= tol), float(error), expected)


def check_profile_mc(path: Path, size: int) -> list[Check]:
    """simulate: every site within max(0.02, 4 stderr) of x/(S+1)."""
    data = read_json(path)
    worst = 0.0
    ok = len(data["estimates"]) == size
    for e in data["estimates"]:
        (x,) = e["points"]
        dev = abs(e["estimate"] - m1_closed(size, x))
        ok = ok and dev <= max(PROFILE_FLOOR, Z_MAX * e["stderr"])
        worst = max(worst, dev)
    return [Check("simulate.m1", ok, worst)]


def check_duality(path: Path) -> list[Check]:
    """duality-check: forward and dual estimates agree, |z| < 4."""
    z = abs(read_json(path)["z"])
    return [Check("duality-check.z", z < Z_MAX, z)]


def check_dual(path: Path, size: int, x: int, y: int) -> list[Check]:
    """dual: estimate within 4 sigma of the closed-form pair moment."""
    data = read_json(path)
    want = m2_closed(size, x, y)
    z = abs(data["estimate"] - want) / data["stderr"]
    exact = data["exact"]
    exact_err = math.inf if exact is None else abs(exact - want)
    return [
        Check("dual.estimate", z < Z_MAX, z),
        within("dual.exact", exact_err, SOLVER_TOL),
    ]


def check_aux(path: Path, size: int, k_max: int) -> list[Check]:
    """aux: return-count tail within 4 sigma of ((S-1)/S)^k, k = 1..kmax."""
    rows = read_json(path)["rows"]
    ks = [int(r[0]) for r in rows]
    zs = [abs(r[2] - ((size - 1) / size) ** r[0]) / r[3] for r in rows]
    worst = max(zs, default=math.inf)
    return [Check("aux.z", ks == list(range(1, k_max + 1)) and worst < Z_MAX, worst)]


def check_hybrid(result: list, reference: float) -> list[Check]:
    """hybrid sampler: within 4 sigma of the ladder rung it estimates."""
    est, se = result
    z = abs(est - float(reference)) / se
    return [Check("hybrid.p", z < Z_MAX, z)]


def check_sweep(path: Path, grid: list[int]) -> list[Check]:
    """sweep: each m2 equals the closed form."""
    rows = read_json(path)["rows"]
    err = _max_dev((r[3], m2_closed(r[0], r[1], r[2])) for r in rows)
    if [r[0] for r in rows] != grid:
        err = math.inf
    return [within("sweep.m2", err, SOLVER_TOL)]


def check_ladder(path: Path, size: int, x: int, y: int) -> list[Check]:
    """ladder: P_inf equals the closed form and P_k never increases."""
    data = read_json(path)
    p_inf_err = abs(data["summary"]["P_inf"] - m2_closed(size, x, y))
    p = [data["summary"]["P0"]] + [r[3] for r in data["rows"]]
    rise = max((b - a for a, b in zip(p, p[1:])), default=0.0)
    return [
        within("ladder.P_inf", p_inf_err, SOLVER_TOL),
        Check("ladder.P_k_monotone", rise <= 0.0, max(rise, 0.0)),
    ]


def _moment_errors(m1_rows, m2_rows, m1_want, m2_want, size: int) -> float:
    err = _max_dev((v, m1_want(int(x))) for x, v in m1_rows)
    err = max(err, _max_dev((v, m2_want(int(x), int(y))) for x, y, v in m2_rows))
    if len(m1_rows) != size or len(m2_rows) != size * (size - 1) // 2:
        err = math.inf
    return err


def check_odes_stationary(path: Path, size: int) -> list[Check]:
    """odes: stationary m1 and m2 equal the closed forms."""
    data = read_json(path)
    err = _moment_errors(
        data["m1"],
        data["m2"],
        lambda x: m1_closed(size, x),
        lambda x, y: m2_closed(size, x, y),
        size,
    )
    return [within("odes.moments", err, SOLVER_TOL)]


def check_odes_transient(path: Path, size: int, t: float) -> list[Check]:
    """odes --time: m1 and m2 against the matrix-exponential oracle.

    Known defect: the default explicit-Euler step leaves an m2 error of about
    6e-3 at t = 5, so this check is expected to fail until the integrator is
    replaced.
    """
    data = read_json(path)
    m1, m2 = transient_oracle(size, t)
    err = _moment_errors(
        data["m1"], data["m2"], lambda x: m1[x - 1], lambda x, y: m2[(x, y)], size
    )
    return [within("odes-time.moments", err, SOLVER_TOL, expected=True)]


def check_exact(stem: Path, size: int) -> list[Check]:
    """exact (three CSV files): m1, m2 closed forms; pi a full distribution."""
    m1_rows = read_csv(stem.with_name(stem.name + "_m1.csv"))
    m2_rows = read_csv(stem.with_name(stem.name + "_m2.csv"))
    pi_rows = read_csv(stem.with_name(stem.name + "_pi.csv"))
    err = _moment_errors(
        m1_rows,
        m2_rows,
        lambda x: m1_closed(size, x),
        lambda x, y: m2_closed(size, x, y),
        size,
    )
    mass = math.fsum(float(p) for _, p in pi_rows)
    pi_err = abs(mass - 1.0) if len(pi_rows) == 2**size else math.inf
    return [
        within("exact.moments", err, SOLVER_TOL),
        within("exact.pi_mass", pi_err, SOLVER_TOL),
    ]
