"""End-to-end acceptance checks.

One test per criterion, each printing a single ACCEPTANCE line. Statistical
criteria run at the package's default seed; every tolerance and budget below
is asserted, not just reported.
"""

import time

import numpy as np

from sepsim.cli import main as cli_main
from sepsim.core import ModelParams, default_initial_configuration
from sepsim.dual import pair_absorption_exact, transient_dual_moment
from sepsim.exact import (
    exact_moment,
    occupation_profile,
    stationary_distribution,
)
from sepsim.forward import estimate_stationary_moments, transient_moment
from sepsim.ladder import gamma_closed_form, ladder_tables, simulate_aux_walk
from sepsim.moments import build_moment_system, stationary_moments


def report(number, slug, ok, detail):
    line = f"ACCEPTANCE {number} {slug}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_linear_profile():
    t0 = time.perf_counter()
    worst = 0.0
    for size in range(1, 13):
        pi = stationary_distribution(size)
        target = np.arange(1, size + 1) / (size + 1)
        worst = max(worst, float(np.abs(occupation_profile(pi) - target).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "linear-profile",
        worst < 1e-10 and elapsed < 30.0,
        f"max dev {worst:.2e}, {elapsed:.1f}s of 30s",
    )


def test_criterion_02_three_way_pair_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for size in range(2, 9):
        p = ModelParams(size=size)
        pi = stationary_distribution(p.size)
        pa = pair_absorption_exact(p)
        field = stationary_moments(build_moment_system(p, 2))
        for x in range(1, size):
            for y in range(x + 1, size + 1):
                a = exact_moment(pi, (x, y))
                b = pa.value(x, y)
                c = field.value((x, y))
                worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "three-way-m2",
        worst < 1e-8 and elapsed < 60.0,
        f"max pairwise dev {worst:.2e}, {elapsed:.1f}s of 60s",
    )


def test_criterion_03_closed_s2_values():
    pi = stationary_distribution(2)
    # label sites left to right: site 1 then site 2
    labels = ["00", "10", "01", "11"]
    got = dict(zip(labels, pi.probabilities))
    want = {"00": 1 / 6, "01": 1 / 2, "10": 1 / 6, "11": 1 / 6}
    dev_pi = max(abs(got[k] - want[k]) for k in want)
    dev_m2 = abs(exact_moment(pi, (1, 2)) - 1 / 6)
    report(
        3,
        "closed-s2",
        dev_pi < 1e-12 and dev_m2 < 1e-12,
        f"pi dev {dev_pi:.2e}, m2 dev {dev_m2:.2e}",
    )


def test_criterion_04_forward_mc_profile():
    t0 = time.perf_counter()
    p = ModelParams(size=16, seed=1)
    est = estimate_stationary_moments(p, [(x,) for x in range(1, 17)], 32 * 4800, p.stream(0))
    elapsed = time.perf_counter() - t0
    target = np.arange(1, 17) / 17
    err = np.abs(est.estimates - target)
    limit = np.maximum(0.02, 3 * est.stderrs)
    ok = (
        bool((err < limit).all())
        and est.n_lanes >= 32
        and est.total_events >= 5_000_000
        and elapsed < 60.0
    )
    report(
        4,
        "forward-mc",
        ok,
        f"max err {err.max():.4f}, {est.total_events:.2e} events, "
        f"{est.n_lanes} lanes, {elapsed:.1f}s of 60s",
    )


def test_criterion_05_duality_identity():
    p = ModelParams(size=10, seed=1)
    config0 = default_initial_configuration(p)
    assert config0.interior_string() == "1111100000"
    lhs, lhs_se = transient_moment(p, config0, 5.0, (3, 7), 1_000_000, p.stream(1))
    rhs, rhs_se = transient_dual_moment(p, (3, 7), config0, 5.0, 1_000_000, p.stream(2))
    z = (lhs - rhs) / float(np.hypot(lhs_se, rhs_se))
    report(
        5,
        "duality",
        abs(z) < 3.0,
        f"lhs {lhs:.5f}±{lhs_se:.5f}, rhs {rhs:.5f}±{rhs_se:.5f}, z {z:+.2f}",
    )


def test_criterion_06_factorization_limit():
    t0 = time.perf_counter()
    a1, a2 = 0.3, 0.7
    errors = []
    for size in (32, 64, 128, 256, 512):
        p = ModelParams(size=size)
        x1, x2 = int(a1 * (size + 1)), int(a2 * (size + 1))
        m2 = pair_absorption_exact(p).value(x1, x2)
        errors.append(abs(m2 - a1 * a2))
    elapsed = time.perf_counter() - t0
    errors = np.array(errors)
    slope = float(
        np.polyfit(np.log([32, 64, 128, 256, 512]), np.log(errors), 1)[0]
    )
    ok = (
        bool((np.diff(errors) < 0).all())
        and errors[-1] < 0.01
        and -1.3 <= slope <= -0.7
        and elapsed < 120.0
    )
    report(
        6,
        "product-limit",
        ok,
        f"errors {np.array2string(errors, precision=4)}, slope {slope:.2f}, "
        f"{elapsed:.1f}s of 120s",
    )


def test_criterion_07_gamma_formula():
    result = simulate_aux_walk(10, 3, 1_000_000, ModelParams(size=10, seed=1).stream(0))
    zs = [
        (result.gamma_mc[k] - result.gamma[k]) / result.gamma_stderr[k]
        for k in (1, 2, 3)
    ]
    ok = all(abs(z) < 3.0 for z in zs)
    report(7, "gamma-formula", ok, "z " + ", ".join(f"{z:+.2f}" for z in zs))


def test_criterion_08_ladder_suite():
    size = 16
    table = ladder_tables(ModelParams(size=size), 4, 9, k_max=10)
    c = table.c_start[1:]
    gammas = np.array([gamma_closed_form(size, k) for k in range(1, 11)])
    in_range = bool(((c > 0) & (c < 1)).all())
    dominated = bool((c <= gammas).all())
    nonincreasing = bool((np.diff(table.p) <= 0).all())
    identity = abs(table.p[0] - table.p[10] - c.sum() / (2 * (size + 1) ** 2))
    tail = abs(table.p[10] - table.p_inf)
    tail_ok = tail <= gamma_closed_form(size, 11) * size / (2 * (size + 1) ** 2)
    ok = (
        table.k_max == 10
        and in_range
        and dominated
        and nonincreasing
        and identity < 1e-10
        and tail_ok
    )
    report(
        8,
        "ladder-suite",
        ok,
        f"identity {identity:.2e}, tail {tail:.2e}, dominated {dominated}",
    )


def test_criterion_09_final_bound():
    worst_lo, worst_ratio = np.inf, 0.0
    for size in (8, 16, 32):
        p = ModelParams(size=size)
        pa = pair_absorption_exact(p)
        bound = 1 / (2 * (size + 1)) - 1 / (size + 1) ** 2
        step = max(1, size // 8)
        for x in range(1, size - 1, step):
            for y in range(x + 2, size + 1, step):
                gap = x * y / (size + 1) ** 2 - pa.value(x, y)
                worst_lo = min(worst_lo, gap)
                worst_ratio = max(worst_ratio, gap / bound)
    ok = worst_lo >= -1e-12 and worst_ratio <= 1.0
    report(
        9,
        "final-bound",
        ok,
        f"min gap {worst_lo:.2e}, max gap/bound {worst_ratio:.3f}",
    )


def test_criterion_10_determinism(tmp_path):
    jobs = [
        (["exact", "--size", "4", "--deterministic"], ["_m1.csv", "_m2.csv", "_pi.csv"]),
        (
            ["sweep", "--grid", "16,32", "--deterministic"],
            [".csv", "_summary.json"],
        ),
        (
            [
                "duality-check", "--size", "6", "--points", "2,5", "--time", "1.0",
                "--replicas", "5e3", "--deterministic",
            ],
            [".json"],
        ),
        (
            [
                "simulate", "--size", "4", "--replicas", "6", "--samples", "30",
                "--threads", "2", "--deterministic",
            ],
            [".csv"],
        ),
    ]
    identical = True
    for i, (args, suffixes) in enumerate(jobs):
        stems = [tmp_path / f"run{i}_a", tmp_path / f"run{i}_b"]
        for stem in stems:
            ext = suffixes[0] if len(suffixes) == 1 else ".csv"
            assert cli_main(args + ["--output", str(stem) + ext]) == 0
        for suffix in suffixes:
            a = (tmp_path / f"run{i}_a{suffix}").read_bytes()
            b = (tmp_path / f"run{i}_b{suffix}").read_bytes()
            identical = identical and a == b
    report(10, "determinism", identical, f"{len(jobs)} commands re-run byte-identical")
