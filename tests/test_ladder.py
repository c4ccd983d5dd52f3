import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepsim.ladder
import sepsim.core
from bruteforce import (
    dense_ladder,
    dense_meeting_table,
    first_meeting_kernel,
    lu_ladder,
    mc_first_meeting,
    mc_repeat_meetings,
    meeting_system,
    reflected_walk_reference,
    walk_chunk_reference,
)
from sepsim.core import ModelParams, lockstep, mean_stderr
from sepsim.dual import estimate_absorption
from sepsim.errors import NumericError, ResourceError, ValidationError
from sepsim.ladder import (
    _CHUNK,
    _SERIAL_MACS,
    MAX_LADDER_SIZE,
    _byte_table,
    _meeting_masses,
    _walk_chunk,
    gamma_closed_form,
    ladder_tables,
    p0_independent,
    simulate_aux_walk,
    simulate_hybrid_pair,
)


def test_p0_independent_values():
    p = ModelParams(size=9)
    assert p0_independent(p, 3, 7) == 21 / 100
    assert p0_independent(p, 0, 5) == 0.0
    assert p0_independent(p, 4, 10) == 0.4
    with pytest.raises(ValidationError):
        p0_independent(p, -1, 5)
    with pytest.raises(ValidationError):
        p0_independent(p, 2, 11)


def test_gamma_closed_form_values():
    assert gamma_closed_form(10, 1) == 0.9
    assert abs(gamma_closed_form(10, 2) - 0.81) < 1e-15
    assert gamma_closed_form(2, 3) == 0.125
    assert gamma_closed_form(5, 0) == 1.0
    with pytest.raises(ValidationError):
        gamma_closed_form(1, 2)
    with pytest.raises(ValidationError):
        gamma_closed_form(10, -1)


def test_kernel_hand_values_s3():
    """From (1,3) at S=3: meet at 1 w.p. 1/4, at 2 w.p. 1/4, at 3 w.p. 1/12."""
    k = first_meeting_kernel(ModelParams(size=3), 1, 3)
    assert np.allclose(k.mass[1:], [0.25, 0.25, 1 / 12], rtol=0, atol=1e-12)
    assert abs(k.no_meet_mass - 5 / 12) < 1e-12
    assert k.start == (1, 3)


@pytest.mark.parametrize("size,x,y", [(4, 1, 3), (5, 2, 5), (7, 3, 6), (9, 1, 9)])
def test_kernel_mass_is_a_distribution(size, x, y):
    k = first_meeting_kernel(ModelParams(size=size), x, y)
    assert (k.mass[1:] >= 0).all()
    assert k.no_meet_mass >= 0
    assert abs(k.mass[1:].sum() + k.no_meet_mass - 1.0) < 1e-10


@pytest.mark.parametrize("size,x,y", [(4, 1, 3), (6, 2, 5), (8, 3, 7)])
def test_kernel_total_probability_identity(size, x, y):
    # Conditioning the independent pair on its first meeting position gives
    # back the product formula: sum_n mass(n) * p0(n, n+1) = p0(x, y).
    p = ModelParams(size=size)
    k = first_meeting_kernel(p, x, y)
    total = sum(
        k.mass[n] * p0_independent(p, n, n + 1) for n in range(1, size + 1)
    )
    assert abs(total - p0_independent(p, x, y)) < 1e-10


def test_kernel_matches_mc_oracle():
    size, x, y = 5, 1, 4
    k = first_meeting_kernel(ModelParams(size=size), x, y)
    rng = np.random.default_rng(20240811)
    n = 40_000
    mass_mc, no_meet_mc = mc_first_meeting(size, x, y, rng, n)
    for pos in range(1, size + 1):
        se = np.sqrt(max(k.mass[pos] * (1 - k.mass[pos]), 1e-12) / n)
        assert abs(mass_mc[pos] - k.mass[pos]) < max(3.5 * se, 1e-3)
    se = np.sqrt(k.no_meet_mass * (1 - k.no_meet_mass) / n)
    assert abs(no_meet_mc - k.no_meet_mass) < 3.5 * se


def test_kernel_validation():
    p = ModelParams(size=6)
    with pytest.raises(ValidationError):
        first_meeting_kernel(p, 3, 4)  # gap must be at least 2
    with pytest.raises(ValidationError):
        first_meeting_kernel(p, 0, 3)
    with pytest.raises(ValidationError):
        first_meeting_kernel(p, 2, 7)
    with pytest.raises(ValidationError):
        first_meeting_kernel(ModelParams(size=2), 1, 3)


def test_ladder_hand_values_s3():
    """From (1,3) at S=3: C = (1/2, 1/8, 1/32, ...), P1 = 11/64."""
    t = ladder_tables(ModelParams(size=3), 1, 3, k_max=4)
    assert abs(t.c_start[1] - 0.5) < 1e-12
    assert abs(t.c_start[2] - 0.125) < 1e-12
    assert abs(t.c_start[3] - 1 / 32) < 1e-12
    assert abs(t.c_start[4] - 1 / 128) < 1e-12
    assert abs(t.p[0] - 0.1875) < 1e-15
    assert abs(t.p[1] - 11 / 64) < 1e-12
    assert abs(t.p_inf - 1 / 6) < 1e-10


def test_ladder_geometric_tail_s3():
    # At S=3 every interior meeting sits at n=1 or n=2, and the restart
    # masses repeat exactly, so C shrinks by 1/4 per rung.
    t = ladder_tables(ModelParams(size=3), 1, 3, k_max=8)
    ratios = t.c_start[2:9] / t.c_start[1:8]
    assert np.allclose(ratios, 0.25, rtol=0, atol=1e-10)


@pytest.mark.parametrize("size,x,y", [(5, 1, 3), (8, 2, 6), (12, 4, 9)])
def test_ladder_structure(size, x, y):
    t = ladder_tables(ModelParams(size=size), x, y, k_max=12)
    c = t.c_start[1:]
    gammas = np.array([gamma_closed_form(size, k) for k in range(1, t.k_max + 1)])
    assert ((c > 0) & (c < 1)).all()
    assert (c <= gammas + 1e-15).all()
    assert (np.diff(t.p) <= 1e-15).all()
    # telescoping identity between the rungs and the costs
    cost = 1 / (2 * (size + 1) ** 2)
    assert abs(t.p[0] - t.p[-1] - c.sum() * cost) < 1e-12
    # the ladder approaches the exclusion-pair value from above
    assert t.p[-1] >= t.p_inf - 1e-12
    assert abs(t.p[-1] - t.p_inf) <= t.tail_bound() + 1e-15


def test_ladder_c_matches_mc_oracle():
    size, x, y = 5, 1, 3
    t = ladder_tables(ModelParams(size=size), x, y, k_max=3)
    rng = np.random.default_rng(991)
    n = 30_000
    for k in (1, 2):
        est = mc_repeat_meetings(size, x, y, k, rng, n)
        se = np.sqrt(t.c_start[k] * (1 - t.c_start[k]) / n)
        assert abs(est - t.c_start[k]) < 3.5 * se


def test_ladder_early_stop():
    t = ladder_tables(ModelParams(size=4), 1, 3, k_max=1000)
    assert t.k_max < 1000
    assert gamma_closed_form(4, t.k_max) < 1e-12
    assert t.p.shape == (t.k_max + 1,)


def test_ladder_validation():
    p = ModelParams(size=8)
    with pytest.raises(ValidationError):
        ladder_tables(p, 4, 5, k_max=3)
    with pytest.raises(ValidationError):
        ladder_tables(p, 2, 6, k_max=0)
    with pytest.raises(ValidationError):
        ladder_tables(ModelParams(size=2), 1, 2, k_max=3)


def test_kernel_table_size_cap():
    # S=512 fits the cap, S=513 not
    assert MAX_LADDER_SIZE == 512
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            ladder_tables(ModelParams(size=513), 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the dense tables exist


def test_kernel_residual_check(monkeypatch):
    # All-zero masses break both harmonic identities by their full size.
    def zeros(size, x, y):
        return np.zeros((len(x), size - 1))

    monkeypatch.setattr(sepsim.ladder, "_meeting_masses", zeros)
    for k_max in (3, 40):
        with pytest.raises(NumericError):
            ladder_tables(ModelParams(size=6), 2, 5, k_max=k_max)


def test_ladder_allocates_no_dense_table():
    # Everything the ladder builds must stay far below one
    # n_states x (S+1) float64 table of the sparse first-meeting system.
    size = 128
    n_states = size * (size - 1) // 2
    tracemalloc.start()
    try:
        ladder_tables(ModelParams(size=size), 32, 96, k_max=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_states * (size + 1) * 8 / 4


@st.composite
def _pair_starts(draw):
    size = draw(st.integers(3, 40))
    starts = draw(
        st.lists(
            st.integers(1, size - 1).flatmap(
                lambda x: st.tuples(st.just(x), st.integers(x + 2, size + 1))
            ),
            min_size=1,
            max_size=70,
        )
    )
    return size, np.array(starts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_pair_starts())
def test_meeting_masses_match_lu_oracle(case):
    # Random starts, frozen ones (y = S+1) and repeats included, in more
    # than one block of rows.
    size, starts = case
    x, y = starts.T
    masses = _meeting_masses(size, x, y)
    want = meeting_system(size).masses(x, y)[:, : size - 1]
    assert np.abs(masses - want).max() <= 1e-14
    n = np.arange(1, size)
    w, m = size + 1 - y, size - n
    assert np.allclose(masses @ (n * m), x * w, rtol=0, atol=1e-12 * size**2)
    h2 = x * w * (x**2 - w**2)
    assert np.allclose(masses @ (n * m * (n**2 - m**2)), h2, rtol=0, atol=1e-12 * size**4)


@pytest.mark.parametrize("n_rows,pieces", [(100, 1), (200, 2), (257, 3), (0, 1)])
def test_product_in_pieces_matches_one_product(n_rows, pieces):
    # A 64 x 32 left factor takes _SERIAL_MACS // 2048 = 128 rows of b per
    # piece; 257 rows are one past a piece boundary, and an empty b still
    # makes one (64, 0) piece. Positive entries: no cancellation, so the
    # pieces agree with one product to a few ulps whatever BLAS kernel runs.
    gen = np.random.default_rng(n_rows)
    a, b = gen.random((64, 32)), gen.random((n_rows, 32))
    step = _SERIAL_MACS // a.size
    assert step == 128 and max(1, -(-n_rows // step)) == pieces
    got = sepsim.ladder._product(a, b)
    assert got.shape == (64, n_rows)
    np.testing.assert_array_max_ulp(got, a @ b.T, maxulp=4)


def test_deep_ladder_matches_lu_oracle_route():
    size, x, y = 256, 64, 192
    t = ladder_tables(ModelParams(size=size), x, y, k_max=100_000)
    assert t.k_max == 7060  # the early stop
    c, p = lu_ladder(size, x, y, t.k_max)
    assert np.allclose(t.c_start[1:], c[1:], rtol=1e-10, atol=0)
    assert np.abs(t.p - p).max() <= 1e-14


def test_ladder_at_the_size_cap_raises_no_floating_point_flag():
    with np.errstate(all="raise"):
        t = ladder_tables(ModelParams(size=MAX_LADDER_SIZE), 100, 400, k_max=40)
    assert np.isfinite(t.c_start[1:]).all() and (np.diff(t.p) <= 0).all()


@st.composite
def _ladder_case(draw):
    size = draw(st.integers(3, 14))
    x = draw(st.integers(1, size - 2))
    y = draw(st.integers(x + 2, size))
    # Every rung is one product of the mass table with a vector, so one draw
    # covers short ladders and ones past S rungs, up to 3S, below the early stop.
    k_max = draw(st.integers(1, 3 * size))
    return size, x, y, k_max


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_ladder_case())
def test_ladder_and_kernel_match_dense_oracle(case):
    size, x, y, k_max = case
    params = ModelParams(size=size)
    t = ladder_tables(params, x, y, k_max=k_max)
    assert t.k_max == k_max  # no early stop below 3S rungs at S <= 14
    c, p = dense_ladder(size, x, y, k_max)
    assert np.allclose(t.c_start[1:], c[1:], rtol=1e-12, atol=0)
    assert np.allclose(t.p, p, rtol=1e-12, atol=0)
    index, masses = dense_meeting_table(size)
    k = first_meeting_kernel(params, x, y)
    row = masses[index[(x, y)]]
    assert np.allclose(k.mass[1:], row[:size], rtol=0, atol=1e-12)
    assert abs(k.no_meet_mass - row[size]) <= 1e-12


def test_final_bound_holds_on_grid():
    for size in (6, 10):
        p = ModelParams(size=size)
        bound = 1 / (2 * (size + 1)) - 1 / (size + 1) ** 2
        from sepsim.dual import pair_absorption_exact

        pa = pair_absorption_exact(p)
        for x in range(1, size - 1):
            for y in range(x + 2, size + 1):
                gap = p0_independent(p, x, y) - pa.value(x, y)
                assert gap >= -1e-12
                assert gap <= bound


@pytest.mark.parametrize("k", [0, 1, 2])
def test_hybrid_pair_matches_ladder(k):
    p = ModelParams(size=4, seed=14)
    t = ladder_tables(p, 1, 3, k_max=max(k, 1))
    est, se = simulate_hybrid_pair(p, 1, 3, k, 150_000, p.stream(40 + k))
    if k == 0:  # the independent pair is scored at its start
        assert est == t.p[0] and se == 0.0
    else:
        assert abs(est - t.p[k]) < 3.5 * se


def test_hybrid_pair_value_is_unchanged():
    # The mc_replicas hybrid run, bit for bit, as before the dual repack
    # moved to index gathers.
    p = ModelParams(size=16, seed=1)
    est, se = simulate_hybrid_pair(p, 4, 9, 2, 100_000, p.stream(0))
    assert (est.hex(), se.hex()) == ("0x1.f77d89bac9066p-4", "0x1.e7f4bfc7304abp-12")


def test_hybrid_pair_law_over_seeds():
    # z-scores of 40 seeded runs against the ladder rung; at S = 16 the
    # product of two int8 sites overflows unless it is taken in float64.
    cases = [(6, 1, 3, 1), (9, 2, 7, 2), (16, 4, 9, 2), (12, 3, 10, 3), (16, 5, 14, 1)]
    want = [ladder_tables(ModelParams(size=s), x, y, k_max=k).p[k] for s, x, y, k in cases]
    z = []
    for seed in range(8):
        for (s, x, y, k), w in zip(cases, want):
            p = ModelParams(size=s, seed=seed)
            est, se = simulate_hybrid_pair(p, x, y, k, 3000 + 37 * seed, p.stream(5))
            z.append((est - w) / se)
    z = np.array(z)
    assert abs(z.mean()) < 0.5
    assert 0.7 <= z.std(ddof=1) <= 1.3


def test_hybrid_pair_matches_unscored_meeting_walk():
    # Rung k is P0 minus the cost of each of the first k interior meetings,
    # whose probabilities the scalar walk counts one replica at a time.
    size, x, y, k, n = 4, 1, 3, 2, 20_000
    p = ModelParams(size=size, seed=31)
    cost = 1 / (2 * (size + 1) ** 2)
    ref, ref_var = p0_independent(p, x, y), 0.0
    for j in range(1, k + 1):
        c = mc_repeat_meetings(size, x, y, j, np.random.default_rng(700 + j), n)
        ref -= cost * c
        ref_var += cost**2 * c * (1 - c) / (n - 1)
    est, se = simulate_hybrid_pair(p, x, y, k, 100_000, p.stream(0))
    assert abs(est - ref) < 4 * np.sqrt(se**2 + ref_var)


def test_hybrid_pair_scores_below_the_bernoulli_stderr():
    # Unscored, every replica is a 0/1 outcome; scoring the independent pair
    # must take 40% or more off that stderr.
    p, n = ModelParams(size=16, seed=9), 100_000
    m = ladder_tables(p, 4, 9, k_max=2).p[2]
    _, se = simulate_hybrid_pair(p, 4, 9, 2, n, p.stream(0))
    assert se < 0.6 * np.sqrt(m * (1 - m) / (n - 1))


def test_hybrid_pair_large_k_approaches_exclusion_value():
    # With many required meetings the switch almost never happens, so the
    # estimate approaches the pure exclusion-pair probability.
    p = ModelParams(size=3, seed=6)
    est, se = simulate_hybrid_pair(p, 1, 3, 40, 60_000, p.stream(0))
    assert abs(est - 1 / 6) < 3.5 * se


def test_hybrid_pair_without_switch_is_the_dual_walk():
    # A switch that never comes leaves the exclusion pair alone, so on one
    # stream the hybrid must repeat the dual absorption sampler draw for draw.
    p = ModelParams(size=7, seed=12)
    hybrid = simulate_hybrid_pair(p, 2, 5, 10**9, 20_000, p.stream(3))
    assert hybrid == estimate_absorption(p, (2, 5), 20_000, p.stream(3))


def test_hybrid_pair_validation():
    p = ModelParams(size=5, seed=1)
    with pytest.raises(ValidationError):
        simulate_hybrid_pair(p, 2, 3, 1, 10, p.stream(0))
    with pytest.raises(ValidationError):
        simulate_hybrid_pair(p, 1, 4, -1, 10, p.stream(0))
    with pytest.raises(ValidationError):
        simulate_hybrid_pair(p, 1, 4, 1, 0, p.stream(0))


def test_aux_walk_matches_closed_form():
    r = simulate_aux_walk(10, 3, 120_000, ModelParams(size=10, seed=19).stream(0))
    for k in (1, 2, 3):
        assert abs(r.gamma_mc[k] - r.gamma[k]) < 3.5 * r.gamma_stderr[k]
    # tails are nested by construction
    assert (np.diff(r.gamma_mc) <= 0).all()


def test_aux_walk_small_size():
    # S=2: the walk from 1 hits 0 or 2 in one step, so gamma_1 = 1/2 and
    # every return resets the same coin.
    r = simulate_aux_walk(2, 2, 50_000, ModelParams(size=2, seed=8).stream(0))
    assert abs(r.gamma_mc[1] - 0.5) < 3.5 * r.gamma_stderr[1]
    assert abs(r.gamma_mc[2] - 0.25) < 3.5 * r.gamma_stderr[2]


def test_aux_walk_validation():
    stream = ModelParams(size=4, seed=1).stream(0)
    with pytest.raises(ValidationError):
        simulate_aux_walk(1, 2, 10, stream)
    with pytest.raises(ValidationError):
        simulate_aux_walk(5, 0, 10, stream)


def test_aux_walk_table_ends_at_the_ladder_early_stop():
    # 0.9**263 < 1e-12 <= 0.9**262, so at S=10 both tables end at k = 263,
    # and both runs close their walks at the same return count.
    tables = []
    tops = []
    for k_max in (300, 3000):
        r = simulate_aux_walk(10, k_max, 2000, ModelParams(size=10, seed=3).stream(0))
        tables.append(r)
        assert len(r.gamma) == len(r.gamma_mc) == len(r.gamma_stderr) == 264
        assert ladder_tables(ModelParams(size=10), 2, 5, k_max).k_max == 263
        # past the most returns any replica made the tail is exactly (0, 0)
        top = int(np.flatnonzero(r.gamma_mc)[-1])
        tops.append(top)
        assert r.gamma_stderr[top] > 0
        assert not r.gamma_mc[top + 1 :].any() and not r.gamma_stderr[top + 1 :].any()
    assert tops[0] == tops[1] < 263
    assert np.array_equal(tables[0].gamma_mc, tables[1].gamma_mc)
    assert np.array_equal(tables[0].gamma_stderr, tables[1].gamma_stderr)


@pytest.mark.parametrize("size,k_max", [(2, 1), (10, 3), (10, 263), (30, 5)])
def test_aux_walk_closes_at_s_or_at_the_last_return(size, k_max, monkeypatch):
    # Each round keeps the walks that have neither reached S (parked above
    # it) nor made their k_max-th return first, in order, with the return
    # counts of the others behind them, and every walk is closed in the end.
    closed, moved = [], {}
    walk = sepsim.ladder._walk_chunk

    def recorded(p, coins, n, size_):
        moved["returns"] = walk(p, coins, n, size_)
        moved["pos"] = p.copy()
        return moved["returns"]

    def spy(n, step):
        cells = dict(zip(step.__code__.co_freevars, step.__closure__))
        pos, visits = cells["pos"].cell_contents, cells["visits"].cell_contents

        def watched(n_open):
            before = visits[:n_open].copy()
            n_kept = step(n_open)
            p, v = moved["pos"], before + moved["returns"]
            shut = (p > size) | (v >= k_max)
            assert n_kept == n_open - shut.sum()
            assert np.array_equal(pos[:n_kept], p[~shut])
            assert np.array_equal(visits[:n_open], np.concatenate((v[~shut], v[shut])))
            closed.append(n_open - n_kept)
            return n_kept

        lockstep(n, watched)

    monkeypatch.setattr(sepsim.ladder, "_walk_chunk", recorded)
    monkeypatch.setattr(sepsim.ladder, "lockstep", spy)
    n = 3000
    r = simulate_aux_walk(size, k_max, n, ModelParams(size=size, seed=4).stream(0))
    assert sum(closed) == n
    for k in range(1, min(k_max, 3) + 1):
        assert abs(r.gamma_mc[k] - r.gamma[k]) < 4 * r.gamma_stderr[k]


@pytest.mark.parametrize("size,n_replicas", [(2, 2), (4, 3), (10, 2000), (6, 40_000)])
def test_aux_walk_tail_matches_per_k_loop(size, n_replicas, monkeypatch):
    # The one-histogram tail against one mean_stderr pass per k over the
    # walk's own return counts, read from the step closure after the run.
    seen = {}

    def spy(n, step):
        lockstep(n, step)
        cells = dict(zip(step.__code__.co_freevars, step.__closure__))
        seen["visits"] = cells["visits"].cell_contents

    monkeypatch.setattr(sepsim.ladder, "lockstep", spy)
    r = simulate_aux_walk(size, 10_000, n_replicas, ModelParams(size=size, seed=5).stream(0))
    visits = seen["visits"]
    assert int(visits.max()) == int(np.flatnonzero(r.gamma_mc)[-1])
    for j in range(1, int(visits.max()) + 1):
        mc, se = mean_stderr((visits >= j).astype(np.float64))
        assert r.gamma_mc[j] == mc
        assert abs(r.gamma_stderr[j] - se) <= 1e-12 * se


def test_aux_walk_single_replica_has_no_stderr():
    r = simulate_aux_walk(4, 50, 1, ModelParams(size=4, seed=2).stream(0))
    assert np.isnan(r.gamma_stderr[1:]).all()


class _NoDraws:
    """A generator stand-in: any draw from it fails the test."""

    def __getattr__(self, name):
        raise AssertionError("the walk drew before refusing its size")


def test_aux_walk_refuses_mean_round_count_above_cap(monkeypatch):
    # The walk from 1 needs S^2 - 1 rounds on average: S = 2237 is the first
    # size above ROUND_CAP, and the refusal comes before any draw.
    with pytest.raises(ResourceError):
        simulate_aux_walk(2237, 3, 4, _NoDraws())
    monkeypatch.setattr("sepsim.ladder.ROUND_CAP", 15)
    with pytest.raises(ResourceError):
        simulate_aux_walk(5, 1, 4, _NoDraws())
    r = simulate_aux_walk(4, 1, 4, ModelParams(size=4, seed=1).stream(0))
    assert r.n_replicas == 4


def _coins(words, n):
    """The first n coins of each row of a (walkers, words) uint64 array."""
    return [[(int(row[j // 64]) >> (j % 64)) & 1 for j in range(n)] for row in words]


@pytest.mark.parametrize("size", [2, 3, 5, 17, 254, 255, 300])
def test_walk_chunk_matches_scalar_reference(size):
    # 100 walkers, not a multiple of 64, on two words of coins each, checked
    # after every move count n = 1..70. From 1, each small-S walker is
    # absorbed on the last move of one chunk length and in the middle of
    # every longer one. At S >= 254 no walk from 1 reaches S in 70 moves, so
    # the walkers start at S-1, S-2, ..., S-70 and reach it mid-chunk.
    words = np.random.default_rng(size).integers(0, 2**64, size=(100, 2), dtype=np.uint64)
    if size < 70:
        starts = np.ones(len(words), dtype=int)
        # Straight up to S, then straight down: absorbed mid-chunk, and a
        # walker that went on would return to 0 within 2S moves.
        words[0] = [(1 << (size - 1)) - 1, 0]
        if size % 2:  # r (down, forced) pairs then S-1 ups: absorbed on move 32
            words[1] = [((1 << (size - 1)) - 1) << (32 - size + 1), 0]
            assert reflected_walk_reference(size, _coins(words[1:2], 32)[0]) == (
                size, (32 - size + 1) // 2, 32
            )
        assert reflected_walk_reference(size, _coins(words[:1], 70)[0])[2] == size - 1
    else:
        starts = size - 1 - np.arange(len(words)) % 70
    coins = _coins(words, 70)
    for n in range(1, 71):
        p = starts.astype(np.min_scalar_type(-(size + 2 * n + 2)))  # signed: holds -1..S+2n+1
        returns = _walk_chunk(p, words.copy(), n, size)
        want = [reflected_walk_reference(size, c[:n], int(q)) for c, q in zip(coins, starts)]
        absorbed = np.array([w[0] == size for w in want])
        assert ((p > size) == absorbed).all()
        assert (p[~absorbed] == [w[0] for w in want if w[0] != size]).all()
        assert (p >= 0).all()
        assert returns.tolist() == [w[1] for w in want]
    assert absorbed.any() and (size < 70 or not absorbed.all())  # both kinds at n = 70


@pytest.mark.parametrize("size", [2, 3, 17, 254, 255, 300])
def test_byte_table_matches_scalar_reference(size):
    # Entry 256 q + c of the table for m moves is the walk from q over the
    # first m coins of byte c: its end (S+1 once it reached S) plus 2^12
    # times its returns. The parked state S+1 stays put. The table is uint16
    # up to S + 1 = 255, where 256 q + c still fits in 16 bits, else uint32.
    sepsim.ladder._byte_table.cache_clear()
    for moves in range(1, 9):
        table = _byte_table(size, moves)
        assert table.dtype == (np.uint16 if size + 1 < 256 else np.uint32)
        assert not table.flags.writeable and table.shape == ((size + 2) * 256,)
        entries = table.reshape(size + 2, 256).tolist()
        want = {}
        for q in range(size + 1):
            for c in range(256):
                low = c & ((1 << moves) - 1)  # coins past the m-th are never read
                if (q, low) not in want:
                    coins = [low >> j & 1 for j in range(moves)]
                    end, returns, _ = reflected_walk_reference(size, coins, q)
                    want[q, low] = (size + 1 if end == size else end) + (returns << 12)
                assert entries[q][c] == want[q, low]
        assert entries[size + 1] == [size + 1] * 256
    assert _byte_table(size, 8) is _byte_table(size, 8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(size=st.integers(2, 300), n=st.integers(1, _CHUNK), seed=st.integers(0, 2**16))
def test_walk_chunk_matches_per_move_oracle(size, n, seed):
    # 5000 walkers from every open state 0..S-1, across several walker
    # blocks (patched small), against the per-move loop over all walkers.
    rng = np.random.default_rng(seed)
    start = rng.integers(0, size, 5000)
    words = rng.integers(0, 2**64, size=(5000, 1), dtype=np.uint64)
    p = start.astype(np.min_scalar_type(size + 1))
    want = start.astype(np.min_scalar_type(-(size + 2 * n + 2)))  # signed: holds -1..S+2n+1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepsim.ladder, "_WALK_BLOCK", 1000)
        returns = _walk_chunk(p, words, n, size)
    want_returns = walk_chunk_reference(want, words, n, size)
    assert np.array_equal(returns, want_returns)
    open_ = want <= size
    assert np.array_equal(p[open_], want[open_])
    assert (p[~open_] == size + 1).all()


def test_ladder_does_not_build_byte_tables_at_import():
    # The aux tables are built on first use, so importing the package (and
    # every command that runs no aux walk) builds none.
    code = (
        "import sepsim.cli, sepsim.ladder; "
        "assert sepsim.ladder._byte_table.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sepsim.ladder.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_aux_walk_caps_moves_not_chunks(monkeypatch):
    # One walker at S = 6 reads 32 coins from each word its stream draws;
    # with seed 5 it is absorbed on a move that ends no chunk.
    p = ModelParams(size=6, seed=5)
    words = p.stream(0).bit_generator.random_raw((4, 1))
    coins = [c for w in _coins(words, _CHUNK) for c in w]
    end, returns, moves = reflected_walk_reference(6, coins)
    assert end == 6 and moves > _CHUNK and moves % _CHUNK
    monkeypatch.setattr(sepsim.core, "ROUND_CAP", moves)
    r = simulate_aux_walk(6, 40, 1, p.stream(0))
    assert r.gamma_mc[returns] == 1 and not r.gamma_mc[returns + 1 :].any()
    monkeypatch.setattr(sepsim.core, "ROUND_CAP", moves - 1)
    with pytest.raises(NumericError):
        simulate_aux_walk(6, 40, 1, p.stream(0))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(size=st.integers(2, 40), seed=st.integers(0, 2**16))
def test_aux_walk_law_at_random_sizes(size, seed):
    r = simulate_aux_walk(size, 3, 20_000, ModelParams(size=size, seed=seed).stream(0))
    for k in (1, 2, 3):
        assert abs(r.gamma_mc[k] - r.gamma[k]) < 4 * r.gamma_stderr[k]
