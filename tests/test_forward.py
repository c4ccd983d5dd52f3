import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    all_states,
    enabled_bonds,
    expm_state_distribution,
    moment_from_distribution,
    step_ctmc,
    swap_result,
)
from sepsim.core import Configuration, ModelParams, default_initial_configuration
import sepsim.forward
from sepsim.errors import ResourceError, ValidationError
from sepsim.exact import exact_moment, stationary_distribution
from sepsim.forward import (
    MAX_FIRINGS,
    SimSchedule,
    _fire,
    _fire_round,
    _masks,
    _pack,
    _unpack,
    default_schedule,
    estimate_stationary_moments,
    transient_moment,
)


def test_schedule_validation():
    SimSchedule(burn_in=0.0, n_samples=1, sample_interval=0.5, n_replicas=1)
    with pytest.raises(ValidationError):
        SimSchedule(burn_in=-1.0, n_samples=1, sample_interval=0.5, n_replicas=1)
    with pytest.raises(ValidationError):
        SimSchedule(burn_in=0.0, n_samples=0, sample_interval=0.5, n_replicas=1)
    with pytest.raises(ValidationError):
        SimSchedule(burn_in=0.0, n_samples=1, sample_interval=0.0, n_replicas=1)
    with pytest.raises(ValidationError):
        SimSchedule(burn_in=0.0, n_samples=1, sample_interval=0.5, n_replicas=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            SimSchedule(burn_in=bad, n_samples=1, sample_interval=0.5, n_replicas=1)
        with pytest.raises(ValidationError):
            SimSchedule(burn_in=0.0, n_samples=1, sample_interval=bad, n_replicas=1)


def test_firing_cap_refuses_before_drawing(monkeypatch):
    # The default schedule at S=1000 (about 1.8e10 firings per replica) is
    # admitted; a burn-in one firing over the cap is refused. The block
    # runner is stubbed out, so nothing is simulated either way.
    ran = []
    monkeypatch.setattr(
        sepsim.forward,
        "_run_block",
        lambda job: ran.append(job) or (np.zeros((job[5] - job[4], 1)), 0, 0),
    )
    p = ModelParams(size=1000)
    sched = default_schedule(p, n_samples=200)
    estimate_stationary_moments(p, [(1,)], sched, p.stream(0))
    assert len(ran) == 1
    over = SimSchedule(
        burn_in=MAX_FIRINGS / 1001 * (1 + 1e-9),
        n_samples=1,
        sample_interval=1.0,
        n_replicas=1,
    )
    with pytest.raises(ResourceError):
        estimate_stationary_moments(p, [(1,)], over, p.stream(0))
    assert len(ran) == 1


def test_default_schedule_in_bond_time_units():
    # 10 S^2 of burn-in and S^2/25 between samples, bonds ringing at rate 1
    schedule = default_schedule(ModelParams(size=6))
    assert schedule.burn_in == 360.0
    assert schedule.sample_interval == 1.44


def test_step_ctmc_is_reproducible():
    p = ModelParams(size=5, seed=11)
    c0 = (0, 1, 1, 0, 0)

    def walk():
        gen = p.stream(0).generator()
        c, t = c0, 0.0
        path = []
        for _ in range(40):
            c, dt = step_ctmc(c, 5, gen)
            t += dt
            path.append(c)
        return path, t

    a, ta = walk()
    b, tb = walk()
    assert a == b
    assert ta == tb


def test_step_ctmc_fires_enabled_bonds_only():
    p = ModelParams(size=4, seed=2)
    gen = p.stream(1).generator()
    c = (0, 1, 1, 0)
    for _ in range(60):
        nxt, dt = step_ctmc(c, 4, gen)
        assert dt > 0
        assert nxt != c
        c = nxt


def test_step_ctmc_holding_time_scales():
    # With n enabled bonds the holding time is Exp(rate * n); check the
    # sample mean over many steps from a fixed two-bond state.
    p = ModelParams(size=2, seed=5)
    gen = p.stream(0).generator()
    c = (1, 0)
    assert len(enabled_bonds(Configuration.from_interior(c))) == 3
    times = []
    for _ in range(4000):
        _, dt = step_ctmc(c, 2, gen)
        times.append(dt)
    mean = np.mean(times)
    se = np.std(times, ddof=1) / np.sqrt(len(times))
    assert abs(mean - 1 / 3) < 4 * se


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 40),
    width=st.integers(1, 130),
    n_rounds=st.integers(0, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_kernel_matches_scalar_replay(size, width, n_rounds, seed):
    # Random starts, bonds and per-lane sample rounds, repeats included. A lane
    # idles after its last sample and, in a fifth of the lanes, at random
    # rounds before it. Each replica replayed alone must match every snapshot
    # taken of it, and the block must count its state changes exactly.
    rng = np.random.default_rng(seed)
    interior = rng.integers(0, 2, size=(size, width))
    bonds = rng.integers(0, size + 1, size=(n_rounds, width))
    samples = [
        np.sort(rng.integers(0, n_rounds + 1, size=rng.integers(1, 5))) for _ in range(width)
    ]
    live = np.arange(n_rounds)[:, None] < [c[-1] for c in samples]
    live[:, rng.random(width) < 0.2] &= rng.random((n_rounds, 1)) < 0.5
    at = sorted({int(j) for c in samples for j in c})
    start = np.vstack([np.zeros(width, int), interior, np.ones(width, int)])
    bulk = ((1 << (size * width)) - 1) << width
    scratch = np.zeros((n_rounds, -(-(size + 1) * width // 8) * 8), dtype=bool)
    masks = _masks(bonds, scratch, live)
    assert not scratch.any()
    occ, events, snaps = _fire(_pack(start), masks, at, width, bulk)
    final = _unpack([occ], size + 2, width)[0]
    shots = _unpack(snaps, size + 2, width)
    assert len(snaps) == len(at)
    assert not final[0].any() and final[-1].all()
    assert not shots[:, 0].any() and shots[:, -1].all()
    changes = 0
    for r in range(width):
        state = tuple(int(v) for v in interior[:, r])
        path = [state]
        for b, fires in zip(bonds[:, r], live[:, r]):
            if fires:
                new = swap_result(state, int(b), size)
                changes += new != state
                state = new
            path.append(state)
        for j in samples[r]:
            assert tuple(int(v) for v in shots[at.index(j), 1:-1, r]) == path[j]
        assert tuple(int(v) for v in final[1:-1, r]) == state
    assert events == changes


def test_stationary_estimate_matches_exact():
    p = ModelParams(size=3, seed=1)
    pi = stationary_distribution(p.size)
    sched = default_schedule(p, n_replicas=24, n_samples=150)
    est = estimate_stationary_moments(p, [(2,)], sched, p.stream(0))
    want = exact_moment(pi, (2,))
    assert abs(est.estimates[0] - want) < max(0.02, 3.5 * est.stderrs[0])


def test_stationary_pair_estimate_matches_exact():
    p = ModelParams(size=4, seed=8)
    pi = stationary_distribution(p.size)
    sched = default_schedule(p, n_replicas=24, n_samples=150)
    est = estimate_stationary_moments(p, [(1, 3)], sched, p.stream(0))
    want = exact_moment(pi, (1, 3))
    assert abs(est.estimates[0] - want) < max(0.02, 3.5 * est.stderrs[0])


def test_profile_shares_trajectories():
    p = ModelParams(size=4, seed=3)
    sched = default_schedule(p, n_replicas=6, n_samples=40)
    prof = estimate_stationary_moments(p, [(x,) for x in range(1, 5)], sched, p.stream(0))
    single = estimate_stationary_moments(p, [(2,)], sched, p.stream(0))
    # same stream, same replica count: site 2 must agree exactly
    assert prof.estimates[1] == single.estimates[0]
    assert prof.total_events == single.total_events


def test_worker_split_does_not_change_results():
    # 70 replicas span two lockstep blocks, so 3 workers really split them.
    p = ModelParams(size=4, seed=6)
    sets = [(1,), (2, 4)]
    for reps in (8, 70):
        sched = default_schedule(p, n_replicas=reps, n_samples=30)
        serial = estimate_stationary_moments(p, sets, sched, p.stream(0), n_workers=1)
        pooled = estimate_stationary_moments(p, sets, sched, p.stream(0), n_workers=3)
        assert np.array_equal(serial.estimates, pooled.estimates)
        assert np.array_equal(serial.stderrs, pooled.stderrs)
        assert serial.total_events == pooled.total_events
        assert serial.rounds == pooled.rounds


def test_stationary_single_site_matches_exact():
    # S=1: both bonds are boundary bonds and the only bulk field is pinned
    # on both sides.
    p = ModelParams(size=1, seed=2)
    want = exact_moment(stationary_distribution(p.size), (1,))
    sched = default_schedule(p, n_replicas=24, n_samples=200)
    est = estimate_stationary_moments(p, [(1,)], sched, p.stream(0))
    assert abs(est.estimates[0] - want) < max(0.02, 3.5 * est.stderrs[0])
    assert 0 < est.total_events <= est.rounds * 24


def test_single_replica_has_nan_stderr():
    p = ModelParams(size=5, seed=4)
    sched = default_schedule(p, n_replicas=1, n_samples=50)
    est = estimate_stationary_moments(p, [(x,) for x in range(1, 6)], sched, p.stream(0))
    assert np.all((est.estimates >= 0) & (est.estimates <= 1))
    assert np.isnan(est.stderrs).all()
    assert 0 < est.total_events <= est.rounds


def test_zero_burn_in_samples_the_start():
    p = ModelParams(size=5, seed=1)
    sched = SimSchedule(burn_in=0.0, n_samples=1, sample_interval=1.0, n_replicas=3)
    est = estimate_stationary_moments(p, [(x,) for x in range(1, 6)], sched, p.stream(0))
    assert est.estimates.tolist() == [1, 1, 1, 0, 0]
    assert est.total_events == 0 and est.rounds == 0


def test_burn_in_and_masks_are_streamed():
    # About 130k firings per replica in the burn-in: materialising them, or
    # their round masks, would take tens of MB.
    p = ModelParams(size=64, seed=3)
    sched = SimSchedule(burn_in=2000.0, n_samples=2, sample_interval=1.0, n_replicas=8)
    tracemalloc.start()
    try:
        est = estimate_stationary_moments(p, [(5,), (30, 31)], sched, p.stream(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.rounds > 65 * 2000
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_short_run_matches_expm_oracle_at_both_sample_times():
    # At S=3 the first sample falls after Poisson(4 t) rounds and the second
    # Poisson(1) rounds later, at the same round in 37% of the replicas. The
    # pooled estimates must match the mean of the moments at t and t + dt;
    # capturing one round late or early, or a clock at rate S+2, moves some
    # estimate by 6 sigma or more. A replica fires only up to its last
    # sample, so its expected events are the integral over [0, t + dt] of the
    # expected number of unbalanced bonds.
    p = ModelParams(size=3, seed=4)
    c0 = default_initial_configuration(p).interior()
    sets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    t, dt, reps = 0.3, 0.25, 3200
    dists = [expm_state_distribution(3, c0, u) for u in (t, t + dt)]
    want = [np.mean([moment_from_distribution(d, pts, 3) for d in dists]) for pts in sets]
    sched = SimSchedule(burn_in=t, n_samples=2, sample_interval=dt, n_replicas=reps)
    est = estimate_stationary_moments(p, sets, sched, p.stream(0))
    assert np.all(np.abs(est.estimates - want) < 4 * est.stderrs)
    full = np.array([(0, *c, 1) for c in all_states(3)])
    unbalanced = (full[:, 1:] != full[:, :-1]).sum(axis=1)
    grid = np.linspace(0.0, t + dt, 201)
    rate = np.array([expm_state_distribution(3, c0, u) @ unbalanced for u in grid])
    mean_events = np.sum((rate[1:] + rate[:-1]) / 2 * np.diff(grid))
    lam = 4 * (t + dt)  # a replica's events are at most its Poisson(lam) firings
    spread = math.sqrt(reps * (lam + lam**2))
    assert abs(est.total_events - reps * mean_events) < 4 * spread


def test_samples_at_one_round_each_count():
    # Three samples 1e-12 apart share a round in every lane, so each replica's
    # mean is 0 or 1 and the stderr is that of a coin; counting a repeated
    # sample once would leave means of 0 or 2/3.
    p = ModelParams(size=3, seed=2)
    reps = 40
    sched = SimSchedule(burn_in=0.7, n_samples=3, sample_interval=1e-12, n_replicas=reps)
    est = estimate_stationary_moments(p, [(1,), (3,)], sched, p.stream(0))
    m = est.estimates
    assert np.all((0 < m) & (m < 1))
    assert np.allclose(m * reps, np.round(m * reps))
    assert np.allclose(est.stderrs, np.sqrt(m * (1 - m) / (reps - 1)))


def test_sample_rounds_are_streamed():
    # 2e5 samples per replica, most of them at the same round as the one
    # before: their rounds alone would take 6.4 MB as int64.
    p = ModelParams(size=4, seed=5)
    sched = SimSchedule(burn_in=1.0, n_samples=200_000, sample_interval=0.01, n_replicas=4)
    tracemalloc.start()
    try:
        est = estimate_stationary_moments(p, [(1,), (2, 4)], sched, p.stream(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.rounds > 5 * 0.01 * 200_000 * 0.9
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_estimate_validates_points():
    p = ModelParams(size=4, seed=1)
    sched = default_schedule(p, n_replicas=2, n_samples=5)
    with pytest.raises(ValidationError):
        estimate_stationary_moments(p, [(0, 2)], sched, p.stream(0))
    with pytest.raises(ValidationError):
        estimate_stationary_moments(p, [], sched, p.stream(0))


def test_transient_moment_at_time_zero():
    p = ModelParams(size=5, seed=1)
    c0 = Configuration.from_interior_string("11000")
    est, se = transient_moment(p, c0, 0.0, (1, 2), 10, p.stream(0))
    assert est == 1.0 and se == 0.0
    est, se = transient_moment(p, c0, 0.0, (3,), 10, p.stream(0))
    assert est == 0.0 and se == 0.0


@pytest.mark.parametrize("t,points", [(0.5, (2,)), (1.5, (1, 3)), (3.0, (4,))])
def test_transient_moment_matches_expm_oracle(t, points):
    p = ModelParams(size=5, seed=13)
    c0 = Configuration.from_interior_string("11100")
    dist = expm_state_distribution(5, c0.interior(), t)
    want = moment_from_distribution(dist, points, 5)
    est, se = transient_moment(p, c0, t, points, 60_000, p.stream(2))
    assert abs(est - want) < max(3.5 * se, 1e-3)


# S+1 = 2, 8 and 64 fill the bond clock exactly; S+1 = 3, 5, 9, 17, 33 and 65
# leave the most idle values.
_CLOCK_EDGE_SIZES = (1, 7, 63, 2, 4, 8, 16, 32, 64)


@settings(max_examples=80, deadline=None)
@given(
    size=st.one_of(st.sampled_from(_CLOCK_EDGE_SIZES), st.integers(1, 70)),
    n_lanes=st.integers(1, 200),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bond_kernel_matches_scalar_swap(size, n_lanes, data, seed):
    # One round of the word kernel on random states and random bit planes,
    # from a random first open lane. Each lane replayed alone must match.
    rng = np.random.default_rng(seed)
    first = data.draw(st.integers(0, n_lanes - 1), label="first")
    n_words = -(-n_lanes // 64)
    n_planes = size.bit_length()
    interior = rng.integers(0, 2, size=(size, 64 * n_words), dtype=np.uint8)
    occ = np.vstack(
        [
            np.zeros(n_words, np.uint64),
            np.packbits(interior, axis=1, bitorder="little").view("<u8"),
            np.full(n_words, 2**64 - 1, np.uint64),
        ]
    )
    planes = rng.integers(0, 2**64, size=(n_planes, n_words - first // 64), dtype=np.uint64)
    _fire_round(occ, first, planes, np.full((2, size + 1, n_words), 12345, np.uint64))
    after = np.unpackbits(occ.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not after[0].any() and after[-1].all()
    plane_bits = np.unpackbits(planes.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    for lane in range(n_lanes):
        state = tuple(int(v) for v in interior[:, lane])
        if lane >= first:
            col = lane - 64 * (first // 64)
            value = sum(int(plane_bits[b, col]) << b for b in range(n_planes))
            if value <= size:
                state = swap_result(state, value, size)
        assert tuple(int(v) for v in after[1:-1, lane]) == state


def test_transient_moment_law_over_seeds():
    # z-scores of 40 seeded runs against the expm oracle, at sizes whose
    # bond clock is exact (S+1 = 2, 8) or has idle values, with replica
    # counts that leave a partial last word.
    cases = [
        (1, "1", 0.7, (1,)),
        (3, "101", 1.1, (1, 3)),
        (5, "11100", 1.5, (2, 4)),
        (7, "1010101", 0.9, (3,)),
        (8, "11110000", 2.0, (4, 5)),
    ]
    want = [
        moment_from_distribution(
            expm_state_distribution(s, Configuration.from_interior_string(c).interior(), t),
            pts,
            s,
        )
        for s, c, t, pts in cases
    ]
    z = []
    for seed in range(8):
        for (s, c, t, pts), w in zip(cases, want):
            p = ModelParams(size=s, seed=seed)
            c0 = Configuration.from_interior_string(c)
            est, se = transient_moment(p, c0, t, pts, 4000 + 37 * seed, p.stream(3))
            z.append((est - w) / se)
    z = np.array(z)
    assert abs(z.mean()) < 0.5
    assert 0.7 <= z.std(ddof=1) <= 1.3


def test_transient_moment_reads_replicas_in_lane_order(monkeypatch):
    # Replicas 0..65 get no round and keep site 1 full; the other four get one
    # round that empties every open lane. A lane read out of order, or a
    # padding lane read in place of a replica, moves the mean off 66/70.
    n, kept = 70, 66
    monkeypatch.setattr(sepsim.forward, "poisson_rounds", lambda *_: np.array([kept]))

    def empty_open_lanes(occ, first, planes, scratch):
        bits = np.unpackbits(occ.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        bits[1:-1, first:] = 0
        occ[:] = np.packbits(bits, axis=1, bitorder="little").view("<u8")

    monkeypatch.setattr(sepsim.forward, "_fire_round", empty_open_lanes)
    p = ModelParams(size=1)
    c0 = Configuration.from_interior_string("1")
    est, _ = transient_moment(p, c0, 1.0, (1,), n, p.stream(0))
    assert est == kept / n


def test_transient_moment_with_boundary_points():
    p = ModelParams(size=4, seed=9)
    c0 = Configuration.from_interior_string("1111")
    est, _ = transient_moment(p, c0, 0.7, (0, 2), 500, p.stream(0))
    assert est == 0.0
    est, _ = transient_moment(p, c0, 0.0, (2, 5), 500, p.stream(0))
    assert est == 1.0
