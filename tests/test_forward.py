import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    enabled_bonds,
    expm_state_distribution,
    moment_from_distribution,
    step_ctmc,
    swap_result,
)
from sepsim.core import Configuration, ModelParams, count_mean_stderr
import sepsim.core
import sepsim.forward
from sepsim.dual import stationary_moment, transient_dual_moment
from sepsim.errors import ResourceError, ValidationError
from sepsim.exact import exact_moment, sample_stationary, stationary_distribution
from sepsim.forward import (
    _DRAW_LANES,
    MAX_FIRINGS,
    _exact_start,
    _fire_round,
    _run_rounds,
    estimate_stationary_moments,
    transient_moment,
)


def test_schedule_validation():
    # The lane count and the interval are checked before anything is drawn.
    p = ModelParams(size=2)

    def run(n_lanes, sample_interval):
        return estimate_stationary_moments(p, [(1,)], n_lanes, _NoDraws(), sample_interval)

    with pytest.raises(AssertionError, match="drew"):
        run(1, 0.5)
    with pytest.raises(ValidationError):
        run(1, 0.0)
    for bad_lanes in (0, -1):
        with pytest.raises(ValidationError):
            run(bad_lanes, 0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            run(1, bad)


class _NoDraws:
    """A generator stand-in: any draw from it fails the test."""

    def __getattr__(self, name):
        raise AssertionError("the estimator drew")


def test_firing_cap_refuses_before_drawing(monkeypatch):
    # At S=3 the clock runs 4 rounds per unit time, so an interval of 25000
    # is 1e5 rounds per lane: 10^6 lanes are exactly the cap of lane-rounds
    # and are admitted, one lane more is refused. The engine is stubbed out,
    # so nothing is simulated either way.
    assert MAX_FIRINGS == 10**11
    ran = []

    def start(size, n_words, gen):
        ran.append(n_words)
        return np.zeros((size + 2, n_words), dtype=np.uint64)

    monkeypatch.setattr(sepsim.forward, "_exact_start", start)
    monkeypatch.setattr(sepsim.forward, "_run_rounds", lambda *_: 0)
    p = ModelParams(size=3)
    est = estimate_stationary_moments(p, [(1,)], 10**6, p.stream(0), 25_000.0)
    assert est.rounds == 100_000 and sum(ran) == 10**6 // 64
    with pytest.raises(ResourceError):
        estimate_stationary_moments(p, [(1,)], 10**6 + 1, p.stream(0), 25_000.0)
    assert sum(ran) == 10**6 // 64


def test_lane_tally_memory_does_not_grow_with_lanes(monkeypatch):
    # 16 point sets keep one count each, however many lanes: with the engine
    # stubbed, 10^7 lanes (153 chunks) peak within 1 MB of 10^5 lanes.
    monkeypatch.setattr(
        sepsim.forward, "_exact_start", lambda s, w, gen: np.full((s + 2, w), 2**64 - 1, np.uint64)
    )
    monkeypatch.setattr(sepsim.forward, "_run_rounds", lambda *_: 0)
    p = ModelParams(size=16)
    sets = [(x,) for x in range(1, 17)]
    peaks = []
    for n_lanes in (10**5, 10**7):
        tracemalloc.start()
        try:
            est = estimate_stationary_moments(p, sets, n_lanes, p.stream(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert est.n_lanes == n_lanes and (est.estimates == 1).all()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_default_sample_interval_in_bond_time_units():
    # S^2/25 time units between samples, bonds ringing at rate 1: at S=6 the
    # clock runs 2^3 rounds per unit time, so each lane fires ceil(8 * 1.44).
    # Below S=5 the interval is one time unit.
    p = ModelParams(size=6)
    est = estimate_stationary_moments(p, [(1,)], 6, p.stream(0))
    assert est.sample_interval == 1.44 and est.rounds == 12
    p = ModelParams(size=3)
    est = estimate_stationary_moments(p, [(1,)], 6, p.stream(0))
    assert est.sample_interval == 1.0 and est.rounds == 4


def test_step_ctmc_is_reproducible():
    p = ModelParams(size=5, seed=11)
    c0 = (0, 1, 1, 0, 0)

    def walk():
        gen = p.stream(0)
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
    gen = p.stream(1)
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
    gen = p.stream(0)
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
    n_lanes=st.integers(1, 130),
    n_rounds=st.integers(0, 25),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_kernel_matches_scalar_replay(size, n_lanes, n_rounds, seed):
    # Random starts in every lane of the words, padding lanes included, and
    # the engine's own random planes drawn again from the same seed. Each lane
    # below n_lanes replayed alone must match, and padding lanes never fire.
    rng = np.random.default_rng(seed)
    n_words, n_planes = -(-n_lanes // 64), size.bit_length()
    interior = rng.integers(0, 2, size=(size, 64 * n_words), dtype=np.uint8)
    occ = np.vstack(
        [
            np.zeros(n_words, np.uint64),
            np.packbits(interior, axis=1, bitorder="little").view("<u8"),
            np.full(n_words, 2**64 - 1, np.uint64),
        ]
    )
    events = _run_rounds(occ, n_rounds, n_lanes, np.random.default_rng(seed + 1))
    gen = np.random.default_rng(seed + 1)
    planes = [gen.bit_generator.random_raw((n_planes, n_words)) for _ in range(n_rounds)]
    values = [
        (np.unpackbits(pl.astype("<u8").view(np.uint8), axis=1, bitorder="little")
         << np.arange(n_planes)[:, None]).sum(axis=0)
        for pl in planes
    ]
    after = np.unpackbits(occ.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not after[0].any() and after[-1].all()
    changes = 0
    for lane in range(64 * n_words):
        state = tuple(int(v) for v in interior[:, lane])
        for value in values:
            if lane < n_lanes and value[lane] <= size:
                new = swap_result(state, int(value[lane]), size)
                changes += new != state
                state = new
        assert tuple(int(v) for v in after[1:-1, lane]) == state
    assert events == changes


def test_stationary_estimate_matches_exact():
    p = ModelParams(size=3, seed=1)
    pi = stationary_distribution(p.size)
    est = estimate_stationary_moments(p, [(2,)], 24 * 150, p.stream(0))
    want = exact_moment(pi, (2,))
    assert abs(est.estimates[0] - want) < max(0.02, 3.5 * est.stderrs[0])


def test_stationary_pair_estimate_matches_exact():
    p = ModelParams(size=4, seed=8)
    pi = stationary_distribution(p.size)
    est = estimate_stationary_moments(p, [(1, 3)], 24 * 150, p.stream(0))
    want = exact_moment(pi, (1, 3))
    assert abs(est.estimates[0] - want) < max(0.02, 3.5 * est.stderrs[0])


def test_profile_shares_trajectories():
    p = ModelParams(size=4, seed=3)
    prof = estimate_stationary_moments(p, [(x,) for x in range(1, 5)], 240, p.stream(0))
    single = estimate_stationary_moments(p, [(2,)], 240, p.stream(0))
    # same stream, same lane count: site 2 must agree exactly
    assert prof.estimates[1] == single.estimates[0]
    assert prof.total_events == single.total_events


def test_stationary_single_site_matches_exact():
    # S=1: both bonds are boundary bonds and the only bulk field is pinned
    # on both sides.
    p = ModelParams(size=1, seed=2)
    want = exact_moment(stationary_distribution(p.size), (1,))
    est = estimate_stationary_moments(p, [(1,)], 24 * 200, p.stream(0))
    assert abs(est.estimates[0] - want) < max(0.02, 3.5 * est.stderrs[0])
    assert 0 < est.total_events <= est.rounds * 24 * 200


def test_single_replica_has_nan_stderr():
    # One lane reads 0 or 1 at each site and has no standard error.
    p = ModelParams(size=5, seed=4)
    est = estimate_stationary_moments(p, [(x,) for x in range(1, 6)], 1, p.stream(0))
    assert np.isin(est.estimates, (0.0, 1.0)).all()
    assert np.isnan(est.stderrs).all()
    assert 0 < est.total_events <= est.rounds


def test_lanes_pool_into_one_binomial_estimate(monkeypatch):
    # Lane i starts with site 1 full exactly when i is a multiple of 3, and
    # nothing fires. 70 lanes run in two chunks of one word; the 58 padding
    # lanes of the second word are set like the rest, so reading one moves
    # the count off the 24 multiples of 3 below 70.
    monkeypatch.setattr(sepsim.forward, "CHUNK_WORDS", 1)
    lane = iter(range(128))

    def start(size, n_words, gen):
        bits = np.array([[next(lane) % 3 == 0 for _ in range(64 * n_words)]], dtype=np.uint8)
        words = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        return np.vstack([np.zeros(n_words, np.uint64), words, ~np.zeros(n_words, np.uint64)])

    monkeypatch.setattr(sepsim.forward, "_exact_start", start)
    monkeypatch.setattr(sepsim.forward, "_run_rounds", lambda *_: 0)
    p = ModelParams(size=1)
    est = estimate_stationary_moments(p, [(1,)], 70, p.stream(0), 1.0)
    assert est.estimates[0] == 24 / 70
    assert est.stderrs[0] == count_mean_stderr(24, 70)[1]


def test_stderr_is_the_binomial_error_of_the_lanes():
    # simulate --size 3 --replicas 2 --samples 3: six lanes, of which two read
    # 1 at site 2. Split into two replicas of three they had equal means and
    # a standard error of 0; the lanes' own error is sqrt(2 * 4 / 5) / 6.
    p = ModelParams(size=3, seed=1)
    est = estimate_stationary_moments(p, [(x,) for x in range(1, 4)], 6, p.stream(0))
    counts = np.rint(est.estimates * 6)
    assert counts[1] == 2 and est.stderrs[1] == math.sqrt(2 * 4 / 5) / 6 > 0
    assert np.array_equal(est.stderrs, count_mean_stderr(counts, 6)[1])


def test_exact_start_spans_draw_chunks():
    # 133 words are one chunk of _DRAW_LANES lanes and 320 lanes more. Lane
    # i of the words is draw i of the same stream, chunk after chunk, and
    # every site keeps its stationary mean x/(S+1) within 5 sigma.
    s, n_words = 12, _DRAW_LANES // 64 + 5
    occ = _exact_start(s, n_words, np.random.default_rng(4))
    gen = np.random.default_rng(4)
    draws = np.vstack([sample_stationary(s, _DRAW_LANES, gen), sample_stationary(s, 320, gen)])
    bits = np.unpackbits(occ.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    assert not bits[0].any() and bits[-1].all()
    assert np.array_equal(bits[1:-1], draws.T)
    want = np.arange(1, s + 1) / (s + 1)
    sigma = np.sqrt(want * (1 - want) / (64 * n_words))
    assert np.all(np.abs(bits[1:-1].mean(axis=1) - want) < 5 * sigma)


def test_forward_run_keeps_exact_draws_stationary():
    # 1024 lanes of exact draws fire S time units at S=128. Every site and
    # adjacent pair must stay within 4 sigma of the closed form, sigma the
    # binomial error of the 1024 independent lanes.
    s = 128
    p = ModelParams(size=s, seed=7)
    sets = [(x,) for x in range(1, s + 1)] + [(x, x + 1) for x in range(1, s)]
    est = estimate_stationary_moments(p, sets, 1024, p.stream(0), float(s))
    want = np.array([stationary_moment(s, pts) for pts in sets])
    sigma = np.sqrt(want * (1 - want) / 1024)
    assert est.rounds == 256 * s
    assert np.all(np.abs(est.estimates - want) < 4 * sigma)


def test_burn_in_and_masks_are_streamed():
    # 1024 lanes (16 words) fire 50 time units at S=64, 6400 rounds: the
    # rounds' 7 bit planes alone would take 5.7 MB, their firings 53 MB.
    p = ModelParams(size=64, seed=3)
    tracemalloc.start()
    try:
        est = estimate_stationary_moments(p, [(5,), (30, 31)], 1024, p.stream(0), 50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.rounds == 128 * 50 and est.total_events > 0
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_sample_rounds_are_streamed():
    # 2e5 lanes at S=64: their words and round scratch alone would take 5 MB,
    # their exact draws' 64 insertion points 13 MB and their unhit flags
    # 13 MB more.
    p = ModelParams(size=64, seed=3)
    tracemalloc.start()
    try:
        est = estimate_stationary_moments(p, [(5,), (30, 31)], 200_000, p.stream(0), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.rounds == 128 and est.total_events > 0
    assert peak < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_estimate_validates_points():
    p = ModelParams(size=4, seed=1)
    with pytest.raises(ValidationError):
        estimate_stationary_moments(p, [(0, 2)], 10, p.stream(0))
    with pytest.raises(ValidationError):
        estimate_stationary_moments(p, [], 10, p.stream(0))


def test_transient_moment_at_time_zero():
    p = ModelParams(size=5, seed=1)
    c0 = Configuration.from_interior_string("11000")
    est, se = transient_moment(p, c0, 0.0, (1, 2), 10, p.stream(0))
    assert est == 1.0 and se == 0.0
    est, se = transient_moment(p, c0, 0.0, (3,), 10, p.stream(0))
    assert est == 0.0 and se == 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transient_samplers_read_the_start_at_time_zero(data):
    # No round fires at t = 0, so every replica of both samplers reads the
    # start: the estimate is the start's product exactly, and the standard
    # error is 0 from two replicas on and NaN, as in mean_stderr, for one.
    s = data.draw(st.integers(1, 12))
    bits = st.lists(st.integers(0, 1), min_size=s, max_size=s)
    c0 = Configuration.from_interior(data.draw(bits))
    n = data.draw(st.sampled_from([1, 2, 64, 70]))
    p = ModelParams(size=s, seed=data.draw(st.integers(0, 2**32)))
    forward_pts = tuple(sorted(data.draw(st.sets(st.integers(0, s + 1), min_size=1))))
    dual_pts = tuple(sorted(data.draw(st.sets(st.integers(1, s), min_size=1))))
    runs = [
        (forward_pts, transient_moment(p, c0, 0.0, forward_pts, n, p.stream(1))),
        (dual_pts, transient_dual_moment(p, dual_pts, c0, 0.0, n, p.stream(2))),
    ]
    for pts, (est, se) in runs:
        assert est == math.prod(c0.occupancy[x] for x in pts)
        assert math.isnan(se) if n == 1 else se == 0.0


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
    w = first // 64
    planes = rng.integers(0, 2**64, size=(n_planes, n_words - w), dtype=np.uint64)
    open_ = np.packbits(np.arange(64 * w, 64 * n_words) >= first, bitorder="little").view("<u8")
    scratch = np.full((2, size + 1, n_words - w), 12345, np.uint64)
    _fire_round(occ[:, w:], open_, planes, scratch)
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
    monkeypatch.setattr(sepsim.core, "poisson_rounds", lambda *_: np.array([kept]))

    def empty_open_lanes(occ, open_, planes, scratch):
        bits = np.unpackbits(occ.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        is_open = np.unpackbits(open_.astype("<u8").view(np.uint8), bitorder="little")
        bits[1:-1, is_open == 1] = 0
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
