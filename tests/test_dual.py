import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepsim.core
import sepsim.dual
from bruteforce import (
    DualResult,
    expm_state_distribution,
    moment_from_distribution,
    simulate_dual,
    stationary_null_space,
    walker_move,
)
from sepsim.core import ROUND_CAP, Configuration, ModelParams
from sepsim.dual import (
    _count_episodes,
    _hop_round,
    _on_zero,
    absorbing_run,
    estimate_absorption,
    pair_absorption_exact,
    stationary_moment,
    transient_dual_moment,
)
from sepsim.errors import ValidationError
from sepsim.exact import exact_moment, stationary_distribution
from sepsim.ladder import simulate_hybrid_pair
from sepsim.moments import build_moment_system, stationary_moments


def test_stationary_moment_single_point_is_ruin_probability():
    assert stationary_moment(9, (1,)) == 0.1
    assert stationary_moment(9, (9,)) == 0.9
    # boundary positions carry their absorbed values
    assert stationary_moment(9, (0,)) == 0.0
    assert stationary_moment(9, (10,)) == 1.0
    with pytest.raises(ValidationError):
        stationary_moment(9, (11,))
    with pytest.raises(ValidationError):
        stationary_moment(9, (-1,))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10))
def test_stationary_moment_matches_exact_vector_on_every_subset(size):
    # Every nonempty subset of 0..S+1, so sets that start at the empty
    # reservoir or end at the full one are covered too.
    pi = stationary_distribution(size)
    sites = range(size + 2)
    for k in range(1, size + 3):
        for pts in itertools.combinations(sites, k):
            assert abs(stationary_moment(size, pts) - exact_moment(pi, pts)) < 1e-14


@st.composite
def _size_and_level(draw):
    size = draw(st.integers(1, 40))
    return size, draw(st.integers(1, min(3, size)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_size_and_level())
def test_stationary_moment_matches_hierarchy(case):
    # The closed-form field that odes prints is a fixed point of the moment
    # hierarchy: a m + b m_lower = 0 at every level up to k.
    size, k = case
    field = stationary_moments(build_moment_system(ModelParams(size=size), k))
    levels = []
    while field is not None:
        levels.insert(0, field)
        field = field.lower
    lower = np.ones(1)
    for level in levels:
        a, b = level.system.a_matrix, level.system.b_matrix
        assert np.abs(a @ level.values + b @ lower).max() <= 1e-14
        lower = level.values


def test_simulate_dual_terminates_and_classifies():
    p = ModelParams(size=3, seed=21)
    died = stuck = 0
    for rep in range(200):
        out = simulate_dual(p, (1, 3), p.stream(rep))
        assert out.total_jumps > 0
        if out.result is DualResult.DIED:
            died += 1
            assert out.final.dead
        else:
            assert out.result is DualResult.ALL_STUCK
            stuck += 1
            assert out.final.stuck_count == 2
            assert out.final.free == ()
    assert died > 0 and stuck > 0


def test_simulate_dual_single_particle_frequency():
    # From x the freeze probability is x/(S+1); check with a crude count.
    p = ModelParams(size=4, seed=33)
    wins = 0
    n = 3000
    for rep in range(n):
        out = simulate_dual(p, (2,), p.stream(rep))
        wins += out.result is DualResult.ALL_STUCK
    est = wins / n
    se = np.sqrt(est * (1 - est) / n)
    assert abs(est - 0.4) < 3.5 * se


def test_simulate_dual_counts_pair_meetings():
    p = ModelParams(size=4, seed=5)
    out = simulate_dual(p, (2, 3), p.stream(0))
    assert out.meeting_count >= 1  # started at distance 1


def test_estimate_absorption_pair_hand_value():
    p = ModelParams(size=2, seed=1)
    est, se = estimate_absorption(p, (1, 2), 100_000, p.stream(0))
    assert abs(est - 1 / 6) < 3.5 * se


def test_estimate_absorption_single_particle():
    p = ModelParams(size=7, seed=2)
    est, se = estimate_absorption(p, (3,), 50_000, p.stream(0))
    assert abs(est - 3 / 8) < 3.5 * se


def test_estimate_absorption_matches_stationary_moment():
    """Duality: the freeze-all probability equals the stationary moment."""
    p = ModelParams(size=5, seed=7)
    pi = stationary_distribution(p.size)
    want = exact_moment(pi, (2, 3, 5))
    est, se = estimate_absorption(p, (2, 3, 5), 80_000, p.stream(0))
    assert abs(est - want) < 3.5 * se


def test_estimate_absorption_law_over_seeds():
    # z-scores of 40 seeded runs against the closed form, for pairs and
    # triples, with adjacent starts and points at S among them.
    cases = [(10, (3, 7)), (12, (5, 6)), (8, (2, 8)), (11, (2, 5, 9)), (9, (4, 5, 9))]
    z = []
    for seed in range(8):
        for s, pts in cases:
            p = ModelParams(size=s, seed=seed)
            est, se = estimate_absorption(p, pts, 3000 + 37 * seed, p.stream(2))
            z.append((est - stationary_moment(s, pts)) / se)
    z = np.array(z)
    assert abs(z.mean()) < 0.5
    assert 0.7 <= z.std(ddof=1) <= 1.3


def test_estimate_absorption_matches_unscored_scalar_walk():
    # The scalar walk runs every family to absorption and scores 0 or 1.
    p = ModelParams(size=5, seed=29)
    pts, n = (1, 3, 4), 4000
    wins = [
        simulate_dual(p, pts, p.stream(rep)).result is DualResult.ALL_STUCK
        for rep in range(n)
    ]
    ref, ref_se = float(np.mean(wins)), float(np.std(wins, ddof=1) / np.sqrt(n))
    est, se = estimate_absorption(p, pts, 40_000, p.stream(n))
    assert abs(est - ref) < 4 * np.hypot(se, ref_se)


def test_estimate_absorption_scores_below_the_bernoulli_stderr():
    # Unscored, every family is a 0/1 outcome; scoring the last bulk walker's
    # ruin line must take a quarter or more off that stderr.
    p, pts, n = ModelParams(size=10, seed=5), (3, 7), 100_000
    m = stationary_moment(10, pts)
    _, se = estimate_absorption(p, pts, n, p.stream(0))
    assert se < 0.75 * np.sqrt(m * (1 - m) / (n - 1))
    # a one-point family is still walked to absorption: every row is 0 or 1
    n = 5000
    est, se = estimate_absorption(p, (3,), n, p.stream(0))
    wins = round(est * n)
    assert est == wins / n and 0 < wins < n
    assert se == pytest.approx(np.sqrt(est * (1 - est) / (n - 1)), rel=1e-9)


@pytest.mark.parametrize("points", [(10, 20, 30), (8, 16, 24, 32)])
def test_estimate_absorption_beyond_exact_solver(points):
    # S = 40 is far past the 2^S generator; only the closed form reaches it.
    p = ModelParams(size=40, seed=11)
    est, se = estimate_absorption(p, points, 20_000, p.stream(0))
    assert abs(est - stationary_moment(40, points)) < 4 * se


def test_pair_absorption_boundary_rows():
    p = ModelParams(size=6)
    pa = pair_absorption_exact(p)
    for y in range(2, 8):
        assert pa.value(0, y) == 0.0
    for x in range(1, 7):
        assert pa.value(x, 7) == x / 7


def test_pair_absorption_hand_value():
    pa = pair_absorption_exact(ModelParams(size=3))
    assert abs(pa.value(1, 3) - 1 / 6) < 1e-12


@st.composite
def _size_and_pairs(draw):
    size = draw(st.integers(2, 2000))
    xs = st.integers(1, size - 1)
    pairs = []
    for _ in range(draw(st.integers(1, 20))):
        x = draw(xs)
        pairs.append((x, draw(st.integers(x + 1, size))))
    return size, pairs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_size_and_pairs())
def test_pair_absorption_solves_pair_equations(case):
    # The discrete Dirichlet problem has one solution, so meeting every
    # equation and boundary value pins the whole table.
    size, pairs = case
    pa = pair_absorption_exact(ModelParams(size=size))
    v = pa.value
    for x, y in pairs:
        if y - x == 1:
            around = (v(x - 1, y) + v(x, y + 1)) / 2
        else:
            around = (v(x - 1, y) + v(x + 1, y) + v(x, y - 1) + v(x, y + 1)) / 4
        assert abs(v(x, y) - around) < 1e-15
        assert v(0, y) == 0.0
        assert v(x, size + 1) == x / (size + 1)


@pytest.mark.parametrize("size", [2, 3, 4, 6])
def test_pair_absorption_matches_stationary_oracle(size):
    pi = stationary_null_space(size)
    pa = pair_absorption_exact(ModelParams(size=size))
    for x in range(1, size):
        for y in range(x + 1, size + 1):
            want = moment_from_distribution(pi, (x, y), size)
            assert abs(pa.value(x, y) - want) < 1e-10


def test_pair_absorption_harmonic_interior():
    # Away from diagonals and boundaries the value is the mean of its four
    # independent-move neighbors.
    pa = pair_absorption_exact(ModelParams(size=8))
    for x in range(2, 5):
        for y in range(x + 2, 8):
            around = (
                pa.value(x - 1, y)
                + pa.value(x + 1, y)
                + pa.value(x, y - 1)
                + pa.value(x, y + 1)
            )
            assert abs(pa.value(x, y) - around / 4) < 1e-11


def test_pair_absorption_validation_and_caps():
    with pytest.raises(ValidationError):
        pair_absorption_exact(ModelParams(size=1))
    s = 10**6
    big = pair_absorption_exact(ModelParams(size=s)).value(3, s // 2)
    assert big == pytest.approx(
        3 * (s // 2) / (s + 1) ** 2 - 3 * (s + 1 - s // 2) / (s * (s + 1) ** 2),
        rel=1e-14,
    )
    pa = pair_absorption_exact(ModelParams(size=4))
    with pytest.raises(ValidationError):
        pa.value(3, 3)
    with pytest.raises(ValidationError):
        pa.value(-1, 2)


def test_transient_dual_moment_time_zero():
    p = ModelParams(size=4, seed=1)
    env = Configuration.from_interior_string("1010")
    est, se = transient_dual_moment(p, (1, 3), env, 0.0, 10, p.stream(0))
    assert est == 1.0 and se == 0.0
    est, se = transient_dual_moment(p, (1, 2), env, 0.0, 10, p.stream(0))
    assert est == 0.0 and se == 0.0


def test_transient_dual_moment_rejects_bad_time():
    p = ModelParams(size=4, seed=1)
    env = Configuration.from_interior_string("1010")
    for t in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            transient_dual_moment(p, (1, 3), env, t, 10, p.stream(0))


@pytest.mark.parametrize("t,points", [(0.8, (2, 4)), (2.0, (1, 5))])
def test_transient_dual_matches_forward_oracle(t, points):
    # Duality: the dual-walk estimate must match the forward-process moment
    # computed exactly by the dense matrix exponential.
    p = ModelParams(size=5, seed=17)
    env = Configuration.from_interior_string("11100")
    dist = expm_state_distribution(5, env.interior(), t)
    want = moment_from_distribution(dist, points, 5)
    est, se = transient_dual_moment(p, points, env, t, 60_000, p.stream(1))
    assert abs(est - want) < max(3.5 * se, 1e-3)


def test_transient_dual_moment_law_over_seeds():
    # z-scores of 40 seeded runs against the expm oracle, for one to four
    # walkers (three idles one index value), at sizes with S+1 a power of two
    # or not, with replica counts that leave a partial last word.
    cases = [
        (1, "1", 0.7, (1,)),
        (3, "101", 1.1, (1, 3)),
        (5, "11100", 1.5, (2, 3, 5)),
        (7, "1101101", 0.9, (1, 2, 4, 5)),
        (6, "111101", 0.8, (1, 2, 3, 6)),
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
            env = Configuration.from_interior_string(c)
            est, se = transient_dual_moment(p, pts, env, t, 4000 + 37 * seed, p.stream(3))
            z.append((est - w) / se)
    z = np.array(z)
    assert abs(z.mean()) < 0.5
    assert 0.7 <= z.std(ddof=1) <= 1.3


def test_transient_dual_moment_reads_replicas_in_lane_order(monkeypatch):
    # Replicas 0..65 get no round and keep their walker on site 1; the other
    # four get one round that kills every open lane. A lane read out of order,
    # or a padding lane read in place of a replica, moves the mean off 66/70.
    n, kept = 70, 66
    monkeypatch.setattr(sepsim.core, "poisson_rounds", lambda *_: np.array([kept]))

    def kill_open_lanes(pos, open_, planes, size):
        bits = np.unpackbits(pos.astype("<u8").view(np.uint8), axis=2, bitorder="little")
        is_open = np.unpackbits(open_.astype("<u8").view(np.uint8), bitorder="little")
        bits[1, :, is_open == 1] = 0
        pos[:] = np.packbits(bits, axis=2, bitorder="little").view("<u8")

    monkeypatch.setattr(sepsim.dual, "_hop_round", kill_open_lanes)
    p = ModelParams(size=1)
    env = Configuration.from_interior_string("1")
    est, _ = transient_dual_moment(p, (1,), env, 1.0, n, p.stream(0))
    assert est == kept / n


def test_transient_dual_long_horizon_reaches_absorption():
    # For large t the transient value approaches the absorption probability
    # when the environment is the step profile with full right half.
    p = ModelParams(size=3, seed=3)
    env = Configuration.from_interior_string("111")
    est, se = transient_dual_moment(p, (1, 3), env, 200.0, 40_000, p.stream(0))
    pa = pair_absorption_exact(p)
    # env is all ones, so the product is 1 unless the family died
    assert abs(est - pa.value(1, 3)) < 3.5 * se


# Sizes on both sides of the int8 (S+2 <= 127) and int16 (S+2 <= 32767)
# site limits and of S+1 = 2^L, where a position takes one more plane; walker
# counts on both sides of powers of two, where the index takes one more plane.
_KERNEL_SIZES = [1, 2, 3, 4, 7, 124, 125, 126, 32764, 32765, 32766]
_KERNEL_KS = [1, 2, 3, 4, 5, 6, 127, 128, 129]


@st.composite
def _walker_family(draw, size, k):
    """Positions of one family: increasing bulk sites, then walkers frozen at S+1.

    The bulk walkers are packed against either end or placed at random, so
    that blocked hops, deaths and freezes all come up.
    """
    frozen = draw(st.integers(0, k))
    live = k - frozen
    gaps = draw(st.lists(st.integers(0, 2), min_size=live, max_size=live))
    room = size - live - sum(gaps)
    if room < 0:
        gaps, room = [0] * live, size - live
    start = draw(st.one_of(st.just(0), st.just(room), st.integers(0, room)))
    pos, site = [], start
    for g in gaps:
        site += 1 + g
        pos.append(site)
    return tuple(pos) + (size + 1,) * frozen


@st.composite
def _kernel_case(draw):
    size = draw(st.sampled_from(_KERNEL_SIZES))
    k = draw(st.sampled_from([k for k in _KERNEL_KS if k <= size]))
    n_rows = draw(st.integers(1, 5))
    families = [draw(_walker_family(size, k)) for _ in range(n_rows)]
    fired = [r for r in range(n_rows) if draw(st.booleans())]
    us = [draw(st.integers(0, 2 * k - 1)) for _ in fired]
    return size, k, families, fired, us


def _words(bits):
    """Pack 0/1 lanes along the last axis into uint64 words, lane 64w+r at bit r of word w."""
    return np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little").view("<u8")


def _sites(pos):
    """Lane by lane the rows of a (rows, L, W) position array: tuples of sites."""
    bits = np.unpackbits(pos.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
    sites = (bits.astype(np.int64) << np.arange(pos.shape[1])[:, None]).sum(axis=1)
    return [tuple(int(v) for v in lane) for lane in sites.T]


@st.composite
def _sliced_case(draw):
    size, k, families, fired, us = draw(_kernel_case())
    n_words = draw(st.integers(1, 3))
    homes = st.integers(0, 64 * n_words - 1)
    lanes = draw(st.lists(homes, min_size=len(families), max_size=len(families), unique=True))
    first = draw(homes)
    dead = draw(st.lists(st.booleans(), min_size=len(families), max_size=len(families)))
    seed = draw(st.integers(0, 2**32 - 1))
    return size, k, families, fired, us, n_words, lanes, first, dead, seed


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sliced_case())
def test_sliced_round_matches_scalar_move(case):
    # Every lane holds one of the families, some with the lowest walker dead
    # at 0, and a random draw; each family's home lane takes the drawn move
    # when fired. One sliced round from a random first open lane must match
    # walker_move lane by lane, an index >= k idling; a second round from
    # lane 0 must leave every dead lane, the newly dead included, as it is.
    size, k, families, fired, us, n_words, lanes, first, dead, seed = case
    rng = np.random.default_rng(seed)
    n_index, n_planes = (k - 1).bit_length(), (size + 1).bit_length()
    n_lanes = 64 * n_words
    family = np.arange(n_lanes) % len(families)
    family[lanes] = np.arange(len(families))
    start = [
        (0, *families[f][1:]) if dead[f] else families[f] for f in range(len(families))
    ]
    before = [start[f] for f in family]
    u = rng.integers(0, 2 << n_index, size=n_lanes)
    for r, v in zip(fired, us):
        u[lanes[r]] = v
    padded = np.array([(size + 1, *pos, size + 1) for pos in before])
    pos = _words((padded.T[:, None] >> np.arange(n_planes)[:, None]) & 1)
    planes = _words((u >> np.arange(1 + n_index)[:, None]) & 1)
    _hop_round(pos, _words(np.arange(n_lanes) >= first), planes, size)

    after = _sites(pos)
    for lane, (was, now) in enumerate(zip(before, after)):
        want = was
        if lane >= first and was[0] != 0 and u[lane] >> 1 < k:
            want, _ = walker_move(was, int(u[lane]), size)
        assert now == (size + 1, *want, size + 1)

    dead_now = [now[1] == 0 for now in after]
    every = _words(np.ones(n_lanes))
    _hop_round(pos, every, rng.integers(0, 2**64, (1 + n_index, n_words), dtype=np.uint64), size)
    again = _sites(pos)
    for lane in np.flatnonzero(dead_now):
        assert again[lane] == after[lane]


@st.composite
def _repack_case(draw):
    size = draw(st.integers(1, 300))  # from S = 255 on, sites take two bytes
    k, episodes = draw(st.integers(1, min(3, size))), draw(st.integers(0, 3))
    n_words = draw(st.integers(1, 4))
    held = draw(st.integers(64 * n_words - 63, 64 * n_words))
    return size, k, episodes, held, draw(st.floats(0, 1)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_repack_case())
def test_absorbing_run_repacks_open_lanes_in_order_and_scores_each_closed_lane_once(case):
    # The first round writes random walker and counter planes over 1-4 words
    # and a random open pattern; the second closes every lane. Lanes past
    # held are padding and must vanish, whatever their bits.
    size, k, episodes, held, frac, seed = case
    rng = np.random.default_rng(seed)
    top, n_words, n_planes = min(k, 2), -(-held // 64), (size + 1).bit_length()
    n_walk = k * n_planes
    state = rng.integers(0, 2**64, (n_walk + (2 * episodes).bit_length(), n_words), np.uint64)
    is_open = np.zeros(64 * n_words, dtype=bool)
    is_open[:held] = rng.random(held) < frac
    rounds, later, scored = [], [], []

    def hop(live, open_, planes, size):
        rounds.append(live.shape[2])
        if len(rounds) == 1:
            live[1:-1] = state[:n_walk].reshape(k, n_planes, n_words)
            open_[:] = _words(is_open)
        else:
            later.append(live[1:-1].reshape(n_walk, -1).copy())
            open_[:] = 0

    def count_episodes(count, lo, hi, open_, target):
        if len(rounds) > 1:
            later.append(count.copy())
        else:
            count[:] = state[n_walk:]
        return np.zeros_like(open_)

    def score(sites):
        scored.append(sites.astype(np.int64))
        return np.zeros(sites.shape[1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepsim.dual, "_hop_round", hop)
        mp.setattr(sepsim.dual, "_count_episodes", count_episodes)
        pts = tuple(range(1, k + 1))
        absorbing_run(size, pts, held, np.random.default_rng(0), score, episodes)
    bits = np.unpackbits(state.astype("<u8").view(np.uint8), axis=1, bitorder="little")
    walk = bits[:n_walk].reshape(k, n_planes, -1).astype(np.int64)
    sites = (walk << np.arange(n_planes)[:, None]).sum(axis=1)
    # the close rule: the lowest walker dead or walker min(k, 2) frozen
    is_open &= (sites[0] != 0) & (sites[top - 1] != size + 1)
    want_open, want_closed = np.flatnonzero(is_open), np.flatnonzero(~is_open[:held])
    if -(-want_open.size // 64) > n_words // 2:  # no repack: the second round sees all
        assert np.array_equal(np.concatenate(later), state)
        order = np.arange(held)
    else:
        order = np.concatenate((want_closed, want_open))
        if want_open.size:
            kept = np.concatenate(later).astype("<u8").view(np.uint8)
            got = np.unpackbits(kept, axis=1, bitorder="little")
            assert got.shape == (len(state), 64 * -(-want_open.size // 64))
            assert np.array_equal(got[:, : want_open.size], bits[:, want_open])
            assert not got[:, want_open.size :].any()
        else:
            assert not later
    assert len(rounds) <= 2
    assert np.array_equal(np.concatenate(scored, axis=1), sites[:top, order])


@pytest.mark.parametrize(
    "sampler,size,args,k",
    [
        (estimate_absorption, 30, (tuple(range(1, 11)),), 10),
        (simulate_hybrid_pair, 16, (4, 9, 2), 2),
    ],
)
def test_absorbing_run_peak_memory_is_bounded(sampler, size, args, k):
    # At S = 30, points 1..10, 64,000 replicas hold 0.46 MiB of position
    # planes; unpacking every held lane to a byte per plane took 8.0 MiB.
    # absorbing_run states its peak: below 4 P + 32 n bytes, P the planes.
    p, n_planes = ModelParams(size=size), (size + 1).bit_length()
    sampler(p, *args, 640, np.random.default_rng(0))  # warm caches and imports
    peaks = []
    for n in (64_000, 128_000):
        tracemalloc.start()
        try:
            sampler(p, *args, n, np.random.default_rng(1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] < 4 * 8 * (k + 2) * n_planes * -(-n // 64) + 32 * n, peaks
    assert peaks[0] <= 3 * 2**20 and peaks[1] <= 2 * peaks[0], peaks


@pytest.mark.parametrize(
    "size,pts", [(1, (1,)), (7, (2, 5)), (14, (3, 4, 11)), (6, (1, 2, 3, 5, 6))]
)
def test_absorbing_run_scores_every_family_once_at_its_close(size, pts):
    # 200 families over 4 words, the last partial: every family is scored
    # exactly once, by the sites of walkers 1..min(k, 2) at which it closed.
    seen = []

    def score(sites):
        seen.append(sites.astype(np.int64))
        return np.zeros(sites.shape[1])

    n = 200
    absorbing_run(size, pts, n, np.random.default_rng(size), score)
    sites = np.concatenate(seen, axis=1)
    assert sites.shape == (min(len(pts), 2), n)
    assert ((sites[0] == 0) | (sites[-1] == size + 1)).all()
    assert (sites >= 0).all() and (sites <= size + 1).all()


def _pack_sites(sites, n_planes):
    """(L, W) position planes of per-lane sites, lane 64w+r at bit r of word w.

    Lanes past the last site up to a whole word are 0.
    """
    sites = np.asarray(sites, dtype=np.int64)
    lanes = np.zeros(64 * -(-sites.size // 64), dtype=np.int64)
    lanes[: sites.size] = sites
    return _words((lanes >> np.arange(n_planes)[:, None]) & 1)


@pytest.mark.parametrize("size", [5, 6, 14])
@pytest.mark.parametrize("k", [1, 2, 3, 10**9])
def test_episode_counter_matches_scalar_count(size, k):
    # 150 pairs, started at gap 2 or more, take random walker_move draws; in
    # each round the open lanes step the sliced counter, which must equal
    # c += hi - lo == (c & 1) + 1 lane by lane and close exactly at c = 2k.
    # Lanes also close once dead or once the upper walker is frozen.
    rng = np.random.default_rng(size + k)
    n, n_planes = 150, (size + 1).bit_length()
    # the count never exceeds the round count, so a target past ROUND_CAP never closes
    target = min(2 * k, ROUND_CAP + 1)
    assert target.bit_length() <= ROUND_CAP.bit_length() + 1
    pairs = []
    for _ in range(n):
        lo = int(rng.integers(1, size - 1))
        pairs.append((lo, int(rng.integers(lo + 2, size + 1))))
    c = [0] * n
    open_lanes = [True] * n
    count = np.zeros((target.bit_length(), -(-n // 64)), dtype=np.uint64)
    closes = 0
    for _ in range(300):
        for r in range(n):
            if open_lanes[r]:
                pairs[r], _ = walker_move(pairs[r], int(rng.integers(0, 4)), size)
        lo, hi = zip(*pairs)
        lo_planes, hi_planes = _pack_sites(lo, n_planes), _pack_sites(hi, n_planes)
        open_words = _pack_sites(open_lanes, 1)[0]
        shut = _count_episodes(count, lo_planes, hi_planes, open_words, target)
        shut_lanes = np.unpackbits(shut.astype("<u8").view(np.uint8), count=n, bitorder="little")
        for r in range(n):
            if open_lanes[r]:
                c[r] += pairs[r][1] - pairs[r][0] == (c[r] & 1) + 1
                assert shut_lanes[r] == (c[r] >= 2 * k)
                closes += c[r] >= 2 * k
                lo_r, hi_r = pairs[r]
                open_lanes[r] = not (c[r] >= 2 * k or lo_r == 0 or hi_r == size + 1)
        assert _sites(count[None])[:n] == [(v,) for v in c]
    assert (closes > 0) == (k < 10**9)


@st.composite
def _readout_case(draw):
    size = draw(st.integers(1, 70))
    interior = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    k, n_words = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    return size, interior, k, n_words, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_readout_case())
def test_zero_site_readout_matches_decoded_sites(case):
    # Walkers anywhere on 0..S+1; a lane reads 1 exactly when one of its
    # walkers sits on an empty site of the start, site 0 included.
    size, interior, k, n_words, seed = case
    env = Configuration.from_interior(interior).as_array()
    n_planes = (size + 1).bit_length()
    sites = np.random.default_rng(seed).integers(0, size + 2, (k, 64 * n_words))
    walk = np.stack([_pack_sites(row, n_planes) for row in sites])
    lanes = np.unpackbits(_on_zero(walk, env).astype("<u8").view(np.uint8), bitorder="little")
    assert lanes.tolist() == [int((env[sites[:, r]] == 0).any()) for r in range(64 * n_words)]
