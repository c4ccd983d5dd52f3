import math
import statistics

import numpy as np
import pytest
from scipy import stats

from bruteforce import apply_swap, cluster_decompose, enabled_bonds, sorted_poisson_quotas
from sepsim.core import (
    ALL_LANES,
    Configuration,
    ModelParams,
    count_mean_stderr,
    default_initial_configuration,
    ROUND_CAP,
    first_lanes,
    lane_mean_stderr,
    lockstep,
    mean_stderr,
    poisson_rounds,
    split_lanes,
    timed_rounds,
    validate_point_set,
)
import sepsim.core
from sepsim.dual import estimate_absorption, transient_dual_moment
from sepsim.errors import NumericError, ResourceError, ValidationError
from sepsim.forward import estimate_stationary_moments, transient_moment
from sepsim.ladder import simulate_aux_walk, simulate_hybrid_pair


def test_model_params_validation():
    ModelParams(size=1)
    with pytest.raises(ValidationError):
        ModelParams(size=0)
    with pytest.raises(ValidationError):
        ModelParams(size=-3)
    with pytest.raises(TypeError):
        ModelParams(size=3, rate=1.0)  # the bond rate is the time unit


def test_mean_stderr_matches_statistics():
    values = np.random.default_rng(0).random(257)
    est, se = mean_stderr(values)
    assert est == pytest.approx(statistics.fmean(values), rel=0, abs=1e-15)
    assert se == pytest.approx(statistics.stdev(values) / math.sqrt(257), rel=1e-12)
    est, se = mean_stderr(np.array([0.25]))
    assert est == 0.25 and math.isnan(se)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_count_mean_stderr_is_mean_stderr_of_zeros_and_ones(n):
    counts = np.arange(n + 1)
    means, errs = count_mean_stderr(counts, n)
    for c in range(n + 1):
        want = mean_stderr(np.arange(n) < c)
        for got in ((means[c], errs[c]), count_mean_stderr(c, n)):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-12, nan_ok=True)


def test_configuration_pins_boundaries():
    c = Configuration.from_interior([0, 1, 1, 0])
    assert c.occupancy[0] == 0
    assert c.occupancy[-1] == 1
    assert c.interior() == (0, 1, 1, 0)
    assert c.interior_string() == "0110"
    with pytest.raises(ValidationError):
        Configuration(occupancy=(1, 0, 0, 1))
    with pytest.raises(ValidationError):
        Configuration(occupancy=(0, 2, 1))


@pytest.mark.parametrize("bits", ["1a01", "012", " 101", "1-1"])
def test_configuration_string_refuses_non_binary(bits):
    with pytest.raises(ValidationError, match=repr(bits)):
        Configuration.from_interior_string(bits)


def test_configuration_round_trips():
    c = Configuration.from_interior_string("10110")
    assert c.interior_string() == "10110"
    assert np.array_equal(c.as_array(), [0, 1, 0, 1, 1, 0, 1])


def test_apply_swap_interior_exchange():
    c = Configuration.from_interior_string("0110")
    assert apply_swap(c, 1).interior_string() == "1010"


def test_apply_swap_left_boundary_drains():
    c = Configuration.from_interior_string("1110")
    assert apply_swap(c, 0).interior_string() == "0110"


def test_apply_swap_right_boundary_fills():
    c = Configuration.from_interior_string("0110")
    assert apply_swap(c, 4).interior_string() == "0111"


def test_apply_swap_bond_range():
    c = Configuration.from_interior_string("01")
    with pytest.raises(ValidationError):
        apply_swap(c, 3)
    with pytest.raises(ValidationError):
        apply_swap(c, -1)


@pytest.mark.parametrize("bits", ["0110", "1001", "0000", "1111", "10101"])
def test_interior_swap_is_involution(bits):
    c = Configuration.from_interior_string(bits)
    for bond in range(1, c.size):
        assert apply_swap(apply_swap(c, bond), bond) == c


@pytest.mark.parametrize("bits", ["0110", "1110", "0001", "101010"])
def test_particle_count_changes_only_at_boundaries(bits):
    c = Configuration.from_interior_string(bits)
    n = sum(c.interior())
    for bond in range(c.size + 1):
        m = sum(apply_swap(c, bond).interior())
        if 1 <= bond <= c.size - 1:
            assert m == n
        elif bond == 0:
            assert m in (n, n - 1)
        else:
            assert m in (n, n + 1)


def test_enabled_bonds_all_full():
    c = Configuration.from_interior_string("1111")
    assert enabled_bonds(c) == {0}


def test_enabled_bonds_all_empty():
    c = Configuration.from_interior_string("0000")
    assert enabled_bonds(c) == {4}


def test_enabled_bonds_small_mixed():
    # Site 2 and the full right reservoir hold equal values, so bond (2,3)
    # is a no-op and only the interior exchange can change the state.
    c = Configuration.from_interior_string("01")
    assert enabled_bonds(c) == {1}


@pytest.mark.parametrize("bits", ["01", "10", "0110", "111000", "010101"])
def test_disabled_bonds_are_noops(bits):
    c = Configuration.from_interior_string(bits)
    active = enabled_bonds(c)
    for bond in range(c.size + 1):
        changed = apply_swap(c, bond) != c
        assert changed == (bond in active)


def test_cluster_decompose_examples():
    assert cluster_decompose((1, 2, 4, 5, 6, 9)) == [(1, 2), (4, 5, 6), (9,)]
    assert cluster_decompose((3,)) == [(3,)]
    assert cluster_decompose((1, 2, 3)) == [(1, 2, 3)]


def test_cluster_decompose_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = tuple(sorted(rng.choice(40, size=rng.integers(1, 12), replace=False) + 1))
        clusters = cluster_decompose(pts)
        flat = tuple(p for cl in clusters for p in cl)
        assert flat == pts
        for cl in clusters:
            assert all(b - a == 1 for a, b in zip(cl, cl[1:]))
        for left, right in zip(clusters, clusters[1:]):
            assert right[0] - left[-1] >= 2


def test_cluster_decompose_rejects_unordered():
    with pytest.raises(ValidationError):
        cluster_decompose((3, 1))
    with pytest.raises(ValidationError):
        cluster_decompose((2, 2))
    assert cluster_decompose(()) == []


def test_validate_point_set():
    assert validate_point_set([2, 5], 6) == (2, 5)
    assert validate_point_set((0, 7), 6) == (0, 7)
    with pytest.raises(ValidationError):
        validate_point_set([5, 2], 6)
    with pytest.raises(ValidationError):
        validate_point_set([0, 2], 6, interior_only=True)
    with pytest.raises(ValidationError):
        validate_point_set([2, 9], 6)


def test_default_initial_configuration_is_left_step():
    p = ModelParams(size=10)
    assert default_initial_configuration(p).interior_string() == "1111100000"
    assert default_initial_configuration(ModelParams(size=5)).interior_string() == "11100"
    assert default_initial_configuration(ModelParams(size=1)).interior_string() == "1"


def test_rng_stream_reproducible():
    a = ModelParams(size=1, seed=42).stream(3).random(8)
    b = ModelParams(size=1, seed=42).stream(3).random(8)
    assert np.array_equal(a, b)


def test_rng_streams_differ():
    a = ModelParams(size=1, seed=42).stream(0).random(8)
    b = ModelParams(size=1, seed=42).stream(1).random(8)
    c = ModelParams(size=1, seed=43).stream(0).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed,i", [(1, 0), (42, 3), (2**64 - 1, 2**63)])
def test_rng_stream_derivation_is_pinned(seed, i):
    # The seed and the stream id key a SeedSequence that feeds PCG64; every
    # per-seed value the samplers print depends on this derivation.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
    want = np.random.Generator(np.random.PCG64(ss)).bit_generator.state
    assert ModelParams(size=1, seed=seed).stream(i).bit_generator.state == want


def test_lockstep_absorbing_runs_until_absorbed():
    # Each step closes one row, so lockstep hands it 3, 2, 1 and stops at 0.
    seen = []

    def step(n_open):
        seen.append(n_open)
        return n_open - 1

    lockstep(3, step)
    assert seen == [3, 2, 1]


def test_lockstep_caps_rounds(monkeypatch):
    # A run whose last rows close in round ROUND_CAP passes; a run with rows
    # still open after it is refused.
    monkeypatch.setattr(sepsim.core, "ROUND_CAP", 3)
    rounds = []

    def closes_in_round(last):
        def step(n_open):
            rounds.append(n_open)
            return 0 if len(rounds) == last else n_open

        return step

    lockstep(5, closes_in_round(3))
    assert rounds == [5, 5, 5]
    rounds.clear()
    with pytest.raises(NumericError, match="5 rows still open after 3 rounds"):
        lockstep(5, closes_in_round(4))
    assert rounds == [5, 5, 5]


SMALL = ModelParams(size=40, seed=3)


@pytest.mark.parametrize(
    "run",
    [
        lambda: estimate_absorption(SMALL, (20, 21), 50, SMALL.stream(0)),
        lambda: simulate_hybrid_pair(SMALL, 10, 30, 2, 50, SMALL.stream(0)),
        lambda: simulate_aux_walk(40, 2, 50, SMALL.stream(0)),
    ],
    ids=["absorption", "hybrid", "aux"],
)
def test_absorbing_samplers_respect_round_cap(monkeypatch, run):
    # Every start is more than 10 steps from absorption at S=40.
    monkeypatch.setattr(sepsim.core, "ROUND_CAP", 10)
    with pytest.raises(NumericError):
        run()


class _NoDraws:
    """A generator stand-in: any draw from it fails the test."""

    def __getattr__(self, name):
        raise AssertionError("the sampler drew before refusing its replica count")


C0 = Configuration.from_interior_string("1100")


@pytest.mark.parametrize(
    "run",
    [
        lambda n, gen: estimate_absorption(SMALL, (20, 21), n, gen),
        lambda n, gen: simulate_hybrid_pair(SMALL, 10, 30, 2, n, gen),
        lambda n, gen: simulate_aux_walk(4, 2, n, gen),
        lambda n, gen: transient_moment(ModelParams(size=4), C0, 1.0, (2,), n, gen),
        lambda n, gen: transient_dual_moment(ModelParams(size=4), (2,), C0, 1.0, n, gen),
    ],
    ids=["absorption", "hybrid", "aux", "forward-transient", "dual-transient"],
)
def test_replica_samplers_refuse_counts_above_the_cap(monkeypatch, run):
    # One replica past the cap is refused before any draw and before any
    # replica array exists; the cap itself runs.
    monkeypatch.setattr(sepsim.core, "MAX_REPLICAS", 100)
    with pytest.raises(ResourceError, match="cap is 1e"):
        run(101, _NoDraws())
    with pytest.raises(ValidationError):
        run(0, _NoDraws())
    run(100, ModelParams(size=4, seed=1).stream(0))


@pytest.mark.parametrize(
    "run",
    [
        lambda gen: estimate_stationary_moments(ModelParams(size=4), [(2,)], 500, gen).estimates,
        lambda gen: transient_moment(ModelParams(size=4), C0, 1.0, (2,), 500, gen),
        lambda gen: transient_dual_moment(ModelParams(size=4), (2,), C0, 1.0, 500, gen),
        lambda gen: estimate_absorption(SMALL, (20, 21), 500, gen),
        lambda gen: simulate_hybrid_pair(SMALL, 10, 30, 2, 500, gen),
        lambda gen: simulate_aux_walk(10, 3, 500, gen).gamma_mc,
    ],
    ids=["stationary", "forward-transient", "dual-transient", "absorption", "hybrid", "aux"],
)
def test_samplers_consume_the_generator_they_are_given(run):
    # A second call on the same generator continues its sequence; a fresh
    # generator of the same key repeats the first call.
    gen = ModelParams(size=1, seed=7).stream(5)
    first = np.asarray(run(gen))
    assert not np.array_equal(np.asarray(run(gen)), first)
    assert np.array_equal(np.asarray(run(ModelParams(size=1, seed=7).stream(5))), first)


S31 = ModelParams(size=31, seed=1)
C31 = Configuration.from_interior_string("1" * 16 + "0" * 15)


@pytest.mark.parametrize(
    "run,most",
    [
        # S+2 = 33 occupancy rows: 96 replicas make 3,168 replica-rows, 97 make 3,201
        (lambda n, gen: transient_moment(S31, C31, 1.0, (2,), n, gen), 96),
        # (k+2) L = 6 x 6 = 36 plane rows: 88 replicas make 3,168, 89 make 3,204
        (lambda n, gen: transient_dual_moment(S31, (2, 9, 17, 30), C31, 1.0, n, gen), 88),
    ],
    ids=["forward-transient", "dual-transient"],
)
def test_transient_samplers_refuse_replica_rows_above_the_cap(monkeypatch, run, most):
    # The cap is 32 MAX_REPLICAS replica-rows, 3,200 here: one replica past it
    # is refused before any draw and before np.repeat builds the lanes; the
    # largest count under it runs.
    monkeypatch.setattr(sepsim.core, "MAX_REPLICAS", 100)

    def spy(*_, **__):
        raise AssertionError("np.repeat called before the refusal")

    with monkeypatch.context() as patch:
        patch.setattr(np, "repeat", spy)
        with pytest.raises(ResourceError, match="bit rows asked for, cap is 3.2e"):
            run(most + 1, _NoDraws())
    run(most, S31.stream(0))


@pytest.mark.parametrize("mean,seed", [(0.5, 1), (20.0, 2), (80.0, 3), (1e5, 4)])
def test_poisson_quotas_follow_the_poisson_law(mean, seed):
    n = 200_000
    firsts = poisson_rounds(np.random.default_rng(seed), mean, n)
    assert (np.diff(firsts) >= 0).all() and firsts[-1] < n
    # Replica counts per number of rounds, read back from the first open
    # replica of each round: firsts[j] replicas run at most j rounds.
    hist = np.diff(firsts, prepend=0, append=n)
    quotas = np.repeat(np.arange(hist.size), hist)
    # Chi-square over the values expected at least 5 times, each tail pooled
    # into the bin at its end.
    law = stats.poisson(mean)
    ks = np.flatnonzero(n * law.pmf(np.arange(int(mean + 10 * mean**0.5 + 20))) >= 5)
    lo, hi = ks[0], ks[-1]
    want = n * np.concatenate(([law.cdf(lo)], law.pmf(ks[1:-1]), [law.sf(hi - 1)]))
    got = np.bincount(np.clip(quotas, lo, hi) - lo, minlength=hi - lo + 1)
    chi2 = float(((got - want) ** 2 / want).sum())
    assert stats.chi2.sf(chi2, len(want) - 1) > 1e-4


@pytest.mark.parametrize("mean", [0.01, 0.5, 7.0, 300.0, 5000.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_poisson_rounds_match_sorted_quotas(mean, seed):
    # Round j opens replicas from the number of quotas <= j on, for every
    # round up to the largest quota, and both draw the same numbers. At mean
    # 5000 the multinomial's values start above 0.
    n = 1000 + seed
    gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    firsts = poisson_rounds(gen, mean, n)
    q = sorted_poisson_quotas(ref, mean, n)
    assert firsts.size == q[-1]
    want = [np.searchsorted(q, j, side="right") for j in range(firsts.size)]
    assert firsts.tolist() == want
    assert gen.random() == ref.random()


def test_poisson_quotas_edge_means_draw_nothing():
    # No generator is touched for a zero mean or before a refusal.
    assert poisson_rounds(None, 0.0, 5).size == 0
    with pytest.raises(ResourceError):
        poisson_rounds(None, ROUND_CAP * 1.01, 5)


def _bits(words):
    """The lanes of uint64 words as 0/1 bytes, lane 64w+r at index 64w+r."""
    return np.unpackbits(np.asarray(words).astype("<u8").view(np.uint8), -1, bitorder="little")


def test_first_lanes_matches_packbits_form():
    # The words built directly against the 64 W booleans they replaced.
    for n_words in range(1, 5):
        for n in range(min(200, 64 * n_words) + 1):
            want = np.packbits(np.arange(64 * n_words) < n, bitorder="little").view("<u8")
            got = first_lanes(n, n_words)
            assert got.dtype == np.uint64 and np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 191])
def test_lane_mean_stderr_reads_only_lanes_below_n(n):
    # Random words, the padding lanes past n - 1 included: only lanes 0..n-1
    # count, as mean_stderr of their bits.
    words = np.random.default_rng(n).integers(0, 2**64, -(-n // 64), dtype=np.uint64)
    assert lane_mean_stderr(words, n) == pytest.approx(mean_stderr(_bits(words)[:n]), nan_ok=True)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 7, 11, 16, 17, 71])
@pytest.mark.parametrize("extra", [0, 1])
def test_split_lanes_matches_a_per_lane_reading(rows, extra):
    # Row v ends with the lanes of the first row whose planes spell v, and a
    # lane spelling rows or more is in none; one extra plane past the fewest
    # that spell every row drops the lanes that set it.
    rng = np.random.default_rng(rows + 100 * extra)
    n_words = 3
    planes = rng.integers(0, 2**64, ((rows - 1).bit_length() + extra, n_words), dtype=np.uint64)
    masks = np.full((rows, n_words), 12345, dtype=np.uint64)
    masks[0] = rng.integers(0, 2**64, n_words, dtype=np.uint64)
    live = _bits(masks[0]) == 1
    split_lanes(masks, planes)
    value = sum(_bits(plane).astype(np.int64) << b for b, plane in enumerate(planes))
    for v in range(rows):
        assert np.array_equal(_bits(masks[v]) == 1, live & (value == v))


def _old_timed_loop(gen, mean, n, n_planes):
    # The round loop that each transient sampler ran before sharing timed_rounds.
    n_words = -(-n // 64)
    for first in poisson_rounds(gen, mean, n):
        open_ = np.full(n_words - (first >> 6), ALL_LANES)
        open_[0] <<= np.uint64(first & 63)
        yield first >> 6, open_, gen.bit_generator.random_raw((n_planes, n_words - (first >> 6)))


@pytest.mark.parametrize(
    "mean,n,n_planes",
    [(0.0, 5, 2), (0.7, 1, 1), (3.0, 64, 4), (20.0, 200, 2), (40.0, 1000, 7), (9.0, 4097, 3)],
)
def test_timed_rounds_match_the_old_round_loop(mean, n, n_planes):
    gen, ref = np.random.default_rng(7), np.random.default_rng(7)
    got = list(timed_rounds(gen, mean, n, n_planes))
    want = list(_old_timed_loop(ref, mean, n, n_planes))
    assert len(got) == len(want)
    for (w, open_, planes), (w_ref, open_ref, planes_ref) in zip(got, want):
        assert w == w_ref and open_.dtype == np.uint64
        assert np.array_equal(open_, open_ref) and np.array_equal(planes, planes_ref)
    assert gen.bit_generator.state == ref.bit_generator.state


def test_timed_rounds_refuse_before_the_first_round():
    # The round counts are drawn, and a mean past the cap refused, on the call
    # itself, before the caller allocates its lanes.
    with pytest.raises(ResourceError):
        timed_rounds(None, ROUND_CAP * 1.01, 5, 1)
