import hashlib
import math
from fractions import Fraction
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bruteforce import (
    _matrix_product_weights,
    deficiency_counts,
    dense_generator,
    eulerian_numbers,
    insertion_counts,
    mobius_weights,
    moment_from_distribution,
    sparse_generator,
    stationary_null_space,
)
from sepsim.cli import main
from sepsim.dual import stationary_moment
from sepsim.errors import NumericError, ResourceError, ValidationError
from sepsim.exact import (
    MAX_EXACT_SIZE,
    _balance,
    _weights,
    exact_moment,
    occupation_profile,
    pair_moments,
    sample_stationary,
    stationary_distribution,
)


def test_generator_rows_sum_to_zero():
    for size in (1, 2, 4, 6):
        q = sparse_generator(size).toarray()
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-14)
        off = q - np.diag(np.diag(q))
        assert (off >= 0).all()
        assert (np.diag(q) <= 0).all()


def test_generator_small_structure():
    # S=2, state 01 in binary-counter order is index 2 (site 2 occupied).
    # Its only state-changing event is the interior exchange to state 10.
    q = sparse_generator(2).toarray()
    row = q[2].copy()
    assert row[1] == 1.0
    assert row[2] == -1.0
    row[1] = row[2] = 0.0
    assert np.array_equal(row, np.zeros(4))


def test_generator_scales_with_rate():
    a = sparse_generator(3, rate=1.0).toarray()
    b = sparse_generator(3, rate=2.5).toarray()
    assert np.allclose(b, 2.5 * a)


@pytest.mark.parametrize("size", range(1, 7))
def test_sparse_oracle_matches_dense_oracle(size):
    assert np.array_equal(sparse_generator(size).toarray(), dense_generator(size))


def test_size_cap():
    with pytest.raises(ResourceError):
        stationary_distribution(MAX_EXACT_SIZE + 1)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_balance_matches_sparse_oracle(size, seed):
    # Any positive vector, not only pi, so every bond's term is exercised.
    # Entries are multiples of 2**-20, so both summation orders are exact and
    # a difference can only be a wrong term, never rounding.
    v = np.random.default_rng(seed).integers(1, 2**20, 2**size, endpoint=True) / 2**20
    want = sparse_generator(size).T @ v
    assert np.abs(_balance(v, size) - want).max() <= 1e-15 * v.max()


def test_stationary_closed_values_s2():
    """4-state chain has stationary weights (1/6, 1/6, 1/2, 1/6)."""
    pi = stationary_distribution(2)
    assert np.allclose(
        pi.probabilities, [1 / 6, 1 / 6, 1 / 2, 1 / 6], rtol=0, atol=1e-12
    )
    assert abs(exact_moment(pi, (1, 2)) - 1 / 6) < 1e-12
    assert pi.residual < 1e-12


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_profile_is_linear(size):
    pi = stationary_distribution(size)
    target = np.arange(1, size + 1) / (size + 1)
    assert np.abs(occupation_profile(pi) - target).max() < 1e-10


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_stationary_matches_null_space_oracle(size):
    pi = stationary_distribution(size)
    oracle = stationary_null_space(size)
    assert np.abs(pi.probabilities - oracle).max() < 1e-11


def test_stationary_rate_invariant():
    pi = stationary_distribution(4).probabilities
    for rate in (0.25, 4.0):
        assert np.abs(sparse_generator(4, rate).T @ pi).max() < 1e-15 * rate


def test_exact_moment_boundary_conventions():
    pi = stationary_distribution(3)
    assert exact_moment(pi, (0, 2)) == 0.0
    assert exact_moment(pi, ()) == 1.0
    # the full right reservoir drops out of the product
    assert abs(exact_moment(pi, (2, 4)) - exact_moment(pi, (2,))) < 1e-14


def test_exact_moment_validates_points():
    pi = stationary_distribution(3)
    with pytest.raises(ValidationError):
        exact_moment(pi, (3, 1))
    with pytest.raises(ValidationError):
        exact_moment(pi, (5,))


@pytest.mark.parametrize("size", [3, 4, 5])
def test_pair_moments_match_oracle(size):
    pi = stationary_distribution(size)
    oracle = stationary_null_space(size)
    for (x, y), val in pair_moments(pi).items():
        want = moment_from_distribution(oracle, (x, y), size)
        assert abs(val - want) < 1e-11


def test_profile_is_increasing():
    pi = stationary_distribution(7)
    prof = occupation_profile(pi)
    assert (np.diff(prof) > 0).all()


@pytest.mark.parametrize("size", range(1, 18))
def test_integer_weights_balance_exactly(size):
    """(S+1)! pi is an integer vector that the rate-1 generator kills exactly.

    (S+1)! < 2**53 up to S = 17, so float64 carries every weight exactly and
    the balance check runs in int64, independent of how pi was computed.
    """
    total = math.factorial(size + 1)
    w = np.rint(stationary_distribution(size).probabilities * total).astype(np.int64)
    assert int(w.sum()) == total
    assert not (sparse_generator(size).astype(np.int64).T @ w).any()


@pytest.mark.parametrize("size", range(1, 18))
def test_weights_match_matrix_product_oracle(size):
    # Both are exact integers in float64 up to S = 17, so they must be equal.
    assert np.array_equal(_weights(size), _matrix_product_weights(size))


@pytest.mark.parametrize("size", range(1, 8))
def test_weights_count_permutations_by_deficiency_set(size):
    assert np.array_equal(_weights(size), deficiency_counts(size))


@pytest.mark.parametrize("size", range(1, 8))
def test_weights_count_insertion_tuples_by_unhit_set(size):
    # The sampler's own rule over all (S+1)! equally likely tuples.
    assert np.array_equal(_weights(size), insertion_counts(size))


@pytest.mark.parametrize("size", range(1, 23))
def test_weights_match_the_closed_form_mobius_oracle(size):
    # Both routes are exact in Z modulo 2**64, so they agree bit for bit at
    # every size, the wrapped weights at S = 22 included.
    assert np.array_equal(_weights(size), mobius_weights(size))


# md5 of _weights(S).tobytes() past the float64 oracles (S <= 17) and the
# enumerations (S <= 7), pinned at the closed-form Mobius route before the
# insertion recurrence replaced it.
WEIGHTS_MD5 = {
    18: "b06e6d02a2abf00cfe6ace7168688030",
    19: "55dcef3db21053ed5c7ca3c03d47874c",
    20: "749194c9e99f072d3fd26b7ba88b8b75",
}


@pytest.mark.parametrize("size", sorted(WEIGHTS_MD5))
def test_weights_bytes_are_pinned_past_the_oracles(size):
    assert hashlib.md5(_weights(size).tobytes()).hexdigest() == WEIGHTS_MD5[size]


@st.composite
def _size_and_points(draw):
    size = draw(st.integers(1, 40))
    k = draw(st.integers(1, min(4, size)))
    return size, sorted(draw(st.sets(st.integers(1, size), min_size=k, max_size=k)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_size_and_points())
def test_insertion_product_telescopes_to_the_closed_form(case):
    # j_m misses all k points with chance (m + 1 - #{x_i <= m})/(m + 1), the
    # j_m are independent, and the product over m = 1..S telescopes.
    size, pts = case
    product = math.prod(
        Fraction(m + 1 - sum(x <= m for x in pts), m + 1) for m in range(1, size + 1)
    )
    closed = math.prod(Fraction(x - j, size + 1 - j) for j, x in enumerate(pts))
    assert product == closed
    assert float(product) == pytest.approx(stationary_moment(size, pts), rel=1e-14)


def test_largest_size_is_fast_certified_and_small():
    start = time.perf_counter()
    pi = stationary_distribution(MAX_EXACT_SIZE)
    assert time.perf_counter() - start < 5.0
    assert pi.residual <= 1e-15
    assert pi.probabilities.min() > 0.0
    tracemalloc.start()
    try:
        stationary_distribution(MAX_EXACT_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


def test_mass_check_catches_uint64_wrap(monkeypatch, capsys):
    # Every weight fits in uint64 up to S = 21; at S = 22 some wrap, and the
    # mass of the weights misses (S+1)! by about 7e-4.
    import sepsim.exact

    monkeypatch.setattr(sepsim.exact, "MAX_EXACT_SIZE", 22)
    assert stationary_distribution(21).residual <= 1e-15
    with pytest.raises(NumericError, match="mass"):
        stationary_distribution(22)
    assert main(["exact", "--size", "22"]) == 3
    assert "mass" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["perturbed", "negative", "nan"])
def test_certificate_rejects_corrupted_weights(monkeypatch, capsys, corrupt):
    # The first two keep the mass (S+1)!, so the check that fails is the
    # balance and the positivity check respectively, not the mass check.
    import sepsim.exact

    good = sepsim.exact._weights

    def corrupted(size):
        w = good(size)
        if corrupt == "perturbed":
            w[0] += 1.0
            w[w.argmax()] -= 1.0
        elif corrupt == "negative":
            w[0] += 2 * w[1]
            w[1] = -w[1]
        else:
            w[1] = np.nan
        return w

    monkeypatch.setattr(sepsim.exact, "_weights", corrupted)
    check = {"perturbed": "balance", "negative": "minimum", "nan": "mass"}[corrupt]
    with pytest.raises(NumericError, match=check):
        stationary_distribution(4)
    assert main(["exact", "--size", "4"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("size,code", [(0, 2), (MAX_EXACT_SIZE + 1, 4)])
def test_exact_refuses_size_before_allocating(monkeypatch, capsys, size, code):
    import sepsim.exact

    def unreachable(size):
        raise AssertionError(f"weights built for refused size {size}")

    monkeypatch.setattr(sepsim.exact, "_weights", unreachable)
    assert main(["exact", "--size", str(size)]) == code
    assert "error:" in capsys.readouterr().err


def _codes(draws):
    """Bulk bitmask of each draw, site 1 in bit 0."""
    return draws @ (1 << np.arange(draws.shape[1]))


def _chi2_pvalue(counts, probs):
    expected = counts.sum() * probs
    return chi2.sf(((counts - expected) ** 2 / expected).sum(), len(probs) - 1)


def test_sampler_matches_pi_by_chi_square():
    # 64 states at S=6; the least likely has probability 1/5040.
    pi = stationary_distribution(6).probabilities
    draws = sample_stationary(6, 400_000, np.random.default_rng(11))
    assert draws.shape == (400_000, 6) and draws.dtype == bool
    counts = np.bincount(_codes(draws), minlength=64)
    assert _chi2_pvalue(counts, pi) > 1e-3


@pytest.mark.parametrize("size", range(1, 9))
def test_particle_count_is_eulerian(size):
    # P(N = j) = A(S+1, j)/(S+1)! under pi and under the sampler, and
    # Var N = (S+2)/12 exactly.
    law = np.array(eulerian_numbers(size + 1)) / math.factorial(size + 1)
    pi = stationary_distribution(size).probabilities
    n_of_state = np.bitwise_count(np.arange(1 << size))
    assert np.allclose(np.bincount(n_of_state, weights=pi), law, rtol=1e-12, atol=0)
    weights = [Fraction(a, math.factorial(size + 1)) for a in eulerian_numbers(size + 1)]
    mean = sum(j * w for j, w in enumerate(weights))
    assert sum(j * j * w for j, w in enumerate(weights)) - mean**2 == Fraction(size + 2, 12)
    draws = sample_stationary(size, 100_000, np.random.default_rng(size))
    counts = np.bincount(draws.sum(axis=1), minlength=size + 1)
    assert _chi2_pvalue(counts, law) > 1e-3


@pytest.mark.parametrize("size", [16, 100])
def test_particle_count_variance_at_larger_sizes(size):
    # (S+2)/12 is 1.5 at S=16, against 2.82 for independent sites.
    n = sample_stationary(size, 100_000, np.random.default_rng(size)).sum(axis=1)
    assert abs(n.mean() - size / 2) < 0.05
    assert abs(n.var(ddof=1) / ((size + 2) / 12) - 1) < 0.03


def test_sampler_refuses_empty_chain():
    with pytest.raises(ValidationError):
        sample_stationary(0, 1, np.random.default_rng(0))
