import math
import time

import numpy as np
import pytest

from bruteforce import moment_from_distribution, stationary_null_space
from sepsim.core import ModelParams
from sepsim.cli import main
from sepsim.errors import NumericError, ResourceError, ValidationError
from sepsim.exact import (
    MAX_EXACT_SIZE,
    build_generator,
    exact_moment,
    occupation_profile,
    pair_moments,
    stationary_distribution,
)


def test_generator_rows_sum_to_zero():
    for size in (1, 2, 4, 6):
        q = build_generator(ModelParams(size=size)).matrix.toarray()
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-14)
        off = q - np.diag(np.diag(q))
        assert (off >= 0).all()
        assert (np.diag(q) <= 0).all()


def test_generator_small_structure():
    # S=2, state 01 in binary-counter order is index 2 (site 2 occupied).
    # Its only state-changing event is the interior exchange to state 10.
    q = build_generator(ModelParams(size=2)).matrix.toarray()
    row = q[2].copy()
    assert row[1] == 1.0
    assert row[2] == -1.0
    row[1] = row[2] = 0.0
    assert np.array_equal(row, np.zeros(4))


def test_generator_scales_with_rate():
    a = build_generator(ModelParams(size=3, rate=1.0)).matrix.toarray()
    b = build_generator(ModelParams(size=3, rate=2.5)).matrix.toarray()
    assert np.allclose(b, 2.5 * a)


def test_size_cap():
    with pytest.raises(ResourceError):
        build_generator(ModelParams(size=MAX_EXACT_SIZE + 1))


def test_stationary_closed_values_s2():
    """4-state chain has stationary weights (1/6, 1/6, 1/2, 1/6)."""
    pi = stationary_distribution(build_generator(ModelParams(size=2)))
    assert np.allclose(
        pi.probabilities, [1 / 6, 1 / 6, 1 / 2, 1 / 6], rtol=0, atol=1e-12
    )
    assert abs(exact_moment(pi, (1, 2)) - 1 / 6) < 1e-12
    assert pi.residual < 1e-12


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_profile_is_linear(size):
    pi = stationary_distribution(build_generator(ModelParams(size=size)))
    target = np.arange(1, size + 1) / (size + 1)
    assert np.abs(occupation_profile(pi) - target).max() < 1e-10


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_stationary_matches_null_space_oracle(size):
    pi = stationary_distribution(build_generator(ModelParams(size=size)))
    oracle = stationary_null_space(size)
    assert np.abs(pi.probabilities - oracle).max() < 1e-11


def test_stationary_rate_invariant():
    slow = stationary_distribution(build_generator(ModelParams(size=4, rate=0.25)))
    fast = stationary_distribution(build_generator(ModelParams(size=4, rate=4.0)))
    assert np.array_equal(slow.probabilities, fast.probabilities)


def test_exact_moment_boundary_conventions():
    pi = stationary_distribution(build_generator(ModelParams(size=3)))
    assert exact_moment(pi, (0, 2)) == 0.0
    assert exact_moment(pi, ()) == 1.0
    # the full right reservoir drops out of the product
    assert abs(exact_moment(pi, (2, 4)) - exact_moment(pi, (2,))) < 1e-14


def test_exact_moment_validates_points():
    pi = stationary_distribution(build_generator(ModelParams(size=3)))
    with pytest.raises(ValidationError):
        exact_moment(pi, (3, 1))
    with pytest.raises(ValidationError):
        exact_moment(pi, (5,))


@pytest.mark.parametrize("size", [3, 4, 5])
def test_pair_moments_match_oracle(size):
    pi = stationary_distribution(build_generator(ModelParams(size=size)))
    oracle = stationary_null_space(size)
    for (x, y), val in pair_moments(pi).items():
        want = moment_from_distribution(oracle, (x, y), size)
        assert abs(val - want) < 1e-11


def test_profile_is_increasing():
    pi = stationary_distribution(build_generator(ModelParams(size=7)))
    prof = occupation_profile(pi)
    assert (np.diff(prof) > 0).all()


@pytest.mark.parametrize("size", range(1, 18))
def test_integer_weights_balance_exactly(size):
    """(S+1)! pi is an integer vector that the rate-1 generator kills exactly.

    (S+1)! < 2**53 up to S = 17, so float64 carries every weight exactly and
    the balance check runs in int64, independent of how pi was computed.
    """
    total = math.factorial(size + 1)
    gen = build_generator(ModelParams(size=size))
    w = np.rint(stationary_distribution(gen).probabilities * total).astype(np.int64)
    assert int(w.sum()) == total
    assert not (gen.matrix.astype(np.int64).T @ w).any()


def test_size_18_is_fast_and_certified():
    gen = build_generator(ModelParams(size=18))
    start = time.perf_counter()
    pi = stationary_distribution(gen)
    assert time.perf_counter() - start < 5.0
    assert pi.residual <= 1e-15
    assert pi.probabilities.min() > 0.0


@pytest.mark.parametrize("corrupt", ["perturbed", "negative", "nan"])
def test_certificate_rejects_corrupted_weights(monkeypatch, capsys, corrupt):
    import sepsim.exact

    good = sepsim.exact._matrix_product_weights

    def corrupted(size):
        w = good(size)
        if corrupt == "perturbed":
            w[1] += 1.0
        elif corrupt == "negative":
            w[1] = -w[1]
        else:
            w[1] = np.nan
        return w

    monkeypatch.setattr(sepsim.exact, "_matrix_product_weights", corrupted)
    with pytest.raises(NumericError):
        stationary_distribution(build_generator(ModelParams(size=4)))
    assert main(["exact", "--size", "4"]) == 3
    assert "error:" in capsys.readouterr().err
