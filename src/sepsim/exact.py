"""Exact stationary distribution of the chain by full state-space enumeration.

A bulk configuration is encoded as an S-bit integer with site 1 in the least
significant bit. The law comes from S independent integers j_m, uniform on
{0, ..., m} for m = 1..S, by cycle insertion: m becomes a fixed point
(j_m = m, site m stays empty) or goes in right after j_m < m in its cycle,
which fills site m and empties site j_m for good. Site x is filled exactly
when no j_m equals x, that is when sigma(x) < x for the uniform permutation
sigma of {0, ..., S} so built, which gives the law (Corteel and Williams,
Adv. Appl. Math. 39 (2007) 293, at q = 1 and unit rates, mirrored here).

(S+1)! pi counts the tuples by unhit set, grown one site at a time. With
W_m[F] the number of j_1..j_m that leave exactly F unhit in 1..m,
W_m[F] = W_{m-1}[F] (j_m = m) and W_m[F+m] = (m-|F|) W_{m-1}[F] +
sum_{x<m, x not in F} W_{m-1}[F+x] (j_m is 0 or already hit, or it hits x).
Every term is positive and every partial sum is at most a weight of the
m-site chain, below 2**64 up to S = 21, so the uint64 sums are exact. A
weight that wraps shows as a mass other than (S+1)!, which is an error.

The vector is then certified against the balance equations, with every
bond clock ringing once per unit time: it must be positive and have
|Q^T pi| <= MAX_RESIDUAL. Q^T pi is summed bond by bond on reshaped views
of pi, so no generator matrix is built. A common bond speed only scales Q,
so the law does not depend on it. The chain is irreducible, so a vector
that passes is its stationary law whatever route built it. An occupation
moment (the probability that a given set of sites is simultaneously
occupied) is the sum of a view of pi with one axis per site, fixed at 1 on
the axis of each point.

Memory grows as 2^S so the module enforces a size cap; this path is meant for
desk-scale verification, not production sizes. Exact draws from the law need
no table and work at any S: a draw costs S integers and no shuffle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import MAX_RESIDUAL, check_residual, validate_point_set
from .errors import NumericError, ResourceError, ValidationError

MAX_EXACT_SIZE = 20


@dataclass(frozen=True)
class StationaryVector:
    """Stationary probabilities indexed by bulk bitmask (site 1 = bit 0)."""

    size: int
    probabilities: np.ndarray
    residual: float


def _weights(size: int) -> np.ndarray:
    """(S+1)! pi of every bulk state, exact, as float64; see the module docstring."""
    count = np.bitwise_count(np.arange(1 << (size - 1), dtype=np.uint32))  # |F|
    w = np.zeros(1 << size, dtype=np.uint64)
    w[0] = 1
    for m in range(1, size + 1):  # rows n..2n-1 have site m = bit m-1 filled
        n = 1 << (m - 1)
        low, high = w[:n], w[n : 2 * n]
        np.multiply(low, m - count[:n], out=high)
        for i in range(m - 1):  # axis 1 is bit i, site x = i+1
            high.reshape(-1, 2, 1 << i)[:, 0] += low.reshape(-1, 2, 1 << i)[:, 1]
    return w.astype(np.float64)


def _balance(v: np.ndarray, size: int) -> np.ndarray:
    """Q^T v with every bond clock ringing once per unit time, one pass per bond.

    Each bond moves mass from the states where it is enabled to their images:
    bond 0 clears bit 0, bond S sets the top bit, an interior bond b swaps
    bits b-1 and b where they differ.
    """
    r = np.zeros_like(v)
    out = v.reshape(-1, 2)[:, 1]  # bond 0 empties site 1
    r.reshape(-1, 2)[:, 0] += out
    r.reshape(-1, 2)[:, 1] -= out
    into = v.reshape(2, -1)[0]  # bond S fills site S
    r.reshape(2, -1)[1] += into
    r.reshape(2, -1)[0] -= into
    for b in range(1, size):  # axis 1 is bit b, axis 2 is bit b-1
        shape = (-1, 2, 2, 1 << (b - 1))
        vb, rb = v.reshape(shape), r.reshape(shape)
        d = vb[:, 1, 0] - vb[:, 0, 1]
        rb[:, 0, 1] += d
        rb[:, 1, 0] -= d
    return r


def stationary_distribution(size: int) -> StationaryVector:
    """Stationary vector by insertion counts, certified by the balance equations."""
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    if size > MAX_EXACT_SIZE:
        raise ResourceError(
            f"exact solve limited to size <= {MAX_EXACT_SIZE}, got {size}"
        )
    weights = _weights(size)
    total = float(weights.sum())
    mass = total / math.factorial(size + 1)
    check_residual("exact stationary mass", abs(mass - 1.0), MAX_RESIDUAL)
    pi = weights / total
    if not pi.min() > 0.0:
        raise NumericError(f"exact stationary vector has minimum {pi.min():.3e}")
    residual = float(np.abs(_balance(pi, size)).max())
    check_residual("exact stationary balance", residual, MAX_RESIDUAL)
    return StationaryVector(size=size, probabilities=pi, residual=residual)


def exact_moment(pi: StationaryVector, points: Iterable[int]) -> float:
    """Stationary probability that every listed site is occupied.

    Reservoir sites resolve by their pinned values: a set containing site 0
    has moment 0, and site S+1 drops out (always occupied). The empty set has
    moment 1.
    """
    s = pi.size
    pts = tuple(int(p) for p in points)
    if not pts:
        return 1.0
    pts = validate_point_set(pts, s)
    if pts[0] == 0:
        return 0.0
    pts = tuple(p for p in pts if p != s + 1)
    if not pts:
        return 1.0
    index = [slice(None)] * s  # axis s - p is bit p - 1, site p
    for p in pts:
        index[s - p] = 1
    return float(pi.probabilities.reshape((2,) * s)[tuple(index)].sum())


def occupation_profile(pi: StationaryVector) -> np.ndarray:
    """Vector of single-site moments for sites 1..S."""
    return np.array([exact_moment(pi, (x,)) for x in range(1, pi.size + 1)])


def pair_moments(pi: StationaryVector) -> dict[tuple[int, int], float]:
    """All two-site moments keyed by (x, y) with x < y."""
    s = pi.size
    return {
        (x, y): exact_moment(pi, (x, y))
        for x in range(1, s + 1)
        for y in range(x + 1, s + 1)
    }


def sample_stationary(size: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """n independent draws from the stationary law as an (n, S) bool array.

    Column x-1 is site x, filled exactly when none of the row's own S
    insertion points j_m, uniform on {0, ..., m}, equals x; see the module
    docstring. The draws for m = 1..S come in that order, n at a time, and
    the result is the transpose of a C-ordered (S, n) array.
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    hit = np.zeros((size + 1, n), dtype=bool)  # row x: some j_m equals x
    flat, lane = hit.reshape(-1), np.arange(n)
    for m in range(1, size + 1):
        j = gen.integers(0, m + 1, size=n, dtype=np.min_scalar_type(size)).astype(np.intp)
        j *= n
        j += lane
        flat[j] = True
    return ~hit[1:].T
