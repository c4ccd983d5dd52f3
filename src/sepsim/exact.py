"""Exact stationary distribution of the chain by full state-space enumeration.

A bulk configuration is encoded as an S-bit integer with site 1 in the least
significant bit. The stationary weight of a configuration is the matrix
product <W| X_S ... X_1 |V>, X_i = D where site i is occupied and E where it
is empty, with DE - ED = D + E, <W|E = <W| and D|V> = |V> (Derrida, Evans,
Hakim and Pasquier, J. Phys. A 26 (1993) 1493). One pass over the sites gives
every weight, with no iteration. The normalised vector is then certified
against the balance equations, with every bond clock ringing once per unit
time: it must sum to 1, be positive and have |Q^T pi| <= MAX_RESIDUAL.
Q^T pi is summed bond by bond on reshaped views of pi, so no generator
matrix is built. A common bond speed only scales Q, so the law does not
depend on it. The chain is irreducible, so a vector that passes is its
stationary law whatever the algebra says. Occupation moments (the
probability that a given set of sites is simultaneously occupied) are plain
masked sums over the state space.

Memory grows as 2^S so the module enforces a size cap; this path is meant for
desk-scale verification, not production sizes.
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


def _matrix_product_weights(size: int) -> np.ndarray:
    """Unnormalised weights <W| X_S ... X_1 |V> of all 2^S bulk states.

    Row r of the table holds X_i ... X_1 |V> for the first i bits of state r,
    on the basis c_m = E^m|V>: E maps c_m to c_{m+1}, D maps c_m to
    sum_{j<=m} C(m+1, j) c_j, and <W|c_m> = 1. Every entry is a nonnegative
    integer no larger than the final weight, at most (S+1)!, so float64 holds
    the weights exactly for S <= 17.
    """
    span = range(size + 1)
    d_t = np.tril([[float(math.comb(m + 1, j)) for j in span] for m in span])  # C(m+1, j)
    table = np.zeros((1 << size, size + 1))
    table[0, 0] = 1.0
    for i in range(size):  # site i+1 is bit i: rows n..2n-1 have it occupied
        n = 1 << i
        table[n : 2 * n] = table[:n] @ d_t
        table[:n, 1:] = table[:n, :-1]
        table[:n, 0] = 0.0
    return table.sum(axis=1)


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
    """Matrix-product stationary vector, certified by the balance equations."""
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    if size > MAX_EXACT_SIZE:
        raise ResourceError(
            f"exact solve limited to size <= {MAX_EXACT_SIZE}, got {size}"
        )
    weights = _matrix_product_weights(size)
    pi = weights / weights.sum()
    check_residual("exact stationary mass", abs(float(pi.sum()) - 1.0), MAX_RESIDUAL)
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
    mask = 0
    for p in pts:
        mask |= 1 << (p - 1)
    states = np.arange(pi.probabilities.shape[0], dtype=np.int64)
    hit = (states & mask) == mask
    return float(pi.probabilities[hit].sum())


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
