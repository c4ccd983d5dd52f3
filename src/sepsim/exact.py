"""Exact stationary distribution of the chain by full state-space enumeration.

A bulk configuration is encoded as an S-bit integer with site 1 in the least
significant bit. The stationary weight of a configuration is the matrix
product <W| X_S ... X_1 |V>, X_i = D where site i is occupied and E where it
is empty, with DE - ED = D + E, <W|E = <W| and D|V> = |V> (Derrida, Evans,
Hakim and Pasquier, J. Phys. A 26 (1993) 1493). One pass over the sites gives
every weight, with no iteration. The normalised vector is then certified
against the generator: it must sum to 1, be positive and have
|Q^T pi| <= MAX_RESIDUAL * rate. The chain is irreducible, so a vector that
passes is its stationary law whatever the algebra says. Occupation moments
(the probability that a given set of sites is simultaneously occupied) are
plain masked sums over the state space.

Memory grows as 2^S so the module enforces a size cap; this path is meant for
desk-scale verification, not production sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from .core import MAX_RESIDUAL, ModelParams, check_residual, validate_point_set
from .errors import NumericError, ResourceError, ValidationError

MAX_EXACT_SIZE = 20


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse generator: off-diagonal jump rates, diagonal minus row sums."""

    size: int
    rate: float
    matrix: sp.csr_matrix


@dataclass(frozen=True)
class StationaryVector:
    """Stationary probabilities indexed by bulk bitmask (site 1 = bit 0)."""

    size: int
    probabilities: np.ndarray
    residual: float


def build_generator(params: ModelParams) -> GeneratorMatrix:
    s = params.size
    if s > MAX_EXACT_SIZE:
        raise ResourceError(
            f"exact solve limited to size <= {MAX_EXACT_SIZE}, got {s}"
        )
    if not math.isfinite(params.rate * (s + 1)):
        # the diagonal sums up to S+1 rates and would overflow to -inf
        raise ValidationError(f"rate {params.rate} times {s + 1} bonds is not finite")
    dim = 1 << s
    states = np.arange(dim, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for bond in range(s + 1):
        if bond == 0:
            # empties site 1: enabled where bit 0 is set
            mask = (states & 1) == 1
            targets = states[mask] & ~np.int64(1)
        elif bond == s:
            # fills site S: enabled where the top bulk bit is clear
            top = np.int64(1 << (s - 1))
            mask = (states & top) == 0
            targets = states[mask] | top
        else:
            lo = np.int64(1 << (bond - 1))
            hi = np.int64(1 << bond)
            mask = ((states & lo) != 0) != ((states & hi) != 0)
            targets = states[mask] ^ (lo | hi)
        rows.append(states[mask])
        cols.append(targets)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    data = np.full(r.shape, params.rate)
    q = sp.coo_matrix((data, (r, c)), shape=(dim, dim)).tocsr()
    out_rates = np.asarray(q.sum(axis=1)).ravel()
    q = q + sp.diags(-out_rates, format="csr")
    return GeneratorMatrix(size=s, rate=params.rate, matrix=q)


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


def stationary_distribution(gen: GeneratorMatrix) -> StationaryVector:
    """Matrix-product stationary vector, certified against the generator."""
    weights = _matrix_product_weights(gen.size)
    pi = weights / weights.sum()
    check_residual("exact stationary mass", abs(float(pi.sum()) - 1.0), MAX_RESIDUAL)
    if not pi.min() > 0.0:
        raise NumericError(f"exact stationary vector has minimum {pi.min():.3e}")
    residual = float(np.abs(gen.matrix.T @ pi).max())
    check_residual("exact stationary balance", residual, MAX_RESIDUAL * gen.rate)
    return StationaryVector(size=gen.size, probabilities=pi, residual=residual)


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
