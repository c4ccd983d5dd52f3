"""Dual description: k absorbing walkers instead of the full occupation field.

The occupation moment of k sites evolves like k exclusion walkers run
backwards: each walker hops symmetrically on 1..S, walkers never share a bulk
site, any walker stepping onto site 0 kills the whole family, and any walker
reaching site S+1 freezes there forever (frozen walkers stop excluding). The
family is eventually absorbed with every walker frozen (value 1) or dead
(value 0), so the stationary moment of the starting sites is exactly the
probability that all walkers freeze.

That probability has one closed form for every k. The stationary weight of
a configuration is <W| X_S ... X_1 |V>, X_i = D on an occupied site and E on
an empty one, with DE - ED = D + E, <W|E = <W| and D|V> = |V> (Derrida,
Evans, Hakim and Pasquier, J. Phys. A 26 (1993) 1493). The moment of
x_1 < ... < x_k puts D at those sites and C = D + E elsewhere. As
D C^n = C^n (D + n), the D of x_j passes the x_j - j factors C to its right
and becomes the number x_j - j + 1 at |V>; what is left is
<W| C^(S-k) |V> = (S-k+1)!, against the normalisation (S+1)!, so for
0 <= x_1 < ... < x_k <= S+1

    m_k(x_1, ..., x_k) = prod_{j=1..k} (x_j - j + 1) / (S + 2 - j).

A point at 0 gives 0 and a last point at S+1 gives a factor 1, the absorbed
values. k = 1 is the ruin line x/(S+1); k = 2 is the pair form
x(y-1)/(S(S+1)) (Spohn, J. Phys. A 16 (1983) 4275). Every value costs O(k)
at any size.

The absorbing samplers run on core.lockstep with one walker kernel,
_move_batch: in each round every open family moves one uniformly chosen
walker one step left or right. Moves that change nothing (a frozen walker, a
hop onto an occupied site) are kept as no-ops, so the event rate does not
depend on the state. estimate_absorption runs each family until at most one
walker is left in the bulk and then scores that walker's ruin line x/(S+1),
its exact success probability given the path so far; by the tower rule the
estimate stays unbiased, and a one-point family still walks until it is
absorbed. The ladder's hybrid pair uses the same kernel until its walkers
are independent.

The kernel works on an (n, k+2) array of the narrowest signed dtype that
holds -1..S+2: column 0 is a -1 sentinel and column k+1 an S+2 sentinel, so
the neighbour in the direction of travel is always one flat index away and
never blocks by accident. One draw u in [0, 2k) per move picks walker u >> 1
and direction u & 1. A hop is blocked only when the neighbour sits on the
target and the target is a bulk site, so frozen walkers stop excluding. The
move is one write of either the old or the new position, with no compaction
of movers.

transient_dual_moment gives each family a Poisson number of moves on the
timed mode of core.lockstep and is bit-sliced instead, like the forward
transient sampler: bit r of word w in
plane b of walker j is bit b of walker j's position in replica 64w+r, with
L = (S+1).bit_length() planes. Its clock runs at 2K per unit time, K the
smallest power of two >= k: per round one random plane sets each lane's
direction and log2 K planes its walker index, an index >= k idles, and
every walker still hops each way at rate 1. A hop is a carry or borrow chain
over the planes, equality tests are an OR over the planes of an XOR, and a
lane whose lowest walker reaches 0 is dead and never moves again. A timed
run suits words: its lanes close in quota order, so whole words close
together. An absorbing run does not: a 64-lane word would keep moving until
its slowest lane is absorbed, so the absorbing samplers keep _move_batch. A
round costs about 45 numpy calls against about 20 for _move_batch, so below
about 10^4 replicas call overhead makes the sliced sampler slower (10^4
replicas at S = 10, t = 200: about 0.1 s against 0.075 s); duality-check
defaults to 10^6 replicas, where it is about 8 times faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    ALL_LANES,
    Configuration,
    ModelParams,
    PointSet,
    RngStream,
    lane_mean_stderr,
    lockstep,
    mean_stderr,
    poisson_quotas,
    site_dtype,
    validate_point_set,
)
from .errors import ValidationError

def stationary_moment(size: int, points: PointSet) -> float:
    """Exact stationary moment of the point set, reservoir sites 0 and S+1 allowed."""
    pts = validate_point_set(points, size)
    if pts[0] == 0:
        # the empty reservoir; the product would read 0/0 on all of 0..S+1
        return 0.0
    # integer numerator and denominator: one correctly rounded division
    return math.prod(x - j for j, x in enumerate(pts)) / math.prod(
        size + 1 - j for j in range(len(pts))
    )


def _walkers(points: PointSet, n_replicas: int, size: int) -> np.ndarray:
    """Padded walker array: n rows of [-1, *points, S+2] in the narrowest dtype.

    The sentinels at columns 0 and k+1 are never a hop target, so the walker
    kernel reads a neighbour on either side without a bounds case.
    """
    row = np.array([-1, *points, size + 2], dtype=site_dtype(size + 2))
    return np.tile(row, (n_replicas, 1))


def _draw_moves(gen: np.random.Generator, k: int, n: int) -> np.ndarray:
    """One draw per move: walker u >> 1 steps right if u & 1, else left."""
    return gen.integers(0, 2 * k, size=n, dtype=np.min_scalar_type(2 * k))


def _move_batch(
    walkers: np.ndarray,
    rows: np.ndarray,
    u: np.ndarray,
    size: int,
) -> np.ndarray:
    """Apply one uniformized move per row in place; returns the new-death mask.

    Walker u[i] >> 1 of row rows[i] of a _walkers array steps right if
    u[i] & 1, else left. Frozen walkers (at S+1) and hops onto a walker at a
    bulk site are no-ops, which keeps the total event rate state-independent.
    A walker that steps off site 1 dies at site 0.
    """
    width = walkers.shape[1]
    flat = walkers.reshape(-1)
    step = (u & 1).astype(walkers.dtype) * 2 - 1
    i = rows * width + (u >> 1) + 1
    pos = flat[i]
    tgt = pos + step
    blocked = (flat[i + step] == tgt) & (tgt <= size)
    stay = (pos == size + 1) | blocked
    flat[i] = np.where(stay, pos, tgt)
    return tgt == 0


def estimate_absorption(
    params: ModelParams,
    initial: PointSet,
    n_replicas: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo probability that a family freezes completely.

    Vectorized over replicas on the uniformized clock (no-op events included;
    the absorbed-state law is unchanged by that choice). A family closes once
    at most one walker is left in the bulk and scores its lowest walker's
    ruin line x/(S+1): 0 when dead, 1 when fully frozen, and for a lone bulk
    walker its exact chance to freeze, since frozen walkers stop excluding.
    By the tower rule the mean is unbiased. A one-point family still walks
    until it is absorbed, so the ruin line itself stays sampled.
    """
    s = params.size
    pts = validate_point_set(initial, s, interior_only=True)
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    k = len(pts)
    gen = rng.generator()
    walkers = _walkers(pts, n_replicas, s)
    # Walkers stay in order, so the second one frozen leaves only the lowest
    # in the bulk; with k = 1 this is the lowest frozen.
    second = walkers[:, min(k, 2)]

    def step(rows: np.ndarray) -> np.ndarray:
        die = _move_batch(walkers, rows, _draw_moves(gen, k, rows.size), s)
        return die | (second[rows] == s + 1)

    lockstep(n_replicas, step)
    return mean_stderr(walkers[:, 1] / (s + 1))


def transient_dual_moment(
    params: ModelParams,
    initial_points: PointSet,
    initial_env: Configuration,
    t: float,
    n_replicas: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Expected product of the start field over walker positions at time t.

    Dead families contribute 0 (a dead walker sits at site 0, where the field
    is 0), frozen walkers contribute the pinned value 1. Matches the forward
    transient moment of initial_points when the forward chain starts from
    initial_env.
    """
    s = params.size
    pts = validate_point_set(initial_points, s, interior_only=True)
    if initial_env.size != s:
        raise ValidationError("environment configuration size does not match params")
    if not (t >= 0 and math.isfinite(t)):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    env = initial_env.as_array()
    if t == 0:
        return float(env[list(pts)].prod()), 0.0
    k = len(pts)
    gen = rng.generator()
    n_index = (k - 1).bit_length()  # index planes: K = 2**n_index >= k
    quotas = poisson_quotas(gen, 2.0 * (1 << n_index) * t, n_replicas)
    n_planes = (s + 1).bit_length()
    start = _planes((s + 1, *pts, s + 1), n_planes)
    pos = np.repeat(start[..., None], -(-n_replicas // 64), axis=2)

    def step(rows: np.ndarray) -> None:
        first = int(rows[0])
        planes = gen.bit_generator.random_raw((1 + n_index, pos.shape[2] - (first >> 6)))
        _hop_round(pos, first, planes, s)

    lockstep(n_replicas, step, quotas)
    # a lane scores 0 when any walker sits where the start field is 0, site 0 included
    walk, zero = pos[1:-1], np.zeros((k, pos.shape[2]), dtype=np.uint64)
    for site in np.flatnonzero(env == 0):
        zero |= _at(walk, site)
    return lane_mean_stderr(~np.bitwise_or.reduce(zero, axis=0), n_replicas)


def _planes(values: tuple[int, ...], n_planes: int) -> np.ndarray:
    """(len(values), n_planes) uint64 words: all ones where bit b of the value is set."""
    bits = (np.array(values)[:, None] >> np.arange(n_planes)) & 1
    return np.where(bits == 1, ALL_LANES, np.uint64(0))


def _at(walk: np.ndarray, site: int) -> np.ndarray:
    """(k, W) words of a (k, L, W) position array: set where the walker is on site."""
    return ~np.bitwise_or.reduce(walk ^ _planes((site,), walk.shape[1])[0, :, None], axis=1)


def _hop_round(pos: np.ndarray, first: int, planes: np.ndarray, size: int) -> None:
    """Move one walker per lane in lanes first.. of a (k+2, L, W) position array.

    Bit r of word w in plane b of row j is bit b of walker j's position in
    lane 64w+r; rows 0 and k+1 are sentinels frozen at S+1, which never block.
    From first's word on, planes[0] sends a lane's walker right where set and
    left elsewhere, and planes[1:] spell the walker's index; an index >= k
    idles. Lanes whose lowest walker sits at 0 are dead and never move.
    """
    live = pos[:, :, first >> 6 :]
    walk = live[1:-1]
    k, n_planes, width = walk.shape
    right = planes[0]
    # walkers at S+1, between the sentinel rows, which are always frozen
    frozen = np.full((k + 2, width), ALL_LANES)
    frozen[1:-1] = _at(walk, size + 1)
    sel = np.empty((k, width), dtype=np.uint64)
    np.bitwise_or.reduce(walk[0], axis=0, out=sel[0])  # lowest walker not at 0
    sel[0, 0] &= ALL_LANES << np.uint64(first & 63)
    filled = 1
    for plane in planes[1:]:  # rows past k - 1 are only cut at the last plane
        cut = min(filled, k - filled)
        np.bitwise_and(sel[:cut], plane, out=sel[filled : filled + cut])
        sel[:filled] &= ~plane
        filled += cut
    # +-1 as a carry (right) or borrow (left) chain: plane b flips while every
    # lower bit of the position equals the direction bit
    flips = np.empty_like(walk)
    flips[:, 0] = sel
    left = ~right
    for b in range(n_planes - 1):
        np.bitwise_xor(walk[:, b], left, out=flips[:, b + 1])
        flips[:, b + 1] &= flips[:, b]
    # the neighbour in the direction of travel, and whether it is frozen
    ahead = live[:-2] ^ live[2:]
    ahead &= right
    ahead ^= live[:-2]
    ahead_frozen = frozen[:-2] ^ frozen[2:]
    ahead_frozen &= right
    ahead_frozen ^= frozen[:-2]
    # a hop goes unless the walker is frozen or lands on a bulk neighbour
    ahead ^= walk
    ahead ^= flips
    go = np.bitwise_or.reduce(ahead, axis=1)
    go |= ahead_frozen
    go &= ~frozen[1:-1]
    flips &= go[:, None]
    walk ^= flips


@dataclass(frozen=True)
class PairAbsorption:
    """Freeze-both probability for every ordered pair of start sites."""

    size: int

    def value(self, x: int, y: int) -> float:
        return stationary_moment(self.size, (x, y))

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        for x in range(1, self.size):
            for y in range(x + 1, self.size + 1):
                yield x, y, self.value(x, y)


def pair_absorption_exact(params: ModelParams) -> PairAbsorption:
    """Exact freeze-both probabilities for all pairs 1 <= x < y <= S."""
    if params.size < 2:
        raise ValidationError("pair absorption needs size >= 2")
    return PairAbsorption(size=params.size)
