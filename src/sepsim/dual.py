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

The exact draws of exact.sample_stationary give a short probabilistic proof.
A bulk site x is filled exactly when none of S independent integers j_m,
uniform on {0, ..., m} for m = 1..S, equals x, so bulk sites x_1 < ... < x_k
are all filled with chance prod_{m=1..S} (m + 1 - #{j : x_j <= m})/(m + 1).
With m = 0 as a factor 1, the numerators climb 1, 2, ..., S + 1 - k one
step per m, except that each x_j repeats the value x_j - j + 1 (at m = x_j - 1
and at m = x_j). The product is thus (S + 1 - k)! prod_j (x_j - j + 1) over
(S + 1)!, the closed form above.

The samplers are bit-sliced: bit r of word w in plane b of walker j is bit b
of walker j's position in replica 64w+r, L = (S+1).bit_length() planes, with
a sentinel row frozen at S+1 on either side of the family. One kernel,
_hop_round, moves one walker in every open lane of a word mask on a clock of
2K moves per unit time, K the smallest power of two >= k: one random plane
sets each lane's direction and log2 K planes its walker index, an index >= k
idles, so every walker hops each way at rate 1. Moves that change nothing (a
frozen walker, a hop onto a walker at a bulk site, an idle index) are no-ops,
so the event rate does not depend on the state. A hop is a carry or borrow
chain over the planes; equality tests are an OR over the planes of an XOR.

transient_dual_moment gives each family a Poisson number of moves, in the
rounds of core.timed_rounds, and a lane whose lowest walker reaches 0 is
dead; core.check_replicas caps its replicas times (k+2) L rows and its mean
rounds. A round costs about 45 numpy calls whatever its width, so below 10^4
replicas the call overhead dominates: at S = 10, points (3, 7), a round takes
about 45 us on one word, 65 us at 10^4 replicas and 125 us at 10^5.

estimate_absorption and the ladder's hybrid pair share absorbing_run, on
core.lockstep with words as its rows; core.check_replicas caps its replicas
times (k+2) L rows as well. After each round a close rule runs on
whole words: a lane closes once its lowest walker is dead or walker min(k, 2)
is frozen, so at most one walker is left in the bulk (a hybrid lane also at
the end of its k-th meeting episode). Whenever the open lanes fit in half the
words, the held lanes are decoded once into one byte per lane and bit: closed
lanes are gathered by index and scored, and open ones gathered by index and
packed densely again in lane order into the first words, so no word waits
for its slowest lane. estimate_absorption scores the lowest walker's
ruin line x/(S+1), its exact chance to freeze given the path so far, since
frozen walkers stop excluding; by the tower rule the estimate stays unbiased.
A one-point family still walks until it is absorbed. With few replicas the
per-round call overhead dominates, most of all in the last rounds, on one or
two words: 2*10^4 replicas at S = 40, points (10, 20, 30), take 0.66-0.77 s
(best of five in each of three processes, two shared Xeon cores), and
2*10^5 at S = 100, points (30, 70), 3.5-3.8 s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import (
    ALL_LANES,
    ROUND_CAP,
    Configuration,
    ModelParams,
    PointSet,
    check_replicas,
    first_lanes,
    lane_mean_stderr,
    lockstep,
    mean_stderr,
    split_lanes,
    timed_rounds,
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


def estimate_absorption(
    params: ModelParams,
    initial: PointSet,
    n_replicas: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo probability that a family freezes completely.

    Runs on absorbing_run (no-op events included; the absorbed-state law is
    unchanged by that choice) and scores each family by the ruin line x/(S+1)
    of its lowest walker once at most one walker is left in the bulk: 0 when
    dead, 1 when fully frozen, else that walker's exact chance to freeze.
    """
    s = params.size
    pts = validate_point_set(initial, s, interior_only=True)
    return absorbing_run(s, pts, n_replicas, gen, lambda x: x[0] / (s + 1))


def absorbing_run(
    size: int,
    points: PointSet,
    n_replicas: int,
    gen: np.random.Generator,
    score: Callable[[np.ndarray], np.ndarray],
    episodes: int = 0,
) -> tuple[float, float]:
    """mean_stderr of the scores of n_replicas families walked from points until closed.

    A lane closes when its lowest walker is at 0 or walker min(k, 2) is at
    S+1, and with episodes > 0 also once its count of distance-1 entries and
    exits of walkers 1 and 2 reaches 2 * episodes. score maps the sites of
    walkers 1..min(k, 2) in closed lanes, a (min(k, 2), m) array, to m scores.
    The (k+2) L rows of position planes per 64 replicas pass core.check_replicas
    before anything is allocated. Lanes still open after core.ROUND_CAP rounds
    raise NumericError.
    """
    k, top = len(points), min(len(points), 2)
    n_index, n_planes = (k - 1).bit_length(), (size + 1).bit_length()
    check_replicas(n_replicas, (k + 2) * n_planes)
    n_words = -(-n_replicas // 64)
    pos = np.repeat(_planes((size + 1, *points, size + 1), n_planes)[..., None], n_words, 2)
    # the count never exceeds the round count, so a target past ROUND_CAP never closes
    target = min(2 * episodes, ROUND_CAP + 1)
    count = np.zeros((target.bit_length(), n_words), dtype=np.uint64)
    lanes = first_lanes(n_replicas, n_words)
    scores = np.empty(n_replicas)
    held, done = n_replicas, 0

    def step(w: int) -> int:
        nonlocal held, done
        live, open_ = pos[:, :, :w], lanes[:w]
        _hop_round(live, open_, gen.bit_generator.random_raw((1 + n_index, w)), size)
        shut = _at(live[top : top + 1], size + 1)[0]
        shut |= ~np.bitwise_or.reduce(live[1], axis=0)
        if target:
            shut |= _count_episodes(count[:, :w], live[1], live[2], open_, target)
        open_ &= ~shut
        n_open = int(np.bitwise_count(open_).sum())
        if -(-n_open // 64) > w // 2:
            return w
        state = np.concatenate((live[1:-1].reshape(k * n_planes, w), count[:, :w]))
        kept, closed = _repack(state, open_, held)
        sites = np.zeros((top, closed.shape[1]), dtype=np.min_scalar_type(size + 1))
        for b in range(n_planes):  # row j * L + b holds plane b of walker j + 1
            sites |= closed[b : top * n_planes : n_planes].astype(sites.dtype) << b
        scores[done : done + sites.shape[1]] = score(sites)
        held, done, w_kept = n_open, done + sites.shape[1], kept.shape[1]
        pos[1:-1, :, :w_kept] = kept[: k * n_planes].reshape(k, n_planes, w_kept)
        count[:, :w_kept] = kept[k * n_planes :]
        lanes[:w_kept] = first_lanes(n_open, w_kept)
        return w_kept

    lockstep(n_words, step)
    return mean_stderr(scores)


def _repack(state: np.ndarray, open_: np.ndarray, held: int) -> tuple[np.ndarray, np.ndarray]:
    """Split lanes 0..held-1 of a (R, W) word array by the open-lane words.

    Returns the open lanes packed densely in lane order, as (R, ceil(n_open/64))
    words with zero padding lanes, and the closed lanes as (R, n_closed) bits.
    """
    bits = np.unpackbits(state.astype("<u8").view(np.uint8), 1, held, bitorder="little")
    is_open = np.unpackbits(open_.astype("<u8").view(np.uint8), -1, held, "little") == 1
    lanes = np.flatnonzero(is_open)
    kept = np.zeros((len(state), 64 * -(-lanes.size // 64)), dtype=np.uint8)
    kept[:, : lanes.size] = bits.take(lanes, axis=1)
    closed = bits.take(np.flatnonzero(~is_open), axis=1)
    return np.packbits(kept, axis=1, bitorder="little").view("<u8"), closed


def _count_episodes(
    count: np.ndarray, lo: np.ndarray, hi: np.ndarray, open_: np.ndarray, target: int
) -> np.ndarray:
    """Add hi - lo == (c & 1) + 1 to a (C, W) bit-plane counter c in open lanes.

    lo and hi are (L, W) position planes. Returns the words set where c now
    equals target.
    """
    # lo + (c & 1) + 1 as a carry chain with carry in 1
    total = lo.copy()
    total[0] ^= ~count[0]
    carry = lo[0] | count[0]
    for b in range(1, len(lo)):
        total[b] ^= carry
        carry &= lo[b]
    total ^= hi
    carry = ~np.bitwise_or.reduce(total, axis=0) & open_
    for plane in count:  # c + 1 as a carry chain
        plane ^= carry
        carry &= ~plane
    return ~np.bitwise_or.reduce(count ^ _planes((target,), len(count))[0, :, None], axis=0)


def transient_dual_cost(size: int, k: int, t: float) -> tuple[int, float]:
    """transient_dual_moment's (k+2) L rows per 64 families and mean 2K t rounds, K >= k."""
    if not (t >= 0 and math.isfinite(t)):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    return (k + 2) * (size + 1).bit_length(), 2.0 * (1 << (k - 1).bit_length()) * t


def transient_dual_moment(
    params: ModelParams,
    initial_points: PointSet,
    initial_env: Configuration,
    t: float,
    n_replicas: int,
    gen: np.random.Generator,
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
    k, n_planes = len(pts), (s + 1).bit_length()
    rows, mean = transient_dual_cost(s, k, t)
    check_replicas(n_replicas, rows)
    env = initial_env.as_array()
    n_index = (k - 1).bit_length()  # index planes: K = 2**n_index >= k
    rounds = timed_rounds(gen, mean, n_replicas, 1 + n_index)
    start = _planes((s + 1, *pts, s + 1), n_planes)
    pos = np.repeat(start[..., None], -(-n_replicas // 64), axis=2)
    for w, open_, planes in rounds:
        _hop_round(pos[:, :, w:], open_, planes, s)
    return lane_mean_stderr(~_on_zero(pos[1:-1], env), n_replicas)


@functools.lru_cache(maxsize=256)
def _planes(values: tuple[int, ...], n_planes: int) -> np.ndarray:
    """(len(values), n_planes) uint64 words, all ones where bit b of the value is set.

    Every round tests against S+1, so the result is cached and read-only.
    """
    bits = (np.array(values)[:, None] >> np.arange(n_planes)) & 1
    planes = np.where(bits == 1, ALL_LANES, np.uint64(0))
    planes.flags.writeable = False
    return planes


def _on_zero(walk: np.ndarray, env: np.ndarray) -> np.ndarray:
    """Words of a (k, L, W) position array set where a walker sits on a 0 of env."""
    hit = np.zeros((walk.shape[0], walk.shape[2]), dtype=np.uint64)
    for site in np.flatnonzero(env == 0):
        hit |= _at(walk, site)
    return np.bitwise_or.reduce(hit, axis=0)


def _at(walk: np.ndarray, site: int) -> np.ndarray:
    """(k, W) words of a (k, L, W) position array: set where the walker is on site."""
    return ~np.bitwise_or.reduce(walk ^ _planes((site,), walk.shape[1])[0, :, None], axis=1)


def _hop_round(pos: np.ndarray, open_: np.ndarray, planes: np.ndarray, size: int) -> None:
    """Move one walker per lane in the open lanes of a (k+2, L, W) position array.

    Bit r of word w in plane b of row j is bit b of walker j's position in
    lane 64w+r; rows 0 and k+1 are sentinels frozen at S+1, which never block.
    open_ holds W words of open lanes. planes[0] sends a lane's walker right
    where set and left elsewhere, and planes[1:] spell the walker's index; an
    index >= k idles. Lanes whose lowest walker sits at 0 are dead and never
    move.
    """
    walk = pos[1:-1]
    k, n_planes, width = walk.shape
    right = planes[0]
    # walkers at S+1, between the sentinel rows, which are always frozen
    frozen = np.full((k + 2, width), ALL_LANES)
    frozen[1:-1] = _at(walk, size + 1)
    sel = np.empty((k, width), dtype=np.uint64)
    np.bitwise_or.reduce(walk[0], axis=0, out=sel[0])  # lowest walker not at 0
    sel[0] &= open_
    split_lanes(sel, planes[1:])
    # +-1 as a carry (right) or borrow (left) chain: plane b flips while every
    # lower bit of the position equals the direction bit
    flips = np.empty_like(walk)
    flips[:, 0] = sel
    left = ~right
    for b in range(n_planes - 1):
        np.bitwise_xor(walk[:, b], left, out=flips[:, b + 1])
        flips[:, b + 1] &= flips[:, b]
    # the neighbour in the direction of travel, and whether it is frozen
    ahead = pos[:-2] ^ pos[2:]
    ahead &= right
    ahead ^= pos[:-2]
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
