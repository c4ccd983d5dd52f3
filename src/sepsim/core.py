"""Shared lattice types for the boundary-driven symmetric exclusion chain.

The chain lives on sites 0..S+1. Sites 1..S are bulk sites holding at most one
particle each. The two edge sites act as reservoirs with pinned values: site 0
is always empty, site S+1 always occupied. Bond s joins sites s and s+1 for
s = 0..S. Firing an interior bond exchanges the two endpoint occupancies;
firing bond 0 empties site 1 (a particle leaves through the empty reservoir),
firing bond S fills site S (a particle enters from the full reservoir). Every
bond rings at rate 1, which is the unit of time: the stationary law does not
depend on a common bond rate, and a transient law depends only on rate * t.

This module also owns the reproducible-randomness contract:
ModelParams.stream(i) builds a fresh numpy Generator keyed by (seed, i).
Equal keys draw equal sequences, distinct keys statistically independent
ones, and a sampler consumes the generator it is given, so repeating a run
takes a new one.

The numpy samplers run on a uniformized clock (Bortz, Kalos and Lebowitz,
J. Comput. Phys. 17 (1975) 10): every open replica takes one move or one
chunk of moves per round, moves that change nothing included, so all
replicas advance together and a round is a handful of array operations.
A timed run gives each replica a Poisson number of rounds; sorted, the open
replicas of a round are a suffix, and timed_rounds yields each round's open
words from the first open replica of poisson_rounds. An absorbing run calls
lockstep, which steps until no row is open: each step keeps its open rows
packed at the front, in order, and returns how many stay open. The
bit-sliced samplers hold 64 replicas per uint64 word (multi-spin coding,
Jacobs and Rebbi, J. Comput. Phys. 41 (1981) 203), mask lanes 0..n-1 with
first_lanes, pick each lane's bond or walker by split_lanes from random bit
planes, and read their 0/1 results from counts of set bits; the absorbing
ones hand lockstep words, not replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; load it with sepsim, not on the first draw

from .errors import NumericError, ResourceError, ValidationError

_MASK64 = (1 << 64) - 1

# Most rounds any clocked loop may run: the cap of a lockstep run (on moves
# where a round takes several), the largest mean round count poisson_rounds
# accepts, and the most Euler steps a moment integration takes.
ROUND_CAP = 5_000_000

# Most replicas a replica sampler holds at once. The aux walk holds about 13
# bytes per walker in a round (a coin word, a return count, a position), so
# this is about 1.3 GB there; the defaults of 10^6 replicas stay well inside.
MAX_REPLICAS = 10**8

# Largest accepted relative residual of a checked identity or a certified exact vector.
MAX_RESIDUAL = 1e-10

# A word of the bit-sliced samplers with every lane set: bit r of word w is
# replica 64w+r.
ALL_LANES = np.uint64(2**64 - 1)

# A point set is a strictly increasing tuple of site indices.
PointSet = tuple[int, ...]


@dataclass(frozen=True)
class ModelParams:
    """Global model parameters: bulk size and base RNG seed."""

    size: int
    seed: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValidationError(f"size must be >= 1, got {self.size}")

    def stream(self, stream_id: int = 0) -> np.random.Generator:
        """A fresh generator keyed by (seed, stream_id): equal keys draw equal sequences.

        A sampler consumes the generator it is given; repeating a run takes a new one.
        """
        ss = np.random.SeedSequence(
            entropy=self.seed & _MASK64, spawn_key=(stream_id & _MASK64,)
        )
        return np.random.Generator(np.random.PCG64(ss))


def check_replicas(n: int, rows: int = 0, mean: float = 0.0) -> None:
    """Refuse a replica count below 1 or above MAX_REPLICAS, before any draw.

    A bit-lane sampler passes the rows of words it holds per 64 replicas, a
    bit each per replica; more than 32 MAX_REPLICAS replica-rows (400 MB of
    words, and twice that for the forward scratch) are refused too. A timed
    run passes its mean round count per replica, refused above ROUND_CAP.
    """
    if n < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n}")
    if n > MAX_REPLICAS:
        raise ResourceError(f"{n} replicas asked for, cap is {MAX_REPLICAS:.0e}")
    if n * rows > 32 * MAX_REPLICAS:
        raise ResourceError(
            f"{n} replicas of {rows} bit rows asked for,"
            f" cap is {32 * MAX_REPLICAS:.1e} replica-rows"
        )
    if mean > ROUND_CAP:
        raise ResourceError(f"{mean:.3g} rounds per replica expected, cap is {ROUND_CAP} rounds")


def mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error; the error is NaN below two values."""
    n = len(vals)
    est = float(vals.mean())
    if n < 2:
        return est, math.nan
    return est, float(vals.std(ddof=1) / math.sqrt(n))


def count_mean_stderr(c, n: int):
    """mean_stderr of c ones and n - c zeros: c/n and sqrt(c (n - c) / (n - 1)) / n.

    c is a count or an array of counts; the errors are NaN when n < 2.
    """
    se = np.sqrt(c * (n - c) / (n - 1)) / n if n > 1 else c * math.nan
    return c / n, se


def lane_mean_stderr(words: np.ndarray, n: int) -> tuple[float, float]:
    """mean_stderr of the 0/1 values of replicas 0..n-1 held in uint64 words."""
    c = int(np.bitwise_count(words & first_lanes(n, len(words))).sum())
    mean, se = count_mean_stderr(c, n)
    return mean, float(se)


def first_lanes(n: int, n_words: int) -> np.ndarray:
    """(n_words,) uint64 words with lanes 0..n-1 set, n <= 64 n_words."""
    words = np.zeros(n_words, dtype=np.uint64)
    full, rest = divmod(n, 64)
    words[:full] = ALL_LANES
    if rest:
        words[full] = (1 << rest) - 1
    return words


def split_lanes(masks: np.ndarray, planes: np.ndarray) -> None:
    """Split the lanes of masks[0] by the values that the bit planes spell, in place.

    Plane l holds bit l of each lane's value, and 2^len(planes) >= len(masks).
    Afterwards row v of masks holds the lanes of the old masks[0] whose value
    is v; a lane whose value is len(masks) or more is in no row.
    """
    filled = 1
    for plane in planes:  # rows past len(masks) - 1 are only cut at the last plane
        cut = min(filled, len(masks) - filled)
        np.bitwise_and(masks[:cut], plane, out=masks[filled : filled + cut])
        masks[:filled] &= ~plane
        filled += cut


def check_residual(what: str, residual: float, bound: float) -> None:
    """Raise NumericError unless residual <= bound; a NaN residual fails too."""
    if not residual <= bound:
        raise NumericError(f"{what} residual {residual:.3e} exceeds {bound:.0e}")


def poisson_rounds(gen: np.random.Generator, mean: float, n: int) -> np.ndarray:
    """First open replica of each round of a timed run of n replicas.

    Replica r runs for the r-th smallest of n Poisson(mean) round counts, all
    drawn as one multinomial over mean +- (40 sqrt(mean) + 40), past which
    every weight underflows. The replicas open in round j are then a suffix,
    and entry j is its first one: the number of counts at most j. There is
    one entry per round up to the largest count; a mean above ROUND_CAP is
    refused before any draw, by check_replicas.
    """
    check_replicas(n, mean=mean)
    if mean == 0:
        return np.zeros(0, dtype=np.int64)
    half = 40 * math.sqrt(mean) + 40
    values = np.arange(max(0, math.floor(mean - half)), math.ceil(mean + half) + 1)
    logw = np.cumsum(np.log(mean / np.maximum(values, 1)))  # log p(v) + constant
    w = np.exp(logw - logw.max())
    counts = gen.multinomial(n, w / w.sum())
    last = values[np.flatnonzero(counts)[-1]]  # the largest round count
    return np.concatenate((np.zeros(values[0], dtype=np.int64), np.cumsum(counts)))[:last]


def timed_rounds(
    gen: np.random.Generator, mean: float, n: int, n_planes: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Rounds of a timed run of n replicas held in uint64 lanes.

    Each round is the first word w with an open lane, the open-lane words
    from w on and (n_planes, ceil(n/64) - w) random bit planes; padding lanes
    past n-1 are open too. The round counts are drawn on the call, by
    poisson_rounds(gen, mean, n), so a mean past ROUND_CAP is refused before
    the caller allocates its lanes; each round's planes are drawn, as
    gen.bit_generator.random_raw, when the round is reached.
    """
    n_words = -(-n // 64)

    def round_(first: int) -> tuple[int, np.ndarray, np.ndarray]:
        w = first >> 6
        planes = gen.bit_generator.random_raw((n_planes, n_words - w))
        return w, ~first_lanes(first & 63, n_words - w), planes

    # Python ints: first_lanes's 1 << 63 would overflow as a numpy int64
    return map(round_, poisson_rounds(gen, mean, n).tolist())


def lockstep(n_open: int, step: Callable[[int], int]) -> None:
    """Call step(n_open) round by round until no row is open.

    Rows 0..n_open-1 are the open ones. step moves each of them once or more,
    closes those absorbed or whose remaining success the caller scores in
    closed form, packs the rows still open at the front in their order, and
    returns how many they are. Rows still open after ROUND_CAP rounds raise
    NumericError.
    """
    for _ in range(ROUND_CAP):
        if not n_open:
            return
        n_open = step(n_open)
    if n_open:
        raise NumericError(f"{n_open} rows still open after {ROUND_CAP} rounds")


@dataclass(frozen=True)
class Configuration:
    """Occupancies of sites 0..S+1 with the reservoir values pinned."""

    occupancy: tuple[int, ...]

    def __post_init__(self) -> None:
        occ = self.occupancy
        if len(occ) < 3:
            raise ValidationError("configuration needs at least one bulk site")
        if any(v not in (0, 1) for v in occ):
            raise ValidationError("occupancies must be 0 or 1")
        if occ[0] != 0:
            raise ValidationError("site 0 is pinned empty")
        if occ[-1] != 1:
            raise ValidationError("site S+1 is pinned occupied")

    @property
    def size(self) -> int:
        return len(self.occupancy) - 2

    @classmethod
    def from_interior(cls, interior: Sequence[int]) -> "Configuration":
        return cls((0, *interior, 1))

    @classmethod
    def from_interior_string(cls, bits: str) -> "Configuration":
        """Bulk occupancies written left to right, site 1 first."""
        if not set(bits) <= {"0", "1"}:
            raise ValidationError(f"occupancy string must be 0s and 1s, got {bits!r}")
        return cls.from_interior([int(c) for c in bits])

    def interior(self) -> tuple[int, ...]:
        return self.occupancy[1:-1]

    def interior_string(self) -> str:
        return "".join(str(v) for v in self.interior())

    def as_array(self) -> np.ndarray:
        return np.array(self.occupancy, dtype=np.uint8)


def default_initial_configuration(params: ModelParams) -> Configuration:
    """Step profile used when no start is given: sites 1..ceil(S/2) occupied.

    The step faces against the stationary gradient, which makes it a useful
    deterministic start for relaxation and duality checks.
    """
    s = params.size
    half = (s + 1) // 2
    return Configuration.from_interior([1 if i <= half else 0 for i in range(1, s + 1)])


def validate_point_set(
    points: Iterable[int], size: int, *, interior_only: bool = False
) -> PointSet:
    """Check a point set is nonempty, strictly increasing and in range."""
    pts = tuple(int(p) for p in points)
    if not pts:
        raise ValidationError("point set must be nonempty")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValidationError(f"points must be strictly increasing, got {pts}")
    lo, hi = (1, size) if interior_only else (0, size + 1)
    if pts[0] < lo or pts[-1] > hi:
        raise ValidationError(f"points must lie in [{lo}, {hi}], got {pts}")
    return pts

