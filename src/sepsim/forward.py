"""Monte Carlo simulation of the forward chain.

Both samplers are bit-sliced in numpy words: bit r of word w in row k is
site k of lane 64w+r. A round runs on a uniformized bond clock of rate
2^L >= S+1, L = S.bit_length(): L random bit planes spell a value per lane,
which fires that bond if it is at most S and idles otherwise. Every bond
therefore rings at rate 1 (the time unit), and firings of balanced bonds do
nothing. A round costs O(S) word operations per 64 lanes, and the clock idles
a share 1 - (S+1)/2^L of the time: none at S = 2^L - 1, about half at
S = 2^(L-1).

* Stationary sampling starts n_lanes lanes from exact stationary draws
  (exact.sample_stationary) and fires ceil(2^L sample_interval) rounds in
  all of them; the interval is max(1, S^2/25) time units unless the caller
  gives one. A fixed number of uniformized jumps leaves the stationary law
  invariant, so no burn-in or clock is needed, and the run is a forward
  check of that invariance. Every lane is read at every point set after its
  last round. Lanes run CHUNK_WORDS words at a time and their starts are
  drawn _DRAW_LANES at a time, so memory is bounded however many lanes a
  run asks for.
* Transient moments run every replica from one fixed start for its own
  Poisson number of rounds: each round of core.timed_rounds moves its open
  lanes. Its S+2 occupancy rows and 2(S+1) scratch rows hold a bit per
  replica each, so core.check_replicas caps replicas times S+2 and mean rounds.

Only state-changing firings are counted as events. The lanes of a stationary
run are independent, so each estimate is a share of lanes with the binomial
standard error of core.count_mean_stderr. A stationary run of more than
core.ROUND_CAP rounds per lane or of more than MAX_FIRINGS lane-rounds is
refused before anything is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ALL_LANES,
    ROUND_CAP,
    Configuration,
    ModelParams,
    PointSet,
    check_replicas,
    count_mean_stderr,
    first_lanes,
    lane_mean_stderr,
    split_lanes,
    timed_rounds,
    validate_point_set,
)
from .errors import ResourceError, ValidationError
from .exact import sample_stationary

DEFAULT_INTERVAL_DIVISOR = 25.0  # sample every size^2 / 25 time units

# Lane-rounds a stationary run may ask for: lanes * rounds.
MAX_FIRINGS = 10**11

CHUNK_WORDS = 1024  # words of 64 lanes that a stationary run fires together
_DRAW_LANES = 8192  # exact starts drawn at a time


def _exact_start(size: int, n_words: int, gen: np.random.Generator) -> np.ndarray:
    """(S+2, n_words) occupancy words whose 64 n_words lanes are exact stationary draws."""
    occ = np.empty((size + 2, n_words), dtype=np.uint64)
    occ[0], occ[-1] = 0, ALL_LANES
    step = _DRAW_LANES // 64
    for w in range(0, n_words, step):
        n = min(step, n_words - w)
        bits = np.packbits(sample_stationary(size, 64 * n, gen).T, axis=1, bitorder="little")
        occ[1:-1, w : w + n] = bits.view("<u8")
    return occ


def _run_rounds(occ: np.ndarray, n_rounds: int, n_lanes: int, gen: np.random.Generator) -> int:
    """Fire n_rounds rounds in every lane of an (S+2, W) occupancy array; count changes.

    Each round draws its L bit planes as gen.bit_generator.random_raw((L, W)).
    Lanes n_lanes.. pad the last word and never fire. A lane fires at most
    one bond a round, so the OR of the flip rows counts its change.
    """
    s, width = occ.shape[0] - 2, occ.shape[1]
    n_planes = s.bit_length()
    lanes = first_lanes(n_lanes, width)
    scratch = np.empty((2, s + 1, width), dtype=np.uint64)
    flips = scratch[1]  # after a round: the fired bonds whose endpoints differed
    events = 0
    for _ in range(n_rounds):
        _fire_round(occ, lanes, gen.bit_generator.random_raw((n_planes, width)), scratch)
        events += int(np.bitwise_count(np.bitwise_or.reduce(flips, axis=0)).sum())
    return events


@dataclass(frozen=True)
class StationaryEstimate:
    """Moment estimates over n_lanes independent lanes, with their standard errors.

    total_events counts state-changing firings over all lanes, and rounds is
    the number of rounds each lane fires in its sample_interval time units,
    so total_events is at most rounds * n_lanes.
    """

    point_sets: tuple[PointSet, ...]
    estimates: np.ndarray
    stderrs: np.ndarray
    total_events: int
    n_lanes: int
    rounds: int
    sample_interval: float


def estimate_stationary_moments(
    params: ModelParams,
    point_sets: list[PointSet] | tuple[PointSet, ...],
    n_lanes: int,
    gen: np.random.Generator,
    sample_interval: float | None = None,
) -> StationaryEstimate:
    """Estimate several occupation moments from n_lanes lanes.

    Each lane runs sample_interval time units, by default max(1, S^2/25).
    All draws come from gen, chunk after chunk in lane order, so the result
    is reproducible bit for bit from a fresh generator of the same key.
    """
    if n_lanes < 1:
        raise ValidationError(f"n_lanes must be >= 1, got {n_lanes}")
    s = params.size
    if sample_interval is None:
        sample_interval = max(1.0, s**2 / DEFAULT_INTERVAL_DIVISOR)
    if not (sample_interval > 0 and math.isfinite(sample_interval)):
        raise ValidationError(
            f"sample_interval must be finite and positive, got {sample_interval}"
        )
    sets = tuple(validate_point_set(pts, s, interior_only=True) for pts in point_sets)
    if not sets:
        raise ValidationError("need at least one point set")
    rounds = math.ceil((1 << s.bit_length()) * sample_interval)
    if rounds > ROUND_CAP:
        raise ResourceError(f"run asks for {rounds} rounds per lane, cap is {ROUND_CAP}")
    if n_lanes * rounds > MAX_FIRINGS:
        raise ResourceError(
            f"run asks for {n_lanes * rounds:.3g} lane-rounds, cap is {MAX_FIRINGS:.0e}"
        )
    counts = np.zeros(len(sets))  # float64: exact up to 2^53 lanes, and c (n - c) cannot wrap
    events = 0
    for lo in range(0, n_lanes, 64 * CHUNK_WORDS):
        n = min(64 * CHUNK_WORDS, n_lanes - lo)
        occ = _exact_start(s, -(-n // 64), gen)
        events += _run_rounds(occ, rounds, n, gen)
        lanes = first_lanes(n, occ.shape[1])
        for i, pts in enumerate(sets):
            hit = np.bitwise_and.reduce(occ[list(pts)], axis=0) & lanes
            counts[i] += np.bitwise_count(hit).sum()
    estimates, stderrs = count_mean_stderr(counts, n_lanes)
    return StationaryEstimate(
        point_sets=sets,
        estimates=estimates,
        stderrs=stderrs,
        total_events=events,
        n_lanes=n_lanes,
        rounds=rounds,
        sample_interval=sample_interval,
    )


def transient_cost(size: int, t: float) -> tuple[int, float]:
    """transient_moment's S+2 rows of words per 64 replicas, and its 2^L t mean rounds."""
    if not (t >= 0 and math.isfinite(t)):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    return size + 2, (1 << size.bit_length()) * t


def transient_moment(
    params: ModelParams,
    initial: Configuration,
    t: float,
    points: PointSet,
    n_replicas: int,
    gen: np.random.Generator,
) -> tuple[float, float]:
    """Moment of the occupation product at a fixed time from a fixed start.

    Points may include the reservoir sites; their pinned values enter the
    product as the constants 0 and 1.
    """
    if initial.size != params.size:
        raise ValidationError("initial configuration size does not match params")
    s = params.size
    rows, mean = transient_cost(s, t)
    check_replicas(n_replicas, rows)
    pts = validate_point_set(points, s)
    n_planes = s.bit_length()  # the uniformized rate 2**n_planes is at least S+1
    rounds = timed_rounds(gen, mean, n_replicas, n_planes)
    words = np.where(initial.as_array() == 1, ALL_LANES, np.uint64(0))
    occ = np.repeat(words[:, None], -(-n_replicas // 64), axis=1)
    scratch = np.empty((2, s + 1, occ.shape[1]), dtype=np.uint64)
    for w, open_, planes in rounds:
        _fire_round(occ[:, w:], open_, planes, scratch[:, :, w:])
    return lane_mean_stderr(np.bitwise_and.reduce(occ[list(pts)], axis=0), n_replicas)


def _fire_round(
    occ: np.ndarray, open_: np.ndarray, planes: np.ndarray, scratch: np.ndarray
) -> None:
    """Fire one round in the open lanes of an (S+2, W) uint64 occupancy array.

    open_ holds W words of open lanes. Plane l holds bit l of each lane's
    value in 0..2^L-1; an open lane fires the bond its value names and idles
    past S, as core.split_lanes leaves disjoint masks for bonds 0..S. A fired
    bond whose endpoints differ flips both. The reservoir rows are never
    written, which turns bond 0 into emptying site 1 and bond S into filling
    site S. The (2, S+1, W) scratch array spares each round large allocations.
    """
    masks, flips = scratch
    masks[0] = open_
    split_lanes(masks, planes)
    np.bitwise_xor(occ[:-1], occ[1:], out=flips)
    flips &= masks
    occ[1:-1] ^= flips[:-1]
    occ[1:-1] ^= flips[1:]
