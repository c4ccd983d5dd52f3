"""Monte Carlo simulation of the forward chain.

Both engines use a uniformized bond clock: events arrive at a constant total
rate of at least S+1, each event fires a uniformly random bond or idles, every
bond rings at rate 1 (the time unit), and firings of balanced bonds do
nothing. Over a time interval a replica therefore takes a Poisson number of
independent uniform draws, so replicas can advance in lock step.

* Stationary sampling is bit-sliced. A block of up to BLOCK_WIDTH replicas is
  one Python int with one W-bit field per site 0..S+1; bit r of field k is
  replica r's occupancy of site k. Every replica fires one uniform bond in
  every round, a handful of big-int operations for the whole block, and is
  sampled at its own rounds: after Poisson((S+1) burn_in) firings, then after
  Poisson((S+1) sample_interval) more each time. Nothing pads a block to its
  slowest replica. Bonds, round masks and sample rounds are drawn one chunk
  of rounds at a time, so memory stays bounded however long the run.
* Transient moments are bit-sliced in numpy words: bit r of word w in row k
  is site k of replica 64w+r. The clock runs at 2^L >= S+1, L =
  S.bit_length(), and each round moves the lanes from its first open replica
  of core.poisson_rounds on; L random bit planes spell a value per lane,
  which fires that bond if it is at most S and idles otherwise. Against a
  sampler moving one byte row per replica it is no slower up to S = 511, and
  1.5-2 times slower at S = 512 (whose clock idles half the time) to 1000.

Only state-changing firings are counted as events. Stationary estimates pool
replica means and report the between-replica standard error, which stays
honest when consecutive samples are correlated. A stationary schedule that
expects more than MAX_FIRINGS firings per replica is refused before anything
is drawn.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (
    ALL_LANES,
    Configuration,
    ModelParams,
    PointSet,
    RngStream,
    default_initial_configuration,
    lane_mean_stderr,
    mean_stderr,
    poisson_rounds,
    validate_point_set,
)
from .errors import ResourceError, ValidationError

DEFAULT_BURN_IN_FACTOR = 10.0  # multiples of size^2, the diffusive relaxation scale
DEFAULT_INTERVAL_DIVISOR = 25.0  # sample every size^2 / 25 time units

# Replicas per lockstep block. Blocks are fixed and workers take whole blocks,
# so results do not depend on the worker count.
BLOCK_WIDTH = 64

# Expected firings per replica that a stationary run may ask for. The default
# schedule at S=1000 asks for about 1.8e10.
MAX_FIRINGS = 10**11

_CHUNK_BYTES = 1 << 20  # working memory for the round masks of one chunk
_ROUND_WORK_BYTES = 40  # scratch per replica-round beside its S+1 mask bytes
_QUOTA_BATCH = 256  # sample rounds a lane draws at once


@dataclass(frozen=True)
class SimSchedule:
    """Sampling plan for one stationary estimate."""

    burn_in: float
    n_samples: int
    sample_interval: float
    n_replicas: int

    def __post_init__(self) -> None:
        if not (self.burn_in >= 0 and math.isfinite(self.burn_in)):
            raise ValidationError(f"burn_in must be finite and >= 0, got {self.burn_in}")
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if not (self.sample_interval > 0 and math.isfinite(self.sample_interval)):
            raise ValidationError(
                f"sample_interval must be finite and positive, got {self.sample_interval}"
            )
        if self.n_replicas < 1:
            raise ValidationError(f"n_replicas must be >= 1, got {self.n_replicas}")


def default_burn_in(params: ModelParams) -> float:
    return DEFAULT_BURN_IN_FACTOR * params.size**2


def default_schedule(
    params: ModelParams,
    n_replicas: int = 32,
    n_samples: int = 1000,
    burn_in: float | None = None,
    sample_interval: float | None = None,
) -> SimSchedule:
    if burn_in is None:
        burn_in = default_burn_in(params)
    if sample_interval is None:
        sample_interval = max(1.0, params.size**2 / DEFAULT_INTERVAL_DIVISOR)
    return SimSchedule(
        burn_in=burn_in,
        n_samples=n_samples,
        sample_interval=sample_interval,
        n_replicas=n_replicas,
    )


def _pack(bits: np.ndarray) -> int:
    """Block state from an (S+2, W) 0/1 array: bit k*W + r is site k of replica r."""
    raw = np.packbits(bits.astype(bool).ravel(), bitorder="little")
    return int.from_bytes(raw.tobytes(), "little")


def _unpack(states: list[int], n_sites: int, width: int) -> np.ndarray:
    """Inverse of _pack for many states at once: an (n, n_sites, W) 0/1 array."""
    n, size = len(states), (n_sites * width + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in states), np.uint8)
    bits = np.unpackbits(raw.reshape(n, size), axis=1, bitorder="little")
    return bits[:, : n_sites * width].reshape(n, n_sites, width)


def _masks(bonds: np.ndarray, scratch: np.ndarray, live: np.ndarray | None) -> list[int]:
    """Round masks from an (n_rounds, W) array of fired bonds in 0..S.

    Mask bit b*W + r is set when replica r fires bond b in that round, unless
    live[round, r] is False and the replica idles. Each round is a one-hot
    scatter of W bits into `scratch`, a zeroed bool array with a row of whole
    bytes per round, which is zeroed again so that chunks can share it.
    """
    n, width = bonds.shape
    flat, bits = scratch.reshape(-1), scratch.shape[1]
    at = np.multiply(bonds, width, dtype=np.intp)
    at += np.arange(width)
    at += np.arange(0, n * bits, bits)[:, None]
    flat[at] = True if live is None else live
    rows = np.packbits(flat[: n * bits], bitorder="little").view(f"V{bits // 8}").tolist()
    flat[at] = False
    return list(map(int.from_bytes, rows, repeat("little")))


def _fire(
    occ: int, masks: list[int], at: list[int], width: int, bulk: int
) -> tuple[int, int, list[int]]:
    """Apply rounds of firings to a block state; count state changes, keep snapshots.

    A fired bond whose endpoints differ flips both endpoint fields. Each
    replica fires at most one bond per round, so the flips of one round touch
    disjoint bits and apply at once; `bulk` keeps the reservoir fields pinned.
    The state before masks[p] is kept for each p in the ascending, distinct
    `at`, and p = len(masks) keeps the final state.
    """
    events = done = 0
    snaps = []
    for p in [*at, len(masks)]:
        for m in masks[done:p]:
            t = (occ ^ (occ >> width)) & m
            events += t.bit_count()
            occ ^= (t ^ (t << width)) & bulk
        snaps.append(occ)
        done = p
    return occ, events, snaps[:-1]


def _run_block(
    args: tuple[ModelParams, tuple[PointSet, ...], SimSchedule, RngStream, int, int],
) -> tuple[np.ndarray, int, int]:
    """Run replicas lo..hi-1 in lockstep; per-replica set means, events, rounds.

    Lane r fires one bond per round up to its last sample; its k-th sample is
    its state after c[r, k] rounds, a sum of k+1 Poisson counts. It draws its
    next _QUOTA_BATCH sample rounds once a chunk reaches its latest one, so
    few samples wait, keyed round*W + lane with a count (two samples at one
    round count twice). Bonds and sample rounds come from rng.offset(lo).
    """
    params, point_lists, schedule, base, lo, hi = args
    s, width, n_samples = params.size, hi - lo, schedule.n_samples
    gen = base.offset(lo).generator()
    start = default_initial_configuration(params).as_array()
    occ = _pack(np.repeat(start[:, None], width, axis=1))
    bulk = ((1 << (s * width)) - 1) << width
    longest = max(len(pts) for pts in point_lists)
    # Pad each set with its last point; the AND over a set ignores repeats.
    index = np.array([pts + pts[-1:] * (longest - len(pts)) for pts in point_lists])
    hits = np.zeros((width, len(point_lists)), dtype=np.int64)
    chunk = max(1, _CHUNK_BYTES // (width * (s + 1 + _ROUND_WORK_BYTES)))
    scratch = np.zeros((chunk, -(-(s + 1) * width // 8) * 8), dtype=bool)
    ahead = gen.poisson((s + 1) * schedule.burn_in, size=width)  # latest drawn round
    left = np.full(width, n_samples - 1)  # sample rounds each lane has yet to draw
    keys, mult = ahead * width + np.arange(width), np.ones(width, dtype=np.int64)
    events = first = 0
    while True:
        stop = first + chunk
        while True:  # a lane may add samples at its latest round: draw past stop
            lag = np.flatnonzero((ahead <= stop) & (left > 0))
            if not lag.size:
                break
            steps = gen.poisson((s + 1) * schedule.sample_interval, (_QUOTA_BATCH, lag.size))
            rounds = ahead[lag] + np.cumsum(steps, axis=0)
            took = np.minimum(left[lag], _QUOTA_BATCH)
            # Lane by lane the new keys ascend; merge each run of equal ones.
            new = (rounds * width + lag).T[np.arange(_QUOTA_BATCH) < took[:, None]]
            run = np.flatnonzero(np.diff(new, prepend=-1))
            keys = np.concatenate([keys, new[run]])
            mult = np.concatenate([mult, np.diff(run, append=new.size)])
            ahead[lag] = rounds[took - 1, np.arange(lag.size)]
            left[lag] -= took
        done = not left.any()
        if done:
            stop = min(stop, int(ahead.max()))
        n = stop - first
        due = keys <= stop * width + width - 1
        pos, lane = np.divmod(keys[due] - first * width, width)
        weight, keys, mult = mult[due, None], keys[~due], mult[~due]
        at = np.flatnonzero(np.bincount(pos, minlength=n + 1))
        # A lane past its last sample idles.
        live = first + np.arange(n)[:, None] < ahead if ahead.min() < stop else None
        bonds = gen.integers(0, s + 1, size=(n, width), dtype=np.min_scalar_type(s))
        masks = _masks(bonds, scratch, live)
        occ, changed, snaps = _fire(occ, masks, at.tolist(), width, bulk)
        events += changed
        if snaps:
            seen = _unpack(snaps, s + 2, width)[np.searchsorted(at, pos), :, lane]
            np.add.at(hits, lane, seen[:, index].all(axis=2) * weight)
        if done and stop == ahead.max():
            return hits / n_samples, events, stop
        first = stop


@dataclass(frozen=True)
class StationaryEstimate:
    """Pooled moment estimates with their between-replica standard errors.

    total_events counts state-changing firings. rounds sums over blocks the
    rounds each block ran, which is its last sample round. A replica fires in
    every round up to its own last sample and idles after it, so total_events
    is at most rounds * n_replicas.
    """

    point_sets: tuple[PointSet, ...]
    estimates: np.ndarray
    stderrs: np.ndarray
    total_events: int
    n_replicas: int
    rounds: int


def estimate_stationary_moments(
    params: ModelParams,
    point_sets: list[PointSet] | tuple[PointSet, ...],
    schedule: SimSchedule,
    rng: RngStream,
    n_workers: int = 1,
) -> StationaryEstimate:
    """Estimate several occupation moments from the same trajectories.

    Replica r draws from rng.offset(r), and replicas are grouped into fixed
    blocks of BLOCK_WIDTH that workers take whole, so the result is
    independent of n_workers and reproducible bit for bit.
    """
    sets = tuple(
        validate_point_set(pts, params.size, interior_only=True) for pts in point_sets
    )
    if not sets:
        raise ValidationError("need at least one point set")
    span = schedule.burn_in + (schedule.n_samples - 1) * schedule.sample_interval
    firings = (params.size + 1) * span
    if firings > MAX_FIRINGS:
        raise ResourceError(
            f"schedule expects {firings:.3g} firings per replica, cap is {MAX_FIRINGS:.0e}"
        )
    reps = schedule.n_replicas
    jobs = [
        (params, sets, schedule, rng, lo, min(lo + BLOCK_WIDTH, reps))
        for lo in range(0, reps, BLOCK_WIDTH)
    ]
    if n_workers <= 1 or len(jobs) == 1:
        results = [_run_block(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            results = list(pool.map(_run_block, jobs))
    means = np.concatenate([m for m, _, _ in results])  # one row per replica
    estimates, stderrs = np.array([mean_stderr(col) for col in means.T]).T
    return StationaryEstimate(
        point_sets=sets,
        estimates=estimates,
        stderrs=stderrs,
        total_events=sum(events for _, events, _ in results),
        n_replicas=reps,
        rounds=sum(rounds for _, _, rounds in results),
    )


def transient_moment(
    params: ModelParams,
    initial: Configuration,
    t: float,
    points: PointSet,
    n_replicas: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Moment of the occupation product at a fixed time from a fixed start.

    Points may include the reservoir sites; their pinned values enter the
    product as the constants 0 and 1.
    """
    if initial.size != params.size:
        raise ValidationError("initial configuration size does not match params")
    if not (t >= 0 and math.isfinite(t)):
        raise ValidationError(f"time must be finite and >= 0, got {t}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    s = params.size
    pts = validate_point_set(points, s)
    if t == 0.0:
        value = 1.0
        for p in pts:
            value *= initial.occupancy[p]
        return value, 0.0
    gen = rng.generator()
    n_planes = s.bit_length()  # the uniformized rate 2**n_planes is at least S+1
    firsts = poisson_rounds(gen, (1 << n_planes) * t, n_replicas)
    words = np.where(initial.as_array() == 1, ALL_LANES, np.uint64(0))
    occ = np.repeat(words[:, None], -(-n_replicas // 64), axis=1)
    scratch = np.empty((2, s + 1, occ.shape[1]), dtype=np.uint64)
    for first in firsts:
        planes = gen.bit_generator.random_raw((n_planes, occ.shape[1] - (first >> 6)))
        _fire_round(occ, first, planes, scratch)
    return lane_mean_stderr(np.bitwise_and.reduce(occ[list(pts)], axis=0), n_replicas)


def _fire_round(
    occ: np.ndarray, first: int, planes: np.ndarray, scratch: np.ndarray
) -> None:
    """Fire one round in lanes first.. of an (S+2, W) uint64 occupancy array.

    Plane l holds bit l of each lane's value in 0..2^L-1, from first's word on;
    a lane fires the bond its value names and idles past S. Splitting the open
    lanes by each plane in turn leaves disjoint masks for bonds 0..S. A fired
    bond whose endpoints differ flips both. The reservoir rows are never
    written, which turns bond 0 into emptying site 1 and bond S into filling
    site S. The (2, S+1, W) scratch array spares each round large allocations.
    """
    s = occ.shape[0] - 2
    live = occ[:, first >> 6 :]
    masks, flips = scratch[:, :, first >> 6 :]
    masks[0] = ALL_LANES
    masks[0, 0] <<= np.uint64(first & 63)
    filled = 1
    for plane in planes:  # rows past S are only cut at the last plane
        cut = min(filled, s + 1 - filled)
        np.bitwise_and(masks[:cut], plane, out=masks[filled : filled + cut])
        masks[:filled] &= ~plane
        filled += cut
    np.bitwise_xor(live[:-1], live[1:], out=flips)
    flips &= masks
    live[1:-1] ^= flips[:-1]
    live[1:-1] ^= flips[1:]
