"""Monte Carlo simulation of the forward chain.

Both engines use a uniformized bond clock: events arrive at a constant total
rate of at least S+1, each event fires a uniformly random bond or idles, every
bond rings at rate 1 (the time unit), and firings of balanced bonds do
nothing. Over a time interval a replica therefore takes a Poisson number of
independent uniform draws, so replicas can advance in lock step.

* Stationary sampling is bit-sliced. A block of up to BLOCK_WIDTH replicas is
  one Python int with one W-bit field per site 0..S+1; bit r of field k is
  replica r's occupancy of site k. In each interval (the burn-in, then each
  sample interval) replica r draws its Poisson quota at rate S+1 and its bonds
  from its own stream, and the block runs as many rounds as the largest quota.
  In one round every replica still inside its quota fires one bond; the whole
  round costs a handful of big-int operations. Round masks are built in numpy
  one chunk of rounds at a time, so memory stays bounded however long the run.
* Transient moments are bit-sliced in numpy words: bit r of word w in row k
  is site k of replica 64w+r. On core.lockstep the clock runs at 2^L >= S+1,
  L = S.bit_length(); per round, L random bit planes spell a value per lane,
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
from typing import Iterator

import numpy as np

from .core import (
    Configuration,
    ModelParams,
    PointSet,
    RngStream,
    default_initial_configuration,
    lockstep,
    mean_stderr,
    poisson_quotas,
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
_QUOTA_BATCH = 256  # sample intervals whose firing counts are drawn at once
_ALL_LANES = np.uint64(2**64 - 1)


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


def _unpack(occ: int, n_sites: int, width: int) -> np.ndarray:
    """Inverse of _pack: the (n_sites, W) 0/1 array of a block state."""
    n_bits = n_sites * width
    raw = np.frombuffer(occ.to_bytes((n_bits + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n_bits, bitorder="little").reshape(n_sites, width)


def _masks(bonds: np.ndarray, size: int) -> list[int]:
    """Round masks from an (n_rounds, W) array of fired bonds.

    Mask bit b*W + r is set when replica r fires bond b in that round; a value
    outside 0..S leaves the replica idle for the round.
    """
    n, width = bonds.shape
    hit = bonds[:, None, :] == np.arange(size + 1, dtype=bonds.dtype)[None, :, None]
    packed = np.packbits(hit.reshape(n, (size + 1) * width), axis=1, bitorder="little")
    row = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i : i + row], "little") for i in range(0, n * row, row)]


def _fire(occ: int, masks: list[int], width: int, bulk: int) -> tuple[int, int]:
    """Apply rounds of firings to a block state; also count state changes.

    A fired bond whose endpoints differ flips both endpoint fields. Each
    replica fires at most one bond per round, so the flips of one round touch
    disjoint bits and apply at once; `bulk` keeps the reservoir fields pinned.
    """
    events = 0
    for m in masks:
        t = (occ ^ (occ >> width)) & m
        events += t.bit_count()
        occ ^= (t ^ (t << width)) & bulk
    return occ, events


def _interval_quotas(
    gens: list[np.random.Generator], total_rate: float, schedule: SimSchedule
) -> Iterator[np.ndarray]:
    """Per-replica firing counts of the burn-in, then of each sample interval."""
    yield np.array([g.poisson(total_rate * schedule.burn_in) for g in gens])
    lam = total_rate * schedule.sample_interval
    left = schedule.n_samples - 1
    while left:
        k = min(left, _QUOTA_BATCH)
        yield from np.stack([g.poisson(lam, size=k) for g in gens], axis=1)
        left -= k


def _round_chunks(
    quotas: Iterator[np.ndarray], chunk: int
) -> Iterator[list[tuple[np.ndarray, int, int, bool]]]:
    """Group the intervals' rounds into chunks of at most `chunk` rounds.

    An interval lasts as many rounds as its largest quota. Each piece is
    (quotas, first round within the interval, rounds, ends the interval).
    """
    pieces: list[tuple[np.ndarray, int, int, bool]] = []
    n = 0
    for q in quotas:
        total = int(q.max())
        first = 0
        while True:
            length = min(total - first, chunk - n)
            pieces.append((q, first, length, first + length == total))
            first += length
            n += length
            if n == chunk:
                yield pieces
                pieces, n = [], 0
            if first == total:
                break
    if pieces:
        yield pieces


def _run_block(
    args: tuple[ModelParams, tuple[PointSet, ...], SimSchedule, RngStream, int, int],
) -> tuple[np.ndarray, int, int]:
    """Run replicas lo..hi-1 in lockstep; per-replica set means, events, rounds."""
    params, point_lists, schedule, base, lo, hi = args
    s, width = params.size, hi - lo
    gens = [base.offset(r).generator() for r in range(lo, hi)]
    start = default_initial_configuration(params).as_array()
    occ = _pack(np.repeat(start[:, None], width, axis=1))
    bulk = ((1 << (s * width)) - 1) << width
    longest = max(len(pts) for pts in point_lists)
    # Pad each set with its last point; the AND over a set ignores repeats.
    index = np.array([pts + pts[-1:] * (longest - len(pts)) for pts in point_lists])
    hits = np.zeros((len(point_lists), width), dtype=np.int64)
    chunk = max(1, _CHUNK_BYTES // (width * (s + 1 + _ROUND_WORK_BYTES)))
    quotas = _interval_quotas(gens, s + 1, schedule)
    events = rounds = 0
    for pieces in _round_chunks(quotas, chunk):
        lengths = [length for _, _, length, _ in pieces]
        step = np.concatenate([np.arange(f, f + n) for _, f, n, _ in pieces])
        quota = np.repeat(np.array([q for q, _, _, _ in pieces]), lengths, axis=0)
        fires = step[:, None] < quota
        # Narrow and round-major, so that _masks compares contiguous rows.
        bonds = np.full((len(step), width), s + 1, dtype=np.min_scalar_type(s + 1))
        bonds.T[fires.T] = np.concatenate(
            [g.integers(0, s + 1, size=k) for g, k in zip(gens, fires.sum(axis=0))]
        )
        masks = _masks(bonds, s)
        done = 0
        for _, _, length, ends in pieces:
            occ, changed = _fire(occ, masks[done : done + length], width, bulk)
            events += changed
            done += length
            if ends:
                hits += _unpack(occ, s + 2, width)[index].all(axis=1)
        rounds += len(step)
    return hits.T / schedule.n_samples, events, rounds


@dataclass(frozen=True)
class StationaryEstimate:
    """Pooled moment estimates with their between-replica standard errors.

    total_events counts state-changing firings. rounds counts lockstep rounds
    summed over blocks, idle padding included; with one block (n_replicas <=
    BLOCK_WIDTH), total_events / (rounds * n_replicas) is the share of
    replica-rounds that changed the state.
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
    quotas = poisson_quotas(gen, (1 << n_planes) * t, n_replicas)
    words = np.where(initial.as_array() == 1, _ALL_LANES, np.uint64(0))
    occ = np.repeat(words[:, None], -(-n_replicas // 64), axis=1)
    scratch = np.empty((2, s + 1, occ.shape[1]), dtype=np.uint64)

    def step(rows: np.ndarray) -> None:
        first = int(rows[0])
        planes = gen.bit_generator.random_raw((n_planes, occ.shape[1] - (first >> 6)))
        _fire_round(occ, first, planes, scratch)

    lockstep(n_replicas, step, quotas)
    hits = np.bitwise_and.reduce(occ[list(pts)], axis=0).astype("<u8")
    bits = np.unpackbits(hits.view(np.uint8), count=n_replicas, bitorder="little")
    return mean_stderr(bits.astype(np.float64))


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
    masks[0] = _ALL_LANES
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
