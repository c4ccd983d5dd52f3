"""Dual description: k absorbing walkers instead of the full occupation field.

The occupation moment of k sites evolves like k exclusion walkers run
backwards: each walker hops symmetrically on 1..S, walkers never share a bulk
site, any walker stepping onto site 0 kills the whole family, and any walker
reaching site S+1 freezes there forever (frozen walkers stop excluding). The
family is eventually absorbed with every walker frozen (value 1) or dead
(value 0), so the stationary moment of the starting sites is exactly the
probability that all walkers freeze.

For k = 2 that probability solves a harmonic system on the triangle
x < y with the one-walker ruin line x/(S+1) as its boundary data. Its
solution is the closed form (Spohn, J. Phys. A 16 (1983) 4275)

    m2(x, y) = xy/(S+1)^2 - x(S+1-y)/(S(S+1)^2) = x(y-1)/(S(S+1)),

which also takes the boundary values m2(0, y) = 0 and m2(x, S+1) = x/(S+1),
so the pair value costs O(1) at any size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    Configuration,
    ModelParams,
    PointSet,
    RngStream,
    as_generator,
    mean_stderr,
    validate_point_set,
)
from .errors import NumericError, ValidationError

_JUMP_CAP = 1_000_000_000
_ROUND_CAP = 5_000_000


class DualResult(enum.Enum):
    DIED = "died"
    ALL_STUCK = "all_stuck"


@dataclass(frozen=True)
class DualState:
    """Free walker positions (sorted), count of frozen walkers, death flag."""

    free: tuple[int, ...]
    stuck_count: int
    dead: bool


@dataclass(frozen=True)
class DualOutcome:
    result: DualResult
    meeting_count: int
    total_jumps: int
    final: DualState


def one_particle_success(params: ModelParams, x: int) -> float:
    """Ruin probability of a single walker: reach S+1 before 0 from x."""
    if not 0 <= x <= params.size + 1:
        raise ValidationError(f"position must lie in [0, {params.size + 1}], got {x}")
    return x / (params.size + 1)


def simulate_dual(
    params: ModelParams,
    initial: PointSet,
    rng: RngStream | np.random.Generator,
) -> DualOutcome:
    """Run one family to absorption on the embedded jump chain.

    Only state-changing moves are enumerated: each free walker can hop to an
    empty neighbour site, die off the left end, or freeze off the right end,
    all with equal weight. For two walkers the number of entries into
    distance 1 (while both are free) is recorded.
    """
    s = params.size
    free = list(validate_point_set(initial, s, interior_only=True))
    k = len(free)
    gen = as_generator(rng)
    stuck = 0
    jumps = 0
    meetings = 0
    pair = k == 2
    if pair and free[1] - free[0] == 1:
        meetings = 1
    while free:
        moves: list[tuple[str, int]] = []
        last = len(free) - 1
        for i, p in enumerate(free):
            if p == 1:
                moves.append(("die", i))
            elif i == 0 or free[i - 1] != p - 1:
                moves.append(("left", i))
            if p == s:
                moves.append(("stick", i))
            elif i == last or free[i + 1] != p + 1:
                moves.append(("right", i))
        kind, i = moves[gen.integers(0, len(moves))]
        jumps += 1
        if jumps > _JUMP_CAP:
            raise NumericError(f"dual walk exceeded {_JUMP_CAP} jumps without absorbing")
        if kind == "die":
            return DualOutcome(
                DualResult.DIED,
                meetings,
                jumps,
                DualState(tuple(free), stuck, True),
            )
        if kind == "stick":
            free.pop(i)
            stuck += 1
            pair = False
            continue
        was_adjacent = pair and free[1] - free[0] == 1
        free[i] += 1 if kind == "right" else -1
        if pair and not was_adjacent and free[1] - free[0] == 1:
            meetings += 1
    return DualOutcome(
        DualResult.ALL_STUCK, meetings, jumps, DualState((), stuck, False)
    )


def _move_batch(
    positions: np.ndarray,
    rows: np.ndarray,
    p: np.ndarray,
    sign: np.ndarray,
    size: int,
) -> np.ndarray:
    """Apply one uniformized move per row in place; returns the new-death mask.

    Frozen walkers (at S+1) and hops into an occupied neighbour are no-ops,
    which keeps the total event rate state-independent.
    """
    k = positions.shape[1]
    pos = positions[rows, p]
    frozen = pos == size + 1
    tgt = pos + sign
    die = (~frozen) & (sign < 0) & (pos == 1)
    left_nb = np.where(p > 0, positions[rows, np.clip(p - 1, 0, k - 1)], -5)
    right_nb = np.where(p < k - 1, positions[rows, np.clip(p + 1, 0, k - 1)], -5)
    blocked = np.where(sign < 0, left_nb == tgt, (tgt <= size) & (right_nb == tgt))
    movers = (~frozen) & (~die) & (~blocked)
    positions[rows[movers], p[movers]] = tgt[movers]
    return die


def estimate_absorption(
    params: ModelParams,
    initial: PointSet,
    n_replicas: int,
    rng: RngStream | np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo probability that a family freezes completely.

    Vectorized over replicas on the uniformized clock (no-op events included;
    the absorbed-state law is unchanged by that choice).
    """
    s = params.size
    pts = validate_point_set(initial, s, interior_only=True)
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    k = len(pts)
    gen = as_generator(rng)
    positions = np.tile(np.array(pts, dtype=np.int64), (n_replicas, 1))
    dead = np.zeros(n_replicas, dtype=bool)
    idx = np.arange(n_replicas)
    rounds = 0
    while idx.size:
        rounds += 1
        if rounds > _ROUND_CAP:
            raise NumericError(
                f"absorption sampling exceeded {_ROUND_CAP} rounds, {idx.size} replicas open"
            )
        a = idx.size
        p = gen.integers(0, k, size=a)
        sign = gen.integers(0, 2, size=a) * 2 - 1
        die = _move_batch(positions, idx, p, sign, s)
        if die.any():
            dead[idx[die]] = True
        finished = dead[idx] | (positions[idx, 0] == s + 1)
        idx = idx[~finished]
    success = (~dead) & (positions[:, 0] == s + 1)
    return mean_stderr(success.astype(np.float64))


def transient_dual_moment(
    params: ModelParams,
    initial_points: PointSet,
    initial_env: Configuration,
    t: float,
    n_replicas: int,
    rng: RngStream | np.random.Generator,
) -> tuple[float, float]:
    """Expected product of the start field over walker positions at time t.

    Dead families contribute 0, frozen walkers contribute the pinned value 1.
    Matches the forward transient moment of initial_points when the forward
    chain starts from initial_env.
    """
    s = params.size
    pts = validate_point_set(initial_points, s, interior_only=True)
    if initial_env.size != s:
        raise ValidationError("environment configuration size does not match params")
    if not t >= 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    k = len(pts)
    env = initial_env.as_array().astype(np.float64)
    if t == 0:
        value = float(env[list(pts)].prod())
        return value, 0.0
    gen = as_generator(rng)
    lam_total = 2.0 * params.rate * k
    counts = np.sort(gen.poisson(lam_total * t, size=n_replicas))
    positions = np.tile(np.array(pts, dtype=np.int64), (n_replicas, 1))
    dead = np.zeros(n_replicas, dtype=bool)
    max_events = int(counts[-1])
    for j in range(max_events):
        active = n_replicas - int(np.searchsorted(counts, j, side="right"))
        if active == 0:
            break
        rows = np.arange(n_replicas - active, n_replicas)
        rows = rows[~dead[rows]]
        if rows.size == 0:
            continue
        a = rows.size
        p = gen.integers(0, k, size=a)
        sign = gen.integers(0, 2, size=a) * 2 - 1
        die = _move_batch(positions, rows, p, sign, s)
        if die.any():
            dead[rows[die]] = True
    return mean_stderr(np.where(dead, 0.0, env[positions].prod(axis=1)))


@dataclass(frozen=True)
class PairAbsorption:
    """Freeze-both probability for every ordered pair of start sites."""

    size: int

    def value(self, x: int, y: int) -> float:
        s = self.size
        if not (0 <= x < y <= s + 1):
            raise ValidationError(f"need 0 <= x < y <= {s + 1}, got ({x}, {y})")
        # integer numerator and denominator: one correctly rounded division
        return x * (y - 1) / (s * (s + 1))

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        for x in range(1, self.size):
            for y in range(x + 1, self.size + 1):
                yield x, y, self.value(x, y)


def pair_absorption_exact(params: ModelParams) -> PairAbsorption:
    """Exact freeze-both probabilities for all pairs 1 <= x < y <= S."""
    if params.size < 2:
        raise ValidationError("pair absorption needs size >= 2")
    return PairAbsorption(size=params.size)
