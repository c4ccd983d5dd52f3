"""Meeting-ladder bound relating the exclusion pair to independent walkers.

Two independent symmetric walkers started at bulk sites x < y both reach S+1
before 0 with probability xy/(S+1)^2. The exclusion pair differs from the
independent pair only while the walkers sit next to each other, so the gap
between the two success probabilities can be organized by the number of such
meetings. The pieces:

* the first-meeting kernel: the distribution of the lower position n when the
  pair first reaches distance 1. The lower walker touching 0 ends the family,
  while the upper walker freezes at S+1 and the lower walks on, so a meeting
  at (S, S+1) is possible and is recorded as n = S;
* the repeat-meeting factors: C[1] sums the kernel over interior meeting
  positions n <= S-1, and C[k] chains the kernel through the two distance-2
  restart points around each meeting. C[k] is the probability of at least k
  interior meetings before the family ends;
* the ladder: each extra required meeting costs exactly C[k]/(2(S+1)^2), so
  the success probability after k meetings is P[k] = P[0] - sum of those
  costs, and P[k] converges to the exclusion-pair value from above;
* a dominating envelope gamma_k = ((S-1)/S)^k from a reflected walk on
  [0, S]: the probability of at least k returns to 0 before reaching S. It
  bounds C[k] and gives the geometric tail estimate and the closing bound
  P[0] - P[inf] <= 1/(2(S+1)) - 1/(S+1)^2.

The kernel is found by solving one linear first-passage system for all start
states at once (shared sparse LU factorization, one right-hand side per
meeting position), so ladder construction needs a single factorization. The
right-hand sides and the solution are dense, n_states x (S+1) each, so sizes
whose table would exceed MAX_KERNEL_ENTRIES are refused before any of it is
allocated; the cap admits S <= 512.

Two Monte Carlo samplers check the pieces, both on core.lockstep until every
replica is absorbed: simulate_hybrid_pair moves the pair with the dual
walker kernel (padded walker rows, one narrow draw per move, death written
to site 0), exclusion on until its k-th meeting episode ends and off after,
and simulate_aux_walk runs the reflected walk behind gamma_k on narrow
positions with one boolean coin per step. The pair's only episode state is
one counter of distance-1 entries and exits per replica.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .core import (
    MAX_RESIDUAL,
    ROUND_CAP,
    ModelParams,
    RngStream,
    check_residual,
    lockstep,
    mean_stderr,
    site_dtype,
)
from .dual import _draw_moves, _move_batch, _walkers, stationary_moment
from .errors import ResourceError, ValidationError

_EARLY_STOP_GAMMA = 1e-12
# 2**26 float64 entries is 512 MiB per dense table.
MAX_KERNEL_ENTRIES = 2**26


def p0_independent(params: ModelParams, x: int, y: int) -> float:
    """Both independent walkers reach S+1 before 0, from x and y."""
    s = params.size
    for v in (x, y):
        if not 0 <= v <= s + 1:
            raise ValidationError(f"position must lie in [0, {s + 1}], got {v}")
    return x * y / (s + 1) ** 2


def gamma_closed_form(size: int, k: int) -> float:
    """P(at least k returns to 0 before reaching S) for the reflected walk from 1."""
    if size < 2:
        raise ValidationError(f"size must be >= 2, got {size}")
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    return ((size - 1) / size) ** k


@dataclass(frozen=True)
class MeetingKernel:
    """First-meeting distribution from one start: mass[n] for n in 1..S."""

    start: tuple[int, int]
    mass: np.ndarray  # length S+1, index n, entry 0 unused
    no_meet_mass: float


class _KernelTable:
    """First-meeting masses for every transient pair state of one size."""

    def __init__(self, size: int) -> None:
        self.size = size
        s = size
        n_states = s * (s - 1) // 2  # gap >= 2 pairs plus (a, S+1) states
        if n_states * (s + 1) > MAX_KERNEL_ENTRIES:
            raise ResourceError(
                f"meeting-kernel table needs {n_states * (s + 1)} entries at size "
                f"{s}, cap is {MAX_KERNEL_ENTRIES}"
            )
        index: dict[tuple[int, int], int] = {}
        for a in range(1, s - 1):
            for b in range(a + 2, s + 1):
                index[(a, b)] = len(index)
        for a in range(1, s):
            index[(a, s + 1)] = len(index)
        self.index = index
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        rhs = np.zeros((n_states, s + 1))  # cols 0..s-1: meet at n=col+1; col s: no meet
        for (a, b), i in index.items():
            if b <= s:
                w = 0.25
                if a == 1:
                    rhs[i, s] += w
                else:
                    rows.append(i), cols.append(index[(a - 1, b)]), vals.append(w)
                if b - a == 2:
                    rhs[i, a] += w  # lower hops up, meet at n = a+1
                    rhs[i, a - 1] += w  # upper hops down, meet at n = a
                else:
                    rows.append(i), cols.append(index[(a + 1, b)]), vals.append(w)
                    rows.append(i), cols.append(index[(a, b - 1)]), vals.append(w)
                rows.append(i), cols.append(index[(a, b + 1)]), vals.append(w)
            else:
                w = 0.5
                if a == 1:
                    rhs[i, s] += w
                else:
                    rows.append(i), cols.append(index[(a - 1, s + 1)]), vals.append(w)
                if a + 1 == s:
                    rhs[i, s - 1] += w  # meet at (S, S+1), recorded as n = S
                else:
                    rows.append(i), cols.append(index[(a + 1, s + 1)]), vals.append(w)
        system = sp.eye(n_states, format="coo") - sp.coo_matrix(
            (vals, (rows, cols)), shape=(n_states, n_states)
        )
        lu = splu(system.tocsc())
        self.masses = lu.solve(rhs)
        residual = float(np.abs(system.tocsr() @ self.masses - rhs).max())
        check_residual("meeting-kernel solve", residual, MAX_RESIDUAL)

    def kernel(self, a: int, b: int) -> MeetingKernel:
        row = self.masses[self.index[(a, b)]]
        mass = np.zeros(self.size + 1)
        mass[1:] = row[: self.size]
        return MeetingKernel(start=(a, b), mass=mass, no_meet_mass=float(row[self.size]))


@functools.lru_cache(maxsize=8)
def _kernel_table(size: int) -> _KernelTable:
    return _KernelTable(size)


def first_meeting_kernel(params: ModelParams, x: int, y: int) -> MeetingKernel:
    """Distribution of the lower position at the pair's first distance-1 state."""
    s = params.size
    if s < 3:
        raise ValidationError("meeting kernel needs size >= 3")
    if not (1 <= x < y <= s and y - x >= 2):
        raise ValidationError(
            f"start must satisfy 1 <= x < y <= {s} with y - x >= 2, got ({x}, {y})"
        )
    return _kernel_table(s).kernel(x, y)


@dataclass(frozen=True)
class LadderTable:
    """Ladder of success probabilities and meeting factors from one start.

    Arrays are indexed by the meeting count k; index 0 of c_start is unused
    padding.
    """

    size: int
    x0: int
    y0: int
    k_max: int
    c_start: np.ndarray
    p: np.ndarray
    p_inf: float

    @property
    def final_bound(self) -> float:
        """Closing bound on p[0] - p_inf."""
        s = self.size
        return 1 / (2 * (s + 1)) - 1 / (s + 1) ** 2

    def tail_bound(self) -> float:
        """Geometric envelope for |p[k_max] - p_inf|."""
        s = self.size
        return gamma_closed_form(s, self.k_max + 1) * s / (2 * (s + 1) ** 2)


def ladder_tables(
    params: ModelParams,
    x0: int,
    y0: int,
    k_max: int = 40,
) -> LadderTable:
    """Build the meeting ladder from (x0, y0) up to k_max meetings.

    Stops early once the gamma envelope falls below 1e-12; deeper rungs are
    numerically indistinguishable from the limit. The exclusion-pair value
    p_inf is the closed-form pair moment, for comparison.
    """
    s = params.size
    if s < 3:
        raise ValidationError("ladder needs size >= 3")
    if not (1 <= x0 < y0 <= s and y0 - x0 >= 2):
        raise ValidationError(
            f"start must satisfy 1 <= x0 < y0 <= {s} with gap >= 2, got ({x0}, {y0})"
        )
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    table = _kernel_table(s)
    user = table.masses[table.index[(x0, y0)]]
    gap2_rows = [table.index[(m, m + 2)] for m in range(1, s)]
    interior = table.masses[gap2_rows][:, : s - 1]  # mass at n = 1..S-1 per start
    user_int = user[: s - 1]

    eff_k = k_max
    for k in range(1, k_max + 1):
        if gamma_closed_form(s, k) < _EARLY_STOP_GAMMA:
            eff_k = k
            break
    c_start = np.full(eff_k + 1, np.nan)
    cvec = interior.sum(axis=1)
    c_start[1] = user_int.sum()
    for k in range(2, eff_k + 1):
        combo = cvec + np.concatenate(([0.0], cvec[:-1]))
        cvec = 0.5 * (interior @ combo)
        c_start[k] = 0.5 * float(user_int @ combo)
    p = np.zeros(eff_k + 1)
    p[0] = p0_independent(params, x0, y0)
    cost = 1.0 / (2 * (s + 1) ** 2)
    for k in range(1, eff_k + 1):
        p[k] = p[k - 1] - c_start[k] * cost
    return LadderTable(
        size=s,
        x0=x0,
        y0=y0,
        k_max=eff_k,
        c_start=c_start,
        p=p,
        p_inf=stationary_moment(s, (x0, y0)),
    )


def simulate_hybrid_pair(
    params: ModelParams,
    x0: int,
    y0: int,
    k: int,
    n_replicas: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Monte Carlo check of one ladder rung.

    The pair follows exclusion dynamics until its k-th distance-1 episode
    ends at distance 2, then the walkers move independently; the estimate is
    the probability that both end at S+1. k = 0 is the fully independent
    pair. Vectorized over replicas on the uniformized clock.
    """
    s = params.size
    if not (1 <= x0 < y0 <= s and y0 - x0 >= 2):
        raise ValidationError(
            f"start must satisfy 1 <= x0 < y0 <= {s} with gap >= 2, got ({x0}, {y0})"
        )
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    gen = rng.generator()
    walkers = _walkers((x0, y0), n_replicas, s)
    # Distance-1 entries plus exits: odd inside an episode, and 2k once the
    # k-th episode has ended. It never exceeds the round count.
    toggles = np.zeros(n_replicas, dtype=np.int32)

    def step(rows: np.ndarray) -> np.ndarray:
        c = toggles[rows]
        die = _move_batch(walkers, rows, _draw_moves(gen, 2, rows.size), s, c < 2 * k)
        pair = walkers.take(rows, axis=0)
        lo, hi = pair[:, 1], pair[:, 2]
        toggles[rows] = c + (hi - lo == (c & 1) + 1)
        return die | ((lo == s + 1) & (hi == s + 1))

    lockstep(n_replicas, step)
    return mean_stderr((walkers[:, 1:-1] == s + 1).all(axis=1).astype(np.float64))


@dataclass(frozen=True)
class AuxWalkResult:
    """Closed-form and empirical return-count tail for the reflected walk."""

    size: int
    n_replicas: int
    gamma: np.ndarray  # index k, entry 0 = 1
    gamma_mc: np.ndarray
    gamma_stderr: np.ndarray


def simulate_aux_walk(
    size: int,
    k_max: int,
    n_replicas: int,
    rng: RngStream,
) -> AuxWalkResult:
    """Empirical tail of the number of returns to 0 before reaching S.

    The walk starts at 1, steps symmetrically on [0, S], and leaves 0 to 1 on
    the step after every return. Its mean round count is S^2 - 1; a size
    whose mean exceeds ROUND_CAP is refused before anything is drawn.
    """
    if size < 2:
        raise ValidationError(f"size must be >= 2, got {size}")
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    if size**2 - 1 > ROUND_CAP:
        raise ResourceError(
            f"{size**2 - 1} rounds per replica expected, cap is {ROUND_CAP} rounds"
        )
    gen = rng.generator()
    pos = np.ones(n_replicas, dtype=site_dtype(size))
    visits = np.zeros(n_replicas, dtype=np.int64)

    def step(rows: np.ndarray) -> np.ndarray:
        up = gen.integers(0, 2, size=rows.size, dtype=bool)
        pv = pos[rows]
        new = np.where(pv == 0, 1, pv + up.astype(pos.dtype) * 2 - 1)
        visits[rows[new == 0]] += 1
        pos[rows] = new
        return new == size

    lockstep(n_replicas, step)
    gamma = np.array([gamma_closed_form(size, j) for j in range(k_max + 1)])
    gamma_mc = np.zeros(k_max + 1)
    gamma_se = np.zeros(k_max + 1)
    gamma_mc[0] = 1.0
    for j in range(1, k_max + 1):
        gamma_mc[j], gamma_se[j] = mean_stderr((visits >= j).astype(np.float64))
    return AuxWalkResult(
        size=size,
        n_replicas=n_replicas,
        gamma=gamma,
        gamma_mc=gamma_mc,
        gamma_stderr=gamma_se,
    )
