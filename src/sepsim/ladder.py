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

All of it comes from one sparse first-passage system A m = R over the
n_states = S(S-1)/2 transient pair states, R holding one column per meeting
position plus one for death. It is factored once per size (minimum-degree
ordering on A + A^T) and the masses are never tabulated: a ladder rung
needs only the S restart and start rows of A^-1 R applied to one vector, so
it costs one solve. Ladders deeper than S-2 rungs tabulate those S rows
instead, with S-1 solves in column blocks and two more that refine the
leading mode. No route takes more than S+1 solves. MAX_KERNEL_ENTRIES caps
n_states x (S+1), the system size times the solve count, and admits
S <= 512.

Two Monte Carlo samplers check the pieces, both on core.lockstep until every
replica is closed. simulate_hybrid_pair moves the pair on the bit-sliced
absorbing engine of the dual sampler, dual.absorbing_run, as an exclusion
pair until its walkers are independent (its k-th meeting episode over, or
the upper walker frozen); the lane then closes and scores the independent
pair's success lo*hi/(S+1)^2, which keeps the estimate unbiased by the tower
rule. Its only episode state is a bit-sliced counter of distance-1 entries
and exits. simulate_aux_walk runs the reflected walk behind gamma_k on
narrow positions, _CHUNK moves a round, each a bit of a random word, until
every walk has reached S or made as many returns as the table has rows; the
open walks stay first, in order, and the closed ones keep their return
counts behind them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import core
from .core import (
    MAX_RESIDUAL,
    ROUND_CAP,
    ModelParams,
    RngStream,
    check_residual,
    count_mean_stderr,
    lockstep,
    site_dtype,
)
from .dual import absorbing_run, stationary_moment
from .errors import NumericError, ResourceError, ValidationError

_EARLY_STOP_GAMMA = 1e-12
# Caps n_states x (S+1): the system has n_states = S(S-1)/2 unknowns and a
# ladder takes at most S+1 solves of it. 2**26 admits S <= 512.
MAX_KERNEL_ENTRIES = 2**26
_SOLVE_BLOCK = 64  # right-hand sides per solve when tabulating restart masses
_CHUNK = 32  # reflected-walk moves per open walker and lockstep round


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


class _KernelTable:
    """Sparse LU factor of the first-meeting system for one size.

    The unknowns are the transient pair states; column n-1 of the right-hand
    side matrix collects the one-step mass into a meeting at n (n = 1..S) and
    column S the mass into the lower walker's death. Masses are never
    tabulated: callers solve for the combinations they need.
    """

    def __init__(self, size: int) -> None:
        s = size
        n_states = s * (s - 1) // 2  # gap >= 2 pairs plus (a, S+1) states
        if n_states * (s + 1) > MAX_KERNEL_ENTRIES:
            raise ResourceError(
                f"meeting-kernel system needs {n_states} states x {s + 1} solves "
                f"at size {s}, cap is {MAX_KERNEL_ENTRIES}"
            )
        a, b = np.triu_indices(s + 2, k=2)
        a, b = a[a >= 1].astype(np.int16), b[a >= 1].astype(np.int16)
        self.index = np.full((s + 2, s + 2), -1, dtype=np.int32)
        self.index[a, b] = np.arange(n_states)
        # Moves (a-1, b), (a+1, b) for every state, then (a, b-1), (a, b+1)
        # while the upper walker is in the bulk; it is frozen at S+1.
        bulk = np.flatnonzero(b <= s).astype(np.int32)
        src = np.concatenate([np.arange(n_states, dtype=np.int32)] * 2 + [bulk] * 2)
        to_a = np.concatenate([a - 1, a + 1, a[bulk], a[bulk]])
        to_b = np.concatenate([b, b, b[bulk] - 1, b[bulk] + 1])
        w = np.where(b <= s, 0.25, 0.5)[src]
        hit = (to_a == 0) | (to_b - to_a == 1)  # death, or a meeting at (n, n+1)
        col = np.where(to_a == 0, s, to_a - 1)
        self.rhs = sp.csr_matrix((w[hit], (src[hit], col[hit])), shape=(n_states, s + 1))
        step = ~hit
        src, dst, w = src[step], self.index[to_a[step], to_b[step]], w[step]
        del to_a, to_b, col, hit, step  # keeps the traced build peak low
        diag = np.arange(n_states, dtype=np.int32)
        self.system = sp.csc_matrix(
            (
                np.concatenate([np.ones(n_states), -w]),
                (np.concatenate([diag, src]), np.concatenate([diag, dst])),
            ),
            shape=(n_states, n_states),
        )
        self.lu = splu(self.system, permc_spec="MMD_AT_PLUS_A")

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """One checked solve of the system (trans="T": its transpose)."""
        x = self.lu.solve(rhs, trans=trans)
        matrix = self.system if trans == "N" else self.system.T
        residual = float(np.abs(matrix @ x - rhs).max())
        check_residual("meeting-kernel solve", residual, MAX_RESIDUAL)
        return x


@functools.lru_cache(maxsize=8)
def _kernel_table(size: int) -> _KernelTable:
    return _KernelTable(size)


def _check_start(size: int, x: int, y: int) -> None:
    """Refuse a pair start that is not 1 <= x < y <= S with a gap of at least 2."""
    if not (1 <= x < y <= size and y - x >= 2):
        raise ValidationError(
            f"start must satisfy 1 <= x < y <= {size} with y - x >= 2, got ({x}, {y})"
        )


def _early_stop(size: int, k_max: int) -> int:
    """k_max, or the first k <= k_max whose gamma_k falls below _EARLY_STOP_GAMMA."""
    for k in range(1, k_max + 1):
        if gamma_closed_form(size, k) < _EARLY_STOP_GAMMA:
            return k
    return k_max


@dataclass(frozen=True)
class LadderTable:
    """Ladder of success probabilities and meeting factors from one start.

    Arrays are indexed by the meeting count k; index 0 of c_start is unused
    padding.
    """

    size: int
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


def _pair_sum(v: np.ndarray) -> np.ndarray:
    """Sum over the restart points (n-1, n+1) and (n, n+2) of a meeting at n."""
    return v + np.concatenate(([0.0], v[:-1]))


def _leading_correction(
    table: _KernelTable, masses: np.ndarray, r_int: sp.csr_matrix, rows: np.ndarray
) -> np.ndarray:
    """Rank-one update that refines the restart masses along the leading mode.

    Deep rungs scale like lambda^k, so a relative error e in the leading
    eigenvalue of the restart recurrence grows to k*e in c_start[k]. LU
    rounding leaves e at a few 1e-16, about 3e-12 by rung 7060 at S=256. One
    solve along the leading restart vector, refined once on its residual,
    removes most of it for two more solves.
    """
    pair = np.eye(masses.shape[1]) + np.eye(masses.shape[1], k=-1)
    w, vecs = np.linalg.eig(masses[:-1] @ pair)
    u = pair @ np.real(vecs[:, np.argmax(np.abs(w))])
    b = r_int @ u
    y = table.solve(b)
    y += table.solve(b - table.system @ y)
    return np.outer(y[rows] - masses @ u, u) / (u @ u)


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
    _check_start(s, x0, y0)
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    eff_k = _early_stop(s, k_max)
    # The rows of A^-1 R_int the ladder reads: the restart points (m, m+2)
    # for m = 1..S-1, then the user's start.
    table = _kernel_table(s)
    rows = np.append(table.index[np.arange(1, s), np.arange(3, s + 2)], table.index[x0, y0])
    r_int = table.rhs[:, : s - 1]
    if eff_k < s - 1:  # one solve per rung

        def restart(combo: np.ndarray) -> np.ndarray:
            return table.solve(r_int @ combo)[rows]

    else:  # S-1 solves, in column blocks, tabulate the S rows once
        masses = np.hstack(
            [
                table.solve(r_int[:, j : j + _SOLVE_BLOCK].toarray())[rows]
                for j in range(0, s - 1, _SOLVE_BLOCK)
            ]
        )
        masses += _leading_correction(table, masses, r_int, rows)

        def restart(combo: np.ndarray) -> np.ndarray:
            return masses @ combo

    c_start = np.full(eff_k + 1, np.nan)
    z = restart(np.ones(s - 1))
    cvec, c_start[1] = z[:-1], z[-1]
    for k in range(2, eff_k + 1):
        z = 0.5 * restart(_pair_sum(cvec))
        cvec, c_start[k] = z[:-1], z[-1]
    p = np.zeros(eff_k + 1)
    p[0] = p0_independent(params, x0, y0)
    cost = 1.0 / (2 * (s + 1) ** 2)
    for k in range(1, eff_k + 1):
        p[k] = p[k - 1] - c_start[k] * cost
    return LadderTable(
        size=s,
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
    the probability that both end at S+1. Runs on dual.absorbing_run. A
    lane closes as soon as its walkers are independent: its k-th episode has
    ended, or its upper walker has frozen at S+1 and stopped excluding. It
    then scores the independent pair's success
    lo*hi/(S+1)^2 (0 once the lower walker is dead), its exact success given
    the path so far, so by the tower rule the mean stays unbiased. k = 0 is
    the independent pair from the start: it returns P0 with stderr 0 and
    draws nothing.
    """
    s = params.size
    _check_start(s, x0, y0)
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    if k == 0:  # independent from the start
        return p0_independent(params, x0, y0), 0.0

    def score(pair: np.ndarray) -> np.ndarray:  # float64 first: narrow sites overflow
        return pair[0].astype(np.float64) * pair[1] / (s + 1) ** 2

    return absorbing_run(s, (x0, y0), n_replicas, rng.generator(), score, episodes=k)


@dataclass(frozen=True)
class AuxWalkResult:
    """Closed-form and empirical return-count tail for the reflected walk."""

    n_replicas: int
    gamma: np.ndarray  # index k, entry 0 = 1
    gamma_mc: np.ndarray
    gamma_stderr: np.ndarray


def _walk_chunk(p: np.ndarray, coins: np.ndarray, n: int, size: int) -> np.ndarray:
    """Move walkers n times in place, p <- |p + 2 coin - 1|; count their returns to 0.

    Coin j is bit j of a walker's words, low first; one reaching S parks at S + n + 1.
    """
    octets = np.ascontiguousarray(coins.astype("<u8", copy=False).view(np.int8).T)
    returns = np.zeros(p.size, dtype=np.int8)
    for j in range(n):
        p += 2 * (octets[j >> 3] >> (j & 7) & 1) - 1
        np.abs(p, out=p)
        returns += p == 0
        np.putmask(p, p == size, size + n + 1)
    return returns


def simulate_aux_walk(
    size: int,
    k_max: int,
    n_replicas: int,
    rng: RngStream,
) -> AuxWalkResult:
    """Empirical tail of the number of returns to 0 before reaching S.

    The walk starts at 1, steps symmetrically on [0, S], and leaves 0 to 1 on
    the move after every return, _CHUNK moves a round. The table ends where
    ladder_tables ends its own, at the first k whose gamma_k falls below
    _EARLY_STOP_GAMMA, and the tail is exactly 0 past the most returns made.
    A walk closes at the end of the round in which it reaches S or makes its
    k_max-th return for that last k_max, when every count c_j, j <= k_max, is
    settled. Run to S the walk takes S^2 - 1 moves on average: a larger mean
    than ROUND_CAP is refused before any draw, and walks open after
    core.ROUND_CAP moves raise NumericError.
    """
    if size < 2:
        raise ValidationError(f"size must be >= 2, got {size}")
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    if n_replicas < 1:
        raise ValidationError(f"n_replicas must be >= 1, got {n_replicas}")
    if size**2 - 1 > ROUND_CAP:
        raise ResourceError(
            f"{size**2 - 1} moves per replica expected, cap is {ROUND_CAP} moves"
        )
    gen = rng.generator()
    pos = np.ones(n_replicas, dtype=site_dtype(size + 2 * _CHUNK + 1))
    visits = np.zeros(n_replicas, dtype=np.int32)  # returns <= moves <= ROUND_CAP
    left = iter(range(core.ROUND_CAP, 0, -_CHUNK))  # moves left before each round

    def step(n_open: int) -> int:
        if not (n := min(_CHUNK, next(left, 0))):
            raise NumericError(f"{n_open} walks open after {core.ROUND_CAP} moves")
        p, v = pos[:n_open], visits[:n_open]
        v += _walk_chunk(p, gen.bit_generator.random_raw((n_open, -(-n // 64))), n, size)
        keep = (p <= size) & (v < k_max)
        n_keep = int(np.count_nonzero(keep))
        if n_keep < n_open:  # open walks first, in order, closed counts behind them
            p[:n_keep] = p[keep]
            v[:] = np.concatenate((v[keep], v[~keep]))
        return n_keep

    k_max = _early_stop(size, k_max)
    lockstep(n_replicas, step)
    gamma = np.array([gamma_closed_form(size, j) for j in range(k_max + 1)])
    # c_j, the replicas with at least j returns, for j = 1..k_max from one histogram
    c = np.cumsum(np.bincount(visits, minlength=k_max + 1)[::-1])[::-1][1 : k_max + 1]
    mc, se = count_mean_stderr(c, n_replicas)
    return AuxWalkResult(
        n_replicas=n_replicas,
        gamma=gamma,
        gamma_mc=np.concatenate(([1.0], mc)),
        gamma_stderr=np.concatenate(([0.0], se)),
    )
