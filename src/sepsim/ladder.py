"""Meeting-ladder bound relating the exclusion pair to independent walkers.

Two independent symmetric walkers started at bulk sites x < y both reach S+1
before 0 with probability xy/(S+1)^2. The exclusion pair differs from the
independent pair only while the walkers sit next to each other, so the gap
between the two success probabilities can be organized by the number of such
meetings. The pieces:

* the first-meeting masses: the chance that the pair first reaches distance
  1 at (n, n+1), for each interior n <= S-1. The lower walker touching 0 ends
  the family; once the upper walker freezes at S+1, no interior meeting is
  left;
* the repeat-meeting factors: C[1] sums the masses from the start, and C[k]
  chains them through the two distance-2 restart points around each
  meeting. C[k] is the probability of at least k interior meetings before
  the family ends;
* the ladder: each extra required meeting costs exactly C[k]/(2(S+1)^2), so
  the success probability after k meetings is P[k] = P[0] - sum of those
  costs, and P[k] converges to the exclusion-pair value from above;
* a dominating envelope gamma_k = ((S-1)/S)^k from a reflected walk on
  [0, S]: the probability of at least k returns to 0 before reaching S. It
  bounds C[k] and gives the geometric tail estimate and the closing bound
  P[0] - P[inf] <= 1/(2(S+1)) - 1/(S+1)^2.

All of it comes from one table, the masses from the S-1 restart points
(m, m+2) and from the start, and each rung is one product of the table with
a vector. Before its first meeting the pair is two independent walkers
killed when they meet (Karlin and McGregor, Pacific J. Math. 9 (1959) 1141),
so in (a, b) = (x, y-1) a combination of masses is harmonic on the chamber
1 <= a < b <= S-1, zero at death (a = 0) and at freezing (b = S). Reflected
across the diagonal, it solves a Dirichlet problem on a square, whose sine
series _meeting_masses sums in O(S^3) flops. Two harmonic functions that
vanish at death and at freezing check every row. MAX_LADDER_SIZE caps S.

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
counts behind them. The moves go a byte of coins at a time: _byte_table
holds, for every state and byte, the state after those moves and the
returns made on the way, so a round is four table lookups per walker, not
32 moves of several array passes each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    MAX_RESIDUAL,
    ROUND_CAP,
    ModelParams,
    check_replicas,
    check_residual,
    count_mean_stderr,
    lockstep,
)
from .dual import absorbing_run, stationary_moment
from .errors import NumericError, ResourceError, ValidationError

_EARLY_STOP_GAMMA = 1e-12
MAX_LADDER_SIZE = 512
_BLOCK = 64  # table rows per pair of matrix products
# BLAS runs a product of this many multiply-adds on one thread; threaded, a
# 64 x 255 x 254 one took 11-16 ms on a busy two-core host, not 0.2-0.6 ms.
# Importing sepsim pins OpenBLAS to one thread, but the pin cannot act when a
# caller loaded numpy first, so the products stay this small.
_SERIAL_MACS = 1 << 18
_EXP_FLOOR = -500.0  # least decay exponent: nothing underflows, and less is negligible
_CHUNK = 32  # reflected-walk moves per open walker and lockstep round
_WALK_BLOCK = 1 << 15  # walkers moved together through a chunk


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T in pieces of at most _SERIAL_MACS multiply-adds."""
    step = max(1, _SERIAL_MACS // a.size)
    return np.hstack([a @ b[j : j + step].T for j in range(0, max(len(b), 1), step)])


def _meeting_masses(size: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mass of a first interior meeting at n = 1..S-1 from each pair start (x, y).

    Entry n is K(n-1) + K(n), K(p) = G((a, b), (p, p+1)) - G((a, b), (p+1, p))
    with (a, b) = (x, y-1) and K(0) = K(S-1) = 0. The square's Green function
    is G(u, v) = sum_i V[u1, i] V[v1, i] g_i(u2, v2), V[x, i] = sqrt(2/S)
    sin(pi x i / S), g_i(u, v) = sinh(min(u, v) t) sinh((S - max(u, v)) t) /
    (sinh t sinh S t), cosh t = 2 - cos(i pi / S). K subtracts per mode, so
    nothing cancels across modes. g_i(b, q) splits on each side of q = b, so
    blocks of _BLOCK rows sorted by b take one product per side, exponents
    split at the block's edge on that side.
    """
    s, order = size, np.argsort(y, kind="stable")
    a, b = x[order], y[order] - 1  # rows sorted by b
    sites, i = np.arange(s + 1), np.arange(1, s)
    v = np.sqrt(2 / s) * np.sin(np.pi * (np.outer(sites, i) % (2 * s)) / s)
    theta = np.arccosh(2 - np.cos(np.pi * i / s))

    def half(d):  # sinh(d theta) e^(-d theta), one column per mode
        return -np.expm1(-2 * np.multiply.outer(d, theta)) / 2

    den = np.sinh(theta) * half(s)
    decay = np.exp(np.maximum(-np.outer(sites, theta), _EXP_FLOOR))
    p = np.arange(1, s - 1)
    # K's mode terms over V[a, i]: e^((b-p) theta) half(b) up[p] for p >= b,
    # e^((p-b) theta) half(S-b) down[p] / den below
    up = (v[p] * decay[1] * half(s - p - 1) - v[p + 1] * half(s - p)) / den
    down = v[p] * half(p + 1) / decay[1] - v[p + 1] * half(p)
    green = np.zeros((len(a), s))  # K(p), p = 0..S-1
    for j in range(0, len(a), _BLOCK):
        ar, br, block = a[j : j + _BLOCK], b[j : j + _BLOCK], green[j : j + _BLOCK]
        lo, hi = min(int(br[0]), s - 1), int(br[-1])
        top = min(hi, s - 1)  # columns p >= lo take above, p < top below
        above = _product(v[ar] * half(br) / decay[br - lo], decay[: s - 1 - lo] * up[lo - 1 :])
        scaled = v[ar] * half(s - br) / (decay[hi - br] * den)
        below = _product(scaled, decay[hi - 1 : hi - top : -1] * down[: top - 1])
        block[:, lo : s - 1] = above
        block[:, 1:top] = np.where(p[: top - 1] < br[:, None], below, block[:, 1:top])
    return (green[:, 1:] + green[:, :-1])[np.argsort(order)]


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
    if s > MAX_LADDER_SIZE:
        raise ResourceError(f"ladder size {s} exceeds the cap of {MAX_LADDER_SIZE}")
    eff_k = _early_stop(s, k_max)
    # The rows the ladder reads: the restart points (m, m+2) for m = 1..S-1,
    # then the user's start.
    x = np.append(np.arange(1, s), x0)
    y = np.append(np.arange(3, s + 2), y0)
    masses = _meeting_masses(s, x, y)
    # h = x w and x w (x^2 - w^2), w = S+1-y, vanish at death and at freezing,
    # so each is its mean over the first meetings (n, n+1), where w = S-n.
    n, w = np.arange(1, s), s + 1 - y
    meet = n * (s - n)
    for h, at_meeting in ((x * w, meet), (x * w * (x**2 - w**2), meet * (2 * n - s) * s)):
        residual = np.abs(masses @ at_meeting - h).max() / max(np.abs(h).max(), 1)
        check_residual("meeting-mass identity", float(residual), MAX_RESIDUAL)
    c_start = np.full(eff_k + 1, np.nan)
    z = masses @ np.ones(s - 1)
    cvec, c_start[1] = z[:-1], z[-1]
    for k in range(2, eff_k + 1):  # restarts (n-1, n+1) and (n, n+2) follow a meeting at n
        z = 0.5 * (masses @ (cvec + np.append(0.0, cvec[:-1])))
        cvec, c_start[k] = z[:-1], z[-1]
    spent = np.append(0.0, np.cumsum(c_start[1:])) / (2 * (s + 1) ** 2)
    p = p0_independent(params, x0, y0) - spent
    return LadderTable(s, eff_k, c_start, p, stationary_moment(s, (x0, y0)))


def simulate_hybrid_pair(
    params: ModelParams,
    x0: int,
    y0: int,
    k: int,
    n_replicas: int,
    gen: np.random.Generator,
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
    check_replicas(n_replicas)
    if k == 0:  # independent from the start
        return p0_independent(params, x0, y0), 0.0

    def score(pair: np.ndarray) -> np.ndarray:  # float64 first: narrow sites overflow
        return pair[0].astype(np.float64) * pair[1] / (s + 1) ** 2

    return absorbing_run(s, (x0, y0), n_replicas, gen, score, episodes=k)


@dataclass(frozen=True)
class AuxWalkResult:
    """Closed-form and empirical return-count tail for the reflected walk."""

    n_replicas: int
    gamma: np.ndarray  # index k, entry 0 = 1
    gamma_mc: np.ndarray
    gamma_stderr: np.ndarray


@functools.lru_cache(maxsize=64)
def _byte_table(size: int, moves: int) -> np.ndarray:
    """Flat (S+2) * 256 table of the reflected walk over one byte of coins.

    Entry 256 q + c is the state after `moves` <= 8 moves from state q, coin j
    being bit j of c, plus 2^12 times the returns to 0 made on the way. State
    S+1 is parked: S parks on arrival and stays parked. Built on first use and
    read-only; uint16 while every index 256 q + c fits in 16 bits, else uint32.
    The aux size cap keeps S + 1 below 2^12.
    """
    pos = np.repeat(np.arange(size + 2)[:, None], 256, axis=1)
    returns = np.zeros_like(pos)
    coins = np.arange(256)
    for j in range(moves):
        step = np.abs(pos + 2 * (coins >> j & 1) - 1)  # 0 steps to 1 whatever the coin
        returns += step == 0
        pos = np.where((pos >= size) | (step == size), size + 1, step)
    table = (pos + (returns << 12)).astype(np.uint16 if size + 1 < 256 else np.uint32)
    table.flags.writeable = False
    return table.ravel()


def _walk_chunk(p: np.ndarray, coins: np.ndarray, n: int, size: int) -> np.ndarray:
    """Move walkers n times in place, p <- |p + 2 coin - 1|; count their returns to 0.

    Coin j is bit j of a walker's words, low first; one reaching S parks at S + 1.
    Each byte of coins is one lookup in _byte_table, the last one in the table
    of the moves left. Walkers go _WALK_BLOCK at a time, so the work stays in
    cache.
    """
    octets = coins.astype("<u8", copy=False).view(np.uint8)
    dtype = _byte_table(size, 8).dtype  # states, indices and counts alike
    returns = np.empty(p.size, dtype=np.int8)
    for lo in range(0, p.size, _WALK_BLOCK):
        block = slice(lo, lo + _WALK_BLOCK)
        state = p[block].astype(dtype)
        count = np.zeros_like(state)
        for j in range(0, n, 8):
            index = state << 8
            index |= octets[block, j >> 3]
            entry = _byte_table(size, min(8, n - j)).take(index)
            count += entry >> 12
            np.bitwise_and(entry, 0xFFF, out=state)
        p[block], returns[block] = state, count
    return returns


def simulate_aux_walk(
    size: int,
    k_max: int,
    n_replicas: int,
    gen: np.random.Generator,
) -> AuxWalkResult:
    """Empirical tail of the number of returns to 0 before reaching S.

    The walk starts at 1, steps symmetrically on [0, S], and leaves 0 to 1 on
    the move after every return, _CHUNK moves a round. The table ends where
    ladder_tables ends its own, at the first k whose gamma_k falls below
    _EARLY_STOP_GAMMA, and the tail is exactly 0 past the most returns made.
    A walk closes at the end of the round in which it reaches S or makes its
    k_max-th return for that last k_max, when every count c_j, j <= k_max, is
    settled. Run to S the walk takes S^2 - 1 moves on average: a larger mean
    than ROUND_CAP, like more replicas than core.MAX_REPLICAS, is refused
    before any draw, and walks open after core.ROUND_CAP moves raise
    NumericError.
    """
    if size < 2:
        raise ValidationError(f"size must be >= 2, got {size}")
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    check_replicas(n_replicas)
    if size**2 - 1 > ROUND_CAP:
        raise ResourceError(
            f"{size**2 - 1} moves per replica expected, cap is {ROUND_CAP} moves"
        )
    pos = np.ones(n_replicas, dtype=np.min_scalar_type(size + 1))
    visits = np.zeros(n_replicas, dtype=np.int32)  # returns <= moves <= ROUND_CAP
    left = iter(range(core.ROUND_CAP, 0, -_CHUNK))  # moves left before each round

    def step(n_open: int) -> int:
        if not (n := min(_CHUNK, next(left, 0))):
            raise NumericError(f"{n_open} walks open after {core.ROUND_CAP} moves")
        p, v = pos[:n_open], visits[:n_open]
        v += _walk_chunk(p, gen.bit_generator.random_raw((n_open, -(-n // 64))), n, size)
        keep = (p <= size) & (v < k_max)
        kept = np.flatnonzero(keep)
        if kept.size < n_open:  # open walks first, in order, closed counts behind them
            p[: kept.size] = p.take(kept)
            v[:] = np.concatenate((v.take(kept), v.take(np.flatnonzero(~keep))))
        return kept.size

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
