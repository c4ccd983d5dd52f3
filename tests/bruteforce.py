"""Independent oracles for the test suite.

Everything here is written from first principles in a deliberately plain
style: states are occupancy tuples, generators are dense, Monte Carlo runs
are scalar per-replica loops. None of it shares an algorithm with the
package, so agreement is meaningful. The sparse first-meeting system, one
unknown per transient pair state and LU-factored once per size, is the
oracle of the ladder's sine-series meeting masses. The loop-built moment
hierarchy (moment_structure) is the oracle of the array code in
sepsim.moments. The scalar reference walkers at the end take the
package's value types (configurations, point sets, errors) so that their
tests read like the package's own.
"""

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, null_space
from scipy.sparse.linalg import splu

from sepsim import ladder
from sepsim.core import MAX_RESIDUAL, Configuration, check_residual, validate_point_set
from sepsim.errors import NumericError, ValidationError


def all_states(size):
    """Interior occupancy tuples in binary-counter order, site 1 first."""
    states = []
    for code in range(2**size):
        states.append(tuple((code >> i) & 1 for i in range(size)))
    return states


def swap_result(state, bond, size):
    """Occupancy tuple after firing one bond, by direct case analysis."""
    occ = list(state)
    if bond == 0:
        occ[0] = 0
    elif bond == size:
        occ[size - 1] = 1
    else:
        occ[bond - 1], occ[bond] = occ[bond], occ[bond - 1]
    return tuple(occ)


def step_ctmc(state, size, rng, rate=1.0):
    """One embedded-chain step: Exp(rate * #enabled) holding time, then a
    uniformly chosen enabled bond. Returns the new state and the holding time.
    """
    moves = [b for b in range(size + 1) if swap_result(state, b, size) != state]
    assert moves, "pinned reservoirs keep at least one bond enabled"
    holding = rng.standard_exponential() / (rate * len(moves))
    bond = moves[rng.integers(0, len(moves))]
    return swap_result(state, bond, size), float(holding)


def dense_generator(size, rate=1.0):
    """Dense rate matrix over the binary-counter state order."""
    states = all_states(size)
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for i, state in enumerate(states):
        for bond in range(size + 1):
            j = index[swap_result(state, bond, size)]
            if j != i:
                q[i, j] += rate
                q[i, i] -= rate
    return q


def sparse_generator(size, rate=1.0):
    """Sparse rate matrix over the binary-counter state order.

    States are integer codes with site 1 in bit 0. Each bond lists the codes
    where it is enabled and where it sends them, so the matrix reaches the
    sizes where the dense one no longer fits.
    """
    codes = np.arange(2**size, dtype=np.int64)
    rows, cols = [], []
    for bond in range(size + 1):
        if bond == 0:  # empties site 1
            src = codes[(codes & 1) == 1]
            dst = src - 1
        elif bond == size:  # fills site S
            top = 1 << (size - 1)
            src = codes[(codes & top) == 0]
            dst = src + top
        else:  # exchanges sites bond and bond+1 where they differ
            lo, hi = 1 << (bond - 1), 1 << bond
            src = codes[((codes & lo) == 0) != ((codes & hi) == 0)]
            dst = src ^ (lo | hi)
        rows.append(src)
        cols.append(dst)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    q = sp.csr_matrix((np.full(len(rows), rate), (rows, cols)), shape=(2**size, 2**size))
    return q - sp.diags(np.asarray(q.sum(axis=1)).ravel(), format="csr")


def stationary_null_space(size, rate=1.0):
    """Stationary distribution as the null space of the transposed generator."""
    q = dense_generator(size, rate)
    basis = null_space(q.T)
    assert basis.shape[1] == 1, "stationary distribution should be unique"
    pi = basis[:, 0]
    pi = pi / pi.sum()
    return pi


def _matrix_product_weights(size: int) -> np.ndarray:
    """Unnormalised weights <W| X_S ... X_1 |V> of all 2^S bulk states.

    Row r of the table holds X_i ... X_1 |V> for the first i bits of state r,
    on the basis c_m = E^m|V>: E maps c_m to c_{m+1}, D maps c_m to
    sum_{j<=m} C(m+1, j) c_j, and <W|c_m> = 1. Every entry is a nonnegative
    integer no larger than the final weight, at most (S+1)!, so float64 holds
    the weights exactly for S <= 17.
    """
    span = range(size + 1)
    d_t = np.tril([[float(math.comb(m + 1, j)) for j in span] for m in span])  # C(m+1, j)
    table = np.zeros((1 << size, size + 1))
    table[0, 0] = 1.0
    for i in range(size):  # site i+1 is bit i: rows n..2n-1 have it occupied
        n = 1 << i
        table[n : 2 * n] = table[:n] @ d_t
        table[:n, 1:] = table[:n, :-1]
        table[:n, 0] = 0.0
    return table.sum(axis=1)


def mobius_weights(size: int) -> np.ndarray:
    """(S+1)! pi of every bulk state from the closed form, in uint64, as float64.

    Scaled by (S+1)!, the closed form of dual.stationary_moment gives every
    set B = {x_1 < ... < x_k} of sites the integer moment
    W(B) = (S+1-k)! prod_j (x_j - j + 1), and the weight of a configuration
    tau is the superset Mobius sum sum_{B >= tau} (-1)^(|B|-|tau|) W(B), run
    as S passes of f[bit clear] -= f[bit set]. The sums cancel, so they are
    exact only modulo 2**64; every true weight is below 2**64 up to S = 21.
    """
    count = np.bitwise_count(np.arange(1 << size, dtype=np.uint32))  # |B|
    w = np.ones(1 << size, dtype=np.uint64)
    for i in range(size):  # rows n..2n-1 add site i+1 = x_k on top of k-1 sites
        n = 1 << i
        w[n : 2 * n] = w[:n] * (i + 1 - count[:n])
    fact = [math.factorial(size + 1 - k) % 2**64 for k in range(size + 1)]
    w *= np.array(fact, dtype=np.uint64)[count]  # W(B)
    for i in range(size):  # axis 1 is bit i
        f = w.reshape(-1, 2, 1 << i)
        f[:, 0] -= f[:, 1]
    return w.astype(np.float64)


def deficiency_counts(size):
    """Permutations sigma of {0, ..., S} counted by deficiency set.

    Entry c counts the sigma whose set {x >= 1 : sigma(x) < x} is the state
    with code c (site x in bit x-1). Filling exactly the sites where
    sigma(x) < x maps a uniform permutation to the stationary law (Corteel
    and Williams, Adv. Appl. Math. 39 (2007) 293, at q = 1 and unit rates,
    mirrored to these reservoirs), so the counts are (S+1)! pi.
    """
    counts = np.zeros(2**size, dtype=np.int64)
    for sigma in itertools.permutations(range(size + 1)):
        code = 0
        for x in range(1, size + 1):
            if sigma[x] < x:
                code |= 1 << (x - 1)
        counts[code] += 1
    return counts


def insertion_counts(size):
    """Insertion tuples (j_1, ..., j_S), 0 <= j_m <= m, counted by unhit set.

    Entry c counts the (S+1)! tuples whose set {x >= 1 : no j_m equals x} is
    the state with code c (site x in bit x-1): the rule by which
    exact.sample_stationary fills sites, applied to every tuple in turn.
    """
    counts = np.zeros(2**size, dtype=np.int64)
    for js in itertools.product(*(range(m + 1) for m in range(1, size + 1))):
        code = (1 << size) - 1
        for j in js:
            if j:
                code &= ~(1 << (j - 1))
        counts[code] += 1
    return counts


def eulerian_numbers(n):
    """Row n of the Eulerian triangle, A(n, j) for j = 0..n-1, as Python ints.

    A(n, j) counts the permutations of n elements with j descents, or with j
    deficiencies; A(n, j) = (j+1) A(n-1, j) + (n-j) A(n-1, j-1), A(1, 0) = 1.
    """
    row = [1]
    for m in range(2, n + 1):
        row = [
            (j + 1) * (row[j] if j < m - 1 else 0) + (m - j) * (row[j - 1] if j else 0)
            for j in range(m)
        ]
    return row


def expm_state_distribution(size, interior, t, rate=1.0):
    """Distribution at time t from a deterministic interior start."""
    q = dense_generator(size, rate)
    start = all_states(size).index(tuple(interior))
    return expm(q * t)[start]


def moment_from_distribution(dist, points, size):
    """Probability that every listed interior site is occupied."""
    total = 0.0
    for state, prob in zip(all_states(size), dist):
        if all(state[p - 1] for p in points):
            total += prob
    return total


def mc_first_meeting(size, x, y, rng, n_replicas):
    """Empirical first-meeting distribution of two independent walkers.

    The lower walker is killed at 0 (counted as no_meet), the upper walker
    stops moving at size+1. Returns (mass over lower positions 1..size,
    no_meet fraction).
    """
    counts = np.zeros(size + 1)
    no_meet = 0
    for _ in range(n_replicas):
        a, b = x, y
        while True:
            if rng.random() < 0.5:  # lower walker attempts a move
                a += 1 if rng.random() < 0.5 else -1
                if a == 0:
                    no_meet += 1
                    break
            else:
                if b <= size:  # frozen upper walker no longer moves
                    b += 1 if rng.random() < 0.5 else -1
            if b - a == 1:
                counts[a] += 1
                break
    return counts / n_replicas, no_meet / n_replicas


def mc_repeat_meetings(size, x, y, k, rng, n_replicas):
    """Empirical probability of at least k interior meetings.

    Between meetings the walkers are independent; at an interior meeting
    (lower position at most size-1) the pair restarts one step apart in
    either direction with probability 1/2 each, matching how an exclusion
    pair leaves a distance-1 episode. Death of the lower walker or freezing
    of the upper one ends the meeting count.
    """
    hits = 0
    for _ in range(n_replicas):
        a, b = x, y
        meetings = 0
        while meetings < k:
            if rng.random() < 0.5:
                a += 1 if rng.random() < 0.5 else -1
                if a == 0:
                    break
            else:
                if b <= size:
                    b += 1 if rng.random() < 0.5 else -1
                    if b == size + 1:
                        break  # no interior meeting can happen any more
            if b - a == 1:
                if a > size - 1:
                    break
                meetings += 1
                if meetings == k:
                    break
                if rng.random() < 0.5:
                    b += 1  # upper walker steps away first
                else:
                    a -= 1
                    if a == 0:
                        break
                if b == size + 1:
                    break
        if meetings >= k:
            hits += 1
    return hits / n_replicas


def dense_meeting_table(size):
    """First-meeting masses from every transient pair state, by one dense solve.

    States are (a, b) with 1 <= a and b - a >= 2: both walkers in the bulk,
    or the upper one frozen at size+1. Returns (index, masses) where row
    index[(a, b)] of masses holds the mass of a first meeting at (n, n+1) in
    column n-1 for n = 1..size, and the death mass of the lower walker in
    column size.
    """
    assert 3 <= size <= 14, "dense oracle is for small sizes"
    states = [(a, b) for a in range(1, size) for b in range(a + 2, size + 2)]
    index = {state: i for i, state in enumerate(states)}
    system = np.eye(len(states))
    rhs = np.zeros((len(states), size + 1))
    for (a, b), i in index.items():
        moves = [(a - 1, b), (a + 1, b)]
        if b <= size:
            moves += [(a, b - 1), (a, b + 1)]
        for na, nb in moves:
            w = 1 / len(moves)
            if na == 0:
                rhs[i, size] += w
            elif nb - na == 1:
                rhs[i, na - 1] += w
            else:
                system[i, index[(na, nb)]] -= w
    return index, np.linalg.solve(system, rhs)


def dense_ladder(size, x0, y0, k_max):
    """Meeting factors c[1..k_max] and ladder p[0..k_max] from the dense table."""
    index, masses = dense_meeting_table(size)
    user = masses[index[(x0, y0)], : size - 1]
    interior = masses[[index[(m, m + 2)] for m in range(1, size)], : size - 1]
    return _ladder_from_masses(size, x0, y0, k_max, user, interior)


def _ladder_from_masses(size, x0, y0, k_max, user, interior):
    """The ladder recurrence on the interior meeting masses of the start and restart rows."""
    c = np.full(k_max + 1, np.nan)
    cvec = interior.sum(axis=1)
    c[1] = user.sum()
    for k in range(2, k_max + 1):
        combo = cvec + np.concatenate(([0.0], cvec[:-1]))
        cvec = 0.5 * (interior @ combo)
        c[k] = 0.5 * (user @ combo)
    p = np.full(k_max + 1, x0 * y0 / (size + 1) ** 2)
    p[1:] -= np.cumsum(c[1:]) / (2 * (size + 1) ** 2)
    return c, p


@dataclass(frozen=True)
class MeetingKernel:
    """First-meeting distribution from one start: mass[n] for n in 1..S."""

    start: tuple[int, int]
    mass: np.ndarray  # length S+1, index n, entry 0 unused
    no_meet_mass: float


class MeetingSystem:
    """Sparse LU factor of the first-meeting system A m = R for one size.

    The unknowns are the transient pair states (a, b), 1 <= a and
    b - a >= 2, with b = S+1 for a frozen upper walker; column n-1 of R
    collects the one-step mass into a meeting at n (n = 1..S) and column S
    the mass into the lower walker's death.
    """

    def __init__(self, size):
        s = size
        n_states = s * (s - 1) // 2  # gap >= 2 pairs plus (a, S+1) states
        a, b = np.triu_indices(s + 2, k=2)
        a, b = a[a >= 1], b[a >= 1]
        self.index = np.full((s + 2, s + 2), -1, dtype=np.int64)
        self.index[a, b] = np.arange(n_states)
        # Moves (a-1, b), (a+1, b) for every state, then (a, b-1), (a, b+1)
        # while the upper walker is in the bulk; it is frozen at S+1.
        bulk = np.flatnonzero(b <= s)
        src = np.concatenate([np.arange(n_states)] * 2 + [bulk] * 2)
        to_a = np.concatenate([a - 1, a + 1, a[bulk], a[bulk]])
        to_b = np.concatenate([b, b, b[bulk] - 1, b[bulk] + 1])
        w = np.where(b <= s, 0.25, 0.5)[src]
        hit = (to_a == 0) | (to_b - to_a == 1)  # death, or a meeting at (n, n+1)
        col = np.where(to_a == 0, s, to_a - 1)
        self.rhs = sp.csr_matrix((w[hit], (src[hit], col[hit])), shape=(n_states, s + 1))
        step = ~hit
        src, dst, w = src[step], self.index[to_a[step], to_b[step]], w[step]
        diag = np.arange(n_states)
        self.system = sp.csc_matrix(
            (
                np.concatenate([np.ones(n_states), -w]),
                (np.concatenate([diag, src]), np.concatenate([diag, dst])),
            ),
            shape=(n_states, n_states),
        )
        self.lu = splu(self.system, permc_spec="MMD_AT_PLUS_A")

    def solve_transposed(self, rhs):
        """One checked solve of A^T z = rhs."""
        z = self.lu.solve(rhs, trans="T")
        check_residual(
            "meeting-kernel solve", float(np.abs(self.system.T @ z - rhs).max()), MAX_RESIDUAL
        )
        return z

    def masses(self, x, y):
        """Rows (x, y) of A^-1 R, one column per meeting position n = 1..S, then death."""
        rows = self.index[np.asarray(x), np.asarray(y)]
        out = []
        for block in np.array_split(rows, -(-len(rows) // 64)):  # 64 unit vectors a solve
            unit = np.zeros((self.system.shape[0], len(block)))
            unit[block, np.arange(len(block))] = 1.0
            out.append((self.rhs.T @ self.solve_transposed(unit)).T)
        return np.vstack(out)


@functools.lru_cache(maxsize=4)
def meeting_system(size):
    return MeetingSystem(size)


def first_meeting_kernel(params, x, y):
    """Distribution of the lower position at the pair's first distance-1 state.

    One transposed solve of the sparse first-meeting system; the dense
    oracle above checks it independently.
    """
    s = params.size
    if s < 3:
        raise ValidationError("meeting kernel needs size >= 3")
    ladder._check_start(s, x, y)
    row = meeting_system(s).masses([x], [y])[0]
    mass = np.zeros(s + 1)
    mass[1:] = row[:s]
    return MeetingKernel(start=(x, y), mass=mass, no_meet_mass=float(row[s]))


def lu_ladder(size, x0, y0, k_max):
    """Meeting factors and ladder, as dense_ladder, from the sparse system's masses."""
    x = np.append(np.arange(1, size), x0)
    y = np.append(np.arange(3, size + 2), y0)
    masses = meeting_system(size).masses(x, y)[:, : size - 1]
    return _ladder_from_masses(size, x0, y0, k_max, masses[-1], masses[:-1])


def cluster_decompose(points):
    """Split a strictly increasing point set into maximal consecutive runs.

    Example: (2, 3, 7) -> [(2, 3), (7,)].
    """
    pts = tuple(int(p) for p in points)
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValidationError(f"points must be strictly increasing, got {pts}")
    clusters = []
    run = []
    for p in pts:
        if run and p != run[-1] + 1:
            clusters.append(tuple(run))
            run = []
        run.append(p)
    if run:
        clusters.append(tuple(run))
    return clusters


def moment_structure(size, k):
    """Subsets, A and B matrices and the most clusters of one moment level, by loops.

    Row by row over the ordered k-subsets, with dict lookups: per cluster,
    the left endpoint shifted down and the right endpoint shifted up enter
    with +1 against -2 on the diagonal; a shift onto site 0 vanishes, one
    onto S+1 enters B at the level-(k-1) subset of the other points.
    """
    subsets = tuple(itertools.combinations(range(1, size + 1), k))
    index = {pts: i for i, pts in enumerate(subsets)}
    lower = itertools.combinations(range(1, size + 1), k - 1)
    lower_index = {pts: i for i, pts in enumerate(lower)}
    rows_a, cols_a, vals_a, rows_b, cols_b = [], [], [], [], []
    max_p = 0
    for i, pts in enumerate(subsets):
        clusters = cluster_decompose(pts)
        max_p = max(max_p, len(clusters))
        rows_a.append(i)
        cols_a.append(i)
        vals_a.append(-2.0 * len(clusters))
        members = set(pts)
        for cl in clusters:
            lo, hi = cl[0], cl[-1]
            if lo - 1 >= 1:
                rows_a.append(i)
                cols_a.append(index[tuple(sorted(members - {lo} | {lo - 1}))])
                vals_a.append(1.0)
            if hi + 1 <= size:
                rows_a.append(i)
                cols_a.append(index[tuple(sorted(members - {hi} | {hi + 1}))])
                vals_a.append(1.0)
            else:
                rows_b.append(i)
                cols_b.append(lower_index[tuple(x for x in pts if x != hi)])
    n = len(subsets)
    a = sp.coo_matrix((vals_a, (rows_a, cols_a)), shape=(n, n)).tocsr()
    b = sp.coo_matrix(
        (np.ones(len(rows_b)), (rows_b, cols_b)), shape=(n, len(lower_index))
    ).tocsr()
    return subsets, a, b, max_p


def apply_swap(config, bond):
    """Fire one bond of a Configuration and return the resulting one.

    Interior bonds exchange the endpoint values. Bond 0 sets site 1 empty,
    bond S sets site S occupied; both reduce to an exchange with the pinned
    reservoir value.
    """
    s = config.size
    if not 0 <= bond <= s:
        raise ValidationError(f"bond must lie in [0, {s}], got {bond}")
    return Configuration.from_interior(swap_result(config.interior(), bond, s))


def enabled_bonds(config):
    """Bonds whose firing changes the configuration (unequal endpoint values)."""
    occ = config.occupancy
    return {s for s in range(config.size + 1) if occ[s] != occ[s + 1]}


_JUMP_CAP = 1_000_000_000


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
    """How one family ended, its pair meetings and its jump count."""

    result: DualResult
    meeting_count: int
    total_jumps: int
    final: DualState


def simulate_dual(params, initial, rng):
    """Run one family to absorption on the embedded jump chain.

    Only state-changing moves are enumerated: each free walker can hop to an
    empty neighbour site, die off the left end, or freeze off the right end,
    all with equal weight. For two walkers the number of entries into
    distance 1 (while both are free) is recorded.
    """
    s = params.size
    free = list(validate_point_set(initial, s, interior_only=True))
    k = len(free)
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
        kind, i = moves[rng.integers(0, len(moves))]
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


def walker_move(positions, u, size):
    """One uniformized move of a dual walker family, by direct case analysis.

    Draw u picks walker u // 2, which steps right if u is odd and left if it
    is even. A walker at S+1 is frozen and stays. A hop onto a bulk site held
    by another walker is refused; frozen walkers at S+1 do not exclude. A
    walker stepping from 1 to 0 dies there, and with it the family. Returns
    the new positions and whether the family died.
    """
    walker, right = divmod(u, 2)
    pos = list(positions)
    here = pos[walker]
    if here == size + 1:
        return tuple(pos), False
    there = here + 1 if right else here - 1
    others = pos[:walker] + pos[walker + 1 :]
    if 1 <= there <= size and there in others:
        return tuple(pos), False
    pos[walker] = there
    return tuple(pos), there == 0


def reflected_walk_reference(size, coins, start=1):
    """The reflected walk behind gamma_k, one coin at a time.

    The walk starts at `start` (1 for gamma_k) on {0..S}: coin 1 steps up,
    coin 0 steps down, and from 0 the step goes to 1 whatever the coin. It
    stops at S, and coins after that are ignored. Returns (position, returns
    to 0, moves made).
    """
    pos, returns, moves = start, 0, 0
    for coin in coins:
        if pos == size:
            break
        pos = 1 if pos == 0 else pos + (1 if coin else -1)
        returns += pos == 0
        moves += 1
    return pos, returns, moves


def walk_chunk_reference(p, coins, n, size):
    """ladder._walk_chunk one move at a time across all walkers, in place.

    Move j reads bit j of a walker's uint64 words, low first, as p <- |p + 2
    coin - 1|; a walker reaching S parks at S + n + 1, above S for the rest
    of the n moves. p must be a signed dtype that holds S + 2n + 1. Returns
    each walker's returns to 0.
    """
    octets = np.ascontiguousarray(coins.astype("<u8", copy=False).view(np.int8).T)
    returns = np.zeros(p.size, dtype=np.int8)
    for j in range(n):
        p += 2 * (octets[j >> 3] >> (j & 7) & 1) - 1
        np.abs(p, out=p)
        returns += p == 0
        np.putmask(p, p == size, size + n + 1)
    return returns


def sorted_poisson_quotas(gen, mean, n):
    """Sorted Poisson(mean) round counts of n replicas, one multinomial draw.

    The draw is the one of core.poisson_rounds, over the same values and
    weights, expanded to one count per replica.
    """
    half = 40 * math.sqrt(mean) + 40
    values = np.arange(max(0, math.floor(mean - half)), math.ceil(mean + half) + 1)
    logw = np.cumsum(np.log(mean / np.maximum(values, 1)))
    w = np.exp(logw - logw.max())
    return np.repeat(values, gen.multinomial(n, w / w.sum()))
