"""Independent oracles for the test suite.

Everything here is written from first principles in a deliberately plain
style: states are occupancy tuples, generators are dense, Monte Carlo runs
are scalar per-replica loops. None of it shares code with the package, so
agreement is meaningful.
"""

import numpy as np
from scipy.linalg import expm, null_space


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


def stationary_null_space(size, rate=1.0):
    """Stationary distribution as the null space of the transposed generator."""
    q = dense_generator(size, rate)
    basis = null_space(q.T)
    assert basis.shape[1] == 1, "stationary distribution should be unique"
    pi = basis[:, 0]
    pi = pi / pi.sum()
    return pi


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
