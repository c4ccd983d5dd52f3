"""Closed linear ODE hierarchy for the k-point occupation moments.

The time derivative of E[product of occupancies over a k-subset] involves only
k-subsets again: per maximal cluster of consecutive points, the left endpoint
shifted down one site and the right endpoint shifted up one site enter with
coefficient +1, against a diagonal -2 per cluster. A shifted point landing on
site 0 contributes zero; one landing on S+1 contributes the level-(k-1)
moment of the remaining points, which for k = 1 is the constant 1. The
hierarchy is therefore lower-triangular in k and is built and integrated
bottom-up. A system is its lattice size and top level k, from which its
levels, their ordered subsets and their matrices are derived; a field holds
one value array per level, level 1 first. A level holds its ordered k-subsets
as the rows of one (n, k) int array in lex order, and a subset's row is its
lex rank. The matrices are built on first use, from cluster ends read off
rows padded with sentinels and from the ranks of the shifted rows, and held
as numpy arrays of column indices and coefficients, one row per row. The
stationary field is the closed form of dual.stationary_moment, so nothing is
solved or built for it; time integration uses explicit Euler steps, whose
error is first order in the step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import ROUND_CAP, Configuration, ModelParams
from .dual import stationary_moment
from .errors import NumericError, ResourceError, ValidationError

MAX_SUBSET_COUNT = 200_000
_BOUNDS_SLACK = 1e-9
_EXACT_FLOAT = 2**53  # every integer below it is a float64


@dataclass(frozen=True)
class MomentSystem:
    """Linear generator of one moment level plus its boundary source.

    points holds the ordered k-subsets, one per row, in lexicographic order.
    a_matrix holds the closed part (off-diagonal +1 shifts, diagonal -2 per
    cluster); b_matrix maps the level-(k-1) moment vector to the source terms
    created by right shifts onto S+1. Time is in units of the bond rate, so
    a m + b m_lower is the time derivative itself. Level 1's source level has
    the single state m_0 = 1. Systems of equal size and k are equal.
    """

    size: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.size:
            raise ValidationError(f"k must lie in [1, {self.size}], got {self.k}")
        for level in range(1, self.k + 1):
            if (n := math.comb(self.size, level)) > MAX_SUBSET_COUNT:
                raise ResourceError(
                    f"level {level} needs {n} subsets, cap is {MAX_SUBSET_COUNT}"
                )

    @property
    def points(self) -> np.ndarray:
        return _subsets(self.size, self.k)

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        """The rows of points as tuples."""
        return tuple(map(tuple, self.points.tolist()))

    @property
    def a_matrix(self) -> "RowMatrix":
        return _structure(self.size, self.k)[0]

    @property
    def b_matrix(self) -> "RowMatrix":
        return _structure(self.size, self.k)[1]

    @property
    def max_clusters(self) -> int:
        return _structure(self.size, self.k)[2]

    @property
    def lower(self) -> "MomentSystem | None":
        return MomentSystem(self.size, self.k - 1) if self.k > 1 else None

    def rank(self, points) -> np.ndarray:
        """Row of each ordered k-subset of 1..S: one subset, or an (m, k) array."""
        rows, s, k = np.asarray(points, dtype=np.int64), self.size, self.k
        if rows.ndim not in (1, 2) or rows.shape[-1] != k or not (
            (rows >= 1).all() and (rows <= s).all() and (np.diff(rows) > 0).all()
        ):
            raise ValidationError(f"{points} is not an ordered {k}-subset of the interior")
        return _rank(s, rows.reshape(-1, k)).reshape(rows.shape[:-1])

    def chain(self) -> list["MomentSystem"]:
        """Systems from level 1 up to this level."""
        return [MomentSystem(self.size, level) for level in range(1, self.k + 1)]


class RowMatrix(NamedTuple):
    """Row i holds coef[i, j] at column cols[i, j]; nonzero ones' columns ascend."""

    cols: np.ndarray
    coef: np.ndarray
    shape: tuple[int, int]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """Each row summed from 0.0 in slot order, so in ascending column order."""
        out = np.zeros(len(self.cols))
        for cols, coef in zip(self.cols.T, self.coef.T):
            out += coef * v[cols]
        return out

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.add.at(dense, (np.arange(len(self.cols))[:, None], self.cols), self.coef)
        return dense


@dataclass(frozen=True, eq=False)
class MomentField:
    """Moment values of every level of a system at one time.

    levels holds one value array per level, level 1 first, each over that
    level's ordered subsets. time is None for stationary fields.
    """

    system: MomentSystem
    time: float | None
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != self.system.k:
            raise ValidationError(f"{len(self.levels)} levels for a level-{self.k} system")

    @property
    def k(self) -> int:
        return self.system.k

    @property
    def values(self) -> np.ndarray:
        return self.levels[-1]

    @property
    def lower(self) -> "MomentField | None":
        below = self.system.lower
        return None if below is None else MomentField(below, self.time, self.levels[:-1])

    def value(self, points) -> float:
        return float(self.values[self.system.rank(points)])


@lru_cache(maxsize=32)
def _subsets(size: int, k: int) -> np.ndarray:
    """Ordered k-subsets of 1..S as the rows of an (n, k) array, in lex order.

    Each row of level k-1 is extended by every larger last point, in order.
    """
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    rows = _subsets(size, k - 1)
    last = rows[:, -1] if k > 1 else np.zeros(1, dtype=np.int64)
    counts = size - last
    ends = np.cumsum(counts)
    out = np.empty((int(ends[-1]), k), dtype=np.int64)
    out[:, :-1] = np.repeat(rows, counts, axis=0)
    out[:, -1] = np.arange(len(out)) + np.repeat(last + 1 - ends + counts, counts)
    out.flags.writeable = False
    return out


def _rank(size: int, rows: np.ndarray) -> np.ndarray:
    """Lex rank of each row among the ordered k-subsets of 1..S.

    With b_i the sorted S - x_j, the rank is C(S, k) - 1 - sum_i C(b_i, i+1).
    """
    k = rows.shape[1]
    comb = np.zeros((size + 1, k + 1), dtype=np.int64)  # comb[n, r] = C(n, r)
    comb[:, 0] = 1
    for r in range(1, k + 1):
        comb[1:, r] = np.cumsum(comb[:-1, r - 1])
    b = size - rows[:, ::-1]
    return comb[size, k] - 1 - comb[b, np.arange(1, k + 1)].sum(axis=1)


@lru_cache(maxsize=32)
def _structure(size: int, k: int):
    """Unscaled A and B matrices and the most clusters of a row, for one (size, level).

    A's slots are the left shifts of a row's points, first point first, its
    diagonal, and its right shifts, last point first, so the columns ascend;
    a shift that does not exist has a zero coefficient, which adds nothing.
    """
    rows = _subsets(size, k)
    n = len(rows)
    padded = np.pad(rows, ((0, 0), (1, 1)), constant_values=(-1, size + 2))
    gap = np.diff(padded) > 1
    first, last = gap[:, :-1], gap[:, 1:]  # point j starts, ends a cluster
    clusters = first.sum(axis=1)
    cols = np.zeros((n, 2 * k + 1), dtype=np.int64)
    coef = np.zeros(cols.shape)
    cols[:, k], coef[:, k] = np.arange(n), -2.0 * clusters
    # a left shift onto site 0 vanishes; a right shift onto S+1 feeds b
    for ends, step in ((first & (rows > 1), -1), (last & (rows < size), 1)):
        i, j = np.nonzero(ends)
        shifted = rows[i].copy()
        shifted[np.arange(len(i)), j] += step
        slot = k + step * (k - j)
        cols[i, slot], coef[i, slot] = _rank(size, shifted), 1.0
    fed = rows[:, -1] == size
    b_cols = np.zeros((n, 1), dtype=np.int64)
    if k > 1:
        b_cols[fed, 0] = _rank(size, rows[fed, :-1])
    b = RowMatrix(b_cols, fed[:, None].astype(np.float64), (n, math.comb(size, k - 1)))
    return RowMatrix(cols, coef, (n, n)), b, int(clusters.max())


def build_moment_system(params: ModelParams, k: int) -> MomentSystem:
    """The moment hierarchy of params' lattice up to level k."""
    return MomentSystem(params.size, k)


def field_from_configuration(system: MomentSystem, config: Configuration) -> MomentField:
    """Indicator moments of a deterministic configuration, every level, t=0."""
    if config.size != system.size:
        raise ValidationError(
            f"configuration size {config.size} does not match system size {system.size}"
        )
    occ = np.asarray(config.occupancy, dtype=bool)
    levels = tuple(occ[s.points].all(axis=1).astype(np.float64) for s in system.chain())
    return MomentField(system, 0.0, levels)


def stationary_moments(system: MomentSystem) -> MomentField:
    """Stationary moment field of the system's level and every level below.

    Each value is the closed form of dual.stationary_moment, the solution of
    a m + b m_lower = 0 at every level. It depends only on the lattice size.
    """
    levels = tuple(_closed_form(system.size, s.points) for s in system.chain())
    return MomentField(system, None, levels)


def _closed_form(size: int, rows: np.ndarray) -> np.ndarray:
    """dual.stationary_moment of every row of an (n, k) array of interior points.

    Below 2^53 the integer numerator prod_j (x_j - j), bounded by (S-k+1)^k,
    and denominator prod_j (S+1-j) are exact float64s, so one division rounds
    as stationary_moment does; past that, rows go through stationary_moment.
    """
    k = rows.shape[1]
    den = math.perm(size + 1, k)
    if den < _EXACT_FLOAT and (size - k + 1) ** k < _EXACT_FLOAT:
        return np.prod(rows - np.arange(k), axis=1) / den
    return np.array([stationary_moment(size, pts) for pts in rows.tolist()])


def integrate_moments(
    system: MomentSystem,
    initial: MomentField,
    t: float,
    dt_max: float = math.inf,
) -> MomentField:
    """Advance the coupled hierarchy to time t by explicit Euler steps.

    The step size is capped at 1/(2 max|diagonal|) of the operator, which
    keeps the explicit scheme stable; each level's source uses the lower
    level's value from the start of the step. A run needing more than
    core.ROUND_CAP steps is refused before the first one.
    """
    if initial.system != system:
        raise ValidationError("initial field does not match the system")
    if dt_max <= 0:
        raise ValidationError(f"dt_max must be positive, got {dt_max}")
    if not math.isfinite(t):
        raise ValidationError(f"target time must be finite, got {t}")
    t0 = initial.time if initial.time is not None else 0.0
    if t < t0:
        raise ValidationError(f"target time {t} is before the field time {t0}")
    systems = system.chain()
    vals = [v.copy() for v in initial.levels]
    duration = t - t0
    if duration > 0:
        max_diag = 2.0 * max(s.max_clusters for s in systems)
        steps = duration / min(dt_max, 1.0 / (2.0 * max_diag))
        if steps > ROUND_CAP:
            raise ResourceError(
                f"integration to t={t} needs {steps:.3g} steps, cap is {ROUND_CAP}"
            )
        n_steps = max(1, math.ceil(steps))
        dt = duration / n_steps
        mats = [(s.a_matrix, s.b_matrix) for s in systems]
        for _ in range(n_steps):
            lowers = [np.ones(1)] + vals[:-1]
            derivs = [a @ v + b @ w for (a, b), v, w in zip(mats, vals, lowers)]
            for v, dv in zip(vals, derivs):
                v += dt * dv
        for v in vals:
            if float(v.min()) < -_BOUNDS_SLACK or float(v.max()) > 1.0 + _BOUNDS_SLACK:
                raise NumericError("moment integration left [0, 1]; reduce dt_max")
    return MomentField(system, t, tuple(vals))
