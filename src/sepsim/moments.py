"""Closed linear ODE hierarchy for the k-point occupation moments.

The time derivative of E[product of occupancies over a k-subset] involves only
k-subsets again: per maximal cluster of consecutive points, the left endpoint
shifted down one site and the right endpoint shifted up one site enter with
coefficient +1, against a diagonal -2 per cluster. A shifted point landing on
site 0 contributes zero; one landing on S+1 contributes the level-(k-1)
moment of the remaining points, which for k = 1 is the constant 1. The
hierarchy is therefore lower-triangular in k and is built and integrated
bottom-up. Its stationary field is the closed form of dual.stationary_moment,
so nothing is solved for it; time integration uses explicit Euler steps,
whose error is first order in the step size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .core import ROUND_CAP, Configuration, ModelParams, cluster_decompose
from .dual import stationary_moment
from .errors import NumericError, ResourceError, ValidationError

MAX_SUBSET_COUNT = 200_000
_BOUNDS_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class MomentSystem:
    """Linear generator of one moment level plus its boundary source.

    a_matrix holds the closed part (off-diagonal +1 shifts, diagonal -2 per
    cluster); b_matrix maps the level-(k-1) moment vector to the source terms
    created by right shifts onto S+1. Time is in units of the bond rate, so
    a m + b m_lower is the time derivative itself. lower chains down to level
    1, whose source level has the single state m_0 = 1.
    """

    params: ModelParams
    k: int
    subsets: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    a_matrix: sp.csr_matrix
    b_matrix: sp.csr_matrix
    lower: "MomentSystem | None"
    max_clusters: int

    def chain(self) -> list["MomentSystem"]:
        """Systems from level 1 up to this level."""
        out: list[MomentSystem] = []
        node: MomentSystem | None = self
        while node is not None:
            out.append(node)
            node = node.lower
        out.reverse()
        return out


@dataclass(frozen=True, eq=False)
class MomentField:
    """Moment values over the ordered k-subsets at one time.

    time is None for stationary fields. lower chains down to level 1 so the
    hierarchy can be advanced jointly.
    """

    k: int
    time: float | None
    values: np.ndarray
    system: MomentSystem
    lower: "MomentField | None"

    def value(self, points) -> float:
        key = tuple(int(p) for p in points)
        if key not in self.system.index:
            raise ValidationError(
                f"{key} is not an ordered {self.k}-subset of the interior"
            )
        return float(self.values[self.system.index[key]])


@lru_cache(maxsize=32)
def _structure(size: int, k: int):
    """Subset enumeration and unscaled matrices for one (size, level)."""
    subsets = tuple(itertools.combinations(range(1, size + 1), k))
    index = {pts: i for i, pts in enumerate(subsets)}
    if k == 1:
        lower_index = {(): 0}
        n_lower = 1
    else:
        lower_subsets = tuple(itertools.combinations(range(1, size + 1), k - 1))
        lower_index = {pts: i for i, pts in enumerate(lower_subsets)}
        n_lower = len(lower_subsets)
    rows_a: list[int] = []
    cols_a: list[int] = []
    vals_a: list[float] = []
    rows_b: list[int] = []
    cols_b: list[int] = []
    max_p = 0
    for i, pts in enumerate(subsets):
        clusters = cluster_decompose(pts)
        p = len(clusters)
        max_p = max(max_p, p)
        rows_a.append(i)
        cols_a.append(i)
        vals_a.append(-2.0 * p)
        members = set(pts)
        for cl in clusters:
            lo, hi = cl[0], cl[-1]
            if lo - 1 >= 1:
                tgt = tuple(sorted(members - {lo} | {lo - 1}))
                rows_a.append(i)
                cols_a.append(index[tgt])
                vals_a.append(1.0)
            # lo - 1 == 0: the shifted moment vanishes, only the diagonal remains
            if hi + 1 <= size:
                tgt = tuple(sorted(members - {hi} | {hi + 1}))
                rows_a.append(i)
                cols_a.append(index[tgt])
                vals_a.append(1.0)
            else:
                rows_b.append(i)
                cols_b.append(lower_index[tuple(x for x in pts if x != hi)])
    n = len(subsets)
    a = sp.coo_matrix((vals_a, (rows_a, cols_a)), shape=(n, n)).tocsr()
    b = sp.coo_matrix(
        (np.ones(len(rows_b)), (rows_b, cols_b)), shape=(n, n_lower)
    ).tocsr()
    return subsets, index, a, b, max_p


def build_moment_system(params: ModelParams, k: int) -> MomentSystem:
    """Build the moment hierarchy down from level k to level 1."""
    if not 1 <= k <= params.size:
        raise ValidationError(
            f"k must lie in [1, {params.size}], got {k}"
        )
    for level in range(1, k + 1):
        if math.comb(params.size, level) > MAX_SUBSET_COUNT:
            raise ResourceError(
                f"level {level} needs {math.comb(params.size, level)} subsets, "
                f"cap is {MAX_SUBSET_COUNT}"
            )
    system: MomentSystem | None = None
    for level in range(1, k + 1):
        subsets, index, a, b, max_p = _structure(params.size, level)
        system = MomentSystem(
            params=params,
            k=level,
            subsets=subsets,
            index=index,
            a_matrix=a,
            b_matrix=b,
            lower=system,
            max_clusters=max_p,
        )
    assert system is not None
    return system


def field_from_configuration(system: MomentSystem, config: Configuration) -> MomentField:
    """Indicator moments of a deterministic configuration, whole chain, t=0."""
    if config.size != system.params.size:
        raise ValidationError(
            f"configuration size {config.size} does not match system size "
            f"{system.params.size}"
        )
    occ = config.occupancy
    field: MomentField | None = None
    for sys_l in system.chain():
        vals = np.array(
            [1.0 if all(occ[p] for p in pts) else 0.0 for pts in sys_l.subsets]
        )
        field = MomentField(
            k=sys_l.k, time=0.0, values=vals, system=sys_l, lower=field
        )
    assert field is not None
    return field


def stationary_moments(system: MomentSystem) -> MomentField:
    """Stationary moment field of the system's level and every level below.

    Each value is the closed form of dual.stationary_moment, the solution of
    a m + b m_lower = 0 at every level. It depends only on the lattice size.
    """
    size = system.params.size
    field: MomentField | None = None
    for sys_l in system.chain():
        m = np.array([stationary_moment(size, pts) for pts in sys_l.subsets])
        field = MomentField(k=sys_l.k, time=None, values=m, system=sys_l, lower=field)
    assert field is not None
    return field


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
    if initial.k != system.k or initial.system.params.size != system.params.size:
        raise ValidationError("initial field does not match the system")
    if dt_max <= 0:
        raise ValidationError(f"dt_max must be positive, got {dt_max}")
    if not math.isfinite(t):
        raise ValidationError(f"target time must be finite, got {t}")
    t0 = initial.time if initial.time is not None else 0.0
    if t < t0:
        raise ValidationError(f"target time {t} is before the field time {t0}")
    systems = system.chain()
    fields = initial
    vals: list[np.ndarray] = []
    node: MomentField | None = fields
    while node is not None:
        vals.append(node.values.copy())
        node = node.lower
    vals.reverse()
    if len(vals) != len(systems):
        raise ValidationError("initial field chain does not reach level 1")
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
        for _ in range(n_steps):
            lowers = [np.ones(1)] + vals[:-1]
            derivs = [
                s.a_matrix @ v + s.b_matrix @ w for s, v, w in zip(systems, vals, lowers)
            ]
            for v, dv in zip(vals, derivs):
                v += dt * dv
        for v in vals:
            if float(v.min()) < -_BOUNDS_SLACK or float(v.max()) > 1.0 + _BOUNDS_SLACK:
                raise NumericError(
                    "moment integration left [0, 1]; reduce dt_max"
                )
    out: MomentField | None = None
    for sys_l, v in zip(systems, vals):
        out = MomentField(k=sys_l.k, time=t, values=v, system=sys_l, lower=out)
    assert out is not None
    return out
