import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import expm_state_distribution, moment_from_distribution, moment_structure
from sepsim.core import Configuration, ModelParams, default_initial_configuration
from sepsim.dual import pair_absorption_exact, stationary_moment
from sepsim.errors import ResourceError, ValidationError
from sepsim.exact import exact_moment, stationary_distribution
from sepsim.forward import transient_moment
from sepsim.moments import (
    MomentField,
    MomentSystem,
    _closed_form,
    build_moment_system,
    field_from_configuration,
    integrate_moments,
    stationary_moments,
)


def test_level_one_is_dirichlet_laplacian():
    sys1 = build_moment_system(ModelParams(size=5), 1)
    a = sys1.a_matrix.toarray()
    assert np.array_equal(np.diag(a), -2 * np.ones(5))
    for i in range(5):
        for j in range(5):
            if abs(i - j) == 1:
                assert a[i, j] == 1.0
            elif i != j:
                assert a[i, j] == 0.0
    b = sys1.b_matrix.toarray()
    want = np.zeros((5, 1))
    want[4, 0] = 1.0  # right shift from site 5 injects the constant 1
    assert np.array_equal(b, want)


def test_adjacent_pair_row_structure():
    # {n, n+1} is one cluster: two neighbor terms and diagonal -2.
    sys2 = build_moment_system(ModelParams(size=6), 2)
    i = sys2.rank((3, 4))
    row = sys2.a_matrix.toarray()[i]
    assert row[i] == -2.0
    assert row[sys2.rank((2, 4))] == 1.0
    assert row[sys2.rank((3, 5))] == 1.0
    assert row.sum() == 0.0
    assert sys2.b_matrix.toarray()[i].sum() == 0.0


def test_separated_pair_row_structure():
    # {x, y} with y > x+1 has two clusters: four neighbors, diagonal -4.
    sys2 = build_moment_system(ModelParams(size=6), 2)
    i = sys2.rank((2, 5))
    row = sys2.a_matrix.toarray()[i]
    assert row[i] == -4.0
    for tgt in ((1, 5), (3, 5), (2, 4), (2, 6)):
        assert row[sys2.rank(tgt)] == 1.0


def test_boundary_rows_route_to_sink_and_source():
    sys2 = build_moment_system(ModelParams(size=6), 2)
    # {1, 4}: the left shift of 1 hits the empty reservoir and vanishes
    i = sys2.rank((1, 4))
    row = sys2.a_matrix.toarray()[i]
    assert row[i] == -4.0
    assert row.sum() == -1.0
    # {2, 6}: the right shift of 6 couples to the level-1 moment at 2
    j = sys2.rank((2, 6))
    brow = sys2.b_matrix.toarray()[j]
    assert brow[sys2.lower.rank((2,))] == 1.0
    assert brow.sum() == 1.0


def _same_matrix(x, y):
    # The nonzero slots hold the oracle's entries, row by row in ascending
    # column order.
    y = y.tocsr()
    y.sort_indices()
    held = x.coef != 0
    return (
        x.shape == y.shape
        and np.array_equal(x.cols[held], y.indices)
        and np.array_equal(x.coef[held], y.data)
    )


def _assert_matches_loop_oracle(size, k):
    for level in build_moment_system(ModelParams(size=size), k).chain():
        subsets, a, b, max_p = moment_structure(size, level.k)
        assert level.subsets == subsets
        assert _same_matrix(level.a_matrix, a)
        assert _same_matrix(level.b_matrix, b)
        assert level.max_clusters == max_p


@st.composite
def _size_and_level(draw):
    size = draw(st.integers(1, 14))
    return size, draw(st.integers(1, min(4, size)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_size_and_level())
def test_array_hierarchy_matches_loop_oracle(case):
    _assert_matches_loop_oracle(*case)


@pytest.mark.parametrize("size,k", [(600, 2), (100, 3)])
def test_array_hierarchy_matches_loop_oracle_at_large_size(size, k):
    _assert_matches_loop_oracle(size, k)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 30), st.integers(1, 4))
def test_rank_round_trips(size, k):
    system = build_moment_system(ModelParams(size=size), min(k, size))
    for level in system.chain():
        assert np.array_equal(level.rank(level.points), np.arange(len(level.points)))
        assert level.rank(level.points[-1]) == len(level.points) - 1


@pytest.mark.parametrize("size,k", [(600, 2), (100, 3), (20, 10), (20, 15)])
def test_stationary_moments_equal_scalar_closed_form(size, k):
    # (20, 15) takes the row-by-row route from level 14 on; rows are sampled
    # on levels of more than 5000 subsets
    rng = np.random.default_rng(size * k)
    field = stationary_moments(build_moment_system(ModelParams(size=size), k))
    while field is not None:
        n = len(field.values)
        rows = np.sort(rng.choice(n, 5000, replace=False)) if n > 5000 else np.arange(n)
        want = [stationary_moment(size, pts) for pts in field.system.points[rows].tolist()]
        assert np.array_equal(field.values[rows], want)
        field = field.lower


def test_closed_form_falls_back_where_int64_wraps():
    # (30, 25) is past the subset cap, so its rows are drawn, not enumerated
    rng = np.random.default_rng(5)
    rows = np.sort([rng.choice(30, 25, replace=False) + 1 for _ in range(200)])
    want = [stationary_moment(30, pts) for pts in rows.tolist()]
    assert np.array_equal(_closed_form(30, rows), want)


def test_matrices_are_built_only_when_read(monkeypatch):
    import sepsim.moments

    def refuse(size, k):
        raise AssertionError("matrix built")

    monkeypatch.setattr(sepsim.moments, "_structure", refuse)
    p = ModelParams(size=7)
    system = build_moment_system(p, 3)
    stationary_moments(system)
    field_from_configuration(system, default_initial_configuration(p))
    with pytest.raises(AssertionError):
        system.a_matrix


def test_build_validation_and_cap():
    with pytest.raises(ValidationError):
        build_moment_system(ModelParams(size=4), 0)
    with pytest.raises(ValidationError):
        build_moment_system(ModelParams(size=4), 5)
    with pytest.raises(ResourceError):
        build_moment_system(ModelParams(size=60), 5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_size_and_level(), st.integers(0, 2**32 - 1))
def test_field_holds_one_array_per_level(case, seed):
    size, k = case
    system = build_moment_system(ModelParams(size=size), k)
    bits = np.random.default_rng(seed).integers(0, 2, size)
    occ = np.concatenate(([0], bits, [1])).astype(bool)
    config = Configuration.from_interior_string("".join(map(str, bits)))
    stat, start = stationary_moments(system), field_from_configuration(system, config)
    for field in (stat, start):
        assert len(field.levels) == k
        for level, values in zip(system.chain(), field.levels):
            assert values.shape == (math.comb(size, level.k),)
        # walking .lower from the top gives back the same arrays, top first
        node = field
        for level, values in zip(system.chain()[::-1], field.levels[::-1]):
            assert node.system == level and node.k == level.k and node.values is values
            node = node.lower
        assert node is None
    # level j lists its values in the order of that level's points
    for level, on, fixed in zip(system.chain(), start.levels, stat.levels):
        assert np.array_equal(on, occ[level.points].all(axis=1))
        assert np.array_equal(fixed, [stationary_moment(size, p) for p in level.subsets])
    # an equal system built separately drives the same integration
    twin = build_moment_system(ModelParams(size=size, seed=seed + 1), k)
    assert twin == system and twin is not system
    out = integrate_moments(twin, start, 0.1)
    assert out.system == system and len(out.levels) == k


def test_direct_construction_is_checked():
    for size, k in [(4, 0), (4, 5), (1, 2), (3, -1)]:
        with pytest.raises(ValidationError):
            MomentSystem(size, k)
    # the cap holds at every level, not only the top one
    for size, k in [(60, 5), (60, 58)]:
        with pytest.raises(ResourceError):
            MomentSystem(size, k)
    with pytest.raises(ValidationError):
        MomentField(MomentSystem(5, 2), None, (np.zeros(5),))


def test_stationary_level_one_is_linear():
    for size in (1, 4, 9):
        sys1 = build_moment_system(ModelParams(size=size), 1)
        field = stationary_moments(sys1)
        target = np.arange(1, size + 1) / (size + 1)
        assert np.abs(field.values - target).max() < 1e-10


def test_stationary_pair_hand_value_s2():
    sys2 = build_moment_system(ModelParams(size=2), 2)
    field = stationary_moments(sys2)
    assert abs(field.value((1, 2)) - 1 / 6) < 1e-10


@pytest.mark.parametrize("size", [2, 3, 5, 7])
def test_stationary_pairs_match_exact_and_dual(size):
    p = ModelParams(size=size)
    field = stationary_moments(build_moment_system(p, 2))
    pi = stationary_distribution(p.size)
    pa = pair_absorption_exact(p)
    for x in range(1, size):
        for y in range(x + 1, size + 1):
            v = field.value((x, y))
            assert abs(v - exact_moment(pi, (x, y))) < 1e-9
            assert abs(v - pa.value(x, y)) < 1e-9


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 80))
def test_stationary_pairs_match_closed_form(size):
    # Spohn's closed form: m1 = x/(S+1), m2 = xy/(S+1)^2 - x(S+1-y)/(S(S+1)^2)
    field = stationary_moments(build_moment_system(ModelParams(size=size), 2))
    x = np.arange(1, size + 1)
    assert np.abs(field.lower.values - x / (size + 1)).max() < 1e-12
    xs, ys = np.array(field.system.subsets).T
    n = size + 1
    m2 = xs * ys / n**2 - xs * (n - ys) / (size * n**2)
    assert np.abs(field.values - m2).max() < 1e-12


def test_stationary_third_order_matches_exact():
    # The hierarchy is generic in k; spot-check one k=3 solve.
    p = ModelParams(size=5)
    field = stationary_moments(build_moment_system(p, 3))
    pi = stationary_distribution(p.size)
    for pts in [(1, 2, 3), (1, 3, 5), (2, 4, 5)]:
        assert abs(field.value(pts) - exact_moment(pi, pts)) < 1e-9


def test_field_from_configuration():
    p = ModelParams(size=4)
    sys2 = build_moment_system(p, 2)
    f = field_from_configuration(sys2, Configuration.from_interior_string("1010"))
    assert f.value((1, 3)) == 1.0
    assert f.value((1, 2)) == 0.0
    assert f.lower.value((3,)) == 1.0
    assert f.lower.value((4,)) == 0.0
    assert f.time == 0.0


def test_integrate_from_stationary_is_fixed_point():
    sys2 = build_moment_system(ModelParams(size=5), 2)
    stat = stationary_moments(sys2)
    out = integrate_moments(sys2, stat, 10.0)
    assert np.abs(out.values - stat.values).max() < 1e-8
    assert np.abs(out.lower.values - stat.lower.values).max() < 1e-8


def test_integrate_relaxes_to_linear_profile():
    p = ModelParams(size=4)
    sys1 = build_moment_system(p, 1)
    start = field_from_configuration(sys1, Configuration.from_interior_string("0000"))
    out = integrate_moments(sys1, start, 120.0)
    target = np.arange(1, 5) / 5
    assert np.abs(out.values - target).max() < 1e-8


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_integrate_matches_expm_oracle(t):
    p = ModelParams(size=5)
    sys2 = build_moment_system(p, 2)
    c0 = default_initial_configuration(p)
    out = integrate_moments(sys2, field_from_configuration(sys2, c0), t, dt_max=2e-4)
    dist = expm_state_distribution(5, c0.interior(), t)
    for pts in [(1, 2), (2, 4), (3, 5)]:
        want = moment_from_distribution(dist, pts, 5)
        assert abs(out.value(pts) - want) < 5e-4


def test_integrate_matches_forward_mc():
    p = ModelParams(size=10, seed=23)
    sys2 = build_moment_system(p, 2)
    c0 = default_initial_configuration(p)
    for t in (1.0, 5.0):
        out = integrate_moments(sys2, field_from_configuration(sys2, c0), t, dt_max=1e-3)
        est, se = transient_moment(p, c0, t, (3, 7), 50_000, p.stream(int(t)))
        assert abs(out.value((3, 7)) - est) < 3.5 * se


def test_integrate_keeps_bounds():
    p = ModelParams(size=6)
    sys2 = build_moment_system(p, 2)
    start = field_from_configuration(sys2, Configuration.from_interior_string("111111"))
    out = integrate_moments(sys2, start, 30.0)
    for f in (out, out.lower):
        assert f.values.min() >= -1e-9
        assert f.values.max() <= 1 + 1e-9


def test_integrate_validation():
    sys2 = build_moment_system(ModelParams(size=4), 2)
    sys1 = build_moment_system(ModelParams(size=4), 1)
    f2 = field_from_configuration(sys2, Configuration.from_interior_string("1010"))
    with pytest.raises(ValidationError):
        integrate_moments(sys1, f2, 1.0)
    with pytest.raises(ValidationError):
        integrate_moments(sys2, f2, -1.0)
    with pytest.raises(ValidationError):
        integrate_moments(sys2, f2, 1.0, dt_max=0.0)


def test_field_value_validation():
    sys2 = build_moment_system(ModelParams(size=4), 2)
    f = stationary_moments(sys2)
    with pytest.raises(ValidationError):
        f.value((2, 2))
    with pytest.raises(ValidationError):
        f.value((0, 3))
    with pytest.raises(ValidationError):
        f.value((2,))


def test_integration_step_cap(monkeypatch):
    import sepsim.moments

    p = ModelParams(size=4)
    system = build_moment_system(p, 2)
    start = field_from_configuration(system, default_initial_configuration(p))
    # Two clusters give dt = 1/8, so t = 1 takes exactly 8 steps.
    monkeypatch.setattr(sepsim.moments, "ROUND_CAP", 8)
    integrate_moments(system, start, 1.0)
    with pytest.raises(ResourceError):
        integrate_moments(system, start, 1.125)
    with pytest.raises(ValidationError):
        integrate_moments(system, start, float("nan"))
