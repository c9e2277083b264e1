"""Geometry kernel tests: closed-form values, invariants, and ODE cross-checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles

from geodescent import manifolds
from geodescent.manifolds import (
    Euclidean,
    FlatMetric,
    Hyperboloid,
    ManifoldError,
    Region,
    Sphere,
    TangentVector,
    UndefinedLogarithmError,
    dist,
    exp_map,
    inner,
    log_map,
    manifold_from_descriptor,
    parallel_transport,
    project_tangent,
    sample_point,
    tangent_basis,
)
from geodescent.selftest import base_point, catalog, rand_point, rand_tangent, tangent_cap


def e(i, n):
    out = np.zeros(n)
    out[i] = 1.0
    return out


# ---------------------------------------------------------------- exact values


def test_exp_euclidean_straight_line():
    m = Euclidean(2)
    x = m.point([1.0, 2.0])
    y = exp_map(x, TangentVector(x, [0.5, -1.0]))
    assert np.array_equal(y.coords, [1.5, 1.0])


def test_exp_flat_metric_straight_line():
    m = FlatMetric([[2.0, 0.0], [0.0, 3.0]])
    x = m.point([1.0, -1.0])
    y = exp_map(x, TangentVector(x, [0.25, 0.5]))
    assert np.array_equal(y.coords, [1.25, -0.5])


def test_exp_sphere_quarter_circle():
    m = Sphere(2)
    x = m.point(e(0, 3))
    y = exp_map(x, TangentVector(x, (math.pi / 2) * e(1, 3)))
    assert np.allclose(y.coords, e(1, 3), atol=1e-12)


def test_log_euclidean():
    m = Euclidean(2)
    v = log_map(m.point([0.0, 0.0]), m.point([3.0, 4.0]))
    assert np.array_equal(v.coords, [3.0, 4.0])


def test_log_sphere_quarter_circle():
    m = Sphere(2)
    v = log_map(m.point(e(0, 3)), m.point(e(1, 3)))
    assert np.allclose(v.coords, (math.pi / 2) * e(1, 3), atol=1e-12)


def test_log_at_same_point_is_zero():
    for m in catalog():
        x = rand_point(m, np.random.default_rng(0), 1.0)
        assert np.array_equal(log_map(x, x).coords, np.zeros(m.ambient_dim))


def test_dist_euclidean_pythagoras():
    m = Euclidean(2)
    assert dist(m.point([0.0, 0.0]), m.point([3.0, 4.0])) == 5.0


def test_dist_sphere_right_angle():
    m = Sphere(2)
    assert abs(dist(m.point(e(0, 3)), m.point(e(1, 3))) - math.pi / 2) < 1e-15


def test_dist_coincident_is_zero():
    for m in catalog():
        x = rand_point(m, np.random.default_rng(1), 1.0)
        assert dist(x, x) == 0.0


def test_transport_flat_is_identity():
    for m in (Euclidean(3), FlatMetric([[2.0, 0.3], [0.3, 1.5]])):
        rng = np.random.default_rng(2)
        x, y = rand_point(m, rng, 1.0), rand_point(m, rng, 1.0)
        v = rand_tangent(x, rng, 1.3)
        assert np.array_equal(parallel_transport(x, y, v).coords, v.coords)


def test_transport_sphere_along_quarter_circle():
    # velocity direction e2 at e1 rotates into -e1 at e2
    m = Sphere(2)
    x, y = m.point(e(0, 3)), m.point(e(1, 3))
    moved = parallel_transport(x, y, TangentVector(x, e(1, 3)))
    assert np.allclose(moved.coords, -e(0, 3), atol=1e-12)


def test_transport_to_same_point_is_identity():
    for m in catalog():
        rng = np.random.default_rng(3)
        x = rand_point(m, rng, 1.0)
        v = rand_tangent(x, rng, 0.7)
        assert np.allclose(parallel_transport(x, x, v).coords, v.coords, atol=1e-14)


def test_inner_euclidean_orthogonal():
    m = Euclidean(2)
    x = m.point([0.0, 0.0])
    assert inner(x, TangentVector(x, [1.0, 0.0]), TangentVector(x, [0.0, 1.0])) == 0.0


def test_inner_flat_metric_quadratic_form():
    m = FlatMetric([[2.0, 0.0], [0.0, 3.0]])
    x = m.point([0.0, 0.0])
    v = TangentVector(x, [1.0, 1.0])
    assert inner(x, v, v) == 5.0


def test_inner_matches_squared_distance_of_small_steps():
    for m in catalog():
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rand_point(m, rng, 1.0)
            v = rand_tangent(x, rng, 1e-3 * rng.random())
            d = dist(x, exp_map(x, v))
            assert abs(inner(x, v, v) - d * d) <= 1e-8


def test_project_tangent_euclidean_identity():
    m = Euclidean(2)
    x = m.point([1.0, 1.0])
    assert np.array_equal(project_tangent(x, [2.0, -3.0]).coords, [2.0, -3.0])


def test_project_tangent_sphere_removes_normal():
    m = Sphere(2)
    x = m.point(e(0, 3))
    assert np.allclose(project_tangent(x, e(0, 3) + e(1, 3)).coords, e(1, 3), atol=1e-15)


def test_project_tangent_idempotent_and_invariant():
    for m in catalog():
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rand_point(m, rng, 1.0)
            w = rng.standard_normal(m.ambient_dim)
            once = project_tangent(x, w)
            twice = project_tangent(x, once.coords)
            assert np.allclose(once.coords, twice.coords, atol=1e-12)


def test_tangent_basis_is_orthonormal():
    for m in catalog():
        x = rand_point(m, np.random.default_rng(6), 1.0)
        basis = tangent_basis(x)
        assert len(basis) == m.dim
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(inner(x, u, v) - expected) < 1e-12


# ------------------------------------------------------- independent oracles


def test_sphere_exp_matches_geodesic_ode():
    m = Sphere(2)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rand_point(m, rng, 1.0)
        v = rand_tangent(x, rng, 0.2 + 2.5 * rng.random())
        got = exp_map(x, v).coords
        want = oracles.sphere_exp_ode(x.coords, v.coords)
        assert np.linalg.norm(got - want) < 1e-8


def test_hyperboloid_exp_matches_geodesic_ode():
    m = Hyperboloid(2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rand_point(m, rng, 1.0)
        v = rand_tangent(x, rng, 0.2 + 2.5 * rng.random())
        got = exp_map(x, v).coords
        want = oracles.hyperboloid_exp_ode(x.coords, v.coords)
        assert np.linalg.norm(got - want) < 1e-8


def test_sphere_transport_matches_ode():
    m = Sphere(2)
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rand_point(m, rng, 1.0)
        v = rand_tangent(x, rng, 0.2 + 2.0 * rng.random())
        w = rand_tangent(x, rng, 1.0)
        got = parallel_transport(x, exp_map(x, v), w).coords
        want = oracles.sphere_transport_ode(x.coords, v.coords, w.coords)
        assert np.linalg.norm(got - want) < 1e-8


def test_hyperboloid_transport_matches_ode():
    m = Hyperboloid(2)
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rand_point(m, rng, 1.0)
        v = rand_tangent(x, rng, 0.2 + 2.0 * rng.random())
        w = rand_tangent(x, rng, 1.0)
        got = parallel_transport(x, exp_map(x, v), w).coords
        want = oracles.hyperboloid_transport_ode(x.coords, v.coords, w.coords)
        assert np.linalg.norm(got - want) < 1e-8


def test_sphere_distance_matches_law_of_cosines():
    m = Sphere(2)
    rng = np.random.default_rng(14)
    for _ in range(200):
        a, b, c = (rand_point(m, rng, 1.2) for _ in range(3))
        want = oracles.sphere_law_of_cosines(a.coords, b.coords, c.coords)
        assert abs(dist(a, c) - want) < 1e-10


def test_hyperboloid_distance_matches_law_of_cosines():
    m = Hyperboloid(2)
    rng = np.random.default_rng(15)
    for _ in range(200):
        a, b, c = (rand_point(m, rng, 1.2) for _ in range(3))
        want = oracles.hyperboloid_law_of_cosines(a.coords, b.coords, c.coords)
        assert abs(dist(a, c) - want) < 1e-10


# -------------------------------------------------------------- error paths


def test_point_invariants_rejected():
    with pytest.raises(ManifoldError):
        Sphere(2).point([1.0, 1.0, 0.0])
    with pytest.raises(ManifoldError):
        Hyperboloid(2).point([0.0, 0.0, -1.0])  # lower sheet
    with pytest.raises(ManifoldError):
        Euclidean(2).point([np.nan, 0.0])
    with pytest.raises(ManifoldError):
        Euclidean(2).point([1.0, 2.0, 3.0])


def test_tangent_invariants_rejected():
    s = Sphere(2)
    x = s.point(e(0, 3))
    with pytest.raises(ManifoldError):
        TangentVector(x, e(0, 3))  # radial, not tangent
    h = Hyperboloid(2)
    y = h.point([0.0, 0.0, 1.0])
    with pytest.raises(ManifoldError):
        TangentVector(y, [0.0, 0.0, 1.0])


def test_antipodal_log_rejected():
    m = Sphere(2)
    with pytest.raises(UndefinedLogarithmError):
        log_map(m.point(e(0, 3)), m.point(-e(0, 3)))


def test_sphere_exp_injectivity_guard():
    m = Sphere(2)
    x = m.point(e(0, 3))
    with pytest.raises(ManifoldError):
        exp_map(x, TangentVector(x, math.pi * e(1, 3)))


def test_hyperboloid_exp_trusted_chart_guards():
    m = Hyperboloid(2)
    x = m.point([0.0, 0.0, 1.0])
    with pytest.raises(ManifoldError):
        exp_map(x, TangentVector(x, [800.0, 0.0, 0.0]))  # cosh overflows outright
    with pytest.raises(ManifoldError) as info:
        exp_map(x, TangentVector(x, [9.0, 0.0, 0.0]))  # finite but past the time cap
    assert "trusted chart" in str(info.value)
    far = exp_map(x, TangentVector(x, [7.0, 0.0, 0.0]))
    assert abs(dist(x, far) - 7.0) <= 1e-9 * 7.0


def test_hyperboloid_rejects_points_past_time_cap():
    m = Hyperboloid(2)
    t = 8.0  # cosh(8) ~ 1490 > TIME_CAP
    with pytest.raises(ManifoldError) as info:
        m.point([math.sinh(t), 0.0, math.cosh(t)])
    assert "trusted chart" in str(info.value)
    near = m.point([math.sinh(7.0), 0.0, math.cosh(7.0)])
    assert dist(near, m.point([0.0, 0.0, 1.0])) == pytest.approx(7.0, rel=1e-9)


def test_hyperboloid_point_with_overflowing_time_square_is_a_manifold_error():
    # the squared time coordinate overflows past about 1.34e154
    for coords in ([0.0, 0.0, 1e200], [1e200, 0.0, 1e200]):
        with pytest.raises(ManifoldError):
            Hyperboloid(2).point(coords)


def test_hyperboloid_1d_kernel_is_silent_at_overflow_scale():
    m = Hyperboloid(2)
    apex = np.array([0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # cosh(709) fits, but the Minkowski form of the result overflows; 1e200 overflows the step length
        for v in ([709.0, 0.0, 0.0], [1e200, 0.0, 0.0], [1e300, 1e300, 0.0]):
            with pytest.raises(ManifoldError):
                m._exp(apex, np.array(v))
        assert not math.isfinite(m._dist(apex, np.array([1e200, 0.0, 1e200])))
        for c in ([0.0, 0.0, 1e200], [1e200, 0.0, 1e200], [1e300, 1e300, 1e300]):
            with pytest.raises(ManifoldError):
                m._check_point(np.array(c))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), exponent=st.integers(-200, 200))
def test_norm_and_mink_helpers_match_numpy_bit_for_bit(seed, n, exponent):
    rng = np.random.default_rng(seed)
    u, v = 10.0 ** exponent * rng.standard_normal((2, n + 1))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        assert _same(manifolds._norm(u), float(np.linalg.norm(u)))
        assert _same(manifolds._mink(u, v), float(u[:-1] @ v[:-1] - u[-1] * v[-1]))


def test_mixed_manifold_operations_rejected():
    a = Euclidean(2).point([0.0, 0.0])
    b = Euclidean(3).point([0.0, 0.0, 0.0])
    with pytest.raises(ManifoldError):
        dist(a, b)
    u = TangentVector(a, [1.0, 0.0])
    other = Euclidean(2).point([1.0, 1.0])
    with pytest.raises(ManifoldError):
        exp_map(other, u)  # tangent not based at the point


def test_metric_matrix_validation():
    with pytest.raises(ManifoldError):
        FlatMetric([[1.0, 0.5], [0.0, 1.0]])  # asymmetric
    with pytest.raises(ManifoldError):
        FlatMetric([[1.0, 0.0], [0.0, -1.0]])  # not positive definite
    with pytest.raises(ManifoldError):
        FlatMetric([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # not square


def test_flat_equality_is_type_strict():
    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    assert Euclidean(2) != FlatMetric(np.eye(2))
    assert FlatMetric(np.eye(2)) != Euclidean(2)
    assert not Euclidean(2) == FlatMetric(np.eye(2))
    assert FlatMetric(a) == FlatMetric(a.copy())
    assert not FlatMetric(a) != FlatMetric(a.copy())
    assert FlatMetric(a) != FlatMetric(np.eye(2))
    assert Euclidean(2) == Euclidean(2) and Euclidean(2) != Euclidean(3)


def test_identity_metric_matches_euclidean_bit_for_bit():
    rng = np.random.default_rng(21)
    for n in (1, 2, 5):
        flat, plain = FlatMetric(np.eye(n)), Euclidean(n)
        for _ in range(50):
            x, y, u, v = (rng.normal(scale=3.0, size=n) for _ in range(4))
            fx, fy, px, py = flat.point(x), flat.point(y), plain.point(x), plain.point(y)
            fu, fv, pu, pv = TangentVector(fx, u), TangentVector(fx, v), TangentVector(px, u), TangentVector(px, v)
            assert np.array_equal(exp_map(fx, fu).coords, exp_map(px, pu).coords)
            assert np.array_equal(log_map(fx, fy).coords, log_map(px, py).coords)
            assert dist(fx, fy) == dist(px, py)
            assert np.array_equal(parallel_transport(fx, fy, fu).coords, parallel_transport(px, py, pu).coords)
            assert inner(fx, fu, fv) == inner(px, pu, pv)


# ------------------------------------------------------------ region/sampling


def test_region_radius_validation():
    center = Euclidean(2).point([0.0, 0.0])
    assert Region(center, 0.0).radius == 0.0
    with pytest.raises(ManifoldError):
        Region(center, -1.0)
    with pytest.raises(ManifoldError):
        Region(center, math.inf)


def test_region_positive_curvature_domain():
    center = Sphere(2).point(e(0, 3))
    limit = math.pi / 4.0
    assert Region(center, limit - 1e-6).radius > 0.0
    with pytest.raises(ManifoldError) as info:
        Region(center, limit)
    assert "pi/(4*sqrt(k_max))" in str(info.value)


def test_sample_point_degenerate_region_returns_center():
    center = Hyperboloid(2).point([0.0, 0.0, 1.0])
    out = sample_point(Region(center, 0.0), np.random.default_rng(0))
    assert out is center


def test_sample_point_stays_in_ball_and_is_deterministic():
    for m in catalog():
        center = base_point(m)
        radius = 0.7 if m.kind == "sphere" else 2.0
        region = Region(center, radius)
        draws = [sample_point(region, np.random.default_rng(99)) for _ in range(2)]
        assert np.array_equal(draws[0].coords, draws[1].coords)
        rng = np.random.default_rng(100)
        for _ in range(200):
            p = sample_point(region, rng)
            assert dist(center, p) <= radius + 1e-9


# ------------------------------------------------------------- row kernel


def raises_manifold_error(fn, *args) -> bool:
    try:
        fn(*args)
    except ManifoldError:
        return True
    return False


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(geometry=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       shared=st.booleans(), masked=st.integers(0, 3))
def test_row_kernel_matches_the_1d_kernel_row_by_row(geometry, seed, n, shared, masked):
    # points within distance 1 of the base point, tangents inside the trusted
    # step lengths; `masked` rows get steps the 1-d exp refuses, and the row
    # exp must answer those with NaN rows
    m = catalog()[geometry]
    rng = np.random.default_rng(seed)
    pts = [rand_point(m, rng, 1.0) for _ in range(n)]
    if shared:
        pts = pts[:1] * n
    xs = np.array([p.coords for p in pts])
    ys = np.array([rand_point(m, rng, 1.0).coords for _ in range(n)])
    us = np.array([rand_tangent(p, rng, tangent_cap(m) * rng.random()).coords for p in pts])
    vs = np.array([rand_tangent(p, rng, tangent_cap(m) * rng.random()).coords for p in pts])
    ws = rng.standard_normal((n, m.ambient_dim))
    refused = {"sphere": math.pi * (1.0 + rng.random()), "hyperboloid": 711.0 + 100.0 * rng.random()}
    if m.kind in refused:
        for i in range(min(masked, n)):
            us[i] *= refused[m.kind] / math.sqrt(m._inner(xs[i], us[i], us[i]))
    x_arg = xs[0] if shared else xs

    oracles.assert_rows_match(m._inner(x_arg, us, vs), [m._inner(x, u, v) for x, u, v in zip(xs, us, vs)])
    oracles.assert_rows_match(m._dist(x_arg, ys), [m._dist(x, y) for x, y in zip(xs, ys)])
    oracles.assert_rows_match(m._log(x_arg, ys), [m._log(x, y) for x, y in zip(xs, ys)])
    oracles.assert_rows_match(m._project(x_arg, ws), [m._project(x, w) for x, w in zip(xs, ws)])
    stepped = m._exp(x_arg, us)
    assert np.all(np.isnan(stepped[0])) == (masked > 0 and m.kind in refused)
    for i, (x, u) in enumerate(zip(xs, us)):
        if raises_manifold_error(m._exp, x, u):
            assert np.all(np.isnan(stepped[i]))
        else:
            oracles.assert_rows_match(stepped[i:i + 1], [m._exp(x, u)])
    # the row checks accept exactly the rows the 1-d checks accept
    on = m._points_ok(stepped)
    assert list(on) == [not raises_manifold_error(manifolds._checked_point, m, c) for c in stepped]
    tangent = m._tangents_ok(xs, np.concatenate((us[:1], ws[1:])))
    assert list(tangent) == [not raises_manifold_error(TangentVector, p, w)
                             for p, w in zip(pts, np.concatenate((us[:1], ws[1:])))]


def _round_trip_conditioning(m, x, y, t) -> float:
    # how much roundoff the round trip may amplify: t / sin t near the sphere's
    # antipode, the squared coordinates (and the step) elsewhere
    if m.kind == "sphere":
        return 1.0 + (t / math.sin(t) if t > 0.0 else 1.0)
    return max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y)))) ** 2 * max(1.0, t)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(geometry=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8))
def test_exp_log_round_trip_inside_the_trusted_domain(geometry, seed, fractions):
    # log_x(exp_x(v)) = v and dist(x, exp_x(v)) = |v| in the 1-d and the row
    # kernel, within ROW_ULPS roundoffs times the conditioning, for base points
    # within distance 1 of the base point and steps shorter than: pi - 2 * guard
    # on the sphere, so that the distance cannot round up to the log's guard at
    # pi - guard; acosh(TIME_CAP) - 1 on the hyperboloid, so that every step
    # stays in the trusted chart; 10 on the flat geometries
    m = catalog()[geometry]
    cap = {"sphere": math.pi - 2.0 * manifolds._ANTIPODE_GUARD,
           "hyperboloid": math.acosh(Hyperboloid.TIME_CAP) - 1.0}.get(m.kind, 10.0)
    rng = np.random.default_rng(seed)
    pts = [rand_point(m, rng, 1.0) for _ in fractions]
    xs = np.array([p.coords for p in pts])
    vs = np.array([rand_tangent(p, rng, cap * f).coords for p, f in zip(pts, fractions)])
    ys = m._exp(xs, vs)
    logs, dists = m._log(xs, ys), m._dist(xs, ys)
    for i, (x, v) in enumerate(zip(xs, vs)):
        t = math.sqrt(max(m._inner(x, v, v), 0.0))
        y = m._exp(x, v)
        bound = oracles.ROW_ULPS * np.finfo(float).eps * _round_trip_conditioning(m, x, y, t)
        for log, d in ((m._log(x, y), m._dist(x, y)), (logs[i], dists[i])):
            assert np.max(np.abs(log - v)) <= bound, (m.kind, t, log, v)
            assert abs(d - t) <= bound, (m.kind, t, d)


def test_row_sphere_log_raises_if_any_row_is_antipodal():
    m = Sphere(2)
    xs = np.array([e(0, 3), e(1, 3), e(2, 3)])
    ys = np.array([e(1, 3), -e(1, 3), e(0, 3)])
    assert [raises_manifold_error(m._log, x, y) for x, y in zip(xs, ys)] == [False, True, False]
    with pytest.raises(UndefinedLogarithmError):
        m._log(xs, ys)
    oracles.assert_rows_match(m._log(xs[[0, 2]], ys[[0, 2]]), [m._log(xs[0], ys[0]), m._log(xs[2], ys[2])])


def test_row_point_check_masks_what_the_1d_check_rejects():
    rows = {
        "euclidean": (Euclidean(2), [[1.0, 2.0], [np.nan, 0.0], [np.inf, 1.0]]),
        "sphere": (Sphere(2), [e(0, 3), [1.0, 1.0, 0.0], [np.nan, 0.0, 1.0]]),
        "hyperboloid": (Hyperboloid(2), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [math.sinh(8.0), 0.0, math.cosh(8.0)],
                                         [1.0, 0.0, 1.0], [np.inf, 0.0, np.inf]]),
    }
    for m, coords in rows.values():
        coords = np.array(coords, dtype=float)
        expected = [not raises_manifold_error(m.point, c) for c in coords]
        assert expected[0] and not any(expected[1:])
        assert list(m._points_ok(coords)) == expected


def test_draw_replaces_a_direction_whose_projection_vanishes():
    # the second Gaussian row lies along the sphere's centre, so its tangent
    # projection is zero: it is skipped, and one more row is drawn for the end
    m = Sphere(2)
    region = Region(m.point(e(0, 3)), 0.5)
    batches = [np.array([e(1, 3), 2.0 * e(0, 3), e(2, 3)]), np.array([-e(1, 3)])]

    class Directions:
        def standard_normal(self, shape):
            assert shape == batches[0].shape
            return batches.pop(0)

    drawn = manifolds._draw_coords(region, 3, Directions(), np.random.default_rng(0))
    assert not batches
    for row, direction in zip(drawn, (e(1, 3), e(2, 3), -e(1, 3))):
        v = m._log(region.center.coords, row)
        assert np.allclose(v / np.linalg.norm(v), direction, atol=1e-12)


# ------------------------------------------------------------- serialization


def test_descriptor_round_trip():
    for m in catalog():
        rebuilt = manifold_from_descriptor(m.descriptor())
        assert rebuilt == m


def test_descriptor_errors():
    with pytest.raises(ManifoldError):
        manifold_from_descriptor({"kind": "torus", "dim": 2})
    with pytest.raises(ManifoldError):
        manifold_from_descriptor({"dim": 2})
    with pytest.raises(ManifoldError):
        manifold_from_descriptor({"kind": "sphere"})
    with pytest.raises(ManifoldError):
        manifold_from_descriptor({"kind": "sphere", "dim": 2.5})
    with pytest.raises(ManifoldError):
        manifold_from_descriptor({"kind": "flat_metric"})
