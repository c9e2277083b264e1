"""Geometry kernel tests: closed-form values, invariants, and ODE cross-checks."""

import math

import numpy as np
import pytest

import _oracles as oracles

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
from geodescent.selftest import base_point, catalog, rand_point, rand_tangent


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
