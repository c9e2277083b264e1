"""Comparison-constant formulas and the geodesic-triangle residual."""

import math

import numpy as np
import pytest

import _oracles as oracles

from geodescent.curvature import (
    CurvatureDomainError,
    delta_bar,
    lemma2_residual,
    zeta,
)
from geodescent.manifolds import Euclidean, FlatMetric, Hyperboloid, Sphere, exp_map, TangentVector
from geodescent.selftest import rand_triangle


# ------------------------------------------------------------------- zeta


def test_zeta_flat_cases_exact():
    assert zeta(0.5, 2.0) == 1.0
    assert zeta(0.0, 5.0) == 1.0
    assert zeta(-1.0, 0.0) == 1.0


def test_zeta_reference_value():
    assert abs(zeta(-1.0, 1.0) - oracles.zeta_reference(-1.0, 1.0)) <= 1e-12
    assert abs(zeta(-1.0, 1.0) - 1.0 / math.tanh(1.0)) <= 1e-12
    assert abs(zeta(-4.0, 0.5) - oracles.zeta_reference(-4.0, 0.5)) <= 1e-12


def test_zeta_continuity_at_zero():
    assert abs(zeta(-1.0, 1e-6) - 1.0) <= 1e-10


def test_zeta_bounds_and_monotonicity():
    prev = 1.0
    for d in np.linspace(0.0, 6.0, 60):
        val = zeta(-1.0, float(d))
        assert val >= 1.0
        assert val >= prev - 1e-15
        prev = val


def test_zeta_rejects_bad_distance():
    with pytest.raises(ValueError):
        zeta(-1.0, -0.1)
    with pytest.raises(ValueError):
        zeta(-1.0, math.nan)


# --------------------------------------------------------------- delta_bar


def test_delta_bar_flat_cases_exact():
    assert delta_bar(-1.0, 7.0) == 1.0
    assert delta_bar(0.0, 3.0) == 1.0
    assert delta_bar(1.0, 0.0) == 1.0


def test_delta_bar_reference_value():
    assert abs(delta_bar(1.0, math.pi / 8.0) - math.pi / 4.0) <= 1e-12
    assert abs(delta_bar(1.0, math.pi / 8.0) - oracles.delta_bar_reference(1.0, math.pi / 8.0)) <= 1e-12
    assert abs(delta_bar(4.0, 0.3) - oracles.delta_bar_reference(4.0, 0.3)) <= 1e-12


def test_delta_bar_continuity_at_zero():
    assert abs(delta_bar(1.0, 1e-6) - 1.0) <= 1e-10


def test_delta_bar_range_and_monotonicity():
    prev = 1.0
    for d in np.linspace(0.0, math.pi / 4.0 - 1e-3, 60):
        val = delta_bar(1.0, float(d))
        assert 0.0 < val <= 1.0
        assert val <= prev + 1e-15
        prev = val


def test_delta_bar_domain_guard():
    limit = math.pi / 4.0
    with pytest.raises(CurvatureDomainError):
        delta_bar(1.0, limit)
    with pytest.raises(CurvatureDomainError):
        delta_bar(1.0, limit - 1e-10)  # inside the 1e-9 guard band
    with pytest.raises(ValueError):
        delta_bar(1.0, -0.1)


def test_curvature_bounds_of_each_manifold():
    assert Euclidean(2).curvature_bounds == (0.0, 0.0)
    assert FlatMetric([[2.0, 0.3], [0.3, 1.5]]).curvature_bounds == (0.0, 0.0)
    assert Sphere(2).curvature_bounds == (1.0, 1.0)
    assert Hyperboloid(2).curvature_bounds == (-1.0, -1.0)


# ----------------------------------------------------------------- lemma 2


def test_lemma2_degenerate_vertex_flat():
    m = Euclidean(2)
    a = m.point([1.0, 1.0])
    c = m.point([-0.5, 2.0])
    chk = lemma2_residual(a, a, c)
    assert abs(chk.residual) <= 1e-10


def test_lemma2_degenerate_vertex_curved_nonnegative():
    m = Sphere(2)
    a = m.point([1.0, 0.0, 0.0])
    c = exp_map(a, TangentVector(a, [0.0, 0.4, 0.0]))
    chk = lemma2_residual(a, a, c)
    assert chk.residual >= 0.0


def test_lemma2_hyperbolic_delta_is_one():
    rng = np.random.default_rng(22)
    a, b, c = rand_triangle(Hyperboloid(2), rng, 0.5)
    assert lemma2_residual(a, b, c).delta_used == 1.0


def test_lemma2_sphere_shrunken_basis_triangle():
    # e1, e2, e3 pulled toward their common center until every side is admissible
    m = Sphere(2)
    center = m.point(np.ones(3) / math.sqrt(3.0))
    verts = []
    for i in range(3):
        target = np.zeros(3)
        target[i] = 1.0
        from geodescent.manifolds import log_map

        v = log_map(center, m.point(target))
        verts.append(exp_map(center, TangentVector(center, 0.25 * v.coords)))
    chk = lemma2_residual(*verts)
    assert chk.residual >= 0.0
    assert 0.0 < chk.delta_used < 1.0


def test_lemma2_sphere_side_length_guard():
    # sides near pi violate the admissibility precondition
    m = Sphere(2)
    a = m.point([1.0, 0.0, 0.0])
    b = m.point([math.cos(math.pi - 0.05), math.sin(math.pi - 0.05), 0.0])
    c = m.point([0.0, 0.0, 1.0])
    with pytest.raises(CurvatureDomainError):
        lemma2_residual(a, b, c)


def test_lemma2_rejects_mixed_manifolds():
    a = Euclidean(2).point([0.0, 0.0])
    b = Euclidean(2).point([1.0, 0.0])
    c = Euclidean(3).point([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        lemma2_residual(a, b, c)
