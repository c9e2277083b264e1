"""Objective catalog: values, gradients, oracles, estimators, and the builder."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles

from geodescent.manifolds import (
    Euclidean,
    FlatMetric,
    Hyperboloid,
    ManifoldError,
    Region,
    Sphere,
    TangentVector,
    dist,
    exp_map,
    inner,
    parallel_transport,
    sample_point,
)
from geodescent.objectives import (
    PAIR_SEPARATION,
    ObjectiveError,
    build,
    catalog_ids,
    estimate_gamma,
    fd_gradient_oracle,
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)
from geodescent.selftest import objective_zoo, rand_point, rand_tangent

Q14 = np.diag([1.0, 4.0])


# ------------------------------------------------------------------- values


def test_quad_value_examples():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    assert obj.value(obj.metadata.minimizer) == 0.0
    assert obj.value(obj.manifold.point([1.0, 1.0])) == 2.5


def test_rayleigh_value_at_top_eigenvector():
    mat = np.array([[3.0, 0.4, 0.0], [0.4, 2.0, 0.1], [0.0, 0.1, 1.0]])
    obj = rayleigh_sphere(mat)
    lam_max = float(np.linalg.eigvalsh(mat)[-1])
    assert abs(obj.value(obj.metadata.minimizer) + 0.5 * lam_max) < 1e-12


def test_sqdist_value_is_half_squared_distance():
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    rng = np.random.default_rng(30)
    star = obj.metadata.minimizer
    for _ in range(20):
        x = exp_map(star, rand_tangent(star, rng, 2.0 * rng.random()))
        d = dist(x, star)
        assert abs(obj.value(x) - 0.5 * d * d) < 1e-12


# ----------------------------------------------------------------- gradients


def test_quad_gradient_example():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    g = obj.gradient(obj.manifold.point([1.0, 1.0]))
    assert np.array_equal(g.coords, [1.0, 4.0])


def test_flat_metric_gradient_example():
    obj = quad_flat_metric(np.eye(2), [0.0, 0.0], np.diag([2.0, 2.0]))
    g = obj.gradient(obj.manifold.point([2.0, 0.0]))
    assert np.allclose(g.coords, [1.0, 0.0], atol=1e-14)


def test_gradient_vanishes_at_minimizer():
    for obj in objective_zoo():
        assert obj.gradient(obj.metadata.minimizer).norm() <= 1e-8


def test_sqdist_gradient_norm_equals_distance():
    obj = sqdist_hyperboloid([0.2, 0.1, math.sqrt(1.05)])
    rng = np.random.default_rng(31)
    star = obj.metadata.minimizer
    for _ in range(50):
        x = exp_map(star, rand_tangent(star, rng, 2.5 * rng.random()))
        assert abs(obj.gradient(x).norm() - dist(x, star)) <= 1e-9


def test_fd_oracle_agrees_with_analytic_gradients():
    rng = np.random.default_rng(32)
    for obj in objective_zoo():
        star = obj.metadata.minimizer
        for _ in range(100):
            x = exp_map(star, rand_tangent(star, rng, 0.4 * max(rng.random(), 0.1)))
            g = obj.gradient(x)
            fd = fd_gradient_oracle(obj, x)
            err = float(np.linalg.norm(fd.coords - g.coords))
            assert err <= 1e-5 * max(1.0, g.norm())


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(which=st.integers(0, 4), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_row_values_and_gradients_match_the_1d_evaluators(which, seed, n):
    obj = objective_zoo()[which]
    rng = np.random.default_rng(seed)
    rows = np.array([rand_point(obj.manifold, rng, 1.0).coords for _ in range(n)])
    oracles.assert_rows_match(obj.value_fn(rows), [obj.value_fn(x) for x in rows])
    oracles.assert_rows_match(obj.gradient_fn(rows), [obj.gradient_fn(x) for x in rows])


def test_fd_oracle_near_zero_at_minimizer():
    for obj in objective_zoo():
        assert fd_gradient_oracle(obj, obj.metadata.minimizer).norm() <= 1e-6


def test_fd_oracle_step_validation():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    x = obj.manifold.point([1.0, 1.0])
    with pytest.raises(ValueError):
        fd_gradient_oracle(obj, x, h=1e-9)
    with pytest.raises(ValueError):
        fd_gradient_oracle(obj, x, h=1e-2)


# ------------------------------------------------------------ gamma estimate


def test_estimate_gamma_quad_brackets_lambda_max():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 5.0)
    est = estimate_gamma(obj, region, 256, np.random.default_rng(33))
    assert 4.0 <= est <= 4.2


def test_estimate_gamma_flat_metric_matches_pencil_spectrum():
    a_mat = [[2.0, 0.3], [0.3, 1.5]]
    obj = quad_flat_metric(Q14, [0.0, 0.0], a_mat)
    region = Region(obj.metadata.minimizer, 3.0)
    est = estimate_gamma(obj, region, 256, np.random.default_rng(34))
    lam_max = float(oracles.generalized_spectrum(Q14, a_mat)[-1])
    assert lam_max <= est <= 1.05 * lam_max * 1.01
    # the analytic metadata agrees with the independent pencil spectrum
    assert abs(obj.metadata.gamma - lam_max) < 1e-12


def test_estimate_gamma_constant_objective_is_zero():
    obj = quad_euclidean(np.zeros((2, 2)), [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 1.0)
    assert estimate_gamma(obj, region, 16, np.random.default_rng(35)) == 0.0


def test_estimate_gamma_validation():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 1.0)
    with pytest.raises(ValueError):
        estimate_gamma(obj, region, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_gamma(obj, Region(obj.metadata.minimizer, 0.0), 8, np.random.default_rng(0))
    with pytest.raises(ObjectiveError, match="too small"):
        estimate_gamma(obj, Region(obj.metadata.minimizer, 3e-7), 8, np.random.default_rng(0))


def per_pair_gamma(obj, region, n_pairs, rng):
    """estimate_gamma's per-pair algorithm on the checked public API."""
    worst = 0.0
    for _ in range(n_pairs):
        x, y = sample_point(region, rng), sample_point(region, rng)
        while dist(x, y) < PAIR_SEPARATION:
            y = sample_point(region, rng)
        diff = TangentVector(x, obj.gradient(x).coords - parallel_transport(y, x, obj.gradient(y)).coords)
        worst = max(worst, math.sqrt(max(inner(x, diff, diff), 0.0)) / dist(x, y))
    return 1.05 * worst if worst > 0.0 else 0.0


@pytest.mark.parametrize("make, radius", [
    (lambda: quad_euclidean(Q14, [0.5, -1.0]), 5.0),
    (lambda: quad_flat_metric(Q14, [0.0, 0.0], [[2.0, 0.3], [0.3, 1.5]]), 3.0),
    (lambda: rayleigh_sphere(np.diag([3.0, 2.5, 1.0])), 0.5),
    (lambda: sqdist_hyperboloid([0.3, -0.4, math.sqrt(1.25)]), 1.0),
])
def test_estimate_gamma_matches_the_per_pair_algorithm_bit_for_bit(make, radius):
    obj = make()
    region = Region(obj.metadata.minimizer, radius)
    for seed in range(3):
        est = estimate_gamma(obj, region, 64, np.random.default_rng(seed))
        assert type(est) is float
        assert est == per_pair_gamma(obj, region, 64, np.random.default_rng(seed))


def test_estimate_gamma_rejects_points_past_the_chart_and_non_tangent_gradients():
    hyp = sqdist_hyperboloid([0.0, 0.0, 1.0])
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ManifoldError, match="trusted chart limit"):
            estimate_gamma(hyp, Region(hyp.metadata.minimizer, 7.7), 64, np.random.default_rng(0))
        with pytest.raises(ManifoldError, match="not orthogonal to the sphere point"):
            estimate_gamma(replace(ray, gradient_fn=lambda c: c), Region(ray.metadata.minimizer, 0.5), 8,
                           np.random.default_rng(0))


# -------------------------------------------------------------- construction


def test_quad_metadata_constants():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    md = obj.metadata
    assert (md.gamma, md.analytic_a, md.analytic_mu) == (4.0, 1.0, 1.0)


def test_flat_metric_metadata_uses_pencil_eigenvalues():
    a_mat = np.diag([2.0, 8.0])
    obj = quad_flat_metric(Q14, [0.0, 0.0], a_mat)
    evals = oracles.generalized_spectrum(Q14, a_mat)
    assert abs(obj.metadata.gamma - float(evals[-1])) < 1e-12
    assert abs(obj.metadata.analytic_mu - float(evals[0])) < 1e-12


def test_rayleigh_sign_convention():
    # top eigenvector of diag(…) is -e1 unless the sign fix flips it
    obj = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    assert obj.metadata.minimizer.coords[0] > 0.0
    assert obj.metadata.gamma is None


def test_rayleigh_requires_spectral_gap():
    with pytest.raises(ObjectiveError):
        rayleigh_sphere(np.diag([2.0, 2.0, 1.0]))
    with pytest.raises(ObjectiveError):
        rayleigh_sphere(np.array([[1.0]]))


def test_perturbed_quad_defaults_and_validation():
    obj = perturbed_quad(Q14, [0.0, 0.0])
    assert obj.params["epsilon"] == 0.05 * 1.0
    assert obj.params["omega"] == 5.0
    assert obj.metadata.gamma == 4.0 + 2.0 * 0.05 * 25.0
    with pytest.raises(ObjectiveError):
        perturbed_quad(Q14, [0.0, 0.0], epsilon=-0.1)
    with pytest.raises(ObjectiveError):
        perturbed_quad(Q14, [0.0, 0.0], omega=0.0)


def test_quad_matrix_validation():
    with pytest.raises(ObjectiveError):
        quad_euclidean([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])  # asymmetric
    with pytest.raises(ObjectiveError):
        quad_euclidean([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])  # indefinite


def test_value_rejects_point_off_manifold():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    stranger = Euclidean(3).point([0.0, 0.0, 0.0])
    with pytest.raises(ObjectiveError):
        obj.value(stranger)
    with pytest.raises(ObjectiveError):
        obj.gradient(stranger)


# ------------------------------------------------------------------- builder


def test_catalog_ids_sorted_and_complete():
    ids = catalog_ids()
    assert ids == tuple(sorted(ids))
    assert set(ids) == {
        "quad_euclidean",
        "quad_flat_metric",
        "rayleigh_sphere",
        "sqdist_hyperboloid",
        "perturbed_quad",
    }


def test_build_each_catalog_entry():
    q = [[1.0, 0.0], [0.0, 4.0]]
    built = build("quad_euclidean", {"q": q, "minimizer": [0.0, 0.0]}, Euclidean(2))
    assert built.id == "quad_euclidean"
    built = build("quad_flat_metric", {"q": q, "minimizer": [0.0, 0.0]}, FlatMetric([[2.0, 0.0], [0.0, 2.0]]))
    assert built.manifold.kind == "flat_metric"
    built = build("rayleigh_sphere", {"matrix": [[3.0, 0.0], [0.0, 1.0]]}, Sphere(1))
    assert built.manifold.kind == "sphere"
    built = build("sqdist_hyperboloid", {"target": [0.0, 0.0, 1.0]}, Hyperboloid(2))
    assert built.manifold.kind == "hyperboloid"
    built = build("perturbed_quad", {"q": q, "minimizer": [0.0, 0.0], "epsilon": 0.1}, Euclidean(2))
    assert built.params["epsilon"] == 0.1


def test_build_rejects_unknown_id_and_missing_params():
    with pytest.raises(ObjectiveError) as info:
        build("nonexistent", {}, Euclidean(2))
    assert "quad_euclidean" in str(info.value)
    with pytest.raises(ObjectiveError) as info:
        build("quad_euclidean", {"q": [[1.0]]}, Euclidean(1))
    assert "minimizer" in str(info.value)


def test_build_rejects_manifold_mismatch():
    q = [[1.0, 0.0], [0.0, 4.0]]
    with pytest.raises(ObjectiveError):
        build("quad_euclidean", {"q": q, "minimizer": [0.0, 0.0]}, Sphere(2))
    with pytest.raises(ObjectiveError):
        build("quad_euclidean", {"q": q, "minimizer": [0.0, 0.0]}, Euclidean(3))
    with pytest.raises(ObjectiveError):
        build("rayleigh_sphere", {"matrix": [[3.0, 0.0], [0.0, 1.0]]}, Sphere(2))


# id -> (params, matching manifold, manifold of the wrong size, manifold of the wrong kind)
_MISMATCHED = {
    "quad_euclidean": ({"q": Q14, "minimizer": [0.0, 0.0]}, Euclidean(2), Euclidean(3), Sphere(2)),
    "quad_flat_metric": (
        {"q": Q14, "minimizer": [0.0, 0.0]}, FlatMetric(np.eye(2)), FlatMetric(np.eye(3)), Euclidean(2),
    ),
    "rayleigh_sphere": ({"matrix": np.diag([3.0, 2.0, 1.0])}, Sphere(2), Sphere(3), Euclidean(3)),
    "sqdist_hyperboloid": ({"target": [0.0, 0.0, 1.0]}, Hyperboloid(2), Hyperboloid(3), Sphere(2)),
    "perturbed_quad": (
        {"q": Q14, "minimizer": [0.0, 0.0]}, Euclidean(2), Euclidean(3), FlatMetric(np.eye(2)),
    ),
}


@pytest.mark.parametrize("objective_id", catalog_ids())
def test_build_rejects_wrong_manifold_size_and_kind(objective_id):
    params, right, wrong_size, wrong_kind = _MISMATCHED[objective_id]
    assert build(objective_id, params, right).manifold == right
    with pytest.raises(ObjectiveError):
        build(objective_id, params, wrong_size)
    with pytest.raises(ObjectiveError, match=f"{objective_id} requires a"):
        build(objective_id, params, wrong_kind)


# ------------------------------------------------- analytic ground truth


def test_quad_wsc_holds_with_analytic_constants():
    # residual of the defining inequality with (a, mu) = (1, lambda_min)
    from geodescent.certify import wsc_residual

    obj = quad_euclidean(Q14, [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 10.0)
    rng = np.random.default_rng(36)
    for _ in range(1000):
        x = sample_point(region, rng)
        assert wsc_residual(obj, x, 1.0, 1.0) >= -1e-10
