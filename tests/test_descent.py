"""Steppers, step-size policies, trajectory recording, contraction measurement."""

import math

import numpy as np
import pytest

from geodescent.curvature import zeta
from geodescent.descent import (
    NoContractionError,
    StepSizeError,
    StepSizePolicy,
    Trajectory,
    contraction_rate,
    gd_step,
    rgd_step,
    run,
)
from geodescent.manifolds import Region, dist, sample_point
from geodescent.objectives import (
    Objective,
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)

Q14 = np.diag([1.0, 4.0])


# ------------------------------------------------------------------ steppers


def test_gd_step_scalar_example():
    obj = quad_euclidean([[2.0]], [0.0])
    out = gd_step(obj, obj.manifold.point([1.0]), 0.25)
    assert out.coords[0] == 0.5


def test_gd_step_eta_zero_and_fixed_point():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    x = obj.manifold.point([1.0, -2.0])
    assert np.array_equal(gd_step(obj, x, 0.0).coords, x.coords)
    star = obj.metadata.minimizer
    assert np.array_equal(gd_step(obj, star, 0.3).coords, star.coords)


def test_gd_step_rejects_curved_and_nonidentity_metric():
    ray = rayleigh_sphere(np.diag([3.0, 1.0]))
    with pytest.raises(StepSizeError):
        gd_step(ray, ray.metadata.minimizer, 0.1)
    flat = quad_flat_metric(np.eye(2), [0.0, 0.0], np.diag([2.0, 2.0]))
    with pytest.raises(StepSizeError):
        gd_step(flat, flat.manifold.point([1.0, 0.0]), 0.1)


def test_gd_step_identity_metric_allowed():
    flat = quad_flat_metric(Q14, [0.0, 0.0], np.eye(2))
    out = gd_step(flat, flat.manifold.point([1.0, 1.0]), 0.25)
    assert np.allclose(out.coords, [0.75, 0.0], atol=1e-15)


def test_rgd_step_equals_gd_step_on_euclidean():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    rng = np.random.default_rng(40)
    for _ in range(20):
        x = obj.manifold.point(rng.uniform(-3.0, 3.0, size=2))
        eta = float(rng.uniform(0.0, 0.5))
        assert np.array_equal(rgd_step(obj, x, eta).coords, gd_step(obj, x, eta).coords)


def test_rgd_step_preconditioned_example():
    obj = quad_flat_metric(np.eye(2), [0.0, 0.0], np.diag([2.0, 2.0]))
    out = rgd_step(obj, obj.manifold.point([2.0, 0.0]), 1.0)
    assert np.allclose(out.coords, [1.0, 0.0], atol=1e-14)


def test_rgd_step_hyperboloid_one_step_convergence():
    obj = sqdist_hyperboloid([0.3, -0.4, math.sqrt(1.25)])
    region = Region(obj.metadata.minimizer, 2.0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = sample_point(region, rng)
        stepped = rgd_step(obj, x, 1.0)
        assert dist(stepped, obj.metadata.minimizer) <= 1e-9


def test_rgd_step_fixed_point_at_minimizer():
    for obj in (quad_euclidean(Q14, [0.0, 0.0]), sqdist_hyperboloid([0.0, 0.0, 1.0])):
        star = obj.metadata.minimizer
        out = rgd_step(obj, star, 0.7)
        assert dist(out, star) <= 1e-12


def test_rgd_step_sphere_injectivity_guard():
    ray = rayleigh_sphere(np.diag([3.0, 1.0, 0.5]))
    s = 1.0 / math.sqrt(2.0)
    x = ray.manifold.point([s, s, 0.0])  # gradient norm 1 here; the step would wrap the sphere
    with pytest.raises(StepSizeError):
        rgd_step(ray, x, 1e6)


def test_step_rejects_bad_eta():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(StepSizeError):
        gd_step(obj, x, -0.1)
    with pytest.raises(StepSizeError):
        rgd_step(obj, x, math.inf)


# ------------------------------------------------------------------ policies


def test_policy_fixed_passthrough():
    assert StepSizePolicy(mode="fixed", eta=0.3).resolve() == 0.3


def test_policy_derived_modes():
    assert StepSizePolicy(mode="prop1", a=1.0, gamma=4.0).resolve() == 0.25
    p2 = StepSizePolicy(mode="prop2", a=1.0, gamma=4.0, zeta_value=2.0)
    assert p2.resolve() == 0.125
    guard = StepSizePolicy(mode="thm2_guard", a=8.0, gamma=2.0, zeta_value=1.0)
    assert guard.resolve() == 1.0  # capped at 2/gamma, not a/(zeta*gamma) = 4


def test_policy_validation():
    with pytest.raises(StepSizeError):
        StepSizePolicy(mode="fixed")
    with pytest.raises(StepSizeError):
        StepSizePolicy(mode="fixed", eta=-1.0)
    with pytest.raises(StepSizeError):
        StepSizePolicy(mode="prop1", a=1.0)
    with pytest.raises(StepSizeError):
        StepSizePolicy(mode="prop2", a=1.0, gamma=1.0, zeta_value=0.5)
    with pytest.raises(StepSizeError):
        StepSizePolicy(mode="newton")


def test_policy_step_shrinks_with_lower_curvature():
    # zeta grows as k_min drops, so the curvature-penalized step shrinks
    etas = [
        StepSizePolicy(mode="prop2", a=1.0, gamma=1.0, zeta_value=zeta(k, 2.0)).resolve()
        for k in (-0.1, -0.5, -1.0, -2.0, -4.0)
    ]
    assert all(lo < hi for lo, hi in zip(etas[1:], etas[:-1]))


def test_policy_json_dict():
    assert StepSizePolicy(mode="fixed", eta=0.5).to_json_dict() == {"mode": "fixed", "eta": 0.5}
    doc = StepSizePolicy(mode="thm2_guard", a=1.0, gamma=2.0, zeta_value=1.5).to_json_dict()
    assert doc == {"mode": "thm2_guard", "a": 1.0, "gamma": 2.0, "zeta_value": 1.5}


# ----------------------------------------------------------------------- run


def test_run_monotone_distance_with_safe_step():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    policy = StepSizePolicy(mode="prop1", a=1.0, gamma=4.0)
    traj = run(obj, obj.manifold.point([5.0, -3.0]), policy, 100)
    assert traj.stop_reason == "completed"
    d = traj.distances
    assert len(d) == 101
    assert all(d[i + 1] <= d[i] + 1e-12 for i in range(100))
    assert [rec.index for rec in traj.steps] == list(range(101))


def test_run_single_step_has_two_records():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    traj = run(obj, obj.manifold.point([1.0, 1.0]), StepSizePolicy(mode="fixed", eta=0.25), 1)
    assert len(traj.steps) == 2


def test_run_from_minimizer_stays_put():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    traj = run(obj, obj.metadata.minimizer, StepSizePolicy(mode="fixed", eta=0.25), 5)
    assert all(np.array_equal(rec.point.coords, [0.0, 0.0]) for rec in traj.steps)


def test_run_records_region_exits():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 4.0)
    # eta > 2/gamma expands the stiff coordinate: |1 - 10*4| = 39 per step
    traj = run(obj, obj.manifold.point([0.0, 3.0]), StepSizePolicy(mode="fixed", eta=10.0), 3, region=region)
    assert traj.exited_region != ()
    assert traj.exited_region[0] == 1


def test_run_rejects_start_outside_region():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 1.0)
    with pytest.raises(ValueError):
        run(obj, obj.manifold.point([5.0, 0.0]), StepSizePolicy(mode="fixed", eta=0.1), 3, region=region)


def test_run_aborts_on_step_error():
    ray = rayleigh_sphere(np.diag([3.0, 1.0, 0.5]))
    s = 1.0 / math.sqrt(2.0)
    x0 = ray.manifold.point([s, s, 0.0])
    traj = run(ray, x0, StepSizePolicy(mode="fixed", eta=1e6), 10)
    assert traj.stop_reason.startswith("step-error:")
    assert len(traj.steps) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_aborts_on_non_finite_value():
    obj = quad_euclidean(Q14, [1.0, 1.0])
    traj = run(obj, obj.manifold.point([2.0, 2.0]), StepSizePolicy(mode="fixed", eta=1e160), 10)
    assert traj.stop_reason == "non-finite-value"
    assert len(traj.steps) < 11


def test_run_evaluates_one_gradient_per_iterate(monkeypatch):
    obj = quad_euclidean(Q14, [0.0, 0.0])
    calls = []
    real = Objective.gradient

    def counted(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(Objective, "gradient", counted)
    traj = run(obj, obj.manifold.point([1.0, -2.0]), StepSizePolicy(mode="fixed", eta=0.1), 20)
    assert len(traj.steps) == 21
    assert len(calls) == 21


def test_run_validates_n_steps():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    with pytest.raises(ValueError):
        run(obj, obj.metadata.minimizer, StepSizePolicy(mode="fixed", eta=0.1), 0)


def test_trajectory_json_dict():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    traj = run(obj, obj.manifold.point([1.0, 0.0]), StepSizePolicy(mode="fixed", eta=0.25), 2, seed=5)
    doc = traj.to_json_dict()
    assert doc["objective_id"] == "quad_euclidean"
    assert doc["seed"] == 5
    assert doc["stop_reason"] == "completed"
    assert len(doc["steps"]) == 3
    assert set(doc["steps"][0]) == {"index", "coords", "value", "gradient_norm", "dist_to_min", "eta_used"}


# ---------------------------------------------------------------- contraction


def test_contraction_rate_closed_form():
    # (1 - eta*lambda)^2 = 0.25 per step on the scalar quadratic
    obj = quad_euclidean([[2.0]], [0.0])
    traj = run(obj, obj.manifold.point([1.0]), StepSizePolicy(mode="fixed", eta=0.25), 20)
    assert abs(contraction_rate(traj) - 0.75) <= 1e-12


def test_contraction_rate_one_step_exact_convergence():
    obj = quad_euclidean([[2.0]], [0.0])
    traj = run(obj, obj.manifold.point([1.0]), StepSizePolicy(mode="fixed", eta=0.5), 3)
    assert contraction_rate(traj) == 1.0


def test_contraction_rate_stagnation_error():
    # zero quadratic: gradient vanishes everywhere, iterates never move
    obj = quad_euclidean(np.zeros((2, 2)), [0.0, 0.0])
    traj = run(obj, obj.manifold.point([1.0, 0.0]), StepSizePolicy(mode="fixed", eta=0.25), 4)
    with pytest.raises(NoContractionError) as info:
        contraction_rate(traj)
    assert info.value.worst_ratio == 1.0
    assert "stagnated" in str(info.value)


def test_contraction_rate_expansion_error():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    traj = run(obj, obj.manifold.point([0.0, 1.0]), StepSizePolicy(mode="fixed", eta=10.0), 3)
    with pytest.raises(NoContractionError) as info:
        contraction_rate(traj)
    assert info.value.worst_ratio > 1.0 + 1e-10
    assert "expanded" in str(info.value)


def test_contraction_rate_input_validation():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    policy = StepSizePolicy(mode="fixed", eta=0.25)
    single = Trajectory(objective_id="quad_euclidean", policy=policy, seed=None,
                        steps=run(obj, obj.manifold.point([1.0, 0.0]), policy, 1).steps[:1],
                        stop_reason="completed")
    with pytest.raises(ValueError):
        contraction_rate(single)
    at_min = run(obj, obj.metadata.minimizer, policy, 2)
    with pytest.raises(ValueError):
        contraction_rate(at_min)


def test_contraction_scan_stops_at_converged_iterates():
    # second step starts from an exactly converged point; its 0/0 noise is skipped
    obj = quad_euclidean([[2.0]], [0.0])
    traj = run(obj, obj.manifold.point([1.0]), StepSizePolicy(mode="fixed", eta=0.5), 5)
    assert contraction_rate(traj) == 1.0
