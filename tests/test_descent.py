"""Steppers, step-size policies, trajectory recording, contraction measurement."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles

from geodescent.curvature import zeta
from geodescent.descent import (
    REGION_EXIT_TOL,
    NoContractionError,
    StepSizeError,
    StepSizePolicy,
    Trajectory,
    contraction_rate,
    gd_step,
    rgd_step,
    run,
)
from geodescent.manifolds import ManifoldError, Region, dist, sample_point
from geodescent.objectives import (
    ObjectiveError,
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)
from geodescent.reporting import canonical_json

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
    with pytest.raises(ManifoldError, match="its distance 5 from the center exceeds the radius 1"):
        run(obj, obj.manifold.point([5.0, 0.0]), StepSizePolicy(mode="fixed", eta=0.1), 3, region=region)


def test_run_aborts_on_step_error():
    ray = rayleigh_sphere(np.diag([3.0, 1.0, 0.5]))
    s = 1.0 / math.sqrt(2.0)
    x0 = ray.manifold.point([s, s, 0.0])
    traj = run(ray, x0, StepSizePolicy(mode="fixed", eta=1e6), 10)
    assert traj.stop_reason.startswith("step-error:")
    assert len(traj.steps) == 1


def test_run_aborts_on_non_finite_value():
    obj = quad_euclidean(Q14, [1.0, 1.0])
    traj = run(obj, obj.manifold.point([2.0, 2.0]), StepSizePolicy(mode="fixed", eta=1e160), 10)
    assert traj.stop_reason == "non-finite-value"
    assert len(traj.steps) < 11
    # the offending record is kept, and it is the only non-finite one
    assert not math.isfinite(traj.steps[-1].value)
    assert all(math.isfinite(rec.value) for rec in traj.steps[:-1])
    # its JSON form, which canonical_json keeps strict (no NaN or Infinity), writes them as null
    doc = json.loads(canonical_json(traj.to_json_dict()))
    assert doc["steps"][-1]["value"] is None
    assert all(step["value"] is not None for step in doc["steps"][:-1])


def test_run_later_step_error_keeps_the_valid_iterates():
    # eta = 2.5 expands the distance 1.5-fold per step, until a step leaves the trusted chart
    obj = sqdist_hyperboloid([0.0, 0.0, 0.0, 1.0])
    region = Region(obj.metadata.minimizer, 2.0)
    x0 = obj.manifold.point([2.0, 0.0, 0.0, math.sqrt(5.0)])
    traj = run(obj, x0, StepSizePolicy(mode="fixed", eta=2.5), 30, region=region)
    assert traj.stop_reason.startswith("step-error:")
    assert len(traj.steps) > 2
    assert all(rec.point.coords[-1] <= obj.manifold.TIME_CAP for rec in traj.steps)
    outside = tuple(i for i, rec in enumerate(traj.steps)
                    if dist(region.center, rec.point) > region.radius + REGION_EXIT_TOL)
    assert traj.exited_region == outside
    assert outside == tuple(range(1, len(traj.steps)))


def test_run_overflowing_policy_eta_stops_after_the_first_record():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    traj = run(obj, obj.manifold.point([1.0, 1.0]), StepSizePolicy(mode="prop1", a=1e308, gamma=1e-308), 5)
    assert traj.stop_reason.startswith("step-error: step size must be finite")
    assert len(traj.steps) == 1
    assert traj.steps[0].eta_used == math.inf


def test_run_rejects_a_start_on_another_manifold():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    with pytest.raises(ObjectiveError):
        run(obj, rayleigh_sphere(np.diag([3.0, 1.0])).metadata.minimizer, StepSizePolicy(mode="fixed", eta=0.1), 3)


def test_run_ends_at_an_overflowing_gradient_and_keeps_its_record():
    # x1 is finite, but the gradient 4 * x1 overflows its second coordinate
    obj = quad_euclidean(Q14, [0.0, 0.0])
    traj = run(obj, obj.manifold.point([2.0, 2.0]), StepSizePolicy(mode="fixed", eta=1e307), 5)
    assert traj.stop_reason == "gradient-error: tangent coordinates must be finite"
    assert len(traj.steps) == 2
    assert np.array_equal(traj.steps[1].point.coords, [2.0 - 2e307, 2.0 - 8e307])
    assert traj.steps[1].gradient_norm == math.inf


def test_run_rejects_a_start_with_a_non_finite_value():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    with pytest.raises(ObjectiveError, match="not finite at x0"):
        run(obj, obj.manifold.point([1e155, 1e155]), StepSizePolicy(mode="fixed", eta=0.1), 5)


def test_run_stops_where_the_objective_raises_at_a_point_that_fails_its_check():
    # the step overflows to -inf, where this single-point perturbed_quad gradient calls math.sin(-inf)
    def gradient_fn(c):
        g = Q14 @ c
        g[0] += 0.1 * 5.0 * math.sin(2.0 * 5.0 * c[0])
        return g

    obj = replace(perturbed_quad(Q14, [0.0, 0.0], epsilon=0.1), gradient_fn=gradient_fn)
    traj = run(obj, obj.manifold.point([2.0, 2.0]), StepSizePolicy(mode="fixed", eta=1e308), 5)
    assert traj.stop_reason == "step-error: point coordinates must be finite"
    assert len(traj.steps) == 1


def test_run_rejects_a_gradient_of_the_wrong_shape_at_a_later_iterate():
    obj = quad_euclidean(Q14, [0.0, 0.0])
    calls = []

    def short_after_the_start(c):
        calls.append(1)
        return obj.gradient_fn(c)[: 2 if len(calls) == 1 else 1]

    with pytest.raises(ObjectiveError, match=r"gradient of shape \(1,\)"):
        run(replace(obj, gradient_fn=short_after_the_start), obj.manifold.point([1.0, 1.0]),
            StepSizePolicy(mode="fixed", eta=0.1), 5)


def test_run_records_read_only_points_on_the_objective_manifold():
    obj = sqdist_hyperboloid([0.3, -0.4, math.sqrt(1.25)])
    x0 = sample_point(Region(obj.metadata.minimizer, 2.0), np.random.default_rng(3))
    traj = run(obj, x0, StepSizePolicy(mode="fixed", eta=0.3), 5)
    assert np.array_equal(traj.steps[0].point.coords, x0.coords)
    for rec in traj.steps:
        assert rec.point.manifold is obj.manifold
        assert not rec.point.coords.flags.writeable
        with pytest.raises(ValueError):
            rec.point.coords[0] = 0.0


def test_run_stop_paths_raise_no_runtime_warning():
    quad = quad_euclidean(Q14, [0.0, 0.0])
    hyp = sqdist_hyperboloid([0.0, 0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta, reason in ((1e160, "non-finite-value"), (1e307, "gradient-error:")):
            traj = run(quad, quad.manifold.point([2.0, 2.0]), StepSizePolicy(mode="fixed", eta=eta), 5,
                       region=Region(quad.metadata.minimizer, 3.0))
            assert traj.stop_reason.startswith(reason)
        traj = run(hyp, hyp.manifold.point([2.0, 0.0, 0.0, math.sqrt(5.0)]),
                   StepSizePolicy(mode="fixed", eta=2.5), 30, region=Region(hyp.metadata.minimizer, 2.0))
        assert traj.stop_reason.startswith("step-error: hyperboloid point")
        with pytest.raises(ObjectiveError):
            run(quad, quad.manifold.point([1e155, 1e155]), StepSizePolicy(mode="fixed", eta=0.1), 5)


def _oracle_run(obj, x0, eta, n_steps, region):
    """run() rebuilt one step at a time from the public checked API."""
    star, x, exited, stop_reason = obj.metadata.minimizer, x0, [], "completed"
    records = [(x0.coords, obj.value(x0), obj.gradient(x0).norm(), dist(x0, star))]
    for i in range(1, n_steps + 1):
        try:
            x = rgd_step(obj, x, eta)
        except (ManifoldError, StepSizeError) as e:
            stop_reason = f"step-error: {e}"
            break
        if region is not None and dist(region.center, x) > region.radius + REGION_EXIT_TOL:
            exited.append(i)
        value = obj.value(x)
        try:
            g_norm = obj.gradient(x).norm()
        except ManifoldError as e:
            # the record is kept, with the norm of the gradient that failed its check
            g = obj.gradient_fn(x.coords)
            g_norm = math.sqrt(max(obj.manifold._inner(x.coords, g, g), 0.0))
            stop_reason = f"gradient-error: {e}"
        records.append((x.coords, value, g_norm, dist(x, star)))
        if stop_reason != "completed":
            break
        if not (math.isfinite(value) and math.isfinite(g_norm)):
            stop_reason = "non-finite-value"
            break
    return records, stop_reason, tuple(exited)


RUN_OBJECTIVES = (
    quad_euclidean(Q14, [0.5, -0.5]),
    quad_flat_metric(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.0, 1.0], np.diag([4.0, 1.0])),
    rayleigh_sphere(np.diag([3.0, 2.5, 1.0])),
    sqdist_hyperboloid([0.3, -0.4, math.sqrt(1.25)]),
)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("obj", RUN_OBJECTIVES, ids=lambda obj: obj.manifold.kind)
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 25),
       eta=st.sampled_from([0.05, 0.3, 0.9, 1.9, 2.5, 10.0, 1e6, 1e160, 1e307]), with_region=st.booleans())
def test_run_matches_the_step_by_step_oracle(obj, seed, n_steps, eta, with_region):
    # large etas cover region exits, the sphere's pi guard, the hyperboloid chart
    # cap after several steps, and non-finite values and overflowing gradients on
    # the flat geometries
    region = Region(obj.metadata.minimizer, 0.5 if obj.manifold.kind == "sphere" else 2.0)
    x0 = sample_point(region, np.random.default_rng(seed))
    traj = run(obj, x0, StepSizePolicy(mode="fixed", eta=eta), n_steps, region=region if with_region else None)
    records, stop_reason, exited = _oracle_run(obj, x0, eta, n_steps, region if with_region else None)
    assert (traj.stop_reason, traj.exited_region) == (stop_reason, exited)
    assert [rec.index for rec in traj.steps] == list(range(len(records)))
    assert all(rec.eta_used == eta for rec in traj.steps)
    for rec, (coords, _, gradient_norm, _) in zip(traj.steps, records, strict=True):
        assert np.array_equal(rec.point.coords, coords)
        assert np.array_equal(rec.gradient_norm, gradient_norm, equal_nan=True)
    # values and distances come from row calls: the values equal the 1-d ones
    # except on the hyperboloid, whose row arcsinh may round differently; there,
    # as for every distance, equal or within roundoff of the 1-d one
    values = np.array([rec.value for rec in traj.steps])
    expected = np.array([value for _, value, *_ in records])
    if obj.manifold.kind == "hyperboloid":
        differ = values != expected
        oracles.assert_rows_match(values[differ], expected[differ])
    else:
        assert np.array_equal(values, expected, equal_nan=True)
    dists = np.array([d for *_, d in records])
    differ = traj.distances != dists
    oracles.assert_rows_match(traj.distances[differ], dists[differ])


def test_run_evaluates_one_gradient_per_iterate():
    # the shapes passed to gradient_fn: one single-point call per record; to
    # value_fn: one for the start and one row call for the 20 stepped iterates
    obj = quad_euclidean(Q14, [0.0, 0.0])
    shapes = {"gradient": [], "value": []}

    def counted(name, fn):
        def wrapped(c):
            shapes[name].append(c.shape)
            return fn(c)
        return wrapped

    traj = run(replace(obj, gradient_fn=counted("gradient", obj.gradient_fn), value_fn=counted("value", obj.value_fn)),
               obj.manifold.point([1.0, -2.0]), StepSizePolicy(mode="fixed", eta=0.1), 20)
    assert len(traj.steps) == 21
    assert shapes == {"gradient": [(2,)] * 21, "value": [(2,), (20, 2)]}


def test_run_ranks_a_non_finite_value_before_a_later_refused_step():
    # the value is NaN at record 3, and a steep gradient there makes the sphere
    # refuse the step from it; the trajectory ends at record 3
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    calls = []

    def nan_at_record_3(c):
        values = ray.value_fn(c)
        if c.ndim == 2:
            values[2] = math.nan
        return values

    def steep_at_record_3(c):
        calls.append(1)
        return ray.gradient_fn(c) * (1e6 if len(calls) == 4 else 1.0)

    x0 = ray.manifold.point(np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0))
    traj = run(replace(ray, value_fn=nan_at_record_3, gradient_fn=steep_at_record_3), x0,
               StepSizePolicy(mode="fixed", eta=0.1), 10)
    assert len(calls) == 4  # the loop itself stopped at the refused step from record 3
    assert traj.stop_reason == "non-finite-value"
    assert len(traj.steps) == 4
    assert math.isnan(traj.steps[3].value)
    assert all(math.isfinite(rec.value) for rec in traj.steps[:3])


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
