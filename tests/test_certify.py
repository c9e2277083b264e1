"""Certifier: residuals, converse formulas, certificates, and the equivalences."""

import dataclasses
import json
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodescent.certify import (
    GAMMA_PAIRS,
    CertificationError,
    certify_region,
    consistency_check,
    converse_parameters,
    descent_lemma_residual,
    distance_growth_residual,
    preconditioned_equivalence,
    resolve_gamma,
    translate_constants,
    weaker_smoothness_residual,
    wsc_residual,
)
from geodescent import certify as certify_module
from geodescent import manifolds
from geodescent.cli import main
from geodescent.config import parse_config
from geodescent.descent import StepSizeError, StepSizePolicy, rgd_step, run
from geodescent.manifolds import (
    Euclidean,
    Hyperboloid,
    ManifoldError,
    ManifoldPoint,
    Region,
    TangentVector,
    dist,
    sample_point,
)
from geodescent.objectives import (
    PAIR_SEPARATION,
    estimate_gamma,
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)
from geodescent.reporting import canonical_json

Q14 = np.diag([1.0, 4.0])


def quad():
    return quad_euclidean(Q14, [0.0, 0.0])


# ------------------------------------------------------------- wsc residual


def test_wsc_residual_identity_quadratic_is_zero():
    obj = quad_euclidean(np.eye(2), [0.0, 0.0])
    rng = np.random.default_rng(50)
    for _ in range(50):
        x = obj.manifold.point(rng.uniform(-5.0, 5.0, size=2))
        assert abs(wsc_residual(obj, x, 1.0, 1.0)) <= 1e-12


def test_wsc_residual_at_minimizer_is_zero():
    obj = quad()
    assert wsc_residual(obj, obj.metadata.minimizer, 1.0, 1.0) == 0.0


def test_wsc_residual_hand_value():
    obj = quad()
    x = obj.manifold.point([1.0, 1.0])
    assert abs(wsc_residual(obj, x, 1.0, 1.0) - 1.5) <= 1e-12


def test_wsc_residual_validates_constants():
    obj = quad()
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(CertificationError):
        wsc_residual(obj, x, 0.0, 1.0)
    with pytest.raises(CertificationError):
        wsc_residual(obj, x, 1.0, -2.0)


# ------------------------------------------------------- converse parameters


def test_converse_parameters_examples():
    a, mu = converse_parameters(1.0, 1.0, 1.0, 1.0)
    assert (a, mu) == (1.0, 0.5)
    a, mu = converse_parameters(0.25, 2.0, 0.5, 1.0)
    assert abs(a - 1.0 / 6.0) <= 1e-15
    assert mu == 1.0


def test_converse_parameters_small_delta_limit():
    a, _ = converse_parameters(1.0, 2.0, 0.5, 1e-12)
    assert abs(a - 1.0 / (2.0 * 2.0 * 0.5)) <= 1e-6


def test_converse_parameters_validation():
    with pytest.raises(CertificationError):
        converse_parameters(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(CertificationError):
        converse_parameters(1.5, 1.0, 1.0, 1.0)
    with pytest.raises(CertificationError):
        converse_parameters(0.5, -1.0, 1.0, 1.0)
    with pytest.raises(CertificationError):
        converse_parameters(0.5, 1.0, 0.0, 1.0)
    with pytest.raises(CertificationError):
        converse_parameters(0.5, 1.0, 1.0, 0.0)
    with pytest.raises(CertificationError):
        converse_parameters(0.5, 1.0, 1.0, 1.5)


# ---------------------------------------------------------------- consistency


def test_consistency_theorem_boundary_at_c_one():
    a, mu = converse_parameters(1.0, 1.0, 1.0, 1.0)
    rep = consistency_check(a, mu, 1.0, 1.0, theorem_parameters=True)
    assert rep.ok and rep.identity_ok and rep.bracket_ok
    assert abs(rep.product - 0.5) <= 1e-15  # c/2 boundary


def test_consistency_quarter_point():
    a, mu = converse_parameters(0.25, 2.0, 0.5, 1.0)
    rep = consistency_check(a, mu, 0.5, 0.25, theorem_parameters=True)
    assert rep.ok
    assert abs(rep.product - 0.25 / 3.0) <= 1e-15
    assert 0.0625 <= rep.product <= 0.125


def test_consistency_small_c_limit():
    c = 1e-12
    a, mu = converse_parameters(c, 1.0, 1.0, 1.0)
    rep = consistency_check(a, mu, 1.0, c, theorem_parameters=True)
    assert rep.ok
    assert abs(rep.product / c - 0.25) <= 1e-6


def test_consistency_grid():
    for c in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        a, mu = converse_parameters(c, 4.0, 0.25, 1.0)
        rep = consistency_check(a, mu, 0.25, c, theorem_parameters=True)
        assert rep.ok, f"grid point c={c} failed"


def test_consistency_flags_free_rate_improvement():
    rep = consistency_check(1.0, 1.0, 1.0, 0.5)
    assert not rep.product_le_c
    assert not rep.ok
    assert rep.identity_ok is None


def test_consistency_json_dict():
    rep = consistency_check(0.5, 0.5, 0.5, 0.5)
    doc = rep.to_json_dict()
    assert doc["product"] == 0.125
    assert doc["ok"] is True
    assert doc["theorem_form"] is False


# -------------------------------------------------------------- gamma source


def test_resolve_gamma_provenance():
    obj = quad()
    region = Region(obj.metadata.minimizer, 5.0)
    assert resolve_gamma(obj, region, 1) == (4.0, "analytic")
    assert resolve_gamma(obj, region, 1, override=9.9) == (9.9, "override")
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    ray_region = Region(ray.metadata.minimizer, 0.15 * math.pi)
    est1, source = resolve_gamma(ray, ray_region, 7)
    est2, _ = resolve_gamma(ray, ray_region, 7)
    assert source == "estimated"
    assert est1 == est2 > 0.0
    with pytest.raises(CertificationError):
        resolve_gamma(obj, region, 1, override=0.0)


@pytest.mark.parametrize("radius", [0.0, 1e-7, 5e-7, 6e-7, 1e-6, 1.9e-6])
def test_gamma_estimate_rejects_region_too_small_to_sample(radius):
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    region = Region(ray.metadata.minimizer, radius)
    with pytest.raises(CertificationError, match="set gamma"):
        resolve_gamma(ray, region, 7)
    with pytest.raises(CertificationError, match="set gamma"):
        certify_region(ray, region, "auto", 16, seed=7)
    cert = certify_region(ray, region, 0.1, 16, seed=7, gamma_override=2.0)
    assert (cert.verdict, cert.gamma_source) == ("certified", "override")


@pytest.mark.parametrize("dim", [1, 2])
def test_gamma_estimate_succeeds_at_twice_the_pair_separation(dim):
    # the smallest radius resolve_gamma accepts: every geometry, several seeds
    diag = np.diag([1.0, 4.0][:dim])
    apex = [0.0] * dim + [1.0]
    for obj in (quad_euclidean(diag, [0.0] * dim),
                quad_flat_metric(diag, [0.0] * dim, np.diag([2.0, 1.5][:dim])),
                rayleigh_sphere(np.diag([3.0, 2.5, 1.0][:dim + 1])),
                sqdist_hyperboloid(apex)):
        region = Region(obj.metadata.minimizer, 2.0 * PAIR_SEPARATION)
        for seed in range(5):
            est = estimate_gamma(obj, region, GAMMA_PAIRS, np.random.default_rng(seed))
            assert math.isfinite(est) and est > 0.0


# ------------------------------------------------------------- certify_region


def test_certify_quad_region():
    obj = quad()
    cert = certify_region(obj, Region(obj.metadata.minimizer, 10.0), 0.25, 1000, seed=42)
    assert cert.verdict == "certified"
    assert cert.gamma_source == "analytic"
    assert cert.gamma_used == 4.0
    assert cert.delta_bar_used == 1.0
    assert 0.0 < cert.c_obs < 1.0
    assert cert.residual_min_scaled >= -cert.tol_residual
    assert cert.consistency.ok
    assert cert.witness is None
    assert cert.flags == ()


def test_certificate_reproduces_converse_formulas():
    obj = quad()
    cert = certify_region(obj, Region(obj.metadata.minimizer, 10.0), 0.25, 500, seed=3)
    a, mu = converse_parameters(cert.c_obs, cert.gamma_used, cert.eta_used, cert.delta_bar_used)
    assert abs(cert.a - a) <= 1e-12 * a
    assert abs(cert.mu - mu) <= 1e-12 * mu


def test_certify_hyperboloid_region():
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    eta = math.tanh(2.0) / 2.0  # 1/zeta(-1, 2)
    cert = certify_region(obj, Region(obj.metadata.minimizer, 2.0), eta, 500, seed=42)
    assert cert.verdict == "certified"
    assert cert.delta_bar_used == 1.0
    assert cert.consistency.theorem_form
    assert cert.consistency.identity_ok


def test_certify_sphere_region():
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    region = Region(ray.metadata.minimizer, 0.15 * math.pi)
    gamma, _ = resolve_gamma(ray, region, 42)
    cert = certify_region(ray, region, 1.0 / gamma, 500, seed=42)
    assert cert.verdict == "certified"
    assert "gamma-estimated" in cert.flags
    assert 0.0 < cert.delta_bar_used < 1.0
    assert not cert.consistency.theorem_form  # attenuated constants, no exact identity


def test_certify_degenerate_region():
    obj = quad()
    cert = certify_region(obj, Region(obj.metadata.minimizer, 0.0), 0.25, 10, seed=1)
    assert cert.verdict == "certified"
    assert "degenerate-region" in cert.flags
    assert cert.c_obs == 1.0
    assert abs(cert.residual_min) <= 1e-12


def test_certify_detects_no_contraction_with_witness():
    obj = perturbed_quad(Q14, [0.0, 0.0], epsilon=0.4, omega=5.0)
    eta = 1.0 / obj.metadata.gamma
    cert = certify_region(obj, Region(obj.metadata.minimizer, 1.0), eta, 500, seed=42)
    assert cert.verdict != "certified"
    assert "no-contraction" in cert.flags
    assert cert.witness is not None
    assert cert.witness["reason"] == "no-contraction"
    assert cert.worst_ratio >= 1.0


def test_certify_flags_suspected_critical_points():
    # zero quadratic: every sample is a critical point away from the minimizer
    obj = quad_euclidean(np.zeros((2, 2)), [0.0, 0.0])
    cert = certify_region(obj, Region(obj.metadata.minimizer, 1.0), 0.1, 64,
                          seed=0, gamma_override=1.0)
    assert cert.verdict == "inconclusive"
    assert "critical-point-suspect" in cert.flags
    assert "no-contraction" in cert.flags
    assert "gamma-override" in cert.flags


def test_certify_flags_step_errors():
    # enormous step: the exponential overflows for most samples, expands the rest
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    cert = certify_region(obj, Region(obj.metadata.minimizer, 2.0), 1e3, 64, seed=0)
    assert cert.verdict == "inconclusive"
    assert "step-error" in cert.flags


def test_certify_all_steps_error_is_inconclusive():
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    cert = certify_region(obj, Region(obj.metadata.minimizer, 2.0), 1e9, 50, seed=0)
    assert cert.verdict == "inconclusive"
    assert "step-error" in cert.flags
    assert cert.c_obs is None
    # so is a region so wide that values, gradient norms or ratios overflow; the
    # certificate holds no inf or NaN, and no RuntimeWarning escapes
    obj = quad()
    for radius in (1e154, 1e160):
        cert = certify_region(obj, Region(obj.metadata.minimizer, radius), 0.25, 50, seed=1)
        assert cert.verdict == "inconclusive"
        assert "non-finite-value" in cert.flags
        assert (cert.c_obs, cert.residual_min, cert.residual_mean) == (None, None, None)
        canonical_json(cert.to_json_dict())


def test_certify_flags_region_exit():
    obj = quad()
    cert = certify_region(obj, Region(obj.metadata.minimizer, 10.0), 10.0, 200, seed=5)
    assert "step-exits-region" in cert.flags
    assert "no-contraction" in cert.flags


def test_certify_input_validation():
    obj = quad()
    region = Region(obj.metadata.minimizer, 1.0)
    with pytest.raises(CertificationError):
        certify_region(obj, region, 0.25, 0)
    with pytest.raises(CertificationError):
        certify_region(obj, region, 0.25, 1.5)
    with pytest.raises(CertificationError):
        certify_region(obj, region, 0.25, 10, workers=0)
    with pytest.raises(CertificationError):
        certify_region(obj, region, -0.25, 10)
    with pytest.raises(CertificationError):
        certify_region(obj, region, 0.25, 10, tol_residual=0.0)
    with pytest.raises(CertificationError):
        certify_region(obj, region, 0.25, 10, seed=-1)


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_certify_evaluates_gradient_and_value_once_per_sample():
    # the shapes passed to value_fn / gradient_fn: all 50 sample rows in one call each
    shapes = {"value": [], "gradient": []}

    def recording(name, fn):
        def wrapper(c):
            shapes[name].append(np.shape(c))
            return fn(c)
        return wrapper

    obj = quad()
    obj = dataclasses.replace(obj, value_fn=recording("value", obj.value_fn),
                              gradient_fn=recording("gradient", obj.gradient_fn))
    cert = certify_region(obj, Region(obj.metadata.minimizer, 10.0), 0.25, 50, seed=3)
    assert cert.verdict == "certified"
    assert shapes["gradient"] == [(50, 2)]
    assert sorted(shapes["value"]) == [(2,), (50, 2)]  # the sample rows, plus f(x*) once


FOUR_GEOMETRIES = {
    "euclidean": (quad, 10.0, 4.0),
    "flat_metric": (lambda: quad_flat_metric(Q14, [0.0, 0.0], [[2.0, 0.3], [0.3, 1.5]]), 5.0, 3.0),
    "sphere": (lambda: rayleigh_sphere(np.diag([3.0, 2.5, 1.0])), 0.5, 2.1),
    "hyperboloid": (lambda: sqdist_hyperboloid([0.0, 0.0, 1.0]), 2.0, 1.0),
}


def count_rows(monkeypatch, owner, name):
    """Row count of the last array argument of each call of owner.name."""
    rows = []
    real = getattr(owner, name)

    def counted(*args):
        rows.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return rows


@pytest.mark.parametrize("kind", sorted(FOUR_GEOMETRIES))
def test_pipelines_validate_each_point_and_gradient_once(monkeypatch, kind):
    # certify: the drawn rows, then the stepped rows, through the row point
    # check, and the gradient rows through the row tangent check, once each;
    # run: x0's gradient on entry, then the stepped rows and every record's
    # gradient row after the loop, with no point or tangent built per step
    make, radius, gamma = FOUR_GEOMETRIES[kind]
    obj = make()
    region = Region(obj.metadata.minimizer, radius)
    x0 = sample_point(region, np.random.default_rng(1))
    point_rows = count_rows(monkeypatch, type(obj.manifold), "_points_ok")
    tangent_rows = count_rows(monkeypatch, type(obj.manifold), "_tangents_ok")
    points = count_calls(monkeypatch, ManifoldPoint, "__post_init__")
    tangents = count_calls(monkeypatch, TangentVector, "__post_init__")
    certify_region(obj, region, "auto", 50, seed=3, gamma_override=gamma)
    assert (point_rows, tangent_rows) == ([50, 50], [50])
    assert (len(points), len(tangents)) == (0, 0)
    for counted in (point_rows, tangent_rows, points, tangents):
        counted.clear()
    traj = run(obj, x0, StepSizePolicy(mode="fixed", eta=0.1), 20, region=region)
    assert traj.stop_reason == "completed"
    assert (point_rows, tangent_rows) == ([20], [21])
    assert (len(points), len(tangents)) == (0, 1)


@contextmanager
def recorded_points():
    """The rows that certify_region draws (manifolds._draw_coords) inside the block, in order."""
    drawn = []
    real = certify_module._draw_coords

    def recording(*args):
        rows = real(*args)
        drawn.extend(rows)
        return rows

    with mock.patch.object(certify_module, "_draw_coords", recording):
        yield drawn


def test_different_seeds_draw_disjoint_point_sets():
    obj = quad()
    region = Region(obj.metadata.minimizer, 10.0)
    point_sets = []
    for seed in range(4):
        with recorded_points() as drawn:
            certify_region(obj, region, 0.25, 1000, seed=seed)
        assert len(drawn) == 1000
        point_sets.append({c.tobytes() for c in drawn})
    for i in range(4):
        for j in range(i + 1, 4):
            assert not point_sets[i] & point_sets[j], (i, j)


@pytest.mark.parametrize("eta, make", [(0.25, quad), ("auto", lambda: rayleigh_sphere(np.diag([3.0, 2.5, 1.0])))],
                         ids=["analytic-gamma", "estimated-gamma"])
def test_certificate_builds_a_constant_number_of_generators(monkeypatch, eta, make):
    obj = make()
    region = Region(obj.metadata.minimizer, 0.5)
    built = count_calls(monkeypatch, np.random, "default_rng")
    counts = []
    for n in (10, 1000):
        built.clear()
        certify_region(obj, region, eta, n, seed=5)
        counts.append(len(built))
    assert counts[0] == counts[1]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(FOUR_GEOMETRIES)), seed=st.integers(0, 2**64 - 1),
       n=st.integers(1, 40), data=st.data())
def test_first_samples_do_not_depend_on_the_sample_count(kind, seed, n, data):
    k = data.draw(st.integers(1, n))
    make, radius, gamma = FOUR_GEOMETRIES[kind]
    obj = make()
    region = Region(obj.metadata.minimizer, radius)
    runs = []
    for count in (n, k):
        with recorded_points() as drawn:
            certify_region(obj, region, "auto", count, seed=seed, gamma_override=gamma)
        assert len(drawn) == count
        runs.append(np.array(drawn))
    assert np.array_equal(runs[0][:k], runs[1])


Q14_PARAMS = {"q": [[1, 0], [0, 4]], "minimizer": [0, 0]}


@pytest.mark.parametrize("doc", [
    {"manifold": {"kind": "euclidean", "dim": 2}, "region": {"radius": 10.0}, "seed": 3,
     "objective": {"id": "quad_euclidean", "params": Q14_PARAMS}},
    {"manifold": {"kind": "euclidean", "dim": 2}, "region": {"radius": 10.0}, "seed": 2**64 - 1, "eta": 0.1,
     "objective": {"id": "quad_euclidean", "params": Q14_PARAMS}},
    {"manifold": {"kind": "sphere", "dim": 2}, "region": {"radius": 0.5}, "gamma": 2.1, "seed": 11,
     "objective": {"id": "rayleigh_sphere", "params": {"matrix": [[3, 0, 0], [0, 2.5, 0], [0, 0, 1]]}}},
    {"manifold": {"kind": "hyperboloid", "dim": 2}, "region": {"radius": 2.0}, "seed": 0,
     "objective": {"id": "sqdist_hyperboloid", "params": {"target": [0.0, 0.0, 1.0]}}},
])
def test_cli_run_starts_at_certify_sample_zero(tmp_path, capsys, doc):
    doc = dict(doc, n_steps=2, out=str(tmp_path / "run"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--quiet"]) == 0
    with open(tmp_path / "run" / "trajectory.json", encoding="utf-8") as fh:
        start = json.load(fh)["steps"][0]["coords"]
    cfg = parse_config(doc)
    with recorded_points() as drawn:
        certify_region(cfg.objective, cfg.region, cfg.eta, 3, cfg.seed, gamma_override=cfg.gamma)
    assert len(drawn) == 3
    assert np.array_equal(drawn[0], start)


def test_certify_auto_eta_applies_the_auto_policy():
    # sphere: estimated gamma; hyperboloid: zeta > 1 shrinks the step
    for obj, radius in ((rayleigh_sphere(np.diag([3.0, 2.5, 1.0])), 0.4),
                        (sqdist_hyperboloid([0.0, 0.0, 1.0]), 1.5)):
        region = Region(obj.metadata.minimizer, radius)
        auto = certify_region(obj, region, "auto", 64, seed=5)
        gamma, _ = resolve_gamma(obj, region, 5)
        zeta_r = 1.0 if obj.manifold.kind == "sphere" else radius / math.tanh(radius)
        expected = min(1.0 / (zeta_r * gamma), 2.0 / gamma)
        assert auto.eta_used == expected
        assert auto.to_json_dict() == certify_region(obj, region, expected, 64, seed=5).to_json_dict()


def test_certify_rejects_hyperboloid_region_beyond_the_chart():
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    with pytest.raises(CertificationError) as info:
        certify_region(obj, Region(obj.metadata.minimizer, 7.7), 0.5, 20, seed=1)
    assert "chart limit" in str(info.value)
    # off-apex centre at distance 2 whose ball of radius 6 crosses the cap
    off = sqdist_hyperboloid([math.sinh(2.0), 0.0, math.cosh(2.0)])
    with pytest.raises(CertificationError):
        certify_region(off, Region(off.metadata.minimizer, 6.0), 0.5, 20, seed=1)
    assert math.acosh(Hyperboloid.TIME_CAP) > 7.5
    cert = certify_region(obj, Region(obj.metadata.minimizer, 7.5), 0.5, 50, seed=1)
    assert cert.verdict == "certified"


# (kind, eta, gamma override): the four geometries with eta auto, plus sphere
# steps of eta * |g| >= pi on part of the rows, which must become step errors
BATCH_CASES = {kind: (kind, "auto", gamma) for kind, (_, _, gamma) in FOUR_GEOMETRIES.items()}
BATCH_CASES["sphere-past-pi"] = ("sphere", 9.0, 0.2)


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_certify_matches_a_per_sample_recomputation(case):
    # the row pipeline against the 1-d one (rgd_step, dist, wsc_residual) on the same draws
    kind, eta, gamma = BATCH_CASES[case]
    make, radius, _ = FOUR_GEOMETRIES[kind]
    obj = make()
    region = Region(obj.metadata.minimizer, radius if case != "sphere-past-pi" else 0.7)
    with recorded_points() as drawn:
        cert = certify_region(obj, region, eta, 200, seed=4, gamma_override=gamma)
    xstar = obj.metadata.minimizer
    points, ratios, errors = [], [], 0
    for c in drawn:
        x = ManifoldPoint(obj.manifold, c)
        points.append(x)
        try:
            y = rgd_step(obj, x, cert.eta_used)
        except (ManifoldError, StepSizeError):
            errors += 1
            continue
        ratios.append((dist(y, xstar) / dist(x, xstar)) ** 2)
    assert ("step-error" in cert.flags) == (errors > 0)
    assert 0 < errors < 200 if case == "sphere-past-pi" else errors == 0
    assert cert.worst_ratio == pytest.approx(max(ratios), rel=1e-12)
    if cert.residual_min is not None:
        residuals = [wsc_residual(obj, x, cert.a, cert.mu) for x in points]
        assert cert.residual_min == pytest.approx(min(residuals), rel=1e-9, abs=1e-12)
        assert cert.residual_mean == pytest.approx(math.fsum(residuals) / 200, rel=1e-9, abs=1e-12)


def test_certify_raises_on_rows_that_fail_their_check(monkeypatch):
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    region = Region(ray.metadata.minimizer, 0.5)

    def broken_row(fn, k, scale):
        def wrapper(c):
            out = np.array(fn(c))
            if out.ndim == 2:
                out[k] = scale(out[k], c[k])
            return out
        return wrapper

    cases = [  # (gradient_fn, message of the 1-d check on the failing row)
        (broken_row(ray.gradient_fn, 7, lambda g, x: g + np.nan), "must be finite"),
        (broken_row(ray.gradient_fn, 7, lambda g, x: g + 1e-3 * x), "not orthogonal"),
    ]
    for gradient_fn, message in cases:
        with pytest.raises(ManifoldError, match=message):
            certify_region(dataclasses.replace(ray, gradient_fn=gradient_fn), region, 0.3, 20, seed=1)
    # a value_fn written for one point only returns one value for all the rows
    summed = dataclasses.replace(ray, value_fn=lambda c: -0.5 * float(np.sum(c * (c @ np.diag([3.0, 2.5, 1.0])))))
    with pytest.raises(CertificationError, match="value_fn returned shape"):
        certify_region(summed, region, 0.3, 20, seed=1)
    real = manifolds.Sphere._exp
    monkeypatch.setattr(manifolds.Sphere, "_exp", lambda self, x, v: (1.0 + 1e-6) * real(self, x, v))
    with pytest.raises(ManifoldError, match="unit norm"):
        certify_region(ray, region, 0.3, 20, seed=1, gamma_override=2.1)


def test_certify_logarithm_error_is_recorded_on_its_sample(monkeypatch):
    real = manifolds.Sphere._log

    # certify takes the logarithm of all sample rows in one call, which then
    # raises if any row has x[1] > 0.1
    def flaky(self, x, y):
        if np.any(np.atleast_2d(x)[:, 1] > 0.1):
            raise manifolds.UndefinedLogarithmError("forced")
        return real(self, x, y)

    monkeypatch.setattr(manifolds.Sphere, "_log", flaky)
    obj = rayleigh_sphere(np.diag([0.0, 0.5, 1.0, 3.0]))
    cert = certify_region(obj, Region(obj.metadata.minimizer, 0.5), 0.3, 64, seed=0)
    assert cert.verdict == "inconclusive"
    assert "step-error" in cert.flags
    assert cert.c_obs is not None and cert.a is not None
    assert cert.residual_min is None


def test_certify_rejects_mismatched_region():
    obj = quad()
    foreign = Region(Euclidean(3).point([0.0, 0.0, 0.0]), 1.0)
    with pytest.raises(CertificationError):
        certify_region(obj, foreign, 0.25, 10)
    off_center = Region(obj.manifold.point([1.0, 0.0]), 1.0)
    with pytest.raises(CertificationError) as info:
        certify_region(obj, off_center, 0.25, 10)
    assert "minimizer" in str(info.value)


def test_certify_enforces_step_cap_on_positive_curvature():
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    region = Region(ray.metadata.minimizer, 0.15 * math.pi)
    with pytest.raises(CertificationError) as info:
        certify_region(ray, region, 2.0, 10, seed=1)
    assert "2/gamma" in str(info.value)


def test_certificate_json_shape():
    obj = quad()
    cert = certify_region(obj, Region(obj.metadata.minimizer, 10.0), 0.25, 64, seed=2)
    doc = cert.to_json_dict()
    assert doc["version"] == "0.2.0"
    assert doc["verdict"] == "certified"
    assert doc["manifold"] == {"kind": "euclidean", "dim": 2}
    assert isinstance(doc["flags"], list)
    assert doc["consistency"]["ok"] is True
    assert doc["seed"] == 2
    assert doc["n_samples"] == 64


# ------------------------------------------------- certified constants reuse


def test_certified_constants_feed_back_into_contraction():
    # forward direction: the certified (a, mu) and the a/gamma policy step
    # must reproduce at least the contraction they promise
    obj = quad()
    region = Region(obj.metadata.minimizer, 10.0)
    cert = certify_region(obj, region, 0.25, 500, seed=11)
    eta = cert.a / cert.gamma_used
    bound = 1.0 - cert.a * cert.mu * eta
    rng = np.random.default_rng(12)
    star = obj.metadata.minimizer
    for _ in range(1000):
        x = sample_point(region, rng)
        d0 = dist(x, star)
        if d0 <= 1e-12:
            continue
        d1 = dist(rgd_step(obj, x, eta), star)
        assert (d1 / d0) ** 2 <= bound + 1e-9


# ----------------------------------------------------------- aux inequalities


def test_aux_residuals_are_tight_for_extremal_quadratic():
    gamma = 3.0
    obj = quad_euclidean(gamma * np.eye(2), [0.0, 0.0])
    rng = np.random.default_rng(51)
    for _ in range(50):
        x = obj.manifold.point(rng.uniform(-4.0, 4.0, size=2))
        y = obj.manifold.point(rng.uniform(-4.0, 4.0, size=2))
        scale = max(1.0, abs(obj.value(x)), abs(obj.value(y)))
        assert abs(weaker_smoothness_residual(obj, x, gamma)) <= 1e-12 * scale
        assert abs(distance_growth_residual(obj, x, gamma)) <= 1e-12 * scale
        assert abs(descent_lemma_residual(obj, x, y, gamma)) <= 1e-12 * scale


def test_aux_residual_hand_values():
    obj = quad()
    x = obj.manifold.point([1.0, 0.0])
    assert abs(weaker_smoothness_residual(obj, x, 4.0) - 0.375) <= 1e-15
    assert abs(distance_growth_residual(obj, x, 4.0) - 0.75) <= 1e-15
    assert descent_lemma_residual(obj, x, x, 4.0) == 0.0


def test_descent_lemma_on_sphere_with_estimated_gamma():
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    region = Region(ray.metadata.minimizer, 0.15 * math.pi)
    gamma, _ = resolve_gamma(ray, region, 13)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = sample_point(region, rng)
        y = sample_point(region, rng)
        assert descent_lemma_residual(ray, x, y, gamma) >= -1e-8


def test_aux_residuals_validate_gamma():
    obj = quad()
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(CertificationError):
        weaker_smoothness_residual(obj, x, 0.0)
    with pytest.raises(CertificationError):
        distance_growth_residual(obj, x, -1.0)
    with pytest.raises(CertificationError):
        descent_lemma_residual(obj, x, x, math.inf)


# --------------------------------------------------------- preconditioned GD


def test_preconditioned_identity_metric_is_plain_gd():
    obj = quad()
    x = obj.manifold.point([1.5, -2.0])
    assert preconditioned_equivalence(obj, np.eye(2), x, 0.3) <= 1e-15


def test_preconditioned_hand_example():
    obj = quad_euclidean(np.eye(2), [0.0, 0.0])
    x = obj.manifold.point([2.0, 3.0])
    assert preconditioned_equivalence(obj, np.diag([2.0, 3.0]), x, 1.0) <= 1e-15


def test_preconditioned_zero_step():
    obj = quad()
    x = obj.manifold.point([1.0, 1.0])
    assert preconditioned_equivalence(obj, np.diag([2.0, 5.0]), x, 0.0) == 0.0


def test_preconditioned_validation():
    obj = quad()
    x = obj.manifold.point([1.0, 0.0])
    with pytest.raises(CertificationError):
        preconditioned_equivalence(obj, np.diag([1.0, -1.0]), x, 0.1)
    with pytest.raises(CertificationError):
        preconditioned_equivalence(obj, np.eye(2), x, -0.1)
    ray = rayleigh_sphere(np.diag([3.0, 1.0]))
    with pytest.raises(CertificationError):
        preconditioned_equivalence(ray, np.eye(2), ray.metadata.minimizer, 0.1)


# -------------------------------------------------------- constant translation


def test_translate_constants_identity():
    tc = translate_constants(np.eye(3), 4.0, 1.0)
    assert (tc.gamma, tc.mu) == (4.0, 1.0)
    assert (tc.metric_lambda_min, tc.metric_lambda_max) == (1.0, 1.0)


def test_translate_constants_exact_example():
    tc = translate_constants(np.diag([2.0, 8.0]), 4.0, 1.0)
    assert (tc.gamma, tc.mu) == (2.0, 0.125)


def test_translate_constants_validation():
    with pytest.raises(CertificationError):
        translate_constants(np.diag([1.0, 0.0]), 1.0, 1.0)
    with pytest.raises(CertificationError):
        translate_constants(np.eye(2), 0.0, 1.0)


def test_translated_constants_certify_flat_metric_objective():
    a_mat = np.diag([2.0, 8.0])
    obj = quad_flat_metric(Q14, [0.0, 0.0], a_mat)
    tc = translate_constants(a_mat, 4.0, 1.0)
    cert = certify_region(obj, Region(obj.metadata.minimizer, 5.0), 1.0 / tc.gamma,
                          400, seed=42, gamma_override=tc.gamma)
    assert cert.verdict == "certified"
    assert "gamma-override" in cert.flags
    assert cert.residual_min >= -1e-9
