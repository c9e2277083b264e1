"""Acceptance gate: the eleven release criteria, one test and one verdict line each.

Each test prints `AC## PASS/FAIL - detail` and then asserts, so a plain
`pytest -v -s tests/test_acceptance.py` doubles as the release checklist.
"""

import json
import math
import time

import numpy as np

from _oracles import critical_points_1d, delta_bar_reference, zeta_reference

from geodescent.certify import (
    certify_region,
    preconditioned_equivalence,
    resolve_gamma,
    translate_constants,
)
from geodescent.cli import main as cli_main
from geodescent.curvature import delta_bar, lemma2_residual, zeta
from geodescent.manifolds import (
    Region,
    dist,
    exp_map,
    inner,
    log_map,
    parallel_transport,
)
from geodescent.objectives import (
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)
from geodescent.reporting import canonical_json
from geodescent.selftest import (
    base_point,
    catalog,
    check_converse_round_trip,
    check_forward_contraction_flat,
    check_forward_contraction_hyperbolic,
    rand_tangent,
    rand_triangle,
    tangent_cap,
)

Q14 = np.diag([1.0, 4.0])


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"AC{num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def _tangency_defect(v) -> float:
    """Constraint violation of a tangent vector, in the ambient bilinear form."""
    x = v.base
    kind = x.manifold.kind
    if kind == "sphere":
        return abs(float(np.dot(x.coords, v.coords)))
    if kind == "hyperboloid":
        spatial = float(np.dot(x.coords[:-1], v.coords[:-1]))
        return abs(spatial - float(x.coords[-1] * v.coords[-1]))
    return 0.0


def test_ac01_geometry_suite():
    start = time.perf_counter()
    worst = 0.0
    for m in catalog():
        rng = np.random.default_rng(101)
        cap = tangent_cap(m)
        for _ in range(1000):
            base = base_point(m)
            x = exp_map(base, rand_tangent(base, rng, rng.uniform(0.0, cap)))
            v = rand_tangent(x, rng, rng.uniform(1e-6, cap))
            y = exp_map(x, v)
            scale = max(1.0, math.sqrt(inner(x, v, v)))
            back = log_map(x, y)
            worst = max(worst, np.linalg.norm(back.coords - v.coords) / scale)
            worst = max(worst, abs(dist(x, y) - math.sqrt(inner(x, v, v))) / scale)
            w = rand_tangent(x, rng, 1.0)
            tw = parallel_transport(x, y, w)
            worst = max(worst, abs(math.sqrt(inner(y, tw, tw)) - math.sqrt(inner(x, w, w))))
            worst = max(worst, _tangency_defect(tw))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _line(1, ok, f"geometry round-trip/transport/distance worst defect {worst:.3e} in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_ac02_triangle_comparison_suite():
    start = time.perf_counter()
    worst_flat = 0.0
    worst_curved = math.inf
    flat, metric, sphere, hyper = catalog()
    rng = np.random.default_rng(202)
    for m in (flat, metric):
        for _ in range(1000):
            chk = lemma2_residual(*rand_triangle(m, rng, 3.0))
            worst_flat = max(worst_flat, abs(chk.residual) / chk.scale)
    for m, spread in ((sphere, 0.3), (hyper, 1.0)):
        for _ in range(1000):
            chk = lemma2_residual(*rand_triangle(m, rng, spread))
            worst_curved = min(worst_curved, chk.residual / chk.scale)
    elapsed = time.perf_counter() - start
    ok = worst_flat <= 1e-12 and worst_curved >= -1e-8 and elapsed < 5.0
    _line(2, ok, f"flat |res|/scale {worst_flat:.3e}, curved min res/scale {worst_curved:.3e}, {elapsed:.2f}s")
    assert worst_flat <= 1e-12
    assert worst_curved >= -1e-8
    assert elapsed < 5.0


def test_ac03_constant_formulas():
    exact = all(
        zeta(k, d) == 1.0 and delta_bar(-k, d) == 1.0
        for k in (0.0, 1.0, 2.5)
        for d in (0.0, 0.3, 1.7)
    )
    zeta_err = abs(zeta(-1.0, 1.0) - zeta_reference(-1.0, 1.0))
    db_err = abs(delta_bar(1.0, math.pi / 8.0) - delta_bar_reference(1.0, math.pi / 8.0))
    cont = max(abs(zeta(-1.0, 1e-9) - 1.0), abs(delta_bar(1.0, 1e-9) - 1.0))
    ok = exact and zeta_err <= 1e-12 and db_err <= 1e-12 and cont <= 1e-10
    _line(3, ok, f"flat cases exact={exact}, ref errors {zeta_err:.2e}/{db_err:.2e}, continuity {cont:.2e}")
    assert exact
    assert zeta_err <= 1e-12
    assert db_err <= 1e-12
    assert cont <= 1e-10


def test_ac04_forward_contraction_flat():
    start = time.perf_counter()
    failure = check_forward_contraction_flat(10_000)
    elapsed = time.perf_counter() - start
    ok = failure is None and elapsed < 10.0
    _line(4, ok, f"{failure or 'squared-distance ratio <= 0.75'} over 10^4 starts in [-10, 10]^2, {elapsed:.2f}s")
    assert failure is None
    assert elapsed < 10.0


def test_ac05_forward_contraction_hyperbolic():
    failure = check_forward_contraction_hyperbolic(100)
    _line(5, failure is None, f"{failure or 'squared-distance ratio <= 1 - eta'} at step eta = 1/zeta(-1,2)")
    assert failure is None


def test_ac06_converse_round_trip_flat():
    failure = check_converse_round_trip(10_000)
    detail = "certified; min residual/scale >= -1e-9, a*mu*eta <= c_obs, grid ratio in [1/4, 1/2]"
    _line(6, failure is None, f"{failure or detail} over 10^4 samples")
    assert failure is None


def test_ac07_converse_round_trip_sphere():
    start = time.perf_counter()
    obj = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))  # spectral gap 0.5
    region = Region(obj.metadata.minimizer, 0.15 * math.pi)
    gamma, _ = resolve_gamma(obj, region, 42)
    eta = min(1.0 / (zeta(1.0, region.radius) * gamma), 2.0 / gamma)
    cert = certify_region(obj, region, eta, 10_000, seed=42)
    elapsed = time.perf_counter() - start
    ok = cert.verdict == "certified" and cert.residual_min_scaled >= -1e-8 and elapsed < 30.0
    _line(7, ok, f"verdict={cert.verdict}, min residual/scale {cert.residual_min_scaled:.3e}, {elapsed:.2f}s")
    assert cert.verdict == "certified"
    assert cert.residual_min_scaled >= -1e-8
    assert elapsed < 30.0


def test_ac08_converse_round_trip_hyperboloid():
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    region = Region(obj.metadata.minimizer, 2.0)
    eta = 1.0 / zeta(-1.0, 2.0)
    cert = certify_region(obj, region, eta, 10_000, seed=42)
    ok = cert.verdict == "certified" and cert.residual_min_scaled >= -1e-8
    _line(8, ok, f"verdict={cert.verdict}, min residual/scale {cert.residual_min_scaled:.3e}")
    assert cert.verdict == "certified"
    assert cert.residual_min_scaled >= -1e-8


def test_ac09_preconditioned_routes():
    obj = quad_euclidean(np.diag([1.0, 2.0, 4.0]), [0.0, 0.0, 0.0])
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a_mat = basis @ np.diag(rng.uniform(0.5, 8.0, size=3)) @ basis.T
        a_mat = 0.5 * (a_mat + a_mat.T)
        x = obj.manifold.point(rng.uniform(-3.0, 3.0, size=3))
        worst = max(worst, preconditioned_equivalence(obj, a_mat, x, float(rng.uniform(0.0, 1.0))))

    tc = translate_constants(np.diag([2.0, 8.0]), 4.0, 1.0)
    exact = (tc.gamma, tc.mu) == (2.0, 0.125)

    flat_obj = quad_flat_metric(Q14, [0.0, 0.0], np.diag([2.0, 8.0]))
    cert = certify_region(flat_obj, Region(flat_obj.metadata.minimizer, 5.0),
                          1.0 / tc.gamma, 1000, seed=42, gamma_override=tc.gamma)

    ok = worst <= 1e-12 and exact and cert.verdict == "certified"
    _line(9, ok, f"route gap {worst:.3e}, translate exact={exact}, A-metric verdict={cert.verdict}")
    assert worst <= 1e-12
    assert exact
    assert cert.verdict == "certified"


def test_ac10_refutation_soundness():
    eps, omega = 0.4, 5.0
    # independent 1-D scan: the perturbation must create a critical point
    # away from the minimizer, inside the region, before we ask the
    # certifier to notice it
    section = lambda t: t + eps * omega * math.sin(2.0 * omega * t)
    roots = [t for t in critical_points_1d(section, -1.0, 1.0) if abs(t) > 1e-3]
    obj = perturbed_quad(Q14, [0.0, 0.0], epsilon=eps, omega=omega)
    cert = certify_region(obj, Region(obj.metadata.minimizer, 1.0),
                          1.0 / obj.metadata.gamma, 1000, seed=42)
    ok = bool(roots) and cert.verdict != "certified" and cert.witness is not None
    witness_at = "n/a" if cert.witness is None else f"{cert.witness['dist_to_min']:.3f}"
    _line(10, ok, f"oracle critical points {[round(t, 3) for t in roots]}, verdict={cert.verdict}, witness dist {witness_at}")
    assert roots, "oracle found no off-center critical point; objective is not tuned"
    assert cert.verdict != "certified"
    assert cert.witness is not None


def test_ac11_determinism(tmp_path):
    doc = {
        "manifold": {"kind": "euclidean", "dim": 2},
        "objective": {"id": "quad_euclidean",
                      "params": {"q": [[1.0, 0.0], [0.0, 4.0]], "minimizer": [0.0, 0.0]}},
        "region": {"radius": 10.0},
        "eta": 0.25,
        "n_samples": 500,
        "seed": 42,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))

    def run(out, workers=None):
        argv = ["certify", "--config", str(cfg), "--quiet", "--out", str(tmp_path / out)]
        if workers:
            argv += ["--workers", str(workers)]
        assert cli_main(argv) == 0
        return canonical_json(json.loads((tmp_path / out / "certificate.json").read_text()))

    first, second, parallel = run("a"), run("b"), run("c", workers=4)
    ok = first == second == parallel
    _line(11, ok, f"canonical certificate bytes identical across reruns and 1 vs 4 workers ({len(first)} bytes)")
    assert first == second
    assert first == parallel
