"""The package's invariant checks, shared by the selftest command and the test battery.

Each check takes a sample count n, reruns one of the package's mathematical
contracts on n draws, and returns None or a message naming what failed.
`run_selftest` runs every check at N = 100 samples, so a deployed install can
re-verify itself in seconds; the test battery calls these same functions at
full scale (`tests/test_selftest.py` and AC04-AC06), so each property has one
definition. Corrupted internals (a wrong comparison constant, a broken
exponential map) surface with the name of the violated property. Geometry and
curvature calls go through the module namespaces on purpose: patching those
modules is the supported way to prove the checks actually catch corruption.

The sampling helpers below (`catalog`, `base_point`, `rand_tangent`,
`rand_point`, `tangent_cap`, `rand_triangle`, `objective_zoo`) are the
battery's too. They bypass Region, whose positive-curvature radius cap would
forbid wide geometric sampling, and draw points by shooting tangents from a
canonical base point.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

import numpy as np

from . import curvature, manifolds
from .certify import (
    certify_region,
    consistency_check,
    converse_parameters,
    preconditioned_equivalence,
    resolve_gamma,
    translate_constants,
    wsc_residual,
)
from .descent import rgd_step
from .manifolds import (
    Euclidean,
    FlatMetric,
    Hyperboloid,
    ManifoldPoint,
    Region,
    Sphere,
    TangentVector,
)
from .objectives import (
    fd_gradient_oracle,
    perturbed_quad,
    quad_euclidean,
    quad_flat_metric,
    rayleigh_sphere,
    sqdist_hyperboloid,
)

__all__ = [
    "run_selftest",
    "CHECKS",
    "N",
    "catalog",
    "base_point",
    "rand_tangent",
    "rand_point",
    "tangent_cap",
    "rand_triangle",
    "objective_zoo",
]

N = 100
Q14 = np.diag([1.0, 4.0])


def catalog():
    """One manifold of each geometry: two flat, then the sphere and the hyperboloid."""
    return [
        Euclidean(3),
        FlatMetric([[2.0, 0.3], [0.3, 1.5]]),
        Sphere(2),
        Hyperboloid(2),
    ]


def base_point(m) -> ManifoldPoint:
    coords = np.zeros(m.ambient_dim)
    if m.kind == "sphere":
        coords[0] = 1.0
    elif m.kind == "hyperboloid":
        coords[-1] = 1.0
    return m.point(coords)


def rand_tangent(x: ManifoldPoint, rng: np.random.Generator, length: float) -> TangentVector:
    while True:
        t = manifolds.project_tangent(x, rng.standard_normal(x.manifold.ambient_dim))
        nrm = t.norm()
        if nrm > 1e-12:
            return TangentVector(x, t.coords * (length / nrm))


def rand_point(m, rng: np.random.Generator, spread: float) -> ManifoldPoint:
    base = base_point(m)
    return manifolds.exp_map(base, rand_tangent(base, rng, spread * rng.random()))


def tangent_cap(m) -> float:
    # stay inside 0.9 of the sphere's injectivity radius; elsewhere just bounded
    return 0.9 * math.pi if m.kind == "sphere" else 3.0


def rand_triangle(m, rng: np.random.Generator, spread: float):
    center = rand_point(m, rng, 0.3)
    pts = []
    while len(pts) < 3:
        p = manifolds.exp_map(center, rand_tangent(center, rng, spread * rng.random()))
        if all(manifolds.dist(p, q) > 1e-6 for q in pts):
            pts.append(p)
    return pts


def objective_zoo():
    """One objective of each catalog id."""
    return [
        quad_euclidean(Q14, [0.0, 0.0]),
        quad_flat_metric(Q14, [0.0, 0.0], [[2.0, 0.3], [0.3, 1.5]]),
        rayleigh_sphere(np.diag([3.0, 2.5, 1.0])),
        sqdist_hyperboloid([0.3, -0.2, math.sqrt(1.0 + 0.09 + 0.04)]),
        perturbed_quad(Q14, [0.0, 0.0]),
    ]


def check_geometry_round_trip(n: int) -> Optional[str]:
    rng = np.random.default_rng(101)
    for m in catalog():
        for _ in range(n):
            x = rand_point(m, rng, 1.0)
            v = rand_tangent(x, rng, tangent_cap(m) * max(rng.random(), 1e-3))
            y = manifolds.exp_map(x, v)
            back = manifolds.log_map(x, y)
            err = float(np.linalg.norm(back.coords - v.coords))
            if err > 1e-9 * max(1.0, v.norm()):
                return f"{m.kind}: log(exp(v)) missed v by {err:.3e}"
    return None


def check_geometry_distance_consistency(n: int) -> Optional[str]:
    rng = np.random.default_rng(102)
    for m in catalog():
        for _ in range(n):
            x = rand_point(m, rng, 1.0)
            v = rand_tangent(x, rng, tangent_cap(m) * max(rng.random(), 1e-3))
            d = manifolds.dist(x, manifolds.exp_map(x, v))
            if abs(d - v.norm()) > 1e-10 * max(1.0, v.norm()):
                return f"{m.kind}: dist(x, exp(v)) = {d!r} but ||v|| = {v.norm()!r}"
    return None


def check_geometry_transport(n: int) -> Optional[str]:
    rng = np.random.default_rng(103)
    for m in catalog():
        for _ in range(n):
            x = rand_point(m, rng, 1.0)
            y = rand_point(m, rng, 1.0)
            if m.kind == "sphere" and manifolds.dist(x, y) > math.pi - 1e-3:
                continue
            v = rand_tangent(x, rng, 0.5 + rng.random())
            moved = manifolds.parallel_transport(x, y, v)
            if abs(moved.norm() - v.norm()) > 1e-10 * max(1.0, v.norm()):
                return f"{m.kind}: transport changed the norm by {abs(moved.norm() - v.norm()):.3e}"
            back = manifolds.parallel_transport(y, x, moved)
            if float(np.linalg.norm(back.coords - v.coords)) > 1e-9 * max(1.0, v.norm()):
                return f"{m.kind}: transport there-and-back failed to recover v"
    return None


def check_geometry_triangle_inequality(n: int) -> Optional[str]:
    rng = np.random.default_rng(104)
    for m in catalog():
        for _ in range(n):
            x, y, z = (rand_point(m, rng, 1.0) for _ in range(3))
            if manifolds.dist(x, z) > manifolds.dist(x, y) + manifolds.dist(y, z) + 1e-10:
                return f"{m.kind}: triangle inequality violated"
    return None


def check_curvature_reference_values(n: int) -> Optional[str]:
    # exact reference values: n is unused
    if curvature.zeta(0.5, 2.0) != 1.0 or curvature.zeta(0.0, 5.0) != 1.0:
        return "zeta must be exactly 1 for nonnegative curvature"
    if curvature.delta_bar(-1.0, 7.0) != 1.0 or curvature.delta_bar(0.0, 3.0) != 1.0:
        return "delta_bar must be exactly 1 for nonpositive curvature"
    if abs(curvature.zeta(-1.0, 1.0) - 1.0 / math.tanh(1.0)) > 1e-12:
        return "zeta(-1, 1) does not match coth(1)"
    if abs(curvature.delta_bar(1.0, math.pi / 8.0) - math.pi / 4.0) > 1e-12:
        return "delta_bar(1, pi/8) does not match pi/4"
    if abs(curvature.zeta(-1.0, 1e-6) - 1.0) > 1e-10:
        return "zeta is discontinuous at d = 0"
    if abs(curvature.delta_bar(1.0, 1e-6) - 1.0) > 1e-10:
        return "delta_bar is discontinuous at d = 0"
    return None


def check_lemma2_flat_exactness(n: int) -> Optional[str]:
    rng = np.random.default_rng(105)
    for m in catalog()[:2]:
        for _ in range(n):
            chk = curvature.lemma2_residual(*rand_triangle(m, rng, 2.0))
            if chk.delta_used != 1.0:
                return f"{m.kind}: flat triangle used delta {chk.delta_used!r}, not 1"
            if abs(chk.residual) > 1e-12 * chk.scale:
                return f"{m.kind}: flat triangle residual {chk.residual:.3e} is not zero"
    return None


def check_lemma2_curved_bound(n: int) -> Optional[str]:
    rng = np.random.default_rng(106)
    for m in catalog()[2:]:
        for _ in range(n):
            chk = curvature.lemma2_residual(*rand_triangle(m, rng, 0.4))
            if chk.residual < -1e-8 * chk.scale:
                return f"{m.kind}: comparison residual {chk.residual:.3e} below tolerance"
    return None


def check_objective_gradients(n: int) -> Optional[str]:
    rng = np.random.default_rng(107)
    for obj in objective_zoo():
        star = obj.metadata.minimizer
        if obj.gradient(star).norm() > 1e-8:
            return f"{obj.id}: gradient at the minimizer is not zero"
        for _ in range(n):
            x = manifolds.exp_map(star, rand_tangent(star, rng, 0.4 * max(rng.random(), 0.1)))
            g = obj.gradient(x)
            fd = fd_gradient_oracle(obj, x)
            err = float(np.linalg.norm(fd.coords - g.coords))
            if err > 1e-5 * max(1.0, g.norm()):
                return f"{obj.id}: finite differences disagree with the gradient by {err:.3e}"
    return None


def check_forward_contraction_flat(n: int) -> Optional[str]:
    # starts fill the box [-10, 10]^2, which holds the radius-10 ball
    rng = np.random.default_rng(108)
    obj = quad_euclidean(Q14, [0.0, 0.0])
    star = obj.metadata.minimizer
    for _ in range(n):
        x = obj.manifold.point(rng.uniform(-10.0, 10.0, size=2))
        d0 = manifolds.dist(x, star)
        if d0 <= 1e-12:
            continue
        ratio = (manifolds.dist(rgd_step(obj, x, 0.25), star) / d0) ** 2
        if ratio > 0.75 + 1e-12:
            return f"squared-distance ratio {ratio:.12f} exceeded 1 - a*mu*eta = 0.75"
    return None


def check_forward_contraction_hyperbolic(n: int) -> Optional[str]:
    rng = np.random.default_rng(109)
    obj = sqdist_hyperboloid([0.0, 0.0, 1.0])
    star = obj.metadata.minimizer
    region = Region(star, 2.0)
    eta = 1.0 / curvature.zeta(-1.0, 2.0)
    for _ in range(n):
        x = manifolds.sample_point(region, rng)
        d0 = manifolds.dist(x, star)
        if d0 <= 1e-12:
            continue
        ratio = (manifolds.dist(rgd_step(obj, x, eta), star) / d0) ** 2
        if ratio > 1.0 - eta + 1e-9:
            return f"squared-distance ratio {ratio:.6f} exceeded 1 - eta = {1.0 - eta:.6f}"
    return None


def check_converse_round_trip(n: int) -> Optional[str]:
    # certify on n samples, rebuild (a, mu) from c_obs, and check the
    # inequality on n fresh draws; eta = 1/gamma on the reference quadratic
    obj = quad_euclidean(Q14, [0.0, 0.0])
    star = obj.metadata.minimizer
    region = Region(star, 10.0)
    eta = 0.25
    cert = certify_region(obj, region, eta, n, seed=42)
    if cert.verdict != "certified":
        return f"reference quadratic certificate came back {cert.verdict}"
    a, mu = converse_parameters(cert.c_obs, 4.0, eta, 1.0)
    if a * mu * eta > cert.c_obs:
        return f"a*mu*eta = {a * mu * eta:.6f} exceeds c_obs = {cert.c_obs:.6f}"
    rng = np.random.default_rng(110)
    fstar = obj.value(star)
    for _ in range(n):
        x = manifolds.sample_point(region, rng)
        r = wsc_residual(obj, x, a, mu)
        if r < -1e-9 * max(1.0, abs(obj.value(x) - fstar)):
            return f"reconstructed (a, mu) violated the inequality: residual {r:.3e}"
    for c in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        a, mu = converse_parameters(c, 4.0, eta, 1.0)
        if not 0.25 - 1e-12 <= a * mu * eta / c <= 0.5 + 1e-12:
            return f"a*mu*eta/c = {a * mu * eta / c:.6f} left [1/4, 1/2] at c = {c}"
        if not consistency_check(a, mu, eta, c, theorem_parameters=True).ok:
            return f"consistency report failed on the formula grid at c = {c}"
    return None


def check_certificates_end_to_end(n: int) -> Optional[str]:
    quad = quad_euclidean(Q14, [0.0, 0.0])
    cert = certify_region(quad, Region(quad.metadata.minimizer, 10.0), 0.25, n, seed=7)
    if cert.verdict != "certified":
        return f"flat quadratic certificate came back {cert.verdict}"
    hyp = sqdist_hyperboloid([0.0, 0.0, 1.0])
    eta = 1.0 / curvature.zeta(-1.0, 2.0)
    cert = certify_region(hyp, Region(hyp.metadata.minimizer, 2.0), eta, n, seed=7)
    if cert.verdict != "certified":
        return f"hyperbolic certificate came back {cert.verdict}"
    ray = rayleigh_sphere(np.diag([3.0, 2.5, 1.0]))
    region = Region(ray.metadata.minimizer, 0.15 * math.pi)
    gamma, _ = resolve_gamma(ray, region, 7)
    cert = certify_region(ray, region, 1.0 / gamma, n, seed=7)
    if cert.verdict != "certified":
        return f"sphere certificate came back {cert.verdict}"
    if "gamma-estimated" not in cert.flags:
        return "sphere certificate must flag its estimated smoothness constant"
    return None


def check_preconditioned_routes(n: int) -> Optional[str]:
    rng = np.random.default_rng(111)
    obj = quad_euclidean(np.diag([1.0, 2.0, 4.0]), [0.0, 0.0, 0.0])
    for _ in range(n):
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a_mat = basis @ np.diag(rng.uniform(0.5, 8.0, size=3)) @ basis.T
        a_mat = 0.5 * (a_mat + a_mat.T)
        x = obj.manifold.point(rng.uniform(-3.0, 3.0, size=3))
        gap = preconditioned_equivalence(obj, a_mat, x, float(rng.uniform(0.0, 1.0)))
        if gap > 1e-12 * (1.0 + float(np.max(np.abs(x.coords)))):
            return f"preconditioned routes disagree by {gap:.3e}"
    tc = translate_constants(np.diag([2.0, 8.0]), 4.0, 1.0)
    if (tc.gamma, tc.mu) != (2.0, 0.125):
        return f"constant translation returned {(tc.gamma, tc.mu)}, expected (2.0, 0.125)"
    return None


def check_determinism(n: int) -> Optional[str]:
    obj = quad_euclidean(Q14, [0.0, 0.0])
    region = Region(obj.metadata.minimizer, 10.0)
    one = certify_region(obj, region, 0.25, n, seed=9).to_json_dict()
    two = certify_region(obj, region, 0.25, n, seed=9).to_json_dict()
    many = certify_region(obj, region, 0.25, n, seed=9, workers=3).to_json_dict()
    if one != two:
        return "two identical runs produced different certificates"
    if one != many:
        return "worker count leaked into the certificate"
    return None


CHECKS: list[tuple[str, Callable[[int], Optional[str]]]] = [
    ("geometry-round-trip", check_geometry_round_trip),
    ("geometry-distance-consistency", check_geometry_distance_consistency),
    ("geometry-transport", check_geometry_transport),
    ("geometry-triangle-inequality", check_geometry_triangle_inequality),
    ("curvature-reference-values", check_curvature_reference_values),
    ("lemma2-flat-exactness", check_lemma2_flat_exactness),
    ("lemma2-curved-bound", check_lemma2_curved_bound),
    ("objective-gradients", check_objective_gradients),
    ("forward-contraction-flat", check_forward_contraction_flat),
    ("forward-contraction-hyperbolic", check_forward_contraction_hyperbolic),
    ("converse-round-trip", check_converse_round_trip),
    ("certificates-end-to-end", check_certificates_end_to_end),
    ("preconditioned-routes", check_preconditioned_routes),
    ("determinism", check_determinism),
]


def run_selftest(quiet: bool = False, emit=print) -> int:
    """Run every check at N samples; report PASS/FAIL per property; return 0 only if all pass."""
    failures = 0
    t_total = time.perf_counter()
    for name, check in CHECKS:
        t0 = time.perf_counter()
        try:
            detail = check(N)
        except Exception as e:  # a crash is a failure with the exception as detail
            detail = f"raised {type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if detail is None:
            if not quiet:
                emit(f"PASS {name} ({elapsed:.2f}s)")
        else:
            failures += 1
            emit(f"FAIL {name}: {detail}")
    total = time.perf_counter() - t_total
    emit(f"selftest: {len(CHECKS) - failures}/{len(CHECKS)} properties passed in {total:.2f}s")
    return 0 if failures == 0 else 1
