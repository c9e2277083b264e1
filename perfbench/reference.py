"""Reference computations made apart from geodescent, and the checks built on them.

Nothing in this module imports geodescent. Spectra come from numpy's own
eigensolvers, distances from arccos / arccosh of the raw inner products, and
descent iterates from the closed-form linear recursions. Every check raises
CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An operation's output disagreed with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Problem:
    """Raw inputs of one objective on one region, as plain numpy arrays.

    kind is one of euclidean, flat_metric, sphere, hyperboloid, perturbed.
    params holds the catalog parameters (q, minimizer, metric, matrix, target,
    epsilon, omega) that apply to the kind.
    """

    kind: str
    params: dict
    radius: float

    @property
    def objective_id(self) -> str:
        return {
            "euclidean": "quad_euclidean",
            "flat_metric": "quad_flat_metric",
            "sphere": "rayleigh_sphere",
            "hyperboloid": "sqdist_hyperboloid",
            "perturbed": "perturbed_quad",
        }[self.kind]


# -- geometry, written out from the definitions --------------------------------


def mink(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[:-1] @ v[:-1] - u[-1] * v[-1])


def sphere_dist(x: np.ndarray, y: np.ndarray) -> float:
    return math.acos(min(1.0, max(-1.0, float(x @ y))))


def hyperboloid_dist(x: np.ndarray, y: np.ndarray) -> float:
    return math.acosh(max(1.0, -mink(x, y)))


def hyperboloid_log(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = hyperboloid_dist(x, y)
    w = y + mink(x, y) * x
    nw = math.sqrt(max(mink(w, w), 0.0))
    return np.zeros_like(x) if nw == 0.0 else (d / nw) * w


def hyperboloid_exp(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    t = math.sqrt(max(mink(v, v), 0.0))
    return x.copy() if t == 0.0 else math.cosh(t) * x + (math.sinh(t) / t) * v


def lift_to_hyperboloid(spatial: np.ndarray) -> np.ndarray:
    return np.append(spatial, math.sqrt(1.0 + float(spatial @ spatial)))


def inv_sqrt_spd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    return (vecs / np.sqrt(vals)) @ vecs.T


def quad_spectrum(prob: Problem) -> np.ndarray:
    """Eigenvalues of Q, or of A^{-1/2} Q A^{-1/2} under a flat metric A."""
    q = prob.params["q"]
    if prob.kind == "flat_metric":
        s = inv_sqrt_spd(prob.params["metric"])
        q = s @ q @ s
        q = 0.5 * (q + q.T)
    return np.linalg.eigvalsh(q)


def top_eigenvector(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(m)[1][:, -1]


def minimizer(prob: Problem) -> np.ndarray:
    if prob.kind == "sphere":
        return top_eigenvector(prob.params["matrix"])
    if prob.kind == "hyperboloid":
        return prob.params["target"]
    return prob.params["minimizer"]


def distance(prob: Problem, x: np.ndarray, y: np.ndarray) -> float:
    if prob.kind == "sphere":
        return sphere_dist(x, y)
    if prob.kind == "hyperboloid":
        return hyperboloid_dist(x, y)
    z = y - x
    if prob.kind == "flat_metric":
        return math.sqrt(float(z @ prob.params["metric"] @ z))
    return float(np.linalg.norm(z))


def fresh_point(prob: Problem, rng: np.random.Generator) -> np.ndarray:
    """A point of the region drawn with the benchmark's own generator and geometry."""
    center = minimizer(prob)
    r = prob.radius * rng.random()
    if prob.kind == "hyperboloid":
        v = np.append(rng.standard_normal(center.shape[0] - 1), 0.0)
        v = v + mink(center, v) * center
        return hyperboloid_exp(center, (r / math.sqrt(mink(v, v))) * v)
    v = rng.standard_normal(center.shape[0])
    if prob.kind == "flat_metric":
        return center + (r / math.sqrt(float(v @ prob.params["metric"] @ v))) * v
    return center + (r / float(np.linalg.norm(v))) * v


# -- checks on program outputs -------------------------------------------------


def check_certificate(doc: dict, prob: Problem) -> None:
    """Check a certificate (as its JSON dict) against what the method must give.

    Certifiable objectives: verdict certified, a*mu*eta <= c_obs, and the
    worst contraction ratio bounded (quadratics) or exact (hyperboloid, whose
    gradient step moves exactly along the geodesic to the target). The sphere
    certificate's centre is the top eigenvector up to sign. The perturbed
    quadratic must not certify and must carry a witness.
    """
    verdict = doc["verdict"]
    if prob.kind == "perturbed":
        require(verdict != "certified", "perturbed_quad certificate came out certified")
        require(doc["witness"] is not None, f"{verdict} certificate carries no witness")
        return
    require(verdict == "certified", f"{prob.objective_id}: verdict {verdict}, expected certified")
    eta, worst, c_obs = doc["eta_used"], doc["worst_ratio"], doc["c_obs"]
    require(abs(c_obs - (1.0 - worst)) <= 1e-15, "c_obs is not 1 - worst_ratio")
    if prob.kind in ("euclidean", "flat_metric"):
        bound = float(np.max((1.0 - eta * quad_spectrum(prob)) ** 2))
        require(worst <= bound * (1.0 + 1e-10) + 1e-15,
                f"worst_ratio {worst!r} exceeds max_i (1 - eta*lambda_i)^2 = {bound!r}")
    elif prob.kind == "hyperboloid":
        require(abs(worst - (1.0 - eta) ** 2) <= 1e-9,
                f"worst_ratio {worst!r} differs from (1 - eta)^2 = {(1.0 - eta) ** 2!r}")
    elif prob.kind == "sphere":
        center = np.asarray(doc["region"]["center"])
        v = top_eigenvector(prob.params["matrix"])
        require(min(np.linalg.norm(center - v), np.linalg.norm(center + v)) <= 1e-9,
                "certificate centre is not the top eigenvector")
    require(doc["a"] * doc["mu"] * eta <= c_obs * (1.0 + 1e-12),
            f"a*mu*eta = {doc['a'] * doc['mu'] * eta!r} exceeds c_obs = {c_obs!r}")


def analytic_constants(prob: Problem) -> tuple[float, float] | None:
    """(a, mu) known in closed form, or None."""
    if prob.kind in ("euclidean", "flat_metric"):
        return 1.0, float(quad_spectrum(prob)[0])
    if prob.kind == "hyperboloid":
        return 1.0, 1.0
    return None


def wsc_residual(prob: Problem, x: np.ndarray, fx: float, fstar: float, grad: np.ndarray) -> float:
    """(1/a) <grad f(x), -log_x(x*)> - (mu/2) d^2 - (f(x) - f*), with own log, metric and distance."""
    a, mu = analytic_constants(prob)
    xstar = minimizer(prob)
    if prob.kind == "hyperboloid":
        ip = -mink(grad, hyperboloid_log(x, xstar))
    elif prob.kind == "flat_metric":
        ip = float(grad @ prob.params["metric"] @ (x - xstar))
    else:
        ip = float(grad @ (x - xstar))
    d = distance(prob, x, xstar)
    return ip / a - 0.5 * mu * d * d - (fx - fstar)


def check_wsc(prob: Problem, points, values, fstar: float, grads) -> None:
    for x, fx, g in zip(points, values, grads):
        d = distance(prob, x, minimizer(prob))
        r = wsc_residual(prob, x, fx, fstar, g)
        require(r >= -1e-9 * max(1.0, abs(fx - fstar), d * d),
                f"{prob.objective_id}: weak-strong-convexity residual {r!r} < 0 at a fresh point")


def check_trajectory(prob: Problem, coords: np.ndarray, values: np.ndarray,
                     dists: np.ndarray, eta: float) -> None:
    """Check a descent trajectory, one row of coords per iterate, against the method.

    euclidean / flat_metric: every iterate equals x* + (I - eta A^{-1} Q)^k (x0 - x*),
    A = I on Euclidean space, with the inverse applied by a linear solve.
    hyperboloid: distances follow (1 - eta)^k d0 exactly.
    sphere: values never increase and the final iterate is closer than the start.
    Every recorded distance matches the reference distance of its iterate.
    """
    xstar = minimizer(prob)
    if prob.kind == "sphere":
        v = top_eigenvector(prob.params["matrix"])
        xstar = v if float(v @ coords[0]) >= 0.0 else -v
    require(distance(prob, xstar, coords[0]) <= prob.radius + 1e-9, "start lies outside the region")
    own = np.array([distance(prob, x, xstar) for x in coords])
    scale = max(1.0, float(own[0]))
    require(float(np.max(np.abs(own - dists))) <= 1e-7 * scale,
            f"recorded distances differ from the reference by {float(np.max(np.abs(own - dists))):.3e}")
    if prob.kind in ("euclidean", "flat_metric"):
        q = prob.params["q"]
        z = coords[0] - xstar
        worst = 0.0
        for x in coords[1:]:
            gz = q @ z
            if prob.kind == "flat_metric":
                gz = np.linalg.solve(prob.params["metric"], gz)
            z = z - eta * gz
            worst = max(worst, float(np.max(np.abs(x - xstar - z))))
        require(worst <= 1e-9 * scale, f"iterates drift from (I - eta Q)^k x0 by {worst:.3e}")
    elif prob.kind == "hyperboloid":
        expected = own[0] * (1.0 - eta) ** np.arange(len(own))
        gap = float(np.max(np.abs(dists - expected)))
        require(gap <= 1e-9 * scale, f"distances drift from (1 - eta)^k d0 by {gap:.3e}")
        _check_steps(coords, _hyperboloid_steps(coords[:-1], xstar, eta))
    elif prob.kind == "sphere":
        rise = float(np.max(np.diff(values)))
        require(rise <= 1e-12 * max(1.0, float(np.max(np.abs(values)))),
                f"rayleigh value increased by {rise:.3e} along the trajectory")
        require(own[-1] < own[0], "trajectory did not approach the top eigenvector")
        _check_steps(coords, _sphere_steps(coords[:-1], prob.params["matrix"], eta))


def _check_steps(coords: np.ndarray, predicted: np.ndarray) -> None:
    gap = float(np.max(np.abs(coords[1:] - predicted)))
    require(gap <= 1e-9 * max(1.0, float(np.max(np.abs(coords)))),
            f"an iterate is not one gradient step from the previous one (gap {gap:.3e})")


def _sphere_steps(x: np.ndarray, m: np.ndarray, eta: float) -> np.ndarray:
    """exp_x(-eta grad f(x)) row by row for f = -x^T M x / 2 on the unit sphere."""
    mx = x @ m
    v = eta * (mx - np.sum(x * mx, axis=1, keepdims=True) * x)
    t = np.linalg.norm(v, axis=1, keepdims=True)
    sinc = np.divide(np.sin(t), t, out=np.ones_like(t), where=t > 0.0)
    out = np.cos(t) * x + sinc * v
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _hyperboloid_steps(x: np.ndarray, p: np.ndarray, eta: float) -> np.ndarray:
    """exp_x(eta log_x(p)) row by row: the gradient step of dist^2(x, p) / 2."""
    def form(u, w):
        return np.sum(u[:, :-1] * w[:, :-1], axis=1, keepdims=True) - u[:, -1:] * w[:, -1:]

    z = x - p
    d = 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(form(z, z), 0.0)))  # chord form, exact near p
    w = p + form(x, p[None, :]) * x
    nw = np.sqrt(np.maximum(form(w, w), 0.0))
    v = eta * np.divide(d, nw, out=np.zeros_like(d), where=nw > 0.0) * w
    t = np.sqrt(np.maximum(form(v, v), 0.0))
    sinhc = np.divide(np.sinh(t), t, out=np.ones_like(t), where=t > 0.0)
    return np.cosh(t) * x + sinhc * v
