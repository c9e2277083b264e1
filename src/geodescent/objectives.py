"""Objective catalog with closed-form Riemannian gradients and known minimizers.

Every objective carries metadata (minimizer, smoothness constant when known
analytically, analytic convexity constants when available) so the optimizer and
the certifier can resolve step sizes and evaluate inequalities without guessing.
A finite-difference oracle and a sampled smoothness estimator cover the cases
the catalog does not answer analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .manifolds import (
    Euclidean,
    FlatMetric,
    Hyperboloid,
    Manifold,
    ManifoldPoint,
    Region,
    Sphere,
    TangentVector,
    _draw_coords,
    _rdot,
    _require_rows,
    _rmatvec,
    _rvecmat,
    _symmetric_matrix,
    exp_map,
    tangent_basis,
)

__all__ = [
    "ObjectiveError",
    "ObjectiveMetadata",
    "Objective",
    "quad_euclidean",
    "quad_flat_metric",
    "rayleigh_sphere",
    "sqdist_hyperboloid",
    "perturbed_quad",
    "build",
    "catalog_ids",
    "fd_gradient_oracle",
    "estimate_gamma",
]

GRADIENT_NORM_AT_MIN = 1e-8
MIN_SPECTRAL_GAP = 1e-6
# estimate_gamma only uses point pairs at least this far apart
PAIR_SEPARATION = 1e-6


class ObjectiveError(ValueError):
    """Invalid objective parameters or inconsistent manifold pairing."""


@dataclass(frozen=True)
class ObjectiveMetadata:
    """What is known analytically about an objective."""

    minimizer: ManifoldPoint
    gamma: float | None = None
    analytic_a: float | None = None
    analytic_mu: float | None = None


@dataclass(frozen=True, eq=False)
class Objective:
    """Deterministic value/gradient evaluators on one manifold.

    value_fn and gradient_fn take one point or rows: given 1-d coordinates they
    return a float and an ambient vector; given an (n, ambient) array, one
    value per row and one gradient row per row. gradient_fn must return the
    Riemannian gradient in ambient coordinates (already converted through the
    metric where that applies).
    """

    id: str
    manifold: Manifold
    params: Mapping[str, Any]
    value_fn: Callable[[np.ndarray], float | np.ndarray]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    metadata: ObjectiveMetadata

    def value(self, x: ManifoldPoint) -> float:
        self._require_on(x)
        return float(self.value_fn(x.coords))

    def gradient(self, x: ManifoldPoint) -> TangentVector:
        self._require_on(x)
        return TangentVector(x, np.asarray(self.gradient_fn(x.coords), dtype=float))

    def _require_on(self, x: ManifoldPoint) -> None:
        if x.manifold != self.manifold:
            raise ObjectiveError(f"point is not on the manifold of objective '{self.id}'")


def _assert_critical(obj: Objective) -> None:
    g = obj.gradient(obj.metadata.minimizer)
    if g.norm() > GRADIENT_NORM_AT_MIN:
        raise ObjectiveError(
            f"gradient norm {g.norm():.3e} at the declared minimizer of '{obj.id}' "
            f"exceeds {GRADIENT_NORM_AT_MIN}"
        )


def _psd_quad(q, what: str) -> tuple[np.ndarray, np.ndarray]:
    mat = _symmetric_matrix(q, what, ObjectiveError)
    evals = np.linalg.eigvalsh(mat)
    if evals[0] < -1e-12:
        raise ObjectiveError(f"{what} must be positive semidefinite (min eigenvalue {evals[0]:.3e})")
    return mat, evals


def quad_euclidean(q, minimizer) -> Objective:
    """f(x) = 0.5 (x - x*)^T Q (x - x*) on Euclidean space; Q symmetric PSD."""
    mat, evals = _psd_quad(q, "quadratic matrix")
    manifold = Euclidean(mat.shape[0])
    xstar = manifold.point(minimizer)
    lam_min = float(evals[0])
    lam_max = float(evals[-1])

    def value_fn(c: np.ndarray) -> float | np.ndarray:
        z = c - xstar.coords
        return 0.5 * _rdot(_rvecmat(z, mat), z)

    def gradient_fn(c: np.ndarray) -> np.ndarray:
        if c.ndim == 1:
            return mat @ (c - xstar.coords)
        return _rmatvec(mat, c - xstar.coords)

    obj = Objective(
        id="quad_euclidean",
        manifold=manifold,
        params={"q": mat, "minimizer": xstar.coords},
        value_fn=value_fn,
        gradient_fn=gradient_fn,
        metadata=ObjectiveMetadata(
            minimizer=xstar,
            gamma=lam_max if lam_max > 0.0 else None,
            analytic_a=1.0 if lam_min > 0.0 else None,
            analytic_mu=lam_min if lam_min > 0.0 else None,
        ),
    )
    _assert_critical(obj)
    return obj


def quad_flat_metric(q, minimizer, metric) -> Objective:
    """Same quadratic, measured in the constant metric A: gradient is A^{-1} Q (x - x*).

    The analytic constants are those of S = A^{-1/2} Q A^{-1/2}, since distances
    in the A metric turn the problem into a Euclidean quadratic with matrix S.
    """
    mat, _ = _psd_quad(q, "quadratic matrix")
    manifold = FlatMetric(metric)
    if mat.shape[0] != manifold.dim:
        raise ObjectiveError("quadratic matrix and metric matrix sizes disagree")
    xstar = manifold.point(minimizer)
    a_vals, a_vecs = np.linalg.eigh(manifold.metric)
    inv_sqrt = a_vecs @ np.diag(a_vals ** -0.5) @ a_vecs.T
    a_inv = a_vecs @ np.diag(1.0 / a_vals) @ a_vecs.T
    s_evals = np.linalg.eigvalsh(inv_sqrt @ mat @ inv_sqrt)
    lam_min = float(s_evals[0])
    lam_max = float(s_evals[-1])

    def value_fn(c: np.ndarray) -> float | np.ndarray:
        z = c - xstar.coords
        return 0.5 * _rdot(_rvecmat(z, mat), z)

    def gradient_fn(c: np.ndarray) -> np.ndarray:
        if c.ndim == 1:
            return a_inv @ (mat @ (c - xstar.coords))
        return _rmatvec(a_inv, _rmatvec(mat, c - xstar.coords))

    obj = Objective(
        id="quad_flat_metric",
        manifold=manifold,
        params={"q": mat, "minimizer": xstar.coords, "metric": manifold.metric},
        value_fn=value_fn,
        gradient_fn=gradient_fn,
        metadata=ObjectiveMetadata(
            minimizer=xstar,
            gamma=lam_max if lam_max > 0.0 else None,
            analytic_a=1.0 if lam_min > 0.0 else None,
            analytic_mu=lam_min if lam_min > 0.0 else None,
        ),
    )
    _assert_critical(obj)
    return obj


def rayleigh_sphere(matrix) -> Objective:
    """f(x) = -0.5 x^T M x on the unit sphere; minimized at the top eigenvector.

    Requires a spectral gap of at least 1e-6 so the minimizer is isolated. The
    sign of the minimizer is fixed by making its first nonzero component
    positive. No analytic smoothness constant is attached; downstream users
    estimate one on the region of interest. Certified regions here always have
    radius below pi/4, which keeps the antipodal copy of the minimizer outside.
    """
    mat = _symmetric_matrix(matrix, "rayleigh matrix", ObjectiveError)
    n_amb = mat.shape[0]
    if n_amb < 2:
        raise ObjectiveError("rayleigh matrix must be at least 2x2")
    evals, evecs = np.linalg.eigh(mat)
    gap = float(evals[-1] - evals[-2])
    if gap < MIN_SPECTRAL_GAP:
        raise ObjectiveError(
            f"spectral gap {gap:.3e} between the top two eigenvalues is below {MIN_SPECTRAL_GAP}"
        )
    v = evecs[:, -1].copy()
    for comp in v:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                v = -v
            break
    manifold = Sphere(n_amb - 1)
    xstar = manifold.point(v / np.linalg.norm(v))

    def value_fn(c: np.ndarray) -> float | np.ndarray:
        return -0.5 * _rdot(_rvecmat(c, mat), c)

    def gradient_fn(c: np.ndarray) -> np.ndarray:
        if c.ndim == 1:
            mc = mat @ c
            return -(mc - float(c @ mc) * c)
        mc = _rmatvec(mat, c)
        return -(mc - _rdot(c, mc)[:, None] * c)

    obj = Objective(
        id="rayleigh_sphere",
        manifold=manifold,
        params={"matrix": mat},
        value_fn=value_fn,
        gradient_fn=gradient_fn,
        metadata=ObjectiveMetadata(minimizer=xstar, gamma=None),
    )
    _assert_critical(obj)
    return obj


def sqdist_hyperboloid(target) -> Objective:
    """f(x) = 0.5 dist^2(x, p) on the hyperboloid; gradient is -log_x(p).

    Satisfies the weak-strong-convexity inequality with a = mu = 1 exactly, and
    the growth inequalities consumed by the convergence analysis hold with
    gamma = 1 (with equality). The gradient field's Lipschitz constant over a
    radius-R ball is R/tanh(R), which the step-size policies account for
    through the curvature distortion constant rather than through gamma.
    """
    arr = np.array(target, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ObjectiveError("hyperboloid target must be an ambient vector of length >= 2")
    manifold = Hyperboloid(arr.shape[0] - 1)
    p = manifold.point(arr)

    def value_fn(c: np.ndarray) -> float | np.ndarray:
        d = manifold._dist(c, p.coords)
        return 0.5 * d * d

    def gradient_fn(c: np.ndarray) -> np.ndarray:
        return -manifold._log(c, p.coords)

    obj = Objective(
        id="sqdist_hyperboloid",
        manifold=manifold,
        params={"target": p.coords},
        value_fn=value_fn,
        gradient_fn=gradient_fn,
        metadata=ObjectiveMetadata(minimizer=p, gamma=1.0, analytic_a=1.0, analytic_mu=1.0),
    )
    _assert_critical(obj)
    return obj


def _real_scalar(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as e:
        raise ObjectiveError(f"{name} must be a real scalar, got {value!r}") from e


def perturbed_quad(q, minimizer, epsilon: float | None = None, omega: float = 5.0) -> Objective:
    """Quadratic plus eps * sin^2(omega (x_1 - x*_1)) on Euclidean space.

    x* stays the global minimizer for any eps >= 0, but large eps introduces
    additional critical points away from it, which breaks one-step contraction
    locally. No analytic (a, mu) is attached; certification decides empirically.
    eps defaults to 0.05 * (smallest eigenvalue of Q).
    """
    mat, evals = _psd_quad(q, "quadratic matrix")
    manifold = Euclidean(mat.shape[0])
    xstar = manifold.point(minimizer)
    if epsilon is None:
        epsilon = 0.05 * max(float(evals[0]), 0.0)
    eps, om = _real_scalar(epsilon, "epsilon"), _real_scalar(omega, "omega")
    if eps < 0.0 or not math.isfinite(eps):
        raise ObjectiveError("epsilon must be a finite nonnegative real")
    if om <= 0.0 or not math.isfinite(om):
        raise ObjectiveError("omega must be a finite positive real")
    lam_max = float(evals[-1])

    def value_fn(c: np.ndarray) -> float | np.ndarray:
        z = c - xstar.coords
        return 0.5 * _rdot(_rvecmat(z, mat), z) + eps * np.sin(om * z[..., 0]) ** 2

    def gradient_fn(c: np.ndarray) -> np.ndarray:
        z = c - xstar.coords
        g = _rmatvec(mat, z)
        g[..., 0] += eps * om * np.sin(2.0 * om * z[..., 0])
        return g

    obj = Objective(
        id="perturbed_quad",
        manifold=manifold,
        params={"q": mat, "minimizer": xstar.coords, "epsilon": eps, "omega": om},
        value_fn=value_fn,
        gradient_fn=gradient_fn,
        # Hessian is Q + 2*eps*omega^2*cos(.)*e1 e1^T, so this bounds the smoothness
        metadata=ObjectiveMetadata(minimizer=xstar, gamma=lam_max + 2.0 * eps * om * om),
    )
    _assert_critical(obj)
    return obj


# id -> (required manifold kind, required params, factory(params, manifold))
_BUILDERS: dict[str, tuple[str, tuple[str, ...], Callable[[Mapping, Manifold], Objective]]] = {
    "quad_euclidean": ("euclidean", ("q", "minimizer"), lambda p, m: quad_euclidean(p["q"], p["minimizer"])),
    "quad_flat_metric": ("flat_metric", ("q", "minimizer"),
                         lambda p, m: quad_flat_metric(p["q"], p["minimizer"], m.metric)),
    "rayleigh_sphere": ("sphere", ("matrix",), lambda p, m: rayleigh_sphere(p["matrix"])),
    "sqdist_hyperboloid": ("hyperboloid", ("target",), lambda p, m: sqdist_hyperboloid(p["target"])),
    "perturbed_quad": ("euclidean", ("q", "minimizer"), lambda p, m: perturbed_quad(
        p["q"], p["minimizer"], epsilon=p.get("epsilon"), omega=p.get("omega", 5.0))),
}


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def build(objective_id: str, params: Mapping, manifold: Manifold) -> Objective:
    """Build a catalog objective from JSON-style parameters, validating keys."""
    if objective_id not in _BUILDERS:
        raise ObjectiveError(
            f"unknown objective id '{objective_id}' (known: {', '.join(catalog_ids())})"
        )
    kind, required, factory = _BUILDERS[objective_id]
    for key in required:
        if key not in params:
            raise ObjectiveError(f"objective '{objective_id}' requires parameter '{key}'")
    if manifold.kind != kind:
        raise ObjectiveError(f"{objective_id} requires a {kind} manifold")
    obj = factory(params, manifold)
    if obj.manifold != manifold:
        raise ObjectiveError(
            f"{objective_id} parameter sizes disagree with the configured {kind} dimension {manifold.dim}"
        )
    return obj


def fd_gradient_oracle(obj: Objective, x: ManifoldPoint, h: float = 1e-5) -> TangentVector:
    """Central-difference gradient through exp_map along a metric-orthonormal basis.

    Independent of gradient_fn; used to cross-check the analytic gradients.
    """
    if not (1e-8 <= h <= 1e-3):
        raise ValueError(f"step h must lie in [1e-8, 1e-3], got {h!r}")
    coords = np.zeros(x.manifold.ambient_dim)
    for e in tangent_basis(x):
        f_plus = obj.value(exp_map(x, TangentVector(x, h * e.coords)))
        f_minus = obj.value(exp_map(x, TangentVector(x, -h * e.coords)))
        coords = coords + ((f_plus - f_minus) / (2.0 * h)) * e.coords
    return TangentVector(x, coords)


def estimate_gamma(obj: Objective, region: Region, n_pairs: int, rng: np.random.Generator) -> float:
    """Sampled geodesic smoothness constant with a 1.05 safety factor.

    Draws n_pairs point pairs in the region, one point at a time with
    sample_point's draw (at distance >= PAIR_SEPARATION, redrawing the second
    point of closer pairs), and returns the float
    1.05 * max ||grad f(x) - transport(grad f(y))|| / dist. A zero estimate
    (constant objective) is returned as exactly 0.0. Raises ObjectiveError when
    200 redraws in a row land closer than PAIR_SEPARATION. Every drawn point,
    redraws included, goes through one row point check before any gradient is
    taken, then the pairs' gradient_fn values through one row tangent check;
    each raises the single-point check's error for the first failing row.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    if region.radius <= 0.0:
        raise ValueError("cannot estimate a smoothness constant on a degenerate region")
    if region.center.manifold != obj.manifold:
        raise ObjectiveError("region and objective live on different manifolds")
    m = obj.manifold
    drawn, pairs = [], []  # every drawn row in draw order; (x index, y index, distance) per pair

    def draw() -> int:
        drawn.append(_draw_coords(region, 1, rng, rng)[0])
        return len(drawn) - 1

    for _ in range(n_pairs):
        i, j = draw(), draw()
        tries = 0
        while (d := float(m._dist(drawn[i], drawn[j]))) < PAIR_SEPARATION:
            j = draw()
            tries += 1
            if tries > 200:
                _require_rows(m, np.array(drawn))  # a point that fails its check ranks first
                raise ObjectiveError("region is too small to draw separated sample pairs")
        pairs.append((i, j, d))
    _require_rows(m, np.array(drawn))
    x = np.array([drawn[k] for i, j, _ in pairs for k in (i, j)])  # x_1, y_1, x_2, y_2, ...
    # one point at a time, as Objective.gradient: a row call of sqdist_hyperboloid rounds differently
    g = np.array([obj.gradient_fn(row) for row in x], dtype=float)
    _require_rows(m, x, g)
    worst = 0.0
    for k, (_, _, d) in enumerate(pairs):
        diff = g[2 * k] - m._transport(x[2 * k + 1], x[2 * k], g[2 * k + 1])
        worst = max(worst, math.sqrt(max(m._inner(x[2 * k], diff, diff), 0.0)) / d)
    return 1.05 * worst if worst > 0.0 else 0.0
