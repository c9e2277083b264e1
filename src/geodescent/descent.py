"""Fixed-step gradient descent on the manifold catalog.

Provides the Euclidean stepper, the Riemannian stepper through the exponential
map, step-size policies (fixed, smoothness-based, curvature-penalized, and the
guarded variant capping eta at 2/gamma), trajectory recording, and the
worst-case contraction-rate measurement that the certifier consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import curvature
from .manifolds import Manifold, ManifoldError, ManifoldPoint, Region, TangentVector, dist
from .objectives import Objective

__all__ = [
    "StepSizeError",
    "NoContractionError",
    "StepSizePolicy",
    "auto_step_policy",
    "StepRecord",
    "Trajectory",
    "gd_step",
    "rgd_step",
    "run",
    "contraction_rate",
]

POLICY_MODES = ("fixed", "prop1", "prop2", "thm2_guard")

# per-step squared-distance ratios above this are treated as genuine expansion
EXPANSION_TOL = 1e-10
# iterates closer to the minimizer than this produce pure-noise ratios
CONTRACTION_SCAN_FLOOR = 1e-12
REGION_EXIT_TOL = 1e-9


class StepSizeError(ValueError):
    """Invalid step size, policy parameters, or a step past the injectivity radius."""


class NoContractionError(RuntimeError):
    """A trajectory failed to contract squared distance at some step."""

    def __init__(self, worst_ratio: float, message: str):
        super().__init__(message)
        self.worst_ratio = worst_ratio


@dataclass(frozen=True)
class StepSizePolicy:
    """Resolves eta from (a, gamma, zeta) or passes a fixed value through.

    Modes: fixed -> eta as given; prop1 -> a/gamma; prop2 -> a/(zeta*gamma);
    thm2_guard -> prop2 additionally capped at 2/gamma.
    """

    mode: str
    eta: Optional[float] = None
    a: Optional[float] = None
    gamma: Optional[float] = None
    zeta_value: float = 1.0

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise StepSizeError(f"unknown policy mode {self.mode!r} (expected one of {POLICY_MODES})")
        if self.mode == "fixed":
            if self.eta is None or not math.isfinite(self.eta) or self.eta <= 0.0:
                raise StepSizeError("fixed policy requires a finite positive eta")
        else:
            for name, val in (("a", self.a), ("gamma", self.gamma)):
                if val is None or not math.isfinite(val) or val <= 0.0:
                    raise StepSizeError(f"{self.mode} policy requires a finite positive {name}")
            if not math.isfinite(self.zeta_value) or self.zeta_value < 1.0:
                raise StepSizeError("zeta_value must be finite and >= 1")

    def resolve(self) -> float:
        if self.mode == "fixed":
            return float(self.eta)
        if self.mode == "prop1":
            return self.a / self.gamma
        base = self.a / (self.zeta_value * self.gamma)
        if self.mode == "prop2":
            return base
        return min(base, 2.0 / self.gamma)

    def to_json_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.mode == "fixed":
            out["eta"] = float(self.eta)
        else:
            out.update(a=float(self.a), gamma=float(self.gamma), zeta_value=float(self.zeta_value))
        return out


def auto_step_policy(obj: Objective, region: Region, gamma: float) -> StepSizePolicy:
    """The policy behind eta = "auto": thm2_guard, min(a / (zeta * gamma), 2 / gamma).

    a is the objective's analytic constant (1 when it has none) and zeta is
    evaluated at the region radius with the manifold's lower curvature bound.
    """
    a = obj.metadata.analytic_a
    return StepSizePolicy(
        mode="thm2_guard",
        a=1.0 if a is None else a,
        gamma=gamma,
        zeta_value=curvature.zeta(obj.manifold.curvature_bounds[0], region.radius),
    )


@dataclass(frozen=True)
class StepRecord:
    index: int
    point: ManifoldPoint
    value: float
    gradient_norm: float
    dist_to_min: float
    eta_used: float


@dataclass(frozen=True)
class Trajectory:
    """Immutable record of one descent run.

    exited_region lists the record indices (if a region was declared) whose
    points lie outside it; iterates are never projected back.
    """

    objective_id: str
    policy: StepSizePolicy
    seed: Optional[int]
    steps: tuple
    stop_reason: str
    exited_region: tuple = ()

    @property
    def distances(self) -> np.ndarray:
        return np.array([rec.dist_to_min for rec in self.steps])

    def to_json_dict(self) -> dict:
        return {
            "objective_id": self.objective_id,
            "policy": self.policy.to_json_dict(),
            "seed": self.seed,
            "stop_reason": self.stop_reason,
            "exited_region": list(self.exited_region),
            "steps": [
                {
                    "index": rec.index,
                    "coords": [float(c) for c in rec.point.coords],
                    "value": rec.value,
                    "gradient_norm": rec.gradient_norm,
                    "dist_to_min": rec.dist_to_min,
                    "eta_used": rec.eta_used,
                }
                for rec in self.steps
            ],
        }


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise StepSizeError(f"step size must be finite and nonnegative, got {eta!r}")
    return eta


def gd_step(obj: Objective, x: ManifoldPoint, eta: float) -> ManifoldPoint:
    """Plain Euclidean update x - eta*grad f(x).

    Only valid where ambient subtraction is the geodesic step: Euclidean space,
    or a flat metric manifold whose metric is the identity.
    """
    eta = _check_eta(eta)
    m = obj.manifold
    if m.kind == "flat_metric":
        if not np.array_equal(m.metric, np.eye(m.dim)):
            raise StepSizeError("gd_step requires the identity metric; use rgd_step for a general metric")
    elif m.kind != "euclidean":
        raise StepSizeError(f"gd_step is undefined on a {m.kind} manifold; use rgd_step")
    g = obj.gradient(x)
    return m.point(x.coords - eta * g.coords)


def rgd_step(obj: Objective, x: ManifoldPoint, eta: float) -> ManifoldPoint:
    """One step of Riemannian gradient descent: exp_x(-eta * grad f(x))."""
    return ManifoldPoint(obj.manifold, _step_along(obj.manifold, x.coords, obj.gradient(x), _check_eta(eta)))


def _step_along(m: Manifold, x: np.ndarray, g: TangentVector, eta: float) -> np.ndarray:
    """Unchecked coordinates of exp_x(-eta * g) from base coordinates x, the
    checked gradient g = grad f(x) and a checked eta; callers check the result."""
    if m.kind == "sphere":
        step_len = eta * g.norm()
        if step_len >= math.pi:
            raise StepSizeError(
                f"step of length {step_len:.6g} reaches the injectivity radius pi on the sphere"
            )
    return m._exp(x, -eta * g.coords)


def _record(obj: Objective, x: ManifoldPoint, index: int, eta: float):
    """The record of iterate x together with its gradient, which the next step reuses."""
    value, g = obj.value(x), obj.gradient(x)
    d = obj.manifold._dist(x.coords, obj.metadata.minimizer.coords)
    return StepRecord(index, x, value, g.norm(), d, eta), g


def run(
    obj: Objective,
    x0: ManifoldPoint,
    policy: StepSizePolicy,
    n_steps: int,
    region: Optional[Region] = None,
    seed: Optional[int] = None,
) -> Trajectory:
    """Apply rgd_step n_steps times, recording every iterate.

    Each iterate's gradient is evaluated once, for its record and its step.
    Aborts early with a recorded stop reason on a stepping error or when a
    non-finite value or gradient appears; the offending record is kept so the
    exported trajectory shows where things went wrong.
    """
    if not isinstance(n_steps, int) or isinstance(n_steps, bool) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if region is not None and dist(region.center, x0) > region.radius + REGION_EXIT_TOL:
        raise ValueError("x0 lies outside the declared region")
    eta = policy.resolve()

    m = obj.manifold
    rec, g = _record(obj, x0, 0, eta)
    records = [rec]
    exited: list[int] = []
    stop_reason = "completed"
    x = x0
    for i in range(1, n_steps + 1):
        try:
            x = ManifoldPoint(m, _step_along(m, x.coords, g, _check_eta(eta)))
        except (ManifoldError, StepSizeError) as e:
            stop_reason = f"step-error: {e}"
            break
        rec, g = _record(obj, x, i, eta)
        records.append(rec)
        if region is not None and m._dist(region.center.coords, x.coords) > region.radius + REGION_EXIT_TOL:
            exited.append(i)
        if not (math.isfinite(rec.value) and math.isfinite(rec.gradient_norm)):
            stop_reason = "non-finite-value"
            break
    return Trajectory(
        objective_id=obj.id,
        policy=policy,
        seed=seed,
        steps=tuple(records),
        stop_reason=stop_reason,
        exited_region=tuple(exited),
    )


def contraction_rate(traj: Trajectory) -> float:
    """Worst-case per-step contraction of squared distance to the minimizer.

    c_obs = 1 - max_k dist_{k+1}^2/dist_k^2 over consecutive records, clamped
    to [0, 1]. The scan stops once an iterate is within 1e-12 of the minimizer.
    Raises NoContractionError when the worst ratio reaches 1: beyond 1 + 1e-10
    that is genuine expansion, inside [1, 1 + 1e-10] the trajectory stagnated.
    """
    if len(traj.steps) < 2:
        raise ValueError("contraction rate needs at least two trajectory records")
    d = traj.distances
    if d[0] <= CONTRACTION_SCAN_FLOOR:
        raise ValueError("trajectory starts at the minimizer; contraction is undefined")
    worst = 0.0
    for k in range(len(d) - 1):
        if d[k] <= CONTRACTION_SCAN_FLOOR:
            break
        worst = max(worst, (d[k + 1] / d[k]) ** 2)
    if worst >= 1.0:
        if worst > 1.0 + EXPANSION_TOL:
            msg = f"no contraction: squared distance expanded by factor {worst:.6g} at the worst step"
        else:
            msg = f"no contraction: trajectory stagnated (worst squared-distance ratio {worst:.17g})"
        raise NoContractionError(worst, msg)
    return min(max(1.0 - worst, 0.0), 1.0)
