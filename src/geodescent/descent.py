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
from .manifolds import Manifold, ManifoldError, ManifoldPoint, Region, _first_bad_row, dist
from .manifolds import REGION_EXIT_TOL  # noqa: F401  (kept importable from here)
from .objectives import Objective, ObjectiveError

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


def _finite_or_none(x: float) -> Optional[float]:
    """x for JSON, which has no inf or NaN: None (null) where x is not finite."""
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class Trajectory:
    """Immutable record of one descent run.

    exited_region lists the record indices (if a region was declared) whose
    points lie outside it; iterates are never projected back. to_json_dict
    writes a non-finite value, gradient norm, distance or eta as None.
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
                    "value": _finite_or_none(rec.value),
                    "gradient_norm": _finite_or_none(rec.gradient_norm),
                    "dist_to_min": _finite_or_none(rec.dist_to_min),
                    "eta_used": _finite_or_none(rec.eta_used),
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
    g = obj.gradient(x)
    return ManifoldPoint(obj.manifold, _step_along(obj.manifold, x.coords, g.coords, g.norm(), _check_eta(eta)))


def _step_along(m: Manifold, x: np.ndarray, g: np.ndarray, g_norm: float, eta: float) -> np.ndarray:
    """Unchecked coordinates of exp_x(-eta * g) from base coordinates x, the
    checked gradient coordinates g = grad f(x), its norm and a checked eta;
    callers check the result. On the sphere a step of length pi or more raises."""
    if m.kind == "sphere" and eta * g_norm >= math.pi:
        raise StepSizeError(
            f"step of length {eta * g_norm:.6g} reaches the injectivity radius pi on the sphere"
        )
    return m._exp(x, -eta * g)


def run(
    obj: Objective,
    x0: ManifoldPoint,
    policy: StepSizePolicy,
    n_steps: int,
    region: Optional[Region] = None,
    seed: Optional[int] = None,
) -> Trajectory:
    """Riemannian gradient descent from x0 with the policy's eta, recording every iterate.

    Takes up to n_steps steps x <- exp_x(-eta * grad f(x)), the step of rgd_step,
    on raw coordinates; a step needs only the gradient. x0, its value and
    gradient and eta are checked before the loop (an x0 farther from the
    region's center than its radius, the distance overflowing included, raises
    ManifoldError; a non-finite start value or gradient norm, or a gradient of
    the wrong shape, raises ObjectiveError). After it come one row pass each
    over the stepped points and the gradients, then one row call of value_fn
    for the values of the kept stepped iterates (on the hyperboloid these may
    differ from the single-point values within roundoff), then the distances
    and region exits.
    stop_reason is "completed" or names the earliest failure, which ends the
    trajectory; at one record, "step-error: <message>" (a bad eta, a step the
    kernel refuses, or a stepped point that fails its check; the point is
    dropped) ranks before "gradient-error: <message>" (a gradient that fails
    its check, say by overflowing; the record is kept), and that before
    "non-finite-value" (a non-finite value or gradient norm; the record is
    kept). A non-finite value at a record also ranks before any stop met on a
    step taken from it or later. Each message is the single-point check's.
    """
    if not isinstance(n_steps, int) or isinstance(n_steps, bool) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    eta = policy.resolve()
    m = obj.manifold
    # iterates past a failing record are computed, and may overflow, before they are dropped
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if region is not None and region.outside(d0 := dist(region.center, x0)):
            raise ManifoldError(f"x0 lies outside the declared region: its distance {d0:.6g} "
                                f"from the center exceeds the radius {region.radius:.6g}")
        value, g = obj.value(x0), obj.gradient(x0)
        g_norm = g.norm()
        if not (math.isfinite(value) and math.isfinite(g_norm)):
            raise ObjectiveError(f"objective '{obj.id}' is not finite at x0 (value {value}, gradient norm {g_norm})")
        c, gc = x0.coords, g.coords
        coords, grads, norms = [c], [gc], [g_norm]  # one entry per record
        stop_reason, steps = "completed", range(n_steps)
        try:
            _check_eta(eta)
        except StepSizeError as e:
            stop_reason, steps = f"step-error: {e}", ()
        for _ in steps:
            try:
                c = _step_along(m, c, gc, g_norm, eta)
            except (ManifoldError, StepSizeError) as e:
                stop_reason = f"step-error: {e}"
                break
            try:
                gc = np.asarray(obj.gradient_fn(c), dtype=float)
            except (ArithmeticError, ValueError):
                bad = _first_bad_row(m, c[None])  # at a point that fails its check, say math.sin(inf)
                if bad is None:
                    raise
                stop_reason = f"step-error: {bad[1]}"
                break
            if gc.shape != c.shape:
                raise ObjectiveError(f"objective '{obj.id}' returned a gradient of shape {gc.shape}, not {c.shape}")
            g_norm = math.sqrt(max(m._inner(c, gc, gc), 0.0))
            coords.append(c)
            grads.append(gc)
            norms.append(g_norm)
            if not math.isfinite(g_norm):
                break  # ends as non-finite-value below

        coords, grads = np.array(coords), np.array(grads)  # stacked, and the lists of rows freed
        coords.setflags(write=False)
        end = len(coords)
        bad = _first_bad_row(m, coords[1:])
        if bad is not None:
            end, stop_reason = bad[0] + 1, f"step-error: {bad[1]}"
        bad = _first_bad_row(m, coords[:end], grads[:end])
        if bad is not None:
            end, stop_reason = bad[0] + 1, f"gradient-error: {bad[1]}"
        coords = coords[:end]
        values = [value]
        if end > 1:
            stepped = np.asarray(obj.value_fn(coords[1:]), dtype=float)
            if stepped.shape != (end - 1,):
                raise ObjectiveError(f"objective '{obj.id}' returned values of shape {stepped.shape} for {end - 1} rows")
            values += stepped.tolist()
        # a gradient that fails its check ranks before a non-finite value at its record
        finite = np.isfinite(values) & np.isfinite(norms[:end])
        first = int(np.argmin(finite))
        if not finite[first] and (first < end - 1 or not stop_reason.startswith("gradient-error")):
            end, stop_reason = first + 1, "non-finite-value"
            coords = coords[:end]
        dists = m._dist(coords, obj.metadata.minimizer.coords).tolist()
        exited = ()
        if region is not None:
            outside = region.outside(m._dist(region.center.coords, coords[1:]))
            exited = tuple((np.flatnonzero(outside) + 1).tolist())
    return Trajectory(
        objective_id=obj.id,
        policy=policy,
        seed=seed,
        steps=tuple(
            StepRecord(i, ManifoldPoint._from_checked(m, row), f, g_norm, d, eta)
            for i, (row, f, g_norm, d) in enumerate(zip(coords, values, norms, dists))
        ),
        stop_reason=stop_reason,
        exited_region=exited,
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
