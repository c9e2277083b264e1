"""Bidirectional numerical certification of weak-strong-convexity.

Forward route: evaluate the defining inequality directly as a residual at
sampled points. Converse route: measure the worst one-step contraction of
squared distance under gradient descent, reconstruct the (a, mu) constants
from it (with the positive-curvature correction delta_bar), and check that
the reconstructed inequality holds on the same samples. The two routes are
kept independent so each can catch the other lying.

Certificates are sampled statements, not universal proofs: the verdict binds
only the points actually drawn, and says so through its fields.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import curvature
from .descent import CONTRACTION_SCAN_FLOOR, REGION_EXIT_TOL, auto_step_policy
from .manifolds import (
    FlatMetric,
    Hyperboloid,
    Manifold,
    ManifoldError,
    ManifoldPoint,
    Region,
    TangentVector,
    _as_spd_matrix,
    _draw_coords,
    _require_rows,
    dist,
    exp_map,
    inner,
    log_map,
)
from .objectives import PAIR_SEPARATION, Objective, estimate_gamma

__all__ = [
    "TOOL_VERSION",
    "CertificationError",
    "ConsistencyReport",
    "WscCertificate",
    "TranslatedConstants",
    "wsc_residual",
    "converse_parameters",
    "consistency_check",
    "resolve_gamma",
    "certify_region",
    "weaker_smoothness_residual",
    "distance_growth_residual",
    "descent_lemma_residual",
    "preconditioned_equivalence",
    "translate_constants",
]

TOOL_VERSION = "0.2.0"

DEFAULT_TOL_RESIDUAL = 1e-9
GAMMA_PAIRS = 256
# roundoff allowed when consistency_check compares a*mu*eta with c and its bounds
CONSISTENCY_SLACK = 1e-12
# contraction rates below this make the converse constants degenerate (a -> 0)
MIN_C_OBS = 1e-10
# gradient-norm threshold flagging a possible second critical point
CRITICAL_POINT_GRAD_TOL = 1e-6
# ... at a sample farther than this from the declared minimizer
CRITICAL_POINT_DIST_TOL = 1e-6
# largest distance between a region's centre and the declared minimizer
CENTER_AT_MINIMIZER_TOL = 1e-9
# roundoff allowed when eta is checked against the 2/gamma cap on positive curvature
STEP_CAP_SLACK = 1e-15


class CertificationError(ValueError):
    """Invalid certification inputs (bad ranges, mismatched region, missing constants)."""


def _streams(seed) -> list:
    """The seed policy, the one source of every draw made for a seed: generators for
    sample directions, sample radii and gamma point pairs, from SeedSequence(seed).spawn(3)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise CertificationError(f"seed must be a nonnegative integer, got {seed!r}")
    return [np.random.default_rng(child) for child in np.random.SeedSequence(int(seed)).spawn(3)]


def _require_positive(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise CertificationError(f"{name} must be a finite positive real, got {value!r}")
    return value


def wsc_residual(obj: Objective, x: ManifoldPoint, a: float, mu: float) -> float:
    """Residual of f(x) - f(x*) <= (1/a)<grad f(x), -log_x(x*)> - (mu/2) dist^2(x, x*).

    Nonnegative iff the inequality holds at x with constants (a, mu).
    """
    a = _require_positive("a", a)
    mu = _require_positive("mu", mu)
    xstar = obj.metadata.minimizer
    ip = _pull(obj.manifold, x.coords, obj.gradient(x).coords, xstar.coords)
    return _residual(ip, dist(x, xstar), obj.value(x), obj.value(xstar), a, mu)


def _pull(m: Manifold, x: np.ndarray, g: np.ndarray, xstar: np.ndarray) -> float | np.ndarray:
    """<grad f(x), -log_x(x*)> on coordinates, or per row of x and g; raises ManifoldError
    where the log does."""
    return m._inner(x, g, -m._log(x, xstar))


def _residual(ip, d, value, fstar: float, a: float, mu: float):
    """The wsc residual from its parts, for one sample or elementwise over arrays."""
    return ip / a - 0.5 * mu * d * d - (value - fstar)


def converse_parameters(c: float, gamma: float, eta: float, delta_bar_val: float):
    """(a, mu) reconstructed from an observed contraction rate c.

    a = (1/(2*gamma*eta)) * c / (1 - sqrt(delta_bar_val*c)/2), mu = gamma/2.
    delta_bar_val = 1 is the flat / nonpositive-curvature case.
    """
    c = float(c)
    if not (0.0 < c <= 1.0):
        raise CertificationError(f"contraction rate must lie in (0, 1], got {c!r}")
    gamma = _require_positive("gamma", gamma)
    eta = _require_positive("eta", eta)
    delta_bar_val = float(delta_bar_val)
    if not (0.0 < delta_bar_val <= 1.0):
        raise CertificationError(f"delta_bar must lie in (0, 1], got {delta_bar_val!r}")
    a = c / (2.0 * gamma * eta * (1.0 - math.sqrt(delta_bar_val * c) / 2.0))
    return a, gamma / 2.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Sanity report on (a, mu, eta) against the contraction rate they came from.

    product_le_c guards the no-free-rate-improvement bound a*mu*eta <= c.
    When the constants come from the flat-case converse formulas, the product
    must also equal c/(4(1 - sqrt(c)/2)) and land in [c/4, c/2].
    """

    a: float
    mu: float
    eta: float
    c: float
    product: float
    product_le_c: bool
    theorem_form: bool
    identity_ok: Optional[bool]
    bracket_ok: Optional[bool]
    ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def consistency_check(a: float, mu: float, eta: float, c: float, *, theorem_parameters: bool = False) -> ConsistencyReport:
    a = _require_positive("a", a)
    mu = _require_positive("mu", mu)
    eta = _require_positive("eta", eta)
    c = float(c)
    if not (0.0 < c <= 1.0):
        raise CertificationError(f"contraction rate must lie in (0, 1], got {c!r}")
    product = a * mu * eta
    product_le_c = product <= c + CONSISTENCY_SLACK
    identity_ok = None
    bracket_ok = None
    if theorem_parameters:
        expected = c / (4.0 * (1.0 - math.sqrt(c) / 2.0))
        identity_ok = abs(product - expected) <= CONSISTENCY_SLACK
        bracket_ok = (c / 4.0 - CONSISTENCY_SLACK) <= product <= (c / 2.0 + CONSISTENCY_SLACK)
        ok = product_le_c and identity_ok and bracket_ok
    else:
        ok = product_le_c
    return ConsistencyReport(
        a=a, mu=mu, eta=eta, c=c, product=product,
        product_le_c=product_le_c, theorem_form=theorem_parameters,
        identity_ok=identity_ok, bracket_ok=bracket_ok, ok=ok,
    )


def resolve_gamma(obj: Objective, region: Region, seed: int, override: Optional[float] = None):
    """Smoothness constant with provenance: override > analytic > sampled estimate.

    The estimate uses GAMMA_PAIRS point pairs drawn from the seed's gamma stream,
    independent of the sample streams, so it is reproducible for a given seed
    regardless of sample count. Radius r < 2s (s = PAIR_SEPARATION) raises
    CertificationError before drawing; set gamma there. From 2s on, a ball of radius s
    holds at most (s/r)^dim <= 1/2 of a uniform draw, so a pair fails with probability <= 2^-201.
    """
    if override is not None:
        return _require_positive("gamma override", override), "override"
    if obj.metadata.gamma is not None:
        return float(obj.metadata.gamma), "analytic"
    if region.radius < 2.0 * PAIR_SEPARATION:
        raise CertificationError(
            f"region radius {region.radius:.6g} is too small to estimate gamma from point pairs "
            f"{PAIR_SEPARATION:g} apart; set gamma"
        )
    _, _, gamma_rng = _streams(seed)
    est = estimate_gamma(obj, region, GAMMA_PAIRS, gamma_rng)
    if est <= 0.0:
        raise CertificationError("estimated smoothness constant is zero; nothing to certify against")
    return est, "estimated"


@dataclass(frozen=True)
class WscCertificate:
    objective_id: str
    region: Region
    n_samples: int
    seed: int
    eta_used: float
    gamma_used: float
    gamma_source: str
    delta_bar_used: Optional[float]
    worst_ratio: Optional[float]
    c_obs: Optional[float]
    a: Optional[float]
    mu: Optional[float]
    residual_min: Optional[float]
    residual_mean: Optional[float]
    residual_min_scaled: Optional[float]
    tol_residual: float
    verdict: str
    flags: tuple
    witness: Optional[dict]
    consistency: Optional[ConsistencyReport]
    version: str = TOOL_VERSION

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "objective_id": self.objective_id,
            "manifold": self.region.center.manifold.descriptor(),
            "region": self.region.to_json_dict(),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "eta_used": self.eta_used,
            "gamma_used": self.gamma_used,
            "gamma_source": self.gamma_source,
            "delta_bar_used": self.delta_bar_used,
            "worst_ratio": self.worst_ratio,
            "c_obs": self.c_obs,
            "a": self.a,
            "mu": self.mu,
            "residual_min": self.residual_min,
            "residual_mean": self.residual_mean,
            "residual_min_scaled": self.residual_min_scaled,
            "tol_residual": self.tol_residual,
            "verdict": self.verdict,
            "flags": list(self.flags),
            "witness": self.witness,
            "consistency": self.consistency.to_json_dict() if self.consistency else None,
        }


def _witness_dict(coords: np.ndarray, dist_to_min: np.ndarray, index: int, reason: str) -> dict:
    return {
        "index": index,
        "coords": [float(c) for c in coords[index]],
        "dist_to_min": float(dist_to_min[index]),
        "reason": reason,
    }


def certify_region(
    obj: Objective,
    region: Region,
    eta: float | str,
    n_samples: int,
    seed: int = 42,
    *,
    workers: int = 1,
    gamma_override: Optional[float] = None,
    tol_residual: float = DEFAULT_TOL_RESIDUAL,
) -> WscCertificate:
    """Sampled weak-strong-convexity certificate for a geodesic ball around x*.

    Pipeline: draw n_samples points, take one gradient step from each, measure
    the worst squared-distance contraction c_obs, reconstruct (a, mu) through
    the converse formulas with delta_bar evaluated at the region radius (the
    per-point infimum, so one (a, mu) pair is sound for every sample), then
    evaluate the defining residual at all samples. Verdict is ternary:
    certified / refuted (negative residual, with witness) / inconclusive
    (contraction hypothesis failed, constants degenerate, steps errored, or a
    number overflowed).

    eta = "auto" applies descent.auto_step_policy with the gamma resolved
    here. workers is validated and never changes the result: all samples are
    probed at once, as the rows of one array, on the calling thread.

    A drawn point or gradient that fails its check raises; step and log errors
    during probing become flags, never exceptions, and so does a drawn row's
    value, distance, gradient norm, measured ratio or residual that is not
    finite ("non-finite-value"), so a certificate holds no inf or NaN. residual_mean is the
    exactly rounded mean (math.fsum), so it depends on no summation order.
    """
    if not isinstance(n_samples, int) or isinstance(n_samples, bool) or n_samples < 1:
        raise CertificationError(f"n_samples must be a positive integer, got {n_samples!r}")
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise CertificationError(f"workers must be a positive integer, got {workers!r}")
    auto_eta = eta == "auto"
    if not auto_eta:
        eta = _require_positive("eta", eta)
    tol_residual = _require_positive("tol_residual", tol_residual)
    directions, radii, _ = _streams(seed)
    seed = int(seed)
    if region.center.manifold != obj.manifold:
        raise CertificationError("region and objective live on different manifolds")
    xstar = obj.metadata.minimizer
    if dist(region.center, xstar) > CENTER_AT_MINIMIZER_TOL:
        raise CertificationError("region must be centered at the declared minimizer")
    if isinstance(obj.manifold, Hyperboloid):
        reach = math.acosh(max(float(region.center.coords[-1]), 1.0)) + region.radius
        limit = math.acosh(Hyperboloid.TIME_CAP)
        if reach >= limit:
            raise CertificationError(
                f"region reaches distance {reach:.6g} from the hyperboloid apex; the trusted "
                f"chart limit is acosh({Hyperboloid.TIME_CAP:g}) = {limit:.6g}"
            )

    k_max = obj.manifold.curvature_bounds[1]
    gamma_used, gamma_source = resolve_gamma(obj, region, seed, gamma_override)
    if auto_eta:
        eta = auto_step_policy(obj, region, gamma_used).resolve()
    if k_max > 0.0 and eta > 2.0 / gamma_used + STEP_CAP_SLACK:
        raise CertificationError(
            f"eta = {eta:.6g} exceeds the 2/gamma = {2.0 / gamma_used:.6g} cap required "
            "on positively curved manifolds"
        )

    flags = set()
    if gamma_source == "estimated":
        flags.add("gamma-estimated")
    elif gamma_source == "override":
        flags.add("gamma-override")

    fstar = obj.value(xstar)

    def finish(verdict, *, delta_bar_used=None, worst=None, c_obs=None, a=None, mu=None,
               res_min=None, res_mean=None, res_min_scaled=None, witness=None, consistency=None):
        return WscCertificate(
            objective_id=obj.id, region=region, n_samples=n_samples, seed=seed,
            eta_used=eta, gamma_used=gamma_used, gamma_source=gamma_source,
            delta_bar_used=delta_bar_used, worst_ratio=worst, c_obs=c_obs, a=a, mu=mu,
            residual_min=res_min, residual_mean=res_mean, residual_min_scaled=res_min_scaled,
            tol_residual=tol_residual, verdict=verdict, flags=tuple(sorted(flags)),
            witness=witness, consistency=consistency,
        )

    if region.radius == 0.0:
        # one-point ball: the inequality is an identity at x* itself
        flags.add("degenerate-region")
        delta0 = curvature.delta_bar(k_max, 0.0)
        a, mu = converse_parameters(1.0, gamma_used, eta, delta0)
        r0 = wsc_residual(obj, region.center, a, mu)
        consistency = consistency_check(a, mu, eta, 1.0, theorem_parameters=(delta0 == 1.0))
        if not consistency.ok:
            flags.add("consistency-violation")
        return finish(
            "certified", delta_bar_used=delta0, c_obs=1.0, a=a, mu=mu,
            res_min=r0, res_mean=r0, res_min_scaled=r0, consistency=consistency,
        )

    # probe stage, one row per sample: the drawn rows and their gradients are
    # checked once and raise; a stepped row that fails its check (the NaN rows
    # of a refused exp step included) becomes a step-error sample
    m = obj.manifold
    x = _draw_coords(region, n_samples, directions, radii)
    _require_rows(m, x)
    g = np.asarray(obj.gradient_fn(x), dtype=float)
    _require_rows(m, x, g)
    # rows far from x* may overflow, and stepped rows that failed their check may be
    # NaN or huge: only masked use is made of those, and the run ends "inconclusive"
    # below if any drawn row's value, distance, gradient norm or measured ratio is not finite
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = np.asarray(obj.value_fn(x), dtype=float)
        if value.shape != (n_samples,):
            raise CertificationError(f"value_fn returned shape {value.shape} for {n_samples} rows")
        d = m._dist(x, xstar.coords)
        grad_norm = np.sqrt(np.maximum(m._inner(x, g, g), 0.0))
        try:
            pull = _pull(m, x, g, xstar.coords)
        except ManifoldError:
            pull = None
        stepped = m._exp(x, -eta * g)
        stepped_ok = m._points_ok(stepped)
        measured = stepped_ok & (d > CONTRACTION_SCAN_FLOOR)
        exited = stepped_ok & (m._dist(region.center.coords, stepped) > region.radius + REGION_EXIT_TOL)
        ratio = np.where(measured, (m._dist(stepped, xstar.coords) / d) ** 2, -np.inf)

    if not stepped_ok.all():
        flags.add("step-error")
    if exited.any():
        flags.add("step-exits-region")
    if np.any((grad_norm < CRITICAL_POINT_GRAD_TOL) & (d > CRITICAL_POINT_DIST_TOL)):
        flags.add("critical-point-suspect")

    if not all(np.isfinite(part).all() for part in (value, d, grad_norm, ratio[measured])):
        flags.add("non-finite-value")
        return finish("inconclusive")
    if not measured.any():
        return finish("inconclusive")
    worst_idx = int(np.argmax(ratio))
    worst = float(ratio[worst_idx])

    if worst >= 1.0:
        flags.add("no-contraction")
        return finish("inconclusive", worst=worst,
                      witness=_witness_dict(x, d, worst_idx, "no-contraction"))

    c_obs = min(max(1.0 - worst, 0.0), 1.0)
    if c_obs < MIN_C_OBS:
        flags.add("contraction-below-threshold")
        return finish("inconclusive", worst=worst, c_obs=c_obs)

    delta_bar_used = curvature.delta_bar(k_max, region.radius)
    a, mu = converse_parameters(c_obs, gamma_used, eta, delta_bar_used)
    consistency = consistency_check(a, mu, eta, c_obs,
                                    theorem_parameters=(delta_bar_used == 1.0))
    if not consistency.ok:
        flags.add("consistency-violation")

    if pull is None:
        flags.add("step-error")
        return finish("inconclusive", delta_bar_used=delta_bar_used, worst=worst,
                      c_obs=c_obs, a=a, mu=mu, consistency=consistency)
    # residual stage, one pass over the rows
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _residual(pull, d, value, fstar, a, mu)
        scaled = residuals / np.maximum(np.maximum(1.0, np.abs(value - fstar)), d ** 2)
    try:
        res_mean = math.fsum(residuals.tolist()) / n_samples
    except (OverflowError, ValueError):  # finite residuals whose sum overflows, or inf - inf
        res_mean = math.nan
    if not math.isfinite(res_mean):  # so is a residual, or their sum
        flags.add("non-finite-value")
        return finish("inconclusive", delta_bar_used=delta_bar_used, worst=worst,
                      c_obs=c_obs, a=a, mu=mu, consistency=consistency)
    min_idx = int(np.argmin(scaled))

    res_min = float(residuals.min())
    res_min_scaled = float(scaled[min_idx])

    if res_min_scaled >= -tol_residual:
        verdict = "certified"
        witness = None
    else:
        verdict = "refuted"
        flags.add("negative-residual")
        witness = _witness_dict(x, d, min_idx, "negative-residual")

    return finish(verdict, delta_bar_used=delta_bar_used, worst=worst, c_obs=c_obs,
                  a=a, mu=mu, res_min=res_min, res_mean=res_mean,
                  res_min_scaled=res_min_scaled, witness=witness, consistency=consistency)


def weaker_smoothness_residual(obj: Objective, x: ManifoldPoint, gamma: float) -> float:
    """Residual of f(x) - f(x*) >= ||grad f(x)||^2 / (2*gamma)."""
    gamma = _require_positive("gamma", gamma)
    g = obj.gradient(x)
    fstar = obj.value(obj.metadata.minimizer)
    return (obj.value(x) - fstar) - g.norm() ** 2 / (2.0 * gamma)


def distance_growth_residual(obj: Objective, x: ManifoldPoint, gamma: float) -> float:
    """Residual of dist^2(x, x*) >= (2/gamma)(f(x) - f(x*))."""
    gamma = _require_positive("gamma", gamma)
    xstar = obj.metadata.minimizer
    d = dist(x, xstar)
    return d * d - (2.0 / gamma) * (obj.value(x) - obj.value(xstar))


def descent_lemma_residual(obj: Objective, x: ManifoldPoint, y: ManifoldPoint, gamma: float) -> float:
    """Residual of f(y) <= f(x) + <grad f(x), log_x(y)> + (gamma/2) dist^2(x, y)."""
    gamma = _require_positive("gamma", gamma)
    g = obj.gradient(x)
    step = log_map(x, y)
    d = dist(x, y)
    return obj.value(x) + inner(x, g, step) + 0.5 * gamma * d * d - obj.value(y)


def preconditioned_equivalence(obj: Objective, metric, x: ManifoldPoint, eta: float) -> float:
    """Max-norm gap between explicit preconditioned GD and the flat-metric step.

    Route one: x - eta * A^{-1} grad f(x) with the inverse applied by a linear
    solve. Route two: the exponential-map step on the flat A-metric manifold
    with the gradient converted through an eigendecomposition inverse. The two
    share no linear algebra, so agreement is evidence, not tautology.
    """
    if obj.manifold.kind != "euclidean":
        raise CertificationError("preconditioned equivalence is defined for Euclidean objectives")
    if x.manifold != obj.manifold:
        raise CertificationError("point is not on the objective's manifold")
    eta = float(eta)
    if not math.isfinite(eta) or eta < 0.0:
        raise CertificationError(f"eta must be finite and nonnegative, got {eta!r}")
    a_mat = _as_spd_matrix(metric, "preconditioner", CertificationError)

    g = obj.gradient(x).coords
    explicit = x.coords - eta * np.linalg.solve(a_mat, g)

    flat = FlatMetric(a_mat)
    y = flat.point(x.coords)
    evals, evecs = np.linalg.eigh(a_mat)
    a_inv = evecs @ np.diag(1.0 / evals) @ evecs.T
    stepped = exp_map(y, TangentVector(y, -eta * (a_inv @ g)))
    return float(np.max(np.abs(explicit - stepped.coords)))


class TranslatedConstants(NamedTuple):
    gamma: float
    mu: float
    metric_lambda_min: float
    metric_lambda_max: float


def translate_constants(metric, gamma_euclidean: float, mu_euclidean: float) -> TranslatedConstants:
    """Carry Euclidean (gamma, mu) to the flat A-metric: gamma/lambda_min(A), mu/lambda_max(A)."""
    gamma_euclidean = _require_positive("gamma_euclidean", gamma_euclidean)
    mu_euclidean = _require_positive("mu_euclidean", mu_euclidean)
    a_mat = _as_spd_matrix(metric, "metric matrix", CertificationError)
    evals = np.linalg.eigvalsh(a_mat)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    return TranslatedConstants(gamma_euclidean / lam_min, mu_euclidean / lam_max, lam_min, lam_max)
