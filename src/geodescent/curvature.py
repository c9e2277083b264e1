"""Curvature comparison constants and the geodesic-triangle comparison residual.

zeta(k_min, d) >= 1 penalizes step lengths on negatively curved spaces;
delta_bar(k_max, d) in (0, 1] weakens the constants recovered from observed
contraction on positively curved spaces. Both reduce to 1 in the flat case and
are continuous in d at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifolds import ManifoldPoint

__all__ = [
    "CurvatureDomainError",
    "zeta",
    "delta_bar",
    "TriangleCheck",
    "lemma2_residual",
]


SERIES_CUTOFF = 1e-8  # below this argument the constants take their series 1 +- s^2/3
DOMAIN_GUARD = 1e-9   # margin kept from the edge of the positive-curvature domain


class CurvatureDomainError(ValueError):
    """Inputs outside the domain on which a comparison constant is defined."""


def zeta(k_min: float, d: float) -> float:
    """Distortion constant for a lower curvature bound: sqrt(-k)d / tanh(sqrt(-k)d).

    Equals 1 when k_min >= 0 or d = 0, grows linearly in d for strongly negative
    curvature, and is nondecreasing in d.
    """
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"distance must be a finite nonnegative real, got {d!r}")
    if k_min >= 0.0 or d == 0.0:
        return 1.0
    s = math.sqrt(-k_min) * d
    if s < SERIES_CUTOFF:
        return 1.0 + s * s / 3.0
    return s / math.tanh(s)


def delta_bar(k_max: float, d: float) -> float:
    """Attenuation constant for an upper curvature bound: 2*sqrt(k)d / tan(2*sqrt(k)d).

    Equals 1 when k_max <= 0 or d = 0 and decreases toward 0 as d approaches the
    domain boundary pi/(4*sqrt(k_max)), which is enforced here.
    """
    if not math.isfinite(d) or d < 0.0:
        raise ValueError(f"distance must be a finite nonnegative real, got {d!r}")
    if k_max <= 0.0 or d == 0.0:
        return 1.0
    limit = math.pi / (4.0 * math.sqrt(k_max))
    if d >= limit - DOMAIN_GUARD:
        raise CurvatureDomainError(
            f"distance {d:.6g} violates the positive-curvature domain d < pi/(4*sqrt(k_max)) = {limit:.6g}"
        )
    s = 2.0 * math.sqrt(k_max) * d
    if s < SERIES_CUTOFF:
        return 1.0 - s * s / 3.0
    return s / math.tan(s)


@dataclass(frozen=True, eq=False)
class TriangleCheck:
    """Outcome of one comparison-inequality evaluation on a geodesic triangle."""

    a: ManifoldPoint
    b: ManifoldPoint
    c: ManifoldPoint
    delta_used: float
    residual: float
    scale: float


def _conservative_delta(k_max: float, ab: float, bc: float, ac: float) -> float:
    """Lower bound for s*cot(s) over every admissible transversal foot point.

    The comparison inequality evaluates s*cot(s) at s = sqrt(k_max)*dist(a, q)
    for some q on the geodesic from b to c. dist(a, q) is bounded above by
    min(dist(a,b), dist(a,c)) + dist(b,c), and x*cot(x) is decreasing on (0, pi),
    so evaluating at that upper bound is sound for every q.
    """
    if k_max <= 0.0 or bc == 0.0:
        return 1.0
    s = math.sqrt(k_max) * (min(ab, ac) + bc)
    if s == 0.0:
        return 1.0
    if s < SERIES_CUTOFF:
        return 1.0 - s * s / 3.0
    if s >= math.pi - DOMAIN_GUARD:
        raise CurvatureDomainError(
            f"conservative comparison point sqrt(k_max)*(min(ab,ac)+bc) = {s:.6g} must stay below pi"
        )
    return s * math.cos(s) / math.sin(s)


def lemma2_residual(a: ManifoldPoint, b: ManifoldPoint, c: ManifoldPoint) -> TriangleCheck:
    """Residual of the curvature comparison inequality on triangle (a, b, c).

    The inequality, with logarithms taken at vertex b, reads

        dist^2(a, c) >= delta * dist^2(b, c) - 2 <log_b(a), log_b(c)> + dist^2(a, b)

    and holds with delta = 1 as an exact identity (law of cosines) on flat
    manifolds. For a positive curvature upper bound, delta is evaluated at the
    conservative transversal bound, so the returned residual is nonnegative up
    to roundoff whenever the triangle is admissible.
    """
    m = a.manifold
    if b.manifold != m or c.manifold != m:
        raise ValueError("triangle vertices live on different manifolds")
    ab = m._dist(a.coords, b.coords)
    bc = m._dist(b.coords, c.coords)
    ac = m._dist(a.coords, c.coords)
    k_max = m.curvature_bounds[1]
    if k_max > 0.0:
        bound = math.pi / math.sqrt(k_max)
        for name, side in (("ab", ab), ("bc", bc), ("ac", ac)):
            if side >= bound:
                raise CurvatureDomainError(
                    f"triangle side {name} = {side:.6g} must stay below pi/sqrt(k_max) = {bound:.6g}"
                )
    cross = m._inner(b.coords, m._log(b.coords, a.coords), m._log(b.coords, c.coords))
    delta = _conservative_delta(k_max, ab, bc, ac)
    residual = ac * ac - (delta * bc * bc - 2.0 * cross + ab * ab)
    scale = max(ab, bc, ac) ** 2
    return TriangleCheck(a=a, b=b, c=c, delta_used=delta, residual=residual, scale=scale)
