"""Constant-curvature manifolds: points, tangent vectors, and exact geometry kernels.

Four geometries are supported: Euclidean space, Euclidean space under a constant
SPD metric, the unit sphere, and the hyperboloid model of hyperbolic space. All
maps (exp, log, distance, parallel transport) are closed form and exact on these
spaces. Distances use chord-based formulas that stay accurate near coincident
(and, on the sphere, near antipodal) points, and small-argument code paths avoid
0/0 in the sin/sinh ratios.

Convention for the hyperboloid: the Minkowski form is <x, y> = sum_i<n x_i y_i
- x_n y_n, i.e. the time-like coordinate is the LAST one, and points live on the
upper sheet (last coordinate positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ManifoldError",
    "UndefinedLogarithmError",
    "Manifold",
    "Euclidean",
    "FlatMetric",
    "Sphere",
    "Hyperboloid",
    "ManifoldPoint",
    "TangentVector",
    "Region",
    "exp_map",
    "log_map",
    "dist",
    "parallel_transport",
    "inner",
    "project_tangent",
    "tangent_basis",
    "sample_point",
    "manifold_from_descriptor",
]

POINT_TOL = 1e-10
TANGENT_TOL = 1e-10
_SMALL = 1e-8           # below this, series / identity branches take over
_ANTIPODE_GUARD = 1e-8  # sphere logarithm rejected within this of distance pi
_DEGENERATE = 1e-14     # log and transport treat shorter directions as zero
_MIN_DIRECTION = 1e-12  # the draw skips directions whose tangent projection is shorter
_SYMMETRY_TOL = 1e-12   # relative asymmetry a metric or objective matrix may carry
REGION_EXIT_TOL = 1e-9  # a point this far past a region's radius has left it (Region.outside)


class ManifoldError(ValueError):
    """A geometric contract was violated (invalid point, mismatched spaces, ...)."""


class UndefinedLogarithmError(ManifoldError):
    """log_x(y) requested where no unique minimizing geodesic exists."""


def _as_vector(values, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ManifoldError(f"{what} must be a 1-d real vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ManifoldError(f"{what} must be finite")
    return arr


def _symmetric_matrix(values, what: str, error: type[Exception]) -> np.ndarray:
    """Read-only float copy of a square, finite matrix symmetric to _SYMMETRY_TOL relative; raises error otherwise."""
    mat = np.array(values, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise error(f"{what} must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise error(f"{what} must be finite")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if float(np.max(np.abs(mat - mat.T))) > _SYMMETRY_TOL * scale:
        raise error(f"{what} must be symmetric to {_SYMMETRY_TOL:g} relative tolerance")
    mat.setflags(write=False)
    return mat


def _as_spd_matrix(values, what: str, error: type[Exception] = ManifoldError) -> np.ndarray:
    mat = _symmetric_matrix(values, what, error)
    evals = np.linalg.eigvalsh(mat)
    if evals[0] <= 0.0:
        raise error(f"{what} must be positive definite (min eigenvalue {evals[0]:.3e})")
    return mat


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d vector: np.linalg.norm's arithmetic, without its wrapper."""
    return math.sqrt(float(v.dot(v)))


def _mink(u: np.ndarray, v: np.ndarray) -> float:
    # Minkowski form with the time-like coordinate last; callers check the
    # result for finiteness. vdot and float arithmetic overflow to inf/nan
    # silently, so no errstate is needed.
    return float(np.vdot(u[:-1], v[:-1])) - float(u[-1]) * float(v[-1])


# Row helpers. A kernel method given an (n, ambient) array works row by row;
# a 1-d argument next to it is one point or vector shared by every row. The
# products are stacked matmuls, one BLAS dot or matrix-vector call per row:
# the call the 1-d code makes, so a row's product equals the 1-d one and
# never depends on n. A single BLAS product over the whole block could sum in
# an order that depends on the number of rows.


def _rdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u_i @ v_i."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _rvecmat(u: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Rows u_i @ mat."""
    return np.matmul(u[..., None, :], mat)[..., 0, :]


def _rmatvec(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows mat @ u_i."""
    return np.matmul(mat, u[..., :, None])[..., 0]


def _rmink(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise Minkowski form; callers that may overflow silence the warning."""
    return _rdot(u[..., :-1], v[..., :-1]) - u[..., -1] * v[..., -1]


def _log_rows(d: np.ndarray, nw: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows (d / nw) * w of a logarithm (or one, given 1-d w), zero where d or nw is below _DEGENERATE."""
    keep = (d >= _DEGENERATE) & (nw >= _DEGENERATE)
    scale = np.divide(d, nw, out=np.zeros_like(d), where=keep)
    return np.where(keep[..., None], scale[..., None] * w, 0.0)


class Manifold:
    """Base class holding the raw-array geometry kernel for one space."""

    kind = "abstract"

    def __init__(self, dim: int):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ManifoldError(f"manifold dimension must be a positive integer, got {dim!r}")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        """Intrinsic dimension."""
        return self._dim

    @property
    def ambient_dim(self) -> int:
        return self._dim

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        """(k_min, k_max) bounds on the sectional curvature."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    def point(self, coords) -> "ManifoldPoint":
        return ManifoldPoint(self, coords)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.dim == other.dim

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"

    # -- point and tangent contracts -------------------------------------
    #
    # Each geometry states its contracts once, as (mask, message) pairs over
    # one 1-d point (a 0-d mask) or over (n, ambient) rows. The masks below
    # and the single-point checks (_checked_point, _checked_tangent) both read
    # them; a message may name {t}, the point's last coordinate.

    def _point_contracts(self, c: np.ndarray) -> tuple:
        return ()

    def _tangent_contracts(self, x: np.ndarray, v: np.ndarray) -> tuple:
        return ()

    def _points_ok(self, c: np.ndarray) -> np.ndarray:
        """Mask of the points of c (one point or rows) that are finite and meet every point contract."""
        return _meets(np.isfinite(c).all(axis=-1), self._point_contracts(c))

    def _tangents_ok(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Mask of the vectors of v that are finite and meet every tangent contract at x."""
        return _meets(np.isfinite(v).all(axis=-1), self._tangent_contracts(x, v))

    # -- kernel methods on raw coordinate arrays -------------------------
    #
    # _inner, _dist, _exp, _log and _project take one point or (n, ambient)
    # rows and return one result per row (see the row helpers); _transport
    # takes one point. Rows come from certify's draw and probe stages and from
    # descent.run's gradient-norm passes and the passes after its loop. One
    # point goes through the row code, except in the 1-d branches kept for the
    # loops that call them once per point:
    # - every step of descent.run: the sphere and hyperboloid _exp, the sphere
    #   _inner (its pi guard needs each step's gradient norm; the other
    #   geometries take the norms in row passes of up to NORM_BLOCK records),
    #   the gradient_fn of quad_euclidean, quad_flat_metric and rayleigh_sphere,
    #   and the hyperboloid _log and _dist (sqdist_hyperboloid's gradient);
    # - every pair of estimate_gamma, which a sphere certificate runs (the
    #   sphere has no analytic gamma): the sphere _dist, _inner and _project
    #   (in _transport), and rayleigh_sphere's gradient_fn.
    # Where the 1-d code raises for a step (_exp), the row code returns a NaN
    # row instead, which the point contracts reject; _log raises if any row is
    # undefined.

    def _inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        raise NotImplementedError

    def _exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _dist(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def _transport(self, x: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _project(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tangent_basis(self, x: np.ndarray) -> list[np.ndarray]:
        """Metric-orthonormal basis of the tangent space at x."""
        basis: list[np.ndarray] = []
        for i in range(self.ambient_dim):
            cand = np.zeros(self.ambient_dim)
            cand[i] = 1.0
            v = self._project(x, cand)
            for b in basis:
                v = v - self._inner(x, b, v) * b
            nrm = math.sqrt(max(self._inner(x, v, v), 0.0))
            if nrm > 1e-8:
                v = v / nrm
                # second pass keeps the basis orthonormal to machine precision
                for b in basis:
                    v = v - self._inner(x, b, v) * b
                v = v / math.sqrt(max(self._inner(x, v, v), 0.0))
                basis.append(v)
            if len(basis) == self.dim:
                break
        if len(basis) < self.dim:
            raise ManifoldError("failed to build a tangent basis at the given point")
        return basis


class Euclidean(Manifold):
    """Plain Euclidean space R^n; FlatMetric reuses its straight-line kernel."""

    kind = "euclidean"

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        return (0.0, 0.0)

    def _inner(self, x, u, v):
        if u.ndim == 1 and v.ndim == 1:
            return float(u @ v)
        return _rdot(u, v)

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return y - x

    def _dist(self, x, y):
        z = y - x
        return np.sqrt(_rdot(z, z))

    def _transport(self, x, y, v):
        return v.copy()

    def _project(self, x, w):
        return w.copy()

    def _tangent_basis(self, x):
        return [row for row in np.eye(self.dim)]


class FlatMetric(Euclidean):
    """R^n under a constant SPD metric A: <u, v> = u^T A v, geodesics are straight lines."""

    kind = "flat_metric"

    def __init__(self, metric):
        mat = _as_spd_matrix(metric, "metric matrix")
        super().__init__(mat.shape[0])
        self._metric = mat
        self._chol = np.linalg.cholesky(mat)

    @property
    def metric(self) -> np.ndarray:
        return self._metric

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "metric_matrix": [[float(v) for v in row] for row in self._metric],
        }

    def __eq__(self, other):
        return other is self or (
            isinstance(other, FlatMetric)
            and self.dim == other.dim
            and np.array_equal(self._metric, other._metric)
        )

    __hash__ = object.__hash__

    def _inner(self, x, u, v):
        if u.ndim == 1 and v.ndim == 1:
            return float(u @ self._metric @ v)
        return _rdot(_rvecmat(u, self._metric), v)

    def _dist(self, x, y):
        z = y - x
        return np.sqrt(np.maximum(_rdot(_rvecmat(z, self._metric), z), 0.0))

    def _tangent_basis(self, x):
        # columns of L^{-T} are orthonormal in the A inner product
        inv_t = np.linalg.solve(self._chol.T, np.eye(self.dim))
        return [inv_t[:, i].copy() for i in range(self.dim)]


class Sphere(Manifold):
    """Unit sphere S^dim embedded in R^(dim+1), sectional curvature +1."""

    kind = "sphere"

    @property
    def ambient_dim(self) -> int:
        return self._dim + 1

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        return (1.0, 1.0)

    # a squared norm that overflows is inf: off the sphere, and a tolerance that any product meets
    def _point_contracts(self, c):
        with np.errstate(over="ignore", invalid="ignore"):
            return ((np.abs(np.sqrt(_rdot(c, c)) - 1.0) <= POINT_TOL,
                     f"sphere point must have unit norm within {POINT_TOL}"),)

    def _tangent_contracts(self, x, v):
        with np.errstate(over="ignore", invalid="ignore"):
            tol = TANGENT_TOL * np.maximum(1.0, np.sqrt(_rdot(v, v)))
            return ((np.abs(_rdot(x, v)) <= tol, "tangent vector is not orthogonal to the sphere point"),)

    def _inner(self, x, u, v):
        if u.ndim == 1 and v.ndim == 1:
            return float(u @ v)
        return _rdot(u, v)

    def _dist(self, x, y):
        if x.ndim == 1 and y.ndim == 1:
            if float(x @ y) >= 0.0:
                half_chord = 0.5 * _norm(x - y)
                return 2.0 * math.asin(min(half_chord, 1.0))
            half_chord = 0.5 * _norm(x + y)
            return math.pi - 2.0 * math.asin(min(half_chord, 1.0))
        near = _rdot(x, y) >= 0.0
        z = np.where(near[:, None], x - y, x + y)
        angle = 2.0 * np.arcsin(np.minimum(0.5 * np.sqrt(_rdot(z, z)), 1.0))
        return np.where(near, angle, math.pi - angle)

    def _exp(self, x, v):
        if v.ndim == 1:
            t = _norm(v)
            if t >= math.pi:
                raise ManifoldError(
                    f"sphere exp step of length {t:.6g} reaches the injectivity radius pi"
                )
            if t == 0.0:
                return x.copy()
            if t < _SMALL:
                out = x + v
            else:
                out = math.cos(t) * x + (math.sin(t) / t) * v
            return out / _norm(out)
        t = np.sqrt(_rdot(v, v))[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(t < _SMALL, x + v, np.cos(t) * x + (np.sin(t) / t) * v)
        out = np.where(t == 0.0, x, out / np.sqrt(_rdot(out, out))[:, None])
        return np.where(t >= math.pi, np.nan, out)

    def _log(self, x, y):
        d = self._dist(x, y)
        if np.any(d >= math.pi - _ANTIPODE_GUARD):
            raise UndefinedLogarithmError(
                "sphere logarithm undefined: points are antipodal within guard"
            )
        w = y - _rdot(x, y)[..., None] * x
        w = w - _rdot(x, w)[..., None] * x
        return _log_rows(d, np.sqrt(_rdot(w, w)), w)

    def _transport(self, x, y, v):
        d = self._dist(x, y)
        if d >= math.pi - _ANTIPODE_GUARD:
            raise UndefinedLogarithmError(
                "sphere transport undefined: points are antipodal within guard"
            )
        w = y - float(x @ y) * x
        w = w - float(x @ w) * x
        nw = _norm(w)
        if nw < _DEGENERATE:
            return self._project(y, v)
        e = w / nw
        comp = float(e @ v)
        # rotate the along-geodesic component in the span{x, e} plane
        out = v - comp * ((1.0 - math.cos(d)) * e + math.sin(d) * x)
        return self._project(y, out)

    def _project(self, x, w):
        if x.ndim == 1 and w.ndim == 1:
            return w - float(x @ w) * x
        return w - _rdot(x, w)[:, None] * x


class Hyperboloid(Manifold):
    """Upper sheet of the hyperboloid <x, x> = -1, sectional curvature -1.

    The chart is trusted while the time coordinate stays below 1e3 (about
    distance 7.6 from the apex): the constraint residual of a representable
    point grows like eps * x_time^2, and past the cap the chord form used for
    distances drops below 1e-9 relative accuracy. Points and exp steps beyond
    the cap are rejected rather than silently degraded.
    """

    kind = "hyperboloid"

    TIME_CAP = 1e3

    @property
    def ambient_dim(self) -> int:
        return self._dim + 1

    @property
    def curvature_bounds(self) -> tuple[float, float]:
        return (-1.0, -1.0)

    def _point_contracts(self, c):
        t = c[..., -1]
        with np.errstate(over="ignore", invalid="ignore"):
            # the form of a representable point carries rounding ~eps * time^2,
            # so the tolerance scales the same way (= fixed intrinsic accuracy);
            # a form that overflows is off the sheet even where t * t does too
            q = _rmink(c, c)
            on_sheet = np.isfinite(q) & (np.abs(q + 1.0) <= POINT_TOL * np.maximum(1.0, t * t))
        return (
            (on_sheet, f"hyperboloid point must satisfy <x,x> = -1 within {POINT_TOL} "
                       "relative to the squared time coordinate"),
            (t > 0.0, "hyperboloid point must lie on the upper sheet (last coordinate > 0)"),
            (t <= self.TIME_CAP, "hyperboloid point time coordinate {t:.6g} exceeds the trusted chart limit "
                                 f"{self.TIME_CAP:g} (metric resolution falls below 1e-9 beyond it)"),
        )

    def _tangent_contracts(self, x, v):
        with np.errstate(over="ignore", invalid="ignore"):
            tol = TANGENT_TOL * np.maximum(1.0, np.sqrt(_rdot(v, v))) * np.maximum(1.0, x[..., -1])
            return ((np.abs(_rmink(x, v)) <= tol, "tangent vector is not Minkowski-orthogonal to the base point"),)

    def _inner(self, x, u, v):
        if u.ndim == 1 and v.ndim == 1:
            return _mink(u, v)
        return _rmink(u, v)

    def _dist(self, x, y):
        z = x - y
        # <x-y, x-y> = 2(cosh d - 1) = 4 sinh^2(d/2); the chord form has no
        # cancellation for nearby points, unlike arccosh(-<x,y>)
        if z.ndim == 1:
            q = max(_mink(z, z), 0.0)
            return 2.0 * math.asinh(0.5 * math.sqrt(q))
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(_rmink(z, z), 0.0)))

    def _exp(self, x, v):
        if v.ndim == 1:
            t = math.sqrt(max(_mink(v, v), 0.0))
            if t == 0.0:
                return x.copy()
            if t > 710.0:  # cosh overflows doubles just past 710
                raise ManifoldError(
                    f"hyperboloid exp step of length {t:.6g} overflows the ambient coordinates"
                )
            if t < _SMALL:
                out = x + v
            else:
                out = math.cosh(t) * x + (math.sinh(t) / t) * v
            s = -_mink(out, out)
            if not math.isfinite(s):
                raise ManifoldError("hyperboloid exp overflowed the ambient coordinates")
            # inside the trusted chart s is 1 up to ~1e-10 and renormalizing kills
            # drift; outside it s is cancellation noise and the point check will
            # reject the result anyway, so leave the raw combination alone
            if 0.75 <= s <= 1.25:
                out = out / math.sqrt(s)
            return out
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = np.sqrt(np.maximum(_rmink(v, v), 0.0))[:, None]
            out = np.where(t < _SMALL, x + v, np.cosh(t) * x + (np.sinh(t) / t) * v)
            s = -_rmink(out, out)[:, None]
            out = np.where((0.75 <= s) & (s <= 1.25), out / np.sqrt(s), out)
        out = np.where(t == 0.0, x, out)
        return np.where((t > 710.0) | ~np.isfinite(s), np.nan, out)

    def _log(self, x, y):
        d = self._dist(x, y)
        if x.ndim == 1 and y.ndim == 1:
            w = y + _mink(x, y) * x
            w = w + _mink(x, w) * x
            nw = math.sqrt(max(_mink(w, w), 0.0))
            if d < _DEGENERATE or nw < _DEGENERATE:
                return np.zeros_like(x)
            return (d / nw) * w
        w = y + _rmink(x, y)[:, None] * x
        w = w + _rmink(x, w)[:, None] * x
        return _log_rows(d, np.sqrt(np.maximum(_rmink(w, w), 0.0)), w)

    def _transport(self, x, y, v):
        d = self._dist(x, y)
        w = y + _mink(x, y) * x
        w = w + _mink(x, w) * x
        nw = math.sqrt(max(_mink(w, w), 0.0))
        if nw < _DEGENERATE:
            return self._project(y, v)
        e = w / nw
        comp = _mink(e, v)
        out = v + comp * ((math.cosh(d) - 1.0) * e + math.sinh(d) * x)
        return self._project(y, out)

    def _project(self, x, w):
        return w + _rmink(x, w)[..., None] * x


def _meets(ok, contracts):
    """ok and every mask of contracts."""
    for met, _ in contracts:
        ok = ok & met
    return ok


def _require_contracts(contracts, c: np.ndarray) -> None:
    """Raise the message of the first contract that one point or vector fails."""
    for met, message in contracts:
        if not met:
            raise ManifoldError(message.format(t=float(c[-1])))


def _checked_point(m: Manifold, coords) -> np.ndarray:
    """The point check, once: a finite read-only copy of coords that lies on m."""
    c = _as_vector(coords, "point coordinates")
    if c.shape[0] != m.ambient_dim:
        raise ManifoldError(f"point has {c.shape[0]} coordinates, manifold is ambient-{m.ambient_dim}")
    _require_contracts(m._point_contracts(c), c)
    c.setflags(write=False)
    return c


def _checked_tangent(m: Manifold, x: np.ndarray, coords) -> np.ndarray:
    """The tangent check, once: a finite read-only copy of coords tangent to m at x."""
    c = _as_vector(coords, "tangent coordinates")
    if c.shape[0] != m.ambient_dim:
        raise ManifoldError(f"tangent has {c.shape[0]} coordinates, manifold is ambient-{m.ambient_dim}")
    _require_contracts(m._tangent_contracts(x, c), x)
    c.setflags(write=False)
    return c


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A validated point: coordinates plus the manifold they live on."""

    manifold: Manifold
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _checked_point(self.manifold, self.coords))

    @classmethod
    def _from_checked(cls, manifold: Manifold, coords: np.ndarray) -> "ManifoldPoint":
        """A point built with no check and no copy: only for coords that passed the point
        check and cannot change, such as a row of a read-only array the row check accepted."""
        p = object.__new__(cls)
        object.__setattr__(p, "manifold", manifold)  # not __dict__, which would build a dict per point
        object.__setattr__(p, "coords", coords)
        return p

    def __repr__(self) -> str:
        return f"ManifoldPoint({self.manifold!r}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector attached to its base point."""

    base: ManifoldPoint
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _checked_tangent(self.base.manifold, self.base.coords, self.coords))

    def norm(self) -> float:
        m = self.base.manifold
        return math.sqrt(max(m._inner(self.base.coords, self.coords, self.coords), 0.0))


@dataclass(frozen=True, eq=False)
class Region:
    """Closed geodesic ball around a center point.

    When the curvature upper bound k_max is positive the radius must stay below
    pi/(4*sqrt(k_max)); larger balls are outside the domain on which the
    contraction-to-convexity converse holds.
    """

    center: ManifoldPoint
    radius: float

    def __post_init__(self):
        r = float(self.radius)
        if not math.isfinite(r) or r < 0.0:
            raise ManifoldError(f"region radius must be a finite nonnegative real, got {self.radius!r}")
        object.__setattr__(self, "radius", r)
        k_max = self.center.manifold.curvature_bounds[1]
        if k_max > 0.0:
            limit = math.pi / (4.0 * math.sqrt(k_max))
            if r >= limit:
                raise ManifoldError(
                    f"region radius {r:.6g} must stay below pi/(4*sqrt(k_max)) = {limit:.6g} "
                    "when the curvature upper bound is positive"
                )

    def outside(self, d):
        """Whether a distance d from the center (or each one of an array) exceeds radius + REGION_EXIT_TOL."""
        return d > self.radius + REGION_EXIT_TOL

    def to_json_dict(self) -> dict:
        return {
            "manifold": self.center.manifold.descriptor(),
            "center": [float(v) for v in self.center.coords],
            "radius": float(self.radius),
        }


def _require_same_manifold(x: ManifoldPoint, y: ManifoldPoint) -> None:
    if x.manifold != y.manifold:
        raise ManifoldError("points live on different manifolds")


def _require_base(v: TangentVector, x: ManifoldPoint) -> None:
    if v.base.manifold != x.manifold or not np.array_equal(v.base.coords, x.coords):
        raise ManifoldError("tangent vector is not based at the given point")


def exp_map(x: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
    """Geodesic starting at x with initial velocity v, evaluated at time 1."""
    _require_base(v, x)
    return ManifoldPoint(x.manifold, x.manifold._exp(x.coords, v.coords))


def log_map(x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
    """Initial velocity of the minimizing geodesic from x to y; norm equals dist(x, y)."""
    _require_same_manifold(x, y)
    return TangentVector(x, x.manifold._log(x.coords, y.coords))


def dist(x: ManifoldPoint, y: ManifoldPoint) -> float:
    """Geodesic distance."""
    _require_same_manifold(x, y)
    return float(x.manifold._dist(x.coords, y.coords))


def parallel_transport(x: ManifoldPoint, y: ManifoldPoint, v: TangentVector) -> TangentVector:
    """Transport v along the minimizing geodesic from x to y (a linear isometry)."""
    _require_same_manifold(x, y)
    _require_base(v, x)
    return TangentVector(y, x.manifold._transport(x.coords, y.coords, v.coords))


def inner(x: ManifoldPoint, u: TangentVector, v: TangentVector) -> float:
    """Riemannian inner product of two tangent vectors at x."""
    _require_base(u, x)
    _require_base(v, x)
    return float(x.manifold._inner(x.coords, u.coords, v.coords))


def project_tangent(x: ManifoldPoint, w) -> TangentVector:
    """Metric-orthogonal projection of an ambient vector onto the tangent space at x."""
    arr = _as_vector(w, "ambient vector")
    if arr.shape[0] != x.manifold.ambient_dim:
        raise ManifoldError(
            f"ambient vector has {arr.shape[0]} coordinates, expected {x.manifold.ambient_dim}"
        )
    return TangentVector(x, x.manifold._project(x.coords, arr))


def tangent_basis(x: ManifoldPoint) -> tuple[TangentVector, ...]:
    """Metric-orthonormal basis of the tangent space at x."""
    return tuple(TangentVector(x, b) for b in x.manifold._tangent_basis(x.coords))


def _draw_coords(region: Region, n: int, directions: np.random.Generator,
                 radii: np.random.Generator) -> np.ndarray:
    """Coordinates of n points of the region, one row each; row i never depends on n.

    Row i: the i-th Gaussian row of `directions` whose tangent projection at the center
    has norm >= _MIN_DIRECTION (shorter ones, a measure-zero event, are skipped), normalized and
    pushed to geodesic radius R * u^(1/dim), u = 1 - the i-th draw of `radii`.
    A radius-0 region gives n copies of its center and draws nothing."""
    m = region.center.manifold
    c = region.center.coords
    if region.radius == 0.0:
        return np.tile(c, (n, 1))
    t = m._project(c, directions.standard_normal((n, m.ambient_dim)))
    nrm = np.sqrt(np.maximum(m._inner(c, t, t), 0.0))
    while np.any(nrm < _MIN_DIRECTION):
        keep = nrm >= _MIN_DIRECTION
        more = m._project(c, directions.standard_normal((n - np.count_nonzero(keep), m.ambient_dim)))
        t = np.concatenate((t[keep], more))
        nrm = np.sqrt(np.maximum(m._inner(c, t, t), 0.0))
    # Python's float power per draw, as in the 1-d draw: numpy's vectorized
    # power may round differently
    e = 1.0 / m.dim
    radius = region.radius * np.array([u ** e for u in (1.0 - radii.random(n)).tolist()])
    return m._exp(c, (radius / nrm)[:, None] * t)


def _first_bad_row(m: Manifold, c: np.ndarray, v: np.ndarray | None = None, skip=None):
    """(i, error) for the first row i, outside the mask skip, that fails _require_rows' row check, error
    being the one the single-point check raises for row i (a generic one if it passes); None if none fails."""
    ok = m._points_ok(c) if v is None else m._tangents_ok(c, v)
    if skip is not None:
        ok = ok | skip
    if ok.all():
        return None
    i = int(np.argmin(ok))
    try:
        _checked_point(m, c[i]) if v is None else _checked_tangent(m, c[i], v[i])
    except ManifoldError as e:
        return i, e
    return i, ManifoldError(f"row {i} fails the {'point' if v is None else 'tangent'} check")


def _require_rows(m: Manifold, c: np.ndarray, v: np.ndarray | None = None, overflowed=None) -> None:
    """The row form of the point check of each row of c or, given v, of the tangent check
    of each row of v at the same row of c. Raises the 1-d check's error for the first row
    that fails, except a row that is not finite where the mask overflowed is set (the
    caller flags it)."""
    rows = c if v is None else v
    if rows.shape != (c.shape[0], m.ambient_dim):
        raise ManifoldError(f"rows have shape {rows.shape}, expected ({c.shape[0]}, {m.ambient_dim})")
    bad = _first_bad_row(m, c, v, None if overflowed is None else overflowed & ~np.isfinite(rows).all(axis=1))
    if bad is not None:
        raise bad[1]


def sample_point(region: Region, rng: np.random.Generator) -> ManifoldPoint:
    """One point of the region: the certifier's draw (_draw_coords) at n = 1, with rng
    as both its direction and radius stream. The direction is uniform only where the
    tangent projection is metric-isotropic (not under a FlatMetric other than c * I,
    nor on the hyperboloid off its apex). A radius-0 region returns its center."""
    if region.radius == 0.0:
        return region.center
    return ManifoldPoint(region.center.manifold, _draw_coords(region, 1, rng, rng)[0])


def manifold_from_descriptor(desc: dict) -> Manifold:
    """Rebuild a manifold from its JSON descriptor {"kind", "dim", "metric_matrix"?}."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ManifoldError("manifold descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "flat_metric":
        if "metric_matrix" not in desc:
            raise ManifoldError("flat_metric descriptor requires 'metric_matrix'")
        m = FlatMetric(desc["metric_matrix"])
        if "dim" in desc and int(desc["dim"]) != m.dim:
            raise ManifoldError("flat_metric descriptor 'dim' disagrees with the metric size")
        return m
    if "dim" not in desc:
        raise ManifoldError(f"manifold descriptor for kind '{kind}' requires 'dim'")
    dim = desc["dim"]
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool):
        raise ManifoldError(f"manifold 'dim' must be an integer, got {dim!r}")
    if kind == "euclidean":
        return Euclidean(int(dim))
    if kind == "sphere":
        return Sphere(int(dim))
    if kind == "hyperboloid":
        return Hyperboloid(int(dim))
    raise ManifoldError(
        f"unknown manifold kind '{kind}' (expected euclidean, flat_metric, sphere, hyperboloid)"
    )
