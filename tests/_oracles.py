"""Independent numerical oracles used to cross-check the package.

Nothing here calls back into geodescent: geodesics and parallel transport are
obtained by integrating the embedded ODEs with scipy, reference constants come
from mpmath at 50 digits, curved distances from the ambient-coordinate laws of
cosines, and critical points from a brute-force 1-d scan. The row form of the
geometry kernel and of the objectives is held to the 1-d form, row by row,
within ROW_ULPS.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh as scipy_eigh
from scipy.optimize import brentq

_IVP_OPTS = dict(method="DOP853", rtol=1e-12, atol=1e-13)

# A row result may differ from the 1-d result for that row by this many units
# of roundoff times the square of the row's largest magnitude (1 for smaller
# rows). The products are the same BLAS calls, but numpy's arcsin / cosh /
# sinh / arcsinh may round differently from the math module's, and the
# hyperboloid exp renormalizes by a Minkowski form whose rounding grows with
# the squared coordinates, as its point check's tolerance does. Over 40,000
# hyperboloid exp rows within distance 4 of the apex the largest gap was 54.
ROW_ULPS = 256


def assert_rows_match(rows, ones) -> None:
    """Each row of rows equals the matching 1-d result of ones within ROW_ULPS."""
    for row, one in zip(rows, ones):
        one = np.asarray(one, dtype=float)
        bound = ROW_ULPS * np.finfo(float).eps * max(1.0, float(np.max(np.abs(one)))) ** 2
        assert np.all(np.abs(row - one) <= bound), (row, one, bound)


def _mink(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[:-1] @ v[:-1] - u[-1] * v[-1])


def sphere_exp_ode(x0, v0) -> np.ndarray:
    """Endpoint of the unit-sphere geodesic via the ODE x'' = -<x',x'> x."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = x0.shape[0]

    def rhs(_t, y):
        x, xd = y[:n], y[n:]
        return np.concatenate([xd, -(xd @ xd) * x])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([x0, v0]), **_IVP_OPTS)
    out = sol.y[:n, -1]
    return out / np.linalg.norm(out)


def hyperboloid_exp_ode(x0, v0) -> np.ndarray:
    """Endpoint of the hyperboloid geodesic via x'' = <x',x'>_L x."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    n = x0.shape[0]

    def rhs(_t, y):
        x, xd = y[:n], y[n:]
        return np.concatenate([xd, _mink(xd, xd) * x])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([x0, v0]), **_IVP_OPTS)
    out = sol.y[:n, -1]
    return out / math.sqrt(-_mink(out, out))


def sphere_transport_ode(x0, v0, w0) -> np.ndarray:
    """Parallel transport of w along the geodesic with initial velocity v.

    The transport equation on the embedded sphere is w' = -<x', w> x.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    n = x0.shape[0]

    def rhs(_t, y):
        x, xd, w = y[:n], y[n : 2 * n], y[2 * n :]
        return np.concatenate([xd, -(xd @ xd) * x, -(xd @ w) * x])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([x0, v0, w0]), **_IVP_OPTS)
    return sol.y[2 * n :, -1]


def hyperboloid_transport_ode(x0, v0, w0) -> np.ndarray:
    """Same, on the hyperboloid: w' = <x', w>_L x."""
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    n = x0.shape[0]

    def rhs(_t, y):
        x, xd, w = y[:n], y[n : 2 * n], y[2 * n :]
        return np.concatenate([xd, _mink(xd, xd) * x, _mink(xd, w) * x])

    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([x0, v0, w0]), **_IVP_OPTS)
    return sol.y[2 * n :, -1]


def sphere_law_of_cosines(a, b, c) -> float:
    """dist(a, c) from the spherical law of cosines at vertex b, ambient algebra only."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    ab = math.acos(min(max(float(a @ b), -1.0), 1.0))
    bc = math.acos(min(max(float(b @ c), -1.0), 1.0))
    ua = a - float(a @ b) * b
    uc = c - float(c @ b) * b
    na, nc = np.linalg.norm(ua), np.linalg.norm(uc)
    if na < 1e-14 or nc < 1e-14:  # a or c coincides with b
        return abs(ab - bc) if na < 1e-14 and nc < 1e-14 else max(ab, bc)
    cos_b = min(max(float(ua @ uc) / (na * nc), -1.0), 1.0)
    val = math.cos(ab) * math.cos(bc) + math.sin(ab) * math.sin(bc) * cos_b
    return math.acos(min(max(val, -1.0), 1.0))


def hyperboloid_law_of_cosines(a, b, c) -> float:
    """dist(a, c) from the hyperbolic law of cosines at vertex b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    ab = math.acosh(max(-_mink(a, b), 1.0))
    bc = math.acosh(max(-_mink(b, c), 1.0))
    ua = a + _mink(a, b) * b
    uc = c + _mink(c, b) * b
    na = math.sqrt(max(_mink(ua, ua), 0.0))
    nc = math.sqrt(max(_mink(uc, uc), 0.0))
    if na < 1e-14 or nc < 1e-14:
        return abs(ab - bc) if na < 1e-14 and nc < 1e-14 else max(ab, bc)
    cos_b = min(max(_mink(ua, uc) / (na * nc), -1.0), 1.0)
    val = math.cosh(ab) * math.cosh(bc) - math.sinh(ab) * math.sinh(bc) * cos_b
    return math.acosh(max(val, 1.0))


def zeta_reference(k_min: float, d: float, dps: int = 50) -> float:
    """sqrt(-k) d / tanh(sqrt(-k) d) at high precision."""
    with mpmath.workdps(dps):
        s = mpmath.sqrt(-mpmath.mpf(k_min)) * mpmath.mpf(d)
        return float(s / mpmath.tanh(s))


def delta_bar_reference(k_max: float, d: float, dps: int = 50) -> float:
    """2 sqrt(k) d / tan(2 sqrt(k) d) at high precision."""
    with mpmath.workdps(dps):
        s = 2 * mpmath.sqrt(mpmath.mpf(k_max)) * mpmath.mpf(d)
        return float(s / mpmath.tan(s))


def critical_points_1d(g, lo: float, hi: float, n: int = 20001) -> list[float]:
    """Brute-force scan for roots of g on [lo, hi]: sign changes refined by brentq."""
    ts = np.linspace(lo, hi, n)
    vals = np.array([g(t) for t in ts])
    roots = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            roots.append(float(ts[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(float(brentq(g, ts[i], ts[i + 1], xtol=1e-12)))
    if vals[-1] == 0.0:
        roots.append(float(ts[-1]))
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-9:
            dedup.append(r)
    return dedup


def generalized_spectrum(q, a) -> np.ndarray:
    """Eigenvalues of the pencil (Q, A), i.e. of A^{-1}Q, ascending."""
    return scipy_eigh(np.asarray(q, dtype=float), np.asarray(a, dtype=float),
                      eigvals_only=True)
