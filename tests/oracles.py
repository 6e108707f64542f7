"""Independent reference implementations used only by the tests.

Deliberately unrelated to the package's own numerics: the matrix
exponential is Taylor-with-scaling-and-squaring (no eigenvalue branches,
no scipy), Delta(lambda) is a 50-digit mpmath product of plain matrix
exponentials (no log-scaling), the dominant-root search is a scalar
bisection, quadrature is plain Gauss-Legendre, a mode is sampled zone by
zone from the formula on its coefficients, derivatives are central
differences, a root off the real axis is a secant iteration, and the
limited advection step is a cell-by-cell loop.
Agreement between these and the package is the point of the property
tests, so nothing here may import from movingbed internals.
"""

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss


def expm_taylor(A, tol=1e-22, max_terms=60):
    """Matrix exponential by scaling and squaring with a Taylor series."""
    A = np.asarray(A)
    norm = np.abs(A).sum(axis=1).max()   # infinity norm
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    B = A / (2.0 ** s)
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, max_terms + 1):
        term = term @ B / k
        out = out + term
        if np.abs(term).max() < tol * np.abs(out).max():
            break
    for _ in range(s):
        out = out @ out
    return out


def mp_delta(lam, v, R, P, dps=50):
    """Delta(lambda) = tr C - det C - 1 as an mpmath complex at dps digits.

    C = M1 D1 M4 M3 D3 M2 round the loop from x = -1, with each zone
    matrix M_i = expm(F_i) taken by ``mpmath.expm`` and the injecting
    ports' flux factors D1 = diag(v4/v1, 1) (eluent) and D3 = diag(v2/v3,
    1) (feed).  The floats lam, v, R, P enter exactly.
    """
    with mpmath.workdps(dps):
        lam = mpmath.mpc(complex(lam))
        R, P = mpmath.mpf(R), mpmath.mpf(P)
        v1, v2, v3, v4 = (mpmath.mpf(x) for x in v)
        M = [mpmath.expm(mpmath.matrix([[-(lam + P * P * R) / vi,
                                         R * P / vi],
                                        [-R * P, lam + R]]))
             for vi in (v1, v2, v3, v4)]
        D1 = mpmath.diag([v4 / v1, 1])
        D3 = mpmath.diag([v2 / v3, 1])
        C = M[0] * D1 * M[3] * M[2] * D3 * M[1]
        return C[0, 0] + C[1, 1] - mpmath.det(C) - 1


def bisect(sign, a, b, s, tol):
    """Root of a real function in the cell (a, b) with sign s at a, by
    scalar bisection stopped on width < tol (at most 300 midpoints)."""
    for _ in range(300):
        if abs(b - a) < tol:
            break
        mid = 0.5 * (a + b)
        s_mid = sign(mid)
        if s_mid == 0:
            return mid
        if s_mid == s:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def bisect_dominant(sign, M0, tol):
    """Largest root of a real function in [-M0, 0), by scalar bisection.

    sign(x) gives the sign of the function at the float x.  The walk goes
    down a 200-point geometric grid from -tol to -M0 and stops at the first
    point of sign 0 or the first sign change; a changing cell is split
    into 20 geometric cells, walked the same way, and the cell found is
    bisected.  Returns None when no cell is found.
    """
    def first_cell(xs):
        xs = [float(x) for x in xs]
        s_prev = sign(xs[0])
        for a, b in zip(xs, xs[1:] + [None]):
            if s_prev == 0:
                return a, a, 0
            if b is None:
                return None
            s_next = sign(b)
            if s_prev * s_next < 0:
                return a, b, s_prev
            s_prev = s_next

    cell = first_cell(-np.geomspace(tol, M0, 200))
    if cell is None:
        return None
    if cell[2] != 0:
        cell = first_cell(-np.geomspace(-cell[0], -cell[1], 21))
    return bisect(sign, *cell, tol)


_GL_X, _GL_W = leggauss(64)


def gl64(f, lo, hi):
    """64-node Gauss-Legendre integral of a (vectorized) scalar function."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * np.sum(_GL_W * f(mid + half * _GL_X))


def mode_values(sol, zone, x):
    """(c, q) of an eigfun solution on zone (1..4) at points x, from the
    formula of the eigfun module docstring on the solution's fields:

        c(x) = sum_j C^j phi^j exp(sign nu^j x),
        q(x) = R P sum_j C^j exp(sign nu^j x),

    with C = coeffs[2 (zone - 1):2 zone], one zone per call.
    """
    x = np.asarray(x, dtype=float)
    c = np.zeros(x.shape, dtype=complex)
    q = np.zeros(x.shape, dtype=complex)
    for j in range(2):
        C = sol.coeffs[2 * (zone - 1) + j]
        e = np.exp(sol.sign * sol.nus[zone - 1, j] * x)
        c += C * sol.phis[zone - 1, j] * e
        q += C * e
    return c, sol.params.R * sol.params.P * q


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def secant(f, z, steps=40):
    """The root of f near z by secant steps from z and z (1 + 1e-7),
    stopped where two iterates agree to 1e-15 or f takes one value twice."""
    z0, z1 = z, z * (1.0 + 1e-7)
    f0, f1 = f(z0), f(z1)
    for _ in range(steps):
        if f1 == f0 or abs(z1 - z0) <= 1e-15 * abs(z1):
            break
        z0, z1, f0 = z1, z1 - f1 * (z1 - z0) / (f1 - f0), f1
        f1 = f(z1)
    return complex(z1)


def _van_leer(a, b):
    return 2.0 * a * b / (a + b) if a * b > 0.0 else 0.0


def limited_advection_loop(c, q, v, f0, p):
    """One van Leer limited Lax-Wendroff step, cell by cell.

    c, q: (4, Nx) zone-by-zone cell values; v: the four liquid velocities;
    p: dt/dx.  Liquid moves right at v_i and enters zone i as
    alpha_i * c_out + beta_i; its stencil reaches past the outlet through
    the inverse of the next port.  The solid moves left at unit speed
    around one periodic loop.  Returns the new (c, q).
    """
    v1, v2, v3, v4 = v
    alpha = [v4 / v1, 1.0, v2 / v3, 1.0]
    beta = [0.0, 0.0, f0 / v3, 0.0]
    nx = len(c[0])

    def outlet_faces(i):
        nu = v[i] * p
        nxt = (i + 1) % 4
        ext = ([alpha[i] * c[i - 1][-1] + beta[i]] + list(c[i])
               + [(c[nxt][0] - beta[nxt]) / alpha[nxt]])
        return [ext[j] + 0.5 * (1.0 - nu)
                * _van_leer(ext[j] - ext[j - 1], ext[j + 1] - ext[j])
                for j in range(1, nx + 1)]

    faces = [outlet_faces(i) for i in range(4)]
    c_new = np.empty((4, nx))
    for i in range(4):
        nu = v[i] * p
        left = alpha[i] * faces[i - 1][-1] + beta[i]
        for j in range(nx):
            c_new[i, j] = c[i][j] - nu * (faces[i][j] - left)
            left = faces[i][j]

    ring = [x for zone in q for x in zone]
    n = len(ring)
    left_faces = [ring[m] - 0.5 * (1.0 - p) * _van_leer(
        ring[m] - ring[m - 1], ring[(m + 1) % n] - ring[m]) for m in range(n)]
    q_new = [ring[m] + p * (left_faces[(m + 1) % n] - left_faces[m])
             for m in range(n)]
    return c_new, np.reshape(q_new, (4, nx))
