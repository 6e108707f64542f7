"""Parameter sensitivities of an eigenvalue by the adjoint method.

All six derivatives are ratios of sesquilinear forms in the direct and
adjoint eigenfunctions,

    dlambda/dtheta = N_theta(u, u*) / <u, u*>,

with every integral a finite sum of exponentials evaluated in closed form.
The denominator pairing <u, u*> integrates c c̄* + q q̄* over [-2, 2]; the
numerators are

    dlambda/dv_k : boundary term (-c c̄* at the zone inlet for k odd,
                   +c c̄* at the zone exit for k even) - int_{I_k} c_x c̄*
    dlambda/dR   : -int (P c - q)(P c̄* - q̄*)
    dlambda/dP   : int R(-2P c + q) c̄* + R c q̄*

Finite-difference validation re-runs the full bracket-and-bisect
eigenvalue pipeline at perturbed parameters, so it shares nothing with
the adjoint path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .eigfun import (ZONE_LEFT, EigenSolution, adjoint_eigenfunction,
                     eigenfunction, inner_product)
from .errors import ZeroDenominator
from .params import PORTS, ModelParams
from .spectrum import dominant_eigenvalue

# Exponent below this is treated as exactly zero (the "difference of the
# nu's is zero" case); the Taylor band above it avoids cancellation.
_MU_ZERO = 1e-12
_MU_TAYLOR = 1e-8


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z| (complex z)."""
    x, y = z.real, z.imag
    # e^x cos y - 1 = expm1(x) cos y + (cos y - 1); both addends stay small
    # exactly when z does, so no subtractive cancellation anywhere
    return complex(math.expm1(x) * math.cos(y)
                   - 2.0 * math.sin(y / 2.0) ** 2,
                   math.exp(x) * math.sin(y))


def exp_integral(D, Dstar, nu, nustar, x_lo: float, x_hi: float) -> complex:
    """int_{x_lo}^{x_hi} D conj(Dstar) exp((nu - conj(nustar)) x) dx.

    Closed form with a case split on the exponent mu = nu - conj(nustar):
    exactly linear in the interval length for |mu| <= 1e-12, first-order
    Taylor in the band up to 1e-8, else the primitive (stable via a
    complex expm1).
    """
    amp = D * np.conj(Dstar)
    mu = complex(nu - np.conj(nustar))
    length = x_hi - x_lo
    if abs(mu) <= _MU_ZERO:
        return amp * length
    if abs(mu) <= _MU_TAYLOR:
        return amp * length * (1.0 + mu * (x_lo + x_hi) / 2.0)
    return amp * cmath.exp(mu * x_lo) * _cexpm1(mu * length) / mu


def _zone_pair_integral(amp_d, amp_a, nus_d, nus_a, lo, hi) -> complex:
    """Sum of exp_integral over the 2x2 basis pairs of one zone."""
    total = 0.0 + 0.0j
    for j in range(2):
        for l in range(2):
            total += exp_integral(amp_d[j], amp_a[l], nus_d[j], nus_a[l],
                                  lo, hi)
    return complex(total)


def _amplitudes(sol: EigenSolution, zone: int) -> tuple:
    """(c amplitudes, q amplitudes, table rates nu) of one zone's expansion.

    The rates are the raw nu's of the zone table; exp_integral applies the
    adjoint-side exp(-nu x) convention itself, so adjoint solutions hand
    over the same table values as direct ones.
    """
    j = zone - 1
    cc = sol.coeffs[2 * j:2 * j + 2]
    c_amp = cc * sol.phis[j]
    q_amp = cc * (sol.params.R * sol.params.P)
    return c_amp, q_amp, sol.nus[j].copy()


def pairing_denominator(direct: EigenSolution,
                        adjoint: EigenSolution) -> complex:
    """<u, u*> = int c c̄* + q q̄* over [-2, 2], in closed form."""
    total = 0.0 + 0.0j
    for zone in range(1, 5):
        lo = ZONE_LEFT[zone - 1]
        cd, qd, nd = _amplitudes(direct, zone)
        ca, qa, na = _amplitudes(adjoint, zone)
        total += _zone_pair_integral(cd, ca, nd, na, lo, lo + 1.0)
        total += _zone_pair_integral(qd, qa, nd, na, lo, lo + 1.0)
    return complex(total)


def _checked_denominator(direct, adjoint) -> complex:
    den = pairing_denominator(direct, adjoint)
    scale = (abs(inner_product(direct, direct))
             * abs(inner_product(adjoint, adjoint))) ** 0.5
    if abs(den) <= 1e-12 * max(scale, 1e-30):
        raise ZeroDenominator(
            f"pairing <u,u*> = {den:.3e} negligible against norm scale "
            f"{scale:.3e}")
    return den


# boundary term per velocity: (zone, port x, sign) where the zone meets a
# v-weighted port; inlets carry -, exits +
_BOUNDARY = {zone: (zone, x, sgn) for port in PORTS if port.weighted()
             for zone, x, sgn in ((port.zone, port.x, -1.0),
                                  (port.up, port.x_up, +1.0))}


def dlambda_dv(k: int, direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative of the eigenvalue with respect to the zone-k velocity."""
    zone, xb, sgn = _BOUNDARY[k]
    lo = ZONE_LEFT[zone - 1]
    cd, _, nd = _amplitudes(direct, zone)
    ca, _, na = _amplitudes(adjoint, zone)
    cb, _ = direct.zone_values(zone, xb)
    cab, _ = adjoint.zone_values(zone, xb)
    num = sgn * complex(cb[0]) * np.conj(complex(cab[0]))
    num -= _zone_pair_integral(cd * nd, ca, nd, na, lo, lo + 1.0)
    return num / _checked_denominator(direct, adjoint)


def dlambda_dR(direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative with respect to the mass-transfer parameter R."""
    P = params.P
    num = 0.0 + 0.0j
    for zone in range(1, 5):
        lo = ZONE_LEFT[zone - 1]
        cd, qd, nd = _amplitudes(direct, zone)
        ca, qa, na = _amplitudes(adjoint, zone)
        num -= _zone_pair_integral(P * cd - qd, P * ca - qa, nd, na,
                                   lo, lo + 1.0)
    return num / _checked_denominator(direct, adjoint)


def dlambda_dP(direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative with respect to the partition parameter P."""
    R, P = params.R, params.P
    num = 0.0 + 0.0j
    for zone in range(1, 5):
        lo = ZONE_LEFT[zone - 1]
        cd, qd, nd = _amplitudes(direct, zone)
        ca, qa, na = _amplitudes(adjoint, zone)
        num += _zone_pair_integral(R * (-2.0 * P * cd + qd), ca, nd, na,
                                   lo, lo + 1.0)
        num += _zone_pair_integral(R * cd, qa, nd, na, lo, lo + 1.0)
    return num / _checked_denominator(direct, adjoint)


def central_difference(params: ModelParams, name: str,
                       tol: float = 1e-10) -> float:
    """d lambda0 / d theta by re-bisecting the eigenvalue at theta +- h."""
    theta = getattr(params, name)
    h = 1e-4 * max(abs(theta), 1.0)
    lam_p = dominant_eigenvalue(replace(params, **{name: theta + h}), tol)
    lam_m = dominant_eigenvalue(replace(params, **{name: theta - h}), tol)
    return (lam_p - lam_m) / (2.0 * h)


@dataclass(frozen=True)
class SensitivityReport:
    """All six derivatives of the dominant eigenvalue, with diagnostics."""

    lam: complex
    dv: np.ndarray            # 4 complex
    dR: complex
    dP: complex
    denominator: complex
    direct: EigenSolution
    adjoint: EigenSolution
    fd_check: np.ndarray | None = None   # 6 relative errors vs FD


def full_report(params: ModelParams, tol: float = 1e-10,
                fd: bool = True) -> SensitivityReport:
    """lambda0, eigenfunctions, six derivatives, optional FD validation."""
    lam0 = dominant_eigenvalue(params, tol)
    direct = eigenfunction(lam0, params)
    adjoint = adjoint_eigenfunction(lam0, params)
    den = _checked_denominator(direct, adjoint)
    dv = np.array([dlambda_dv(k, direct, adjoint, params)
                   for k in (1, 2, 3, 4)])
    dR = dlambda_dR(direct, adjoint, params)
    dP = dlambda_dP(direct, adjoint, params)
    fd_check = None
    if fd:
        analytic = list(dv) + [dR, dP]
        errs = []
        for name, a in zip(("v1", "v2", "v3", "v4", "R", "P"), analytic):
            f = central_difference(params, name, tol)
            errs.append(abs(a - f) / max(abs(a), 1e-3))
        fd_check = np.array(errs)
    return SensitivityReport(lam=complex(lam0), dv=dv, dR=dR, dP=dP,
                             denominator=den, direct=direct, adjoint=adjoint,
                             fd_check=fd_check)
