"""Parameter sensitivities of an eigenvalue by the adjoint method.

All six derivatives are ratios of sesquilinear forms in the direct and
adjoint eigenfunctions,

    dlambda/dtheta = N_theta(u, u*) / <u, u*>,

with every integral a finite sum of exponentials evaluated in closed form
by ``eigfun.zone_integral``.  The denominator is the pairing
<u, u*> = int c c̄* + q q̄* over [-2, 2] (``eigfun.inner_product``),
refused as ``NearZeroPairing`` when negligible.  full_report computes
it once and divides all six numerators by it; each public ``dlambda_*``
computes its own.  The numerators are

    dlambda/dv_k : boundary term (-c c̄* at the zone inlet for k odd,
                   +c c̄* at the zone exit for k even) - int_{I_k} c_x c̄*
    dlambda/dR   : -int (P c - q)(P c̄* - q̄*)
    dlambda/dP   : int R(-2P c + q) c̄* + R c q̄*

Finite-difference validation re-runs the full bracket-and-bisect
eigenvalue pipeline at perturbed parameters, so it shares nothing with
the adjoint path; full_report solves lambda0 and all twelve perturbed
sets in one lockstep call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# inner_product and exp_integral are re-exported here
from .eigfun import (EigenSolution, adjoint_eigenfunction,  # noqa: F401
                     checked_pairing, eigenfunction, exp_integral,
                     inner_product, zone_integral)
from .params import PORTS, ModelParams
from .spectrum import dominant_eigenvalue


# boundary term per velocity: (zone, port x, sign) where the zone meets a
# v-weighted port; inlets carry -, exits +
_BOUNDARY = {zone: (zone, x, sgn) for port in PORTS if port.weighted()
             for zone, x, sgn in ((port.zone, port.x, -1.0),
                                  (port.up, port.x_up, +1.0))}


def _dv_num(k: int, direct: EigenSolution, adjoint: EigenSolution) -> complex:
    """Numerator of dlambda/dv_k."""
    zone, xb, sgn = _BOUNDARY[k]
    cd, _, rd = direct.amplitudes(zone)
    ca, _, ra = adjoint.amplitudes(zone)
    cb, _ = direct.zone_values(zone, xb)
    cab, _ = adjoint.zone_values(zone, xb)
    num = sgn * complex(cb[0]) * np.conj(complex(cab[0]))
    num -= zone_integral(cd * rd, ca, rd, ra, zone)
    return num


def _dR_num(direct: EigenSolution, adjoint: EigenSolution,
            params: ModelParams) -> complex:
    """Numerator of dlambda/dR."""
    P = params.P
    num = 0.0 + 0.0j
    for zone in range(1, 5):
        cd, qd, rd = direct.amplitudes(zone)
        ca, qa, ra = adjoint.amplitudes(zone)
        num -= zone_integral(P * cd - qd, P * ca - qa, rd, ra, zone)
    return num


def _dP_num(direct: EigenSolution, adjoint: EigenSolution,
            params: ModelParams) -> complex:
    """Numerator of dlambda/dP."""
    R, P = params.R, params.P
    num = 0.0 + 0.0j
    for zone in range(1, 5):
        cd, qd, rd = direct.amplitudes(zone)
        ca, qa, ra = adjoint.amplitudes(zone)
        num += zone_integral(R * (-2.0 * P * cd + qd), ca, rd, ra, zone)
        num += zone_integral(R * cd, qa, rd, ra, zone)
    return num


def dlambda_dv(k: int, direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative of the eigenvalue with respect to the zone-k velocity."""
    return _dv_num(k, direct, adjoint) / checked_pairing(direct, adjoint)


def dlambda_dR(direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative with respect to the mass-transfer parameter R."""
    return _dR_num(direct, adjoint, params) / checked_pairing(direct, adjoint)


def dlambda_dP(direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative with respect to the partition parameter P."""
    return _dP_num(direct, adjoint, params) / checked_pairing(direct, adjoint)


# the parameters full_report differentiates, in the order of its fields
_NAMES = ("v1", "v2", "v3", "v4", "R", "P")


def _fd_pair(params: ModelParams, name: str) -> tuple:
    """(h, [params at theta + h, params at theta - h]) for ``name``."""
    theta = getattr(params, name)
    h = 1e-4 * max(abs(theta), 1.0)
    return h, [replace(params, **{name: theta + h}),
               replace(params, **{name: theta - h})]


def central_difference(params: ModelParams, name: str,
                       tol: float = 1e-10) -> float:
    """d lambda0 / d theta by re-bisecting the eigenvalue at theta +- h."""
    h, pair = _fd_pair(params, name)
    lam_p, lam_m = dominant_eigenvalue(pair, tol)
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
    """lambda0, eigenfunctions, six derivatives, optional FD validation.

    With fd, lambda0 and the twelve re-solves at theta +- h are one
    lockstep ``dominant_eigenvalue`` call; each root is the one its set
    gives alone, so the FD values are those of ``central_difference``.
    """
    if fd:
        steps, pairs = zip(*(_fd_pair(params, name) for name in _NAMES))
        lam0, *shifted = dominant_eigenvalue(
            [params, *(p for pair in pairs for p in pair)], tol)
    else:
        lam0 = dominant_eigenvalue(params, tol)
    direct = eigenfunction(lam0, params)
    adjoint = adjoint_eigenfunction(lam0, params)
    den = checked_pairing(direct, adjoint)
    dv = np.array([_dv_num(k, direct, adjoint) / den for k in (1, 2, 3, 4)])
    dR = _dR_num(direct, adjoint, params) / den
    dP = _dP_num(direct, adjoint, params) / den
    fd_check = None
    if fd:
        analytic = list(dv) + [dR, dP]
        errs = []
        for a, h, up, down in zip(analytic, steps, shifted[::2],
                                  shifted[1::2]):
            f = (up - down) / (2.0 * h)
            errs.append(abs(a - f) / max(abs(a), 1e-3))
        fd_check = np.array(errs)
    return SensitivityReport(lam=complex(lam0), dv=dv, dR=dR, dP=dP,
                             denominator=den, direct=direct, adjoint=adjoint,
                             fd_check=fd_check)
