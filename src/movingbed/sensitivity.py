"""Parameter sensitivities of an eigenvalue by the adjoint method.

All six derivatives are ratios of sesquilinear forms in the direct and
adjoint eigenfunctions,

    dlambda/dtheta = N_theta(u, u*) / <u, u*>,

with every integral a finite sum of exponentials evaluated in closed form
by ``eigfun.zone_integral``.  The denominator is the pairing
<u, u*> = int c c̄* + q q̄* over [-2, 2] (``eigfun.inner_product``),
refused as ``NearZeroPairing`` when negligible.  One pass over the
zones gives all six numerators; full_report computes the pairing once
and divides all six by it, each public ``dlambda_*`` computes its own.
The numerators are

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
from .errors import ValidationError
from .params import PORTS, ModelParams
from .spectrum import dominant_eigenvalue


# boundary term of dlambda/dv_k: (port x, sign) where zone k meets a
# v-weighted port; inlets carry -, exits +
_BOUNDARY = {zone: (x, sgn) for port in PORTS if port.weighted()
             for zone, x, sgn in ((port.zone, port.x, -1.0),
                                  (port.up, port.x_up, +1.0))}


# the parameters full_report differentiates, in the order of its fields
_NAMES = ("v1", "v2", "v3", "v4", "R", "P")


def _numerators(direct: EigenSolution, adjoint: EigenSolution,
                params: ModelParams) -> list:
    """Numerators of the six derivatives, in the order of _NAMES, from
    one pass over the zones."""
    R, P = params.R, params.P
    dv, dR, dP = [], 0.0 + 0.0j, 0.0 + 0.0j
    for zone in range(1, 5):
        cd, qd, rd = direct.amplitudes(zone)
        ca, qa, ra = adjoint.amplitudes(zone)
        xb, sgn = _BOUNDARY[zone]
        cb, _ = direct.zone_values(zone, xb)
        cab, _ = adjoint.zone_values(zone, xb)
        dv.append(sgn * complex(cb[0]) * np.conj(complex(cab[0]))
                  - zone_integral(cd * rd, ca, rd, ra, zone))
        dR -= zone_integral(P * cd - qd, P * ca - qa, rd, ra, zone)
        dP += zone_integral(R * (-2.0 * P * cd + qd), ca, rd, ra, zone)
        dP += zone_integral(R * cd, qa, rd, ra, zone)
    return [*dv, dR, dP]


def dlambda_dv(k: int, direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative of the eigenvalue with respect to the zone-k velocity;
    direct is the mode at lambda, adjoint the adjoint mode at conj(lambda).
    """
    if k not in (1, 2, 3, 4):
        raise ValidationError(f"velocity index k must be 1..4, got {k}")
    return (_numerators(direct, adjoint, params)[k - 1]
            / checked_pairing(direct, adjoint))


def dlambda_dR(direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative with respect to the mass-transfer parameter R; the
    adjoint mode is taken at conj(lambda)."""
    return (_numerators(direct, adjoint, params)[4]
            / checked_pairing(direct, adjoint))


def dlambda_dP(direct: EigenSolution, adjoint: EigenSolution,
               params: ModelParams) -> complex:
    """Derivative with respect to the partition parameter P; the adjoint
    mode is taken at conj(lambda)."""
    return (_numerators(direct, adjoint, params)[5]
            / checked_pairing(direct, adjoint))


def _fd_pair(params: ModelParams, name: str) -> tuple:
    """(h, [params at theta + h, params at theta - h]) for ``name``.

    h = 1e-4 max(|theta|, 1), cut to half the room theta has so that both
    sets are valid: the room of R and P is theta, that of a velocity its
    smallest gap to the velocity across a port.
    """
    theta = getattr(params, name)
    room = theta
    if name.startswith("v"):
        k = int(name[1])
        room = min(abs(theta - params.v[other - 1]) for port in PORTS
                   for zone, other in ((port.zone, port.up),
                                       (port.up, port.zone)) if zone == k)
    h = min(1e-4 * max(abs(theta), 1.0), 0.5 * room)
    return h, [replace(params, **{name: theta + h}),
               replace(params, **{name: theta - h})]


def central_difference(params: ModelParams, name: str,
                       tol: float = 1e-10) -> float:
    """d lambda0 / d theta by re-bisecting the eigenvalue at theta +- h;
    name is one of v1..v4, R, P."""
    if name not in _NAMES:
        raise ValidationError(
            f"name must be one of {', '.join(_NAMES)}, got {name!r}")
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

    lambda0, and with fd the twelve re-solves at theta +- h, are one
    lockstep ``dominant_eigenvalue`` call; each root is the one its set
    gives alone, so the FD values are those of ``central_difference``.
    """
    fd_sets = [_fd_pair(params, name) for name in _NAMES] if fd else []
    lam0, *shifted = dominant_eigenvalue(
        [params, *(p for _, pair in fd_sets for p in pair)], tol)
    direct = eigenfunction(lam0, params)
    adjoint = adjoint_eigenfunction(lam0, params)
    den = checked_pairing(direct, adjoint)
    analytic = [num / den for num in _numerators(direct, adjoint, params)]
    fd_check = None
    if fd:
        fd_check = np.array([
            abs(a - (up - down) / (2.0 * h)) / max(abs(a), 1e-3)
            for a, (h, _), up, down in zip(analytic, fd_sets, shifted[::2],
                                           shifted[1::2])])
    return SensitivityReport(lam=complex(lam0), dv=np.array(analytic[:4]),
                             dR=analytic[4], dP=analytic[5],
                             denominator=den, direct=direct, adjoint=adjoint,
                             fd_check=fd_check)
