"""Parameter sensitivities of an eigenvalue by the adjoint method.

All six derivatives are ratios of sesquilinear forms in the direct and
adjoint eigenfunctions,

    dlambda/dtheta = N_theta(u, u*) / <u, u*>,

with every integral a finite sum of exponentials evaluated in closed form
by ``eigfun.zone_integrals``.  The denominator is the pairing
<u, u*> = int c c̄* + q q̄* over [-2, 2] (``eigfun.inner_product``),
refused as ``NearZeroPairing`` when negligible.  Array expressions on the
two modes' amplitude tables give all six numerators; ``sensitivities``
computes the pairing once and divides all six by it.  The numerators are

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

# inner_product is bound here, unused, because the benchmark's tracer
# test (perfbench/tests/test_perfbench.py::
# test_wrappers_cover_every_binding_and_come_off) reads it by name
from .eigfun import (EigenSolution, adjoint_eigenfunction,  # noqa: F401
                     checked_pairing, eigenfunction, inner_product,
                     zone_integrals)
from .errors import ValidationError
from .params import PORTS, ZONES, ModelParams
from .spectrum import dominant_eigenvalue


# boundary term of dlambda/dv_k: (port x, sign) where zone k meets a
# v-weighted port; inlets carry -, exits +
_BOUNDARY = {zone: (x, sgn) for port in PORTS if port.weighted()
             for zone, x, sgn in ((port.zone, port.x, -1.0),
                                  (port.up, port.x_up, +1.0))}
_BOUNDARY_X, _BOUNDARY_SIGN = np.array([_BOUNDARY[k] for k in range(1, 5)]).T


# the parameters full_report differentiates, in the order of its fields
_NAMES = ("v1", "v2", "v3", "v4", "R", "P")


def _numerators(direct: EigenSolution, adjoint: EigenSolution,
                params: ModelParams) -> list:
    """Numerators of the six derivatives, in the order of _NAMES, from
    the two modes' (4, 2) amplitude tables."""
    R, P = params.R, params.P
    cd, qd, rd = direct.amplitudes()
    ca, qa, ra = adjoint.amplitudes()
    # c of each zone at its v-weighted port
    cb = direct.zone_values(ZONES[:, 0], _BOUNDARY_X)[0]
    cab = adjoint.zone_values(ZONES[:, 0], _BOUNDARY_X)[0]
    dv = _BOUNDARY_SIGN * cb * np.conj(cab) - zone_integrals(cd * rd, ca,
                                                            rd, ra)
    dR = -zone_integrals(P * cd - qd, P * ca - qa, rd, ra).sum()
    dP = (zone_integrals(R * (-2.0 * P * cd + qd), ca, rd, ra)
          + zone_integrals(R * cd, qa, rd, ra)).sum()
    return [*dv, complex(dR), complex(dP)]


@dataclass(frozen=True)
class SensitivityReport:
    """All six derivatives of an eigenvalue, with diagnostics; fd_check is
    set by ``full_report`` with fd."""

    lam: complex
    dv: np.ndarray            # 4 complex
    dR: complex
    dP: complex
    denominator: complex
    direct: EigenSolution
    adjoint: EigenSolution
    fd_check: np.ndarray | None = None   # 6 relative errors vs FD


def sensitivities(direct: EigenSolution, adjoint: EigenSolution,
                  params: ModelParams) -> SensitivityReport:
    """The six derivatives of the eigenvalue of direct, the mode at
    lambda; adjoint is the adjoint mode at conj(lambda).  One checked
    pairing divides all six numerators; fd_check is None."""
    den = checked_pairing(direct, adjoint)
    analytic = [num / den for num in _numerators(direct, adjoint, params)]
    return SensitivityReport(lam=direct.lam, dv=np.array(analytic[:4]),
                             dR=analytic[4], dP=analytic[5],
                             denominator=den, direct=direct, adjoint=adjoint)


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
    rep = sensitivities(eigenfunction(lam0, params),
                        adjoint_eigenfunction(lam0, params), params)
    if not fd:
        return rep
    analytic = [*rep.dv, rep.dR, rep.dP]
    return replace(rep, fd_check=np.array([
        abs(a - (up - down) / (2.0 * h)) / max(abs(a), 1e-3)
        for a, (h, _), up, down in zip(analytic, fd_sets, shifted[::2],
                                       shifted[1::2])]))
