"""Direct/adjoint eigenfunctions and the nonhomogeneous steady state.

On zone i the general solution of the eigenvalue ODE system is

    c_i(x) = sum_j C_i^j phi_i^j exp(nu_i^j x),
    q_i(x) = R P sum_j C_i^j exp(nu_i^j x),

with nu, phi from charfun.zone_eigen; the adjoint problem uses the same
weights with exp(-nu x).  Imposing the eight port conditions yields an
8x8 homogeneous system M(lambda) C = 0 whose rank drops to 7 exactly at
eigenvalues; coefficients are normalized by C_1^1 = 1.

The steady state with feed strength f0 solves the same system at
lambda = 0 with the x=0 jump row carrying the feed:
v2 c(0-) + f0 = v3 c(0+), i.e. right-hand side -f0 on that row.

The pairing of two solutions (``inner_product``) is a finite sum of
exponential integrals, evaluated in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .charfun import zone_eigen
from .errors import (DegenerateNullspace, NearZeroPairing, NonFiniteDetected,
                     NotAnEigenvalue, SingularSystem, ValidationError)
from .params import PORTS, ZONE_LEFT, ModelParams, check_zone

# Singular values of the column-scaled port matrix below RANK_RTOL * sigma_max
# count as zero.  Over 800 mode solves in the whole box (v +-10%, R +-25%,
# P +-10% around the case study) sigma_8/sigma_1 <= 2.9e-12 and
# sigma_7/sigma_1 >= 1.3e-4: over three decades of margin each side.
RANK_RTOL = 1e-8

# A mode whose relative residual (``_residual``) exceeds this is refused.
# The solves of the test suite reach 8.4e-12, those at lambda0 of 700
# perfbench draws (sweep and wide box) 3.5e-12; a null vector of a port
# matrix that spans more than the double range can read 1.
RESIDUAL_BOUND = 1e-8

# Exponent below this is treated as exactly zero (the "difference of the
# nu's is zero" case); the Taylor band above it avoids cancellation.
_MU_ZERO = 1e-12
_MU_TAYLOR = 1e-8


def _zone_tables(lam, params: ModelParams):
    nus = np.empty((4, 2), dtype=complex)
    phis = np.empty((4, 2), dtype=complex)
    try:
        for i in range(4):
            ze = zone_eigen(lam, i + 1, params)
            nus[i] = (ze.nu1, ze.nu2)
            phis[i] = (ze.phi1, ze.phi2)
    except OverflowError:
        raise NonFiniteDetected(
            f"zone exponents overflow at lambda={lam}") from None
    return nus, phis


def _conditions(sign: int) -> list:
    """(port, liquid) of each row of the port-condition matrix.

    Rows go q at every port and c at the unweighted ports, both by
    upstream zone, then v c at the weighted ports (``Port.weighted``) by
    zone: the order sets the rounding of the solves.
    """
    by_up = PORTS[1:] + PORTS[:1]
    return ([(port, False) for port in by_up]
            + [(port, True) for port in by_up if not port.weighted(sign < 0)]
            + [(port, True) for port in PORTS if port.weighted(sign < 0)])


# the direct row of the feed port, whose right-hand side carries -f0
_FEED_ROW = next(r for r, (port, liquid) in enumerate(_conditions(+1))
                 if liquid and port.feed)


def _assemble(nus, phis, params: ModelParams, sign: int) -> np.ndarray:
    """8x8 port-condition matrix in the basis exp(sign nu x).

    Unknown order is zone-major: (C_1^1, C_1^2, C_2^1, ..., C_4^2).  A q
    row (without its common factor R P) is the upstream outlet value minus
    the inlet value, a c row the value left in x minus the one right in
    x.  A flipped row solves to the same numbers up to the sign of exactly
    zero imaginary parts, so the signs fix those bits.
    """
    M = np.zeros((8, 8), dtype=complex)
    for r, (port, liquid) in enumerate(_conditions(sign)):
        w_up, w_in = (port.weights(params.v, adjoint=sign < 0) if liquid
                      else (1.0, 1.0))
        s = -1.0 if liquid and port.x_up > port.x else 1.0
        for zone, x, w, side in ((port.up, port.x_up, w_up, s),
                                 (port.zone, port.x, w_in, -s)):
            i = zone - 1
            for j in range(2):
                phi = phis[i, j] if liquid else 1.0
                M[r, 2 * i + j] = (side * w * phi
                                   * np.exp(sign * nus[i, j] * x))
    return M


@dataclass(frozen=True)
class EigenSolution:
    """Coefficients of one eigen- or steady-state solution."""

    lam: complex
    kind: str                 # "direct" | "adjoint" | "steady"
    coeffs: np.ndarray        # 8 complex, zone-major
    normalization: str
    residual: float           # max |M C - rhs| / max(|M| |C|), scale-free
    params: ModelParams
    nus: np.ndarray           # (4, 2)
    phis: np.ndarray          # (4, 2)
    sign: int                 # +1 for exp(+nu x) basis, -1 adjoint

    def zone_values(self, zone: int, x) -> tuple:
        """(c, q) of this solution on points x inside zone (1..4)."""
        x = np.asarray(x, dtype=float)
        j = check_zone(zone) - 1
        ex = np.exp(self.sign * np.outer(x, self.nus[j]))
        cc = self.coeffs[2 * j:2 * j + 2]
        c = ex @ (cc * self.phis[j])
        q = self.params.R * self.params.P * (ex @ cc)
        return c, q

    def amplitudes(self, zone: int) -> tuple:
        """(c amplitudes, q amplitudes, signed rates) of zone (1..4).

        On the zone c = sum c_amp exp(rate x) and q likewise; the rates are
        +nu for the direct and steady solutions and -nu for the adjoint.
        """
        j = check_zone(zone) - 1
        cc = self.coeffs[2 * j:2 * j + 2]
        nus = self.nus[j]
        return (cc * self.phis[j], cc * (self.params.R * self.params.P),
                nus if self.sign > 0 else -nus)


def _scaled_svd(M: np.ndarray) -> tuple:
    """(singular values, Vh, column norms) of M scaled to unit columns.

    Each column is first multiplied by the power of two that brings its
    largest entry into [0.5, 1): an exact step, so the norms cannot
    overflow and the unit columns are the bits M / norm gives wherever
    that norm is finite.  A norm beyond the double range is returned as
    inf.
    """
    pow2 = np.ldexp(1.0, -np.frexp(np.abs(M).max(axis=0))[1])
    M2 = M * pow2
    norms = np.linalg.norm(M2, axis=0)
    with np.errstate(over="ignore"):
        scale = norms / pow2
    return (*np.linalg.svd(M2 / norms)[1:], scale)


def _solve_nullspace(M: np.ndarray) -> tuple:
    """Null vector of a (numerically) rank-7 matrix, scaled to C[0] = 1,
    or to unit norm when C[0] is negligible."""
    sv, Vh, scale = _scaled_svd(M)
    if sv[7] > RANK_RTOL * sv[0]:
        raise NotAnEigenvalue(
            f"smallest singular value {sv[7]:.3e} vs largest {sv[0]:.3e}; "
            "lambda is not a root at tolerance")
    if sv[6] <= RANK_RTOL * sv[0]:
        raise DegenerateNullspace(
            f"nullspace dimension >= 2 (sigma_7 = {sv[6]:.3e}, "
            f"sigma_max = {sv[0]:.3e}); refusing to pick a vector")
    null = Vh[-1].conj() / scale
    null /= np.linalg.norm(null)
    if abs(null[0]) > 1e-12:
        coeffs = null / null[0]
        coeffs[0] = 1.0     # x / x may leave a 1e-17 imaginary part
        return coeffs, "C11=1 (SVD)"
    # the SVD leaves the phase free; this one gives the limit zero mode c > 0
    big = null[np.argmax(np.abs(null))]
    return null * (abs(big) / big), "unit norm (SVD; C11 ~ 0)"


def _residual(M: np.ndarray, coeffs: np.ndarray, rhs=0.0) -> float:
    """Largest port-condition violation relative to the largest row of
    |M| |C|, the size its terms cancel from; 0 for C = 0, nan where
    either is not finite."""
    size = float(np.max(np.abs(M) @ np.abs(coeffs)))
    error = float(np.max(np.abs(M @ coeffs - rhs)))
    if not (math.isfinite(size) and math.isfinite(error)):
        return math.nan
    return error / size if size else 0.0


def _eigensolution(lam, params: ModelParams, sign: int) -> EigenSolution:
    if not cmath.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam}")
    nus, phis = _zone_tables(lam, params)
    with np.errstate(over="ignore", invalid="ignore"):
        M = _assemble(nus, phis, params, sign)
    if not np.isfinite(M).all():
        raise NonFiniteDetected(
            f"port-condition matrix overflows at lambda={lam}")
    coeffs, tag = _solve_nullspace(M)
    residual = _residual(M, coeffs)
    if not (np.isfinite(coeffs).all() and math.isfinite(residual)):
        raise NonFiniteDetected(
            f"mode coefficients or residual not finite at lambda={lam}")
    if residual > RESIDUAL_BOUND:
        raise NotAnEigenvalue(
            f"mode residual {residual:.3e} above {RESIDUAL_BOUND:.0e} at "
            f"lambda={lam}")
    return EigenSolution(lam=complex(lam),
                         kind="direct" if sign > 0 else "adjoint",
                         coeffs=coeffs, normalization=tag, residual=residual,
                         params=params, nus=nus, phis=phis, sign=sign)


def eigenfunction(lam, params: ModelParams) -> EigenSolution:
    """Direct eigenfunction at a root of Delta, normalized to C_1^1 = 1."""
    return _eigensolution(lam, params, +1)


def adjoint_eigenfunction(lam, params: ModelParams) -> EigenSolution:
    """Adjoint eigenfunction at a root of Delta, normalized to C_1^1 = 1.

    The adjoint mode that pairs with the direct mode at lambda is the one
    at conj(lambda); for a complex lambda the adjoint at lambda itself is
    orthogonal to it.
    """
    return _eigensolution(lam, params, -1)


def steady_state(params: ModelParams) -> EigenSolution:
    """Steady state driven by the feed term params.f0 at the feed port.

    Right-hand side is zero except the feed row: v2 c(0-) - v3 c(0+) = -f0.
    The system is nonsingular exactly when 0 is not an eigenvalue (strict
    port ordering).
    """
    if params.limit_case:
        raise SingularSystem(
            "equal velocities: 0 is an eigenvalue, no unique steady state")
    nus, phis = _zone_tables(0.0, params)
    M = _assemble(nus, phis, params, +1)
    sv = _scaled_svd(M)[0]
    if sv[-1] <= 1e-12 * sv[0]:
        raise SingularSystem(
            f"steady-state system singular (sigma_min/sigma_max = "
            f"{sv[-1] / sv[0]:.3e}); 0 appears to be an eigenvalue")
    rhs = np.zeros(8, dtype=complex)
    rhs[_FEED_ROW] = -params.f0
    coeffs = np.linalg.solve(M, rhs)
    return EigenSolution(lam=0.0 + 0.0j, kind="steady", coeffs=coeffs,
                         normalization=f"feed f0={params.f0}",
                         residual=_residual(M, coeffs, rhs),
                         params=params, nus=nus, phis=phis, sign=+1)


@dataclass(frozen=True)
class ProfileSamples:
    """Sampled (c, q) on [-2, 2] with one-sided samples at the ports.

    side marks port samples: 'L' left limit, 'R' right limit, '.' interior.
    """

    x: np.ndarray
    c: np.ndarray
    q: np.ndarray
    side: np.ndarray


def evaluate(sol: EigenSolution, n_per_zone: int = 101) -> ProfileSamples:
    """Sample a solution zone by zone, endpoints included in every zone."""
    if n_per_zone < 2:
        raise ValidationError(f"n_per_zone must be >= 2, got {n_per_zone}")
    xs, cs, qs, sides = [], [], [], []
    for zone in range(1, 5):
        lo = ZONE_LEFT[zone - 1]
        x = np.linspace(lo, lo + 1.0, n_per_zone)
        c, q = sol.zone_values(zone, x)
        side = np.full(x.shape, ".", dtype="<U1")
        side[0], side[-1] = "R", "L"
        xs.append(x)
        cs.append(c)
        qs.append(q)
        sides.append(side)
    return ProfileSamples(x=np.concatenate(xs), c=np.concatenate(cs),
                          q=np.concatenate(qs), side=np.concatenate(sides))


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


def zone_integral(amp_a, amp_b, rates_a, rates_b, zone: int) -> complex:
    """Integral over one zone of a conj(b), a = sum amp_a exp(rates_a x).

    b likewise; amplitudes and signed rates as ``EigenSolution.amplitudes``
    gives them, so the exponent of each pair is rate_a + conj(rate_b).
    """
    lo = ZONE_LEFT[check_zone(zone) - 1]
    total = 0.0 + 0.0j
    for j in range(2):
        for l in range(2):
            total += exp_integral(amp_a[j], amp_b[l], rates_a[j], -rates_b[l],
                                  lo, lo + 1.0)
    return complex(total)


def inner_product(a: EigenSolution, b: EigenSolution) -> complex:
    """<a, b> = integral over [-2,2] of (c_a conj(c_b) + q_a conj(q_b)).

    Closed form, zone by zone; a and b may be direct, adjoint or steady.
    """
    total = 0.0 + 0.0j
    for zone in range(1, 5):
        ca, qa, ra = a.amplitudes(zone)
        cb, qb, rb = b.amplitudes(zone)
        total += zone_integral(ca, cb, ra, rb, zone)
        total += zone_integral(qa, qb, ra, rb, zone)
    return complex(total)


def checked_pairing(direct: EigenSolution, adjoint: EigenSolution) -> complex:
    """<u, u*>, refused when it is negligible against the two norms.

    u is the direct mode at lambda and u* the adjoint mode at
    conj(lambda); the adjoint at a complex lambda itself pairs to zero
    and is refused as NearZeroPairing.
    """
    pairing = inner_product(direct, adjoint)
    scale = (abs(inner_product(direct, direct))
             * abs(inner_product(adjoint, adjoint))) ** 0.5
    if abs(pairing) <= 1e-12 * max(scale, 1e-30):
        raise NearZeroPairing(
            f"pairing <u,u*> = {pairing:.3e} negligible against norm scale "
            f"{scale:.3e}")
    return pairing


def _samples_inner_adjoint(initial: ProfileSamples,
                           adjoint: EigenSolution) -> complex:
    """<initial, adjoint> by trapezoid on the sample grid.

    The grid duplicates port abscissae (zero-width panels), so the
    one-sided samples integrate correctly.
    """
    x = initial.x
    zone = np.minimum(np.searchsorted(np.array([-1.0, 0.0, 1.0]), x,
                                      side="right") + 1, 4)
    # left-limit samples sitting at the computed zone's own left endpoint
    # belong to the zone below
    lefts = np.array(ZONE_LEFT)[zone - 1]
    zone = np.where((initial.side == "L") & (lefts == x) & (zone > 1),
                    zone - 1, zone)
    ca = np.empty_like(x, dtype=complex)
    qa = np.empty_like(x, dtype=complex)
    for z in range(1, 5):
        m = zone == z
        ca[m], qa[m] = adjoint.zone_values(z, x[m])
    return complex(np.trapezoid(initial.c * np.conj(ca)
                                + initial.q * np.conj(qa), x))


def projection_coefficient(direct: EigenSolution, adjoint: EigenSolution,
                           initial: ProfileSamples) -> complex:
    """Leading-mode coefficient of an initial profile.

    With the adjoint rescaled so <u0, u0*> = 1, returns M1 = <initial, u0*>;
    the long-time solution behaves like M1 exp(lambda0 t) u0.  For a
    complex mode at lambda, pass the adjoint at conj(lambda).
    """
    return (_samples_inner_adjoint(initial, adjoint)
            / checked_pairing(direct, adjoint))
