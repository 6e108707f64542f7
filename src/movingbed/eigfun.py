"""Direct/adjoint eigenfunctions and the nonhomogeneous steady state.

On zone i the general solution of the eigenvalue ODE system is

    c_i(x) = sum_j C_i^j phi_i^j exp(nu_i^j x),
    q_i(x) = R P sum_j C_i^j exp(nu_i^j x),

with nu, phi the (4, 2) tables of charfun.zone_eigen; the adjoint problem
uses the same weights with exp(-nu x).  Imposing the eight port conditions
yields an 8x8 homogeneous system M(lambda) C = 0 whose rank drops to 7
exactly at eigenvalues; coefficients are normalized by C_1^1 = 1.

The steady state with feed strength f0 solves the same system at
lambda = 0 with the x=0 jump row carrying the feed:
v2 c(0-) + f0 = v3 c(0+), i.e. right-hand side -f0 on that row.  One
solve (``_solve``) serves all three kinds: it assembles the matrix,
takes the null vector or the feed solution, and applies the same
finiteness and residual checks.  The last direct and the last adjoint
mode are kept, one each: a repeat call on the same parameter object (by
identity) at a lambda of the same bits gets a copy of it, with no solve.

The port matrix is built entry by entry from a per-sign table of its
rows (``_ENTRIES``), with each of its 16 exponentials taken once.

Sampling and pairing read a solution only through its (4, 2) amplitude
and rate tables (``EigenSolution.amplitudes``): every point value is one
``zone_values`` call over an array of zones, the one point sampler, and
a pairing sums all 16 amplitude and exponent pairs of the four zones in
the one closed form, ``zone_integrals`` over ``exp_integral``.  Its
leading axes stack pairings, so one call gives several with the bits
each gives alone: ``inner_product`` is one pairing, and
``checked_pairing`` takes <u, u*>, <u, u> and <u*, u*> from one call.
Every pairing of a direct with an adjoint mode (the sensitivities and
``projection_coefficient``) goes through ``checked_pairing``, which
refuses anything but a direct and an adjoint mode of one parameter set,
in that order.  A solution's basis sign is read from its kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .charfun import _lambdas, zone_eigen
from .errors import (DegenerateNullspace, NearZeroPairing, NonFiniteDetected,
                     NotAnEigenvalue, SingularSystem, ValidationError)
from .params import (PORTS, ZONE_LEFT, ZONES, ModelParams, check_count,
                     check_instance, check_zone)

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


# (zone index, basis index, x) at both ends of each zone: the points
# exp(sign nu x) is read at, each taken once per port matrix
_ENDS = tuple((i, j, x) for i, left in enumerate(ZONE_LEFT)
              for x in (left, left + 1.0) for j in range(2))


def _entries(sign: int) -> tuple:
    """The nonzero entries of the port-condition matrix, row by row of
    ``_conditions(sign)``, as (row, column, index into _ENDS, weight slot,
    side sign, phi slot): slot 0 holds 1.0, weight slot k holds v_k, and
    phi slot 1 + column the phi of that column."""
    entries = []
    for r, (port, liquid) in enumerate(_conditions(sign)):
        weighted = liquid and port.weighted(sign < 0)
        s = -1.0 if liquid and port.x_up > port.x else 1.0
        for zone, x, side in ((port.up, port.x_up, s),
                              (port.zone, port.x, -s)):
            for j in range(2):
                col = 2 * (zone - 1) + j
                entries.append((r, col, _ENDS.index((zone - 1, j, x)),
                                zone if weighted else 0, side,
                                1 + col if liquid else 0))
    return tuple(entries)


_ENTRIES = {sign: _entries(sign) for sign in (+1, -1)}


def _assemble(nus, phis, params: ModelParams, sign: int) -> np.ndarray:
    """8x8 port-condition matrix in the basis exp(sign nu x).

    Unknown order is zone-major: (C_1^1, C_1^2, C_2^1, ..., C_4^2).  A q
    row (without its common factor R P) is the upstream outlet value minus
    the inlet value, a c row the value left in x minus the one right in
    x; a liquid row weights its sides by v at the weighted ports
    (``Port.weights``).  A flipped row solves to the same numbers up to
    the sign of exactly zero imaginary parts, so the signs fix those
    bits.  Every entry is the numpy scalar product side * weight * phi *
    exp(sign nu x), each of the 16 exponentials taken once.
    """
    # scalar products: numpy's array loops round complex products apart
    exps = [np.exp(sign * nus[i, j] * x) for i, j, x in _ENDS]
    weights, phi = (1.0, *params.v), (1.0, *phis.flat)
    M = np.zeros((8, 8), dtype=complex)
    for r, col, end, w, side, p in _ENTRIES[sign]:
        M[r, col] = side * weights[w] * phi[p] * exps[end]
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

    @property
    def sign(self) -> int:
        """-1 for the adjoint's exp(-nu x) basis, else +1 for exp(+nu x)."""
        return -1 if self.kind == "adjoint" else +1

    def zone_values(self, zone, x) -> tuple:
        """(c, q) at points x of zone (1..4, or an integer array of zones
        that broadcasts with x), at least 1-d: the sum of the zone's two
        terms c_amp e^{rate x} of ``amplitudes``, and q likewise."""
        i = check_zone(zone) - 1
        # numpy scalars round products apart from the array loops: keep arrays
        x = np.atleast_1d(np.asarray(x, dtype=float))
        c_amp, q_amp, rates = self.amplitudes()
        # two terms written out: a sum over the size-2 axis is slower
        e1, e2 = np.exp(rates[i, 0] * x), np.exp(rates[i, 1] * x)
        return (c_amp[i, 0] * e1 + c_amp[i, 1] * e2,
                q_amp[i, 0] * e1 + q_amp[i, 1] * e2)

    def amplitudes(self) -> tuple:
        """(c amplitudes, q amplitudes, signed rates) as (4, 2) tables: on
        zone i + 1, c = sum_j c_amp[i, j] exp(rate[i, j] x) and q likewise,
        with rates +nu (direct and steady solutions) or -nu (adjoint)."""
        cc = self.coeffs.reshape(4, 2)
        return (cc * self.phis, cc * (self.params.R * self.params.P),
                self.nus if self.sign > 0 else -self.nus)


def _scaled_svd(M: np.ndarray) -> tuple:
    """(singular values, Vh, column norms) of M scaled to unit columns.

    Each column is first multiplied by the power of two that brings its
    largest entry into [0.5, 1): an exact step, so the norms cannot
    overflow and the unit columns are the bits M / norm gives wherever
    that norm is finite.  A norm beyond the double range is returned as
    inf.  A column that underflows to all zeros is refused as
    NonFiniteDetected.
    """
    largest = np.abs(M).max(axis=0)
    if not largest.all():
        raise NonFiniteDetected(
            "a column of the port-condition matrix underflows to zero")
    pow2 = np.ldexp(1.0, -np.frexp(largest)[1])
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
    with np.errstate(over="ignore"):
        null = Vh[-1].conj() / scale
    if not np.isfinite(null).all():
        raise NonFiniteDetected("null vector beyond the double range")
    # an exact power of two brings the largest real or imaginary part into
    # [0.5, 1), so the norm cannot overflow; scaling the parts, not the
    # complex numbers, keeps the sign of a zero part
    parts = null.view(float)
    np.ldexp(parts, -np.frexp(np.abs(parts).max())[1], out=parts)
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


def _solve(lam, params: ModelParams, sign: int, f0=None) -> EigenSolution:
    """The port-condition solution at lambda: the null vector, or with f0
    the solution whose feed row carries -f0; refused unless it is finite
    with a residual within RESIDUAL_BOUND."""
    nus, phis = zone_eigen(lam, params)
    with np.errstate(over="ignore", invalid="ignore"):
        M = _assemble(nus, phis, params, sign)
    if not np.isfinite(M).all():
        raise NonFiniteDetected(
            f"port-condition matrix overflows at lambda={lam}")
    if f0 is None:
        kind, rhs = "direct" if sign > 0 else "adjoint", 0.0
        coeffs, tag = _solve_nullspace(M)
    else:
        kind, tag = "steady", f"feed f0={f0}"
        sv = _scaled_svd(M)[0]
        # not RANK_RTOL: lambda = 0 is exact here, a mode's is a bisected root
        if sv[-1] <= 1e-12 * sv[0]:
            raise SingularSystem(
                f"steady-state system singular (sigma_min/sigma_max = "
                f"{sv[-1] / sv[0]:.3e}); 0 appears to be an eigenvalue")
        rhs = np.zeros(8, dtype=complex)
        rhs[_FEED_ROW] = -f0
        coeffs = np.linalg.solve(M, rhs)
    residual = _residual(M, coeffs, rhs)
    if not (np.isfinite(coeffs).all() and math.isfinite(residual)):
        raise NonFiniteDetected(
            f"{kind} coefficients or residual not finite at lambda={lam}")
    if residual > RESIDUAL_BOUND:
        raise (NotAnEigenvalue if f0 is None else SingularSystem)(
            f"{kind} residual {residual:.3e} above {RESIDUAL_BOUND:.0e} at "
            f"lambda={lam}")
    return EigenSolution(lam=complex(lam), kind=kind, coeffs=coeffs,
                         normalization=tag, residual=residual,
                         params=params, nus=nus, phis=phis)


# sign -> (params, bits of complex(lambda), mode): the last mode of each
# kind; holding params keeps its id from being reused
_last_mode = {}


def _mode(lam, params: ModelParams, sign: int) -> EigenSolution:
    """``_solve``'s mode at lam, or the last mode of this sign again where
    params is the same object and complex(lam) has the same bits (the
    sign of a zero included).  lam and params are checked first, as
    ``zone_eigen`` checks them, so a refusal does not depend on the last
    mode; the caller owns the arrays of the mode it gets."""
    _lambdas(lam, one=True)
    check_instance("params", params, ModelParams)
    z = complex(lam)
    key = z.real.hex(), z.imag.hex()
    last = _last_mode.get(sign)
    if last and last[0] is params and last[1] == key:
        sol = last[2]
    else:
        sol = _solve(lam, params, sign)
        _last_mode[sign] = params, key, sol
    return replace(sol, coeffs=sol.coeffs.copy(), nus=sol.nus.copy(),
                   phis=sol.phis.copy())


def eigenfunction(lam, params: ModelParams) -> EigenSolution:
    """Direct eigenfunction at a root of Delta, normalized to C_1^1 = 1.

    A repeat call on the same params object at a lambda of the same bits
    returns the last direct mode again (``_mode``), with no solve.
    """
    return _mode(lam, params, +1)


def adjoint_eigenfunction(lam, params: ModelParams) -> EigenSolution:
    """Adjoint eigenfunction at a root of Delta, normalized to C_1^1 = 1.

    The adjoint mode that pairs with the direct mode at lambda is the one
    at conj(lambda); for a complex lambda the adjoint at lambda itself is
    orthogonal to it.  A repeat call on the same params object at a
    lambda of the same bits returns the last adjoint mode again
    (``_mode``), with no solve.
    """
    return _mode(lam, params, -1)


def steady_state(params: ModelParams) -> EigenSolution:
    """Steady state driven by the feed term params.f0 at the feed port.

    Right-hand side is zero except the feed row: v2 c(0-) - v3 c(0+) = -f0.
    The system is nonsingular exactly when 0 is not an eigenvalue (strict
    port ordering).
    """
    if check_instance("params", params, ModelParams).limit_case:
        raise SingularSystem(
            "equal velocities: 0 is an eigenvalue, no unique steady state")
    return _solve(0.0, params, +1, params.f0)


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
    x = np.add.outer(ZONE_LEFT, np.linspace(
        0.0, 1.0, check_count("n_per_zone", n_per_zone, 2)))
    c, q = check_instance("sol", sol, EigenSolution).zone_values(ZONES, x)
    side = np.full(x.shape, ".", dtype="<U1")
    side[:, 0], side[:, -1] = "R", "L"
    return ProfileSamples(x=x.ravel(), c=c.ravel(), q=q.ravel(),
                          side=side.ravel())


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def exp_integral(D, Dstar, nu, nustar, x_lo, x_hi):
    """int_{x_lo}^{x_hi} D conj(Dstar) exp((nu - conj(nustar)) x) dx.

    Elementwise over arguments that broadcast; a call on scalars returns a
    complex.  With mu = nu - conj(nustar) and L = x_hi - x_lo this is
    amp e^{mu x_lo} expm1(mu L) / mu, or amp L where mu is exactly zero;
    numpy's complex expm1 keeps small |mu| free of cancellation.  An
    overflow is left in the result as inf or nan, without a warning.
    """
    shape = np.broadcast(D, Dstar, nu, nustar, x_lo, x_hi).shape
    # numpy scalars round products apart from the array loops: keep arrays
    D, Dstar, nu, nustar, x_lo, x_hi = np.atleast_1d(D, Dstar, nu, nustar,
                                                     x_lo, x_hi)
    amp = D * np.conj(Dstar)
    mu = nu - np.conj(nustar)
    length = x_hi - x_lo
    out = np.where(mu == 0, amp * length,
                   amp * np.exp(mu * x_lo) * np.expm1(mu * length) / mu)
    return out.reshape(shape) if shape else complex(out[0])


@np.errstate(over="ignore", invalid="ignore")
def zone_integrals(amp_a, amp_b, rates_a, rates_b) -> np.ndarray:
    """Integral over each zone of a conj(b), a = sum amp_a exp(rates_a x).

    b likewise; (..., 4, 2) tables of amplitudes and signed rates as
    ``EigenSolution.amplitudes`` gives them, so the exponent of each pair
    is rate_a + conj(rate_b).  Leading axes broadcast: returns the
    (..., 4) zone integrals of every stacked pairing from one
    ``exp_integral`` call.
    """
    amp_a, amp_b, rates_a, rates_b = map(np.asarray, (amp_a, amp_b,
                                                      rates_a, rates_b))
    lo = np.array(ZONE_LEFT)[:, None, None]
    terms = exp_integral(amp_a[..., None], amp_b[..., None, :],
                         rates_a[..., None], -rates_b[..., None, :],
                         lo, lo + 1.0)
    return terms.reshape(*terms.shape[:-3], 4, 4).sum(axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _pairings(a_tables, b_tables) -> np.ndarray:
    """<a, b> of each pair of ``EigenSolution.amplitudes`` tables, the c
    and q integrals of all pairs stacked in one ``zone_integrals`` call."""
    # (c, q) amplitudes as (n, 2, 4, 2), the rates as (n, 1, 4, 2)
    z = zone_integrals([t[:2] for t in a_tables], [t[:2] for t in b_tables],
                       [t[2:] for t in a_tables], [t[2:] for t in b_tables])
    return (z[:, 0] + z[:, 1]).sum(axis=-1)


def inner_product(a: EigenSolution, b: EigenSolution) -> complex:
    """<a, b> = integral over [-2,2] of (c_a conj(c_b) + q_a conj(q_b)).

    Closed form over all zones at once; a and b may be direct, adjoint or
    steady.  A pairing beyond the double range comes out inf or nan.
    """
    return complex(_pairings(
        [check_instance("a", a, EigenSolution).amplitudes()],
        [check_instance("b", b, EigenSolution).amplitudes()])[0])


def checked_pairing(direct: EigenSolution, adjoint: EigenSolution) -> complex:
    """<u, u*>, refused when it is negligible against the two norms.

    u is the direct mode at lambda and u* the adjoint mode at
    conj(lambda); the adjoint at a complex lambda itself pairs to zero
    and is refused as NearZeroPairing.  A pairing or norm beyond the
    double range is refused as NonFiniteDetected.  Anything but a direct
    and an adjoint mode of one parameter set, in that order, is refused
    as ValidationError; lambda is not compared, as modes at two
    eigenvalues pair to about zero.  <u, u*>, <u, u> and <u*, u*> are one
    stacked ``_pairings`` call.
    """
    kinds = (check_instance("direct", direct, EigenSolution).kind,
             check_instance("adjoint", adjoint, EigenSolution).kind)
    if kinds != ("direct", "adjoint"):
        raise ValidationError(
            f"modes of kinds {kinds} do not pair: pass a direct and an "
            "adjoint mode, in that order")
    if direct.params != adjoint.params:
        raise ValidationError(
            "the direct and adjoint modes are of different parameter sets")
    u, a = direct.amplitudes(), adjoint.amplitudes()
    pairings = _pairings([u, u, a], [a, u, a])
    pairing = complex(pairings[0])
    with np.errstate(over="ignore"):    # |z| of a finite z may overflow
        size, norm_u, norm_a = np.abs(pairings)
    # geometric mean of the norms, rooted first so that it cannot overflow
    scale = float(np.sqrt(norm_u) * np.sqrt(norm_a))
    if not (math.isfinite(size) and math.isfinite(scale)):
        raise NonFiniteDetected(
            f"pairing <u,u*> = {pairing:.3e} or its norm scale {scale:.3e} "
            "is not finite")
    if size <= 1e-12 * scale:
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
    zone = np.searchsorted(ZONE_LEFT, x, side="right")
    # a left-limit sample at a port belongs to the zone below
    zone -= (initial.side == "L") & np.isin(x, ZONE_LEFT[1:])
    ca, qa = adjoint.zone_values(zone, x)
    return complex(np.trapezoid(initial.c * np.conj(ca)
                                + initial.q * np.conj(qa), x))


def projection_coefficient(direct: EigenSolution, adjoint: EigenSolution,
                           initial: ProfileSamples) -> complex:
    """Leading-mode coefficient of an initial profile.

    With the adjoint rescaled so <u0, u0*> = 1, returns M1 = <initial, u0*>;
    the long-time solution behaves like M1 exp(lambda0 t) u0.  For a
    complex mode at lambda, pass the adjoint at conj(lambda).  The modes
    are checked by ``checked_pairing`` before initial is sampled.
    """
    den = checked_pairing(direct, adjoint)
    check_instance("initial", initial, ProfileSamples)
    return _samples_inner_adjoint(initial, adjoint) / den
