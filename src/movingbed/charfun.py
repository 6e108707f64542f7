"""Zone transfer matrices, the return map C(lambda), and Delta(lambda).

Each zone i carries the 2x2 system (c, q)' = F_i(lambda) (c, q) with

    F_i = [[-(lambda + P^2 R)/v_i,  R P / v_i],
           [-R P,                   lambda + R]].

Writing a_i = alpha_i/v_i for half the trace and b_i for the discriminant
root, the zone matrix is M_i = exp(F_i) = e^{a_i} (cosh(b_i) I +
sinh(b_i)/b_i * (F_i - a_i I)).  All evaluations here keep matrices in a
scaled form (mantissa, log_scale) with O(1) mantissa entries so that the
characteristic function stays computable for |lambda| far beyond the
overflow range of plain doubles; log |Delta| grows like sum(1/v_i)|lambda|
for lambda -> -inf and like 4*lambda for lambda -> +inf.

Determinants are accumulated factor-by-factor from the Liouville identity
det M_i = exp(2 a_i) (computing them from the multiplied-out product would
lose all relative accuracy whenever |det| << ||C||^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ThresholdTooSmall
from .params import PORTS, ModelParams

BRANCH_COMPLEX_PAIR = "complex-pair"
BRANCH_REPEATED = "repeated"
BRANCH_REAL_DISTINCT = "real-distinct"

# Relative tolerance classifying the discriminant as zero (repeated root).
_REPEATED_RTOL = 1e-9
# Below this |b| the sinh(b)/b ratio switches to its Taylor series.
_SMALL_B = 1e-4


@dataclass(frozen=True)
class ZoneEigen:
    """Eigenstructure of F_i(lambda) for one zone."""

    zone: int            # 1..4
    alpha: complex       # ((v_i - 1) lambda + (v_i - P^2) R) / 2
    beta: complex        # lambda^2 + lambda R (1 + P^2)
    nu1: complex         # a + b
    nu2: complex         # a - b
    phi1: complex        # lambda + R - nu1
    phi2: complex        # lambda + R - nu2
    branch: str          # one of the BRANCH_* tags
    a: complex           # alpha / v_i (half-trace of F_i)
    b: complex           # principal sqrt(a^2 + beta/v_i); Re(b) >= 0


def zone_eigen(lam, zone: int, params: ModelParams) -> ZoneEigen:
    """Per-zone exponents nu_{1,2} and eigenvector weights phi_{1,2}.

    The branch tag reflects the sign of the discriminant alpha^2 + v*beta
    for real lambda; non-real lambda with a non-degenerate discriminant is
    tagged complex-pair.
    """
    v = params.v[zone - 1]
    R, P = params.R, params.P
    lam = complex(lam)
    alpha = ((v - 1.0) * lam + (v - P * P) * R) / 2.0
    beta = lam * lam + lam * R * (1.0 + P * P)
    a = alpha / v
    disc = alpha * alpha + v * beta
    scale = max(abs(alpha) ** 2, abs(v * beta), 1.0)
    if abs(disc) <= _REPEATED_RTOL * scale:
        branch = BRANCH_REPEATED
    elif lam.imag == 0.0:
        branch = BRANCH_COMPLEX_PAIR if disc.real < 0.0 else BRANCH_REAL_DISTINCT
    else:
        branch = BRANCH_COMPLEX_PAIR
    if lam.imag == 0.0:
        # keep the imaginary part exactly zero so the principal square root
        # lands on the upper half-axis deterministically
        disc = complex(disc.real, 0.0)
    b = cmath.sqrt(disc) / v
    nu1, nu2 = a + b, a - b
    return ZoneEigen(zone=zone, alpha=alpha, beta=beta, nu1=nu1, nu2=nu2,
                     phi1=lam + R - nu1, phi2=lam + R - nu2,
                     branch=branch, a=a, b=b)


def branch_boundaries(zone: int, params: ModelParams) -> tuple:
    """Real lambdas where the zone discriminant vanishes (repeated roots).

    Returns (lam1, lam2) with lam1 <= lam2 <= 0; the discriminant is
    negative (complex pair) strictly between them.
    """
    v = params.v[zone - 1]
    R, P = params.R, params.P
    lam1 = -R * (math.sqrt(v) + P) ** 2 / (v + 1.0)
    lam2 = -R * (math.sqrt(v) - P) ** 2 / (v + 1.0)
    return lam1, lam2


def _schat_chat(b: complex) -> tuple:
    """Scaled hyperbolics: (sinh(b)/b * e^{-Re b}, cosh(b) * e^{-Re b}).

    Both stay O(1) for any b with Re(b) >= 0.  Written via e^{i Im b} and
    e^{-2 Re b - i Im b} so that purely real or purely imaginary b yields
    exactly real results in floating point.
    """
    osc = cmath.exp(1j * b.imag)
    damp = cmath.exp(-2.0 * b.real - 1j * b.imag)
    chat = 0.5 * (osc + damp)
    if abs(b) >= _SMALL_B:
        shat = 0.5 * (osc - damp) / b
    else:
        b2 = b * b
        shat = (1.0 + b2 / 6.0 + b2 * b2 / 120.0) * math.exp(-b.real)
    return shat, chat


def zone_matrix_scaled(lam, zone: int, params: ModelParams) -> tuple:
    """Zone matrix as (mantissa K, log_scale s) with M_i = e^{s} K.

    The mantissa entries are O(1) for any lambda; s = Re(a_i) + Re(b_i).
    """
    return _scaled_from_eigen(zone_eigen(lam, zone, params), lam, params)


def _scaled_from_eigen(ze: ZoneEigen, lam, params: ModelParams) -> tuple:
    lam = complex(lam)
    v = params.v[ze.zone - 1]
    R, P = params.R, params.P
    shat, chat = _schat_chat(ze.b)
    phi_a = lam + R - ze.a
    RP = R * P
    K = np.array([[chat - phi_a * shat, (RP / v) * shat],
                  [-RP * shat, chat + phi_a * shat]], dtype=complex)
    if ze.a.imag != 0.0:
        K = K * cmath.exp(1j * ze.a.imag)
    return K, ze.a.real + ze.b.real


def zone_matrix(lam, zone: int, params: ModelParams) -> np.ndarray:
    """Plain zone matrix exp(F_i(lambda)); real-valued for real lambda.

    May overflow to inf for extreme |lambda|; use zone_matrix_scaled for
    overflow-safe work.
    """
    K, s = zone_matrix_scaled(lam, zone, params)
    with np.errstate(over="ignore"):
        M = K * np.exp(np.float64(s))
    if complex(lam).imag == 0.0:
        return M.real
    return M


def scaled_product(factors) -> tuple:
    """Multiply (matrix, log_scale) factors left to right, renormalizing.

    Returns (mantissa, log_scale) with the mantissa's largest entry of
    modulus 1.
    """
    prod = np.eye(2, dtype=complex)
    scale = 0.0
    for K, s in factors:
        prod = prod @ K
        scale += s
        m = float(np.max(np.abs(prod)))
        if m > 0.0:
            prod = prod / m
            scale += math.log(m)
    return prod, scale


@dataclass(frozen=True)
class ReturnMapEval:
    """The loop return map C(lambda) in scaled form, with Delta(lambda).

    C = exp(log_scale) * mantissa.  det_log is the factor-accumulated
    complex logarithm of det C (exact Liouville dets per factor).
    """

    lam: complex
    mantissa: np.ndarray
    log_scale: float
    det_log: complex

    @property
    def C(self) -> np.ndarray:
        """Plain C(lambda); may overflow to inf for large scales."""
        with np.errstate(over="ignore"):
            return self.mantissa * np.exp(self.log_scale)

    @property
    def trace_mantissa(self) -> complex:
        return self.mantissa[0, 0] + self.mantissa[1, 1]

    @property
    def trace_log(self) -> float:
        """log |trace C|."""
        t = abs(self.trace_mantissa)
        return self.log_scale + math.log(t) if t > 0.0 else -math.inf

    @property
    def det_log_numeric(self) -> complex:
        """log det C from the multiplied-out mantissa.

        Only meaningful while |det| is not negligible against ||C||^2
        (e.g. when all zones sit on the complex-pair branch); det_log is
        the accurate representation.
        """
        d = self.mantissa[0, 0] * self.mantissa[1, 1] \
            - self.mantissa[0, 1] * self.mantissa[1, 0]
        if d == 0.0:
            return complex(-math.inf, 0.0)
        return cmath.log(d) + 2.0 * self.log_scale

    def _terms(self):
        """Delta as a sum of three scaled terms (mantissa, log_scale)."""
        return ((self.trace_mantissa, self.log_scale),
                (-cmath.exp(1j * self.det_log.imag), self.det_log.real),
                (complex(-1.0), 0.0))

    @cached_property
    def _delta_parts(self) -> tuple:
        """(z, L) with Delta = z * e^{L}, |z| <= 3."""
        terms = self._terms()
        logs = [s + math.log(abs(m)) if m != 0.0 else -math.inf
                for m, s in terms]
        lmax = max(logs)
        if lmax == -math.inf:
            return 0.0j, 0.0
        # each term is exp(log m + s - lmax); modulus <= 1 by construction
        z = sum(cmath.exp(cmath.log(m) + (s - lmax))
                for m, s in terms if m != 0.0)
        return z, lmax

    @property
    def delta(self) -> complex:
        """Plain Delta(lambda) = trace - det - 1; may overflow to inf."""
        z, lmax = self._delta_parts
        with np.errstate(over="ignore"):
            return complex(z * np.exp(lmax))

    @property
    def log_abs_delta(self) -> float:
        z, lmax = self._delta_parts
        return lmax + math.log(abs(z)) if z != 0.0 else -math.inf

    @property
    def delta_sign(self):
        """Sign of Delta for real lambda; None for non-real lambda."""
        if self.lam.imag != 0.0:
            return None
        z, _ = self._delta_parts
        return int(np.sign(z.real))


def return_map(lam, params: ModelParams) -> ReturnMapEval:
    """Loop product M1 . D1 . M4 . M3 . D3 . M2 from x = -1 round the loop.

    D_k = diag(v_up/v_in, 1) carries the liquid flux across the injecting
    port at the inlet of zone k; a withdrawing port's factor is I.
    """
    v = params.v
    zes = [zone_eigen(lam, i, params) for i in (1, 2, 3, 4)]
    factors = []
    for port in (PORTS[0], *PORTS[:0:-1]):      # zones 1, 4, 3, 2
        factors.append(_scaled_from_eigen(zes[port.zone - 1], lam, params))
        if port.injects:
            w_up, w_in = port.weights(v)
            factors.append((np.diag([w_up / w_in, 1.0]).astype(complex), 0.0))
    mantissa, scale = scaled_product(factors)
    # det C = (v2 v4)/(v1 v3) * prod_i det M_i with det M_i = e^{2 a_i}
    det_log = complex(math.log(v[1] * v[3] / (v[0] * v[2])))
    for ze in zes:
        det_log += 2.0 * ze.a
    return ReturnMapEval(lam=complex(lam), mantissa=mantissa,
                         log_scale=scale, det_log=det_log)


def delta(lam, params: ModelParams) -> complex:
    """Delta(lambda) = trace C - det C - 1 (plain complex value)."""
    return return_map(lam, params).delta


def delta_sign_log(lam, params: ModelParams) -> tuple:
    """(sign, log|Delta|) for real lambda; overflow-free bracketing form."""
    ev = return_map(lam, params)
    return ev.delta_sign, ev.log_abs_delta


def det_closed_form_log(lam, params: ModelParams) -> complex:
    """log det C from the explicit formula.

    det C = (v2 v4)/(v1 v3) * exp(lambda (4 - sum 1/v_i)
                                  + R (4 - P^2 sum 1/v_i)).
    """
    v = params.v
    s = sum(1.0 / vi for vi in v)
    return (math.log(v[1] * v[3] / (v[0] * v[2]))
            + complex(lam) * (4.0 - s) + params.R * (4.0 - params.P ** 2 * s))


def asymptotic_envelope(lam: float, params: ModelParams,
                        threshold: float = 10.0) -> float:
    """Leading-order log|Delta| for large real |lambda|.

    sum(1/v_i) * |lambda| on the left tail, 4*lambda on the right tail.
    """
    if abs(lam) < threshold:
        raise ThresholdTooSmall(
            f"|lambda| = {abs(lam)} below asymptotic threshold {threshold}")
    if lam < 0.0:
        return sum(1.0 / vi for vi in params.v) * abs(lam)
    return 4.0 * lam
