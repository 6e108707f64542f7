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

The return map is evaluated over a 1-D array of lambda (real or complex)
in one numpy pass; a scalar lambda is the one-point case of the same code.
On the real axis F_i, M_i, C and Delta are real, and a call whose lambdas
are all real runs in float64 throughout (the real form of the hyperbolic
pair takes cosh/sinh or cos/sin by the sign of the discriminant); one
non-real lambda makes the call complex.
The loop product is entrywise arithmetic on the four entry arrays of the
2x2 factors, with no matmul, so Delta does not depend on the BLAS kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteDetected, ThresholdTooSmall, ValidationError
from .params import PORTS, ModelParams, check_zone

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


def _exponents(lam, v, R: float, P: float) -> tuple:
    """(alpha, beta, disc) of a zone with velocity v at lambda.

    a = alpha/v and b = sqrt(disc)/v.  Plain arithmetic, so lam and v may
    be scalars or numpy arrays that broadcast (lambdas by row, velocities
    by column).
    """
    alpha = ((v - 1.0) * lam + (v - P * P) * R) / 2.0
    beta = lam * lam + lam * R * (1.0 + P * P)
    return alpha, beta, alpha * alpha + v * beta


def zone_eigen(lam, zone: int, params: ModelParams) -> ZoneEigen:
    """Per-zone exponents nu_{1,2} and eigenvector weights phi_{1,2}.

    The branch tag reflects the sign of the discriminant alpha^2 + v*beta
    for real lambda; non-real lambda with a non-degenerate discriminant is
    tagged complex-pair.
    """
    v = params.v[check_zone(zone) - 1]
    R = params.R
    lam = complex(lam)
    alpha, beta, disc = _exponents(lam, v, R, params.P)
    a = alpha / v
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
    v = params.v[check_zone(zone) - 1]
    R, P = params.R, params.P
    lam1 = -R * (math.sqrt(v) + P) ** 2 / (v + 1.0)
    lam2 = -R * (math.sqrt(v) - P) ** 2 / (v + 1.0)
    return lam1, lam2


def _lambdas(lam) -> tuple:
    """(1-D array, was lam a scalar); refuses what Delta cannot take.

    The array is float64 when every lambda is real (a zero imaginary part
    counts as real), else complex.
    """
    arr = np.asarray(lam)
    if arr.dtype.kind not in "iufc":        # strings, None, objects
        raise ValidationError(f"lambda must be numeric, got {lam!r}")
    lams = np.atleast_1d(arr).astype(complex)
    if lams.ndim != 1 or lams.size == 0 or not np.isfinite(lams).all():
        raise ValidationError(
            f"lambda must be a finite scalar or a non-empty finite 1-D "
            f"array, got shape {arr.shape}")
    if not lams.imag.any():
        lams = lams.real.copy()
    return lams, arr.ndim == 0


def _schat_chat(disc, v) -> tuple:
    """Scaled hyperbolics of b = sqrt(disc)/v, the principal root:
    (sinh(b)/b * e^{-Re b}, cosh(b) * e^{-Re b}, Re b).

    Both stay O(1) for any b with Re(b) >= 0.  A complex disc goes via
    e^{i Im b} and e^{-2 Re b - i Im b}, so that purely real or purely
    imaginary b yields exactly real results in floating point.  A real
    disc gives b = r (disc >= 0) or b = i r (disc < 0) with
    r = sqrt(|disc|)/v, and the pair is computed in float64 as
    ((1 - e^{-2r})/(2r), (1 + e^{-2r})/2) or (sin(r)/r, cos(r)).  Each
    x * (1.0 / y) there rounds as numpy's complex x / y does, so the two
    forms agree up to the rounding of exp.  Call under np.errstate that
    ignores division by zero: b = 0 takes the series.
    """
    if np.iscomplexobj(disc):
        b = np.sqrt(disc) / v
        osc = np.exp(1j * b.imag)
        damp = np.exp(-2.0 * b.real - 1j * b.imag)
        chat = 0.5 * (osc + damp)
        shat = 0.5 * (osc - damp) / b
        size, re_b = np.abs(b), b.real
    else:
        r = np.sqrt(np.abs(disc)) * (1.0 / v)
        oscillating = disc < 0.0
        damp = np.exp(-2.0 * r)
        chat = 0.5 * (1.0 + damp)
        shat = 0.5 * (1.0 - damp)
        np.cos(r, out=chat, where=oscillating)
        np.sin(r, out=shat, where=oscillating)
        shat *= 1.0 / r
        size, re_b = r, np.where(oscillating, 0.0, r)
    small = size < _SMALL_B
    if small.any():
        # b^2 is r^2 with the sign of disc on the real axis
        b2 = b * b if np.iscomplexobj(disc) else np.copysign(r * r, disc)
        shat = np.where(small, (1.0 + b2 * (1.0 / 6.0)
                                + b2 * b2 * (1.0 / 120.0))
                        * np.exp(-re_b), shat)
    return shat, chat, re_b


def _zone_factors(lams: np.ndarray, v, R, P) -> tuple:
    """Zone matrices of zones 1..4 over a lambda array: (K, s, a) with
    M_i = e^{s_i} K_i, all in the dtype of lams.

    v, R and P come from ``_constants``.  K is (4, n, 2, 2) with O(1)
    entries; s = Re(a_i) + Re(b_i) and the half-traces a = a_i are (4, n).
    Call under np.errstate that ignores division by zero (b = 0 takes the
    series).
    """
    alpha, _, disc = _exponents(lams, v, R, P)
    a = alpha * (1.0 / v)   # rounds as numpy's complex alpha / v does
    if np.iscomplexobj(lams):
        # as in zone_eigen: an exactly zero imaginary part for real lambda
        disc.imag[:, lams.imag == 0.0] = 0.0
    shat, chat, re_b = _schat_chat(disc, v)
    if np.iscomplexobj(a) and a.imag.any():
        phase = np.exp(1j * a.imag)
        shat, chat = shat * phase, chat * phase
    phi_shat = (lams + R - a) * shat
    K = np.empty(a.shape + (2, 2), dtype=lams.dtype)
    K[..., 0, 0] = chat - phi_shat
    K[..., 0, 1] = R * P / v * shat
    K[..., 1, 0] = -(R * P) * shat
    K[..., 1, 1] = chat + phi_shat
    return K, a.real + re_b, a


# the injecting ports, whose factor D_k = diag(w_up/w_in, 1) is not I
_INJECTING = tuple(port for port in PORTS if port.injects)


def _set_row(params: ModelParams) -> tuple:
    """The constants return_map takes from one parameter set, each a plain
    float: v1..v4, R, P, log((v2 v4)/(v1 v3)) and the ratio w_up/w_in of
    each injecting port."""
    v = params.v
    return (*v, params.R, params.P, math.log(v[1] * v[3] / (v[0] * v[2])),
            *(w_up / w_in for w_up, w_in in
              (port.weights(v) for port in _INJECTING)))


def _set_table(sets) -> np.ndarray:
    """The ``_set_row`` of each parameter set in sets, one column per set:
    what return_map takes from a sequence of sets, built once for as many
    calls as need it."""
    return np.array([_set_row(p) for p in sets]).T


def _constants(params, owner, n: int) -> tuple:
    """(v, R, P, log det ratio, port ratios) for the n lambdas of a
    return_map call.

    params is one ModelParams, a sequence of them, or the ``_set_table``
    of a sequence.  One set gives its floats (v as a (4, 1) column);
    several sets give arrays gathered per lambda by owner, the index of
    each lambda's set (v is (4, n), the rest (n,), the port ratios
    (n, 1)).  Every value is its set's own float, so a lambda gets the
    same Delta either way.
    """
    table = params if isinstance(params, np.ndarray) else _set_table(
        [params] if isinstance(params, ModelParams) else params)
    sets = table.shape[-1]
    if sets == 1:
        row = table[:, 0].tolist()
        return np.array(row[:4])[:, None], *row[4:7], row[7:]
    owner = np.asarray(() if owner is None else owner)
    if (not sets or owner.shape != (n,) or owner.dtype.kind not in "iu"
            or owner.min() < 0 or owner.max() >= sets):
        raise ValidationError(
            f"owner must give each of the {n} lambdas the index of one of "
            f"the {sets} parameter sets")
    table = table[:, owner]
    return table[:4], table[4], table[5], table[6], table[7:, :, None]


def zone_matrix_scaled(lam, zone: int, params: ModelParams) -> tuple:
    """Zone matrix as (mantissa K, log_scale s) with M_i = e^{s} K.

    The mantissa entries are O(1) for any lambda; s = Re(a_i) + Re(b_i).
    K is real for real lambda, complex otherwise.
    """
    check_zone(zone)
    lams, _ = _lambdas(lam)
    v, R, P, _, _ = _constants(params, None, lams.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        K, s, _ = _zone_factors(lams, v, R, P)
    return K[zone - 1, 0], float(s[zone - 1, 0])


def zone_matrix(lam, zone: int, params: ModelParams) -> np.ndarray:
    """Plain zone matrix exp(F_i(lambda)); real-valued for real lambda.

    May overflow to inf for extreme |lambda|; use zone_matrix_scaled for
    overflow-safe work.
    """
    K, s = zone_matrix_scaled(lam, zone, params)
    with np.errstate(over="ignore"):
        return K * np.exp(np.float64(s))


def scaled_product(factors) -> tuple:
    """Multiply one or more (matrix, log_scale) factors left to right,
    renormalizing.

    Matrices are 2x2 or stacks (n, 2, 2) with log_scales of shape (n,).
    Returns (mantissa, log_scale) with each mantissa's largest entry of
    modulus 1, in the dtype of the factors.  The running product is
    carried as the four entry arrays p00, p01, p10, p11 (the rows of one
    array) and each factor is applied entrywise: a stack of 2x2 products
    through matmul would cost one BLAS call per matrix.
    """
    p = None
    scale = 0.0
    for K, s in factors:
        k00, k01, k10, k11 = (K[..., i, j] for i in (0, 1) for j in (0, 1))
        if p is None:                       # I @ K is K
            p = np.array((k00, k01, k10, k11), dtype=np.result_type(K, 1.0))
        else:
            p00, p01, p10, p11 = p
            p = np.array((p00 * k00 + p01 * k10, p00 * k01 + p01 * k11,
                          p10 * k00 + p11 * k10, p10 * k01 + p11 * k11))
        m = np.abs(p).max(axis=0)
        m = np.where(m > 0.0, m, 1.0)
        p *= 1.0 / m                        # rounds as p / m would
        scale = scale + s + np.log(m)
    prod = np.ascontiguousarray(np.moveaxis(p, 0, -1))
    return prod.reshape(m.shape + (2, 2)), scale


@dataclass(frozen=True)
class ReturnMapEval:
    """The loop return map C(lambda) in scaled form, with Delta(lambda).

    C = exp(log_scale) * mantissa.  det_log is the factor-accumulated
    logarithm of det C (exact Liouville dets per factor).  For an array of
    n lambdas the fields are arrays: lam, log_scale and det_log of shape
    (n,), the mantissa (n, 2, 2); every property is then an array over
    the same n.  When every lambda is real, lam, mantissa, det_log and
    Delta are real (float64); otherwise they are complex.
    """

    lam: float | complex
    mantissa: np.ndarray
    log_scale: float
    det_log: float | complex

    @property
    def C(self) -> np.ndarray:
        """Plain C(lambda); may overflow to inf for large scales."""
        with np.errstate(over="ignore"):
            return self.mantissa * np.exp(self.log_scale)[..., None, None]

    @property
    def trace_mantissa(self) -> complex:
        return self.mantissa[..., 0, 0] + self.mantissa[..., 1, 1]

    @property
    def trace_log(self) -> float:
        """log |trace C|; -inf where the trace vanishes."""
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(np.abs(self.trace_mantissa))

    @property
    def det_log_numeric(self) -> complex:
        """log det C from the multiplied-out mantissa, as a complex log.

        Only meaningful while |det| is not negligible against ||C||^2
        (e.g. when all zones sit on the complex-pair branch); det_log is
        the accurate representation.
        """
        m = self.mantissa
        d = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(d.astype(complex)) + 2.0 * self.log_scale

    @cached_property
    def _delta_parts(self) -> tuple:
        """(z, L) with Delta = z * e^{L}, |z| <= 3.

        Delta = trace - det - 1 is a sum of three terms m e^{s}; L is the
        largest of their log-moduli (at least 0, from the constant term),
        so each term m e^{s - L} has modulus <= 1.
        """
        t = self.trace_mantissa
        det_s = self.det_log.real
        with np.errstate(divide="ignore"):
            trace_s = self.log_scale + np.log(np.abs(t))
        lmax = np.maximum(np.maximum(trace_s, det_s), 0.0)
        det = det_s - lmax
        if np.iscomplexobj(self.det_log):
            det = det + 1j * self.det_log.imag
        z = t * np.exp(self.log_scale - lmax) - np.exp(det) - np.exp(-lmax)
        return z, lmax

    @property
    def delta(self) -> complex:
        """Plain Delta(lambda) = trace - det - 1, real for real lambda;
        may overflow to inf."""
        z, lmax = self._delta_parts
        with np.errstate(over="ignore"):
            return z * np.exp(lmax)

    @property
    def log_abs_delta(self) -> float:
        """log |Delta|; -inf where Delta is exactly zero."""
        z, lmax = self._delta_parts
        with np.errstate(divide="ignore"):
            return lmax + np.log(np.abs(z))

    @property
    def delta_sign(self):
        """Sign of Delta (-1, 0 or 1) for real lambda; None if lambda is
        non-real (for an array: if any entry is)."""
        if np.iscomplexobj(self.lam):
            return None
        z, _ = self._delta_parts
        signs = np.sign(z.real).astype(np.int8)
        return int(signs) if signs.ndim == 0 else signs


def return_map(lam, params, owner=None) -> ReturnMapEval:
    """Loop product M1 . D1 . M4 . M3 . D3 . M2 from x = -1 round the loop.

    D_k = diag(v_up/v_in, 1) carries the liquid flux across the injecting
    port at the inlet of zone k; a withdrawing port's factor is I.  lam is
    a scalar or a 1-D array; the array is evaluated in one pass and the
    fields of the result are arrays over it.  A call whose lambdas are
    all real (checked on the values, so x + 0j counts) is evaluated in
    float64 and its fields are real; any non-real lambda makes the whole
    call complex.  params is one ModelParams, or a sequence of them with
    owner an integer array giving the index of each lambda's set; each
    lambda then gets the Delta of its own set, bit for bit.  A caller
    that makes many calls on one sequence may pass its ``_set_table``
    instead, built once.  Non-numeric, non-finite or empty lam, or an
    owner that does not fit, raises ValidationError, and |lambda| so
    large that even the scaled form overflows (beyond about 1e154)
    raises NonFiniteDetected.
    """
    lams, scalar = _lambdas(lam)
    v, R, P, log_det0, ratios = _constants(params, owner, lams.size)
    with np.errstate(all="ignore"):         # non-finite results refused below
        K, s, a = _zone_factors(lams, v, R, P)
        for port, ratio in zip(_INJECTING, ratios):
            K[port.zone - 1, :, :, 0] *= ratio  # M_k D_k: D_k scales column 0
        mantissa, scale = scaled_product(
            [(K[port.zone - 1], s[port.zone - 1])
             for port in (PORTS[0], *PORTS[:0:-1])])    # zones 1, 4, 3, 2
        # det C = (v2 v4)/(v1 v3) * prod_i det M_i, det M_i = e^{2 a_i};
        # the builtin sum adds zones 1..4 in order for any n, where
        # a.sum(axis=0) would pair them (other rounding) when n = 1
        det_log = log_det0 + 2.0 * sum(a)
    if not (np.isfinite(scale).all() and np.isfinite(det_log).all()):
        raise NonFiniteDetected(
            f"Delta overflows its scaled form at |lambda| up to "
            f"{np.abs(lams).max():.3g}")
    if scalar:
        return ReturnMapEval(lam=lams[0].item(), mantissa=mantissa[0],
                             log_scale=float(scale[0]),
                             det_log=det_log[0].item())
    return ReturnMapEval(lam=lams, mantissa=mantissa, log_scale=scale,
                         det_log=det_log)


def delta(lam, params: ModelParams) -> complex:
    """Delta(lambda) = trace C - det C - 1 (plain value, real for real
    lambda)."""
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
