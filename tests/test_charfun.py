import cmath
import math

import numpy as np
import pytest

from movingbed.charfun import (BRANCH_COMPLEX_PAIR, BRANCH_REAL_DISTINCT,
                               BRANCH_REPEATED, asymptotic_envelope,
                               branch_boundaries, delta,
                               delta_sign_log, det_closed_form_log,
                               return_map, scaled_product, zone_eigen,
                               zone_matrix, zone_matrix_scaled)
from movingbed.errors import (NonFiniteDetected, ThresholdTooSmall,
                              ValidationError)
from oracles import expm_taylor


def zone_generator(lam, zone, params):
    """The 2x2 coefficient matrix F_i(lambda) the transfer matrix exponentiates."""
    v = params.v[zone - 1]
    R, P = params.R, params.P
    return np.array([[-(lam + P * P * R) / v, R * P / v],
                     [-R * P, lam + R]], dtype=complex)


def test_phi_product_identity(cs):
    # phi1*phi2 = R^2 P^2 / v_i at any lambda, any zone
    rng = np.random.default_rng(1)
    for _ in range(50):
        lam = complex(rng.uniform(-40, 15), rng.uniform(-10, 10))
        zone = rng.integers(1, 5)
        ze = zone_eigen(lam, int(zone), cs)
        target = cs.R ** 2 * cs.P ** 2 / cs.v[zone - 1]
        assert abs(ze.phi1 * ze.phi2 - target) <= 1e-9 * abs(target)


def test_nus_are_generator_eigenvalues(cs):
    rng = np.random.default_rng(2)
    for _ in range(30):
        lam = complex(rng.uniform(-40, 15), rng.uniform(-10, 10))
        zone = int(rng.integers(1, 5))
        ze = zone_eigen(lam, zone, cs)
        F = zone_generator(lam, zone, cs)
        for nu in (ze.nu1, ze.nu2):
            d = np.linalg.det(F - nu * np.eye(2))
            assert abs(d) <= 1e-8 * max(1.0, np.abs(F).max() ** 2)


def test_branch_boundaries_order(cs):
    for zone in range(1, 5):
        b_lo, b_hi = branch_boundaries(zone, cs)
        assert b_lo < b_hi < 0.0


def test_branch_classification(cs):
    # the discriminant is an upward parabola in lambda: complex pair
    # strictly between its two roots, real distinct outside
    for zone in range(1, 5):
        b_lo, b_hi = branch_boundaries(zone, cs)
        assert zone_eigen((b_lo + b_hi) / 2, zone, cs).branch \
            == BRANCH_COMPLEX_PAIR
        assert zone_eigen(b_lo - 5.0, zone, cs).branch == BRANCH_REAL_DISTINCT
        assert zone_eigen(b_hi + 5.0, zone, cs).branch == BRANCH_REAL_DISTINCT


def test_zone_matrix_against_taylor_expm(cs):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        zone = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            lam = complex(rng.uniform(-40, 15), rng.uniform(-8, 8))
        else:
            lam = float(rng.uniform(-40, 15))
        M = zone_matrix(lam, zone, cs)
        ref = expm_taylor(zone_generator(lam, zone, cs))
        err = np.abs(M - ref).max() / np.abs(ref).max()
        worst = max(worst, err)
    assert worst <= 1e-10


def test_zone_matrix_near_repeated_root(cs):
    # right at and just off the branch boundary (defective/near-defective)
    for zone in range(1, 5):
        for b in branch_boundaries(zone, cs):
            for off in (0.0, 1e-7, -1e-7, 1e-3, -1e-3):
                lam = b + off
                M = zone_matrix(lam, zone, cs)
                ref = expm_taylor(zone_generator(lam, zone, cs))
                assert np.abs(M - ref).max() <= 1e-10 * np.abs(ref).max()


def test_zone_matrix_real_for_real_lambda(cs):
    M = zone_matrix(-3.7, 2, cs)
    assert M.dtype == np.float64


def test_zone_matrix_conjugate_symmetry(cs):
    lam = complex(-7.3, 2.1)
    M1 = zone_matrix(lam, 3, cs)
    M2 = zone_matrix(lam.conjugate(), 3, cs)
    assert np.abs(M1.conjugate() - M2).max() == 0.0


def test_zone_matrix_scaled_consistency(cs):
    # K * e^s must equal the plain matrix where no overflow occurs
    K, s = zone_matrix_scaled(-12.0, 1, cs)
    M = zone_matrix(-12.0, 1, cs)
    assert np.abs(K * math.exp(s) - M).max() <= 1e-12 * np.abs(M).max()


def test_scaled_product_matches_plain_product():
    rng = np.random.default_rng(4)
    mats = [rng.normal(size=(2, 2)) for _ in range(6)]
    factors = [(m, 0.0) for m in mats]
    mantissa, log_scale = scaled_product(factors)
    plain = np.eye(2)
    for m in mats:
        plain = plain @ m
    assert np.abs(mantissa * math.exp(log_scale) - plain).max() \
        <= 1e-12 * np.abs(plain).max()


def _plain_rows(factors, n):
    """The product of (n, 2, 2) factors row by row, by plain 2x2 @."""
    rows = []
    for i in range(n):
        plain = np.eye(2, dtype=complex)
        for K, s in factors:
            plain = plain @ (K[i] * math.exp(s[i]))
        rows.append(plain)
    return rows


def test_scaled_product_of_a_stack_is_the_plain_product_row_by_row():
    rng = np.random.default_rng(11)
    n = 12
    zero = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    zero[[2, 7]] = 0.0             # rows whose product is zero: m = 0
    factors = [(rng.normal(size=(n, 2, 2)), rng.uniform(-3, 3, n)),
               (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)),
                rng.uniform(-3, 3, n)),
               (zero, rng.uniform(-3, 3, n)),
               (rng.normal(size=(n, 2, 2)), rng.uniform(-3, 3, n))]
    mantissa, log_scale = scaled_product(factors)
    assert mantissa.shape == (n, 2, 2) and log_scale.shape == (n,)
    assert np.isfinite(log_scale).all()
    for i, plain in enumerate(_plain_rows(factors, n)):
        got = mantissa[i] * math.exp(log_scale[i])
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()
    largest = np.abs(mantissa).max(axis=(1, 2))
    assert (largest[[2, 7]] == 0.0).all()
    # numpy's complex-by-real division is not correctly rounded, so the
    # largest entry has modulus 1 to within an ulp, not exactly
    others = np.delete(largest, [2, 7])
    assert np.abs(others - 1.0).max() <= np.finfo(float).eps


def test_scaled_product_of_one_matrix_is_one_row_of_the_stack():
    rng = np.random.default_rng(12)
    n = 8
    factors = [(rng.normal(size=(n, 2, 2)), rng.uniform(-3, 3, n))
               for _ in range(4)]
    mantissa, log_scale = scaled_product(factors)
    for i, plain in enumerate(_plain_rows(factors, n)):
        got = mantissa[i] * math.exp(log_scale[i])
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()
    assert (mantissa.imag == 0.0).all()
    assert np.abs(np.abs(mantissa).max(axis=(1, 2)) - 1.0).max() \
        <= np.finfo(float).eps
    # one 2x2 matrix in, one 2x2 mantissa and a scalar log_scale out
    one, scale = scaled_product([(K[0], s[0]) for K, s in factors])
    assert one.shape == (2, 2) and np.ndim(scale) == 0
    assert np.array_equal(one, mantissa[0]) and scale == log_scale[0]


def test_det_identity_factor_vs_closed_form(cs):
    rng = np.random.default_rng(5)
    for _ in range(40):
        lam = float(rng.uniform(-30, 10))
        ev = return_map(lam, cs)
        ref = det_closed_form_log(lam, cs)
        assert abs(ev.det_log - ref) <= 1e-10 * max(1.0, abs(ref))


def test_det_log_numeric_agrees_where_well_conditioned(cs):
    # all four zones on the complex-pair branch: the multiplied-out det
    # still carries relative accuracy there
    for lam in (-15.0, -20.0, -25.0):
        ev = return_map(lam, cs)
        ref = ev.det_log
        got = ev.det_log_numeric
        assert abs(got.real - ref.real) <= 1e-8 * max(1.0, abs(ref.real))


def test_delta_root_and_sign_change(cs, lam0):
    z_at_root = abs(return_map(lam0, cs)._delta_parts[0])
    assert z_at_root <= 1e-8
    s_lo, _ = delta_sign_log(lam0 - 1e-3, cs)
    s_hi, _ = delta_sign_log(lam0 + 1e-3, cs)
    assert s_lo * s_hi < 0


def test_delta_conjugate_symmetry(cs):
    lam = complex(-4.2, 1.3)
    d1 = delta(lam, cs)
    d2 = delta(lam.conjugate(), cs)
    assert abs(d1.conjugate() - d2) <= 1e-12 * max(1.0, abs(d1))


def test_delta_no_overflow_far_out(cs):
    for lam in (-1e4, -60.0, 60.0, 1e4):
        sign, log_abs = delta_sign_log(lam, cs)
        assert math.isfinite(log_abs)
        assert sign in (-1.0, 1.0)


def test_asymptotic_envelope(cs):
    left = asymptotic_envelope(-100.0, cs)
    right = asymptotic_envelope(100.0, cs)
    sum_inv = sum(1.0 / v for v in cs.v)
    assert left == pytest.approx(sum_inv * 100.0)
    assert right == pytest.approx(400.0)
    with pytest.raises(ThresholdTooSmall):
        asymptotic_envelope(5.0, cs)


def test_small_b_series_region(cs):
    # beta/v ~ -a^2 makes b tiny; the sinh(b)/b series path must stay
    # accurate.  Search a lambda with small |b| by bisection on the
    # discriminant near a branch boundary.
    zone = 2
    b_lo, _ = branch_boundaries(zone, cs)
    for off in (1e-10, 1e-8, 1e-6):
        lam = b_lo + off
        M = zone_matrix(lam, zone, cs)
        ref = expm_taylor(zone_generator(lam, zone, cs))
        assert np.abs(M - ref).max() <= 1e-10 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# the vector return map against a 50-digit plain-product oracle
# ---------------------------------------------------------------------------

def _oracle_lambdas(cs):
    """Real lambdas covering every zone's three branch regimes, out to
    |lambda| = 60, and complex lambdas out to the same size."""
    repeated = [b for zone in range(1, 5) for b in branch_boundaries(zone, cs)]
    complex_pair = [-0.5, -1.7, -5.0, -12.3, -20.0, -30.0]
    real_distinct = [-60.0, -45.0, 0.5, 3.0, 10.0, 30.0, 60.0]
    mixed = [-36.9, -0.1]
    non_real = [complex(-4.2, 1.3), complex(-20.0, 15.0), complex(3.0, -7.0),
                complex(-60.0, 30.0), complex(40.0, 45.0),
                complex(-0.11, 0.5)]
    return repeated + complex_pair + real_distinct + mixed, non_real


def test_return_map_matches_the_mpmath_oracle(cs):
    import mpmath
    from oracles import mp_delta
    real, non_real = _oracle_lambdas(cs)
    branches = {zone_eigen(lam, zone, cs).branch
                for lam in real for zone in range(1, 5)}
    assert branches == {BRANCH_COMPLEX_PAIR, BRANCH_REPEATED,
                        BRANCH_REAL_DISTINCT}
    ev = return_map(np.array(real), cs)
    evc = return_map(np.array(non_real), cs)
    z, _ = evc._delta_parts
    for lam, sign, log_abs, phase in [
            *zip(real, ev.delta_sign, ev.log_abs_delta, [None] * len(real)),
            *zip(non_real, [None] * len(non_real), evc.log_abs_delta,
                 np.angle(z))]:
        ref = mp_delta(lam, cs.v, cs.R, cs.P)
        ref_log = float(mpmath.log(abs(ref)))
        assert abs(log_abs - ref_log) <= 1e-12 * max(1.0, abs(ref_log)), lam
        if sign is not None:
            assert sign == int(mpmath.sign(ref.real)), lam
        else:
            assert abs(phase - float(mpmath.arg(ref))) <= 1e-12, lam


def test_vector_return_map_is_the_scalar_one_pointwise(cs):
    lams = np.linspace(-60.0, 60.0, 241)
    ev = return_map(lams, cs)
    for k in range(0, 241, 12):
        one = return_map(float(lams[k]), cs)
        assert one.delta_sign == ev.delta_sign[k]
        assert one.log_abs_delta == ev.log_abs_delta[k]
        assert one.det_log == ev.det_log[k]
        assert np.array_equal(one.mantissa, ev.mantissa[k])
    assert ev.mantissa.shape == (241, 2, 2)
    assert return_map(np.array([-4.2 + 1.3j, -1.0]), cs).delta_sign is None


def test_return_map_of_several_sets_is_each_set_alone(cs, wide_box):
    # every lambda gets the fields its own set gives it, bit for bit
    sets = [cs, *wide_box[:5]]
    rng = np.random.default_rng(3)
    lams = rng.uniform(-60.0, 60.0, 300)
    lams = np.concatenate([lams, lams + 1j * rng.uniform(-30.0, 30.0, 300)])
    owner = rng.integers(0, len(sets), lams.size)
    ev = return_map(lams, sets, owner)
    for i, p in enumerate(sets):
        one = return_map(lams[owner == i], p)
        assert np.array_equal(one.mantissa, ev.mantissa[owner == i])
        assert np.array_equal(one.log_scale, ev.log_scale[owner == i])
        assert np.array_equal(one.det_log, ev.det_log[owner == i])


def test_real_lambdas_take_the_float_path_and_match_the_complex_one(
        cs, wide_box):
    # one appended non-real point makes the whole call complex; on the
    # real points the two paths differ only by the rounding of exp
    lams = np.concatenate([np.linspace(-300.0, 300.0, 1201),
                           -np.geomspace(10.0, 1e-12, 200)])
    n = lams.size
    for p in (cs, *wide_box[:5]):
        ev = return_map(lams, p)
        mixed = return_map(np.append(lams, complex(-1.0, 0.5)), p)
        assert ev.lam.dtype == ev.mantissa.dtype == np.float64
        assert ev.det_log.dtype == ev.delta.dtype == np.float64
        assert mixed.mantissa.dtype == mixed.det_log.dtype == complex
        assert mixed.delta_sign is None
        for got, ref in ((ev.log_scale, mixed.log_scale[:n]),
                         (ev.det_log, mixed.det_log[:n].real)):
            assert (np.abs(got - ref)
                    <= 1e-12 * np.maximum(np.abs(ref), 1.0)).all()
        assert (mixed.det_log[:n].imag == 0.0).all()
        z, _ = ev._delta_parts
        zm = mixed._delta_parts[0][:n]
        # each of z's three terms has modulus <= 1
        assert np.abs(z - zm).max() <= 1e-12
        clear = np.abs(z) > 1e-12
        assert (np.sign(z[clear]) == np.sign(zm[clear].real)).all()
    # a zero imaginary part counts as real, for arrays and scalars
    assert return_map(lams + 0j, cs).mantissa.dtype == np.float64
    one = return_map(complex(-0.5, 0.0), cs)
    assert isinstance(one.lam, float) and isinstance(one.det_log, float)
    assert isinstance(delta(-0.5, cs), float)
    assert zone_matrix_scaled(-0.5, 2, cs)[0].dtype == np.float64
    assert zone_matrix_scaled(complex(-0.5, 0.1), 2, cs)[0].dtype == complex


@pytest.mark.parametrize("owner", [None, [0, 1], [0, 1, 2], [0.0, 1.0, 0.0],
                                   [0, -1, 1]])
def test_return_map_refuses_an_owner_that_does_not_fit(cs, owner):
    with pytest.raises(ValidationError):
        return_map([-1.0, -0.5, -0.2], [cs, cs], owner)
    with pytest.raises(ValidationError):
        return_map([-1.0], [], [0])


@pytest.mark.parametrize("lam", [math.nan, math.inf, [], [-1.0, math.nan],
                                 [[-1.0, -2.0]]])
def test_return_map_refuses_non_finite_or_empty_lambda(cs, lam):
    with pytest.raises(ValidationError):
        return_map(lam, cs)


def test_return_map_refuses_lambda_beyond_the_scaled_form(cs):
    assert math.isfinite(return_map(-1e153, cs).log_abs_delta)
    with pytest.raises(NonFiniteDetected):
        return_map(np.array([-1.0, 1e155]), cs)
