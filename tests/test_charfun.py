import cmath
import hashlib
import math

import numpy as np
import pytest

from movingbed import sensitivity
from movingbed.charfun import (_row_product, asymptotic_envelope,
                               branch_boundaries, delta_sign_log,
                               det_closed_form_log, return_map, zone_eigen,
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
    target = cs.R ** 2 * cs.P ** 2 / np.array(cs.v)
    for _ in range(50):
        lam = complex(rng.uniform(-40, 15), rng.uniform(-10, 10))
        nus, phis = zone_eigen(lam, cs)
        assert nus.shape == phis.shape == (4, 2)
        assert (np.abs(phis.prod(axis=1) - target) <= 1e-9 * target).all()


def test_nus_are_generator_eigenvalues(cs):
    rng = np.random.default_rng(2)
    for _ in range(30):
        lam = complex(rng.uniform(-40, 15), rng.uniform(-10, 10))
        nus, _ = zone_eigen(lam, cs)
        for zone in range(1, 5):
            F = zone_generator(lam, zone, cs)
            for nu in nus[zone - 1]:
                d = np.linalg.det(F - nu * np.eye(2))
                assert abs(d) <= 1e-8 * max(1.0, np.abs(F).max() ** 2)


def test_branch_boundaries_order(cs):
    for zone in range(1, 5):
        b_lo, b_hi = branch_boundaries(zone, cs)
        assert b_lo < b_hi < 0.0


def test_branch_classification(cs):
    # the discriminant is an upward parabola in lambda: a complex-conjugate
    # pair of exponents strictly between its two roots, two distinct real
    # exponents outside
    for zone in range(1, 5):
        b_lo, b_hi = branch_boundaries(zone, cs)
        nu1, nu2 = zone_eigen((b_lo + b_hi) / 2, cs)[0][zone - 1]
        assert nu1.imag > 0.0 and nu1 == nu2.conjugate()
        for lam in (b_lo - 5.0, b_hi + 5.0):
            nu1, nu2 = zone_eigen(lam, cs)[0][zone - 1]
            assert nu1.imag == nu2.imag == 0.0 and nu1.real > nu2.real


@pytest.mark.parametrize("lam, error", [
    (None, ValidationError), ("x", ValidationError), ([-1.0], ValidationError),
    (math.nan, ValidationError), (math.inf, ValidationError),
    (complex(-1.0, math.nan), ValidationError),
    pytest.param(2 ** 2000, ValidationError, id="2**2000"),
    pytest.param(-(10 ** 400), ValidationError, id="-10**400"),
    (1e200, NonFiniteDetected), (complex(-1e160, 1e160), NonFiniteDetected)])
def test_zone_eigen_refuses_a_lambda_it_cannot_take(cs, lam, error):
    # None raised TypeError, "x" ValueError, 1e200 and the ints beyond the
    # double range OverflowError; inf and nan gave nan exponents without
    # an error.  The message abbreviates the value: for 2**2000 it held
    # all 603 digits.
    with pytest.raises(error) as info:
        zone_eigen(lam, cs)
    assert len(str(info.value)) < 200


def _zone_matrix_2(lam, params):
    return zone_matrix(lam, 2, params)


def _zone_matrix_scaled_2(lam, params):
    return zone_matrix_scaled(lam, 2, params)


@pytest.mark.parametrize("call", [det_closed_form_log, asymptotic_envelope,
                                  _zone_matrix_2, _zone_matrix_scaled_2])
@pytest.mark.parametrize("lam", [
    None, "x", math.nan, math.inf, -math.inf,
    pytest.param(2 ** 2000, id="2**2000"),
    pytest.param(10 ** 400, id="10**400"), [-1.0, -5.0]])
def test_scalar_lambda_entry_points_refuse_a_non_finite_lambda(cs, call, lam):
    # None raised TypeError, nan returned nan and the envelope gave inf at
    # inf; the ints beyond the double range raised OverflowError, and the
    # zone matrices took the first of two lambdas without an error
    with pytest.raises(ValidationError):
        call(lam, cs)


def test_asymptotic_envelope_refuses_a_non_real_lambda(cs):
    # a comparison of the complex lambda raised TypeError
    with pytest.raises(ValidationError, match="real"):
        asymptotic_envelope(complex(-20.0, 1.0), cs)
    assert asymptotic_envelope(complex(-20.0, 0.0), cs) \
        == asymptotic_envelope(-20.0, cs)


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


def test_row_product_matches_plain_product():
    rng = np.random.default_rng(4)
    mats = [rng.normal(size=(2, 2)) for _ in range(6)]
    # a single 2x2 matrix is entry-major as it stands
    mantissa, log_scale = _row_product([(m, 0.0) for m in mats])
    plain = np.eye(2)
    for m in mats:
        plain = plain @ m
    assert np.abs(mantissa * math.exp(log_scale) - plain).max() \
        <= 1e-12 * np.abs(plain).max()


def _plain_rows(factors, n):
    """The product of entry-major (2, 2, n) factors for each of the n
    stack entries, by plain 2x2 @."""
    rows = []
    for i in range(n):
        plain = np.eye(2, dtype=complex)
        for K, s in factors:
            plain = plain @ (K[:, :, i] * math.exp(s[i]))
        rows.append(plain)
    return rows


def test_row_product_of_a_stack_is_the_plain_product_row_by_row():
    rng = np.random.default_rng(11)
    n = 12
    zero = rng.normal(size=(2, 2, n)) + 1j * rng.normal(size=(2, 2, n))
    zero[:, :, [2, 7]] = 0.0       # entries whose product is zero: m = 0
    factors = [(rng.normal(size=(2, 2, n)), rng.uniform(-3, 3, n)),
               (rng.normal(size=(2, 2, n)) + 1j * rng.normal(size=(2, 2, n)),
                rng.uniform(-3, 3, n)),
               (zero, rng.uniform(-3, 3, n)),
               (rng.normal(size=(2, 2, n)), rng.uniform(-3, 3, n))]
    mantissa, log_scale = _row_product(factors)
    assert mantissa.shape == (2, 2, n) and log_scale.shape == (n,)
    assert np.isfinite(log_scale).all()
    for i, plain in enumerate(_plain_rows(factors, n)):
        got = mantissa[:, :, i] * math.exp(log_scale[i])
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()
    largest = np.abs(mantissa).max(axis=(0, 1))
    assert (largest[[2, 7]] == 0.0).all()
    # numpy's complex-by-real division is not correctly rounded, so the
    # largest entry has modulus 1 to within an ulp, not exactly
    others = np.delete(largest, [2, 7])
    assert np.abs(others - 1.0).max() <= np.finfo(float).eps


def test_row_product_of_one_matrix_is_one_entry_of_the_stack():
    rng = np.random.default_rng(12)
    n = 8
    factors = [(rng.normal(size=(2, 2, n)), rng.uniform(-3, 3, n))
               for _ in range(4)]
    mantissa, log_scale = _row_product(factors)
    for i, plain in enumerate(_plain_rows(factors, n)):
        got = mantissa[:, :, i] * math.exp(log_scale[i])
        assert np.abs(got - plain).max() <= 1e-14 * np.abs(plain).max()
    assert (mantissa.imag == 0.0).all()
    assert np.abs(np.abs(mantissa).max(axis=(0, 1)) - 1.0).max() \
        <= np.finfo(float).eps
    # one 2x2 matrix in, one 2x2 mantissa and a scalar log_scale out
    one, scale = _row_product([(K[:, :, 0], s[0]) for K, s in factors])
    assert one.shape == (2, 2) and np.ndim(scale) == 0
    assert np.array_equal(one, mantissa[:, :, 0]) and scale == log_scale[0]


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
    d1 = return_map(lam, cs).delta
    d2 = return_map(lam.conjugate(), cs).delta
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
    # every zone's three regimes: a boundary, between, outside
    regimes = {(lam in bounds, bounds[0] < lam < bounds[1])
               for lam in real for bounds in
               (branch_boundaries(zone, cs) for zone in range(1, 5))}
    assert regimes == {(True, False), (False, True), (False, False)}
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
    assert isinstance(return_map(-0.5, cs).delta, float)
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
                                 [[-1.0, -2.0]], "x", None,
                                 pytest.param(2 ** 2000, id="2**2000"),
                                 pytest.param([-1.0, -(10 ** 400)],
                                              id="-10**400-in-a-list")])
def test_return_map_refuses_non_finite_or_empty_lambda(cs, lam):
    with pytest.raises(ValidationError):
        return_map(lam, cs)


@pytest.mark.parametrize("sets, owner, index", [
    (None, None, 0), ([None], None, 0), ("ab", [0], 0), (5, None, 0)])
def test_return_map_refuses_a_set_that_is_not_a_model_params(cs, sets,
                                                             owner, index):
    # None raised TypeError, a None among the sets AttributeError
    with pytest.raises(ValidationError,
                       match=rf"^not a ModelParams: .* \(set {index}\)$"):
        return_map(-0.5, sets, owner)
    with pytest.raises(ValidationError, match=r"\(set 1\)$"):
        return_map(-0.5, [cs, sets], [0])


def test_return_map_refuses_lambda_beyond_the_scaled_form(cs):
    assert math.isfinite(return_map(-1e153, cs).log_abs_delta)
    with pytest.raises(NonFiniteDetected):
        return_map(np.array([-1.0, 1e155]), cs)


# ---------------------------------------------------------------------------
# return_map's output bits and the contract of its lambda input
# ---------------------------------------------------------------------------

def _pinned_inputs():
    rng = np.random.default_rng(22)
    return {
        "scalar": -0.11,
        "geometric": -np.geomspace(40.0, 1e-6, 200),
        "real": np.linspace(-80.0, 80.0, 50),
        "complex": (rng.uniform(-60.0, 20.0, 30)
                    + 1j * rng.uniform(-30.0, 30.0, 30)),
        "mixed": np.array([-2.5 + 0j, -1.0 + 0.75j, 4.0 - 3.0j, -0.11]),
    }


def _digest(ev) -> str:
    """sha256 over the dtype, shape and bytes of mantissa, log_scale,
    det_log and delta."""
    h = hashlib.sha256()
    for field in (ev.mantissa, ev.log_scale, ev.det_log, ev.delta):
        a = np.asarray(field)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of return_map's fields for the case study (0) and two strict
# draws of the wide box (1, 2) over each input of _pinned_inputs, and for
# 39 lambdas shared out over the 13 sets of full_report's FD batch.  Any
# change to Delta's arithmetic or to the order of its roundings shows
# here.  numpy's exp, sin and cos may round differently on another CPU or
# numpy build; these are numpy 2.4.6 on x86-64.
_PINNED_DIGESTS = {
    "0-scalar":
        "f26d034da94ef3bb2e3f76f19d241b00811ee91b0e42bd2038d5faaed4d104b3",
    "0-geometric":
        "22c2083172c1d8ea10333cf0f0ad71e7eb3eadc0bdcd35311e3a4f94667d5608",
    "0-real":
        "2cd643714b83f2c34e4aa83516e00a24b280b342ccfaec5139d36b6d2cbbab98",
    "0-complex":
        "9521a6e02cefe179a7deeb4b9a732bf135b4542808d22bde2787a799d08abc65",
    "0-mixed":
        "77e6754bb3c69f1dda0f9084541dbb4a8d3a7019c4ddc31c1b5c4e1b702862dd",
    "1-scalar":
        "95e9845a54a0d436d1c0ed814c0d8ebdec6e3da0c3942985eb4a243ce724c5b8",
    "1-geometric":
        "904b15a80ab57c22211cf4b31fbf40cec3d3c8bf0ec0556f0e778d8b1fd9dcc8",
    "1-real":
        "7b495768992775952460d309013893c904578d1c6f8d6ce230f068ec3065433e",
    "1-complex":
        "327567ed88edd7b28239cf44e99c5f5c0d0c4f4d74e11ed458023c40fbc15880",
    "1-mixed":
        "35f22eaf8cda9266019910e984dd3442ca8a44746b92a3ec2d6bf05b1ceaff36",
    "2-scalar":
        "073373404c763311b7d50e3b0bacf668b7caf88f005731c49b765a061866a1e6",
    "2-geometric":
        "5992528f5187aff5efaef70819e15431de5f38ac02212f5c7fd38f614024cecf",
    "2-real":
        "5e19dd28a38f7924ab3776ea21fda417ccc526ea096a0cedb17381cf68455def",
    "2-complex":
        "def2d525f1b8d7e1164b86b2cd94ad304ca18583451d377063d7de95df1263a6",
    "2-mixed":
        "69aa225b548472983564b573655dfc2121c72229fa2d7a46fae6bbdffe208cfd",
    "fd-batch":
        "e7752de4ebe7ae491a0d75d538c5473e98f32a45be9c7c90fa292513f277f5f1",
}


def test_return_map_bits_are_pinned(cs, wide_box):
    got = {f"{i}-{name}": _digest(return_map(lam, p))
           for i, p in enumerate([cs, *wide_box[:2]])
           for name, lam in _pinned_inputs().items()}
    batch = [cs, *(q for name in sensitivity._NAMES
                   for q in sensitivity._fd_pair(cs, name)[1])]
    got["fd-batch"] = _digest(return_map(np.linspace(-3.0, -0.01, 39),
                                         batch, np.arange(39) % 13))
    assert got == _PINNED_DIGESTS


def _shapes(ev) -> tuple:
    """(type, dtype, shape) of lam, mantissa, log_scale, det_log, delta."""
    return tuple((type(f).__name__, np.asarray(f).dtype.name, np.shape(f))
                 for f in (ev.lam, ev.mantissa, ev.log_scale, ev.det_log,
                           ev.delta))


_REAL_ARRAY = (("ndarray", "float64", (2,)),
               ("ndarray", "float64", (2, 2, 2)),
               ("ndarray", "float64", (2,)), ("ndarray", "float64", (2,)),
               ("ndarray", "float64", (2,)))
_REAL_SCALAR = (("float", "float64", ()), ("ndarray", "float64", (2, 2)),
                ("float", "float64", ()), ("float", "float64", ()),
                ("float64", "float64", ()))


@pytest.mark.parametrize("lam, fields, same_as", [
    (np.array([-3, 2]), _REAL_ARRAY, [-3.0, 2.0]),
    (np.array([-0.5, 2.25], dtype=np.float32), _REAL_ARRAY, [-0.5, 2.25]),
    (np.array([-0.5, 2.25]) + 0j, _REAL_ARRAY, [-0.5, 2.25]),
    (np.array(-0.5), _REAL_SCALAR, -0.5),
    (np.array(-0.5 + 0j), _REAL_SCALAR, -0.5),
    (np.float32(-0.5), _REAL_SCALAR, -0.5),
    (-2, _REAL_SCALAR, -2.0),
    (-0.0, _REAL_SCALAR, 0.0),
    (np.array([-0.0, 0.0]), _REAL_ARRAY, [0.0, 0.0])],
    ids=["int", "float32", "complex-zero-imag", "0-d", "0-d-complex",
         "float32-scalar", "int-scalar", "minus-zero", "minus-zero-array"])
def test_lambda_input_keeps_its_contract(cs, lam, fields, same_as):
    # every real input takes the float64 path: the fields have the types
    # and shapes of a float64 call, and the same bits
    ev = return_map(lam, cs)
    assert _shapes(ev) == fields
    assert _digest(ev) == _digest(return_map(same_as, cs))
    assert np.array_equal(np.signbit(ev.lam), np.signbit(np.real(lam)))
    if isinstance(lam, np.ndarray) and lam.ndim:
        assert not np.shares_memory(ev.lam, lam)


@pytest.mark.parametrize("lam", [
    np.array([]), np.array([], dtype=int), np.array([-1.0, np.inf]),
    np.array([np.nan], dtype=np.float32), np.array(-np.inf),
    np.array([-1.0 + 0j, complex(0.0, np.nan)]), complex(np.inf, 0.0)])
def test_lambda_input_refuses_non_finite_or_empty(cs, lam):
    with pytest.raises(ValidationError):
        return_map(lam, cs)
