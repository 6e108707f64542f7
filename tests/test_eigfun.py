import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from movingbed import eigfun
from movingbed.charfun import (branch_boundaries, zone_eigen, zone_matrix,
                               zone_matrix_scaled)
from movingbed.eigfun import (RESIDUAL_BOUND, EigenSolution,
                              ProfileSamples, adjoint_eigenfunction,
                              checked_pairing, eigenfunction, evaluate,
                              inner_product, projection_coefficient,
                              steady_state, zone_integral)
from movingbed.errors import (MovingBedError, NearZeroPairing,
                              NonFiniteDetected, NotAnEigenvalue,
                              SingularSystem, ValidationError)
from movingbed.params import ModelParams, case_study
from movingbed.spectrum import (bracket_bound, dominant_eigenvalue,
                                limit_point, real_root_scan)

# Regression values for the dominant mode of the reference case, frozen
# from a validated run (direct solve + SVD agree, residuals < 1e-7, and
# all port conditions checked independently below).
_DIRECT_COEFFS = {
    1: +0.026142521101,
    2: +0.008778283287 + 0.021136951134j,
    4: +1.0542021367e-4,
    5: +0.017451146360,
    6: -0.032257705767 - 0.018820771138j,
}
_ADJOINT_COEFFS = {
    1: +27655.832208,
    2: +44312.209888 - 28229.885786j,
    4: +25728.540173,
    5: +62895.879602,
    6: -32732.634902 - 2145.823410j,
}


@pytest.fixture(scope="module")
def direct(cs, lam0):
    return eigenfunction(lam0, cs)


@pytest.fixture(scope="module")
def adjoint(cs, lam0):
    return adjoint_eigenfunction(lam0, cs)


def test_direct_normalization_and_residual(direct):
    assert direct.coeffs[0] == 1.0 + 0.0j
    assert direct.residual <= 1e-10
    assert direct.kind == "direct"
    assert direct.sign == +1


def test_direct_coefficients_regression(direct):
    for idx, want in _DIRECT_COEFFS.items():
        assert direct.coeffs[idx] == pytest.approx(want, rel=1e-8, abs=1e-13)
    # zones 2 and 4 carry a conjugate branch pair; a real-eigenvalue mode
    # must pair the coefficients the same way
    assert direct.coeffs[3] == pytest.approx(np.conj(direct.coeffs[2]),
                                             rel=1e-10)
    assert direct.coeffs[7] == pytest.approx(np.conj(direct.coeffs[6]),
                                             rel=1e-10)


def test_adjoint_coefficients_regression(adjoint):
    assert adjoint.coeffs[0] == 1.0 + 0.0j
    assert adjoint.sign == -1
    for idx, want in _ADJOINT_COEFFS.items():
        assert adjoint.coeffs[idx] == pytest.approx(want, rel=1e-8)


# the case study, one strict draw away from it, and two sets whose
# unscaled adjoint port matrix looked rank-deficient (sigma_7/sigma_max
# ~ 4.5e-9)
_PORT_CASES = (case_study(),
               ModelParams(1.53, 1.12, 1.43, 1.02, R=18.0 * 0.85,
                           P=1.03 * 1.05),
               replace(case_study(), P=0.93),
               replace(case_study(), R=22.0, P=1.0))


def _port_sides(sol):
    """(c, q) at both ends of every zone, keyed (zone, x), and their scale."""
    values = {(zone, x): tuple(complex(v[0]) for v in sol.zone_values(zone, x))
              for zone, lo in zip((1, 2, 3, 4), (-2.0, -1.0, 0.0, 1.0))
              for x in (lo, lo + 1.0)}
    scale = max(max(abs(c), abs(q)) for c, q in values.values())
    return values, scale


def _assert_solid_continuous(s, tol):
    # solid: continuous everywhere, including the wrap
    for lhs, rhs in (((1, -1.0), (2, -1.0)), ((2, 0.0), (3, 0.0)),
                     ((3, 1.0), (4, 1.0)), ((1, -2.0), (4, 2.0))):
        assert abs(s[lhs][1] - s[rhs][1]) <= tol


def test_direct_port_conditions():
    for p in _PORT_CASES:
        lam = dominant_eigenvalue(p, tol=1e-12)
        s, scale = _port_sides(eigenfunction(lam, p))
        c = {key: cq[0] for key, cq in s.items()}
        tol = 1e-11 * scale
        # liquid: continuous at the withdrawal ports, flux-matched at the
        # wrap and (f0 = 0) at the feed port
        assert abs(c[1, -1.0] - c[2, -1.0]) <= tol
        assert abs(c[3, 1.0] - c[4, 1.0]) <= tol
        assert abs(p.v1 * c[1, -2.0] - p.v4 * c[4, 2.0]) <= tol
        assert abs(p.v2 * c[2, 0.0] - p.v3 * c[3, 0.0]) <= tol
        _assert_solid_continuous(s, tol)


def test_adjoint_port_conditions():
    for p in _PORT_CASES:
        lam = dominant_eigenvalue(p, tol=1e-12)
        s, scale = _port_sides(adjoint_eigenfunction(lam, p))
        c = {key: cq[0] for key, cq in s.items()}
        tol = 1e-11 * scale
        # liquid, the reverse of the direct mode: c* continuous at the
        # feed port and the wrap, v c* continuous at the withdrawal ports
        assert abs(c[2, 0.0] - c[3, 0.0]) <= tol
        assert abs(c[1, -2.0] - c[4, 2.0]) <= tol
        assert abs(p.v1 * c[1, -1.0] - p.v2 * c[2, -1.0]) <= tol
        assert abs(p.v3 * c[3, 1.0] - p.v4 * c[4, 1.0]) <= tol
        _assert_solid_continuous(s, tol)


def test_not_an_eigenvalue(cs, lam0):
    with pytest.raises(NotAnEigenvalue):
        eigenfunction(lam0 + 0.1, cs)


@pytest.mark.parametrize("solve", [eigenfunction, adjoint_eigenfunction])
@pytest.mark.parametrize("lam, error", [
    (math.nan, ValidationError), (math.inf, ValidationError),
    (-math.inf, ValidationError), (complex(0.0, math.nan), ValidationError),
    (-1e10, NonFiniteDetected), (1e300, NonFiniteDetected),
    (-1e300, NonFiniteDetected), (1e160, NonFiniteDetected)])
def test_mode_solves_refuse_a_lambda_they_cannot_take(cs, solve, lam, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        with pytest.raises(error):
            solve(lam, cs)


@pytest.mark.parametrize("solve", [eigenfunction, adjoint_eigenfunction])
@pytest.mark.parametrize("lam", [200.0, 250.0, 300.0, 337.3, -200.0, -300.0,
                                 -373.25])
def test_mode_solves_at_large_lambda_refuse_or_give_a_small_residual(
        cs, solve, lam):
    # the port matrix spans more than the double range here: its column
    # norms once overflowed into a NaN mode or a DegenerateNullspace
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on the way
        try:
            sol = solve(lam, cs)
        except MovingBedError:
            return
    assert np.isfinite(sol.coeffs).all()
    assert sol.residual <= RESIDUAL_BOUND


def test_a_null_vector_that_fails_the_port_conditions_is_refused(
        cs, lam0, monkeypatch):
    for coeffs, error in ((np.ones(8, dtype=complex), NotAnEigenvalue),
                          (np.full(8, complex(math.nan, 0.0)),
                           NonFiniteDetected)):
        monkeypatch.setattr(eigfun, "_solve_nullspace",
                            lambda M: (coeffs, "stub"))
        with pytest.raises(error):
            eigenfunction(lam0, cs)


@pytest.mark.parametrize("zone", [0, -1, 5])
def test_zone_outside_1_to_4_is_refused(cs, direct, zone):
    amps = direct.amplitudes(1)
    calls = {
        "zone_eigen": lambda: zone_eigen(-0.3, zone, cs),
        "zone_matrix": lambda: zone_matrix(-0.3, zone, cs),
        "zone_matrix_scaled": lambda: zone_matrix_scaled(-0.3, zone, cs),
        "branch_boundaries": lambda: branch_boundaries(zone, cs),
        "zone_values": lambda: direct.zone_values(zone, [0.5]),
        "amplitudes": lambda: direct.amplitudes(zone),
        "zone_integral": lambda: zone_integral(amps[0], amps[0], amps[2],
                                               amps[2], zone),
    }
    for name, call in calls.items():
        with pytest.raises(ValidationError, match=f"got {zone}"):
            call()


def test_evaluate_samples(direct):
    samples = evaluate(direct, n_per_zone=11)
    assert isinstance(samples, ProfileSamples)
    assert samples.x.shape == (44,)
    assert samples.x[0] == -2.0 and samples.x[-1] == 2.0
    assert list(samples.side[:11]) == ["R"] + ["."] * 9 + ["L"]
    # port abscissae are duplicated: left limit then right limit
    assert samples.x[10] == samples.x[11] == -1.0
    assert samples.side[10] == "L" and samples.side[11] == "R"


def test_evaluate_validates(direct):
    with pytest.raises(ValidationError):
        evaluate(direct, n_per_zone=1)


def test_inner_product_conjugate_symmetry(direct, adjoint):
    ab = inner_product(direct, adjoint)
    ba = inner_product(adjoint, direct)
    assert ab == pytest.approx(np.conj(ba), rel=1e-12)
    dd = inner_product(direct, direct)
    assert dd.real > 0 and abs(dd.imag) <= 1e-12 * dd.real


def test_projection_of_mode_onto_itself(direct, adjoint):
    samples = evaluate(direct, n_per_zone=101)
    M1 = projection_coefficient(direct, adjoint, samples)
    assert M1 == pytest.approx(1.0, abs=1e-3)


def test_projection_near_zero_pairing(cs, lam0, direct):
    # modes at different eigenvalues are biorthogonal, so the pairing
    # denominator degenerates
    deep = real_root_scan(cs, (-12.7, -12.5), grid_n=100, tol=1e-12)[0]
    other = adjoint_eigenfunction(deep, cs)
    with pytest.raises(NearZeroPairing):
        projection_coefficient(direct, other, evaluate(direct))


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_complex_mode_pairs_with_the_adjoint_at_the_conjugate(lp, k):
    # the adjoint at conj(lambda) pairs with the direct mode at lambda; the
    # adjoint at a complex lambda itself is orthogonal to it
    point = limit_point(lp, k)
    for lam in (point.lambda_plus, point.lambda_minus):
        direct = eigenfunction(lam, lp)
        adjoint = adjoint_eigenfunction(lam.conjugate(), lp)
        assert 600.0 < abs(checked_pairing(direct, adjoint)) < 3000.0
        assert projection_coefficient(direct, adjoint, evaluate(direct)) \
            == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(NearZeroPairing):
            checked_pairing(direct, adjoint_eigenfunction(lam, lp))


def test_steady_state_feed_one(cs):
    from dataclasses import replace
    sol = steady_state(replace(cs, f0=1.0))
    assert sol.kind == "steady"
    assert sol.residual <= 1e-10
    samples = evaluate(sol, n_per_zone=201)
    assert np.abs(samples.c.imag).max() <= 1e-12
    assert np.abs(samples.q.imag).max() <= 1e-12
    assert samples.c.real.min() >= -1e-12
    assert samples.q.real.min() >= -1e-12
    # feed jump carries the whole source
    c20, _ = sol.zone_values(2, 0.0)
    c30, _ = sol.zone_values(3, 0.0)
    assert (cs.v3 * c30 - cs.v2 * c20) == pytest.approx(1.0, rel=1e-10)


def test_steady_state_scales_with_feed(cs):
    from dataclasses import replace
    one = steady_state(replace(cs, f0=1.0))
    two = steady_state(replace(cs, f0=2.0))
    assert np.allclose(two.coeffs, 2.0 * one.coeffs, rtol=1e-12)


def test_steady_state_limit_case_singular(lp):
    from dataclasses import replace
    with pytest.raises(SingularSystem):
        steady_state(replace(lp, f0=1.0))


def test_limit_zero_mode_is_constant(lp):
    sol = eigenfunction(0.0, lp)
    for zone, lo in ((1, -2.0), (2, -1.0), (3, 0.0), (4, 1.0)):
        x = np.linspace(lo, lo + 1.0, 9)
        c, q = sol.zone_values(zone, x)
        assert np.ptp(np.abs(c)) <= 1e-10 * np.abs(c).max()
        assert np.allclose(q / c, lp.P, atol=1e-10)


@pytest.mark.parametrize("R, P", [(25.0, 0.8), (60.0, 1.03)])
def test_steady_state_with_wide_column_norms(cs, R, P):
    # strict ports, so 0 is no eigenvalue; the unscaled matrix has
    # sigma_min/sigma_max ~ 1e-16 here, the column-scaled one ~ 5e-3
    p = replace(cs, R=R, P=P, f0=1.0)
    sol = steady_state(p)
    s, scale = _port_sides(sol)
    c = {key: cq[0] for key, cq in s.items()}
    tol = 1e-11 * max(scale, p.f0)
    assert abs(c[1, -1.0] - c[2, -1.0]) <= tol
    assert abs(c[3, 1.0] - c[4, 1.0]) <= tol
    assert abs(p.v1 * c[1, -2.0] - p.v4 * c[4, 2.0]) <= tol
    # the feed row carries the whole source
    assert abs(p.v3 * c[3, 0.0] - p.v2 * c[2, 0.0] - p.f0) <= tol
    _assert_solid_continuous(s, tol)


def test_wide_box_sweep(wide_box):
    for p in wide_box:
        lam = dominant_eigenvalue(p)
        assert -bracket_bound(p).M0 <= lam < 0.0
        for sol in (eigenfunction(lam, p), adjoint_eigenfunction(lam, p)):
            assert sol.coeffs[0] == 1.0
            assert sol.residual <= 1e-11       # relative: worst 1.7e-12
        steady = steady_state(replace(p, f0=1.0))
        assert steady.residual <= 1e-14        # relative: worst 2.1e-16


def test_residual_is_scale_free(cs):
    # the adjoint coefficients reach 2.1e8 at P = 0.93; the absolute
    # max |M C| read 5.3e-4 there, relative to max(|M| |C|) it is ~1e-13
    p = replace(cs, P=0.93)
    lam = dominant_eigenvalue(p)
    adjoint = adjoint_eigenfunction(lam, p)
    assert np.abs(adjoint.coeffs).max() > 1e8
    assert adjoint.residual <= 1e-12
    assert steady_state(replace(cs, f0=0.0)).residual == 0.0


def test_limit_zero_modes_are_positive(lp):
    # the unit-norm null vector's phase is fixed, not left to the SVD
    for sol in (eigenfunction(0.0, lp), adjoint_eigenfunction(0.0, lp)):
        assert sol.normalization == "unit norm (SVD; C11 ~ 0)"
        c, q = sol.zone_values(1, np.linspace(-2.0, -1.0, 5))
        assert np.all(c.real > 0) and np.all(q.real > 0)
