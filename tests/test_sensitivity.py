import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from movingbed import eigfun
from movingbed.eigfun import adjoint_eigenfunction, eigenfunction
from movingbed.errors import (MovingBedError, ValidationError,
                              ZeroDenominator)
from movingbed.params import ModelParams, case_study, limit_params
from movingbed.sensitivity import (SensitivityReport, central_difference,
                                   dlambda_dP, dlambda_dR, dlambda_dv,
                                   exp_integral, full_report, inner_product)
from movingbed.spectrum import dominant_eigenvalue, real_root_scan

from oracles import central_diff, gl64

# Frozen from a validated run: every value agrees with independent central
# differences of the re-bisected eigenvalue to ~1e-5 relative.
_TRUE = {
    "v1": -0.080914671,
    "v2": +0.088589254,
    "v3": -0.128770786,
    "v4": +0.255118935,
    "R": +0.000754081,
    "P": -0.205294932,
}


# ---------------------------------------------------------------------------
# closed-form exponential integrals vs quadrature
# ---------------------------------------------------------------------------

def _oracle(D, Dstar, nu, nustar, lo, hi):
    mu = nu - np.conj(nustar)
    return gl64(lambda x: D * np.conj(Dstar) * np.exp(mu * x), lo, hi)


def test_exp_integral_random_exponents():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        D = complex(*rng.normal(size=2))
        Ds = complex(*rng.normal(size=2))
        nu = complex(*rng.normal(scale=3.0, size=2))
        ns = complex(*rng.normal(scale=3.0, size=2))
        lo = rng.uniform(-2.0, 1.0)
        got = exp_integral(D, Ds, nu, ns, lo, lo + 1.0)
        ref = _oracle(D, Ds, nu, ns, lo, lo + 1.0)
        scale = max(abs(ref), abs(D * np.conj(Ds)))
        worst = max(worst, abs(got - ref) / scale)
    assert worst <= 1e-12


@pytest.mark.parametrize("mu", [0.0, 1e-13, -1e-13 + 1e-14j,
                                1e-9, 1e-9 + 1e-9j, -3e-9])
def test_exp_integral_small_exponent_branches(mu):
    # mu below the series thresholds: compare against the quadrature of the
    # nearly-constant integrand
    D, Ds = 1.3 - 0.4j, 0.7 + 0.2j
    got = exp_integral(D, Ds, mu, 0.0, -1.0, 0.0)
    ref = _oracle(D, Ds, mu, 0.0, -1.0, 0.0)
    assert got == pytest.approx(ref, rel=1e-13)


def test_exp_integral_exact_constant():
    # the exponents cancel (mu = nu - conj(nustar) = 0): integral is
    # amplitude * length
    assert exp_integral(2.0, 1.0, 1.5j, -1.5j, 0.0, 1.0) == pytest.approx(2.0)
    assert exp_integral(2.0, 1.0, 0.7, 0.7, -1.0, 1.0) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# case-study derivatives
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair(cs, lam0):
    return eigenfunction(lam0, cs), adjoint_eigenfunction(lam0, cs)


def test_derivatives_regression(pair, cs):
    direct, adjoint = pair
    got = {
        "v1": dlambda_dv(1, direct, adjoint, cs),
        "v2": dlambda_dv(2, direct, adjoint, cs),
        "v3": dlambda_dv(3, direct, adjoint, cs),
        "v4": dlambda_dv(4, direct, adjoint, cs),
        "R": dlambda_dR(direct, adjoint, cs),
        "P": dlambda_dP(direct, adjoint, cs),
    }
    for name, want in _TRUE.items():
        assert got[name].real == pytest.approx(want, abs=2e-9), name
        assert abs(got[name].imag) <= 1e-9, name
    for k in (0, 5):
        with pytest.raises(ValidationError):
            dlambda_dv(k, direct, adjoint, cs)


def test_derivative_matches_runtime_fd(pair, cs):
    # slow path only for one parameter; full_report covers the rest
    direct, adjoint = pair
    analytic = dlambda_dv(2, direct, adjoint, cs).real
    fd = central_difference(cs, "v2", tol=1e-11)
    assert analytic == pytest.approx(fd, rel=1e-4)


def test_derivative_matches_oracle_fd(cs):
    # independent of central_difference: plain central stencil on the
    # re-solved eigenvalue, via the shared finite-difference oracle
    from dataclasses import replace

    def lam_of_v2(v2):
        return dominant_eigenvalue(replace(cs, v2=v2), tol=1e-12)

    fd = central_diff(lam_of_v2, cs.v2, 1e-5)
    assert fd == pytest.approx(_TRUE["v2"], rel=1e-4)


def test_full_report_is_the_per_name_central_difference(cs, wide_box):
    # the lockstep solve of lambda0 and its twelve neighbours gives what
    # one solve per set gives: the same lam, derivatives and FD errors
    names = ("v1", "v2", "v3", "v4", "R", "P")
    for p in (cs, *wide_box[:5]):
        try:
            ref = full_report(p, fd=False)
        except MovingBedError as exc:
            with pytest.raises(type(exc)):
                full_report(p, fd=True)
            continue
        rep = full_report(p, fd=True)
        analytic = [*ref.dv, ref.dR, ref.dP]
        errs = [abs(a - central_difference(p, name)) / max(abs(a), 1e-3)
                for name, a in zip(names, analytic)]
        assert rep.lam == ref.lam == dominant_eigenvalue(p)
        assert rep.dv.tolist() == ref.dv.tolist()
        assert (rep.dR, rep.dP) == (ref.dR, ref.dP)
        assert rep.fd_check.tolist() == errs
    # central_difference (a batch of two) is the stencil of two solves
    for name in names:
        theta = getattr(cs, name)
        h = 1e-4 * max(abs(theta), 1.0)
        up = dominant_eigenvalue(replace(cs, **{name: theta + h}))
        down = dominant_eigenvalue(replace(cs, **{name: theta - h}))
        assert central_difference(cs, name) == (up - down) / (2.0 * h)


@pytest.mark.parametrize("name", ["x", "f0", "lam", None])
def test_central_difference_refuses_a_name_it_cannot_perturb(cs, name):
    # "x" raised AttributeError, and "f0" ZeroDivisionError (h = 0 at f0 = 0)
    with pytest.raises(ValidationError, match="v1, v2, v3, v4, R, P"):
        central_difference(cs, name)


def test_full_report_pairs_the_modes_once(cs, monkeypatch):
    # one checked_pairing: <u, u*> and the two norms that gate it
    real = eigfun.inner_product
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(eigfun, "inner_product", counted)
    rep = full_report(cs, fd=True)
    assert len(calls) == 3
    monkeypatch.undo()
    args = (rep.direct, rep.adjoint, cs)
    for k in (1, 2, 3, 4):
        got, ref = rep.dv[k - 1], dlambda_dv(k, *args)
        assert (got.real, got.imag) == (ref.real, ref.imag)
    for got, ref in ((rep.dR, dlambda_dR(*args)), (rep.dP, dlambda_dP(*args))):
        assert (got.real, got.imag) == (ref.real, ref.imag)


def test_full_report_allocation_stays_under_the_point_cap(cs):
    # reads 0.66 MB with 650 points per return_map call, 1.9 MB when the
    # 2600 grid points of the 13 sets go through one call
    full_report(cs, fd=True)             # first-use buffers
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        full_report(cs, fd=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"traced peak {peak} B above the start"


def test_normalization_independence(pair, cs):
    # the ratio N(u,u*)/<u,u*> must not change when either eigenfunction
    # is rescaled
    direct, adjoint = pair
    d2 = _rescaled(direct, 3.0 - 1.0j)
    a2 = _rescaled(adjoint, -0.25j)
    base = dlambda_dP(direct, adjoint, cs)
    assert dlambda_dP(d2, a2, cs) == pytest.approx(base, rel=1e-12)
    assert dlambda_dv(1, d2, a2, cs) == pytest.approx(
        dlambda_dv(1, direct, adjoint, cs), rel=1e-12)


def _rescaled(sol, factor):
    from dataclasses import replace
    return replace(sol, coeffs=sol.coeffs * factor)


def test_zero_denominator_between_modes(cs, lam0):
    deep = real_root_scan(cs, (-12.7, -12.5), grid_n=100, tol=1e-12)[0]
    direct = eigenfunction(lam0, cs)
    other = adjoint_eigenfunction(deep, cs)
    assert abs(inner_product(direct, other)) < 1e-8
    with pytest.raises(ZeroDenominator):
        dlambda_dR(direct, other, cs)


def test_full_report(cs):
    rep = full_report(cs, tol=1e-11, fd=True)
    assert isinstance(rep, SensitivityReport)
    assert rep.lam == pytest.approx(-0.11037712315, abs=1e-9)
    for got, name in zip(rep.dv, ("v1", "v2", "v3", "v4")):
        assert got.real == pytest.approx(_TRUE[name], abs=2e-9)
    assert rep.dR.real == pytest.approx(_TRUE["R"], abs=2e-9)
    assert rep.dP.real == pytest.approx(_TRUE["P"], abs=2e-9)
    assert rep.fd_check is not None and rep.fd_check.shape == (6,)
    assert rep.fd_check.max() <= 1e-4
    assert abs(rep.denominator) > 0
    # the modes the derivatives came from, at the reported eigenvalue
    assert (rep.direct.kind, rep.adjoint.kind) == ("direct", "adjoint")
    assert rep.direct.lam == rep.adjoint.lam == rep.lam


@pytest.mark.parametrize("kw", [{"P": 0.93}, {"R": 22.0, "P": 1.0}])
def test_full_report_where_the_raw_rank_test_refused(cs, kw):
    # the adjoint solve at these sets raised DegenerateNullspace when rank
    # was decided on the unscaled port matrix
    rep = full_report(replace(cs, **kw), fd=True)
    assert rep.fd_check.max() <= 1e-4


@pytest.mark.parametrize("params", [
    ModelParams(1.275 * (1 + 3e-5), 1.275 * (1 - 3e-5), 1.275 * (1 + 3e-5),
                1.275 * (1 - 3e-5), R=18.0, P=1.03),
    replace(case_study(), R=5e-5),
    replace(case_study(), P=5e-5)], ids=["near-limit", "R=5e-5", "P=5e-5"])
def test_fd_steps_stay_inside_the_valid_sets(params):
    # h = 1e-4 max(|theta|, 1) would step past a port neighbour or below
    # zero here; it is cut to half the room, and the report solves
    ref = full_report(params, fd=False)
    rep = full_report(params, fd=True)
    assert rep.lam == ref.lam
    assert rep.dv.tolist() == ref.dv.tolist()
    assert (rep.dR, rep.dP, rep.denominator) == (ref.dR, ref.dP,
                                                 ref.denominator)
    assert np.isfinite(rep.fd_check).all()


def test_limit_case_closed_forms():
    lp = limit_params()
    direct = eigenfunction(0.0, lp)
    adjoint = adjoint_eigenfunction(0.0, lp)
    dv1 = dlambda_dv(1, direct, adjoint, lp)
    assert dv1.real == pytest.approx(-1.0 / (4.0 * (1.0 + lp.P ** 2)),
                                     rel=1e-10)
    assert abs(dlambda_dR(direct, adjoint, lp)) <= 1e-12
    assert abs(dlambda_dP(direct, adjoint, lp)) <= 1e-12


# ---------------------------------------------------------------------------
# closed-form pairing and numerators vs quadrature of the sampled modes
# ---------------------------------------------------------------------------

def _gl_pairing(a, b, integrand):
    """Sum over the zones of gl64 of integrand(c_a, q_a, c_b, q_b)."""
    total = 0.0 + 0.0j
    for zone, lo in zip(range(1, 5), (-2.0, -1.0, 0.0, 1.0)):
        def f(x, zone=zone):
            return integrand(*a.zone_values(zone, x), *b.zone_values(zone, x))
        total += gl64(f, lo, lo + 1.0)
    return total


def _plain(ca, qa, cb, qb):
    return ca * np.conj(cb) + qa * np.conj(qb)


@pytest.fixture(scope="module", params=["lam0", "deep", "strict"])
def modes(request, cs, lam0):
    if request.param == "lam0":
        params, lam = cs, lam0
    elif request.param == "deep":
        params = cs
        lam = real_root_scan(cs, (-12.7, -12.5), grid_n=100, tol=1e-12)[0]
    else:
        params = ModelParams(1.53, 1.12, 1.43, 1.02, R=18.0 * 0.85,
                             P=1.03 * 1.05)
        lam = dominant_eigenvalue(params, tol=1e-12)
    return params, eigenfunction(lam, params), adjoint_eigenfunction(lam,
                                                                     params)


def test_inner_product_matches_quadrature(modes):
    _, direct, adjoint = modes
    for a, b in ((direct, direct), (adjoint, adjoint), (direct, adjoint)):
        ref = _gl_pairing(a, b, _plain)
        assert abs(inner_product(a, b) - ref) <= 1e-12 * abs(ref)


def test_dR_dP_match_quadrature(modes):
    params, direct, adjoint = modes
    R, P = params.R, params.P
    den = _gl_pairing(direct, adjoint, _plain)
    num_R = -_gl_pairing(direct, adjoint, lambda c, q, cs_, qs_:
                         (P * c - q) * np.conj(P * cs_ - qs_))
    num_P = _gl_pairing(direct, adjoint, lambda c, q, cs_, qs_:
                        R * (-2.0 * P * c + q) * np.conj(cs_)
                        + R * c * np.conj(qs_))
    for got, ref in ((dlambda_dR(direct, adjoint, params), num_R / den),
                     (dlambda_dP(direct, adjoint, params), num_P / den)):
        assert abs(got - ref) <= 1e-12 * abs(ref)
