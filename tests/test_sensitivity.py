import hashlib
import inspect
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from movingbed import eigfun, sensitivity
from movingbed.charfun import return_map
from movingbed.eigfun import (EigenSolution, adjoint_eigenfunction,
                              eigenfunction, evaluate,
                              exp_integral, inner_product, steady_state)
from movingbed.errors import (MovingBedError, NearZeroPairing,
                              ValidationError)
from movingbed.params import ModelParams, case_study, limit_params
from movingbed.sensitivity import (SensitivityReport, central_difference,
                                   full_report, sensitivities)
from movingbed.spectrum import (bracket_bound, dominant_eigenvalue,
                                real_root_scan)

from oracles import (bisect_dominant, central_diff, gl64, mode_values,
                     secant)

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
    draws = []
    for _ in range(200):
        D = complex(*rng.normal(size=2))
        Ds = complex(*rng.normal(size=2))
        nu = complex(*rng.normal(scale=3.0, size=2))
        ns = complex(*rng.normal(scale=3.0, size=2))
        lo = rng.uniform(-2.0, 1.0)
        got = exp_integral(D, Ds, nu, ns, lo, lo + 1.0)
        assert type(got) is complex
        ref = _oracle(D, Ds, nu, ns, lo, lo + 1.0)
        scale = max(abs(ref), abs(D * np.conj(Ds)))
        worst = max(worst, abs(got - ref) / scale)
        draws.append((D, Ds, nu, ns, lo, got))
    assert worst <= 1e-12
    # one broadcast call over all draws gives each scalar result exactly
    D, Ds, nu, ns, lo, scalar = map(np.array, zip(*draws))
    batch = exp_integral(D, Ds, nu, ns, lo, lo + 1.0)
    assert batch.shape == (200,)
    assert batch.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("mu", [0.0, 1e-13, -1e-13 + 1e-14j,
                                1e-9, 1e-9 + 1e-9j, -3e-9])
def test_exp_integral_small_exponent_branches(mu):
    # mu zero or tiny, where exp(mu L) - 1 would cancel: compare against the
    # quadrature of the nearly-constant integrand
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


def _derivatives(rep):
    """The six derivatives of a report, keyed as in _TRUE."""
    return dict(zip(("v1", "v2", "v3", "v4", "R", "P"),
                    (*rep.dv, rep.dR, rep.dP)))


def test_derivatives_regression(pair, cs):
    got = _derivatives(sensitivities(*pair))
    for name, want in _TRUE.items():
        assert got[name].real == pytest.approx(want, abs=2e-9), name
        assert abs(got[name].imag) <= 1e-9, name


def test_derivative_matches_runtime_fd(pair, cs):
    # slow path only for one parameter; full_report covers the rest
    analytic = sensitivities(*pair).dv[1].real
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
    # two stacked closed-form calls: one checked_pairing (<u, u*> and the
    # two norms that gate it), then the four numerator integrals
    real = eigfun.exp_integral
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eigfun, "exp_integral", counted)
    rep = full_report(cs, fd=True)
    assert len(calls) == 2
    monkeypatch.undo()
    ref = sensitivities(rep.direct, rep.adjoint)
    assert ref.fd_check is None
    assert rep.dv.tobytes() == ref.dv.tobytes()
    for got, want in ((rep.dR, ref.dR), (rep.dP, ref.dP),
                      (rep.denominator, ref.denominator), (rep.lam, ref.lam)):
        assert (got.real, got.imag) == (want.real, want.imag)


@pytest.mark.parametrize("fd", ["no", None, 0, np.True_, [1]],
                         ids=["string", "None", "zero", "numpy-bool", "list"])
def test_full_report_refuses_an_fd_that_is_not_a_bool(cs, fd, monkeypatch):
    # read by truthiness, "no" ran the twelve re-solves and None or 0
    # skipped them; refused now before any solve
    def solve(*args):
        raise AssertionError("solved before fd was checked")
    monkeypatch.setattr(sensitivity, "dominant_eigenvalue", solve)
    with pytest.raises(ValidationError, match="must be True or False"):
        full_report(cs, fd=fd)


def test_full_report_where_the_mode_norms_underflow():
    # pairing -2.38e-85 against a norm scale of 2.38e-85 (cosine ~1):
    # refused as NearZeroPairing while the scale had a floor of 1e-30
    params = ModelParams(2.582298732665643, 1.1937829747576176,
                         2.278910046169394, 1.6467805334028607,
                         R=25.975886447434224, P=3.229132306041342)
    rep = full_report(params, fd=True)
    assert abs(rep.denominator) < 1e-80
    assert max(rep.fd_check) <= 1e-4


def _broad_domain(n):
    """n sets of the broad domain (numpy seed 9): four velocities from
    U[0.3, 3] sorted into port order, v2 and v4 the two smallest; R and P
    log-uniform in [0.1, 200] and [0.1, 6.3]."""
    rng = np.random.default_rng(9)
    for _ in range(n):
        s = np.sort(rng.uniform(0.3, 3.0, 4))
        R, P = np.exp(rng.uniform(np.log([0.1, 0.1]), np.log([200.0, 6.3])))
        yield ModelParams(s[2], s[0], s[3], s[1], R=R, P=P)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_broad_domain_roots_are_the_scalar_bisection_roots(tol):
    # far from the case study the FD neighbours' windows and the root
    # guesses meet other cells and other slopes: each root is still the
    # oracle's scalar bisection root, alone and as entry 0 of full_report's
    # 13-set batch, and the batch is the loop
    for p in _broad_domain(40):
        batch = [p, *(q for name in sensitivity._NAMES
                      for q in sensitivity._fd_pair(p, name)[1])]
        looped = [dominant_eigenvalue(q, tol) for q in batch]
        ref = bisect_dominant(lambda x: return_map(x, p).delta_sign,
                              bracket_bound(p).M0, tol)
        assert looped[0] == ref, p
        assert dominant_eigenvalue(batch, tol) == looped, p


@pytest.mark.parametrize("v, R, P", [
    ((1.9720012327369831, 1.0369712527813448, 2.3043936899222848,
      1.0706143392759524), 159.1877903164032, 2.2092174365326684),
    ((2.009303049743967, 0.5819220833810372, 2.3979845087177787,
      0.8404788299634318), 53.9788281239729, 2.634574549060539)])
def test_full_report_where_the_null_vector_norm_overflowed(v, R, P):
    # broad-domain draws 174 and 187: the null vector divided by tiny
    # column norms overflowed np.linalg.norm with a RuntimeWarning
    with pytest.raises(MovingBedError):
        full_report(ModelParams(*v, R=R, P=P))


def test_broad_domain_returns_finite_fields_or_refuses():
    # RuntimeWarnings are errors in this suite, so a warning fails here;
    # the steady state is solved whether or not the report returns
    for params in _broad_domain(200):
        try:
            steady = evaluate(steady_state(replace(params, f0=1.0)))
        except MovingBedError:
            pass
        else:
            assert np.isfinite([steady.c, steady.q]).all(), params
        try:
            rep = full_report(params)
        except MovingBedError:
            continue
        for field in (rep.lam, rep.dv, rep.dR, rep.dP, rep.denominator,
                      rep.fd_check):
            assert np.isfinite(field).all(), params


def test_full_report_allocation_stays_under_the_point_cap(cs):
    # reads 0.26 MB with 650 points per return_map call, 1.9 MB when the
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
    base = sensitivities(direct, adjoint)
    scaled = sensitivities(d2, a2)
    assert scaled.dP == pytest.approx(base.dP, rel=1e-12)
    assert scaled.dv[0] == pytest.approx(base.dv[0], rel=1e-12)


def _rescaled(sol, factor):
    from dataclasses import replace
    return replace(sol, coeffs=sol.coeffs * factor)


def test_zero_denominator_between_modes(cs, lam0):
    deep = real_root_scan(cs, (-12.7, -12.5), grid_n=100, tol=1e-12)[0][0]
    direct = eigenfunction(lam0, cs)
    other = adjoint_eigenfunction(deep, cs)
    assert abs(inner_product(direct, other)) < 1e-8
    with pytest.raises(NearZeroPairing):
        sensitivities(direct, other)


def _other_set_direct(cs):
    """The direct mode at lambda0 of another parameter set."""
    other = replace(cs, R=30.0, P=1.5)
    return eigenfunction(dominant_eigenvalue(other), other)


@pytest.mark.parametrize("modes, match", [
    (lambda cs, d, a: (a, d), r"kinds \('adjoint', 'direct'\) do not pair"),
    (lambda cs, d, a: (d, d), r"kinds \('direct', 'direct'\) do not pair"),
    (lambda cs, d, a: (_other_set_direct(cs), a),
     "of different parameter sets")], ids=["swapped", "direct twice",
                                           "other set"])
def test_sensitivities_refuse_a_pair_that_is_not_one_sets_modes(cs, pair,
                                                                 modes,
                                                                 match):
    # each returned numbers: the swapped pair gave dv = (-0.0151, 0.0775,
    # -0.0100, -0.0989) for (-0.0809, 0.0886, -0.1288, 0.2551), and the
    # direct mode of R = 30, P = 1.5 with the case study's adjoint
    # dv = (-0.1280, 0.1119, -0.1022, 0.1112)
    with pytest.raises(ValidationError, match=match):
        sensitivities(*modes(cs, *pair))


def test_reports_read_lam_and_sign_from_the_modes(pair):
    # the eigenvalue and the basis sign are read from the objects that own
    # them, not stored beside them
    direct, adjoint = pair
    assert list(inspect.signature(sensitivities).parameters) == [
        "direct", "adjoint"]
    assert "sign" not in {f.name for f in fields(EigenSolution)}
    assert "lam" not in {f.name for f in fields(SensitivityReport)}
    assert (direct.sign, adjoint.sign) == (+1, -1)
    rep = sensitivities(direct, adjoint)
    assert rep.lam == direct.lam == adjoint.lam
    assert replace(rep, fd_check=np.zeros(6)).lam == rep.lam


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
    rep = sensitivities(direct, adjoint)
    assert rep.dv[0].real == pytest.approx(-1.0 / (4.0 * (1.0 + lp.P ** 2)),
                                           rel=1e-10)
    assert abs(rep.dR) <= 1e-12
    assert abs(rep.dP) <= 1e-12


def test_limit_report_identities():
    # lambda0 = 0 for every R, P and common v, so the derivatives along R,
    # P and a common shift of the four velocities vanish; the velocity
    # derivatives alternate as (-g, g, -g, g) with g = 1/(4 (1 + P^2))
    lp = limit_params()
    g = 1.0 / (4.0 * (1.0 + lp.P ** 2))
    for fd in (True, False):
        rep = full_report(lp, fd=fd)
        assert rep.lam == 0.0 and rep.fd_check is None
        assert abs(rep.dv.sum()) <= 1e-12 * g
        assert abs(rep.dR) <= 1e-12 * g
        assert abs(rep.dP) <= 1e-12 * g
        assert rep.dv.real == pytest.approx([-g, g, -g, g], rel=1e-10)


def test_near_limit_slope_converges_at_first_order():
    # v1 = v3 = v (1 + eps), v2 = v4 = v (1 - eps): lambda0 / eps tends to
    # v dv.(1, -1, 1, -1) at the limit, with an error of O(eps)
    lp = limit_params()
    v = lp.v1
    slope = v * (full_report(lp).dv.real @ [1.0, -1.0, 1.0, -1.0])
    eps = [1e-2, 1e-3, 1e-4]
    lams = dominant_eigenvalue([
        ModelParams(v * (1 + e), v * (1 - e), v * (1 + e), v * (1 - e),
                    R=lp.R, P=lp.P) for e in eps], tol=1e-14)
    err = [abs(lam / e - slope) for lam, e in zip(lams, eps)]
    assert all(d <= e for d, e in zip(err, eps))
    assert all(5.0 <= a / b <= 20.0 for a, b in zip(err, err[1:]))


def test_central_difference_at_the_limit():
    # R and P keep their room, and lambda0 is 0 on both sides; a velocity
    # has none: h = 0 ended in a ZeroDivisionError
    lp = limit_params()
    assert central_difference(lp, "R") == central_difference(lp, "P") == 0.0
    for name in ("v1", "v2", "v3", "v4"):
        with pytest.raises(ValidationError, match=f"no step of {name}"):
            central_difference(lp, name)


def _secant(z, params):
    """The root of Delta near z by secant steps on return_map's delta."""
    return secant(lambda lam: return_map(lam, params).delta, z)


def test_sensitivities_at_a_complex_eigenvalue(cs):
    # lambda1, the case study's second eigenvalue, is complex; its adjoint
    # mode is taken at conj(lambda1), and every derivative matches central
    # differences of lambda1 tracked by secant steps at theta +- h
    lam1 = _secant(-0.2185553 + 0.0808866j, cs)
    assert lam1 == pytest.approx(-0.218555259 + 0.080886585j, abs=1e-9)
    rep = sensitivities(eigenfunction(lam1, cs),
                        adjoint_eigenfunction(lam1.conjugate(), cs))
    assert rep.lam == lam1
    for name, got in _derivatives(rep).items():
        theta = getattr(cs, name)
        fd = central_diff(lambda t: _secant(lam1, replace(cs, **{name: t})),
                          theta, 1e-5 * max(theta, 1.0))
        assert abs(got - fd) <= 1e-6 * abs(fd), name


# ---------------------------------------------------------------------------
# the reports' output bits
# ---------------------------------------------------------------------------

def _report_digest(reports) -> str:
    """sha256 over the dtype, shape and bytes of dv, dR, dP, denominator
    and fd_check of each report in turn; a None fd_check hashes as None."""
    h = hashlib.sha256()
    for rep in reports:
        for field in (rep.dv, rep.dR, rep.dP, rep.denominator, rep.fd_check):
            if field is None:
                h.update(b"None")
                continue
            a = np.asarray(field)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


# sha256 of full_report(fd=True) on the case study and on each wide-box set
# (one digest over the 30 sets), and of sensitivities at the limit preset's
# lambda = 0 and at the case study's complex lambda_1 (adjoint at its
# conjugate).  Any change to the pairing or numerator integrals, the
# boundary samples or their roundings shows here.  Like
# test_eigfun._PINNED_MODE_DIGESTS these are numpy 2.4.6 on x86-64.
_PINNED_REPORT_DIGESTS = {
    "case-study-full":
        "8a5fbb236b2caaa58a21106eeaf5717d76f8d8c07bc008c2b3325de73876507f",
    "wide-box-full":
        "c6ac38352f86e70fffaa6f94371439f185caa06a23ff1c58edabc6fe9536d6bc",
    "limit-0":
        "0c0bd4a021b91b8656f7b3f36bcc544d1c49dcb7e77063f1c8deeef0cc029119",
    "case-study-lambda1":
        "2e60fd29fdcc8046f1f37c7af5f13409fd5060b66bcdcfc1ea0bd72f3cce029f",
}


def test_report_bits_are_pinned(cs, lp, wide_box):
    lam1 = _secant(-0.2185553 + 0.0808866j, cs)
    got = {
        "case-study-full": _report_digest([full_report(cs, fd=True)]),
        "wide-box-full": _report_digest(
            [full_report(p, fd=True) for p in wide_box]),
        "limit-0": _report_digest([sensitivities(
            eigenfunction(0.0, lp), adjoint_eigenfunction(0.0, lp))]),
        "case-study-lambda1": _report_digest([sensitivities(
            eigenfunction(lam1, cs),
            adjoint_eigenfunction(lam1.conjugate(), cs))]),
    }
    assert got == _PINNED_REPORT_DIGESTS


def _report_bits(rep) -> list:
    """Every field of a report as bytes, its modes' fields included."""
    bits = [np.asarray(f).tobytes() for f in (rep.dv, rep.dR, rep.dP,
                                              rep.denominator, rep.fd_check)]
    for sol in (rep.direct, rep.adjoint):
        bits += [np.asarray(f).tobytes() for f in (
            sol.lam, sol.coeffs, sol.nus, sol.phis, sol.residual)]
        bits += [sol.kind, sol.normalization, sol.params]
    return bits


def test_a_warm_report_is_the_cold_one_bit_for_bit(cs, wide_box):
    # after lambda0 and both modes on the same object, full_report reuses
    # the first set's grid scan and both modes; a new object reuses
    # nothing
    for p in [cs, *wide_box]:
        cold = full_report(replace(p), fd=True)
        lam = dominant_eigenvalue(p)
        eigenfunction(lam, p)
        adjoint_eigenfunction(lam, p)
        warm = full_report(p, fd=True)
        assert _report_bits(warm) == _report_bits(cold)
        assert warm.direct.params is p


# ---------------------------------------------------------------------------
# closed-form pairing and numerators vs quadrature of the sampled modes
# ---------------------------------------------------------------------------

def _gl_pairing(a, b, integrand):
    """Sum over the zones of gl64 of integrand(c_a, q_a, c_b, q_b), the
    modes sampled by the oracle, apart from their amplitude tables."""
    total = 0.0 + 0.0j
    for zone, lo in zip(range(1, 5), (-2.0, -1.0, 0.0, 1.0)):
        def f(x, zone=zone):
            return integrand(*mode_values(a, zone, x),
                             *mode_values(b, zone, x))
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
        lam = real_root_scan(cs, (-12.7, -12.5), grid_n=100, tol=1e-12)[0][0]
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
    rep = sensitivities(direct, adjoint)
    for got, ref in ((rep.dR, num_R / den), (rep.dP, num_P / den)):
        assert abs(got - ref) <= 1e-12 * abs(ref)
