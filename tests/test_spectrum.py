import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from movingbed import spectrum
from movingbed.charfun import return_map
from movingbed.errors import (LimitCaseHasNoBracket, MovingBedError,
                              NoSignChangeFound, ValidationError)
from movingbed.params import ModelParams, case_study, limit_params
from movingbed.spectrum import (bracket_bound, collocation_spectrum,
                                dominant_eigenvalue, imaginary_vanishing_k,
                                limit_asymptote, limit_residual,
                                limit_spectrum, real_root_scan,
                                stable_eigenvalues)
from oracles import bisect, bisect_dominant


def test_bracket_bound_frozen_values(cs):
    bb = bracket_bound(cs)
    assert bb.M0 == pytest.approx(6.692779110045295, rel=1e-12)
    assert bb.Q0 == pytest.approx(1.6724533980582525, rel=1e-12)


def test_bracket_bound_rejects_limit_case(lp):
    with pytest.raises(LimitCaseHasNoBracket):
        bracket_bound(lp)


def test_dominant_eigenvalue(cs):
    lam = dominant_eigenvalue(cs, tol=1e-12)
    assert lam == pytest.approx(-0.1103771231538904, abs=1e-9)
    # the root actually zeroes the (scaled) characteristic function
    assert abs(return_map(lam, cs)._delta_parts[0]) <= 1e-9


def test_dominant_eigenvalue_tol_validation(cs):
    with pytest.raises(ValidationError):
        dominant_eigenvalue(cs, tol=0.0)
    with pytest.raises(ValidationError):
        dominant_eigenvalue(cs, tol=math.nan)
    with pytest.raises(ValidationError):
        dominant_eigenvalue(cs, tol=10.0)   # larger than the bracket bound


def test_real_root_scan_finds_deeper_roots(cs, lam0):
    roots = real_root_scan(cs, (-14.0, -0.01), grid_n=400, tol=1e-10)
    assert any(abs(r - lam0) < 1e-6 for r in roots)
    assert any(abs(r + 12.701155) < 1e-4 for r in roots)
    assert any(abs(r + 12.608163) < 1e-4 for r in roots)


def test_real_root_scan_brackets(cs):
    triples = real_root_scan(cs, (-1.0, -0.01), grid_n=100, tol=1e-10,
                             with_brackets=True)
    assert len(triples) == 1
    root, lo, hi = triples[0]
    assert lo <= root <= hi


def test_real_root_scan_empty_and_invalid(cs):
    assert real_root_scan(cs, (-5.0, -5.0)) == []
    for range_ in ((1.0, -1.0), (math.nan, 0.0), (-math.inf, 0.0),
                   (-1.0, math.inf)):
        with pytest.raises(ValidationError):
            real_root_scan(cs, range_)
    # tol=inf returned -0.15276 here, where the root is -0.11038
    for tol in (math.inf, -1.0, 0.0, math.nan):
        with pytest.raises(ValidationError):
            real_root_scan(cs, (-14.0, -0.01), 50, tol=tol)


@pytest.mark.parametrize("grid_n", [1, 0, -3])
def test_real_root_scan_rejects_a_grid_below_two(cs, grid_n):
    with pytest.raises(ValidationError):
        real_root_scan(cs, (-1.0, -0.01), grid_n=grid_n)


def test_dominant_eigenvalue_stops_scanning_at_the_root(cs, monkeypatch):
    # one return_map call for the 200-point grid, one for the densified
    # cell and one per five bisection levels; the lambda points of all
    # calls are distinct
    calls = []
    real = spectrum.return_map

    def counted(lam, *sets):
        calls.append(np.atleast_1d(lam).tolist())
        return real(lam, *sets)
    monkeypatch.setattr(spectrum, "return_map", counted)
    dominant_eigenvalue(cs)
    assert 1 <= len(calls) <= 8
    assert len(calls[0]) == 200
    points = [x for call in calls for x in call]
    assert len(set(points)) == len(points)


def test_dominant_eigenvalue_matches_scalar_bisection(cs, wide_box):
    # the midpoint trees walk the cells scalar bisection walks, so on the
    # same signs the root is the same double
    differ = []
    for p in (cs, *wide_box):
        ref = bisect_dominant(lambda x: return_map(x, p).delta_sign,
                              bracket_bound(p).M0, 1e-10)
        lam = dominant_eigenvalue(p)
        if lam != ref:
            differ.append(abs(lam - ref))
    assert not differ, f"{len(differ)} of 31 differ, by up to {max(differ)}"


def test_bisection_below_the_double_spacing_stops_early(cs, monkeypatch):
    # at tol = 1e-20 the cell ends up between adjacent doubles, where
    # scalar bisection steps in place to its 300-step cap
    sign = lambda x: return_map(x, cs).delta_sign  # noqa: E731
    ref = bisect_dominant(sign, bracket_bound(cs).M0, 1e-20)
    calls = []
    real = spectrum.return_map

    def counted(lam, *sets):
        calls.append(np.atleast_1d(lam).tolist())
        return real(lam, *sets)
    monkeypatch.setattr(spectrum, "return_map", counted)
    assert dominant_eigenvalue(cs, tol=1e-20) == ref
    assert 3 <= len(calls) <= 12
    points = [x for call in calls for x in call]
    assert len(set(points)) == len(points)


def test_bisection_stops_at_the_300_step_cap(cs, monkeypatch):
    # a sign change at 1e-120 inside (-1, 1) and tol 1e-300: the cell stays
    # wider than tol, so only the step cap stops it, at the midpoint of
    # scalar bisection's 300th cell; one grid call and 60 rounds of five
    sign = lambda x: np.sign(np.asarray(x) - 1e-120)  # noqa: E731
    calls = []

    def stub(lam, *sets):
        calls.append(lam)
        return SimpleNamespace(delta_sign=sign(lam))
    monkeypatch.setattr(spectrum, "return_map", stub)
    ref = bisect(sign, -1.0, 1.0, -1.0, 1e-300)
    assert ref == 4.909093465297727e-91
    assert real_root_scan(cs, (-1.0, 1.0), grid_n=2, tol=1e-300) == [ref]
    assert len(calls) == 61


# ---------------------------------------------------------------------------
# batches of parameter sets, solved in lockstep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_batch_is_the_loop_bit_for_bit(cs, wide_box, tol):
    sets = [cs, *wide_box]
    batched = dominant_eigenvalue(sets, tol)
    assert batched == [dominant_eigenvalue(p, tol) for p in sets]
    assert all(type(lam) is float for lam in batched)


def _counting(monkeypatch) -> list:
    """Record the lambda count of every return_map call spectrum makes."""
    sizes = []
    real = spectrum.return_map

    def counted(lam, *sets):
        sizes.append(np.atleast_1d(lam).size)
        return real(lam, *sets)
    monkeypatch.setattr(spectrum, "return_map", counted)
    return sizes


def test_batch_calls_stay_under_the_point_cap(cs, wide_box, monkeypatch):
    # 13 sets put 2600 points on their grids: four calls of 650
    sizes = _counting(monkeypatch)
    dominant_eigenvalue([cs, *wide_box[:12]])
    assert sizes[:4] == [spectrum._MAX_POINTS] * 4
    assert max(sizes) <= spectrum._MAX_POINTS
    assert len(sizes) <= 4 + 1 + 7


def test_batch_refusals_come_before_any_delta_evaluation(cs, lp,
                                                         monkeypatch):
    sizes = _counting(monkeypatch)
    with pytest.raises(ValidationError):
        dominant_eigenvalue([])
    with pytest.raises(LimitCaseHasNoBracket, match=r"\(set 1\)$"):
        dominant_eigenvalue([cs, lp, cs])
    # M0 < R = 5 for the second set, while the case study's M0 is 6.69
    with pytest.raises(ValidationError, match=r"\(set 1\)$"):
        dominant_eigenvalue([cs, replace(cs, R=5.0)], tol=6.0)
    assert sizes == []


def test_batch_no_sign_change_names_the_set(cs):
    # lambda0 = -0.1048 at R = 24 lies above the grid's end -tol = -0.108,
    # while the case study's -0.1104 lies on its grid
    with pytest.raises(NoSignChangeFound, match=r"\(set 1\)$"):
        dominant_eigenvalue([cs, replace(cs, R=24.0)], tol=0.108)


def _box_set(f) -> ModelParams:
    """The strict set at factors f in [-1, 1]^6 of the wide box: v_i
    +-10%, R +-25% and P +-10% around the case study."""
    base = case_study()
    return ModelParams(*(vi * (1.0 + 0.1 * fi) for vi, fi in zip(base.v, f)),
                       R=base.R * (1.0 + 0.25 * f[4]),
                       P=base.P * (1.0 + 0.1 * f[5]))


_BOX_SETS = st.lists(st.floats(-1.0, 1.0), min_size=6,
                     max_size=6).map(_box_set)


@seed(20260518)
@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(_BOX_SETS, min_size=1, max_size=5),
       st.sampled_from([1e-10, 1e-12]))
def test_batch_equals_loop_over_the_wide_box(sets, tol):
    try:
        looped = [dominant_eigenvalue(p, tol) for p in sets]
    except MovingBedError:
        with pytest.raises(MovingBedError):
            dominant_eigenvalue(sets, tol)
        return
    assert dominant_eigenvalue(sets, tol) == looped


def test_real_root_scan_matches_scalar_bisection(cs):
    found = real_root_scan(cs, (-14.0, -0.01), grid_n=400, tol=1e-10,
                           with_brackets=True)
    assert len(found) >= 3
    for root, a, b in found:
        s = return_map(a, cs).delta_sign
        assert root == bisect(lambda x: return_map(x, cs).delta_sign, a, b,
                              s, 1e-10 * max(1.0, abs(a)))


# ---------------------------------------------------------------------------
# equal-velocity closed forms
# ---------------------------------------------------------------------------

def test_limit_k0_exact(lp):
    table = limit_spectrum(lp, k_max=5)
    k0 = next(e for e in table if e.k == 0)
    assert k0.lambda_plus == 0.0
    assert k0.lambda_minus == -lp.R * (1.0 + lp.P ** 2)


def test_limit_conjugate_symmetry(lp):
    table = {e.k: e for e in limit_spectrum(lp, k_max=12)}
    for k in range(1, 13):
        assert table[-k].lambda_plus == table[k].lambda_plus.conjugate()
        assert table[-k].lambda_minus == table[k].lambda_minus.conjugate()


def test_limit_real_parts_monotone(lp):
    table = {e.k: e for e in limit_spectrum(lp, k_max=30)}
    re_plus = [table[k].lambda_plus.real for k in range(0, 31)]
    re_minus = [table[k].lambda_minus.real for k in range(0, 31)]
    assert all(np.diff(re_plus) <= 1e-12)      # decreasing toward -R
    assert all(np.diff(re_minus) >= -1e-12)    # increasing toward -R P^2


def test_limit_residuals(lp):
    table = limit_spectrum(lp, k_max=8)
    for e in table:
        assert limit_residual(e.lambda_plus, lp) <= 1e-8
        assert limit_residual(e.lambda_minus, lp) <= 1e-8
    # an array of eigenvalues is one evaluation with the same values
    lams = [lam for e in table for lam in (e.lambda_plus, e.lambda_minus)]
    assert np.array_equal(limit_residual(lams, lp),
                          [limit_residual(lam, lp) for lam in lams])


def test_limit_asymptote_converges(lp):
    # the large-k expansion is accurate to O(k^-3): err * k^3 stays bounded
    # and non-increasing once k is moderately large
    table = {e.k: e for e in limit_spectrum(lp, k_max=80)}
    scaled = []
    for k in (20, 40, 80):
        plus, minus = limit_asymptote(lp, k)
        err = max(abs(table[k].lambda_plus - plus),
                  abs(table[k].lambda_minus - minus))
        scaled.append(err * k ** 3)
    assert scaled[0] >= scaled[1] >= scaled[2]
    assert scaled[0] < 5e3


def test_imaginary_vanishing_k(lp):
    k_star = imaginary_vanishing_k(lp)
    assert k_star == pytest.approx(14.340311264045784, rel=1e-12)
    # equal phase speeds: the prefactor 1/(v-1) blows up, no crossing
    assert imaginary_vanishing_k(limit_params(v=1.0)) is None


def test_limit_spectrum_rejects_strict_ports(cs):
    with pytest.raises(ValidationError):
        limit_spectrum(cs, k_max=3)


def test_limit_spectrum_rejects_negative_k_max(lp):
    with pytest.raises(ValidationError):
        limit_spectrum(lp, k_max=-1)
    assert len(limit_spectrum(lp, k_max=0)) == 1


# ---------------------------------------------------------------------------
# collocation cross-check
# ---------------------------------------------------------------------------

def test_collocation_contains_dominant(cs, lam0):
    eigs = collocation_spectrum(cs, N=30)
    real_ones = eigs[np.abs(eigs.imag) < 1e-8]
    assert np.abs(real_ones.real - lam0).min() <= 1e-6


def test_collocation_limit_matches_closed_form(lp):
    eigs = collocation_spectrum(lp, N=40)
    table = limit_spectrum(lp, k_max=3)
    for e in table:
        if abs(e.k) > 2:
            continue
        for lam in (e.lambda_plus, e.lambda_minus):
            assert np.abs(eigs - lam).min() <= 1e-6


@pytest.mark.parametrize("N", [8, 30])
def test_collocation_returns_8N_finite_sorted_eigenvalues(cs, N):
    eigs = collocation_spectrum(cs, N=N)
    assert eigs.shape == (8 * N,)
    assert np.all(np.isfinite(eigs))
    assert np.array_equal(eigs, np.sort_complex(eigs))


def test_collocation_validates_N(cs):
    with pytest.raises(ValidationError):
        collocation_spectrum(cs, N=4)


def test_stable_eigenvalues(cs, lam0):
    stable = stable_eigenvalues(cs, N1=30, N2=45)
    assert np.abs(np.asarray(stable) - lam0).min() <= 1e-6
