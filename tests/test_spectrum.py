import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from movingbed import charfun, sensitivity, spectrum
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
    # each round's midpoints are those scalar bisection can visit, and the
    # walk over them is scalar bisection, so on the same signs the root is
    # the same double
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
    # the first set's grid, a 7-point window on each of the 12 others, and
    # the whole grids of the two whose windows do not settle
    sizes = _counting(monkeypatch)
    dominant_eigenvalue([cs, *wide_box[:12]])
    assert sizes[:3] == [200, 12 * 7, 2 * 200]
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
    # not a ModelParams: a number, a string's characters, a None
    for params, i in ((5, 0), ("ab", 0), ([cs, None], 1)):
        with pytest.raises(ValidationError, match=rf"\(set {i}\)$"):
            dominant_eigenvalue(params)
    assert sizes == []


def test_batch_no_sign_change_names_the_set(cs, monkeypatch):
    # set 1's Delta is stubbed to keep one sign on its grid and at 0,
    # which no valid set was seen to do, while the case study's -0.1104
    # lies on its grid
    real = spectrum.return_map

    def stub(lam, sets, owner):
        signs = real(lam, sets, owner).delta_sign
        return SimpleNamespace(delta_sign=np.where(owner == 1, 1, signs))
    monkeypatch.setattr(spectrum, "return_map", stub)
    with pytest.raises(NoSignChangeFound, match=r"\(set 1\)$"):
        dominant_eigenvalue([cs, replace(cs, R=24.0)], tol=0.108)


def test_a_root_between_minus_tol_and_0_is_bisected_there(cs, monkeypatch):
    # lambda0 = -0.1048 at R = 24 lies above the grid's end -tol = -0.108,
    # so its window round the case study's cell holds no sign change and
    # it scans its whole grid; Delta(0) shows the sign change, and only
    # that set pays for it
    calls = []
    real = spectrum.return_map

    def counted(lam, *args):
        calls.append(np.atleast_1d(lam).size)
        return real(lam, *args)
    monkeypatch.setattr(spectrum, "return_map", counted)
    lam0, lam = dominant_eigenvalue([cs, replace(cs, R=24.0)], tol=0.108)
    assert lam0 == dominant_eigenvalue(cs, tol=0.108)
    assert -0.108 < lam < 0.0 and abs(lam + 0.10482181834723969) < 0.108
    assert calls[:4] == [200, 5, 200, 1]


def test_wrong_type_tol_and_range_are_refused_before_any_delta(cs,
                                                              monkeypatch):
    sizes = _counting(monkeypatch)
    for call in (lambda: dominant_eigenvalue(cs, tol="x"),
                 lambda: sensitivity.full_report(cs, tol="x"),
                 lambda: real_root_scan(cs, ("a", 1.0)),
                 lambda: real_root_scan(cs, None),
                 lambda: real_root_scan(cs, (-1.0, 0.0, 1.0)),
                 lambda: real_root_scan(cs, (-1, 0), tol=None)):
        with pytest.raises(ValidationError):
            call()
    assert sizes == []


def _fd_batch(p) -> list:
    """p and its twelve finite-difference neighbours, as full_report
    solves them."""
    return [p, *(q for name in sensitivity._NAMES
                 for q in sensitivity._fd_pair(p, name)[1])]


def test_full_report_scans_windows_and_builds_each_row_once(cs,
                                                            monkeypatch):
    # the case study's grid, a 7-point window on each of its 12 FD
    # neighbours, the 13 densified cells and five bisection rounds; each
    # set's constant row is built once per solve, not once per call
    sizes = _counting(monkeypatch)
    rows = []
    real_row = charfun._set_row
    monkeypatch.setattr(charfun, "_set_row",
                        lambda p: rows.append(p) or real_row(p))
    solves = []
    real_solve = sensitivity.dominant_eigenvalue

    def solve(sets, tol):
        solves.append(len(rows))
        return real_solve(sets, tol)
    monkeypatch.setattr(sensitivity, "dominant_eigenvalue", solve)
    sensitivity.full_report(cs, fd=True)
    assert sizes == [200, 12 * 7, 13 * 19, 403, 403, 403, 403, 91]
    assert solves == [0] and rows == _fd_batch(cs)
    rows.clear()
    dominant_eigenvalue(cs)
    assert rows == [cs]


@pytest.mark.parametrize("stubbed, sign, grids", [
    ([1], 0, [200]),                    # a zero sign in one window
    (range(1, 13), 1, [600] * 4)])      # no sign change in any window
def test_a_window_that_does_not_settle_falls_back_to_the_whole_grid(
        cs, monkeypatch, stubbed, sign, grids):
    # the stub touches only the window call; the sets it unsettles scan
    # their whole grids in the next call(s), 2400 points making four of 600
    sizes = []
    real = spectrum.return_map

    def stub(lam, sets, owner):
        sizes.append(lam.size)
        signs = real(lam, sets, owner).delta_sign
        if len(sizes) == 2:
            signs = np.where(np.isin(owner, stubbed), sign, signs)
        return SimpleNamespace(delta_sign=signs)
    monkeypatch.setattr(spectrum, "return_map", stub)
    sets = _fd_batch(cs)
    roots = dominant_eigenvalue(sets)
    assert sizes[:3 + len(grids)] == [200, 12 * 7, *grids, 13 * 19]
    monkeypatch.undo()
    assert [root.hex() for root in roots] == _PINNED_FD_BATCH
    assert roots == [dominant_eigenvalue(p) for p in sets]


def test_near_limit_root_inside_tol_matches_the_perturbation(cs):
    # v1 = v3 = 1.275 (1 + eps), v2 = v4 = 1.275 (1 - eps): first-order
    # perturbation of the limit's zero mode gives lambda0 = -0.61866 eps,
    # here -6.2e-11, inside (-tol, 0)
    eps, tol = 1e-10, 1e-10
    up, down = 1.275 * (1.0 + eps), 1.275 * (1.0 - eps)
    p = ModelParams(up, down, up, down, R=18.0, P=1.03)
    lam = dominant_eigenvalue(p, tol)
    assert -tol < lam < 0.0
    assert abs(lam - (-0.61866 * eps)) < tol
    assert return_map(-tol, p).delta_sign == -return_map(0.0, p).delta_sign
    assert dominant_eigenvalue([cs, p], tol) == [dominant_eigenvalue(cs, tol),
                                                 lam]


# float.hex of the case-study lambda0 by tol, and of the 13 roots (lambda0,
# then each parameter at theta + h and theta - h) of full_report's lockstep
# solve at tol 1e-10: any change to Delta's arithmetic that moves a root
# shows here
_PINNED_LAMBDA0 = {1e-8: "-0x1.c41acd3dc00b4p-4",
                   1e-10: "-0x1.c41acd63373e4p-4",
                   1e-12: "-0x1.c41acd62a446ep-4"}
_PINNED_FD_BATCH = [
    "-0x1.c41acd63373e4p-4", "-0x1.c427c7d31d1d3p-4", "-0x1.c40dd16623662p-4",
    "-0x1.c410673c899a2p-4", "-0x1.c425360f24090p-4", "-0x1.c42e1b1aeb023p-4",
    "-0x1.c4077d0fa06d4p-4", "-0x1.c3ff85ead837ap-4", "-0x1.c4361870ca92dp-4",
    "-0x1.c41960fcc3c11p-4", "-0x1.c41c39b797074p-4", "-0x1.c430fbd5297b2p-4",
    "-0x1.c404a381dc0e2p-4"]


def test_roots_are_pinned_bit_for_bit(cs, monkeypatch):
    for tol, pinned in _PINNED_LAMBDA0.items():
        assert dominant_eigenvalue(cs, tol).hex() == pinned
    batches = []
    real = sensitivity.dominant_eigenvalue

    def recorded(sets, tol):
        batches.append(real(sets, tol))
        return batches[-1]
    monkeypatch.setattr(sensitivity, "dominant_eigenvalue", recorded)
    sensitivity.full_report(cs, fd=True)
    assert [root.hex() for root in batches[0]] == _PINNED_FD_BATCH


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


def _near_limit_set(eps) -> ModelParams:
    """The case study's R and P with v1 = v3 = 1.275 (1 + eps) and
    v2 = v4 = 1.275 (1 - eps): lambda0 is about -0.619 eps."""
    up, down = 1.275 * (1.0 + eps), 1.275 * (1.0 - eps)
    return ModelParams(up, down, up, down, R=18.0, P=1.03)


@seed(20261019)
@settings(max_examples=30, deadline=None, database=None)
@given(st.one_of(_BOX_SETS, st.floats(-9.0, -3.0).map(
           lambda e: _near_limit_set(10.0 ** e))),
       st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_fd_batches_equal_the_loop(p, tol):
    # the windows of the twelve neighbours settle the cell the whole grid
    # gives, or fall back to it: near the limit lambda0 lies inside
    # (-tol, 0) or a few grid cells from it
    sets = _fd_batch(p)
    try:
        looped = [dominant_eigenvalue(q, tol) for q in sets]
    except MovingBedError:
        with pytest.raises(MovingBedError):
            dominant_eigenvalue(sets, tol)
        return
    assert dominant_eigenvalue(sets, tol) == looped


def _step_sign(roots, zeros=()):
    """Sign, over float arrays, of a function that changes sign at each of
    roots and is 0 exactly at each of zeros."""
    roots = np.sort(roots)

    def sign(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.isin(x, zeros), 0,
                        1 - 2 * (np.searchsorted(roots, x) % 2))
    return sign


@pytest.mark.parametrize("depth", [1, 2, 5, 7])
def test_the_replay_is_scalar_bisection_at_any_depth(cs, monkeypatch, depth):
    # seeded sign functions, half their cells with a zero on a midpoint
    # scalar bisection visits (mostly inside a round); rounds x depth >= 300,
    # so the round cap stops no cell before scalar bisection's step cap
    monkeypatch.setattr(spectrum, "_TREE_DEPTH", depth)
    monkeypatch.setattr(spectrum, "_MAX_ROUNDS", -(-300 // depth))
    stub = {}
    monkeypatch.setattr(spectrum, "return_map", lambda lam, *args:
                        SimpleNamespace(delta_sign=stub["sign"](lam)))
    rng = np.random.default_rng(depth)
    grid = np.linspace(-1.0, 1.0, 9)
    cells = hits = 0
    for _ in range(20):
        roots = rng.uniform(-1.0, 1.0, rng.integers(1, 8))
        plain, zeros = _step_sign(roots), []
        for i in np.flatnonzero(plain(grid[:-1]) * plain(grid[1:]) < 0):
            if rng.random() < 0.5:
                seen = []
                bisect(lambda x: seen.append(float(x)) or plain(x),
                       grid[i], grid[i + 1], plain(grid[i]), 1e-12)
                zeros.append(seen[rng.integers(len(seen))])
        stub["sign"] = sign = _step_sign(roots, zeros)
        for tol in (1e-12, 1e-300):
            found = real_root_scan(cs, (-1.0, 1.0), grid_n=9, tol=tol,
                                   with_brackets=True)
            for root, a, b in found:
                assert root == bisect(sign, a, b, sign(a),
                                      tol * max(1.0, abs(a)))
            cells += len(found)
            hits += sum(root in zeros for root, _, _ in found)
    assert cells >= 80 and hits >= 30


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
