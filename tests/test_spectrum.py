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
                                limit_spectrum, real_root_scan)
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
    roots = [r for r, _, _ in real_root_scan(cs, (-14.0, -0.01), grid_n=400,
                                             tol=1e-10)]
    assert any(abs(r - lam0) < 1e-6 for r in roots)
    assert any(abs(r + 12.701155) < 1e-4 for r in roots)
    assert any(abs(r + 12.608163) < 1e-4 for r in roots)


def test_real_root_scan_brackets(cs):
    triples = real_root_scan(cs, (-1.0, -0.01), grid_n=100, tol=1e-10)
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
    # cell and one per round of bisection paths, one for the case study;
    # the lambda points of all calls are distinct
    calls = []
    real = spectrum.return_map

    def counted(lam, *sets):
        calls.append(np.atleast_1d(lam).tolist())
        return real(lam, *sets)
    monkeypatch.setattr(spectrum, "return_map", counted)
    dominant_eigenvalue(cs)
    assert [len(call) for call in calls] == [200, 19, 23]
    points = [x for call in calls for x in call]
    assert len(set(points)) == len(points)


def test_dominant_eigenvalue_matches_scalar_bisection(cs, wide_box):
    # each round's midpoints are those scalar bisection visits if the
    # guess is right, and the walk over them is scalar bisection, so on
    # the same signs the root is the same double
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
    # scalar bisection's 300th cell; one grid call and one round, whose
    # regula falsi guess 0 on the ends' values -1 and 1 predicts all 300
    # steps
    sign = lambda x: np.sign(np.asarray(x) - 1e-120)  # noqa: E731
    calls = []

    def stub(lam, *sets):
        calls.append(lam)
        return SimpleNamespace(delta=sign(lam))
    monkeypatch.setattr(spectrum, "return_map", stub)
    ref = bisect(sign, -1.0, 1.0, -1.0, 1e-300)
    assert ref == 4.909093465297727e-91
    assert real_root_scan(cs, (-1.0, 1.0), grid_n=2, tol=1e-300) \
        == [(ref, -1.0, 1.0)]
    assert [len(lam) for lam in calls] == [2, 300]


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
    # the first set's grid, a 7-point window on each of the 12 others with
    # the first set's cell densified on all 13 grids, and the whole grids
    # of the two whose windows do not settle
    sizes = _counting(monkeypatch)
    dominant_eigenvalue([cs, *wide_box[:12]])
    assert sizes[:3] == [200, 12 * 7 + 13 * 19, 2 * 200]
    assert max(sizes) <= spectrum._MAX_POINTS
    assert len(sizes) <= 4 + 1 + 7


def test_batch_refusals_come_before_any_delta_evaluation(cs, lp,
                                                         monkeypatch):
    sizes = _counting(monkeypatch)
    with pytest.raises(ValidationError):
        dominant_eigenvalue([])
    # M0 < R = 5 for the second set, while the case study's M0 is 6.69;
    # a set at the limit before it has no M0, and the index stays the
    # caller's
    for sets in ([cs, replace(cs, R=5.0)], [lp, replace(cs, R=5.0)]):
        with pytest.raises(ValidationError, match=r"\(set 1\)$"):
            dominant_eigenvalue(sets, tol=6.0)
    # tol is checked first, at the limit too
    with pytest.raises(ValidationError, match="'tol'"):
        dominant_eigenvalue([lp, cs], tol=-1.0)
    # not a ModelParams: a number, a string's characters, a None
    for params, i in ((5, 0), ("ab", 0), ([cs, None], 1)):
        with pytest.raises(ValidationError, match=rf"\(set {i}\)$"):
            dominant_eigenvalue(params)
    assert sizes == []


def test_equal_velocities_give_zero_with_no_delta_evaluation(lp,
                                                             monkeypatch):
    sizes = _counting(monkeypatch)
    assert dominant_eigenvalue(lp) == 0.0
    sets = [lp, limit_params(v=2.0, R=0.5)]
    assert dominant_eigenvalue(sets) == [0.0, 0.0]
    # no M0 bounds tol where there is no bracket
    assert dominant_eigenvalue(lp, tol=1e300) == 0.0
    assert sizes == []


def test_limit_sets_in_a_batch_leave_the_other_roots_bit_equal(cs, lp,
                                                              wide_box):
    lam = dominant_eigenvalue(cs)
    assert dominant_eigenvalue([cs, lp, cs]) == [lam, 0.0, lam]
    # the windows anchor on the first set that is not at the limit
    batch = [cs, *wide_box[:12]]
    assert dominant_eigenvalue([lp, *batch, lp]) == [
        0.0, *dominant_eigenvalue(batch), 0.0]


def test_batch_no_sign_change_names_the_set(cs, monkeypatch):
    # set 1's Delta is stubbed to keep one sign on its grid and at 0,
    # which no valid set was seen to do, while the case study's -0.1104
    # lies on its grid
    real = spectrum.return_map

    def stub(lam, sets, owner):
        values = real(lam, sets, owner).delta
        return SimpleNamespace(delta=np.where(owner == 1, 1.0, values))
    monkeypatch.setattr(spectrum, "return_map", stub)
    with pytest.raises(NoSignChangeFound, match=r"\(set 1\)$"):
        dominant_eigenvalue([cs, replace(cs, R=24.0)], tol=0.108)
    # a set at the limit is not solved, but the index is the caller's
    with pytest.raises(NoSignChangeFound, match=r"\(set 2\)$"):
        dominant_eigenvalue([limit_params(), cs, replace(cs, R=24.0)],
                            tol=0.108)


def test_a_root_between_minus_tol_and_0_is_bisected_there(cs, monkeypatch):
    # lambda0 = -0.1048 at R = 24 lies above the grid's end -tol = -0.108,
    # so its window round the case study's cell (5 points, with that cell
    # densified on both grids) holds no sign change and it scans its
    # whole grid; Delta(0) shows the sign change, and only that set pays
    # for it
    calls = []
    real = spectrum.return_map

    def counted(lam, *args):
        calls.append(np.atleast_1d(lam).size)
        return real(lam, *args)
    monkeypatch.setattr(spectrum, "return_map", counted)
    lam0, lam = dominant_eigenvalue([cs, replace(cs, R=24.0)], tol=0.108)
    assert lam0 == dominant_eigenvalue(cs, tol=0.108)
    assert -0.108 < lam < 0.0 and abs(lam + 0.10482181834723969) < 0.108
    assert calls[:4] == [200, 5 + 2 * 19, 200, 1]


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
    # the case study's grid, then a 7-point window on each of its 12 FD
    # neighbours with the 13 densified cells, and two rounds of bisection
    # paths, the second for one set; each set's constant row is built
    # once per solve, not once per call
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
    assert sizes == [200, 12 * 7 + 13 * 19, 299, 1]
    assert solves == [0] and rows == _fd_batch(cs)
    rows.clear()
    dominant_eigenvalue(cs)
    assert rows == [cs]


@pytest.mark.parametrize("stubbed, value, grids", [
    ([1], 0, [200]),                    # a zero Delta in one window
    (range(1, 13), 1, [600] * 4)])      # no sign change in any window
def test_a_window_that_does_not_settle_falls_back_to_the_whole_grid(
        cs, monkeypatch, stubbed, value, grids):
    # the stub touches only the window call; the sets it unsettles scan
    # their whole grids in the next call(s), 2400 points making four of
    # 600, and then densify their cells, 19 points each
    sizes = []
    real = spectrum.return_map

    def stub(lam, sets, owner):
        sizes.append(lam.size)
        values = real(lam, sets, owner).delta
        if len(sizes) == 2:
            values = np.where(np.isin(owner, stubbed), float(value), values)
        return SimpleNamespace(delta=values)
    monkeypatch.setattr(spectrum, "return_map", stub)
    sets = _fd_batch(cs)
    roots = dominant_eigenvalue(sets)
    assert sizes[:3 + len(grids)] == [200, 12 * 7 + 13 * 19, *grids,
                                      len(stubbed) * 19]
    monkeypatch.undo()
    assert [root.hex() for root in roots] == _PINNED_FD_BATCH
    assert roots == [dominant_eigenvalue(p) for p in sets]


def test_a_window_settled_off_the_first_cell_densifies_in_the_next_call(
        cs, monkeypatch):
    # at v4 = 1.0608 lambda0 = -0.1011 lies in cell 165 of its own grid,
    # in its window round the case study's cell 166 but not in that cell:
    # the window call densified cell 166 on its grid, which it does not
    # use, and its own cell is densified in the next call
    p = replace(cs, v4=1.0608)
    sizes = _counting(monkeypatch)
    roots = dominant_eigenvalue([cs, p])
    assert sizes[:3] == [200, 7 + 2 * 19, 19]
    monkeypatch.undo()
    assert roots == [dominant_eigenvalue(cs), dominant_eigenvalue(p)]
    for q, lam, k in ((cs, roots[0], 166), (p, roots[1], 165)):
        grid = -np.geomspace(1e-10, bracket_bound(q).M0, 200)
        assert grid[k + 1] < lam < grid[k]


def test_a_first_set_with_delta_0_at_its_grid_end_keeps_the_batch(
        cs, monkeypatch):
    # the first set's Delta is stubbed to 1 on its grid but 0 at its end
    # -M0, so its grid cell k is the last point, and the window call's
    # densified cell (k, k + 1) runs past the grid
    end = -bracket_bound(cs).M0
    real = spectrum.return_map

    def stub(lam, sets, owner):
        values = real(lam, sets, owner).delta
        first = np.where(lam == end, 0.0, 1.0)
        return SimpleNamespace(delta=np.where(owner == 0, first, values))
    monkeypatch.setattr(spectrum, "return_map", stub)
    p = replace(cs, R=20.0)
    roots = dominant_eigenvalue([cs, p])
    monkeypatch.undo()
    assert roots == [end, dominant_eigenvalue(p)]


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


def test_a_grid_within_an_ulp_of_tol_leaves_the_other_grids_alone(cs):
    # at R = 1e-12 tol one ulp below M0 makes log10 M0 == log10 tol; with
    # every grid in one np.geomspace call the case study's grid was then
    # built another way, and its root in the batch read
    # -0.11037712315215417 against -0.11037712315215462 alone
    p = replace(cs, R=1e-12)
    tol = float(np.nextafter(bracket_bound(p).M0, 0.0))
    assert dominant_eigenvalue([cs, p], tol) == [dominant_eigenvalue(cs, tol),
                                                 dominant_eigenvalue(p, tol)]


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


# ROADMAP item 1's sets A and B, each with two real roots of Delta in one
# cell of its grid, and near-limit sets whose lambda0 lies in or next to
# (-tol, 0): where a root guess is most likely to be wrong
_MISLEADING_SETS = {
    "A": ModelParams(1.4002052812516288, 1.1121021658796262,
                     1.5631947713267016, 1.0089966607307115,
                     R=133.56070842750597, P=1.03),
    "B": ModelParams(1.8075995603886044, 0.9905953198623944,
                     1.656872759690302, 0.9825388222433148,
                     R=23.496307876930583, P=1.1302767114728265),
    **{f"eps-1e-{k}": _near_limit_set(10.0 ** -k) for k in range(3, 10)}}


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("name", _MISLEADING_SETS)
def test_hard_guesses_keep_the_scalar_bisection_root(name, tol):
    # equality with the oracle's search, which walks the same grid; it
    # does not show that the root is the dominant one (ROADMAP item 1)
    p = _MISLEADING_SETS[name]
    ref = bisect_dominant(lambda x: return_map(x, p).delta_sign,
                          bracket_bound(p).M0, tol)
    assert dominant_eigenvalue(p, tol) == ref


def test_root_guesses_keep_the_delta_calls_down(wide_box, monkeypatch):
    # a lambda0 solve is its grid, its densified cell and mostly one
    # round of bisection paths, and full_report's lockstep solve densifies
    # its cells in the call of its twelve FD neighbours' windows; a worse
    # guess means more rounds
    sizes = _counting(monkeypatch)
    one, fd = [], []
    for p in wide_box:
        sizes.clear()
        dominant_eigenvalue(p)
        one.append(len(sizes))
        sizes.clear()
        sensitivity.full_report(p, fd=True)
        fd.append(len(sizes))
    assert np.mean(one) <= 3.5 and np.mean(fd) <= 3.75


def _step_values(roots, zeros, power):
    """A function over float arrays that changes sign at each of roots, is
    0 exactly at each of zeros, and elsewhere has the modulus d ** power,
    d the distance to the nearest root: regula falsi on its values guesses
    the cell's midpoint (power 0), nearly the root (1) or far off (3)."""
    roots = np.sort(roots)

    def values(x):
        x = np.asarray(x, dtype=float)
        d = np.abs(x[..., None] - roots).min(axis=-1)
        step = 1 - 2 * (np.searchsorted(roots, x) % 2)
        return np.where(np.isin(x, zeros), 0.0, step * d ** power)
    return values


@pytest.mark.parametrize("seed", [1, 2, 5, 7])
def test_the_replay_is_scalar_bisection_for_any_guess(monkeypatch, seed):
    # seeded functions, half their cells with a zero on a midpoint scalar
    # bisection visits, on rising and falling grids; each cell's first
    # guess is drawn from: none (regula falsi), its ends, outside it, its
    # root, nan and +-inf, a point inside, or none with an infinite end
    # value (regula falsi gives nan); later rounds guess by regula falsi
    stub = {}
    monkeypatch.setattr(spectrum, "return_map", lambda lam, *args:
                        SimpleNamespace(delta=stub["values"](lam)))
    rng = np.random.default_rng(seed)
    cells = hits = 0
    for _ in range(20):
        roots = rng.uniform(-1.0, 1.0, rng.integers(1, 8))
        grid = np.linspace(-1.0, 1.0, 9)[::rng.choice([1, -1])]
        power = rng.choice([0, 1, 3])
        plain = _step_values(roots, (), power)
        ends = plain(grid)
        found, zeros = [], []
        for i in np.flatnonzero(ends[:-1] * ends[1:] < 0):
            a, b = float(grid[i]), float(grid[i + 1])
            root = float(roots[(roots - a) * (roots - b) < 0][0])
            if rng.random() < 0.5:
                seen = []
                bisect(lambda x: seen.append(float(x)) or np.sign(plain(x)),
                       a, b, np.sign(ends[i]), 1e-12)
                root = seen[rng.integers(len(seen))]
                zeros.append(root)
            fa, fb = float(ends[i]), float(ends[i + 1])
            guess = [None, a, b, 2 * a - b, b + 3 * (b - a), root, math.nan,
                     math.inf, -math.inf, a + (b - a) * rng.random(),
                     None][rng.integers(11)]
            if guess is None and rng.random() < 0.5:
                fa = math.copysign(math.inf, fa)
            found.append(((a, b, fa, fb), guess))
        stub["values"] = values = _step_values(roots, zeros, power)
        sign = lambda x: np.sign(values(x))  # noqa: E731
        for tol in (1e-12, 1e-300):
            got = spectrum._bisect([cell for cell, _ in found], None,
                                   [0] * len(found), [tol] * len(found),
                                   [guess for _, guess in found])
            for root, ((a, b, _, _), _) in zip(got, found):
                assert root == bisect(sign, a, b, sign(a), tol)
            cells += len(found)
            hits += sum(root in zeros for root in got)
    assert cells >= 80 and hits >= 30


def _one_by_one(start, stop, num):
    """-np.geomspace(start, stop, num) row by row: each set's own grid."""
    return np.array([-np.geomspace(a, b, num)
                     for a, b in np.broadcast(start, stop)])


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-20])
def test_grids_are_numpy_geomspace_bit_for_bit(tol):
    # the 200-point grids -np.geomspace(tol, M0, 200, axis=1), whole and at
    # a window's columns, and the densified cells -np.geomspace(-a, -b, 21,
    # axis=1) from a few ulps to 1e-3 wide: if numpy's geomspace changes,
    # this fails, not the root pins
    rng = np.random.default_rng(9)
    M0 = []
    for _ in range(200):        # the broad domain of test_sensitivity
        v = np.sort(rng.uniform(0.3, 3.0, 4))
        R, P = np.exp(rng.uniform(np.log([0.1, 0.1]), np.log([200.0, 6.3])))
        M0.append(bracket_bound(ModelParams(v[2], v[0], v[3], v[1], R=R,
                                            P=P)).M0)
    M0 = np.array([m for m in M0 if m > tol])
    grids = spectrum._geomspace(tol, M0, 200, spectrum._COLS)
    assert grids.tobytes() == (-np.geomspace(tol, M0, 200, axis=1)).tobytes()
    for k in (0, 1, 2, 3, 100, 196, 197, 198, 199):
        lo, hi = max(k - 2, 1), min(k + 4, 200)
        cols = np.r_[0, lo:hi].astype(float)
        window = spectrum._geomspace(tol, M0, 200, cols)
        assert window.tobytes() == grids[:, cols.astype(int)].tobytes()
    # M0 from one to a thousand ulps above tol, where log10 M0 may equal
    # log10 tol: np.geomspace then builds a whole call another way, so
    # these are compared set by set
    near = tol * (1.0 + np.finfo(float).eps * np.array([1, 2, 3, 10, 1e3]))
    assert (spectrum._geomspace(tol, near, 200, spectrum._COLS).tobytes()
            == _one_by_one(tol, near, 200).tobytes())
    # densified cells: grid cells, and cells a few ulps to 1e-3 wide
    rows, k = np.arange(len(M0)), rng.integers(0, 199, len(M0))
    a = -grids[rows, k]
    width = 10.0 ** rng.uniform(-15.5, -3.0, len(a))
    for b in (-grids[rows, k + 1], np.nextafter(a * (1.0 + width), np.inf)):
        dense = spectrum._geomspace(a, b, 21, spectrum._DENSE)
        assert dense.tobytes() == _one_by_one(a, b, 21).tobytes()
        assert (spectrum._geomspace(a, b, 21, spectrum._DENSE[1:-1]).tobytes()
                == dense[:, 1:-1].tobytes())


def test_real_root_scan_matches_scalar_bisection(cs):
    found = real_root_scan(cs, (-14.0, -0.01), grid_n=400, tol=1e-10)
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


@pytest.mark.parametrize("P", [0.8, 0.5])
def test_limit_asymptote_converges_below_p_one(P):
    # below P = 1 the fast branch is lambda_k^+ and the slow one
    # lambda_k^-: each branch's err * k^3 is non-increasing
    params = limit_params(P=P)
    table = {e.k: e for e in limit_spectrum(params, k_max=80)}
    ks = (20, 30, 40, 60, 80)
    for branch in (0, 1):
        scaled = [abs((table[k].lambda_plus, table[k].lambda_minus)[branch]
                      - limit_asymptote(params, k)[branch]) * k ** 3
                  for k in ks]
        assert all(a >= b for a, b in zip(scaled, scaled[1:])), scaled


def test_imaginary_vanishing_k(lp):
    k_star = imaginary_vanishing_k(lp)
    assert k_star == pytest.approx(14.340311264045784, rel=1e-12)
    # equal phase speeds: the prefactor 1/(v-1) blows up, no crossing
    assert imaginary_vanishing_k(limit_params(v=1.0)) is None


def test_imaginary_vanishing_k_is_none_for_a_nonpositive_radicand():
    # 2 (P^2 v^2 - (P^4 + 1) v + P^2) / v < 0 at v = 2, P = 0.1
    assert imaginary_vanishing_k(limit_params(v=2.0, P=0.1)) is None


def test_limit_asymptote_refuses_k_zero(lp):
    with pytest.raises(ValidationError, match="k != 0"):
        limit_asymptote(lp, 0)


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
