"""Real-eigenvalue location, the closed-form equal-velocity spectrum, and
a Chebyshev collocation cross-check.

The dominant eigenvalue is 0 exactly at equal velocities, where no bracket
exists and no Delta is evaluated.  Otherwise it is the largest real root
of Delta(lambda); it lives in [-M0, 0) where M0 is an explicit bracket
derived from the port velocities.  Delta is extremely steep near that
root (slopes beyond 1e6),
so roots are located by sign changes on a geometric grid accumulating at
0- and refined by bisection on interval width, never on |Delta|.  Grids
are evaluated as lambda arrays, one return_map call each (or a few, for
more than _MAX_POINTS points), and so is each round of bisection: the
whole path bisection takes if a guess at the root is right, interpolated
from Delta's values, is evaluated at once and bisection replayed on its
signs, so the guess sets the number of calls and never the root.
Several parameter sets share every call, with their constants built
once per solve.  In such a batch only the first set scans its whole
grid at once; each later set scans a window of its grid around the
first set's root cell, and its whole grid only when the window cannot
settle its cell.  The window suffices because the dominant eigenvalue
has no real root of Delta between it and 0.  The window call also
densifies the first set's root cell on every set's grid, for each set
whose window settles there.  A grid is built only at the points a call
evaluates, and each stage finds the cells of all its sets as arrays.
"""

from __future__ import annotations

import cmath
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .charfun import _set_table, return_map
from .errors import (EigSolverFailure, LimitCaseHasNoBracket, NotLimitCase,
                     NoSignChangeFound, ValidationError)
from .params import (PORTS, ModelParams, check_count, check_instance,
                     check_items, check_pair, check_real)


@dataclass(frozen=True)
class BracketBudget:
    """Lower bracket -M0 for the dominant eigenvalue, with the positive
    quantity Q0 appearing in its derivation."""

    M0: float
    Q0: float


def _bracket(params: ModelParams) -> tuple:
    """(M0, R P Q0) of ``bracket_bound``, for a set of unequal
    velocities."""
    v_min, v_max = min(params.v), max(params.v)
    R, P = params.R, params.P
    denom = v_min * (v_max - v_min) / 2.0 + v_max * (R * P * P + 1.0)
    return R - R * R * P * P * v_min / denom, denom


def bracket_bound(params: ModelParams) -> BracketBudget:
    """Explicit 0 < M0 < R with the dominant eigenvalue in [-M0, 0);
    LimitCaseHasNoBracket at equal velocities, where it is 0."""
    if check_instance("params", params, ModelParams).limit_case:
        raise LimitCaseHasNoBracket(
            "equal velocities: the dominant eigenvalue is 0 exactly")
    M0, denom = _bracket(params)
    return BracketBudget(M0=M0, Q0=denom / (params.R * params.P))


# Most lambda points per return_map call.  The largest stage of a batch
# is the whole grids of the later sets whose windows do not settle: 2400
# points for 12 sets, whose temporaries peak at about 1.3 MB in one pass
# against 0.33 MB in each of four calls of 600, for no gain in speed.
# full_report's window call is one: 12 windows of 7 points and 13
# densified cells of 19, 12*7 + 13*19 = 331 points.  A round of
# bisection paths is one call: a path is about 23 points at
# tol 1e-10, so the 13 sets of full_report take 299, and 603 at tol
# 1e-20, where the paths end at adjacent doubles.
_MAX_POINTS = 650


def _delta_values(lams: np.ndarray, table, owner) -> np.ndarray:
    """Delta at the real points lams, a flat array: point i under the set
    of column owner[i] of table, a ``_set_table``, in return_map calls of
    at most _MAX_POINTS points.  Its sign is return_map's delta_sign:
    Delta = z e^L with L >= 0, so it does not underflow, and an overflow
    is an infinity of z's sign (0 where z is 0)."""
    # equal calls: 2400 points make four of 600, 2000 four of 500
    size = -(-lams.size // -(-lams.size // _MAX_POINTS))
    with np.errstate(invalid="ignore"):     # 0 * inf: Delta is 0 there
        parts = [return_map(lams[i:i + size], table,
                            owner[i:i + size]).delta
                 for i in range(0, lams.size, size)]
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    values[np.isnan(values)] = 0.0
    return values


def _geomspace(start, stop, num: int, cols: np.ndarray) -> np.ndarray:
    """-np.geomspace(start, stop, num, axis=1)[:, cols], bit for bit, for
    positive start (one number, or one per row), stop (one per row) and
    ascending float indices cols: numpy's own steps (log10 of both ends,
    cols * step + log10 start, 10 to that power, the exact ends put back)
    at those columns only, without its generic path.

    Each row is built alone.  np.geomspace differs only in a call where
    some row has log10(start) == log10(stop) (a grid within a few ulps):
    that row is the same, but every other row of the call is then built
    as cols / (num - 1) * (log10 stop - log10 start), which rounds
    otherwise.
    """
    lo, hi = np.log10(start), np.log10(stop)
    x = cols[:, None] * ((hi - lo) / (num - 1))
    x += lo
    np.power(10.0, x, out=x)
    if cols[0] == 0:
        x[0] = start
    if cols[-1] == num - 1:
        x[-1] = stop
    return -x.T


def _hits(values) -> np.ndarray:
    """Where, along the last axis of values, Delta is 0 or changes sign
    before the next point."""
    signs = np.sign(values)
    hits = signs == 0
    hits[..., :-1] |= signs[..., :-1] * signs[..., 1:] < 0
    return hits


def _cells(xs, values, rows, i) -> np.ndarray:
    """The cells at the hits (rows, i) of the grids xs with the given Delta
    values, one row (a, b, Delta at a, Delta at b) each: the zero point
    (x, x, 0, 0) or the sign change to the next point."""
    j = i + (values[rows, i] != 0)
    return np.array((xs[rows, i], xs[rows, j], values[rows, i],
                     values[rows, j])).T


_EYE8 = np.eye(8, dtype=bool)


def _inverse_interpolation(xs, values, first) -> np.ndarray:
    """Per row of the grids xs with Delta values, the x where the
    polynomial x(Delta) through the eight points around the cell (first,
    first + 1), indices first - 3 .. first + 4 shifted into the grid, has
    Delta = 0: a root guess, not finite where two values coincide."""
    k = (np.minimum(np.maximum(first - 3, 0), xs.shape[1] - 8)[:, None]
         + np.arange(8))
    rows = np.arange(len(xs))[:, None]
    x, f = xs[rows, k], values[rows, k]
    with np.errstate(all="ignore"):
        # Lagrange weights at 0: the product over m != n of f_m / (f_m - f_n)
        w = f[:, None, :] / (f[:, None, :] - f[:, :, None])
        w[:, _EYE8] = 1.0
        return (w.prod(axis=2) * x).sum(axis=1)


def _path(a: float, b: float, guess: float, tol: float, steps: int) -> list:
    """The midpoints scalar bisection visits from the cell (a, b), after
    ``steps`` of its at most 300 steps, if Delta changes sign at guess.

    It stops where the cell is narrower than tol, or where its ends are
    adjacent doubles: there bisection would step in place to its cap and
    return the same midpoint.
    """
    mids = []
    rising = a < b
    for _ in range(300 - steps):
        if abs(b - a) < tol:
            break
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        mids.append(mid)
        if (mid <= guess) == rising:
            a = mid
        else:
            b = mid
    return mids


def _bisect(cells, table: np.ndarray, owner, tols: list,
            guesses=None) -> list:
    """Roots in cells (a, b, Delta at a, Delta at b), rows as ``_cells``
    gives them: bisection, stopped on width, each cell to its own tol and
    under its own set, of column owner[i] of table (as for
    ``_delta_values``).

    Every round evaluates the ``_path`` of each open cell from a guess at
    its root in one ``_delta_values``: guesses[i] in the first round,
    where given (not None), later regula falsi on the cell's ends, and the
    midpoint where the guess is not strictly inside the cell.  Each cell
    then takes the steps of scalar bisection on the signs of those values
    until it reaches a midpoint that was not evaluated, where the guess
    was on the wrong side of a midpoint; it stays open with the ends it
    reached.  So a guess sets only the number of rounds, and each root is
    the double scalar bisection gives: a midpoint with Delta 0, or the
    midpoint of a cell whose path is empty (narrower than tol, with
    adjacent ends, or after 300 steps).
    """
    roots = [None] * len(cells)
    # cell index -> (a, b, Delta at a, Delta at b, guess, steps taken)
    open_ = {i: (*cell, None if guesses is None else guesses[i], 0)
             for i, cell in enumerate(
                 np.asarray(cells, dtype=float).reshape(-1, 4).tolist())}
    while open_:
        paths = {}
        for i, (a, b, fa, fb, guess, steps) in list(open_.items()):
            mids = []
            if abs(b - a) >= tols[i]:
                if guess is None:
                    guess = a + (b - a) * fa / (fa - fb)    # regula falsi
                if not min(a, b) < guess < max(a, b):   # nan, inf or an end
                    guess = 0.5 * (a + b)
                mids = _path(a, b, guess, tols[i], steps)
            if mids:
                paths[i] = mids
            else:
                roots[i] = 0.5 * (a + b)
                del open_[i]
        if not paths:
            break
        values = _delta_values(
            np.array([mid for mids in paths.values() for mid in mids]), table,
            np.repeat([owner[i] for i in paths],
                      [len(mids) for mids in paths.values()])).tolist()
        at = 0
        for i, mids in paths.items():
            a, b, fa, fb, _, steps = open_[i]
            for mid, f in zip(mids, values[at:at + len(mids)]):
                if mid != 0.5 * (a + b):    # the path went the other way
                    break
                if f == 0:
                    roots[i] = mid
                    break
                steps += 1
                if (f > 0) == (fa > 0):
                    a, fa = mid, f
                else:
                    b, fb = mid, f
            at += len(mids)
            if roots[i] is None:
                open_[i] = (a, b, fa, fb, None, steps)
            else:
                del open_[i]
    return roots


def _grid_cells(tol: float, M0, table, rows) -> tuple:
    """(cells, first): the first cell on the whole grid of each set in
    rows, of bracket width M0[rows], from one ``_delta_values``, and the
    grid index of its first point; a grid that keeps one sign gives (its
    -tol end, 0.0, Delta there, nan), the cell up to 0 that Delta(0) must
    confirm."""
    xs = _geomspace(tol, M0[rows], _GRID_N, _COLS)
    values = _delta_values(xs.ravel(), table, np.repeat(
        rows, _GRID_N)).reshape(len(rows), -1)
    hits = _hits(values)
    first = hits.argmax(axis=1)
    cells = _cells(xs, values, np.arange(len(rows)), first)
    cells[~hits.any(axis=1), 1::2] = 0.0, math.nan
    return cells, first


# The window of grid indices a later set of a batch scans first: k-2 ..
# k+3 around the first set's first sign cell k.
_WINDOW = (-2, 4)
# Points of the geometric grid and of the densified first cell (the
# densified cell's ends are known, so 19 of its 21 points are evaluated).
_GRID_N, _DENSE_N = 200, 21
# the indices of all their points, for _geomspace
_COLS, _DENSE = np.arange(float(_GRID_N)), np.arange(float(_DENSE_N))


def dominant_eigenvalue(params, tol: float = 1e-10):
    """The dominant eigenvalue: 0.0 exactly at equal velocities, with no
    Delta evaluated, and otherwise the largest real root of Delta in
    [-M0, 0).

    Takes the first sign change on a 200-point geometric grid from -tol
    toward -M0 (the root hugs 0 while Delta stays nearly flat over most of
    the bracket), densifies that cell tenfold and takes its first sign
    change, then bisects to |interval| < tol, guided by the polynomial
    through the eight densified points around that change.  A grid
    without a sign change is followed by Delta(0): a root in (-tol, 0) is
    bisected there, and NoSignChangeFound is raised only if the sign at 0
    is the same.  Below the spacing of doubles near the root (tol 1e-20,
    say) the sign of Delta within a few ulps of it is rounding noise, the
    guided paths miss after a step or two, and a one-set solve takes 6-10
    return_map calls instead of 3-4; the root is still scalar
    bisection's.

    params is one ModelParams, which gives a float, or a sequence of them,
    which gives a list of floats, each the float the set gives alone.  The
    sets of a sequence that are not at the limit are solved in lockstep,
    and "the first set" below is the first of them: each stage (the grids,
    the densified cells, each round of bisection paths) is one
    ``_delta_values`` over the points of all those sets, and each set's
    constants are built once.  The first set scans its whole grid.  Each
    later set scans its own grid at -tol and at the indices k-2 .. k+3 (its
    window) around the first set's first sign cell k; when none of these
    signs is 0, the window's first sign is the sign at -tol and the window
    holds a sign change, the window's first sign cell is the set's cell.
    Every other set (the first set has no grid cell, or the window does not
    settle) scans its whole grid in the next call.  The window call also
    densifies cell k on every set's grid; the first set and each set whose
    window settles on cell k take their densified cells from it, and every
    other set's cell is densified in the next call.  In the batch
    full_report solves, lambda0 and its finite-difference neighbours, each
    neighbour's lambda0 lies in the first set's grid cell or the next one,
    so in its window, and it is the dominant eigenvalue (Krein-Rutman), so
    Delta has no real root between it and 0: the settled cell is the cell
    the whole grid gives.
    In any batch, the sign check refuses a window with one root between
    it and -tol; only an even number of them could pass it.

    tol is checked first, then every set (its type by
    ``params.check_items``, then tol against M0 where the velocities are
    not equal), all before Delta is evaluated; errors about a sequence, or
    anything else that is not one ModelParams, name the index of the set
    at fault in the sequence ("set i").
    """
    tol = check_real("tol", tol, gt=0.0)
    sets, single = check_items("set", params, ModelParams)
    if not sets:
        raise ValidationError("no parameter sets to solve")
    # equal velocities: 0 exactly; solved set i is the caller's index[i]
    roots = [0.0] * len(sets)
    index = [i for i, p in enumerate(sets) if not p.limit_case]
    sets = [sets[i] for i in index]
    if not sets:
        return roots[0] if single else roots
    table = _set_table(sets)

    # where an error names its set (formatted only when raising): nowhere
    # for a single one
    def at(i: int) -> str:
        return "" if single else f" (set {index[i]})"
    M0 = []
    for i, p in enumerate(sets):
        m0 = _bracket(p)[0]
        if tol >= m0:
            raise ValidationError(
                f"tol={tol} exceeds bracket width M0={m0}{at(i)}")
        M0.append(m0)
    M0, n = np.array(M0), len(sets)
    # one row (a, b, Delta at a, Delta at b) per set, nan until found
    cells = np.full((n, 4), math.nan)
    cells[:1], first = _grid_cells(tol, M0, table, np.zeros(1, dtype=int))
    k = int(first[0])
    dense_values = np.empty((n, _DENSE_N))   # Delta on each densified cell
    densified = np.zeros(n, dtype=bool)     # in the window call
    if n > 1 and cells[0, 1] < 0.0:     # the first set has a grid cell k
        # index 0, then the run lo .. hi - 1, k at position k - lo + 1
        lo, hi = max(k + _WINDOW[0], 1), min(k + _WINDOW[1], _GRID_N)
        cols = np.arange(lo - 1.0, hi)
        cols[0] = 0.0
        xs = _geomspace(tol, M0, _GRID_N, cols)
        # the windows, then every set's cell (k, k + 1) densified, kept for
        # the sets whose cell it is (k + 1 is clipped only where the first
        # set's Delta is 0 at the grid's end)
        ends = xs[:, [k - lo + 1, min(k + 1, _GRID_N - 1) - lo + 1]]
        spec = _geomspace(-ends[:, 0], -ends[:, 1], _DENSE_N, _DENSE[1:-1])
        later, m = np.arange(1, n), (n - 1) * len(cols)
        values = _delta_values(
            np.concatenate((xs[1:].ravel(), spec.ravel())), table,
            np.concatenate((np.repeat(later, len(cols)),
                            np.repeat(np.arange(n), _DENSE_N - 2))))
        window = values[:m].reshape(n - 1, -1)
        hits = _hits(window)
        first = hits.argmax(axis=1)
        # settled: no value 0, and the first hit between adjacent indices
        settled = (window.all(axis=1) & hits.any(axis=1)
                   & ((first > 0) | (lo == 1)))
        cells[later[settled]] = _cells(xs[1:], window, later - 1,
                                       first)[settled]
        densified = cells[:, 0] == ends[:, 0]
        dense_values[densified, 1:-1] = values[m:].reshape(n, -1)[densified]
    rest = np.flatnonzero(np.isnan(cells[:, 0]))
    if rest.size:
        cells[rest] = _grid_cells(tol, M0, table, rest)[0]
    # a set whose grid keeps one sign may have its root in (-tol, 0): that
    # cell, tol wide, goes straight to bisection if Delta(0) has the other
    # sign
    flat = np.flatnonzero(cells[:, 1] == 0.0)
    if flat.size:
        f0 = _delta_values(np.zeros(flat.size), table, flat)
        s = np.where(cells[flat, 2] > 0, 1, -1)
        if (s * f0 >= 0).any():
            i = int(np.argmax(s * f0 >= 0))
            raise NoSignChangeFound(
                f"no sign change of Delta on {_GRID_N}-point geometric "
                f"grid in [{-M0[flat[i]]}, {-tol}] or up to 0: its sign is "
                f"{s[i]} throughout{at(flat[i])}")
        cells[flat, 3] = f0
    # the grid cells to densify tenfold: every sign change found on a grid;
    # the densified grid keeps their known ends exactly
    guesses = [None] * n
    dense = np.flatnonzero((cells[:, 2] != 0.0) & (cells[:, 1] < 0.0))
    if dense.size:
        xs = _geomspace(-cells[dense, 0], -cells[dense, 1], _DENSE_N, _DENSE)
        late = ~densified[dense]    # the cells the window call did not densify
        if late.any():
            dense_values[dense[late], 1:-1] = _delta_values(
                xs[late, 1:-1].ravel(), table,
                np.repeat(dense[late], _DENSE_N - 2)).reshape(-1, _DENSE_N - 2)
        values = dense_values[dense]
        values[:, 0], values[:, -1] = cells[dense, 2], cells[dense, 3]
        first = _hits(values).argmax(axis=1)
        for i, guess in zip(dense.tolist(), _inverse_interpolation(
                xs, values, first).tolist()):
            guesses[i] = guess
        cells[dense] = _cells(xs, values, np.arange(dense.size), first)
    for i, root in zip(index, _bisect(cells, table, range(n), [tol] * n,
                                      guesses)):
        roots[i] = root
    return roots[0] if single else roots


def real_root_scan(params: ModelParams, range_: tuple, grid_n: int = 400,
                   tol: float = 1e-12) -> list:
    """All sign-change-bracketed real roots of Delta on [lo, hi], as
    (root, bracket_lo, bracket_hi) triples in ascending order.

    The grid is one return_map call per _MAX_POINTS points, and the
    bisections of all its cells share their calls, each cell's path
    guided by regula falsi on its ends.
    """
    check_count("grid_n", grid_n, 2)
    lo, hi = check_pair("range_", range_)
    tol = check_real("tol", tol, gt=0.0)
    table = _set_table(check_items("set", [params], ModelParams)[0])
    if lo == hi:
        return []
    grid = np.linspace(lo, hi, grid_n)
    values = _delta_values(grid, table, np.zeros(grid_n, dtype=int))
    cells = _cells(grid[None], values[None], 0, np.flatnonzero(_hits(values)))
    roots = _bisect(cells, table, [0] * len(cells),
                    (tol * np.maximum(1.0, np.abs(cells[:, 0]))).tolist())
    return list(zip(roots, *cells[:, :2].T.tolist()))


# ---------------------------------------------------------------------------
# Equal-velocity (limit) closed-form spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitSpectrum:
    """One index k of the equal-velocity spectrum: the pair lambda_k^+/-."""

    k: int
    lambda_plus: complex
    lambda_minus: complex


def _require_limit(params: ModelParams):
    if not check_instance("params", params, ModelParams).limit_case:
        raise NotLimitCase(f"velocities {params.v} are not all equal")


def _uv_from_xy(X: float, Y: float) -> tuple:
    """U = sqrt((hypot(X,Y)+X)/2), V = sign(Y) sqrt((hypot(X,Y)-X)/2),
    evaluated without subtractive cancellation on either side of X=0."""
    hyp = math.hypot(X, Y)
    if X >= 0.0:
        U = math.sqrt((hyp + X) / 2.0)
        V = 0.0 if Y == 0.0 else math.copysign(abs(Y) / (2.0 * U), Y)
    else:
        W = math.sqrt((hyp - X) / 2.0)
        U = 0.0 if Y == 0.0 else abs(Y) / (2.0 * W)
        V = 0.0 if Y == 0.0 else math.copysign(W, Y)
    return U, V


def _finite_in_k(pair_of_k):
    """pair_of_k(params, k), a pair of limit eigenvalues, refused with
    ValidationError naming k where either is not finite or k overflows a
    float on the way."""
    def checked(params: ModelParams, k: int) -> tuple:
        try:
            pair = pair_of_k(params, k)
        except OverflowError:           # an int k that no float holds
            pair = None
        if pair is None or not all(map(cmath.isfinite, pair)):
            raise ValidationError(
                f"k={reprlib.repr(k)} takes the limit eigenvalues beyond "
                "the double range")
        return pair
    return checked


@_finite_in_k
def _limit_pair(params: ModelParams, k: int) -> tuple:
    v, R, P = params.v1, params.R, params.P
    A = R * (1.0 + P * P)
    B = math.pi * k * (v - 1.0) / 2.0
    X = -math.pi ** 2 * k * k * (v + 1.0) ** 2 / 4.0 + R * R * (1.0 + P * P) ** 2
    Y = math.pi * R * (P * P - 1.0) * (v + 1.0) * k
    U, V = _uv_from_xy(X, Y)
    return (complex((-A + U) / 2.0, (-B + V) / 2.0),
            complex((-A - U) / 2.0, (-B - V) / 2.0))


def limit_point(params: ModelParams, k: int) -> LimitSpectrum:
    """lambda_k^+/- for one integer index k (equal velocities)."""
    _require_limit(params)
    lam_p, lam_m = _limit_pair(params, check_count("k", k))
    return LimitSpectrum(k=k, lambda_plus=lam_p, lambda_minus=lam_m)


def limit_spectrum(params: ModelParams, k_max: int = 80) -> list:
    """The closed-form spectrum for k = -k_max .. k_max."""
    _require_limit(params)
    check_count("k_max", k_max, 0)
    return [limit_point(params, k) for k in range(-k_max, k_max + 1)]


def limit_asymptote(params: ModelParams, k: int) -> tuple:
    """Large-|k| expansion of (lambda_k^+, lambda_k^-) through the k^-2
    real and k^-1 imaginary corrections."""
    _require_limit(params)
    if check_count("k", k) == 0:
        raise ValidationError("asymptote is defined for k != 0")
    return _asymptote_pair(params, k)


@_finite_in_k
def _asymptote_pair(params: ModelParams, k: int) -> tuple:
    v, R, P = params.v1, params.R, params.P
    c1 = 2.0 * R * R * P * P / (math.pi * (v + 1.0))
    c2 = 4.0 * R ** 3 * (P * P - 1.0) * P * P / (math.pi ** 2 * (v + 1.0) ** 2)
    slow = complex(-R + c2 / k ** 2, math.pi * k / 2.0 - c1 / k)
    fast = complex(-R * P * P - c2 / k ** 2, -math.pi * v * k / 2.0 + c1 / k)
    if P >= 1.0:
        return slow, fast
    return fast, slow


def imaginary_vanishing_k(params: ModelParams):
    """The real index k* where Im(lambda_k) would vanish, if it exists.

    Returns None when the radicand is non-positive (the usual situation)
    or when v = 1 (the formula degenerates).  A nearly integer k* signals
    an eigenvalue crossing the real axis.
    """
    _require_limit(params)
    v, R, P = params.v1, params.R, params.P
    if v == 1.0:
        return None
    radicand = 2.0 * (P * P * v * v - (P ** 4 + 1.0) * v + P * P) / v
    if radicand <= 0.0:
        return None
    return 2.0 * R / (math.pi * (v - 1.0)) * math.sqrt(radicand)


def limit_residual(lam, params: ModelParams):
    """Scale-normalized |Delta(lambda)| for plugging closed-form
    eigenvalues back into the characteristic function; an array for an
    array of lambdas."""
    _require_limit(params)
    z, _ = return_map(lam, params)._delta_parts
    return np.abs(z)


# ---------------------------------------------------------------------------
# Chebyshev collocation cross-check
# ---------------------------------------------------------------------------

def _cheb(N: int) -> tuple:
    """Chebyshev differentiation matrix and nodes x_j = cos(j pi / N)."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return D, x


def collocation_spectrum(params: ModelParams, N: int = 30) -> np.ndarray:
    """Discrete spectrum of the transport operator on the four zones.

    Per zone, both components are collocated on N+1 Chebyshev points
    (mapped so node index runs left to right in x).  The port conditions
    pin 8 nodes to free partners, u = S w, which leaves the standard
    problem A[free] S w = lambda w.  Returns its 8N eigenvalues, sorted.
    """
    D, _ = _cheb(check_count("N", N, 8))
    Dx = -2.0 * D                     # zone has unit length; x ascends with j
    m = N + 1
    v = check_instance("params", params, ModelParams).v
    R, P = params.R, params.P
    n = 8 * m
    A = np.zeros((n, n))
    S = np.eye(n)
    cblk = [i * m for i in range(4)]          # c_1..c_4 block offsets
    qblk = [(4 + i) * m for i in range(4)]    # q_1..q_4 block offsets
    for i in range(4):
        c0, q0 = cblk[i], qblk[i]
        A[c0:c0 + m, c0:c0 + m] = -v[i] * Dx - R * P * P * np.eye(m)
        A[c0:c0 + m, q0:q0 + m] = R * P * np.eye(m)
        A[q0:q0 + m, q0:q0 + m] = Dx - R * np.eye(m)
        A[q0:q0 + m, c0:c0 + m] = R * P * np.eye(m)
    # each port pins c at the zone inlet (node 0) to c at the upstream
    # outlet (node N), c_in = (w_up/w_in) c_up, and q at that outlet to q
    # at the zone inlet, q_up = q_in; no partner is itself pinned
    for port in PORTS:
        c_in, c_up = cblk[port.zone - 1], cblk[port.up - 1] + N
        q_in, q_up = qblk[port.zone - 1], qblk[port.up - 1] + N
        w_up, w_in = port.weights(v)
        for node, partner, ratio in ((c_in, c_up, w_up / w_in),
                                     (q_up, q_in, 1.0)):
            S[node, node], S[node, partner] = 0.0, ratio
    free = S.diagonal() == 1.0       # pinned nodes have a zero diagonal
    try:
        w = np.linalg.eigvals(A[free] @ S[:, free])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigSolverFailure(str(exc)) from exc
    return np.sort_complex(w)
