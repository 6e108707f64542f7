"""Real-eigenvalue location, the closed-form equal-velocity spectrum, and
a Chebyshev collocation cross-check.

The dominant eigenvalue is the largest real root of Delta(lambda); it lives
in [-M0, 0) where M0 is an explicit bracket derived from the port
velocities.  Delta is extremely steep near that root (slopes beyond 1e6),
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
has no real root of Delta between it and 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .charfun import _set_table, return_map
from .errors import (EigSolverFailure, LimitCaseHasNoBracket, NotLimitCase,
                     NoSignChangeFound, ValidationError)
from .params import PORTS, ModelParams, check_count


@dataclass(frozen=True)
class BracketBudget:
    """Lower bracket -M0 for the dominant eigenvalue, with the positive
    quantity Q0 appearing in its derivation."""

    M0: float
    Q0: float
    v_min: float
    v_max: float


def bracket_bound(params: ModelParams) -> BracketBudget:
    """Explicit 0 < M0 < R with the dominant eigenvalue in [-M0, 0)."""
    if params.limit_case:
        raise LimitCaseHasNoBracket(
            "equal velocities: the dominant eigenvalue is 0 exactly")
    v_min, v_max = min(params.v), max(params.v)
    R, P = params.R, params.P
    denom = v_min * (v_max - v_min) / 2.0 + v_max * (R * P * P + 1.0)
    M0 = R - R * R * P * P * v_min / denom
    Q0 = denom / (R * P)
    return BracketBudget(M0=M0, Q0=Q0, v_min=v_min, v_max=v_max)


# Most lambda points per return_map call.  The largest stage of a batch
# is the whole grids of the later sets whose windows do not settle: 2400
# points for 12 sets, whose temporaries peak at about 1.3 MB in one pass
# against 0.33 MB in each of four calls of 600, for no gain in speed.  A
# round of bisection paths is one call: a path is about 23 points at
# tol 1e-10, so the 13 sets of full_report take 299, and 603 at tol
# 1e-20, where the paths end at adjacent doubles.
_MAX_POINTS = 650


def _delta_values(rows, table: np.ndarray, owners) -> np.ndarray:
    """Delta at the real points of rows, flat in row order: row r under
    the set of column owners[r] of table, a ``_set_table``, in return_map
    calls of at most _MAX_POINTS points.  Its sign is return_map's
    delta_sign: Delta = z e^L with L >= 0, so it does not underflow, and
    an overflow is an infinity of z's sign (0 where z is 0)."""
    lams = np.concatenate(rows)
    owner = np.repeat(owners, [len(row) for row in rows])
    # equal calls: 2400 points make four of 600, 2000 four of 500
    size = -(-lams.size // -(-lams.size // _MAX_POINTS))
    with np.errstate(invalid="ignore"):     # 0 * inf: Delta is 0 there
        values = np.concatenate([
            return_map(lams[i:i + size], table, owner[i:i + size]).delta
            for i in range(0, lams.size, size)])
    values[np.isnan(values)] = 0.0
    return values


def _hits(values) -> np.ndarray:
    """Where, along the last axis of values, Delta is 0 or changes sign
    before the next point."""
    signs = np.sign(values)
    hits = signs == 0
    hits[..., :-1] |= signs[..., :-1] * signs[..., 1:] < 0
    return hits


def _cell(xs, values, i) -> tuple:
    """The cell at hit i of the grid xs with the given Delta values: the
    zero point (x, x, 0, 0) or the sign change (a, b, Delta at a, Delta
    at b)."""
    j = i + (values[i] != 0)
    return float(xs[i]), float(xs[j]), float(values[i]), float(values[j])


def _sign_cells(xs, values) -> list:
    """The cells of Delta along the grid xs with the given values, in
    order."""
    return [_cell(xs, values, i) for i in np.flatnonzero(_hits(values))]


def _inverse_cubic(xs, values, first) -> np.ndarray:
    """Per row of the grids xs with Delta values, the x where the cubic
    x(Delta) through the four points around the cell (first, first + 1)
    has Delta = 0: a root guess, not finite where two values coincide."""
    k = np.clip(first - 1, 0, xs.shape[1] - 4)[:, None] + np.arange(4)
    x, f = np.take_along_axis(xs, k, 1), np.take_along_axis(values, k, 1)
    with np.errstate(all="ignore"):
        # Lagrange weights at 0: the product over m != n of f_m / (f_m - f_n)
        w = f[:, None, :] / (f[:, None, :] - f[:, :, None])
        w[:, range(4), range(4)] = 1.0
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
    while steps + len(mids) < 300 and abs(b - a) >= tol:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        mids.append(mid)
        if (mid <= guess) == rising:
            a = mid
        else:
            b = mid
    return mids


def _bisect(cells: list, table: np.ndarray, owner, tols: list,
            guesses=None) -> list:
    """Roots in cells (a, b, Delta at a, Delta at b) of ``_sign_cells``:
    bisection, stopped on width, each cell to its own tol and under its
    own set, of column owner[i] of table (as for ``_delta_values``).

    Every round evaluates the ``_path`` of each open cell from a guess at
    its root in one ``_delta_values``: guesses[i] in the first round,
    where given, later regula falsi on the cell's ends, and the midpoint
    where the guess is not strictly inside the cell.  Each cell then
    takes the steps of scalar bisection on the signs of those values
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
             for i, cell in enumerate(cells)}
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
        values = _delta_values(list(paths.values()), table,
                               [owner[i] for i in paths]).tolist()
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


def _grid_cells(grids, table, rows) -> list:
    """The first cell on the whole grid of each set in rows; a grid that
    keeps one sign gives (its -tol end, 0.0, Delta there, nan), the cell
    up to 0 that Delta(0) must confirm."""
    values = _delta_values(grids[rows], table, rows).reshape(len(rows), -1)
    return [(_sign_cells(x, f)
             or [(float(x[0]), 0.0, float(f[0]), math.nan)])[0]
            for x, f in zip(grids[rows], values)]


def _window_cell(grid, cols, values):
    """The first cell on grid, settled from its Delta values at the
    indices cols alone (0, then the window, a run of adjacent indices),
    or None.

    It is settled when no value is 0 and the first hit lies between
    adjacent indices, which holds when the window's first sign is the
    sign at grid[0] and the window holds a sign change.
    """
    hits = _hits(values)
    i = hits.argmax()
    if not (values.all() and hits[i] and cols[i + 1] == cols[i] + 1):
        return None
    return _cell(grid[cols], values, i)


# The window of grid indices a later set of a batch scans first: k-2 ..
# k+3 around the first set's first sign cell k.
_WINDOW = (-2, 4)
# Points of the geometric grid and of the densified first cell (the
# densified cell's ends are known, so 19 of its 21 points are evaluated).
_GRID_N, _DENSE_N = 200, 21


def dominant_eigenvalue(params, tol: float = 1e-10):
    """Largest real root of Delta in [-M0, 0).

    Takes the first sign change on a 200-point geometric grid from -tol
    toward -M0 (the root hugs 0 while Delta stays nearly flat over most of
    the bracket), densifies that cell tenfold and takes its first sign
    change, then bisects to |interval| < tol, guided by the cubic through
    the four densified points around that change.  A grid without a sign
    change is followed by Delta(0): a root in (-tol, 0) is bisected there,
    and NoSignChangeFound is raised only if the sign at 0 is the same.

    params is one ModelParams, which gives a float, or a sequence of them,
    which gives a list of floats, each the float the set gives alone.  A
    sequence is solved in lockstep: each stage (the grids, the densified
    cells, each round of bisection paths) is one ``_delta_values`` over
    the points of all sets, and each set's constants are built once.  The
    first set scans its whole grid.  Each later set scans its own grid at
    -tol and at the indices k-2 .. k+3 (its window) around the first
    set's first sign cell k; when none of these signs is 0, the window's
    first sign is the sign at -tol and the window holds a sign change,
    the window's first sign cell is the set's cell.  Every other set (the
    first set has no grid cell, or the window does not settle) scans its
    whole grid in the next call.  In the batch full_report solves, lambda0
    and its finite-difference neighbours, each neighbour's lambda0 lies
    in the first set's grid cell or the next one, so in its window, and
    it is the dominant eigenvalue (Krein-Rutman), so Delta has no real root
    between it and 0: the settled cell is the cell the whole grid gives.
    In any batch, the sign check refuses a window with one root between
    it and -tol; only an even number of them could pass it.

    Every set is checked (its type, equal velocities, tol against M0)
    before Delta is evaluated; errors about a sequence, or anything else
    that is not one ModelParams, name the index of the set at fault.
    """
    single = isinstance(params, ModelParams)
    try:
        sets = [params] if single else list(params)
    except TypeError:               # not iterable: a batch of one bad set
        sets = [params]
    if not sets:
        raise ValidationError("no parameter sets to solve")
    if not (isinstance(tol, numbers.Real) and tol > 0.0):
        raise ValidationError(f"tol must be positive, got {tol!r}")
    # where an error names its set: nowhere for a single one
    at = [""] if single else [f" (set {i})" for i in range(len(sets))]
    M0 = []
    for i, p in enumerate(sets):
        if not isinstance(p, ModelParams):
            raise ValidationError(f"not a ModelParams: {p!r}{at[i]}")
        try:
            bb = bracket_bound(p)  # rejects the equal-velocity case
        except LimitCaseHasNoBracket as exc:
            raise LimitCaseHasNoBracket(f"{exc}{at[i]}") from None
        if tol >= bb.M0:
            raise ValidationError(
                f"tol={tol} exceeds bracket width M0={bb.M0}{at[i]}")
        M0.append(bb.M0)
    table = _set_table(sets)
    grids = -np.geomspace(tol, M0, _GRID_N, axis=1)
    cells = _grid_cells(grids, table, [0]) + [None] * (len(sets) - 1)
    a, b = cells[0][:2]
    if len(sets) > 1 and b < 0.0:       # the first set has a grid cell
        k = int(np.flatnonzero(grids[0] == a)[0])
        cols = np.r_[0, max(k + _WINDOW[0], 1):min(k + _WINDOW[1], _GRID_N)]
        values = _delta_values(grids[1:, cols], table, range(1, len(sets)))
        cells[1:] = [_window_cell(grid, cols, f) for grid, f in
                     zip(grids[1:], values.reshape(len(sets) - 1, -1))]
    rest = [i for i, cell in enumerate(cells) if cell is None]
    if rest:
        for i, cell in zip(rest, _grid_cells(grids, table, rest)):
            cells[i] = cell
    # a set whose grid keeps one sign may have its root in (-tol, 0): that
    # cell, tol wide, goes straight to bisection if Delta(0) has the other
    # sign
    flat = [i for i, cell in enumerate(cells) if cell[1] == 0.0]
    if flat:
        at0 = _delta_values([[0.0]] * len(flat), table, flat)
        for i, f0 in zip(flat, at0.tolist()):
            grid, (a, _, fa, _) = grids[i], cells[i]
            s = 1 if fa > 0 else -1
            if s * f0 >= 0:
                raise NoSignChangeFound(
                    f"no sign change of Delta on {_GRID_N}-point geometric "
                    f"grid in [{grid[-1]}, {grid[0]}] or up to 0: its sign "
                    f"is {s} throughout{at[i]}")
            cells[i] = (a, 0.0, fa, f0)
    # the grid cells to densify tenfold: every sign change found on a grid;
    # geomspace keeps their known ends exactly
    guesses = [None] * len(sets)
    dense = [i for i, (_, b, fa, _) in enumerate(cells)
             if fa != 0.0 and b < 0.0]
    if dense:
        a, b, fa, fb = np.array([cells[i] for i in dense]).T
        grids = -np.geomspace(-a, -b, _DENSE_N, axis=1)
        inner = _delta_values(grids[:, 1:-1], table, dense)
        values = np.column_stack((fa, inner.reshape(len(dense), -1), fb))
        first = _hits(values).argmax(axis=1)
        for i, grid, f, j, guess in zip(dense, grids, values, first,
                                        _inverse_cubic(grids, values, first)):
            cells[i], guesses[i] = _cell(grid, f, j), float(guess)
    roots = _bisect(cells, table, range(len(sets)), [tol] * len(sets),
                    guesses)
    return roots[0] if single else roots


def real_root_scan(params: ModelParams, range_: tuple, grid_n: int = 400,
                   tol: float = 1e-12, with_brackets: bool = False) -> list:
    """All sign-change-bracketed real roots of Delta on [lo, hi].

    The grid is one return_map call per _MAX_POINTS points, and the
    bisections of all its cells share their calls, each cell's path
    guided by regula falsi on its ends.  Returns floats, or
    (root, bracket_lo, bracket_hi) triples when with_brackets is set.
    """
    check_count("grid_n", grid_n, 2)
    try:
        lo, hi = range_
    except (TypeError, ValueError):
        raise ValidationError(
            f"range_ must be a pair (lo, hi), got {range_!r}") from None
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)
            and -math.inf < lo <= hi < math.inf):
        raise ValidationError(f"need finite lo <= hi, got [{lo!r}, {hi!r}]")
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < math.inf):
        raise ValidationError(
            f"tol must be positive and finite, got {tol!r}")
    if lo == hi:
        return []
    table = _set_table([params])
    grid = np.linspace(lo, hi, grid_n)
    cells = _sign_cells(grid, _delta_values([grid], table, [0]))
    roots = _bisect(cells, table, [0] * len(cells),
                    [tol * max(1.0, abs(cell[0])) for cell in cells])
    if with_brackets:
        return [(r, a, b) for r, (a, b, _, _) in zip(roots, cells)]
    return roots


# ---------------------------------------------------------------------------
# Equal-velocity (limit) closed-form spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitSpectrum:
    """One index k of the equal-velocity spectrum: the pair lambda_k^+/-."""

    k: int
    lambda_plus: complex
    lambda_minus: complex
    X: float
    Y: float
    U: float
    V: float


def _require_limit(params: ModelParams):
    if not params.limit_case:
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


def limit_point(params: ModelParams, k: int) -> LimitSpectrum:
    """lambda_k^+/- for one integer index k (equal velocities)."""
    _require_limit(params)
    check_count("k", k)
    v, R, P = params.v1, params.R, params.P
    A = R * (1.0 + P * P)
    B = math.pi * k * (v - 1.0) / 2.0
    X = -math.pi ** 2 * k * k * (v + 1.0) ** 2 / 4.0 + R * R * (1.0 + P * P) ** 2
    Y = math.pi * R * (P * P - 1.0) * (v + 1.0) * k
    U, V = _uv_from_xy(X, Y)
    lam_p = complex((-A + U) / 2.0, (-B + V) / 2.0)
    lam_m = complex((-A - U) / 2.0, (-B - V) / 2.0)
    return LimitSpectrum(k=k, lambda_plus=lam_p, lambda_minus=lam_m,
                         X=X, Y=Y, U=U, V=V)


def limit_spectrum(params: ModelParams, k_max: int = 80) -> list:
    """The closed-form spectrum for k = -k_max .. k_max."""
    _require_limit(params)
    check_count("k_max", k_max, 0)
    return [limit_point(params, k) for k in range(-k_max, k_max + 1)]


def limit_asymptote(params: ModelParams, k: int) -> tuple:
    """Large-|k| expansion of (lambda_k^+, lambda_k^-) through the k^-2
    real and k^-1 imaginary corrections."""
    _require_limit(params)
    if k == 0:
        raise ValidationError("asymptote is defined for k != 0")
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
    if N == 0:
        return np.zeros((1, 1)), np.array([1.0])
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
    v, R, P = params.v, params.R, params.P
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


def stable_eigenvalues(params: ModelParams, N1: int = 30, N2: int = 45,
                       match_tol: float = 1e-2) -> np.ndarray:
    """Eigenvalues of the N1 collocation that persist at resolution N2.

    Filters the spurious discretization eigenvalues by keeping those with
    a partner within match_tol at the finer resolution.
    """
    w1 = collocation_spectrum(params, N1)
    w2 = collocation_spectrum(params, N2)
    keep = [lam for lam in w1 if np.min(np.abs(w2 - lam)) <= match_tol]
    return np.array(keep, dtype=complex)
