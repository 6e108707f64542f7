"""Real-eigenvalue location, the closed-form equal-velocity spectrum, and
a Chebyshev collocation cross-check.

The dominant eigenvalue is the largest real root of Delta(lambda); it lives
in [-M0, 0) where M0 is an explicit bracket derived from the port
velocities.  Delta is extremely steep near that root (slopes beyond 1e6),
so roots are located by sign changes on a geometric grid accumulating at
0- and refined by bisection on interval width, never on |Delta|.  Grids
and bisection levels are evaluated as lambda arrays, one return_map call
each (or a few, for more than _MAX_POINTS points); several parameter sets
share every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfun import return_map
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


# Most lambda points per return_map call: a batch of 13 parameter sets
# puts 2600 points on its grids, and one pass over them all would hold
# about 1.4 MB more at its peak, for no gain in speed.
_MAX_POINTS = 650


def _delta_signs(rows, sets: list, owners) -> np.ndarray:
    """Signs of Delta at the real points of rows, flat in row order: row r
    under the set sets[owners[r]], in return_map calls of at most
    _MAX_POINTS points."""
    lams = np.concatenate(rows)
    owner = np.repeat(owners, [len(row) for row in rows])
    # equal calls: 2600 points make four of 650, 2000 four of 500
    size = -(-lams.size // -(-lams.size // _MAX_POINTS))
    return np.concatenate([
        return_map(lams[i:i + size], sets, owner[i:i + size]).delta_sign
        for i in range(0, lams.size, size)])


def _sign_cells(xs, signs) -> list:
    """Zero points (x, x, 0) and sign-change cells (a, b, sign at a) of
    Delta along the grid xs with the given signs, in order."""
    hits = signs == 0
    hits[:-1] |= signs[:-1] * signs[1:] < 0
    return [(float(xs[i]), float(xs[i + (signs[i] != 0)]), int(signs[i]))
            for i in np.flatnonzero(hits)]


# Bisection steps per round, one return_map call: up to 2**5 - 1 = 31
# midpoints a cell.
_TREE_DEPTH = 5
# Rounds after which a cell's midpoint is returned regardless: every open
# cell takes _TREE_DEPTH steps a round, so this caps bisection at 300 steps.
_MAX_ROUNDS = 60


def _midpoints(a: float, b: float, tol: float) -> list:
    """Every midpoint the next _TREE_DEPTH steps of scalar bisection from
    (a, b) can visit, breadth-first.  A cell narrower than tol, or with no
    double between its ends, is not split."""
    cells, mids = [(a, b)], []
    for _ in range(_TREE_DEPTH):
        halves = []
        for lo, hi in cells:
            mid = 0.5 * (lo + hi)
            if abs(hi - lo) < tol or mid in (lo, hi):
                continue
            mids.append(mid)
            halves += [(lo, mid), (mid, hi)]
        cells = halves
    return mids


def _bisect(cells: list, sets: list, owner: list, tols: list) -> list:
    """Roots in cells (a, b, sign at a) of ``_sign_cells``: bisection,
    stopped on width, each cell to its own tol and under its own set
    sets[owner[i]].

    Every round evaluates the ``_midpoints`` of all open cells in one
    ``_delta_signs``; each cell then takes _TREE_DEPTH steps of scalar
    bisection on those signs.  A midpoint with sign 0 is the root, and so
    is one the stop rules left out: a cell narrower than tol, or one whose
    ends are adjacent doubles, where scalar bisection would step in place
    to its 300-step cap and return the same midpoint.
    """
    roots = [None] * len(cells)
    open_ = dict(enumerate(cells))      # cell index -> (a, b, sign at a)
    for _ in range(_MAX_ROUNDS):
        mids = {i: _midpoints(a, b, tols[i]) for i, (a, b, _) in open_.items()}
        if not any(mids.values()):
            break
        signs = iter(_delta_signs(list(mids.values()), sets,
                                  [owner[i] for i in mids]))
        for i, row in mids.items():
            a, b, s = open_[i]
            sign_at = dict(zip(row, signs))
            for _ in range(_TREE_DEPTH):
                mid = 0.5 * (a + b)
                s_mid = sign_at.get(mid, 0)
                if s_mid == 0:
                    roots[i] = mid
                    del open_[i]
                    break
                if s_mid == s:
                    a = mid
                else:
                    b = mid
            else:
                open_[i] = (a, b, s)
    for i, (a, b, _) in open_.items():      # unsplit, or out of rounds
        roots[i] = 0.5 * (a + b)
    return roots


# Points of the geometric grid and of the densified first cell (the
# densified cell's ends are known, so 19 of its 21 points are evaluated).
_GRID_N, _DENSE_N = 200, 21


def dominant_eigenvalue(params, tol: float = 1e-10):
    """Largest real root of Delta in [-M0, 0).

    Takes the first sign change on a 200-point geometric grid from -tol
    toward -M0 (the root hugs 0 while Delta stays nearly flat over most of
    the bracket), densifies that cell tenfold and takes its first sign
    change, then bisects to |interval| < tol.  A grid without a sign
    change is followed by Delta(0): a root in (-tol, 0) is bisected there,
    and NoSignChangeFound is raised only if the sign at 0 is the same.

    params is one ModelParams, which gives a float, or a sequence of them,
    which gives a list of floats, each the float the set gives alone.  A
    sequence is solved in lockstep: each stage (the grids, the densified
    cells, every five bisection levels) is one ``_delta_signs`` over the
    points of all sets.  Every set is checked (its type, equal
    velocities, tol against M0) before Delta is evaluated; errors about a
    sequence, or anything else that is not one ModelParams, name the index
    of the set at fault.
    """
    single = isinstance(params, ModelParams)
    try:
        sets = [params] if single else list(params)
    except TypeError:               # not iterable: a batch of one bad set
        sets = [params]
    if not sets:
        raise ValidationError("no parameter sets to solve")
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
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
    owner = range(len(sets))
    grids = -np.geomspace(tol, M0, _GRID_N, axis=1)
    signs = _delta_signs(grids, sets, owner).reshape(len(sets), -1)
    cells = [(_sign_cells(grid, sg) or [None])[0]
             for grid, sg in zip(grids, signs)]
    # the grid cells to densify tenfold: every sign change found
    dense = [i for i, cell in enumerate(cells) if cell and cell[2] != 0]
    # a set whose grid keeps one sign may have its root in (-tol, 0): that
    # cell, tol wide, goes straight to bisection if Delta(0) has the other
    # sign
    flat = [i for i, cell in enumerate(cells) if cell is None]
    if flat:
        at0 = _delta_signs([[0.0]] * len(flat), sets, flat)
        for i, s0 in zip(flat, at0):
            grid, s = grids[i], signs[i][0]
            if s0 != -s:
                raise NoSignChangeFound(
                    f"no sign change of Delta on {_GRID_N}-point geometric "
                    f"grid in [{grid[-1]}, {grid[0]}] or up to 0: its sign "
                    f"is {s} throughout{at[i]}")
            cells[i] = (float(grid[0]), 0.0, int(s))
    # geomspace keeps the densified cells' known ends exactly
    if dense:
        a, b = np.array([cells[i][:2] for i in dense]).T
        grids = -np.geomspace(-a, -b, _DENSE_N, axis=1)
        inner = _delta_signs(grids[:, 1:-1], sets,
                             dense).reshape(len(dense), -1)
        for i, grid, sg in zip(dense, grids, inner):
            s = cells[i][2]
            cells[i] = _sign_cells(grid, np.concatenate(([s], sg, [-s])))[0]
    roots = _bisect(cells, sets, owner, [tol] * len(sets))
    return roots[0] if single else roots


def real_root_scan(params: ModelParams, range_: tuple, grid_n: int = 400,
                   tol: float = 1e-12, with_brackets: bool = False) -> list:
    """All sign-change-bracketed real roots of Delta on [lo, hi].

    The grid is one return_map call per _MAX_POINTS points, and the
    bisections of all its cells share their calls.  Returns floats, or
    (root, bracket_lo, bracket_hi) triples when with_brackets is set.
    """
    check_count("grid_n", grid_n, 2)
    lo, hi = range_
    if not -math.inf < lo <= hi < math.inf:
        raise ValidationError(f"need finite lo <= hi, got [{lo}, {hi}]")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    if lo == hi:
        return []
    grid = np.linspace(lo, hi, grid_n)
    cells = _sign_cells(grid, _delta_signs([grid], [params], [0]))
    roots = _bisect(cells, [params], [0] * len(cells),
                    [tol * max(1.0, abs(a)) for a, _, _ in cells])
    if with_brackets:
        return [(r, a, b) for r, (a, b, _) in zip(roots, cells)]
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
