"""Time-domain simulation by operator splitting.

Each time step applies two sub-operators in sequence: a flux-limited
Lax-Wendroff step for the counter-current advection (liquid rightward at
v_i, solid leftward at unit speed) and the closed-form 2x2 relaxation of
the interphase mass transfer.  The advection is second order where the
profile is smooth; the van Leer limiter drops it toward first order at
extrema and at the port kinks.  Under the CFL bound every update keeps
nonnegative data nonnegative, the feed included.  The advection is in
conservative flux form: each zone's liquid inlet flux is the port map of
the upstream zone's outlet flux, and the solid is one periodic loop, so
the discrete mass integral(c + P q) is conserved exactly when the four
velocities coincide.

Grid convention: each zone carries Nx cells of width dx = 1/Nx with
centers at x_zone_left + (j - 1/2) dx for j = 1..Nx.  Both phases live in
one (8, Nx+2) array: rows 0-3 hold c of zones 1-4, rows 4-7 hold q.
Columns 0 and Nx+1 are slaved ghosts that complete the limiter stencil.
Column 0 holds the upstream-in-x zone's last cell, column Nx+1 the next
zone's first cell; for c they pass through the port map (its inverse at
the outlet), for q they are plain copies.  ``SimState.c`` and
``SimState.q`` are (4, Nx+1) views of columns 0..Nx of the state's current
u, so j = 0 is the inlet ghost and j = 1..Nx the cells.

``run`` hands the advected cells straight to the relaxation: each step's
advection writes into scratch rather than u, and the relaxation multiplies
from that scratch into u and refreshes the ghosts once, which saves one
copy of u and one ghost refresh per step.  The public sub-steps
``advection_step`` and ``mass_transfer_step`` are unchanged: each advances
u in place with its ghosts refreshed, and ``run`` gives the same bits as
calling them in turn.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field, replace

import numpy as np

from .eigfun import EigenSolution, eigenfunction, steady_state
from .errors import (BadCFL, InsufficientSamples, NonFiniteDetected,
                     ValidationError, ZeroProfile)
from .params import (PORTS, ZONE_LEFT, ZONES, ModelParams, check_count,
                     check_instance, check_pair, check_real)
from .spectrum import dominant_eigenvalue


@dataclass(frozen=True)
class SimConfig:
    """Grid, step, horizon and recording cadence of one run; the feed is
    the params' f0.

    Refuses, with ValidationError, an Nx or record_every that is not an
    integer, Nx below 8, record_every below 1, a T that is not a
    nonnegative finite number and a strang that is not a bool.  A p that
    is not a positive finite number raises BadCFL here, and a p at or above
    1/max(v, 1) raises it in ``init``; a state's dt/dx is checked the same
    way against the params of its first step, in ``run`` or either
    sub-step, and again whenever those params change.
    """

    Nx: int = 400
    p: float | None = None        # Courant parameter; default 0.9/max(v,1)
    T: float = 60.0
    record_every: int = 50
    strang: bool = False          # symmetrized splitting (off: plain order)

    def __post_init__(self):
        check_count("Nx", self.Nx, 8)
        check_count("record_every", self.record_every, 1)
        check_real("T", self.T, ge=0.0)
        if self.p is not None:
            check_real("p", self.p, BadCFL, gt=0.0)
        if not isinstance(self.strang, bool):
            raise ValidationError(
                f"strang={reprlib.repr(self.strang)} must be True or False")


class _Rows:
    """c or q: a (4, Nx+1) view of the state's current u; assigning to it
    writes into u."""

    def __init__(self, rows: slice):
        self.rows = rows

    def __get__(self, state, owner=None):
        return self if state is None else state.u[self.rows, :-1]

    def __set__(self, state, value):
        state.u[self.rows, :-1] = value


@dataclass
class SimState:
    """Both phases in one (8, Nx+2) array u; c, q and dx are read from
    whatever u is, so no copy or new u can leave them behind.

    The scratch rows, constants and views the steps use live in
    ``stepper``, made by the first step (a state that is never stepped
    holds none) and made again when u, params or dt change.
    """

    u: np.ndarray                 # (8, Nx+2), rows c1..c4, q1..q4
    t: float
    dt: float
    stepper: _Stepper | None = field(default=None, init=False, repr=False,
                                     compare=False)
    c = _Rows(slice(None, 4))
    q = _Rows(slice(4, None))

    def __post_init__(self):
        # the steps update u through flat views, which need one block
        self.u = np.ascontiguousarray(self.u, dtype=float)

    @property
    def dx(self) -> float:
        return 1.0 / (self.u.shape[1] - 2)

    def __getstate__(self):
        # copies and pickles leave the stepper behind: a copied stepper's
        # views would be copies too, and steps would miss the new u
        return {**self.__dict__, "stepper": None}


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    energy: float
    mass: float
    sup_norm: float
    profile_rms: float | None = None


def _cap(params: ModelParams) -> float:
    """The strict upper bound 1/max(v, 1) on the Courant parameter dt/dx."""
    return 1.0 / max(*check_instance("params", params, ModelParams).v, 1.0)


def _resolve_p(config: SimConfig, params: ModelParams) -> float:
    cap = _cap(params)
    if config.p is None:
        return 0.9 * cap
    return check_real("p", config.p, BadCFL, gt=0.0, lt=cap)


def _check_courant(dt: float, dx: float, params: ModelParams) -> None:
    """BadCFL unless dt/dx is below the bound ``_resolve_p`` puts on p."""
    check_real("dt/dx", dt / dx, BadCFL, gt=0.0, lt=_cap(params))


# Row neighbors in the (8, Nx+2) layout: the zone upstream and downstream
# in x of each row, wrapping zone 4 to zone 1 within each phase.
_UP = np.array([3, 0, 1, 2, 7, 4, 5, 6])
_DOWN = np.array([1, 2, 3, 0, 5, 6, 7, 4])


def _port_map(params: ModelParams) -> tuple:
    """(alpha, beta) of the ports at the inlets of zones 1..4.

    The liquid entering zone i is c_in = alpha_i * c_out + beta_i, with
    c_out the exit value of zone i-1: w_in c_in = w_up c_out (+ f0 at the
    feed).  The solid crosses every port unchanged.
    """
    alpha, beta = [], []
    for port in PORTS:
        w_up, w_in = port.weights(params.v)
        alpha.append(w_up / w_in)
        beta.append(params.f0 / w_in if port.feed else 0.0)
    return np.array(alpha), np.array(beta)


def _port_tables(params: ModelParams, n: int) -> tuple:
    """(cells, faces): flat (target, source, scale, offset) tables.

    For rows of length n, ``cells`` fills the 16 ghosts, columns 0 and n-1
    of every row, from the cells across the ports (for c, column n-1 uses
    the inverse of the next port's map).  ``faces`` fills the 8 boundary
    face values of an advection step from the same entries: the liquid
    inlet face of each zone (column 0) from the upstream outlet face, and
    the solid right face of each zone from the next zone's left face.
    Solid face values sit one column left of their cell, so their entries
    shift by one.
    """
    alpha, beta = _port_map(params)
    rows = np.arange(8)
    down = _DOWN[:4]
    one, zero = np.ones(4), np.zeros(4)
    target = np.concatenate([rows * n, rows * n + n - 1])
    source = np.concatenate([_UP * n + n - 2, _DOWN * n + 1])
    scale = np.concatenate([alpha, one, 1.0 / alpha[down], one])
    offset = np.concatenate([beta, zero, -beta[down] / alpha[down], zero])
    pick = np.r_[0:4, 12:16]
    shift = np.repeat([0, -1], 4)
    return ((target, source, scale, offset),
            (target[pick] + shift, source[pick] + shift, scale[pick],
             offset[pick]))


def _apply(flat: np.ndarray, table: tuple) -> None:
    target, source, scale, offset = table
    flat[target] = scale * flat[source] + offset


def _relaxation(params: ModelParams, dt: float) -> np.ndarray:
    """2x2 map of (c, q) over dt of exact interphase relaxation."""
    R, P = params.R, params.P
    e = math.exp(-R * (P * P + 1.0) * dt)
    return np.array([[1.0 + P * P * e, P * (1.0 - e)],
                     [P * (1.0 - e), P * P + e]]) / (1.0 + P * P)


class _Stepper:
    """All that the steps of one run need, made once, on its first step.

    It holds the port tables, the relaxation matrix, per-cell advection
    constants, the scratch rows and every view the steps take of them and
    of u, so that a step is a fixed sequence of ufunc calls into memory
    made here.  A step allocates nothing the size of u: fresh ~0.1 MB
    temporaries every step can make malloc trim the heap top and fault it
    back in on the next step.  It serves one u array (which fixes dx) and
    one (params, dt); ``_stepper`` makes a new one when any changes.

    The relaxation cannot multiply u into itself, so it reads from the
    scratch ``cq_out``.  An advection step run with ``held`` writes its
    cells there and is marked held; the next ``transfer`` then relaxes
    them into u with no copy of u first, and its ghost refresh stands for
    the advection's.  With nothing held, ``transfer`` copies u into
    ``cq_out`` first.
    """

    def __init__(self, state: SimState, params: ModelParams):
        # a u assigned since __post_init__ may have no flat view: copy it
        u = state.u = np.ascontiguousarray(state.u, dtype=float)
        self.u, self.params, self.dt, self.dx = u, params, state.dt, state.dx
        self.cells, self.faces = _port_tables(params, u.shape[1])
        self.relax = _relaxation(params, state.dt)
        flat = u.reshape(-1)
        size = flat.size
        half = size // 2
        # per-cell h and s of the advection (see _set_frac)
        self.frac = None
        self.h = np.empty(size)
        self.s = np.empty(size)
        # diff[0], slope[-1] and face[-1] complete the shifted differences
        # below; no step writes them, so they stay 0
        diff, slope, face = np.zeros((3, size))
        self.flat, self.diff, self.face = flat, diff, face
        self.flat_hi, self.flat_lo = flat[1:], flat[:-1]
        self.flat_c, self.flat_q = flat[:half], flat[half:]
        self.a, self.b = diff[:-1], diff[1:]
        self.num, self.den = slope[:-1], face[:-1]
        self.h_lo, self.s_hi = self.h[:-1], self.s[1:]
        self.slope_c, self.slope_q = slope[:half], slope[half:]
        self.face_hi = face[1:]
        self.face_c, self.face_q = face[:half], face[half - 1:-1]
        self.nonzero = np.empty(size - 1, dtype=bool)
        self.cq = u.reshape(2, -1)
        self.cq_out = np.empty_like(self.cq)
        self.flat_out = self.cq_out.reshape(-1)
        self.held = False               # cq_out holds the advected cells

    def _set_frac(self, frac: float) -> None:
        """Per-cell (h, s) of an advection step over frac*dt.

        With nu the row's Courant number and sigma/2 its van Leer
        half-slope, the face value is u + h * sigma/2 (h = +(1 - nu) at the
        liquid's right face, -(1 - nu) at the solid's left face) and
        s = +-nu scales face value differences into the cell update.
        """
        nu = np.array(self.params.v + (1.0,) * 4) * (frac * self.dt / self.dx)
        sign = np.repeat([1.0, -1.0], 4)
        self.h.reshape(8, -1)[:] = (sign * (1.0 - nu))[:, None]
        self.s.reshape(8, -1)[:] = (sign * nu)[:, None]
        self.frac = frac

    def advect(self, frac: float, held: bool = False) -> None:
        """Advance u by the advection over frac*dt, ghosts refreshed; or,
        held, leave u as it is and write the advected cells to cq_out for
        the next transfer, whose own refresh then fills the ghosts."""
        if frac != self.frac:
            self._set_frac(frac)
        # backward differences along the flat array; those that straddle
        # two rows only reach ghost columns, which are refilled at the end
        np.subtract(self.flat_hi, self.flat_lo, out=self.b)
        # van Leer half-slope ab/(a+b) where the one-sided differences a, b
        # agree in sign, else 0 (a zero denominator only meets a zero a*b,
        # which the masked divide leaves as it is)
        num, den = self.num, self.den
        np.multiply(self.a, self.b, out=num)
        np.maximum(num, 0.0, out=num)
        np.add(self.a, self.b, out=den)
        np.not_equal(den, 0.0, out=self.nonzero)
        np.divide(num, den, out=num, where=self.nonzero)
        # face values: liquid at each cell's right face, solid at its left
        # face stored one column to the left, so both phases update as
        # u[k] -= s * (face[k] - face[k-1])
        np.multiply(self.h_lo, num, out=num)
        np.add(self.flat_c, self.slope_c, out=self.face_c)
        np.add(self.flat_q, self.slope_q, out=self.face_q)
        _apply(self.face, self.faces)
        np.subtract(self.face_hi, den, out=self.b)
        np.multiply(self.s_hi, self.b, out=self.b)
        if held:
            np.subtract(self.flat, self.diff, out=self.flat_out)
        else:
            np.subtract(self.flat, self.diff, out=self.flat)
            _apply(self.flat, self.cells)
        self.held = held

    def transfer(self) -> None:
        # matmul into u itself would allocate a hidden copy of u, so the
        # relaxation reads from cq_out: the held advected cells, else u
        if not self.held:
            np.copyto(self.cq_out, self.cq)
        np.matmul(self.relax, self.cq_out, out=self.cq)
        _apply(self.flat, self.cells)
        self.held = False


def _stepper(state: SimState, params: ModelParams) -> _Stepper:
    """The state's stepper, made again if u, params or dt changed.

    A new stepper first checks that state is a SimState (ValidationError)
    and its Courant parameter dt/dx against params, raising BadCFL at or
    above 1/max(v, 1), so a state made for slower velocities cannot be
    stepped under faster ones; this costs nothing per step.
    """
    k = getattr(state, "stepper", None)
    if (k is None or k.u is not state.u or k.dt != state.dt
            or (k.params is not params and k.params != params)):
        check_instance("state", state, SimState)
        _check_courant(state.dt, state.dx, params)
        k = state.stepper = _Stepper(state, params)
    return k


def cell_centers(Nx: int) -> np.ndarray:
    """(4, Nx) array of cell-center coordinates, zone by zone."""
    dx = 1.0 / check_count("Nx", Nx, 1)
    offs = (np.arange(1, Nx + 1) - 0.5) * dx
    return np.asarray(ZONE_LEFT, dtype=float)[:, None] + offs[None, :]


def _sample(sol: EigenSolution, Nx: int) -> tuple:
    """Real parts of a solution's (c, q) at the cell centers, (4, Nx) each."""
    c, q = sol.zone_values(ZONES, cell_centers(Nx))
    return c.real, q.real


def sample_eigenfunction(params: ModelParams, Nx: int,
                         lam: float | None = None) -> tuple:
    """Dominant (or given-eigenvalue) mode at the cell centers.

    Returns real-valued (c, q) arrays of shape (4, Nx); at a real
    eigenvalue the complex basis coefficients pair up conjugately so the
    profile itself is real.
    """
    if lam is None:
        lam = dominant_eigenvalue(
            check_instance("params", params, ModelParams))
    return _sample(eigenfunction(lam, params), Nx)


def sample_steady_state(params: ModelParams, Nx: int) -> tuple:
    """Forced steady profile at the cell centers, shape (4, Nx) each."""
    return _sample(steady_state(params), Nx)


def _real_pair(pair, Nx: int, name: str, expected: str) -> tuple:
    """pair as two arrays, if it is a pair of (4, Nx) arrays of finite real
    numbers; else ValidationError naming it."""
    shape = (4, Nx)
    try:
        c0, q0 = (np.asarray(a) for a in pair)
    except (TypeError, ValueError):     # not a pair, or ragged
        c0 = q0 = None
    if (c0 is None or c0.shape != shape or q0.shape != shape
            or c0.dtype.kind not in "biuf" or q0.dtype.kind not in "biuf"):
        raise ValidationError(
            f"{name} must be {expected} of {shape} arrays of real numbers")
    if not (np.isfinite(c0).all() and np.isfinite(q0).all()):
        raise ValidationError(f"{name} data must be finite")
    return c0, q0


def init(config: SimConfig, params: ModelParams, initial="constant") -> SimState:
    """Fresh state with cells sampled from the initial condition.

    ``initial`` is a preset name ("constant" for (1, P), "zero",
    "eigenfunction" for the dominant mode) or a pair (c, q) of (4, Nx)
    arrays of finite real numbers; data given by a function are its
    values at ``cell_centers(Nx)``.  Anything else, a complex pair or
    one holding nan or inf included, is refused with ValidationError.
    """
    p = _resolve_p(check_instance("config", config, SimConfig), params)
    dx = 1.0 / config.Nx
    dt = p * dx
    # dt/dx may round up to the bound: refuse here what the first step would
    _check_courant(dt, dx, params)
    state = SimState(u=np.zeros((8, config.Nx + 2)), t=0.0, dt=dt)
    c, q = state.c, state.q
    if isinstance(initial, str):
        if initial == "constant":
            c[:, 1:] = 1.0
            q[:, 1:] = params.P
        elif initial == "eigenfunction":
            c[:, 1:], q[:, 1:] = sample_eigenfunction(params, config.Nx)
        elif initial != "zero":
            raise ValidationError(
                f"unknown initial preset {reprlib.repr(initial)}")
    else:
        c[:, 1:], q[:, 1:] = _real_pair(initial, config.Nx, "initial",
                                        "a preset name or a pair")
    _apply(state.u.reshape(-1), _port_tables(params, config.Nx + 2)[0])
    return state


def advection_step(state: SimState, params: ModelParams,
                   frac: float = 1.0) -> SimState:
    """Flux-limited Lax-Wendroff transport of both phases over frac*dt.

    Conservative flux form with the van Leer limiter: second order where
    the profile is smooth, and under the CFL bound nonnegative data stay
    nonnegative.  Liquid inlet fluxes are the port map of the upstream
    outlet fluxes and the solid is one periodic loop, so with equal
    velocities the mass integral(c + P q) changes only by rounding.
    Advances the state in place (ghosts refreshed) and returns it.  A frac
    that is not a real number in (0, 1] raises ValidationError.
    """
    frac = check_real("frac", frac, gt=0.0, le=1.0)
    _stepper(state, params).advect(frac)
    return state


def mass_transfer_step(state: SimState, params: ModelParams) -> SimState:
    """Exact interphase relaxation over dt; conserves c + P q cellwise.

    Advances the state in place (ghosts refreshed) and returns it.
    """
    _stepper(state, params).transfer()
    return state


def energy(state: SimState) -> float:
    """E = 1/2 * sum (c^2 + q^2) dx over the interior cells."""
    c, q = state.c[:, 1:], state.q[:, 1:]
    return 0.5 * float(np.sum(c * c) + np.sum(q * q)) * state.dx


def mass(state: SimState, params: ModelParams) -> float:
    """Q = sum (c + P q) dx over the interior cells."""
    P = check_instance("params", params, ModelParams).P
    return float(np.sum(state.c[:, 1:] + P * state.q[:, 1:])) * state.dx


def sup_norm(state: SimState) -> float:
    return float(max(np.abs(state.c[:, 1:]).max(),
                     np.abs(state.q[:, 1:]).max()))


def _profile_norm2(eigen_profile: tuple, state: SimState) -> float:
    """Squared norm of a reference profile over both components, refused
    unless it is a pair of finite real arrays on the state's grid."""
    ref_c, ref_q = _real_pair(eigen_profile, state.c.shape[1] - 1,
                              "eigen_profile", "a pair")
    den = float(np.sum(ref_c * ref_c) + np.sum(ref_q * ref_q))
    if den == 0.0:
        raise ZeroProfile("reference profile is identically zero")
    return den


def profile_rms(state: SimState, eigen_profile: tuple) -> float:
    """Distance to the best scalar multiple of a reference profile.

    Minimizes ||state - s*ref|| over s and returns the minimum divided by
    ||s*ref|| (both RMS over interior cells, both components).  A profile
    that is not a pair of finite real (4, Nx) arrays raises ValidationError.
    """
    return _profile_rms(state, eigen_profile,
                        _profile_norm2(eigen_profile, state))


def _profile_rms(state: SimState, eigen_profile: tuple, den: float) -> float:
    """profile_rms with the profile's squared norm den already known."""
    ref_c, ref_q = eigen_profile
    sc, sq = state.c[:, 1:], state.q[:, 1:]
    s = float(np.sum(sc * ref_c) + np.sum(sq * ref_q)) / den
    scaled = abs(s) * math.sqrt(den)
    if scaled == 0.0:
        raise ZeroProfile("state has no component along the profile")
    diff = math.sqrt(float(np.sum((sc - s * ref_c) ** 2)
                           + np.sum((sq - s * ref_q) ** 2)))
    return diff / scaled


def _row(state, params, eigen_profile, den) -> DiagnosticsRow:
    rms = None
    if eigen_profile is not None:
        try:
            rms = _profile_rms(state, eigen_profile, den)
        except ZeroProfile:     # no component along the profile: no rms
            pass
    return DiagnosticsRow(t=state.t, energy=energy(state),
                          mass=mass(state, params),
                          sup_norm=sup_norm(state), profile_rms=rms)


def _step_count(t0: float, T: float, dt: float) -> int:
    """max(ceil((T - t0)/dt), 0), with a slack for the rounding of t0,
    T and their difference: 1e-12 steps, or 4 ulps of max(|t0|, |T|) in
    steps where that is more.  So T = t0 + n*dt takes n steps at any t0."""
    slack = max(1e-12, 4.0 * 2.0 ** -52 * max(abs(t0), abs(T)) / dt)
    return max(int(math.ceil((T - t0) / dt - slack)), 0)


def run(state: SimState, config: SimConfig, params: ModelParams,
        eigen_profile: tuple | None = None):
    """March from the state's own time t0 = state.t to t >= T, recording
    diagnostics every record_every steps.

    Returns (final state, list of DiagnosticsRow).  The given state is
    left as it is; the run advances a copy in place, taking
    max(ceil((T - t0)/dt), 0) steps (``_step_count``, whose slack absorbs
    the rounding of t: T = t0 + n*dt takes n steps at any t0) and giving
    step n the time t0 + n*dt, so a state at or past T takes no step and
    returns its one row.  A run
    resumed from the state another run returned carries on where that one
    stopped: to watch a run at stages (read or copy the state, assign a
    new u, change dt), run it in segments.  A state or config of the wrong
    class, a state whose t is not a finite real number and a state whose
    grid does not have config.Nx cells per zone raise ValidationError
    first.  With eigen_profile, each row's profile_rms is ``profile_rms``
    of its state, or None where the state has no component along the
    profile.

    Each step's advection writes its cells to the stepper's scratch, not
    to u, and ``mass_transfer_step`` relaxes them into u and refreshes the
    ghosts: one copy of u and one ghost refresh fewer per step than
    calling ``advection_step`` and ``mass_transfer_step`` in turn, with
    the same bits.
    """
    shape = (8, check_instance("config", config, SimConfig).Nx + 2)
    if check_instance("state", state, SimState).u.shape != shape:
        raise ValidationError(
            f"state array {state.u.shape} does not fit config.Nx="
            f"{config.Nx}, which needs {shape}")
    t0 = check_real("state.t", state.t)
    state = replace(state, u=state.u.copy())
    n_steps = _step_count(t0, config.T, state.dt)
    # the profile's norm is the same on every row
    den = (None if eigen_profile is None
           else _profile_norm2(eigen_profile, state))
    rows = [_row(state, params, eigen_profile, den)]
    k = _stepper(state, params)
    for n in range(1, n_steps + 1):
        if config.strang:
            k.advect(0.5, held=True)
            mass_transfer_step(state, params)
            k.advect(0.5)
        else:
            k.advect(1.0, held=True)
            mass_transfer_step(state, params)
        state.t = t0 + n * state.dt
        if n % config.record_every == 0 or n == n_steps:
            if not (np.all(np.isfinite(state.c))
                    and np.all(np.isfinite(state.q))):
                raise NonFiniteDetected(
                    f"non-finite cell value at step {n}, t={state.t:.6g}")
            rows.append(_row(state, params, eigen_profile, den))
    return state, rows


def decay_rate(diagnostics, window) -> float:
    """Least-squares slope of log(sup_norm) over a time window, a pair of
    finite numbers t_lo <= t_hi (ValidationError otherwise)."""
    t_lo, t_hi = check_pair("window", window)
    pts = [(r.t, r.sup_norm) for r in diagnostics if t_lo <= r.t <= t_hi]
    if len(pts) < 10:
        raise InsufficientSamples(
            f"only {len(pts)} diagnostics rows in window [{t_lo}, {t_hi}]; "
            "need at least 10")
    ts = np.array([p[0] for p in pts])
    sups = np.array([p[1] for p in pts])
    if np.any(sups <= 0.0):
        raise InsufficientSamples(
            "sup_norm hit zero inside the fit window; no decay rate")
    return float(np.polyfit(ts, np.log(sups), 1)[0])
