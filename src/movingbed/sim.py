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
``SimState.q`` are (4, Nx+1) views of columns 0..Nx, so j = 0 is the inlet
ghost and j = 1..Nx the cells.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .eigfun import EigenSolution, eigenfunction, steady_state
from .errors import (BadCFL, InsufficientSamples, NonFiniteDetected,
                     ValidationError, ZeroProfile)
from .params import PORTS, ZONE_LEFT, ZONES, ModelParams, check_count
from .spectrum import dominant_eigenvalue


@dataclass(frozen=True)
class SimConfig:
    """Grid, step, horizon and recording cadence of one run; the feed is
    the params' f0.

    Refuses, with ValidationError, an Nx or record_every that is not an
    integer, Nx below 8, record_every below 1 and a T that is not a
    number, negative or not finite; p is checked against the velocities
    when a run starts (BadCFL).
    """

    Nx: int = 400
    p: float | None = None        # Courant parameter; default 0.9/max(v,1)
    T: float = 60.0
    record_every: int = 50
    strang: bool = False          # symmetrized splitting (off: plain order)

    def __post_init__(self):
        check_count("Nx", self.Nx, 8)
        check_count("record_every", self.record_every, 1)
        if not (isinstance(self.T, numbers.Real) and 0.0 <= self.T < math.inf):
            raise ValidationError(
                f"T={self.T!r} must be a nonnegative finite number")


@dataclass
class SimState:
    """Both phases in one (8, Nx+2) array; c and q are views into it.

    The scratch rows, constants and views the steps use live in
    ``stepper``, made by the first step (a state that is never stepped
    holds none) and made again when u, params, dt or dx change.
    """

    u: np.ndarray                 # (8, Nx+2), rows c1..c4, q1..q4
    t: float
    dt: float
    dx: float
    c: np.ndarray = field(init=False, repr=False)    # (4, Nx+1) view
    q: np.ndarray = field(init=False, repr=False)    # (4, Nx+1) view
    stepper: _Stepper | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        # the steps update u through flat views, which need one block
        self.u = np.ascontiguousarray(self.u, dtype=float)
        self.c = self.u[:4, :-1]
        self.q = self.u[4:, :-1]

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


def _resolve_p(config: SimConfig, params: ModelParams) -> float:
    cap = 1.0 / max(max(params.v), 1.0)
    p = 0.9 * cap if config.p is None else config.p
    if not (isinstance(p, numbers.Real) and 0.0 < p < cap):
        raise BadCFL(f"Courant parameter p={p!r} outside (0, {cap:.6g})")
    return p


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
    back in on the next step.  It serves one u array and one (params, dt,
    dx); ``_stepper`` makes a new one when any of them changes.
    """

    def __init__(self, state: SimState, params: ModelParams):
        u = state.u
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

    def advect(self, frac: float) -> None:
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
        np.subtract(self.flat, self.diff, out=self.flat)
        _apply(self.flat, self.cells)

    def transfer(self) -> None:
        # matmul into u itself would allocate a hidden copy of u
        np.matmul(self.relax, self.cq, out=self.cq_out)
        np.copyto(self.cq, self.cq_out)
        _apply(self.flat, self.cells)


def _stepper(state: SimState, params: ModelParams) -> _Stepper:
    """The state's stepper, made again if u, params, dt or dx changed."""
    k = state.stepper
    if (k is None or k.u is not state.u or k.dt != state.dt
            or k.dx != state.dx
            or (k.params is not params and k.params != params)):
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
        # equal velocities: the dominant eigenvalue is 0 exactly
        lam = 0.0 if params.limit_case else dominant_eigenvalue(params)
    return _sample(eigenfunction(lam, params), Nx)


def sample_steady_state(params: ModelParams, Nx: int) -> tuple:
    """Forced steady profile at the cell centers, shape (4, Nx) each."""
    return _sample(steady_state(params), Nx)


def init(config: SimConfig, params: ModelParams, initial="constant") -> SimState:
    """Fresh state with cells sampled from the initial condition.

    ``initial`` is a preset name ("constant" for (1, P), "zero",
    "eigenfunction" for the dominant mode) or a pair (c, q) of (4, Nx)
    arrays of numbers; data given by a function are its values at
    ``cell_centers(Nx)``.  Anything else is refused with ValidationError.
    """
    p = _resolve_p(config, params)
    dx = 1.0 / config.Nx
    state = SimState(u=np.zeros((8, config.Nx + 2)), t=0.0, dt=p * dx, dx=dx)
    c, q = state.c, state.q
    if isinstance(initial, str):
        if initial == "constant":
            c[:, 1:] = 1.0
            q[:, 1:] = params.P
        elif initial == "eigenfunction":
            c[:, 1:], q[:, 1:] = sample_eigenfunction(params, config.Nx)
        elif initial != "zero":
            raise ValidationError(f"unknown initial preset {initial!r}")
    else:
        shape = (4, config.Nx)
        try:
            c0, q0 = (np.asarray(a, dtype=float) for a in initial)
        except (TypeError, ValueError):     # not a pair, or not numbers
            c0 = q0 = None
        if c0 is None or c0.shape != shape or q0.shape != shape:
            raise ValidationError(
                f"initial must be a preset name or a pair of {shape} "
                "arrays of numbers")
        c[:, 1:] = c0
        q[:, 1:] = q0
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
    Advances the state in place (ghosts refreshed) and returns it.
    """
    _stepper(state, params).advect(frac)
    return state


def mass_transfer_step(state: SimState, params: ModelParams) -> SimState:
    """Exact interphase relaxation over dt; conserves c + P q cellwise.

    Advances the state in place (ghosts refreshed) and returns it.
    """
    _stepper(state, params).transfer()
    return state


def energy(state: SimState, params: ModelParams) -> float:
    """E = 1/2 * sum (c^2 + q^2) dx over the interior cells."""
    c, q = state.c[:, 1:], state.q[:, 1:]
    return 0.5 * float(np.sum(c * c) + np.sum(q * q)) * state.dx


def mass(state: SimState, params: ModelParams) -> float:
    """Q = sum (c + P q) dx over the interior cells."""
    return float(np.sum(state.c[:, 1:] + params.P * state.q[:, 1:])) \
        * state.dx


def sup_norm(state: SimState) -> float:
    return float(max(np.abs(state.c[:, 1:]).max(),
                     np.abs(state.q[:, 1:]).max()))


def _profile_norm2(eigen_profile: tuple) -> float:
    """Squared norm of a reference profile over both components."""
    ref_c, ref_q = eigen_profile
    den = float(np.sum(ref_c * ref_c) + np.sum(ref_q * ref_q))
    if den == 0.0:
        raise ZeroProfile("reference profile is identically zero")
    return den


def profile_rms(state: SimState, eigen_profile: tuple) -> float:
    """Distance to the best scalar multiple of a reference profile.

    Minimizes ||state - s*ref|| over s and returns the minimum divided by
    ||s*ref|| (both RMS over interior cells, both components).
    """
    return _profile_rms(state, eigen_profile, _profile_norm2(eigen_profile))


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
        rms = _profile_rms(state, eigen_profile, den)
    return DiagnosticsRow(t=state.t, energy=energy(state, params),
                          mass=mass(state, params),
                          sup_norm=sup_norm(state), profile_rms=rms)


def run(state: SimState, config: SimConfig, params: ModelParams,
        callbacks=None, eigen_profile: tuple | None = None):
    """March to t >= T, recording diagnostics every record_every steps.

    Returns (final state, list of DiagnosticsRow).  The given state is
    left as it is; the run advances a copy in place.  Callbacks, if given,
    are invoked as cb(state, row) at every recorded step with that live
    state, so a callback copies what it keeps.
    """
    state = replace(state, u=state.u.copy())
    if callbacks is None:
        callbacks = []
    elif callable(callbacks):
        callbacks = [callbacks]
    n_steps = int(math.ceil(config.T / state.dt - 1e-12))
    # the profile's norm is the same on every row
    den = None if eigen_profile is None else _profile_norm2(eigen_profile)
    rows = [_row(state, params, eigen_profile, den)]
    for cb in callbacks:
        cb(state, rows[-1])
    for n in range(1, n_steps + 1):
        if config.strang:
            state = advection_step(state, params, frac=0.5)
            state = mass_transfer_step(state, params)
            state = advection_step(state, params, frac=0.5)
        else:
            state = advection_step(state, params)
            state = mass_transfer_step(state, params)
        state.t = n * state.dt
        if n % config.record_every == 0 or n == n_steps:
            if not (np.all(np.isfinite(state.c))
                    and np.all(np.isfinite(state.q))):
                raise NonFiniteDetected(
                    f"non-finite cell value at step {n}, t={state.t:.6g}")
            rows.append(_row(state, params, eigen_profile, den))
            for cb in callbacks:
                cb(state, rows[-1])
    return state, rows


def decay_rate(diagnostics, window) -> float:
    """Least-squares slope of log(sup_norm) over a time window."""
    t_lo, t_hi = window
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
