import math
import pickle
import tracemalloc
from copy import copy, deepcopy
from dataclasses import replace

import numpy as np
import pytest

from movingbed.errors import (BadCFL, InsufficientSamples, NonFiniteDetected,
                              ValidationError, ZeroProfile)
from movingbed.charfun import return_map
from movingbed.eigfun import (adjoint_eigenfunction, checked_pairing,
                              eigenfunction)
from movingbed.params import ZONES, case_study, limit_params
from movingbed.spectrum import collocation_spectrum
from movingbed import sim
from movingbed.sim import (DiagnosticsRow, SimConfig, SimState, advection_step,
                           cell_centers, decay_rate, energy, init, mass,
                           mass_transfer_step, profile_rms, run,
                           sample_eigenfunction, sup_norm)

from oracles import secant


def test_cell_centers_layout():
    x = cell_centers(10)
    assert x.shape == (4, 10)
    assert x[0, 0] == pytest.approx(-2.0 + 0.05)
    assert x[0, -1] == pytest.approx(-1.0 - 0.05)
    assert x[2, 0] == pytest.approx(0.05)
    # cells tile the zones without gaps
    assert np.allclose(np.diff(x, axis=1), 0.1)


def test_init_constant(cs):
    st = init(SimConfig(Nx=16, T=1.0), cs)
    assert st.c.shape == (4, 17) and st.q.shape == (4, 17)
    assert np.all(st.c[:, 1:] == 1.0)
    assert np.all(st.q[:, 1:] == cs.P)
    assert st.t == 0.0
    assert st.dx == pytest.approx(1.0 / 16)


def test_init_zero_and_callable(cs):
    st = init(SimConfig(Nx=16, T=1.0), cs, initial="zero")
    assert sup_norm(st) == 0.0

    def bump(zone, x):
        return np.full_like(x, float(zone)), np.zeros_like(x)

    # a function gives its data as its values at the cell centers
    xs = cell_centers(8)
    c0, q0 = zip(*(bump(z, xs[z - 1]) for z in range(1, 5)))
    st = init(SimConfig(Nx=8, T=1.0), cs, initial=(c0, q0))
    for z in range(4):
        assert np.all(st.c[z, 1:] == z + 1)


def test_init_array_pair(cs):
    c0 = np.random.default_rng(0).uniform(0.5, 1.5, size=(4, 12))
    q0 = cs.P * c0
    st = init(SimConfig(Nx=12, T=1.0), cs, initial=(c0, q0))
    assert np.array_equal(st.c[:, 1:], c0)
    with pytest.raises(ValidationError):
        init(SimConfig(Nx=12, T=1.0), cs, initial=(c0[:, :5], q0))


def test_init_validation(cs):
    with pytest.raises(ValidationError):
        init(SimConfig(Nx=4, T=1.0), cs)
    with pytest.raises(ValidationError):
        init(SimConfig(Nx=16, T=-1.0), cs)
    for T in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            init(SimConfig(Nx=16, T=T), cs)
    with pytest.raises(ValidationError):
        init(SimConfig(Nx=16, T=1.0, record_every=0), cs)
    with pytest.raises(BadCFL):
        init(SimConfig(Nx=16, T=1.0, p=1.5), cs)
    with pytest.raises(BadCFL):
        init(SimConfig(Nx=16, T=1.0, p=0.0), cs)


@pytest.mark.parametrize("bad, error", [
    ({"T": "1"}, ValidationError), ({"T": None}, ValidationError),
    ({"p": "a"}, BadCFL)], ids=["T-string", "T-None", "p-string"])
def test_init_refuses_a_config_value_that_is_not_a_number(cs, bad, error):
    # each raised an untyped TypeError from a comparison before
    with pytest.raises(error):
        init(replace(SimConfig(Nx=16, T=1.0), **bad), cs)


@pytest.mark.parametrize("initial", [
    3, None, (np.ones((4, 16)),) * 3, [np.ones((4, 16))],
    (np.full((4, 16), "a"), np.ones((4, 16))),
    lambda zone, x: (np.ones_like(x), np.ones_like(x))],
    ids=["int", "None", "3-tuple", "1-list", "strings", "callable"])
def test_init_refuses_initial_data_it_cannot_take(cs, initial):
    # each raised an untyped TypeError or ValueError before, but the
    # function, which was taken as a second form of initial data
    with pytest.raises(ValidationError, match="preset name or a pair"):
        init(SimConfig(Nx=16, T=1.0), cs, initial=initial)


def test_init_refuses_an_unknown_preset_name(cs):
    with pytest.raises(ValidationError,
                       match=r"^unknown initial preset 'bogus'$"):
        init(SimConfig(Nx=16, T=1.0), cs, "bogus")


@pytest.mark.parametrize("c0, match", [
    (np.ones((4, 16)) * (1.0 + 1.0j), "real numbers"),
    (np.ones((4, 16)) + 0j, "real numbers"),
    (np.full((4, 16), math.nan), "finite"),
    (np.full((4, 16), math.inf), "finite"),
    (np.where(np.eye(4, 16) > 0, -math.inf, 1.0), "finite")],
    ids=["complex", "complex-zero-imag", "nan", "inf", "one-minus-inf"])
def test_init_refuses_complex_or_non_finite_initial_data(cs, c0, match):
    # a complex pair was cast with only a ComplexWarning, and nan or inf
    # surfaced only at the first recorded step as NonFiniteDetected
    config = SimConfig(Nx=16, T=1.0)
    for pair in ((c0, np.ones((4, 16))), (np.ones((4, 16)), c0)):
        with pytest.raises(ValidationError, match=match):
            init(config, cs, initial=pair)


def test_init_takes_real_and_integer_arrays(cs):
    config = SimConfig(Nx=16, T=1.0)
    ints = np.arange(64).reshape(4, 16)
    st = init(config, cs, initial=(ints, ints.astype(np.float32)))
    assert st.c.dtype == st.q.dtype == np.float64
    assert np.array_equal(st.c[:, 1:], ints)
    assert np.array_equal(st.q[:, 1:], ints)
    for preset in ("constant", "zero", "eigenfunction"):
        assert np.isfinite(init(config, cs, initial=preset).u).all()


@pytest.mark.parametrize("bad", [{"record_every": 0}, {"T": math.inf},
                                 {"T": math.nan}, {"T": -1.0}])
def test_run_refuses_a_config_it_cannot_run(cs, bad):
    st = init(SimConfig(Nx=16, T=1.0), cs)
    with pytest.raises(ValidationError):
        run(st, SimConfig(Nx=16, **bad), cs)


def test_cell_centers_refuse_an_empty_grid(cs):
    with pytest.raises(ValidationError):
        cell_centers(0)
    with pytest.raises(ValidationError):
        sample_eigenfunction(cs, 0)
    # an int beyond the double range raised OverflowError
    with pytest.raises(ValidationError):
        sample_eigenfunction(cs, 8, 2 ** 2000)


def test_a_state_is_not_stepped_under_velocities_that_break_its_cfl(cs):
    # init checks p against its own params only: run under three times v1
    # and v3 (Courant number 2.7) ended with a sup norm of 5.9e47 and a
    # most negative cell of -2.8e47, and raised no error
    config = SimConfig(Nx=32, T=2.0)
    st = init(config, cs)
    fast = replace(cs, v1=3 * cs.v1, v3=3 * cs.v3)
    before = st.u.tobytes()
    for step in (lambda: run(st, config, fast),
                 lambda: advection_step(st, fast),
                 lambda: mass_transfer_step(st, fast)):
        with pytest.raises(BadCFL, match="dt/dx"):
            step()
        assert st.u.tobytes() == before and st.stepper is None
    # a stepper made under cs does not serve fast either
    advection_step(st, cs)
    kept, before = st.stepper, st.u.tobytes()
    with pytest.raises(BadCFL):
        advection_step(st, fast)
    assert st.u.tobytes() == before and st.stepper is kept
    # a dt raised past the bound is refused under the params init took
    st.dt *= 2.0
    with pytest.raises(BadCFL):
        mass_transfer_step(st, cs)


@pytest.mark.parametrize("params", [limit_params(v=1.0), limit_params(),
                                    case_study()])
def test_a_p_init_takes_is_taken_by_the_first_step(params):
    # p just below 1/max(v, 1): dt = p * dx, read back as dt/dx, can
    # round up to the bound; init refuses such a p, so no p it takes is
    # refused by a step
    p = math.nextafter(1.0 / max(max(params.v), 1.0), 0.0)
    taken = 0
    for Nx in range(8, 400):
        try:
            st = init(SimConfig(Nx=Nx, T=1.0, p=p), params)
        except BadCFL:
            continue
        advection_step(st, params)
        mass_transfer_step(st, params)
        taken += 1
    assert taken > 300


def test_ghost_cells_feed(cs):
    p = replace(cs, f0=0.5)
    st = init(SimConfig(Nx=16, T=1.0), p)
    # zone-3 inlet ghost carries the feed source on top of the zone-2 exit
    want = (p.v2 * st.c[1, -1] + 0.5) / p.v3
    assert st.c[2, 0] == pytest.approx(want, rel=1e-14)
    # wrap ghost scales by the velocity ratio
    assert st.c[0, 0] == pytest.approx(p.v4 * st.c[3, -1] / p.v1, rel=1e-14)
    # solid ghosts copy the upstream exit (solid moves right to left)
    assert st.q[1, 0] == st.q[0, -1]


# ---------------------------------------------------------------------------
# sub-step properties
# ---------------------------------------------------------------------------

def test_mass_transfer_fixed_point(cs):
    st = init(SimConfig(Nx=16, T=1.0), cs)   # constant (1, P) is equilibrium
    before = st.c.copy(), st.q.copy()
    st = mass_transfer_step(st, cs)
    assert np.allclose(st.c, before[0], atol=1e-15)
    assert np.allclose(st.q, before[1], atol=1e-15)


def test_mass_transfer_conserves_c_plus_Pq(cs):
    rng = np.random.default_rng(3)
    c0 = rng.uniform(0.0, 2.0, size=(4, 24))
    q0 = rng.uniform(0.0, 2.0, size=(4, 24))
    st = init(SimConfig(Nx=24, T=1.0), cs, initial=(c0, q0))
    invariant = st.c[:, 1:] + cs.P * st.q[:, 1:]
    st = mass_transfer_step(st, cs)
    assert np.allclose(st.c[:, 1:] + cs.P * st.q[:, 1:], invariant,
                       atol=1e-14)


def test_mass_transfer_relaxes_toward_equilibrium(cs):
    # pure liquid loading relaxes toward q/c = P
    c0 = np.ones((4, 16))
    q0 = np.zeros((4, 16))
    st = init(SimConfig(Nx=16, T=1.0), cs, initial=(c0, q0))
    st = mass_transfer_step(st, cs)
    assert np.all(st.q[:, 1:] > 0)
    ratio = st.q[:, 1:] / st.c[:, 1:]
    assert np.all(ratio < cs.P)


def test_limit_constant_is_advection_fixed_point():
    lp = limit_params()
    st = init(SimConfig(Nx=16, T=1.0), lp)
    st = advection_step(st, lp)
    assert np.allclose(st.c[:, 1:], 1.0, atol=1e-14)
    assert np.allclose(st.q[:, 1:], lp.P, atol=1e-14)


def test_unit_courant_exact_shift():
    # with every speed equal to 1 and Courant number ~1, the limited
    # Lax-Wendroff step is an exact one-cell shift for both phases (in
    # opposite directions)
    lp = limit_params(v=1.0)
    Nx = 32
    rng = np.random.default_rng(11)
    c0 = rng.uniform(0.5, 1.5, size=(4, Nx))
    q0 = rng.uniform(0.5, 1.5, size=(4, Nx))
    st = init(SimConfig(Nx=Nx, T=1.0, p=1.0 - 1e-12), lp, initial=(c0, q0))
    ghost_c = st.c[:, 0].copy()
    ghost_q_next = np.roll(st.q[:, 1], -1).copy()
    st = advection_step(st, lp)
    # liquid shifted right: cell j takes cell j-1, first cell the ghost
    assert np.allclose(st.c[:, 2:], c0[:, :-1], atol=1e-9)
    assert np.allclose(st.c[:, 1], ghost_c, atol=1e-9)
    # solid shifted left: cell j takes cell j+1, last cell its neighbor
    assert np.allclose(st.q[:, 1:-1], q0[:, 1:], atol=1e-9)
    assert np.allclose(st.q[:, -1], ghost_q_next, atol=1e-9)


def test_advection_step_matches_loop_reference(cs):
    from oracles import limited_advection_loop
    rng = np.random.default_rng(13)
    Nx = 24
    for params in (replace(cs, f0=0.7), limit_params()):
        for frac in (1.0, 0.5):
            c0 = rng.uniform(0.0, 2.0, size=(4, Nx))
            q0 = rng.uniform(0.0, 2.0, size=(4, Nx))
            st = init(SimConfig(Nx=Nx, T=1.0), params, initial=(c0, q0))
            want_c, want_q = limited_advection_loop(
                c0, q0, params.v, params.f0, frac * st.dt / st.dx)
            st = advection_step(st, params, frac=frac)
            assert np.allclose(st.c[:, 1:], want_c, rtol=0, atol=1e-14)
            assert np.allclose(st.q[:, 1:], want_q, rtol=0, atol=1e-14)


@pytest.mark.parametrize("frac", [None, math.nan, math.inf, "0.5", 1 + 0j,
                                  0, 0.0, -0.5, True, 1.0 + 1e-12, 2.5])
def test_advection_step_refuses_a_frac_outside_zero_one(cs, frac):
    st = init(SimConfig(Nx=16, T=0.2), cs)
    before = st.u.copy()
    with pytest.raises(ValidationError, match="frac"):
        advection_step(st, cs, frac=frac)
    assert st.u.tobytes() == before.tobytes()


def test_advection_step_takes_any_real_frac_in_zero_one(cs):
    st = init(SimConfig(Nx=16, T=0.2), cs, initial="eigenfunction")
    want = replace(st, u=st.u.copy())
    advection_step(want, cs, frac=0.25)
    advection_step(st, cs, frac=np.float32(0.25))
    assert st.u.tobytes() == want.u.tobytes()
    advection_step(st, cs, frac=1)
    assert np.isfinite(st.u).all()


def _stepped(state, params, frac):
    """A fresh copy of the state (no stepper yet), advected and relaxed."""
    fresh = replace(state, u=state.u.copy())
    advection_step(fresh, params, frac=frac)
    return mass_transfer_step(fresh, params).u


def test_stepper_follows_params_frac_and_dt(cs):
    # one state stepped under changing constants matches, bit for bit, a
    # fresh copy stepped once under the constants of that step
    rng = np.random.default_rng(17)
    a = replace(cs, f0=0.7)
    b = replace(cs, v1=0.95 * cs.v1, v2=0.95 * cs.v2, v3=0.95 * cs.v3,
                v4=0.95 * cs.v4, R=1.2 * cs.R, P=1.05 * cs.P, f0=0.3)
    same_as_a = replace(a)
    assert same_as_a == a and same_as_a is not a
    st = init(SimConfig(Nx=24, T=1.0), a,
              initial=(rng.uniform(0.0, 2.0, (4, 24)),
                       rng.uniform(0.0, 2.0, (4, 24))))

    def step_matches_fresh_copy(params, frac):
        want = _stepped(st, params, frac)
        advection_step(st, params, frac=frac)
        mass_transfer_step(st, params)
        assert st.u.tobytes() == want.tobytes()

    for params, frac in [(a, 1.0), (b, 1.0), (a, 1.0), (a, 0.5), (a, 1.0),
                         (a, 0.5), (b, 0.5), (same_as_a, 1.0), (a, 1.0)]:
        step_matches_fresh_copy(params, frac)
    st.dt *= 0.5
    step_matches_fresh_copy(a, 1.0)
    # an equal parameter object keeps the stepper; a new u array does not
    kept = st.stepper
    advection_step(st, replace(a), frac=1.0)
    assert st.stepper is kept
    copy = replace(st, u=st.u.copy())
    assert copy.stepper is None
    advection_step(copy, a)
    assert copy.stepper is not kept
    # a deep copy steps its own u, not a copy of the old stepper's views
    deep = deepcopy(st)
    want = _stepped(st, a, 1.0)
    advection_step(deep, a)
    mass_transfer_step(deep, a)
    assert deep.u.tobytes() == want.tobytes()


def _assert_read_from_u(st, profile):
    """c, q and dx describe the state's current u, and every diagnostic
    equals that of a fresh state made from a copy of it."""
    assert np.shares_memory(st.c, st.u) and np.shares_memory(st.q, st.u)
    assert st.dx == 1.0 / 16
    fresh = SimState(st.u.copy(), st.t, st.dt)
    for diagnostic in (energy, lambda s: mass(s, case_study()), sup_norm,
                       lambda s: profile_rms(s, profile)):
        assert diagnostic(st) == diagnostic(fresh)


def _swapped(st):
    st.u = st.u * 0.5
    return st


def _strided(st):
    # rows 2 Nx + 4 apart: no flat view of this u exists, and the steps
    # advanced a flat copy of it
    st.u = np.hstack([st.u, st.u])[:, :st.u.shape[1]]
    return st


@pytest.mark.parametrize("make", [
    copy, deepcopy, lambda st: pickle.loads(pickle.dumps(st)),
    _swapped, _strided],
    ids=["copy", "deepcopy", "pickle", "new-u", "strided-u"])
def test_c_q_and_dx_are_read_from_the_current_u(cs, make):
    # c, q and dx were stored beside u: after a deep copy, a pickle round
    # trip or a new u, the diagnostics read the old cells
    profile = sample_eigenfunction(cs, 16)
    st = init(SimConfig(Nx=16, T=1.0), cs, initial="eigenfunction")
    advection_step(st, cs)
    mass_transfer_step(st, cs)
    st = make(st)
    want = _stepped(st, cs, 1.0)
    advection_step(st, cs)
    mass_transfer_step(st, cs)
    assert np.array_equal(st.u, want)
    _assert_read_from_u(st, profile)
    # assigning to c or q writes into u
    before = st.u.copy()
    st.c *= 2.5
    assert np.array_equal(st.u[:4, :-1], 2.5 * before[:4, :-1])
    assert np.array_equal(st.u[:, -1], before[:, -1])
    assert np.array_equal(st.u[4:], before[4:])


@pytest.mark.parametrize("swap", [_swapped, _strided],
                         ids=["new-u", "strided-u"])
def test_a_resumed_run_follows_a_u_swapped_in(cs, swap):
    # swap u on the state a run returned and run on: the rows are those of
    # a run from a fresh state holding the new u at the same t and dt
    config = SimConfig(Nx=16, T=0.5, record_every=3)
    profile = sample_eigenfunction(cs, 16)
    mid, _ = run(init(config, cs, initial="eigenfunction"),
                 replace(config, T=0.2), cs)
    mid = swap(mid)
    fresh = SimState(mid.u.copy(), mid.t, mid.dt)
    st, rows = run(mid, config, cs, eigen_profile=profile)
    want, want_rows = run(fresh, config, cs, eigen_profile=profile)
    assert len(rows) > 2
    assert rows == want_rows
    assert rows[0].t == mid.t > 0.0
    assert np.array_equal(st.u, want.u)
    _assert_read_from_u(st, profile)


def test_steps_allocate_nothing_the_size_of_u(cs, monkeypatch):
    # a step at Nx = 1600 holds 8 * 1602 cells; the smallest temporary of
    # that size is 12.8 kB, so a 4 KiB peak admits none
    config = SimConfig(Nx=1600, T=1.0, record_every=10 ** 6)
    st = init(config, cs, initial="eigenfunction")
    assert st.stepper is None            # made by the first step only

    def plain_step():
        advection_step(st, cs)
        mass_transfer_step(st, cs)

    def strang_step():
        advection_step(st, cs, frac=0.5)
        mass_transfer_step(st, cs)
        advection_step(st, cs, frac=0.5)

    for step in (plain_step, strang_step):
        for _ in range(3):
            step()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(20):
                step()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4096, f"traced peak {peak} B above the start"

    # the steps inside run: each relaxation's peak is traced over all
    # that ran since the end of the previous one, its advection included
    peaks, base = [], [0]
    relax = sim.mass_transfer_step

    def traced_relax(state, params):
        state = relax(state, params)
        if tracemalloc.is_tracing():
            peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]
        return state

    monkeypatch.setattr(sim, "mass_transfer_step", traced_relax)
    for strang in (False, True):
        peaks.clear()
        try:
            run(st, replace(config, T=25 * st.dt, strang=strang), cs)
        finally:
            tracemalloc.stop()
        assert len(peaks) >= 20
        assert max(peaks) <= 4096, f"traced peaks {peaks} B above the start"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_energy_mass_sup(cs):
    st = init(SimConfig(Nx=16, T=1.0), cs, initial="zero")
    assert energy(st) == 0.0
    assert mass(st, cs) == 0.0
    st = init(SimConfig(Nx=16, T=1.0), cs)
    # constant (1, P) over total length 4
    assert energy(st) == pytest.approx(0.5 * (1 + cs.P ** 2) * 4.0)
    assert mass(st, cs) == pytest.approx((1 + cs.P ** 2) * 4.0)
    assert sup_norm(st) == pytest.approx(cs.P)


def test_energy_non_increasing(cs):
    config = SimConfig(Nx=64, T=2.0, record_every=5)
    st = init(config, cs)
    _, diag = run(st, config, cs)
    es = [r.energy for r in diag]
    assert all(b <= a + 1e-12 for a, b in zip(es, es[1:]))


def test_positivity_preserved(cs):
    rng = np.random.default_rng(5)
    config = SimConfig(Nx=32, T=1.5)
    fed = replace(cs, f0=0.5)
    c0 = rng.uniform(0.0, 1.0, size=(4, 32))
    q0 = rng.uniform(0.0, 1.0, size=(4, 32))
    st = init(config, fed, initial=(c0, q0))
    st, _ = run(st, config, fed)
    assert st.c.min() >= 0.0
    assert st.q.min() >= 0.0


def test_limit_mass_conserved_short_run():
    lp = limit_params()
    config = SimConfig(Nx=64, T=2.0, record_every=10)
    st = init(config, lp, initial="eigenfunction")
    m0 = mass(st, lp)
    _, diag = run(st, config, lp)
    drift = max(abs(r.mass - m0) for r in diag)
    assert drift <= 1e-12 * max(1.0, abs(m0))


def test_run_records_and_final_time(cs):
    config = SimConfig(Nx=16, T=0.5, record_every=7)
    st = init(config, cs)
    st, diag = run(st, config, cs)
    assert st.t >= 0.5 - 1e-12
    assert diag[0].t == 0.0
    assert diag[-1].t == st.t
    n_steps = round(st.t / st.dt)
    assert len(diag) == 2 + (n_steps - 1) // 7


@pytest.mark.parametrize("strang", [False, True], ids=["plain", "strang"])
@pytest.mark.parametrize("which", ["case", "fed", "limit"])
def test_a_resumed_run_is_one_run(cs, which, strang):
    # run restarted the clock at 0: resumed from a state at t = 1.029 with
    # T = 1, its rows read t = 1.029, 0.368, 0.735, 1.029
    params = {"case": cs, "fed": replace(cs, f0=0.7),
              "limit": limit_params()}[which]
    config = SimConfig(Nx=16, T=2.0, record_every=10, strang=strang)
    st = init(config, params, initial="eigenfunction")
    mid, first = run(st, replace(config, T=1.0), params)
    got, second = run(mid, config, params)
    want, _ = run(st, config, params)
    assert got.u.tobytes() == want.u.tobytes()
    assert second[0] == first[-1]
    times = [r.t for r in first + second[1:]]
    assert times == sorted(set(times))
    assert got.t == pytest.approx(want.t, rel=1e-15)


def test_a_run_with_dt_halved_between_segments_reaches_T(cs):
    # a callback that halved dt at row 0 left the run the 28 steps worked
    # out from the old dt, so it stopped at t = 0.515 with T = 1
    config = SimConfig(Nx=16, T=1.0, record_every=10)
    mid, _ = run(init(config, cs), replace(config, T=0.5), cs)
    mid.dt *= 0.5
    got, rows = run(mid, config, cs)
    want, want_rows, _ = _public_run(mid, config, cs)
    assert config.T <= got.t < config.T + got.dt
    assert got.t == mid.t + round((got.t - mid.t) / got.dt) * got.dt
    assert got.u.tobytes() == want.u.tobytes()
    assert rows == want_rows


def test_a_state_at_or_past_T_takes_no_step(cs):
    config = SimConfig(Nx=16, T=1.0, record_every=10)
    done, rows = run(init(config, cs), config, cs)
    assert done.t > config.T
    for T in (done.t, config.T, 0.5, 0.0):
        got, again = run(done, replace(config, T=T), cs)
        assert again == [rows[-1]]
        assert got is not done
        assert got.t == done.t
        assert got.u.tobytes() == done.u.tobytes()


def test_run_refuses_a_state_on_another_grid(cs):
    st = init(SimConfig(Nx=16, T=0.2), cs)
    with pytest.raises(ValidationError, match="Nx"):
        run(st, SimConfig(Nx=64, T=0.2), cs)


def _public_run(state, config, params, eigen_profile=None):
    """run rebuilt from the public sub-steps and diagnostics: the final
    state, its rows and the inlet ghost column of c at each row."""
    st = replace(state, u=state.u.copy())
    t0 = st.t
    n_steps = max(int(math.ceil((config.T - t0) / st.dt - 1e-12)), 0)

    def row():
        rms = (None if eigen_profile is None
               else profile_rms(st, eigen_profile))
        return DiagnosticsRow(t=st.t, energy=energy(st),
                              mass=mass(st, params), sup_norm=sup_norm(st),
                              profile_rms=rms)

    rows, ghosts = [row()], [st.c[:, 0].copy()]
    for n in range(1, n_steps + 1):
        if config.strang:
            advection_step(st, params, frac=0.5)
            mass_transfer_step(st, params)
            advection_step(st, params, frac=0.5)
        else:
            advection_step(st, params)
            mass_transfer_step(st, params)
        st.t = t0 + n * st.dt
        if n % config.record_every == 0 or n == n_steps:
            rows.append(row())
            ghosts.append(st.c[:, 0].copy())
    return st, rows, ghosts


@pytest.mark.parametrize("strang", [False, True], ids=["plain", "strang"])
@pytest.mark.parametrize("which, Nx, initial", [
    ("case", 16, "constant"), ("case", 16, "eigenfunction"),
    ("case", 400, "constant"), ("case", 400, "eigenfunction"),
    ("fed", 24, "random"), ("limit", 24, "eigenfunction"),
    ("limit", 400, "random")])
def test_run_is_the_public_step_sequence(cs, which, Nx, initial, strang):
    # run hands the advected cells straight to the relaxation; its states,
    # rows and ghosts must be those of the public sub-steps, bit for bit
    params = {"case": cs, "fed": replace(cs, f0=0.7),
              "limit": limit_params()}[which]
    if initial == "random":
        rng = np.random.default_rng(Nx)
        initial = (rng.uniform(0.0, 2.0, (4, Nx)),
                   rng.uniform(0.0, 2.0, (4, Nx)))
    config = SimConfig(Nx=Nx, T=0.3 if Nx < 100 else 0.1, record_every=3,
                       strang=strang)
    st = init(config, params, initial=initial)
    profile = sample_eigenfunction(params, Nx)
    got, rows = run(st, config, params, eigen_profile=profile)
    want, want_rows, want_ghosts = _public_run(st, config, params, profile)
    assert len(rows) > 3
    assert got.u.tobytes() == want.u.tobytes()
    assert rows == want_rows
    # the ghosts at each row: the final u of runs of record_every steps
    # (a T half a step short of t + record_every*dt, which rounding in
    # t could push past it and add a step)
    seg, ghosts = st, [st.c[:, 0].copy()]
    for _ in rows[1:]:
        T = min(seg.t + (config.record_every - 0.5) * seg.dt, config.T)
        seg, _ = run(seg, replace(config, T=T), params)
        ghosts.append(seg.c[:, 0].copy())
    assert seg.u.tobytes() == want.u.tobytes()
    assert [g.tobytes() for g in ghosts] == [g.tobytes() for g in want_ghosts]


@pytest.mark.parametrize("strang", [False, True], ids=["plain", "strang"])
def test_run_leaves_no_step_half_done(cs, strang):
    # a relaxation of run's final state relaxes that state's own cells
    config = SimConfig(Nx=24, T=0.2, strang=strang)
    st, _ = run(init(config, cs, initial="eigenfunction"), config, cs)
    want = replace(st, u=st.u.copy())
    mass_transfer_step(want, cs)
    mass_transfer_step(st, cs)
    assert st.u.tobytes() == want.u.tobytes()
    advection_step(want, cs)
    advection_step(st, cs)
    assert st.u.tobytes() == want.u.tobytes()


def test_nonfinite_detected(cs):
    config = SimConfig(Nx=16, T=1.0, record_every=1)
    st = init(config, cs)
    st.c[2, 5] = np.nan
    with pytest.raises(NonFiniteDetected):
        run(st, config, cs)


def test_decay_rate_needs_samples(cs):
    config = SimConfig(Nx=16, T=0.5, record_every=50)
    st = init(config, cs)
    _, diag = run(st, config, cs)
    with pytest.raises(InsufficientSamples):
        decay_rate(diag, (0.0, 0.5))


def test_decay_rate_rejects_zero_sup(cs):
    config = SimConfig(Nx=16, T=1.0, record_every=1)
    st = init(config, cs, initial="zero")
    _, diag = run(st, config, cs)
    with pytest.raises(InsufficientSamples):
        decay_rate(diag, (0.0, 1.0))


def test_decay_rate_matches_eigenvalue(cs, lam0):
    config = SimConfig(Nx=200, T=12.0, record_every=20)
    st = init(config, cs, initial="eigenfunction")
    profile = sample_eigenfunction(cs, 200)
    _, diag = run(st, config, cs, eigen_profile=profile)
    rate = decay_rate(diag, (2.0, 12.0))
    assert rate == pytest.approx(lam0, rel=0.03)


def test_run_profile_rms_is_the_per_row_formula(cs, lam0):
    # the criterion-9 run in segments of record_every steps (T half a
    # step short, as above), each run computing the profile norm once;
    # each row must equal profile_rms recomputing it, bit for bit
    config = SimConfig(Nx=400, p=0.55, T=60.0, record_every=50)
    profile = sample_eigenfunction(cs, 400, lam=lam0)
    st, pairs = init(config, cs, initial="constant"), []
    while st.t < config.T:
        start = st
        T = min(st.t + (config.record_every - 0.5) * st.dt, config.T)
        st, rows = run(start, replace(config, T=T), cs,
                       eigen_profile=profile)
        assert len(rows) == 2
        pairs += [(rows[0].profile_rms, profile_rms(start, profile)),
                  (rows[-1].profile_rms, profile_rms(st, profile))]
    assert len(pairs) == 2 * 873
    assert all(got == want for got, want in pairs)


def test_profile_rms(cs):
    config = SimConfig(Nx=32, T=1.0)
    profile = sample_eigenfunction(cs, 32)
    st = init(config, cs, initial=profile)
    # state is exactly the reference: distance ~ 0, any scaling too
    assert profile_rms(st, profile) <= 1e-12
    st.c *= 2.5
    st.q *= 2.5
    assert profile_rms(st, profile) <= 1e-12
    with pytest.raises(ZeroProfile):
        profile_rms(st, (np.zeros((4, 32)), np.zeros((4, 32))))
    st2 = init(config, cs, initial="zero")
    with pytest.raises(ZeroProfile):
        profile_rms(st2, profile)


def test_run_records_no_profile_rms_where_the_state_has_no_component(cs):
    # the ZeroProfile of such a row escaped from run; profile_rms itself
    # still raises it (test_profile_rms)
    config = SimConfig(Nx=16, T=0.5, record_every=4)
    profile = sample_eigenfunction(cs, 16)
    _, rows = run(init(config, cs, initial="zero"), config, cs,
                  eigen_profile=profile)
    assert len(rows) > 2 and all(r.profile_rms is None for r in rows)


def test_limit_eigenfunction_is_the_zero_mode(lp):
    # dominant_eigenvalue gives the limit's 0 exactly: no branch of its own
    for got, want in zip(sample_eigenfunction(lp, 16),
                         sample_eigenfunction(lp, 16, lam=0.0)):
        assert np.array_equal(got, want)


def test_profile_rms_detects_mismatch(cs):
    config = SimConfig(Nx=32, T=1.0)
    profile = sample_eigenfunction(cs, 32)
    rng = np.random.default_rng(9)
    c0 = rng.uniform(0.5, 1.5, size=(4, 32))
    st = init(config, cs, initial=(c0, cs.P * c0))
    assert profile_rms(st, profile) > 0.1


# ---------------------------------------------------------------------------
# convergence of the full scheme
# ---------------------------------------------------------------------------

def test_decay_rate_error_halves_with_grid(cs, lam0):
    errs = []
    for Nx in (100, 200):
        config = SimConfig(Nx=Nx, T=20.0, record_every=10)
        st = init(config, cs, initial="eigenfunction")
        _, diag = run(st, config, cs)
        errs.append(abs(decay_rate(diag, (2.0, 20.0)) - lam0))
    ratio = errs[1] / errs[0]
    assert 0.15 <= ratio <= 0.35   # second-order limited Lax-Wendroff


def test_splitting_consistency(cs):
    # Lie split of the two exact sub-flows differs from a fine reference
    # by O(dx) once p fixes dt ~ dx
    ref_cfg = SimConfig(Nx=128, T=0.5, record_every=10 ** 6)
    ref = init(ref_cfg, cs, initial="eigenfunction")
    ref, _ = run(ref, ref_cfg, cs)

    errs = []
    for Nx in (32, 64):
        cfg = SimConfig(Nx=Nx, T=0.5, record_every=10 ** 6)
        st = init(cfg, cs, initial="eigenfunction")
        st, _ = run(st, cfg, cs)
        step = 128 // Nx
        coarse_of_ref = ref.c[:, 1:].reshape(4, Nx, step).mean(axis=2)
        errs.append(np.abs(st.c[:, 1:] - coarse_of_ref).max())
    assert errs[0] <= 1.0 * (1.0 / 32)
    assert errs[1] <= 0.65 * errs[0]


# ---------------------------------------------------------------------------
# the late-time profile: lambda0, lambda1, both modes and the pairing
# ---------------------------------------------------------------------------

def _late_time_error(cs, lams, Nx):
    """Relative L2 error, at T = 30 after a Strang run from the constant
    data (1, P), of the prediction sum_k M_k e^{lambda_k t} u_k over lams:
    M_k is the midpoint sum of the initial cells against the adjoint mode
    at conj(lambda_k), divided by the checked pairing <u_k, u_k*>."""
    config = SimConfig(Nx=Nx, T=30.0, strang=True, record_every=10 ** 6)
    st, _ = run(init(config, cs, "constant"), config, cs)
    x = cell_centers(Nx)
    pred = np.zeros((2, 4, Nx), dtype=complex)
    for lam in lams:
        direct = eigenfunction(lam, cs)
        adjoint = adjoint_eigenfunction(np.conj(lam), cs)
        ca, qa = adjoint.zone_values(ZONES, x)
        M = ((np.conj(ca) + cs.P * np.conj(qa)).sum() / Nx
             / checked_pairing(direct, adjoint))
        pred += M * np.exp(lam * st.t) * np.array(direct.zone_values(ZONES,
                                                                     x))
    got = np.array([st.c[:, 1:], st.q[:, 1:]])
    return float(np.linalg.norm(got - pred) / np.linalg.norm(pred))


def test_late_time_profile_is_the_two_mode_prediction(cs, lam0):
    # the simulator shares no code with Delta, the port systems or the
    # pairing integrals; with the lambda1 pair the prediction has no error
    # floor of its own, so the error falls at Strang splitting's second
    # order (measured 2.87e-3, 7.33e-4 and 1.88e-4: orders 1.97 and 1.96)
    ev = collocation_spectrum(cs, 45)
    ev = ev[np.abs(ev.imag) > 1e-9]
    lam1 = secant(lambda lam: return_map(lam, cs).delta,
                  complex(ev[np.argmax(ev.real)]))
    assert abs(return_map(lam1, cs).delta) <= 1e-8
    errs = [_late_time_error(cs, (lam0, lam1, lam1.conjugate()), Nx)
            for Nx in (100, 200, 400)]
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert (orders >= 1.7).all(), (errs, orders)
    assert errs[-1] <= 3e-4, errs
