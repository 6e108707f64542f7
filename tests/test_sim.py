import math
import tracemalloc
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from movingbed.errors import (BadCFL, InsufficientSamples, NonFiniteDetected,
                              ValidationError, ZeroProfile)
from movingbed.params import limit_params
from movingbed.sim import (SimConfig, SimState, advection_step, cell_centers,
                           decay_rate, energy, init, mass, mass_transfer_step,
                           profile_rms, run, sample_eigenfunction, sup_norm)


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


def test_steps_allocate_nothing_the_size_of_u(cs):
    # a Strang step at Nx = 1600 holds 8 * 1602 cells; the smallest
    # temporary of that size is 12.8 kB, so a 4 KiB peak admits none
    st = init(SimConfig(Nx=1600, T=1.0), cs, initial="eigenfunction")
    assert st.stepper is None            # made by the first step only

    def strang_step():
        advection_step(st, cs, frac=0.5)
        mass_transfer_step(st, cs)
        advection_step(st, cs, frac=0.5)

    for _ in range(3):
        strang_step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(20):
            strang_step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4096, f"traced peak {peak} B above the start"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_energy_mass_sup(cs):
    st = init(SimConfig(Nx=16, T=1.0), cs, initial="zero")
    assert energy(st, cs) == 0.0
    assert mass(st, cs) == 0.0
    st = init(SimConfig(Nx=16, T=1.0), cs)
    # constant (1, P) over total length 4
    assert energy(st, cs) == pytest.approx(0.5 * (1 + cs.P ** 2) * 4.0)
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


def test_run_callbacks_and_strang(cs):
    seen = []
    config = SimConfig(Nx=16, T=0.3, record_every=3, strang=True)
    st = init(config, cs)
    run(st, config, cs, callbacks=[lambda s, r: seen.append(r.t)])
    assert seen and seen[0] == 0.0


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
    # the criterion-9 run, which computes the profile norm once per run;
    # each row must equal profile_rms recomputing it, bit for bit
    config = SimConfig(Nx=400, p=0.55, T=60.0, record_every=50)
    profile = sample_eigenfunction(cs, 400, lam=lam0)
    pairs = []
    run(init(config, cs, initial="constant"), config, cs,
        callbacks=lambda s, row: pairs.append(
            (row.profile_rms, profile_rms(s, profile))),
        eigen_profile=profile)
    assert len(pairs) == 874
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
