import math

import pytest

from movingbed import sim
from movingbed.eigfun import eigenfunction, evaluate
from movingbed.errors import (NonNegativeEigenvalue, NonPositiveParameter,
                              PortOrderingViolated, ValidationError)
from movingbed.params import (ModelParams, PhysicalParams, case_study,
                              from_physical, limit_params, load_params,
                              params_from_dict, params_to_dict, preset,
                              save_params, time_constant)
from movingbed.spectrum import (collocation_spectrum, limit_point,
                                limit_spectrum, real_root_scan)


def test_case_study_values(cs):
    assert cs.v == (1.53, 1.12, 1.43, 1.02)
    assert cs.R == 18.0
    assert cs.P == 1.03
    assert cs.f0 == 0.0
    assert cs.strict_ports
    assert not cs.limit_case


def test_case_study_physical_consistency(cs):
    phys = cs.physical
    # R = k L_zone / u_s and v_i = m_i / (F H) up to the rounded F
    assert phys.k * phys.L_zone / phys.u_s == pytest.approx(18.0)
    F = (1.0 - phys.epsilon) / phys.epsilon
    assert F == pytest.approx(0.4925, abs=1e-4)


def test_from_physical_matches_case_study(cs):
    derived = from_physical(cs.physical, use_rounded_F=True)
    assert derived.R == pytest.approx(cs.R, rel=1e-12)
    for a, b in zip(derived.v, cs.v):
        assert a == pytest.approx(b, rel=1e-12)
    # P = sqrt(F H) = sqrt(1.07); the reference set rounds it to 1.03
    assert derived.P == pytest.approx(cs.P, abs=5e-3)


def test_limit_params():
    p = limit_params()
    assert p.limit_case
    assert not p.strict_ports
    assert p.v == (1.275, 1.275, 1.275, 1.275)


def test_positivity_validation():
    with pytest.raises(NonPositiveParameter):
        ModelParams(1.5, 1.1, 1.4, 1.0, R=-1.0, P=1.0)
    with pytest.raises(NonPositiveParameter):
        ModelParams(0.0, 1.1, 1.4, 1.0, R=18.0, P=1.0)


def test_port_ordering_validation():
    # v2 > v1 breaks the strict layout and is not the equal-velocity case
    with pytest.raises(PortOrderingViolated):
        ModelParams(1.12, 1.53, 1.43, 1.02, R=18.0, P=1.03)


@pytest.mark.parametrize("v,port", [
    ((1.2, 1.0, 1.5, 1.3), "eluent"),       # only v1 > v4 fails
    ((1.2, 1.3, 1.5, 1.0), "extract"),      # only v1 > v2 fails
    ((1.5, 1.3, 1.2, 1.0), "feed"),         # only v3 > v2 fails
    ((1.5, 1.0, 1.2, 1.3), "raffinate")])   # only v3 > v4 fails
def test_each_port_inequality_is_checked(v, port):
    with pytest.raises(PortOrderingViolated, match=f"at the {port} port"):
        ModelParams(*v, R=18.0, P=1.03)


def test_dict_round_trip(cs):
    assert params_from_dict(params_to_dict(cs)) == cs


def test_save_load_round_trip(tmp_path, cs):
    path = tmp_path / "params.json"
    save_params(cs, path)
    assert load_params(path) == cs


def test_time_constant(cs):
    # tau = L_ref / (u_s |lambda0|) in minutes
    tau = time_constant(-0.110377, cs.physical, L_ref=30.0)
    assert tau == pytest.approx(13.5898, abs=1e-3)
    # a nan rate or a non-finite L_ref gave nan or inf
    for lam, L_ref, error in ((math.nan, 30.0, NonNegativeEigenvalue),
                              (0.0, 30.0, NonNegativeEigenvalue),
                              (-0.11, 0.0, NonPositiveParameter),
                              (-0.11, math.nan, NonPositiveParameter),
                              (-0.11, math.inf, NonPositiveParameter)):
        with pytest.raises(error):
            time_constant(lam, cs.physical, L_ref=L_ref)


@pytest.mark.parametrize("lam", [-math.inf, "x", None, -0.1j, [-0.1]])
def test_time_constant_refuses_a_rate_that_is_not_finite_and_real(cs, lam):
    # -inf gave tau = 0.0, the others a TypeError
    with pytest.raises(ValidationError):
        time_constant(lam, cs.physical, L_ref=30.0)


# every entry point that takes a count: (count's name, the call with it,
# the least count it takes, or None for any integer)
_COUNTS = {
    "SimConfig.Nx": ("Nx", lambda n: sim.SimConfig(Nx=n), 8),
    "SimConfig.record_every": (
        "record_every", lambda n: sim.SimConfig(record_every=n), 1),
    "cell_centers": ("Nx", sim.cell_centers, 1),
    "collocation_spectrum": (
        "N", lambda n: collocation_spectrum(case_study(), n), 8),
    "limit_spectrum": ("k_max", lambda n: limit_spectrum(limit_params(), n),
                       0),
    "limit_point": ("k", lambda n: limit_point(limit_params(), n), None),
    "real_root_scan": (
        "grid_n", lambda n: real_root_scan(case_study(), (-1.0, -0.01), n),
        2),
    "evaluate": ("n_per_zone", lambda n: evaluate(
        eigenfunction(-0.1103771231538904, case_study()), n), 2),
}


@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_counts_must_be_integers(entry):
    # 8.5, "a" and None reached numpy or range as TypeError; record_every
    # = 2.5 recorded every fifth step, and limit_point(k=0.5) answered
    name, call, least = _COUNTS[entry]
    bad = [8.5, 2.0, "a", None] + ([] if least is None else [least - 1])
    for n in bad:
        with pytest.raises(ValidationError, match=rf"^{name} must be"):
            call(n)
    call(0 if least is None else least)


def test_presets():
    assert preset("case-study") == case_study()
    assert preset("limit") == limit_params()
    with pytest.raises(ValidationError):
        preset("nope")


def test_f0_dimensionless():
    phys = case_study().physical
    # f0 = sqrt(H/F) Q_feed / (u_s L^2) vanishes with the feed flow
    assert math.isclose(case_study(f0=0.0).f0, 0.0)
    assert case_study(f0=2.5).f0 == 2.5
