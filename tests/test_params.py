import argparse
import math
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from movingbed import cli, sim
from movingbed.charfun import (asymptotic_envelope, branch_boundaries,
                               delta_sign_log, det_closed_form_log,
                               return_map, zone_eigen, zone_matrix,
                               zone_matrix_scaled)
from movingbed.eigfun import (EigenSolution, adjoint_eigenfunction,
                              eigenfunction, evaluate, inner_product,
                              steady_state)
from movingbed.errors import (BadCFL, NonNegativeEigenvalue,
                              NonPositiveParameter, PortOrderingViolated,
                              ValidationError)
from movingbed.params import (ModelParams, PhysicalParams, case_study,
                              from_physical, limit_params, load_params,
                              params_from_dict, params_to_dict, preset,
                              save_params, time_constant)
from movingbed.sensitivity import (central_difference, full_report,
                                   sensitivities)
from movingbed.spectrum import (bracket_bound, collocation_spectrum,
                                dominant_eigenvalue, imaginary_vanishing_k,
                                limit_asymptote, limit_point, limit_residual,
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
    # a refused set leaves the file as it was; it was emptied
    with pytest.raises(ValidationError):
        save_params(None, path)
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


def _run8(profile):
    config = sim.SimConfig(Nx=8, T=0.1)
    return sim.run(sim.init(config, case_study()), config, case_study(),
                   eigen_profile=profile)


def _profile_rms8(profile):
    return sim.profile_rms(sim.init(sim.SimConfig(Nx=8), case_study()),
                           profile)


_PROFILES = [(np.ones((4, 9)), np.ones((4, 9))),
             (np.full((4, 8), math.nan), np.ones((4, 8))), None]

# each value raised an untyped TypeError or ValueError, gave nan or was
# taken as it was: (the call with one value, the values, the error)
_WRONG_VALUES = {
    "limit_asymptote-k": (lambda k: limit_asymptote(limit_params(), k),
                          [0.5, "a", None], ValidationError),
    "decay_rate-window": (lambda w: sim.decay_rate([], w),
                          [None, (0,), (0.0, math.nan), ("a", 1.0)],
                          ValidationError),
    "run-eigen_profile": (_run8, _PROFILES[:2], ValidationError),
    "profile_rms": (_profile_rms8, _PROFILES, ValidationError),
    "SimConfig-strang": (lambda s: sim.SimConfig(strang=s),
                         ["yes", 1, None], ValidationError),
    "ModelParams": (lambda kw: replace(case_study(), **kw),
                    [{"v1": "a"}, {"f0": None}, {"R": [18.0]}],
                    NonPositiveParameter),
}


@pytest.mark.parametrize("entry", sorted(_WRONG_VALUES))
def test_entry_points_refuse_values_of_the_wrong_type(entry):
    call, values, error = _WRONG_VALUES[entry]
    for value in values:
        with pytest.raises(error):
            call(value)


_PHYS = case_study().physical

# every entry point that takes a scalar number: (the call with one value,
# the name its error gives, the error)
_SCALARS = {
    "ModelParams.R": (lambda x: replace(case_study(), R=x), "'R'",
                      NonPositiveParameter),
    "ModelParams.f0": (lambda x: replace(case_study(), f0=x), "'f0'",
                       NonPositiveParameter),
    "PhysicalParams.epsilon": (lambda x: replace(_PHYS, epsilon=x),
                               "'epsilon'", NonPositiveParameter),
    "PhysicalParams.H": (lambda x: replace(_PHYS, H=x), "'H'",
                         NonPositiveParameter),
    "PhysicalParams.c_feed": (lambda x: replace(_PHYS, c_feed=x),
                              "'c_feed'", NonPositiveParameter),
    "PhysicalParams.Q_feed": (lambda x: replace(_PHYS, Q_feed=x),
                              "'Q_feed'", NonPositiveParameter),
    "time_constant.lambda0": (lambda x: time_constant(x, _PHYS, 30.0),
                              "'lambda0'", ValidationError),
    "time_constant.L_ref": (lambda x: time_constant(-0.11, _PHYS, x),
                            "'L_ref'", NonPositiveParameter),
    "SimConfig.T": (lambda x: sim.SimConfig(T=x), "'T'", ValidationError),
    "SimConfig.p": (lambda x: sim.SimConfig(p=x), "'p'", BadCFL),
    "SimConfig.record_every": (lambda x: sim.SimConfig(record_every=x),
                               "record_every", ValidationError),
    "run.state.t": (lambda x: sim.run(replace(_state8(), t=x), _CONFIG8,
                                      case_study()), "'state.t'",
                    ValidationError),
    "_resolve_p": (lambda x: sim._resolve_p(SimpleNamespace(p=x),
                                            case_study()), "'p'", BadCFL),
    "decay_rate.window": (lambda x: sim.decay_rate([], (0.0, x)),
                          "'window[1]'", ValidationError),
    "dominant_eigenvalue.tol": (lambda x: dominant_eigenvalue(case_study(), x),
                                "'tol'", ValidationError),
    "real_root_scan.lo": (lambda x: real_root_scan(case_study(), (x, 2.0), 50),
                          "'range_[0]'", ValidationError),
    "real_root_scan.hi": (
        lambda x: real_root_scan(case_study(), (-1.0, x), 50),
        "'range_[1]'", ValidationError),
    "real_root_scan.tol": (
        lambda x: real_root_scan(case_study(), (-1.0, -0.01), 50, x),
        "'tol'", ValidationError),
    "limit_point.k": (lambda x: limit_point(limit_params(), x), "k",
                      ValidationError),
    "zone_eigen.lambda": (lambda x: zone_eigen(x, case_study()), "lambda",
                          ValidationError),
}
_NOT_NUMBERS = {"True": True, "string": "18", "None": None, "nan": math.nan,
                "inf": math.inf}


# p=None is the default Courant parameter, not a missing number
@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in sorted(_SCALARS) for kind, value in _NOT_NUMBERS.items()
    if not (value is None and _SCALARS[entry][1] == "'p'")])
def test_scalar_inputs_refuse_bools_strings_none_and_non_finite(entry, value):
    # a bool was taken as 0 or 1 almost everywhere, and several checks let
    # a string, nan or inf through
    call, name, error = _SCALARS[entry]
    with pytest.raises(error, match=re.escape(name)):
        call(value)


# a count may be any integer, however large
@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in sorted(_SCALARS)
    for kind, value in (("huge_int", 10 ** 400), ("long_string", "a" * 5000))
    if not (kind == "huge_int" and entry == "SimConfig.record_every")])
def test_scalar_refusals_quote_a_long_value_in_short(entry, value):
    # the whole repr went into the message: 441 characters for 10**400,
    # 5,035 for the string
    call, name, error = _SCALARS[entry]
    with pytest.raises(error, match=re.escape(name)) as info:
        call(value)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("call", [limit_point, limit_asymptote])
@pytest.mark.parametrize("k", [10 ** 160, -10 ** 160, 10 ** 400])
def test_limit_closed_forms_refuse_k_beyond_the_double_range(call, k):
    # limit_point returned -18.5481 +- inf i at 10**160 and both raised an
    # untyped OverflowError at 10**400
    with pytest.raises(ValidationError,
                       match=r"^k=.* beyond the double range$") as info:
        call(limit_params(), k)
    assert len(str(info.value)) < 200


_LONG = "a" * 5000

# every refusal that quotes a value of any type: (the call with one
# value, the error)
_QUOTED = {
    "init.initial": (lambda x: sim.init(sim.SimConfig(Nx=8), case_study(), x),
                     ValidationError),
    "run.state.t": (lambda x: sim.run(replace(_state8(), t=x), _CONFIG8,
                                      case_study()), ValidationError),
    "SimConfig.strang": (lambda x: sim.SimConfig(strang=x), ValidationError),
    "params_from_dict.v": (
        lambda x: params_from_dict({"v": x, "R": 18.0, "P": 1.03}),
        NonPositiveParameter),
    "params_from_dict.physical": (
        lambda x: params_from_dict({**params_to_dict(case_study()),
                                    "physical": x}), ValidationError),
    "params_from_dict.key": (
        lambda x: params_from_dict({**params_to_dict(case_study()), x: 2.0}),
        ValidationError),
    "preset": (preset, ValidationError),
    "central_difference.name": (lambda x: central_difference(case_study(), x),
                                ValidationError),
    "cli._range_arg": (cli._range_arg, argparse.ArgumentTypeError),
}


@pytest.mark.parametrize("entry", sorted(_QUOTED))
def test_refusals_quote_a_long_string_in_short(entry):
    # the whole repr went into the message, 5,000 characters and more
    call, error = _QUOTED[entry]
    with pytest.raises(error) as info:
        call(_LONG)
    assert len(str(info.value)) < 200


def test_check_zone_quotes_a_long_value_in_short(cs):
    with pytest.raises(ValidationError, match="zone must be") as info:
        zone_matrix(-0.5, [0] * 5000, cs)
    assert len(str(info.value)) < 200


_LAM0 = -0.1103771231538904     # the case study's dominant eigenvalue


def _state8():
    return sim.init(sim.SimConfig(Nx=8), case_study())


# every public entry point that takes one parameter set: (the call with
# one value, the name its error gives).  Each ended in an untyped
# AttributeError on anything but a ModelParams, except those that build
# return_map's set table, whose error names the set's index.
_PARAM_SETS = {
    "zone_eigen": (lambda p: zone_eigen(-0.1, p), "params"),
    "branch_boundaries": (lambda p: branch_boundaries(1, p), "params"),
    "det_closed_form_log": (lambda p: det_closed_form_log(-1.0, p),
                            "params"),
    "asymptotic_envelope": (lambda p: asymptotic_envelope(-20.0, p),
                            "params"),
    "eigenfunction": (lambda p: eigenfunction(_LAM0, p), "params"),
    "adjoint_eigenfunction": (lambda p: adjoint_eigenfunction(_LAM0, p),
                              "params"),
    "steady_state": (steady_state, "params"),
    "bracket_bound": (bracket_bound, "params"),
    "limit_point": (lambda p: limit_point(p, 1), "params"),
    "limit_spectrum": (limit_spectrum, "params"),
    "limit_asymptote": (lambda p: limit_asymptote(p, 1), "params"),
    "imaginary_vanishing_k": (imaginary_vanishing_k, "params"),
    "limit_residual": (lambda p: limit_residual(-1.0, p), "params"),
    "collocation_spectrum": (collocation_spectrum, "params"),
    "full_report": (full_report, "params"),
    "central_difference": (lambda p: central_difference(p, "R"), "params"),
    "sample_eigenfunction": (lambda p: sim.sample_eigenfunction(p, 8),
                             "params"),
    "sample_steady_state": (lambda p: sim.sample_steady_state(p, 8),
                            "params"),
    "init": (lambda p: sim.init(sim.SimConfig(Nx=8), p), "params"),
    "run": (lambda p: sim.run(_state8(), sim.SimConfig(Nx=8, T=0.1), p),
            "params"),
    "advection_step": (lambda p: sim.advection_step(_state8(), p), "params"),
    "mass_transfer_step": (lambda p: sim.mass_transfer_step(_state8(), p),
                           "params"),
    "mass": (lambda p: sim.mass(_state8(), p), "params"),
    "params_to_dict": (params_to_dict, "params"),
    "save_params": (lambda p: save_params(p, os.devnull), "params"),
    "return_map": (lambda p: return_map(-0.5, p), "set 0"),
    "delta_sign_log": (lambda p: delta_sign_log(-0.5, p), "set 0"),
    "zone_matrix": (lambda p: zone_matrix(-0.5, 1, p), "set 0"),
    "zone_matrix_scaled": (lambda p: zone_matrix_scaled(-0.5, 1, p),
                           "set 0"),
    "dominant_eigenvalue": (dominant_eigenvalue, "set 0"),
    "real_root_scan": (lambda p: real_root_scan(p, (-1.0, -0.01)), "set 0"),
    # an empty range returned [] before the set was checked
    "real_root_scan-empty": (lambda p: real_root_scan(p, (-1.0, -1.0)),
                             "set 0"),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in sorted(_PARAM_SETS)
    for kind, value in (("None", None), ("string", "cs"),
                        ("physical", _PHYS))])
def test_entry_points_refuse_what_is_not_a_model_params(entry, value):
    call, name = _PARAM_SETS[entry]
    with pytest.raises(ValidationError,
                       match=rf"^not a ModelParams: .* \({name}\)$"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda p: time_constant(-0.1, p, 30.0), from_physical],
    ids=["time_constant", "from_physical"])
@pytest.mark.parametrize("value", [None, "cs", case_study()],
                         ids=["None", "string", "ModelParams"])
def test_entry_points_refuse_what_is_not_a_physical_params(call, value):
    # each ended in an untyped AttributeError
    with pytest.raises(ValidationError,
                       match=r"^not a PhysicalParams: .* \(phys\)$"):
        call(value)


def _direct():
    return eigenfunction(_LAM0, case_study())


_CONFIG8 = sim.SimConfig(Nx=8, T=0.1)

# every public entry point that takes a simulation state or config or an
# eigen solution: (the call with one value, the name its error gives, the
# class it wants).  Each ended in an untyped AttributeError.
_OBJECTS = {
    "init-config": (lambda x: sim.init(x, case_study()), "config",
                    sim.SimConfig),
    "run-state": (lambda x: sim.run(x, _CONFIG8, case_study()), "state",
                  sim.SimState),
    "run-config": (lambda x: sim.run(_state8(), x, case_study()), "config",
                   sim.SimConfig),
    "advection_step": (lambda x: sim.advection_step(x, case_study()),
                       "state", sim.SimState),
    "mass_transfer_step": (lambda x: sim.mass_transfer_step(x, case_study()),
                           "state", sim.SimState),
    "evaluate": (evaluate, "sol", EigenSolution),
    "inner_product-a": (lambda x: inner_product(x, _direct()), "a",
                        EigenSolution),
    "inner_product-b": (lambda x: inner_product(_direct(), x), "b",
                        EigenSolution),
    "sensitivities-direct": (
        lambda x: sensitivities(x, _direct()), "direct",
        EigenSolution),
    "sensitivities-adjoint": (
        lambda x: sensitivities(_direct(), x), "adjoint",
        EigenSolution),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{kind}")
    for entry in sorted(_OBJECTS)
    for kind, value in (("None", None), ("string", "cs"),
                        ("params", case_study()))])
def test_entry_points_refuse_an_object_of_the_wrong_class(entry, value):
    call, name, cls = _OBJECTS[entry]
    with pytest.raises(ValidationError,
                       match=rf"^not a {cls.__name__}: .* \({name}\)$"):
        call(value)


def test_from_physical_refuses_a_phase_ratio_that_rounds_to_zero(cs):
    # F = 0.04/0.96 rounds to 0.0 at one decimal
    with pytest.raises(NonPositiveParameter, match="phase ratio F"):
        from_physical(replace(cs.physical, epsilon=0.96), use_rounded_F=True)


def test_params_from_dict_refuses_a_physical_block_that_is_not_an_object(cs):
    with pytest.raises(ValidationError, match="'physical' must be an object"):
        params_from_dict({**params_to_dict(cs), "physical": 3})


@pytest.mark.parametrize("keys", [["f_0"], ["f_0", "r"]])
def test_params_from_dict_refuses_unknown_keys(cs, keys):
    # "f_0": 2.0 was dropped, and the set ran with f0 = 0.0
    data = {**params_to_dict(cs), **dict.fromkeys(keys, 2.0)}
    with pytest.raises(ValidationError,
                       match=re.escape(f"unknown parameters {keys!r}")):
        params_from_dict(data)


def test_number_fields_are_stored_as_floats(cs):
    # an integer or a numpy float is stored as a float, so params_to_dict
    # echoes a JSON 18 as 18.0 whichever way the params were built
    params = replace(cs, R=np.float64(18.0), f0=2)
    phys = replace(cs.physical, k=6)
    assert (type(params.R), type(params.f0), type(phys.k)) == (float,) * 3
    assert params == replace(cs, f0=2.0) and phys == cs.physical


def test_model_params_refuse_a_physical_block_of_the_wrong_type(cs):
    # "x" was accepted, and params_to_dict then failed with a TypeError
    with pytest.raises(ValidationError,
                       match=r"^not a PhysicalParams: 'x' \(physical\)$"):
        replace(cs, physical="x")


def test_presets():
    assert preset("case-study") == case_study()
    assert preset("limit") == limit_params()
    with pytest.raises(ValidationError):
        preset("nope")


@pytest.mark.parametrize("name", [["case-study"], {}, {"limit"}])
def test_preset_refuses_a_name_that_is_not_hashable(name):
    # each ended in an untyped TypeError: unhashable type
    with pytest.raises(ValidationError,
                       match=rf"^unknown preset {re.escape(repr(name))};"):
        preset(name)
    with pytest.raises(ValidationError) as info:
        preset([name] * 5000)
    assert len(str(info.value)) < 200


def test_f0_dimensionless():
    phys = case_study().physical
    # f0 = sqrt(H/F) Q_feed / (u_s L^2) vanishes with the feed flow
    assert math.isclose(case_study(f0=0.0).f0, 0.0)
    assert case_study(f0=2.5).f0 == 2.5
