"""Model parameters: validation, physical-to-dimensionless conversion, presets.

The dimensionless model is governed by four zone liquid velocities
``v1..v4``, the kinetic group ``R = k*L_zone/u_s``, the phase-equilibrium
group ``P = sqrt(F*H)`` with ``F = (1-eps)/eps``, and the feed inflow
``f0 = sqrt(H/F)*Q_feed/(u_s*L^2)``.

Two velocity regimes are supported:

* ``strict_ports`` -- the liquid velocity rises across each injecting
  port and falls across each withdrawing one (all four ports active; see
  ``PORTS``); and
* ``limit_case``   -- all four velocities equal (no port dissipation).

Anything in between (some but not all equalities) is rejected at
construction time, because none of the quantitative results downstream
apply there.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    NonNegativeEigenvalue,
    NonPositiveParameter,
    PortOrderingViolated,
    ValidationError,
)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical column data (lengths in cm, times in minutes)."""

    epsilon: float          # void fraction, 0 < epsilon < 1
    H: float                # linear-isotherm equilibrium constant
    k: float                # kinetic constant, 1/min
    L_zone: float           # zone length, cm
    L_column: float         # single-column length, cm
    u_s: float              # solid-phase velocity, cm/min
    m1: float               # zone flow ratios (dimensionless)
    m2: float
    m3: float
    m4: float
    c_feed: float = 1.0     # feed concentration (reference scale)
    Q_feed: float = 0.0     # feed flow rate

    def __post_init__(self):
        _check_fields(self, _PHYSICAL_FIELDS)

    @property
    def F(self) -> float:
        """Phase ratio (1 - eps)/eps."""
        return (1.0 - self.epsilon) / self.epsilon

    @property
    def m(self) -> tuple:
        return (self.m1, self.m2, self.m3, self.m4)


# Left end of each zone; zone i occupies [ZONE_LEFT[i-1], ZONE_LEFT[i-1] + 1].
ZONE_LEFT = (-2.0, -1.0, 0.0, 1.0)
ZONES = np.arange(1, 5)[:, None]     # zone indices, for (4, n) point grids


def check_zone(zone) -> np.ndarray:
    """zone as an array, if it is a zone index 1..4 or an integer array of
    them; else ValidationError naming it (indexing by zone - 1 would take
    zone 0 for zone 4, -1 for zone 3)."""
    z = np.asarray(zone)
    if not (z.dtype.kind in "iu" and ((1 <= z) & (z <= 4)).all()):
        raise ValidationError(
            f"zone must be one of 1..4, got {reprlib.repr(zone)}")
    return z


def check_count(name: str, value, minimum: int | None = None) -> int:
    """value, if it is an integer but not a bool (at least minimum, when
    given); else ValidationError naming it (a float count would reach numpy
    or range as a TypeError, or be taken as is)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(
            f"{name} must be an integer{bound}, got {reprlib.repr(value)}")
    return value


def check_real(name: str, value, error=ValidationError, *, gt=None,
               ge=None, lt=None, le=None) -> float:
    """value as a float, if it is a finite real number but not a bool, and
    > gt, >= ge, < lt and <= le for each bound given; else error naming it (a
    string or None would reach a comparison as a TypeError, a bool would
    pass as 0 or 1, and nan makes every comparison false)."""
    real = type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))
    try:
        x = float(value) if real else math.nan
    except OverflowError:               # an int beyond the double range
        x = math.inf
    if not (math.isfinite(x) and (gt is None or x > gt)
            and (ge is None or x >= ge) and (lt is None or x < lt)
            and (le is None or x <= le)):
        bounds = " and".join(f" {op} {b}" for op, b in
                             ((">", gt), (">=", ge), ("<", lt), ("<=", le))
                             if b is not None)
        raise error(
            f"{name!r} must be a finite number{bounds}, got "
            f"{reprlib.repr(value)}")
    return x


def check_pair(name: str, value) -> tuple:
    """(lo, hi) as floats, if value is a pair of finite real numbers with
    lo <= hi; else ValidationError naming it."""
    try:
        lo, hi = value
    except (TypeError, ValueError):     # not a pair
        raise ValidationError(
            f"{name!r} must be a pair (lo, hi), got {reprlib.repr(value)}"
        ) from None
    lo = check_real(f"{name}[0]", lo)
    return lo, check_real(f"{name}[1]", hi, ge=lo)


def check_instance(name: str, value, cls):
    """value, if it is a cls; else ValidationError naming it (an attribute
    read on anything else would end in an untyped AttributeError)."""
    if not isinstance(value, cls):
        raise ValidationError(
            f"not a {cls.__name__}: {reprlib.repr(value)} ({name})")
    return value


def check_items(name: str, value, cls) -> tuple:
    """(items, one): ([value], True) if value is a cls, else the items of
    value as a list and False, anything not iterable counting as one item;
    each item is checked by check_instance, named "{name} i" by its
    index."""
    one = isinstance(value, cls)
    try:
        items = [value] if one else list(value)
    except TypeError:                   # not iterable: one bad item
        items = [value]
    return [check_instance(f"{name} {i}", x, cls)
            for i, x in enumerate(items)], one


def _check_fields(obj, fields: dict) -> None:
    """Check each field of a frozen dataclass named in fields against its
    bounds with check_real, raising NonPositiveParameter, and store it as
    a float."""
    for name, bounds in fields.items():
        value = getattr(obj, name)
        x = check_real(name, value, NonPositiveParameter, **bounds)
        if type(value) is not float:    # an int or a numpy float
            object.__setattr__(obj, name, x)


# the bounds of each number field, for check_real
_POSITIVE, _NONNEGATIVE = {"gt": 0.0}, {"ge": 0.0}
_PHYSICAL_FIELDS = {"epsilon": {"gt": 0.0, "lt": 1.0}, **dict.fromkeys(
    ("H", "k", "L_zone", "L_column", "u_s", "m1", "m2", "m3", "m4",
     "c_feed"), _POSITIVE), "Q_feed": _NONNEGATIVE}
_MODEL_FIELDS = {**dict.fromkeys(("v1", "v2", "v3", "v4", "R", "P"),
                                 _POSITIVE), "f0": _NONNEGATIVE}


@dataclass(frozen=True)
class Port:
    """The port at the inlet x of ``zone``, fed by the outlet x_up of ``up``.

    The solid crosses every port unchanged.  The direct problem keeps the
    liquid flux v c across an injecting port and c across a withdrawing
    one; the adjoint problem does the reverse.
    """

    name: str
    zone: int
    injects: bool        # liquid enters the loop here (else it leaves)
    feed: bool = False   # the injected liquid carries f0

    @property
    def up(self) -> int:
        return 4 if self.zone == 1 else self.zone - 1

    @property
    def x(self) -> float:
        return ZONE_LEFT[self.zone - 1]

    @property
    def x_up(self) -> float:
        return ZONE_LEFT[self.up - 1] + 1.0      # x = 2 across the wrap

    def weighted(self, adjoint: bool = False) -> bool:
        """Whether the liquid condition here keeps v c rather than c."""
        return self.injects != adjoint

    def weights(self, v, adjoint: bool = False) -> tuple:
        """(w_up, w_in) multiplying c on the upstream and inlet sides."""
        if self.weighted(adjoint):
            return v[self.up - 1], v[self.zone - 1]
        return 1.0, 1.0


# The loop topology, one entry per zone inlet in loop order.
PORTS = (
    Port("eluent", 1, injects=True),
    Port("extract", 2, injects=False),
    Port("feed", 3, injects=True, feed=True),
    Port("raffinate", 4, injects=False),
)


@dataclass(frozen=True)
class ModelParams:
    """The six dimensionless parameters plus the feed inflow f0."""

    v1: float
    v2: float
    v3: float
    v4: float
    R: float
    P: float
    f0: float = 0.0
    physical: PhysicalParams | None = None

    def __post_init__(self):
        _check_fields(self, _MODEL_FIELDS)
        if self.physical is not None:
            check_instance("physical", self.physical, PhysicalParams)
        if not self.limit_case:
            # v_in > v_up where liquid is injected, v_up > v_in where it
            # is withdrawn
            for port in PORTS:
                hi, lo = ((port.zone, port.up) if port.injects
                          else (port.up, port.zone))
                if not self.v[hi - 1] > self.v[lo - 1]:
                    raise PortOrderingViolated(
                        f"v{hi} > v{lo} violated at the {port.name} port: "
                        f"v{hi}={self.v[hi - 1]}, v{lo}={self.v[lo - 1]}")

    @property
    def v(self) -> tuple:
        return (self.v1, self.v2, self.v3, self.v4)

    @property
    def limit_case(self) -> bool:
        """True when all four velocities are equal."""
        return self.v1 == self.v2 == self.v3 == self.v4

    @property
    def strict_ports(self) -> bool:
        """True when all four port inequalities hold strictly."""
        return not self.limit_case


def from_physical(phys: PhysicalParams, use_rounded_F: bool = False) -> ModelParams:
    """Build dimensionless parameters from physical column data.

    ``use_rounded_F`` rounds the phase ratio F to one decimal before use,
    which reproduces hand calculations that take F = 0.5 for eps = 0.67.
    """
    F = check_instance("phys", phys, PhysicalParams).F
    if use_rounded_F:
        F = round(F, 1)
    if F <= 0.0:
        raise NonPositiveParameter(f"phase ratio F must be positive, got {F}")
    v = tuple(F * mi for mi in phys.m)
    R = phys.k * phys.L_zone / phys.u_s
    P = math.sqrt(F * phys.H)
    f0 = math.sqrt(phys.H / F) * phys.Q_feed / (phys.u_s * phys.L_zone ** 2)
    return ModelParams(v[0], v[1], v[2], v[3], R=R, P=P, f0=f0, physical=phys)


def time_constant(lambda0: float, phys: PhysicalParams, L_ref: float) -> float:
    """Physical time constant tau = L_ref/(u_s*|lambda0|) in minutes.

    ``L_ref`` is explicit because the kinetic group uses the zone length
    while the time scale may use the column length; the caller chooses.
    A rate that is not a finite negative number (NonNegativeEigenvalue),
    an L_ref that is not a positive finite number (NonPositiveParameter)
    and a phys that is not a PhysicalParams (ValidationError) are refused.
    """
    lambda0 = check_real("lambda0", lambda0, NonNegativeEigenvalue, lt=0.0)
    L_ref = check_real("L_ref", L_ref, NonPositiveParameter, gt=0.0)
    return L_ref / (check_instance("phys", phys, PhysicalParams).u_s
                    * abs(lambda0))


# -- serialization ----------------------------------------------------------

# the fields of a parameter file, as params_to_dict writes them
_KEYS = ("v", "R", "P", "f0", "physical")


def params_to_dict(params: ModelParams) -> dict:
    out = {
        "v": list(check_instance("params", params, ModelParams).v),
        "R": params.R,
        "P": params.P,
        "f0": params.f0,
    }
    if params.physical is not None:
        out["physical"] = asdict(params.physical)
    return out


def params_from_dict(data: dict) -> ModelParams:
    """Parameters from a dict of the form ``params_to_dict`` writes; a
    missing, unknown or ill-typed field raises ValidationError naming
    it."""
    if not isinstance(data, dict):
        raise ValidationError(
            f"parameters must be an object, got {type(data).__name__}")
    unknown = [key for key in data if key not in _KEYS]
    if unknown:
        raise ValidationError(
            f"unknown parameters {reprlib.repr(unknown)}; expected "
            f"{', '.join(_KEYS)}")
    for name in ("v", "R", "P"):
        if name not in data:
            raise ValidationError(f"missing parameter {name!r}")
    v = data["v"]
    if not isinstance(v, (list, tuple)) or len(v) != 4:
        raise NonPositiveParameter(
            f"'v' must hold 4 velocities, got {reprlib.repr(v)}")
    phys = data.get("physical")
    if phys is not None:
        if not isinstance(phys, dict):
            raise ValidationError(
                f"'physical' must be an object, got {reprlib.repr(phys)}")
        try:
            phys = PhysicalParams(**phys)
        except TypeError as exc:         # a missing or unknown field
            raise ValidationError(f"'physical': {exc}") from None
    return ModelParams(*v, R=data["R"], P=data["P"], f0=data.get("f0", 0.0),
                       physical=phys)


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))


def save_params(params: ModelParams, path) -> None:
    data = params_to_dict(params)       # refused before path is truncated
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


# -- presets ----------------------------------------------------------------

def case_study(f0: float = 0.0) -> ModelParams:
    """Reference strict-port case: v=(1.53,1.12,1.43,1.02), R=18, P=1.03."""
    phys = PhysicalParams(epsilon=0.67, H=2.14, k=6.0, L_zone=60.0,
                          L_column=30.0, u_s=20.0,
                          m1=3.06, m2=2.24, m3=2.86, m4=2.04)
    return ModelParams(1.53, 1.12, 1.43, 1.02, R=18.0, P=1.03,
                       f0=f0, physical=phys)


def limit_params(v: float = 1.275, R: float = 18.0, P: float = 1.03,
                 f0: float = 0.0) -> ModelParams:
    """Equal-velocity parameters; default v is the case-study average."""
    return ModelParams(v, v, v, v, R=R, P=P, f0=f0)


PRESETS = {"case-study": case_study, "limit": limit_params}


def preset(name: str) -> ModelParams:
    try:
        make = PRESETS[name]
    except (KeyError, TypeError):       # TypeError: a name not hashable
        raise ValidationError(
            f"unknown preset {reprlib.repr(name)}; choose from "
            f"{sorted(PRESETS)}") from None
    return make()
