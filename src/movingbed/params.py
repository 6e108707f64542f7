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
        if not (0.0 < self.epsilon < 1.0):
            raise NonPositiveParameter(
                f"epsilon must lie in (0, 1), got {self.epsilon}")
        for name in ("H", "k", "L_zone", "L_column", "u_s",
                     "m1", "m2", "m3", "m4"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise NonPositiveParameter(
                    f"{name} must be a positive finite number, got {value}")

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
        raise ValidationError(f"zone must be one of 1..4, got {zone!r}")
    return z


def check_count(name: str, value, minimum: int | None = None) -> int:
    """value, if it is an integer (at least minimum, when given); else
    ValidationError naming it (a float count would reach numpy or range as
    a TypeError, or be taken as is)."""
    if not (isinstance(value, numbers.Integral)
            and (minimum is None or value >= minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(
            f"{name} must be an integer{bound}, got {value!r}")
    return value


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
        for name in ("v1", "v2", "v3", "v4", "R", "P", "f0"):
            value = getattr(self, name)
            # a string or None would reach math.isfinite as a TypeError
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and (value > 0.0 or name == "f0" and value == 0.0)):
                kind = "nonnegative" if name == "f0" else "positive"
                raise NonPositiveParameter(
                    f"{name} must be a {kind} finite number, got {value}")
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
    F = phys.F
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
    A rate that is not a real number or is -inf, a rate that is not
    negative (nan included) and an L_ref that is not positive and finite
    are refused.
    """
    if not (isinstance(lambda0, numbers.Real) and lambda0 != -math.inf):
        raise ValidationError(
            f"time constant requires a finite rate, got {lambda0!r}")
    if not lambda0 < 0.0:
        raise NonNegativeEigenvalue(
            f"time constant requires a negative rate, got {lambda0}")
    if not (isinstance(L_ref, numbers.Real) and 0.0 < L_ref < math.inf):
        raise NonPositiveParameter(
            f"L_ref must be positive and finite, got {L_ref!r}")
    return L_ref / (phys.u_s * abs(lambda0))


# -- serialization ----------------------------------------------------------

def params_to_dict(params: ModelParams) -> dict:
    out = {
        "v": [params.v1, params.v2, params.v3, params.v4],
        "R": params.R,
        "P": params.P,
        "f0": params.f0,
    }
    if params.physical is not None:
        out["physical"] = asdict(params.physical)
    return out


def _number(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name!r} must be a number, got {value!r}") from None


def params_from_dict(data: dict) -> ModelParams:
    """Parameters from a dict of the form ``params_to_dict`` writes; a
    missing or ill-typed field raises ValidationError naming it."""
    if not isinstance(data, dict):
        raise ValidationError(
            f"parameters must be an object, got {type(data).__name__}")
    for name in ("v", "R", "P"):
        if name not in data:
            raise ValidationError(f"missing parameter {name!r}")
    v = data["v"]
    if not isinstance(v, (list, tuple)) or len(v) != 4:
        raise NonPositiveParameter(f"'v' must hold 4 velocities, got {v!r}")
    phys = data.get("physical")
    if phys is not None:
        if not isinstance(phys, dict):
            raise ValidationError(f"'physical' must be an object, got {phys!r}")
        for name, value in phys.items():
            if not isinstance(value, (int, float)):
                raise ValidationError(
                    f"'physical.{name}' must be a number, got {value!r}")
        try:
            phys = PhysicalParams(**phys)
        except TypeError as exc:         # a missing or unknown field
            raise ValidationError(f"'physical': {exc}") from None
    return ModelParams(*(_number(f"v{i}", x) for i, x in enumerate(v, 1)),
                       R=_number("R", data["R"]), P=_number("P", data["P"]),
                       f0=_number("f0", data.get("f0", 0.0)), physical=phys)


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))


def save_params(params: ModelParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=2)
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
        return PRESETS[name]()
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
