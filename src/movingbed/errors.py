"""Exception hierarchy.

Two top-level families so the CLI can map failures to exit codes:
``ValidationError`` for bad inputs (exit 2), ``NumericalError`` for
solver/numerics failures (exit 3).  I/O problems use the builtin
``OSError`` family (exit 4).  Each failure has one class under one name:
a negligible pairing <u, u*> is ``NearZeroPairing`` wherever it is met,
the mode pairing and the sensitivities alike.
"""


class MovingBedError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MovingBedError, ValueError):
    """Invalid parameters or configuration."""


class NumericalError(MovingBedError, RuntimeError):
    """A numerical procedure failed (no bracket, singular system, ...)."""


# -- validation ------------------------------------------------------------

class NonPositiveParameter(ValidationError):
    pass


class PortOrderingViolated(ValidationError):
    pass


class NonNegativeEigenvalue(ValidationError):
    pass


class BadCFL(ValidationError):
    pass


class ThresholdTooSmall(ValidationError):
    pass


class NotLimitCase(ValidationError):
    pass


class LimitCaseHasNoBracket(ValidationError):
    pass


class InsufficientSamples(ValidationError):
    pass


class ZeroProfile(ValidationError):
    pass


# -- numerics --------------------------------------------------------------

class NoSignChangeFound(NumericalError):
    pass


class NotAnEigenvalue(NumericalError):
    pass


class DegenerateNullspace(NumericalError):
    pass


class SingularSystem(NumericalError):
    pass


class NearZeroPairing(NumericalError):
    pass


class NonFiniteDetected(NumericalError):
    pass


class EigSolverFailure(NumericalError):
    pass
