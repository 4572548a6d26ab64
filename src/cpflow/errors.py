"""Exception types, and the check of numeric arguments, shared across the package."""

import math
import numbers
import sys


def check_number(name, value, low=None):
    """Refuse, with ValueError naming name, a value that is no real number
    in float range (inf and nan are in it), or, if low is given, no integer
    of at least low. A bool is neither; a numpy scalar may be either."""
    kind = numbers.Real if low is None else numbers.Integral
    if isinstance(value, bool) or not isinstance(value, kind) or (
            value < low if low is not None else math.inf != abs(value) > sys.float_info.max):
        what = "a real number in float range" if low is None else f"an integer of at least {low}"
        raise ValueError(f"{name} must be {what}, got {value!r}")


class CpflowError(Exception):
    """Base class for all package errors."""


class MeshFormatError(CpflowError):
    """Mesh file text is not well-formed."""


class MeshValidationError(CpflowError):
    """A mesh invariant is violated; the message names the first violation."""


class StarConditionError(CpflowError):
    """The corner condition gamma >= 0 fails somewhere on the mesh."""


class RadiusOverflowError(CpflowError):
    """A radius is out of (0, 700] or drives cosh past double range."""


class DegenerateFaceError(CpflowError):
    """A face fails the triangle inequality or its angle normalization vanishes."""


class NumericalConsistencyError(CpflowError):
    """Two routes to the same quantity disagree beyond the documented tolerance."""


class StepFailureError(CpflowError):
    """A flow step could not be accepted after the halving budget."""

    def __init__(self, message, r, dt):
        super().__init__(message)
        self.r = r
        self.dt = dt
