"""Exception types shared across the package."""


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
