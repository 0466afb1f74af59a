"""Exception types shared across the package."""

__all__ = ["CsPursuitError", "DimensionError", "SelectionError", "FormatError",
           "PriorInfoError", "GenerationError", "EnumerationCapError",
           "RipViolationError", "BoundPreconditionError", "MetricError",
           "NonFiniteError", "ConfigError"]


class CsPursuitError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CsPursuitError):
    """Matrix or support shapes are inconsistent with the operation."""


class SelectionError(CsPursuitError):
    """A top-k selection asked for more chunks than are available."""


class FormatError(CsPursuitError):
    """A matrix file is malformed, truncated, or carries bad values."""


class PriorInfoError(CsPursuitError):
    """Prior support information violates one of its defining inequalities."""


class GenerationError(CsPursuitError):
    """Random generation parameters are infeasible."""


class EnumerationCapError(CsPursuitError):
    """An exhaustive support enumeration would exceed the configured cap."""


class RipViolationError(CsPursuitError):
    """An isometry constant lies outside the range a formula requires."""


class BoundPreconditionError(CsPursuitError):
    """A bound's precondition fails; the message names the inequality."""


class MetricError(CsPursuitError):
    """A metric is undefined for the given inputs."""


class NonFiniteError(CsPursuitError, ValueError):
    """A matrix holds NaN or infinite entries."""


class ConfigError(CsPursuitError):
    """An experiment configuration is invalid; the message names the field."""
