"""Exception types shared across the package."""


class KoopliftError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(KoopliftError, ValueError):
    """Inputs have inconsistent shapes, lengths or dimensions."""


class NumericEvaluationError(KoopliftError):
    """An evaluation produced a non-finite value."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvariantSubspaceViolation(KoopliftError):
    """The dictionary does not span the lifted autonomous dynamics.

    ``residual`` is the largest absolute coefficient left outside the span
    and ``missing`` lists the offending monomial exponent tuples.
    """

    def __init__(self, message, residual=None, missing=None):
        super().__init__(message)
        self.residual = residual
        self.missing = list(missing) if missing is not None else []


class DivergenceError(KoopliftError):
    """A simulated state became non-finite or exceeded the divergence limit."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(KoopliftError):
    """Experiment configuration is invalid or incomplete."""
