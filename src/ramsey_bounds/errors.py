"""Exception types raised by the library."""


class RamseyBoundsError(Exception):
    """Base class for all library errors."""


class DomainError(RamseyBoundsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoSpectralDensity(RamseyBoundsError):
    """The model is defined directly at the decoherence-function level and has no J(omega)."""


class ToleranceNotMet(RamseyBoundsError):
    """Adaptive integration exhausted its panel budget above the requested tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class NoSignChange(RamseyBoundsError, ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class MaxIterations(RamseyBoundsError):
    """Iterative solver hit its iteration cap before converging."""


class DegenerateSignal(RamseyBoundsError):
    """The fringe probability is exactly 0 or 1, so the Fisher information is undefined."""


class NoFiniteOptimum(RamseyBoundsError):
    """The stationarity condition 2 m t dgamma/dt = 1 has no solution at finite time."""


class NoQuadraticRegime(RamseyBoundsError):
    """The decoherence function has no quadratic short-time expansion."""


class GridTooCoarse(RamseyBoundsError):
    """Brute-force search ended on a grid edge that is not a domain boundary."""
