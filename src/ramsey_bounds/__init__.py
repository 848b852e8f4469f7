"""Precision bounds for Ramsey frequency estimation under non-Markovian
pure dephasing: decoherence functions, optimal interrogation times, and the
product-vs-GHZ resolution ratio r."""

from .dephasing import (
    BathSpec,
    ClosedForm,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    Quadrature,
    ZeroTemperature,
    dgamma_dt,
    dgamma_quadrature,
    gamma_closed,
    gamma_quadrature,
    gamma_short_time_coeff,
    spectral_density,
)
from .errors import (
    DegenerateSignal,
    DomainError,
    GridTooCoarse,
    MaxIterations,
    NoFiniteOptimum,
    NoQuadraticRegime,
    NoSignChange,
    NoSpectralDensity,
    RamseyBoundsError,
    ToleranceNotMet,
)
from .metrology import (
    Optimum,
    ProbeSpec,
    RatioResult,
    fisher_information,
    frequency_variance,
    ohmic_exact_ratio,
    optimal_interrogation,
    optimal_resolution,
    ramsey_probability,
    ratio_r,
)
from .numerics import QuadratureSettings, integrate_semi_infinite, solve_bracketed_root
from .oracle import brute_force_optimum, reference_gamma

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "ClosedForm", "DephasingModel", "FiniteBeta",
    "GenericPowerLawDephasing", "HighTemperatureOhmic", "Lorentzian",
    "PowerLawExpCutoff", "Quadrature", "ZeroTemperature",
    "dgamma_dt", "dgamma_quadrature", "gamma_closed", "gamma_quadrature",
    "gamma_short_time_coeff",
    "spectral_density",
    "DegenerateSignal", "DomainError", "GridTooCoarse", "MaxIterations",
    "NoFiniteOptimum", "NoQuadraticRegime", "NoSignChange",
    "NoSpectralDensity", "RamseyBoundsError", "ToleranceNotMet",
    "Optimum", "ProbeSpec", "RatioResult",
    "fisher_information", "frequency_variance", "ohmic_exact_ratio",
    "optimal_interrogation", "optimal_resolution", "ramsey_probability", "ratio_r",
    "QuadratureSettings", "integrate_semi_infinite", "solve_bracketed_root",
    "brute_force_optimum", "reference_gamma",
    "__version__",
]
