"""Reference formulas of the paper's regimes, which the tests check the
optimizer against: the exact power-law scaling (criterion 2), the
Lorentzian bath's Newton-refined optimum (criterion 6), and the log-log line
fit that measures a scaling exponent."""

import math
from dataclasses import dataclass

import numpy as np

from ramsey_bounds.errors import DomainError
from ramsey_bounds.numerics import _real_array


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a least-squares line fit in log-log space: y ~ e^c * x^p."""

    exponent: float
    log_prefactor: float
    residual_rms: float


def fit_power_law(xs, ys):
    """Least-squares fit of ln(y) = p*ln(x) + c; returns a :class:`PowerLawFit`
    with the exponent p, the log-prefactor c and the rms residual in ln(y)."""
    xs = _real_array("xs", xs, 0.0, strict=True)
    ys = _real_array("ys", ys, 0.0, strict=True)
    if xs.ndim != 1 or xs.size < 3:
        raise DomainError("need at least 3 samples")
    if ys.shape != xs.shape:
        raise DomainError("ys must have the shape of xs")
    if not np.all(np.diff(xs) > 0.0):
        raise DomainError("xs must be strictly increasing")
    lx, ly = np.log(xs), np.log(ys)
    lxm, lym = lx.mean(), ly.mean()
    slope = float(np.sum((lx - lxm) * (ly - lym)) / np.sum((lx - lxm) ** 2))
    intercept = float(lym - slope * lxm)
    resid = ly - (slope * lx + intercept)
    return PowerLawFit(exponent=slope, log_prefactor=intercept,
                       residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def power_law_scaling(nu: float, n):
    """Exact (r, t_u/t_e) for gamma = alpha t^nu: r = n^((nu-1)/(2 nu)),
    t_u/t_e = n^(1/nu); independent of alpha."""
    if not (0.0 < nu < math.inf and 1.0 <= n < math.inf):
        raise DomainError("need finite nu > 0 and n >= 1")
    n = float(n)
    return n ** ((nu - 1.0) / (2.0 * nu)), n ** (1.0 / nu)


def lorentzian_newton_time(a: float, g: float, n=1) -> float:
    """Leading-order refined optimum for the Lorentzian bath in the gt << 1
    regime: sqrt(2/(a n)) (1 + sqrt(g^2/(8 a n)))."""
    if not (0.0 < a < math.inf and 0.0 <= g < math.inf and 1.0 <= n < math.inf):
        raise DomainError("need finite a > 0, g >= 0 and n >= 1")
    an = a * float(n)
    return math.sqrt(2.0 / an) * (1.0 + math.sqrt(g * g / (8.0 * an)))


def lorentzian_newton_refined(a: float, g: float, n=1) -> float:
    """One exact Newton iteration on f(t) = a n t (1 - e^(-g t)) - 2 g from
    the short-time seed t0 = sqrt(2/(a n))."""
    if not (0.0 < a < math.inf and 0.0 <= g < math.inf and 1.0 <= n < math.inf):
        raise DomainError("need finite a > 0, g >= 0 and n >= 1")
    an = a * float(n)
    t0 = math.sqrt(2.0 / an)
    if g == 0.0:
        return t0
    em = math.exp(-g * t0)
    f0 = an * t0 * (1.0 - em) - 2.0 * g
    fp0 = an * (1.0 - em) + an * t0 * g * em
    return t0 - f0 / fp0
