"""Reference formulas of the paper's regimes, which the tests check the
optimizer against: the exact power-law scaling (criterion 2) and the
Lorentzian bath's Newton-refined optimum (criterion 6)."""

import math

from ramsey_bounds.errors import DomainError


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
