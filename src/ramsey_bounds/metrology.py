"""Ramsey estimation theory under pure dephasing.

For n uncorrelated probes interrogated for a time t the fringe is
p0 = (1 + cos(phi t) e^(-gamma(t)))/2 and the frequency variance follows
from the Cramer-Rao bound with N = (T/t) n repetitions,

    dw^2 = (1 - cos^2(phi t) e^(-2 gamma)) / (n T t sin^2(phi t) e^(-2 gamma)).

The optimal operating point is phi t = k pi/2 (odd k) and the optimal
interrogation time solves 2 t gamma'(t) = 1, giving
dw^2|u = e^(2 gamma(t_u)) / (n T t_u).

A GHZ register accrues phase n times faster and dephases n times faster:
the fringe argument becomes n phi t, the decay e^(-n gamma), and only
N = T/t repetitions are available, so the optimum solves
2 n t gamma'(t) = 1 and dw^2|e = e^(2 n gamma(t_e)) / (n^2 T t_e).

The figure of merit is r = |dw|_u / |dw|_e at each strategy's own optimum,

    r^2 = n (t_e/t_u) e^(2 gamma(t_u) - 2 n gamma(t_e)),

which is 1 for Markovian noise (gamma ~ t), sqrt(n) without noise, and
n^(1/4) in the short-time (Zeno) regime where gamma ~ t^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dephasing import (
    BathSpec,
    DephasingModel,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
)
from .errors import DegenerateSignal, DomainError, NoFiniteOptimum
from .numerics import solve_bracketed_root

__all__ = [
    "STRATEGIES",
    "ProbeSpec",
    "Optimum",
    "RatioResult",
    "HighTempTimes",
    "ramsey_probability",
    "fisher_information",
    "frequency_variance",
    "optimal_interrogation",
    "optimal_resolution",
    "ratio_r",
    "ohmic_exact_ratio",
    "power_law_scaling",
    "lorentzian_newton_time",
    "lorentzian_newton_refined",
    "lorentzian_regime_ratio",
    "high_temp_entangled_time",
    "zeno_diagnostic",
]

STRATEGIES = ("product", "ghz")

_NO_OPTIMUM = "2 m t dgamma/dt stays below 1 at every time; no finite optimum"


@dataclass(frozen=True)
class ProbeSpec:
    """n probes, a total experiment time T, and the preparation strategy."""

    n: int
    total_time: float
    strategy: str = "product"

    def __post_init__(self):
        if (isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer))
                or self.n < 1):
            raise DomainError("n must be an int >= 1")
        if not math.isfinite(self.total_time):
            raise DomainError("total_time must be finite")
        if self.total_time <= 0.0:
            raise DomainError("total_time must be > 0")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"strategy must be one of {STRATEGIES}")

    @property
    def m(self) -> int:
        """Phase and decay multiplier: 1 for product states, n for GHZ states."""
        return 1 if self.strategy == "product" else self.n


@dataclass(frozen=True)
class Optimum:
    """Minimized frequency variance and where it is attained."""

    t_opt: float
    delta_omega_sq: float
    finite: bool = True
    boundary_limited: bool = False


@dataclass(frozen=True)
class RatioResult:
    """Resolution ratio r with the two optimal interrogation times."""

    r: float
    t_u: float
    t_e: float
    exponential_factor: float


@dataclass(frozen=True)
class HighTempTimes:
    """Entangled-probe interrogation time in the high-temperature regime.

    ``printed`` is the leading-order Zeno estimate sqrt(beta/(4 alpha n wc));
    ``solved`` is the root of the full stationarity condition on the
    high-temperature decoherence function, which approaches
    sqrt(beta/(2 alpha n wc)) in the same regime. ``zeno_valid`` flags
    wc * t_e < 0.1, outside of which neither estimate applies.
    """

    printed: float
    solved: float
    zeno_valid: bool


def ramsey_probability(phi, t, gamma_t):
    """Fringe probability p0 = (1 + cos(phi t) e^(-gamma))/2."""
    return 0.5 * (1.0 + np.cos(np.asarray(phi) * t) * np.exp(-np.asarray(gamma_t)))


def fisher_information(phi, t, gamma_t):
    """Single-probe Fisher information of the fringe with respect to phi.

    F = t^2 sin^2(phi t) e^(-2 gamma) / (1 - cos^2(phi t) e^(-2 gamma)),
    which reduces to t^2 e^(-2 gamma) at the operating points
    phi t = k pi/2, odd k.
    """
    if not (math.isfinite(phi) and math.isfinite(t) and math.isfinite(gamma_t)):
        raise DomainError("phi, t and gamma_t must be finite")
    c = math.cos(phi * t)
    decay = math.exp(-2.0 * gamma_t)
    denom = 1.0 - c * c * decay
    if denom <= 0.0:
        raise DegenerateSignal(
            "p0 is 0 or 1 (gamma = 0 and phi t = 0 mod pi): no information")
    return t * t * (1.0 - c * c) * decay / denom


def _variance(gam: float, theta: float, probe: ProbeSpec, t: float) -> float:
    """dw^2 = (e^(2 m gamma) - cos^2 theta) / (n m T t sin^2 theta) at the
    fringe argument theta; inf where e^(2 m gamma) overflows."""
    m = probe.m
    c2 = math.cos(theta) ** 2
    try:
        growth = math.exp(2.0 * m * gam)
    except OverflowError:
        return math.inf
    num = growth - c2
    if num <= 0.0:
        raise DegenerateSignal(
            "p0 is 0 or 1 (gamma = 0 and phi t = 0 mod pi): no information")
    den = probe.n * m * probe.total_time * t * (1.0 - c2)
    return math.inf if den == 0.0 else num / den


def frequency_variance(phi, t, probe: ProbeSpec, deph: DephasingModel):
    """Frequency variance dw^2 at operating point (phi, t).

    Product states: N = (T/t) n independent fringes with argument phi t and
    decay e^(-gamma). GHZ states: N = T/t fringes with argument n phi t and
    decay e^(-n gamma).
    """
    if not math.isfinite(phi):
        raise DomainError("phi must be finite")
    if not 0.0 < t < math.inf:
        raise DomainError("t must be finite and > 0")
    if t > probe.total_time:
        raise DomainError("t must not exceed the probe's total_time")
    return _variance(deph.gamma(t), probe.m * phi * t, probe, t)


# --- optimal interrogation times ----------------------------------------------

# log-spaced scan used to bracket the stationarity condition; wide enough for
# every supported model at couplings within ~20 orders of magnitude of unity
_SCAN_DECADES = 12
_SCAN_PER_DECADE = 25
# multipliers scanned together: a block's scan arrays stay near 300 kB each,
# within a core's cache, and memory does not grow with the length of a sweep
_SCAN_LANES = 64


def optimal_interrogation(deph: DephasingModel, m):
    """Solve 2 m t gamma'(t) = 1 for the optimal interrogation time.

    ``m`` is 1 for product states and n for GHZ states. When the condition
    has two solutions (decoherence functions that saturate), the variance
    minimum is the smaller one and is returned. Raises
    :class:`NoFiniteOptimum` when 2 m t gamma'(t) stays below 1 for all t.

    ``m`` may also be a 1-D array of multipliers, all solved in one pass:
    the result is then an array of times, NaN where no finite optimum exists.
    """
    ms = np.asarray(m, dtype=float)
    if ms.ndim > 1 or not ((1.0 <= ms) & (ms < math.inf)).all():
        raise DomainError("m must be finite and >= 1 (a scalar or a 1-D array)")
    lanes = ms.reshape(-1)
    times = np.empty(lanes.size)
    for i in range(0, lanes.size, _SCAN_LANES):
        times[i:i + _SCAN_LANES] = _solve_lanes(deph, lanes[i:i + _SCAN_LANES])
    if ms.ndim:
        return times
    if math.isnan(times[0]):
        raise NoFiniteOptimum(_NO_OPTIMUM)
    return float(times[0])


def _solve_lanes(deph: DephasingModel, ms):
    """Optimal times for a 1-D array of multipliers, NaN where none exists.

    One log grid per multiplier (a row of ``ts``) spans t_ref(m) 10^(+-12);
    one gamma' call covers every row, and the first upward crossing of each
    row brackets its root.
    """
    t_ref = deph.bath.spectral.time_scale(ms)
    ts = _log_grid(t_ref * 10.0 ** (-_SCAN_DECADES), t_ref * 10.0 ** _SCAN_DECADES,
                   2 * _SCAN_DECADES * _SCAN_PER_DECADE + 1)
    hv = 2.0 * ms[:, None] * ts * np.asarray(deph.dgamma_dt(ts), dtype=float) - 1.0
    if (hv[:, 0] >= 0.0).any():
        raise DomainError("constraint scan starts above 1; coupling out of range")
    crossing = (hv[:, :-1] < 0.0) & (hv[:, 1:] >= 0.0)
    first = crossing.argmax(axis=1)
    out = np.empty(ms.size)
    for k, m in enumerate(ms.tolist()):
        h = _constraint(deph, m)
        i = first[k]
        if crossing[k, i]:
            out[k] = solve_bracketed_root(h, (ts[k, i], ts[k, i + 1]))
        else:
            out[k] = _rescue_search(h, ts[k], hv[k])
    return out


def _log_grid(lo, hi, num):
    """np.geomspace(lo, hi, num, axis=-1) for 1-D arrays of positive ends.

    The same arithmetic (10 to the power of a linear grid of exponents, with
    the ends set exactly), so the same bits, without geomspace's general set-up,
    which costs more than the rest of a one-multiplier scan.
    """
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    exps = ((log_hi - log_lo) / (num - 1))[:, None] * np.arange(num) + log_lo[:, None]
    exps[:, -1] = log_hi
    ts = 10.0 ** exps
    ts[:, 0], ts[:, -1] = lo, hi
    return ts


def _constraint(deph: DephasingModel, m: float):
    """h(t) = 2 m t gamma'(t) - 1 at a time t > 0 of the scan.

    The route is called directly, on a float: the scan's times were checked
    once, and every iterate lies inside a bracket of that scan.
    """
    route, bath = deph.route, deph.bath

    def h(t):
        return 2.0 * m * t * float(route.dgamma(bath, t)) - 1.0
    return h


def _rescue_search(h, ts, hv):
    """The root of h on a scan row with no crossing, or NaN.

    Refines the hump maximum by ternary search, in case a narrow positive
    window slipped between grid points.
    """
    i = int(np.argmax(hv))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = float(h(m1)), float(h(m2))
        if f1 >= 0.0:
            return solve_bracketed_root(h, (ts[0], m1))
        if f2 >= 0.0:
            return solve_bracketed_root(h, (ts[0], m2))
        if f1 < f2:
            lo = m1
        else:
            hi = m2
        if hi - lo <= 1e-9 * hi:
            break
    return math.nan


def optimal_resolution(deph: DephasingModel, probe: ProbeSpec) -> Optimum:
    """Minimize the frequency variance over t in (0, total_time] at phi t = pi/2.

    The interior stationary point is compared against the t = total_time
    boundary (saturating decoherence functions can favour the boundary);
    whichever is smaller wins, and ``boundary_limited`` is set when the
    boundary does. When no stationary point exists the result is clamped to
    total_time with ``finite=False``.
    """
    t_star = None
    try:
        t_star = optimal_interrogation(deph, probe.m)
    except NoFiniteOptimum:
        pass
    T = probe.total_time
    var_T = _variance(deph.gamma(T), math.pi / 2.0, probe, T)
    if t_star is not None and t_star <= T:
        var_star = _variance(deph.gamma(t_star), math.pi / 2.0, probe, t_star)
        if var_star <= var_T:
            return Optimum(t_opt=t_star, delta_omega_sq=var_star)
        return Optimum(t_opt=T, delta_omega_sq=var_T, boundary_limited=True)
    return Optimum(t_opt=T, delta_omega_sq=var_T,
                   finite=t_star is not None, boundary_limited=True)


def ratio_r(deph: DephasingModel, n) -> RatioResult:
    """Resolution ratio r of product vs GHZ probes at their own optima.

    r^2 = n (t_e/t_u) e^(2 gamma(t_u) - 2 n gamma(t_e)); the total time T
    drops out. For an int n the fields are floats, and
    :class:`NoFiniteOptimum` is raised if either optimum is missing. For a
    1-D array of ints, t_u and every t_e are solved in one pass (t_u once)
    and the fields are arrays, NaN on the rows where either optimum is
    missing.
    """
    ns = np.asarray(n)
    if ns.ndim > 1 or ns.dtype.kind not in "iu":
        raise DomainError("n must be an int or a 1-D array of ints")
    if (ns < 1).any():
        raise DomainError("n must be >= 1")
    # lane 0 is m = 1, the product optimum; lane[j] is the lane of row j
    flat = ns.reshape(-1)
    ms = np.unique(np.append(flat, 1))
    lane = np.searchsorted(ms, flat)
    times = optimal_interrogation(deph, ms).tolist()
    # optimal times are finite and > 0, so the route needs no check
    route, bath = deph.route, deph.bath
    gammas = [math.nan if math.isnan(t) else float(route.gamma(bath, t)) for t in times]
    t_u, g_u = times[0], gammas[0]
    rows = []
    for k, j in zip(flat.tolist(), lane.tolist()):
        t_e = times[j]
        if math.isnan(t_u) or math.isnan(t_e):
            rows.append((math.nan,) * 4)
            continue
        # Python floats, scalar gamma and math.exp, so that every row holds
        # the bits of this formula evaluated for its n alone: numpy's vector
        # exp and pow can differ from them in the last bit
        factor = math.exp(2.0 * g_u - 2.0 * k * gammas[j])
        r_sq = k * (t_e / t_u) * factor
        rows.append((math.sqrt(r_sq), t_u, t_e, factor))
    table = np.array(rows, dtype=float).reshape(ns.shape + (4,))
    if ns.ndim:
        return RatioResult(*table.T)
    if math.isnan(table[0]):
        raise NoFiniteOptimum(_NO_OPTIMUM)
    return RatioResult(*table.tolist())


def ohmic_exact_ratio(alpha: float, n) -> float:
    """Closed-form r for the Ohmic bath at T = 0: r = sqrt(n) f(alpha, n) with

        f = sqrt([ (2a/(2a-1))^a / (2na/(2na-1))^(na) ]
                 * sqrt((2a-1)/(2na-1))).

    Requires alpha > 1/2 (below it no finite optimum exists).
    """
    if not (0.5 < alpha < math.inf and 1.0 <= n < math.inf):
        raise DomainError("need finite alpha > 1/2 (a finite Ohmic optimum) and n >= 1")
    a, na = float(alpha), float(alpha) * float(n)
    # logs via log1p keep n*alpha ~ 1e9 accurate
    log_f_sq = (-a * math.log1p(-0.5 / a)
                + na * math.log1p(-0.5 / na)
                + 0.5 * (math.log(2.0 * a - 1.0) - math.log(2.0 * na - 1.0)))
    return math.sqrt(float(n)) * math.exp(0.5 * log_f_sq)


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


def lorentzian_regime_ratio(a: float, g: float, n: int) -> float:
    """Numeric r for the Lorentzian bath via the full optimization pipeline.

    Approaches n^(1/4) for 8 a n >> g^2 (Zeno regime) and 1 for
    8 a n << g^2, where memory effects are negligible at the long optimal
    interrogation times.
    """
    if g < 0.0:
        raise DomainError("g must be >= 0")
    deph = DephasingModel(BathSpec(Lorentzian(a, g)))
    t_u = optimal_interrogation(deph, 1)
    T = 100.0 * t_u
    res_u = optimal_resolution(deph, ProbeSpec(n, T, "product"))
    res_e = optimal_resolution(deph, ProbeSpec(n, T, "ghz"))
    return math.sqrt(res_u.delta_omega_sq / res_e.delta_omega_sq)


def high_temp_entangled_time(alpha: float, beta: float, omega_c: float,
                             n: int) -> HighTempTimes:
    """Both estimates of t_e for the Ohmic bath at high temperature.

    The full stationarity condition is 2 n t (alpha/beta) arctan(wc t) = 1;
    its short-time reduction gives sqrt(beta/(2 alpha n wc)) while the
    leading-order literature estimate is sqrt(beta/(4 alpha n wc)). Both are
    reported; scaling in (alpha n wc / beta)^(-1/2) is common to the two.
    """
    if not all(0.0 < v < math.inf for v in (alpha, beta, omega_c, n)) or n < 1:
        raise DomainError("alpha, beta, omega_c must be finite and > 0, n >= 1")
    printed = math.sqrt(beta / (4.0 * alpha * n * omega_c))
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(alpha, 1.0, omega_c),
                                   HighTemperatureOhmic(beta)))
    solved = optimal_interrogation(deph, n)
    return HighTempTimes(printed=printed, solved=solved,
                         zeno_valid=omega_c * solved < 0.1)


def zeno_diagnostic(deph: DephasingModel, n: int, omega_fast=None) -> float:
    """Dimensionless product r^2 * omega_fast * t_e.

    In the Zeno regime this is O(1) for every bath (exactly
    omega_fast/(2 sqrt(c2)) for a purely quadratic decoherence function);
    pass ``omega_fast`` explicitly for models without a bath scale.
    """
    wf = deph.omega_fast() if omega_fast is None else float(omega_fast)
    if wf is None:
        raise DomainError(
            "model has no bath frequency scale; pass omega_fast explicitly")
    if not 0.0 < wf < math.inf:
        raise DomainError("omega_fast must be finite and > 0")
    res = ratio_r(deph, n)
    return res.r ** 2 * wf * res.t_e
