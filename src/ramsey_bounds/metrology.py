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

from .dephasing import DephasingModel
from .errors import DegenerateSignal, DomainError, NoFiniteOptimum
from .numerics import _count, _is_real, _real, _real_array, solve_bracketed_root

__all__ = [
    "STRATEGIES",
    "ProbeSpec",
    "Optimum",
    "RatioResult",
    "ramsey_probability",
    "fisher_information",
    "frequency_variance",
    "optimal_interrogation",
    "optimal_resolution",
    "ratio_r",
    "ohmic_exact_ratio",
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
        object.__setattr__(self, "n", _count("n", self.n))
        object.__setattr__(self, "total_time",
                           _real("total_time", self.total_time, 0.0, strict=True))
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


def ramsey_probability(phi, t, gamma_t):
    """Fringe probability p0 = (1 + cos(phi t) e^(-gamma))/2."""
    phi, t = _real_array("phi", phi), _real_array("t", t)
    return 0.5 * (1.0 + np.cos(phi * t) * np.exp(-_real_array("gamma_t", gamma_t, 0.0)))


def fisher_information(phi, t, gamma_t):
    """Single-probe Fisher information of the fringe with respect to phi.

    F = t^2 sin^2(phi t) e^(-2 gamma) / (1 - cos^2(phi t) e^(-2 gamma)),
    which reduces to t^2 e^(-2 gamma) at the operating points
    phi t = k pi/2, odd k: the reciprocal of the variance of one probe
    measured once, n = m = 1 and T = t (which enters squared).
    """
    phi, t = _real("phi", phi), _real("t", t)
    return 1.0 / _variance(_real("gamma_t", gamma_t, 0.0), phi * t, 1, 1, abs(t), abs(t))


def _variance(gam: float, theta: float, n, m, total_time: float, t: float) -> float:
    """dw^2 = (e^(2 m gamma) - cos^2 theta) / (n m T t sin^2 theta) at the
    fringe argument theta; in logarithms where e^(2 m gamma) overflows."""
    c2 = math.cos(theta) ** 2
    try:
        growth = math.exp(2.0 * m * gam)
    except OverflowError:
        return _overflowed_variance(2.0 * m * gam, 1.0 - c2, n, m, total_time, t)
    num = growth - c2
    if num <= 0.0:
        raise DegenerateSignal(
            "p0 is 0 or 1 (gamma = 0 and phi t = 0 mod pi): no information")
    den = n * m * total_time * t * (1.0 - c2)
    if den == math.inf:
        # the product overflows where the quotient need not: divide by T last
        return num / (n * m * t * (1.0 - c2)) / total_time
    return math.inf if den == 0.0 else num / den


def _overflowed_variance(log_growth, sin2, n, m, total_time, t):
    """dw^2 where e^(2 m gamma) = e^log_growth overflows, where the quotient
    need not: there cos^2 theta is below 1e-308 of e^(2 m gamma), so ln dw^2 is
    log_growth - ln(n m T t sin^2 theta) to rounding."""
    if sin2 == 0.0:
        return math.inf
    log = math.log
    log_var = log_growth - log(n) - log(m) - log(total_time) - log(t) - log(sin2)
    try:
        return math.exp(log_var)
    except OverflowError:
        return math.inf


def frequency_variance(phi, t, probe: ProbeSpec, deph: DephasingModel):
    """Frequency variance dw^2 at operating point (phi, t).

    Product states: N = (T/t) n independent fringes with argument phi t and
    decay e^(-gamma). GHZ states: N = T/t fringes with argument n phi t and
    decay e^(-n gamma).
    """
    phi, t = _real("phi", phi), _real("t", t, 0.0, strict=True)
    if t > probe.total_time:
        raise DomainError("t must not exceed the probe's total_time")
    return _variance(deph.gamma(t), probe.m * phi * t, probe.n, probe.m, probe.total_time, t)


# --- optimal interrogation times ----------------------------------------------

# the walk's step: 25 samples a decade
_WALK_STEP = 10.0 ** (1.0 / 25.0)
# an unbounded window is walked at most 24 decades, so a root further above
# the Zeno bound (a weakly coupled bath with s just below 1) counts as none
_WALK_MAX_STEPS = 24 * 25


def optimal_interrogation(deph: DephasingModel, m):
    """Solve 2 m t gamma'(t) = 1 for the optimal interrogation time.

    ``m`` is 1 for product states and n for GHZ states. When the condition
    has two solutions (decoherence functions that saturate), the variance
    minimum is the smaller one and is returned. Raises
    :class:`NoFiniteOptimum` when 2 m t gamma'(t) stays below 1 for all t.

    ``m`` may also be a 1-D array of multipliers: the result is then an
    array of times, NaN where no finite optimum exists, each one the time
    the scalar call for that multiplier returns. ``m`` is >= 1 (see "Inputs"
    in the README).

    A scalar ``m`` is read as a Python float and gives a Python float, with
    no array built; a list of numbers is read the same way, and an array is
    built only for its result. Each lane is solved on Python floats, on the
    model's float gamma', bound once per model (:func:`_constraint`), and its
    root solve starts from the walk's values of 2 m t gamma' - 1 at the
    bracket's ends. Where the family's window proves that no root exists
    (:attr:`BathSpec.root_window`), the lane evaluates gamma' not
    once. The lane m = 1, the product optimum, is solved on a model's first
    call and then read from :attr:`DephasingModel.product_optimum`.
    """
    lanes, scalar = _multipliers(m)
    times = [deph.product_optimum[0] if mi == 1.0 else _solve_lane(deph, mi) for mi in lanes]
    if not scalar:
        return np.array(times, dtype=float)
    if math.isnan(times[0]):
        raise NoFiniteOptimum(_NO_OPTIMUM)
    return times[0]


def _multipliers(m):
    """``m`` as a list of Python floats, and whether it is a scalar. A number,
    or a list or tuple of numbers, is read without an array."""
    if isinstance(m, (list, tuple)):
        return [_real("m", mi, 1.0) for mi in m], False
    if _is_real(m) or not np.ndim(m):
        return [_real("m", m, 1.0)], True
    ms = _real_array("m", m, 1.0)
    if ms.ndim > 1:
        raise DomainError("m must be a number or a 1-D array")
    return ms.tolist(), False


def _solve_lane(deph: DephasingModel, m: float) -> float:
    """The optimal time for one multiplier, NaN where none exists.

    The bath's window [lo, hi] at m holds the first root; the walk steps up
    from one step below lo, and its first upward crossing brackets the root.
    It ends one step past hi, or after _WALK_MAX_STEPS when hi is infinite.
    A lobe whose peak the window counts as reaching 1 may stay below it on
    the route (within rounding, or a quadrature's error); the first root of a
    later lobe is then the lane's.
    """
    window = deph.bath.root_window(m)
    if window is None or window[0] == math.inf:
        return math.nan
    lo, hi = window
    h = _constraint(deph, m)
    t_end = hi * _WALK_STEP
    t = lo / _WALK_STEP
    ts, hv = [t], [h(t)]
    while t < t_end and len(ts) <= _WALK_MAX_STEPS:
        t *= _WALK_STEP
        ts.append(t)
        hv.append(h(t))
        if hv[-1] >= 0.0:
            return solve_bracketed_root(h, (ts[-2], t), values=(hv[-2], hv[-1]))
    t = _rescue_search(h, ts, hv)
    if math.isnan(t):
        return next(_later_roots(deph, h, m, hi, math.inf), math.nan)
    return t


def _constraint(deph: DephasingModel, m: float):
    """h(t) = 2 m t gamma'(t) - 1 at a time t > 0 of the walk.

    gamma' is the model's float function of t, bound once per model
    (``DephasingModel.dgamma_at``), and called with no check: every time the
    walk or the root solver asks for is finite and > 0. 2 m t is (2 m) t, so
    2 m is bound too.
    """
    dgamma, two_m = deph.dgamma_at, 2.0 * m

    def h(t):
        return two_m * t * dgamma(t) - 1.0
    return h


def _later_roots(deph, h, m, after, end):
    """Each root of h on the rising side of a lobe of the bath
    (:attr:`BathSpec.lobes`) that reaches 1 at m and starts in (after, end),
    solved on [start, min(peak, end)], where h rises from -1; none where the
    route's h is below 0 at that end."""
    log_m = math.log(m)
    for c, start, peak in deph.bath.lobes:
        if after < start < end and log_m + c >= 0.0:
            stop = min(peak, end)
            h_stop = h(stop)
            if h_stop >= 0.0:
                yield solve_bracketed_root(h, (start, stop), values=(-1.0, h_stop))


def _rescue_search(h, ts, hv):
    """The root of h after a walk with no crossing, or NaN.

    Refines the hump maximum of the walked samples by ternary search, in
    case a narrow positive window slipped between two of them.
    """
    i = int(np.argmax(hv))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        f1, f2 = float(h(m1)), float(h(m2))
        if f1 >= 0.0:
            return solve_bracketed_root(h, (ts[0], m1), values=(hv[0], f1))
        if f2 >= 0.0:
            return solve_bracketed_root(h, (ts[0], m2), values=(hv[0], f2))
        if f1 < f2:
            lo = m1
        else:
            hi = m2
        if hi - lo <= 1e-9 * hi:
            break
    return math.nan


def optimal_resolution(deph: DephasingModel, probe: ProbeSpec) -> Optimum:
    """Minimize the frequency variance over t in (0, total_time] at phi t = pi/2.

    The interior stationary points are compared against the t = total_time
    boundary (saturating decoherence functions can favour the boundary);
    whichever is smallest wins, and ``boundary_limited`` is set when the
    boundary does. The first is :func:`optimal_interrogation`'s; a later lobe
    of 2 m t gamma' (super-Ohmic T = 0, s > 4) can hold a lower one. When no
    stationary point exists the result is clamped to total_time with
    ``finite=False``.
    """
    t_star = None
    try:
        t_star = optimal_interrogation(deph, probe.m)
    except NoFiniteOptimum:
        pass
    n, m, T = probe.n, probe.m, probe.total_time
    var_T = _variance(deph.gamma(T), math.pi / 2.0, n, m, T, T)
    if t_star is not None and t_star <= T * (1.0 + deph.route.root_rel_tol):
        # a root the route cannot tell from T is T; the product root's gamma
        # is the model's own (DephasingModel.product_optimum)
        gam = deph.product_optimum[1] if m == 1 and t_star <= T else deph.gamma(min(t_star, T))
        t_star = min(t_star, T)
        var_star = _variance(gam, math.pi / 2.0, n, m, T, t_star)
        # a later lobe can hold one more up to T; only a bath with two lobes
        # has a later one
        if len(deph.bath.lobes) > 1:
            for t in _later_roots(deph, _constraint(deph, m), m, t_star, T):
                var = _variance(deph.gamma(t), math.pi / 2.0, n, m, T, t)
                if var < var_star:
                    var_star, t_star = var, t
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

    An int or numpy integer n is read as a Python int, with no array built
    for it; either way the distinct multipliers, 1 among them, go to one
    :func:`optimal_interrogation` call as a list. Calls on one model reuse
    its t_u and gamma(t_u) (:attr:`DephasingModel.product_optimum`).
    """
    if type(n) is int and n >= 1:  # a valid int, as a sweep passes it, calls nothing
        flat, shape = [n], ()
    elif isinstance(n, np.ndarray) or np.ndim(n):
        ns = np.asarray(n)
        if ns.ndim > 1 or ns.dtype.kind not in "iu":
            raise DomainError("n must be an int or a 1-D array of ints")
        flat, shape = ns.reshape(-1).tolist(), ns.shape
        if any(k < 1 for k in flat):
            raise DomainError("n must be >= 1")
    else:
        flat, shape = [_count("n", n)], ()
    # the distinct multipliers, m = 1 (the product optimum) among them
    ms = sorted(set(flat) | {1})
    times = optimal_interrogation(deph, ms).tolist()
    # optimal times are finite and > 0, so the route needs no check
    route, bath = deph.route, deph.bath
    optima = {mi: (t, math.nan if math.isnan(t) else float(route.gamma(bath, t)))
              for mi, t in zip(ms[1:], times[1:])}
    t_u, g_u = optima[1] = deph.product_optimum
    rows = []
    for k in flat:
        t_e, g_e = optima[k]
        if math.isnan(t_u) or math.isnan(t_e):
            rows.append((math.nan,) * 4)
            continue
        # Python floats, scalar gamma and math.exp, so that every row holds
        # the bits of this formula evaluated for its n alone: numpy's vector
        # exp and pow can differ from them in the last bit
        factor = math.exp(2.0 * g_u - 2.0 * k * g_e)
        r_sq = k * (t_e / t_u) * factor
        rows.append((math.sqrt(r_sq), t_u, t_e, factor))
    if shape:
        return RatioResult(*np.array(rows, dtype=float).reshape(shape + (4,)).T)
    if math.isnan(rows[0][0]):
        raise NoFiniteOptimum(_NO_OPTIMUM)
    return RatioResult(*rows[0])


def ohmic_exact_ratio(alpha: float, n) -> float:
    """Closed-form r for the Ohmic bath at T = 0: r = sqrt(n) f(alpha, n) with

        f = sqrt([ (2a/(2a-1))^a / (2na/(2na-1))^(na) ]
                 * sqrt((2a-1)/(2na-1))).

    Requires alpha > 1/2 (below it no finite optimum exists).
    """
    a, n = _real("alpha", alpha, 0.5, strict=True), _real("n", n, 1.0)
    na = a * n
    # logs via log1p keep n*alpha ~ 1e9 accurate
    log_f_sq = (-a * math.log1p(-0.5 / a)
                + na * math.log1p(-0.5 / na)
                + 0.5 * (math.log(2.0 * a - 1.0) - math.log(2.0 * na - 1.0)))
    return math.sqrt(n) * math.exp(0.5 * log_f_sq)

