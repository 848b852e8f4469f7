"""Reference implementations.

These deliberately avoid the solvers they are meant to check: the optimum
search is a refined 2-D grid scan of the raw variance surface, and the
reference decoherence integral is the family's closed form, with no
quadrature at all, so that checking the quadrature against it compares two
methods that share no code. Used by the test suite and the ``validate`` CLI
command.

The grid scan takes 50 points per decade of t, 181 fringe arguments and 4
zoom rounds of 41 x 41 points. Its grids are ``np.geomspace`` and
``np.linspace`` bit for bit, built by their own arithmetic from one ramp
0, 1, ..., n - 1 (the same 41-point ramp in every zoom round), and its
surface takes two arrays of the grid's size. The coarse scan evaluates only
the rows that can hold its minimum: with decay d <= 1 every entry of a row
is at least 1/a, a = shots d, so (1 - 1e-9)/a, a margin some four orders
above the rounding of the entry's four operations, is a floor of the row,
and a row whose floor lies above the least entry of the centre column is
skipped (``_coarse_argmin``). One row of about 243 is left on the draws of
``scenario_draws``. About 0.23-0.3 ms a call on those draws, its gamma
evaluations included, against 0.32-0.42 ms scanning every coarse row
(2-core host, numpy 2.4).
"""

from __future__ import annotations

import math
import numpy as np

from .dephasing import (
    BathSpec,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    ZeroTemperature,
)
from .errors import DomainError, GridTooCoarse, NoSpectralDensity
from .metrology import Optimum, ProbeSpec, optimal_interrogation
from .numerics import _count, _real

__all__ = [
    "brute_force_optimum",
    "reference_gamma",
    "scenario_draws",
    "gamma_consistency_draws",
]


# brute_force_optimum's grid (points per decade of t, fringe arguments theta,
# zoom rounds), the coarse grid's fringe arguments with their cos^2, and the
# ramp 0, 1, ..., 40 of every zoom grid
_POINTS_PER_DECADE, _PHI_POINTS, _REFINE_ROUNDS = 50, 181, 4
_THETAS = np.pi * np.arange(1, _PHI_POINTS + 1) / (_PHI_POINTS + 1)
_COS2 = np.cos(_THETAS) ** 2
_ZOOM_STEPS = np.arange(41.0)
# the coarse scan's row floor, min((1 - 1e-9)/a, _FLOOR_CAP), and the centre
# column's cos^2 and 1 - cos^2, from which it takes a real entry of every row
_ROW_FLOOR = 1.0 - 1e-9
_FLOOR_CAP = 0.99 * float(1.0 - _COS2.max()) / 1e-300
_COS2_MID = float(_COS2[_PHI_POINTS // 2])
_SIN2_MID = 1.0 - _COS2_MID


def _lin(a, b, ramp):
    """np.linspace(a, b, len(ramp)) for float ends, by numpy's own arithmetic:
    ramp times the step, plus a, with the last point set to b."""
    y = ramp * ((b - a) / (len(ramp) - 1))
    y += a
    y[-1] = b
    return y


def _geom(lo, hi, ramp):
    """np.geomspace(lo, hi, len(ramp)) for lo, hi > 0, by numpy's own
    arithmetic: 10 to the linear grid of exponents, with both ends set."""
    y = 10.0 ** _lin(np.log10(lo), np.log10(hi), ramp)
    y[0], y[-1] = lo, hi
    return y


def _decay_and_a(deph: DephasingModel, probe: ProbeSpec, ts):
    """The decay d and a = shots d of every grid time. Raises DomainError
    where the largest shot count overflows: d may underflow to 0 there, and
    a would be inf * 0 = nan."""
    gam = np.asarray(deph.gamma(ts), dtype=float)
    n = probe.n
    if probe.strategy == "product":
        decay, scale = np.exp(-2.0 * gam), n * probe.total_time
    else:
        decay, scale = np.exp(-2.0 * n * gam), n * n * probe.total_time
    if not scale * float(ts[-1]) < math.inf:  # the largest shot count
        raise DomainError("the time grid's shot count (n or n^2) T t overflows a float")
    return decay, scale * ts * decay


def _surface(decay, a, c2):
    """dw^2 = (1 - c2 d) / (a (1 - c2)) on the (t, theta) product grid, given
    d and a of its times and c2 = cos^2 theta; theta is the fringe argument
    (phi t for product states, n phi t for GHZ).

    Deliberately a separate copy of the variance formula in ``metrology``:
    it is the independent reference that ``validate`` checks the optimizer
    against, so it must not share that code. Entries too large for a float
    are inf, the intended value.
    """
    # two arrays of the grid's size. The outer products are einsum's: it adds
    # each product to a zero, which moves no bit of a product >= 0, at about
    # twice the speed of a broadcast multiply
    num = np.einsum("i,j->ij", decay, c2)
    den = np.einsum("i,j->ij", a, 1.0 - c2)
    np.subtract(1.0, num, out=num)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(num, den, out=num)


def _argmin(var):
    """(row, column, value) of the first minimum of ``var``."""
    k = int(var.argmin())
    i, j = divmod(k, var.shape[1])
    return i, j, var[i, j]


def _coarse_argmin(decay, a):
    """``_argmin(_surface(decay, a, _COS2))``, scanning only the rows that can
    hold or tie its first minimum.

    Where d <= 1, every entry of a row is at least 1/a, as 1 - c2 d >= 1 - c2.
    1 - c2 >= 3e-4 on this grid, so the entry's four rounded operations put
    it at most ~3,400 ulps (4e-13) below that while a (1 - c2) is a normal
    float, which a >= 1e-300 ensures: (1 - 1e-9)/a bounds the row from
    below. Below a = 1e-300, a (1 - c2) rounds to at most 1e-300, so every
    entry is at least 3e-4/1e-300, which _FLOOR_CAP undercuts. The centre
    column (least cos^2) holds a real entry of every row, and their minimum m
    is at least the surface's. A row whose floor is above m is skipped,
    unless d > 1 or its floor is NaN; the row that gives m is never skipped.
    The kept rows are scanned in order, so the first minimum, or first NaN,
    is the same.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = ((1.0 - _COS2_MID * decay) / (a * _SIN2_MID)).min()
        floor = np.minimum(_ROW_FLOOR / a, _FLOOR_CAP)
    rows = np.flatnonzero(~((floor > m) & (decay <= 1.0)))
    k, j, v = _argmin(_surface(decay[rows], a[rows], _COS2))
    return int(rows[k]), j, v


def brute_force_optimum(deph: DephasingModel, probe: ProbeSpec, *,
                        t_min: float | None = None, t_max: float | None = None,
                        with_theta: bool = False):
    """Minimize the variance surface by grid scan plus zoom refinement.

    The time grid spans [t_min, t_max], by default [1e-4, 1e4] times the
    model's characteristic time, capped at the total time. Deterministic for
    a given grid. Raises :class:`GridTooCoarse` when the
    minimum ends on a grid edge that is not the total-time boundary; sitting
    on t = total_time is reported as a boundary-limited optimum instead.
    With ``with_theta`` the recovered fringe argument is returned alongside
    the :class:`Optimum` (expected pi/2 up to grid resolution).
    """
    t_ref = deph.time_scale()
    t_lo = 1e-4 * t_ref if t_min is None else _real("t_min", t_min, 0.0, strict=True)
    t_hi = 1e4 * t_ref if t_max is None else _real("t_max", t_max, 0.0, strict=True)
    t_hi = min(t_hi, probe.total_time)
    if not t_lo > 0.0:
        raise DomainError("empty time grid: 1e-4 of the model's time scale "
                          "underflows to 0")
    if not t_hi > t_lo:
        raise DomainError("empty time grid after the total-time cap")

    decades = math.log10(t_hi / t_lo)
    n_t = max(int(round(decades * _POINTS_PER_DECADE)) + 1, 16)
    ts = _geom(t_lo, t_hi, np.arange(float(n_t)))

    i, j, v_best = _coarse_argmin(*_decay_and_a(deph, probe, ts))
    t_best, th_best = ts[i], _THETAS[j]

    dlog = math.log10(ts[1] / ts[0])
    dth = _THETAS[1] - _THETAS[0]
    for _ in range(_REFINE_ROUNDS):
        lo = max(t_best * 10.0 ** (-2.0 * dlog), t_lo)
        hi = min(t_best * 10.0 ** (2.0 * dlog), t_hi)
        ts_r = _geom(lo, hi, _ZOOM_STEPS)
        th_r = _lin(th_best - 2.0 * dth, th_best + 2.0 * dth, _ZOOM_STEPS)
        np.minimum(np.maximum(th_r, 1e-9, out=th_r), math.pi - 1e-9, out=th_r)
        decay, a = _decay_and_a(deph, probe, ts_r)
        i, j, v = _argmin(_surface(decay, a, np.cos(th_r) ** 2))
        if v < v_best:
            t_best, th_best, v_best = ts_r[i], th_r[j], v
        dlog /= 10.0
        dth /= 10.0

    edge_tol = 10.0 ** (2.0 * dlog * 10.0)  # one final-round window
    at_low_edge = t_best / t_lo < edge_tol
    at_high_edge = t_hi / t_best < edge_tol
    if at_low_edge:
        raise GridTooCoarse("minimum sits at the lower time edge of the grid")
    if at_high_edge and t_hi != probe.total_time:
        raise GridTooCoarse("minimum sits at the upper time edge of the grid")
    result = Optimum(t_opt=float(t_best), delta_omega_sq=float(v_best),
                     boundary_limited=bool(at_high_edge))
    if with_theta:
        return result, float(th_best)
    return result


def reference_gamma(bath: BathSpec, t: float) -> float:
    """gamma(t), the bath integral itself: the family's closed form, halved
    for the Ohmic bath at T = 0, where (alpha/2) ln(1 + wc^2 t^2) is twice it."""
    t = _real("t", t, 0.0)
    spec, temp = bath.spectral, bath.temperature
    if isinstance(spec, GenericPowerLawDephasing):
        raise NoSpectralDensity("no bath integral for generic power-law dephasing")
    ohmic_t0 = (isinstance(temp, ZeroTemperature) and isinstance(spec, PowerLawExpCutoff)
                and spec.is_ohmic)
    return (0.5 if ohmic_t0 else 1.0) * float(spec.gamma(bath, t))


# --- seeded random scenarios ---------------------------------------------------

def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _powerlaw_with_root(rng):
    """Power-law bath drawn so the n = 1 stationarity condition has a root."""
    s = float(rng.uniform(0.6, 2.2))
    wc = _log_uniform(rng, 0.3, 3.0)
    probe_model = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, s, wc)))
    ts = np.geomspace(1e-3 / wc, 1e3 / wc, 400)
    peak = float(np.max(2.0 * ts * np.asarray(probe_model.dgamma_dt(ts))))
    alpha = float(rng.uniform(1.5, 4.0)) / peak
    return PowerLawExpCutoff(alpha, s, wc)


def scenario_draws(rng, trials):
    """Deterministic (model, probe) pairs cycling through the three spectral
    families; every draw admits a finite interior optimum. ``trials`` is a
    count >= 1."""
    out = []
    for k in range(_count("trials", trials)):
        fam = k % 3
        if fam == 0:
            spec = _powerlaw_with_root(rng)
        elif fam == 1:
            spec = Lorentzian(_log_uniform(rng, 0.3, 3.0),
                              _log_uniform(rng, 0.05, 2.0))
        else:
            spec = GenericPowerLawDephasing(_log_uniform(rng, 0.3, 3.0),
                                            float(rng.uniform(0.6, 2.5)))
        deph = DephasingModel(BathSpec(spec))
        n = int(rng.choice([1, 2, 3, 4, 6, 8, 12, 16]))
        strategy = "product" if k % 2 == 0 else "ghz"
        t_star = optimal_interrogation(deph, 1 if strategy == "product" else n)
        total_time = t_star * float(rng.uniform(3.0, 30.0))
        out.append((deph, ProbeSpec(n, total_time, strategy)))
    return out


def gamma_consistency_draws(rng, trials):
    """Deterministic (bath, t) pairs for cross-checking the quadrature route
    against :func:`reference_gamma`, spanning all temperature modes.
    ``trials`` is a count >= 1."""
    out = []
    for k in range(_count("trials", trials)):
        fam = k % 4
        if fam == 0:
            s = float(rng.uniform(0.5, 3.0))
            wc = _log_uniform(rng, 0.3, 3.0)
            bath = BathSpec(PowerLawExpCutoff(_log_uniform(rng, 0.3, 3.0), s, wc))
            w_fast = wc
        elif fam == 1:
            # s = 1/2 or s in [1, 3]: these draws are the inputs of the
            # benchmark's validate workload, so widening them to other
            # sub-Ohmic s changes the benchmark
            s = 0.5 if rng.uniform() < 0.25 else float(rng.uniform(1.0, 3.0))
            wc = _log_uniform(rng, 0.3, 3.0)
            bath = BathSpec(PowerLawExpCutoff(_log_uniform(rng, 0.3, 3.0), s, wc),
                            FiniteBeta(_log_uniform(rng, 0.2, 5.0)))
            w_fast = wc
        elif fam == 2:
            g = _log_uniform(rng, 0.1, 2.0)
            bath = BathSpec(Lorentzian(_log_uniform(rng, 0.3, 3.0), g))
            w_fast = g
        else:
            wc = _log_uniform(rng, 0.3, 3.0)
            bath = BathSpec(PowerLawExpCutoff(_log_uniform(rng, 0.3, 3.0), 1.0, wc),
                            HighTemperatureOhmic(_log_uniform(rng, 0.2, 5.0)))
            w_fast = wc
        t = _log_uniform(rng, 0.05, 20.0) / w_fast
        out.append((bath, t))
    return out
