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
surface takes two arrays of the grid's size. About 0.3 ms a call on the
draws of ``scenario_draws``, its gamma evaluations included (2-core host,
numpy 2.4).
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


def _variance_surface(deph: DephasingModel, probe: ProbeSpec, ts, c2):
    """dw^2 on the (t, theta) product grid, given cos^2 theta; theta is the
    fringe argument (phi t for product states, n phi t for GHZ).

    Deliberately a separate copy of the variance formula in ``metrology``:
    it is the independent reference that ``validate`` checks the optimizer
    against, so it must not share that code. Entries too large for a float
    are inf, the intended value.
    """
    gam = np.asarray(deph.gamma(ts), dtype=float)
    n = probe.n
    if probe.strategy == "product":
        decay = np.exp(-2.0 * gam)
        shots = n * probe.total_time * ts
    else:
        decay = np.exp(-2.0 * n * gam)
        shots = n * n * probe.total_time * ts
    # (1 - c2 decay) / ((shots decay) (1 - c2)) in two arrays of the grid's
    # size. The outer products are einsum's: it adds each product to a zero,
    # which moves no bit of a product >= 0, at about twice the speed of a
    # broadcast multiply
    num = np.einsum("i,j->ij", decay, c2)
    den = np.einsum("i,j->ij", shots * decay, 1.0 - c2)
    np.subtract(1.0, num, out=num)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(num, den, out=num)


def _argmin(var):
    """(row, column, value) of the first minimum of ``var``."""
    k = int(var.argmin())
    i, j = divmod(k, var.shape[1])
    return i, j, var[i, j]


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
    for name, value in (("t_min", t_min), ("t_max", t_max)):
        if value is not None and not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and > 0")
    t_ref = deph.time_scale()
    t_lo = t_min if t_min is not None else 1e-4 * t_ref
    t_hi = t_max if t_max is not None else 1e4 * t_ref
    t_hi = min(t_hi, probe.total_time)
    if not t_lo > 0.0:
        raise DomainError("empty time grid: 1e-4 of the model's time scale "
                          "underflows to 0")
    if not t_hi > t_lo:
        raise DomainError("empty time grid after the total-time cap")

    decades = math.log10(t_hi / t_lo)
    n_t = max(int(round(decades * _POINTS_PER_DECADE)) + 1, 16)
    ts = _geom(t_lo, t_hi, np.arange(float(n_t)))

    i, j, v_best = _argmin(_variance_surface(deph, probe, ts, _COS2))
    t_best, th_best = ts[i], _THETAS[j]

    dlog = math.log10(ts[1] / ts[0])
    dth = _THETAS[1] - _THETAS[0]
    for _ in range(_REFINE_ROUNDS):
        lo = max(t_best * 10.0 ** (-2.0 * dlog), t_lo)
        hi = min(t_best * 10.0 ** (2.0 * dlog), t_hi)
        ts_r = _geom(lo, hi, _ZOOM_STEPS)
        th_r = _lin(th_best - 2.0 * dth, th_best + 2.0 * dth, _ZOOM_STEPS)
        np.minimum(np.maximum(th_r, 1e-9, out=th_r), math.pi - 1e-9, out=th_r)
        i, j, v = _argmin(_variance_surface(deph, probe, ts_r, np.cos(th_r) ** 2))
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
    if not 0.0 <= t < math.inf:
        raise DomainError("t must be finite and >= 0")
    spec, temp = bath.spectral, bath.temperature
    if isinstance(spec, GenericPowerLawDephasing):
        raise NoSpectralDensity("no bath integral for generic power-law dephasing")
    ohmic_t0 = (isinstance(temp, ZeroTemperature) and isinstance(spec, PowerLawExpCutoff)
                and spec.is_ohmic)
    return (0.5 if ohmic_t0 else 1.0) * float(spec.gamma(temp, t))


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
    families; every draw admits a finite interior optimum."""
    out = []
    for k in range(trials):
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
    against :func:`reference_gamma`, spanning all temperature modes."""
    out = []
    for k in range(trials):
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
