"""Brute-force reference implementations.

These deliberately avoid the solvers they are meant to check: the optimum
search is a refined 2-D grid scan of the raw variance surface, and the
reference decoherence integral uses interval-doubling trapezoids with
Richardson extrapolation instead of adaptive Gauss panels. Slow but
independent; used by the test suite and the ``validate`` CLI command.
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
)
from .errors import DomainError, GridTooCoarse, NonConvergence
from .metrology import Optimum, ProbeSpec, optimal_interrogation

__all__ = [
    "brute_force_optimum",
    "reference_gamma",
    "scenario_draws",
    "gamma_consistency_draws",
]


# brute_force_optimum's grid (points per decade of t, fringe arguments theta,
# zoom rounds) and reference_gamma's Romberg tolerance and doubling budget
_POINTS_PER_DECADE, _PHI_POINTS, _REFINE_ROUNDS = 50, 181, 4
_REF_REL_TOL, _REF_MAX_DOUBLINGS = 1e-10, 30


def _variance_surface(deph: DephasingModel, probe: ProbeSpec, ts, thetas):
    """dw^2 on the (t, theta) product grid; theta is the fringe argument
    (phi t for product states, n phi t for GHZ).

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
    c2 = np.cos(thetas) ** 2
    num = 1.0 - c2[None, :] * decay[:, None]
    den = (shots * decay)[:, None] * (1.0 - c2)[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        return num / den


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
    if not t_hi > t_lo:
        raise DomainError("empty time grid after the total-time cap")

    decades = math.log10(t_hi / t_lo)
    n_t = max(int(round(decades * _POINTS_PER_DECADE)) + 1, 16)
    ts = np.geomspace(t_lo, t_hi, n_t)
    thetas = np.pi * np.arange(1, _PHI_POINTS + 1) / (_PHI_POINTS + 1)

    var = _variance_surface(deph, probe, ts, thetas)
    i, j = np.unravel_index(np.argmin(var), var.shape)
    t_best, th_best, v_best = ts[i], thetas[j], var[i, j]

    dlog = math.log10(ts[1] / ts[0])
    dth = thetas[1] - thetas[0]
    for _ in range(_REFINE_ROUNDS):
        lo = max(t_best * 10.0 ** (-2.0 * dlog), t_lo)
        hi = min(t_best * 10.0 ** (2.0 * dlog), t_hi)
        ts_r = np.geomspace(lo, hi, 41)
        th_r = np.clip(np.linspace(th_best - 2.0 * dth, th_best + 2.0 * dth, 41),
                       1e-9, math.pi - 1e-9)
        var = _variance_surface(deph, probe, ts_r, th_r)
        i, j = np.unravel_index(np.argmin(var), var.shape)
        if var[i, j] < v_best:
            t_best, th_best, v_best = ts_r[i], th_r[j], var[i, j]
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
    """gamma(t) by interval-doubling trapezoids with Richardson extrapolation.

    Shares the integrand, cutoff, and analytic tail pieces with the adaptive
    route but none of its quadrature machinery. Converges when successive
    Romberg diagonal entries agree to a relative 1e-10; raises
    :class:`NonConvergence` otherwise.
    """
    if t < 0.0:
        raise DomainError("t must be >= 0")
    if t == 0.0:
        return 0.0
    spec, temp = bath.spectral, bath.temperature
    f, x_max, _, tail_value, tail_err, limit0 = spec.quad_problem(temp, t, 1e-9)
    if not math.isfinite(limit0):
        raise DomainError("integrand endpoint diverges; model unsupported here")

    def eval_f(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        pos = x > 0.0
        out[pos] = np.asarray(f(x[pos]), dtype=float)
        out[~pos] = limit0
        return out

    # refine the cutoff once against the first converged magnitude
    n0 = 64
    for attempt in range(2):
        h = x_max / n0
        xs = np.linspace(0.0, x_max, n0 + 1)
        trap = h * (0.5 * eval_f(xs[0:1])[0] + eval_f(xs[1:-1]).sum()
                    + 0.5 * eval_f(xs[-1:])[0])
        rows = [[trap]]
        value = None
        for k in range(1, _REF_MAX_DOUBLINGS + 1):
            h *= 0.5
            n_now = n0 * 2 ** k
            mids = np.linspace(h, x_max - h, n_now // 2)
            trap = 0.5 * rows[-1][0] + h * eval_f(mids).sum()
            row = [trap]
            for m, prev in enumerate(rows[-1], start=1):
                row.append(row[-1] + (row[-1] - prev) / (4.0 ** m - 1.0))
            rows.append(row)
            best, prev_best = row[-1], rows[-2][-1]
            if k >= 3 and abs(best - prev_best) <= _REF_REL_TOL * max(abs(best), 1e-300):
                value = best
                break
            rows = rows[-2:]
        if value is None:
            raise NonConvergence(
                f"no convergence after {_REF_MAX_DOUBLINGS} interval doublings")
        total = value + tail_value
        goal = _REF_REL_TOL * abs(total)
        if tail_err <= goal or attempt == 1:
            return total
        f, x_max, _, tail_value, tail_err, limit0 = spec.quad_problem(
            temp, t, 0.25 * goal)
    return total


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
    """Deterministic (bath, t) pairs for cross-checking the two integration
    routes, spanning all temperature modes on grids both can resolve."""
    out = []
    for k in range(trials):
        fam = k % 4
        if fam == 0:
            s = float(rng.uniform(0.5, 3.0))
            wc = _log_uniform(rng, 0.3, 3.0)
            bath = BathSpec(PowerLawExpCutoff(_log_uniform(rng, 0.3, 3.0), s, wc))
            w_fast = wc
        elif fam == 1:
            # s = 1/2 exactly or s >= 1: endpoint stays polynomial under the
            # sqrt substitution, which the doubling reference needs
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
