"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload function turns a seed into a ``Workload``: a list of
operations, each a call into ``ramsey_bounds`` with the check its result must
pass, checks that span several results, and one CLI command with the check
of its output.
Library calls go through the package's module attributes at call time, so
the tracer's wrappers see them. Every expected value comes from
``reference.py`` or from a property the method must have, never from a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ramsey_bounds as rb
from ramsey_bounds import oracle

import reference as ref

# n values of every sweep: 16 points from 1 to 1000, about 2.5 per octave.
N_GRID = tuple(int(n) for n in np.unique(np.round(np.geomspace(1, 1000, 16))))

# Quadrature times in units of the bath's fast scale; longer times fail today
# (ToleranceNotMet beyond w_c t ~ 300 at T = 0).
QUAD_TIMES = np.geomspace(1e-2, 30.0, 12)
QUAD_S = (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
QUAD_BETA_WC = (5.0, 1.0, 0.5)  # falling beta, so gamma must rise along it

VALIDATE_TRIALS = 400  # draws of each of the three kinds per round

STATIONARY_TOL = 1e-8   # |2 m t gamma' - 1| at a returned optimum
LOCAL_MIN_STEP = 1e-3   # relative step of the local-minimum test
CLOSED_FORM_TOL = 1e-8  # relative agreement with closed-form references
# The quadrature's default tolerance, fixed here so that a looser default in
# the package cannot loosen the checks with it.
QUAD_REL_TOL = 1e-9
QUAD_ABS_TOL = 1e-14


@dataclass
class Op:
    fn: Callable
    args: tuple
    check: Callable  # result -> list of error strings


@dataclass
class Workload:
    ops: list
    cli_argv: list
    cli_check: Callable  # (returncode, stdout) -> list of error strings
    cross_checks: list = field(default_factory=list)  # results -> errors


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _rel(a, b):
    return abs(a - b) / abs(b)


def _close(label, got, want, tol):
    if not _rel(got, want) <= tol:
        return [f"{label}: got {got!r}, want {want!r} (tol {tol:g})"]
    return []


# --- library calls, resolved at call time ------------------------------------

def _ratio(deph, n):
    return rb.ratio_r(deph, n)


def _resolution(deph, probe):
    return rb.optimal_resolution(deph, probe)


def _gamma_quad(bath, t):
    return rb.gamma_quadrature(bath, t)


def _dgamma(deph, t):
    return deph.dgamma_dt(t)


def _scenario(deph, probe):
    return rb.optimal_resolution(deph, probe), rb.brute_force_optimum(deph, probe)


def _gamma_pair(bath, t):
    return rb.reference_gamma(bath, t), rb.gamma_quadrature(bath, t)[0]


# --- optimum checks against the benchmark's own gamma --------------------------

def _time_scale(spec):
    kind = type(spec).__name__
    if kind == "GenericPowerLawDephasing":
        return ref.power_law_optimum(spec.alpha, spec.nu, 1)
    if kind == "Lorentzian":
        return 1.0 / spec.g
    return 1.0 / spec.omega_c


def _log_var(bath, n, m, t):
    return ref.log_variance(ref.decoherence(bath, t)[0], n, m, 1.0, t)


def _stationary_min(bath, n, m, t, label):
    """t solves 2 m t gamma'(t) = 1 and is a local minimum of the variance."""
    _, dg = ref.decoherence(bath, t)
    resid = 2.0 * m * t * float(dg) - 1.0
    errors = []
    if not abs(resid) <= STATIONARY_TOL:
        errors.append(f"{label}: 2 m t gamma' - 1 = {resid:g} at t={t!r}")
    lv = _log_var(bath, n, m, np.array([t * (1 - LOCAL_MIN_STEP), t,
                                        t * (1 + LOCAL_MIN_STEP)]))
    if not (lv[1] < lv[0] and lv[1] < lv[2]):
        errors.append(f"{label}: t={t!r} is not a local variance minimum")
    return errors


def _check_resolution(deph, probe):
    bath, n, T = deph.bath, probe.n, probe.total_time
    m = 1 if probe.strategy == "product" else n
    label = f"optimal_resolution({bath}, n={n}, {probe.strategy}, T={T!r})"

    def check(res):
        errors = []
        if not 0.0 < res.t_opt <= T:
            return [f"{label}: t_opt={res.t_opt!r} outside (0, T]"]
        want = float(ref.log_variance(ref.decoherence(bath, res.t_opt)[0],
                                      n, m, T, res.t_opt))
        errors += _close(label + " ln dw^2", math.log(res.delta_omega_sq), want, 1e-9)
        grid = T * np.geomspace(1e-9, 1.0, 4000)
        floor = float(np.min(ref.log_variance(ref.decoherence(bath, grid)[0],
                                              n, m, T, grid)))
        if not want <= floor + 1e-9:
            errors.append(f"{label}: variance above the grid minimum on (0, T]")
        if res.boundary_limited:
            if res.t_opt != T:
                errors.append(f"{label}: boundary-limited but t_opt != T")
        else:
            errors += _stationary_min(bath, n, m, res.t_opt, label)
        if not res.finite:
            if not res.boundary_limited:
                errors.append(f"{label}: no finite optimum but not at the boundary")
            ts = _time_scale(bath.spectral) * np.geomspace(1e-8, 1e8, 40001)
            peak = float(np.max(2.0 * m * ts * ref.decoherence(bath, ts)[1]))
            if not peak < 1.0:
                errors.append(f"{label}: reported no finite optimum, but "
                              f"max 2 m t gamma' = {peak!r}")
        return errors
    return check


def _check_ratio(deph, n, family):
    bath, spec = deph.bath, deph.bath.spectral
    label = f"ratio_r({bath}, n={n})"

    def check(res):
        errors = []
        if not res.r <= math.sqrt(n) * (1.0 + 1e-12):
            errors.append(f"{label}: r={res.r!r} above sqrt(n)")
        if family == "ohmic":
            t_u, t_e = ref.ohmic_times(spec.alpha, spec.omega_c, n)
            errors += _close(label + " t_u", res.t_u, t_u, CLOSED_FORM_TOL)
            errors += _close(label + " t_e", res.t_e, t_e, CLOSED_FORM_TOL)
            errors += _close(label + " r", res.r, ref.ohmic_ratio(spec.alpha, n),
                             CLOSED_FORM_TOL)
        elif family == "power-law":
            nu = spec.nu
            errors += _close(label + " r", res.r, n ** ((nu - 1.0) / (2.0 * nu)),
                             CLOSED_FORM_TOL)
            errors += _close(label + " t_u/t_e", res.t_u / res.t_e, n ** (1.0 / nu),
                             CLOSED_FORM_TOL)
            errors += _close(label + " t_u", res.t_u,
                             ref.power_law_optimum(spec.alpha, nu, 1), CLOSED_FORM_TOL)
        else:
            errors += _stationary_min(bath, n, 1, res.t_u, label + " t_u")
            errors += _stationary_min(bath, n, n, res.t_e, label + " t_e")
            g_u, g_e = ref.decoherence(bath, res.t_u)[0], ref.decoherence(bath, res.t_e)[0]
            r2 = n * (res.t_e / res.t_u) * math.exp(2.0 * g_u - 2.0 * n * g_e)
            errors += _close(label + " r", res.r, math.sqrt(r2), CLOSED_FORM_TOL)
        return errors
    return check


# --- sweep-closed ---------------------------------------------------------------

def _powerlaw_peak(s):
    """max over t of 2 t gamma'(t) for alpha = wc = 1, from the reference."""
    x = np.geomspace(1e-3, 1e3, 20001)
    return float(np.max(2.0 * x * ref.powerlaw_zero(1.0, s, 1.0, x)[1]))


def _closed(spec, temp=None):
    bath = rb.BathSpec(spec) if temp is None else rb.BathSpec(spec, temp)
    return rb.DephasingModel(bath)


def sweep_closed(seed):
    """n-sweeps of ratio_r and optimal_resolution on the closed-form route."""
    rng = np.random.default_rng(seed)
    u = rng.uniform
    cases = []  # (model, total time, ratio family or None)

    wc = _log_uniform(rng, 0.3, 3.0)
    cases.append((_closed(rb.PowerLawExpCutoff(u(0.8, 3.0), 1.0, wc)), 30.0 / wc, "ohmic"))
    wc = _log_uniform(rng, 0.3, 3.0)
    cases.append((_closed(rb.PowerLawExpCutoff(u(0.5, 3.0), u(0.4, 0.8), wc)),
                  30.0 / wc, "generic"))
    # saturating super-Ohmic baths: a coupling above the product threshold,
    # with a long budget so the product optimum is boundary-limited ...
    s, wc = u(1.8, 2.4), _log_uniform(rng, 0.3, 3.0)
    cases.append((_closed(rb.PowerLawExpCutoff(u(2.0, 5.0) / _powerlaw_peak(s), s, wc)),
                  1e3 / wc, "generic"))
    # ... and one below it, where product probes have no finite optimum
    wc = _log_uniform(rng, 0.3, 3.0)
    cases.append((_closed(rb.PowerLawExpCutoff(u(0.3, 0.8) / _powerlaw_peak(3.0), 3.0, wc)),
                  10.0 / wc, None))
    wc = _log_uniform(rng, 0.3, 3.0)
    cases.append((_closed(rb.PowerLawExpCutoff(u(0.5, 3.0), 1.0, wc),
                          rb.HighTemperatureOhmic(_log_uniform(rng, 0.5, 5.0) / wc)),
                  30.0 / wc, "generic"))
    a, g = _log_uniform(rng, 0.3, 3.0), _log_uniform(rng, 0.1, 2.0)
    cases.append((_closed(rb.Lorentzian(a, g)),
                  30.0 * (math.sqrt(2.0 / a) + 4.0 * g / a), "generic"))
    for nu in (1.0, u(0.5, 0.9), u(1.2, 2.5)):
        alpha = _log_uniform(rng, 0.3, 3.0)
        cases.append((_closed(rb.GenericPowerLawDephasing(alpha, nu)),
                       30.0 * ref.power_law_optimum(alpha, nu, 1), "power-law"))

    ops = []
    for deph, total_time, family in cases:
        for n in N_GRID:
            if family is not None:
                ops.append(Op(_ratio, (deph, n), _check_ratio(deph, n, family)))
            for strategy in ("product", "ghz"):
                probe = rb.ProbeSpec(n, total_time, strategy)
                ops.append(Op(_resolution, (deph, probe), _check_resolution(deph, probe)))

    alpha, wc = u(0.8, 3.0), _log_uniform(rng, 0.3, 3.0)
    argv = ["ratio", "--model", "ohmic", "--alpha", repr(alpha), "--omega-c", repr(wc),
            "--n-grid", "1:2000:2000"]

    def cli_check(code, out):
        rows = _csv_rows(out)
        errors = [] if code == 0 else [f"ratio exited {code}"]
        if [int(float(r["n"])) for r in rows] != list(range(1, 2001)):
            return errors + ["ratio: rows are not n = 1..2000"]
        for row in rows:
            n = int(row["n"])
            t_u, t_e = ref.ohmic_times(alpha, wc, n)
            errors += _close(f"cli ratio n={n} r", float(row["r"]),
                             ref.ohmic_ratio(alpha, n), CLOSED_FORM_TOL)
            errors += _close(f"cli ratio n={n} t_u", float(row["t_u"]), t_u, CLOSED_FORM_TOL)
            errors += _close(f"cli ratio n={n} t_e", float(row["t_e"]), t_e, CLOSED_FORM_TOL)
            if not float(row["r"]) <= math.sqrt(n) * (1.0 + 1e-12) or row["status"] != "ok":
                errors.append(f"cli ratio n={n}: {row}")
        return errors

    return Workload(ops, argv, cli_check)


# --- quad-gamma -------------------------------------------------------------------

def _quad_tol(value):
    return max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value))


def _check_gamma_quad(bath, t):
    label = f"gamma_quadrature({bath}, t={t!r})"

    def check(res):
        value, err = res
        want = float(ref.decoherence(bath, t, closed_form=False)[0])
        errors = []
        if not err <= _quad_tol(value):
            errors.append(f"{label}: error estimate {err!r} above the tolerance")
        if not abs(value - want) <= _quad_tol(want) + 1e-12 * abs(want):
            errors.append(f"{label}: {value!r} against reference {want!r}")
        return errors
    return check


def _dgamma_bound(bath, t):
    """Reference dgamma/dt and the error the central difference of two
    quadratures may carry: their tolerances over the step, plus rounding."""
    h = max(1e-6 * t, 1e-12)
    lo = max(t - h, 0.0)
    g_hi = float(ref.decoherence(bath, t + h, closed_form=False)[0])
    g_lo = float(ref.decoherence(bath, lo, closed_form=False)[0])
    want = float(ref.decoherence(bath, t, closed_form=False)[1])
    return want, (_quad_tol(g_hi) + _quad_tol(g_lo)) / (t + h - lo) + 1e-9 * abs(want)


def _check_dgamma_quad(bath, t):
    label = f"Quadrature dgamma_dt({bath}, t={t!r})"

    def check(res):
        want, bound = _dgamma_bound(bath, t)
        if not abs(res - want) <= bound:
            return [f"{label}: {res!r} against reference {want!r} (bound {bound:g})"]
        return []
    return check


def quad_gamma(seed):
    """gamma and dgamma/dt on the quadrature route over log time grids."""
    rng = np.random.default_rng(seed)
    ops, ladders = [], []

    def add_bath(bath, w_fast):
        model = rb.DephasingModel(bath, rb.Quadrature())
        start = len(ops)
        for t in QUAD_TIMES / w_fast:
            t = float(t)
            ops.append(Op(_gamma_quad, (bath, t), _check_gamma_quad(bath, t)))
            ops.append(Op(_dgamma, (model, t), _check_dgamma_quad(bath, t)))
        return start

    for s in QUAD_S:
        if s != 1.0:
            s *= rng.uniform(0.97, 1.03)
        alpha, wc = _log_uniform(rng, 0.3, 3.0), _log_uniform(rng, 0.3, 3.0)
        spec = rb.PowerLawExpCutoff(alpha, s, wc)
        starts = [add_bath(rb.BathSpec(spec), wc)]
        for b in QUAD_BETA_WC:
            starts.append(add_bath(rb.BathSpec(spec, rb.FiniteBeta(b / wc)), wc))
        ladders.append((spec, starts))
    wc = _log_uniform(rng, 0.3, 3.0)
    add_bath(rb.BathSpec(rb.PowerLawExpCutoff(_log_uniform(rng, 0.3, 3.0), 1.0, wc),
                         rb.HighTemperatureOhmic(_log_uniform(rng, 0.2, 5.0) / wc)), wc)
    g = _log_uniform(rng, 0.1, 2.0)
    add_bath(rb.BathSpec(rb.Lorentzian(_log_uniform(rng, 0.3, 3.0), g)), g)

    def thermal_order(results):
        """gamma_0 < gamma_beta, and gamma_beta rises as beta falls."""
        errors = []
        for spec, starts in ladders:
            for i in range(len(QUAD_TIMES)):
                values = [results[start + 2 * i][0] for start in starts]
                if not all(a < b for a, b in zip(values, values[1:])):
                    errors.append(f"{spec} t index {i}: gamma over T=0 and "
                                  f"beta*wc={QUAD_BETA_WC} is not increasing: {values}")
        return errors

    alpha, wc = _log_uniform(rng, 0.3, 3.0), _log_uniform(rng, 0.3, 3.0)
    bath = rb.BathSpec(rb.PowerLawExpCutoff(alpha, 0.5, wc), rb.FiniteBeta(1.0 / wc))
    argv = ["gamma", "--model", "powerlaw", "--alpha", repr(alpha), "--s", "0.5",
            "--omega-c", repr(wc), "--temp", f"beta={1.0 / wc!r}", "--route", "quad",
            "--t-grid", f"{0.01 / wc!r}:{30.0 / wc!r}:200:log"]

    def cli_check(code, out):
        rows = _csv_rows(out)
        errors = [] if code == 0 else [f"gamma exited {code}"]
        if len(rows) != 200:
            return errors + [f"gamma printed {len(rows)} rows, want 200"]
        for row in rows:
            t = float(row["t"])
            want = float(ref.decoherence(bath, t)[0])
            if not abs(float(row["gamma"]) - want) <= _quad_tol(want) + 1e-12 * want:
                errors.append(f"cli gamma t={t!r}: {row['gamma']} against {want!r}")
            d_want, bound = _dgamma_bound(bath, t)
            if not abs(float(row["dgamma_dt"]) - d_want) <= bound:
                errors.append(f"cli dgamma t={t!r}: {row['dgamma_dt']} against {d_want!r}")
        return errors

    return Workload(ops, argv, cli_check, [thermal_order])


# --- validate ------------------------------------------------------------------------

def _check_scenario(deph, probe):
    spec = deph.bath.spectral
    label = f"scenario {spec} n={probe.n} {probe.strategy}"

    def check(res):
        ana, ora = res
        errors = _close(label + " oracle t_opt", ora.t_opt, ana.t_opt, 1e-4)
        errors += _close(label + " oracle dw^2", ora.delta_omega_sq, ana.delta_omega_sq, 1e-4)
        if type(spec).__name__ == "GenericPowerLawDephasing":
            m = 1 if probe.strategy == "product" else probe.n
            t_ref = ref.power_law_optimum(spec.alpha, spec.nu, m)
            errors += _close(label + " optimizer t_opt", ana.t_opt, t_ref, CLOSED_FORM_TOL)
            errors += _close(label + " oracle t_opt vs formula", ora.t_opt, t_ref, 1e-4)
        return errors
    return check


def _check_gamma_pair(bath, t):
    def check(res):
        return _close(f"gamma {bath} t={t!r} quadrature vs oracle", res[1], res[0], 1e-8)
    return check


def _check_markov(n):
    def check(res):
        if not abs(res.r - 1.0) <= 1e-6:
            return [f"Markovian ratio_r n={n}: r={res.r!r}, want 1"]
        return []
    return check


def validate(seed):
    """The draws of the ``validate`` command, called through the library."""
    rng = np.random.default_rng(seed)
    ops = [Op(_scenario, (deph, probe), _check_scenario(deph, probe))
           for deph, probe in oracle.scenario_draws(rng, VALIDATE_TRIALS)]
    ops += [Op(_gamma_pair, (bath, t), _check_gamma_pair(bath, t))
            for bath, t in oracle.gamma_consistency_draws(rng, VALIDATE_TRIALS)]
    for _ in range(VALIDATE_TRIALS):
        g0 = 10.0 ** rng.uniform(-1.0, 1.0)
        n = int(rng.choice([2, 10, 100]))
        deph = _closed(rb.GenericPowerLawDephasing(g0, 1.0))
        ops.append(Op(_ratio, (deph, n), _check_markov(n)))

    # the command as users run it, on its default seed
    argv = ["validate", "--trials", "200"]

    def cli_check(code, out):
        lines = out.splitlines()
        errors = [] if code == 0 else [f"validate exited {code}"]
        if len(lines) != 4 or lines[-1] != "overall status=ok":
            errors.append(f"validate printed {lines!r}")
        errors += [f"validate: {line}" for line in lines if "status=ok" not in line]
        return errors

    return Workload(ops, argv, cli_check)


def _csv_rows(text):
    lines = text.splitlines()
    if not lines:
        return []
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


WORKLOADS = {"sweep-closed": sweep_closed, "quad-gamma": quad_gamma, "validate": validate}
