import math
import warnings

import numpy as np
import pytest

from ramsey_bounds import metrology
from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    dgamma_dt,
    gamma_closed,
    spectral_density,
)
from ramsey_bounds.errors import DegenerateSignal, DomainError, NoFiniteOptimum
from ramsey_bounds.metrology import (
    ProbeSpec,
    fisher_information,
    frequency_variance,
    high_temp_entangled_time,
    lorentzian_newton_refined,
    lorentzian_newton_time,
    lorentzian_regime_ratio,
    ohmic_exact_ratio,
    optimal_interrogation,
    optimal_resolution,
    power_law_scaling,
    ramsey_probability,
    ratio_r,
    zeno_diagnostic,
)
from ramsey_bounds.numerics import QuadratureSettings


def ohmic(alpha=1.0, omega_c=1.0):
    return DephasingModel(BathSpec(PowerLawExpCutoff(alpha, 1.0, omega_c)))


def markov(gamma0=1.0):
    return DephasingModel(BathSpec(GenericPowerLawDephasing(gamma0, 1.0)))


def generic(alpha, nu):
    return DephasingModel(BathSpec(GenericPowerLawDephasing(alpha, nu)))


def s3_near_threshold(offset):
    """s = 3, wc = 1, T = 0 bath coupled (1 + offset) times its product
    threshold: 2 t gamma'(t) = 2 alpha sin(u) cos(u)^2 sin(3u), u = arctan(t)."""
    u = np.linspace(0.0, math.pi / 2.0, 200001)
    peak = float(np.max(2.0 * np.sin(u) * np.cos(u) ** 2 * np.sin(3.0 * u)))
    return DephasingModel(BathSpec(PowerLawExpCutoff((1.0 + offset) / peak, 3.0, 1.0)))


# --- signal and information -----------------------------------------------------

def test_ramsey_probability_points():
    assert ramsey_probability(0.0, 1.0, 0.0) == pytest.approx(1.0)
    assert ramsey_probability(math.pi / 2.0, 1.0, 3.7) == pytest.approx(0.5)
    assert ramsey_probability(0.0, 1.0, math.log(2.0)) == pytest.approx(0.75)


def test_fisher_information_values():
    assert fisher_information(math.pi / 2.0, 1.0, 0.0) == pytest.approx(1.0)
    # at the pi/2 operating point F = t^2 e^(-2 gamma)
    assert fisher_information(math.pi / 4.0, 2.0, math.log(2.0)) == pytest.approx(1.0)


def test_fisher_information_degenerate():
    with pytest.raises(DegenerateSignal):
        fisher_information(0.0, 1.0, 0.0)


def test_variance_identity_with_fisher():
    # dw^2 = 1/(N F) with N = (T/t) n, checked on scattered points
    rng = np.random.default_rng(3)
    deph = ohmic(1.0)
    for _ in range(25):
        t = float(rng.uniform(0.2, 3.0))
        phi = float(rng.uniform(0.1, 2.5))
        n = int(rng.integers(1, 9))
        T = t * float(rng.uniform(1.0, 10.0))
        gam = deph.gamma(t)
        direct = frequency_variance(phi, t, ProbeSpec(n, T, "product"), deph)
        via_fisher = 1.0 / ((T / t) * n * fisher_information(phi, t, gam))
        assert direct == pytest.approx(via_fisher, rel=1e-12)


def test_variance_reductions():
    deph = markov(1e-9)  # essentially noiseless
    v = frequency_variance(math.pi / 2.0, 1.0, ProbeSpec(1, 1.0, "product"), deph)
    assert v == pytest.approx(1.0, rel=1e-6)
    # at the phi t = pi/2 operating point: dw^2 = e^(2 gamma)/(n T t)
    deph = ohmic(1.0)
    t, n, T = 0.8, 5, 4.0
    v = frequency_variance(math.pi / (2.0 * t), t, ProbeSpec(n, T, "product"), deph)
    assert v == pytest.approx(math.exp(2.0 * deph.gamma(t)) / (n * T * t),
                              rel=1e-12)
    # n = 1 strategies coincide for any inputs
    deph = ohmic(1.0)
    for phi in (0.3, 1.1):
        a = frequency_variance(phi, 0.7, ProbeSpec(1, 2.0, "product"), deph)
        b = frequency_variance(phi, 0.7, ProbeSpec(1, 2.0, "ghz"), deph)
        assert a == pytest.approx(b, rel=1e-14)


def test_variance_domain_checks():
    deph = ohmic(1.0)
    with pytest.raises(DomainError):
        frequency_variance(1.0, 0.0, ProbeSpec(1, 1.0), deph)
    with pytest.raises(DomainError):
        frequency_variance(1.0, 2.0, ProbeSpec(1, 1.0), deph)


@pytest.mark.parametrize("fn,args", [
    (gamma_closed, (ohmic(), math.nan)),
    (gamma_closed, (ohmic(), math.inf)),
    (gamma_closed, (ohmic(), np.array([[0.5], [math.nan]]))),
    (dgamma_dt, (ohmic(), math.inf)),
    (dgamma_dt, (ohmic(), np.array([0.5, -math.inf]))),
    (dgamma_dt, (generic(1.0, 0.5), math.nan)),
    (frequency_variance, (math.nan, 0.5, ProbeSpec(1, 1.0), ohmic())),
    (frequency_variance, (math.inf, 0.5, ProbeSpec(1, 1.0), ohmic())),
    (frequency_variance, (1.0, math.nan, ProbeSpec(1, 1.0), ohmic())),
    (frequency_variance, (1.0, math.inf, ProbeSpec(1, 1.0), ohmic())),
    (spectral_density, (PowerLawExpCutoff(1.0, 1.0, 1.0), math.nan)),
    (spectral_density, (PowerLawExpCutoff(1.0, 1.0, 1.0), math.inf)),
    (spectral_density, (Lorentzian(1.0, 1.0), np.array([0.5, math.nan]))),
], ids=["gamma-nan", "gamma-inf", "gamma-2d-nan", "dgamma-inf", "dgamma-neg-inf",
        "dgamma-generic-nan", "variance-phi-nan", "variance-phi-inf",
        "variance-t-nan", "variance-t-inf", "density-nan", "density-inf",
        "density-array-nan"])
def test_nonfinite_time_and_phase_rejected(fn, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            fn(*args)


@pytest.mark.parametrize("fn,args", [
    (ProbeSpec, (math.nan, 1.0)),
    (ProbeSpec, (2.5, 1.0)),
    (ProbeSpec, (True, 1.0)),
    (ohmic_exact_ratio, (math.nan, 2)),
    (ohmic_exact_ratio, (2.0, math.inf)),
    (power_law_scaling, (math.nan, 2)),
    (lorentzian_newton_time, (math.nan, 1.0)),
    (lorentzian_newton_refined, (1.0, math.inf)),
    (zeno_diagnostic, (ohmic(), 4, math.nan)),
    (fisher_information, (math.nan, 1.0, 0.1)),
    (QuadratureSettings, (math.nan,)),
], ids=["probe-n-nan", "probe-n-2.5", "probe-n-bool", "ohmic-alpha-nan", "ohmic-n-inf",
        "scaling-nu-nan", "newton-a-nan", "refined-g-inf", "zeno-omega-nan",
        "fisher-phi-nan", "quad-rel-tol-nan"])
def test_nonfinite_parameter_or_count_rejected(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_variance_overflow_is_inf():
    # e^(2 gamma) overflows at T: the variance there is inf, silently
    deph = markov(1e3)
    probe = ProbeSpec(1, 10.0, "product")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frequency_variance(math.pi / 20.0, 10.0, probe, deph) == math.inf
        res = optimal_resolution(deph, probe)
    assert res.t_opt == pytest.approx(5e-4, rel=1e-10)
    assert not res.boundary_limited


def test_fisher_peak_at_half_pi():
    # best operating point phi t = pi/2: grid check over the fringe argument
    deph = ohmic(1.0)
    t = 1.3
    gam = deph.gamma(t)
    args = np.linspace(0.05, math.pi - 0.05, 301)
    vals = [fisher_information(a / t, t, gam) for a in args]
    assert abs(args[int(np.argmax(vals))] - math.pi / 2.0) < 0.02


# --- optimal interrogation times ---------------------------------------------------

def test_markov_times():
    assert optimal_interrogation(markov(1.0), 1) == pytest.approx(0.5, rel=1e-10)
    assert optimal_interrogation(markov(1.0), 8) == pytest.approx(0.0625, rel=1e-10)


def test_ohmic_times():
    assert optimal_interrogation(ohmic(1.0), 1) == pytest.approx(1.0, rel=1e-10)
    assert optimal_interrogation(ohmic(1.0), 2) == pytest.approx(
        1.0 / math.sqrt(3.0), rel=1e-10)


def test_ohmic_below_threshold():
    with pytest.raises(NoFiniteOptimum):
        optimal_interrogation(ohmic(0.4), 1)


def test_ohmic_general_time_formula():
    # t = 1/(wc sqrt(2 m alpha - 1)) from the logarithmic closed form
    for (alpha, wc, m) in [(0.8, 2.0, 1), (1.5, 0.5, 3), (0.6, 1.0, 5)]:
        got = optimal_interrogation(ohmic(alpha, wc), m)
        assert got == pytest.approx(1.0 / (wc * math.sqrt(2.0 * m * alpha - 1.0)),
                                    rel=1e-10)


def test_rescue_search_finds_narrow_window():
    # couple the bath 1e-5 above and below its threshold
    above, below = s3_near_threshold(1e-5), s3_near_threshold(-1e-5)
    # the optimizer's log-spaced scan never crosses the narrow positive window
    decades = metrology._SCAN_DECADES
    t_ref = above.bath.spectral.time_scale(1)
    ts = np.geomspace(t_ref * 10.0 ** -decades, t_ref * 10.0 ** decades,
                      2 * decades * metrology._SCAN_PER_DECADE + 1)
    hv = 2.0 * ts * above.dgamma_dt(ts) - 1.0
    assert ts.size == 601
    assert not np.any((hv[:-1] < 0.0) & (hv[1:] >= 0.0))
    # so only the ternary refinement of the hump can find the root
    t = optimal_interrogation(above, 1)
    assert abs(2.0 * t * above.dgamma_dt(t) - 1.0) <= 1e-10
    assert t == pytest.approx(0.62647, abs=1e-5)
    with pytest.raises(NoFiniteOptimum):
        optimal_interrogation(below, 1)


def test_optimal_resolution_values():
    res = optimal_resolution(ohmic(1.0), ProbeSpec(1, 1.0, "product"))
    assert res.t_opt == pytest.approx(1.0, rel=1e-10)
    assert res.delta_omega_sq == pytest.approx(2.0, rel=1e-10)
    assert res.finite and not res.boundary_limited

    res = optimal_resolution(ohmic(1.0), ProbeSpec(2, 1.0, "ghz"))
    assert res.t_opt == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-10)
    assert res.delta_omega_sq == pytest.approx(4.0 * math.sqrt(3.0) / 9.0, rel=1e-10)


def test_markov_resolution_bound():
    # t_u = 1/(2 gamma0) gives dw^2 = 2 gamma0 e / (n T)
    for gamma0 in (0.2, 1.0, 5.0):
        res = optimal_resolution(markov(gamma0), ProbeSpec(4, 3.0, "product"))
        assert res.delta_omega_sq == pytest.approx(
            2.0 * gamma0 * math.e / 12.0, rel=1e-10)


def test_boundary_clamp_below_threshold():
    res = optimal_resolution(ohmic(0.4), ProbeSpec(1, 2.0, "product"))
    assert res.boundary_limited and not res.finite
    assert res.t_opt == 2.0


def test_boundary_wins_for_saturating_decoherence():
    # s = 3 decoherence saturates, so a huge time budget beats the interior
    # stationary point; both are reported consistently
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(2.0, 3.0, 1.0)))
    t_star = optimal_interrogation(deph, 1)
    short = optimal_resolution(deph, ProbeSpec(1, 3.0 * t_star, "product"))
    assert not short.boundary_limited
    assert short.t_opt == pytest.approx(t_star, rel=1e-10)
    long = optimal_resolution(deph, ProbeSpec(1, 1e6 * t_star, "product"))
    assert long.boundary_limited and long.finite
    assert long.t_opt == 1e6 * t_star
    assert long.delta_omega_sq < short.delta_omega_sq


# --- the ratio r ---------------------------------------------------------------------

def test_markov_ratio_is_one():
    for n in (2, 10, 100, 1000):
        res = ratio_r(markov(0.7), n)
        assert res.r == pytest.approx(1.0, abs=1e-10)
        assert res.t_u / res.t_e == pytest.approx(n, rel=1e-9)


def test_static_bath_ratio():
    res = ratio_r(generic(0.9, 2.0), 16)
    assert res.r == pytest.approx(2.0, rel=1e-10)
    assert res.t_u / res.t_e == pytest.approx(4.0, rel=1e-9)
    assert res.exponential_factor == pytest.approx(1.0, abs=1e-10)


def test_ohmic_ratio_spot_value():
    res = ratio_r(ohmic(1.0), 2)
    assert res.r == pytest.approx(1.13975, abs=1e-5)
    assert res.r == pytest.approx(ohmic_exact_ratio(1.0, 2), rel=1e-10)


def test_powerlaw_family_t_ordering():
    for deph in (ohmic(1.0), generic(1.0, 2.0), generic(0.8, 0.7),
                 DephasingModel(BathSpec(Lorentzian(2.0, 0.3)))):
        for n in (2, 10, 100):
            res = ratio_r(deph, n)
            assert res.t_e < res.t_u
            assert res.r <= math.sqrt(n) * (1.0 + 1e-9)


SWEEP_MODELS = {
    "ohmic": ohmic(1.0, 1.3),
    "ohmic-below-threshold": ohmic(0.4),
    "sub-ohmic": DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0))),
    "s2": DephasingModel(BathSpec(PowerLawExpCutoff(2.0, 2.0, 1.3))),
    "s3-below-threshold": s3_near_threshold(-1e-5),
    "high-T": DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0),
                                      HighTemperatureOhmic(2.0))),
    "lorentzian": DephasingModel(BathSpec(Lorentzian(1.0, 0.5))),
    "lorentzian-static": DephasingModel(BathSpec(Lorentzian(2.0, 0.0))),
    "nu0.6": generic(0.7, 0.6),
    "nu1.5": generic(1.0, 1.5),
}


@pytest.mark.parametrize("deph", SWEEP_MODELS.values(), ids=SWEEP_MODELS.keys())
def test_array_ratio_matches_per_n_bitwise(deph):
    # 150 rows span three scan blocks; every row must carry the bits of the
    # one-n-at-a-time formula and of a scalar call
    ns = np.arange(1, 151)
    res = ratio_r(deph, ns)
    assert res.r.shape == res.t_u.shape == res.t_e.shape == ns.shape
    for j, n in enumerate(ns.tolist()):
        row = (res.r[j], res.t_u[j], res.t_e[j], res.exponential_factor[j])
        try:
            t_u = optimal_interrogation(deph, 1)
            t_e = optimal_interrogation(deph, n) if n > 1 else t_u
        except NoFiniteOptimum:
            assert np.isnan(row).all()
            with pytest.raises(NoFiniteOptimum):
                ratio_r(deph, n)
            continue
        factor = math.exp(2.0 * deph.gamma(t_u) - 2.0 * n * deph.gamma(t_e))
        r = math.sqrt(n * (t_e / t_u) * factor)
        assert row == (r, t_u, t_e, factor)
        one = ratio_r(deph, n)
        assert (one.r, one.t_u, one.t_e, one.exponential_factor) == row


def test_scan_grid_is_geomspace():
    rng = np.random.default_rng(5)
    lo = 10.0 ** rng.uniform(-30.0, 5.0, 300)
    hi = lo * 10.0 ** rng.uniform(0.5, 30.0, 300)
    assert np.array_equal(metrology._log_grid(lo, hi, 601),
                          np.geomspace(lo, hi, 601, axis=-1))


def test_sweep_solves_product_root_once(monkeypatch):
    brackets = []
    solve = metrology.solve_bracketed_root

    def counted(g, bracket):
        brackets.append(bracket)
        return solve(g, bracket)

    monkeypatch.setattr(metrology, "solve_bracketed_root", counted)
    # Ohmic alpha = 1: t_u = 1 and t_e = 1/sqrt(2n - 1) < 0.6 for n >= 2
    res = ratio_r(ohmic(1.0), np.arange(2, 52))
    assert np.allclose(res.t_u, 1.0, rtol=1e-12, atol=0.0)
    assert len(brackets) == 51
    assert sum(lo <= 1.0 <= hi for lo, hi in brackets) == 1


def test_sweep_runs_rescue_search_once(monkeypatch):
    calls = []
    rescue = metrology._rescue_search

    def counted(*args):
        calls.append(args)
        return rescue(*args)

    monkeypatch.setattr(metrology, "_rescue_search", counted)
    res = ratio_r(s3_near_threshold(-1e-5), np.arange(1, 51))
    assert np.isnan(res.r).all() and np.isnan(res.t_u).all()
    assert len(calls) == 1


def test_sweep_argument_checks():
    deph = ohmic(1.0)
    for n in (2.0, np.array([[2, 3]]), np.array([0, 3]), True):
        with pytest.raises(DomainError):
            ratio_r(deph, n)
    for m in (0.5, math.nan, math.inf, np.array([[1.0]])):
        with pytest.raises(DomainError):
            optimal_interrogation(deph, m)
    times = optimal_interrogation(ohmic(0.4), np.array([1.0, 2.0, 3.0]))
    assert math.isnan(times[0])
    assert times[1:].tolist() == [optimal_interrogation(ohmic(0.4), 2),
                                  optimal_interrogation(ohmic(0.4), 3)]
    empty = ratio_r(deph, np.arange(1, 1))
    assert empty.r.shape == (0,)


def test_ohmic_exact_ratio_formula():
    assert ohmic_exact_ratio(3.3, 1) == pytest.approx(1.0, rel=1e-14)
    f12 = math.sqrt((9.0 / 8.0) * math.sqrt(1.0 / 3.0))
    assert ohmic_exact_ratio(1.0, 2) == pytest.approx(math.sqrt(2.0) * f12,
                                                      rel=1e-14)
    assert ohmic_exact_ratio(1e4, 10**4) == pytest.approx(10.0, rel=1e-2)
    with pytest.raises(DomainError):
        ohmic_exact_ratio(0.5, 4)


def test_ohmic_exact_equals_pipeline():
    for alpha in (0.6, 1.0, 2.0):
        for n in (2, 5, 10, 50):
            assert ratio_r(ohmic(alpha), n).r == pytest.approx(
                ohmic_exact_ratio(alpha, n), rel=1e-8)


def test_power_law_scaling_values():
    assert power_law_scaling(1.0, 7) == pytest.approx((1.0, 7.0))
    assert power_law_scaling(2.0, 16) == pytest.approx((2.0, 4.0))
    assert power_law_scaling(0.5, 4) == pytest.approx((0.5, 16.0))


def test_power_law_scaling_matches_pipeline():
    for nu in (0.5, 1.0, 2.0, 3.0):
        for n in (2, 10, 100):
            r_exact, t_ratio = power_law_scaling(nu, n)
            res = ratio_r(generic(0.9, nu), n)
            assert res.r == pytest.approx(r_exact, rel=1e-10)
            assert res.t_u / res.t_e == pytest.approx(t_ratio, rel=1e-10)


# --- Lorentzian bath -----------------------------------------------------------------

def test_newton_time_printed_form():
    assert lorentzian_newton_time(2.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert lorentzian_newton_time(2.0, 0.1) == pytest.approx(1.025, rel=1e-15)
    assert lorentzian_newton_time(2.0, 0.1, 4) == pytest.approx(
        math.sqrt(0.25) * (1.0 + math.sqrt(0.01 / 64.0)), rel=1e-14)


def test_newton_refined_residual():
    t1 = lorentzian_newton_refined(2.0, 0.1)
    residual = 2.0 * t1 * (1.0 - math.exp(-0.1 * t1)) - 0.2
    assert abs(residual) < 1e-3 * 0.2
    # printed and refined versions agree to the order of the neglected terms
    assert t1 == pytest.approx(lorentzian_newton_time(2.0, 0.1), abs=2e-3)


def test_lorentzian_zeno_regime():
    r = lorentzian_regime_ratio(1.0, 1e-3, 16)
    assert r == pytest.approx(16.0 ** 0.25, rel=0.02)


def test_lorentzian_markov_regime():
    r = lorentzian_regime_ratio(1e-6, 10.0, 4)
    assert r == pytest.approx(1.0, abs=1e-2)


def test_lorentzian_trivial_n1():
    assert lorentzian_regime_ratio(2.0, 0.5, 1) == pytest.approx(1.0, rel=1e-12)


# --- high temperature / Zeno diagnostics ----------------------------------------------

def test_high_temp_times_printed_value():
    res = high_temp_entangled_time(1.0, 1.0, 1.0, 1)
    assert res.printed == pytest.approx(0.5, rel=1e-15)
    assert not res.zeno_valid  # wc t_e ~ 0.77 here


def test_high_temp_solved_time_matches_bisection():
    # oracle: plain bisection on 2 n t arctan(t) = 1 at alpha = beta = wc = 1
    n = 100
    f = lambda t: 2.0 * n * t * math.atan(t) - 1.0
    lo, hi = 1e-4, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    got = high_temp_entangled_time(1.0, 1.0, 1.0, n)
    assert got.solved == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_ohmic_ratio_fit_over_large_n():
    ns = np.unique(np.geomspace(1e3, 1e6, 25).astype(int)).astype(float)
    rs = np.array([ohmic_exact_ratio(1.0, n) for n in ns])
    from ramsey_bounds.numerics import fit_power_law

    fit = fit_power_law(ns, rs)
    assert 0.24 <= fit.exponent <= 0.26


def test_high_temp_scaling_in_n():
    a = high_temp_entangled_time(1.0, 1.0, 1.0, 1_000_000)
    b = high_temp_entangled_time(1.0, 1.0, 1.0, 4_000_000)
    assert b.printed / a.printed == pytest.approx(0.5, rel=1e-12)
    assert b.solved / a.solved == pytest.approx(0.5, rel=1e-6)
    assert a.zeno_valid and b.zeno_valid
    # the solver lands on the sqrt(beta/(2 alpha n wc)) branch
    assert a.solved * math.sqrt(2e6) == pytest.approx(1.0, rel=1e-5)


def test_zeno_diagnostic_quadratic_model():
    for (c2, wf, n) in [(0.9, 3.0, 100), (0.25, 1.0, 4)]:
        deph = generic(c2, 2.0)
        got = zeno_diagnostic(deph, n, omega_fast=wf)
        assert got == pytest.approx(wf / (2.0 * math.sqrt(c2)), rel=1e-9)


def test_zeno_diagnostic_ohmic_records_order_one_value():
    got = zeno_diagnostic(ohmic(1.0), 10_000)
    assert 0.5 < got < 0.8  # measured ~0.6066, not 1: convention-dependent
    with pytest.raises(DomainError):
        zeno_diagnostic(generic(1.0, 2.0), 4)


# --- probe spec validation --------------------------------------------------------------

def test_probe_spec_validation():
    with pytest.raises(DomainError):
        ProbeSpec(0, 1.0)
    with pytest.raises(DomainError):
        ProbeSpec(1, 0.0)
    with pytest.raises(DomainError):
        ProbeSpec(1, 1.0, "cat-state")
