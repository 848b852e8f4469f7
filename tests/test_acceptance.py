"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion."""

import functools
import math

import numpy as np
import pytest

from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    gamma_closed,
    gamma_quadrature,
)
from ramsey_bounds.metrology import (
    ohmic_exact_ratio,
    optimal_interrogation,
    optimal_resolution,
    ratio_r,
)
from ramsey_bounds.numerics import fit_power_law
from ramsey_bounds.oracle import (
    brute_force_optimum,
    gamma_consistency_draws,
    reference_gamma,
    scenario_draws,
)
from regime_formulas import (
    lorentzian_newton_refined,
    lorentzian_newton_time,
    power_law_scaling,
)


def criterion(cid, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {cid} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {cid} PASS  {title}")
        return run
    return wrap


def ohmic(alpha, omega_c=1.0):
    return DephasingModel(BathSpec(PowerLawExpCutoff(alpha, 1.0, omega_c)))


def power_law(alpha, s, omega_c=1.0, temperature=None):
    bath = (BathSpec(PowerLawExpCutoff(alpha, s, omega_c))
            if temperature is None
            else BathSpec(PowerLawExpCutoff(alpha, s, omega_c), temperature))
    return DephasingModel(bath)


@criterion(1, "Markovian equivalence: pipeline r = 1 within 1e-6")
def test_criterion_1_markovian_equivalence():
    for gamma0 in (0.1, 1.0, 10.0):
        deph = DephasingModel(BathSpec(GenericPowerLawDephasing(gamma0, 1.0)))
        for n in (2, 10, 100):
            assert abs(ratio_r(deph, n).r - 1.0) < 1e-6


@criterion(2, "power-law scaling: r = n^((nu-1)/2nu), t_u/t_e = n^(1/nu)")
def test_criterion_2_power_law_scaling():
    for nu in (0.5, 1.0, 2.0, 3.0):
        deph = DephasingModel(BathSpec(GenericPowerLawDephasing(0.9, nu)))
        for n in (2, 10, 100):
            r_exact, t_ratio = power_law_scaling(nu, n)
            res = ratio_r(deph, n)
            assert abs(res.r - r_exact) <= 1e-8 * r_exact
            assert abs(res.t_u / res.t_e - t_ratio) <= 1e-8 * t_ratio
            assert abs(res.exponential_factor - 1.0) < 1e-10


@criterion(3, "Ohmic exact result: pipeline r = sqrt(n) f(alpha, n) within 1e-8")
def test_criterion_3_ohmic_exact():
    for alpha in (0.6, 1.0, 2.0):
        deph = ohmic(alpha)
        for n in (2, 5, 10, 50, 100):
            exact = ohmic_exact_ratio(alpha, n)
            assert abs(ratio_r(deph, n).r - exact) <= 1e-8 * exact
    assert ratio_r(ohmic(1.0), 2).r == pytest.approx(1.13975, abs=1e-5)


@criterion(4, "Ohmic ratio curve: monotone, 1 < r <= sqrt(n), slope ~ 1/4")
def test_criterion_4_figure_curve():
    small_n = np.arange(1, 301)
    r_small = np.array([ohmic_exact_ratio(1.0, int(n)) for n in small_n])
    big_n = np.unique(np.geomspace(100, 100000, 40).astype(int))
    r_big = np.array([ohmic_exact_ratio(1.0, int(n)) for n in big_n])

    assert np.all(np.diff(r_small) > 0.0)
    assert np.all(np.diff(r_big) > 0.0)
    assert np.all(r_small[1:] > 1.0)
    assert np.all(r_small[1:] <= np.sqrt(small_n[1:]) * (1.0 + 1e-12))
    assert np.all(r_big <= np.sqrt(big_n) * (1.0 + 1e-12))

    fit = fit_power_law(big_n.astype(float), r_big)
    assert 0.24 <= fit.exponent <= 0.26

    # the full pipeline follows the same curve inside the fit window
    for n in (100, 3162, 100000):
        assert ratio_r(ohmic(1.0), n).r == pytest.approx(
            ohmic_exact_ratio(1.0, n), rel=1e-8)


@criterion(5, "quadrature vs closed forms and Matsubara reference")
def test_criterion_5_quadrature_correctness():
    ts = np.geomspace(0.01, 100.0, 100)
    for s in (0.5, 2.0, 3.0):
        deph = power_law(1.0, s)
        ratios = np.array([
            gamma_quadrature(deph.bath, float(t))[0] / gamma_closed(deph, float(t))
            for t in ts])
        assert ratios.std() / abs(ratios.mean()) <= 1e-6
        if s == 2.0:
            assert abs(ratios.mean() - 1.0) <= 1e-6

    rng = np.random.default_rng(20240917)
    for bath, t in gamma_consistency_draws(rng, 50):
        ref = reference_gamma(bath, t)
        val = gamma_quadrature(bath, t)[0]
        assert abs(val - ref) <= 1e-8 * abs(ref)


@criterion(6, "Lorentzian regimes and Newton-refined optimum")
def test_criterion_6_lorentzian_regimes():
    def lorentzian_r(a, g, n):
        return ratio_r(DephasingModel(BathSpec(Lorentzian(a, g))), n).r

    assert lorentzian_r(1.0, 1e-3, 16) == pytest.approx(16.0 ** 0.25, rel=0.02)
    assert lorentzian_r(1e-6, 10.0, 4) == pytest.approx(1.0, abs=1e-2)

    a, g = 2.0, 0.1
    t_newton = lorentzian_newton_refined(a, g)
    residual = a * t_newton * (1.0 - math.exp(-g * t_newton)) - 2.0 * g
    t_leading = lorentzian_newton_time(a, g)
    residual_leading = a * t_leading * (1.0 - math.exp(-g * t_leading)) - 2.0 * g
    print(f"  [criterion 6] Newton-refined t = {t_newton:.9f}, "
          f"residual {residual:+.3e} (bound {1e-3 * 2.0 * g:.1e}); "
          f"leading-order t = {t_leading:.6f}, residual {residual_leading:+.3e}")
    assert abs(residual) < 1e-3 * (2.0 * g)


@criterion(7, "Zeno window: r ~ n^(1/4) and t_e sqrt(n) constant, all baths")
def test_criterion_7_zeno_scaling():
    cases = [
        ("s=0.5", power_law(1.0, 0.5), 1.0),
        ("s=1", power_law(1.0, 1.0), 1.0),
        ("s=2", power_law(4.0, 2.0), 1.0),
        ("s=3", power_law(2.0, 3.0), 1.0),
        ("high-T", power_law(1.0, 1.0, temperature=HighTemperatureOhmic(1.0)), 1.0),
    ]
    for label, deph, w_fast in cases:
        c2 = deph.short_time_coeff()
        n_lo = int(4 * 2500.0 * w_fast ** 2 / c2) + 1
        ns = np.unique(np.geomspace(n_lo, 1000 * n_lo, 12).astype(int))
        rs, tes = [], []
        for n in ns:
            res = ratio_r(deph, int(n))
            assert w_fast * res.t_e < 1e-2, f"{label}: outside Zeno window"
            rs.append(res.r)
            tes.append(res.t_e)
        fit = fit_power_law(ns.astype(float), np.array(rs))
        assert 0.24 <= fit.exponent <= 0.26, f"{label}: slope {fit.exponent}"
        scaled = np.array(tes) * np.sqrt(ns)
        assert scaled.max() / scaled.min() - 1.0 < 0.01, f"{label}: t_e sqrt(n)"


@criterion(8, "high-temperature t_e scaling (alpha n wc / beta)^(-1/2)")
def test_criterion_8_high_temperature():
    wc = 1.0

    def t_e(alpha, beta, n):
        # the root of 2 n t (alpha/beta) arctan(wc t) = 1
        return optimal_interrogation(
            power_law(alpha, 1.0, wc, HighTemperatureOhmic(beta)), n)

    base = t_e(1.0, 1.0, 1_000_000)
    doubled_n = t_e(1.0, 1.0, 2_000_000)
    assert abs(doubled_n / base - 1.0 / math.sqrt(2.0)) < 1e-6
    doubled_alpha = t_e(2.0, 1.0, 1_000_000)
    assert abs(doubled_alpha / base - 1.0 / math.sqrt(2.0)) < 1e-6
    halved_beta = t_e(1.0, 0.5, 1_000_000)
    assert abs(halved_beta / base - 1.0 / math.sqrt(2.0)) < 1e-6
    prefactor = base * math.sqrt(1e6)  # units of sqrt(beta/(alpha wc))
    print(f"  [criterion 8] measured t_e prefactor {prefactor:.6f} "
          f"/ sqrt(beta/(alpha n wc)); leading-order estimate 0.5, "
          f"constraint-based value 1/sqrt(2) = {1.0 / math.sqrt(2.0):.6f}")
    assert wc * base < 0.1  # inside the Zeno window


@criterion(9, "optimizer matches the brute-force oracle on random draws")
def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(20240918)
    for deph, probe in scenario_draws(rng, 20):
        ana = optimal_resolution(deph, probe)
        ora, theta = brute_force_optimum(deph, probe, with_theta=True)
        assert abs(ora.t_opt - ana.t_opt) <= 1e-4 * ana.t_opt
        assert abs(ora.delta_omega_sq - ana.delta_omega_sq) \
            <= 1e-4 * ana.delta_omega_sq
        assert abs(theta - math.pi / 2.0) < 1e-4


def test_runtime_sanity():
    # sub-second guard: a couple of pipeline calls stay fast enough for the
    # suite's < 2 minute budget
    t_u = optimal_interrogation(ohmic(1.0), 1)
    assert t_u == pytest.approx(1.0, rel=1e-9)
