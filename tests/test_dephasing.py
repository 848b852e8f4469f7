import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ramsey_bounds import dephasing, numerics
from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    Quadrature,
    ZeroTemperature,
    dgamma_dt,
    dgamma_quadrature,
    gamma_closed,
    gamma_quadrature,
    gamma_short_time_coeff,
    spectral_density,
)
from ramsey_bounds.errors import (
    DomainError,
    NoQuadraticRegime,
    NoSpectralDensity,
    ToleranceNotMet,
)
from ramsey_bounds.numerics import QuadratureSettings
from ramsey_bounds.oracle import reference_gamma


def power_law(alpha=1.0, s=1.0, omega_c=1.0, temperature=None):
    temp = temperature if temperature is not None else ZeroTemperature()
    return DephasingModel(BathSpec(PowerLawExpCutoff(alpha, s, omega_c), temp))


def lorentzian(a=4.0, g=1.0):
    return DephasingModel(BathSpec(Lorentzian(a, g)))


def generic(alpha=1.0, nu=1.0):
    return DephasingModel(BathSpec(GenericPowerLawDephasing(alpha, nu)))


ALL_CLOSED_MODELS = [
    power_law(1.0, 1.0, 1.0),
    power_law(0.7, 0.5, 2.0),
    power_law(1.3, 2.0, 0.5),
    power_law(2.0, 3.0, 1.0),
    power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0)),
    lorentzian(4.0, 1.0),
    lorentzian(1.0, 0.0),
    generic(0.8, 1.0),
    generic(1.2, 2.0),
    generic(0.5, 0.7),
]


# --- spectral densities ---------------------------------------------------------

def test_spectral_density_power_law_point():
    model = PowerLawExpCutoff(1.0, 1.0, 1.0)
    assert spectral_density(model, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert spectral_density(model, 0.0) == 0.0


def test_spectral_density_lorentzian_includes_1_over_pi():
    assert spectral_density(Lorentzian(math.pi, 1.0), 0.0) == pytest.approx(1.0)


def test_spectral_density_errors():
    with pytest.raises(NoSpectralDensity):
        spectral_density(GenericPowerLawDephasing(1.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        spectral_density(Lorentzian(1.0, 1.0), -0.5)


def test_model_invariants_enforced():
    with pytest.raises(DomainError):
        PowerLawExpCutoff(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        PowerLawExpCutoff(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        Lorentzian(1.0, -0.1)
    with pytest.raises(DomainError):
        GenericPowerLawDephasing(1.0, 0.0)
    with pytest.raises(DomainError):
        FiniteBeta(0.0)
    with pytest.raises(DomainError):
        # the high-temperature expansion needs an Ohmic bath
        BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0), HighTemperatureOhmic(1.0))
    with pytest.raises(DomainError):
        # thermal Lorentzian integral diverges at small frequency
        BathSpec(Lorentzian(1.0, 1.0), FiniteBeta(1.0))


# --- closed forms ---------------------------------------------------------------

def test_ohmic_log_form():
    assert gamma_closed(power_law(1.0, 1.0, 1.0), 1.0) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-15)


def test_super_ohmic_s3_value():
    # cos(2 arctan 1) = 0 kills the decaying term
    assert gamma_closed(power_law(1.0, 3.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-14)


def test_s2_rational_form():
    got = gamma_closed(power_law(1.0, 2.0, 1.0), 2.0)
    assert got == pytest.approx(0.5 * (1.0 - 1.0 / 5.0), rel=1e-14)


def test_lorentzian_value():
    assert gamma_closed(lorentzian(4.0, 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-14)


def test_generic_power_law_value():
    assert gamma_closed(generic(0.3, 2.0), 2.0) == pytest.approx(1.2, rel=1e-15)


def test_high_temperature_form():
    model = power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0))
    t = 1.5
    expected = 0.5 * (t * math.atan(t) - 0.5 * math.log(1.0 + t * t))
    assert gamma_closed(model, t) == pytest.approx(expected, rel=1e-14)


def test_gamma_zero_at_zero_everywhere():
    for model in ALL_CLOSED_MODELS:
        assert gamma_closed(model, 0.0) == 0.0


def test_sub_ohmic_gamma_at_zero_time_is_positive_zero():
    # Gamma(s - 1) < 0 for s < 1 would give -0.0; +0.0 is returned instead
    for s in (0.3, 0.5, 0.999):
        model = power_law(1.0, s, 1.0)
        values = [gamma_closed(model, 0.0), reference_gamma(model.bath, 0.0),
                  *gamma_closed(model, np.zeros(3))]
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


def test_ohmic_dispatch_window():
    # within the window the logarithmic form is used; outside, the general one
    inside = gamma_closed(power_law(1.0, 1.0 + 1e-10, 1.0), 1.0)
    outside = gamma_closed(power_law(1.0, 1.0 + 1e-6, 1.0), 1.0)
    assert inside == pytest.approx(0.5 * math.log(2.0), rel=1e-9)
    # the two conventions differ by a factor ~2 across the window
    assert outside == pytest.approx(0.25 * math.log(2.0), rel=1e-4)


def test_finite_beta_power_law_has_a_closed_form():
    model = power_law(1.0, 2.0, 1.0, FiniteBeta(1.0))
    want_gamma, want_dgamma = _bench_reference().powerlaw_beta(1.0, 2.0, 1.0, 1.0, 1.0)
    assert abs(gamma_closed(model, 1.0) / want_gamma - 1.0) <= 1e-13
    assert abs(dgamma_dt(model, 1.0) / want_dgamma - 1.0) <= 1e-13


def test_kernel_is_every_closed_form():
    # T = 0 is the kernel at p = s, high T at p = 0; the Ohmic T = 0 closed
    # form is twice the bath integral. The bound is 2e-14 because the T = 0
    # polar form is itself off by 1.1e-14 at s = 0.05 and wc t ~ 1e3 (the
    # kernel by 7e-16; see tests/test_against_mpmath.py)
    alpha, wc = 1.3, 0.7
    ts = np.geomspace(1e-3, 1e3, 61) / wc
    for s in (0.05, 0.3, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.5, 2.0, 2.5, 6.0):
        spec = PowerLawExpCutoff(alpha, s, wc)
        closed = spec.gamma(ZeroTemperature(), ts) * (0.5 if spec.is_ohmic else 1.0)
        kernel = [0.5 * alpha * math.gamma(s + 1.0) * dephasing._kernel(s, wc * t)
                  for t in ts.tolist()]
        assert np.max(np.abs(kernel / closed - 1.0)) <= 2e-14, s
    beta = 2.0
    spec = PowerLawExpCutoff(alpha, 1.0, wc)
    temp = HighTemperatureOhmic(beta)
    for t in ts.tolist():
        x = wc * t
        assert alpha / (beta * wc) * dephasing._kernel(0.0, x) == pytest.approx(
            spec.gamma(temp, t), rel=1e-14)
        assert alpha / beta * dephasing._kernel_dt(0.0, x) == pytest.approx(
            spec.dgamma(temp, t), rel=1e-14)


def test_finite_beta_limits():
    alpha, wc, t = 1.3, 0.7, 2.0
    # beta -> inf: the T = 0 bath integral
    for s in (0.5, 1.0, 2.5):
        want = reference_gamma(BathSpec(PowerLawExpCutoff(alpha, s, wc)), t)
        got = reference_gamma(BathSpec(PowerLawExpCutoff(alpha, s, wc),
                                       FiniteBeta(1e8 / wc)), t)
        assert got == pytest.approx(want, rel=1e-10), s
    # beta wc -> 0 at s = 1: the high-temperature form, whose next term is
    # of relative order (beta wc)^2
    spec = PowerLawExpCutoff(alpha, 1.0, wc)
    for beta_wc in (1e-2, 1e-3, 1e-4):
        beta = beta_wc / wc
        got = spec.gamma(FiniteBeta(beta), t)
        want = spec.gamma(HighTemperatureOhmic(beta), t)
        assert got == pytest.approx(want, rel=beta_wc ** 2)
    # gamma rises as beta falls
    for s in (0.05, 1.0, 2.0, 6.0):
        spec = PowerLawExpCutoff(alpha, s, wc)
        values = [float(spec.gamma(FiniteBeta(b), t)) for b in np.geomspace(1e2, 1e-2, 13)]
        assert all(a < b for a, b in zip(values, values[1:])), s


def test_overflowing_power_law_constant_is_a_domain_error():
    # alpha wc^2 raising, alpha wc^2 rounding to inf, Gamma(s + 1) wc^2, alpha wc/beta
    for model in (power_law(1e300, 1.0, 1e300), power_law(1e300, 1.0, 1e10),
                  power_law(1.0, 0.5, 1e200),
                  power_law(1e300, 1.0, 1e300, HighTemperatureOhmic(1e-300))):
        with pytest.raises(DomainError, match="c2 overflows a float"):
            gamma_short_time_coeff(model)
    # the Matsubara terms need Gamma(s + 1), which overflows past s = 170
    model = power_law(1.0, 200.0, 1.0, FiniteBeta(1.0))
    with pytest.raises(DomainError, match="Gamma\\(p \\+ 1\\)"):
        gamma_closed(model, 1.0)
    with pytest.raises(DomainError):
        dgamma_dt(model, 1.0)
    with pytest.raises(DomainError):
        gamma_short_time_coeff(model)
    # the tail terms' Gamma(s + 16) overflows at s = 160, their weights do not
    model = power_law(1.0, 160.0, 1.0, FiniteBeta(1.0))
    for value in (gamma_closed(model, 1.0), dgamma_dt(model, 1.0),
                  gamma_short_time_coeff(model)):
        assert math.isfinite(value)
    # an arbitrary beta wc, not only 1, keeps c2 finite there
    assert math.isfinite(gamma_short_time_coeff(power_law(1.0, 160.0, 1.0, FiniteBeta(0.1))))


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        gamma_closed(power_law(), -1.0)


# --- derivatives ----------------------------------------------------------------

def test_ohmic_derivative_value():
    assert dgamma_dt(power_law(1.0, 1.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-15)


def test_markovian_derivative_is_rate():
    assert dgamma_dt(generic(0.37, 1.0), 2.0) == pytest.approx(0.37, rel=1e-15)


def test_lorentzian_derivative_value():
    assert dgamma_dt(lorentzian(4.0, 1.0), 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-14)


def test_singular_derivative_rejected():
    with pytest.raises(DomainError):
        dgamma_dt(generic(1.0, 0.5), 0.0)


@pytest.mark.parametrize("model", ALL_CLOSED_MODELS, ids=lambda m: repr(m.bath)[:40])
def test_derivative_matches_finite_differences(model):
    ts = np.geomspace(0.05, 20.0, 12) * model.time_scale()
    for t in ts:
        h = 1e-6 * t
        fd = (gamma_closed(model, t + h) - gamma_closed(model, t - h)) / (2.0 * h)
        assert dgamma_dt(model, float(t)) == pytest.approx(fd, rel=1e-6)


# --- short-time coefficients -----------------------------------------------------

def test_short_time_coeff_values():
    assert gamma_short_time_coeff(power_law(1.0, 1.0, 1.0)) == pytest.approx(0.5)
    assert gamma_short_time_coeff(lorentzian(4.0, 1.0)) == pytest.approx(0.5)
    assert gamma_short_time_coeff(
        power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0))) == pytest.approx(0.25)
    # general power-law bath: c2 = alpha wc^2 Gamma(s+1)/4
    assert gamma_short_time_coeff(power_law(1.0, 2.0, 1.0)) == pytest.approx(
        math.gamma(3.0) / 4.0)
    assert gamma_short_time_coeff(generic(0.9, 2.0)) == pytest.approx(0.9)


def test_short_time_coeff_finite_beta_matches_series():
    # (1/4) Int w^2 e^(-w) coth(w) dw = (1/4)(2 + 4 [7 zeta(3)/8 - 1])
    # via coth w = 1 + 2 sum_k e^(-2kw) and the odd cube sum
    apery = 1.2020569031595942854
    got = gamma_short_time_coeff(power_law(1.0, 2.0, 1.0, FiniteBeta(2.0)))
    assert got == pytest.approx(0.25 * (2.0 + 4.0 * (0.875 * apery - 1.0)),
                                rel=1e-10)


@pytest.mark.parametrize("s", [6.0, 8.0, 10.0])
def test_short_time_coeff_finite_beta_cutoff_follows_s(s):
    # at beta = 1e4 the thermal part is ~2/beta^(s+1) of c2, so c2 is the T = 0
    # value (1/4) alpha wc^2 Gamma(s+1); a 40 wc cutoff drops more than 1e-11
    got = gamma_short_time_coeff(power_law(1.0, s, 1.0, FiniteBeta(1e4)))
    assert got == pytest.approx(0.25 * math.gamma(s + 1.0), rel=1e-11)


def test_short_time_coeff_no_quadratic_regime():
    with pytest.raises(NoQuadraticRegime):
        gamma_short_time_coeff(generic(1.0, 1.0))


@pytest.mark.parametrize("model", [
    power_law(1.0, 0.5, 1.0),
    power_law(1.0, 1.0, 1.0),
    power_law(1.3, 2.0, 0.5),
    lorentzian(4.0, 1.0),
    power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0)),
], ids=["sub-ohmic", "ohmic", "s2", "lorentzian", "high-T"])
def test_short_time_law(model):
    wf = model.omega_fast()
    t = 1e-3 / wf
    c2 = gamma_short_time_coeff(model)
    assert gamma_closed(model, t) / t ** 2 == pytest.approx(c2, rel=1e-3)


# --- quadrature route -------------------------------------------------------------

def test_quadrature_matches_closed_form_s2():
    value, err = gamma_quadrature(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0)), 1.0)
    assert value == pytest.approx(0.25, rel=1e-6)
    assert err <= max(1e-14, 1e-9 * value)


def test_quadrature_zero_time():
    assert gamma_quadrature(BathSpec(Lorentzian(1.0, 1.0)), 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_quadrature_rejects_nonfinite_time(t):
    # a NaN time would make every panel error NaN, which never refines
    with pytest.raises(DomainError):
        gamma_quadrature(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)), t)


def test_quadrature_rejects_generic_model():
    with pytest.raises(NoSpectralDensity):
        gamma_quadrature(BathSpec(GenericPowerLawDephasing(1.0, 2.0)), 1.0)


@pytest.mark.parametrize("s,expected_c", [(0.5, 1.0), (1.0, 0.5), (2.0, 1.0), (3.0, 1.0)])
def test_proportionality_constant(s, expected_c):
    model = power_law(1.0, s, 1.0)
    ts = np.geomspace(0.01, 100.0, 20)
    ratios = np.array([
        gamma_quadrature(model.bath, float(t))[0] / gamma_closed(model, float(t))
        for t in ts])
    assert ratios.std() / abs(ratios.mean()) <= 1e-6
    assert ratios.mean() == pytest.approx(expected_c, rel=1e-6)


def test_lorentzian_quadrature_matches_closed():
    for (a, g, t) in [(4.0, 1.0, 1.0), (2.0, 0.5, 3.0), (1.0, 1e-3, 0.35),
                      (1e-6, 10.0, 5e6)]:
        model = lorentzian(a, g)
        value, _ = gamma_quadrature(model.bath, t)
        assert value == pytest.approx(gamma_closed(model, t), rel=3e-9)


def test_high_temperature_quadrature_matches_closed():
    model = power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0))
    value, _ = gamma_quadrature(model.bath, 1.5)
    assert value == pytest.approx(gamma_closed(model, 1.5), rel=1e-8)


def test_finite_beta_reduces_to_zero_temperature_at_large_beta():
    cold, _ = gamma_quadrature(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0),
                                        FiniteBeta(200.0)), 1.0)
    zero, _ = gamma_quadrature(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0)), 1.0)
    assert cold == pytest.approx(zero, rel=1e-2)
    assert cold > zero  # thermal occupation can only add dephasing


def test_quadrature_route_on_model():
    model = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0)), Quadrature())
    assert model.gamma(1.0) == pytest.approx(0.25, rel=1e-8)
    assert model.dgamma_dt(1.0) == pytest.approx(
        dgamma_dt(power_law(1.0, 2.0, 1.0), 1.0), rel=1e-5)


def test_quadrature_route_keeps_array_shape():
    model = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0)), Quadrature())
    ts = np.array([[0.5, 1.0, 2.0], [0.1, 0.2, 0.3]])
    for f in (model.gamma, model.dgamma_dt):
        out = f(ts)
        assert out.shape == ts.shape
        assert out[1, 2] == f(0.3)
    assert model.gamma(np.empty((0, 2))).shape == (0, 2)


def _within_contract(value, err, settings=QuadratureSettings()):
    return err <= max(settings.abs_tol, settings.rel_tol * abs(value))


# (model, fast frequency, quadrature / closed form): the Ohmic closed form at
# T = 0 is twice the bath integral, every other one equals it
DERIVATIVE_CASES = [
    (power_law(1.0, 0.5, 1.0), 1.0, 1.0),
    (power_law(1.3, 2.0, 0.7), 0.7, 1.0),
    (power_law(0.8, 3.0, 1.5), 1.5, 1.0),
    (power_law(1.0, 1.0, 2.0), 2.0, 0.5),
    (power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0)), 1.0, 1.0),
    (lorentzian(2.0, 0.5), 0.5, 1.0),
]


@pytest.mark.parametrize("model,w_fast,factor", DERIVATIVE_CASES,
                         ids=["s0.5", "s2", "s3", "ohmic", "high-T", "lorentzian"])
def test_dgamma_quadrature_matches_closed_form(model, w_fast, factor):
    for t in np.geomspace(1e-2, 30.0, 15) / w_fast:
        value, err = dgamma_quadrature(model.bath, float(t))
        assert value == pytest.approx(factor * dgamma_dt(model, float(t)), rel=1e-8)
        assert _within_contract(value, err)


@pytest.mark.parametrize("s", [0.3, 2.0])
def test_finite_beta_dgamma_matches_difference_of_gamma(s):
    # no closed form at finite beta: the centred difference of two gamma
    # quadratures must agree within the error their estimates allow it
    bath = BathSpec(PowerLawExpCutoff(1.0, s, 1.0), FiniteBeta(1.0))
    for t in (0.05, 1.0, 10.0):
        h = 1e-6 * t
        g_hi, e_hi = gamma_quadrature(bath, t + h)
        g_lo, e_lo = gamma_quadrature(bath, t - h)
        value, err = dgamma_quadrature(bath, t)
        assert _within_contract(value, err)
        assert abs((g_hi - g_lo) / (2.0 * h) - value) <= (e_hi + e_lo) / (2.0 * h)


# super-Ohmic dgamma/dt at omega_c t = 30 whose value (~1e-5) is far below
# Int |integrand| (1.4 to 3.2), so the tolerance abs_tol is only 7-16 eps of
# it; the benchmark's quad-gamma workload draws them (seed 7 op 623, seed 23
# op 623, seed 30 ops 623/647/671, seed 34 op 503)
NEAR_ROUNDING_DERIVATIVES = [
    (PowerLawExpCutoff(1.2568992994131252, 3.052679145458476, 2.9247005205099685),
     FiniteBeta(1.7095767463836502), 10.257460478301901),
    (PowerLawExpCutoff(1.2643683964867507, 3.033046144572999, 1.6589210143850146),
     FiniteBeta(3.014007271379084), 18.084043628274504),
    (PowerLawExpCutoff(0.9638417651156606, 3.043872065656969, 2.291379279404158),
     FiniteBeta(2.1820918278095722), 13.092550966857434),
    (PowerLawExpCutoff(0.9638417651156606, 3.043872065656969, 2.291379279404158),
     FiniteBeta(0.43641836556191443), 13.092550966857434),
    (PowerLawExpCutoff(0.9638417651156606, 3.043872065656969, 2.291379279404158),
     FiniteBeta(0.21820918278095722), 13.092550966857434),
    (PowerLawExpCutoff(2.996560109918333, 2.0442183310611775, 2.4437782380722077),
     ZeroTemperature(), 12.276072981018817),
]


@pytest.mark.parametrize("spectral,temp,t", NEAR_ROUNDING_DERIVATIVES,
                         ids=["seed7-623", "seed23-623", "seed30-623", "seed30-647",
                              "seed30-671", "seed34-503"])
def test_derivative_near_rounding_meets_contract(spectral, temp, t):
    bath = BathSpec(spectral, temp)
    value, err = dgamma_quadrature(bath, t)
    assert _within_contract(value, err)
    assert _within_contract(value, abs(value - dgamma_dt(DephasingModel(bath), t)))


def test_refinement_loop_meets_contract(monkeypatch):
    # finite beta, s = 0.3, at rel_tol = 1e-13 is not met by the seeded
    # panels, so the panel-splitting loop must run for both kernels
    passes = []
    refined = numerics._refined_panels
    monkeypatch.setattr(numerics, "_refined_panels",
                        lambda *args: passes.append(1) or refined(*args))
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.3, 1.0), FiniteBeta(1.0))
    tight = QuadratureSettings(rel_tol=1e-13)
    for kernel in (gamma_quadrature, dgamma_quadrature):
        passes.clear()
        value, err = kernel(bath, 1.0, tight)
        assert len(passes) > 1
        assert _within_contract(value, err, tight)
        assert value == pytest.approx(kernel(bath, 1.0)[0], rel=2e-9)


def _bench_reference():
    """bench/reference.py, the benchmark's independent closed forms."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_finite_beta_sub_ohmic_long_time_meets_contract():
    # a seeding cap uniform in x = sqrt(w), one period wide only at the top of
    # the range, would need more than MAX_PANELS panels here; panels one
    # period wide in w fit the budget
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.3, 1.0), FiniteBeta(1.0))
    want_gamma, want_dgamma = _bench_reference().powerlaw_beta(1.0, 0.3, 1.0, 1.0, 100.0)
    value, err = gamma_quadrature(bath, 100.0)
    assert _within_contract(value, err)
    for want in (reference_gamma(bath, 100.0), want_gamma):
        assert _within_contract(value, abs(value - want))
    value, err = dgamma_quadrature(bath, 100.0)
    assert _within_contract(value, err)
    assert _within_contract(value, abs(value - want_dgamma))


def test_dgamma_quadrature_domain():
    bath = BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0))
    assert dgamma_quadrature(bath, 0.0) == (0.0, 0.0)
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(DomainError):
            dgamma_quadrature(bath, t)
    with pytest.raises(NoSpectralDensity):
        dgamma_quadrature(BathSpec(GenericPowerLawDephasing(1.0, 2.0)), 1.0)


@pytest.mark.parametrize("kernel,s", [(dgamma_quadrature, 3.0), (gamma_quadrature, 4.0)],
                         ids=["dgamma-s3", "gamma-s4"])
def test_quadrature_meets_contract_at_scan_start(kernel, s):
    # the optimizer's scan starts at 1e-12 t_ref, where the tolerance is
    # abs_tol = 1e-14; there the short-time law c2 t^2 holds
    bath = BathSpec(PowerLawExpCutoff(1.0, s, 1.0))
    c2 = 0.25 * math.gamma(s + 1.0)
    for t in np.geomspace(1e-12, 1e-4, 9):
        value, err = kernel(bath, float(t))
        assert _within_contract(value, err)
        law = 2.0 * c2 * t if kernel is dgamma_quadrature else c2 * t * t
        assert value == pytest.approx(law, rel=1e-7)


# (kernel, bath, t) where the tail bound at the first cutoff
# wc max(40, 40/s, 10 + 5s) exceeds the tolerance abs_tol = 1e-14
FIRST_CUTOFF_MISSES = [
    (dgamma_quadrature, BathSpec(PowerLawExpCutoff(1.0, 4.0, 1.0)), 1.0),
    (gamma_quadrature, BathSpec(PowerLawExpCutoff(1e6, 1.0, 1.0), HighTemperatureOhmic(1e10)),
     1.0),
]


@pytest.mark.parametrize("kernel,bath,t", FIRST_CUTOFF_MISSES, ids=["dgamma", "gamma"])
def test_power_law_cutoff_doubles_to_meet_contract(kernel, bath, t):
    value, err = kernel(bath, t)
    assert _within_contract(value, err)
    closed = bath.spectral.dgamma if kernel is dgamma_quadrature else bath.spectral.gamma
    assert abs(value - closed(bath.temperature, t)) <= 1e-14


@pytest.mark.parametrize("kernel,bath,t", FIRST_CUTOFF_MISSES, ids=["dgamma", "gamma"])
def test_missed_contract_raises(kernel, bath, t, monkeypatch):
    # with a cutoff that cannot move, the estimate misses the contract and
    # is not returned
    monkeypatch.setattr(dephasing, "_tail_cutoff", lambda bound, omega_max, goal: omega_max)
    with pytest.raises(ToleranceNotMet) as info:
        kernel(bath, t)
    assert not _within_contract(info.value.value, info.value.error)


# --- global decoherence-function properties ---------------------------------------

@pytest.mark.parametrize("model", [
    power_law(1.0, 0.5, 1.0),
    power_law(1.0, 1.0, 1.0),
    power_law(1.3, 2.0, 0.5),
    lorentzian(2.0, 0.7),
    power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0)),
    generic(0.8, 0.7),
    generic(1.0, 1.0),
    generic(1.2, 2.0),
], ids=["sub-ohmic", "ohmic", "s2", "lorentzian", "high-T", "nu0.7", "nu1", "nu2"])
def test_monotone_nondecreasing(model):
    ts = np.geomspace(1e-3, 1e3, 400) * model.time_scale()
    gam = gamma_closed(model, ts)
    assert np.all(np.diff(gam) >= -1e-14)


def test_super_ohmic_revival_is_real_but_positive():
    # for s > 2 the decoherence function overshoots and relaxes back: it is
    # not monotone, but stays positive and returns to alpha/2 * Gamma(s-1)
    model = power_law(1.0, 3.0, 1.0)
    ts = np.geomspace(1e-3, 1e3, 400)
    gam = gamma_closed(model, ts)
    assert np.all(gam >= 0.0)
    assert np.any(np.diff(gam) < 0.0)
    assert gam[np.argmax(ts)] == pytest.approx(0.5 * math.gamma(2.0), rel=1e-4)
    assert ts[np.argmax(gam)] == pytest.approx(math.sqrt(3.0), rel=0.05)


def test_finite_beta_sub_ohmic_quadrature_is_well_behaved():
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(1.0))
    ts = np.geomspace(0.05, 20.0, 12)
    vals = np.array([gamma_quadrature(bath, float(t))[0] for t in ts])
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)


def test_high_temperature_markov_recovery():
    # dgamma/dt approaches the constant rate alpha pi/(2 beta) well past
    # 1/omega_c; the residual falls off like 1/t
    model = power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0))
    devs = [abs(dgamma_dt(model, 2.0 * t1) / dgamma_dt(model, t1) - 1.0)
            for t1 in (200.0, 2000.0)]
    assert devs[0] < 2e-3
    assert devs[1] < 2e-4
    assert dgamma_dt(model, 1e5) == pytest.approx(math.pi / 4.0, rel=1e-4)
