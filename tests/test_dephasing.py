import math

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
    NoClosedForm,
    NoQuadraticRegime,
    NoSpectralDensity,
    ToleranceNotMet,
)
from ramsey_bounds.numerics import QuadratureSettings


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


def test_ohmic_dispatch_window():
    # within the window the logarithmic form is used; outside, the general one
    inside = gamma_closed(power_law(1.0, 1.0 + 1e-10, 1.0), 1.0)
    outside = gamma_closed(power_law(1.0, 1.0 + 1e-6, 1.0), 1.0)
    assert inside == pytest.approx(0.5 * math.log(2.0), rel=1e-9)
    # the two conventions differ by a factor ~2 across the window
    assert outside == pytest.approx(0.25 * math.log(2.0), rel=1e-4)


def test_no_closed_form_for_finite_beta_power_law():
    model = power_law(1.0, 2.0, 1.0, FiniteBeta(1.0))
    with pytest.raises(NoClosedForm):
        gamma_closed(model, 1.0)
    with pytest.raises(NoClosedForm):
        dgamma_dt(model, 1.0)


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


@pytest.mark.parametrize("bath", [
    BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(2.0)),
    BathSpec(PowerLawExpCutoff(1.0, 2.5, 1.0)),
    BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), HighTemperatureOhmic(2.0)),
    BathSpec(Lorentzian(2.0, 0.5)),
], ids=["beta-s0.5", "s2.5", "high-T", "lorentzian"])
def test_quad_problem_endpoint_is_the_integrand_limit(bath):
    for derivative in (False, True):
        f, *_, endpoint = bath.spectral.quad_problem(bath.temperature, 1.3, 1e-9,
                                                     derivative)
        assert float(f(np.array([1e-7]))[0]) == pytest.approx(endpoint, rel=1e-6,
                                                               abs=1e-12)


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
