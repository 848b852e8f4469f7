import importlib.util
import fractions
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ramsey_bounds import dephasing, numerics
from ramsey_bounds.cli import main
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


def lorentzian_density_as_written(spec, w):
    """J = (a / (pi g)) / (1 + x^2) in x = w/g, with every overflow silenced."""
    with np.errstate(over="ignore"):
        x = w / spec.g
        return spec.a / (np.pi * spec.g) / (1.0 + x * x)


def test_lorentzian_density_keeps_its_bits():
    # ordinary nodes, and g = 1e-300, where x^2 and then w/g overflow on all
    # but the smallest nodes and J rounds to 0 there, give the bits of the
    # formula, with no overflow warning (the suite's warnings are errors); so
    # does g = 1e-150
    w = np.concatenate([[0.0], np.geomspace(1e-310, 1e300, 700)])
    for spec in (Lorentzian(1.3, 0.6), Lorentzian(2.0, 1e-300), Lorentzian(1.0, 1e-150)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_density(spec, w)
        assert got.tobytes() == lorentzian_density_as_written(spec, w.copy()).tobytes()
        assert (got[w > 1.4e154 * spec.g] == 0.0).all()
    assert spectral_density(Lorentzian(1.0, 1e-300), 1e-140) == 0.0


@pytest.mark.parametrize("spec", [Lorentzian(1.0, 1.0), GenericPowerLawDephasing(1.0, 1.5)],
                         ids=["lorentzian", "generic"])
def test_bath_terms_are_the_power_laws_alone(spec):
    # the kernel terms belong to the power law: another family's bath raises
    # a typed error naming it, not a bare AttributeError
    with pytest.raises(DomainError, match=type(spec).__name__):
        BathSpec(spec).terms


DENSITIES = [PowerLawExpCutoff(0.7, 0.5, 2.0), PowerLawExpCutoff(1.3, 2.0, 0.5),
             Lorentzian(1.3, 0.6)]


@pytest.mark.parametrize("spec", DENSITIES, ids=["sub-ohmic", "super-ohmic", "lorentzian"])
@pytest.mark.parametrize("omega", [
    np.array([0.5, -1.0]), np.array([0.5, math.inf]), np.array([0.5, -math.inf]),
    np.array([math.nan, 0.5]), np.array([0.5, 2.0, math.nan]), np.array(math.nan),
    np.array(-1.0), np.array([-0.5]), np.array([True, False]), np.array(["1"]),
], ids=["negative", "inf", "minus-inf", "nan-first", "nan-last", "0d-nan", "0d-negative",
        "one-negative", "bool-array", "str-array"])
def test_spectral_density_float_arrays_are_checked(spec, omega):
    # the float-array fast path lets no bad frequency through
    with pytest.raises(DomainError):
        spectral_density(spec, omega)


@pytest.mark.parametrize("spec", DENSITIES, ids=["sub-ohmic", "super-ohmic", "lorentzian"])
def test_spectral_density_reads_every_array_kind_as_before(spec):
    # a float64 array takes the fast path and gives the bits of the same
    # frequencies read by the checked path (a list); 0-d, int, float32 and
    # empty arrays give what the checked path gives
    w = np.array([0.0, 1e-300, 0.3, 2.0, 50.0, 1e6])
    want = spectral_density(spec, w.tolist())
    assert spectral_density(spec, w).tobytes() == want.tobytes()
    assert spectral_density(spec, w.reshape(2, 3)).tobytes() == want.tobytes()
    assert spectral_density(spec, w[::2]).tobytes() == want[::2].tobytes()
    zero_d = spectral_density(spec, np.array(2.0))
    assert type(zero_d) is float and zero_d == spectral_density(spec, 2.0)
    ints = np.array([0, 1, 3])
    want_ints = spectral_density(spec, [0.0, 1.0, 3.0])
    assert spectral_density(spec, ints).tobytes() == want_ints.tobytes()
    single = w.astype(np.float32)
    assert (spectral_density(spec, single).tobytes()
            == spectral_density(spec, single.astype(float).tolist()).tobytes())
    for empty in (np.array([]), np.array([], dtype=int)):
        out = spectral_density(spec, empty)
        assert out.shape == (0,) and out.dtype == float


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


# (spectral model, temperature, CLI flags) for every pair a family does not
# support: the high-temperature expansion needs an Ohmic bath, and the
# thermal Lorentzian integral diverges at small frequency
UNSUPPORTED_PAIRS = [
    (PowerLawExpCutoff(1.0, 2.0, 1.0), HighTemperatureOhmic(1.0),
     ["--model", "powerlaw", "--alpha", "1", "--s", "2", "--omega-c", "1", "--temp", "high-t=1"]),
    (Lorentzian(1.0, 1.0), FiniteBeta(1.0),
     ["--model", "lorentzian", "--a", "1", "--g", "1", "--temp", "beta=1"]),
    (Lorentzian(1.0, 1.0), HighTemperatureOhmic(1.0),
     ["--model", "lorentzian", "--a", "1", "--g", "1", "--temp", "high-t=1"]),
    (GenericPowerLawDephasing(1.0, 2.0), HighTemperatureOhmic(1.0),
     ["--model", "powerlaw-dephasing", "--alpha", "1", "--nu", "2", "--temp", "high-t=1"]),
]


@pytest.mark.parametrize("spec,temp,flags", UNSUPPORTED_PAIRS,
                         ids=["powerlaw-s2-high-t", "lorentzian-beta", "lorentzian-high-t",
                              "generic-high-t"])
def test_unsupported_pairs_are_rejected(spec, temp, flags, capsys):
    # at construction, naming the tags the family supports; through the CLI
    # with exit 2 and that message on one line
    names = ", ".join(kind.__name__ for kind in spec.temperatures)
    with pytest.raises(DomainError, match=f"^temperature must be one of {names}, not "
                                          f"{type(temp).__name__}$"):
        BathSpec(spec, temp)
    for command in (["gamma", *flags, "--t", "1"], ["ratio", *flags, "--n-grid", "1:4:4"]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: temperature must be one of {names}, "
                                f"not {type(temp).__name__}\n")


def test_supported_temperatures_are_declared():
    # the high-temperature expansion is declared for the Ohmic power law alone
    every = (ZeroTemperature, FiniteBeta, HighTemperatureOhmic)
    assert PowerLawExpCutoff(1.0, 1.0, 1.0).temperatures == every
    assert PowerLawExpCutoff(1.0, 1.0 + 1e-10, 1.0).temperatures == every
    assert PowerLawExpCutoff(1.0, 1.0 + 1e-8, 1.0).temperatures == every[:2]
    assert Lorentzian(1.0, 1.0).temperatures == every[:1]
    assert GenericPowerLawDephasing(1.0, 2.0).temperatures == every[:2]


_OHMIC = PowerLawExpCutoff(1.0, 1.0, 1.0)


@pytest.mark.parametrize("cls,args,name", [
    (BathSpec, (_OHMIC, 0.0), "temperature"),
    (BathSpec, (_OHMIC, None), "temperature"),
    (BathSpec, (GenericPowerLawDephasing(1.0, 2.0), "hot"), "temperature"),
    (BathSpec, ("ohmic",), "spectral"),
    (BathSpec, (ZeroTemperature(), _OHMIC), "spectral"),
    (DephasingModel, (BathSpec(_OHMIC), "quad"), "route"),
    (DephasingModel, (BathSpec(_OHMIC), Quadrature), "route"),
    (DephasingModel, (_OHMIC,), "bath"),
], ids=["temperature-float", "temperature-none", "temperature-str", "spectral-str",
        "spectral-temperature", "route-str", "route-class", "bath-spectral"])
def test_fields_of_the_wrong_type_are_rejected(cls, args, name):
    # at construction, with a typed error naming the field, not at first use
    with pytest.raises(DomainError, match=f"^{name} must be one of "):
        cls(*args)


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
    # the kernel gives -0.0 at t = 0 for 1/2 < s < 1; +0.0 is returned instead
    for s in (0.3, 0.5, 0.999):
        model = power_law(1.0, s, 1.0)
        values = [gamma_closed(model, 0.0), reference_gamma(model.bath, 0.0),
                  *gamma_closed(model, np.zeros(3))]
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


def test_ohmic_dispatch_window():
    # within the window the T = 0 term carries the Ohmic factor 2; outside, not
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


def test_array_gamma_is_the_scalar_gamma():
    # every power-law mode is one kernel sum, taken by the math kernel on a
    # float and by the numpy one on an array: the two agree within a few ulps,
    # dgamma within a few ulps of its envelope Sum |a r| theta (1 + x^2)^(-p/2),
    # as it crosses zero. The finite-beta term n = 0 has p = s - 1 < 0 for s < 1
    alpha, wc, ulps = 1.3, 0.7, 8 * np.finfo(float).eps
    x_grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61), [1e12]])
    modes = [(s, ZeroTemperature(), 1e200)
             for s in (0.05, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 2.5, 6.0)]
    modes.append((1.0, HighTemperatureOhmic(2.0), 1e200))
    modes += [(s, FiniteBeta(beta_wc / wc), None)
              for s in (0.05, 0.5, 1.0, 2.5, 6.0) for beta_wc in (0.2, 5.0)]
    for s, temp, far in modes:
        spec = PowerLawExpCutoff(alpha, s, wc)
        bath = BathSpec(spec, temp)
        ts = (x_grid if far is None else np.append(x_grid, far)) / wc
        gam, dgam = spec.gamma(bath, ts), spec.dgamma(bath, ts)
        assert gam[0] == 0.0 and math.copysign(1.0, gam[0]) == 1.0, (s, temp)
        assert dgam[0] == 0.0, (s, temp)
        dgamma_at = spec.dgamma_function(bath)
        for t, g, dg in zip(ts.tolist(), gam.tolist(), dgam.tolist()):
            g_one, dg_one = spec.gamma(bath, t), dgamma_at(t)
            envelope = wc * sum(abs(a * r) * math.atan(r * wc * t)
                                * math.hypot(1.0, r * wc * t) ** -p
                                for a, p, r in bath.terms)
            assert abs(g - g_one) <= ulps * g_one, (s, temp, t)
            assert abs(dg - dg_one) <= ulps * envelope, (s, temp, t)


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
        got = spec.gamma(BathSpec(spec, FiniteBeta(beta)), t)
        want = spec.gamma(BathSpec(spec, HighTemperatureOhmic(beta)), t)
        assert got == pytest.approx(want, rel=beta_wc ** 2)
    # gamma rises as beta falls
    for s in (0.05, 1.0, 2.0, 6.0):
        spec = PowerLawExpCutoff(alpha, s, wc)
        values = [float(spec.gamma(BathSpec(spec, FiniteBeta(b)), t))
                  for b in np.geomspace(1e2, 1e-2, 13)]
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


def test_a_bath_whose_terms_overflow_still_integrates():
    # the bath binds its closed form lazily: at s = 171 the finite-beta terms
    # need Gamma(172), which overflows a float where J and the bath integral
    # do not, so the bath builds, its closed form raises, and its quadrature
    # integrates without binding the terms
    bath = BathSpec(PowerLawExpCutoff(1e-300, 171.0, 1.0), FiniteBeta(1.0))
    with pytest.raises(DomainError, match="Gamma\\(p \\+ 1\\)"):
        gamma_closed(DephasingModel(bath), 1.0)
    value, err = gamma_quadrature(bath, 1.0)
    assert math.isfinite(value) and err <= 1e-9 * value
    assert "terms" not in vars(bath)


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        gamma_closed(power_law(), -1.0)


SCALAR_CALLS = {
    "gamma_closed": gamma_closed,
    "dgamma_dt": dgamma_dt,
    "DephasingModel.gamma": lambda model, t: model.gamma(t),
}
SCALAR_MODELS = [*ALL_CLOSED_MODELS, power_law(0.7, 0.6, 1.0, FiniteBeta(2.0)),
                 DephasingModel(BathSpec(Lorentzian(1.0, 0.5)), Quadrature())]


@pytest.mark.parametrize("call", SCALAR_CALLS.values(), ids=SCALAR_CALLS.keys())
@pytest.mark.parametrize("model", SCALAR_MODELS, ids=lambda m: repr(m)[:60])
def test_float_time_contract(call, model):
    # a Python float is checked by one comparison and handed to the route as
    # it is: it must raise, and give the bits, that a 0-d array and a numpy
    # scalar of the same time do
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(DomainError):
            call(model, bad)
    # gamma is 0 at t = 0, and so is gamma' but for alpha t^nu with nu <= 1
    spec = model.bath.spectral
    if not (call is dgamma_dt and isinstance(spec, GenericPowerLawDephasing)
            and spec.nu <= 1.0):
        assert call(model, 0.0) == 0.0
    for t in (0.0, 0.3, 2.0, 40.0):
        try:
            want = call(model, np.array(t))
        except DomainError:
            for same in (t, np.float64(t)):
                with pytest.raises(DomainError):
                    call(model, same)
            continue
        for same in (t, np.float64(t)):
            got = call(model, same)
            assert type(got) is float and got.hex() == want.hex(), (t, type(same))


# --- derivatives ----------------------------------------------------------------

def test_ohmic_derivative_value():
    assert dgamma_dt(power_law(1.0, 1.0, 1.0), 1.0) == pytest.approx(0.5, rel=1e-15)


def test_markovian_derivative_is_rate():
    assert dgamma_dt(generic(0.37, 1.0), 2.0) == pytest.approx(0.37, rel=1e-15)


def test_lorentzian_derivative_value():
    assert dgamma_dt(lorentzian(4.0, 1.0), 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("a,g,ts", [(1e10, 1e-300, [1e-6, 1.4e-5, 1.0]),
                                    (1.7e308, 0.2, [0.1, 0.6, 2.0])],
                         ids=["narrow", "huge-coupling"])
def test_lorentzian_whose_prefactor_overflows(a, g, ts):
    # a/(4 g) overflows, gamma and gamma' = a/(4 g) (1 - e^(-g t)) need not:
    # on a float, on an array and on the lane's bound gamma', within 1e-14 of
    # mpmath (the precision of the Lorentzian's closed form), from the
    # short-time form and the long one; g t + expm1(-g t) cancels to u^2/2
    # at u = g t = 1e-306, hence 700 digits
    mpmath = pytest.importorskip("mpmath")
    assert a / (4.0 * g) == math.inf
    deph = DephasingModel(BathSpec(Lorentzian(a, g)))
    gam, dgam = deph.gamma(np.array(ts)), deph.dgamma_dt(np.array(ts))
    with mpmath.workdps(700):
        a_, g_ = mpmath.mpf(a), mpmath.mpf(g)
        for t, g_t, dg_t in zip(ts, gam.tolist(), dgam.tolist()):
            t_ = mpmath.mpf(t)
            want = a_ / (4 * g_ * g_) * (g_ * t_ + mpmath.expm1(-g_ * t_))
            want_dg = a_ / (4 * g_) * -mpmath.expm1(-g_ * t_)
            for got in (g_t, deph.gamma(t)):
                assert abs(got / float(want) - 1.0) <= 1e-14, (t, got)
            for got in (dg_t, deph.dgamma_dt(t), deph.dgamma_at(t)):
                assert abs(got / float(want_dg) - 1.0) <= 1e-14, (t, got)


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


@pytest.mark.parametrize("model,wf", [
    (power_law(1.0, 0.5, 1.0), 1.0),
    (power_law(1.0, 1.0, 1.0), 1.0),
    (power_law(1.3, 2.0, 0.5), 0.5),
    (lorentzian(4.0, 1.0), 1.0),
    (power_law(1.0, 1.0, 1.0, HighTemperatureOhmic(2.0)), 1.0),
], ids=["sub-ohmic", "ohmic", "s2", "lorentzian", "high-T"])
def test_short_time_law(model, wf):
    # wf is the bath's fastest frequency, omega_c or g
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


@pytest.mark.parametrize("kernel", ["gamma", "dgamma"])
def test_quadrature_rejects_times_and_settings_of_another_kind(kernel):
    quadrature = gamma_quadrature if kernel == "gamma" else dgamma_quadrature
    bath = BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), FiniteBeta(2.0))
    for t in (np.array([1.0, 2.0]), np.array([1.0]), [1.0], [[1.0], [1.0, 2.0]], "1", None,
              np.array("1"), 1.0 + 0j, fractions.Fraction(1, 2)):
        with pytest.raises(DomainError):
            quadrature(bath, t)
    for settings in ("x", None, 1e-9, {"rel_tol": 1e-9}):
        for t in (0.0, 1.0):
            with pytest.raises(DomainError):
                quadrature(bath, t, settings)


@pytest.mark.parametrize("kernel", ["gamma", "dgamma"])
def test_quadrature_takes_real_scalars(kernel):
    # every real scalar time gives the bits of its float
    quadrature = gamma_quadrature if kernel == "gamma" else dgamma_quadrature
    bath = BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), FiniteBeta(2.0))
    for t, ts in ((0.5, (np.float64(0.5), np.array(0.5))),
                  (2.0, (2, np.int64(2), np.uint8(2), np.array(2)))):
        want = quadrature(bath, t)
        for other in ts:
            assert quadrature(bath, other) == want
    assert quadrature(bath, 0.5, QuadratureSettings()) == quadrature(bath, 0.5)


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
    # finite beta, s = 0.3, at rel_tol = 1e-13 is not met by seeded panels
    # four times as coarse (every fourth edge kept), so the panel-splitting
    # loop must run for both kernels; the seeding itself meets it at once
    passes = []
    refined = numerics._refined_panels
    monkeypatch.setattr(numerics, "_refined_panels",
                        lambda *args: passes.append(1) or refined(*args))
    seed = numerics._seed_panels

    def coarse(upper, *args):
        lo = seed(upper, *args)[0][::4]
        return lo, np.append(lo[1:], upper)

    monkeypatch.setattr(numerics, "_seed_panels", coarse)
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.3, 1.0), FiniteBeta(1.0))
    tight = QuadratureSettings(rel_tol=1e-13)
    for kernel in (gamma_quadrature, dgamma_quadrature):
        passes.clear()
        value, err = kernel(bath, 1.0, tight)
        assert len(passes) > 1
        assert _within_contract(value, err, tight)
        assert value == pytest.approx(kernel(bath, 1.0)[0], rel=2e-9)


# one bath per family and temperature mode, with its fast frequency
CHECKED_BATHS = [(BathSpec(PowerLawExpCutoff(0.7, 0.5, 2.0)), 2.0),
                 (BathSpec(PowerLawExpCutoff(0.7, 1.5, 2.0), FiniteBeta(0.8)), 2.0),
                 (BathSpec(PowerLawExpCutoff(0.7, 1.0, 2.0), HighTemperatureOhmic(0.8)), 2.0),
                 (BathSpec(Lorentzian(1.3, 0.6)), 0.6)]
CHECKED_IDS = ["zero-T", "finite-beta", "high-T", "lorentzian"]


def _quadratures(bath, w_fast):
    return [(gamma_quadrature(bath, t), dgamma_quadrature(bath, t))
            for t in (wct / w_fast for wct in (0.01, 1.0, 30.0))]


@pytest.mark.parametrize("bath,w_fast", CHECKED_BATHS, ids=CHECKED_IDS)
def test_quadrature_fast_paths_give_the_checked_paths_bits(bath, w_fast, monkeypatch):
    # the same times and cutoffs as numpy scalars, and the same frequencies
    # as a list, go through every argument check, and give the same bits
    fast = _quadratures(bath, w_fast)
    integrate, density = dephasing.integrate_semi_infinite, dephasing.spectral_density

    def checked_integrate(f, upper, settings, max_panel_width, lower_cutoff):
        return integrate(f, np.float64(upper), settings,
                         max_panel_width=np.float64(max_panel_width),
                         lower_cutoff=np.float64(lower_cutoff))

    monkeypatch.setattr(dephasing, "integrate_semi_infinite", checked_integrate)
    monkeypatch.setattr(dephasing, "spectral_density", lambda spec, w: density(spec, w.tolist()))
    checked = [(gamma_quadrature(bath, np.float64(t)), dgamma_quadrature(bath, np.float64(t)))
               for t in (wct / w_fast for wct in (0.01, 1.0, 30.0))]
    assert checked == fast


@pytest.mark.parametrize("bath,w_fast", CHECKED_BATHS, ids=CHECKED_IDS)
def test_quadrature_of_a_float_time_checks_nothing_again(bath, w_fast, monkeypatch):
    # a float time is checked once by its float test; the quadrature's own
    # cutoffs and nodes never reach the scalar or the array check
    calls = []
    for module in (dephasing, numerics):
        for name in ("_real", "_real_array"):
            check = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, check=check: calls.append(args[0]) or check(*args))
    _quadratures(bath, w_fast)
    assert calls == []
    gamma_quadrature(bath, np.float64(1.0))
    assert calls


@pytest.mark.parametrize("a,g", [(0.3, 0.1), (1.0, 0.5), (3.0, 2.0)])
def test_lorentzian_quadrature_integrates_once(a, g, monkeypatch):
    # the first tail goal comes from the head bound at w* = min(1/t, g), a
    # lower bound on the tolerance, so no time of the benchmark's grid
    # (g t from 1e-2 to 30) integrates twice
    calls = []
    integrate = dephasing.integrate_semi_infinite
    monkeypatch.setattr(dephasing, "integrate_semi_infinite",
                        lambda *args, **kwargs: calls.append(1) or integrate(*args, **kwargs))
    bath = BathSpec(Lorentzian(a, g))
    for t in (np.geomspace(1e-2, 30.0, 12) / g).tolist():
        for kernel in (gamma_quadrature, dgamma_quadrature):
            calls.clear()
            value, err = kernel(bath, t)
            assert len(calls) == 1, (kernel.__name__, t)
            assert _within_contract(value, err)


def test_head_below_the_floats_raises_domain_error(monkeypatch):
    # at s = 0.01 the head bound c0 E^s meets its goal only at E ~ 1e-1072;
    # the error names s and the bound, before any integration
    monkeypatch.setattr(dephasing, "integrate_semi_infinite", None)
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.01, 1.0), FiniteBeta(1.0))
    for kernel in (gamma_quadrature, dgamma_quadrature):
        with pytest.raises(DomainError, match=r"s=0\.01.*below the smallest normal float.*E\^0\.01"):
            kernel(bath, 1.0)


def _bench_reference():
    """bench/reference.py, the benchmark's independent closed forms."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_finite_beta_sub_ohmic_long_time_meets_contract():
    # a seeding cap uniform in x = sqrt(w), one period wide only at the top of
    # the range, would need more than MAX_PANELS panels here; panels two
    # periods wide in w fit the budget
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


# (kernel, bath, t) where the tail bound at the first cutoff 2 s wc exceeds
# the tolerance abs_tol = 1e-14
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
    assert abs(value - closed(bath, t)) <= 1e-14


@pytest.mark.parametrize("kernel,bath,t", FIRST_CUTOFF_MISSES, ids=["dgamma", "gamma"])
def test_missed_contract_raises(kernel, bath, t, monkeypatch):
    # with a cutoff that cannot move, the estimate misses the contract and
    # is not returned
    monkeypatch.setattr(dephasing, "_tail_cutoff", lambda bound, omega_max, goal: omega_max)
    with pytest.raises(ToleranceNotMet) as info:
        kernel(bath, t)
    assert not _within_contract(info.value.value, info.value.error)


def test_tail_cutoff_lands_within_its_resolution():
    # e^(-W) meets 1e-10 from W = ln(1e10) = 23.03 on: from a start of 1 the
    # search returns a cutoff within 2^(1/8) of it, and a start that already
    # meets the goal as it is
    least = math.log(1e10)
    assert least <= dephasing._tail_cutoff(lambda w: math.exp(-w), 1.0, 1e-10) <= (
        2.0 ** 0.125 * least)
    assert dephasing._tail_cutoff(lambda w: math.exp(-w), 30.0, 1e-10) == 30.0


_TAIL_CUTOFF_BATHS = (
    [BathSpec(PowerLawExpCutoff(0.7, s, 1.7), temp) for s in (0.3, 1.0, 3.0)
     for temp in (ZeroTemperature(), FiniteBeta(1.0 / 1.7))]
    + [BathSpec(PowerLawExpCutoff(0.7, 1.0, 1.7), HighTemperatureOhmic(0.1 / 1.7)),
       BathSpec(Lorentzian(1.0, 0.5))])


def test_tail_cutoff_guarantee_on_the_quadratures(monkeypatch):
    # every search the quadratures make returns a cutoff W whose bound meets
    # the goal while the bound 2^(1/8) lower misses it (unless W is the
    # start), that is within 2^(1/8) of the least cutoff from the start, in
    # about 4 calls of the bound
    searches = []
    search = dephasing._tail_cutoff

    def recorded(bound, start, goal):
        calls = []
        w = search(lambda v: calls.append(v) or bound(v), start, goal)
        searches.append((bound, start, goal, w, len(calls)))
        return w
    monkeypatch.setattr(dephasing, "_tail_cutoff", recorded)
    for bath in _TAIL_CUTOFF_BATHS:
        spec = bath.spectral
        fast = spec.omega_c if isinstance(spec, PowerLawExpCutoff) else spec.g
        for kernel in (gamma_quadrature, dgamma_quadrature):
            for t in (0.01, 1.0, 30.0):
                assert _within_contract(*kernel(bath, t / fast))
    assert len(searches) >= 2 * 3 * len(_TAIL_CUTOFF_BATHS)
    for bound, start, goal, w, calls in searches:
        assert bound(w) <= goal
        assert w == start or bound(w / 2.0 ** 0.125) > goal
        assert calls <= 8
    assert sum(calls for *_, calls in searches) <= 4.5 * len(searches)


def test_tail_cutoff_of_a_bound_that_never_meets_its_goal():
    # a finite cutoff past 2^200 times the start, which seeding then refuses
    # with a typed error
    calls = []
    w = dephasing._tail_cutoff(lambda v: calls.append(v) or 1.0, 3.0, 0.5)
    assert 3.0 * 2.0 ** 200 <= w < math.inf
    assert len(calls) == 51


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tail_cutoff_stops_on_a_bound_that_is_not_finite(bad):
    calls = []
    assert dephasing._tail_cutoff(lambda w: calls.append(w) or bad, 3.0, 1.0) == 3.0
    assert calls == [3.0]


@pytest.mark.parametrize("kernel", [gamma_quadrature, dgamma_quadrature],
                         ids=["gamma", "dgamma"])
def test_quadrature_past_the_panel_budget_raises_typed_error(kernel):
    # alpha wc = 1e310 overflows a float, the tail bound taken in logarithms
    # does not, and its cutoff needs some 2e10 panels two periods wide
    bath = BathSpec(PowerLawExpCutoff(1e300, 1.0, 1e10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotMet, match=r"^seeding would need \d+ panels"):
            kernel(bath, 1.0)


@pytest.mark.parametrize("kernel", [gamma_quadrature, dgamma_quadrature],
                         ids=["gamma", "dgamma"])
def test_sub_ohmic_finite_beta_quadrature_at_long_times(kernel):
    # s = 0.05, beta = wc = 1, t = 30: from the tail start of 800 wc this
    # needed 4178 seeded panels; its tail bound meets the goal below 17 wc
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.05, 1.0), FiniteBeta(1.0))
    value, err = kernel(bath, 30.0)
    closed = (bath.spectral.dgamma if kernel is dgamma_quadrature
              else bath.spectral.gamma)(bath, 30.0)
    assert _within_contract(value, err)
    assert _within_contract(value, abs(value - closed))


def test_quadrature_of_a_steep_power_law():
    # at s = 150, x^s overflows from x ~ 113 on, where J does not, and the
    # tail bound's x^(s-2) at x = 760 before e^(-x) tamed it
    bath = BathSpec(PowerLawExpCutoff(1.0, 150.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(spectral_density(bath.spectral, np.array([113.0, 760.0]))).all()
        value, err = gamma_quadrature(bath, 1.0)
    closed = bath.spectral.gamma(bath, 1.0)
    assert closed == 1.2781619589364327e+258
    assert _within_contract(value, err)
    assert _within_contract(value, abs(value - closed))


# (bath, quadrature / closed form) in every family and temperature mode with a
# bath integral
SHORT_TIME_BATHS = [
    (BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0)), 1.0),
    (BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)), 0.5),
    (BathSpec(PowerLawExpCutoff(1.0, 3.0, 1.0)), 1.0),
    (BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(2.0)), 1.0),
    (BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), FiniteBeta(2.0)), 1.0),
    (BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), HighTemperatureOhmic(2.0)), 1.0),
    (BathSpec(Lorentzian(1.0, 0.5)), 1.0),
]


@pytest.mark.parametrize("t", [1e-80, 1e-120, 1e-170, 1e-300])
@pytest.mark.parametrize("kernel", [gamma_quadrature, dgamma_quadrature],
                         ids=["gamma", "dgamma"])
@pytest.mark.parametrize("bath,factor", SHORT_TIME_BATHS,
                         ids=["s0.5", "ohmic", "s3", "s0.5-beta", "ohmic-beta", "high-T",
                              "lorentzian"])
def test_quadrature_at_short_times(bath, factor, kernel, t):
    # the head bound's t^2 underflows from t ~ 3e-162 down, and the
    # Lorentzian's tail cutoff 20/t is past 1e154, where its square overflows;
    # gamma itself underflows to 0 from t ~ 1e-162 down, where no estimate
    # meets a tolerance of 0
    closed = (bath.spectral.dgamma if kernel is dgamma_quadrature
              else bath.spectral.gamma)(bath, t)
    for settings in (QuadratureSettings(), QuadratureSettings(abs_tol=0.0)):
        if closed == 0.0 and settings.abs_tol == 0.0:
            with pytest.raises(ToleranceNotMet):
                kernel(bath, t, settings)
            continue
        value, err = kernel(bath, t, settings)
        tol = max(settings.abs_tol, settings.rel_tol * abs(value))
        assert err <= tol
        assert abs(value - factor * closed) <= tol


# (scale, bath, the same bath at unit scale): gamma at time 1/scale is the unit
# bath's gamma at t = 1, and gamma' is scale times its own
SCALED_BATHS = [
    (1e100, BathSpec(PowerLawExpCutoff(1.0, 3.0, 1e100)),
     BathSpec(PowerLawExpCutoff(1.0, 3.0, 1.0))),
    (1e170, BathSpec(PowerLawExpCutoff(1.0, 1.0, 1e170)),
     BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0))),
    (1e-140, BathSpec(PowerLawExpCutoff(1.0, 3.0, 1e-140), FiniteBeta(2e140)),
     BathSpec(PowerLawExpCutoff(1.0, 3.0, 1.0), FiniteBeta(2.0))),
    (1e300, BathSpec(PowerLawExpCutoff(1.0, 0.5, 1e300), FiniteBeta(2e-300)),
     BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(2.0))),
    (1e120, BathSpec(Lorentzian(1e240, 1e120)), BathSpec(Lorentzian(1.0, 1.0))),
    (1e-120, BathSpec(Lorentzian(1e-240, 1e-120)), BathSpec(Lorentzian(1.0, 1.0))),
]


@pytest.mark.parametrize("kernel", [gamma_quadrature, dgamma_quadrature],
                         ids=["gamma", "dgamma"])
@pytest.mark.parametrize("scale,bath,unit", SCALED_BATHS,
                         ids=["s3-1e100", "ohmic-1e170", "s3-beta-1e-140", "s0.5-beta-1e300",
                              "lorentzian-1e120", "lorentzian-1e-120"])
def test_quadrature_is_scale_free(scale, bath, unit, kernel):
    # at these scales the head bound's c, J = alpha wc^(1-s) w^s e^(-w/wc),
    # a g of the Lorentzian, u^2 = sin^2(wt/2)/w^2 or J W over- or underflow
    # where the integral itself does not
    value, err = kernel(bath, 1.0 / scale)
    expected = kernel(unit, 1.0)[0] * (scale if kernel is dgamma_quadrature else 1.0)
    assert _within_contract(value, err)
    assert value == pytest.approx(expected, rel=2e-9)


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
