import dataclasses
import fractions
import math
import pickle
import warnings

import numpy as np
import pytest

from ramsey_bounds import metrology, oracle
from ramsey_bounds.dephasing import (
    BathSpec,
    ClosedForm,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    Quadrature,
    ZeroTemperature,
    dgamma_dt,
    gamma_closed,
    gamma_quadrature,
    spectral_density,
)
from ramsey_bounds.errors import (
    DegenerateSignal,
    DomainError,
    NoFiniteOptimum,
    ToleranceNotMet,
)
from ramsey_bounds.metrology import (
    ProbeSpec,
    fisher_information,
    frequency_variance,
    ohmic_exact_ratio,
    optimal_interrogation,
    optimal_resolution,
    ramsey_probability,
    ratio_r,
)
from ramsey_bounds.numerics import QuadratureSettings
from regime_formulas import (
    lorentzian_newton_refined,
    lorentzian_newton_time,
    power_law_scaling,
)


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


def test_fisher_information_is_the_single_shot_variance_inverted():
    # F = t^2 sin^2 e^(-2 gamma) / (1 - cos^2 e^(-2 gamma)), the formula
    # written out, on scattered points, at negative t, and where e^(2 gamma)
    # overflows (F then underflows to 0 or is taken in logarithms)
    rng = np.random.default_rng(5)
    for _ in range(50):
        phi, t, gam = rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0), rng.uniform(0.0, 5.0)
        c, decay = math.cos(phi * t), math.exp(-2.0 * gam)
        want = t * t * (1.0 - c * c) * decay / (1.0 - c * c * decay)
        assert fisher_information(phi, t, gam) == pytest.approx(want, rel=1e-12)
    assert fisher_information(math.pi / 2.0, -1.0, 400.0) == pytest.approx(
        math.exp(-800.0), rel=1e-12)
    assert fisher_information(math.pi / 2.0, -1.0, 1e4) == 0.0


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


def test_variance_where_n_m_T_t_overflows():
    # e^(2 gamma)/(n m T t) at the product and GHZ operating points, with
    # n m T t past the largest float; taken in logarithms
    deph = ohmic(0.4)
    for n, strategy, t, T in [(1, "product", 1e200, 1e200), (3, "ghz", 1e50, 1e300),
                              (16, "ghz", 10.0, 1e308)]:
        probe = ProbeSpec(n, T, strategy)
        m = probe.m
        v = frequency_variance(math.pi / (2.0 * m * t), t, probe, deph)
        want = math.exp(2.0 * m * deph.gamma(t) - math.log(n * m * t) - math.log(T))
        assert v == pytest.approx(want, rel=1e-12, abs=0.0)


def test_variance_where_the_decay_factor_overflows():
    # e^(2 m gamma) overflows where e^(2 m gamma)/(n m T t sin^2) need not:
    # the quotient is taken in logarithms, and where it overflows too it is inf
    deph = ohmic(0.4)
    for n, strategy, t, T, theta in [(3, "ghz", 1e150, 1e300, math.pi / 2.0),
                                     (2, "ghz", 1e300, 1e300, math.pi / 3.0),
                                     (40, "ghz", 1e10, 1e12, 1.0),
                                     (4, "ghz", 1e200, 1e300, 0.01)]:
        probe = ProbeSpec(n, T, strategy)
        m = probe.m
        gam = deph.gamma(t)
        with pytest.raises(OverflowError):
            math.exp(2.0 * m * gam)
        v = frequency_variance(theta / (m * t), t, probe, deph)
        log_want = (2.0 * m * gam - math.log(n) - math.log(m) - math.log(T) - math.log(t)
                    - 2.0 * math.log(math.sin(theta)))
        assert 0.0 < v < math.inf
        assert v == pytest.approx(math.exp(log_want), rel=1e-11, abs=0.0)
    v = frequency_variance(math.pi / (2.0 * 3 * 1e150), 1e150, ProbeSpec(3, 1e300, "ghz"),
                           DephasingModel(BathSpec(PowerLawExpCutoff(0.4, 1, 1))))
    assert v == pytest.approx(1.11e-91, rel=1e-3)
    # a quotient past the largest float is inf, as before
    probe = ProbeSpec(7, 1e300, "ghz")
    assert frequency_variance(math.pi / 14e300, 1e300, probe, deph) == math.inf


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
    (gamma_closed, (ohmic(), "1")),
    (gamma_closed, (ohmic(), np.array(["0.5", "1"]))),
    (DephasingModel.gamma, (ohmic(), "1")),
    (dgamma_dt, (ohmic(), "1")),
    (dgamma_dt, (ohmic(), [0.5, fractions.Fraction(1, 2)])),
    (spectral_density, (PowerLawExpCutoff(1.0, 1.0, 1.0), "1")),
    (spectral_density, (PowerLawExpCutoff(1.0, 1.0, 1.0), True)),
    (gamma_closed, (ohmic(), True)),
    (gamma_quadrature, (BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)), True)),
    (frequency_variance, (1.0, "1", ProbeSpec(1, 1.0), ohmic())),
    (frequency_variance, ("1", 1.0, ProbeSpec(1, 1.0), ohmic())),
    (frequency_variance, (1.0, np.array([1.0, 2.0]), ProbeSpec(1, 1.0), ohmic())),
    (frequency_variance, (True, 1.0, ProbeSpec(1, 1.0), ohmic())),
], ids=["gamma-nan", "gamma-inf", "gamma-2d-nan", "dgamma-inf", "dgamma-neg-inf",
        "dgamma-generic-nan", "variance-phi-nan", "variance-phi-inf",
        "variance-t-nan", "variance-t-inf", "density-nan", "density-inf",
        "density-array-nan", "gamma-str", "gamma-array-str", "model-gamma-str",
        "dgamma-str", "dgamma-object-array", "density-str", "density-bool", "gamma-bool",
        "quad-bool", "variance-t-str", "variance-phi-str", "variance-t-array",
        "variance-phi-bool"])
def test_nonfinite_time_and_phase_rejected(fn, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            fn(*args)


FV_MODEL = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 0.7, 1.0)))


@pytest.mark.parametrize("fn,args", [
    (ProbeSpec, (math.nan, 1.0)),
    (ProbeSpec, (2.5, 1.0)),
    (ProbeSpec, (True, 1.0)),
    (ohmic_exact_ratio, (math.nan, 2)),
    (ohmic_exact_ratio, (2.0, math.inf)),
    (power_law_scaling, (math.nan, 2)),
    (lorentzian_newton_time, (math.nan, 1.0)),
    (lorentzian_newton_refined, (1.0, math.inf)),
    (fisher_information, (math.nan, 1.0, 0.1)),
    (fisher_information, (1.0, math.inf, 0.1)),
    (fisher_information, (1.0, 1.0, math.nan)),
    (fisher_information, (1.0, 1.0, -1.0)),
    (fisher_information, (math.pi / 2.0, 1.0, -1.0)),
    (ramsey_probability, (math.nan, 1.0, 0.0)),
    (ramsey_probability, (1.0, math.nan, 0.0)),
    (ramsey_probability, (1.0, 1.0, math.inf)),
    (ramsey_probability, (1.0, 1.0, -1.0)),
    (ramsey_probability, (np.array([1.0, math.nan]), 1.0, 0.0)),
    (QuadratureSettings, (math.nan,)),
    (QuadratureSettings, (None,)),
    (PowerLawExpCutoff, (True, 1.0, 1.0)),
    (FiniteBeta, ("1",)),
    (ProbeSpec, (1, True)),
    (ProbeSpec, (1, "1")),
    (fisher_information, (np.array([1.0, 2.0]), 1.0, 0.1)),
    (ramsey_probability, ("1", 1.0, 0.1)),
    (ohmic_exact_ratio, ("1", 2)),
    (ohmic_exact_ratio, (1.0, True)),
    (ProbeSpec, ("3", 1.0)),
    (ProbeSpec, (np.bool_(True), 1.0)),
    (ratio_r, (FV_MODEL, True)),
    (ratio_r, (FV_MODEL, 0)),
    (ratio_r, (FV_MODEL, -3)),
    (ratio_r, (FV_MODEL, 2.5)),
    (ratio_r, (FV_MODEL, "3")),
    (ratio_r, (FV_MODEL, np.int64(0))),
], ids=["probe-n-nan", "probe-n-2.5", "probe-n-bool", "ohmic-alpha-nan", "ohmic-n-inf",
        "scaling-nu-nan", "newton-a-nan", "refined-g-inf", "fisher-phi-nan",
        "fisher-t-inf", "fisher-gamma-nan", "fisher-gamma-neg", "fisher-gamma-neg-half-pi",
        "probability-phi-nan", "probability-t-nan", "probability-gamma-inf",
        "probability-gamma-neg", "probability-array-phi-nan", "quad-rel-tol-nan",
        "quad-rel-tol-none", "powerlaw-alpha-bool", "beta-str", "probe-time-bool",
        "probe-time-str", "fisher-phi-array", "probability-phi-str", "ohmic-alpha-str",
        "ohmic-n-bool", "probe-n-str", "probe-n-numpy-bool", "ratio-n-bool", "ratio-n-0",
        "ratio-n-neg", "ratio-n-float", "ratio-n-str", "ratio-n-int64-0"])
def test_nonfinite_parameter_or_count_rejected(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


# each kind of real scalar, built from a float x
SCALAR_KINDS = {"0d": np.array, "float32": np.float32, "int64": np.int64,
                "fraction": fractions.Fraction}
FV_PROBE = ProbeSpec(2, 3.0)
THERMAL_BATH = BathSpec(PowerLawExpCutoff(1.0, 0.7, 1.0), FiniteBeta(2.0))


@pytest.mark.parametrize("call,kinds", [
    (lambda v: frequency_variance(v, 0.5, FV_PROBE, FV_MODEL), "0d float32 int64 fraction"),
    (lambda v: frequency_variance(1.0, v, FV_PROBE, FV_MODEL), "0d int64"),
    (lambda v: ohmic_exact_ratio(v, 3), "0d float32 int64 fraction"),
    (lambda v: ohmic_exact_ratio(1.5, v), "0d float32 int64 fraction"),
    (lambda v: oracle.reference_gamma(THERMAL_BATH, v), "0d int64 fraction"),
    (lambda v: gamma_quadrature(THERMAL_BATH, v), "0d float32 int64"),
], ids=["variance-phi", "variance-t", "ohmic-alpha", "ohmic-n", "reference-gamma",
        "quadrature"])
def test_real_scalars_give_the_bits_of_their_float(call, kinds):
    # what was accepted stays accepted: each kind gives its float's bits
    for kind in kinds.split():
        assert call(SCALAR_KINDS[kind](2.0)) == call(2.0), kind


def test_scalars_are_read_as_their_float():
    # a float32 time or a Fraction phase is its float, with no float32
    # arithmetic and no Fraction left on the way
    assert (frequency_variance(1.0, np.float32(2.0), FV_PROBE, FV_MODEL)
            == frequency_variance(1.0, 2.0, FV_PROBE, FV_MODEL))
    assert (frequency_variance(1.0, fractions.Fraction(1, 2), FV_PROBE, FV_MODEL)
            == frequency_variance(1.0, 0.5, FV_PROBE, FV_MODEL))
    assert oracle.reference_gamma(THERMAL_BATH, np.float32(0.1)) == oracle.reference_gamma(
        THERMAL_BATH, float(np.float32(0.1)))
    spec = PowerLawExpCutoff(np.array(1.0), fractions.Fraction(7, 10), np.int64(1))
    assert spec == PowerLawExpCutoff(1.0, 0.7, 1.0)
    assert all(type(v) is float for v in dataclasses.astuple(spec))
    assert type(ProbeSpec(2, np.float32(3.0)).total_time) is float
    # a time of the dephasing module is read as numpy reads it
    with pytest.raises(DomainError):
        gamma_closed(FV_MODEL, fractions.Fraction(1, 2))


def test_counts_are_read_as_python_ints():
    # an int, a numpy integer and (for ratio_r) a 0-d int array are one count,
    # stored or used as its Python int
    probe = ProbeSpec(np.int64(3), 1.0, "ghz")
    assert type(probe.n) is int and probe == ProbeSpec(3, 1.0, "ghz")
    assert type(probe.m) is int
    want = dataclasses.astuple(ratio_r(FV_MODEL, 3))
    for n in (np.int64(3), np.uint8(3), np.array(3)):
        assert dataclasses.astuple(ratio_r(FV_MODEL, n)) == want, repr(n)


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


def test_rescue_search_finds_narrow_window(monkeypatch):
    # couple the bath 1e-5 above and below its threshold
    above, below = s3_near_threshold(1e-5), s3_near_threshold(-1e-5)
    walks = []
    rescue = metrology._rescue_search

    def recorded(h, ts, hv):
        walks.append((ts, hv))
        return rescue(h, ts, hv)

    monkeypatch.setattr(metrology, "_rescue_search", recorded)
    # the walk steps over the narrow positive window to the window's end ...
    t = optimal_interrogation(above, 1)
    (ts, hv), = walks
    spec = above.bath.spectral
    lo, hi = spec.root_window(above.bath.temperature, 1)
    assert ts[0] < lo and ts[-1] >= hi and len(ts) > 2
    assert max(hv) < 0.0
    # ... so only the ternary refinement of the hump can find the root
    assert abs(2.0 * t * above.dgamma_dt(t) - 1.0) <= 1e-10
    assert t == pytest.approx(0.62647, abs=1e-5)
    with pytest.raises(NoFiniteOptimum):
        optimal_interrogation(below, 1)
    assert len(walks) == 2


def test_static_bath_root_is_the_zeno_bound():
    # gamma = a t^2 / 8 is purely quadratic: the root of 2 m t gamma' = 1
    # is the lower end of the window, 1/(2 sqrt(m c2)) = sqrt(2/(m a))
    for a in (0.3, 2.0, 7.5):
        deph = generic(a / 8.0, 2.0)
        for m in (1, 2, 17, 1000):
            lo, hi = deph.bath.spectral.root_window(deph.bath.temperature, m)
            assert lo == pytest.approx(math.sqrt(2.0 / (m * a)), rel=1e-15)
            assert optimal_interrogation(deph, m) == pytest.approx(lo, rel=1e-12)


def count_lane_evaluations(monkeypatch):
    """The times at which the lanes' float gamma' functions are evaluated."""
    calls = []
    bind = ClosedForm.dgamma_function

    def counted_bind(self, bath):
        dgamma = bind(self, bath)

        def counted(t):
            calls.append(t)
            return dgamma(t)
        return counted

    monkeypatch.setattr(ClosedForm, "dgamma_function", counted_bind)
    return calls


def test_ohmic_below_threshold_walks_nothing(monkeypatch):
    # 2 m t gamma' rises to 2 m alpha <= 1: no root, proved without a walk
    calls = count_lane_evaluations(monkeypatch)
    assert optimal_interrogation(ohmic(1.0), 1) == pytest.approx(1.0, rel=1e-10)
    assert calls
    calls.clear()
    for alpha, m in ((0.4, 1), (0.5, 1), (0.25, 2), (1e-3, 500)):
        with pytest.raises(NoFiniteOptimum):
            optimal_interrogation(ohmic(alpha), m)
    assert not calls


def test_super_ohmic_between_thresholds_walks_nothing(monkeypatch):
    # at s = 3 the peak bound m alpha Gamma(s) B(s) proves no root where the
    # older m alpha Gamma(s) <= 1 did not: the lane evaluates gamma' not once
    calls = count_lane_evaluations(monkeypatch)
    b3 = peak_bound(3.0)
    for scale in (0.5 / b3, 0.999 / b3, (1.0 - 1e-9) / b3):
        spec = PowerLawExpCutoff(scale / math.gamma(3.0), 3.0, 1.7)
        assert scale > 1.0 and spec.root_window(ZeroTemperature(), 1) is None
        with pytest.raises(NoFiniteOptimum):
            optimal_interrogation(DephasingModel(BathSpec(spec)), 1)
        assert np.isnan(optimal_interrogation(DephasingModel(BathSpec(spec)), [1.0, 1.0])).all()
    assert not calls
    # a coupling whose bound is above 1 still walks: the true peak is 1.6 %
    # below the bound at s = 3, so the bath 1e-5 below its threshold walks
    # and finds no root (the rescue search)
    with pytest.raises(NoFiniteOptimum):
        optimal_interrogation(s3_near_threshold(-1e-5), 1)
    assert calls


def test_peak_bound_proves_no_root():
    # for s in (1, 6], wherever the T = 0 window is None, a dense scan of the
    # closed-form 2 m t gamma' stays below 1
    rng = np.random.default_rng(24)
    x = np.geomspace(1e-4, 1e4, 40001)
    nones = 0
    for _ in range(200):
        s = rng.uniform(1.0 + 1e-6, 6.0)
        m = float(rng.choice([1, 2, 7, 100]))
        wc = 10.0 ** rng.uniform(-1.0, 1.0)
        # couplings around the threshold 1/(m Gamma(s) B(s))
        alpha = 10.0 ** rng.uniform(-0.3, 0.3) / (m * math.gamma(s) * peak_bound(s))
        spec = PowerLawExpCutoff(alpha, s, wc)
        if spec.root_window(ZeroTemperature(), m) is not None:
            continue
        nones += 1
        ts = x / wc
        assert (2.0 * m * ts * spec.dgamma(ZeroTemperature(), ts) < 1.0).all(), (s, m, alpha)
    assert 60 < nones < 140
    # the bound is exact at s = 2: just above m alpha = 2 a window remains,
    # and the walk finds its root; at m alpha = 2 it finds the tangent point
    # x = 1, and just below it the window is None
    for m in (1, 4):
        for scale, x in ((1.0 + 1e-9, 0.99995), (1.0, 1.0)):
            deph = DephasingModel(BathSpec(PowerLawExpCutoff(2.0 * scale / m, 2.0, 1.3)))
            assert deph.bath.spectral.root_window(ZeroTemperature(), m) is not None
            assert optimal_interrogation(deph, m) * 1.3 == pytest.approx(x, abs=1e-4)
        spec = PowerLawExpCutoff(2.0 * (1.0 - 1e-9) / m, 2.0, 1.3)
        assert spec.root_window(ZeroTemperature(), m) is None


def unbound_dgamma(spec, temp, t):
    """gamma'(t) on a float as the families wrote it before their constants
    were bound: each term's a r, r wc and p worked out at the call."""
    if isinstance(spec, Lorentzian):
        return float(spec.a / (4.0 * spec.g) * (-np.expm1(-spec.g * t)))
    if isinstance(spec, GenericPowerLawDephasing):
        return float(spec.alpha * spec.nu * np.asarray(t) ** (spec.nu - 1.0))

    def kernel_dt(p, x):
        if not p:
            return math.atan(x)
        if x <= 1.0:
            sin_p_atan = math.sin(p * math.atan(x))
        else:
            k = math.floor(0.5 * p + 0.5)
            sign = -1.0 if k % 2 else 1.0
            sin_p_atan = math.sin(sign * math.pi * (0.5 * p - k)
                                  - sign * p * math.atan2(1.0, x))
        return sin_p_atan / p * math.hypot(1.0, x) ** -p

    wc, terms = spec.omega_c, spec._terms(temp)
    parts = [(a * r) * kernel_dt(p, r * wc * t) for a, p, r in terms]
    return wc * (parts[0] if len(parts) == 1 else math.fsum(parts))


LANE_BATHS = [BathSpec(PowerLawExpCutoff(1.3, s, 0.7), temp)
              for s in (0.3, 0.5, 1.0, 1.0 + 1e-8, 2.2, 3.0, 5.5)
              for temp in (ZeroTemperature(), FiniteBeta(0.4), FiniteBeta(9.0))]
LANE_BATHS += [BathSpec(PowerLawExpCutoff(0.8, 1.0, 2.0), HighTemperatureOhmic(0.5)),
               BathSpec(Lorentzian(1.7, 0.3)),
               *(BathSpec(GenericPowerLawDephasing(0.9, nu), temp)
                 for nu in (0.6, 1.0, 1.5, 2.0, 2.7)
                 for temp in (ZeroTemperature(), FiniteBeta(1.0)))]


@pytest.mark.parametrize("bath", LANE_BATHS, ids=lambda bath: f"{bath.spectral}-{bath.temperature}")
def test_lane_function_gives_the_bits_of_dgamma_dt(bath):
    # the lane's float function, the float dgamma_dt and the unbound formula
    # agree bit for bit on times across twelve decades, and give Python floats
    lane = ClosedForm().dgamma_function(bath)
    deph = DephasingModel(bath)
    for t in (np.geomspace(1e-6, 1e6, 241) * (1.0 + 1e-3)).tolist() + [0.5, 1.0, 2.0]:
        got = lane(t)
        assert type(got) is float
        assert got == unbound_dgamma(bath.spectral, bath.temperature, t), t
        assert dgamma_dt(deph, t) == got
        assert deph.dgamma_at(t) == got


def test_model_binds_its_gamma_prime_once(monkeypatch):
    # the lanes of a sweep and the float dgamma_dt read one bound gamma'
    binds = []
    bind = ClosedForm.dgamma_function

    def counted_bind(self, bath):
        binds.append(bath)
        return bind(self, bath)

    monkeypatch.setattr(ClosedForm, "dgamma_function", counted_bind)
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(2.0)))
    assert np.isfinite(ratio_r(deph, np.arange(1, 51)).r).all()
    for t in np.geomspace(1e-2, 1e2, 100).tolist():
        assert dgamma_dt(deph, t) == deph.dgamma_at(t)
    assert binds == [deph.bath]


@pytest.mark.parametrize("use", ["dgamma_dt", "optimal_interrogation", "ratio_r"])
@pytest.mark.parametrize("route", [ClosedForm(), Quadrature()], ids=["closed", "quad"])
@pytest.mark.parametrize("spec", [PowerLawExpCutoff(2.0, 2.0, 1.3), Lorentzian(1.0, 0.5)],
                         ids=["s2", "lorentzian"])
def test_used_model_pickles(spec, route, use):
    # a model that has bound its gamma' (a closure) and its product optimum
    # pickles from its fields, and the copy is equal, hashes equal and gives
    # the same bits
    deph = DephasingModel(BathSpec(spec), route)
    if use == "dgamma_dt":
        deph.dgamma_dt(0.7)
    elif use == "optimal_interrogation":
        optimal_interrogation(deph, 3)
    else:
        ratio_r(deph, 3)
        assert "product_optimum" in vars(deph)
    assert "dgamma_at" in vars(deph)
    # the quadrature route binds its bath's problem (a closure) too
    assert ("quad_problem" in vars(deph.bath)) == isinstance(route, Quadrature)
    copy = pickle.loads(pickle.dumps(deph))
    assert copy == deph and hash(copy) == hash(deph)
    assert copy.dgamma_dt(0.7).hex() == deph.dgamma_dt(0.7).hex()
    assert optimal_interrogation(copy, 3).hex() == optimal_interrogation(deph, 3).hex()
    assert repr(ratio_r(copy, 3)) == repr(ratio_r(deph, 3))


def count_product_lanes(monkeypatch, name):
    """The models whose product lane (m = 1) metrology's ``name`` (the lane
    solver, or the constraint it builds) takes."""
    taken = []
    original = getattr(metrology, name)

    def counted(deph, m):
        if m == 1.0:
            taken.append(deph)
        return original(deph, m)

    monkeypatch.setattr(metrology, name, counted)
    return taken


def test_product_optimum_is_solved_once_per_model(monkeypatch):
    # scalar ratio_r and product optimal_resolution calls on one model solve
    # its product lane once, on the first call, and read it after
    built = count_product_lanes(monkeypatch, "_constraint")
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.2, 0.7, 1.5), FiniteBeta(3.0)))
    for n in range(1, 17):
        assert ratio_r(deph, n).t_u == deph.product_optimum[0]
        res = optimal_resolution(deph, ProbeSpec(n, 10.0, "product"))
        assert res.t_opt == deph.product_optimum[0]
    assert built == [deph]


def test_used_product_resolution_evaluates_gamma_once(monkeypatch):
    # a model that holds its product optimum evaluates gamma at T alone: the
    # root's gamma is the one it holds, with the same bits
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.2, 0.7, 1.5), FiniteBeta(3.0)))
    fresh = optimal_resolution(deph, ProbeSpec(3, 10.0, "product"))
    times = []
    gamma = ClosedForm.gamma

    def counted(self, bath, t):
        times.append(t)
        return gamma(self, bath, t)

    monkeypatch.setattr(ClosedForm, "gamma", counted)
    used = optimal_resolution(deph, ProbeSpec(3, 10.0, "product"))
    assert times == [10.0]
    assert repr(used) == repr(fresh) and not used.boundary_limited


# Ohmic alpha = 2 at T = 0: the quadrature route's gamma is half the closed
# form's, and its product lane has a root above alpha = 1
PRODUCT_BATHS = {
    "ohmic": BathSpec(PowerLawExpCutoff(2.0, 1.0, 1.3)),
    "sub-ohmic-beta": BathSpec(PowerLawExpCutoff(1.0, 0.6, 1.0), FiniteBeta(2.0)),
    "s3-beta": BathSpec(PowerLawExpCutoff(2.0, 3.0, 1.0), FiniteBeta(4.0)),
    "high-T": BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), HighTemperatureOhmic(2.0)),
    "lorentzian": BathSpec(Lorentzian(1.0, 0.5)),
    "nu2": BathSpec(GenericPowerLawDephasing(0.25, 2.0)),
    "nu1.5": BathSpec(GenericPowerLawDephasing(1.0, 1.5)),
    "nu1.5-beta": BathSpec(GenericPowerLawDephasing(1.0, 1.5), FiniteBeta(1.0)),
}


@pytest.mark.parametrize("route", [ClosedForm(), Quadrature()], ids=["closed", "quad"])
@pytest.mark.parametrize("bath", PRODUCT_BATHS.values(), ids=PRODUCT_BATHS.keys())
def test_bound_product_optimum_gives_the_bits_of_a_fresh_model(bath, route):
    # each call on a used model, scalar ratio_r and product optimal_resolution
    # alike, gives the bits of the same call on a fresh model
    if isinstance(route, Quadrature) and isinstance(bath.spectral, GenericPowerLawDephasing):
        pytest.skip("no spectral density to integrate: the generic power law has "
                    "closed forms alone")
    used = DephasingModel(bath, route)
    for n, budget in ((2, 3.0), (5, 0.2), (2, 40.0)):
        probe = ProbeSpec(n, budget, "product")
        for call in (lambda deph: ratio_r(deph, n),
                     lambda deph: optimal_resolution(deph, probe)):
            assert repr(call(used)) == repr(call(DephasingModel(bath, route)))
    assert "product_optimum" in vars(used)


def test_rootless_product_lane_raises_on_every_call(monkeypatch):
    # Ohmic alpha = 0.4 has no product optimum: the model binds that once,
    # and every scalar call still raises
    solved = count_product_lanes(monkeypatch, "_solve_lane")
    deph = ohmic(0.4)
    for _ in range(3):
        with pytest.raises(NoFiniteOptimum):
            ratio_r(deph, 2)
        with pytest.raises(NoFiniteOptimum):
            optimal_interrogation(deph, 1)
        res = optimal_resolution(deph, ProbeSpec(1, 2.0, "product"))
        assert not res.finite and res.t_opt == 2.0
        assert np.isnan(ratio_r(deph, np.arange(1, 4)).r).all()
    assert all(math.isnan(x) for x in deph.product_optimum)
    assert solved == [deph]


@pytest.mark.parametrize("use", ["ratio_r", "optimal_resolution"])
def test_failed_product_solve_binds_nothing(use, monkeypatch):
    # a gamma' that fails once fails the first call; the next call solves
    # the product lane again and gives the bits of a fresh model
    failures = []
    bind = ClosedForm.dgamma_function

    def flaky_bind(self, bath):
        dgamma = bind(self, bath)

        def flaky(t):
            if not failures:
                failures.append(t)
                raise ToleranceNotMet("failed once", value=0.0, error=1.0)
            return dgamma(t)
        return flaky

    monkeypatch.setattr(ClosedForm, "dgamma_function", flaky_bind)
    bath = BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(2.0))
    deph = DephasingModel(bath)
    if use == "ratio_r":
        def call(deph):
            return ratio_r(deph, 4)
    else:
        def call(deph):
            return optimal_resolution(deph, ProbeSpec(4, 5.0, "product"))
    with pytest.raises(ToleranceNotMet):
        call(deph)
    assert "product_optimum" not in vars(deph)
    assert repr(call(deph)) == repr(call(DephasingModel(bath)))
    assert len(failures) == 1 and "product_optimum" in vars(deph)


def test_scalar_and_array_arguments_give_the_same_bits():
    models = [deph for name, deph in SWEEP_MODELS.items() if "below" not in name]
    for deph in (*models, s3_near_threshold(0.2)):
        for k in (1, 2, 7, 64, 1000):
            rows = {dataclasses.astuple(ratio_r(deph, n))
                    for n in (k, np.int64(k), np.uint16(k), np.array(k))}
            one = dataclasses.astuple(ratio_r(deph, np.array([k])))
            assert rows == {tuple(field[0] for field in one)}
            assert all(type(field) is float for field in rows.pop())
            times = {optimal_interrogation(deph, m)
                     for m in (k, float(k), np.int32(k), np.float64(k), np.float32(k))}
            assert times == {optimal_interrogation(deph, np.array([k, 1.0]))[0]}
            assert times == {optimal_interrogation(deph, [1, k])[1]}


def test_multiplier_must_be_a_number():
    deph = ohmic(1.0)
    for m in (True, False, np.True_, "3", b"3", None, 2 + 0j, [True], np.array([True, False]),
              np.array(["3"]), ["3"], [1, True], (2.0, None), np.array([2.0 + 0j]),
              np.array([2], dtype=object), [[2.0]], {2.0}):
        with pytest.raises(DomainError):
            optimal_interrogation(deph, m)
    for m in (3, 3.0, np.int8(3), np.uint64(3), np.float16(3.0), np.float32(3.0),
              np.longdouble(3.0), fractions.Fraction(3)):
        assert optimal_interrogation(deph, m) == optimal_interrogation(deph, 3)
    for m in ([3, 3.0], (3, np.float32(3.0)), np.array([3, 3], dtype=np.uint8),
              np.array([3.0, 3.0], dtype=np.float32)):
        assert optimal_interrogation(deph, m).tolist() == [optimal_interrogation(deph, 3)] * 2
    assert optimal_interrogation(deph, []).shape == (0,)


def test_zeno_bound_beyond_float_range_is_no_optimum():
    # m c2 underflows to 0, so the first root lies past the largest float
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1e-200, 0.5, 1e-100)))
    with pytest.raises(NoFiniteOptimum):
        optimal_interrogation(deph, 1)
    assert np.isnan(ratio_r(deph, np.arange(1, 4)).r).all()


def peak_bound(s):
    """B(s) = (s - 1)^((s-1)/2) / s^(s/2), the peak of x (1 + x^2)^(-s/2)."""
    return (s - 1.0) ** (0.5 * (s - 1.0)) / s ** (0.5 * s)


def test_super_ohmic_window_end():
    # 2 m t gamma' <= m alpha Gamma(s) B(s): no root at all when that is <= 1;
    # and 2 m t gamma' <= m alpha Gamma(s) (1 + wc^2 t^2)^(-(s-1)/2), so none
    # above the window's end
    rng = np.random.default_rng(11)
    for _ in range(40):
        s, wc = rng.uniform(1.05, 5.0), 10.0 ** rng.uniform(-1.0, 1.0)
        scale = 10.0 ** rng.uniform(-0.5, 2.0)
        spec = PowerLawExpCutoff(scale / math.gamma(s), s, wc)
        deph = DephasingModel(BathSpec(spec))
        window = spec.root_window(ZeroTemperature(), 1)
        if scale * peak_bound(s) <= 1.0:
            assert window is None
            with pytest.raises(NoFiniteOptimum):
                optimal_interrogation(deph, 1)
            ts = np.geomspace(1e-6, 1e6, 20001) / wc
            assert (2.0 * ts * deph.dgamma_dt(ts) < 1.0).all()
            continue
        lo, hi = window
        ts = hi * np.geomspace(1.0, 1e6, 2000)
        assert (2.0 * ts * deph.dgamma_dt(ts) < 1.0).all()
        ts = np.geomspace(1e-6 * lo, lo, 2000)
        assert (2.0 * ts * deph.dgamma_dt(ts) < 1.0).all()
    # the bound holds at the threshold itself, and its overflow is no bound
    assert PowerLawExpCutoff(1.0, 2.0, 1.0).root_window(ZeroTemperature(), 1) is None
    spec = PowerLawExpCutoff(2.0, 1.0 + 1e-8, 1.0)
    assert not spec.is_ohmic
    assert spec.root_window(ZeroTemperature(), 1)[1] == math.inf


@pytest.mark.parametrize("route", [ClosedForm(), Quadrature()],
                         ids=["closed", "quad"])
def test_finite_beta_s2_threshold(route):
    # at s = 2, 2 m t gamma' tends to 2 m alpha / (beta wc): above 2 m alpha =
    # beta wc a root exists; at or below it the window ends where 2 m t gamma'
    # falls below its limit for good. At beta wc = 2 the hump never rises
    # above the limit, at beta wc = 10 it does: alpha = 3 has a root below wc t = 1
    for alpha, beta, limit in ((0.9, 2.0, -0.1), (1.0, 2.0, 0.0), (1.1, 2.0, 0.1),
                               (3.0, 10.0, -0.4)):
        bath = BathSpec(PowerLawExpCutoff(alpha, 2.0, 1.0), FiniteBeta(beta))
        deph = DephasingModel(bath, route)
        if isinstance(route, ClosedForm):
            assert 2.0 * 1e7 * deph.dgamma_dt(1e7) - 1.0 == pytest.approx(limit, abs=1e-6)
        lo, hi = bath.spectral.root_window(bath.temperature, 1)
        assert hi == math.inf if limit > 0.0 else hi < 20.0
        if alpha <= 1.0:
            with pytest.raises(NoFiniteOptimum):
                optimal_interrogation(deph, 1)
        else:
            t = optimal_interrogation(deph, 1)
            assert lo <= t <= hi and (beta == 2.0 or t < 1.0)
            assert abs(2.0 * t * deph.dgamma_dt(t) - 1.0) <= 1e-10


def test_finite_beta_s2_window_end():
    # past the window's end 2 t gamma' stays below its limit 2 alpha/(beta wc),
    # so with 2 alpha <= beta wc no root lies there; the hump below it may
    # cross 1 or not
    for beta_wc in np.geomspace(1e-2, 1e2, 17):
        wc = 0.7
        spec = PowerLawExpCutoff(0.5 * beta_wc, 2.0, wc)
        temp = FiniteBeta(beta_wc / wc)
        lo, hi = spec.root_window(temp, 1)
        deph = DephasingModel(BathSpec(spec, temp))
        ts = hi * np.geomspace(1.0, 1e4, 300)
        assert (2.0 * ts * deph.dgamma_dt(ts) < 1.0).all(), beta_wc


def test_finite_beta_window_end():
    # for s > 2 and wc t >= 1, 2 m t gamma' <= m alpha Gamma(s) (1 + 2 C/(beta wc))
    # (wc t)^(2-s): no root above the window's end, nor below its start
    rng = np.random.default_rng(12)
    for _ in range(12):
        s, wc = rng.uniform(2.05, 5.0), 10.0 ** rng.uniform(-1.0, 1.0)
        beta = 10.0 ** rng.uniform(-2.0, 2.0) / wc
        spec = PowerLawExpCutoff(10.0 ** rng.uniform(-1.0, 2.0), s, wc)
        deph = DephasingModel(BathSpec(spec, FiniteBeta(beta)))
        lo, hi = spec.root_window(FiniteBeta(beta), 1)
        assert lo < math.inf and hi >= 1.0 / wc
        if hi < math.inf:
            ts = hi * np.geomspace(1.0, 1e6, 200)
            assert (2.0 * ts * deph.dgamma_dt(ts) < 1.0).all()
        ts = np.geomspace(1e-6 * lo, lo, 200)
        assert (2.0 * ts * deph.dgamma_dt(ts) < 1.0).all()
    # the end overflows close to s = 2
    spec = PowerLawExpCutoff(10.0, 2.0 + 1e-6, 1.0)
    assert spec.root_window(FiniteBeta(1.0), 1)[1] == math.inf


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


@pytest.mark.parametrize("g", [1e-160, 1e-200, 1e-300])
def test_narrow_lorentzian_is_the_static_bath(g):
    # as g falls the Lorentzian tends to gamma = a t^2 / 8, the nu = 2 law,
    # with no g^2 formed on the way (it underflows below g ~ 1e-154)
    for a in (0.3, 2.0, 7.5):
        lorentz = DephasingModel(BathSpec(Lorentzian(a, g)))
        static = generic(a / 8.0, 2.0)
        for t in (0.0, 1e-3, 0.7, 40.0, 1e6):
            assert lorentz.gamma(t) == pytest.approx(static.gamma(t), rel=1e-12, abs=0.0)
        for m in (1, 2, 17, 1000):
            assert optimal_interrogation(lorentz, m) == pytest.approx(
                optimal_interrogation(static, m), rel=1e-12)
        for n in (2, 16, 1000):
            assert ratio_r(lorentz, n).r == pytest.approx(ratio_r(static, n).r, rel=1e-12)


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
    "nu2": generic(0.25, 2.0),
    "nu0.6": generic(0.7, 0.6),
    "nu1.5": generic(1.0, 1.5),
}


@pytest.mark.parametrize("deph", SWEEP_MODELS.values(), ids=SWEEP_MODELS.keys())
def test_array_ratio_matches_per_n_bitwise(deph):
    # every one of 150 rows must carry the bits of the one-n-at-a-time
    # formula and of a scalar call
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


def test_sweep_solves_product_root_once(monkeypatch):
    brackets = []
    solve = metrology.solve_bracketed_root

    def counted(g, bracket, **kwargs):
        brackets.append(bracket)
        return solve(g, bracket, **kwargs)

    monkeypatch.setattr(metrology, "solve_bracketed_root", counted)
    # Ohmic alpha = 1: t_u = 1 and t_e = 1/sqrt(2n - 1) < 0.6 for n >= 2
    res = ratio_r(ohmic(1.0), np.arange(2, 52))
    assert np.allclose(res.t_u, 1.0, rtol=1e-12, atol=0.0)
    assert len(brackets) == 51
    assert sum(lo <= 1.0 <= hi for lo, hi in brackets) == 1


WALK_MODELS = {
    "ohmic": ohmic(1.0, 1.3),
    "s0.6": DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 0.6, 1.0))),
    "ohmic-beta": DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), FiniteBeta(2.0))),
    "s0.6-beta": DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 0.6, 1.0), FiniteBeta(2.0))),
    "high-T": SWEEP_MODELS["high-T"],
    "lorentzian": SWEEP_MODELS["lorentzian"],
    "nu0.6": generic(0.7, 0.6),
    "nu1.5": generic(1.0, 1.5),
}


@pytest.mark.parametrize("deph", WALK_MODELS.values(), ids=WALK_MODELS.keys())
def test_walk_bracket_ends_evaluated_once(deph, monkeypatch):
    # the root solver starts from the walk's values of h at the bracket's
    # ends, and takes them again where a bisection midpoint of a bracket an
    # ulp or two wide rounds onto an end: h sees no time twice
    lanes = []  # per lane: the times h saw, where the solver began, bracket
    constraint, solve = metrology._constraint, metrology.solve_bracketed_root

    def recorded_constraint(deph, m):
        h, seen = constraint(deph, m), []
        lanes.append([seen, None, None])

        def recorded(t):
            seen.append(t)
            return h(t)
        return recorded

    def recorded_solve(g, bracket, **kwargs):
        lanes[-1][1:] = len(lanes[-1][0]), bracket
        return solve(g, bracket, **kwargs)

    monkeypatch.setattr(metrology, "_constraint", recorded_constraint)
    monkeypatch.setattr(metrology, "solve_bracketed_root", recorded_solve)
    # a fresh model: one that another test used has bound its product lane
    deph = DephasingModel(deph.bath, deph.route)
    times = optimal_interrogation(deph, np.array([1.0, 2.0, 10.0, 100.0]))
    assert np.isfinite(times).all() and len(lanes) == 4
    for seen, start, (lo, hi) in lanes:
        walk, solver = seen[:start], seen[start:]
        assert walk[-2:] == [lo, hi]
        assert walk.count(lo) == walk.count(hi) == 1
        assert len(set(seen)) == len(seen)
        # its first step is inside; a 0 at an end (the generic power law's
        # walk can land on its root) returns that end with no step at all
        assert all(lo < t < hi for t in solver[:1])


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
    assert all(field.shape == (0,) for field in dataclasses.astuple(empty))


def test_scalar_calls_return_python_floats():
    # a scalar multiplier or n gives Python floats, and an np.int64 n the
    # bits of its row in the array call
    deph = SWEEP_MODELS["sub-ohmic"]
    assert type(optimal_interrogation(deph, 2)) is float
    assert type(optimal_interrogation(deph, np.float64(2.0))) is float
    one = dataclasses.astuple(ratio_r(deph, np.int64(5)))
    assert all(type(field) is float for field in one)
    table = dataclasses.astuple(ratio_r(deph, np.arange(1, 8)))
    assert one == tuple(field[4] for field in table)


def test_ohmic_exact_ratio_formula():
    assert ohmic_exact_ratio(3.3, 1) == pytest.approx(1.0, rel=1e-14)
    f12 = math.sqrt((9.0 / 8.0) * math.sqrt(1.0 / 3.0))
    assert ohmic_exact_ratio(1.0, 2) == pytest.approx(math.sqrt(2.0) * f12,
                                                      rel=1e-14)
    assert ohmic_exact_ratio(1e4, 10**4) == pytest.approx(10.0, rel=1e-2)
    with pytest.raises(DomainError):
        ohmic_exact_ratio(0.5, 4)


def test_ohmic_sweep_matches_closed_forms():
    for alpha, wc in ((1.0, 1.0), (0.6, 2.0), (2.7, 0.35)):
        ns = np.arange(1, 2001)
        res = ratio_r(ohmic(alpha, wc), ns)
        exact = [ohmic_exact_ratio(alpha, n) for n in ns.tolist()]
        assert np.allclose(res.r, exact, rtol=1e-11, atol=0.0)
        assert np.allclose(res.t_e, 1.0 / (wc * np.sqrt(2.0 * ns * alpha - 1.0)),
                           rtol=1e-11, atol=0.0)
        assert np.allclose(res.t_u, 1.0 / (wc * math.sqrt(2.0 * alpha - 1.0)),
                           rtol=1e-11, atol=0.0)


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


QUAD_OPTIMUM_BATHS = {
    "lorentzian": BathSpec(Lorentzian(1.0, 0.5)),
    "sub-ohmic": BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0)),
    "high-T": BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0), HighTemperatureOhmic(2.0)),
    "finite-beta": BathSpec(PowerLawExpCutoff(1.0, 0.5, 1.0), FiniteBeta(2.0)),
}


@pytest.mark.parametrize("bath", QUAD_OPTIMUM_BATHS.values(),
                         ids=QUAD_OPTIMUM_BATHS.keys())
def test_quadrature_route_reaches_the_optimum(bath):
    deph = DephasingModel(bath, Quadrature())
    res = ratio_r(deph, 4)
    for t, m in ((res.t_u, 1), (res.t_e, 4)):
        assert abs(2.0 * m * t * deph.dgamma_dt(t) - 1.0) <= 1e-10
    assert 1.0 < res.r < 2.0
    closed = ratio_r(DephasingModel(bath), 4)
    for got, want in zip((res.r, res.t_u, res.t_e), (closed.r, closed.t_u, closed.t_e)):
        assert got == pytest.approx(want, rel=1e-8)


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


def lorentzian_r(a, g, n):
    return ratio_r(DephasingModel(BathSpec(Lorentzian(a, g))), n).r


def test_lorentzian_zeno_regime():
    r = lorentzian_r(1.0, 1e-3, 16)
    assert r == pytest.approx(16.0 ** 0.25, rel=0.02)


def test_lorentzian_markov_regime():
    r = lorentzian_r(1e-6, 10.0, 4)
    assert r == pytest.approx(1.0, abs=1e-2)


def test_lorentzian_trivial_n1():
    assert lorentzian_r(2.0, 0.5, 1) == pytest.approx(1.0, rel=1e-12)


# --- high temperature / Zeno diagnostics ----------------------------------------------

def high_temp_ohmic(omega_c=1.0):
    # alpha = beta = 1
    return DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, omega_c),
                                   HighTemperatureOhmic(1.0)))


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
    got = optimal_interrogation(high_temp_ohmic(), n)
    assert got == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_ohmic_ratio_fit_over_large_n():
    ns = np.unique(np.geomspace(1e3, 1e6, 25).astype(int)).astype(float)
    rs = np.array([ohmic_exact_ratio(1.0, n) for n in ns])
    from ramsey_bounds.numerics import fit_power_law

    fit = fit_power_law(ns, rs)
    assert 0.24 <= fit.exponent <= 0.26


def test_high_temp_scaling_in_n():
    wc = 1.0
    a = optimal_interrogation(high_temp_ohmic(omega_c=wc), 1_000_000)
    b = optimal_interrogation(high_temp_ohmic(omega_c=wc), 4_000_000)
    assert b / a == pytest.approx(0.5, rel=1e-6)
    assert wc * a < 0.1 and wc * b < 0.1  # inside the Zeno window
    # the solver lands on the sqrt(beta/(2 alpha n wc)) branch
    assert a * math.sqrt(2e6) == pytest.approx(1.0, rel=1e-5)


def zeno_diagnostic(deph, n, omega_fast):
    """The dimensionless r^2 omega_fast t_e: O(1) in the Zeno regime, and
    omega_fast / (2 sqrt(c2)) for gamma = c2 t^2."""
    res = ratio_r(deph, n)
    return res.r ** 2 * omega_fast * res.t_e


def test_zeno_diagnostic_quadratic_model():
    for (c2, wf, n) in [(0.9, 3.0, 100), (0.25, 1.0, 4)]:
        deph = generic(c2, 2.0)
        got = zeno_diagnostic(deph, n, wf)
        assert got == pytest.approx(wf / (2.0 * math.sqrt(c2)), rel=1e-9)


def test_zeno_diagnostic_ohmic_records_order_one_value():
    deph = ohmic(1.0)
    got = zeno_diagnostic(deph, 10_000, deph.bath.spectral.omega_c)
    assert 0.5 < got < 0.8  # measured ~0.6066, not 1: convention-dependent


# --- probe spec validation --------------------------------------------------------------

def test_probe_spec_validation():
    with pytest.raises(DomainError):
        ProbeSpec(0, 1.0)
    with pytest.raises(DomainError):
        ProbeSpec(1, 0.0)
    with pytest.raises(DomainError):
        ProbeSpec(1, 1.0, "cat-state")
