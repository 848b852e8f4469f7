"""Tests of the benchmark's own references and checks.

    python3 -m pytest bench

The references are checked against finite differences, direct quadrature of
the bath integral in mpmath, and the paper's closed-form Ohmic ratio, so that
a wrong reference cannot pass a wrong program. The last tests feed the
checks perturbed results and require them to fail.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402

mpmath = pytest.importorskip("mpmath")


def bath_integral(s, wc, t, weight, alpha=1.0):
    """1/2 Int J(w) W(w) (1 - cos wt)/w^2 dw for J = alpha wc^(1-s) w^s e^(-w/wc),
    in mpmath with w = x^(1/s), which makes the integrand smooth at 0."""
    mpmath.mp.dps = 30
    s = mpmath.mpf(s)

    def f(x):
        if x == 0:
            return mpmath.mpf(0)
        w = x ** (1 / s)
        kern = 2 * mpmath.sin(w * t / 2) ** 2 / w ** 2
        return (0.5 * alpha * wc ** (1 - s) * w ** s * mpmath.exp(-w / wc) * weight(w)
                * kern * w / (s * x))

    top = (80 * wc) ** s
    return float(mpmath.quad(f, list(mpmath.linspace(0, top, 40)) + [mpmath.inf]))


def central_difference(fn, t, h=1e-5):
    return (fn(t * (1 + h)) - fn(t * (1 - h))) / (2 * h * t)


@pytest.mark.parametrize("s", [0.3, 0.8, 1.0, 1.7, 3.0])
@pytest.mark.parametrize("t", [0.01, 0.7, 25.0])
def test_powerlaw_zero_matches_bath_integral(s, t):
    want = bath_integral(s, 0.7, t, lambda w: 1)
    got, _ = ref.powerlaw_zero(1.0, s, 0.7, t)
    assert abs(got / want - 1) < 1e-12


@pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("t", [0.02, 1.3, 20.0])
def test_derivatives_match_finite_differences(s, t):
    cases = [
        lambda x: ref.powerlaw_zero(1.3, s, 0.7, x),
        lambda x: ref.powerlaw_beta(1.3, s, 0.7, 1.4, x),
        lambda x: ref.ohmic_high_t(1.3, 0.6, 0.7, x),
        lambda x: ref.lorentzian(1.3, 0.4, x),
        lambda x: ref.power_law(1.3, s, x),
    ]
    for fn in cases:
        fd = central_difference(lambda x: float(fn(x)[0]), t)
        assert abs(fd / float(fn(t)[1]) - 1) < 1e-8


def test_powerlaw_zero_is_continuous_at_ohmic():
    t = np.array([0.01, 1.0, 30.0])
    ohmic, _ = ref.powerlaw_zero(1.0, 1.0, 1.0, t)
    for s in (1.0 - 1e-7, 1.0 + 1e-7):
        near, _ = ref.powerlaw_zero(1.0, s, 1.0, t)
        assert np.allclose(near, ohmic, rtol=1e-6)


@pytest.mark.parametrize("s,beta,t", [(0.3, 0.5, 1.0), (0.5, 1.0, 10.0),
                                      (1.0, 5.0, 0.05), (2.5, 1.0, 30.0)])
def test_powerlaw_beta_matches_bath_integral(s, beta, t):
    want = bath_integral(s, 1.0, t, lambda w: mpmath.coth(beta * w / 2))
    got, _ = ref.powerlaw_beta(1.0, s, 1.0, beta, t)
    assert abs(got / want - 1) < 1e-12


@pytest.mark.parametrize("t", [0.01, 1.0, 30.0])
def test_high_t_and_lorentzian_match_bath_integral(t):
    beta = 0.8
    want = bath_integral(1.0, 1.5, t, lambda w: 2 / (beta * w), alpha=0.6)
    assert abs(ref.ohmic_high_t(0.6, beta, 1.5, t)[0] / want - 1) < 1e-12
    a, g = 1.2, 0.3
    mpmath.mp.dps = 30
    def lor_integrand(w):
        kern = 2 * mpmath.sin(w * t / 2) ** 2 / w ** 2
        return 0.5 * (a * g / mpmath.pi) / (g * g + w * w) * kern

    # panels: decades around g, then half periods of cos(wt); oscillatory tail
    top = 20 * max(g, 1 / t)
    cuts = {g * 10 ** (k / 4) for k in range(-12, 9)} | {
        j * math.pi / t for j in range(1, int(top * t / math.pi) + 1)}
    cuts = [0.0] + sorted(c for c in cuts if c < top) + [top]
    lor = (mpmath.quad(lor_integrand, cuts)
           + mpmath.quadosc(lor_integrand, [top, mpmath.inf], omega=t))
    assert abs(float(ref.lorentzian(a, g, t)[0]) / float(lor) - 1) < 1e-12


@pytest.mark.parametrize("p,q", [(1.3, 17.5), (2.5, 601.25), (9.0, 20.0)])
def test_hurwitz_zeta(p, q):
    assert abs(ref.hurwitz_zeta(p, q) / float(mpmath.zeta(p, q)) - 1) < 1e-12


@pytest.mark.parametrize("alpha", [0.8, 1.0, 2.7])
@pytest.mark.parametrize("n", [1, 2, 37, 1000])
def test_ohmic_optimum_and_ratio(alpha, n):
    wc = 0.6
    t_u, t_e = ref.ohmic_times(alpha, wc, n)

    def closed(t):
        g, dg = ref.powerlaw_zero(alpha, 1.0, wc, t)
        return ref.OHMIC_CLOSED_FACTOR * g, ref.OHMIC_CLOSED_FACTOR * dg

    for m, t in ((1, t_u), (n, t_e)):
        assert abs(2 * m * t * closed(t)[1] - 1) < 1e-12
    r2 = n * (t_e / t_u) * math.exp(2 * closed(t_u)[0] - 2 * n * closed(t_e)[0])
    assert abs(ref.ohmic_ratio(alpha, n) / math.sqrt(r2) - 1) < 1e-12
    # the paper's form r = sqrt(n) f(alpha, n)
    a, na = alpha, alpha * n
    f2 = ((2 * a / (2 * a - 1)) ** a / (2 * na / (2 * na - 1)) ** na
          * math.sqrt((2 * a - 1) / (2 * na - 1)))
    assert abs(ref.ohmic_ratio(alpha, n) / (math.sqrt(n) * math.sqrt(f2)) - 1) < 1e-10


@pytest.mark.parametrize("nu", [0.6, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 100])
def test_power_law_scaling(nu, n):
    alpha = 0.7
    t_u, t_e = ref.power_law_optimum(alpha, nu, 1), ref.power_law_optimum(alpha, nu, n)
    for m, t in ((1, t_u), (n, t_e)):
        assert abs(2 * m * t * ref.power_law(alpha, nu, t)[1] - 1) < 1e-12
    g_u, g_e = ref.power_law(alpha, nu, t_u)[0], ref.power_law(alpha, nu, t_e)[0]
    r = math.sqrt(n * (t_e / t_u) * math.exp(2 * g_u - 2 * n * g_e))
    assert abs(r / n ** ((nu - 1) / (2 * nu)) - 1) < 1e-12
    assert abs((t_u / t_e) / n ** (1 / nu) - 1) < 1e-12


def test_checks_reject_perturbed_results():
    import workloads
    import ramsey_bounds as rb

    sweep = workloads.sweep_closed(3)
    for op in sweep.ops[::7]:
        res = op.fn(*op.args)
        assert op.check(res) == []
        if isinstance(res, rb.RatioResult):
            bad = rb.RatioResult(res.r * (1 + 1e-6), res.t_u, res.t_e,
                                 res.exponential_factor)
        else:
            bad = rb.Optimum(res.t_opt * (1 + 1e-4), res.delta_omega_sq,
                             finite=res.finite, boundary_limited=res.boundary_limited)
        assert op.check(bad) != []

    quad = workloads.quad_gamma(3)
    value, err = quad.ops[0].fn(*quad.ops[0].args)
    assert quad.ops[0].check((value, err)) == []
    assert quad.ops[0].check((value * (1 + 1e-8), err)) != []
    slope = quad.ops[1].fn(*quad.ops[1].args)
    assert quad.ops[1].check(slope) == []
    assert quad.ops[1].check(slope * (1 + 1e-2)) != []
