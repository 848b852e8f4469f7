"""Closed forms, the reference integral and the Hurwitz zeta against mpmath.

The bath integral (1/2) Int J(w) W(w) (1 - cos wt) / w^2 dw is taken by mpmath
quadrature in 20-digit arithmetic. For J ~ w^s it is integrated in x = w^s,
that is w = x^(1/s), which makes the integrand smooth at the origin at every
temperature.
"""

import math

import pytest

from ramsey_bounds import numerics
from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    FiniteBeta,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    gamma_closed,
    gamma_short_time_coeff,
)
from ramsey_bounds.oracle import reference_gamma

mpmath = pytest.importorskip("mpmath")


def powerlaw_integral(alpha, s, wc, t, weight):
    """The bath integral of J = alpha wc^(1-s) w^s e^(-w/wc) with weight W."""
    with mpmath.workdps(20):
        s = mpmath.mpf(s)

        def f(x):
            if x == 0:
                return mpmath.mpf(0)
            w = x ** (1 / s)
            kern = 2 * mpmath.sin(w * t / 2) ** 2 / w ** 2
            return (alpha * wc ** (1 - s) * w ** s * mpmath.exp(-w / wc) * weight(w)
                    * kern * w / (2 * s * x))

        top = (80 * wc) ** s
        return float(mpmath.quad(f, list(mpmath.linspace(0, top, 24)) + [mpmath.inf]))


def lorentzian_integral(a, g, t):
    """The bath integral of J = (a g / pi) / (g^2 + w^2) at T = 0, with
    H(w) = J(w) / (2 w^2): half periods of cos(wt) up to W = 20 max(g, 1/t),
    then Int_W^inf H minus mpmath's oscillatory Int_W^inf H cos(wt)."""
    with mpmath.workdps(20):
        def h(w):
            return (a * g / (2 * mpmath.pi)) / ((g * g + w * w) * w * w)

        def f(w):
            return h(w) * 2 * mpmath.sin(w * t / 2) ** 2

        top = 20 * max(g, 1 / t)
        cuts = [0] + [j * mpmath.pi / t for j in range(1, int(top * t / math.pi) + 1)]
        body = mpmath.quad(f, [c for c in cuts if c < top] + [top])
        tail = (mpmath.quad(h, [top, mpmath.inf])
                - mpmath.quadosc(lambda w: h(w) * mpmath.cos(w * t), [top, mpmath.inf],
                                 omega=t))
        return float(body + tail)


def rel(got, want):
    return abs(got / want - 1.0)


@pytest.mark.parametrize("t", [0.05, 1.3, 12.0])
def test_reference_gamma_is_the_bath_integral(t):
    alpha, wc = 1.3, 0.7
    cases = [(BathSpec(PowerLawExpCutoff(alpha, s, wc)), s, lambda w: 1)
             for s in (0.3, 1.0 - 1e-6, 1.0 + 1e-6, 2.5)]
    for s in (0.3, 0.5, 2.0):
        for beta_wc in (0.2, 5.0):
            beta = beta_wc / wc
            cases.append((BathSpec(PowerLawExpCutoff(alpha, s, wc), FiniteBeta(beta)), s,
                          lambda w, beta=beta: mpmath.coth(beta * w / 2)))
    cases.append((BathSpec(PowerLawExpCutoff(alpha, 1.0, wc), HighTemperatureOhmic(0.8)),
                  1.0, lambda w: 2 / (0.8 * w)))
    for bath, s, weight in cases:
        want = powerlaw_integral(alpha, s, wc, t, weight)
        assert rel(reference_gamma(bath, t), want) <= 1e-12, bath

    want = lorentzian_integral(1.2, 0.3, t)
    assert rel(reference_gamma(BathSpec(Lorentzian(1.2, 0.3)), t), want) <= 1e-12


@pytest.mark.parametrize("ds", [2e-9, -2e-9, 1e-7, 1e-3, -0.7])
def test_closed_form_near_ohmic_at_short_times(ds):
    # 1 - cos((s-1) theta) / (1 + x^2)^((s-1)/2) loses every digit near s = 1
    # at wc t = 1e-3; the polar form keeps them
    s = 1.0 + ds
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, s, 1.0)))
    want = powerlaw_integral(1.0, s, 1.0, 1e-3, lambda w: 1)
    assert rel(gamma_closed(deph, 1e-3), want) <= 1e-13


@pytest.mark.parametrize("p,q", [(1.0001, 1.0), (1.05, 1.2), (1.3, 17.5),
                                 (7.0, 1.0001), (18.0, 30.0)])
def test_hurwitz_zeta(p, q):
    with mpmath.workdps(40):
        want = float(mpmath.zeta(p, q))
    assert rel(numerics._hurwitz_zeta(p, q), want) <= 1e-14


@pytest.mark.parametrize("beta_wc", [0.2, 5.0])
def test_short_time_coeff_finite_beta_is_the_zeta_series(beta_wc):
    # c2 = (1/4) alpha wc^2 Gamma(s+1) [1 + 2 (beta wc)^-(s+1) zeta(s+1, 1 + 1/(beta wc))]
    alpha, wc = 1.3, 0.7
    for s in (0.05, 0.3, 6.0):
        with mpmath.workdps(30):
            b, p = mpmath.mpf(beta_wc), mpmath.mpf(s) + 1
            want = float(alpha * mpmath.mpf(wc) ** 2 / 4 * mpmath.gamma(p)
                         * (1 + 2 * b ** -p * mpmath.zeta(p, 1 + 1 / b)))
        deph = DephasingModel(BathSpec(PowerLawExpCutoff(alpha, s, wc),
                                       FiniteBeta(beta_wc / wc)))
        assert rel(gamma_short_time_coeff(deph), want) <= 1e-14, s
