"""Closed forms, the power-law kernel and the reference integral against mpmath.

The bath integral (1/2) Int J(w) W(w) (1 - cos wt) / w^2 dw, and its
t-derivative (1/2) Int J(w) W(w) sin(wt) / w dw, are taken by mpmath
quadrature in 20-digit arithmetic. For J ~ w^s they are integrated in x = w^s,
that is w = x^(1/s), which makes the integrand smooth at the origin at every
temperature. The kernel is checked against its uncancelled closed form in
60-digit arithmetic.
"""

import math
import sys

import pytest

import numpy as np

from ramsey_bounds import dephasing
from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    FiniteBeta,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    dgamma_dt,
    dgamma_quadrature,
    gamma_closed,
    gamma_quadrature,
    gamma_short_time_coeff,
)
from ramsey_bounds.oracle import reference_gamma

mpmath = pytest.importorskip("mpmath")


def powerlaw_integral(alpha, s, wc, t, weight, derivative=False):
    """The bath integral of J = alpha wc^(1-s) w^s e^(-w/wc) with weight W, or
    with ``derivative`` the integral of its t-derivative."""
    with mpmath.workdps(20):
        s = mpmath.mpf(s)

        def f(x):
            if x == 0:
                return mpmath.mpf(0)
            w = x ** (1 / s)
            if derivative:
                kern = mpmath.sin(w * t) / w
            else:
                kern = 2 * mpmath.sin(w * t / 2) ** 2 / w ** 2
            return (alpha * wc ** (1 - s) * w ** s * mpmath.exp(-w / wc) * weight(w)
                    * kern * w / (2 * s * x))

        # cuts equally spaced in w, so that none spans many periods of w t
        cuts = [w ** s for w in mpmath.linspace(0, 80 * wc, 24)]
        return float(mpmath.quad(f, cuts + [mpmath.inf]))


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


def kernel_closed(p, x):
    """I_p(1, x) = Gamma(p - 1) [1 - Re (1 - i x)^(1-p)] and its derivative
    Gamma(p) Im (1 - i x)^(-p), in 60 digits; at the poles p = 0 and p = 1
    their limits x arctan x - ln(1 + x^2)/2 and ln(1 + x^2)/2."""
    with mpmath.workdps(60):
        p, x = mpmath.mpf(p), mpmath.mpf(x)
        z = 1 - 1j * x
        if p == 0:
            value = x * mpmath.atan(x) - mpmath.log(1 + x * x) / 2
            return float(value), float(mpmath.atan(x))
        if p == 1:
            value = mpmath.log(1 + x * x) / 2
        else:
            value = mpmath.gamma(p - 1) * (1 - mpmath.re(z ** (1 - p)))
        return float(value), float(mpmath.gamma(p) * mpmath.im(z ** -p))


SINGULAR_P = [-0.5, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 17.0]


@pytest.mark.parametrize("p", SINGULAR_P)
def test_kernel_is_its_closed_form(p):
    # I_p(Om, t) = Gamma(p + 1) Om^(p-1) K_p(Om t) and its t-derivative
    # Gamma(p + 1) Om^p D_p(Om t), here at Om = 1: nothing cancels at the
    # poles p = 0 and p = 1, nor where p arctan x nears a multiple of pi
    for x in np.geomspace(1e-3, 1e3, 61).tolist():
        want, want_dt = kernel_closed(p, x)
        assert rel(math.gamma(p + 1.0) * dephasing._kernel(p, x), want) <= 1e-13, x
        assert rel(math.gamma(p + 1.0) * dephasing._kernel_dt(p, x), want_dt) <= 1e-13, x


@pytest.mark.parametrize("t", [0.05, 1.3, 12.0])
def test_reference_gamma_is_the_bath_integral(t):
    alpha, wc = 1.3, 0.7
    cases = [(BathSpec(PowerLawExpCutoff(alpha, s, wc)), s, lambda w: 1)
             for s in (0.3, 1.0 - 1e-6, 1.0 + 1e-6, 2.5)]
    for s in (0.05, 0.3, 0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 6.0):
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


@pytest.mark.parametrize("t", [0.05, 12.0])
def test_finite_beta_dgamma_is_the_bath_integral(t):
    alpha, wc, beta = 1.3, 0.7, 1.0 / 0.7
    for s in (0.05, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 2.0, 6.0):
        deph = DephasingModel(BathSpec(PowerLawExpCutoff(alpha, s, wc), FiniteBeta(beta)))
        want = powerlaw_integral(alpha, s, wc, t, lambda w: mpmath.coth(beta * w / 2),
                                 derivative=True)
        assert rel(dgamma_dt(deph, t), want) <= 1e-12, s


@pytest.mark.parametrize("t", [0.05, 12.0])
def test_quadrature_error_estimate_bounds_its_error(t):
    # the estimate, |G16 - K33| plus the rounding term, is at least the true
    # error, here mostly the rounding of the value itself; at T = 0, s = 0.3
    # is taken at the short times 1e-3 t and 1e-2 t
    alpha, wc, beta = 1.3, 0.7, 1.0 / 0.7
    cases = [(BathSpec(PowerLawExpCutoff(alpha, 0.3, wc)), 0.3, lambda w: 1, tt)
             for tt in (1e-3 * t, 1e-2 * t)]
    for s in (0.5, 2.0, 3.0):
        cases.append((BathSpec(PowerLawExpCutoff(alpha, s, wc), FiniteBeta(beta)), s,
                      lambda w: mpmath.coth(beta * w / 2), t))
    for bath, s, weight, tt in cases:
        for kernel in (gamma_quadrature, dgamma_quadrature):
            value, err = kernel(bath, tt)
            want = powerlaw_integral(alpha, s, wc, tt, weight,
                                     derivative=kernel is dgamma_quadrature)
            assert abs(value - want) <= err, (bath, tt, kernel.__name__)

    value, err = gamma_quadrature(BathSpec(Lorentzian(1.2, 0.3)), t)
    assert abs(value - lorentzian_integral(1.2, 0.3, t)) <= err


@pytest.mark.parametrize("ds", [2e-9, -2e-9, 1e-7, 1e-3, -0.7])
def test_closed_form_near_ohmic_at_short_times(ds):
    # 1 - cos((s-1) theta) / (1 + x^2)^((s-1)/2) loses every digit near s = 1
    # at wc t = 1e-3; the polar form keeps them
    s = 1.0 + ds
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, s, 1.0)))
    want = powerlaw_integral(1.0, s, 1.0, 1e-3, lambda w: 1)
    assert rel(gamma_closed(deph, 1e-3), want) <= 1e-13


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


@pytest.mark.parametrize("x", [1e150, 1e160, 1e300])
def test_closed_forms_past_the_square_overflow(x):
    # (wc t)^2 overflows a float past wc t = 1.3e154; there the T = 0 and
    # high-T forms are the same closed forms with 1 + x^2 = x^2. At wc = 1
    # they are alpha/2 I_s (alpha I_1 for the Ohmic log form, alpha/beta I_0
    # at high T) and the same multiples of the kernel's t-derivative
    alpha, beta = 1.3, 0.8
    cases = [(BathSpec(PowerLawExpCutoff(alpha, s, 1.0)), s, 0.5 * alpha)
             for s in (0.05, 0.3, 0.5, 1.0 - 1e-7, 1.0 + 1e-7, 1.5, 2.0, 6.0)]
    cases.append((BathSpec(PowerLawExpCutoff(alpha, 1.0, 1.0)), 1.0, alpha))
    cases.append((BathSpec(PowerLawExpCutoff(alpha, 1.0, 1.0), HighTemperatureOhmic(beta)),
                  0.0, alpha / beta))
    for bath, p, scale in cases:
        deph = DephasingModel(bath)
        want, want_dt = (scale * v for v in kernel_closed(p, x))
        assert rel(gamma_closed(deph, x), want) <= 1e-13, bath
        got_dt = dgamma_dt(deph, x)
        if abs(want_dt) >= sys.float_info.min:
            assert rel(got_dt, want_dt) <= 1e-13, bath
        else:
            assert abs(got_dt) < sys.float_info.min, bath
        # in an array, the times below 1e150 keep the bits they have without x
        ts = np.array([0.5, x, 2.0])
        got = gamma_closed(deph, ts)
        assert got[[0, 2]].tolist() == gamma_closed(deph, ts[[0, 2]]).tolist()
        assert rel(got[1], want) <= 1e-13, bath
