"""Independent reference values for the benchmark's checks.

Every formula here is derived from the bath integral

    gamma(t) = 1/2 Int_0^inf J(w) W(w) (1 - cos(w t)) / w^2 dw

and from the variance e^(2 m gamma(t)) / (n m T t), written apart from
``ramsey_bounds`` and using only numpy and the standard library. The model
objects are read only for their parameters. ``test_reference.py`` checks these
formulas against finite differences, direct quadrature and mpmath, so that a
wrong reference cannot pass a wrong program.
"""

from __future__ import annotations

import math

import numpy as np

# The program's Ohmic closed form (alpha/2) ln(1 + wc^2 t^2) is twice the bath
# integral; every other closed form equals it.
OHMIC_CLOSED_FACTOR = 2.0

# Terms of the short-time series used for the Matsubara tail; with
# w_k t <= 0.1 the first neglected term is below 1e-16 of the tail.
_TAIL_TERMS = 8
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0)
# Terms of the Hurwitz zeta summed explicitly before Euler-Maclaurin.
_ZETA_SHIFT = 12


def powerlaw_zero(alpha, s, wc, t):
    """(gamma, dgamma/dt) of J = alpha wc^(1-s) w^s e^(-w/wc) at T = 0.

    Int_0^inf w^(s-2) e^(-w/wc) (1 - cos wt) dw = Gamma(s-1) wc^(s-1)
    (1 - Re (1 - i wc t)^(1-s)); the real part is taken in polar form,
    1 - e^a cos b = -expm1(a) cos b + 2 sin^2(b/2), so nothing cancels.
    """
    t = np.asarray(t, dtype=float)
    x = wc * t
    lg = np.log1p(x * x)
    th = np.arctan(x)
    dg = 0.5 * alpha * wc * math.gamma(s) * np.sin(s * th) * np.exp(-0.5 * s * lg)
    if s == 1.0:
        return 0.25 * alpha * lg, dg
    a = 0.5 * (1.0 - s) * lg
    b = (s - 1.0) * th
    g = 0.5 * alpha * math.gamma(s - 1.0) * (
        -np.expm1(a) * np.cos(b) + 2.0 * np.sin(0.5 * b) ** 2)
    return g, dg


def ohmic_high_t(alpha, beta, wc, t):
    """(gamma, dgamma/dt) of the Ohmic bath with weight 2/(beta w):
    (alpha/beta) Int e^(-w/wc) (1 - cos wt)/w^2 dw."""
    t = np.asarray(t, dtype=float)
    x = wc * t
    g = alpha / beta * (t * np.arctan(x) - 0.5 * np.log1p(x * x) / wc)
    return g, alpha / beta * np.arctan(x)


def lorentzian(a, g, t):
    """(gamma, dgamma/dt) of J = (a g / pi) / (g^2 + w^2) at T = 0:
    (a / 4g) (t - (1 - e^(-g t))/g), with a series below g t = 1e-3."""
    t = np.asarray(t, dtype=float)
    y = g * t
    small = y < 1e-3
    ys = np.where(small, 1.0, y)
    phi = np.where(small, y / 2.0 - y * y / 6.0 + y ** 3 / 24.0,
                   1.0 + np.expm1(-ys) / ys)
    return a / (4.0 * g) * t * phi, a / (4.0 * g) * -np.expm1(-y)


def power_law(alpha, nu, t):
    """(gamma, dgamma/dt) of gamma = alpha t^nu."""
    t = np.asarray(t, dtype=float)
    return alpha * t ** nu, alpha * nu * t ** (nu - 1.0)


def hurwitz_zeta(p, q):
    """Sum_{k>=0} (q + k)^(-p) for p > 1, q > 0 by Euler-Maclaurin after
    _ZETA_SHIFT explicit terms."""
    k = np.arange(_ZETA_SHIFT)
    head = float(np.sum((q + k) ** -p))
    u = q + _ZETA_SHIFT
    tail = u ** (1.0 - p) / (p - 1.0) + 0.5 * u ** -p
    rising = p
    for j, b in enumerate(_BERNOULLI, start=1):
        tail += b / math.factorial(2 * j) * rising * u ** (-p - 2 * j + 1)
        rising *= (p + 2 * j - 1) * (p + 2 * j)
    return head + tail


def powerlaw_beta(alpha, s, wc, beta, t):
    """(gamma, dgamma/dt) of the power-law bath at inverse temperature beta.

    coth(beta w / 2) = 1 + 2 Sum_{k>=1} e^(-k beta w) turns the integral into
    T = 0 terms with cutoffs w_k = 1/(1/wc + k beta), each weighted by
    (wc/w_k)^(1-s). Terms up to K with w_K t <= 0.1 are summed directly; the
    rest are expanded in t, where each power of w_k sums to a Hurwitz zeta.
    """
    t = float(t)
    c = 1.0 / (beta * wc)
    kmax = max(16, math.ceil((10.0 * t - 1.0 / wc) / beta))
    k = np.arange(kmax + 1, dtype=float)
    wk = 1.0 / (1.0 / wc + k * beta)
    gk, dk = powerlaw_zero(alpha * (wc / wk) ** (1.0 - s), s, wk, t)
    weight = np.where(k == 0, 1.0, 2.0)
    g, dg = float(np.sum(weight * gk)), float(np.sum(weight * dk))
    # Int J_k w^(2j-2) dw = alpha wc^(1-s) Gamma(s+2j-1) w_k^(s+2j-1)
    amp = alpha * wc ** (1.0 - s)
    for j in range(1, _TAIL_TERMS + 1):
        p = s + 2 * j - 1
        power_sum = beta ** -p * hurwitz_zeta(p, kmax + 1 + c)
        coef = (-1) ** (j + 1) * amp * math.gamma(p) * power_sum
        g += coef * t ** (2 * j) / math.factorial(2 * j)
        dg += coef * t ** (2 * j - 1) / math.factorial(2 * j - 1)
    return g, dg


def decoherence(bath, t, closed_form=True):
    """(gamma, dgamma/dt) for a ``BathSpec`` or generic power law.

    With ``closed_form`` the Ohmic T = 0 value carries the program's closed
    form convention; otherwise every value is the bath integral itself.
    """
    spec = getattr(bath, "spectral", bath)
    temp = getattr(bath, "temperature", None)
    kind, tkind = type(spec).__name__, type(temp).__name__
    if kind == "GenericPowerLawDephasing":
        return power_law(spec.alpha, spec.nu, t)
    if kind == "Lorentzian":
        return lorentzian(spec.a, spec.g, t)
    if tkind == "HighTemperatureOhmic":
        return ohmic_high_t(spec.alpha, temp.beta, spec.omega_c, t)
    if tkind == "FiniteBeta":
        return powerlaw_beta(spec.alpha, spec.s, spec.omega_c, temp.beta, t)
    g, dg = powerlaw_zero(spec.alpha, spec.s, spec.omega_c, t)
    if closed_form and spec.s == 1.0:
        return OHMIC_CLOSED_FACTOR * g, OHMIC_CLOSED_FACTOR * dg
    return g, dg


def log_variance(gamma, n, m, total_time, t):
    """ln of the optimal-phase variance e^(2 m gamma) / (n m T t)."""
    return 2.0 * m * gamma - np.log(n * m * total_time * np.asarray(t, dtype=float))


def ohmic_times(alpha, wc, n):
    """(t_u, t_e) for the Ohmic closed form: 2 m alpha x^2/(1 + x^2) = 1."""
    return (1.0 / (wc * math.sqrt(2.0 * alpha - 1.0)),
            1.0 / (wc * math.sqrt(2.0 * n * alpha - 1.0)))


def ohmic_ratio(alpha, n):
    """r for the Ohmic closed form, from r^2 = n (t_e/t_u) e^(2 g_u - 2 n g_e)
    with e^(2 gamma) = (1 + x^2)^alpha at x^2 = 1/(2 m alpha - 1)."""
    xu2 = 1.0 / (2.0 * alpha - 1.0)
    xe2 = 1.0 / (2.0 * n * alpha - 1.0)
    log_r2 = (math.log(n) + 0.5 * math.log(xe2 / xu2)
              + alpha * math.log1p(xu2) - n * alpha * math.log1p(xe2))
    return math.exp(0.5 * log_r2)


def power_law_optimum(alpha, nu, m):
    """Root of 2 m t (alpha nu t^(nu-1)) = 1."""
    return (2.0 * m * alpha * nu) ** (-1.0 / nu)
