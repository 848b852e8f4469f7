"""Spectral densities and the pure-dephasing decoherence function gamma(t).

The coherence of a probe coupled to a bosonic bath decays as e^(-gamma(t)),
with

    gamma(t) = (1/2) Int_0^inf J(w) * W(w) * (1 - cos(w t)) / w^2 dw,

where W(w) = 1 at zero temperature, coth(beta*w/2) at inverse temperature
beta, and 2/(beta*w) in the high-temperature expansion. Three spectral
families are supported, each with closed forms where they exist and a
quadrature route everywhere a spectral density is defined:

* power law with exponential cutoff, J(w) = alpha * wc^(1-s) * w^s * e^(-w/wc),
  whose closed form in every temperature mode is one sum of a pole-free
  kernel (see ``PowerLawExpCutoff._terms``)
* Lorentzian, J(w) = (1/pi) * a * g / (g^2 + w^2)
* a generic power-law decoherence function gamma(t) = alpha * t^nu with no
  underlying J (nu = 1 is Markovian dephasing, nu = 2 a static bath).

Each family is one class that holds every formula for its bath and decides
on the temperature mode only inside its own methods, so a new family, or a
new route for an existing one, touches one class. A family provides:

* ``check_temperature(temp)``: reject temperature modes it does not support;
* ``density(w)``: J(w) on an array of frequencies w >= 0;
* ``gamma(temp, t)`` and ``dgamma(temp, t)``: the closed forms, on an array
  of times (gamma also at a time); every supported temperature mode has one;
* ``dgamma_function(temp)``: gamma' on a float t as a function of t alone,
  with the terms and constants of ``temp`` bound once, which a model binds
  once (:attr:`DephasingModel.dgamma_at`);
* ``c2(temp)``: the coefficient of the short-time law gamma(t) ~ c2 t^2;
* ``quad_problem(temp)``: a function of ``(t, derivative=False)`` with the
  constants of ``temp`` that do not depend on t bound once, which a bath
  binds once (:attr:`BathSpec.quad_problem`). It sets up the bath integral
  at time t, or with ``derivative`` that of its t-derivative,
  (1/2) J(w) W(w) sin(w t) / w, as ``(integrand, head, tail_start, tail,
  w_star)``: the integrand in w, the terms ``(log c, p)`` of a bound
  Sum c E^p on its integral below any E, the least upper cutoff W to try,
  ``tail(W)``, a bound on the part above W not known in closed form, which
  ``tail(W, value=True)`` returns with that part, and w*, the largest head
  cutoff (see :meth:`PowerLawExpCutoff.quad_problem`). The quadrature
  (:func:`_bath_quadrature`) makes both cuts; the change of variable and the
  panel layout belong to :func:`~ramsey_bounds.numerics.integrate_semi_infinite`;
* ``time_scale()``: the characteristic time, which seeds the oracle's grid;
* ``root_window(temp, m)``: a window ``(lo, hi)`` of times that holds every
  root of 2 m t gamma'(t) = 1 (``hi`` may be inf), or None where the
  family's bounds prove there is none. For the spectral families
  ``lo`` is 1/(2 sqrt(m c2)); the optimizer walks up from it.

Temperature tags apply the thermal weight W(w) in place, ``weigh(j, w)``. An
evaluation route (closed form or quadrature) supplies ``gamma(bath, t)`` on a
time or an array of times, ``dgamma(bath, t)`` on an array, both checked by
the caller, and ``dgamma_function(bath)``, the float gamma' as a function of t.

Convention note: the Ohmic (s = 1) closed form at T = 0,
gamma(t) = (alpha/2) ln(1 + wc^2 t^2), is exactly twice the integral above,
so the quadrature route reproduces it up to the constant factor 1/2. That
factor is one constant, in the T = 0 term of ``PowerLawExpCutoff._terms``;
every other closed form is the integral itself. Metrological ratios computed
from a single route are unaffected.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Union, get_args

import numpy as np

from .errors import (
    DomainError,
    NoQuadraticRegime,
    NoSpectralDensity,
    ToleranceNotMet,
)
from .numerics import (
    INNER_NODE_FRACTION,
    ROOT_X_TOL,
    QuadratureSettings,
    _check_fields,
    _real,
    _real_array,
    integrate_semi_infinite,
)

__all__ = [
    "PowerLawExpCutoff",
    "Lorentzian",
    "GenericPowerLawDephasing",
    "SpectralModel",
    "ZeroTemperature",
    "FiniteBeta",
    "HighTemperatureOhmic",
    "Temperature",
    "BathSpec",
    "ClosedForm",
    "Quadrature",
    "Route",
    "DephasingModel",
    "spectral_density",
    "gamma_closed",
    "dgamma_dt",
    "gamma_quadrature",
    "dgamma_quadrature",
    "gamma_short_time_coeff",
    "OHMIC_S_TOL",
]

# |s - 1| below this counts as Ohmic: the T = 0 closed form then carries the
# factor 2 of the Ohmic convention, and the high-temperature expansion holds.
OHMIC_S_TOL = 1e-9

_HIGH_T_OHMIC_ONLY = ("the high-temperature expansion is only valid for an Ohmic "
                      "power-law bath (s = 1)")
_SINGULAR_AT_ZERO = "derivative is singular at t = 0 for nu < 1"


def _zeno_bound(c2, m):
    """1/(2 sqrt(m c2)): no root of 2 m t gamma'(t) = 1 lies below it, since
    J W >= 0 bounds gamma'' by gamma''(0) = 2 c2, so 2 m t gamma' <= 4 m c2 t^2.
    Infinite where m c2 underflows to 0."""
    mc2 = m * c2
    return 0.5 / math.sqrt(mc2) if mc2 > 0.0 else math.inf


# --- the power-law kernel ----------------------------------------------------
#
# I_p(Om, t) = Int_0^inf w^(p-2) e^(-w/Om) (1 - cos w t) dw, p > -1, is
# Gamma(p + 1) Om^(p-1) K_p(x), and dI_p/dt is Gamma(p + 1) Om^p D_p(x), with
# x = Om t, theta = arctan x, q = 1 - p, L = ln(1 + x^2),
#   K_p = B / (p (p - 1)),  B = 1 - (1 + x^2)^(q/2) cos(q theta),
#   D_p = sin(p theta) (1 + x^2)^(-p/2) / p.
# T = 0 is p = s, high-T Ohmic p = 0. B vanishes at both poles p = 0 and 1.
# With c = q for p >= 1/2 and c = -p below, P = (1 + x^2)^(c/2) and
#   F(c) = (2 sin^2(c theta/2) - (P - 1) cos(c theta)) / c, -L/2 at c = 0,
# B/q = F(q) for p >= 1/2 and B/p = -F(-p) - x sin(p theta) P / p below, so
# nothing cancels near a pole, at short times or at long times. P is
# hypot(1, x)^c, and P - 1 is expm1(c L/2) where c L/2 < 1: the rounding of L
# would grow c L/2-fold in e^(c L/2), and that of the power grows with c alone.
#
# The kernel is written once, for a float x with ``m = _FLOATS`` (``math``)
# and for an array with ``m = _ARRAYS`` (numpy). Its derivative on a float is
# written once too, by ``_bound_kernel_dt``, which binds p's constants in a
# function of x: the optimizer's walk asks for one float at a time, where a
# numpy call, or working out those constants again, costs several times the
# kernel.

# x * x overflows a float past x = 1.3e154. From x = _BIG_X on, 1 + x^2 is x^2
# to 1e-300.
_BIG_X = 1e150


def _half_log(x):
    """ln(1 + x^2) / 2 for x >= 0, also where x^2 overflows."""
    return 0.5 * math.log1p(x * x) if x < _BIG_X else math.log(x)


def _half_log_array(x):
    y = np.minimum(x, _BIG_X)
    return np.log(x, out=0.5 * np.log1p(y * y), where=x >= _BIG_X)


def _far_sin_p_atan(p):
    """``(shift, sp)`` with sin(p arctan x) = sin(shift - sp arctan(1/x)) past
    x = 1: p arctan x = k pi + f pi - p arctan(1/x) with k the integer nearest
    p/2 and f = p/2 - k exact, so it keeps its digits where p arctan x nears
    k pi."""
    k = math.floor(0.5 * p + 0.5)
    sign = -1.0 if k % 2 else 1.0
    return sign * math.pi * (0.5 * p - k), sign * p


def _sin_p_atan_array(p, x):
    shift, sp = _far_sin_p_atan(p)
    return np.where(x <= 1.0, np.sin(p * np.arctan(x)), np.sin(shift - sp * np.arctan2(1.0, x)))


_FLOATS = SimpleNamespace(atan=math.atan, sin=math.sin, cos=math.cos, expm1=math.expm1,
                          hypot=math.hypot, where=lambda cond, a, b: a if cond else b,
                          half_log=_half_log)
_ARRAYS = SimpleNamespace(atan=np.arctan, sin=np.sin, cos=np.cos, expm1=np.expm1,
                          hypot=np.hypot, where=np.where, half_log=_half_log_array)


def _kernel(p, x, m=_FLOATS):
    """K_p(x), the power-law kernel I_p(Om, t) over Gamma(p + 1) Om^(p-1)."""
    th, hl = m.atan(x), m.half_log(x)
    c = 1.0 - p if p >= 0.5 else -p
    if c:
        u = c * hl
        e = m.expm1(u) if c < 0.0 else m.where(u < 1.0, m.expm1(u), m.hypot(1.0, x) ** c - 1.0)
        f = (2.0 * m.sin(0.5 * c * th) ** 2 - e * m.cos(c * th)) / c
    else:
        f = -hl
    if p >= 0.5:
        return f / -p
    return (f + x * ((m.sin(p * th) / p if p else th) * m.hypot(1.0, x) ** -p)) / (1.0 - p)


def _kernel_dt(p, x):
    """D_p(x), the kernel's t-derivative over Gamma(p + 1) Om^p, on an array;
    on a float it is :func:`_bound_kernel_dt`'s."""
    if not p:
        return np.arctan(x)
    return _sin_p_atan_array(p, x) / p * np.hypot(1.0, x) ** -p


def _bound_kernel_dt(p):
    """D_p as a function of a float x, with the constants of p bound."""
    if not p:
        return math.atan
    shift, sp = _far_sin_p_atan(p)
    q = -p
    sin, atan, atan2, hypot = math.sin, math.atan, math.atan2, math.hypot

    def kernel_dt(x):
        sin_p_atan = sin(p * atan(x)) if x <= 1.0 else sin(shift - sp * atan2(1.0, x))
        return sin_p_atan / p * hypot(1.0, x) ** q
    return kernel_dt


# Finite beta: coth(beta w / 2) = 1 + 2 Sum_{k>=1} e^(-k beta w). Terms
# k <= K = _MATSUBARA_TERMS are T = 0 kernels with cutoffs 1/(1/wc + k beta);
# the rest is e^(-(K+1) beta w) / (1 - e^(-beta w)), and term n of
# 1/(1 - e^-y) = Sum_n B_n^+ y^(n-1) / n! is the kernel at p = s + n - 1 with
# the cutoff of k = K + 1. Below, (n, B_n^+ / n!) for n <= 16 (B_1^+ = +1/2).
_MATSUBARA_TERMS = 8
_BERNOULLI_TERMS = ((0, 1.0), (1, 0.5), (2, 1 / 12), (4, -1 / 720), (6, 1 / 30240),
                    (8, -1 / 1209600), (10, 1 / 47900160), (12, -691 / 1307674368000),
                    (14, 1 / 74724249600), (16, -3617 / 10670622842880000))


# (-1)^k / k! for k = 10 down to 2: u + expm1(-u) = u^2 Sum_k (-1)^k u^(k-2) / k!
_EXPM1_TAIL = tuple((-1.0) ** k / math.factorial(k) for k in range(10, 1, -1))


def _expm1_tail(u):
    """(u + expm1(-u)) / u^2 for 0 <= u < 0.1 by its Taylor series through
    u^8, whose remainder is below 1e-16 of the value there; 1/2 at u = 0."""
    series = 0.0
    for coef in _EXPM1_TAIL:  # in place on an array after the first step: no temporaries
        series *= u
        series += coef
    return series


# --- spectral models ---------------------------------------------------------

@dataclass(frozen=True)
class PowerLawExpCutoff:
    """J(w) = alpha * wc^(1-s) * w^s * e^(-w/wc); s < 1 sub-Ohmic, s = 1 Ohmic."""

    alpha: float
    s: float
    omega_c: float

    def __post_init__(self):
        _check_fields(self)

    @property
    def is_ohmic(self) -> bool:
        return abs(self.s - 1.0) < OHMIC_S_TOL

    def check_temperature(self, temp):
        if isinstance(temp, HighTemperatureOhmic) and not self.is_ohmic:
            raise DomainError(_HIGH_T_OHMIC_ONLY)

    def density(self, w):
        # in x = w/wc, which neither over- nor underflows where J does not, and
        # in place, as each temporary on a long quadrature's nodes is a fresh
        # allocation (asarray: a 0-d w gives a scalar quotient). Past s = 1,
        # x^s overflows where J does not (from x ~ 113 at s = 150), so J is
        # taken as (x e^(-x/s))^s there
        s = self.s
        x = np.asarray(w / self.omega_c)
        if s > 1.0:
            j = np.exp(x / -s)
            j *= x
            j **= s
            j *= self.alpha * self.omega_c
            return j
        j = x ** s
        j *= self.alpha * self.omega_c
        j *= np.exp(np.negative(x, out=x), out=x)
        return j

    def gamma(self, temp, t):
        # + 0.0 turns the -0.0 of a kernel at t = 0 into 0.0 and moves no other bit
        terms, wc = self._terms(temp), self.omega_c
        if isinstance(t, np.ndarray) and t.ndim:
            return functools.reduce(np.add, (a * _kernel(p, r * wc * t, _ARRAYS)
                                             for a, p, r in terms)) + 0.0
        if len(terms) == 1:
            (a, p, r), = terms
            return a * _kernel(p, r * wc * t) + 0.0
        # exactly rounded
        return math.fsum(a * _kernel(p, r * wc * t) for a, p, r in terms) + 0.0

    def dgamma(self, temp, t):
        wc = self.omega_c
        return wc * functools.reduce(np.add, (a * r * _kernel_dt(p, r * wc * t)
                                              for a, p, r in self._terms(temp)))

    def dgamma_function(self, temp):
        # wc Sum a r D_p(r wc t) over the terms of temp, with a r, r wc and each
        # D_p bound; r * wc * t is (r * wc) * t, so the bits are the sum's
        wc = self.omega_c
        terms = [(a * r, r * wc, _bound_kernel_dt(p)) for a, p, r in self._terms(temp)]
        if len(terms) == 1:
            (ar, rw, kernel_dt), = terms
            return lambda t: wc * (ar * kernel_dt(rw * t))
        fsum = math.fsum
        return lambda t: wc * fsum([ar * kernel_dt(rw * t) for ar, rw, kernel_dt in terms])

    def c2(self, temp):
        # each kernel goes as Gamma(p + 1) Om^(p + 1) t^2 / 2 at short times;
        # wc enters twice, not squared, which alone could overflow
        try:
            c2 = (0.5 * self.omega_c * math.fsum(a * r * r for a, p, r in self._terms(temp))
                  * self.omega_c)
        except OverflowError:
            c2 = math.inf
        if c2 < math.inf:
            return c2
        raise DomainError(f"the short-time coefficient c2 overflows a float for {self} at {temp}")

    def _terms(self, temp):
        """``(a, p, r)`` with gamma(t) = Sum a K_p(r wc t) in temperature mode
        ``temp``: the one place the power-law family tells the modes apart."""
        if isinstance(temp, ZeroTemperature):
            return self._zero_temperature_terms
        if isinstance(temp, HighTemperatureOhmic):
            return ((self.alpha / (temp.beta * self.omega_c), 0.0, 1.0),)
        return self._thermal_terms(temp.beta)

    @functools.cached_property
    def _zero_temperature_terms(self):
        # the Ohmic closed form is twice the bath integral: this factor k is the
        # whole of that convention (ROADMAP F1 makes it 2 at every s)
        k = 2.0 if self.is_ohmic else 1.0
        return ((0.5 * self.alpha * math.gamma(self.s + 1.0) * k, self.s, 1.0),)

    @functools.lru_cache(maxsize=32)
    def _thermal_terms(self, beta):
        """``(a, p, r)`` with finite-beta gamma(t) = Sum a K_p(r wc t); cached,
        as the optimizer asks for one time at a time."""
        s, bw = self.s, beta * self.omega_c
        # (weight, n, r) for the kernel at p = s + n - 1, cutoff r wc: the
        # Matsubara terms have n = 1
        terms = [(1.0 if k == 0 else 2.0, 1, 1.0 / (1.0 + k * bw))
                 for k in range(_MATSUBARA_TERMS + 1)]
        r = 1.0 / (1.0 + (_MATSUBARA_TERMS + 1) * bw)
        terms += [(2.0 * b, n, r) for n, b in _BERNOULLI_TERMS]
        # a = (alpha w / 2) Gamma(s + n) r^(s-1) (beta wc r)^(n-1), in logs, as
        # Gamma(s + n) alone overflows for s near 170 where a does not
        out = []
        for w, n, r in terms:
            try:
                a = 0.5 * self.alpha * w * math.exp(
                    math.lgamma(s + n) + (s - 1.0) * math.log(r) + (n - 1) * math.log(bw * r))
            except (OverflowError, ValueError):  # log(0.0) where beta wc overflows
                a = math.inf
            if not abs(a) < math.inf:
                raise DomainError(f"alpha * Gamma(p + 1) times the weight of term "
                                  f"p = {s + n - 1:g} overflows a float for {self}")
            out.append((a, s + n - 1.0, r))
        return tuple(out)

    def quad_problem(self, temp):
        """A function of ``(t, derivative=False)`` that sets up the bath
        integral at time t > 0, or with ``derivative`` its t-derivative (see
        :func:`_integrand`), for quadrature in omega as ``(integrand, head,
        tail_start, tail, w_star)``; what does not depend on t is bound once.

        ``head`` holds the terms ``(log c, p)`` of a bound Sum c E^p on
        Int_0^E |integrand| for every E > 0: 1 - cos u <= u^2/2 (|sin u|/u <= 1
        for the derivative), e^(-w/wc) <= 1 and W <= a0 + a1/w give
        c1 E^(s+1) + c0 E^s, without c0 at T = 0 and c1 at high T. Up to
        w* = min(1/t, wc), 1 - cos u >= (11/24) u^2, e^(-w/wc) >= 1/e and W is
        at least half its bound, so the integrand of gamma is at least
        11/(24 e) > 0.15 of the bounding envelope. w* is the fifth element.

        ``tail(W)`` bounds the integral above W. For w >= W the weight is at
        most b = a0 + a1/W, and the kernel (1 - cos wt)/(2 w^2) at most
        min(1/w^2, t^2/4) (|sin wt|/(2w) at most min(1/(2w), t/2) for the
        derivative), so each branch is alpha wc^(1-s) b times
        Int_W^inf w^q e^(-w/wc) dw = wc^(q+1) Gamma(q+1, x), x = W/wc, with
        q = s - 2 or s (s - 1 or s). As Gamma(a, x) <= x^(a-1) e^(-x) /
        (1 - (a-1)/x), and a - 1 = q <= s, a factor 2 covers every branch
        once x >= 2s:

            tail(W) = 2 alpha wc^d b x^(s-2+d) e^(-x) kappa,

        d = 0, kappa = min(1, (Wt)^2/4) for gamma, and d = 1,
        kappa = min(1, Wt/2, 1/(2 wc t)) for the derivative, whose last branch
        is the second mean value theorem on J W/w, falling past x = s - 1.
        Each branch goes as x^p e^(-x) times a falling factor with p <= s, so
        from x = 2s, the start of the search, tail(W) falls as W grows. It is
        taken in logarithms, where none of its factors overflows. None of the
        tail is known in closed form, so ``tail(W, value=True)`` is
        ``(0.0, bound)``.
        """
        s, wc = self.s, self.omega_c
        a0, a1 = temp.weight_bound()
        log, exp, inf = math.log, math.exp, math.inf  # local names: the tail search is hot
        log_alpha, log_wc = log(self.alpha), log(wc)
        # in logarithms, as c underflows where wc t is moderate and t tiny
        log_scale_0 = log_alpha + (1.0 - s) * log_wc
        head_terms = [(log(a / q), p) for a, q, p in ((a0, s + 1.0, s + 1.0), (a1, s, s)) if a]
        # (k, log 2 alpha wc^d, s - 2 + d) for gamma (d = 0) and its derivative
        constants = ((2.0, _LN2 + log_alpha, s - 2.0),
                     (1.0, _LN2 + log_alpha + log_wc, s - 1.0))
        tail_start = 2.0 * s * wc

        def problem(t, derivative=False):
            k, log_front, power = constants[derivative]
            log_t = log(t)
            log_scale = log_scale_0 + k * (log_t - _LN2)
            head = [(log_scale + log_aq, p) for log_aq, p in head_terms]
            log_slow = -(_LN2 + log_wc + log_t)  # log 1/(2 wc t)

            def tail(om, value=False):
                x = om / wc
                log_wt = log(om) + log_t - _LN2  # log Wt/2
                # min(0, log Wt/2, log_slow), or min(0, log (Wt/2)^2)
                if derivative:
                    log_kern = log_wt if log_wt < 0.0 else 0.0
                    if log_slow < log_kern:
                        log_kern = log_slow
                else:
                    log_kern = 2.0 * log_wt
                    if not log_kern < 0.0:
                        log_kern = 0.0
                log_bound = log_front + power * log(x) - x + log(a0 + a1 / om) + log_kern
                bound = exp(log_bound) if log_bound < _LOG_HUGE else inf
                return (0.0, bound) if value else bound

            return _integrand(self, temp, t, derivative), head, tail_start, tail, min(1.0 / t, wc)
        return problem

    def root_window(self, temp, m):
        """A window ``(lo, hi)`` holding every root of 2 m t gamma'(t) = 1, or
        None where the bounds below prove there is none.

        ``lo`` is the Zeno bound. At T = 0 with s > 1, with x = wc t and
        theta = arctan x,

            2 m t gamma' = m alpha Gamma(s) sin(theta) sin(s theta) cos(theta)^(s-1)
                        <= m alpha Gamma(s) x (1 + x^2)^(-s/2),

        which peaks at x^2 = 1/(s - 1) at m alpha Gamma(s) B(s), with
        B(s) = (s - 1)^((s-1)/2) / s^(s/2). Where that is below 1 no root
        exists, and the optimizer evaluates gamma' not once. The bound is exact
        at s = 2, within 1.6 % of the true peak for s <= 3 and 4.8 % at s = 4;
        near a threshold the optimizer's rescue search finds a narrow window
        the walk steps over. ``hi`` comes from the looser bound
        m alpha Gamma(s) (1 + x^2)^(-(s-1)/2), and at finite beta from the
        bounds in the comments below.
        """
        lo = _zeno_bound(self.c2(temp), m)
        if isinstance(temp, FiniteBeta) and self.s >= 2.0:
            bw = temp.beta * self.omega_c
            if self.s == 2.0:
                # 2 m t gamma' = m alpha x Int psi(u) sin(u x) du, x = wc t, with
                # psi = u coth(bw u/2) e^(-u), tends to m alpha psi(0) = 2 m alpha/bw;
                # past 1 a root exists. Else every root lies where 2 m t gamma'
                # exceeds its limit. Integrating by parts three times,
                # x Int psi sin = psi(0) - psi''(0)/x^2 + Int psi'''' sin(u x) du/x^3
                # with psi''(0) = bw/3 + 2/bw, and from the derivatives of
                # v coth v (Int |G'''| = 2/3, Int |G''''| < 0.68),
                # Int |psi''''| <= 0.17 bw^2 + 4 bw/3 + 11 + 2/bw: past the x where
                # that meets psi''(0) x, 2 m t gamma' stays below its limit
                if 2.0 * m * self.alpha > bw:
                    return lo, math.inf
                hi = ((0.17 * bw * bw + 4.0 * bw / 3.0 + 11.0 + 2.0 / bw)
                      / ((bw / 3.0 + 2.0 / bw) * self.omega_c))
                return (lo, hi) if lo <= hi else None
            # Matsubara term k is the T = 0 form at cutoff r_k wc, r_k =
            # 1/(1 + k beta wc), times 2 r_k^(s-1). With x = wc t its share of
            # 2 m t gamma' is at most m alpha Gamma(s) 2 x (r_k / sqrt(1 + r_k^2 x^2))^s,
            # which falls with k, so the terms k >= 1 sum to at most their
            # integral over k, 2 C x^(2-s) / (beta wc) with
            # C = Int_0^inf u^(s-2) (1 + u^2)^(-s/2) du. For x >= 1 then
            # 2 m t gamma' <= m alpha Gamma(s) (1 + 2 C / (beta wc)) x^(2-s).
            s = self.s
            c = 0.5 * math.sqrt(math.pi) * math.gamma(0.5 * (s - 1.0)) / math.gamma(0.5 * s)
            peak = m * self.alpha * math.gamma(s) * (1.0 + 2.0 * c / bw)
            try:
                return lo, max(1.0, peak ** (1.0 / (s - 2.0))) / self.omega_c
            except OverflowError:
                return lo, math.inf
        if not isinstance(temp, ZeroTemperature):
            return lo, math.inf
        if self.is_ohmic:
            # 2 m t gamma' rises to 2 m alpha
            return (lo, math.inf) if 2.0 * m * self.alpha > 1.0 else None
        s = self.s
        if s < 1.0:
            return lo, math.inf
        # the peak bound m alpha Gamma(s) B(s) (see the docstring), in
        # logarithms, from |sin(s theta)| <= 1 and sin(theta) cos(theta)^(s-1)
        # = x (1 + x^2)^(-s/2). Where it is 1 (s = 2, m alpha = 2),
        # 2 m t gamma' touches 1 at x = 1, a root the walk may find
        log_peak = (math.log(m) + math.log(self.alpha) + math.lgamma(s)
                    + 0.5 * ((s - 1.0) * math.log(s - 1.0) - s * math.log(s)))
        if log_peak < 0.0:
            return None
        # as sin(theta) <= 1 too, it is at most m alpha Gamma(s) (1 + x^2)^(-(s-1)/2),
        # which is 1 at the window's end; B(s) < 1, so that peak is above 1
        peak = m * self.alpha * math.gamma(s)
        try:
            return lo, math.sqrt(peak ** (2.0 / (s - 1.0)) - 1.0) / self.omega_c
        except OverflowError:
            return lo, math.inf

    def time_scale(self):
        return 1.0 / self.omega_c


@dataclass(frozen=True)
class Lorentzian:
    """J(w) = (1/pi) * a * g / (g^2 + w^2); a sets the coupling, g > 0 the width.

    Defined at T = 0 only, so its methods ignore the temperature tag. As g
    falls it tends continuously to the static bath gamma = a t^2 / 8, the
    law ``GenericPowerLawDephasing(a / 8, 2)``.
    """

    a: float
    g: float

    def __post_init__(self):
        _check_fields(self)

    def check_temperature(self, temp):
        if not isinstance(temp, ZeroTemperature):
            # J(0) > 0 makes the thermal integral diverge logarithmically
            raise DomainError("the Lorentzian bath is only defined at T = 0")

    def density(self, w):
        # in x = w/g, in place, as for the power law; past x ~ 1e154, x^2
        # overflows and J rounds to its limit 0
        x = np.asarray(w / self.g)
        with np.errstate(over="ignore"):
            x *= x
        x += 1.0
        return np.divide(self.a / (np.pi * self.g), x, out=x)

    def gamma(self, temp, t):
        # a/(4 g^2) (u + expm1(-u)) with u = g t, whose two terms cancel as u
        # falls: below u = 0.1 it is (a t^2/4) S(u), S(u) = (u + expm1(-u))/u^2
        # by its Taylor series, which never forms g^2 and tends to a t^2/8 as
        # g falls. The long form is evaluated only from u = 0.1 on, as below
        # it a/(4 g) times the cancelling sum can overflow where g is tiny
        if isinstance(t, np.ndarray) and t.ndim:
            short = self.g * t < 0.1
            if not short.any():
                return self._long_time(t)
            out = np.empty_like(t)
            out[short], out[~short] = self._short_time(t[short]), self._long_time(t[~short])
            return out
        return self._short_time(t) if self.g * t < 0.1 else self._long_time(t)

    def _short_time(self, t):
        return 0.25 * self.a * t * t * _expm1_tail(self.g * t)

    def _long_time(self, t):
        return self.a / (4.0 * self.g) * (np.expm1(-self.g * t) / self.g + t)

    def dgamma(self, temp, t):
        return self.a / (4.0 * self.g) * (-np.expm1(-self.g * t))

    def dgamma_function(self, temp):
        # numpy's expm1, as on an array: math's differs in the last bit on
        # some times
        a, g = self.a, self.g
        scale, neg_g, expm1 = a / (4.0 * g), -g, np.expm1
        return lambda t: float(scale * -expm1(neg_g * t))

    def c2(self, temp):
        return self.a / 8.0

    def quad_problem(self, temp):
        """The bath integral at time t > 0, or its t-derivative, as a function
        of ``(t, derivative=False)``; see :meth:`PowerLawExpCutoff.quad_problem`.
        The head bound is c E from J <= a/(pi g); up to w* = min(1/t, g),
        J >= a/(2 pi g)."""
        a, g = self.a, self.g
        half_j0 = 0.5 * a / (math.pi * g)
        log_c_0 = math.log(a / math.pi) - math.log(g)

        def problem(t, derivative=False):
            k = 1.0 if derivative else 2.0
            head = ((log_c_0 + k * (math.log(t) - _LN2), 1.0),)

            # The tail above the cutoff W, Int_W^inf H(w) sin(wt) dw or
            # Int_W^inf H(w) (1 - cos(wt)) dw with H(w) = J(w) / (2 w^k), is
            # integrated by parts twice: the mean part Int_W^inf H and the
            # surface terms are exact, and as H is convex the remainder is
            # within |H'(W)| / t^2, which the bound takes k-fold (twice for
            # gamma, a margin). J is taken in x = W/g, as in ``density``; where
            # W is large these products underflow to 0, and none overflows.
            def tail(om, value=False):
                x = om / g
                h = half_j0 / (1.0 + x * x) / om
                if not derivative:
                    h /= om
                dh = -h * (2.0 / (om + g * (g / om)) + k / om)
                bound = k * abs(dh) / t / t
                if not value:
                    return bound
                sin, cos = math.sin(om * t), math.cos(om * t)
                if derivative:
                    known = h * cos / t - dh * sin / t / t
                else:
                    # Int_W^inf H dw = (u - arctan u) / g times J(0)/2, u = g/W:
                    # a series below u ~ 1e-2, where the two terms nearly cancel
                    u = g / om
                    u_minus_atan = (u ** 3 * (1.0 / 3.0 - u * u / 5.0 + u ** 4 / 7.0) if u < 1e-2
                                    else u - math.atan(u))
                    known = half_j0 * (u_minus_atan / g) + h * sin / t + dh * cos / t / t
                return known, bound

            # the search starts W at 20/t, so the number of periods of cos(wt)
            # below it stays bounded in gt
            return _integrand(self, temp, t, derivative), head, 20.0 / t, tail, min(1.0 / t, g)
        return problem

    def root_window(self, temp, m):
        # 2 m t gamma' grows without bound
        return _zeno_bound(self.c2(temp), m), math.inf

    def time_scale(self):
        return 1.0 / self.g


@dataclass(frozen=True)
class GenericPowerLawDephasing:
    """Direct decoherence law gamma(t) = alpha * t^nu, with no spectral density.

    The law holds at zero and finite temperature alike, so its methods
    ignore the temperature tag.
    """

    alpha: float
    nu: float

    def __post_init__(self):
        _check_fields(self)

    def check_temperature(self, temp):
        if isinstance(temp, HighTemperatureOhmic):
            raise DomainError(_HIGH_T_OHMIC_ONLY)

    def density(self, w):
        raise NoSpectralDensity(
            "generic power-law dephasing is defined directly via gamma(t)")

    def gamma(self, temp, t):
        # numpy's power on an array, for a single time too, so that a time
        # gives the same bits alone and inside an array
        return self.alpha * np.asarray(t) ** self.nu

    def dgamma(self, temp, t):
        if self.nu < 1.0 and (t <= 0.0).any():
            raise DomainError(_SINGULAR_AT_ZERO)
        return self.alpha * self.nu * t ** (self.nu - 1.0)

    def dgamma_function(self, temp):
        # numpy's power, as in gamma
        scale, power, singular = self.alpha * self.nu, self.nu - 1.0, self.nu < 1.0

        def dgamma(t):
            if singular and t <= 0.0:
                raise DomainError(_SINGULAR_AT_ZERO)
            return float(scale * np.asarray(t) ** power)
        return dgamma

    def c2(self, temp):
        if self.nu != 2.0:
            raise NoQuadraticRegime(
                f"gamma = alpha*t^nu with nu={self.nu} has no quadratic regime")
        return self.alpha

    def quad_problem(self, temp):
        raise NoSpectralDensity("no bath integral for generic power-law dephasing")

    def root_window(self, temp, m):
        # the exact root of 2 m t gamma'(t) = 1
        root = (2.0 * m * self.alpha * self.nu) ** (-1.0 / self.nu)
        return root, root

    def time_scale(self):
        return self.root_window(None, 1)[0]


SpectralModel = Union[PowerLawExpCutoff, Lorentzian, GenericPowerLawDephasing]


# --- temperature tags --------------------------------------------------------

@dataclass(frozen=True)
class ZeroTemperature:
    """T = 0: the quadrature weight is 1."""

    def weigh(self, j, w):
        """Multiply ``j`` by the weight W(w) in place: by 1, so nothing."""

    def weight_bound(self):
        """``(a0, a1)`` with W(w) <= a0 + a1 / w."""
        return 1.0, 0.0


@dataclass(frozen=True)
class FiniteBeta:
    """Finite inverse temperature: quadrature weight coth(beta*w/2)."""

    beta: float

    def __post_init__(self):
        _check_fields(self)

    def weigh(self, j, w):
        # 1/tanh, then the product, as the bits of j * coth(beta w / 2)
        y = np.multiply(w, 0.5 * self.beta)
        np.tanh(y, out=y)
        j *= np.divide(1.0, y, out=y)

    def weight_bound(self):
        # coth y <= 1 + 1/y at y = beta w / 2, and coth y >= max(1, 1/y) is at
        # least half of that
        return 1.0, 2.0 / self.beta


@dataclass(frozen=True)
class HighTemperatureOhmic:
    """Leading high-temperature expansion, weight 2/(beta*w); Ohmic baths only."""

    beta: float

    def __post_init__(self):
        _check_fields(self)

    def weigh(self, j, w):
        y = np.multiply(w, self.beta)
        j *= np.divide(2.0, y, out=y)

    def weight_bound(self):
        return 0.0, 2.0 / self.beta


Temperature = Union[ZeroTemperature, FiniteBeta, HighTemperatureOhmic]


@dataclass(frozen=True)
class BathSpec:
    """A spectral model together with its temperature mode."""

    spectral: SpectralModel
    temperature: Temperature = field(default_factory=ZeroTemperature)

    def __post_init__(self):
        _check_kind("spectral", self.spectral, SpectralModel)
        _check_kind("temperature", self.temperature, Temperature)
        self.spectral.check_temperature(self.temperature)

    def __reduce__(self):  # from the fields: the bound problem does not pickle
        return type(self), (self.spectral, self.temperature)

    @functools.cached_property
    def quad_problem(self):
        """The family's ``quad_problem`` at this temperature, a function of
        ``(t, derivative=False)``, bound on first use, as
        :attr:`DephasingModel.dgamma_at` binds gamma'."""
        return self.spectral.quad_problem(self.temperature)


def _check_kind(name, value, kinds):
    """DomainError unless ``value`` is an instance of a class of ``kinds``."""
    kinds = get_args(kinds) or (kinds,)
    if not isinstance(value, kinds):
        names = ", ".join(k.__name__ for k in kinds)
        raise DomainError(f"{name} must be one of {names}, not {type(value).__name__}")


# --- evaluation routes -------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """Evaluate gamma(t) from the model's closed-form expression."""

    # the relative width within which a root of 2 m t gamma' = 1 is known:
    # the closed forms are exact to rounding, so that of the root solver
    root_rel_tol = ROOT_X_TOL

    def gamma(self, bath: BathSpec, t):
        return bath.spectral.gamma(bath.temperature, t)

    def dgamma(self, bath: BathSpec, t):
        return bath.spectral.dgamma(bath.temperature, t)

    def dgamma_function(self, bath: BathSpec):
        return bath.spectral.dgamma_function(bath.temperature)


@dataclass(frozen=True)
class Quadrature:
    """Evaluate gamma(t) and dgamma/dt by adaptive quadrature of their bath
    integrals at the default tolerances, one time at a time
    (:func:`gamma_quadrature` and :func:`dgamma_quadrature`)."""

    # gamma' is known to the default relative tolerance, and so is a root of
    # 2 m t gamma' = 1 where the slope of ln(t gamma') in ln t is of order 1
    root_rel_tol = QuadratureSettings().rel_tol

    def gamma(self, bath: BathSpec, t):
        return _each(lambda ti: gamma_quadrature(bath, ti)[0], t)

    def dgamma(self, bath: BathSpec, t):
        return _each(self.dgamma_function(bath), t)

    def dgamma_function(self, bath: BathSpec):
        return lambda t: dgamma_quadrature(bath, t)[0]


Route = Union[ClosedForm, Quadrature]


@dataclass(frozen=True)
class DephasingModel:
    """An evaluable decoherence function: bath plus evaluation route.

    All methods accept scalars or numpy arrays of times and are pure, so
    instances are safe to share across threads.
    """

    bath: BathSpec
    route: Route = field(default_factory=ClosedForm)

    def __post_init__(self):
        _check_kind("bath", self.bath, BathSpec)
        _check_kind("route", self.route, Route)

    def __reduce__(self):  # from the fields: the bound gamma' does not pickle
        return type(self), (self.bath, self.route)

    @functools.cached_property
    def dgamma_at(self):
        """The route's float gamma' of the bath at a float t >= 0, bound on
        first use (two threads racing there bind equal functions)."""
        return self.route.dgamma_function(self.bath)

    @functools.cached_property
    def product_optimum(self):
        """(t_u, gamma(t_u)) at the product optimum, the root of
        2 t gamma'(t) = 1, or (nan, nan) where none is finite: solved on first
        use by the optimizer's lane solver. A solve that raises binds nothing."""
        from .metrology import _solve_lane  # here, as metrology imports this module
        t_u = _solve_lane(self, 1.0)
        return t_u, math.nan if math.isnan(t_u) else float(self.route.gamma(self.bath, t_u))

    def gamma(self, t):
        """gamma(t) via the declared route."""
        return _on_times(self.route.gamma, self.bath, t)

    def dgamma_dt(self, t):
        """dgamma/dt via the declared route."""
        return dgamma_dt(self, t)

    def short_time_coeff(self) -> float:
        """Quadratic coefficient c2 with gamma(t) -> c2 * t^2 as t -> 0."""
        return gamma_short_time_coeff(self)

    def time_scale(self) -> float:
        """Characteristic time that seeds the oracle's grid
        (:func:`~ramsey_bounds.oracle.brute_force_optimum`)."""
        return float(self.bath.spectral.time_scale())


# --- operations --------------------------------------------------------------

def _on_times(f, arg, t, at=None):
    """f(arg, t), or at(t) where ``at`` is given and t is a scalar, at the
    time t read as numpy reads it (``numerics._real_array``): a float on a
    scalar or 0-d array, else on its array. A valid float makes no array."""
    if not (isinstance(t, float) and 0.0 <= t < math.inf):
        t = _real_array("t", t, 0.0)
        if t.ndim:
            return f(arg, t)
    return at(float(t)) if at else float(f(arg, float(t)))


def _each(f, t):
    """f(ti) for every time ti of t (a float or an array), keeping its shape."""
    if isinstance(t, float):
        return f(t)
    t = np.asarray(t, dtype=float)
    return np.array([f(ti) for ti in t.ravel().tolist()]).reshape(t.shape)


# ndarray.min and max without their Python wrappers; axis None takes every axis
_least, _largest = np.minimum.reduce, np.maximum.reduce


def spectral_density(model: SpectralModel, omega):
    """Evaluate J(omega) for a model that has a spectral density.

    Parameters
    ----------
    model:
        A :class:`PowerLawExpCutoff` or :class:`Lorentzian`.
    omega:
        Frequency, a scalar or an array, >= 0 (see "Inputs" in the README).
    """
    # a float array of valid frequencies, as the quadrature's nodes are, is
    # read as it is: the checks are two reductions
    w = omega
    if not (type(w) is np.ndarray and w.dtype == float and w.size
            and 0.0 <= _least(w, None) and _largest(w, None) < math.inf):
        w = _real_array("omega", omega, 0.0)
    out = model.density(w)
    return out if out.ndim else float(out)


def gamma_closed(deph: DephasingModel, t):
    """Closed-form gamma(t).

    Every supported pair has one: the power-law cutoff bath at T = 0, at
    finite beta and (Ohmic) in the high-temperature expansion, each a sum of
    one pole-free kernel; the Lorentzian at T = 0; and the generic power law
    at any temperature tag.

    Parameters
    ----------
    deph:
        Dephasing model (the route tag is ignored here).
    t:
        Time, a scalar or an array, >= 0 (see "Inputs" in the README).
    """
    return _on_times(deph.bath.spectral.gamma, deph.bath.temperature, t)


def dgamma_dt(deph: DephasingModel, t):
    """Time derivative of gamma via the model's route at a time t >= 0, an
    array or a scalar (through :attr:`DephasingModel.dgamma_at`).

    Analytic for every closed form; on the quadrature route the integral
    (1/2) Int J(w) W(w) sin(w t) / w dw (:func:`dgamma_quadrature`).
    """
    return _on_times(deph.route.dgamma, deph.bath, t, deph.dgamma_at)


def gamma_short_time_coeff(deph: DephasingModel) -> float:
    """Exact coefficient c2 of the universal short-time law gamma(t) ~ c2 t^2.

    For spectral baths c2 = (1/4) Int J(w) W(w) dw evaluated against the
    model's own convention (the Ohmic T = 0 closed form carries its factor 2);
    the generic power law supports this only at nu = 2.
    """
    return deph.bath.spectral.c2(deph.bath.temperature)


# --- quadrature route --------------------------------------------------------

def _integrand(spec, temp, t, derivative=False):
    """(1/2) J(w) W(w) (1 - cos(w t)) / w^2, the integrand of the bath integral,
    or with ``derivative`` its t-derivative (1/2) J(w) W(w) sin(w t) / w.

    (1 - cos(wt)) / w^2 = 2 u^2 with u = sin(wt/2) / w has no cancellation,
    and its 2 cancels the 1/2 in front. J and W each take one u: u^2 alone
    underflows past w ~ 1e154, and J W may overflow where J W u^2 does not.
    Taken in place, as in ``PowerLawExpCutoff.density``."""
    scale = t if derivative else 0.5 * t

    def f(w):
        u = scale * w
        np.sin(u, out=u)
        u /= w
        j = spectral_density(spec, w)
        j *= u
        temp.weigh(j, w)
        j *= 0.5 if derivative else u
        return j
    return f


# The tail search's resolution, its largest step and its offset above the
# secant's zero (see _tail_cutoff). Its first probe takes the largest step:
# the power law starts at the floor of its bound, and at the contract's goals
# its least cutoffs lie 2 to 5 doublings above it, so that probe brackets
# most of them, and the secant then interpolates.
_RESOLUTION = 2.0 ** 0.125
_FIRST_PROBE = 16.0
_ABOVE_SECANT = 2.0 ** 0.0625


def _tail_cutoff(bound, omega_max, goal):
    """The least cutoff from ``omega_max`` on at which ``bound`` (the tail
    error at a cutoff, falling as the cutoff grows) is within ``goal``, or one
    at most 2^(1/8) times it.

    The search keeps the largest cutoff probed that misses the goal and the
    least that meets it, and returns the latter once they lie within 2^(1/8).
    Each probe is where the secant of log(bound/goal) against the cutoff,
    through the last two probes, meets 0 (at most 16 times the largest miss):
    2^(1/16) above that point, so that one more probe 2^(1/8) lower closes the
    bracket, or at 2^(1/8) from an end of the bracket where the point lies
    that close to it. It stops where the bound is not finite, and after 50
    probes, by when a bound that never meets the goal has taken the cutoff
    past 2^200 times its start."""
    b = bound(omega_max)
    if b <= goal or not b < math.inf:
        return omega_max
    log, inf = math.log, math.inf
    log_goal = log(goal)
    lo, hi = omega_max, inf
    w_last, v_last = omega_max, log(b) - log_goal
    w = _FIRST_PROBE * omega_max
    for _ in range(50):
        b = bound(w)
        if not b < inf:
            return w
        v = log(b) - log_goal if b > 0.0 else -inf
        if v <= 0.0:
            hi = w
        else:
            lo = w
        if hi <= lo * _RESOLUTION or hi / _RESOLUTION <= lo:
            return hi
        # NaN where the secant is flat or the bound is 0; outside the bracket,
        # its middle in log W; and never past _FIRST_PROBE times lo
        zero = w - v * (w - w_last) / (v - v_last) if v != v_last else math.nan
        if not lo < zero < hi:
            zero = math.sqrt(lo) * math.sqrt(hi)
        if zero > _FIRST_PROBE * lo:  # min(zero, _FIRST_PROBE * lo)
            zero = _FIRST_PROBE * lo
        w_last, v_last = w, v
        if zero <= lo * _RESOLUTION:
            w = lo * _RESOLUTION
        elif zero * _RESOLUTION >= hi:
            w = hi / _RESOLUTION
        else:
            w = zero * _ABOVE_SECANT
    return min(hi, w)


# The default settings, and the panels' half of them, built once.
_SETTINGS = QuadratureSettings()


def _halved(settings):
    return QuadratureSettings(rel_tol=0.5 * settings.rel_tol, abs_tol=0.5 * settings.abs_tol)


_HALF_SETTINGS = _halved(_SETTINGS)


def gamma_quadrature(bath: BathSpec, t: float, settings=_SETTINGS):
    """gamma(t) by adaptive quadrature of the bath integral.

    Parameters
    ----------
    bath:
        Bath with a spectral density (not the generic power-law model).
    t:
        One time, >= 0 (see "Inputs" in the README).
    settings:
        Tolerances, a :class:`~ramsey_bounds.numerics.QuadratureSettings`.

    Returns
    -------
    (value, error_estimate):
        The integral and its error estimate, with
        error_estimate <= max(abs_tol, rel_tol*|value|);
        :class:`ToleranceNotMet` (with both) is raised where that fails, and
        where abs_tol = 0 and the value underflows to 0. The
        estimate is the sum over panels of |G16 - K33| (the Gauss-Kronrod
        16/33 pair) and of ``numerics.ROUNDING_FACTOR`` eps Int |integrand|
        (the rounding of the value itself), plus the bounds on the head below
        the lower cutoff and on the tail above the upper one.
        :class:`DomainError` is raised before integrating where the head
        cutoff that meets the goal lies below the floats (sub-Ohmic finite
        beta at s below about 0.035 where alpha = beta = wc = t = 1), and for
        a ``t`` or ``settings`` of another kind or value.
    """
    return _bath_quadrature(bath, t, settings, derivative=False)


def dgamma_quadrature(bath: BathSpec, t: float, settings=_SETTINGS):
    """dgamma/dt by adaptive quadrature of its own bath integral,
    (1/2) Int_0^inf J(w) W(w) sin(w t) / w dw.

    Same arguments, cutoffs and error contract as :func:`gamma_quadrature`;
    returns ``(value, error_estimate)``.
    """
    return _bath_quadrature(bath, t, settings, derivative=True)


def _bath_quadrature(bath, t, settings, derivative):
    """Both quadratures: the bath's problem for gamma or for its derivative,
    built once and integrated against half the tolerance, with its head and
    its tail each cut at a quarter of a goal (:func:`_cut_and_integrate`).
    The goal is rel_tol * 0.15 times the head bound at w* (see the module
    docstring), for gamma a lower bound on the tolerance; where the result
    still misses the contract (gamma' may be smaller), the cuts are made
    again against a quarter of its tolerance."""
    # one time, read as numpy reads it (as in _on_times); a NaN time would
    # make every panel's error NaN, which never refines
    if not (type(t) is float and 0.0 <= t < math.inf):
        t = _real("t", _real_array("t", t, 0.0))
    if settings is not _SETTINGS:
        _check_kind("settings", settings, QuadratureSettings)
    if t == 0.0:
        return 0.0, 0.0
    # panels run at half tolerance so the head and tail bounds fit inside it
    inner = _HALF_SETTINGS if settings is _SETTINGS else _halved(settings)
    problem = bath.quad_problem(t, derivative)
    log_w_star = math.log(problem[4])
    goal = max(settings.abs_tol, settings.rel_tol * 0.15 * math.fsum(
        [math.exp(log_c + p * log_w_star) for log_c, p in problem[1]]))
    value, err = _cut_and_integrate(bath, problem, log_w_star, t, goal, inner)
    tol = max(settings.abs_tol, settings.rel_tol * abs(value))
    if err > tol:
        value, err = _cut_and_integrate(bath, problem, log_w_star, t, 0.25 * tol, inner)
        tol = max(settings.abs_tol, settings.rel_tol * abs(value))
    # at t > 0 a value of 0 has underflowed and is not exact: it meets no
    # tolerance of 0, even with an estimate of 0
    if err > tol or not tol:
        raise ToleranceNotMet(
            f"tolerance {tol:g} not met: panel, head and tail error {err:g}",
            value=value, error=err)
    return value, err


# The least goal, whose quarter shared among a head bound's terms is above 0:
# with abs_tol = 0, a value that underflows has a goal of 0.
_GOAL_FLOOR = 16.0 * math.ulp(0.0)


def _cut_and_integrate(bath, problem, log_w_star, t, goal, inner):
    """The integral of ``problem`` (see ``quad_problem`` in the module
    docstring) with its tail and its head each cut at a quarter of ``goal``,
    the head at most at its w*, whose log is ``log_w_star``:
    ``(value, error estimate)``, the estimate the panels' plus the head and
    tail bounds."""
    f, head, tail_start, tail, _ = problem
    quarter = 0.25 * max(goal, _GOAL_FLOOR)
    omega_max = _tail_cutoff(tail, tail_start, quarter)
    tail_val, tail_err = tail(omega_max, value=True)
    log_min = _head_cutoff(head, quarter, log_w_star, bath)
    head_err = math.fsum([math.exp(log_c + p * log_min) for log_c, p in head])
    # seeded panels are at most two oscillation periods of cos(w t) wide
    value, err = integrate_semi_infinite(f, omega_max, inner, max_panel_width=_4PI / t,
                                         lower_cutoff=math.exp(log_min))
    return value + tail_val, err + tail_err + head_err


# ln of the smallest normal float and of the largest float
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)
_LN2, _LN10 = math.log(2.0), math.log(10.0)
_LOG_INNER = math.log(INNER_NODE_FRACTION)
_4PI = 4.0 * math.pi


def _head_cutoff(head, goal, log_w_star, bath):
    """The log of the largest E up to w* (``log_w_star`` its log) at which
    each term c E^p of the head bound is within its share of ``goal``, taken
    in logarithms, where E alone may underflow. :class:`DomainError` where
    the innermost quadrature node below E would fall below the smallest
    normal float."""
    share = math.log(goal / len(head))
    log_e = log_w_star
    for log_c, p in head:  # the least, as min() takes it
        log_p = (share - log_c) / p
        if log_p < log_e:
            log_e = log_p
    if log_e + _LOG_INNER < _LOG_TINY:
        bound = " + ".join(f"1e{log_c / _LN10:.1f} E^{p:.3g}" for log_c, p in head)
        raise DomainError(
            f"the quadrature of {bath.spectral} at {bath.temperature} would cut its head "
            f"at E = 1e{log_e / _LN10:.0f}, where its nodes fall below the smallest "
            f"normal float, for its bound {bound} on Int_0^E to meet {goal:.3g}")
    return log_e
