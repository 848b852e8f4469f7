"""Spectral densities and the pure-dephasing decoherence function gamma(t).

The coherence of a probe coupled to a bosonic bath decays as e^(-gamma(t)),
with

    gamma(t) = (1/2) Int_0^inf J(w) * W(w) * (1 - cos(w t)) / w^2 dw,

where W(w) = 1 at zero temperature, coth(beta*w/2) at inverse temperature
beta, and 2/(beta*w) in the high-temperature expansion. Three spectral
families are supported, each with closed forms where they exist and a
quadrature route everywhere a spectral density is defined:

* power law with exponential cutoff, J(w) = alpha * wc^(1-s) * w^s * e^(-w/wc)
* Lorentzian, J(w) = (1/pi) * a * g / (g^2 + w^2)
* a generic power-law decoherence function gamma(t) = alpha * t^nu with no
  underlying J (nu = 1 is Markovian dephasing, nu = 2 a static bath).

Each family is one class that holds every formula for its bath and decides
on the temperature mode only inside its own methods, so a new family, or a
new route for an existing one, touches one class. A family provides:

* ``check_temperature(temp)``: reject temperature modes it does not support;
* ``density(w)``: J(w) on an array of frequencies w >= 0;
* ``gamma(temp, t)`` and ``dgamma(temp, t)``: the closed forms at a time
  or on an array of times; every supported temperature mode has one;
* ``c2(temp)``: the coefficient of the short-time law gamma(t) ~ c2 t^2;
* ``quad_problem(temp, t, tail_goal, derivative)``: the bath integral at
  time t set up for quadrature in w as ``(integrand, omega_max,
  tail_value, tail_err)``, or with ``derivative`` the integral of its
  t-derivative, (1/2) Int J(w) W(w) sin(w t) / w dw, with a tail bound of
  its own (see :meth:`PowerLawExpCutoff.quad_problem`). The change of
  variable and the panel layout belong to
  :func:`~ramsey_bounds.numerics.integrate_semi_infinite`;
* ``omega_fast()``: the fastest bath frequency, or None;
* ``time_scale()``: the characteristic time, which seeds the oracle's grid;
* ``root_window(temp, m)``: a window ``(lo, hi)`` of times that holds every
  root of 2 m t gamma'(t) = 1 (``hi`` may be inf), or None where the
  family's bounds prove there is none. For the spectral families
  ``lo`` is 1/(2 sqrt(m c2)); the optimizer walks up from it.

Temperature tags supply the thermal weight W(w) through ``weight(w)``. An
evaluation route (closed form or quadrature) supplies ``gamma(bath, t)`` and
``dgamma(bath, t)`` on a time or an array of times, checked by the caller.

Convention note: the Ohmic (s = 1) closed form at T = 0,
gamma(t) = (alpha/2) ln(1 + wc^2 t^2), is exactly twice the integral above,
so the quadrature route reproduces it up to the constant factor 1/2. Every
other closed form is the integral itself. Metrological ratios computed from
a single route are unaffected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    DomainError,
    NoQuadraticRegime,
    NoSpectralDensity,
    ToleranceNotMet,
)
from .numerics import QuadratureSettings, _check_fields, integrate_semi_infinite

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

# |s - 1| below this is dispatched to the Ohmic logarithmic closed form
# (the general expression has a Gamma(s-1) pole at s = 1).
OHMIC_S_TOL = 1e-9

_HIGH_T_OHMIC_ONLY = ("the high-temperature expansion is only valid for an Ohmic "
                      "power-law bath (s = 1)")


def _zeno_bound(c2, m):
    """1/(2 sqrt(m c2)): no root of 2 m t gamma'(t) = 1 lies below it, since
    J W >= 0 bounds gamma'' by gamma''(0) = 2 c2, so 2 m t gamma' <= 4 m c2 t^2.
    Infinite where m c2 underflows to 0."""
    mc2 = m * c2
    return 0.5 / math.sqrt(mc2) if mc2 > 0.0 else math.inf


# x * x overflows a float past x = 1.3e154. From x = _BIG_X on, 1 + x^2 is x^2
# to 1e-300, and the T = 0 and high-T closed forms of the power-law family
# are written with x^2 in its place (``_gamma_far``, ``_dgamma_far``).
_BIG_X = 1e150


def _past_square(x):
    """Whether x, or the largest element of an array x, is at least _BIG_X."""
    if isinstance(x, np.ndarray):
        return x.max(initial=0.0) >= _BIG_X
    return x >= _BIG_X


def _split(x, t, near, far):
    """near(t) on the times with x = wc t below _BIG_X and far(t) on the rest,
    for times t past it somewhere; each form sees only its own times."""
    if not isinstance(x, np.ndarray):
        return far(t)
    big = x >= _BIG_X
    out = np.empty_like(x)
    out[~big] = near(t[~big])
    out[big] = far(t[big])
    return out


# --- the power-law kernel ----------------------------------------------------
#
# I_p(Om, t) = Int_0^inf w^(p-2) e^(-w/Om) (1 - cos w t) dw, p > -1, is
# Gamma(p + 1) Om^(p-1) K_p(x), and dI_p/dt is Gamma(p + 1) Om^p D_p(x), with
# x = Om t, theta = arctan x, q = 1 - p, L = ln(1 + x^2),
#   K_p = B / (p (p - 1)),  B = 1 - (1 + x^2)^(q/2) cos(q theta),
#   D_p = theta sinc(p theta) (1 + x^2)^(-p/2).
# T = 0 is p = s, high-T Ohmic p = 0. B vanishes at both poles p = 0 and 1.
# With F(c) = -(L/2) exprel(c L/2) cos(c theta) + theta sin(c theta/2) sinc(c theta/2),
# B/q = F(q) for p >= 1/2 and B/p = -F(-p) - x theta sinc(p theta) e^(-p L/2)
# below, so nothing cancels near a pole, at short times or at long times.

def _exprel(u):
    return math.expm1(u) / u if u else 1.0


def _sinc(u):
    return math.sin(u) / u if u else 1.0


def _half_log(x):
    """ln(1 + x^2) / 2 for x >= 0, also where x^2 overflows."""
    return 0.5 * math.log1p(x * x) if x < _BIG_X else math.log(x)


def _kernel(p, x):
    """K_p(x), the power-law kernel I_p(Om, t) over Gamma(p + 1) Om^(p-1)."""
    th, hl = math.atan(x), _half_log(x)
    c = 1.0 - p if p >= 0.5 else -p
    f = (-hl * _exprel(c * hl) * math.cos(c * th)
         + th * math.sin(0.5 * c * th) * _sinc(0.5 * c * th))
    if p >= 0.5:
        return -f / p
    return (f + x * th * _sinc(p * th) * math.exp(-p * hl)) / (1.0 - p)


def _kernel_dt(p, x):
    """D_p(x), the kernel's t-derivative over Gamma(p + 1) Om^p."""
    if x <= 1.0 or not p:
        th = math.atan(x)
        return th * _sinc(p * th) * math.exp(-p * _half_log(x))
    # p theta = k pi + f pi - p arctan(1/x) with k = round(p/2) and f = p/2 - k
    # exact, so sin(p theta) keeps its digits where p theta nears k pi
    k = round(0.5 * p)
    sin_pt = math.sin(math.pi * (0.5 * p - k) - p * math.atan(1.0 / x))
    return (-sin_pt if k % 2 else sin_pt) / p * math.exp(-p * _half_log(x))


# Finite beta: coth(beta w / 2) = 1 + 2 Sum_{k>=1} e^(-k beta w). Terms
# k <= K = _MATSUBARA_TERMS are T = 0 kernels with cutoffs 1/(1/wc + k beta);
# the rest is e^(-(K+1) beta w) / (1 - e^(-beta w)), and term n of
# 1/(1 - e^-y) = Sum_n B_n^+ y^(n-1) / n! is the kernel at p = s + n - 1 with
# the cutoff of k = K + 1. Below, (n, B_n^+ / n!) for n <= 16 (B_1^+ = +1/2).
_MATSUBARA_TERMS = 8
_BERNOULLI_TERMS = ((0, 1.0), (1, 0.5), (2, 1 / 12), (4, -1 / 720), (6, 1 / 30240),
                    (8, -1 / 1209600), (10, 1 / 47900160), (12, -691 / 1307674368000),
                    (14, 1 / 74724249600), (16, -3617 / 10670622842880000))


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
        return (self.alpha * self.omega_c ** (1.0 - self.s)
                * w ** self.s * np.exp(-w / self.omega_c))

    def gamma(self, temp, t):
        x = self.omega_c * t
        if not isinstance(temp, FiniteBeta) and _past_square(x):
            return _split(x, t, lambda t: self.gamma(temp, t),
                          lambda t: self._gamma_far(temp, t))
        if isinstance(temp, ZeroTemperature):
            if self.is_ohmic:
                return 0.5 * self.alpha * np.log1p(x * x)
            # 1 - e^a cos b with a = -(s-1) ln(1 + x^2)/2, b = (s-1) arctan x, in
            # the polar form -expm1(a) cos b + 2 sin^2(b/2): nothing cancels
            # near s = 1 or at short times. Gamma(s - 1) < 0 for s < 1 makes
            # gamma(0) = -0.0; adding 0.0 turns that into 0.0 and moves no
            # other bit
            s1 = self.s - 1.0
            b = s1 * np.arctan(x)
            return (0.5 * self.alpha * math.gamma(s1)
                    * (-np.expm1(-0.5 * s1 * np.log1p(x * x)) * np.cos(b)
                       + 2.0 * np.sin(0.5 * b) ** 2)) + 0.0
        if isinstance(temp, HighTemperatureOhmic):
            return (self.alpha / temp.beta
                    * (t * np.arctan(x) - 0.5 * np.log1p(x * x) / self.omega_c))
        terms, wc = self._thermal_terms(temp.beta), self.omega_c
        return _each(lambda ti: math.fsum(a * _kernel(p, r * wc * ti)
                                          for a, p, r in terms), t)

    def dgamma(self, temp, t):
        x = self.omega_c * t
        if isinstance(temp, ZeroTemperature):
            # the optimizer's walk asks for one float at a time: one comparison
            if x >= _BIG_X if x.__class__ is float else _past_square(x):
                return _split(x, t, lambda t: self.dgamma(temp, t), self._dgamma_far)
            if self.is_ohmic:
                return self.alpha * self.omega_c ** 2 * t / (1.0 + x * x)
            s = self.s
            return (0.5 * self.alpha * self.omega_c * math.gamma(s)
                    * np.sin(s * np.arctan(x)) / (1.0 + x * x) ** (0.5 * s))
        if isinstance(temp, HighTemperatureOhmic):
            return self.alpha / temp.beta * np.arctan(x)
        terms, wc = self._thermal_terms(temp.beta), self.omega_c
        return _each(lambda ti: wc * math.fsum(a * r * _kernel_dt(p, r * wc * ti)
                                               for a, p, r in terms), t)

    def _gamma_far(self, temp, t):
        """gamma at T = 0 or high T where wc t >= _BIG_X: the closed forms
        with ln(1 + x^2) = 2 ln x."""
        x = self.omega_c * t
        log_x = np.log(x)
        if isinstance(temp, HighTemperatureOhmic):
            return self.alpha / temp.beta * (t * np.arctan(x) - log_x / self.omega_c)
        if self.is_ohmic:
            return self.alpha * log_x
        # 1 - x^(-s1) by expm1 near s = 1, else by pow, which keeps the digits
        # that e^(-s1 ln x) loses to the rounding of ln x ~ 700
        s1 = self.s - 1.0
        a = -s1 * log_x
        b = s1 * np.arctan(x)
        return (0.5 * self.alpha * math.gamma(s1)
                * (np.where(abs(a) < 1.0, -np.expm1(a), 1.0 - x ** -s1) * np.cos(b)
                   + 2.0 * np.sin(0.5 * b) ** 2))

    def _dgamma_far(self, t):
        """dgamma/dt at T = 0 where wc t >= _BIG_X: the closed forms with
        1 + x^2 = x^2."""
        x = self.omega_c * t
        if self.is_ohmic:
            return self.alpha * self.omega_c ** 2 * (t / x) / x
        s = self.s
        return (0.5 * self.alpha * self.omega_c * math.gamma(s)
                * np.sin(s * np.arctan(x)) * x ** -s)

    def c2(self, temp):
        wc = self.omega_c
        try:
            if isinstance(temp, ZeroTemperature):
                if self.is_ohmic:
                    c2 = 0.5 * self.alpha * wc ** 2
                else:
                    c2 = 0.25 * self.alpha * wc ** 2 * math.gamma(self.s + 1.0)
            elif isinstance(temp, HighTemperatureOhmic):
                c2 = 0.5 * self.alpha * wc / temp.beta
            else:
                # each kernel goes as Gamma(p + 1) Om^(p + 1) t^2 / 2 at short times
                c2 = 0.5 * wc ** 2 * math.fsum(
                    a * r * r for a, p, r in self._thermal_terms(temp.beta))
        except OverflowError:
            c2 = math.inf
        if c2 < math.inf:
            return c2
        raise DomainError(f"the short-time coefficient c2 overflows a float for {self} at {temp}")

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

    def quad_problem(self, temp, t: float, tail_goal: float, derivative=False):
        """Build the 1-D integration problem for the bath integral at time t > 0,
        or with ``derivative`` for its t-derivative (see :func:`_integrand`).

        Returns ``(integrand, omega_max, tail_value, tail_err)``: the integrand
        as a function of omega, to be integrated over (0, omega_max].
        ``tail_value`` is the analytically known part of the neglected tail
        above omega_max (added to the quadrature result) and ``tail_err``
        bounds the remainder.
        """
        s, wc = self.s, self.omega_c
        # exponential-tail envelope: integrand <= alpha*wc^(1-s)*w^(s-2)*W*2*e^(-w/wc),
        # with one power of w more for the derivative kernel sin(wt)/w; as the
        # kernels are also at most t^2/2 and t, it shrinks by (W t)^2/4 and
        # W t/2 where those are smaller, and for the derivative, whose factor
        # J W / w decreases past W, by 1/(2 wc t) (second mean value theorem).
        # The cutoff doubles from a fixed multiple of wc until the envelope
        # meets a quarter of the goal.
        def tail_bound(om):
            kern = (min(1.0, 0.5 * om * t, 0.5 / (wc * t)) if derivative
                    else min(1.0, 0.25 * (om * t) ** 2))
            return (2.0 * self.alpha * wc ** (2.0 - s)
                    * om ** (s - 1.0 if derivative else s - 2.0)
                    * math.exp(-om / wc) * max(1.0, float(temp.weight(om))) * kern)

        omega_max = _tail_cutoff(tail_bound, wc * max(40.0, 40.0 / s, 10.0 + 5.0 * s),
                                 0.25 * tail_goal)
        return _integrand(self, temp, t, derivative), omega_max, 0.0, tail_bound(omega_max)

    def root_window(self, temp, m):
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
        if self.s < 1.0:
            return lo, math.inf
        # 2 m t gamma' = m alpha Gamma(s) sin(theta) sin(s theta) cos(theta)^(s-1),
        # theta = arctan(wc t), is at most m alpha Gamma(s) (1 + wc^2 t^2)^(-(s-1)/2)
        peak = m * self.alpha * math.gamma(self.s)
        if peak <= 1.0:
            return None
        try:
            return lo, math.sqrt(peak ** (2.0 / (self.s - 1.0)) - 1.0) / self.omega_c
        except OverflowError:
            return lo, math.inf

    def omega_fast(self):
        return self.omega_c

    def time_scale(self):
        return 1.0 / self.omega_c


@dataclass(frozen=True)
class Lorentzian:
    """J(w) = (1/pi) * a * g / (g^2 + w^2); a sets the coupling, g the width.

    Defined at T = 0 only, so its methods ignore the temperature tag.
    """

    a: float
    g: float

    def __post_init__(self):
        _check_fields(self, zero_ok=("g",))

    def check_temperature(self, temp):
        if not isinstance(temp, ZeroTemperature):
            # J(0) > 0 makes the thermal integral diverge logarithmically
            raise DomainError("the Lorentzian bath is only defined at T = 0")

    def density(self, w):
        return (self.a * self.g / np.pi) / (self.g ** 2 + w ** 2)

    def gamma(self, temp, t):
        g = self.g
        if g == 0.0:
            return self.a * t * t / 8.0
        return self.a / (4.0 * g) * (np.expm1(-g * t) / g + t)

    def dgamma(self, temp, t):
        if self.g == 0.0:
            return self.a * t / 4.0
        return self.a / (4.0 * self.g) * (-np.expm1(-self.g * t))

    def c2(self, temp):
        return self.a / 8.0

    def quad_problem(self, temp, t: float, tail_goal: float, derivative=False):
        """The bath integral at time t > 0, or its t-derivative; see
        :meth:`PowerLawExpCutoff.quad_problem`."""
        a, g = self.a, self.g
        if g == 0.0:
            raise DomainError(
                "Lorentzian quadrature needs g > 0 (g = 0 is the static-bath "
                "limit; use the closed form)")
        # Above the cutoff W the tail is integrated by parts twice: the surface
        # terms are added exactly and the remainder is bounded by the first
        # derivative of the smooth factor at W over t^2. W is 20/t doubled
        # until that bound meets the goal, so the number of periods of
        # cos(wt) below W stays bounded in gt.
        goal = max(tail_goal, 1e-300)
        if derivative:
            # Int_W^inf H1 sin(wt) dw,  H1(w) = (a g / 2 pi) / ((g^2 + w^2) w)
            def h1_val(om):
                return 0.5 * (a * g / math.pi) / ((g * g + om * om) * om)

            def h1_der(om):
                return -0.5 * (a * g / math.pi) * (g * g + 3.0 * om * om) \
                    / ((g * g + om * om) ** 2 * om * om)

            omega_max = _tail_cutoff(lambda om: abs(h1_der(om)) / (t * t), 20.0 / t,
                                     0.25 * goal)
            phase = omega_max * t
            tail_value = (h1_val(omega_max) * math.cos(phase) / t
                          - h1_der(omega_max) * math.sin(phase) / (t * t))
            tail_err = abs(h1_der(omega_max)) / (t * t)
            return _integrand(self, temp, t, derivative), omega_max, tail_value, tail_err

        # Int_W^inf H (1 - cos(wt)) dw,  H(w) = (a g / 2 pi) / ((g^2 + w^2) w^2):
        # a closed-form mean part and an oscillatory part -Int_W^inf H cos(wt) dw
        def h_val(om):
            return 0.5 * (a * g / math.pi) / ((g * g + om * om) * om * om)

        def h_der(om):
            return -(a * g / math.pi) / ((g * g + om * om) * om ** 3) \
                * (1.0 + om * om / (g * g + om * om))

        omega_max = _tail_cutoff(lambda om: 2.0 * abs(h_der(om)) / (t * t), 20.0 / t,
                                 0.25 * goal)
        # 1/W - arctan(g/W)/g = (u - arctan u)/g with u = g/W; series below u ~ 1e-2
        # avoids the cancellation of the two nearly equal terms
        u = g / omega_max
        if u < 1e-2:
            u_minus_atan = u ** 3 * (1.0 / 3.0 - u * u / 5.0 + u ** 4 / 7.0)
        else:
            u_minus_atan = u - math.atan(u)
        mean_tail = 0.5 * a / (math.pi * g) * (u_minus_atan / g)
        phase = omega_max * t
        tail_value = (mean_tail
                      + h_val(omega_max) * math.sin(phase) / t
                      + h_der(omega_max) * math.cos(phase) / (t * t))
        tail_err = 2.0 * abs(h_der(omega_max)) / (t * t)
        return _integrand(self, temp, t), omega_max, tail_value, tail_err

    def root_window(self, temp, m):
        # 2 m t gamma' grows without bound for g > 0; for g = 0 (gamma
        # quadratic) the root is the lower bound itself
        return _zeno_bound(self.c2(temp), m), math.inf

    def omega_fast(self):
        # None in the static-bath limit g = 0
        return self.g if self.g > 0.0 else None

    def time_scale(self):
        return 1.0 / math.sqrt(self.a) if self.g == 0.0 else 1.0 / self.g


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
        t = np.asarray(t)  # numpy's power, as in gamma
        if self.nu < 1.0 and (t <= 0.0).any():
            raise DomainError("derivative is singular at t = 0 for nu < 1")
        return self.alpha * self.nu * t ** (self.nu - 1.0)

    def c2(self, temp):
        if self.nu != 2.0:
            raise NoQuadraticRegime(
                f"gamma = alpha*t^nu with nu={self.nu} has no quadratic regime")
        return self.alpha

    def quad_problem(self, temp, t: float, tail_goal: float, derivative=False):
        raise NoSpectralDensity("no bath integral for generic power-law dephasing")

    def omega_fast(self):
        return None

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

    def weight(self, w):
        return 1.0


@dataclass(frozen=True)
class FiniteBeta:
    """Finite inverse temperature: quadrature weight coth(beta*w/2)."""

    beta: float

    def __post_init__(self):
        _check_fields(self)

    def weight(self, w):
        return 1.0 / np.tanh(0.5 * self.beta * w)


@dataclass(frozen=True)
class HighTemperatureOhmic:
    """Leading high-temperature expansion, weight 2/(beta*w); Ohmic baths only."""

    beta: float

    def __post_init__(self):
        _check_fields(self)

    def weight(self, w):
        return 2.0 / (self.beta * w)


Temperature = Union[ZeroTemperature, FiniteBeta, HighTemperatureOhmic]


@dataclass(frozen=True)
class BathSpec:
    """A spectral model together with its temperature mode."""

    spectral: SpectralModel
    temperature: Temperature = field(default_factory=ZeroTemperature)

    def __post_init__(self):
        self.spectral.check_temperature(self.temperature)


# --- evaluation routes -------------------------------------------------------

@dataclass(frozen=True)
class ClosedForm:
    """Evaluate gamma(t) from the model's closed-form expression."""

    def gamma(self, bath: BathSpec, t):
        return bath.spectral.gamma(bath.temperature, t)

    def dgamma(self, bath: BathSpec, t):
        return bath.spectral.dgamma(bath.temperature, t)


@dataclass(frozen=True)
class Quadrature:
    """Evaluate gamma(t) and dgamma/dt by adaptive quadrature of their bath
    integrals at the default tolerances, one time at a time
    (:func:`gamma_quadrature` and :func:`dgamma_quadrature`)."""

    def gamma(self, bath: BathSpec, t):
        return _each(lambda ti: gamma_quadrature(bath, ti)[0], t)

    def dgamma(self, bath: BathSpec, t):
        return _each(lambda ti: dgamma_quadrature(bath, ti)[0], t)


Route = Union[ClosedForm, Quadrature]


@dataclass(frozen=True)
class DephasingModel:
    """An evaluable decoherence function: bath plus evaluation route.

    All methods accept scalars or numpy arrays of times and are pure, so
    instances are safe to share across threads.
    """

    bath: BathSpec
    route: Route = field(default_factory=ClosedForm)

    def gamma(self, t):
        """gamma(t) via the declared route."""
        out = self.route.gamma(self.bath, _times(t))
        return out if out.ndim else float(out)

    def dgamma_dt(self, t):
        """dgamma/dt via the declared route."""
        return dgamma_dt(self, t)

    def short_time_coeff(self) -> float:
        """Quadratic coefficient c2 with gamma(t) -> c2 * t^2 as t -> 0."""
        return gamma_short_time_coeff(self)

    def omega_fast(self):
        """Fastest bath frequency scale; None when the model has none
        (generic power laws and the static-bath g = 0 Lorentzian limit)."""
        return self.bath.spectral.omega_fast()

    def time_scale(self) -> float:
        """Characteristic time that seeds the oracle's grid
        (:func:`~ramsey_bounds.oracle.brute_force_optimum`)."""
        return float(self.bath.spectral.time_scale())


# --- operations --------------------------------------------------------------

def _times(t):
    """t as a float array, rejecting NaN, inf and negative times."""
    t_arr = np.asarray(t, dtype=float)
    if not ((0.0 <= t_arr) & (t_arr < math.inf)).all():
        raise DomainError("t must be finite and >= 0")
    return t_arr


def _each(f, t):
    """f(ti) for every time ti of t (a float or an array), keeping its shape."""
    t = np.asarray(t, dtype=float)
    return np.array([f(ti) for ti in t.ravel().tolist()]).reshape(t.shape)


def spectral_density(model: SpectralModel, omega):
    """Evaluate J(omega) for a model that has a spectral density.

    Parameters
    ----------
    model:
        A :class:`PowerLawExpCutoff` or :class:`Lorentzian`.
    omega:
        Frequency (scalar or array), finite and >= 0.
    """
    w = np.asarray(omega, dtype=float)
    if not ((0.0 <= w) & (w < math.inf)).all():
        raise DomainError("omega must be finite and >= 0")
    out = model.density(w)
    return out if out.ndim else float(out)


def gamma_closed(deph: DephasingModel, t):
    """Closed-form gamma(t).

    Every supported pair has one: the power-law cutoff bath at T = 0
    (general s and the Ohmic logarithmic limit) and at finite beta,
    Lorentzian at T = 0, Ohmic bath in the high-temperature expansion, and
    the generic power law at any temperature tag.

    Parameters
    ----------
    deph:
        Dephasing model (the route tag is ignored here).
    t:
        Time, scalar or array, finite and >= 0.
    """
    bath = deph.bath
    out = bath.spectral.gamma(bath.temperature, _times(t))
    return out if out.ndim else float(out)


def dgamma_dt(deph: DephasingModel, t):
    """Time derivative of gamma via the model's route, for a time t (scalar
    or array, finite and >= 0).

    Analytic for every closed form; on the quadrature route the integral
    (1/2) Int J(w) W(w) sin(w t) / w dw (:func:`dgamma_quadrature`).
    """
    out = deph.route.dgamma(deph.bath, _times(t))
    return out if out.ndim else float(out)


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
    or with ``derivative`` its t-derivative (1/2) J(w) W(w) sin(w t) / w."""
    if derivative:
        def f(w):
            kern = np.sin(w * t) / w
            return 0.5 * spectral_density(spec, w) * temp.weight(w) * kern
        return f

    def f(w):
        # 2 sin^2(wt/2) / w^2, stable for all w > 0 (no cancellation)
        kern = 2.0 * (np.sin(0.5 * w * t) / w) ** 2
        return 0.5 * spectral_density(spec, w) * temp.weight(w) * kern
    return f


def _tail_cutoff(bound, omega_max, goal):
    """The cutoff ``omega_max`` doubled until ``bound`` (the tail error at a
    cutoff, or any increasing function of it) is within ``goal``, or at most
    200 times."""
    for _ in range(200):
        if bound(omega_max) <= goal:
            break
        omega_max *= 2.0
    return omega_max


def gamma_quadrature(bath: BathSpec, t: float, settings=QuadratureSettings()):
    """gamma(t) by adaptive quadrature of the bath integral.

    Parameters
    ----------
    bath:
        Bath with a spectral density (not the generic power-law model).
    t:
        Time, finite and >= 0.
    settings:
        Tolerances.

    Returns
    -------
    (value, error_estimate):
        The integral and its error estimate, with
        error_estimate <= max(abs_tol, rel_tol*|value|);
        :class:`ToleranceNotMet` (with both) is raised where that fails. The
        estimate is the sum over panels of |G16 - K33| (the Gauss-Kronrod
        16/33 pair) and of ``numerics.ROUNDING_FACTOR`` eps Int |integrand|
        (the rounding of the value itself), plus the bound on the truncated
        tail.
    """
    return _bath_quadrature(bath, t, settings, derivative=False)


def dgamma_quadrature(bath: BathSpec, t: float, settings=QuadratureSettings()):
    """dgamma/dt by adaptive quadrature of its own bath integral,
    (1/2) Int_0^inf J(w) W(w) sin(w t) / w dw.

    Same arguments, cutoffs and error contract as :func:`gamma_quadrature`;
    returns ``(value, error_estimate)``.
    """
    return _bath_quadrature(bath, t, settings, derivative=True)


def _bath_quadrature(bath, t, settings, derivative):
    """Both quadratures: the bath's problem for gamma or for its derivative,
    integrated against half the tolerance, with the tail cut again once the
    magnitude of the result is known."""
    # a NaN time would make every panel's error NaN, which never refines
    if not 0.0 <= t < math.inf:
        raise DomainError("t must be finite and >= 0")
    if t == 0.0:
        return 0.0, 0.0
    spec, temp = bath.spectral, bath.temperature
    # panels run at half tolerance so the tail bound fits inside the contract
    inner = QuadratureSettings(rel_tol=0.5 * settings.rel_tol,
                               abs_tol=0.5 * settings.abs_tol)
    # seeded panels are at most one oscillation period of cos(w t) wide
    period = 2.0 * math.pi / t
    # first pass against a crude absolute goal; rebuild the cutoff once the
    # magnitude of the result is known
    f, omega_max, tail_val, tail_err = spec.quad_problem(
        temp, t, max(settings.abs_tol, 1e-9), derivative)
    value, err = integrate_semi_infinite(f, omega_max, inner, max_panel_width=period)
    value += tail_val
    goal = max(settings.abs_tol, settings.rel_tol * abs(value))
    if tail_err > 0.5 * goal:
        f, omega_max, tail_val, tail_err = spec.quad_problem(
            temp, t, 0.25 * goal, derivative)
        value, err = integrate_semi_infinite(f, omega_max, inner, max_panel_width=period)
        value += tail_val
    err += tail_err
    tol = max(settings.abs_tol, settings.rel_tol * abs(value))
    if err > tol:
        raise ToleranceNotMet(
            f"tolerance {tol:g} not met: panel and tail error {err:g}",
            value=value, error=err)
    return value, err
