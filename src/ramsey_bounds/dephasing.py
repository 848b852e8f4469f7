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
  or on an array of times, raising :class:`NoClosedForm` where none exists;
* ``c2(temp)``: the coefficient of the short-time law gamma(t) ~ c2 t^2;
* ``quad_problem(temp, t, tail_goal, derivative)``: the bath integral at
  time t set up for quadrature, or with ``derivative`` the integral of its
  t-derivative, (1/2) Int J(w) W(w) sin(w t) / w dw, on the same cutoff,
  substitution and panel cap with a tail bound of its own (see
  :meth:`PowerLawExpCutoff.quad_problem`);
* ``omega_fast()``: the fastest bath frequency, or None;
* ``time_scale(m)``: the characteristic time (m = 1), and the scale of the
  root of 2 m t gamma'(t) = 1 that seeds the optimizer's scan; ``m`` may be
  an array of multipliers.

Temperature tags supply the thermal weight W(w) through ``weight(w)``. An
evaluation route (closed form or quadrature) supplies ``gamma(bath, t)`` and
``dgamma(bath, t)`` on a time or an array of times, checked by the caller.

Convention note: the Ohmic (s = 1) closed form used throughout,
gamma(t) = (alpha/2) ln(1 + wc^2 t^2), is exactly twice the integral above,
so the quadrature route reproduces it up to the constant factor 1/2. For
every other family the two routes agree identically. Metrological ratios
computed from a single route are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    DomainError,
    NoClosedForm,
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

_NO_FINITE_BETA_FORM = "finite-beta power-law baths have no closed form; use quadrature"
_HIGH_T_OHMIC_ONLY = ("the high-temperature expansion is only valid for an Ohmic "
                      "power-law bath (s = 1)")


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
        if isinstance(temp, ZeroTemperature):
            if self.is_ohmic:
                return 0.5 * self.alpha * np.log1p(x * x)
            s1 = self.s - 1.0
            return (0.5 * self.alpha * math.gamma(s1)
                    * (1.0 - np.cos(s1 * np.arctan(x)) / (1.0 + x * x) ** (0.5 * s1)))
        if isinstance(temp, HighTemperatureOhmic):
            return (self.alpha / temp.beta
                    * (t * np.arctan(x) - 0.5 * np.log1p(x * x) / self.omega_c))
        raise NoClosedForm(_NO_FINITE_BETA_FORM)

    def dgamma(self, temp, t):
        x = self.omega_c * t
        if isinstance(temp, ZeroTemperature):
            if self.is_ohmic:
                return self.alpha * self.omega_c ** 2 * t / (1.0 + x * x)
            s = self.s
            return (0.5 * self.alpha * self.omega_c * math.gamma(s)
                    * np.sin(s * np.arctan(x)) / (1.0 + x * x) ** (0.5 * s))
        if isinstance(temp, HighTemperatureOhmic):
            return self.alpha / temp.beta * np.arctan(x)
        raise NoClosedForm(_NO_FINITE_BETA_FORM)

    def c2(self, temp):
        wc = self.omega_c
        if isinstance(temp, ZeroTemperature):
            if self.is_ohmic:
                return 0.5 * self.alpha * wc ** 2
            return 0.25 * self.alpha * wc ** 2 * math.gamma(self.s + 1.0)
        if isinstance(temp, HighTemperatureOhmic):
            return 0.5 * self.alpha * wc / temp.beta

        # finite beta: c2 = (1/4) Int J(w) coth(beta w / 2) dw
        def f(w):
            return 0.25 * spectral_density(self, w) * temp.weight(w)

        # Past a cutoff W = x wc with x > s, the envelope
        # w^s e^(-w/wc) <= W^s e^(-x) e^((s/x - 1)(w/wc - x)) bounds the tail
        # by (1/4) alpha wc^2 x^s e^(-x) coth(beta W / 2) x / (x - s). W doubles
        # until that is within half the relative goal of a lower bound on c2,
        # (1/4) alpha wc^2 max(Gamma(s+1), 2 Gamma(s) / (beta wc)) from
        # coth(u) >= max(1, 1/u); compared in logs, as x^s may overflow.
        s, rel_tol = self.s, 1e-11
        log_goal = math.log(0.5 * rel_tol) + max(
            math.lgamma(s + 1.0), math.log(2.0 / (temp.beta * wc)) + math.lgamma(s))

        def log_tail(om):
            x = om / wc
            if x <= s:
                return math.inf
            return (s * math.log(x) - x + math.log(x / (x - s))
                    + math.log(temp.weight(om)))

        sub_ohmic = s < 1.0 - OHMIC_S_TOL
        omega_max = _tail_cutoff(log_tail, 40.0 * wc / s if sub_ohmic else 40.0 * wc,
                                 log_goal)
        settings = QuadratureSettings(rel_tol=rel_tol)
        if sub_ohmic:
            return integrate_semi_infinite(
                _in_sqrt(f), math.sqrt(omega_max), settings)[0]
        return integrate_semi_infinite(f, omega_max, settings)[0]

    def quad_problem(self, temp, t: float, tail_goal: float, derivative=False):
        """Build the 1-D integration problem for the bath integral at time t > 0,
        or with ``derivative`` for its t-derivative (see :func:`_integrand`).

        Returns ``(integrand, x_max, panel_cap, tail_value, tail_err, endpoint)``
        in the integration variable x. ``tail_value`` is the analytically known
        part of the neglected tail (added to the quadrature result) and
        ``tail_err`` bounds the remainder. For sub-Ohmic finite-beta baths
        x = sqrt(omega) removes the integrable endpoint singularity; otherwise
        x = omega. ``endpoint`` is the x -> 0 limit of the integrand (used by
        trapezoid-based references).
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
        tail_err = tail_bound(omega_max)
        f = _integrand(self, temp, t, derivative)

        # Fractional powers of w at the origin defeat extrapolation-based
        # integrators, so substitute w = x^2 (integrand_x = f(x^2) 2x)
        # whenever the endpoint behaviour w^s (T = 0, s < 2) or w^(s-1)
        # (finite beta) is not already smooth.
        if (isinstance(temp, FiniteBeta)
                or (isinstance(temp, ZeroTemperature) and s < 2.0)):
            x_max = math.sqrt(omega_max)
            # endpoint ~ x^(2s+1) at T = 0 and ~ x^(2s-1) at finite beta
            end0 = 0.0
            if isinstance(temp, FiniteBeta):
                if abs(s - 0.5) < 1e-12:
                    end0 = self.alpha * wc ** 0.5 * t * t / temp.beta
                elif s < 0.5:
                    end0 = math.inf
            return (_in_sqrt(f), x_max, math.pi / (x_max * t), 0.0, tail_err,
                    _endpoint(end0, t, derivative))

        # T = 0 with s >= 2, or the Ohmic high-temperature weight, where
        # J*W -> 2 alpha / beta at the origin
        if isinstance(temp, ZeroTemperature):
            limit0 = 0.0
        else:
            limit0 = 0.5 * self.alpha * (2.0 / temp.beta) * (t * t / 2.0)
        return (f, omega_max, 2.0 * math.pi / t, 0.0, tail_err,
                _endpoint(limit0, t, derivative))

    def omega_fast(self):
        return self.omega_c

    def time_scale(self, m=1):
        return 1.0 / self.omega_c / np.sqrt(m)


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
        # until that bound meets the goal, so the panel count stays bounded
        # in gt.
        goal = max(tail_goal, 1e-300)
        limit0 = 0.25 * a * t * t / (math.pi * g)
        if derivative:
            # Int_W^inf H1 sin(wt) dw,  H1(w) = (a g / 2 pi) / ((g^2 + w^2) w)
            def h1_val(om):
                return 0.5 * (a * g / math.pi) / ((g * g + om * om) * om)

            def h1_der(om):
                return -0.5 * (a * g / math.pi) * (g * g + 3.0 * om * om) \
                    / ((g * g + om * om) ** 2 * om * om)

            omega_max = _tail_cutoff(lambda om: abs(h1_der(om)) / (t * t), 20.0 / t,
                                     0.25 * goal)
            x = omega_max * t
            tail_value = (h1_val(omega_max) * math.cos(x) / t
                          - h1_der(omega_max) * math.sin(x) / (t * t))
            tail_err = abs(h1_der(omega_max)) / (t * t)
            return (_integrand(self, temp, t, derivative), omega_max, 2.0 * math.pi / t,
                    tail_value, tail_err, _endpoint(limit0, t, derivative))

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
        x = omega_max * t
        tail_value = (mean_tail
                      + h_val(omega_max) * math.sin(x) / t
                      + h_der(omega_max) * math.cos(x) / (t * t))
        tail_err = 2.0 * abs(h_der(omega_max)) / (t * t)
        return (_integrand(self, temp, t), omega_max, 2.0 * math.pi / t,
                tail_value, tail_err, limit0)

    def omega_fast(self):
        # None in the static-bath limit g = 0
        return self.g if self.g > 0.0 else None

    def time_scale(self, m=1):
        base = 1.0 / math.sqrt(self.a) if self.g == 0.0 else 1.0 / self.g
        return base / np.sqrt(m)


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

    def time_scale(self, m=1):
        # The exact root of 2 m t gamma'(t) = 1, and the centre of the
        # optimizer's scan grid, so its last bit picks the bracket. Python's
        # scalar pow on each element gives that bit for an array of m as for
        # a single m; numpy's vector pow may not.
        p = -1.0 / self.nu
        roots = [(2.0 * mi * self.alpha * self.nu) ** p for mi in np.ravel(m).tolist()]
        return np.reshape(roots, np.shape(m))


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
        """Characteristic time used to seed searches and sweep grids."""
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

    Supported pairs: power-law cutoff bath at T = 0 (general s and the
    Ohmic logarithmic limit), Lorentzian at T = 0, Ohmic bath in the
    high-temperature expansion, and the generic power law at any
    temperature tag. Finite-beta power-law baths raise :class:`NoClosedForm`.

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
    model's own convention (the Ohmic closed form carries its factor 2);
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


def _endpoint(limit0, t, derivative):
    """The x -> 0 limit of the integrand from ``limit0``, that of the gamma
    integrand: the kernels tend to t^2/2 (gamma) and to t (its derivative)."""
    return limit0 * 2.0 / t if derivative else limit0


def _tail_cutoff(bound, omega_max, goal):
    """The cutoff ``omega_max`` doubled until ``bound`` (the tail error at a
    cutoff, or any increasing function of it) is within ``goal``, or at most
    200 times."""
    for _ in range(200):
        if bound(omega_max) <= goal:
            break
        omega_max *= 2.0
    return omega_max


def _in_sqrt(f):
    """The integrand f(w) dw in the variable x = sqrt(w): f(x^2) 2x dx."""
    def fx(x):
        x = np.asarray(x, dtype=float)
        return f(x * x) * 2.0 * x
    return fx


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
        The integral and a conservative error estimate including the
        truncated tail, with error_estimate <= max(abs_tol, rel_tol*|value|);
        :class:`ToleranceNotMet` (with both) is raised where that fails.
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
    # first pass against a crude absolute goal; rebuild the cutoff once the
    # magnitude of the result is known
    f, x_max, cap, tail_val, tail_err, _ = spec.quad_problem(
        temp, t, max(settings.abs_tol, 1e-9), derivative)
    value, err = integrate_semi_infinite(f, x_max, inner, max_panel_width=cap)
    value += tail_val
    goal = max(settings.abs_tol, settings.rel_tol * abs(value))
    if tail_err > 0.5 * goal:
        f, x_max, cap, tail_val, tail_err, _ = spec.quad_problem(
            temp, t, 0.25 * goal, derivative)
        value, err = integrate_semi_infinite(f, x_max, inner, max_panel_width=cap)
        value += tail_val
    err += tail_err
    tol = max(settings.abs_tol, settings.rel_tol * abs(value))
    if err > tol:
        raise ToleranceNotMet(
            f"tolerance {tol:g} not met: panel and tail error {err:g}",
            value=value, error=err)
    return value, err
