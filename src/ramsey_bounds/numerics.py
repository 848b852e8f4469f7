"""Generic numerical machinery: adaptive panel quadrature on a semi-infinite
range, safeguarded bracketed root finding, and log-log power-law fitting.

The quadrature takes an integral f(omega) d omega and integrates it in
x = sqrt(omega), as f(x^2) 2x dx. Bath integrands go as omega^(s-1) (finite
temperature) or omega^s (zero temperature) at the origin; in x these powers
become x^(2s-1) and x^(2s+1), which are bounded for s >= 1/2 and smoother
for every s, so callers never change variables themselves.

Each panel is integrated by the Gauss-Kronrod 16/33 rule: one integrand call
per pass gives the 33-point Kronrod value and, from the same values, the
16-point Gauss value. A panel's error estimate is |G16 - K33| plus a rounding
term ROUNDING_FACTOR * eps * Int |f| over the panel."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DomainError,
    MaxIterations,
    NoSignChange,
    ToleranceNotMet,
)

__all__ = [
    "QuadratureSettings",
    "PowerLawFit",
    "integrate_semi_infinite",
    "solve_bracketed_root",
    "fit_power_law",
]


def _check_fields(params, zero_ok=()):
    """Every field of a parameter class must be finite and > 0 (>= 0 for the
    names in ``zero_ok``)."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite")
        if f.name in zero_ok and value < 0.0:
            raise DomainError(f"{f.name} must be >= 0")
        if f.name not in zero_ok and value <= 0.0:
            raise DomainError(f"{f.name} must be > 0")


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for the adaptive panel quadrature: the result meets
    ``error_estimate <= max(abs_tol, rel_tol*|value|)``."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14

    def __post_init__(self):
        _check_fields(self, zero_ok=("abs_tol",))


# Panel budget of one quadrature, seeding and refinement together.
MAX_PANELS = 4096
# Innermost seeded panel boundary as a fraction of sqrt(upper cutoff), in the
# integration variable x = sqrt(omega); below it the geometric ladder covers
# the origin region.
SMALL_OMEGA_CUTOFF = 1e-4

# Stopping criteria of the safeguarded root solver (see solve_bracketed_root).
ROOT_X_TOL = 1e-12
ROOT_F_TOL = 1e-12
ROOT_MAX_ITER = 200


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a least-squares line fit in log-log space: y ~ e^c * x^p."""

    exponent: float
    log_prefactor: float
    residual_rms: float


# Gauss-Kronrod 16/33 rule on [-1, 1] (Piessens et al., QUADPACK, 1983):
# the 16 Gauss-Legendre nodes and the 17 Kronrod nodes that extend them, the
# roots of the Stieltjes polynomial E_17. Both rules share every integrand
# value; K33 is exact to degree 49 and G16 to degree 31, and every weight is
# positive. Listed for x >= 0 from 0 up; the Gauss nodes are the odd places.
# One panel per oscillation period is enough for this order, so callers pass
# 2*pi/t as the widest seeded panel.
_GK_X = (
    0.0, 0.09501250983763744018532, 0.1891685790180837263147,
    0.2816035507792589132305, 0.3714837808784162886840, 0.4580167776572273863424,
    0.5404076763521397436254, 0.6178762444026437484467, 0.6897411066817623038762,
    0.7554044083550030338951, 0.8142402870624444680946, 0.8656312023878317438805,
    0.9091576670123429486226, 0.9445750230732325760780, 0.9715059509693925943041,
    0.9894009349916499325962, 0.9982392741454445141833)
_GK_WK = (
    0.09515421608049830702042, 0.09472840124723004132673, 0.09343867406092123047815,
    0.09129203282819166227223, 0.08833750257911273141357, 0.08459580379259063758546,
    0.08005394126371928644598, 0.07476982388559955753387, 0.06886299519153124300131,
    0.06235880601183485547040, 0.05520563309542217230312, 0.04750621597640701723499,
    0.03951295120242196400308, 0.03126054364738052823966, 0.02249885944004944402947,
    0.01325793068809115724543, 0.004742777049247317906344)
_GK_WG = (
    0.1894506104550684962854, 0.1826034150449235888668, 0.1691565193950025381893,
    0.1495959888165767320815, 0.1246289712555338720525, 0.09515851168249278480993,
    0.06225352393864789286284, 0.02715245941175409485178)


def _mirrored(half, sign=1.0):
    """The 33 values on [-1, 1] from the 17 listed for x >= 0."""
    half = np.asarray(half, dtype=float)
    return np.concatenate((sign * half[:0:-1], half))


_GK_NODES = _mirrored(_GK_X, -1.0)
_KRONROD = _mirrored(_GK_WK)
# G16's weights on the 33 nodes: 0 on every Kronrod node
_GAUSS = _mirrored(np.insert(_GK_WG, np.arange(9), 0.0))
# columns: K33, and K33 - G16 taken from the same values in one product
_GK_WEIGHTS = np.column_stack((_KRONROD, _KRONROD - _GAUSS))
# The estimate of a panel is |G16 - K33| plus ROUNDING_FACTOR * eps times the
# panel's integral of |f|; without the second term the estimate of a smooth
# panel falls below the rounding of its own value. Measured on the 30012
# integrations of the quad-gamma benchmark workload (seeds 0-40) against the
# same panel sums in long double, the rounding of a result reaches
# 5.4 eps Int |f|. A factor 2 is the least at which every estimate covers
# it; at 4 every estimate is at least 1.7 times it.
ROUNDING_FACTOR = 4.0
_ROUNDING = ROUNDING_FACTOR * np.finfo(float).eps

# Octaves the geometric panel ladder descends below the inner seeding
# boundary; the first panel then contributes negligibly for bounded kernels.
_LADDER_DEPTH = 48


def _refined_panels(f, lo, hi):
    """Per-panel value (K33) and error estimate (|G16 - K33| plus the
    rounding term), from one call of ``f`` on every node of every panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kronrod, diff = (y @ _GK_WEIGHTS).T
    return half * kronrod, half * (np.abs(diff) + _ROUNDING * (np.abs(y) @ _KRONROD))


def _seed_panels(upper_cutoff, inner_boundary, max_panel_width, max_panels):
    """Panel edges in x = sqrt(omega) on (0, upper_cutoff], both bounds in x:
    a geometric ladder from below ``inner_boundary`` up to the cutoff, with
    every rung [a, b] split into ceil((b^2 - a^2) / max_panel_width) pieces
    equal in omega, so that no panel spans more than ``max_panel_width`` of
    omega (up to the rounding of the square root)."""
    eps = min(inner_boundary, 0.25 * upper_cutoff) * 2.0 ** (-_LADDER_DEPTH)
    # eps * 2^j is exact, so these are the rungs that repeated doubling gives;
    # the frexp exponents bound the number of doublings below the cutoff
    doublings = math.frexp(upper_cutoff)[1] - math.frexp(eps)[1] + 2
    rungs = np.ldexp(eps, np.arange(doublings))
    rungs = np.concatenate(([0.0], rungs[rungs < upper_cutoff], [upper_cutoff]))
    squares = rungs * rungs
    spans = np.diff(squares)
    pieces = np.maximum(np.ceil(spans / max_panel_width), 1.0).astype(int)
    total = int(pieces.sum())
    if total > max_panels:
        raise ToleranceNotMet(
            f"seeding would need {total} panels (max_panels={max_panels})")
    # piece i of rung [a, b] cut into k starts at sqrt(a^2 + i * (b^2 - a^2) / k);
    # each rung starts exactly at its edge and each panel ends where the next
    # one starts
    rung = np.repeat(np.arange(pieces.size), pieces)
    starts = np.cumsum(pieces) - pieces
    i = np.arange(total) - starts[rung]
    step = spans / pieces
    los = np.sqrt(squares[rung] + i * step[rung])
    los[starts] = rungs[:-1]
    return los, np.append(los[1:], upper_cutoff)


def integrate_semi_infinite(integrand, upper_cutoff, settings=QuadratureSettings(),
                            max_panel_width=math.inf):
    """Integrate ``integrand(omega)`` over (0, upper_cutoff] adaptively.

    The integral is taken in x = sqrt(omega) (see the module docstring), on a
    geometric ladder of panels in x whose rungs are split into pieces equal in
    omega. The caller chooses ``upper_cutoff`` so that the neglected tail is
    below tolerance. ``max_panel_width`` caps the omega-width of the seeded
    panels (one oscillation period 2*pi/t for integrands containing
    cos(omega*t)).

    Returns ``(value, error_estimate)``: the sum of the panels' K33 values and
    of their estimates (see the module docstring), with
    ``error_estimate <= max(abs_tol, rel_tol*|value|)``; raises
    :class:`ToleranceNotMet` once ``MAX_PANELS`` panels are in play, or at
    once when the error estimate is not finite (a NaN or infinite integrand),
    which no refinement can mend.
    """
    if not 0.0 < upper_cutoff < math.inf:
        raise DomainError("upper_cutoff must be finite and > 0")
    x_max = math.sqrt(upper_cutoff)
    lo, hi = _seed_panels(x_max, SMALL_OMEGA_CUTOFF * x_max, max_panel_width,
                          MAX_PANELS)

    def f(x):
        return integrand(x * x) * 2.0 * x

    val, err = _refined_panels(f, lo, hi)

    while True:
        total = float(val.sum())
        total_err = float(err.sum())
        tol = max(settings.abs_tol, settings.rel_tol * abs(total))
        if not math.isfinite(total_err):
            raise ToleranceNotMet(
                f"error estimate is {total_err:g}: the integrand is not finite",
                value=total, error=total_err)
        if total_err <= tol:
            return total, total_err
        split = err > tol / (2.0 * lo.size)
        if not split.any():
            split = err == err.max()
        if lo.size + int(split.sum()) > MAX_PANELS:
            raise ToleranceNotMet(
                f"tolerance {tol:g} not met with {lo.size} panels "
                f"(error estimate {total_err:g})",
                value=total, error=total_err)
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        halves_lo = np.concatenate([lo[split], mid])
        halves_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _refined_panels(f, halves_lo, halves_hi)
        lo = np.concatenate([lo[keep], halves_lo])
        hi = np.concatenate([hi[keep], halves_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def solve_bracketed_root(g, bracket):
    """Find a root of ``g`` inside ``bracket = (lo, hi)``.

    Secant steps are accepted only when they stay inside the current bracket
    and shrink the residual; otherwise the step falls back to bisection, so
    the iterate never leaves the bracket. Stops when |g| <= ROOT_F_TOL or the
    bracket width falls below ROOT_X_TOL relative to the root location.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not hi > lo:
        raise DomainError("bracket must satisfy lo < hi")
    flo, fhi = float(g(lo)), float(g(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChange(f"g({lo:g})={flo:g} and g({hi:g})={fhi:g} have the same sign")

    def absorb(x, fx):
        nonlocal lo, hi, flo, fhi
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx

    x_prev, f_prev = lo, flo
    x_cur, f_cur = hi, fhi
    for _ in range(ROOT_MAX_ITER):
        secant_ok = False
        x_new = 0.5 * (lo + hi)
        if f_cur != f_prev:
            x_sec = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
            if lo < x_sec < hi:
                x_new, secant_ok = x_sec, True
        f_new = float(g(x_new))
        if secant_ok and abs(f_new) >= min(abs(f_cur), abs(f_prev)):
            # residual did not shrink: keep the point to narrow the bracket,
            # then take the safeguarding bisection step
            absorb(x_new, f_new)
            x_new = 0.5 * (lo + hi)
            f_new = float(g(x_new))
        if f_new == 0.0:
            return x_new
        absorb(x_new, f_new)
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        if abs(f_cur) <= ROOT_F_TOL:
            return x_cur
        if (hi - lo) <= ROOT_X_TOL * max(abs(lo), abs(hi)):
            return lo if abs(flo) <= abs(fhi) else hi
    raise MaxIterations(f"no convergence in {ROOT_MAX_ITER} iterations")


def fit_power_law(xs, ys):
    """Least-squares fit of ln(y) = p*ln(x) + c; returns the fitted exponent p."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 3:
        raise DomainError("need at least 3 samples")
    if not np.all(np.diff(xs) > 0.0):
        raise DomainError("xs must be strictly increasing")
    if not ((0.0 < xs) & (xs < math.inf) & (0.0 < ys) & (ys < math.inf)).all():
        raise DomainError("power-law fit needs finite, strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    lxm, lym = lx.mean(), ly.mean()
    slope = float(np.sum((lx - lxm) * (ly - lym)) / np.sum((lx - lxm) ** 2))
    intercept = float(lym - slope * lxm)
    resid = ly - (slope * lx + intercept)
    return PowerLawFit(exponent=slope, log_prefactor=intercept,
                       residual_rms=float(np.sqrt(np.mean(resid ** 2))))

