"""Generic numerical machinery: adaptive panel quadrature on a semi-infinite
range, safeguarded bracketed root finding, and log-log power-law fitting.

The quadrature takes an integral f(omega) d omega and integrates it in
x = sqrt(omega), as f(x^2) 2x dx. Bath integrands go as omega^(s-1) (finite
temperature) or omega^s (zero temperature) at the origin; in x these powers
become x^(2s-1) and x^(2s+1), which are bounded for s >= 1/2 and smoother
for every s, so callers never change variables themselves. The seeded
panels are one panel [0, sqrt(lower cutoff)], a geometric ladder in x that
starts at the caller's lower cutoff, its rungs 4 times apart, and pieces of
equal omega width above the ladder. The caller picks both cutoffs, so that
the part below the lower one and the tail above the upper one are within its
goal, and bounds both.

Each panel is integrated by the Gauss-Kronrod 16/33 rule: one integrand call
per pass gives the 33-point Kronrod value and, from the same values, the
16-point Gauss value. A panel's error estimate is |G16 - K33| plus a rounding
term ROUNDING_FACTOR * eps * Int |f| over the panel.

An oscillating integrand caps the seeded width: the bath integrals pass two
periods of cos(omega t), 4 pi / t. Over two periods of a cosine, G16 errs by
at most 3.8e-16 of the panel's width (the worst over its phase), against
1.1e-14 over three periods and 6.3e-11 over four. The worst seeded piece is
the first one above x = 0, where cos(x^2 t) is a chirp in x: there
|G16 - K33| is about 2.4e-11 of the piece's omega width, and the estimate
reports it."""

from __future__ import annotations

import math
import numbers
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


def _is_real(x):
    """x is a real number other than a bool: an int, a float, a numpy integer
    or floating scalar, a Fraction."""
    return type(x) in (int, float) or (isinstance(x, numbers.Real)
                                       and not isinstance(x, bool))


def _real(name, x, lower=None, strict=False):
    """``x`` as a float, the one scalar check: a real number other than a
    bool (:func:`_is_real`) or a 0-d array of an integer or floating dtype,
    finite and >= ``lower`` (> ``lower`` where ``strict``; no bound where
    ``lower`` is None). Anything else raises DomainError naming ``name``."""
    if not (_is_real(x) or isinstance(x, np.ndarray) and x.ndim == 0
            and x.dtype.kind in "iuf"):
        raise DomainError(f"{name} must be a real number (not bool), not {type(x).__name__}")
    try:
        v = float(x)
    except OverflowError:  # an int or a Fraction past the floats
        v = math.inf
    if not (-math.inf < v < math.inf if lower is None
            else lower < v < math.inf if strict else lower <= v < math.inf):
        bound = "" if lower is None else f" and {'>' if strict else '>='} {lower:g}"
        raise DomainError(f"{name} must be finite{bound}")
    return v


def _real_array(name, x, lower=None, strict=False):
    """``x`` as a float array, the one array check: what ``np.asarray`` reads
    with an integer or floating dtype, every entry checked as by
    :func:`_real`."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting of sequences
        raise DomainError(f"{name} must be an array of real numbers") from None
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{name} must have an integer or floating dtype, not {a.dtype}")
    a = a.astype(float, copy=False)
    if lower is None:
        ok = np.isfinite(a)
    else:
        ok = lower < a if strict else lower <= a
        ok &= a < math.inf
    if not ok.all():
        _real(name, a[~ok].flat[0], lower, strict)  # raises, for the first bad entry
    return a


def _count(name, x, lower=1):
    """``x`` as a Python int, the one count check: an int or a numpy integer
    other than a bool, >= ``lower``. Anything else raises DomainError naming
    ``name``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise DomainError(f"{name} must be an int (not bool), not {type(x).__name__}")
    if not x >= lower:
        raise DomainError(f"{name} must be an int >= {lower}")
    return int(x)


def _check_fields(params, zero_ok=()):
    """Every field of a parameter class must be a real number (not a bool),
    finite and > 0 (>= 0 for the names in ``zero_ok``); each is stored as
    its float (:func:`_real`)."""
    for f in fields(params):
        object.__setattr__(params, f.name, _real(f.name, getattr(params, f.name), 0.0,
                                                 strict=f.name not in zero_ok))


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
# The lower cutoff in omega, as a fraction of the upper one, of a caller that
# names none: the first rung of the panel ladder then sits at 1e-18 of
# sqrt(upper cutoff) in x.
LOWER_CUTOFF_FRACTION = 1e-36

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
# The innermost node of the panel [0, sqrt(lower cutoff)] lies at this
# fraction of the lower cutoff in omega: where that is below the smallest
# normal float, the integrand is evaluated on subnormal frequencies.
INNER_NODE_FRACTION = (0.5 * (1.0 - _GK_X[-1])) ** 2


def _refined_panels(f, lo, hi):
    """Per-panel value (K33) and error estimate (|G16 - K33| plus the
    rounding term), from one call of ``f`` on every node of every panel."""
    half = hi - lo
    half *= 0.5
    mid = hi + lo
    mid *= 0.5
    x = np.multiply.outer(half, _GK_NODES)
    x += mid[:, None]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    sums = y @ _GK_WEIGHTS
    kronrod, diff = sums[:, 0], sums[:, 1]  # columns: unpacking .T iterates in Python
    err = np.abs(y) @ _KRONROD
    err *= _ROUNDING
    err += np.abs(diff)
    err *= half
    half *= kronrod
    return half, err


def _seed_panels(upper_cutoff, lower_edge, max_panel_width, max_panels):
    """Panel edges in x = sqrt(omega) on (0, upper_cutoff], both bounds in x:
    the panel [0, lower_edge], a geometric ladder whose rungs stand 4 times
    apart from ``lower_edge`` while each spans at most ``max_panel_width`` of
    omega, and above it pieces equal in omega, as few as keep each within
    ``max_panel_width`` (up to the rounding of the square root). Returns
    ``(lo, hi)``, two views of one array of edges.

    The ladder is built in Python floats, where each quadrupling is exact;
    the pieces take one square root over the edge array.

    On a rung [r, 4 r] a power of x singular at the origin stays analytic
    inside the Bernstein ellipse of radius 3, so |G16 - K33| is about
    3^-32 ~ 5e-16 of its value there, below the rounding term."""
    if not upper_cutoff * upper_cutoff / max_panel_width < math.inf:
        # more pieces than a float counts, or omega past the largest float:
        # count them in logarithms
        digits = max(2.0 * math.log10(upper_cutoff) - math.log10(max_panel_width), 0.0)
        raise ToleranceNotMet(f"seeding would need about 1e{digits:.0f} panels up to "
                              f"omega = {upper_cutoff:.3g}^2 (max_panels={max_panels})")
    # the omega spans of [0, r_0], [r_0, r_1], ... grow, so the rungs within
    # the width are a prefix
    edges = [0.0]
    rung, below = lower_edge, 0.0
    while rung < upper_cutoff and rung * rung - below <= max_panel_width:
        edges.append(rung)
        below = rung * rung
        rung *= 4.0
    ladder = len(edges) - 1
    span = upper_cutoff * upper_cutoff - below
    # a Python int, as the count of pieces may pass a C long
    pieces = max(math.ceil(span / max_panel_width), 1)
    total = ladder + pieces
    if total > max_panels:
        count = total if total < 2 ** 53 else f"{total:.3g}"
        raise ToleranceNotMet(
            f"seeding would need {count} panels (max_panels={max_panels})")
    if pieces == 1:  # the edges are 0, the rungs and the cutoff: no square roots
        edges.append(upper_cutoff)
        edges = np.array(edges)
        return edges[:-1], edges[1:]
    # one array of edges: 0, the rungs, then piece i above the ladder's top r
    # starting at sqrt(r^2 + i * span / pieces), then the cutoff
    edges, rungs = np.empty(total + 1), edges
    edges[:ladder + 1] = rungs
    inner = edges[ladder + 1:total]
    np.multiply(np.arange(1.0, pieces), span / pieces, out=inner)
    inner += below
    np.sqrt(inner, out=inner)
    edges[total] = upper_cutoff
    return edges[:-1], edges[1:]


# ndarray.sum's own reduction, without its Python wrapper
_sum = np.add.reduce


def integrate_semi_infinite(integrand, upper_cutoff, settings=QuadratureSettings(),
                            max_panel_width=math.inf, lower_cutoff=None):
    """Integrate ``integrand(omega)`` over (0, upper_cutoff] adaptively.

    The integral is taken in x = sqrt(omega) (see the module docstring): one
    panel on [0, sqrt(lower_cutoff)], then a geometric ladder of panels in x
    up from there, each 4 times as wide as the last, then pieces equal in
    omega up to the cutoff.
    ``max_panel_width`` caps the omega-width of the seeded panels (two
    oscillation periods, 4*pi/t, for integrands containing cos(omega*t); see
    the module docstring); it must be > 0, and inf, the default, sets no
    cap. The caller chooses ``upper_cutoff`` so that the neglected tail is
    below tolerance, and ``lower_cutoff`` (by default
    ``LOWER_CUTOFF_FRACTION`` times ``upper_cutoff``) so that the first
    panel's share is; an integrand singular at the origin is only as good
    there as that choice.

    Returns ``(value, error_estimate)``: the sum of the panels' K33 values and
    of their estimates (see the module docstring), with
    ``error_estimate <= max(abs_tol, rel_tol*|value|)``; raises
    :class:`ToleranceNotMet` once ``MAX_PANELS`` panels are in play, or at
    once when the error estimate is not finite (a NaN or infinite integrand),
    which no refinement can mend.
    """
    # valid floats, as a caller's quadrature passes them, skip the checks
    if not (type(upper_cutoff) is float and 0.0 < upper_cutoff < math.inf
            and type(lower_cutoff) is float and 0.0 < lower_cutoff < math.inf
            and type(max_panel_width) is float and 0.0 < max_panel_width):
        upper_cutoff = _real("upper_cutoff", upper_cutoff, 0.0, strict=True)
        if lower_cutoff is None:
            lower_cutoff = LOWER_CUTOFF_FRACTION * upper_cutoff
        lower_cutoff = _real("lower_cutoff", lower_cutoff, 0.0, strict=True)
        if not (_is_real(max_panel_width) and max_panel_width == math.inf):  # inf: no cap
            max_panel_width = _real("max_panel_width", max_panel_width, 0.0, strict=True)
    lo, hi = _seed_panels(math.sqrt(upper_cutoff), math.sqrt(lower_cutoff),
                          max_panel_width, MAX_PANELS)

    def f(x):
        # the factor 2 x in place, on the fresh array the first product makes
        y = np.multiply(integrand(x * x), 2.0, dtype=float)
        y *= x
        return y

    val, err = _refined_panels(f, lo, hi)

    while True:
        total = float(_sum(val))
        total_err = float(_sum(err))
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


def solve_bracketed_root(g, bracket, *, values=None):
    """Find a root of ``g`` inside ``bracket = (lo, hi)``, both ends finite.

    Secant steps are accepted only when they stay inside the current bracket
    and shrink the residual; otherwise the step falls back to bisection, so
    the iterate never leaves the bracket. Stops when |g| <= ROOT_F_TOL or the
    bracket width falls below ROOT_X_TOL relative to the root location.

    ``values = (g(lo), g(hi))``, when the caller has them, saves the two
    evaluations at the ends; they must be the values ``g`` returns there,
    or the result is not the root of ``g``. The sign checks are the same.
    """
    lo, hi = _real("bracket[0]", bracket[0]), _real("bracket[1]", bracket[1])
    if not lo < hi:
        raise DomainError("bracket must satisfy lo < hi")
    if values is None:
        values = g(lo), g(hi)
    flo, fhi = float(values[0]), float(values[1])
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
            # a bracket an ulp or two wide can round its midpoint onto an end
            f_new = flo if x_new == lo else fhi if x_new == hi else float(g(x_new))
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
    """Least-squares fit of ln(y) = p*ln(x) + c; returns a :class:`PowerLawFit`
    with the exponent p, the log-prefactor c and the rms residual in ln(y)."""
    xs = _real_array("xs", xs, 0.0, strict=True)
    ys = _real_array("ys", ys, 0.0, strict=True)
    if xs.ndim != 1 or xs.size < 3:
        raise DomainError("need at least 3 samples")
    if ys.shape != xs.shape:
        raise DomainError("ys must have the shape of xs")
    if not np.all(np.diff(xs) > 0.0):
        raise DomainError("xs must be strictly increasing")
    lx, ly = np.log(xs), np.log(ys)
    lxm, lym = lx.mean(), ly.mean()
    slope = float(np.sum((lx - lxm) * (ly - lym)) / np.sum((lx - lxm) ** 2))
    intercept = float(lym - slope * lxm)
    resid = ly - (slope * lx + intercept)
    return PowerLawFit(exponent=slope, log_prefactor=intercept,
                       residual_rms=float(np.sqrt(np.mean(resid ** 2))))

