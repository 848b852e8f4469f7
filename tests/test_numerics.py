import math
import re
import warnings

import numpy as np
import pytest

from ramsey_bounds import numerics
from ramsey_bounds.dephasing import BathSpec, DephasingModel, PowerLawExpCutoff
from ramsey_bounds.metrology import ProbeSpec
from ramsey_bounds.errors import DomainError, NoSignChange, ToleranceNotMet
from ramsey_bounds.numerics import (
    QuadratureSettings,
    fit_power_law,
    integrate_semi_infinite,
    solve_bracketed_root,
)
from ramsey_bounds.oracle import brute_force_optimum, reference_gamma


def bisect(f, lo, hi, tol=1e-10):
    """Plain bisection, used as the independent root oracle."""
    flo = f(lo)
    assert flo * f(hi) <= 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# --- integrate_semi_infinite ---------------------------------------------------

def test_plain_exponential_integral():
    value, err = integrate_semi_infinite(lambda w: np.exp(-w), 40.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert err <= 1e-9


def test_oscillatory_log_kernel():
    # Int_0^inf e^(-w) (1 - cos w)/w dw = ln(2)/2 by elementary antiderivative
    def f(w):
        return np.exp(-w) * 2.0 * np.sin(0.5 * w) ** 2 / w

    value, _ = integrate_semi_infinite(f, 45.0)
    assert value == pytest.approx(0.5 * math.log(2.0), rel=1e-10)


def test_fast_oscillation_resolved():
    # Int_0^inf e^(-w) (1 - cos 50w) dw = 1 - 1/2501 = 2500/2501
    def f(w):
        return np.exp(-w) * (1.0 - np.cos(50.0 * w))

    value, _ = integrate_semi_infinite(f, 45.0, max_panel_width=2.0 * math.pi / 50.0)
    assert value == pytest.approx(2500.0 / 2501.0, rel=1e-10)


def test_fast_oscillation_two_periods_a_panel(monkeypatch):
    # the same integral seeded two periods of cos 50w a panel, as the bath
    # integrals are: met in the seeding pass, with no refinement round
    passes = []
    refined = numerics._refined_panels
    monkeypatch.setattr(numerics, "_refined_panels",
                        lambda f, lo, hi: passes.append(lo.size) or refined(f, lo, hi))

    def f(w):
        return np.exp(-w) * (1.0 - np.cos(50.0 * w))

    value, err = integrate_semi_infinite(f, 45.0, max_panel_width=4.0 * math.pi / 50.0)
    assert abs(value - 2500.0 / 2501.0) <= 1e-10
    assert err <= 1e-9 * value
    assert len(passes) == 1


def test_linearity_of_results():
    f = lambda w: np.exp(-w) * w
    g = lambda w: np.exp(-1.3 * w) * np.cos(w) ** 2
    both = lambda w: f(w) + g(w)
    vf, ef = integrate_semi_infinite(f, 60.0)
    vg, eg = integrate_semi_infinite(g, 60.0)
    vb, _ = integrate_semi_infinite(both, 60.0)
    assert vb == pytest.approx(vf + vg, abs=2.0 * max(ef + eg, 1e-12))


def test_nonfinite_error_estimate_raises():
    # a NaN error estimate selects no panel to split, so refinement would
    # never end; an infinite one would pass as converged against inf * rel_tol
    with pytest.raises(ToleranceNotMet) as info:
        integrate_semi_infinite(lambda w: np.full_like(w, np.nan), 1.0)
    assert math.isnan(info.value.value)
    assert math.isnan(info.value.error)
    with np.errstate(over="ignore"), pytest.raises(ToleranceNotMet) as info:
        integrate_semi_infinite(lambda w: 1.0 / w ** 3, 1.0)
    assert info.value.value == math.inf
    assert info.value.error == math.inf


# --- the Gauss-Kronrod 16/33 rule ----------------------------------------------

def kronrod_extension_of_g16(mpmath):
    """(nodes, Kronrod weights, Gauss weights) of the 16/33 rule for x >= 0,
    from 0 up, recomputed in 45-digit arithmetic: the Stieltjes polynomial
    E_17 orthogonal to x^j P_16 for j <= 16, its roots, then the weights that
    integrate P_0 .. P_32 exactly."""
    with mpmath.workdps(45):
        def moment(k):  # Int_-1^1 x^k dx
            return mpmath.mpf(2) / (k + 1) if k % 2 == 0 else mpmath.mpf(0)

        p16 = mpmath.taylor(lambda x: mpmath.legendre(16, x), 0, 16)

        def against_p16(k):  # Int_-1^1 P_16(x) x^k dx
            return sum(c * moment(i + k) for i, c in enumerate(p16))

        # E_17 = x^17 + sum of c_k x^k over odd k is odd, as P_16 is even, so
        # orthogonality to x^j P_16 holds by parity for even j; the odd j give
        # eight equations for the eight c_k
        odd = range(1, 17, 2)
        coef = mpmath.lu_solve(
            mpmath.matrix([[against_p16(j + k) for k in odd] for j in odd]),
            mpmath.matrix([-against_p16(j + 17) for j in odd]))

        def roots_in_square(poly_in_u):  # the roots x >= 0 of a polynomial in u = x^2
            return sorted(mpmath.sqrt(mpmath.re(u)) for u in
                          mpmath.polyroots(poly_in_u, maxsteps=200, extraprec=200))

        # E_17 / x and P_16 as polynomials in u = x^2, highest power first
        kronrod = [mpmath.mpf(0)] + roots_in_square([1] + list(coef)[::-1])
        gauss = roots_in_square(p16[::-2])
        nodes = sorted(kronrod + gauss)
        # symmetric weights: each node x > 0 stands for +-x
        mult = [1] + [2] * 16
        weights = mpmath.lu_solve(
            mpmath.matrix([[m * mpmath.legendre(2 * k, x) for m, x in zip(mult, nodes)]
                           for k in range(17)]),
            mpmath.matrix([2] + [0] * 16))
        gauss_weights = [2 / ((1 - x * x) * mpmath.diff(lambda y: mpmath.legendre(16, y), x) ** 2)
                         for x in gauss]
        return ([float(x) for x in nodes], [float(w) for w in weights],
                [float(w) for w in gauss_weights])


def test_stored_rule_is_the_kronrod_extension_of_g16():
    mpmath = pytest.importorskip("mpmath")
    nodes, weights, gauss_weights = kronrod_extension_of_g16(mpmath)
    np.testing.assert_allclose(numerics._GK_X, nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(numerics._GK_WK, weights, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(numerics._GK_WG, gauss_weights, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(numerics._GK_NODES[16:], nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(numerics._GK_NODES[:16], -np.array(nodes[:0:-1]),
                               rtol=0.0, atol=1e-15)


def test_gauss_half_is_leggauss():
    x, w = np.polynomial.legendre.leggauss(16)
    np.testing.assert_allclose(numerics._GK_NODES[1::2], x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(numerics._GAUSS[1::2], w, rtol=0.0, atol=1e-15)
    assert (numerics._GAUSS[::2] == 0.0).all()


def test_every_weight_is_positive():
    assert (numerics._KRONROD > 0.0).all()
    assert (numerics._GAUSS[1::2] > 0.0).all()


def test_kronrod_rule_is_exact_to_degree_49():
    x = numerics._GK_NODES
    for k in range(50):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs((x ** k) @ numerics._KRONROD - want) <= 1e-14, k
        if k < 32:
            assert abs((x ** k) @ numerics._GAUSS - want) <= 1e-14, k


def test_one_integrand_call_per_pass():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    value, err = numerics._refined_panels(f, lo, hi)
    assert calls == [66]
    np.testing.assert_allclose(value, np.sin(hi) - np.sin(lo), rtol=0.0, atol=1e-15)
    # smooth panels: the estimate is the rounding term
    assert (err >= numerics._ROUNDING * np.abs(value)).all()


def seed_panels_loop(upper_cutoff, lower_edge, max_panel_width, max_panels):
    """The panel [0, lower_edge], then rungs quadrupled from ``lower_edge``
    one at a time while they stay below the cutoff and span at most
    ``max_panel_width`` of omega = x^2, then the rest cut into the fewest
    pieces of equal omega width within it: the reference that
    numerics._seed_panels must match bit for bit."""
    los = [0.0]
    b = lower_edge
    while b < upper_cutoff and b * b - los[-1] * los[-1] <= max_panel_width:
        los.append(b)
        b *= 4.0
    base = los[-1]
    span = upper_cutoff * upper_cutoff - base * base
    pieces = max(1, math.ceil(span / max_panel_width))
    total = len(los) - 1 + pieces
    if total > max_panels:
        raise ToleranceNotMet(
            f"seeding would need {total} panels (max_panels={max_panels})")
    los.extend(math.sqrt(base * base + i * (span / pieces)) for i in range(1, pieces))
    return np.asarray(los), np.asarray(los[1:] + [upper_cutoff])


def test_seed_panels_match_loop_bit_for_bit():
    # lower edges from the cutoff itself down to 1e-160 of it, as deep as the
    # head cut of a sub-Ohmic finite-beta bath
    rng = np.random.default_rng(7)
    raised = 0
    for k in range(300):
        upper = 10.0 ** rng.uniform(-3.0, 4.0)
        lower = upper * 10.0 ** rng.uniform(-160.0, 0.3)
        cap = math.inf if k % 10 == 0 else upper ** 2 * 10.0 ** rng.uniform(-4.0, 0.5)
        args = (upper, lower, cap, 4096)
        try:
            want = seed_panels_loop(*args)
        except ToleranceNotMet as exc:
            raised += 1
            with pytest.raises(ToleranceNotMet, match=f"^{re.escape(str(exc))}$"):
                numerics._seed_panels(*args)
            continue
        got = numerics._seed_panels(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert 0 < raised < 150


@pytest.mark.parametrize("args,count", [
    ((1e200, 1e-20, 1.0, 4096), "about 1e400 panels up to omega = 1e+200^2"),
    ((1e150, 1e-20, 1e-20, 4096), "about 1e320 panels up to omega = 1e+150^2"),
    ((1e40, 1e-20, 1.0, 4096), "1e+80 panels"),
])
def test_seed_panels_past_the_floats_raise_typed_error(args, count):
    # the squared cutoff, or the count of pieces, past the largest float, and
    # a count past a C long: ToleranceNotMet naming it, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotMet, match=f"^seeding would need {re.escape(count)}"):
            numerics._seed_panels(*args)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_panels_tile_sqrt_range_within_width(seed, monkeypatch):
    # the first panels integrate_semi_infinite evaluates tile (0, sqrt(cutoff)]
    # in x without gaps, and none spans more than max_panel_width of omega =
    # x^2 (up to the rounding of the square root)
    seeded = []
    refined = numerics._refined_panels
    monkeypatch.setattr(numerics, "_refined_panels",
                        lambda f, lo, hi: seeded.append((lo, hi)) or refined(f, lo, hi))
    rng = np.random.default_rng(seed)
    for _ in range(25):
        cutoff = 10.0 ** rng.uniform(-4.0, 5.0)
        width = cutoff * 10.0 ** rng.uniform(-3.0, 1.0)
        seeded.clear()
        integrate_semi_infinite(lambda w: np.exp(-w / cutoff), cutoff,
                                max_panel_width=width)
        lo, hi = seeded[0]
        assert lo[0] == 0.0 and hi[-1] == math.sqrt(cutoff)
        assert (lo < hi).all() and (hi[:-1] == lo[1:]).all()
        spans = hi * hi - lo * lo
        assert (spans <= width + 4.0 * np.spacing(hi * hi)).all()


def test_bad_cutoff_rejected():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda w: w, 0.0)


@pytest.mark.parametrize("width", [0.0, -1.0, -math.inf, math.nan])
def test_bad_max_panel_width_rejected(width):
    # a width of 0 divides by zero, a NaN one counts NaN panels, and a
    # negative one would seed a single piece
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda w: np.exp(-w), 40.0, max_panel_width=width)


def _exp(w):
    return np.exp(-w)


@pytest.mark.parametrize("upper,lower,width", [
    (math.nan, 1e-30, 1.0), (math.inf, 1e-30, 1.0), (-math.inf, 1e-30, 1.0),
    (-40.0, 1e-30, 1.0), (0.0, 1e-30, 1.0), (True, 1e-30, 1.0), ("40", 1e-30, 1.0),
    (40.0, math.nan, 1.0), (40.0, math.inf, 1.0), (40.0, -1e-30, 1.0), (40.0, 0.0, 1.0),
    (40.0, True, 1.0), (40.0, "1e-30", 1.0),
    (40.0, 1e-30, math.nan), (40.0, 1e-30, -math.inf), (40.0, 1e-30, -1.0),
    (40.0, 1e-30, 0.0), (40.0, 1e-30, True), (40.0, 1e-30, "1"),
])
def test_float_cutoffs_are_checked(upper, lower, width):
    # three floats take the fast path only when all are valid: one bad value
    # among valid floats still raises the checked path's DomainError
    with pytest.raises(DomainError):
        integrate_semi_infinite(_exp, upper, lower_cutoff=lower, max_panel_width=width)


@pytest.mark.parametrize("kind", [np.array, np.float32, np.float64, int])
def test_cutoffs_of_every_real_kind_give_the_floats_bits(kind):
    want = integrate_semi_infinite(_exp, 40.0, lower_cutoff=1.0 / 1024, max_panel_width=8.0)
    for i in range(3):
        args = [40.0, 1.0 / 1024, 8.0]
        if kind is not int or args[i] == int(args[i]):
            args[i] = kind(args[i])
        upper, lower, width = args
        assert integrate_semi_infinite(_exp, upper, lower_cutoff=lower,
                                       max_panel_width=width) == want, (kind, i)


def test_integrand_of_any_array_like_integrates():
    # a list, an int array or a Python scalar is read as its float array
    ones = integrate_semi_infinite(lambda w: np.ones(w.shape), 4.0)
    assert ones == integrate_semi_infinite(lambda w: np.ones(w.shape, dtype=int), 4.0)
    assert ones == integrate_semi_infinite(lambda w: 1.0, 4.0)
    assert ones == integrate_semi_infinite(lambda w: 1, 4.0)
    assert ones[0] == pytest.approx(4.0, rel=1e-14)
    want = integrate_semi_infinite(_exp, 40.0)
    assert want == integrate_semi_infinite(lambda w: np.exp(-w).tolist(), 40.0)


@pytest.mark.parametrize("call", [
    lambda: reference_gamma(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0)), math.nan),
    lambda: reference_gamma(BathSpec(PowerLawExpCutoff(1.0, 0.7, 1.0)), math.inf),
    lambda: integrate_semi_infinite(lambda w: np.exp(-w), math.nan),
    lambda: integrate_semi_infinite(lambda w: np.exp(-w), math.inf),
    lambda: integrate_semi_infinite(lambda w: np.exp(-w), 1.0, lower_cutoff=math.nan),
    lambda: integrate_semi_infinite(lambda w: np.exp(-w), 1.0, lower_cutoff=0.0),
    lambda: fit_power_law([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    lambda: fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0]),
    lambda: fit_power_law([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]]),
    lambda: reference_gamma(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)), "1"),
    lambda: reference_gamma(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)), np.array([1.0, 2.0])),
    lambda: brute_force_optimum(DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0))),
                                ProbeSpec(1, 10.0), t_min="1"),
    lambda: integrate_semi_infinite(lambda w: np.exp(-w), "1"),
    lambda: solve_bracketed_root(lambda x: x, ("a", 1.0)),
    lambda: fit_power_law(["1", "2", "3"], [1, 2, 3]),
], ids=["reference-gamma-nan", "reference-gamma-inf", "cutoff-nan", "cutoff-inf",
        "lower-cutoff-nan", "lower-cutoff-zero", "fit-nan", "fit-short-ys",
        "fit-2d-ys", "reference-gamma-str", "reference-gamma-array", "oracle-t-min-str",
        "cutoff-str", "bracket-str", "fit-str"])
def test_nonfinite_inputs_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_settings_invariants():
    with pytest.raises(DomainError):
        QuadratureSettings(rel_tol=0.0)


# --- solve_bracketed_root ------------------------------------------------------

def test_sqrt_two():
    root = solve_bracketed_root(lambda t: t * t - 2.0, (1.0, 2.0))
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_markovian_linear_constraint():
    # 2 gamma0 t - 1 = 0 with gamma0 = 1
    root = solve_bracketed_root(lambda t: 2.0 * t - 1.0, (0.0, 1.0))
    assert root == pytest.approx(0.5, abs=1e-14)


def test_lorentzian_transcendental_vs_bisection():
    # a t (1 - e^(-g t)) = 2g at a=2, g=0.1; oracle is plain bisection
    f = lambda t: 2.0 * t * (1.0 - math.exp(-0.1 * t)) - 0.2
    expected = bisect(f, 0.5, 2.0, tol=1e-12)
    root = solve_bracketed_root(f, (0.5, 2.0))
    assert root == pytest.approx(expected, abs=1e-9)
    # the root sits close to the short-time estimate sqrt(2/a)(1 + sqrt(g^2/8a))
    assert root == pytest.approx(1.0257505432, abs=1e-8)
    assert abs(root - 1.025) < 1e-3


def test_no_sign_change_raises():
    with pytest.raises(NoSignChange):
        solve_bracketed_root(lambda t: t * t + 1.0, (0.0, 1.0))


ROOT_CASES = [
    (lambda t: t * t - 2.0, (1.0, 2.0)),
    (lambda t: 2.0 * t * (1.0 - math.exp(-0.1 * t)) - 0.2, (0.5, 2.0)),
    (lambda t: math.tanh(1.7 * (t - 2.3)), (0.4, 4.1)),
    (lambda t: 0.2 - 2.0 * t, (0.0, 1.0)),
]


@pytest.mark.parametrize("g,bracket", ROOT_CASES)
def test_known_end_values_save_two_calls(g, bracket):
    calls = []

    def counted(t):
        calls.append(t)
        return g(t)

    plain = solve_bracketed_root(counted, bracket)
    n_plain = len(calls)
    calls.clear()
    known = solve_bracketed_root(counted, bracket, values=(g(bracket[0]), g(bracket[1])))
    assert known == plain
    assert len(calls) == n_plain - 2
    assert bracket[0] not in calls and bracket[1] not in calls


def test_known_end_values_keep_the_sign_checks():
    g = lambda t: t * t - 2.0
    with pytest.raises(NoSignChange):
        solve_bracketed_root(g, (1.0, 2.0), values=(1.0, 2.0))
    with pytest.raises(NoSignChange):
        solve_bracketed_root(g, (1.0, 2.0), values=(-1.0, -2.0))
    # a zero at an end is that end, whatever g would give there
    assert solve_bracketed_root(g, (1.0, 2.0), values=(0.0, 2.0)) == 1.0
    assert solve_bracketed_root(g, (1.0, 2.0), values=(-1.0, 0.0)) == 2.0
    with pytest.raises(DomainError):
        solve_bracketed_root(g, (2.0, 1.0), values=(2.0, -1.0))


@pytest.mark.parametrize("bracket", [(0.0, math.inf), (-math.inf, 2.0), (-math.inf, math.inf),
                                     (math.nan, 2.0), (0.0, math.nan)])
def test_bracket_ends_must_be_finite(bracket):
    # an infinite or NaN end is no bracket: on (0, inf) and (-inf, 2) x - 1
    # changes sign, and the solver returned an end that is not its root
    with pytest.raises(DomainError):
        solve_bracketed_root(lambda x: x - 1.0, bracket)


@pytest.mark.parametrize("seed", range(5))
def test_root_stays_inside_bracket(seed):
    rng = np.random.default_rng(seed)
    shift = rng.uniform(0.2, 5.0)
    scale = rng.uniform(0.5, 3.0)
    f = lambda t: math.tanh(scale * (t - shift))
    lo, hi = shift - rng.uniform(0.1, 3.0), shift + rng.uniform(0.1, 3.0)
    root = solve_bracketed_root(f, (lo, hi))
    assert lo <= root <= hi
    assert root == pytest.approx(shift, abs=1e-9 * max(1.0, shift))


# --- fit_power_law ---------------------------------------------------------------

def test_exact_quarter_power():
    xs = np.linspace(1.0, 100.0, 60)
    fit = fit_power_law(xs, xs ** 0.25)
    assert fit.exponent == pytest.approx(0.25, abs=1e-13)
    assert fit.residual_rms < 1e-12


def test_prefactor_recovered():
    xs = np.geomspace(0.5, 40.0, 25)
    fit = fit_power_law(xs, 3.0 * xs ** 2)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.log_prefactor == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(DomainError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        fit_power_law([1.0, 3.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
