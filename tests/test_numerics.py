import math
import re

import numpy as np
import pytest

from ramsey_bounds import numerics
from ramsey_bounds.errors import DomainError, NoSignChange, ToleranceNotMet
from ramsey_bounds.numerics import (
    QuadratureSettings,
    fit_power_law,
    integrate_semi_infinite,
    solve_bracketed_root,
)


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


def seed_panels_loop(upper_cutoff, inner_boundary, max_panel_width, max_panels):
    """The panel ladder built rung by rung with np.linspace: the reference
    that numerics._seed_panels must match bit for bit."""
    eps = min(inner_boundary, 0.25 * upper_cutoff) * 2.0 ** (-numerics._LADDER_DEPTH)
    rungs = [0.0, eps]
    b = eps
    while b < upper_cutoff:
        b = min(b * 2.0, upper_cutoff)
        rungs.append(b)

    def pieces(width):
        if max_panel_width is not None and width > max_panel_width:
            return int(np.ceil(width / max_panel_width))
        return 1

    total = sum(pieces(w) for w in np.diff(np.asarray(rungs)))
    if total > max_panels:
        raise ToleranceNotMet(
            f"seeding would need {total} panels (max_panels={max_panels})")
    los, his = [], []
    for lo, hi in zip(rungs[:-1], rungs[1:]):
        k = pieces(hi - lo)
        if k > 1:
            edges = np.linspace(lo, hi, k + 1)
            los.extend(edges[:-1])
            his.extend(edges[1:])
        else:
            los.append(lo)
            his.append(hi)
    return np.asarray(los), np.asarray(his)


def test_seed_panels_match_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    raised = 0
    for k in range(300):
        upper = 10.0 ** rng.uniform(-3.0, 4.0)
        inner = upper * 10.0 ** rng.uniform(-8.0, 0.0)
        cap = None if k % 10 == 0 else upper * 10.0 ** rng.uniform(-4.0, 0.5)
        args = (upper, inner, cap, 4096)
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


def test_bad_cutoff_rejected():
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda w: w, 0.0)


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
