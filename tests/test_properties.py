"""Property tests: the decoherence function and the resolution ratio on
drawn baths, with a fixed set of examples per test."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ramsey_bounds.dephasing import (  # noqa: E402
    BathSpec,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    PowerLawExpCutoff,
)
from ramsey_bounds.metrology import ratio_r  # noqa: E402

# the same examples on every run, and no example database written
FIXED = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@FIXED
@given(s=st.floats(0.05, 6.0), wc=log_uniform(0.1, 10.0), beta_wc=log_uniform(1e-2, 1e2),
       x=log_uniform(1e-3, 1e3), heat=st.floats(1.01, 10.0))
def test_finite_beta_gamma_falls_with_beta(s, wc, beta_wc, x, heat):
    spec = PowerLawExpCutoff(1.0, s, wc)
    t, beta = x / wc, beta_wc / wc
    cold = spec.gamma(BathSpec(spec, FiniteBeta(beta)), t)
    hot = spec.gamma(BathSpec(spec, FiniteBeta(beta / heat)), t)
    # the thermal part can sit below rounding at large beta wc
    assert hot >= cold * (1.0 - 1e-14)


@FIXED
@given(s=st.floats(0.05, 6.0), wc=log_uniform(0.1, 10.0), beta_wc=log_uniform(1e-2, 1e2),
       x=log_uniform(1e-3, 1e3), scale=log_uniform(1e-3, 1e3))
def test_finite_beta_scale_covariance(s, wc, beta_wc, x, scale):
    # gamma depends on wc t and beta wc alone: (wc, beta, t) -> (l wc, beta/l, t/l)
    t, beta = x / wc, beta_wc / wc
    base = PowerLawExpCutoff(1.3, s, wc)
    scaled = PowerLawExpCutoff(1.3, s, scale * wc)
    base_bath = BathSpec(base, FiniteBeta(beta))
    scaled_bath = BathSpec(scaled, FiniteBeta(beta / scale))
    want = base.gamma(base_bath, t)
    got = scaled.gamma(scaled_bath, t / scale)
    assert got == pytest.approx(want, rel=1e-13)
    assert scaled_bath.c2 == pytest.approx(scale ** 2 * base_bath.c2, rel=1e-13)


@FIXED
@given(s=st.floats(0.05, 1.9), alpha=log_uniform(0.1, 10.0), wc=log_uniform(0.1, 10.0),
       beta_wc=log_uniform(1e-2, 1e2), n=st.integers(1, 64))
def test_finite_beta_ratio_at_most_sqrt_n(s, alpha, wc, beta_wc, n):
    # below s = 2 at finite beta, 2 m t gamma' grows without bound: every
    # multiplier has an optimum
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(alpha, s, wc), FiniteBeta(beta_wc / wc)))
    r = ratio_r(deph, n).r
    assert 0.0 < r <= math.sqrt(n) * (1.0 + 1e-12)


@FIXED
@given(alpha=log_uniform(1e-2, 1e2), n=st.integers(1, 10_000))
def test_markovian_ratio_is_one(alpha, n):
    deph = DephasingModel(BathSpec(GenericPowerLawDephasing(alpha, 1.0)))
    assert ratio_r(deph, n).r == pytest.approx(1.0, rel=1e-12)
