import math

import numpy as np
import pytest

from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    Lorentzian,
    PowerLawExpCutoff,
    gamma_quadrature,
)
from ramsey_bounds.errors import GridTooCoarse, DomainError
from ramsey_bounds.metrology import ProbeSpec, optimal_resolution
from ramsey_bounds.oracle import (
    brute_force_optimum,
    gamma_consistency_draws,
    reference_gamma,
    scenario_draws,
)


def test_markov_grid_optimum():
    deph = DephasingModel(BathSpec(GenericPowerLawDephasing(1.0, 1.0)))
    res, theta = brute_force_optimum(deph, ProbeSpec(1, 1.0, "product"),
                                     with_theta=True)
    assert res.t_opt == pytest.approx(0.5, abs=1e-4)
    assert res.delta_omega_sq == pytest.approx(2.0 * math.e, rel=1e-6)
    assert abs(theta - math.pi / 2.0) < 1e-3


def test_ohmic_grid_optimum_matches_analytic():
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)))
    res = brute_force_optimum(deph, ProbeSpec(1, 10.0, "product"))
    assert res.t_opt == pytest.approx(1.0, abs=1e-4)
    ana = optimal_resolution(deph, ProbeSpec(1, 10.0, "product"))
    assert res.delta_omega_sq == pytest.approx(ana.delta_omega_sq, rel=1e-8)


def test_grid_search_never_beats_analytic_optimum():
    deph = DephasingModel(BathSpec(Lorentzian(2.0, 0.4)))
    probe = ProbeSpec(4, 20.0, "ghz")
    grid = brute_force_optimum(deph, probe)
    ana = optimal_resolution(deph, probe)
    assert grid.delta_omega_sq >= ana.delta_omega_sq * (1.0 - 1e-9)


def test_grid_determinism():
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)))
    probe = ProbeSpec(3, 5.0, "ghz")
    a = brute_force_optimum(deph, probe)
    b = brute_force_optimum(deph, probe)
    assert a == b


def test_grid_too_coarse_when_optimum_outside():
    deph = DephasingModel(BathSpec(GenericPowerLawDephasing(1.0, 1.0)))
    with pytest.raises(GridTooCoarse):  # optimum at 0.5 sits far above
        brute_force_optimum(deph, ProbeSpec(1, 1.0, "product"), t_min=1e-6, t_max=1e-3)


def test_boundary_limited_at_total_time():
    # below the Ohmic threshold the variance decreases up to the time budget
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(0.4, 1.0, 1.0)))
    res = brute_force_optimum(deph, ProbeSpec(1, 50.0, "product"))
    assert res.boundary_limited
    assert res.t_opt == pytest.approx(50.0, rel=1e-9)


def test_grid_spec_validation():
    deph = DephasingModel(BathSpec(GenericPowerLawDephasing(1.0, 1.0)))
    with pytest.raises(DomainError):
        brute_force_optimum(deph, ProbeSpec(1, 1.0, "product"), t_min=0.0)


def test_reference_gamma_values():
    bath = BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0))
    assert reference_gamma(bath, 1.0) == pytest.approx(0.25, rel=1e-9)
    assert reference_gamma(bath, 0.0) == 0.0


@pytest.mark.parametrize("t", [1e6, 1e12])
def test_reference_gamma_at_long_times(t):
    # a direct Matsubara sum would need about 10 t / beta terms; the kernel's
    # terms, each taken in 60-digit arithmetic from its uncancelled closed
    # form Gamma(p - 1) Om^(p-1) [1 - Re (1 - i Om t)^(1-p)], give the same sum
    mpmath = pytest.importorskip("mpmath")
    spec = PowerLawExpCutoff(1.0, 0.5, 1.0)
    got = reference_gamma(BathSpec(spec, FiniteBeta(1.0)), t)
    with mpmath.workdps(60):
        want = mpmath.fsum(
            a / math.gamma(p + 1.0) * mpmath.gamma(mpmath.mpf(p) - 1)
            * (1 - mpmath.re((1 - 1j * mpmath.mpf(r) * t) ** (1 - mpmath.mpf(p))))
            for a, p, r in spec._thermal_terms(1.0))
    assert math.isfinite(got)
    assert abs(got / float(want) - 1.0) <= 1e-13


def test_reference_gamma_matches_adaptive_route():
    rng = np.random.default_rng(11)
    for bath, t in gamma_consistency_draws(rng, 12):
        ref = reference_gamma(bath, t)
        val = gamma_quadrature(bath, t)[0]
        assert val == pytest.approx(ref, rel=1e-8)


def test_scenario_draws_are_deterministic_and_span_models():
    a = scenario_draws(np.random.default_rng(5), 9)
    b = scenario_draws(np.random.default_rng(5), 9)
    assert [(d.bath, p) for d, p in a] == [(d.bath, p) for d, p in b]
    kinds = {type(d.bath.spectral).__name__ for d, _ in a}
    assert kinds == {"PowerLawExpCutoff", "Lorentzian", "GenericPowerLawDephasing"}
