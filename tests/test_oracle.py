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
from ramsey_bounds import oracle
from ramsey_bounds.errors import GridTooCoarse, DomainError
from ramsey_bounds.metrology import Optimum, ProbeSpec, optimal_resolution
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


def test_grid_too_coarse_when_optimum_below():
    # the grid starts at 1e-4 times the time scale 1/g = 1, while the strong
    # coupling puts the optimum at 1.4e-6 (the closed route's), below it
    deph = DephasingModel(BathSpec(Lorentzian(1e12, 1.0)))
    with pytest.raises(GridTooCoarse, match="lower time edge"):
        brute_force_optimum(deph, ProbeSpec(1, 1.0, "product"))


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


# --- bit for bit with the oracle as first written ------------------------------

def _allocating_surface(deph, probe, ts, thetas):
    gam = np.asarray(deph.gamma(ts), dtype=float)
    n = probe.n
    if probe.strategy == "product":
        decay = np.exp(-2.0 * gam)
        shots = n * probe.total_time * ts
    else:
        decay = np.exp(-2.0 * n * gam)
        shots = n * n * probe.total_time * ts
    c2 = np.cos(thetas) ** 2
    num = 1.0 - c2[None, :] * decay[:, None]
    den = (shots * decay)[:, None] * (1.0 - c2)[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        return num / den


def _allocating_brute_force_optimum(deph, probe, *, t_min=None, t_max=None,
                                    with_theta=False):
    """brute_force_optimum as first written, with np.geomspace,
    np.clip(np.linspace) and a surface that allocates every temporary: the
    oracle must give its results, bit for bit, and raise where it raises."""
    for name, value in (("t_min", t_min), ("t_max", t_max)):
        if value is not None and not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and > 0")
    t_ref = deph.time_scale()
    t_lo = t_min if t_min is not None else 1e-4 * t_ref
    t_hi = t_max if t_max is not None else 1e4 * t_ref
    t_hi = min(t_hi, probe.total_time)
    if not t_hi > t_lo:
        raise DomainError("empty time grid after the total-time cap")
    n_t = max(int(round(math.log10(t_hi / t_lo) * 50)) + 1, 16)
    ts = np.geomspace(t_lo, t_hi, n_t)
    thetas = np.pi * np.arange(1, 182) / 182
    var = _allocating_surface(deph, probe, ts, thetas)
    i, j = np.unravel_index(np.argmin(var), var.shape)
    t_best, th_best, v_best = ts[i], thetas[j], var[i, j]
    dlog = math.log10(ts[1] / ts[0])
    dth = thetas[1] - thetas[0]
    for _ in range(4):
        lo = max(t_best * 10.0 ** (-2.0 * dlog), t_lo)
        hi = min(t_best * 10.0 ** (2.0 * dlog), t_hi)
        ts_r = np.geomspace(lo, hi, 41)
        th_r = np.clip(np.linspace(th_best - 2.0 * dth, th_best + 2.0 * dth, 41),
                       1e-9, math.pi - 1e-9)
        var = _allocating_surface(deph, probe, ts_r, th_r)
        i, j = np.unravel_index(np.argmin(var), var.shape)
        if var[i, j] < v_best:
            t_best, th_best, v_best = ts_r[i], th_r[j], var[i, j]
        dlog /= 10.0
        dth /= 10.0
    edge_tol = 10.0 ** (2.0 * dlog * 10.0)
    at_high_edge = t_hi / t_best < edge_tol
    if t_best / t_lo < edge_tol:
        raise GridTooCoarse("minimum sits at the lower time edge of the grid")
    if at_high_edge and t_hi != probe.total_time:
        raise GridTooCoarse("minimum sits at the upper time edge of the grid")
    result = Optimum(t_opt=float(t_best), delta_omega_sq=float(v_best),
                     boundary_limited=bool(at_high_edge))
    return (result, float(th_best)) if with_theta else result


def _outcome(f, *args, **kwargs):
    try:
        return repr(f(*args, **kwargs))
    except Exception as exc:  # the type is the outcome
        return type(exc).__name__


def _same_as_allocating(deph, probe, **kwargs):
    got = _outcome(brute_force_optimum, deph, probe, **kwargs)
    assert got == _outcome(_allocating_brute_force_optimum, deph, probe, **kwargs)
    return got


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_is_bit_for_bit_on_scenario_draws(seed):
    for deph, probe in scenario_draws(np.random.default_rng(seed), 150):
        _same_as_allocating(deph, probe)


@pytest.mark.parametrize("draws", [scenario_draws, gamma_consistency_draws])
@pytest.mark.parametrize("trials", [-3, 0, True, "3", 2.5, None])
def test_draws_take_a_count_of_trials(draws, trials):
    # no empty list for a count below 1, no one draw for True, and DomainError
    # where a bare TypeError escaped
    with pytest.raises(DomainError, match="^trials must be an int"):
        draws(np.random.default_rng(0), trials)


def test_draws_read_a_numpy_count_as_its_int():
    for draws in (scenario_draws, gamma_consistency_draws):
        got = draws(np.random.default_rng(5), np.int64(2))
        want = draws(np.random.default_rng(5), 2)
        assert repr(got) == repr(want)


def test_oracle_is_bit_for_bit_on_special_cases():
    ohmic = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 1.0, 1.0)))
    markov = DephasingModel(BathSpec(GenericPowerLawDephasing(1.0, 1.0)))
    probe = ProbeSpec(1, 1.0, "product")
    for deph, p in [(ohmic, ProbeSpec(3, 5.0, "ghz")), (markov, probe)]:
        assert "(Optimum(" in _same_as_allocating(deph, p, with_theta=True)
        assert "Optimum(" in _same_as_allocating(deph, p, t_min=1e-3, t_max=3.0)
    # boundary-limited: below the Ohmic threshold the variance falls up to T
    weak = DephasingModel(BathSpec(PowerLawExpCutoff(0.4, 1.0, 1.0)))
    assert "boundary_limited=True" in _same_as_allocating(weak, ProbeSpec(1, 50.0, "product"))
    # decay underflows to 0 at long times: those entries are 1/0 = inf
    strong = DephasingModel(BathSpec(PowerLawExpCutoff(50.0, 1.0, 1.0)))
    assert "Optimum(" in _same_as_allocating(strong, ProbeSpec(4, 1e4, "ghz"))
    assert _same_as_allocating(markov, probe, t_min=1e-6, t_max=1e-3) == "GridTooCoarse"
    assert _same_as_allocating(markov, probe, t_min=0.0) == "DomainError"
    assert _same_as_allocating(markov, probe, t_min=2.0) == "DomainError"
    # a time scale so small that 1e-4 of it rounds to 0: the grid is empty,
    # where the allocating reference divides by the grid's decade count
    tiny = DephasingModel(BathSpec(GenericPowerLawDephasing(5e32, 0.1)))
    with pytest.raises(DomainError, match="empty time grid"):
        brute_force_optimum(tiny, probe)
    assert _outcome(_allocating_brute_force_optimum, tiny, probe) == "ZeroDivisionError"


def test_grids_are_numpys():
    rng = np.random.default_rng(20)
    ramp = oracle._ZOOM_STEPS
    for k in range(10_000):
        lo = 10.0 ** rng.uniform(-300.0, 300.0)
        hi = lo * 10.0 ** rng.uniform(-6.0, 6.0)
        assert np.array_equal(oracle._geom(lo, hi, ramp), np.geomspace(lo, hi, 41))
        if k % 10 == 0:  # the coarse grid's lengths
            n = int(rng.integers(16, 1000))
            assert np.array_equal(oracle._geom(lo, hi, np.arange(float(n))),
                                  np.geomspace(lo, hi, n))
        th = rng.uniform(-0.1, math.pi + 0.1)
        dth = math.pi / 182 * 10.0 ** -rng.integers(0, 5)
        lin = oracle._lin(th - 2.0 * dth, th + 2.0 * dth, ramp)
        want = np.linspace(th - 2.0 * dth, th + 2.0 * dth, 41)
        assert np.array_equal(lin, want)
        np.minimum(np.maximum(lin, 1e-9, out=lin), math.pi - 1e-9, out=lin)
        assert np.array_equal(lin, np.clip(want, 1e-9, math.pi - 1e-9))


# --- the coarse scan's row selection -------------------------------------------

def _same_as_allocating_with_rows(deph, probe, **kwargs):
    """``_same_as_allocating``, and the rows of every coarse scan."""
    kept = []
    surface = oracle._surface

    def recorded(decay, a, c2):
        if c2 is oracle._COS2:
            kept.append(len(a))
        return surface(decay, a, c2)

    oracle._surface = recorded
    try:
        return _same_as_allocating(deph, probe, **kwargs), kept
    finally:
        oracle._surface = surface


def test_pruned_scan_is_bit_for_bit_on_a_twelve_decade_window():
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(3.0, 1.0, 1.0)))
    got, kept = _same_as_allocating_with_rows(
        deph, ProbeSpec(3, 1e7, "ghz"), t_min=1e-6, t_max=1e6, with_theta=True)
    assert "(Optimum(" in got and kept == [1]  # of 601 rows


def test_pruned_scan_is_bit_for_bit_where_decay_underflows():
    # rows at long times have a = 0 (entries inf), and three rows a
    # subnormal a
    strong = DephasingModel(BathSpec(PowerLawExpCutoff(50.0, 1.0, 1.0)))
    probe = ProbeSpec(4, 1e4, "ghz")
    ts = oracle._geom(1e-4, 1e4, np.arange(401.0))
    _, a = oracle._decay_and_a(strong, probe, ts)
    assert (a == 0.0).sum() > 100 and ((a > 0.0) & (a < 1e-300)).sum() == 3
    got, kept = _same_as_allocating_with_rows(strong, probe, with_theta=True)
    assert "(Optimum(" in got and kept == [1]


def test_pruned_scan_is_bit_for_bit_where_every_a_is_subnormal():
    # t in [5e-158, 1e-153] and T = 1e-153: a < 3e-307 in every row, where
    # a (1 - cos^2) can be subnormal, so every entry is only known to be
    # above 3e-4/1e-300; the least of them is far above that, so all 216
    # rows are scanned
    deph = DephasingModel(BathSpec(GenericPowerLawDephasing(1e153, 1.0)))
    got, kept = _same_as_allocating_with_rows(
        deph, ProbeSpec(2, 1e-153, "product"), with_theta=True)
    assert "(Optimum(" in got and kept == [216]


def _row_selection_cases():
    # d = 1 rows whose entries round an ulp below 1/a, one with a an ulp
    # larger: the first holds the minimum, which the 1e-9 margin keeps
    yield np.array([1.0, 1.0]), np.array([3.4831077814613254, 3.483107781461326])
    # decay and a drawn from ties, a = 0 (inf entries), subnormal a, d > 1
    # (entries below 1/a, or negative) and NaN
    rng = np.random.default_rng(23)
    decays = [0.0, 0.3, 0.5, 1.0, 1.0 + 1e-12, 1.5, 1e300, math.nan]
    a_values = [0.0, 5e-324, 1e-310, 1e-301, 1e-300, 1e-299, 1e-3, 0.5, 2.0,
                3.0, 1e300, math.nan]
    for k in range(3000):
        rows = int(rng.integers(1, 9))
        decay = np.array(rng.choice(decays, rows))
        a = np.array(rng.choice(a_values, rows))
        if k % 3 == 0:  # finite draws alone, so that some rows are skipped
            decay, a = decay.clip(0.0, 1.0), np.abs(a).clip(1e-3, 3.0)
            decay[np.isnan(decay)], a[np.isnan(a)] = 0.5, 2.0
        yield decay, a


def test_row_selection_picks_the_full_surfaces_first_minimum():
    for decay, a in _row_selection_cases():
        with np.errstate(invalid="ignore"):
            want = oracle._argmin(oracle._surface(decay, a, oracle._COS2))
            got = oracle._coarse_argmin(decay, a)
        assert repr(got) == repr(want), (decay, a)


def test_huge_total_time_overflowing_the_shot_count_raises():
    # n^2 T t overflows above t = 702, where the decay has underflowed to 0,
    # so the entries there would be inf * 0 = nan
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(50.0, 1.0, 1.0)))
    probe = ProbeSpec(16, 1e303, "ghz")
    with pytest.raises(DomainError, match="overflows a float"):
        brute_force_optimum(deph, probe)
    assert optimal_resolution(deph, probe).delta_omega_sq == pytest.approx(
        2.575724413201287e-304, rel=1e-12, abs=0.0)
