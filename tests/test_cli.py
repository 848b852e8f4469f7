import io
import math
import warnings

import numpy as np
import pytest

from ramsey_bounds.cli import _emit_rows, _fmt, main
from ramsey_bounds.dephasing import (
    BathSpec,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    Quadrature,
)
from ramsey_bounds import dephasing
from ramsey_bounds.errors import DomainError, ToleranceNotMet
from ramsey_bounds.metrology import ProbeSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_ohmic_row(capsys):
    code, out, _ = run(capsys, "gamma", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--temp", "zero", "--t", "1")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "t,gamma,dgamma_dt"
    t, gamma, dg = (float(v) for v in row.split(","))
    assert gamma == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
    assert dg == pytest.approx(0.5, rel=1e-15)


def test_gamma_sub_ohmic_zero_time_prints_positive_zero(capsys):
    argv = ["gamma", "--model", "powerlaw", "--alpha", "1", "--s", "0.5",
            "--omega-c", "1", "--t", "0"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "t,gamma,dgamma_dt\n0,0,0\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == '{"t": 0, "gamma": 0, "dgamma_dt": 0}\n'


def test_gamma_lorentzian_row(capsys):
    code, out, _ = run(capsys, "gamma", "--model", "lorentzian", "--a", "4",
                       "--g", "1", "--t", "1")
    assert code == 0
    gamma = float(out.strip().split("\n")[1].split(",")[1])
    assert gamma == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gamma_routes_agree_on_grid(capsys):
    base = ["gamma", "--model", "powerlaw", "--alpha", "1", "--s", "2",
            "--omega-c", "1", "--t-grid", "0.1:10:7:log"]
    code, closed, _ = run(capsys, *base, "--route", "closed")
    assert code == 0
    code, quad, _ = run(capsys, *base, "--route", "quad")
    assert code == 0
    for row_c, row_q in zip(closed.strip().split("\n")[1:],
                            quad.strip().split("\n")[1:]):
        gc = float(row_c.split(",")[1])
        gq = float(row_q.split(",")[1])
        assert gq == pytest.approx(gc, rel=1e-6)


def test_gamma_json_round_trip(capsys):
    import json

    code, out, _ = run(capsys, "gamma", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--t", "1", "--format", "json")
    assert code == 0
    rec = json.loads(out.strip())
    assert list(rec.keys()) == ["t", "gamma", "dgamma_dt"]
    assert rec["gamma"] == pytest.approx(0.5 * math.log(2.0), rel=1e-15)


def test_csv_floats_round_trip_17g(capsys):
    code, out, _ = run(capsys, "ratio", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--n-grid", "2:2:1")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    r = float(row["r"])
    assert format(r, ".17g") == row["r"]
    assert r == pytest.approx(1.13975, abs=1e-5)


def test_optimize_product(capsys):
    code, out, _ = run(capsys, "optimize", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--n", "1", "--total-time", "1",
                       "--strategy", "product")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert float(row["t_opt"]) == pytest.approx(1.0, rel=1e-10)
    assert float(row["delta_omega_sq"]) == pytest.approx(2.0, rel=1e-10)
    assert row["finite"] == "true" and row["boundary_limited"] == "false"
    # t_u = 1 = T exactly: the stationary point, not the boundary, wins
    assert out == "t_opt,delta_omega_sq,finite,boundary_limited\n1,2,true,false\n"


def test_csv_writer_prints_the_per_value_format():
    rng = np.random.default_rng(2)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308]
    for _ in range(50):
        kinds = rng.choice(["float", "int", "npint", "bool", "str"], size=6)
        rows = []
        for _ in range(20):
            row = []
            for j, kind in enumerate(kinds.tolist()):
                if kind == "float":
                    v = (specials[rng.integers(len(specials))] if rng.uniform() < 0.3
                         else float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
                elif kind == "int":
                    v = int(rng.integers(-2**62, 2**62))
                elif kind == "npint":
                    v = np.int64(rng.integers(-1000, 1000))
                elif kind == "bool":
                    v = bool(rng.uniform() < 0.5)
                else:
                    v = str(rng.choice(["ok", "no-finite-optimum", "%s", "a%d"]))
                row.append((f"c{j}", v))
            rows.append(row)
        want = ",".join(k for k, _ in rows[0]) + "\n" + "".join(
            ",".join(_fmt(v) if not isinstance(v, str) else v for _, v in row) + "\n"
            for row in rows)
        out = io.StringIO()
        _emit_rows(rows, "csv", out)
        assert out.getvalue() == want


def test_optimize_ghz(capsys):
    code, out, _ = run(capsys, "optimize", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--n", "2", "--total-time", "1",
                       "--strategy", "ghz")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert float(row["t_opt"]) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)
    assert float(row["delta_omega_sq"]) == pytest.approx(0.7698004, rel=1e-6)


def test_optimize_boundary_exit_code(capsys):
    code, out, _ = run(capsys, "optimize", "--model", "ohmic", "--alpha", "0.4",
                       "--omega-c", "1", "--n", "1", "--total-time", "1",
                       "--strategy", "product")
    assert code == 3
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert row["boundary_limited"] == "true"
    assert float(row["t_opt"]) == 1.0


def test_optimize_at_a_huge_total_time(capsys):
    # n T t = 1e400 overflows; dw^2 = e^(2 gamma(T))/T^2 = (1 + 1e400)^0.4/1e400
    code, out, _ = run(capsys, "optimize", "--model", "ohmic", "--alpha", "0.4",
                       "--omega-c", "1", "--n", "1", "--total-time", "1e200",
                       "--strategy", "product")
    assert code == 3
    assert out.splitlines()[1] == "9.9999999999999997e+199,1.0000000000000634e-240,false,true"


def test_ratio_markovian_rows(capsys):
    code, out, _ = run(capsys, "ratio", "--model", "powerlaw-dephasing",
                       "--alpha", "1", "--nu", "1", "--n-grid", "1:50:6:log")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(1.0, abs=1e-9)
        assert fields[-1] == "ok"


def test_ratio_flags_failed_rows(capsys):
    code, out, _ = run(capsys, "ratio", "--model", "ohmic", "--alpha", "0.4",
                       "--omega-c", "1", "--n-grid", "2:4:2")
    assert code == 3
    for line in out.strip().split("\n")[1:]:
        assert line.split(",")[-1] == "no-finite-optimum"


def test_ratio_rejects_n_beyond_64_bits(capsys):
    code, _, err = run(capsys, "ratio", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--n-grid", "1:1e19:2")
    assert code == 2
    assert "below 2^63" in err


def test_ratio_sweep_slope_quarter_power(capsys):
    import numpy as np

    from ramsey_bounds.numerics import fit_power_law

    code, out, _ = run(capsys, "ratio", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--n-grid", "100:100000:15:log")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ns = np.array([float(r[0]) for r in rows])
    rs = np.array([float(r[1]) for r in rows])
    fit = fit_power_law(ns, rs)
    assert fit.exponent == pytest.approx(0.25, abs=0.01)


def test_byte_identical_reruns(capsys):
    argv = ["ratio", "--model", "lorentzian", "--a", "2", "--g", "0.3",
            "--n-grid", "1:32:4:log", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_figure1_file_contents(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "figure1", "--alpha", "1", "--n-max", "12",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "n,r_exact,r_pipeline,sqrt_n,markov"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-12)
    assert float(rows[1][1]) == pytest.approx(1.13975, abs=1e-5)
    r_prev = 0.0
    for row in rows:
        n, r_exact, r_pipe, sqrt_n, markov = (float(v) for v in row)
        assert abs(r_exact - r_pipe) < 1e-8
        assert r_exact <= sqrt_n * (1.0 + 1e-12)
        assert r_exact > r_prev
        r_prev = r_exact


def test_figure1_io_error(capsys):
    code, _, err = run(capsys, "figure1", "--alpha", "1", "--n-max", "2",
                       "--out", "/nonexistent-dir/x.csv")
    assert code == 5
    assert "cannot write" in err


def test_figure1_alpha_validation(capsys):
    code, _, err = run(capsys, "figure1", "--alpha", "0.5", "--n-max", "2",
                       "--out", "x.csv")
    assert code == 2
    assert err.startswith("error:")


def test_missing_model_flag_exit_2(capsys):
    code, _, err = run(capsys, "gamma", "--model", "powerlaw", "--s", "2",
                       "--omega-c", "1", "--t", "1")
    assert code == 2
    assert err.strip().count("\n") == 0  # one-line message


def test_invalid_parameter_exit_2(capsys):
    code, _, err = run(capsys, "gamma", "--model", "ohmic", "--alpha", "-1",
                       "--omega-c", "1", "--t", "1")
    assert code == 2


OHMIC_T1 = ["gamma", "--model", "ohmic", "--alpha", "1", "--omega-c", "1", "--t", "1"]


@pytest.mark.parametrize("build,argv", [
    (lambda: PowerLawExpCutoff(math.nan, 1.0, 1.0),
     ["gamma", "--model", "ohmic", "--alpha", "nan", "--omega-c", "1", "--t", "1"]),
    (lambda: PowerLawExpCutoff(1.0, 1.0, math.inf),
     ["gamma", "--model", "ohmic", "--alpha", "1", "--omega-c", "inf", "--t", "1"]),
    (lambda: PowerLawExpCutoff(1.0, math.nan, 1.0),
     ["gamma", "--model", "powerlaw", "--alpha", "1", "--s", "nan", "--omega-c", "1",
      "--t", "1"]),
    (lambda: Lorentzian(math.inf, 1.0),
     ["gamma", "--model", "lorentzian", "--a", "inf", "--g", "1", "--t", "1"]),
    (lambda: Lorentzian(1.0, math.nan),
     ["gamma", "--model", "lorentzian", "--a", "1", "--g", "nan", "--t", "1"]),
    (lambda: GenericPowerLawDephasing(1.0, math.inf),
     ["gamma", "--model", "powerlaw-dephasing", "--alpha", "1", "--nu", "inf", "--t", "1"]),
    (lambda: GenericPowerLawDephasing(-math.inf, 1.0),
     ["gamma", "--model", "powerlaw-dephasing", "--alpha", "nan", "--nu", "1", "--t", "1"]),
    (lambda: FiniteBeta(math.nan), OHMIC_T1 + ["--temp", "beta=nan", "--route", "quad"]),
    (lambda: HighTemperatureOhmic(math.inf), OHMIC_T1 + ["--temp", "high-t=inf"]),
    (lambda: ProbeSpec(1, math.nan),
     ["optimize", "--model", "ohmic", "--alpha", "1", "--omega-c", "1", "--n", "1",
      "--total-time", "nan", "--strategy", "product"]),
    (None, ["gamma", "--model", "ohmic", "--alpha", "1", "--omega-c", "1",
            "--t-grid", "1:inf:3"]),
    (None, ["gamma", "--model", "ohmic", "--alpha", "1", "--omega-c", "1",
            "--t-grid", "nan:2:3"]),
    (None, ["gamma", "--model", "ohmic", "--alpha", "1", "--omega-c", "1", "--t", "nan"]),
    # the static bath g = 0 is the nu = 2 law, --model powerlaw-dephasing
    (lambda: Lorentzian(2.0, 0.0),
     ["ratio", "--model", "lorentzian", "--a", "2", "--g", "0", "--n-grid", "1:16:4"]),
])
def test_nonfinite_input_rejected(capsys, build, argv):
    if build is not None:
        with pytest.raises(DomainError):
            build()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_closed_route_finite_beta_exit_0(capsys):
    code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1",
                         "--s", "2", "--omega-c", "1", "--temp", "beta=1",
                         "--t", "1", "--route", "closed")
    assert code == 0 and err == ""
    t, g, dg = (float(v) for v in out.splitlines()[1].split(","))
    quad = DephasingModel(BathSpec(PowerLawExpCutoff(1.0, 2.0, 1.0), FiniteBeta(1.0)),
                          Quadrature())
    assert t == 1.0
    assert g == pytest.approx(quad.gamma(1.0), rel=1e-8)
    assert dg == pytest.approx(quad.dgamma_dt(1.0), rel=1e-8)


@pytest.mark.parametrize("argv", [
    ["ratio", "--model", "ohmic", "--alpha", "1e300", "--omega-c", "1e300",
     "--n-grid", "1:3:3"],
    ["optimize", "--model", "powerlaw", "--alpha", "1", "--s", "0.5", "--omega-c",
     "1e200", "--n", "1", "--total-time", "1", "--strategy", "product"],
    ["gamma", "--model", "powerlaw", "--alpha", "1", "--s", "200", "--omega-c", "1",
     "--temp", "beta=1", "--t", "1"],
    # Gamma(s + 1) in the T = 0 kernel term
    ["gamma", "--model", "powerlaw", "--alpha", "1", "--s", "200", "--omega-c", "1",
     "--t", "1"],
])
def test_overflowing_bath_constant_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflows a float" in err
    assert err.count("\n") == 1


def test_overflowing_zero_temperature_gamma_exit_2(capsys):
    # the T = 0 kernel never squares omega_c: at omega_c t = 1e200, where
    # (omega_c t)^2 overflows, gamma = ln(omega_c t) and dgamma/dt = 1/t, with
    # no warning (a RuntimeWarning is an error under the suite's warning filter)
    code, out, err = run(capsys, "gamma", "--model", "ohmic", "--alpha", "1",
                         "--omega-c", "1e200", "--t", "1")
    assert code == 0 and err == ""
    t, g, dg = (float(v) for v in out.splitlines()[1].split(","))
    assert g == pytest.approx(460.51701859880916, rel=1e-14)
    assert dg == pytest.approx(1.0, rel=1e-14)
    # Gamma(s + 1) still overflows at s = 200, and exits 2
    code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1",
                         "--s", "200", "--omega-c", "1", "--t", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: a value overflows a float")
    assert err.count("\n") == 1


def test_zero_temperature_dgamma_keeps_its_digits_at_long_times(capsys):
    # dgamma/dt = alpha wc x / (1 + x^2)^2 at s = 2, x = wc t: sin(s arctan x)
    # nears sin(pi) there, and the kernel reduces that angle exactly
    code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1", "--s", "2",
                         "--omega-c", "1", "--t", "1e12")
    assert code == 0 and err == ""
    t, g, dg = (float(v) for v in out.splitlines()[1].split(","))
    assert abs(dg / 1e-36 - 1.0) <= 4e-15
    # at s = 2.5, (1 + x^2)^(s/2) alone overflows from x ~ 1e124 on; the
    # kernel takes (1 + x^2)^(-s/2), which underflows quietly
    code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1.3",
                         "--s", "2.5", "--omega-c", "0.7",
                         "--t-grid", "0.001:1e140:3000:log")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3001


@pytest.mark.parametrize("args, want", [
    (["--model", "ohmic", "--omega-c", "1"], (368.41361487904731, 1e-160)),
    (["--model", "powerlaw", "--s", "0.5", "--omega-c", "1"], (1.2533141373155003e80,
                                                              6.2665706865775013e-81)),
    (["--model", "ohmic", "--omega-c", "1", "--temp", "high-t=1"], (1.5707963267948966e160,
                                                                  1.5707963267948966)),
])
def test_gamma_past_the_square_overflow(capsys, args, want):
    # (omega_c t)^2 overflows a float at t = 1e160: the closed forms still
    # give their values (from mpmath), with no warning
    code, out, err = run(capsys, "gamma", "--alpha", "1", *args, "--t", "1e160")
    assert code == 0 and err == ""
    t, g, dg = (float(v) for v in out.splitlines()[1].split(","))
    assert g == pytest.approx(want[0], rel=1e-13, abs=0.0)
    assert dg == pytest.approx(want[1], rel=1e-13, abs=0.0)


def test_finite_beta_ratio_closed_route(capsys):
    code, out, err = run(capsys, "ratio", "--model", "powerlaw", "--alpha", "1",
                         "--s", "0.5", "--omega-c", "1", "--temp", "beta=2",
                         "--n-grid", "1:4:4")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok"] * 4
    assert all(1.0 <= float(row[1]) <= math.sqrt(float(row[0])) for row in rows)


@pytest.mark.parametrize("route", ["closed", "quad"])
def test_finite_beta_s2_no_optimum_exit_3(capsys, route):
    code, out, _ = run(capsys, "ratio", "--model", "powerlaw", "--alpha", "1",
                       "--s", "2", "--omega-c", "1", "--temp", "beta=2",
                       "--route", route, "--n-grid", "1:4:4")
    assert code == 3
    assert out.splitlines()[1] == "1,nan,nan,nan,1,1,no-finite-optimum"


def test_numerical_failure_exit_6(capsys):
    # panels two oscillation periods wide up to the cutoff exceed the budget
    # (some 20000 of them at t = 10000)
    code, out, err = run(capsys, "gamma", "--model", "ohmic", "--alpha", "1",
                         "--omega-c", "1", "--t", "10000", "--route", "quad")
    assert code == 6
    assert out == ""
    assert err.startswith("error: seeding would need ")


def test_quad_route_ohmic_at_long_time(capsys):
    # within the panel budget at t = 1000, and within the contract of half the
    # closed route's row: the quadrature integral is half of it at T = 0
    # (see Conventions in the README)
    code, out, err = run(capsys, "gamma", "--model", "ohmic", "--alpha", "1",
                         "--omega-c", "1", "--t", "1000", "--route", "quad")
    assert code == 0 and err == ""
    _, gamma, dgamma = (float(v) for v in out.strip().split("\n")[1].split(","))
    for got, closed in ((gamma, 6.9077557789818869), (dgamma, 0.00099999900000099996)):
        assert abs(got - 0.5 * closed) <= 1e-9 * 0.5 * closed


@pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-10, 1.0 + 1e-10])
def test_quad_route_root_at_the_total_time_is_interior(capsys, monkeypatch, scale):
    # the quadrature's gamma' = t / (4 (1 + t^2)) puts the GHZ root of
    # 2 m t gamma' = 1 at t = 1 = T exactly; gamma' is known to rel_tol = 1e-9,
    # so a root that far above T is T, and not a boundary optimum
    quadrature = dephasing.dgamma_quadrature
    monkeypatch.setattr(dephasing, "dgamma_quadrature", lambda bath, t: tuple(
        scale * v for v in quadrature(bath, t)))
    code, out, _ = run(capsys, "optimize", "--model", "ohmic", "--alpha", "1",
                       "--omega-c", "1", "--n", "2", "--total-time", "1",
                       "--strategy", "ghz", "--route", "quad")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.strip().split("\n"))))
    assert abs(float(row["t_opt"]) - 1.0) <= 1e-9
    assert row["finite"] == "true" and row["boundary_limited"] == "false"


def test_missed_quadrature_contract_exit_6(capsys, monkeypatch):
    # a tail cutoff frozen at its start, 2 s wc = 8, misses the contract at
    # s = 4, t = 1: gamma's relative tolerance, against a tail bound of 0.04
    monkeypatch.setattr(dephasing, "_tail_cutoff", lambda bound, omega_max, goal: omega_max)
    code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1", "--s", "4",
                         "--omega-c", "1", "--t", "1", "--route", "quad")
    assert code == 6
    assert out == ""
    assert err.startswith("error: tolerance 1.22876e-09 not met")


def test_numerical_failure_shows_value_and_error(capsys, monkeypatch):
    def not_met(*args, **kwargs):
        raise ToleranceNotMet("tolerance not met", value=0.25, error=1e-3)

    monkeypatch.setattr(dephasing, "integrate_semi_infinite", not_met)
    code, _, err = run(capsys, *OHMIC_T1, "--route", "quad")
    assert code == 6
    assert err == "error: tolerance not met (value=0.25, error=0.001)\n"


def test_head_below_the_floats_exit_2(capsys):
    # sub-Ohmic finite beta at s = 0.01: the head cut lies below the floats,
    # which is one error line and exit 2, with no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1",
                             "--s", "0.01", "--omega-c", "1", "--temp", "beta=1", "--t", "1",
                             "--route", "quad")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "s=0.01" in err and "below the smallest normal float" in err


def test_steep_power_law_on_the_quad_route(capsys):
    # s = 150: the tail bound and J are taken where neither overflows, so
    # both columns meet their contract at wc t = 0.1 with no warning. At
    # wc t = 1, gamma' is 1e-24 of its integrand's size, below the rounding
    # of the panel sums: exit 6, with a finite estimate
    argv = ["gamma", "--model", "powerlaw", "--alpha", "1", "--s", "150",
            "--omega-c", "1", "--t", "0.1"]
    _, closed, _ = run(capsys, *argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, *argv, "--route", "quad")
        assert code == 0
        for got, want in zip(out.split("\n")[1].split(","), closed.split("\n")[1].split(",")):
            assert abs(float(got) - float(want)) <= 1e-9 * abs(float(want))
        code, out, err = run(capsys, *argv[:-1], "1", "--route", "quad")
    assert code == 6
    assert out == ""
    assert err.startswith("error: tolerance ") and "nan" not in err


def test_quad_route_on_generic_exit_2(capsys):
    code, _, err = run(capsys, "gamma", "--model", "powerlaw-dephasing",
                       "--alpha", "1", "--nu", "2", "--t", "1",
                       "--route", "quad")
    assert code == 2


LORENTZIAN = ["--model", "lorentzian", "--a", "1", "--g", "0.5"]


@pytest.mark.parametrize("argv", [
    ["gamma", *LORENTZIAN, "--t-grid", "1:2"],
    ["gamma", *LORENTZIAN, "--t-grid", "a:2:3"],
    ["gamma", *LORENTZIAN, "--t-grid", "1:2:3:cubic"],
    ["gamma", *LORENTZIAN, "--t", "1", "--temp", "high-t"],
    ["gamma", *LORENTZIAN, "--t", "1", "--temp", "hot"],
    ["gamma", *LORENTZIAN],
    ["ratio", *LORENTZIAN, "--n-grid", "0:3:4"],
    ["figure1", "--alpha", "1", "--n-max", "0", "--out", "unused.csv"],
    ["validate", "--trials", "0"],
    ["validate", "--trials", "-3"],
], ids=["grid-parts", "grid-number", "grid-spacing", "temp-no-beta", "temp-unknown",
        "no-time", "n-below-1", "n-max-0", "validate-no-trials", "validate-negative-trials"])
def test_usage_error_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gamma_time_and_grid_exclusive_exit_2(capsys):
    # one source of times: --t would silently drop the grid
    with pytest.raises(SystemExit) as info:
        main(["gamma", *LORENTZIAN, "--t", "1", "--t-grid", "1:2:2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --t" in captured.err


def test_unknown_model_exit_2(capsys):
    # argparse's choices reject the name before any model is built
    with pytest.raises(SystemExit) as info:
        main(["gamma", "--model", "drude", "--t", "1"])
    assert info.value.code == 2
    assert "invalid choice: 'drude'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--model", "ohmic", "--alpha", "1", "--omega-c", "1", "--t", "1e-170"],
    [*LORENTZIAN, "--t", "1e-80"],
    [*LORENTZIAN, "--t", "1e-300"],
    ["--model", "powerlaw", "--alpha", "1", "--s", "3", "--omega-c", "1e100", "--t", "1e-100"],
], ids=["ohmic", "lorentzian", "lorentzian-1e-300", "s3-omega-c-1e100"])
def test_quad_route_at_short_times(capsys, argv):
    code, out, err = run(capsys, "gamma", *argv, "--route", "quad")
    assert code == 0
    assert err == ""
    closed = run(capsys, "gamma", *argv)[1].splitlines()[1].split(",")
    t, gamma, dgamma = (float(v) for v in out.splitlines()[1].split(","))
    # the Ohmic closed form at T = 0 is twice the bath integral
    factor = 0.5 if "ohmic" in argv else 1.0
    assert gamma == pytest.approx(factor * float(closed[1]), rel=1e-9)
    assert dgamma == pytest.approx(factor * float(closed[2]), rel=1e-9)


def test_validate_deterministic_and_green(capsys):
    code, first, _ = run(capsys, "validate", "--seed", "3", "--trials", "3")
    assert code == 0
    assert "overall status=ok" in first
    code, second, _ = run(capsys, "validate", "--seed", "3", "--trials", "3")
    assert second == first


def test_validate_emits_no_runtime_warning(capsys):
    # the oracle's variance surface overflows to inf on purpose
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "validate", "--trials", "200")
    assert code == 0
    assert out.endswith("overall status=ok\n")
