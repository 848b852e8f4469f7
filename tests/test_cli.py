import math
import warnings

import pytest

from ramsey_bounds.cli import main
from ramsey_bounds.dephasing import (
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
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
])
def test_nonfinite_input_rejected(capsys, build, argv):
    if build is not None:
        with pytest.raises(DomainError):
            build()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_closed_route_unsupported_exit_4(capsys):
    code, _, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1",
                       "--s", "2", "--omega-c", "1", "--temp", "beta=1",
                       "--t", "1", "--route", "closed")
    assert code == 4


def test_numerical_failure_exit_6(capsys):
    # one panel per oscillation period up to the cutoff exceeds the budget
    code, out, err = run(capsys, "gamma", "--model", "ohmic", "--alpha", "1",
                         "--omega-c", "1", "--t", "1000", "--route", "quad")
    assert code == 6
    assert out == ""
    assert err.startswith("error: seeding would need ")


def test_missed_quadrature_contract_exit_6(capsys, monkeypatch):
    # a tail cutoff that cannot move misses the contract at s = 4, t = 1
    monkeypatch.setattr(dephasing, "_tail_cutoff", lambda bound, omega_max, goal: omega_max)
    code, out, err = run(capsys, "gamma", "--model", "powerlaw", "--alpha", "1", "--s", "4",
                         "--omega-c", "1", "--t", "1", "--route", "quad")
    assert code == 6
    assert out == ""
    assert err.startswith("error: tolerance 1e-14 not met")


def test_numerical_failure_shows_value_and_error(capsys, monkeypatch):
    def not_met(*args, **kwargs):
        raise ToleranceNotMet("tolerance not met", value=0.25, error=1e-3)

    monkeypatch.setattr(dephasing, "integrate_semi_infinite", not_met)
    code, _, err = run(capsys, *OHMIC_T1, "--route", "quad")
    assert code == 6
    assert err == "error: tolerance not met (value=0.25, error=0.001)\n"


def test_quad_route_on_generic_exit_2(capsys):
    code, _, err = run(capsys, "gamma", "--model", "powerlaw-dephasing",
                       "--alpha", "1", "--nu", "2", "--t", "1",
                       "--route", "quad")
    assert code == 2


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
