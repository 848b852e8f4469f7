"""Command-line frontend.

Subcommands evaluate the decoherence function (``gamma``), optimize the
interrogation time (``optimize``), sweep the resolution ratio over particle
number (``ratio``), dump the Ohmic ratio curve (``figure1``), and run the
oracle cross-checks (``validate``). Output is plot-ready CSV or JSON with
17-significant-digit round-trip floats; identical invocations produce
byte-identical output.

Times and frequencies are quoted in units where the bath cutoff is 1 unless
stated otherwise on the flags.

Exit codes: 0 ok, 1 validation failure, 2 bad arguments, 3 boundary-limited
optimum, 5 file I/O error, 6 numerical failure (a quadrature or an iterative
solver did not reach its tolerance; the message shows the last value and
error estimate when there is one). Code 4 (no closed form) is retired.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .dephasing import (
    BathSpec,
    ClosedForm,
    DephasingModel,
    FiniteBeta,
    GenericPowerLawDephasing,
    HighTemperatureOhmic,
    Lorentzian,
    PowerLawExpCutoff,
    Quadrature,
    ZeroTemperature,
    gamma_quadrature,
)
from .errors import (
    DomainError,
    MaxIterations,
    NoSpectralDensity,
    RamseyBoundsError,
    ToleranceNotMet,
)
from .metrology import ProbeSpec, ohmic_exact_ratio, optimal_resolution, ratio_r
from .oracle import (
    brute_force_optimum,
    gamma_consistency_draws,
    reference_gamma,
    scenario_draws,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_BOUNDARY = 3
EXIT_IO = 5
EXIT_NUMERICAL = 6


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    """17-significant-digit float rendering; round-trip exact."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _json_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return _fmt(x) if math.isfinite(x) else "null"
    return '"' + str(x) + '"'


def _csv_line(row) -> str:
    """The %-format of one CSV line for values of the types in ``row``; it
    prints what joining ``_fmt`` of each value prints, given bools as the
    strings true and false."""
    specs = []
    for _, v in row:
        if isinstance(v, (bool, str)):
            specs.append("%s")
        elif isinstance(v, (int, np.integer)):
            specs.append("%d")
        else:
            specs.append("%.17g")
    return ",".join(specs) + "\n"


def _emit_rows(rows, fmt: str, stream) -> None:
    """rows: list of (key, value) pair lists with a common key order, and in
    each column one type."""
    if not rows:
        return
    if fmt == "csv":
        stream.write(",".join(k for k, _ in rows[0]) + "\n")
        line = _csv_line(rows[0])
        bools = [i for i, (_, v) in enumerate(rows[0]) if isinstance(v, bool)]
        out = []
        for row in rows:
            values = [v for _, v in row]
            for i in bools:
                values[i] = "true" if values[i] else "false"
            out.append(line % tuple(values))
        stream.write("".join(out))
    else:
        for row in rows:
            stream.write("{" + ", ".join(
                f'"{k}": {_json_value(v)}' for k, v in row) + "}\n")


def _parse_grid(text: str, kind: str):
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(f"--{kind} expects min:max:points[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--{kind}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "lin"
    if spacing not in ("lin", "log"):
        raise UsageError(f"--{kind}: spacing must be 'lin' or 'log'")
    if (count < 1 or not -math.inf < lo <= hi < math.inf
            or (spacing == "log" and lo <= 0.0)):
        raise UsageError(f"--{kind}: bad range {text}")
    if spacing == "log":
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_temperature(text: str):
    if text == "zero":
        return ZeroTemperature()
    if text == "high-t":
        raise UsageError("--temp high-t needs a beta: use high-t=<value>")
    if text.startswith("beta="):
        return FiniteBeta(float(text[5:]))
    if text.startswith("high-t="):
        return HighTemperatureOhmic(float(text[7:]))
    raise UsageError(f"unknown --temp {text!r} (zero | beta=<v> | high-t=<v>)")


def _need(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise UsageError(f"--model {args.model} requires " +
                         ", ".join("--" + n for n in missing))


def _build_model(args) -> DephasingModel:
    temp = _parse_temperature(args.temp)
    if args.model == "powerlaw":
        _need(args, ["alpha", "s", "omega-c"])
        spec = PowerLawExpCutoff(args.alpha, args.s, args.omega_c)
    elif args.model == "ohmic":
        _need(args, ["alpha", "omega-c"])
        spec = PowerLawExpCutoff(args.alpha, 1.0, args.omega_c)
    elif args.model == "lorentzian":
        _need(args, ["a", "g"])
        spec = Lorentzian(args.a, args.g)
    else:  # powerlaw-dephasing; argparse's choices reject any other name
        _need(args, ["alpha", "nu"])
        spec = GenericPowerLawDephasing(args.alpha, args.nu)
    route = ClosedForm() if args.route == "closed" else Quadrature()
    return DephasingModel(BathSpec(spec, temp), route)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   choices=["powerlaw", "ohmic", "lorentzian", "powerlaw-dephasing"])
    p.add_argument("--alpha", type=float, help="coupling (powerlaw families)")
    p.add_argument("--s", type=float, help="bath exponent (powerlaw)")
    p.add_argument("--omega-c", type=float, help="cutoff frequency")
    p.add_argument("--a", type=float, help="Lorentzian coupling")
    p.add_argument("--g", type=float, help="Lorentzian width (> 0)")
    p.add_argument("--nu", type=float, help="exponent of gamma = alpha t^nu")
    p.add_argument("--temp", default="zero",
                   help="zero | beta=<v> | high-t=<v> (default zero)")
    p.add_argument("--route", default="closed", choices=["closed", "quad"])
    p.add_argument("--format", default="csv", choices=["csv", "json"])


def cmd_gamma(args) -> int:
    deph = _build_model(args)
    if args.t is None and args.t_grid is None:
        raise UsageError("gamma needs --t or --t-grid")
    ts = np.array([args.t]) if args.t is not None else _parse_grid(args.t_grid, "t-grid")
    rows = [[("t", t), ("gamma", g), ("dgamma_dt", dg)] for t, g, dg in
            zip(ts.tolist(), deph.gamma(ts).tolist(), deph.dgamma_dt(ts).tolist())]
    _emit_rows(rows, args.format, sys.stdout)
    return EXIT_OK


def cmd_optimize(args) -> int:
    deph = _build_model(args)
    probe = ProbeSpec(args.n, args.total_time, args.strategy)
    res = optimal_resolution(deph, probe)
    row = [("t_opt", res.t_opt), ("delta_omega_sq", res.delta_omega_sq),
           ("finite", res.finite),
           ("boundary_limited", res.boundary_limited)]
    _emit_rows([row], args.format, sys.stdout)
    return EXIT_BOUNDARY if res.boundary_limited else EXIT_OK


def cmd_ratio(args) -> int:
    deph = _build_model(args)
    ns = sorted({int(round(v)) for v in _parse_grid(args.n_grid, "n-grid")})
    if any(n < 1 for n in ns):
        raise UsageError("--n-grid values must be >= 1")
    if ns[-1] > np.iinfo(np.int64).max:
        raise UsageError("--n-grid values must be below 2^63")

    res = ratio_r(deph, np.array(ns))
    rows = []
    for n, r, t_u, t_e in zip(ns, res.r.tolist(), res.t_u.tolist(), res.t_e.tolist()):
        status = "no-finite-optimum" if math.isnan(r) else "ok"
        rows.append([("n", n), ("r", r), ("t_u", t_u), ("t_e", t_e),
                     ("sqrt_n", math.sqrt(n)), ("n_quarter", n ** 0.25),
                     ("status", status)])
    _emit_rows(rows, args.format, sys.stdout)
    return EXIT_BOUNDARY if np.isnan(res.r).any() else EXIT_OK


def cmd_figure1(args) -> int:
    if args.alpha is None or args.alpha <= 0.5:
        raise UsageError("figure1 needs --alpha > 0.5 (Ohmic optimum condition)")
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    deph = DephasingModel(BathSpec(PowerLawExpCutoff(args.alpha, 1.0, 1.0)))
    ns = range(1, args.n_max + 1)
    r_pipeline = ratio_r(deph, np.array(ns)).r.tolist()
    rows = [[("n", n), ("r_exact", ohmic_exact_ratio(args.alpha, n)),
             ("r_pipeline", r), ("sqrt_n", math.sqrt(n)), ("markov", 1.0)]
            for n, r in zip(ns, r_pipeline)]
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _emit_rows(rows, "csv", fh)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    ok = True
    lines = []

    # optimizer vs brute-force grid search
    max_t_dev = 0.0
    max_var_dev = 0.0
    for deph, probe in scenario_draws(rng, args.trials):
        ana = optimal_resolution(deph, probe)
        ora = brute_force_optimum(deph, probe)
        max_t_dev = max(max_t_dev, abs(ora.t_opt - ana.t_opt) / ana.t_opt)
        max_var_dev = max(max_var_dev,
                          abs(ora.delta_omega_sq - ana.delta_omega_sq)
                          / ana.delta_omega_sq)
    good = max_t_dev <= 1e-4 and max_var_dev <= 1e-4
    ok &= good
    lines.append(f"optimum_check trials={args.trials} max_t_dev={_fmt(max_t_dev)}"
                 f" max_var_dev={_fmt(max_var_dev)} tol=1e-4"
                 f" status={'ok' if good else 'FAIL'}")

    # adaptive quadrature vs the closed-form reference
    max_gamma_dev = 0.0
    for bath, t in gamma_consistency_draws(rng, args.trials):
        ref = reference_gamma(bath, t)
        val = gamma_quadrature(bath, t)[0]
        max_gamma_dev = max(max_gamma_dev, abs(val - ref) / abs(ref))
    good = max_gamma_dev <= 1e-8
    ok &= good
    lines.append(f"gamma_check trials={args.trials} max_rel_dev={_fmt(max_gamma_dev)}"
                 f" tol=1e-8 status={'ok' if good else 'FAIL'}")

    # Markovian equivalence of product and GHZ probes
    max_r_dev = 0.0
    for _ in range(args.trials):
        g0 = 10.0 ** rng.uniform(-1.0, 1.0)
        n = int(rng.choice([2, 10, 100]))
        deph = DephasingModel(BathSpec(GenericPowerLawDephasing(g0, 1.0)))
        max_r_dev = max(max_r_dev, abs(ratio_r(deph, n).r - 1.0))
    good = max_r_dev <= 1e-6
    ok &= good
    lines.append(f"markov_check trials={args.trials} max_r_dev={_fmt(max_r_dev)}"
                 f" tol=1e-6 status={'ok' if good else 'FAIL'}")

    lines.append(f"overall status={'ok' if ok else 'FAIL'}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ramsey-bounds",
        description="Precision bounds for Ramsey frequency estimation under "
                    "non-Markovian dephasing")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="evaluate gamma(t) and its derivative")
    _add_model_flags(p)
    times = p.add_mutually_exclusive_group()
    times.add_argument("--t", type=float)
    times.add_argument("--t-grid", help="min:max:points[:log]")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("optimize", help="optimal interrogation time and variance")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--total-time", type=float, required=True)
    p.add_argument("--strategy", required=True, choices=["product", "ghz"])
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("ratio", help="sweep the resolution ratio r over n")
    _add_model_flags(p)
    p.add_argument("--n-grid", required=True, help="min:max:points[:log]")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("figure1",
                       help="Ohmic r(n): exact and pipeline columns to CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("validate", help="run oracle cross-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoSpectralDensity, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # a bath constant such as Gamma(s) or omega_c^2 out of the float range
        print(f"error: a value overflows a float ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except (ToleranceNotMet, MaxIterations) as exc:
        detail = ""
        if getattr(exc, "value", None) is not None:
            detail = f" (value={_fmt(exc.value)}, error={_fmt(exc.error)})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RamseyBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
