"""Benchmark entry point for ramsey-bounds.

    python3 bench/run.py --workload sweep-closed --seed 1 --seconds 14 --trace 0

Runs one workload in this interpreter against the package under ``src/`` and
prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The full result,
with the traced spans, is written under ``bench/results/``.

The timed loop runs in chunks. Between chunks an untraced run times one CLI
command and one fresh-interpreter set-up, so that every metric samples the
whole run rather than one stretch of it; a traced run alternates untraced
and traced chunks, so that their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-closed", "quad-gamma", "validate")

CHUNKS = 9            # loop chunks; each is followed by one CLI and one set-up sample
CHILD_TIMEOUT_S = 60

# The host's speed drifts by a third over minutes, so times are reported at
# a fixed reference speed. Two probes that run no package code measure the
# speed of the moment: a calibration kernel timed between rounds, and a fresh
# `python -c "import numpy"` timed next to each CLI and set-up sample. Each
# errs on its own at times, so the speed index is the geometric mean of their
# mean times (the loop suffers the mean slowdown, spells included) over their
# values on the reference machine, and every time is divided by it.
CAL_EVERY_S = 0.25
CAL_REFERENCE_S = 0.010    # mean kernel time on the 2-core reference machine
FLOOR_REFERENCE_S = 0.2    # mean interpreter-plus-numpy start on the same machine
_CAL_SMALL = np.linspace(0.1, 1.0, 16)
_CAL_LARGE = np.linspace(0.1, 1.0, 4096)


def calibrate(samples):
    """Time the calibration kernel (small numpy calls, interpreter arithmetic
    and 4096-element arrays, like the package's own mix) into ``samples``."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        acc += float(np.sum(np.sin(_CAL_SMALL * i))) + math.sqrt(i)
    for i in range(80):
        acc += float(np.dot(np.cos(_CAL_LARGE * i), _CAL_LARGE))
    samples.append(time.perf_counter() - t0)


class Loop:
    """Whole rounds of a workload's operations, timed one operation at a time,
    with the calibration kernel timed between operations at most every
    CAL_EVERY_S, and always before the first operation of a chunk. Calibration
    time is left out of the loop's wall time."""

    def __init__(self, ops, cal):
        self.ops = ops
        self.cal = cal
        self.latencies = array.array("q")  # ns; 8 bytes each, so peak RSS stays the program's
        self.rounds = self.failed = 0
        self.wall_ns = 0
        self.first = self.last = None

    def run_for(self, seconds):
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        last_cal = 0
        while True:
            start = now = clock()
            cal_ns = 0
            results = []
            for op in self.ops:
                if now - last_cal >= CAL_EVERY_S * 1e9:
                    calibrate(self.cal)
                    last_cal = clock()
                    cal_ns += last_cal - now
                t0 = clock()
                try:
                    out = op.fn(*op.args)
                except Exception as exc:  # a failed operation is counted, not fatal
                    if self.failed < 3:
                        traceback.print_exc(file=sys.stderr)
                    self.failed += 1
                    out = exc
                now = clock()
                self.latencies.append(now - t0)
                results.append(out)
            self.rounds += 1
            self.first = self.first if self.first is not None else results
            self.last = results
            end = clock()
            self.wall_ns += end - start - cal_ns
            if end >= deadline:
                break

    def errors(self, workload):
        """Every check on the first round, plus any result the last round changed."""
        errors = []
        for i, (op, res) in enumerate(zip(self.ops, self.first)):
            if isinstance(res, Exception):
                continue
            errors += op.check(res)
            if repr(self.last[i]) != repr(res):
                errors.append(f"operation {i} gave {self.last[i]!r} after {res!r}")
        if not any(isinstance(res, Exception) for res in self.first):
            for cross in workload.cross_checks:
                errors += cross(self.first)
        return errors


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(args):
    """Seconds from starting a fresh interpreter until it has imported the
    package and built the workload's inputs."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-only",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up run exited {proc.returncode}")
    return elapsed


def time_floor():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def time_cli(argv):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ramsey_bounds.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, (proc.returncode, proc.stdout)


def percentile_ms(latencies, q):
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e-6


def run_untraced(args, workload):
    cal = []
    loop = Loop(workload.ops, cal)
    setup_s, cli_s, floor_s, outputs = [], [], [], set()
    for _ in range(CHUNKS):
        loop.run_for(args.seconds / CHUNKS)
        floor_s.append(time_floor())
        elapsed, output = time_cli(workload.cli_argv)
        cli_s.append(elapsed)
        outputs.add(output)
        setup_s.append(time_setup(args))
        floor_s.append(time_floor())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = loop.errors(workload) + workload.cli_check(*next(iter(outputs)))
    if len(outputs) != 1:
        errors.append("identical CLI invocations printed different output")
    raw = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(loop.latencies) / (loop.wall_ns * 1e-9),
        "op_p50_ms": percentile_ms(loop.latencies, 50),
        "op_p90_ms": percentile_ms(loop.latencies, 90),
        # a mean: over ten seeds it spread 0.05-0.08 where the median of the
        # same samples spread 0.08-0.10
        "cli_s": statistics.fmean(cli_s),
    }
    slowness = math.sqrt(statistics.fmean(cal) / CAL_REFERENCE_S
                         * statistics.fmean(floor_s) / FLOOR_REFERENCE_S)
    metrics = {name: (value * slowness if name == "ops_per_s" else value / slowness, unit)
               for (name, value), unit in zip(raw.items(), ("s", "1/s", "ms", "ms", "s"))}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    detail = {"unscaled": raw, "slowness": slowness, "calibration_s": cal,
              "floor_samples_s": floor_s, "setup_samples_s": setup_s,
              "cli_samples_s": cli_s, "rounds": loop.rounds}
    return [loop], errors, metrics, detail


def run_traced(args, workload):
    from spans import Tracer

    from ramsey_bounds import cli

    cal = []
    plain, traced = Loop(workload.ops, cal), Loop(workload.ops, cal)
    tracer = Tracer()
    for _ in range(CHUNKS):
        plain.run_for(args.seconds / (2 * CHUNKS))
        with tracer.recording():
            traced.run_for(args.seconds / (2 * CHUNKS))
    cli_tracer = Tracer(scope=("cli.",))
    out = io.StringIO()
    with cli_tracer.recording(), contextlib.redirect_stdout(out):
        code = cli.main(workload.cli_argv)
    errors = (plain.errors(workload) + traced.errors(workload)
              + workload.cli_check(code, out.getvalue()))
    measured = {
        "cli.main.calls": cli_tracer.stats["cli.main.calls"],
        "cli.main.ms": cli_tracer.stats["cli.main.ms"],
        "cli.rows": float(len(out.getvalue().splitlines())),
        "trace.overhead_ms": 1e-6 * (traced.wall_ns / traced.rounds
                                     - plain.wall_ns / plain.rounds),
    }
    # every other per-layer metric is a tracer total per traced round; a name
    # the tracer does not record raises KeyError
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (measured[m["name"]] if m["name"] in measured
                           else tracer.stats[m["name"]] / traced.rounds, m["unit"])
               for m in per_layer}
    detail = {"rounds": [plain.rounds, traced.rounds], "spans": tracer.spans}
    return [plain, traced], errors, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs, print 'ready'")
    args = ap.parse_args(argv)
    if not (SRC / "ramsey_bounds" / "__init__.py").is_file():
        print(f"error: no ramsey_bounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    runner = run_traced if args.trace else run_untraced
    loops, errors, metrics, detail = runner(args, workload)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(len(loop.latencies) for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(result, ops_per_round=len(workload.ops),
                                    errors=errors[:200], **detail)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
