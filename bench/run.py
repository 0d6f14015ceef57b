"""Benchmark of the ``nadescent`` command line, driven in-process.

    python3 bench/run.py --workload separate|integrate|cli-mix \
        --seed N --seconds S --trace 0|1

One client runs operations in a closed loop: each operation is one call of
``nadescent.cli.main(argv)`` on inputs made from the seed and written to a
work directory before the operation is timed.  Every output is checked
against values computed apart from the program (``checks.py``), outside
the timed region.

--trace 0 runs whole rounds until the operations have taken S seconds and
at least MIN_OPS have run, then reports the end-to-end metrics.  Their
times are scaled to a reference speed of the host, measured between
operations with a fixed kernel (``calibrate.py``), because the shared host's
own speed drifts by a third from run to run.
--trace 1 runs a fixed TRACE_ROUNDS rounds, so that call counts repeat
exactly for a seed, each operation first with spans recorded and then
without; it reports the per-layer metrics, in unscaled time, and the tracing
overhead.
``summary.py`` runs every workload, each in its own fresh process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Results and span traces are also
written under bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("separate", "integrate", "cli-mix")
MIN_OPS = 100  # op_p90_ms then has ten samples beyond it
WALL_LIMIT_S = 120  # no new round starts after this much wall time
SETUP_PROBES = 11
TRACE_ROUNDS = {"separate": 4, "integrate": 10, "cli-mix": 12}  # >= MIN_OPS ops each

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def invoke(main: Callable, argv: List[str]) -> Tuple[Any, str, str, int]:
    """(exit code, stdout, stderr, nanoseconds) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter_ns()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception as exc:  # a crash counts as a failed operation
        code = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter_ns() - start
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), elapsed


def setup_probe(argv: List[str]) -> float:
    """Seconds a fresh interpreter takes to import nadescent.cli and run argv."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), SRC, *argv],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, code = done.stdout.split()
    if code != "0":
        raise RuntimeError(f"set-up probe exited with {code}: {done.stderr}")
    return float(seconds)


class Run:
    """One benchmark run: operations, their latencies and check results."""

    def __init__(self, workload: str, seed: int, workdir: str):
        from nadescent import cli
        import workloads
        from checks import Checker, CheckError

        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.make_round = workloads.WORKLOADS[workload]
        self.rounds = 0
        self.check_errors = (CheckError, KeyError, TypeError, ValueError)
        self.latencies: List[int] = []
        self.failures: List[str] = []
        self.errors: List[str] = []
        self.speed: List[Tuple[int, float]] = []  # kernel samples, calibrate.py

        self.warmup = workloads.warmup_op(workload, workdir)
        code, out, err, _ = invoke(cli.main, self.warmup.argv)
        if code != 0:
            raise RuntimeError(f"warm-up operation exited with {code}: {err}")
        Checker(self.rerun).check(self.warmup, out)
        self.checker = Checker(self.rerun)

    def rerun(self, argv: List[str]) -> Tuple[Any, str]:
        code, out, _, _ = invoke(self.cli.main, argv)
        return code, out

    def next_round(self):
        ops = self.make_round(self.rng, self.rounds, self.workdir)
        self.rounds += 1
        return ops

    def record(self, op, code, out: str, err: str) -> bool:
        """Count a failed operation or check a successful one; True if checked."""
        if code != 0:
            self.failures.append(f"{' '.join(op.argv)}: exit {code}: {err.strip()}")
            return False
        try:
            self.checker.check(op, out)
        except self.check_errors as exc:
            self.errors.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
        return True

    def summary(self) -> Dict[str, Any]:
        return {
            "correct": not self.errors,
            "attempted": len(self.latencies),
            "failed": len(self.failures),
        }


def end_to_end(run: Run, seconds: float) -> Dict[str, Any]:
    """Timings scaled to the reference host's speed (``calibrate.py``)."""
    from calibrate import Speed, scaled

    budget_ns = seconds * 1e9
    speed = Speed()
    setup: List[float] = []

    def probe() -> None:
        setup.append(scaled(lambda: setup_probe(run.warmup.argv)))

    wall_start = time.monotonic()
    gc.collect()
    elapsed = 0
    while True:
        # Set-up probes are spread over the run, between rounds, so that
        # their median sees the same machine as the timed operations.
        measured = sum(run.latencies)
        while len(setup) < SETUP_PROBES and len(setup) * budget_ns <= SETUP_PROBES * measured:
            probe()
        for op in run.next_round():
            speed.tick(elapsed)
            code, out, err, elapsed = invoke(run.cli.main, op.argv)
            run.latencies.append(elapsed)
            run.record(op, code, out, err)
        enough = sum(run.latencies) >= budget_ns and len(run.latencies) >= MIN_OPS
        if enough or time.monotonic() - wall_start > WALL_LIMIT_S:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_PROBES:
        probe()
    run.speed = speed.samples
    factors = speed.factors()
    ms = [ns / 1e6 * f for ns, f in zip(run.latencies, factors)]
    values = {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_kib / 1024,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(run: Run, trace_path: str) -> Dict[str, Any]:
    from tracing import MAIN_SPAN, Tracer

    tracer = Tracer()
    traced_main = tracer.span(MAIN_SPAN, run.cli.main)
    traced_ns = plain_ns = 0
    for _ in range(TRACE_ROUNDS[run.workload]):
        for op in run.next_round():
            tracer.op = len(run.latencies)
            tracer.install()
            try:
                code, out, err, ns = invoke(traced_main, op.argv)
            finally:
                tracer.uninstall()
            plain_code, plain_out, _, plain = invoke(run.cli.main, op.argv)
            run.latencies.append(ns)
            traced_ns += ns
            plain_ns += plain
            if run.record(op, code, out, err) and (plain_code, plain_out) != (code, out):
                run.errors.append(f"{' '.join(op.argv)}: output changes under tracing")
    layers = tracer.layers()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"layers": layers, "spans": tracer.spans}, fh)

    metrics: Dict[str, Any] = {}
    for name, stats in layers.items():
        metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count"}
        if "self_ms" in stats:
            metrics[f"{name}.self_ms"] = {"value": stats["self_ms"], "unit": "ms"}
    disks, terms = run.checker.disks, run.checker.terms
    polygons = layers["padic_series.newton_polygon"]["calls"]
    integrals = layers["padic_series.antiderivative"]["calls"]
    metrics["padic_series.classes_per_root"] = {
        "value": polygons / disks if disks else 0.0, "unit": "classes/disk"}
    metrics["iterated_words.integrals_per_term"] = {
        "value": integrals / terms if terms else 0.0, "unit": "calls/term"}
    metrics["tracing.ops_per_s"] = {
        "value": len(run.latencies) / (traced_ns / 1e9), "unit": "ops/s"}
    metrics["tracing.overhead_pct"] = {
        "value": (traced_ns / plain_ns - 1) * 100, "unit": "%"}
    return metrics


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "nadescent", "cli.py")):
        print(f"error: no nadescent sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            metrics = per_layer(run, os.path.join(RESULTS, f"spans-{stem}.json"))
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {**run.summary(), "metrics": metrics}
    with open(os.path.join(RESULTS, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "rounds": run.rounds, "latencies_ns": run.latencies,
                   "kernel_samples": run.speed,
                   "failures": run.failures, "errors": run.errors}, fh, indent=1)
    for line in (run.failures + run.errors)[:5]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
