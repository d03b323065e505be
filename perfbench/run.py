"""Benchmark of the convexcodes library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs as one client on one thread in a closed loop: the
next op starts when the previous one has finished.  A round runs every
op kind of the workload once, on inputs drawn for that round; a cycle
is a fixed number of rounds.  The run repeats whole cycles until the
ops have taken --seconds and at least MIN_OPS ops have run, so every op
kind and every input weighs the same in the percentiles.  Answers are
checked outside the timed region.  The last line of stdout is one JSON object; with
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1            # README.md names the held-out seed
OP_CAP_S = 20               # an op running longer is stopped and failed
MIN_OPS = 100               # >= 10 samples beyond the 90th percentile
WALL_LIMIT_S = 120          # start no new round after this much wall time
SETUP_REPEATS = 5
BENCH_MODULES = ("workloads", "gen", "check")
WORKLOADS = ("decide", "certify", "realize", "enumerate")

END_TO_END = (
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("units_per_s", "units/s"), ("doubling_ratio", "x"), ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
)


class OpTimeout(BaseException):
    """Raised by the alarm handler when an op exceeds OP_CAP_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def fresh_setup(workload: str, seed: int, workdir: str):
    """Import convexcodes and the benchmark modules anew and build one
    cycle of rounds.  Returns (cycle, seconds taken)."""
    start = time.perf_counter()
    for name in list(sys.modules):
        if name.split(".")[0] == "convexcodes" or name in BENCH_MODULES:
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    cycle = workloads.build(workload, seed, workdir)
    return cycle, time.perf_counter() - start


def timed_call(call):
    """(result, error name or None, seconds) of one op under the cap."""
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    start = end = time.perf_counter()
    try:
        try:
            result = call()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:    # RecursionError, MemoryError, library errors
        error = type(exc).__name__
    return result, error, end - start


class Phase:
    """Samples of one closed-loop phase."""

    def __init__(self):
        self.latency: dict[str, list[float]] = {}   # reference-speed s
        self.op_time = 0.0          # reference-speed s
        self.wall_time = 0.0        # as measured
        self.last_probe: float | None = None
        self.units = 0
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.wrong = 0
        self.out_bytes = 0
        self.rounds = 0

    def run_op(self, op, tracer=None) -> None:
        if self.last_probe is None:
            self.last_probe = speed.probe()
        if tracer is not None:
            tracer.begin_op(op.key)
        result, error, secs = timed_call(op.call)
        if tracer is not None:
            tracer.end_op()
        after = speed.probe()
        ref_secs = secs * speed.scale(self.last_probe, after)
        self.last_probe = after
        self.attempted += 1
        self.wall_time += secs
        self.op_time += ref_secs
        self.latency.setdefault(op.key, []).append(ref_secs)
        if error is None:
            try:
                op.verify(result)
            except Exception as exc:    # output the checker cannot accept
                error = "wrong answer (%s: %s)" % (type(exc).__name__, exc)
                self.wrong += 1
        if error is None:
            self.units += op.units
            if isinstance(result, tuple):
                self.out_bytes += len(result[1].encode())
        else:
            label = "%s: %s" % (op.key, error)
            self.failures[label] = self.failures.get(label, 0) + 1

    def run_round(self, ops) -> None:
        for op in ops:
            self.run_op(op)
        self.rounds += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def doubling_ratio(phase: Phase, ops) -> tuple[float, str]:
    """Largest top-rung / next-rung cost ratio over the ladder families.

    A family's cost at a rung is the summed latency of its ops there,
    over all rounds, so the ratio averages over every input drawn.
    """
    rungs: dict[str, dict[int, list[str]]] = {}
    for op in ops:
        if op.rung:
            rungs.setdefault(op.family, {}).setdefault(op.rung, []).append(op.key)
    best, where = 0.0, ""
    for family, by_rung in rungs.items():
        below, top = sorted(by_rung)[-2:]

        def cost(rung):
            return sum(sum(phase.latency[key]) for key in by_rung[rung])

        ratio = cost(top) / cost(below)
        if ratio > best:
            best, where = ratio, "%s %d/%d" % (family, top, below)
    return best, where


def end_to_end(phase: Phase, ops, setup_s: float) -> tuple[dict, list[str]]:
    lat = [x * 1e3 for xs in phase.latency.values() for x in xs]
    p90 = statistics.quantiles(lat, n=10)[8]
    ratio, where = doubling_ratio(phase, ops)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90,
        "units_per_s": phase.units / phase.op_time,
        "doubling_ratio": ratio,
        "ok_frac": 1 - phase.failed / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        "samples: %d ops in %d rounds, %d beyond p90" % (
            len(lat), phase.rounds, sum(1 for x in lat if x > p90)),
        "fail_frac: %.4f (%d of %d)" % (phase.failed / phase.attempted,
                                        phase.failed, phase.attempted),
        "doubling_ratio from %s" % where,
        "setup_s: median of %d setups" % SETUP_REPEATS,
        "times at reference speed; ops took %.3f s of wall time, %.3f s at"
        " reference speed" % (phase.wall_time, phase.op_time),
    ]
    return metrics, notes


def measure(cycle, seconds: float) -> Phase:
    """Whole cycles until the ops have taken `seconds` and MIN_OPS ops
    have run; a run that passes WALL_LIMIT_S stops after its round."""
    phase = Phase()
    start = time.perf_counter()
    while phase.op_time < seconds or phase.attempted < MIN_OPS:
        for ops in cycle:
            if time.perf_counter() - start > WALL_LIMIT_S:
                return phase
            phase.run_round(ops)
    return phase


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "convexcodes", "__init__.py")):
        print("error: no convexcodes sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed,
                                                       os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed.probe()
            cycle, secs = fresh_setup(args.workload, args.seed, workdir)
            setups.append(secs * speed.scale(before, speed.probe()))
        if not sys.modules["convexcodes"].__file__.startswith(SRC):
            print("error: convexcodes imported from outside %s" % SRC,
                  file=sys.stderr)
            return 2
        if args.trace:
            return traced(args, cycle)
        phase = measure(cycle, args.seconds)
        metrics, notes = end_to_end(phase, cycle[0], statistics.median(setups))
        return report(args, phase, dict(END_TO_END), metrics, notes)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)


def traced(args, cycle) -> int:
    """Each op runs untraced, then traced, so that warm-up and drift fall
    on both sides of the overhead ratio; rounds repeat until the
    untraced ops have taken half the budget."""
    tracer = spans.Tracer()
    plain, traced_phase = Phase(), Phase()
    while plain.rounds == 0 or plain.op_time < args.seconds / 2:
        for op in cycle[plain.rounds % len(cycle)]:
            plain.run_op(op)
            tracer.install()
            try:
                traced_phase.run_op(op, tracer)
            finally:
                tracer.uninstall()
        plain.rounds += 1
        traced_phase.rounds += 1
    overhead = traced_phase.op_time / plain.op_time - 1
    selfs = spans.self_times(tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, selfs, traced_phase.out_bytes,
                                  overhead)
    bad_ops = spans.self_time_mismatches(tracer.spans, selfs)
    path = os.path.join(HERE, "_work", "spans-%s-%d.jsonl" % (args.workload,
                                                               args.seed))
    tracer.write(path)
    notes = [
        "%d rounds, each op untraced then traced (%d traced ops, %d spans)" % (
            traced_phase.rounds, traced_phase.attempted, len(tracer.spans)),
        "self times sum to the op span's duration in %d of %d ops" % (
            traced_phase.attempted - bad_ops, traced_phase.attempted),
        "spans written to %s" % os.path.relpath(path, ROOT),
    ]
    for label, n in traced_phase.failures.items():
        plain.failures[label] = plain.failures.get(label, 0) + n
    plain.attempted += traced_phase.attempted
    plain.wrong += traced_phase.wrong + bad_ops
    return report(args, plain, dict(spans.LAYER_METRICS), metrics, notes)


def report(args, phase: Phase, units: dict, metrics: dict, notes) -> int:
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    for name, value in metrics.items():
        print("  %-34s %16.6g %s" % (name, value, units[name]))
    for note in notes:
        print("  # " + note)
    for label, n in sorted(phase.failures.items()):
        print("  # failed x%d  %s" % (n, label))
    print(json.dumps({
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
