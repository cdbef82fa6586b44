"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload oracle50 --seed 0 --seconds 30 --trace 0

Load model: a closed loop, one process and one thread.  Operations are
issued back to back, each after the previous one returned, in whole passes
over the workload's fixed operation list, until --seconds have elapsed (at
least MIN_PASSES passes).  With --trace 1 the run instead makes one plain
pass and one pass through the traced driver, and reports the per-layer
metrics.

Every operation's output is checked after the timed region (see verify.py).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when every
operation was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, SRC)
import tracing  # noqa: E402  (needs SRC on the path)
import verify  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
# op_tail_ms summarizes this many slowest operations
TAIL_OPS = 10
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 60
# about the best time of calibration_kernel on the machine the benchmark was
# defined on (2 vCPUs, CPython 3.11.7); times are scaled to that host speed
REFERENCE_KERNEL_S = 0.00015
# the kernel runs this many times in a row between operations, and once
# every SAMPLE_INTERVAL_S of wall time while an operation runs
BRACKET_RUNS = 5
SAMPLE_INTERVAL_S = 0.02
# the bare interpreter start that setup_s is measured against, and its time
# on that machine
BARE_START = "import sys; sys.stdout.write('ready\\n')"
REFERENCE_START_S = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail_latency(latencies):
    """Geometric mean of the TAIL_OPS largest latencies, and the percentile they lie beyond.

    A single order statistic would report whichever operation happens to
    sit at that rank for the seed; the mean over the slowest ten follows
    the whole tail.
    """
    top = sorted(latencies)[-TAIL_OPS:]
    value = math.exp(statistics.fmean(math.log(t) for t in top))
    return value, 100.0 * (len(latencies) - len(top)) / len(latencies)


def calibration_kernel():
    """Fixed pure-Python work (exact fractions, dict updates) of about 0.2 ms.

    Its time around and during an operation measures how fast the shared
    host is running then; the program under test never executes it.
    """
    acc = {}
    x = Fraction(1, 3)
    for i in range(30):
        y = x * Fraction(i + 1, 7) + Fraction(1, i + 2)
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + y
    return acc


def bracket_kernel():
    """Seconds per kernel run, over BRACKET_RUNS runs in a row."""
    t0 = time.perf_counter()
    for _ in range(BRACKET_RUNS):
        calibration_kernel()
    return (time.perf_counter() - t0) / BRACKET_RUNS


@contextlib.contextmanager
def kernel_samples():
    """Run the kernel on SIGALRM; yields the list of (start, seconds) the runs append to.

    The caller arms the timer only while an operation runs.
    """
    samples = []

    def sample(signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        samples.append((t0, time.perf_counter() - t0))

    previous = signal.signal(signal.SIGALRM, sample)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def issue(op, loaded):
    """Run one operation; its output, or a failure marker if it raised."""
    try:
        return workloads.run_op(op, loaded)
    except (Exception, SystemExit) as exc:
        traceback.print_exc()
        return (f"raised {type(exc).__name__}: {exc}", -1)


def run_pass(ops, loaded, calibrate=False):
    """Issue every operation once; (per-op seconds, per-op outputs, per-op speed scales).

    With calibrate, the kernel runs BRACKET_RUNS times before the first
    operation and after each one, and every SAMPLE_INTERVAL_S inside each
    operation.  The kernel runs inside an operation are taken off its time.
    An operation's scale is REFERENCE_KERNEL_S over the mean time of the
    kernel runs on either side of it and inside it, so a long operation is
    scaled by the host's speed throughout, not only at its ends.  Without
    calibrate the scale list is empty.
    """
    times, outputs, scales = [], [], []
    if not calibrate:
        for op in ops:
            t0 = time.perf_counter()
            outputs.append(issue(op, loaded))
            times.append(time.perf_counter() - t0)
        return times, outputs, scales
    with kernel_samples() as samples:
        before = bracket_kernel()
        for op in ops:
            samples.clear()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            t0 = time.perf_counter()
            outputs.append(issue(op, loaded))
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a signal still pending when the timer stopped may run its sample
            # after t1; only samples that started inside the operation count
            inside = [seconds for start, seconds in samples if t0 <= start < t1]
            times.append(t1 - t0 - sum(inside))
            after = bracket_kernel()
            kernel_s = ((before + after) * BRACKET_RUNS + sum(inside)) / (
                2 * BRACKET_RUNS + len(inside))
            scales.append(REFERENCE_KERNEL_S / kernel_s)
            before = after
    return times, outputs, scales


def timed_passes(ops, loaded, seconds):
    """Calibrated whole passes until `seconds` have elapsed (at least MIN_PASSES)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, loaded, calibrate=True))
    return passes


def spawn_seconds(argv):
    """Wall seconds from spawning argv until it prints its first line; checks it said ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up process {argv[1:]} exited with code {proc.returncode}")
    return elapsed


def setup_seconds(plan_path):
    """Median set-up time of fresh processes that import suturekup and read the inputs.

    A bare interpreter that only prints "ready" is started before the first
    probe and after each one.  Each probe's time is divided by the mean of
    the bare starts on either side of it and multiplied by
    REFERENCE_START_S, which scales it to the reference host's speed at
    starting processes.
    """
    probe = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC, plan_path]
    bare = [sys.executable, "-c", BARE_START]
    samples = []
    before = spawn_seconds(bare)
    for _ in range(SETUP_RUNS):
        elapsed = spawn_seconds(probe)
        after = spawn_seconds(bare)
        samples.append(elapsed * 2.0 * REFERENCE_START_S / (before + after))
        before = after
    return statistics.median(samples)


def check_outputs(workload, seed, ops, runs):
    """Failed executions, given every pass's outputs; prints each problem.

    The first pass's output of each operation is checked by verify.problems;
    every other execution must reproduce it byte for byte.
    """
    expected = verify.load_expected(workload) if seed == workloads.DEFAULT_SEED else None
    failed = 0
    for k, op in enumerate(ops):
        text, code = runs[0][k]
        try:
            found = verify.problems(op, text, code, expected)
        except Exception as exc:  # a check that cannot run counts as a failure
            traceback.print_exc()
            found = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in found:
            print(f"FAIL {workload} {op['id']}: {problem}", file=sys.stderr)
        for outputs in runs:
            failed += bool(found) or outputs[k] != (text, code)
    return failed


def end_to_end(ops, passes, setup_s):
    """End-to-end metrics of a timed run, and a note for the report.

    The shared host's speed swings within seconds, so every operation's
    time is multiplied by its speed scale (see run_pass).  An operation's
    latency is the median of its scaled times over the run's passes.
    """
    latency = [statistics.median(times[k] * scales[k] for times, _, scales in passes)
               for k in range(len(ops))]
    tail, q = tail_latency(latency)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(latency), "s"),
        "op_p50_ms": (1000.0 * statistics.median(latency), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    median_pass = statistics.median(sum(times) for times, _, _ in passes)
    median_scale = statistics.median(x for _, _, scales in passes for x in scales)
    note = (f"{len(passes)} passes, median pass {median_pass:.3f} s unscaled, "
            f"median speed scale {median_scale:.3f}; op_tail_ms is the geometric mean of "
            f"the {TAIL_OPS} of {len(ops)} latencies beyond p{q:.2f}")
    return metrics, note


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "suturekup", "__init__.py")):
        print(f"error: no suturekup sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        loaded = workloads.load_inputs(ops)
        if args.trace:
            times, outputs, _ = run_pass(ops, loaded)
            tracer, traced, traced_wall = tracing.traced_pass(ops, loaded)
            runs = [outputs, [(text, 0) for text in traced]]
            metrics = tracing.layer_metrics(tracer, traced_wall, sum(times))
            trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-s{args.seed}.json")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
            note = f"spans written to {os.path.relpath(trace_path, ROOT)}"
        else:
            setup_s = setup_seconds(plan_path)
            passes = timed_passes(ops, loaded, args.seconds)
            runs = [outputs for _, outputs, _ in passes]
            metrics, note = end_to_end(ops, passes, setup_s)
        failed = check_outputs(args.workload, args.seed, ops, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) * len(runs)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass, "
          f"closed loop, 1 process, 1 thread; {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(f"  {'fail_ratio':<28} {failed / attempted:.6g} ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
