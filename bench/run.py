"""Benchmark of the erx engine: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
One caller issues operations in sequence, each after the previous one
returns, for S seconds of timed wall time (at least the workload's minimum
operation count).  Every output is checked; the last line printed is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: operations per second, median
and 90th-percentile operation time (all three over the longest prefix of
whole input-schedule periods, see workloads.py), set-up time (import of
erx plus the median of five input set-ups) and peak resident memory.  The
program's memo tables grow with every operation, so peak memory is read
when the workload's minimum operation count is reached; that point has
the same inputs behind it on every run, however fast the machine is.

Timings are scaled to a reference machine speed.  On a shared 2-vCPU KVM
guest the speed of plain Python moved by +-13% between 10-second windows,
and identical operations took 1.5 to 3.3 s from one minute to the next;
longer runs did not average that out.  So a fixed integer loop (see
`calibrate`) is timed before and after every operation and set-up, and
each time is multiplied by CALIBRATION_REF_S over the loop's time around
it.  The unscaled figures are printed in the `#` line above the metrics.

--trace 1 runs the same operations untraced for half of S, then traced
for the other half, and reports per-layer metrics from spans taken around
erx's public functions (see tracing.py); the spans are written to
`bench/out/trace-<workload>-<seed>.tsv.gz`.

The interpreter's hash seed is pinned to the benchmark seed (the process
re-executes itself once to set it), so set iteration order, and with it
the search order and every call count, repeats for a seed.
"""
import os
import sys
import time


def calibrate() -> float:
    """Seconds taken by a fixed integer loop.  It allocates no container
    objects, so the program's heap and garbage collector leave it alone;
    it only follows how fast the machine runs Python right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


_CAL0 = calibrate()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# The calibration loop's time at the reference speed, about what a 2-vCPU
# Xeon KVM guest takes; reported timings are scaled to that speed.
CALIBRATION_REF_S = 0.010


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def pin_hash_seed(seed: int):
    want = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=want))


def import_program():
    """Import erx from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "erx", "__init__.py")):
        sys.exit(f"error: no program source at {SRC}/erx; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import erx
    if os.path.dirname(os.path.dirname(os.path.abspath(erx.__file__))) != SRC:
        sys.exit(f"error: imported erx from {erx.__file__}, not from {SRC}")
    import workloads
    return workloads


class Loop:
    """Closed-loop runner: timed calls, outputs checked outside the clock."""

    def __init__(self, wl, seed, state):
        self.wl, self.seed, self.state = wl, seed, state
        self.durations: list[float] = []
        self.scaled: list[float] = []
        self.calibrations: list[float] = []
        self.failed = 0
        self.rss_mb = None

    def run(self, seconds: float, min_ops: int, call=None):
        """Run operations until `seconds` of timed calls and `min_ops`
        operations are done; peak memory is read at the `min_ops`-th.

        A calibration before and after each operation gives the machine's
        speed around it; the operation's time scaled by that speed is kept
        beside the raw time."""
        call = call or self.wl.call
        cal_before = calibrate()
        while sum(self.durations) < seconds or len(self.durations) < min_ops:
            item = self.wl.item(self.state, self.seed, len(self.durations))
            t0 = time.perf_counter()
            try:
                result = call(item)
                error = False
            except Exception:
                result, error = None, True
                dt = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
            else:
                dt = time.perf_counter() - t0
            cal_after = calibrate()
            self.calibrations.append(cal_after)
            self.durations.append(dt)
            self.scaled.append(dt * 2 * CALIBRATION_REF_S / (cal_before + cal_after))
            cal_before = cal_after
            if error or not self.wl.check(item, result):
                self.failed += 1
            if len(self.durations) == min_ops:
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self

    def whole_periods(self, durations: list[float]) -> list[float]:
        """The longest prefix of `durations` that is a whole number of the
        workload's input-schedule periods (at least one period)."""
        period = self.wl.period
        return durations[:max(period, len(durations) // period * period)]

    def ops_per_s(self, durations: list[float]) -> float:
        timed = self.whole_periods(durations)
        return len(timed) / sum(timed)


def quantile(values, q: int) -> float:
    """The q-th decile, by the inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def timed_run(wl, args, workdir, import_s):
    setup_times, cals, state = [], [_CAL0], None
    for k in range(SETUP_REPEATS):
        sub = os.path.join(workdir, f"setup{k}")
        t0 = time.perf_counter()
        state = wl.setup(args.seed, sub)
        setup_times.append(time.perf_counter() - t0)
        cals.append(calibrate())
    setup_s = import_s + statistics.median(setup_times)
    loop = Loop(wl, args.seed, state).run(args.seconds, wl.min_ops)
    ms = [1e3 * d for d in loop.whole_periods(loop.scaled)]
    metrics = {
        "ops_per_s": (loop.ops_per_s(loop.scaled), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (quantile(ms, 9), "ms"),
        "setup_s": (setup_s * CALIBRATION_REF_S / statistics.median(cals), "s"),
        "peak_rss_mb": (loop.rss_mb, "MB"),
    }
    raw_ms = [1e3 * d for d in loop.whole_periods(loop.durations)]
    unscaled = {
        "raw_ops_per_s": loop.ops_per_s(loop.durations),
        "raw_op_p50_ms": statistics.median(raw_ms),
        "raw_op_p90_ms": quantile(raw_ms, 9),
        "raw_setup_s": setup_s,
    }
    return loop, metrics, unscaled


def traced_run(wl, args, workdir):
    import tracing

    untraced = Loop(wl, args.seed, wl.setup(args.seed, os.path.join(workdir, "untraced")))
    untraced.run(args.seconds / 2, wl.trace_ops)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = tracer.run(tracing.SETUP, wl.setup, args.seed, os.path.join(workdir, "traced"))
        loop = Loop(wl, args.seed, state).run(
            args.seconds / 2, wl.trace_ops, call=lambda item: tracer.run(tracing.OP, wl.call, item))
    finally:
        tracer.uninstall()
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{wl.name}-{args.seed}.tsv.gz"))

    metrics = {name: (value, unit_of(name))
               for name, value in tracing.layer_metrics(tracer.records, wl.trace_ops).items()}
    # Traced over untraced speed, on the first `trace_ops` operations, which
    # both phases run on every machine.
    k = wl.trace_ops
    metrics["trace.overhead"] = (sum(untraced.scaled[:k]) / sum(loop.scaled[:k]), "ratio")
    loop.failed += untraced.failed
    loop.durations += untraced.durations
    loop.calibrations += untraced.calibrations
    return loop, metrics, {}


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_us_per_call", "us"),
                         ("_reuse", "ratio"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    args = parse_args(sys.argv[1:])
    pin_hash_seed(args.seed)
    workloads = import_program()
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(BENCH_DIR, "work", f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            loop, metrics, unscaled = traced_run(wl, args, workdir)
        else:
            loop, metrics, unscaled = timed_run(wl, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.durations)
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "operations": attempted, "timed_s": round(sum(loop.durations), 3),
        "failed_ops": loop.failed / attempted,
        "calibration_ms": 1e3 * statistics.median(loop.calibrations),
        **unscaled,
    }
    print("# " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_ops {loop.failed / attempted} share")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the program's memo tables object by
    # object takes seconds after a long run and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    main()
