"""Benchmark harness for the atsbench workbench (stdlib only).

    python3 bench/run.py --workload census_z4 --seed 0 --seconds 36 --trace 0
    python3 bench/run.py                      # every workload, one by one

One run imports the package from this checkout's `src/` and sets the
workload up (fresh import, config parsing, input building) at least
SETUP_REPEATS times and for SETUP_SECONDS, reporting the median as
`setup_s`.  It repeats the timed job closed-loop, one job at a time, for
`--seconds` seconds, checking every job's answers.  Set-ups and untraced
jobs run under a SpeedProbe (bench/speed.py), and their times are reported
in reference seconds, so that the host's changing speed does not show as a
change of the program.

With `--trace 0` it reports the end-to-end metrics: median job wall and
CPU time, peak RSS and set-up time.  With `--trace 1` it also runs one
job under the layer tracer (bench/tracer.py) and reports the per-layer
metrics instead, plus the tracing overhead (traced minus untraced wall
time); the spans go to bench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit status: 0 when every
answer was right, 1 when a correctness gate failed, 2 when the package
cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from speed import SpeedProbe  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
LAYER_MODULES = ("scalars", "linalg", "omega", "constructions", "triples",
                 "classify")


def drop_package():
    """Forget every atsbench module and free them, so the next import runs
    from scratch and repeated set-ups do not pile up memory."""
    for name in [n for n in sys.modules
                 if n == "atsbench" or n.startswith("atsbench.")]:
        del sys.modules[name]
    gc.collect()


def fresh_package():
    """Import the package anew and make sure it is this checkout's."""
    drop_package()
    import atsbench
    if not Path(atsbench.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"atsbench imported from {atsbench.__file__}, "
                          f"not from {SRC}")


def set_up(workload, seed):
    """One probed set-up from a fresh import: (Timing, inputs)."""
    drop_package()
    with SpeedProbe() as probe:
        wall, cpu = time.perf_counter(), time.process_time()
        inputs = workload.setup(seed)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return Timing(wall, cpu, probe), inputs


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Timing:
    """The wall and CPU seconds of one timed body.  With a SpeedProbe
    (bench/speed.py) its kernel runs are taken out of `wall` and `cpu`, and
    `wall_ref`/`cpu_ref` are those in reference seconds; without one they
    equal `wall`/`cpu`."""

    def __init__(self, wall, cpu, probe=None):
        scale = 1.0
        if probe is not None:
            wall, cpu = wall - probe.spent_s, cpu - probe.spent_s
            scale = probe.scale()
        self.wall, self.cpu = wall, cpu
        self.wall_ref, self.cpu_ref = wall * scale, cpu * scale


def run_job(workload, inputs, probe=None):
    """One job: (Timing, peak RSS MB so far, attempted, failures).  The peak
    is read before the answers are checked."""
    with probe or contextlib.nullcontext():
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            output, error = workload.job(inputs), None
        except Exception:  # a crashing job is a failed operation, not a crash
            output, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    timing, rss = Timing(wall, cpu, probe), peak_rss_mb()
    if error:
        return timing, rss, 1, [error]
    attempted, failures = workload.check(inputs, output)
    return timing, rss, attempted, failures


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def run_workload(workload, seed, seconds, trace):
    setup, inputs = set_up(workload, seed)
    setups = [setup]
    jobs, attempted, failures, spent = [], 0, [], 0.0

    def job():
        nonlocal attempted, failures, spent
        start = time.perf_counter()
        timing, rss, n, bad = run_job(workload, inputs, SpeedProbe())
        spent += time.perf_counter() - start
        jobs.append((timing, rss))
        attempted += n
        failures += bad

    # The first job runs right after the first set-up, so the peak RSS it
    # reads covers one set-up and one job, however many follow.
    job()
    while (len(setups) < SETUP_REPEATS
           or sum(t.wall for t in setups) < SETUP_SECONDS):
        setup, inputs = set_up(workload, seed)
        setups.append(setup)
    # closed loop: the next job starts when the previous one is checked,
    # and only if it should end inside the window
    while spent + statistics.median(t.wall for t, _ in jobs) <= seconds:
        job()
    walls = [t.wall_ref for t, _ in jobs]
    wall_s, cpu_s = statistics.median(walls), statistics.median(
        t.cpu_ref for t, _ in jobs)
    q1, q3 = quartiles(walls)
    rss_mb = jobs[0][1]
    setup_s = statistics.median(t.wall_ref for t in setups)
    print(f"[{workload.name}] seed {seed}: {len(walls)} jobs in "
          f"{spent:.1f} s, {len(setups)} set-ups; in reference seconds "
          f"(as measured):")
    print(f"  wall_s      {wall_s:10.4f} s   (median; q1 {q1:.4f}, "
          f"q3 {q3:.4f}; n={len(walls)}) "
          f"({statistics.median(t.wall for t, _ in jobs):.4f})")
    print(f"  cpu_s       {cpu_s:10.4f} s   (median) "
          f"({statistics.median(t.cpu for t, _ in jobs):.4f})")
    print(f"  peak_rss_mb {rss_mb:10.1f} MB  (set-up and first job)")
    print(f"  setup_s     {setup_s:10.4f} s   (median of {len(setups)}) "
          f"({statistics.median(t.wall for t in setups):.4f})")
    print(f"  fail_frac   {len(failures) / attempted:10.4f}     "
          f"({len(failures)} of {attempted} operations failed)")
    metrics = {"wall_s": (wall_s, "s"), "cpu_s": (cpu_s, "s"),
               "peak_rss_mb": (rss_mb, "MB"), "setup_s": (setup_s, "s")}
    if trace:
        metrics, n = trace_job(workload, inputs, seed, statistics.median(
            t.wall for t, _ in jobs), failures)
        attempted += n
    for message in failures:
        print(f"  FAIL {message}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def layer_modules():
    """The traced layers of the currently imported package, by short name."""
    return {name: importlib.import_module(f"atsbench.{name}")
            for name in LAYER_MODULES}


def trace_job(workload, inputs, seed, untraced_wall_s, failures):
    """One traced job: (per-layer metrics, operations attempted).  Appends
    to `failures` when its answers or a predicted zero (or non-zero) layer
    count are wrong."""
    tracer = Tracer(layer_modules())
    with tracer:
        timing, _, attempted, bad = run_job(workload, inputs)
    wall = timing.wall
    failures += bad
    values = tracer.metrics(wall, untraced_wall_s)
    failures += [f"trace: {name} = {values[name]}, predicted 0"
                 for name in workload.expect_zero if values[name] != 0]
    failures += [f"trace: {name} = 0, predicted non-zero"
                 for name in workload.expect_nonzero if values[name] == 0]
    print(f"  traced job {wall:.3f} s, overhead "
          f"{values['trace.overhead_s']:.3f} s; self time by layer:")
    for layer, calls, self_s, share in tracer.layer_table(wall):
        print(f"    {layer:14s} {calls:10d} calls {self_s:9.3f} s "
              f"{100 * share:5.1f} %")
    print(f"    {'(untraced)':14s} {'':16s} {values['trace.other_s']:9.3f} s")
    print(f"    omega.simple inclusive "
          f"{100 * values['omega.simple_total_share']:.1f} % of wall")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    tracer.write_spans(out / f"spans-{workload.name}-seed{seed}.json")
    attempted += len(workload.expect_zero) + len(workload.expect_nonzero)
    return {name: (values[name], _unit(name)) for name in PER_LAYER}, attempted


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "fraction" if metric.endswith(("_frac", "_share")) else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so peak RSS is each workload's own
        status = 0
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], check=False)
            status = max(status, done.returncode)
        return status
    try:
        fresh_package()
    except ImportError as err:
        print(f"error: cannot import atsbench from {SRC}: {err}",
              file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
