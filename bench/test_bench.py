"""Checks of the benchmark itself (not part of the tier-1 suite).

    python -m pytest -q bench/test_bench.py     # about two minutes

They pin the properties the per-layer numbers rely on: every timed job
works on fresh inputs, counts repeat exactly, predicted zeros hold, the
tracer leaves the package as it found it, a second seed passes every gate,
the speed probe takes its own time out and restores the signal handler,
and the harness refuses to run without the package.
"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from speed import MIN_SAMPLES, REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload, inputs):
    """The per-layer counts (times and time shares left out) of one traced
    job."""
    with Tracer(run.layer_modules()) as tracer:
        failures = run.run_job(workload, inputs)[-1]
    assert failures == []
    return {k: v for k, v in tracer.metrics(0.0, 0.0).items()
            if not k.endswith(("_s", "_share"))}


def setup(name, seed=0):
    run.fresh_package()
    return WORKLOADS[name].setup(seed)


def test_every_iteration_rebuilds_its_labels():
    wide = WORKLOADS["wide36"]
    inputs = setup("wide36")
    first = traced_counts(wide, inputs)
    second = traced_counts(wide, inputs)
    assert first["constructions.builds"] == second["constructions.builds"] > 0
    assert first["omega.simple_calls"] == second["omega.simple_calls"] > 0
    assert first == second


def test_counts_repeat_and_predicted_zeros_hold():
    envelope = WORKLOADS["envelope"]
    first = traced_counts(envelope, setup("envelope"))
    again = traced_counts(envelope, setup("envelope"))
    assert first == again
    for name in envelope.expect_zero:
        assert first[name] == 0, name
    assert first["triples.envelopes"] == 46


def test_tracer_restores_every_binding():
    modules = run.layer_modules()
    classify, omega = modules["classify"], modules["omega"]
    before = (classify.is_simple, omega.OmegaAlgebra.apply,
              modules["scalars"].Scalar.__mul__)
    with Tracer(modules):
        assert classify.is_simple is not before[0]
        assert classify.is_simple is omega.is_simple
    assert (classify.is_simple, omega.OmegaAlgebra.apply,
            modules["scalars"].Scalar.__mul__) == before


def test_speed_probe_takes_its_time_out_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        deadline = time.process_time() + 0.5
        while time.process_time() < deadline:
            pass
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= MIN_SAMPLES
    assert 0 < probe.spent_s < 0.5
    timing = run.Timing(1.0, 1.0, probe)
    assert timing.wall == timing.cpu == 1.0 - probe.spent_s
    assert timing.wall_ref == pytest.approx(
        timing.wall * REFERENCE_S / statistics.fmean(probe.samples))


@pytest.mark.parametrize("seed", [1, 2])
def test_second_seed_passes_every_gate(seed):
    envelope = WORKLOADS["envelope"]
    *_, attempted, failures = run.run_job(envelope, setup("envelope", seed))
    assert failures == [] and attempted > 0


def test_refuses_to_run_without_the_package(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        command + ["--workload", "envelope", "--seed", "0", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
