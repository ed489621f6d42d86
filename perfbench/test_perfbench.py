"""Checks of the benchmark itself; they run real jobs, about a minute:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pace  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from catalog import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        entry[:3] for entry in PER_LAYER]


def test_speed_meter_counts_kernel_work_at_reference_speed():
    # work made of the kernel itself reads as n kernels, whatever the host speed
    n = 2000
    meter = pace.SpeedMeter()
    meter.start()
    for _ in range(n):
        pace.kernel()
    wall_s, ref_s = meter.stop()
    assert wall_s > 0.0
    assert ref_s == pytest.approx(n * pace.KERNEL_REF_S, rel=0.15)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_span_feeds_exactly_one_self_time():
    mapped = [span for spans in tracer.LAYERS.values() for span in spans]
    assert len(mapped) == len(set(mapped))
    job_spans = set(tracer.SPAN_TARGETS) - {"config.parse_config"}
    assert set(mapped) == job_spans | {tracer.RHS_SPAN, tracer.ROOT}


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_jobs_repeat_exactly(workload):
    record = bench.measure(workload, bench.DEFAULT_SEED, 0.0, 1)
    assert record["result"]["correct"], record["failures"]
    assert record["missing_targets"] == []
    layers = record["layers"]
    assert len(layers) >= 2
    for name in EXACT_COUNTS:
        assert len({layer[name] for layer in layers}) == 1, name
    for layer in layers:
        total = sum(layer[f"{name}_s"] for name in tracer.LAYERS)
        assert total == pytest.approx(layer["trace.job_s"], rel=1e-9, abs=1e-9)
    # plain and traced jobs of one seed give one digest, the recorded one
    assert set(record["digests"]) == {bench._recorded_digests()[workload]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maxwell3d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
