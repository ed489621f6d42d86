"""Benchmark of the shsys certify-and-integrate pipeline.

One workload, as the benchmark contract asks:

    python3 perfbench/run.py --workload maxwell3d --seed 1 --seconds 20 --trace 0

All four workloads, every end-to-end metric by name and unit, then the
traced per-layer table; exits non-zero if any correctness check fails:

    python3 perfbench/run.py --all --seed 0 --seconds 20

Each workload runs in fresh worker processes (``worker.py``), single
threaded (BLAS and OpenMP pinned to one thread), as a closed loop with one
client: the next job starts when the previous one has returned.
``--trace 0`` measures the end-to-end metrics with tracing off and takes
set-up time from several fresh processes; ``--trace 1`` measures the
per-layer metrics in a separate traced run.  Times are at the reference
host speed (``pace.py``); the raw wall times are kept with them.  The last
line of standard output is the JSON result; the full record, the
environment and the spans of the last traced job go to ``.perfbench_out/``
in the checkout.

``--record-digests`` reruns every workload once on the default seed and
stores the digests that later runs must reproduce bit for bit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalog import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402

WORKLOAD_NAMES = ("maxwell3d", "euler-sh2d", "wave2d-cli", "burgers-cli")
DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 8          # fresh processes timing set-up, besides the main one
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def environment(numpy_version) -> dict:
    """What the numbers depend on.  Every state array is at most 1.5 MB,
    inside L2/L3, so any bytes-moved figure derived from array sizes is
    computed, not a measured bandwidth."""
    caches = {}
    try:
        libc = ctypes.CDLL(None)
        # glibc sysconf names: _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        for label, code in (("l2_per_core_bytes", 191), ("l3_bytes", 194)):
            value = libc.sysconf(code)
            caches[label] = value if value > 0 else None
    except (OSError, AttributeError):
        caches = {"l2_per_core_bytes": None, "l3_bytes": None}
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "caches": caches,
        "loop": "closed, one client, one job at a time",
    }


def _worker(workload, seed, seconds, mode) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--mode", mode, "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _recorded_digests() -> dict:
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as handle:
        return json.load(handle)


def _gate(workload, seed, raw) -> tuple:
    """(failed job count, reasons).  Beyond the per-job gate, every job of a
    run must reproduce one digest: the recorded one on the default seed,
    else the first job's."""
    jobs = raw["jobs"]
    expected = (_recorded_digests().get(workload) if seed == DEFAULT_SEED else None)
    expected = expected or jobs[0]["digest"]
    failed, reasons = 0, []
    for i, job in enumerate(jobs):
        reason = job["reason"]
        if job["ok"] and job["digest"] != expected:
            reason = f"digest {job['digest'][:12]} != expected {expected[:12]}"
        if not job["ok"] or reason:
            failed += 1
            reasons.append(f"job {i}: {reason}")
    layers = raw["layers"]
    for name in EXACT_COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            failed += 1
            reasons.append(f"count {name} differs between traced jobs: {sorted(values)}")
    return failed, reasons


def measure(workload, seed, seconds, trace) -> dict:
    """Run one workload and return the result record (metrics, gate, env)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        raw = _worker(workload, seed, seconds, "traced")
        probes = [raw]
    else:
        probes = [_worker(workload, seed, 0, "setup") for _ in range(SETUP_PROBES)]
        raw = _worker(workload, seed, seconds, "plain")
        probes.append(raw)
    setups = [p["setup_s"] for p in probes]
    failed, reasons = _gate(workload, seed, raw)
    plain = [j for j in raw["jobs"] if not j["traced"]]
    job_s = statistics.median(j["job_s"] for j in plain)
    wall_s = statistics.median(j["wall_s"] for j in plain)
    if trace:
        layers = raw["layers"]
        metrics = {}
        for name, unit, _, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(l["trace.job_s"] for l in layers) - job_s
            elif name == "job.wall_s":
                value = wall_s
            elif name == "config.parse_pct":
                value = 100.0 * raw["parse_s"] / raw["setup_wall_s"]
            elif name.endswith("_pct"):
                key = name[:-len("pct")] + "s"
                value = statistics.median(100.0 * l[key] / l["trace.job_s"]
                                          for l in layers)
            elif name in EXACT_COUNTS:
                value = layers[0][name]
            else:
                value = statistics.median(l[name] for l in layers)
            metrics[name] = {"value": value, "unit": unit}
    else:
        cell_steps = raw["jobs"][0]["cell_steps"]
        values = {
            "setup_s": statistics.median(setups),
            "job_s": job_s,
            "cell_steps_per_s": cell_steps / job_s,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    result = {"correct": failed == 0, "attempted": len(raw["jobs"]),
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "result": result, "failures": reasons,
              "job_s_samples": [j["job_s"] for j in plain],
              "wall_s_samples": [j["wall_s"] for j in plain],
              "setup_s_samples": setups,
              "setup_wall_s_samples": [p["setup_wall_s"] for p in probes],
              "digests": [j["digest"] for j in raw["jobs"]],
              "layers": raw["layers"], "missing_targets": raw["missing_targets"],
              "environment": environment(raw["numpy"])}
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return record


def _print_record(record):
    result = record["result"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{result['attempted']} jobs, {result['failed']} failed")
    for reason in record["failures"]:
        print(f"#   FAIL {reason}")
    if record["missing_targets"]:
        print(f"#   not traced (attribute missing): {record['missing_targets']}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:38s} {metric['value']:.6g} {metric['unit']}")
    print(f"# environment: {json.dumps(record['environment'], sort_keys=True)}")


def run_all(seed, seconds) -> int:
    records = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            records[workload, trace] = measure(workload, seed, seconds, trace)
            _print_record(records[workload, trace])
    print()
    header = f"{'end-to-end':24s}" + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES)
    print(header)
    for name, unit, _, _ in END_TO_END:
        cells = "".join(f"{records[w, 0]['result']['metrics'][name]['value']:14.5g}"
                        for w in WORKLOAD_NAMES)
        print(f"{name + ' [' + unit + ']':24s}{cells}")
    for label in ("attempted", "failed"):
        cells = "".join(f"{sum(records[w, t]['result'][label] for t in (0, 1)):14d}"
                        for w in WORKLOAD_NAMES)
        print(f"{'jobs ' + label:24s}{cells}")
    print()
    print(f"{'per layer (traced)':44s}" + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES)
          + "   moves")
    for name, unit, _, moves in PER_LAYER:
        cells = "".join(f"{records[w, 1]['result']['metrics'][name]['value']:14.5g}"
                        for w in WORKLOAD_NAMES)
        print(f"{name + ' [' + unit + ']':44s}{cells}   {moves}")
    ok = all(r["result"]["correct"] for r in records.values())
    print(f"\nall correctness checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def record_digests() -> int:
    digests = {}
    for workload in WORKLOAD_NAMES:
        raw = _worker(workload, DEFAULT_SEED, 0, "plain")
        first = raw["jobs"][0]["digest"]
        if not all(j["ok"] and j["digest"] == first for j in raw["jobs"]):
            raise BenchError(f"{workload}: jobs failed or disagree: {raw['jobs']}")
        digests[workload] = first
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(digests, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="shsys benchmark", epilog="see the module docstring")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "shsys", "__init__.py")):
        print(f"error: no shsys sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            return record_digests()
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("give --workload, --all or --record-digests")
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_record(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
