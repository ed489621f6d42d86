"""One workload in one fresh process: set-up, then a closed loop of jobs.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,plain,traced} --out-dir DIR

``setup`` times set-up only.  ``plain`` runs jobs with tracing off.
``traced`` alternates plain and traced jobs, so the difference between
them is the tracing overhead.  Set-up and every job are timed by
``pace.SpeedMeter``: wall time and time at the reference host speed.  The
last line of standard output is one JSON object with the raw samples;
``run.py`` turns it into metrics.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from pace import SpeedMeter  # noqa: E402  (standard library only)

SETUP_METER = SpeedMeter()
SETUP_METER.start()  # set-up counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shsys", "__init__.py")):
        print(f"error: no shsys package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np
    import shsys
    from tracer import Recorder, WorkMeter
    from workloads import WORKLOADS, fresh_dir, snapshot_bytes

    if os.path.dirname(os.path.abspath(shsys.__file__)) != os.path.join(SRC, "shsys"):
        print(f"error: imported shsys from {shsys.__file__}, not {SRC}", file=sys.stderr)
        return 2
    traced = args.mode == "traced"
    rec = Recorder() if traced else None
    if traced:
        rec.install()
    workload = WORKLOADS[args.workload].build(shsys, args.seed)
    setup_wall_s, setup_s = SETUP_METER.stop()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    parse_s = 0.0
    if traced:
        parse_s = rec.self_times().get("config.parse_config", 0.0)
        rec.uninstall()
        rec.reset()
    meter = WorkMeter()
    meter.install()
    pace = SpeedMeter()

    work_dir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    jobs, layers = [], []
    loop_start = perf_counter()
    while True:
        trace_this = traced and len(jobs) % 2 == 1
        fresh_dir(work_dir)
        if trace_this:
            rec.reset()
            rec.install()
            call = rec.span("job", workload.job)
        else:
            call = workload.job
        result, error = None, None
        pace.start()
        try:
            result = call(work_dir)
        except Exception:  # a job that raises counts as failed, never retried
            error = traceback.format_exc(limit=3)
        wall_s, job_s = pace.stop()
        if trace_this:
            rec.uninstall()
        cell_steps = meter.take()
        if error is None:
            outcome = workload.gate(result, work_dir)
            ok, reason, digest = outcome.ok, outcome.reason, outcome.digest
        else:
            ok, reason, digest = False, error.strip().splitlines()[-1], ""
        jobs.append({"job_s": job_s, "wall_s": wall_s, "traced": trace_this, "ok": ok,
                     "reason": reason, "digest": digest, "cell_steps": cell_steps})
        if trace_this:  # layer times at the reference speed, like job_s
            layer = rec.job_metrics(cell_steps, snapshot_bytes(work_dir))
            layers.append({k: v * job_s / wall_s if k.endswith("_s") else v
                           for k, v in layer.items()})
        del result
        elapsed = perf_counter() - loop_start
        plain = [j for j in jobs if not j["traced"]]
        need = 2 if traced else 3  # at least this many samples of each kind
        enough = len(plain) >= need and (not traced or len(layers) >= need)
        if enough and elapsed + max(j["wall_s"] for j in jobs[-2:]) > args.seconds:
            break
    shutil.rmtree(work_dir)

    if traced and rec.names:
        rec.write(os.path.join(args.out_dir,
                               f"spans-{args.workload}-seed{args.seed}.jsonl"))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "parse_s": parse_s,
        "jobs": jobs,
        "layers": layers,
        "peak_rss_mb": peak_kib / 1024.0,
        "missing_targets": rec.missing if traced else [],
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
