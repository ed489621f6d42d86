"""Artifact writers: snapshot/monitor CSVs, verdict tables, and the
append-only ndjson run log.

Floats are written with repr (the shortest form that parses back exactly)
so artifact trees diff cleanly and reruns are byte-identical; snapshots
spell each distinct double and each axis once, then join rows by block.
No timestamps or other run-varying data enter any artifact.

``write_trace`` writes a trace's snapshot files on up to every CPU the
process may run on (``os.sched_getaffinity``), one worker per
WORKER_VALUES values at most: snapshot i goes to worker i mod w, worker 0
is the calling process and the others are forked children.  Each file's
bytes are the same whichever process writes it.  Where the platform has
no ``sched_getaffinity`` nothing is forked.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridField


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_BLOCK = 1024  # snapshot rows written per block; bounds the text in memory


@lru_cache(maxsize=32, typed=True)  # typed: int and float keys spell apart
def _axis_text(origin, h, length: int) -> tuple:
    """repr of each cell center of one axis, computed as GridField.centers;
    cached, so a run's snapshots format their coordinates once."""
    return tuple(map(repr, (origin + h * np.arange(length)).tolist()))


def write_snapshot_csv(path, field: GridField):
    """One row per cell, lexicographic: coordinate columns then u^1..u^m.

    Each distinct double is formatted once: values are keyed by bit pattern
    (so -0.0 and 0.0, and NaNs with different bits, stay apart).  A block
    of rows is one object array of cells and separators in file order,
    gathered by index and written by one join: no Python runs per row."""
    n, m = field.n, field.m
    axes = [np.array(t, dtype=object) for t in map(_axis_text, field.origin, field.h, field.shape)]
    bits = np.ascontiguousarray(field.data, dtype=float).view(np.int64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, patterns.view(float).tolist())), dtype=object)
    inverse = inverse.reshape(-1, m)
    header = [f"x{j + 1}" for j in range(n)] + [f"u{a + 1}" for a in range(m)]
    cells = np.full((min(_BLOCK, len(inverse)), 2 * (n + m)), ",", dtype=object)
    cells[:, -1] = "\n"
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, len(inverse), _BLOCK):
            block = cells[:len(inverse) - start]
            for j, idx in enumerate(np.unravel_index(start + np.arange(len(block)), field.shape)):
                block[:, 2 * j] = axes[j][idx]
            block[:, 2 * n::2] = text[inverse[start:start + _BLOCK]]
            handle.write("".join(block.ravel().tolist()))


def write_monitor_csv(path, series, header=("t", "value")):
    """Rows of (t, value) pairs under a two-column header, as floats."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines([f"{float(t)!r},{float(value)!r}\n" for t, value in series])


@dataclass(frozen=True)
class VerdictRow:
    name: str
    passed: bool
    value: float
    tolerance: object  # float or descriptive string


def write_verdicts_csv(path, rows):
    with open(path, "w", newline="") as handle:
        handle.write("name,pass,value,tolerance\n")
        for row in rows:
            handle.write(",".join([row.name, fmt(row.passed), fmt(row.value),
                                   fmt(row.tolerance)]) + "\n")


class RunLog:
    """Append-only ndjson event log; every line is a complete object, so a
    log from an aborted run still parses."""

    def __init__(self, path):
        self.path = path
        with open(self.path, "w"):
            pass

    def event(self, kind: str, **payload):
        record = {"event": kind}
        record.update(payload)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return str(value)


# Least snapshot values each writer process takes on, on average.  A fork
# costs the run more than its call: parent and child take copy-on-write
# faults on every page they write afterwards, the parent for the rest of
# the process.  Measured on whole `shsys run` jobs (2 vCPUs of an Intel
# Xeon, Python 3.11, numpy 2.4; three sweeps of 20-30 alternating pairs of
# 1 and 2 writers in one process), two writers shortened the median job by
# 8-26 % from 92k values a writer up (wave traces of 88^2 to 128^2 cells,
# a 2,000-cell Burgers trace of 140 snapshots), by 1-14 % at 62k-85k, and
# at 35k (a 2,000-cell Burgers trace of 35 snapshots) by -0.2 to 2.7 %, in
# only 60-63 % of the pairs.  The floor keeps that last case serial.
WORKER_VALUES = 65536


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, not a cgroup
    quota; 1 where the platform has no ``os.sched_getaffinity``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _workers(cpus: int, snapshots: int, values: int) -> int:
    """Processes that write a trace of ``snapshots`` files holding
    ``values`` values in all: at most one per CPU and per file, and at
    least WORKER_VALUES values each on average; always at least one."""
    return max(1, min(cpus, snapshots, values // WORKER_VALUES))


def _write_snapshots(jobs, workers: int):
    """Write each (path, field) of ``jobs``, job i by worker i mod
    ``workers``.  Worker 0 is this process; the others are children forked
    here, which leave through ``os._exit`` (0 once their share is written,
    1 on any exception), so no child returns into the caller.  Every child
    is waited for before this returns or raises.  After any failure (a
    child's, this process's, or a fork's) every job is written again here
    in file order, so the caller sees the error the serial writer raises.

    The fork is safe in a process with other threads (OpenBLAS starts
    some): a child runs only ``write_snapshot_csv``, which calls no BLAS
    and takes no lock another thread can hold."""
    children, ok = [], True
    try:
        for k in range(1, workers):
            # CPython >= 3.12 warns when a process with threads forks
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for path, field in jobs[k::workers]:
                        write_snapshot_csv(path, field)
                    status = 0
                finally:
                    os._exit(status)
            children.append(pid)
        for path, field in jobs[::workers]:
            write_snapshot_csv(path, field)
    except Exception:
        ok = False
    finally:
        for pid in children:
            ok = os.waitpid(pid, 0)[1] == 0 and ok
    if not ok:
        for path, field in jobs:
            write_snapshot_csv(path, field)


def _snapshot_name(i: int) -> str:
    return f"{i:04d}.csv"


VISCOUS_LIMIT_CSV = "viscous_limit.csv"  # the viscous_limit check's table

# (directory under out_dir, name test) of the files a run writes after
# reading its inputs, verdicts.csv aside
_RUN_FILES = (("snapshots", lambda name: name[:-4].isdecimal()
               and name == _snapshot_name(int(name[:-4]))),
              ("monitors", lambda name: name.endswith(".csv")),
              ("", lambda name: name == VISCOUS_LIMIT_CSV))


def remove_run_files(out_dir):
    """Delete the ``_RUN_FILES`` that an earlier run left under ``out_dir``,
    and a ``snapshots`` or ``monitors`` directory left empty."""
    for sub, named in _RUN_FILES:
        directory = os.path.join(out_dir, sub)
        if os.path.isdir(directory):
            with os.scandir(directory) as entries:
                for entry in entries:
                    if named(entry.name) and entry.is_file():
                        os.remove(entry.path)
            if sub and not os.listdir(directory):
                os.rmdir(directory)


def write_trace(out_dir, trace):
    """snapshots/NNNN.csv and monitors/<name>.csv under out_dir, written
    by ``_workers`` processes; nothing is deleted.  An earlier run's files
    in out_dir are the caller's to remove first (``remove_run_files``, as
    ``cli.execute`` does)."""
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    jobs = [(os.path.join(snap_dir, _snapshot_name(i)), snap)
            for i, snap in enumerate(trace.snapshots)]
    values = sum(snap.data.size for snap in trace.snapshots)
    _write_snapshots(jobs, _workers(_usable_cpus(), len(jobs), values))
    if trace.monitors:
        mon_dir = os.path.join(out_dir, "monitors")
        os.makedirs(mon_dir, exist_ok=True)
        for name, series in trace.monitors.items():
            write_monitor_csv(os.path.join(mon_dir, f"{name}.csv"), series)
