"""Artifact writers: snapshot/monitor CSVs, verdict tables, and the
append-only ndjson run log.

Floats are written with repr (the shortest form that parses back exactly)
so artifact trees diff cleanly and reruns are byte-identical; snapshots
spell each distinct double and each axis once, then join rows by block.
No timestamps or other run-varying data enter any artifact.
"""

from __future__ import annotations

import json
import os
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


def write_trace(out_dir, trace):
    """snapshots/NNNN.csv and monitors/<name>.csv under out_dir."""
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for i, snap in enumerate(trace.snapshots):
        write_snapshot_csv(os.path.join(snap_dir, f"{i:04d}.csv"), snap)
    if trace.monitors:
        mon_dir = os.path.join(out_dir, "monitors")
        os.makedirs(mon_dir, exist_ok=True)
        for name, series in trace.monitors.items():
            write_monitor_csv(os.path.join(mon_dir, f"{name}.csv"), series)
