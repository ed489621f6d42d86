"""Spans and counters around calls into the ``shsys`` modules.

Wrappers are installed from outside the program: each target is a module
or class attribute, and every ``shsys`` module attribute that refers to
the same function (``lxf.shifted`` is ``grid.shifted``, ``cli.run_scheme``
is ``lxf.run``) is replaced too, so a call resolves to the wrapper no
matter which module it goes through.  ``uninstall`` puts the originals
back.

A span records (name, start, end, parent) in memory.  A span's self time
is its duration minus the time its child spans cover, so the self times
of one job add up to the job's root span exactly.  Per-cell callables
(system sources, ``MatrixField`` evaluations) get counters only, which
keeps the tracing overhead small.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "job"

# attributes that get a span; the span's name is the attribute's path.
# config.parse_config runs at set-up, before any job.
SPAN_TARGETS = (
    "lxf.run",
    "lxf.check_stability",
    "lxf.max_char_speed",
    "core.characteristic_speeds",
    "lxf.lxf_average",
    "grid.shifted",
    "grid.centered_diff",
    "lxf.lxf_step",
    "lxf.viscous_step",
    "grid.GridField.is_finite",
    "lxf._box_violation",
    "models.ConstraintMonitor.evaluate",
    "output.write_snapshot_csv",
    "output.write_trace",
    "output.write_monitor_csv",
    "output.write_verdicts_csv",
    "output.RunLog.__init__",
    "output.RunLog.event",
    "shocks.viscous_limit_compare",
    "shocks.riemann_scalar",
    "shocks.rh_speed",
    "shocks.rh_residual",
    "shocks.entropy_admissible",
    "entropy.hessian_symmetrizer",
    "entropy.entropy_pair_residual",
    "core.is_sh",
    "energy.energy",
    "cli.execute",
    "config.parse_config",
)

# the right-hand-side closures built by these get the span "lxf.rhs";
# sources of the systems they are built for get the counter below
RHS_BUILDERS = ("lxf.system_rhs", "lxf.law_rhs")
RHS_SPAN = "lxf.rhs"
SOURCE_COUNTER = "models.source_calls"
MATRIX_FIELD_COUNTER = "core.matrix_field_calls"

# layer -> the spans whose self time it sums; "<layer>_s" in job metrics
LAYERS = {
    "lxf.run_self": ("lxf.run",),
    "lxf.cfl": ("lxf.check_stability", "lxf.max_char_speed"),
    "core.char_speed": ("core.characteristic_speeds",),
    "lxf.rhs": (RHS_SPAN,),
    "lxf.average": ("lxf.lxf_average",),
    "grid.shifted": ("grid.shifted",),
    "grid.centered_diff": ("grid.centered_diff",),
    "lxf.step_self": ("lxf.lxf_step", "lxf.viscous_step"),
    "lxf.checks": ("grid.GridField.is_finite", "lxf._box_violation"),
    "models.monitor": ("models.ConstraintMonitor.evaluate",),
    "output.snapshot": ("output.write_snapshot_csv",),
    "output.write": ("output.write_trace", "output.write_monitor_csv",
                     "output.write_verdicts_csv", "output.RunLog.__init__",
                     "output.RunLog.event"),
    "shocks.viscous_limit_self": ("shocks.viscous_limit_compare",),
    "shocks.riemann": ("shocks.riemann_scalar",),
    "shocks.rh": ("shocks.rh_speed", "shocks.rh_residual",
                  "shocks.entropy_admissible"),
    "entropy.symmetrizer": ("entropy.hessian_symmetrizer",),
    "entropy.pair_residual": ("entropy.entropy_pair_residual",),
    "core.is_sh": ("core.is_sh",),
    "energy.energy": ("energy.energy",),
    "cli.execute_self": ("cli.execute",),
    "trace.unattributed": (ROOT,),
}

# per-layer call-count metric -> the spans it counts
CALL_COUNTS = {
    "lxf.steps": ("lxf.lxf_step", "lxf.viscous_step"),
    "lxf.rhs_calls": (RHS_SPAN,),
    "core.char_speed_calls": ("core.characteristic_speeds",),
    "grid.shifted_calls": ("grid.shifted",),
    "models.monitor_calls": ("models.ConstraintMonitor.evaluate",),
    "output.snapshots": ("output.write_snapshot_csv",),
}


def _resolve(path: str):
    """(owner, attribute) for a dotted path below ``shsys``."""
    parts = path.split(".")
    owner = importlib.import_module("shsys." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Replaces a function on its owner and on every ``shsys`` module that
    holds the same object; ``restore`` undoes every replacement."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def replace(self, path: str, make_wrapper) -> bool:
        try:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            if path not in self.missing:
                self.missing.append(path)
            return False
        wrapper = make_wrapper(original)
        holders = [(owner, attr)]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "shsys" or name.startswith("shsys.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    holders.append((module, key))
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, wrapper)
        return True

    def restore(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)


class WorkMeter:
    """Counts cells x time steps over every ``lxf.run`` call.

    It is the one wrapper that also stays on in untraced runs: one extra
    Python call per integration, a handful per job."""

    def __init__(self):
        self.cell_steps = 0
        self._patcher = Patcher()

    def install(self):
        def make(run):
            def metered(system, initial, *args, **kwargs):
                trace = run(system, initial, *args, **kwargs)
                cells = 1
                for size in initial.shape:
                    cells *= int(size)
                self.cell_steps += cells * int(trace.steps)
                return trace
            return metered

        if not self._patcher.replace("lxf.run", make):
            raise RuntimeError("shsys.lxf.run not found")

    def take(self) -> int:
        value, self.cell_steps = self.cell_steps, 0
        return value


class Recorder:
    """In-memory spans and counters for one job at a time."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.child = []
        self.stack = []
        self.counts = defaultdict(int)
        self._patcher = Patcher()

    @property
    def missing(self):
        return self._patcher.missing

    def reset(self):
        for seq in (self.names, self.starts, self.ends, self.parents, self.child):
            seq.clear()
        self.stack.clear()
        self.counts.clear()

    def span(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, child, stack = self.parents, self.child, self.stack

        def spanned(*args, **kwargs):
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            child.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                if parent >= 0:
                    child[parent] += end - start

        return spanned

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        # import every module first, so no module binds a wrapper by name
        # at import time and keeps it after uninstall
        for path in SPAN_TARGETS + RHS_BUILDERS:
            try:
                importlib.import_module("shsys." + path.split(".")[0])
            except ImportError:
                pass
        for path in SPAN_TARGETS:
            self._patcher.replace(path, lambda fn, path=path: self.span(path, fn))

        def make_rhs_builder(build):
            def traced_build(system, *args, **kwargs):
                source = getattr(system, "source", None)
                if source is not None and dataclasses.is_dataclass(system):
                    system = dataclasses.replace(
                        system, source=self.counter(SOURCE_COUNTER, source))
                return self.span(RHS_SPAN, build(system, *args, **kwargs))
            return traced_build

        for path in RHS_BUILDERS:
            self._patcher.replace(path, make_rhs_builder)
        self._patcher.replace("core.MatrixField.__call__",
                              lambda fn: self.counter(MATRIX_FIELD_COUNTER, fn))

    def uninstall(self):
        self._patcher.restore()

    def self_times(self) -> dict:
        by_span = defaultdict(float)
        for name, start, end, covered in zip(self.names, self.starts,
                                             self.ends, self.child):
            by_span[name] += (end - start) - covered
        return by_span

    def job_metrics(self, cell_steps: int, snapshot_bytes: int) -> dict:
        """Self time per layer, call counts and counters of the job whose
        root span is the first one recorded since ``reset``."""
        self_times = self.self_times()
        calls = defaultdict(int)
        for name in self.names:
            calls[name] += 1
        out = {f"{layer}_s": sum(self_times[s] for s in spans)
               for layer, spans in LAYERS.items()}
        out.update({metric: sum(calls[s] for s in spans)
                    for metric, spans in CALL_COUNTS.items()})
        out["trace.job_s"] = self.ends[0] - self.starts[0]
        out[SOURCE_COUNTER] = self.counts[SOURCE_COUNTER]
        out[MATRIX_FIELD_COUNTER] = self.counts[MATRIX_FIELD_COUNTER]
        out["models.percell_calls_per_cell_step"] = (
            (out[SOURCE_COUNTER] + out[MATRIX_FIELD_COUNTER]) / max(cell_steps, 1))
        out["job.cell_steps"] = cell_steps
        out["output.snapshot_bytes"] = snapshot_bytes
        return out

    def write(self, path):
        """One JSON line per span: name, start and end relative to the first
        span, the parent's index (-1 for the root) and the self time."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, covered in zip(
                    self.names, self.starts, self.ends, self.parents, self.child):
                handle.write(json.dumps([name, start - t0, end - t0, parent,
                                         (end - start) - covered]) + "\n")
