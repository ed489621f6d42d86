"""Seeded inputs, jobs and correctness gates of the benchmark workloads.

Every workload is a closed loop with one client: set-up builds the inputs
once, then the worker calls ``job`` again and again, one call at a time.
The seed moves only inputs that keep the CFL bound safe (a plane-wave
phase or mode, a pulse centre, a jump position); the program receives only
the generated arrays or config text.

A job is one ``shsys.lxf.run`` call (library workloads) or one
``shsys.cli.execute`` call (CLI workloads).  Both are looked up through
the module attribute at call time, so the tracer's wrappers take effect.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import os
import shutil
from dataclasses import dataclass

import numpy as np


@dataclass
class Outcome:
    """Verdict of the correctness gate on one job."""

    ok: bool
    reason: str
    digest: str


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _trace_digest(trace) -> str:
    """SHA-256 over every recorded time, snapshot and monitor value."""
    sha = hashlib.sha256()
    sha.update(repr((trace.steps, list(trace.times))).encode())
    for snap in trace.snapshots:
        sha.update(np.ascontiguousarray(snap.data).tobytes())
    for name in sorted(trace.monitors):
        sha.update(repr((name, trace.monitors[name])).encode())
    return sha.hexdigest()


def tree_digest(root: str) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            sha.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as handle:
                sha.update(handle.read())
            sha.update(b"\0")
    return sha.hexdigest()


def snapshot_bytes(out_dir: str) -> int:
    """Total size of the snapshot CSVs a CLI job wrote."""
    snap_dir = os.path.join(out_dir, "snapshots")
    if not os.path.isdir(snap_dir):
        return 0
    return sum(os.path.getsize(os.path.join(snap_dir, f))
               for f in os.listdir(snap_dir))


class LibraryWorkload:
    """One ``shsys.lxf.run`` call per job on arrays built at set-up."""

    def __init__(self, shsys, system, initial, config, monitors):
        self.shsys = shsys
        self.system = system
        self.initial = initial
        self.config = config
        self.monitors = monitors

    def job(self, work_dir):
        return self.shsys.lxf.run(self.system, self.initial, self.config,
                                  monitors=self.monitors)

    def gate(self, trace, work_dir) -> Outcome:
        digest = _trace_digest(trace)
        if not trace.completed:
            return Outcome(False, f"run aborted: {trace.error}", digest)
        reason = self.physics(trace)
        return Outcome(reason is None, reason or "", digest)

    def physics(self, trace):
        raise NotImplementedError


class Maxwell3D(LibraryWorkload):
    """Vacuum Maxwell, 32^3 cells, oblique plane wave, divergence monitors."""

    cells = 32

    @classmethod
    def build(cls, shsys, seed):
        phase = float(_rng(seed, 1).uniform(0.0, 2.0 * np.pi))
        n = cls.cells
        grid = shsys.GridField.zeros((n,) * 3, 1.0 / n, 0.5 / n, 6)
        c = grid.coords()
        kvec = 2.0 * np.pi * np.array([1.0, 2.0, 2.0])
        wave = np.sin(sum(kvec[j] * c[..., j] for j in range(3)) + phase)
        e0 = np.array([2.0, -1.0, 0.0]) / np.sqrt(5.0)
        b0 = np.array([2.0, 4.0, -5.0]) / (3.0 * np.sqrt(5.0))
        data = np.concatenate([wave[..., None] * e0, wave[..., None] * b0], axis=-1)
        system, monitors = shsys.maxwell_system()
        config = shsys.SchemeConfig(lam=0.25, t_end=1.0, output_stride=8)
        return cls(shsys, system, grid.with_data(data), config, monitors)

    def physics(self, trace):
        for name in ("div_e", "div_b"):
            series = [v for _, v in trace.monitors[name]]
            if max(series) > 3.0 * series[0]:
                return f"{name} grew past 3x its start: {max(series):.3e}"
        return None


class EulerSH2D(LibraryWorkload):
    """Polytropic gas in (p, v) form, 64^2, Gaussian pressure pulse."""

    cells = 64

    @classmethod
    def build(cls, shsys, seed):
        centre = _rng(seed, 2).uniform(0.35, 0.65, size=2)
        n = cls.cells
        grid = shsys.GridField.zeros((n, n), 1.0 / n, 0.5 / n, 3)
        c = grid.coords()
        r2 = np.sum((c - centre) ** 2, axis=-1)
        data = np.zeros(grid.shape + (3,))
        data[..., 0] = 1.0 + 0.2 * np.exp(-r2 / 0.01)
        data[..., 1] = 0.1
        system = shsys.euler_polytropic_sh(1.4, n=2)
        config = shsys.SchemeConfig(lam=0.2, t_end=16 * 0.2 / n,
                                    output_stride=16)
        return cls(shsys, system, grid.with_data(data), config, ())

    def physics(self, trace):
        p0 = trace.snapshots[0].data[..., 0]
        p1 = trace.snapshots[-1].data[..., 0]
        if trace.steps != 16:
            return f"expected 16 steps, ran {trace.steps}"
        if not (p1.min() > 0.0 and p1.max() <= p0.max()):
            return f"pressure range [{p1.min():.6g}, {p1.max():.6g}] left [0, {p0.max():.6g}]"
        return None


class CliWorkload:
    """One ``shsys.cli.execute`` call per job on a config parsed at set-up."""

    required_rows: tuple = ()

    def __init__(self, shsys, text):
        importlib.import_module("shsys.cli")
        self.shsys = shsys
        self.cfg = shsys.config.parse_config(text)

    def job(self, work_dir):
        return self.shsys.cli.execute(self.cfg, output_dir=work_dir)

    def gate(self, code, work_dir) -> Outcome:
        digest = tree_digest(work_dir)
        if code != 0:
            return Outcome(False, f"exit code {code}", digest)
        with open(os.path.join(work_dir, "verdicts.csv"), newline="") as handle:
            rows = {row["name"]: row["pass"] for row in csv.DictReader(handle)}
        failing = sorted(name for name, passed in rows.items() if passed != "true")
        if failing:
            return Outcome(False, f"failing verdicts {failing}", digest)
        missing = [p for p in self.required_rows
                   if not any(name.startswith(p) for name in rows)]
        if missing:
            return Outcome(False, f"missing verdict rows {missing}", digest)
        return Outcome(True, "", digest)


class Wave2DCli(CliWorkload):
    """Wave equation first-order form, 128^2, plane wave, CSV snapshots."""

    required_rows = ("is_sh", "energy.non_increasing",
                     "constraints.gradient_constraint")

    @classmethod
    def build(cls, shsys, seed):
        rng = _rng(seed, 3)
        modes = rng.integers(1, 4, size=2)
        amplitude = rng.uniform(0.5, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        text = f"""
[model]
name = wave

[grid]
shape = 128, 128
h = 0.0078125
boundary = periodic

[scheme]
lambda = 0.4
t_end = 0.1
output_stride = 8

[initial]
profile = plane-wave
amplitude = {', '.join(repr(float(a)) for a in amplitude)}
modes = {', '.join(str(int(k)) for k in modes)}

[checks]
names = is_sh, energy, constraints
"""
        return cls(shsys, text)


class BurgersCli(CliWorkload):
    """Burgers step 1 -> 0 on 2000 outflow cells, plus the viscous limit."""

    required_rows = ("is_sh", "entropy_pair", "rh.residual", "rh.production",
                     "riemann.", "viscous_limit.monotone")

    @classmethod
    def build(cls, shsys, seed):
        jump_at = float(_rng(seed, 4).uniform(-0.5, 0.0))
        text = f"""
[model]
name = burgers

[grid]
shape = 2000
h = 0.001
origin = -0.9995
boundary = outflow

[scheme]
lambda = 0.9
t_end = 1.5
output_stride = 50

[initial]
profile = step
left = 1.0
right = 0.0
jump_at = {jump_at!r}

[checks]
names = is_sh, entropy_pair, rh, riemann, viscous_limit
rh.u_left = 1.0
rh.u_right = 0.0
riemann.u_left = 1.0
riemann.u_right = 0.0
viscous_limit.u_left = 1.0
viscous_limit.u_right = 0.0
viscous_limit.eps = 0.02, 0.01, 0.005
viscous_limit.t = 0.1
"""
        return cls(shsys, text)


WORKLOADS = {
    "maxwell3d": Maxwell3D,
    "euler-sh2d": EulerSH2D,
    "wave2d-cli": Wave2DCli,
    "burgers-cli": BurgersCli,
}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
