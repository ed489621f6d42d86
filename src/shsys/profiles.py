"""Named initial-data profiles: constant, step, bump, plane-wave, and
tabulated CSV."""

from __future__ import annotations

import csv
import math

import numpy as np

from .grid import GridField


def _vector(key: str, values, size: int, what: str) -> np.ndarray:
    """``values`` broadcast to ``size`` floats as numpy broadcasts, else a
    ValueError naming the ``[initial]`` key and ``what`` ("m" or "n")."""
    values = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(values, (size,))
    except ValueError:
        raise ValueError(f"[initial] {key} needs 1 or {what} = {size} values, "
                         f"got shape {values.shape}") from None


def constant(grid: GridField, values) -> GridField:
    values = _vector("value", values, grid.m, "m")
    data = np.tile(values, grid.shape + (1,)).reshape(grid.shape + (grid.m,))
    return grid.with_data(data.copy())


def step(grid: GridField, left, right, jump_at: float = 0.0) -> GridField:
    """Left state for x_1 < jump_at, right state otherwise."""
    left, right = _vector("left", left, grid.m, "m"), _vector("right", right, grid.m, "m")
    x1 = grid.coords()[..., 0]
    data = np.where(x1[..., np.newaxis] < jump_at, left, right)
    return grid.with_data(data)


def bump(grid: GridField, amplitude, radius: float, center=None) -> GridField:
    """Smooth bump exp(1 - 1/(1 - (r/R)^2)) scaled per component; exactly
    zero (bitwise) for r >= R."""
    amplitude = _vector("amplitude", amplitude, grid.m, "m")
    center = np.zeros(grid.n) if center is None else _vector("center", center, grid.n, "n")
    r2 = np.sum((grid.coords() - center) ** 2, axis=-1) / radius ** 2
    profile = np.zeros(grid.shape)
    inside = r2 < 1.0
    profile[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return grid.with_data(profile[..., np.newaxis] * amplitude)


def plane_wave(grid: GridField, amplitude, modes) -> GridField:
    """amp_A * sin(sum_j 2 pi modes_j (x_j - origin_j) / L_j) with
    L_j the domain extent, so integer modes are grid-periodic."""
    amplitude = _vector("amplitude", amplitude, grid.m, "m")
    modes = _vector("modes", modes, grid.n, "n")
    coords = grid.coords()
    arg = np.zeros(grid.shape)
    for j in range(grid.n):
        extent = grid.shape[j] * grid.h[j]
        arg += 2.0 * np.pi * modes[j] * (coords[..., j] - grid.origin[j]) / extent
    return grid.with_data(np.sin(arg)[..., np.newaxis] * amplitude)


def from_csv(grid: GridField, path) -> GridField:
    """Tabulated data: one row per cell in lexicographic order, the last m
    columns holding u^1..u^m (leading coordinate columns are ignored).
    A row holding nan or inf, or a column count other than the first
    data row's, is rejected with its line number."""
    rows = []
    header_seen = False
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                if rows or header_seen:
                    raise ValueError(f"{path}:{lineno}: cannot parse row {row}")
                header_seen = True  # a single leading header line is allowed
                continue
            if rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: row has {len(values)} columns, "
                                 f"expected {len(rows[0])}")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {row}")
            rows.append(values)
    cells = int(np.prod(grid.shape))
    if len(rows) != cells:
        raise ValueError(f"{path}: expected {cells} rows, found {len(rows)}")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] < grid.m:
        raise ValueError(f"{path}: rows carry {arr.shape[1]} columns, need >= {grid.m}")
    return grid.with_data(arr[:, -grid.m:].reshape(grid.shape + (grid.m,)))
