"""Uniform Cartesian grids of cell-centered states, with shift and
centered-difference operators for periodic and outflow boundaries."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

BOUNDARY_MODES = ("periodic", "outflow")


@dataclass(frozen=True)
class GridField:
    """m-component state sampled at the cell centers of a uniform grid.

    ``data`` has shape ``shape + (m,)``.  ``origin[j]`` is the coordinate of
    the first cell center along axis j and ``h[j]`` the spacing, so cell i
    sits at ``origin[j] + i * h[j]``.
    """

    n: int
    shape: tuple
    h: tuple
    origin: tuple
    m: int
    data: np.ndarray
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"space dimension must be 1, 2 or 3, got {self.n}")
        if len(self.shape) != self.n or len(self.h) != self.n or len(self.origin) != self.n:
            raise ValueError("shape, h and origin must all have length n")
        if any(s < 1 for s in self.shape):
            raise ValueError("grid shape entries must be >= 1")
        if any(hj <= 0 for hj in self.h):
            raise ValueError("grid spacing must be positive")
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
        if self.data.shape != tuple(self.shape) + (self.m,):
            raise ValueError(
                f"data shape {self.data.shape} does not match grid "
                f"{tuple(self.shape) + (self.m,)}"
            )

    @classmethod
    def zeros(cls, shape, h, origin, m, boundary="periodic"):
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        n = len(shape)
        h = tuple(float(x) for x in np.broadcast_to(h, (n,)))
        origin = tuple(float(x) for x in np.broadcast_to(origin, (n,)))
        data = np.zeros(shape + (m,))
        return cls(n=n, shape=shape, h=h, origin=origin, m=m, data=data,
                   boundary=boundary)

    def with_data(self, data: np.ndarray) -> "GridField":
        return replace(self, data=np.asarray(data, dtype=float))

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.origin[axis] + self.h[axis] * np.arange(self.shape[axis])

    def coords(self) -> np.ndarray:
        """Cell-center coordinates, shape ``shape + (n,)``."""
        axes = [self.centers(j) for j in range(self.n)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))

    def first_nonfinite(self) -> Optional[tuple]:
        """Lexicographically first cell holding a NaN/Inf, or None."""
        bad = ~np.isfinite(self.data)
        if not bad.any():
            return None
        flat = int(np.argmax(bad.reshape(-1)))
        return tuple(np.unravel_index(flat, self.data.shape))


def shifted(data: np.ndarray, axis: int, direction: int, boundary: str) -> np.ndarray:
    """Neighbor values along a spatial axis: direction +1 samples at x + h
    (the forward translate), -1 at x - h.  Periodic wraps the far edge
    cell in, outflow replicates the near one; built from two slices."""
    lead = (slice(None),) * axis
    first, last = data[lead + (slice(None, 1),)], data[lead + (slice(-1, None),)]
    if direction > 0:
        edge = last if boundary == "outflow" else first
        return np.concatenate([data[lead + (slice(1, None),)], edge], axis=axis)
    edge = first if boundary == "outflow" else last
    return np.concatenate([edge, data[lead + (slice(None, -1),)]], axis=axis)


def centered_diff(field: GridField, axis: int, component_data: Optional[np.ndarray] = None) -> np.ndarray:
    """Centered difference (u(x+h) - u(x-h)) / (2h) along one spatial axis."""
    data = field.data if component_data is None else component_data
    plus = shifted(data, axis, +1, field.boundary)
    minus = shifted(data, axis, -1, field.boundary)
    return (plus - minus) / (2.0 * field.h[axis])


def interior_mask(field: GridField) -> np.ndarray:
    """Cells whose full centered stencil lies inside the grid.

    All cells for periodic boundaries; for outflow the one-cell rim is
    excluded (the replicated ghost makes centered differences one-sided
    there)."""
    mask = np.ones(field.shape, dtype=bool)
    if field.boundary == "outflow":
        for axis in range(field.n):
            idx = [slice(None)] * field.n
            idx[axis] = 0
            mask[tuple(idx)] = False
            idx[axis] = -1
            mask[tuple(idx)] = False
    return mask


def l2_norm(field: GridField, values: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Volume-weighted L2 norm of a residual field.

    ``values`` has shape ``shape`` or ``shape + (c,)``; components are
    stacked into a single norm."""
    v = np.asarray(values, dtype=float)
    if v.ndim == field.n:
        v = v[..., np.newaxis]
    if mask is not None:
        v = v * mask[..., np.newaxis]
    return float(np.sqrt(np.sum(v * v) * field.cell_volume()))
