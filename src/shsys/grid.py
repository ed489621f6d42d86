"""Uniform Cartesian grids of cell-centered states, with shift and
centered-difference operators for periodic and outflow boundaries.

The boundary rule is written once, in ``_runs``: each translate is a
table of regions (``_regions``, ``_difference_regions``), an interior run
and the edge cell.  Off axis 0, numpy runs a ufunc over such a strided
region through its buffered iterator, which copies the operands through
buffers of up to 64 KB each.  So when the input and the output are
C-contiguous arrays of one shape, ``shift_into`` and
``neighbour_difference`` take the flat pass along an axis j >= 1 longer
than 2: a step of one cell along j is a step of s = prod(shape[j+1:])
in the flat view, so the whole array is one contiguous ufunc call, and
the seam cells (axis index 0 or L-1, where the flat step crosses into
the next line) are then rewritten from the edge entries of the same
tables.  Every element still gets one operation on the same operands in
the same order, so the results are bit-identical to the region path,
except for which NaN comes back where both operands are NaNs: numpy's
loops return either one.
Axis 0 (already contiguous), axes of length 2 or less and non-contiguous
inputs (component slices) keep the region path."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
        if not all(map(math.isfinite, (*self.h, *self.origin))):
            raise ValueError(f"grid spacing and origin must be finite, got h = "
                             f"{self.h}, origin = {self.origin}")
        if any(hj <= 0 for hj in self.h):
            raise ValueError("grid spacing must be positive")
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"boundary must be one of {BOUNDARY_MODES}")
        self._check_shape(self.data)

    def _check_shape(self, data: np.ndarray):
        if data.shape != tuple(self.shape) + (self.m,):
            raise ValueError(
                f"data shape {data.shape} does not match grid "
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
        """The same grid holding new data.  The grid fields were validated
        when this field was built, so only the data's shape is checked."""
        data = np.asarray(data, dtype=float)
        self._check_shape(data)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, data=data)
        return new

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.origin[axis] + self.h[axis] * np.arange(self.shape[axis])

    def coords(self) -> np.ndarray:
        """Cell-center coordinates, shape ``shape + (n,)``."""
        axes = [self.centers(j) for j in range(self.n)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def cell_coords(self, flat: np.ndarray) -> np.ndarray:
        """Coordinates of the cells at C-order flat indices, shape
        ``flat.shape + (n,)``: the values ``coords()`` holds there, built
        without the whole grid."""
        cells = np.unravel_index(flat, self.shape)
        return np.stack([self.origin[j] + self.h[j] * cells[j] for j in range(self.n)],
                        axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def is_finite(self) -> bool:
        # a finite sum proves every summand finite; a sum that overflows
        # (numpy warns) falls back to the element-wise test
        return (math.isfinite(np.add.reduce(self.data, axis=None))
                or bool(np.all(np.isfinite(self.data))))

    def first_nonfinite(self) -> Optional[tuple]:
        """Lexicographically first cell holding a NaN/Inf, or None."""
        bad = ~np.isfinite(self.data)
        return first_true(bad) if bad.any() else None


def first_true(mask: np.ndarray) -> tuple:
    """Index of the first True entry of a boolean array, as Python ints."""
    flat = int(np.argmax(mask.reshape(-1)))
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


# Byte budget of one row window (``row_windows``): a window of the state
# and the scratch sized to it stay in a per-core L2 cache through every
# stencil pass of a step.
WINDOW_BYTES = 256 * 1024


@lru_cache(maxsize=None)
def _window_table(shape: tuple, itemsize: int, budget: int) -> tuple:
    rows = shape[0]
    row_bytes = itemsize * math.prod(shape[1:])
    count = -(-rows // max(1, budget // max(1, row_bytes)))
    if count <= 1:
        return (None,), rows
    # near-equal windows, the longer ones first
    size, longer = divmod(rows, count)
    stops = [r * size + min(r, longer) for r in range(count + 1)]
    return tuple(zip(stops[:-1], stops[1:])), size + (longer > 0)


def row_windows(data: np.ndarray) -> tuple:
    """(windows, depth): the row windows (r0, r1) that split axis 0 of an
    array into near-equal parts of at most ``WINDOW_BYTES`` each (at least
    one row), and the largest window's row count.  An array that fits the
    budget has the single window None, the whole axis."""
    return _window_table(data.shape, data.itemsize, WINDOW_BYTES)


def _runs(length: int, direction: int, boundary: str) -> list:
    """(start, stop, offset) runs with shifted(a)[i] == a[i + offset] for
    start <= i < stop along one axis.  The interior takes its neighbour
    one cell along ``direction``; the edge cell left over takes the far
    edge cell (periodic) or itself (outflow).  The interior run comes
    first, so the tables built from the runs end with their edge cells."""
    edge = length - 1 if direction > 0 else 0
    source = edge if boundary == "outflow" else length - 1 - edge
    runs = [(edge, edge + 1, source - edge)]
    if length > 1:
        runs.insert(0, (0, length - 1, 1) if direction > 0 else (1, length, -1))
    return runs


@lru_cache(maxsize=None)
def _regions(axis: int, length: int, direction: int, boundary: str,
             rows: Optional[tuple] = None) -> tuple:
    """(cells, sources) index pairs with shifted(a)[cells] == a[sources],
    for the cells in the window ``rows`` = (r0, r1) of the axis, indexed
    from r0 (the whole axis when None)."""
    r0, r1 = (0, length) if rows is None else rows
    lead = (slice(None),) * axis
    regions = []
    for start, stop, off in _runs(length, direction, boundary):
        lo, hi = max(start, r0), min(stop, r1)
        if lo < hi:
            regions.append((lead + (slice(lo - r0, hi - r0),),
                            lead + (slice(lo + off, hi + off),)))
    return tuple(regions)


@lru_cache(maxsize=None)
def _difference_regions(axis: int, length: int, boundary: str,
                        rows: Optional[tuple] = None) -> tuple:
    """(cells, plus, minus) index triples with shifted(a, +1)[cells] ==
    a[plus] and shifted(a, -1)[cells] == a[minus]: the overlaps of the
    runs of both directions, in the window ``rows`` as in ``_regions``."""
    r0, r1 = (0, length) if rows is None else rows
    lead = (slice(None),) * axis
    triples = []
    for start_p, stop_p, off_p in _runs(length, +1, boundary):
        for start_m, stop_m, off_m in _runs(length, -1, boundary):
            lo, hi = max(start_p, start_m, r0), min(stop_p, stop_m, r1)
            if lo < hi:
                triples.append((lead + (slice(lo - r0, hi - r0),),
                                lead + (slice(lo + off_p, hi + off_p),),
                                lead + (slice(lo + off_m, hi + off_m),)))
    return tuple(triples)


def shifted(data: np.ndarray, axis: int, direction: int, boundary: str,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Neighbor values along a spatial axis: direction +1 samples at x + h
    (the forward translate), -1 at x - h.  Periodic wraps the far edge
    cell in, outflow replicates the near one.  Written to ``out`` (a new
    array when None; it must not be ``data``)."""
    if out is None:
        out = np.empty(data.shape, dtype=data.dtype)
    for cells, sources in _regions(axis, data.shape[axis], direction, boundary):
        out[cells] = data[sources]
    return out


def _flat_step(out: np.ndarray, data: np.ndarray, axis: int) -> Optional[int]:
    """The flat stride s of one cell along ``axis`` when the flat pass
    applies: an axis j >= 1 longer than 2 of C-contiguous ``out`` and
    ``data`` of one shape.  None selects the region path."""
    if (axis and data.shape[axis] > 2 and out.shape == data.shape
            and out.flags.c_contiguous and data.flags.c_contiguous):
        return math.prod(data.shape[axis + 1:])
    return None


def shift_into(ufunc, out: np.ndarray, data: np.ndarray, axis: int,
               direction: int, boundary: str, rows: Optional[tuple] = None) -> np.ndarray:
    """out = ufunc(out, shifted(data, axis, direction, boundary)) in place,
    without building the translate: region by region, or as one flat call
    whose seam is taken from the edge region (see the module docstring).
    With ``rows`` = (r0, r1), ``out`` holds only the rows r0 <= i < r1 of
    axis 0: axis 0 reads its neighbours across the window's edges, any
    other axis reads only data[r0:r1]."""
    if rows is not None and axis:
        data, rows = data[rows[0]:rows[1]], None
    regions = _regions(axis, data.shape[axis], direction, boundary, rows)
    s = _flat_step(out, data, axis)
    if s is None:
        for cells, sources in regions:
            view = out[cells]
            ufunc(view, data[sources], out=view)
        return out
    # the edge cells get their value before the flat call overwrites them;
    # a contiguous copy leaves one operand to numpy's buffers
    cells, sources = regions[-1]
    seam = out[cells].copy()
    ufunc(seam, data[sources], out=seam)
    o, d = out.ravel(), data.ravel()
    if direction > 0:
        ufunc(o[:-s], d[s:], out=o[:-s])
    else:
        ufunc(o[s:], d[:-s], out=o[s:])
    out[cells] = seam
    return out


def neighbour_difference(data: np.ndarray, axis: int, boundary: str,
                         out: Optional[np.ndarray] = None,
                         rows: Optional[tuple] = None) -> np.ndarray:
    """shifted(+1) - shifted(-1) along one axis, in one pass over the data,
    written to ``out`` (a new array when None): region by region, or as
    one flat call with the two edge regions written after it (see the
    module docstring).  With ``rows`` = (r0, r1), only the rows
    r0 <= i < r1 of axis 0, which ``out`` holds, as in ``shift_into``."""
    if out is None:
        shape = data.shape if rows is None else (rows[1] - rows[0],) + data.shape[1:]
        out = np.empty(shape, dtype=np.result_type(data, 1.0))
    if rows is not None and axis:
        data, rows = data[rows[0]:rows[1]], None
    triples = _difference_regions(axis, data.shape[axis], boundary, rows)
    s = _flat_step(out, data, axis)
    if s is None:
        for cells, plus, minus in triples:
            np.subtract(data[plus], data[minus], out=out[cells])
        return out
    o, d = out.ravel(), data.ravel()
    np.subtract(d[2 * s:], d[:-2 * s], out=o[s:-s])
    for cells, plus, minus in triples[1:]:
        # the edge cells, through a contiguous copy as in shift_into
        seam = data[plus].copy()
        np.subtract(seam, data[minus], out=seam)
        out[cells] = seam
    return out


def second_difference(data: np.ndarray, axis: int, boundary: str,
                      out: Optional[np.ndarray] = None,
                      spare: Optional[np.ndarray] = None) -> np.ndarray:
    """(shifted(+1) - 2 data) + shifted(-1) along one axis, written to
    ``out``; ``spare`` holds 2 data.  Both are arrays shaped like data,
    other than data, new ones when None."""
    out = shifted(data, axis, +1, boundary, out=out)
    out -= np.multiply(data, 2.0, out=spare)
    return shift_into(np.add, out, data, axis, -1, boundary)


def centered_diff(field: GridField, axis: int, component_data: Optional[np.ndarray] = None,
                  out: Optional[np.ndarray] = None, rows: Optional[tuple] = None) -> np.ndarray:
    """Centered difference (u(x+h) - u(x-h)) / (2h) along one spatial axis,
    written to ``out`` (a new array when None).  With ``rows`` = (r0, r1),
    only the rows r0 <= i < r1 of axis 0, which ``out`` holds."""
    data = field.data if component_data is None else component_data
    diff = neighbour_difference(data, axis, field.boundary, out=out, rows=rows)
    diff /= 2.0 * field.h[axis]
    return diff


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
