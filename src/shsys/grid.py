"""Uniform Cartesian grids of cell-centered states, with shift and
centered-difference operators for periodic and outflow boundaries.

The boundary rule is written once, in ``_source``.  A step reads its
state with one ghost row at each end of axis 0 (``GhostField``, in
buffers that ``lxf.StepPlan`` owns), whose two rows ``ghost_rows`` fills
by that rule, one row copy each, so an axis-0 translate or difference
inside a step is one slice of the padded array and one ufunc call.  Every translate and difference is a ``Stencil`` that applies
itself: one interior call, then the edge cells, of which the rows r0+1
<= i < r1+1 of a padded array have none on axis 0.  ``stencil`` lays one
out and caches it; it is the one public way to a translate
(``Stencil.shift_into``) or a difference (``Stencil.difference``).
``centered_diff`` looks its stencil up on every call, ``lxf.StepPlan``
once a run; ``shifted`` (the reference, held to ``np.roll`` by the
tests) is ``shift_into`` with a copy.  Called on a state without ghost
rows (monitors, tests), they pay the edge cells.  On axis 0 the interior
is a slice of rows, of any layout.  Along an axis j >= 1 of a
C-contiguous array one cell is a step of s = prod(shape[j+1:]) in the
flat view, so the interiors of all lines are one contiguous call,
ufunc(out[:-s], data[s:]) or its mirror, where a strided region would go
through numpy's buffered iterator.  That call crosses the edge cells
between lines (the seams), which are computed apart and written after
it.  There a strided ``data`` is copied once by its flat view and a
strided ``out`` is refused.  The public functions take their ``out``
from ``out_array``.  Every element gets one operation on the same
operands in the same order, so the results are bit-identical on every
axis, window and layout, with or without ghost rows, except for which
NaN comes back where both operands are NaNs: numpy's loops return
either.

A division by d = +-2^e is a multiplication by 1/d (``divisor``) when 1/d
is finite: x / d and x * 2^-e have the same exact value, and IEEE 754
rounds both correctly, so they agree for every x, subnormal results,
overflow, +-0, +-inf and NaN included.  ``centered_diff`` divides by 2h
that way, and ``lxf`` its averages by 2n."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

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
        """The same grid holding new data, as a plain GridField.  The grid
        fields were validated when this field was built, so only the data's
        shape is checked."""
        data = np.asarray(data, dtype=float)
        self._check_shape(data)
        new = object.__new__(GridField)
        new.__dict__.update(self.__dict__, data=data)
        return new

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.origin[axis] + self.h[axis] * np.arange(self.shape[axis])

    def points(self, t: float) -> np.ndarray:
        """Space-time points of the cell centers, shape ``shape + (n+1,)``, in
        one array: t in column 0 and ``centers(j)`` along axis j in column 1+j."""
        out = np.empty(tuple(self.shape) + (self.n + 1,))
        out[..., 0] = t
        for j in range(self.n):
            out[..., 1 + j] = self.centers(j).reshape((-1,) + (1,) * (self.n - 1 - j))
        return out

    def coords(self) -> np.ndarray:
        """Cell-center coordinates ``shape + (n,)``: the space columns of ``points``."""
        return self.points(0.0)[..., 1:]

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


class GhostField(GridField):
    """A GridField whose data is rows 1..N0 of ``padded``, the same array
    with one ghost row at each end of axis 0 (``ghost_rows`` fills them).
    ``padded`` is not a dataclass field: ``with_data`` and
    ``dataclasses.replace`` give fields without it."""

    __slots__ = ("padded",)

    @classmethod
    def around(cls, field: GridField, padded: np.ndarray) -> "GhostField":
        new = object.__new__(cls)
        new.__dict__.update(field.with_data(padded[1:-1]).__dict__)
        object.__setattr__(new, "padded", padded)
        return new


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


def _source(cell: int, direction: int, length: int, boundary: str) -> int:
    """The cell that shifted(a, direction)[cell] reads along an axis: the
    neighbour, or past the edge the far edge cell (periodic) or itself."""
    near = cell + direction
    if 0 <= near < length:
        return near
    return near % length if boundary == "periodic" else cell


def ghost_rows(length: int, boundary: str) -> tuple:
    """(ghost, source) row pairs of an array that pads an axis of ``length``
    cells with one ghost row at each end: ``padded[ghost] = padded[source]``
    fills each by ``_source``'s rule, the far edge row (periodic) or the
    near one (outflow).  Two row copies: one strided copy of both would go
    through a temporary, since numpy sees the rows' bounds overlap."""
    return ((0, _source(0, -1, length, boundary) + 1),
            (length + 1, _source(length - 1, +1, length, boundary) + 1))


class Stencil(NamedTuple):
    """A translate or difference along one axis, as ``stencil`` lays it out:
    ``interior`` = (cells, *sources) slices, of the flat views when
    ``flat``; ``edges`` and ``seams`` = (cells, *sources) of the edge
    cells, which the interior call crosses only when they are seams;
    ``reads`` the rows of data an off-axis window reads (None: all)."""

    flat: bool
    interior: tuple
    edges: tuple
    seams: tuple
    reads: Optional[slice] = None

    def shift_into(self, ufunc, out: np.ndarray, data: np.ndarray) -> np.ndarray:
        """out = ufunc(out, translate of data) in place, without building
        the translate."""
        flat, (cells, sources), edges, seams, reads = self
        if reads is not None:
            data = data[reads]
        o, d = _flat_views(out, data) if flat else (out, data)
        if seams:
            # their values, before the interior call overwrites them; a
            # contiguous copy leaves one operand to numpy's buffers
            saved = [out[seam].copy() for seam, _ in seams]
            for value, (_, source) in zip(saved, seams):
                ufunc(value, data[source], out=value)
        view = o[cells]
        ufunc(view, d[sources], out=view)
        for cells, sources in edges:
            # not in place: on a one-element row numpy takes twice as long in place
            out[cells] = ufunc(out[cells], data[sources])
        if seams:
            for value, (seam, _) in zip(saved, seams):
                out[seam] = value
        return out

    def difference(self, out: np.ndarray, data: np.ndarray) -> np.ndarray:
        """out = translate(+1) - translate(-1) of data, in one pass."""
        flat, (cells, plus, minus), edges, seams, reads = self
        if reads is not None:
            data = data[reads]
        o, d = _flat_views(out, data) if flat else (out, data)
        np.subtract(d[plus], d[minus], out=o[cells])
        for cells, plus, minus in edges:
            np.subtract(data[plus], data[minus], out=out[cells])
        for cells, plus, minus in seams:
            # through a contiguous copy, as in shift_into
            value = data[plus].copy()
            np.subtract(value, data[minus], out=value)
            out[cells] = value
        return out


@lru_cache(maxsize=None)
def stencil(shape: tuple, axis: int, boundary: str, direction: int,
            rows: Optional[tuple] = None) -> Stencil:
    """The ``Stencil`` of a translate (``direction`` +1 or -1) or a
    difference (0) along ``axis`` of an array of ``shape``, for the rows
    ``rows`` of axis 0 that out holds.  Axis 0 reads its neighbours across
    the window's edges; any other axis reads only the window's rows."""
    if rows is not None and axis:
        window = (rows[1] - rows[0],) + shape[1:]
        return stencil(window, axis, boundary, direction)._replace(reads=slice(*rows))
    directions = (direction,) if direction else (+1, -1)
    length = shape[axis]
    r0, r1 = (0, length) if rows is None else rows
    # interior cells have every neighbour inside the axis; off axis 0 one
    # cell is a step of s in the flat view, and one run spans all lines
    lo = max(r0, 1 if -1 in directions else 0)
    hi = min(r1, length - 1 if +1 in directions else length)
    interior = (slice(0, 0),) * (1 + len(directions))
    if lo < hi:
        s = math.prod(shape[axis + 1:]) if axis else 1
        cells = slice((lo - r0) * s, math.prod(shape) - (length - hi) * s if axis else hi - r0)
        interior = (cells,) + tuple(slice(cells.start + (r0 + d) * s, cells.stop + (r0 + d) * s)
                                    for d in directions)
    # the other cells of the window, each with its source per direction
    picks = [(i - r0,) + tuple(_source(i, d, length, boundary) for d in directions)
             for i in sorted({*range(r0, lo), *range(hi, r1)})]
    if axis:
        lead = (slice(None),) * axis
        return Stencil(True, interior, (), tuple(tuple(lead + (slice(j, j + 1),) for j in pick)
                                                 for pick in picks))
    # on axis 0 both edge cells go in one strided call when slices pick them
    if len(picks) == 2 and all(a != b for a, b in zip(*picks)):
        return Stencil(False, interior, (tuple(slice(a, 2 * b - a if 2 * b >= a else None, b - a)
                                               for a, b in zip(*picks)),), ())
    return Stencil(False, interior, tuple(tuple(slice(j, j + 1) for j in pick)
                                          for pick in picks), ())


def _flat_views(out: np.ndarray, data: np.ndarray) -> tuple:
    """The flat views that an off-axis stencil indexes, of a C-contiguous out."""
    if out.shape != data.shape:
        raise ValueError(f"out must have the shape {data.shape}, got {out.shape}")
    return c_contiguous(out).ravel(), data.ravel()


def c_contiguous(out: np.ndarray, name: str = "out") -> np.ndarray:
    """``out`` if it is C-contiguous, else refused as ``name``."""
    if not out.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous array")
    return out


def out_array(data: np.ndarray, out: Optional[np.ndarray] = None,
              rows: Optional[tuple] = None, name: str = "out") -> np.ndarray:
    """The array that a function of ``data`` writes its rows ``rows`` of axis
    0 to (all when None): a new float array, or ``out`` if it is
    C-contiguous and does not overlap ``data`` (else refused as ``name``)."""
    if out is None:
        shape = data.shape if rows is None else (rows[1] - rows[0],) + data.shape[1:]
        return np.empty(shape, dtype=np.result_type(data, 1.0))
    if np.may_share_memory(out, data):
        raise ValueError(f"{name} must not overlap another argument")
    return c_contiguous(out, name)


def divisor(d: float) -> tuple:
    """(ufunc, operand) with ufunc(x, operand) equal to x / d bit for bit:
    np.multiply and 1/d when d is +-2^e with 1/d finite (the module
    docstring's rule), else np.divide and d."""
    if abs(math.frexp(d)[0]) == 0.5 and math.isfinite(1.0 / d):
        return np.multiply, 1.0 / d
    return np.divide, d


def shifted(data: np.ndarray, axis: int, direction: int, boundary: str,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Neighbor values along a spatial axis: direction +1 samples at x + h
    (the forward translate), -1 at x - h.  Periodic wraps the far edge
    cell in, outflow replicates the near one.  Written to ``out``
    (``out_array``), bit for bit."""
    out = out_array(data, out)
    return stencil(data.shape, axis, boundary, direction).shift_into(_copy, out, data)


def _copy(_, translate, out=None):
    """The ufunc form of ``Stencil.shift_into`` that copies the translate."""
    if out is None:
        return translate
    np.copyto(out, translate)
    return out


def centered_diff(field: GridField, axis: int, component_data: Optional[np.ndarray] = None,
                  out: Optional[np.ndarray] = None, rows: Optional[tuple] = None) -> np.ndarray:
    """Centered difference (u(x+h) - u(x-h)) / (2h) along one spatial axis,
    written to ``out`` (``out_array``).  With ``rows`` = (r0, r1), only the
    rows r0 <= i < r1 of axis 0 of ``component_data``, which ``out`` holds:
    of a padded array (``GhostField``) the rows r0 >= 1 and r1 <= N0 + 1
    read every axis-0 neighbour without edge cells."""
    data = field.data if component_data is None else component_data
    out = out_array(data, out, rows)
    diff = stencil(data.shape, axis, field.boundary, 0, rows).difference(out, data)
    ufunc, operand = divisor(2.0 * field.h[axis])
    return ufunc(diff, operand, out=diff)


def interior_mask(field: GridField) -> np.ndarray:
    """Cells whose full centered stencil lies inside the grid.

    All cells for periodic boundaries; for outflow the one-cell rim is
    excluded (the replicated ghost makes centered differences one-sided
    there)."""
    mask = np.ones(field.shape, dtype=bool)
    if field.boundary == "outflow":
        for axis in range(field.n):
            np.moveaxis(mask, axis, 0)[[0, -1]] = False
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
