"""Lax-Friedrichs time stepping for quasi-linear systems and conservation
laws, plus the explicit viscous regularization for 1D laws.

One step replaces u(t) by the average of its 2n spatial neighbors and the
space derivatives by centered differences:

    u(t+k) = (1/2n) sum_j (tau_j u + tau_j^-1 u) + k * RHS,
    RHS = M0^-1 [N - sum_j C_j D_j w_j],  D_j w = (tau_j w - tau_j^-1 w) / 2h.

A quasi-linear system has w_j = u and C_j = M^j; a conservation law is
the case w_j = f^j(u), C_j = I and M0 = I.  One window loop
(``_window_rhs``) evaluates both.  A constant C_j is applied as one
matrix product per single-entry layer (``single_entry_layers``), summed
left to right in column order; on rows with at most two nonzeros that
equals the per-cell contraction bit for bit.  The + 0.0 that turns a -0
product into +0, as in the contraction, is added only when the RHS sum
starts from a source: a sum that starts from +0 never holds -0, so it
gives the same bits without it (``apply_layers``).

The ratio lambda = k/h is fixed; stability is enforced at run start as
lambda * a_star <= cfl_safety / n (and k <= cfl_safety * h^2 / (2 eps)
when viscosity is on).  a_star is the maximum of the system's
closed-form ``SystemDef.max_speed`` over every cell when it has one, and
otherwise the largest characteristic speed of ``max_char_speed``: over
every cell for a conservation law, at a lattice of sampled cells for a
system.  After every step ``run`` applies its guards to the new state:
finite and admissible first (``_state_violation``), then, for a system
with ``max_speed`` and a field that is not constant, the same CFL
inequality on every cell; the first that fails aborts the run with the
step, t and the cell.  Constant systems and conservation laws get no
per-step CFL work.  Sources and fields of x are evaluated fully
explicitly at the points ``GridField.points(t)`` (t in column 0), fluxes
and fields of the state alone without them; every source and flux is
checked to return one value per cell (``core.batch_checked``).

The steps follow numpy's ``out=`` idiom: ``lxf_average``, ``lxf_step``
and ``viscous_step`` take the arrays they write from ``grid.out_array``.
An RHS closure ``rhs(t, state)`` writes into a target array of its own.
``run`` hands every step one ``StepPlan``, so that a step on a small
grid costs about its numpy calls; steps called without one check their
arguments and build their own.  The plan owns the two state buffers that
the run alternates, each with one ghost row at each end of axis 0
(``grid.GhostField``): the step that writes a buffer fills its ghost rows
by the boundary rule, one row copy each, so the next step reads every
axis-0 neighbour as one slice of rows and each axis-0 translate or
difference is one ufunc call, with no edge cells.  The flux is evaluated
on the padded rows too: a flux is evaluated cell by cell, so a ghost
row's flux is its source cell's, bit for bit.  Each RHS closure keeps its
own scratch (a viscous run one spare array), so a step allocates no
state-sized array beyond what user callables return.

The stencils sweep the grid in row windows along axis 0
(``grid.row_windows``, at most ``grid.WINDOW_BYTES`` of state each): an
RHS closure runs every difference and product of one window, over all
axes, before the next, and ``lxf_step`` builds the average and adds
k * RHS window by window, so each window's data is reused while it is
still in cache.  Every element goes through the same operations in the
same order, so the results do not depend on the windows or on the ghost
rows.  Fields, fluxes and sources are evaluated once per call on the
whole grid.

A translate or a difference is one ``grid.stencil``, and no sum starts
from a zero fill.  The averages divide by 2n through ``grid.divisor``, so
2n = 2 or 4 is a multiplication by its reciprocal, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (ZERO, MatrixField, SystemDef, batch_checked, max_abs_speed, operand,
                   unit_normals)
from .entropy import ConservationLaw
from .grid import (GhostField, GridField, c_contiguous, centered_diff, divisor, first_true,
                   ghost_rows, out_array, row_windows, stencil)


class StabilityError(RuntimeError):
    """CFL precondition violated at run start."""


class SchemeKey(NamedTuple):
    """A SchemeConfig field's ``[scheme]`` key, its value kind (as in
    ``config``), the test that flags a bad value and what the error says."""

    key: str
    kind: str
    bad: Callable[[float], bool]
    rule: str


# field -> its [scheme] key and limit; the defaults live on SchemeConfig only
SCHEME_KEYS = {
    "lam": SchemeKey("lambda", "float", lambda v: v <= 0, "must be positive"),
    "t_end": SchemeKey("t_end", "float", lambda v: v < 0, "must be non-negative"),
    "cfl_safety": SchemeKey("cfl_safety", "float", lambda v: not 0 < v <= 1, "must lie in (0, 1]"),
    "output_stride": SchemeKey("output_stride", "int", lambda v: v < 1, "must be >= 1"),
    "viscosity": SchemeKey("viscosity", "float", lambda v: v < 0, "must be non-negative"),
}


@dataclass(frozen=True)
class SchemeConfig:
    """Integration parameters, bounded by ``SCHEME_KEYS``.  The time step
    is always k = lam * h."""

    lam: float                  # CFL ratio k/h
    t_end: float
    cfl_safety: float = 0.9
    output_stride: int = 1
    viscosity: float = 0.0      # eps >= 0; 1D conservation laws only

    def __post_init__(self):
        for name, spec in SCHEME_KEYS.items():
            value = getattr(self, name)
            if spec.kind == "float" and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if spec.bad(value):
                raise ValueError(f"{name} {spec.rule}, got {value}")


@dataclass
class Trace:
    """Snapshots and monitor series from a run.

    ``monitors`` maps monitor name to a list of (t, value) pairs sampled at
    the same cadence as the snapshots.  On abort, ``completed`` is False
    and ``error`` holds the diagnostic; the partial trace is retained.
    """

    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    monitors: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    steps: int = 0
    completed: bool = False
    error: Optional[str] = None
    a_star: float = 0.0


def _uniform_h(state: GridField) -> float:
    if any(abs(hj - state.h[0]) > 1e-14 * state.h[0] for hj in state.h):
        raise ValueError("time stepping requires equal spacing on all axes")
    return state.h[0]


def _sample_cells(field_: GridField) -> np.ndarray:
    """C-order flat indices of at most 512 cells on a lattice: each axis,
    shortest first, strided from 0 to at most the r-th root of what is left
    of the 512, r the axes still to come (1D: every ceil(N/512)-th cell)."""
    budget, picks = 512, [None] * field_.n
    for left, axis in zip(range(field_.n, 0, -1), np.argsort(field_.shape, kind="stable")):
        count = int(budget ** (1.0 / left) + 1e-9)  # the integer root: budget <= 512
        picks[axis] = np.arange(0, field_.shape[axis], -(-field_.shape[axis] // count))
        budget //= len(picks[axis])
    return np.ravel_multi_index(np.ix_(*picks), field_.shape).ravel()


def max_char_speed(system, state: GridField, t: float = 0.0) -> float:
    """Largest |characteristic speed| over the ``unit_normals`` (axes plus
    diagonals): for a conservation law at every cell, from its flux
    Jacobians; for a SystemDef at most 512 cells of ``state.points(t)``
    on a lattice strided along every axis (``_sample_cells``), since each
    costs generalized eigen-solves, so the sampled speed can miss the
    fastest cell.  A system whose fields are all constant is evaluated at
    one cell.  A law's Jacobian along a normal that is not finite at some
    cell is a ValueError naming the first such cell."""
    if isinstance(system, ConservationLaw):
        u = state.data.reshape(-1, state.m)
        normals = unit_normals(system.n)[:, None]
        with np.errstate(all="ignore"):
            a = sum(normals[..., j, None, None] * system.jacobian(j, u) for j in range(system.n))
        bad = ~np.isfinite(a).all(axis=(0, 2, 3)).reshape(state.shape)
        if bad.any():
            raise ValueError(f"the flux Jacobian is not finite at cell {first_true(bad)}")
        return max(0.0, *np.max(np.abs(np.linalg.eigvals(a)), axis=(1, 2)).tolist())
    idx = _sample_cells(state)
    return max_abs_speed(system, state.points(t).reshape(-1, state.n + 1)[idx],
                         state.data.reshape(-1, state.m)[idx])


def _rows(a: np.ndarray, rows: Optional[tuple]) -> np.ndarray:
    """Rows r0:r1 of a grid-sized array; the array itself for the whole axis."""
    return a if rows is None else a[rows[0]:rows[1]]


def _head(a: Optional[np.ndarray], rows: Optional[tuple]) -> Optional[np.ndarray]:
    """The first r1 - r0 rows of a window-sized scratch array."""
    return a if rows is None or a is None else a[:rows[1] - rows[0]]


def lxf_average(state: GridField, out: Optional[np.ndarray] = None,
                rows: Optional[tuple] = None, plan: Optional[StepPlan] = None) -> np.ndarray:
    """(1/2n) sum over axes of both neighbor translates, summed from zero
    in ``out`` (``grid.out_array``).  With ``rows`` = (r0, r1), only the
    rows r0 <= i < r1 of axis 0, which ``out`` holds.  Only ``lxf_step``
    passes ``plan``, with ``state`` one of the plan's fields and ``out``
    part of its own output: the average then reads the padded rows and
    makes no check."""
    if plan is None:
        acc, data = out_array(state.data, out, rows), state.data
        translates, (scale, two_n) = _translates(state, data.shape, rows), divisor(2.0 * state.n)
    else:
        acc, data, translates, (scale, two_n) = out, state.padded, plan.translates[rows], plan.two_n
    # the sum starts as translate + 0.0, which is 0.0 + translate bit for bit
    for ufunc, translate in translates:
        translate.shift_into(ufunc, acc, data)
    return scale(acc, two_n, out=acc)


def _translates(state: GridField, shape: tuple, rows: Optional[tuple]) -> tuple:
    """(ufunc, stencil) of the 2n translates that ``lxf_average`` sums in
    order, for the rows ``rows`` of axis 0 of an array of ``shape``."""
    return tuple((np.add if j or d < 0 else _plus_zero,
                  stencil(shape, j, state.boundary, d, rows))
                 for j in range(state.n) for d in (+1, -1))


@lru_cache(maxsize=None)
def _padded_windows(windows: tuple, length: int) -> tuple:
    """The rows (r0 + 1, r1 + 1) of a padded array, one ghost row before
    row 0, that hold each window (r0, r1) of an axis of ``length`` cells
    (None: all of them)."""
    return tuple((r0 + 1, r1 + 1) for r0, r1 in
                 ((0, length) if rows is None else rows for rows in windows))


def _plus_zero(_, translate, out=None):
    """The ufunc form of ``Stencil.shift_into`` that writes translate + 0.0
    and ignores what ``out`` held."""
    return np.add(translate, ZERO, out=out)


def single_entry_layers(mat: np.ndarray) -> np.ndarray:
    """Layers P_1..P_k of a constant (m, m) matrix, stored transposed as a
    (k, m, m) array: P_s holds the s-th nonzero of each row, taken in
    column order, so every row of a layer has at most one nonzero.  k is
    the largest number of nonzeros in a row, and at least 1."""
    m = mat.shape[0]
    cols = [np.flatnonzero(row) for row in mat]
    layers = np.zeros((max(1, *map(len, cols)), m, m))
    for a, c in enumerate(cols):
        layers[np.arange(len(c)), c, a] = mat[a, c]
    return layers


def apply_layers(layers: np.ndarray, du: np.ndarray, out: Optional[np.ndarray] = None,
                 spare: Optional[np.ndarray] = None, plus_zero: bool = True) -> np.ndarray:
    """sum_B M[A, B] du[..., B] for the layers of M, as
    du @ P_1^T + du @ P_2^T + ... + 0.0, summed left to right, written to
    ``out``; ``spare`` holds each product of the layers after the first.
    Both are arrays shaped like du, new ones when None, and refused unless
    C-contiguous (a reshape of any other would be a copy).

    Each product has one rounded term per output and exact +-0 terms
    besides.  With at most two nonzeros per row the sum does not depend
    on the order, and adding 0.0 turns -0 into +0, so the result equals
    the contraction summed from zero, einsum("AB,...B->...A", M, du), bit
    for bit; rows with more nonzeros are summed in column order.  The
    zero entries are multiplied too, so a NaN or inf in a cell makes every
    component of that cell non-finite, as in the contraction.

    ``plus_zero`` False leaves the + 0.0 out, for a caller that subtracts
    the result from a sum acc that cannot be -0.  In round-to-nearest
    a - b is -0 only when a = -0 and b = +0, so a sum that starts from +0
    and subtracts products never holds -0; and since p + 0.0 differs from
    p only where p = -0 (NaNs aside, which stay the same NaN), acc - p
    equals acc - (p + 0.0) bit for bit there."""
    m = layers.shape[-1]
    flat = du.reshape(-1, m)
    out = None if out is None else c_contiguous(out).reshape(-1, m)
    spare = None if spare is None else c_contiguous(spare, "spare").reshape(-1, m)
    acc = np.matmul(flat, layers[0], out=out)
    for layer in layers[1:]:
        np.add(acc, np.matmul(flat, layer, out=spare), out=acc)
    if plus_zero:
        np.add(acc, 0.0, out=acc)
    return acc.reshape(du.shape)


def stacked_solve(mats: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(mats, b[..., None])[..., 0] bit for bit: b divided
    by the diagonal when every matrix is diagonal, else the LU solve.

    The division is taken only when every off-diagonal entry is +-0, every
    diagonal entry is > 0, b is finite with no -0 in it and every quotient
    is finite; otherwise the whole stack is solved.  Under that guard the
    LU factors have no row swaps and +-0 multipliers, so both substitutions
    leave b as it is (they only subtract +-0 products from finite nonzero
    or +0 entries; -0 - (-0) would give +0), and the triangular solve for
    one right-hand side ends with the division (test_lxf.py checks this
    against the BLAS in use)."""
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    if (np.all(diag > 0) and np.count_nonzero(mats) == diag.size
            and np.all(np.isfinite(b)) and not np.any(np.signbit(b[b == 0]))):
        with np.errstate(over="ignore"):
            quotient = b / diag
        if np.all(np.isfinite(quotient)):
            return quotient
    return np.linalg.solve(mats, b[..., None])[..., 0]


class StepPlan:
    """What the steps on one grid share: two state buffers with one ghost
    row at each end of axis 0, as ``grid.GhostField``s (``fields``), and
    their ghost rows' sources (``grid.ghost_rows``); the row windows and
    the stencils (``grid.stencil``) of each window's average on the padded
    rows; the ``grid.divisor`` pair of the average's 2n; and for each step
    size k in ``ks`` k, k/(2h) and eps k/h^2, every operand a 0-d array
    (``core.operand``).  A step reads ``load(state)`` and returns
    ``field(state, out)``, which fills the ghost rows of the field it
    writes, so the fields that steps, guards and monitors get always hold
    their neighbours across axis 0."""

    def __init__(self, state: GridField, ks: tuple, viscosity: float = 0.0):
        shape = state.data.shape
        padded = (shape[0] + 2,) + shape[1:]
        self.fields = tuple(GhostField.around(state, np.empty(padded)) for _ in range(2))
        self.ghosts = ghost_rows(shape[0], state.boundary)
        self.windows = row_windows(state.data)[0]
        self.translates = {rows: _translates(state, padded, read) for rows, read
                           in zip(self.windows, _padded_windows(self.windows, shape[0]))}
        scale, two_n = divisor(2.0 * state.n)
        self.two_n = scale, operand(two_n)
        h = state.h[0]
        self.k = {k: operand(k) for k in ks}
        self.heat = {k: (operand(k / (2.0 * h)), operand(viscosity * k / h ** 2))
                     for k in ks}

    def _fill(self, field: GhostField) -> GhostField:
        padded, ((ghost0, source0), (ghost1, source1)) = field.padded, self.ghosts
        padded[ghost0] = padded[source0]
        padded[ghost1] = padded[source1]
        return field

    def load(self, state: GridField) -> GhostField:
        """``state`` as one of the plan's fields: itself, or else buffer 0
        after a copy of its data, with the ghost rows filled."""
        if state is self.fields[0] or state is self.fields[1]:
            return state
        np.copyto(self.fields[0].data, state.data)
        return self._fill(self.fields[0])

    def field(self, state: GridField, out: np.ndarray) -> GridField:
        """The state a step wrote to ``out``: the plan's field that holds
        ``out``, its ghost rows filled, else ``state`` holding ``out``."""
        for field_ in self.fields:
            if out is field_.data:
                return self._fill(field_)
        return state.with_data(out)


def _workspace() -> Callable[[str, tuple], np.ndarray]:
    """scratch(name, shape): an array kept between calls under ``name``,
    allocated again only when the shape changes."""
    arrays = {}

    def scratch(name, shape):
        buf = arrays.get(name)
        if buf is None or buf.shape != shape:
            buf = arrays[name] = np.empty(shape)
        return buf

    return scratch


def _window_rhs(source: Optional[Callable], fluxes: Sequence[Optional[Callable]],
                coeffs: Sequence[Optional[MatrixField]], m0: Optional[MatrixField]
                ) -> Callable[[float, GridField], np.ndarray]:
    """The RHS closure ``rhs(t, state)`` of M0^-1 [N - sum_j C_j D_j w_j]
    behind ``system_rhs`` and ``law_rhs``: w_j = ``fluxes[j](u)`` (u for
    None), C_j = ``coeffs[j]`` (I for None), N = ``source`` (0 for None)
    and M0 = ``m0`` (no solve for None or I).  It writes to a target array
    of its own, which the next call overwrites, and keeps the differences
    and products in scratch sized to the largest row window, so a call
    allocates only what the user's callables return.  Each window gets
    every axis's terms before the next, summed from N (or 0.0) in axis
    order.  The differences read a step's state (a ``grid.GhostField``)
    on its padded rows, any other on ``state.data`` with the edge cells.
    The source and fluxes are evaluated once per call on the whole grid,
    the fluxes on the rows the differences read (``_flux_values``), and
    checked by ``batch_checked``; a state-dependent C_j is
    evaluated in the first window and dropped after the last, a constant
    one is split into single-entry layers here (``apply_layers``), whose
    products skip the + 0.0 when there is no source: the sum then starts
    from +0 and never holds -0.  The points ``state.points(t)`` are built
    only for a source or a field of x.
    A state-dependent M0 goes through ``stacked_solve``; a constant one is
    solved against all cells at once and not divided (its solve multiplies
    by reciprocals, which differs from division in the last bit)."""
    if m0 is not None and m0.const is not None and np.array_equal(m0.const, np.eye(m0.m)):
        m0 = None
    needs_x = source is not None or any(c is not None and c.const is None and not c.state_only
                                        for c in (m0, *coeffs))
    layers = [None if c is None or c.const is None else single_entry_layers(c.const)
              for c in coeffs]
    needs_spare = any(lay is not None and len(lay) > 1 for lay in layers)
    scratch = _workspace()

    def rhs(t, state):
        u = state.data
        windows, depth = row_windows(u)
        # a step's state reads its neighbours across axis 0 in its ghost rows
        padded = getattr(state, "padded", None)
        padded, reads = ((u, windows) if padded is None
                         else (padded, _padded_windows(windows, u.shape[0])))
        target = scratch("target", u.shape)
        part = (depth,) + u.shape[1:]
        du = scratch("du", part)
        product = scratch("product", part) if any(coeffs) else None
        spare = scratch("spare", part) if needs_spare else None
        x = state.points(t) if needs_x else None
        src = None if source is None else batch_checked(source(x, u), u.shape, 1, "source")
        ws = [padded if f is None else _flux_values(f, f"flux[{j}]", u, padded)
              for j, f in enumerate(fluxes)]
        fields = [None] * len(coeffs)
        for rows, read in zip(windows, reads):
            acc, du_w, product_w = _rows(target, rows), _head(du, rows), _head(product, rows)
            # the sum starts from 0.0 or the source: start - C_1 D_1 w_1
            start = ZERO if src is None else _rows(src, rows)
            for j, coeff in enumerate(coeffs):
                centered_diff(state, j, ws[j], out=du_w, rows=read)
                if layers[j] is not None:
                    apply_layers(layers[j], du_w, out=product_w, spare=_head(spare, rows),
                                 plus_zero=source is not None)
                elif coeff is not None:
                    if fields[j] is None:
                        fields[j] = coeff(x, u)
                    np.matmul(_rows(fields[j], rows), du_w[..., None],
                              out=product_w.reshape(product_w.shape + (1,)))
                    if rows is windows[-1]:
                        # one field at a time is alive when the grid is one window
                        fields[j] = None
                np.subtract(acc if j else start, du_w if coeff is None else product_w, out=acc)
        if m0 is not None:
            np.copyto(target, stacked_solve(m0(x, u), target) if m0.const is None else
                      np.linalg.solve(m0.const, target.reshape(-1, m0.m).T).T.reshape(u.shape))
        return target

    return rhs


def _flux_values(flux: Callable, what: str, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``flux(rows)`` as floats, one value per row of ``rows``: ``data`` or
    its padded array, whose ghost rows get their source cells' values bit
    for bit, since a flux is evaluated cell by cell.  A flux of another
    shape is refused as ``batch_checked`` refuses ``flux(data)``, naming
    the grid's shape."""
    values = np.asarray(flux(rows), dtype=float)
    if values.shape != rows.shape:
        batch_checked(flux(data), data.shape, 1, what)
        batch_checked(values, rows.shape, 1, what)
    return values


def system_rhs(sys: SystemDef) -> Callable[[float, GridField], np.ndarray]:
    """RHS closure ``rhs(t, state)`` of M0^-1 [N - sum_j M^j D_j u] for a
    quasi-linear system: ``_window_rhs`` with w_j = u and C_j = M^j."""
    return _window_rhs(sys.source, (None,) * sys.n, sys.coeff[1:], sys.coeff[0])


def law_rhs(law: ConservationLaw) -> Callable[[float, GridField], np.ndarray]:
    """RHS closure ``rhs(t, state)`` of N - sum_j D_j f^j(u) for a
    conservation law: ``_window_rhs`` with w_j = f^j(u), C_j = I and no
    M0."""
    return _window_rhs(law.source, law.flux, (None,) * law.n, None)


def lxf_step(state: GridField, rhs: Callable[[float, GridField], np.ndarray],
             config: SchemeConfig, t: float = 0.0, k: Optional[float] = None,
             out: Optional[np.ndarray] = None, plan: Optional[StepPlan] = None) -> GridField:
    """One Lax-Friedrichs step of size k (default lam * h), its state's
    data written to ``out`` (``grid.out_array``).  ``rhs`` gets the state
    as ``StepPlan.load`` gives it, with ghost rows.  The array
    ``rhs(t, state)`` returns is scaled by k in place, as the RHS closures
    allow.  The average and the update run window by window
    (``row_windows``).  Only ``run`` passes ``plan``, built for this grid
    and k, with ``out`` the data of one of its fields: the step then makes
    no check.  A step without one builds its own plan, which copies the
    state into a buffer of it."""
    if plan is None:
        k = config.lam * _uniform_h(state) if k is None else k
        out = out_array(state.data, out)
        plan = StepPlan(state, (k,))
    state = plan.load(state)
    scaled = rhs(t, state)
    k = plan.k[k]
    for rows in plan.windows:
        part, step = _rows(out, rows), _rows(scaled, rows)
        lxf_average(state, out=part, rows=rows, plan=plan)
        np.multiply(step, k, out=step)
        np.add(part, step, out=part)
    return plan.field(state, out)


def viscous_step(state: GridField, law: ConservationLaw, config: SchemeConfig,
                 t: float = 0.0, k: Optional[float] = None,
                 out: Optional[np.ndarray] = None,
                 spare: Optional[np.ndarray] = None,
                 plan: Optional[StepPlan] = None) -> GridField:
    """Forward-Euler step of d_t u + d_x f(u) = eps d_xx u (1D only):
    centered flux difference plus the explicit three-point heat stencil.
    The new data is written to ``out``; ``spare`` holds the heat term.
    Both come from ``grid.out_array``, and ``spare`` must not overlap
    ``out`` either.  The state (``StepPlan.load``) and its flux are read
    on the padded rows, so each translate is a slice of rows.  Only ``run``
    passes ``plan``, built for this grid, k and the viscosity, with ``out``
    and ``spare`` its own buffers, as in ``lxf_step``: the step then makes
    no check."""
    if state.n != 1 or law.n != 1:
        raise ValueError("viscous stepping is implemented for one space dimension")
    if plan is None:
        out = out_array(state.data, out)
        # checked against the state, then against out
        spare = out_array(out, out_array(state.data, spare, name="spare"), name="spare")
        k = config.lam * state.h[0] if k is None else k
        plan = StepPlan(state, (k,), config.viscosity)
    state = plan.load(state)
    data, u = state.data, state.padded
    flux_scale, heat_scale = plan.heat[k]
    # the operations of data - c (tau+ f - tau- f) + d ((tau+ u - 2u) + tau- u),
    # in that order; the heat term is built in spare, from 2u (data + data,
    # without a scalar operand) up, after the flux is dropped
    flux = _flux_values(law.flux[0], "flux[0]", data, u)
    np.subtract(flux[2:], flux[:-2], out=out)
    del flux
    np.add(data, data, out=spare)
    np.subtract(u[2:], spare, out=spare)
    np.add(spare, u[:-2], out=spare)
    np.multiply(spare, heat_scale, out=spare)
    np.multiply(out, flux_scale, out=out)
    np.subtract(data, out, out=out)
    np.add(out, spare, out=out)
    if law.source is not None:
        out += plan.k[k] * batch_checked(law.source(state.points(t), data), data.shape, 1,
                                         "source")
    return plan.field(state, out)


def _box_violation(system, state: GridField) -> Optional[tuple]:
    """(cell, component) of the first state outside the system's box, or
    (cell, None) for the first cell its ``admissible`` test rejects; None
    when every state is admissible."""
    box = getattr(system, "state_box", None)
    if box is not None and isinstance(system, SystemDef):
        lo, hi = box
        outside = (state.data < lo) | (state.data > hi)
        if outside.any():
            *cell, component = first_true(outside)
            return tuple(cell), component
    if getattr(system, "admissible", None) is not None:
        ok = _per_cell(system, "admissible", state) != 0
        if not ok.all():
            return first_true(~ok), None
    return None


def _per_cell(system, name: str, state: GridField) -> np.ndarray:
    """``getattr(system, name)(state.data)`` as floats, one per cell or refused."""
    return batch_checked(getattr(system, name)(state.data), state.data.shape[:-1], 0, name)


def _state_violation(system, state: GridField) -> Optional[tuple]:
    """(what, cell, component) for the first non-finite value, else for
    the first state outside the system's box (``_box_violation``); None
    when the state is finite and admissible."""
    if not state.is_finite():
        *cell, component = state.first_nonfinite()
        return "non-finite state", tuple(cell), component
    violation = _box_violation(system, state)
    return None if violation is None else ("state outside box", *violation)


def _exceeds_cfl(lam_a_n: float, cfl_safety: float) -> bool:
    """Whether lambda * a * n breaks the CFL bound lambda * a * n <= cfl_safety."""
    return lam_a_n > cfl_safety * (1.0 + 1e-9) + 1e-12


def check_stability(system, initial: GridField, config: SchemeConfig) -> float:
    """Enforce the CFL precondition lambda * a_star * n <= cfl_safety (and
    the parabolic bound when viscosity is on); returns a_star, the maximum
    of the system's ``max_speed`` over every cell when it has one, else
    ``max_char_speed`` (every cell of a law, sampled cells of a system)."""
    a_star = (max_char_speed(system, initial, t=0.0)
              if getattr(system, "max_speed", None) is None
              else float(np.max(_per_cell(system, "max_speed", initial))))
    lam_a_n = config.lam * a_star * initial.n
    if _exceeds_cfl(lam_a_n, config.cfl_safety):
        raise StabilityError(
            f"lambda * a_star * n = {lam_a_n:.6g} exceeds cfl_safety = {config.cfl_safety}")
    if config.viscosity > 0:
        h = _uniform_h(initial)
        k = config.lam * h
        bound = config.cfl_safety * h ** 2 / (2.0 * config.viscosity)
        if k > bound * (1.0 + 1e-9):
            raise StabilityError(f"k = {k:.6g} exceeds the parabolic bound {bound:.6g}")
    return a_star


def _cfl_violation(system: SystemDef, config: SchemeConfig,
                   state: GridField) -> Optional[tuple]:
    """(what, cell, None, detail) at the cell of the largest ``max_speed``
    when lambda * a * n breaks the CFL bound on ``state``, with lambda * a *
    n and cfl_safety in ``detail``; None when the bound holds."""
    speeds = _per_cell(system, "max_speed", state)
    lam_a_n = config.lam * float(np.max(speeds)) * state.n
    if not _exceeds_cfl(lam_a_n, config.cfl_safety):
        return None
    cell = tuple(int(i) for i in np.unravel_index(int(np.argmax(speeds)), speeds.shape))
    return (f"lambda * a * n = {lam_a_n:.6g} exceeds cfl_safety = {config.cfl_safety}",
            cell, None, {"lambda_a_n": float(lam_a_n), "cfl_safety": config.cfl_safety})


def _guards(system, config: SchemeConfig) -> tuple:
    """The checks ``run`` applies to each new state, in order, each a
    callable of the state that returns a violation or None: finite and
    admissible (``_state_violation``), then the CFL bound for a model
    with ``max_speed`` and a field that is not constant (a law has no
    ``max_speed``).  With every field constant a(t) = a(0), which
    ``check_stability`` has checked."""
    guards = (partial(_state_violation, system),)
    if getattr(system, "max_speed", None) is not None and not system.all_constant:
        guards += (partial(_cfl_violation, system, config),)
    return guards


def run(system, initial: GridField, config: SchemeConfig,
        monitors: Sequence = ()) -> Trace:
    """Integrate from t = 0 to t_end, recording snapshots and monitor
    values every ``output_stride`` steps (plus the initial and final
    states).  Identical inputs produce bit-identical traces.

    ``system`` is a SystemDef or a ConservationLaw; a positive
    config.viscosity selects the viscous stepper (1D laws only).
    ``monitors`` are objects with a name and evaluate(snapshot) -> float.
    Any other ``system`` raises TypeError; a model whose (n, m) is not the
    grid's, and viscosity on a SystemDef or on a grid of more than one
    dimension, raise ValueError, before any member of the model is
    evaluated.

    The run's ``StepPlan`` owns two state buffers with ghost rows, and
    the run alternates between them: step i reads one and writes the
    interior of the other, ``plan.fields[i % 2]``, through the steppers'
    ``out=``.  The RHS closure it builds keeps one scratch set, and a
    viscous run keeps one more array for the heat term.  A state handed to
    a monitor is valid only during that call; the trace keeps copies.

    Each new state goes through the run's ``_guards``; the first violation
    ends the run with an ``abort`` event that names the step, t and the
    cell (for the CFL guard also ``lambda_a_n`` and ``cfl_safety``).
    """
    if not isinstance(system, (ConservationLaw, SystemDef)):
        raise TypeError(f"cannot integrate object of type {type(system).__name__}")
    if (system.n, system.m) != (initial.n, initial.m):
        raise ValueError(f"the model has (n, m) = {(system.n, system.m)} but the grid "
                         f"has (n, m) = {(initial.n, initial.m)}")
    if config.viscosity > 0:
        if not isinstance(system, ConservationLaw):
            raise ValueError("viscosity applies to conservation laws only")
        if initial.n != 1:
            raise ValueError("viscous stepping is implemented for one space dimension")
    trace = Trace(monitors={mon.name: [] for mon in monitors})

    def record(t, state):
        trace.times.append(t)
        trace.snapshots.append(state.with_data(state.data.copy()))
        for mon in monitors:
            trace.monitors[mon.name].append((t, float(mon.evaluate(state))))

    def abort(step, t, what, cell, component, detail=None):
        where = f"at cell {cell}" + ("" if component is None else f" component {component}")
        trace.error = f"{what} {where} after step {step}"
        trace.events.append({"event": "abort", "step": step, "t": t,
                             "error": trace.error, "cell": cell,
                             "component": component, **(detail or {})})
        return trace

    # a non-finite or inadmissible initial state aborts before any
    # coefficient is evaluated
    violation = _state_violation(system, initial)
    if violation:
        record(0.0, initial)
        return abort(0, 0.0, *violation)

    a_star = check_stability(system, initial, config)
    trace.a_star = a_star

    h = _uniform_h(initial)
    k = config.lam * h
    tiny = 1e-12 * max(1.0, config.t_end)
    n_full = int(np.floor((config.t_end + tiny) / k))
    remainder = config.t_end - n_full * k
    if remainder <= tiny:
        remainder = 0.0
    total_steps = n_full + (1 if remainder else 0)

    # one plan for every step, each step called by its module name
    plan = StepPlan(initial, (k, remainder), config.viscosity)
    if config.viscosity > 0:
        stepper = partial(viscous_step, law=system, config=config,
                          spare=np.empty(initial.data.shape), plan=plan)
    else:
        rhs = law_rhs(system) if isinstance(system, ConservationLaw) else system_rhs(system)
        stepper = partial(lxf_step, rhs=rhs, config=config, plan=plan)
    guards = _guards(system, config)

    trace.events.append({"event": "stability", "a_star": a_star,
                         "lambda": config.lam, "k": k, "steps": total_steps,
                         "ok": True})

    # step i writes plan.fields[i % 2] and reads the other (at i = 1 the
    # initial state, which the step copies into plan.fields[0])
    state = initial
    record(0.0, state)
    t = 0.0
    for i in range(1, total_steps + 1):
        k_step = k if i <= n_full else remainder
        state = stepper(state, t=t, k=k_step, out=plan.fields[i % 2].data)
        t = i * k if i <= n_full else config.t_end
        trace.steps = i
        for guard in guards:
            violation = guard(state)
            if violation:
                return abort(i, t, *violation)
        if i % config.output_stride == 0 or i == total_steps:
            record(t, state)

    trace.completed = True
    trace.events.append({"event": "done", "steps": trace.steps})
    return trace
