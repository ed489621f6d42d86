"""Lax-Friedrichs time stepping for quasi-linear systems and conservation
laws, plus the explicit viscous regularization for 1D laws.

One step replaces u(t) by the average of its 2n spatial neighbors and the
space derivatives by centered differences:

    u(t+k) = (1/2n) sum_j (tau_j u + tau_j^-1 u) + k * RHS,

with RHS = M0^-1 [N - M^j D_j u] for quasi-linear systems and
RHS = N - sum_j (tau_j f^j(u) - tau_j^-1 f^j(u)) / 2h for conservation
laws.  A constant M^j is applied as one matrix product per single-entry
layer (``single_entry_layers``), summed left to right in column order;
on rows with at most two nonzeros that equals the per-cell contraction
bit for bit.  The ratio lambda = k/h is fixed; stability is enforced at run
start as lambda * a_star <= cfl_safety / n with a_star the sampled
maximum characteristic speed (and k <= cfl_safety * h^2 / (2 eps) when
viscosity is on).  Sources and state-dependent coefficients are evaluated
fully explicitly at (t, x, u(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import SystemDef, batch_checked, characteristic_speeds, unit_normals
from .entropy import ConservationLaw
from .grid import (GridField, centered_diff, first_true, neighbour_difference,
                   second_difference, shift_into)


class StabilityError(RuntimeError):
    """CFL precondition violated at run start."""


@dataclass(frozen=True)
class SchemeConfig:
    """Integration parameters.  The time step is always k = lam * h."""

    lam: float                  # CFL ratio k/h
    t_end: float
    cfl_safety: float = 0.9
    output_stride: int = 1
    viscosity: float = 0.0      # eps >= 0; 1D conservation laws only

    def __post_init__(self):
        for name in ("lam", "t_end", "cfl_safety", "viscosity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lam <= 0:
            raise ValueError("lambda (k/h) must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be non-negative")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.output_stride < 1:
            raise ValueError("output_stride must be >= 1")
        if self.viscosity < 0:
            raise ValueError("viscosity must be non-negative")


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


def _sample_cells(field_: GridField, max_samples: int = 512) -> np.ndarray:
    total = int(np.prod(field_.shape))
    stride = max(1, -(-total // max_samples))
    return np.arange(0, total, stride)


def _spacetime(t: float, coords: np.ndarray) -> np.ndarray:
    """Points (t, x) of shape (..., n+1) for space points of shape (..., n)."""
    return np.concatenate([np.full(coords.shape[:-1] + (1,), t), coords], axis=-1)


def max_char_speed(system, state: GridField, t: float = 0.0) -> float:
    """Largest |characteristic speed| over sampled cells and the unit
    normals of ``unit_normals`` (axes plus diagonals).  A system whose
    fields are all constant is evaluated at one cell."""
    idx = _sample_cells(state)
    u = state.data.reshape(-1, state.m)[idx]
    normals = unit_normals(system.n)
    worst = 0.0
    if isinstance(system, ConservationLaw):
        jacs = [system.jacobian(j, u) for j in range(system.n)]
        for nu in normals:
            a = sum(nu[j] * jacs[j] for j in range(system.n))
            worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(a)))))
        return worst
    x = _spacetime(t, state.coords().reshape(-1, state.n)[idx])
    fields = (*system.coeff, system.symmetrizer)
    if all(f is None or f.const is not None for f in fields):
        x, u = x[:1], u[:1]
    for nu in normals:
        speeds = characteristic_speeds(system, x, u, nu)
        worst = max(worst, float(np.max(np.abs(speeds))))
    return worst


def lxf_average(state: GridField) -> np.ndarray:
    """(1/2n) sum over axes of both neighbor translates."""
    acc = np.zeros_like(state.data)
    for j in range(state.n):
        shift_into(np.add, acc, state.data, j, +1, state.boundary)
        shift_into(np.add, acc, state.data, j, -1, state.boundary)
    acc /= 2.0 * state.n
    return acc


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


def apply_layers(layers: np.ndarray, du: np.ndarray) -> np.ndarray:
    """sum_B M[A, B] du[..., B] for the layers of M, as
    du @ P_1^T + du @ P_2^T + ... + 0.0, summed left to right.

    Each product has one rounded term per output and exact +-0 terms
    besides.  With at most two nonzeros per row the sum does not depend
    on the order, and adding 0.0 turns -0 into +0, so the result equals
    the contraction summed from zero, einsum("AB,...B->...A", M, du), bit
    for bit; rows with more nonzeros are summed in column order.  The
    zero entries are multiplied too, so a NaN or inf in a cell makes every
    component of that cell non-finite, as in the contraction."""
    flat = du.reshape(-1, layers.shape[-1])
    out = flat @ layers[0]
    for layer in layers[1:]:
        out += flat @ layer
    out += 0.0
    return out.reshape(du.shape)


def system_rhs(sys: SystemDef) -> Callable[[float, GridField], np.ndarray]:
    """RHS evaluator M0^-1 [N - M^j D_j u] for a quasi-linear system.

    Every state-dependent coefficient and the source are evaluated once
    per call on the whole grid (the batched contract of SystemDef) and
    applied by stacked products and solves.  A constant M^j is split into
    its single-entry layers once, here, and applied to all cells by
    ``apply_layers``: one matrix product per layer, summed in layer order;
    a constant M0 is factorized against all cells at once.  The cell
    coordinates are built only when some field or the source needs them,
    and an identity M0 skips the solve.
    """
    m0_const = sys.coeff[0].const
    m0_is_identity = m0_const is not None and np.array_equal(m0_const, np.eye(sys.m))
    needs_x = sys.source is not None or any(c.const is None for c in sys.coeff)
    layers = [None if c.const is None else single_entry_layers(c.const)
              for c in sys.coeff[1:]]

    def rhs(t, state):
        u = state.data
        x = _spacetime(t, state.coords()) if needs_x else None
        if sys.source is None:
            target = np.zeros_like(u)
        else:
            target = batch_checked(sys.source(x, u), u.shape, 1, "source").copy()
        for j in range(sys.n):
            du = centered_diff(state, j)
            target -= (np.matmul(sys.coeff[j + 1](x, u), du[..., None])[..., 0]
                       if layers[j] is None else apply_layers(layers[j], du))
        if m0_is_identity:
            return target
        if m0_const is not None:
            return np.linalg.solve(m0_const, target.reshape(-1, sys.m).T).T.reshape(u.shape)
        return np.linalg.solve(sys.coeff[0](x, u), target[..., None])[..., 0]

    return rhs


def law_rhs(law: ConservationLaw) -> Callable[[float, GridField], np.ndarray]:
    """RHS evaluator N - sum_j (tau_j f^j - tau_j^-1 f^j) / 2h for a
    conservation law (flux evaluators are vectorized over cells)."""

    def rhs(t, state):
        out = np.zeros_like(state.data)
        for j in range(law.n):
            fu = np.asarray(law.flux[j](state.data), dtype=float)
            out -= centered_diff(state, j, fu)
        if law.source is not None:
            x = _spacetime(t, state.coords())
            out += np.asarray(law.source(x, state.data), dtype=float)
        return out

    return rhs


def lxf_step(state: GridField, rhs: Callable[[float, GridField], np.ndarray],
             config: SchemeConfig, t: float = 0.0,
             k: Optional[float] = None) -> GridField:
    """One Lax-Friedrichs step of size k (default lam * h)."""
    if k is None:
        k = config.lam * _uniform_h(state)
    new = lxf_average(state)
    new += k * rhs(t, state)
    return state.with_data(new)


def viscous_step(state: GridField, law: ConservationLaw, config: SchemeConfig,
                 t: float = 0.0, k: Optional[float] = None) -> GridField:
    """Forward-Euler step of d_t u + d_x f(u) = eps d_xx u (1D only):
    centered flux difference plus the explicit three-point heat stencil."""
    if state.n != 1 or law.n != 1:
        raise ValueError("viscous stepping is implemented for one space dimension")
    h = state.h[0]
    k = config.lam * h if k is None else k
    eps = config.viscosity
    data = state.data
    fu = np.asarray(law.flux[0](data), dtype=float)
    # the operations of data - c (tau+ f - tau- f) + d ((tau+ u - 2u) + tau- u),
    # in that order
    flux_diff = neighbour_difference(fu, 0, state.boundary)
    flux_diff *= k / (2.0 * h)
    laplacian = second_difference(data, 0, state.boundary)
    laplacian *= eps * k / h ** 2
    new = data - flux_diff
    new += laplacian
    if law.source is not None:
        x = _spacetime(t, state.coords())
        new = new + k * np.asarray(law.source(x, data), dtype=float)
    return state.with_data(new)


def _box_violation(system, state: GridField) -> Optional[tuple]:
    """(cell, component) of the first state outside the system's box, or
    (cell, None) for the first cell its ``admissible`` test rejects; None
    when every state is admissible."""
    box = getattr(system, "state_box", None)
    if box is not None and isinstance(system, SystemDef):
        lo, hi = (np.asarray(b, dtype=float) for b in box)
        outside = (state.data < lo) | (state.data > hi)
        if outside.any():
            *cell, component = first_true(outside)
            return tuple(cell), component
    admissible = getattr(system, "admissible", None)
    if admissible is not None:
        ok = np.asarray(admissible(state.data), dtype=bool)
        if not ok.all():
            return first_true(~ok), None
    return None


def _state_violation(system, state: GridField) -> Optional[tuple]:
    """(what, cell, component) for the first non-finite value, else for
    the first state outside the system's box (``_box_violation``); None
    when the state is finite and admissible."""
    if not state.is_finite():
        *cell, component = state.first_nonfinite()
        return "non-finite state", tuple(cell), component
    violation = _box_violation(system, state)
    return None if violation is None else ("state outside box", *violation)


def check_stability(system, initial: GridField, config: SchemeConfig) -> float:
    """Enforce the CFL precondition; returns the sampled max speed."""
    a_star = max_char_speed(system, initial, t=0.0)
    n = initial.n
    if config.lam * a_star * n > config.cfl_safety * (1.0 + 1e-9) + 1e-12:
        raise StabilityError(
            f"lambda * a_star * n = {config.lam * a_star * n:.6g} exceeds "
            f"cfl_safety = {config.cfl_safety}")
    if config.viscosity > 0:
        h = _uniform_h(initial)
        k = config.lam * h
        bound = config.cfl_safety * h ** 2 / (2.0 * config.viscosity)
        if k > bound * (1.0 + 1e-9):
            raise StabilityError(
                f"k = {k:.6g} exceeds the parabolic bound {bound:.6g}")
    return a_star


def run(system, initial: GridField, config: SchemeConfig,
        monitors: Sequence = ()) -> Trace:
    """Integrate from t = 0 to t_end, recording snapshots and monitor
    values every ``output_stride`` steps (plus the initial and final
    states).  Identical inputs produce bit-identical traces.

    ``system`` is a SystemDef or a ConservationLaw; a positive
    config.viscosity selects the viscous stepper (1D laws only).
    ``monitors`` are objects with a name and evaluate(snapshot) -> float.
    """
    trace = Trace(monitors={mon.name: [] for mon in monitors})

    def record(t, state):
        trace.times.append(t)
        trace.snapshots.append(state.with_data(state.data.copy()))
        for mon in monitors:
            trace.monitors[mon.name].append((t, float(mon.evaluate(state))))

    def abort(step, t, what, cell, component):
        where = f"at cell {cell}" + ("" if component is None else f" component {component}")
        trace.error = f"{what} {where} after step {step}"
        trace.events.append({"event": "abort", "step": step, "t": t,
                             "error": trace.error, "cell": cell,
                             "component": component})
        return trace

    # a non-finite or inadmissible initial state aborts before any
    # coefficient is evaluated
    violation = _state_violation(system, initial)
    if violation:
        record(0.0, initial)
        return abort(0, 0.0, *violation)

    a_star = check_stability(system, initial, config)
    trace.a_star = a_star

    viscous = config.viscosity > 0
    if viscous:
        if not isinstance(system, ConservationLaw):
            raise ValueError("viscosity applies to conservation laws only")
        stepper = lambda st, t, k: viscous_step(st, system, config, t=t, k=k)
    elif isinstance(system, ConservationLaw):
        rhs = law_rhs(system)
        stepper = lambda st, t, k: lxf_step(st, rhs, config, t=t, k=k)
    elif isinstance(system, SystemDef):
        rhs = system_rhs(system)
        stepper = lambda st, t, k: lxf_step(st, rhs, config, t=t, k=k)
    else:
        raise TypeError(f"cannot integrate object of type {type(system).__name__}")

    h = _uniform_h(initial)
    k = config.lam * h
    tiny = 1e-12 * max(1.0, config.t_end)
    n_full = int(np.floor((config.t_end + tiny) / k))
    remainder = config.t_end - n_full * k
    if remainder <= tiny:
        remainder = 0.0
    total_steps = n_full + (1 if remainder else 0)

    trace.events.append({"event": "stability", "a_star": a_star,
                         "lambda": config.lam, "k": k, "steps": total_steps,
                         "ok": True})

    state = initial
    record(0.0, state)
    t = 0.0
    for i in range(1, total_steps + 1):
        k_step = k if i <= n_full else remainder
        state = stepper(state, t, k_step)
        t = i * k if i <= n_full else config.t_end
        trace.steps = i
        violation = _state_violation(system, state)
        if violation:
            return abort(i, t, *violation)
        if i % config.output_stride == 0 or i == total_steps:
            record(t, state)

    trace.completed = True
    trace.events.append({"event": "done", "steps": trace.steps})
    return trace
