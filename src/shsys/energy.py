"""Energy diagnostics for linear systems Q du/dt + A^j du/dx_j + B u = f
with symmetric Q, A^j and Q positive definite.

Multiplying by u^T gives the balance

    d_t (u^T Q u) + d_j (u^T A^j u) + u^T C u = 2 u^T f,
    C = 2B - d_t Q - d_j A^j,

so u exp(-lam t) obeys the same balance with C replaced by C + 2 lam Q,
which is positive definite for lam large enough.  Localized data stay
inside a cone whose slope bounds the generalized eigenvalues of
(sum_j nu_j A^j, Q); the support test checks that numerically computed
solutions vanish identically outside that cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fd
from .core import (MatrixField, SystemDef, _asymmetry, _sample_batch, _sym_part, ldlt_pivots,
                   max_abs_speed, positive_definite, spacetime)
from .grid import GridField


def _coefficient(c, m: int) -> MatrixField:
    """A coefficient given as an (m, m) array or a batched callable
    (t, x) -> (..., m, m), as a MatrixField of space-time points
    (t, x_1..x_n), the contract of SystemDef."""
    if callable(c):
        return MatrixField(m, lambda xst, u: c(xst[..., 0], xst[..., 1:]))
    mat = np.asarray(c, dtype=float)
    if mat.shape != (m, m):
        raise ValueError(f"coefficient must be {m} x {m}, got {mat.shape}")
    return MatrixField.constant(mat)


def _points(sys, t, x) -> np.ndarray:
    """Space-time points (t, x) as a non-empty (S, n+1) stack in C order."""
    return _sample_batch(sys, spacetime(t, x), np.zeros(sys.m))[0].reshape(-1, sys.n + 1)


def _at(field: MatrixField, points) -> np.ndarray:
    """``field`` at space-time points (..., n+1) as (..., m, m), with u = 0:
    linear coefficients do not read the state."""
    return np.broadcast_to(field(points, np.zeros(field.m)),
                           points.shape[:-1] + (field.m, field.m))


class LinearSystem:
    """Container for Q, A^j, B and the forcing of a linear system.

    Coefficients may be constant matrices or batched callables of (t, x):
    x of shape (..., n) and t an array of shape (...) give (..., m, m),
    and the forcing likewise gives (..., m).  ``q``, ``a[j]`` and ``b`` are
    stored as MatrixFields of the space-time points (t, x_1..x_n), the
    contract of SystemDef.  ``validate_on`` verifies symmetry of Q and the
    A^j, and positivity of Q, at sampled points.
    """

    def __init__(self, n: int, m: int, q, a: Sequence, b=None, forcing=None):
        if len(a) != n:
            raise ValueError(f"need n = {n} advection coefficients, got {len(a)}")
        self.n = int(n)
        self.m = int(m)
        self.q = _coefficient(q, m)
        self.a = tuple(_coefficient(aj, m) for aj in a)
        self.b = None if b is None else _coefficient(b, m)
        self.forcing = forcing

    def validate_on(self, t, x) -> float:
        """Check symmetry of Q, A^j (to SYMMETRY_RTOL) and min pivot of Q > 0 at
        space points x (..., n) and times t (a float or (...)); returns the
        smallest Q pivot seen."""
        points = _points(self, t, x)
        names = ["Q"] + [f"A^{j + 1}" for j in range(self.n)]
        mats = [_at(c, points) for c in (self.q, *self.a)]
        asym, bad = _asymmetry(np.stack(mats, axis=1))
        if bad.any():
            i, k = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"{names[k]} asymmetric by {asym[i, k]:.3e} "
                             f"at t={points[i, 0]}, x={points[i, 1:]}")
        min_pivot = float(np.min(ldlt_pivots(_sym_part(mats[0]))))
        if min_pivot <= 0.0:
            raise ValueError(f"Q has min pivot {min_pivot:.3e} <= 0.0")
        return min_pivot

    def as_system(self) -> SystemDef:
        """Quasi-linear view M^0 = Q, M^j = A^j, N = f - B u for stepping."""
        source = None
        if self.b is not None or self.forcing is not None:
            def source(xst, u):
                out = np.zeros(np.shape(u))
                if self.forcing is not None:
                    out += np.asarray(self.forcing(xst[..., 0], xst[..., 1:]), dtype=float)
                if self.b is not None:
                    out -= np.matmul(self.b(xst, u), u[..., None])[..., 0]
                return out

        return SystemDef(n=self.n, m=self.m, coeff=(self.q, *self.a), source=source)


def energy(field: GridField, q, t: float = 0.0) -> float:
    """Integral of u^T Q u over the grid (cell sum times cell volume).

    ``q`` is a constant (m, m) matrix or a batched callable
    (t, x) -> (..., m, m), evaluated like a LinearSystem coefficient at the
    cell centers, t included as an array.  The reduction is numpy's
    fixed-topology pairwise sum over lexicographic cell order, so repeated
    runs are bit-identical.
    """
    if not field.is_finite():
        raise ValueError(f"non-finite field value at cell {field.first_nonfinite()}")
    u = field.data.reshape(-1, field.m)
    q = _coefficient(q, field.m)
    if q.const is None:
        mat = _at(q, field.points(t).reshape(-1, field.n + 1))
        dens = np.einsum("ca,cab,cb->c", u, mat, u)
    else:
        dens = np.einsum("ca,ab,cb->c", u, q.const, u)
    return float(np.sum(dens) * field.cell_volume())


def c_matrix(sys: LinearSystem, t, x) -> np.ndarray:
    """C = 2B - d_t Q - d_j A^j at (t, x), x of shape (..., n) and t a float
    or of shape (...), as (..., m, m), by centered differences along each
    space-time axis whose coefficient is not constant (exact up to rounding
    for coefficients polynomial of degree <= 2)."""
    point = spacetime(t, x)
    c = np.zeros(point.shape[:-1] + (sys.m, sys.m))
    if sys.b is not None:
        c += 2.0 * _at(sys.b, point)
    for alpha, coeff in enumerate((sys.q, *sys.a)):
        if coeff.const is not None:
            continue
        h = fd.STEP_FIRST * np.maximum(1.0, np.abs(point[..., alpha]))
        e = np.zeros_like(point)
        e[..., alpha] = h
        c -= (_at(coeff, point + e) - _at(coeff, point - e)) / (2.0 * h[..., None, None])
    return c


@dataclass(frozen=True)
class DampingResult:
    lam: float
    marginal: bool  # PD holds only at the tolerance boundary (lam -> 0+)


def damping_lambda(sys: LinearSystem, t, x) -> DampingResult:
    """Smallest lam >= 0 (bisection to a width of 1e-6) making C + 2 lam Q
    positive definite at space points x (..., n) and times t (a float or
    (...)).

    Replacing u by v exp(lam t) turns B into B + lam Q, hence C into
    C + 2 lam Q, so solutions damped at this rate have non-increasing
    energy.
    """
    points = _points(sys, t, x)
    qm = _sym_part(_at(sys.q, points))
    q_pd = positive_definite(qm)
    if not q_pd.all():
        i = int(np.argmin(q_pd))
        raise ValueError(f"Q not positive definite at t={points[i, 0]}, x={points[i, 1:]}")
    cm = _sym_part(c_matrix(sys, points[:, 0], points[:, 1:]))

    def pd_at(lam):
        return bool(np.all(positive_definite(cm + 2.0 * lam * qm)))

    if pd_at(0.0):
        return DampingResult(0.0, marginal=False)
    hi = 1.0
    while not pd_at(hi):
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("no damping rate below 1e12 makes C positive definite")
    lo, width = 0.0, 1e-6
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if pd_at(mid):
            hi = mid
        else:
            lo = mid
    if hi <= width:
        return DampingResult(0.0, marginal=True)
    return DampingResult(hi, marginal=False)


def cone_slope(sys: LinearSystem, grid: GridField, t: float = 0.0) -> float:
    """Sampled bound on the propagation speed: the largest
    |characteristic speed| of ``as_system()`` over grid points and the
    ``unit_normals`` (the n axis directions and the diagonals; the speeds
    of -nu are those of nu negated in exact arithmetic, not always in
    floating point).  Constant coefficients are evaluated at one point.

    Finitely many normals give a lower bound on the true maximum over all
    directions; callers testing support should inflate by a small safety
    factor (the CLI uses 1.01).
    """
    return max_abs_speed(sys.as_system(), grid.points(t), np.zeros(sys.m))


@dataclass(frozen=True)
class SupportVerdict:
    passed: bool
    max_outside: float
    first_violation: Optional[tuple]  # (t, cell coordinate, value)

    def __bool__(self):
        return self.passed


def support_test(trace, radius: float, slope: float, tol: float = 0.0,
                 margin_cells: int = 1) -> SupportVerdict:
    """Check that every snapshot vanishes (|u| <= tol) on cells with
    |x| >= radius + slope * t + margin.

    The margin defaults to one cell: the scheme widens support exactly one
    cell per step, which at the CFL bound equals the cone slope, and the
    half-cell alignment of the initial support edge consumes the rest.
    Run with tol = 0 the test is exact: untouched cells hold bitwise zeros.
    """
    first = None
    worst = 0.0
    for t, snap in zip(trace.times, trace.snapshots):
        margin = margin_cells * max(snap.h)
        r = np.sqrt(np.sum(snap.coords() ** 2, axis=-1))
        outside = r >= radius + slope * t + margin
        if not outside.any():
            continue
        mags = np.max(np.abs(snap.data), axis=-1)
        mags = np.where(outside, mags, 0.0)
        peak = float(np.max(mags))
        worst = max(worst, peak)
        if peak > tol and first is None:
            idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
            first = (t, tuple(snap.coords()[idx]), peak)
    return SupportVerdict(passed=first is None, max_outside=worst,
                          first_violation=first)
