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
from .core import (MatrixField, _asymmetry, _sym_part, _unzip, batch_checked,
                   generalized_eigenvalues, ldlt_pivots, positive_definite, unit_normals)
from .grid import GridField


def _coeff_callable(c, m):
    """Normalize a coefficient given as an array or a batched callable
    (t, x) -> (..., m, m)."""
    if c is None:
        return None, None
    if callable(c):
        return c, None
    mat = np.asarray(c, dtype=float)
    if mat.shape != (m, m):
        raise ValueError(f"coefficient must be {m} x {m}, got {mat.shape}")
    return (lambda t, x: np.broadcast_to(mat, np.shape(x)[:-1] + mat.shape)), mat


def _evaluate(c, t, x, m) -> np.ndarray:
    """c(t, x) at space points x of shape (..., n): (..., m, m), or one
    (m, m) matrix for every point; other shapes come from a callable that
    handles one point only."""
    mat = np.asarray(c(t, x), dtype=float)
    if mat.shape == (m, m):
        return mat
    return batch_checked(mat, np.shape(x)[:-1] + (m, m), 2, "coefficient")


class LinearSystem:
    """Container for Q, A^j, B and the forcing of a linear system.

    Coefficients may be constant matrices or batched callables of (t, x):
    x of shape (..., n) and t a float or an array of shape (...) give
    (..., m, m), and the forcing likewise gives (..., m).  Symmetry of Q
    and the A^j, and positivity of Q, are verified by sampling at
    construction when ``check_points`` (a sequence of (t, x) pairs) is
    provided.
    """

    def __init__(self, n: int, m: int, q, a: Sequence, b=None, forcing=None,
                 check_points=None, c_min: float = 0.0):
        if len(a) != n:
            raise ValueError(f"need n = {n} advection coefficients, got {len(a)}")
        self.n = int(n)
        self.m = int(m)
        self.q, self.q_const = _coeff_callable(q, m)
        pairs = [_coeff_callable(aj, m) for aj in a]
        self.a = tuple(p[0] for p in pairs)
        self.a_const = tuple(p[1] for p in pairs)
        self.b, self.b_const = _coeff_callable(b, m)
        self.forcing = forcing
        if check_points is not None:
            self.validate_on(check_points, c_min=c_min)

    @property
    def constant_coefficients(self) -> bool:
        return (self.q_const is not None
                and all(c is not None for c in self.a_const)
                and (self.b is None or self.b_const is not None))

    def validate_on(self, points, c_min: float = 0.0,
                    sym_tol: float = 1e-10) -> float:
        """Check symmetry of Q, A^j and min pivot of Q at the given (t, x)
        points; returns the smallest Q pivot seen."""
        t, x = _unzip(points)
        names = ["Q"] + [f"A^{j + 1}" for j in range(self.n)]
        mats = [np.broadcast_to(_evaluate(c, t, x, self.m), t.shape + (self.m, self.m))
                for c in (self.q,) + self.a]
        asym, bad = (np.stack(v, axis=-1)
                     for v in zip(*(_asymmetry(a, rtol=sym_tol) for a in mats)))
        if bad.any():
            i, k = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"{names[k]} asymmetric by {asym[i, k]:.3e} at t={t[i]}, x={x[i]}")
        min_pivot = float(np.min(ldlt_pivots(_sym_part(mats[0]))))
        if min_pivot <= c_min:
            raise ValueError(f"Q has min pivot {min_pivot:.3e} <= {c_min}")
        return min_pivot

    def as_system(self):
        """Quasi-linear view M^0 = Q, M^j = A^j, N = f - B u for stepping."""
        from .core import SystemDef

        def wrap(c, const):
            if const is not None:
                return MatrixField.constant(const)
            return MatrixField(self.m, lambda xst, u, c=c: c(xst[..., 0], xst[..., 1:]))

        coeff = [wrap(self.q, self.q_const)] + [
            wrap(self.a[j], self.a_const[j]) for j in range(self.n)]

        source = None
        if self.b is not None or self.forcing is not None:
            def source(xst, u):
                t, x = xst[..., 0], xst[..., 1:]
                out = np.zeros(np.shape(u))
                if self.forcing is not None:
                    out += np.asarray(self.forcing(t, x), dtype=float)
                if self.b is not None:
                    out -= np.matmul(self.b(t, x), u[..., None])[..., 0]
                return out

        return SystemDef(n=self.n, m=self.m, coeff=tuple(coeff), source=source)


def energy(field: GridField, q, t: float = 0.0) -> float:
    """Integral of u^T Q u over the grid (cell sum times cell volume).

    ``q`` is a constant matrix or a batched callable (t, x) -> (..., m, m),
    called once with the (cells, n) array of cell centers; a returned
    (m, m) matrix broadcasts over the cells.  The reduction is numpy's
    fixed-topology pairwise sum over lexicographic cell order, so repeated
    runs are bit-identical.
    """
    if not field.is_finite():
        raise ValueError(f"non-finite field value at cell {field.first_nonfinite()}")
    u = field.data.reshape(-1, field.m)
    if callable(q):
        mat = _evaluate(q, t, field.coords().reshape(-1, field.n), field.m)
        dens = np.einsum("ca,cab,cb->c", u, np.broadcast_to(mat, u.shape + (field.m,)), u)
    else:
        mat = np.asarray(q, dtype=float)
        dens = np.einsum("ca,ab,cb->c", u, mat, u)
    return float(np.sum(dens) * field.cell_volume())


def c_matrix(sys: LinearSystem, t: float, x) -> np.ndarray:
    """C = 2B - d_t Q - d_j A^j at (t, x), by centered differences (exact
    up to rounding for coefficients polynomial of degree <= 2)."""
    x = np.asarray(x, dtype=float)
    m = sys.m
    c = np.zeros((m, m))
    if sys.b is not None:
        c += 2.0 * np.asarray(sys.b(t, x), dtype=float)
    if sys.q_const is None:
        ht = fd.STEP_FIRST * max(1.0, abs(t))
        c -= (np.asarray(sys.q(t + ht, x), dtype=float)
              - np.asarray(sys.q(t - ht, x), dtype=float)) / (2.0 * ht)
    for j in range(sys.n):
        if sys.a_const[j] is not None:
            continue
        hj = fd.STEP_FIRST * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = hj
        c -= (np.asarray(sys.a[j](t, x + e), dtype=float)
              - np.asarray(sys.a[j](t, x - e), dtype=float)) / (2.0 * hj)
    return c


@dataclass(frozen=True)
class DampingResult:
    lam: float
    marginal: bool  # PD holds only at the tolerance boundary (lam -> 0+)


def damping_lambda(sys: LinearSystem, samples, bisect_tol: float = 1e-6) -> DampingResult:
    """Smallest lam >= 0 (bisection to bisect_tol) making C + 2 lam Q
    positive definite at all (t, x) samples.

    Replacing u by v exp(lam t) turns B into B + lam Q, hence C into
    C + 2 lam Q, so solutions damped at this rate have non-increasing
    energy.
    """
    samples = list(samples)
    t, x = _unzip(samples)
    qm = _sym_part(np.broadcast_to(_evaluate(sys.q, t, x, sys.m), t.shape + (sys.m, sys.m)))
    q_pd = positive_definite(qm)
    if not q_pd.all():
        i = int(np.argmin(q_pd))
        raise ValueError(f"Q not positive definite at t={t[i]}, x={x[i]}")
    # c_matrix differences one point at a time
    cm = np.array([_sym_part(c_matrix(sys, ti, xi)) for ti, xi in samples])

    def pd_at(lam):
        return bool(np.all(positive_definite(cm + 2.0 * lam * qm)))

    if pd_at(0.0):
        return DampingResult(0.0, marginal=False)
    hi = 1.0
    while not pd_at(hi):
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("no damping rate below 1e12 makes C positive definite")
    lo = 0.0
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if pd_at(mid):
            hi = mid
        else:
            lo = mid
    if hi <= bisect_tol:
        return DampingResult(0.0, marginal=True)
    return DampingResult(hi, marginal=False)


def cone_slope(sys: LinearSystem, grid: GridField, t: float = 0.0) -> float:
    """Sampled bound on the propagation speed: the largest generalized
    eigenvalue of (sum_j nu_j A^j, Q) over grid points and unit normals nu
    (plus and minus ``unit_normals``: the 2n axis directions and the 2^n
    diagonals).  Constant coefficients are evaluated at one point.

    Finitely many normals give a lower bound on the true maximum over all
    directions; callers testing support should inflate by a small safety
    factor (the CLI uses 1.01).
    """
    normals = unit_normals(sys.n)
    x = np.zeros(sys.n) if sys.constant_coefficients else grid.coords().reshape(-1, grid.n)
    qm = _sym_part(_evaluate(sys.q, t, x, sys.m))
    amats = [_evaluate(a_j, t, x, sys.m) for a_j in sys.a]
    worst = 0.0
    for nu in np.concatenate([normals, -normals]):
        a = _sym_part(sum(nu[j] * amats[j] for j in range(sys.n)))
        worst = max(worst, float(np.max(generalized_eigenvalues(a, qm))))
    return worst


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
