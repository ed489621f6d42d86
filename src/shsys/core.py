"""Quasi-linear first-order systems and the algebraic predicates that
define symmetric-hyperbolic structure.

A system is M^0(x,u) du/dt + M^j(x,u) du/dx_j = N(x,u) for an m-vector u
on n space dimensions, x = (t, x_1..x_n).  It is *symmetric* when every
coefficient matrix (after multiplication by an optional symmetrizer
sigma(x,u)) equals its transpose, and *symmetric-hyperbolic* in a
direction k when additionally the combination k_alpha * sigma M^alpha is
positive definite.

Positive definiteness is certified everywhere in this package by one
oracle: a triangular (Cholesky-type) factorization whose pivots must all
exceed a tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: relative tolerance for "equals its transpose" checks
SYMMETRY_RTOL = 1e-10
#: relative pivot tolerance for positive-definiteness
PD_RTOL = 1e-10
#: symmetry tolerance where finite-difference Jacobians enter the matrices
FD_SYMMETRY_TOL = 1e-6


def operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: a ufunc takes it about
    0.3 us faster than a float it must convert (2,000 doubles), same bits."""
    held = np.array(value, dtype=float)
    held.flags.writeable = False
    return held


ZERO = operand(0.0)


def batch_checked(out, expected: tuple, tail: int, what: str) -> np.ndarray:
    """``out`` as a float array of shape ``expected``, whose last ``tail``
    axes have length m; a callable that handles one point only fails here."""
    out = np.asarray(out, dtype=float)
    if out.shape != expected:
        pattern = ", ".join(["..."] + ["m"] * tail)
        raise ValueError(f"{what} returned shape {out.shape}, expected ({pattern}) = "
                         f"{expected}: it must evaluate every point of the batch")
    return out


@dataclass(frozen=True)
class MatrixField:
    """An m x m matrix-valued function of space-time points x and states u.

    ``fn`` is batched: x of shape (..., n+1) and u of shape (..., m) give
    (..., m, m), one matrix per point; a single point is the empty batch.
    ``const`` is set for matrices that do not depend on (x, u); the field
    then returns that one (m, m) matrix for any batch, so evaluators apply
    it to a whole grid at once.  ``state_only`` is set for matrices of u
    alone (``of_state``); such a field takes x = None too, and its batch is
    then that of u.
    """

    m: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    const: Optional[np.ndarray] = None
    state_only: bool = False

    @classmethod
    def constant(cls, mat) -> "MatrixField":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"constant matrix must be square, got shape {mat.shape}")
        return cls(m=mat.shape[0], const=mat, fn=lambda x, u: np.broadcast_to(
            mat, np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1]) + mat.shape))

    @classmethod
    def of_state(cls, m: int, fn: Callable[[np.ndarray], np.ndarray]) -> "MatrixField":
        """Wrap a batched matrix function of the state alone."""
        return cls(m=m, fn=lambda x, u: fn(u), state_only=True)

    def __call__(self, x, u) -> np.ndarray:
        if self.const is not None:
            return self.const
        u = np.asarray(u, dtype=float)
        batch = u.shape[:-1]
        if x is not None:
            x = np.asarray(x, dtype=float)
            batch = np.broadcast_shapes(x.shape[:-1], batch)
        return batch_checked(self.fn(x, u), batch + (self.m, self.m), 2, "matrix field")


def box_corners(state_box, m: int) -> tuple:
    """A ``state_box`` (lo, hi) as two float arrays of length m; ValueError
    for corners of another length."""
    lo, hi = (np.asarray(b, dtype=float) for b in state_box)
    if lo.shape != (m,) or hi.shape != (m,):
        raise ValueError(f"state_box corners must have length m = {m}, "
                         f"got {lo.size} and {hi.size}")
    return lo, hi


@dataclass(frozen=True)
class SystemDef:
    """Quasi-linear system: coeff[alpha] multiplies d_alpha u, alpha = 0..n.

    The coefficients and the symmetrizer are MatrixFields; ``source`` is
    N(x, u), batched like them: x of shape (..., n+1) and u of shape
    (..., m) give (..., m).  ``direction`` is the covector k (default: the
    time direction) against which hyperbolicity is tested.  ``state_box`` is optional (lo, hi)
    metadata delimiting the admissible states, stored as two float arrays
    of length m (``box_corners``); time steppers abort when a state
    leaves it.

    ``max_speed`` is an optional closed-form speed bound: batched, it maps
    admissible states u (..., m) to (...), each at least the largest
    |``characteristic_speeds``| at that state over every unit normal, not
    only the ``unit_normals``.  With it, ``lxf.run`` takes a_star as its
    maximum over every cell of the initial state and, when some field is
    not constant, checks the CFL bound with it after every step.
    """

    n: int
    m: int
    coeff: tuple
    source: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    symmetrizer: Optional[MatrixField] = None
    direction: Optional[np.ndarray] = None
    state_box: Optional[tuple] = None
    max_speed: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"space dimension must be 1, 2 or 3, got {self.n}")
        if len(self.coeff) != self.n + 1:
            raise ValueError(
                f"need n+1 = {self.n + 1} coefficient fields, got {len(self.coeff)}")
        for c in self.coeff:
            if c.m != self.m:
                raise ValueError("coefficient field size does not match system")
        if self.symmetrizer is not None and self.symmetrizer.m != self.m:
            raise ValueError("symmetrizer size does not match system")
        k = np.zeros(self.n + 1) if self.direction is None else np.asarray(self.direction, dtype=float)
        if self.direction is None:
            k[0] = 1.0
        if k.shape != (self.n + 1,):
            raise ValueError(f"direction must have length n+1 = {self.n + 1}")
        object.__setattr__(self, "direction", k)
        if self.state_box is not None:
            object.__setattr__(self, "state_box", box_corners(self.state_box, self.m))

    @property
    def all_constant(self) -> bool:
        """Whether every coefficient and the symmetrizer are constant, so
        that every point has the same matrices."""
        return all(f is None or f.const is not None for f in (*self.coeff, self.symmetrizer))

    def sigma(self, x, u) -> np.ndarray:
        if self.symmetrizer is None:
            return np.eye(self.m)
        return self.symmetrizer(x, u)


@dataclass(frozen=True)
class SHVerdict:
    """Outcome of an SH check over a sample set."""

    is_sh: bool
    symmetric: bool
    direction_pd: bool
    residuals: np.ndarray            # per-alpha max asymmetry over samples
    failing_sample: Optional[tuple]  # first (x, u) violating a condition
    reason: Optional[str] = None

    def __bool__(self):
        return self.is_sh


def ldlt_pivots(mat: np.ndarray) -> np.ndarray:
    """Pivots of the symmetric triangular factorization, in elimination
    order, of a matrix or of each matrix in a stack (..., m, m).  A matrix
    whose pivot is too small to divide by stops there, repeating the
    offending pivot to the end."""
    a = np.array(mat, dtype=float)
    mm = a.shape[-1]
    pivots = np.zeros(a.shape[:-1])
    stopped = np.zeros(a.shape[:-2], dtype=bool)
    for i in range(mm):
        # a stopped matrix repeats its last pivot (none is stopped at i = 0)
        d = pivots[..., i] = np.where(stopped, pivots[..., i - 1], a[..., i, i])
        stopped = stopped | (np.abs(d) < 1e-300)
        if i + 1 < mm:
            row = np.where(stopped[..., None], 0.0,
                           a[..., i, i + 1:] / np.where(stopped, 1.0, d)[..., None])
            a[..., i + 1:, i + 1:] -= a[..., i + 1:, i, None] * row[..., None, :]
    return pivots


def _asymmetry(mat: np.ndarray, rtol: float = SYMMETRY_RTOL, tol: Optional[float] = None):
    """(asymmetry, too_asymmetric) of a matrix or of each matrix in a stack:
    the largest entry of |a - a^T|, and whether it exceeds ``tol`` (by
    default rtol * max(1, largest |entry|)).  A matrix with a non-finite
    entry has a NaN asymmetry and counts as asymmetric."""
    with np.errstate(invalid="ignore"):
        asym = np.max(np.abs(mat - np.swapaxes(mat, -1, -2)), axis=(-2, -1), initial=0.0)
    if tol is None:
        tol = rtol * np.max(np.abs(mat), axis=(-2, -1), initial=1.0)
    return asym, ~(asym <= tol)


def _sym_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of a matrix or of every matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def positive_definite(mat, tol: Optional[float] = None):
    """True iff the triangular factorization of (mat + mat^T)/2 succeeds
    with all pivots > tol; a stack (..., m, m) gives one verdict per
    matrix, (...).

    ``tol`` defaults to PD_RTOL relative to the largest diagonal entry of
    each matrix; finite input asymmetric beyond SYMMETRY_RTOL (relative
    to its largest entry) is an error, not a False.  A matrix with a NaN or
    infinite entry is not positive definite.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    finite = np.isfinite(a).all(axis=(-2, -1))
    if np.any(_asymmetry(a)[1] & finite):
        raise ValueError("matrix is not symmetric within tolerance")
    s = _sym_part(a)
    if tol is None:
        tol = PD_RTOL * np.max(np.diagonal(s, axis1=-2, axis2=-1), axis=-1, initial=1.0)
    with np.errstate(invalid="ignore"):
        pivots = ldlt_pivots(s)
    return np.all(pivots > np.asarray(tol)[..., None], axis=-1) & finite


def _sample_batch(sys, x, u) -> tuple:
    """Points x (..., n+1) and states u (..., m) of ``sys`` (anything with
    ``n`` and ``m``) as float arrays broadcast to their common batch; an
    empty batch is an error."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if x.shape[-1:] != (sys.n + 1,) or u.shape[-1:] != (sys.m,):
        raise ValueError(f"points must have length n+1 = {sys.n + 1} and states m = {sys.m}, "
                         f"got shapes {x.shape} and {u.shape}")
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    if 0 in batch:
        raise ValueError("need at least one sample")
    return np.broadcast_to(x, batch + x.shape[-1:]), np.broadcast_to(u, batch + u.shape[-1:])


def _first_if_constant(sys: SystemDef, x, u) -> tuple:
    """``_sample_batch`` of x and u, cut to its first point when every field
    is constant (every point then has the same matrices)."""
    x, u = _sample_batch(sys, x, u)
    if sys.all_constant:
        return x[(0,) * (x.ndim - 1)][None], u[(0,) * (u.ndim - 1)][None]
    return x, u


def _symmetrized(sys: SystemDef, x, u) -> list:
    """sigma M^alpha for alpha = 0..n at points x (..., n+1) and states u
    (..., m), with sigma evaluated once."""
    sig = sys.sigma(x, u)
    return [sig @ c(x, u) for c in sys.coeff]


def symmetry_residual(sys: SystemDef, x, u) -> np.ndarray:
    """Per-alpha max over the points x (..., n+1) and states u (..., m) of
    the largest entry of |S - S^T| with S = sigma * M^alpha, the residuals
    of ``is_sh``.  All-zero residuals certify symmetry at the samples."""
    return is_sh(sys, x, u).residuals


def is_sh(sys: SystemDef, x, u, sym_tol: Optional[float] = None) -> SHVerdict:
    """Check symmetry of all sigma*M^alpha and positive definiteness of
    k_alpha * sigma M^alpha at points x (..., n+1) and states u (..., m);
    reports the first failing sample in C order of the batch, and there the
    asymmetry of the lowest alpha before the direction combination.  A
    system whose fields are all constant is checked at its first point."""
    x, u = (v.reshape(-1, v.shape[-1]) for v in _first_if_constant(sys, x, u))
    mats = np.stack([np.broadcast_to(s, (len(x), sys.m, sys.m))
                     for s in _symmetrized(sys, x, u)], axis=1)
    asym, bad = _asymmetry(mats, tol=sym_tol)
    pd = positive_definite(_sym_part(sum(k * mats[:, a] for a, k in enumerate(sys.direction))))
    asymmetric = bad.any(axis=-1)
    fails = asymmetric | ~pd
    failing = reason = None
    if fails.any():
        i = int(np.argmax(fails))
        failing = (np.array(x[i]), np.array(u[i]))
        if asymmetric[i]:
            alpha = int(np.argmax(bad[i]))
            reason = f"sigma*M^{alpha} asymmetric by {asym[i, alpha]:.3e}"
        else:
            reason = "direction combination of coefficients is not positive definite"
    symmetric, direction_pd = not asymmetric.any(), bool(pd.all())
    return SHVerdict(is_sh=symmetric and direction_pd, symmetric=symmetric,
                     direction_pd=direction_pd, residuals=np.max(asym, axis=0),
                     failing_sample=failing, reason=reason)


def direction_matrix(sys: SystemDef, x, u) -> np.ndarray:
    """The quadratic form k_alpha * sigma M^alpha (the matrix whose positive
    definiteness makes the system hyperbolic) at points x (..., n+1) and
    states u (..., m), as (..., m, m)."""
    x, u = _sample_batch(sys, x, u)
    form = sum(k * s for k, s in zip(sys.direction, _symmetrized(sys, x, u)))
    return np.broadcast_to(form, x.shape[:-1] + (sys.m, sys.m))


def unit_normals(n: int) -> np.ndarray:
    """The n axis directions, then the 2^(n-1) diagonals with a positive
    first component, as rows; with their negatives they are every axis and
    diagonal direction."""
    diag = [(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=n - 1)] if n > 1 else []
    return np.concatenate([np.eye(n), np.array(diag).reshape(-1, n) / np.sqrt(n)])


def characteristic_speeds(sys: SystemDef, x, u, normal) -> np.ndarray:
    """Generalized eigenvalues lambda of (sum_j normal_j S^j) w = lambda S^0 w
    with S^alpha = sigma M^alpha, sorted ascending.

    Batched: x (..., n+1), u (..., m) and normals (..., n) broadcast and
    give (..., m).  S^alpha and the triangular factor of S^0, which must be
    positive definite, are formed once for all normals.
    """
    x, u = _sample_batch(sys, x, u)
    normal = np.asarray(normal, dtype=float)
    if normal.shape[-1:] != (sys.n,):
        raise ValueError(f"normals must have length n = {sys.n}")
    mats = _symmetrized(sys, x, u)
    s0 = _sym_part(mats[0])
    a = _sym_part(sum(normal[..., j, None, None] * mats[j + 1] for j in range(sys.n)))
    speeds = generalized_eigenvalues(a, s0)
    return np.broadcast_to(speeds, np.broadcast_shapes(normal.shape[:-1], x.shape[:-1]) + (sys.m,))


def max_abs_speed(sys: SystemDef, x, u) -> float:
    """Largest |characteristic speed| over the ``unit_normals`` at points x
    (..., n+1) and states u (..., m); evaluated at one point when every
    coefficient and the symmetrizer is constant."""
    x, u = _first_if_constant(sys, x, u)
    normals = unit_normals(sys.n)
    batch = (1,) * (x.ndim - 1)
    speeds = characteristic_speeds(sys, x, u, normals.reshape((-1,) + batch + (sys.n,)))
    return max(0.0, *np.max(np.abs(speeds.reshape(len(normals), -1)), axis=1).tolist())


def spacetime(t, x) -> np.ndarray:
    """Points (t, x_1..x_n) of shape (..., n+1) for space points x of shape
    (..., n) and t a float or an array of shape (...)."""
    x = np.asarray(x, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:-1])
    return np.concatenate([t[..., None], x], axis=-1)


def generalized_eigenvalues(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a w = lambda b w for symmetric a and PD b, ascending;
    stacks of matrices give stacks of eigenvalues."""
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("time-direction matrix is not positive definite") from exc
    y = np.linalg.solve(chol, a)
    reduced = np.swapaxes(np.linalg.solve(chol, np.swapaxes(y, -1, -2)), -1, -2)
    return np.linalg.eigvalsh(_sym_part(reduced))


def sample_box(lo, hi, per_axis: int = 3) -> np.ndarray:
    """Tensor grid of states over an axis-aligned box, endpoints included.
    Returns an array of shape (per_axis**m, m); its first row is
    ``sample_box(lo, hi, 1)``, bit for bit."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("box corners must have equal length")
    # linspace turns an infinite corner or an overflowing width into NaN
    # samples, at which a check would certify nothing
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    bad = np.flatnonzero(~np.isfinite(width))
    if bad.size:
        i = bad[0]
        what = ("hi - lo overflows" if np.isfinite(lo[i]) and np.isfinite(hi[i])
                else "a corner is not finite")
        raise ValueError(f"box axis {i}: {what} (lo = {lo[i]:g}, hi = {hi[i]:g})")
    mesh = np.meshgrid(*(np.linspace(a, b, per_axis) for a, b in zip(lo, hi)), indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=-1)
