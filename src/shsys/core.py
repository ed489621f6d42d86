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
from typing import Callable, Optional, Sequence

import numpy as np

#: relative tolerance for "equals its transpose" checks
SYMMETRY_RTOL = 1e-10
#: relative pivot tolerance for positive-definiteness
PD_RTOL = 1e-10


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
    it to a whole grid at once.
    """

    m: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    const: Optional[np.ndarray] = None

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
        return cls(m=m, fn=lambda x, u: fn(u))

    def __call__(self, x, u) -> np.ndarray:
        if self.const is not None:
            return self.const
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return batch_checked(self.fn(x, u), np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
                             + (self.m, self.m), 2, "matrix field")


@dataclass(frozen=True)
class SystemDef:
    """Quasi-linear system: coeff[alpha] multiplies d_alpha u, alpha = 0..n.

    The coefficients and the symmetrizer are MatrixFields; ``source`` is
    N(x, u), batched like them: x of shape (..., n+1) and u of shape
    (..., m) give (..., m).  ``direction`` is the covector k (default: the
    time direction) against which hyperbolicity is tested.  ``state_box`` is optional (lo, hi)
    metadata delimiting the admissible states; time steppers abort when a
    state leaves it.
    """

    n: int
    m: int
    coeff: tuple
    source: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    symmetrizer: Optional[MatrixField] = None
    direction: Optional[np.ndarray] = None
    state_box: Optional[tuple] = None

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
    default rtol * max(1, largest |entry|))."""
    asym = np.max(np.abs(mat - np.swapaxes(mat, -1, -2)), axis=(-2, -1), initial=0.0)
    if tol is None:
        tol = rtol * np.max(np.abs(mat), axis=(-2, -1), initial=1.0)
    return asym, asym > tol


def _sym_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of a matrix or of every matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def positive_definite(mat, tol: Optional[float] = None, sym_tol: Optional[float] = None):
    """True iff the triangular factorization of (mat + mat^T)/2 succeeds
    with all pivots > tol; a stack (..., m, m) gives one verdict per
    matrix, (...).

    ``tol`` defaults to PD_RTOL relative to the largest diagonal entry of
    each matrix; input asymmetric beyond ``sym_tol`` (relative to its
    largest entry) is an error, not a False.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if np.any(_asymmetry(a, tol=sym_tol)[1]):
        raise ValueError("matrix is not symmetric within tolerance")
    s = _sym_part(a)
    if tol is None:
        tol = PD_RTOL * np.max(np.diagonal(s, axis1=-2, axis2=-1), axis=-1, initial=1.0)
    return np.all(ldlt_pivots(s) > np.asarray(tol)[..., None], axis=-1)


def _unzip(pairs) -> tuple:
    """A non-empty sequence of pairs as two stacked float arrays."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one sample")
    return tuple(np.array(v, dtype=float) for v in zip(*pairs))


def _stack_samples(sys: SystemDef, samples: Sequence):
    """(x, u) sample pairs as a (S, n+1) stack of points and a (S, m)
    stack of states."""
    x, u = _unzip(samples)
    if x.shape[1:] != (sys.n + 1,) or u.shape[1:] != (sys.m,):
        raise ValueError(f"samples must pair points of length n+1 = {sys.n + 1} "
                         f"with states of length m = {sys.m}")
    return x, u


def _symmetrized(sys: SystemDef, x, u) -> list:
    """sigma M^alpha for alpha = 0..n at points x (..., n+1) and states u
    (..., m), with sigma evaluated once."""
    sig = sys.sigma(x, u)
    return [sig @ c(x, u) for c in sys.coeff]


def symmetry_residual(sys: SystemDef, samples: Sequence) -> np.ndarray:
    """Per-alpha max over samples of the largest entry of |S - S^T| with
    S = sigma * M^alpha.  All-zero residuals certify symmetry at the
    sampled states."""
    x, u = _stack_samples(sys, samples)
    return np.array([np.max(_asymmetry(s)[0]) for s in _symmetrized(sys, x, u)])


def is_sh(sys: SystemDef, samples: Sequence, sym_tol: Optional[float] = None,
          pd_tol: Optional[float] = None) -> SHVerdict:
    """Check symmetry of all sigma*M^alpha and positive definiteness of
    k_alpha * sigma M^alpha at every sample; reports the first failing
    sample, and there the asymmetry of the lowest alpha before the
    direction combination."""
    x, u = _stack_samples(sys, samples)
    mats = [np.broadcast_to(s, (len(x), sys.m, sys.m)) for s in _symmetrized(sys, x, u)]
    asym, bad = (np.stack(v, axis=-1) for v in zip(*(_asymmetry(s, tol=sym_tol) for s in mats)))
    pd = positive_definite(_sym_part(sum(k * s for k, s in zip(sys.direction, mats))), tol=pd_tol)
    asymmetric = bad.any(axis=-1)
    fails = asymmetric | ~pd
    failing = reason = None
    if fails.any():
        i = int(np.argmax(fails))
        failing = (x[i], u[i])
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
    """The quadratic form k_alpha * sigma M^alpha at one point (the matrix
    whose positive definiteness makes the system hyperbolic there)."""
    x, u = _stack_samples(sys, [(x, u)])
    return sum(k * s for k, s in zip(sys.direction, _symmetrized(sys, x[0], u[0])))


def unit_normals(n: int) -> np.ndarray:
    """The n axis directions, then the 2^(n-1) diagonals with a positive
    first component, as rows; with their negatives they are every axis and
    diagonal direction."""
    diag = [(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=n - 1)] if n > 1 else []
    return np.concatenate([np.eye(n), np.array(diag).reshape(-1, n) / np.sqrt(n)])


def characteristic_speeds(sys: SystemDef, x, u, normal) -> np.ndarray:
    """Generalized eigenvalues lambda of (sum_j normal_j S^j) w = lambda S^0 w
    with S^alpha = sigma M^alpha, sorted ascending.

    Batched: x of shape (..., n+1) and u of shape (..., m) give (..., m).
    Computed by reducing with a triangular factor of S^0, which must be
    positive definite.
    """
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    if x.shape[-1:] != (sys.n + 1,) or u.shape[-1:] != (sys.m,):
        raise ValueError(f"points must have length n+1 = {sys.n + 1}, states m = {sys.m}")
    normal = np.asarray(normal, dtype=float)
    if normal.shape != (sys.n,):
        raise ValueError(f"normal must have length n = {sys.n}")
    mats = _symmetrized(sys, x, u)
    s0 = _sym_part(mats[0])
    a = _sym_part(sum(normal[j] * mats[j + 1] for j in range(sys.n)))
    speeds = generalized_eigenvalues(a, s0)
    return np.broadcast_to(speeds, np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (sys.m,))


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
    Returns an array of shape (per_axis**m, m)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("box corners must have equal length")
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in mesh], axis=-1)


def system_samples(sys: SystemDef, lo, hi, per_axis: int = 3, x=None) -> list:
    """(x, u) pairs over a tensor grid of states, at a fixed space-time
    point (the origin by default)."""
    x = np.zeros(sys.n + 1) if x is None else np.asarray(x, dtype=float)
    return [(x, u) for u in sample_box(lo, hi, per_axis)]
