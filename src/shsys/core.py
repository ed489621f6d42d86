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
        mat = np.asarray(self.fn(x, u), dtype=float)
        expected = np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (self.m, self.m)
        if mat.shape != expected:
            raise ValueError(
                f"matrix field returned shape {mat.shape}, expected (..., m, m) = "
                f"{expected}: fn must evaluate every point of the batch")
        return mat


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

    def symmetrized_coeff(self, alpha: int, x, u) -> np.ndarray:
        """sigma * M^alpha at (x, u)."""
        return self.sigma(x, u) @ self.coeff[alpha](x, u)


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
    order.  Stops early (repeating the offending pivot) if a pivot is too
    small to divide by."""
    a = np.array(mat, dtype=float)
    mm = a.shape[0]
    pivots = np.empty(mm)
    for i in range(mm):
        d = a[i, i]
        pivots[i] = d
        if abs(d) < 1e-300:
            pivots[i + 1:] = d
            break
        if i + 1 < mm:
            row = a[i, i + 1:] / d
            a[i + 1:, i + 1:] -= np.outer(a[i + 1:, i], row)
    return pivots


def _asymmetry(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0


def _sym_part(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of a matrix or of every matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def positive_definite(mat, tol: Optional[float] = None, sym_tol: Optional[float] = None) -> bool:
    """True iff the triangular factorization of (mat + mat^T)/2 succeeds
    with all pivots > tol.

    ``tol`` defaults to PD_RTOL relative to the largest diagonal entry;
    input asymmetric beyond ``sym_tol`` (relative to the largest entry) is
    an error, not a False.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    allowed = SYMMETRY_RTOL * scale if sym_tol is None else sym_tol
    if _asymmetry(a) > allowed:
        raise ValueError("matrix is not symmetric within tolerance")
    s = _sym_part(a)
    if tol is None:
        tol = PD_RTOL * max(1.0, float(np.max(np.diag(s))) if s.size else 1.0)
    return bool(np.all(ldlt_pivots(s) > tol))


def _check_sample(sys: SystemDef, x, u):
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (sys.n + 1,):
        raise ValueError(f"sample point must have length n+1 = {sys.n + 1}")
    if u.shape != (sys.m,):
        raise ValueError(f"sample state must have length m = {sys.m}")
    return x, u


def symmetry_residual(sys: SystemDef, samples: Sequence) -> np.ndarray:
    """Per-alpha max over samples of the largest entry of |S - S^T| with
    S = sigma * M^alpha.  All-zero residuals certify symmetry at the
    sampled states."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    res = np.zeros(sys.n + 1)
    for x, u in samples:
        x, u = _check_sample(sys, x, u)
        sig = sys.sigma(x, u)
        for alpha in range(sys.n + 1):
            s = sig @ sys.coeff[alpha](x, u)
            res[alpha] = max(res[alpha], _asymmetry(s))
    return res


def is_sh(sys: SystemDef, samples: Sequence, sym_tol: Optional[float] = None,
          pd_tol: Optional[float] = None) -> SHVerdict:
    """Check symmetry of all sigma*M^alpha and positive definiteness of
    k_alpha * sigma M^alpha at every sample; reports the first failure."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    residuals = np.zeros(sys.n + 1)
    symmetric = True
    direction_pd = True
    failing = None
    reason = None
    for x, u in samples:
        x, u = _check_sample(sys, x, u)
        sig = sys.sigma(x, u)
        mats = [sig @ sys.coeff[alpha](x, u) for alpha in range(sys.n + 1)]
        for alpha, s in enumerate(mats):
            asym = _asymmetry(s)
            residuals[alpha] = max(residuals[alpha], asym)
            allowed = (SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(s))))
                       if sym_tol is None else sym_tol)
            if asym > allowed and symmetric:
                symmetric = False
                if failing is None:
                    failing = (x, u)
                    reason = f"sigma*M^{alpha} asymmetric by {asym:.3e}"
        if direction_pd:
            d = _sym_part(sum(sys.direction[alpha] * mats[alpha] for alpha in range(sys.n + 1)))
            if not positive_definite(d, tol=pd_tol):
                direction_pd = False
                if failing is None:
                    failing = (x, u)
                    reason = "direction combination of coefficients is not positive definite"
    return SHVerdict(is_sh=symmetric and direction_pd, symmetric=symmetric,
                     direction_pd=direction_pd, residuals=residuals,
                     failing_sample=failing, reason=reason)


def direction_matrix(sys: SystemDef, x, u) -> np.ndarray:
    """The quadratic form k_alpha * sigma M^alpha at one point (the matrix
    whose positive definiteness makes the system hyperbolic there)."""
    x, u = _check_sample(sys, x, u)
    return sum(sys.direction[alpha] * sys.symmetrized_coeff(alpha, x, u)
               for alpha in range(sys.n + 1))


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
    sig = sys.sigma(x, u)
    s0 = _sym_part(sig @ sys.coeff[0](x, u))
    a = _sym_part(sum(normal[j] * (sig @ sys.coeff[j + 1](x, u)) for j in range(sys.n)))
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
