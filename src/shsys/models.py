"""Ready-made systems and conservation laws, each shipped with its
symmetrizer, constraint monitors, and admissible-state box.

Shipped models (CLI names in parentheses):

* scalar polynomial-flux laws, including Burgers and linear advection
  (``scalar``, ``burgers``, ``advection``);
* the first-order reduction of the variable-coefficient wave equation
  (``wave``);
* the Maxwell evolution system with its two divergence constraints
  (``maxwell``);
* the polytropic gas in pressure-velocity unknowns (``euler_sh``) and in
  conservative variables (``euler_cons``);
* the Tricomi-type symmetric positive system with its positivity
  certificate (``tricomi``; algebra only, no time integration);
* the real form of a one-complex-variable analytic system with its
  discrete Cauchy-Riemann monitor (``ck``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MatrixField, SystemDef, ldlt_pivots, positive_definite, symmetry_residual
from .entropy import ConservationLaw, EntropyPair
from .grid import GridField, centered_diff, interior_mask, l2_norm


@dataclass(frozen=True)
class ConstraintMonitor:
    """Named scalar diagnostic of a snapshot (a norm of a constraint
    residual field; zero on constraint-satisfying data up to
    discretization error)."""

    name: str
    fn: Callable[[GridField], float]

    def evaluate(self, snapshot: GridField) -> float:
        return float(self.fn(snapshot))


# ---------------------------------------------------------------------------
# scalar polynomial-flux laws

def _horner(c: np.ndarray, x):
    """sum_i c[i] x^i in ``numpy.polynomial.polynomial.polyval``'s own
    operation order, so results agree bit for bit, without its per-call
    argument handling."""
    acc = c[-1] + x * 0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


def polynomial_scalar_law(coeffs, state_box=(-3.0, 3.0)):
    """Scalar 1D law with flux f(u) = sum_i coeffs[i] u^i, plus the
    quadratic entropy pair U = u^2, F = int 2u f'(u) du (exact
    polynomials).  Returns (law, pair)."""
    c = np.asarray(coeffs, dtype=float)
    dc = np.polynomial.polynomial.polyder(c)
    # F' = 2 u f'(u); integrate term by term
    fprime_shift = np.concatenate([[0.0], 2.0 * dc])
    fc = np.polynomial.polynomial.polyint(fprime_shift)

    def flux(u):
        u = np.asarray(u, dtype=float)
        return _horner(c, u[..., 0])[..., np.newaxis]

    def jac(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(_horner(dc, u[..., 0]))[..., np.newaxis, np.newaxis]

    lo, hi = float(state_box[0]), float(state_box[1])
    law = ConservationLaw(n=1, m=1, flux=(flux,), state_box=([lo], [hi]),
                          flux_jac=(jac,))
    pair = EntropyPair(
        n=1, m=1,
        value=lambda u: u[..., 0] ** 2,
        flux=(lambda u: _horner(fc, u[..., 0]),),
        grad=lambda u: 2.0 * u,
        hess=lambda u: np.full(u.shape + (1,), 2.0),
        flux_grad=(lambda u: _horner(fprime_shift, u),),
    )
    return law, pair


def burgers_law(state_box=(-3.0, 3.0)):
    """f(u) = u^2 / 2 with U = u^2, F = (2/3) u^3."""
    return polynomial_scalar_law([0.0, 0.0, 0.5], state_box)


def advection_law(speed: float, state_box=(-3.0, 3.0)):
    """f(u) = a u with U = u^2, F = a u^2."""
    return polynomial_scalar_law([0.0, float(speed)], state_box)


# ---------------------------------------------------------------------------
# wave equation reduction

def _as_field_of_x(value):
    """Accept a constant array or a batched callable of space points x of
    shape (..., n); a constant is broadcast over the batch."""
    if callable(value):
        return value, None
    arr = np.asarray(value, dtype=float)
    return (lambda x: np.broadcast_to(arr, np.shape(x)[:-1] + arr.shape)), arr


def wave_system(a_j, a_jk, forcing=None, n=None):
    """First-order form of
    d_tt u + 2 a^j d_jt u - a^jk d_jk u = f
    in the unknowns v = (u, d_1 u .. d_n u, d_t u), m = n + 2:

        d_t v_0 = v_{n+1}
        d_t v_k - d_k v_{n+1} = 0
        d_t v_{n+1} + 2 a^k d_k v_{n+1} - a^jk d_k v_j = f

    with the quadratic-form symmetrizer diag(1, a^jk, 1).  Returns the
    system and the monitor || v_j - D_j v_0 || (centered differences).
    ``a_j`` and ``a_jk`` may be constant arrays or batched callables of
    space points x of shape (..., n), returning (..., n) and (..., n, n);
    ``forcing`` is a batched callable (t, x) -> (...).  A constant a^jk
    must be symmetric positive definite.
    """
    aj_fn, aj_const = _as_field_of_x(a_j)
    ajk_fn, ajk_const = _as_field_of_x(a_jk)
    if n is None:
        if ajk_const is not None:
            n = ajk_const.shape[0]
        elif aj_const is not None:
            n = aj_const.shape[0]
        else:
            raise ValueError("pass n explicitly when both coefficients are callables")
    m = n + 2
    if ajk_const is not None:
        if ajk_const.shape != (n, n):
            raise ValueError(f"a_jk must be {n} x {n}")
        if not positive_definite(ajk_const):
            raise ValueError("a_jk must be symmetric positive definite")

    def mj_at(ajv, ajkv, j):
        mat = np.zeros(ajv.shape[:-1] + (m, m))
        mat[..., 1 + j, n + 1] = -1.0
        mat[..., n + 1, 1:n + 1] = -ajkv[..., :, j]
        mat[..., n + 1, n + 1] = 2.0 * ajv[..., j]
        return mat

    def sigma_at(ajkv):
        s = np.zeros(ajkv.shape[:-2] + (m, m))
        s[..., 0, 0] = s[..., n + 1, n + 1] = 1.0
        s[..., 1:n + 1, 1:n + 1] = ajkv
        return s

    if aj_const is not None and ajk_const is not None:
        coeff = [MatrixField.constant(np.eye(m))] + [
            MatrixField.constant(mj_at(aj_const, ajk_const, j)) for j in range(n)]
        sigma = MatrixField.constant(sigma_at(ajk_const))
    else:
        coeff = [MatrixField.constant(np.eye(m))] + [
            MatrixField(m, lambda xst, u, j=j: mj_at(
                np.asarray(aj_fn(xst[..., 1:]), dtype=float),
                np.asarray(ajk_fn(xst[..., 1:]), dtype=float), j))
            for j in range(n)]
        sigma = MatrixField(m, lambda xst, u: sigma_at(
            np.asarray(ajk_fn(xst[..., 1:]), dtype=float)))

    def source(xst, u):
        out = np.zeros(np.shape(u))
        out[..., 0] = u[..., n + 1]
        if forcing is not None:
            out[..., n + 1] = forcing(xst[..., 0], xst[..., 1:])
        return out

    sys = SystemDef(n=n, m=m, coeff=tuple(coeff), source=source,
                    symmetrizer=sigma)

    def gradient_residual(field: GridField) -> float:
        mask = interior_mask(field)
        resid = np.stack(
            [field.data[..., 1 + j] - centered_diff(field, j, field.data[..., 0])
             for j in range(n)], axis=-1)
        return l2_norm(field, resid, mask=mask)

    return sys, ConstraintMonitor("gradient_constraint", gradient_residual)


# ---------------------------------------------------------------------------
# Maxwell

_LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _LEVI_CIVITA[_i, _j, _k] = 1.0
    _LEVI_CIVITA[_i, _k, _j] = -1.0


def maxwell_system(rho=None, current=None):
    """The six evolution equations d_t E = curl B - j, d_t B = -curl E as
    a symmetric system with identity symmetrizer (unknowns E1..E3, B1..B3),
    plus the monitors ||div E - rho|| and ||div B|| (centered-difference
    divergence).  ``rho`` and ``current`` are batched callables of space
    points x of shape (..., 3), returning (...) and (..., 3) (or constants,
    or None for vacuum)."""
    m = 6
    coeff = [MatrixField.constant(np.eye(m))]
    for j in range(3):
        mat = np.zeros((m, m))
        for i in range(3):
            for kk in range(3):
                mat[i, 3 + kk] = -_LEVI_CIVITA[i, j, kk]   # E rows: -curl B
                mat[3 + i, kk] = _LEVI_CIVITA[i, j, kk]    # B rows: +curl E
        coeff.append(MatrixField.constant(mat))

    source = None
    if current is not None:
        cur_fn = current if callable(current) else (lambda x, c=np.asarray(current, dtype=float): c)

        def source(xst, u):
            out = np.zeros(np.shape(u))
            out[..., :3] = -np.asarray(cur_fn(xst[..., 1:]), dtype=float)
            return out

    sys = SystemDef(n=3, m=m, coeff=tuple(coeff), source=source)

    def _div(field: GridField, offset: int) -> np.ndarray:
        return sum(centered_diff(field, axis, field.data[..., offset + axis])
                   for axis in range(3))

    rho_fn = rho if callable(rho) else (lambda coords, r=float(rho or 0.0): r)

    def div_e_residual(field: GridField) -> float:
        mask = interior_mask(field)
        return l2_norm(field, _div(field, 0) - rho_fn(field.coords()), mask=mask)

    def div_b_residual(field: GridField) -> float:
        mask = interior_mask(field)
        return l2_norm(field, _div(field, 3), mask=mask)

    return sys, (ConstraintMonitor("div_e", div_e_residual),
                 ConstraintMonitor("div_b", div_b_residual))


# ---------------------------------------------------------------------------
# polytropic Euler

# p^(1/gamma) element by element through the C library's pow: numpy's array
# power takes a SIMD route that differs from it in the last bit for some
# pressures, and results must not depend on how many cells share a call.
_libm_pow = np.frompyfunc(math.pow, 2, 1)


def euler_polytropic_sh(gamma: float, n: int = 1) -> SystemDef:
    """Polytropic gas in (p, v) unknowns, p = rho^gamma with unit
    reference constant:

        (1/gamma p) d_t p + (1/gamma p) v.grad p + div v = 0
        rho d_t v + grad p + rho v.grad v = 0

    Already symmetric; M^0 = diag(1/gamma p, rho I) is positive definite
    on the state box {p > 0}.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    m = 1 + n
    vel = np.arange(1, m)

    def rho_of(p):
        return np.asarray(_libm_pow(p, 1.0 / gamma), dtype=float)

    def m0(u):
        p = u[..., 0]
        mat = np.zeros(p.shape + (m, m))
        mat[..., 0, 0] = 1.0 / (gamma * p)
        mat[..., vel, vel] = rho_of(p)[..., None]
        return mat

    def mj(u, j):
        p, v = u[..., 0], u[..., 1 + j]
        mat = np.zeros(p.shape + (m, m))
        mat[..., 0, 0] = v / (gamma * p)
        mat[..., 0, 1 + j] = 1.0
        mat[..., 1 + j, 0] = 1.0
        mat[..., vel, vel] = (rho_of(p) * v)[..., None]
        return mat

    coeff = [MatrixField.of_state(m, m0)] + [
        MatrixField.of_state(m, lambda u, j=j: mj(u, j)) for j in range(n)]
    lo = np.concatenate([[1e-300], np.full(n, -np.inf)])
    hi = np.full(m, np.inf)
    return SystemDef(n=n, m=m, coeff=tuple(coeff), state_box=(lo, hi))


def euler_sound_speed(gamma: float, p: float) -> float:
    """sqrt(gamma p / rho) at the polytropic density rho = p^(1/gamma)."""
    return float(np.sqrt(gamma * p / p ** (1.0 / gamma)))


def euler_conservative_1d(gamma: float) -> ConservationLaw:
    """1D gas dynamics in conservative unknowns (rho, rho v, E) with
    p = (gamma - 1)(E - rho v^2 / 2); feeds the shock-tube diagnostics.
    Evolution aborts on vacuum or negative pressure."""
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")

    def flux(u):
        u = np.asarray(u, dtype=float)
        rho, mom, en = u[..., 0], u[..., 1], u[..., 2]
        v = mom / rho
        p = (gamma - 1.0) * (en - 0.5 * mom * v)
        return np.stack([mom, mom * v + p, v * (en + p)], axis=-1)

    def admissible(u):
        u = np.asarray(u, dtype=float)
        rho, mom, en = u[..., 0], u[..., 1], u[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (gamma - 1.0) * (en - 0.5 * mom ** 2 / rho)
        return (rho > 0) & (p > 0)

    box = (np.array([0.5, -0.5, 1.0]), np.array([2.0, 0.5, 5.0]))
    return ConservationLaw(n=1, m=3, flux=(flux,), state_box=box,
                           admissible=admissible)


def euler_primitive_to_conservative(gamma: float, rho, v, p) -> np.ndarray:
    """(rho, v, p) -> (rho, rho v, E) with E = p/(gamma-1) + rho v^2/2."""
    rho, v, p = (np.asarray(a, dtype=float) for a in (rho, v, p))
    return np.stack([rho, rho * v, p / (gamma - 1.0) + 0.5 * rho * v ** 2], axis=-1)


def euler_conservative_to_primitive(gamma: float, u) -> tuple:
    u = np.asarray(u, dtype=float)
    rho, mom, en = u[..., 0], u[..., 1], u[..., 2]
    v = mom / rho
    p = (gamma - 1.0) * (en - 0.5 * mom * v)
    return rho, v, p


# ---------------------------------------------------------------------------
# Tricomi-type symmetric positive system

@dataclass(frozen=True)
class TricomiSystem:
    """Coefficients of K = A1 d_x + A2 d_y + B on the (x, y) plane after
    the multiplier stage.  Elliptic-degenerate: exposed for its positivity
    certificate only, no time integration."""

    lam: float
    a1: MatrixField
    a2: MatrixField
    b: MatrixField


@dataclass(frozen=True)
class PositivityCertificate:
    positive: bool
    min_pivot: float
    worst_y: float
    samples: int

    def __bool__(self):
        return self.positive


def _sym2(p, q, r) -> np.ndarray:
    """[[p, q], [q, r]] at each point of the batch."""
    p, q, r = np.broadcast_arrays(p, q, r)
    return np.stack([np.stack([p, q], -1), np.stack([q, r], -1)], -2)


def tricomi_certificate_matrix(lam: float, y) -> np.ndarray:
    """B - (d_x A1 + d_y A2)/2 = [[1/2 + lam y, lam y], [lam y, lam]], one
    per y: y of shape (...) gives (..., 2, 2)."""
    y = np.asarray(y, dtype=float)
    return _sym2(0.5 + lam * y, lam * y, float(lam))


def tricomi_system(lam: float, y_bound: float, samples: int = 1001):
    """Multiplier form of the Tricomi-type system.

    Starting from L = diag(y, 1)(d_x + lam) - [[0,1],[1,0]] d_y, the
    multiplier Z = [[1, y], [1, 1]] yields K = Z L whose positivity matrix
    is [[1/2 + lam y, lam y], [lam y, lam]].  The certificate samples its
    smallest factorization pivot on |y| <= y_bound; it is positive exactly
    when lam is positive and small enough for the bound.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if y_bound < 0:
        raise ValueError("y_bound must be non-negative")

    a1 = MatrixField(2, lambda pt, u: _sym2(pt[..., 1], pt[..., 1], 1.0))
    system = TricomiSystem(
        lam=lam, a1=a1, a2=MatrixField(2, lambda pt, u: _sym2(-pt[..., 1], -1.0, -1.0)),
        b=MatrixField(2, lambda pt, u: lam * a1(pt, u)))

    ys = np.linspace(-y_bound, y_bound, samples)
    pivots = np.min(ldlt_pivots(tricomi_certificate_matrix(lam, ys)), axis=-1)
    worst = int(np.argmin(pivots))
    min_pivot = float(pivots[worst])
    cert = PositivityCertificate(positive=min_pivot > 0.0, min_pivot=min_pivot,
                                 worst_y=float(ys[worst]), samples=samples)
    return system, cert


# ---------------------------------------------------------------------------
# analytic (Cauchy-Riemann constrained) systems in one complex variable

def _real_rep(h: np.ndarray) -> np.ndarray:
    """[[Re H, -Im H], [Im H, Re H]] of each matrix in a stack; symmetric
    when H is Hermitian."""
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def ck_realify(a, b=None):
    """Real symmetric form of the complex system
    d_t u = A(z) d_z u + B, one complex space variable z = x + i y.

    Adding the conjugate-transposed anti-analytic term splits A into the
    Hermitian pair (A + A*)/2 and (A - A*)/(2i) acting on d_x and d_y; each
    complex unknown becomes two real components (all real parts first,
    then all imaginary parts) on a 2D grid.  Returns the system and the
    discrete Cauchy-Riemann monitor ||D_x u + i D_y u|| per complex
    component.

    ``a`` is a constant complex matrix or a batched callable of space
    points x of shape (..., 2) returning (..., mc, mc); ``b`` is None, a
    constant complex vector, or a batched callable (x, u_complex) ->
    (..., mc).
    """
    a_const = None if callable(a) else np.asarray(a, dtype=complex)
    mc = (a_const.shape[0] if a_const is not None
          else np.asarray(a(np.zeros(2)), dtype=complex).shape[0])
    m = 2 * mc

    def split(mat):
        herm = np.swapaxes(mat.conj(), -1, -2)
        return -_real_rep(0.5 * (mat + herm)), -_real_rep((mat - herm) / 2j)

    if a_const is not None:
        m1c, m2c = split(a_const)
        coeff = [MatrixField.constant(np.eye(m)),
                 MatrixField.constant(m1c), MatrixField.constant(m2c)]
    else:
        def coeff_fn(idx):
            def fn(xst, u):
                return split(np.asarray(a(xst[..., 1:]), dtype=complex))[idx]
            return fn
        coeff = [MatrixField.constant(np.eye(m)),
                 MatrixField(m, coeff_fn(0)), MatrixField(m, coeff_fn(1))]

    source = None
    if b is not None:
        b_fn = b if callable(b) else (
            lambda x, u, c=np.asarray(b, dtype=complex): np.broadcast_to(c, u.shape))

        def source(xst, u):
            val = np.asarray(b_fn(xst[..., 1:], u[..., :mc] + 1j * u[..., mc:]),
                             dtype=complex)
            return np.concatenate([val.real, val.imag], axis=-1)

    sys = SystemDef(n=2, m=m, coeff=tuple(coeff), source=source)

    # the construction is symmetric by algebra; a residual here is a bug
    probe = [(np.zeros(3), np.zeros(m))]
    res = symmetry_residual(sys, probe)
    if float(np.max(res)) > 1e-12:
        raise RuntimeError(f"realified coefficients asymmetric by {np.max(res):.3e}")

    def cr_residual(field: GridField) -> float:
        mask = interior_mask(field)
        parts = []
        for comp in range(mc):
            u_c = field.data[..., comp] + 1j * field.data[..., mc + comp]
            resid = (centered_diff(field, 0, u_c.real)
                     + 1j * centered_diff(field, 0, u_c.imag))
            resid = resid + 1j * (centered_diff(field, 1, u_c.real)
                                  + 1j * centered_diff(field, 1, u_c.imag))
            parts.extend([resid.real, resid.imag])
        return l2_norm(field, np.stack(parts, axis=-1), mask=mask)

    return sys, ConstraintMonitor("cauchy_riemann", cr_residual)
