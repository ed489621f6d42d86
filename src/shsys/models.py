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

from .core import (ZERO, MatrixField, SystemDef, ldlt_pivots, operand, positive_definite,
                   symmetry_residual)
from .entropy import ConservationLaw, EntropyPair
from .grid import GridField, centered_diff, interior_mask, l2_norm


@dataclass(frozen=True)
class ConstraintMonitor:
    """Named scalar diagnostic of a snapshot: the L2 norm over the cells of
    ``interior_mask`` of the constraint residual ``fn(snapshot)``, a field
    of the grid's shape with at most one component axis (zero on
    constraint-satisfying data up to discretization error).  A periodic
    grid's mask is all True, and multiplying by it would change no bit, so
    no mask is applied there."""

    name: str
    fn: Callable[[GridField], np.ndarray]

    def evaluate(self, snapshot: GridField) -> float:
        residual = self.fn(snapshot)
        shape = np.shape(residual)
        if shape[:snapshot.n] != snapshot.shape or len(shape) > snapshot.n + 1:
            raise ValueError(f"monitor '{self.name}' residual has shape {shape}; "
                             f"expected {snapshot.shape} or {snapshot.shape} + (c,)")
        periodic = snapshot.boundary == "periodic"
        return l2_norm(snapshot, residual, mask=None if periodic else interior_mask(snapshot))


# ---------------------------------------------------------------------------
# scalar polynomial-flux laws

def _horner(c, x):
    """sum_i c[i] x^i in ``numpy.polynomial.polynomial.polyval``'s own
    operation order, so results agree bit for bit in value and kind,
    without its per-call argument handling.  ``c`` is a float array or a
    sequence of 0-d arrays (``core.operand``).  A float64 array x costs
    one new array, filled in place; a scalar or 0-d x takes polyval's
    expressions.  ``_polynomial`` calls it for scalars, 0-d arrays,
    polynomials with no short form and short forms that are not finite."""
    if not (isinstance(x, np.ndarray) and x.ndim and x.dtype == np.float64):
        # numpy float coefficients, as polyval's: which NaN a sum of two
        # NaNs returns differs between scalar and 0-d array arithmetic
        acc = c[-1][()] + x * 0
        for ci in c[-2::-1]:
            acc = ci[()] + acc * x
        return acc
    acc = np.multiply(x, ZERO)     # x * 0, bit for bit
    np.add(c[-1], acc, out=acc)
    for ci in c[-2::-1]:
        np.multiply(acc, x, out=acc)
        np.add(ci, acc, out=acc)
    return acc


def _short_form(c):
    """Which of c[0] .. c[d-1] polyval's a_d = c[d] + x*0, a_i = c[i] +
    a_(i+1) x must add, as d booleans, for the short form s_d = c[d],
    s_i = s_(i+1) x (+ c[i]) to equal polyval at every finite x where
    it is finite; None when d = 0 or c[d] = 0.  The coefficients are
    finite.

    At a finite x, x*0 is a zero and c[d] + x*0 is c[d].  Adding -0
    changes no bit, and adding +0 only turns -0 into +0, so when an add of
    a zero is dropped s_i and a_i stay equal or are both zeros, through
    every product by a finite x.  The next add of a coefficient other than
    -0 makes them equal again: a nonzero c gives c, and +0 gives +0.  So
    every add of a zero is dropped but the last add of a coefficient other
    than -0, at index j.  If c[j] is +0, it is dropped too when s_j cannot
    be -0: s_j = c[d] x^(d-j) with c[d] > 0 and d - j even, whose sign is
    positive even when it is a zero (Burgers' (0.5 u) u)."""
    d = len(c) - 1
    if d < 1 or c[d] == 0:
        return None
    adds = [ci != 0 for ci in c[:d]]
    j = next((i for i in range(d) if not (c[i] == 0 and math.copysign(1.0, c[i]) < 0)),
             None)
    if j is not None and c[j] == 0:
        adds[j] = not (c[d] > 0 and (d - j) % 2 == 0 and not any(adds[j + 1:]))
    return adds


def _polynomial(coeffs):
    """x -> polyval(x, coeffs), bit for bit and in kind, for finite
    coefficients.  A float64 array x with ndim >= 1 takes the short form
    (``_short_form``): one new array, d products and the adds that can
    change a bit.  Its result is polyval's where it is finite, and one
    reduction tests that all of it is; if not, x goes through ``_horner``.
    A non-finite x makes the short form non-finite (c[d] is nonzero and
    finite), so polyval's NaN at inf and its NaN payloads hold too.  The
    short form's products are polyval's, so it raises no floating-point
    flag that polyval does not."""
    c = tuple(map(operand, coeffs))
    adds = _short_form(coeffs)
    if adds is None:
        return lambda x: _horner(c, x)
    ops = []  # the passes after r = x c[d]: (ufunc, operand), None for x
    for i in range(len(c) - 2, -1, -1):
        if i < len(c) - 2:
            ops.append((np.multiply, None))
        if adds[i]:
            ops.append((np.add, c[i]))

    def value(x):
        if not (isinstance(x, np.ndarray) and x.ndim and x.dtype == np.float64):
            return _horner(c, x)
        r = np.multiply(x, c[-1])
        for ufunc, b in ops:
            ufunc(r, x if b is None else b, out=r)
        # sum r^2 is finite only if every r is
        return r if math.isfinite(np.vdot(r, r)) else _horner(c, x)
    return value


def polynomial_scalar_law(coeffs, state_box=(-3.0, 3.0)):
    """Scalar 1D law with flux f(u) = sum_i coeffs[i] u^i, plus the
    quadratic entropy pair U = u^2, F = int 2u f'(u) du (exact
    polynomials).  Each polynomial equals ``polyval`` bit for bit
    (``_polynomial``).  Returns (law, pair); a ValueError if the flux's
    coefficients, or those derived from them, are not finite."""
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dc = np.polynomial.polynomial.polyder(c)
        # F' = 2 u f'(u); integrate term by term
        fprime_shift = np.concatenate([[0.0], 2.0 * dc])
        fc = np.polynomial.polynomial.polyint(fprime_shift)
    for name, a in (("flux", c), ("flux Jacobian", dc), ("entropy flux", fc)):
        if not np.isfinite(a).all():
            raise ValueError(f"the {name} coefficients {a.tolist()} are not finite")
    f, df, ff, dff = map(_polynomial, (c, dc, fc, fprime_shift))

    def flux(u):
        return f(np.asarray(u, dtype=float))

    def jac(u):
        return df(np.asarray(u, dtype=float))[..., np.newaxis]

    lo, hi = float(state_box[0]), float(state_box[1])
    law = ConservationLaw(n=1, m=1, flux=(flux,), state_box=([lo], [hi]),
                          flux_jac=(jac,))
    pair = EntropyPair(
        n=1, m=1,
        value=lambda u: u[..., 0] ** 2,
        flux=(lambda u: ff(u[..., 0]),),
        grad=lambda u: 2.0 * u,
        hess=lambda u: np.full(u.shape + (1,), 2.0),
        flux_grad=(dff,),
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

def _field_of_x(m: int, build, *inputs, dtype=float) -> MatrixField:
    """The MatrixField build(*values) of inputs that are each a constant
    array or a batched callable of space points x of shape (..., n):
    ``MatrixField.constant`` when every input is an array, otherwise a
    batched field of x that broadcasts the constant inputs."""
    consts = [None if callable(v) else np.asarray(v, dtype=dtype) for v in inputs]
    if all(c is not None for c in consts):
        return MatrixField.constant(build(*consts))

    def fn(xst, u):
        x = xst[..., 1:]
        return build(*(np.asarray(v(x), dtype=dtype) if c is None
                       else np.broadcast_to(c, x.shape[:-1] + c.shape)
                       for v, c in zip(inputs, consts)))
    return MatrixField(m, fn)


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
    if n is None:
        given = [v for v in (a_jk, a_j) if not callable(v)]
        if not given:
            raise ValueError("pass n explicitly when both coefficients are callables")
        n = np.shape(given[0])[0]
    m = n + 2
    if not callable(a_j) and np.shape(a_j) != (n,):
        raise ValueError(f"a_j must have shape ({n},), got {np.shape(a_j)}")
    if not callable(a_jk):
        if np.shape(a_jk) != (n, n):
            raise ValueError(f"a_jk must be {n} x {n}")
        if not positive_definite(a_jk):
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

    coeff = [MatrixField.constant(np.eye(m))] + [
        _field_of_x(m, lambda ajv, ajkv, j=j: mj_at(ajv, ajkv, j), a_j, a_jk)
        for j in range(n)]
    sigma = _field_of_x(m, sigma_at, a_jk)

    def source(xst, u):
        out = np.zeros(np.shape(u))
        out[..., 0] = u[..., n + 1]
        if forcing is not None:
            out[..., n + 1] = forcing(xst[..., 0], xst[..., 1:])
        return out

    sys = SystemDef(n=n, m=m, coeff=tuple(coeff), source=source,
                    symmetrizer=sigma)

    def gradient_residual(field: GridField) -> np.ndarray:
        return np.stack(
            [field.data[..., 1 + j] - centered_diff(field, j, field.data[..., 0])
             for j in range(n)], axis=-1)

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
        # no leading 0 +: it only turns -0 into +0, which the L2 norm squares away
        d0, d1, d2 = (centered_diff(field, axis, field.data[..., offset + axis])
                      for axis in range(3))
        return d0 + d1 + d2

    # without rho nothing is subtracted: x - 0.0 is x bit for bit
    div_e = ((lambda f: _div(f, 0) - rho(f.coords())) if callable(rho)
             else (lambda f: _div(f, 0)) if rho is None
             else (lambda f, r=float(rho): _div(f, 0) - r))

    return sys, (ConstraintMonitor("div_e", div_e),
                 ConstraintMonitor("div_b", lambda f: _div(f, 3)))


# ---------------------------------------------------------------------------
# polytropic Euler

# p^(1/gamma) element by element through the C library's pow, in numpy's
# scalar C loop: float_power has no SIMD route for float64, so each value
# has math.pow's bits however many cells share a call (np.power's SIMD
# route differs from it in the last bit for some pressures).
_libm_pow = np.float_power


def euler_polytropic_sh(gamma: float, n: int = 1) -> SystemDef:
    """Polytropic gas in (p, v) unknowns, p = rho^gamma with unit
    reference constant:

        (1/gamma p) d_t p + (1/gamma p) v.grad p + div v = 0
        rho d_t v + grad p + rho v.grad v = 0

    Already symmetric; M^0 = diag(1/gamma p, rho I) is positive definite
    on the state box {p > 0}.  Its ``max_speed`` is |v| + c with the sound
    speed c = sqrt(gamma p / rho), the exact largest |characteristic
    speed| over unit normals.
    """
    if gamma <= 1:
        raise ValueError("gamma must exceed 1")
    m = 1 + n
    vel = np.arange(1, m)

    last = {}

    def rho_of(p):
        # M0 and every M^j of one RHS call share one pass: on 64^2 the pass
        # costs some 30 times the key, and redoing it for each M^j would add
        # about a tenth to an euler_sh run. The key holds the values, not the
        # array, since run overwrites its state buffers in place, and the
        # shape, since equal bytes of another shape would broadcast wrongly.
        key = (p.dtype.str, p.shape, p.tobytes())
        if last.get("key") != key:
            try:
                with np.errstate(invalid="raise"):
                    rho = np.asarray(_libm_pow(p, 1.0 / gamma), dtype=float)
            except FloatingPointError:
                # math.pow's error for a finite negative pressure
                raise ValueError("math domain error") from None
            rho.flags.writeable = False
            last.update(key=key, rho=rho)
        return last["rho"]

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

    def max_speed(u):
        # the speeds along a unit normal nu are v.nu and v.nu +- c, so
        # |v| + c is their largest modulus over every nu.  |v|^2 is summed
        # one component at a time: np.sum over the short trailing axis of u
        # costs several times more.  rho_of's pass is the one the next RHS
        # call finds in its cache.
        u = np.asarray(u, dtype=float)
        p = u[..., 0]
        v2 = u[..., 1] * u[..., 1]
        for j in range(2, m):
            v2 = v2 + u[..., j] * u[..., j]
        return np.sqrt(v2) + np.sqrt(gamma * p / rho_of(p))

    coeff = [MatrixField.of_state(m, m0)] + [
        MatrixField.of_state(m, lambda u, j=j: mj(u, j)) for j in range(n)]
    lo = np.concatenate([[1e-300], np.full(n, -np.inf)])
    hi = np.full(m, np.inf)
    return SystemDef(n=n, m=m, coeff=tuple(coeff), state_box=(lo, hi),
                     max_speed=max_speed)


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
        _, v, p = euler_conservative_to_primitive(gamma, u)
        mom, en = u[..., 1], u[..., 2]
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


def tricomi_system(lam: float, y_bound: float):
    """Multiplier form of the Tricomi-type system.

    Starting from L = diag(y, 1)(d_x + lam) - [[0,1],[1,0]] d_y, the
    multiplier Z = [[1, y], [1, 1]] yields K = Z L whose positivity matrix
    is [[1/2 + lam y, lam y], [lam y, lam]].  The certificate samples its
    smallest factorization pivot at 1001 points of |y| <= y_bound; it is
    positive exactly when lam is positive and small enough for the bound.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if y_bound < 0:
        raise ValueError("y_bound must be non-negative")

    a1 = MatrixField(2, lambda pt, u: _sym2(pt[..., 1], pt[..., 1], 1.0))
    system = TricomiSystem(
        lam=lam, a1=a1, a2=MatrixField(2, lambda pt, u: _sym2(-pt[..., 1], -1.0, -1.0)),
        b=MatrixField(2, lambda pt, u: lam * a1(pt, u)))

    ys = np.linspace(-y_bound, y_bound, 1001)
    pivots = np.min(ldlt_pivots(tricomi_certificate_matrix(lam, ys)), axis=-1)
    worst = int(np.argmin(pivots))
    min_pivot = float(pivots[worst])
    cert = PositivityCertificate(positive=min_pivot > 0.0, min_pivot=min_pivot,
                                 worst_y=float(ys[worst]), samples=ys.size)
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
    mc = np.shape(a(np.zeros(2)) if callable(a) else a)[0]
    m = 2 * mc

    def split(mat):
        herm = np.swapaxes(mat.conj(), -1, -2)
        return -_real_rep(0.5 * (mat + herm)), -_real_rep((mat - herm) / 2j)

    coeff = [MatrixField.constant(np.eye(m))] + [
        _field_of_x(m, lambda mat, i=i: split(mat)[i], a, dtype=complex) for i in (0, 1)]

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
    res = symmetry_residual(sys, np.zeros(3), np.zeros(m))
    if float(np.max(res)) > 1e-12:
        raise RuntimeError(f"realified coefficients asymmetric by {np.max(res):.3e}")

    def cr_residual(field: GridField) -> np.ndarray:
        parts = []
        for comp in range(mc):
            u_c = field.data[..., comp] + 1j * field.data[..., mc + comp]
            resid = (centered_diff(field, 0, u_c.real)
                     + 1j * centered_diff(field, 0, u_c.imag))
            resid = resid + 1j * (centered_diff(field, 1, u_c.real)
                                  + 1j * centered_diff(field, 1, u_c.imag))
            parts.extend([resid.real, resid.imag])
        return np.stack(parts, axis=-1)

    return sys, ConstraintMonitor("cauchy_riemann", cr_residual)
