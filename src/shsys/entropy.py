"""Convex-entropy symmetrization of conservation laws.

For a law d_t u^A + d_j f^Aj(u) = 0 with a strictly convex scalar U(u) and
flux scalars U^j(u), the key identity is

    grad U . df^j/du = grad U^j        (per space index j),

which makes sigma = hess U a symmetrizer of the quasi-linear form, and the
entropy variables v = grad U a change of unknowns under which the fluxes
derive from potentials g^j(v) = v . f^j - U^j with dg^j/dv = f^j.  The
operations here verify each leg of that equivalence numerically and invert
v = grad U by damped Newton iteration (the Legendre dual).

Jump convention used throughout the package: [q] = q_right - q_left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .core import (MatrixField, SystemDef, _asymmetry, batch_checked, is_sh,
                   positive_definite, sample_box)


class ConvergenceError(RuntimeError):
    """Newton iteration failed; carries the last iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class ConservationLaw:
    """Flux form of a quasi-linear system, time flux fixed to the state.

    ``flux[j]`` maps states of shape (..., m) to fluxes of the same shape
    (vectorized over leading axes).  ``flux_jac[j]``, when given, maps
    states (..., m) to the exact Jacobians (..., m, m); a single state is
    the empty batch.  ``state_box`` delimits the admissible states used
    for sampling; ``admissible`` optionally refines it with a non-box
    predicate (vectorized, any leading shape -> bool).
    ``source(x, u)``, like ``SystemDef.source``, gets space-time points x
    of shape (..., n+1), (t, x_1..x_n), and states u of shape (..., m).
    """

    n: int
    m: int
    flux: tuple
    state_box: tuple
    source: Optional[Callable] = None
    flux_jac: Optional[tuple] = None
    admissible: Optional[Callable] = None

    def __post_init__(self):
        if len(self.flux) != self.n:
            raise ValueError(f"need n = {self.n} space flux fields, got {len(self.flux)}")
        lo, hi = (np.asarray(b, dtype=float) for b in self.state_box)
        if lo.shape != (self.m,) or hi.shape != (self.m,):
            raise ValueError("state_box corners must have length m")
        object.__setattr__(self, "state_box", (lo, hi))

    def jacobian(self, j: int, u) -> np.ndarray:
        """df^j/du at states (..., m), as (..., m, m); exact when supplied,
        else central FD."""
        u = np.asarray(u, dtype=float)
        if self.flux_jac is not None:
            return np.asarray(self.flux_jac[j](u), dtype=float)
        return fd.jacobian(self.flux[j], u)

    def contains(self, u, slack: float = 1e-9):
        """Whether each state of (..., m) lies in the box, as (...)."""
        lo, hi = self.state_box
        u = np.asarray(u, dtype=float)
        return np.all((u >= lo - slack) & (u <= hi + slack), axis=-1)


def _batched(fn: Callable, what: str, tail: tuple = ()) -> Callable:
    """fn on states (..., m), checked to return (...) + tail."""
    def call(u):
        u = np.asarray(u, dtype=float)
        return batch_checked(fn(u), u.shape[:-1] + tail, len(tail), what)
    return call


@dataclass(frozen=True)
class EntropyPair:
    """Scalar entropy U(u) with flux scalars U^j(u).

    Every callable is batched: states of shape (..., m) give ``value`` and
    ``flux[j]`` of shape (...), ``grad`` and ``flux_grad[j]`` of shape
    (..., m) and ``hess`` of shape (..., m, m); a single state is the
    empty batch, and any other shape raises a ValueError naming the
    expected one.  Exact ``grad``/``hess``/``flux_grad`` evaluators are
    used when given; otherwise central finite differences stand in
    (degrading certified tolerances by roughly a factor 1e3).
    """

    n: int
    m: int
    value: Callable[[np.ndarray], np.ndarray]
    flux: tuple
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    flux_grad: Optional[tuple] = None

    def __post_init__(self):
        if len(self.flux) != self.n:
            raise ValueError(f"need n = {self.n} entropy flux functions")
        m = self.m
        checked = {
            "value": _batched(self.value, "entropy value"),
            "flux": tuple(_batched(f, "entropy flux") for f in self.flux),
            "grad": self.grad and _batched(self.grad, "entropy gradient", (m,)),
            "hess": self.hess and _batched(self.hess, "entropy Hessian", (m, m)),
            "flux_grad": self.flux_grad and tuple(
                _batched(g, "entropy flux gradient", (m,)) for g in self.flux_grad),
        }
        for name, fn in checked.items():
            object.__setattr__(self, name, fn)

    def gradient(self, u) -> np.ndarray:
        return self.grad(u) if self.grad is not None else fd.gradient(self.value, u)

    def hessian(self, u) -> np.ndarray:
        return self.hess(u) if self.hess is not None else fd.hessian(self.value, u)

    def flux_gradient(self, j: int, u) -> np.ndarray:
        return (self.flux_grad[j](u) if self.flux_grad is not None
                else fd.gradient(self.flux[j], u))


@dataclass(frozen=True)
class DiffusionTensor:
    """Second-order coefficients B^Ajk_B: an m x m matrix per (j, k) pair.

    ``fn(x, u, j, k)`` is batched like ``MatrixField.fn``: x of shape
    (..., n+1) and u of shape (..., m) give (..., m, m)."""

    n: int
    m: int
    fn: Callable[[np.ndarray, np.ndarray, int, int], np.ndarray]

    def __call__(self, x, u, j: int, k: int) -> np.ndarray:
        return MatrixField(self.m, lambda x, u: self.fn(x, u, j, k))(x, u)


def _as_states(law_or_m, samples) -> np.ndarray:
    states = np.atleast_2d(np.asarray(samples, dtype=float))
    m = law_or_m if isinstance(law_or_m, int) else law_or_m.m
    if states.shape[-1] != m:
        raise ValueError(f"samples must have {m} components")
    return states


def entropy_pair_residual(law: ConservationLaw, pair: EntropyPair, samples) -> float:
    """Max over samples and space indices of
    || grad U . df^j/du - grad U^j ||_inf.  Zero certifies the entropy
    identity at the sampled states."""
    states = _as_states(law, samples)
    inside = law.contains(states)
    if not inside.all():
        raise ValueError(f"sample {states[np.argmin(inside)]} outside the admissible state box")
    g = pair.gradient(states)[..., np.newaxis, :]
    return max(float(np.max(np.abs((g @ law.jacobian(j, states))[..., 0, :]
                                    - pair.flux_gradient(j, states))))
               for j in range(law.n))


def entropy_variables(pair: EntropyPair, u) -> np.ndarray:
    """v = grad U(u)."""
    return pair.gradient(u)


def legendre_dual(pair: EntropyPair, v, u_guess, newton_tol: float = 1e-10,
                  max_iter: int = 50):
    """Solve grad U(u) = v by damped Newton from u_guess.

    Returns (u, g0) with g0 = u . v - U(u), the dual potential value.
    The residual contract is ||grad U(u) - v||_inf <= newton_tol relative
    to max(1, |v|).
    """
    target = np.atleast_1d(np.asarray(v, dtype=float))
    u = np.atleast_1d(np.asarray(u_guess, dtype=float)).copy()
    scale = max(1.0, float(np.max(np.abs(target))))
    res = pair.gradient(u) - target
    for _ in range(max_iter):
        if float(np.max(np.abs(res))) <= newton_tol * scale:
            g0 = float(u @ target - pair.value(u))
            return u, g0
        hess = pair.hessian(u)
        try:
            step = np.linalg.solve(hess, -res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Hessian during Newton iteration",
                                   last=u) from exc
        best = float(np.max(np.abs(res)))
        frac = 1.0
        for _ in range(8):
            trial = u + frac * step
            trial_res = pair.gradient(trial) - target
            if float(np.max(np.abs(trial_res))) < best:
                break
            frac *= 0.5
        else:
            trial = u + frac * step
            trial_res = pair.gradient(trial) - target
        u, res = trial, trial_res
    if float(np.max(np.abs(res))) <= newton_tol * scale:
        return u, float(u @ target - pair.value(u))
    raise ConvergenceError(
        f"Newton did not reach tolerance {newton_tol:g} in {max_iter} iterations "
        f"(residual {float(np.max(np.abs(res))):.3e})", last=u)


def hessian_symmetrizer(law: ConservationLaw, pair: EntropyPair,
                        samples=None, per_axis: int = 4):
    """The Hessian of U as a candidate symmetrizer.

    Returns (sigma, verdict): sigma is hess U as a MatrixField and the
    verdict comes from the SH check of the quasi-linear form
    M^0 = sigma, M^j = sigma . df^j/du over the samples (defaults to a
    tensor grid on the state box).  Convexity failure at a sample raises.
    """
    states = (sample_box(*law.state_box, per_axis=per_axis)
              if samples is None else _as_states(law, samples))
    convex = positive_definite(pair.hessian(states))
    if not convex.all():
        raise ValueError(
            f"entropy Hessian is not positive definite at {states[np.argmin(convex)]}")

    sigma = MatrixField.of_state(law.m, pair.hessian)
    sys = SystemDef(n=law.n, m=law.m, coeff=(sigma,) + tuple(
        MatrixField.of_state(law.m, lambda u, j=j: pair.hessian(u) @ law.jacobian(j, u))
        for j in range(law.n)))
    # FD Jacobians inside the coefficients loosen the symmetry tolerance
    verdict = is_sh(sys, zip(itertools.repeat(np.zeros(law.n + 1)), states),
                    sym_tol=None if law.flux_jac is not None else 1e-6)
    return sigma, verdict


def flux_potential_check(law: ConservationLaw, pair: EntropyPair, samples,
                         newton_tol: float = 1e-10) -> float:
    """Verify the dual potentials: with v = grad U(u) and
    g^j(v) = v . f^j(u(v)) - U^j(u(v)), centered differences in v must give
    dg^j/dv = f^j(u(v)), and U must equal v . u - g0.  Returns the max of
    both residuals over the samples."""
    states = _as_states(law, samples)
    worst = 0.0

    def g_j(j, v, guess):
        u_v, _ = legendre_dual(pair, v, guess, newton_tol=newton_tol)
        return float(v @ law.flux[j](u_v) - pair.flux[j](u_v)), u_v

    for u in states:
        v = pair.gradient(u)
        u_c, g0 = legendre_dual(pair, v, u, newton_tol=newton_tol)
        worst = max(worst, abs(float(v @ u) - g0 - float(pair.value(u))))
        hs = fd.steps(v)
        for j in range(law.n):
            f_c = np.asarray(law.flux[j](u_c), dtype=float)
            for a in range(law.m):
                e = np.zeros_like(v)
                e[a] = hs[a]
                gp, _ = g_j(j, v + e, u_c)
                gm, _ = g_j(j, v - e, u_c)
                worst = max(worst, abs((gp - gm) / (2.0 * hs[a]) - f_c[a]))
    return worst


def conservative_symmetry_check(law: ConservationLaw, samples,
                                tol: float = 1e-6) -> list:
    """Per space index: is df^j/du symmetric at all samples?  (A
    conservation law is symmetric exactly when its flux Jacobians are.)"""
    states = _as_states(law, samples)
    return [not _asymmetry(law.jacobian(j, states), rtol=tol)[1].any()
            for j in range(law.n)]


def diffusion_symmetry_check(tensor: DiffusionTensor, samples,
                             tol: float = 1e-10, x=None) -> bool:
    """True iff B^Ajk_B = B^Bkj_A (block (j,k) equals the transpose of
    block (k,j)) within tol at all samples."""
    states = _as_states(tensor.m, samples)
    x = np.zeros(tensor.n + 1) if x is None else np.asarray(x, dtype=float)
    for j, k in itertools.product(range(tensor.n), repeat=2):
        bjk = tensor(x, states, j, k)
        gap = np.max(np.abs(bjk - np.swapaxes(tensor(x, states, k, j), -1, -2)), axis=(-2, -1))
        if np.any(gap > tol * np.max(np.abs(bjk), axis=(-2, -1), initial=1.0)):
            return False
    return True
