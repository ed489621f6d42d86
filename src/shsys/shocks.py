"""Shock-wave analysis for 1D conservation laws: jump relations, entropy
admissibility, genuine nonlinearity, exact scalar Riemann solutions, and
viscous-limit comparisons.

Jump convention: [q] = q_right - q_left.  A discontinuity moving at speed
c is consistent when c[u] = [f(u)], and admissible when the entropy
production [F] - c[U] across it is non-positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import fd
from .entropy import ConservationLaw, EntropyPair
from .grid import GridField
from .lxf import SchemeConfig, run


def _scalar_flux(law: ConservationLaw) -> Callable[[np.ndarray], np.ndarray]:
    if law.m != 1:
        raise ValueError("scalar operation requires a one-component law")
    return lambda u: np.asarray(law.flux[0](np.asarray(u, dtype=float)[..., np.newaxis]),
                                dtype=float)[..., 0]


def _scalar_fprime(law: ConservationLaw) -> Callable[[np.ndarray], np.ndarray]:
    """f'(u) at scalar states u of any shape, in one Jacobian call."""
    return lambda u: law.jacobian(0, np.asarray(u, dtype=float)[..., np.newaxis])[..., 0, 0]


def _vec(u, m) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    if arr.shape != (m,):
        raise ValueError(f"state must have {m} components, got shape {arr.shape}")
    return arr


def rh_speed(law: ConservationLaw, u_l, u_r) -> float:
    """Jump speed c = [f] / [u] of a scalar discontinuity."""
    if law.m != 1:
        raise ValueError("rh_speed applies to scalar laws; use rh_residual for systems")
    ul, ur = float(np.asarray(u_l).reshape(())), float(np.asarray(u_r).reshape(()))
    if ul == ur:
        raise ValueError("states are equal: no jump to propagate")
    f = _scalar_flux(law)
    return float((f(np.array(ur)) - f(np.array(ul))) / (ur - ul))


def rh_residual(law: ConservationLaw, u_l, u_r, c: float) -> np.ndarray:
    """[f(u)] - c [u] componentwise; zero certifies jump consistency."""
    ul = _vec(u_l, law.m)
    ur = _vec(u_r, law.m)
    fl = np.asarray(law.flux[0](ul), dtype=float)
    fr = np.asarray(law.flux[0](ur), dtype=float)
    return (fr - fl) - c * (ur - ul)


@dataclass(frozen=True)
class ShockCandidate:
    """A discontinuity with its consistency residual and admissibility."""

    u_left: np.ndarray
    u_right: np.ndarray
    speed: float
    rh_residual: np.ndarray
    admissible: bool
    production: float


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    production: float  # [F] - c [U]; non-positive for admissible jumps

    def __bool__(self):
        return self.admissible


def entropy_admissible(law: ConservationLaw, pair: EntropyPair, u_l, u_r,
                       c: float, tol: float = 1e-12) -> AdmissibilityVerdict:
    """Weak entropy inequality across a discontinuity of speed c:
    production = [F] - c [U] must be <= tol."""
    ul = _vec(u_l, law.m)
    ur = _vec(u_r, law.m)
    production = (float(pair.flux[0](ur)) - float(pair.flux[0](ul))
                  - c * (float(pair.value(ur)) - float(pair.value(ul))))
    return AdmissibilityVerdict(admissible=production <= tol, production=production)


def shock_candidate(law: ConservationLaw, pair: EntropyPair, u_l, u_r,
                    c: float) -> ShockCandidate:
    """Bundle a proposed jump with its consistency residual and verdict."""
    verdict = entropy_admissible(law, pair, u_l, u_r, c)
    return ShockCandidate(u_left=_vec(u_l, law.m), u_right=_vec(u_r, law.m),
                          speed=c, rh_residual=rh_residual(law, u_l, u_r, c),
                          admissible=verdict.admissible,
                          production=verdict.production)


def genuine_nonlinearity(law: ConservationLaw, u, index: int) -> float:
    """Directional derivative of the index-th characteristic speed along
    its right eigenvector (unit norm, first nonzero component positive).

    Zero marks a linearly degenerate field.  The eigenvalue must be simple:
    a neighbor closer than 1e-8 raises.
    """
    u = _vec(u, law.m)

    def sorted_eigs(state):
        vals, vecs = np.linalg.eig(law.jacobian(0, state))
        if np.max(np.abs(vals.imag)) > 1e-8 * max(1.0, np.max(np.abs(vals))):
            raise ValueError(f"complex characteristic speeds at {state}")
        order = np.argsort(vals.real)
        return vals.real[order], vecs.real[:, order]

    vals, vecs = sorted_eigs(u)
    if not 0 <= index < law.m:
        raise ValueError(f"field index must lie in [0, {law.m})")
    gaps = [abs(vals[index] - vals[i]) for i in range(law.m) if i != index]
    if gaps and min(gaps) < 1e-8:
        raise ValueError(
            f"characteristic speed {index} is not simple (gap {min(gaps):.3e})")
    r = vecs[:, index]
    r = r / np.linalg.norm(r)
    lead = np.nonzero(np.abs(r) > 1e-12)[0][0]
    if r[lead] < 0:
        r = -r
    return fd.directional(lambda s: sorted_eigs(s)[0][index], u, r)


@dataclass(frozen=True)
class RiemannSolution:
    """Self-similar solution w(xi), xi = x/t, of a scalar Riemann problem."""

    kind: str  # shock | rarefaction | constant
    u_left: float
    u_right: float
    speed: Optional[float] = None          # shock
    fan: Optional[tuple] = None            # (xi_left, xi_right) of a rarefaction
    _inverse: Optional[Callable] = None    # solves f'(w) = xi inside the fan

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.kind == "constant":
            return np.full_like(xi, self.u_left)
        if self.kind == "shock":
            return np.where(xi < self.speed, self.u_left, self.u_right)
        lo, hi = self.fan
        inside = self._inverse(np.clip(xi, lo, hi))
        out = np.where(xi <= lo, self.u_left, np.where(xi >= hi, self.u_right, inside))
        return out


def _check_convex(fprime, u_lo: float, u_hi: float):
    us = np.linspace(u_lo, u_hi, 201)
    slopes = fprime(us)
    second = np.diff(slopes) / np.diff(us)
    scale = max(1.0, float(np.max(np.abs(slopes))))
    if second.size and float(np.min(second)) < -1e-7 * scale:
        raise ValueError(
            f"flux is not convex on [{u_lo:.6g}, {u_hi:.6g}] "
            f"(second derivative reaches {float(np.min(second)):.3e})")


def riemann_scalar(law: ConservationLaw, u_l: float, u_r: float,
                   pair: Optional[EntropyPair] = None) -> RiemannSolution:
    """Exact entropy solution of a scalar Riemann problem for a convex flux:
    a shock for u_l > u_r, a rarefaction fan for u_l < u_r, constant for
    equal states.  Convexity is checked on the state interval."""
    u_l, u_r = float(u_l), float(u_r)
    if u_l == u_r:
        return RiemannSolution(kind="constant", u_left=u_l, u_right=u_r)
    fprime = _scalar_fprime(law)
    lo, hi = min(u_l, u_r), max(u_l, u_r)
    _check_convex(fprime, lo, hi)
    if u_l > u_r:
        c = rh_speed(law, u_l, u_r)
        if pair is not None:
            verdict = entropy_admissible(law, pair, [u_l], [u_r], c)
            if not verdict.admissible:
                raise ValueError(
                    f"shock from {u_l} to {u_r} rejected: production "
                    f"{verdict.production:.3e} > 0")
        return RiemannSolution(kind="shock", u_left=u_l, u_right=u_r, speed=c)

    xi_l, xi_r = float(fprime(u_l)), float(fprime(u_r))

    def inverse(xi):
        xi = np.asarray(xi, dtype=float)
        a = np.full(xi.shape, u_l)
        b = np.full(xi.shape, u_r)
        for _ in range(60):
            mid = 0.5 * (a + b)
            take_hi = fprime(mid) < xi
            a = np.where(take_hi, mid, a)
            b = np.where(take_hi, b, mid)
        return 0.5 * (a + b)

    return RiemannSolution(kind="rarefaction", u_left=u_l, u_right=u_r,
                           fan=(xi_l, xi_r), _inverse=inverse)


def _runs(idx: np.ndarray) -> list:
    """Sorted interface indices split wherever two neighbours are more than
    one quiet interface apart (index gap > 2)."""
    return np.split(idx, np.flatnonzero(np.diff(idx) > 2) + 1) if idx.size else []


def _spans(flagged: np.ndarray, strength: np.ndarray) -> list:
    """(first, last) interface of each discontinuity of ``shock_detect``,
    left to right, sharing no interface."""
    spans = []
    for flags in _runs(np.flatnonzero(flagged)):
        lo, hi = flags[0], flags[-1]
        live = np.union1d(np.flatnonzero(strength >= 0.1 * np.max(strength[lo:hi + 1])), flags)
        lo, hi = next((run[0], run[-1]) for run in _runs(live) if run[0] <= lo <= run[-1])
        while spans and lo <= spans[-1][1]:
            prev_lo, prev_hi = spans.pop()
            lo, hi = min(lo, prev_lo), max(hi, prev_hi)
        spans.append((lo, hi))
    return spans


def shock_detect(snapshot: GridField, threshold: float = 0.25) -> list:
    """Locate discontinuities in a 1D snapshot.

    Interfaces where some component jumps by more than threshold times
    max(1, that component's range) are flagged.  The averaging step of the
    scheme decouples odd and even cells at steep fronts, interleaving the
    strong interfaces with zero ones, so one run rule (``_runs``) groups
    interfaces at most one quiet interface apart.  A run of flags spans
    the run, under the same rule, of itself and the interfaces carrying at
    least a tenth of its peak jump; spans that share an interface are one
    discontinuity.  Returns (position, jump) per span, left to right: the
    jump-weighted mean interface position, and the state difference
    across the span (right minus left).
    """
    if snapshot.n != 1:
        raise ValueError("shock detection is 1D")
    data = snapshot.data
    cells = snapshot.shape[0]
    if cells < 2:
        return []
    diffs = data[1:] - data[:-1]                      # (cells-1, m)
    ranges = np.maximum(1.0, data.max(axis=0) - data.min(axis=0))
    flagged = np.any(np.abs(diffs) > threshold * ranges, axis=-1)
    strength = np.max(np.abs(diffs), axis=-1)
    centers_x = snapshot.centers(0)
    iface_x = 0.5 * (centers_x[1:] + centers_x[:-1])

    out = []
    for lo, hi in _spans(flagged, strength):
        w = strength[lo:hi + 1]
        keep = w > 0
        pos = float(np.sum(iface_x[lo:hi + 1][keep] * w[keep]) / np.sum(w[keep]))
        jump = data[hi + 1] - data[lo]
        out.append((pos, jump if snapshot.m > 1 else float(jump[0])))
    return out


def shock_speed_fit(trace, threshold: float = 0.25, t_min: float = 0.0):
    """Least-squares speed of the strongest detected discontinuity across
    the snapshots of a trace.  Returns (speed, [(t, position)])."""
    points = []
    for t, snap in zip(trace.times, trace.snapshots):
        if t < t_min:
            continue
        found = shock_detect(snap, threshold)
        if not found:
            continue
        best = max(found, key=lambda item: float(np.max(np.abs(np.atleast_1d(item[1])))))
        points.append((t, best[0]))
    if len(points) < 2:
        raise ValueError("need at least two snapshots with a detected jump")
    ts = np.array([p[0] for p in points])
    xs = np.array([p[1] for p in points])
    speed = float(np.polyfit(ts, xs, 1)[0])
    return speed, points


class ResolutionError(RuntimeError):
    """Grid too coarse to resolve the requested viscosity."""


def viscous_limit_compare(law: ConservationLaw, pair: EntropyPair, u_l: float,
                          u_r: float, eps_list: Sequence[float],
                          grid: GridField, t: float) -> list:
    """Evolve step data under decreasing viscosities and measure the L1
    distance to the exact Riemann solution at time t.

    Refuses h > eps/4 (unresolved viscosity invalidates the comparison).
    Each run takes SchemeConfig's default cfl_safety.
    Returns rows (eps, l1_distance, final snapshot); distances are
    expected non-increasing along a decreasing eps list.
    """
    if grid.n != 1 or law.m != 1:
        raise ValueError("viscous comparison is for scalar 1D laws")
    exact = riemann_scalar(law, u_l, u_r, pair=pair)
    h = grid.h[0]
    x = grid.centers(0)
    step_data = np.where(x < 0.0, u_l, u_r)[:, np.newaxis]
    us = np.linspace(min(u_l, u_r), max(u_l, u_r), 65)
    a_max = max(float(np.max(np.abs(_scalar_fprime(law)(us)))), 1e-12)

    rows = []
    for eps in eps_list:
        if h > eps / 4.0:
            raise ResolutionError(
                f"h = {h:.4g} exceeds eps/4 = {eps / 4.0:.4g}: viscosity unresolved")
        k = SchemeConfig.cfl_safety * min(h ** 2 / (2.0 * eps), h / (2.0 * a_max))
        config = SchemeConfig(lam=k / h, t_end=t, output_stride=10 ** 9, viscosity=eps)
        initial = grid.with_data(step_data.copy())
        trace = run(law, initial, config)
        if not trace.completed:
            raise RuntimeError(f"viscous run failed: {trace.error}")
        final = trace.snapshots[-1]
        l1 = float(np.sum(np.abs(final.data[:, 0] - exact(x / t))) * h)
        rows.append((float(eps), l1, final))
    return rows
