"""Shared finite-difference derivative helpers.

Central differences with step eps**(1/3) * max(1, |u_i|) per component
(eps**(1/4) for second derivatives), balancing truncation and rounding
for twice-differentiable evaluators.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
STEP_FIRST = _EPS ** (1.0 / 3.0)
STEP_SECOND = _EPS ** 0.25


def steps(u: np.ndarray, scale: float = STEP_FIRST) -> np.ndarray:
    return scale * np.maximum(1.0, np.abs(np.asarray(u, dtype=float)))


def _step_along(hs: np.ndarray, i: int) -> np.ndarray:
    """Zero steps except hs[..., i] in component i."""
    e = np.zeros_like(hs)
    e[..., i] = hs[..., i]
    return e


def jacobian(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function, column per
    component; states of shape (..., m) give Jacobians (..., m, m)."""
    u = np.asarray(u, dtype=float)
    hs = steps(u)
    cols = []
    for i in range(u.shape[-1]):
        e = _step_along(hs, i)
        cols.append((np.asarray(f(u + e), dtype=float)
                     - np.asarray(f(u - e), dtype=float)) / (2.0 * hs[..., i, None]))
    return np.stack(cols, axis=-1)


def gradient(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function; states of shape
    (..., m) give gradients (..., m)."""
    return jacobian(lambda v: np.asarray(f(v), dtype=float)[..., np.newaxis], u)[..., 0, :]


def hessian(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of a scalar function; states of shape
    (..., m) give Hessians (..., m, m)."""
    u = np.asarray(u, dtype=float)
    hs = steps(u, STEP_SECOND)
    m = u.shape[-1]
    out = np.empty(u.shape + (m,))
    f0 = f(u)
    for i in range(m):
        ei = _step_along(hs, i)
        out[..., i, i] = (f(u + ei) - 2.0 * f0 + f(u - ei)) / (hs[..., i] ** 2)
        for j in range(i + 1, m):
            ej = _step_along(hs, j)
            cross = (f(u + ei + ej) - f(u + ei - ej)
                     - f(u - ei + ej) + f(u - ei - ej))
            out[..., i, j] = out[..., j, i] = cross / (4.0 * hs[..., i] * hs[..., j])
    return out


def directional(f: Callable[[np.ndarray], float], u: np.ndarray, d: np.ndarray) -> float:
    """Derivative of f along direction d (not normalized here)."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    dscale = max(1.0, float(np.max(np.abs(d))))
    s = STEP_FIRST * max(1.0, float(np.max(np.abs(u)))) / dscale
    return (float(f(u + s * d)) - float(f(u - s * d))) / (2.0 * s)
