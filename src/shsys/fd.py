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


def jacobian(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function, column per
    component; states of shape (..., m) give Jacobians (..., m, m)."""
    u = np.asarray(u, dtype=float)
    hs = steps(u)
    cols = []
    for i in range(u.shape[-1]):
        e = np.zeros_like(u)
        e[..., i] = hs[..., i]
        cols.append((np.asarray(f(u + e), dtype=float)
                     - np.asarray(f(u - e), dtype=float)) / (2.0 * hs[..., i, None]))
    return np.stack(cols, axis=-1)


def gradient(f: Callable[[np.ndarray], float], u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    hs = steps(u)
    g = np.empty_like(u)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = hs[i]
        g[i] = (float(f(u + e)) - float(f(u - e))) / (2.0 * hs[i])
    return g


def hessian(f: Callable[[np.ndarray], float], u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    hs = steps(u, STEP_SECOND)
    m = u.size
    out = np.empty((m, m))
    f0 = float(f(u))
    for i in range(m):
        ei = np.zeros_like(u)
        ei[i] = hs[i]
        out[i, i] = (float(f(u + ei)) - 2.0 * f0 + float(f(u - ei))) / (hs[i] ** 2)
        for j in range(i + 1, m):
            ej = np.zeros_like(u)
            ej[j] = hs[j]
            cross = (float(f(u + ei + ej)) - float(f(u + ei - ej))
                     - float(f(u - ei + ej)) + float(f(u - ei - ej)))
            out[i, j] = out[j, i] = cross / (4.0 * hs[i] * hs[j])
    return out


def directional(f: Callable[[np.ndarray], float], u: np.ndarray, d: np.ndarray) -> float:
    """Derivative of f along direction d (not normalized here)."""
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    dscale = max(1.0, float(np.max(np.abs(d))))
    s = STEP_FIRST * max(1.0, float(np.max(np.abs(u)))) / dscale
    return (float(f(u + s * d)) - float(f(u - s * d))) / (2.0 * s)
