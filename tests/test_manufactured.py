"""Manufactured solutions as an order-of-accuracy oracle for ``run`` on
state-dependent systems (Roache, "Code verification by the method of
manufactured solutions", J. Fluids Eng. 124, 2002).

Pick a smooth u*(t, x) and put

    R = M0(u*) d_t u* + sum_j M^j(u*) d_j u*

into the source, built from the model's own coefficient fields and closed-form
derivatives of u*.  Then u* solves the system exactly, and Lax-Friedrichs at
a fixed ratio lambda converges to it at first order.
"""

import dataclasses

import numpy as np

from shsys.grid import GridField
from shsys.lxf import SchemeConfig, run
from shsys.models import euler_polytropic_sh

TWO_PI = 2.0 * np.pi


def euler_1d_exact(t, x):
    """u* = (p*, v*) with p* = 1 + 0.2 sin 2 pi (x - t) and
    v* = 0.1 cos 2 pi (x + t/2), and its t and x derivatives."""
    a, b = TWO_PI * (x - t), TWO_PI * (x + 0.5 * t)
    u = np.stack([1.0 + 0.2 * np.sin(a), 0.1 * np.cos(b)], axis=-1)
    u_t = np.stack([-0.2 * TWO_PI * np.cos(a), -0.05 * TWO_PI * np.sin(b)], axis=-1)
    u_x = np.stack([0.2 * TWO_PI * np.cos(a), -0.1 * TWO_PI * np.sin(b)], axis=-1)
    return u, u_t, u_x


def manufactured(system, exact):
    """``system`` with the source that makes ``exact`` a solution; the
    source reads the point x = (t, x1) and ignores the state."""
    def source(x, u):
        star, star_t, star_x = exact(x[..., 0], x[..., 1])
        m0, m1 = (field(x, star) for field in system.coeff)
        return (np.einsum("...ij,...j->...i", m0, star_t)
                + np.einsum("...ij,...j->...i", m1, star_x))
    return dataclasses.replace(system, source=source)


def l1_error(system, exact, cells, lam, t_end):
    """h times the summed |u - u*| of a periodic run on [0, 1) at t_end."""
    h = 1.0 / cells
    grid = GridField.zeros((cells,), h, 0.0, system.m, "periodic")
    x = grid.centers(0)
    trace = run(system, grid.with_data(exact(0.0, x)[0]), SchemeConfig(lam=lam, t_end=t_end))
    assert trace.completed and trace.times[-1] == t_end
    return h * np.sum(np.abs(trace.snapshots[-1].data - exact(t_end, x)[0]))


def test_euler_sh_1d_converges_at_first_order():
    # L1 errors 2.98e-3 at N = 400 and 1.50e-3 at N = 800: order 0.994
    system = manufactured(euler_polytropic_sh(1.4, n=1), euler_1d_exact)
    coarse, fine = (l1_error(system, euler_1d_exact, cells, 0.5, 0.25) for cells in (400, 800))
    assert 0.9 <= np.log2(coarse / fine) <= 1.1, (coarse, fine)
