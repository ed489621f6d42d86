"""Manufactured solutions as an order-of-accuracy oracle for ``run`` on
state-dependent systems (Roache, "Code verification by the method of
manufactured solutions", J. Fluids Eng. 124, 2002).

Pick a smooth u*(t, x) and put

    R = M0(u*) d_t u* + sum_j M^j(u*) d_j u*

into the source, built from the model's own coefficient fields and closed-form
derivatives of u*.  Then u* solves the system exactly, and Lax-Friedrichs at
a fixed ratio lambda converges to it at first order.

The law path is held to the same oracle: inviscid Burgers from smooth
periodic data before its shock time, against the exact solution by
characteristics (``law_rhs`` and ``lxf_step``), and viscous Burgers with a
manufactured source (``viscous_step``).
"""

import dataclasses

import numpy as np

from shsys.grid import GridField
from shsys.lxf import SchemeConfig, run
from shsys.models import burgers_law, euler_polytropic_sh

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


def burgers_exact(t, x):
    """The solution u = u0(x - u t) of u_t + (u^2/2)_x = 0 for
    u0 = 0.5 + 0.2 sin 2 pi x, by Newton's method from u0(x).  Before the
    shock time 1 / (0.4 pi) ~ 0.80 the residual is increasing in u."""
    u = 0.5 + 0.2 * np.sin(TWO_PI * x)
    for _ in range(50):
        xi = TWO_PI * (x - u * t)
        u = u - (u - 0.5 - 0.2 * np.sin(xi)) / (1.0 + 0.4 * np.pi * t * np.cos(xi))
    return u


def viscous_exact(t, x):
    """u* = 0.5 + 0.2 sin 2 pi (x - t) and its t, x and xx derivatives."""
    a = TWO_PI * (x - t)
    return (0.5 + 0.2 * np.sin(a), -0.2 * TWO_PI * np.cos(a), 0.2 * TWO_PI * np.cos(a),
            -0.2 * TWO_PI ** 2 * np.sin(a))


def law_l1_error(law, exact, cells, config):
    """h times the summed |u - u*| of a periodic scalar run on [0, 1) at
    t_end."""
    h = 1.0 / cells
    grid = GridField.zeros((cells,), h, 0.0, 1, "periodic")
    x = grid.centers(0)
    trace = run(law, grid.with_data(exact(0.0, x)[:, None]), config)
    assert trace.completed and trace.times[-1] == config.t_end
    return h * np.sum(np.abs(trace.snapshots[-1].data[:, 0] - exact(config.t_end, x)))


def test_burgers_converges_at_first_order_before_the_shock():
    # L1 errors 3.01e-3 at N = 400 and 1.51e-3 at N = 800: order 0.989
    law, _ = burgers_law()
    config = SchemeConfig(lam=0.5, t_end=0.25, output_stride=10 ** 9)
    coarse, fine = (law_l1_error(law, burgers_exact, cells, config) for cells in (400, 800))
    assert 0.9 <= np.log2(coarse / fine) <= 1.1, (coarse, fine)


def test_viscous_burgers_converges_at_second_order():
    # the source u*_t + u* u*_x - eps u*_xx makes u* a solution; with
    # k = 0.4 h^2 / eps the step's O(k) and O(h^2) errors are both O(h^2):
    # L1 errors 1.91e-4 at N = 100 and 4.77e-5 at N = 200, order 2.001
    eps = 0.05
    law, _ = burgers_law()

    def source(x, u):
        star, star_t, star_x, star_xx = viscous_exact(x[..., 0], x[..., 1])
        return (star_t + star * star_x - eps * star_xx)[..., None]

    law = dataclasses.replace(law, source=source)
    errors = []
    for cells in (100, 200):
        lam = 0.4 / (cells * eps)  # k / h with k = 0.4 h^2 / eps
        config = SchemeConfig(lam=lam, t_end=0.1, output_stride=10 ** 9, viscosity=eps)
        errors.append(law_l1_error(law, lambda t, x: viscous_exact(t, x)[0], cells, config))
    coarse, fine = errors
    assert 1.9 <= np.log2(coarse / fine) <= 2.1, (coarse, fine)
