"""Manufactured solutions as an order-of-accuracy oracle for ``run`` on
state-dependent systems (Roache, "Code verification by the method of
manufactured solutions", J. Fluids Eng. 124, 2002).

Pick a smooth u*(t, x) and put

    R = M0(u*) d_t u* + sum_j M^j(u*) d_j u*

into the source, built from the model's own coefficient fields and closed-form
derivatives of u*.  Then u* solves the system exactly, and Lax-Friedrichs at
a fixed ratio lambda converges to it at first order.

A linear system with (t, x) coefficients goes through ``LinearSystem.as_system``
with the forcing f = Q u*_t + A u*_x + B u*, so that its own source f - B u
is under test too.

The 2D case runs once more in several row windows of axis 0
(``grid.row_windows``), which must give the same bits.

The law path is held to the same oracle: inviscid Burgers from smooth
periodic data before its shock time, against the exact solution by
characteristics (``law_rhs`` and ``lxf_step``), and viscous Burgers with a
manufactured source (``viscous_step``).
"""

import dataclasses

import numpy as np

from shsys.energy import LinearSystem
from shsys.grid import GridField, row_windows
from shsys.lxf import SchemeConfig, run
from shsys.models import burgers_law, euler_polytropic_sh

from test_row_windows import budget, row_bytes

TWO_PI = 2.0 * np.pi


def euler_1d_exact(t, x):
    """u* = (p*, v*) with p* = 1 + 0.2 sin 2 pi (x - t) and
    v* = 0.1 cos 2 pi (x + t/2), and its t and x derivatives."""
    a, b = TWO_PI * (x - t), TWO_PI * (x + 0.5 * t)
    u = np.stack([1.0 + 0.2 * np.sin(a), 0.1 * np.cos(b)], axis=-1)
    u_t = np.stack([-0.2 * TWO_PI * np.cos(a), -0.05 * TWO_PI * np.sin(b)], axis=-1)
    u_x = np.stack([0.2 * TWO_PI * np.cos(a), -0.1 * TWO_PI * np.sin(b)], axis=-1)
    return u, u_t, u_x


def euler_2d_exact(t, x, y):
    """u* = (p*, v1*, v2*) with p* = 1 + 0.2 sin 2 pi (x + y - t),
    v1* = 0.1 cos 2 pi (x + t/2) and v2* = 0.1 sin 2 pi (y - t/2), and its
    t, x and y derivatives."""
    a, b, c = TWO_PI * (x + y - t), TWO_PI * (x + 0.5 * t), TWO_PI * (y - 0.5 * t)
    zero = np.zeros_like(a)
    u = np.stack([1.0 + 0.2 * np.sin(a), 0.1 * np.cos(b), 0.1 * np.sin(c)], axis=-1)
    u_t = np.stack([-0.2 * TWO_PI * np.cos(a), -0.05 * TWO_PI * np.sin(b),
                    -0.05 * TWO_PI * np.cos(c)], axis=-1)
    u_x = np.stack([0.2 * TWO_PI * np.cos(a), -0.1 * TWO_PI * np.sin(b), zero], axis=-1)
    u_y = np.stack([0.2 * TWO_PI * np.cos(a), zero, 0.1 * TWO_PI * np.cos(c)], axis=-1)
    return u, u_t, u_x, u_y


def manufactured(system, exact):
    """``system`` with the source that makes ``exact`` a solution; the
    source reads the point x = (t, x1, ..., xn) and ignores the state.
    ``exact(t, x1, ..., xn)`` gives u* and its t, x1, ..., xn derivatives."""
    def source(x, u):
        star, star_t, *star_x = exact(x[..., 0], *np.moveaxis(x[..., 1:], -1, 0))
        m0, *mj = (field(x, star) for field in system.coeff)
        total = np.einsum("...ij,...j->...i", m0, star_t)
        for m, d in zip(mj, star_x):
            total = total + np.einsum("...ij,...j->...i", m, d)
        return total
    return dataclasses.replace(system, source=source)


def periodic_run(system, exact, cells, lam, t_end):
    """The state u at t_end of a periodic run from u* on [0, 1)^n, with
    ``cells`` cells per axis, and its L1 error h^n times the summed |u - u*|."""
    h = 1.0 / cells
    grid = GridField.zeros((cells,) * system.n, h, 0.0, system.m, "periodic")
    x = np.moveaxis(grid.coords(), -1, 0)
    config = SchemeConfig(lam=lam, t_end=t_end, output_stride=10 ** 9)
    trace = run(system, grid.with_data(exact(0.0, *x)[0]), config)
    assert trace.completed and trace.times[-1] == t_end
    u = trace.snapshots[-1].data
    return u, h ** system.n * np.sum(np.abs(u - exact(t_end, *x)[0]))


def l1_error(system, exact, cells, lam, t_end):
    return periodic_run(system, exact, cells, lam, t_end)[1]


def test_euler_sh_1d_converges_at_first_order():
    # L1 errors 2.98e-3 at N = 400 and 1.50e-3 at N = 800: order 0.994
    system = manufactured(euler_polytropic_sh(1.4, n=1), euler_1d_exact)
    coarse, fine = (l1_error(system, euler_1d_exact, cells, 0.5, 0.25) for cells in (400, 800))
    assert 0.9 <= np.log2(coarse / fine) <= 1.1, (coarse, fine)


def test_euler_sh_2d_converges_at_first_order_in_any_row_windows():
    # L1 errors 1.76e-2 at N = 64 and 8.79e-3 at N = 128: order 1.001
    system = manufactured(euler_polytropic_sh(1.4, n=2), euler_2d_exact)
    coarse = l1_error(system, euler_2d_exact, 64, 0.3, 0.1)
    state, fine = periodic_run(system, euler_2d_exact, 128, 0.3, 0.1)
    assert 0.9 <= np.log2(coarse / fine) <= 1.1, (coarse, fine)
    # the finest run again with axis 0 in four row windows: the same bits
    with budget(40 * row_bytes(state)):
        assert len(row_windows(state)[0]) >= 3
        windowed, _ = periodic_run(system, euler_2d_exact, 128, 0.3, 0.1)
    assert windowed.tobytes() == state.tobytes()


def linear_exact(t, x):
    """u* = (sin 2 pi (x - t), cos 2 pi (x + t/2)) and its t and x
    derivatives."""
    a, b = TWO_PI * (x - t), TWO_PI * (x + 0.5 * t)
    u = np.stack([np.sin(a), np.cos(b)], axis=-1)
    u_t = np.stack([-TWO_PI * np.cos(a), -0.5 * TWO_PI * np.sin(b)], axis=-1)
    u_x = np.stack([TWO_PI * np.cos(a), -TWO_PI * np.sin(b)], axis=-1)
    return u, u_t, u_x


def linear_q(t, x):
    """Q(t, x), not diagonal, so the steps solve with it by LU."""
    q = np.empty(np.shape(t) + (2, 2))
    q[..., 0, 0] = 2.0 + 0.5 * np.sin(TWO_PI * x[..., 0])
    q[..., 0, 1] = q[..., 1, 0] = 0.3
    q[..., 1, 1] = 1.5 + 0.2 * np.cos(TWO_PI * (x[..., 0] + t))
    return q


def linear_a(t, x):
    a = np.empty(np.shape(t) + (2, 2))
    a[..., 0, 0], a[..., 1, 1] = 0.5, -0.3
    a[..., 0, 1] = a[..., 1, 0] = 1.0 + 0.2 * np.sin(TWO_PI * x[..., 0])
    return a


LINEAR_B = np.array([[0.1, 0.0], [0.05, 0.2]])


def linear_forcing(t, x):
    """f = Q u*_t + A u*_x + B u*."""
    star, star_t, star_x = linear_exact(t, x[..., 0])
    return (np.einsum("...ij,...j->...i", linear_q(t, x), star_t)
            + np.einsum("...ij,...j->...i", linear_a(t, x), star_x)
            + star @ LINEAR_B.T)


def test_linear_system_with_t_x_coefficients_converges_at_first_order():
    # L1 errors 3.08e-2 at N = 400 and 1.55e-2 at N = 800: order 0.990
    system = LinearSystem(1, 2, linear_q, [linear_a], b=LINEAR_B,
                          forcing=linear_forcing).as_system()
    coarse, fine = (l1_error(system, linear_exact, cells, 0.4, 0.25) for cells in (400, 800))
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
