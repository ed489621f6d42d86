"""The Fourier symbol of the Lax-Friedrichs step as an oracle for ``run``.

For constant M0 and M^j, a linear source N = S u and a periodic grid, one
step maps the mode u_hat e^{i theta . j} (j the cell index) to
G(theta) u_hat e^{i theta . j}, with

    G(theta) = (1/n) sum_j cos theta_j I - i lambda sum_j sin theta_j M0^-1 M^j
               + k M0^-1 S

(Lax and Richtmyer, CPAM 9, 1956).  The real part of a mode stays the real
part, so a run from Re(u_hat e^{i theta . j}) must give Re(G^s u_hat
e^{i theta . j}) after s steps, up to rounding that grows with s.
"""

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import given, settings, strategies as st

from shsys.core import MatrixField, SystemDef
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, max_char_speed, run
from shsys.models import maxwell_system, wave_system

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


def symbol(system, theta, lam, k):
    """G(theta) of one step of ratio lam and size k on a system with
    constant fields and a linear source (read off at the unit states)."""
    m, n = system.m, system.n
    m0 = system.coeff[0].const
    s = (np.zeros((m, m)) if system.source is None
         else system.source(np.zeros((m, n + 1)), np.eye(m)).T)
    g = np.mean(np.cos(theta)) * np.eye(m) + k * np.linalg.solve(m0, s)
    for j in range(n):
        g = g - 1j * lam * np.sin(theta[j]) * np.linalg.solve(m0, system.coeff[j + 1].const)
    return g


def mode_errors(system, shape, h, modes, amplitude, lam, steps):
    """Per recorded state of a run from Re(amplitude e^{i theta . j}), the
    largest deviation from the symbol's prediction and the largest
    |G^s amplitude| up to it."""
    theta = 2.0 * np.pi * np.asarray(modes) / np.asarray(shape)
    wave = np.exp(1j * sum(t * i for t, i in zip(theta, np.indices(shape))))[..., None]
    grid = GridField.zeros(shape, h, 0.0, system.m, "periodic")
    k = lam * h
    trace = run(system, grid.with_data(np.real(amplitude * wave)),
                SchemeConfig(lam=lam, t_end=steps * k))
    assert trace.completed and trace.steps == steps
    g = symbol(system, theta, lam, k)
    v = np.asarray(amplitude, dtype=complex)
    errors, sizes = [], []
    for snapshot in trace.snapshots:
        errors.append(np.max(np.abs(snapshot.data - np.real(v * wave))))
        sizes.append(np.max(np.abs(v)))
        v = g @ v
    return np.array(errors), np.maximum.accumulate(sizes)


def assert_within_rounding(errors, sizes):
    # 64 eps per recorded state: four times the worst of 3,000 random
    # systems drawn as in the property below.  Below the normal range
    # rounding is absolute, one subnormal step per operation, so each
    # state also allows 64 of those.
    bound = 64.0 * np.arange(1, len(errors) + 1) * (EPS * sizes + TINY)
    assert np.all(errors <= bound), (errors, bound)


@pytest.mark.parametrize("build, shape, modes, lam, steps", [
    (lambda: wave_system(np.zeros(2), np.eye(2))[0], (32, 32), (1, 2), 0.4, 20),
    (lambda: maxwell_system()[0], (12, 12, 12), (1, 2, 1), 0.25, 10),
], ids=["wave", "maxwell"])
def test_model_runs_follow_the_symbol(build, shape, modes, lam, steps):
    system = build()
    amplitude = np.linspace(1.0, -1.0, system.m) + 0.5j
    errors, sizes = mode_errors(system, shape, 1.0 / shape[0], modes, amplitude, lam, steps)
    assert_within_rounding(errors, sizes)


@st.composite
def constant_systems(draw):
    """A constant symmetric-hyperbolic system with a linear source: M0 =
    I + B B^T, symmetric M^j and S with entries in [-1, 1]."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0)
    b = draw(hnp.arrays(float, (m, m), elements=entries))
    fields = [MatrixField.constant(np.eye(m) + b @ b.T)]
    for _ in range(n):
        a = draw(hnp.arrays(float, (m, m), elements=entries))
        fields.append(MatrixField.constant(a + a.T))
    s = draw(hnp.arrays(float, (m, m), elements=entries))
    return SystemDef(n=n, m=m, coeff=tuple(fields), source=lambda x, u: u @ s.T)


@settings(max_examples=60, deadline=None)
@given(constant_systems(), st.data())
def test_random_constant_systems_follow_the_symbol(system, data):
    n, m = system.n, system.m
    shape = tuple(data.draw(st.lists(st.integers(2, 8), min_size=n, max_size=n)))
    modes = tuple(data.draw(st.integers(0, size - 1)) for size in shape)
    h = 0.1
    # lambda below the CFL bound lambda a* n <= 0.9 that run checks
    a_star = max_char_speed(system, GridField.zeros(shape, h, 0.0, m, "periodic"))
    lam = data.draw(st.floats(0.1, 1.0)) * 0.9 / (n * max(a_star, 0.5))
    parts = data.draw(hnp.arrays(float, (2, m), elements=st.floats(-1.0, 1.0)))
    steps = data.draw(st.integers(1, 8))
    errors, sizes = mode_errors(system, shape, h, modes, parts[0] + 1j * parts[1], lam, steps)
    assert_within_rounding(errors, sizes)
