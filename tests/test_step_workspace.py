"""run() steps into two alternating state buffers and one scratch set per
RHS closure; these tests hold it to the traces of plain allocating steps,
bit for bit, and check that a step allocates no state-sized array."""

import tracemalloc
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from shsys import lxf, profiles
from shsys.entropy import ConservationLaw
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, law_rhs, lxf_step, run, system_rhs, viscous_step
from shsys.models import (advection_law, burgers_law, euler_polytropic_sh, maxwell_system,
                          wave_system)

RNG = np.random.default_rng(808)


class Keeper:
    """A monitor that keeps a copy of every state it is shown."""

    name = "keeper"

    def __init__(self):
        self.seen = []

    def evaluate(self, state):
        self.seen.append(state.data.copy())
        return float(state.data.sum())


def reference_run(system, initial, config, monitors):
    """run() as a loop of allocating steps, each returning a new array:
    (steps, times, snapshot arrays, monitor series)."""
    if config.viscosity > 0:
        step = lambda st, t, k: viscous_step(st, system, config, t=t, k=k)
    else:
        rhs = (law_rhs if isinstance(system, ConservationLaw) else system_rhs)(system)
        step = lambda st, t, k: lxf_step(st, rhs, config, t=t, k=k)
    k = config.lam * initial.h[0]
    tiny = 1e-12 * max(1.0, config.t_end)
    n_full = int(np.floor((config.t_end + tiny) / k))
    remainder = config.t_end - n_full * k
    remainder = 0.0 if remainder <= tiny else remainder
    total = n_full + (1 if remainder else 0)
    times, snaps, series = [], [], {mon.name: [] for mon in monitors}

    def record(t, state):
        times.append(t)
        snaps.append(state.data.copy())
        for mon in monitors:
            series[mon.name].append((t, float(mon.evaluate(state))))

    state, t = initial, 0.0
    record(t, state)
    for i in range(1, total + 1):
        state = step(state, t, k if i <= n_full else remainder)
        t = i * k if i <= n_full else config.t_end
        if i % config.output_stride == 0 or i == total:
            record(t, state)
    return total, times, snaps, series


def schedule(config, h):
    """run()'s step sizes: (k, number of full steps, remainder or 0.0)."""
    k = config.lam * h
    tiny = 1e-12 * max(1.0, config.t_end)
    n_full = int(np.floor((config.t_end + tiny) / k))
    remainder = config.t_end - n_full * k
    return k, n_full, 0.0 if remainder <= tiny else remainder


def plain_run(coeffs, source, values, h, origin, boundary, config):
    """(times, snapshots) of a 1D scalar-law run written with plain numpy,
    apart from the package's stencils and steps: translates by np.roll
    (periodic) or an edge-replicated pad (outflow), the flux by polyval,
    and each step in the operation order the lxf docstrings give."""
    x = origin + h * np.arange(len(values))
    eps = config.viscosity

    def translates(v):
        if boundary == "periodic":
            return np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
        padded = np.concatenate([v[:1], v, v[-1:]])
        return padded[2:], padded[:-2]

    def flux_difference(v):
        f_plus, f_minus = translates(P.polyval(v[:, 0], coeffs)[:, None])
        return f_plus - f_minus

    def source_at(t, v):
        points = np.stack([np.full(len(x), t), x], axis=-1)
        return source(points, v)

    def lxf_step(v, t, k):
        rhs = 0.0 - flux_difference(v) / (2.0 * h)
        if source is not None:
            rhs = rhs + source_at(t, v)
        u_plus, u_minus = translates(v)
        return ((u_plus + 0.0) + u_minus) / 2.0 + rhs * k

    def viscous_step(v, t, k):
        new = v - flux_difference(v) * (k / (2.0 * h))
        u_plus, u_minus = translates(v)
        new = new + ((u_plus - (v + v)) + u_minus) * (eps * k / h ** 2)
        if source is not None:
            new = new + k * source_at(t, v)
        return new

    step = viscous_step if eps > 0 else lxf_step
    k, n_full, remainder = schedule(config, h)
    total = n_full + (1 if remainder else 0)
    v, t = values[:, None].copy(), 0.0
    times, snaps = [t], [v.copy()]
    for i in range(1, total + 1):
        v = step(v, t, k if i <= n_full else remainder)
        t = i * k if i <= n_full else config.t_end
        if i % config.output_stride == 0 or i == total:
            times.append(t)
            snaps.append(v.copy())
    return times, snaps


def relaxing_source(x, u):
    return 0.1 * np.cos(np.pi * x[..., 1:]) - 0.2 * u


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_run_equals_a_plain_numpy_reference(data):
    # the reference shares no stencil, plan or step code with run()
    cells = data.draw(st.sampled_from([1, 2, 3, 5, 2000]), "cells")
    boundary = data.draw(st.sampled_from(["periodic", "outflow"]), "boundary")
    speed = data.draw(st.none() | st.floats(-1.5, 1.5), "advection speed")
    coeffs = [0.0, 0.0, 0.5] if speed is None else [0.0, speed]
    law, _ = burgers_law() if speed is None else advection_law(speed)
    source = data.draw(st.sampled_from([None, relaxing_source]), "source")
    if source is not None:
        law = replace(law, source=source)
    values = data.draw(hnp.arrays(float, cells, elements=st.floats(-1.0, 1.0)
                                  | st.sampled_from([0.0, -0.0])), "values")
    h = 2.0 / cells
    origin = -1.0 + h / 2
    lam = data.draw(st.floats(0.05, 0.6), "lambda")
    viscosity = data.draw(st.sampled_from([0.0, 0.2, 0.9]), "eps in units of the bound")
    # the parabolic bound: k <= 0.9 h^2 / (2 eps)
    eps = viscosity * 0.45 * h / lam
    steps = data.draw(st.integers(0, 5), "full steps")
    fraction = data.draw(st.sampled_from([0.0, 0.5, 0.25]), "remainder fraction")
    config = SchemeConfig(lam=lam, t_end=(steps + fraction) * lam * h,
                          output_stride=data.draw(st.integers(1, 3), "stride"),
                          viscosity=eps)
    grid = GridField.zeros((cells,), h, origin, 1, boundary)
    trace = run(law, grid.with_data(values[:, None]), config)
    times, snaps = plain_run(np.asarray(coeffs, dtype=float), source, values, h, origin,
                             boundary, config)
    assert trace.completed and trace.times == times
    assert len(trace.snapshots) == len(snaps)
    for got, want in zip(trace.snapshots, snaps):
        assert got.data.tobytes() == want.tobytes()


def test_plain_reference_takes_a_remainder_step_and_none_at_t_end_zero():
    # the schedule the property above draws from covers both edge cases
    config = SchemeConfig(lam=0.5, t_end=2.25 * 0.5 * 0.1, viscosity=0.0)
    assert schedule(config, 0.1)[1:] == (2, pytest.approx(0.25 * 0.05))
    times, _ = plain_run(np.array([0.0, 0.0, 0.5]), None, np.zeros(3), 0.1, 0.0,
                         "outflow", config)
    assert len(times) == 4 and times[-1] == config.t_end
    times, snaps = plain_run(np.array([0.0, 0.0, 0.5]), None, np.zeros(3), 0.1, 0.0,
                             "outflow", replace(config, t_end=0.0))
    assert times == [0.0] and len(snaps) == 1


def maxwell_case():
    sys, monitors = maxwell_system()
    grid = GridField.zeros((8, 8, 8), 1.0 / 8, 1.0 / 16, 6)
    initial = profiles.plane_wave(grid, [1.0, -0.5, 0.0, 0.3, 0.6, -0.2], [1, 2, 1])
    # 9 full steps of k = 1/32 and a remainder
    return sys, initial, SchemeConfig(lam=0.25, t_end=0.3, output_stride=4), list(monitors)


def wave_case():
    # a_j != 0 makes two layers in the last row of each M^j
    sys, monitor = wave_system(np.array([0.3, -0.15]), np.diag([1.3, 0.7]),
                               forcing=lambda t, x: np.sin(3.0 * x[..., 0] + t) * x[..., 1])
    grid = GridField.zeros((24, 16), 1.0 / 16, 0.0, 4)
    initial = profiles.plane_wave(grid, [0.4, 1.0, -0.3, 0.7], [2, 1])
    return sys, initial, SchemeConfig(lam=0.2, t_end=0.1, output_stride=1), [monitor]


def euler_sh_case():
    grid = GridField.zeros((16, 12), 1.0 / 16, 1.0 / 32, 3)
    data = np.empty(grid.shape + (3,))
    data[..., 0] = 1.0 + 0.1 * RNG.uniform(size=grid.shape)
    data[..., 1:] = 0.05 * RNG.normal(size=grid.shape + (2,))
    return (euler_polytropic_sh(1.4, n=2), grid.with_data(data),
            SchemeConfig(lam=0.2, t_end=0.1, output_stride=3), [])


def burgers_case(boundary, viscosity=0.0):
    law, _ = burgers_law()
    if boundary == "outflow":
        # a law source exercises the source path of the steppers
        law = replace(law, source=lambda x, u: 0.1 * np.cos(np.pi * x[..., 1:]) - 0.2 * u)
    h = 2.0 / 40
    grid = GridField.zeros((40,), h, -1.0 + h / 2, 1, boundary)
    initial = profiles.step(grid, [1.0], [-0.5], jump_at=0.1)
    config = SchemeConfig(lam=0.5, t_end=0.61, output_stride=2, viscosity=viscosity)
    return law, initial, config, []


CASES = {
    "maxwell": maxwell_case,
    "wave_source": wave_case,
    "euler_sh": euler_sh_case,
    "burgers_periodic": lambda: burgers_case("periodic"),
    "burgers_outflow": lambda: burgers_case("outflow"),
    "burgers_viscous": lambda: burgers_case("outflow", viscosity=0.01),
}


@pytest.mark.parametrize("t_end", [None, 0.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_equals_allocating_steps(case, t_end):
    system, initial, config, monitors = CASES[case]()
    if t_end is not None:
        config = replace(config, t_end=t_end)
    keeper = Keeper()
    trace = run(system, initial, config, monitors + [keeper])
    steps, times, snaps, series = reference_run(system, initial, config, monitors)
    assert trace.completed and trace.steps == steps
    assert steps == 0 if t_end == 0.0 else steps > 4
    assert trace.times == times
    assert {name: trace.monitors[name] for name in series} == series
    for got, want, seen in zip(trace.snapshots, snaps, keeper.seen, strict=True):
        assert got.data.tobytes() == want.tobytes()
        # what the monitor saw when the state was recorded is still there
        assert got.data.tobytes() == seen.tobytes()


def test_remainder_step_is_taken():
    system, initial, config, _ = maxwell_case()
    trace = run(system, initial, config)
    assert trace.steps == 10 and trace.times[-1] == config.t_end


@pytest.mark.parametrize("case", ["maxwell", "wave_source", "euler_sh", "burgers_outflow"])
def test_step_into_out_equals_allocating_step(case):
    system, initial, config, _ = CASES[case]()
    build = law_rhs if isinstance(system, ConservationLaw) else system_rhs
    state = lxf_step(initial, build(system), config, t=0.05)
    buf = np.full(initial.data.shape, np.nan)
    into = lxf_step(initial, build(system), config, t=0.05, out=buf)
    assert into.data is buf
    assert into.data.tobytes() == state.data.tobytes()


def test_viscous_step_into_out_equals_allocating_step():
    law, initial, config, _ = burgers_case("outflow", viscosity=0.01)
    state = viscous_step(initial, law, config, t=0.2)
    buf = np.full(initial.data.shape, np.nan)
    into = viscous_step(initial, law, config, t=0.2, out=buf)
    assert into.data is buf
    assert into.data.tobytes() == state.data.tobytes()
    spare = np.full(initial.data.shape, np.nan)
    into = viscous_step(initial, law, config, t=0.2, out=buf, spare=spare)
    assert into.data is buf
    assert into.data.tobytes() == state.data.tobytes()


def maxwell_wave(cells):
    grid = GridField.zeros((cells,) * 3, 1.0 / cells, 0.5 / cells, 6)
    return profiles.plane_wave(grid, [1.0, -0.5, 0.0, 0.3, 0.6, -0.2], [1, 2, 1])


def traced_run(initial, steps):
    """Peak traced memory of a Maxwell run of ``steps`` steps that records
    only its first and last state."""
    sys, _ = maxwell_system()
    k = 0.25 * initial.h[0]
    config = SchemeConfig(lam=0.25, t_end=steps * k, output_stride=10 ** 6)
    tracemalloc.start()
    try:
        trace = run(sys, initial, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.completed and trace.steps == steps
    return peak


def test_run_memory_does_not_grow_with_steps():
    initial = maxwell_wave(16)
    assert traced_run(initial, 40) - traced_run(initial, 8) < initial.data.nbytes


def step_peaks(monkeypatch, system, initial, config):
    """Traced peak memory of each step of run(), above what was held when
    the step began."""
    name = "viscous_step" if config.viscosity > 0 else "lxf_step"
    original = getattr(lxf, name)
    peaks = []

    def measured(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = original(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(lxf, name, measured)
    tracemalloc.start()
    try:
        trace = run(system, initial, config)
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert trace.completed
    return peaks


def test_steps_allocate_no_state_sized_arrays(monkeypatch):
    # numpy's buffered iterator takes about 3 x 64 KB for a ufunc over a
    # strided view, whatever the grid; a 32^3 state is 1.5 MB
    initial = maxwell_wave(32)
    sys, _ = maxwell_system()
    config = SchemeConfig(lam=0.25, t_end=6 * 0.25 * initial.h[0], output_stride=10 ** 6)
    peaks = step_peaks(monkeypatch, sys, initial, config)
    # the first step allocates the RHS scratch
    assert len(peaks) == 6
    assert max(peaks[1:]) < initial.data.nbytes / 2


def test_viscous_step_allocates_no_more_than_lxf_step(monkeypatch):
    # both steps evaluate the same Burgers flux, which allocates; beyond
    # that, run's spare array leaves the heat stencil nothing to allocate
    law, _ = burgers_law()
    h = 2.0 / 20_000
    grid = GridField.zeros((20_000,), h, -1.0 + h / 2, 1, "outflow")
    initial = profiles.step(grid, [1.0], [-0.5], jump_at=0.1)
    config = SchemeConfig(lam=0.5, t_end=6 * 0.5 * h, output_stride=10 ** 6)
    lxf_peaks = step_peaks(monkeypatch, law, initial, config)
    viscous_peaks = step_peaks(monkeypatch, law, initial, replace(config, viscosity=0.4 * h))
    assert len(lxf_peaks) == len(viscous_peaks) == 6
    # a first step allocates the RHS scratch or fills region-table caches
    assert max(viscous_peaks[1:]) <= max(lxf_peaks[1:])
    # one flux array (the state's size at m = 1) and small objects, about
    # 2 KB on 20,000 cells; a state-sized heat term would add 160 KB
    flux_bytes = initial.data.nbytes
    assert max(viscous_peaks[1:]) <= flux_bytes + 4096
