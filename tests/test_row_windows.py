"""Cache-blocked stepping: the stencils of a step sweep axis 0 in row
windows (grid.row_windows).  Only the traversal order depends on the
windows, so these tests hold windowed steps and runs to one-window ones,
bit for bit, and check the window table, the scratch sizes and the
rejection of an output that overlaps the input."""

import contextlib
import gc
import tracemalloc
from dataclasses import replace
from functools import partial

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shsys import grid, profiles
from shsys.core import MatrixField, SystemDef
from shsys.entropy import ConservationLaw
from shsys.grid import GhostField, GridField, centered_diff, padded, row_windows, stencil
from shsys.lxf import (SchemeConfig, StepPlan, apply_layers, law_rhs, lxf_average, lxf_step, run,
                       single_entry_layers, system_rhs, viscous_step)
from shsys.models import burgers_law, maxwell_system, wave_system

from test_grid_profiles import roll_shift, same_bits
from test_step_workspace import CASES, burgers_case, maxwell_wave

WHOLE = 10 ** 12    # a budget every test grid fits


@contextlib.contextmanager
def budget(nbytes):
    saved = grid.WINDOW_BYTES
    grid.WINDOW_BYTES = nbytes
    try:
        yield
    finally:
        grid.WINDOW_BYTES = saved


def row_bytes(data):
    return data.nbytes // data.shape[0]


def same_trace(a, b):
    assert (a.completed, a.steps, a.error, a.times) == (b.completed, b.steps, b.error, b.times)
    assert a.events == b.events
    assert a.monitors == b.monitors
    for x, y in zip(a.snapshots, b.snapshots, strict=True):
        assert x.data.tobytes() == y.data.tobytes()


class TestWindowTable:
    @pytest.mark.parametrize("shape, windows", [
        ((32, 32, 32, 6), 7),       # Maxwell 32^3: 1.5 MB
        ((128, 128, 4), 2),         # wave 128^2: 512 KiB
        ((64, 64, 3), 1),           # euler_sh 64^2: 96 KB
        ((2000, 1), 1),             # Burgers: 16 KB
    ])
    def test_benchmark_grids(self, shape, windows):
        table, depth = row_windows(np.empty(shape))
        assert len(table) == windows
        if windows == 1:
            assert table == (None,) and depth == shape[0]

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 31, 32, 33, 100])
    @pytest.mark.parametrize("per_window", [1, 2, 3, 4, 10])
    def test_windows_split_axis_0_near_equally(self, rows, per_window):
        data = np.empty((rows, 3, 2))
        with budget(per_window * row_bytes(data) + 7):
            table, depth = row_windows(data)
        if rows <= per_window:
            assert table == (None,) and depth == rows
            return
        assert table[0][0] == 0 and table[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(table, table[1:]))
        sizes = [r1 - r0 for r0, r1 in table]
        assert max(sizes) == depth <= per_window
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_a_row_larger_than_the_budget_is_one_window(self):
        with budget(1):
            table, depth = row_windows(np.empty((4, 5)))
        assert table == ((0, 1), (1, 2), (2, 3), (3, 4)) and depth == 1

    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_whole_axis_window_is_the_default_table(self, length, boundary):
        for shape in [(length,), (length, 3), (length, 2, 4)]:
            for axis in range(len(shape)):
                for direction in [1, -1, 0]:
                    assert (stencil(shape, axis, boundary, direction, (0, length))
                            == stencil(shape, axis, boundary, direction))


class TestWindowedStencils:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_window_rows_equal_the_whole_axis_sweep(self, draw):
        n = draw.draw(st.integers(1, 3))
        shape = (draw.draw(st.integers(1, 5)),) + tuple(
            draw.draw(st.integers(1, 4)) for _ in range(n - 1))
        boundary = draw.draw(st.sampled_from(["periodic", "outflow"]))
        data = draw.draw(hnp.arrays(float, shape + (2,), elements=st.floats(
            -4.0, 4.0, allow_subnormal=False) | st.sampled_from([0.0, -0.0, np.nan])))
        field = GridField.zeros(shape, 0.25, 0.0, 2, boundary).with_data(data)
        r0 = draw.draw(st.integers(0, shape[0] - 1))
        r1 = draw.draw(st.integers(r0 + 1, shape[0]))
        rows, ghosts = (r0, r1), padded(data, boundary)
        whole_avg = lxf_average(field)
        for axis in range(n):
            whole = stencil(data.shape, axis, boundary, 0).difference(np.empty_like(data), ghosts)
            part = stencil(data.shape, axis, boundary, 0, rows).difference(
                np.empty((r1 - r0,) + data.shape[1:]), ghosts)
            assert part.tobytes() == whole[r0:r1].tobytes()
            acc = np.zeros_like(data)
            part = np.zeros((r1 - r0,) + data.shape[1:])
            stencil(data.shape, axis, boundary, -1).shift_into(np.add, acc, ghosts)
            stencil(data.shape, axis, boundary, -1, rows).shift_into(np.add, part, ghosts)
            assert part.tobytes() == acc[r0:r1].tobytes()
        assert lxf_average(field, rows=rows).tobytes() == whole_avg[r0:r1].tobytes()


def as_floats(*patterns):
    return np.array(patterns, dtype=np.uint64).view(float).tolist()


# quiet NaNs with payloads and signs, and a signalling NaN
NANS = as_floats(0x7FF8000000000000, 0x7FF80000DEADBEEF, 0xFFF8000000000123,
                 0x7FF0000000000001)


def stencil_arrays(draw, shape, nan):
    """Finite values, signed zeros, infinities and the NaN ``nan``.  Of two
    NaN operands numpy's loops return either (a one-element in-place loop
    runs as a reduction and returns the other), so an example holds one
    NaN bit pattern."""
    special = as_floats(0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000)
    return draw.draw(hnp.arrays(float, shape, elements=st.floats(
        -4.0, 4.0, allow_subnormal=False) | st.sampled_from(special + [nan])))


def bits(a):
    return a.view(np.int64)


def subtract_from(held, translate, out=None):
    """A ufunc-shaped operation whose operands do not commute: translate - held."""
    return np.subtract(translate, held, out=out)


def roll_average(data, n, boundary):
    """The average's translates by np.roll, summed from translate + 0.0 in
    axis order."""
    acc = roll_shift(data, 0, +1, boundary) + 0.0
    acc = acc + roll_shift(data, 0, -1, boundary)
    for j in range(1, n):
        acc = acc + roll_shift(data, j, +1, boundary)
        acc = acc + roll_shift(data, j, -1, boundary)
    return acc / (2.0 * n)


class TestFlatPass:
    """Every stencil call runs one plan on a padded array: one interior
    call, on the flat views off axis 0, and the seams.  The np.roll
    reference holds the results, bit for bit, and so it holds the callers,
    on a plain state as on a step's state with ghost rows."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_plan_path_equals_the_roll_reference(self, draw):
        n = draw.draw(st.integers(1, 3))
        m = draw.draw(st.integers(1, 3))
        shape = tuple(draw.draw(st.integers(1, 5)) for _ in range(n)) + (m,)
        axis = draw.draw(st.integers(0, n - 1))
        boundary = draw.draw(st.sampled_from(["periodic", "outflow"]))
        rows, window = None, slice(None)
        if draw.draw(st.booleans()):
            r0 = draw.draw(st.integers(0, shape[0] - 1))
            rows = (r0, draw.draw(st.integers(r0 + 1, shape[0])))
            window = slice(*rows)
        part = shape if rows is None else (rows[1] - rows[0],) + shape[1:]
        nan = draw.draw(st.sampled_from(NANS))
        data = stencil_arrays(draw, shape, nan)
        start = stencil_arrays(draw, part, nan)
        ghosts = padded(data, boundary)
        whole_plus, whole_minus = (roll_shift(data, axis, d, boundary) for d in (1, -1))
        plus, minus = whole_plus[window], whole_minus[window]
        with np.errstate(all="ignore"):
            for ufunc in (np.add, np.subtract, subtract_from):
                for direction, translate in ((1, plus), (-1, minus)):
                    got = stencil(shape, axis, boundary, direction, rows).shift_into(
                        ufunc, start.copy(), ghosts)
                    want = ufunc(start, translate)
                    np.testing.assert_array_equal(bits(got), bits(want))
            got = stencil(shape, axis, boundary, 0, rows).difference(np.empty(part), ghosts)
            want = plus - minus
        np.testing.assert_array_equal(bits(got), bits(want))
        # the callers: on a plain state, on the state a step reads (its
        # data in a plan's buffer with ghost rows) and on a replaced plan
        # field, which has no padded array and is padded as a plain state
        h = draw.draw(st.sampled_from([0.25, 0.3]))    # 2h a power of two, or not
        plain = GridField.zeros(shape[:-1], h, -0.4, m, boundary).with_data(data)
        loaded = StepPlan(plain, (0.1,)).load(plain)
        states = (plain, loaded, replace(loaded))
        assert type(states[2]) is GhostField and getattr(states[2], "padded", None) is None
        law, sys, mats = ghost_models(n, draw.draw(st.booleans()), m)
        per_window = draw.draw(st.integers(1, shape[0]))
        results = []
        with np.errstate(all="ignore"), budget(per_window * row_bytes(data)):
            assert len(row_windows(data)[0]) == -(-shape[0] // per_window)
            for state in states:
                got = {"average": lxf_average(state, rows=rows),
                       "diff": centered_diff(state, axis),
                       "law": law_rhs(law)(0.3, state).copy(),
                       "system": system_rhs(sys)(0.3, state).copy()}
                for direction, translate in ((1, whole_plus), (-1, whole_minus)):
                    got[direction] = grid.shifted(state.data, axis, direction, boundary)
                    assert got[direction].tobytes() == translate.tobytes()
                assert same_bits(got["average"], roll_average(data, n, boundary)[window])
                assert same_bits(got["diff"], (whole_plus - whole_minus) / (2.0 * h))
                for model in (law, sys):
                    want = take_rhs(model, mats, plain, 0.3)
                    assert same_bits(got["law" if model is law else "system"], want)
                results.append(got)
        # one path: the two kinds of caller get the same bits
        for got in results[1:]:
            for key, value in got.items():
                assert value.tobytes() == results[0][key].tobytes()

    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    def test_component_slice_equals_its_contiguous_copy(self, boundary):
        # a component slice of a padded array is not contiguous: the stencil
        # reads it in place along axis 0 and copies it once by its flat view
        # along the others
        data = RNG.normal(size=(4, 5, 3, 3))
        data[1, 2, 0] = [-0.0, np.nan, np.inf]
        component = padded(data, boundary)[..., 1]
        assert not component.flags.c_contiguous
        copy = np.ascontiguousarray(component)
        shape = data.shape[:-1]
        start = RNG.normal(size=shape)
        with np.errstate(all="ignore"):
            for axis in range(3):
                both = stencil(shape, axis, boundary, 0)
                got = both.difference(np.empty(shape), component)
                want = both.difference(np.empty(shape), copy)
                np.testing.assert_array_equal(bits(got), bits(want))
                for direction in (1, -1):
                    translate = stencil(shape, axis, boundary, direction)
                    got = translate.shift_into(np.add, start.copy(), component)
                    want = translate.shift_into(np.add, start.copy(), copy)
                    np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_strided_out_is_rejected(self, axis):
        # the flat views of a strided out would be a copy, so the writes
        # would be lost without an error
        data = RNG.normal(size=(4, 5, 3, 2))
        buf = np.zeros((4, 5, 3, 4))
        field = GridField.zeros((4, 5, 3), 0.5, 0.0, 2).with_data(data)
        for out in (buf[..., ::2], buf[..., :2], np.zeros((4, 5, 3, 2), order="F")):
            assert not out.flags.c_contiguous
            # axis 0 indexes rows, so its stencils take any layout
            if axis:
                with pytest.raises(ValueError, match="out must be a C-contiguous"):
                    stencil(data.shape, axis, "periodic", 1).shift_into(
                        np.add, out, padded(data, "periodic"))
                with pytest.raises(ValueError, match="out must be a C-contiguous"):
                    stencil(data.shape, axis, "outflow", 0).difference(
                        out, padded(data, "outflow"))
            with pytest.raises(ValueError, match="out must be a C-contiguous"):
                centered_diff(field, axis, out=out)
        assert not buf.any()

    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    def test_axis_0_stencils_take_any_out_layout(self, boundary):
        # axis 0 indexes rows, so a strided or Fortran-ordered out gets
        # the bits a C-contiguous one gets
        data = RNG.normal(size=(4, 5, 3, 2))
        ghosts = padded(data, boundary)
        for rows in (None, (1, 3)):
            part = data.shape if rows is None else (rows[1] - rows[0],) + data.shape[1:]
            start = RNG.normal(size=part)
            buf = np.zeros(part[:-1] + (4,))
            for direction in (1, -1, 0):
                plan = stencil(data.shape, 0, boundary, direction, rows)
                for out in (buf[..., ::2], np.zeros(part, order="F")):
                    out[...] = start
                    if direction:
                        got = plan.shift_into(np.add, out, ghosts)
                        want = plan.shift_into(np.add, start.copy(), ghosts)
                    else:
                        got = plan.difference(out, ghosts)
                        want = plan.difference(np.empty(part), ghosts)
                    assert got is out
                    np.testing.assert_array_equal(bits(got), bits(want))

    def test_an_out_of_another_shape_is_rejected_off_axis_0(self):
        data = RNG.normal(size=(4, 5, 3, 2))
        with pytest.raises(ValueError, match="out must have the shape"):
            stencil(data.shape, 1, "periodic", 1).shift_into(
                np.add, np.zeros((4, 5, 6)), padded(data, "periodic"))
        with pytest.raises(ValueError, match="out must have the shape"):
            stencil(data.shape, 2, "outflow", 0).difference(np.zeros((4, 3, 5, 2)),
                                                            padded(data, "outflow"))

    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_off_axis_stencils_allocate_only_a_seam(self, axis, boundary):
        # a strided region runs through numpy's buffered iterator, 175-199
        # KB a call; off axis 0 the flat pass allocates a seam of 1/16 of
        # the state (12 KB) and one operand buffer of that size, and axis
        # 0 has no seam
        data = RNG.normal(size=(16, 16, 16, 6))
        out = np.empty_like(data)
        ghosts = padded(data, boundary)
        look = partial(stencil, data.shape, axis, boundary)
        calls = [lambda: look(1).shift_into(np.add, out, ghosts),
                 lambda: look(-1).shift_into(np.add, out, ghosts),
                 lambda: look(0).difference(out, ghosts)]
        for call in calls:
            assert call_peak(call) < 32 * 1024


def call_peak(call, repeats=3):
    """Traced peak memory of a call above what was held when it began, the
    smallest over ``repeats`` calls after a warm-up that fills the
    stencil cache.  The cyclic collector is paused, and a call that
    something else allocated during counts only if every call did."""
    call()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(repeats):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
        gc.enable()
    return min(peaks)


RNG = np.random.default_rng(1515)


def linear_system(n, m, rng, source):
    """A constant-coefficient system whose rows have up to m nonzeros, so
    the layer products need the spare array."""
    coeff = [MatrixField.constant(np.eye(m))]
    for _ in range(n):
        mat = rng.normal(size=(m, m))
        mat[rng.uniform(size=(m, m)) < 0.3] = 0.0
        mat[0, 0] = -0.0
        coeff.append(MatrixField.constant(mat + mat.T))
    src = (lambda x, u: np.cos(x[..., 1:2]) * u[..., ::-1]) if source else None
    return SystemDef(n=n, m=m, coeff=tuple(coeff), source=src)


def state_field(m):
    """A state-dependent symmetric field of the state alone."""
    def fn(u):
        out = np.zeros(u.shape[:-1] + (m, m))
        idx = np.arange(m)
        out[..., idx, idx] = 1.0 + 0.1 * np.tanh(u)
        out[..., 0, m - 1] = out[..., m - 1, 0] = 0.05 * u[..., 0]
        return out
    return MatrixField.of_state(m, fn)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_windowed_steps_equal_one_window_steps(draw):
    n = draw.draw(st.integers(1, 3))
    m = 3
    shape = (draw.draw(st.integers(1, 5)),) + tuple(
        draw.draw(st.integers(1, 4)) for _ in range(n - 1))
    boundary = draw.draw(st.sampled_from(["periodic", "outflow"]))
    data = draw.draw(hnp.arrays(float, shape + (m,), elements=st.floats(
        -2.0, 2.0, allow_subnormal=False) | st.sampled_from([0.0, -0.0])))
    state = GridField.zeros(shape, 0.25, 0.125, m, boundary).with_data(data)
    rng = np.random.default_rng(draw.draw(st.integers(0, 2 ** 16)))
    kind = draw.draw(st.sampled_from(["const", "const_source", "field", "law"]))
    if kind == "law":
        law = ConservationLaw(n=n, m=m, flux=tuple(
            (lambda u, j=j: 0.5 * u * u[..., (j + 1) % m, None]) for j in range(n)),
            state_box=(np.full(m, -10.0), np.full(m, 10.0)))
        build = lambda: law_rhs(law)
    else:
        sys = linear_system(n, m, rng, kind == "const_source")
        if kind == "field":
            sys = replace(sys, coeff=(sys.coeff[0],) + tuple(
                state_field(m) for _ in range(n)))
        build = lambda: system_rhs(sys)
    config = SchemeConfig(lam=0.2, t_end=1.0)
    with budget(WHOLE):
        want = lxf_step(state, build(), config, t=0.3).data
    per_window = draw.draw(st.integers(1, 3))
    with budget(per_window * row_bytes(data)):
        got = lxf_step(state, build(), config, t=0.3).data
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_window", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_windowed_runs_equal_one_window_runs(case, per_window):
    system, initial, config, monitors = CASES[case]()
    with budget(WHOLE):
        want = run(system, initial, config, monitors)
    with budget(per_window * row_bytes(initial.data)):
        assert len(row_windows(initial.data)[0]) > 1
        got = run(system, initial, config, monitors)
    assert got.completed and got.steps > 4
    same_trace(got, want)


def test_nan_at_a_window_edge_aborts_at_the_same_step_and_cell():
    # the forcing turns non-finite at the first row of the second window
    # once t > 0.03, so the NaN enters the state through the RHS there
    def forcing(t, x):
        edge = np.isclose(x[..., 0], 2.0 / 16) & np.isclose(x[..., 1], 5.0 / 16)
        return np.where(edge & (t > 0.03), np.nan, np.sin(x[..., 0] + t))

    sys, monitor = wave_system(np.array([0.3, -0.15]), np.diag([1.3, 0.7]), forcing=forcing)
    grid_ = GridField.zeros((12, 8), 1.0 / 16, 0.0, 4)
    initial = profiles.plane_wave(grid_, [0.4, 1.0, -0.3, 0.7], [2, 1])
    config = SchemeConfig(lam=0.2, t_end=0.1)
    with budget(WHOLE):
        want = run(sys, initial, config, [monitor])
    with budget(2 * row_bytes(initial.data)):
        assert row_windows(initial.data)[0][1] == (2, 4)
        got = run(sys, initial, config, [monitor])
    abort = want.events[-1]
    assert abort["event"] == "abort" and abort["step"] == 4
    assert (abort["cell"], abort["component"]) == ((2, 5), 3)
    same_trace(got, want)


def test_first_rhs_call_allocates_one_state_and_two_windows():
    # the target is state-sized; the differences and products are sized
    # to the largest window (Maxwell's layers have one nonzero a row, so
    # no spare); numpy's buffered iterator adds a few 64 KB buffers.  The
    # state is a step's, with ghost rows, as run hands it to the closure
    initial = maxwell_wave(32)
    state = StepPlan(initial, (0.1,)).load(initial)
    sys, _ = maxwell_system()
    rhs = system_rhs(sys)
    windows, depth = row_windows(state.data)
    window = depth * row_bytes(state.data)
    assert len(windows) > 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rhs(0.0, state)
        held, peak = (v - before for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held < state.data.nbytes + 2 * window + 64 * 1024
    assert peak < state.data.nbytes + 3 * window


class TestOverlappingOutput:
    def test_lxf_step_rejects_the_input_data(self):
        law, initial, config, _ = burgers_case("periodic")
        data = initial.data.copy()
        with pytest.raises(ValueError, match="out must not overlap"):
            lxf_step(initial, law_rhs(law), config, out=initial.data)
        assert initial.data.tobytes() == data.tobytes()

    def test_lxf_step_rejects_a_view_of_the_input(self):
        sys, initial, config, _ = CASES["maxwell"]()
        buf = np.concatenate([initial.data, initial.data])
        state = initial.with_data(buf[2:10])
        with pytest.raises(ValueError, match="out must not overlap"):
            lxf_step(state, system_rhs(sys), config, out=buf[:8])

    def test_lxf_average_rejects_the_input_data(self):
        _, initial, _, _ = CASES["maxwell"]()
        with pytest.raises(ValueError, match="out must not overlap"):
            lxf_average(initial, out=initial.data)
        with pytest.raises(ValueError, match="out must not overlap"):
            lxf_average(initial, out=initial.data[2:4], rows=(2, 4))

    def test_viscous_step_rejects_the_input_data(self):
        law, initial, config, _ = burgers_case("outflow", viscosity=0.01)
        with pytest.raises(ValueError, match="out must not overlap"):
            viscous_step(initial, law, config, out=initial.data)
        with pytest.raises(ValueError, match="out must not overlap"):
            viscous_step(initial, law, config, out=initial.data[::-1])

    def test_viscous_step_rejects_a_spare_overlapping_the_input(self):
        # the spare held the heat term over the state, which came back up
        # to 1.39 away from the right step, silently
        law, initial, config, _ = burgers_case("outflow", viscosity=0.01)
        data = initial.data.copy()
        with pytest.raises(ValueError, match="spare must not overlap"):
            viscous_step(initial, law, config, spare=initial.data)
        with pytest.raises(ValueError, match="spare must not overlap"):
            viscous_step(initial, law, config, spare=initial.data[::-1])
        assert initial.data.tobytes() == data.tobytes()

    def test_viscous_step_rejects_a_spare_overlapping_out(self):
        law, initial, config, _ = burgers_case("outflow", viscosity=0.01)
        out = np.empty_like(initial.data)
        with pytest.raises(ValueError, match="spare must not overlap"):
            viscous_step(initial, law, config, out=out, spare=out)
        buf = np.empty((2,) + initial.data.shape)
        with pytest.raises(ValueError, match="spare must not overlap"):
            viscous_step(initial, law, config, out=buf[0], spare=buf.reshape(-1)[5:5 + out.size]
                         .reshape(out.shape))
        want = viscous_step(initial, law, config).data
        got = viscous_step(initial, law, config, out=buf[0], spare=buf[1]).data
        assert got.tobytes() == want.tobytes()

    def test_a_strided_out_is_rejected_before_writing(self):
        # on axis 0 too, where no flat view catches it: a 1D state
        law, initial, config, _ = burgers_case("outflow", viscosity=0.01)
        n = initial.data.shape[0]
        buf = np.zeros((n, 2))
        calls = {
            "out": [lambda o: lxf_step(initial, law_rhs(law), config, out=o),
                    lambda o: lxf_average(initial, out=o),
                    lambda o: viscous_step(initial, law, config, out=o),
                    lambda o: centered_diff(initial, 0, out=o),
                    lambda o: grid.shifted(initial.data, 0, 1, "outflow", out=o)],
            "spare": [lambda o: viscous_step(initial, law, config, spare=o)],
        }
        for name, fns in calls.items():
            for fn in fns:
                with pytest.raises(ValueError, match=f"{name} must be a C-contiguous"):
                    fn(buf[:, ::2])
        assert not buf.any()

    def test_separate_buffers_are_accepted(self):
        law, initial, config, _ = burgers_case("periodic")
        buf = np.empty((2,) + initial.data.shape)
        state = initial.with_data(buf[0])
        np.copyto(buf[0], initial.data)
        out = buf[1]
        assert lxf_step(state, law_rhs(law), config, out=out).data is out


# ---------------------------------------------------------------------------
# ghost rows: a step reads axis 0 of its state from a padded buffer whose two
# ghost rows hold the boundary rule's neighbours; these tests hold steps and
# runs to references that translate by np.take index maps, bit for bit

GHOST_LENGTHS = [1, 2, 3, 17]
# signed zeros and subnormals; the steps also get infinities and a NaN
TINY = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2250738585072014e-308]


def take_translate(a, axis, direction, boundary):
    """a read at cell i + direction along ``axis``: past an edge the far
    edge cell (periodic) or the cell itself (outflow)."""
    length = a.shape[axis]
    idx = np.arange(length) + direction
    idx = idx % length if boundary == "periodic" else np.clip(idx, 0, length - 1)
    return np.take(a, idx, axis=axis)


def take_difference(a, axis, boundary):
    return take_translate(a, axis, +1, boundary) - take_translate(a, axis, -1, boundary)


def take_average(u, n, boundary):
    """The average's translates, summed from translate + 0.0 in axis order."""
    acc = take_translate(u, 0, +1, boundary) + 0.0
    acc = acc + take_translate(u, 0, -1, boundary)
    for j in range(1, n):
        acc = acc + take_translate(u, j, +1, boundary)
        acc = acc + take_translate(u, j, -1, boundary)
    return acc / (2.0 * n)


def mixing_flux(a, b):
    """f(u) = a u + b (u with its two components swapped), cell by cell
    in ufuncs, so its bits do not depend on the batch."""
    return lambda u: a * u + b * u[..., ::-1]


def ghost_source(x, u):
    return 0.1 * np.cos(3.0 * x[..., 1:2]) - 0.2 * u


def ghost_models(n, with_source, m=2):
    """An m-component law with mixing fluxes and the constant system of the
    same Jacobians a I + b J (J reverses the components; [[a, b], [b, a]]
    for m = 2), both with or without a source."""
    rng = np.random.default_rng(1000 + n)
    ab = rng.uniform(-0.5, 0.5, (n, 2))
    source = ghost_source if with_source else None
    law = ConservationLaw(n=n, m=m, flux=tuple(mixing_flux(a, b) for a, b in ab),
                          state_box=([-10.0] * m, [10.0] * m), source=source)
    mats = [a * np.eye(m) + b * np.eye(m)[::-1] for a, b in ab]
    sys = SystemDef(n=n, m=m, source=source, coeff=(MatrixField.constant(np.eye(m)),)
                    + tuple(MatrixField.constant(mat) for mat in mats))
    return law, sys, mats


def ghost_state(n, length, boundary, nonfinite, seed):
    shape = (length,) + (3, 2)[:n - 1]
    h = 0.25 if seed % 2 else 0.3   # 2h a power of two, or not
    grid_ = GridField.zeros(shape, h, -0.4, 2, boundary)
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 1.0, grid_.data.shape)
    flat = data.reshape(-1)
    pool = TINY + ([np.inf, -np.inf, np.nan] if nonfinite else [])
    picks = rng.choice(flat.size, size=max(1, flat.size // 3), replace=False)
    flat[picks] = rng.choice(pool, size=picks.size)
    return grid_.with_data(data)


def take_rhs(model, mats, state, t):
    """N - sum_j C_j D_j w_j with D_j by np.take maps; the law's w_j is its
    flux on the grid's cells, the system's C_j D_j u the layered product
    (which multiplies the zeros of each layer too, so it is NaN where the
    contraction would be inf)."""
    u = state.data
    acc = 0.0 if model.source is None else model.source(state.points(t), u)
    for j in range(state.n):
        w = u if isinstance(model, SystemDef) else model.flux[j](u)
        d = take_difference(w, j, state.boundary) / (2.0 * state.h[j])
        acc = acc - (apply_layers(single_entry_layers(mats[j]), d,
                                  plus_zero=model.source is not None)
                     if isinstance(model, SystemDef) else d)
    return acc


def take_lxf_step(model, mats, state, t, k):
    return take_average(state.data, state.n, state.boundary) + take_rhs(model, mats, state, t) * k


def take_viscous_step(law, state, t, k, eps):
    u, h, boundary = state.data, state.h[0], state.boundary
    out = take_difference(law.flux[0](u), 0, boundary) * (k / (2.0 * h))
    out = u - out
    heat = (take_translate(u, 0, +1, boundary) - (u + u)) + take_translate(u, 0, -1, boundary)
    out = out + heat * (eps * k / h ** 2)
    if law.source is not None:
        out = out + k * law.source(state.points(t), u)
    return out


def window_budget(state, rows_per_window):
    return budget(rows_per_window * row_bytes(state.data))


def ghost_cases(ns):
    return [(n, length, boundary, rows) for n in ns for length in GHOST_LENGTHS
            for boundary in ("periodic", "outflow") for rows in (1, 2)]


class RhsProbe:
    """A monitor that evaluates an RHS closure on the state it is shown,
    a run's ``GhostField`` between steps, and on a plain copy of it."""

    name = "rhs_probe"

    def __init__(self, rhs):
        self.rhs, self.same = rhs, []

    def evaluate(self, state):
        plain = state.with_data(state.data.copy())
        self.same.append(self.rhs(0.3, state).tobytes() == self.rhs(0.3, plain).tobytes())
        return 0.0


class TestGhostRows:
    def test_a_ghost_field_hands_out_plain_fields(self):
        grid_ = GridField.zeros((3, 2), 0.5, 0.0, 1)
        padded = np.arange(10.0).reshape(5, 2, 1)
        ghost = GhostField.around(grid_, padded)
        assert ghost.padded is padded and ghost.data.tobytes() == padded[1:-1].tobytes()
        assert np.shares_memory(ghost.data, padded)
        assert type(ghost.with_data(np.zeros((3, 2, 1)))) is GridField
        # a replaced field has no padded array, so it is padded as a plain state
        assert getattr(replace(ghost, data=np.zeros((3, 2, 1))), "padded", None) is None

    @pytest.mark.parametrize("n, length, boundary, rows", ghost_cases((1, 2, 3)))
    def test_lxf_step_equals_the_take_reference(self, n, length, boundary, rows):
        state = ghost_state(n, length, boundary, True, seed=length + rows)
        law, sys, mats = ghost_models(n, boundary == "outflow")
        config = SchemeConfig(lam=0.2, t_end=1.0)
        k = 0.2 * state.h[0]
        with window_budget(state, rows), np.errstate(all="ignore"):
            assert length <= rows or len(row_windows(state.data)[0]) > 1
            for model, build in ((law, law_rhs), (sys, system_rhs)):
                got = lxf_step(state, build(model), config, t=0.3, k=k)
                want = take_lxf_step(model, mats, state, 0.3, k)
                assert same_bits(got.data, want)
                # the RHS called on a plain state reads a padded copy
                assert same_bits(build(model)(0.3, state), take_rhs(model, mats, state, 0.3))

    @pytest.mark.parametrize("n, length, boundary, rows", ghost_cases((1,)))
    @pytest.mark.parametrize("burgers", [False, True])
    def test_viscous_step_equals_the_take_reference(self, n, length, boundary, rows, burgers):
        state = ghost_state(1, length, boundary, True, seed=length + 2 * rows)
        law = ghost_models(1, boundary == "outflow")[0]
        if burgers:
            law = replace(burgers_law()[0], source=law.source)
            state = GridField.zeros(state.shape, state.h, state.origin, 1,
                                    boundary).with_data(state.data[..., :1].copy())
        eps = 0.01
        config = SchemeConfig(lam=0.2, t_end=1.0, viscosity=eps)
        k = 0.2 * state.h[0]
        with window_budget(state, rows), np.errstate(all="ignore"):
            got = viscous_step(state, law, config, t=0.3, k=k)
            assert same_bits(got.data, take_viscous_step(law, state, 0.3, k, eps))

    @pytest.mark.parametrize("n, length, boundary, rows, kind", [
        case + (kind,) for case in ghost_cases((1, 2, 3))
        for kind in ("law", "system", "viscous")[:3 if case[0] == 1 else 2]])
    def test_runs_equal_the_take_reference(self, n, length, boundary, rows, kind):
        initial = ghost_state(n, length, boundary, False, seed=3 * length + rows)
        law, sys, mats = ghost_models(n, boundary == "outflow")
        model = sys if kind == "system" else law
        k = 0.2 * initial.h[0]
        eps = 0.4 * initial.h[0] ** 2 / k if kind == "viscous" else 0.0
        # three full steps and a remainder, each recorded
        config = SchemeConfig(lam=0.2, t_end=3.5 * k, viscosity=eps)
        probe = RhsProbe(law_rhs(law) if kind == "law" else system_rhs(sys))
        with window_budget(initial, rows):
            trace = run(model, initial, config, [] if kind == "viscous" else [probe])
            assert trace.completed and trace.steps == 4
            assert probe.same == [True] * (0 if kind == "viscous" else 5)
            state, t = initial, 0.0
            for i, snap in enumerate(trace.snapshots[1:], 1):
                k_i = k if i <= 3 else config.t_end - 3 * k
                want = (take_viscous_step(law, state, t, k_i, eps) if kind == "viscous"
                        else take_lxf_step(model, mats, state, t, k_i))
                assert snap.data.tobytes() == want.tobytes()
                # a step without a plan gets the run's bits
                alone = (viscous_step(state, law, config, t=t, k=k_i) if kind == "viscous"
                         else lxf_step(state, (law_rhs(law) if kind == "law"
                                              else system_rhs(sys)), config, t=t, k=k_i))
                assert alone.data.tobytes() == snap.data.tobytes()
                assert type(alone) is GridField and type(snap) is GridField
                state, t = snap, trace.times[i]
