import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import hypothesis.extra.numpy as hnp
from hypothesis import example, given, settings, strategies as st

from shsys import profiles
from shsys.core import MatrixField, SystemDef, max_abs_speed, unit_normals
from shsys.energy import LinearSystem, energy
from shsys.entropy import ConservationLaw
from shsys.grid import GridField, centered_diff
from shsys import lxf
from shsys.lxf import (SchemeConfig, StabilityError, _sample_cells, apply_layers,
                       law_rhs, lxf_step, max_char_speed, run, single_entry_layers,
                       stacked_solve, system_rhs, viscous_step)
from shsys.models import (advection_law, burgers_law, euler_conservative_1d,
                          euler_polytropic_sh, euler_primitive_to_conservative,
                          maxwell_system, wave_system)

from test_row_windows import budget

RNG = np.random.default_rng(2718)


def grid_1d(cells, extent=2.0, m=1, boundary="periodic"):
    h = extent / cells
    return GridField.zeros((cells,), h, -extent / 2 + h / 2, m, boundary)


def zero_flux_law():
    return ConservationLaw(
        n=1, m=1, flux=(lambda u: np.zeros_like(np.asarray(u, dtype=float)),),
        state_box=([-10.0], [10.0]))


class TestLxfStep:
    def test_constant_state_is_fixed_point(self):
        law, _ = burgers_law()
        grid = grid_1d(32).with_data(np.full((32, 1), 2.0))
        config = SchemeConfig(lam=0.3, t_end=1.0)
        out = lxf_step(grid, law_rhs(law), config)
        assert np.array_equal(out.data, grid.data)

    def test_delta_advection_at_unit_cfl(self):
        # lam * a = 1 moves the delta exactly one cell right
        law, _ = advection_law(1.0)
        grid = grid_1d(8)
        data = np.zeros((8, 1))
        data[4, 0] = 1.0
        config = SchemeConfig(lam=1.0, t_end=1.0, cfl_safety=1.0)
        out = lxf_step(grid.with_data(data), law_rhs(law), config)
        expected = np.zeros((8, 1))
        expected[5, 0] = 1.0
        assert np.array_equal(out.data, expected)

    def test_delta_advection_stencil_weights(self):
        law, _ = advection_law(1.0)
        grid = grid_1d(8)
        data = np.zeros((8, 1))
        data[4, 0] = 1.0
        lam = 0.5
        config = SchemeConfig(lam=lam, t_end=1.0)
        out = lxf_step(grid.with_data(data), law_rhs(law), config)
        assert out.data[5, 0] == pytest.approx(0.5 + 0.5 * lam)
        assert out.data[3, 0] == pytest.approx(0.5 - 0.5 * lam)
        assert out.data[4, 0] == 0.0

    def test_system_and_law_agree_for_advection(self):
        from shsys.core import MatrixField, SystemDef
        law, _ = advection_law(0.7)
        sys = SystemDef(n=1, m=1, coeff=(MatrixField.constant([[1.0]]),
                                         MatrixField.constant([[0.7]])))
        grid = grid_1d(64).with_data(RNG.normal(size=(64, 1)))
        config = SchemeConfig(lam=0.5, t_end=1.0)
        out_law = lxf_step(grid, law_rhs(law), config)
        out_sys = lxf_step(grid, system_rhs(sys), config)
        assert np.allclose(out_law.data, out_sys.data, atol=1e-14)

    def test_domain_of_dependence_is_the_stencil(self):
        law, _ = burgers_law()
        grid = grid_1d(64).with_data(RNG.uniform(-1, 1, size=(64, 1)))
        config = SchemeConfig(lam=0.5, t_end=1.0)
        base = lxf_step(grid, law_rhs(law), config)
        perturbed_data = grid.data.copy()
        perturbed_data[40, 0] += 0.5  # four cells away from cell 36
        out = lxf_step(grid.with_data(perturbed_data), law_rhs(law), config)
        assert out.data[36, 0] == base.data[36, 0]
        assert out.data[35, 0] == base.data[35, 0]
        # the stencil cells do feel it
        assert out.data[39, 0] != base.data[39, 0]


class TestViscousStep:
    def test_constant_state(self):
        law, _ = burgers_law()
        grid = grid_1d(16).with_data(np.full((16, 1), 1.5))
        config = SchemeConfig(lam=0.1, t_end=1.0, viscosity=0.05)
        out = viscous_step(grid, law, config, k=1e-4)
        assert np.array_equal(out.data, grid.data)

    def test_pure_heat_stencil_on_delta(self):
        law = zero_flux_law()
        grid = grid_1d(9, extent=9.0)  # h = 1
        data = np.zeros((9, 1))
        data[4, 0] = 1.0
        config = SchemeConfig(lam=0.1, t_end=1.0, viscosity=1.0)
        k = 0.25
        out = viscous_step(grid.with_data(data), law, config, k=k)
        assert out.data[4, 0] == pytest.approx(1.0 - 2.0 * k)
        assert out.data[3, 0] == pytest.approx(k)
        assert out.data[5, 0] == pytest.approx(k)

    def test_monotone_front_stays_monotone(self):
        law, _ = burgers_law()
        eps = 0.05
        cells = 256
        grid = grid_1d(cells, extent=2.0, boundary="outflow")
        x = grid.centers(0)
        data = (0.5 * (1.0 - np.tanh(x / (2.0 * eps))))[:, None]
        h = grid.h[0]
        k = 0.9 * min(h * h / (2 * eps), h / 2.0)
        config = SchemeConfig(lam=k / h, t_end=1.0, viscosity=eps)
        out = viscous_step(grid.with_data(data), law, config, k=k)
        assert np.all(np.diff(out.data[:, 0]) <= 1e-15)


class TestRun:
    def test_zero_steps_returns_initial_only(self):
        law, _ = burgers_law()
        grid = grid_1d(16).with_data(RNG.uniform(-0.5, 0.5, size=(16, 1)))
        trace = run(law, grid, SchemeConfig(lam=0.5, t_end=0.0))
        assert trace.completed
        assert trace.times == [0.0]
        assert np.array_equal(trace.snapshots[0].data, grid.data)

    def test_final_time_hit_exactly_with_partial_step(self):
        law, _ = advection_law(1.0)
        grid = grid_1d(30, extent=3.0)
        initial = profiles.plane_wave(grid, 0.3, 1)
        trace = run(law, initial, SchemeConfig(lam=0.7, t_end=0.25))
        assert trace.completed
        assert trace.times[-1] == pytest.approx(0.25, abs=1e-15)

    def test_advection_one_period_first_order(self):
        law, _ = advection_law(1.0)
        errors = []
        for cells in (100, 200):
            grid = GridField.zeros((cells,), 1.0 / cells, 0.5 / cells, 1)
            initial = profiles.plane_wave(grid, 1.0, 1)
            trace = run(law, initial, SchemeConfig(lam=0.5, t_end=1.0,
                                                   output_stride=10 ** 9))
            assert trace.completed
            err = float(np.sum(np.abs(trace.snapshots[-1].data
                                      - initial.data)) / cells)
            errors.append(err)
        ratio = errors[0] / errors[1]
        assert 1.7 <= ratio <= 2.3

    def test_conservation_periodic_burgers(self):
        law, _ = burgers_law()
        cells = 200
        grid = grid_1d(cells)
        initial = grid.with_data(0.5 + 0.4 * np.sin(
            np.pi * grid.centers(0))[:, None])
        h = grid.h[0]
        config = SchemeConfig(lam=0.9, t_end=1000 * 0.9 * h, output_stride=250)
        trace = run(law, initial, config)
        assert trace.completed
        assert trace.steps == 1000
        total0 = float(np.sum(initial.data))
        for snap in trace.snapshots:
            drift = abs(float(np.sum(snap.data)) - total0) / abs(total0)
            assert drift <= 1e-12

    def test_conservation_periodic_euler(self):
        law = euler_conservative_1d(1.4)
        cells = 200
        grid = grid_1d(cells, m=3)
        x = grid.centers(0)
        rho = np.where(x < 0, 1.0, 0.125)
        p = np.where(x < 0, 1.0, 0.1)
        initial = grid.with_data(euler_primitive_to_conservative(
            1.4, rho, np.zeros_like(x), p))
        config = SchemeConfig(lam=0.3, t_end=1000 * 0.3 * grid.h[0],
                              output_stride=10 ** 9)
        trace = run(law, initial, config)
        assert trace.completed
        totals0 = np.sum(initial.data, axis=0)
        totals1 = np.sum(trace.snapshots[-1].data, axis=0)
        scale = np.maximum(1.0, np.sum(np.abs(initial.data), axis=0))
        assert np.all(np.abs(totals1 - totals0) / scale <= 1e-12)

    def test_maximum_principle_scalar(self):
        law, _ = burgers_law()
        grid = grid_1d(128)
        initial = grid.with_data(RNG.uniform(0.0, 1.0, size=(128, 1)))
        lo, hi = float(initial.data.min()), float(initial.data.max())
        config = SchemeConfig(lam=0.9, t_end=0.5, output_stride=20)
        trace = run(law, initial, config)
        assert trace.completed
        for snap in trace.snapshots:
            assert snap.data.min() >= lo - 1e-12
            assert snap.data.max() <= hi + 1e-12

    def test_linear_stability_energy_bound(self):
        law, _ = advection_law(1.0)
        grid = grid_1d(100)
        initial = profiles.plane_wave(grid, 1.0, 2)
        config = SchemeConfig(lam=0.9, t_end=0.5, output_stride=5)
        trace = run(law, initial, config)
        k = config.lam * grid.h[0]
        e0 = energy(trace.snapshots[0], np.eye(1))
        for snap in trace.snapshots:
            assert energy(snap, np.eye(1)) <= e0 * (1.0 + 10.0 * k)

    def test_maxwell_energy_dissipates(self):
        sys, _ = maxwell_system()
        grid = GridField.zeros((8, 8, 8), 1.0 / 8, 1.0 / 16, 6)
        arg = 2 * np.pi * np.sum(grid.coords(), axis=-1)
        e0 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        b0 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        data = np.concatenate([np.sin(arg)[..., None] * e0,
                               np.sin(arg)[..., None] * b0], axis=-1)
        config = SchemeConfig(lam=0.25, t_end=0.2, output_stride=4)
        trace = run(sys, grid.with_data(data), config)
        assert trace.completed
        energies = [energy(s, np.eye(6)) for s in trace.snapshots]
        for prev, nxt in zip(energies, energies[1:]):
            assert nxt <= prev * (1.0 + 1e-12)

    def test_stability_precondition_enforced(self):
        law, _ = advection_law(2.0)
        grid = grid_1d(32)
        initial = profiles.plane_wave(grid, 1.0, 1)
        with pytest.raises(StabilityError):
            run(law, initial, SchemeConfig(lam=1.0, t_end=0.1))

    @pytest.mark.parametrize("field_, value", [
        ("lam", np.nan), ("lam", np.inf), ("t_end", np.inf), ("t_end", np.nan),
        ("cfl_safety", np.nan), ("viscosity", np.nan), ("viscosity", np.inf)])
    def test_nonfinite_scheme_parameters_rejected(self, field_, value):
        params = dict(lam=0.5, t_end=1.0)
        params[field_] = value
        with pytest.raises(ValueError, match=f"{field_} must be finite"):
            SchemeConfig(**params)

    def test_parabolic_bound_enforced(self):
        law, _ = burgers_law()
        grid = grid_1d(64)
        initial = grid.with_data(np.zeros((64, 1)))
        with pytest.raises(StabilityError):
            run(law, initial, SchemeConfig(lam=0.9, t_end=0.1, viscosity=1.0))

    @pytest.mark.parametrize("case, error, message", [
        ("object", TypeError, "cannot integrate object of type object"),
        ("system", ValueError, "viscosity applies to conservation laws only"),
        ("law-2d", ValueError, "viscous stepping is implemented for one space dimension"),
    ], ids=["object", "system", "law-2d"])
    def test_preconditions_come_before_any_model_member(self, case, error, message):
        # every member raises when called, so only run's own checks may fire;
        # the system used to fail in check_stability and the 2D law with
        # t_end = 0 to complete
        def untouchable(*args):
            raise AssertionError("a model member was evaluated")

        if case == "object":
            system, initial = object(), grid_1d(8)
        elif case == "system":
            field_ = MatrixField(m=1, fn=untouchable)
            system = SystemDef(n=1, m=1, coeff=(field_, field_), source=untouchable,
                               max_speed=untouchable)
            initial = GridField.zeros((8,), 0.125, 0.0625, 1)
        else:
            system = ConservationLaw(n=2, m=1, flux=(untouchable, untouchable),
                                     state_box=([-1.0], [1.0]), admissible=untouchable)
            initial = GridField.zeros((8, 8), 0.125, 0.0625, 1)
        with pytest.raises(error, match=message):
            run(system, initial, SchemeConfig(lam=0.5, t_end=0.0 if case == "law-2d" else 0.1,
                                              viscosity=1.0 if case != "object" else 0.0))

    @pytest.mark.parametrize("case, pairs", [
        ("law-n", ((1, 1), (2, 1))),
        ("law-m", ((1, 1), (1, 2))),
        ("system-n", ((1, 1), (2, 1))),
        ("system-m", ((1, 1), (1, 2))),
    ], ids=["law-n", "law-m", "system-n", "system-m"])
    def test_model_and_grid_must_agree_on_n_and_m(self, case, pairs):
        # a 1D law on a 2D grid used to run with a 2D average and an x flux
        # only, an elementwise 1-component flux on a 2-component grid to
        # complete, and a 1D system on a 2D grid to fail in the points check
        def untouchable(*args):
            raise AssertionError("a model member was evaluated")

        (n, m), (grid_n, grid_m) = pairs
        if case.startswith("law"):
            system = ConservationLaw(n=n, m=m, flux=(untouchable,) * n,
                                     state_box=([-1.0] * m, [1.0] * m), admissible=untouchable)
        else:
            field_ = MatrixField(m=m, fn=untouchable)
            system = SystemDef(n=n, m=m, coeff=(field_,) * (n + 1), source=untouchable,
                               max_speed=untouchable)
        initial = GridField.zeros((8,) * grid_n, 0.125, 0.0625, grid_m)
        message = (f"the model has (n, m) = ({n}, {m}) but the grid has "
                   f"(n, m) = ({grid_n}, {grid_m})")
        with pytest.raises(ValueError, match=re.escape(message)):
            run(system, initial, SchemeConfig(lam=0.1, t_end=0.1))

    @pytest.mark.parametrize("n", [0, 4])
    def test_law_space_dimension_is_1_2_or_3(self, n):
        with pytest.raises(ValueError, match=f"space dimension must be 1, 2 or 3, got {n}"):
            ConservationLaw(n=n, m=1, flux=(lambda u: u,) * n, state_box=([-1.0], [1.0]))

    def test_nonfinite_aborts_with_partial_trace(self):
        # quadratic reaction term: forward-Euler iterates overflow to inf
        law = ConservationLaw(
            n=1, m=1,
            flux=(lambda u: np.zeros_like(np.asarray(u, dtype=float)),),
            source=lambda x, u: np.asarray(u, dtype=float) ** 2,
            state_box=([-1e9], [1e9]))
        grid = grid_1d(16)
        initial = grid.with_data(np.full((16, 1), 100.0))
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(law, initial, SchemeConfig(lam=0.1, t_end=1.0))
        assert not trace.completed
        assert "non-finite" in trace.error
        assert 0 < trace.steps < 1000
        assert len(trace.snapshots) >= 1

    @pytest.mark.parametrize("viscosity", [0.0, 0.01])
    def test_law_source_sees_time(self, viscosity):
        # du/dt = t on a constant state: u after N steps is k^2 N (N - 1) / 2
        seen = []

        def source(x, u):
            seen.append(x.copy())
            return np.broadcast_to(x[..., :1], np.shape(u))

        law = replace(zero_flux_law(), source=source)
        grid = grid_1d(8, boundary="outflow")
        trace = run(law, grid.with_data(np.zeros((8, 1))),
                    SchemeConfig(lam=0.1, t_end=0.25, viscosity=viscosity))
        assert trace.completed and trace.steps == 10
        k = 0.1 * grid.h[0]
        assert [x.shape for x in seen] == [(8, 2)] * 10
        assert [x[0, 0] for x in seen] == pytest.approx([i * k for i in range(10)])
        assert all(np.array_equal(x[:, 1], grid.centers(0)) for x in seen)
        assert np.allclose(trace.snapshots[-1].data, k * k * 10 * 9 / 2)

    def test_euler_vacuum_aborts(self):
        law = euler_conservative_1d(1.4)
        grid = grid_1d(16, m=3)
        bad = euler_primitive_to_conservative(1.4, np.full(16, 1.0),
                                              np.zeros(16), np.full(16, -1.0))
        trace = run(law, grid.with_data(bad), SchemeConfig(lam=0.1, t_end=1.0))
        assert not trace.completed
        assert trace.error == "state outside box at cell (0,) after step 0"

    def test_box_abort_names_cell_component_and_step(self):
        # component 1 grows by k = 0.125 a step and leaves [-1, 0.05] at step 1
        sys = SystemDef(
            n=1, m=2, coeff=(MatrixField.constant(np.eye(2)),
                             MatrixField.constant(np.zeros((2, 2)))),
            source=lambda x, u: np.broadcast_to([0.0, 1.0], np.shape(u)),
            state_box=([-1.0, -1.0], [1.0, 0.05]))
        grid = grid_1d(8, m=2)
        trace = run(sys, grid, SchemeConfig(lam=0.5, t_end=1.0))
        assert not trace.completed and trace.steps == 1
        assert trace.error == "state outside box at cell (0,) component 1 after step 1"
        abort = trace.events[-1]
        assert (abort["event"], abort["step"], abort["cell"], abort["component"]) == (
            "abort", 1, (0,), 1)

    def test_initial_box_abort_locates_the_first_cell(self):
        sys = euler_polytropic_sh(1.4, n=2)
        grid = GridField.zeros((3, 4), 0.25, 0.0, 3)
        data = np.ones((3, 4, 3))
        data[2, 1, 0] = data[2, 3, 0] = -1.0
        trace = run(sys, grid.with_data(data), SchemeConfig(lam=0.1, t_end=0.1))
        assert trace.error == "state outside box at cell (2, 1) component 0 after step 0"
        assert (trace.events[-1]["cell"], trace.events[-1]["component"]) == ((2, 1), 0)
        assert len(trace.snapshots) == 1

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nonfinite_initial_state_aborts_at_step_0(self, bad):
        sys, _ = maxwell_system()
        grid = GridField.zeros((4, 4, 4), 0.25, 0.125, 6)
        data = grid.data.copy()
        data[2, 1, 0, 3] = bad
        trace = run(sys, grid.with_data(data), SchemeConfig(lam=0.25, t_end=0.5))
        assert not trace.completed and trace.steps == 0
        assert trace.error == "non-finite state at cell (2, 1, 0) component 3 after step 0"
        assert len(trace.snapshots) == 1

    def test_nonfinite_abort_names_cell_and_component(self):
        law = ConservationLaw(
            n=1, m=1,
            flux=(lambda u: np.zeros_like(np.asarray(u, dtype=float)),),
            source=lambda x, u: np.asarray(u, dtype=float) ** 2,
            state_box=([-1e9], [1e9]))
        data = np.zeros((16, 1))
        data[5, 0] = 100.0
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(law, grid_1d(16).with_data(data),
                        SchemeConfig(lam=0.1, t_end=1.0))
        step = trace.steps
        assert re.fullmatch(r"non-finite state at cell \(\d+,\) component 0 "
                            rf"after step {step}", trace.error)
        abort = trace.events[-1]
        assert abort["component"] == 0 and len(abort["cell"]) == 1

    def test_bit_identical_reruns(self):
        law, _ = burgers_law()
        grid = grid_1d(64)
        initial = grid.with_data(RNG.uniform(-0.9, 0.9, size=(64, 1)))
        config = SchemeConfig(lam=0.5, t_end=0.3, output_stride=7)
        t1 = run(law, initial, config)
        t2 = run(law, initial, config)
        assert t1.times == t2.times
        for a, b in zip(t1.snapshots, t2.snapshots):
            assert np.array_equal(a.data, b.data)


class TestMaxCharSpeed:
    def test_burgers_speed_is_max_abs_state(self):
        law, _ = burgers_law()
        grid = grid_1d(32)
        initial = grid.with_data(np.linspace(-0.8, 0.6, 32)[:, None])
        assert max_char_speed(law, initial) == pytest.approx(0.8, abs=1e-12)

    def test_wave_system_unit_speed(self):
        sys, _ = wave_system(np.zeros(1), np.eye(1))
        grid = grid_1d(16, m=3)
        assert max_char_speed(sys, grid) == pytest.approx(1.0, abs=1e-10)

    def test_law_speed_reads_every_cell(self):
        # cell 1 is not among 512 strided samples of 2,000 cells, and the
        # run it let through went non-finite after step 12
        law, _ = burgers_law()
        state = GridField.zeros((2000,), 1 / 2000, 0.00025, 1)
        state.data[:] = 0.5
        state.data[1] = 2.0
        assert 1 not in _sample_cells(state)
        assert max_char_speed(law, state) == 2.0
        with pytest.raises(StabilityError, match=r"lambda \* a_star \* n = 3\.2 "):
            run(law, state, SchemeConfig(lam=1.6, t_end=0.01))

    def test_sampled_speed_spreads_over_every_axis(self):
        # a_jk grows with x_3 alone; samples strided through the flat index
        # all lie in the plane x_3 = 0 and read 1.0
        sys, _ = wave_system(lambda x: np.zeros(x.shape),
                             lambda x: (1.0 + 0.4 * np.sin(np.pi * x[..., 2]) ** 2)[..., None, None]
                             * np.eye(3), n=3)
        state = GridField.zeros((32, 32, 32), 1.0 / 32, 0.0, sys.m)
        assert len(_sample_cells(state)) == 512
        # every cell: a_jk is the same along x_1 and x_2, so one column of
        # cells holds every speed
        column = state.points(0.0)[0, 0]
        every_cell = max_abs_speed(sys, column, state.data[0, 0])
        assert every_cell == pytest.approx(np.sqrt(1.4), rel=1e-12)
        assert max_char_speed(sys, state) == pytest.approx(every_cell, rel=0.01)

    @pytest.mark.parametrize("law_name", ["burgers", "euler_cons", "test2d", "test2d_fd"])
    def test_batched_law_speed_equals_per_sample_loop(self, law_name):
        law, initial = law_speed_case(law_name)
        assert max_char_speed(law, initial) == per_sample_speed(law, initial)

    def test_euler_cons_overflow_names_its_cell_without_a_warning(self):
        # a finite, admissible state whose finite-difference Jacobian
        # overflows: it used to reach eigvals as "Array must not contain
        # infs or NaNs" after an "overflow encountered in multiply" warning
        law = euler_conservative_1d(1.4)
        state = grid_1d(5, m=3, boundary="outflow").with_data(
            np.tile([1e-300, 0.0, 1e-300], (5, 1)))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^the flux Jacobian is not finite "
                                                 r"at cell \(0,\)$"):
                run(law, state, SchemeConfig(lam=0.3, t_end=0.1))
        assert seen == []

    def test_a_non_finite_jacobian_names_one_index_per_axis(self):
        # 0.5 u0^2 overflows at one cell of a 30 x 20 grid
        law, state = law_speed_case("test2d_fd")
        state.data[2, 3, 0] = state.data[7, 1, 0] = 1e200
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"at cell \(2, 3\)$"):
                max_char_speed(law, state)
        assert seen == []


def per_sample_speed(law, state):
    """The CFL speed of a law, one cell's state at a time."""
    u = state.data.reshape(-1, state.m)
    worst = 0.0
    for u_i in u:
        jacs = [law.jacobian(j, u_i) for j in range(law.n)]
        for nu in unit_normals(law.n):
            a = sum(nu[j] * jacs[j] for j in range(law.n))
            worst = max(worst, float(np.max(np.abs(np.linalg.eigvals(a)))))
    return worst


def law_speed_case(name):
    """A law and a state with more than 512 cells, more than a system's
    CFL speed samples."""
    if name == "burgers":
        law, _ = burgers_law()
        return law, grid_1d(700).with_data(RNG.uniform(-0.9, 0.9, size=(700, 1)))
    if name == "euler_cons":
        law = euler_conservative_1d(1.4)     # no exact Jacobian: central FD
        grid = grid_1d(600, m=3)
        x = grid.centers(0)
        data = euler_primitive_to_conservative(
            1.4, 1.0 + 0.2 * np.sin(np.pi * x), 0.3 * np.cos(np.pi * x),
            1.0 + 0.1 * np.sin(2 * np.pi * x))
        return law, grid.with_data(data)

    def f1(u):
        u = np.asarray(u, dtype=float)
        return np.stack([0.5 * u[..., 0] ** 2 + u[..., 1], u[..., 0] * u[..., 1]], -1)

    def f2(u):
        u = np.asarray(u, dtype=float)
        return np.stack([u[..., 1], u[..., 0] + u[..., 1] ** 2], -1)

    def j1(u):
        u0, u1 = u[..., 0], u[..., 1]
        return np.stack([np.stack([u0, np.ones_like(u0)], -1),
                         np.stack([u1, u0], -1)], -2)

    def j2(u):
        u1 = u[..., 1]
        return np.stack([np.stack([np.zeros_like(u1), np.ones_like(u1)], -1),
                         np.stack([np.ones_like(u1), 2.0 * u1], -1)], -2)

    law = ConservationLaw(n=2, m=2, flux=(f1, f2), state_box=([-2, -2], [2, 2]),
                          flux_jac=None if name.endswith("_fd") else (j1, j2))
    grid = GridField.zeros((30, 20), 0.1, 0.0, 2)
    return law, grid.with_data(RNG.uniform(-1.0, 1.0, size=(30, 20, 2)))


class TestLawBatchContract:
    """A law's fluxes and source go through ``core.batch_checked`` in both
    steppers."""

    @staticmethod
    def stepper(name, law, state):
        if name == "lxf":
            return lxf_step(state, law_rhs(law), SchemeConfig(lam=0.1, t_end=0.01))
        return viscous_step(state, law, SchemeConfig(lam=0.1, t_end=0.01, viscosity=0.01))

    @pytest.mark.parametrize("name", ["lxf", "viscous"])
    def test_one_state_source_is_rejected(self, name):
        # one state's value used to be broadcast to every cell
        law = replace(burgers_law()[0], source=lambda x, u: np.array([0.25]))
        state = grid_1d(50).with_data(RNG.uniform(-0.5, 0.5, (50, 1)))
        with pytest.raises(ValueError, match=re.escape(
                "source returned shape (1,), expected (..., m) = (50, 1)")):
            self.stepper(name, law, state)

    @pytest.mark.parametrize("name", ["lxf", "viscous"])
    def test_flux_without_its_state_axis_is_rejected(self, name):
        law = replace(burgers_law()[0], flux=(lambda u: 0.5 * u[..., 0] ** 2,))
        state = grid_1d(50, boundary="outflow").with_data(RNG.uniform(-0.5, 0.5, (50, 1)))
        with pytest.raises(ValueError, match=re.escape(
                "flux[0] returned shape (50,), expected (..., m) = (50, 1)")):
            self.stepper(name, law, state)

    @pytest.mark.parametrize("through", ["run", "max_char_speed"])
    @pytest.mark.parametrize("entry", ["flux", "flux_jac"])
    def test_jacobian_checks_what_it_differentiates(self, entry, through):
        # the CFL speed used to fail in numpy's eigvals with "Last 2
        # dimensions of the array must be square", naming neither
        law = burgers_law()[0]
        if entry == "flux":
            law = replace(law, flux=(lambda u: 0.5 * u[..., 0] ** 2,), flux_jac=None)
            message = "flux[0] returned shape (50,), expected (..., m) = (50, 1)"
        else:
            law = replace(law, flux_jac=(lambda u: u,))
            message = "flux_jac[0] returned shape (50, 1), expected (..., m, m) = (50, 1, 1)"
        state = grid_1d(50).with_data(RNG.uniform(-0.5, 0.5, (50, 1)))
        with pytest.raises(ValueError, match=re.escape(message)):
            if through == "run":
                run(law, state, SchemeConfig(lam=0.1, t_end=0.01))
            else:
                max_char_speed(law, state)

    def test_second_flux_is_named(self):
        law, initial = law_speed_case("test2d")
        law = replace(law, flux=(law.flux[0], lambda u: u[..., :1]))
        with pytest.raises(ValueError, match=re.escape("flux[1] returned shape (30, 20, 1)")):
            law_rhs(law)(0.0, initial)


@st.composite
def linear_pairs(draw):
    """A linear law f^j(u) = A_j u with symmetric constant A_j, the system
    M0 = I, M^j = A_j with the same optional source S u (S = 0: none),
    [A_1..A_n, S] and a state."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    mats = [0.5 * (b + b.T) for b in rng.uniform(-2.0, 2.0, (n, m, m))]
    s_mat = rng.uniform(-1.0, 1.0, (m, m)) if draw(st.booleans()) else np.zeros((m, m))
    source = (lambda x, u: u @ s_mat.T) if s_mat.any() else None
    law = ConservationLaw(n=n, m=m, flux=tuple((lambda u, a=a: u @ a) for a in mats),
                          state_box=(np.full(m, -10.0), np.full(m, 10.0)), source=source)
    sys = SystemDef(n=n, m=m, source=source, coeff=(MatrixField.constant(np.eye(m)),)
                    + tuple(MatrixField.constant(a) for a in mats))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(n))
    boundary = draw(st.sampled_from(["periodic", "outflow"]))
    h = draw(st.sampled_from([0.1, 0.25, 1.0 / 3.0]))
    state = GridField.zeros(shape, h, 0.05, m, boundary)
    return law, sys, mats + [s_mat], state.with_data(rng.uniform(-3.0, 3.0, state.data.shape))


class TestOneLoop:
    @settings(max_examples=80, deadline=None)
    @given(linear_pairs())
    def test_linear_law_and_system_agree(self, case):
        # D_j (A_j u) against A_j D_j u: the same RHS up to rounding
        law, sys, (*mats, s_mat), state = case
        got = law_rhs(law)(0.3, state)
        want = system_rhs(sys)(0.3, state)
        u_max = float(np.max(np.abs(state.data)))
        scale = (max(float(np.max(np.abs(a))) for a in mats) / state.h[0]
                 + float(np.max(np.abs(s_mat)))) * u_max
        tol = 16 * state.n * state.m * np.finfo(float).eps * scale
        assert np.max(np.abs(got - want), initial=0.0) <= tol


class TestSingleCell:
    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    @pytest.mark.parametrize("viscosity", [0.0, 0.01])
    def test_law_cell_is_a_fixed_point(self, boundary, viscosity):
        # both neighbours of the only cell are the cell itself
        law, _ = burgers_law()
        initial = GridField.zeros((1,), 0.5, 0.0, 1, boundary).with_data([[0.7]])
        trace = run(law, initial, SchemeConfig(lam=0.5, t_end=0.5, viscosity=viscosity))
        assert trace.completed and trace.steps == 2
        assert all(np.array_equal(s.data, [[0.7]]) for s in trace.snapshots)

    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    def test_system_cell_sees_only_its_source(self, boundary):
        sys, _ = wave_system(np.zeros(1), np.eye(1))
        initial = GridField.zeros((1,), 0.5, 0.0, 3, boundary).with_data([[0.1, 0.2, 0.3]])
        trace = run(sys, initial, SchemeConfig(lam=0.5, t_end=1.0))
        assert trace.completed and trace.steps == 4
        # d_t v_0 = v_2; the derivative components stay put
        assert trace.snapshots[-1].data[0] == pytest.approx([0.1 + 4 * 0.25 * 0.3, 0.2, 0.3])

    def test_maxwell_cell_is_a_fixed_point(self):
        sys, _ = maxwell_system()
        values = np.arange(1.0, 7.0)
        initial = GridField.zeros((1, 1, 1), 0.5, 0.0, 6).with_data(values[None, None, None])
        trace = run(sys, initial, SchemeConfig(lam=0.25, t_end=0.5))
        assert trace.completed and trace.steps == 4
        assert np.array_equal(trace.snapshots[-1].data[0, 0, 0], values)


def totals(snapshot):
    """sum(u) h per component."""
    return snapshot.data.sum(axis=0) * snapshot.h[0]


def assert_totals_conserved(law, initial, lam):
    trace = run(law, initial, SchemeConfig(lam=lam, t_end=0.5))
    assert trace.completed
    u0 = initial.data
    scale = np.maximum(np.abs(u0).max(axis=0), np.abs(law.flux[0](u0)).max(axis=0))
    # rounding of a few operations per cell and step, plus the sums themselves
    tol = 8.0 * np.finfo(float).eps * (trace.steps + 1) * len(u0) * scale * initial.h[0]
    start = totals(initial)
    for snap in trace.snapshots:
        # at least a few ulps of the totals, which is all that sums of
        # subnormal values resolve
        floor = 4.0 * np.spacing(np.maximum(np.abs(start), np.abs(totals(snap))))
        assert np.all(np.abs(totals(snap) - start) <= np.maximum(tol, floor))


class TestConservation:
    @settings(deadline=None, max_examples=25)
    @given(mean=st.floats(-0.4, 0.4),
           amplitudes=st.lists(st.floats(-0.15, 0.15), min_size=1, max_size=3),
           phase=st.floats(0.0, 2.0 * np.pi), cells=st.integers(4, 96))
    @example(mean=0.0, amplitudes=[0.0, 2.225073858507e-311], phase=4.46115022236716,
             cells=94)
    def test_periodic_burgers_keeps_its_total(self, mean, amplitudes, phase, cells):
        law, _ = burgers_law()
        grid = grid_1d(cells)
        x = grid.centers(0)
        u = mean + sum(a * np.sin(np.pi * (i + 1) * x + phase)
                       for i, a in enumerate(amplitudes))
        assert_totals_conserved(law, grid.with_data(u[:, None]), lam=0.5)

    @settings(deadline=None, max_examples=25)
    @given(amplitudes=st.tuples(*[st.floats(-0.2, 0.2)] * 3),
           phase=st.floats(0.0, 2.0 * np.pi), cells=st.integers(4, 96))
    def test_periodic_euler_keeps_its_totals(self, amplitudes, phase, cells):
        law = euler_conservative_1d(1.4)
        grid = grid_1d(cells, m=3)
        wave = np.sin(np.pi * grid.centers(0) + phase)
        a_rho, a_v, a_p = amplitudes
        data = euler_primitive_to_conservative(
            1.4, 1.0 + a_rho * wave, a_v * wave, 1.0 + a_p * wave)
        assert_totals_conserved(law, grid.with_data(data), lam=0.4)


def contraction(mat, du):
    """The per-cell contraction summed from zero, as einsum computes it."""
    return np.einsum("AB,...B->...A", mat, du)


def layered(mat, du):
    return apply_layers(single_entry_layers(mat), du)


# coefficient and state entries: signs, general values, signed zeros,
# subnormals and the extremes of the exponent range
SPECIAL = [1.0, -1.0, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300]
ENTRIES = st.one_of(st.sampled_from(SPECIAL),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True))


@st.composite
def sparse_matrices(draw, max_per_row):
    """(m, m) matrices with at most ``max_per_row`` nonzeros in each row."""
    m = draw(st.integers(1, 7))
    mat = np.zeros((m, m))
    for row in mat:
        cols = draw(st.lists(st.integers(0, m - 1), unique=True,
                             max_size=min(max_per_row, m)))
        row[cols] = [draw(ENTRIES) for _ in cols]
    return mat


@st.composite
def matrix_and_state(draw, max_per_row):
    mat = draw(sparse_matrices(max_per_row))
    batch = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    du = draw(hnp.arrays(float, batch + mat.shape[:1], elements=ENTRIES))
    return mat, du


def first_term_matmul(a, b, out=None):
    """a @ b of 2-D arrays summed from the first term, not from +0, so an
    exact -0 product stays -0.  A BLAS may sum either way; numpy's OpenBLAS
    build sums from +0 and returns +0 there."""
    terms = a[:, :, None] * b[None]
    acc = terms[:, 0]
    for k in range(1, b.shape[0]):
        acc = acc + terms[:, k]
    if out is None:
        return acc
    out[...] = acc
    return out


# signed zeros in about half the draws
ZERO_HEAVY = st.one_of(st.sampled_from([0.0, -0.0]), ENTRIES)


@st.composite
def sourceless_cases(draw):
    """(system, state, WINDOW_BYTES): a constant system without a source,
    n = 1-3 and m = 1-4, a state with many signed zeros, and a window
    budget from one row a window up to the whole grid."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    mats = [draw(hnp.arrays(float, (m, m), elements=ZERO_HEAVY)) for _ in range(n)]
    sys = SystemDef(n=n, m=m, coeff=tuple(map(MatrixField.constant, [np.eye(m)] + mats)))
    shape = draw(st.tuples(*[st.integers(1, 5)] * n))
    grid = GridField.zeros(shape, draw(st.sampled_from([0.125, 0.1])), 0.0, m,
                           draw(st.sampled_from(["periodic", "outflow"])))
    data = draw(hnp.arrays(float, grid.data.shape, elements=ZERO_HEAVY))
    return sys, grid.with_data(data), draw(st.sampled_from([8, 64, 256, 10 ** 12]))


class TestLayeredProduct:
    def test_layers_hold_one_entry_per_row_in_column_order(self):
        mat = np.array([[0.0, 2.0, 0.0, 3.0], [0.0] * 4, [4.0, 5.0, 6.0, 0.0],
                        [0.0, 0.0, 0.0, 7.0]])
        layers = single_entry_layers(mat)
        assert layers.shape == (3, 4, 4)
        assert np.array_equal(layers.sum(axis=0).T, mat)
        assert all(np.count_nonzero(layer, axis=0).max() <= 1 for layer in layers)
        assert layers[0, 1, 0] == 2.0 and layers[1, 3, 0] == 3.0
        assert [layers[s, s, 2] for s in range(3)] == [4.0, 5.0, 6.0]
        assert single_entry_layers(np.zeros((3, 3))).shape == (1, 3, 3)

    @settings(deadline=None, max_examples=300)
    @given(case=matrix_and_state(max_per_row=2))
    def test_equals_the_contraction_bit_for_bit(self, case):
        mat, du = case
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            expected, got = contraction(mat, du), layered(mat, du)
        assert got.shape == du.shape
        assert got.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(case=matrix_and_state(max_per_row=7))
    def test_longer_rows_sum_left_to_right(self, case):
        mat, du = case
        expected = np.empty_like(du)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for a, row in enumerate(mat):
                cols = np.flatnonzero(row)
                acc = row[cols[0]] * du[..., cols[0]] if len(cols) else np.zeros(du.shape[:-1])
                for c in cols[1:]:
                    acc = acc + row[c] * du[..., c]
                expected[..., a] = acc + 0.0
            got = layered(mat, du)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cells_spread_as_in_the_contraction(self, bad):
        mats = [maxwell_system()[0].coeff[j].const for j in (1, 2, 3)] + [
            np.array([[0.0, 1.5, 0.0, -2.0], [0.0] * 4, [0.7, 0.0, 0.0, 0.0],
                      [0.0, 0.0, -3.0, 0.25]])]
        for mat in mats:
            m = mat.shape[0]
            du = RNG.standard_normal((4, 3, m))
            du[1, 2, RNG.integers(m)] = bad
            du[3, 0, RNG.integers(m)] = bad
            with np.errstate(invalid="ignore"):
                expected, got = contraction(mat, du), layered(mat, du)
            assert np.array_equal(np.isfinite(got), np.isfinite(expected))
            assert not np.isfinite(got[1, 2]).any() and not np.isfinite(got[3, 0]).any()
            # a NaN stays NaN; an inf meets zero entries of another layer
            assert np.isnan(got[np.isnan(expected)]).all()
            if np.isnan(bad):
                assert np.array_equal(np.isnan(got), np.isnan(expected))
            finite = np.isfinite(expected)
            assert got[finite].tobytes() == expected[finite].tobytes()

    def test_out_and_spare_must_be_c_contiguous(self):
        # an F-ordered out was reshaped into a copy, which took the writes
        layers = single_entry_layers(np.array([[0.0, 1.0], [2.0, 0.0]]))
        du = np.arange(8).reshape(2, 2, 2)
        with pytest.raises(ValueError, match="out must be a C-contiguous array"):
            apply_layers(layers, du, out=np.zeros((2, 2, 2), order="F"))
        out = np.zeros((2, 2, 2))
        apply_layers(layers, du, out=out)
        assert out.ravel().tolist() == [1, 0, 3, 4, 5, 8, 7, 12]
        two = single_entry_layers(np.ones((2, 2)))
        for spare in (np.zeros((2, 2, 2), order="F"), np.zeros((2, 2, 4))[..., :2]):
            with pytest.raises(ValueError, match="spare must be a C-contiguous array"):
                apply_layers(two, du, spare=spare)

    def test_plus_zero_turns_a_negative_zero_product_positive(self):
        layers, du = single_entry_layers(np.array([[-1.0]])), np.zeros((3, 1))
        with mock.patch.object(np, "matmul", first_term_matmul):
            assert np.signbit(apply_layers(layers, du, plus_zero=False)).all()
            assert not np.signbit(apply_layers(layers, du)).any()

    @settings(deadline=None, max_examples=150)
    @given(case=sourceless_cases(), t=st.sampled_from([0.0, 0.3]), signed=st.booleans())
    def test_a_sourceless_rhs_needs_no_plus_zero(self, case, t, signed):
        # the sum starts from +0 and never holds -0, so the products'
        # + 0.0 changes no bit of the RHS, whichever sign the BLAS gives a
        # zero product
        sys, state, nbytes = case

        def keeps_plus_zero(layers, du, out=None, spare=None, plus_zero=True):
            assert plus_zero is False
            return apply_layers(layers, du, out, spare)

        with (budget(nbytes), np.errstate(over="ignore", invalid="ignore", under="ignore"),
              mock.patch.object(np, "matmul", first_term_matmul if signed else np.matmul)):
            got = system_rhs(sys)(t, state).copy()
            with mock.patch.object(lxf, "apply_layers", keeps_plus_zero):
                expected = system_rhs(sys)(t, state)
        assert got.tobytes() == expected.tobytes()

    def test_a_source_needs_the_plus_zero(self):
        # N = -0 and a product p = -0: N - (p + 0.0) = -0, but N - p = +0
        sys = SystemDef(n=1, m=1, coeff=(MatrixField.constant([[1.0]]),
                                         MatrixField.constant([[-1.0]])),
                        source=lambda x, u: np.full(np.shape(u), -0.0))
        state = GridField.zeros((4,), 0.125, 0.0, 1)

        def drops_plus_zero(layers, du, out=None, spare=None, plus_zero=True):
            assert plus_zero is True
            return apply_layers(layers, du, out, spare, plus_zero=False)

        with mock.patch.object(np, "matmul", first_term_matmul):
            assert np.signbit(system_rhs(sys)(0.0, state)).all()
            with mock.patch.object(lxf, "apply_layers", drops_plus_zero):
                assert not np.signbit(system_rhs(sys)(0.0, state)).any()

    @staticmethod
    def contraction_rhs(sys):
        """system_rhs with every constant M^j applied by the contraction."""
        def rhs(t, state):
            u = state.data
            x = state.points(t)
            target = np.array(sys.source(x, u), dtype=float) if sys.source else np.zeros_like(u)
            for j in range(sys.n):
                target -= contraction(sys.coeff[j + 1].const, centered_diff(state, j))
            return target
        return rhs

    @pytest.mark.parametrize("case", ["maxwell", "wave"])
    def test_runs_equal_a_contraction_stepper(self, case, monkeypatch):
        if case == "maxwell":
            sys, monitors = maxwell_system()
            grid = GridField.zeros((8, 8, 8), 1.0 / 8, 1.0 / 16, 6)
            initial = profiles.plane_wave(grid, [1.0, -0.5, 0.0, 0.3, 0.6, -0.2], [1, 2, 1])
            config = SchemeConfig(lam=0.25, t_end=0.25, output_stride=3)
        else:
            # a_j != 0: the last row of each M^j has two general nonzeros
            sys, monitor = wave_system(np.array([0.3, -0.15]), np.diag([1.3, 0.7]))
            monitors = [monitor]
            grid = GridField.zeros((24, 16), 1.0 / 16, 0.0, 4)
            initial = profiles.plane_wave(grid, [0.4, 1.0, -0.3, 0.7], [2, 1])
            config = SchemeConfig(lam=0.2, t_end=0.25, output_stride=4)
        assert all(c.const is not None for c in sys.coeff)
        layered_trace = run(sys, initial, config, monitors)
        monkeypatch.setattr(lxf, "system_rhs", self.contraction_rhs)
        reference = run(sys, initial, config, monitors)
        assert layered_trace.completed and layered_trace.steps == reference.steps > 4
        assert layered_trace.times == reference.times
        assert layered_trace.monitors == reference.monitors
        for a, b in zip(layered_trace.snapshots, reference.snapshots, strict=True):
            assert a.data.tobytes() == b.data.tobytes()

    def test_constant_fields_are_not_called_per_step(self, monkeypatch):
        calls = []
        original = MatrixField.__call__
        monkeypatch.setattr(MatrixField, "__call__",
                            lambda self, x, u: calls.append(self) or original(self, x, u))
        sys, _ = maxwell_system()
        grid = GridField.zeros((4, 4, 4), 0.25, 0.125, 6)
        initial = profiles.plane_wave(grid, [1.0] * 6, [1, 0, 0])
        rhs = system_rhs(sys)
        before = len(calls)
        rhs(0.0, initial)
        assert len(calls) == before

    def test_constant_m0_is_solved_against_every_cell(self):
        # a constant SPD M0 that is not the identity takes the stacked solve
        m = 3
        root = RNG.normal(size=(m, m))
        q = root @ root.T + m * np.eye(m)
        a = [(lambda s: s + s.T)(RNG.normal(size=(m, m))) for _ in range(2)]
        b = RNG.normal(size=(m, m))
        sys = LinearSystem(2, m, q, a, b=b).as_system()
        state = GridField.zeros((6, 5), 0.2, 0.1, m).with_data(RNG.normal(size=(6, 5, m)))
        got = system_rhs(sys)(0.3, state)
        diffs = [centered_diff(state, j) for j in range(2)]
        for cell in np.ndindex(state.shape):
            forcing = -b @ state.data[cell] - sum(a[j] @ diffs[j][cell] for j in range(2))
            assert np.max(np.abs(got[cell] - np.linalg.solve(q, forcing))) <= 1e-13


# diagonals: general positive values, subnormal, tiny and huge ones, and
# the non-positive or non-finite ones that must take the solve
DIAGONALS = [1.0, 0.1, 7.0, 5e-324, 2.5e-310, 1e-300, 1e300, 1.7976931348623157e308,
             np.inf, 0.0, -0.0, -1.0, -np.inf, np.nan]
# right-hand sides: signed zeros, subnormals, extremes and non-finite values
RHS_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -2.5e-310, 1e300, -1e300,
                     np.inf, -np.inf, np.nan]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True))


@st.composite
def m0_stacks(draw):
    """(stack, b): a stack of (m, m) matrices, m = 1-4, whose off-diagonal
    entries are signed zeros in half the draws and may be general values in
    the others, and right-hand sides b."""
    m = draw(st.integers(1, 4))
    batch = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=4))
    diagonal = draw(st.booleans())
    off = st.sampled_from([0.0, -0.0])
    if not diagonal:
        off = st.one_of(off, st.floats(-2.0, 2.0, allow_nan=False))
    stack = draw(hnp.arrays(float, batch + (m, m), elements=off))
    diag = draw(hnp.arrays(float, batch + (m,), elements=st.one_of(
        st.sampled_from(DIAGONALS), st.floats(1e-3, 1e3))))
    stack[..., np.arange(m), np.arange(m)] = diag
    b = draw(hnp.arrays(float, batch + (m,), elements=RHS_ENTRIES))
    return stack, b


def solve_or_error(mats, b):
    try:
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as spy:
            return stacked_solve(mats, b), spy.called
    except np.linalg.LinAlgError as exc:
        return exc, True


class TestStackedSolve:
    @settings(deadline=None, max_examples=400)
    @given(case=m0_stacks())
    def test_equals_the_lu_solve_bit_for_bit(self, case):
        stack, b = case
        try:
            expected = np.linalg.solve(stack, b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            expected = None
        got, solved = solve_or_error(stack, b)
        if expected is None:
            assert isinstance(got, np.linalg.LinAlgError)
            return
        # signed zeros and the place and payload of every NaN included
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        off_diagonal = stack.copy()
        np.einsum("...ii->...i", off_diagonal)[...] = 0.0
        if np.any(off_diagonal) or not np.all(np.einsum("...ii->...i", stack) > 0):
            assert solved

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_diagonal_stacks_are_divided(self, m):
        diag = RNG.uniform(0.5, 2.0, size=(5, 6, m))
        stack = np.zeros((5, 6, m, m))
        stack[..., np.arange(m), np.arange(m)] = diag
        b = RNG.standard_normal((5, 6, m))
        got, solved = solve_or_error(stack, b)
        assert not solved
        assert got.tobytes() == np.linalg.solve(stack, b[..., None])[..., 0].tobytes()

    def test_guard_failures_solve_the_whole_stack(self):
        stack = np.zeros((4, 2, 2))
        stack[:, [0, 1], [0, 1]] = 2.0
        b = np.ones((4, 2))
        cases = {"off-diagonal": (1, 0, 1), "diagonal": (2, 1, 1)}
        for name, idx in cases.items():
            bent = stack.copy()
            bent[idx] = 0.5 if name == "off-diagonal" else -2.0
            assert solve_or_error(bent, b)[1], name
        for bad in (-0.0, np.inf, np.nan):
            rhs = b.copy()
            rhs[3, 1] = bad
            assert solve_or_error(stack, rhs)[1], bad
        # a quotient that overflows
        tiny = stack.copy()
        tiny[0, 1, 1] = 1e-310
        rhs = b.copy()
        rhs[0, 1] = 1e300
        assert solve_or_error(tiny, rhs)[1]

    def test_euler_sh_m0_is_divided(self):
        state = np.stack([RNG.uniform(0.5, 2.0, (6, 5)), *RNG.standard_normal((2, 6, 5))], -1)
        m0 = euler_polytropic_sh(1.4, n=2).coeff[0](np.zeros((6, 5, 3)), state)
        b = RNG.standard_normal((6, 5, 3))
        got, solved = solve_or_error(m0, b)
        assert not solved
        assert got.tobytes() == np.linalg.solve(m0, b[..., None])[..., 0].tobytes()


def pressure_jump(cfl):
    """euler_sh in 1D, p 1 -> 0.1 at rest on 400 outflow cells, at
    lambda * a*(0) = cfl to t = 0.2."""
    grid = GridField.zeros((400,), 0.0025, 0.00125, 2, "outflow")
    initial = profiles.step(grid, [1.0, 0.0], [0.1, 0.0], jump_at=0.5)
    return (euler_polytropic_sh(1.4, n=1), initial,
            SchemeConfig(lam=cfl / np.sqrt(1.4), t_end=0.2))


class TestCflGuard:
    """The CFL bound lambda * a * n <= cfl_safety, checked on every cell at
    run start and, for a system with max_speed and a field that is not
    constant, after every step."""

    def test_guard_aborts_after_the_first_step(self):
        sys, initial, config = pressure_jump(0.6)
        trace = run(sys, initial, config)
        # c = sqrt(1.4) on the high-pressure side, where v = 0
        assert trace.a_star == np.sqrt(1.4)
        assert not trace.completed and trace.steps == 1
        event = trace.events[-1]
        assert {key: event[key] for key in ("event", "step", "cell", "component", "cfl_safety")} \
            == {"event": "abort", "step": 1, "cell": (200,), "component": None, "cfl_safety": 0.9}
        assert event["t"] == config.lam * initial.h[0]
        assert event["lambda_a_n"] == pytest.approx(1.150, abs=5e-4)
        assert trace.error == (f"lambda * a * n = {event['lambda_a_n']:.6g} exceeds "
                               "cfl_safety = 0.9 at cell (200,) after step 1")
        # the cell named is the fastest one after that step
        k = config.lam * initial.h[0]
        one = run(replace(sys, max_speed=None), initial, replace(config, t_end=k))
        speeds = sys.max_speed(one.snapshots[-1].data)
        assert int(np.argmax(speeds)) == 200
        assert event["lambda_a_n"] == config.lam * speeds.max()

    def test_guard_stops_the_run_before_the_state_leaves_the_box(self):
        sys, initial, config = pressure_jump(0.9)
        trace = run(sys, initial, config)
        assert trace.steps == 1 and trace.error.startswith("lambda * a * n = ")
        assert trace.events[-1]["cell"] == (200,)
        # without the guard the same run goes on until a pressure turns negative
        unguarded = run(replace(sys, max_speed=None), initial, config)
        assert unguarded.a_star == trace.a_star
        assert unguarded.error == "state outside box at cell (201,) component 0 after step 4"

    def test_stable_ratio_completes(self):
        sys, initial, config = pressure_jump(0.45)
        trace = run(sys, initial, config)
        assert trace.completed and trace.steps == 211 and trace.error is None

    def test_start_check_reads_every_cell(self):
        # the one fast cell is not among the sampled ones, which miss it
        sys = euler_polytropic_sh(1.4, n=1)
        state = profiles.constant(GridField.zeros((2000,), 0.0005, 0.00025, 2), [1.0, 0.0])
        fast = 1
        assert fast not in _sample_cells(state)
        state.data[fast, 1] = 2.0
        config = SchemeConfig(lam=0.5, t_end=0.01)
        assert 0.5 * max_char_speed(replace(sys, max_speed=None), state) < 0.9
        with pytest.raises(StabilityError, match=r"lambda \* a_star \* n = 1\.59"):
            lxf.check_stability(sys, state, config)
        assert lxf.check_stability(sys, state, replace(config, lam=0.25)) == 2.0 + np.sqrt(1.4)

    def test_cfl_inequality_has_its_relative_and_absolute_slack(self):
        for lam_a_n, cfl, exceeded in [(0.9, 0.9, False), (0.9 * (1 + 5e-10), 0.9, False),
                                       (0.9 * (1 + 2e-9), 0.9, True), (1e-12, 1e-300, False)]:
            assert lxf._exceeds_cfl(lam_a_n, cfl) is exceeded

    @pytest.mark.parametrize("build", [
        lambda: maxwell_system()[0],
        lambda: wave_system(np.zeros(2), np.eye(2))[0],
        lambda: burgers_law()[0],
        lambda: euler_conservative_1d(1.4),
    ], ids=["maxwell", "wave", "burgers", "euler_cons"])
    def test_constant_systems_and_laws_get_only_the_state_check(self, build):
        system = build()
        assert getattr(system, "max_speed", None) is None
        (guard,) = lxf._guards(system, SchemeConfig(lam=0.1, t_end=1.0))
        assert guard.func is lxf._state_violation

    def test_a_constant_system_with_max_speed_is_bounded_once(self):
        sys, _ = maxwell_system()
        calls = []
        bounded = replace(sys, max_speed=lambda u: calls.append(u.shape) or np.ones(u.shape[:-1]))
        grid = GridField.zeros((6, 6, 6), 1.0 / 6, 1.0 / 12, 6)
        trace = run(bounded, grid, SchemeConfig(lam=0.25, t_end=8 * 0.25 / 6))
        assert trace.completed and trace.steps == 8
        assert calls == [(6, 6, 6, 6)]
        assert trace.a_star == 1.0
        assert len(lxf._guards(bounded, SchemeConfig(lam=0.25, t_end=1.0))) == 1

    def test_state_check_comes_first(self):
        sys, _, _ = pressure_jump(0.45)
        guards = lxf._guards(sys, SchemeConfig(lam=0.1, t_end=1.0))
        assert [g.func for g in guards] == [lxf._state_violation, lxf._cfl_violation]


class TestModelCallableShapes:
    """``admissible`` and ``max_speed`` return one value per cell; any other
    shape is refused with the callable's name, not read as a cell."""

    def test_admissible_of_another_shape_is_named(self):
        # it aborted "at cell (0, 0) after step 0", two indices on a 1D grid
        initial = grid_1d(10).with_data(np.linspace(0.0, 1.0, 10)[:, None])
        config = SchemeConfig(lam=0.5, t_end=0.1)
        law = replace(burgers_law()[0], admissible=lambda u: u > 0.5)
        with pytest.raises(ValueError, match=re.escape(
                "admissible returned shape (10, 1), expected (...) = (10,)")):
            run(law, initial, config)
        trace = run(replace(law, admissible=lambda u: u[..., 0] > 0.5), initial, config)
        assert trace.error == "state outside box at cell (0,) after step 0"

    def test_max_speed_of_another_shape_is_named(self):
        # it aborted "at cell (200, 0) after step 1"; the cell is (200,)
        sys, initial, config = pressure_jump(0.6)
        wrapped = replace(sys, max_speed=lambda u: sys.max_speed(u)[..., None])
        message = re.escape("max_speed returned shape (400, 1), expected (...) = (400,)")
        with pytest.raises(ValueError, match=message):
            run(wrapped, initial, config)
        with pytest.raises(ValueError, match=message):
            lxf.check_stability(wrapped, initial, config)
        with pytest.raises(ValueError, match=message):
            lxf._cfl_violation(wrapped, config, initial)


def counted_points(monkeypatch):
    calls = []
    original = GridField.points
    monkeypatch.setattr(GridField, "points", lambda self, t: calls.append(t) or original(self, t))
    return calls


class TestPointsBuilt:
    def test_state_only_fields_build_no_points(self, monkeypatch):
        calls = counted_points(monkeypatch)
        grid = GridField.zeros((12, 10), 0.1, 0.05, 3, "outflow")
        data = np.zeros(grid.shape + (3,))
        data[..., 0] = RNG.uniform(0.5, 1.5, grid.shape)
        data[..., 1:] = 0.1 * RNG.standard_normal(grid.shape + (2,))
        sys = euler_polytropic_sh(1.4, n=2)
        assert all(c.state_only for c in sys.coeff)
        trace = run(sys, grid.with_data(data), SchemeConfig(lam=0.2, t_end=6 * 0.02))
        assert trace.completed and trace.steps == 6
        assert calls == []

    def test_a_source_gets_points_every_call(self, monkeypatch):
        calls = counted_points(monkeypatch)
        sys, _ = wave_system(np.zeros(2), np.eye(2))
        grid = GridField.zeros((12, 10), 0.1, 0.05, 4)
        data = RNG.standard_normal(grid.shape + (4,))
        trace = run(sys, grid.with_data(data), SchemeConfig(lam=0.2, t_end=6 * 0.02))
        assert trace.completed and trace.steps == 6
        # the sampled CFL speeds at t = 0, then one RHS call per step
        assert len(calls) == 7 and calls[0] == 0.0
