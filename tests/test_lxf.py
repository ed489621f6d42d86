from dataclasses import replace

import numpy as np
import pytest

from shsys import profiles
from shsys.energy import energy
from shsys.entropy import ConservationLaw
from shsys.grid import GridField
from shsys.lxf import (SchemeConfig, StabilityError, law_rhs, lxf_step,
                       max_char_speed, run, system_rhs, viscous_step)
from shsys.models import (advection_law, burgers_law, euler_conservative_1d,
                          euler_primitive_to_conservative, maxwell_system,
                          wave_system)

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

    def test_parabolic_bound_enforced(self):
        law, _ = burgers_law()
        grid = grid_1d(64)
        initial = grid.with_data(np.zeros((64, 1)))
        with pytest.raises(StabilityError):
            run(law, initial, SchemeConfig(lam=0.9, t_end=0.1, viscosity=1.0))

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
        assert trace.error == "state outside box"

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
