import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

from shsys import profiles
from shsys.core import is_sh, symmetry_residual, system_samples
from shsys.energy import energy
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, max_char_speed, run
from shsys.models import (burgers_law, ck_realify, euler_conservative_1d,
                          euler_conservative_to_primitive,
                          euler_polytropic_sh, euler_primitive_to_conservative,
                          euler_sound_speed, maxwell_system,
                          polynomial_scalar_law, tricomi_certificate_matrix, tricomi_system,
                          wave_system)

RNG = np.random.default_rng(1119)


class TestWaveSystem:
    def test_symmetrizer_makes_coefficients_symmetric(self):
        a_jk = np.array([[2.0, 0.3], [0.3, 1.0]])
        sys, _ = wave_system(np.array([0.1, -0.2]), a_jk)
        samples = system_samples(sys, -np.ones(4), np.ones(4), per_axis=2)
        assert np.max(symmetry_residual(sys, samples)) < 1e-14
        assert is_sh(sys, samples).is_sh

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_random_spd_coefficients_symmetric_hyperbolic(self, data, n):
        entries = st.floats(-3.0, 3.0, allow_subnormal=False)
        a_j = data.draw(hnp.arrays(float, (n,), elements=entries))
        b = data.draw(hnp.arrays(float, (n, n), elements=entries))
        a_jk = b @ b.T
        a_jk = 0.5 * (a_jk + a_jk.T) + 0.5 * np.eye(n)
        sys, _ = wave_system(a_j, a_jk)
        samples = system_samples(sys, -np.ones(n + 2), np.ones(n + 2), per_axis=2,
                                 x=data.draw(hnp.arrays(float, (n + 1,), elements=entries)))
        verdict = is_sh(sys, samples)
        assert np.all(verdict.residuals == 0.0)
        assert verdict.is_sh

    def test_non_pd_coefficients_rejected(self):
        with pytest.raises(ValueError):
            wave_system(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_data_keeps_monitor_zero(self):
        sys, monitor = wave_system(np.zeros(1), np.eye(1))
        grid = GridField.zeros((64,), 2 * np.pi / 64, 0.0, 3)
        trace = run(sys, grid, SchemeConfig(lam=0.9, t_end=0.5, output_stride=8),
                    monitors=[monitor])
        assert trace.completed
        assert all(v == 0.0 for _, v in trace.monitors["gradient_constraint"])

    def test_constraint_residual_first_order_at_fixed_time(self):
        sys, monitor = wave_system(np.zeros(1), np.eye(1))
        values = []
        for cells in (64, 128, 256):
            h = 2 * np.pi / cells
            grid = GridField.zeros((cells,), h, h / 2, 3)
            x = grid.centers(0)
            data = np.stack([np.sin(x), np.cos(x), -np.cos(x)], axis=-1)
            trace = run(sys, grid.with_data(data),
                        SchemeConfig(lam=0.9, t_end=1.0, output_stride=10 ** 9),
                        monitors=[monitor])
            assert trace.completed
            values.append(trace.monitors["gradient_constraint"][-1][1])
        orders = [np.log2(values[i] / values[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0


def oblique_maxwell_data(grid: GridField) -> np.ndarray:
    arg = 2 * np.pi * np.sum(grid.coords(), axis=-1)
    e0 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    b0 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
    return np.concatenate([np.sin(arg)[..., None] * e0,
                           np.sin(arg)[..., None] * b0], axis=-1)


class TestMaxwell:
    def test_vacuum_rest_state(self):
        sys, monitors = maxwell_system()
        grid = GridField.zeros((4, 4, 4), 0.25, 0.125, 6)
        trace = run(sys, grid, SchemeConfig(lam=0.2, t_end=0.2, output_stride=2),
                    monitors=monitors)
        assert trace.completed
        assert all(v == 0.0 for _, v in trace.monitors["div_e"])
        assert all(v == 0.0 for _, v in trace.monitors["div_b"])
        assert energy(trace.snapshots[-1], np.eye(6)) == 0.0

    def test_axis_plane_wave_keeps_exact_zero_divergence_initially(self):
        # E = (0, sin kx, 0), B = (0, 0, sin kx): no variation along y or z,
        # so the centered divergences vanish identically at t = 0
        sys, monitors = maxwell_system()
        grid = GridField.zeros((8, 8, 8), 1.0 / 8, 1.0 / 16, 6)
        x = grid.coords()[..., 0]
        data = np.zeros(grid.shape + (6,))
        data[..., 1] = np.sin(2 * np.pi * x)
        data[..., 5] = np.sin(2 * np.pi * x)
        field = grid.with_data(data)
        assert monitors[0].evaluate(field) == 0.0
        assert monitors[1].evaluate(field) == 0.0

    def test_oblique_wave_divergence_non_increasing(self):
        sys, monitors = maxwell_system()
        grid = GridField.zeros((8, 8, 8), 1.0 / 8, 1.0 / 16, 6)
        field = grid.with_data(oblique_maxwell_data(grid))
        trace = run(sys, field, SchemeConfig(lam=0.25, t_end=0.25, output_stride=2),
                    monitors=monitors)
        assert trace.completed
        for name in ("div_e", "div_b"):
            series = [v for _, v in trace.monitors[name]]
            assert series[0] > 0.0
            for prev, nxt in zip(series, series[1:]):
                assert nxt <= prev * (1.0 + 1e-12)

    def test_random_data_divergence_non_increasing(self):
        sys, monitors = maxwell_system()
        grid = GridField.zeros((8, 8, 8), 1.0 / 8, 1.0 / 16, 6)
        field = grid.with_data(RNG.normal(size=grid.shape + (6,)))
        trace = run(sys, field, SchemeConfig(lam=0.25, t_end=0.2, output_stride=1),
                    monitors=monitors)
        assert trace.completed
        for name in ("div_e", "div_b"):
            series = [v for _, v in trace.monitors[name]]
            for prev, nxt in zip(series, series[1:]):
                assert nxt <= prev * (1.0 + 1e-12)

    def test_current_source_enters_e_rows(self):
        sys, _ = maxwell_system(current=np.array([1.0, 0.0, 0.0]))
        out = sys.source(np.zeros(4), np.zeros(6))
        assert np.allclose(out, [-1, 0, 0, 0, 0, 0])

    def test_charge_density_enters_divergence_monitor(self):
        _, monitors = maxwell_system(rho=2.0)
        grid = GridField.zeros((4, 4, 4), 0.25, 0.125, 6)
        # zero fields against rho = 2: residual norm is 2 * sqrt(volume)
        assert monitors[0].evaluate(grid) == pytest.approx(2.0, rel=1e-12)
        assert monitors[1].evaluate(grid) == 0.0


class TestEulerPolytropic:
    def test_constant_state_is_stationary(self):
        sys = euler_polytropic_sh(1.4, n=1)
        grid = GridField.zeros((32,), 1.0 / 32, 1.0 / 64, 2)
        initial = profiles.constant(grid, [1.0, 0.0])
        trace = run(sys, initial, SchemeConfig(lam=0.5, t_end=0.2, output_stride=4))
        assert trace.completed
        assert np.allclose(trace.snapshots[-1].data, initial.data, atol=1e-14)

    def test_sh_on_positive_pressure_box(self):
        sys = euler_polytropic_sh(1.4, n=1)
        samples = system_samples(sys, [0.1, -3.0], [10.0, 3.0], per_axis=5)
        assert is_sh(sys, samples).is_sh

    def test_time_matrix_at_unit_state(self):
        sys = euler_polytropic_sh(1.4, n=3)
        m0 = sys.coeff[0](np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(m0, np.diag([1.0 / 1.4, 1.0, 1.0, 1.0]))

    def test_acoustic_speed_is_sound_speed(self):
        sys = euler_polytropic_sh(1.4, n=1)
        grid = GridField.zeros((8,), 0.125, 0.0625, 2)
        initial = profiles.constant(grid, [1.0, 0.0])
        a = max_char_speed(sys, initial)
        assert a == pytest.approx(np.sqrt(1.4), abs=1e-10)
        assert euler_sound_speed(1.4, 1.0) == pytest.approx(np.sqrt(1.4))

    def test_negative_pressure_aborts(self):
        sys = euler_polytropic_sh(1.4, n=1)
        grid = GridField.zeros((16,), 1.0 / 16, 1.0 / 32, 2)
        initial = profiles.constant(grid, [1.0, 0.0])
        data = initial.data.copy()
        data[4, 0] = -1.0
        trace = run(sys, grid.with_data(data),
                    SchemeConfig(lam=0.1, t_end=0.1))
        assert not trace.completed
        assert trace.error == "state outside box at cell (4,) component 0 after step 0"


class TestEulerFormsAgree:
    def test_smooth_flow_profiles_match_to_first_order(self):
        gamma = 1.4
        errors = []
        for cells in (100, 200):
            h = 1.0 / cells
            x = np.arange(cells) * h + h / 2
            p0 = 1.0 + 0.2 * np.sin(2 * np.pi * x)
            v0 = 0.1 * np.sin(2 * np.pi * x)
            rho0 = p0 ** (1.0 / gamma)

            sys = euler_polytropic_sh(gamma, n=1)
            grid2 = GridField.zeros((cells,), h, h / 2, 2)
            sh_initial = grid2.with_data(np.stack([p0, v0], axis=-1))
            trace_sh = run(sys, sh_initial,
                           SchemeConfig(lam=0.5, t_end=0.1, output_stride=10 ** 9))
            assert trace_sh.completed

            law = euler_conservative_1d(gamma)
            grid3 = GridField.zeros((cells,), h, h / 2, 3)
            cons_initial = grid3.with_data(
                euler_primitive_to_conservative(gamma, rho0, v0, p0))
            trace_cons = run(law, cons_initial,
                             SchemeConfig(lam=0.5, t_end=0.1, output_stride=10 ** 9))
            assert trace_cons.completed

            p_sh = trace_sh.snapshots[-1].data[:, 0]
            v_sh = trace_sh.snapshots[-1].data[:, 1]
            _, v_c, p_c = euler_conservative_to_primitive(
                gamma, trace_cons.snapshots[-1].data)
            errors.append(float(np.sum(np.abs(p_sh - p_c) + np.abs(v_sh - v_c)) * h))
        assert errors[1] < errors[0]
        assert errors[0] < 0.05


class TestTricomi:
    def test_small_lambda_certificate_positive(self):
        _, cert = tricomi_system(0.1, 1.0)
        assert cert.positive
        assert cert.min_pivot > 0

    def test_zero_lambda_fails(self):
        _, cert = tricomi_system(0.0, 1.0)
        assert not cert.positive
        assert cert.min_pivot == pytest.approx(0.0, abs=1e-15)

    def test_large_lambda_fails_at_negative_y(self):
        from shsys.core import positive_definite
        _, cert = tricomi_system(10.0, 1.0)
        assert not cert.positive
        assert cert.min_pivot < 0
        # plug in y = -1: det = 10 (1/2 - 20) < 0
        lam, y = 10.0, -1.0
        det = lam / 2.0 + lam ** 2 * y - lam ** 2 * y ** 2
        assert det == pytest.approx(-195.0)
        assert not positive_definite(tricomi_certificate_matrix(lam, y))

    def test_negative_lambda_is_an_error(self):
        with pytest.raises(ValueError):
            tricomi_system(-0.5, 1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 10.0])
    def test_pivot_verdict_matches_determinant_sign(self, lam):
        from shsys.core import ldlt_pivots
        for y in np.linspace(-1.0, 1.0, 1001):
            mat = tricomi_certificate_matrix(lam, y)
            pivots_positive = bool(np.all(ldlt_pivots(mat) > 0))
            det = lam / 2.0 + lam ** 2 * y - lam ** 2 * y ** 2
            closed_form = (0.5 + lam * y > 0) and (det > 0)
            assert pivots_positive == closed_form

    def test_multiplied_coefficients(self):
        system, _ = tricomi_system(0.1, 1.0)
        pt = np.array([0.0, 0.7])
        assert np.allclose(system.a1(pt, None), [[0.7, 0.7], [0.7, 1.0]])
        assert np.allclose(system.a2(pt, None), [[-0.7, -1.0], [-1.0, -1.0]])
        assert np.allclose(system.b(pt, None), 0.1 * np.array([[0.7, 0.7],
                                                               [0.7, 1.0]]))


class TestCkRealify:
    def test_random_complex_matrices_realify_symmetric(self):
        for _ in range(20):
            mc = int(RNG.integers(1, 4))
            a = RNG.normal(size=(mc, mc)) + 1j * RNG.normal(size=(mc, mc))
            sys, _ = ck_realify(a)
            samples = [(np.zeros(3), np.zeros(2 * mc))]
            assert np.max(symmetry_residual(sys, samples)) <= 1e-12
            assert is_sh(sys, samples).is_sh

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), mc=st.integers(1, 3), batched=st.booleans())
    def test_realified_is_symmetric_hyperbolic(self, data, mc, batched):
        entries = st.floats(-4.0, 4.0, allow_subnormal=False)
        parts = [data.draw(hnp.arrays(float, (3, mc, mc), elements=entries)) for _ in range(2)]
        coeffs = parts[0] + 1j * parts[1]  # A(x) = A0 + x1 A1 + x2 A2
        x = data.draw(hnp.arrays(float, (5, 3), elements=st.floats(-2.0, 2.0)))
        u = data.draw(hnp.arrays(float, (5, 2 * mc), elements=st.floats(-2.0, 2.0)))
        if batched:
            def a(pt):
                return (coeffs[0] + pt[..., 0, None, None] * coeffs[1]
                        + pt[..., 1, None, None] * coeffs[2])
            size = float(np.max(np.abs(a(x[:, 1:]))))
        else:
            a = coeffs[0]
            size = float(np.max(np.abs(a)))
        sys, _ = ck_realify(a)
        verdict = is_sh(sys, list(zip(x, u)))
        assert np.max(verdict.residuals) <= 1e-12 * max(1.0, size)
        assert verdict.is_sh

    def test_imaginary_coefficient_moves_along_y(self):
        sys, _ = ck_realify(np.array([[1j]]))
        assert np.allclose(sys.coeff[1].const, np.zeros((2, 2)))
        assert np.allclose(sys.coeff[2].const, -np.eye(2))

    def test_real_coefficient_moves_along_x(self):
        sys, _ = ck_realify(np.array([[2.0 + 0j]]))
        assert np.allclose(sys.coeff[1].const, -2.0 * np.eye(2))
        assert np.allclose(sys.coeff[2].const, np.zeros((2, 2)))

    def test_zero_data_stays_zero(self):
        sys, monitor = ck_realify(np.array([[1.0 + 0j]]))
        grid = GridField.zeros((16, 16), 0.125, 0.0625, 2, boundary="outflow")
        trace = run(sys, grid, SchemeConfig(lam=0.4, t_end=0.2, output_stride=2),
                    monitors=[monitor])
        assert trace.completed
        assert all(v == 0.0 for _, v in trace.monitors["cauchy_riemann"])
        assert np.all(trace.snapshots[-1].data == 0.0)

    def test_linear_analytic_data_translates_exactly_in_the_interior(self):
        # u0(z) = z is linear, so averaging and centered differences are
        # exact; only boundary contamination (one cell per step) deviates
        a = 1.0
        sys, monitor = ck_realify(np.array([[a + 0j]]))
        cells = 40
        h = 2.0 / cells
        grid = GridField.zeros((cells, cells), h, (-1 + h / 2, -1 + h / 2), 2,
                               boundary="outflow")
        coords = grid.coords()
        data = np.stack([coords[..., 0], coords[..., 1]], axis=-1)
        lam = 0.45
        steps = 4
        t_end = steps * lam * h
        trace = run(sys, grid.with_data(data),
                    SchemeConfig(lam=lam, t_end=t_end, output_stride=10 ** 9))
        assert trace.completed
        final = trace.snapshots[-1]
        margin = steps + 1
        window = (slice(margin, -margin), slice(margin, -margin))
        exact_re = coords[..., 0] + a * t_end
        assert np.allclose(final.data[window + (0,)], exact_re[window], atol=1e-12)
        assert np.allclose(final.data[window + (1,)], coords[window + (1,)],
                           atol=1e-12)

    def test_source_term_realified(self):
        sys, _ = ck_realify(np.array([[1.0 + 0j]]), b=np.array([2.0 + 3.0j]))
        out = sys.source(np.zeros(3), np.zeros(2))
        assert np.allclose(out, [2.0, 3.0])


class TestBurgersLawVectorization:
    def test_flux_matches_scalar_formula_on_batches(self):
        law, _ = burgers_law()
        u = RNG.normal(size=(5, 7, 1))
        assert np.allclose(law.flux[0](u), 0.5 * u ** 2)

    def test_exact_jacobian(self):
        law, _ = burgers_law()
        assert law.jacobian(0, np.array([0.7]))[0, 0] == pytest.approx(0.7)

    @settings(deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=5),
           hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=4),
                      elements=st.floats(allow_nan=True, allow_infinity=True)))
    @example([0.0, 0.0, 0.5], np.array([-0.0, np.nan, np.inf, -np.inf, 1e200]))
    def test_polynomial_flux_and_jacobian_equal_polyval(self, coeffs, x):
        law, pair = polynomial_scalar_law(coeffs)
        c = np.asarray(coeffs, dtype=float)
        dc = P.polyder(c)
        with np.errstate(invalid="ignore", over="ignore"):
            flux = law.flux[0](x[..., None])
            jac = law.jacobian(0, x[..., None])
            assert flux.shape == x.shape + (1,) and jac.shape == x.shape + (1, 1)
            assert flux.tobytes() == P.polyval(x, c)[..., None].tobytes()
            assert jac.tobytes() == P.polyval(x, dc)[..., None, None].tobytes()
            u0 = x.reshape(-1)[:1]
            assert law.jacobian(0, u0).tobytes() == np.array(
                [[P.polyval(float(u0[0]), dc)]]).tobytes()
            fc = P.polyint(np.concatenate([[0.0], 2.0 * dc]))
            assert np.array(pair.flux[0](u0)).tobytes() == np.array(
                float(P.polyval(float(u0[0]), fc))).tobytes()
