import math
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

from shsys import profiles
from shsys.core import characteristic_speeds, is_sh, operand, sample_box, symmetry_residual
from shsys.energy import energy
from shsys.grid import GridField, centered_diff, interior_mask, l2_norm
from shsys import models
from shsys.lxf import SchemeConfig, max_char_speed, run, system_rhs
from shsys.shocks import _scalar_fprime, riemann_scalar
from shsys.models import (ConstraintMonitor, burgers_law, ck_realify, euler_conservative_1d,
                          euler_conservative_to_primitive,
                          euler_polytropic_sh, euler_primitive_to_conservative,
                          euler_sound_speed, maxwell_system,
                          polynomial_scalar_law, tricomi_certificate_matrix, tricomi_system,
                          wave_system)

RNG = np.random.default_rng(1119)


class TestWaveSystem:
    def test_a_constant_a_j_must_hold_n_values(self):
        # a third entry on two axes used to be dropped without a word
        with pytest.raises(ValueError, match=r"a_j must have shape \(2,\), got \(3,\)"):
            wave_system(np.zeros(3), np.eye(2))
        with pytest.raises(ValueError, match=r"a_j must have shape \(1,\), got \(\)"):
            wave_system(0.0, np.eye(1))

    def test_symmetrizer_makes_coefficients_symmetric(self):
        a_jk = np.array([[2.0, 0.3], [0.3, 1.0]])
        sys, _ = wave_system(np.array([0.1, -0.2]), a_jk)
        x, u = np.zeros(sys.n + 1), sample_box(-np.ones(4), np.ones(4), per_axis=2)
        assert np.max(symmetry_residual(sys, x, u)) < 1e-14
        assert is_sh(sys, x, u).is_sh

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 3))
    def test_random_spd_coefficients_symmetric_hyperbolic(self, data, n):
        entries = st.floats(-3.0, 3.0, allow_subnormal=False)
        a_j = data.draw(hnp.arrays(float, (n,), elements=entries))
        b = data.draw(hnp.arrays(float, (n, n), elements=entries))
        a_jk = b @ b.T
        a_jk = 0.5 * (a_jk + a_jk.T) + 0.5 * np.eye(n)
        sys, _ = wave_system(a_j, a_jk)
        x = data.draw(hnp.arrays(float, (n + 1,), elements=entries))
        verdict = is_sh(sys, x, sample_box(-np.ones(n + 2), np.ones(n + 2), per_axis=2))
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


    def test_callable_rho_receives_the_cell_coordinates(self):
        seen = []
        _, monitors = maxwell_system(rho=lambda x: seen.append(x) or np.zeros(x.shape[:-1]))
        grid = GridField.zeros((4, 3, 2), 0.25, (0.125, -1.0, 2.0), 6)
        assert monitors[0].evaluate(grid) == 0.0
        assert len(seen) == 1 and seen[0].shape == (4, 3, 2, 3)
        assert np.array_equal(seen[0], grid.coords())

    def test_constant_rho_reads_no_coordinates(self, monkeypatch):
        _, monitors = maxwell_system(rho=2.0)
        grid = GridField.zeros((4, 4, 4), 0.25, 0.125, 6)
        monkeypatch.setattr(GridField, "coords", lambda self: pytest.fail("coords built"))
        assert monitors[0].evaluate(grid) == pytest.approx(2.0, rel=1e-12)

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
        states = sample_box([0.1, -3.0], [10.0, 3.0], per_axis=5)
        assert is_sh(sys, np.zeros(sys.n + 1), states).is_sh

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


@st.composite
def euler_states(draw):
    """(gamma, state (p, v)) with p in [1e-6, 1e6] and |v_j| <= 1e3, n = 1..3.

    Each v_j is 0 or at least 1e-90 in modulus: with entries near 1e-146
    beside entries of order 1, LAPACK's eigvalsh, which
    characteristic_speeds calls, returns eigenvalues off by up to 16 %
    (+-1.0 for +-0.861 on a 4 x 4 reduced matrix), which says nothing
    about max_speed."""
    n = draw(st.integers(1, 3))
    gamma = draw(st.sampled_from([1.01, 1.4, 5.0 / 3.0, 3.0]))
    p = draw(st.floats(1e-6, 1e6))
    component = st.floats(-1e3, 1e3).filter(lambda x: x == 0.0 or abs(x) >= 1e-90)
    v = draw(st.lists(component, min_size=n, max_size=n))
    return gamma, np.array([p, *v])


class TestEulerMaxSpeed:
    """max_speed = |v| + c bounds |characteristic_speeds| along every unit
    normal and is reached along v."""

    @settings(max_examples=300, deadline=None)
    @given(euler_states(), st.data())
    def test_bounds_the_speeds_along_every_normal(self, case, data):
        gamma, u = case
        n = u.size - 1
        raw = data.draw(hnp.arrays(float, (8, n), elements=st.floats(-1.0, 1.0)))
        drawn = raw[np.linalg.norm(raw, axis=-1) > 1e-3]
        normals = np.concatenate([np.eye(n), drawn / np.linalg.norm(drawn, axis=-1, keepdims=True)])
        sys = euler_polytropic_sh(gamma, n=n)
        bound = sys.max_speed(u)
        assert bound.shape == ()
        speeds = characteristic_speeds(sys, np.zeros(n + 1), u, normals)
        assert np.all(np.abs(speeds) <= bound * (1.0 + 1e-12))

    @settings(max_examples=300, deadline=None)
    @given(euler_states())
    def test_is_reached_along_the_velocity(self, case):
        gamma, u = case
        assume(np.any(u[1:]))
        along = u[1:] / np.linalg.norm(u[1:])
        sys = euler_polytropic_sh(gamma, n=u.size - 1)
        top = np.max(np.abs(characteristic_speeds(sys, np.zeros(u.size), u, along)))
        assert top == pytest.approx(float(sys.max_speed(u)), rel=1e-12)

    def test_batched_over_cells(self):
        sys = euler_polytropic_sh(1.4, n=2)
        u = np.stack([RNG.uniform(0.5, 1.5, (5, 4)), *RNG.standard_normal((2, 5, 4))], -1)
        c = np.sqrt(1.4 * u[..., 0] / u[..., 0] ** (1.0 / 1.4))
        assert np.allclose(sys.max_speed(u), np.hypot(u[..., 1], u[..., 2]) + c,
                           rtol=1e-14, atol=0.0)


class TestEulerDensityCache:
    """rho = p^(1/gamma) is built once per RHS call and shared by M0 and
    every M^j; the one-entry cache is keyed on the dtype, shape and bytes
    of p."""

    @staticmethod
    def counted_pow(monkeypatch):
        calls = []
        original = models._libm_pow
        monkeypatch.setattr(models, "_libm_pow",
                            lambda p, e: calls.append(np.shape(p)) or original(p, e))
        return calls

    @staticmethod
    def state_2d(seed=0):
        rng = np.random.default_rng(seed)
        grid = GridField.zeros((10, 7), 0.1, 0.05, 3)
        data = np.empty(grid.shape + (3,))
        data[..., 0] = rng.uniform(0.5, 1.5, grid.shape)
        data[..., 1:] = 0.1 * rng.standard_normal(grid.shape + (2,))
        return grid.with_data(data)

    def test_one_pow_pass_per_rhs_call(self, monkeypatch):
        calls = self.counted_pow(monkeypatch)
        rhs = system_rhs(euler_polytropic_sh(1.4, n=2))
        state = self.state_2d()
        rhs(0.0, state)
        # M0, M^1 and M^2 share one pass, down from three
        assert calls == [(10, 7)]
        rhs(0.0, self.state_2d(seed=1))
        assert calls == [(10, 7)] * 2

    def test_buffer_overwritten_in_place_gets_a_fresh_rho(self, monkeypatch):
        calls = self.counted_pow(monkeypatch)
        rhs = system_rhs(euler_polytropic_sh(1.4, n=2))
        state = self.state_2d()
        first = rhs(0.0, state).copy()
        # run steps into the same two buffers, so the array object repeats
        state.data[..., 0] *= 1.25
        second = rhs(0.0, state)
        assert len(calls) == 2
        assert not np.array_equal(first, second)
        fresh = system_rhs(euler_polytropic_sh(1.4, n=2))(0.0, state)
        assert second.tobytes() == fresh.tobytes()

    def test_run_makes_one_pass_per_step_and_one_at_start(self, monkeypatch):
        # the CFL check at start and the guard after each step build rho;
        # each RHS call finds the one of its state in the cache
        calls = self.counted_pow(monkeypatch)
        trace = run(euler_polytropic_sh(1.4, n=2), self.state_2d(),
                    SchemeConfig(lam=0.2, t_end=16 * 0.2 * 0.1, output_stride=16))
        assert trace.completed and trace.steps == 16
        assert calls == [(10, 7)] * 17

    def test_equal_bytes_of_another_shape_do_not_collide(self):
        """A cache keyed on the bytes of p alone hands a rho of the wrong
        shape to a batch with the same values laid out otherwise; it broke
        test_row_windows.py::test_windowed_runs_equal_one_window_runs[euler_sh-*]
        and test_step_workspace.py::test_run_equals_allocating_steps[euler_sh-None]
        with a broadcast error."""
        sys = euler_polytropic_sh(1.4, n=1)
        u = np.stack([RNG.uniform(0.5, 1.5, (4, 6)), RNG.standard_normal((4, 6))], -1)
        for field in sys.coeff:
            mats = field(np.zeros((4, 6, 2)), u)
            for flat in (u.reshape(24, 2), u.reshape(6, 4, 2)):
                assert flat[..., 0].tobytes() == u[..., 0].tobytes()
                got = field(np.zeros(flat.shape), flat)
                assert got.shape == flat.shape[:-1] + (2, 2)
                assert got.tobytes() == mats.tobytes()


PRESSURE_EDGES = [1e-300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan]


def libm_pow(p, exponent):
    """math.pow applied to each element of p, in p's shape."""
    return np.array([math.pow(x, exponent) for x in np.ravel(p)]).reshape(np.shape(p))


class TestEulerDensityBits:
    """rho = p^(1/gamma) has math.pow's bits for every pressure, however
    the cells are batched, and math.pow's domain error on p < 0."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                      elements=st.floats(5e-324, 1.7976931348623157e308)
                      | st.sampled_from(PRESSURE_EDGES)),
           st.floats(1.0, 3.0, exclude_min=True), st.lists(st.integers(0, 6 ** 3), max_size=3))
    @example(np.array(PRESSURE_EDGES), 1.4, [3, 7])
    def test_libm_bits_whatever_the_batch(self, p, gamma, cuts):
        exponent = 1.0 / gamma
        want = libm_pow(p, exponent)
        assert models._libm_pow(p, exponent).tobytes() == want.tobytes()
        # contiguous chunks of the flat stack
        flat, flat_want = p.reshape(-1), want.reshape(-1)
        cuts = sorted(min(cut, flat.size) for cut in cuts)
        for lo, hi in zip([0] + cuts, cuts + [flat.size]):
            assert models._libm_pow(flat[lo:hi], exponent).tobytes() == flat_want[lo:hi].tobytes()
        # the strided pressure component of a state stack, as rho_of sees it
        u = np.stack([p, np.ones_like(p), -p], axis=-1)
        assert np.ascontiguousarray(models._libm_pow(u[..., 0], exponent)).tobytes() == (
            want.tobytes())
        # each cell alone, as a 0-d array
        for x, bits in zip(flat, flat_want):
            assert np.asarray(models._libm_pow(np.array(x), exponent)).tobytes() == (
                bits.tobytes())

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["m0", "m1", "m2"])
    def test_negative_pressure_is_a_domain_error(self, field):
        sys = euler_polytropic_sh(1.4, n=2)
        u = np.array([[1.0, 0.1, 0.2], [-0.5, 0.1, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="math domain error"):
                sys.coeff[field](np.zeros((2, 3)), u)
            # a failed pass caches nothing, so the other fields raise too
            for other in sys.coeff:
                with pytest.raises(ValueError, match="math domain error"):
                    other(np.zeros((2, 3)), u)


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
            x, u = np.zeros(3), np.zeros(2 * mc)
            assert np.max(symmetry_residual(sys, x, u)) <= 1e-12
            assert is_sh(sys, x, u).is_sh

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
        verdict = is_sh(sys, x, u)
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


SPECIAL_FLOATS = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e300, -2.5]


class TestHorner:
    """``models._horner`` returns what ``polyval`` returns, in value bits
    and in kind, for arrays, 0-d arrays, numpy and Python floats, with its
    coefficients as an array or as 0-d operands."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats() | st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=5),
           hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
                      elements=st.floats() | st.sampled_from(SPECIAL_FLOATS)),
           st.booleans())
    @example([np.nan], np.array(np.nan), True)
    @example([-np.nan, np.nan, 0.5], np.array([-np.nan, np.nan, -0.0, np.inf]), True)
    @example([-np.nan, np.nan, 0.5], np.array([[-np.nan, np.nan, -0.0, -np.inf]]), False)
    def test_equals_polyval_in_bits_and_kind(self, coeffs, x, held):
        c = np.asarray(coeffs, dtype=float)
        cs = tuple(map(operand, c)) if held else c
        before = x.tobytes()
        inputs = [x]
        if x.size:
            first = x.reshape(-1)[0]
            inputs += [np.array(first), first, float(first)]
        with np.errstate(all="ignore"):
            for arg in inputs:
                got, want = models._horner(cs, arg), P.polyval(arg, c)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert x.tobytes() == before

    def test_an_array_costs_one_new_array(self):
        x = RNG.normal(size=100_000)
        c = tuple(map(operand, [0.3, -1.0, 0.5, 2.0]))
        models._horner(c, x)
        tracemalloc.start()
        try:
            models._horner(c, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # polyval's expressions hold two new arrays at a time
        assert x.nbytes <= peak < 1.1 * x.nbytes

    def test_scalar_callers_in_shocks(self):
        law, pair = burgers_law()
        fprime = _scalar_fprime(law)
        assert float(fprime(0.25)) == 0.25
        assert fprime(np.array([-0.0, 0.5])).tolist() == [0.0, 0.5]
        fan = riemann_scalar(law, 0.0, 1.0, pair=pair)
        xi = np.array([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
        assert fan.kind == "rarefaction"
        assert np.allclose(fan(xi), np.clip(xi, 0.0, 1.0), atol=1e-12)
        shock = riemann_scalar(law, 1.0, 0.0, pair=pair)
        assert shock.kind == "shock" and shock.speed == 0.5


NEG_NAN = math.copysign(math.nan, -1.0)
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
               math.inf, -math.inf, math.nan, NEG_NAN, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.3e154, -1e200, 0.5, -2.5]
ZERO_COEFFS = st.sampled_from([0.0, -0.0])


def _same(got, want):
    """Equal in type, shape and value bits."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _law_polynomials(coeffs):
    """The four polynomials of ``polynomial_scalar_law(coeffs)`` and
    polyval's coefficients for each: f, f', F and F'."""
    c = np.asarray(coeffs, dtype=float)
    dc = P.polyder(c)
    fprime_shift = np.concatenate([[0.0], 2.0 * dc])
    law, pair = polynomial_scalar_law(coeffs)
    return law, pair, c, dc, P.polyint(fprime_shift), fprime_shift


class TestPolynomialShortForms:
    """Each polynomial of ``polynomial_scalar_law`` and ``models._polynomial``
    returns what ``polyval`` returns, in value bits, shape and type, on
    every input: the short form where it is finite, ``_horner`` elsewhere."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | ZERO_COEFFS, min_size=1, max_size=5),
           hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
                      elements=st.floats() | st.sampled_from(EDGE_FLOATS)))
    @example([0.0, 0.0, -1.0], np.array([0.0, -0.0]))
    @example([0.0, 0.0, 0.5], np.array([-5e-324, 1e200, math.inf, -math.inf]))
    @example([0.0, -2.0], np.array(-0.0))
    @example([0.0, -2.0], np.array([-0.0, 0.0]))
    @example([-0.0, 0.0, 0.5], np.array([[-0.0, 5e-324, -1e-200]]))
    @example([0.0, 1.0, 0.0, -0.25], np.array([-0.0, 1e103, NEG_NAN]))
    def test_every_polynomial_equals_polyval(self, coeffs, x):
        law, pair, c, dc, fc, fprime_shift = _law_polynomials(coeffs)
        u = x[..., None]
        with np.errstate(all="ignore"):
            _same(law.flux[0](u), P.polyval(x, c)[..., None])
            _same(law.flux_jac[0](u), P.polyval(x, dc)[..., None, None])
            # the pair's callables return arrays (``entropy._batched``)
            _same(pair.flux[0](u), np.asarray(P.polyval(x, fc)))
            _same(pair.flux_grad[0](u), P.polyval(u, fprime_shift))
            inputs = [x]
            if x.size:
                first = x.reshape(-1)[0]
                inputs += [np.array(first), first, float(first)]
            for a in (c, dc, fc, fprime_shift):
                value = models._polynomial(a)
                for arg in inputs:
                    _same(value(arg), P.polyval(arg, a))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | ZERO_COEFFS, min_size=2, max_size=5),
           hnp.arrays(float, hnp.array_shapes(max_dims=2, max_side=4),
                      elements=st.floats() | st.sampled_from(EDGE_FLOATS)))
    @example([0.0, 0.0, 0.5], np.array([1e200, 0.5]))
    @example([0.0, 0.0, 0.5], np.array([math.inf, 0.5]))
    def test_a_short_form_raises_where_polyval_raises(self, coeffs, x):
        # its products are polyval's, and a non-finite x goes to _horner
        value = models._polynomial(np.asarray(coeffs, dtype=float))

        def raises(fn):
            try:
                with np.errstate(all="raise"):
                    fn()
            except FloatingPointError:
                return True
            return False

        assert raises(lambda: value(x)) == raises(lambda: P.polyval(x, coeffs))

    @pytest.mark.parametrize("coeffs, adds", [
        ([0.0, 0.0, 0.5], [False, False]),       # Burgers: (0.5 u) u
        ([0.0, 1.0], [True]),                    # u + 0 turns -0 into +0
        ([0.0, 0.0, -1.0], [True, False]),       # (-1 u) u is -0 at u = 0
        ([0.0, 0.0, 0.0, 2.0 / 3.0], [True, False, False]),   # odd: u^3 is -0 at -0
        ([-0.0, 0.0, 0.5], [False, True]),       # + (-0) changes no bit
        ([-0.0, -0.0, 0.5], [False, False]),
        ([0.0, 0.0, 0.0, 0.0, 2.0], [False] * 4),
        ([0.0, 1.0, 0.0, -0.25], [True, True, False]),
        ([1.0, 0.0, 0.0, 0.0, 3.0], [True, False, False, False]),
        ([2.0], None),
        ([1.0, 0.0], None),
    ])
    def test_short_forms(self, coeffs, adds):
        assert models._short_form(coeffs) == adds

    def test_a_finite_burgers_flux_needs_no_fallback(self, monkeypatch):
        law, _ = burgers_law()
        u = np.array([[-0.0], [0.5], [-3.0]])
        monkeypatch.setattr(models, "_horner", None)  # no fallback on finite values
        assert law.flux[0](u).tolist() == [[0.0], [0.125], [4.5]]

    @pytest.mark.parametrize("coeffs", [[0.0, 0.0, 0.5], [0.0, 1.0, 0.0, -0.25]])
    def test_a_short_form_costs_one_new_array(self, coeffs):
        law, _ = polynomial_scalar_law(coeffs)
        u = RNG.uniform(-1.0, 1.0, size=(100_000, 1))
        law.flux[0](u)
        tracemalloc.start()
        try:
            law.flux[0](u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u.nbytes <= peak < 1.1 * u.nbytes


class TestPolynomialCoefficients:
    @pytest.mark.parametrize("coeffs, name", [
        ([1e308, 1e308, 1e308], "flux Jacobian"),   # 2 * 1e308
        ([0.0, 1e308, 1e308], "flux Jacobian"),
        ([0.0, 1e308], "entropy flux"),         # F' = 2 u f' = 2e308 u
        ([0.5, math.nan], "flux"),
        ([math.inf], "flux"),
    ])
    def test_coefficients_that_are_not_finite_are_refused(self, coeffs, name):
        # with no numpy warning: every warning is an error here
        with pytest.raises(ValueError, match=f"^the {name} coefficients .* are not finite$"):
            polynomial_scalar_law(coeffs)

    def test_the_largest_finite_coefficients_are_taken(self):
        law, pair = polynomial_scalar_law([1e308, 4e307, 2e307])
        assert law.flux[0](np.array([[0.0]])).tolist() == [[1e308]]
        assert pair.flux[0](np.array([[1.0]])).tolist() == [4e307 + 8e307 / 3.0]


def _masked_norm(field: GridField, residual) -> float:
    return l2_norm(field, residual, mask=interior_mask(field))


class TestConstraintMonitor:
    """Each shipped monitor is the interior-masked L2 norm of its residual
    field, bit for bit; the residuals below are spelled out by hand."""

    def test_wave_gradient_constraint_on_outflow_grid(self):
        _, monitor = wave_system(np.array([0.1, -0.2]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        field = GridField.zeros((7, 6), 0.125, 0.0, 4, boundary="outflow")
        field = field.with_data(RNG.normal(size=field.data.shape))
        u = field.data
        residual = np.stack([u[..., 1 + j] - centered_diff(field, j, u[..., 0])
                             for j in range(2)], axis=-1)
        assert monitor.evaluate(field) == _masked_norm(field, residual)

    def test_maxwell_divergences_on_outflow_grid(self):
        _, (div_e, div_b) = maxwell_system(rho=lambda x: x[..., 0] * x[..., 2])
        field = GridField.zeros((5, 6, 4), 0.25, 0.125, 6, boundary="outflow")
        field = field.with_data(RNG.normal(size=field.data.shape))
        u, x = field.data, field.coords()
        div = [sum(centered_diff(field, j, u[..., offset + j]) for j in range(3))
               for offset in (0, 3)]
        assert div_e.evaluate(field) == _masked_norm(field, div[0] - x[..., 0] * x[..., 2])
        assert div_b.evaluate(field) == _masked_norm(field, div[1])

    @settings(max_examples=40, deadline=None)
    @given(data=hnp.arrays(float, (4, 3, 5, 6), elements=st.sampled_from([-0.0, 0.0, 1.5])
                           | st.floats(-4.0, 4.0)),
           boundary=st.sampled_from(["periodic", "outflow"]),
           rho=st.sampled_from([None, 0.0, 2.0]))
    @example(data=np.full((4, 3, 5, 6), -0.0), boundary="periodic", rho=None)
    def test_maxwell_divergences_equal_a_sum_from_zero(self, data, boundary, rho):
        # the three differences are added directly: 0 + d0 would only turn
        # -0 into +0, which the norm squares away
        _, monitors = maxwell_system(rho=rho)
        field = GridField.zeros((4, 3, 5), 0.25, 0.0, 6, boundary=boundary).with_data(data)
        mask = None if boundary == "periodic" else interior_mask(field)
        for monitor, offset in zip(monitors, (0, 3)):
            div = sum(centered_diff(field, j, data[..., offset + j]) for j in range(3))
            if offset == 0 and rho is not None:
                div = div - rho
            assert monitor.evaluate(field) == l2_norm(field, div, mask=mask)

    def test_cauchy_riemann_on_outflow_grid(self):
        _, monitor = ck_realify(np.array([[1.0 + 0.5j, 0.0], [0.2j, 2.0]]))
        field = GridField.zeros((6, 5), 0.25, 0.0, 4, boundary="outflow")
        field = field.with_data(RNG.normal(size=field.data.shape))
        parts = []
        for comp in range(2):
            re, im = field.data[..., comp], field.data[..., 2 + comp]
            d_x = centered_diff(field, 0, re) + 1j * centered_diff(field, 0, im)
            d_y = centered_diff(field, 1, re) + 1j * centered_diff(field, 1, im)
            resid = d_x + 1j * d_y
            parts.extend([resid.real, resid.imag])
        assert monitor.evaluate(field) == _masked_norm(field, np.stack(parts, axis=-1))

    def test_a_periodic_grid_builds_no_mask(self, monkeypatch):
        # its mask is all True, and multiplying by it changes no bit
        _, monitors = maxwell_system()
        field = GridField.zeros((5, 6, 4), 0.25, 0.125, 6)
        data = RNG.normal(size=field.data.shape)
        data[RNG.random(data.shape) < 0.3] = -0.0
        field = field.with_data(data)
        expected = [_masked_norm(field, mon.fn(field)) for mon in monitors]
        monkeypatch.setattr(models, "interior_mask", lambda f: pytest.fail("mask built"))
        assert [mon.evaluate(field) for mon in monitors] == expected

    def test_div_e_without_rho_subtracts_nothing(self):
        # x - 0.0 is x bit for bit, signed zeros included
        _, (div_e, _) = maxwell_system()
        field = GridField.zeros((4, 3, 5), 0.25, 0.125, 6, boundary="outflow")
        data = RNG.normal(size=field.data.shape)
        data[RNG.random(data.shape) < 0.5] = -0.0
        field = field.with_data(data)
        div = sum(centered_diff(field, j, field.data[..., j]) for j in range(3))
        assert div_e.fn(field).tobytes() == (div - 0.0).tobytes()
        assert div_e.evaluate(field) == _masked_norm(field, div - 0.0)

    @pytest.mark.parametrize("fn", [
        lambda f: 1.0,                                   # the old float contract
        lambda f: f.data[1:, :, 0],                      # one row short
        lambda f: f.data[..., None],                     # two component axes
    ])
    def test_residual_not_shaped_like_the_grid_raises(self, fn):
        field = GridField.zeros((4, 3), 0.25, 0.0, 2)
        with pytest.raises(ValueError, match=r"monitor 'bad'.*expected \(4, 3\)"):
            ConstraintMonitor("bad", fn).evaluate(field)
