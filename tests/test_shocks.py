import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shsys import profiles
from shsys.entropy import ConservationLaw
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, run
from shsys.models import (advection_law, burgers_law,
                          euler_conservative_1d,
                          euler_primitive_to_conservative,
                          polynomial_scalar_law)
from shsys.shocks import (ResolutionError, entropy_admissible,
                          genuine_nonlinearity, rh_residual, rh_speed,
                          riemann_scalar, shock_candidate, shock_detect,
                          shock_speed_fit, viscous_limit_compare)

RNG = np.random.default_rng(9241)


def grid_1d(cells, extent=2.0, m=1, boundary="periodic"):
    h = extent / cells
    return GridField.zeros((cells,), h, -extent / 2 + h / 2, m, boundary)


class TestRhSpeed:
    def test_burgers_half(self):
        law, _ = burgers_law()
        assert rh_speed(law, 1.0, 0.0) == 0.5

    def test_burgers_unit(self):
        law, _ = burgers_law()
        assert rh_speed(law, 2.0, 0.0) == 1.0

    def test_linear_flux_gives_advection_speed(self):
        law, _ = advection_law(2.5)
        for ul, ur in [(1.0, 0.0), (-0.3, 0.7), (2.0, -2.0)]:
            assert rh_speed(law, ul, ur) == pytest.approx(2.5, abs=1e-14)

    def test_equal_states_rejected(self):
        law, _ = burgers_law()
        with pytest.raises(ValueError):
            rh_speed(law, 1.0, 1.0)

    def test_speed_between_characteristic_speeds_for_convex_flux(self):
        for _ in range(10):
            coeffs = [0.0, RNG.uniform(-1, 1), RNG.uniform(0.1, 1.0)]
            law, _ = polynomial_scalar_law(coeffs)
            ul, ur = sorted(RNG.uniform(-2, 2, size=2))
            if ur - ul < 1e-3:
                continue
            c = rh_speed(law, ul, ur)
            fp = lambda u: coeffs[1] + 2 * coeffs[2] * u
            assert fp(ul) <= c + 1e-12
            assert c <= fp(ur) + 1e-12


class TestRhResidual:
    def test_consistent_speed_gives_zero(self):
        law, _ = burgers_law()
        for ul, ur in [(1.0, 0.0), (0.3, -0.9), (2.0, 1.0)]:
            c = rh_speed(law, ul, ur)
            assert np.allclose(rh_residual(law, [ul], [ur], c), 0.0, atol=1e-15)

    def test_equal_states_any_speed(self):
        law = euler_conservative_1d(1.4)
        u = euler_primitive_to_conservative(1.4, 1.0, 0.2, 0.7)
        for c in (-1.0, 0.0, 3.0):
            assert np.allclose(rh_residual(law, u, u, c), 0.0)

    def test_wrong_speed_residual_value(self):
        law, _ = burgers_law()
        resid = rh_residual(law, [1.0], [0.0], 0.7)
        assert resid[0] == pytest.approx(0.2, abs=1e-15)


class TestEntropyAdmissible:
    def test_burgers_shock_production(self):
        law, pair = burgers_law()
        verdict = entropy_admissible(law, pair, [1.0], [0.0], 0.5)
        assert verdict.admissible
        assert verdict.production == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_expansion_shock_rejected(self):
        law, pair = burgers_law()
        verdict = entropy_admissible(law, pair, [0.0], [1.0], 0.5)
        assert not verdict.admissible
        assert verdict.production == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_trivial_jump(self):
        law, pair = burgers_law()
        verdict = entropy_admissible(law, pair, [0.7], [0.7], 1.3)
        assert verdict.admissible
        assert verdict.production == 0.0

    def test_candidate_bundles_residual_and_verdict(self):
        law, pair = burgers_law()
        cand = shock_candidate(law, pair, [1.0], [0.0], 0.5)
        assert np.allclose(cand.rh_residual, 0.0)
        assert cand.admissible
        assert cand.production == pytest.approx(-1.0 / 6.0, abs=1e-12)
        bad = shock_candidate(law, pair, [1.0], [0.0], 0.7)
        assert bad.rh_residual[0] == pytest.approx(0.2, abs=1e-15)


def isothermal_euler_law(c_sound=1.0):
    def flux(u):
        u = np.asarray(u, dtype=float)
        rho, q = u[..., 0], u[..., 1]
        return np.stack([q, q ** 2 / rho + c_sound ** 2 * rho], axis=-1)

    return ConservationLaw(n=1, m=2, flux=(flux,),
                           state_box=([0.2, -1.0], [3.0, 1.0]))


class TestGenuineNonlinearity:
    def test_burgers_unit_everywhere(self):
        law, _ = burgers_law()
        for u in (-1.5, 0.0, 2.0):
            assert genuine_nonlinearity(law, [u], 0) == pytest.approx(1.0, abs=1e-7)

    def test_linear_flux_degenerate(self):
        law, _ = advection_law(3.0)
        assert genuine_nonlinearity(law, [0.4], 0) == pytest.approx(0.0, abs=1e-8)

    def test_isothermal_acoustic_fields_nonlinear(self):
        law = isothermal_euler_law()
        for index in (0, 1):
            g = genuine_nonlinearity(law, [1.0, 0.0], index)
            assert abs(g) > 0.1

    def test_eigenvalue_collision_detected(self):
        def flux(u):
            return 2.0 * np.asarray(u, dtype=float)

        law = ConservationLaw(n=1, m=2, flux=(flux,),
                              state_box=(-np.ones(2), np.ones(2)))
        with pytest.raises(ValueError):
            genuine_nonlinearity(law, [0.0, 0.0], 0)


class TestRiemannScalar:
    def test_burgers_shock(self):
        law, pair = burgers_law()
        sol = riemann_scalar(law, 1.0, 0.0, pair=pair)
        assert sol.kind == "shock"
        assert sol.speed == 0.5
        assert np.allclose(rh_residual(law, [1.0], [0.0], sol.speed), 0.0)
        assert entropy_admissible(law, pair, [1.0], [0.0], sol.speed).admissible
        assert sol(np.array([0.49]))[0] == 1.0
        assert sol(np.array([0.51]))[0] == 0.0

    def test_burgers_rarefaction_is_clamped_similarity_variable(self):
        law, pair = burgers_law()
        sol = riemann_scalar(law, 0.0, 1.0, pair=pair)
        assert sol.kind == "rarefaction"
        xi = np.linspace(-0.5, 1.5, 41)
        assert np.allclose(sol(xi), np.clip(xi, 0.0, 1.0), atol=1e-10)

    def test_equal_states_constant(self):
        law, _ = burgers_law()
        sol = riemann_scalar(law, 3.0, 3.0)
        assert sol.kind == "constant"
        assert np.all(sol(np.linspace(-1, 1, 5)) == 3.0)

    def test_never_a_shock_for_increasing_data(self):
        law, pair = burgers_law()
        for _ in range(10):
            ul, ur = sorted(RNG.uniform(-2, 2, size=2))
            sol = riemann_scalar(law, ul, ur, pair=pair)
            assert sol.kind in ("rarefaction", "constant")

    # convex quartic fluxes f = c0 + c1 u + c2 u^2 + c4 u^4 (c2 > 0, c4 >= 0)
    @settings(max_examples=60, deadline=None)
    @given(c0=st.floats(-2.0, 2.0), c1=st.floats(-2.0, 2.0),
           c2=st.floats(0.1, 2.0), c4=st.floats(0.0, 1.0),
           ur=st.floats(-2.0, 1.95), jump=st.floats(0.05, 4.0))
    @example(c0=0.0, c1=0.0, c2=0.5, c4=0.0, ur=-1.0, jump=1.5)  # Burgers
    def test_lax_inequalities_for_random_shocks(self, c0, c1, c2, c4, ur, jump):
        law, pair = polynomial_scalar_law([c0, c1, c2, 0.0, c4])
        ul = min(ur + jump, 2.0)
        sol = riemann_scalar(law, ul, ur, pair=pair)
        assert sol.kind == "shock"
        # characteristics impinge: f'(ur) < c < f'(ul)
        slope_r, slope_l = law.jacobian(0, np.array([[ur], [ul]]))[:, 0, 0]
        assert slope_r < sol.speed < slope_l
        assert entropy_admissible(law, pair, [ul], [ur], sol.speed).production <= 0.0

    def test_nonconvex_flux_rejected(self):
        law, _ = polynomial_scalar_law([0.0, 0.0, 0.0, 1.0])  # f = u^3
        with pytest.raises(ValueError):
            riemann_scalar(law, -1.0, 1.0)


class TestShockDetect:
    def test_smooth_data_clean(self):
        grid = grid_1d(200)
        field = profiles.plane_wave(grid, 1.0, 1)
        assert shock_detect(field, threshold=0.2) == []

    def test_exact_step(self):
        grid = grid_1d(100)
        field = profiles.step(grid, 1.0, 0.0)
        found = shock_detect(field)
        assert len(found) == 1
        pos, jump = found[0]
        assert abs(pos) <= grid.h[0]
        assert jump == pytest.approx(-1.0)

    def test_lxf_burgers_shock_position(self):
        law, _ = burgers_law()
        grid = grid_1d(400)
        initial = profiles.step(grid, 1.0, 0.0)
        config = SchemeConfig(lam=0.9, t_end=0.4, output_stride=25)
        trace = run(law, initial, config)
        assert trace.completed
        found = shock_detect(trace.snapshots[-1])
        assert len(found) == 1
        pos, jump = found[0]
        assert abs(pos - 0.2) <= 2 * grid.h[0]
        assert jump == pytest.approx(-1.0, abs=0.05)

    def test_speed_fit_matches_jump_relation(self):
        law, _ = burgers_law()
        grid = grid_1d(400)
        initial = profiles.step(grid, 1.0, 0.0)
        config = SchemeConfig(lam=0.9, t_end=0.4, output_stride=25)
        trace = run(law, initial, config)
        speed, points = shock_speed_fit(trace)
        assert len(points) >= 5
        assert abs(speed - 0.5) <= 5 * grid.h[0] / 0.4


class TestEulerShockTube:
    def test_sod_type_run_feeds_the_jump_oracle(self):
        # no external reference values: the computed shock must satisfy its
        # own jump relation at the fitted speed
        gamma = 1.4
        law = euler_conservative_1d(gamma)
        cells, t_end = 400, 0.2
        grid = grid_1d(cells, m=3, boundary="outflow")
        h = grid.h[0]
        x = grid.centers(0)
        sod = euler_primitive_to_conservative(
            gamma, np.where(x < 0, 1.0, 0.125), np.zeros_like(x),
            np.where(x < 0, 1.0, 0.1))
        trace = run(law, grid.with_data(sod),
                    SchemeConfig(lam=0.5, t_end=t_end, output_stride=20))
        assert trace.completed

        # multi-component desk-scale jumps sit below the scalar default
        threshold = 0.15
        final = trace.snapshots[-1].data
        diffs = np.abs(final[1:] - final[:-1])
        ranges = np.maximum(1.0, final.max(axis=0) - final.min(axis=0))
        assert int(np.any(diffs > threshold * ranges, axis=-1).sum()) >= 2

        found = shock_detect(trace.snapshots[-1], threshold=threshold)
        assert found
        speed, points = shock_speed_fit(trace, threshold=threshold, t_min=0.05)
        assert len(points) >= 3
        pos = found[-1][0]
        i = int(round((pos - x[0]) / h))
        u_l, u_r = final[i - 12], final[i + 12]
        resid = rh_residual(law, u_l, u_r, speed)
        assert float(np.max(np.abs(resid))) <= 5 * h / t_end


class TestViscousLimit:
    def test_equal_states_distance_zero(self):
        law, pair = burgers_law()
        grid = grid_1d(64, extent=2.0, boundary="outflow")
        rows = viscous_limit_compare(law, pair, 0.5, 0.5, [0.2], grid, t=0.2)
        assert rows[0][1] <= 1e-12

    def test_resolution_guard(self):
        law, pair = burgers_law()
        grid = grid_1d(16, extent=2.0, boundary="outflow")  # h = 0.125
        with pytest.raises(ResolutionError):
            viscous_limit_compare(law, pair, 1.0, 0.0, [0.1], grid, t=0.2)

    def test_shock_distances_shrink_with_viscosity(self):
        law, pair = burgers_law()
        grid = grid_1d(320, extent=2.0, boundary="outflow")  # h = 1/160
        rows = viscous_limit_compare(law, pair, 1.0, 0.0, [0.1, 0.05, 0.025],
                                     grid, t=0.3)
        dists = [r[1] for r in rows]
        assert dists[1] <= dists[0] * 1.1
        assert dists[2] <= dists[1] * 1.1
