import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shsys import profiles
from shsys.entropy import ConservationLaw
from shsys import shocks
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, run
from shsys.models import (advection_law, burgers_law,
                          euler_conservative_1d,
                          euler_primitive_to_conservative,
                          polynomial_scalar_law)
from shsys.shocks import (ResolutionError, _spans, entropy_admissible,
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


def flags_and_strength(data, threshold):
    """shock_detect's flagged interfaces and per-interface strength."""
    diffs = data[1:] - data[:-1]
    ranges = np.maximum(1.0, data.max(axis=0) - data.min(axis=0))
    return (np.any(np.abs(diffs) > threshold * ranges, axis=-1),
            np.max(np.abs(diffs), axis=-1))


def loop_reference(snapshot, threshold):
    """shock_detect as three hand-stepped loops: flag clustering, then
    extension to the left and to the right of each cluster, never
    reconciled.  Returns (detections, spans); spans may overlap."""
    data = snapshot.data
    flagged, strength = flags_and_strength(data, threshold)
    centers_x = snapshot.centers(0)
    iface_x = 0.5 * (centers_x[1:] + centers_x[:-1])
    clusters = []
    i = 0
    while i < flagged.size:
        if not flagged[i]:
            i += 1
            continue
        j = i
        while j + 1 < flagged.size:
            ahead = flagged[j + 1:j + 3]
            if not ahead.any():
                break
            j += 1 + int(np.argmax(ahead))
        clusters.append([i, j])
        i = j + 1
    out, spans = [], []
    for lo, hi in clusters:
        floor = 0.1 * float(np.max(strength[lo:hi + 1]))
        while lo > 0:
            live = np.nonzero(strength[max(0, lo - 2):lo] >= floor)[0]
            if live.size == 0:
                break
            lo = max(0, lo - 2) + int(live[-1])
        while hi + 1 < strength.size:
            live = np.nonzero(strength[hi + 1:hi + 3] >= floor)[0]
            if live.size == 0:
                break
            hi = hi + 1 + int(live[0])
        spans.append((lo, hi))
        w = strength[lo:hi + 1]
        keep = w > 0
        pos = float(np.sum(iface_x[lo:hi + 1][keep] * w[keep]) / np.sum(w[keep]))
        jump = data[hi + 1] - data[lo]
        out.append((pos, jump if snapshot.m > 1 else float(jump[0])))
    return out, spans


def detections_bytes(found):
    return [(pos, np.asarray(jump).tobytes()) for pos, jump in found]


# u = 5 on 10 cells, a ramp whose last step is the largest, then u = 1 on
# 10 cells: the loops extend the two flag clusters over each other's
# interfaces and report the one jump twice
DUPLICATE = [5.0] * 10 + [4.0, 3.75, 3.5, 3.25, 1.25] + [1.0] * 10

snapshots_1d = st.integers(1, 2).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 5.0]) | st.floats(-5.0, 5.0),
             min_size=m, max_size=m), min_size=2, max_size=59))
thresholds = st.sampled_from([0.05, 0.1, 0.25, 0.5])


def snapshot_of(rows, h=0.1):
    data = np.asarray(rows, dtype=float)
    return GridField.zeros((len(data),), h, 0.0, data.shape[1]).with_data(data)


class TestShockDetectRunRule:
    def test_spans_that_share_an_interface_are_one_jump(self):
        field = snapshot_of([[u] for u in DUPLICATE])
        found, spans = loop_reference(field, threshold=0.2)
        assert found == [(1.21875, -4.0)] * 2 and spans[0] == spans[1]
        assert shock_detect(field, threshold=0.2) == [(1.21875, -4.0)]

    @settings(max_examples=300, deadline=None)
    @given(rows=snapshots_1d, threshold=thresholds)
    @example(rows=[[u] for u in DUPLICATE], threshold=0.2)
    def test_equals_the_loops_where_their_spans_are_disjoint(self, rows, threshold):
        field = snapshot_of(rows)
        found, spans = loop_reference(field, threshold)
        if all(a[1] < b[0] for a, b in zip(spans, spans[1:])):
            assert detections_bytes(shock_detect(field, threshold)) == detections_bytes(found)
        else:
            assert len(shock_detect(field, threshold)) < len(found)

    @settings(max_examples=300, deadline=None)
    @given(rows=snapshots_1d, threshold=thresholds)
    @example(rows=[[u] for u in DUPLICATE], threshold=0.2)
    def test_spans_share_no_interface_and_hold_each_flag_once(self, rows, threshold):
        flagged, strength = flags_and_strength(np.asarray(rows, dtype=float), threshold)
        spans = _spans(flagged, strength)
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        for i in np.flatnonzero(flagged):
            assert sum(lo <= i <= hi for lo, hi in spans) == 1


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

    @pytest.mark.parametrize("law, u_l, u_r", [
        (burgers_law((-6.0, 6.0))[0], 5.0, 0.0), (burgers_law((-6.0, 6.0))[0], -4.5, 1.0),
        (polynomial_scalar_law([0.0, -0.3, 0.0, 1.0], (0.0, 3.0))[0], 0.2, 1.7)])
    def test_step_size_takes_the_speed_of_the_end_states(self, monkeypatch, law, u_l, u_r):
        # |f'| of a convex flux peaks at u_l or u_r, so the speed of the
        # step data is the peak of |f'| on [u_l, u_r]
        configs = []
        monkeypatch.setattr(shocks, "run", lambda law, initial, config: (
            configs.append(config) or run(law, initial, config)))
        grid = grid_1d(40, extent=2.0, boundary="outflow")  # h = eps/4
        viscous_limit_compare(law, None, u_l, u_r, [0.2], grid, t=0.05)
        us = np.linspace(min(u_l, u_r), max(u_l, u_r), 65)
        a_max = float(np.max(np.abs(shocks._scalar_fprime(law)(us))))
        h = grid.h[0]
        # a_max > 4, so the hyperbolic bound is the smaller one
        assert h / (2.0 * a_max) < h ** 2 / (2.0 * 0.2)
        k = SchemeConfig.cfl_safety * min(h ** 2 / (2.0 * 0.2), h / (2.0 * a_max))
        assert [c.lam for c in configs] == [k / h]
        assert a_max == max(abs(shocks._scalar_fprime(law)(np.array([u_l, u_r]))))
