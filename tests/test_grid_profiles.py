import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shsys import profiles
from shsys.grid import (GridField, centered_diff, interior_mask, l2_norm,
                        neighbour_difference, second_difference, shift_into,
                        shifted)


def grid_1d(cells, extent=2.0, m=1, boundary="periodic"):
    h = extent / cells
    return GridField.zeros((cells,), h, -extent / 2 + h / 2, m, boundary)


class TestGridField:
    def test_data_shape_enforced(self):
        with pytest.raises(ValueError):
            GridField(n=1, shape=(4,), h=(0.5,), origin=(0.0,), m=2,
                      data=np.zeros((4, 3)))

    def test_boundary_mode_validated(self):
        with pytest.raises(ValueError):
            GridField.zeros((4,), 0.5, 0.0, 1, boundary="reflect")

    @pytest.mark.parametrize("h, origin", [
        (np.inf, 0.0), (np.nan, 0.0), ((0.5, np.inf), 0.0),
        (0.5, (0.0, np.nan)), (0.5, (-np.inf, 0.0))])
    def test_nonfinite_spacing_or_origin_rejected(self, h, origin):
        with pytest.raises(ValueError, match="spacing and origin must be finite"):
            GridField.zeros((4, 3), h, origin, 1)

    def test_centers_and_coords(self):
        g = GridField.zeros((3, 2), (1.0, 0.5), (0.0, 10.0), 1)
        assert np.allclose(g.centers(0), [0.0, 1.0, 2.0])
        assert np.allclose(g.centers(1), [10.0, 10.5])
        assert g.coords().shape == (3, 2, 2)
        assert np.allclose(g.coords()[2, 1], [2.0, 10.5])
        assert g.cell_volume() == 0.5

    def test_nonfinite_located_lexicographically(self):
        g = GridField.zeros((2, 2), 1.0, 0.0, 2)
        data = g.data.copy()
        data[1, 0, 1] = np.inf
        g = g.with_data(data)
        assert not g.is_finite()
        assert g.first_nonfinite() == (1, 0, 1)

    def test_is_finite_when_the_sum_overflows(self):
        g = GridField.zeros((2,), 1.0, 0.0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert g.with_data([[1e308], [1e308]]).is_finite()
            for bad in (np.nan, np.inf, -np.inf):
                assert not g.with_data([[1e308], [bad]]).is_finite()
            assert not g.with_data([[np.inf], [-np.inf]]).is_finite()

    def test_with_data_checks_shape_and_keeps_grid(self):
        g = GridField.zeros((3, 2), (1.0, 0.5), (0.0, 10.0), 2, boundary="outflow")
        with pytest.raises(ValueError, match=r"data shape \(3, 2\) does not match"):
            g.with_data(np.zeros((3, 2)))
        new = g.with_data(np.ones((3, 2, 2), dtype=int))
        assert new.data.dtype == float and new.data.sum() == 12.0
        assert (new.n, new.shape, new.h, new.origin, new.m, new.boundary) == (
            g.n, g.shape, g.h, g.origin, g.m, g.boundary)
        assert not g.data.any()


def roll_shift(data, axis, direction, boundary):
    """shifted() built from np.roll: periodic is the roll, outflow then
    puts the edge cell back."""
    ref = np.roll(data, -direction, axis=axis)
    if boundary == "outflow":
        idx = [slice(None)] * data.ndim
        idx[axis] = -1 if direction > 0 else 0
        ref[tuple(idx)] = data[tuple(idx)]
    return ref


class TestShifts:
    def test_periodic_wraps(self):
        data = np.arange(4.0)[:, None]
        out = shifted(data, 0, +1, "periodic")
        assert np.allclose(out[:, 0], [1, 2, 3, 0])
        out = shifted(data, 0, -1, "periodic")
        assert np.allclose(out[:, 0], [3, 0, 1, 2])

    def test_outflow_replicates_edges(self):
        data = np.arange(4.0)[:, None]
        out = shifted(data, 0, +1, "outflow")
        assert np.allclose(out[:, 0], [1, 2, 3, 3])
        out = shifted(data, 0, -1, "outflow")
        assert np.allclose(out[:, 0], [0, 0, 1, 2])

    @settings(deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=4, max_side=5),
                      elements=st.floats(-1e3, 1e3)))
    @example(np.arange(3.0).reshape(1, 3))
    @example(np.arange(4.0).reshape(2, 1, 2))
    def test_matches_roll_reference(self, data):
        # every spatial axis (the last axis holds components), length 1 included
        for axis in range(data.ndim - 1):
            for direction in (+1, -1):
                for boundary in ("periodic", "outflow"):
                    ref = np.roll(data, -direction, axis=axis)
                    if boundary == "outflow":
                        idx = [slice(None)] * data.ndim
                        idx[axis] = -1 if direction > 0 else 0
                        ref[tuple(idx)] = data[tuple(idx)]
                    out = shifted(data, axis, direction, boundary)
                    assert out.shape == data.shape
                    assert out.tobytes() == ref.tobytes()
                    assert not np.shares_memory(out, data)

    @settings(deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=4, max_side=3),
                      elements=st.floats(allow_nan=True, allow_infinity=True)))
    @example(np.array([[-0.0], [np.nan]]))
    @example(np.array([[[np.inf, -0.0]], [[-np.inf, 0.0]]]))
    @example(np.array([[[[-0.0]]]]))
    @example(np.array([[[[1.0], [np.nan]], [[-0.0], [np.inf]]]]))
    def test_stencils_match_roll_reference(self, data):
        # bit for bit, signed zeros and non-finite values included, on
        # every spatial axis of 1D, 2D and 3D arrays
        for axis in range(data.ndim - 1):
            for boundary in ("periodic", "outflow"):
                plus, minus = (roll_shift(data, axis, d, boundary) for d in (+1, -1))
                with np.errstate(invalid="ignore", over="ignore"):
                    acc = np.zeros_like(data)
                    shift_into(np.add, acc, data, axis, +1, boundary)
                    shift_into(np.add, acc, data, axis, -1, boundary)
                    assert acc.tobytes() == ((np.zeros_like(data) + plus) + minus).tobytes()
                    diff = neighbour_difference(data, axis, boundary)
                    assert diff.tobytes() == (plus - minus).tobytes()
                    second = second_difference(data, axis, boundary)
                    assert second.tobytes() == ((plus - 2.0 * data) + minus).tobytes()
                assert shifted(data, axis, +1, boundary).tobytes() == plus.tobytes()
                assert shifted(data, axis, -1, boundary).tobytes() == minus.tobytes()

    def test_centered_diff_exact_on_linear_data(self):
        g = grid_1d(16, boundary="outflow")
        data = (3.0 * g.centers(0) + 1.0)[:, None]
        d = centered_diff(g.with_data(data), 0, data[:, 0])
        assert np.allclose(d[1:-1], 3.0, atol=1e-13)

    def test_interior_mask(self):
        g = grid_1d(5)
        assert interior_mask(g).all()
        g = grid_1d(5, boundary="outflow")
        assert np.array_equal(interior_mask(g), [False, True, True, True, False])

    def test_l2_norm_scaling(self):
        g = grid_1d(10, extent=1.0)
        values = np.full(10, 2.0)
        assert l2_norm(g, values) == pytest.approx(2.0, rel=1e-14)


class TestProfiles:
    def test_constant(self):
        g = grid_1d(4, m=2)
        out = profiles.constant(g, [1.5, -2.0])
        assert np.allclose(out.data, [1.5, -2.0])

    def test_step_jump_location(self):
        g = grid_1d(10, extent=1.0)
        out = profiles.step(g, 1.0, 0.0, jump_at=0.05)
        x = g.centers(0)
        assert np.all(out.data[x < 0.05, 0] == 1.0)
        assert np.all(out.data[x >= 0.05, 0] == 0.0)

    def test_bump_exactly_zero_outside(self):
        g = grid_1d(200)
        out = profiles.bump(g, 1.0, 0.1)
        x = g.centers(0)
        assert np.all(out.data[np.abs(x) >= 0.1, 0] == 0.0)
        assert np.any(out.data[:, 0] > 0.5)
        inside = out.data[np.abs(x) < 0.1, 0]
        assert np.all(inside > 0.0)

    def test_plane_wave_grid_periodic(self):
        g = grid_1d(32, extent=2.0)
        out = profiles.plane_wave(g, 1.0, 2)
        # shifting by one period (16 cells for mode 2) reproduces the data
        assert np.allclose(np.roll(out.data, 16, axis=0), out.data, atol=1e-12)

    def test_from_csv_roundtrip(self, tmp_path):
        g = grid_1d(6, m=2)
        rng = np.random.default_rng(5)
        data = rng.normal(size=(6, 2))
        path = tmp_path / "table.csv"
        with open(path, "w") as handle:
            handle.write("x1,u1,u2\n")
            for i, xi in enumerate(g.centers(0)):
                handle.write(f"{float(xi)!r},{float(data[i, 0])!r},"
                             f"{float(data[i, 1])!r}\n")
        out = profiles.from_csv(g, path)
        assert np.array_equal(out.data, data)

    def test_from_csv_bad_row_reports_line(self, tmp_path):
        g = grid_1d(2)
        path = tmp_path / "bad.csv"
        path.write_text("u1\n1.0\noops\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            profiles.from_csv(g, path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_from_csv_nonfinite_reports_line(self, tmp_path, bad):
        g = grid_1d(3)
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"x1,u1\n-0.5,1.0\n0.0,{bad}\n0.5,2.0\n")
        with pytest.raises(ValueError, match="nonfinite.csv:3: non-finite"):
            profiles.from_csv(g, path)

    @pytest.mark.parametrize("ragged", ["0.0", "0.0,1.0,2.0"])
    def test_from_csv_ragged_row_reports_line(self, tmp_path, ragged):
        g = grid_1d(3)
        path = tmp_path / "ragged.csv"
        path.write_text(f"x1,u1\n-0.5,1.0\n{ragged}\n0.5,2.0\n")
        k = ragged.count(",") + 1
        with pytest.raises(ValueError,
                           match=rf"ragged.csv:3: row has {k} columns, expected 2$"):
            profiles.from_csv(g, path)

    def test_from_csv_row_count_checked(self, tmp_path):
        g = grid_1d(6)
        path = tmp_path / "short.csv"
        path.write_text("u1\n1.0\n2.0\n")
        with pytest.raises(ValueError):
            profiles.from_csv(g, path)


class TestSteppingGridRequirements:
    def test_unequal_axis_spacing_rejected(self):
        from shsys.lxf import SchemeConfig, run
        from shsys.models import ck_realify
        sys_, _ = ck_realify(np.array([[1.0 + 0j]]))
        grid = GridField.zeros((8, 8), (0.1, 0.2), (0.0, 0.0), 2)
        with pytest.raises(ValueError):
            run(sys_, grid, SchemeConfig(lam=0.1, t_end=0.1))
