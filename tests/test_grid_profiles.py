import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shsys import profiles
from shsys.grid import (GridField, centered_diff, divisor, interior_mask, l2_norm, padded,
                        shifted, stencil)


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           t=st.one_of(st.sampled_from([0.0, -0.0, 1e300]),
                       st.floats(allow_nan=False, allow_infinity=False)))
    def test_points_and_coords_equal_the_meshgrid_stack(self, data, t):
        n = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
        h = data.draw(st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=n, max_size=n))
        origin = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n))
        g = GridField.zeros(shape, h, origin, 1)
        space = np.stack(np.meshgrid(*[g.centers(j) for j in range(n)], indexing="ij"), -1)
        want = np.concatenate([np.broadcast_to(t, shape + (1,)), space], -1)
        for got, expected in ((g.points(t), want), (g.coords(), space)):
            assert got.shape == expected.shape
            assert np.ascontiguousarray(got).tobytes() == expected.tobytes()

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


def same_bits(got, want):
    """Bit for bit, except that where both sides are NaN any NaN matches:
    of two NaN operands numpy does not fix which one a loop returns."""
    both = np.isnan(got) & np.isnan(want)
    return np.array_equal(np.where(both, 0, got.view(np.int64)),
                          np.where(both, 0, want.view(np.int64)))


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

    def test_shifted_rejects_an_out_overlapping_data(self):
        # shifted(x, out=x) returned [1, 2, 3, 4, 1] here, without an error
        data = np.arange(5.0)
        with pytest.raises(ValueError, match="out must not overlap"):
            shifted(data, 0, +1, "periodic", out=data)
        with pytest.raises(ValueError, match="out must not overlap"):
            shifted(data[:4], 0, -1, "outflow", out=data[1:])
        assert data.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        out = np.empty(5)
        assert shifted(data, 0, +1, "periodic", out=out) is out
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0, 0.0]

    def test_centered_diff_rejects_an_out_overlapping_its_input(self):
        # centered_diff(f, 0, out=f.data) read the edge cells after the
        # interior call had overwritten them: -10.5 at cell 0, not -12
        f = GridField.zeros(6, 1.0, 0.0, 1).with_data((np.arange(6.0) ** 2)[:, None])
        data = f.data.copy()
        assert centered_diff(f, 0)[0, 0] == -12.0
        with pytest.raises(ValueError, match="out must not overlap"):
            centered_diff(f, 0, out=f.data)
        with pytest.raises(ValueError, match="out must not overlap"):
            centered_diff(f, 0, out=f.data[::-1])
        assert f.data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("boundary", ["periodic", "outflow"])
    def test_shifted_copies_nan_payloads(self, boundary):
        # quiet and signalling NaNs with payloads, of either sign, on
        # every axis and at every edge
        payloads = np.array([0x7FF8000000000123, 0x7FF0000000000001,
                             -0x0007FFFFFFFFFF01, 0x7FF4000000ABCDEF], dtype=np.int64)
        data = np.random.default_rng(7).normal(size=(3, 4, 5, 2))
        data.reshape(-1)[::7] = np.resize(payloads, data.size)[::7].view(float)
        for axis in range(3):
            for direction in (+1, -1):
                got = shifted(data, axis, direction, boundary)
                want = roll_shift(data, axis, direction, boundary)
                assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

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
                    ref = roll_shift(data, axis, direction, boundary)
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
    @example(np.array([[np.nan] * 3, [np.nan] * 3, [np.nan, np.nan, np.inf]]))
    def test_stencils_match_roll_reference(self, data):
        # bit for bit, signed zeros and non-finite values included, on
        # every spatial axis of 1D, 2D and 3D arrays; the sums may differ
        # only in which NaN they keep where both sides are NaN
        for axis in range(data.ndim - 1):
            for boundary in ("periodic", "outflow"):
                plus, minus = (roll_shift(data, axis, d, boundary) for d in (+1, -1))
                up, down, both = (stencil(data.shape, axis, boundary, d)
                                  for d in (+1, -1, 0))
                rows = padded(data, boundary)
                with np.errstate(invalid="ignore", over="ignore"):
                    acc = np.zeros_like(data)
                    up.shift_into(np.add, acc, rows)
                    down.shift_into(np.add, acc, rows)
                    assert same_bits(acc, (np.zeros_like(data) + plus) + minus)
                    diff = both.difference(np.empty_like(data), rows)
                    assert same_bits(diff, plus - minus)
                    # the viscous step's heat stencil, on ghost rows
                    ghosts = padded(np.moveaxis(data, axis, 0), boundary)
                    second = (ghosts[2:] - (ghosts[1:-1] + ghosts[1:-1])) + ghosts[:-2]
                    assert same_bits(np.moveaxis(second, 0, axis), (plus - 2.0 * data) + minus)
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

    @pytest.mark.parametrize("shape", [(1,), (4, 3), (2, 1, 5)])
    def test_interior_mask_drops_the_rim_of_every_axis(self, shape):
        g = GridField.zeros(shape, 0.5, 0.0, 1, boundary="outflow")
        want = np.zeros(shape, dtype=bool)
        want[tuple(slice(1, -1) for _ in shape)] = True
        assert np.array_equal(interior_mask(g), want)

    def test_l2_norm_scaling(self):
        g = grid_1d(10, extent=1.0)
        values = np.full(10, 2.0)
        assert l2_norm(g, values) == pytest.approx(2.0, rel=1e-14)


# dividends: signed zeros, subnormals, the normal range's edges, values
# near overflow, infinities and NaN, then any double at all
DIVIDENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 8.98846567431158e307,
                     np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


class TestDivisor:
    """A power-of-two divisor is a multiplication by its exact reciprocal."""

    @settings(deadline=None, max_examples=200)
    @given(e=st.integers(-60, 60), negative=st.booleans(),
           x=hnp.arrays(float, st.integers(1, 64), elements=DIVIDENDS))
    def test_power_of_two_division_is_a_reciprocal_multiply(self, e, negative, x):
        d = -(2.0 ** e) if negative else 2.0 ** e
        ufunc, operand = divisor(d)
        assert ufunc is np.multiply and operand == 1.0 / d
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            quotient, product, reciprocal = x / d, ufunc(x, operand), x * (1.0 / d)
        assert product.tobytes() == quotient.tobytes() == reciprocal.tobytes()

    @pytest.mark.parametrize("d", [2.0 * 0.001, 3.0, 6.0, 0.1, 0.0, np.inf, np.nan,
                                   # 2^-1074: its reciprocal overflows
                                   5e-324])
    def test_other_divisors_keep_the_division(self, d):
        ufunc, operand = divisor(d)
        assert ufunc is np.divide and (operand == d or np.isnan(d))

    def test_a_reciprocal_multiply_differs_for_other_divisors(self):
        # 2h for the spacing 0.001: one bit apart on 0.7
        d = 2.0 * 0.001
        assert 0.7 / d != 0.7 * (1.0 / d)
        ufunc, operand = divisor(d)
        assert ufunc(np.array([0.7]), operand)[0] == 0.7 / d

    @pytest.mark.parametrize("h", [1.0 / 32, 1.0 / 64, 1.0 / 128, 0.001, 0.3])
    def test_centered_diff_divides_by_2h(self, h):
        g = GridField.zeros((9,), h, 0.0, 1)
        data = np.array([0.7, -0.0, 0.0, 5e-324, 1e308, -1e308, np.inf, 3.0, 0.1])
        diff = data[[1, 2, 3, 4, 5, 6, 7, 8, 0]] - data[[8, 0, 1, 2, 3, 4, 5, 6, 7]]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = diff / (2.0 * h)
            got = centered_diff(g.with_data(data[:, None]), 0, data)
        assert got.tobytes() == expected.tobytes()


class TestProfiles:
    def test_constant(self):
        g = grid_1d(4, m=2)
        out = profiles.constant(g, [1.5, -2.0])
        assert np.allclose(out.data, [1.5, -2.0])

    @pytest.mark.parametrize("values", [2.0, [2.0], [[2.0]], [1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]]])
    def test_a_vector_broadcasts_as_numpy_broadcasts(self, values):
        g = grid_1d(4, m=3)
        try:
            expected = np.broadcast_to(np.asarray(values, dtype=float), (3,))
        except ValueError:
            with pytest.raises(ValueError, match=r"^\[initial\] value needs 1 or m = 3 values"):
                profiles.constant(g, values)
        else:
            assert np.array_equal(profiles.constant(g, values).data, np.tile(expected, (4, 1)))

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
