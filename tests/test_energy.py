import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shsys import fd, profiles
from shsys.core import _sym_part, generalized_eigenvalues, unit_normals
from shsys.energy import (LinearSystem, c_matrix, cone_slope, damping_lambda,
                          energy, support_test)
from shsys.grid import GridField
from shsys.lxf import SchemeConfig, run
from shsys.models import advection_law, maxwell_system

RNG = np.random.default_rng(31415)


def grid_1d(cells, extent=2.0, m=1, boundary="periodic", center=True):
    h = extent / cells
    origin = -extent / 2 + h / 2 if center else h / 2
    return GridField.zeros((cells,), h, origin, m, boundary)


class TestEnergy:
    def test_zero_field(self):
        g = grid_1d(16)
        assert energy(g, np.array([[1.0]])) == 0.0

    def test_constant_scalar_total_length(self):
        g = grid_1d(20, extent=2.0)
        g = g.with_data(np.ones((20, 1)))
        assert energy(g, np.array([[1.0]])) == pytest.approx(2.0, rel=1e-14)

    def test_diagonal_weight(self):
        g = GridField.zeros((1,), 1.0, 0.0, 2)
        g = g.with_data(np.ones((1, 2)))
        q = np.diag([2.0, 3.0])
        assert energy(g, q) == pytest.approx(5.0, rel=1e-14)

    def test_norm_equivalence_with_extreme_pivots(self):
        g = grid_1d(32, m=2)
        g = g.with_data(RNG.normal(size=(32, 2)))
        q = np.diag([0.5, 4.0])
        norm2 = float(np.sum(g.data ** 2)) * g.cell_volume()
        e = energy(g, q)
        assert 0.5 * norm2 <= e <= 4.0 * norm2

    def test_callable_q(self):
        g = grid_1d(8)
        g = g.with_data(np.ones((8, 1)))
        e = energy(g, lambda t, x: np.full(x.shape[:-1] + (1, 1), 2.0))
        assert e == pytest.approx(2.0 * 8 * g.h[0], rel=1e-14)

    def test_rejects_nonfinite(self):
        g = grid_1d(8)
        data = np.zeros((8, 1))
        data[3, 0] = np.nan
        with pytest.raises(ValueError):
            energy(g.with_data(data), np.eye(1))


class TestCMatrix:
    def test_constant_coefficients(self):
        sys = LinearSystem(1, 2, np.eye(2), [np.eye(2)], b=np.eye(2))
        assert np.allclose(c_matrix(sys, 0.3, [0.1]), 2.0 * np.eye(2), atol=1e-12)

    def test_time_dependent_q(self):
        sys = LinearSystem(1, 1, lambda t, x: np.array([[1.0 + t]]),
                           [np.array([[0.0]])])
        assert c_matrix(sys, 0.0, [0.0])[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_space_dependent_a(self):
        sys = LinearSystem(1, 1, np.array([[1.0]]),
                           [lambda t, x: np.array([[x[0]]])])
        assert c_matrix(sys, 0.0, [0.7])[0, 0] == pytest.approx(-1.0, abs=1e-9)

    def test_exact_for_quadratic_coefficients(self):
        sys = LinearSystem(1, 1, lambda t, x: np.array([[1.0 + t * t]]),
                           [lambda t, x: np.array([[2.0 + x[0] ** 2]])])
        c = c_matrix(sys, 0.5, [0.25])
        assert c[0, 0] == pytest.approx(-(2 * 0.5) - (2 * 0.25), abs=1e-8)


class TestDampingLambda:
    def test_halfway_threshold(self):
        # C = 2B = -I against Q = I: C + 2 lam Q PD exactly above lam = 1/2
        sys = LinearSystem(1, 2, np.eye(2), [np.zeros((2, 2))],
                           b=-0.5 * np.eye(2))
        result = damping_lambda(sys, 0.0, np.zeros(1))
        assert result.lam == pytest.approx(0.5, abs=1e-5)
        assert not result.marginal

    def test_already_positive(self):
        sys = LinearSystem(1, 2, np.eye(2), [np.zeros((2, 2))], b=np.eye(2))
        result = damping_lambda(sys, 0.0, np.zeros(1))
        assert result.lam == 0.0
        assert not result.marginal

    def test_semidefinite_edge_flagged(self):
        sys = LinearSystem(1, 2, np.eye(2), [np.zeros((2, 2))])
        result = damping_lambda(sys, 0.0, np.zeros(1))
        assert result.lam == 0.0
        assert result.marginal


class TestConeSlope:
    def test_scalar_advection(self):
        sys = LinearSystem(1, 1, np.array([[1.0]]), [np.array([[3.0]])])
        assert cone_slope(sys, grid_1d(8)) == pytest.approx(3.0, abs=1e-10)

    def test_maxwell_unit_slope(self):
        mx, _ = maxwell_system()
        sys = LinearSystem(3, 6, np.eye(6),
                           [mx.coeff[j + 1].const for j in range(3)])
        grid = GridField.zeros((4, 4, 4), 0.25, 0.0, 6)
        assert cone_slope(sys, grid) == pytest.approx(1.0, abs=1e-10)

    def test_no_advection(self):
        sys = LinearSystem(1, 2, np.eye(2), [np.zeros((2, 2))])
        assert cone_slope(sys, grid_1d(8, m=2)) == pytest.approx(0.0, abs=1e-12)


def advection_trace(cells=400, t_end=0.5, lam=1.0, radius=0.1, center=None):
    law, _ = advection_law(1.0)
    grid = grid_1d(cells, extent=4.0)
    initial = profiles.bump(grid, 1.0, radius, center)
    config = SchemeConfig(lam=lam, t_end=t_end, cfl_safety=1.0, output_stride=10)
    return run(law, initial, config)


class TestSupport:
    def test_zero_data_passes(self):
        law, _ = advection_law(1.0)
        grid = grid_1d(100, extent=4.0)
        config = SchemeConfig(lam=1.0, t_end=0.2, cfl_safety=1.0)
        trace = run(law, grid, config)
        verdict = support_test(trace, 0.1, 1.0)
        assert verdict.passed
        assert verdict.max_outside == 0.0

    def test_advection_cone_at_cfl_one(self):
        trace = advection_trace()
        verdict = support_test(trace, 0.1, 1.0, tol=0.0)
        assert verdict.passed

    def test_cone_is_measured_from_the_centre(self):
        # from the origin, the bump at 0.5 lies outside the cone at t = 0
        trace = advection_trace(center=[0.5])
        assert support_test(trace, 0.1, 1.0, center=[0.5]).passed
        verdict = support_test(trace, 0.1, 1.0)
        assert not verdict.passed and verdict.first_violation[0] == 0.0

    def test_slow_cone_fails(self):
        trace = advection_trace()
        verdict = support_test(trace, 0.1, 0.5, tol=1e-12)
        assert not verdict.passed
        assert verdict.first_violation is not None
        t, x, value = verdict.first_violation
        assert value > 1e-12


class TestDampedEnergyBalance:
    def test_damped_energy_non_increasing(self):
        # Q = 1, A = 1, B = -1: C = -2, so lam* = 1; damp slightly above it
        sys = LinearSystem(1, 1, np.array([[1.0]]), [np.array([[1.0]])],
                           b=np.array([[-1.0]]))
        lam_star = damping_lambda(sys, 0.0, np.zeros(1)).lam
        assert lam_star == pytest.approx(1.0, abs=1e-5)
        lam_d = lam_star + 0.1

        grid = grid_1d(200, extent=2.0)
        initial = profiles.bump(grid, 1.0, 0.4)
        config = SchemeConfig(lam=0.5, t_end=0.8, output_stride=4)
        trace = run(sys.as_system(), initial, config)
        assert trace.completed
        k = config.lam * grid.h[0]
        values = [np.exp(-2.0 * lam_d * t) * energy(snap, np.array([[1.0]]))
                  for t, snap in zip(trace.times, trace.snapshots)]
        slack = 1.0 + 10.0 * k * grid.h[0]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev * slack + 1e-300

    def test_undamped_energy_grows_with_negative_c(self):
        sys = LinearSystem(1, 1, np.array([[1.0]]), [np.array([[1.0]])],
                           b=np.array([[-1.0]]))
        grid = grid_1d(200, extent=2.0)
        initial = profiles.bump(grid, 1.0, 0.4)
        config = SchemeConfig(lam=0.5, t_end=0.8, output_stride=4)
        trace = run(sys.as_system(), initial, config)
        e0 = energy(trace.snapshots[0], np.array([[1.0]]))
        e1 = energy(trace.snapshots[-1], np.array([[1.0]]))
        assert e1 > e0  # the u exp(-lam t) substitution is what restores decay


class TestLinearSystemValidation:
    def test_asymmetric_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(1, 2, np.eye(2), [np.array([[0.0, 1.0], [0.0, 0.0]])]).validate_on(
                0.0, np.zeros(1))

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            LinearSystem(1, 2, -np.eye(2), [np.zeros((2, 2))]).validate_on(0.0, np.zeros(1))


# ---------------------------------------------------------------------------
# c_matrix and cone_slope against the two-branch derivative and the
# per-normal generalized eigenvalue loop, on the raw (t, x) callables

def _value(c, t, x):
    """A coefficient at (t, x), a constant broadcast over the points."""
    if callable(c):
        return np.asarray(c(t, x), dtype=float)
    return np.broadcast_to(c, np.shape(x)[:-1] + c.shape)


def reference_c_matrix(n, m, q, a, b, t, x):
    x = np.asarray(x, dtype=float)
    c = np.zeros((m, m))
    if b is not None:
        c += 2.0 * _value(b, t, x)
    if callable(q):
        ht = fd.STEP_FIRST * max(1.0, abs(t))
        c -= (_value(q, t + ht, x) - _value(q, t - ht, x)) / (2.0 * ht)
    for j in range(n):
        if not callable(a[j]):
            continue
        hj = fd.STEP_FIRST * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = hj
        c -= (_value(a[j], t, x + e) - _value(a[j], t, x - e)) / (2.0 * hj)
    return c


def reference_cone_slope(n, q, a, grid, t):
    # the largest |lambda| over the unit normals; taking the largest lambda
    # over +-nu instead assumes eigvalsh(-A) = -eigvalsh(A), which can be
    # one ulp off
    constant = not callable(q) and not any(map(callable, a))
    x = np.zeros(n) if constant else grid.coords().reshape(-1, n)
    qm = _sym_part(_value(q, t, x))
    amats = [_value(a_j, t, x) for a_j in a]
    worst = 0.0
    for nu in unit_normals(n):
        mat = _sym_part(sum(nu[j] * amats[j] for j in range(n)))
        worst = max(worst, float(np.max(np.abs(generalized_eigenvalues(mat, qm)))))
    return worst


# exact zeros and small integers, so sparse matrices come up, plus floats
ENTRIES = st.one_of(st.integers(-2, 2).map(float),
                    st.floats(-2.0, 2.0, allow_subnormal=False))
COORDS = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def linear_system(draw):
    """(n, m, q, a, b): symmetric Q and A^j and any B, each a constant or a
    quadratic in s = c t + w . x; Q stays positive definite for |t|, |x_j|
    <= 1."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def symmetric(scale=1.0):
        r = draw(hnp.arrays(np.float64, (m, m), elements=ENTRIES))
        return scale * (r + r.T)

    def coefficient(base, scale):
        if not draw(st.booleans()):
            return base
        lin, quad = symmetric(scale), symmetric(scale)
        c = draw(st.floats(-0.5, 0.5))
        w = draw(hnp.arrays(np.float64, (n,), elements=st.floats(-0.5, 0.5)))

        def fn(t, x):
            s = c * np.asarray(t) + np.sum(x * w, axis=-1)
            return base + s[..., None, None] * lin + (s * s)[..., None, None] * quad
        return fn

    q = coefficient(symmetric(0.1) + 4.0 * np.eye(m), 0.02)
    a = [coefficient(symmetric(), 1.0) for _ in range(n)]
    b = draw(st.sampled_from([None, "constant", "variable"]))
    if b is not None:
        base = draw(hnp.arrays(np.float64, (m, m), elements=ENTRIES))
        b = base if b == "constant" else coefficient(base, 1.0)
    return n, m, q, a, b


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


class Draws:
    """Stands in for ``st.data()`` in an explicit example: ``draw`` returns
    the given values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


@settings(max_examples=150, deadline=None)
@given(case=linear_system(), data=st.data())
@example(case=(1, 4, 4.0 * np.eye(4), [np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 2.0],
                                                 [0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])],
               None),
         data=Draws(0.0, np.zeros(1), 0.0))
def test_c_matrix_and_cone_slope_equal_the_two_branch_reference(case, data):
    n, m, q, a, b = case
    lin = LinearSystem(n, m, q, a, b=b)
    t = data.draw(COORDS)
    x = data.draw(hnp.arrays(np.float64, (n,), elements=COORDS))
    assert_bitwise(c_matrix(lin, t, x), reference_c_matrix(n, m, q, a, b, t, x))
    grid = GridField.zeros((4, 3, 2)[:n], 0.5, -0.75, m)
    t = data.draw(st.floats(0.0, 1.0))
    assert_bitwise(cone_slope(lin, grid, t=t), reference_cone_slope(n, q, a, grid, t))


@settings(max_examples=100, deadline=None)
@given(case=linear_system(), data=st.data())
def test_c_matrix_on_a_stack_equals_the_per_point_loop(case, data):
    n, m, q, a, b = case
    lin = LinearSystem(n, m, q, a, b=b)
    batch = data.draw(st.sampled_from([(1,), (5,), (2, 3)]))
    t = data.draw(hnp.arrays(np.float64, batch, elements=COORDS))
    x = data.draw(hnp.arrays(np.float64, batch + (n,), elements=COORDS))
    per_point = [c_matrix(lin, t[i], x[i]) for i in np.ndindex(batch)]
    assert_bitwise(c_matrix(lin, t, x), np.reshape(per_point, batch + (m, m)))
