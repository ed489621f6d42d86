"""The batched evaluation contract: coefficients, symmetrizers and sources
take points of any leading shape, and evaluating a batch at once gives,
bit for bit, what evaluating its points one by one gives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shsys import lxf
from shsys.core import (MatrixField, SystemDef, characteristic_speeds, direction_matrix,
                        is_sh, ldlt_pivots, max_abs_speed, positive_definite,
                        symmetry_residual)
from shsys.energy import LinearSystem, cone_slope, damping_lambda, energy
from shsys.entropy import (ConservationLaw, DiffusionTensor, EntropyPair,
                           diffusion_symmetry_check, entropy_pair_residual,
                           hessian_symmetrizer, legendre_dual)
from shsys.grid import GridField, centered_diff
from shsys.lxf import SchemeConfig, max_char_speed, run, system_rhs
from shsys.models import (burgers_law, ck_realify, euler_polytropic_sh, maxwell_system,
                          polynomial_scalar_law, tricomi_certificate_matrix,
                          tricomi_system, wave_system)
from shsys.shocks import riemann_scalar
from test_entropy import shallow_water_law

RNG = np.random.default_rng(4242)


def _wave_callable():
    # a_j and a_jk polynomial in x (exactly rounded arithmetic only)
    def a_j(x):
        return 0.1 * x * x - 0.2 * x

    def a_jk(x):
        s = 1.0 + 0.25 * x[..., 0] * x[..., 0]
        c = 0.1 * x[..., 1]
        return np.stack([np.stack([s, c], -1), np.stack([c, s + 1.0], -1)], -2)

    return wave_system(a_j, a_jk, forcing=lambda t, x: t * x[..., 0] - x[..., 1], n=2)[0]


def _maxwell_callable():
    def current(x):
        return np.stack([x[..., 0] * x[..., 1], 1.0 - x[..., 2], 0.5 * x[..., 0]], -1)

    return maxwell_system(current=current)[0]


def _ck_callable():
    # complex values built from real arithmetic: a complex product may be
    # fused on arrays and not on scalars, which no contract can hide
    def a(x):
        x0, x1 = x[..., 0], x[..., 1]
        one = np.ones_like(x0)
        return np.stack([np.stack([one + x0 + 1j * x1, 0.5 * x0 + 0.5j * x1], -1),
                         np.stack([x0 * x0 - x1 + 1j * (x0 * x1), 2.0 * one], -1)], -2)

    return ck_realify(a, b=lambda x, w: x[..., :1] * w.real + 1j * w.imag)[0]


def _linear_callable():
    def q(t, x):
        d = 1.0 + x[..., 0] * x[..., 0] + t * t
        return np.stack([np.stack([d, 0.1 * x[..., 1]], -1),
                         np.stack([0.1 * x[..., 1], d + 1.0], -1)], -2)

    def a1(t, x):
        s = x[..., 0] - t
        return np.stack([np.stack([s, 1.0 + 0.0 * s], -1),
                         np.stack([1.0 + 0.0 * s, -s], -1)], -2)

    def b(t, x):
        return 0.5 * q(t, x)

    def forcing(t, x):
        return np.stack([t * x[..., 1], x[..., 0] - x[..., 1]], -1)

    lin = LinearSystem(2, 2, q, [a1, np.array([[0.0, 2.0], [2.0, 0.5]])], b=b,
                       forcing=forcing)
    return lin.as_system()


# name -> (system, lower and upper bounds of the sampled states)
MODELS = {
    "wave_const": (wave_system(np.array([0.1, -0.2]), np.array([[2.0, 0.5], [0.5, 1.0]]))[0],
                   -2.0, 2.0),
    "wave_callable": (_wave_callable(), -2.0, 2.0),
    "maxwell_const": (maxwell_system(current=np.array([1.0, -2.0, 0.5]))[0], -2.0, 2.0),
    "maxwell_callable": (_maxwell_callable(), -2.0, 2.0),
    "euler_1d": (euler_polytropic_sh(1.4, n=1), None, None),
    "euler_2d": (euler_polytropic_sh(1.4, n=2), None, None),
    "euler_3d": (euler_polytropic_sh(5.0 / 3.0, n=3), None, None),
    "ck_const": (ck_realify(np.array([[1.0 + 2.0j]]), b=np.array([2.0 - 1.0j]))[0],
                 -2.0, 2.0),
    "ck_callable": (_ck_callable(), -2.0, 2.0),
    "linear_as_system": (_linear_callable(), -2.0, 2.0),
}


def assert_bitwise(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def per_point(fn, x, u):
    """Evaluate fn one point at a time and stack the results."""
    batch = x.shape[:-1]
    values = [np.asarray(fn(x[idx], u[idx]), dtype=float) for idx in np.ndindex(*batch)]
    return np.stack(values).reshape(batch + values[0].shape)


@st.composite
def points(draw, sys, lo, hi, batch=None):
    batch = batch or draw(st.sampled_from([(1,), (4,), (2, 3)]))
    coord = st.floats(-2.0, 2.0, allow_nan=False, width=64)
    x = draw(hnp.arrays(np.float64, batch + (sys.n + 1,), elements=coord))
    if lo is None:  # euler: positive pressure, any velocity
        p = draw(hnp.arrays(np.float64, batch + (1,),
                            elements=st.floats(0.01, 10.0, width=64)))
        v = draw(hnp.arrays(np.float64, batch + (sys.m - 1,), elements=coord))
        u = np.concatenate([p, v], axis=-1)
    else:
        u = draw(hnp.arrays(np.float64, batch + (sys.m,),
                            elements=st.floats(lo, hi, allow_nan=False, width=64)))
    return x, u


def _fields(sys):
    named = [(f"coeff[{alpha}]", c) for alpha, c in enumerate(sys.coeff)]
    if sys.symmetrizer is not None:
        named.append(("symmetrizer", sys.symmetrizer))
    return named


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_equals_stacked_per_point(name, data):
    sys, lo, hi = MODELS[name]
    x, u = data.draw(points(sys, lo, hi))
    batch = x.shape[:-1]
    for label, field in _fields(sys):
        expected = per_point(field, x, u)
        batched = field(x, u)
        if field.const is not None:
            assert batched.shape == (sys.m, sys.m), label
            batched = np.broadcast_to(batched, batch + (sys.m, sys.m))
        assert_bitwise(batched, expected)
        # fn honours the contract too, constant fields included
        assert_bitwise(field.fn(x, u), expected)
    if sys.source is not None:
        assert_bitwise(sys.source(x, u), per_point(sys.source, x, u))


@settings(max_examples=25, deadline=None)
@given(y=hnp.arrays(np.float64, st.sampled_from([(1,), (5,)]),
                    elements=st.floats(-3.0, 3.0, width=64)))
def test_tricomi_fields_batched(y):
    system, _ = tricomi_system(0.3, 1.0)
    x = np.stack([np.zeros_like(y), y], axis=-1)
    u = np.zeros(y.shape + (2,))
    for field in (system.a1, system.a2, system.b):
        assert_bitwise(field(x, u), per_point(field, x, u))


# ---------------------------------------------------------------------------
# system_rhs against the per-cell loop it replaced

def euler_rhs_per_cell(gamma, n, t, state):
    """Reference: the coefficients of the pressure-velocity gas written per
    point with numpy scalar arithmetic, one matrix and one solve per cell."""
    m = n + 1

    def m0(u):
        p = u[0]
        return np.diag(np.concatenate([[1.0 / (gamma * p)], np.full(n, p ** (1.0 / gamma))]))

    def mj(u, j):
        p, v = u[0], u[1:]
        mat = np.zeros((m, m))
        mat[0, 0] = v[j] / (gamma * p)
        mat[0, 1 + j] = 1.0
        mat[1 + j, 0] = 1.0
        for i in range(n):
            mat[1 + i, 1 + i] = p ** (1.0 / gamma) * v[j]
        return mat

    dus = [centered_diff(state, j) for j in range(n)]
    out = np.empty_like(state.data)
    for idx in np.ndindex(*state.shape):
        u = state.data[idx]
        target = np.zeros(m)
        for j in range(n):
            target = target - mj(u, j) @ dus[j][idx]
        out[idx] = np.linalg.solve(m0(u), target)
    return out


def euler_state(cells, seed):
    rng = np.random.default_rng(seed)
    grid = GridField.zeros((cells, cells), 1.0 / cells, 0.5 / cells, 3)
    c = grid.coords()
    r2 = np.sum((c - rng.uniform(0.3, 0.7, size=2)) ** 2, axis=-1)
    data = np.empty(grid.shape + (3,))
    data[..., 0] = 1.0 + 0.2 * np.exp(-r2 / 0.01) + 0.01 * rng.uniform(size=grid.shape)
    data[..., 1:] = 0.1 * rng.normal(size=grid.shape + (2,))
    return grid.with_data(data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_euler_sh_rhs_matches_per_cell_reference(seed):
    state = euler_state(24, seed)
    rhs = system_rhs(euler_polytropic_sh(1.4, n=2))
    assert_bitwise(rhs(0.0, state), euler_rhs_per_cell(1.4, 2, 0.0, state))


@pytest.mark.parametrize("shape, p, boundary", [
    ((1,), 1e-300, "periodic"), ((1,), 1.3, "outflow"),
    ((1, 1), 1e-300, "outflow"), ((1, 1), 1.3, "periodic")])
def test_euler_sh_single_cell_rhs_matches_per_cell_reference(shape, p, boundary):
    """A one-cell stack, at the box's pressure floor among others, goes
    through rho and the diagonal division as the reference's scalars do."""
    n = len(shape)
    grid = GridField.zeros(shape, 0.5, 0.0, n + 1, boundary=boundary)
    data = np.empty(shape + (n + 1,))
    data[..., 0], data[..., 1:] = p, 0.25
    state = grid.with_data(data)
    rhs = system_rhs(euler_polytropic_sh(1.4, n=n))
    assert_bitwise(rhs(0.0, state), euler_rhs_per_cell(1.4, n, 0.0, state))


def test_euler_sh_overflowing_rhs_matches_per_cell_reference():
    """A target with inf in it fails the guard of the diagonal division and
    is solved whole, as the reference solves each cell: the non-finite
    values sit in the same cells and components, so a located non-finite
    abort names the same ones."""
    state = euler_state(12, 5)
    data = state.data.copy()
    data[3:6, 4:8, 1] *= 1e306
    state = state.with_data(data)
    rhs = system_rhs(euler_polytropic_sh(1.4, n=2))
    with np.errstate(over="ignore", invalid="ignore"):
        got = rhs(0.0, state)
        expected = euler_rhs_per_cell(1.4, 2, 0.0, state)
    # the LU solve spreads an inf in a cell's target to NaN in its other
    # components, where a division would leave them finite
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert_bitwise(got, expected)


def test_max_char_speed_matches_per_cell_maximum():
    sys = euler_polytropic_sh(1.4, n=2)
    state = euler_state(16, 3)
    coords = state.coords().reshape(-1, 2)
    worst = 0.0
    for x, u in zip(coords, state.data.reshape(-1, 3)):
        xst = np.concatenate(([0.0], x))
        for nu in ([1.0, 0.0], [0.0, 1.0], np.array([1.0, 1.0]) / np.sqrt(2.0),
                   np.array([1.0, -1.0]) / np.sqrt(2.0)):
            worst = max(worst, float(np.max(np.abs(characteristic_speeds(sys, xst, u, nu)))))
    assert max_char_speed(sys, state) == worst



def reference_cell_coords(state, flat):
    """Space coordinates of the cells at C-order flat indices, computed as
    origin + h * unravel_index(flat), without the whole grid."""
    cells = np.unravel_index(flat, state.shape)
    return np.stack([state.origin[j] + state.h[j] * cells[j] for j in range(state.n)], -1)


@pytest.mark.parametrize("name, shape, t", [("euler_1d", (1500,), 0.0),
                                            ("euler_2d", (40, 30), 0.0),
                                            ("wave_callable", (40, 30), 0.375)])
def test_max_char_speed_equals_the_sampled_cell_reference(name, shape, t):
    sys = MODELS[name][0]
    rng = np.random.default_rng(7)
    grid = GridField.zeros(shape, 0.05, -0.9, sys.m)
    data = rng.uniform(-1.0, 1.0, grid.data.shape)
    if name.startswith("euler"):
        data[..., 0] = rng.uniform(0.5, 2.0, grid.shape)
    state = grid.with_data(data)
    idx = lxf._sample_cells(state)
    assert len(idx) < state.data.size // state.m  # a strided sample
    x = np.concatenate([np.full(idx.shape + (1,), t), reference_cell_coords(state, idx)], -1)
    want = max_abs_speed(sys, x, state.data.reshape(-1, state.m)[idx])
    assert max_char_speed(sys, state, t) == want

@pytest.mark.parametrize("name", ["euler_2d", "wave_callable"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_speeds_over_a_normal_stack_equal_the_per_normal_loop(name, data):
    sys, lo, hi = MODELS[name]
    x, u = data.draw(points(sys, lo, hi))
    normals = data.draw(hnp.arrays(np.float64, (3, sys.n), elements=st.floats(-1.0, 1.0)))
    stack = normals.reshape((3,) + (1,) * (x.ndim - 1) + (sys.n,))
    assert_bitwise(characteristic_speeds(sys, x, u, stack),
                   np.stack([characteristic_speeds(sys, x, u, nu) for nu in normals]))


def test_wave_callable_rhs_matches_constant_rhs():
    # the same coefficients through the batched callables and as constants
    aj, ajk = np.array([0.1, -0.2]), np.array([[2.0, 0.5], [0.5, 1.0]])
    const_sys, _ = wave_system(aj, ajk)
    callable_sys, _ = wave_system(lambda x: np.broadcast_to(aj, x.shape),
                                  lambda x: np.broadcast_to(ajk, x.shape[:-1] + (2, 2)), n=2)
    grid = GridField.zeros((12, 10), 0.1, 0.05, 4)
    state = grid.with_data(RNG.normal(size=(12, 10, 4)))
    expected = system_rhs(const_sys)(0.0, state)
    assert np.allclose(system_rhs(callable_sys)(0.0, state), expected, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# energy diagnostics on the batched contract

def test_energy_callable_q_matches_per_cell_sum():
    grid = GridField.zeros((9, 7), 0.1, 0.0, 2)
    state = grid.with_data(RNG.normal(size=(9, 7, 2)))

    def q(t, x):
        d = 1.0 + x[..., 0] * x[..., 1] + t
        off = 0.1 * x[..., 0]
        return np.stack([np.stack([d, off], -1), np.stack([off, 2.0 * d], -1)], -2)

    u = state.data.reshape(-1, 2)
    coords = state.coords().reshape(-1, 2)
    dens = [u[i] @ q(0.5, coords[i]) @ u[i] for i in range(u.shape[0])]
    expected = float(np.sum(dens) * state.cell_volume())
    assert energy(state, q, t=0.5) == pytest.approx(expected, rel=1e-14)


def test_cone_slope_variable_coefficients():
    # A = diag(1 + x, -(1 + x)) with Q = I: slope is the largest 1 + x on the grid
    lin = LinearSystem(1, 2, np.eye(2), [lambda t, x: (1.0 + x[..., 0])[..., None, None]
                                         * np.array([[1.0, 0.0], [0.0, -1.0]])])
    grid = GridField.zeros((10,), 0.1, 0.05, 2)
    assert cone_slope(lin, grid) == pytest.approx(1.0 + 0.95, abs=1e-12)


# ---------------------------------------------------------------------------
# per-point callables fail early with the expected shape

def test_per_point_matrix_field_rejected_on_grid():
    sys = SystemDef(n=1, m=1, coeff=(
        MatrixField.constant([[1.0]]),
        MatrixField.of_state(1, lambda u: np.array([[u[0]]]))))
    state = GridField.zeros((8,), 0.25, 0.0, 1).with_data(np.ones((8, 1)))
    with pytest.raises(ValueError, match=r"\(\.\.\., m, m\) = \(8, 1, 1\)"):
        system_rhs(sys)(0.0, state)


def test_per_point_source_rejected_on_grid():
    sys = SystemDef(n=1, m=2, coeff=(MatrixField.constant(np.eye(2)),
                                     MatrixField.constant(np.eye(2))),
                    source=lambda x, u: np.array([u[1], -u[0]]))
    state = GridField.zeros((8,), 0.25, 0.0, 2)
    with pytest.raises(ValueError, match=r"\(\.\.\., m\) = \(8, 2\)"):
        system_rhs(sys)(0.0, state)


def test_per_point_energy_and_cone_slope_callables_rejected():
    grid = GridField.zeros((6,), 0.2, 0.1, 1).with_data(np.ones((6, 1)))
    pointwise = lambda t, x: np.array([[1.0 + x[0]]])  # noqa: E731
    with pytest.raises(ValueError, match=r"\(\.\.\., m, m\) = \(6, 1, 1\)"):
        energy(grid, pointwise)
    lin = LinearSystem(1, 1, np.eye(1), [pointwise])
    with pytest.raises(ValueError, match=r"\(\.\.\., m, m\) = \(6, 1, 1\)"):
        cone_slope(lin, grid)


def test_one_matrix_for_a_batch_rejected_by_every_linear_system_path():
    one = lambda t, x: np.array([[1.0]])  # noqa: E731
    lin = LinearSystem(1, 1, np.eye(1), [one])
    grid = GridField.zeros((8,), 0.25, 0.125, 1).with_data(np.ones((8, 1)))
    shape_error = r"matrix field returned shape \(1, 1\), expected \(\.\.\., m, m\)"
    with pytest.raises(ValueError, match=shape_error):
        LinearSystem(1, 1, np.eye(1), [one]).validate_on([0.0, 0.5], [[0.1], [0.2]])
    with pytest.raises(ValueError, match=shape_error):
        energy(grid, one)
    with pytest.raises(ValueError, match=shape_error):
        cone_slope(lin, grid)
    with pytest.raises(ValueError, match=shape_error):
        run(lin.as_system(), grid, SchemeConfig(lam=0.5, t_end=0.25))


# ---------------------------------------------------------------------------
# certification: a stack of samples in one call gives, bit for bit, what
# the same functions give one sample at a time

def _is_sh_stack_vs_samples(sys, x, u):
    """is_sh on the whole stack equals is_sh composed over single samples."""
    verdict = is_sh(sys, x, u)
    singles = [is_sh(sys, xs, us) for xs, us in zip(x, u)]
    assert_bitwise(verdict.residuals, np.max([v.residuals for v in singles], axis=0))
    assert_bitwise(symmetry_residual(sys, x, u), verdict.residuals)
    assert verdict.symmetric == all(v.symmetric for v in singles)
    assert verdict.direction_pd == all(v.direction_pd for v in singles)
    assert verdict.is_sh == (verdict.symmetric and verdict.direction_pd)
    first = next((v for v in singles if v.failing_sample is not None), None)
    assert verdict.reason == (None if first is None else first.reason)
    if first is None:
        assert verdict.failing_sample is None
    else:
        for got, want in zip(verdict.failing_sample, first.failing_sample):
            assert_bitwise(got, want)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_is_sh_stack_equals_per_sample_on_models(name, data):
    sys, lo, hi = MODELS[name]
    x, u = data.draw(points(sys, lo, hi))
    _is_sh_stack_vs_samples(sys, x.reshape(-1, sys.n + 1), u.reshape(-1, sys.m))


# entries with exact zeros and small integers, so that singular matrices and
# zero pivots come up often, plus general floats of moderate size
ENTRIES = st.one_of(st.integers(-2, 2).map(float),
                    st.floats(-3.0, 3.0, allow_subnormal=False).filter(
                        lambda v: v == 0.0 or abs(v) > 1e-3))
KINDS = ("symmetric", "asymmetric", "indefinite", "singular")


def _matrix(draw, m, kind):
    a = draw(hnp.arrays(np.float64, (m, m), elements=ENTRIES))
    if kind == "asymmetric":
        return a
    s = a + a.T
    if kind == "symmetric":
        return s + 2.0 * m * 3.0 * np.eye(m)   # diagonally dominant: PD
    if kind == "singular":
        s[:, 0] = s[0, :] = 0.0
    return s


@st.composite
def random_system(draw):
    """A constant system of random kinds, or a state-dependent one whose
    symmetric positive definite base gets a slope of random kind where
    u_0 > 0, so that failures start at any sample."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(n + 1)]
    if draw(st.booleans()):
        coeff = tuple(MatrixField.constant(_matrix(draw, m, kind)) for kind in kinds)
    else:
        def field(base, slope):
            # exactly rounded per entry, so batches and single points agree
            return MatrixField(m, lambda x, u: base + (np.maximum(u[..., 0], 0.0) * x[..., 0])[
                ..., None, None] * slope)

        coeff = tuple(field(_matrix(draw, m, "symmetric"), _matrix(draw, m, kind))
                      for kind in kinds)
    sigma = None
    if draw(st.booleans()):
        sigma = MatrixField.of_state(m, lambda u: np.eye(m) * (1.0 + u[..., :1, None] ** 2))
    direction = draw(hnp.arrays(np.float64, (n + 1,), elements=st.integers(0, 2).map(float)))
    direction[0] += 1.0
    sys = SystemDef(n=n, m=m, coeff=coeff, symmetrizer=sigma, direction=direction)
    count = draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.float64, (count, n + 1), elements=ENTRIES))
    u = draw(hnp.arrays(np.float64, (count, m), elements=ENTRIES))
    return sys, x, u


@settings(max_examples=150, deadline=None)
@given(case=random_system())
def test_is_sh_stack_equals_per_sample_on_random_systems(case):
    _is_sh_stack_vs_samples(*case)


def _same_verdict(got, want):
    assert (got.is_sh, got.symmetric, got.direction_pd, got.reason) == (
        want.is_sh, want.symmetric, want.direction_pd, want.reason)
    assert_bitwise(got.residuals, want.residuals)
    assert (got.failing_sample is None) == (want.failing_sample is None)
    for g, w in zip(got.failing_sample or (), want.failing_sample or ()):
        assert_bitwise(g, w)


@st.composite
def constant_system_on_stack(draw):
    """A system whose fields are all constant, the same matrices wrapped as
    fields that are not, and a stack of points and states that broadcast."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    mats = [_matrix(draw, m, draw(st.sampled_from(KINDS))) for _ in range(n + 1)]
    sigma = _matrix(draw, m, draw(st.sampled_from(KINDS))) if draw(st.booleans()) else None
    for mat in mats + ([] if sigma is None else [sigma]):
        if draw(st.integers(0, 5)) == 0:
            mat[draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))] = np.nan
    direction = draw(hnp.arrays(np.float64, (n + 1,), elements=st.integers(0, 2).map(float)))
    direction[0] += 1.0

    def wrapped(mat):
        return MatrixField(m, lambda x, u: np.broadcast_to(
            mat, np.broadcast_shapes(x.shape[:-1], u.shape[:-1]) + (m, m)))

    systems = [SystemDef(n=n, m=m, coeff=tuple(wrap(a) for a in mats), direction=direction,
                         symmetrizer=None if sigma is None else wrap(sigma))
               for wrap in (MatrixField.constant, wrapped)]
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4))
    x = draw(hnp.arrays(np.float64, shapes.input_shapes[0] + (n + 1,), elements=ENTRIES))
    u = draw(hnp.arrays(np.float64, shapes.input_shapes[1] + (m,), elements=ENTRIES))
    return systems, x, u


@settings(max_examples=200, deadline=None)
@given(case=constant_system_on_stack())
def test_constant_system_certified_at_one_point_as_on_the_stack(case):
    (const, varying), x, u = case
    _same_verdict(is_sh(const, x, u), is_sh(varying, x, u))
    assert_bitwise(symmetry_residual(const, x, u), symmetry_residual(varying, x, u))


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_direction_matrix_stack_equals_per_point(name, data):
    sys, lo, hi = MODELS[name]
    x, u = data.draw(points(sys, lo, hi, batch=(3, 4)))
    stacked = direction_matrix(sys, x, u)
    assert stacked.shape == (3, 4, sys.m, sys.m)
    assert_bitwise(stacked, per_point(lambda xp, up: direction_matrix(sys, xp, up), x, u))


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_one_point_broadcasts_against_a_stack_of_states(name, data):
    # fields of x alone return one matrix per point, so they are handed the
    # point broadcast to the batch of states
    sys, lo, hi = MODELS[name]
    x, u = data.draw(points(sys, lo, hi, batch=(4,)))
    spread = np.broadcast_to(x[0], x.shape).copy()
    _same_verdict(is_sh(sys, x[0], u), is_sh(sys, spread, u))
    assert_bitwise(direction_matrix(sys, x[0], u), direction_matrix(sys, spread, u))
    if is_sh(sys, spread, u).direction_pd:
        normal = np.eye(sys.n)[0]
        assert_bitwise(characteristic_speeds(sys, x[0], u, normal),
                       characteristic_speeds(sys, spread, u, normal))


def test_empty_batch_rejected_by_every_sampled_certificate():
    sys = MODELS["maxwell_const"][0]
    for fn in (is_sh, symmetry_residual):
        with pytest.raises(ValueError, match="need at least one sample"):
            fn(sys, np.zeros((0, 4)), np.zeros(6))
        with pytest.raises(ValueError, match="need at least one sample"):
            fn(sys, np.zeros(4), np.zeros((2, 0, 6)))
    lin = LinearSystem(1, 1, np.eye(1), [np.eye(1)], b=np.eye(1))
    for fn in (lin.validate_on, lambda t, x: damping_lambda(lin, t, x)):
        with pytest.raises(ValueError, match="need at least one sample"):
            fn(0.0, np.zeros((0, 1)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 7), count=st.integers(1, 8),
       kind=st.sampled_from(KINDS))
def test_pivot_oracle_stack_equals_per_matrix(data, m, count, kind):
    mats = np.stack([_matrix(data.draw, m, kind) for _ in range(count)])
    pivots = ldlt_pivots(mats)
    assert_bitwise(pivots, np.stack([ldlt_pivots(a) for a in mats]))
    if kind == "asymmetric":
        return
    for tol in (None, 1e-12):
        verdicts = positive_definite(mats, tol=tol)
        assert verdicts.shape == (count,)
        assert verdicts.tolist() == [bool(positive_definite(a, tol=tol)) for a in mats]


def test_pivots_stop_per_matrix_at_a_zero_pivot():
    stack = np.array([[[0.0, 1.0], [1.0, 5.0]], [[2.0, 1.0], [1.0, 5.0]]])
    assert ldlt_pivots(stack).tolist() == [[0.0, 0.0], [2.0, 4.5]]
    assert positive_definite(stack).tolist() == [False, True]


def _quadratic_form_pair(m):
    """U = |u|^2 / 2 with a zero entropy flux: for f = A u the residual is
    the largest |u . A|."""
    return EntropyPair(n=1, m=m, value=lambda u: 0.5 * np.sum(u * u, axis=-1),
                       flux=(lambda u: np.zeros(u.shape[:-1]),),
                       flux_grad=(lambda u: np.zeros(u.shape),))


@st.composite
def law_and_states(draw):
    kind = draw(st.sampled_from(["polynomial", "polynomial_fd", "linear"]))
    count = draw(st.integers(1, 8))
    if kind == "linear":
        m = draw(st.integers(1, 4))
        a = draw(hnp.arrays(np.float64, (m, m), elements=ENTRIES))
        law = ConservationLaw(n=1, m=m, flux=(lambda u: u @ a.T,),
                              state_box=(-3.0 * np.ones(m), 3.0 * np.ones(m)),
                              flux_jac=(lambda u: np.broadcast_to(a, u.shape + (m,)),))
        pair = _quadratic_form_pair(m)
    else:
        coeffs = draw(hnp.arrays(np.float64, (4,), elements=ENTRIES))
        law, pair = polynomial_scalar_law(coeffs)
        if kind == "polynomial_fd":
            law = ConservationLaw(n=1, m=1, flux=law.flux, state_box=law.state_box)
            pair = EntropyPair(n=1, m=1, value=pair.value, flux=pair.flux)
    states = draw(hnp.arrays(np.float64, (count, law.m), elements=ENTRIES))
    return law, pair, states


@settings(max_examples=100, deadline=None)
@given(case=law_and_states())
def test_entropy_pair_residual_stack_equals_max_of_single_states(case):
    law, pair, states = case
    single = [entropy_pair_residual(law, pair, s[None, :]) for s in states]
    assert entropy_pair_residual(law, pair, states) == max(single)


@st.composite
def dual_case(draw):
    """An entropy pair, targets v = grad U(u) and guesses near the u."""
    law, pair = draw(st.sampled_from([burgers_law(), shallow_water_law()]))
    batch = draw(st.sampled_from([(1,), (4,), (2, 3)]))
    lo, hi = law.state_box
    frac = draw(hnp.arrays(np.float64, batch + (law.m,), elements=st.floats(0.1, 0.9)))
    states = lo + frac * (hi - lo)
    nudge = draw(hnp.arrays(np.float64, batch + (law.m,), elements=st.floats(-0.2, 0.2)))
    return pair, pair.gradient(states), states + nudge


@settings(max_examples=100, deadline=None)
@given(case=dual_case())
def test_legendre_dual_stack_equals_single_states(case):
    pair, v, guess = case
    u, g0 = legendre_dual(pair, v, guess)
    rows = [legendre_dual(pair, v[i], guess[i]) for i in np.ndindex(v.shape[:-1])]
    assert_bitwise(u, np.reshape([r[0] for r in rows], u.shape))
    assert_bitwise(g0, np.reshape([r[1] for r in rows], g0.shape))


def test_entropy_pair_residual_names_the_first_state_outside_the_box():
    law, pair = polynomial_scalar_law([0.0, 0.0, 0.5], state_box=(-2.0, 2.0))
    with pytest.raises(ValueError, match=r"sample \[5\.\] outside"):
        entropy_pair_residual(law, pair, [[0.0], [5.0], [-7.0]])


def test_tricomi_certificate_equals_per_y_loop():
    lam, ys = 10.0, np.linspace(-1.0, 1.0, 1001)
    stacked = tricomi_certificate_matrix(lam, ys)
    assert_bitwise(stacked, np.stack([tricomi_certificate_matrix(lam, y) for y in ys]))
    pivots = [float(np.min(ldlt_pivots(tricomi_certificate_matrix(lam, y)))) for y in ys]
    _, cert = tricomi_system(lam, 1.0)
    assert cert.min_pivot == min(pivots)
    assert cert.worst_y == float(ys[int(np.argmin(pivots))])


# ---------------------------------------------------------------------------
# per-state entropy callables fail early; batched ones evaluate every state

def test_per_state_entropy_pair_rejected_on_a_batch():
    pair = EntropyPair(n=1, m=1, value=lambda u: u[0] ** 2,
                       flux=(lambda u: u[0] ** 3,),
                       grad=lambda u: np.array([2.0 * u[0]]))
    states = np.linspace(-1.0, 1.0, 5)[:, None]
    assert pair.gradient(np.array([0.5])).shape == (1,)   # one state is fine
    with pytest.raises(ValueError, match=r"\(\.\.\., m\) = \(5, 1\)"):
        pair.gradient(states)
    with pytest.raises(ValueError, match=r"\(\.\.\.\) = \(5,\)"):
        pair.value(states)
    with pytest.raises(ValueError, match=r"\(\.\.\.\) = \(5,\)"):
        pair.flux[0](states)


def test_per_state_diffusion_tensor_rejected_on_a_batch():
    tensor = DiffusionTensor(n=1, m=2, fn=lambda x, u, j, k: np.eye(2))
    with pytest.raises(ValueError, match=r"\(\.\.\., m, m\) = \(3, 2, 2\)"):
        diffusion_symmetry_check(tensor, np.zeros((3, 2)))


def test_hessian_symmetrizer_fields_take_batches():
    law, pair = polynomial_scalar_law([0.0, 1.0, 0.5, 0.25])
    sigma, verdict = hessian_symmetrizer(law, pair)
    states = np.linspace(-1.0, 1.0, 5)[:, None]
    assert verdict.is_sh
    assert sigma(np.zeros(2), states).shape == (5, 1, 1)
    assert_bitwise(pair.gradient(states), per_point(lambda x, u: pair.gradient(u),
                                                    np.zeros((5, 2)), states))


def test_rarefaction_evaluates_the_fan_in_one_jacobian_call_per_bisection_step():
    law, pair = polynomial_scalar_law([0.0, 0.0, 0.5])
    shapes = []

    def jac(u):
        shapes.append(u.shape)
        return law.flux_jac[0](u)

    counted = ConservationLaw(n=1, m=1, flux=law.flux, state_box=law.state_box,
                              flux_jac=(jac,))
    sol = riemann_scalar(counted, 0.0, 1.0, pair=pair)
    shapes.clear()
    xi = np.linspace(-0.5, 1.5, 2000)
    fan = sol(xi)
    assert set(shapes) == {(2000, 1)} and len(shapes) < 100
    assert np.allclose(fan, np.clip(xi, 0.0, 1.0), atol=1e-10)
