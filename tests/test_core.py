import numpy as np
import pytest

from shsys.core import (MatrixField, SystemDef, characteristic_speeds,
                        direction_matrix, is_sh, ldlt_pivots,
                        positive_definite, sample_box, symmetry_residual,
                        system_samples)
from shsys.models import euler_polytropic_sh, maxwell_system, wave_system

RNG = np.random.default_rng(20240811)


def one_d_system(m1, m0=None, m=None):
    m = m1.shape[0] if m is None else m
    coeff = (MatrixField.constant(np.eye(m) if m0 is None else m0),
             MatrixField.constant(m1))
    return SystemDef(n=1, m=m, coeff=coeff)


def origin_samples(sys, states):
    x0 = np.zeros(sys.n + 1)
    return [(x0, np.atleast_1d(np.asarray(u, dtype=float))) for u in states]


class TestPositiveDefinite:
    def test_identity(self):
        assert positive_definite(np.eye(3), tol=1e-12)

    def test_indefinite_by_characteristic_polynomial(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        assert not positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=1e-12)

    def test_zero_matrix(self):
        assert not positive_definite(np.zeros((2, 2)), tol=1e-12)

    def test_asymmetric_input_is_an_error(self):
        with pytest.raises(ValueError):
            positive_definite(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_sum_of_pd_is_pd(self):
        # spot check on random PD pairs
        for _ in range(20):
            a = RNG.normal(size=(4, 4))
            b = RNG.normal(size=(4, 4))
            pa = a @ a.T + 0.1 * np.eye(4)
            pb = b @ b.T + 0.1 * np.eye(4)
            assert positive_definite(pa)
            assert positive_definite(pb)
            assert positive_definite(pa + pb)

    def test_pivots_match_sylvester_minors(self):
        a = RNG.normal(size=(5, 5))
        s = a @ a.T + np.eye(5)
        pivots = ldlt_pivots(s)
        minors = [np.linalg.det(s[:k, :k]) for k in range(1, 6)]
        ratios = [minors[0]] + [minors[k] / minors[k - 1] for k in range(1, 5)]
        assert np.allclose(pivots, ratios, rtol=1e-9)


class TestSymmetryResidual:
    def test_nilpotent_block(self):
        sys = one_d_system(np.array([[0.0, 1.0], [0.0, 0.0]]))
        res = symmetry_residual(sys, origin_samples(sys, [[0.0, 0.0]]))
        assert res[0] == 0.0
        assert res[1] == 1.0

    def test_one_component_always_symmetric(self):
        sys = SystemDef(n=1, m=1, coeff=(
            MatrixField.constant([[1.0]]),
            MatrixField.of_state(1, lambda u: u[..., np.newaxis])))
        res = symmetry_residual(sys, origin_samples(sys, [[2.0], [-1.0]]))
        assert np.all(res == 0.0)

    def test_maxwell_already_symmetric(self):
        sys, _ = maxwell_system()
        samples = origin_samples(sys, [RNG.normal(size=6) for _ in range(3)])
        assert np.all(symmetry_residual(sys, samples) == 0.0)

    def test_sample_order_invariance(self):
        sys = one_d_system(np.array([[0.0, 2.0], [1.0, 0.0]]))
        samples = origin_samples(sys, [RNG.normal(size=2) for _ in range(5)])
        res = symmetry_residual(sys, samples)
        res_rev = symmetry_residual(sys, samples[::-1])
        assert np.array_equal(res, res_rev)

    def test_dimension_mismatch(self):
        sys = one_d_system(np.eye(2))
        with pytest.raises(ValueError):
            symmetry_residual(sys, origin_samples(sys, [[1.0, 2.0, 3.0]]))


class TestIsSh:
    def test_euler_sh_at_rest(self):
        sys = euler_polytropic_sh(1.4, n=3)
        verdict = is_sh(sys, origin_samples(sys, [[1.0, 0.0, 0.0, 0.0]]))
        assert verdict.is_sh

    def test_negative_time_matrix_fails_direction(self):
        sys = one_d_system(np.zeros((2, 2)), m0=-np.eye(2))
        verdict = is_sh(sys, origin_samples(sys, [[0.0, 0.0]]))
        assert not verdict.is_sh
        assert verdict.symmetric
        assert not verdict.direction_pd

    def test_tricomi_first_order_form_not_sh_for_negative_y(self):
        # before the multiplier stage: time matrix diag(y, 1), pivot y
        coeff = (MatrixField(2, lambda x, u: np.eye(2) * np.stack(
                     [x[..., 1], np.ones_like(x[..., 1])], -1)[..., None, :]),
                 MatrixField.constant(-np.array([[0.0, 1.0], [1.0, 0.0]])))
        sys = SystemDef(n=1, m=2, coeff=coeff)
        verdict = is_sh(sys, [(np.array([0.0, -1.0]), np.zeros(2))])
        assert not verdict.is_sh
        assert not verdict.direction_pd
        assert verdict.failing_sample is not None

    def test_first_failing_sample_reports_its_lowest_asymmetric_alpha(self):
        # M^0 = I + u_0 C_0, M^1 = u_0 C_1: sample 0 passes; at u_0 = 1 both
        # are asymmetric (by 1 and 3) and M^0 is negative definite
        c0 = np.array([[-2.0, 1.0], [0.0, -2.0]])
        c1 = np.array([[0.0, 3.0], [0.0, 0.0]])
        sys = SystemDef(n=1, m=2, coeff=(
            MatrixField.of_state(2, lambda u: np.eye(2) + u[..., :1, None] * c0),
            MatrixField.of_state(2, lambda u: u[..., :1, None] * c1)))
        samples = origin_samples(sys, [[0.0, 0.0], [1.0, 0.0], [1.0, 5.0]])
        verdict = is_sh(sys, samples)
        assert not verdict.symmetric and not verdict.direction_pd
        assert verdict.residuals.tolist() == [1.0, 3.0]
        assert verdict.failing_sample[1].tolist() == [1.0, 0.0]
        assert verdict.reason == "sigma*M^0 asymmetric by 1.000e+00"

    def test_valid_symmetrizer_implies_sh(self):
        # random symmetric coefficients, sigma = identity
        a = RNG.normal(size=(3, 3))
        m1 = a + a.T
        sys = SystemDef(n=1, m=3, coeff=(
            MatrixField.constant(np.eye(3)), MatrixField.constant(m1)),
            symmetrizer=MatrixField.constant(np.eye(3)))
        verdict = is_sh(sys, origin_samples(sys, [np.zeros(3)]))
        assert verdict.is_sh


class TestCharacteristicSpeeds:
    def test_scalar_advection(self):
        sys = one_d_system(np.array([[3.0]]))
        speeds = characteristic_speeds(sys, np.zeros(2), np.zeros(1), [1.0])
        assert np.allclose(speeds, [3.0], atol=1e-12)

    def test_wave_reduction_unit_coefficients(self):
        sys, _ = wave_system(np.zeros(1), np.eye(1))
        speeds = characteristic_speeds(sys, np.zeros(2), np.zeros(3), [1.0])
        assert np.allclose(np.sort(speeds), [-1.0, 0.0, 1.0], atol=1e-12)
        # brute-force oracle on the raw symbol
        m1 = sys.coeff[1].const
        oracle = np.sort(np.linalg.eigvals(m1).real)
        assert np.allclose(np.sort(speeds), oracle, atol=1e-10)

    def test_maxwell_unit_speeds_any_normal(self):
        sys, _ = maxwell_system()
        normal = np.array([1.0, 2.0, -1.0])
        normal /= np.linalg.norm(normal)
        speeds = characteristic_speeds(sys, np.zeros(4), np.zeros(6), normal)
        assert np.allclose(np.sort(speeds), [-1, -1, 0, 0, 1, 1], atol=1e-10)
        # brute-force oracle: eigenvalues of the assembled 6x6 symbol
        symbol = sum(normal[j] * sys.coeff[j + 1].const for j in range(3))
        oracle = np.sort(np.linalg.eigvals(symbol).real)
        assert np.allclose(np.sort(speeds), oracle, atol=1e-10)

    def test_normal_flip_negates_spectrum(self):
        sys = euler_polytropic_sh(1.4, n=2)
        u = np.array([2.0, 0.3, -0.1])
        normal = np.array([0.6, 0.8])
        plus = characteristic_speeds(sys, np.zeros(3), u, normal)
        minus = characteristic_speeds(sys, np.zeros(3), u, -normal)
        assert np.allclose(np.sort(plus), np.sort(-minus), atol=1e-10)

    def test_requires_pd_time_matrix(self):
        sys = one_d_system(np.eye(2), m0=np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            characteristic_speeds(sys, np.zeros(2), np.zeros(2), [1.0])


class TestSampling:
    def test_sample_box_tensor_grid(self):
        states = sample_box([0.0, -1.0], [1.0, 1.0], per_axis=3)
        assert states.shape == (9, 2)
        assert [0.0, -1.0] in states.tolist()
        assert [1.0, 1.0] in states.tolist()
        assert [0.5, 0.0] in states.tolist()

    def test_system_samples_fixed_point(self):
        sys = one_d_system(np.eye(2))
        samples = system_samples(sys, [-1, -1], [1, 1], per_axis=2)
        assert len(samples) == 4
        assert all(np.array_equal(x, np.zeros(2)) for x, _ in samples)

    def test_direction_matrix_is_queryable(self):
        sys = euler_polytropic_sh(1.4, n=1)
        d = direction_matrix(sys, np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(d, np.diag([1.0 / 1.4, 1.0]), atol=1e-14)
