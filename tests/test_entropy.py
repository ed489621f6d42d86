import numpy as np
import pytest

from shsys import fd
from shsys.entropy import (ConservationLaw, ConvergenceError, DiffusionTensor,
                           EntropyPair, conservative_symmetry_check,
                           diffusion_symmetry_check, entropy_pair_residual,
                           entropy_variables, flux_potential_check,
                           hessian_symmetrizer, legendre_dual)
from shsys.models import burgers_law

RNG = np.random.default_rng(7121)


def quadratic_pair(m):
    return EntropyPair(
        n=1, m=m,
        value=lambda u: 0.5 * np.sum(u * u, axis=-1),
        flux=(lambda u: np.zeros(u.shape[:-1]),),
        grad=lambda u: np.asarray(u, dtype=float),
        hess=lambda u: np.broadcast_to(np.eye(m), u.shape + (m,)))


def shallow_water_law():
    """2x2 system in (depth, momentum): f = (q, q^2/h + h^2/2) with the
    energy pair U = (q^2/h + h^2)/2, F = q^3/(2h^2) + h q."""
    def flux(u):
        u = np.asarray(u, dtype=float)
        h, q = u[..., 0], u[..., 1]
        return np.stack([q, q ** 2 / h + 0.5 * h ** 2], axis=-1)

    law = ConservationLaw(n=1, m=2, flux=(flux,),
                          state_box=([0.5, -1.0], [2.0, 1.0]))
    pair = EntropyPair(
        n=1, m=2,
        value=lambda u: 0.5 * (u[..., 1] ** 2 / u[..., 0] + u[..., 0] ** 2),
        flux=(lambda u: u[..., 1] ** 3 / (2.0 * u[..., 0] ** 2) + u[..., 0] * u[..., 1],),
        grad=lambda u: np.stack([-0.5 * u[..., 1] ** 2 / u[..., 0] ** 2 + u[..., 0],
                                 u[..., 1] / u[..., 0]], -1),
        hess=lambda u: np.stack(
            [np.stack([u[..., 1] ** 2 / u[..., 0] ** 3 + 1.0, -u[..., 1] / u[..., 0] ** 2], -1),
             np.stack([-u[..., 1] / u[..., 0] ** 2, 1.0 / u[..., 0]], -1)], -2))
    return law, pair


class TestEntropyPairResidual:
    def test_burgers_quadratic_entropy(self):
        law, pair = burgers_law((-2.0, 2.0))
        states = np.linspace(-2, 2, 41)[:, None]
        assert entropy_pair_residual(law, pair, states) <= 1e-8

    def test_burgers_with_fd_jacobian(self):
        law, pair = burgers_law((-2.0, 2.0))
        no_jac = ConservationLaw(n=1, m=1, flux=law.flux,
                                 state_box=law.state_box)
        states = np.linspace(-2, 2, 41)[:, None]
        assert entropy_pair_residual(no_jac, pair, states) <= 1e-8

    def test_constant_pair_vanishes(self):
        law, _ = burgers_law((-2.0, 2.0))
        pair = EntropyPair(n=1, m=1, value=lambda u: np.full(u.shape[:-1], 3.0),
                           flux=(lambda u: np.full(u.shape[:-1], 7.0),),
                           grad=lambda u: np.zeros(u.shape),
                           hess=lambda u: np.zeros(u.shape + (1,)),
                           flux_grad=(lambda u: np.zeros(u.shape),))
        states = np.linspace(-2, 2, 9)[:, None]
        assert entropy_pair_residual(law, pair, states) == 0.0

    def test_wrong_flux_residual_is_closed_form(self):
        # F = u^3 instead of (2/3) u^3: residual max |2u^2 - 3u^2| = 4 on [-2, 2]
        law, _ = burgers_law((-2.0, 2.0))
        pair = EntropyPair(n=1, m=1, value=lambda u: u[..., 0] ** 2,
                           flux=(lambda u: u[..., 0] ** 3,),
                           grad=lambda u: 2.0 * u,
                           hess=lambda u: np.full(u.shape + (1,), 2.0),
                           flux_grad=(lambda u: 3.0 * u ** 2,))
        states = np.linspace(-2, 2, 41)[:, None]
        assert entropy_pair_residual(law, pair, states) == pytest.approx(4.0, abs=1e-10)

    def test_state_outside_box_rejected(self):
        law, pair = burgers_law((-2.0, 2.0))
        with pytest.raises(ValueError):
            entropy_pair_residual(law, pair, [[5.0]])


class TestEntropyVariables:
    def test_identity_map_for_quadratic(self):
        pair = quadratic_pair(2)
        assert np.allclose(entropy_variables(pair, [3.0, -1.0]), [3.0, -1.0])

    def test_scaled_quadratic(self):
        _, pair = burgers_law()
        assert entropy_variables(pair, [2.0])[0] == pytest.approx(4.0)

    def test_log_entropy(self):
        pair = EntropyPair(n=1, m=1,
                           value=lambda u: float(u[0] * np.log(u[0]) - u[0]),
                           flux=(lambda u: 0.0,))
        assert entropy_variables(pair, [1.0])[0] == pytest.approx(0.0, abs=1e-9)

    def test_gradient_matches_fd_of_value(self):
        law, pair = shallow_water_law()
        for _ in range(5):
            u = RNG.uniform([0.6, -0.8], [1.8, 0.8])
            assert np.allclose(pair.gradient(u), fd.gradient(pair.value, u),
                               atol=1e-6)


class TestLegendreDual:
    def test_quadratic_closed_form(self):
        pair = quadratic_pair(1)
        u, g0 = legendre_dual(pair, [5.0], [0.0])
        assert u[0] == pytest.approx(5.0, abs=1e-10)
        assert g0 == pytest.approx(12.5, abs=1e-9)

    def test_zero_maps_to_zero(self):
        pair = quadratic_pair(3)
        u, g0 = legendre_dual(pair, np.zeros(3), np.zeros(3))
        assert np.allclose(u, 0.0)
        assert g0 == 0.0

    def test_quartic_entropy(self):
        pair = EntropyPair(n=1, m=1, value=lambda u: float(u[0] ** 4) / 4.0,
                           flux=(lambda u: 0.0,),
                           grad=lambda u: np.array([u[0] ** 3]),
                           hess=lambda u: np.array([[3.0 * u[0] ** 2]]))
        u, g0 = legendre_dual(pair, [8.0], [1.0])
        assert u[0] == pytest.approx(2.0, abs=1e-9)
        assert g0 == pytest.approx(12.0, abs=1e-8)

    def test_involution_on_random_states(self):
        law, pair = shallow_water_law()
        lo, hi = law.state_box
        for _ in range(25):
            u = RNG.uniform(lo + 0.1, hi - 0.1)
            v = entropy_variables(pair, u)
            u_back, _ = legendre_dual(pair, v, u + RNG.normal(scale=0.05, size=2))
            assert np.max(np.abs(u_back - u)) <= 1e-8

    def test_dual_hessian_is_inverse_hessian(self):
        # FD Hessian of g0(v) equals the inverse of hess U at the matched point
        for law, pair in (burgers_law(), shallow_water_law()):
            u0 = 0.5 * (law.state_box[0] + law.state_box[1])
            v0 = pair.gradient(u0)

            def g0_of(v):
                return legendre_dual(pair, v, u0)[1]

            dual_hess = fd.hessian(g0_of, v0)
            assert np.allclose(dual_hess, np.linalg.inv(pair.hessian(u0)),
                               atol=5e-6)

    def test_no_convergence_reports_last_iterate(self):
        pair = EntropyPair(n=1, m=1, value=lambda u: float(u[0] ** 2),
                           flux=(lambda u: 0.0,),
                           grad=lambda u: np.array([2.0 * u[0]]),
                           hess=lambda u: np.array([[2.0]]))
        with pytest.raises(ConvergenceError) as info:
            legendre_dual(pair, [1.0], [0.0], max_iter=0)
        assert info.value.last is not None


class TestHessianSymmetrizer:
    def test_burgers_scalar(self):
        law, pair = burgers_law((-2.0, 2.0))
        sigma, verdict = hessian_symmetrizer(law, pair)
        assert np.allclose(sigma(np.zeros(2), np.array([0.7])), [[2.0]])
        assert verdict.is_sh

    def test_decoupled_transport(self):
        def flux(u):
            return 3.0 * np.asarray(u, dtype=float)

        law = ConservationLaw(n=1, m=2, flux=(flux,),
                              state_box=([-1, -1], [1, 1]))
        sigma, verdict = hessian_symmetrizer(law, quadratic_pair(2))
        assert np.allclose(sigma(np.zeros(2), np.zeros(2)), np.eye(2))
        assert verdict.is_sh

    def test_shallow_water_on_positive_depth(self):
        law, pair = shallow_water_law()
        sigma, verdict = hessian_symmetrizer(law, pair, per_axis=5)
        assert verdict.is_sh
        # brute force: sigma . df/du symmetric at random states
        lo, hi = law.state_box
        for _ in range(10):
            u = RNG.uniform(lo + 0.05, hi - 0.05)
            s = pair.hessian(u) @ law.jacobian(0, u)
            assert np.max(np.abs(s - s.T)) < 1e-6

    def test_nonconvex_entropy_rejected(self):
        law, _ = burgers_law((-2.0, 2.0))
        pair = EntropyPair(n=1, m=1, value=lambda u: -u[..., 0] ** 2,
                           flux=(lambda u: np.zeros(u.shape[:-1]),),
                           grad=lambda u: -2.0 * u,
                           hess=lambda u: np.full(u.shape + (1,), -2.0))
        with pytest.raises(ValueError):
            hessian_symmetrizer(law, pair)


class TestFluxPotential:
    def test_burgers_potential_derivative(self):
        law, pair = burgers_law((-2.0, 2.0))
        states = np.linspace(-1.5, 1.5, 7)[:, None]
        assert flux_potential_check(law, pair, states) <= 1e-6

    def test_trivial_zero_flux(self):
        def flux(u):
            return np.zeros_like(np.asarray(u, dtype=float))

        law = ConservationLaw(n=1, m=1, flux=(flux,), state_box=([-1], [1]))
        pair = EntropyPair(n=1, m=1, value=lambda u: float(u[0] ** 2),
                           flux=(lambda u: 0.0,),
                           grad=lambda u: np.array([2.0 * u[0]]),
                           hess=lambda u: np.array([[2.0]]))
        assert flux_potential_check(law, pair, [[0.5]]) <= 1e-9

    def test_two_component_system_potentials(self):
        law, pair = shallow_water_law()
        samples = np.array([[1.0, 0.2], [0.8, -0.5], [1.5, 0.7], [0.6, 0.0]])
        assert flux_potential_check(law, pair, samples) <= 1e-9

    def test_corrupted_entropy_flux_detected(self):
        # U^1 off by +u shifts dg/dv by du/dv = 1/2 for the Burgers pair
        law, clean = burgers_law((-2.0, 2.0))
        pair = EntropyPair(n=1, m=1, value=clean.value,
                           flux=(lambda u: (2.0 / 3.0) * u[0] ** 3 + u[0],),
                           grad=clean.grad, hess=clean.hess)
        resid = flux_potential_check(law, pair, [[0.5], [1.0]])
        assert resid == pytest.approx(0.5, rel=1e-4)


class TestConservativeSymmetry:
    def test_gradient_flux_is_symmetric(self):
        # f = grad g for g = sum (u^A)^3: Jacobian is the Hessian of g
        def flux(u):
            u = np.asarray(u, dtype=float)
            return 3.0 * u ** 2

        law = ConservationLaw(n=1, m=3, flux=(flux,),
                              state_box=(-np.ones(3), np.ones(3)))
        states = RNG.uniform(-1, 1, size=(6, 3))
        assert conservative_symmetry_check(law, states) == [True]

    def test_swap_flux_symmetric(self):
        def flux(u):
            u = np.asarray(u, dtype=float)
            return np.stack([u[..., 1], u[..., 0]], axis=-1)

        law = ConservationLaw(n=1, m=2, flux=(flux,),
                              state_box=(-np.ones(2), np.ones(2)))
        assert conservative_symmetry_check(law, [[0.3, -0.2]]) == [True]

    def test_shear_flux_not_symmetric(self):
        def flux(u):
            u = np.asarray(u, dtype=float)
            return np.stack([u[..., 1], np.zeros_like(u[..., 0])], axis=-1)

        law = ConservationLaw(n=1, m=2, flux=(flux,),
                              state_box=(-np.ones(2), np.ones(2)))
        assert conservative_symmetry_check(law, [[0.3, -0.2]]) == [False]


class TestDiffusionSymmetry:
    def test_diagonal_scalar_blocks(self):
        d = np.diag([1.0, 2.0])

        tensor = DiffusionTensor(n=2, m=3,
                                 fn=lambda x, u, j, k: d[j, k] * np.broadcast_to(
                                     np.eye(3), u.shape + (3,)))
        assert diffusion_symmetry_check(tensor, [np.zeros(3)])

    def test_scalar_component_symmetric_jk(self):
        b = np.array([[1.0, 0.5], [0.5, 2.0]])
        tensor = DiffusionTensor(n=2, m=1,
                                 fn=lambda x, u, j, k: np.full(u.shape + (1,), b[j, k]))
        assert diffusion_symmetry_check(tensor, [np.zeros(1)])

    def test_asymmetric_block_fails(self):
        tensor = DiffusionTensor(n=1, m=2,
                                 fn=lambda x, u, j, k: np.broadcast_to(
                                     [[0.0, 1.0], [0.0, 0.0]], u.shape + (2,)))
        assert not diffusion_symmetry_check(tensor, [np.zeros(2)])
