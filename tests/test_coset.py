import numpy as np
import pytest

from qrobust.coset import (
    CosetParams,
    DegenerateInput,
    _X_FROM_Y,
    _closed_form_x_stack,
    _k_stack,
    build_X,
    build_Y,
    density_from_params,
)
from qrobust.states import BELL_STATES, SIGMA_YY, BellWeights, bell_diagonal


def params_with(lam=(0.7, 0.1, 0.1, 0.1), **angles):
    base = dict(theta1=0.0, theta2=0.0, xi1=0.0, xi2=0.0, phi1=0.0, phi2=0.0)
    base.update(angles)
    return CosetParams(**base, lam=np.array(lam, dtype=float))


class TestFixedMatrices:
    # _X_FROM_Y = O^T eta^{-1}, with O = BELL_STATES.T and eta = diag(i, 1, i, 1)
    def test_O_is_orthogonal(self):
        o = BELL_STATES.T
        assert np.max(np.abs(o.T @ o - np.eye(4))) <= 1e-15

    def test_O_entries(self):
        allowed = {0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)}
        assert set(np.round(BELL_STATES.real.ravel(), 15)) <= {round(v, 15) for v in allowed}
        assert np.max(np.abs(BELL_STATES.imag)) == 0.0

    def test_O_diagonalizes_the_flip(self):
        # X_FROM_Y X_FROM_Y^T = O^T eta^{-2} O, and eta^{-2} = eta^2 = diag(-1, 1, -1, 1)
        assert np.max(np.abs(_X_FROM_Y @ _X_FROM_Y.T - SIGMA_YY)) <= 1e-15

    def test_eta_properties(self):
        # eta^{-1} = diag(-i, 1, -i, 1) scales the Bell columns, which keeps them orthonormal
        assert np.array_equal(_X_FROM_Y, BELL_STATES * np.array([-1j, 1.0, -1j, 1.0]))
        assert np.allclose(_X_FROM_Y.conj().T @ _X_FROM_Y, np.eye(4), atol=1e-15)


class TestBuildY:
    def test_zero_angles_identity(self):
        assert np.array_equal(build_Y(params_with()), np.eye(4).astype(complex))

    def test_single_theta_block(self):
        y = build_Y(params_with(theta1=0.3))
        expected = np.eye(4, dtype=complex)
        expected[0, 0] = expected[1, 1] = np.cosh(0.3)
        expected[0, 1] = 1j * np.sinh(0.3)
        expected[1, 0] = -1j * np.sinh(0.3)
        assert np.max(np.abs(y - expected)) <= 1e-15
        assert np.max(np.abs(y.T @ y - np.eye(4))) <= 1e-12


class TestBuildX:
    def test_zero_angles_bell_basis(self):
        x = build_X(params_with())
        expected = np.stack([
            -1j * BELL_STATES[:, 0], BELL_STATES[:, 1],
            -1j * BELL_STATES[:, 2], BELL_STATES[:, 3],
        ], axis=1)
        assert np.max(np.abs(x - expected)) <= 1e-15


class TestClosedForms:
    def test_zero_angles_vectors(self):
        vectors = _closed_form_x_stack(np.zeros(6), np.array([0.7, 0.1, 0.1, 0.1])).T
        phases = (-1j, 1.0, -1j, 1.0)
        for i, (vec, phase) in enumerate(zip(vectors, phases)):
            expected = np.sqrt([0.7, 0.1, 0.1, 0.1][i]) * phase * BELL_STATES[:, i]
            assert np.max(np.abs(vec - expected)) <= 1e-15

    def test_zero_weight_gives_zero_vector(self):
        angles = np.array([0.7, 0.0, 0.0, 0.4, 0.0, 0.0])              # theta1 = 0.7, xi2 = 0.4
        vectors = _closed_form_x_stack(angles, np.array([1.0, 0.0, 0.0, 0.0])).T
        assert np.array_equal(vectors[1], np.zeros(4))

    def test_k_zero_angles(self):
        assert np.array_equal(_k_stack(np.zeros(6)), np.ones(4))

    def test_k_single_phi(self):
        k = _k_stack(np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.0]))
        assert abs(k[0] - np.cosh(1.0)) <= 1e-15
        assert abs(k[1] - np.cosh(1.0)) <= 1e-15
        assert np.allclose(k[2:], 1.0, atol=0)


class TestDensityFromParams:
    def test_zero_angles_is_bell_diagonal(self):
        rho = density_from_params(params_with(lam=(0.7, 0.1, 0.1, 0.1)))
        expected = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))
        assert np.max(np.abs(rho.matrix - expected.matrix)) <= 1e-15

    def test_single_weight_is_bell_projector(self):
        rho = density_from_params(params_with(lam=(1.0, 0.0, 0.0, 0.0)))
        expected = np.outer(BELL_STATES[:, 0], BELL_STATES[:, 0].conj())
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-15

    def test_unnormalized_weights_rescaled(self):
        rho = density_from_params(params_with(lam=(7.0, 1.0, 1.0, 1.0)))
        expected = density_from_params(params_with(lam=(0.7, 0.1, 0.1, 0.1)))
        assert np.max(np.abs(rho.matrix - expected.matrix)) <= 1e-15

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DegenerateInput):
            density_from_params(params_with(lam=(0.0, 0.0, 0.0, 0.0)))


class TestParamValidation:
    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError, match="xi"):
            params_with(xi1=-0.2)

    def test_non_descending_weights_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            params_with(lam=(0.1, 0.7, 0.1, 0.1))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            params_with(lam=(0.9, 0.1, 0.1, -0.1))

    def test_dict_round_trip(self):
        params = params_with(theta1=0.3, xi2=0.2, lam=(0.5, 0.3, 0.15, 0.05))
        payload = params.to_dict()
        assert payload["lambda"] == [0.5, 0.3, 0.15, 0.05]
        angles = {name: payload[name] for name in ("theta1", "theta2", "xi1", "xi2", "phi1", "phi2")}
        back = CosetParams(**angles, lam=payload["lambda"])
        assert back.angles == params.angles
        assert np.array_equal(back.lam, params.lam)
