import numpy as np
import pytest

from conftest import random_hermitian, random_symmetric
from qrobust.numerics import (
    NonHermitianInput,
    NonSymmetricInput,
    hermitian_eig,
    hermitian_eig_stack,
    takagi,
    takagi_stack,
)
from qrobust.states import SIGMA_YY


class TestHermitianEig:
    def test_identity(self):
        evals, vecs = hermitian_eig(np.eye(4))
        assert np.allclose(evals, 1.0, atol=0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(4), atol=1e-12)

    def test_diagonal_already_sorted(self):
        evals, vecs = hermitian_eig(np.diag([3.0, 2.0, 1.0, 0.0]))
        assert np.array_equal(evals, [3.0, 2.0, 1.0, 0.0])
        assert np.array_equal(vecs, np.eye(4))

    def test_sigma_yy_spectrum(self):
        evals, _ = hermitian_eig(SIGMA_YY)
        assert np.allclose(evals, [1.0, 1.0, -1.0, -1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(NonHermitianInput):
            hermitian_eig(m)

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex)
        m[2, 2] = np.nan
        with pytest.raises(ValueError):
            hermitian_eig(m)

    def test_orientation_largest_component_real_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            _, vecs = hermitian_eig(random_hermitian(rng))
            for i in range(4):
                j = int(np.argmax(np.abs(vecs[:, i])))
                assert vecs[j, i].real > 0
                assert abs(vecs[j, i].imag) <= 1e-12

    def test_determinism(self):
        h = random_hermitian(np.random.default_rng(11))
        first = hermitian_eig(h)
        second = hermitian_eig(h)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestTakagi:
    def _check(self, s, atol=1e-9):
        w, d = takagi(s)
        assert np.max(np.abs(w @ s @ w.T - np.diag(d))) <= atol
        assert np.max(np.abs(w.conj().T @ w - np.eye(4))) <= 1e-10
        assert np.all(d >= 0) and np.all(np.diff(d) <= 0)
        return w, d

    def test_real_nonnegative_diagonal(self):
        w, d = self._check(np.diag([2.0, 1.0, 0.5, 0.0]).astype(complex))
        assert np.allclose(d, [2.0, 1.0, 0.5, 0.0], atol=1e-12)

    def test_imaginary_identity(self):
        _, d = self._check(1j * np.eye(4))
        assert np.allclose(d, 1.0, atol=1e-12)

    def test_antidiagonal_permutation(self):
        _, d = self._check(np.fliplr(np.eye(4)).astype(complex))
        assert np.allclose(d, 1.0, atol=1e-12)

    def test_zero_matrix(self):
        w, d = takagi(np.zeros((4, 4)))
        assert np.array_equal(d, np.zeros(4))
        assert np.max(np.abs(w.conj().T @ w - np.eye(4))) <= 1e-12

    def test_rejects_non_symmetric(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NonSymmetricInput):
            takagi(m)

    def test_near_degenerate_clusters(self):
        rng = np.random.default_rng(9)
        for gap in (1e-5, 1e-7, 1e-9, 0.0):
            q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            s = q.T @ np.diag([1.0, 1.0 + gap, 0.5, 0.25]) @ q
            self._check(0.5 * (s + s.T))

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 1e-14, 0.0]])
    def test_singular_values_at_rounding_level(self, diagonal):
        # d = sqrt(eig(S conj(S))) resolves zeros only to about 1.5e-8 d_1, so
        # two or more of them must not be taken for a cluster and re-factored
        rng = np.random.default_rng(0)
        for _ in range(4):
            q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            _, d = self._check(q.T @ np.diag(diagonal) @ q)
            assert np.allclose(d, diagonal, atol=1e-14)

    def test_determinism(self):
        s = random_symmetric(np.random.default_rng(5))
        first = takagi(s)
        second = takagi(s)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


def test_stacks_equal_single_calls_bit_for_bit():
    rng = np.random.default_rng(21)
    hermitian = [random_hermitian(rng) for _ in range(20)] + [np.eye(4), SIGMA_YY]
    symmetric = [random_symmetric(rng) for _ in range(20)] + [np.zeros((4, 4)), 1j * np.eye(4)]
    evals, vecs, errors = hermitian_eig_stack(np.array(hermitian, dtype=complex))
    assert errors == [None] * len(hermitian)
    for i, h in enumerate(hermitian):
        e, v = hermitian_eig(h)
        assert e.tobytes() == evals[i].tobytes() and v.tobytes() == vecs[i].tobytes()
    w_stack, d_stack, errors = takagi_stack(np.array(symmetric, dtype=complex))
    assert errors == [None] * len(symmetric)
    for i, s in enumerate(symmetric):
        w, d = takagi(s)
        assert w.tobytes() == w_stack[i].tobytes() and d.tobytes() == d_stack[i].tobytes()
