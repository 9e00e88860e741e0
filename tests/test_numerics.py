import numpy as np
import pytest

from conftest import random_hermitian, random_symmetric
from qrobust.numerics import NonHermitianInput, NonSymmetricInput, TAKAGI_CLUSTER, hermitian_eig_stack, takagi_stack
from qrobust.states import SIGMA_YY


def stack(*matrices):
    return np.array(matrices, dtype=complex)


class TestHermitianEig:
    def test_identity(self):
        evals, vecs, _ = hermitian_eig_stack(stack(np.eye(4)))
        assert np.allclose(evals, 1.0, atol=0)
        assert np.allclose(vecs[0].conj().T @ vecs[0], np.eye(4), atol=1e-12)

    def test_diagonal_already_sorted(self):
        evals, vecs, _ = hermitian_eig_stack(stack(np.diag([3.0, 2.0, 1.0, 0.0])))
        assert np.array_equal(evals[0], [3.0, 2.0, 1.0, 0.0])
        assert np.array_equal(vecs[0], np.eye(4))

    def test_sigma_yy_spectrum(self):
        evals, _, _ = hermitian_eig_stack(stack(SIGMA_YY))
        assert np.allclose(evals[0], [1.0, 1.0, -1.0, -1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-6
        _, _, errors = hermitian_eig_stack(stack(np.eye(4), m))
        assert errors[0] is None and isinstance(errors[1], NonHermitianInput)

    def test_orientation_largest_component_real_positive(self):
        rng = np.random.default_rng(3)
        _, vecs, _ = hermitian_eig_stack(stack(*(random_hermitian(rng) for _ in range(50))))
        pivots = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], axis=1)
        assert np.all(pivots.real > 0)
        assert np.max(np.abs(pivots.imag)) <= 1e-12

    def test_determinism(self):
        h = stack(random_hermitian(np.random.default_rng(11)))
        first = hermitian_eig_stack(h)
        second = hermitian_eig_stack(h)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


class TestTakagi:
    def _check(self, s, atol=1e-9):
        w, d, errors = takagi_stack(stack(s))
        assert errors == [None]
        w, d = w[0], d[0]
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
        w, d, _ = takagi_stack(stack(np.zeros((4, 4))))
        assert np.array_equal(d[0], np.zeros(4))
        assert np.max(np.abs(w[0].conj().T @ w[0] - np.eye(4))) <= 1e-12

    def test_rejects_non_symmetric(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        _, _, errors = takagi_stack(stack(np.zeros((4, 4)), m))
        assert errors[0] is None and isinstance(errors[1], NonSymmetricInput)
    def test_near_degenerate_clusters(self):
        rng = np.random.default_rng(9)
        for gap in (1e-5, 1e-7, 1e-9, 0.0):
            q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            s = q.T @ np.diag([1.0, 1.0 + gap, 0.5, 0.25]) @ q
            self._check(0.5 * (s + s.T))

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 1e-14, 0.0]])
    def test_singular_values_at_rounding_level(self, diagonal):
        # d = sqrt(eig(S conj(S))) resolves zeros only to about 1.5e-8 d_1, so
        # they form one cluster, and its re-factorization (a zero block of
        # T = V^H S conj(V)) must still be completed to a unitary w
        rng = np.random.default_rng(0)
        for _ in range(4):
            q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            _, d = self._check(q.T @ np.diag(diagonal) @ q)
            assert np.allclose(d, diagonal, atol=1e-14)

    @pytest.mark.parametrize("diagonal", [
        [1.0, 0.5, 5e-8, 5e-8], [1.0, 0.5, 1e-8, 1e-8], [1.0, 0.5, 1e-9, 1e-9], [1.0, 1.0, 1e-7, 1e-7],
        [1.0, 1.0, 1.0 - 1.01 * TAKAGI_CLUSTER, 1.0 - 1.01 * TAKAGI_CLUSTER],
    ], ids=["pair_5e-8", "pair_1e-8", "pair_1e-9", "pairs_1_and_1e-7", "pairs_just_over_the_gap"])
    def test_tied_pairs(self, diagonal):
        # a tied pair that sqrt(eig(S conj(S))) resolves only to about
        # 1.5e-8 d_1 is still re-factored as a cluster; two pairs just over
        # the cluster gap stay two clusters, at gap-limited rounding (3e-10)
        rng = np.random.default_rng(3)
        for _ in range(4):
            q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            _, d = self._check(q.T @ np.diag(diagonal) @ q)
            assert np.max(np.abs(d - diagonal)) <= 1e-14

    def test_determinism(self):
        s = stack(random_symmetric(np.random.default_rng(5)))
        first = takagi_stack(s)
        second = takagi_stack(s)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])


def test_stacks_equal_single_calls_bit_for_bit():
    # each entry of a stack gets the bits of its own N = 1 stack call
    rng = np.random.default_rng(21)
    hermitian = stack(*(random_hermitian(rng) for _ in range(20)), np.eye(4), SIGMA_YY)
    symmetric = stack(*(random_symmetric(rng) for _ in range(20)), np.zeros((4, 4)), 1j * np.eye(4))
    evals, vecs, errors = hermitian_eig_stack(hermitian)
    assert errors == [None] * len(hermitian)
    for i in range(len(hermitian)):
        e, v, _ = hermitian_eig_stack(hermitian[i:i + 1])
        assert e.tobytes() == evals[i:i + 1].tobytes() and v.tobytes() == vecs[i:i + 1].tobytes()
    w_stack, d_stack, errors = takagi_stack(symmetric)
    assert errors == [None] * len(symmetric)
    for i in range(len(symmetric)):
        w, d, _ = takagi_stack(symmetric[i:i + 1])
        assert w.tobytes() == w_stack[i:i + 1].tobytes() and d.tobytes() == d_stack[i:i + 1].tobytes()
