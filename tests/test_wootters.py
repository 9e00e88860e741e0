import numpy as np
import pytest

from conftest import concurrence_by_spectrum, ginibre_corpus
from qrobust import concurrence, decompose, tilde_distance, tilde_norm
from qrobust.coset import CosetParams, density_from_params
from qrobust.states import (
    BELL_STATES,
    SIGMA_YY,
    BellWeights,
    DensityMatrix,
    apply_local_unitary,
    bell_diagonal,
    random_local_unitary,
    sample_state,
    spin_flip,
    werner,
)
from qrobust.tolerances import DEFAULT

MIXED = DensityMatrix(np.eye(4) / 4.0)
SINGLET = werner(1.0)
BELL_07 = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))


def tilde_gram(x):
    """<x_i|~x_j> for the columns of x."""
    return np.conj(x.T @ SIGMA_YY @ x)


class TestDecompose:
    def test_bell_diagonal_weights_and_unit_k(self):
        dec = decompose(BELL_07)
        assert np.max(np.abs(dec.lambdas - [0.7, 0.1, 0.1, 0.1])) <= 1e-12
        assert np.max(np.abs(dec.k_norm - 1.0)) <= 1e-12
        assert dec.rank == 4

    def test_maximally_mixed(self):
        # rho rho~ = I/16, so all lambdas are 1/4
        product = MIXED.matrix @ spin_flip(MIXED)
        assert np.allclose(product, np.eye(4) / 16.0, atol=0)
        dec = decompose(MIXED)
        assert np.max(np.abs(dec.lambdas - 0.25)) <= 1e-12
        assert dec.concurrence == 0.0
        assert abs(dec.p_coord.sum() - 1.0) <= 1e-9

    def test_product_state_is_nilpotent(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]))
        assert np.max(np.abs(rho.matrix @ spin_flip(rho))) == 0.0
        dec = decompose(rho)
        assert np.array_equal(dec.lambdas, np.zeros(4))
        assert dec.concurrence == 0.0
        assert dec.rank == 0
        assert np.array_equal(dec.x, np.zeros((4, 4)))
        assert np.all(np.isnan(dec.k_norm))

    def test_pure_entangled_state_rank_one(self):
        dec = decompose(SINGLET)
        assert np.max(np.abs(dec.lambdas - [1.0, 0, 0, 0])) <= 1e-9
        assert dec.rank == 1
        assert abs(dec.k_norm[0] - 1.0) <= 1e-9
        assert np.all(np.isnan(dec.k_norm[1:]))
        assert np.array_equal(dec.x[:, 1:], np.zeros((4, 3)))

    def test_defining_relation_and_reconstruction(self):
        for rho in ginibre_corpus(300):
            dec = decompose(rho)
            assert np.max(np.abs(tilde_gram(dec.x) - np.diag(dec.lambdas))) <= 1e-9
            assert np.max(np.abs(dec.x @ dec.x.conj().T - rho.matrix)) <= 1e-9
            assert np.all(np.diff(dec.lambdas) <= 0)
            assert abs(dec.p_coord.sum() - 1.0) <= 1e-9

    def test_moment_identity(self):
        for rho in ginibre_corpus(100):
            dec = decompose(rho)
            power = np.eye(4, dtype=complex)
            product = rho.matrix @ spin_flip(rho)
            for m in range(1, 5):
                power = power @ product
                assert abs(np.trace(power).real - np.sum(dec.lambdas ** (2 * m))) <= 1e-8

    def test_normalized_vectors_tilde_orthonormal(self):
        for rho in ginibre_corpus(100):
            dec = decompose(rho)
            assert dec.rank == 4
            assert np.max(np.abs(tilde_gram(dec.x_prime()) - np.eye(4))) <= 1e-9

    def test_determinism(self):
        rho = sample_state("ginibre", 77)
        a, b = decompose(rho), decompose(rho)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.x, b.x)

    def test_report_serializable(self):
        import json

        dec = decompose(SINGLET)
        report = dec.to_report()
        assert json.loads(json.dumps(report))["rank"] == 1
        assert report["k_norm"][1] is None


class TestConcurrence:
    def test_singlet_is_maximal(self):
        assert abs(concurrence(SINGLET) - 1.0) <= 1e-12
        assert abs(concurrence_by_spectrum(SINGLET.matrix) - 1.0) <= 1e-12

    def test_maximally_mixed_is_zero(self):
        assert concurrence(MIXED) == 0.0

    def test_werner_closed_form(self):
        rho = werner(0.8)
        assert abs(concurrence(rho) - 0.7) <= 1e-12
        assert abs(concurrence_by_spectrum(rho.matrix) - 0.7) <= 1e-12

    def test_matches_independent_spectrum_route(self):
        for rho in ginibre_corpus(200):
            assert abs(concurrence(rho) - concurrence_by_spectrum(rho.matrix)) <= 1e-10

    def test_range_and_local_invariance(self):
        rng = np.random.default_rng(8)
        for rho in ginibre_corpus(100):
            c = concurrence(rho)
            assert 0.0 <= c <= 1.0
            rotated = apply_local_unitary(rho, random_local_unitary(rng))
            assert abs(concurrence(rotated) - c) <= 1e-9


class TestTildeNormAndDistance:
    def test_zero_matrix(self):
        assert tilde_norm(np.zeros((4, 4))) == 0.0

    def test_singlet_projector(self):
        assert abs(tilde_norm(SINGLET.matrix) - 1.0) <= 1e-12

    def test_identity(self):
        assert abs(tilde_norm(np.eye(4)) - 2.0) <= 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g + g.conj().T
            u = random_local_unitary(rng).product()
            n0 = tilde_norm(m)
            n1 = tilde_norm(u @ m @ u.conj().T)
            assert abs(n1 - n0) <= 1e-9 * max(n0, 1.0)

    def test_distance_zero_iff_equal(self):
        rho = sample_state("ginibre", 4)
        assert tilde_distance(rho, rho) == 0.0
        assert tilde_distance(rho, MIXED) > 1e-3

    def test_distance_local_invariance(self):
        rng = np.random.default_rng(1)
        lu = random_local_unitary(rng)
        d0 = tilde_distance(SINGLET, MIXED)
        d1 = tilde_distance(apply_local_unitary(SINGLET, lu), apply_local_unitary(MIXED, lu))
        assert abs(d1 - d0) <= 1e-9

    def test_bell_diagonal_distance_closed_form(self):
        a = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))
        b = bell_diagonal(BellWeights(np.array([0.6, 0.2, 0.1, 0.1])))
        # both commute with the flip, so the distance is the weight distance
        assert abs(tilde_distance(a, b) - np.sqrt(0.02)) <= 1e-12


MAGIC = BELL_STATES * np.array([1j, 1.0, 1j, 1.0])[None, :]
TIED_WEIGHTS = (
    [0.4, 0.4, 0.15, 0.05],     # two-fold ties
    [0.5, 0.2, 0.2, 0.1],
    [0.45, 0.35, 0.1, 0.1],
    [0.7, 0.1, 0.1, 0.1],       # three-fold ties
    [0.3, 0.3, 0.3, 0.1],
    [0.25, 0.25, 0.25, 0.25],   # four-fold tie
)


class TestDegeneracyRule:
    @pytest.mark.parametrize("weights", TIED_WEIGHTS)
    def test_bell_diagonal_ties_give_bell_states_in_bell_order(self, weights):
        dec = decompose(bell_diagonal(BellWeights(np.array(weights))))
        assert dec.rank == 4
        # column i is sqrt(p_i) times the flip-invariant Bell state psi_i
        assert np.max(np.abs(dec.x - MAGIC * np.sqrt(weights)[None, :])) <= 1e-12

    @pytest.mark.parametrize("weights", TIED_WEIGHTS)
    def test_two_construction_routes_agree(self, weights):
        direct = bell_diagonal(BellWeights(np.array(weights)))
        zero_angles = dict(theta1=0.0, theta2=0.0, xi1=0.0, xi2=0.0, phi1=0.0, phi2=0.0)
        via_orbit = density_from_params(CosetParams(**zero_angles, lam=np.array(weights)))
        assert np.max(np.abs(direct.matrix - via_orbit.matrix)) <= 1e-15
        a, b = decompose(direct), decompose(via_orbit)
        assert np.max(np.abs(a.x - b.x)) <= 1e-12
        assert np.max(np.abs(a.k_norm - b.k_norm)) <= 1e-12

    def test_routes_differ_in_the_last_bits(self):
        # the agreement above is not a tautology: the two matrices are not bit-equal
        zero_angles = dict(theta1=0.0, theta2=0.0, xi1=0.0, xi2=0.0, phi1=0.0, phi2=0.0)
        differ = 0
        for weights in TIED_WEIGHTS:
            direct = bell_diagonal(BellWeights(np.array(weights)))
            via_orbit = density_from_params(CosetParams(**zero_angles, lam=np.array(weights)))
            differ += not np.array_equal(direct.matrix, via_orbit.matrix)
        assert differ > 0

    def test_local_unitary_copy_keeps_tied_k(self):
        # a rotated Bell-diagonal state still has unit K_i and the same weights
        rho = apply_local_unitary(BELL_07, random_local_unitary(np.random.default_rng(4)))
        dec = decompose(rho)
        assert np.max(np.abs(dec.lambdas - [0.7, 0.1, 0.1, 0.1])) <= 1e-12
        assert np.max(np.abs(dec.k_norm - 1.0)) <= 1e-12
        assert np.max(np.abs(tilde_gram(dec.x) - np.diag(dec.lambdas))) <= 1e-12

    def test_tied_cluster_k_come_out_descending(self):
        # equal lambdas, unequal K: the cluster's K_i are sorted descending
        angles = dict(theta1=0.4, theta2=-0.2, xi1=0.3, xi2=0.1, phi1=0.25, phi2=-0.5)
        params = CosetParams(**angles, lam=np.array([0.55, 0.15, 0.15, 0.15]))
        dec = decompose(density_from_params(params))
        assert np.max(np.abs(np.diff(dec.lambdas[1:]))) <= 1e-12
        assert np.all(np.diff(dec.k_norm[1:]) <= 0.0)
        assert np.max(np.abs(tilde_gram(dec.x) - np.diag(dec.lambdas))) <= DEFAULT.defining_relation
        assert np.max(np.abs(dec.x @ dec.x.conj().T - density_from_params(params).matrix)) <= 1e-12

    def test_near_tie_is_not_rotated(self):
        # lambdas 1e-8 apart are distinct: rotating them together would break
        # the defining relation at the 1e-8 level
        angles = dict(theta1=0.4, theta2=-0.2, xi1=0.3, xi2=0.1, phi1=0.25, phi2=-0.5)
        params = CosetParams(**angles, lam=np.array([0.55, 0.15 + 2.2e-8, 0.15, 0.15 - 2.2e-8]))
        rho = density_from_params(params)
        dec = decompose(rho)
        gaps = -np.diff(dec.lambdas[1:])
        assert np.all(gaps > 5e-9) and np.all(gaps < 2e-8)
        assert np.max(np.abs(tilde_gram(dec.x) - np.diag(dec.lambdas))) <= DEFAULT.defining_relation
        assert np.max(np.abs(dec.x @ dec.x.conj().T - rho.matrix)) <= DEFAULT.reconstruction

    def test_tied_cluster_basis_gives_the_smallest_pair_sum(self):
        # any other real rotation of the tied cluster gives pair sums no smaller
        angles = dict(theta1=0.4, theta2=-0.2, xi1=0.3, xi2=0.1, phi1=0.25, phi2=-0.5)
        params = CosetParams(**angles, lam=np.array([0.55, 0.15, 0.15, 0.15]))
        dec = decompose(density_from_params(params))
        k = dec.k_norm
        best = min(k[1] + k[2], k[1] + k[3], k[2] + k[3])
        rng = np.random.default_rng(12)
        for _ in range(200):
            rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            xc = dec.x[:, 1:] @ rot
            kc = np.sum(np.abs(xc) ** 2, axis=0) / dec.lambdas[1:]
            assert min(kc[0] + kc[1], kc[0] + kc[2], kc[1] + kc[2]) >= best - 1e-12
