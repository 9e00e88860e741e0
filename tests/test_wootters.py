import numpy as np
import pytest

from conftest import concurrence_by_spectrum, ginibre_states
from qrobust import concurrence, coset, decompose, numerics, oracle, wootters
from qrobust.coset import CosetParams, density_from_params
from qrobust.robustness import robustness_stack
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
from qrobust.wootters import TIE, decompose_stack

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
        for rho in ginibre_states(200):
            assert abs(concurrence(rho) - concurrence_by_spectrum(rho.matrix)) <= 1e-10


def tilde_distances(pairs):
    """The tilde norm of a - b for each pair (a, b) of states, in one stacked call."""
    return wootters._tilde_norms(np.array([a.matrix - b.matrix for a, b in pairs]))


class TestTildeNormAndDistance:
    def test_zero_matrix(self):
        assert wootters._tilde_norms(np.zeros((4, 4))) == 0.0

    def test_singlet_projector(self):
        assert abs(wootters._tilde_norms(SINGLET.matrix) - 1.0) <= 1e-12

    def test_identity(self):
        assert abs(wootters._tilde_norms(np.eye(4)) - 2.0) <= 1e-12

    def test_distance_zero_iff_equal(self):
        rho = sample_state("ginibre", 4)
        same, other = tilde_distances([(rho, rho), (rho, MIXED)])
        assert same == 0.0
        assert other > 1e-3

    def test_distance_local_invariance(self):
        rng = np.random.default_rng(1)
        lu = random_local_unitary(rng)
        d0, d1 = tilde_distances([(SINGLET, MIXED),
                                  (apply_local_unitary(SINGLET, lu), apply_local_unitary(MIXED, lu))])
        assert abs(d1 - d0) <= 1e-9

    def test_bell_diagonal_distance_closed_form(self):
        a = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))
        b = bell_diagonal(BellWeights(np.array([0.6, 0.2, 0.1, 0.1])))
        # both commute with the flip, so the distance is the weight distance
        assert abs(tilde_distances([(a, b)])[0] - np.sqrt(0.02)) <= 1e-12


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


def _runs(tied):
    """Index lists of the runs of two or more neighbours that the flags ``tied`` join."""
    runs, start = [], 0
    for j, joined in enumerate([*tied, False]):
        if not joined:
            if j > start:
                runs.append(list(range(start, j + 1)))
            start = j + 1
    return runs


def _per_entry_rule(x, tied):
    """Steps 1 and 2 of the tie rule one entry, cluster and group at a time."""
    for i in np.flatnonzero(tied.any(axis=1)):
        for cluster in _runs(tied[i]):
            xc = x[i][:, cluster]
            k, rot = numerics._eigh_descending((xc.conj().T @ xc).real)
            xc = xc @ rot
            for group in _runs(k[:-1] - k[1:] <= TIE * k[0]):
                xg = xc[:, group]
                coeffs = (wootters._MAGIC_ADJOINT @ xg).real
                rows = np.sort(np.argsort(-np.sum(coeffs ** 2, axis=1), kind="stable")[:len(group)])
                xc[:, group] = xg @ np.linalg.qr(coeffs[rows].T)[0]
            x[i][:, cluster] = xc


class TestStackedTieRule:
    """``decompose_stack`` runs the tie rule as one pass per pattern of ties.
    One stack holds all seven patterns of lambda ties inside the rank, with
    tied, unequal and untied K_i in them; each entry must get the bits of its
    own ``decompose`` call, in either order of the stack."""

    @staticmethod
    def _stack():
        angles = dict(theta1=0.4, theta2=-0.2, xi1=0.3, xi2=0.1, phi1=0.25, phi2=-0.5)
        coset_lams = ([0.55, 0.15, 0.15, 0.15],                     # tied cluster, unequal K
                      [0.55, 0.15 + 2.2e-8, 0.15, 0.15 - 2.2e-8],   # near tie: not rotated
                      [0.4, 0.4, 0.1, 0.1])
        bell = [bell_diagonal(BellWeights(np.array(w))).matrix for w in TIED_WEIGHTS + ([0.4, 0.4, 0.1, 0.1],)]
        ginibre = [rho.matrix for rho in ginibre_states(30)]
        certs = robustness_stack(np.array(bell + ginibre))
        # rho'' vertices: tied lambdas, with tied K_i (Bell diagonal) or unequal K_i (Ginibre)
        vertices = list(certs.rho_pp[certs.s > 0.0])
        rotated = apply_local_unitary(BELL_07, random_local_unitary(np.random.default_rng(4))).matrix
        cosets = [density_from_params(CosetParams(**angles, lam=np.array(lam))).matrix for lam in coset_lams]
        return np.array(bell + ginibre + vertices + cosets + [rotated, MIXED.matrix, SINGLET.matrix])

    def test_every_entry_gets_the_bits_of_its_own_call(self):
        matrices = self._stack()
        dec, rev = decompose_stack(matrices), decompose_stack(matrices[::-1])
        tied = (-np.diff(dec.lambdas) <= TIE * dec.lambdas[:, :1]) & (np.arange(1, 4) < dec.rank[:, None])
        assert set((tied @ [1, 2, 4]).tolist()) == set(range(8))
        for i, rho in enumerate(matrices):
            one = decompose(DensityMatrix(rho))
            for field in ("lambdas", "x", "k_norm", "p_coord"):
                assert np.array_equal(getattr(dec, field)[i], getattr(one, field), equal_nan=True), (i, field)
                assert np.array_equal(getattr(rev, field)[-1 - i], getattr(one, field), equal_nan=True), (i, field)

    def test_stacked_passes_match_the_per_entry_loop(self, monkeypatch):
        matrices = self._stack()
        dec = decompose_stack(matrices)
        monkeypatch.setattr(wootters, "_fix_free_rotations", _per_entry_rule)
        reference = decompose_stack(matrices)
        for field in ("lambdas", "x", "k_norm", "p_coord"):
            assert np.array_equal(getattr(dec, field), getattr(reference, field), equal_nan=True), field


class TestStress:
    """Seeded states whose Takagi input has clusters of singular values that
    sqrt(eig(S conj(S))) cannot separate from zero: near-pure states carry a
    tied triple at eps/4, and the sum of lambda_i K_i is 1, so large-K coset
    states have lambdas of 1e-10 to 1e-6 (946 of these 1150) that form one
    cluster."""

    @staticmethod
    def _check_full_rank(matrices):
        # <x'_i|~x'_j> = delta_ij, to rounding of |x'_i| |x'_j| = sqrt(K_i K_j)
        certs = robustness_stack(matrices)
        assert all(error is None for error in certs.errors)
        dec = certs.decomposition
        xp = dec.x / np.sqrt(dec.lambdas)[:, None, :]
        gram = np.conj(xp.swapaxes(-1, -2) @ SIGMA_YY @ xp)
        scale = np.sqrt(dec.k_norm[:, :, None] * dec.k_norm[:, None, :])
        assert np.max(np.abs(gram - np.eye(4)) / scale) <= DEFAULT.defining_relation
        _, errors = oracle.relative_robustness_stack(matrices, certs.rho_pp)
        assert errors == [None] * len(matrices)

    @pytest.mark.parametrize("eps", [1e-7, 3e-7, 1e-6])
    def test_near_pure_states(self, eps):
        rng = np.random.default_rng(0)
        phi = BELL_STATES[:, 0]
        near_pure = DensityMatrix((1.0 - eps) * np.outer(phi, phi.conj()) + eps * np.eye(4) / 4.0)
        self._check_full_rank(np.array([apply_local_unitary(near_pure, random_local_unitary(rng)).matrix
                                        for _ in range(10)]))

    def test_large_k_coset_states(self):
        # angles up to 6: K_i up to about 1e10; 1150 of the 2000 states are full rank
        angles, lam = coset._draw_rows(np.random.default_rng(11), 2000, 6.0, 0.05)
        matrices = coset.density_stack(angles, lam)[0]
        full = robustness_stack(matrices).decomposition.rank == 4
        assert full.sum() == 1150
        self._check_full_rank(matrices[full])
