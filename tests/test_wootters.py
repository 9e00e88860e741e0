import numpy as np
import pytest

from conftest import concurrence_by_spectrum, ginibre_states, rotate_locally
from qrobust import coset, decompose, numerics, oracle, states, wootters
from qrobust.coset import CosetParams, density_from_params
from qrobust.robustness import robustness_stack
from qrobust.states import (
    BELL_STATES,
    SIGMA_YY,
    BellWeights,
    DensityMatrix,
    bell_diagonal,
    sample_state,
    tilde_matrix,
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
        product = MIXED.matrix @ tilde_matrix(MIXED.matrix)
        assert np.allclose(product, np.eye(4) / 16.0, atol=0)
        dec = decompose(MIXED)
        assert np.max(np.abs(dec.lambdas - 0.25)) <= 1e-12
        assert dec.concurrence == 0.0
        assert abs(dec.p_coord.sum() - 1.0) <= 1e-9

    def test_product_state_is_nilpotent(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]))
        assert np.max(np.abs(rho.matrix @ tilde_matrix(rho.matrix))) == 0.0
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
        assert abs(decompose(SINGLET).concurrence - 1.0) <= 1e-12
        assert abs(concurrence_by_spectrum(SINGLET.matrix) - 1.0) <= 1e-12

    def test_maximally_mixed_is_zero(self):
        assert decompose(MIXED).concurrence == 0.0

    def test_werner_closed_form(self):
        rho = werner(0.8)
        assert abs(decompose(rho).concurrence - 0.7) <= 1e-12
        assert abs(concurrence_by_spectrum(rho.matrix) - 0.7) <= 1e-12

    def test_matches_independent_spectrum_route(self):
        for rho in ginibre_states(200):
            assert abs(decompose(rho).concurrence - concurrence_by_spectrum(rho.matrix)) <= 1e-10


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
        # generators with one seed draw one unitary for both states
        d0, d1 = tilde_distances([(SINGLET, MIXED), (rotate_locally(SINGLET, np.random.default_rng(1)),
                                                     rotate_locally(MIXED, np.random.default_rng(1)))])
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
        rho = rotate_locally(BELL_07, np.random.default_rng(4))
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

    def test_written_rule_alone_fixes_the_decomposition(self, monkeypatch):
        # the eigensolver's column phases (signs, for real input) are free:
        # randomizing them moves x, lambda and K only by rounding
        pure = np.array([0.8, 0.3j, -0.2, 0.1 + 0.4j])
        pure /= np.linalg.norm(pure)
        matrices = np.concatenate([
            states.sample_stack("ginibre", range(200)).matrices,
            states.sample_stack("bures", range(200)).matrices,
            [bell_diagonal(BellWeights(np.array(w))).matrix for w in TIED_WEIGHTS],
            [werner(0.8).matrix, SINGLET.matrix, np.outer(pure, pure.conj())],
        ])
        assert len(matrices) == 409
        reference = decompose_stack(matrices)
        rng = np.random.default_rng(5)
        eigh = numerics._eigh_descending

        def rephased(h):
            evals, v = eigh(h)
            if np.iscomplexobj(v):
                phases = np.exp(2j * np.pi * rng.uniform(size=evals.shape))
            else:
                phases = rng.choice([-1.0, 1.0], size=evals.shape)
            return evals, v * phases[..., None, :]

        monkeypatch.setattr(numerics, "_eigh_descending", rephased)
        moved = decompose_stack(matrices)
        assert moved.errors == reference.errors == [None] * len(matrices)
        assert np.array_equal(moved.rank, reference.rank)
        assert np.max(np.abs(moved.x - reference.x)) <= 1e-12
        assert np.max(np.abs(moved.lambdas - reference.lambdas)) <= 1e-12
        k_moved, k_ref = moved.k_norm, reference.k_norm
        assert np.array_equal(np.isnan(k_moved), np.isnan(k_ref))
        inside = ~np.isnan(k_ref)
        assert np.max(np.abs(k_moved[inside] - k_ref[inside]) / k_ref[inside]) <= 1e-10


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
        rotated = rotate_locally(BELL_07, np.random.default_rng(4)).matrix
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
    states have lambdas of 1e-8 to 1e-6 (126 of these 212)."""

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
        self._check_full_rank(np.array([rotate_locally(near_pure, rng).matrix for _ in range(10)]))

    def test_large_k_coset_states(self):
        # angles up to 6: orbit K_i up to about 6e13; the 212 of the 2000 states
        # that are full rank have K_i up to 1.5e6, and recover them
        angles, lam = coset._draw_rows(np.random.default_rng(11), 2000, 6.0, 0.05)
        matrices = coset.density_stack(angles, lam)[0]
        dec = robustness_stack(matrices).decomposition
        full = dec.rank == 4
        assert full.sum() == 212
        k = coset._k_stack(angles[full])
        assert np.max(np.abs(dec.k_norm[full] - k) / k) <= 1e-2
        self._check_full_rank(matrices[full])


def test_rank_cut_keeps_rank_deficient_states_and_certifies_full_rank_bures():
    # pure states down to C = 2e-7, product states (rank 0, lambda_1 at
    # rounding level) and nearly product rank-2 and rank-3 mixtures (lambda_1
    # down to about 3e-4) keep their rank, and full-rank Bures draws with
    # lambda_4 of 3.8e-12 to 3.1e-9 (4.7e-12 to 4.7e-9 of rho's largest
    # eigenvalue) stay above the cut, with a certificate the bisection confirms
    rng = np.random.default_rng(0)
    n = 1000

    def haar(k):
        kets = rng.standard_normal((k, n, 4)) + 1j * rng.standard_normal((k, n, 4))
        return kets / np.linalg.norm(kets, axis=-1, keepdims=True)

    def mix(kets, weights):
        # sum_k w_k |k><k|, each entry turned by its own local unitary
        rho = np.einsum("kn,kni,knj->nij", weights, kets, kets.conj())
        u = np.array([np.kron(*pair) for pair in states._su2_pairs(rng, n)])
        return u @ rho @ u.conj().swapaxes(-1, -2)

    t = np.exp(rng.uniform(np.log(1e-4), np.log(np.pi / 4.0), n))
    schmidt = np.zeros((1, n, 4))
    schmidt[0, :, 0], schmidt[0, :, 3] = np.cos(t), np.sin(t)
    near = np.zeros((3, n, 4), complex)
    near[..., :2] = haar(3)[..., :2]  # |0>|b_k>, then a 1e-3 admixture
    near += 1e-3 * haar(3)
    near /= np.linalg.norm(near, axis=-1, keepdims=True)
    p = rng.uniform(0.55, 0.95, n)
    pairs = np.array([p, 1.0 - p])
    rank1 = np.concatenate((mix(haar(1), np.ones((1, n))), mix(schmidt, np.ones((1, n)))))
    rank2 = np.concatenate((mix(haar(2), pairs), mix(near[:2], pairs)))
    rank3 = mix(near, rng.dirichlet(np.ones(3), n).T)
    rotations = np.array([np.kron(*pair) for pair in states._su2_pairs(rng, 2000)])

    def rotated(ket):
        psi = rotations @ ket
        return psi[:, :, None] * psi[:, None, :].conj()

    weak = np.concatenate([rotated(np.array([np.cos(t), 0.0, 0.0, np.sin(t)])) for t in (1e-4, 3e-5, 1e-5, 1e-7)])
    product = rotated(np.array([1.0, 0.0, 0.0, 0.0]))
    for stack, rank in ((rank1, 1), (weak, 1), (product, 0), (rank2, 2), (rank3, 3)):
        assert np.all(decompose_stack(stack).rank == rank)
    assert decompose_stack(product).lambdas[:, 0].max() <= 1e-14
    seeds = (61, 697, 5342, 9626, 13218, 14862)
    matrices = np.array([sample_state("bures", seed).matrix for seed in seeds])
    certs = robustness_stack(matrices)
    assert certs.decomposition.rank.tolist() == [4] * len(seeds)
    s_bisection, errors = oracle.relative_robustness_stack(matrices, certs.rho_pp)
    assert errors == [None] * len(seeds)
    assert np.max(np.abs(s_bisection - certs.s)) <= 1e-6
