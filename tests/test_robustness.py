import numpy as np
import pytest

from conftest import ginibre_states
from test_wootters import TIED_WEIGHTS
from qrobust import decompose, wootters
from qrobust.coset import CosetParams, _k_stack, density_from_params
from qrobust.robustness import (
    _VERTEX_COLUMNS,
    RankDeficient,
    _pair_vertices,
    _plane_robustness,
    robustness,
    robustness_stack,
)
from qrobust.states import (
    BellWeights,
    DensityMatrix,
    bell_diagonal,
    is_separable_ppt,
    sample_state,
    werner,
)
from qrobust.tolerances import DEFAULT

MIXED = DensityMatrix(np.eye(4) / 4.0)
BELL_07 = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))


def entangled_corpus(n):
    out = []
    for rho in ginibre_states(n):
        cert = robustness(rho)
        if cert.s > 0.0:
            out.append((rho, cert))
    return out


def decompositions(states):
    return wootters.decompose_stack(np.array([rho.matrix for rho in states]))


def vertices(dec):
    """sigma_1, sigma_2, sigma_3, sigma_4 of one full-rank decomposition, as
    one (4, 4, 4) stack."""
    xp = np.broadcast_to(wootters._x_prime(dec.x, dec.lambdas), (4, 4, 4))
    return _pair_vertices(xp, np.broadcast_to(dec.k_norm, (4, 4)), *_VERTEX_COLUMNS[1:].T)


class TestSigmaVertex:
    def test_bell_diagonal_vertex_two(self):
        from qrobust.states import BELL_STATES

        sigma2 = vertices(decompose(BELL_07))[1]
        expected = 0.5 * (np.outer(BELL_STATES[:, 2], BELL_STATES[:, 2].conj())
                          + np.outer(BELL_STATES[:, 3], BELL_STATES[:, 3].conj()))
        assert np.max(np.abs(sigma2 - expected)) <= 1e-12

    def test_vertices_are_separable_boundary_states(self):
        for rho, _ in entangled_corpus(30):
            dec = decompose(rho)
            for (i, j), matrix in zip(_VERTEX_COLUMNS[1:], vertices(dec)):
                vertex = DensityMatrix(matrix)
                assert abs(np.trace(vertex.matrix).real - 1.0) <= 1e-10
                assert decompose(vertex).concurrence <= 1e-9
                flag, _ = is_separable_ppt(vertex)
                assert flag
                lam = decompose(vertex).lambdas
                share = 1.0 / (dec.k_norm[i] + dec.k_norm[j])
                assert np.max(np.abs(lam - [share, share, 0.0, 0.0])) <= 1e-9


class TestRhoPrimeCoords:
    def test_separable_collapses_to_lambda(self):
        assert np.array_equal(robustness(MIXED).rho_p_coords, decompose(MIXED).lambdas)

    def test_bell_diagonal_concentrated_weights(self):
        cert = robustness(BELL_07)
        assert cert.pair == (2, 3)
        assert np.max(np.abs(cert.rho_p_coords - [0.5, 3.0 / 14.0, 3.0 / 14.0, 1.0 / 14.0])) <= 1e-12

    def test_on_plane_and_nonnegative(self):
        coords = np.array([cert.rho_p_coords for _, cert in entangled_corpus(30)])
        assert np.all(coords >= 0.0)
        assert np.max(np.abs(coords[:, 0] - coords[:, 1] - coords[:, 2] - coords[:, 3])) <= 1e-9

    def test_pseudomixture_identity_in_coordinates(self):
        # rho'' = (|x'_a><x'_a| + |x'_b><x'_b|)/(K_a + K_b) for the certificate's pair (a, b)
        certs = robustness_stack(np.array([rho.matrix for rho, _ in entangled_corpus(20)]))
        k, rows = certs.decomposition.k_norm, np.arange(len(certs.s))
        a, b = _VERTEX_COLUMNS[certs.k_index].T
        lam_pp = np.zeros_like(k)
        lam_pp[rows, a] = lam_pp[rows, b] = 1.0 / (k[rows, a] + k[rows, b])
        s = certs.s[:, None]
        recovered = (1.0 + s) * certs.rho_p_coords - s * lam_pp
        assert np.max(np.abs(recovered - certs.decomposition.lambdas)) <= 1e-12


class TestPlaneRobustness:
    @staticmethod
    def value(rho, plane, weights):
        dec = decompose(rho)
        return _plane_robustness(dec.k_norm, dec.concurrence, plane, np.array(weights))

    def test_unit_k_concentrated(self):
        assert abs(self.value(BELL_07, 1, [1.0, 0, 0]) - 0.4) <= 1e-12

    def test_unit_k_uniform_ties(self):
        third = 1.0 / 3.0
        assert abs(self.value(BELL_07, 1, [third, third, third]) - 0.4) <= 1e-12

    def test_zero_concurrence(self):
        assert self.value(MIXED, 1, [0.2, 0.3, 0.5]) == 0.0
        assert self.value(MIXED, 2, [0.2, 0.3, 0.5]) == 0.0

    def test_other_plane_unit_k(self):
        assert abs(self.value(BELL_07, 2, [0.0, 1.0, 0.0]) - 0.4) <= 1e-12

    def test_weight_on_first_direction_never_washes_out(self):
        assert self.value(BELL_07, 2, [1.0, 0.0, 0.0]) == np.inf

    def test_monotone_toward_minimizing_pair(self):
        corpus = entangled_corpus(20)
        dec = decompositions([rho for rho, _ in corpus])
        target = np.zeros((len(corpus), 1, 3))
        target[np.arange(len(corpus)), 0, [cert.k_index - 2 for _, cert in corpus]] = 1.0
        t = np.linspace(0.0, 1.0, 11)[:, None]
        weights = (1 - t) * np.full(3, 1.0 / 3.0) + t * target                # (N, 11, 3)
        values = _plane_robustness(dec.k_norm[:, None], dec.concurrence[:, None], 1, weights)
        assert np.all(values[:, 1:] <= values[:, :-1] + 1e-12)
        assert np.max(np.abs(values[:, -1] - [cert.s for _, cert in corpus])) <= 1e-12


class TestRobustnessCertificate:
    def test_bell_diagonal_equals_concurrence(self):
        cert = robustness(BELL_07)
        assert abs(cert.s - 0.4) <= 1e-12
        assert cert.pair == (2, 3) and cert.k_index == 4  # all pair sums tie at 2

    def test_separable_degenerate_certificate(self):
        cert = robustness(MIXED)
        assert cert.s == 0.0
        assert cert.k_index == 2
        assert np.array_equal(cert.rho_p.matrix, MIXED.matrix)
        assert decompose(cert.rho_pp).concurrence <= 1e-12

    def test_rank_deficient_routed_to_oracle(self):
        with pytest.raises(RankDeficient):
            robustness(werner(1.0))

    def test_ratio_fixed_by_basis_norms(self):
        # same angles (hence same K), different weights: s/C is the same constant
        angles = dict(theta1=0.4, theta2=-0.2, xi1=0.3, xi2=0.1, phi1=0.25, phi2=-0.5)
        lams = (np.array([0.75, 0.12, 0.08, 0.05]), np.array([0.6, 0.25, 0.1, 0.05]))
        ratios = []
        for lam in lams:
            params = CosetParams(**angles, lam=lam)
            cert = robustness(density_from_params(params))
            assert cert.s > 0.0
            ratios.append(cert.s / decompose(density_from_params(params)).concurrence)
        assert abs(ratios[0] - ratios[1]) <= 1e-9
        k = _k_stack(np.array(list(angles.values())))
        expected = 0.5 * min(k[1] + k[2], k[1] + k[3], k[2] + k[3])
        assert abs(ratios[0] - expected) <= 1e-8

    def test_report_round_trip(self):
        import json

        cert = robustness(BELL_07)
        payload = json.loads(json.dumps(cert.to_report()))
        assert payload["k_index"] == 4
        assert len(payload["lambda_prime"]) == 4


def _rank2_state():
    rng = np.random.default_rng(21)
    kets = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    return DensityMatrix(0.6 * np.outer(kets[0], kets[0].conj()) + 0.4 * np.outer(kets[1], kets[1].conj()))


class TestStacks:
    # the Bell-diagonal tie cases (BELL_07 among them) and the other rank classes
    STATES = (ginibre_states(12)
              + [bell_diagonal(BellWeights(np.array(w))) for w in TIED_WEIGHTS]
              + [werner(0.8), werner(1.0), _rank2_state(), MIXED])
    RANK_DEFICIENT = {len(STATES) - 3, len(STATES) - 2}        # the singlet and the rank-2 state

    def test_entries_equal_single_calls_bit_for_bit(self):
        stack = robustness_stack(np.array([rho.matrix for rho in self.STATES]))
        for i, rho in enumerate(self.STATES):
            single, entry = decompose(rho), stack.decomposition.entry(i)
            for name in ("lambdas", "x", "k_norm", "p_coord"):
                assert getattr(single, name).tobytes() == getattr(entry, name).tobytes(), (i, name)
            assert (single.concurrence, single.rank) == (entry.concurrence, entry.rank)
            if i in self.RANK_DEFICIENT:
                assert isinstance(stack.errors[i], RankDeficient)
                with pytest.raises(RankDeficient):
                    robustness(rho)
                continue
            assert stack.errors[i] is None, i
            cert, got = robustness(rho), stack.entry(i)
            for name in ("s", "k_index", "pair"):
                assert getattr(cert, name) == getattr(got, name), (i, name)
            for name in ("rho_pp", "rho_p"):
                assert getattr(cert, name).matrix.tobytes() == getattr(got, name).matrix.tobytes(), (i, name)
            assert cert.rho_p_coords.tobytes() == got.rho_p_coords.tobytes()

    def test_order_within_the_stack_does_not_matter(self):
        matrices = np.array([rho.matrix for rho in self.STATES])
        forward, backward = robustness_stack(matrices), robustness_stack(matrices[::-1].copy())
        assert forward.s.tobytes() == backward.s[::-1].tobytes()
        assert forward.decomposition.x.tobytes() == backward.decomposition.x[::-1].tobytes()

    def test_failed_entry_does_not_stop_the_others(self):
        # at zero tolerance the residual checks fail on rounding alone, except
        # for |uu><uu|, whose spin-flip Gram matrix is exactly zero
        exact = DEFAULT.scaled(0.0)
        up_up = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        batch = [BELL_07, up_up, sample_state("ginibre", 3)]
        stack = robustness_stack(np.array([rho.matrix for rho in batch]), exact)
        assert isinstance(stack.errors[1], RankDeficient)
        assert stack.decomposition.rank[1] == 0
        for rho, error in zip(batch, stack.errors):
            with pytest.raises(type(error)) as single:
                robustness(rho, exact)
            assert str(single.value) == str(error)
