import numpy as np
import pytest

from conftest import ginibre_states
from test_wootters import TIED_WEIGHTS
from qrobust import concurrence, decompose
from qrobust.coset import CosetParams, density_from_params, k_closed_form
from qrobust.robustness import (
    BadWeights,
    RankDeficient,
    pair_vertex,
    plane_robustness_other,
    plane_robustness_s1,
    rho_prime_coords,
    robustness,
    robustness_stack,
    separability_gap,
    sigma_vertex,
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


def lambda_pp(decomp, a):
    """Outer-state coordinates for vertex weights (a2, a3, a4)."""
    k = decomp.k_norm
    return np.array([
        0.0,
        a[1] / (k[1] + k[3]) + a[2] / (k[1] + k[2]),
        a[0] / (k[2] + k[3]) + a[2] / (k[1] + k[2]),
        a[0] / (k[2] + k[3]) + a[1] / (k[1] + k[3]),
    ])


class TestSeparabilityGap:
    def test_maximally_mixed(self):
        assert abs(separability_gap(decompose(MIXED)) + 0.5) <= 1e-12

    def test_bell_diagonal(self):
        assert abs(separability_gap(decompose(BELL_07)) - 0.4) <= 1e-12

    def test_equals_lambda_gap(self):
        for rho in ginibre_states(50):
            dec = decompose(rho)
            lam = dec.lambdas
            assert abs(separability_gap(dec) - (lam[0] - lam[1] - lam[2] - lam[3])) <= 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            separability_gap(decompose(werner(1.0)))


class TestSigmaVertex:
    def test_bell_diagonal_vertex_two(self):
        from qrobust.states import BELL_STATES

        dec = decompose(BELL_07)
        sigma2 = sigma_vertex(dec, 2)
        expected = 0.5 * (np.outer(BELL_STATES[:, 2], BELL_STATES[:, 2].conj())
                          + np.outer(BELL_STATES[:, 3], BELL_STATES[:, 3].conj()))
        assert np.max(np.abs(sigma2.matrix - expected)) <= 1e-12

    def test_vertices_are_separable_boundary_states(self):
        for rho, _ in entangled_corpus(30):
            dec = decompose(rho)
            for k in (1, 2, 3, 4):
                vertex = sigma_vertex(dec, k)
                assert abs(np.trace(vertex.matrix).real - 1.0) <= 1e-10
                assert concurrence(vertex) <= 1e-9
                flag, _ = is_separable_ppt(vertex)
                assert flag
                lam = decompose(vertex).lambdas
                i, j = {1: (0, 1), 2: (2, 3), 3: (1, 3), 4: (1, 2)}[k]
                share = 1.0 / (dec.k_norm[i] + dec.k_norm[j])
                assert np.max(np.abs(lam - [share, share, 0.0, 0.0])) <= 1e-9

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            sigma_vertex(decompose(MIXED), 5)


class TestRhoPrimeCoords:
    def test_separable_collapses_to_lambda(self):
        dec = decompose(MIXED)
        for a in ([1.0, 0, 0], [0.2, 0.3, 0.5]):
            assert np.max(np.abs(rho_prime_coords(dec, a) - dec.lambdas)) <= 1e-12

    def test_bell_diagonal_concentrated_weights(self):
        coords = rho_prime_coords(decompose(BELL_07), [1.0, 0.0, 0.0])
        assert np.max(np.abs(coords - [0.5, 1.0 / 14.0, 3.0 / 14.0, 3.0 / 14.0])) <= 1e-12

    def test_on_plane_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for rho, _ in entangled_corpus(30):
            dec = decompose(rho)
            a = rng.dirichlet(np.ones(3))
            coords = rho_prime_coords(dec, a)
            assert np.all(coords >= 0.0)
            assert abs(coords[0] - coords[1] - coords[2] - coords[3]) <= 1e-9

    def test_pseudomixture_identity_in_coordinates(self):
        rng = np.random.default_rng(1)
        for rho, _ in entangled_corpus(20):
            dec = decompose(rho)
            a = rng.dirichlet(np.ones(3))
            coords = rho_prime_coords(dec, a)
            s = plane_robustness_s1(dec, a)
            recovered = (1.0 + s) * coords - s * lambda_pp(dec, a)
            assert np.max(np.abs(recovered - dec.lambdas)) <= 1e-12

    def test_bad_weights(self):
        dec = decompose(BELL_07)
        with pytest.raises(BadWeights):
            rho_prime_coords(dec, [0.5, 0.5, 0.5])
        with pytest.raises(BadWeights):
            rho_prime_coords(dec, [-0.1, 0.6, 0.5])


class TestPlaneRobustness:
    def test_unit_k_concentrated(self):
        dec = decompose(BELL_07)
        assert abs(plane_robustness_s1(dec, [1.0, 0, 0]) - 0.4) <= 1e-12

    def test_unit_k_uniform_ties(self):
        dec = decompose(BELL_07)
        third = 1.0 / 3.0
        assert abs(plane_robustness_s1(dec, [third, third, third]) - 0.4) <= 1e-12

    def test_zero_concurrence(self):
        dec = decompose(MIXED)
        assert plane_robustness_s1(dec, [0.2, 0.3, 0.5]) == 0.0
        assert plane_robustness_other(dec, 2, [0.2, 0.3, 0.5]) == 0.0

    def test_other_plane_unit_k(self):
        dec = decompose(BELL_07)
        assert abs(plane_robustness_other(dec, 2, [0.0, 1.0, 0.0]) - 0.4) <= 1e-12

    def test_weight_on_first_direction_never_washes_out(self):
        dec = decompose(BELL_07)
        assert plane_robustness_other(dec, 2, [1.0, 0.0, 0.0]) == np.inf

    def test_monotone_toward_minimizing_pair(self):
        for rho, cert in entangled_corpus(20):
            dec = decompose(rho)
            target = np.zeros(3)
            target[cert.k_index - 2] = 1.0
            start = np.full(3, 1.0 / 3.0)
            values = [plane_robustness_s1(dec, (1 - t) * start + t * target)
                      for t in np.linspace(0.0, 1.0, 11)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
            assert abs(values[-1] - cert.s) <= 1e-12


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
        assert concurrence(cert.rho_pp) <= 1e-12

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
            ratios.append(cert.s / concurrence(density_from_params(params)))
        assert abs(ratios[0] - ratios[1]) <= 1e-9
        k = k_closed_form(CosetParams(**angles, lam=lams[0]))
        expected = 0.5 * min(k[1] + k[2], k[1] + k[3], k[2] + k[3])
        assert abs(ratios[0] - expected) <= 1e-8

    def test_report_round_trip(self):
        import json

        cert = robustness(BELL_07)
        payload = json.loads(json.dumps(cert.to_report()))
        assert payload["k_index"] == 4
        assert len(payload["lambda_prime"]) == 4

    def test_pair_vertex_matches_named_vertices(self):
        dec = decompose(BELL_07)
        assert np.array_equal(pair_vertex(dec, 3, 4).matrix, sigma_vertex(dec, 2).matrix)


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
