import json

import numpy as np
import pytest

from conftest import ginibre_states
from qrobust import coset, verify
from qrobust.states import (
    BELL_STATES,
    SIGMA_YY,
    BellWeights,
    DensityMatrix,
    LocalUnitary,
    ParseError,
    UnknownEnsemble,
    ValidationError,
    apply_local_unitary,
    bell_diagonal,
    is_separable_ppt,
    partial_transpose,
    ppt_min_eig,
    random_local_unitary,
    read_state,
    sample_stack,
    sample_state,
    spin_flip,
    werner,
    write_state,
)
from qrobust.tolerances import DEFAULT

MIXED = DensityMatrix(np.eye(4) / 4.0)
SINGLET = werner(1.0)
UP_UP = DensityMatrix(np.diag([1.0, 0, 0, 0]))


def spin_flip_by_loops(matrix):
    """Elementwise definition, independent of the library implementation."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    out[i, j] += SIGMA_YY[i, k] * np.conj(matrix[k, l]) * SIGMA_YY[l, j]
    return out


def test_sigma_yy_is_signed_antidiagonal():
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[3, 0] = -1.0
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(SIGMA_YY, expected.astype(complex))


class TestSpinFlip:
    def test_maximally_mixed_fixed_point(self):
        assert np.allclose(spin_flip(MIXED), MIXED.matrix, atol=0)

    def test_singlet_fixed_point(self):
        expected = spin_flip_by_loops(SINGLET.matrix)
        assert np.allclose(expected, SINGLET.matrix, atol=1e-15)
        assert np.allclose(spin_flip(SINGLET), expected, atol=1e-15)

    def test_up_up_maps_to_down_down(self):
        expected = np.diag([0, 0, 0, 1.0]).astype(complex)
        assert np.allclose(spin_flip(UP_UP), expected, atol=0)
        assert np.allclose(spin_flip_by_loops(UP_UP.matrix), expected, atol=0)


class TestPartialTranspose:
    def test_diagonal_product_state_invariant(self):
        assert np.array_equal(partial_transpose(UP_UP), UP_UP.matrix)

    def test_maximally_mixed_invariant(self):
        assert np.array_equal(partial_transpose(MIXED), MIXED.matrix)

    def test_singlet_minimum_eigenvalue(self):
        assert abs(np.linalg.eigvalsh(partial_transpose(SINGLET))[0] + 0.5) <= 1e-10


class TestSeparabilityPPT:
    def test_singlet_entangled(self):
        flag, min_eig = is_separable_ppt(SINGLET)
        assert flag is False
        assert abs(min_eig + 0.5) <= 1e-12

    def test_maximally_mixed_separable(self):
        flag, min_eig = is_separable_ppt(MIXED)
        assert flag is True
        assert abs(min_eig - 0.25) <= 1e-12

    def test_werner_boundary(self):
        # locate the boundary with this same test, then pin the known weight
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if is_separable_ppt(werner(mid))[0]:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 1.0 / 3.0) <= 1e-10
        assert abs(is_separable_ppt(werner(1.0 / 3.0))[1]) <= 1e-10


class TestBellDiagonal:
    def test_pure_first_bell_state(self):
        rho = bell_diagonal(BellWeights(np.array([1.0, 0, 0, 0])))
        expected = np.outer(BELL_STATES[:, 0], BELL_STATES[:, 0].conj())
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_uniform_mixture_is_maximally_mixed(self):
        rho = bell_diagonal(BellWeights(np.full(4, 0.25)))
        assert np.allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-15)

    def test_tilde_invariance(self):
        rho = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))
        assert np.max(np.abs(spin_flip(rho) - rho.matrix)) <= 1e-12

    @pytest.mark.parametrize("bad", [
        [0.5, 0.5, 0.1, -0.1],
        [0.1, 0.2, 0.3, 0.4],
        [0.7, 0.1, 0.1, 0.2],
    ])
    def test_weight_validation(self, bad):
        with pytest.raises(ValidationError):
            BellWeights(np.array(bad))


class TestEnsembles:
    def test_deterministic_for_fixed_seed(self):
        a = sample_state("ginibre", 42)
        b = sample_state("ginibre", 42)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("ensemble", ["ginibre", "bures", "bell_diagonal", "coset"])
    def test_valid_states(self, ensemble):
        for seed in range(10):
            rho = sample_state(ensemble, seed)
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    @pytest.mark.parametrize("ensemble", ["ginibre", "bures", "bell_diagonal", "coset"])
    def test_stacked_draw_matches_single_draws(self, ensemble):
        # 300 seeds: more than one 256-row chunk of ``qrobust sample``
        drawn = sample_stack(ensemble, range(300))
        assert drawn.error is None and len(drawn.matrices) == 300
        for seed, m in enumerate(drawn.matrices):
            assert np.array_equal(m, sample_state(ensemble, seed).matrix), seed

    def test_unknown_ensemble(self):
        with pytest.raises(UnknownEnsemble):
            sample_state("thermal", 0)

    def test_tolerances_reach_the_coset_and_bell_diagonal_constructions(self):
        exact = DEFAULT.scaled(0.0)
        params = coset.sample_params(np.random.default_rng(0))
        with pytest.raises(ValidationError) as direct:
            coset.density_from_params(params, exact)
        with pytest.raises(ValidationError) as sampled:
            sample_state("coset", 0, exact)
        assert str(sampled.value) == str(direct.value)
        # seed 0's sorted Bell weights sum to exactly 1, but their mixture's trace is
        # 1 - 2.2e-16, which an exact trace check rejects
        with pytest.raises(ValidationError, match="trace"):
            sample_state("bell_diagonal", 0, exact)
        # seed 1's sorted Bell weights sum to 1 + 2.2e-16: the draw's own sum check reads tol
        with pytest.raises(ValidationError, match=r"weights do not sum to 1: sum - 1 = 2\.220e-16 exceeds 0\.000e\+00"):
            sample_state("bell_diagonal", 1, exact)
        sample_state("bell_diagonal", 1)


class TestLocalUnitary:
    def test_identity_pair_is_noop(self):
        lu = LocalUnitary(np.eye(2), np.eye(2))
        rho = sample_state("ginibre", 1)
        assert np.allclose(apply_local_unitary(rho, lu).matrix, rho.matrix, atol=0)

    def test_maximally_mixed_invariant(self):
        lu = random_local_unitary(np.random.default_rng(0))
        assert np.allclose(apply_local_unitary(MIXED, lu).matrix, MIXED.matrix, atol=1e-15)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(1)
        for rho in ginibre_states(20):
            rotated = apply_local_unitary(rho, random_local_unitary(rng))
            before = np.linalg.eigvalsh(rho.matrix)
            after = np.linalg.eigvalsh(rotated.matrix)
            assert np.max(np.abs(before - after)) <= 1e-10

    def test_rejects_non_special_unitary(self):
        with pytest.raises(ValidationError):
            LocalUnitary(np.diag([1.0, 1j]), np.eye(2))  # det = i
        with pytest.raises(ValidationError):
            LocalUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2))


class TestStateFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "state.json"
        for rho in (MIXED, sample_state("ginibre", 3)):
            write_state(rho, path)
            back = read_state(path)
            assert np.array_equal(back.matrix, rho.matrix)

    def test_trace_deficit_reported(self, tmp_path):
        path = tmp_path / "bad_trace.json"
        write_state(MIXED, path)
        payload = json.loads(path.read_text())
        payload["re"] = (0.9 * np.array(payload["re"])).tolist()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="trace") as err:
            read_state(path)
        assert "-1.000e-01" in str(err.value)

    def test_asymmetry_reported(self, tmp_path):
        path = tmp_path / "bad_herm.json"
        write_state(MIXED, path)
        payload = json.loads(path.read_text())
        payload["im"][0][1] = 2e-3
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="Hermitian") as err:
            read_state(path)
        assert "2.000e-03" in str(err.value)

    def test_negative_eigenvalue_reported(self, tmp_path):
        path = tmp_path / "bad_psd.json"
        write_state(MIXED, path)
        payload = json.loads(path.read_text())
        payload["re"] = np.diag([0.6, 0.5, 0.0, -0.1]).tolist()   # Hermitian, trace 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="positive semidefinite") as err:
            read_state(path)
        assert "-1.000e-01" in str(err.value)

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_state(path)
        path.write_text(json.dumps({"re": [[1.0]], "im": [[0.0]]}))
        with pytest.raises(ParseError):
            read_state(path)
        path.write_text(json.dumps({"basis": "dd,du,ud,uu", "re": [[0.0] * 4] * 4, "im": [[0.0] * 4] * 4}))
        with pytest.raises(ParseError):
            read_state(path)


def test_ppt_min_eig_over_a_stack():
    matrices = np.concatenate((verify.Corpus(6).ginibre, [SINGLET.matrix, MIXED.matrix]))
    single = [ppt_min_eig(m) for m in matrices]
    assert all(isinstance(v, float) for v in single)
    stacked = ppt_min_eig(matrices.reshape(2, 4, 4, 4))
    assert stacked.shape == (2, 4)
    assert stacked.ravel().tolist() == single
    assert abs(single[6] + 0.5) <= 1e-12
