import math

import numpy as np
import pytest

from conftest import ginibre_states
from qrobust import concurrence
from qrobust import oracle as oracle_module
from qrobust.oracle import (
    ImproperDirection,
    NotSeparableDirection,
    ProductMixture,
    absolute_robustness,
    bisect_relative_robustness,
    _bisect as bisect_stack,
    _dual_bound,
    _pencil_crossing,
    minimize_absolute_robustness,
    relative_robustness_stack,
    verify_certificate,
)
from qrobust.robustness import robustness
from qrobust.states import (
    BellWeights,
    DensityMatrix,
    apply_local_unitary,
    bell_diagonal,
    is_separable_ppt,
    partial_transpose_matrix,
    ppt_min_eig,
    random_local_unitary,
    sample_state,
    werner,
)
from qrobust.tolerances import DEFAULT

MIXED = DensityMatrix(np.eye(4) / 4.0)
SINGLET = werner(1.0)
UP_UP = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
BELL_07 = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))


def assert_post_conditions(rho, direction, tol):
    """The mixture at the returned s is PPT, and at s - tol*(1+s) it is not
    (or s = 0 and rho is PPT); returns s."""
    s = bisect_relative_robustness(rho, direction, tol)

    def mixture(t):
        return (rho.matrix + t * direction.matrix) / (1.0 + t)

    assert ppt_min_eig(mixture(s)) >= -1e-11
    if s > 0.0:
        below = max(0.0, s - tol * (1.0 + s))
        assert ppt_min_eig(mixture(below)) < -1e-11
    else:
        assert is_separable_ppt(rho)[0]
    return s


def random_mixture(rng, n=8):
    return ProductMixture(
        rng.dirichlet(np.ones(n)),
        np.stack([np.arccos(rng.uniform(-1, 1, n)), rng.uniform(0, 2 * np.pi, n),
                  np.arccos(rng.uniform(-1, 1, n)), rng.uniform(0, 2 * np.pi, n)], axis=1),
    )


class TestBisection:
    def test_singlet_against_maximally_mixed(self):
        s = bisect_relative_robustness(SINGLET, MIXED, 1e-10)
        assert abs(s - 2.0) <= 1e-6
        # cross-check through the boundary weight: separable iff weight <= 1/3
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if is_separable_ppt(werner(mid))[0]:
                lo = mid
            else:
                hi = mid
        assert abs(s - (1.0 / lo - 1.0)) <= 1e-6

    def test_separable_state_needs_nothing(self):
        assert bisect_relative_robustness(MIXED, MIXED) == 0.0
        assert bisect_relative_robustness(werner(0.2), MIXED) == 0.0

    def test_matches_certificate_along_witness(self):
        for rho in ginibre_states(25):
            cert = robustness(rho)
            if cert.s == 0.0:
                continue
            s = bisect_relative_robustness(rho, cert.rho_pp, 1e-10)
            assert abs(s - cert.s) <= 1e-6

    def test_post_conditions(self):
        tol = 1e-8
        s = bisect_relative_robustness(SINGLET, MIXED, tol)
        mix_at = (SINGLET.matrix + s * MIXED.matrix) / (1.0 + s)
        assert ppt_min_eig(mix_at) >= -1e-11
        below = max(0.0, s - tol * (1.0 + s))
        mix_below = (SINGLET.matrix + below * MIXED.matrix) / (1.0 + below)
        assert ppt_min_eig(mix_below) < -1e-11
        # every state of a corpus along its certificate vertex, a random
        # product mixture and I/4, at the default and a looser tolerance
        rng = np.random.default_rng(17)
        pairs = [(rho, direction) for rho in ginibre_states(15)
                 for direction in (robustness(rho).rho_pp, random_mixture(rng).to_density(), MIXED)]
        entangled = 0
        for tol in (1e-10, 1e-8):
            for rho, direction in pairs:
                entangled += assert_post_conditions(rho, direction, tol) > 0.0
        assert entangled >= 20

    def test_widens_and_bisects_when_the_newton_bracket_fails(self, monkeypatch):
        # along the rank-1 product state |uu><uu| the regularized pencil
        # misjudges a crossing near s = 1e3, so the Newton bracket fails its
        # PPT test and the entry doubles its bracket and bisects
        fallbacks = []

        def recording(rho, sigma, tol, cut):
            fallbacks.append(len(rho))
            return bisect_stack(rho, sigma, tol, cut)

        monkeypatch.setattr(oracle_module, "_bisect", recording)
        rho = werner(1.0 - 1e-3)
        for tol in (1e-10, 1e-8):
            s = assert_post_conditions(rho, UP_UP, tol)
            assert 900.0 < s < 1000.0
        assert fallbacks == [1, 1]

    def test_bracket_past_the_crossing_is_rejected(self, monkeypatch):
        # a Newton point past the crossing puts both ends of its bracket on
        # the PPT side; the test at lo rejects it and the entry bisects
        newton = oracle_module._newton_crossing
        monkeypatch.setattr(oracle_module, "_newton_crossing", lambda *args: newton(*args) + 1e-6)
        for rho in (werner(0.8), BELL_07):
            assert_post_conditions(rho, MIXED, 1e-10)

    def test_rejects_direction_that_never_separates(self):
        # the singlet mixed with |uu><uu| stays entangled for every s
        with pytest.raises(ImproperDirection):
            bisect_relative_robustness(SINGLET, UP_UP)

    def test_stack_matches_single_calls(self):
        rhos = ginibre_states(10) + [BELL_07, SINGLET, werner(0.2), werner(1.0 - 1e-3)]
        directions = [MIXED] * 10 + [robustness(BELL_07).rho_pp, MIXED, MIXED, UP_UP]
        stacked, errors = relative_robustness_stack(np.array([r.matrix for r in rhos]),
                                                    np.array([d.matrix for d in directions]))
        single = [bisect_relative_robustness(r, d) for r, d in zip(rhos, directions)]
        assert stacked.tolist() == single
        assert errors == [None] * len(rhos)

    def test_stack_records_failing_entries(self):
        # an improper and an entangled direction between good entries: each
        # failing entry gets its own error and NaN, the others their values
        rhos = [BELL_07, SINGLET, werner(0.8), MIXED, werner(1.0 - 1e-3)]
        directions = [MIXED, UP_UP, MIXED, SINGLET, UP_UP]
        stacked, errors = relative_robustness_stack(np.array([r.matrix for r in rhos]),
                                                    np.array([d.matrix for d in directions]))
        assert [type(e) for e in errors] == [type(None), ImproperDirection, type(None),
                                             NotSeparableDirection, type(None)]
        for i in (0, 2, 4):
            assert stacked[i] == bisect_relative_robustness(rhos[i], directions[i])
        assert np.isnan(stacked[[1, 3]]).all()

    def test_rejects_entangled_direction(self):
        with pytest.raises(NotSeparableDirection):
            bisect_relative_robustness(MIXED, SINGLET)

    def test_rejects_too_small_tolerance(self):
        with pytest.raises(ValueError):
            bisect_relative_robustness(SINGLET, MIXED, 1e-13)

    def test_failed_factorization_scores_only_its_entry(self):
        rho_pt = partial_transpose_matrix(sample_state("ginibre", 0).matrix)
        mixture = random_mixture(np.random.default_rng(5), n=3)
        terms = np.array([ProductMixture(w, mixture.bloch_angles).matrix() for w in np.eye(3)])
        # a negative weight makes the middle direction indefinite, so its Cholesky factor fails
        weights = np.stack([mixture.weights, [1.0, -0.5, 0.5], mixture.weights])
        d_pt = partial_transpose_matrix(np.einsum("bn,nij->bij", weights, terms))
        values = _pencil_crossing(rho_pt, d_pt)
        alone = _pencil_crossing(rho_pt, d_pt[:1])[0]
        assert values[1] == math.inf
        assert values[0] == values[2] == alone and math.isfinite(alone)


class TestProductMixture:
    def test_assembled_state_is_separable(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = random_mixture(rng).to_density()
            flag, _ = is_separable_ppt(rho)
            assert flag
            assert concurrence(rho) <= 1e-9

    def test_weight_normalization(self):
        mixture = ProductMixture(np.array([2.0, 2.0]), np.zeros((2, 4)))
        assert np.allclose(mixture.weights, 0.5, atol=0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ProductMixture(np.array([1.0, -0.5]), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            ProductMixture(np.array([1.0]), np.zeros((2, 4)))


class TestMinimize:
    def test_separable_input_short_circuits(self):
        result = minimize_absolute_robustness(MIXED, budget=5, seed=0)
        assert result.s_best == 0.0 and result.s_direction == 0.0
        assert result.gap_to_formula == 0.0
        assert result.converged

    def test_bell_diagonal_upper_bound(self):
        result = minimize_absolute_robustness(BELL_07, budget=20, seed=0)
        assert result.s_best <= 0.4 + 1e-6
        assert result.gap_to_formula >= -1e-6
        flag, _ = is_separable_ppt(result.best_direction)
        assert flag

    def test_rank_deficient_pure_state(self):
        result = minimize_absolute_robustness(SINGLET, budget=3, seed=0)
        assert math.isfinite(result.s_best)
        assert result.s_best <= 2.0 + 1e-6  # R(singlet) = 1
        assert math.isnan(result.gap_to_formula)
        assert concurrence(result.best_direction) <= 1e-9

    def test_deterministic(self):
        a = minimize_absolute_robustness(BELL_07, budget=2, seed=9)
        b = minimize_absolute_robustness(BELL_07, budget=2, seed=9)
        assert a.s_best == b.s_best
        assert np.array_equal(a.best_direction.matrix, b.best_direction.matrix)
        assert a.evaluations == b.evaluations

    def test_upper_bound_soundness_against_bisection(self):
        rho = sample_state("ginibre", 0)
        cert = robustness(rho)
        result = minimize_absolute_robustness(rho, budget=4, seed=1)
        assert result.s_best <= bisect_relative_robustness(rho, cert.rho_pp) + 1e-9
        assert result.s_best <= result.s_direction + 1e-9

    def test_probe_can_beat_the_closed_form(self):
        # the closed form is minimal over the fixed-basis tetrahedron family,
        # not over all separable states; the SDP finds better directions
        # for generic states and the result is flagged as a finding
        rho = sample_state("ginibre", 0)
        cert = robustness(rho)
        assert cert.s > 0.0
        result = minimize_absolute_robustness(rho, budget=6, seed=0)
        assert result.s_best <= cert.s + 1e-6
        assert result.gap_to_formula > 1e-3
        assert result.minimality_flag()


def negativity(rho):
    return 0.5 * (np.sum(np.abs(np.linalg.eigvalsh(partial_transpose_matrix(rho.matrix)))) - 1.0)


def pure_state(theta, lu=None):
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.cos(theta), math.sin(theta)
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    return rho if lu is None else apply_local_unitary(rho, lu)


class TestAbsoluteRobustness:
    def test_brackets_known_values(self):
        # R = C on Bell-diagonal states, (3p - 1)/2 on Werner states and
        # 2|ab| on pure states a|uu> + b|dd> in any local basis (Vidal & Tarrach)
        rng = np.random.default_rng(11)
        known = [(BELL_07, 0.4), (SINGLET, 1.0), (werner(0.5), 0.25), (werner(0.8), 0.7)]
        for theta in rng.uniform(0.05, math.pi / 4, 4):
            known.append((pure_state(theta, random_local_unitary(rng)), abs(math.sin(2.0 * theta))))
        for rho, value in known:
            bracket = absolute_robustness(rho)
            assert bracket.s_lower <= value <= bracket.s_upper, (value, bracket)
            # degenerate optima: the QR-factored Newton solve still reaches the target
            assert bracket.converged and bracket.duality_gap <= DEFAULT.sdp_gap * (1.0 + bracket.s_upper)

    def test_ginibre_corpus_bounds(self):
        entangled = 0
        for rho in ginibre_states(25):
            if is_separable_ppt(rho)[0]:
                continue
            entangled += 1
            bracket = absolute_robustness(rho)
            result = minimize_absolute_robustness(rho)
            assert bracket.converged
            assert bracket.s_upper >= negativity(rho)                      # Vidal & Werner
            assert bracket.s_lower <= robustness(rho).s
            assert bracket.s_lower <= result.s_best
            assert result.s_best <= bracket.s_upper + DEFAULT.bisect_default * (1.0 + bracket.s_upper)
            assert result.s_lower == bracket.s_lower and result.converged
        assert entangled >= 10

    def test_singular_newton_system_keeps_the_best_bracket(self, monkeypatch):
        # a LinAlgError from inverting the Newton system's factor ends the
        # solve with the best bracket so far: finite, containing R, not converged
        calls = []
        inv = np.linalg.inv

        def failing(*args):
            calls.append(args)
            if len(calls) > 30:
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(*args)

        monkeypatch.setattr(np.linalg, "inv", failing)
        bracket = absolute_robustness(pure_state(0.5))
        assert len(calls) == 31
        assert 0.0 < bracket.s_lower <= math.sin(1.0) <= bracket.s_upper < math.inf
        assert not bracket.converged
        assert bracket.duality_gap > DEFAULT.sdp_gap * (1.0 + bracket.s_upper)

    def test_unreachable_gap_target_is_not_converged(self):
        bracket = absolute_robustness(BELL_07, tolerances=DEFAULT.scaled(0.0))
        assert not bracket.converged
        assert bracket.s_lower <= 0.4 <= bracket.s_upper

    def test_dual_bound_is_a_proof_for_any_hermitian_triple(self):
        # the clipping and the rescale make every triple a dual-feasible
        # point; triples diagonal in the eigenbasis of rho^Gamma with weights
        # of both signs break the bound without either of them
        rng = np.random.default_rng(0)
        for rho, value in [(BELL_07, 0.4), (werner(0.8), 0.7), (SINGLET, 1.0)]:
            rho_pt = partial_transpose_matrix(rho.matrix)
            vecs = np.broadcast_to(np.linalg.eigh(rho_pt)[1], (3, 4, 4))
            for _ in range(20):
                assert _dual_bound(rng.uniform(-5.0, 5.0, (3, 4)), vecs, rho_pt) <= value + 1e-12


class TestVerifyCertificate:
    def test_bell_diagonal_all_checks_pass(self):
        report = verify_certificate(BELL_07, robustness(BELL_07))
        assert report["passed"]
        assert abs(report["s_bisection"] - 0.4) <= 1e-6
        assert report["bisection_formula_gap"] <= 1e-6
        assert report["pseudomixture_residual"] <= 1e-9

    def test_separable_trivially_passes(self):
        report = verify_certificate(MIXED, robustness(MIXED))
        assert report["passed"]
        assert report["s_formula"] == 0.0
        assert report["s_bisection"] == 0.0

    def test_corpus_passes(self):
        for rho in ginibre_states(20):
            report = verify_certificate(rho, robustness(rho))
            assert report["passed"], report

    def test_oracle_block_present_when_requested(self):
        report = verify_certificate(BELL_07, robustness(BELL_07), oracle=True)
        assert "oracle" in report
        block = report["oracle"]
        assert block["route"] == "sdp"
        assert block["s_lower"] <= 0.4 <= block["s_best"] <= 0.4 + 1e-6
        assert block["duality_gap"] <= 1e-6 and block["newton_steps"] > 0
        assert isinstance(block["converged"], bool)
        assert block["minimality_flag"] is False
