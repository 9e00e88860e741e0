import math

import numpy as np
import pytest

from conftest import bisect_from_cap, ginibre_states, rank_two_state, rotate_locally, werner_boundary
from qrobust import decompose
from qrobust import oracle as oracle_module
from qrobust.oracle import (
    CROSSING_WIDTH,
    PPT_CUT,
    SDP_GAP,
    ImproperDirection,
    NotSeparableDirection,
    bisect_relative_robustness,
    _bisect as bisect_stack,
    _dual_bound,
    _product_mixtures,
    minimize_absolute_robustness,
    oracle_pass,
    relative_robustness_stack,
)
from qrobust.robustness import robustness, robustness_stack
from qrobust.states import (
    BellWeights,
    DensityMatrix,
    _bell_mixture,
    bell_diagonal,
    is_separable_ppt,
    partial_transpose_matrix,
    ppt_min_eig,
    sample_state,
    werner,
)
from qrobust.tolerances import DEFAULT
from qrobust.verify import Corpus, certificate_checks, verify_certificate

MIXED = DensityMatrix(np.eye(4) / 4.0)
SINGLET = werner(1.0)
UP_UP = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
BELL_07 = bell_diagonal(BellWeights(np.array([0.7, 0.1, 0.1, 0.1])))


def assert_post_conditions(rho, direction):
    """The mixture at the returned s is PPT, and at s - CROSSING_WIDTH*(1+s)
    it is not (or s = 0 and rho is PPT); returns s."""
    s = bisect_relative_robustness(rho, direction)

    def mixture(t):
        return (rho.matrix + t * direction.matrix) / (1.0 + t)

    assert ppt_min_eig(mixture(s)) >= -PPT_CUT
    if s > 0.0:
        below = max(0.0, s - CROSSING_WIDTH * (1.0 + s))
        assert ppt_min_eig(mixture(below)) < -PPT_CUT
    else:
        assert ppt_min_eig(rho.matrix) >= -PPT_CUT
    return s


def record_fallbacks(monkeypatch):
    """The number of entries each ``_bisect`` call receives, in call order."""
    fallbacks = []

    def recording(rho, sigma):
        fallbacks.append(len(rho))
        return bisect_stack(rho, sigma)

    monkeypatch.setattr(oracle_module, "_bisect", recording)
    return fallbacks


def random_mixture(rng, n=8):
    """Weights (1, n) and Bloch angles (1, n, 4) of a random mixture of n product states."""
    return (rng.dirichlet(np.ones(n))[None],
            np.stack([np.arccos(rng.uniform(-1, 1, n)), rng.uniform(0, 2 * np.pi, n),
                      np.arccos(rng.uniform(-1, 1, n)), rng.uniform(0, 2 * np.pi, n)], axis=1)[None])


class TestBisection:
    def test_singlet_against_maximally_mixed(self):
        s = bisect_relative_robustness(SINGLET, MIXED)
        assert abs(s - 2.0) <= 1e-6
        # cross-check through the boundary weight: separable iff weight <= 1/3
        assert abs(s - (1.0 / werner_boundary() - 1.0)) <= 1e-6

    def test_separable_state_needs_nothing(self):
        assert bisect_relative_robustness(MIXED, MIXED) == 0.0
        assert bisect_relative_robustness(werner(0.2), MIXED) == 0.0

    def test_matches_certificate_along_witness(self):
        for rho in ginibre_states(25):
            cert = robustness(rho)
            if cert.s == 0.0:
                continue
            s = bisect_relative_robustness(rho, cert.rho_pp)
            assert abs(s - cert.s) <= 1e-6

    def test_post_conditions(self):
        assert assert_post_conditions(SINGLET, MIXED) > 0.0
        # every state of a corpus along its certificate vertex, a random
        # product mixture and I/4
        rng = np.random.default_rng(17)
        pairs = [(rho, direction) for rho in ginibre_states(15)
                 for direction in (robustness(rho).rho_pp,
                                   DensityMatrix(_product_mixtures(*random_mixture(rng))[0]), MIXED)]
        entangled = sum(assert_post_conditions(rho, direction) > 0.0 for rho, direction in pairs)
        assert entangled >= 20

    def test_widens_and_bisects_when_the_newton_bracket_fails(self, monkeypatch):
        # along the rank-1 product state |uu><uu| the regularized pencil
        # misjudges a crossing near s = 1e3, so the Newton bracket fails its
        # PPT test and the entry bisects down from the cap
        fallbacks = record_fallbacks(monkeypatch)
        s = assert_post_conditions(werner(1.0 - 1e-3), UP_UP)
        assert 900.0 < s < 1000.0
        assert fallbacks == [1]

    def test_fallback_reaches_the_cap(self, monkeypatch):
        # the crossing along |uu><uu| grows as the singlet weight nears 1: at
        # 1 - 2e-5 it lies between 2^15 and the cap 2^16, at 1 - 1.2e-5 past it
        fallbacks = record_fallbacks(monkeypatch)
        s = assert_post_conditions(werner(1.0 - 2e-5), UP_UP)
        assert 2.0 ** 15 < s < 2.0 ** 16 and abs(s - 45802.0) < 1.0
        assert fallbacks == [1]
        with pytest.raises(ImproperDirection):
            bisect_relative_robustness(werner(1.0 - 1.2e-5), UP_UP)

    def test_fallback_opens_at_the_cap_and_at_one(self, monkeypatch):
        # one stacked PPT test at 2^16 and at 1 opens the search, so Werner 0.5
        # toward I/4 (crossing 0.5) starts from [0, 1]: 34 PPT calls where the
        # 16 halvings down to [0, 1] made 50
        calls = []
        ppt_along = oracle_module._ppt_along
        monkeypatch.setattr(oracle_module, "_ppt_along", lambda *args: calls.append(args) or ppt_along(*args))
        (s,) = bisect_stack(werner(0.5).matrix[None], MIXED.matrix[None])
        assert len(calls) == 34 and abs(s - 0.5) <= CROSSING_WIDTH * 1.5

    def test_fallback_crossings_equal_the_reference_halving(self):
        # crossings below 1, between 1 and the cap, past it (NaN), along I/4,
        # rho'', |uu><uu| and random product mixtures: each entry, alone and
        # stacked, is the one-point-at-a-time halving from the cap, bit for bit
        rng = np.random.default_rng(3)
        pairs = [(werner(0.5), MIXED), (SINGLET, MIXED), (BELL_07, robustness(BELL_07).rho_pp),
                 (werner(1.0 - 1e-3), UP_UP), (werner(1.0 - 2e-5), UP_UP), (SINGLET, UP_UP)]
        for rho in ginibre_states(12):
            if not is_separable_ppt(rho)[0]:
                pairs += [(rho, MIXED), (rho, DensityMatrix(_product_mixtures(*random_mixture(rng))[0]))]
        rho, sigma = (np.array([pair[k].matrix for pair in pairs]) for k in (0, 1))
        reference = np.array([bisect_from_cap(r, d) for r, d in zip(rho, sigma)])
        alone = np.array([bisect_stack(rho[i:i + 1], sigma[i:i + 1])[0] for i in range(len(pairs))])
        assert np.array_equal(bisect_stack(rho, sigma), reference, equal_nan=True)
        assert np.array_equal(alone, reference, equal_nan=True)
        assert np.sum(reference < 1.0) >= 20 and np.sum(reference > 1.0) >= 4 and np.isnan(reference[5])

    def test_bracket_past_the_crossing_is_rejected(self, monkeypatch):
        # a Newton point past the crossing puts both ends of its bracket on
        # the PPT side; the test at lo rejects it and the entry bisects
        newton = oracle_module._newton_crossing
        monkeypatch.setattr(oracle_module, "_newton_crossing", lambda *args: newton(*args) + 1e-6)
        for rho in (werner(0.8), BELL_07):
            assert_post_conditions(rho, MIXED)

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

    def test_empty_stack_makes_no_ppt_test(self, monkeypatch):
        # an all-PPT oracle stack and a rank-deficient fallback ask for no crossing
        calls = []
        monkeypatch.setattr(oracle_module, "ppt_min_eig", lambda m: calls.append(m))
        stacked, errors = relative_robustness_stack(np.empty((0, 4, 4)), np.empty((0, 4, 4)))
        assert stacked.shape == (0,) and errors == [] and calls == []

    def test_rejects_entangled_direction(self):
        with pytest.raises(NotSeparableDirection):
            bisect_relative_robustness(MIXED, SINGLET)

    def test_direction_that_passed_the_ppt_test_factors(self, monkeypatch):
        # a Bell-diagonal direction with PT eigenvalue -8e-12 passes the PPT
        # test at -PPT_CUT; the pencil's shift of 1e-10 makes it positive
        # definite, so no entry along it falls back to bisection
        fallbacks = record_fallbacks(monkeypatch)
        direction = DensityMatrix(_bell_mixture(np.array([0.5 + 8e-12, 0.2, 0.2, 0.1 - 8e-12])))
        assert -PPT_CUT < ppt_min_eig(direction.matrix) < -5e-12
        for weights in ([0.1, 0.7, 0.1, 0.1], [0.1, 0.1, 0.7, 0.1], [0.2 / 3, 0.8, 0.2 / 3, 0.2 / 3]):
            assert assert_post_conditions(DensityMatrix(_bell_mixture(np.array(weights))), direction) > 0.0
        assert fallbacks and not any(fallbacks)


class TestProductMixture:
    def test_assembled_state_is_separable(self):
        rng = np.random.default_rng(0)
        weights, angles = zip(*(random_mixture(rng) for _ in range(20)))
        for matrix in _product_mixtures(np.concatenate(weights), np.concatenate(angles)):
            rho = DensityMatrix(matrix)
            flag, _ = is_separable_ppt(rho)
            assert flag
            assert decompose(rho).concurrence <= 1e-9


class TestMinimize:
    def test_separable_input_short_circuits(self):
        result = minimize_absolute_robustness(MIXED, budget=5, seed=0)
        assert result.s_best == 0.0
        assert result.gap_to_formula == 0.0
        assert result.converged

    def test_separable_input_without_closed_form_has_nan_gap(self):
        # rank-deficient separable states short-circuit too, but have no
        # closed form to compare with; I/4 has one, s = 0
        for rho in (UP_UP, DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))):
            result = minimize_absolute_robustness(rho)
            assert result.s_best == 0.0 and math.isnan(result.gap_to_formula)
            assert not result.minimality_flag(DEFAULT.oracle_flag)
        assert minimize_absolute_robustness(MIXED).gap_to_formula == 0.0

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
        assert decompose(result.best_direction).concurrence <= 1e-9

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
        assert result.minimality_flag(DEFAULT.oracle_flag)


def negativity(rho):
    return 0.5 * (np.sum(np.abs(np.linalg.eigvalsh(partial_transpose_matrix(rho.matrix)))) - 1.0)


def pure_state(theta, rng=None):
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.cos(theta), math.sin(theta)
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    return rho if rng is None else rotate_locally(rho, rng)


def oracle_results(*rhos):
    """The oracle pass with the SDP of the states ``rhos`` as one stack: one
    ``OracleResult`` per state, each without an error."""
    m = np.array([rho.matrix for rho in rhos])
    _, results, errors = oracle_pass(m, robustness_stack(m), with_sdp=True)
    assert errors == [None] * len(rhos)
    return results


class TestAbsoluteRobustness:
    def test_brackets_known_values(self):
        # R = C on Bell-diagonal states, (3p - 1)/2 on Werner states and
        # 2|ab| on pure states a|uu> + b|dd> in any local basis (Vidal & Tarrach)
        rng = np.random.default_rng(11)
        known = [(BELL_07, 0.4), (SINGLET, 1.0), (werner(0.5), 0.25), (werner(0.8), 0.7)]
        for theta in rng.uniform(0.05, math.pi / 4, 4):
            known.append((pure_state(theta, rng), abs(math.sin(2.0 * theta))))
        for (rho, value), bracket in zip(known, oracle_results(*(rho for rho, _ in known))):
            assert bracket.s_lower <= value <= bracket.s_upper, (value, bracket)
            # degenerate optima: the QR-factored Newton solve still reaches the target
            assert bracket.converged and bracket.duality_gap <= SDP_GAP * (1.0 + bracket.s_upper)

    @pytest.mark.parametrize("p", [0.003, 0.01, 0.1, 0.5, 2.0 / 3.0])
    def test_rank_two_family(self, p):
        # R = p^2/(4(1 - p)), reached along the product noise |10><10|
        rho, value = rank_two_state(p), p * p / (4.0 * (1.0 - p))
        (bracket,) = oracle_results(rho)
        assert bracket.converged and bracket.s_lower <= value <= bracket.s_upper, (value, bracket)
        (s,), errors = relative_robustness_stack(rho.matrix[None], np.diag([0.0, 0.0, 1.0, 0.0])[None])
        assert errors == [None] and abs(s - value) <= CROSSING_WIDTH * (1.0 + value)

    def test_ginibre_corpus_bounds(self):
        # the stacked run and each state's N = 1 run agree
        corpus = [rho for rho in ginibre_states(25) if not is_separable_ppt(rho)[0]]
        entangled = len(corpus)
        for rho, bracket in zip(corpus, oracle_results(*corpus)):
            result = minimize_absolute_robustness(rho)
            assert bracket.converged
            assert bracket.s_upper >= negativity(rho)                      # Vidal & Werner
            assert bracket.s_lower <= robustness(rho).s
            assert bracket.s_lower <= result.s_best
            assert result.s_best <= bracket.s_upper + CROSSING_WIDTH * (1.0 + bracket.s_upper)
            assert result.s_lower == bracket.s_lower and result.converged
            assert result.s_best == bracket.s_best and result.s_upper == bracket.s_upper
        assert entangled >= 20

    def test_singular_newton_system_keeps_the_best_bracket(self, monkeypatch):
        # a LinAlgError from factoring the Newton system in the fifth iteration
        # ends the solve after four with the best bracket so far: finite,
        # containing R, not converged; the certificate is built first, since
        # the pure state's decomposition calls qr in its Takagi zero cluster
        m = pure_state(0.5).matrix[None]
        certs = robustness_stack(m)
        calls = []
        qr = np.linalg.qr

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) > 4:
                raise np.linalg.LinAlgError("Singular matrix")
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", failing)
        _, (bracket,), errors = oracle_pass(m, certs, with_sdp=True)
        assert errors == [None]
        assert len(calls) == 5 and bracket.newton_steps == 4
        assert 0.0 < bracket.s_lower <= math.sin(1.0) <= bracket.s_upper < math.inf
        assert not bracket.converged
        assert bracket.duality_gap > SDP_GAP * (1.0 + bracket.s_upper)

    def test_predictor_corrector_converges_in_few_iterations(self):
        # degenerate optima and near-separable states included; R = C on
        # Bell-diagonal states and (3p - 1)/2 on Werner states
        eps = 1e-8
        phi = np.zeros((4, 4))
        phi[::3, ::3] = 0.5
        cases = [(SINGLET, 1.0), (bell_diagonal(BellWeights(np.array([0.8, 0.2, 0.0, 0.0]))), 0.6),
                 (werner(1.0 / 3.0 + eps), 1.5 * eps),
                 (DensityMatrix((1.0 - eps) * phi + eps * np.eye(4) / 4.0), 1.0 - 1.5 * eps)]
        cases += [(rho, None) for rho in ginibre_states(25) if not is_separable_ppt(rho)[0]]
        for (rho, value), bracket in zip(cases, oracle_results(*(rho for rho, _ in cases))):
            assert bracket.converged, bracket
            assert value is None or bracket.s_lower <= value <= bracket.s_upper, (value, bracket)
            assert bracket.newton_steps <= 25, bracket

    def test_unreachable_gap_target_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "SDP_GAP", 0.0)
        (bracket,) = oracle_results(BELL_07)
        assert not bracket.converged
        assert bracket.s_lower <= 0.4 <= bracket.s_upper

    def test_zero_gap_brackets_contain_known_values(self, monkeypatch):
        # at SDP_GAP = 0 the solve runs until a factorization fails; only the
        # rounding-level margin keeps both bounds on their side of R there
        # (tr X alone falls below R on the Bell-diagonal state at 0.7)
        rng = np.random.default_rng(5)
        known = [(werner(0.8), 0.7), (SINGLET, 1.0)]
        for p in (0.7, 0.8, 0.9, rng.uniform(0.5, 1.0)):
            known.append((bell_diagonal(BellWeights(np.array([p] + 3 * [(1.0 - p) / 3.0]))), 2.0 * p - 1.0))
        for p in rng.uniform(1.0 / 3.0, 1.0, 4):
            known.append((werner(p), (3.0 * p - 1.0) / 2.0))
        for theta in rng.uniform(0.05, math.pi / 4, 4):
            known.append((pure_state(theta, rng), abs(math.sin(2.0 * theta))))
        monkeypatch.setattr(oracle_module, "SDP_GAP", 0.0)
        for (rho, value), bracket in zip(known, oracle_results(*(rho for rho, _ in known))):
            assert bracket.s_lower <= value <= bracket.s_upper, (value, bracket)

    def test_dual_bound_is_a_proof_for_any_psd_triple(self):
        # the rescale makes every PSD triple dual feasible, rank-deficient ones
        # included; triples diagonal in the eigenbasis of rho^Gamma, with their
        # weight on its negative eigenvector, reach R on the singlet
        rng = np.random.default_rng(0)
        for rho, value in [(BELL_07, 0.4), (werner(0.8), 0.7), (SINGLET, 1.0)]:
            rho_pt = partial_transpose_matrix(rho.matrix)
            vecs = np.linalg.eigh(rho_pt)[1]
            for rank in 4 * [1, 2, 3, 4]:
                weights = rng.uniform(0.0, 5.0, (3, 4)) * (rng.permuted(np.arange(4) < rank))
                triples = [(vecs * weights[:, None, :]) @ vecs.conj().T]
                a = rng.standard_normal((3, 4, rank)) + 1j * rng.standard_normal((3, 4, rank))
                triples.append(rng.uniform(0.0, 5.0) * a @ a.conj().swapaxes(1, 2))
                for z in triples:
                    assert _dual_bound(z, rho_pt) <= value + 1e-12
            lowest = np.zeros((3, 4, 4), dtype=complex)
            lowest[2] = np.outer(vecs[:, 0], vecs[:, 0].conj())
            assert _dual_bound(lowest, rho_pt) <= value + 1e-12


class TestVerifyCertificate:
    def test_bell_diagonal_all_checks_pass(self):
        report = verify_certificate(BELL_07, robustness(BELL_07))
        assert report["passed"]
        assert abs(report["s_bisection"] - 0.4) <= 1e-6
        assert report["checks"]["crossing"]["residual"] <= 1e-6
        assert report["checks"]["pseudomixture"]["residual"] <= 1e-9

    def test_separable_trivially_passes(self):
        report = verify_certificate(MIXED, robustness(MIXED))
        assert report["passed"]
        assert report["s_formula"] == 0.0
        assert report["s_bisection"] == 0.0

    def test_corpus_passes(self):
        # each audit is the N = 1 run of the corpus run, bit for bit
        corpus = Corpus(20)
        checks, s_bisection, _, errors = certificate_checks(corpus.ginibre, corpus.certificates, DEFAULT)
        assert errors == [None] * 20
        for i, rho in enumerate(ginibre_states(20)):
            report = verify_certificate(rho, robustness(rho))
            assert report["passed"], report
            assert repr(report["s_bisection"]) == repr(float(s_bisection[i]))
            assert ({name: repr(check["residual"]) for name, check in report["checks"].items()}
                    == {name: repr(float(residual[i])) for name, (residual, _) in checks.items()}), i

    def test_oracle_block_present_when_requested(self):
        report = verify_certificate(BELL_07, robustness(BELL_07), oracle=True)
        assert "oracle" in report
        block = report["oracle"]
        assert block["route"] == "sdp"
        assert block["s_lower"] <= 0.4 <= block["s_best"] <= 0.4 + 1e-6
        assert block["duality_gap"] <= 1e-6 and block["newton_steps"] > 0
        assert isinstance(block["converged"], bool)
        assert block["minimality_flag"] is False
