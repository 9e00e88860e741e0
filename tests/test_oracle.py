import math

import numpy as np
import pytest

from conftest import ginibre_corpus
from qrobust import concurrence
from qrobust import oracle as oracle_module
from qrobust.oracle import (
    ImproperDirection,
    NotSeparableDirection,
    ProductMixture,
    bisect_relative_robustness,
    _bisect as bisect_stack,
    _coordinate_descent,
    _product_kets,
    _random_start,
    _relative_robustness,
    minimize_absolute_robustness,
    relative_robustness_stack,
    verify_certificate,
)
from qrobust.robustness import robustness
from qrobust.states import (
    BellWeights,
    DensityMatrix,
    bell_diagonal,
    is_separable_ppt,
    partial_transpose_matrix,
    ppt_min_eig,
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
        for rho in ginibre_corpus(25):
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
        pairs = [(rho, direction) for rho in ginibre_corpus(15)
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
        rhos = ginibre_corpus(10) + [BELL_07, SINGLET, werner(0.2), werner(1.0 - 1e-3)]
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

    def test_ppt_monotone_along_rays(self):
        rng = np.random.default_rng(3)
        checked = 0
        for rho in ginibre_corpus(10):
            if is_separable_ppt(rho)[0]:
                continue
            direction = random_mixture(rng).to_density()
            flags = [ppt_min_eig((rho.matrix + s * direction.matrix) / (1 + s)) >= -1e-11
                     for s in np.linspace(0.0, 50.0, 100)]
            assert flags == sorted(flags)
            checked += 1
        assert checked >= 3


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
        assert result.s_best <= 2.0 + 1e-6  # the maximally mixed direction caps it
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
        # not over all separable states; the search finds better directions
        # for generic states and the result is flagged as a finding
        rho = sample_state("ginibre", 0)
        cert = robustness(rho)
        assert cert.s > 0.0
        result = minimize_absolute_robustness(rho, budget=6, seed=0)
        assert result.s_best <= cert.s + 1e-6
        assert result.gap_to_formula > 1e-3
        assert result.minimality_flag()


def sequential_descent(rho_pt, seed, *, n_terms, sweeps, weight_step, angle_step):
    """One restart on its own: the rules the stacked search must reproduce."""
    weights, angles = _random_start(np.random.default_rng(seed), n_terms)
    evaluations = skipped = 0

    def evaluate(w, ang):
        nonlocal evaluations
        evaluations += 1
        return _relative_robustness(rho_pt, w[None], _product_kets(ang)[None])[0]

    best = evaluate(weights, angles)
    w_step, a_step = weight_step, angle_step
    for _ in range(sweeps):
        for n in range(n_terms):
            for delta in (w_step, -w_step):
                trial = weights.copy()
                trial[n] = max(0.0, trial[n] + delta)
                if trial.sum() <= 0.0:
                    skipped += 1
                    continue
                value = evaluate(trial, angles)
                if value < best:
                    best, weights = value, trial
                    break
            for axis in range(4):
                for delta in (a_step, -a_step):
                    trial = angles.copy()
                    trial[n, axis] += delta
                    value = evaluate(weights, trial)
                    if value < best:
                        best, angles = value, trial
                        break
        w_step *= 0.5
        a_step *= 0.5
    return best, weights, angles, evaluations, skipped


class TestLockstepSearch:
    RHO = sample_state("ginibre", 0)

    def test_best_is_the_best_single_restart(self):
        budget, seed = 4, 7
        whole = minimize_absolute_robustness(self.RHO, budget, seed)
        singles = [minimize_absolute_robustness(self.RHO, 1, seed + r) for r in range(budget)]
        best_single = min(r.s_best for r in singles)
        assert abs(whole.s_best - best_single) <= DEFAULT.bisect_default * (1.0 + best_single)
        # each single run adds the reference, mixed and final bisections
        assert whole.evaluations == sum(r.evaluations for r in singles) - 3 * (budget - 1)

    @pytest.mark.parametrize("n_terms, weight_step", [(8, 0.1), (1, 1.0)])
    def test_restarts_match_one_at_a_time(self, n_terms, weight_step):
        # weight_step 1.0 drives the only weight of a one-term mixture to 0,
        # so its -step trial is skipped in the first sweep
        rho_pt = partial_transpose_matrix(self.RHO.matrix)
        settings = dict(n_terms=n_terms, sweeps=3, weight_step=weight_step, angle_step=0.3)
        seeds = [11, 12, 13]
        values, weights, angles, evaluations = _coordinate_descent(rho_pt, seeds, **settings)
        reference = [sequential_descent(rho_pt, seed, **settings) for seed in seeds]
        for r, (value, w, ang, _, _) in enumerate(reference):
            assert values[r] == value
            assert np.array_equal(weights[r], w) and np.array_equal(angles[r], ang)
        assert evaluations == sum(ref[3] for ref in reference)
        assert any(ref[4] for ref in reference) == (n_terms == 1)

    def test_zero_budget_keeps_the_reference_directions(self):
        cert = robustness(self.RHO)
        result = minimize_absolute_robustness(self.RHO, budget=0, seed=0)
        assert result.evaluations == 3
        assert result.s_best <= cert.s + 1e-9
        assert result.s_best == min(result.s_direction, bisect_relative_robustness(self.RHO, MIXED))

    def test_failed_factorization_scores_only_its_entry(self):
        rho_pt = partial_transpose_matrix(self.RHO.matrix)
        mixture = random_mixture(np.random.default_rng(5), n=3)
        kets = np.stack([_product_kets(mixture.bloch_angles)] * 3)
        # a negative weight makes the middle direction indefinite, so its Cholesky factor fails
        weights = np.stack([mixture.weights, [1.0, -0.5, 0.5], mixture.weights])
        values = _relative_robustness(rho_pt, weights, kets)
        alone = _relative_robustness(rho_pt, weights[:1], kets[:1])[0]
        assert values[1] == math.inf
        assert values[0] == values[2] == alone and math.isfinite(alone)


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
        for rho in ginibre_corpus(20):
            report = verify_certificate(rho, robustness(rho))
            assert report["passed"], report

    def test_oracle_block_present_when_requested(self):
        report = verify_certificate(BELL_07, robustness(BELL_07), oracle_budget=3, seed=2)
        assert "oracle" in report
        assert report["oracle"]["s_best"] <= 0.4 + 1e-6
        assert report["oracle"]["minimality_flag"] is False
