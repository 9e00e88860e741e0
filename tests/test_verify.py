"""The property groups of ``qrobust verify``, run at the test suite's corpus sizes.

Groups that an acceptance criterion already runs (defining relation,
certificates, coset identities, local unitaries, thresholds) are called
from ``test_acceptance.py`` at the criterion's size.
"""

import dataclasses
import re

import numpy as np
import pytest

from conftest import rank_two_state, rotate_locally, werner_boundary
from qrobust import oracle, states, verify
from qrobust.numerics import NumericalFailure
from qrobust.robustness import _MIN_PAIR_COLUMNS, _MIN_PAIR_VERTEX, RankDeficient, robustness_stack
from qrobust.states import ValidationError, ppt_min_eig, sample_state
from qrobust.tolerances import DEFAULT

# (group, corpus size): the size at which the group checks at least what the
# per-state tests it replaced checked
GROUP_SIZES = [
    (verify._check_eig, 1000),              # 1000 Hermitian draws of default_rng(0)
    (verify._check_takagi, 1000),           # 1000 symmetric draws of default_rng(1)
    (verify._check_spin_flip, 50),
    (verify._check_bell_tilde, 20),
    (verify._check_moments, 100),
    (verify._check_xprime, 100),
    (verify._check_plane_dominance, 200),   # 10 states, 100 weight draws each
    (verify._check_coset_roundtrip, 400),   # 200 parameter draws of default_rng(5)
    (verify._check_ppt_monotone, 200),      # rays from the NPT states among 10
]


@pytest.mark.parametrize("group, size", GROUP_SIZES,
                         ids=[g.__name__.removeprefix("_check_") for g, _ in GROUP_SIZES])
def test_group_passes(group, size):
    result = group(verify.Corpus(size))
    assert result.passed, result.line()


def test_monotone_group_sees_entangled_rays():
    assert np.sum(ppt_min_eig(verify.Corpus(200).ginibre[:10]) < -DEFAULT.ppt) >= 3


def _patched(module, name, change):
    """A fault that passes what ``module.name`` returns through ``change``."""
    def fault(monkeypatch, corpus):
        kernel = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: change(kernel(*args)))
    return fault


def _decomposition(**change):
    """A fault that replaces fields of the corpus's decomposition, each computed from it."""
    def fault(monkeypatch, corpus):
        dec = corpus.decomposition
        corpus.__dict__["decomposition"] = dataclasses.replace(dec, **{k: f(dec) for k, f in change.items()})
    return fault


def _certificates(**change):
    """A fault that replaces fields of the corpus's certificates, each computed from them."""
    def fault(monkeypatch, corpus):
        certs = corpus.certificates
        corpus.__dict__["certificates"] = dataclasses.replace(certs, **{k: f(certs) for k, f in change.items()})
    return fault


# name: (group, fault, bound of the one check it breaks), for each check that a
# deleted per-state test made and its group now makes, for a scaled rho',
# which the certificate group and ``verify_certificate`` must both catch, and
# for the exact checks minimal_pair and closed_form
FAULTS = {
    "ascending_eig": (verify._check_eig, _patched(
        verify, "hermitian_eig_stack", lambda r: (r[0][:, ::-1], r[1][:, :, ::-1], r[2])), 0.0),
    "ascending_takagi": (verify._check_takagi, _patched(
        verify, "takagi_stack", lambda r: (r[0][:, ::-1], r[1][:, ::-1], r[2])), 0.0),
    "inexact_partial_transpose": (verify._check_spin_flip, _patched(
        states, "partial_transpose_matrix", lambda pt: pt * (1.0 + 2.0 ** -52)), 0.0),
    "first_qubit_partial_transpose": (verify._check_spin_flip, _patched(   # T_A(rho) = T_B(rho)^T
        states, "partial_transpose_matrix", lambda pt: pt.swapaxes(-1, -2)), 0.0),
    "ascending_lambdas": (verify._check_defining_relation, _decomposition(
        lambdas=lambda d: d.lambdas[:, ::-1], x=lambda d: d.x[:, :, ::-1]), 0.0),
    "rank_deficient": (verify._check_xprime, _decomposition(
        rank=lambda d: d.rank - (np.arange(len(d.rank)) == 3)), 0),
    "unnormalized_p_coord": (verify._check_defining_relation, _decomposition(
        p_coord=lambda d: d.p_coord * (1.0 + 1e-6)), DEFAULT.reconstruction),
    "scaled_rho_p": (verify._check_certificates, _certificates(
        rho_p=lambda c: c.rho_p * (1.0 + 1e-6)), DEFAULT.pseudomixture),
    "moved_k_index": (verify._check_certificates, _certificates(   # vertex 2 -> 3 -> 4 -> 2
        k_index=lambda c: np.where(c.s != 0.0, (c.k_index - 1) % 3 + 2, c.k_index)), 0.0),
    "inexact_s": (verify._check_certificates, _certificates(
        s=lambda c: c.s * (1.0 + 2.0 ** -52)), 0.0),
}


@pytest.mark.parametrize("group, fault, bound", FAULTS.values(), ids=FAULTS.keys())
def test_group_catches_the_fault_its_deleted_test_caught(monkeypatch, fault, group, bound):
    corpus = verify.Corpus(20)
    assert group(corpus).passed
    fault(monkeypatch, corpus)
    result = group(corpus)
    assert not result.passed, result.line()
    assert result.bound == bound and result.worst_entry.startswith(("draw ", "ginibre seed "))


def test_verify_certificate_fails_the_check_its_group_fails(monkeypatch):
    # the audit of the group's worst entry is its N = 1 run: the same residual, named
    group, fault, bound = FAULTS["scaled_rho_p"]
    corpus = verify.Corpus(20)
    fault(monkeypatch, corpus)
    result = group(corpus)
    i = int(re.fullmatch(r"ginibre seed (\d+)", result.worst_entry).group(1)) - corpus.seed
    report = verify.verify_certificate(states.DensityMatrix(corpus.ginibre[i]), corpus.certificates.entry(i))
    failed = {name: check for name, check in report["checks"].items() if not check["passed"]}
    assert failed == {"pseudomixture": {"residual": result.worst, "bound": bound, "passed": False}}
    assert not report["passed"]


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_raised_s_fails_npt_before_s_at_any_tolerance_scale(scale):
    # npt_before_s reads the oracle's fixed PPT cut: at 0.999 of an s raised
    # by 1% every entangled state's mixture is already PPT, at every scale
    corpus = verify.Corpus(20)
    raised = dataclasses.replace(corpus.certificates, s=corpus.certificates.s * 1.01)
    checks, _, _, errors = verify.certificate_checks(corpus.ginibre, raised, DEFAULT.scaled(scale))
    residual, bound = checks["npt_before_s"]
    entangled = raised.s != 0.0
    assert np.sum(entangled) >= 10 and np.all(residual[entangled] == 1.0) and bound == 0.0


def _failed_audit(matrices, certs):
    """Entry errors and names of failed checks of one ``certificate_checks`` run on a stack."""
    checks, _, _, errors = verify.certificate_checks(matrices, certs, DEFAULT)
    return [e for e in errors if e is not None] + [n for n, (r, b) in checks.items() if not np.all(r <= b)]


def test_audit_passes_on_the_bell_decomposable_family():
    # R = C = s here, and the pair sums tie to rounding: every check holds the
    # certificate to the pair the tie rule picks, not to the exact minimum
    bell = states.sample_stack("bell_diagonal", range(300)).matrices
    rng = np.random.default_rng(0)
    rotated = np.array([rotate_locally(states.DensityMatrix(m), rng).matrix for m in bell])
    werners = np.array([states.werner(p).matrix for p in np.arange(35, 100) / 100])
    for matrices in (bell, rotated, werners):
        assert _failed_audit(matrices, robustness_stack(matrices)) == []
    # a Werner certificate moved to a vertex whose pair sum differs from the
    # picked one (the exact minimum, vertex 3, where the sums read
    # 2.0, 1.9999999999999991, 2.0000000000000004 and the rule picks vertex 4)
    rho = states.werner(0.8).matrix[None]
    certs = robustness_stack(rho)
    k = certs.decomposition.k_norm[0]
    sums = k[_MIN_PAIR_COLUMNS[:, 0]] + k[_MIN_PAIR_COLUMNS[:, 1]]
    own = sums[_MIN_PAIR_VERTEX == certs.k_index[0]]
    for vertex in _MIN_PAIR_VERTEX[sums != own]:
        moved = dataclasses.replace(certs, k_index=np.array([vertex]))
        assert _failed_audit(rho, moved) == ["minimal_pair"]


def _pass_stack():
    """Ginibre seeds 0-5, rank_two_state(0.5) (rank deficient, entry 6), I/4
    and werner(0.8), with their certificates."""
    matrices = np.array([sample_state("ginibre", seed).matrix for seed in range(6)]
                        + [rank_two_state(0.5).matrix, np.eye(4) / 4.0, states.werner(0.8).matrix])
    return matrices, robustness_stack(matrices)


def _pass_bits(s_bisection, results, errors):
    """An ``oracle_pass`` run as bytes and reprs, so NaN entries compare too."""
    found = [None if r is None else [v.matrix.tobytes() if isinstance(v, states.DensityMatrix) else repr(v)
                                     for v in vars(r).values()] for r in results]
    return s_bisection.tobytes(), found, [repr(e) for e in errors]


@pytest.mark.parametrize("with_sdp", [False, True])
def test_oracle_pass_matches_each_entry_alone(with_sdp):
    # each entry of the stacked pass is its N = 1 pass, bit for bit; the
    # rank-deficient entry gets no crossing and no error
    matrices, certs = _pass_stack()
    s_bisection, results, errors = oracle.oracle_pass(matrices, certs, with_sdp=with_sdp)
    for i in range(len(matrices)):
        alone = oracle.oracle_pass(matrices[i:i + 1], robustness_stack(matrices[i:i + 1]), with_sdp=with_sdp)
        assert _pass_bits(*alone) == _pass_bits(s_bisection[i:i + 1], results[i:i + 1], errors[i:i + 1]), i
    assert isinstance(certs.errors[6], RankDeficient) and np.isnan(s_bisection[6])
    assert errors == [None] * len(matrices) and np.isfinite(np.delete(s_bisection, 6)).all()
    assert [r is not None for r in results] == [with_sdp] * len(matrices)


def test_oracle_pass_reports_the_first_error_of_an_entry(monkeypatch):
    # at entry 2: a decomposition error wins over a crossing error along
    # rho'', and that over an oracle error, here an entangled SDP direction
    # (the state itself), whose crossing fails
    matrices, certs = _pass_stack()
    real_crossing, real_sdp = oracle.relative_robustness_stack, oracle._sdp

    def crossing(rho, sigma):
        s, errors = real_crossing(rho, sigma)
        return s, [oracle.ImproperDirection("crossing") if np.array_equal(d, certs.rho_pp[2]) else e
                   for d, e in zip(sigma, errors)]

    def sdp(rho_pt):
        lower, upper, direction, steps = real_sdp(rho_pt)
        if np.array_equal(rho_pt, states.partial_transpose_matrix(matrices[2])):
            direction = matrices[2]
        return lower, upper, direction, steps

    monkeypatch.setattr(oracle, "relative_robustness_stack", crossing)
    monkeypatch.setattr(oracle, "_sdp", sdp)
    failed = dataclasses.replace(certs, errors=[NumericalFailure("decomposition") if i == 2 else e
                                                for i, e in enumerate(certs.errors)])
    runs = [oracle.oracle_pass(matrices, failed, with_sdp=True), oracle.oracle_pass(matrices, certs, with_sdp=True)]
    monkeypatch.setattr(oracle, "relative_robustness_stack", real_crossing)
    runs.append(oracle.oracle_pass(matrices, certs, with_sdp=True))
    for _, _, errors in runs:
        assert errors[:2] + errors[3:] == [None] * (len(matrices) - 1)
    assert [str(errors[2]) for _, _, errors in runs][:2] == ["decomposition", "crossing"]
    assert isinstance(runs[2][2][2], oracle.NotSeparableDirection)
    assert re.fullmatch(r"direction has PT eigenvalue -\d\.\d{3}e-\d\d", str(runs[2][2][2]))


@pytest.mark.parametrize("field, group", [
    ("eig_orthonormality", verify._check_eig),
    ("takagi_unitarity", verify._check_takagi),
    ("coset_vectors", verify._check_coset_identities),
])
def test_group_reads_the_tolerance_field_of_its_residual(field, group):
    assert group(verify.Corpus(50)).passed
    result = group(verify.Corpus(50, 0, dataclasses.replace(DEFAULT, **{field: 0.0})))
    assert not result.passed
    assert result.bound == 0.0 and result.worst > 0.0


def test_fail_line_names_the_state_that_reproduces_it():
    tol = dataclasses.replace(DEFAULT, defining_relation=0.0)
    result = verify._check_defining_relation(verify.Corpus(30, 100, tol))
    assert not result.passed
    assert result.line().endswith(f"worst entry: {result.worst_entry}")
    seed = int(re.fullmatch(r"ginibre seed (\d+)", result.worst_entry).group(1))
    # the corpus of that one seed, as ``qrobust verify --corpus 1 --seed <seed>`` draws it
    alone = verify._check_defining_relation(verify.Corpus(1, seed, tol))
    assert alone.worst == result.worst and alone.worst_entry == result.worst_entry
    assert "worst entry" not in verify._check_defining_relation(verify.Corpus(30, 100)).line()


def test_failed_draw_names_its_seed():
    exact = DEFAULT.scaled(0.0)
    failed = next(r for r in verify.run_all(corpus=5, seed=0, tolerances=exact) if r.name == "spin_flip")
    assert not failed.passed and failed.line().endswith(f"worst entry: {failed.worst_entry}")
    seed = int(re.fullmatch(r"ginibre seed (\d+)", failed.worst_entry).group(1))
    with pytest.raises(ValidationError) as single:
        sample_state("ginibre", seed, exact)
    assert failed.detail == f"raised {single.value!r}"


@pytest.mark.parametrize("scale", [1.0, 1000.0, 0.0])
def test_thresholds_match_the_scalar_bisection(scale):
    # the Werner boundary read off the crossing against the one-point-at-a-time
    # bisection; the crossing is the same at every scale, which moves only the bounds
    tol = DEFAULT.scaled(scale)
    singlet = states.werner(1.0)
    s_mix = oracle.bisect_relative_robustness(singlet, states.DensityMatrix(np.eye(4) / 4.0))
    assert abs(1.0 / (1.0 + s_mix) - werner_boundary()) <= 1e-10
    ratios = np.array([abs(states.is_separable_ppt(singlet, tol)[1] + 0.5) / max(tol.singular_agreement, 1e-300),
                       abs(s_mix - 2.0) / max(tol.bisect_formula, 1e-300),
                       abs(1.0 / (1.0 + s_mix) - 1.0 / 3.0) / max(tol.werner_boundary, 1e-300)])
    result = verify._check_thresholds(verify.Corpus(5, 0, tol))
    names = ("singlet PT minimum eigenvalue", "bisection from the singlet toward I/4", "Werner boundary")
    expected = verify._result(result.name, [(ratios, 1.0)], names.__getitem__)
    assert result == expected and result.line() == expected.line()


def test_thresholds_fail_on_a_crossing_off_by_1e_7(monkeypatch):
    # within bisect_formula of 2, but the Werner boundary it fixes is off by 2.2 werner_boundary
    located = oracle.bisect_relative_robustness
    monkeypatch.setattr(oracle, "bisect_relative_robustness", lambda *args, **kw: located(*args, **kw) * (1 + 1e-7))
    result = verify._check_thresholds(verify.Corpus(5))
    assert not result.passed and result.worst_entry == "Werner boundary"


def test_seeds_beyond_int64_name_their_entries():
    seed = 2 ** 64
    assert all(result.passed for result in verify.run_all(corpus=5, seed=seed))
    tol = dataclasses.replace(DEFAULT, defining_relation=0.0)
    corpus = verify.Corpus(5, seed, tol)
    result = verify._check_defining_relation(corpus)
    assert not result.passed
    n = int(re.fullmatch(r"ginibre seed (\d+)", result.worst_entry).group(1))
    assert np.array_equal(sample_state("ginibre", n).matrix, corpus.ginibre[n - seed])
