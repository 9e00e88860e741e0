"""The property groups of ``qrobust verify``, run at the test suite's corpus sizes.

Groups that an acceptance criterion already runs (defining relation,
certificates, coset identities, local unitaries, thresholds) are called
from ``test_acceptance.py`` at the criterion's size.
"""

import dataclasses
import re

import numpy as np
import pytest

from qrobust import states, verify
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


# name: (group, fault, bound of the one check it breaks), for each check that a
# deleted per-state test made and its group now makes
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
}


@pytest.mark.parametrize("group, fault, bound", FAULTS.values(), ids=FAULTS.keys())
def test_group_catches_the_fault_its_deleted_test_caught(monkeypatch, fault, group, bound):
    corpus = verify.Corpus(20)
    assert group(corpus).passed
    fault(monkeypatch, corpus)
    result = group(corpus)
    assert not result.passed, result.line()
    assert result.bound == bound and result.worst_entry.startswith(("draw ", "ginibre seed "))


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
