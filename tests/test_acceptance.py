"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Corpora are frozen by seed (one generator per state index, base seed 0) so
every run checks identical states.  Criteria that restate a property group
of ``qrobust verify`` run that group.  Runtime bounds are asserted with the
budgets the criteria state; all are generous on commodity hardware.
"""

import math
import time

import numpy as np

from conftest import ginibre_states
from qrobust import decompose, verify
from qrobust.oracle import minimize_absolute_robustness
from qrobust.robustness import robustness
from qrobust.states import BellWeights, bell_diagonal
from qrobust.tolerances import DEFAULT
from qrobust.wootters import decompose_stack


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_bell_diagonal_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_s = worst_k = 0.0
    produced = 0
    while produced < 100:
        p = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        if p[0] <= 0.5:
            continue
        produced += 1
        rho = bell_diagonal(BellWeights(p))
        cert = robustness(rho)
        dec = decompose(rho)
        worst_s = max(worst_s, abs(cert.s - (2.0 * p[0] - 1.0)))
        worst_k = max(worst_k, float(np.max(np.abs(dec.k_norm - 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst_s <= 1e-9 and worst_k <= 1e-9 and elapsed < 1.0
    _report("criterion 1 (bell-diagonal identity)", ok,
            f"|s - (2p1-1)| <= {worst_s:.2e}, |K-1| <= {worst_k:.2e}, {elapsed:.2f}s")


def _run_group(group, size):
    """A property group on the first ``size`` entries of the seed-0 corpus, and its wall time."""
    start = time.perf_counter()
    corpus = verify.Corpus(size)
    return corpus, group(corpus), time.perf_counter() - start


def test_criterion_2_defining_relation():
    _, result, elapsed = _run_group(verify._check_defining_relation, 1000)
    _report("criterion 2 (defining relation, 1000 states)", result.passed and elapsed < 5.0,
            f"{result.line()}, {elapsed:.2f}s")


def test_criterion_3_certificate_boundary_exactness():
    start = time.perf_counter()
    corpus, result, _ = _run_group(verify._check_certificates, 200)
    # the group asks for C > 0 at 0.999 s; the criterion asks this corpus for more
    certs = corpus.certificates
    entangled = certs.s != 0.0
    ts = 0.999 * certs.s[entangled, None, None]
    before = (corpus.ginibre[entangled] + ts * certs.rho_pp[entangled]) / (1.0 + ts)
    worst_before = decompose_stack(before).concurrence.min()
    elapsed = time.perf_counter() - start
    ok = result.passed and worst_before > 1e-6 and elapsed < 5.0
    _report("criterion 3 (boundary exactness, 200-state corpus)", ok,
            f"{result.line()}, conc@0.999s >= {worst_before:.2e}, {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    # the group's crossing check: |bisection along rho'' - s| <= bisect_formula
    _, result, elapsed = _run_group(verify._check_certificates, 200)
    ok = result.passed and DEFAULT.bisect_formula == 1e-6 and elapsed < 30.0
    _report("criterion 4 (bisection equals closed form)", ok, f"{result.line()}, {elapsed:.2f}s")


def test_criterion_5_pseudomixture_identity():
    _, result, _ = _run_group(verify._check_certificates, 200)
    _report("criterion 5 (pseudomixture identity)", result.passed, result.line())


def test_criterion_6_closed_form_k():
    _, result, elapsed = _run_group(verify._check_coset_identities, 1000)
    _report("criterion 6 (closed-form K, 1000 draws)", result.passed and elapsed < 5.0,
            f"{result.line()}, {elapsed:.2f}s")


def test_criterion_7_tilde_norm_invariance():
    _, result, _ = _run_group(verify._check_local_unitary, 1000)
    _report("criterion 7 (norm invariance, 500 pairs)", result.passed, result.line())


def test_criterion_8_known_thresholds():
    _, result, _ = _run_group(verify._check_thresholds, 1)
    _report("criterion 8 (known thresholds)", result.passed, result.line())


def test_criterion_9_minimality_probe():
    start = time.perf_counter()
    findings = []
    worst_excess = -math.inf
    for index, rho in enumerate(ginibre_states(20)):
        try:
            cert = robustness(rho)
        except Exception:
            continue
        result = minimize_absolute_robustness(rho)
        excess = result.s_best - cert.s
        worst_excess = max(worst_excess, excess)
        assert result.s_best <= cert.s + 1e-6, f"state {index}: upper bound violated"
        if cert.s > 0.0 and result.minimality_flag(DEFAULT.oracle_flag):
            findings.append((index, cert.s, result.s_best))
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    detail = (f"s_best - s_formula <= {worst_excess:.2e}; "
              f"{len(findings)} states where the search found a strictly better "
              f"direction (recorded as findings, not failures); {elapsed:.1f}s")
    for index, s_formula, s_best in findings:
        print(f"    finding: state {index}: closed form {s_formula:.6f}, search {s_best:.6f}")
    _report("criterion 9 (minimality probe on 20 states)", ok, detail)
