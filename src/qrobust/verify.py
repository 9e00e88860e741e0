"""Batch property suite behind ``qrobust verify``.

Each group recomputes one family of invariants over a seeded corpus and
reports the worst residual against its tolerance.  Any exception inside a
group counts as a failure of that group, so a broken kernel or a zeroed
tolerance record surfaces as named failing properties rather than a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coset, numerics, oracle, states, wootters
from .robustness import plane_robustness_other, plane_robustness_s1, robustness, robustness_stack
from .states import DensityMatrix
from .tolerances import DEFAULT, Tolerances


@dataclass
class PropertyResult:
    name: str
    passed: bool
    worst: float = math.nan
    bound: float = math.nan
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: worst {self.worst:.3e} (bound {self.bound:.3e})"
        if self.detail:
            text += f"  {self.detail}"
        return text


def _corpus(kind: str, count: int, seed: int, tol: Tolerances):
    return [states.sample_state(kind, seed + i, tol) for i in range(count)]


def _decomposed(rhos: list, tol: Tolerances) -> list:
    """(rho, decomposition) pairs for a list of states, decomposed as one
    stack; the first entry that failed raises its error."""
    stack = wootters.decompose_stack(np.array([rho.matrix for rho in rhos]), tol)
    return [(rho, stack.entry(i)) for i, rho in enumerate(rhos)]


def _random_hermitian(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return g + g.conj().T


def _check_eig(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(corpus):
        h = _random_hermitian(rng)
        evals, vecs = numerics.hermitian_eig(h, tol)
        scale = 1.0 + np.max(np.abs(h))
        worst = max(worst, np.max(np.abs(h @ vecs - vecs * evals[None, :])) / scale)
        worst = max(worst, np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))))
        worst = max(worst, np.max(np.abs((vecs * evals[None, :]) @ vecs.conj().T - h)) / scale)
    return PropertyResult("hermitian_eig residuals", worst <= tol.eig_residual, worst, tol.eig_residual)


def _check_takagi(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(corpus):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = g + g.T
        w, d = numerics.takagi(s, tol)
        worst = max(worst, np.max(np.abs(w @ s @ w.T - np.diag(d))))
        worst = max(worst, np.max(np.abs(w.conj().T @ w - np.eye(4))))
        sv = np.sort(np.linalg.svd(s, compute_uv=False))[::-1]
        worst = max(worst, np.max(np.abs(sv - d)))
    return PropertyResult("takagi factorization residuals", worst <= tol.takagi_residual, worst, tol.takagi_residual)


def _check_spin_flip(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    worst = 0.0
    for rho in _corpus("ginibre", corpus, seed, tol):
        flipped = states.spin_flip(rho)
        worst = max(worst, np.max(np.abs(states.tilde_matrix(flipped) - rho.matrix)))
        overlap = np.trace(rho.matrix @ flipped).real
        worst = max(worst, max(0.0, -overlap))
        pt = states.partial_transpose(rho)
        worst = max(worst, np.max(np.abs(states.partial_transpose_matrix(pt) - rho.matrix)))
        worst = max(worst, abs(np.trace(pt).real - 1.0))
    bound = max(tol.reconstruction * 1e-3, 1e-15)  # involutions are exact up to rounding
    return PropertyResult("spin-flip and partial-transpose algebra", worst <= bound, worst, bound)


def _check_bell_tilde(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    worst = 0.0
    for rho in _corpus("bell_diagonal", corpus, seed, tol):
        worst = max(worst, np.max(np.abs(states.spin_flip(rho) - rho.matrix)))
    bound = tol.unit_weight
    return PropertyResult("bell-diagonal states are tilde invariant", worst <= bound, worst, bound)


def _check_defining_relation(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    worst = 0.0
    for rho, dec in _decomposed(_corpus("ginibre", corpus, seed, tol), tol):
        gram = np.conj(dec.x.T @ states.SIGMA_YY @ dec.x)
        worst = max(worst, np.max(np.abs(gram - np.diag(dec.lambdas))))
        worst = max(worst, np.max(np.abs(dec.x @ dec.x.conj().T - rho.matrix)))
    return PropertyResult("defining relation and reconstruction", worst <= tol.defining_relation,
                          worst, tol.defining_relation)


def _check_moments(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    worst = 0.0
    for rho, dec in _decomposed(_corpus("ginibre", corpus, seed, tol), tol):
        product = rho.matrix @ states.spin_flip(rho)
        power = np.eye(4, dtype=complex)
        for m in range(1, 5):
            power = power @ product
            worst = max(worst, abs(np.trace(power).real - float(np.sum(dec.lambdas ** (2 * m)))))
    return PropertyResult("moment identity tr((rho rho~)^m)", worst <= tol.moments, worst, tol.moments)


def _check_xprime(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    worst = 0.0
    for rho, dec in _decomposed(_corpus("ginibre", corpus, seed, tol), tol):
        if dec.rank < 4:
            continue
        xp = dec.x_prime()
        gram = np.conj(xp.T @ states.SIGMA_YY @ xp)
        worst = max(worst, np.max(np.abs(gram - np.eye(4))))
    return PropertyResult("normalized basis tilde-orthonormality", worst <= tol.defining_relation,
                          worst, tol.defining_relation)


def _check_local_unitary(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    other = states.sample_state("ginibre", seed + 90_000, tol)
    for rho in _corpus("ginibre", max(corpus // 2, 10), seed, tol):
        lu = states.random_local_unitary(rng)
        rotated = states.apply_local_unitary(rho, lu)
        worst = max(worst, abs(wootters.concurrence(rotated, tol) - wootters.concurrence(rho, tol)))
        m = _random_hermitian(rng)
        u = lu.product()
        norm = wootters.tilde_norm(m)
        rotated_norm = wootters.tilde_norm(u @ m @ u.conj().T)
        worst = max(worst, abs(rotated_norm - norm) / max(norm, 1e-30))
        d0 = wootters.tilde_distance(rho, other)
        d1 = wootters.tilde_distance(rotated, states.apply_local_unitary(other, lu))
        worst = max(worst, abs(d1 - d0))
    return PropertyResult("local-unitary invariance (concurrence, norm, distance)",
                          worst <= tol.lu_invariance, worst, tol.lu_invariance)


def _check_certificates(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    worst = 0.0
    entangled = 0
    ok = True
    mixes_at, vertices = [], []
    rhos = _corpus("ginibre", corpus, seed, tol)
    certs = robustness_stack(np.array([rho.matrix for rho in rhos]), tol)
    for i, rho in enumerate(rhos):
        cert = certs.entry(i)
        if cert.s == 0.0:
            continue
        entangled += 1
        worst = max(worst, cert.residuals["pseudomixture"])
        worst = max(worst, cert.residuals["plane"])
        ok = ok and cert.residuals["ppt_min_eig_rho_p"] >= -tol.ppt
        ok = ok and cert.residuals["ppt_min_eig_rho_pp"] >= -tol.ppt
        lam_p = cert.rho_p_coords
        worst = max(worst, abs(float(np.sum(lam_p * cert.decomposition.k_norm)) - 1.0))
        # entanglement dies exactly at s along the witness vertex
        mixes_at.append(DensityMatrix((rho.matrix + cert.s * cert.rho_pp.matrix) / (1.0 + cert.s)))
        shrunk = 0.999 * cert.s
        mix_before = (rho.matrix + shrunk * cert.rho_pp.matrix) / (1.0 + shrunk)
        ok = ok and states.ppt_min_eig(mix_before) < -tol.ppt
        vertices.append(cert.rho_pp)
    if entangled:
        worst = max(worst, max(dec.concurrence for _, dec in _decomposed(mixes_at, tol)))
        ok = ok and all(dec.rank <= 2 for _, dec in _decomposed(vertices, tol))
    passed = ok and worst <= tol.pseudomixture
    return PropertyResult("robustness certificates (soundness, boundary, pseudomixture)",
                          passed, worst, tol.pseudomixture, detail=f"{entangled} entangled states")


def _check_plane_dominance(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0  # how far any plane value dips below the certificate
    for rho in _corpus("ginibre", max(corpus // 20, 5), seed, tol):
        cert = robustness(rho, tol)
        if cert.s == 0.0:
            continue
        dec = cert.decomposition
        for _ in range(100):
            weights = rng.dirichlet(np.ones(3))
            values = [plane_robustness_s1(dec, weights)]
            for plane in (2, 3, 4):
                values.append(plane_robustness_other(dec, plane, weights))
            worst = max(worst, max(cert.s - min(values), 0.0))
    return PropertyResult("plane robustness never beats the certificate",
                          worst <= tol.plane, worst, tol.plane)


def _check_coset_identities(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed + 4)
    worst_orth = 0.0
    worst_k = 0.0
    syy = states.SIGMA_YY
    for _ in range(corpus):
        params = coset.sample_params(rng, angle_scale=2.0)
        y = coset.build_Y(params)
        x = coset.build_X(params)
        worst_orth = max(worst_orth, np.max(np.abs(y.T @ y - np.eye(4))))
        worst_orth = max(worst_orth, np.max(np.abs(x.T @ syy @ x - np.eye(4))))
        gram = np.sum(np.abs(x) ** 2, axis=0)
        worst_k = max(worst_k, float(np.max(np.abs(coset.k_closed_form(params) - gram))))
        vectors = coset.closed_form_x(params)
        scaled = x * np.sqrt(params.lam)[None, :]
        worst_orth = max(worst_orth, max(np.max(np.abs(vectors[i] - scaled[:, i])) for i in range(4)))
    passed = worst_orth <= tol.coset_orthogonality and worst_k <= tol.coset_k
    return PropertyResult("coset identities (orthogonality, closed forms)",
                          passed, max(worst_orth, worst_k), tol.coset_k)


def _check_coset_roundtrip(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    params = [coset.sample_params(rng, angle_scale=1.0, min_gap=0.05) for _ in range(max(corpus // 2, 10))]
    rhos = [coset.density_from_params(p, tol) for p in params]
    for p, (_, dec) in zip(params, _decomposed(rhos, tol)):
        worst = max(worst, float(np.max(np.abs(dec.k_norm - coset.k_closed_form(p)))))
    return PropertyResult("coset roundtrip recovers K through decomposition",
                          worst <= tol.coset_roundtrip, worst, tol.coset_roundtrip)


def _check_thresholds(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    """Singlet PT eigenvalue -1/2, bisect(singlet, I/4) = 2, Werner boundary 1/3.

    Reported as the worst deviation relative to each value's own tolerance,
    so the bound is 1.
    """
    singlet = states.werner(1.0)
    mixed = DensityMatrix(np.eye(4) / 4.0)
    ratios = [abs(states.is_separable_ppt(singlet, tol)[1] + 0.5) / max(tol.singular_agreement, 1e-300)]
    s_mix = oracle.bisect_relative_robustness(singlet, mixed, tolerances=tol)
    ratios.append(abs(s_mix - 2.0) / max(tol.bisect_formula, 1e-300))
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if states.is_separable_ppt(states.werner(mid), tol)[0]:
            lo = mid
        else:
            hi = mid
    ratios.append(abs(0.5 * (lo + hi) - 1.0 / 3.0) / max(tol.werner_boundary, 1e-300))
    worst = max(ratios)
    return PropertyResult("known thresholds (singlet PT, Werner boundary, bisection)",
                          worst <= 1.0, worst, 1.0)


def _check_ppt_monotone(corpus: int, seed: int, tol: Tolerances) -> PropertyResult:
    rng = np.random.default_rng(seed + 6)
    violations = 0
    for rho in _corpus("ginibre", 5, seed, tol):
        if states.is_separable_ppt(rho, tol)[0]:
            continue
        mixture = oracle.ProductMixture(
            rng.dirichlet(np.ones(8)),
            np.stack([np.arccos(rng.uniform(-1, 1, 8)), rng.uniform(0, 2 * np.pi, 8),
                      np.arccos(rng.uniform(-1, 1, 8)), rng.uniform(0, 2 * np.pi, 8)], axis=1),
        ).to_density()
        grid = [states.ppt_min_eig((rho.matrix + s * mixture.matrix) / (1 + s)) >= -tol.ppt
                for s in np.linspace(0.0, 40.0, 100)]
        if grid != sorted(grid):
            violations += 1
    return PropertyResult("PPT status is monotone along separable rays",
                          violations == 0, float(violations), 0.5)


_GROUPS = (
    _check_eig,
    _check_takagi,
    _check_spin_flip,
    _check_bell_tilde,
    _check_defining_relation,
    _check_moments,
    _check_xprime,
    _check_local_unitary,
    _check_certificates,
    _check_plane_dominance,
    _check_coset_identities,
    _check_coset_roundtrip,
    _check_thresholds,
    _check_ppt_monotone,
)


def run_all(corpus: int = 200, seed: int = 0, tolerances: Tolerances = DEFAULT):
    """Run every property group; exceptions become named failures."""
    results = []
    for group in _GROUPS:
        try:
            results.append(group(corpus, seed, tolerances))
        except Exception as exc:  # noqa: BLE001 - failures must be reported, not raised
            name = group.__name__.removeprefix("_check_")
            results.append(PropertyResult(name, False, detail=f"raised {exc!r}"))
    return results
