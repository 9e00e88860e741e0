"""Property registry behind ``qrobust verify`` and the test suite.

Each group is the one implementation of one family of invariants: a pass
over (N, 4, 4) stacks drawn from a seeded corpus that reports the worst
residual against the tolerance field that names it.  ``qrobust verify`` runs
every group on one shared corpus; the tests call the same groups at their
own corpus sizes.  Any exception inside a group counts as a failure of that
group, so a broken kernel or a zeroed tolerance record surfaces as named
failing properties rather than a crash.  The certificate group's checks
(``certificate_checks``) also run on one state, as ``verify_certificate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import coset, oracle, states, wootters
from .numerics import hermitian_eig_stack, takagi_stack
from .robustness import (_VERTEX_COLUMNS, CertificateStack, RobustnessCertificate, _pair_sums, _plane_robustness,
                         robustness_stack)
from .tolerances import DEFAULT, Tolerances

_EYE = np.eye(4)


@dataclass
class PropertyResult:
    """One group's worst residual against that residual's bound, and the
    corpus entry it came from (an ensemble and seed, or a draw index of a
    seeded generator), which a FAIL line names so one call reproduces it."""

    name: str
    passed: bool
    worst: float = math.nan
    bound: float = math.nan
    detail: str = ""
    worst_entry: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: worst {self.worst:.3e} (bound {self.bound:.3e})"
        if self.detail:
            text += f"  {self.detail}"
        if not self.passed and self.worst_entry:
            text += f"  worst entry: {self.worst_entry}"
        return text


class _EntryError(Exception):
    """A library error raised on one corpus entry, with the entry's name."""

    def __init__(self, entry: str, error: Exception):
        super().__init__(entry, error)
        self.entry, self.error = entry, error


class Corpus:
    """The seeded inputs every group reads: ``size`` entries per group, base
    ``seed`` and the tolerance record.  The Ginibre states seed, ...,
    seed + size - 1 are drawn and certified once, on first use."""

    def __init__(self, size: int, seed: int = 0, tol: Tolerances = DEFAULT):
        self.size, self.seed, self.tol = size, seed, tol

    def rng(self, offset: int) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)

    def share(self, divisor: int, floor: int) -> int:
        """Entries of a group that checks a share of the corpus."""
        return min(max(self.size // divisor, floor), self.size)

    def seeds(self, ensemble: str, idx=None):
        """Names entry i of the corpus, or of its entries ``idx`` (taken
        cyclically, for stacks that repeat them)."""
        return lambda i: f"{ensemble} seed {self.seed + (i if idx is None else idx[i % len(idx)])}"

    def draws(self, offset: int):
        return lambda i: f"draw {i} of default_rng({self.seed + offset})"

    def draw(self, ensemble: str) -> np.ndarray:
        drawn = states.sample_stack(ensemble, range(self.seed, self.seed + self.size), self.tol)
        if drawn.error is not None:
            raise _EntryError(self.seeds(ensemble)(len(drawn.matrices)), drawn.error)
        return drawn.matrices

    @functools.cached_property
    def ginibre(self) -> np.ndarray:
        return self.draw("ginibre")

    @functools.cached_property
    def certificates(self) -> CertificateStack:
        return robustness_stack(self.ginibre, self.tol)

    @functools.cached_property
    def decomposition(self) -> wootters.DecompositionStack:
        dec = self.certificates.decomposition
        _raise_first(dec.errors, self.seeds("ginibre"))
        return dec


def _raise_first(errors: list, entry) -> None:
    first = next(filter(None, errors), None)
    if first is not None:
        raise _EntryError(entry(errors.index(first)), first)


def _require_states(matrices: np.ndarray, entry, tol: Tolerances) -> None:
    """Raise the density-matrix check failure of the first failing matrix."""
    failure = states._density_failure(matrices, tol)
    if failure is not None:
        raise _EntryError(entry(failure[0]), states.ValidationError(failure[1]))


def _max_abs(m: np.ndarray) -> np.ndarray:
    return np.abs(m).max(axis=(-2, -1))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _trace(m: np.ndarray) -> np.ndarray:
    return m.trace(axis1=-2, axis2=-1)


def _tilde_gram(x: np.ndarray) -> np.ndarray:
    """<x_i|~x_j> for the columns of each matrix of a stack."""
    return (x.swapaxes(-1, -2) @ states.SIGMA_YY @ x).conj()


def _flag(bad: np.ndarray) -> np.ndarray:
    """A condition as a residual: 1 where it fails, checked against bound 0."""
    return bad.astype(float)


def _ratio(residual: np.ndarray, bound: float) -> np.ndarray:
    if bound > 0:
        return residual / bound
    return np.where(residual > 0, np.inf, 0.0)


def _result(name: str, checks: list, entry, detail: str = "") -> PropertyResult:
    """Judge per-entry residuals: each check pairs an array of residuals, one
    per entry, with its bound, and ``entry(i)`` names entry i.  Reports the
    residual with the largest ratio to its bound (NaN first), and of equal
    ratios the largest residual."""
    passed = all(bool(np.all(residual <= bound)) for residual, bound in checks)
    residuals = np.array([residual for residual, _ in checks], dtype=float)
    ratios = np.array([_ratio(residual, bound) for residual, bound in checks])
    if ratios.size == 0:
        return PropertyResult(name, passed, 0.0, checks[0][1], detail)
    c, i = np.unravel_index(np.lexsort((residuals.ravel(), ratios.ravel()))[-1], ratios.shape)
    return PropertyResult(name, passed, float(checks[c][0][i]), checks[c][1], detail, entry(i))


def _gaussian(rng: np.random.Generator, count: int) -> np.ndarray:
    """Complex Gaussian 4x4 matrices, each drawn as its real block then its imaginary block."""
    z = rng.standard_normal((count, 2, 4, 4))
    return z[:, 0] + 1j * z[:, 1]


def _check_eig(corpus: Corpus) -> PropertyResult:
    tol, entry = corpus.tol, corpus.draws(0)
    g = _gaussian(corpus.rng(0), corpus.size)
    h = g + _adjoint(g)
    evals, vecs, errors = hermitian_eig_stack(h, tol)
    _raise_first(errors, entry)
    scale = 1.0 + _max_abs(h)
    scaled = vecs * evals[:, None, :]
    return _result("hermitian_eig residuals", [
        (_max_abs(h @ vecs - scaled) / scale, tol.eig_residual),
        (_max_abs(scaled @ _adjoint(vecs) - h) / scale, tol.eig_residual),
        (_max_abs(_adjoint(vecs) @ vecs - _EYE), tol.eig_orthonormality),
        (np.diff(evals).max(axis=-1), 0.0),                 # descending
    ], entry)


def _check_takagi(corpus: Corpus) -> PropertyResult:
    tol, entry = corpus.tol, corpus.draws(1)
    g = _gaussian(corpus.rng(1), corpus.size)
    s = g + g.swapaxes(-1, -2)
    w, d, errors = takagi_stack(s, tol)
    _raise_first(errors, entry)
    return _result("takagi factorization residuals", [
        (_max_abs(w @ s @ w.swapaxes(-1, -2) - d[:, :, None] * _EYE), tol.takagi_residual),
        (_max_abs(_adjoint(w) @ w - _EYE), tol.takagi_unitarity),
        (np.abs(np.linalg.svd(s, compute_uv=False) - d).max(axis=-1), tol.singular_agreement),
        (np.maximum(np.diff(d).max(axis=-1), -d.min(axis=-1)), 0.0),   # nonnegative, descending
    ], entry)


def _check_spin_flip(corpus: Corpus) -> PropertyResult:
    tol, entry, rho = corpus.tol, corpus.seeds("ginibre"), corpus.ginibre
    flipped = states.tilde_matrix(rho)
    _require_states(flipped, entry, tol)                # Hermitian, unit trace and PSD, like rho
    pt = states.partial_transpose_matrix(rho)
    # undone by a transpose on the second qubit written out here: swap b and d of rho[ab, cd]
    undone = pt.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(rho.shape)
    rounding = tol.reconstruction * 1e-3
    return _result("spin-flip and partial-transpose algebra", [
        (_max_abs(states.tilde_matrix(flipped) - rho), tol.reconstruction * 1e-6),   # involution
        (np.abs(_trace(flipped).real - 1.0), rounding),
        (-_trace(rho @ flipped).real, rounding),                                   # tr(rho rho~) >= 0
        (_max_abs(undone - rho), 0.0),                     # exact, and on the second qubit
        (np.abs(_trace(pt) - _trace(rho)), 0.0),
        (np.abs(_trace(pt).real - 1.0), rounding),
    ], entry)


def _check_bell_tilde(corpus: Corpus) -> PropertyResult:
    rho = corpus.draw("bell_diagonal")
    return _result("bell-diagonal states are tilde invariant",
                   [(_max_abs(states.tilde_matrix(rho) - rho), corpus.tol.unit_weight)],
                   corpus.seeds("bell_diagonal"))


def _check_defining_relation(corpus: Corpus) -> PropertyResult:
    tol, dec = corpus.tol, corpus.decomposition
    return _result("defining relation and reconstruction", [
        (_max_abs(_tilde_gram(dec.x) - dec.lambdas[:, :, None] * _EYE), tol.defining_relation),
        (_max_abs(dec.x @ _adjoint(dec.x) - corpus.ginibre), tol.reconstruction),
        (np.abs(dec.p_coord.sum(axis=-1) - 1.0), tol.reconstruction),
        (np.diff(dec.lambdas).max(axis=-1), 0.0),           # descending
    ], corpus.seeds("ginibre"))


def _check_moments(corpus: Corpus) -> PropertyResult:
    rho, lam = corpus.ginibre, corpus.decomposition.lambdas
    product = rho @ states.tilde_matrix(rho)
    power, residual = _EYE, 0.0
    for m in range(1, 5):
        power = power @ product
        residual = np.maximum(residual, np.abs(_trace(power).real - np.sum(lam ** (2 * m), axis=-1)))
    return _result("moment identity tr((rho rho~)^m)", [(residual, corpus.tol.moments)],
                   corpus.seeds("ginibre"))


def _check_xprime(corpus: Corpus) -> PropertyResult:
    dec = corpus.decomposition
    full = dec.rank == 4
    xp = wootters._x_prime(dec.x[full], dec.lambdas[full])
    residual = np.zeros(len(full))
    residual[full] = _max_abs(_tilde_gram(xp) - _EYE)
    return _result("normalized basis tilde-orthonormality", [
        (residual, corpus.tol.defining_relation),
        (4 - dec.rank, 0),                                  # every corpus state is full rank
    ], corpus.seeds("ginibre"))


def _check_local_unitary(corpus: Corpus) -> PropertyResult:
    tol, entry = corpus.tol, corpus.seeds("ginibre")
    n = corpus.share(2, 10)
    rng = corpus.rng(2)
    pairs = states._su2_pairs(rng, n)
    u = np.einsum("nij,nkl->nikjl", pairs[:, 0], pairs[:, 1]).reshape(n, 4, 4)   # U1 x U2
    g = _gaussian(rng, n)
    h = g + _adjoint(g)
    rho = corpus.ginibre[:n]
    other = states.sample_state("ginibre", corpus.seed + 90_000, tol).matrix
    rotated = u @ rho @ _adjoint(u)
    _require_states(rotated, entry, tol)
    turned = wootters.decompose_stack(rotated, tol)
    _raise_first(turned.errors, entry)
    c0, c1 = corpus.decomposition.concurrence[:n], turned.concurrence
    norm = wootters._tilde_norms(h)
    return _result("local-unitary invariance (concurrence, norm, distance)", [
        (np.abs(c1 - c0), tol.lu_invariance),
        (np.maximum(np.maximum(c0, c1) - 1.0, -np.minimum(c0, c1)), 0.0),   # C in [0, 1]
        (np.abs(wootters._tilde_norms(u @ h @ _adjoint(u)) - norm) / np.maximum(norm, 1e-30),
         tol.lu_invariance),
        (np.abs(wootters._tilde_norms(rotated - u @ other @ _adjoint(u))
                - wootters._tilde_norms(rho - other)), tol.lu_invariance),
        (_max_abs(_adjoint(u) @ u - _EYE), tol.su2),
    ], entry)


def certificate_checks(rho: np.ndarray, certs: CertificateStack, tol: Tolerances):
    """Every check of the certificates ``certs`` of the states ``rho`` (N, 4, 4),
    none of them failed: ``(checks, s_bisection, errors)``.

    ``checks`` maps each check's name to its residuals, one per entry, and its
    bound; ``s_bisection`` holds the PPT crossings along each rho''; and
    ``errors[i]`` is a library error of entry i (a mixture that fails the
    state checks, or a decomposition or crossing that fails), or None.  An
    entry's residuals mean something only when its error is None.  A
    separable entry has the degenerate certificate (s = 0, rho' = rho), and
    the checks of the entanglement a certificate removes read 0 on it.
    """
    s, rho_p, rho_pp, lam_p = certs.s, certs.rho_p, certs.rho_pp, certs.rho_p_coords
    k, c = certs.decomposition.k_norm, certs.decomposition.concurrence
    n, ent = len(s), np.flatnonzero(s != 0.0)

    def entangled(residual):
        out = np.zeros(n)
        out[ent] = residual
        return out

    s_bisection, errors = oracle.relative_robustness_stack(rho, rho_pp, tolerances=tol)
    ts = np.stack((s[ent], 0.999 * s[ent]))[:, :, None, None]
    at, before = (rho[ent] + ts * rho_pp[ent]) / (1.0 + ts)            # at s, and just before it
    failure = states._density_failure(np.concatenate((at, before)), tol)
    if failure is not None:
        i = np.tile(ent, 2)[failure[0]]
        errors[i] = errors[i] or states.ValidationError(f"mixture along rho'': {failure[1]}")
    mixed = wootters.decompose_stack(np.concatenate((rho_p[ent], rho_pp[ent], at, before)), tol)
    for i, error in zip(np.tile(ent, 4), mixed.errors):
        errors[i] = errors[i] or error
    conc, rank = mixed.concurrence.reshape(4, -1), mixed.rank.reshape(4, -1)
    min_eig = states.ppt_min_eig(np.concatenate((rho_p, rho_pp, before)))
    sums = _pair_sums(k)
    pair_sum = np.take_along_axis(k[ent], _VERTEX_COLUMNS[certs.k_index[ent]], axis=-1).sum(axis=-1)
    plane = lam_p[ent, 0] - lam_p[ent, 1] - lam_p[ent, 2] - lam_p[ent, 3]
    sp = s[:, None, None]
    return {
        "pseudomixture": (_max_abs(rho - (1.0 + sp) * rho_p + sp * rho_pp), tol.pseudomixture),
        "closed_form": (np.abs(s - 0.5 * sums.min(axis=-1) * c), 0.0),      # s = C min(K_i + K_j) / 2
        "minimal_pair": (entangled(pair_sum - sums[ent].min(axis=-1)), 0.0),  # at the vertex of the pair
        "plane": (entangled(np.abs(plane)), tol.plane),
        "rho_p_trace": (np.abs(np.sum(lam_p * k, axis=-1) - 1.0), tol.pseudomixture),
        "rho_p_separable": (-min_eig[:n], tol.ppt),
        "rho_pp_separable": (-min_eig[n:2 * n], tol.ppt),
        "rho_p_concurrence": (entangled(conc[0]), tol.pseudomixture),
        "rho_pp_concurrence": (entangled(conc[1]), tol.pseudomixture),
        "rho_pp_rank": (entangled(rank[1] - 2), 0),
        "separable_at_s": (entangled(conc[2]), tol.pseudomixture),     # entanglement dies at s
        "npt_before_s": (entangled(_flag(min_eig[2 * n:] >= -tol.ppt)), 0.0),   # and not before
        "entangled_before_s": (entangled(_flag(conc[3] <= 0.0)), 0.0),
        "crossing": (np.abs(s_bisection - s), tol.bisect_formula),          # along rho''
        "k_at_least_1": (entangled(1.0 - k[ent].min(axis=-1)), tol.defining_relation),   # so s >= C
    }, s_bisection, errors


def _check_certificates(corpus: Corpus) -> PropertyResult:
    certs, seeds = corpus.certificates, corpus.seeds("ginibre")
    _raise_first(certs.errors, seeds)
    checks, _, errors = certificate_checks(corpus.ginibre, certs, corpus.tol)
    _raise_first(errors, seeds)
    return _result("robustness certificates (soundness, boundary, pseudomixture)", list(checks.values()),
                   seeds, detail=f"{np.count_nonzero(certs.s)} entangled states")


def verify_certificate(rho: states.DensityMatrix, certificate: RobustnessCertificate, *,
                       oracle: bool = False, tolerances: Tolerances = DEFAULT) -> dict:
    """Machine-readable audit of one certificate: the N = 1 run of
    ``certificate_checks``.  ``checks`` gives each named check's residual,
    bound and verdict, and ``passed`` is their conjunction; with ``oracle``
    the report adds the absolute-robustness bracket, reported but never
    failed on.  An error of the run, such as a crossing's
    ``NotSeparableDirection``, is raised.
    """
    stack = CertificateStack(
        s=np.array([certificate.s]), k_index=np.array([certificate.k_index]), rho_pp=certificate.rho_pp.matrix[None],
        rho_p=certificate.rho_p.matrix[None], rho_p_coords=certificate.rho_p_coords[None], errors=[None],
        decomposition=wootters.DecompositionStack(
            **{name: np.array([v]) for name, v in asdict(certificate.decomposition).items()}, errors=[None]))
    return _audit(rho, stack, certificate_checks(rho.matrix[None], stack, tolerances), tolerances,
                  with_oracle=oracle)


def _audit(rho: states.DensityMatrix, certs: CertificateStack, run, tolerances: Tolerances, *,
           with_oracle: bool) -> dict:
    """``verify_certificate`` of ``rho`` from its N = 1 certificate stack
    ``certs`` and the ``certificate_checks`` ``run`` of it; the oracle block
    reuses ``certs``."""
    checks, s_bisection, errors = run
    if errors[0] is not None:
        raise errors[0]
    verdicts = {name: {"residual": float(residual[0]), "bound": float(bound), "passed": bool(residual[0] <= bound)}
                for name, (residual, bound) in checks.items()}
    report = {"s_formula": float(certs.s[0]), "s_bisection": float(s_bisection[0]), "checks": verdicts,
              "passed": all(verdict["passed"] for verdict in verdicts.values())}
    if with_oracle:
        result = oracle._minimize(rho, certs, 0, tolerances)
        report["oracle"] = {**result.to_report(), "gap_to_formula": result.gap_to_formula,
                            "minimality_flag": result.minimality_flag(tolerances.oracle_flag)}
    return report


def _check_plane_dominance(corpus: Corpus) -> PropertyResult:
    certs, seeds = corpus.certificates, corpus.seeds("ginibre")
    n = corpus.share(20, 5)
    _raise_first(certs.errors[:n], seeds)
    idx = np.flatnonzero(certs.s[:n] != 0.0)
    weights = corpus.rng(3).dirichlet(np.ones(3), (len(idx), 100))
    k, c = certs.decomposition.k_norm[idx, None], certs.decomposition.concurrence[idx, None]
    lowest = np.min([_plane_robustness(k, c, plane, weights) for plane in (1, 2, 3, 4)], axis=0)
    dip = np.maximum(certs.s[idx, None] - lowest, 0.0).max(axis=-1, initial=0.0)
    return _result("plane robustness never beats the certificate", [(dip, corpus.tol.plane)],
                   corpus.seeds("ginibre", idx))


def _check_coset_identities(corpus: Corpus) -> PropertyResult:
    tol = corpus.tol
    angles, lam = coset._draw_rows(corpus.rng(4), corpus.size, 2.0, 0.0)
    y, x, k = coset._y_stack(angles), coset._x_stack(angles), coset._k_stack(angles)
    vectors = coset._closed_form_x_stack(angles, lam)
    return _result("coset identities (orthogonality, closed forms)", [
        (_max_abs(y.swapaxes(-1, -2) @ y - _EYE), tol.coset_orthogonality),
        (_max_abs(x.swapaxes(-1, -2) @ states.SIGMA_YY @ x - _EYE), tol.coset_orthogonality),
        (np.abs(k - np.sum(np.abs(x) ** 2, axis=-2)).max(axis=-1), tol.coset_k),
        (_max_abs(vectors - x * np.sqrt(lam)[:, None, :]), tol.coset_vectors),
        (np.abs(np.sum(np.abs(vectors) ** 2, axis=(-2, -1)) - np.sum(lam * k, axis=-1)), tol.coset_vectors),
    ], corpus.draws(4))


def _check_coset_roundtrip(corpus: Corpus) -> PropertyResult:
    tol, entry = corpus.tol, corpus.draws(5)
    angles, lam = coset._draw_rows(corpus.rng(5), max(corpus.size // 2, 10), 1.0, 0.05)
    rho, k, _ = coset.density_stack(angles, lam)
    _require_states(rho, entry, tol)
    dec = wootters.decompose_stack(rho, tol)
    _raise_first(dec.errors, entry)
    return _result("coset roundtrip recovers K through decomposition", [
        (np.abs(dec.k_norm - k).max(axis=-1), tol.coset_roundtrip),
        (np.abs(dec.lambdas - lam / np.sum(lam * k, axis=-1, keepdims=True)).max(axis=-1),
         tol.coset_roundtrip),
    ], entry)


def _check_thresholds(corpus: Corpus) -> PropertyResult:
    """Singlet PT eigenvalue -1/2, bisect(singlet, I/4) = 2, Werner boundary 1/3.

    The Werner bisection of [0, 1] to width 1e-10 runs in stacked rounds: one
    PPT test of the 15 dyadic points of the next 4 halvings (fewer at the end),
    whose count of PPT points, monotone in w, gives the bracket they reach.
    Reported as the worst deviation relative to each value's own tolerance,
    so the bound is 1.
    """
    tol = corpus.tol
    singlet = states.werner(1.0)
    ratios = [abs(states.is_separable_ppt(singlet, tol)[1] + 0.5) / max(tol.singular_agreement, 1e-300)]
    s_mix = oracle.bisect_relative_robustness(singlet, states.DensityMatrix(_EYE / 4.0), tolerances=tol)
    ratios.append(abs(s_mix - 2.0) / max(tol.bisect_formula, 1e-300))
    lo, width = 0.0, 1.0                                               # the bracket [lo, lo + width]
    while width > 1e-10:
        depth = min(4, math.ceil(math.log2(width / 1e-10)))           # halvings left, at most 4
        width /= 2 ** depth
        w = lo + width * np.arange(1, 2 ** depth)[:, None, None]      # dyadic, so exact
        werner = w * singlet.matrix + (1.0 - w) * _EYE / 4.0           # as ``states.werner`` builds
        _require_states(werner, lambda i: f"werner({w.flat[i]})", DEFAULT)   # and checks them
        lo += np.count_nonzero(states.ppt_min_eig(werner) >= -tol.ppt) * width
    ratios.append(abs(lo + 0.5 * width - 1.0 / 3.0) / max(tol.werner_boundary, 1e-300))
    names = ("singlet PT minimum eigenvalue", "bisection from the singlet toward I/4", "Werner boundary")
    return _result("known thresholds (singlet PT, Werner boundary, bisection)",
                   [(np.array(ratios), 1.0)], lambda i: names[i])


def _check_ppt_monotone(corpus: Corpus) -> PropertyResult:
    tol, rng = corpus.tol, corpus.rng(6)
    rho = corpus.ginibre[:corpus.share(20, 5)]
    idx = np.flatnonzero(states.ppt_min_eig(rho) < -tol.ppt)
    entry = corpus.seeds("ginibre", idx)
    shape = (len(idx), 8)
    weights = rng.dirichlet(np.ones(8), len(idx))
    angles = np.stack([np.arccos(rng.uniform(-1, 1, shape)), rng.uniform(0, 2 * np.pi, shape),
                       np.arccos(rng.uniform(-1, 1, shape)), rng.uniform(0, 2 * np.pi, shape)], axis=-1)
    sigma = oracle._product_mixtures(weights, angles)                  # separable directions
    _require_states(sigma, entry, tol)
    s = np.linspace(0.0, 50.0, 100)[:, None, None]
    ppt = states.ppt_min_eig((rho[idx, None] + s * sigma[:, None]) / (1 + s)) >= -tol.ppt
    violated = (ppt[:, :-1] & ~ppt[:, 1:]).any(axis=-1)             # PPT, then entangled again
    return _result("PPT status is monotone along separable rays", [(_flag(violated), 0.5)], entry)


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
    """Run every property group on one shared corpus; exceptions become named failures."""
    shared = Corpus(corpus, seed, tolerances)
    results = []
    for group in _GROUPS:
        try:
            results.append(group(shared))
        except Exception as exc:  # noqa: BLE001 - failures must be reported, not raised
            error, entry = (exc.error, exc.entry) if isinstance(exc, _EntryError) else (exc, "")
            name = group.__name__.removeprefix("_check_")
            results.append(PropertyResult(name, False, detail=f"raised {error!r}", worst_entry=entry))
    return results
