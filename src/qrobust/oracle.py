"""Independent numerical verification of the closed-form robustness.

Separability of a two-qubit state is decided exactly by positivity of the
partial transpose, so the relative robustness along any separable direction
can be bracketed by PPT tests, and an upper bound on the absolute robustness
can be searched over explicit product-state mixtures.  Nothing here reuses
the closed form except as a candidate direction, which keeps the two routes
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import robustness as robustness_mod
from .robustness import RankDeficient, RobustnessCertificate
from .states import DensityMatrix, is_separable_ppt, partial_transpose_matrix, ppt_min_eig
from .tolerances import DEFAULT, Tolerances


class NotSeparableDirection(ValueError):
    """The proposed mixing direction is itself entangled."""


class ImproperDirection(RuntimeError):
    """No bracket found: mixing never becomes separable (cannot happen for interior directions)."""


_BRACKET_CAP = 2.0 ** 16


@dataclass(frozen=True)
class ProductMixture:
    """Convex mixture of product pure states |a_n> x |b_n>.

    ``bloch_angles`` has one row (theta_a, phi_a, theta_b, phi_b) per term;
    each single-qubit factor is cos(theta/2)|u> + e^{i phi} sin(theta/2)|d>.
    Separable by construction.
    """

    weights: np.ndarray
    bloch_angles: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        ang = np.array(self.bloch_angles, dtype=float)
        if w.ndim != 1 or np.any(w < 0.0) or w.sum() <= 0.0:
            raise ValueError("weights must be nonnegative with positive sum")
        if ang.shape != (w.shape[0], 4):
            raise ValueError(f"bloch_angles must have shape ({w.shape[0]}, 4)")
        w = w / w.sum()
        w.setflags(write=False)
        ang.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bloch_angles", ang)

    def matrix(self) -> np.ndarray:
        kets = _product_kets(self.bloch_angles)
        return np.einsum("n,ni,nj->ij", self.weights, kets, kets.conj())

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.matrix())


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the absolute-robustness search.

    ``s_direction`` is the bisection value along the reference direction (the
    certificate vertex when available, otherwise the maximally mixed state);
    ``s_best`` is the smallest value found over every direction evaluated and
    is always an upper bound on the absolute robustness.  ``gap_to_formula``
    is s_formula - s_best (NaN when no closed form exists for the state); a
    clearly positive gap means the search found a strictly better separable
    direction than the closed-form vertex.
    """

    s_direction: float
    s_best: float
    best_direction: DensityMatrix
    evaluations: int
    converged: bool
    gap_to_formula: float

    def minimality_flag(self, threshold: float = DEFAULT.oracle_flag) -> bool:
        """True when the search beat the closed form by more than ``threshold``."""
        return bool(self.gap_to_formula > threshold)


def _product_kets(angles: np.ndarray) -> np.ndarray:
    """|a> x |b> for each row (theta_a, phi_a, theta_b, phi_b) of a (..., 4) array."""
    tha, pha, thb, phb = np.moveaxis(angles, -1, 0)
    a = np.stack([np.cos(tha / 2.0), np.exp(1j * pha) * np.sin(tha / 2.0)], axis=-1)
    b = np.stack([np.cos(thb / 2.0), np.exp(1j * phb) * np.sin(thb / 2.0)], axis=-1)
    return np.einsum("...i,...j->...ij", a, b).reshape(*angles.shape[:-1], 4)


def _pencil_crossing(rho_pt: np.ndarray, d_pt: np.ndarray) -> np.ndarray:
    """Smallest s >= 0 with rho_pt + s d_pt >= 0 for each direction of an
    (m, 4, 4) stack ``d_pt``; ``rho_pt`` is one matrix or an (m, 4, 4) stack.

    Solved through a regularized pencil: the tiny identity shift keeps the
    Cholesky factor well conditioned and amounts to mixing D with O(1e-10) of
    the maximally mixed state, which is still separable.  An entry whose
    factorization fails scores inf without affecting the others.
    """
    eps = 1e-10 * np.maximum(1.0, np.abs(np.trace(d_pt, axis1=1, axis2=2).real))
    try:
        inv = np.linalg.inv(np.linalg.cholesky(d_pt + eps[:, None, None] * np.eye(4)))
        lowest = np.linalg.eigvalsh(inv @ rho_pt @ inv.conj().swapaxes(1, 2))[:, 0]
    except np.linalg.LinAlgError:  # score the entries one by one
        if len(d_pt) == 1:
            return np.array([math.inf])
        rho_rows = np.broadcast_to(rho_pt, d_pt.shape)
        return np.concatenate([_pencil_crossing(rho_rows[i:i + 1], d_pt[i:i + 1]) for i in range(len(d_pt))])
    return np.where(lowest < 0.0, -lowest, 0.0)


def _newton_crossing(rho_pt: np.ndarray, sigma_pt: np.ndarray, ppt: float) -> np.ndarray:
    """Root of g(s) = lambda_min(rho_pt + s sigma_pt) + ppt (1 + s) for each
    entry of two (N, 4, 4) stacks: the pencil estimate polished by one Newton
    step; NaN where either fails.

    g is concave and increasing for a PPT direction, so the step lands at or
    just below the root; g(s) >= 0 is the PPT test of (rho + s sigma)/(1+s).
    """
    start = _pencil_crossing(rho_pt, sigma_pt)
    finite = np.isfinite(start)
    start = np.where(finite, start, 0.0)
    evals, vecs = np.linalg.eigh(rho_pt + start[:, None, None] * sigma_pt)
    v = vecs[:, :, :1]
    slope = (v.conj().swapaxes(1, 2) @ sigma_pt @ v)[:, 0, 0].real + ppt
    value = evals[:, 0] + ppt * (1.0 + start)
    step = np.full(len(start), np.nan)
    np.divide(value, slope, out=step, where=finite & (slope > 0.0))
    return np.maximum(start - step, 0.0)


def _ppt_along(rho: np.ndarray, sigma: np.ndarray, s: np.ndarray, cut: float) -> np.ndarray:
    """PPT test of the mixtures (rho_i + s_ij sigma_i)/(1 + s_ij): one stacked
    ``ppt_min_eig`` call over rho, sigma (N, 4, 4) and s (N, k)."""
    s = s[:, :, None, None]
    return ppt_min_eig((rho[:, None] + s * sigma[:, None]) / (1.0 + s)) >= cut


def _bisect(rho: np.ndarray, sigma: np.ndarray, tol: float, cut: float) -> np.ndarray:
    """Double the bracket from s = 1 until the mixture is PPT, then bisect,
    for each entry of a stack whose mixture at s = 0 is not PPT; the entries
    advance in lockstep, each taking the steps it would take alone.  An
    entry with no PPT mixture up to ``_BRACKET_CAP`` gets NaN."""
    lo, hi = np.zeros(len(rho)), np.ones(len(rho))
    widen = np.ones(len(rho), dtype=bool)
    while widen.any():
        widen[widen] = ~_ppt_along(rho[widen], sigma[widen], hi[widen, None], cut)[:, 0]
        lo[widen], hi[widen] = hi[widen], 2.0 * hi[widen]
        widen &= hi <= _BRACKET_CAP
    improper = hi > _BRACKET_CAP
    lo[improper] = hi[improper]                           # closed: not bisected
    active = np.flatnonzero(hi - lo > tol * (1.0 + hi))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        ppt = _ppt_along(rho[active], sigma[active], mid[:, None], cut)[:, 0]
        hi[active[ppt]], lo[active[~ppt]] = mid[ppt], mid[~ppt]
        active = np.flatnonzero(hi - lo > tol * (1.0 + hi))
    return np.where(improper, np.nan, hi)


def relative_robustness_stack(rho: np.ndarray, sigma: np.ndarray,
                              tol: float = DEFAULT.bisect_default, *,
                              tolerances: Tolerances = DEFAULT):
    """``bisect_relative_robustness`` over (N, 4, 4) stacks of states and
    directions, with the same postcondition for every entry.

    Returns ``(s, errors)``; ``errors[i]`` is the ``NotSeparableDirection``
    or ``ImproperDirection`` of entry i (its s is NaN), or None.  A failing
    entry does not stop the others.

    Each crossing is estimated through the regularized pencil, polished by
    one Newton step, and verified by one stacked PPT test of the mixtures at
    0, lo and hi, where hi - lo <= tol*(1+hi) brackets the Newton point.  An
    entry whose bracket fails the test doubles and bisects, as alone.
    """
    if tol < 1e-12:
        raise ValueError("bisection tolerance must be at least 1e-12")
    cut = -tolerances.ppt
    direction_eig = ppt_min_eig(sigma)
    errors = [None if e >= cut else NotSeparableDirection(f"direction has PT eigenvalue {e:.3e}")
              for e in direction_eig.tolist()]
    proper = np.array([error is None for error in errors], dtype=bool)
    rho, sigma = rho[proper], sigma[proper]
    s = _newton_crossing(partial_transpose_matrix(rho), partial_transpose_matrix(sigma), tolerances.ppt)
    half = 0.4 * tol * (1.0 + s)   # hi - lo stays below tol*(1+hi) after rounding
    lo, hi = np.maximum(s - half, 0.0), s + half
    usable = (hi <= _BRACKET_CAP) & (hi - lo <= tol * (1.0 + hi))   # False where s is NaN
    points = np.where(usable[:, None], np.stack([np.zeros(len(s)), lo, hi], axis=1), 0.0)
    at_zero, at_lo, at_hi = _ppt_along(rho, sigma, points, cut).T
    result = np.where(at_zero, 0.0, hi)
    redo = np.flatnonzero(~at_zero & ~(usable & ~at_lo & at_hi))
    result[redo] = _bisect(rho[redo], sigma[redo], tol, cut)
    values = np.full(len(proper), np.nan)
    values[proper] = result
    for i in np.flatnonzero(proper)[np.isnan(result)]:
        errors[i] = ImproperDirection(f"no separable mixture up to s = {_BRACKET_CAP}")
    return values, errors


def bisect_relative_robustness(rho: DensityMatrix, rho_s: DensityMatrix,
                               tol: float = DEFAULT.bisect_default, *,
                               tolerances: Tolerances = DEFAULT) -> float:
    """Minimal s >= 0 such that (rho + s rho_s)/(1+s) is separable.

    The separable set is convex, so the PPT status along the ray is monotone
    and a verified bracket is exact.  The returned s gives a PPT mixture
    while s - tol*(1+s) gives a non-PPT one (or s = 0).

    Raises
    ------
    NotSeparableDirection
        If ``rho_s`` itself fails the PPT test.
    ImproperDirection
        If no finite bracket exists (impossible for full-rank directions).
    """
    s, errors = relative_robustness_stack(rho.matrix[None], rho_s.matrix[None], tol,
                                          tolerances=tolerances)
    if errors[0] is not None:
        raise errors[0]
    return float(s[0])


def _relative_robustness(rho_pt: np.ndarray, weights: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Smallest s >= 0 with rho_pt + s D^Gamma >= 0 for each mixture D of a stack.

    ``weights`` (m, n) and ``kets`` (m, n, 4) give m product mixtures, scored
    through ``_pencil_crossing``.
    """
    w = weights / weights.sum(axis=1, keepdims=True)
    d_pt = partial_transpose_matrix(np.einsum("bn,bni,bnj->bij", w, kets, kets.conj()))
    return _pencil_crossing(rho_pt, d_pt)


def _random_start(rng: np.random.Generator, n_terms: int):
    weights = rng.dirichlet(np.ones(n_terms))
    angles = np.stack([
        np.arccos(rng.uniform(-1.0, 1.0, n_terms)),
        rng.uniform(0.0, 2.0 * np.pi, n_terms),
        np.arccos(rng.uniform(-1.0, 1.0, n_terms)),
        rng.uniform(0.0, 2.0 * np.pi, n_terms),
    ], axis=1)
    return weights, angles


def _coordinate_descent(rho_pt: np.ndarray, seeds, *, n_terms: int, sweeps: int,
                        weight_step: float, angle_step: float):
    """Derivative-free refinement of one random product mixture per seed.

    Each restart changes one parameter at a time, keeping +step if it
    improves, else -step if it improves, with both steps halved after each
    sweep.  The restarts advance in lockstep, every step scoring the trials
    of all of them as one stack, yet each keeps what it would keep alone and
    ``evaluations`` counts what a one-at-a-time run scores.  Returns
    (values, weights, angles, evaluations).
    """
    starts = [_random_start(np.random.default_rng(seed), n_terms) for seed in seeds]
    size = len(starts)
    weights = np.array([w for w, _ in starts]).reshape(size, n_terms)
    angles = np.array([a for _, a in starts]).reshape(size, n_terms, 4)
    kets = _product_kets(angles)
    best = _relative_robustness(rho_pt, weights, kets)
    evaluations = size

    def advance(w3, a3, k3):
        # rows: +step trials, -step trials, current mixtures; skip weights summing to <= 0
        nonlocal best, evaluations
        valid = w3[:2 * size].sum(axis=1) > 0.0
        trials = np.where(valid[:, None], w3[:2 * size], 1.0)
        values = np.where(valid, _relative_robustness(rho_pt, trials, k3[:2 * size]), math.inf)
        plus = values[:size] < best
        minus = ~plus & (values[size:] < best)
        evaluations += int(np.count_nonzero(valid[:size]) + np.count_nonzero(~plus & valid[size:]))
        pick = np.arange(size) + np.where(plus, 0, np.where(minus, size, 2 * size))
        best = np.concatenate([values, best])[pick]
        return w3[pick], a3[pick], k3[pick]

    for sweep in range(sweeps):
        w_delta, a_delta = (np.repeat([step, -step], size) * 0.5 ** sweep
                            for step in (weight_step, angle_step))
        for n in range(n_terms):
            w3, a3, k3 = (np.concatenate([x, x, x]) for x in (weights, angles, kets))
            w3[:2 * size, n] = np.maximum(0.0, w3[:2 * size, n] + w_delta)
            weights, angles, kets = advance(w3, a3, k3)
            for axis in range(4):
                w3, a3, k3 = (np.concatenate([x, x, x]) for x in (weights, angles, kets))
                a3[:2 * size, n, axis] += a_delta
                k3[:2 * size, n] = _product_kets(a3[:2 * size, n])
                weights, angles, kets = advance(w3, a3, k3)
    return best, weights, angles, evaluations


def minimize_absolute_robustness(rho: DensityMatrix, budget: int, seed: int, *,
                                 n_terms: int = 16, sweeps: int = 8,
                                 tolerances: Tolerances = DEFAULT) -> OracleResult:
    """Search for the cheapest separable direction washing out the entanglement.

    Initializes with the certificate vertex (when the closed form applies)
    and the maximally mixed state, then runs ``budget`` random-restart
    product mixtures refined by coordinate descent.  Restart r uses its own
    generator seeded with ``seed + r``; the restarts run together on stacked
    arrays, but none depends on another, so results are reproducible.  The
    final winner is re-certified by ``bisect_relative_robustness``, a
    PPT-verified crossing.
    """
    if is_separable_ppt(rho, tolerances)[0]:
        return OracleResult(s_direction=0.0, s_best=0.0, best_direction=rho,
                            evaluations=1, converged=True, gap_to_formula=0.0)

    mixed = DensityMatrix(np.eye(4) / 4.0)
    s_formula, reference = math.nan, mixed
    try:
        cert = robustness_mod.robustness(rho, tolerances)
        s_formula, reference = cert.s, cert.rho_pp
    except RankDeficient:
        pass
    s_direction = bisect_relative_robustness(rho, reference, tolerances=tolerances)
    candidates = [(s_direction, reference),
                  (bisect_relative_robustness(rho, mixed, tolerances=tolerances), mixed)]
    values, weights, angles, count = _coordinate_descent(
        partial_transpose_matrix(rho.matrix), range(seed, seed + budget),
        n_terms=n_terms, sweeps=sweeps, weight_step=0.1, angle_step=0.3,
    )
    candidates += [(value, ProductMixture(w, a).to_density())
                   for value, w, a in zip(values, weights, angles) if math.isfinite(value)]

    best_direction = min(candidates, key=lambda item: item[0])[1]
    s_best = bisect_relative_robustness(rho, best_direction, tolerances=tolerances)
    gap = s_formula - s_best if math.isfinite(s_formula) else math.nan
    # evaluations: the descent's plus the reference, mixed and final bisections
    return OracleResult(s_direction=float(s_direction), s_best=float(s_best),
                        best_direction=best_direction, evaluations=count + 3,
                        converged=True, gap_to_formula=float(gap))


def verify_certificate(rho: DensityMatrix, certificate: RobustnessCertificate, *,
                       oracle_budget: int = 0, seed: int = 0,
                       tolerances: Tolerances = DEFAULT) -> dict:
    """Machine-readable check bundle for one certificate.

    Recomputes every certificate invariant, bisects along the witness vertex,
    and optionally runs the absolute-robustness search; the ``checks`` block
    holds one boolean per requirement and ``passed`` is their conjunction
    (the minimality probe is reported but never failed on).
    """
    s = certificate.s
    pseudo = float(np.max(np.abs(
        rho.matrix - (1.0 + s) * certificate.rho_p.matrix + s * certificate.rho_pp.matrix)))
    lam_p = certificate.rho_p_coords
    plane = float(abs(lam_p[0] - lam_p[1] - lam_p[2] - lam_p[3])) if s > 0.0 else 0.0
    flag_p, min_eig_p = is_separable_ppt(certificate.rho_p, tolerances)
    flag_pp, min_eig_pp = is_separable_ppt(certificate.rho_pp, tolerances)
    s_bisection = bisect_relative_robustness(rho, certificate.rho_pp, tolerances=tolerances)
    deviation = abs(s_bisection - s)

    checks = {
        "pseudomixture": pseudo <= tolerances.pseudomixture,
        "plane": plane <= tolerances.plane,
        "rho_p_separable": flag_p,
        "rho_pp_separable": flag_pp,
        "bisection_matches_formula": deviation <= tolerances.bisect_formula,
    }
    report = {
        "s_formula": float(s),
        "s_bisection": float(s_bisection),
        "bisection_formula_gap": float(deviation),
        "pseudomixture_residual": pseudo,
        "plane_residual": plane,
        "ppt_min_eig_rho_p": float(min_eig_p),
        "ppt_min_eig_rho_pp": float(min_eig_pp),
        "checks": checks,
        "passed": all(checks.values()),
    }
    if oracle_budget > 0:
        result = minimize_absolute_robustness(rho, oracle_budget, seed, tolerances=tolerances)
        report["oracle"] = {
            "s_best": result.s_best,
            "s_direction": result.s_direction,
            "gap_to_formula": result.gap_to_formula,
            "evaluations": result.evaluations,
            "minimality_flag": result.minimality_flag(tolerances.oracle_flag),
        }
    return report
