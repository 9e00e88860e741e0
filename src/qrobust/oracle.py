"""Independent numerical verification of the closed-form robustness.

Separability of a two-qubit state is decided exactly by positivity of the
partial transpose, so the relative robustness along any separable direction
can be bracketed by PPT tests, and the absolute robustness is a small
semidefinite program, solved here with a certified lower and upper bound.
Nothing here reuses the closed form except as a reference direction, which
keeps the two routes independent.  The audit of one certificate against
these routes is ``verify.verify_certificate``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import robustness as robustness_mod
from .robustness import RankDeficient
from .states import DensityMatrix, is_separable_ppt, partial_transpose_matrix, ppt_min_eig
from .tolerances import DEFAULT, Tolerances


class NotSeparableDirection(ValueError):
    """The proposed mixing direction is itself entangled."""


class ImproperDirection(RuntimeError):
    """No bracket found: mixing never becomes separable (cannot happen for interior directions)."""


_BRACKET_CAP = 2.0 ** 16
# relative width of the bracket that verifies a crossing: PPT at s, not PPT at s - width*(1+s)
CROSSING_WIDTH = 1e-10

# F_k = sigma_a x sigma_b / 2 (k = 4a + b), an orthonormal basis of the Hermitian 4x4 matrices, built
# with kron (an einsum at import adds 0.16 MB of RSS); F_k^Gamma = +-F_k, - where the second factor
# is sigma_y, so the SDP blocks X, X^Gamma, (rho + X)^Gamma have derivatives _PT_SIGNS[a, k] F_k.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_BASIS = np.array([np.kron(a, b) for a in _PAULI for b in _PAULI]) / 2.0
_PT_SIGNS = np.stack([np.ones(16)] + 2 * [np.tile([1.0, 1.0, -1.0, 1.0], 4)])
_SIGNED_BASIS = (_PT_SIGNS[:, :, None, None] * _PAULI_BASIS).transpose(1, 0, 2, 3).reshape(16, 48)
_BASIS_ROWS = _PAULI_BASIS.reshape(64, 4)                          # [4k + i, l] = F_k[i, l]
_SDP_T0, _SDP_MU, _SDP_CENTRED = 10.0, 30.0, 1e-6   # first t, its growth, decrement that ends a stage
_SDP_STAGE_STEPS, _SDP_ITERATIONS = 20, 200


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
        return _product_mixtures(self.weights, self.bloch_angles)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.matrix())


def _product_mixtures(weights: np.ndarray, bloch_angles: np.ndarray) -> np.ndarray:
    """``ProductMixture.matrix`` of (n,) weights and (n, 4) angles, or of each
    row of (..., n) weights and (..., n, 4) angles: (..., 4, 4)."""
    tha, pha, thb, phb = np.moveaxis(bloch_angles, -1, 0)
    a = np.stack([np.cos(tha / 2.0), np.exp(1j * pha) * np.sin(tha / 2.0)], axis=-1)
    b = np.stack([np.cos(thb / 2.0), np.exp(1j * phb) * np.sin(thb / 2.0)], axis=-1)
    kets = (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (4,))
    return np.einsum("...n,...ni,...nj->...ij", weights, kets, kets.conj())


@dataclass(frozen=True)
class SDPBracket:
    """s_lower <= R(rho) <= s_upper; ``direction`` is X/tr X (a full-rank PPT
    state) at the point that gave s_upper; duality_gap = s_upper - s_lower."""

    s_lower: float
    s_upper: float
    direction: np.ndarray
    duality_gap: float
    newton_steps: int
    converged: bool


@dataclass(frozen=True)
class OracleResult:
    """Outcome of ``minimize_absolute_robustness``: ``s_direction`` is the
    crossing along the certificate vertex (I/4 without a closed form),
    ``s_best`` the crossing along the SDP direction ``best_direction``, an
    upper bound on the absolute robustness, and ``s_lower`` the SDP's lower
    bound; ``evaluations`` counts the crossings, and ``gap_to_formula`` is
    s_formula - s_best (NaN without a closed form)."""

    s_direction: float
    s_best: float
    best_direction: DensityMatrix
    evaluations: int
    converged: bool
    gap_to_formula: float
    s_lower: float
    duality_gap: float
    newton_steps: int

    def minimality_flag(self, threshold: float = DEFAULT.oracle_flag) -> bool:
        """True when the SDP direction beat the closed form by more than ``threshold``."""
        return bool(self.gap_to_formula > threshold)

    def to_report(self) -> dict:
        return {"route": "sdp", "s_best": self.s_best, "s_lower": self.s_lower,
                "duality_gap": self.duality_gap, "newton_steps": self.newton_steps,
                "converged": self.converged, "s_direction": self.s_direction,
                "evaluations": self.evaluations}


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


def _bisect(rho: np.ndarray, sigma: np.ndarray, cut: float) -> np.ndarray:
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
    active = np.flatnonzero(hi - lo > CROSSING_WIDTH * (1.0 + hi))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        ppt = _ppt_along(rho[active], sigma[active], mid[:, None], cut)[:, 0]
        hi[active[ppt]], lo[active[~ppt]] = mid[ppt], mid[~ppt]
        active = np.flatnonzero(hi - lo > CROSSING_WIDTH * (1.0 + hi))
    return np.where(improper, np.nan, hi)


def relative_robustness_stack(rho: np.ndarray, sigma: np.ndarray, *,
                              tolerances: Tolerances = DEFAULT):
    """``bisect_relative_robustness`` over (N, 4, 4) stacks of states and
    directions, with the same postcondition for every entry.

    Returns ``(s, errors)``; ``errors[i]`` is the ``NotSeparableDirection``
    or ``ImproperDirection`` of entry i (its s is NaN), or None.  A failing
    entry does not stop the others.

    Each crossing is estimated through the regularized pencil, polished by
    one Newton step, and verified by one stacked PPT test of the mixtures at
    0, lo and hi, where hi - lo <= CROSSING_WIDTH*(1+hi) brackets the Newton
    point.  An entry whose bracket fails the test doubles and bisects, as alone.
    """
    cut = -tolerances.ppt
    direction_eig = ppt_min_eig(sigma)
    errors = [None if e >= cut else NotSeparableDirection(f"direction has PT eigenvalue {e:.3e}")
              for e in direction_eig.tolist()]
    proper = np.array([error is None for error in errors], dtype=bool)
    rho, sigma = rho[proper], sigma[proper]
    s = _newton_crossing(partial_transpose_matrix(rho), partial_transpose_matrix(sigma), tolerances.ppt)
    half = 0.4 * CROSSING_WIDTH * (1.0 + s)   # hi - lo stays below the width after rounding
    lo, hi = np.maximum(s - half, 0.0), s + half
    usable = (hi <= _BRACKET_CAP) & (hi - lo <= CROSSING_WIDTH * (1.0 + hi))   # False where s is NaN
    points = np.where(usable[:, None], np.stack([np.zeros(len(s)), lo, hi], axis=1), 0.0)
    at_zero, at_lo, at_hi = _ppt_along(rho, sigma, points, cut).T
    result = np.where(at_zero, 0.0, hi)
    redo = np.flatnonzero(~at_zero & ~(usable & ~at_lo & at_hi))
    result[redo] = _bisect(rho[redo], sigma[redo], cut)
    values = np.full(len(proper), np.nan)
    values[proper] = result
    for i in np.flatnonzero(proper)[np.isnan(result)]:
        errors[i] = ImproperDirection(f"no separable mixture up to s = {_BRACKET_CAP}")
    return values, errors


def bisect_relative_robustness(rho: DensityMatrix, rho_s: DensityMatrix, *,
                               tolerances: Tolerances = DEFAULT) -> float:
    """Minimal s >= 0 such that (rho + s rho_s)/(1+s) is separable.

    The separable set is convex, so the PPT status along the ray is monotone
    and a verified bracket is exact.  The returned s gives a PPT mixture
    while s - CROSSING_WIDTH*(1+s) gives a non-PPT one (or s = 0).

    Raises
    ------
    NotSeparableDirection
        If ``rho_s`` itself fails the PPT test.
    ImproperDirection
        If no finite bracket exists (impossible for full-rank directions).
    """
    s, errors = relative_robustness_stack(rho.matrix[None], rho_s.matrix[None], tolerances=tolerances)
    if errors[0] is not None:
        raise errors[0]
    return float(s[0])


def _dual_bound(evals: np.ndarray, vecs: np.ndarray, rho_pt: np.ndarray) -> float:
    """Lower bound -tr(Z_3 rho^Gamma) on the absolute robustness from any
    Hermitian triple, given by its eigenpairs (3, 4) and (3, 4, 4): clipped to
    PSD and scaled together to Z_1 + Z_2^Gamma + Z_3^Gamma <= I, the triple is
    dual feasible, so every feasible X has tr X >= -tr(Z_3 rho^Gamma)."""
    z = (vecs * np.maximum(evals, 0.0)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    total = z[0] + partial_transpose_matrix(z[1] + z[2])
    return -float(np.sum(z[2] * rho_pt.T).real) / np.linalg.eigvalsh(total)[-1]


def absolute_robustness(rho: DensityMatrix, *, tolerances: Tolerances = DEFAULT) -> SDPBracket:
    """Certified bracket on the absolute robustness R = min tr X over X >= 0,
    X^Gamma >= 0, (rho + X)^Gamma >= 0 (PPT is separability for two qubits).

    Log-barrier Newton on t tr X - sum_a log det A_a, steps damped by
    1/(1 + decrement) above 1/4: the barrier is self-concordant, so every
    step stays inside the Dikin ellipsoid, where each block A_a is positive
    definite, and a trial that is not ends the solve; t grows once a point is
    centred or a stage is long.  The Hessian sum_a <G_aj, G_ak>,
    G_ak = A_a^{-1/2} dA_a/dx_k A_a^{-1/2}, is used as R^T R from a QR of the
    G stack, conditioned ~t rather than ~t^2: on pure, Bell-diagonal and
    Werner states only this reaches a 1e-9 width.
    Near central points tr X bounds R from above and ``_dual_bound`` of the
    A_a^{-1} from below; the best of each is kept.  ``converged``: the width
    met ``tolerances.sdp_gap * (1 + s_upper)`` before a stop.
    """
    offset = np.stack([np.zeros((4, 4)), np.zeros((4, 4)), partial_transpose_matrix(rho.matrix)])
    x = 2.0 * np.eye(16)[0]                               # X = I, strictly feasible
    evals, vecs = np.linalg.eigh(offset + (x @ _SIGNED_BASIS).reshape(3, 4, 4))
    t, stage, steps = _SDP_T0, 0, 0
    upper, lower, best = 2.0 * x[0], 0.0, x               # R >= 0 always
    with contextlib.suppress(np.linalg.LinAlgError):      # a singular QR factor ends the solve
        for _ in range(_SDP_ITERATIONS):
            fv = (_BASIS_ROWS @ vecs).reshape(3, 16, 4, 4).transpose(0, 2, 1, 3).reshape(3, 4, 64)
            g = (vecs.conj().swapaxes(1, 2) @ fv).reshape(3, 4, 16, 4)      # [a, p, k, j] = (V^H F_k V)_pj
            g = g * _PT_SIGNS[:, None, :, None] / np.sqrt(evals[:, :, None, None] * evals[:, None, None, :])
            grad = -np.einsum("apkp->k", g).real
            grad[0] += 2.0 * t                                                # t tr X = 2 t x_0
            stack = np.concatenate([g.real, g.imag]).transpose(0, 1, 3, 2).reshape(96, 16)
            r_inv = np.linalg.inv(np.linalg.qr(stack, mode="r"))              # Hessian^-1 = r_inv r_inv^T
            z = r_inv.T @ grad
            dx, decrement = -(r_inv @ z), math.sqrt(z @ z)
            if decrement < 0.25:
                if 2.0 * x[0] < upper:
                    upper, best = 2.0 * x[0], x
                lower = max(lower, _dual_bound(1.0 / evals, vecs, offset[2]))  # A_a^{-1}, rho^Gamma
                if upper - lower <= tolerances.sdp_gap * (1.0 + upper):
                    break
            if decrement < _SDP_CENTRED or stage == _SDP_STAGE_STEPS:
                t, stage = t * _SDP_MU, 0
                continue
            trial = x + (1.0 if decrement < 0.25 else 1.0 / (1.0 + decrement)) * dx
            evals, vecs = np.linalg.eigh(offset + (trial @ _SIGNED_BASIS).reshape(3, 4, 4))
            if evals[:, 0].min() <= 0.0:                  # only rounding can leave the ellipsoid
                break
            x, stage, steps = trial, stage + 1, steps + 1
    X = (best @ _PAULI_BASIS.reshape(16, 16)).reshape(4, 4)
    return SDPBracket(s_lower=float(lower), s_upper=float(upper), direction=X / np.trace(X).real,
                      duality_gap=float(upper - lower), newton_steps=steps,
                      converged=bool(upper - lower <= tolerances.sdp_gap * (1.0 + upper)))


def minimize_absolute_robustness(rho: DensityMatrix, budget: int = 0, seed: int = 0, *,
                                 tolerances: Tolerances = DEFAULT) -> OracleResult:
    """Absolute robustness of ``rho``: ``s_best`` is the PPT-verified
    ``bisect_relative_robustness`` crossing along the direction X/tr X of
    ``absolute_robustness``, whose certified lower bound is ``s_lower``.
    ``budget`` and ``seed`` are accepted for older callers and do nothing.
    """
    if is_separable_ppt(rho, tolerances)[0]:
        return OracleResult(s_direction=0.0, s_best=0.0, best_direction=rho, evaluations=1,
                            converged=True, gap_to_formula=0.0, s_lower=0.0, duality_gap=0.0,
                            newton_steps=0)
    s_formula, reference = math.nan, DensityMatrix(np.eye(4) / 4.0)
    try:
        cert = robustness_mod.robustness(rho, tolerances)
        s_formula, reference = cert.s, cert.rho_pp
    except RankDeficient:
        pass
    s_direction = bisect_relative_robustness(rho, reference, tolerances=tolerances)
    bracket = absolute_robustness(rho, tolerances=tolerances)
    direction = DensityMatrix(bracket.direction)
    s_best = bisect_relative_robustness(rho, direction, tolerances=tolerances)
    gap = s_formula - s_best if math.isfinite(s_formula) else math.nan
    return OracleResult(s_direction=float(s_direction), s_best=float(s_best), best_direction=direction,
                        evaluations=2, converged=bracket.converged, gap_to_formula=float(gap),
                        s_lower=bracket.s_lower, duality_gap=bracket.duality_gap,
                        newton_steps=bracket.newton_steps)
