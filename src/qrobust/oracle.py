"""Independent numerical verification of the closed-form robustness.

Separability of a two-qubit state is decided exactly by positivity of the
partial transpose, so the relative robustness along any separable direction
can be bracketed by PPT tests, and the absolute robustness is a small
semidefinite program, solved here by a primal-dual interior-point method
(about ten predictor-corrector iterations) with a certified lower and upper
bound.  ``oracle_pass``, the one stacked entry, runs both routes over a
stack of states and their certificates.  Nothing here reuses the closed
form: it enters only as data, the rho'' directions whose crossings are
located and the s_formula behind ``gap_to_formula``, which keeps the routes
independent.  The audit of one certificate is ``verify.verify_certificate``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .robustness import CertificateStack, RankDeficient, robustness_stack
from .states import DensityMatrix, ValidationError, partial_transpose_matrix, ppt_min_eig
from .tolerances import DEFAULT, Tolerances


class NotSeparableDirection(ValueError):
    """The proposed mixing direction is itself entangled."""


class ImproperDirection(RuntimeError):
    """No bracket found: mixing never becomes separable (cannot happen for interior directions)."""


_BRACKET_CAP = 2.0 ** 16
# relative width of the bracket that verifies a crossing: PPT at s, not PPT at s - width*(1+s)
CROSSING_WIDTH = 1e-10
# a mixture is PPT here when its PT has no eigenvalue below -PPT_CUT: this defines the located crossing
PPT_CUT = 1e-11
# the SDP stops once s_upper - s_lower <= SDP_GAP * (1 + s_upper)
SDP_GAP = 1e-9

# F_k = sigma_a x sigma_b / 2 (k = 4a + b), an orthonormal basis of the Hermitian 4x4 matrices, built
# with kron (an einsum at import adds 0.16 MB of RSS); F_k^Gamma = +-F_k, - where the second factor
# is sigma_y, so the SDP blocks X, X^Gamma, (rho + X)^Gamma have derivatives _PT_SIGNS[a, k] F_k.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_BASIS = np.array([np.kron(a, b) for a in _PAULI for b in _PAULI]) / 2.0
_PT_SIGNS = np.stack([np.ones(16)] + 2 * [np.tile([1.0, 1.0, -1.0, 1.0], 4)])
_SIGNED_BASIS = (_PT_SIGNS[:, :, None, None] * _PAULI_BASIS).transpose(1, 0, 2, 3).reshape(16, 48)
_SIGNED_BASIS_CONJ = _SIGNED_BASIS.conj()                          # A*(Z) = Re(conj basis @ vec Z)
_SIGNED_COLUMNS = np.ascontiguousarray(_SIGNED_BASIS.reshape(16, 3, 16).transpose(1, 2, 0))  # [a, :, k] = vec
_EYE = np.eye(4)
# A passing Cholesky test proves only lambda_min(A) >= -delta: the factor is exact for A + dA with
# ||dA|| <= ~20 eps max A_ii (Higham, Accuracy and Stability, Thm 10.3, in complex arithmetic), and
# forming S_a(x) errs by ~12 eps (||x|| + max|rho^Gamma|) in norm.  delta = _ROUNDING times
# ||x|| + max|rho^Gamma| for S_a(x), times max|Z| for Z_a, covers both by a factor of two or more.
_ROUNDING = 64.0 * np.finfo(float).eps
_SDP_ITERATIONS, _SDP_STEP = 50, 0.98        # iteration cap; share of the way to the boundary per step
_SDP_C = 2.0 * np.eye(16)[0]                  # coordinates of I: tr X = c^T x
_SDP_Z0 = np.stack(3 * [np.eye(4) / 2.0])     # the dual blocks' start


def _product_mixtures(weights: np.ndarray, bloch_angles: np.ndarray) -> np.ndarray:
    """The convex mixture of product pure states |a_n> x |b_n>, separable by
    construction, of (n,) weights and (n, 4) angles, or of each row of
    (..., n) weights and (..., n, 4) angles: (..., 4, 4).

    An angle row (theta_a, phi_a, theta_b, phi_b) gives the single-qubit
    factors cos(theta/2)|u> + e^{i phi} sin(theta/2)|d>.  The weights are
    used as given, so they must be convex.
    """
    tha, pha, thb, phb = np.moveaxis(bloch_angles, -1, 0)
    a = np.stack([np.cos(tha / 2.0), np.exp(1j * pha) * np.sin(tha / 2.0)], axis=-1)
    b = np.stack([np.cos(thb / 2.0), np.exp(1j * phb) * np.sin(thb / 2.0)], axis=-1)
    kets = (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (4,))
    return np.einsum("...n,...ni,...nj->...ij", weights, kets, kets.conj())


@dataclass(frozen=True)
class OracleResult:
    """One entry of ``oracle_pass`` with the SDP, the oracle's only result type:
    the SDP's certified bracket s_lower <= R <= s_upper of width
    ``duality_gap``, and ``s_best``, the crossing along its direction
    ``best_direction`` (a PPT entry's own state); ``evaluations`` counts the
    crossings (always 1), ``newton_steps`` the SDP's iterations, and
    ``gap_to_formula`` is s_formula - s_best (NaN without a closed form)."""

    s_best: float
    best_direction: DensityMatrix
    evaluations: int
    converged: bool
    gap_to_formula: float
    s_lower: float
    s_upper: float
    duality_gap: float
    newton_steps: int

    def minimality_flag(self, threshold: float) -> bool:
        """True when the SDP direction beat the closed form by more than ``threshold``."""
        return bool(self.gap_to_formula > threshold)

    def to_report(self) -> dict:
        return {"route": "sdp", "s_best": self.s_best, "s_lower": self.s_lower,
                "duality_gap": self.duality_gap, "newton_steps": self.newton_steps,
                "converged": self.converged}


def _newton_crossing(rho_pt: np.ndarray, sigma_pt: np.ndarray) -> np.ndarray:
    """Root of g(s) = lambda_min(rho_pt + s sigma_pt) + PPT_CUT (1 + s) for each
    entry of two (N, 4, 4) stacks whose directions passed the PPT test: the
    regularized pencil's estimate polished by one Newton step; NaN where the
    slope is not positive.

    The pencil gives the smallest s >= 0 with rho_pt + s (sigma_pt + eps I)
    >= 0 from the Cholesky factor of sigma_pt + eps I, eps = 1e-10
    max(1, |tr sigma_pt|).  A direction that passed the test has
    lambda_min(sigma_pt) >= -PPT_CUT > -eps, so the shifted matrix factors, and
    the shift mixes sigma with a little of I/4, which is still separable.
    g is concave and increasing for a PPT direction, so the step lands at or
    just below the root; g(s) >= 0 is the PPT test of (rho + s sigma)/(1+s).
    """
    eps = 1e-10 * np.maximum(1.0, np.abs(np.trace(sigma_pt, axis1=1, axis2=2).real))
    inv = np.linalg.inv(np.linalg.cholesky(sigma_pt + eps[:, None, None] * _EYE))
    lowest = np.linalg.eigvalsh(inv @ rho_pt @ inv.conj().swapaxes(1, 2))[:, 0]
    start = np.where(lowest < 0.0, -lowest, 0.0)
    evals, vecs = np.linalg.eigh(rho_pt + start[:, None, None] * sigma_pt)
    v = vecs[:, :, :1]
    slope = (v.conj().swapaxes(1, 2) @ sigma_pt @ v)[:, 0, 0].real + PPT_CUT
    value = evals[:, 0] + PPT_CUT * (1.0 + start)
    step = np.full(len(start), np.nan)
    np.divide(value, slope, out=step, where=slope > 0.0)
    return np.maximum(start - step, 0.0)


def _ppt_along(rho: np.ndarray, sigma: np.ndarray, s: np.ndarray) -> np.ndarray:
    """PPT test of the mixtures (rho_i + s_ij sigma_i)/(1 + s_ij): one stacked
    ``ppt_min_eig`` call over rho, sigma (N, 4, 4) and s (N, k)."""
    s = s[:, :, None, None]
    return ppt_min_eig((rho[:, None] + s * sigma[:, None]) / (1.0 + s)) >= -PPT_CUT


def _bisect(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Halve [0, ``_BRACKET_CAP``] until it is CROSSING_WIDTH wide, for each
    entry of a stack whose mixture at s = 0 is not PPT; the entries advance
    in lockstep, each taking the steps it would take alone.  One stacked PPT
    test at the cap and at s = 1 opens the search: an entry PPT at 1 starts
    from [0, 1], the bracket its first 16 halvings would reach, and an entry
    not PPT at the cap gets NaN."""
    hi = np.full(len(rho), _BRACKET_CAP)
    if not len(rho):                                      # no PPT call for no entry
        return hi
    at_cap, at_one = _ppt_along(rho, sigma, np.tile([_BRACKET_CAP, 1.0], (len(rho), 1))).T
    hi[at_one] = 1.0
    lo = np.where(at_cap, 0.0, hi)                        # closed: not bisected
    active = np.flatnonzero(hi - lo > CROSSING_WIDTH * (1.0 + hi))
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        ppt = _ppt_along(rho[active], sigma[active], mid[:, None])[:, 0]
        hi[active[ppt]], lo[active[~ppt]] = mid[ppt], mid[~ppt]
        active = np.flatnonzero(hi - lo > CROSSING_WIDTH * (1.0 + hi))
    return np.where(at_cap, hi, np.nan)


def relative_robustness_stack(rho: np.ndarray, sigma: np.ndarray):
    """``bisect_relative_robustness`` over (N, 4, 4) stacks of states and
    directions, with the same postcondition for every entry: ``(s, errors)``,
    where ``errors[i]`` is the ``NotSeparableDirection`` or
    ``ImproperDirection`` of entry i (its s is NaN), or None; a failing entry
    does not stop the others.  Each crossing is the regularized pencil's
    estimate polished by one Newton step, verified by one stacked PPT test of
    the mixtures at 0, lo and hi (hi - lo <= CROSSING_WIDTH*(1+hi) brackets
    the Newton point); an entry whose bracket fails it goes to ``_bisect``."""
    if not len(rho):                                      # no PPT call for no entry
        return np.empty(0), []
    direction_eig = ppt_min_eig(sigma)
    errors = [None if e >= -PPT_CUT else NotSeparableDirection(f"direction has PT eigenvalue {e:.3e}")
              for e in direction_eig.tolist()]
    proper = np.array([error is None for error in errors], dtype=bool)
    rho, sigma = rho[proper], sigma[proper]
    s = _newton_crossing(partial_transpose_matrix(rho), partial_transpose_matrix(sigma))
    half = 0.4 * CROSSING_WIDTH * (1.0 + s)   # hi - lo stays below the width after rounding
    lo, hi = np.maximum(s - half, 0.0), s + half
    usable = (hi <= _BRACKET_CAP) & (hi - lo <= CROSSING_WIDTH * (1.0 + hi))   # False where s is NaN
    points = np.where(usable[:, None], np.stack([np.zeros(len(s)), lo, hi], axis=1), 0.0)
    at_zero, at_lo, at_hi = _ppt_along(rho, sigma, points).T
    result = np.where(at_zero, 0.0, hi)
    redo = np.flatnonzero(~at_zero & ~(usable & ~at_lo & at_hi))
    result[redo] = _bisect(rho[redo], sigma[redo])
    values = np.full(len(proper), np.nan)
    values[proper] = result
    for i in np.flatnonzero(proper)[np.isnan(result)]:
        errors[i] = ImproperDirection(f"no separable mixture up to s = {_BRACKET_CAP}")
    return values, errors


def bisect_relative_robustness(rho: DensityMatrix, rho_s: DensityMatrix) -> float:
    """Minimal s >= 0 such that (rho + s rho_s)/(1+s) is separable.

    The separable set is convex, so the PPT status along the ray is monotone
    and a verified bracket is exact.  The returned s gives a PPT mixture
    while s - CROSSING_WIDTH*(1+s) gives a non-PPT one (or s = 0).  Raises
    ``NotSeparableDirection`` if ``rho_s`` itself fails the PPT test, and
    ``ImproperDirection`` if no finite bracket exists (impossible for
    full-rank directions).
    """
    s, errors = relative_robustness_stack(rho.matrix[None], rho_s.matrix[None])
    if errors[0] is not None:
        raise errors[0]
    return float(s[0])


def _dual_bound(z: np.ndarray, rho_pt: np.ndarray) -> float:
    """Lower bound on the absolute robustness from dual blocks ``z`` (3, 4, 4)
    that passed a Cholesky test, hence are PSD up to delta = ``_ROUNDING``
    max|Z| (any PSD triple qualifies): the Z_a + delta I, scaled together by
    lambda_max(Z_1 + (Z_2 + Z_3)^Gamma) + 3 delta, are dual feasible, so every
    feasible X has tr X >= -tr(Z_3 rho^Gamma) - delta over that scale
    (tr rho^Gamma = 1).  One partial transpose, one 4x4 ``eigvalsh``."""
    delta = _ROUNDING * np.abs(z).max()
    total = z[0] + partial_transpose_matrix(z[1] + z[2])
    return (-np.vdot(rho_pt, z[2]).real - delta) / (np.linalg.eigvalsh(total)[-1] + 3.0 * delta)


def _nt_direction(rhs: np.ndarray, lam: np.ndarray, stack: np.ndarray, q_inv: np.ndarray,
                  residual: np.ndarray):
    """Solve the Newton system in the NT scaling S~ = Z~ = diag(lam) (3, 4):
    Lam dW + dW Lam = ``rhs`` (3, 4, 4) for dW = dS~ + dZ~, dS~ = sum_k dx_k G_k
    and A*(dZ) = ``residual``, through the Schur factor ``q_inv`` of the G
    ``stack`` (96, 16).  Returns dx, [dS~, dZ~] (2, 3, 4, 4) and the primal
    and dual step lengths: ``_SDP_STEP`` of the way to the boundary, at most 1."""
    w = rhs / (lam[:, :, None] + lam[:, None, :])
    dx = q_inv @ (q_inv.T @ (stack.T @ np.concatenate([w.real, w.imag]).ravel() - residual))
    ds = (stack @ dx).reshape(2, 3, 4, 4)
    ds = ds[0] + 1j * ds[1]
    d = np.stack([ds, w - ds])
    scale = 1.0 / np.sqrt(lam)
    edge = np.linalg.eigvalsh(scale[:, :, None] * d * scale[:, None, :])[..., 0].min(axis=1)
    return dx, d, _SDP_STEP / np.maximum(-edge, _SDP_STEP)


def _sdp(rho_pt: np.ndarray):
    """(s_lower, s_upper, X/tr X at s_upper, newton_steps): a certified bracket
    on R = min tr X over X >= 0, X^Gamma >= 0, (rho + X)^Gamma >= 0 (PPT is
    separability for two qubits) for the state whose PT is ``rho_pt``.
    Primal-dual path following (Vandenberghe & Boyd, SIAM Rev. 38, 49, sec. 6):
    x holds the coordinates of X, each slack block S_a(x) gets a dual block
    Z_a, and the dual residual is c - A*(Z) with c the coordinates of I.  Each
    iteration takes a Mehrotra predictor and corrector, sigma = (mu_aff/mu)^3,
    in the Nesterov-Todd scaling R_a^-1 S_a R_a^-H = R_a^H Z_a R_a = diag(lambda),
    built from the Cholesky factors of S_a and Z_a and one SVD, and steps
    ``_SDP_STEP`` of the way to the boundary.  The Schur matrix
    sum_a <G_aj, G_ak>, G_ak = R_a^-1 dS_a/dx_k R_a^-H, is used as Q^T Q from a
    QR of the G stack, whose condition number is the square root of the
    Schur matrix's: on pure, Bell-diagonal and Werner states, whose optima are
    degenerate, only this reaches a 1e-9 width.
    A passing Cholesky test proves a block PSD only up to a rounding-level
    delta (see ``_ROUNDING``), so tr X + 4 delta bounds R from above at an x
    whose blocks passed it (X + delta I is feasible), and ``_dual_bound`` of
    the Z_a, which passed it in the same factorization, from below; the best
    of each is kept.  The solve stops at width ``SDP_GAP * (1 + s_upper)``,
    or at a ``LinAlgError``.
    """
    offset, scale = np.stack([np.zeros((4, 4)), np.zeros((4, 4)), rho_pt]), np.abs(rho_pt).max()
    x, z = _SDP_C, _SDP_Z0                                # X = I, Z_a = I/2
    upper, lower, best, steps = 2.0 * x[0], 0.0, x, 0     # X = I is feasible exactly; R >= 0 always
    with contextlib.suppress(np.linalg.LinAlgError):      # a failed factorization ends the solve
        for _ in range(_SDP_ITERATIONS):
            factors = np.linalg.cholesky(np.concatenate([offset + (x @ _SIGNED_BASIS).reshape(3, 4, 4), z]))
            # the test proves only S_a(x) >= -delta I: tr(X + delta I) is the certified bound
            trace = 2.0 * x[0] + 4.0 * _ROUNDING * (math.sqrt(x @ x) + scale)
            if trace < upper:
                upper, best = trace, x
            lower = max(lower, _dual_bound(z, rho_pt))   # the Z_a passed the same test
            if upper - lower <= SDP_GAP * (1.0 + upper):
                break
            _, lam, vh = np.linalg.svd(factors[3:].conj().swapaxes(1, 2) @ factors[:3])
            r_inv = np.sqrt(lam)[:, :, None] * vh @ np.linalg.inv(factors[:3])   # Lam^1/2 V^H L_S^-1
            # vec(R^-1 F R^-H) = (R^-1 kron conj R^-1) vec F: g[a, 4p + j, k] = (G_ak)_pj
            g = (r_inv[:, :, None, :, None] * r_inv.conj()[:, None, :, None, :]).reshape(3, 16, 16) @ _SIGNED_COLUMNS
            stack = np.concatenate([g.real, g.imag]).reshape(96, 16)
            q_inv = np.linalg.inv(np.linalg.qr(stack, mode="r"))              # Schur^-1 = q_inv q_inv^T
            system = (lam, stack, q_inv, _SDP_C - (_SIGNED_BASIS_CONJ @ z.reshape(48)).real)
            diag, mu = lam[:, :, None] * _EYE, np.sum(lam ** 2) / 12.0   # Lam, tr(S Z)/12
            square = 2.0 * diag ** 2
            _, (ds, dz), (ap, ad) = _nt_direction(-square, *system)          # predictor, sigma = 0
            mu_aff = np.einsum("aij,aji->", diag + ap * ds, diag + ad * dz).real / 12.0
            cross = ds @ dz                                                   # second-order term
            rhs = 2.0 * mu * (mu_aff / mu) ** 3 * _EYE - square - cross - cross.conj().swapaxes(1, 2)
            dx, (_, dz), (ap, ad) = _nt_direction(rhs, *system)              # corrector
            x = x + ap * dx
            z = z + ad * (r_inv.conj().swapaxes(1, 2) @ dz @ r_inv)
            # kept Hermitian: unsymmetrized, the rounding of G stalls 11 of the 40 Bures states of seeds 0-39
            z, steps = 0.5 * (z + z.conj().swapaxes(1, 2)), steps + 1
    X = (best @ _PAULI_BASIS.reshape(16, 16)).reshape(4, 4)
    return lower, upper, X / np.trace(X).real, steps


def oracle_pass(rho: np.ndarray, certs: CertificateStack, *, with_sdp: bool):
    """The one oracle pass over states ``rho`` (N, 4, 4) and their ``certs``:
    ``(s_bisection, results, errors)``.  ``s_bisection[i]`` is the crossing
    along entry i's rho'' (NaN where ``certs`` holds an error).  ``with_sdp``,
    one stacked PPT test, ``_sdp`` on each entry that fails it, and an
    ``OracleResult`` per entry in ``results`` (else None), whose SDP direction
    is also validated as a ``DensityMatrix``; both routes' crossings are
    located in one ``relative_robustness_stack`` call.  ``errors[i]`` is entry
    i's first error: its decomposition's (``RankDeficient`` is none), then its
    crossing's along rho'', then its oracle's; a failing entry does not stop
    the others.  ``converged``: the SDP met ``SDP_GAP * (1 + s_upper)``."""
    errors = [None if isinstance(e, RankDeficient) else e for e in certs.errors]
    results, npt = [None] * len(rho), np.empty(0, dtype=int)
    if with_sdp:
        ppt = ppt_min_eig(rho) >= -PPT_CUT
        npt = np.flatnonzero(~ppt)
        for i in np.flatnonzero(ppt):
            results[i] = OracleResult(s_best=0.0, best_direction=DensityMatrix._by_construction(rho[i]),
                                      evaluations=1, converged=True, gap_to_formula=float(certs.s[i]),
                                      s_lower=0.0, s_upper=0.0, duality_gap=0.0, newton_steps=0)
    solved = [_sdp(m) for m in partial_transpose_matrix(rho[npt])]   # one solve per entry
    directions = np.array([direction for _, _, direction, _ in solved]).reshape(-1, 4, 4)
    has_cert = np.flatnonzero([e is None for e in certs.errors])
    s, crossing_errors = relative_robustness_stack(np.concatenate([rho[has_cert], rho[npt]]),
                                                   np.concatenate([certs.rho_pp[has_cert], directions]))
    n = len(has_cert)                                     # the rho'' rows come first
    s_bisection = np.full(len(rho), math.nan)
    s_bisection[has_cert] = s[:n]
    for i, error in zip(has_cert, crossing_errors[:n]):
        errors[i] = error
    sdp_rows = zip(npt, solved, s[n:].tolist(), crossing_errors[n:])
    for i, (lower, upper, direction, steps), s_best, error in sdp_rows:
        if error is None:
            try:
                best = DensityMatrix(direction)
            except ValidationError as exc:
                error = exc
        errors[i] = errors[i] or error
        if error is None:
            results[i] = OracleResult(s_best=s_best, best_direction=best, evaluations=1,
                                      converged=bool(upper - lower <= SDP_GAP * (1.0 + upper)),
                                      gap_to_formula=float(certs.s[i]) - s_best, s_lower=float(lower),
                                      s_upper=float(upper), duality_gap=float(upper - lower), newton_steps=steps)
    return s_bisection, results, errors


def minimize_absolute_robustness(rho: DensityMatrix, budget: int = 0, seed: int = 0, *,
                                 tolerances: Tolerances = DEFAULT) -> OracleResult:
    """The N = 1 ``oracle_pass`` on ``rho`` with the SDP: its
    ``OracleResult``, whose s_formula is the closed form of ``robustness``
    (NaN where the state is rank deficient), even where the crossing along
    rho'' fails.  A decomposition error other than ``RankDeficient`` is
    raised first, and then the entry's error where it has no result.
    ``budget`` and ``seed`` are accepted for older callers only."""
    certs = robustness_stack(rho.matrix[None], tolerances)
    if certs.errors[0] is not None and not isinstance(certs.errors[0], RankDeficient):
        raise certs.errors[0]
    _, (result,), (error,) = oracle_pass(rho.matrix[None], certs, with_sdp=True)
    if result is None:
        raise error
    return result
