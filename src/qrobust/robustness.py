"""Closed-form robustness of entanglement with explicit separable witnesses.

In the tetrahedron coordinates P_i = lambda_i K_i the separable states form an
irregular octahedron.  For an entangled full-rank state the minimal mixing
weight s such that (rho + s sigma)/(1+s) is separable, over the octahedron
vertex directions sigma, has the closed form

    s = C * min(K_i + K_j) / 2,   i < j in {2, 3, 4},

attained at the vertex sigma_k opposite the minimizing pair.  The module also
materializes the two separable states of the pseudomixture
rho = (1+s) rho' - s rho'' so each certificate can be checked directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wootters
from .states import DensityMatrix, is_separable_ppt
from .tolerances import DEFAULT, Tolerances
from .wootters import WoottersDecomposition


class RankDeficient(ValueError):
    """The closed form needs all four K_i; the state has deficient rank.

    ``decomposition`` holds the decomposition that fell short, so callers
    that report it need not decompose the state again.
    """

    def __init__(self, decomposition: WoottersDecomposition):
        super().__init__(f"decomposition rank {decomposition.rank} < 4; K_i undefined")
        self.decomposition = decomposition


class BadWeights(ValueError):
    """Vertex weights must be convex."""


# vertex index k -> the pair (i, j) of directions it mixes (1-based)
_VERTEX_PAIRS = {1: (1, 2), 2: (3, 4), 3: (2, 4), 4: (2, 3)}
# candidate pairs for the minimum, in the lexicographic order that settles ties
_MIN_PAIRS = ((2, 3), (2, 4), (3, 4))


@dataclass(frozen=True)
class RobustnessCertificate:
    """Closed-form robustness value plus the separable pair witnessing it,
    and the decomposition both were built from."""

    s: float
    k_index: int
    pair: tuple
    rho_pp: DensityMatrix
    rho_p: DensityMatrix
    rho_p_coords: np.ndarray
    residuals: dict
    decomposition: WoottersDecomposition

    def to_report(self) -> dict:
        return {
            "s": float(self.s),
            "k_index": int(self.k_index),
            "pair": [int(i) for i in self.pair],
            "lambda_prime": [float(v) for v in self.rho_p_coords],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


def _require_full_rank(decomp: WoottersDecomposition) -> None:
    if decomp.rank < 4:
        raise RankDeficient(decomp)


def separability_gap(decomp: WoottersDecomposition) -> float:
    """P1/K1 - P2/K2 - P3/K3 - P4/K4 = lambda_1 - lambda_2 - lambda_3 - lambda_4.

    Nonpositive exactly for separable states; equals the concurrence when
    positive.  States with zero gap lie on the boundary plane of the
    dominance region.
    """
    _require_full_rank(decomp)
    p, k = decomp.p_coord, decomp.k_norm
    return float(p[0] / k[0] - p[1] / k[1] - p[2] / k[2] - p[3] / k[3])


def pair_vertex(decomp: WoottersDecomposition, i: int, j: int) -> DensityMatrix:
    """Octahedron vertex (|x'_i><x'_i| + |x'_j><x'_j|) / (K_i + K_j), 1-based."""
    _require_full_rank(decomp)
    xp = decomp.x_prime()
    k = decomp.k_norm
    a, b = i - 1, j - 1
    m = (np.outer(xp[:, a], xp[:, a].conj()) + np.outer(xp[:, b], xp[:, b].conj())) / (k[a] + k[b])
    return DensityMatrix._by_construction(m)


def sigma_vertex(decomp: WoottersDecomposition, k: int) -> DensityMatrix:
    """The named separable vertex sigma_k, k in {1, 2, 3, 4}."""
    if k not in _VERTEX_PAIRS:
        raise ValueError(f"k must be in 1..4, got {k}")
    return pair_vertex(decomp, *_VERTEX_PAIRS[k])


def _check_convex(weights, n: int) -> np.ndarray:
    w = np.array(weights, dtype=float)
    if w.shape != (n,):
        raise BadWeights(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > DEFAULT.unit_weight:
        raise BadWeights(f"weights must be convex, got {w.tolist()}")
    return w


def _vertex_rates(decomp: WoottersDecomposition):
    """1/(K_3+K_4), 1/(K_2+K_4), 1/(K_2+K_3): per-vertex mixing rates for a_2, a_3, a_4."""
    k = decomp.k_norm
    return np.array([1.0 / (k[2] + k[3]), 1.0 / (k[1] + k[3]), 1.0 / (k[1] + k[2])])


def rho_prime_coords(decomp: WoottersDecomposition, weights) -> np.ndarray:
    """Coordinates lambda'_i of the boundary state rho' for vertex weights (a2, a3, a4).

    rho' is where the ray from rho through sum_k a_k sigma_k leaves the
    entangled region; its coordinates satisfy
    lambda'_1 - lambda'_2 - lambda'_3 - lambda'_4 = 0.
    """
    _require_full_rank(decomp)
    a = _check_convex(weights, 3)
    lam, c = decomp.lambdas, decomp.concurrence
    rates = a * _vertex_rates(decomp)
    total = rates.sum()
    denom = total + 0.5 * c
    return np.array([
        total * lam[0],
        total * lam[1] + 0.5 * c * (rates[1] + rates[2]),
        total * lam[2] + 0.5 * c * (rates[0] + rates[2]),
        total * lam[3] + 0.5 * c * (rates[0] + rates[1]),
    ]) / denom


def plane_robustness_s1(decomp: WoottersDecomposition, weights) -> float:
    """Relative robustness along a mixture of sigma_2, sigma_3, sigma_4.

    s1 = C / (2 a2/(K3+K4) + 2 a3/(K2+K4) + 2 a4/(K2+K3)); the certificate
    value is its minimum over convex weights.
    """
    _require_full_rank(decomp)
    a = _check_convex(weights, 3)
    if decomp.concurrence == 0.0:
        return 0.0
    return decomp.concurrence / (2.0 * float(np.sum(a * _vertex_rates(decomp))))


def plane_robustness_other(decomp: WoottersDecomposition, plane: int, weights) -> float:
    """Relative robustness with the outer separable state on plane 2, 3, or 4.

    The plane's three vertices are the pair-mixtures containing the dominant
    index; weights are given over those vertices in ascending partner order.
    A vertex paired with direction 1 adds equally to both sides of the
    separability gap, so it never contributes to the decay rate; these planes
    therefore cannot beat the certificate minimum.
    """
    _require_full_rank(decomp)
    if plane not in (2, 3, 4):
        raise ValueError(f"plane must be 2, 3, or 4, got {plane}")
    w = _check_convex(weights, 3)
    if decomp.concurrence == 0.0:
        return 0.0
    k = decomp.k_norm
    partners = [m for m in (1, 2, 3, 4) if m != plane]
    rate = 0.0
    for wm, m in zip(w, partners):
        if m == 1:
            continue
        rate += 2.0 * wm / (k[plane - 1] + k[m - 1])
    if rate == 0.0:
        return math.inf
    return decomp.concurrence / rate


def robustness(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> RobustnessCertificate:
    """Closed-form robustness certificate for a full-rank state.

    For an entangled state the certificate satisfies, exactly up to rounding:
    the pseudomixture rho = (1+s) rho' - s rho''; rho' on the boundary plane;
    both rho' and rho'' separable; and s is the entanglement-death point of
    the ray from rho through rho''.  Separable full-rank inputs get the
    degenerate certificate (s = 0, rho' = rho, rho'' = sigma_2).

    Raises
    ------
    RankDeficient
        If the decomposition rank is below 4 (the closed form needs all K_i;
        use the oracle module for such states).
    """
    decomp = wootters.decompose(rho, tol)
    _require_full_rank(decomp)
    c = decomp.concurrence
    k = decomp.k_norm

    if c == 0.0:
        rho_pp = sigma_vertex(decomp, 2)
        cert_pair = _VERTEX_PAIRS[2]
        s = 0.0
        k_index = 2
        lam_p = decomp.lambdas.copy()
        rho_p = rho
    else:
        # the first pair, lexicographically, whose sum ties with the minimum
        sums = np.array([k[i - 1] + k[j - 1] for i, j in _MIN_PAIRS])
        m = int(np.flatnonzero(sums <= sums.min() * (1.0 + tol.tie))[0])
        cert_pair = _MIN_PAIRS[m]
        k_index = 9 - cert_pair[0] - cert_pair[1]
        s = 0.5 * sums[m] * c
        rho_pp = sigma_vertex(decomp, k_index)
        a = np.zeros(3)
        a[k_index - 2] = 1.0
        lam_p = rho_prime_coords(decomp, a)
        xp = decomp.x_prime()
        rho_p = DensityMatrix._by_construction((xp * lam_p[None, :]) @ xp.conj().T)

    pseudo = np.max(np.abs(rho.matrix - (1.0 + s) * rho_p.matrix + s * rho_pp.matrix))
    plane = lam_p[0] - lam_p[1] - lam_p[2] - lam_p[3]
    _, min_eig_p = is_separable_ppt(rho_p, tol)
    _, min_eig_pp = is_separable_ppt(rho_pp, tol)
    lam_p.setflags(write=False)
    return RobustnessCertificate(
        s=float(s),
        k_index=k_index,
        pair=cert_pair,
        rho_pp=rho_pp,
        rho_p=rho_p,
        rho_p_coords=lam_p,
        residuals={
            "pseudomixture": float(pseudo),
            "plane": float(abs(plane)) if c > 0.0 else 0.0,
            "ppt_min_eig_rho_p": float(min_eig_p),
            "ppt_min_eig_rho_pp": float(min_eig_pp),
        },
        decomposition=decomp,
    )
