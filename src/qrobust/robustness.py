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

from dataclasses import dataclass

import numpy as np

from . import wootters
from .states import DensityMatrix, ppt_min_eig
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
_MIN_PAIR_COLUMNS = np.array(_MIN_PAIRS) - 1                            # 0-based
_MIN_PAIR_VERTEX = np.array([9 - i - j for i, j in _MIN_PAIRS])       # the vertex each pair spans
_PLANE_VERTICES = np.array([2, 3, 4])
# for direction i = 2, 3, 4: the two plane vertices (as indices of a2, a3, a4) that mix it
_MIXING_RATES = (np.array([1, 0, 0]), np.array([2, 2, 1]))


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


def _pair_vertices(xp: np.ndarray, k: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(|x'_a><x'_a| + |x'_b><x'_b|) / (K_a + K_b) for each entry of a stack
    of normalized bases (N, 4, 4) and K values (N, 4); a, b hold 0-based
    column indices (N,)."""
    rows = np.arange(len(a))
    xa, xb = xp[rows, :, a], xp[rows, :, b]
    return ((xa[:, :, None] * xa.conj()[:, None, :] + xb[:, :, None] * xb.conj()[:, None, :])
            / (k[rows, a] + k[rows, b])[:, None, None])


def pair_vertex(decomp: WoottersDecomposition, i: int, j: int) -> DensityMatrix:
    """Octahedron vertex (|x'_i><x'_i| + |x'_j><x'_j|) / (K_i + K_j), 1-based."""
    _require_full_rank(decomp)
    m = _pair_vertices(decomp.x_prime()[None], decomp.k_norm[None], np.array([i - 1]), np.array([j - 1]))
    return DensityMatrix._by_construction(m[0])


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


def _pair_sums(k: np.ndarray) -> np.ndarray:
    """K_2+K_3, K_2+K_4, K_3+K_4 (the ``_MIN_PAIRS`` order) along the last axis
    of K values (4,) or (N, 4)."""
    return k[..., _MIN_PAIR_COLUMNS[:, 0]] + k[..., _MIN_PAIR_COLUMNS[:, 1]]


def _vertex_rates(k: np.ndarray) -> np.ndarray:
    """1/(K_3+K_4), 1/(K_2+K_4), 1/(K_2+K_3): per-vertex mixing rates for a_2, a_3, a_4."""
    return 1.0 / _pair_sums(k)[..., ::-1]


def _prime_coords(lam: np.ndarray, c: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """``rho_prime_coords`` over stacks: lambdas (N, 4), concurrences (N,) and
    weighted vertex rates a_k/(K_i+K_j) (N, 3)."""
    total = rates.sum(axis=-1)
    half_c = 0.5 * c
    coords = total[:, None] * lam
    # lambda'_i, i = 2, 3, 4, gains C/2 times the rates of the two vertices that mix direction i
    coords[:, 1:] += half_c[:, None] * (rates[:, _MIXING_RATES[0]] + rates[:, _MIXING_RATES[1]])
    return coords / (total + half_c)[:, None]


def rho_prime_coords(decomp: WoottersDecomposition, weights) -> np.ndarray:
    """Coordinates lambda'_i of the boundary state rho' for vertex weights (a2, a3, a4).

    rho' is where the ray from rho through sum_k a_k sigma_k leaves the
    entangled region; its coordinates satisfy
    lambda'_1 - lambda'_2 - lambda'_3 - lambda'_4 = 0.
    """
    _require_full_rank(decomp)
    a = _check_convex(weights, 3)
    rates = a * _vertex_rates(decomp.k_norm)
    return _prime_coords(decomp.lambdas[None], np.array([decomp.concurrence]), rates[None])[0]


# per plane, the 0-based K columns (a, b) of each vertex's rate 1/(K_a + K_b):
# plane 1 is the s1 plane of sigma_2, sigma_3, sigma_4, whose rates are
# ``_vertex_rates``; planes 2, 3 and 4 hold the pair-mixtures with that index,
# partners ascending, and a partner 1 (column 0) adds no rate
_PLANE_PAIRS = {1: _MIN_PAIR_COLUMNS[::-1],
                **{p: np.array([(p - 1, m) for m in range(4) if m != p - 1]) for p in (2, 3, 4)}}


def _plane_robustness(k: np.ndarray, c: np.ndarray, plane: int, weights: np.ndarray) -> np.ndarray:
    """C / (2 sum_v w_v / (K_a + K_b)) over the vertices of ``plane`` for K
    values (..., 4), concurrences (...) and convex weights (..., 3): 0 where
    C = 0, inf where no weight falls on a vertex with a rate."""
    a, b = _PLANE_PAIRS[plane].T
    rates = np.where(b == 0, 0.0, 1.0 / (k[..., a] + k[..., b]))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = c / (2.0 * np.sum(weights * rates, axis=-1))
    return np.where(c == 0.0, 0.0, value)


def plane_robustness_s1(decomp: WoottersDecomposition, weights) -> float:
    """Relative robustness along a mixture of sigma_2, sigma_3, sigma_4.

    s1 = C / (2 a2/(K3+K4) + 2 a3/(K2+K4) + 2 a4/(K2+K3)); the certificate
    value is its minimum over convex weights.
    """
    _require_full_rank(decomp)
    return float(_plane_robustness(decomp.k_norm, decomp.concurrence, 1, _check_convex(weights, 3)))


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
    return float(_plane_robustness(decomp.k_norm, decomp.concurrence, plane, _check_convex(weights, 3)))


@dataclass(frozen=True)
class CertificateStack:
    """Certificates of N states: each ``RobustnessCertificate`` field with a
    leading axis of length N (``pair`` follows from ``k_index``), the
    decompositions they were built from, and ``errors[i]``: the decomposition
    error of entry i, ``RankDeficient``, or None.  A failed entry's
    certificate arrays hold NaN (``k_index`` 0)."""

    s: np.ndarray
    k_index: np.ndarray
    rho_pp: np.ndarray
    rho_p: np.ndarray
    rho_p_coords: np.ndarray
    residuals: dict
    decomposition: wootters.DecompositionStack
    errors: list

    def entry(self, i: int) -> RobustnessCertificate:
        """Entry i as a single certificate; raises its error, if any."""
        if self.errors[i] is not None:
            raise self.errors[i]
        k_index = int(self.k_index[i])
        return RobustnessCertificate(
            s=float(self.s[i]), k_index=k_index, pair=_VERTEX_PAIRS[k_index],
            rho_pp=DensityMatrix._by_construction(self.rho_pp[i]),
            rho_p=DensityMatrix._by_construction(self.rho_p[i]),
            rho_p_coords=self.rho_p_coords[i],
            residuals={name: float(values[i]) for name, values in self.residuals.items()},
            decomposition=self.decomposition.entry(i),
        )


def _certificates(rho, lam, k, c, x, tol: Tolerances) -> dict:
    """Certificate fields, as in ``CertificateStack``, for stacks of full-rank
    states with their lambdas, K values, concurrences and basis vectors."""
    rows = np.arange(len(c))
    xp = wootters._x_prime(x, lam, 4)
    # the first pair, lexicographically, whose sum ties with the minimum
    sums = _pair_sums(k)
    first_min = (sums <= sums.min(axis=-1, keepdims=True) * (1.0 + tol.tie)).argmax(axis=-1)
    entangled = c != 0.0
    # separable entries get the degenerate certificate on sigma_2, the vertex of pair (3, 4)
    m = np.where(entangled, first_min, 2)
    s = np.where(entangled, 0.5 * sums[rows, m] * c, 0.0)
    k_index = _MIN_PAIR_VERTEX[m]
    rho_pp = _pair_vertices(xp, k, _MIN_PAIR_COLUMNS[m, 0], _MIN_PAIR_COLUMNS[m, 1])
    one_hot = k_index[:, None] == _PLANE_VERTICES          # vertex weights (a2, a3, a4)
    lam_p = np.where(entangled[:, None], _prime_coords(lam, c, one_hot * _vertex_rates(k)), lam)
    rho_p = np.where(entangled[:, None, None], (xp * lam_p[:, None, :]) @ xp.conj().swapaxes(-1, -2), rho)
    plane = lam_p[:, 0] - lam_p[:, 1] - lam_p[:, 2] - lam_p[:, 3]
    min_eigs = ppt_min_eig(np.concatenate((rho_p, rho_pp)))
    return {
        "s": s, "k_index": k_index, "rho_pp": rho_pp, "rho_p": rho_p, "rho_p_coords": lam_p,
        "residuals": {
            "pseudomixture": np.abs(rho - (1.0 + s)[:, None, None] * rho_p
                                    + s[:, None, None] * rho_pp).max(axis=(-2, -1)),
            "plane": np.where(entangled, np.abs(plane), 0.0),
            "ppt_min_eig_rho_p": min_eigs[:len(c)],
            "ppt_min_eig_rho_pp": min_eigs[len(c):],
        },
    }


def robustness_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT) -> CertificateStack:
    """``robustness`` over an (N, 4, 4) stack of validated state matrices.

    Each entry gets the bits its own N = 1 call gets.  Rank-deficient and
    failed entries are recorded in ``errors`` and do not stop the others.
    """
    decomp = wootters.decompose_stack(matrices, tol)
    errors = [error if error is not None or rank == 4 else RankDeficient(decomp.entry(i))
              for i, (error, rank) in enumerate(zip(decomp.errors, decomp.rank.tolist()))]
    # certificates of the full-rank entries, NaN (k_index 0) elsewhere
    full = np.array([error is None for error in errors], dtype=bool)
    fields = (matrices, decomp.lambdas, decomp.k_norm, decomp.concurrence, decomp.x)
    subset = _certificates(*(values[full] for values in fields), tol)

    def spread(values):
        out = np.full((len(full),) + values.shape[1:], 0 if values.dtype.kind == "i" else np.nan,
                      dtype=values.dtype)
        out[full] = values
        out.setflags(write=False)
        return out

    cert = {name: spread(values) for name, values in subset.items() if name != "residuals"}
    cert["residuals"] = {name: spread(values) for name, values in subset["residuals"].items()}
    return CertificateStack(**cert, decomposition=decomp, errors=errors)


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
    return robustness_stack(rho.matrix[None], tol).entry(0)
