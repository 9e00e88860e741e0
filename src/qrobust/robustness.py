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
from .states import DensityMatrix
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


# vertex index k -> the pair (i, j) of directions it mixes (1-based); the tables below derive from it
_VERTEX_PAIRS = {1: (1, 2), 2: (3, 4), 3: (2, 4), 4: (2, 3)}
_VERTEX_COLUMNS = np.array([(0, 0)] + [_VERTEX_PAIRS[k] for k in (1, 2, 3, 4)]) - 1   # 0-based; row 0 unused
# the s1 plane's vertices sigma_2, sigma_3, sigma_4: the pairs without direction 1
_PLANE_VERTICES = np.array([k for k, pair in _VERTEX_PAIRS.items() if 1 not in pair])
# the candidate pairs for the minimum, (2, 3), (2, 4), (3, 4): the lexicographic order settles ties
_MIN_PAIR_VERTEX = _PLANE_VERTICES[::-1]
_MIN_PAIR_COLUMNS = _VERTEX_COLUMNS[_MIN_PAIR_VERTEX]


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
    decomposition: WoottersDecomposition

    def to_report(self) -> dict:
        return {
            "s": float(self.s),
            "k_index": int(self.k_index),
            "pair": [int(i) for i in self.pair],
            "lambda_prime": [float(v) for v in self.rho_p_coords],
        }


def _pair_vertices(xp: np.ndarray, k: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(|x'_a><x'_a| + |x'_b><x'_b|) / (K_a + K_b) for each entry of a stack
    of normalized bases (N, 4, 4) and K values (N, 4); a, b hold 0-based
    column indices (N,)."""
    rows = np.arange(len(a))
    xa, xb = xp[rows, :, a], xp[rows, :, b]
    return ((xa[:, :, None] * xa.conj()[:, None, :] + xb[:, :, None] * xb.conj()[:, None, :])
            / (k[rows, a] + k[rows, b])[:, None, None])


def _min_pair(k: np.ndarray) -> tuple:
    """The pair the tie rule picks for each entry of K values (N, 4): the first of
    (2, 3), (2, 4), (3, 4) whose K_i + K_j lies within a relative ``wootters.TIE``
    of the smallest sum.  Returns its index into ``_MIN_PAIR_COLUMNS`` and its
    sum, both (N,); the sum is nan where a pair holds an undefined K_i."""
    sums = k[:, _MIN_PAIR_COLUMNS[:, 0]] + k[:, _MIN_PAIR_COLUMNS[:, 1]]
    least = sums.min(axis=-1)
    m = (sums <= least[:, None] * (1.0 + wootters.TIE)).argmax(axis=-1)
    return m, np.where(np.isnan(least), np.nan, sums[np.arange(len(m)), m])


# per plane, the 0-based K columns (a, b) of each vertex's rate 1/(K_a + K_b):
# plane 1 is the s1 plane of sigma_2, sigma_3, sigma_4, the vertices of the pairs (3, 4),
# (2, 4) and (2, 3); planes 2, 3 and 4 hold the pair-mixtures with that index,
# partners ascending, and a partner 1 (column 0) adds no rate
_PLANE_PAIRS = {1: _VERTEX_COLUMNS[_PLANE_VERTICES],
                **{p: np.array([(p - 1, m) for m in range(4) if m != p - 1]) for p in (2, 3, 4)}}


def _plane_robustness(k: np.ndarray, c: np.ndarray, plane: int, weights: np.ndarray) -> np.ndarray:
    """Relative robustness C / (2 sum_v w_v / (K_a + K_b)) along a mixture of
    the vertices of ``plane``, for K values (..., 4), concurrences (...) and
    convex weights (..., 3): 0 where C = 0, inf where no weight falls on a
    vertex with a rate.

    On plane 1 (sigma_2, sigma_3, sigma_4) the certificate value is the
    minimum over the weights.  A vertex paired with direction 1 adds equally
    to both sides of the separability gap, so it never contributes to the
    decay rate; planes 2, 3 and 4 therefore cannot beat that minimum.
    """
    a, b = _PLANE_PAIRS[plane].T
    rates = np.where(b == 0, 0.0, 1.0 / (k[..., a] + k[..., b]))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = c / (2.0 * np.sum(weights * rates, axis=-1))
    return np.where(c == 0.0, 0.0, value)


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
            decomposition=self.decomposition.entry(i),
        )


def _certificates(rho, lam, k, c, x) -> dict:
    """Certificate fields, as in ``CertificateStack``, for stacks of full-rank
    states with their lambdas, K values, concurrences and basis vectors."""
    rows = np.arange(len(c))
    xp = wootters._x_prime(x, lam)
    first_min, pair_sum = _min_pair(k)
    entangled = c != 0.0
    # separable entries get the degenerate certificate on sigma_2, the vertex of pair (3, 4)
    m = np.where(entangled, first_min, 2)
    s = np.where(entangled, 0.5 * pair_sum * c, 0.0)
    k_index = _MIN_PAIR_VERTEX[m]
    rho_pp = _pair_vertices(xp, k, _MIN_PAIR_COLUMNS[m, 0], _MIN_PAIR_COLUMNS[m, 1])
    # rho' = (rho + s rho'')/(1+s): lambda' = (lambda + (C/2)(e_a + e_b))/(1+s) for the
    # minimizing pair (a, b), on the boundary plane lambda'_1 = lambda'_2 + lambda'_3 + lambda'_4;
    # separable entries (C = s = 0) keep lambda' = lambda
    lam_p = lam.copy()
    lam_p[rows[:, None], _MIN_PAIR_COLUMNS[m]] += 0.5 * c[:, None]
    lam_p /= (1.0 + s)[:, None]
    rho_p = np.where(entangled[:, None, None], (xp * lam_p[:, None, :]) @ xp.conj().swapaxes(-1, -2), rho)
    return {"s": s, "k_index": k_index, "rho_pp": rho_pp, "rho_p": rho_p, "rho_p_coords": lam_p}


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
    subset = _certificates(*(values[full] for values in fields))

    def spread(values):
        out = np.full((len(full),) + values.shape[1:], 0 if values.dtype.kind == "i" else np.nan,
                      dtype=values.dtype)
        out[full] = values
        out.setflags(write=False)
        return out

    cert = {name: spread(values) for name, values in subset.items()}
    return CertificateStack(**cert, decomposition=decomp, errors=errors)


def robustness(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> RobustnessCertificate:
    """Closed-form robustness certificate for a full-rank state.

    For an entangled state the certificate satisfies, exactly up to rounding:
    the pseudomixture rho = (1+s) rho' - s rho''; rho' on the boundary plane;
    both rho' and rho'' separable; and s is the entanglement-death point of
    the ray from rho through rho'' (``verify.certificate_checks`` checks
    each).  Separable full-rank inputs get the degenerate certificate
    (s = 0, rho' = rho, rho'' = sigma_2).

    Raises
    ------
    RankDeficient
        If the decomposition rank is below 4 (the closed form needs all K_i;
        use the oracle module for such states).
    """
    return robustness_stack(rho.matrix[None], tol).entry(0)
