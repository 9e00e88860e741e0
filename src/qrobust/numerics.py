"""Fixed-size complex matrix kernel: Hermitian eigensolver and Takagi factorization.

Both routines run on LAPACK's Hermitian eigensolver (``np.linalg.eigh``) and
fix the conventions LAPACK leaves open, so identical input bits give
identical output bits on a given numpy/LAPACK build:

* eigenvalues and singular values are sorted in descending order with a
  stable tie-break;
* each eigenvector is rotated by a global phase so its largest-magnitude
  component is real and positive.

Inside a degenerate eigenspace LAPACK returns an arbitrary basis.  Callers
that report vectors from such a space fix the basis by their own written
rule (see ``wootters.decompose``).
"""

from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT, Tolerances


class NonHermitianInput(ValueError):
    """Input matrix deviates from M = M^dag beyond the accepted tolerance."""


class NonSymmetricInput(ValueError):
    """Input matrix deviates from S = S^T beyond the accepted tolerance."""


class NumericalFailure(RuntimeError):
    """A factorization did not reach its required residual."""


def _as_matrix(matrix, size: int = 4) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _eigh_descending(h: np.ndarray):
    """LAPACK eigendecomposition of a Hermitian (or real symmetric) matrix,
    eigenvalues descending, each eigenvector phased so that its
    largest-magnitude component is real and positive."""
    evals, v = np.linalg.eigh(h)
    order = np.argsort(-evals, kind="stable")
    evals, v = evals[order], v[:, order]
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return evals, v * (np.conj(pivots) / np.abs(pivots))[None, :]


def _tied_runs(values: np.ndarray, gap: float) -> list:
    """Split a descending array into maximal runs of neighbours at most
    ``gap`` apart; returns one index range per run, singletons included."""
    runs, start = [], 0
    for i in range(1, len(values)):
        if values[i - 1] - values[i] > gap:
            runs.append(range(start, i))
            start = i
    runs.append(range(start, len(values)))
    return runs


def hermitian_eig(matrix, tol: Tolerances = DEFAULT):
    """Eigendecomposition of a 4x4 Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues descending and
    eigenvectors as orthonormal columns, deterministically oriented.

    Raises
    ------
    NonHermitianInput
        If ``max |M - M^dag|`` exceeds the hermiticity tolerance.
    """
    m = _as_matrix(matrix)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > tol.hermiticity:
        raise NonHermitianInput(f"max |M - M^dag| = {dev:.3e} exceeds {tol.hermiticity:.3e}")
    return _eigh_descending(0.5 * (m + m.conj().T))


def _takagi_unitary_small(t: np.ndarray) -> np.ndarray:
    """Takagi vectors of a small complex symmetric block.

    Uses the real embedding [[Re T, Im T], [Im T, -Re T]]: eigenvectors with
    eigenvalue +d map to complex vectors w with T conj(w) = d w, and the top-k
    block of eigenvectors yields a unitary k x k factor.
    """
    k = t.shape[0]
    _, g = _eigh_descending(np.block([[t.real, t.imag], [t.imag, -t.real]]))
    return g[:k, :k] + 1j * g[k:, :k]


def takagi(matrix, tol: Tolerances = DEFAULT):
    """Takagi factorization of a 4x4 complex symmetric matrix.

    Returns ``(w, d)`` with ``w`` unitary, ``d`` nonnegative and descending,
    and ``w @ S @ w.T = diag(d)``; the ``d`` equal the singular values of S.

    The route: diagonalize the Hermitian product S conj(S), fix one phase per
    column, and re-factor the symmetric restriction of S on any cluster of
    (near-)degenerate singular values, where single-column phases are not
    well defined.

    Raises
    ------
    NonSymmetricInput
        If ``max |S - S^T|`` exceeds the symmetry tolerance.
    """
    m = _as_matrix(matrix)
    dev = np.max(np.abs(m - m.T))
    if dev > tol.symmetry:
        raise NonSymmetricInput(f"max |S - S^T| = {dev:.3e} exceeds {tol.symmetry:.3e}")
    s = 0.5 * (m + m.T)

    evals, v = _eigh_descending(s @ np.conj(s))
    d = np.sqrt(np.clip(evals, 0.0, None))
    scale = max(d[0], 1.0)
    zero_level = tol.takagi_zero * scale

    for idx in _tied_runs(d, tol.takagi_cluster * scale):
        if len(idx) < 2 or d[idx].mean() <= zero_level:
            continue
        vc = v[:, idx]
        restriction = vc.conj().T @ s @ np.conj(vc)
        v[:, idx] = vc @ _takagi_unitary_small(restriction)

    # phase polish per column; |diagonal| refines d near the zero level
    v_bar = np.conj(v)
    c = np.einsum("ji,jk,ki->i", v_bar, s, v_bar)
    polish = np.abs(c) > zero_level * 1e-3
    v[:, polish] *= np.exp(0.5j * np.angle(c[polish]))[None, :]
    refined = np.abs(c)
    order = np.argsort(-refined, kind="stable")
    return v[:, order].conj().T, refined[order]
