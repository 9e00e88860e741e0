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

Both run on (N, 4, 4) stacks (``hermitian_eig_stack``, ``takagi_stack``),
and the single-matrix functions are their N = 1 calls.  An entry of a
stack gets the bits its own single-matrix call gets.
"""

from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT, Tolerances

# Takagi route parameters, relative to max(d_1, 1).  Singular values at most
# TAKAGI_CLUSTER apart form a cluster.  d = sqrt(eig(S conj(S))) resolves only
# to about sqrt(eps) d_1 (1.5e-8 d_1), so a cluster whose mean is at or below
# TAKAGI_ZERO is rounding noise and keeps its orthonormal eigenvectors.  A
# column whose diagonal |(W S W^T)_ii| exceeds _PHASE_LEVEL gets its phase fixed.
TAKAGI_CLUSTER = 1e-6
TAKAGI_ZERO = 1e-7
_PHASE_LEVEL = 1e-13


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
    """LAPACK eigendecomposition of a Hermitian (or real symmetric) matrix or
    (..., n, n) stack, eigenvalues descending with a stable tie-break, each
    eigenvector phased so that its largest-magnitude component is real and
    positive."""
    evals, v = np.linalg.eigh(h)                      # ascending
    order = np.argsort(-evals, axis=-1, kind="stable")  # exact ties keep LAPACK's order
    evals = np.take_along_axis(evals, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    pivots = _column_pivots(v)
    return evals, v * (pivots.conj() / np.abs(pivots))


def _column_pivots(v: np.ndarray) -> np.ndarray:
    """The largest-magnitude entry of each column (the first of equals) of a
    matrix or (..., n, n) stack, shaped (..., 1, n)."""
    n = v.shape[-1]
    v3 = v.reshape(-1, n, n)
    pivots = v3[np.arange(len(v3))[:, None], np.abs(v3).argmax(axis=1), np.arange(n)]
    return pivots.reshape(v.shape[:-2] + (1, n))


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


def _entry_errors(deviation: np.ndarray, bound: float, make) -> list:
    """``make(deviation)`` for each entry whose deviation exceeds ``bound``, else None."""
    return [make(d) if d > bound else None for d in deviation.tolist()]


def _first_error(*stages) -> list:
    """Merge per-entry error lists: each entry keeps the error of its earliest stage."""
    return [next((e for e in entry if e is not None), None) for entry in zip(*stages)]


def hermitian_eig_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT):
    """``hermitian_eig`` over an (N, 4, 4) stack of finite matrices.

    Returns ``(eigenvalues, eigenvectors, errors)``; ``errors[i]`` is the
    ``NonHermitianInput`` of entry i, or None.  Every entry is decomposed, a
    failing one included.
    """
    adjoint = matrices.conj().swapaxes(-1, -2)
    dev = np.abs(matrices - adjoint).max(axis=(-2, -1))
    errors = _entry_errors(dev, tol.hermiticity, lambda d: NonHermitianInput(
        f"max |M - M^dag| = {d:.3e} exceeds {tol.hermiticity:.3e}"))
    return (*_eigh_descending(0.5 * (matrices + adjoint)), errors)


def hermitian_eig(matrix, tol: Tolerances = DEFAULT):
    """Eigendecomposition of a 4x4 Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues descending and
    eigenvectors as orthonormal columns, deterministically oriented.

    Raises
    ------
    NonHermitianInput
        If ``max |M - M^dag|`` exceeds the hermiticity tolerance.
    """
    evals, vecs, errors = hermitian_eig_stack(_as_matrix(matrix)[None], tol)
    if errors[0] is not None:
        raise errors[0]
    return evals[0], vecs[0]


def _takagi_unitary_small(t: np.ndarray) -> np.ndarray:
    """Takagi vectors of a small complex symmetric block.

    Uses the real embedding [[Re T, Im T], [Im T, -Re T]]: eigenvectors with
    eigenvalue +d map to complex vectors w with T conj(w) = d w, and the top-k
    block of eigenvectors yields a unitary k x k factor.
    """
    k = t.shape[0]
    _, g = _eigh_descending(np.block([[t.real, t.imag], [t.imag, -t.real]]))
    return g[:k, :k] + 1j * g[k:, :k]


def _refactor_clusters(v: np.ndarray, s: np.ndarray, d: np.ndarray) -> None:
    """Re-factor, in place, the symmetric restriction of ``s`` on each cluster
    of (near-)degenerate singular values ``d`` above the zero level, where
    single-column phases of ``v`` are not well defined."""
    scale = max(d[0], 1.0)
    for idx in _tied_runs(d, TAKAGI_CLUSTER * scale):
        if len(idx) < 2 or d[idx].mean() <= TAKAGI_ZERO * scale:
            continue
        vc = v[:, idx]
        restriction = vc.conj().T @ s @ np.conj(vc)
        v[:, idx] = vc @ _takagi_unitary_small(restriction)


def takagi_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT):
    """``takagi`` over an (N, 4, 4) stack of finite matrices.

    Returns ``(w, d, errors)``; ``errors[i]`` is the ``NonSymmetricInput`` of
    entry i, or None.  Only entries with a cluster of singular values go
    through the per-cluster re-factorization.
    """
    transpose = matrices.swapaxes(-1, -2)
    dev = np.abs(matrices - transpose).max(axis=(-2, -1))
    errors = _entry_errors(dev, tol.symmetry, lambda e: NonSymmetricInput(
        f"max |S - S^T| = {e:.3e} exceeds {tol.symmetry:.3e}"))
    s = 0.5 * (matrices + transpose)

    evals, v = _eigh_descending(s @ s.conj())
    d = np.sqrt(evals.clip(0.0, None))
    scale = np.maximum(d[:, 0], 1.0)
    tied = (d[:, :-1] - d[:, 1:] <= (TAKAGI_CLUSTER * scale)[:, None]).any(axis=1)
    for i in tied.nonzero()[0]:
        _refactor_clusters(v[i], s[i], d[i])

    # phase polish per column; |diagonal| refines d near the zero level
    v_bar = v.conj()
    c = np.einsum("...ji,...jk,...ki->...i", v_bar, s, v_bar)
    refined = np.abs(c)
    polish = refined > (_PHASE_LEVEL * scale)[:, None]
    v = np.where(polish[:, None, :], v * np.exp(0.5j * np.arctan2(c.imag, c.real))[:, None, :], v)
    order = np.argsort(-refined, axis=-1, kind="stable")
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    refined = np.take_along_axis(refined, order, axis=-1)
    return v.conj().swapaxes(-1, -2), refined, errors


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
    w, d, errors = takagi_stack(_as_matrix(matrix)[None], tol)
    if errors[0] is not None:
        raise errors[0]
    return w[0], d[0]
