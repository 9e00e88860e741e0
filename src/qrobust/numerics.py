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

Both run on (N, 4, 4) stacks (``hermitian_eig_stack``, ``takagi_stack``), a
single matrix being a stack with N = 1.  An entry of a stack gets the bits
its own N = 1 call gets, whatever else the stack holds.
"""

from __future__ import annotations

import numpy as np

from .tolerances import DEFAULT, Tolerances

# Singular values at most TAKAGI_CLUSTER max(d_1, 1) apart form a cluster,
# where single-column phases are not defined, and are re-factored together.
# d = sqrt(eig(S conj(S))) resolves only to about sqrt(eps) d_1 (1.5e-8 d_1),
# so zeros form a cluster too; its re-factorization is completed to a unitary.
TAKAGI_CLUSTER = 1e-6


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


def _entry_errors(deviation: np.ndarray, bound: float, make) -> list:
    """``make(deviation)`` for each entry whose deviation exceeds ``bound``, else None."""
    return [make(d) if d > bound else None for d in deviation.tolist()]


def _first_error(*stages) -> list:
    """Merge per-entry error lists: each entry keeps the error of its earliest stage."""
    return [next((e for e in entry if e is not None), None) for entry in zip(*stages)]


def hermitian_eig_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT):
    """Eigendecomposition of each 4x4 Hermitian matrix of an (N, 4, 4) stack
    of finite matrices.

    Returns ``(eigenvalues, eigenvectors, errors)``: eigenvalues (N, 4)
    descending, eigenvectors (N, 4, 4) as orthonormal columns, each phased
    so that its largest-magnitude component is real and positive, and
    ``errors[i]``, the ``NonHermitianInput`` of entry i (``max |M - M^dag|``
    above the hermiticity tolerance), or None.  Every entry is decomposed, a
    failing one included.
    """
    adjoint = matrices.conj().swapaxes(-1, -2)
    dev = np.abs(matrices - adjoint).max(axis=(-2, -1))
    errors = _entry_errors(dev, tol.hermiticity, lambda d: NonHermitianInput(
        f"max |M - M^dag| = {d:.3e} exceeds {tol.hermiticity:.3e}"))
    return (*_eigh_descending(0.5 * (matrices + adjoint)), errors)


def takagi_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT):
    """Takagi factorization of each 4x4 complex symmetric matrix S of an
    (N, 4, 4) stack of finite matrices.

    Returns ``(w, d, errors)``: ``w`` (N, 4, 4) unitary and ``d`` (N, 4)
    nonnegative and descending, with ``w @ S @ w.T = diag(d)``, so the ``d``
    equal the singular values of S; ``errors[i]`` is the
    ``NonSymmetricInput`` of entry i (``max |S - S^T|`` above the symmetry
    tolerance), or None.

    The route: diagonalize the Hermitian product S conj(S), re-factor the
    symmetric restriction of S on any cluster of (near-)degenerate singular
    values, zeros included, where single-column phases are not well
    defined, then fix one phase per column.  Only entries with a cluster go
    through the re-factorization, all of them in one stacked call.
    """
    transpose = matrices.swapaxes(-1, -2)
    dev = np.abs(matrices - transpose).max(axis=(-2, -1))
    errors = _entry_errors(dev, tol.symmetry, lambda e: NonSymmetricInput(
        f"max |S - S^T| = {e:.3e} exceeds {tol.symmetry:.3e}"))
    s = 0.5 * (matrices + transpose)

    evals, v = _eigh_descending(s @ s.conj())
    d = np.sqrt(evals.clip(0.0, None))
    split = d[:, :-1] - d[:, 1:] > (TAKAGI_CLUSTER * np.maximum(d[:, 0], 1.0))[:, None]
    tied = ~split.all(axis=1)
    if tied.any():
        # T = V^H S conj(V) masked to its clusters is block diagonal, so the
        # eigenvectors (a, b) of its real embedding with eigenvalues +d stay
        # inside the clusters and give columns a + ib; taken in descending
        # order, a zero cluster comes last, where one QR completes it to a unitary
        vt = v[tied]
        block = np.cumsum(np.pad(split[tied], ((0, 0), (1, 0))), axis=1)
        t = vt.conj().swapaxes(-1, -2) @ s[tied] @ vt.conj()
        t = np.where(block[:, :, None] == block[:, None, :], t, 0.0)
        g = np.linalg.eigh(np.block([[t.real, t.imag], [t.imag, -t.real]]))[1][..., :3:-1]
        v[tied] = vt @ np.linalg.qr(g[:, :4] + 1j * g[:, 4:])[0]

    # phase polish per column; |diagonal| refines d near the zero level
    v_bar = v.conj()
    c = np.einsum("...ji,...jk,...ki->...i", v_bar, s, v_bar)
    v = v * np.exp(0.5j * np.arctan2(c.imag, c.real))[:, None, :]
    refined = np.abs(c)
    order = np.argsort(-refined, axis=-1, kind="stable")
    v = np.take_along_axis(v, order[:, None, :], axis=-1)
    refined = np.take_along_axis(refined, order, axis=-1)
    return v.conj().swapaxes(-1, -2), refined, errors
