"""Special decomposition of two-qubit states and the quantities derived from it.

A state rho always admits a decomposition rho = sum_i |x_i><x_i| whose
subnormalized vectors satisfy <x_i|~x_j> = lambda_i delta_ij, where ~ is the
spin flip and the lambda_i are the descending square roots of the eigenvalues
of rho rho~.  The construction here: spectrally decompose rho into
subnormalized eigenvectors |v_i>, form the complex symmetric Gram matrix
tau_ij = <v_i|~v_j>, find a unitary U with U tau U^T = diag(lambda) via the
Takagi kernel, and set |x_i> = sum_j conj(U_ij) |v_j>.

The vectors are unique only up to sign, and inside a cluster of tied lambdas
only up to a real orthogonal rotation, which the eigensolver leaves
arbitrary.  The written rule that fixes both (``_fix_free_rotations``,
then ``_column_signs``): rotate each cluster onto the eigenvectors of
Re(X_c^dag X_c), so its K_i come out descending, align every group of
still-tied K_i with the magic basis in Bell order, and orient each vector by
its largest magic-basis coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics, states
from .numerics import NumericalFailure
from .states import DensityMatrix
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class WoottersDecomposition:
    """Decomposition data for one state.

    Attributes
    ----------
    lambdas : descending nonnegative weights; lambdas**2 are the eigenvalues
        of rho rho~.
    x : 4x4 complex array whose columns are the subnormalized vectors |x_i>;
        columns at positions >= rank are exactly zero.
    k_norm : K_i = <x'_i|x'_i> with |x'_i> = |x_i>/sqrt(lambda_i); NaN where
        the rank cuts off.
    p_coord : tetrahedron coordinates P_i = <x_i|x_i> = lambda_i K_i.
    concurrence : max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).
    rank : number of lambdas above the relative rank threshold.
    """

    lambdas: np.ndarray
    x: np.ndarray
    k_norm: np.ndarray
    p_coord: np.ndarray
    concurrence: float
    rank: int

    def x_prime(self) -> np.ndarray:
        """Columns |x'_i> = |x_i>/sqrt(lambda_i); zero beyond the rank."""
        return _x_prime(self.x, self.lambdas, self.rank)

    def to_report(self) -> dict:
        return {
            "lambdas": [float(v) for v in self.lambdas],
            "k_norm": [None if math.isnan(v) else float(v) for v in self.k_norm],
            "p_coord": [float(v) for v in self.p_coord],
            "concurrence": float(self.concurrence),
            "rank": int(self.rank),
            "vectors": [
                {"re": [float(c.real) for c in self.x[:, i]],
                 "im": [float(c.imag) for c in self.x[:, i]]}
                for i in range(4)
            ],
        }


@dataclass(frozen=True)
class DecompositionStack:
    """Decompositions of N states: each ``WoottersDecomposition`` field with a
    leading axis of length N, plus ``errors[i]``, the residual failure of
    entry i (``NonHermitianInput``, ``NonSymmetricInput`` or
    ``NumericalFailure``) or None.  A failed entry's arrays are not meaningful."""

    lambdas: np.ndarray
    x: np.ndarray
    k_norm: np.ndarray
    p_coord: np.ndarray
    concurrence: np.ndarray
    rank: np.ndarray
    errors: list

    def entry(self, i: int) -> WoottersDecomposition:
        """Entry i as a single decomposition; raises its error, if any."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return WoottersDecomposition(
            lambdas=self.lambdas[i], x=self.x[i], k_norm=self.k_norm[i], p_coord=self.p_coord[i],
            concurrence=float(self.concurrence[i]), rank=int(self.rank[i]),
        )


def _x_prime(x: np.ndarray, lambdas: np.ndarray, rank: int) -> np.ndarray:
    """|x_i>/sqrt(lambda_i) for the columns below ``rank``, zero beyond; over
    one matrix or a stack of matrices of the same rank."""
    xp = np.zeros_like(x)
    xp[..., :rank] = x[..., :rank] / np.sqrt(lambdas[..., :rank])[..., None, :]
    return xp


_COLUMNS = np.arange(4)
_EYE = np.eye(4)
# Magic basis: the Bell states of ``states.BELL_STATES``, in Bell order, with
# the phases that make each one invariant under the spin flip.
_MAGIC = states.BELL_STATES * np.array([1j, 1.0, 1j, 1.0])[None, :]
_MAGIC_ADJOINT = _MAGIC.conj().T


def _column_signs(x: np.ndarray) -> np.ndarray:
    """Rule 3 below: the sign per column, of one matrix or an (N, 4, 4) stack,
    that makes its largest real magic-basis coefficient positive (ties go to
    the lower Bell index)."""
    return np.where(numerics._column_pivots((_MAGIC_ADJOINT @ x).real) < 0.0, -1.0, 1.0)


def _fix_free_rotations(x: np.ndarray, lambdas: np.ndarray, tol: Tolerances) -> None:
    """Fix, in place, the rotation the defining relation leaves free in
    each cluster of tied lambdas (steps 1 and 2 of the rule below).

    Each |x_i> is unique only up to sign, and inside a cluster of lambdas
    tied within ``tol.tie * lambda_1`` only up to a real orthogonal rotation;
    both keep the defining relation and rho = X X^dag.  The rule:

    1. rotate each cluster onto the eigenvectors of Re(X_c^dag X_c), so its
       K_i are that matrix's eigenvalues, descending;
    2. inside each group of K_i tied within ``tol.tie * K_max``, rotate so
       that the real magic-basis coefficients are lower triangular on the
       Bell indices that carry the most weight, taken in Bell order;
    3. give every column the sign that makes its largest real magic-basis
       coefficient positive (ties go to the lower Bell index).

    A Bell-diagonal state thus gets columns proportional to the magic
    vectors in Bell order, whatever basis the eigensolver returned.
    ``decompose_stack`` runs steps 1 and 2 only on entries with a tied
    cluster, then step 3 (``_column_signs``) on every entry in one pass.
    """
    for cluster in numerics._tied_runs(lambdas, tol.tie * lambdas[0]):
        if len(cluster) < 2:
            continue
        xc = x[:, cluster]
        k, rot = numerics._eigh_descending((xc.conj().T @ xc).real)
        xc = xc @ rot
        for group in numerics._tied_runs(k, tol.tie * k[0]):
            if len(group) > 1:
                xg = xc[:, group]
                coeffs = (_MAGIC_ADJOINT @ xg).real        # full column rank
                rows = np.sort(np.argsort(-np.sum(coeffs ** 2, axis=1), kind="stable")[:len(group)])
                xc[:, group] = xg @ np.linalg.qr(coeffs[rows].T)[0]   # coeffs[rows] @ q = r.T
        x[:, cluster] = xc


def decompose_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT) -> DecompositionStack:
    """``decompose`` over an (N, 4, 4) stack of validated state matrices.

    Each entry gets the bits its own N = 1 call gets.  An entry whose
    residual check fails is recorded in ``errors`` and does not stop the
    others.
    """
    mu, vecs, eig_errors = numerics.hermitian_eig_stack(matrices, tol)
    sub = vecs * np.sqrt(mu.clip(0.0, None))[:, None, :]
    tau = (sub.swapaxes(-1, -2) @ states.SIGMA_YY @ sub).conj()  # tau_ij = <v_i|~v_j>, complex symmetric
    u, lambdas, takagi_errors = numerics.takagi_stack(tau, tol)
    residual = np.abs(u @ tau @ u.swapaxes(-1, -2) - lambdas[:, :, None] * _EYE).max(axis=(-2, -1))
    residual_errors = numerics._entry_errors(residual, tol.decompose_failure, lambda r: NumericalFailure(
        f"factorization residual {r:.3e} exceeds {tol.decompose_failure:.3e}"))

    x = sub @ u.conj().swapaxes(-1, -2)
    eps_rank = tol.rank_threshold * np.maximum(lambdas[:, 0], 1e-30)
    rank = (lambdas > eps_rank[:, None]).sum(axis=1)
    inside = _COLUMNS < rank[:, None]
    x = np.where(inside[:, None, :], x, 0.0)
    # entries with a cluster of lambdas tied inside the rank take steps 1 and 2 of the rule
    clustered = ((lambdas[:, :-1] - lambdas[:, 1:] <= tol.tie * lambdas[:, :1]) & inside[:, 1:]).any(axis=1)
    for i in clustered.nonzero()[0]:
        _fix_free_rotations(x[i], lambdas[i, :rank[i]], tol)
    x *= _column_signs(x)
    p_coord = (np.abs(x) ** 2).sum(axis=-2)
    k_norm = np.full(lambdas.shape, np.nan)
    np.divide(p_coord, lambdas, out=k_norm, where=inside)
    conc = np.maximum(lambdas[:, 0] - lambdas[:, 1] - lambdas[:, 2] - lambdas[:, 3], 0.0)
    for arr in (lambdas, x, k_norm, p_coord):
        arr.setflags(write=False)
    return DecompositionStack(
        lambdas=lambdas, x=x, k_norm=k_norm, p_coord=p_coord, concurrence=conc, rank=rank,
        errors=numerics._first_error(eig_errors, takagi_errors, residual_errors),
    )


def decompose(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> WoottersDecomposition:
    """Construct the tilde-orthogonal decomposition of ``rho``.

    Raises
    ------
    NumericalFailure
        If the Takagi residual of the Gram matrix exceeds the failure gate.
    NonHermitianInput, NonSymmetricInput
        If a kernel input fails its check (only with tightened tolerances).
    """
    return decompose_stack(rho.matrix[None], tol).entry(0)


def concurrence(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> float:
    """Entanglement monotone in [0, 1]; invariant under local unitaries."""
    return decompose(rho, tol).concurrence


def tilde_norm(matrix: np.ndarray) -> float:
    """sqrt |tr(M M~)| for a Hermitian 4x4 matrix.

    Invariant under simultaneous local-unitary conjugation of M.  The
    absolute value keeps the result real for indefinite M.
    """
    return float(_tilde_norms(numerics._as_matrix(matrix)))


def _tilde_norms(m: np.ndarray) -> np.ndarray:
    """``tilde_norm`` of a 4x4 matrix or of each matrix of an (..., 4, 4) stack."""
    return np.sqrt(np.abs(np.trace(m @ states.tilde_matrix(m), axis1=-2, axis2=-1).real))


def tilde_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Distance sqrt |tr((a-b)(a~-b~))|; zero iff a = b, locally invariant."""
    return tilde_norm(a.matrix - b.matrix)
