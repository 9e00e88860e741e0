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

# Algorithm parameters, relative to lambda_1 (and to K_max for tied K_i):
# lambdas at or below RANK_CUT fall outside the rank, and lambdas, K_i or
# pair sums (``robustness``) within TIE of each other are tied.
RANK_CUT = 1e-8
TIE = 1e-12


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
    rank : number of lambdas above ``RANK_CUT * lambda_1``.
    """

    lambdas: np.ndarray
    x: np.ndarray
    k_norm: np.ndarray
    p_coord: np.ndarray
    concurrence: float
    rank: int

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


def _x_prime(x: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """The columns |x'_i> = |x_i>/sqrt(lambda_i) of a stack of full-rank bases."""
    return x / np.sqrt(lambdas)[..., None, :]


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


def _tie_patterns(tied: np.ndarray):
    """Group the rows of (N, n - 1) flags of tied neighbours by pattern: yields the
    rows of each pattern with a tie and the slice of each run of tied neighbours."""
    n = tied.shape[1]
    codes = tied @ (1 << np.arange(n))
    for code in sorted(set(codes.tolist()) - {0}):          # np.unique would import numpy.ma
        cuts = [0, *(j + 1 for j in range(n) if not code >> j & 1), n + 1]
        yield np.flatnonzero(codes == code), [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1]


def _fix_free_rotations(x: np.ndarray, tied: np.ndarray) -> None:
    """Fix in place, over an (N, 4, 4) stack, the rotation the defining relation
    leaves free in each cluster of lambdas that ``tied`` flags (steps 1 and 2 below).

    Each |x_i> is unique only up to sign, and inside a cluster of lambdas
    tied within ``TIE * lambda_1`` only up to a real orthogonal rotation;
    both keep the defining relation and rho = X X^dag.  The rule:

    1. rotate each cluster onto the eigenvectors of Re(X_c^dag X_c), so its
       K_i are that matrix's eigenvalues, descending;
    2. inside each group of K_i tied within ``TIE * K_max``, rotate so
       that the real magic-basis coefficients are lower triangular on the
       Bell indices that carry the most weight, taken in Bell order;
    3. give every column the sign that makes its largest real magic-basis
       coefficient positive (ties go to the lower Bell index).

    A Bell-diagonal state thus gets columns proportional to the magic
    vectors in Bell order, whatever basis the eigensolver returned.  Step 1 is
    one eigensolver call per cluster of the entries sharing a pattern of lambda
    ties, step 2 one QR call per group of those also sharing a pattern of K ties.
    """
    for idx, clusters in _tie_patterns(tied):
        for cluster in clusters:
            xc = x[idx, :, cluster]
            k, rot = numerics._eigh_descending((xc.conj().swapaxes(-1, -2) @ xc).real)
            xc = xc @ rot
            for sub, groups in _tie_patterns(k[:, :-1] - k[:, 1:] <= TIE * k[:, :1]):
                for group in groups:
                    xg = xc[sub, :, group]
                    coeffs = (_MAGIC_ADJOINT @ xg).real        # full column rank
                    order = np.argsort(-np.sum(coeffs ** 2, axis=-1), axis=-1, kind="stable")
                    top = np.take_along_axis(coeffs, np.sort(order[:, :xg.shape[-1]])[:, :, None], axis=1)
                    xc[sub, :, group] = xg @ np.linalg.qr(top.swapaxes(-1, -2))[0]   # top @ q = r.T
            x[idx, :, cluster] = xc


def decompose_stack(matrices: np.ndarray, tol: Tolerances = DEFAULT) -> DecompositionStack:
    """``decompose`` over an (N, 4, 4) stack of validated state matrices.

    Each entry gets the bits its own N = 1 call gets; the tie rule runs once
    per pattern of ties, and not at all without one.  An entry whose residual
    check fails is recorded in ``errors`` and does not stop the others.
    """
    mu, vecs, eig_errors = numerics.hermitian_eig_stack(matrices, tol)
    sub = vecs * np.sqrt(mu.clip(0.0, None))[:, None, :]
    tau = (sub.swapaxes(-1, -2) @ states.SIGMA_YY @ sub).conj()  # tau_ij = <v_i|~v_j>, complex symmetric
    u, lambdas, takagi_errors = numerics.takagi_stack(tau, tol)
    residual = np.abs(u @ tau @ u.swapaxes(-1, -2) - lambdas[:, :, None] * _EYE).max(axis=(-2, -1))
    residual_errors = numerics._entry_errors(residual, tol.decompose_failure, lambda r: NumericalFailure(
        f"factorization residual {r:.3e} exceeds {tol.decompose_failure:.3e}"))

    x = sub @ u.conj().swapaxes(-1, -2)
    eps_rank = RANK_CUT * np.maximum(lambdas[:, 0], 1e-30)
    rank = (lambdas > eps_rank[:, None]).sum(axis=1)
    inside = _COLUMNS < rank[:, None]
    x = np.where(inside[:, None, :], x, 0.0)
    tied = (lambdas[:, :-1] - lambdas[:, 1:] <= TIE * lambdas[:, :1]) & inside[:, 1:]
    if tied.any():
        _fix_free_rotations(x, tied)
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


def _tilde_norms(m: np.ndarray) -> np.ndarray:
    """sqrt |tr(M M~)| of a Hermitian 4x4 matrix M or of each matrix of an
    (..., 4, 4) stack.

    Invariant under simultaneous local-unitary conjugation of M.  The
    absolute value keeps the result real for indefinite M.  Of a difference
    M = a - b of two states it is a distance: zero iff a = b, locally invariant.
    """
    return np.sqrt(np.abs(np.trace(m @ states.tilde_matrix(m), axis1=-2, axis2=-1).real))
