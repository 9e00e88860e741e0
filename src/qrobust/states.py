"""Two-qubit density matrices: data model, spin-flip algebra, constructors, I/O.

The computational basis is fixed as |uu>, |ud>, |du>, |dd> (first arrow is
qubit A, second is qubit B).  In this ordering sigma_y x sigma_y is the
antidiagonal matrix (-1, 1, 1, -1) read from the top-right corner, and the
state files written here store the 4x4 matrix row-major in the same basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import numerics
from .tolerances import DEFAULT, Tolerances


class ValidationError(ValueError):
    """A matrix violates a density-matrix invariant; the message says which and by how much."""


class ParseError(ValueError):
    """A state file is structurally malformed."""


class UnknownEnsemble(ValueError):
    """Requested random-state ensemble does not exist."""


BASIS_LABELS = "uu,ud,du,dd"

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)
SIGMA_YY.setflags(write=False)

# Bell basis in the order psi_1 = (uu+dd)/sqrt2, psi_2 = (ud+du)/sqrt2,
# psi_3 = (ud-du)/sqrt2 (singlet), psi_4 = (uu-dd)/sqrt2, as columns.
BELL_STATES = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]],
    dtype=complex,
).T / np.sqrt(2.0)
BELL_STATES.setflags(write=False)

_ENSEMBLES = ("ginibre", "bures", "bell_diagonal", "coset")


def _validate_density(matrix: np.ndarray, tol: Tolerances) -> None:
    asym = np.max(np.abs(matrix - matrix.conj().T))
    if asym > tol.hermiticity:
        raise ValidationError(f"not Hermitian: max |rho - rho^dag| = {asym:.3e} exceeds {tol.hermiticity:.3e}")
    tr = matrix.trace().real
    if abs(tr - 1.0) > tol.trace:
        raise ValidationError(f"trace deviates from 1: tr(rho) - 1 = {tr - 1.0:.3e} exceeds {tol.trace:.3e}")
    min_eig = np.linalg.eigvalsh(matrix)[0]
    if min_eig < -tol.psd:
        raise ValidationError(f"not positive semidefinite: min eigenvalue {min_eig:.3e} below {-tol.psd:.3e}")


class DensityMatrix:
    """Validated, immutable 4x4 density matrix in the standard product basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: Tolerances = DEFAULT):
        try:
            m = numerics._as_matrix(matrix)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        _validate_density(m, tol)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _by_construction(cls, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix that is a state by construction (a convex mixture of
        projectors built in this package), skipping the validation."""
        state = object.__new__(cls)
        m = np.array(matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(state, "matrix", m)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, DensityMatrix) and np.array_equal(self.matrix, other.matrix)

    __hash__ = None

    def __repr__(self):
        return f"DensityMatrix(trace={np.trace(self.matrix).real:.6f})"


@dataclass(frozen=True)
class LocalUnitary:
    """A product unitary U1 x U2 with both factors in SU(2)."""

    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        for name in ("u1", "u2"):
            u = np.array(getattr(self, name), dtype=complex)
            if u.shape != (2, 2):
                raise ValidationError(f"{name} must be 2x2")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
            if dev > DEFAULT.su2:
                raise ValidationError(f"{name} not unitary: |u^dag u - I| = {dev:.3e}")
            det_dev = abs(np.linalg.det(u) - 1.0)
            if det_dev > DEFAULT.su2:
                raise ValidationError(f"{name} not special: |det - 1| = {det_dev:.3e}")
            u.setflags(write=False)
            object.__setattr__(self, name, u)

    def product(self) -> np.ndarray:
        return np.kron(self.u1, self.u2)


@dataclass(frozen=True)
class BellWeights:
    """Four Bell-mixture probabilities, descending."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (4,):
            raise ValidationError("BellWeights needs exactly four probabilities")
        if np.any(p < 0.0):
            raise ValidationError(f"negative weight: min = {p.min():.3e}")
        if abs(p.sum() - 1.0) > DEFAULT.unit_weight:
            raise ValidationError(f"weights sum to {p.sum()!r}, not 1")
        if np.any(np.diff(p) > 0.0):
            raise ValidationError("weights must be sorted in descending order")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


# ----------------------------------------------------------------------
# spin-flip (tilde) algebra and partial transposition
# ----------------------------------------------------------------------

def tilde_matrix(matrix: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) conj(M) (sigma_y x sigma_y) for a raw 4x4 matrix."""
    return SIGMA_YY @ np.conj(matrix) @ SIGMA_YY


def tilde_vector(vector: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) conj(v) for a raw 4-vector."""
    return SIGMA_YY @ np.conj(vector)


def spin_flip(rho: DensityMatrix) -> np.ndarray:
    """Spin-flipped state; Hermitian, unit trace, and PSD like the input."""
    return tilde_matrix(rho.matrix)


def partial_transpose_matrix(matrix: np.ndarray) -> np.ndarray:
    """Transpose on the second-qubit indices of a raw 4x4 matrix or an (..., 4, 4) stack."""
    return matrix.reshape(*matrix.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(matrix.shape)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Partial transpose of a state; Hermitian and trace preserving."""
    return partial_transpose_matrix(rho.matrix)


def ppt_min_eig(matrix: np.ndarray):
    """Minimum eigenvalue of the partial transpose of a raw 4x4 matrix (a
    float), or of each matrix of an (..., 4, 4) stack (an array)."""
    lowest = np.linalg.eigvalsh(partial_transpose_matrix(matrix))[..., 0]
    return float(lowest) if lowest.ndim == 0 else lowest


def is_separable_ppt(rho: DensityMatrix, tol: Tolerances = DEFAULT):
    """PPT separability test; exact for two qubits.

    Returns ``(flag, min_eig)`` where the flag is True when the partial
    transpose has no eigenvalue below ``-tol.ppt``.
    """
    min_eig = ppt_min_eig(rho.matrix)
    return bool(min_eig >= -tol.ppt), min_eig


# ----------------------------------------------------------------------
# constructors and ensembles
# ----------------------------------------------------------------------

def bell_diagonal(weights: BellWeights, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Mixture of the four Bell projectors with the given weights."""
    m = (BELL_STATES * weights.p[None, :]) @ BELL_STATES.conj().T
    return DensityMatrix(m, tol)


def werner(singlet_weight: float) -> DensityMatrix:
    """w |psi_3><psi_3| + (1 - w) I/4."""
    if not 0.0 <= singlet_weight <= 1.0:
        raise ValidationError("singlet weight must lie in [0, 1]")
    singlet = np.outer(BELL_STATES[:, 2], BELL_STATES[:, 2].conj())
    return DensityMatrix(singlet_weight * singlet + (1.0 - singlet_weight) * np.eye(4) / 4.0)


def _ginibre_matrix(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))[None, :]


def _bures_matrix(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = _haar_unitary(rng)
    m = (np.eye(4) + u) @ (g @ g.conj().T) @ (np.eye(4) + u.conj().T)
    return m / np.trace(m).real

def random_bell_weights(rng: np.random.Generator) -> BellWeights:
    return BellWeights(np.sort(rng.dirichlet(np.ones(4)))[::-1])


def sample_state(ensemble: str, seed: int, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Deterministic random state from the named ensemble.

    Ensembles: ``ginibre`` (Hilbert-Schmidt), ``bures``, ``bell_diagonal``
    (Dirichlet Bell weights), ``coset`` (random orbit parameters).  All are
    full rank almost surely.
    """
    rng = np.random.default_rng(seed)
    if ensemble == "ginibre":
        return DensityMatrix(_ginibre_matrix(rng), tol)
    if ensemble == "bures":
        return DensityMatrix(_bures_matrix(rng), tol)
    if ensemble == "bell_diagonal":
        return bell_diagonal(random_bell_weights(rng), tol)
    if ensemble == "coset":
        from . import coset

        return coset.density_from_params(coset.sample_params(rng), tol)
    raise UnknownEnsemble(f"unknown ensemble {ensemble!r}; choose from {', '.join(_ENSEMBLES)}")


def random_local_unitary(rng: np.random.Generator) -> LocalUnitary:
    """Haar-random SU(2) x SU(2) pair."""
    factors = []
    for _ in range(2):
        u = _haar_unitary(rng, 2)
        u = u / np.sqrt(np.linalg.det(u))
        factors.append(u)
    return LocalUnitary(factors[0], factors[1])


def apply_local_unitary(rho: DensityMatrix, lu: LocalUnitary) -> DensityMatrix:
    """(U1 x U2) rho (U1 x U2)^dag; the spectrum is preserved."""
    u = lu.product()
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

def write_state(rho: DensityMatrix, path) -> None:
    """Write a state as JSON; numbers round-trip exactly."""
    payload = {
        "basis": BASIS_LABELS,
        "re": [[float(x) for x in row] for row in rho.matrix.real],
        "im": [[float(x) for x in row] for row in rho.matrix.imag],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_state(path, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Read a JSON state file written by :func:`write_state`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("state file must contain a JSON object")
    for key in ("re", "im"):
        if key not in payload:
            raise ParseError(f"state file missing key {key!r}")
    basis = payload.get("basis", BASIS_LABELS)
    if basis != BASIS_LABELS:
        raise ParseError(f"unsupported basis {basis!r}; expected {BASIS_LABELS!r}")
    try:
        re = np.array(payload["re"], dtype=float)
        im = np.array(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"non-numeric matrix entries: {exc}") from exc
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ParseError(f"matrix blocks must be 4x4, got {re.shape} and {im.shape}")
    return DensityMatrix(re + 1j * im, tol)


def state_to_row(rho: DensityMatrix) -> list[float]:
    """Flatten a state to 32 CSV columns: 16 real then 16 imaginary, row-major."""
    return [float(x) for x in rho.matrix.real.ravel()] + [float(x) for x in rho.matrix.imag.ravel()]


def state_from_row(row, tol: Tolerances = DEFAULT) -> DensityMatrix:
    values = np.array([float(x) for x in row])
    if values.shape != (32,):
        raise ParseError(f"expected 32 columns, got {values.shape[0]}")
    return DensityMatrix(values[:16].reshape(4, 4) + 1j * values[16:].reshape(4, 4), tol)
