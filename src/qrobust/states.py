"""Two-qubit density matrices: data model, spin-flip algebra, constructors, I/O.

The computational basis is fixed as |uu>, |ud>, |du>, |dd> (first arrow is
qubit A, second is qubit B).  In this ordering sigma_y x sigma_y is the
antidiagonal matrix (-1, 1, 1, -1) read from the top-right corner, and the
state files written here store the 4x4 matrix row-major in the same basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

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


def _first_failure(checks):
    """The first entry, in flat order, that fails any of ``checks``, as
    ``(index, message)``, or None.  Each check pairs a boolean mask over the
    entries (an array, or one flag for a single entry) with a function that
    words its failure at a flat index; an entry that fails several checks
    gets the message of the first."""
    bad = checks[0][0]
    for mask, _ in checks[1:]:
        bad = bad | mask
    if not np.count_nonzero(bad):
        return None
    i = int(np.flatnonzero(bad)[0])
    return next((i, message(i)) for mask, message in checks if mask.flat[i])


def _density_failure(m: np.ndarray, tol: Tolerances):
    """``_first_failure`` of a 4x4 matrix or an (N, 4, 4) stack under the
    density-matrix checks: Hermiticity, unit trace, then the smallest
    eigenvalue."""
    asym = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = m.trace(axis1=-2, axis2=-1).real
    min_eig = np.linalg.eigvalsh(m).T[0]
    return _first_failure([
        (asym > tol.hermiticity,
         lambda i: f"not Hermitian: max |rho - rho^dag| = {asym.flat[i]:.3e} exceeds {tol.hermiticity:.3e}"),
        (abs(tr - 1.0) > tol.trace,
         lambda i: f"trace deviates from 1: tr(rho) - 1 = {tr.flat[i] - 1.0:.3e} exceeds {tol.trace:.3e}"),
        (min_eig < -tol.psd,
         lambda i: f"not positive semidefinite: min eigenvalue {min_eig.flat[i]:.3e} below {-tol.psd:.3e}"),
    ])


def _weight_failure(p: np.ndarray, tol: Tolerances):
    """``_first_failure`` of four probabilities or an (N, 4) array of them:
    nonnegative, summing to 1, then descending."""
    total = p.sum(axis=-1)
    rows = p.reshape(-1, 4)
    return _first_failure([
        (p.min(axis=-1) < 0.0, lambda i: f"negative weight: min = {rows[i].min():.3e}"),
        (abs(total - 1.0) > tol.unit_weight,
         lambda i: f"weights do not sum to 1: sum - 1 = {total.flat[i] - 1.0:.3e} exceeds {tol.unit_weight:.3e}"),
        ((p[..., 1:] > p[..., :-1]).any(axis=-1), lambda i: "weights must be sorted in descending order"),
    ])


class DensityMatrix:
    """Validated, immutable 4x4 density matrix in the standard product basis."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol: Tolerances = DEFAULT):
        try:
            m = numerics._as_matrix(matrix)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        failure = _density_failure(m, tol)
        if failure is not None:
            raise ValidationError(failure[1])
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
        failure = _weight_failure(p, DEFAULT)
        if failure is not None:
            raise ValidationError(failure[1])
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


# ----------------------------------------------------------------------
# spin-flip (tilde) algebra and partial transposition
# ----------------------------------------------------------------------

def tilde_matrix(matrix: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) conj(M) (sigma_y x sigma_y) for a raw 4x4 matrix."""
    return SIGMA_YY @ np.conj(matrix) @ SIGMA_YY


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

_BELL_DAGGER = BELL_STATES.conj().T


def _bell_mixture(p: np.ndarray) -> np.ndarray:
    """Mixtures of the four Bell projectors with weights p (..., 4): (..., 4, 4)."""
    return (BELL_STATES * p[..., None, :]) @ _BELL_DAGGER


def bell_diagonal(weights: BellWeights, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Mixture of the four Bell projectors with the given weights."""
    return DensityMatrix(_bell_mixture(weights.p), tol)


def werner(singlet_weight: float) -> DensityMatrix:
    """w |psi_3><psi_3| + (1 - w) I/4."""
    if not 0.0 <= singlet_weight <= 1.0:
        raise ValidationError("singlet weight must lie in [0, 1]")
    singlet = np.outer(BELL_STATES[:, 2], BELL_STATES[:, 2].conj())
    return DensityMatrix(singlet_weight * singlet + (1.0 - singlet_weight) * np.eye(4) / 4.0)


def _complex_normals(rngs, shape: tuple, count: int) -> np.ndarray:
    """``count`` complex Gaussian 4x4 matrices from each generator, each drawn
    as its real block then its imaginary block: shape + (count, 4, 4)."""
    z = np.empty(shape + (count, 2, 4, 4))
    for rng, out in zip(rngs, z.reshape(-1, count * 32)):
        rng.standard_normal(out=out)
    g = np.empty(shape + (count, 4, 4), dtype=complex)
    g.real, g.imag = z[..., 0, :, :], z[..., 1, :, :]
    return g


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from complex Gaussian matrices (..., n, n): the Q
    factor with the phases of R's diagonal moved into it."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def _unit_trace(m: np.ndarray) -> np.ndarray:
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def _ginibre_stack(rngs, shape: tuple) -> np.ndarray:
    g = _complex_normals(rngs, shape, 1)[..., 0, :, :]
    return _unit_trace(g @ g.conj().swapaxes(-1, -2))


def _bures_stack(rngs, shape: tuple) -> np.ndarray:
    normals = _complex_normals(rngs, shape, 2)
    g, u = normals[..., 0, :, :], _haar(normals[..., 1, :, :])
    eye = np.eye(4)
    return _unit_trace((eye + u) @ (g @ g.conj().swapaxes(-1, -2)) @ (eye + u.conj().swapaxes(-1, -2)))


def _draw(ensemble: str, seeds: np.ndarray, tol: Tolerances):
    """States from a single seed (a 0-d array) or a 1-d array of seeds, each
    drawn from its own generator, then built and checked together.

    Returns ``(matrices, failure, coset)``: the (4, 4) or (N, 4, 4)
    matrices; the ``_first_failure`` of the checks of the draw (the weights
    of the Bell-diagonal and coset draws) and the density-matrix checks, or
    None; and for the coset ensemble the closed-form K and the basis X of
    each state (None otherwise).
    """
    if ensemble not in _ENSEMBLES:
        raise UnknownEnsemble(f"unknown ensemble {ensemble!r}; choose from {', '.join(_ENSEMBLES)}")
    shape = seeds.shape
    rngs = [np.random.default_rng(seed) for seed in seeds.reshape(-1).tolist()]
    failure = built = None
    if ensemble == "ginibre":
        matrices = _ginibre_stack(rngs, shape)
    elif ensemble == "bures":
        matrices = _bures_stack(rngs, shape)
    elif ensemble == "bell_diagonal":
        p = np.array([rng.dirichlet(np.ones(4)) for rng in rngs]).reshape(shape + (4,))
        p = np.sort(p, axis=-1)[..., ::-1]
        failure = _weight_failure(p, tol)
        matrices = _bell_mixture(p)
    else:
        from . import coset

        angles, lam = coset.draw_params(rngs, shape)
        failure = coset.params_failure(angles, lam)
        matrices, k, x = coset.density_stack(angles, lam)
        built = k, x
    invalid = _density_failure(matrices, tol)
    if invalid is not None and (failure is None or invalid[0] < failure[0]):
        failure = invalid
    return matrices, failure, built


class SampleStack(NamedTuple):
    """States drawn by :func:`sample_stack`.

    ``matrices`` holds the entries before the first one that fails a check of
    its construction, and ``error`` that entry's ``ValidationError`` (None
    when every entry passes).  For the coset ensemble ``k_agreement`` holds,
    per entry, max |closed-form K - direct Gram K|; it is None otherwise.
    """

    matrices: np.ndarray
    error: ValidationError | None
    k_agreement: np.ndarray | None


def sample_stack(ensemble: str, seeds, tol: Tolerances = DEFAULT) -> SampleStack:
    """One state per seed from the named ensemble, as an (N, 4, 4) stack.

    Entry i is drawn from its own generator, ``default_rng(seeds[i])``, so it
    depends on its seed alone; everything after the draws runs on the whole
    stack, and entry i gets the bits ``sample_state(ensemble, seeds[i])``
    gets.  The sum check of the drawn Bell weights and the density-matrix
    checks read ``tol``.

    Ensembles: ``ginibre`` (Hilbert-Schmidt), ``bures``, ``bell_diagonal``
    (Dirichlet Bell weights), ``coset`` (random orbit parameters).  All are
    full rank almost surely.
    """
    # object arrays keep the seeds Python ints of any size, as default_rng takes them
    matrices, failure, built = _draw(ensemble, np.asarray(seeds, dtype=object).reshape(-1), tol)
    k_agreement = None
    if built is not None:
        k, x = built
        k_agreement = np.abs(k - np.sum(np.abs(x) ** 2, axis=-2)).max(axis=-1)
    if failure is None:
        return SampleStack(matrices, None, k_agreement)
    return SampleStack(matrices[:failure[0]], ValidationError(failure[1]), k_agreement)


def sample_state(ensemble: str, seed: int, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """Deterministic random state from the named ensemble: the single-seed
    call of the draw behind :func:`sample_stack`, with the same bits."""
    matrix, failure, _ = _draw(ensemble, np.asarray(seed, dtype=object), tol)
    if failure is not None:
        raise ValidationError(failure[1])
    return DensityMatrix._by_construction(matrix)


def _su2_pairs(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar-random SU(2) x SU(2) pairs, (count, 2, 2, 2); each pair
    consumes the generator as one :func:`random_local_unitary` call does."""
    z = rng.standard_normal((count, 2, 2, 2, 2))       # pair, factor, real/imaginary block
    u = _haar(z[:, :, 0] + 1j * z[:, :, 1])
    return u / np.sqrt(np.linalg.det(u))[..., None, None]


def random_local_unitary(rng: np.random.Generator) -> LocalUnitary:
    """Haar-random SU(2) x SU(2) pair."""
    return LocalUnitary(*_su2_pairs(rng, 1)[0])


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
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:   # RecursionError: nested too deeply
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
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: an integer beyond float range
        raise ParseError(f"non-numeric matrix entries: {exc}") from exc
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ParseError(f"matrix blocks must be 4x4, got {re.shape} and {im.shape}")
    with np.errstate(invalid="ignore"):   # 1j * inf is nan + inf j; DensityMatrix rejects it
        matrix = re + 1j * im
    return DensityMatrix(matrix, tol)


def state_to_row(rho: DensityMatrix) -> list[float]:
    """Flatten a state to 32 CSV columns: 16 real then 16 imaginary, row-major."""
    return [float(x) for x in rho.matrix.real.ravel()] + [float(x) for x in rho.matrix.imag.ravel()]


def state_from_row(row, tol: Tolerances = DEFAULT) -> DensityMatrix:
    values = np.array([float(x) for x in row])
    if values.shape != (32,):
        raise ParseError(f"expected 32 columns, got {values.shape[0]}")
    return DensityMatrix(values[:16].reshape(4, 4) + 1j * values[16:].reshape(4, 4), tol)
