"""Shared helpers for the test suite."""

import numpy as np

from qrobust import verify
from qrobust.states import SIGMA_YY, DensityMatrix


def ginibre_states(n):
    """The registry's Ginibre corpus of size n (seeds 0, ..., n - 1) as states."""
    return [DensityMatrix(m) for m in verify.Corpus(n).ginibre]


def random_hermitian(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return g + g.conj().T


def random_symmetric(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return g + g.T


def concurrence_by_spectrum(matrix):
    """Independent concurrence route: eigenvalues of rho rho~ via LAPACK."""
    flipped = SIGMA_YY @ np.conj(matrix) @ SIGMA_YY
    ev = np.linalg.eigvals(matrix @ flipped)
    lam = np.sort(np.sqrt(np.abs(ev.real)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
