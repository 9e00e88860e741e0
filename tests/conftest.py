"""Shared helpers for the test suite."""

import numpy as np

from qrobust import states, verify
from qrobust.oracle import _BRACKET_CAP, CROSSING_WIDTH, PPT_CUT
from qrobust.states import SIGMA_YY, DensityMatrix, ppt_min_eig, werner


def ginibre_states(n):
    """The registry's Ginibre corpus of size n (seeds 0, ..., n - 1) as states."""
    return [DensityMatrix(m) for m in verify.Corpus(n).ginibre]


def werner_boundary():
    """The singlet weight where Werner states stop passing the oracle's PPT
    test at ``-PPT_CUT``, by one-point-at-a-time bisection of [0, 1] to width
    1e-12: the reference for every located Werner boundary."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if ppt_min_eig(werner(mid).matrix) >= -PPT_CUT:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_from_cap(rho, sigma):
    """The crossing of the oracle's fallback for one raw state and direction,
    by one-point-at-a-time halving of [0, 2^16] until the bracket is
    CROSSING_WIDTH*(1 + hi) wide: its PPT end hi, or NaN when the mixture at
    the cap fails the PPT test.  The reference every fallback crossing must
    equal bit for bit."""
    def ppt(s):
        return ppt_min_eig((rho + s * sigma) / (1.0 + s)) >= -PPT_CUT

    if not ppt(_BRACKET_CAP):
        return float("nan")
    lo, hi = 0.0, _BRACKET_CAP
    while hi - lo > CROSSING_WIDTH * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ppt(mid) else (mid, hi)
    return hi


def rank_two_state(p):
    """p|Phi+><Phi+| + (1 - p)|01><01|, whose absolute robustness is
    p^2/(4(1 - p)) for 0 < p <= 2/3: the product noise |10><10| reaches it,
    and the witness a|01> - |10>, a = p/(2(1 - p)), proves it least."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return DensityMatrix(p * np.outer(phi, phi) + (1.0 - p) * np.diag([0.0, 1.0, 0.0, 0.0]))


def inject_state(monkeypatch, seed, rho):
    """Make ``states.sample_stack`` draw ``rho`` at ``seed``, whatever the
    ensemble: every ensemble is full rank almost surely, so a test that needs
    a rank-deficient row puts one in."""
    real = states.sample_stack

    def sample_stack(ensemble, seeds, *tol):
        drawn = real(ensemble, seeds, *tol)
        matrices = drawn.matrices.copy()
        matrices[[i for i, s in enumerate(seeds[:len(matrices)]) if s == seed]] = rho.matrix
        return drawn._replace(matrices=matrices)

    monkeypatch.setattr(states, "sample_stack", sample_stack)


def rotate_locally(rho, rng):
    """(U1 x U2) rho (U1 x U2)^dag for one Haar-random SU(2) pair drawn from ``rng``."""
    u = np.kron(*states._su2_pairs(rng, 1)[0])
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


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
