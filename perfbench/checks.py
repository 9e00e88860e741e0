"""Checks of qrobust outputs against computations made outside the program.

Everything here uses numpy's LAPACK routines on raw 4x4 arrays; nothing calls
into qrobust.  Each check function returns a list of problem strings, empty
when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

PPT_CUT = -1e-11          # PT eigenvalue at or above this counts as PPT
CONCURRENCE_TOL = 1e-7    # sqrt in the spectrum route amplifies rounding near zero
NEGATIVITY_SLACK = 1e-12
PAIR_TOL = 1e-12
BELL_TOL = 1e-9
BISECTION_TOL = 1e-6
K_AGREEMENT_TOL = 1e-9
RANK_MARGIN = 1e-6        # lambda_4/lambda_1 below this is near the program's 1e-8 rank cut
WEAK_CONCURRENCE = 3e-3   # three times the C below which verify's certificate group fails


def partial_transpose(m: np.ndarray) -> np.ndarray:
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def pt_min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(m))[0])


def negativity(m: np.ndarray) -> float:
    """(||rho^Gamma||_1 - 1)/2 for a unit-trace Hermitian rho."""
    ev = np.linalg.eigvalsh(partial_transpose(m))
    return float(0.5 * (np.sum(np.abs(ev)) - 1.0))


def spin_flip_lambdas(m: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho rho~ (LAPACK route)."""
    flipped = SIGMA_YY @ np.conj(m) @ SIGMA_YY
    ev = np.linalg.eigvals(m @ flipped)
    return np.sort(np.sqrt(np.abs(ev.real)))[::-1]


def concurrence(m: np.ndarray) -> float:
    lam = spin_flip_lambdas(m)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def near_rank_deficient(m: np.ndarray) -> bool:
    """True when lambda_4/lambda_1 is close enough to the rank cut to flip either way."""
    lam = spin_flip_lambdas(m)
    return bool(lam[3] < RANK_MARGIN * lam[0])


def weakly_entangled(m: np.ndarray) -> bool:
    """0 < C < 3e-3: verify's certificate group wants C > 1e-6 at 0.999 s, about 1e-3 C."""
    return 0.0 < concurrence(m) < WEAK_CONCURRENCE


def state_problems(m: np.ndarray, label: str) -> list[str]:
    """A separable direction must be a state with a PSD partial transpose."""
    problems = []
    if abs(np.trace(m).real - 1.0) > 1e-9 or np.max(np.abs(m - m.conj().T)) > 1e-9:
        problems.append(f"{label} is not a unit-trace Hermitian matrix")
    if np.linalg.eigvalsh(m)[0] < -1e-10:
        problems.append(f"{label} is not positive semidefinite")
    if pt_min_eig(m) < PPT_CUT:
        problems.append(f"{label} is not PPT")
    return problems


def _mix(rho: np.ndarray, sigma: np.ndarray, s: float) -> np.ndarray:
    return (rho + s * sigma) / (1.0 + s)


def sample_row_problems(row: dict, rho: np.ndarray, sigma, ensemble: str) -> list[str]:
    """Check one numeric ``qrobust sample`` row.

    ``sigma`` is the certificate vertex along which the row's bisection ran
    (None for separable rows, which have s_formula = 0).
    """
    out = []
    conc = row["concurrence"]
    k = [row["K1"], row["K2"], row["K3"], row["K4"]]
    s_formula, s_bisection, min_pair = row["s_formula"], row["s_bisection"], row["min_pair_sum"]
    if abs(conc - concurrence(rho)) > CONCURRENCE_TOL:
        out.append(f"concurrence {conc!r} differs from the spectrum route {concurrence(rho)!r}")
    neg = negativity(rho)
    if s_formula < neg - NEGATIVITY_SLACK:
        out.append(f"s_formula {s_formula!r} below negativity {neg!r}")
    npt = pt_min_eig(rho) < 0.0
    if (s_formula > 0.0) != npt:
        out.append(f"s_formula {s_formula!r} disagrees with the PT spectrum (NPT={npt})")
    if not all(math.isfinite(v) and v > 0.0 for v in k):
        out.append(f"K values not positive: {k}")
    expected_pair = min(k[1] + k[2], k[1] + k[3], k[2] + k[3])
    if abs(min_pair - expected_pair) > PAIR_TOL * expected_pair:
        out.append(f"min_pair_sum {min_pair!r} is not the smallest pair sum {expected_pair!r}")
    expected_s = 0.5 * conc * min_pair
    if abs(s_formula - expected_s) > PAIR_TOL * max(expected_s, 1.0):
        out.append(f"s_formula {s_formula!r} != C * min_pair_sum / 2 = {expected_s!r}")
    if ensemble == "bell_diagonal" and abs(s_formula - conc) > BELL_TOL:
        out.append(f"bell-diagonal s_formula {s_formula!r} != concurrence {conc!r}")
    if ensemble == "coset" and not row["k_agreement"] <= K_AGREEMENT_TOL:
        out.append(f"k_agreement {row['k_agreement']!r} above {K_AGREEMENT_TOL}")
    if abs(s_bisection - s_formula) > BISECTION_TOL:
        out.append(f"s_bisection {s_bisection!r} far from s_formula {s_formula!r}")
    if s_formula > 0.0:
        out += state_problems(sigma, "certificate vertex")
        if pt_min_eig(_mix(rho, sigma, s_bisection)) < PPT_CUT:
            out.append("mixture at s_bisection is not PPT")
        if pt_min_eig(_mix(rho, sigma, 0.999 * s_formula)) >= 0.0:
            out.append("mixture at 0.999 s_formula is already PPT")
    elif pt_min_eig(rho) < PPT_CUT:
        out.append("s_bisection is 0 but the state is not PPT")
    return out


def oracle_problems(rho: np.ndarray, s_best: float, direction, s_formula=None,
                    pure_ab=None) -> list[str]:
    """Check one absolute-robustness result.

    negativity <= s_best (Vidal & Werner); s_best <= s_formula + 1e-6 where a
    closed form exists; s_best >= 2|ab| for a|uu> + b|dd> (Vidal & Tarrach);
    when the direction is returned, it is PPT, the mixture at s_best is PPT
    and the mixture at 0.999 s_best is not.
    """
    out = []
    neg = negativity(rho)
    if not s_best >= neg - NEGATIVITY_SLACK:
        out.append(f"s_best {s_best!r} below negativity {neg!r}")
    if s_formula is not None and not s_best <= s_formula + 1e-6:
        out.append(f"s_best {s_best!r} above s_formula {s_formula!r}")
    if pure_ab is not None and not s_best >= 2.0 * abs(pure_ab[0] * pure_ab[1]) - 1e-9:
        out.append(f"s_best {s_best!r} below the pure-state value {2.0 * abs(pure_ab[0] * pure_ab[1])!r}")
    if direction is not None:
        out += state_problems(direction, "oracle direction")
        if pt_min_eig(_mix(rho, direction, s_best)) < PPT_CUT:
            out.append("mixture at s_best is not PPT")
        if s_best > 0.0 and pt_min_eig(_mix(rho, direction, 0.999 * s_best)) >= 0.0:
            out.append("mixture at 0.999 s_best is already PPT")
    return out
