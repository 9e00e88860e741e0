"""Entanglement measures of two-qubit density matrices.

The package computes the tilde-orthogonal (spin-flip) decomposition of a
two-qubit state, its concurrence, and a closed-form robustness-of-
entanglement certificate with the explicit pair of separable states that
witnesses it, and cross-checks everything against an independent PPT
bisection oracle.  A six-angle orbit parameterization generates states with
prescribed basis norms in closed form.
"""

from .coset import CosetParams, build_X, build_Y, density_from_params
from .numerics import NonHermitianInput, NonSymmetricInput, NumericalFailure
from .oracle import OracleResult, bisect_relative_robustness, minimize_absolute_robustness
from .robustness import RankDeficient, RobustnessCertificate, robustness
from .states import (
    BellWeights,
    DensityMatrix,
    ParseError,
    UnknownEnsemble,
    ValidationError,
    bell_diagonal,
    is_separable_ppt,
    read_state,
    sample_state,
    werner,
    write_state,
)
from .tolerances import DEFAULT, Tolerances
from .verify import verify_certificate
from .wootters import WoottersDecomposition, decompose

__version__ = "0.1.0"

__all__ = [
    "BellWeights",
    "CosetParams",
    "DEFAULT",
    "DensityMatrix",
    "NonHermitianInput",
    "NonSymmetricInput",
    "NumericalFailure",
    "OracleResult",
    "ParseError",
    "RankDeficient",
    "RobustnessCertificate",
    "Tolerances",
    "UnknownEnsemble",
    "ValidationError",
    "WoottersDecomposition",
    "bell_diagonal",
    "bisect_relative_robustness",
    "build_X",
    "build_Y",
    "decompose",
    "density_from_params",
    "is_separable_ppt",
    "minimize_absolute_robustness",
    "read_state",
    "robustness",
    "sample_state",
    "verify_certificate",
    "werner",
    "write_state",
]
