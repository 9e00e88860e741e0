"""Entanglement measures of two-qubit density matrices.

The package computes the tilde-orthogonal (spin-flip) decomposition of a
two-qubit state, its concurrence, and a closed-form robustness-of-
entanglement certificate with the explicit pair of separable states that
witnesses it, and cross-checks everything against an independent PPT
bisection oracle.  A six-angle orbit parameterization generates states with
prescribed basis norms in closed form.
"""

from .coset import CosetParams, build_X, build_Y, closed_form_x, density_from_params, k_closed_form
from .numerics import NonHermitianInput, NonSymmetricInput, NumericalFailure, hermitian_eig, takagi
from .oracle import (
    OracleResult,
    ProductMixture,
    bisect_relative_robustness,
    minimize_absolute_robustness,
)
from .robustness import (
    BadWeights,
    RankDeficient,
    RobustnessCertificate,
    plane_robustness_other,
    plane_robustness_s1,
    rho_prime_coords,
    robustness,
    separability_gap,
    sigma_vertex,
)
from .states import (
    BellWeights,
    DensityMatrix,
    LocalUnitary,
    ParseError,
    UnknownEnsemble,
    ValidationError,
    apply_local_unitary,
    bell_diagonal,
    is_separable_ppt,
    partial_transpose,
    read_state,
    sample_state,
    spin_flip,
    werner,
    write_state,
)
from .tolerances import DEFAULT, Tolerances
from .verify import verify_certificate
from .wootters import WoottersDecomposition, concurrence, decompose, tilde_distance, tilde_norm

__version__ = "0.1.0"

__all__ = [
    "BadWeights",
    "BellWeights",
    "CosetParams",
    "DEFAULT",
    "DensityMatrix",
    "LocalUnitary",
    "NonHermitianInput",
    "NonSymmetricInput",
    "NumericalFailure",
    "OracleResult",
    "ParseError",
    "ProductMixture",
    "RankDeficient",
    "RobustnessCertificate",
    "Tolerances",
    "UnknownEnsemble",
    "ValidationError",
    "WoottersDecomposition",
    "apply_local_unitary",
    "bell_diagonal",
    "bisect_relative_robustness",
    "build_X",
    "build_Y",
    "closed_form_x",
    "concurrence",
    "decompose",
    "density_from_params",
    "hermitian_eig",
    "is_separable_ppt",
    "k_closed_form",
    "minimize_absolute_robustness",
    "partial_transpose",
    "plane_robustness_other",
    "plane_robustness_s1",
    "read_state",
    "rho_prime_coords",
    "robustness",
    "sample_state",
    "separability_gap",
    "sigma_vertex",
    "spin_flip",
    "takagi",
    "tilde_distance",
    "tilde_norm",
    "verify_certificate",
    "werner",
    "write_state",
]
