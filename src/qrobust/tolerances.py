"""Central record of the check bounds.

Every check of an input, a residual or a certificate reads its bound from a
single :class:`Tolerances` instance, so the whole pipeline can be tightened
or loosened coherently.  The environment variable ``QROBUST_TOL`` (a finite
nonnegative scale factor, default 1.0) rescales every bound; setting it to
0 turns every check into an exact-equality check, which is useful as a
self-test of the verification harness.  A bound changes which verdict a
check gives, never a computed value.

The parameters of the algorithms, among them the PPT cut that defines a
located crossing and the SDP's stop width (``oracle.PPT_CUT`` and
``oracle.SDP_GAP``), are constants of the module that runs each one, and
``QROBUST_TOL`` does not move them; README's table lists them.

The library constructors that take no record validate at ``DEFAULT``:
``BellWeights`` and ``werner``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # input validation gates
    hermiticity: float = 1e-9        # max |M - M^dag| accepted as Hermitian
    symmetry: float = 1e-9           # max |S - S^T| accepted as complex symmetric
    trace: float = 1e-9              # |tr(rho) - 1|
    psd: float = 1e-10               # admissible negative part of a state spectrum
    unit_weight: float = 1e-12       # probability vectors: |sum - 1|
    su2: float = 1e-12               # local unitary factors: unitarity

    # eigensolver / Takagi kernel
    eig_residual: float = 1e-10         # |H v - mu v| <= eig_residual * (1 + |H|_max)
    eig_orthonormality: float = 1e-12
    takagi_residual: float = 1e-9       # |W S W^T - diag(d)|
    takagi_unitarity: float = 1e-10
    singular_agreement: float = 1e-10   # |d - singular values of S|

    # decomposition and derived quantities
    decompose_failure: float = 1e-7     # hard failure if the factorization residual exceeds this
    defining_relation: float = 1e-9     # |<x_i|~x_j> - lambda_i delta_ij|
    reconstruction: float = 1e-9
    moments: float = 1e-8               # |tr((rho rho~)^m) - sum lambda^2m|
    lu_invariance: float = 1e-9

    # separability and certificates
    ppt: float = 1e-11                  # PT minimum eigenvalue cutoff of the PPT checks and verdicts
    pseudomixture: float = 1e-9
    plane: float = 1e-9                 # |lambda'_1 - lambda'_2 - lambda'_3 - lambda'_4|
    bisect_formula: float = 1e-6        # |bisection - closed form| along the witness
    werner_boundary: float = 1e-8       # located singlet-weight boundary vs 1/3
    oracle_flag: float = 1e-3           # minimality-probe flag threshold

    # coset parameterization identities
    coset_orthogonality: float = 1e-10  # |Y^T Y - I| and |X^T (sy x sy) X - I|
    coset_k: float = 1e-9               # closed-form K vs direct Gram
    coset_vectors: float = 1e-10        # closed-form vectors vs matrix columns
    coset_roundtrip: float = 1e-8       # K recovered through a full decomposition

    def scaled(self, factor: float) -> "Tolerances":
        """Return a copy with every bound multiplied by ``factor``."""
        if not (math.isfinite(factor) and factor >= 0):
            raise ValueError(f"tolerance scale must be finite and nonnegative, got {factor!r}")
        values = {f.name: getattr(self, f.name) * factor for f in dataclasses.fields(self)}
        return Tolerances(**values)


DEFAULT = Tolerances()

ENV_VAR = "QROBUST_TOL"


def from_env() -> Tolerances:
    """Tolerances honoring the ``QROBUST_TOL`` scale factor, if set."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT
    try:
        factor = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be a number, got {raw!r}") from exc
    return DEFAULT.scaled(factor)
