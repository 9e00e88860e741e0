"""Six-angle orbit parameterization of the tilde-orthonormal basis.

A complex orthogonal matrix Y (Y^T Y = I) generates a tilde-orthonormal basis
through X = O^T eta^{-1} Y, whose columns |x'_i> satisfy
X^T (sigma_y x sigma_y) X = I.  The section used here factors Y into three
hyperbolic block factors with angles (theta_1, theta_2), (xi_1, xi_2),
(phi_1, phi_2); together with four weights lambda_i it generates a state
orbit, and the squared norms K_i = <x'_i|x'_i> have closed forms in the six
angles.  All angles zero reproduces the Bell basis with K_i = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import BELL_STATES, DensityMatrix, ValidationError, _first_failure
from .tolerances import DEFAULT, Tolerances


class DegenerateInput(ValueError):
    """All weights are zero; no state can be formed."""


@dataclass(frozen=True)
class CosetParams:
    """Six hyperbolic angles plus four descending nonnegative weights.

    The xi angles must be nonnegative (they are the diagonal of the middle
    factor's singular-value block); the others are unrestricted.  The weights
    may be unnormalized; :func:`density_from_params` rescales them so the
    resulting state has unit trace.  Invalid values raise ``ValidationError``.
    """

    theta1: float
    theta2: float
    xi1: float
    xi2: float
    phi1: float
    phi2: float
    lam: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        if lam.shape != (4,):
            raise ValidationError("lam must hold four weights")
        failure = params_failure(np.array(self.angles, dtype=float), lam)
        if failure is not None:
            raise ValidationError(failure[1])
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def angles(self):
        return (self.theta1, self.theta2, self.xi1, self.xi2, self.phi1, self.phi2)

    def to_dict(self) -> dict:
        d = {name: float(getattr(self, name))
             for name in ("theta1", "theta2", "xi1", "xi2", "phi1", "phi2")}
        d["lambda"] = [float(v) for v in self.lam]
        return d


def params_failure(angles: np.ndarray, lam: np.ndarray):
    """The first invalid parameter set of (6,) angles and (4,) weights, or of
    (N, 6) and (N, 4) rows, as ``(index, message)``, or None.  Checks, in
    order: angles and weights finite, xi nonnegative, weights nonnegative,
    weights descending."""
    rows = angles.reshape(-1, 6)
    return _first_failure([
        (~(np.isfinite(angles).all(axis=-1) & np.isfinite(lam).all(axis=-1)),
         lambda i: f"angles and weights must be finite, got {rows[i].tolist()} and {lam.reshape(-1, 4)[i].tolist()}"),
        (angles[..., 2:4].min(axis=-1) < 0.0,
         lambda i: f"xi angles must be nonnegative, got ({rows[i, 2]}, {rows[i, 3]})"),
        (lam.min(axis=-1) < 0.0, lambda i: f"weights must be nonnegative, got {lam.reshape(-1, 4)[i].tolist()}"),
        ((lam[..., 1:] > lam[..., :-1]).any(axis=-1), lambda i: "weights must be sorted in descending order"),
    ])


# O^T eta^{-1}, with O = BELL_STATES.T (the Bell basis as rows, entries 0 and
# +-1/sqrt(2)) and eta = diag(i, 1, i, 1): eta is diagonal and unitary, so
# its inverse is its conjugate
_X_FROM_Y = BELL_STATES * np.conj([1j, 1.0, 1j, 1.0])
_X_FROM_Y.setflags(write=False)

# Y's three factors as (factor, row a, row b, angle column) of their 2x2
# hyperbolic blocks: cosh on (a, a) and (b, b), i sinh on (a, b) and -i sinh
# on (b, a); every other entry is zero
_Y_BLOCKS = ((0, 0, 1, 0), (0, 2, 3, 1),    # Y(theta)
             (1, 0, 2, 2), (1, 1, 3, 3),    # Y(xi)
             (2, 0, 1, 4), (2, 2, 3, 5))    # Y(phi)
# flat positions in a (3, 4, 4) array of the factors, and the column each
# takes from [cosh(angles), i sinh(angles), -i sinh(angles)]
_Y_AT = np.array([16 * f + 4 * r + c for f, a, b, _ in _Y_BLOCKS for r, c in ((a, a), (b, b), (a, b), (b, a))])
_Y_FROM = np.array([col + 6 * j for *_, col in _Y_BLOCKS for j in (0, 0, 1, 2)])


def _y_stack(angles: np.ndarray) -> np.ndarray:
    """Y(theta) Y(xi) Y(phi) of (6,) angles (theta1, theta2, xi1, xi2, phi1,
    phi2) or of (N, 6) rows: (4, 4) or (N, 4, 4)."""
    batch = angles.shape[:-1]
    s = np.sinh(angles)
    values = np.concatenate((np.cosh(angles), 1j * s, -1j * s), axis=-1)
    factors = np.zeros(batch + (48,), dtype=complex)
    factors[..., _Y_AT] = values[..., _Y_FROM]
    factors = factors.reshape(batch + (3, 4, 4))
    return factors[..., 0, :, :] @ factors[..., 1, :, :] @ factors[..., 2, :, :]


def _x_stack(angles: np.ndarray) -> np.ndarray:
    return _X_FROM_Y @ _y_stack(angles)


def build_Y(params: CosetParams) -> np.ndarray:
    """The complex orthogonal matrix Y(theta) Y(xi) Y(phi); Y^T Y = I."""
    return _y_stack(np.array(params.angles))


def build_X(params: CosetParams) -> np.ndarray:
    """Basis matrix X = O^T eta^{-1} Y; its columns are the |x'_i>.

    Satisfies X^T (sigma_y x sigma_y) X = I for any parameter values.
    """
    return _x_stack(np.array(params.angles))


def _closed_form_x_stack(angles: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The four subnormalized vectors |x_i> = sqrt(lambda_i) |x'_i> in closed
    form, as the columns of a (4, 4) matrix for (6,) angles and (4,) weights,
    or of (N, 4, 4) for (N, 6) and (N, 4) rows.

    Transcribed literally, including the fixed phases; column i agrees with
    ``sqrt(lambda_i) * _x_stack(angles)[..., i]`` entry by entry.
    """
    t1, t2, xi1, xi2, p1, p2 = np.moveaxis(angles, -1, 0)
    c1, s1 = np.cosh(xi1), np.sinh(xi1)
    c2, s2 = np.cosh(xi2), np.sinh(xi2)
    ct1, st1 = np.cosh(t1), np.sinh(t1)
    ct2, st2 = np.cosh(t2), np.sinh(t2)
    cp1, sp1 = np.cosh(p1), np.sinh(p1)
    cp2, sp2 = np.cosh(p2), np.sinh(p2)
    x1 = np.array([
        -(s1*st2*cp1 + s2*ct2*sp1) - 1j*(c1*ct1*cp1 + c2*st1*sp1),
        -(s1*ct2*cp1 + s2*st2*sp1) - 1j*(c1*st1*cp1 + c2*ct1*sp1),
        +(s1*ct2*cp1 + s2*st2*sp1) - 1j*(c1*st1*cp1 + c2*ct1*sp1),
        +(s1*st2*cp1 + s2*ct2*sp1) - 1j*(c1*ct1*cp1 + c2*st1*sp1),
    ])
    x2 = np.array([
        (c1*ct1*sp1 + c2*st1*cp1) - 1j*(s1*st2*sp1 + s2*ct2*cp1),
        (c1*st1*sp1 + c2*ct1*cp1) - 1j*(s1*ct2*sp1 + s2*st2*cp1),
        (c1*st1*sp1 + c2*ct1*cp1) + 1j*(s1*ct2*sp1 + s2*st2*cp1),
        (c1*ct1*sp1 + c2*st1*cp1) + 1j*(s1*st2*sp1 + s2*ct2*cp1),
    ])
    x3 = np.array([
        (s1*ct1*cp2 + s2*st1*sp2) - 1j*(c1*st2*cp2 + c2*ct2*sp2),
        (s1*st1*cp2 + s2*ct1*sp2) - 1j*(c1*ct2*cp2 + c2*st2*sp2),
        (s1*st1*cp2 + s2*ct1*sp2) + 1j*(c1*ct2*cp2 + c2*st2*sp2),
        (s1*ct1*cp2 + s2*st1*sp2) + 1j*(c1*st2*cp2 + c2*ct2*sp2),
    ])
    x4 = np.array([
        (c1*st2*sp2 + c2*ct2*cp2) + 1j*(s1*ct1*sp2 + s2*st1*cp2),
        (c1*ct2*sp2 + c2*st2*cp2) + 1j*(s1*st1*sp2 + s2*ct1*cp2),
        -(c1*ct2*sp2 + c2*st2*cp2) + 1j*(s1*st1*sp2 + s2*ct1*cp2),
        -(c1*st2*sp2 + c2*ct2*cp2) + 1j*(s1*ct1*sp2 + s2*st1*cp2),
    ])
    # (component, ..., vector) -> (..., component, vector)
    return np.moveaxis(np.stack([x1, x2, x3, x4], axis=-1), 0, -2) * np.sqrt(lam / 2.0)[..., None, :]


def _k_stack(angles: np.ndarray) -> np.ndarray:
    """Closed-form K_i of (6,) angles or of (N, 6) rows: (4,) or (N, 4); all
    angles zero gives 1.

    Squares are products, not powers: a single parameter set then gets the
    bits its row of a stack gets (numpy's scalar power rounds differently).
    """
    c, s = np.cosh(angles), np.sinh(angles)
    _, _, ch_xi1, ch_xi2, _, _ = c.T
    _, _, sh_xi1, sh_xi2, _, _ = s.T
    _, _, ch_xi1_sq, ch_xi2_sq, ch_p1_sq, ch_p2_sq = (c * c).T
    _, _, sh_xi1_sq, sh_xi2_sq, sh_p1_sq, sh_p2_sq = (s * s).T
    ch_2t1, ch_2t2 = np.cosh(2 * angles[..., :2]).T
    sh_2t1, sh_2t2, _, _, sh_2p1, sh_2p2 = np.sinh(2 * angles).T
    cross1 = sh_xi1 * sh_xi2 * sh_2t2 + ch_xi1 * ch_xi2 * sh_2t1
    cross2 = sh_xi1 * sh_xi2 * sh_2t1 + ch_xi1 * ch_xi2 * sh_2t2
    k1 = (ch_2t2 * (sh_xi1_sq * ch_p1_sq + sh_xi2_sq * sh_p1_sq)
          + ch_2t1 * (ch_xi1_sq * ch_p1_sq + ch_xi2_sq * sh_p1_sq)
          + sh_2p1 * cross1)
    k2 = (ch_2t2 * (sh_xi1_sq * sh_p1_sq + sh_xi2_sq * ch_p1_sq)
          + ch_2t1 * (ch_xi1_sq * sh_p1_sq + ch_xi2_sq * ch_p1_sq)
          + sh_2p1 * cross1)
    k3 = (ch_2t1 * (sh_xi1_sq * ch_p2_sq + sh_xi2_sq * sh_p2_sq)
          + ch_2t2 * (ch_xi1_sq * ch_p2_sq + ch_xi2_sq * sh_p2_sq)
          + sh_2p2 * cross2)
    k4 = (ch_2t1 * (sh_xi1_sq * sh_p2_sq + sh_xi2_sq * ch_p2_sq)
          + ch_2t2 * (ch_xi1_sq * sh_p2_sq + ch_xi2_sq * ch_p2_sq)
          + sh_2p2 * cross2)
    return np.array([k1, k2, k3, k4]).T


def density_stack(angles: np.ndarray, lam: np.ndarray):
    """States sum_i lambda_i |x'_i><x'_i| of (6,) angles and (4,) weights, or
    of (N, 6) and (N, 4) rows, with the weights rescaled to unit trace; with
    the closed-form K and the basis matrices X they are built from:
    ``(rho, k, x)``.

    Raises
    ------
    DegenerateInput
        If every weight of a row is zero.
    """
    k = _k_stack(angles)
    total = np.sum(lam * k, axis=-1)
    if np.any(total <= 0.0):
        raise DegenerateInput("all weights are zero")
    x = _x_stack(angles)
    lam = lam / total[..., None]
    return (x * lam[..., None, :]) @ x.conj().swapaxes(-1, -2), k, x


def density_from_params(params: CosetParams, tol: Tolerances = DEFAULT) -> DensityMatrix:
    """State sum_i lambda_i |x'_i><x'_i| with the weights rescaled to unit
    trace: :func:`density_stack` of one parameter set, validated.

    Angles large enough to overflow cosh or sinh give entries that are not
    finite, which the validation rejects.

    Raises
    ------
    DegenerateInput
        If every weight is zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rho, _, _ = density_stack(np.array(params.angles), params.lam)
    return DensityMatrix(rho, tol)


def _draw_rows(rng: np.random.Generator, count: int, angle_scale: float, min_gap: float):
    """``count`` parameter draws from one generator: angles (count, 6) and
    descending weights (count, 4).  Weight rows whose smallest relative gap
    is below ``min_gap`` are drawn again, which keeps the recovered basis
    well conditioned.  Angles are uniform in the box [-angle_scale,
    angle_scale], the xi angles in [0, angle_scale], and the weights are
    Dirichlet."""
    turns = rng.uniform(-angle_scale, angle_scale, (count, 4))        # theta1, theta2, phi1, phi2
    xi = rng.uniform(0.0, angle_scale, (count, 2))
    lam = np.sort(rng.dirichlet(np.ones(4), count))[:, ::-1]
    while min_gap > 0.0:
        redraw = np.abs(np.diff(lam)).min(axis=-1) / lam[:, 0] < min_gap
        if not redraw.any():
            break
        lam[redraw] = np.sort(rng.dirichlet(np.ones(4), redraw.sum()))[:, ::-1]
    return np.concatenate((turns[:, :2], xi, turns[:, 2:]), axis=1), lam


def draw_params(rngs, shape: tuple):
    """Unvalidated orbit parameters, one :func:`_draw_rows` row per generator
    at angle scale 1 and no gap bound: angles of shape + (6,), weights of
    shape + (4,)."""
    draws = [_draw_rows(rng, 1, 1.0, 0.0) for rng in rngs]
    return (np.array([a[0] for a, _ in draws]).reshape(shape + (6,)),
            np.array([lam[0] for _, lam in draws]).reshape(shape + (4,)))

