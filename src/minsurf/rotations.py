"""Rotation algebra in the Rodrigues vector representation.

A rotation by angle ``alpha`` about a unit axis ``e`` is encoded by the
vector ``a = tan(alpha/2) * e``.  The identity maps to the origin and
pi-turns sit at infinity (threshold ``EPS_PI`` on ``1 + tr R``), so the
scalar API rejects them and the batched kernels mask them.

Each formula has one implementation, a batched kernel over leading axes;
the scalar functions validate their inputs and call it.  Everything here
is a pure function of its inputs; the small wrapper types are frozen and
their arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PiTurnError

# Pi-turn guard on 1 + tr R; vectors blow up like 1/(1 + tr R).
EPS_PI = 1e-9

# Orthonormality defects: below ORTHO_TOL the matrix is accepted as-is,
# up to ORTHO_REPAIR it is re-projected onto SO(3), above it is rejected.
ORTHO_TOL = 1e-12
ORTHO_REPAIR = 1e-8

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)


def _as_readonly(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def skew(v):
    """Skew tensors W(v) with W(v) x = v cross x; ``v`` has shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    w = np.zeros(v.shape[:-1] + (3, 3))
    w[..., 0, 1] = -v[..., 2]
    w[..., 0, 2] = v[..., 1]
    w[..., 1, 0] = v[..., 2]
    w[..., 1, 2] = -v[..., 0]
    w[..., 2, 0] = -v[..., 1]
    w[..., 2, 1] = v[..., 0]
    return w


@dataclass(frozen=True)
class RodriguesVector:
    """Rotation encoded as a = tan(alpha/2) e."""

    a: np.ndarray

    def __post_init__(self):
        a = _as_readonly(self.a)
        if a.shape != (3,):
            raise InvalidInputError(f"Rodrigues vector must be a 3-vector, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise PiTurnError("non-finite Rodrigues vector (pi-turns are unrepresentable)")
        object.__setattr__(self, "a", a)

    @property
    def norm2(self):
        return float(self.a @ self.a)


@dataclass(frozen=True)
class RotationMatrix:
    """Element of SO(3).

    Construction accepts a Frobenius orthonormality defect up to 1e-12,
    repairs defects up to 1e-8 by polar projection, and rejects anything
    worse rather than mask a bug upstream.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise InvalidInputError(f"rotation matrix must be 3x3, got shape {m.shape}")
        defect = np.linalg.norm(m.T @ m - _EYE3)
        if defect > ORTHO_REPAIR:
            raise InvalidInputError(f"matrix is not orthogonal (defect {defect:.3e})")
        if defect > ORTHO_TOL:
            u, _, vt = np.linalg.svd(m)
            m = u @ vt
        if np.linalg.det(m) < 0.0:
            raise InvalidInputError("matrix has negative determinant (improper rotation)")
        object.__setattr__(self, "m", _as_readonly(m))

    @property
    def trace(self):
        return float(np.trace(self.m))


@dataclass(frozen=True)
class AxisSplit:
    """Unique factorization R(a) = R(a2) R(a1) with a1 along e, a2 orthogonal to e."""

    a1: RodriguesVector
    a2: RodriguesVector


def _check_unit_axis(e):
    e = np.asarray(e, dtype=float)
    if e.shape != (3,):
        raise InvalidInputError("axis must be a 3-vector")
    if abs(np.sqrt(e @ e) - 1.0) > 1e-12:
        raise InvalidInputError("axis must be a unit vector (|e| = 1 within 1e-12)")
    return e


def rotation_from_axis_angle(e, alpha) -> RotationMatrix:
    """Anticlockwise rotation about the unit axis e by alpha in [-pi, pi];
    scalar view of :func:`drilling_rotation`."""
    e = _check_unit_axis(e)
    alpha = float(alpha)
    if not -np.pi <= alpha <= np.pi:
        raise InvalidInputError("angle must lie in [-pi, pi]")
    return RotationMatrix(drilling_rotation(e, alpha))


def matrix_from_rodrigues(a: RodriguesVector) -> RotationMatrix:
    """Rodrigues' formula R(a); scalar view of :func:`matrices_from_rodrigues`."""
    return RotationMatrix(matrices_from_rodrigues(a.a))


def rodrigues_from_matrix(r: RotationMatrix) -> RodriguesVector:
    """Vector of R; scalar view of :func:`rodrigues_from_matrices`."""
    a, pi_mask = rodrigues_from_matrices(r.m)
    if pi_mask:
        raise PiTurnError("tr R = -1: pi-turns have no finite Rodrigues vector")
    return RodriguesVector(a)


def compose(a2: RodriguesVector, a1: RodriguesVector) -> RodriguesVector:
    """Vector of R(a2) R(a1) (a1 acts first); scalar view of
    :func:`compose_batched`."""
    a, pi_mask = compose_batched(a2.a, a1.a)
    if pi_mask:
        raise PiTurnError("a1 . a2 = 1: composed rotation is a pi-turn")
    return RodriguesVector(a)


def split_about_axis(a: RodriguesVector, e) -> AxisSplit:
    """Split R(a) into R(a2) R(a1) with a1 parallel and a2 orthogonal to the
    unit axis e; scalar view of :func:`split_about_axes`."""
    e = _check_unit_axis(e)
    u, a2 = split_about_axes(a.a, e)
    return AxisSplit(RodriguesVector(u * e), RodriguesVector(a2))


def axis_distance_profile(a: RodriguesVector, e, u_grid):
    """Squared Frobenius distance d(u) = |R(a) - R(u e)|^2 on a grid of u.

    Evaluated numerically, matrix by matrix, so it can serve as an
    independent check of the closed-form minimizer u = a.e (and maximizer
    u = -1/(a.e)) of the distance to the subgroup of rotations about e.
    """
    e = _check_unit_axis(e)
    u = np.asarray(u_grid, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("u_grid must contain finite values")
    diff = matrices_from_rodrigues(u[..., np.newaxis] * e)
    diff -= matrix_from_rodrigues(a).m
    return np.einsum("...ij,...ij->...", diff, diff)


# -- batched kernels ---------------------------------------------------------
#
# Where a formula has no finite value (pi-turns) the kernels return nan and
# a mask instead of raising, so grid fields can flag those loci.


def projector(nu):
    """P(nu) = I - nu x nu for a field of unit vectors."""
    nu = np.asarray(nu, dtype=float)
    return _EYE3 - nu[..., :, None] * nu[..., None, :]


def drilling_rotation(nu, alpha):
    """Rotations R_nu(alpha) = I + sin(alpha) W(nu) - (1 - cos(alpha)) P(nu)
    about the unit axes ``nu`` (..., 3) by the angles ``alpha`` (...)."""
    nu = np.asarray(nu, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    sa = alpha[..., None, None]
    return (_EYE3 + np.sin(sa) * skew(nu)
            - (1.0 - np.cos(sa)) * projector(nu))


def matrices_from_rodrigues(a):
    """Rodrigues' formula R(a) = [(1-a^2) I + 2 a@a + 2 W(a)] / (1+a^2);
    ``a`` has shape (..., 3)."""
    a = np.asarray(a, dtype=float)
    # assembled in place: the (..., 3, 3) temporaries of a sum expression
    # slow the 20 000-point profiles of check 02 by a third
    a2 = np.einsum("...i,...i->...", a, a)
    m = np.einsum("...i,...j->...ij", a, a)
    m += skew(a)
    m *= 2.0
    diag = 1.0 - a2
    for i in range(3):
        m[..., i, i] += diag
    m /= (1.0 + a2)[..., np.newaxis, np.newaxis]
    return m


def rodrigues_from_matrices(r):
    """Inverse of the vector representation via W(a) = (R - R^T)/(1 + tr R);
    ``r`` has shape (..., 3, 3).

    Returns (a, pi_mask): entries with 1 + tr R <= EPS_PI are pi-turns and
    filled with nan.
    """
    r = np.asarray(r, dtype=float)
    denom = 1.0 + np.trace(r, axis1=-2, axis2=-1)
    pi_mask = denom <= EPS_PI
    safe = np.where(pi_mask, 1.0, denom)
    a = np.stack([
        r[..., 2, 1] - r[..., 1, 2],
        r[..., 0, 2] - r[..., 2, 0],
        r[..., 1, 0] - r[..., 0, 1],
    ], axis=-1) / safe[..., np.newaxis]
    a[pi_mask] = np.nan
    return a, pi_mask


def compose_batched(a2, a1):
    """Rodrigues composition (a1 + a2 + a2 x a1) / (1 - a1.a2): the vectors of
    R(a2) R(a1), a1 acting first; inputs broadcast over (..., 3).

    Returns (a, pi_mask): entries with |1 - a1.a2| <= EPS_PI compose to a
    pi-turn and are filled with nan.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    denom = 1.0 - np.einsum("...i,...i->...", a1, a2)
    pi_mask = np.abs(denom) <= EPS_PI
    a = a1 + a2
    a += np.cross(a2, a1)
    a /= np.where(pi_mask, 1.0, denom)[..., np.newaxis]
    a[pi_mask] = np.nan
    return a, pi_mask


def split_about_axes(a, e):
    """Split R(a) = R(a2) R(a1) with a1 = u e along the unit axis e and a2
    orthogonal to it; ``a`` and ``e`` broadcast over (..., 3).

    Closed form: u = a.e and a2 = [I + u W(e)] P(e) a / (1 + u^2), with
    P(e) the projector onto the plane orthogonal to e, evaluated as
    [a + u (e x a - e)] / (1 + u^2).  When a is parallel to e this
    degenerates to a1 = a, a2 = 0.  Returns (u, a2).
    """
    a = np.asarray(a, dtype=float)
    e = np.asarray(e, dtype=float)
    u = np.einsum("...i,...i->...", a, e)
    uu = u[..., np.newaxis]
    a2 = np.cross(e, a)
    a2 -= e
    a2 *= uu
    a2 += a
    a2 /= 1.0 + uu * uu
    return u, a2


def split_about_e3_batched(a):
    """:func:`split_about_axes` about the frame axis e3; a1 = u e3."""
    return split_about_axes(a, E3)
