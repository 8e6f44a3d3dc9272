"""Rotation algebra in the Rodrigues vector representation.

A rotation by angle ``alpha`` about a unit axis ``e`` is encoded by the
vector ``a = tan(alpha/2) * e``.  The identity maps to the origin and
pi-turns sit at infinity, so they are rejected wherever a vector
representation is produced (threshold ``EPS_PI`` on ``1 + tr R``).

Everything here is a pure function of its inputs; the small wrapper types
are frozen and their arrays are marked read-only.
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
    """Skew tensor W(v) with W(v) x = v cross x."""
    v = np.asarray(v, dtype=float)
    out = np.zeros((3, 3))
    out[0, 1] = -v[2]
    out[0, 2] = v[1]
    out[1, 0] = v[2]
    out[1, 2] = -v[0]
    out[2, 0] = -v[1]
    out[2, 1] = v[0]
    return out


def _det3(m):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def cross3(a, b):
    """Cross product of two 3-vector arrays (np.cross is slow for single
    vectors; Python floats keep the per-element arithmetic of numpy)."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _axial(w):
    """Axial vector of a skew tensor (inverse of :func:`skew`)."""
    return np.array([w[2, 1], w[0, 2], w[1, 0]])


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
        d = m.T @ m
        d[0, 0] -= 1.0
        d[1, 1] -= 1.0
        d[2, 2] -= 1.0
        defect = np.sqrt((d * d).sum())
        if defect > ORTHO_REPAIR:
            raise InvalidInputError(f"matrix is not orthogonal (defect {defect:.3e})")
        if defect > ORTHO_TOL:
            u, _, vt = np.linalg.svd(m)
            m = u @ vt
        if _det3(m) < 0.0:
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
    """Anticlockwise rotation about the unit axis e by alpha in [-pi, pi]."""
    e = _check_unit_axis(e)
    alpha = float(alpha)
    if not -np.pi <= alpha <= np.pi:
        raise InvalidInputError("angle must lie in [-pi, pi]")
    w = skew(e)
    return RotationMatrix(_EYE3 + np.sin(alpha) * w + (1.0 - np.cos(alpha)) * (w @ w))


def matrix_from_rodrigues(a: RodriguesVector) -> RotationMatrix:
    """Rodrigues' formula R(a) = [(1-a^2) I + 2 a@a + 2 W(a)] / (1+a^2)."""
    v = a.a
    a2 = v @ v
    m = 2.0 * (v[:, None] * v[None, :])
    m += 2.0 * skew(v)
    m += (1.0 - a2) * _EYE3
    m /= 1.0 + a2
    return RotationMatrix(m)


def rodrigues_from_matrix(r: RotationMatrix) -> RodriguesVector:
    """Invert the vector representation via W(a) = (R - R^T)/(1 + tr R)."""
    m = r.m
    denom = 1.0 + np.trace(m)
    if denom <= EPS_PI:
        raise PiTurnError("tr R = -1: pi-turns have no finite Rodrigues vector")
    return RodriguesVector(_axial(m - m.T) / denom)


def compose(a2: RodriguesVector, a1: RodriguesVector) -> RodriguesVector:
    """Rodrigues composition: vector of R(a2) R(a1) (a1 acts first)."""
    v1, v2 = a1.a, a2.a
    denom = 1.0 - v1 @ v2
    if abs(denom) <= EPS_PI:
        raise PiTurnError("a1 . a2 = 1: composed rotation is a pi-turn")
    return RodriguesVector((v1 + v2 + cross3(v2, v1)) / denom)


def split_about_axis(a: RodriguesVector, e) -> AxisSplit:
    """Split R(a) into R(a2) R(a1) with a1 parallel and a2 orthogonal to e.

    Closed form: a1 = (a.e) e and
    a2 = [I + (a.e) W(e)] P(e) a / (1 + (a.e)^2),
    with P(e) the projector onto the plane orthogonal to e.  When a is
    parallel to e this degenerates to a1 = a, a2 = 0.
    """
    e = _check_unit_axis(e)
    v = a.a
    u = float(v @ e)
    a1 = u * e
    p = v - u * e
    a2 = (p + u * cross3(e, p)) / (1.0 + u * u)
    return AxisSplit(RodriguesVector(a1), RodriguesVector(a2))


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
    ra = matrix_from_rodrigues(a).m
    rue = _matrices_about_axis(e, u)
    diff = ra[np.newaxis, :, :] - rue
    return np.einsum("...ij,...ij->...", diff, diff)


# -- batched kernels ---------------------------------------------------------
#
# Same formulas as the scalar API, vectorized over leading axes.  Used by the
# distance profile above and by the per-sample rotation fields in
# `bendneutral`, where looping over a full grid would be needlessly slow.


def _matrices_about_axis(e, u):
    """R(u e) for an array of magnitudes u (rotations about the fixed axis e)."""
    u = np.asarray(u, dtype=float)
    w = skew(e)
    ee = np.outer(e, e)
    u2 = u[..., np.newaxis, np.newaxis] ** 2
    uu = u[..., np.newaxis, np.newaxis]
    return ((1.0 - u2) * np.eye(3) + 2.0 * u2 * ee + 2.0 * uu * w) / (1.0 + u2)


def matrices_from_rodrigues(a):
    """Batched Rodrigues formula; ``a`` has shape (..., 3)."""
    a = np.asarray(a, dtype=float)
    a2 = np.einsum("...i,...i->...", a, a)[..., np.newaxis, np.newaxis]
    outer = a[..., :, np.newaxis] * a[..., np.newaxis, :]
    w = np.zeros(a.shape[:-1] + (3, 3))
    w[..., 0, 1] = -a[..., 2]
    w[..., 0, 2] = a[..., 1]
    w[..., 1, 0] = a[..., 2]
    w[..., 1, 2] = -a[..., 0]
    w[..., 2, 0] = -a[..., 1]
    w[..., 2, 1] = a[..., 0]
    return ((1.0 - a2) * np.eye(3) + 2.0 * outer + 2.0 * w) / (1.0 + a2)


def rodrigues_from_matrices(r):
    """Batched inverse of the vector representation; ``r`` has shape (..., 3, 3).

    Returns (a, pi_mask): entries with 1 + tr R <= EPS_PI are masked out and
    filled with nan instead of raising, so grid fields can flag pi-turn loci.
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


def split_about_e3_batched(a):
    """Axis split against the fixed frame axis e3 for a field of vectors.

    Returns (a1_z, a2) with a1 = a1_z e3; same closed form as
    :func:`split_about_axis`.
    """
    a = np.asarray(a, dtype=float)
    u = a[..., 2]
    px, py = a[..., 0], a[..., 1]
    denom = 1.0 + u * u
    a2 = np.stack([(px - u * py) / denom, (py + u * px) / denom,
                   np.zeros_like(u)], axis=-1)
    return u, a2
