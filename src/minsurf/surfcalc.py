"""Surface differential operators on sampled parametric patches.

A patch is a map r(s, t) on a rectangular grid in chart coordinates
(s, t).  All operators are chart-agnostic: they only use grid derivatives
of r and of the fields living on it.  Derivatives default to centered
finite differences; analytic arrays for r_s, r_t and the normal (with its
chart derivatives) can be supplied to get exact-arithmetic paths for
oracle comparisons.  Potentials are summed from per-edge increments by
one row-first path rule (:func:`path_integrate`).

Conventions: nu = r_s x r_t / |r_s x r_t|; the curvature tensor is the
tangential derivative of nu (so the unit sphere parameterized outward has
kappa = +1/R); (n1, n2, nu) is right-handed with kappa1 >= kappa2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fd
from .errors import InvalidInputError, SingularSurfaceError, UmbilicError

UMBILIC_REL = 1e-8


@dataclass(frozen=True)
class FrameField:
    """Orthonormal right-handed frame per sample: e_u x e_v = nu."""

    e_u: np.ndarray
    e_v: np.ndarray
    nu: np.ndarray


@dataclass(frozen=True)
class CurvatureData:
    """Shape operator field with its eigenstructure.

    ``shape_operator`` is the full 3x3 tensor per sample; kappa1 >= kappa2
    are its tangent-plane eigenvalues with right-handed principal frame
    (n1, n2, nu).  ``umbilic`` flags points where the principal directions
    are not well defined.
    """

    shape_operator: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    H: np.ndarray
    K: np.ndarray
    umbilic: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ConnectorField:
    """Cartesian connector c = (grad_s n1)^T n2 with its antisymmetry defect."""

    c: np.ndarray
    antisymmetry_residual: float


class SurfacePatch:
    """Sampled immersion r(s, t) over a uniform rectangular grid.

    Parameters
    ----------
    s, t : 1-D axes (uniform spacing).
    r : array (ns, nt, 3) of positions.
    r_s, r_t : optional analytic first derivatives (same shape as r).
    nu, nu_s, nu_t : optional analytic normal and its chart derivatives.
    fd_order : 2 or 4; stencil order used for every grid derivative.
    """

    def __init__(self, s, t, r, r_s=None, r_t=None, nu=None, nu_s=None,
                 nu_t=None, fd_order=2):
        self.s = np.asarray(s, dtype=float)
        self.t = np.asarray(t, dtype=float)
        self.r = np.asarray(r, dtype=float)
        if self.r.shape != (self.s.size, self.t.size, 3):
            raise InvalidInputError("r must have shape (len(s), len(t), 3)")
        if not np.all(np.isfinite(self.r)):
            raise InvalidInputError("r contains non-finite samples")
        self.hs = fd.spacing(self.s)
        self.ht = fd.spacing(self.t)
        self.fd_order = fd_order
        self._r_s_given = None if r_s is None else np.asarray(r_s, dtype=float)
        self._r_t_given = None if r_t is None else np.asarray(r_t, dtype=float)
        self._nu_given = None if nu is None else np.asarray(nu, dtype=float)
        self._nu_s_given = None if nu_s is None else np.asarray(nu_s, dtype=float)
        self._nu_t_given = None if nu_t is None else np.asarray(nu_t, dtype=float)

    # -- grid derivatives --------------------------------------------------

    def d_s(self, f):
        return fd.d1(f, self.hs, axis=0, order=self.fd_order)

    def d_t(self, f):
        return fd.d1(f, self.ht, axis=1, order=self.fd_order)

    @property
    def shape(self):
        return self.r.shape[:2]

    def interior(self, collar=2):
        return fd.interior_mask(self.shape, collar=collar)

    @property
    def diameter(self):
        lo = self.r.reshape(-1, 3).min(axis=0)
        hi = self.r.reshape(-1, 3).max(axis=0)
        return float(np.linalg.norm(hi - lo))

    # -- tangent machinery ---------------------------------------------------

    @cached_property
    def r_s(self):
        return self._r_s_given if self._r_s_given is not None else self.d_s(self.r)

    @cached_property
    def r_t(self):
        return self._r_t_given if self._r_t_given is not None else self.d_t(self.r)

    @cached_property
    def _metric(self):
        e = np.einsum("ijk,ijk->ij", self.r_s, self.r_s)
        f = np.einsum("ijk,ijk->ij", self.r_s, self.r_t)
        g = np.einsum("ijk,ijk->ij", self.r_t, self.r_t)
        det = e * g - f * f
        if np.any(det <= 1e-12 * np.maximum(e * g, 1e-300)):
            raise SingularSurfaceError("metric is rank-deficient: not an immersion")
        return e, f, g, det

    @property
    def metric_det(self):
        return self._metric[3]

    @cached_property
    def dual_basis(self):
        """Tangential dual vectors (a_s, a_t) with a_s . r_s = 1, a_s . r_t = 0."""
        e, f, g, det = self._metric
        a_s = (g[..., None] * self.r_s - f[..., None] * self.r_t) / det[..., None]
        a_t = (e[..., None] * self.r_t - f[..., None] * self.r_s) / det[..., None]
        return a_s, a_t

    @cached_property
    def nu(self):
        if self._nu_given is not None:
            return self._nu_given
        n = np.cross(self.r_s, self.r_t)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    @cached_property
    def frames(self):
        e_u = self.r_s / np.linalg.norm(self.r_s, axis=-1, keepdims=True)
        v = self.r_t - np.einsum("ijk,ijk->ij", self.r_t, e_u)[..., None] * e_u
        e_v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return FrameField(e_u, e_v, self.nu)

    @cached_property
    def _nu_derivs(self):
        if self._nu_s_given is not None and self._nu_t_given is not None:
            return self._nu_s_given, self._nu_t_given
        return self.d_s(self.nu), self.d_t(self.nu)


# -- first-order operators -----------------------------------------------


def surface_gradient(patch: SurfacePatch, phi):
    """Tangential gradient of a scalar field sampled on the patch grid."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != patch.shape:
        raise InvalidInputError("phi must be sampled on the patch grid")
    a_s, a_t = patch.dual_basis
    return patch.d_s(phi)[..., None] * a_s + patch.d_t(phi)[..., None] * a_t


def surface_vector_gradient(patch: SurfacePatch, h):
    """Surface gradient (grad h) P(nu) of a sampled 3-vector field."""
    h = np.asarray(h, dtype=float)
    a_s, a_t = patch.dual_basis
    h_s, h_t = patch.d_s(h), patch.d_t(h)
    return (h_s[..., :, None] * a_s[..., None, :]
            + h_t[..., :, None] * a_t[..., None, :])


def surface_divergence(patch: SurfacePatch, h):
    a_s, a_t = patch.dual_basis
    return (np.einsum("ijk,ijk->ij", patch.d_s(h), a_s)
            + np.einsum("ijk,ijk->ij", patch.d_t(h), a_t))


def surface_laplacian(patch: SurfacePatch, phi):
    """Laplace-Beltrami of phi as div_s(grad_s phi)."""
    return surface_divergence(patch, surface_gradient(patch, phi))


def surface_curl(patch: SurfacePatch, h):
    """Axial vector of grad_s h - (grad_s h)^T (works for non-tangential h)."""
    g = surface_vector_gradient(patch, h)
    return np.stack([
        g[..., 2, 1] - g[..., 1, 2],
        g[..., 0, 2] - g[..., 2, 0],
        g[..., 1, 0] - g[..., 0, 1],
    ], axis=-1)


# -- curvature -------------------------------------------------------------


def _orient_field(n):
    """Flip signs so the direction field varies continuously across the grid."""
    n = n.copy()
    row = n[0]
    dots = np.einsum("jk,jk->j", row[1:], row[:-1])
    flips = np.cumprod(np.where(dots < 0.0, -1.0, 1.0))
    n[0, 1:] *= flips[:, None]
    dots = np.einsum("ijk,ijk->ij", n[1:], n[:-1])
    flips = np.cumprod(np.where(dots < 0.0, -1.0, 1.0), axis=0)
    n[1:] *= flips[..., None]
    return n


def shape_operator(patch: SurfacePatch) -> CurvatureData:
    """Curvature tensor (grad nu) P(nu) with sorted eigenstructure."""
    nu = patch.nu
    nu_s, nu_t = patch._nu_derivs
    a_s, a_t = patch.dual_basis
    sop = (nu_s[..., :, None] * a_s[..., None, :]
           + nu_t[..., :, None] * a_t[..., None, :])

    fr = patch.frames
    basis = np.stack([fr.e_u, fr.e_v], axis=-2)          # (ns, nt, 2, 3)
    s2 = np.einsum("ijak,ijkl,ijbl->ijab", basis, sop, basis)
    s2_sym = 0.5 * (s2 + np.swapaxes(s2, -1, -2))
    vals, vecs = np.linalg.eigh(s2_sym)                   # ascending
    kappa1, kappa2 = vals[..., 1], vals[..., 0]
    c = vecs[..., :, 1]                                   # coeffs of n1 in (e_u, e_v)
    n1 = c[..., 0:1] * fr.e_u + c[..., 1:2] * fr.e_v
    n1 = _orient_field(n1)
    n2 = np.cross(nu, n1)

    scale = np.maximum(np.maximum(np.abs(kappa1), np.abs(kappa2)),
                       1.0 / patch.diameter)
    umbilic = np.abs(kappa1 - kappa2) < UMBILIC_REL * scale
    return CurvatureData(sop, kappa1, kappa2, n1, n2,
                         0.5 * (kappa1 + kappa2), kappa1 * kappa2, umbilic)


def connector(patch: SurfacePatch, curvature: CurvatureData) -> ConnectorField:
    """Connector c = (grad_s n1)^T n2, cross-checked against -(grad_s n2)^T n1."""
    if np.any(curvature.umbilic):
        raise UmbilicError("connector undefined at umbilic points on the patch")
    g1 = surface_vector_gradient(patch, curvature.n1)
    g2 = surface_vector_gradient(patch, curvature.n2)
    c_a = np.einsum("ijkl,ijk->ijl", g1, curvature.n2)
    c_b = -np.einsum("ijkl,ijk->ijl", g2, curvature.n1)
    mask = patch.interior()
    resid = float(np.abs(c_a - c_b)[mask].max())
    return ConnectorField(0.5 * (c_a + c_b), resid)


# -- circulation -------------------------------------------------------------


def rectangle_loop(i0, i1, j0, j1):
    """Closed anticlockwise grid contour tracing the index rectangle."""
    if not (i0 < i1 and j0 < j1):
        raise InvalidInputError("rectangle loop needs i0 < i1 and j0 < j1")
    path = []
    path += [(i, j0) for i in range(i0, i1)]
    path += [(i1, j) for j in range(j0, j1)]
    path += [(i, j1) for i in range(i1, i0, -1)]
    path += [(i0, j) for j in range(j1, j0 - 1, -1)]
    return np.asarray(path, dtype=int)


def _validate_loop(loop, shape):
    loop = np.asarray(loop, dtype=int)
    if loop.ndim != 2 or loop.shape[1] != 2 or loop.shape[0] < 5:
        raise InvalidInputError("loop must be a (K, 2) array of grid indices")
    if np.any(loop < 0) or np.any(loop[:, 0] >= shape[0]) or np.any(loop[:, 1] >= shape[1]):
        raise InvalidInputError("loop indices out of grid range")
    if not np.array_equal(loop[0], loop[-1]):
        raise InvalidInputError("open contour: loop must end where it starts")
    steps = np.abs(np.diff(loop, axis=0))
    if np.any(steps.sum(axis=1) != 1):
        raise InvalidInputError("loop must step between adjacent grid nodes")
    return loop


def _enclosed_cells(loop, shape):
    """Even-odd fill of the cell grid bounded by a rectilinear index loop."""
    ns, nt = shape
    edge_count = np.zeros((ns, nt - 1), dtype=int)
    for k in range(loop.shape[0] - 1):
        (i0, j0), (i1, j1) = loop[k], loop[k + 1]
        if i0 == i1:  # edge along t at s-index i0, spanning [min(j), min(j)+1]
            edge_count[i0, min(j0, j1)] += 1
    # Ray in +s from each cell center crosses t-edges with larger s-index.
    suffix = np.cumsum(edge_count[::-1], axis=0)[::-1]
    crossings = suffix[1:]
    return (crossings % 2) == 1


def circulation_check(patch: SurfacePatch, h, loop):
    """|line integral of h - area integral of curl_s h . nu| over a grid loop."""
    h = np.asarray(h, dtype=float)
    loop = _validate_loop(loop, patch.shape)
    rp = patch.r[loop[:, 0], loop[:, 1]]
    hp = h[loop[:, 0], loop[:, 1]]
    seg = rp[1:] - rp[:-1]
    line = float(np.einsum("kj,kj->", 0.5 * (hp[1:] + hp[:-1]), seg))

    integrand = (np.einsum("ijk,ijk->ij", surface_curl(patch, h), patch.nu)
                 * np.sqrt(patch.metric_det))
    cell_mean = 0.25 * (integrand[:-1, :-1] + integrand[1:, :-1]
                        + integrand[:-1, 1:] + integrand[1:, 1:])
    inside = _enclosed_cells(loop, patch.shape)
    area = float(cell_mean[inside].sum() * patch.hs * patch.ht)
    return abs(line - area)


# -- path integration ---------------------------------------------------------


def _line_sums(steps, k0):
    """Sums of the ``steps`` along axis 0 from node ``k0``, exactly 0 there."""
    out = np.zeros((steps.shape[0] + 1,) + steps.shape[1:], dtype=steps.dtype)
    out[k0 + 1:] = np.cumsum(steps[k0:], axis=0)
    out[:k0] = -np.cumsum(steps[:k0][::-1], axis=0)[::-1]
    return out


def path_integrate(edges_s, edges_t, base):
    """Sum per-edge increments along grid lines from the ``base`` node.

    ``edges_s`` (ns-1, nt, ...) holds the increments from node (i, j) to
    (i+1, j) and ``edges_t`` (nt-1, ...) those from (i0, j) to (i0, j+1)
    on the base row i0, the only t-edges that paths along the base row and
    then the columns walk; the trailing shape and dtype are free.  Column
    first is this call on the transposed grid.  The result is 0 at ``base``.
    """
    i0, j0 = base
    return _line_sums(edges_s, i0) + _line_sums(edges_t, j0)[None]


def integrate_tangential_field(patch: SurfacePatch, h, base=(0, 0), value0=0.0):
    """Path-integrate a tangential field into a potential on the grid.

    Each edge of a :func:`path_integrate` path (t-edges on the base row
    only) adds the trapezoid increment 1/2 (h_a + h_b) . (r_b - r_a).  For
    curl-free fields the result is path independent up to O(h^2).
    """
    h = np.asarray(h, dtype=float)
    h0, r0 = h[base[0]], patch.r[base[0]]
    steps_s = np.einsum("ijk,ijk->ij", 0.5 * (h[1:] + h[:-1]), np.diff(patch.r, axis=0))
    steps_t = np.einsum("jk,jk->j", 0.5 * (h0[1:] + h0[:-1]), np.diff(r0, axis=0))
    return path_integrate(steps_s, steps_t, base) + value0
