"""Bending-neutral deformation machinery.

Covers the deformation between minimal surfaces sharing a domain, held as
(mu, alpha, nu) and assembled into its gradient mu R_nu(alpha) P(nu) only
on request (the drilling rotation and projector are the kernels of
:mod:`minsurf.rotations`), the drilling/bending content fields of the
reference-to-surface rotation, the pure bending measure, and the
compatibility and integrability checkers for the general hyperbolic case.

Frame convention: drilling and bending contents are taken against the
fixed frame (e1, e2, e3) of the parameter domain; universality statements
hold in that frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrabilityError, InvalidInputError
from .rotations import (
    drilling_rotation,
    projector,
    rodrigues_from_matrices,
    split_about_e3_batched,
)
from .surfcalc import (
    ConnectorField,
    CurvatureData,
    SurfacePatch,
    integrate_tangential_field,
    surface_gradient,
    surface_laplacian,
)
from .weierstrass import WeierstrassSurface

# Pi-turn loci of the reference rotation and cot poles of the drilling
# content are masked, not interpolated: the formulas are unbounded there.
POLE_TOL = 1e-9


# -- deformation between minimal surfaces ----------------------------------------


@dataclass(frozen=True)
class DeformationField:
    """Per-sample data of the map between two minimal surfaces: an in-plane
    stretch by mu composed with a drilling rotation by alpha about the
    shared normal nu."""

    mu: np.ndarray
    alpha: np.ndarray
    nu: np.ndarray

    def gradient(self):
        """The (..., 3, 3) gradient field G = mu R_nu(alpha) P(nu)."""
        rotation = drilling_rotation(self.nu, self.alpha)
        return self.mu[..., None, None] * (rotation @ projector(self.nu))


def deformation_between(s: WeierstrassSurface, s_star: WeierstrassSurface) -> DeformationField:
    """Deformation field of the map r -> r* over a shared domain.

    mu = exp(Phi* - Phi) and alpha = chi* - chi, read directly off the two
    data; the surfaces must be sampled on the identical grid.
    """
    if (not np.array_equal(s.grid.s, s_star.grid.s)
            or not np.array_equal(s.grid.t, s_star.grid.t)):
        raise InvalidInputError("surfaces must share the identical domain grid")
    return DeformationField(np.exp(s_star.Phi - s.Phi), s_star.chi - s.chi, s.nu)


def chain_rule_residual(s: WeierstrassSurface, s_star: WeierstrassSurface):
    """Relative residual of (grad_s y) r_dot = r*_dot along both grid axes.

    Tangents come from order-2 finite differences of the two integrated
    immersions, so the residual is O(h^2) for a correct gradient field.
    """
    grad = deformation_between(s, s_star).gradient()
    patch = s.patch()
    patch_star = s_star.patch()
    mask = s.grid.interior()
    out = 0.0
    scale = float(np.linalg.norm(patch_star.r_s[mask], axis=-1).max())
    for tan, tan_star in ((patch.r_s, patch_star.r_s), (patch.r_t, patch_star.r_t)):
        res = np.einsum("ijkl,ijl->ijk", grad, tan) - tan_star
        out = max(out, float(np.linalg.norm(res[mask], axis=-1).max()))
    return out / scale


# -- integrability ---------------------------------------------------------------


def alpha_from_phi(patch: SurfacePatch, phi, alpha0=0.0, base=None,
                   require_harmonic=True):
    """Reconstruct the drilling angle from grad_s alpha = nu x grad_s phi.

    phi must be surface harmonic, to a Laplacian residual of 5e-2 (checked
    unless disabled, e.g. for negative controls); alpha is fixed to alpha0
    at the base grid node and recovered by path integration, path
    independent up to O(h^2).
    """
    phi = np.asarray(phi, dtype=float)
    if base is None:
        base = (patch.shape[0] // 2, patch.shape[1] // 2)
    lap = surface_laplacian(patch, phi)
    resid = float(np.abs(lap[patch.interior()]).max())
    if require_harmonic and resid > 5e-2:
        raise IntegrabilityError(
            f"phi is not surface harmonic (laplacian residual {resid:.3e})",
            residual=resid)
    h = np.cross(patch.nu, surface_gradient(patch, phi))
    return integrate_tangential_field(patch, h, base=base, value0=alpha0)


@dataclass(frozen=True)
class IntegrabilityResiduals:
    """Residual fields of the two scalar integrability equations."""

    eq1: np.ndarray
    eq2: np.ndarray
    valid: np.ndarray

    def max_residual(self, extra_mask=None):
        mask = self.valid if extra_mask is None else (self.valid & extra_mask)
        return float(max(np.abs(self.eq1[mask]).max(), np.abs(self.eq2[mask]).max()))


def integrability_residual_general(patch: SurfacePatch, curvature: CurvatureData,
                                   connector_field: ConnectorField, lambda_field,
                                   alpha_field):
    """Evaluate the two-equation system coupling (lambda, alpha) on a
    hyperbolic patch; residuals vanish at O(h^2) for integrable data.

    Samples where the surface fails to be strictly hyperbolic are flagged
    out in ``valid`` instead of raising.
    """
    lam = np.asarray(lambda_field, dtype=float)
    alpha = np.asarray(alpha_field, dtype=float)
    k1, k2 = curvature.kappa1, curvature.kappa2
    n1, n2 = curvature.n1, curvature.n2
    c = connector_field.c

    valid = (k1 * k2 < 0.0) & ~curvature.umbilic
    if not np.any(valid):
        raise InvalidInputError("patch has no strictly hyperbolic samples")

    ca, sa = np.cos(alpha), np.sin(alpha)
    g11 = surface_gradient(patch, lam * k1 * ca)
    g12 = surface_gradient(patch, lam * k2 * sa)
    g21 = surface_gradient(patch, lam * k1 * sa)
    g22 = surface_gradient(patch, lam * k2 * ca)
    cn1 = np.einsum("ijk,ijk->ij", c, n1)
    cn2 = np.einsum("ijk,ijk->ij", c, n2)
    total = lam * (k1 + k2)

    eq1 = (np.einsum("ijk,ijk->ij", g11, n2) - np.einsum("ijk,ijk->ij", g12, n1)
           - total * (ca * cn1 + sa * cn2))
    eq2 = (np.einsum("ijk,ijk->ij", g21, n2) + np.einsum("ijk,ijk->ij", g22, n1)
           - total * (sa * cn1 - ca * cn2))
    return IntegrabilityResiduals(eq1, eq2, valid)


# -- compatibility ----------------------------------------------------------------


def compatibility_ratio(kappa1, kappa2, alpha, beta):
    """Prescribed stretch ratio mu2/mu1 for a bending-neutral deformation.

    ratio = 1 - (k1 + k2) sin(a) / (k2 sin(a) + (k1 - k2) cos(b) sin(a + b));
    sin(alpha) = 0 trivially gives 1.  Inputs broadcast; scalar inputs give
    a float.
    """
    k1, k2, a, b = (np.asarray(x, dtype=float) for x in (kappa1, kappa2, alpha, beta))
    sa = np.sin(a)
    trivial = sa == 0.0
    denom = k2 * sa + (k1 - k2) * np.cos(b) * np.sin(a + b)
    scale = np.maximum(np.maximum(np.abs(k1), np.abs(k2)), 1.0)
    if np.any(~trivial & (np.abs(denom) < 1e-14 * scale)):
        raise InvalidInputError("compatibility ratio undefined: vanishing denominator")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(trivial, 1.0, 1.0 - (k1 + k2) * sa / denom)
    return ratio if ratio.ndim else float(ratio)


def _image_curvature_tensor(kappa1, kappa2, lam, alpha):
    """Image curvature tensor of the reduced case over the broadcast shape of
    the inputs, in the fixed frame (n1, n2, nu) = (e1, e2, e3)."""
    args = [np.asarray(x, dtype=float) for x in (kappa1, kappa2, lam, alpha)]
    shape = np.broadcast_shapes(*(x.shape for x in args))
    n1, n2, nu = (np.broadcast_to(e, shape + (3,)) for e in np.eye(3))
    kappa1, kappa2, lam, alpha = (np.broadcast_to(x, shape) for x in args)
    mu1 = lam * kappa1
    mu2 = -lam * kappa2
    r = drilling_rotation(nu, alpha)
    rn1 = np.einsum("...kl,...l->...k", r, n1)
    rn2 = np.einsum("...kl,...l->...k", r, n2)
    return ((kappa1 / mu1)[..., None, None] * n1[..., :, None] * rn1[..., None, :]
            + (kappa2 / mu2)[..., None, None] * n2[..., :, None] * rn2[..., None, :])


def image_mean_curvature_check(kappa1, kappa2, lam, alpha):
    """|tr| of the image curvature tensor for the reduced hyperbolic stretching.

    With U = lam (k1 n1 x n1 - k2 n2 x n2), k1 > 0 > k2, lam > 0 the trace
    cancels identically for every drilling angle: the image surface is
    minimal.  Returns the pointwise |2H*| so callers can sweep inputs.
    """
    kappa1 = np.asarray(kappa1, dtype=float)
    kappa2 = np.asarray(kappa2, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(kappa1 <= 0.0) or np.any(kappa2 >= 0.0):
        raise InvalidInputError("reduced case requires kappa1 > 0 > kappa2")
    if np.any(lam <= 0.0):
        raise InvalidInputError("lambda must be positive")
    tensor = _image_curvature_tensor(kappa1, kappa2, lam, alpha)
    return np.abs(np.trace(tensor, axis1=-2, axis2=-1))


# -- bending and drilling content --------------------------------------------------


@dataclass(frozen=True)
class BendingContent:
    """Closed-form content fields of the reference-to-surface rotation:
    the bending content ``b`` (..., 3), an in-plane vector field, and the
    drilling content ``d`` (...), the scalar coefficient of the drilling
    vector d e3; ``valid_d`` masks the cot poles of d."""

    b: np.ndarray
    d: np.ndarray
    valid_d: np.ndarray


def bending_drilling_field(s: WeierstrassSurface) -> BendingContent:
    """Drilling and bending parts of the reference rotation split about e3.

    Closed forms b = (1/rho) e_phi and d = -cot(chi/2 + phi), the drilling
    vector being d e3; the cot poles of d are masked, not interpolated.
    :func:`bending_cross_check` compares them with the numeric Rodrigues
    split.
    """
    u, v, rho, phi = s.grid.coords
    b_cf = np.stack([-v, u, np.zeros_like(u)], axis=-1) / (rho**2)[..., None]

    half = 0.5 * s.chi + phi
    sin_half = np.sin(half)
    valid_d = np.abs(sin_half) > POLE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        d_cf = -np.cos(half) / sin_half
    return BendingContent(b_cf, d_cf, valid_d)


def bending_cross_check(s: WeierstrassSurface,
                        content: BendingContent | None = None):
    """Closed-form bending content against its numeric path.

    Assembles the rotation taking (e1, e2, e3) to (e_u, e_v, nu), converts
    it to a Rodrigues vector and splits it about e3.  Returns ``(valid,
    res_b, res_d)``: the mask of samples off the pi-turn locus and the max
    deviation of the numeric b and d from the closed forms over it (0.0
    where nothing is valid).
    """
    content = content or bending_drilling_field(s)
    fr = s.frames
    r_ref = (fr.e_u[..., :, None] * np.array([1.0, 0.0, 0.0])
             + fr.e_v[..., :, None] * np.array([0.0, 1.0, 0.0])
             + fr.nu[..., :, None] * np.array([0.0, 0.0, 1.0]))
    a_ref, pi_mask = rodrigues_from_matrices(r_ref)
    valid = ~pi_mask
    d_num, b_num = split_about_e3_batched(a_ref)

    b_cf, d_cf = content.b, content.d
    res_b = float(np.abs(b_num[valid] - b_cf[valid]).max()) if np.any(valid) else 0.0
    both = valid & content.valid_d
    res_d = float(np.abs(d_num[both] - d_cf[both]).max()) if np.any(both) else 0.0
    return valid, res_b, res_d


def _normal_gram(nu_u, nu_v):
    """(grad nu)^T (grad nu) from the domain partials of the normal field."""
    a = np.zeros(nu_u.shape[:-1] + (3, 3))
    a[..., 0, 0] = np.einsum("ijk,ijk->ij", nu_u, nu_u)
    a[..., 0, 1] = a[..., 1, 0] = np.einsum("ijk,ijk->ij", nu_u, nu_v)
    a[..., 1, 1] = np.einsum("ijk,ijk->ij", nu_v, nu_v)
    return a


def pure_bending_measure(s: WeierstrassSurface):
    """Pure bending tensor (grad nu)^T (grad nu) over the reference domain.

    Assembled from the closed-form normal partials; equals
    4 / (rho^2 + 1)^2 P(e3) for every datum.
    """
    nu_u, nu_v = s.normal_partials
    return _normal_gram(nu_u, nu_v)


def pure_bending_measure_fd(s: WeierstrassSurface):
    """Finite-difference path for the pure bending tensor.

    Fully independent of the closed forms: normals come from order-4 FD
    tangents of the integrated immersion and their domain gradient from
    order-4 FD of that field.  Statistics should exclude a boundary collar
    of 5 samples, where stencils degrade.
    """
    patch = s.patch(fd_order=4)
    nu_u, nu_v = s.grid.uv_derivatives(*patch._nu_derivs)
    return _normal_gram(nu_u, nu_v)


def normal_fd_residual(s: WeierstrassSurface):
    """Max deviation between order-2 FD immersion normals and the normal map."""
    patch = s.patch()
    mask = s.grid.interior()
    return float(np.abs(patch.nu - s.nu)[mask].max())


def pure_bending_closed_form(grid):
    """Reference value 4 / (rho^2 + 1)^2 P(e3) on the grid."""
    _, _, rho, _ = grid.coords
    fac = 4.0 / (rho**2 + 1.0) ** 2
    a = np.zeros(grid.shape + (3, 3))
    a[..., 0, 0] = fac
    a[..., 1, 1] = fac
    return a
