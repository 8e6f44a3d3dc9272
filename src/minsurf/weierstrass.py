"""Minimal surfaces from holomorphic data F = exp(Phi + i chi).

The immersion is recovered from three contour integrals of F over a planar
domain; the parameter w = u + iv is the stereographic projection of the
unit normal, so every datum on the same domain produces a surface with the
same system of normals.  Closed forms for the metric vectors, normal and
curvature tensor are provided as analytic ground truth, with an
independent Gauss-Legendre quadrature path for the immersion itself.

Branch convention: non-integer powers and logarithms are taken with the
angular coordinate supplied by the grid, cut at phi = +/-pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import DomainError, InvalidInputError
from .surfcalc import CurvatureData, FrameField, SurfacePatch

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


# -- domains -----------------------------------------------------------------


@dataclass(frozen=True)
class DomainGrid:
    """Rectangular sampling grid in the w-plane, polar or cartesian."""

    kind: str
    s: np.ndarray  # rho axis (polar) or u axis (cartesian)
    t: np.ndarray  # phi axis (polar) or v axis (cartesian)

    @classmethod
    def polar(cls, rmin, rmax, n_rho, n_phi, phi_min=-np.pi, phi_max=np.pi):
        if rmin <= 0.0:
            raise DomainError("polar grid requires rmin > 0 (w = 0 is a chart singularity)")
        if rmax <= rmin:
            raise InvalidInputError("polar grid requires rmax > rmin")
        return cls("polar", np.linspace(rmin, rmax, n_rho),
                   np.linspace(phi_min, phi_max, n_phi))

    @classmethod
    def cartesian(cls, u0, u1, v0, v1, nu, nv):
        if u1 <= u0 or v1 <= v0:
            raise InvalidInputError("empty cartesian domain")
        return cls("cartesian", np.linspace(u0, u1, nu), np.linspace(v0, v1, nv))

    def __post_init__(self):
        if self.kind not in ("polar", "cartesian"):
            raise InvalidInputError(f"unknown grid kind {self.kind!r}")

    @property
    def shape(self):
        return self.s.size, self.t.size

    @cached_property
    def coords(self):
        """(U, V, RHO, PHI) arrays of shape (ns, nt)."""
        ss, tt = np.meshgrid(self.s, self.t, indexing="ij")
        if self.kind == "polar":
            return ss * np.cos(tt), ss * np.sin(tt), ss, tt
        return ss, tt, np.hypot(ss, tt), np.arctan2(tt, ss)

    @property
    def w(self):
        u, v, _, _ = self.coords
        return u + 1j * v

    @cached_property
    def anchor(self):
        """Grid node used as base point (translation fixed to zero there)."""
        if self.kind == "polar":
            i0 = int(np.argmin(np.abs(self.s - 0.5 * (self.s[0] + self.s[-1]))))
            target = 0.0 if self.t[0] <= 0.0 <= self.t[-1] else 0.5 * (self.t[0] + self.t[-1])
            j0 = int(np.argmin(np.abs(self.t - target)))
        else:
            i0, j0 = self.s.size // 2, self.t.size // 2
        return i0, j0

    def chart_laplacian(self, f, order=2):
        """Laplacian in the w-plane of a field sampled on this grid."""
        hs, ht = fd.spacing(self.s), fd.spacing(self.t)
        fss = fd.d2(f, hs, axis=0, order=order)
        ftt = fd.d2(f, ht, axis=1, order=order)
        if self.kind == "cartesian":
            return fss + ftt
        rho = self.s[:, None]
        if np.asarray(f).ndim == 3:
            rho = rho[..., None]
        fs = fd.d1(f, hs, axis=0, order=order)
        return fss + fs / rho + ftt / rho**2

    def uv_derivatives(self, f_s, f_t):
        """Convert chart derivatives into (d/du, d/dv)."""
        if self.kind == "cartesian":
            return f_s, f_t
        _, _, rho, phi = self.coords
        c, s = np.cos(phi), np.sin(phi)
        if np.asarray(f_s).ndim == 3:
            c, s, rho = c[..., None], s[..., None], rho[..., None]
        f_u = c * f_s - s * f_t / rho
        f_v = s * f_s + c * f_t / rho
        return f_u, f_v

    def interior(self, collar=2):
        return fd.interior_mask(self.shape, collar=collar)


# -- holomorphic data ----------------------------------------------------------


@dataclass(frozen=True)
class HolomorphicDatum:
    """Weierstrass function as the real pair (Phi, chi) of log F.

    The callables receive (u, v, rho, phi) so data written in either
    cartesian or polar form evaluate consistently with the grid's branch
    of the angle.  ``power = (c, k)`` marks F = c w^k, unlocking exact
    antiderivatives.
    """

    label: str
    phi_fn: Callable
    chi_fn: Callable
    power: Optional[tuple] = None

    def sample(self, grid: DomainGrid):
        u, v, rho, phi = grid.coords
        phi_val, chi_val = self.values_at(u, v, rho, phi)
        return np.asarray(phi_val, dtype=float), np.asarray(chi_val, dtype=float)

    def values_at(self, u, v, rho, phi):
        shape = np.shape(u)
        p = np.broadcast_to(np.asarray(self.phi_fn(u, v, rho, phi), dtype=float), shape)
        c = np.broadcast_to(np.asarray(self.chi_fn(u, v, rho, phi), dtype=float), shape)
        return p, c

    def f_complex(self, u, v, rho, phi):
        p, c = self.values_at(u, v, rho, phi)
        return np.exp(p + 1j * c)

    @property
    def singular_at_zero(self):
        return self.power is not None and self.power[1] < 0.0

    def shifted(self, dphi, dchi, label=None):
        """Datum with (Phi + dphi, chi + dchi); loses the power fast path."""
        base_phi, base_chi = self.phi_fn, self.chi_fn
        return HolomorphicDatum(
            label or f"{self.label}+shift",
            lambda u, v, r, p: base_phi(u, v, r, p) + dphi(u, v, r, p),
            lambda u, v, r, p: base_chi(u, v, r, p) + dchi(u, v, r, p),
        )


def from_power(c, k, label=None):
    """Datum for F = c w^k: Phi = ln|c| + k ln rho, chi = arg c + k phi."""
    c = complex(c)
    if c == 0:
        raise InvalidInputError("power datum needs c != 0")
    k = float(k)
    lc, ac = np.log(abs(c)), np.angle(c)
    if k == 0.0:
        phi_fn = lambda u, v, rho, phi: lc + 0.0 * np.asarray(u, dtype=float)
        chi_fn = lambda u, v, rho, phi: ac + 0.0 * np.asarray(u, dtype=float)
    else:
        phi_fn = lambda u, v, rho, phi: lc + k * np.log(rho)
        chi_fn = lambda u, v, rho, phi: ac + k * phi
    return HolomorphicDatum(label or f"power(c={c}, k={k:g})",
                            phi_fn, chi_fn, power=(c, k))


def enneper():
    return from_power(1.0, 0.0, "enneper")


def bour(m):
    return from_power(1.0, float(m) - 2.0, f"bour:m={float(m):g}")


def catenoid(c=1.0):
    return from_power(float(c), -2.0, "catenoid")


def helicoid(c=1.0):
    return from_power(1j * float(c), -2.0, "helicoid")


def catenoid_helicoid(theta, c=1.0):
    """Member F = (c/w^2) e^{i theta} of the catenoid-helicoid family."""
    return from_power(float(c) * np.exp(1j * float(theta)), -2.0,
                      f"catenoid-helicoid:theta={float(theta):g}")


def bonnet_transform(base: HolomorphicDatum, theta):
    """F -> e^{i theta} F: same Phi, chi shifted by the constant theta."""
    theta = float(theta)
    label = f"bonnet:theta={theta:g}:{base.label}"
    if base.power is not None:
        c, k = base.power
        out = from_power(c * np.exp(1j * theta), k, label)
        return out
    chi0 = base.chi_fn
    return HolomorphicDatum(label, base.phi_fn,
                            lambda u, v, r, p: chi0(u, v, r, p) + theta)


# Expression-based custom data: real-coefficient expressions in u, v, rho,
# phi with the listed function names, evaluated with numpy semantics.
_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "ln": np.log, "log": np.log,
    "exp": np.exp, "sqrt": np.sqrt, "pow": np.power, "abs": np.abs, "pi": np.pi,
}


def compile_expression(expr):
    code = compile(expr, "<datum-expression>", "eval")
    allowed = set(_EXPR_FUNCS) | {"u", "v", "rho", "phi"}
    bad = set(code.co_names) - allowed
    if bad:
        raise InvalidInputError(f"expression uses unknown names: {sorted(bad)}")

    def evaluate(u, v, rho, phi):
        ns = dict(_EXPR_FUNCS, u=u, v=v, rho=rho, phi=phi)
        return eval(code, {"__builtins__": {}}, ns)  # noqa: S307 - closed namespace

    return evaluate


def custom(phi_expr, chi_expr):
    return HolomorphicDatum(
        f"custom:{phi_expr};{chi_expr}",
        compile_expression(phi_expr),
        compile_expression(chi_expr),
    )


def parse_surface_spec(spec):
    """Parse catalog names like ``bour:m=3`` or ``custom:<Phi>;<chi>``."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if head == "enneper":
        return enneper()
    if head == "catenoid":
        return catenoid(**_parse_kv(rest, {"c": 1.0}))
    if head == "helicoid":
        return helicoid(**_parse_kv(rest, {"c": 1.0}))
    if head == "bour":
        return bour(_parse_kv(rest, {"m": 3.0})["m"])
    if head == "scherk2":
        kv = _parse_kv(rest, {"theta": np.pi / 4, "c": 1.0})
        if not 0.0 < kv["theta"] < np.pi / 2:
            raise InvalidInputError("scherk2 needs theta strictly inside (0, pi/2)")
        member = catenoid_helicoid(kv["theta"], kv["c"])
        return HolomorphicDatum(f"scherk2:theta={kv['theta']:g}", member.phi_fn,
                                member.chi_fn, power=member.power)
    if head == "bonnet":
        kv_str, _, base_str = rest.partition(":")
        kv = _parse_kv(kv_str, {"theta": np.pi / 2})
        base = parse_surface_spec(base_str) if base_str else enneper()
        return bonnet_transform(base, kv["theta"])
    if head == "custom":
        phi_expr, sep, chi_expr = rest.partition(";")
        if not sep:
            raise InvalidInputError("custom datum needs 'custom:<Phi-expr>;<chi-expr>'")
        return custom(phi_expr, chi_expr)
    raise InvalidInputError(f"unknown surface spec {spec!r}")


def _parse_kv(text, defaults):
    out = dict(defaults)
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in defaults:
                raise InvalidInputError(f"unknown parameter {key!r}")
            out[key] = float(val)
    return out


# -- holomorphy validation -----------------------------------------------------


@dataclass(frozen=True)
class HolomorphyReport:
    max_cauchy_riemann: float
    max_phi_harmonic: float
    max_chi_harmonic: float

    def ok(self, tol=1e-6):
        return (self.max_cauchy_riemann < tol and self.max_phi_harmonic < tol
                and self.max_chi_harmonic < tol)


def validate_holomorphy(datum: HolomorphicDatum, grid: DomainGrid, step=3e-3):
    """Cauchy-Riemann and harmonicity residuals of (Phi, chi) on the grid.

    Residuals are formed in polar variables with order-4 stencils at an
    analytic probe step independent of the grid spacing (radially scaled
    with rho so log-type data stay well conditioned), so well-posed data
    report near machine zero while broken data report O(1).
    """
    _, _, rho, phi = grid.coords
    usable = rho > 1e-12
    if not np.any(usable):
        raise InvalidInputError("grid degenerates to w = 0; cannot probe holomorphy")
    rho, phi = rho[usable], phi[usable]
    hr = float(step) * rho
    hp = float(step)

    def at(kr, kp):
        r = rho + kr * hr
        p = phi + kp * hp
        return np.stack(datum.values_at(r * np.cos(p), r * np.sin(p), r, p))

    center = at(0, 0)
    rm2, rm1, rp1, rp2 = at(-2, 0), at(-1, 0), at(1, 0), at(2, 0)
    pm2, pm1, pp1, pp2 = at(0, -2), at(0, -1), at(0, 1), at(0, 2)

    d_r = (-rp2 + 8 * rp1 - 8 * rm1 + rm2) / (12 * hr)
    d_p = (-pp2 + 8 * pp1 - 8 * pm1 + pm2) / (12 * hp)
    d_rr = (-rp2 + 16 * rp1 - 30 * center + 16 * rm1 - rm2) / (12 * hr * hr)
    d_pp = (-pp2 + 16 * pp1 - 30 * center + 16 * pm1 - pm2) / (12 * hp * hp)

    cr = np.abs(d_r[0] - d_p[1] / rho) + np.abs(d_p[0] / rho + d_r[1])
    lap = d_rr + d_r / rho + d_pp / rho**2
    return HolomorphyReport(float(cr.max()), float(np.abs(lap[0]).max()),
                            float(np.abs(lap[1]).max()))


# -- closed forms ---------------------------------------------------------------


def normal(w):
    """Unit normal at w; the same for every datum on the domain."""
    w = np.asarray(w, dtype=complex)
    u, v = w.real, w.imag
    den = u * u + v * v + 1.0
    return np.stack([2.0 * u / den, 2.0 * v / den, (u * u + v * v - 1.0) / den],
                    axis=-1)


def _metric_vectors_from(phi_val, chi_val, u, v):
    ep = np.exp(phi_val)
    cc, sc = np.cos(chi_val), np.sin(chi_val)
    uv = u * v
    a = 0.5 * (1.0 - u * u + v * v)
    b = 0.5 * (1.0 + u * u - v * v)
    r_u = ep[..., None] * np.stack([
        uv * sc + a * cc,
        -(uv * cc + b * sc),
        u * cc - v * sc,
    ], axis=-1)
    r_v = ep[..., None] * np.stack([
        uv * cc - a * sc,
        uv * sc - b * cc,
        -(u * sc + v * cc),
    ], axis=-1)
    return r_u, r_v


def metric_vectors(datum: HolomorphicDatum, w):
    """Closed-form (r_u, r_v); |r_u| = |r_v| = e^Phi (|w|^2 + 1)/2, r_u . r_v = 0."""
    w = np.asarray(w, dtype=complex)
    u, v = w.real, w.imag
    p, c = datum.values_at(u, v, np.abs(w), np.angle(w))
    return _metric_vectors_from(p, c, u, v)


def _normal_partials(chi_val, e_u, e_v, u, v):
    """Closed-form (nu_u, nu_v), expanded in the surface frame."""
    fac = (2.0 / (u * u + v * v + 1.0))[..., None]
    cc, sc = np.cos(chi_val)[..., None], np.sin(chi_val)[..., None]
    return fac * (cc * e_u - sc * e_v), -fac * (sc * e_u + cc * e_v)


def curvature_closed_form(datum: HolomorphicDatum, w) -> CurvatureData:
    """Principal curvatures +/- kappa with kappa = 4 / (e^Phi (rho^2 + 1)^2).

    The principal frame is (e_u, e_v) rotated by -chi/2 about the normal,
    and the full tensor is kappa (n1 x n1 - n2 x n2), the dyadic expansion
    of kappa R_nu(-chi)(e_u x e_u - e_v x e_v).
    """
    w = np.asarray(w, dtype=complex)
    u, v = w.real, w.imag
    rho2 = u * u + v * v
    p, c = datum.values_at(u, v, np.sqrt(rho2), np.angle(w))
    r_u, r_v = _metric_vectors_from(p, c, u, v)
    m = (0.5 * np.exp(p) * (rho2 + 1.0))[..., None]
    e_u, e_v = r_u / m, r_v / m

    kappa = 4.0 / (np.exp(p) * (rho2 + 1.0) ** 2)
    half = 0.5 * c
    n1 = np.cos(half)[..., None] * e_u - np.sin(half)[..., None] * e_v
    n2 = np.sin(half)[..., None] * e_u + np.cos(half)[..., None] * e_v
    sop = kappa[..., None, None] * (
        n1[..., :, None] * n1[..., None, :] - n2[..., :, None] * n2[..., None, :])
    zeros = np.zeros_like(kappa)
    return CurvatureData(sop, kappa, -kappa, n1, n2, zeros, -kappa**2,
                         np.zeros(np.shape(kappa), dtype=bool))


# -- representation integrals ---------------------------------------------------


def _power_antiderivative(c, e, rho, phi):
    """Antiderivative of c w^e on the continuous branch given by (rho, phi)."""
    if abs(e + 1.0) < 1e-14:
        return c * (np.log(rho) + 1j * phi)
    ee = e + 1.0
    return c * rho**ee * np.exp(1j * ee * phi) / ee


def _catalog_position(power, rho, phi):
    c, k = power
    a_k = _power_antiderivative(c, k, rho, phi)
    a_k2 = _power_antiderivative(c, k + 2.0, rho, phi)
    a_k1 = _power_antiderivative(c, k + 1.0, rho, phi)
    i1 = 0.5 * (a_k - a_k2)
    i2 = 0.5j * (a_k + a_k2)
    return np.stack([i1.real, i2.real, a_k1.real], axis=-1)


def _edge_integrals(datum, grid, axis):
    """16-point Gauss-Legendre integrals of the representation integrands
    over every grid edge along the given axis.

    Returns (ns-1, nt, 3) complex for axis 0 and (ns, nt-1, 3) for axis 1.
    """
    moving = grid.s if axis == 0 else grid.t
    fixed = grid.t if axis == 0 else grid.s
    a, b = moving[:-1], moving[1:]
    half = 0.5 * (b - a)
    sigma = (0.5 * (a + b))[:, None] + half[:, None] * GAUSS_NODES  # (ne, 16)
    sig = sigma[None, :, :] + 0.0 * fixed[:, None, None]            # (nf, ne, 16)
    fix = fixed[:, None, None] + 0.0 * sigma[None, :, :]

    if grid.kind == "polar":
        rho, phi = (sig, fix) if axis == 0 else (fix, sig)
        dw = np.exp(1j * phi) if axis == 0 else 1j * rho * np.exp(1j * phi)
        u, v = rho * np.cos(phi), rho * np.sin(phi)
    else:
        u, v = (sig, fix) if axis == 0 else (fix, sig)
        dw = np.full(u.shape, 1.0 if axis == 0 else 1.0j, dtype=complex)
        rho, phi = np.hypot(u, v), np.arctan2(v, u)

    w = u + 1j * v
    f = datum.f_complex(u, v, rho, phi)
    g = np.stack([0.5 * (1.0 - w * w) * f, 0.5j * (1.0 + w * w) * f, w * f],
                 axis=-1)
    weighted = np.einsum("q,feqk->fek", GAUSS_WEIGHTS, g * (dw * np.ones_like(w))[..., None])
    out = weighted * half[None, :, None]
    return np.moveaxis(out, 1, 0) if axis == 0 else out


def _quadrature_position(edges_s, edges_t, anchor, column_first=False):
    """Cumulative path integrals from the anchor node along grid lines,
    given the edge integrals of both axes (:func:`_edge_integrals`)."""
    i0, j0 = anchor
    ns, nt = edges_t.shape[0], edges_s.shape[1]
    out = np.zeros((ns, nt, 3), dtype=complex)

    if column_first:
        col = edges_s[:, j0, :]
        along = np.zeros((ns, 3), dtype=complex)
        along[i0 + 1:] = np.cumsum(col[i0:], axis=0)
        along[:i0] = -np.cumsum(col[:i0][::-1], axis=0)[::-1]
        out[:, j0 + 1:, :] = np.cumsum(edges_t[:, j0:, :], axis=1)
        out[:, :j0, :] = -np.cumsum(edges_t[:, :j0, :][:, ::-1, :], axis=1)[:, ::-1, :]
        out += along[:, None, :]
    else:
        row = edges_t[i0, :, :]
        along = np.zeros((nt, 3), dtype=complex)
        along[j0 + 1:] = np.cumsum(row[j0:], axis=0)
        along[:j0] = -np.cumsum(row[:j0][::-1], axis=0)[::-1]
        out[i0 + 1:, :, :] = np.cumsum(edges_s[i0:, :, :], axis=0)
        out[:i0, :, :] = -np.cumsum(edges_s[:i0, :, :][::-1, :, :], axis=0)[::-1, :, :]
        out += along[None, :, :]
    return out.real


def integrate_representation(datum: HolomorphicDatum, grid: DomainGrid,
                             method="auto"):
    """Build the immersion on the grid; returns a :class:`WeierstrassSurface`.

    ``method``: "catalog" uses exact antiderivatives (power data only),
    "quadrature" uses composite 16-point Gauss-Legendre along grid lines
    from the base node, "auto" picks catalog when available.
    """
    if method not in ("auto", "catalog", "quadrature"):
        raise InvalidInputError("method must be auto, catalog or quadrature")
    if datum.singular_at_zero and grid.kind != "polar":
        raise DomainError(f"{datum.label} is singular at w = 0; use an annulus "
                          "(polar grid with rmin > 0)")
    if method == "catalog" and datum.power is None:
        raise InvalidInputError("catalog method requires a power-law datum")
    use_catalog = datum.power is not None and method != "quadrature"
    if datum.power is None:
        # pure powers are holomorphic by construction; anything else gets
        # the Cauchy-Riemann guard before money is spent on quadrature
        report = validate_holomorphy(datum, grid)
        if not report.ok(1e-6):
            raise InvalidInputError(
                f"datum {datum.label!r} fails the holomorphy check "
                f"(CR {report.max_cauchy_riemann:.3e}, harmonicity "
                f"{report.max_phi_harmonic:.3e}/{report.max_chi_harmonic:.3e})")

    path_residual = 0.0
    if use_catalog:
        _, _, rho, phi = grid.coords
        r = _catalog_position(datum.power, rho, phi)
    else:
        edges_s = _edge_integrals(datum, grid, axis=0)
        edges_t = _edge_integrals(datum, grid, axis=1)
        r = _quadrature_position(edges_s, edges_t, grid.anchor)
        alt = _quadrature_position(edges_s, edges_t, grid.anchor,
                                   column_first=True)
        path_residual = float(np.abs(r - alt).max())
    i0, j0 = grid.anchor
    r = r - r[i0, j0]
    if not np.all(np.isfinite(r)):
        raise DomainError(f"immersion for {datum.label} is singular on the domain")
    return WeierstrassSurface(datum, grid, r, path_residual=path_residual)


# -- the surface object ----------------------------------------------------------


class WeierstrassSurface:
    """Sampled minimal immersion together with its closed-form fields."""

    def __init__(self, datum, grid, r, path_residual=0.0):
        self.datum = datum
        self.grid = grid
        self.r = np.asarray(r, dtype=float)
        self.path_residual = path_residual
        u, v, rho, _ = grid.coords
        self.Phi, self.chi = datum.sample(grid)
        if not np.all(np.isfinite(self.Phi)):
            raise DomainError("Phi is not finite on the domain (F = 0 or singular)")
        self.r_u, self.r_v = _metric_vectors_from(self.Phi, self.chi, u, v)
        self.conformal_factor = 0.5 * np.exp(self.Phi) * (rho**2 + 1.0)
        self.nu = normal(grid.w)

    @cached_property
    def frames(self) -> FrameField:
        m = self.conformal_factor[..., None]
        return FrameField(self.r_u / m, self.r_v / m, self.nu)

    @cached_property
    def curvature(self) -> CurvatureData:
        return curvature_closed_form(self.datum, self.grid.w)

    @cached_property
    def normal_partials(self):
        fr = self.frames
        u, v, _, _ = self.grid.coords
        return _normal_partials(self.chi, fr.e_u, fr.e_v, u, v)

    def isothermal_residuals(self):
        """Relative residuals of |r_u| = |r_v| and r_u . r_v = 0."""
        m = self.conformal_factor
        nu_ = np.linalg.norm(self.r_u, axis=-1)
        nv_ = np.linalg.norm(self.r_v, axis=-1)
        dot = np.einsum("ijk,ijk->ij", self.r_u, self.r_v)
        return (float(np.abs(nu_ - nv_).max() / m.max()),
                float(np.abs(dot).max() / (m**2).max()))

    def harmonicity_residual(self, fd_order=2):
        """Max |w-plane laplacian of r| over the interior, scale-relative."""
        lap = self.grid.chart_laplacian(self.r, order=fd_order)
        mask = self.grid.interior()
        scale = np.abs(self.conformal_factor[mask]).max()
        return float(np.abs(lap[mask]).max() / scale)

    def patch(self, fd_order=2, analytic="none") -> SurfacePatch:
        """SurfacePatch view; ``analytic`` in {"none", "first", "full"}.

        "first" supplies the closed-form chart tangents; "full" also the
        closed-form normal and its chart derivatives, leaving nothing to
        finite differences but field-level operations.
        """
        if analytic == "none":
            return SurfacePatch(self.grid.s, self.grid.t, self.r, fd_order=fd_order)
        r_s, r_t = self._to_chart(self.r_u, self.r_v)
        if analytic == "first":
            return SurfacePatch(self.grid.s, self.grid.t, self.r,
                                r_s=r_s, r_t=r_t, fd_order=fd_order)
        if analytic != "full":
            raise InvalidInputError("analytic must be 'none', 'first' or 'full'")
        nu_u, nu_v = self.normal_partials
        nu_s, nu_t = self._to_chart(nu_u, nu_v)
        return SurfacePatch(self.grid.s, self.grid.t, self.r, r_s=r_s, r_t=r_t,
                            nu=self.nu, nu_s=nu_s, nu_t=nu_t, fd_order=fd_order)

    def _to_chart(self, f_u, f_v):
        if self.grid.kind == "cartesian":
            return f_u, f_v
        _, _, rho, phi = self.grid.coords
        c, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
        rr = rho[..., None]
        return c * f_u + s * f_v, -rr * s * f_u + rr * c * f_v

    @property
    def rim_scale(self):
        """|r| at the outer-rim node nearest phi = 0 (gallery scaling factor)."""
        if self.grid.kind == "polar":
            j = int(np.argmin(np.abs(self.grid.t)))
            return float(np.linalg.norm(self.r[-1, j]))
        return float(np.linalg.norm(self.r[-1, self.grid.t.size // 2]))
