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

import ast
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import DomainError, InvalidInputError
from .surfcalc import CurvatureData, FrameField, SurfacePatch, path_integrate

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Grid lines per block of the quadrature edge pass: at 384 edges a line,
# each (lines, edges, 16, 3) complex temporary of a block is about 2.4 MB.
EDGE_BLOCK_ROWS = 8


# -- domains -----------------------------------------------------------------


@dataclass(frozen=True)
class DomainGrid:
    """Polar sampling grid in the w-plane: rho in [rmin, rmax], rmin > 0."""

    s: np.ndarray  # rho axis
    t: np.ndarray  # phi axis

    @classmethod
    def polar(cls, rmin, rmax, n_rho, n_phi, phi_min=-np.pi, phi_max=np.pi):
        if rmin <= 0.0:
            raise DomainError("polar grid requires rmin > 0 (w = 0 is a chart singularity)")
        if rmax <= rmin:
            raise InvalidInputError("polar grid requires rmax > rmin")
        return cls(np.linspace(rmin, rmax, n_rho), np.linspace(phi_min, phi_max, n_phi))

    @property
    def shape(self):
        return self.s.size, self.t.size

    @cached_property
    def coords(self):
        """(U, V, RHO, PHI) arrays of shape (ns, nt)."""
        ss, tt = np.meshgrid(self.s, self.t, indexing="ij")
        return ss * np.cos(tt), ss * np.sin(tt), ss, tt

    @property
    def w(self):
        u, v, _, _ = self.coords
        return u + 1j * v

    @cached_property
    def anchor(self):
        """Grid node used as base point (translation fixed to zero there)."""
        i0 = int(np.argmin(np.abs(self.s - 0.5 * (self.s[0] + self.s[-1]))))
        target = 0.0 if self.t[0] <= 0.0 <= self.t[-1] else 0.5 * (self.t[0] + self.t[-1])
        j0 = int(np.argmin(np.abs(self.t - target)))
        return i0, j0

    def chart_laplacian(self, f, order=2):
        """Laplacian in the w-plane of a field sampled on this grid."""
        hs, ht = fd.spacing(self.s), fd.spacing(self.t)
        fss = fd.d2(f, hs, axis=0, order=order)
        ftt = fd.d2(f, ht, axis=1, order=order)
        rho = self.s[:, None]
        if np.asarray(f).ndim == 3:
            rho = rho[..., None]
        fs = fd.d1(f, hs, axis=0, order=order)
        return fss + fs / rho + ftt / rho**2

    def uv_derivatives(self, f_s, f_t):
        """Convert chart derivatives into (d/du, d/dv)."""
        _, _, rho, phi = self.coords
        c, s = np.cos(phi), np.sin(phi)
        if np.asarray(f_s).ndim == 3:
            c, s, rho = c[..., None], s[..., None], rho[..., None]
        f_u = c * f_s - s * f_t / rho
        f_v = s * f_s + c * f_t / rho
        return f_u, f_v

    def interior(self, collar=2):
        return fd.interior_mask(self.shape, collar=collar)

    @cached_property
    def normal(self):
        """Read-only unit normal field, shared by every surface on the grid."""
        nu = normal(self.w)
        nu.setflags(write=False)
        return nu


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


def scherk_midpoint(theta, c=1.0):
    """Intermediate catenoid-helicoid associate ``scherk2``; theta strictly
    in (0, pi/2)."""
    theta = float(theta)
    if not 0.0 < theta < np.pi / 2:
        raise InvalidInputError(
            "theta at an endpoint degenerates to a catenoid or helicoid, "
            "not the intermediate surface")
    return replace(catenoid_helicoid(theta, c), label=f"scherk2:theta={theta:g}")


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
_EXPR_VARS = {"u", "v", "rho", "phi", "pi"}
_EXPR_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
             ast.Pow, ast.UAdd, ast.USub)


def _check_expression(node):
    """Raise unless ``node`` is built from numbers, the variables, calls of
    the listed functions with their exact arity, and arithmetic."""
    if isinstance(node, ast.Expression):
        return _check_expression(node.body)
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise InvalidInputError(f"expression constant {node.value!r} is not a number")
    elif isinstance(node, ast.Name):
        if node.id not in _EXPR_VARS:
            raise InvalidInputError(f"expression uses unknown name {node.id!r}")
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_OPS):
        _check_expression(node.left)
        _check_expression(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _EXPR_OPS):
        _check_expression(node.operand)
    elif isinstance(node, ast.Call):
        name = getattr(node.func, "id", None)  # only a Name node has an id
        fn = _EXPR_FUNCS.get(name)
        if not isinstance(fn, np.ufunc):
            raise InvalidInputError("expression may only call "
                                    + ", ".join(sorted(_EXPR_FUNCS.keys() - {"pi"})))
        # a ufunc's extra positional argument is its output array
        if node.keywords or len(node.args) != fn.nin:
            raise InvalidInputError(f"{name}() takes {fn.nin} positional argument(s)")
        for arg in node.args:
            _check_expression(arg)
    else:
        raise InvalidInputError(
            f"expression may not contain {type(node).__name__} nodes")


class _FloatConstants(ast.NodeTransformer):
    """Replace each number by a name bound to it as np.float64, so that
    constant-only parts such as 1/0 or 10**400 follow numpy semantics (a
    non-finite value, no exception and no huge Python integer)."""

    def __init__(self):
        self.values = {}

    def visit_Constant(self, node):
        name = f"_c{len(self.values)}"
        try:
            self.values[name] = np.float64(node.value)
        except OverflowError as exc:
            raise InvalidInputError(f"expression constant {node.value} is too large") from exc
        return ast.copy_location(ast.Name(name, ast.Load()), node)


def compile_expression(expr):
    try:
        tree = ast.parse(expr, "<datum-expression>", "eval")
    except SyntaxError as exc:
        raise InvalidInputError(f"expression {expr!r} is not valid: {exc.msg}") from exc
    _check_expression(tree)
    constants = _FloatConstants()
    code = compile(constants.visit(tree), "<datum-expression>", "eval")

    def evaluate(u, v, rho, phi):
        ns = dict(_EXPR_FUNCS, **constants.values, u=u, v=v, rho=rho, phi=phi)
        return eval(code, {"__builtins__": {}}, ns)  # noqa: S307 - checked tree

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
        return scherk_midpoint(**_parse_kv(rest, {"theta": np.pi / 4, "c": 1.0}))
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
    out, given = dict(defaults), set()
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in defaults:
                raise InvalidInputError(f"unknown parameter {key!r}")
            if key in given:
                raise InvalidInputError(f"parameter {key!r} is given twice")
            given.add(key)
            try:
                out[key] = float(val)
            except ValueError:
                raise InvalidInputError(
                    f"parameter {key!r} needs a number, got {val!r}") from None
    return out


# -- holomorphy validation -----------------------------------------------------


@dataclass(frozen=True)
class HolomorphyReport:
    max_cauchy_riemann: float
    max_phi_harmonic: float
    max_chi_harmonic: float

    def ok(self):
        """All three residuals below 1e-6 (NaN fails)."""
        tol = 1e-6
        return (self.max_cauchy_riemann < tol and self.max_phi_harmonic < tol
                and self.max_chi_harmonic < tol)


def validate_holomorphy(datum: HolomorphicDatum, grid: DomainGrid):
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
    hp = 3e-3  # probe step in phi, and relative to rho in rho
    hr = hp * rho

    def at(kr, kp):
        r = rho + kr * hr
        p = phi + kp * hp
        return np.stack(datum.values_at(r * np.cos(p), r * np.sin(p), r, p))

    # data that are not finite on the grid report NaN or inf residuals,
    # which fail HolomorphyReport.ok(), instead of warnings
    with np.errstate(all="ignore"):
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


def require_holomorphic(datum: HolomorphicDatum, grid: DomainGrid, failure):
    """Raise InvalidInputError, ``failure`` followed by the residuals,
    unless ``datum`` passes :func:`validate_holomorphy` on the grid."""
    report = validate_holomorphy(datum, grid)
    if not report.ok():
        raise InvalidInputError(
            f"{failure} (CR {report.max_cauchy_riemann:.3e}, harmonicity "
            f"{report.max_phi_harmonic:.3e}/{report.max_chi_harmonic:.3e})")


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
    The grid lines along ``axis`` are integrated ``EDGE_BLOCK_ROWS`` at a
    time into one preallocated array, so the (lines, edges, 16, 3) complex
    temporaries stay a few MB whatever the grid size; every value goes
    through the same operations in the same order for any block size.
    """
    moving = grid.s if axis == 0 else grid.t
    fixed = grid.t if axis == 0 else grid.s
    a, b = moving[:-1], moving[1:]
    half = 0.5 * (b - a)
    sigma = (0.5 * (a + b))[:, None] + half[:, None] * GAUSS_NODES  # (ne, 16)
    out = np.empty((fixed.size, a.size, 3), dtype=complex)           # (nf, ne, 3)
    for start in range(0, fixed.size, EDGE_BLOCK_ROWS):
        rows = fixed[start:start + EDGE_BLOCK_ROWS]
        sig = sigma[None, :, :] + 0.0 * rows[:, None, None]          # (nb, ne, 16)
        fix = rows[:, None, None] + 0.0 * sigma[None, :, :]
        rho, phi = (sig, fix) if axis == 0 else (fix, sig)
        dw = np.exp(1j * phi) if axis == 0 else 1j * rho * np.exp(1j * phi)
        u, v = rho * np.cos(phi), rho * np.sin(phi)
        w = u + 1j * v
        f = datum.f_complex(u, v, rho, phi)
        g = np.stack([0.5 * (1.0 - w * w) * f, 0.5j * (1.0 + w * w) * f, w * f],
                     axis=-1)
        weighted = np.einsum("q,feqk->fek", GAUSS_WEIGHTS,
                             g * (dw * np.ones_like(w))[..., None])
        out[start:start + rows.size] = weighted * half[None, :, None]
    return np.moveaxis(out, 1, 0) if axis == 0 else out


def integrate_representation(datum: HolomorphicDatum, grid: DomainGrid):
    """Build the immersion on the grid; returns a :class:`WeierstrassSurface`.

    Power data F = c w^k take exact antiderivatives.  Every other datum
    must first pass the holomorphy guard, then is integrated by composite
    16-point Gauss-Legendre quadrature along grid lines from the anchor.
    """
    if datum.power is not None:
        _, _, rho, phi = grid.coords
        r = _catalog_position(datum.power, rho, phi)
        r = r - r[grid.anchor]
    else:
        require_holomorphic(datum, grid,
                            f"datum {datum.label!r} fails the holomorphy check")
        edges_s = _edge_integrals(datum, grid, axis=0)
        edges_t = _edge_integrals(datum, grid, axis=1)
        r = path_integrate(edges_s, edges_t, grid.anchor).real
    if not np.all(np.isfinite(r)):
        raise DomainError(f"immersion for {datum.label} is singular on the domain")
    return WeierstrassSurface(datum, grid, r)


# -- the surface object ----------------------------------------------------------


class WeierstrassSurface:
    """Sampled minimal immersion together with its closed-form fields."""

    def __init__(self, datum, grid, r):
        self.datum = datum
        self.grid = grid
        self.r = np.asarray(r, dtype=float)
        u, v, rho, _ = grid.coords
        self.Phi, self.chi = datum.sample(grid)
        if not np.all(np.isfinite(self.Phi)):
            raise DomainError("Phi is not finite on the domain (F = 0 or singular)")
        self.r_u, self.r_v = _metric_vectors_from(self.Phi, self.chi, u, v)
        self.conformal_factor = 0.5 * np.exp(self.Phi) * (rho**2 + 1.0)
        self.nu = grid.normal

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

    def harmonicity_residual(self):
        """Max |w-plane laplacian of r| over the interior, scale-relative."""
        lap = self.grid.chart_laplacian(self.r)
        mask = self.grid.interior()
        scale = np.abs(self.conformal_factor[mask]).max()
        return float(np.abs(lap[mask]).max() / scale)

    def patch(self, fd_order=2, analytic="none") -> SurfacePatch:
        """SurfacePatch view; ``analytic`` in {"none", "full"}.

        "none" leaves every derivative to finite differences of r; "full"
        supplies the closed-form chart tangents, normal and normal
        derivatives, leaving nothing to finite differences but field-level
        operations.
        """
        if analytic == "none":
            return SurfacePatch(self.grid.s, self.grid.t, self.r, fd_order=fd_order)
        if analytic != "full":
            raise InvalidInputError("analytic must be 'none' or 'full'")
        r_s, r_t = self._to_chart(self.r_u, self.r_v)
        nu_u, nu_v = self.normal_partials
        nu_s, nu_t = self._to_chart(nu_u, nu_v)
        return SurfacePatch(self.grid.s, self.grid.t, self.r, r_s=r_s, r_t=r_t,
                            nu=self.nu, nu_s=nu_s, nu_t=nu_t, fd_order=fd_order)

    def _to_chart(self, f_u, f_v):
        _, _, rho, phi = self.grid.coords
        c, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
        rr = rho[..., None]
        return c * f_u + s * f_v, -rr * s * f_u + rr * c * f_v

    @property
    def rim_scale(self):
        """|r| at the outer-rim node nearest phi = 0 (gallery scaling factor)."""
        j = int(np.argmin(np.abs(self.grid.t)))
        return float(np.linalg.norm(self.r[-1, j]))
