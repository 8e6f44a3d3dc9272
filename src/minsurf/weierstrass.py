"""Minimal surfaces from holomorphic data F = exp(Phi + i chi).

The immersion is recovered from three contour integrals of F over a planar
domain; the parameter w = u + iv is the stereographic projection of the
unit normal, so every datum on the same domain produces a surface with the
same system of normals.  Closed forms for the metric vectors, normal,
Gauss curvature and curvature tensor are the analytic ground truth, each
computed by the call that reads it; a surface keeps only its samples.
An independent Gauss-Legendre quadrature path builds non-power immersions.

Branch convention: non-integer powers and logarithms are taken with the
angular coordinate supplied by the grid, cut at phi = +/-pi.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from . import fd
from .blocks import ordered_map
from .errors import DomainError, InvalidInputError
from .surfcalc import CurvatureData, FrameField, SurfacePatch, path_integrate

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
        for name, value in (("rmax", rmax), ("rmin", rmin)):
            if not np.isfinite(value):
                raise InvalidInputError(f"polar grid requires a finite {name}, got {value}")
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
        return self.values_at(*grid.coords)

    def values_at(self, u, v, rho, phi):
        shape = np.shape(u)
        p = np.broadcast_to(np.asarray(self.phi_fn(u, v, rho, phi), dtype=float), shape)
        c = np.broadcast_to(np.asarray(self.chi_fn(u, v, rho, phi), dtype=float), shape)
        return p, c

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
        return from_power(c * np.exp(1j * theta), k, label)
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
_EXPR_MAX_CHARS = 1000  # keeps ast.parse far from its recursion limit
_EXPR_MAX_DEPTH = 256   # keeps _checked far from Python's recursion limit


def _depth(tree):
    """Nesting depth of an AST, found level by level without recursion."""
    depth, level = 0, [tree]
    while level:
        depth += 1
        level = [child for node in level for child in ast.iter_child_nodes(node)]
    return depth


def _checked(node, constants):
    """``node`` with each number replaced by a name that ``constants`` binds
    to it as np.float64, so that constant-only parts such as 1/0 or 10**400
    follow numpy semantics (a non-finite value, no exception and no huge
    Python integer).  Raises unless ``node`` is built from numbers, the
    variables, calls of the listed functions with their exact arity, and
    arithmetic."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise InvalidInputError(f"expression constant {node.value!r} is not a number")
        name = f"_c{len(constants)}"
        try:
            constants[name] = np.float64(node.value)
        except OverflowError as exc:
            raise InvalidInputError(f"expression constant {node.value} is too large") from exc
        return ast.copy_location(ast.Name(name, ast.Load()), node)
    if isinstance(node, ast.Name):
        if node.id not in _EXPR_VARS:
            raise InvalidInputError(f"expression uses unknown name {node.id!r}")
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_OPS):
        node.left = _checked(node.left, constants)
        node.right = _checked(node.right, constants)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _EXPR_OPS):
        node.operand = _checked(node.operand, constants)
    elif isinstance(node, ast.Call):
        name = getattr(node.func, "id", None)  # only a Name node has an id
        fn = _EXPR_FUNCS.get(name)
        if not isinstance(fn, np.ufunc):
            raise InvalidInputError("expression may only call "
                                    + ", ".join(sorted(_EXPR_FUNCS.keys() - {"pi"})))
        # a ufunc's extra positional argument is its output array
        if node.keywords or len(node.args) != fn.nin:
            raise InvalidInputError(f"{name}() takes {fn.nin} positional argument(s)")
        node.args = [_checked(arg, constants) for arg in node.args]
    else:
        raise InvalidInputError(
            f"expression may not contain {type(node).__name__} nodes")
    return node


def compile_expression(expr):
    if len(expr) > _EXPR_MAX_CHARS:
        raise InvalidInputError(
            f"expression is longer than {_EXPR_MAX_CHARS} characters")
    try:
        tree = ast.parse(expr, "<datum-expression>", "eval")
    except SyntaxError as exc:
        raise InvalidInputError(f"expression {expr!r} is not valid: {exc.msg}") from exc
    if _depth(tree) > _EXPR_MAX_DEPTH:
        raise InvalidInputError(
            f"expression is nested deeper than {_EXPR_MAX_DEPTH} levels")
    constants = {}
    tree.body = _checked(tree.body, constants)
    code = compile(tree, "<datum-expression>", "eval")

    def evaluate(u, v, rho, phi):
        ns = dict(_EXPR_FUNCS, **constants, u=u, v=v, rho=rho, phi=phi)
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
            if not np.isfinite(out[key]):
                raise InvalidInputError(
                    f"parameter {key!r} must be finite, got {out[key]}")
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


def _kappa_closed_form(datum: HolomorphicDatum, w):
    """(u, v, rho^2, Phi, chi, kappa): the datum sampled at (|w|, arg w) and
    kappa = 4 / (e^Phi (rho^2 + 1)^2), for curvature_closed_form and K."""
    w = np.asarray(w, dtype=complex)
    u, v = w.real, w.imag
    rho2 = u * u + v * v
    p, c = datum.values_at(u, v, np.sqrt(rho2), np.angle(w))
    return u, v, rho2, p, c, 4.0 / (np.exp(p) * (rho2 + 1.0) ** 2)


def curvature_closed_form(datum: HolomorphicDatum, w) -> CurvatureData:
    """Principal curvatures +/- kappa with kappa = 4 / (e^Phi (rho^2 + 1)^2).

    The principal frame is (e_u, e_v) rotated by -chi/2 about the normal,
    and the full tensor is kappa (n1 x n1 - n2 x n2), the dyadic expansion
    of kappa R_nu(-chi)(e_u x e_u - e_v x e_v).
    """
    u, v, rho2, p, c, kappa = _kappa_closed_form(datum, w)
    r_u, r_v = _metric_vectors_from(p, c, u, v)
    m = (0.5 * np.exp(p) * (rho2 + 1.0))[..., None]
    e_u, e_v = r_u / m, r_v / m

    half = 0.5 * c
    n1 = np.cos(half)[..., None] * e_u - np.sin(half)[..., None] * e_v
    n2 = np.sin(half)[..., None] * e_u + np.cos(half)[..., None] * e_v
    sop = kappa[..., None, None] * (
        n1[..., :, None] * n1[..., None, :] - n2[..., :, None] * n2[..., None, :])
    return CurvatureData(sop, kappa, -kappa, n1, n2, np.zeros_like(kappa), -kappa**2,
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


@cache
def _gauss_rule():
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1],
    computed on first use: only non-power data are integrated by it."""
    return np.polynomial.legendre.leggauss(16)


def _edge_integrals(datum, grid, axis, workers=1):
    """16-point Gauss-Legendre integrals of the representation integrands
    over every grid edge along the given axis (for the immersion, axis 1 on
    the anchor row's one-row grid: the only t-edges its path reads).

    Returns (ns-1, nt, 3) complex for axis 0 and (ns, nt-1, 3) for axis 1.
    The grid lines along ``axis`` are integrated ``EDGE_BLOCK_ROWS`` at a
    time into one preallocated array, so the (lines, edges, 16, 3) complex
    temporaries stay a few MB whatever the grid size; the blocks are shared
    among ``workers`` processes.  Every value goes through the same
    operations in the same order for any block size and worker count.
    """
    nodes, weights = _gauss_rule()
    moving = grid.s if axis == 0 else grid.t
    fixed = grid.t if axis == 0 else grid.s
    a, b = moving[:-1], moving[1:]
    half = 0.5 * (b - a)
    sigma = (0.5 * (a + b))[:, None] + half[:, None] * nodes  # (ne, 16)

    def block(start):
        rows = fixed[start:start + EDGE_BLOCK_ROWS]
        sig = sigma[None, :, :] + 0.0 * rows[:, None, None]          # (nb, ne, 16)
        fix = rows[:, None, None] + 0.0 * sigma[None, :, :]
        rho, phi = (sig, fix) if axis == 0 else (fix, sig)
        dw = np.exp(1j * phi) if axis == 0 else 1j * rho * np.exp(1j * phi)
        u, v = rho * np.cos(phi), rho * np.sin(phi)
        w = u + 1j * v
        p, c = datum.values_at(u, v, rho, phi)
        f = np.exp(p + 1j * c)
        g = np.stack([0.5 * (1.0 - w * w) * f, 0.5j * (1.0 + w * w) * f, w * f],
                     axis=-1)
        weighted = np.einsum("q,feqk->fek", weights,
                             g * (dw * np.ones_like(w))[..., None])
        return (weighted * half[None, :, None]).tobytes()

    out = np.empty((fixed.size, a.size, 3), dtype=complex)           # (nf, ne, 3)
    starts = range(0, fixed.size, EDGE_BLOCK_ROWS)
    for start, data in zip(starts, ordered_map(block, starts, workers)):
        out[start:start + EDGE_BLOCK_ROWS] = np.frombuffer(data, complex).reshape(
            -1, a.size, 3)
    return np.moveaxis(out, 1, 0) if axis == 0 else out


def integrate_representation(datum: HolomorphicDatum, grid: DomainGrid, workers=1,
                             *, _checked=False):
    """Build the immersion on the grid; returns a :class:`WeierstrassSurface`.

    Power data F = c w^k take exact antiderivatives.  Every other datum
    must first pass the holomorphy guard, unless ``_checked`` says that
    :func:`minsurf.families.validate_family` has checked what makes it
    holomorphic (a family member's base and pair); it is then integrated by
    composite 16-point Gauss-Legendre quadrature along row-first paths from the anchor,
    its edge pass shared among ``workers`` forked processes (the same bits
    for any count; see :func:`minsurf.blocks.ordered_map`).
    """
    if datum.power is not None:
        _, _, rho, phi = grid.coords
        # finite data whose powers overflow are rejected below, not warned about
        with np.errstate(all="ignore"):
            r = _catalog_position(datum.power, rho, phi)
            r = r - r[grid.anchor]
    else:
        if not _checked:
            require_holomorphic(datum, grid,
                                f"datum {datum.label!r} fails the holomorphy check")
        i0 = grid.anchor[0]
        edges_s = _edge_integrals(datum, grid, axis=0, workers=workers)
        edges_t = _edge_integrals(datum, DomainGrid(grid.s[i0:i0 + 1], grid.t), axis=1)
        r = path_integrate(edges_s, edges_t[0], grid.anchor).real
    if not np.all(np.isfinite(r)):
        raise DomainError(f"immersion for {datum.label} is not finite on the domain "
                          "(a singularity, or float64 overflow); shrink the domain "
                          "or the parameter")
    return WeierstrassSurface(datum, grid, r)


# -- the surface object ----------------------------------------------------------


class WeierstrassSurface:
    """Sampled minimal immersion: ``datum``, ``grid``, ``r``, ``Phi``, ``chi``
    and the grid's normal ``nu``; every other field is computed on read."""

    def __init__(self, datum, grid, r):
        self.datum = datum
        self.grid = grid
        self.r = np.asarray(r, dtype=float)
        self.Phi, self.chi = datum.sample(grid)
        if not np.all(np.isfinite(self.Phi)):
            raise DomainError("Phi is not finite on the domain (F = 0 or singular)")
        self.nu = grid.normal

    def metric_vectors(self):
        """Closed-form (r_u, r_v) from the sampled Phi and chi."""
        u, v, _, _ = self.grid.coords
        return _metric_vectors_from(self.Phi, self.chi, u, v)

    @property
    def conformal_factor(self):
        """|r_u| = |r_v| = e^Phi (rho^2 + 1) / 2."""
        _, _, rho, _ = self.grid.coords
        return 0.5 * np.exp(self.Phi) * (rho**2 + 1.0)

    @property
    def frames(self) -> FrameField:
        r_u, r_v = self.metric_vectors()
        m = self.conformal_factor[..., None]
        return FrameField(r_u / m, r_v / m, self.nu)

    @property
    def curvature(self) -> CurvatureData:
        return curvature_closed_form(self.datum, self.grid.w)

    @property
    def K(self):
        """Gauss curvature -kappa^2, without the principal frame or tensor."""
        return -_kappa_closed_form(self.datum, self.grid.w)[-1] ** 2

    @property
    def normal_partials(self):
        """Closed-form (nu_u, nu_v), expanded in the surface frame."""
        fr = self.frames
        u, v, _, _ = self.grid.coords
        fac = (2.0 / (u * u + v * v + 1.0))[..., None]
        cc, sc = np.cos(self.chi)[..., None], np.sin(self.chi)[..., None]
        return fac * (cc * fr.e_u - sc * fr.e_v), -fac * (sc * fr.e_u + cc * fr.e_v)

    def isothermal_residuals(self):
        """Relative residuals of |r_u| = |r_v| and r_u . r_v = 0."""
        r_u, r_v = self.metric_vectors()
        m = self.conformal_factor
        nu_ = np.linalg.norm(r_u, axis=-1)
        nv_ = np.linalg.norm(r_v, axis=-1)
        dot = np.einsum("ijk,ijk->ij", r_u, r_v)
        return (float(np.abs(nu_ - nv_).max() / m.max()),
                float(np.abs(dot).max() / (m**2).max()))

    def harmonicity_residual(self):
        """Max |w-plane laplacian of r| over the interior, scale-relative."""
        lap = self.grid.chart_laplacian(self.r)
        mask = self.grid.interior()
        scale = np.abs(self.conformal_factor[mask]).max()
        return float(np.abs(lap[mask]).max() / scale)

    def patch(self, fd_order=2) -> SurfacePatch:
        """SurfacePatch view: every derivative by finite differences of r."""
        return SurfacePatch(self.grid.s, self.grid.t, self.r, fd_order=fd_order)

    @property
    def rim_scale(self):
        """|r| at the outer-rim node nearest phi = 0 (gallery scaling factor)."""
        j = int(np.argmin(np.abs(self.grid.t)))
        with np.errstate(over="ignore"):
            scale = float(np.linalg.norm(self.r[-1, j]))
        if not np.isfinite(scale):
            raise DomainError(f"rim scale of {self.datum.label} overflows float64")
        return scale
