"""Verification suite: one check per acceptance criterion.

Each check pins its own grids, stencil orders and tolerances:

* identity and convergence checks run on the full annulus rho in
  [0.5, 1.5] (all five catalog surfaces live there);
* tight finite-difference thresholds run on a wedge rho in [0.8, 1.6],
  phi in [-pi/8, pi/8], where grid steps are ~3e-3 at the fine level;
* grids use 2^k + 1 samples so quarter-index loops and centers coincide
  across refinement levels;
* residual statistics exclude a boundary collar of 2 samples per
  finite-difference layer (5 for order-4 two-layer chains), keeping
  interior accuracy claims free of one-sided-stencil pollution.

Everything is seeded and, but for check 12's in-process ``animate`` runs at
MINSURF_THREADS 1, 2 and 8, single-threaded, so repeated runs under any
MINSURF_THREADS value produce bit-identical reports; timings (CPU time in
checks 01 and 02, so the verdicts do not depend on machine load) are never
written into the report, only compared against their bounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import meshio
from .bendneutral import (
    alpha_from_phi,
    bending_cross_check,
    bending_drilling_field,
    chain_rule_residual,
    compatibility_ratio,
    deformation_between,
    image_mean_curvature_check,
    integrability_residual_general,
    normal_fd_residual,
    pure_bending_closed_form,
    pure_bending_measure,
    pure_bending_measure_fd,
)
from .families import FamilySpec, family_frames, family_member
from .rotations import (
    RodriguesVector,
    axis_distance_profile,
    compose_batched,
    matrices_from_rodrigues,
    split_about_axes,
)
from .surfcalc import (
    circulation_check,
    connector,
    rectangle_loop,
    shape_operator,
    surface_gradient,
)
from .weierstrass import (
    DomainGrid,
    bour,
    catenoid,
    enneper,
    helicoid,
    integrate_representation,
    scherk_midpoint,
)

COARSE = 129
FINE = 257
CONV_BAND = (3.4, 4.6)


def catalog():
    return [
        ("enneper", enneper()),
        ("bour:m=3", bour(3.0)),
        ("catenoid", catenoid()),
        ("helicoid", helicoid()),
        ("scherk2:theta=pi/4", scherk_midpoint(np.pi / 4)),
    ]


def main_grid(n):
    return DomainGrid.polar(0.5, 1.5, n, n)


def wedge_grid(n):
    return DomainGrid.polar(0.8, 1.6, n, n, phi_min=-np.pi / 8, phi_max=np.pi / 8)


def point_grid(n):
    """Wedge centred on w = 0.5 for the frozen curvature point check."""
    return DomainGrid.polar(0.3, 0.7, n, n, phi_min=-np.pi / 8, phi_max=np.pi / 8)


@dataclass
class CheckResult:
    check_id: str
    subject: str
    grid: str
    max_residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


class _Sub:
    """Collects named sub-checks and reduces them into one CheckResult."""

    def __init__(self):
        self.items = {}

    def add(self, name, value, tolerance, mode="below"):
        value = float(value)
        if mode == "below":
            ok = value < tolerance
        elif mode == "above":
            ok = value > tolerance
        elif mode == "band":
            ok = tolerance[0] < value < tolerance[1]
        else:
            raise ValueError(mode)
        self.items[name] = {"value": value, "tolerance": tolerance,
                            "passed": bool(ok), "mode": mode}
        return ok

    def flag(self, name, ok):
        """Boolean sub-check: passes when ``ok`` is true."""
        ok = bool(ok)
        self.items[name] = {"value": ok, "tolerance": True, "passed": ok}
        return ok

    def result(self, check_id, subject, grid, primary, tolerance):
        return CheckResult(
            check_id, subject, grid, float(primary), float(tolerance),
            all(item["passed"] for item in self.items.values()), self.items)


class _Range:
    """Running elementwise min and max of finite arrays: ``hi - lo`` is the
    largest pairwise |f_a - f_b| per element with the same bits (rounded
    subtraction is monotone), held in two arrays however many are added."""
    lo = hi = None

    def add(self, f):
        self.lo = f if self.lo is None else np.minimum(self.lo, f)
        self.hi = f if self.hi is None else np.maximum(self.hi, f)


class _SurfaceCache:
    def __init__(self):
        self._grids = {}
        self._surfaces = {}

    def grid(self, kind, n):
        key = (kind, n)
        if key not in self._grids:
            maker = {"main": main_grid, "wedge": wedge_grid, "point": point_grid}[kind]
            self._grids[key] = maker(n)
        return self._grids[key]

    def surface(self, label, datum, kind, n):
        key = (label, kind, n)
        if key not in self._surfaces:
            self._surfaces[key] = integrate_representation(datum, self.grid(kind, n))
        return self._surfaces[key]


# -- criterion checks ---------------------------------------------------------


def check_rotation_split(cache):
    rng = np.random.default_rng(20240701)
    sub = _Sub()
    # CPU time of this process, so the verdict does not depend on how many
    # other processes share the machine
    start = time.process_time()
    axes = rng.normal(size=(1000, 10, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    alphas = rng.uniform(-3.0, 3.0, size=1000)
    # each rotation is split about ten axes, the first of them its own
    a = np.tan(alphas / 2.0)[:, np.newaxis] * axes[:, 0]
    u, a2 = split_about_axes(a[:, np.newaxis], axes)
    a1 = u[..., np.newaxis] * axes
    worst_dot = np.abs(np.einsum("...i,...i->...", a2, axes)).max()
    worst_cross = np.linalg.norm(np.cross(a1, axes), axis=-1).max()
    # recomposition through the composition law, checked in matrices
    recomposed, _ = compose_batched(a2, a1)
    m = matrices_from_rodrigues(np.concatenate([recomposed, a[:, np.newaxis]], axis=1))
    diff = m[:, :-1] - m[:, -1:]
    worst_frob = np.sqrt(np.einsum("...ij,...ij->...", diff, diff)).max()
    elapsed = time.process_time() - start
    sub.add("recomposition_frobenius", worst_frob, 1e-10)
    sub.add("a2_dot_axis", worst_dot, 1e-12)
    sub.add("a1_cross_axis", worst_cross, 1e-12)
    sub.flag("runtime_within_1s", elapsed < 1.0)
    return sub.result("01-rotation-split", "1000 rotations x 10 axes", "-",
                      worst_frob, 1e-10)


def check_axis_distance(cache):
    rng = np.random.default_rng(20240702)
    u_grid = np.linspace(-8.0, 8.0, 20000)
    du = u_grid[1] - u_grid[0]
    sub = _Sub()
    start = time.process_time()
    worst_min = worst_max = 0.0
    count = 0
    while count < 100:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        alpha = rng.uniform(0.5, 2.8)
        a = RodriguesVector(np.tan(alpha / 2.0) * axis)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        ae = float(a.a @ e)
        if not 0.2 <= abs(ae) <= 5.0:
            continue
        count += 1
        d = axis_distance_profile(a, e, u_grid)
        worst_min = max(worst_min, abs(u_grid[np.argmin(d)] - ae))
        worst_max = max(worst_max, abs(u_grid[np.argmax(d)] - (-1.0 / ae)))
    elapsed = time.process_time() - start
    sub.add("argmin_matches_a_dot_e", worst_min, du * 1.000001)
    sub.add("argmax_matches_minus_inv", worst_max, du * 1.000001)
    sub.flag("runtime_within_5s", elapsed < 5.0)
    return sub.result("02-axis-distance-extrema", "100 random (a, e)",
                      "20000-point grid", worst_min, du)


def check_weierstrass_identities(cache):
    sub = _Sub()
    worst_iso = 0.0
    for label, datum in catalog():
        fine = cache.surface(label, datum, "main", FINE)
        iso1, iso2 = fine.isothermal_residuals()
        worst_iso = max(worst_iso, iso1, iso2)
        sub.add(f"isothermal[{label}]", max(iso1, iso2), 1e-8)
        coarse = cache.surface(label, datum, "main", COARSE)
        ratio = coarse.harmonicity_residual() / fine.harmonicity_residual()
        sub.add(f"harmonicity_order2[{label}]", ratio, CONV_BAND, mode="band")
    return sub.result("03-weierstrass-identities", "five catalog surfaces",
                      f"{FINE}x{FINE} main annulus", worst_iso, 1e-8)


def check_minimality(cache):
    sub = _Sub()
    worst = 0.0
    for label, datum in catalog():
        surf = cache.surface(label, datum, "wedge", FINE)
        curv = shape_operator(surf.patch(fd_order=4))
        closed = surf.curvature
        mask = surf.grid.interior(collar=5)
        rel = (np.abs(curv.H) / closed.kappa1)[mask].max()
        worst = max(worst, rel)
        sub.add(f"fd_H_rel[{label}]", rel, 1e-5)
        tr = np.abs(np.trace(closed.shape_operator, axis1=-2, axis2=-1)).max()
        sub.add(f"closed_form_trace[{label}]", tr, 1e-12)
    return sub.result("04-minimality", "five catalog surfaces",
                      f"{FINE}x{FINE} wedge", worst, 1e-5)


def check_gauss_curvature(cache):
    sub = _Sub()
    worst = 0.0
    for label, datum in catalog():
        errs = []
        for n in (COARSE, FINE):
            surf = cache.surface(label, datum, "wedge", n)
            curv = shape_operator(surf.patch())
            mask = surf.grid.interior(collar=2)
            k = surf.K
            rel = (np.abs(curv.K - k) / np.abs(k))[mask]
            errs.append(float(rel.max()))
        worst = max(worst, errs[1])
        sub.add(f"fd_K_rel[{label}]", errs[1], 1e-4)
        sub.add(f"fd_K_order2[{label}]", errs[0] / errs[1], CONV_BAND, mode="band")

    # frozen point value K(enneper, w = 0.5) = -16 / 1.25^4
    surf = cache.surface("enneper", enneper(), "point", COARSE)
    i0, j0 = surf.grid.anchor
    assert abs(surf.grid.w[i0, j0] - 0.5) < 1e-12
    sub.add("point_value_closed_form",
            abs(surf.K[i0, j0] + 6.5536), 1e-6)
    curv = shape_operator(surf.patch())
    sub.add("point_value_fd_cross_check",
            abs(curv.K[i0, j0] + 6.5536) / 6.5536, 1e-4)
    return sub.result("05-gauss-curvature", "five catalog surfaces + point check",
                      f"{FINE}x{FINE} wedge", worst, 1e-4)


def check_universal_bending(cache):
    sub = _Sub()
    grid = cache.grid("main", FINE)
    _, _, rho, phi = grid.coords
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    b_reference = e_phi / rho[..., None]
    a_reference = pure_bending_closed_form(grid)

    b_range, a_range = _Range(), _Range()
    for label, datum in catalog():
        surf = cache.surface(label, datum, "main", FINE)
        content = bending_drilling_field(surf)
        a_field = pure_bending_measure(surf)
        b_range.add(content.b)
        a_range.add(a_field)
        sub.add(f"b_formula[{label}]",
                np.abs(content.b - b_reference).max(), 1e-9)
        sub.add(f"A_formula[{label}]",
                np.abs(a_field - a_reference).max(), 1e-9)
        valid, res_b, res_d = bending_cross_check(surf, content)
        if valid.any():
            sub.add(f"b_rodrigues_split[{label}]", res_b, 1e-9)
            sub.add(f"d_rodrigues_split[{label}]", res_d, 1e-9)
        sub.items[f"masked_fraction[{label}]"] = {
            "value": float(1.0 - valid.mean()), "tolerance": None,
            "passed": True}

    worst_pair_b = (b_range.hi - b_range.lo).max()
    worst_pair_a = (a_range.hi - a_range.lo).max()
    sub.add("b_pairwise_closed_form", worst_pair_b, 1e-9)
    sub.add("A_pairwise_closed_form", worst_pair_a, 1e-9)

    # independent finite-difference path on the fine wedge
    fd_range = _Range()
    mask = cache.grid("wedge", FINE).interior(collar=5)
    a_ref_wedge = pure_bending_closed_form(cache.grid("wedge", FINE))
    for label, datum in catalog():
        surf = cache.surface(label, datum, "wedge", FINE)
        fd_field = pure_bending_measure_fd(surf)
        fd_range.add(fd_field)
        err = np.abs(fd_field - a_ref_wedge)[mask].max()
        sub.add(f"A_fd_vs_closed[{label}]", err, 1e-5)
        sub.add(f"normal_fd_consistency[{label}]", normal_fd_residual(surf), 1e-4)
    sub.add("A_pairwise_fd", (fd_range.hi - fd_range.lo)[mask].max(), 1e-5)
    return sub.result("06-universal-bending", "five catalog surfaces",
                      f"{FINE}x{FINE} main + wedge", max(worst_pair_b, worst_pair_a),
                      1e-9)


def check_bending_neutral_association(cache):
    sub = _Sub()
    entries = catalog()
    worst_fine = 0.0
    for i, (label_a, datum_a) in enumerate(entries):
        for label_b, datum_b in entries[i + 1:]:
            pair = f"{label_a}->{label_b}"
            res = []
            for n in (COARSE, FINE):
                sa = cache.surface(label_a, datum_a, "main", n)
                sb = cache.surface(label_b, datum_b, "main", n)
                res.append(chain_rule_residual(sa, sb))
            worst_fine = max(worst_fine, res[1])
            sub.add(f"chain_rule_order2[{pair}]", res[0] / res[1], CONV_BAND,
                    mode="band")
            # sa, sb are the fine surfaces of the last level
            sub.flag(f"normals_exact[{pair}]", np.array_equal(sa.nu, sb.nu))

    # spot identities for the classically known pairs
    s_cat = cache.surface("catenoid", catenoid(), "main", FINE)
    s_hel = cache.surface("helicoid", helicoid(), "main", FINE)
    d = deformation_between(s_cat, s_hel)
    sub.add("catenoid_helicoid_mu_is_1", np.abs(d.mu - 1.0).max(), 1e-14)
    sub.add("catenoid_helicoid_alpha_is_pi_2",
            np.abs(d.alpha - np.pi / 2).max(), 1e-14)
    s_enn = cache.surface("enneper", enneper(), "main", FINE)
    s_bour = cache.surface("bour:m=3", bour(3.0), "main", FINE)
    d = deformation_between(s_enn, s_bour)
    _, _, rho, phi = s_enn.grid.coords
    sub.add("enneper_bour_mu_is_rho", np.abs(d.mu - rho).max(), 1e-12)
    sub.add("enneper_bour_alpha_is_phi", np.abs(d.alpha - phi).max(), 1e-12)
    return sub.result("07-bending-neutral-association", "all catalog pairs",
                      f"{COARSE}/{FINE} main annulus", worst_fine, 1e-2)


def _connector_view(s):
    patch = s.patch()
    curv = s.curvature
    return patch, curv, connector(patch, curv)


def check_integrability(cache):
    sub = _Sub()
    # (i) constant mu, alpha on the catenoid: the Bonnet case
    s = cache.surface("catenoid", catenoid(), "main", FINE)
    patch, curv, conn = _connector_view(s)
    lam = 1.0 / curv.kappa1
    alpha = np.full(s.grid.shape, 0.3)
    out = integrability_residual_general(patch, curv, conn, lam, alpha)
    res_const = out.max_residual(s.grid.interior(collar=3))
    sub.add("bonnet_constants_on_catenoid", res_const, 1e-6)

    # (ii) harmonic stretch with reconstructed drilling angle; (iii) reuses its view
    t = 1.0
    s = cache.surface("enneper", enneper(), "wedge", FINE)
    fine = _connector_view(s)
    patch, curv, conn = fine
    _, _, rho, phi = s.grid.coords
    base = s.grid.anchor
    alpha = alpha_from_phi(patch, t * np.log(rho), alpha0=t * phi[base], base=base)
    out = integrability_residual_general(patch, curv, conn,
                                         rho**t / curv.kappa1, alpha)
    res_harm = out.max_residual(s.grid.interior(collar=3))
    sub.add("bour_harmonic_family", res_harm, 1e-5)

    # (iii) negative control: non-harmonic stretch stays far from zero
    controls = []
    for n in (COARSE, FINE):
        s = cache.surface("enneper", enneper(), "wedge", n)
        patch, curv, conn = fine if n == FINE else _connector_view(s)
        u, _, _, _ = s.grid.coords
        alpha = alpha_from_phi(patch, u**2, require_harmonic=False)
        out = integrability_residual_general(patch, curv, conn,
                                             np.exp(u**2) / curv.kappa1, alpha)
        controls.append(out.max_residual(s.grid.interior(collar=3)))
    sub.add("negative_control_large", min(controls), 1e-2, mode="above")
    sub.add("negative_control_not_vanishing", controls[0] / controls[1],
            (0.5, 2.0), mode="band")
    return sub.result("08-integrability", "catenoid Bonnet + harmonic family",
                      f"{FINE}x{FINE}", res_harm, 1e-5)


def check_image_minimality(cache):
    rng = np.random.default_rng(20240709)
    n = 1000
    k1 = rng.uniform(0.2, 5.0, n)
    k2 = -rng.uniform(0.2, 5.0, n)
    lam = rng.uniform(0.1, 10.0, n)
    alpha = rng.uniform(-np.pi, np.pi, n)
    res = image_mean_curvature_check(k1, k2, lam, alpha)
    sub = _Sub()
    sub.add("trace_residual_randomized", res.max(), 1e-12)
    k1, k2, alpha = k1[:200], k2[:200], alpha[:200]
    worst_ratio = np.abs(compatibility_ratio(k1, k2, alpha, 0.0) - (-k2 / k1)).max()
    sub.add("reduced_ratio_matches", worst_ratio, 1e-12)
    return sub.result("09-image-minimality", "1000 randomized (k1, k2, lam, alpha)",
                      "-", res.max(), 1e-12)


def check_bonnet_isometry(cache):
    spec = FamilySpec("catenoid-helicoid", frames=30)
    grid = cache.grid("main", COARSE)
    base = integrate_representation(family_member(spec, spec.t0), grid)
    base_norm = np.linalg.norm(base.metric_vectors()[0], axis=-1)

    def deviations(frame):  # keeps no surface
        norm = np.linalg.norm(frame.surface.metric_vectors()[0], axis=-1)
        d = deformation_between(base, frame.surface)
        return np.abs(norm - base_norm).max(), np.abs(d.mu - 1.0).max()

    # the first member is the base itself, whose deviations are 0
    worst_iso, worst_mu = np.max(family_frames(spec, grid, each=deviations), axis=0)
    sub = _Sub()
    sub.add("per_sample_metric_constant", worst_iso, 1e-10)
    sub.add("mu_identically_1", worst_mu, 1e-14)
    return sub.result("10-bonnet-isometry", "30 family members",
                      f"{COARSE}x{COARSE} main annulus", worst_iso, 1e-10)


def check_circulation(cache):
    def residual(kind, n):
        surf = cache.surface("enneper", enneper(), kind, n)
        patch = surf.patch()
        _, _, rho, _ = surf.grid.coords
        h = np.cross(patch.nu, surface_gradient(patch, np.log(rho)))
        q = (n - 1) // 4
        return circulation_check(patch, h, rectangle_loop(q, 3 * q, q, 3 * q))

    residuals = [residual("main", n) for n in (COARSE, FINE)]
    sub = _Sub()
    sub.add("residual_fine", residuals[1], 1e-3)
    sub.add("order2_convergence", residuals[0] / residuals[1], CONV_BAND,
            mode="band")
    sub.add("residual_fine_wedge", residual("wedge", FINE), 1e-5)
    return sub.result("11-circulation", "enneper, h = nu x grad(ln rho)",
                      f"{COARSE}->{FINE}", residuals[1], 1e-3)


def _animate_runs(tmp):
    """Per MINSURF_THREADS value 1, 2 and 8, name -> bytes of the files one
    ``animate`` run of this process writes, or None if the run fails.  The
    variable is restored afterwards, also when it was unset."""
    from .cli import main  # cli imports this module

    saved = os.environ.get("MINSURF_THREADS")
    runs = []
    try:
        for threads in ("1", "2", "8"):
            outdir = Path(tmp, f"frames{threads}")
            os.environ["MINSURF_THREADS"] = threads
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["animate", "--family", "bour-t", "--frames", "8",
                             "--grid", "17x17", "--rmin", "0.3", "--rmax", "1.0",
                             "--outdir", str(outdir)])
            runs.append(None if code != 0 else
                        {p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    finally:
        os.environ.pop("MINSURF_THREADS", None)
        if saved is not None:
            os.environ["MINSURF_THREADS"] = saved
    return runs


def check_determinism_io(cache):
    sub = _Sub()
    surf = integrate_representation(enneper(), DomainGrid.polar(0.3, 1.2, 33, 33))
    mesh = meshio.mesh_from_surface(surf)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp, "a.obj"), Path(tmp, "b.obj")
        meshio.write_obj(mesh, p1)
        meshio.write_obj(mesh, p2)
        sub.flag("obj_rewrite_identical", p1.read_bytes() == p2.read_bytes())
        verts, faces = meshio.parse_obj(p1)
        round_trip = (np.array_equal(verts, mesh.vertices)
                      and np.array_equal(faces, mesh.faces))
        sub.flag("obj_round_trip_exact", round_trip)
        sub.add("face_winding_aligned_with_normal",
                meshio.face_normal_alignment(mesh, surf.nu.reshape(-1, 3)),
                0.0, mode="above")

        # animate is the command that reads MINSURF_THREADS
        runs = _animate_runs(tmp)
        sub.flag("animate_bit_identical_across_threads",
                 runs[0] is not None and "manifest.json" in runs[0]
                 and all(run == runs[0] for run in runs))
    return sub.result("12-determinism-io",
                      "animate subprocess at 1/2/8 threads + obj round trip",
                      "-", 0.0, 0.0)


CRITERIA = {
    "01-rotation-split": check_rotation_split,
    "02-axis-distance-extrema": check_axis_distance,
    "03-weierstrass-identities": check_weierstrass_identities,
    "04-minimality": check_minimality,
    "05-gauss-curvature": check_gauss_curvature,
    "06-universal-bending": check_universal_bending,
    "07-bending-neutral-association": check_bending_neutral_association,
    "08-integrability": check_integrability,
    "09-image-minimality": check_image_minimality,
    "10-bonnet-isometry": check_bonnet_isometry,
    "11-circulation": check_circulation,
    "12-determinism-io": check_determinism_io,
}


def run_suite(checks=None):
    """Run the selected checks (all by default); returns the report dict."""
    from .errors import InvalidInputError

    selected = list(CRITERIA) if not checks else list(checks)
    unknown = [c for c in selected if c not in CRITERIA]
    if unknown:
        raise InvalidInputError(f"unknown checks: {unknown} "
                                f"(available: {list(CRITERIA)})")
    cache = _SurfaceCache()
    results = [CRITERIA[check_id](cache) for check_id in selected]
    passed = sum(1 for r in results if r.passed)
    return {
        "suite": "minsurf-verification",
        "grids": {"coarse": f"{COARSE}x{COARSE}", "fine": f"{FINE}x{FINE}"},
        "checks": [asdict(r) for r in results],
        "summary": {"total": len(results), "passed": passed,
                    "failed": len(results) - passed,
                    "all_passed": passed == len(results)},
    }


def report_to_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
