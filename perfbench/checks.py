"""Output checks that do not depend on the program under test.

Every expected value here is a closed form computed from the command's
inputs alone; nothing is imported from ``minsurf``.  Each check raises
:class:`CheckError` with a one-line reason when an output is wrong.

Conventions shared with the CLI's documented output format:

* a polar grid ``rmin..rmax`` with ``n`` samples per axis has
  ``rho = linspace(rmin, rmax, n)`` and ``phi = linspace(-pi, pi, n)``;
  vertex ``k`` sits at ``rho[k // n], phi[k % n]``;
* the immersion is ``Re`` of the Weierstrass integrals of
  ``(F (1 - w^2) / 2, i F (1 + w^2) / 2, F w)``, up to one translation;
* the normal is the inverse stereographic projection of ``w``.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np

# Residual bounds.  Measured residuals sit near 1e-12 (positions, relative
# to the extent) and 1e-14 (channels); the bounds leave room for that and
# still catch a vertex moved by 1e-6 of the extent or a channel scaled by
# 1 + 1e-9.
POSITION_REL_TOL = 1e-9
NORMAL_TOL = 1e-12
CHANNEL_REL_TOL = 1e-11
DRILL_TOL = 1e-9
POLE_SIN = 1e-6


class CheckError(AssertionError):
    """An output does not match its closed form."""


# -- grids and closed forms --------------------------------------------------


def polar_grid(rmin, rmax, n):
    """Flattened (rho, phi) of the n x n polar grid, in vertex order."""
    rho, phi = np.meshgrid(np.linspace(rmin, rmax, n),
                           np.linspace(-np.pi, np.pi, n), indexing="ij")
    return rho.ravel(), phi.ravel()


def sphere_normals(rho, phi):
    """Inverse stereographic projection of w = rho e^(i phi)."""
    u, v = rho * np.cos(phi), rho * np.sin(phi)
    den = rho * rho + 1.0
    return np.stack([2.0 * u / den, 2.0 * v / den, (rho * rho - 1.0) / den], axis=-1)


def _immersion(p0, p1, p2):
    """Position from antiderivatives P_k of F w^k (k = 0, 1, 2)."""
    return np.stack([(0.5 * (p0 - p2)).real, (0.5j * (p0 + p2)).real, p1.real],
                    axis=-1)


def position_exp_datum(rho, phi, a, b):
    """Immersion of F = c w e^w with c = e^(a + ib), via the exact
    antiderivatives of w^k e^w (k = 1, 2, 3)."""
    c = np.exp(a + 1j * b)
    w = rho * np.exp(1j * phi)
    ew = np.exp(w)
    p1 = (w - 1.0) * ew
    p2 = (w * w - 2.0 * w + 2.0) * ew
    p3 = (w ** 3 - 3.0 * w * w + 6.0 * w - 6.0) * ew
    return _immersion(c * p1, c * p2, c * p3)


def position_power_datum(rho, phi, t):
    """Immersion of F = w^t with w^a = rho^a e^(i a phi) on phi in [-pi, pi]."""
    def anti(k):  # antiderivative of w^(t + k); t + k + 1 > 0 here
        e = t + k + 1.0
        return rho ** e * np.exp(1j * e * phi) / e

    return _immersion(anti(0), anti(1), anti(2))


def exp_datum_spec(a, b):
    """``custom:`` surface string for F = e^(a + ib) w e^w."""
    return f"custom:ln(rho)+u{a:+.17g};phi+v{b:+.17g}"


# -- parsers -----------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc


def _numbers(text, what, dtype=float):
    """Every whitespace-separated number in ``text``; anything else fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, dtype=dtype, sep=" ")
        except (DeprecationWarning, ValueError) as exc:
            raise CheckError(f"{what}: unreadable numbers: {exc}") from exc


def _rows(values, count, what):
    try:
        return values.reshape(count, -1)
    except ValueError as exc:
        raise CheckError(f"{what}: {values.size} numbers do not make {count} rows") from exc


def _obj_blocks(path):
    """(vertex block, face block) of an OBJ file laid out as the CLI writes
    it: a comment line, the vertices, then the faces."""
    text = _read(path)
    v_at, f_at = text.find("\nv "), text.find("\nf ")
    if not 0 <= v_at < f_at:
        raise CheckError(f"{path}: no vertex block followed by a face block")
    return text[v_at:f_at], text[f_at:]


def _obj_vertices(block, path):
    verts = _numbers(block.replace("\nv ", "\n"), path)
    verts = _rows(verts, block.count("\nv "), path)
    if verts.shape[1] != 3:
        raise CheckError(f"{path}: vertices have {verts.shape[1]} coordinates")
    return verts


def _obj_faces(block, path):
    faces = _numbers(block.replace("\nf ", "\n"), path, dtype=np.int64)
    return _rows(faces, block.count("\nf "), path) - 1


def parse_obj(path):
    """(vertices (N, 3) float, faces (F, k) int, 0-based) of an OBJ file."""
    v_block, f_block = _obj_blocks(path)
    return _obj_vertices(v_block, path), _obj_faces(f_block, path)


def parse_ply(path):
    """(columns: dict name -> (N,) float, faces (F, k) int) of an ASCII PLY."""
    text = _read(path)
    head, sep, body = text.partition("\nend_header\n")
    header = head.split("\n")
    if not sep or header[:2] != ["ply", "format ascii 1.0"]:
        raise CheckError(f"{path}: not an ASCII PLY")
    counts, names, element = {}, [], None
    for line in header[2:]:
        parts = line.split()
        if parts[0] == "element":
            element = parts[1]
            counts[element] = int(parts[2])
        elif parts[0] == "property" and element == "vertex":
            names.append(parts[-1])
    nv, nf = counts.get("vertex", 0), counts.get("face", 0)
    values = _numbers(body, path)
    table = _rows(values[:nv * len(names)], nv, path)
    faces = _rows(values[nv * len(names):], nf, path).astype(np.int64)
    if np.any(faces[:, 0] != faces.shape[1] - 1):
        raise CheckError(f"{path}: face list lengths disagree with the rows")
    return dict(zip(names, table.T)), faces[:, 1:]


# -- checks ------------------------------------------------------------------


def check_translate(vertices, expected, what):
    """vertices - expected must be one constant translation."""
    if vertices.shape != expected.shape:
        raise CheckError(f"{what}: {len(vertices)} vertices, expected {len(expected)}")
    diff = vertices - expected
    spread = float((diff.max(axis=0) - diff.min(axis=0)).max())
    extent = float((expected.max(axis=0) - expected.min(axis=0)).max())
    if not spread <= POSITION_REL_TOL * extent:
        raise CheckError(f"{what}: vertices off the closed form by {spread:.3e} "
                         f"on an extent of {extent:.3e}")


def check_faces(vertices, faces, normals, n, what):
    """(n-1)^2 quads, every one wound along its vertex normals."""
    if faces.shape != ((n - 1) ** 2, 4):
        raise CheckError(f"{what}: faces have shape {faces.shape}, "
                         f"expected {((n - 1) ** 2, 4)}")
    if faces.min() < 0 or faces.max() >= len(vertices):
        raise CheckError(f"{what}: face index out of range")
    p = vertices[faces]
    face_n = np.cross(p[:, 2] - p[:, 0], p[:, 3] - p[:, 1])
    dots = np.einsum("ij,ij->i", face_n, normals[faces].sum(axis=1))
    bad = int(np.count_nonzero(~(dots > 0.0)))
    if bad:
        raise CheckError(f"{what}: {bad} faces wound against their vertex normals")


def _rel_close(got, want, tol, name):
    err = float(np.max(np.abs(got - want) / np.abs(want)))
    if not err <= tol:
        raise CheckError(f"PLY channel {name}: relative error {err:.3e} > {tol:g}")


def check_gen(obj_path, ply_path, rmin, rmax, n, a, b):
    """OBJ and PLY of ``gen`` for F = e^(a + ib) w e^w on the n x n grid."""
    rho, phi = polar_grid(rmin, rmax, n)
    vertices, faces = parse_obj(obj_path)
    check_translate(vertices, position_exp_datum(rho, phi, a, b), obj_path)
    normals = sphere_normals(rho, phi)
    check_faces(vertices, faces, normals, n, obj_path)

    cols, ply_faces = parse_ply(ply_path)
    need = ["x", "y", "z", "nx", "ny", "nz", "bending_norm", "stretch",
            "gauss_curvature", "drill"]
    missing = [name for name in need if name not in cols]
    if missing:
        raise CheckError(f"{ply_path}: missing channels {missing}")
    if len(cols["x"]) != len(vertices):
        raise CheckError(f"{ply_path}: {len(cols['x'])} vertices, OBJ has {len(vertices)}")
    if not np.array_equal(np.stack([cols["x"], cols["y"], cols["z"]], axis=-1), vertices):
        raise CheckError(f"{ply_path}: positions differ from the OBJ")
    if not np.array_equal(ply_faces, faces):
        raise CheckError(f"{ply_path}: faces differ from the OBJ")

    ply_normals = np.stack([cols["nx"], cols["ny"], cols["nz"]], axis=-1)
    err = float(np.abs(ply_normals - normals).max())
    if not err <= NORMAL_TOL:
        raise CheckError(f"PLY normals off the stereographic normals by {err:.3e}")

    u, v = rho * np.cos(phi), rho * np.sin(phi)
    e_phi_factor = rho * np.exp(u + a)  # e^Phi with Phi = ln rho + u + a
    rho2p1 = rho * rho + 1.0
    _rel_close(cols["bending_norm"], 1.0 / rho, CHANNEL_REL_TOL, "bending_norm")
    _rel_close(cols["stretch"], 0.5 * e_phi_factor * rho2p1, CHANNEL_REL_TOL, "stretch")
    gauss = -16.0 / (e_phi_factor ** 2 * rho2p1 ** 4)
    _rel_close(cols["gauss_curvature"], gauss, CHANNEL_REL_TOL, "gauss_curvature")
    if not np.all(cols["gauss_curvature"] < 0.0):
        raise CheckError("PLY channel gauss_curvature is not negative everywhere")

    half = 0.5 * (phi + v + b) + phi  # chi / 2 + phi with chi = phi + v + b
    drill = cols["drill"]
    finite = np.isfinite(drill)
    if np.any(~finite & (np.abs(np.sin(half)) > POLE_SIN)):
        raise CheckError("PLY channel drill is masked away from the cot poles")
    want = 2.0 * np.arctan(-np.cos(half[finite]) / np.sin(half[finite]))
    wrapped = np.abs((drill[finite] - want + np.pi) % (2.0 * np.pi) - np.pi)
    err = float(wrapped.max()) if wrapped.size else 0.0
    if not err <= DRILL_TOL:
        raise CheckError(f"PLY channel drill off 2 atan(-cot(chi/2 + phi)) by {err:.3e}")


def _number(record, key):
    value = record.get(key)
    if not isinstance(value, (int, float)):
        raise CheckError(f"manifest record {record} has no number {key!r}")
    return float(value)


def check_frames(outdir, rmin, rmax, n, frames):
    """Frames and manifest of ``animate --family bour-t`` (F = w^t)."""
    manifest_path = os.path.join(outdir, "manifest.json")
    try:
        manifest = json.loads(_read(manifest_path))
    except json.JSONDecodeError as exc:
        raise CheckError(f"{manifest_path}: {exc}") from exc
    records = manifest.get("frames", [])
    if len(records) != frames:
        raise CheckError(f"manifest lists {len(records)} frames, expected {frames}")
    if (manifest.get("family") != "bour-t" or manifest.get("grid") != f"{n}x{n}"
            or manifest.get("rmin") != rmin or manifest.get("rmax") != rmax):
        raise CheckError("manifest family, grid or radii differ from the command")
    rho, phi = polar_grid(rmin, rmax, n)
    normals = sphere_normals(rho, phi)
    rim = (n - 1) * n + int(np.argmin(np.abs(np.linspace(-np.pi, np.pi, n))))
    face_block = faces = None
    for k, (rec, t) in enumerate(zip(records, np.linspace(0.0, 1.0, frames))):
        name = f"frame_{k:04d}.obj"
        if (rec.get("index") != k or rec.get("file") != name
                or not abs(_number(rec, "t") - t) <= 1e-15):
            raise CheckError(f"manifest record {k} is {rec}")
        path = os.path.join(outdir, name)
        v_block, f_block = _obj_blocks(path)
        vertices = _obj_vertices(v_block, path)
        if f_block != face_block:  # frames share one face list; parse it once
            faces, face_block = _obj_faces(f_block, path), f_block
        check_translate(vertices, position_power_datum(rho, phi, t), name)
        check_faces(vertices, faces, normals, n, name)
        scale = float(np.linalg.norm(vertices[rim]))
        if not abs(_number(rec, "scale") - scale) <= 1e-12 * scale:
            raise CheckError(f"{name}: manifest scale {rec['scale']} != rim |r| {scale}")
    present = sorted(f for f in os.listdir(outdir) if f.endswith(".obj"))
    if len(present) != frames:
        raise CheckError(f"{outdir} holds {len(present)} OBJ files, expected {frames}")


def check_report(path, check_ids):
    """``verify`` report: exactly ``check_ids``, all passed.  Returns its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        report = json.loads(data)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from exc
    got = [rec.get("check_id") for rec in report.get("checks", [])]
    if got != list(check_ids):
        raise CheckError(f"report holds checks {got}, expected {list(check_ids)}")
    failed = [rec["check_id"] for rec in report["checks"] if rec.get("passed") is not True]
    if failed:
        raise CheckError(f"report marks checks as failed: {failed}")
    summary = report.get("summary", {})
    if summary.get("all_passed") is not True or summary.get("total") != len(check_ids):
        raise CheckError(f"report summary is {summary}")
    return data
