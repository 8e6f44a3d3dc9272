"""Mesh assembly and deterministic OBJ/PLY output.

OBJ carries geometry only (17 significant digits, so floats round-trip
exactly); per-vertex scalar channels go to a sidecar ASCII PLY.  A
:class:`MeshArtifact` holds geometry only: the channels are computed by
:func:`surface_channels` for the PLY that reads them, so a mesh written as
OBJ only (every ``animate`` frame) never computes them.  Quad winding
follows the grid orientation, which by construction matches the surface
normal.  The angular seam at phi = +/-pi is sampled twice (both cut edges
are grid columns), so single-valued surfaces close up geometrically
without any stitched faces across the cut.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bendneutral import bending_drilling_field
from .blocks import ordered_map
from .errors import InvalidInputError
from .weierstrass import WeierstrassSurface

# Rows formatted by one ``%`` and written by one ``write``: large enough to
# amortise the per-call cost, small enough to keep each text buffer to a
# few MB.
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class MeshArtifact:
    """Grid mesh: vertices (N, 3) and quad faces (M, 4) indexing them."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise InvalidInputError("vertices must have shape (N, 3)")
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= len(self.vertices)):
            raise InvalidInputError("face indices out of range")


def mesh_from_surface(surface: WeierstrassSurface) -> MeshArtifact:
    """Quad mesh of the sampled immersion."""
    ns, nt = surface.grid.shape
    vertices = surface.r.reshape(-1, 3)
    idx = np.arange(ns * nt).reshape(ns, nt)
    faces = np.stack([
        idx[:-1, :-1].ravel(),
        idx[1:, :-1].ravel(),
        idx[1:, 1:].ravel(),
        idx[:-1, 1:].ravel(),
    ], axis=1)
    return MeshArtifact(vertices, faces)


def surface_channels(surface: WeierstrassSurface) -> dict:
    """Per-vertex analysis channels of the surface, for :func:`write_ply`.

    ``normal`` (the shared normal map, (N, 3)), ``gauss_curvature``,
    ``stretch`` (conformal factor of the flat-to-surface map), ``drill``
    (its drilling angle about e3, nan on cot poles) and ``bending_norm``
    (magnitude 1/rho of the universal bending content).
    """
    content = bending_drilling_field(surface)
    with np.errstate(invalid="ignore"):
        drill = np.where(content.valid_d,
                         2.0 * np.arctan(content.d), np.nan)
    return {
        "normal": surface.nu.reshape(-1, 3),
        "gauss_curvature": surface.K.ravel(),
        "stretch": surface.conformal_factor.ravel(),
        "drill": drill.ravel(),
        "bending_norm": np.linalg.norm(content.b, axis=-1).ravel(),
    }


def face_normal_alignment(mesh: MeshArtifact, normals) -> float:
    """Min dot product between face normals and per-vertex ``normals``."""
    v = mesh.vertices
    f = mesh.faces
    d1 = v[f[:, 1]] - v[f[:, 0]]
    d2 = v[f[:, 3]] - v[f[:, 0]]
    n = np.cross(d1, d2)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    n = n / np.where(norms > 0, norms, 1.0)
    nu_face = normals[f].mean(axis=1)
    return float(np.einsum("ij,ij->i", n, nu_face).min())


def _write_rows(fh, row_fmt, columns, workers):
    """Write row i of the side-by-side ``columns`` as ``row_fmt % tuple(row)``.

    Each column is (N,) or (N, k); blocks of several columns are joined
    one block at a time, a lone table is formatted in place, and the blocks
    are formatted by ``workers`` processes.  ``b"%.17g" % x`` spells a float
    exactly as ``f"{x:.17g}"`` does, and ``b"%d" % i`` an integer as
    ``str(i)``.
    """
    def block(start):
        rows = [col[start:start + BLOCK_ROWS] for col in columns]
        rows = rows[0] if len(rows) == 1 else np.column_stack(rows)
        return (row_fmt * len(rows)) % tuple(rows.ravel().tolist())

    # writelines drops each block once written, before the next is formatted
    fh.writelines(ordered_map(block, range(0, len(columns[0]), BLOCK_ROWS), workers))


def _write_file(path, header, tables, workers):
    """Write ``header``, then each ``(row_fmt, columns)`` table; a file
    that fails half written is removed."""
    with open(path, "wb") as fh:
        try:
            fh.write(header.encode())
            for row_fmt, columns in tables:
                _write_rows(fh, row_fmt, columns, workers)
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def write_obj(mesh: MeshArtifact, path, workers=1):
    """OBJ of the mesh; the same bytes for any number of ``workers``."""
    _write_file(path, f"# minsurf mesh: {len(mesh.vertices)} vertices, "
                      f"{len(mesh.faces)} faces\n",
                [(b"v %.17g %.17g %.17g\n", [mesh.vertices]),
                 (b"f %d %d %d %d\n", [mesh.faces + 1])], workers)


def parse_obj(path):
    """Read back vertices and (0-based) faces written by :func:`write_obj`."""
    vertices, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
    return np.asarray(vertices, dtype=float), np.asarray(faces, dtype=int)


def write_ply(mesh: MeshArtifact, path, channels, workers=1):
    """ASCII PLY with per-vertex ``channels`` as vertex properties.

    ``channels`` maps ``normal`` to (N, 3) normals, written as nx ny nz,
    and further names to (N,) scalars; :func:`surface_channels` builds it.
    The bytes are the same for any number of ``workers``.
    """
    scalar_names = [k for k, a in channels.items() if a.ndim == 1]
    names = ["x", "y", "z", "nx", "ny", "nz"] + scalar_names
    cols = [mesh.vertices, channels["normal"]] + [channels[k] for k in scalar_names]
    header = ["ply", "format ascii 1.0", f"element vertex {len(mesh.vertices)}"]
    header += [f"property double {name}" for name in names]
    header += [f"element face {len(mesh.faces)}",
               "property list uchar int vertex_indices", "end_header"]
    _write_file(path, "\n".join(header) + "\n",
                [(b" ".join([b"%.17g"] * len(names)) + b"\n", cols),
                 (b"4 %d %d %d %d\n", [mesh.faces])], workers)
