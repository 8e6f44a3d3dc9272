"""Mesh assembly and deterministic OBJ/PLY output.

OBJ carries geometry only (17 significant digits, so floats round-trip
exactly); per-vertex scalar channels go to a sidecar ASCII PLY.  Channels
are computed on the first read of ``MeshArtifact.attributes``, so a mesh
written as OBJ only (every ``animate`` frame) never computes them.  Quad
winding follows the grid orientation, which by construction matches the
surface normal.  The angular seam at phi = +/-pi is sampled twice (both
cut edges are grid columns), so single-valued surfaces close up
geometrically without any stitched faces across the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .bendneutral import bending_drilling_field
from .errors import InvalidInputError
from .weierstrass import WeierstrassSurface

# Rows formatted by one ``%`` and written by one ``write``: large enough to
# amortise the per-call cost, small enough to keep each text buffer to a
# few MB.
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class MeshArtifact:
    """Grid mesh with named per-vertex attribute channels.

    ``channels`` builds the channel dict; it runs once, on the first read
    of ``attributes``.  Channels are keyed by name; vector channels have
    shape (n_vertices, 3), scalar ones (n_vertices,).
    """

    vertices: np.ndarray
    faces: np.ndarray
    channels: Callable[[], dict] = dict

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise InvalidInputError("vertices must have shape (N, 3)")
        if self.faces.size and (self.faces.min() < 0
                                or self.faces.max() >= len(self.vertices)):
            raise InvalidInputError("face indices out of range")

    @cached_property
    def attributes(self) -> dict:
        return self.channels()


def mesh_from_surface(surface: WeierstrassSurface) -> MeshArtifact:
    """Quad mesh of the sampled immersion with analysis channels.

    Channels, computed on the first read of ``attributes``: ``normal``
    (the shared normal map), ``gauss_curvature``, ``stretch`` (conformal
    factor of the flat-to-surface map), ``drill`` (its drilling angle
    about e3, nan on pi-turn loci) and ``bending_norm`` (magnitude 1/rho
    of the universal bending content).
    """
    ns, nt = surface.grid.shape
    vertices = surface.r.reshape(-1, 3)
    idx = np.arange(ns * nt).reshape(ns, nt)
    faces = np.stack([
        idx[:-1, :-1].ravel(),
        idx[1:, :-1].ravel(),
        idx[1:, 1:].ravel(),
        idx[:-1, 1:].ravel(),
    ], axis=1)
    return MeshArtifact(vertices, faces, partial(_surface_channels, surface))


def _surface_channels(surface: WeierstrassSurface) -> dict:
    content = bending_drilling_field(surface)
    with np.errstate(invalid="ignore"):
        drill = np.where(content.valid_d,
                         2.0 * np.arctan(content.d[..., 2]), np.nan)
    return {
        "normal": surface.nu.reshape(-1, 3),
        "gauss_curvature": surface.curvature.K.ravel(),
        "stretch": surface.conformal_factor.ravel(),
        "drill": drill.ravel(),
        "bending_norm": np.linalg.norm(content.b, axis=-1).ravel(),
    }


def face_normal_alignment(mesh: MeshArtifact) -> float:
    """Min dot product between face normals and the vertex-normal channel."""
    v = mesh.vertices
    f = mesh.faces
    d1 = v[f[:, 1]] - v[f[:, 0]]
    d2 = v[f[:, 3]] - v[f[:, 0]]
    n = np.cross(d1, d2)
    norms = np.linalg.norm(n, axis=-1, keepdims=True)
    n = n / np.where(norms > 0, norms, 1.0)
    nu_face = mesh.attributes["normal"][f].mean(axis=1)
    return float(np.einsum("ij,ij->i", n, nu_face).min())


def _write_rows(fh, row_fmt, table):
    """Write each row of a 2-D array as ``row_fmt % tuple(row)``.

    ``"%.17g" % x`` spells a float exactly as ``f"{x:.17g}"`` does, and
    ``"%d" % i`` an integer as ``str(i)``.
    """
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start:start + BLOCK_ROWS]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_obj(mesh: MeshArtifact, path):
    with open(path, "w") as fh:
        fh.write(f"# minsurf mesh: {len(mesh.vertices)} vertices, "
                 f"{len(mesh.faces)} faces\n")
        _write_rows(fh, "v %.17g %.17g %.17g\n", mesh.vertices)
        _write_rows(fh, "f %d %d %d %d\n", mesh.faces + 1)


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


def write_ply(mesh: MeshArtifact, path):
    """ASCII PLY with the scalar/vector channels as vertex properties."""
    scalar_names = [k for k, a in mesh.attributes.items() if a.ndim == 1]
    header = [
        "ply", "format ascii 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property double x", "property double y", "property double z",
    ]
    if "normal" in mesh.attributes:
        header += ["property double nx", "property double ny", "property double nz"]
    header += [f"property double {name}" for name in scalar_names]
    header += [f"element face {len(mesh.faces)}",
               "property list uchar int vertex_indices", "end_header"]

    cols = [mesh.vertices]
    if "normal" in mesh.attributes:
        cols.append(mesh.attributes["normal"])
    cols += [mesh.attributes[name][:, None] for name in scalar_names]
    table = np.hstack(cols)

    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        _write_rows(fh, " ".join(["%.17g"] * table.shape[1]) + "\n", table)
        _write_rows(fh, "4 %d %d %d %d\n", mesh.faces)
