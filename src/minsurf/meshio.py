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

Every float is written as ``b"%.17g" % x`` spells it.  A normal double
with 2**-33 <= |x| < 2**40 (the window, which holds nearly every
coordinate, normal and channel value written) is spelled by
:func:`_float_text` with numpy integer arithmetic: its 17 digits are
m 5**p >> s, exact in two 64-bit limbs and rounded half to even, and a
table lays them out by the ``%g`` rules.  Every other value (zeros,
infinities, nan, subnormals and magnitudes outside the window) is spelled
by Python's ``%`` itself and put in its place; the bytes are the same
either way.  The face rows of a grid are formatted once per row format,
and every frame of a family on that grid reuses their text.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .bendneutral import bending_drilling_field
from .blocks import ordered_map
from .errors import InvalidInputError
from .weierstrass import WeierstrassSurface

# Rows formatted and written as one block: large enough to amortise numpy's
# per-call cost, small enough that a vertex block's temporaries (mostly the
# (values, 26) gather index of :func:`_float_text`) stay near 2 MB.
BLOCK_ROWS = 2048

_PAD, _MARK = 0, 1  # bytes no row format holds: padding, a value spelled by %


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


# the last grid meshed: (shape, its read-only faces, and the key and text
# blocks of the one face table last written from them)
_last_grid = (None, None, None, None)


def _grid_faces(shape):
    """Quad faces of a grid of this shape: the same read-only array while
    the shape does not change, so every frame of a family shares it."""
    global _last_grid
    if _last_grid[0] != shape:
        ns, nt = shape
        idx = np.arange(ns * nt).reshape(ns, nt)
        faces = np.stack([
            idx[:-1, :-1].ravel(),
            idx[1:, :-1].ravel(),
            idx[1:, 1:].ravel(),
            idx[:-1, 1:].ravel(),
        ], axis=1)
        faces.flags.writeable = False
        _last_grid = (shape, faces, None, None)
    return _last_grid[1]


def mesh_from_surface(surface: WeierstrassSurface) -> MeshArtifact:
    """Quad mesh of the sampled immersion."""
    return MeshArtifact(surface.r.reshape(-1, 3), _grid_faces(surface.grid.shape))


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


@functools.cache
def _digit_tables():
    """'<u4' words of the four ASCII digits of 0..9999, the trailing zero
    digits of each (4 for 0), and 5**p for p <= 27 as uint64."""
    n = np.arange(10000)
    digits = n[:, None] // np.array([1000, 100, 10, 1]) % 10
    words = (digits + 48).astype(np.uint8).view("<u4").ravel()
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1).astype(np.uint8)
    return words, zeros, 5 ** np.arange(28, dtype=np.uint64)


@functools.cache
def _layout(row_fmt):
    """Gather table of a row format of ``%.17g`` fields, and the 20
    constant bytes of each value's source (see :func:`_float_text`).

    Row 783 j + key lists the source bytes that spell a value in field j:
    the text before the field (first field only), the value, and the text
    after it, then _PAD bytes.  key = 391 neg + 17 (k + 10) + nd - 1 for
    the sign, the decimal exponent k in -10..12 and the nd kept digits;
    key 782 is _MARK, the place of a value spelled by ``%``.
    """
    pieces = row_fmt.split(b"%.17g")
    const = b"-.e0123456789" + bytes(sorted(set(b"".join(pieces)))) + bytes([_MARK])
    at = np.ones(256, np.intp)  # source byte of each constant; byte 1 is _PAD
    at[list(const)] = 20 + np.arange(len(const))
    neg, k, nd = (a.ravel() for a in np.meshgrid(
        [0, 1], np.arange(-10, 13), np.arange(1, 18), indexing="ij"))
    small, expo = (-4 <= k) & (k < 0), k < -4  # 0.000ddd and d.ddde-XX
    i = np.arange(17)
    digit = (i < nd[:, None]) | (i <= k[:, None])
    point = (i + 1 < nd[:, None]) & ((i == k[:, None]) | (i == 0) & expo[:, None])
    zero, dot, minus = at[ord("0")], at[ord(".")], at[ord("-")]
    slots = [(minus, neg == 1), (zero, small), (dot, small)]
    slots += [(zero, small & (k < -1 - z)) for z in range(3)]
    for j in range(17):  # digit j is source byte 0, or 3 + j
        slots += [(3 + j if j else 0, digit[:, j]), (dot, point[:, j])]
    slots += [(at[ord("e")], expo), (minus, expo),
              (at[48 + (-k) // 10 % 10], expo), (at[48 + (-k) % 10], expo)]
    src = np.stack([np.broadcast_to(b, k.shape) for b, _ in slots], axis=1)
    on = np.stack([on for _, on in slots], axis=1)
    src = np.vstack([src, np.full(len(slots), at[_MARK])])  # key 782
    on = np.vstack([on, np.arange(len(slots)) == 0])
    order = np.argsort(~on, axis=1, kind="stable")  # a value's bytes first, in order
    spell = np.take_along_axis(np.where(on, src, 1), order, axis=1)[:, :on.sum(1).max()]
    # _PAD bytes may sit anywhere in a row: the text drops them all
    tables = [np.hstack([np.tile(at[list(lead)], (783, 1)), spell,
                         np.tile(at[list(trail)], (783, 1))])
              for lead, trail in zip([pieces[0]] + [b""] * (len(pieces) - 2), pieces[1:])]
    width = max(t.shape[1] for t in tables)
    return (np.concatenate([np.pad(t, ((0, 0), (0, width - t.shape[1])), constant_values=1)
                            for t in tables]).astype(np.uint8),
            np.frombuffer(const.ljust(20, bytes([_PAD])), "<u4"))


def _decimal(x, pow5):
    """(D, k) with x = D 10**(k - 16) rounded half to even, 10**16 <= D <
    10**17, for normal doubles 2**-33 <= |x| < 2**40.

    With x = m 2**(E - 1075) and p = 16 - k in 3..27, m 5**p < 2**116 is
    held exactly in two 64-bit limbs of 32-bit partial products, and D is
    it shifted right by s = 1059 - E + k in 8..60 bits.
    """
    bits = x.view(np.uint64)
    m = (bits & (2**52 - 1)) | 2**52
    ml, mh = m & 0xFFFFFFFF, m >> 32
    e = (bits >> 52).astype(np.int64) & 0x7FF
    k = np.floor(np.log10(np.abs(x))).astype(np.int64)

    def shifted(k):  # the quotient, and the remainder's bits at the top
        f = pow5[16 - k]
        fl, fh = f & 0xFFFFFFFF, f >> 32
        mid = ml * fh + mh * fl
        lo = ml * fl
        low = lo + (mid << 32)
        high = mh * fh + (mid >> 32) + (low < lo)
        s = (1059 - e + k).astype(np.uint64)
        return (high << (64 - s)) | (low >> s), low << (64 - s)

    q, rem = shifted(k)
    off = (q >= 10**17).view(np.int8) - (q < 10**16).view(np.int8)
    if off.any():  # log10 rounded across a power of ten
        k += off
        q, rem = shifted(k)
    q += (rem > 2**63) | ((rem == 2**63) & (q & 1 == 1))
    carry = q == 10**17
    q[carry] = 10**16
    return q, k + carry


def _float_text(row_fmt, rows):
    """``(row_fmt * len(rows)) % tuple(rows.ravel().tolist())`` for a row
    format of ``%.17g`` fields and a float (rows, fields) table.

    Each value's 40-byte source holds its first digit (byte 0), its other
    16 (bytes 4..19, four to a word) and the constants of the row format
    (bytes 20..39); one gather through :func:`_layout`'s table spells every
    row, and dropping the _PAD bytes joins them.
    """
    table, const = _layout(row_fmt)
    words, zeros, pow5 = _digit_tables()
    x = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    e = (x.view(np.uint64) >> 52) & 0x7FF
    inside = (e >= 990) & (e < 1063)
    d, k = _decimal(np.where(inside, x, 1.0), pow5)
    first, rest = np.divmod(d, 10**16)
    hi, lo = np.divmod(rest, 10**8)
    chunks = np.stack(np.divmod(hi.astype(np.uint32), 10**4)
                      + np.divmod(lo.astype(np.uint32), 10**4))
    trailing = zeros[chunks[0]]
    for chunk in chunks[1:]:
        trailing = zeros[chunk] + (chunk == 0) * trailing
    key = np.where(inside, (x < 0) * 391 + (k + 10) * 17 + 16 - trailing, 782)
    src = np.empty((x.size, 10), "<u4")
    src[:, 0] = first + 48
    src[:, 1:5] = words[chunks.T]
    src[:, 5:] = const
    index = (table[(key.reshape(len(rows), -1) + 783 * np.arange(rows.shape[1])).ravel()]
             + np.arange(0, src.nbytes, 40)[:, None])
    text = np.take(src.view(np.uint8).ravel(), index).tobytes().translate(None, b"\0")
    if inside.all():
        return text
    spelled = [b"%.17g" % v for v in x[~inside].tolist()]
    parts = [b""] * (2 * len(spelled) + 1)
    parts[0::2], parts[1::2] = text.split(bytes([_MARK])), spelled
    return b"".join(parts)


def _row_blocks(row_fmt, columns, workers):
    """Text of row i of the side-by-side ``columns``, ``row_fmt % tuple(row)``,
    in blocks of ``BLOCK_ROWS`` rows formatted by ``workers`` processes.

    Each column is (N,) or (N, k).  Float rows (``%.17g`` fields) are
    spelled by :func:`_float_text`, integer rows by ``%``, where
    ``b"%d" % i`` spells an integer as ``str(i)``.
    """
    def block(start):
        rows = [col[start:start + BLOCK_ROWS] for col in columns]
        rows = rows[0] if len(rows) == 1 else np.column_stack(rows)
        if rows.dtype.kind == "f":
            return _float_text(row_fmt, rows.reshape(len(rows), -1))
        return (row_fmt * len(rows)) % tuple(rows.ravel().tolist())

    return ordered_map(block, range(0, len(columns[0]), BLOCK_ROWS), workers)


def _face_blocks(row_fmt, faces, base, workers):
    """Text of the face rows ``row_fmt % tuple(face + base)``.  The faces of
    the last grid meshed are formatted once per row format and base, and
    every later mesh of that grid reuses the text."""
    global _last_grid
    shape, grid_faces, key, blocks = _last_grid
    if faces is not grid_faces:
        yield from _row_blocks(row_fmt, [faces + base], workers)
        return
    if key != (row_fmt, base):
        blocks = list(_row_blocks(row_fmt, [faces + base], workers))
        _last_grid = (shape, faces, (row_fmt, base), blocks)
    yield from blocks


def _write_file(path, header, tables):
    """Write ``header``, then the text blocks of each table; a file that
    fails half written is removed."""
    with open(path, "wb") as fh:
        try:
            fh.write(header.encode())
            for blocks in tables:
                # writelines drops each block once written, before the next is formatted
                fh.writelines(blocks)
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def write_obj(mesh: MeshArtifact, path, workers=1):
    """OBJ of the mesh; the same bytes for any number of ``workers``."""
    _write_file(path, f"# minsurf mesh: {len(mesh.vertices)} vertices, "
                      f"{len(mesh.faces)} faces\n",
                [_row_blocks(b"v %.17g %.17g %.17g\n", [mesh.vertices], workers),
                 _face_blocks(b"f %d %d %d %d\n", mesh.faces, 1, workers)])


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
                [_row_blocks(b" ".join([b"%.17g"] * len(names)) + b"\n", cols, workers),
                 _face_blocks(b"4 %d %d %d %d\n", mesh.faces, 0, workers)])
