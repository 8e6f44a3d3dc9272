"""The OBJ/PLY float kernel against Python's ``%``, and the face text kept
for a grid."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minsurf import meshio
from minsurf.weierstrass import DomainGrid, enneper, integrate_representation

# tables of 1, 3 and 10 columns, with and without the OBJ prefix
FORMATS = [prefix + b" ".join([b"%.17g"] * columns) + b"\n"
           for columns in (1, 3, 10) for prefix in (b"", b"v ")]


def spelled(row_fmt, rows):
    """The reference: one ``%`` over the whole table."""
    return (row_fmt * len(rows)) % tuple(rows.ravel().tolist())


def assert_spelled(row_fmt, values):
    """The kernel's rows, block by block, equal the reference; compared line
    by line on failure, to name the first row spelled differently."""
    columns = row_fmt.count(b"%")
    values = np.asarray(values, dtype=float).ravel()
    rows = values[:values.size // columns * columns].reshape(-1, columns)
    got = b"".join(meshio._row_blocks(row_fmt, [rows], 1))
    want = spelled(row_fmt, rows)
    if got != want:
        for line, ref, row in zip(got.split(b"\n"), want.split(b"\n"), rows):
            assert line == ref, [float.hex(v) for v in row]
    assert got == want


def test_random_bit_patterns():
    # 10**6 patterns: a tenth uniform over the 64 bits (every exponent, both
    # signs, nan and inf), the rest with exponents in and next to the window
    rng = np.random.default_rng(2024)
    uniform = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
    near = rng.integers(0, 2**52, 9 * 10**5, dtype=np.uint64)
    near |= rng.integers(987, 1066, near.size).astype(np.uint64) << np.uint64(52)
    near |= rng.integers(0, 2, near.size).astype(np.uint64) << np.uint64(63)
    values = np.concatenate([uniform, near]).view(np.float64)
    rng.shuffle(values)
    for row_fmt, part in zip(FORMATS, np.array_split(values, len(FORMATS))):
        assert_spelled(row_fmt, part)


def hand_values():
    """Zeros, infinities, nan and subnormals; the window's edges; the
    exponent form's edge at 1e-4; powers of ten and their neighbours;
    17-digit carries; half-way ties; integers up to 2**40."""
    up = lambda x: np.nextafter(x, np.inf)  # noqa: E731
    down = lambda x: np.nextafter(x, -np.inf)  # noqa: E731
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
              1e-5, 1e-4, down(1e-4), up(1e-4), 99.5, down(100.0), 0.5, 0.1, 1 / 3]
    for edge in (2.0**-33, 2.0**40):
        values += [down(edge), edge, up(edge)]
    for k in range(-11, 13):
        values += [down(10.0**k), 10.0**k, up(10.0**k)]
    values += [(2.0**b + 1) / 2.0**b for b in range(14, 30)]  # ties for b >= 17
    values += [9.9999999999999995e-9 * 10.0**k for k in range(0, 20)]
    values += [float(i) for i in (1, 2, 9, 10, 99, 12345, 2**31, 10**12, 2**40 - 1)]
    values += list(np.random.default_rng(5).integers(0, 2**40, 200).astype(float))
    return np.array(values + [-v for v in values])


@pytest.mark.parametrize("row_fmt", FORMATS, ids=lambda f: f.decode().strip())
def test_hand_picked_values(row_fmt):
    values = hand_values()
    for shift in range(row_fmt.count(b"%")):  # every value in every column
        assert_spelled(row_fmt, np.roll(values, shift))


def test_known_spellings():
    x = np.array([[np.nextafter(100.0, 0.0)], [(2.0**17 + 1) / 2.0**17],
                  [np.nextafter(1e-4, 0.0)], [-0.0], [2.0**40]])
    assert meshio._float_text(b"%.17g\n", x) == (
        b"99.999999999999986\n1.0000076293945312\n9.9999999999999991e-05\n"
        b"-0\n1099511627776\n")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1,
                max_size=20))
def test_any_floats(rows):
    assert_spelled(b"v %.17g %.17g %.17g\n", rows)


def test_one_vertex_block_allocates_under_2_5_mb():
    # the temporaries of a block grow with its rows: a block of 8192
    # vertices would need about 9 MB here and in every worker
    vertices = np.random.default_rng(3).standard_normal((20000, 3))
    next(meshio._row_blocks(FORMATS[3], [vertices], 1))  # tables built on first use
    tracemalloc.start()
    try:
        block = next(meshio._row_blocks(FORMATS[3], [vertices], 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.count(b"\n") == meshio.BLOCK_ROWS
    assert peak < 2.5 * 2**20, peak


def test_grid_faces_are_formatted_once_per_shape(tmp_path, monkeypatch):
    formatted = []
    row_blocks = meshio._row_blocks

    def counted(row_fmt, columns, workers):
        formatted.append(row_fmt)
        return row_blocks(row_fmt, columns, workers)

    monkeypatch.setattr(meshio, "_row_blocks", counted)

    def write(shape, t, name):
        grid = DomainGrid.polar(0.3 + t, 1.2, *shape)
        mesh = meshio.mesh_from_surface(integrate_representation(enneper(), grid))
        meshio.write_obj(mesh, tmp_path / name)
        return mesh

    first = write((9, 7), 0.0, "a.obj")
    second = write((9, 7), 0.1, "b.obj")  # another frame on the same grid shape
    assert second.faces is first.faces and not first.faces.flags.writeable
    assert formatted.count(b"f %d %d %d %d\n") == 1
    third = write((7, 9), 0.0, "c.obj")  # as many faces, in another shape
    assert formatted.count(b"f %d %d %d %d\n") == 2
    for mesh, name in [(first, "a.obj"), (second, "b.obj"), (third, "c.obj")]:
        faces = meshio.parse_obj(tmp_path / name)[1]
        assert np.array_equal(faces, mesh.faces)
    assert not np.array_equal(first.faces, third.faces)
