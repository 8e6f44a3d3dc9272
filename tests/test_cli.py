"""End-to-end tests for the command-line interface and mesh output."""

import json

import numpy as np
import pytest

from minsurf import meshio
from minsurf.cli import main
from minsurf.weierstrass import DomainGrid, enneper, integrate_representation


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def reference_obj(mesh):
    """One f-string per row: the spelling write_obj must reproduce."""
    lines = [f"# minsurf mesh: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces"]
    lines += [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += ["f " + " ".join(str(i + 1) for i in quad) for quad in mesh.faces]
    return "\n".join(lines) + "\n"


def reference_ply(mesh):
    """One f-string per value: the spelling write_ply must reproduce."""
    scalar_names = [k for k, a in mesh.attributes.items() if a.ndim == 1]
    lines = ["ply", "format ascii 1.0", f"element vertex {len(mesh.vertices)}",
             "property double x", "property double y", "property double z",
             "property double nx", "property double ny", "property double nz"]
    lines += [f"property double {name}" for name in scalar_names]
    lines += [f"element face {len(mesh.faces)}",
              "property list uchar int vertex_indices", "end_header"]
    table = np.hstack([mesh.vertices, mesh.attributes["normal"]]
                      + [mesh.attributes[name][:, None] for name in scalar_names])
    lines += [" ".join(f"{val:.17g}" for val in row) for row in table]
    lines += ["4 " + " ".join(str(i) for i in quad) for quad in mesh.faces]
    return "\n".join(lines) + "\n"


def assert_text_equal(path, expected):
    """Byte equality, reported by the first differing line: pytest's full
    diff of megabytes of text would take minutes."""
    got = read_bytes(path).decode().splitlines(keepends=True)
    want = expected.splitlines(keepends=True)
    for number, (line, ref) in enumerate(zip(got, want), start=1):
        assert line == ref, f"line {number}"
    assert len(got) == len(want)


def awkward_mesh():
    """More rows than one write block (and not a multiple of it), with
    signed zeros, infinities, extreme exponents and nan channel values."""
    rng = np.random.default_rng(7)
    n = 2 * meshio.BLOCK_ROWS + 321
    special = [0.0, -0.0, np.inf, -np.inf, 1e-300, 1e300, -1e300, 5e-324, 0.1, 1 / 3]

    def column(shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        a.flat[:len(special)] = special
        return a

    vertices = column((n, 3))
    faces = rng.integers(0, n, (n - 5, 4))
    faces[0] = [0, n - 1, 0, n - 1]
    drill = column(n)
    drill[rng.random(n) < 0.1] = np.nan
    channels = {"normal": column((n, 3)), "gauss_curvature": column(n),
                "stretch": column(n), "drill": drill, "bending_norm": column(n)}
    return meshio.MeshArtifact(vertices, faces, lambda: channels)


class TestGen:
    def test_writes_expected_vertex_count(self, tmp_path):
        out = tmp_path / "enneper.obj"
        code = main(["gen", "--surface", "enneper", "--grid", "32x32",
                     "--rmax", "1.5", "--out", str(out)])
        assert code == 0
        verts, faces = meshio.parse_obj(out)
        assert verts.shape == (32 * 32, 3)
        assert faces.shape == (31 * 31, 4)

    def test_bour_with_small_rmin(self, tmp_path):
        out = tmp_path / "bour.obj"
        assert main(["gen", "--surface", "bour:m=3", "--rmin", "0.05",
                     "--grid", "16x16", "--out", str(out)]) == 0
        assert out.exists()

    def test_catenoid_rmin_zero_rejected(self, tmp_path):
        code = main(["gen", "--surface", "catenoid", "--rmin", "0",
                     "--out", str(tmp_path / "x.obj")])
        assert code == 2

    def test_unknown_surface_rejected(self, tmp_path):
        assert main(["gen", "--surface", "gyroid",
                     "--out", str(tmp_path / "x.obj")]) == 2

    def test_missing_surface_rejected(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x.obj")]) == 2

    def test_io_failure_exit_code(self, tmp_path):
        code = main(["gen", "--surface", "enneper", "--grid", "8x8",
                     "--out", str(tmp_path / "no" / "dir" / "x.obj")])
        assert code == 3

    def test_obj_round_trip_exact(self, tmp_path):
        surface = integrate_representation(enneper(),
                                           DomainGrid.polar(0.3, 1.2, 17, 17))
        mesh = meshio.mesh_from_surface(surface)
        path = tmp_path / "rt.obj"
        meshio.write_obj(mesh, path)
        verts, faces = meshio.parse_obj(path)
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(faces, mesh.faces)

    def test_repeated_runs_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        args = ["gen", "--surface", "helicoid", "--grid", "16x16",
                "--rmin", "0.4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_ply_sidecar(self, tmp_path):
        obj, ply = tmp_path / "s.obj", tmp_path / "s.ply"
        assert main(["gen", "--surface", "enneper", "--grid", "12x12",
                     "--out", str(obj), "--ply", str(ply)]) == 0
        text = ply.read_text().splitlines()
        assert text[0] == "ply"
        assert any("gauss_curvature" in line for line in text)
        assert any(line.startswith("element vertex 144") for line in text)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": "enneper", "grid": "8x8",
                                   "rmax": 1.0}))
        out = tmp_path / "cfg.obj"
        assert main(["gen", "--config", str(cfg), "--grid", "12x12",
                     "--out", str(out)]) == 0
        verts, _ = meshio.parse_obj(out)
        assert len(verts) == 144  # flag overrode the config grid

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": "enneper", "whatever": 1}))
        assert main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "x.obj")]) == 2


class TestMeshArtifact:
    def test_face_winding_aligned_with_normals(self):
        for spec in ("enneper", "catenoid"):
            from minsurf.weierstrass import parse_surface_spec

            surface = integrate_representation(
                parse_surface_spec(spec), DomainGrid.polar(0.4, 1.3, 21, 21))
            mesh = meshio.mesh_from_surface(surface)
            assert meshio.face_normal_alignment(mesh) > 0.0

    def test_attribute_channels_present(self):
        surface = integrate_representation(enneper(),
                                           DomainGrid.polar(0.4, 1.3, 9, 9))
        mesh = meshio.mesh_from_surface(surface)
        assert set(mesh.attributes) == {"normal", "gauss_curvature", "stretch",
                                        "drill", "bending_norm"}
        assert mesh.attributes["normal"].shape == (81, 3)
        assert mesh.attributes["gauss_curvature"].shape == (81,)
        np.testing.assert_allclose(mesh.attributes["bending_norm"],
                                   1.0 / surface.grid.coords[2].ravel())

    def test_obj_bytes_match_reference(self, tmp_path):
        mesh = awkward_mesh()
        path = tmp_path / "awkward.obj"
        meshio.write_obj(mesh, path)
        assert_text_equal(path, reference_obj(mesh))

    def test_ply_bytes_match_reference(self, tmp_path):
        mesh = awkward_mesh()
        path = tmp_path / "awkward.ply"
        meshio.write_ply(mesh, path)
        assert_text_equal(path, reference_ply(mesh))


class TestAnimate:
    def test_bour_family_frames(self, tmp_path):
        outdir = tmp_path / "frames"
        code = main(["animate", "--family", "bour-t", "--frames", "5",
                     "--grid", "12x12", "--rmin", "0.2", "--rmax", "1.0",
                     "--outdir", str(outdir)])
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["frames"]) == 5
        ts = [f["t"] for f in manifest["frames"]]
        assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 1.0
        assert all((outdir / f["file"]).exists() for f in manifest["frames"])
        assert all(f["scale"] > 0 for f in manifest["frames"])

    def test_frame0_matches_gen_enneper(self, tmp_path):
        outdir = tmp_path / "frames"
        assert main(["animate", "--family", "bour-t", "--frames", "2",
                     "--grid", "12x12", "--rmin", "0.2", "--rmax", "1.0",
                     "--outdir", str(outdir)]) == 0
        single = tmp_path / "single.obj"
        assert main(["gen", "--surface", "enneper", "--grid", "12x12",
                     "--rmin", "0.2", "--rmax", "1.0", "--out", str(single)]) == 0
        assert read_bytes(outdir / "frame_0000.obj") == read_bytes(single)

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("MINSURF_THREADS", threads)
            outdir = tmp_path / f"frames{threads}"
            assert main(["animate", "--family", "catenoid-helicoid",
                         "--frames", "3", "--grid", "10x10", "--rmin", "0.5",
                         "--outdir", str(outdir)]) == 0
            outs.append(read_bytes(outdir / "frame_0002.obj"))
        assert outs[0] == outs[1]

    def test_output_directory_identical_across_threads(self, tmp_path, monkeypatch):
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MINSURF_THREADS", threads)
            outdir = tmp_path / f"frames{threads}"
            assert main(["animate", "--family", "bour-t", "--frames", "4",
                         "--grid", "10x10", "--rmin", "0.2",
                         "--outdir", str(outdir)]) == 0
            trees.append({p.name: read_bytes(p) for p in sorted(outdir.iterdir())})
        assert "manifest.json" in trees[0]
        assert trees[0] == trees[1]

    def test_obj_output_computes_no_channel(self, tmp_path, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("channel computed for an OBJ-only command")

        monkeypatch.setattr("minsurf.meshio.bending_drilling_field", unread)
        monkeypatch.setattr("minsurf.weierstrass.curvature_closed_form", unread)
        outdir = tmp_path / "frames"
        assert main(["animate", "--family", "bour-t", "--frames", "3",
                     "--grid", "10x10", "--rmin", "0.2",
                     "--outdir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.glob("*.obj")) == [
            "frame_0000.obj", "frame_0001.obj", "frame_0002.obj"]

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["animate", "--family", "moebius", "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    def test_general_family_needs_pair(self, tmp_path):
        assert main(["animate", "--family", "general",
                     "--outdir", str(tmp_path)]) == 2

    def test_general_family_runs(self, tmp_path):
        outdir = tmp_path / "gen_frames"
        code = main(["animate", "--family", "general",
                     "--harmonic-pair", "0.3*ln(rho);0.3*phi",
                     "--frames", "2", "--grid", "10x10", "--rmin", "0.4",
                     "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "frame_0001.obj").exists()


class TestVerifyCommand:
    def test_subset_runs_and_reports(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--check", "09-image-minimality",
                     "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS 09-image-minimality" in out
        report = json.loads(report_path.read_text())
        assert report["summary"]["all_passed"]
        assert [c["check_id"] for c in report["checks"]] == ["09-image-minimality"]

    def test_unknown_check_rejected(self, tmp_path):
        assert main(["verify", "--check", "nope",
                     "--out", str(tmp_path / "r.json")]) == 2

    def test_repeated_reports_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["verify", "--check",
                         "01-rotation-split,09-image-minimality",
                         "--out", str(path)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_grid_refinement_selects_convergence_checks(self, tmp_path):
        report_path = tmp_path / "conv.json"
        code = main(["verify", "--grid-refinement", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        ids = [c["check_id"] for c in report["checks"]]
        assert ids == ["03-weierstrass-identities", "05-gauss-curvature",
                       "07-bending-neutral-association", "11-circulation"]
