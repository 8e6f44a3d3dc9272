"""End-to-end tests for the command-line interface and mesh output."""

import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from minsurf import meshio
from minsurf.cli import main
from minsurf.errors import InvalidInputError
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


def reference_ply(mesh, channels):
    """One f-string per value: the spelling write_ply must reproduce."""
    scalar_names = [k for k, a in channels.items() if a.ndim == 1]
    lines = ["ply", "format ascii 1.0", f"element vertex {len(mesh.vertices)}",
             "property double x", "property double y", "property double z",
             "property double nx", "property double ny", "property double nz"]
    lines += [f"property double {name}" for name in scalar_names]
    lines += [f"element face {len(mesh.faces)}",
              "property list uchar int vertex_indices", "end_header"]
    table = np.hstack([mesh.vertices, channels["normal"]]
                      + [channels[name][:, None] for name in scalar_names])
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
    """A mesh and its PLY channels: more rows than one write block (and not
    a multiple of it), with signed zeros, infinities, extreme exponents and
    nan channel values."""
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
    return meshio.MeshArtifact(vertices, faces), channels


def terms(n, term="u"):
    return "+".join([term] * n)


# expressions too long or too deep for a recursive pass: each is refused
# before one runs, not ended by a RecursionError
LONG_EXPRESSIONS = [
    pytest.param(f"{terms(n)};0", id=f"{n}-terms") for n in (500, 1000, 3000)
] + [pytest.param("-" * 500 + "u;0", id="500-leading-minus")]


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

    # rmin > 0 is one rule for every datum, not a guess from its power
    @pytest.mark.parametrize("rmin", ["0", "-1"])
    @pytest.mark.parametrize("surface", [
        "enneper", "custom:-2*ln(rho);-2*phi",
        "bonnet:theta=0.3:custom:-2*ln(rho);-2*phi"])
    def test_nonpositive_rmin_rejected(self, surface, rmin, tmp_path, capsys):
        code = main(["gen", "--surface", surface, "--rmin", rmin, "--grid", "9x9",
                     "--out", str(tmp_path / "x.obj")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "x.obj").exists()

    @pytest.mark.parametrize("surface", ["bour:m=3,m=4", "bour:m"])
    def test_bad_parameter_list_is_invalid_input(self, surface, tmp_path, capsys):
        code = main(["gen", "--surface", surface, "--grid", "9x9",
                     "--out", str(tmp_path / "x.obj")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "'m'" in err and err.count("\n") == 1
        assert not (tmp_path / "x.obj").exists()

    # numbers are float64, so each of these is a non-finite datum for the
    # holomorphy guard, or a literal float64 cannot hold, and never a Python
    # exception or a ten-billion-digit integer
    @pytest.mark.parametrize("expr", [
        "1/0;0", "1%0;0", "0**-1;0", "10**400;0", "2.0**10000;0", "10**10**10;0",
        pytest.param("1" + "0" * 400 + ";0", id="400-digit-literal"),
    ] + LONG_EXPRESSIONS)
    def test_non_finite_expression_is_invalid_input(self, expr, tmp_path, capsys):
        code = main(["gen", "--surface", f"custom:{expr}", "--grid", "9x9",
                     "--out", str(tmp_path / "x.obj")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "x.obj").exists()

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

    def test_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch):
        # 96 x 96 rows are five write blocks; the quadrature pass has twelve
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MINSURF_THREADS", threads)
            obj, ply = tmp_path / f"{threads}.obj", tmp_path / f"{threads}.ply"
            assert main(["gen", "--surface", "custom:ln(rho)+u+0.1;phi+v-0.3",
                         "--grid", "96x96", "--rmin", "0.3", "--rmax", "1.4",
                         "--out", str(obj), "--ply", str(ply)]) == 0
            outputs.append((read_bytes(obj), read_bytes(ply), len(forks)))
        assert outputs[0][2] == 0 and outputs[1][2] == 5  # one pass, four tables
        assert outputs[0][:2] == outputs[1][:2]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    # the first table of the OBJ, or of the PLY after a finished OBJ
    @pytest.mark.parametrize("failing", [1, 3], ids=["obj", "ply"])
    def test_failed_write_leaves_no_file_and_no_worker(self, failing, tmp_path,
                                                       capsys, monkeypatch):
        from minsurf.blocks import ordered_map

        parent, calls = os.getpid(), []

        def failing_in_worker(fn, items, workers):
            calls.append(None)
            fails = len(calls) == failing

            def format_block(item):
                if fails and os.getpid() != parent:
                    raise RuntimeError("formatter failed in a worker")
                return fn(item)

            return ordered_map(format_block, items, workers)

        monkeypatch.setattr(meshio, "ordered_map", failing_in_worker)
        monkeypatch.setattr(meshio, "BLOCK_ROWS", 64)
        monkeypatch.setenv("MINSURF_THREADS", "2")
        code = main(["gen", "--surface", "enneper", "--grid", "17x17",
                     "--out", str(tmp_path / "s.obj"), "--ply", str(tmp_path / "s.ply")])
        assert code == 3
        assert capsys.readouterr().err == (
            "i/o error: worker 1 failed: RuntimeError: formatter failed in a worker\n")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    def test_ply_skips_rodrigues_cross_check(self, tmp_path, monkeypatch):
        # the PLY channels are closed forms; the numeric Rodrigues split is
        # a cross-check that only the verify suite reads
        def unread(*args, **kwargs):
            raise AssertionError("Rodrigues cross-check computed for a PLY")

        argv = ["gen", "--surface", "bour:m=3", "--grid", "12x12",
                "--rmin", "0.2", "--out", str(tmp_path / "s.obj")]
        assert main(argv + ["--ply", str(tmp_path / "a.ply")]) == 0
        monkeypatch.setattr("minsurf.bendneutral.rodrigues_from_matrices", unread)
        assert main(argv + ["--ply", str(tmp_path / "b.ply")]) == 0
        assert read_bytes(tmp_path / "a.ply") == read_bytes(tmp_path / "b.ply")

    def test_ply_builds_no_curvature_tensor(self, tmp_path, monkeypatch):
        # the PLY reads only K, which needs neither the principal frame nor
        # the tensor of curvature_closed_form
        def unread(*args, **kwargs):
            raise AssertionError("curvature tensor computed for a PLY")

        argv = ["gen", "--surface", "custom:ln(rho)+u;phi+v", "--grid", "12x12",
                "--rmin", "0.2", "--out", str(tmp_path / "s.obj")]
        assert main(argv + ["--ply", str(tmp_path / "a.ply")]) == 0
        monkeypatch.setattr("minsurf.weierstrass.curvature_closed_form", unread)
        assert main(argv + ["--ply", str(tmp_path / "b.ply")]) == 0
        assert read_bytes(tmp_path / "a.ply") == read_bytes(tmp_path / "b.ply")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": "enneper", "grid": "8x8",
                                   "rmax": 1.0}))
        out = tmp_path / "cfg.obj"
        assert main(["gen", "--config", str(cfg), "--grid", "12x12",
                     "--out", str(out)]) == 0
        verts, _ = meshio.parse_obj(out)
        assert len(verts) == 144  # flag overrode the config grid

    @pytest.mark.parametrize("config, flags, same_as", [
        ({"grid": "8x8", "rmax": 1.0}, ["--grid", "64x64"],
         ["--grid", "64x64", "--rmax", "1.0"]),
        ({"grid": "8x8", "rmax": 2.0}, ["--rmax", "1.5"],
         ["--grid", "8x8", "--rmax", "1.5"]),
        ({"grid": "8x8", "rmax": 1.0}, ["--gr", "64x64"],
         ["--grid", "64x64", "--rmax", "1.0"]),
    ], ids=["grid", "rmax", "abbreviated"])
    def test_flag_given_with_its_default_overrides_config(self, tmp_path, config,
                                                          flags, same_as):
        # a flag counts as given whatever its value, also when abbreviated
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"surface": "enneper", **config}))
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        assert main(["gen", "--config", str(cfg), *flags, "--out", str(a)]) == 0
        assert main(["gen", "--surface", "enneper", *same_as, "--out", str(b)]) == 0
        assert read_bytes(a) == read_bytes(b)

    @pytest.mark.parametrize("command, config", [
        ("gen", {"surface": "enneper", "grid": 64}),
        ("animate", {"family": "bour-t", "frames": "three"}),
        ("animate", {"family": "bour-t", "frames": 2.5}),
        ("gen", {"surface": "enneper", "rmax": True}),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys,
                                                 command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = ["--out", str(tmp_path / "x.obj")] if command == "gen" else [
            "--outdir", str(tmp_path / "frames")]
        assert main([command, "--config", str(cfg)] + out) == 2
        assert capsys.readouterr().err.startswith("error: config key")

    def test_config_values_parsed_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "bour-t", "frames": "3",
                                   "grid": "8x8", "rmin": 0.2, "rmax": 1}))
        outdir = tmp_path / "frames"
        assert main(["animate", "--config", str(cfg),
                     "--outdir", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["frames"]) == 3 and manifest["rmax"] == 1.0

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
            normals = surface.nu.reshape(-1, 3)
            assert meshio.face_normal_alignment(mesh, normals) > 0.0

    def test_attribute_channels_present(self):
        surface = integrate_representation(enneper(),
                                           DomainGrid.polar(0.4, 1.3, 9, 9))
        channels = meshio.surface_channels(surface)
        assert set(channels) == {"normal", "gauss_curvature", "stretch",
                                 "drill", "bending_norm"}
        assert channels["normal"].shape == (81, 3)
        assert channels["gauss_curvature"].shape == (81,)
        np.testing.assert_allclose(channels["bending_norm"],
                                   1.0 / surface.grid.coords[2].ravel())

    # three write blocks: serial, one block per process, more workers than blocks
    def test_obj_bytes_match_reference(self, tmp_path):
        mesh, _ = awkward_mesh()
        expected = reference_obj(mesh)
        for workers in (1, 2, 3, 8):
            path = tmp_path / f"awkward{workers}.obj"
            meshio.write_obj(mesh, path, workers)
            assert_text_equal(path, expected)

    def test_ply_bytes_match_reference(self, tmp_path):
        mesh, channels = awkward_mesh()
        expected = reference_ply(mesh, channels)
        for workers in (1, 2, 3, 8):
            path = tmp_path / f"awkward{workers}.ply"
            meshio.write_ply(mesh, path, channels, workers)
            assert_text_equal(path, expected)


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
        monkeypatch.setattr("minsurf.weierstrass._kappa_closed_form", unread)
        outdir = tmp_path / "frames"
        assert main(["animate", "--family", "bour-t", "--frames", "3",
                     "--grid", "10x10", "--rmin", "0.2",
                     "--outdir", str(outdir)]) == 0
        assert sorted(p.name for p in outdir.glob("*.obj")) == [
            "frame_0000.obj", "frame_0001.obj", "frame_0002.obj"]

    def test_one_live_surface_in_the_caller(self, tmp_path, monkeypatch):
        from minsurf import families

        build = families.integrate_representation
        live, peak = weakref.WeakSet(), []

        def counted(*args, **kwargs):
            surface = build(*args, **kwargs)
            live.add(surface)
            peak.append(len(live))
            return surface

        monkeypatch.setattr(families, "integrate_representation", counted)
        monkeypatch.setenv("MINSURF_THREADS", "2")
        assert main(["animate", "--family", "bour-t", "--frames", "12",
                     "--grid", "24x24", "--rmin", "0.2",
                     "--outdir", str(tmp_path / "frames")]) == 0
        # the caller builds every second frame; the worker builds the rest
        assert len(peak) == 6
        assert max(peak) == 1

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["animate", "--family", "moebius", "--outdir", str(tmp_path)])
        assert exc.value.code == 2

    def test_general_family_needs_pair(self, tmp_path):
        assert main(["animate", "--family", "general",
                     "--outdir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("pair", ["u;u", "1/0;0"])
    def test_non_conjugate_pair_writes_no_frame(self, pair, tmp_path, capsys):
        # (u, u) is harmonic but fails Cauchy-Riemann; the family check must
        # reject it before frame 0, not on a later member
        outdir = tmp_path / "frames"
        code = main(["animate", "--family", "general", "--harmonic-pair", pair,
                     "--grid", "9x9", "--frames", "3", "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "conjugate harmonic pair" in err and "Traceback" not in err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("family", ["general", "bonnet"])
    def test_non_holomorphic_base_writes_no_frame(self, family, tmp_path, capsys):
        # the members are not probed one by one: the base is, before frame 0
        outdir = tmp_path / "frames"
        code = main(["animate", "--family", family, "--base", "custom:u*u;0",
                     "--harmonic-pair", "u;v", "--grid", "9x9", "--frames", "3",
                     "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: datum 'custom:u*u;0' fails the holomorphy check")
        assert err.count("\n") == 1, err
        assert list(outdir.iterdir()) == []

    def test_general_family_rmin_zero_writes_no_frame(self, tmp_path, capsys):
        outdir = tmp_path / "frames"
        code = main(["animate", "--family", "general", "--base", "catenoid",
                     "--harmonic-pair", "0.3*ln(rho);0.3*phi", "--rmin", "0",
                     "--grid", "9x9", "--frames", "2", "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.rglob("*.obj"))

    def test_general_family_runs(self, tmp_path, monkeypatch):
        # the harmonic pair reaches the forked worker without pickling
        fork, forks = os.fork, []

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setenv("MINSURF_THREADS", "2")
        outdir = tmp_path / "gen_frames"
        code = main(["animate", "--family", "general",
                     "--harmonic-pair", "0.3*ln(rho);0.3*phi",
                     "--frames", "2", "--grid", "10x10", "--rmin", "0.4",
                     "--outdir", str(outdir)])
        assert code == 0
        assert (outdir / "frame_0001.obj").exists()
        assert len(forks) == 1


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

    def test_unknown_check_rejected(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setenv("MINSURF_THREADS", "2")
        assert main(["verify", "--check", "09-image-minimality,nope",
                     "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("error, code, err", [
        (RuntimeError("check failed in a worker"), 3,
         "i/o error: worker 1 failed: RuntimeError: check failed in a worker\n"),
        (InvalidInputError("check refused in a worker"), 2,
         "error: check refused in a worker\n")], ids=["io", "invalid"])
    def test_check_failing_in_a_worker(self, error, code, err, tmp_path, capsys,
                                       monkeypatch):
        from minsurf import verify

        parent, check = os.getpid(), verify.CRITERIA["09-image-minimality"]

        def fails_in_worker(cache):
            if os.getpid() != parent:
                raise error
            return check(cache)

        monkeypatch.setitem(verify.CRITERIA, "09-image-minimality", fails_in_worker)
        monkeypatch.setenv("MINSURF_THREADS", "2")
        report_path = tmp_path / "r.json"
        # the caller runs 01, worker 1 runs 09
        assert main(["verify", "--check", "01-rotation-split,09-image-minimality",
                     "--out", str(report_path)]) == code
        assert capsys.readouterr().err == err
        assert not report_path.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_repeated_reports_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["verify", "--check",
                         "01-rotation-split,09-image-minimality",
                         "--out", str(path)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_failed_animate_run_fails_determinism_check(self, tmp_path, monkeypatch):
        # an animate run that fails fails its sub-check; the suite still
        # writes its report
        def failed(*args, **kwargs):
            raise InvalidInputError("no frames")

        monkeypatch.setattr("minsurf.cli.family_frames", failed)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--check", "12-determinism-io",
                     "--out", str(report_path)]) == 1
        (record,) = json.loads(report_path.read_text())["checks"]
        failed_items = [name for name, item in record["details"].items()
                        if not item["passed"]]
        assert failed_items == ["animate_bit_identical_across_threads"]

    @pytest.mark.parametrize("threads", [None, "3"], ids=["unset", "3"])
    def test_determinism_check_runs_animate_in_process(self, threads, tmp_path,
                                                       monkeypatch, capsys):
        # check 12 starts no process, prints none of animate's output and
        # leaves MINSURF_THREADS as it found it
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        if threads is None:
            monkeypatch.delenv("MINSURF_THREADS", raising=False)
        else:
            monkeypatch.setenv("MINSURF_THREADS", threads)
        report_path = tmp_path / "report.json"
        assert main(["verify", "--check", "12-determinism-io",
                     "--out", str(report_path)]) == 0
        assert os.environ.get("MINSURF_THREADS") == threads
        pass_line, summary = capsys.readouterr().out.splitlines()
        assert pass_line == ("PASS 12-determinism-io: max residual 0.000e+00 "
                             "(tolerance 0.000e+00, grid -)")
        assert re.fullmatch(r"1/1 checks passed in \d+\.\ds; report: "
                            + re.escape(str(report_path)), summary), summary

    def test_grid_refinement_selects_convergence_checks(self, tmp_path):
        report_path = tmp_path / "conv.json"
        code = main(["verify", "--grid-refinement", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        ids = [c["check_id"] for c in report["checks"]]
        assert ids == ["03-weierstrass-identities", "05-gauss-curvature",
                       "07-bending-neutral-association", "11-circulation"]

    @pytest.mark.parametrize("via_config", [False, True])
    def test_grid_refinement_with_check_rejected(self, via_config, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        argv = ["verify", "--out", str(report_path)]
        if via_config:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"grid-refinement": True,
                                          "check": "09-image-minimality"}))
            argv += ["--config", str(config)]
        else:
            argv += ["--grid-refinement", "--check", "09-image-minimality"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not report_path.exists()


# a non-finite parameter is refused where it is parsed, with one line that
# names it: no numpy warning before it, no "singular immersion" after it
NON_FINITE_CASES = [
    (["gen", "--surface", "bour:m=nan"], "parameter 'm' must be finite, got nan"),
    (["gen", "--surface", "bour:m=inf"], "parameter 'm' must be finite, got inf"),
    (["gen", "--surface", "catenoid:c=inf"], "parameter 'c' must be finite, got inf"),
    (["gen", "--surface", "helicoid:c=-inf"], "parameter 'c' must be finite, got -inf"),
    (["gen", "--surface", "catenoid:c=nan"], "parameter 'c' must be finite, got nan"),
    (["gen", "--surface", "enneper", "--rmax", "nan"],
     "polar grid requires a finite rmax, got nan"),
    (["gen", "--surface", "enneper", "--rmin", "0.1", "--rmax", "inf"],
     "polar grid requires a finite rmax, got inf"),
    (["animate", "--family", "bonnet", "--theta-max", "inf"],
     "family parameter theta_max must be finite"),
    (["animate", "--family", "catenoid-helicoid", "--c", "nan"],
     "family parameter c must be finite"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, line", [pytest.param(args, line, id=" ".join(args))
                                        for args, line in NON_FINITE_CASES])
def test_non_finite_parameter_is_one_error_line(args, line, tmp_path, capsys):
    out = ["--out", str(tmp_path / "x.obj")] if args[0] == "gen" else [
        "--outdir", str(tmp_path / "frames"), "--frames", "2"]
    assert main(args + ["--grid", "9x9"] + out) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list(tmp_path.iterdir()) == []


# finite data whose powers or rim scale overflow float64: one error line, no
# numpy warning before it and no traceback under warnings-as-errors
OVERFLOW_CASES = [
    (["gen", "--surface", "bour:m=1e308"],
     "immersion for bour:m=1e+308 is not finite on the domain (a singularity, "
     "or float64 overflow); shrink the domain or the parameter"),
    (["gen", "--surface", "enneper", "--rmax", "1e300"],
     "immersion for enneper is not finite on the domain (a singularity, "
     "or float64 overflow); shrink the domain or the parameter"),
    (["animate", "--family", "catenoid-helicoid", "--c", "1e300", "--frames", "3"],
     "rim scale of catenoid-helicoid:theta=0 overflows float64"),
    # frame 1 fails first; with 2 workers it fails in the forked worker
    (["animate", "--family", "bour-t", "--t1", "1e300", "--frames", "3"],
     "immersion for bour-t:t=5e+299 is not finite on the domain (a singularity, "
     "or float64 overflow); shrink the domain or the parameter"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, line", [pytest.param(args, line, id=" ".join(args))
                                        for args, line in OVERFLOW_CASES])
def test_overflowing_data_is_one_error_line(args, line, tmp_path, capsys, monkeypatch):
    for threads in ("1", "2"):
        monkeypatch.setenv("MINSURF_THREADS", threads)
        out = ["--out", str(tmp_path / f"x{threads}.obj")] if args[0] == "gen" else [
            "--outdir", str(tmp_path / f"frames{threads}")]
        assert main(args + ["--grid", "9x9"] + out) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
    # a failed run leaves no mesh, no frame and no manifest behind
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


@pytest.mark.parametrize("argv, line", [
    pytest.param(["animate", "--family", "general", "--harmonic-pair",
                  f"{terms(500)};{terms(500, 'v')}"],
                 "expression is nested deeper than 256 levels", id="500-term-pair"),
    pytest.param(["gen", "--surface", "enneper", "--config", "deep.json"],
                 "config file is nested too deeply", id="100000-nested-config"),
])
def test_long_input_is_one_error_line(argv, line, tmp_path, capsys, monkeypatch):
    (tmp_path / "deep.json").write_text("[" * 100_000)
    monkeypatch.chdir(tmp_path)  # the default --out and --outdir land here
    assert main(argv + ["--grid", "9x9"]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]


def test_200_term_expression_still_compiles(tmp_path):
    # u-u+u-u+... is 0 at every sample, so this is the F = 1 surface
    long = tmp_path / "long.obj"
    assert main(["gen", "--surface", f"custom:{terms(100, 'u-u')};{terms(100, 'v-v')}",
                 "--grid", "9x9", "--out", str(long)]) == 0
    assert main(["gen", "--surface", "custom:0;0", "--grid", "9x9",
                 "--out", str(tmp_path / "short.obj")]) == 0
    assert read_bytes(long) == read_bytes(tmp_path / "short.obj")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_animate_over_a_finished_run_leaves_no_manifest(threads, tmp_path,
                                                               capsys, monkeypatch):
    monkeypatch.setenv("MINSURF_THREADS", threads)
    argv = ["animate", "--family", "catenoid-helicoid", "--frames", "3",
            "--grid", "9x9", "--outdir", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "manifest.json").exists()
    assert main(argv + ["--c", "1e300"]) == 2
    assert "overflows float64" in capsys.readouterr().err
    # frame 0 fails after it is written; the failed run removes it again
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "frame_0000.obj").exists()


def test_smaller_run_leaves_only_its_own_frames(tmp_path):
    argv = ["animate", "--family", "bour-t", "--grid", "9x9", "--outdir", str(tmp_path)]
    assert main(argv + ["--frames", "5"]) == 0
    assert main(argv + ["--frames", "3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "frame_0000.obj", "frame_0001.obj", "frame_0002.obj", "manifest.json"]


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["gen", "--surface", "enneper", "--grid", "9x9", "--out"],
    ["animate", "--family", "bour-t", "--frames", "2", "--grid", "9x9", "--outdir"],
    ["verify", "--check", "09-image-minimality", "--out"]],
    ids=["gen", "animate", "verify"])
def test_thread_count_below_one_rejected(command, threads, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.setenv("MINSURF_THREADS", threads)
    assert main(command + [str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: MINSURF_THREADS must be a positive integer, got '{threads}'\n")
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_loads_no_process_or_test_machinery():
    # whatever the cli imports adds to every command's start-up:
    # unittest.mock alone would bring in asyncio, blocks forks its workers
    # itself, without multiprocessing or a pool, only verify imports the
    # suite, and only the quadrature path needs numpy.polynomial's rule
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, minsurf.cli; print(*sorted({'subprocess', 'unittest',"
            " 'asyncio', 'multiprocessing', 'concurrent.futures', 'logging',"
            " 'minsurf.verify', 'numpy.polynomial'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
