"""Each output check passes on real CLI output and fails on a corrupted copy.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracer

N = 48
FRAMES = 5
A, B = run.seed_params(11)


def _cli(*argv, env=None):
    subprocess.run([sys.executable, "-m", "minsurf.cli", *argv], cwd=run.ROOT,
                   env=dict(os.environ, PYTHONPATH=run.SRC, **(env or {})),
                   check=True, capture_output=True)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    _cli("gen", "--surface", checks.exp_datum_spec(A, B), "--grid", f"{N}x{N}",
         "--rmin", str(run.RMIN), "--rmax", str(run.RMAX),
         "--out", str(base / "gen.obj"), "--ply", str(base / "gen.ply"))
    _cli("animate", "--family", "bour-t", "--frames", str(FRAMES), "--grid", f"{N}x{N}",
         "--rmin", str(run.RMIN), "--rmax", str(run.RMAX), "--outdir", str(base / "frames"),
         env={"MINSURF_THREADS": "2"})
    _cli("verify", "--check", "09-image-minimality", "--out", str(base / "report.json"))
    return base


@pytest.fixture
def copy(outputs, tmp_path):
    for name in ("gen.obj", "gen.ply", "report.json"):
        shutil.copy(outputs / name, tmp_path / name)
    shutil.copytree(outputs / "frames", tmp_path / "frames")
    return tmp_path


def check_gen(d):
    checks.check_gen(d / "gen.obj", d / "gen.ply", run.RMIN, run.RMAX, N, A, B)


def check_frames(d):
    checks.check_frames(d / "frames", run.RMIN, run.RMAX, N, FRAMES)


def check_report(d):
    checks.check_report(d / "report.json", ["09-image-minimality"])


def move_vertex(path, k, delta):
    lines = path.read_text().split("\n")
    rows = [i for i, line in enumerate(lines) if line.startswith("v ")]
    x, y, z = (float(p) for p in lines[rows[k]].split()[1:])
    lines[rows[k]] = f"v {x + delta:.17g} {y:.17g} {z:.17g}"
    path.write_text("\n".join(lines))


def extent(path):
    v, _ = checks.parse_obj(path)
    return float((v.max(axis=0) - v.min(axis=0)).max())


def edit_ply(path, edit):
    """Rewrite the PLY with ``edit(columns)`` applied to its vertex table."""
    lines = path.read_text().split("\n")
    end = lines.index("end_header")
    names = [line.split()[-1] for line in lines[:end] if line.startswith("property double")]
    nv = int(next(line.split()[2] for line in lines if line.startswith("element vertex")))
    table = np.array(" ".join(lines[end + 1:end + 1 + nv]).split(), dtype=float)
    cols = dict(zip(names, table.reshape(nv, len(names)).T.copy()))
    edit(cols)
    body = [" ".join(f"{val:.17g}" for val in row)
            for row in np.stack([cols[name] for name in names], axis=1)]
    path.write_text("\n".join(lines[:end + 1] + body + lines[end + 1 + nv:]))


def test_pristine_outputs_pass(copy):
    check_gen(copy)
    check_frames(copy)
    check_report(copy)


def test_moved_vertex_fails_gen(copy):
    move_vertex(copy / "gen.obj", 1000, 1e-6 * extent(copy / "gen.obj"))
    with pytest.raises(checks.CheckError, match="closed form"):
        check_gen(copy)


def test_moved_vertex_fails_frames(copy):
    path = copy / "frames" / "frame_0003.obj"
    move_vertex(path, 700, 1e-6 * extent(path))
    with pytest.raises(checks.CheckError, match="closed form"):
        check_frames(copy)


def flip_normal(cols):
    for name in ("nx", "ny", "nz"):
        cols[name][123] = -cols[name][123]


def scale(name, factor):
    def edit(cols):
        cols[name] = cols[name] * factor
    return edit


def shift_one(name, delta):
    def edit(cols):
        cols[name][321] += delta
    return edit


@pytest.mark.parametrize("edit, channel", [
    (flip_normal, "normals"),
    (scale("bending_norm", 1.0 + 1e-9), "bending_norm"),
    (scale("stretch", 1.0 + 1e-9), "stretch"),
    (scale("gauss_curvature", 1.0 + 1e-9), "gauss_curvature"),
    (shift_one("drill", 1e-8), "drill"),
])
def test_corrupted_ply_channel_fails(copy, edit, channel):
    edit_ply(copy / "gen.ply", edit)
    with pytest.raises(checks.CheckError, match=channel):
        check_gen(copy)


def test_flipped_face_fails(copy):
    path = copy / "frames" / "frame_0001.obj"
    lines = path.read_text().split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("f ")) + 50
    lines[k] = "f " + " ".join(reversed(lines[k].split()[1:]))
    path.write_text("\n".join(lines))
    with pytest.raises(checks.CheckError, match="wound against"):
        check_frames(copy)


def test_missing_frame_fails(copy):
    os.remove(copy / "frames" / "frame_0002.obj")
    with pytest.raises(checks.CheckError, match="frame_0002"):
        check_frames(copy)


def test_report_with_failed_check_fails(copy):
    path = copy / "report.json"
    report = json.loads(path.read_text())
    report["checks"][0]["passed"] = False
    path.write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="failed"):
        check_report(copy)


def test_report_with_other_checks_fails(copy):
    with pytest.raises(checks.CheckError, match="holds checks"):
        checks.check_report(copy / "report.json", ["09-image-minimality", "11-circulation"])


def test_self_time_subtracts_union_of_children():
    spans = [["p", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 3.0, 6.0, 0],
             ["c", 3.5, 5.0, 2]]
    own = tracer.self_times(spans)
    assert own["p"] == pytest.approx(5.0)
    assert own["b"] == pytest.approx(1.5)


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    assert listed == tracer.metric_specs()


def test_install_wraps_every_importer(tmp_path):
    sys.path.insert(0, run.SRC)
    trace = tracer.Tracer()
    tracer.install(trace)
    from minsurf import cli, families, meshio

    for fn in (cli.integrate_representation, families.integrate_representation,
               meshio.bending_drilling_field):
        assert hasattr(fn, "__wrapped__")
    out = tmp_path / "e.obj"
    argv = ["gen", "--surface", "enneper", "--grid", "9x9", "--out", str(out)]
    assert trace.call("cli.main", cli.main, argv) == 0
    metrics = tracer.op_metrics(trace.spans, trace.counts)
    assert metrics["weierstrass.integrate_representation.calls"] == 1
    assert metrics["weierstrass.surfaces"] == 1
    assert metrics["meshio.bytes_written"] == os.path.getsize(out)
    assert metrics["cli.main.s"] > 0.0
