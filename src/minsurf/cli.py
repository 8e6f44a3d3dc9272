"""Command-line interface: surface generation, family animation and the
verification suite.

Exit codes: 0 success, 1 verification check failure, 2 invalid input,
3 I/O failure.  MINSURF_THREADS (a positive integer; by default the CPUs
this process may run on) sets the forked workers of ``gen``, ``animate``
and ``verify``; outputs are bit-identical for any setting.

Options may also be supplied through a JSON file (``--config``); a flag
given on the command line wins over the file, whatever its value.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from . import meshio
from .errors import InvalidInputError
from .families import FamilySpec, family_frames
from .weierstrass import DomainGrid, integrate_representation, parse_surface_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_IO = 3


def _parse_grid(text):
    try:
        a, _, b = text.lower().partition("x")
        n, m = int(a), int(b)
    except ValueError as exc:
        raise InvalidInputError(f"grid must look like 128x128, got {text!r}") from exc
    if n < 5 or m < 5:
        raise InvalidInputError("grid needs at least 5 samples per axis")
    return n, m


def _threads():
    raw = os.environ.get("MINSURF_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0  # refused below with the values under 1
    if threads < 1:
        raise InvalidInputError(f"MINSURF_THREADS must be a positive integer, got {raw!r}")
    return threads


def _config_value(action, key, value):
    """A config-file value, parsed as argparse parses the flag's argument."""
    if action.nargs == 0:      # a store_true flag
        kinds = (bool,)
    elif action.type is None:  # a string option
        kinds = (str,)
    else:                      # parsed by its type, so 2.5 fails as "2.5" would
        kinds = (str, int, float)
    if type(value) not in kinds:
        raise InvalidInputError(
            f"config key {key!r} has a value of the wrong type: {value!r}")
    if float in kinds:
        try:
            value = action.type(str(value))
        except ValueError as exc:
            raise InvalidInputError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise InvalidInputError(f"config key {key!r} must be one of "
                                f"{', '.join(action.choices)}")
    return value


def _merge_config(args, parser, argv):
    """Overlay config-file values under the flags given in ``argv``."""
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config file is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise InvalidInputError("config file is nested too deeply") from exc
    if not isinstance(data, dict):
        raise InvalidInputError("config file must hold a JSON object")
    actions = {action.dest: action for action in parser._actions
               if action.dest not in ("help", "func", "subparser")}
    # a reparse over None placeholders: no flag given, even abbreviated, parses to None
    given = parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(actions)))
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise InvalidInputError(f"unknown config key {key!r}")
        if getattr(given, dest) is None:
            setattr(args, dest, _config_value(actions[dest], key, value))
    return args


def _build_grid(args):
    """Polar grid of the flags; rmin defaults to 0.05 rmax, and
    DomainGrid.polar rejects rmin <= 0 for every datum."""
    n_rho, n_phi = _parse_grid(args.grid)
    rmax = float(args.rmax)
    rmin = 0.05 * rmax if args.rmin is None else float(args.rmin)
    return DomainGrid.polar(rmin, rmax, n_rho, n_phi)


def cmd_gen(args):
    workers = _threads()
    datum = parse_surface_spec(args.surface)
    grid = _build_grid(args)
    surface = integrate_representation(datum, grid, workers)
    mesh = meshio.mesh_from_surface(surface)
    # a writer that fails removes its own file; the OBJ goes if the PLY fails
    meshio.write_obj(mesh, args.out, workers)
    if args.ply:
        try:
            meshio.write_ply(mesh, args.ply, meshio.surface_channels(surface), workers)
        except BaseException:
            if os.path.exists(args.out):  # --ply may name the OBJ itself
                os.remove(args.out)
            raise
    print(f"wrote {args.out}: {len(mesh.vertices)} vertices, "
          f"{len(mesh.faces)} faces ({datum.label})")
    return EXIT_OK


def _family_spec(args):
    kwargs = {"kind": args.family, "t0": float(args.t0), "t1": float(args.t1),
              "frames": int(args.frames), "theta_max": float(args.theta_max),
              "c": float(args.c)}
    if args.family in ("bonnet", "general"):
        kwargs["base"] = parse_surface_spec(args.base)
    if args.family == "general":
        from .weierstrass import compile_expression

        if not args.harmonic_pair:
            raise InvalidInputError(
                "--family general needs --harmonic-pair '<phi-expr>;<theta-expr>'")
        phi_expr, sep, theta_expr = args.harmonic_pair.partition(";")
        if not sep:
            raise InvalidInputError(
                "--harmonic-pair needs '<phi-expr>;<theta-expr>'")
        kwargs["harmonic_pair"] = (compile_expression(phi_expr),
                                   compile_expression(theta_expr))
    return FamilySpec(**kwargs)


# the files of one animate run in its --outdir
RUN_FILE = re.compile(r"frame_\d{4,}\.obj|manifest\.json")


def _clear_run(outdir):
    """Remove every frame and the manifest of an earlier or a failed run."""
    for name in os.listdir(outdir):
        if RUN_FILE.fullmatch(name):
            os.remove(os.path.join(outdir, name))


def cmd_animate(args):
    spec = _family_spec(args)
    grid = _build_grid(args)
    workers = _threads()

    start = time.perf_counter()
    os.makedirs(args.outdir, exist_ok=True)
    manifest_path = os.path.join(args.outdir, "manifest.json")
    # no frame or manifest of an earlier run may sit beside this run's
    _clear_run(args.outdir)

    def write(frame):
        name = f"frame_{frame.index:04d}.obj"
        path = os.path.join(args.outdir, name)
        mesh = meshio.mesh_from_surface(frame.surface)
        meshio.write_obj(mesh, path)
        # float repr round-trips through JSON, so the manifest bytes do not
        # depend on which process wrote the frame
        return json.dumps({"index": frame.index, "t": frame.t,
                           "scale": frame.surface.rim_scale, "file": name}).encode()

    # each frame is meshed and written by the process that built it; on a
    # failure every worker has been reaped, so no frame is still being written
    try:
        records = [json.loads(record)
                   for record in family_frames(spec, grid, write, workers)]
    except BaseException:
        _clear_run(args.outdir)
        raise
    manifest = {
        "family": spec.kind,
        "t0": spec.t0, "t1": spec.t1, "frames": records,
        "grid": args.grid, "rmin": grid.s[0], "rmax": grid.s[-1],
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    elapsed = time.perf_counter() - start
    print(f"wrote {len(records)} frames to {args.outdir} in {elapsed:.1f}s")
    return EXIT_OK


REFINEMENT_CHECKS = ["03-weierstrass-identities", "05-gauss-curvature",
                     "07-bending-neutral-association", "11-circulation"]


def cmd_verify(args):
    from . import verify  # only this command pays for importing the suite

    workers = _threads()
    if args.grid_refinement and args.check:
        raise InvalidInputError("--grid-refinement selects its own checks; "
                                "it cannot be combined with --check")
    checks = None
    if args.check:
        checks = [c.strip() for c in args.check.split(",") if c.strip()]
    if args.grid_refinement:
        checks = REFINEMENT_CHECKS
    start = time.perf_counter()
    report = verify.run_suite(checks, workers)
    elapsed = time.perf_counter() - start
    with open(args.out, "w") as fh:
        fh.write(verify.report_to_json(report))
    for rec in report["checks"]:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status} {rec['check_id']}: max residual {rec['max_residual']:.3e} "
              f"(tolerance {rec['tolerance']:.3e}, grid {rec['grid']})")
    summary = report["summary"]
    print(f"{summary['passed']}/{summary['total']} checks passed "
          f"in {elapsed:.1f}s; report: {args.out}")
    return EXIT_OK if summary["all_passed"] else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minsurf",
        description="Minimal surfaces from holomorphic data: generation, "
                    "families and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one surface mesh (OBJ)")
    gen.add_argument("--surface", required=False,
                     help="catalog spec, e.g. enneper, bour:m=3, "
                          "scherk2:theta=0.785, custom:<Phi>;<chi>")
    gen.add_argument("--grid", default="64x64")
    gen.add_argument("--rmin", default=None, type=float)
    gen.add_argument("--rmax", default=1.5, type=float)
    gen.add_argument("--out", default="surface.obj")
    gen.add_argument("--ply", default=None,
                     help="optional sidecar PLY with attribute channels")
    gen.add_argument("--config", default=None)
    gen.set_defaults(func=cmd_gen, subparser=gen)

    ani = sub.add_parser("animate", help="export family frames + manifest")
    ani.add_argument("--family", required=False,
                     choices=["bour-t", "catenoid-helicoid", "bonnet", "general"])
    ani.add_argument("--base", default="enneper")
    ani.add_argument("--frames", default=60, type=int)
    ani.add_argument("--t0", default=0.0, type=float)
    ani.add_argument("--t1", default=1.0, type=float)
    ani.add_argument("--theta-max", default=np.pi / 2, type=float)
    ani.add_argument("--c", default=1.0, type=float)
    ani.add_argument("--harmonic-pair", default=None,
                     help="for --family general: '<phi-expr>;<theta-expr>'")
    ani.add_argument("--grid", default="64x64")
    ani.add_argument("--rmin", default=None, type=float)
    ani.add_argument("--rmax", default=1.5, type=float)
    ani.add_argument("--outdir", default="frames")
    ani.add_argument("--config", default=None)
    ani.set_defaults(func=cmd_animate, subparser=ani)

    ver = sub.add_parser("verify", help="run the verification suite")
    ver.add_argument("--check", default=None,
                     help="comma-separated check ids (default: all)")
    ver.add_argument("--grid-refinement", action="store_true",
                     help="run only the grid-refinement convergence checks")
    ver.add_argument("--out", default="verification_report.json")
    ver.add_argument("--config", default=None)
    ver.set_defaults(func=cmd_verify, subparser=ver)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    try:
        args = _merge_config(args, args.subparser, argv[1:])
        if args.command == "gen" and not args.surface:
            raise InvalidInputError("gen needs --surface (or a config file entry)")
        if args.command == "animate" and not args.family:
            raise InvalidInputError("animate needs --family (or a config file entry)")
        return args.func(args)
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
