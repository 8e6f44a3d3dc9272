"""Benchmark of the minsurf CLI: gen, animate and verify, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gen-custom-ply --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every operation is one fresh ``python -m minsurf.cli``
process (``PYTHONPATH=src``), run one at a time (a closed loop with one
client), and the end-to-end metrics are printed.  With ``--trace 1`` the
same commands run in this process through ``minsurf.cli.main(argv)`` with
the timing wrappers of ``tracer.py`` installed, and the per-layer metrics
are printed; the spans go to ``perfbench/out/traces/<workload>.json``.
Every operation's outputs are checked against closed forms (``checks.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
2, with no result, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

RMIN, RMAX = 0.075, 1.5
GEN_GRID = 384
ANIMATE_GRID = 128
FRAMES = 20

# An operation still running this many seconds after the benchmark started
# is killed, so that the process ends inside three minutes.
HARD_LIMIT_S = 170.0


def seed_params(seed):
    """(A, B) of the gen-custom-ply datum F = e^(A + iB) w e^w."""
    rng = random.Random(seed)
    return rng.uniform(-0.5, 0.5), rng.uniform(-math.pi, math.pi)


class GenCustomPly:
    """Only non-power data reach validate_holomorphy and the quadrature
    path, and only ``gen --ply`` writes PLY."""

    def __init__(self, seed, work):
        self.a, self.b = seed_params(seed)
        self.obj = os.path.join(work, "gen.obj")
        self.ply = os.path.join(work, "gen.ply")
        self.env = {}
        grid = f"{GEN_GRID}x{GEN_GRID}"
        self.argv = ["gen", "--surface", checks.exp_datum_spec(self.a, self.b),
                     "--grid", grid, "--rmin", str(RMIN), "--rmax", str(RMAX),
                     "--out", self.obj, "--ply", self.ply]

    def clear(self):
        for path in (self.obj, self.ply):
            if os.path.exists(path):
                os.remove(path)

    def check(self):
        checks.check_gen(self.obj, self.ply, RMIN, RMAX, GEN_GRID, self.a, self.b)


class AnimateBourT:
    """Many small meshes through the OBJ writer, the catalog integration
    path and the only use of the thread pool in family_frames."""

    def __init__(self, seed, work):
        self.outdir = os.path.join(work, "frames")
        self.env = {"MINSURF_THREADS": "2"}
        grid = f"{ANIMATE_GRID}x{ANIMATE_GRID}"
        self.argv = ["animate", "--family", "bour-t", "--frames", str(FRAMES),
                     "--grid", grid, "--rmin", str(RMIN), "--rmax", str(RMAX),
                     "--outdir", self.outdir]

    def clear(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def check(self):
        checks.check_frames(self.outdir, RMIN, RMAX, ANIMATE_GRID, FRAMES)


class VerifySuite:
    """The only workload that runs the FD operators, the shape operator,
    the connector, the integrability and circulation checks and the report
    path.  01-rotation-split is left out: its wall-clock bound makes it
    fail on a loaded machine."""

    def __init__(self, seed, work):
        self.report = os.path.join(work, "report.json")
        self.env = {}
        self.argv = ["verify", "--check", ",".join(tracer.VERIFY_CHECKS),
                     "--out", self.report]
        self.first = None

    def clear(self):
        if os.path.exists(self.report):
            os.remove(self.report)

    def check(self):
        data = checks.check_report(self.report, tracer.VERIFY_CHECKS)
        if self.first is None:
            self.first = data
        elif data != self.first:
            raise checks.CheckError("report differs from the run's first report")


WORKLOADS = {
    "gen-custom-ply": GenCustomPly,
    "animate-bour-t": AnimateBourT,
    "verify-suite": VerifySuite,
}


class Rounds:
    """Whole operations that fit in ``seconds``: the first always runs, and
    another starts only if one more of the slowest round so far would end
    in time, so a run never stops an operation half way."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.begin = self.last = time.perf_counter()
        self.slowest = 0.0
        self.started = 0

    def another(self):
        now = time.perf_counter()
        if self.started:
            self.slowest = max(self.slowest, now - self.last)
        self.last = now
        self.started += 1
        return self.started == 1 or now - self.begin + self.slowest <= self.seconds


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(workload, tmp):
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmp)
    env.pop("MINSURF_THREADS", None)
    env.update(workload.env)
    return env


def spawn(cmd, env, log_path, timeout):
    """Run ``cmd`` to its end: (wall seconds from start to exit, peak RSS in
    MB from the child's own rusage, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(max(timeout, 0.0), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            reaped.set()
            watchdog.cancel()
            watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _tail(path):
    with open(path, "rb") as fh:
        return fh.read()[-2000:].decode(errors="replace")


def checked(workload):
    """True when the outputs pass the closed-form checks."""
    try:
        workload.check()
    except checks.CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return False
    return True


def run_untraced(workload, seconds, work, started):
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env = child_env(workload, tmp)
    log = os.path.join(work, "child.log")
    setup_s, _, code = spawn([sys.executable, "-c", "import minsurf.cli"], env, log,
                             HARD_LIMIT_S - (time.perf_counter() - started))
    if code != 0:
        raise BenchError(f"importing minsurf.cli failed:\n{_tail(log)}")

    walls, rss, failed, correct = [], [], 0, True
    rounds = Rounds(seconds)
    while rounds.another():
        workload.clear()
        wall, peak, code = spawn(
            [sys.executable, "-m", "minsurf.cli", *workload.argv], env, log,
            HARD_LIMIT_S - (time.perf_counter() - started))
        walls.append(wall)
        rss.append(peak)
        print(f"operation {len(walls)}: {wall:.3f} s, peak RSS {peak:.1f} MB",
              file=sys.stderr)
        if code != 0:
            print(f"command exited {code}:\n{_tail(log)}", file=sys.stderr)
            failed += 1
        elif not checked(workload):
            failed += 1
            correct = False
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }
    return correct, len(walls), failed, metrics


def run_traced(workload, seconds, work, started, name):
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ.update(child_env(workload, tmp))
    sys.path.insert(0, SRC)
    trace = tracer.Tracer()
    try:
        tracer.install(trace)
    except ImportError as exc:
        raise BenchError(f"importing minsurf.cli failed: {exc}") from exc
    from minsurf import cli

    per_op, spans, failed, correct = [], [], 0, True
    rounds = Rounds(seconds)
    while rounds.another():
        workload.clear()
        trace.clear()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            try:
                code = trace.call("cli.main", cli.main, list(workload.argv))
            except Exception:  # a traceback is a failed operation, as in a child
                print(traceback.format_exc(), file=printed)
                code = 1
        per_op.append(tracer.op_metrics(trace.spans, trace.counts))
        spans.append([list(span) for span in trace.spans])
        if code != 0:
            print(f"command exited {code}:\n{printed.getvalue()[-2000:]}",
                  file=sys.stderr)
            failed += 1
        elif not checked(workload):
            failed += 1
            correct = False

    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    with open(os.path.join(OUT, "traces", f"{name}.json"), "w") as fh:
        json.dump({"workload": name, "fields": ["name", "start", "end", "parent"],
                   "commands": spans}, fh)
    units = {metric: unit for metric, unit, _ in tracer.metric_specs()}
    metrics = {metric: {"value": value, "unit": units[metric]}
               for metric, value in tracer.summarize(per_op).items()}
    return correct, len(per_op), failed, metrics


def main(argv=None):
    started = time.perf_counter()
    # SIGTERM unwinds like an exit, so the running command is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "minsurf", "cli.py")):
        print(f"error: no minsurf sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            result = run_traced(workload, args.seconds, work, started, args.workload)
        else:
            result = run_untraced(workload, args.seconds, work, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
