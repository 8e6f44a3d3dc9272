"""In-memory spans and counters around the public functions of ``minsurf``.

:func:`install` replaces each traced function in its own module and in
every ``minsurf`` module that imported it by name, and wraps the entries of
``verify.CRITERIA``.  Spans are (name, start, end, parent) tuples kept in a
list; a span opened on a worker thread with no open span of its own takes
the innermost open span of the installing thread as parent, which is the
call that handed the work to the pool.

Nothing under ``src/`` is changed on disk: the wrappers live only in the
traced process.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

import numpy as np

# Public functions timed as spans, by module.
TRACED = {
    "weierstrass": ["integrate_representation", "validate_holomorphy",
                    "curvature_closed_form"],
    "families": ["family_frames"],
    "meshio": ["mesh_from_surface", "write_obj", "write_ply"],
    "bendneutral": ["bending_drilling_field", "chain_rule_residual",
                    "pure_bending_measure_fd", "alpha_from_phi",
                    "integrability_residual_general"],
    "rotations": ["rodrigues_from_matrices", "split_about_e3_batched",
                  "axis_distance_profile"],
    "surfcalc": ["shape_operator", "connector", "surface_gradient",
                 "integrate_tangential_field", "circulation_check"],
    "fd": ["d1", "d2"],
}

# Checks run by the verify-suite workload (all but 01-rotation-split).
VERIFY_CHECKS = ["02-axis-distance-extrema", "03-weierstrass-identities",
                 "04-minimality", "05-gauss-curvature", "06-universal-bending",
                 "07-bending-neutral-association", "08-integrability",
                 "09-image-minimality", "10-bonnet-isometry", "11-circulation",
                 "12-determinism-io"]

# Work counters: name -> (unit, better).
COUNTERS = {
    "weierstrass.datum_points": ("count", "lower"),
    "weierstrass.surfaces": ("count", "lower"),
    "meshio.bytes_written": ("bytes", "lower"),
    "surfcalc.patches": ("count", "lower"),
    "fd.points": ("count", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, names in TRACED.items():
        for name in names:
            specs.append((f"{module}.{name}.self_s", "s", "lower"))
            specs.append((f"{module}.{name}.calls", "count", "lower"))
    specs += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    specs.append(("meshio.write_mb_per_s", "MB/s", "higher"))
    specs += [(f"verify.{check}.s", "s", "lower") for check in VERIFY_CHECKS]
    specs.append(("cli.main.s", "s", "lower"))
    return specs


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = []

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(f"{name}.calls")
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs)
            return out

        return traced

    def clear(self):
        self.spans.clear()
        self.counts.clear()


def _replace(original, wrapper):
    """Swap ``original`` for ``wrapper`` wherever a minsurf module holds it."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "minsurf" or modname.startswith("minsurf.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install(tracer):
    """Wrap every traced function, the verify checks and the counters."""
    import minsurf.cli  # noqa: F401 - loads every module that re-exports names
    from minsurf import surfcalc, verify, weierstrass

    def bytes_written(args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        tracer.count("meshio.bytes_written", os.path.getsize(path))

    def fd_points(args, kwargs):
        tracer.count("fd.points", int(np.size(args[0])))

    after = {
        "weierstrass.integrate_representation":
            lambda args, kwargs: tracer.count("weierstrass.surfaces"),
        "meshio.write_obj": bytes_written,
        "meshio.write_ply": bytes_written,
        "fd.d1": fd_points,
        "fd.d2": fd_points,
    }
    for module, names in TRACED.items():
        mod = sys.modules[f"minsurf.{module}"]
        for name in names:
            key = f"{module}.{name}"
            original = getattr(mod, name)
            if _replace(original, tracer.wrap(key, original, after.get(key))) == 0:
                raise RuntimeError(f"minsurf.{key} was not replaced")

    for check_id, fn in list(verify.CRITERIA.items()):
        verify.CRITERIA[check_id] = tracer.wrap(f"verify.{check_id}", fn)

    values_at = weierstrass.HolomorphicDatum.values_at

    @functools.wraps(values_at)
    def counted_values_at(self, u, *rest):
        tracer.count("weierstrass.datum_points", int(np.size(u)))
        return values_at(self, u, *rest)

    weierstrass.HolomorphicDatum.values_at = counted_values_at

    patch_init = surfcalc.SurfacePatch.__init__

    @functools.wraps(patch_init)
    def counted_patch_init(self, *args, **kwargs):
        tracer.count("surfcalc.patches")
        patch_init(self, *args, **kwargs)

    surfcalc.SurfacePatch.__init__ = counted_patch_init


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span name: total duration minus the union of its children's."""
    children = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(index, [])
                  if min(e, end) > max(s, start)]
        out[name] = out.get(name, 0.0) + (end - start) - _covered(inside)
    return out


def op_metrics(spans, counts):
    """Per-layer metrics of one command from its spans and counters."""
    own = self_times(spans)
    values = {}
    for module, names in TRACED.items():
        for name in names:
            key = f"{module}.{name}"
            values[f"{key}.self_s"] = own.get(key, 0.0)
            values[f"{key}.calls"] = counts.get(f"{key}.calls", 0)
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    write_s = own.get("meshio.write_obj", 0.0) + own.get("meshio.write_ply", 0.0)
    values["meshio.write_mb_per_s"] = (counts.get("meshio.bytes_written", 0) / 1e6
                                       / write_s if write_s > 0 else 0.0)
    durations = {}
    for name, start, end, _ in spans:
        durations[name] = durations.get(name, 0.0) + (end - start)
    for check in VERIFY_CHECKS:
        values[f"verify.{check}.s"] = durations.get(f"verify.{check}", 0.0)
    values["cli.main.s"] = durations.get("cli.main", 0.0)
    return values


def summarize(per_op):
    """Median over commands of each per-layer metric; counts stay whole."""
    out = {}
    for name, unit, _ in metric_specs():
        pick = statistics.median_low if unit in ("count", "bytes") else statistics.median
        out[name] = pick(op[name] for op in per_op)
    return out
