"""Span recorder that wraps the package's public functions from outside.

`Tracer.install()` replaces each function named in LAYERS with a timing
wrapper, in every loaded `monopole_spectra` module that holds a reference to
it (so `from .mixing import mixing_roots` bindings are wrapped too), and
`uninstall()` puts the originals back. Nothing under `src/` is edited.

Each call becomes one span: [id, parent id, name, start, end, time spent in
child spans, counts]. Spans stay in memory and are written out once, at the
end of the run. A function that no longer exists is listed in `absent`
instead of raising, so the benchmark outlives refactors that delete a layer.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time

import numpy as np

PACKAGE = "monopole_spectra"

# (module, function) pairs wrapped by the traced run, grouped by layer.
LAYERS = (
    ("cli", "main"),
    ("cli", "render_levels"),
    ("spectra", "single_level"),
    ("mixing", "mixing_roots"),
    ("mixing", "cubic_invariants"),
    ("oracle", "fd_eigen"),
    ("oracle", "sturm_count_below"),
    ("oracle", "count_bound_states"),
    ("oracle", "arbitrate_oscillator_prefactor"),
    ("oracle", "check_resolution"),
    ("oracle", "shoot_decay"),
    ("ivp", "integrate"),
    ("radial", "regular_free_solution"),
    ("radial", "analytic_solution"),
    ("radial", "residual"),
    ("specfun", "heun_local_accurate"),
    ("specfun", "heun_local"),
    ("heunspec", "heun_residual_on_disc"),
    ("angular", "check_recurrences"),
    ("angular", "small_d"),
)

# check_resolution is wrapped only to read the grid and h*sqrt(max|V|); it
# gets no calls/s metrics of its own.
TIMED_FUNCTIONS = tuple(f"{m}.{f}" for m, f in LAYERS if f != "check_resolution")

ID, PARENT, NAME, START, END, CHILD, COUNTS = range(7)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_mixing_key(args, kwargs, counts):
    counts["key"] = (_arg(args, kwargs, 0, "j"), _arg(args, kwargs, 1, "k"))
    return args, kwargs


def _count_geometry(args, kwargs, counts):
    counts["geometry"] = _arg(args, kwargs, 0, "scenario").geometry
    return args, kwargs


def _count_rhs_evals(args, kwargs, counts):
    counts["rhs_evals"] = 0
    f = args[0] if args else kwargs.pop("f")

    def counted(t, y):
        counts["rhs_evals"] += 1
        return f(t, y)

    return (counted,) + tuple(args[1:]), kwargs


def _count_sturm_points(args, kwargs, counts):
    counts["grid_points"] = len(_arg(args, kwargs, 0, "diag"))
    return args, kwargs


def _count_resolution(args, kwargs, counts):
    problem = _arg(args, kwargs, 0, "problem")
    grid = _arg(args, kwargs, 1, "grid")
    nodes = grid.nodes
    # the same outer-half heuristic check_resolution applies
    vmax = float(np.max(np.abs(problem.v_eff(nodes[len(nodes) // 2:]))))
    counts["grid_points"] = int(grid.n)
    counts["resolution"] = grid.h * math.sqrt(vmax)
    return args, kwargs


HOOKS = {
    "mixing.mixing_roots": _count_mixing_key,
    "spectra.single_level": _count_geometry,
    "ivp.integrate": _count_rhs_evals,
    "oracle.sturm_count_below": _count_sturm_points,
    "oracle.check_resolution": _count_resolution,
}


class Tracer:
    """Records spans from wrapped package functions; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][ID] if stack else -1, name, 0.0, 0.0, 0.0, {}]
            spans.append(rec)
            if hook is not None:
                args, kwargs = hook(args, kwargs, rec[COUNTS])
            stack.append(rec)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec[START], rec[END] = t0, t1
                if stack:
                    stack[-1][CHILD] += t1 - t0

        return wrapper

    def install(self) -> None:
        for mod_name, attr in LAYERS:
            name = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith(PACKAGE):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by another process, renumbering their ids."""
        base = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[ID] += base
            if rec[PARENT] >= 0:
                rec[PARENT] += base
            self.spans.append(rec)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "name": rec[NAME],
                    "start": rec[START], "end": rec[END],
                    "self_s": rec[END] - rec[START] - rec[CHILD], "counts": rec[COUNTS],
                }, default=str) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds, plus the counters
        the benchmark reports per layer. Absent or uncalled functions read 0."""
        calls = dict.fromkeys(TIMED_FUNCTIONS, 0)
        total = dict.fromkeys(TIMED_FUNCTIONS, 0.0)
        self_s = dict.fromkeys(TIMED_FUNCTIONS, 0.0)
        by_id = {rec[ID]: rec for rec in self.spans}
        keys: set[str] = set()
        per_geometry: dict[str, list[float]] = {"flat": [], "lobachevsky": []}
        rhs_evals = fd_points = sturm_points = 0
        max_resolution = 0.0
        for rec in self.spans:
            name, dur, counts = rec[NAME], rec[END] - rec[START], rec[COUNTS]
            if name in calls:
                calls[name] += 1
                total[name] += dur
                self_s[name] += dur - rec[CHILD]
            if name == "mixing.mixing_roots":
                keys.add(json.dumps(counts["key"], default=str))
            elif name == "spectra.single_level":
                per_geometry[counts["geometry"]].append(dur)
            elif name == "ivp.integrate":
                rhs_evals += counts["rhs_evals"]
            elif name == "oracle.sturm_count_below":
                sturm_points += counts["grid_points"]
            elif name == "oracle.check_resolution":
                max_resolution = max(max_resolution, counts["resolution"])
                parent = by_id.get(rec[PARENT])
                if parent is not None and parent[NAME] == "oracle.fd_eigen":
                    fd_points += counts["grid_points"]
        out: dict[str, float] = {}
        for name in TIMED_FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        n_roots = calls["mixing.mixing_roots"]
        out["mixing.mixing_roots.distinct_keys"] = len(keys)
        out["mixing.mixing_roots.reuse"] = n_roots / len(keys) if keys else 0.0
        for label, geometry in (("flat_us", "flat"), ("curved_us", "lobachevsky")):
            durs = per_geometry[geometry]
            out[f"spectra.single_level.{label}"] = statistics.median(durs) * 1e6 if durs else 0.0
        out["ivp.integrate.rhs_evals"] = rhs_evals
        out["oracle.fd_eigen.grid_points"] = fd_points
        out["oracle.sturm_count_below.grid_points"] = sturm_points
        out["oracle.max_resolution"] = max_resolution
        return out
