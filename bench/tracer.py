"""Spans and counts recorded around calls into gupmdm, from outside the package.

The tracer replaces each traced function in every gupmdm module namespace
that binds it (`cli` binds `solve_sl`, `susy` binds `derivative`, ...) with
one shared wrapper, and puts the originals back on exit. Spans stay in
memory as (layer, start_ns, end_ns, parent, op) until written out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("gupmdm", "gupmdm.core", "gupmdm.models", "gupmdm.solver",
           "gupmdm.susy", "gupmdm.algebra", "gupmdm.vonroos", "gupmdm.cli")

# layer -> (defining module, function names); None means every public function
# defined in that module.
LAYERS = {
    "cli.main": ("gupmdm.cli", ("main",)),
    "cli.write_table": ("gupmdm.cli", ("write_table",)),
    "solver.shooting": ("gupmdm.solver", ("shooting_eigenvalue",)),
    "solver.solve_sl": ("gupmdm.solver", ("solve_sl",)),
    "solver.discretize": ("gupmdm.solver", ("discretize",)),
    "solver.eigen_solve": ("gupmdm.solver", ("eigen_solve",)),
    "solver.richardson": ("gupmdm.solver", ("richardson",)),
    "models.build": ("gupmdm.models", ("gup_oscillator_sl", "swanson_sl", "gup_oscillator_raw")),
    "models.profile": ("gupmdm.models", ("mass_profile_gup", "mass_profile_swanson",
                                         "effective_potential_gup",
                                         "effective_potential_swanson")),
    "core.derivative": ("gupmdm.core", ("derivative",)),
    "susy.partner_check": ("gupmdm.susy", ("partner_check",)),
    "algebra.hermitize": ("gupmdm.algebra", None),
    "vonroos.apply": ("gupmdm.vonroos", None),
}


def _count_shooting(c: Counter, args, kwargs, result) -> None:
    slp = args[0] if args else kwargs["slp"]
    c["solver.shooting_levels"] += 1
    c["solver.shooting_evals"] += result.iterations
    # Each evaluation integrates across the whole grid once (computed).
    c["solver.rk4_steps"] += result.iterations * (slp.grid.n - 1)


def _count_eigen_solve(c: Counter, args, kwargs, result) -> None:
    pair = args[0] if args else kwargs["pair"]
    c["solver.eigen_solve_calls"] += 1
    c["solver.matrix_rows"] += pair.diag.size
    c["solver.eigenpairs"] += len(result.eigenvalues)


def _count_calls(key: str):
    def count(c: Counter, *_) -> None:
        c[key] += 1
    return count


COUNTERS = {
    "solver.shooting": _count_shooting,
    "solver.eigen_solve": _count_eigen_solve,
    "models.build": _count_calls("models.build_calls"),
    "core.derivative": _count_calls("core.derivative_calls"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self.op = -1        # id of the op the next spans belong to

    def __enter__(self) -> "Tracer":
        wrappers, missing = {}, []
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            if names is None:
                names = [n for n, f in vars(mod).items() if not n.startswith("_")
                         and inspect.isfunction(f) and f.__module__ == modname]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:   # renamed or removed: the layer loses this span
                    missing.append(f"{modname}.{name}")
                    continue
                wrappers[id(fn)] = (fn, self._wrap(layer, fn, COUNTERS.get(layer)))
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        if missing:
            print(f"tracer: not found, not traced: {', '.join(missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, self.op)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def self_times_ns(self) -> Counter:
        """Per layer: span durations minus the part their child spans cover."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for i, (layer, t0, t1, _, _) in enumerate(self.spans):
            out[layer] += (t1 - t0) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for layer, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": layer, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, op_seconds: float, bytes_out: int,
                  untraced_rate: float, traced_rate: float) -> dict:
    """Per-layer metrics of one traced phase, each as (value, unit).

    `op_seconds` is the time the ops spent inside the program; the share of
    it that top-level layer spans cover is `trace.covered_frac`.
    """
    self_ns = tracer.self_times_ns()
    c = tracer.counts
    top_ns = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans if parent < 0)
    ms = lambda layer: (self_ns[layer] / 1e6, "ms")   # noqa: E731
    levels, evals, steps = (c["solver.shooting_levels"], c["solver.shooting_evals"],
                            c["solver.rk4_steps"])
    return {
        "solver.shooting_ms": ms("solver.shooting"),
        "solver.shooting_levels": (levels, "count"),
        "solver.shooting_evals": (evals, "count"),
        "solver.shooting_evals_per_level": (evals / levels if levels else 0.0, "count"),
        "solver.rk4_steps": (steps, "count"),
        "solver.rk4_ns_per_step": (self_ns["solver.shooting"] / steps if steps else 0.0, "ns"),
        "solver.eigen_solve_ms": ms("solver.eigen_solve"),
        "solver.eigen_solve_calls": (c["solver.eigen_solve_calls"], "count"),
        "solver.matrix_rows": (c["solver.matrix_rows"], "count"),
        "solver.eigenpairs": (c["solver.eigenpairs"], "count"),
        "solver.discretize_ms": ms("solver.discretize"),
        "models.build_ms": ms("models.build"),
        "models.build_calls": (c["models.build_calls"], "count"),
        "core.derivative_ms": ms("core.derivative"),
        "core.derivative_calls": (c["core.derivative_calls"], "count"),
        "susy.partner_check_ms": ms("susy.partner_check"),
        "algebra.hermitize_ms": ms("algebra.hermitize"),
        "vonroos.apply_ms": ms("vonroos.apply"),
        "models.profile_ms": ms("models.profile"),
        "cli.self_ms": ms("cli.main"),
        "cli.write_table_ms": ms("cli.write_table"),
        "cli.bytes_out": (bytes_out, "B"),
        "trace.overhead_frac": (untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
                                "fraction"),
        "trace.covered_frac": (top_ns / 1e9 / op_seconds if op_seconds else 0.0, "fraction"),
    }
