#!/usr/bin/env python3
"""Self-test of the benchmark's input generator, oracle and tracer.

Run from the repository root (about half a minute):

    python3 bench/selftest.py

Exits 1 and names each failed check.
"""

from __future__ import annotations

import importlib
import json
import random
import re
import sys
import tempfile

import oracle
import run
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def check_inputs(fail) -> None:
    for w in workloads.WORKLOADS:
        for seed in range(1, 6):
            a = json.dumps(workloads.make_inputs(w, seed), sort_keys=True).encode()
            b = json.dumps(workloads.make_inputs(w, seed), sort_keys=True).encode()
            if a != b:
                fail(f"{w} seed {seed}: inputs differ between two generations")
            orders = [json.dumps(workloads.pass_order(workloads.make_inputs(w, seed),
                                                      random.Random(seed))) for _ in range(2)]
            if orders[0] != orders[1]:
                fail(f"{w} seed {seed}: pass order differs between two generations")
        if workloads.make_inputs(w, 1) == workloads.make_inputs(w, 2):
            fail(f"{w}: seeds 1 and 2 give the same inputs")
    for seed in range(50):
        inputs = workloads.make_inputs("solve-crosscheck", seed)
        for anchor in workloads.SOLVE_ANCHORS:
            if {"kind": "solve", **anchor} not in inputs:
                fail(f"solve-crosscheck seed {seed}: anchor {anchor} missing")


def check_metric_names(fail, e2e: dict, layers: dict) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for produced, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        if set(produced) != set(units):
            fail(f"metrics {sorted(produced)} differ from BENCHMARK.json {sorted(units)}")
        for name, (_, unit) in produced.items():
            if not NAME.fullmatch(name) or not unit or units.get(name) != unit:
                fail(f"metric {name!r} has unit {unit!r}, BENCHMARK.json {units.get(name)!r}")


def check_traced_run(fail, workload: str, tmpdir: str):
    """One small seeded run under the tracer; the counts must match the ops."""
    _, runner, _ = run.timed_setup(workload, tmpdir)
    problem = run.oracle_self_check(runner)
    if problem:
        fail(problem)
    inputs = workloads.make_inputs(workload, 7)
    problems: list[str] = []
    before = _bindings()
    _, ops, results, metrics = run.traced_phase(workload, runner, inputs,
                                                random.Random(7), 1.0, problems)
    if _bindings() != before:
        fail(f"{workload}: the tracer did not restore the original functions")
    for p in problems:
        fail(f"{workload}: {p}")
    value = {name: v for name, (v, _) in metrics.items()}
    solves = sum(r.ok for r, op in zip(results, ops) if op["kind"] == "solve")
    solve_path = sum(r.ok for r, op in zip(results, ops)
                     if op["kind"] in ("solve", "spectrum"))
    if value["solver.shooting_levels"] != workloads.SOLVE_K * solves:
        fail(f"{workload}: {value['solver.shooting_levels']} shooting levels for "
             f"{solves} successful solves")
    if solve_path and value["solver.eigen_solve_calls"] != 2 * solve_path:
        fail(f"{workload}: {value['solver.eigen_solve_calls']} eigen_solve calls for "
             f"{solve_path} successful ops on the solve paths")
    if value["trace.covered_frac"] < run.COVERED_MIN:
        fail(f"{workload}: layers cover {value['trace.covered_frac']:.3f} of op time")
    self_ms = {n: v for n, v in value.items() if n.endswith("_ms")}
    largest = max(self_ms, key=self_ms.get)
    expected = {"solve-crosscheck": "solver.shooting_ms",
                "spectrum-sweep": "solver.eigen_solve_ms"}.get(workload)
    if expected and largest != expected:
        fail(f"{workload}: largest self time is {largest}, expected {expected}")
    if workload != "solve-crosscheck" and value["solver.shooting_ms"] != 0:
        fail(f"{workload}: shooting ran")
    return metrics


def _bindings() -> dict:
    """Every name bound in the traced modules, with the object it is bound to."""
    modules = [importlib.import_module(m) for m in tracer.MODULES]
    return {(m.__name__, name): id(value) for m in modules for name, value in vars(m).items()}


def main() -> int:
    failures: list[str] = []
    fail = failures.append
    if not (run.SRC / "gupmdm" / "__init__.py").is_file():
        print(f"error: no gupmdm sources under {run.SRC}", file=sys.stderr)
        return 2
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    check_inputs(fail)
    if oracle.oscillator_energy(0.0, 1.0, 3) != 3.5:
        fail("oracle: undeformed oscillator E_3 != 3.5")
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmpdir:
        layers = {w: check_traced_run(fail, w, tmpdir) for w in workloads.WORKLOADS}
        e2e, _ = run.end_to_end("diagnostics", [workloads.OpResult(True, 1.0)] * 2, [1.0])
    check_metric_names(fail, e2e, layers["diagnostics"])
    for f in failures:
        print(f"FAIL {f}")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
