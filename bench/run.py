#!/usr/bin/env python3
"""The gupmdm benchmark: one closed-loop client per workload, outputs checked.

Run from the repository root:

    python3 bench/run.py --workload solve-crosscheck --seed 1 --seconds 30 --trace 0

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer ones. The last line of standard output is one JSON object. See
bench/README.md for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_STARTS = 5          # fresh interpreters timed per run, median reported
# Tail percentile per workload, fixed so that it has at least ten samples
# beyond it in a baseline run of the configured length.
TAIL_PCT = {"solve-crosscheck": 75, "spectrum-sweep": 90, "diagnostics": 90}
# Passes run under the tracer: a fixed amount of work, so counts repeat.
TRACE_PASSES = {"solve-crosscheck": 1, "spectrum-sweep": 4, "diagnostics": 10}
# Least share of op time the traced layers must account for.
COVERED_MIN = 0.95


def pin_threads() -> None:
    """One client, one thread: keep BLAS/OpenMP pools at one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def timed_setup(workload: str, tmpdir: str):
    """Import the program and run the workload's warm-up op, timed together.

    Returns the set-up time at reference host speed, the runner and the
    warm-up op's result.
    """
    before = hostspeed.probe()
    t0 = time.perf_counter()
    runner = workloads.Runner(tmpdir, workloads.HOST_WEIGHT[workload])
    import_s = time.perf_counter() - t0
    warm = runner.run(workloads.WARMUP[workload])
    # Import is interpreter work: weighted like shooting.
    setup_s = hostspeed.at_ref(import_s + warm.seconds, before, hostspeed.probe(), 1.0)
    return setup_s, runner, warm


def setup_in_fresh_interpreter(workload: str) -> float:
    """`timed_setup` in a child interpreter; its warm-up op is the main one's."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.splitlines()[-1])


def oracle_self_check(runner) -> str | None:
    """The closed form against a converged matrix solve at (tau, omega) = (0.05, 1).

    Box 40/sqrt(omega), n = 4801 and 2n - 1, Richardson-extrapolated.
    Returns an error message, or None when every level is within 1e-6.
    """
    models, solver = runner.models, runner.solver
    params = models.GupOscillatorParams(omega=1.0, tau=0.05)
    g1 = runner.core.make_grid(-40.0, 40.0, 4801)
    coarse = solver.solve_sl(models.gup_oscillator_sl(params, g1), 6)
    fine = solver.solve_sl(models.gup_oscillator_sl(params, g1.refined()), 6)
    for n, (a, b) in enumerate(zip(coarse.eigenvalues, fine.eigenvalues)):
        e = params.energy_from_eigenvalue(solver.richardson(float(a), float(b)))
        exact = oracle.oscillator_energy(0.05, 1.0, n)
        if not oracle.matches(e, exact):
            return f"oracle self-check: E_{n} = {e!r}, closed form {exact!r}"
    return None


def run_passes(runner, inputs, rng, seconds=None, passes=None, on_op=None):
    """Whole passes over the inputs, each in a fresh seeded order.

    Runs `passes` passes, or stops at the pass boundary nearest `seconds`
    of elapsed time. Returns the op results.
    """
    results = []
    t0 = time.perf_counter()
    done = 0
    while True:
        for op in workloads.pass_order(inputs, rng):
            results.append(on_op(op) if on_op else runner.run(op))
        done += 1
        elapsed = time.perf_counter() - t0
        if passes is not None:
            if done >= passes:
                break
        elif elapsed + 0.5 * elapsed / done >= seconds:
            break
    return results


def ops_per_s(results, wall=False) -> float:
    busy = sum(r.seconds if wall else r.ref_seconds for r in results)
    return sum(r.ok for r in results) / busy if busy else 0.0


def latency(workload: str, results, wall=False) -> tuple[float, float]:
    """Median and tail latency of the successful ops, in seconds."""
    lat = sorted(r.seconds if wall else r.ref_seconds for r in results if r.ok)
    if len(lat) < 2:
        return 0.0, 0.0
    tail = statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PCT[workload] - 1]
    return statistics.median(lat), tail


def end_to_end(workload: str, results, setup_samples) -> tuple[dict, list[str]]:
    pct = TAIL_PCT[workload]
    p50, tail = latency(workload, results)
    ok_lat = [r.ref_seconds for r in results if r.ok]
    beyond = sum(x > tail for x in ok_lat)
    pairs = sum(r.pairs for r in results)
    errs = [r.max_err for r in results if r.max_err is not None]
    failed = sum(not r.ok for r in results)
    metrics = {
        "ops_per_s": (ops_per_s(results), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "exact_ok_frac": (sum(r.pairs_ok for r in results) / pairs if pairs else 0.0,
                          "fraction"),
        "max_err_exact": (max(errs) if errs else 0.0, "energy"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    notes = [
        f"fail_frac {failed / len(results):.6g} fraction ({failed} of {len(results)} ops)",
        f"op_tail_ms is p{pct}: {beyond} of {len(ok_lat)} successful ops lie beyond it",
        f"exact pairs {pairs}; setup_s samples "
        + " ".join(f"{s:.4f}" for s in setup_samples),
        "wall time, not at reference speed: ops_per_s {:.6g} op_p50_ms {:.6g} "
        "op_tail_ms {:.6g}".format(ops_per_s(results, wall=True),
                                   *(1e3 * x for x in latency(workload, results, wall=True))),
    ]
    if beyond < 10:
        notes.append(f"warning: fewer than 10 samples beyond p{pct}")
    return metrics, notes


def traced_phase(workload, runner, inputs, rng, untraced_rate, problems):
    """Run TRACE_PASSES passes under the tracer and check its invariants."""
    solve_path = workload in ("solve-crosscheck", "spectrum-sweep")
    ops_run: list[dict] = []
    miscounted: list[str] = []
    bytes_out = 0
    with tracer.Tracer() as tr:
        def traced_op(op):
            nonlocal bytes_out
            before = tr.counts.copy()
            tr.op = len(ops_run)
            res = runner.run(op)
            ops_run.append(op)
            bytes_out += res.out_bytes
            levels = tr.counts["solver.shooting_levels"] - before["solver.shooting_levels"]
            calls = tr.counts["solver.eigen_solve_calls"] - before["solver.eigen_solve_calls"]
            want_levels = workloads.SOLVE_K if op["kind"] == "solve" else 0
            if res.ok and (levels != want_levels or (solve_path and calls != 2)):
                miscounted.append(f"{op} counted {levels} shooting levels and "
                                  f"{calls} eigen_solve calls")
            return res

        results = run_passes(runner, inputs, rng, passes=TRACE_PASSES[workload],
                             on_op=traced_op)
    if miscounted:
        problems.append(f"tracer: {len(miscounted)} ops miscounted, first {miscounted[0]}")
    metrics = tracer.layer_metrics(tr, sum(r.seconds for r in results), bytes_out,
                                   untraced_rate, ops_per_s(results))
    covered = metrics["trace.covered_frac"][0]
    if covered < COVERED_MIN:
        problems.append(f"tracer: layers cover {covered:.3f} of op time, below {COVERED_MIN}")
    return tr, ops_run, results, metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, tmpdir: str):
    """One benchmark run; returns (correct, results, metrics, notes)."""
    inputs = workloads.make_inputs(workload, seed)
    rng = random.Random(f"{workload}:{seed}:order")
    problems: list[str] = []

    setup_s, runner, warm = timed_setup(workload, tmpdir)
    import gupmdm
    if not Path(gupmdm.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported gupmdm from {gupmdm.__file__}, not from {SRC}")
    if not warm.ok:
        problems.append(f"warm-up op failed: {warm.message}")
    problem = oracle_self_check(runner)
    if problem:
        problems.append(problem)

    if trace:
        untraced = run_passes(runner, inputs, rng, seconds=seconds / 2)
        tr, _, results, metrics = traced_phase(workload, runner, inputs, rng,
                                               ops_per_s(untraced), problems)
        results = untraced + results
        tr.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        notes = [f"spans written to {OUT_DIR.name}/spans-{workload}-{seed}.jsonl"]
    else:
        setup_samples = [setup_s] + [setup_in_fresh_interpreter(workload)
                                     for _ in range(SETUP_STARTS - 1)]
        results = run_passes(runner, inputs, rng, seconds=seconds)
        metrics, notes = end_to_end(workload, results, setup_samples)

    problems += sorted({f"op failed: {r.message}" for r in results
                        if not r.ok and not r.known_failure})
    return not problems, results, metrics, notes + problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gupmdm" / "__init__.py").is_file():
        print(f"error: no gupmdm sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmpdir:
        if args.setup_probe:
            print(repr(timed_setup(args.workload, tmpdir)[0]))
            return 0
        correct, results, metrics, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), tmpdir)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
