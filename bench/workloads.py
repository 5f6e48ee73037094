"""Seeded inputs for the three workloads, one op per input, and output checks.

A workload is a fixed list of inputs (one "pass") drawn from the seed; the
benchmark runs whole passes, each in a fresh seeded order. Every metric is
therefore taken over the same mix of inputs however fast the program is.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

import hostspeed
import oracle

WORKLOADS = ("solve-crosscheck", "spectrum-sweep", "diagnostics")

SOLVE_K = 6            # `gupmdm solve` default; the ops keep every default
SWEEP_N, SWEEP_K = 4801, 10
# Library-path boxes, wide enough that the matrix path meets the closed forms
# within 1e-6 (oscillator), and narrow enough that the Swanson weight
# exp(delta p^2) stays under swanson_sl's 1e12 weight cap for the drawn parameters.
OSC_BOX, SWANSON_BOX = 50.0, 15.0
DISAGREE_RTOL = 1e-6   # matrix vs shooting, the repository's acceptance tolerance
PROFILE_NS = tuple(1201 + 600 * j for j in range(15))   # 1201 .. 9601

SOLVE_ANCHORS = (
    # The default box 12/sqrt(omega) truncates the deformed spectrum here.
    {"model": "gup-oscillator", "tau": 0.1, "omega": 2.0},
    # The default box cannot resolve the ground state: `solve` exits 2.
    {"model": "gup-oscillator", "tau": 0.0, "omega": 0.001, "known_failure": True},
)
# Corners of the oscillator range, where the library path is least accurate.
SWEEP_ANCHORS = (
    {"model": "gup-oscillator", "tau": 0.1, "omega": 2.0},
    {"model": "gup-oscillator", "tau": 0.0, "omega": 0.5},
)

# Share of each workload's op time that the host slows as much as it slows
# the pure-Python kernel of hostspeed.py. Shooting and table writing are
# interpreter-bound: weighted by the kernel, the spread of op_p50_ms over five
# seeds fell from 0.16-0.20 to 0.02-0.03. Spectrum ops are mostly LAPACK and
# numpy and do not follow the kernel: weighted by it (0.5 or 1), their spread
# rose from 0.06 to 0.11-0.15, so they are reported at wall time.
HOST_WEIGHT = {"solve-crosscheck": 1.0, "spectrum-sweep": 0.0, "diagnostics": 1.0}

# One fixed op per workload, run once while set-up is timed.
WARMUP = {
    "solve-crosscheck": {"kind": "solve", "model": "gup-oscillator", "tau": 0.05, "omega": 1.0},
    "spectrum-sweep": {"kind": "spectrum", "model": "gup-oscillator", "tau": 0.05,
                       "omega": 1.0, "box": OSC_BOX},
    "diagnostics": {"kind": "verify", "suite": "susy"},
}


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _stratum(rng: random.Random, lo: float, hi: float, i: int, m: int) -> float:
    """A point drawn from the i-th of m equal strata of [lo, hi]."""
    return round(lo + (hi - lo) * (i + rng.random()) / m, 6)


def _oscillators(rng: random.Random) -> list[dict]:
    """One point per cell of a 3 x 6 grid over tau in [0, 0.1], omega in [0.5, 2].

    Finer in omega, on which the default box's truncation depends most, so
    that the share of levels matching the closed form varies little by seed.
    """
    return [
        {"model": "gup-oscillator", "tau": _stratum(rng, 0.0, 0.1, i, 3),
         "omega": _stratum(rng, 0.5, 2.0, j, 6)}
        for i in range(3) for j in range(6)
    ]


def _swanson(rng: random.Random, deformed: bool) -> dict:
    return {"model": "swanson",
            "tau": _uniform(rng, 0.02, 0.1) if deformed else 0.0,
            "omega": _uniform(rng, 1.5, 2.0), "alpha": _uniform(rng, 0.1, 0.3),
            "beta": _uniform(rng, 0.05, 0.2)}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The pass list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}:inputs")
    if workload == "solve-crosscheck":
        points = [dict(a) for a in SOLVE_ANCHORS] + _oscillators(rng)
        points += [_swanson(rng, False) for _ in range(2)]
        points += [_swanson(rng, True) for _ in range(2)]
        return [{"kind": "solve", **p} for p in points]
    if workload == "spectrum-sweep":
        points = [dict(a) for a in SWEEP_ANCHORS] + _oscillators(rng)
        points += [_swanson(rng, False) for _ in range(3)]
        points += [_swanson(rng, True) for _ in range(3)]
        return [{"kind": "spectrum", **p,
                 "box": OSC_BOX if p["model"] == "gup-oscillator" else SWANSON_BOX}
                for p in points]
    if workload == "diagnostics":
        ops = [{"kind": "verify", "suite": s}
               for s in ("vonroos", "susy", "hermitize", "reduction")]
        for n in PROFILE_NS:
            # Swanson profiles are singular at tau = 0, so they draw tau > 0.
            p = (_swanson(rng, True) if rng.random() < 0.5 else
                 {"model": "gup-oscillator", "tau": _uniform(rng, 0.0, 0.1),
                  "omega": _uniform(rng, 0.5, 2.0)})
            which = rng.choice(("mass", "veff"))
            if which == "veff":
                p["energy"] = _uniform(rng, 0.5, 5.0)
            ops.append({"kind": "profile", "which": which, "n": n, **p})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def pass_order(inputs: list[dict], rng: random.Random) -> list[dict]:
    order = list(inputs)
    rng.shuffle(order)
    return order


@dataclass
class OpResult:
    ok: bool
    seconds: float              # wall time of the op
    ref_seconds: float = 0.0    # the same at reference host speed (hostspeed.py)
    pairs: int = 0              # (op, level) pairs with a closed form
    pairs_ok: int = 0
    max_err: float | None = None
    out_bytes: int = 0
    message: str = ""
    known_failure: bool = False   # an anchor that fails at the baseline on purpose


def _model_args(op: dict) -> list[str]:
    argv = ["--model", op["model"], "--omega", repr(op["omega"]), "--tau", repr(op["tau"])]
    if op["model"] == "swanson":
        argv += ["--alpha", repr(op["alpha"]), "--beta", repr(op["beta"])]
    return argv


def _csv_rows(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(x) for x in row] for row in reader]


def _ascending_finite(values: list[float]) -> bool:
    return all(math.isfinite(v) for v in values) and all(
        b > a for a, b in zip(values, values[1:]))


def _exact_pairs(op: dict, energies: list[float], res: OpResult) -> None:
    for n, e in enumerate(energies):
        exact = oracle.exact_energy(op, n)
        if exact is None:
            return
        res.pairs += 1
        res.pairs_ok += oracle.matches(e, exact)
        err = abs(e - exact)
        res.max_err = err if res.max_err is None else max(res.max_err, err)


class Runner:
    """Runs ops through the program's public functions; times only the program."""

    def __init__(self, tmpdir: str, host_weight: float):
        from gupmdm import cli, core, models, solver   # timed as set-up

        self.cli, self.core, self.models, self.solver = cli, core, models, solver
        self.out = os.path.join(tmpdir, "op.out")
        self.host_weight = host_weight
        self._probe: float | None = None   # the kernel's time after the last op

    def run(self, op: dict) -> OpResult:
        before = self._probe if self._probe is not None else hostspeed.probe()
        res = self._run(op)
        self._probe = hostspeed.probe()
        res.ref_seconds = hostspeed.at_ref(res.seconds, before, self._probe,
                                           self.host_weight)
        res.known_failure = bool(op.get("known_failure"))
        return res

    def _run(self, op: dict) -> OpResult:
        kind = op["kind"]
        if kind == "spectrum":
            return self._spectrum(op)
        if kind == "solve":
            argv = ["solve", *_model_args(op)]
        elif kind == "verify":
            argv = ["verify", op["suite"]]
        else:
            argv = ["profile", op["which"], *_model_args(op), "--n", str(op["n"])]
            if "energy" in op:
                argv += ["--energy", repr(op["energy"])]
        if os.path.exists(self.out):   # never read the previous op's output
            os.remove(self.out)
        rc, seconds, message = self._cli(argv + ["--out", self.out])
        res = OpResult(ok=False, seconds=seconds, message=message)
        if rc != 0:
            res.message = f"exit {rc}: {message.strip()}"
            if kind == "solve" and oracle.exact_energy(op, 0) is not None:
                res.pairs = SOLVE_K    # a failed solve matches no closed form
            return res
        check = {"solve": self._check_solve, "verify": self._check_verify,
                 "profile": self._check_profile}[kind]
        try:
            res.out_bytes = os.path.getsize(self.out)
            check(op, res)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            res.ok, res.message = False, f"unreadable output: {exc!r}"
        return res

    def _cli(self, argv: list[str]) -> tuple[int | None, float, str]:
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:   # a crash is a failed op, not a benchmark error
            return None, time.perf_counter() - t0, repr(exc)
        return rc, time.perf_counter() - t0, err.getvalue()

    def _check_solve(self, op: dict, res: OpResult) -> None:
        header, rows = _csv_rows(self.out)
        if header[:5] != ["index", "lambda", "energy", "energy_shooting", "abs_delta"]:
            raise ValueError(f"header {header}")
        energies = [r[2] for r in rows]
        shooting = [r[3] for r in rows]
        if len(rows) != SOLVE_K or not _ascending_finite(energies):
            res.message = "energies not finite and ascending"
            return
        if not _ascending_finite(shooting):
            res.message = "shooting energies not finite and ascending"
            return
        worst = max(abs(e - s) / abs(e) for e, s in zip(energies, shooting))
        if not worst <= DISAGREE_RTOL:
            res.message = f"matrix vs shooting disagree by {worst:.3g} (relative)"
            return
        res.ok = True
        _exact_pairs(op, energies, res)

    def _check_verify(self, op: dict, res: OpResult) -> None:
        with open(self.out) as fh:
            report = json.load(fh)
        if not (report["passed"] and all(c["passed"] for c in report["checks"])):
            res.message = "verify report not passed"
            return
        res.ok = True
        # SUSY isospectrality Lambda_{1,n} = Lambda_{n+1} is exact; its defect
        # is an error against an exact relation.
        for c in report["checks"]:
            if c["name"].startswith("partner_shift"):
                res.pairs += 1
                res.pairs_ok += c["measured"] <= oracle.EXACT_RTOL
                res.max_err = max(res.max_err or 0.0, c["measured"])

    def _check_profile(self, op: dict, res: OpResult) -> None:
        header, rows = _csv_rows(self.out)
        if header != ["p", "value"]:
            raise ValueError(f"header {header}")
        if len(rows) != op["n"] or not all(math.isfinite(v) for _, v in rows):
            res.message = "profile rows missing or not finite"
            return
        res.ok = True
        worst_err, all_ok = 0.0, True
        for p, v in rows:
            exact = oracle.profile_value(op, op["which"], p)
            worst_err = max(worst_err, abs(v - exact))
            all_ok = all_ok and oracle.matches(v, exact)
        res.pairs, res.pairs_ok, res.max_err = 1, int(all_ok), worst_err

    def _spectrum(self, op: dict) -> OpResult:
        models, solver = self.models, self.solver
        if op["model"] == "gup-oscillator":
            params = models.GupOscillatorParams(omega=op["omega"], tau=op["tau"])
            build = models.gup_oscillator_sl
        else:
            params = models.SwansonParams(omega=op["omega"], alpha=op["alpha"],
                                          beta=op["beta"], tau=op["tau"])
            build = models.swanson_sl
        t0 = time.perf_counter()
        try:
            g1 = self.core.make_grid(-op["box"], op["box"], SWEEP_N)
            g2 = g1.refined()
            coarse = solver.solve_sl(build(params, g1), SWEEP_K)
            fine = solver.solve_sl(build(params, g2), SWEEP_K)
            energies = [
                params.energy_from_eigenvalue(solver.richardson(float(a), float(b)))
                for a, b in zip(coarse.eigenvalues, fine.eigenvalues)
            ]
        except Exception as exc:   # a crash is a failed op, not a benchmark error
            return OpResult(ok=False, seconds=time.perf_counter() - t0, message=repr(exc))
        res = OpResult(ok=False, seconds=time.perf_counter() - t0)
        if len(energies) != SWEEP_K or not _ascending_finite(energies):
            res.message = "energies not finite and ascending"
            return res
        res.ok = True
        _exact_pairs(op, energies, res)
        return res
