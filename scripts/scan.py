#!/usr/bin/env python3
"""Family scan: `gupmdm solve` over the oscillator and Swanson families, in process.

The runs: the omega = 1 oscillator at tau = 0..2 in steps of 0.05 and Swanson
(2, 0.3, 0.1) at tau = 0..0.3 in steps of 0.01, each at n in {201, 301, 401,
601, 1200, 1201, 2401}; the oscillator at tau in {4, 16, 20, 30, 100}, at
--k 1, 40 and 60 for tau = 0 and 0.3, at --omega 0.001, --tau 0.05 --n 50001
and --tau 0.017 --n 4801; and Swanson at tau = 0.31..0.68 in steps of 0.01 and
0.685, at the default n: 557 runs.

Each run is one JSON line: its argv, its exit code, the largest relative error
of the `energy` and of the `energy_shooting` column against the closed form
(`ModelParams.exact_energy`; null unless the run exits 0), and the shooting
sweeps it made (the sum of `ShootingReport.iterations`).

    PYTHONPATH=src python scripts/scan.py > scan.jsonl
    PYTHONPATH=src python scripts/scan.py --check scripts/scan_reference.jsonl

--check FILE runs the scan against FILE's lines instead: it prints each run
whose exit code changed, each new silent miss (exit 0 with an error above 1e-6)
and the worst exit-0 error on each side, and exits 1 on a changed exit code or
a new silent miss.
"""

import argparse
import contextlib
import io
import json
import sys

from gupmdm import cli, solver

SWANSON = ["--model", "swanson", "--omega", "2", "--alpha", "0.3", "--beta", "0.1"]


def runs() -> list[list[str]]:
    """The scan's argv lists, in the order of the module docstring."""
    family = [["--tau", repr(i / 20)] for i in range(41)]
    family += [[*SWANSON, "--tau", repr(i / 100)] for i in range(31)]
    argvs = [[*point, "--n", str(n)]
             for point in family for n in (201, 301, 401, 601, 1200, 1201, 2401)]
    argvs += [["--tau", tau] for tau in ("4", "16", "20", "30", "100")]
    argvs += [["--tau", tau, "--k", k] for tau in ("0", "0.3") for k in ("1", "40", "60")]
    argvs += [["--omega", "0.001"], ["--tau", "0.05", "--n", "50001"],
              ["--tau", "0.017", "--n", "4801"]]
    argvs += [[*SWANSON, "--tau", repr(i / 100)] for i in range(31, 69)]
    argvs.append([*SWANSON, "--tau", "0.685"])
    return [["solve", *argv] for argv in argvs]


def _errors(argv: list[str], table: str) -> tuple[float, float]:
    """Largest relative errors of the energy and energy_shooting columns of a
    solve's CSV table against the closed form."""
    params = cli._config_from_args(cli.build_parser().parse_args(argv)).params()
    worst = [0.0, 0.0]
    for line in table.splitlines()[1:]:
        index, _, energy, shooting, _ = line.split(",")
        exact = params.exact_energy(int(index))
        for j, value in enumerate((energy, shooting)):
            worst[j] = max(worst[j], abs(float(value) - exact) / abs(exact))
    return worst[0], worst[1]


def scan() -> list[dict]:
    """One record per run of `runs()`, each run through `cli.main`."""
    real, sweeps = solver.shooting_eigenvalue, []

    def counted(*args, **kwargs):
        report = real(*args, **kwargs)
        sweeps.append(report.iterations)
        return report

    records = []
    solver.shooting_eigenvalue = counted     # `cli` imports it from `solver` per solve
    try:
        for argv in runs():
            sweeps.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            energy, shooting = _errors(argv, out.getvalue()) if code == 0 else (None, None)
            records.append({"argv": argv, "exit": code, "energy_err": energy,
                            "shooting_err": shooting, "sweeps": sum(sweeps)})
    finally:
        solver.shooting_eigenvalue = real
    return records


def _miss(record: dict) -> bool:
    """Exit 0 with a column further than 1e-6 (relative) from the closed form."""
    return record["exit"] == 0 and max(record["energy_err"], record["shooting_err"]) > 1e-6


def _worst(records: list[dict], key: str) -> str:
    ok = [r for r in records if r["exit"] == 0]
    if not ok:
        return "no run exits 0"
    worst = max(ok, key=lambda r: r[key])
    return f"{worst[key]:.4g} at {' '.join(worst['argv'])}"


def check(records: list[dict], reference: list[dict]) -> int:
    """Print how `records` differ from `reference`; 1 on a changed exit code or a new miss."""
    before = {tuple(r["argv"]): r for r in reference}
    failed = False
    for r in records:
        ref = before.get(tuple(r["argv"]))
        if ref is None or ref["exit"] != r["exit"]:
            print(f"exit code {None if ref is None else ref['exit']} -> {r['exit']}: "
                  f"{' '.join(r['argv'])}")
            failed = True
        if _miss(r) and not (ref is not None and _miss(ref)):
            print(f"silent miss (energy {r['energy_err']:.4g}, shooting "
                  f"{r['shooting_err']:.4g}): {' '.join(r['argv'])}")
            failed = True
    for name, side in (("reference", reference), ("this scan", records)):
        for key in ("energy_err", "shooting_err"):
            print(f"{name}: worst {key} {_worst(side, key)}")
    print(f"{len(records)} runs, {sum(r['exit'] == 0 for r in records)} exit 0: "
          + ("FAIL" if failed else "ok"))
    return int(failed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE", help="compare with a reference scan")
    args = ap.parse_args()
    records = scan()
    if args.check is None:
        for record in records:
            print(json.dumps(record))
        return 0
    with open(args.check) as fh:
        reference = [json.loads(line) for line in fh]
    return check(records, reference)


if __name__ == "__main__":
    sys.exit(main())
