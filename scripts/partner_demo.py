#!/usr/bin/env python3
"""Factorization demo: factorize the omega = 1 oscillator's Liouville normal
form with its closed-form superpotential W = -R'/R, solve the partner
H + 2W', and show the one-level spectral shift in normal-form levels mu.

Example:
    python scripts/partner_demo.py --tau 0.05 --n 3001 -k 5
"""

import argparse
import sys

from gupmdm.cli import EXIT_SOLVER
from gupmdm.core import SolverError
from gupmdm.models import GupOscillatorParams
from gupmdm.susy import partner_check


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=float, default=0.05)
    ap.add_argument("--n", type=int, default=3001)
    ap.add_argument("-k", type=int, default=5)
    args = ap.parse_args()

    # Exit codes as `gupmdm`'s: 2 for a bad argument, 3 for a solver failure.
    try:
        pc = partner_check(GupOscillatorParams(1.0, args.tau).normal_form(), args.n, k=args.k)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        sys.exit(EXIT_SOLVER)
    except ValueError as exc:
        ap.error(str(exc))
    print(f"tau = {args.tau}, eps = {pc.eps:.10g}")
    print(f"{'n':>3s}  {'mu_n+1':>16s}  {'mu_1,n':>16s}  "
          f"{'|shift defect|':>14s}  {'mapped resid':>12s}")
    for n in range(args.k):
        print(
            f"{n:3d}  {pc.lam[n + 1]:16.10f}  {pc.lam_partner[n]:16.10f}  "
            f"{pc.shift_defects[n]:14.3e}  {pc.mapped_residuals[n]:12.3e}"
        )


if __name__ == "__main__":
    main()
