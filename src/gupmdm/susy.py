"""Factorization of the models' Liouville normal form.

The normal form H = -D^2 + (1 - eps^4/4)(tan(eps x)/eps)^2 (`models.normal_form_sl`)
has the ground state R = cos^kappa(eps x), kappa = 1/2 + 1/eps^2, at mu_0 =
1 + eps^2/2, so H = A+ A + mu_0 with the `algebra` ladder operator A = D + W,
(r, s) = (1, W), and the superpotential W = -R'/R = kappa eps tan(eps x) in
closed form. Its partner H_1 = A A+ + mu_0 = H + 2W' is
-y'' + [kappa(kappa+1) eps^2 tan^2(eps x) + 2 kappa eps^2] y, shape invariant
(Cooper, Khare & Sukhatme, Phys. Rep. 251, 267 (1995)) with the levels
mu_1, mu_2, ... of H; A maps H's level n + 1 to H_1's level n. At eps = 0 it is
the oscillator: W = x and H_1 = H + 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import LadderRep, apply_ladder
from .core import Grid, SampledFunction, SturmLiouvilleProblem, constant, inner_relative_norm
from .models import NormalForm, ground_level, normal_form_grid, normal_form_sl
from .solver import solve_extrapolated


def superpotential(eps: float, grid: Grid) -> SampledFunction:
    """W = -R'/R = kappa eps tan(eps x) = mu_0 tan(eps x)/eps; x at eps = 0."""
    x = grid.points
    tan_x = np.tan(eps * x) / eps if eps > 0 else x
    return SampledFunction._owned(grid, ground_level(eps) * tan_x)


def partner_sl(eps: float, grid: Grid) -> SturmLiouvilleProblem:
    """`normal_form_sl` with q + 2W', W' = kappa eps^2 (1 + tan^2(eps x)) in closed form.

    W' = mu_0 + eps^2 W^2/mu_0, as kappa eps^2 = mu_0; it is 1 at eps = 0. Like
    q it is about (1e16)^2 at the end nodes where the box is the whole
    interval, and `discretize` drops those rows.
    """
    slp = normal_form_sl(eps, grid)
    mu0, w = ground_level(eps), superpotential(eps, grid)
    return SturmLiouvilleProblem(c=slp.c, q=slp.q + 2.0 * (mu0 + eps * eps * w * w / mu0),
                                 w=slp.w)


@dataclass(frozen=True)
class PartnerCheck:
    """Isospectrality diagnostics for one normal form."""

    eps: float
    lam: np.ndarray          # mu_0 .. mu_k of H         (extrapolated)
    lam_partner: np.ndarray  # mu_{1,0} .. mu_{1,k-1} of H_1 (extrapolated)
    shift_defects: np.ndarray      # |mu_{1,n} - mu_{n+1}|
    mapped_residuals: np.ndarray   # relative H_1 residuals of A y_{n+1}


def partner_check(form: NormalForm, n: int, k: int = 5) -> PartnerCheck:
    """Solve H and H_1 on grids n and 2n - 1 of `normal_form_grid` and extrapolate.

    Checks that H_1's levels are H's shifted by one, and that the mapped
    functions A y_{n+1} on the fine grid are near-eigenfunctions of H_1.

    Both problems are solved by `solver.solve_extrapolated`: H's coarse grid
    is seeded with the closed-form levels, H_1's with H's coarse levels
    1..k, which the factorization says are its levels, and each fine grid
    with its coarse levels. A seed changes the cost, not the levels: every
    level is the pencil's own, certified or else bisected (`eigen_solve`).

    A k outside 1..n - 3 (H needs k + 1 of the n - 2 interior levels) is a
    ValueError.
    """
    eps = form.eps
    grid = normal_form_grid(eps, n)
    if not 1 <= k <= grid.n - 3:
        raise ValueError(f"need 1 <= k <= {grid.n - 3}, got {k}")
    lam, coarse, fine = solve_extrapolated(partial(normal_form_sl, eps), grid, k + 1,
                                           form.exact_levels(k + 1))
    lam1, _, _ = solve_extrapolated(partial(partner_sl, eps), grid, k, coarse.eigenvalues[1:])

    # Mapped-eigenfunction residual on the fine grid, inner 80%.
    fine_grid = grid.refined()
    rep = LadderRep(r=constant(fine_grid, 1.0), s=superpotential(eps, fine_grid))
    slp1 = partner_sl(eps, fine_grid)
    residuals = []
    for m in range(k):
        psi = apply_ladder(rep, fine.eigenfunctions[m + 1])
        defect = slp1.residual(psi, float(fine.eigenvalues[m + 1]))
        residuals.append(inner_relative_norm(defect, psi))
    return PartnerCheck(
        eps=eps,
        lam=lam,
        lam_partner=lam1,
        shift_defects=np.abs(lam1 - lam[1:]),
        mapped_residuals=np.array(residuals),
    )
