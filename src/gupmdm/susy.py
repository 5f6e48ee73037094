"""Factorization / intertwining machinery for the deformed problems.

The intertwiner A = xi(p) d/dp + theta(p) is the `algebra` ladder operator
with (r, s) = (xi, theta): xi = sqrt(1+tau p^2), and the superpotential theta
is extracted from a nodeless ground state so that A phi0 = 0. The partner
potential is V_1 = V + [A, A+], the `algebra.ladder_commutator` of that
operator, from the factorization identity A A+ = A+ A + [A, A+].

This module works on unweighted operators H = -D xi^2 D + V (w = 1); the
deformation enters only through xi. The demonstration potential used by
the verification pipeline is V(p) = p^2/(1+tau p^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .algebra import LadderRep, apply_ladder, ladder_commutator
from .core import (
    Grid,
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    derivative,
    inner_relative_norm,
    inner_slice,
    make_grid,
    require_same_grid,
    sample,
)
from .solver import solve_extrapolated


def xi_gup(tau: float, grid: Grid) -> SampledFunction:
    """xi(p) = sqrt(1+tau p^2), the intertwiner's leading coefficient."""
    if tau < 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return sample(grid, lambda p: np.sqrt(1.0 + tau * p * p))


def superpotential_from_ground_state(
    xi: SampledFunction, phi0: SampledFunction
) -> SampledFunction:
    """theta = -xi phi0'/phi0, the unique choice with A phi0 = 0.

    The quotient is evaluated on the inner 80% of the grid, where the
    ground state has support, and extended linearly to the ends (phi0
    underflows near the Dirichlet boundaries).
    """
    grid = require_same_grid(xi, phi0)
    sl = inner_slice(grid.n)
    core_vals = phi0.values[sl]
    signs = np.sign(core_vals[np.abs(core_vals) > 0])
    if signs.size == 0 or np.any(signs != signs[0]):
        raise ValueError("phi0 changes sign on the inner region; not a ground state")
    d1 = derivative(phi0, 1)
    theta = np.empty(grid.n)
    theta[sl] = -xi.values[sl] * d1.values[sl] / phi0.values[sl]
    lo, hi = sl.start, sl.stop
    h = grid.h
    slope_l = (theta[lo + 1] - theta[lo]) / h
    slope_r = (theta[hi - 1] - theta[hi - 2]) / h
    theta[:lo] = theta[lo] - slope_l * h * np.arange(lo, 0, -1)
    theta[hi:] = theta[hi - 1] + slope_r * h * np.arange(1, grid.n - hi + 1)
    return SampledFunction(grid, theta)


def demo_potential(tau: float, grid: Grid) -> SampledFunction:
    """V(p) = p^2/(1+tau p^2), the demonstration potential of the pipeline."""
    return sample(grid, lambda p: p * p / (1.0 + tau * p * p))


def build_unweighted_problem(tau: float, grid: Grid) -> SturmLiouvilleProblem:
    """H = -D (1+tau p^2) D + V with unit weight and V the demo potential."""
    xi = xi_gup(tau, grid)
    return SturmLiouvilleProblem(c=xi * xi, q=demo_potential(tau, grid),
                                 w=constant(grid, 1.0))


@dataclass(frozen=True)
class PartnerCheck:
    """Isospectrality diagnostics for one deformation value."""

    tau: float
    lam: np.ndarray          # Lambda_0 .. Lambda_{k}   (extrapolated)
    lam_partner: np.ndarray  # Lambda_{1,0} .. Lambda_{1,k-1} (extrapolated)
    shift_defects: np.ndarray      # |Lambda_{1,n} - Lambda_{n+1}|
    mapped_residuals: np.ndarray   # relative H1 residuals of A phi_{n+1}


def partner_problem(tau: float, phi0: SampledFunction) -> tuple[LadderRep, SturmLiouvilleProblem]:
    """(A, H_1): the intertwiner with A phi0 = 0 and the partner problem on
    phi0's grid, H_1 = H + [A, A+] for the demo problem H."""
    slp = build_unweighted_problem(tau, phi0.grid)
    xi = xi_gup(tau, phi0.grid)
    rep = LadderRep(r=xi, s=superpotential_from_ground_state(xi, phi0))
    return rep, SturmLiouvilleProblem(c=slp.c, q=slp.q + ladder_commutator(rep), w=slp.w)


def partner_check(tau: float, p_max: float, n: int, k: int = 5) -> PartnerCheck:
    """Run the factorization pipeline on grids n and 2n-1 and extrapolate.

    Verifies that the partner problem built from the numerically extracted
    superpotential is isospectral with the original problem shifted by one
    level, and that the mapped functions A phi_{n+1} are near-eigenfunctions
    of the partner.

    Both problems are solved by `solver.solve_extrapolated`. Each grid's
    partner is built from that grid's own ground state, and its coarse grid
    is seeded with the original's coarse levels 1..k, which the
    factorization says are its levels; each fine grid is seeded with its
    coarse levels. A seed changes the cost, not the levels: every level is
    the partner pencil's own, certified or else bisected (`eigen_solve`).

    A k outside 1..n - 3 (the original needs k + 1 of the n - 2 interior
    levels) is a ValueError.
    """
    grid = make_grid(-p_max, p_max, n)
    if not 1 <= k <= grid.n - 3:
        raise ValueError(f"need 1 <= k <= {grid.n - 3}, got {k}")
    lam, coarse, fine = solve_extrapolated(partial(build_unweighted_problem, tau), grid, k + 1)
    spectra = {grid: coarse, grid.refined(): fine}

    @cache
    def partner(g: Grid) -> tuple[LadderRep, SturmLiouvilleProblem]:
        return partner_problem(tau, spectra[g].eigenfunctions[0])

    lam1, _, _ = solve_extrapolated(lambda g: partner(g)[1], grid, k, coarse.eigenvalues[1:])
    defects = np.abs(lam1 - lam[1:])

    # Mapped-eigenfunction residual on the fine grid, inner 80%.
    rep_f, slp1_f = partner(grid.refined())
    residuals = []
    for m in range(k):
        psi = apply_ladder(rep_f, fine.eigenfunctions[m + 1])
        defect = slp1_f.residual(psi, float(fine.eigenvalues[m + 1]))
        residuals.append(inner_relative_norm(defect, psi))
    return PartnerCheck(
        tau=tau,
        lam=lam,
        lam_partner=lam1,
        shift_defects=defects,
        mapped_residuals=np.array(residuals),
    )
