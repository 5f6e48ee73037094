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
from .solver import richardson, solve_sl


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


def veff_from_factorization(rep: LadderRep, c0: float) -> SampledFunction:
    """V_eff = c0 + theta^2 - (xi theta)', with (xi, theta) = (rep.r, rep.s)."""
    return c0 + rep.s * rep.s - derivative(rep.r * rep.s, 1)


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


def _partner_spectrum_on_grid(tau: float, grid: Grid, k: int):
    slp = build_unweighted_problem(tau, grid)
    spec = solve_sl(slp, k + 1)
    xi = xi_gup(tau, grid)
    theta = superpotential_from_ground_state(xi, spec.eigenfunctions[0])
    rep = LadderRep(r=xi, s=theta)
    slp1 = SturmLiouvilleProblem(c=slp.c, q=slp.q + ladder_commutator(rep), w=slp.w)
    spec1 = solve_sl(slp1, k)
    return spec, rep, slp1, spec1


def partner_check(tau: float, p_max: float, n: int, k: int = 5) -> PartnerCheck:
    """Run the factorization pipeline on grids n and 2n-1 and extrapolate.

    Verifies that the partner problem built from the numerically extracted
    superpotential is isospectral with the original problem shifted by one
    level, and that the mapped functions A phi_{n+1} are near-eigenfunctions
    of the partner.
    """
    g1 = make_grid(-p_max, p_max, n)
    g2 = g1.refined()
    spec_c, _, _, spec1_c = _partner_spectrum_on_grid(tau, g1, k)
    spec_f, rep_f, slp1_f, spec1_f = _partner_spectrum_on_grid(tau, g2, k)

    lam = richardson(spec_c.eigenvalues, spec_f.eigenvalues)
    lam1 = richardson(spec1_c.eigenvalues, spec1_f.eigenvalues)
    defects = np.abs(lam1 - lam[1:])

    # Mapped-eigenfunction residual on the fine grid, inner 80%.
    residuals = []
    for m in range(k):
        psi = apply_ladder(rep_f, spec_f.eigenfunctions[m + 1])
        defect = slp1_f.residual(psi, float(spec_f.eigenvalues[m + 1]))
        residuals.append(inner_relative_norm(defect, psi))
    return PartnerCheck(
        tau=tau,
        lam=lam,
        lam_partner=lam1,
        shift_defects=defects,
        mapped_residuals=np.array(residuals),
    )

