"""Generalized ladder representation and Hermitization of the Swanson operator.

The annihilation operator is taken in the general first-order form
eta = r(p) D + s(p) with real r, s; `susy` uses the same operator, with
(r, s) = (1, W), as its intertwiner. From it: the deformed commutator
[eta, eta+] = 2 r s' - r r'', the second-order Swanson differential operator
coefficients (r~, s~, w~), the similarity weight rho removing the
first-derivative term, and the resulting Hermitian Sturm-Liouville problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    derivative,
    inner_relative_norm,
    require_same_grid,
)
from .models import SwansonParams


@dataclass(frozen=True)
class LadderRep:
    r: SampledFunction
    s: SampledFunction

    def __post_init__(self):
        require_same_grid(self.r, self.s)
        if np.any(self.r.values <= 0):
            raise ValueError("r must be positive everywhere")


@dataclass(frozen=True)
class SwansonCoefficients:
    r_t: SampledFunction
    s_t: SampledFunction
    w_t: SampledFunction

    def __post_init__(self):
        require_same_grid(self.r_t, self.s_t, self.w_t)
        if np.any(self.r_t.values <= 0):
            raise ValueError("r~ must be positive everywhere")

    @cached_property
    def untransformed_problem(self) -> SturmLiouvilleProblem:
        """The SL problem (c, q, w) = (r~^2, w~, 1): H~ without its s~ D term.

        Built on first read and kept, so the residuals of one coefficient set
        (`untransformed_residual`) and its `hermitized_problem` share it.
        """
        return SturmLiouvilleProblem(c=self.r_t * self.r_t, q=self.w_t,
                                     w=constant(self.r_t.grid, 1.0))


def ladder_commutator(rep: LadderRep) -> SampledFunction:
    """[eta, eta+] = 2 r s' - r r''."""
    return 2.0 * rep.r * derivative(rep.s, 1) - rep.r * derivative(rep.r, 2)


def apply_ladder(rep: LadderRep, phi: SampledFunction) -> SampledFunction:
    """eta phi = r phi' + s phi."""
    require_same_grid(rep.r, phi)
    return rep.r * derivative(phi, 1) + rep.s * phi


def swanson_coefficients(
    rep: LadderRep, params: SwansonParams
) -> SwansonCoefficients:
    """Coefficients of H~ = -D r~^2 D + s~ D + w~ for the Swanson Hamiltonian.

    The leading coefficient of this ladder route is (omega - alpha - beta) r^2,
    while the deformed momentum-space ODE carries omega (omega + alpha + beta);
    the two are not reconciled.
    """
    omega, alpha, beta = params.omega, params.alpha, params.beta
    omega_t = omega - alpha - beta
    if not omega_t > 0:
        raise ValueError(f"need omega - alpha - beta > 0, got {omega_t}")
    r, s = rep.r, rep.s
    dr = derivative(r, 1)
    d2r = derivative(r, 2)
    ds = derivative(s, 1)
    r_t = np.sqrt(omega_t) * r
    s_t = (alpha - beta) * (2.0 * r * s - r * dr)
    w_t = (
        omega * (s * s - r * ds - dr * s)
        + alpha * (r * ds + s * s)
        + beta * (r * d2r + dr * dr - r * ds - 2.0 * dr * s + s * s)
        + omega / 2.0
    )
    return SwansonCoefficients(r_t=r_t, s_t=s_t, w_t=w_t)


def similarity_weight(coeffs: SwansonCoefficients) -> SampledFunction:
    """rho = exp(-1/2 int_0^p s~/r~^2 dp'), the Hermitizing similarity weight.

    The indefinite integral's base point is fixed at p = 0; any other base
    rescales rho by a constant that cancels in the similarity transform.
    """
    grid = coeffs.r_t.grid
    p = grid.points
    f = coeffs.s_t.values / coeffs.r_t.values**2
    # Cumulative trapezoid in scipy's operation order, without importing scipy.integrate.
    integral = np.concatenate(([0.0], np.cumsum(np.diff(p) * (f[1:] + f[:-1]) / 2.0)))
    integral -= np.interp(0.0, p, integral)
    with np.errstate(over="raise"):
        try:
            rho = np.exp(-0.5 * integral)
        except FloatingPointError as exc:
            raise ValueError("similarity weight overflows on this grid") from exc
    return SampledFunction._owned(grid, rho)


def hermitized_problem(coeffs: SwansonCoefficients) -> SturmLiouvilleProblem:
    """h~ = -D r~^2 D + V~ with V~ = s~^2/(4 r~^2) - s~'/2 + w~ and unit weight."""
    base = coeffs.untransformed_problem
    v_t = (
        coeffs.s_t * coeffs.s_t / (4.0 * base.c)
        - 0.5 * derivative(coeffs.s_t, 1)
        + coeffs.w_t
    )
    return SturmLiouvilleProblem(c=base.c, q=v_t, w=base.w)


def untransformed_residual(
    coeffs: SwansonCoefficients,
    rho: SampledFunction,
    phi: SampledFunction,
    lam: float,
) -> float:
    """Relative residual of the non-Hermitian operator on psi = phi/rho.

    phi should be an eigenfunction of the Hermitized problem with eigenvalue
    lam; the similarity maps it to an eigenfunction of
    H~ = -D r~^2 D + s~ D + w~. Its defect H~ psi - lam psi is s~ psi' minus
    the residual of the SL problem (c, q, w) = (r~^2, w~, 1), taken as an L2
    ratio on the inner 80% of the grid; that problem is built once per
    coefficient set (`SwansonCoefficients.untransformed_problem`).
    """
    require_same_grid(coeffs.r_t, rho, phi)
    psi = phi / rho
    defect = coeffs.s_t * derivative(psi, 1) - coeffs.untransformed_problem.residual(psi, lam)
    return inner_relative_norm(defect, psi)
