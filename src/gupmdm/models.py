"""Deformed-oscillator and Swanson model builders.

Translates the two deformed Hamiltonians into raw ODE coefficients and
self-adjoint Sturm-Liouville problems. The momentum-dependent mass and the
effective potential are read off the SL problem (`SturmLiouvilleProblem.mass`,
`.effective_potential`) rather than written out per model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    derivative,
    require_same_grid,
)


def _check_square(name: str, x: float) -> None:
    """ValueError naming the parameter when x**2 overflows a float."""
    try:
        x**2
    except OverflowError:
        raise ValueError(f"{name}^2 overflows, got {name} = {x:g}") from None


@dataclass(frozen=True)
class GupOscillatorParams:
    """Deformed harmonic oscillator: frequency omega, deformation tau."""

    omega: float
    tau: float = 0.0

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        _check_square("omega", self.omega)

    @property
    def mu(self) -> float:
        return 1.0 / self.omega

    def energy_from_eigenvalue(self, lam: float) -> float:
        """E from the generalized eigenvalue lam = 2E/omega^2."""
        return lam * self.omega**2 / 2.0

    def eigenvalue_from_energy(self, energy: float) -> float:
        """lam = 2E/omega^2, the inverse of energy_from_eigenvalue."""
        return 2.0 * energy / self.omega**2

    def sl(self, grid: Grid) -> SturmLiouvilleProblem:
        return gup_oscillator_sl(self, grid)


@dataclass(frozen=True)
class SwansonParams:
    """Non-Hermitian Swanson oscillator parameters."""

    omega: float
    alpha: float
    beta: float
    tau: float = 0.0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        _check_square("omega", self.omega)
        if not self.omega**2 - 4.0 * self.alpha * self.beta > 0:
            raise ValueError("need omega^2 - 4*alpha*beta > 0")
        if not self.omega * (self.omega + self.alpha + self.beta) > 0:
            raise ValueError("need omega*(omega+alpha+beta) > 0")

    @property
    def omega_bar(self) -> float:
        return math.sqrt(self.omega**2 - 4.0 * self.alpha * self.beta)

    def energy_from_eigenvalue(self, lam: float) -> float:
        """E from the generalized eigenvalue lam = 2E + alpha - beta."""
        return (lam - self.alpha + self.beta) / 2.0

    def eigenvalue_from_energy(self, energy: float) -> float:
        """lam = 2E + alpha - beta, the inverse of energy_from_eigenvalue."""
        return 2.0 * energy + self.alpha - self.beta

    def sl(self, grid: Grid) -> SturmLiouvilleProblem:
        return swanson_sl(self, grid)


# Model name -> params class. `sl` looks the builder up at call time, so
# patching a module attribute reaches calls made through here.
MODELS = {"gup-oscillator": GupOscillatorParams, "swanson": SwansonParams}


@dataclass(frozen=True)
class RawOdeCoefficients:
    """a2 phi'' + a1 phi' = (a0P - lam*a0E) phi, lam the raw spectral parameter."""

    a2: SampledFunction
    a1: SampledFunction
    a0E: SampledFunction
    a0P: SampledFunction

    def __post_init__(self):
        require_same_grid(self.a2, self.a1, self.a0E, self.a0P)
        if np.any(self.a2.values <= 0):
            raise ValueError("leading coefficient a2 must be positive")


def gup_oscillator_raw(params: GupOscillatorParams, grid: Grid) -> RawOdeCoefficients:
    """Raw ODE of the deformed oscillator in momentum space.

    phi'' + 2 tau p/(1+tau p^2) phi' = [mu^2 p^2 - lam]/(1+tau p^2)^2 phi,
    with lam = 2E/omega^2.
    """
    p = grid.points
    u = 1.0 + params.tau * p * p
    return RawOdeCoefficients(
        a2=constant(grid, 1.0),
        a1=SampledFunction(grid, 2.0 * params.tau * p / u),
        a0E=SampledFunction(grid, 1.0 / u**2),
        a0P=SampledFunction(grid, params.mu**2 * p * p / u**2),
    )


def gup_oscillator_sl(params: GupOscillatorParams, grid: Grid) -> SturmLiouvilleProblem:
    """Self-adjoint form of the deformed oscillator.

    Multiplying the raw ODE by the integrating factor 1+tau p^2 gives
    -( (1+tau p^2) phi' )' + mu^2 p^2/(1+tau p^2) phi = lam phi/(1+tau p^2).
    """
    p = grid.points
    u = 1.0 + params.tau * p * p
    return SturmLiouvilleProblem(
        c=SampledFunction(grid, u),
        q=SampledFunction(grid, params.mu**2 * p * p / u),
        w=SampledFunction(grid, 1.0 / u),
    )


class WeightOverflowError(ValueError):
    """The Swanson integrating factor W(p) is not finite on the grid."""

    def __init__(self, p_at: float):
        self.p_at = p_at
        super().__init__(f"weight W(p) is not finite at p = {p_at:g}")


def swanson_sl(params: SwansonParams, grid: Grid) -> SturmLiouvilleProblem:
    """Self-adjoint form of the deformed Swanson eigenvalue equation.

    With G = omega (omega+alpha+beta), delta = (alpha-beta)/G,
    C = (omega-alpha-beta)/omega - (omega+alpha-beta) tau and the integrating
    factor W = (1+tau p^2)^(1+delta/tau), exp(delta p^2) at tau = 0:
    c = W, q = C p^2 W/((1+tau p^2)^2 G), w = W/((1+tau p^2)^2 G).
    The generalized eigenvalue is lam = 2E + alpha - beta.
    """
    p = grid.points
    u = 1.0 + params.tau * p * p
    big_g = params.omega * (params.omega + params.alpha + params.beta)
    delta = (params.alpha - params.beta) / big_g
    big_c = (
        (params.omega - params.alpha - params.beta) / params.omega
        - (params.omega + params.alpha - params.beta) * params.tau
    )
    with np.errstate(over="ignore"):
        if params.tau > 0:
            w_fac = u ** (1.0 + delta / params.tau)
        else:
            w_fac = np.exp(delta * p * p)
    bad = ~np.isfinite(w_fac)
    if np.any(bad):
        raise WeightOverflowError(float(p[np.argmax(bad)]))
    return SturmLiouvilleProblem(
        c=SampledFunction(grid, w_fac),
        q=SampledFunction(grid, big_c * p * p * w_fac / (u**2 * big_g)),
        w=SampledFunction(grid, w_fac / (u**2 * big_g)),
    )


def raw_residual_values(
    coeffs: RawOdeCoefficients, phi: SampledFunction, lam: float
) -> SampledFunction:
    """Pointwise raw-ODE defect a2 phi'' + a1 phi' - (a0P - lam a0E) phi."""
    require_same_grid(coeffs.a2, phi)
    d1 = derivative(phi, 1)
    d2 = derivative(phi, 2)
    return (
        coeffs.a2 * d2
        + coeffs.a1 * d1
        - (coeffs.a0P - lam * coeffs.a0E) * phi
    )


def sl_residual_values(
    slp: SturmLiouvilleProblem, phi: SampledFunction, lam: float
) -> SampledFunction:
    """Pointwise SL defect (c phi')' - (q - lam w) phi.

    The product rule is expanded with the same finite-difference operator
    used by raw_residual_values, so for polynomial c the two defects obey
    the integrating-factor identity to rounding.
    """
    require_same_grid(slp.c, phi)
    d1 = derivative(phi, 1)
    d2 = derivative(phi, 2)
    dc = derivative(slp.c, 1)
    return slp.c * d2 + dc * d1 - (slp.q - lam * slp.w) * phi
