"""Deformed-oscillator and Swanson model builders.

Translates the two deformed Hamiltonians into raw ODE coefficients and
self-adjoint Sturm-Liouville problems in momentum p. The momentum-dependent
mass and the effective potential are read off the SL problem
(`SturmLiouvilleProblem.mass`, `.effective_potential`) rather than written
out per model.

Both models and every tau also share one Liouville normal form (`normal_form`,
`normal_form_sl`): with constants (S, B, k^2) per model, Q = k^4/4 + S and
eps = k Q^(-1/4), each becomes

    -y'' + (1 - eps^4/4) (tan(eps x)/eps)^2 y = mu y,  |x| < pi/(2 eps),

on the whole line at eps = 0, with lam = B + sqrt(Q) mu and exact levels
mu_n = (2n+1)(1 + eps^2/2) + eps^2 n^2. Here x = Q^(1/4) rho, rho the Liouville
variable arctan(sqrt(tau) p)/sqrt(tau G), and phi = (c w)^(-1/4) y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    Grid,
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    derivative,
    make_grid,
    require_same_grid,
)


def _check_square(name: str, x: float) -> None:
    """ValueError naming the parameter when x**2 overflows a float."""
    try:
        x**2
    except OverflowError:
        raise ValueError(f"{name}^2 overflows, got {name} = {x:g}") from None


class NormalForm(NamedTuple):
    """Constants (S, B, k^2) of a model's Liouville normal form.

    The model's generalized eigenvalue is lam = B + sqrt(Q) mu, with mu an
    eigenvalue of `normal_form_sl(eps)`, Q = k^4/4 + S and eps = k Q^(-1/4).
    """

    s: float
    b: float
    k2: float

    @property
    def sqrt_q(self) -> float:
        return math.sqrt(0.25 * self.k2 * self.k2 + self.s)

    @property
    def eps2(self) -> float:
        return self.k2 / self.sqrt_q

    @property
    def eps(self) -> float:
        return math.sqrt(self.eps2)

    def eigenvalue(self, mu: float) -> float:
        """The model's lam from a normal-form eigenvalue mu."""
        return self.b + self.sqrt_q * mu

    def exact_eigenvalue(self, n: int) -> float:
        """lam_n from mu_n = (2n+1)(1 + eps^2/2) + eps^2 n^2."""
        e2 = self.eps2
        return self.eigenvalue((2 * n + 1) * (1.0 + 0.5 * e2) + e2 * n * n)


def _normal_form(tau: float, s: float, b: float, k2: float) -> NormalForm:
    """NormalForm(s, b, k2), or a ValueError naming tau where it is not usable."""
    q = 0.25 * k2 * k2 + s
    if not math.isfinite(q):
        raise ValueError(f"the normal form is not finite at tau = {tau:g} "
                         f"(S = {s:g}, k^2 = {k2:g})")
    if not q > 0:
        raise ValueError(f"Q = k^4/4 + S = {q:.6g} <= 0 at tau = {tau:g}: the "
                         "endpoint is oscillatory and the spectrum has no "
                         "lowest level")
    form = NormalForm(s, b, k2)
    if not (math.isfinite(form.eps) and math.isfinite(form.sqrt_q)):
        raise ValueError(f"the normal form is not finite at tau = {tau:g} "
                         f"(eps = {form.eps:g}, sqrt(Q) = {form.sqrt_q:g})")
    return form


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

    def normal_form(self) -> NormalForm:
        """S = 1/omega^2, B = 0, k^2 = tau; eps^2 depends on tau*omega only."""
        return _normal_form(self.tau, self.mu * self.mu, 0.0, self.tau)

    def exact_energy(self, n: int) -> float:
        """Closed-form E_n, the Kempf-Mangano-Mann spectrum."""
        return self.energy_from_eigenvalue(self.normal_form().exact_eigenvalue(n))


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

    @property
    def big_g(self) -> float:
        """G = omega (omega + alpha + beta)."""
        return self.omega * (self.omega + self.alpha + self.beta)

    @property
    def delta(self) -> float:
        """delta = (alpha - beta)/G."""
        return (self.alpha - self.beta) / self.big_g

    @property
    def big_c(self) -> float:
        """C = (omega - alpha - beta)/omega - (omega + alpha - beta) tau."""
        return (
            (self.omega - self.alpha - self.beta) / self.omega
            - (self.omega + self.alpha - self.beta) * self.tau
        )

    def energy_from_eigenvalue(self, lam: float) -> float:
        """E from the generalized eigenvalue lam = 2E + alpha - beta."""
        return (lam - self.alpha + self.beta) / 2.0

    def eigenvalue_from_energy(self, energy: float) -> float:
        """lam = 2E + alpha - beta, the inverse of energy_from_eigenvalue."""
        return 2.0 * energy + self.alpha - self.beta

    def sl(self, grid: Grid) -> SturmLiouvilleProblem:
        return swanson_sl(self, grid)

    def normal_form(self) -> NormalForm:
        """S = G[C + G delta (delta + tau)], B = G delta, k^2 = tau G.

        The Liouville map phi = (cw)^(-1/4) y with cw = (1+tau p^2)^(2 delta/tau)/G
        adds G delta [1 + (delta/tau + 1) tan^2(k rho)] to q/w = C tan^2(k rho)/tau.
        """
        g, d = self.big_g, self.delta
        return _normal_form(self.tau, g * (self.big_c + g * d * (d + self.tau)),
                            g * d, self.tau * g)

    def exact_energy(self, n: int) -> float:
        """Closed-form E_n; (n + 1/2) omega_bar at tau = 0."""
        return self.energy_from_eigenvalue(self.normal_form().exact_eigenvalue(n))


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
    big_g, delta, big_c = params.big_g, params.delta, params.big_c
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


# Half-width of the normal-form box where the interval |x| < pi/(2 eps) is
# longer (or infinite, eps = 0): 12 ground-state widths, as x is in units of
# the ground-state width for every model and tau.
NORMAL_FORM_HALF_WIDTH = 12.0


def normal_form_grid(eps: float, n: int) -> Grid:
    """n points on [-X, X], X = min(pi/(2 eps), NORMAL_FORM_HALF_WIDTH)."""
    half = NORMAL_FORM_HALF_WIDTH
    if eps > 0:
        half = min(math.pi / (2.0 * eps), half)
    return make_grid(-half, half, n)


def normal_form_sl(eps: float, grid: Grid) -> SturmLiouvilleProblem:
    """-y'' + (1 - eps^4/4)(tan(eps x)/eps)^2 y = mu y on a `normal_form_grid`.

    c = w = 1; the potential is x^2 at eps = 0.
    """
    x = grid.points
    tan_x = np.tan(eps * x) / eps if eps > 0 else x
    e2 = eps * eps
    q = (1.0 - 0.25 * e2 * e2) * tan_x * tan_x
    if eps > 0 and grid.p_max >= math.pi / (2.0 * eps):
        # The end nodes are the exact Dirichlet ends, where q is infinite
        # (np.tan gives about 1e16). `discretize` drops those rows, but the
        # Shooter's spline and its first RK4 step still read them, so they
        # take their neighbours' value.
        q[0], q[-1] = q[1], q[-2]
    return SturmLiouvilleProblem(
        c=constant(grid, 1.0), q=SampledFunction(grid, q), w=constant(grid, 1.0)
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
