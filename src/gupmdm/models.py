"""Deformed-oscillator and Swanson models as one Sturm-Liouville family.

A model is tau, three constants (G, delta, C) and its own map between E and
the generalized eigenvalue lam. With u = 1 + tau p^2 and W = u^(1 + delta/tau)
(exp(delta p^2) at tau = 0), each is the momentum-space problem `p_space_sl`

    -(W phi')' + C p^2 W/(u^2 G) phi = lam W/(u^2 G) phi.

Swanson has G = omega (omega+alpha+beta), delta = (alpha-beta)/G and
C = (omega-alpha-beta)/omega - (omega+alpha-beta) tau; the deformed oscillator
is (G, delta, C) = (1, 0, 1/omega^2). The mass and the effective potential are
read off the SL problem (`SturmLiouvilleProblem.mass`, `.effective_potential`);
the equation divided by W is the raw ODE (`ModelParams.raw_residual`).

The constants also give one Liouville normal form (`normal_form`,
`normal_form_sl`): with (S, B, k^2) = (G[C + G delta (delta+tau)], G delta,
tau G), Q = k^4/4 + S and eps = k Q^(-1/4), every model and tau becomes

    -y'' + (1 - eps^4/4) (tan(eps x)/eps)^2 y = mu y,  |x| < pi/(2 eps),

on the whole line at eps = 0, with lam = B + sqrt(Q) mu and exact levels
mu_n = (2n+1)(1 + eps^2/2) + eps^2 n^2. Here x = Q^(1/4) rho, rho the Liouville
variable arctan(sqrt(tau) p)/sqrt(tau G), and phi = (c w)^(-1/4) y. Its ground
state is R = cos^kappa(eps x), kappa = 1/2 + 1/eps^2, at mu_0 = 1 + eps^2/2; with
y = R g it is -(R^2 g')' = (mu - mu_0) R^2 g, shape invariant (Cooper, Khare &
Sukhatme, Phys. Rep. 251, 267 (1995)), the form `solver.Shooter` integrates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    Grid,
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    finite_difference,
    make_grid,
)


def _check_square(name: str, x: float) -> None:
    """ValueError naming the parameter when x**2 overflows a float."""
    if math.isinf(x * x):
        raise ValueError(f"{name}^2 overflows, got {name} = {x:g}")


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

    def exact_levels(self, k: int) -> np.ndarray:
        """The normal form's k lowest levels mu_n = (2n+1)(1 + eps^2/2) + eps^2 n^2
        (Kempf, Mangano & Mann, Phys. Rev. D 52, 1108 (1995)), n = 0..k-1."""
        e2 = self.eps2
        n = np.arange(k, dtype=float)
        return (2.0 * n + 1.0) * (1.0 + 0.5 * e2) + e2 * n * n

    def exact_eigenvalue(self, n: int) -> float:
        """lam_n from `exact_levels`' mu_n."""
        return self.eigenvalue(float(self.exact_levels(n + 1)[n]))


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


class ModelParams:
    """Base of both models: a frozen dataclass with `omega` > 0, `tau` >= 0, `big_g`,
    `delta`, `big_c` and `energy_from_eigenvalue` / `eigenvalue_from_energy`."""

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")
        _check_square("omega", self.omega)

    def sl(self, grid: Grid) -> SturmLiouvilleProblem:
        return p_space_sl(self, grid)

    def raw_residual(self, phi: SampledFunction, lam: float) -> SampledFunction:
        """Pointwise defect phi'' + a1 phi' - (a0P - lam a0E) phi of the raw ODE.

        a1 = 2 (tau + delta) p/u = W'/W, a0E = 1/(u^2 G) and a0P = C p^2/(u^2 G):
        the SL equation divided by W, so W times this defect is `sl(grid).residual`
        up to the stencil error of W' there (to rounding for the oscillator's
        W = u). For the oscillator it is Kempf-Mangano-Mann's
        phi'' + 2 tau p/u phi' = (mu^2 p^2 - lam)/u^2 phi.
        """
        p = phi.grid.points
        u = 1.0 + self.tau * p * p
        a1 = 2.0 * (self.tau + self.delta) * p / u
        a0E = 1.0 / u**2 / self.big_g
        a0P = self.big_c * p * p / u**2 / self.big_g
        v, h = phi.values, phi.grid.h
        return SampledFunction._owned(phi.grid, finite_difference(v, h, 2)
                                      + a1 * finite_difference(v, h, 1) - (a0P - lam * a0E) * v)

    def normal_form(self) -> NormalForm:
        """S = G[C + G delta (delta + tau)], B = G delta, k^2 = tau G.

        The Liouville map phi = (cw)^(-1/4) y with cw = (1+tau p^2)^(2 delta/tau)/G
        adds G delta [1 + (delta/tau + 1) tan^2(k rho)] to q/w = C tan^2(k rho)/tau.
        """
        g, d = self.big_g, self.delta
        return _normal_form(self.tau, g * (self.big_c + g * d * (d + self.tau)),
                            g * d, self.tau * g)

    def exact_energy(self, n: int) -> float:
        """Closed-form E_n from the normal form's exact levels."""
        return self.energy_from_eigenvalue(self.normal_form().exact_eigenvalue(n))


@dataclass(frozen=True)
class GupOscillatorParams(ModelParams):
    """Deformed harmonic oscillator, (G, delta, C) = (1, 0, 1/omega^2);
    exact_energy is the Kempf-Mangano-Mann spectrum."""

    omega: float
    tau: float = 0.0

    big_g = 1.0
    delta = 0.0

    def __post_init__(self):
        super().__post_init__()
        _check_square("1/omega", self.mu)

    @property
    def mu(self) -> float:
        return 1.0 / self.omega

    @property
    def big_c(self) -> float:
        """C = 1/omega^2 = mu * mu."""
        return self.mu * self.mu

    def energy_from_eigenvalue(self, lam: float) -> float:
        """E from the generalized eigenvalue lam = 2E/omega^2."""
        return lam * self.omega**2 / 2.0

    def eigenvalue_from_energy(self, energy: float) -> float:
        """lam = 2E/omega^2, the inverse of energy_from_eigenvalue."""
        return 2.0 * energy / self.omega**2


@dataclass(frozen=True)
class SwansonParams(ModelParams):
    """Non-Hermitian Swanson oscillator; (n + 1/2) omega_bar at tau = 0."""

    omega: float
    alpha: float
    beta: float
    tau: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        bar2 = self.omega**2 - 4.0 * self.alpha * self.beta
        for name, x in (("omega^2 - 4*alpha*beta", bar2),
                        ("omega*(omega+alpha+beta)", self.big_g)):
            if not x > 0:
                raise ValueError(f"need {name} > 0")
            if x < sys.float_info.min:  # subnormal: most of its bits are lost
                raise ValueError(f"{name} = {x:g} is subnormal at omega = {self.omega:g}")

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


# Model name -> params class. `sl` looks `p_space_sl` up at call time, so
# patching that module attribute reaches calls made through here.
MODELS = {"gup-oscillator": GupOscillatorParams, "swanson": SwansonParams}


class WeightOverflowError(ValueError):
    """A p-space coefficient c = W, q or w is not finite on the grid."""

    def __init__(self, p_at: float, tau: float):
        self.p_at = p_at
        super().__init__(
            f"the p-space coefficients are not finite at p = {p_at:g}, tau = {tau:g}")


def p_space_sl(params: ModelParams, grid: Grid) -> SturmLiouvilleProblem:
    """Self-adjoint form of the model's eigenvalue equation in momentum p.

    c = W, q = C p^2 W/(u^2 G), w = W/(u^2 G): the raw ODE times the
    integrating factor W. For the oscillator (W = u) that is
    -( (1+tau p^2) phi' )' + mu^2 p^2/(1+tau p^2) phi = lam phi/(1+tau p^2).
    W/u is formed first and u^2 never: the oscillator's c and w are u and 1/u
    exactly, and u^2 cannot overflow. WeightOverflowError names the first p
    where c, q or w is not finite.
    """
    p = grid.points
    tau = params.tau
    with np.errstate(all="ignore"):
        u = 1.0 + tau * p * p
        c = u ** (1.0 + params.delta / tau) if tau > 0 else np.exp(params.delta * p * p)
        w_u = c / u
        q = params.big_c * p * p / u * w_u / params.big_g
        w = w_u / u / params.big_g
    bad = ~(np.isfinite(c) & np.isfinite(q) & np.isfinite(w))
    if np.any(bad):
        raise WeightOverflowError(float(p[np.argmax(bad)]), tau)
    return SturmLiouvilleProblem(
        c=SampledFunction._owned(grid, c), q=SampledFunction._owned(grid, q),
        w=SampledFunction._owned(grid, w))


# Both models build with `p_space_sl`; these names stay for existing callers.
gup_oscillator_sl = swanson_sl = p_space_sl


def normal_form_grid(eps: float, n: int) -> Grid:
    """n points on the box {log R >= -72} of the ground state R = cos^kappa(eps x),
    [-X, X] with sin^2(eps X) = 1 - exp(-144/kappa): X = 12 at eps = 0, short of
    pi/(2 eps) where kappa is large, pi/(2 eps) to rounding where it is small.

    The one box of both solvers, the matrix's and `solver.Shooter`'s.
    """
    a = 144.0 * eps * eps / ground_level(eps)
    half = math.asin(math.sqrt(-math.expm1(-a))) / eps if a > 0 else 12.0
    return make_grid(-half, half, n)


def normal_form_sl(eps: float, grid: Grid) -> SturmLiouvilleProblem:
    """-y'' + (1 - eps^4/4)(tan(eps x)/eps)^2 y = mu y on a `normal_form_grid`.

    c = w = 1; the potential is x^2 at eps = 0. Where kappa is small the box is
    the whole interval to rounding, and q at its end nodes, the poles, is about
    (1e16/eps)^2; `discretize` drops those rows.
    """
    x = grid.points
    tan_x = np.tan(eps * x) / eps if eps > 0 else x
    e2 = eps * eps
    q = (1.0 - 0.25 * e2 * e2) * tan_x * tan_x
    return SturmLiouvilleProblem(
        c=constant(grid, 1.0), q=SampledFunction._owned(grid, q), w=constant(grid, 1.0))


def ground_level(eps: float) -> float:
    """mu_0 = 1 + eps^2/2, the normal form's lowest level."""
    return 1.0 + 0.5 * eps * eps


def ground_state_sq(eps: float, x: np.ndarray) -> np.ndarray:
    """R^2 = cos^(2 kappa)(eps x) at the points x, kappa = 1/2 + 1/eps^2; 0 at an exact end.

    2 log R = kappa log1p(-z), z = sin^2(eps x), is summed as mu_0 s^2 log1p(-z)/z
    with s = sin(eps x)/eps: no 1/eps^2 overflows, and at eps = 0 it is -x^2.
    """
    sn = np.sin(eps * x)
    s, z = (sn / eps, sn * sn) if eps > 0 else (x, np.zeros_like(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(z > 0.0, np.log1p(-z) / z, -1.0)
    return np.exp(ground_level(eps) * s * s * ratio)

