"""Ordered momentum-dependent-mass kinetic operator and its reduction.

Implements the two-parameter symmetrized kinetic operator
-1/2 [M^a D M^b D M^c + M^c D M^b D M^a] (units with 2*m0 = 1, so constant
mass gives -d^2/dp^2) of von Roos (Phys. Rev. B 27, 7547 (1983)). Every
ordering reduces to -D (1/M) D + V_eff, which is the package's one operator:
`reduced_problem` returns it as the Sturm-Liouville problem c = 1/M,
q = V_eff, w = 1, whose `residual` the `verify vonroos` identity check
evaluates against `vonroos_apply`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    derivative,
    require_same_grid,
)


@dataclass(frozen=True)
class AmbiguityParams:
    """Ordering parameters (a, b, c) with a + b + c = -1 enforced exactly."""

    a: float
    b: float

    @property
    def c(self) -> float:
        return -1.0 - self.a - self.b


def _require_positive(M: SampledFunction) -> None:
    if np.any(M.values <= 0):
        raise ValueError("mass function must be positive everywhere")


def _power(M: SampledFunction, expo: float) -> SampledFunction:
    # M > 0 is checked by the caller, so fractional powers via exp(expo*log M) are safe.
    return SampledFunction(M.grid, np.exp(expo * np.log(M.values)))


def vonroos_apply(
    M: SampledFunction, amb: AmbiguityParams, phi: SampledFunction
) -> SampledFunction:
    """Apply -1/2 [M^a D M^b D M^c + M^c D M^b D M^a] to phi."""
    require_same_grid(M, phi)
    _require_positive(M)

    def ordered(e1: float, e2: float, e3: float) -> SampledFunction:
        inner = derivative(_power(M, e3) * phi, 1)
        return _power(M, e1) * derivative(_power(M, e2) * inner, 1)

    t1 = ordered(amb.a, amb.b, amb.c)
    t2 = ordered(amb.c, amb.b, amb.a)
    return -0.5 * (t1 + t2)


def reduced_problem(
    M: SampledFunction, V: SampledFunction, amb: AmbiguityParams
) -> SturmLiouvilleProblem:
    """-D (1/M) D + V_eff as the SL problem (c, q, w) = (1/M, V_eff, 1).

    V_eff = V + (b+1)/2 * M''/M^2 - [a(a+b+1)+b+1] * M'^2/M^3.
    """
    require_same_grid(M, V)
    _require_positive(M)
    a, b = amb.a, amb.b
    dm, d2m = derivative(M, 1), derivative(M, 2)
    veff = (
        V
        + 0.5 * (b + 1.0) * d2m / (M * M)
        - (a * (a + b + 1.0) + b + 1.0) * dm * dm / (M * M * M)
    )
    return SturmLiouvilleProblem(c=1.0 / M, q=veff, w=constant(M.grid, 1.0))
