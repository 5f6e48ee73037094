"""Deformed-oscillator eigenproblems as momentum-dependent-mass SL problems."""

__version__ = "0.1.0"

from .core import (
    Grid,
    SampledFunction,
    Spectrum,
    SturmLiouvilleProblem,
    derivative,
    make_grid,
    sample,
    weighted_inner_product,
)
from .models import (
    GupOscillatorParams,
    SwansonParams,
    gup_oscillator_raw,
    gup_oscillator_sl,
    swanson_sl,
)
from .solver import (
    Shooter,
    discretize,
    eigen_solve,
    richardson,
    residual,
    shooting_eigenvalue,
    solve_sl,
)

__all__ = [
    "Grid",
    "SampledFunction",
    "Shooter",
    "Spectrum",
    "SturmLiouvilleProblem",
    "GupOscillatorParams",
    "SwansonParams",
    "derivative",
    "discretize",
    "eigen_solve",
    "gup_oscillator_raw",
    "gup_oscillator_sl",
    "make_grid",
    "residual",
    "richardson",
    "sample",
    "shooting_eigenvalue",
    "solve_sl",
    "swanson_sl",
    "weighted_inner_product",
]
