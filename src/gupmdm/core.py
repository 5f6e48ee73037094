"""Grids, sampled functions, Sturm-Liouville problems and weighted inner products.

Everything in here is immutable after construction, and operations are pure
functions. The one deferred value is `Spectrum.eigenfunctions`: computed on
first read, then cached, so a caller that reads only the eigenvalues keeps no
eigenvectors (a seeded solve, as each grid of `gupmdm solve` is, computes k
of them to certify its eigenvalues, and keeps none). Its computation is
deterministic, so values can still be shared freely across threads.

Every `SampledFunction` holds a finite, read-only float64 array of length n.
An array from the caller is copied (`SampledFunction(grid, values)`,
`sample`), so a later write to it changes nothing. The package's own results
(the arithmetic, `derivative`, `constant`, residuals and the model builders)
are fresh arrays nothing else holds, and are wrapped read-only without a copy
(`SampledFunction._owned`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class GridMismatchError(ValueError):
    """Two sampled functions do not live on the same grid."""


class SolverError(RuntimeError):
    """An eigensolver failed; `gupmdm.solver` raises it, `gupmdm.cli` maps it to exit 3."""


@dataclass(frozen=True)
class Grid:
    """Uniform momentum lattice p_i = p_min + i*h, i = 0..n-1.

    On a box centred on 0 (p_min == -p_max) the right half is the mirror
    image of the left, p_(n-1-i) = -p_i exactly, with p = 0.0 at the centre
    of an odd n: an even function then samples to a palindromic array.
    """

    p_min: float
    p_max: float
    n: int

    @property
    def h(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        pts = self.p_min + self.h * np.arange(self.n)
        if self.p_min == -self.p_max:
            half = self.n // 2
            pts[self.n - half:] = -pts[half - 1::-1]
            if self.n % 2:
                pts[half] = 0.0
        pts.flags.writeable = False
        return pts

    def refined(self) -> "Grid":
        """Grid with halved spacing (same endpoints, 2n-1 points)."""
        return Grid(self.p_min, self.p_max, 2 * self.n - 1)


def make_grid(p_min: float, p_max: float, n: int) -> Grid:
    if not math.isfinite(p_max - p_min):
        raise ValueError(f"grid bounds and their span must be finite, got [{p_min}, {p_max}]")
    if not p_min < p_max:
        raise ValueError(f"need p_min < p_max, got [{p_min}, {p_max}]")
    if n < 3:
        raise ValueError(f"need at least 3 grid points, got {n}")
    return Grid(float(p_min), float(p_max), int(n))


def _check_values(grid: Grid, vals: np.ndarray) -> None:
    if vals.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("sampled values must be finite")


@dataclass(frozen=True)
class SampledFunction:
    """Real-valued function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)   # a copy: the caller keeps its array
        _check_values(self.grid, vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _owned(cls, grid: Grid, values: np.ndarray) -> "SampledFunction":
        """Wrap a fresh float64 array the package has just computed, without a copy.

        No other reference to `values` may exist: it is made read-only in
        place. The checks are the public constructor's.
        """
        _check_values(grid, values)
        values.flags.writeable = False
        self = object.__new__(cls)
        vars(self).update(grid=grid, values=values)
        return self

    # Pointwise algebra; scalars or same-grid functions.
    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, SampledFunction):
            require_same_grid(self, other)
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return SampledFunction._owned(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return SampledFunction._owned(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return SampledFunction._owned(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return SampledFunction._owned(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return SampledFunction._owned(self.grid, self.values / self._coerce(other))

    def __rtruediv__(self, other):
        return SampledFunction._owned(self.grid, self._coerce(other) / self.values)

    def __neg__(self):
        return SampledFunction._owned(self.grid, -self.values)


def sample(grid: Grid, fn: Callable[[np.ndarray], np.ndarray]) -> SampledFunction:
    """Sample a vectorized callable on the grid."""
    return SampledFunction(grid, fn(grid.points))


def constant(grid: Grid, value: float) -> SampledFunction:
    return SampledFunction._owned(grid, np.full(grid.n, float(value)))


def require_same_grid(*fns: SampledFunction) -> Grid:
    grid = fns[0].grid
    for f in fns[1:]:
        if f.grid is not grid and f.grid != grid:
            raise GridMismatchError(f"grid mismatch: {f.grid} vs {grid}")
    return grid


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-(c phi')' + q phi = lambda w phi with Dirichlet ends.

    c > 0 (ellipticity) and w > 0 (positive spectral weight) everywhere.

    `estimates`, where the problem's builder knows its levels in closed form
    (`models.p_space_sl`), maps k to k ascending estimates of the lowest
    eigenvalues, or to None where it has none; `solver.solve_sl` seeds its
    solve with them when its caller passes no `near`. They change the cost
    of a solve, not its levels, so they take no part in equality.
    """

    c: SampledFunction
    q: SampledFunction
    w: SampledFunction
    estimates: Callable[[int], np.ndarray | None] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        require_same_grid(self.c, self.q, self.w)
        if np.any(self.c.values <= 0):
            raise ValueError("diffusion coefficient c must be positive")
        if np.any(self.w.values <= 0):
            raise ValueError("spectral weight w must be positive")

    @property
    def grid(self) -> Grid:
        return self.c.grid

    @property
    def mass(self) -> SampledFunction:
        """Momentum-dependent mass M = 1/c of the Schroedinger reading."""
        return 1.0 / self.c

    def effective_potential(self, lam: float) -> SampledFunction:
        """V_eff - Lambda = q - lam w, the potential at spectral parameter lam."""
        return self.q - lam * self.w

    def residual(self, phi: SampledFunction, lam: float) -> SampledFunction:
        """Pointwise defect (c phi')' - (q - lam w) phi at spectral parameter lam.

        The product rule is expanded as c phi'' + c' phi' with the `derivative`
        stencils, in one array expression, so for polynomial c the defect is
        the raw ODE's defect (`models.ModelParams.raw_residual`) times the
        integrating factor, to rounding.
        """
        grid = require_same_grid(self.c, phi)
        v, c, h = phi.values, self.c.values, grid.h
        return SampledFunction._owned(grid, (
            c * finite_difference(v, h, 2)
            + finite_difference(c, h, 1) * finite_difference(v, h, 1)
            - (self.q.values - lam * self.w.values) * v))


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with weight-normalized eigenfunctions.

    The eigenvalues are checked at construction. `compute_eigenfunctions`
    runs on the first read of `eigenfunctions`, whose result is cached; until
    then the spectrum holds no eigenvectors.
    """

    eigenvalues: np.ndarray
    compute_eigenfunctions: Callable[[], Sequence[SampledFunction]] = field(
        repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        if vals.size > 1 and np.any(np.diff(vals) <= 0):
            raise ValueError("eigenvalues must be strictly ascending")

    @cached_property
    def eigenfunctions(self) -> tuple[SampledFunction, ...]:
        funcs = tuple(self.compute_eigenfunctions())
        if len(funcs) != self.eigenvalues.size:
            raise ValueError("one eigenfunction per eigenvalue required")
        return funcs


def derivative(f: SampledFunction, order: int = 1) -> SampledFunction:
    """Second-order finite-difference derivative (order 1 or 2).

    Central stencils in the interior, one-sided second-order stencils at
    the two endpoints. Each stencil is summed in an order its mirror image
    repeats, so on a `Grid` centred on 0 an even or odd f has an exactly odd
    or even derivative.
    """
    return SampledFunction._owned(f.grid, finite_difference(f.values, f.grid.h, order))


def finite_difference(v: np.ndarray, h: float, order: int) -> np.ndarray:
    """`derivative`'s stencils on the values v at spacing h, as a fresh array.

    For residuals written as one array expression; the values are not
    checked for finiteness here.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if v.size < 5:
        raise ValueError("derivative needs at least 5 grid points")
    out = np.empty_like(v)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    else:
        out[1:-1] = (v[2:] + v[:-2] - 2.0 * v[1:-1]) / (h * h)
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    return out


def count_sign_changes(values: np.ndarray) -> int:
    """Number of sign changes among the nonzero values."""
    negative = np.signbit(values[values != 0.0])
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def inner_slice(n: int) -> slice:
    """Index slice selecting the central 80% of n grid points."""
    margin = max(int(round(n * (1.0 - 0.8) / 2.0)), 1)
    return slice(margin, n - margin)


def inner_relative_norm(defect: SampledFunction, f: SampledFunction) -> float:
    """L2 ratio ||defect|| / ||f|| over `inner_slice`; ||defect|| where f vanishes there."""
    sl = inner_slice(require_same_grid(defect, f).n)
    num = float(np.linalg.norm(defect.values[sl]))
    den = float(np.linalg.norm(f.values[sl]))
    return num / den if den else num
