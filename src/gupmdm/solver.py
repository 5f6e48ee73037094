"""Eigensolvers for Sturm-Liouville problems.

Two independent routes: a conservative finite-difference discretization
solved as a symmetric tridiagonal generalized eigenproblem, and two-sided
RK4 shooting. Shooting finds level n as the root of the Pruefer angle sum
Theta(lambda) = (n + 1) pi, one monotone function for every level, memoized
on a `Shooter`; each sweep applies 2x2 RK4 step matrices built with numpy.
Started from a matrix eigenpair, the root search takes a Newton step with
the slope of Theta read off the eigenfunction, then secant steps; without
a start, or when those steps stray, it brackets the level from the angles
already computed and polishes it with Brent's method. Richardson
extrapolation and residual diagnostics round out the toolbox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .core import (
    Grid,
    SampledFunction,
    Spectrum,
    SturmLiouvilleProblem,
    inner_slice,
    require_same_grid,
    weighted_inner_product,
)
from .models import RawOdeCoefficients, raw_residual_values


class SolverError(RuntimeError):
    pass


class BracketError(SolverError):
    """Shooting found no bracket for a level, or its root misses the target angle."""


@dataclass(frozen=True)
class DiscretizedPair:
    """Symmetric tridiagonal A and positive diagonal B on interior points."""

    diag: np.ndarray        # main diagonal of A, length n-2
    offdiag: np.ndarray     # sub/super diagonal of A, length n-3
    b_diag: np.ndarray      # diagonal of B, length n-2
    problem: SturmLiouvilleProblem


def discretize(slp: SturmLiouvilleProblem) -> DiscretizedPair:
    """Conservative 3-point stencil with midpoint-averaged c; Dirichlet rows dropped."""
    c = slp.c.values
    q = slp.q.values
    w = slp.w.values
    h = slp.grid.h
    c_half = 0.5 * (c[:-1] + c[1:])          # c at i+1/2, length n-1
    diag = (c_half[:-1] + c_half[1:]) / h**2 + q[1:-1]
    offdiag = -c_half[1:-1] / h**2
    return DiscretizedPair(diag=diag, offdiag=offdiag, b_diag=w[1:-1].copy(),
                           problem=slp)


def eigen_solve(pair: DiscretizedPair, k: int) -> Spectrum:
    """Lowest k generalized eigenpairs of A phi = lam B phi.

    Symmetrized with B^(-1/2) and handed to a symmetric tridiagonal
    eigensolver; eigenfunctions are normalized to integral phi^2 w dp = 1
    (trapezoid rule) with the largest-magnitude component made positive
    after fixing the ground state's overall sign.
    """
    m = pair.diag.size
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}, got {k}")
    s = 1.0 / np.sqrt(pair.b_diag)
    diag_t = pair.diag * s * s
    off_t = pair.offdiag * s[:-1] * s[1:]
    try:
        vals, vecs = eigh_tridiagonal(
            diag_t, off_t, select="i", select_range=(0, k - 1)
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"tridiagonal eigensolver failed: {exc}") from exc

    slp = pair.problem
    h = slp.grid.h
    funcs = []
    for j in range(k):
        phi = np.zeros(slp.grid.n)
        phi[1:-1] = s * vecs[:, j]
        # vecs columns are unit vectors, so trapz(phi^2 w) = h exactly.
        phi /= math.sqrt(h)
        i_max = 1 + int(np.argmax(np.abs(phi[1:-1])))
        if phi[i_max] < 0:
            phi = -phi
        funcs.append(SampledFunction(slp.grid, phi))
    try:
        return Spectrum(eigenvalues=vals, eigenfunctions=tuple(funcs))
    except ValueError as exc:  # a grid too coarse to resolve the lowest levels
        raise SolverError(str(exc)) from exc


def solve_sl(slp: SturmLiouvilleProblem, k: int) -> Spectrum:
    """Convenience wrapper: discretize then eigensolve."""
    return eigen_solve(discretize(slp), k)


def richardson(e_h: float, e_h2: float) -> float:
    """Second-order Richardson extrapolation from spacings h and h/2.

    Works elementwise on arrays of eigenvalues as well as on floats.
    """
    return (4.0 * e_h2 - e_h) / 3.0


def solve_extrapolated(
    build: Callable[[Grid], SturmLiouvilleProblem], grid: Grid, k: int
) -> tuple[np.ndarray, SturmLiouvilleProblem, Spectrum]:
    """Lowest k eigenvalues of build(grid) and build(grid.refined()), extrapolated.

    Returns the Richardson values with the fine-grid problem and its spectrum.
    """
    coarse = solve_sl(build(grid), k)
    fine_slp = build(grid.refined())
    fine = solve_sl(fine_slp, k)
    return richardson(coarse.eigenvalues, fine.eigenvalues), fine_slp, fine


def residual(coeffs: RawOdeCoefficients, phi: SampledFunction, lam: float) -> float:
    """Max-norm of the raw ODE defect on the inner 80% of the grid."""
    r = raw_residual_values(coeffs, phi, lam)
    return float(np.max(np.abs(r.values[inner_slice(phi.grid.n)])))


@dataclass(frozen=True)
class ShootingReport:
    """One shooting level.

    `mismatch` is the final angle defect |Theta(eigenvalue) - (n+1) pi| in
    radians; `iterations` counts the full-grid sweeps this call made.
    """

    eigenvalue: float
    mismatch: float
    iterations: int


# Expansion steps a bracket search may take before it raises BracketError.
MAX_BRACKET_STEPS = 60
# Largest angle defect |Theta(lam) - (n+1) pi| accepted at a returned root.
ANGLE_TOL = 1e-6
# A secant expansion step aims this many times as far as the predicted root.
_OVERSHOOT = 1.25
# Newton and secant steps a seeded root search may take before it falls back.
_SEED_STEPS = 6


def _rk4_step(u, v, h, g0, gm, g1, ic0, icm, ic1):
    """One classical RK4 step of u' = v/c, v' = g u with g = q - lam w.

    Works on floats and on arrays of steps; 0, m, 1 mark start, midpoint, end.
    """
    h2 = 0.5 * h
    k1u = v * ic0
    k1v = g0 * u
    k2u = (v + h2 * k1v) * icm
    k2v = gm * (u + h2 * k1u)
    k3u = (v + h2 * k2v) * icm
    k3v = gm * (u + h2 * k2u)
    k4u = (v + h * k3v) * ic1
    k4v = g1 * (u + h * k3u)
    h6 = h / 6.0
    return (u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u),
            v + h6 * (k1v + 2.0 * (k2v + k3v) + k4v))


def _half_angle(u: float, v: float, nodes: int) -> float:
    """Continuous angle of (u, v) after `nodes` sign changes of u, from u = 0+.

    Where u < 0, (u, v) -> (-u, -v) turns the angle by pi, so atan2 lies in
    [0, pi] and measures the part past the last node. Its value pi (u rounded
    to 0 just before a sign change) equals the next node's nodes * pi, so
    rounding never makes the angle jump by pi, as atan2 mod pi would.
    """
    if u < 0.0:
        u, v = -u, -v
    return nodes * math.pi + math.atan2(u, v)


class Shooter:
    """Two-sided RK4 shooting on one Sturm-Liouville problem.

    Integrates the first-order system (u, v) = (phi, c phi') with fixed-step
    RK4, coefficients cubic-spline interpolated to step midpoints. The system
    is linear, so for a given lambda each RK4 step is a 2x2 matrix; a sweep
    builds all its step matrices at once with numpy and then only applies
    them in a loop over Python floats.

    `angle(lam)` is the Pruefer angle sum Theta at the matching node, memoized
    per instance, so every level solved on one Shooter reuses the sweeps of
    the levels before it.
    """

    _CAP = 1e100

    def __init__(self, slp: SturmLiouvilleProblem):
        grid = slp.grid
        pts = grid.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        c, q, w = slp.c.values, slp.q.values, slp.w.values
        self.grid = grid
        self.h = grid.h
        self.n = grid.n
        spline = CubicSpline(pts, np.column_stack([c, q, w]))   # one for all three
        c_m, self.q_m, self.w_m = spline(mids).T.copy()          # contiguous rows
        self.ic_n = 1.0 / c
        self.ic_m = 1.0 / c_m
        self.q_n = q
        self.w_n = w
        self.weight = slp.w
        qw = q / w
        self.qw_min = float(np.min(qw))
        # Matching index: near the potential minimum, clamped to the middle half.
        i_min = int(np.argmin(qw))
        self.match = min(max(i_min, self.n // 4), 3 * self.n // 4)
        self._angles: dict[float, float] = {}

    @property
    def sweeps(self) -> int:
        """Full-grid sweeps made so far: one per distinct lambda in the memo."""
        return len(self._angles)

    def step_matrices(self, lam: float, start: int, stop: int):
        """Entries (a, b, c, d) of the step matrices [[a, b], [c, d]] that
        carry (u, v) from node `start` to node `stop`, in stepping order."""
        g = self.q_n - lam * self.w_n
        lo, hi = sorted((start, stop))
        mid, i0, i1, h = slice(lo, hi), slice(lo, hi), slice(lo + 1, hi + 1), self.h
        if stop < start:
            i0, i1, h = i1, i0, -h
        # Stepping the basis states (1, 0) and (0, 1) gives the two columns.
        uu, vv = _rk4_step(*np.eye(2)[:, :, None], h,
                           g[i0], self.q_m[mid] - lam * self.w_m[mid], g[i1],
                           self.ic_n[i0], self.ic_m[mid], self.ic_n[i1])
        order = slice(None, None, 1 if h > 0 else -1)
        return uu[0, order], uu[1, order], vv[0, order], vv[1, order]

    def _sweep(self, lam: float, start: int, stop: int):
        """Integrate from node `start` to node `stop` (either direction).

        Returns (u, v, nodes): the final scaled state and the number of
        sign changes of u along the way.
        """
        u, v = 0.0, (1.0 if stop > start else -1.0)
        nodes = 0
        negative = None          # sign of the last nonzero u, None before the first
        cap, ncap = self._CAP, -self._CAP
        for a, b, c, d in zip(*(m.tolist() for m in self.step_matrices(lam, start, stop))):
            u, v = a * u + b * v, c * u + d * v
            if u < 0.0:
                if negative is False:
                    nodes += 1
                negative = True
            elif u > 0.0:
                if negative:
                    nodes += 1
                negative = False
            if u > cap or u < ncap or v > cap or v < ncap:
                mag = abs(u) + abs(v)
                u /= mag
                v /= mag
        return u, v, nodes

    def _angle(self, lam: float) -> float:
        """Theta(lam) = theta_L + theta_R at the matching node, one full sweep.

        theta_L is the Pruefer angle atan2(u, v) of the left solution, theta_R
        that of the right solution mirrored in v, atan2(u, -v); both are 0 at
        their own end. Theta is continuous and increasing in lambda, and
        Theta(lambda_n) = (n + 1) pi.
        """
        u_l, v_l, n_l = self._sweep(lam, 0, self.match)
        u_r, v_r, n_r = self._sweep(lam, self.n - 1, self.match)
        return _half_angle(u_l, v_l, n_l) + _half_angle(u_r, -v_r, n_r)

    def angle(self, lam: float) -> float:
        """Theta(lam), memoized: a repeated lambda costs no sweep."""
        theta = self._angles.get(lam)
        if theta is None:
            theta = self._angles[lam] = self._angle(lam)
        return theta

    def eigen_slope(self, phi: SampledFunction) -> float:
        """dTheta/dlambda at an eigenvalue, from its eigenfunction phi.

        Pruefer's identity gives dtheta/dlambda = (1/r^2) int w u^2 on each
        side of the matching node m, with r^2 = u^2 + (c u')^2 at m. At an
        eigenvalue both sides are phi, so the sum is
        int w phi^2 / (phi_m^2 + (c_m phi'_m)^2) at any scale of phi, with
        phi'_m a central difference; inf where phi and phi' vanish at m.
        """
        norm = weighted_inner_product(phi, phi, self.weight)
        m, y = self.match, phi.values
        dy = (y[m + 1] - y[m - 1]) / (2.0 * self.h)
        r2 = float(y[m] ** 2 + (dy / self.ic_n[m]) ** 2)
        return norm / r2 if r2 > 0.0 else math.inf

    def bracket(self, target: float) -> tuple[float, float]:
        """(lo, hi) with Theta(lo) <= target < Theta(hi), from the memo if it can.

        Theta(min q/w) < pi, since q - lam w >= 0 there keeps both solutions
        from turning, so that point is always a lower end. While no memoized
        angle lies above `target`, a secant through the two highest points
        below it predicts the crossing and the next trial aims _OVERSHOOT
        times as far. A trial reaches at most twice as far from min q/w as
        the highest point below, plus one gap; with no rising secant it
        takes that cap.
        """
        base = self.qw_min
        if self.angle(base) > target:
            raise BracketError(f"angle {self.angle(base):.6g} at min(q/w) = {base:g} "
                               f"already exceeds the target {target:.6g}")
        gap = max(1.0, abs(base) * 0.5)
        for _ in range(MAX_BRACKET_STEPS):
            hi = min((lam for lam, th in self._angles.items() if th > target),
                     default=math.inf)
            below = sorted((lam, th) for lam, th in self._angles.items()
                           if th <= target and lam < hi)
            lam2, th2 = below[-1]
            if hi < math.inf:
                return lam2, hi
            trial = 2.0 * lam2 - base + gap
            if len(below) > 1:
                lam1, th1 = below[-2]
                slope = (th2 - th1) / (lam2 - lam1)
                if slope > 0.0:
                    trial = min(trial, lam2 + _OVERSHOOT * (target - th2) / slope)
            self.angle(trial)
        raise BracketError(f"no angle above {target:.6g} in [{base:g}, {trial:g}] "
                           f"after {MAX_BRACKET_STEPS} expansion steps")


def _seeded_root(shooter: Shooter, target: float, lam0: float,
                 phi: SampledFunction, tol: float) -> float | None:
    """Root of Theta - target by a Newton step from lam0, then secant steps.

    The first slope is `Shooter.eigen_slope(phi)`, later ones the secant
    through the last two angles. Returns the last lambda swept once a step
    is at most `tol`, or None (fall back) when a slope is not positive and
    finite, a step leaves the interval the memoized angles bracket, or
    _SEED_STEPS steps do not converge.
    """
    lam = float(lam0)
    if not math.isfinite(lam):
        return None
    theta = shooter.angle(lam)
    slope = shooter.eigen_slope(phi)
    for _ in range(_SEED_STEPS):
        if not 0.0 < slope < math.inf:
            return None
        step = (target - theta) / slope
        if abs(step) <= tol:
            return lam
        memo = shooter._angles.items()
        lo = max((x for x, th in memo if th <= target), default=-math.inf)
        hi = min((x for x, th in memo if th > target), default=math.inf)
        new = lam + step
        if not lo < new < hi:
            return None
        theta_new = shooter.angle(new)
        slope = (theta_new - theta) / (new - lam)
        lam, theta = new, theta_new
    return None


def shooting_eigenvalue(
    problem: SturmLiouvilleProblem | Shooter,
    n: int,
    rel_tol: float = 1e-10,
    start: tuple[float, SampledFunction] | None = None,
) -> ShootingReport:
    """n-th eigenvalue by two-sided shooting on the Pruefer angle.

    Level n is the root of Theta(lam) = (n + 1) pi. With `start` = (lam0,
    phi), a matrix estimate of level n and its eigenfunction, the search
    sweeps at lam0, takes a Newton step with `Shooter.eigen_slope(phi)` and
    then secant steps, and stops once a step is at most
    rel_tol * max(1, |lam0|). Without a start, or when that search strays,
    stalls or returns an angle off by more than ANGLE_TOL, `Shooter.bracket`
    finds a bracket, from angles earlier levels on the same Shooter computed
    where it can, and Brent's method polishes the root to `rel_tol`. Theta
    has one root per level, so the start changes the cost, not the level
    found. A `SturmLiouvilleProblem` gets a fresh Shooter; pass one Shooter
    for every level of a problem to share its sweeps.

    Raises BracketError when no bracket is found or the root misses the
    target angle by more than ANGLE_TOL (a jump in Theta, as on a grid too
    coarse for the level). `iterations` counts the full-grid sweeps this
    call made.
    """
    if n < 0:
        raise ValueError(f"eigenvalue index must be >= 0, got {n}")
    shooter = problem if isinstance(problem, Shooter) else Shooter(problem)
    sweeps = shooter.sweeps
    target = (n + 1) * math.pi
    lam = None
    if start is not None:
        lam0, phi = start
        lam = _seeded_root(shooter, target, lam0, phi, rel_tol * max(1.0, abs(lam0)))
    if lam is None or not abs(shooter.angle(lam) - target) <= ANGLE_TOL:
        lo, hi = shooter.bracket(target)
        xtol = rel_tol * max(1.0, abs(lo), abs(hi))
        lam = brentq(lambda x: shooter.angle(x) - target, lo, hi, xtol=xtol)
    defect = abs(shooter.angle(lam) - target)
    if not defect <= ANGLE_TOL:
        raise BracketError(f"level {n}: angle misses {n + 1} pi by {defect:.3g} at "
                           f"lambda = {lam:.12g}; the grid may not resolve it")
    return ShootingReport(eigenvalue=lam, mismatch=defect,
                          iterations=shooter.sweeps - sweeps)
