"""Eigensolvers for Sturm-Liouville problems.

Two independent routes: a conservative finite-difference discretization
solved as a symmetric tridiagonal generalized eigenproblem, and two-sided
RK4 shooting. Shooting isolates each level by node count, polishes it with
Brent's method on the Wronskian mismatch, and applies precomputed 2x2 RK4
step matrices along the grid. Richardson extrapolation and residual
diagnostics round out the toolbox.
"""

from __future__ import annotations

import functools
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
)
from .models import RawOdeCoefficients, raw_residual_values


class SolverError(RuntimeError):
    pass


class BracketError(SolverError):
    """Eigenvalue bracketing by node count failed."""


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
    eigenvalue: float
    node_count: int
    mismatch: float
    iterations: int


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


class _ShootingIntegrator:
    """Fixed-step RK4 for the first-order system (u, v) = (phi, c phi').

    Coefficients are cubic-spline interpolated to step midpoints. The system
    is linear, so for a given lambda each RK4 step is a 2x2 matrix; a sweep
    builds all its step matrices at once with numpy and then only applies
    them in a loop over Python floats.
    """

    _CAP = 1e100

    def __init__(self, slp: SturmLiouvilleProblem):
        grid = slp.grid
        pts = grid.points
        mids = 0.5 * (pts[:-1] + pts[1:])
        self.h = grid.h
        self.n = grid.n
        self.ic_n = 1.0 / slp.c.values
        self.ic_m = 1.0 / CubicSpline(pts, slp.c.values)(mids)
        self.q_n = slp.q.values
        self.q_m = CubicSpline(pts, slp.q.values)(mids)
        self.w_n = slp.w.values
        self.w_m = CubicSpline(pts, slp.w.values)(mids)
        qw = slp.q.values / slp.w.values
        self.qw_min = float(np.min(qw))
        # Matching index: near the potential minimum, clamped to the middle half.
        i_min = int(np.argmin(qw))
        self.match = min(max(i_min, self.n // 4), 3 * self.n // 4)

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

    def node_count(self, lam: float) -> int:
        """Interior sign changes of the solution shot from the left end."""
        return self._sweep(lam, 0, self.n - 1)[2]

    def wronskian_mismatch(self, lam: float) -> float:
        """Scaled Wronskian defect u_L v_R - u_R v_L at the matching node."""
        u_l, v_l, _ = self._sweep(lam, 0, self.match)
        u_r, v_r, _ = self._sweep(lam, self.n - 1, self.match)
        s_l = max(abs(u_l), abs(v_l))
        s_r = max(abs(u_r), abs(v_r))
        return (u_l * v_r - u_r * v_l) / (s_l * s_r)


def shooting_eigenvalue(
    slp: SturmLiouvilleProblem,
    n: int,
    rel_tol: float = 1e-10,
    max_doublings: int = 60,
) -> ShootingReport:
    """n-th eigenvalue by two-sided shooting with node-count isolation.

    A doubling search upward from min(q/w) raises both ends of [lo, hi],
    then bisection on the node count of the left-shot solution stops as
    soon as N(lo) = n and N(hi) = n + 1, so the bracket holds eigenvalue n
    alone. Brent's method on the Wronskian mismatch at the matching node
    then polishes it to `rel_tol`. If the mismatch has no sign change on
    the bracket, node-count bisection finishes the job instead.

    `iterations` counts full-grid integrations: one per node count and one
    per distinct mismatch evaluation.
    """
    if n < 0:
        raise ValueError(f"eigenvalue index must be >= 0, got {n}")
    integ = _ShootingIntegrator(slp)
    node_evals = 0
    # Memoized: brentq's endpoint calls and the final mismatch cost no sweep.
    mismatch = functools.cache(integ.wronskian_mismatch)

    def nodes(lam: float) -> int:
        nonlocal node_evals
        node_evals += 1
        return integ.node_count(lam)

    # The ground eigenvalue lies above min(q/w), so N(lo) = 0 there; double
    # upward, moving lo up to every point that still has at most n nodes.
    lo = base = integ.qw_min
    n_lo = 0
    gap = max(1.0, abs(base) * 0.5)
    for _ in range(max_doublings):
        hi = base + gap
        n_hi = nodes(hi)
        if n_hi > n:
            break
        lo, n_lo = hi, n_hi
        gap *= 2.0
    else:
        raise BracketError(
            f"no bracket with > {n} nodes found in [{base:g}, {base + gap:g}] "
            f"after {max_doublings} doublings"
        )

    # Bisect on node count until [lo, hi] isolates exactly eigenvalue n.
    while (n_lo, n_hi) != (n, n + 1) and hi - lo > rel_tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        n_mid = nodes(mid)
        if n_mid <= n:
            lo, n_lo = mid, n_mid
        else:
            hi, n_hi = mid, n_mid

    xtol = rel_tol * max(1.0, abs(hi))
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
        lam = brentq(mismatch, lo, hi, xtol=xtol)
    else:
        # No sign change (matching node unluckily placed); fall back to
        # pure node-count bisection, which also converges to eigenvalue n.
        while hi - lo > xtol:
            mid = 0.5 * (lo + hi)
            if nodes(mid) <= n:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)

    return ShootingReport(
        eigenvalue=lam, node_count=n, mismatch=abs(mismatch(lam)),
        iterations=node_evals + mismatch.cache_info().misses,
    )
