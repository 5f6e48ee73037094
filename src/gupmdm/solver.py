"""Eigensolvers for Sturm-Liouville problems.

Two independent routes: a conservative finite-difference discretization
solved as a symmetric tridiagonal generalized eigenproblem (a mirror-symmetric
pencil, folded into its even and odd half blocks; bisection to an absolute
tolerance for the eigenvalues, or, given estimates of them, Rayleigh quotients
of shifted inverse iteration's vectors certified to that tolerance; dstein's
inverse iteration for the eigenvectors only when they are first read), and RK4
shooting on the even Liouville normal form at eps in g = y/R, R its closed-form
ground state, one half-sweep from the box edge to the centre per trial
eigenvalue. Shooting reads only eps, not the matrix's q;
it shares the matrix's box (`models.normal_form_grid`), not its spacing, and
finds level n as the root of the Pruefer angle sum
Theta(lambda) = (n + 1) pi, monotone up to RK4's stability bound and memoized
on a `Shooter`; each sweep applies its RK4 step matrices, polynomials in lambda,
in one banded triangular solve (LAPACK dtbtrs), and returns dTheta/dlambda by
Pruefer's identity. The root search is safeguarded Newton (Numerical Recipes'
rtsafe), started from a matrix eigenvalue where there is one, that takes the
bisection or false position of the bracket of the angles already computed when
a step would leave it or converge slowly. Richardson extrapolation
(`solve_extrapolated`, the one path that solves a grid pair) rounds out the
toolbox; its fine grid is seeded with the coarse grid's levels, and its
coarse grid with whatever estimates the caller has (`gupmdm solve` and
`verify susy` pass the normal form's closed-form levels, and `verify susy` its
partner the original's levels 1..k), so neither grid need bisect; `verify
hermitize` seeds its one solve with Swanson's closed-form levels.

The five LAPACK routines (dstebz, dstein, dgttrf, dgttrs, dtbtrs) come from
scipy's compiled wrapper module `scipy/linalg/_flapack`, loaded on its own: the
wrappers `scipy.linalg.lapack` re-exports, so the numbers are the same, without
the `scipy.linalg` package init, which imports numpy.testing, unittest and
numpy.random and is most of a fresh process's start-up.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import partial
from types import ModuleType
from typing import Callable

import numpy as np
import scipy

from .core import (
    Grid,
    SampledFunction,
    SolverError,
    Spectrum,
    SturmLiouvilleProblem,
    count_sign_changes,
)
from .models import ground_level, ground_state_sq, normal_form_grid


def _load_flapack(directory: str) -> ModuleType:
    """The extension module `_flapack` in `directory`, loaded without its package.

    It is entered in `sys.modules` as `_flapack`, not as
    `scipy.linalg._flapack`, so a later `import scipy.linalg` loads scipy's
    own copy as usual.
    """
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("_flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no LAPACK extension _flapack in {directory}")


# `import scipy` alone does not import scipy.linalg; it sets up the wheel's
# bundled library path where a platform needs one.
_flapack = _load_flapack(os.path.join(os.path.dirname(scipy.__file__), "linalg"))
dstebz, dstein, dtbtrs = _flapack.dstebz, _flapack.dstein, _flapack.dtbtrs
dgttrf, dgttrs = _flapack.dgttrf, _flapack.dgttrs


class BracketError(SolverError):
    """Shooting's root search for a level failed, or its root misses the target angle."""


@dataclass(frozen=True)
class DiscretizedPair:
    """Symmetric tridiagonal A and positive diagonal B on the interior points of `grid`."""

    diag: np.ndarray        # main diagonal of A, length n-2
    offdiag: np.ndarray     # sub/super diagonal of A, length n-3
    b_diag: np.ndarray      # diagonal of B, length n-2
    grid: Grid


def discretize(slp: SturmLiouvilleProblem) -> DiscretizedPair:
    """Conservative 3-point stencil with midpoint-averaged c; Dirichlet rows dropped."""
    c = slp.c.values
    q = slp.q.values
    w = slp.w.values
    h = slp.grid.h
    c_half = 0.5 * (c[:-1] + c[1:])          # c at i+1/2, length n-1
    diag = (c_half[:-1] + c_half[1:]) / h**2 + q[1:-1]
    offdiag = -c_half[1:-1] / h**2
    return DiscretizedPair(diag=diag, offdiag=offdiag, b_diag=w[1:-1].copy(), grid=slp.grid)


# Absolute tolerance of dstebz's bisection. At abstol 0 it stops at ulp * ||T||,
# which grows like 1/h^2, so refining the grid would worsen the eigenvalues
# (Barlow & Demmel, SIAM J. Numer. Anal. 27, 762 (1990)).
ABSTOL = 1e-10


def _fold(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of a palindromic tridiagonal (d, e) of m >= 2
    rows, stacked into m rows joined by a zero off-diagonal.

    A palindromic T has only even and odd eigenvectors (Cantoni & Butler,
    Linear Algebra Appl. 13, 275 (1976)). At m = 2r + 1 the even block is rows
    0..r with the centre coupling times sqrt(2) and the odd block rows 0..r-1;
    at m = 2r both are rows 0..r-1, the last diagonal entry plus (even) or
    minus (odd) the centre coupling.
    """
    r = d.size // 2
    if d.size % 2:
        return (np.concatenate([d[:r + 1], d[:r]]),
                np.concatenate([e[:r - 1], [math.sqrt(2.0) * e[r - 1], 0.0], e[:r - 1]]))
    d_f = np.concatenate([d[:r], d[:r]])
    d_f[r - 1] += e[r - 1]
    d_f[-1] -= e[r - 1]
    return d_f, np.concatenate([e[:r - 1], [0.0], e[:r - 1]])


def _unfold(z: np.ndarray) -> np.ndarray:
    """T's unit eigenvectors from `_fold`'s, the columns of z (each zero
    outside its block): an even block's y maps to
    (y_0, .., y_r-1, [sqrt(2) y_r,] y_r-1, .., y_0) / sqrt(2), an odd block's
    to the same with the mirrored half negated and no centre."""
    m = z.shape[0]
    r = m // 2
    a, b = z[:r] / math.sqrt(2.0), z[m - r:] / math.sqrt(2.0)
    v = np.empty_like(z)
    v[:r] = a + b
    v[m - r:] = (a - b)[::-1]
    if m % 2:
        v[r] = z[r]
    return v


def _polish(d: np.ndarray, e: np.ndarray, near: np.ndarray) -> np.ndarray | None:
    """The k = near.size lowest eigenvalues of `_fold`'s (d, e), ascending, as
    the Rayleigh quotients rho_j of unit vectors z_j from shifted inverse
    iteration at `near`, level j in the even block (its first m - m // 2 rows)
    for even j and the odd block for odd j (`_eigenfunctions`); or None.

    Each block takes one factorization (dgttrf) of its c copies, copy j
    shifted by its seed and joined by zero couplings, and up to four solves
    (dgttrs) from a vector of ones, which the smooth low eigenvectors overlap
    well (Ipsen, SIAM Review 39, 254 (1997)). Each solve from the second is
    normalized and tried by the certificate: two suffice for seeds about 1e-3
    off; closed-form seeds of coarse grids and high levels, further off, take
    up to four.

    None unless k >= 2, `near` ascends and the result is certified: the
    intervals rho_j +- r_j (r_j = ||T z_j - rho_j z_j||) each hold an
    eigenvalue and are disjoint below top, half a gap above the top rho;
    dstebz counts k eigenvalues <= top; so each interval holds exactly one of
    the k lowest, and its Kato-Temple bound r_j^2 / gap_j (Kato, J. Phys. Soc.
    Japan 4, 334 (1949); level 0 has no gap below) is at most ABSTOL.
    """
    k, m = near.size, d.size
    if k < 2 or not np.all(np.diff(near) > 0):
        return None
    blocks = []
    for lo, hi, shifts in ((0, m - m // 2, near[0::2]), (m - m // 2, m, near[1::2])):
        off = np.tile(np.append(e[lo:hi - 1], 0.0), shifts.size)[:-1]
        if off.size < 2:                        # scipy's dgttrf takes 3 rows or more
            return None
        *lu, info = dgttrf(off, (d[lo:hi] - shifts[:, None]).ravel(), off)
        if info != 0:
            return None
        # The first solve, from ones; its scale is of no account.
        z = dgttrs(*lu, np.ones((off.size + 1, 1)), overwrite_b=1)[0]
        blocks.append((d[lo:hi], e[lo:hi - 1], lu, z))
    with np.errstate(all="ignore"):             # a vector that is not finite fails below
        for _ in range(3):
            rho, r = [], []
            for db, eb, lu, z in blocks:
                z[:] = dgttrs(*lu, z, overwrite_b=1)[0]
                y = z.reshape(-1, db.size)      # one row per copy, a view of z
                y /= np.linalg.norm(y, axis=1, keepdims=True)
                ty = db * y
                ty[:, :-1] += eb * y[:, 1:]
                ty[:, 1:] += eb * y[:, :-1]
                rho.append(np.einsum("ij,ij->i", y, ty))
                r.append(np.linalg.norm(ty - rho[-1][:, None] * y, axis=1))
            lam, rad = np.empty(k), np.empty(k)
            lam[0::2], lam[1::2] = rho
            rad[0::2], rad[1::2] = r
            top = 1.5 * lam[-1] - 0.5 * lam[-2]
            a, b = np.append(-math.inf, lam[:-1] + rad[:-1]), np.append(lam[1:] - rad[1:], top)
            if np.all(a < lam - rad) and np.all(lam + rad <= b) and np.all(
                    rad * rad <= ABSTOL * np.minimum(lam - a, b - lam)):
                break
        else:
            return None
    # dstebz's range 1 ("V") counts (-inf, top]; at tol inf it bisects no further.
    if dstebz(d, e, 1, -math.inf, top, 0, 0, math.inf, "B")[::4] != (k, 0):
        return None
    return lam


def eigen_solve(pair: DiscretizedPair, k: int, near=None) -> Spectrum:
    """Lowest k generalized eigenpairs of A phi = lam B phi.

    Takes only a palindromic pencil of at least 2 rows, as an even problem on
    a grid centred on 0 gives: symmetrized with B^(-1/2) to T, T must equal
    its reversal, or ValueError. T is folded into its even and odd half
    blocks (`_fold`); LAPACK dstebz bisects for the k lowest eigenvalues to
    the absolute tolerance ABSTOL, ascending, and dstein's inverse iteration
    computes their eigenvectors only when the spectrum's `eigenfunctions` are
    first read, as `eigh_tridiagonal(select="i", tol=ABSTOL)` does on the
    folded pencil.

    `near`, k ascending estimates of the levels, changes the cost, not the
    levels found (as `shooting_eigenvalue`'s `start`): where `_polish`
    certifies to ABSTOL the Rayleigh quotients of the vectors that shifted
    inverse iteration at `near` gives, they are the eigenvalues, and neither
    bisection nor dstein runs until the eigenfunctions are read; otherwise the
    result is bit for bit the unseeded one. A `near` of another size is a
    ValueError.

    Eigenfunctions are normalized to integral phi^2 w dp = 1 (trapezoid rule),
    each with its largest-magnitude component made positive (the leftmost of
    an odd level's two extremes).

    Raises SolverError when two of the k eigenvalues are closer than
    ulp * ||T|| (Gershgorin bound), dstebz's own resolution at abstol 0: the
    grid does not resolve those levels apart.
    """
    m = pair.diag.size
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}, got {k}")
    if near is not None:
        near = np.asarray(near, dtype=float)
        if near.shape != (k,):
            raise ValueError(f"near needs one estimate per level, {k}; got shape {near.shape}")
    s = 1.0 / np.sqrt(pair.b_diag)
    diag_t = np.asarray_chkfinite(pair.diag * s * s)
    # s_i s_i+1 is formed first, so a palindromic pencil gives a palindromic off_t.
    off_t = np.asarray_chkfinite(pair.offdiag * (s[:-1] * s[1:]))
    if m < 2 or not (np.array_equal(diag_t, diag_t[::-1]) and np.array_equal(off_t, off_t[::-1])):
        raise ValueError(f"eigen_solve needs a palindromic pencil of at least 2 rows (an even "
                         f"problem on a grid centred on 0); this one has {m}")
    d, e = _fold(diag_t, off_t)
    lams = None if near is None else _polish(d, e, near)
    if lams is None:
        # range 2 ("I") selects the eigenvalues of indices 1..k; order "E" sorts them.
        found, vals, _, _, info = dstebz(d, e, 2, 0.0, 1.0, 1, k, ABSTOL, "E")
        if info != 0 or found < k:
            raise SolverError(f"tridiagonal bisection found {found} of {k} eigenvalues "
                              f"(dstebz info {info})")
        lams = vals[:k]
    radius = np.abs(np.append(e, 0.0))
    resolution = np.finfo(float).eps * float(np.max(np.abs(d) + radius + np.roll(radius, 1)))
    gap = np.diff(lams)
    if np.any(gap <= resolution):
        j = int(np.argmin(gap))
        raise SolverError(f"eigenvalues {lams[j]:.12g} and {lams[j + 1]:.12g} are not strictly "
                          f"ascending beyond ulp*||T|| = {resolution:.3g}: the grid does not "
                          "resolve them")
    return Spectrum(eigenvalues=lams, compute_eigenfunctions=partial(
        _eigenfunctions, pair.grid, s, d, e, lams))


def _eigenfunctions(grid: Grid, s, d, e, lams):
    """`eigen_solve`'s eigenfunctions at its ascending `lams`: dstein on the
    folded (d, e), mirrored back to T's vectors (`_unfold`), then B^(-1/2).
    T's off-diagonals are nonzero, so level j has j sign changes: even levels
    go to dstein's block 1 (the fold's first m - m // 2 rows), odd to block 2."""
    k, m = lams.size, d.size
    levels = np.r_[0:k:2, 1:k:2]
    iblock, isplit = np.zeros(m, np.int32), np.zeros(m, np.int32)
    iblock[:k] = 1 + levels % 2
    isplit[:2] = m - m // 2, m
    vecs, info = dstein(d, e, lams[levels], iblock, isplit)
    if info != 0:
        raise SolverError(f"{info} of {k} eigenvectors failed to converge "
                          f"(dstein info {info})")
    vecs = _unfold(vecs)
    funcs = []
    for j in np.argsort(levels):                # dstein's columns in level order
        phi = np.zeros(grid.n)
        phi[1:-1] = s * vecs[:, j]
        # vecs columns are unit vectors, so trapz(phi^2 w) = h exactly.
        phi /= math.sqrt(grid.h)
        i_max = 1 + int(np.argmax(np.abs(phi[1:-1])))
        if phi[i_max] < 0:
            phi = -phi
        funcs.append(SampledFunction._owned(grid, phi))
    return funcs


def solve_sl(slp: SturmLiouvilleProblem, k: int, near=None) -> Spectrum:
    """Convenience wrapper: discretize then eigensolve (`near` as in `eigen_solve`)."""
    return eigen_solve(discretize(slp), k, near)


def richardson(e_h: float, e_h2: float) -> float:
    """Second-order Richardson extrapolation from spacings h and h/2.

    Works elementwise on arrays of eigenvalues as well as on floats.
    """
    return (4.0 * e_h2 - e_h) / 3.0


def solve_extrapolated(
    build: Callable[[Grid], SturmLiouvilleProblem], grid: Grid, k: int, near=None
) -> tuple[np.ndarray, Spectrum, Spectrum]:
    """Lowest k eigenvalues of build(grid) and build(grid.refined()), extrapolated.

    Returns (values, coarse, fine): the Richardson values, then the spectra
    of the two grids, whose eigenfunctions are computed on first read.
    `near` seeds the coarse solve and the coarse eigenvalues the fine one
    (`eigen_solve`'s `near`), so the levels of each grid are certified
    Rayleigh quotients, or bisected where the seeds are not good enough.

    A seed changes the cost, not the levels: the certificate checks that the
    k intervals hold the k lowest eigenvalues of the discrete pencil itself
    (dstebz's count up to the top interval) and bounds each level's distance to
    its eigenvalue by ABSTOL (Kato-Temple). So seeds from a closed form, as
    `gupmdm solve` passes, cannot pull the levels toward it, and the matrix
    stays an independent check of that closed form.
    """
    coarse = solve_sl(build(grid), k, near)
    fine = solve_sl(build(grid.refined()), k, coarse.eigenvalues)
    return richardson(coarse.eigenvalues, fine.eigenvalues), coarse, fine


@dataclass(frozen=True)
class ShootingReport:
    """One shooting level.

    `mismatch` is the final angle defect |Theta(eigenvalue) - (n+1) pi| in
    radians; `iterations` counts the angles this call swept (`Shooter.sweeps`).
    """

    eigenvalue: float
    mismatch: float
    iterations: int


# Relative tolerance of a shooting root: the search stops once a step, or
# its bracket, is at most REL_TOL * max(1, |lam|).
REL_TOL = 1e-10
# Largest angle defect |Theta(lam) - (n+1) pi| accepted at a returned root.
ANGLE_TOL = 1e-6
# Steps (one sweep each) a root search may take before it raises BracketError.
MAX_STEPS = 100
# Theta stays monotone in lambda up to nu h^2 = 2.69-3.3 (nu = lambda - mu_0; eps^2 <= 0.08
# on 10-200 half-steps), 4.6-6.2 from eps^2 = 0.1: no search sweeps past mu_0 + RK4_REACH/h^2.
RK4_REACH = 2.5


def _half_angle(u: float, v: float, nodes: int) -> float:
    """Continuous angle of (u, v) after `nodes` sign changes of u, from u > 0.

    Where u < 0, (u, v) -> (-u, -v) turns the angle by pi, so atan2 lies in
    [0, pi] and measures the part past the last node. Its value pi (u rounded
    to 0 just before a sign change) equals the next node's nodes * pi, so
    rounding never makes the angle jump by pi, as atan2 mod pi would.
    """
    if u < 0.0:
        u, v = -u, -v
    return nodes * math.pi + math.atan2(u, v)


class Shooter:
    """RK4 shooting on the even normal form at eps in g = y/R, on `steps` half-steps.

    With R = cos^kappa(eps x) its ground state at mu_0 (`models.ground_state_sq`,
    `models.ground_level`) and y = R g, the normal form is -(R^2 g')' = nu R^2 g,
    nu = lambda - mu_0: the system g' = P / R^2, P' = -nu R^2 g, run from
    (g, P) = (1, 0) at the left edge of the box {log R >= -72}
    (`models.normal_form_grid`, the matrix's box too) to the centre. That
    start is the principal solution for every kappa, and the natural condition
    on a truncated box; the right solution is the left one's mirror image, so an
    angle costs one sweep. R^2 is taken in closed form at the nodes and step
    midpoints, so the Shooter reads only eps. Each RK4 step matrix is a
    polynomial of degree 2 in nu, its coefficients built here once in LAPACK's
    band layout; a sweep applies them in one banded triangular solve. Step 0
    acts on (1, 0) alone, so its second column takes 0 for 1/R^2 at the edge
    (inf at an exact end). At nu = 0, g = 1 solves every step
    exactly: Theta(mu_0) = pi, and level 0 is mu_0 by construction.

    `grid` is the box with 2 steps + 1 points, its left half the nodes swept.
    `angle(lam)` is the Pruefer angle sum Theta at the centre, memoized per
    instance with its slope dTheta/dlambda, so every level solved on one
    Shooter reuses the sweeps of the levels before it.
    """

    def __init__(self, eps: float, steps: int):
        if steps < 1:
            raise ValueError(f"shooting needs at least 1 half-step, got {steps}")
        self.grid = normal_form_grid(eps, 2 * steps + 1)
        self.h = h = self.grid.h
        self.mu0 = ground_level(eps)
        x = self.grid.points[:steps + 1]
        w = self._w = ground_state_sq(eps, x)
        w_m = ground_state_sq(eps, 0.5 * (x[:-1] + x[1:]))
        # 1/R^2 at the nodes; step 0's second column, the one node 0's enters, is left 0.
        al = np.append(0.0, 1.0 / w[1:])
        w0, w1, al0, al1, al_m = w[:-1], w[1:], al[:-1], al[1:], 1.0 / w_m
        # The RK4 step [[a, b], [c, d]] of -(c y')' + q y = lam w y in closed form at
        # c = w = R^2, q = 0 (al = 1/c, g = -nu w, al_m g_m = -nu s) by powers of nu, each
        # term with nu taken out in the form's order: where nu is a power of 2 the
        # entries are the form's bit for bit.
        s = al_m * w_m
        h2, h3, h4 = h * h / 6.0, h**3 / 12.0 * s, h**4 / 24.0 * s
        powers = ((1.0, h / 6.0 * (al0 + 4.0 * al_m + al1), 0.0, 1.0),
                  (-(h2 * (al_m * w0 + s + al1 * w_m)), -(h3 * (al0 + al1)),
                   -(h / 6.0 * (w0 + 4.0 * w_m + w1)), -(h2 * (w_m * al0 + s + w1 * al_m))),
                  (h4 * al1 * w0, 0.0, h3 * (w0 + w1), h4 * w1 * al0))
        # Each power's -M_k in LAPACK's lower band layout (`_band`), two zero columns after.
        self._bands = []
        for a, b, c, d in powers:
            band = np.zeros((4, 2 * steps + 2), order="F")
            band[2, :-2:2], band[3, :-2:2], band[1, 1:-2:2], band[2, 1:-2:2] = -a, -c, -b, -d
            self._bands.append(band)
        self._scratch = np.empty_like(band)
        self._angles: dict[float, tuple[float, float]] = {}

    @property
    def sweeps(self) -> int:
        """Angles swept so far, one half-grid sweep per distinct lambda in the memo."""
        return len(self._angles)

    def _band(self, nu: float) -> np.ndarray:
        """-M_k for every step at nu = lam - mu_0 in the band layout, (p0 + nu p1) + nu^2 p2.

        Step k's -a and -c are band[2:4, 2k], its -b and -d band[1:3, 2k + 1];
        step 0's b and d are those of 1/R^2 = 0 at the edge.
        """
        p0, p1, p2 = self._bands
        band = p1 * nu          # in place from here: a new band per operation costs 2x
        band += p0
        band += np.multiply(p2, nu * nu, out=self._scratch)
        return band

    def _sweep(self, lam: float):
        """Integrate from the box edge, where (g, P) = (1, 0), to the centre.

        Returns (g, P, nodes, norm): the final state, the sign changes of g
        along the way, and the integral of R^2 g^2 over the sweep (trapezoid
        rule).

        State k+1 is M_k times state k, so the states (g_0, P_0, ..., g_m,
        P_m) solve one unit lower-triangular system with -M_k at sub-diagonal
        offsets 1-3 and (1, 0) as the right-hand side's first rows: one call
        to LAPACK's dtbtrs. Nothing rescales the state: on [mu_0, mu_0 +
        RK4_REACH / h^2], where every search sweeps, |g| + |P| stays below 20
        at every node, and above 1e-120 up to 2400 steps (it underflows only
        near the reach on thousands of steps, where `_angle` guards its slope).
        """
        band = self._band(lam - self.mu0)
        rhs = np.zeros((band.shape[1], 1))
        rhs[0] = 1.0
        x = dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=1)[0][:, 0]
        w, g, u, v = self._w, x[::2], float(x[-2]), float(x[-1])
        norm = 0.5 * float(w[0]) + float(np.dot(w[1:], g[1:] * g[1:]))
        norm = self.h * (norm - 0.5 * float(w[-1]) * u * u)   # the centre has half weight
        return u, v, count_sign_changes(g), norm

    def _angle(self, lam: float) -> tuple[float, float]:
        """(Theta, dTheta/dlambda) at lam from one sweep of the left half.

        theta_L = atan2(g, P), pi/2 at the box edge, is the left solution's
        Pruefer angle at the centre; the right one, its mirror image with state
        (g, -P) there, has the same. Theta = 2 theta_L is continuous and
        increasing in lambda, pi at mu_0, and (n + 1) pi at level n. Pruefer's
        identity dtheta_L/dlambda = int R^2 g^2 / (g^2 + P^2) gives the slope,
        inf where g^2 + P^2 underflows to 0 (near the reach on 4800 or more
        steps), so `_root` takes a bracket step there.
        """
        u, v, nodes, s = self._sweep(lam)
        r2 = u * u + v * v
        return 2.0 * _half_angle(u, v, nodes), 2.0 * s / r2 if r2 > 0.0 else math.inf

    def angle(self, lam: float) -> float:
        """Theta(lam), memoized with its slope in `_angles`: a repeated lambda
        costs no sweep."""
        pair = self._angles.get(lam)
        if pair is None:
            pair = self._angles[lam] = self._angle(lam)
        return pair[0]


def _root(shooter: Shooter, target: float, lam: float) -> float:
    """Root of Theta = target by Newton steps kept inside a bracket (rtsafe).

    Starts at lam, or at mu_0 when lam lies outside [mu_0, mu_0 + RK4_REACH /
    h^2] or is not finite: every sweep lies in that range, where the state
    needs no rescale (`Shooter._sweep`) and below whose top Theta is monotone.
    A Newton step, from the slope
    that came with the angle, is taken while it lands strictly inside the
    bracket of the memoized angles (lower end mu_0, where Theta = pi exactly,
    until one at or below the target is swept) and, once one above is known,
    is at most half the step before it, the first time half the bracket: near
    the reach Pruefer's identity can overstate the discrete Theta's slope by
    tens of times, and from far above the root Newton lands just above mu_0.
    Otherwise the search sweeps mu_0 while no angle lies on either side of the
    target, doubles the distance from mu_0 (plus one gap), up to the reach,
    while none lies above it, or else takes the bracket's false-position point,
    and its midpoint by turns once both ends are swept. Returns lam once a
    step is at most REL_TOL * max(1, |lam|) with the angle within ANGLE_TOL,
    or, once the bracket is that narrow, the end whose angle is nearer the
    target.
    """
    base, angles = shooter.mu0, shooter._angles
    gap = max(1.0, abs(base) * 0.5)
    reach = base + RK4_REACH / shooter.h**2
    if not base <= lam <= reach:
        lam = base
    theta, slope = shooter.angle(lam), angles[lam][1]
    false_position, last = False, math.inf
    for _ in range(MAX_STEPS):
        hi = min((x for x, a in angles.items() if a[0] > target), default=math.inf)
        lo = max((x for x, a in angles.items() if a[0] <= target and x < hi), default=None)
        tol = REL_TOL * max(1.0, abs(lam))
        step = (target - theta) / slope if 0.0 < slope < math.inf else math.nan
        if abs(step) <= tol and abs(theta - target) <= ANGLE_TOL:
            return lam
        if lo is not None and hi - lo <= tol:
            return min((lo, hi), key=lambda x: abs(angles[x][0] - target))
        low, theta_low = (base, math.pi) if lo is None else (lo, angles[lo][0])
        top = hi if hi < math.inf else min(2.0 * low - base + gap, reach)
        if top <= low:
            raise BracketError(f"no angle above {target:.6g} below RK4's stability bound "
                               f"mu_0 + {RK4_REACH:g}/h^2 = {reach:g}")
        new, half = lam + step, 0.5 * (last if last < math.inf else top - low)
        if not (low < new < top and (abs(step) <= half or hi == math.inf)):
            if hi == math.inf:
                new = low if lo is None else top
            else:
                d_lo, d_hi = theta_low - target, angles[hi][0] - target
                fp = false_position or lo is None
                new = low - d_lo * (hi - low) / (d_hi - d_lo) if fp else 0.5 * (low + hi)
                false_position = not false_position
        last = abs(new - lam)
        lam, theta, slope = new, shooter.angle(new), angles[new][1]
    if all(th <= target for th, _ in angles.values()):
        raise BracketError(f"no angle above {target:.6g} in [{base:g}, {max(angles):g}] "
                           f"after {MAX_STEPS} steps")
    raise BracketError(f"no root of Theta = {target:.6g} after {MAX_STEPS} steps")


def shooting_eigenvalue(
    shooter: Shooter,
    n: int,
    start: float | None = None,
) -> ShootingReport:
    """n-th eigenvalue by shooting on the Pruefer angle.

    Level n is the root of Theta(lam) = (n + 1) pi, found by `_root`. The
    search starts at `start`, say a matrix estimate of level n, or without
    one at mu_0. Theta has one root per level, so the start changes the
    cost, not the level found. Pass one Shooter for every level of a problem
    to share its sweeps, which also bracket later levels.

    Raises BracketError when no angle up to mu_0 + RK4_REACH / h^2 or in
    MAX_STEPS steps lies above the target, no root is found, or the root
    misses the target angle by more than ANGLE_TOL (a jump in Theta, as on a
    grid too coarse for the level).
    """
    if n < 0:
        raise ValueError(f"eigenvalue index must be >= 0, got {n}")
    sweeps = shooter.sweeps
    target = (n + 1) * math.pi
    lam = _root(shooter, target, math.nan if start is None else float(start))
    defect = abs(shooter.angle(lam) - target)
    if not defect <= ANGLE_TOL:
        raise BracketError(f"level {n}: angle misses {n + 1} pi by {defect:.3g} at "
                           f"lambda = {lam:.12g}; the grid may not resolve it")
    return ShootingReport(eigenvalue=lam, mismatch=defect,
                          iterations=shooter.sweeps - sweeps)
