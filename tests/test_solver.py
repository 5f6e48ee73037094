import contextlib
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lapack

from gupmdm import core
from gupmdm.cli import SHOOTING_STEPS
from gupmdm.core import (
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    count_sign_changes,
    inner_slice,
    make_grid,
    sample,
)
from gupmdm.models import (
    GupOscillatorParams,
    SwansonParams,
    ground_state_sq,
    normal_form_grid,
    normal_form_sl,
    p_space_sl,
)
from gupmdm import solver
from gupmdm.solver import (
    ANGLE_TOL,
    BracketError,
    Shooter,
    _half_angle,
    discretize,
    eigen_solve,
    richardson,
    shooting_eigenvalue,
    solve_extrapolated,
    solve_sl,
)


def laplace_problem(n=201):
    g = make_grid(0, math.pi, n)
    return SturmLiouvilleProblem(
        c=constant(g, 1.0), q=constant(g, 0.0), w=constant(g, 1.0)
    )


class TestDiscretize:
    def test_laplacian_lowest_eigenvalue(self):
        pair = discretize(laplace_problem())
        spec = eigen_solve(pair, 1)
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-4)

    def test_constant_c_scales_spectrum(self):
        slp1 = laplace_problem()
        g = slp1.grid
        slp2 = SturmLiouvilleProblem(
            c=constant(g, 2.0), q=constant(g, 0.0), w=constant(g, 1.0)
        )
        e1 = eigen_solve(discretize(slp1), 4).eigenvalues
        e2 = eigen_solve(discretize(slp2), 4).eigenvalues
        assert np.allclose(e2, 2 * e1, rtol=1e-13)

    def test_symmetry_by_construction(self):
        # One off-diagonal array serves as both sub- and super-diagonal.
        slp = p_space_sl(GupOscillatorParams(1.0, 0.3), make_grid(-8, 8, 201))
        pair = discretize(slp)
        assert pair.offdiag.shape == (pair.diag.size - 1,)
        assert np.all(pair.b_diag > 0)


class TestEigenSolve:
    def test_harmonic_spectrum(self):
        g = make_grid(-12, 12, 2401)
        params = GupOscillatorParams(omega=1.0, tau=0.0)
        spec = solve_sl(p_space_sl(params, g), 8)
        energies = [params.energy_from_eigenvalue(v) for v in spec.eigenvalues]
        # The O(h^2) discretization error grows roughly like lambda^2, so the
        # tolerance scales with the level index; extrapolated accuracy is
        # exercised in test_richardson_oscillator instead.
        for n, e in enumerate(energies):
            assert e == pytest.approx(n + 0.5, abs=2e-5 * (n + 1) ** 2)

    def test_swanson_tau_zero_spectrum(self):
        params = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)
        g = make_grid(-10, 10, 2401)
        spec = solve_sl(p_space_sl(params, g), 6)
        omega_bar = math.sqrt(3.88)
        assert omega_bar == pytest.approx(1.9697716, abs=1e-7)
        for n in range(6):
            e = params.energy_from_eigenvalue(spec.eigenvalues[n])
            assert e == pytest.approx((n + 0.5) * omega_bar, abs=2e-4)

    def test_orthonormal_under_weight(self):
        g = make_grid(-12, 12, 801)
        slp = p_space_sl(GupOscillatorParams(1.0, 0.05), g)
        spec = solve_sl(slp, 5)
        for i in range(5):
            for j in range(i, 5):
                f, h = spec.eigenfunctions[i].values, spec.eigenfunctions[j].values
                ip = float(np.trapezoid(f * h * slp.w.values, dx=g.h))   # integral f h w dp
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_oscillation_theorem(self):
        g = make_grid(-12, 12, 801)
        spec = solve_sl(p_space_sl(GupOscillatorParams(1.0, 0.05), g), 6)
        for n, phi in enumerate(spec.eigenfunctions):
            sig = phi.values.copy()
            sig[np.abs(sig) < 1e-9 * np.max(np.abs(sig))] = 0.0
            assert count_sign_changes(sig) == n

    def test_k_out_of_range(self):
        pair = discretize(laplace_problem(51))
        with pytest.raises(ValueError):
            eigen_solve(pair, 1000)

    def test_domain_truncation_stability(self):
        params = GupOscillatorParams(omega=1.0, tau=0.02)
        e = []
        for pmax in (12.0, 24.0):
            g = make_grid(-pmax, pmax, int(200 * pmax) + 1)
            e.append(solve_sl(p_space_sl(params, g), 6).eigenvalues)
        assert np.max(np.abs(e[1] - e[0])) < 1e-8


def fold_reference(d, e):
    """The even and odd half blocks of a palindromic (d, e), built block by
    block, stacked with a zero coupling; returns them and the even block's size."""
    m = d.size
    r = m // 2
    if m % 2:
        even_d, even_e = d[:r + 1], np.append(e[:r - 1], math.sqrt(2.0) * e[r - 1])
        odd_d, odd_e = d[:r], e[:r - 1]
    else:
        even_d = np.append(d[:r - 1], d[r - 1] + e[r - 1])
        odd_d = np.append(d[:r - 1], d[r - 1] - e[r - 1])
        even_e = odd_e = e[:r - 1]
    return (np.concatenate([even_d, odd_d]), np.concatenate([even_e, [0.0], odd_e]),
            even_d.size)


def unfold_reference(z, n_even):
    """A stacked block eigenvector z mirrored out to the full pencil's."""
    m = z.size
    r = m // 2
    even = np.any(z[:n_even])
    y = z[:n_even] if even else z[n_even:]
    v = np.zeros(m)
    v[:r] = y[:r] / math.sqrt(2.0)
    v[m - r:] = (v[:r] if even else -v[:r])[::-1]
    if m % 2 and even:
        v[r] = y[r]
    return v


def eigh_tridiagonal_reference(pair, k, fold):
    """eigen_solve's eigenpairs from scipy's eigh_tridiagonal at tol=ABSTOL, on
    the folded pencil (vectors unfolded) or the plain one, post-processed alike."""
    s = 1.0 / np.sqrt(pair.b_diag)
    d, e = pair.diag * s * s, pair.offdiag * (s[:-1] * s[1:])
    if fold:
        d, e, n_even = fold_reference(d, e)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                                  tol=solver.ABSTOL)
    grid = pair.grid
    funcs = []
    for j in range(k):
        phi = np.zeros(grid.n)
        phi[1:-1] = s * (unfold_reference(vecs[:, j], n_even) if fold else vecs[:, j])
        phi /= math.sqrt(grid.h)
        i_max = 1 + int(np.argmax(np.abs(phi[1:-1])))
        funcs.append(-phi if phi[i_max] < 0 else phi)
    return vals, funcs


def folded_levels(pair, k):
    """The k lowest eigenvalues of the folded pencil, bisected to tol 1e-15."""
    s = 1.0 / np.sqrt(pair.b_diag)
    d, e, _ = fold_reference(pair.diag * s * s, pair.offdiag * (s[:-1] * s[1:]))
    return np.sort(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                    select_range=(0, k - 1), tol=1e-15))


NORMAL_FORM_EPS = GupOscillatorParams(omega=1.0, tau=0.05).normal_form().eps
# (build, grid, k); each case solves build(grid).
SYMMETRIC_BUILDS = [
    (partial(normal_form_sl, NORMAL_FORM_EPS), normal_form_grid(NORMAL_FORM_EPS, 1201), 6),
    (partial(p_space_sl, GupOscillatorParams(omega=2.0, tau=0.1)),
     make_grid(-50, 50, 4801), 10),
    (partial(p_space_sl, SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.05)),
     make_grid(-15, 15, 2401), 10),
    # An even n gives an even number of rows, folded at a coupling, not a node.
    (partial(normal_form_sl, NORMAL_FORM_EPS), normal_form_grid(NORMAL_FORM_EPS, 1200), 6),
]
SYMMETRIC_CASES = [(build(grid), k) for build, grid, k in SYMMETRIC_BUILDS]
SYMMETRIC_IDS = ["normal-form", "p-space-box-50", "swanson", "normal-form-even-n"]


def _normal_form_with_q(n, scale):
    """The eps = 0 normal form on n points with q = x^2 times `scale` for x > 0."""
    slp = normal_form_sl(0.0, normal_form_grid(0.0, n))
    q = sample(slp.grid, lambda x: x * x * np.where(x > 0, scale, 1.0))
    return SturmLiouvilleProblem(c=slp.c, q=q, w=slp.w)


@pytest.mark.parametrize("slp", [
    p_space_sl(GupOscillatorParams(omega=1.0, tau=0.05), make_grid(-3, 5, 977)),
    _normal_form_with_q(1201, 2.0),
    # On h = 0.4 an ulp of q is an ulp of the diagonal, so it reaches T.
    _normal_form_with_q(61, 1.0 + 2.0**-52),
    laplace_problem(3),
], ids=["asymmetric-box", "uneven-q", "uneven-q-ulp", "1-row-pencil"])
def test_eigen_solve_rejects_pencil_without_mirror_symmetry(slp):
    # Only an exact palindrome of at least 2 rows folds into half blocks.
    with pytest.raises(ValueError, match="palindromic pencil of at least 2 rows"):
        eigen_solve(discretize(slp), 1)


# The edges of the fold's block layout: Laplacian pencils of m = 2..5 rows at
# k = 1 (no level in the odd block) and k = m (every row a level), and 40
# levels of the normal form.
LAYOUT_CASES = [(laplace_problem(m + 2), k) for m in range(2, 6) for k in (1, m)]
LAYOUT_CASES.append((SYMMETRIC_CASES[0][0], 40))
LAYOUT_IDS = [f"laplace-{m}-rows-k-{k}" for m in range(2, 6) for k in (1, m)]
LAYOUT_IDS.append("normal-form-k-40")


class TestLazyEigenvectors:
    @pytest.mark.parametrize("slp, k", SYMMETRIC_CASES + LAYOUT_CASES,
                             ids=SYMMETRIC_IDS + LAYOUT_IDS)
    def test_bit_identical_to_eigh_tridiagonal(self, slp, k):
        pair = discretize(slp)
        vals, funcs = eigh_tridiagonal_reference(pair, k, fold=True)
        spec = eigen_solve(pair, k)
        assert np.array_equal(spec.eigenvalues, vals)
        assert len(spec.eigenfunctions) == k
        for phi, ref in zip(spec.eigenfunctions, funcs):
            assert np.array_equal(phi.values, ref)

    @pytest.mark.parametrize("slp, k", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
    def test_folded_matches_unfolded(self, slp, k):
        # The same bisection tolerance on the whole pencil: the fold moves no
        # eigenvalue by more than it, and no eigenfunction but for the sign of
        # an odd level, whose two extremes tie only in the folded solve.
        pair = discretize(slp)
        vals, funcs = eigh_tridiagonal_reference(pair, k, fold=False)
        spec = eigen_solve(pair, k)
        assert np.max(np.abs(spec.eigenvalues - vals)) <= 2 * solver.ABSTOL
        for j, (phi, ref) in enumerate(zip(spec.eigenfunctions, funcs)):
            scale = np.max(np.abs(ref))
            signs = (1.0, -1.0) if j % 2 else (1.0,)
            assert min(np.max(np.abs(phi.values - sign * ref)) for sign in signs) <= 1e-10 * scale

    def test_eigenvalues_alone_compute_no_vectors(self, dstein_calls):
        # Neither solve_sl nor solve_extrapolated computes vectors: the fine
        # levels, seeded by the coarse ones, are certified without dstein. The
        # first read of the fine eigenfunctions runs it once, at those levels.
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        g = make_grid(-10, 10, 401)
        coarse = solve_sl(params.sl(g), 4)
        assert coarse.eigenvalues.size == 4
        lams, _, fine = solve_extrapolated(params.sl, g, 4)
        assert lams.size == fine.eigenvalues.size == 4
        assert dstein_calls == []
        assert len(fine.eigenfunctions) == 4
        [(d, _, w, _, _)] = dstein_calls
        assert d.size == g.refined().n - 2
        assert sorted(w) == fine.eigenvalues.tolist()

    def test_eigenfunctions_computed_once(self, dstein_calls):
        spec = solve_sl(laplace_problem(), 3)
        first = spec.eigenfunctions
        assert spec.eigenfunctions is first
        assert len(dstein_calls) == 1

    def test_dstein_failure_is_solver_error_on_read(self, monkeypatch):
        monkeypatch.setattr(solver, "dstein", lambda d, e, w, *_: (np.zeros((d.size, w.size)), 2))
        spec = solve_sl(laplace_problem(), 3)
        with pytest.raises(solver.SolverError, match="2 of 3 eigenvectors failed"):
            spec.eigenfunctions

    @pytest.mark.parametrize("found, info", [(2, 0), (3, 1)])
    def test_dstebz_failure_is_solver_error(self, monkeypatch, found, info):
        real = solver.dstebz

        def failing(*args):
            _, w, iblock, isplit, _ = real(*args)
            return found, w, iblock, isplit, info

        monkeypatch.setattr(solver, "dstebz", failing)
        with pytest.raises(solver.SolverError, match=f"found {found} of 3 eigenvalues"):
            solve_sl(laplace_problem(), 3)


# Bad seeds of a k-level solve: (k, near) from the 8 lowest coarse levels of a case.
BAD_SEEDS = {
    "swapped-0-1": lambda near: (6, near[[1, 0, 2, 3, 4, 5]]),
    "swapped-0-2": lambda near: (6, near[[2, 1, 0, 3, 4, 5]]),     # within one block
    "shifted-by-a-gap": lambda near: (6, near[:6] + (near[1] - near[0])),
    # Levels 2..7 have the parities of 0..5: only dstebz's count of the
    # eigenvalues up to hi sees the two below.
    "levels-2-to-7": lambda near: (6, near[2:]),
    "another-problem": lambda near: (6, solve_sl(SYMMETRIC_CASES[2][0], 6).eigenvalues),
    "k-1": lambda near: (1, near[:1]),
    "not-finite": lambda near: (6, np.append(near[:5], np.inf)),
    "far-off": lambda near: (6, near[:6] * 1e300),
}


class TestSeededSolve:
    @pytest.mark.parametrize("build, grid, k", SYMMETRIC_BUILDS, ids=SYMMETRIC_IDS)
    def test_coarse_levels_seed_fine_pencil(self, build, grid, k, dstebz_ranges, dstein_calls):
        # Seeded with the coarse levels, the fine levels are certified Rayleigh
        # quotients: dstebz only counts over a range "V" and bisects for none.
        # The certificate's vectors come from shifted inverse iteration, so the
        # solve runs no dstein; the eigenfunctions compared below are another
        # matter: their first read computes them by dstein, in one call.
        near = solve_sl(build(grid), k).eigenvalues
        pair = discretize(build(grid.refined()))
        dstebz_ranges.clear()
        spec = eigen_solve(pair, k, near)
        assert dstebz_ranges == [1]
        assert dstein_calls == []
        assert np.max(np.abs(spec.eigenvalues - folded_levels(pair, k))) <= solver.ABSTOL
        funcs = spec.eigenfunctions
        assert len(dstein_calls) == 1
        for phi, ref in zip(funcs, eigen_solve(pair, k).eigenfunctions):
            assert np.max(np.abs(phi.values - ref.values)) <= 1e-10 * np.max(np.abs(ref.values))

    @pytest.mark.parametrize("bad", BAD_SEEDS)
    def test_bad_seeds_give_unseeded_spectrum(self, bad, dstebz_ranges, dstein_calls):
        build, grid, _ = SYMMETRIC_BUILDS[0]
        k, near = BAD_SEEDS[bad](solve_sl(build(grid), 8).eigenvalues)
        pair = discretize(build(grid.refined()))
        plain = eigen_solve(pair, k)
        dstebz_ranges.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a bad seed falls back silently
            spec = eigen_solve(pair, k, near)
        assert 2 in dstebz_ranges
        assert np.array_equal(spec.eigenvalues, plain.eigenvalues)
        for phi, ref in zip(spec.eigenfunctions, plain.eigenfunctions):
            assert np.array_equal(phi.values, ref.values)
        # dstein takes each block's eigenvalues ascending (else its input
        # check prints an error), so seeds out of order never reach it.
        for _, _, w, iblock, _ in dstein_calls:
            blocks = iblock[:w.size]
            assert all(np.all(np.diff(w[blocks == b]) > 0) for b in (1, 2))

    @pytest.mark.parametrize("routine", ["dgttrf", "dgttrs"],
                             ids=["dgttrf-fails", "loose-vectors"])
    def test_bad_vectors_fall_back_to_bisection(self, monkeypatch, routine):
        # A failed factorization, or solutions whose Kato-Temple bound r^2 / gap
        # exceeds ABSTOL (noise 1e-9 of their largest entry gives r from 5e-5
        # to 3e-3 against gaps ~ 2), gives the bisected levels.
        build, grid, k = SYMMETRIC_BUILDS[0]
        near = solve_sl(build(grid), k).eigenvalues
        pair = discretize(build(grid.refined()))
        plain = eigen_solve(pair, k).eigenvalues

        def dgttrf(*args):
            *lu, _ = real(*args)
            return *lu, 1

        def dgttrs(*args, **kwargs):
            x, info = real(*args, **kwargs)
            noise = 1e-9 * np.max(np.abs(x)) * np.sin(np.arange(x.size))
            return x + noise.reshape(x.shape), info

        real = getattr(solver, routine)
        monkeypatch.setattr(solver, routine, {"dgttrf": dgttrf, "dgttrs": dgttrs}[routine])
        assert np.array_equal(eigen_solve(pair, k, near).eigenvalues, plain)

    @pytest.mark.parametrize("tau, n, solves", [(0.05, 1201, 2), (0.0, 601, 3), (0.0, 201, 4)])
    def test_extra_solves_only_where_needed(self, tau, n, solves, monkeypatch, dstebz_ranges):
        # Two solves from a vector of ones certify `gupmdm solve`'s default
        # coarse grid; at tau = 0 the closed form is further off the n = 601
        # grid, which needs a third, and the n = 201 one, which needs a fourth.
        # Each solve is one dgttrs call per fold block.
        form = GupOscillatorParams(omega=1.0, tau=tau).normal_form()
        pair = discretize(normal_form_sl(form.eps, normal_form_grid(form.eps, n)))
        calls = []

        def dgttrs(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = solver.dgttrs
        monkeypatch.setattr(solver, "dgttrs", dgttrs)
        spec = eigen_solve(pair, 6, form.exact_levels(6))
        assert dstebz_ranges == [1]
        assert len(calls) == 2 * solves
        assert np.max(np.abs(spec.eigenvalues - folded_levels(pair, 6))) <= solver.ABSTOL

    @pytest.mark.parametrize("m, k", [(2, 2), (3, 2), (4, 3), (5, 3)])
    def test_block_too_small_to_factor_bisects(self, m, k, dstebz_ranges):
        # A block's stacked copies of fewer than 3 rows are bisected: scipy's
        # dgttrf wrapper takes no smaller system.
        pair = discretize(laplace_problem(m + 2))
        plain = eigen_solve(pair, k).eigenvalues
        dstebz_ranges.clear()
        assert np.array_equal(eigen_solve(pair, k, plain + 1e-3).eigenvalues, plain)
        assert dstebz_ranges == [2]

    def test_even_row_pencil_seeded(self, dstebz_ranges):
        # solve seeds only odd-row pencils (2n - 1 points); an even-row fold
        # is certified too, here from its own levels off by 1e-3.
        slp, k = SYMMETRIC_CASES[3]
        pair = discretize(slp)
        near = eigen_solve(pair, k).eigenvalues + 1e-3
        dstebz_ranges.clear()
        spec = eigen_solve(pair, k, near)
        assert dstebz_ranges == [1]
        assert np.max(np.abs(spec.eigenvalues - folded_levels(pair, k))) <= solver.ABSTOL

    @pytest.mark.parametrize("params", [
        GupOscillatorParams(omega=1.0, tau=0.0), GupOscillatorParams(omega=1.0, tau=0.05),
        GupOscillatorParams(omega=1.0, tau=0.3), SwansonParams(2.0, 0.3, 0.1, 0.05),
    ], ids=["oscillator-0", "oscillator-0.05", "oscillator-0.3", "swanson"])
    def test_closed_form_seeds_coarse_grid(self, params, dstebz_ranges):
        # gupmdm solve seeds its coarse grid with the normal form's closed-form
        # levels. Certified, the levels are the discrete pencil's, within
        # ABSTOL of its eigenvalues as bisection's are, and stay as far from
        # the closed form as the grid's discretization error (> 2e-6 here).
        form = params.normal_form()
        slp = normal_form_sl(form.eps, normal_form_grid(form.eps, 1201))
        plain = solve_sl(slp, 6).eigenvalues
        dstebz_ranges.clear()
        seeded = solve_sl(slp, 6, form.exact_levels(6)).eigenvalues
        assert dstebz_ranges == [1]
        assert np.max(np.abs(seeded - plain)) <= 2 * solver.ABSTOL
        assert np.min(np.abs(seeded - form.exact_levels(6))) > 1e4 * solver.ABSTOL

    @pytest.mark.parametrize("k, ranges", [(6, [1, 1]), (1, [2, 2])])
    def test_solve_extrapolated_near_seeds_coarse_grid(self, k, ranges, dstebz_ranges):
        # `near` seeds the coarse grid and the coarse levels the fine one, so
        # neither bisects; at k = 1 `_polish` declines and both do, bit for
        # bit as unseeded.
        form = GupOscillatorParams(omega=1.0, tau=0.05).normal_form()
        build, grid = partial(normal_form_sl, form.eps), normal_form_grid(form.eps, 601)
        plain = solve_extrapolated(build, grid, k)[0]
        dstebz_ranges.clear()
        seeded = solve_extrapolated(build, grid, k, form.exact_levels(k))[0]
        assert dstebz_ranges == ranges
        # Each grid's levels are within 2 ABSTOL of bisection's: (4 * 2 + 2) / 3 after Richardson.
        assert np.max(np.abs(seeded - plain)) <= 10 / 3 * solver.ABSTOL
        if k == 1:
            assert np.array_equal(seeded, plain)

    @pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
    def test_solve_extrapolated_coarse_is_solve_sl(self, seeded):
        # The coarse spectrum returned is the coarse grid's own solve, bit for bit.
        form = GupOscillatorParams(omega=1.0, tau=0.05).normal_form()
        build, grid = partial(normal_form_sl, form.eps), normal_form_grid(form.eps, 601)
        near = form.exact_levels(6) if seeded else None
        _, coarse, _ = solve_extrapolated(build, grid, 6, near)
        ref = solve_sl(build(grid), 6, near)
        assert np.array_equal(coarse.eigenvalues, ref.eigenvalues)
        for phi, ref_phi in zip(coarse.eigenfunctions, ref.eigenfunctions, strict=True):
            assert np.array_equal(phi.values, ref_phi.values)

    @pytest.mark.parametrize("near", [[1.0, 2.0], np.ones((6, 1)), []],
                             ids=["short", "column", "empty"])
    def test_near_of_wrong_size_is_value_error(self, near):
        with pytest.raises(ValueError, match="near needs one estimate per level"):
            eigen_solve(discretize(SYMMETRIC_CASES[0][0]), 6, near)


@pytest.fixture
def dstebz_offdiags(monkeypatch):
    """The off-diagonal of every pencil the test hands `solver.dstebz`."""
    offdiags = []

    def spy(d, e, *args):
        offdiags.append(e.copy())
        return real(d, e, *args)

    real = solver.dstebz
    monkeypatch.setattr(solver, "dstebz", spy)
    return offdiags


def junction(e):
    """The off-diagonal entry joining `_fold`'s even and odd blocks."""
    return e[e.size // 2]


def hermitized_swanson(n):
    """`verify hermitize`'s problem on n points."""
    from gupmdm.algebra import LadderRep, hermitized_problem, swanson_coefficients

    grid = make_grid(-10.0, 10.0, n)
    rep = LadderRep(r=constant(grid, math.sqrt(0.5)),
                    s=sample(grid, lambda p: p * math.sqrt(0.5)))
    return hermitized_problem(swanson_coefficients(rep, SwansonParams(2.0, 0.3, 0.1)))


# Every even problem the package solves; `normal_form_grid(1, n)` is the whole interval.
EVEN_PROBLEMS = {
    "normal-form-eps-0": lambda n: normal_form_sl(0.0, normal_form_grid(0.0, n)),
    "normal-form-eps-0.22": lambda n: normal_form_sl(0.22, normal_form_grid(0.22, n)),
    "normal-form-eps-1": lambda n: normal_form_sl(1.0, normal_form_grid(1.0, n)),
    "p-space-oscillator": lambda n: GupOscillatorParams(1.0, 0.05).sl(make_grid(-12, 12, n)),
    "swanson-tau-0": lambda n: SwansonParams(2.0, 0.3, 0.1).sl(make_grid(-15, 15, n)),
    "swanson-tau-0.05": lambda n: SwansonParams(2.0, 0.3, 0.1, 0.05).sl(make_grid(-15, 15, n)),
    "hermitized-swanson": hermitized_swanson,
}


def assert_parity(spec):
    """y_j(-x) = (-1)^j y_j(x), exactly."""
    for j, phi in enumerate(spec.eigenfunctions):
        assert np.array_equal(phi.values[::-1], (-1) ** j * phi.values)


class TestFold:
    @pytest.mark.parametrize("n", [601, 600])
    @pytest.mark.parametrize("name", EVEN_PROBLEMS)
    def test_even_problem_folds(self, name, n, dstebz_offdiags):
        slp = EVEN_PROBLEMS[name](n)
        points = slp.grid.points
        assert np.array_equal(points[::-1], -points)
        spec = solve_sl(slp, 5)
        assert len(dstebz_offdiags) == 1
        assert junction(dstebz_offdiags[0]) == 0.0
        assert_parity(spec)

    @pytest.mark.parametrize("n", [601, 600])
    def test_susy_normal_form_and_partner_fold(self, n, dstebz_offdiags):
        from gupmdm.susy import partner_sl

        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        grid = normal_form_grid(eps, n)
        spec = solve_sl(normal_form_sl(eps, grid), 5)
        # Seeded with the original's levels 1..4, as `partner_check` seeds it.
        partner = solve_sl(partner_sl(eps, grid), 4, spec.eigenvalues[1:])
        assert [junction(e) for e in dstebz_offdiags] == [0.0, 0.0]
        assert_parity(spec)
        assert_parity(partner)

    # verify susy's 8 dstebz calls are all counts (range "V") certifying the
    # seeded grids, one per tau, problem and grid; none bisects.
    @pytest.mark.parametrize("suite, solves", [("susy", 8), ("hermitize", 1)])
    def test_verify_suites_fold(self, suite, solves, dstebz_offdiags):
        from gupmdm.cli import VERIFY_SUITES

        assert all(check["passed"] for check in VERIFY_SUITES[suite]())
        assert [junction(e) for e in dstebz_offdiags] == [0.0] * solves

    def test_error_falls_with_refinement(self):
        # dstebz at abstol 0 stops at ulp * ||T||, which grows like 1/h^2; an
        # absolute tolerance lets the finer grid give the smaller error.
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        form = params.normal_form()

        def worst(n):
            lams, _, _ = solve_extrapolated(partial(normal_form_sl, form.eps),
                                           normal_form_grid(form.eps, n), 6)
            return max(abs(params.energy_from_eigenvalue(form.eigenvalue(mu))
                           / params.exact_energy(j) - 1.0) for j, mu in enumerate(lams))

        assert worst(4801) < worst(1201)


# A solve's Shooter (`cli.SHOOTING_STEPS`).
DEFAULT_STEPS = SHOOTING_STEPS


def step_matrices(shooter, lam):
    """Entries (a, b, c, d) of a Shooter's RK4 step matrices [[a, b], [c, d]]
    at lam, edge to centre, read off its band of -M_k (`Shooter._band`):
      a = 1 + nu a1 + nu^2 a2,  b = b0 + nu b1,
      c = nu c1 + nu^2 c2,      d = 1 + nu d1 + nu^2 d2,  nu = lam - mu_0."""
    return _entries(shooter._band(lam - shooter.mu0))


def _entries(band):
    """(a, b, c, d) of every step, read off a band of -M_k."""
    return -band[2, :-2:2], -band[1, 1:-2:2], -band[3, :-2:2], -band[2, 1:-2:2]


def exact_lambda(params, n):
    """The model's closed-form lam_n."""
    return params.eigenvalue_from_energy(params.exact_energy(n))


# The barrier band: at Swanson (2, 0.3, 0.1) and tau = 0.6, eps^2 = 6.5 > 2
# and kappa = 0.65 < 1, so the normal form's q is a barrier with its top at
# the centre, where the sweeps meet.
BARRIER_EPS = SwansonParams(2.0, 0.3, 0.1, 0.6).normal_form().eps


class TestShooting:
    # At (tau, omega) = (0, 1) the normal form is -y'' + x^2 y = mu y, shot on
    # the box [-12, 12] with lam = mu; the exact levels are lam_n = 2n + 1.
    def test_ground_state(self):
        params = GupOscillatorParams(1.0, 0.0)
        form = params.normal_form()
        rep = shooting_eigenvalue(Shooter(form.eps, 600), 0)
        assert form.eigenvalue(rep.eigenvalue) == pytest.approx(exact_lambda(params, 0), abs=1e-7)
        assert rep.mismatch <= ANGLE_TOL

    def test_third_excited(self):
        params = GupOscillatorParams(1.0, 0.0)
        form = params.normal_form()
        rep = shooting_eigenvalue(Shooter(form.eps, DEFAULT_STEPS), 3)
        assert form.eigenvalue(rep.eigenvalue) == pytest.approx(exact_lambda(params, 3), abs=1e-6)
        assert rep.mismatch <= ANGLE_TOL

    def test_cross_method_deformed(self):
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        form = params.normal_form()
        mus, _, _ = solve_extrapolated(partial(normal_form_sl, form.eps),
                                       normal_form_grid(form.eps, 1201), 6)
        shooter = Shooter(form.eps, DEFAULT_STEPS)
        for n, mu in enumerate(mus.tolist()):
            lam = form.eigenvalue(mu)
            shot = form.eigenvalue(shooting_eigenvalue(shooter, n).eigenvalue)
            assert abs(lam - shot) <= 1e-6 * max(1.0, abs(lam))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            shooting_eigenvalue(Shooter(0.0, 25), -1)

    def test_solver_error_lives_in_core(self):
        assert solver.SolverError is core.SolverError
        assert issubclass(BracketError, core.SolverError)

    def test_levels_isolated_in_few_sweeps(self):
        # The CLI default at (tau, omega) = (0.05, 1).
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        for n in range(6):
            assert shooting_eigenvalue(Shooter(eps, DEFAULT_STEPS), n).iterations <= 20

    def test_iterations_sum_to_distinct_sweeps(self, monkeypatch):
        sweeps = []
        sweep = Shooter._sweep
        monkeypatch.setattr(Shooter, "_sweep", lambda self, lam:
                            sweeps.append(lam) or sweep(self, lam))
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        shooter = Shooter(eps, 600)
        total = sum(shooting_eigenvalue(shooter, n).iterations for n in range(6))
        # One angle is one half-box sweep, from the edge to the centre.
        assert len(sweeps) == total
        assert len(set(sweeps)) == total == shooter.sweeps

    def test_shared_shooter_sweep_budget(self):
        # The CLI default at (tau, omega) = (0.05, 1): 30 sweeps for six levels
        # unseeded; the node-count and Wronskian search took 77.
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        shooter = Shooter(eps, DEFAULT_STEPS)
        assert sum(shooting_eigenvalue(shooter, n).iterations for n in range(6)) <= 50

    def test_levels_order_independent(self):
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        shooter = Shooter(eps, DEFAULT_STEPS)
        shared = {n: shooting_eigenvalue(shooter, n).eigenvalue for n in range(5, -1, -1)}
        for n, lam in shared.items():
            fresh = shooting_eigenvalue(Shooter(eps, DEFAULT_STEPS), n).eigenvalue
            assert lam == pytest.approx(fresh, rel=1e-10)

    def test_angle_straddles_target_at_eigenvalue(self):
        rep = shooting_eigenvalue(Shooter(0.0, DEFAULT_STEPS), 3)
        assert rep.eigenvalue == pytest.approx(7.0, abs=1e-6)
        assert rep.mismatch <= ANGLE_TOL
        shooter = Shooter(0.0, DEFAULT_STEPS)
        assert shooter.angle(rep.eigenvalue * (1 - 1e-8)) < 4 * math.pi
        assert shooter.angle(rep.eigenvalue * (1 + 1e-8)) > 4 * math.pi

    def test_half_angle_continuous_across_node(self):
        # u rounding to 0 just before and just after the third node, v < 0:
        # both sides are 3 pi, though atan2 gives pi on the first.
        assert _half_angle(1e-300, -1.0, 2) == pytest.approx(3 * math.pi)
        assert _half_angle(-1e-300, -1.0, 3) == pytest.approx(3 * math.pi)
        assert _half_angle(0.5, 0.5, 0) == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("angle, message", [
        (lambda lam: 0.5, "no angle above"),                   # never reaches 2 pi
        (lambda lam: 0.5 if lam < 2.0 else 10.0, "misses"),    # jumps over it
    ], ids=["no-bracket", "jump"])
    def test_bracket_error(self, monkeypatch, angle, message):
        # Flat pieces have slope 0, so no step is Newton's.
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (angle(lam), 0.0))
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        with pytest.raises(BracketError, match=message):
            shooting_eigenvalue(Shooter(eps, 100), 1)

    def test_step_cap(self, monkeypatch):
        # Theta = pi + atan(lam - 1.3) is bracketed by the second step, but
        # MAX_STEPS = 2 ends the search before it converges.
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam:
                            (math.pi + math.atan(lam - 1.3), 1.0 / (1.0 + (lam - 1.3) ** 2)))
        monkeypatch.setattr(solver, "MAX_STEPS", 2)
        with pytest.raises(BracketError, match="no root of Theta = 3.14159 after 2 steps"):
            shooting_eigenvalue(Shooter(0.0, 25), 0)

    def test_level_zero_is_ground_level_by_construction(self):
        # At nu = 0 every step matrix keeps (g, P) = (1, 0), so Theta(mu_0) is
        # pi to the bit and level 0 is mu_0 whatever the box or the steps.
        for eps in (0.0, 0.22, 1.2, BARRIER_EPS):
            shooter = Shooter(eps, 100)
            a, b, c, d = step_matrices(shooter, shooter.mu0)
            assert np.all(a == 1.0) and np.all(c == 0.0)
            assert shooter.angle(shooter.mu0) == math.pi
            assert shooting_eigenvalue(shooter, 0).eigenvalue == shooter.mu0

    def test_no_level_above_rk4_stability_bound(self):
        # On h = 0.4 the reach is mu_0 + 2.5/h^2 = 16.625 (Theta stops being
        # monotone at nu h^2 = 2.9 on these 30 steps). Level 7, mu_7 = 15, is
        # 16.997 on this box, past the reach.
        shooter = Shooter(0.0, 30)
        reach = shooter.mu0 + solver.RK4_REACH / shooter.h**2
        assert reach == pytest.approx(16.625)
        found = {}
        for n in range(0, 25, 3):
            with contextlib.suppress(BracketError):
                found[n] = shooting_eigenvalue(shooter, n).eigenvalue
        assert sorted(found) == [0, 3, 6]
        assert max(shooter._angles) <= reach

    @pytest.mark.parametrize("n", [8, 60])
    def test_bracket_error_at_rk4_stability_bound(self, n):
        # h = 0.8: no angle below mu_0 + 2.5/h^2 = 4.90625 reaches (n + 1) pi.
        shooter = Shooter(0.0, 15)
        with pytest.raises(BracketError, match="below RK4's stability bound"):
            shooting_eigenvalue(shooter, n, start=1e3)
        assert max(shooter._angles) == shooter.mu0 + solver.RK4_REACH / shooter.h**2

    def test_start_far_below_ground_level(self):
        # No sweep goes below mu_0: from a start of -1e4, which overflowed a
        # sweep and ended in a BracketError, the search begins at mu_0 and
        # finds the unseeded root to the bit.
        ref = shooting_eigenvalue(Shooter(0.0, DEFAULT_STEPS), 3)
        shooter = Shooter(0.0, DEFAULT_STEPS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = shooting_eigenvalue(shooter, 3, start=-1e4)
        assert rep.eigenvalue == ref.eigenvalue
        assert min(shooter._angles) == shooter.mu0

    @pytest.mark.parametrize("eps", [0.0, 0.22])
    def test_start_just_below_ground_level(self, eps):
        # A matrix level 0 a little below mu_0 starts the search at mu_0,
        # where Theta = pi exactly: level 0 is mu_0 in one sweep.
        shooter = Shooter(eps, DEFAULT_STEPS)
        rep = shooting_eigenvalue(shooter, 0, start=shooter.mu0 * (1 - 1e-11))
        assert (rep.eigenvalue, rep.iterations) == (shooter.mu0, 1)

    def test_slow_newton_hands_over_to_bracket(self):
        # On h = 0.2 the doubling search for level 21 reaches mu_0 + 2.5/h^2 =
        # 63.5, where Pruefer's identity gives a slope tens of times the
        # discrete Theta's. Newton from there crept down by ever shorter steps,
        # 100 sweeps without the root 45.707; a step more than half the last
        # is the bracket's instead, and the fresh search meets the shared one.
        shared = Shooter(0.0, 60)
        levels = [shooting_eigenvalue(shared, n).eigenvalue for n in range(23)]
        for n in (21, 22):
            rep = shooting_eigenvalue(Shooter(0.0, 60), n)
            assert rep.eigenvalue == pytest.approx(levels[n], rel=1e-10)
            assert rep.iterations <= 40

    @pytest.mark.parametrize("tau, omega", [(0.05, 1.0), (0.1, 2.0)])
    def test_closed_form_on_wide_box(self, tau, omega):
        # Kempf-Mangano-Mann: E_n = omega[(n+1/2)(sqrt(1+g^2/4)+g/2) + g n^2/2],
        # g = tau omega. The Shooter's box ends where R = e^-72, short of
        # pi/(2 eps) here; what it drops changes no level.
        params = GupOscillatorParams(omega=omega, tau=tau)
        form = params.normal_form()
        shooter = Shooter(form.eps, 2400)
        assert shooter.grid.p_max == normal_form_grid(form.eps, 5).p_max < math.pi / (2 * form.eps)
        gam = tau * omega
        for n in range(6):
            exact = omega * ((n + 0.5) * (math.sqrt(1 + gam * gam / 4) + gam / 2)
                             + gam * n * n / 2)
            lam = form.eigenvalue(shooting_eigenvalue(shooter, n).eigenvalue)
            assert params.energy_from_eigenvalue(lam) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("params", [GupOscillatorParams(1.0, tau) for tau in (1.2, 4.0, 20.0)]
                         + [SwansonParams(2.0, 0.3, 0.1, tau) for tau in (0.3, 0.5, 0.6)],
                         ids=repr)
def test_shooting_alone_meets_closed_form_where_kappa_at_most_2(params):
    # Where kappa = 1/2 + 1/eps^2 <= 2 the box is the whole interval and the
    # ends decide the spectrum. Shooting in g = y/R starts from the principal
    # solution there, and levels 1-5 meet the closed form within 2e-8 on a
    # solve's steps. Level 0 is mu_0 by construction (g = 1 solves nu = 0
    # exactly), so shooting does not check it.
    form = params.normal_form()
    assert 0.5 + 1.0 / form.eps2 <= 2.0
    shooter = Shooter(form.eps, DEFAULT_STEPS)
    exact = form.exact_levels(6)
    shot = np.array([shooting_eigenvalue(shooter, n).eigenvalue for n in range(6)])
    assert shot[0] == shooter.mu0
    assert np.max(np.abs(shot[1:] / exact[1:] - 1.0)) <= 2e-8


def _normal_form_levels(params, k=6):
    """Richardson values of the default `solve`'s matrix path."""
    eps = params.normal_form().eps
    return solve_extrapolated(partial(normal_form_sl, eps), normal_form_grid(eps, 1201), k)[0]


def default_shooter(params):
    """The default `solve`'s Shooter."""
    return Shooter(params.normal_form().eps, DEFAULT_STEPS)


# The acceptance points: TAUS x OMEGAS, and Swanson (2, 0.3, 0.1) at three taus.
ACCEPTANCE_POINTS = (
    [GupOscillatorParams(omega, tau) for tau in (0.0, 0.01, 0.05, 0.1)
     for omega in (0.5, 1.0, 2.0)]
    + [SwansonParams(2.0, 0.3, 0.1, tau) for tau in (0.0, 0.05, 0.2)]
)


class TestSeededShooting:
    # Swanson at tau = 0.6 has eps^2 > 2, so q is large and negative at the
    # ends and the unseeded bracket is wide; the tolerance must not follow it.
    @pytest.mark.parametrize("params", ACCEPTANCE_POINTS + [SwansonParams(2.0, 0.3, 0.1, 0.6)],
                             ids=repr)
    def test_seeded_matches_unseeded(self, params):
        mus = _normal_form_levels(params)
        seeded, plain = default_shooter(params), default_shooter(params)
        for n, mu in enumerate(mus.tolist()):
            rep = shooting_eigenvalue(seeded, n, start=mu)
            ref = shooting_eigenvalue(plain, n).eigenvalue
            assert rep.eigenvalue == pytest.approx(ref, rel=2e-10, abs=0)
            assert rep.mismatch <= ANGLE_TOL

    def test_sweep_budget(self):
        # Six levels at (tau, omega) = (0.05, 1) on the default steps: 30
        # sweeps unseeded, 8 from the matrix eigenvalues ([1, 1, 1, 1, 2, 2]).
        params = GupOscillatorParams(1.0, 0.05)
        mus = _normal_form_levels(params)
        shooter = default_shooter(params)
        total = sum(shooting_eigenvalue(shooter, n, start=mu).iterations
                    for n, mu in enumerate(mus.tolist()))
        assert total == shooter.sweeps <= 14

    @pytest.mark.parametrize("params, steps", [
        (SwansonParams(2.0, 0.3, 0.1, 0.05), 600),
        (GupOscillatorParams(1.0, 1.2), 600),
        # eps ~ 0.13, where the y-form's state passed 1e100; g stays of
        # order 1.
        (GupOscillatorParams(1.0, 0.017), 2400),
        # eps^2 > 2: q is a barrier, its top at the centre where the sweep ends.
        (SwansonParams(2.0, 0.3, 0.1, 0.6), 600),
    ], ids=repr)
    def test_sweep_slope_matches_angle(self, params, steps, monkeypatch):
        # The sweep's dTheta/dlambda (Pruefer's identity) against a central
        # difference of Theta, at the eigenvalues and between them.
        eps = params.normal_form().eps
        mus, _, _ = solve_extrapolated(partial(normal_form_sl, eps),
                                       normal_form_grid(eps, 2 * steps + 1), 3)
        shooter = Shooter(eps, steps)
        solves = []
        dtbtrs = solver.dtbtrs
        monkeypatch.setattr(solver, "dtbtrs", lambda *args, **kwargs:
                            solves.append(args) or dtbtrs(*args, **kwargs))
        for lam in [*mus.tolist(), *(1.03 * mu + 0.1 for mu in mus.tolist())]:
            d = 1e-6 * lam
            fd = (shooter.angle(lam + d) - shooter.angle(lam - d)) / (2 * d)
            shooter.angle(lam)                         # memoizes (Theta, slope)
            assert shooter._angles[lam][1] == pytest.approx(fd, rel=1e-4)
        # One banded solve per angle.
        assert len(solves) == shooter.sweeps

    @pytest.mark.parametrize("bad", ["next-level", "floor", "zero-slope", "inf-slope",
                                     "steep-slope", "negative-slope", "nan-slope"])
    def test_bad_start_recovers(self, bad, monkeypatch):
        # Level 2 at (0.05, 1) from a start that is wrong in one way each:
        # another level's eigenvalue, mu_0, or a sweep at the start that
        # reports a wrong slope.
        params = GupOscillatorParams(1.0, 0.05)
        mus = _normal_form_levels(params, k=4)
        n = 2
        ref = shooting_eigenvalue(default_shooter(params), n)
        # At steep-slope the first step is tiny, so only the angle check keeps
        # the search from stopping at lam0, off the root.
        lam0 = {"next-level": mus[n + 1], "floor": default_shooter(params).mu0,
                "steep-slope": mus[n] * (1 + 1e-5)}.get(bad, mus[n])
        slope = {"zero-slope": 0.0, "inf-slope": math.inf, "steep-slope": 1e12,
                 "negative-slope": -1.0, "nan-slope": math.nan}.get(bad)
        if slope is not None:
            angle = Shooter._angle
            monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (
                (angle(self, lam)[0], slope) if lam == lam0 else angle(self, lam)))
        rep = shooting_eigenvalue(default_shooter(params), n, start=lam0)
        assert rep.eigenvalue == pytest.approx(ref.eigenvalue, rel=2e-10, abs=0)
        assert rep.mismatch <= ANGLE_TOL
        # No worse than no start at all. From the next level's eigenvalue the
        # Newton step would land just above mu_0; the search takes the false
        # position on (mu_0, start) instead.
        assert rep.iterations <= ref.iterations

    def test_step_out_of_bracket_bisects(self, monkeypatch):
        # Theta = pi + atan(lam - 2) with angles known at 1.9 and 2.1: from
        # 2.05, a slope far too shallow sends the Newton step out of (1.9, 2.1).
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (
            math.pi + math.atan(lam - 2.0),
            1e-3 if lam == 2.05 else 1.0 / (1.0 + (lam - 2.0) ** 2)))
        shooter = Shooter(0.0, 25)
        shooter.angle(1.9), shooter.angle(2.1)
        rep = shooting_eigenvalue(shooter, 0, start=2.05)
        swept = list(shooter._angles)
        # The step after 2.05 bisects its bracket (1.9, 2.05).
        assert swept[2:4] == [2.05, pytest.approx(1.975)]
        # Nothing swept outside (1.9, 2.1), not even the bracket's base mu_0 = 1.
        assert all(1.9 <= lam <= 2.1 for lam in swept)
        assert rep.eigenvalue == pytest.approx(2.0, abs=1e-9)

    def test_bracket_error_when_seeded(self, monkeypatch):
        # Theta never reaches the target: the seeded search stalls, and the
        # fallback raises as it does unseeded.
        params = GupOscillatorParams(1.0, 0.05)
        mus = _normal_form_levels(params, k=2)
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (0.5, 0.0))
        with pytest.raises(BracketError, match="no angle above"):
            shooting_eigenvalue(default_shooter(params), 1, start=mus[1])


def _ground_state_samples(eps, x):
    """R^2 at the nodes x and at the midpoints of their steps."""
    return ground_state_sq(eps, x), ground_state_sq(eps, 0.5 * (x[:-1] + x[1:]))


def _left_nodes(shooter):
    """The nodes a Shooter sweeps: its box's left half, edge to centre."""
    return shooter.grid.points[:shooter.grid.n // 2 + 1]


def _scalar_rk4_step(w_n, w_m, h, nu, i, j, g, p):
    """RK4 step of g' = P / w, P' = -nu w g (w = R^2), from node i to the
    neighbouring node j in either direction, one float at a time. w_n holds
    w at the nodes, w_m at the step midpoints (w_m[k] between nodes k, k+1).
    P / w is taken as 0 where P = 0, as at the start (1, 0) on an exact end,
    where w = 0."""
    h = h * (j - i)

    def f(w, g, p):
        return (p / w if p else 0.0), -nu * w * g

    w0, wm, w1 = w_n[i], w_m[min(i, j)], w_n[j]
    k1g, k1p = f(w0, g, p)
    k2g, k2p = f(wm, g + h / 2 * k1g, p + h / 2 * k1p)
    k3g, k3p = f(wm, g + h / 2 * k2g, p + h / 2 * k2p)
    k4g, k4p = f(w1, g + h * k3g, p + h * k3p)
    return (g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g),
            p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))


@pytest.mark.parametrize("eps", [0.0, 0.22, 1.2, pytest.param(BARRIER_EPS, id="barrier")])
def test_step_matrix_matches_scalar_rk4(eps):
    shooter = Shooter(eps, 100)
    lam = 4.7
    nu = lam - shooter.mu0
    mats = step_matrices(shooter, lam)
    assert all(m.size == 100 for m in mats)
    w_n, w_m = (w.tolist() for w in _ground_state_samples(eps, _left_nodes(shooter)))
    for k in (0, 1, 57, 98, 99):
        # Step 0 acts on the start (1, 0) alone.
        u, v = (1.0, 0.0) if k == 0 else (0.6, -1.3)
        expected = _scalar_rk4_step(w_n, w_m, shooter.h, nu, k, k + 1, u, v)
        a, b, c, d = (m[k] for m in mats)
        got = (a * u + b * v, c * u + d * v)
        scale = max(abs(x) for x in expected)
        assert max(abs(x - y) for x, y in zip(got, expected)) <= 1e-14 * scale


# At 0.9 and in the barrier band the box ends are the singular points, R = 0.
@pytest.mark.parametrize("eps", [0.13, 0.9, pytest.param(BARRIER_EPS, id="barrier")])
def test_step_matrix_matches_scalar_rk4_on_every_step(eps):
    shooter = Shooter(eps, 1200)
    w_n, w_m = (w.tolist() for w in _ground_state_samples(eps, _left_nodes(shooter)))
    for nu in (-10.0, 3.0, 1e3, 1e5):
        mats = step_matrices(shooter, shooter.mu0 + nu)
        assert all(m.size == 1200 for m in mats)
        for k, (a, b, c, d) in enumerate(zip(*(m.tolist() for m in mats))):
            u, v = (1.0, 0.0) if k == 0 else (0.6, -1.3)
            u1, v1 = _scalar_rk4_step(w_n, w_m, shooter.h, nu, k, k + 1, u, v)
            # Each component against the size of the terms that make it up.
            assert abs(a * u + b * v - u1) <= 1e-12 * (abs(a * u) + abs(b * v))
            assert abs(c * u + d * v - v1) <= 1e-12 * (abs(c * u) + abs(d * v))


def _general_step_matrices(h, nodes, mids, lam):
    """The RK4 step matrices of -(c y')' + q y = lam w y by the closed form for
    any c and w (al = 1/c, g = q - lam w, s = al_m g_m), summed in its order;
    `nodes` and `mids` hold the columns (c, q, w) at the nodes and at the step
    midpoints."""
    (c, q, w), (c_m, q_m, w_m) = nodes, mids
    with np.errstate(divide="ignore"):
        al, al_m = 1.0 / c, 1.0 / c_m
    g, g_m = q - lam * w, q_m - lam * w_m
    g0, g1, al0, al1 = g[:-1], g[1:], al[:-1], al[1:]
    s = al_m * g_m
    h2, h3, h4 = h * h / 6.0, h**3 / 12.0 * s, h**4 / 24.0 * s
    with np.errstate(invalid="ignore"):
        return (1.0 + h2 * (al_m * g0 + s + al1 * g_m) + h4 * al1 * g0,
                h / 6.0 * (al0 + 4.0 * al_m + al1) + h3 * (al0 + al1),
                h / 6.0 * (g0 + 4.0 * g_m + g1) + h3 * (g0 + g1),
                1.0 + h2 * (g_m * al0 + s + g1 * al_m) + h4 * g1 * al0)


@pytest.mark.parametrize("eps", [0.0, 0.13, 0.2, 0.9, pytest.param(BARRIER_EPS, id="barrier")])
def test_step_matrices_equal_general_closed_form(eps):
    # (c, q, w) = (R^2, 0, R^2) with R^2 exact at the midpoints, at lam = nu:
    # every entry bit for bit, but step 0's b and d, which hold 1/R^2 at the
    # edge (inf at an exact end) and which the sweep never applies. Each nu is
    # a power of 2, so that the Shooter's nu^k times a coefficient rounds as
    # the closed form's product with g = -nu w does (`Shooter.__init__`).
    shooter = Shooter(eps, 1200)
    w, w_m = _ground_state_samples(eps, _left_nodes(shooter))
    for nu in (-8.0, 4.0, 1024.0, 65536.0):
        want = _general_step_matrices(shooter.h, (w, 0 * w, w), (w_m, 0 * w_m, w_m), nu)
        for j, (got, ref) in enumerate(zip(_entries(shooter._band(nu)), want)):
            first = 1 if j in (1, 3) else 0
            assert np.array_equal(got[first:], ref[first:])


def _loop_sweep(step, m, w, h):
    """Reference for `Shooter._sweep`: m steps (g, P) = step(k, g, P) from
    (1, 0), one at a time on Python floats, with R^2 g^2 summed node by node
    (w holds R^2 at the m + 1 nodes; the first and the last at half weight)."""
    u, v = 1.0, 0.0
    nodes = 0
    norm = 0.5 * w[0]
    negative = False         # sign of the last nonzero g
    for k in range(m):
        u, v = step(k, u, v)
        norm += w[k + 1] * u * u * (0.5 if k == m - 1 else 1.0)
        if u < 0.0:
            if negative is False:
                nodes += 1
            negative = True
        elif u > 0.0:
            if negative:
                nodes += 1
            negative = False
    return u, v, nodes, h * norm


def _matrix_steps(shooter, lam):
    """`_loop_sweep`'s step: the Shooter's step matrices at lam."""
    a, b, c, d = (m.tolist() for m in step_matrices(shooter, lam))
    return lambda k, u, v: (a[k] * u + b[k] * v, c[k] * u + d[k] * v)


# (eps, half-steps).
SWEEP_CASES = (
    [pytest.param(eps, steps, id=f"eps{eps}-steps{steps}")
     for eps in (0.0, 0.13, 0.45, 0.9) for steps in (100, 1200)]
    + [pytest.param(0.0, 600, id="eps0.0-steps600"),
       pytest.param(BARRIER_EPS, 600, id="barrier")]
)
SWEEP_OFFSETS = [-10.0, -1.0, 0.0, 0.5, 2.0, 10.0, 1e2, 1e3, 3e3, 1e4]


def _sweep_lambdas(shooter):
    """mu_0 plus each of SWEEP_OFFSETS below the reach RK4_REACH / h^2, and the
    reach itself: no search sweeps above it."""
    reach = solver.RK4_REACH / shooter.h**2
    return [shooter.mu0 + x for x in SWEEP_OFFSETS if x < reach] + [shooter.mu0 + reach]


@pytest.mark.parametrize("eps, steps", SWEEP_CASES)
def test_sweep_matches_loop(eps, steps, monkeypatch):
    shooter = Shooter(eps, steps)
    w = ground_state_sq(eps, _left_nodes(shooter)).tolist()
    solves = []
    dtbtrs = solver.dtbtrs
    monkeypatch.setattr(solver, "dtbtrs", lambda *args, **kwargs:
                        solves.append(args) or dtbtrs(*args, **kwargs))
    for lam in _sweep_lambdas(shooter):
        solves.clear()
        u, v, nodes, norm = shooter._sweep(lam)
        u_ref, v_ref, nodes_ref, norm_ref = _loop_sweep(
            _matrix_steps(shooter, lam), steps, w, shooter.h)
        assert nodes == nodes_ref
        assert norm == pytest.approx(norm_ref, rel=1e-12)
        # The angle between the two final states, and their lengths.
        assert abs(math.atan2(u * v_ref - v * u_ref, u * u_ref + v * v_ref)) <= 1e-12
        assert math.hypot(u, v) == pytest.approx(math.hypot(u_ref, v_ref), rel=1e-12)
        # The whole sweep is one banded solve.
        assert len(solves) == 1


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.13, 0.45, 0.9, 1.2,
                                 pytest.param(BARRIER_EPS, id="barrier")])
@pytest.mark.parametrize("steps", [30, 100, 600, DEFAULT_STEPS, 2400])
def test_state_stays_small_up_to_reach(eps, steps):
    # From (1, 0), 1e-120 <= |g| + |P| <= 20 at every node for 0 <= nu <=
    # RK4_REACH / h^2, where every search sweeps (the y-form's state passed
    # 1e100 at eps = 0.13): a sweep needs no rescale to stay in range.
    shooter = Shooter(eps, steps)
    for nu in np.linspace(0.0, solver.RK4_REACH / shooter.h**2, 25):
        a, b, c, d = step_matrices(shooter, shooter.mu0 + nu)
        u, v, peak, floor = 1.0, 0.0, 1.0, 1.0
        for k in range(steps):
            u, v = a[k] * u + b[k] * v, c[k] * u + d[k] * v
            peak, floor = max(peak, abs(u) + abs(v)), min(floor, abs(u) + abs(v))
        assert peak <= 20.0
        assert floor >= 1e-120


def test_slope_of_underflowed_state_is_inf():
    # On 4800 half-steps the state at the reach falls to 1e-197, so g^2 + P^2
    # underflows to 0: the angle is finite and its slope inf, which sends the
    # root search to its bracket, not a division by zero.
    shooter = Shooter(0.0, 4800)
    reach = shooter.mu0 + solver.RK4_REACH / shooter.h**2
    theta = shooter.angle(reach)
    assert math.isfinite(theta) and theta > shooter.angle(0.9 * reach)
    assert shooter._angles[reach][1] == math.inf


def _two_sided_angle(eps, steps, lam):
    """Reference for `Shooter._angle`: explicit scalar RK4 sweeps
    (`_scalar_rk4_step`) from both edges of the box to the centre node, each
    from (g, P) = (1, 0), the right one leftward, on R^2 over the whole box.

    Returns both node counts, Theta = theta_L + theta_R with theta_R the
    angle of the right state mirrored in P, and the sum of both sides'
    dtheta/dlambda = int R^2 g^2 / (g^2 + P^2)."""
    shooter = Shooter(eps, steps)
    nu, h, last = lam - shooter.mu0, shooter.h, 2 * steps
    w_n, w_m = (w.tolist() for w in _ground_state_samples(eps, shooter.grid.points))
    u_l, v_l, n_l, s_l = _loop_sweep(
        lambda k, u, v: _scalar_rk4_step(w_n, w_m, h, nu, k, k + 1, u, v), steps, w_n, h)
    u_r, v_r, n_r, s_r = _loop_sweep(
        lambda k, u, v: _scalar_rk4_step(w_n, w_m, h, nu, last - k, last - k - 1, u, v),
        steps, w_n[::-1], h)
    return (n_l, n_r, _half_angle(u_l, v_l, n_l) + _half_angle(u_r, -v_r, n_r),
            s_l / (u_l * u_l + v_l * v_l) + s_r / (u_r * u_r + v_r * v_r))


MIRROR_CASES = (
    [pytest.param(eps, steps, id=f"eps{eps}-steps{steps}")
     for eps in (0.0, 0.13, 0.45, 0.9) for steps in (100, 1200)]
    + [pytest.param(BARRIER_EPS, 600, id="barrier")]
)


@pytest.mark.parametrize("eps, steps", MIRROR_CASES)
def test_mirrored_angle_matches_two_sided(eps, steps):
    # The angle from one left half-sweep against scalar sweeps from both
    # edges, below mu_0 and up to the reach.
    shooter = Shooter(eps, steps)
    for lam in _sweep_lambdas(shooter):
        theta, slope = shooter._angle(lam)
        n_l, n_r, two_sided, two_sided_slope = _two_sided_angle(eps, steps, lam)
        assert n_l == n_r
        assert abs(theta - two_sided) <= 1e-12
        assert slope == pytest.approx(two_sided_slope, rel=1e-10)


@pytest.mark.parametrize("steps", [0, -3])
def test_rejects_fewer_than_one_step(steps):
    with pytest.raises(ValueError, match="at least 1 half-step"):
        Shooter(0.0, steps)


def test_one_step():
    # One RK4 step from the edge to the centre: a sweep is the start alone.
    shooter = Shooter(0.0, 1)
    assert shooter.grid.n == 3 and all(m.size == 1 for m in step_matrices(shooter, 1.0))
    u, v, nodes, norm = shooter._sweep(3.0)
    a, b, c, d = step_matrices(shooter, 3.0)
    assert (u, v, nodes) == (a[0], c[0], int(a[0] < 0))


def _recorded_calls(monkeypatch, name):
    """Every call the test then makes to `solver.<name>`: its inputs, copied
    before the call (dtbtrs overwrites its right-hand side), and its outputs."""
    calls = []

    def spy(*args, **kwargs):
        inputs = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        out = real(*args, **kwargs)
        calls.append((inputs, kwargs, out))
        return out

    real = getattr(solver, name)
    monkeypatch.setattr(solver, name, spy)
    return calls


LAPACK_EPS = 0.2
LAPACK_SLP = normal_form_sl(LAPACK_EPS, normal_form_grid(LAPACK_EPS, 201))


def _one_sweep():
    shooter = Shooter(LAPACK_EPS, 100)
    shooter._sweep(shooter.mu0 + 2.0)


@pytest.mark.parametrize("name, run", [
    # A folded pencil: bisection for levels 1..4 (range "I") to ABSTOL ...
    ("dstebz", lambda: eigen_solve(discretize(LAPACK_SLP), 4)),
    # ... then inverse iteration on dstebz's output.
    ("dstein", lambda: eigen_solve(discretize(LAPACK_SLP), 4).eigenfunctions),
    ("dtbtrs", _one_sweep),
], ids=["dstebz", "dstein", "dtbtrs"])
def test_lapack_routines_match_scipy_linalg(name, run, monkeypatch):
    # solver loads scipy's _flapack extension on its own; its routines must
    # give scipy.linalg.lapack's outputs to the bit.
    calls = _recorded_calls(monkeypatch, name)
    run()
    assert len(calls) == 1
    args, kwargs, out = calls[0]
    if name == "dstebz":
        assert junction(args[1]) == 0.0
        assert args[2] == 2 and args[7] == solver.ABSTOL
    expected = getattr(lapack, name)(*args, **kwargs)
    assert len(out) == len(expected)
    for got, want in zip(out, expected):
        assert np.array_equal(got, want)


def test_missing_flapack_is_import_error(tmp_path):
    # A directory without the extension fails at import, naming the directory.
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        solver._load_flapack(str(tmp_path))


class TestRichardson:
    def test_fixed_point(self):
        assert richardson(2.5, 2.5) == 2.5

    def test_cancels_h_squared_model(self):
        lam, k, h = 3.7, 0.9, 0.125
        assert richardson(lam + k * h * h, lam + k * (h / 2) ** 2) == pytest.approx(
            lam, abs=1e-14
        )

    def test_oscillator_ground_state(self):
        params = GupOscillatorParams(omega=1.0, tau=0.0)
        g1 = make_grid(-12, 12, 1201)
        e1 = solve_sl(p_space_sl(params, g1), 1).eigenvalues[0]
        e2 = solve_sl(p_space_sl(params, g1.refined()), 1).eigenvalues[0]
        e = params.energy_from_eigenvalue(richardson(e1, e2))
        assert e == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("params", [
        GupOscillatorParams(omega=1.0, tau=0.05),
        SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.05),
    ])
    def test_solve_extrapolated_matches_per_level(self, params):
        g1 = make_grid(-10, 10, 601)
        lams, _, fine = solve_extrapolated(params.sl, g1, 4)
        coarse = solve_sl(params.sl(g1), 4)
        fine_slp = params.sl(g1.refined())
        # The fine levels, seeded by the coarse ones, are within ABSTOL of a
        # tighter bisection.
        ref = folded_levels(discretize(fine_slp), 4)
        assert np.max(np.abs(fine.eigenvalues - ref)) <= solver.ABSTOL
        assert lams.tolist() == [
            richardson(float(a), float(b))
            for a, b in zip(coarse.eigenvalues, fine.eigenvalues)
        ]


def max_inner_residual(params, phi, lam):
    # The largest |raw residual| on the inner region.
    r = params.raw_residual(phi, lam)
    return float(np.max(np.abs(r.values[inner_slice(phi.grid.n)])))


class TestResidual:
    def test_zero_function(self):
        g = make_grid(-6, 6, 201)
        phi = constant(g, 0.0)
        assert max_inner_residual(GupOscillatorParams(1.0, 0.1), phi, 1.0) == 0.0

    def test_exact_eigenpair_converges(self):
        params = GupOscillatorParams(omega=1.0, tau=0.0)
        res = []
        for n in (401, 801):
            g = make_grid(-10, 10, n)
            phi = sample(g, lambda p: np.exp(-0.5 * p * p))
            res.append(max_inner_residual(params, phi, 1.0))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.1)

    def test_random_pair_positive(self):
        g = make_grid(-6, 6, 201)
        rng = np.random.default_rng(7)
        phi = sample(g, lambda p: 0 * p) + rng.standard_normal(g.n)
        assert max_inner_residual(GupOscillatorParams(1.0, 0.1), phi, 0.37) > 1e-2


def test_order_of_accuracy_slope():
    # Eigenvalue error vs a converged reference scales as h^2.
    params = GupOscillatorParams(omega=1.0, tau=0.05)
    ref_g = make_grid(-12, 12, 9601)
    ref = solve_sl(p_space_sl(params, ref_g), 1).eigenvalues[0]
    hs, errs = [], []
    for n in (601, 1201, 2401):
        g = make_grid(-12, 12, n)
        e = solve_sl(p_space_sl(params, g), 1).eigenvalues[0]
        hs.append(g.h)
        errs.append(abs(e - ref))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def closed_form_eigenfunction(eps, grid, n):
    """y_n = cos^kappa(eps x) C_n^(kappa)(sin eps x), kappa = 1/2 + 1/eps^2,
    scaled to sum y^2 h = 1."""
    from scipy.special import eval_gegenbauer

    kappa = 0.5 + 1.0 / (eps * eps)
    x = grid.points
    # At the exact ends cos(eps x) can round below 0, where the power is nan.
    y = np.maximum(np.cos(eps * x), 0.0) ** kappa * eval_gegenbauer(n, kappa, np.sin(eps * x))
    return y / math.sqrt(float(np.sum(y * y)) * grid.h)


@pytest.mark.parametrize("params", [
    GupOscillatorParams(omega=1.0, tau=0.05),
    SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.2),
], ids=["oscillator", "swanson"])
def test_excited_eigenfunctions_match_closed_form_at_h_squared(params):
    """Levels 0-5 of the normal form against the Gegenbauer closed form.

    The eigenfunction takes the closed form's sign at its largest |y|, and the
    maximum error over levels and nodes falls by 4 per halving of h.
    Oscillator tau = 1.2 (kappa = 1.47) is left out: its eigenfunctions vanish
    only like d^kappa at distance d from the interval's ends, and the error
    falls only by 2^kappa = 2.77 per halving.
    """
    eps = params.normal_form().eps
    errs = []
    for n in (1201, 2401, 4801):
        grid = normal_form_grid(eps, n)
        spec = solve_sl(normal_form_sl(eps, grid), 6)
        worst = 0.0
        for level, phi in enumerate(spec.eigenfunctions):
            y = closed_form_eigenfunction(eps, grid, level)
            v = phi.values
            i = np.argmax(np.abs(y))
            if v[i] * y[i] < 0:
                v = -v
            worst = max(worst, float(np.max(np.abs(v - y))))
        errs.append(worst)
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 <= coarse / fine <= 4.4
