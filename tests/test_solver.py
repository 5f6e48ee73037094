import contextlib
import math
import re
from functools import partial

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal, lapack

from gupmdm import core
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
    gup_oscillator_sl,
    normal_form_grid,
    normal_form_sl,
    swanson_sl,
)
from gupmdm import solver
from gupmdm.solver import (
    ANGLE_TOL,
    BracketError,
    Shooter,
    _half_angle,
    _midpoint_spline,
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
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.3), make_grid(-8, 8, 201))
        pair = discretize(slp)
        assert pair.offdiag.shape == (pair.diag.size - 1,)
        assert np.all(pair.b_diag > 0)


class TestEigenSolve:
    def test_harmonic_spectrum(self):
        g = make_grid(-12, 12, 2401)
        params = GupOscillatorParams(omega=1.0, tau=0.0)
        spec = solve_sl(gup_oscillator_sl(params, g), 8)
        energies = [params.energy_from_eigenvalue(v) for v in spec.eigenvalues]
        # The O(h^2) discretization error grows roughly like lambda^2, so the
        # tolerance scales with the level index; extrapolated accuracy is
        # exercised in test_richardson_oscillator instead.
        for n, e in enumerate(energies):
            assert e == pytest.approx(n + 0.5, abs=2e-5 * (n + 1) ** 2)

    def test_swanson_tau_zero_spectrum(self):
        params = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)
        g = make_grid(-10, 10, 2401)
        spec = solve_sl(swanson_sl(params, g), 6)
        omega_bar = math.sqrt(3.88)
        assert omega_bar == pytest.approx(1.9697716, abs=1e-7)
        for n in range(6):
            e = params.energy_from_eigenvalue(spec.eigenvalues[n])
            assert e == pytest.approx((n + 0.5) * omega_bar, abs=2e-4)

    def test_orthonormal_under_weight(self):
        g = make_grid(-12, 12, 801)
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g)
        spec = solve_sl(slp, 5)
        for i in range(5):
            for j in range(i, 5):
                f, h = spec.eigenfunctions[i].values, spec.eigenfunctions[j].values
                ip = float(np.trapezoid(f * h * slp.w.values, dx=g.h))   # integral f h w dp
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_oscillation_theorem(self):
        g = make_grid(-12, 12, 801)
        spec = solve_sl(gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g), 6)
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
            e.append(solve_sl(gup_oscillator_sl(params, g), 6).eigenvalues)
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
    grid = pair.problem.grid
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
    (partial(gup_oscillator_sl, GupOscillatorParams(omega=2.0, tau=0.1)),
     make_grid(-50, 50, 4801), 10),
    (partial(swanson_sl, SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.05)),
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
    gup_oscillator_sl(GupOscillatorParams(omega=1.0, tau=0.05), make_grid(-3, 5, 977)),
    _normal_form_with_q(1201, 2.0),
    # On h = 0.4 an ulp of q is an ulp of the diagonal, so it reaches T.
    _normal_form_with_q(61, 1.0 + 2.0**-52),
    laplace_problem(3),
], ids=["asymmetric-box", "uneven-q", "uneven-q-ulp", "1-row-pencil"])
def test_eigen_solve_rejects_pencil_without_mirror_symmetry(slp):
    # Only an exact palindrome of at least 2 rows folds into half blocks.
    with pytest.raises(ValueError, match="palindromic pencil of at least 2 rows"):
        eigen_solve(discretize(slp), 1)


class TestLazyEigenvectors:
    @pytest.mark.parametrize("slp, k", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
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
        # solve_sl computes no vectors; solve_extrapolated computes one set,
        # on the fine pencil at the coarse eigenvalues, to seed its levels.
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        g = make_grid(-10, 10, 401)
        coarse = solve_sl(params.sl(g), 4)
        assert coarse.eigenvalues.size == 4
        assert dstein_calls == []
        lams, _, fine = solve_extrapolated(params.sl, g, 4)
        assert lams.size == fine.eigenvalues.size == 4
        [(d, _, w, _, _)] = dstein_calls
        assert d.size == g.refined().n - 2
        assert sorted(w) == coarse.eigenvalues.tolist()

    def test_eigenfunctions_computed_once(self, dstein_calls):
        spec = solve_sl(laplace_problem(), 3)
        first = spec.eigenfunctions
        assert spec.eigenfunctions is first
        assert len(dstein_calls) == 1

    @pytest.mark.parametrize("seeded", [False, True], ids=["bisected", "seeded"])
    @pytest.mark.parametrize("slp, k", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
    def test_ground_state_alone_is_first_eigenfunction(self, slp, k, seeded, dstein_calls):
        # ground_state runs dstein at level 0 alone. Level 0 leads dstein's
        # block order, so its random start vector is the one it gets among
        # all k, and the bits are eigenfunctions[0]'s.
        pair = discretize(slp)
        near = eigen_solve(pair, k).eigenvalues + 1e-3 if seeded else None
        dstein_calls.clear()
        phi0 = eigen_solve(pair, k, near).ground_state
        assert dstein_calls[-1][2].size == 1
        assert np.array_equal(phi0.values, eigen_solve(pair, k, near).eigenfunctions[0].values)

    def test_ground_state_after_eigenfunctions_is_their_first(self, dstein_calls):
        spec = solve_sl(laplace_problem(), 3)
        first = spec.eigenfunctions[0]
        assert spec.ground_state is first
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
    # Levels 2..7 have the parities of 0..5: only dpttrf sees the two below.
    "levels-2-to-7": lambda near: (6, near[2:]),
    "another-problem": lambda near: (6, solve_sl(SYMMETRIC_CASES[2][0], 6).eigenvalues),
    "k-1": lambda near: (1, near[:1]),
}


class TestSeededSolve:
    @pytest.mark.parametrize("build, grid, k", SYMMETRIC_BUILDS, ids=SYMMETRIC_IDS)
    def test_coarse_levels_seed_fine_pencil(self, build, grid, k, dstebz_ranges):
        # Seeded with the coarse levels, the fine levels are certified Rayleigh
        # quotients: dstebz only counts over a range "V", bisects for none.
        near = solve_sl(build(grid), k).eigenvalues
        pair = discretize(build(grid.refined()))
        dstebz_ranges.clear()
        spec = eigen_solve(pair, k, near)
        assert dstebz_ranges == [1]
        assert np.max(np.abs(spec.eigenvalues - folded_levels(pair, k))) <= solver.ABSTOL
        for phi, ref in zip(spec.eigenfunctions, eigen_solve(pair, k).eigenfunctions):
            assert np.max(np.abs(phi.values - ref.values)) <= 1e-10 * np.max(np.abs(ref.values))

    @pytest.mark.parametrize("bad", BAD_SEEDS)
    def test_bad_seeds_give_unseeded_spectrum(self, bad, dstebz_ranges, dstein_calls):
        build, grid, _ = SYMMETRIC_BUILDS[0]
        k, near = BAD_SEEDS[bad](solve_sl(build(grid), 8).eigenvalues)
        pair = discretize(build(grid.refined()))
        plain = eigen_solve(pair, k)
        dstebz_ranges.clear()
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

    @pytest.mark.parametrize("noise, info", [(0.0, 1), (1e-9, 0)],
                             ids=["dstein-fails", "loose-vectors"])
    def test_bad_vectors_fall_back_to_bisection(self, monkeypatch, noise, info):
        # A dstein failure, or vectors whose Kato-Temple bound r^2 / gap
        # exceeds ABSTOL (noise 1e-9 gives r ~ 4e-3 against gaps ~ 2), gives
        # the bisected levels.
        build, grid, k = SYMMETRIC_BUILDS[0]
        near = solve_sl(build(grid), k).eigenvalues
        pair = discretize(build(grid.refined()))
        plain = eigen_solve(pair, k).eigenvalues

        def loose(d, *args):
            z, _ = real(d, *args)
            return z + noise * np.sin(np.arange(d.size))[:, None], info

        real = solver.dstein
        monkeypatch.setattr(solver, "dstein", loose)
        assert np.array_equal(eigen_solve(pair, k, near).eigenvalues, plain)

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
    def test_susy_demo_and_partner_fold(self, n, dstebz_offdiags):
        from gupmdm.susy import _partner_spectrum_on_grid

        spec, _, _, partner = _partner_spectrum_on_grid(0.05, make_grid(-14, 14, n), 4)
        assert [junction(e) for e in dstebz_offdiags] == [0.0, 0.0]
        assert_parity(spec)
        assert_parity(partner)

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


def normal_form_shooter(eps, n):
    """A Shooter on the normal form at eps on `normal_form_grid(eps, n)`."""
    return Shooter(normal_form_sl(eps, normal_form_grid(eps, n)).q)


def exact_lambda(params, n):
    """The model's closed-form lam_n."""
    return params.eigenvalue_from_energy(params.exact_energy(n))


# The barrier band: at Swanson (2, 0.3, 0.1) and tau = 0.6, eps^2 = 6.5 > 2
# and q has its maximum at the centre node, where the sweeps meet.
BARRIER_EPS = SwansonParams(2.0, 0.3, 0.1, 0.6).normal_form().eps


class TestShooting:
    # At (tau, omega) = (0, 1) the normal form is -y'' + x^2 y = mu y on
    # [-12, 12] with lam = mu; the exact levels are lam_n = 2n + 1.
    def test_ground_state(self):
        params = GupOscillatorParams(1.0, 0.0)
        form = params.normal_form()
        rep = shooting_eigenvalue(normal_form_shooter(form.eps, 1201), 0)
        assert form.eigenvalue(rep.eigenvalue) == pytest.approx(exact_lambda(params, 0), abs=1e-7)
        assert rep.mismatch <= ANGLE_TOL

    def test_third_excited(self):
        params = GupOscillatorParams(1.0, 0.0)
        form = params.normal_form()
        rep = shooting_eigenvalue(normal_form_shooter(form.eps, 1201), 3)
        assert form.eigenvalue(rep.eigenvalue) == pytest.approx(exact_lambda(params, 3), abs=1e-6)
        assert rep.mismatch <= ANGLE_TOL

    def test_cross_method_deformed(self):
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        form = params.normal_form()
        mus, fine_slp, _ = solve_extrapolated(partial(normal_form_sl, form.eps),
                                              normal_form_grid(form.eps, 1201), 6)
        shooter = Shooter(fine_slp.q)
        for n, mu in enumerate(mus.tolist()):
            lam = form.eigenvalue(mu)
            shot = form.eigenvalue(shooting_eigenvalue(shooter, n).eigenvalue)
            assert abs(lam - shot) <= 1e-6 * max(1.0, abs(lam))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            shooting_eigenvalue(normal_form_shooter(0.0, 51), -1)

    def test_solver_error_lives_in_core(self):
        assert solver.SolverError is core.SolverError
        assert issubclass(BracketError, core.SolverError)

    def test_levels_isolated_in_few_sweeps(self):
        # The CLI default at (tau, omega) = (0.05, 1): 1201 -> 2401 points.
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        q = normal_form_sl(eps, normal_form_grid(eps, 1201).refined()).q
        for n in range(6):
            assert shooting_eigenvalue(Shooter(q), n).iterations <= 20

    def test_iterations_sum_to_distinct_sweeps(self, monkeypatch):
        sweeps = []
        sweep = Shooter._sweep
        monkeypatch.setattr(Shooter, "_sweep", lambda self, lam:
                            sweeps.append(lam) or sweep(self, lam))
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        shooter = normal_form_shooter(eps, 1201)
        total = sum(shooting_eigenvalue(shooter, n).iterations for n in range(6))
        # One angle is one half-grid sweep, from node 0 to the centre.
        assert len(sweeps) == total
        assert len(set(sweeps)) == total == shooter.sweeps

    def test_shared_shooter_sweep_budget(self):
        # The CLI default at (tau, omega) = (0.05, 1); the node-count and
        # Wronskian search took 77 sweeps for these six levels.
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        shooter = Shooter(normal_form_sl(eps, normal_form_grid(eps, 1201).refined()).q)
        assert sum(shooting_eigenvalue(shooter, n).iterations for n in range(6)) <= 50

    def test_levels_order_independent(self):
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        q = normal_form_sl(eps, normal_form_grid(eps, 1201).refined()).q
        shooter = Shooter(q)
        shared = {n: shooting_eigenvalue(shooter, n).eigenvalue for n in range(5, -1, -1)}
        for n, lam in shared.items():
            fresh = shooting_eigenvalue(Shooter(q), n).eigenvalue
            assert lam == pytest.approx(fresh, rel=1e-10)

    def test_angle_straddles_target_at_eigenvalue(self):
        rep = shooting_eigenvalue(normal_form_shooter(0.0, 1201), 3)
        assert rep.eigenvalue == pytest.approx(7.0, abs=1e-6)
        assert rep.mismatch <= ANGLE_TOL
        shooter = normal_form_shooter(0.0, 1201)
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
        (lambda lam: 10.0, "already exceeds"),                 # above it at min(q)
    ], ids=["no-bracket", "jump", "above-at-base"])
    def test_bracket_error(self, monkeypatch, angle, message):
        # Flat pieces have slope 0, so no step is Newton's.
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (angle(lam), 0.0))
        eps = GupOscillatorParams(1.0, 0.05).normal_form().eps
        with pytest.raises(BracketError, match=message):
            shooting_eigenvalue(normal_form_shooter(eps, 201), 1)

    def test_step_cap(self, monkeypatch):
        # Theta = pi + atan(lam - 1.3) is bracketed by the second step, but
        # MAX_STEPS = 2 ends the search before it converges.
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam:
                            (math.pi + math.atan(lam - 1.3), 1.0 / (1.0 + (lam - 1.3) ** 2)))
        monkeypatch.setattr(solver, "MAX_STEPS", 2)
        with pytest.raises(BracketError, match="no root of Theta = 3.14159 after 2 steps"):
            shooting_eigenvalue(normal_form_shooter(0.0, 51), 0)

    def test_no_level_above_rk4_stability_bound(self):
        # On h = 0.4 RK4 is stable only up to lam = min q + 8/h^2 = 50. Past it
        # Theta is not monotone: searched on the sweeps of levels 0..21, level
        # 24 returned 68.7558, where mu_24 = 49 and the matrix gives 36.41.
        shooter = normal_form_shooter(0.0, 61)
        reach = shooter.q_min + solver.RK4_REACH / shooter.h**2
        assert reach == pytest.approx(50.0)
        found = {}
        for n in range(0, 25, 3):
            with contextlib.suppress(BracketError):
                found[n] = shooting_eigenvalue(shooter, n).eigenvalue
        assert sorted(found) == [0, 3, 6]
        assert max(shooter._angles) <= reach

    @pytest.mark.parametrize("n", [8, 60])
    def test_bracket_error_at_rk4_stability_bound(self, n):
        # h = 0.8: no angle below min q + 8/h^2 = 12.5 reaches (n + 1) pi.
        shooter = normal_form_shooter(0.0, 31)
        with pytest.raises(BracketError, match="below RK4's stability bound"):
            shooting_eigenvalue(shooter, n, start=1e3)
        assert max(shooter._angles) == shooter.q_min + solver.RK4_REACH / shooter.h**2

    @pytest.mark.parametrize("tau, omega", [(0.05, 1.0), (0.1, 2.0)])
    def test_closed_form_on_wide_box(self, tau, omega):
        # Kempf-Mangano-Mann: E_n = omega[(n+1/2)(sqrt(1+g^2/4)+g/2) + g n^2/2],
        # g = tau omega. Both points' normal forms span the whole interval
        # |x| < pi/(2 eps), so no box truncates them.
        params = GupOscillatorParams(omega=omega, tau=tau)
        form = params.normal_form()
        assert normal_form_grid(form.eps, 4801).p_max == math.pi / (2 * form.eps)
        shooter = normal_form_shooter(form.eps, 4801)
        gam = tau * omega
        for n in range(6):
            exact = omega * ((n + 0.5) * (math.sqrt(1 + gam * gam / 4) + gam / 2)
                             + gam * n * n / 2)
            lam = form.eigenvalue(shooting_eigenvalue(shooter, n).eigenvalue)
            assert params.energy_from_eigenvalue(lam) == pytest.approx(exact, rel=1e-6)


def _normal_form_solve(params, k=6):
    """Richardson values, fine problem and fine spectrum of the default `solve`."""
    eps = params.normal_form().eps
    return solve_extrapolated(partial(normal_form_sl, eps), normal_form_grid(eps, 1201), k)


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
        mus, slp, _ = _normal_form_solve(params)
        seeded, plain = Shooter(slp.q), Shooter(slp.q)
        for n, mu in enumerate(mus.tolist()):
            rep = shooting_eigenvalue(seeded, n, start=mu)
            ref = shooting_eigenvalue(plain, n).eigenvalue
            assert rep.eigenvalue == pytest.approx(ref, rel=2e-10, abs=0)
            assert rep.mismatch <= ANGLE_TOL

    def test_sweep_budget(self):
        # Six levels at (tau, omega) = (0.05, 1) on the default grid: 34 sweeps
        # unseeded, 11 from the matrix eigenvalues.
        mus, slp, _ = _normal_form_solve(GupOscillatorParams(1.0, 0.05))
        shooter = Shooter(slp.q)
        total = sum(shooting_eigenvalue(shooter, n, start=mu).iterations
                    for n, mu in enumerate(mus.tolist()))
        assert total == shooter.sweeps <= 14

    @pytest.mark.parametrize("params, n, restarts", [
        (SwansonParams(2.0, 0.3, 0.1, 0.05), 1201, False),
        (GupOscillatorParams(1.0, 1.2), 1201, False),
        # eps ~ 0.13: the state passes _CAP, so each sweep restarts.
        (GupOscillatorParams(1.0, 0.017), 4801, True),
        # eps^2 > 2: q is a barrier, its top at the centre where the sweep ends.
        (SwansonParams(2.0, 0.3, 0.1, 0.6), 1201, False),
    ], ids=repr)
    def test_sweep_slope_matches_angle(self, params, n, restarts, monkeypatch):
        # The sweep's dTheta/dlambda (Pruefer's identity) against a central
        # difference of Theta, at the eigenvalues and between them.
        eps = params.normal_form().eps
        mus, slp, _ = solve_extrapolated(partial(normal_form_sl, eps), normal_form_grid(eps, n), 3)
        shooter = Shooter(slp.q)
        solves = []
        dtbtrs = solver.dtbtrs
        monkeypatch.setattr(solver, "dtbtrs", lambda *args, **kwargs:
                            solves.append(args) or dtbtrs(*args, **kwargs))
        for lam in [*mus.tolist(), *(1.03 * mu + 0.1 for mu in mus.tolist())]:
            d = 1e-6 * lam
            fd = (shooter.angle(lam + d) - shooter.angle(lam - d)) / (2 * d)
            shooter.angle(lam)                         # memoizes (Theta, slope)
            assert shooter._angles[lam][1] == pytest.approx(fd, rel=1e-4)
        # One banded solve per angle, more only when a sweep restarts.
        if restarts:
            assert len(solves) > shooter.sweeps
        else:
            assert len(solves) == shooter.sweeps

    @pytest.mark.parametrize("bad", ["next-level", "floor", "zero-slope", "inf-slope",
                                     "steep-slope", "negative-slope", "nan-slope"])
    def test_bad_start_recovers(self, bad, monkeypatch):
        # Level 2 at (0.05, 1) from a start that is wrong in one way each:
        # another level's eigenvalue, min q, or a sweep at the start that
        # reports a wrong slope.
        mus, slp, _ = _normal_form_solve(GupOscillatorParams(1.0, 0.05), k=4)
        n = 2
        ref = shooting_eigenvalue(Shooter(slp.q), n)
        # At steep-slope the first step is tiny, so only the angle check keeps
        # the search from stopping at lam0, off the root.
        lam0 = {"next-level": mus[n + 1], "floor": Shooter(slp.q).q_min,
                "steep-slope": mus[n] * (1 + 1e-5)}.get(bad, mus[n])
        slope = {"zero-slope": 0.0, "inf-slope": math.inf, "steep-slope": 1e12,
                 "negative-slope": -1.0, "nan-slope": math.nan}.get(bad)
        if slope is not None:
            angle = Shooter._angle
            monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (
                (angle(self, lam)[0], slope) if lam == lam0 else angle(self, lam)))
        rep = shooting_eigenvalue(Shooter(slp.q), n, start=lam0)
        assert rep.eigenvalue == pytest.approx(ref.eigenvalue, rel=2e-10, abs=0)
        assert rep.mismatch <= ANGLE_TOL
        # No worse than no start at all.
        assert rep.iterations <= ref.iterations

    def test_step_out_of_bracket_bisects(self, monkeypatch):
        # Theta = pi + atan(lam - 1) with angles known at 0.9 and 1.1: from
        # 1.05, a slope far too shallow sends the Newton step out of (0.9, 1.1).
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (
            math.pi + math.atan(lam - 1.0),
            1e-3 if lam == 1.05 else 1.0 / (1.0 + (lam - 1.0) ** 2)))
        shooter = normal_form_shooter(0.0, 51)
        shooter.angle(0.9), shooter.angle(1.1)
        rep = shooting_eigenvalue(shooter, 0, start=1.05)
        swept = list(shooter._angles)
        # The step after 1.05 bisects its bracket (0.9, 1.05).
        assert swept[2:4] == [1.05, pytest.approx(0.975)]
        # Nothing swept outside (0.9, 1.1) but the bracket's base, min q = 0.
        assert all(0.9 <= lam <= 1.1 for lam in swept if lam != 0.0)
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-9)

    def test_bracket_error_when_seeded(self, monkeypatch):
        # Theta never reaches the target: the seeded search stalls, and the
        # fallback raises as it does unseeded.
        mus, slp, _ = _normal_form_solve(GupOscillatorParams(1.0, 0.05), k=2)
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: (0.5, 0.0))
        with pytest.raises(BracketError, match="no angle above"):
            shooting_eigenvalue(Shooter(slp.q), 1, start=mus[1])


def _scalar_rk4_step(q_n, q_m, h, lam, i, j, u, v):
    """RK4 step of -y'' + q y = lam y, (u, v) = (y, y'), from node i to the
    neighbouring node j in either direction, one float at a time. q_n holds
    q at the nodes, q_m at the step midpoints (q_m[k] between nodes k, k+1)."""
    h = h * (j - i)
    g0, gm, g1 = q_n[i] - lam, q_m[min(i, j)] - lam, q_n[j] - lam
    k1u, k1v = v, g0 * u
    k2u, k2v = v + h / 2 * k1v, gm * (u + h / 2 * k1u)
    k3u, k3v = v + h / 2 * k2v, gm * (u + h / 2 * k2u)
    k4u, k4v = v + h * k3v, g1 * (u + h * k3u)
    return (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
            v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v))


@pytest.mark.parametrize("eps", [0.0, 0.22, 1.2, pytest.param(BARRIER_EPS, id="barrier")])
def test_step_matrix_matches_scalar_rk4(eps):
    shooter = normal_form_shooter(eps, 201)
    lam, u, v = 4.7, 0.6, -1.3
    mats = shooter.step_matrices(lam)
    assert all(m.size == 100 for m in mats)
    q_n, q_m = shooter.q_n.tolist(), shooter.q_m.tolist()
    for k in (0, 1, 57, 98, 99):
        expected = _scalar_rk4_step(q_n, q_m, shooter.h, lam, k, k + 1, u, v)
        a, b, c, d = (m[k] for m in mats)
        got = (a * u + b * v, c * u + d * v)
        scale = max(abs(x) for x in expected)
        assert max(abs(x - y) for x, y in zip(got, expected)) <= 1e-14 * scale


# At 0.9 and in the barrier band the grid ends are the singular points.
@pytest.mark.parametrize("eps", [0.13, 0.9, pytest.param(BARRIER_EPS, id="barrier")])
def test_step_matrix_matches_scalar_rk4_normal_form(eps):
    shooter = normal_form_shooter(eps, 2401)
    q_n, q_m = shooter.q_n.tolist(), shooter.q_m.tolist()
    u, v = 0.6, -1.3
    for lam in (shooter.q_min + x for x in (-10.0, 3.0, 1e3, 1e5)):
        mats = shooter.step_matrices(lam)
        assert all(m.size == shooter.grid.n // 2 for m in mats)
        for k, (a, b, c, d) in enumerate(zip(*(m.tolist() for m in mats))):
            u1, v1 = _scalar_rk4_step(q_n, q_m, shooter.h, lam, k, k + 1, u, v)
            # Each component against the size of the terms that make it up.
            assert abs(a * u + b * v - u1) <= 1e-12 * (abs(a * u) + abs(b * v))
            assert abs(c * u + d * v - v1) <= 1e-12 * (abs(c * u) + abs(d * v))


def _general_step_matrices(slp, lam):
    """The RK4 step matrices of -(c y')' + q y = lam w y from node 0 to the
    centre, by the closed form for any c and w (al = 1/c, g = q - lam w,
    s = al_m g_m), summed in its order; c, q and w splined together."""
    x, h, half = slp.grid.points, slp.grid.h, slp.grid.n // 2
    c, q, w = slp.c.values, slp.q.values, slp.w.values
    mids = _midpoint_spline(x, np.column_stack([c, q, w]))[:half]
    al, g = 1.0 / c[:half + 1], q[:half + 1] - lam * w[:half + 1]
    al_m, g_m = 1.0 / mids[:, 0], mids[:, 1] - lam * mids[:, 2]
    g0, g1, al0, al1 = g[:-1], g[1:], al[:-1], al[1:]
    s = al_m * g_m
    h2, h3, h4 = h * h / 6.0, h**3 / 12.0 * s, h**4 / 24.0 * s
    return (1.0 + h2 * (al_m * g0 + s + al1 * g_m) + h4 * al1 * g0,
            h / 6.0 * (al0 + 4.0 * al_m + al1) + h3 * (al0 + al1),
            h / 6.0 * (g0 + 4.0 * g_m + g1) + h3 * (g0 + g1),
            1.0 + h2 * (g_m * al0 + s + g1 * al_m) + h4 * g1 * al0)


# At eps = 0.2 on 2401 points h/6 * 6 != h, so b must keep the form's h/6 * 6.
@pytest.mark.parametrize("eps", [0.0, 0.13, 0.2, 0.9, pytest.param(BARRIER_EPS, id="barrier")])
def test_step_matrices_equal_general_closed_form(eps):
    # c = w = 1 written out in the general form's order of sums: every entry
    # is the same to the bit, so are the sweeps built on them.
    slp = normal_form_sl(eps, normal_form_grid(eps, 2401))
    shooter = Shooter(slp.q)
    for lam in (shooter.q_min + x for x in (-10.0, 3.0, 1e3, 1e5)):
        for got, want in zip(shooter.step_matrices(lam), _general_step_matrices(slp, lam)):
            assert np.array_equal(got, want)


def _loop_sweep(step, m, v, h):
    """Reference for `Shooter._sweep`: m steps (u, v) = step(k, u, v) from
    (0, v), one at a time on Python floats, with u^2 summed node by node (the
    last node at half weight). Also returns how often the sweep restarts: the
    state is rescaled past _CAP, or below 1/_CAP in |u| + |v|, before the
    last step (a last state is rescaled with no restart)."""
    u = 0.0
    nodes = restarts = 0
    norm = 0.0
    negative = None          # sign of the last nonzero u, None before the first
    cap = Shooter._CAP
    for k in range(m):
        u, v = step(k, u, v)
        norm += u * u * (0.5 if k == m - 1 else 1.0)
        if u < 0.0:
            if negative is False:
                nodes += 1
            negative = True
        elif u > 0.0:
            if negative:
                nodes += 1
            negative = False
        if u > cap or u < -cap or v > cap or v < -cap or abs(u) + abs(v) < 1.0 / cap:
            mag = abs(u) + abs(v)
            u /= mag
            v /= mag
            norm /= mag * mag
            restarts += k < m - 1
    return u, v, nodes, h * norm, restarts


def _matrix_steps(shooter, lam):
    """`_loop_sweep`'s step: the Shooter's step matrices at lam."""
    a, b, c, d = (m.tolist() for m in shooter.step_matrices(lam))
    return lambda k, u, v: (a[k] * u + b[k] * v, c[k] * u + d[k] * v)


# (problem builder, whether a sweep must restart). At eps = 0.13,
# kappa = 1/2 + 1/eps^2 is about 60 and the state grows past _CAP. At eps = 0
# on 1201 points, RK4 damps the state below 1/_CAP at min q + 1.5e4.
SWEEP_PROBLEMS = (
    [pytest.param(partial(normal_form_sl, eps, normal_form_grid(eps, n)), eps == 0.13,
                  id=f"normal-form-eps{eps}-n{n}")
     for eps in (0.0, 0.13, 0.45, 0.9) for n in (201, 2401)]
    + [pytest.param(partial(normal_form_sl, 0.0, normal_form_grid(0.0, 1201)), True,
                    id="normal-form-eps0.0-n1201"),
       pytest.param(partial(normal_form_sl, BARRIER_EPS, normal_form_grid(BARRIER_EPS, 1201)),
                    False, id="barrier")]
)


@pytest.mark.parametrize("build, must_restart", SWEEP_PROBLEMS)
def test_sweep_matches_loop(build, must_restart, monkeypatch):
    shooter = Shooter(build().q)
    solves = []
    dtbtrs = solver.dtbtrs
    monkeypatch.setattr(solver, "dtbtrs", lambda *args, **kwargs:
                        solves.append(args) or dtbtrs(*args, **kwargs))
    total = 0
    offsets = [-10.0, -1.0, 0.0, 0.5, 2.0, 10.0, 1e2, 1e3, 1e4, 1.5e4, 1e5]
    for lam in (shooter.q_min + x for x in offsets):
        solves.clear()
        u, v, nodes, norm = shooter._sweep(lam)
        u_ref, v_ref, nodes_ref, norm_ref, restarts = _loop_sweep(
            _matrix_steps(shooter, lam), shooter.grid.n // 2, 1.0, shooter.h)
        assert nodes == nodes_ref
        assert norm == pytest.approx(norm_ref, rel=1e-12)
        # The angle between the two final states, and their lengths: both
        # were rescaled at the same steps.
        assert abs(math.atan2(u * v_ref - v * u_ref, u * u_ref + v * v_ref)) <= 1e-12
        assert math.hypot(u, v) == pytest.approx(math.hypot(u_ref, v_ref), rel=1e-12)
        # One banded solve, and one more after each restart.
        assert len(solves) == 1 + restarts
        total += restarts
    if must_restart:
        assert total > 0


def _two_sided_angle(slp, lam):
    """Reference for `Shooter._angle`: explicit scalar RK4 sweeps
    (`_scalar_rk4_step`) from both ends to the centre node, the right one
    leftward from (u, v) = (0, -1), with q_m the whole grid's midpoint spline.

    Returns both node counts, Theta = theta_L + theta_R with theta_R the
    angle of the right state mirrored in v, and the sum of both sides'
    dtheta/dlambda = int u^2 / (u^2 + v^2)."""
    q = slp.q.values
    q_n, q_m = q.tolist(), _midpoint_spline(slp.grid.points, q[:, None])[:, 0].tolist()
    h, last, half = slp.grid.h, slp.grid.n - 1, slp.grid.n // 2
    u_l, v_l, n_l, s_l, _ = _loop_sweep(
        lambda k, u, v: _scalar_rk4_step(q_n, q_m, h, lam, k, k + 1, u, v), half, 1.0, h)
    u_r, v_r, n_r, s_r, _ = _loop_sweep(
        lambda k, u, v: _scalar_rk4_step(q_n, q_m, h, lam, last - k, last - k - 1, u, v),
        half, -1.0, h)
    return (n_l, n_r, _half_angle(u_l, v_l, n_l) + _half_angle(u_r, -v_r, n_r),
            s_l / (u_l * u_l + v_l * v_l) + s_r / (u_r * u_r + v_r * v_r))


# Even problems on odd grids centred on 0.
MIRROR_PROBLEMS = (
    [pytest.param(partial(normal_form_sl, eps, normal_form_grid(eps, n)),
                  id=f"normal-form-eps{eps}-n{n}")
     for eps in (0.0, 0.13, 0.45, 0.9) for n in (201, 2401)]
    + [pytest.param(partial(normal_form_sl, BARRIER_EPS, normal_form_grid(BARRIER_EPS, 1201)),
                    id="barrier")]
)


@pytest.mark.parametrize("build", MIRROR_PROBLEMS)
def test_mirrored_angle_matches_two_sided(build):
    # The angle from one left half-sweep against scalar sweeps from both
    # ends, at the levels' range and far above and below it. (At min q + 1e5
    # the states fall below 1/_CAP or pass _CAP, so both routes rescale.)
    slp = build()
    shooter = Shooter(slp.q)
    offsets = [-10.0, -1.0, 0.0, 0.5, 2.0, 10.0, 1e2, 1e3, 3e3, 1e4, 1e5]
    for lam in (shooter.q_min + x for x in offsets):
        theta, slope = shooter._angle(lam)
        n_l, n_r, two_sided, two_sided_slope = _two_sided_angle(slp, lam)
        assert n_l == n_r
        assert abs(theta - two_sided) <= 1e-12
        assert slope == pytest.approx(two_sided_slope, rel=1e-10)


def test_damped_state_is_rescaled(monkeypatch):
    # Far above the levels (min q + 1.5e4 at h = 0.02) each RK4 step matrix
    # has determinant about 0.25, so the state decays towards underflow. The sweep restarts below 1/_CAP: the
    # angle is finite and still rising, and the slope is the inf that _root
    # reads as no Newton step.
    shooter = normal_form_shooter(0.0, 1201)
    solves = []
    dtbtrs = solver.dtbtrs
    monkeypatch.setattr(solver, "dtbtrs", lambda *args, **kwargs:
                        solves.append(args) or dtbtrs(*args, **kwargs))
    below, _ = shooter._angle(shooter.q_min + 1e4)
    solves.clear()
    theta, slope = shooter._angle(shooter.q_min + 1.5e4)
    assert len(solves) > 1
    assert below < theta < math.inf
    assert slope == math.inf


def _off_centre_q():
    """(p - 1)^2 on [-3, 5], made an exact palindrome: even about p = 1, not
    about 0, so only the grid is asymmetric."""
    g = make_grid(-3, 5, 977)
    q = (g.points - 1.0) ** 2
    return SampledFunction(g, q + q[::-1])


def _uneven_q(scale):
    """x^2 on the normal-form grid [-12, 12] of 1201 points, times `scale` for x > 0."""
    g = normal_form_grid(0.0, 1201)
    return sample(g, lambda x: x * x * np.where(x > 0, scale, 1.0))


@pytest.mark.parametrize("q, message", [
    (normal_form_sl(0.0, normal_form_grid(0.0, 3)).q, "at least 5 points, got 3"),
    (normal_form_sl(0.0, normal_form_grid(0.0, 4)).q, "at least 5 points, got 4"),
    (normal_form_sl(0.0, normal_form_grid(0.0, 1200)).q, "odd grid .* got 1200"),
    (gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), make_grid(-3, 5, 977)).q,
     "centred on 0"),
    (_off_centre_q(), "centred on 0"),
    (_uneven_q(2.0), "even q"),
    (_uneven_q(1.0 + 2.0**-52), "even q"),
], ids=["n3", "n4", "even-n", "asymmetric-grid", "off-centre-box", "uneven-q", "uneven-q-ulp"])
def test_rejects_input_without_mirror_symmetry(q, message):
    # The half-sweep stands for both ends only on an exact mirror image.
    with pytest.raises(ValueError, match=message):
        Shooter(q)


def test_accepts_five_points():
    # Five points: two RK4 steps to the centre, and the spline's 4 points.
    shooter = normal_form_shooter(0.0, 5)
    assert shooter.grid.n == 5 and all(m.size == 2 for m in shooter.step_matrices(1.0))


def _spline_problems():
    """The normal-form and momentum-space problems whose columns are splined."""
    problems = {}
    # eps 0 and 0.13 use the box of half-width 12; from eps = pi/24 (0.131) on,
    # the grid is the whole interval, with its end-patched q.
    for eps in (0.0, 0.13, 0.2, 0.9, 1.4):
        for n in (4, 5, 301, 2401):
            problems[f"normal-form-eps{eps}-n{n}"] = normal_form_sl(eps, normal_form_grid(eps, n))
    for n in (4, 1201):
        problems[f"oscillator-n{n}"] = gup_oscillator_sl(GupOscillatorParams(1.0, 0.05),
                                                         make_grid(-12, 12, n))
        problems[f"swanson-n{n}"] = swanson_sl(SwansonParams(2.0, 0.3, 0.1, 0.2),
                                               make_grid(-10, 10, n))
    return problems


SPLINE_PROBLEMS = _spline_problems()


def _columns(slp):
    return slp.grid.points, np.column_stack([slp.c.values, slp.q.values, slp.w.values])


def _spline_cases():
    """(x, y) pairs: coefficient columns on normal-form and momentum-space
    grids, and random data on seeded non-uniform grids."""
    cases = {name: _columns(slp) for name, slp in SPLINE_PROBLEMS.items()}
    rng = np.random.default_rng(7)
    for n in (4, 5, 97):
        cases[f"random-n{n}"] = (np.sort(rng.uniform(-3.0, 3.0, n)), rng.normal(size=(n, 3)))
    return cases


SPLINE_CASES = _spline_cases()


@pytest.mark.parametrize("x, y", SPLINE_CASES.values(), ids=SPLINE_CASES.keys())
def test_midpoint_spline_equals_cubic_spline(x, y):
    # The same arithmetic as scipy's not-a-knot spline, so equal to the bit.
    mids = 0.5 * (x[:-1] + x[1:])
    assert np.array_equal(_midpoint_spline(x, y), CubicSpline(x, y)(mids))


# The normal-form problems a Shooter takes: odd grids.
SHOOTER_PROBLEMS = {name: slp for name, slp in SPLINE_PROBLEMS.items()
                    if name.startswith("normal-form") and slp.grid.n % 2}


@pytest.mark.parametrize("slp", SHOOTER_PROBLEMS.values(), ids=SHOOTER_PROBLEMS.keys())
def test_shooter_midpoints_equal_full_spline(slp):
    # The Shooter splines q alone and keeps its left half. The spline of all
    # three columns has c and w midpoints of exactly 1, so writing 1/c = 1 and
    # w = 1 out changes no bit.
    c_m, q_m, w_m = _midpoint_spline(*_columns(slp)).T
    shooter = Shooter(slp.q)
    half = slp.grid.n // 2
    assert np.array_equal(shooter.q_n, slp.q.values[:half + 1])
    assert np.array_equal(shooter.q_m, q_m[:half])
    assert np.all(c_m == 1.0) and np.all(w_m == 1.0)


def test_midpoint_spline_singular_system_is_solver_error():
    # At 3 points the two not-a-knot rows add up to the middle row.
    with pytest.raises(solver.SolverError, match="dgtsv info"):
        _midpoint_spline(np.array([0.0, 1.0, 2.0]), np.ones((3, 1)))


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
    shooter = Shooter(LAPACK_SLP.q)
    shooter._sweep(shooter.q_min + 2.0)


@pytest.mark.parametrize("name, run", [
    # A folded pencil: bisection for levels 1..4 (range "I") to ABSTOL ...
    ("dstebz", lambda: eigen_solve(discretize(LAPACK_SLP), 4)),
    # ... then inverse iteration on dstebz's output.
    ("dstein", lambda: eigen_solve(discretize(LAPACK_SLP), 4).eigenfunctions),
    ("dgtsv", lambda: _midpoint_spline(*SPLINE_CASES["normal-form-eps0.2-n301"])),
    ("dtbtrs", _one_sweep),
], ids=["dstebz", "dstein", "dgtsv", "dtbtrs"])
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
        e1 = solve_sl(gup_oscillator_sl(params, g1), 1).eigenvalues[0]
        e2 = solve_sl(gup_oscillator_sl(params, g1.refined()), 1).eigenvalues[0]
        e = params.energy_from_eigenvalue(richardson(e1, e2))
        assert e == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("params", [
        GupOscillatorParams(omega=1.0, tau=0.05),
        SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.05),
    ])
    def test_solve_extrapolated_matches_per_level(self, params):
        g1 = make_grid(-10, 10, 601)
        lams, fine_slp, fine = solve_extrapolated(params.sl, g1, 4)
        coarse = solve_sl(params.sl(g1), 4)
        assert fine_slp.grid == g1.refined()
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
    ref = solve_sl(gup_oscillator_sl(params, ref_g), 1).eigenvalues[0]
    hs, errs = [], []
    for n in (601, 1201, 2401):
        g = make_grid(-12, 12, n)
        e = solve_sl(gup_oscillator_sl(params, g), 1).eigenvalues[0]
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
