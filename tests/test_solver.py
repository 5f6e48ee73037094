import math
from functools import partial

import numpy as np
import pytest

from gupmdm.core import (
    SturmLiouvilleProblem,
    constant,
    count_interior_sign_changes,
    make_grid,
    sample,
    weighted_inner_product,
)
from gupmdm.models import (
    GupOscillatorParams,
    SwansonParams,
    gup_oscillator_raw,
    gup_oscillator_sl,
    normal_form_grid,
    normal_form_sl,
    swanson_sl,
)
from gupmdm.solver import (
    ANGLE_TOL,
    BracketError,
    Shooter,
    _half_angle,
    discretize,
    eigen_solve,
    residual,
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
                ip = weighted_inner_product(
                    spec.eigenfunctions[i], spec.eigenfunctions[j], slp.w
                )
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_oscillation_theorem(self):
        g = make_grid(-12, 12, 801)
        spec = solve_sl(gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g), 6)
        for n, phi in enumerate(spec.eigenfunctions):
            sig = phi.values.copy()
            sig[np.abs(sig) < 1e-9 * np.max(np.abs(sig))] = 0.0
            assert count_interior_sign_changes(sig) == n

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


class TestShooting:
    def test_ground_state(self):
        g = make_grid(-12, 12, 1201)
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.0), g)
        rep = shooting_eigenvalue(slp, 0)
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-7)
        assert rep.mismatch <= ANGLE_TOL

    def test_third_excited(self):
        g = make_grid(-12, 12, 1201)
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.0), g)
        rep = shooting_eigenvalue(slp, 3)
        assert rep.eigenvalue == pytest.approx(7.0, abs=1e-6)
        assert rep.mismatch <= ANGLE_TOL

    def test_cross_method_deformed(self):
        params = GupOscillatorParams(omega=1.0, tau=0.05)
        g1 = make_grid(-12, 12, 1201)
        g2 = g1.refined()
        s1 = solve_sl(gup_oscillator_sl(params, g1), 6)
        slp2 = gup_oscillator_sl(params, g2)
        s2 = solve_sl(slp2, 6)
        for n in range(6):
            lam = richardson(s1.eigenvalues[n], s2.eigenvalues[n])
            rep = shooting_eigenvalue(slp2, n)
            assert abs(lam - rep.eigenvalue) <= 1e-6 * max(1.0, abs(lam))

    def test_rejects_negative_index(self):
        slp = laplace_problem(51)
        with pytest.raises(ValueError):
            shooting_eigenvalue(slp, -1)

    def test_levels_isolated_in_few_sweeps(self):
        # The CLI default at (tau, omega) = (0.05, 1): box 12, 1201 -> 2401 points.
        g = make_grid(-12, 12, 1201).refined()
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g)
        for n in range(6):
            assert shooting_eigenvalue(slp, n).iterations <= 20

    def test_iterations_sum_to_distinct_sweeps(self, monkeypatch):
        sweeps = []
        sweep = Shooter._sweep
        monkeypatch.setattr(Shooter, "_sweep", lambda self, lam, start, stop:
                            sweeps.append(lam) or sweep(self, lam, start, stop))
        g = make_grid(-12, 12, 1201)
        shooter = Shooter(gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g))
        total = sum(shooting_eigenvalue(shooter, n).iterations for n in range(6))
        # One angle is two half-grid sweeps, left and right of the matching node.
        assert len(sweeps) == 2 * total
        assert len(set(sweeps)) == total == shooter.sweeps

    def test_shared_shooter_sweep_budget(self):
        # The CLI default at (tau, omega) = (0.05, 1); the node-count and
        # Wronskian search took 77 sweeps for these six levels.
        g = make_grid(-12, 12, 1201).refined()
        shooter = Shooter(gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g))
        assert sum(shooting_eigenvalue(shooter, n).iterations for n in range(6)) <= 50

    def test_levels_order_independent(self):
        g = make_grid(-12, 12, 1201).refined()
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), g)
        shooter = Shooter(slp)
        shared = {n: shooting_eigenvalue(shooter, n).eigenvalue for n in range(5, -1, -1)}
        for n, lam in shared.items():
            fresh = shooting_eigenvalue(Shooter(slp), n).eigenvalue
            assert lam == pytest.approx(fresh, rel=1e-10)

    def test_angle_straddles_target_at_eigenvalue(self):
        g = make_grid(-12, 12, 1201)
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.0), g)
        rep = shooting_eigenvalue(slp, 3)
        assert rep.eigenvalue == pytest.approx(7.0, abs=1e-6)
        assert rep.mismatch <= ANGLE_TOL
        shooter = Shooter(slp)
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
        (lambda lam: 10.0, "already exceeds"),                 # above it at min(q/w)
    ], ids=["no-bracket", "jump", "above-at-base"])
    def test_bracket_error(self, monkeypatch, angle, message):
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: angle(lam))
        slp = gup_oscillator_sl(GupOscillatorParams(1.0, 0.05), make_grid(-12, 12, 201))
        with pytest.raises(BracketError, match=message):
            shooting_eigenvalue(slp, 1)

    @pytest.mark.parametrize("tau, omega", [(0.05, 1.0), (0.1, 2.0)])
    def test_closed_form_on_wide_box(self, tau, omega):
        # Kempf-Mangano-Mann: E_n = omega[(n+1/2)(sqrt(1+g^2/4)+g/2) + g n^2/2],
        # g = tau omega; the box 40/sqrt(omega) leaves no visible truncation.
        params = GupOscillatorParams(omega=omega, tau=tau)
        pmax = 40.0 / math.sqrt(omega)
        slp = gup_oscillator_sl(params, make_grid(-pmax, pmax, 4801))
        gam = tau * omega
        for n in range(6):
            exact = omega * ((n + 0.5) * (math.sqrt(1 + gam * gam / 4) + gam / 2)
                             + gam * n * n / 2)
            e = params.energy_from_eigenvalue(shooting_eigenvalue(slp, n).eigenvalue)
            assert e == pytest.approx(exact, rel=1e-6)


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


def _spy_brackets(monkeypatch):
    """List that records the target of every `Shooter.bracket` call."""
    targets = []
    bracket = Shooter.bracket
    monkeypatch.setattr(Shooter, "bracket", lambda self, target:
                        targets.append(target) or bracket(self, target))
    return targets


class TestSeededShooting:
    @pytest.mark.parametrize("params", ACCEPTANCE_POINTS, ids=repr)
    def test_seeded_matches_unseeded(self, params):
        mus, slp, spec = _normal_form_solve(params)
        seeded, plain = Shooter(slp), Shooter(slp)
        for n, mu in enumerate(mus.tolist()):
            rep = shooting_eigenvalue(seeded, n, start=(mu, spec.eigenfunctions[n]))
            ref = shooting_eigenvalue(plain, n).eigenvalue
            assert rep.eigenvalue == pytest.approx(ref, rel=2e-10, abs=0)
            assert rep.mismatch <= ANGLE_TOL

    def test_sweep_budget(self):
        # Six levels at (tau, omega) = (0.05, 1) on the default grid: 42 sweeps
        # unseeded, about 11 from the matrix eigenpairs.
        mus, slp, spec = _normal_form_solve(GupOscillatorParams(1.0, 0.05))
        shooter = Shooter(slp)
        total = sum(shooting_eigenvalue(shooter, n, start=(mu, spec.eigenfunctions[n]))
                    .iterations for n, mu in enumerate(mus.tolist()))
        assert total == shooter.sweeps <= 14

    def test_eigen_slope_matches_angle(self):
        # dTheta/dlambda from the eigenfunction against a difference of Theta.
        mus, slp, spec = _normal_form_solve(SwansonParams(2.0, 0.3, 0.1, 0.05), k=3)
        shooter = Shooter(slp)
        for n, mu in enumerate(mus.tolist()):
            d = 1e-6 * mu
            fd = (shooter.angle(mu + d) - shooter.angle(mu - d)) / (2 * d)
            phi = spec.eigenfunctions[n]
            assert shooter.eigen_slope(phi) == pytest.approx(fd, rel=1e-3)
            assert shooter.eigen_slope(phi * 3.0) == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("bad", ["next-level", "floor", "zero-phi", "steep-slope",
                                     "negative-slope", "nan-slope"])
    def test_bad_start_falls_back(self, bad, monkeypatch):
        # Level 2 at (0.05, 1) from a start that is wrong in one way each.
        mus, slp, spec = _normal_form_solve(GupOscillatorParams(1.0, 0.05), k=4)
        n = 2
        ref = shooting_eigenvalue(slp, n).eigenvalue
        lam0, phi = mus[n], spec.eigenfunctions[n]
        slope = {"steep-slope": 1e12, "negative-slope": -1.0, "nan-slope": math.nan}.get(bad)
        if slope is not None:
            monkeypatch.setattr(Shooter, "eigen_slope", lambda self, phi: slope)
        if bad == "next-level":
            lam0, phi = mus[n + 1], spec.eigenfunctions[n + 1]
        elif bad == "floor":
            lam0 = Shooter(slp).qw_min
        elif bad == "zero-phi":
            phi = phi * 0.0                                    # slope inf
        elif bad == "steep-slope":
            # The first step is tiny, so the search stops at lam0, off the
            # root; only the angle check sends it on to Brent.
            lam0 = mus[n] * (1 + 1e-5)
        brackets = _spy_brackets(monkeypatch)
        rep = shooting_eigenvalue(slp, n, start=(lam0, phi))
        assert rep.eigenvalue == pytest.approx(ref, rel=2e-10, abs=0)
        assert rep.mismatch <= ANGLE_TOL
        if bad not in ("next-level", "floor"):     # these may also converge seeded
            assert brackets == [(n + 1) * math.pi]

    def test_step_out_of_bracket_falls_back(self, monkeypatch):
        # Theta = pi + atan(lam - 1) with angles known at 0.9 and 1.1: from
        # 1.05, a slope far too shallow sends the Newton step out of (0.9, 1.1).
        monkeypatch.setattr(Shooter, "_angle",
                            lambda self, lam: math.pi + math.atan(lam - 1.0))
        monkeypatch.setattr(Shooter, "eigen_slope", lambda self, phi: 1e-3)
        slp = laplace_problem(51)
        shooter = Shooter(slp)
        shooter.angle(0.9), shooter.angle(1.1)
        brackets = _spy_brackets(monkeypatch)
        rep = shooting_eigenvalue(shooter, 0, start=(1.05, slp.w))
        assert brackets == [math.pi]
        # Nothing swept outside (0.9, 1.1) but the bracket's base, min q/w = 0.
        assert all(0.9 <= lam <= 1.1 for lam in shooter._angles if lam != 0.0)
        assert rep.eigenvalue == pytest.approx(1.0, abs=1e-9)

    def test_bracket_error_when_seeded(self, monkeypatch):
        # Theta never reaches the target: the seeded search stalls, and the
        # fallback raises as it does unseeded.
        mus, slp, spec = _normal_form_solve(GupOscillatorParams(1.0, 0.05), k=2)
        monkeypatch.setattr(Shooter, "_angle", lambda self, lam: 0.5)
        with pytest.raises(BracketError, match="no angle above"):
            shooting_eigenvalue(slp, 1, start=(mus[1], spec.eigenfunctions[1]))


def _scalar_rk4_step(integ, lam, i, j):
    """RK4 step from node i to the neighbouring node j, one float at a time."""
    u, v = 0.6, -1.3
    h = integ.h * (j - i)
    im = min(i, j)
    g0 = integ.q_n[i] - lam * integ.w_n[i]
    gm = integ.q_m[im] - lam * integ.w_m[im]
    g1 = integ.q_n[j] - lam * integ.w_n[j]
    ic0, icm, ic1 = integ.ic_n[i], integ.ic_m[im], integ.ic_n[j]
    k1u, k1v = v * ic0, g0 * u
    k2u, k2v = (v + h / 2 * k1v) * icm, gm * (u + h / 2 * k1u)
    k3u, k3v = (v + h / 2 * k2v) * icm, gm * (u + h / 2 * k2u)
    k4u, k4v = (v + h * k3v) * ic1, g1 * (u + h * k3u)
    return ((u, v), (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
                     v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)))


@pytest.mark.parametrize("start, stop", [(0, 200), (200, 0), (30, 140), (170, 60)])
def test_step_matrix_matches_scalar_rk4(start, stop):
    g = make_grid(-6, 6, 201)
    integ = Shooter(gup_oscillator_sl(GupOscillatorParams(1.3, 0.2), g))
    lam = 4.7
    mats = integ.step_matrices(lam, start, stop)
    step = 1 if stop > start else -1
    assert all(m.size == abs(stop - start) for m in mats)
    for k in (0, 1, 57, abs(stop - start) - 2, abs(stop - start) - 1):
        i = start + k * step
        (u, v), expected = _scalar_rk4_step(integ, lam, i, i + step)
        a, b, c, d = (m[k] for m in mats)
        got = (a * u + b * v, c * u + d * v)
        scale = max(abs(x) for x in expected)
        assert max(abs(x - y) for x, y in zip(got, expected)) <= 1e-14 * scale


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
        assert fine.eigenvalues.tolist() == solve_sl(fine_slp, 4).eigenvalues.tolist()
        assert lams.tolist() == [
            richardson(float(a), float(b))
            for a, b in zip(coarse.eigenvalues, fine.eigenvalues)
        ]


class TestResidual:
    def test_zero_function(self):
        g = make_grid(-6, 6, 201)
        raw = gup_oscillator_raw(GupOscillatorParams(1.0, 0.1), g)
        phi = constant(g, 0.0)
        assert residual(raw, phi, 1.0) == 0.0

    def test_exact_eigenpair_converges(self):
        params = GupOscillatorParams(omega=1.0, tau=0.0)
        res = []
        for n in (401, 801):
            g = make_grid(-10, 10, n)
            raw = gup_oscillator_raw(params, g)
            phi = sample(g, lambda p: np.exp(-0.5 * p * p))
            res.append(residual(raw, phi, 1.0))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.1)

    def test_random_pair_positive(self):
        g = make_grid(-6, 6, 201)
        raw = gup_oscillator_raw(GupOscillatorParams(1.0, 0.1), g)
        rng = np.random.default_rng(7)
        phi = sample(g, lambda p: 0 * p) + rng.standard_normal(g.n)
        assert residual(phi=phi, coeffs=raw, lam=0.37) > 1e-2


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
