import math
import re
from functools import partial

import numpy as np
import pytest

from gupmdm.cli import SHOOTING_STEPS
from gupmdm.core import (
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    derivative,
    inner_slice,
    make_grid,
    sample,
)
from gupmdm.models import (
    MODELS,
    GupOscillatorParams,
    NormalForm,
    SwansonParams,
    WeightOverflowError,
    gup_oscillator_sl,
    ground_level,
    ground_state_sq,
    normal_form_grid,
    normal_form_sl,
    swanson_sl,
)
from gupmdm.solver import Shooter, discretize, shooting_eigenvalue, solve_extrapolated, solve_sl


GRID = make_grid(-6, 6, 241)


def at(sf, p):
    i = int(np.argmin(np.abs(sf.grid.points - p)))
    assert abs(sf.grid.points[i] - p) < 1e-12
    return sf.values[i]


def mass(params):
    return params.sl(GRID).mass


def veff(params, energy):
    return params.sl(GRID).effective_potential(params.eigenvalue_from_energy(energy))


class TestParams:
    def test_gup_validation(self):
        with pytest.raises(ValueError):
            GupOscillatorParams(omega=0.0, tau=0.1)
        with pytest.raises(ValueError):
            GupOscillatorParams(omega=1.0, tau=-0.1)

    def test_swanson_validation(self):
        with pytest.raises(ValueError):
            SwansonParams(omega=1.0, alpha=3.0, beta=1.0)  # omega^2 - 4ab < 0
        with pytest.raises(ValueError):
            SwansonParams(omega=1.0, alpha=-2.0, beta=0.5)  # omega(omega+a+b) < 0

    def test_energy_maps(self):
        gup = GupOscillatorParams(omega=2.0)
        assert gup.energy_from_eigenvalue(1.0) == pytest.approx(2.0)
        sw = SwansonParams(omega=2.0, alpha=0.3, beta=0.1)
        assert sw.energy_from_eigenvalue(1.2) == pytest.approx(0.5)
        assert sw.omega_bar == pytest.approx(math.sqrt(3.88))
        for params in (gup, sw):
            assert params.eigenvalue_from_energy(params.energy_from_eigenvalue(1.2)) == (
                pytest.approx(1.2, rel=1e-15))


def raw_coefficients(params, grid):
    """(a1, a0E, a0P) of phi'' + a1 phi' = (a0P - lam a0E) phi, read off
    `raw_residual` on phi = 1 and phi = p, whose stencil derivatives are exact."""
    one, p = constant(grid, 1.0), sample(grid, lambda p: p)
    a0P = -params.raw_residual(one, 0.0)              # -(a0P - 0 a0E)
    a0E = params.raw_residual(one, 1.0) + a0P         # -(a0P - a0E) + a0P
    a1 = params.raw_residual(p, 0.0) + a0P * p        # a1 - a0P p + a0P p
    return a1, a0E, a0P


class TestGupOscillatorRaw:
    def test_tau_zero_is_plain_oscillator(self):
        params = GupOscillatorParams(omega=1.0, tau=0.0)
        a1, a0E, a0P = raw_coefficients(params, GRID)
        assert np.allclose(a1.values, 0.0)
        assert np.allclose(a0E.values, 1.0)
        assert np.allclose(a0P.values, GRID.points**2)
        # The written-out equation phi'' = (p^2 - lam) phi on a Gaussian.
        phi = sample(GRID, lambda p: np.exp(-0.5 * (p - 0.3) ** 2))
        written = derivative(phi, 2) - phi * (GRID.points**2 - 1.7)
        assert np.array_equal(params.raw_residual(phi, 1.7).values, written.values)

    def test_point_values_tau_one(self):
        a1, a0E, a0P = raw_coefficients(GupOscillatorParams(omega=1.0, tau=1.0), GRID)
        assert at(a1, 1.0) == pytest.approx(1.0)
        assert at(a0E, 1.0) == pytest.approx(0.25)
        assert at(a0P, 1.0) == pytest.approx(0.25)

    def test_a1_value(self):
        a1, _, _ = raw_coefficients(GupOscillatorParams(omega=1.0, tau=0.1), GRID)
        assert at(a1, 3.0) == pytest.approx(0.6 / 1.9)

    @pytest.mark.parametrize("omega, tau", [(1.0, 0.1), (0.7, 0.3), (2.0, 0.0)])
    def test_written_out_kmm_equation(self, omega, tau):
        # phi'' + 2 tau p/u phi' = (mu^2 p^2 - lam)/u^2 phi, u = 1 + tau p^2.
        params = GupOscillatorParams(omega, tau)
        p = GRID.points
        u = 1.0 + tau * p * p
        phi = sample(GRID, lambda p: np.exp(-0.5 * (p + 0.4) ** 2))
        written = (derivative(phi, 2) + derivative(phi, 1) * (2 * tau * p / u)
                   - phi * ((p * p / omega**2 - 1.3) / u**2))
        assert np.allclose(params.raw_residual(phi, 1.3).values, written.values,
                           rtol=0, atol=1e-13)


class TestGupOscillatorSl:
    def test_tau_zero(self):
        slp = gup_oscillator_sl(GupOscillatorParams(omega=1.0, tau=0.0), GRID)
        assert np.allclose(slp.c.values, 1.0)
        assert np.allclose(slp.q.values, GRID.points**2)
        assert np.allclose(slp.w.values, 1.0)

    def test_point_values(self):
        slp = gup_oscillator_sl(GupOscillatorParams(omega=1.0, tau=1.0), GRID)
        assert at(slp.c, 1.0) == pytest.approx(2.0)
        assert at(slp.q, 1.0) == pytest.approx(0.5)
        assert at(slp.w, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("tau", [0.0, 0.05, 1.0, 1e300])
    def test_c_and_w_are_u_and_its_inverse(self, tau):
        # The shared builder at (G, delta, C) = (1, 0, 1/omega^2): W = u exactly.
        slp = gup_oscillator_sl(GupOscillatorParams(omega=0.7, tau=tau), GRID)
        u = 1.0 + tau * GRID.points * GRID.points
        assert np.array_equal(slp.c.values, u)
        assert np.array_equal(slp.w.values, 1.0 / u)

    @pytest.mark.parametrize("shift", [0.0, 0.5, -1.2])
    def test_integrating_factor_identity(self, shift):
        # (1+tau p^2) * raw defect == SL defect pointwise to rounding.
        params = GupOscillatorParams(omega=1.0, tau=0.1)
        slp = gup_oscillator_sl(params, GRID)
        phi = sample(GRID, lambda p: np.exp(-0.5 * (p - shift) ** 2))
        u = sample(GRID, lambda p: 1.0 + 0.1 * p * p)
        lhs = u * params.raw_residual(phi, 1.3)
        rhs = slp.residual(phi, 1.3)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


class TestSwansonSl:
    def test_alpha_beta_zero_reduces_to_gup_with_rescaled_mu(self):
        omega, tau = 1.5, 0.08
        sw = swanson_sl(SwansonParams(omega, 0.0, 0.0, tau), GRID)
        gup = gup_oscillator_sl(GupOscillatorParams(omega, tau), GRID)
        assert np.allclose(sw.c.values, gup.c.values, atol=1e-13)
        # q carries the extra (1 - omega*tau) factor printed in the deformed
        # Swanson ODE; w picks up 1/omega^2.
        assert np.allclose(
            sw.q.values, (1 - omega * tau) * gup.q.values, atol=1e-13
        )
        assert np.allclose(sw.w.values, gup.w.values / omega**2, atol=1e-13)

    def test_tau_zero_weight(self):
        sw = swanson_sl(SwansonParams(2.0, 0.3, 0.1, 0.0), GRID)
        delta = 0.2 / (2 * 2.4)
        assert delta == pytest.approx(1 / 24)
        assert at(sw.c, 1.0) == pytest.approx(math.exp(1 / 24))

    def test_tau_zero_alpha_beta_zero_same_operator_scaled(self):
        omega = 1.7
        sw = swanson_sl(SwansonParams(omega, 0.0, 0.0, 0.0), GRID)
        gup = gup_oscillator_sl(GupOscillatorParams(omega, 0.0), GRID)
        assert np.allclose(sw.c.values, gup.c.values)
        assert np.allclose(sw.q.values, gup.q.values)
        assert np.allclose(sw.w.values, gup.w.values / omega**2)

    def test_weight_overflow_rejected(self):
        params = SwansonParams(omega=1.0, alpha=0.9, beta=-0.9, tau=0.0)
        big = make_grid(-20, 20, 201)
        with pytest.raises(WeightOverflowError) as err:
            swanson_sl(params, big)
        assert abs(err.value.p_at) > 0
        assert f"p = {err.value.p_at:g}, tau = 0" in str(err.value)

    @pytest.mark.parametrize("tau", [0.0, 0.05])
    def test_raw_residual_times_weight_is_sl_residual(self, tau):
        # W raw = c phi'' + c (W'/W) phi' while `residual` takes c' by stencil,
        # and W = exp(delta p^2) or u^(1 + delta/tau) is not polynomial: the
        # two defects part by O(h^2), a factor 4 per halving of h.
        params = SwansonParams(2.0, 0.3, 0.1, tau)
        gaps = []
        for n in (401, 801, 1601):
            slp = params.sl(make_grid(-6, 6, n))
            phi = sample(slp.grid, lambda p: np.exp(-0.5 * (p - 0.5) ** 2))
            gap = slp.c * params.raw_residual(phi, 1.3) - slp.residual(phi, 1.3)
            gaps.append(float(np.max(np.abs(gap.values))))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.05)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, abs=0.05)

    def test_cross_solver_spectrum(self):
        # Deformed Swanson's normal form solved by two independent methods,
        # each against the closed form.
        params = SwansonParams(omega=1.0, alpha=0.2, beta=0.1, tau=0.05)
        form = params.normal_form()
        mus, _ = solve_extrapolated(partial(normal_form_sl, form.eps),
                                    normal_form_grid(form.eps, 1201), 4)
        shooter = Shooter(form.eps, SHOOTING_STEPS)
        for n, mu in enumerate(mus.tolist()):
            lam = form.eigenvalue(mu)
            shot = form.eigenvalue(shooting_eigenvalue(shooter, n).eigenvalue)
            exact = params.eigenvalue_from_energy(params.exact_energy(n))
            assert abs(lam - shot) <= 1e-6 * max(1.0, abs(shot))
            assert abs(lam - exact) <= 1e-6 * max(1.0, abs(exact))
            assert abs(shot - exact) <= 1e-6 * max(1.0, abs(exact))


class TestNormalForm:
    """(S, B, k^2), the exact levels, and the builder shared by both models."""

    @pytest.mark.parametrize("tau, omega", [(0.0, 1.0), (0.05, 1.0), (0.1, 2.0),
                                            (1.0, 1.0), (0.01, 0.001)])
    def test_oscillator_exact_energy_is_kmm(self, tau, omega):
        # Kempf-Mangano-Mann: E_n = omega[(n+1/2)(sqrt(1+g^2/4)+g/2) + g n^2/2],
        # g = tau omega.
        params = GupOscillatorParams(omega=omega, tau=tau)
        g = tau * omega
        for n in range(8):
            kmm = omega * ((n + 0.5) * (math.sqrt(1 + g * g / 4) + g / 2) + g * n * n / 2)
            assert params.exact_energy(n) == pytest.approx(kmm, rel=1e-14)

    @pytest.mark.parametrize("tau, omega", [(0.0, 1.0), (0.0, 0.37), (0.05, 1.0),
                                            (0.1, 2.0), (1.0, 0.3), (0.01, 0.001)])
    def test_oscillator_is_swanson_form_at_unit_g(self, tau, omega):
        # S = G[C + G delta (delta+tau)], B = G delta, k^2 = tau G at
        # (G, delta, C) = (1, 0, mu^2), to the last bit.
        params = GupOscillatorParams(omega=omega, tau=tau)
        assert params.normal_form() == NormalForm(params.mu * params.mu, 0.0, tau)

    @pytest.mark.parametrize("params", [GupOscillatorParams(omega=1.0, tau=0.0),
                                        GupOscillatorParams(omega=0.3, tau=1.7),
                                        SwansonParams(2.0, 0.3, 0.1, 0.05)],
                             ids=["oscillator-0", "oscillator-1.7", "swanson"])
    def test_exact_levels_are_exact_eigenvalue_formula(self, params):
        # One formula, bit for bit: the levels exact_eigenvalue maps, and the
        # scalar mu_n = (2n+1)(1 + eps^2/2) + eps^2 n^2 it used to compute inline.
        form = params.normal_form()
        e2 = form.eps2
        levels = form.exact_levels(40)
        assert levels.shape == (40,)
        for n in range(40):
            assert form.exact_eigenvalue(n) == form.eigenvalue(form.exact_levels(n + 1)[n])
            assert levels[n] == (2 * n + 1) * (1.0 + 0.5 * e2) + e2 * n * n

    def test_oscillator_eps_depends_on_tau_omega_only(self):
        a = GupOscillatorParams(omega=2.0, tau=0.1).normal_form().eps2
        b = GupOscillatorParams(omega=0.5, tau=0.4).normal_form().eps2
        assert a == pytest.approx(b, rel=1e-15)

    def test_swanson_tau_zero_exact_energy(self):
        params = SwansonParams(2.0, 0.3, 0.1, 0.0)
        assert params.normal_form().k2 == 0.0
        for n in range(6):
            assert params.exact_energy(n) == pytest.approx((n + 0.5) * params.omega_bar,
                                                           rel=1e-14)

    @pytest.mark.parametrize("args", [(2.0, 0.3, 0.1, 0.05), (2.0, 0.1, 0.3, 0.05),
                                      (1.8, -0.2, 0.4, 0.05)])
    def test_swanson_exact_energy_matches_momentum_space(self, args):
        # Independent of the normal form: the p-space problem on a wide box.
        params = SwansonParams(*args)
        lams, _ = solve_extrapolated(params.sl, make_grid(-30, 30, 3001), 4)
        for n, lam in enumerate(lams):
            assert params.energy_from_eigenvalue(lam) == pytest.approx(
                params.exact_energy(n), rel=1e-7)

    @pytest.mark.parametrize("params, message", [
        (SwansonParams(2.0, 0.3, 0.1, 0.8), "<= 0 at tau = 0.8"),
        (GupOscillatorParams(1.0, 1e300), "not finite at tau = 1e+300"),
        (GupOscillatorParams(1.0, math.inf), "not finite at tau = inf"),
        (GupOscillatorParams(1.0, math.nan), "not finite at tau = nan"),
        (SwansonParams(2.0, 0.3, 0.1, 1e300), "not finite at tau = 1e+300"),
    ], ids=["oscillatory-end", "huge-tau", "inf-tau", "nan-tau", "swanson-huge-tau"])
    def test_unusable_normal_form_names_tau(self, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            params.normal_form()
        with pytest.raises(ValueError, match=re.escape(message)):
            params.exact_energy(0)

    def test_oscillatory_end_still_has_a_profile(self):
        # The check sits in normal_form(), not in the constructor.
        assert np.all(np.isfinite(mass(SwansonParams(2.0, 0.3, 0.1, 0.8)).values))

    @pytest.mark.parametrize("eps, half, tol", [
        (0.0, 12.0, 0.0), (0.1, 10.6043, 1e-4), (math.sqrt(0.03), 8.3799, 1e-4),
        (0.5, 3.1415924, 1e-7), (0.8, math.pi / 1.6, 0.0), (1.6, math.pi / 3.2, 0.0),
    ])
    def test_one_box_for_matrix_and_shooting(self, eps, half, tol):
        # The box {log R >= -72}: 12 at eps = 0, short of pi/(2 eps) where kappa
        # is large (2.3e-7 short of pi at eps = 0.5, kappa = 4.5), the whole
        # interval to rounding where it is small. The Shooter sweeps the same box.
        grid, shooter = normal_form_grid(eps, 5), Shooter(eps, 10)
        assert grid.p_max == shooter.grid.p_max == -grid.p_min
        assert shooter.grid == normal_form_grid(eps, 21)
        assert abs(grid.p_max - half) <= tol

    def test_eps_zero_is_harmonic(self):
        grid = normal_form_grid(0.0, 241)
        slp = normal_form_sl(0.0, grid)
        assert np.array_equal(slp.q.values, grid.points**2)
        assert np.all(slp.c.values == 1.0) and np.all(slp.w.values == 1.0)

    @pytest.mark.parametrize("eps", [0.8, 1.6])
    def test_singular_ends_are_finite_and_dropped(self, eps):
        # On the whole interval the end nodes are the poles of q: tan of the
        # rounded pi/2 is about 1.6e16, so q there is large and finite, and
        # `discretize` drops those rows, so no value there reaches the matrix.
        grid = normal_form_grid(eps, 201)
        assert grid.p_max == math.pi / (2 * eps)
        slp = normal_form_sl(eps, grid)
        q = slp.q.values
        assert np.all(np.isfinite(q)) and min(abs(q[0]), abs(q[-1])) > 1e30
        x = grid.points[100:103]
        inner = (1 - eps**4 / 4) * (np.tan(eps * x) / eps) ** 2
        assert np.allclose(q[100:103], inner, rtol=1e-14)
        patched = q.copy()
        patched[0], patched[-1] = q[1], q[-2]
        pair = discretize(slp)
        ref = discretize(SturmLiouvilleProblem(slp.c, SampledFunction(grid, patched), slp.w))
        for got, want in ((pair.diag, ref.diag), (pair.offdiag, ref.offdiag),
                          (pair.b_diag, ref.b_diag)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("eps2", [0.0, 1e-8, 0.03, 0.05, 0.3, 1.15, 3.33, 6.55])
    def test_ground_state_is_cos_to_kappa(self, eps2):
        # R^2 = cos^(2 kappa)(eps x), exp(-x^2) at eps = 0, and its box
        # {log R >= -72}. At eps^2 = 1e-8 the reference power's own rounding,
        # about 2 kappa ulp, sets the tolerance.
        eps = math.sqrt(eps2)
        half = normal_form_grid(eps, 5).p_max
        x = np.linspace(-half, half, 101)[1:-1]
        if eps2:
            kappa = 0.5 + 1.0 / eps2
            want = np.cos(eps * x) ** (2 * kappa)
        else:
            want = np.exp(-x * x)
        assert np.allclose(ground_state_sq(eps, x), want, rtol=1e-7 if eps2 == 1e-8 else 1e-12,
                           atol=0)
        if eps2 == 0.0:
            assert half == 12.0
        elif eps2 < 0.1:
            assert half < math.pi / (2 * eps)
            assert math.log(ground_state_sq(eps, np.array([half]))[0]) == pytest.approx(-144.0)
        else:
            # kappa <= 4: the whole interval to rounding, and R = 0 at its ends.
            assert half == math.pi / (2 * eps)
            assert np.array_equal(ground_state_sq(eps, np.array([-half, half])), [0.0, 0.0])

    @pytest.mark.parametrize("params", [
        GupOscillatorParams(1.0, 0.0), GupOscillatorParams(1.0, 0.3),
        SwansonParams(2.0, 0.3, 0.1, 0.6),
    ], ids=repr)
    def test_ground_level_is_exact_level_0(self, params):
        form = params.normal_form()
        assert ground_level(form.eps) == pytest.approx(form.exact_levels(1)[0], rel=1e-15)

    def test_ground_state_box_at_eps2_003(self):
        # Short of the interval where kappa is large: 8.38, not pi/(2 eps) = 9.07.
        assert normal_form_grid(math.sqrt(0.03), 5).p_max == pytest.approx(8.3799, abs=1e-4)

    @pytest.mark.parametrize("params", [
        GupOscillatorParams(1.0, 0.05), GupOscillatorParams(2.0, 0.1),
        GupOscillatorParams(0.7, 0.3), SwansonParams(2.0, 0.3, 0.1, 0.05),
    ], ids=["osc-1-0.05", "osc-2-0.1", "osc-0.7-0.3", "swanson-0.05"])
    def test_closed_form_ground_state_residual_is_second_order(self, params):
        # The p-space ground state is phi0 = u^(-kappa/2 - delta/(2 tau)),
        # u = 1 + tau p^2, kappa = 1/2 + 1/eps^2, at lam0 = exact_eigenvalue(0).
        # Its SL residual (c non-constant) is the stencil error alone: O(h^2).
        form = params.normal_form()
        power = -0.5 * (0.5 + 1.0 / form.eps2) - 0.5 * params.delta / params.tau
        lam0, lam1 = form.exact_eigenvalue(0), form.exact_eigenvalue(1)
        defects = []
        for n in (401, 801, 1601):
            grid = make_grid(-10.0, 10.0, n)
            phi0 = sample(grid, lambda p: (1.0 + params.tau * p * p) ** power)
            slp, inner = params.sl(grid), inner_slice(n)
            defects.append(np.max(np.abs(slp.residual(phi0, lam0).values[inner])))
        for coarse, fine in zip(defects, defects[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.02)
        # The next level's eigenvalue leaves an O(1) defect.
        assert np.max(np.abs(slp.residual(phi0, lam1).values[inner])) > 1e3 * defects[-1]


class TestMassProfiles:
    """M = 1/c read off the SL problem, against the closed forms."""

    def test_gup_values(self):
        m = mass(GupOscillatorParams(1.0, 1.0))
        assert at(m, 0.0) == pytest.approx(1.0)
        assert at(m, 1.0) == pytest.approx(0.5)

    def test_gup_tau_zero_constant(self):
        m = mass(GupOscillatorParams(1.0, 0.0))
        assert np.allclose(m.values, 1.0)

    def test_gup_even_and_inverse_of_c(self):
        m = mass(GupOscillatorParams(1.0, 0.3))
        assert np.allclose(m.values, m.values[::-1])
        assert np.allclose(m.values, 1.0 / (1.0 + 0.3 * GRID.points**2), rtol=1e-15)

    def test_swanson_equals_gup_when_alpha_is_beta(self):
        sw = mass(SwansonParams(1.0, 0.2, 0.2, 0.1))
        gup = mass(GupOscillatorParams(1.0, 0.1))
        assert np.allclose(sw.values, gup.values, atol=1e-14)

    def test_swanson_point_value(self):
        sw = mass(SwansonParams(1.0, 0.2, 0.1, 0.1))
        assert at(sw, 0.0) == pytest.approx(1.0)
        expo = 1.0 + 0.1 / (0.1 * 1.3)
        assert at(sw, 1.0) == pytest.approx(1.1**-expo, rel=1e-14)
        assert 1.1**-expo == pytest.approx(0.84482506, abs=1e-8)

    def test_swanson_tau_zero_gaussian(self):
        # The tau -> 0 limit of (1+tau p^2)^-(1+delta/tau) is exp(-delta p^2).
        sw = mass(SwansonParams(1.0, 0.2, 0.1, 0.0))
        assert np.allclose(sw.values, np.exp(-0.1 / 1.3 * GRID.points**2), rtol=1e-14)


class TestEffectivePotentials:
    """V_eff - Lambda = q - lam w read off the SL problem."""

    def test_gup_values(self):
        v = veff(GupOscillatorParams(1.0, 1.0), 0.5)
        assert at(v, 0.0) == pytest.approx(-1.0)  # -lam = -2E/omega^2
        assert at(v, 1.0) == pytest.approx(0.0)

    def test_gup_tau_zero_parabola(self):
        v = veff(GupOscillatorParams(2.0, 0.0), 1.0)
        assert np.allclose(v.values, GRID.points**2 / 4 - 0.5, atol=1e-13)

    def test_swanson_at_origin(self):
        v = veff(SwansonParams(1.0, 0.2, 0.1, 0.1), 0.5)
        assert at(v, 0.0) == pytest.approx(-(2 * 0.5 + 0.1) / 1.3)

    def test_swanson_point_value(self):
        # Independent arithmetic: bracket = (0.7 - 1.1*0.1) - 1.1 = -0.51,
        # power = -1 + delta/tau = -3/13, divided by omega(omega+a+b) = 1.3.
        v = veff(SwansonParams(1.0, 0.2, 0.1, 0.1), 0.5)
        expected = -0.51 * 1.1 ** (-3 / 13) / 1.3
        assert expected == pytest.approx(-0.38377322, abs=1e-8)
        assert at(v, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_swanson_alpha_beta_collapse_at_small_tau(self):
        # With alpha = beta the bracket reduces to the oscillator form up to
        # the 1/omega^2 normalization (exactly in the tau -> 0 limit).
        omega, tau = 1.3, 1e-7
        sw = veff(SwansonParams(omega, 0.0, 0.0, tau), 0.7)
        gup = veff(GupOscillatorParams(omega, tau), 0.7)
        assert np.allclose(sw.values, gup.values, atol=1e-5)

    def test_swanson_tau_zero_gaussian(self):
        # tau = 0: (C p^2 - (2E+alpha-beta)) exp(delta p^2)/G with C = 0.7.
        v = veff(SwansonParams(1.0, 0.2, 0.1, 0.0), 0.5)
        p = GRID.points
        expected = (0.7 * p * p - 1.1) * np.exp(0.1 / 1.3 * p * p) / 1.3
        assert np.allclose(v.values, expected, rtol=1e-13, atol=0)


def test_tau_continuity_of_spectrum():
    # dE_n/dtau = omega^2 (n^2+n+1/2)/2 at tau = 0, so the 1e-3 window for
    # the lowest six levels needs a moderate omega.
    omega = 0.5
    g = make_grid(-17, 17, 1201)
    par0 = GupOscillatorParams(omega, 0.0)
    par1 = GupOscillatorParams(omega, 1e-4)
    e0 = solve_sl(gup_oscillator_sl(par0, g), 6).eigenvalues
    e1 = solve_sl(gup_oscillator_sl(par1, g), 6).eigenvalues
    shift = np.abs(
        np.array([par1.energy_from_eigenvalue(v) for v in e1])
        - np.array([par0.energy_from_eigenvalue(v) for v in e0])
    )
    assert np.max(shift) <= 1e-3


MODEL_KWARGS = {
    "gup-oscillator": dict(omega=1.3, tau=0.1),
    "swanson": dict(omega=2.0, alpha=0.3, beta=0.1, tau=0.1),
}
MODEL_BUILDERS = {"gup-oscillator": gup_oscillator_sl, "swanson": swanson_sl}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_table_methods_match_module_functions(name):
    params = MODELS[name](**MODEL_KWARGS[name])
    slp, ref = params.sl(GRID), MODEL_BUILDERS[name](params, GRID)
    for attr in ("c", "q", "w"):
        assert np.array_equal(getattr(slp, attr).values, getattr(ref, attr).values)
