import math
import re

import numpy as np
import pytest

from gupmdm.core import make_grid, sample
from gupmdm.models import (
    MODELS,
    GupOscillatorParams,
    SwansonParams,
    WeightOverflowError,
    gup_oscillator_raw,
    NORMAL_FORM_HALF_WIDTH,
    gup_oscillator_sl,
    normal_form_grid,
    normal_form_sl,
    raw_residual_values,
    sl_residual_values,
    swanson_sl,
)
from gupmdm.solver import richardson, shooting_eigenvalue, solve_extrapolated, solve_sl


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


class TestGupOscillatorRaw:
    def test_tau_zero_is_plain_oscillator(self):
        raw = gup_oscillator_raw(GupOscillatorParams(omega=1.0, tau=0.0), GRID)
        assert np.allclose(raw.a1.values, 0.0)
        assert np.allclose(raw.a0E.values, 1.0)
        assert np.allclose(raw.a0P.values, GRID.points**2)

    def test_point_values_tau_one(self):
        raw = gup_oscillator_raw(GupOscillatorParams(omega=1.0, tau=1.0), GRID)
        assert at(raw.a1, 1.0) == pytest.approx(1.0)
        assert at(raw.a0E, 1.0) == pytest.approx(0.25)
        assert at(raw.a0P, 1.0) == pytest.approx(0.25)

    def test_a1_value(self):
        raw = gup_oscillator_raw(GupOscillatorParams(omega=1.0, tau=0.1), GRID)
        assert at(raw.a1, 3.0) == pytest.approx(0.6 / 1.9)


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

    @pytest.mark.parametrize("shift", [0.0, 0.5, -1.2])
    def test_integrating_factor_identity(self, shift):
        # (1+tau p^2) * raw defect == SL defect pointwise to rounding.
        params = GupOscillatorParams(omega=1.0, tau=0.1)
        raw = gup_oscillator_raw(params, GRID)
        slp = gup_oscillator_sl(params, GRID)
        phi = sample(GRID, lambda p: np.exp(-0.5 * (p - shift) ** 2))
        u = sample(GRID, lambda p: 1.0 + 0.1 * p * p)
        lhs = u * raw_residual_values(raw, phi, 1.3)
        rhs = sl_residual_values(slp, phi, 1.3)
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
        assert "tau = 0" in str(err.value)

    def test_cross_solver_spectrum(self):
        # Deformed Swanson solved by two independent methods.
        params = SwansonParams(omega=1.0, alpha=0.2, beta=0.1, tau=0.05)
        g1 = make_grid(-12, 12, 1201)
        g2 = g1.refined()
        s1 = solve_sl(swanson_sl(params, g1), 4)
        slp2 = swanson_sl(params, g2)
        s2 = solve_sl(slp2, 4)
        for n in range(4):
            lam = richardson(s1.eigenvalues[n], s2.eigenvalues[n])
            shot = shooting_eigenvalue(slp2, n).eigenvalue
            assert abs(lam - shot) <= 1e-6 * max(1.0, abs(shot))


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
        lams, _, _ = solve_extrapolated(params.sl, make_grid(-30, 30, 3001), 4)
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

    def test_grid_half_width(self):
        assert normal_form_grid(0.0, 5).p_max == NORMAL_FORM_HALF_WIDTH
        assert normal_form_grid(0.1, 5).p_max == NORMAL_FORM_HALF_WIDTH
        assert normal_form_grid(0.5, 5).p_max == math.pi
        assert normal_form_grid(0.5, 5).p_min == -math.pi

    def test_eps_zero_is_harmonic(self):
        grid = normal_form_grid(0.0, 241)
        slp = normal_form_sl(0.0, grid)
        assert np.array_equal(slp.q.values, grid.points**2)
        assert np.all(slp.c.values == 1.0) and np.all(slp.w.values == 1.0)

    def test_singular_ends_get_finite_stand_in(self):
        eps = 0.8
        grid = normal_form_grid(eps, 201)
        q = normal_form_sl(eps, grid).q.values
        assert q[0] == q[1] and q[-1] == q[-2]
        x = grid.points[100:103]
        inner = (1 - eps**4 / 4) * (np.tan(eps * x) / eps) ** 2
        assert np.allclose(q[100:103], inner, rtol=1e-14)
        # Below the singular width the box is truncated and keeps its ends.
        grid = normal_form_grid(0.05, 201)
        q = normal_form_sl(0.05, grid).q.values
        assert q[0] > q[1]


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
