"""Tests of the factorization / intertwining machinery."""

import math

import numpy as np
import pytest

from gupmdm.algebra import LadderRep, apply_ladder, ladder_commutator
from gupmdm.core import SampledFunction, derivative, inner_slice, make_grid, sample
from gupmdm import solver
from gupmdm.solver import ABSTOL, solve_sl
from gupmdm.susy import (
    build_unweighted_problem,
    demo_potential,
    partner_check,
    partner_problem,
    superpotential_from_ground_state,
    xi_gup,
)


def veff_from_factorization(rep: LadderRep, c0: float) -> SampledFunction:
    """V_eff = c0 + theta^2 - (xi theta)', with (xi, theta) = (rep.r, rep.s)."""
    return c0 + rep.s * rep.s - derivative(rep.r * rep.s, 1)


class TestXi:
    def test_point_values(self):
        g = make_grid(-2, 2, 5)
        xi = xi_gup(0.25, g)
        # p = -2, -1, 0, 1, 2
        expected = [math.sqrt(2.0), math.sqrt(1.25), 1.0, math.sqrt(1.25), math.sqrt(2.0)]
        assert np.allclose(xi.values, expected, rtol=0, atol=1e-15)

    def test_tau_zero_is_unity(self):
        g = make_grid(-5, 5, 101)
        assert np.all(xi_gup(0.0, g).values == 1.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            xi_gup(-0.1, make_grid(-1, 1, 11))


class TestSuperpotential:
    def test_gaussian_ground_state(self):
        # phi0 = exp(-p^2/2), xi = 1  =>  theta = p exactly (up to FD error).
        g = make_grid(-6, 6, 1201)
        xi = xi_gup(0.0, g)
        phi0 = sample(g, lambda p: np.exp(-0.5 * p * p))
        theta = superpotential_from_ground_state(xi, phi0)
        # The quotient's relative FD error grows like p^3 where phi0 decays,
        # so check tightly on |p| <= 2 and loosely on the full inner region.
        mask = np.abs(g.points) <= 2.0
        assert np.allclose(theta.values[mask], g.points[mask], atol=5e-5)
        sl = inner_slice(g.n)
        assert np.allclose(theta.values[sl], g.points[sl], atol=2e-3)

    def test_even_ground_state_gives_odd_theta(self):
        g = make_grid(-8, 8, 1601)
        tau = 0.05
        slp = build_unweighted_problem(tau, g)
        spec = solve_sl(slp, 1)
        xi = xi_gup(tau, g)
        theta = superpotential_from_ground_state(xi, spec.eigenfunctions[0])
        sl = inner_slice(g.n)
        vals = theta.values[sl]
        assert np.allclose(vals, -vals[::-1], atol=1e-8)

    def test_annihilates_ground_state(self):
        g = make_grid(-8, 8, 1601)
        tau = 0.05
        slp = build_unweighted_problem(tau, g)
        spec = solve_sl(slp, 1)
        xi = xi_gup(tau, g)
        phi0 = spec.eigenfunctions[0]
        theta = superpotential_from_ground_state(xi, phi0)
        out = apply_ladder(LadderRep(r=xi, s=theta), phi0)
        sl = inner_slice(g.n)
        scale = float(np.max(np.abs(phi0.values)))
        assert np.max(np.abs(out.values[sl])) / scale < 1e-6

    @pytest.mark.parametrize("n", [301, 1202])
    def test_linear_extension_outside_inner_region(self, n):
        # Past the inner region theta continues the line through its first
        # (last) two inner values, bit for bit as a per-index loop gives it.
        g = make_grid(-7, 6, n)
        xi = xi_gup(0.1, g)
        phi0 = sample(g, lambda p: (1.0 + 0.1 * p * p) * np.exp(-0.5 * (p - 0.3) ** 2))
        theta = superpotential_from_ground_state(xi, phi0).values
        sl = inner_slice(g.n)
        lo, hi, h = sl.start, sl.stop, g.h
        slope_l = (theta[lo + 1] - theta[lo]) / h
        slope_r = (theta[hi - 1] - theta[hi - 2]) / h
        expected = theta.copy()
        for i in range(lo):
            expected[i] = theta[lo] - slope_l * h * (lo - i)
        for i in range(hi, g.n):
            expected[i] = theta[hi - 1] + slope_r * h * (i - hi + 1)
        assert lo > 1 and hi < g.n - 1
        assert np.array_equal(theta, expected)

    def test_sign_changing_state_rejected(self):
        g = make_grid(-6, 6, 601)
        xi = xi_gup(0.0, g)
        phi1 = sample(g, lambda p: p * np.exp(-0.5 * p * p))
        with pytest.raises(ValueError):
            superpotential_from_ground_state(xi, phi1)


class TestVeffReconstruction:
    def test_recovers_demo_potential(self):
        # V_eff built from the numerical ground state must reproduce
        # V - Lambda_0 + c0 = V when c0 = Lambda_0.
        tau = 0.05
        g = make_grid(-8, 8, 9601)
        slp = build_unweighted_problem(tau, g)
        spec = solve_sl(slp, 1)
        xi = xi_gup(tau, g)
        theta = superpotential_from_ground_state(xi, spec.eigenfunctions[0])
        veff = veff_from_factorization(LadderRep(r=xi, s=theta), float(spec.eigenvalues[0]))
        sl = inner_slice(g.n)
        dev = np.abs(veff.values[sl] - slp.q.values[sl])
        assert np.max(dev) < 5e-4

    def test_undeformed_oscillator_closed_form(self):
        # xi = 1, theta = p, c0 = 1  =>  V_eff = p^2 exactly at grid points
        # (the FD derivative of xi*theta = p is exact for linear data).
        g = make_grid(-5, 5, 501)
        xi = xi_gup(0.0, g)
        theta = sample(g, lambda p: p)
        veff = veff_from_factorization(LadderRep(r=xi, s=theta), 1.0)
        assert np.allclose(veff.values, g.points**2, atol=1e-12)


class TestPartner:
    def test_undeformed_partner_is_shifted_oscillator(self):
        # tau = 0: V_1 = p^2 + 2, isospectral with p^2 shifted up one level.
        g = make_grid(-5, 5, 501)
        xi = xi_gup(0.0, g)
        theta = sample(g, lambda p: p)
        rep = LadderRep(r=xi, s=theta)
        veff = veff_from_factorization(rep, 1.0)
        v1 = veff + ladder_commutator(rep)
        assert np.allclose(v1.values, g.points**2 + 2.0, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.0, 0.05])
    def test_isospectral_shift(self, tau):
        p_max = 8.0 if tau == 0.0 else 14.0
        chk = partner_check(tau, p_max, 1501, k=4)
        assert np.max(chk.shift_defects) < 1e-6
        assert np.max(chk.mapped_residuals) < 1e-3

    @pytest.mark.parametrize("tau", [0.0, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("n", [600, 601, 1501, 3001])
    def test_every_seeded_grid_is_certified(self, n, tau, monkeypatch):
        # Three grids are seeded: the original's fine grid, the partner's
        # coarse grid (with the original's coarse levels 1..k) and its fine
        # grid. Each seed is certified, so none of them is bisected.
        certified = []

        def polish(*args):
            result = real_polish(*args)
            certified.append(result is not None)
            return result

        real_polish = solver._polish
        monkeypatch.setattr(solver, "_polish", polish)
        partner_check(tau, 14.0, n)
        assert certified == [True] * 3

    @pytest.mark.parametrize("tau", [0.0, 0.05, 0.3, 1.0])
    def test_seeded_partner_levels_are_its_own(self, tau):
        # The original's levels 1..k seed the partner's solve; the levels
        # found are the partner pencil's own, within ABSTOL of its bisected
        # ones each, not the seeds: each is over 1000 ABSTOL from its seed
        # (9e-7 at tau = 0, 1e-4 and more above).
        g = make_grid(-14, 14, 601)
        spec = solve_sl(build_unweighted_problem(tau, g), 6)
        _, partner = partner_problem(tau, spec.eigenfunctions[0])
        seeded = solve_sl(partner, 5, spec.eigenvalues[1:]).eigenvalues
        bisected = solve_sl(partner, 5).eigenvalues
        assert np.max(np.abs(seeded - bisected)) <= 2 * ABSTOL
        assert np.min(np.abs(seeded - spec.eigenvalues[1:])) > 1000 * ABSTOL


class TestDemoProblem:
    def test_potential_saturates(self):
        g = make_grid(-50, 50, 101)
        v = demo_potential(0.1, g)
        # p^2/(1+tau p^2) -> 1/tau for large |p|
        assert v.values[0] == pytest.approx(10.0, abs=0.05)

    def test_build_has_unit_weight(self):
        g = make_grid(-5, 5, 101)
        slp = build_unweighted_problem(0.2, g)
        assert np.all(slp.w.values == 1.0)
        assert np.allclose(slp.c.values, 1.0 + 0.2 * g.points**2, atol=1e-15)
