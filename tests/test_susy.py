"""Tests of the factorization of the Liouville normal form."""

import numpy as np
import pytest

from gupmdm import solver
from gupmdm.algebra import LadderRep, ladder_commutator
from gupmdm.core import SampledFunction, constant, derivative, inner_slice
from gupmdm.models import (
    GupOscillatorParams,
    ground_level,
    ground_state_sq,
    normal_form_grid,
    normal_form_sl,
)
from gupmdm.solver import ABSTOL, solve_sl
from gupmdm.susy import partner_check, partner_sl, superpotential

TAUS = [0.0, 0.05, 0.3, 1.0]


def eps_of(tau: float) -> float:
    """eps of the omega = 1 oscillator's normal form."""
    return GupOscillatorParams(1.0, tau).normal_form().eps


def partner_shift(eps, grid) -> np.ndarray:
    """2W' = q_1 - q, partner_sl's q less normal_form_sl's."""
    return partner_sl(eps, grid).q.values - normal_form_sl(eps, grid).q.values


class TestSuperpotential:
    def test_oscillator_is_x(self):
        grid = normal_form_grid(0.0, 401)
        assert np.array_equal(superpotential(0.0, grid).values, grid.points)

    @pytest.mark.parametrize("tau", [0.05, 0.3])
    def test_is_minus_log_derivative_of_ground_state(self, tau):
        # W = -(log R)', R^2 = `ground_state_sq`, to the O(h^2) of the FD
        # derivative: the inner-region error falls 4x when h halves. (Where the
        # box is the whole interval, R^2 is 0 at the ends and log R not finite.)
        eps = eps_of(tau)
        errs = []
        for n in (401, 801):
            grid = normal_form_grid(eps, n)
            log_r = SampledFunction(grid, 0.5 * np.log(ground_state_sq(eps, grid.points)))
            err = -derivative(log_r, 1).values - superpotential(eps, grid).values
            errs.append(float(np.max(np.abs(err[inner_slice(n)]))))
        assert 3.8 < errs[0] / errs[1] < 4.2

    @pytest.mark.parametrize("tau", TAUS)
    def test_factorizes_the_normal_form(self, tau):
        # H = A+ A + mu_0 with A = D + W: q = W^2 - W' + mu_0 to rounding.
        eps = eps_of(tau)
        grid = normal_form_grid(eps, 801)
        q = normal_form_sl(eps, grid).q.values
        w = superpotential(eps, grid).values
        rebuilt = w * w - 0.5 * partner_shift(eps, grid) + ground_level(eps)
        assert np.max(np.abs(rebuilt - q) / np.maximum(1.0, np.abs(q))) < 1e-14


class TestPartnerProblem:
    def test_oscillator_partner_is_shifted_by_two(self):
        # eps = 0: H_1 = -D^2 + x^2 + 2, bit for bit q + 2.
        grid = normal_form_grid(0.0, 401)
        q = normal_form_sl(0.0, grid).q.values
        assert np.array_equal(partner_sl(0.0, grid).q.values, q + 2.0)
        comm = ladder_commutator(LadderRep(constant(grid, 1.0), superpotential(0.0, grid)))
        assert np.allclose(comm.values, 2.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tau", TAUS)
    def test_shift_is_the_ladder_commutator(self, tau):
        # q_1 - q = 2W' in closed form; [A, A+] = 2 r s' - r r'' of the sampled
        # (r, s) = (1, W) agrees to O(h^2) on the inner region.
        eps = eps_of(tau)
        errs = []
        for n in (401, 801):
            grid = normal_form_grid(eps, n)
            comm = ladder_commutator(LadderRep(constant(grid, 1.0), superpotential(eps, grid)))
            err = comm.values - partner_shift(eps, grid)
            errs.append(float(np.max(np.abs(err[inner_slice(n)]))))
        if tau == 0.0:
            assert max(errs) < 1e-12     # W = x: the stencil is exact to rounding
        else:
            assert 3.8 < errs[0] / errs[1] < 4.2


class TestPartnerCheck:
    @pytest.mark.parametrize("tau", TAUS)
    def test_partner_levels_are_the_closed_form(self, tau):
        # H_1's levels are mu_1, mu_2, ... of `NormalForm.exact_levels`.
        form = GupOscillatorParams(1.0, tau).normal_form()
        chk = partner_check(form, 3001)
        assert np.max(np.abs(chk.lam_partner - form.exact_levels(6)[1:])) < 1e-8

    @pytest.mark.parametrize("tau", [0.0, 0.05])
    def test_isospectral_shift(self, tau):
        chk = partner_check(GupOscillatorParams(1.0, tau).normal_form(), 1501, k=4)
        assert chk.eps == eps_of(tau)
        assert np.max(chk.shift_defects) < 1e-6
        assert np.max(chk.mapped_residuals) < 1e-3

    def test_strong_deformation(self):
        # tau = 1: the box is the whole interval and W ~ 1e16 at its end nodes.
        chk = partner_check(GupOscillatorParams(1.0, 1.0).normal_form(), 3001)
        assert np.max(chk.shift_defects) <= 1e-6
        assert np.max(chk.mapped_residuals) <= 1e-3

    @pytest.mark.parametrize("n, k", [(5, 3), (3001, 0)])
    def test_k_out_of_range(self, n, k):
        form = GupOscillatorParams(1.0, 0.05).normal_form()
        with pytest.raises(ValueError, match=f"need 1 <= k <= {n - 3}, got {k}"):
            partner_check(form, n, k=k)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("n", [600, 601, 1501, 3001])
    def test_every_seeded_grid_is_certified(self, n, tau, monkeypatch, dstebz_ranges):
        # All four grids are seeded: the original's coarse grid with the closed
        # form, the partner's coarse grid with the original's coarse levels
        # 1..k, and each fine grid with its coarse levels. Each seed is
        # certified, so dstebz only counts (range "V") and never bisects.
        certified = []

        def polish(*args):
            result = real_polish(*args)
            certified.append(result is not None)
            return result

        real_polish = solver._polish
        monkeypatch.setattr(solver, "_polish", polish)
        partner_check(GupOscillatorParams(1.0, tau).normal_form(), n)
        assert certified == [True] * 4
        assert dstebz_ranges == [1] * 4

    @pytest.mark.parametrize("tau", TAUS)
    def test_seeded_partner_levels_are_its_own(self, tau):
        # The original's levels 1..k seed the partner's solve; the levels
        # found are the partner pencil's own, within ABSTOL of its bisected
        # ones each, not the seeds: each is over 1000 ABSTOL from its seed.
        eps = eps_of(tau)
        grid = normal_form_grid(eps, 601)
        spec = solve_sl(normal_form_sl(eps, grid), 6)
        partner = partner_sl(eps, grid)
        seeded = solve_sl(partner, 5, spec.eigenvalues[1:]).eigenvalues
        bisected = solve_sl(partner, 5).eigenvalues
        assert np.max(np.abs(seeded - bisected)) <= 2 * ABSTOL
        assert np.min(np.abs(seeded - spec.eigenvalues[1:])) > 1000 * ABSTOL
