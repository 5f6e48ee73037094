"""Tests of the ladder representation and Hermitization machinery."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gupmdm
from gupmdm.core import (
    SampledFunction,
    constant,
    derivative,
    inner_slice,
    make_grid,
    require_same_grid,
    sample,
)
from gupmdm.models import SwansonParams
from gupmdm.solver import solve_sl
from gupmdm.algebra import (
    LadderRep,
    apply_ladder,
    hermitized_problem,
    ladder_commutator,
    similarity_weight,
    swanson_coefficients,
    untransformed_residual,
)


def apply_ladder_adjoint(rep: LadderRep, phi: SampledFunction) -> SampledFunction:
    """eta+ phi = -(r phi)' + s phi (formal adjoint under the plain dp measure)."""
    require_same_grid(rep.r, phi)
    return -derivative(rep.r * phi, 1) + rep.s * phi


def standard_rep(grid):
    return LadderRep(r=constant(grid, 1.0), s=sample(grid, lambda p: p))


class TestLadderRep:
    def test_nonpositive_r_rejected(self):
        g = make_grid(-1, 1, 21)
        with pytest.raises(ValueError):
            LadderRep(r=sample(g, lambda p: p), s=constant(g, 0.0))


class TestCommutator:
    def test_standard_rep_is_two(self):
        g = make_grid(-4, 4, 401)
        comm = ladder_commutator(standard_rep(g))
        assert np.allclose(comm.values, 2.0, atol=1e-10)

    def test_constant_s_vanishes(self):
        g = make_grid(-4, 4, 401)
        rep = LadderRep(r=constant(g, 1.0), s=constant(g, 0.7))
        assert np.allclose(ladder_commutator(rep).values, 0.0, atol=1e-12)

    def test_quadratic_r(self):
        # r = 1 + 0.1 p^2, s = 0: [eta, eta+] = -r r'' = -0.2 (1 + 0.1 p^2),
        # exact on the grid because the second-difference of a quadratic is exact.
        g = make_grid(-3, 3, 301)
        rep = LadderRep(r=sample(g, lambda p: 1.0 + 0.1 * p * p), s=constant(g, 0.0))
        expected = -0.2 * (1.0 + 0.1 * g.points**2)
        assert np.allclose(ladder_commutator(rep).values, expected, atol=1e-10)

    def test_matches_operator_composition(self):
        # (eta eta+ - eta+ eta) phi == [eta, eta+] phi, checked by direct
        # application on a smooth compactly-supported test function.
        g = make_grid(-6, 6, 2401)
        rep = LadderRep(
            r=sample(g, lambda p: 1.0 + 0.05 * p * p),
            s=sample(g, lambda p: p + 0.1 * np.sin(p)),
        )
        phi = sample(g, lambda p: np.exp(-0.5 * p * p))
        lhs = apply_ladder(rep, apply_ladder_adjoint(rep, phi)) - apply_ladder_adjoint(
            rep, apply_ladder(rep, phi)
        )
        rhs = ladder_commutator(rep) * phi
        sl = inner_slice(g.n)
        num = np.linalg.norm(lhs.values[sl] - rhs.values[sl])
        den = np.linalg.norm(rhs.values[sl])
        assert num / den < 1e-4

    def test_adjoint_is_formal_adjoint(self):
        # <eta+ f, g> = <f, eta g> under the plain dp measure for functions
        # vanishing at the ends.
        g = make_grid(-8, 8, 3201)
        rep = LadderRep(
            r=sample(g, lambda p: 1.0 + 0.1 * p * p), s=sample(g, lambda p: 0.5 * p)
        )
        f = sample(g, lambda p: np.exp(-0.5 * p * p))
        u = sample(g, lambda p: p * np.exp(-0.4 * p * p))
        h = g.h
        lhs = float(np.sum(apply_ladder_adjoint(rep, f).values * u.values) * h)
        rhs = float(np.sum(f.values * apply_ladder(rep, u).values) * h)
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestSwansonCoefficients:
    PARAMS = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)

    def test_point_values_standard_rep(self):
        # r = 1, s = p at p = 1: s~ = (alpha-beta)(2 r s - r r') = 0.2*2 = 0.4;
        # w~ = 2(1-1-0) + 0.3(1+1) + 0.1(0+0-1-0+1) + 1 = 1.6.
        g = make_grid(-2, 2, 5)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        i = 3  # p = 1
        assert coeffs.r_t.values[i] == pytest.approx(math.sqrt(1.6), abs=1e-14)
        assert coeffs.s_t.values[i] == pytest.approx(0.4, abs=1e-12)
        assert coeffs.w_t.values[i] == pytest.approx(1.6, abs=1e-12)

    def test_polynomial_w_profile(self):
        # Same rep, general p: w~ = 2.4 p^2 - 0.8 (exact for polynomial data).
        g = make_grid(-3, 3, 61)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        assert np.allclose(coeffs.w_t.values, 2.4 * g.points**2 - 0.8, atol=1e-11)

    def test_requires_positive_omega_tilde(self):
        g = make_grid(-1, 1, 11)
        bad = SwansonParams(omega=1.0, alpha=2.0, beta=-0.5, tau=0.0)
        with pytest.raises(ValueError):
            swanson_coefficients(standard_rep(g), bad)


class TestSimilarityWeight:
    PARAMS = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)

    def test_gaussian_closed_form(self):
        # Standard rep: s~/r~^2 = 0.2*2p/1.6 = p/4, so
        # rho = exp(-p^2/16); the trapezoid rule is exact for the linear
        # integrand, so this holds to roundoff.
        g = make_grid(-6, 6, 1201)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        rho = similarity_weight(coeffs)
        assert np.allclose(rho.values, np.exp(-g.points**2 / 16.0), rtol=1e-12)

    def test_normalized_at_origin(self):
        g = make_grid(-5, 5, 1001)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        rho = similarity_weight(coeffs)
        assert rho.values[g.n // 2] == pytest.approx(1.0, abs=1e-14)

    def test_alpha_equals_beta_gives_unity(self):
        g = make_grid(-5, 5, 1001)
        params = SwansonParams(omega=2.0, alpha=0.2, beta=0.2, tau=0.0)
        coeffs = swanson_coefficients(standard_rep(g), params)
        rho = similarity_weight(coeffs)
        assert np.allclose(rho.values, 1.0, atol=1e-15)

    @pytest.mark.parametrize("grid_args, r, s", [
        ((-10.0, 10.0, 8001), lambda p: np.ones_like(p), lambda p: p),
        ((-4.0, 5.0, 977), lambda p: 1.0 + 0.1 * p + 0.3 * p * p,
         lambda p: p + 0.2 * np.sin(p)),
    ], ids=["hermitize-suite", "non-symmetric"])
    def test_matches_scipy_cumulative_trapezoid(self, grid_args, r, s):
        # The numpy trapezoid is scipy's, bit for bit.
        from scipy.integrate import cumulative_trapezoid

        g = make_grid(*grid_args)
        coeffs = swanson_coefficients(LadderRep(r=sample(g, r), s=sample(g, s)),
                                      self.PARAMS)
        integral = cumulative_trapezoid(coeffs.s_t.values / coeffs.r_t.values**2,
                                        g.points, initial=0.0)
        integral -= np.interp(0.0, g.points, integral)
        assert np.array_equal(similarity_weight(coeffs).values, np.exp(-0.5 * integral))

    def test_overflow_raises(self):
        # alpha < beta flips the sign of s~, so rho = exp(+p^2/16) and the
        # weight overflows once p^2/16 exceeds the double-precision range.
        g = make_grid(-200, 200, 2001)
        params = SwansonParams(omega=2.0, alpha=0.1, beta=0.3, tau=0.0)
        coeffs = swanson_coefficients(standard_rep(g), params)
        with pytest.raises(ValueError):
            similarity_weight(coeffs)


class TestHermitized:
    PARAMS = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)

    def test_standard_rep_spectrum(self):
        # h~ = -1.6 D^2 + 2.425 p^2 - 1, so Lambda_n = (2n+1) sqrt(3.88) - 1.
        g = make_grid(-10, 10, 4001)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        slp = hermitized_problem(coeffs)
        spec = solve_sl(slp, 5)
        omega_bar = math.sqrt(3.88)
        for n in range(5):
            expected = (2 * n + 1) * omega_bar - 1.0
            assert spec.eigenvalues[n] == pytest.approx(expected, abs=2e-4)

    def test_potential_closed_form(self):
        g = make_grid(-4, 4, 801)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        slp = hermitized_problem(coeffs)
        assert np.allclose(slp.c.values, 1.6, atol=1e-14)
        assert np.allclose(slp.q.values, 2.425 * g.points**2 - 1.0, atol=1e-10)
        assert np.all(slp.w.values == 1.0)

    def test_untransformed_residual_small(self):
        g = make_grid(-10, 10, 8001)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        rho = similarity_weight(coeffs)
        spec = solve_sl(hermitized_problem(coeffs), 3)
        for n in range(3):
            res = untransformed_residual(
                coeffs, rho, spec.eigenfunctions[n], float(spec.eigenvalues[n])
            )
            assert res < 1e-5

    def test_untransformed_residual_negative_control(self):
        g = make_grid(-10, 10, 4001)
        coeffs = swanson_coefficients(standard_rep(g), self.PARAMS)
        rho = similarity_weight(coeffs)
        spec = solve_sl(hermitized_problem(coeffs), 1)
        res = untransformed_residual(
            coeffs, rho, spec.eigenfunctions[0], float(spec.eigenvalues[0]) + 1.0
        )
        assert res > 1e-1


class TestCoefficientMatch:
    def test_report_values(self):
        # The ladder route's leading coefficient (omega - alpha - beta) r^2
        # and the momentum-space ODE's omega (omega + alpha + beta) differ.
        g = make_grid(-2, 2, 41)
        params = SwansonParams(omega=2.0, alpha=0.3, beta=0.1, tau=0.0)
        coeffs = swanson_coefficients(standard_rep(g), params)
        lead_ladder = float(np.max(coeffs.r_t.values**2))
        assert lead_ladder == pytest.approx(1.6, abs=1e-14)
        assert params.big_g == pytest.approx(4.8, abs=1e-14)
        assert abs(lead_ladder - params.big_g) == pytest.approx(3.2, abs=1e-14)


def test_imports_leave_out_scipy_integrate():
    # The CLI, the ladder algebra and the SUSY pipeline load without scipy.integrate.
    code = ("import sys, gupmdm.cli, gupmdm.algebra, gupmdm.susy; "
            "sys.exit('scipy.integrate' in sys.modules)")
    src = str(Path(gupmdm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
