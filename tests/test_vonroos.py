import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gupmdm.core import constant, derivative, inner_slice, make_grid, sample
from gupmdm.models import GupOscillatorParams, gup_oscillator_sl
from gupmdm.vonroos import AmbiguityParams, reduced_problem, vonroos_apply


GRID = make_grid(-6, 6, 481)
GAUSSIAN = sample(GRID, lambda p: np.exp(-0.5 * p * p))


def inv_mass(tau=1.0, grid=GRID):
    return sample(grid, lambda p: 1.0 / (1 + tau * p * p))


def identity_deviations(amb, ns):
    """max |(vonroos_apply + V) phi - (-D (1/M) D + V_eff) phi| on the inner
    region, per grid size, with the reduced form as an SL residual."""
    devs = []
    for n in ns:
        g = make_grid(-6, 6, n)
        m = inv_mass(0.1, g)
        v = sample(g, lambda p: p * p)
        phi = sample(g, lambda p: np.exp(-0.5 * p * p))
        lhs = vonroos_apply(m, amb, phi) + v * phi
        rhs = -reduced_problem(m, v, amb).residual(phi, 0.0)
        sl = inner_slice(n)
        devs.append(float(np.max(np.abs(lhs.values[sl] - rhs.values[sl]))))
    return devs


class TestAmbiguityParams:
    def test_constraint_exact(self):
        amb = AmbiguityParams(a=0.25, b=-0.5)
        assert amb.a + amb.b + amb.c == -1.0

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_constraint_holds_generally(self, a, b):
        amb = AmbiguityParams(a, b)
        assert amb.a + amb.b + amb.c == pytest.approx(-1.0, abs=1e-12)


class TestMassPositivity:
    def test_vonroos_apply_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="mass function must be positive everywhere"):
            vonroos_apply(sample(GRID, lambda p: p), AmbiguityParams(0.0, -1.0), GAUSSIAN)

    def test_reduced_problem_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="mass function must be positive everywhere"):
            reduced_problem(sample(GRID, lambda p: p), constant(GRID, 0.0),
                            AmbiguityParams(0.0, -1.0))


class TestVonroosApply:
    def test_constant_mass_is_free_kinetic(self):
        m = constant(GRID, 1.0)
        for amb in (AmbiguityParams(0, -1), AmbiguityParams(-0.5, 0.3)):
            out = vonroos_apply(m, amb, GAUSSIAN)
            exact = -(GRID.points**2 - 1) * GAUSSIAN.values
            sl = inner_slice(GRID.n)
            assert np.allclose(out.values[sl], exact[sl], atol=1e-3)

    def test_bendaniel_duke_equals_conservative_form(self):
        m = inv_mass()
        amb = AmbiguityParams(0.0, -1.0)
        lhs = vonroos_apply(m, amb, GAUSSIAN)
        rhs = -derivative(derivative(GAUSSIAN, 1) / m, 1)
        sl = inner_slice(GRID.n)
        assert np.max(np.abs(lhs.values[sl] - rhs.values[sl])) <= 1e-10

    def test_symmetrization_swap(self):
        m = inv_mass()
        out1 = vonroos_apply(m, AmbiguityParams(-1.0, 0.0), GAUSSIAN)  # (-1,0,0)
        out2 = vonroos_apply(m, AmbiguityParams(0.0, 0.0), GAUSSIAN)  # (0,0,-1)
        assert np.allclose(out1.values, out2.values, atol=1e-12)


class TestEffectivePotential:
    def test_constant_mass_identity(self):
        v = sample(GRID, lambda p: p * p)
        out = reduced_problem(constant(GRID, 1.0), v, AmbiguityParams(0.3, -0.7)).q
        assert np.allclose(out.values, v.values, atol=1e-12)

    def test_bendaniel_duke_no_ambiguity_terms(self):
        v = sample(GRID, lambda p: np.cos(p))
        out = reduced_problem(inv_mass(), v, AmbiguityParams(0.0, -1.0)).q
        assert np.allclose(out.values, v.values, atol=1e-12)

    def test_first_derivative_term(self):
        # (a, b) = (1, -1): V_eff - V = -M'^2/M^3, which for M = (1+p^2/2)^-1
        # is -p^2/(1+p^2/2).
        out = reduced_problem(inv_mass(tau=0.5), constant(GRID, 0.0),
                              AmbiguityParams(1.0, -1.0)).q
        exact = -GRID.points**2 / (1 + 0.5 * GRID.points**2)
        assert np.allclose(out.values[1:-1], exact[1:-1], atol=1e-3)

    def test_point_value_at_origin(self):
        # a = c = -1/2, b = 0, M = (1+p^2)^-1: M''(0) = -2, M'(0) = 0.
        out = reduced_problem(inv_mass(tau=1.0), constant(GRID, 0.0),
                              AmbiguityParams(-0.5, 0.0)).q
        i0 = GRID.n // 2
        assert GRID.points[i0] == 0.0
        assert out.values[i0] == pytest.approx(-1.0, abs=1e-3)

    @given(
        a=st.floats(-1.5, 1.5),
        b=st.floats(-1.5, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_under_a_c_swap(self, a, b):
        # With c = -1-a-b, the coefficient a(a+b+1)+b+1 equals -ac+b+1, which
        # is a <-> c symmetric; verified numerically across swapped sets.
        amb = AmbiguityParams(a, b)
        swapped = AmbiguityParams(amb.c, b)
        v = sample(GRID, lambda p: p * p)
        m = inv_mass(tau=0.4)
        out1 = reduced_problem(m, v, amb).q
        out2 = reduced_problem(m, v, swapped).q
        assert np.allclose(out1.values, out2.values, rtol=1e-10, atol=1e-10)


class TestReducedProblem:
    @pytest.mark.parametrize("a,b", [(0.0, -1.0), (-0.5, 0.0), (0.0, 0.0), (-1.0, 0.0)])
    def test_identity_converges_at_h_squared(self, a, b):
        devs = identity_deviations(AmbiguityParams(a, b), (241, 481, 961))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.15)
        assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.15)

    @seed(7547)
    @given(a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 0.5))
    @settings(max_examples=10, deadline=None, database=None)
    def test_every_ordering_converges_at_h_squared(self, a, b):
        devs = identity_deviations(AmbiguityParams(a, b), (401, 801, 1601))
        for coarse, fine in zip(devs, devs[1:]):
            assert 3.6 <= coarse / fine <= 4.4

    def test_constant_mass(self):
        v = sample(GRID, lambda p: p * p)
        slp = reduced_problem(constant(GRID, 1.0), v, AmbiguityParams(0.0, 0.0))
        out = -slp.residual(GAUSSIAN, 0.0)
        exact = -(GRID.points**2 - 1) * GAUSSIAN.values + v.values * GAUSSIAN.values
        sl = inner_slice(GRID.n)
        assert np.allclose(out.values[sl], exact[sl], atol=1e-3)
        assert np.all(slp.w.values == 1.0)

    def test_reproduces_gup_oscillator_coefficients(self):
        # c = 1/M equals the SL diffusion coefficient of the deformed oscillator.
        params = GupOscillatorParams(omega=1.0, tau=0.2)
        slp = reduced_problem(inv_mass(tau=0.2), constant(GRID, 0.0), AmbiguityParams(0.0, -1.0))
        assert np.allclose(slp.c.values, gup_oscillator_sl(params, GRID).c.values, atol=1e-13)
