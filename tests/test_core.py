import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupmdm.core import (
    GridMismatchError,
    SampledFunction,
    SturmLiouvilleProblem,
    constant,
    count_sign_changes,
    derivative,
    inner_relative_norm,
    inner_slice,
    make_grid,
    require_same_grid,
    sample,
)


def weighted_inner_product(
    f: SampledFunction, g: SampledFunction, w: SampledFunction
) -> float:
    """Trapezoid-rule approximation of integral f g w dp."""
    grid = require_same_grid(f, g, w)
    return float(np.trapezoid(f.values * g.values * w.values, dx=grid.h))


class TestMakeGrid:
    def test_five_points(self):
        g = make_grid(-10, 10, 5)
        assert np.array_equal(g.points, [-10, -5, 0, 5, 10])

    def test_three_points(self):
        g = make_grid(0, 1, 3)
        assert np.array_equal(g.points, [0, 0.5, 1])
        assert g.h == 0.5

    def test_spacing(self):
        assert make_grid(-12, 12, 2401).h == pytest.approx(0.01, abs=1e-15)

    def test_symmetric_odd_contains_zero(self):
        g = make_grid(-7, 7, 2001)
        assert np.min(np.abs(g.points)) == 0.0

    @pytest.mark.parametrize(
        "args", [(-1, 1, 2), (1, -1, 11), (0, 0, 11), (np.inf, 1, 11), (0, np.nan, 11),
                 (-1e308, 1e308, 11)]
    )
    def test_rejects_bad_input(self, args):
        with pytest.raises(ValueError):
            make_grid(*args)

    @pytest.mark.parametrize("n", [3, 4, 2001, 2000])
    def test_centred_box_mirrored(self, n):
        # The right half mirrors the left, which keeps p_min + i h bit for bit.
        g = make_grid(-7.3, 7.3, n)
        assert np.array_equal(g.points[::-1], -g.points)
        left = n // 2
        assert np.array_equal(g.points[:left], (g.p_min + g.h * np.arange(n))[:left])
        assert n % 2 == 0 or g.points[left] == 0.0

    def test_points_reproducible(self):
        g = make_grid(-3, 5, 977)
        assert np.array_equal(g.points, g.points)
        assert np.array_equal(g.points, g.p_min + g.h * np.arange(g.n))


class TestSampledFunction:
    def test_length_mismatch_rejected(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(4))

    def test_nonfinite_rejected(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(ValueError):
            SampledFunction(g, [0, 1, np.nan, 1, 0])

    def test_values_immutable(self):
        f = constant(make_grid(0, 1, 5), 2.0)
        with pytest.raises(ValueError):
            f.values[0] = 3.0

    def test_grid_mismatch_in_algebra(self):
        f = constant(make_grid(0, 1, 5), 1.0)
        g = constant(make_grid(0, 2, 5), 1.0)
        with pytest.raises(GridMismatchError):
            f + g


class TestWeightedInnerProduct:
    def test_constant(self):
        g = make_grid(0, 1, 11)
        one = constant(g, 1.0)
        assert weighted_inner_product(one, one, one) == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_trapezoid_error(self):
        g = make_grid(0, 1, 101)
        f = sample(g, lambda p: p)
        one = constant(g, 1.0)
        assert weighted_inner_product(f, f, one) == pytest.approx(1 / 3, abs=2e-5)

    def test_parity(self):
        g = make_grid(-4, 4, 81)
        odd = sample(g, lambda p: p**3)
        even = sample(g, lambda p: np.cos(p))
        w = sample(g, lambda p: 1.0 / (1 + p * p))
        assert weighted_inner_product(odd, even, w) == pytest.approx(0.0, abs=1e-12)

    def test_grid_mismatch(self):
        f = constant(make_grid(0, 1, 11), 1.0)
        g = constant(make_grid(0, 1, 21), 1.0)
        with pytest.raises(GridMismatchError):
            weighted_inner_product(f, g, f)

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_bilinear(self, a, b, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(-1, 1, 31)
        f1 = SampledFunction(g, rng.standard_normal(g.n))
        f2 = SampledFunction(g, rng.standard_normal(g.n))
        h = SampledFunction(g, rng.standard_normal(g.n))
        w = SampledFunction(g, rng.uniform(0.5, 2.0, g.n))
        assert weighted_inner_product(f1, h, w) == pytest.approx(
            weighted_inner_product(h, f1, w), rel=1e-12, abs=1e-12
        )
        lhs = weighted_inner_product(a * f1 + b * f2, h, w)
        rhs = a * weighted_inner_product(f1, h, w) + b * weighted_inner_product(
            f2, h, w
        )
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestDerivative:
    def test_exact_on_quadratic(self):
        g = make_grid(-2, 2, 41)
        d = derivative(sample(g, lambda p: p * p), 1)
        assert np.allclose(d.values, 2 * g.points, atol=1e-12)

    def test_second_exact_on_cubic(self):
        g = make_grid(-2, 2, 41)
        d = derivative(sample(g, lambda p: p**3), 2)
        assert np.allclose(d.values[1:-1], 6 * g.points[1:-1], atol=1e-10)

    def test_sin_error_bound(self):
        g = make_grid(-3, 3, 601)
        d = derivative(sample(g, np.sin), 1)
        err = np.max(np.abs(d.values[1:-1] - np.cos(g.points[1:-1])))
        assert err <= 2e-5

    def test_second_order_convergence(self):
        errs = []
        for n in (201, 401, 801):
            g = make_grid(-2, 2, n)
            d = derivative(sample(g, lambda p: np.exp(np.sin(p))), 1)
            exact = np.exp(np.sin(g.points)) * np.cos(g.points)
            errs.append(np.max(np.abs(d.values - exact)))
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.1)

    def test_rejects_small_grid_and_bad_order(self):
        f = constant(make_grid(0, 1, 4), 1.0)
        with pytest.raises(ValueError):
            derivative(f, 1)
        with pytest.raises(ValueError):
            derivative(constant(make_grid(0, 1, 9), 1.0), 3)


def test_count_sign_changes():
    assert count_sign_changes(np.array([0, 1, 2, 1, 0.0])) == 0
    assert count_sign_changes(np.array([0, 1, -1, 1, 0.0])) == 2
    assert count_sign_changes(np.array([0, 1, 0, -1, 0.0])) == 1
    # Zeros of either sign are skipped; the end values count like any other.
    assert count_sign_changes(np.array([-1, -0.0, 1, 0.0, 2, -3.0])) == 2
    assert count_sign_changes(np.array([0.0, -0.0])) == 0


def test_sl_problem_mass_and_effective_potential():
    # -(c phi')' + q phi = lam w phi read as a Schroedinger equation with mass
    # M = 1/c and V_eff - Lambda = q - lam w.
    g = make_grid(-2, 2, 9)
    slp = SturmLiouvilleProblem(c=sample(g, lambda p: 1.0 + p * p),
                                q=sample(g, lambda p: p**4),
                                w=sample(g, lambda p: 3.0 + p))
    p = g.points
    assert np.array_equal(slp.mass.values, 1.0 / (1.0 + p * p))
    assert np.allclose(slp.effective_potential(1.5).values, p**4 - 1.5 * (3.0 + p),
                       rtol=0, atol=1e-15)


def test_sl_problem_residual_exact_on_quadratics():
    # (c phi')' - (q - lam w) phi with c and phi quadratic: the stencils are exact.
    g = make_grid(-2, 2, 9)
    p = g.points
    slp = SturmLiouvilleProblem(c=sample(g, lambda p: 1.0 + p * p),
                                q=sample(g, lambda p: p**4),
                                w=sample(g, lambda p: 3.0 + p))
    res = slp.residual(sample(g, lambda p: 2.0 - p * p), 1.5)
    exact = -2.0 * (1.0 + p * p) - 4.0 * p * p - (p**4 - 1.5 * (3.0 + p)) * (2.0 - p * p)
    assert np.allclose(res.values, exact, rtol=0, atol=1e-12)


def test_inner_relative_norm():
    g = make_grid(0, 1, 21)
    inner = inner_slice(g.n)
    f = sample(g, lambda p: 1.0 + p)
    defect = sample(g, lambda p: p**3)
    ratio = np.linalg.norm(defect.values[inner]) / np.linalg.norm(f.values[inner])
    assert inner_relative_norm(defect, f) == ratio
    # Only the inner 80% counts, and a vanishing f leaves ||defect||.
    spiked = f.values.copy()
    spiked[0] = spiked[-1] = 1e6
    assert inner_relative_norm(defect, SampledFunction(g, spiked)) == ratio
    assert inner_relative_norm(defect, constant(g, 0.0)) == np.linalg.norm(
        defect.values[inner])
    with pytest.raises(GridMismatchError):
        inner_relative_norm(defect, constant(make_grid(0, 1, 11), 1.0))
