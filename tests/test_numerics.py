"""Special functions and root finders, plus the quadrature oracles.

``integrate_1d`` and ``integrate_2d_square`` live in ``tests/quadrature.py``
as the reference the closed-form trimming coefficients are checked
against, so their own accuracy is pinned here.
"""
import math

import numpy as np
import pytest

from lossfit.errors import (
    ConvergenceError,
    DomainError,
    NoSolutionError,
    SingularMatrixError,
)
from lossfit.numerics import (
    std_normal_sf,
    SolverSpec,
    normal_hazard,
    solve_2d,
    solve_bracketed_newton,
    solve_monotone_scalar,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from quadrature import IntegrationError, QuadratureSpec, integrate_1d, integrate_2d_square


class TestStdNormalPdf:
    def test_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                    abs=1e-12)

    def test_at_one(self):
        # direct formula evaluation
        assert std_normal_pdf(1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-15)
        assert std_normal_pdf(1.0) == pytest.approx(0.2419707245191434, abs=1e-12)

    def test_symmetry_and_positivity(self):
        x = np.linspace(-10, 10, 401)
        np.testing.assert_allclose(std_normal_pdf(x), std_normal_pdf(-x), rtol=0)
        assert np.all(std_normal_pdf(x) > 0)


def _erfc_longdouble(z: float) -> np.longdouble:
    """erfc for z >= 0 in 80-bit arithmetic: series below 1, Lentz CF above."""
    z = np.longdouble(z)
    sqrt_pi = np.sqrt(np.longdouble(np.pi))
    if z < 1.0:
        total = np.longdouble(0.0)
        term = z
        z2 = z * z
        n = 0
        while n < 200:
            contrib = term / (2 * n + 1)
            total += -contrib if n % 2 else contrib
            n += 1
            term = term * z2 / n
            if abs(contrib) <= abs(total) * np.longdouble(1e-22):
                break
        return 1.0 - total * 2.0 / sqrt_pi
    # canonical continued fraction, evaluated backward:
    # sqrt(pi) exp(z^2) erfc(z) = 1/(z + (1/2)/(z + 1/(z + (3/2)/(z + ...))))
    tail = np.longdouble(0.0)
    for k in range(300, 0, -1):
        tail = (np.longdouble(k) / 2.0) / (z + tail)
    return np.exp(-z * z) / sqrt_pi / (z + tail)


class TestStdNormalCdf:
    def test_special_points(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_oracle_self_check(self):
        # the extended-precision oracle agrees with the C library in the
        # range where the latter is reliable
        for z in (0.0, 0.3, 0.999, 1.0, 1.5, 3.0, 6.0):
            assert float(_erfc_longdouble(z)) == pytest.approx(math.erfc(z),
                                                               rel=5e-16)

    def test_against_highprec_erfc_oracle(self):
        # the working probability range of the package is [1e-10, 1 - 1e-10]
        # (see the quantile round trip), i.e. |x| <= 6.4
        x = np.linspace(-6.5, 8, 1451)
        oracle = np.array([float(0.5 * _erfc_longdouble(-xi / np.longdouble(2) ** 0.5))
                           if xi <= 0 else
                           float(1.0 - 0.5 * _erfc_longdouble(xi / np.longdouble(2) ** 0.5))
                           for xi in x])
        got = std_normal_cdf(x)
        np.testing.assert_allclose(got, oracle, rtol=1e-14)

    def test_far_tail_absolute_accuracy(self):
        for xi in (-38.0, -20.0, -10.0, -8.0):
            oracle = float(0.5 * _erfc_longdouble(-xi / np.longdouble(2) ** 0.5))
            assert std_normal_cdf(xi) == pytest.approx(oracle, rel=2e-14)

    def test_left_truncation_share(self):
        # the standardized deductible of the simulation design leaves about
        # ten percent of losses below the deductible
        assert round(std_normal_cdf(-1.3005), 4) == 0.0967

    def test_monotone(self):
        x = np.linspace(-38, 38, 4001)
        assert np.all(np.diff(std_normal_cdf(x)) >= 0)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_upper_tail_value_vs_bisection_oracle(self):
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if std_normal_cdf(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        by_bisection = 0.5 * (lo + hi)
        assert std_normal_quantile(0.975) == pytest.approx(by_bisection, abs=1e-12)
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054,
                                                           abs=1e-9)

    def test_round_trip(self):
        p = np.concatenate([[1e-10, 1 - 1e-10], np.linspace(1e-6, 1 - 1e-6, 999)])
        back = std_normal_cdf(std_normal_quantile(p))
        np.testing.assert_allclose(back, p, atol=1e-12)

    def test_strictly_increasing(self):
        p = np.linspace(1e-9, 1 - 1e-9, 2001)
        assert np.all(np.diff(std_normal_quantile(p)) > 0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


class TestNormalHazard:
    def test_matches_naive_ratio_where_safe(self):
        # below x = 2 the naive 1 - cdf(x) keeps full precision
        x = np.linspace(-5, 2, 101)
        np.testing.assert_allclose(normal_hazard(x),
                                   std_normal_pdf(x) / (1 - std_normal_cdf(x)),
                                   rtol=1e-12)

    def test_matches_survival_path_widely(self):
        x = np.linspace(-10, 10, 201)
        np.testing.assert_allclose(normal_hazard(x),
                                   std_normal_pdf(x) / std_normal_sf(x),
                                   rtol=1e-12)

    def test_far_tail_is_finite_and_close_to_x(self):
        assert normal_hazard(40.0) == pytest.approx(40.0, rel=1e-3)
        assert normal_hazard(-40.0) == 0.0  # underflows to an exact zero


class TestIntegrate1d:
    def test_constant(self):
        assert integrate_1d(lambda s: 1.0, 0.0, 1.0) == pytest.approx(1.0,
                                                                      abs=1e-12)

    def test_odd_symmetry_of_quantile(self):
        val = integrate_1d(lambda s: std_normal_quantile(s), 0.1, 0.9)
        assert abs(val) <= 1e-12

    def test_squared_quantile_against_midpoint_oracle(self):
        n = 10_000_000
        s = (np.arange(n) + 0.5) / n * 0.8 + 0.1
        oracle = float(np.mean(std_normal_quantile(s) ** 2) * 0.8)
        val = integrate_1d(lambda t: std_normal_quantile(t) ** 2, 0.1, 0.9)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_polynomials_up_to_degree_five_are_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            coef = rng.uniform(-2, 2, size=6)
            lo, hi = sorted(rng.uniform(-3, 3, size=2))
            if hi - lo < 1e-3:
                continue
            poly = np.polynomial.Polynomial(coef)
            exact = poly.integ()(hi) - poly.integ()(lo)
            val = integrate_1d(poly, lo, hi)
            assert val == pytest.approx(exact, abs=1e-10 * max(1, abs(exact)))

    def test_budget_exhaustion_reports_estimate(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=2)
        with pytest.raises(IntegrationError) as err:
            integrate_1d(lambda s: abs(s - 1 / math.pi) ** -0.5, 0.0, 1.0, spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound >= 0

    def test_invalid_limits(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda s: s, 1.0, 0.0)


class TestIntegrate2dSquare:
    def test_constant(self):
        assert integrate_2d_square(lambda u, v: 1.0, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-10)

    def test_min_kernel_exact_value(self):
        # integral of min(u, v) - u v over the unit square is 1/3 - 1/4
        val = integrate_2d_square(lambda u, v: min(u, v) - u * v, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_symmetric_kernel_equals_twice_lower_triangle(self):
        def k(u, v):
            return (min(u, v) - u * v) * math.cos(u + v)

        def k_lower(u, v):
            return k(u, v) if v < u else 0.0

        full = integrate_2d_square(k, 0.1, 0.9)
        lower = integrate_2d_square(k_lower, 0.1, 0.9)
        assert full == pytest.approx(2 * lower, abs=1e-9)

    @pytest.mark.parametrize("a,b", [(0.05, 0.05), (0.1, 0.1), (0.25, 0.25)])
    def test_against_dense_midpoint_grid(self, a, b):
        # the min-kernel integrand of the complete-data variance coefficient
        def weight(x):
            return 1.0 / std_normal_pdf(std_normal_quantile(x))

        def k(u, v):
            return (min(u, v) - u * v) * weight(u) * weight(v)

        m = 2000
        g = a + (np.arange(m) + 0.5) / m * (1 - b - a)
        w = np.asarray(weight(g))
        uu = np.minimum.outer(g, g) - np.outer(g, g)
        oracle = float((w[:, None] * w[None, :] * uu).sum()
                       * ((1 - b - a) / m) ** 2)
        val = integrate_2d_square(k, a, 1 - b)
        assert val == pytest.approx(oracle, abs=1e-6)


class TestSolveMonotoneScalar:
    def test_identity(self):
        x = solve_monotone_scalar(lambda v: v, 0.3, (0.0, 1.0))
        assert x == pytest.approx(0.3, abs=1e-10)

    def test_expands_bracket(self):
        x = solve_monotone_scalar(lambda v: v ** 3, 1000.0, (0.0, 1.0))
        assert x == pytest.approx(10.0, rel=1e-9)

    def test_decreasing_function(self):
        x = solve_monotone_scalar(lambda v: -v, -2.5, (0.0, 1.0))
        assert x == pytest.approx(2.5, abs=1e-9)

    def test_target_outside_range(self):
        with pytest.raises(NoSolutionError):
            solve_monotone_scalar(math.tanh, 2.0, (-1.0, 1.0))


class TestSolveBracketedNewton:
    def test_steps_down_to_a_root_below_the_start(self):
        # exp(-x) - 0.5 from x = 3: f < 0 at the start, root at log 2
        x, calls = solve_bracketed_newton(
            lambda v: (math.exp(-v) - 0.5, -math.exp(-v)), 3.0, 10.0)
        assert x == pytest.approx(math.log(2.0), abs=1e-12)
        assert calls <= 12

    def test_flat_slope_falls_back_to_bisection(self):
        # a zero slope gives no Newton step; bisection still closes in
        x, _ = solve_bracketed_newton(lambda v: (1.0 - v, 0.0), 0.0, 4.0)
        assert x == pytest.approx(1.0, abs=1e-11)

    def test_positive_up_to_the_evaluable_edge(self):
        # 1 + exp(-x) > 0 wherever it is evaluable (x < 5)
        def fdf(v):
            return None if v >= 5.0 else (1.0 + math.exp(-v), -math.exp(-v))
        with pytest.raises(NoSolutionError):
            solve_bracketed_newton(fdf, 0.0, 10.0)

    def test_budget_carries_the_last_evaluated_point(self):
        with pytest.raises(ConvergenceError) as err:
            solve_bracketed_newton(lambda v: (math.exp(-v) - 0.5, -math.exp(-v)),
                                   3.0, 10.0, SolverSpec(max_iterations=1))
        assert err.value.last == 3.0 and err.value.iterations == 1


class TestSolve2d:
    def test_linear(self):
        root = solve_2d(lambda x: (x[0] - 1.0, x[1] - 2.0), (0.0, 0.0))
        assert root.x == pytest.approx((1.0, 2.0), abs=1e-10)

    def test_start_at_root_returns_zero_iterations(self):
        root = solve_2d(lambda x: (x[0] - 1.0, x[1] - 2.0), (1.0, 2.0))
        assert root.iterations == 0
        assert root.x == (1.0, 2.0)

    def test_quadratic_map_converges_fast(self):
        def func(x):
            return (x[0] ** 2 - x[1], x[1] ** 2 - x[0])

        root = solve_2d(func, (1.2, 0.8))
        assert root.x == pytest.approx((1.0, 1.0), abs=1e-9)
        assert root.iterations <= 8  # quadratic convergence from a close start
        assert root.residual <= 1e-10

    def test_overflowing_residual_norm_raises_no_warning(self):
        # entries near 1e160 are finite, but their squared norm overflows;
        # the configured filter turns any RuntimeWarning into a failure
        root = solve_2d(lambda x: (1e160 * (x[0] - 1.0), x[1] - 2.0), (0.0, 0.0))
        assert root.x == pytest.approx((1.0, 2.0), abs=1e-12)
        assert root.residual <= 1e-10

    def test_singular_jacobian(self):
        with pytest.raises(SingularMatrixError):
            solve_2d(lambda x: (x[0] + x[1], x[0] + x[1]), (1.0, 1.0))

    def test_no_root_raises_convergence_error_with_state(self):
        with pytest.raises(ConvergenceError) as err:
            solve_2d(lambda x: (x[0] ** 2 + 1.0, x[1]), (0.5, 0.5),
                     SolverSpec(max_iterations=40))
        assert err.value.last is not None
        assert all(type(v) is float for v in err.value.last)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SolverSpec(residual_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(DomainError):
            SolverSpec(damping=1.5)
