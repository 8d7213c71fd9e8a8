"""Operator tests: independent reference implementations, closed-form
convergence, exactness classes, and the singular-start bookkeeping."""

import math

import numpy as np
import pytest

import fraccalc as fc
from fraccalc import operators
from fraccalc.operators import _diff_once, _frac_integral_values
from fraccalc.special import rgamma

GAMMA_3_2 = 0.8862269254527580136
_EPS = 2.0**-52


def _grid(values, t1=1.0, **kw):
    return fc.GridFunction(0.0, float(t1), np.asarray(values, dtype=float), **kw)


def _pl_integral_reference(g: np.ndarray, h: float, a: float) -> np.ndarray:
    """Plain per-row sum of the product-integration weights for a piecewise
    linear interpolant; no convolution tricks, no shared code paths."""
    n = g.size
    out = np.zeros(n)
    for k in range(1, n):
        acc = 0.0
        for m in range(1, k + 1):
            phi0 = (m**a - (m - 1) ** a) / a
            phi1 = (m ** (a + 1) - (m - 1) ** (a + 1)) / (a + 1)
            acc += g[k - m + 1] * (m * phi0 - phi1)
            acc += g[k - m] * (phi1 - (m - 1) * phi0)
        out[k] = acc * h**a * rgamma(a)
    return out


class TestFracIntegral:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    def test_matches_row_loop_reference(self, alpha):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(64)
        got = _frac_integral_values(g, 1 / 63, alpha)
        ref = _pl_integral_reference(g, 1 / 63, alpha)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_exact_on_constants(self):
        # The interpolant reproduces constants exactly, so J^alpha does too.
        g = _grid(np.full(257, 2.3))
        j = fc.frac_integral(g, 0.5)
        assert j.values == pytest.approx(2.3 * rgamma(1.5) * np.sqrt(g.times()), rel=1e-13)

    def test_exact_on_linear_data(self):
        t = np.linspace(0.0, 1.0, 257)
        j = fc.frac_integral(_grid(2.0 * t + 1.0), 0.7)
        closed = 2.0 * rgamma(2.7) * t**1.7 + rgamma(1.7) * t**0.7
        assert j.values == pytest.approx(closed, rel=1e-12, abs=1e-14)

    def test_order_one_is_antiderivative(self):
        g = _grid(np.ones(129))
        assert fc.frac_integral(g, 1.0).values == pytest.approx(g.times(), abs=1e-14)

    def test_order_zero_is_identity(self):
        g = _grid(np.sin(np.linspace(0.0, 1.0, 65)))
        out = fc.frac_integral(g, 0.0)
        assert np.array_equal(out.values, g.values)
        marked = _grid(np.r_[np.nan, np.ones(64)], singular_start=True)
        out = fc.frac_integral(marked, 0.0)
        assert out.singular_start

    def test_linearity(self):
        rng = np.random.default_rng(11)
        u, v = rng.standard_normal((2, 129))
        lhs = fc.frac_integral(_grid(2.0 * u - 3.0 * v), 0.6).values
        rhs = 2.0 * fc.frac_integral(_grid(u), 0.6).values - 3.0 * fc.frac_integral(_grid(v), 0.6).values
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_semigroup_small_grid(self):
        t = np.linspace(0.0, 1.0, 257)
        f = _grid(t)
        two_step = fc.frac_integral(fc.frac_integral(f, 0.4), 0.3)
        one_step = fc.frac_integral(f, 0.7)
        assert np.max(np.abs(two_step.values - one_step.values)) <= 5e-6

    def test_starts_at_zero(self):
        g = _grid(np.random.default_rng(5).standard_normal(65))
        assert fc.frac_integral(g, 0.4).values[0] == 0.0


class TestSingularStartIntegral:
    def test_integrable_singularity_against_closed_form(self):
        # g = t^-0.3 with the first node marked: J^0.5 g has the closed form
        # Gamma(0.7)/Gamma(1.2) t^0.2.
        n, q, a = 1025, 0.3, 0.5
        t = np.linspace(0.0, 1.0, n)
        v = np.empty(n)
        v[0] = np.nan
        v[1:] = t[1:] ** -q
        j = fc.frac_integral(_grid(v, singular_start=True), a)
        closed = fc.gamma(1 - q) * rgamma(1 + a - q) * t ** (a - q)
        rel = np.abs(j.values[8:] - closed[8:]) / np.abs(closed[8:])
        assert np.max(rel) <= 3e-3
        # The first cell uses the fitted-power moment and is exact for a
        # pure power.
        assert j.values[1] == pytest.approx(closed[1], rel=1e-12)
        assert not j.singular_start

    def test_nonintegrable_singularity_rejected(self):
        t = np.linspace(0.0, 1.0, 257)
        v = np.empty(257)
        v[0] = np.nan
        v[1:] = t[1:] ** -1.0
        with pytest.raises(fc.UnintegrableSingularityError):
            fc.frac_integral(_grid(v, singular_start=True), 0.5)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.5])
    @pytest.mark.parametrize("c", [1.0, -2.5])
    def test_constant_trusted_values_fit_no_decay(self, alpha, c):
        # Equal first trusted nodes show no decay, so the first cell holds the
        # constant c: J is c t^alpha / Gamma(alpha+1), exact in the first cell.
        n = 257
        j = fc.frac_integral(_grid(np.r_[np.nan, np.full(n - 1, c)], singular_start=True), alpha)
        closed = c * rgamma(alpha + 1.0) * j.times() ** alpha
        assert j.values[1] == pytest.approx(closed[1], rel=1e-15)
        assert np.max(np.abs(j.values[8:] / closed[8:] - 1.0)) <= 1e-4

    def test_two_marked_nodes_are_too_few(self):
        with pytest.raises(fc.PreconditionError):
            fc.frac_integral(_grid([np.nan, 1.0], singular_start=True), 0.5)


class TestMarchaudDerivative:
    def test_flat_on_sqrt(self):
        g = _grid(np.sqrt(np.linspace(0.0, 1.0, 1025)))
        d = fc.marchaud_derivative(g, 0.5)
        assert np.max(np.abs(d.values[8:] - GAMMA_3_2)) <= 5e-4
        assert d.values[0] == 0.0
        assert not d.singular_start

    def test_fixed_region_errors_decrease(self):
        # Error measured on the fixed physical region t >= 1/32 must shrink
        # as the grid refines; frozen run: 4.82e-4 / 2.60e-4 / 1.06e-4.
        errs = []
        for n in (257, 513, 1025):
            t = np.linspace(0.0, 1.0, n)
            d = fc.rl_derivative(_grid(np.sqrt(t)), 0.5)
            errs.append(np.max(np.abs(d.values[t >= 1 / 32] - GAMMA_3_2)))
        assert errs[0] <= 5e-4
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize(
        "p,tol",
        [(0.5, 2.5e-3), (0.6, 1e-3), (0.8, 2e-5), (1.4, 1e-5)],
    )
    def test_agrees_with_integral_route(self, p, tol):
        # Two structurally different discretizations of the same operator.
        g = fc.sample(fc.builtin("power", {"p": p}), 0.0, 1.0, 1025)
        dm = fc.rl_derivative(g, 0.5, "marchaud").values
        di = fc.rl_derivative(g, 0.5, "integral_then_difference").values
        assert np.max(np.abs(dm[8:] - di[8:])) <= tol

    @pytest.mark.parametrize("n", [257, 2049, 32769, 131073])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_exact_to_rounding_on_t_and_t_squared(self, alpha, n):
        # The quadratic rule reproduces t and t**2, so its error on them is
        # rounding alone; it must not grow with n or as alpha nears 1.
        t = np.linspace(0.0, 1.0, n)
        for p in (1, 2):
            got = fc.marchaud_derivative(_grid(t**p), alpha).values
            exact = math.gamma(p + 1) / math.gamma(p + 1 - alpha) * t ** (p - alpha)
            assert np.max(np.abs(got[8:] - exact[8:])) <= 16 * _EPS * np.max(np.abs(exact[8:])), p

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2])
    def test_order_range_enforced(self, alpha):
        g = _grid(np.linspace(0.0, 1.0, 65))
        with pytest.raises(fc.PreconditionError):
            fc.marchaud_derivative(g, alpha)

    def test_rejects_marked_input(self):
        g = _grid(np.r_[np.nan, np.ones(64)], singular_start=True)
        with pytest.raises(fc.PreconditionError):
            fc.marchaud_derivative(g, 0.5)
        with pytest.raises(fc.PreconditionError):
            fc.rl_derivative(g, 0.5)


class TestIntegralThenDifference:
    def test_order_above_one(self):
        g = fc.sample(fc.builtin("power", {"p": 1.4}), 0.0, 1.0, 2049)
        d = fc.rl_derivative(g, 1.3)  # defaults to the integral route
        closed = fc.builtin("power", {"p": 1.4}).rl_derivative(1.3, g.times())
        assert np.max(np.abs(d.values[8:] - closed[8:])) <= 6e-4

    def test_integer_order_reduces_to_difference(self):
        t = np.linspace(0.0, 1.0, 257)
        d = fc.rl_derivative(_grid(t**2), 1.0)
        assert d.values[1:] == pytest.approx(2.0 * t[1:], rel=1e-10, abs=1e-11)

    def test_marchaud_refuses_orders_past_one(self):
        g = _grid(np.linspace(0.0, 1.0, 65) ** 1.4)
        with pytest.raises(fc.PreconditionError):
            fc.rl_derivative(g, 1.3, "marchaud")

    def test_unknown_method_is_a_parameter_error(self):
        with pytest.raises(fc.InvalidParameterError):
            fc.rl_derivative(_grid(np.linspace(0.0, 1.0, 65)), 0.5, "bogus")

    def test_two_nodes_are_too_few_to_difference(self):
        with pytest.raises(fc.PreconditionError):
            fc.rl_derivative(_grid([0.0, 1.0]), 1.5)


class TestSingularStartDetection:
    def test_constant_gets_marked(self):
        d = fc.rl_derivative(_grid(np.ones(257)), 0.5)
        assert d.singular_start
        assert math.isnan(d.values[0])
        # Away from the start the values follow c t^-alpha / Gamma(1-alpha).
        t = d.times()
        closed = rgamma(0.5) * t[8:] ** -0.5
        assert d.values[8:] == pytest.approx(closed, rel=1e-3)

    @pytest.mark.parametrize("p", [0.5, 1.5])
    def test_powers_at_or_above_order_stay_clean(self, p):
        t = np.linspace(0.0, 1.0, 257)
        d = fc.rl_derivative(_grid(t**p), 0.5)
        assert not d.singular_start

    def test_blowing_up_derivative_gets_marked(self):
        # t^-0.2 (finite value patched in at the origin) has a derivative
        # growing like t^-0.7: the stride probe must flag it.
        t = np.linspace(0.0, 1.0, 1025)
        v = np.zeros(1025)
        v[1:] = t[1:] ** -0.2
        d = fc.rl_derivative(_grid(v), 0.5)
        assert d.singular_start

    def test_zero_start_on_the_coarse_subgrid_is_unmarked(self):
        # Nodes 0, 4 and 8, all the stride-4 estimate reads, are 0 while
        # node 2 is not: the estimate is 0 and the probe gives no verdict.
        v = np.zeros(13)
        v[2] = 1.0
        assert operators._probe_singular_start(v, 1.0 / 12, 0.5, fc.DerivativeMethod.MARCHAUD) is False
        assert not fc.rl_derivative(_grid(v), 0.5).singular_start

    def test_order_zero_identity(self):
        g = _grid(np.cos(np.linspace(0.0, 1.0, 65)))
        assert np.array_equal(fc.rl_derivative(g, 0.0).values, g.values)

    @pytest.mark.parametrize("n, marked", [(12, False), (13, True)])
    def test_probe_needs_thirteen_nodes(self, n, marked):
        # The probe runs from 13 nodes on; below that a constant's D^0.5 stays unmarked.
        assert fc.rl_derivative(_grid(np.ones(n)), 0.5).singular_start is marked


class TestCaputo:
    def test_constant_maps_to_zero_exactly(self):
        d = fc.caputo_derivative(_grid(np.full(257, 7.0)), 0.4, (7.0,))
        assert np.all(d.values == 0.0)
        assert not d.singular_start

    def test_taylor_length_must_match_order(self):
        g = _grid(np.linspace(0.0, 1.0, 65))
        with pytest.raises(fc.TaylorMismatchError):
            fc.caputo_derivative(g, 0.5, (0.0, 1.0))
        with pytest.raises(fc.TaylorMismatchError):
            fc.caputo_derivative(g, 1.3, (0.0,))
        with pytest.raises(fc.TaylorMismatchError):
            fc.caputo_derivative(g, 0.5, (math.nan,))

    def test_rejects_marked_input(self):
        with pytest.raises(fc.PreconditionError):
            fc.caputo_derivative(_grid(np.r_[np.nan, np.ones(64)], singular_start=True), 0.5, (1.0,))

    def test_order_zero_is_the_identity(self):
        # Order 0 subtracts no Taylor polynomial, so it takes an empty Taylor vector.
        g = _grid(np.cos(np.linspace(0.0, 1.0, 65)))
        assert fc.caputo_derivative(g, 0.0, ()) is g
        with pytest.raises(fc.TaylorMismatchError):
            fc.caputo_derivative(g, 0.0, (1.0,))

    def test_order_above_one(self):
        g = fc.sample(fc.builtin("power", {"p": 2.0}), 0.0, 1.0, 2049)
        d = fc.caputo_derivative(g, 1.3, (0.0, 0.0))
        closed = fc.builtin("power", {"p": 2.0}).caputo_derivative(1.3, g.times())
        assert np.max(np.abs(d.values[8:] - closed[8:])) <= 7e-4

    def test_shift_by_constant_is_invisible(self):
        t = np.linspace(0.0, 1.0, 2049)
        d = fc.caputo_derivative(_grid(np.sqrt(t) + 3.0), 0.5, (3.0,))
        assert np.max(np.abs(d.values[8:] - GAMMA_3_2)) <= 1e-3

    def test_wrong_taylor_value_surfaces_as_marker(self):
        # Subtracting the wrong constant leaves a residual constant whose
        # derivative blows up at the start.
        d = fc.caputo_derivative(_grid(np.sqrt(np.linspace(0.0, 1.0, 257))), 0.5, (1.0,))
        assert d.singular_start


class TestLeibniz:
    def test_constant_second_factor_reduces_to_derivative(self):
        u = _grid(np.linspace(0.0, 1.0, 257) ** 0.6)
        ones = _grid(np.ones(257))
        got = fc.leibniz_rl(u, ones, 0.5)
        direct = fc.marchaud_derivative(u, 0.5)
        assert np.max(np.abs(got.values - direct.values)) <= 1e-12

    def test_rl_matches_closed_form(self):
        u = fc.sample(fc.builtin("power", {"p": 0.6}), 0.0, 1.0, 257)
        v = fc.sample(fc.builtin("power", {"p": 0.8}), 0.0, 1.0, 257)
        got = fc.leibniz_rl(u, v, 0.5)
        closed = fc.builtin("power", {"p": 1.4}).rl_derivative(0.5, u.times())
        assert np.max(np.abs(got.values[8:] - closed[8:])) <= 1.2e-4

    def test_caputo_matches_closed_form(self):
        u = fc.sample(fc.builtin("power", {"p": 0.6}), 0.0, 1.0, 2049)
        v = fc.sample(fc.builtin("power", {"p": 0.8}), 0.0, 1.0, 2049)
        got = fc.leibniz_caputo(u, v, 0.5)
        # u v vanishes at the start, so the Caputo and plain derivatives of
        # the product coincide.
        closed = fc.builtin("power", {"p": 1.4}).rl_derivative(0.5, u.times())
        assert np.max(np.abs(got.values[8:] - closed[8:])) <= 2e-5

    @pytest.mark.parametrize("n", [257, 2049, 32769])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_exact_to_rounding_on_linear_factors(self, alpha, n):
        # u = 1 + t and v = 2 + 3t: the factor derivatives and the product of
        # increments are integrated exactly, so uv = 2 + 5t + 3t**2 comes out
        # to rounding in both formulas.
        t = np.linspace(0.0, 1.0, n)
        u, v = _grid(1.0 + t), _grid(2.0 + 3.0 * t)
        s = t[8:]
        caputo = 5.0 * s ** (1 - alpha) / math.gamma(2 - alpha) + 6.0 * s ** (2 - alpha) / math.gamma(3 - alpha)
        rl = caputo + 2.0 * s**-alpha / math.gamma(1 - alpha)
        for formula, exact in ((fc.leibniz_rl, rl), (fc.leibniz_caputo, caputo)):
            got = formula(u, v, alpha).values[8:]
            assert np.max(np.abs(got - exact)) <= 16 * _EPS * np.max(np.abs(exact)), formula.__name__

    @pytest.mark.parametrize("n", [129, 1025, 8193])
    @pytest.mark.parametrize("formula", [fc.leibniz_rl, fc.leibniz_caputo])
    @pytest.mark.parametrize("offsets", [(0.0, 0.0), (1.5, -2.0)])
    def test_symmetry_is_exact(self, offsets, formula, n):
        rng = np.random.default_rng(9)
        base = np.linspace(0.0, 1.0, n)
        u = _grid(offsets[0] + base**0.7 + 0.1 * rng.standard_normal(n) * base)
        v = _grid(offsets[1] + base**0.9)
        assert np.array_equal(formula(u, v, 0.5).values, formula(v, u, 0.5).values)

    def test_caputo_does_the_work_of_rl(self, monkeypatch):
        # Both formulas take their factor derivatives from one stacked
        # Marchaud call on the start-shifted factors: the Caputo one makes
        # the same transforms, builds its moment tables once and runs no
        # singular-start probe.
        counts = {"transforms": 0, "_cell_moments": 0, "_probe_singular_start": 0}

        def counting(name, fn, rows=lambda *args: 1):
            def wrapper(*args, **kwargs):
                counts[name] += rows(*args)
                return fn(*args, **kwargs)
            return wrapper

        per_row = lambda x, *rest: int(np.prod(np.shape(x)[:-1]))  # noqa: E731
        for fft in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, fft, counting("transforms", getattr(np.fft, fft), per_row))
        for name in ("_cell_moments", "_probe_singular_start"):
            monkeypatch.setattr(operators, name, counting(name, getattr(operators, name)))
        t = np.linspace(0.0, 1.0, 2049)
        u, v = _grid(1.0 + t**0.6), _grid(2.0 + t**0.8)
        seen = []
        for formula in (fc.leibniz_rl, fc.leibniz_caputo):
            counts.update(dict.fromkeys(counts, 0))
            formula(u, v, 0.5)
            seen.append(dict(counts))
        assert seen[0] == seen[1] == {"transforms": 15, "_cell_moments": 1, "_probe_singular_start": 0}

    def test_grid_mismatch_rejected(self):
        u = _grid(np.ones(65))
        v = _grid(np.ones(129))
        with pytest.raises(fc.PreconditionError):
            fc.leibniz_rl(u, v, 0.5)
        w = fc.GridFunction(0.0, 2.0, np.ones(65))
        with pytest.raises(fc.PreconditionError):
            fc.leibniz_rl(u, w, 0.5)

    def test_marked_factor_rejected(self):
        u = _grid(np.ones(65))
        marked = _grid(np.r_[np.nan, np.ones(64)], singular_start=True)
        for formula in (fc.leibniz_rl, fc.leibniz_caputo):
            with pytest.raises(fc.PreconditionError):
                formula(u, marked, 0.5)
            with pytest.raises(fc.PreconditionError):
                formula(marked, u, 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_order_range(self, alpha):
        u = _grid(np.ones(65))
        with pytest.raises(fc.PreconditionError):
            fc.leibniz_rl(u, u, alpha)


class TestOverflow:
    # Finite data whose computation overflows fail a precondition of the
    # operation, not the data's format, and numpy warns nothing on the way
    # (the suite turns a RuntimeWarning into an error).
    jumps = np.where(np.arange(65) % 2, 1e308, -1e308)

    @pytest.mark.parametrize(
        "op",
        [
            lambda g: fc.rl_derivative(g, 0.5),
            lambda g: fc.rl_derivative(g, 0.5, "integral_then_difference"),
            lambda g: fc.rl_derivative(g, 1.5),
            lambda g: fc.marchaud_derivative(g, 0.5),
            lambda g: fc.caputo_derivative(g, 0.5, (0.0,)),
            lambda g: fc.caputo_derivative(g, 0.5, (-1e308,)),  # the Taylor subtraction overflows
            lambda g: fc.leibniz_caputo(g, g, 0.5),
        ],
        ids=["D", "D_itd", "D_1.5", "marchaud", "cD", "cD_taylor", "leibniz_caputo"],
    )
    def test_alternating_extremes(self, op):
        with pytest.raises(fc.PreconditionError, match="overflows"):
            op(_grid(self.jumps))

    def test_integral(self):
        with pytest.raises(fc.PreconditionError, match="overflows"):
            fc.frac_integral(_grid(np.full(65, 1e308), t1=4.0), 0.5)

    @pytest.mark.parametrize("n", [65, 2049])  # direct and FFT convolution
    def test_integral_of_largest_constant_fits(self, n):
        # J^0.5 of 1e308 on [0, 1] is at most 1.13e308, although summing the
        # raw data in the convolution would overflow.
        t = np.linspace(0.0, 1.0, n)
        got = fc.frac_integral(_grid(np.full(n, 1e308)), 0.5).values
        assert got == pytest.approx(1e308 * np.sqrt(t) / math.gamma(1.5), rel=1e-13, abs=0.0)

    def test_product_of_large_constants(self):
        u = _grid(np.full(65, 1e200))
        with pytest.raises(fc.PreconditionError, match="overflows"):
            fc.leibniz_rl(u, u, 0.5)
        # The Caputo derivative of the constant product is zero, which fits.
        assert np.all(fc.leibniz_caputo(u, u, 0.5).values == 0.0)


class TestDifferenceStencil:
    def test_exact_on_quadratics(self):
        t = np.linspace(0.0, 1.0, 129)
        d = _diff_once(3.0 * t**2 - t + 2.0, t[1] - t[0])
        assert d == pytest.approx(6.0 * t - 1.0, rel=1e-10, abs=1e-10)
