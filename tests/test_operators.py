"""Operator tests: independent reference implementations, closed-form
convergence, exactness classes, and the singular-start bookkeeping."""

import cProfile
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import fraccalc as fc
from fraccalc import operators
from fraccalc.operators import _derivative, _frac_integral_values, _marchaud_values
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
        dm = fc.rl_derivative(g, 0.5).values
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
        # The advice names the entry point that serves every order.
        g = _grid(np.linspace(0.0, 1.0, 65))
        with pytest.raises(fc.PreconditionError, match=r"requires 0 < order < 1, got .*; use rl_derivative$"):
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
        d = fc.rl_derivative(g, 1.3)  # defaults to the Marchaud route
        closed = fc.builtin("power", {"p": 1.4}).rl_derivative(1.3, g.times())
        assert np.max(np.abs(d.values[8:] - closed[8:])) <= 6e-4

    @staticmethod
    def _power_error(p, order, n):
        g = fc.sample(fc.builtin("power", {"p": p}), 0.0, 1.0, n)
        closed = fc.builtin("power", {"p": p}).rl_derivative(order, g.times())
        return np.abs(fc.rl_derivative(g, order).values - closed), g.times()

    @pytest.mark.parametrize("p, order", [(4.0, 2.5), (3.5, 2.2)])
    def test_last_three_nodes_above_order_two(self, p, order):
        # One stencil, no composed one-sided passes: 1.2e-5 and 3.4e-6 at n = 1025, where three
        # composed passes left 11.3 and 6.2 at every n.
        errs = [self._power_error(p, order, n)[0][-3:].max() for n in (1025, 4097, 16385)]
        assert max(errs) <= 1e-4 and errs[1] < errs[0]

    def test_last_two_nodes_converge_at_second_order_between_orders_one_and_two(self):
        # 1.2e-7, 3.8e-9 and 1.2e-10 at n = 257, 1025 and 4097; first order would gain only 4x.
        errs = [self._power_error(2.5, 1.5, n)[0][-2:].max() for n in (257, 1025, 4097)]
        assert errs[0] >= 16.0 * errs[1] and errs[1] >= 16.0 * errs[2]

    @pytest.mark.parametrize("n", [4097, 16385, 65537])
    def test_interior_between_orders_one_and_two(self, n):
        # t >= 1/4 without the last three nodes: 9.5e-10, 2.5e-10 and 2.1e-9, where differencing
        # the rounded J^0.5 values read 1.8e-9, 4.4e-8 and 7.3e-7.
        err, t = self._power_error(2.5, 1.5, n)
        assert np.max(err[t >= 0.25][:-3]) <= 1e-8

    def test_integer_order_reduces_to_difference(self):
        t = np.linspace(0.0, 1.0, 257)
        d = fc.rl_derivative(_grid(t**2), 1.0)
        assert d.values[1:] == pytest.approx(2.0 * t[1:], rel=1e-10, abs=1e-11)

    def test_marchaud_is_the_default_past_order_one(self):
        # The default route differences the Marchaud pass of order 1.3 - 1 once.
        g = _grid(np.linspace(0.0, 1.0, 65) ** 1.4)
        named, default = _derivative(_marchaud_values(g.values, g.h, 1.3 - 1), g.h, 1), fc.rl_derivative(g, 1.3)
        assert np.array_equal(named.view(np.int64), default.values.view(np.int64))

    def test_unknown_method_is_a_parameter_error(self):
        with pytest.raises(fc.InvalidParameterError):
            fc.rl_derivative(_grid(np.linspace(0.0, 1.0, 65)), 0.5, "bogus")

    @pytest.mark.parametrize("n, order", [(65, 0.5), (2, 1.5)])
    def test_default_route_has_no_name(self, n, order):
        # The one string accepted is the cross-check route's; the method is refused before the node count.
        with pytest.raises(fc.InvalidParameterError, match=r"'marchaud'; known: integral_then_difference$"):
            fc.rl_derivative(_grid(np.linspace(0.0, 1.0, n)), order, "marchaud")

    def test_two_nodes_are_too_few_to_difference(self):
        with pytest.raises(fc.PreconditionError):
            fc.rl_derivative(_grid([0.0, 1.0]), 1.5)

    @pytest.mark.parametrize("order", [1e308, 2e4, 1024.0, 1023.5])
    def test_order_past_the_node_count_is_refused_at_once(self, order):
        # The stencil and the probe need ceil(order) + 2 nodes; past that the
        # call is refused before any difference, so it cannot run for ever.
        g = _grid(np.linspace(0.0, 1.0, 1025) ** 0.5)
        start = time.perf_counter()
        with pytest.raises(fc.PreconditionError, match="ceil"):
            fc.rl_derivative(g, order)
        assert time.perf_counter() - start < 1.0

    def test_order_at_the_node_count_is_computed(self):
        # ceil(order) = n - 2 is the largest order differenced: a 5th derivative on 8 nodes.
        d = fc.rl_derivative(_grid(np.linspace(0.0, 1.0, 8) ** 2), 5.5)
        assert d.n == 8 and np.all(np.isfinite(d.values))


class TestConditioningFloor:
    # No grid derivative of float data beats c eps h**-order sup|f|: data off by one ulp move the
    # output by about that much.  On t >= 1/4 without the last three nodes the error stays at or
    # below the output's response to a seeded +-1 ulp perturbation of the data.
    @pytest.mark.parametrize(
        "p, order, n", [(4.0, 2.5, 4097), (4.0, 2.5, 16385), (3.5, 2.2, 4097), (3.5, 2.2, 16385), (2.5, 1.5, 16385)]
    )
    def test_interior_error_within_the_response_to_one_ulp(self, p, order, n):
        entry = fc.builtin("power", {"p": p})
        g = fc.sample(entry, 0.0, 1.0, n)
        t = g.times()
        inner = (t >= 0.25) & (np.arange(n) < n - 3)
        d = fc.rl_derivative(g, order).values
        err = np.max(np.abs(d - entry.rl_derivative(order, t))[inner])
        ulp = np.random.default_rng(0).choice([-1.0, 1.0], n) * np.spacing(g.values)
        response = np.max(np.abs(fc.rl_derivative(_grid(g.values + ulp), order).values - d)[inner])
        assert err <= response


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
        assert operators._probe_singular_start(v, 0.5, True) is False
        assert not fc.rl_derivative(_grid(v), 0.5).singular_start

    def test_order_zero_identity(self):
        g = _grid(np.cos(np.linspace(0.0, 1.0, 65)))
        assert np.array_equal(fc.rl_derivative(g, 0.0).values, g.values)

    @pytest.mark.parametrize("n, marked", [(12, False), (13, True)])
    def test_probe_needs_thirteen_nodes(self, n, marked):
        # The probe runs from 13 nodes on; below that a constant's D^0.5 stays unmarked.
        assert fc.rl_derivative(_grid(np.ones(n)), 0.5).singular_start is marked

    def test_probe_skips_a_stride_four_subgrid_shorter_than_it_reads(self):
        # At order 2.5 the probe reads 5 nodes of each subgrid; on 13 nodes the stride-4 one has 4.
        d = fc.rl_derivative(_grid(np.ones(13)), 2.5)
        assert not d.singular_start and np.all(np.isfinite(d.values))
        assert fc.rl_derivative(_grid(np.ones(17)), 2.5).singular_start


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

    def test_real_taylor_objects_keep_the_bits_of_floats(self):
        # Any numbers.Real is a Taylor entry, as it is an order.
        t = np.linspace(0.0, 1.0, 65)
        g = _grid(0.25 + 2.0 * t + t**2)
        want = fc.caputo_derivative(g, 1.5, (0.25, 2.0))
        assert not want.singular_start
        for taylor in ((Fraction(1, 4), mpmath.mpf(2)), (np.float32(0.25), np.int64(2)), (0.25, 2)):
            assert fc.caputo_derivative(g, 1.5, taylor).values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize(
        "entry",
        ["a", 1j, pytest.param("0", id="numeric text"), pytest.param(b"0", id="bytes"), None,
         pytest.param([[0.0, 1.0], [2.0]], id="ragged"), pytest.param(10**400, id="huge int")],
    )
    def test_non_real_taylor_entry_is_a_mismatch(self, entry):
        # Not a bare ValueError or TypeError; the length, order and node-count refusals come first.
        g = _grid(np.linspace(0.0, 1.0, 65))
        with pytest.raises(fc.TaylorMismatchError, match="Taylor coefficients must be real numbers"):
            fc.caputo_derivative(g, 0.5, (entry,))
        with pytest.raises(fc.TaylorMismatchError, match="exactly 1 Taylor"):
            fc.caputo_derivative(g, 0.5, (entry, entry))
        with pytest.raises(fc.InvalidParameterError):
            fc.caputo_derivative(g, -0.5, (entry,))
        with pytest.raises(fc.PreconditionError, match="nodes"):
            fc.caputo_derivative(_grid(np.zeros(3)), 1.5, (entry, entry))

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

    @pytest.mark.parametrize("n", [257, 2049])
    def test_index_0_is_positive_zero(self, n):
        # Factors starting negative must not leave -0.0 at index 0, which == 0.0 cannot tell apart.
        t = np.linspace(0.0, 1.0, n)
        u, v = _grid(-1.0 - t**0.6), _grid(-2.0 - t)
        for formula in (fc.leibniz_rl, fc.leibniz_caputo):
            got = formula(u, v, 0.5).values
            assert got[0] == 0.0 and not np.signbit(got[0]), formula.__name__

    def test_caputo_does_the_work_of_rl(self, monkeypatch):
        # Both formulas make one convolution of one row and one of three, so
        # 10 transforms from 512 nodes on; the Caputo one makes the same,
        # builds its moment tables once and runs no singular-start probe.
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
        assert seen[0] == seen[1] == {"transforms": 10, "_cell_moments": 1, "_probe_singular_start": 0}

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
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_exact_on_polynomials_of_degree_k_plus_one(self, k):
        # Second order at every node, both ends included: on a polynomial of degree k + 1 only
        # rounding is left, which k differences amplify to a few 2**k eps max|p| / h**k.
        t = np.linspace(0.3, 1.1, 33)
        h = t[1] - t[0]
        p = np.polynomial.Polynomial(np.random.default_rng(k).uniform(-2.0, 2.0, k + 2))
        got = _derivative(p(t), h, k)
        assert np.max(np.abs(got - p.deriv(k)(t))) <= 4**k * _EPS * np.max(np.abs(p(t))) / h**k


class TestOutputArrays:
    # Every operator output goes through the GridFunction constructor, which checks it and adopts the
    # operator's fresh array uncopied: the result holds the constructor's invariants in one buffer of its own.
    @pytest.mark.parametrize("n", [65, 2049])  # direct and FFT convolution
    @pytest.mark.parametrize("shape", ["scalar", "stacked"])
    @pytest.mark.parametrize(
        "op",
        [
            lambda g: fc.frac_integral(g, 0.5),
            lambda g: fc.frac_integral(g, 1.5),
            lambda g: fc.frac_integral(g, 2.5),
            lambda g: fc.frac_integral(fc.rl_derivative(g, 0.5), 0.5),  # integrates marked data
            lambda g: fc.rl_derivative(g, 0.5),
            lambda g: fc.rl_derivative(g, 0.5, "integral_then_difference"),
            lambda g: fc.rl_derivative(g, 1.5),
            lambda g: fc.rl_derivative(g, 2.0),
            lambda g: fc.rl_derivative(g, 2.5),
            lambda g: fc.marchaud_derivative(g, 0.3),
            lambda g: fc.caputo_derivative(g, 0.5, (1.0,)),
            lambda g: fc.caputo_derivative(g, 0.5, (0.0,)),
            lambda g: fc.leibniz_rl(g, g, 0.5),
            lambda g: fc.leibniz_caputo(g, g, 0.5),
        ],
        ids=[
            "J", "J_1.5", "J_2.5", "J_marked", "D", "D_itd", "D_1.5", "D_2", "D_2.5",
            "marchaud", "cD", "cD_marked", "leibniz_rl", "leibniz_caputo",
        ],
    )
    def test_fresh_read_only_float64_marked_by_nan(self, op, shape, n):
        t = np.linspace(0.0, 1.0, n)
        rows = np.array([1.0 + t**0.6, 0.5 * t**1.5 + t])
        g = _grid(rows[0] if shape == "scalar" else rows)
        out = op(g)
        v = out.values
        assert v.dtype == np.float64 and v.shape == g.values.shape
        # Its own buffer of exactly its values, not a view into a longer work array.
        assert v.base is None and v.flags.owndata and v.nbytes == 8 * v.size
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[..., -1] = 0.0
        assert not np.shares_memory(v, g.values)
        assert np.isnan(v[..., 0]).all() == out.singular_start
        assert np.isfinite(v[..., 0 if not out.singular_start else 1 :]).all()
        assert (out.t0, out.t1, out.n) == (g.t0, g.t1, g.n)

    def test_marked_and_unmarked_outputs_occur(self):
        t = np.linspace(0.0, 1.0, 65)
        assert fc.rl_derivative(_grid(1.0 + t), 0.5).singular_start
        assert not fc.rl_derivative(_grid(t), 0.5).singular_start

    @pytest.mark.parametrize(
        "op", [lambda g: fc.rl_derivative(g, 0.5), lambda g: fc.frac_integral(g, 0.7)], ids=["D", "J"]
    )
    def test_retains_only_its_values(self, op):
        # The FFT path's work buffer holds 2n - 2 entries at n = 2**k + 1; an output that kept it
        # alive would retain another 256 KiB here.  Warmed up first, so no first-call state counts.
        g = _grid(np.linspace(0.0, 1.0, 32769) ** 1.3)
        op(g)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(g)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert retained - out.values.nbytes < 64 * 1024

    @pytest.mark.parametrize("tracer", ["settrace", "setprofile", "cProfile"])
    @pytest.mark.parametrize("shape", ["scalar", "stacked"])
    def test_same_bits_under_a_tracer_or_profiler(self, tracer, shape):
        # A tracer or profiler holds an extra reference to each object a call is made on, so the
        # FFT path's in-place shrink of its buffer must not count references.
        t = np.linspace(0.0, 1.0, 2049)
        rows = np.array([1.0 + t**0.6, 0.5 * t**1.5 + t])
        g = _grid(rows[0] if shape == "scalar" else rows)

        def ops():
            return [
                fc.frac_integral(g, 0.5).values,
                fc.rl_derivative(g, 0.5).values,
                fc.rl_derivative(g, 1.5).values,
                fc.caputo_derivative(g, 0.5, (g.values[..., 0],)).values,
                fc.leibniz_rl(g, g, 0.5).values,
            ]

        if tracer == "cProfile":
            traced = cProfile.Profile().runcall(ops)
        else:
            install, old = getattr(sys, tracer), getattr(sys, "get" + tracer[3:])()
            install(lambda *args: None)
            try:
                traced = ops()
            finally:
                install(old)
        for want, got in zip(ops(), traced, strict=True):
            assert got.tobytes() == want.tobytes()


class TestWorkingMemory:
    # The tracemalloc peak of one call, output included, in arrays of n float64.  At n = 2**k + 1 the
    # spectra of the data and of the kernel take two arrays of n each.  A few KiB of Python objects and
    # array headers come on top, the same at every n; OBJECTS allows for them.
    N = 32769
    OBJECTS = 16 * 1024
    OPS = {
        "J": lambda g: fc.frac_integral(g, 0.5),
        "D_0.5": lambda g: fc.rl_derivative(g, 0.5),
        "D_1.5": lambda g: fc.rl_derivative(g, 1.5),
        "D_itd": lambda g: fc.rl_derivative(g, 0.5, "integral_then_difference"),
        "cD": lambda g: fc.caputo_derivative(g, 0.5, (1.0,)),
        "leibniz_rl": lambda g: fc.leibniz_rl(g, g, 0.5),
        "leibniz_caputo": lambda g: fc.leibniz_caputo(g, g, 0.5),
        "J_marked": lambda g: fc.frac_integral(g, 0.5),
    }
    # The data an op takes instead of 1 + t**p, made before the measured call: D^0.5 of it is marked.
    INPUTS = {"J_marked": lambda g: fc.rl_derivative(g, 0.5)}

    @classmethod
    def _peak_per_row(cls, name, rows):
        t = np.linspace(0.0, 1.0, cls.N)
        g = _grid(np.array([1.0 + t ** (1.3 + 0.1 * i) for i in range(rows)]) if rows else 1.0 + t**1.3)
        g = cls.INPUTS.get(name, lambda g: g)(g)
        op = cls.OPS[name]
        op(g)  # warmed up, so no first-call state counts
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return (peak - cls.OBJECTS) / (8 * cls.N * max(rows, 1))

    @pytest.mark.parametrize(
        "name, arrays",
        [("J", 6), ("D_0.5", 8), ("D_1.5", 8), ("D_itd", 6), ("cD", 9), ("leibniz_rl", 17), ("leibniz_caputo", 17),
         ("J_marked", 6)],
    )
    def test_scalar_call(self, name, arrays):
        # Only the spectra, the kernel and the edge terms live through the convolutions: 10, 11, 11,
        # 10, 14, 27 and 27 arrays when the kernel tables, the Taylor polynomial and the shifted
        # factors stayed alive through them.  Marked data takes 7 when its output is allocated
        # before the ordinary rule's, which peaks at 6 with its own output.
        assert self._peak_per_row(name, 0) <= arrays

    @pytest.mark.parametrize(
        "name, arrays",
        [("J", 5.5), ("D_0.5", 6.5), ("D_1.5", 6.5), ("D_itd", 5.5), ("cD", 8.8), ("leibniz_rl", 16.25), ("leibniz_caputo", 16.25),
         ("J_marked", 4.5)],
    )
    def test_four_rows_per_row(self, name, arrays):
        # Stacked rows share the kernel tables; per row no call needs more than it did while they
        # stayed alive through the convolutions.
        assert self._peak_per_row(name, 4) <= arrays


class TestCaputoWithManyTaylorEntries:
    def test_taylor_polynomial_bits_below_171_entries(self, monkeypatch):
        # The residual handed to the derivative route is g minus sum_j c_j / j! t^j with j! as a float.
        seen = []
        monkeypatch.setattr(operators, "_rl", lambda g, v, a, method: seen.append(v) or g)
        rng = np.random.default_rng(171)
        t = np.linspace(0.0, 1.0, 257)
        g = _grid(np.exp(t))
        for m in (1, 2, 3, 7, 23, 24, 100, 170):
            taylor = list(rng.uniform(-3.0, 3.0, m))
            fc.caputo_derivative(g, m - 0.5, taylor)
            poly = np.zeros(257)
            for j, c in enumerate(taylor):
                poly += (np.asarray(c)[..., None] / math.factorial(j)) * t**j
            assert np.array_equal(seen[-1], g.values - poly), m

    def test_past_170_entries_no_overflow_error(self):
        t = np.linspace(0.0, 1.0, 257)
        # The residual of 0 vanishes at every order; 200 difference passes of e^t overflow.
        assert np.all(fc.caputo_derivative(_grid(np.zeros(257)), 200, [0.0] * 200).values == 0.0)
        assert np.all(fc.caputo_derivative(_grid(np.ones(257)), 199.5, [1.0] + [0.0] * 199).values == 0.0)
        with pytest.raises(fc.PreconditionError, match="overflows"):
            fc.caputo_derivative(_grid(np.exp(t)), 200, [1.0] * 200)

    def test_order_past_the_node_count_is_refused_before_the_polynomial(self):
        # 100,000 Taylor terms would take minutes of big-integer factorials on 1025 nodes.
        start = time.perf_counter()
        with pytest.raises(fc.PreconditionError, match="nodes to difference"):
            fc.caputo_derivative(_grid(np.zeros(1025)), 1e5, [0.0] * 100_000)
        assert time.perf_counter() - start < 5.0

    def test_entry_past_170_keeps_its_size(self, monkeypatch):
        # 1e308 / 171! = 0.0806..., although 171! is not a float.
        seen = []
        monkeypatch.setattr(operators, "_rl", lambda g, v, a, method: seen.append(v) or g)
        t = np.linspace(0.0, 1.0, 257)
        fc.caputo_derivative(_grid(np.zeros(257)), 171.5, [0.0] * 171 + [1e308])
        coeff = float(Fraction(1e308) / math.factorial(171))
        assert -seen[-1] == pytest.approx(coeff * t**171, rel=1e-15, abs=0.0)


class TestRealArguments:
    # Orders and Hölder exponents are real numbers; anything else is a usage error, not a TypeError.
    _CALLS = {
        "frac_integral": lambda g, x: fc.frac_integral(g, x),
        "rl_derivative": lambda g, x: fc.rl_derivative(g, x),
        "caputo_derivative": lambda g, x: fc.caputo_derivative(g, x, (0.0,)),
        "leibniz_rl": lambda g, x: fc.leibniz_rl(g, g, x),
        "rl_norm": lambda g, x: fc.rl_norm(g, x),
        "holder_seminorm": lambda g, x: fc.holder_seminorm(g, x),
    }

    @pytest.mark.parametrize("value", [None, "0.5", 0.5 + 0j, [0.5], (0.5,), np.array([0.5])],
                             ids=["None", "str", "complex", "list", "tuple", "array"])
    @pytest.mark.parametrize("call", list(_CALLS))
    def test_non_real_is_refused(self, call, value):
        g = _grid(np.linspace(0.0, 1.0, 65) ** 2)
        with pytest.raises(fc.InvalidParameterError, match="must be a real number"):
            self._CALLS[call](g, value)

    @pytest.mark.parametrize(
        "call, value",
        [(c, v) for c in _CALLS for v in (np.float64(0.5), np.float32(0.5))]
        + [(c, v) for c in ("frac_integral", "rl_derivative", "holder_seminorm") for v in (1, np.int64(1))],
    )
    def test_ints_and_numpy_scalars_keep_their_bits(self, call, value):
        g = _grid(np.linspace(0.0, 1.0, 257) ** 2)
        got, want = self._CALLS[call](g, value), self._CALLS[call](g, float(value))
        if call == "holder_seminorm":
            got, want = got.value, want.value
        elif call != "rl_norm":
            got, want = got.values, want.values
        assert np.array_equal(got, want)
