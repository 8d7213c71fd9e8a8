"""Catalog tests: parameter handling, closed forms, and an independent
quadrature oracle for every closed fractional integral."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import fraccalc as fc
from fraccalc import catalog
from fraccalc.errors import InvalidParameterError, UnknownNameError


def test_builtin_names_frozen():
    assert catalog.builtin_names() == [
        "constant",
        "ml_exp",
        "power",
        "step",
        "weierstrass_shifted",
    ]


def test_unknown_name_raises():
    with pytest.raises(UnknownNameError):
        catalog.builtin("gaussian")


@pytest.mark.parametrize(
    "name,params",
    [
        ("power", None),                      # p is required
        ("power", {"p": -0.5}),               # negative exponent
        ("power", {"p": 1.0, "bogus": 2.0}),  # unknown key
        ("power", {"p": "abc"}),              # non-numeric
        ("ml_exp", {"alpha": 0.2}),           # below the series box
        ("ml_exp", {"alpha": 2.5}),
        ("step", None),                       # t_jump is required
        ("step", {"t_jump": -1.0}),           # jump before the base point
        ("weierstrass_shifted", {"sigma": 1.0}),
        ("weierstrass_shifted", {"alpha": 1.0}),
    ],
)
def test_bad_parameters_raise(name, params):
    with pytest.raises(InvalidParameterError):
        catalog.builtin(name, params)


_VALID = {
    "constant": {"c": 1.0, "t0": 0.0},
    "power": {"p": 0.5, "t0": 0.0},
    "ml_exp": {"alpha": 0.7, "t0": 0.0},
    "step": {"t_jump": 0.5, "t0": 0.0},
    "weierstrass_shifted": {"alpha": 0.5, "sigma": 2.0, "t0": 0.0},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,key", [(name, key) for name, spec in _VALID.items() for key in spec])
def test_non_finite_parameters_raise(name, key, value):
    # Refused by the parameter check itself, before any entry's own arithmetic.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=f"{name}: parameter {key!r} must be finite"):
            catalog.builtin(name, {**_VALID[name], key: value})


class TestConstant:
    def test_closed_forms(self):
        e = catalog.builtin("constant", {"c": 2.0})
        t = np.array([0.25, 1.0])
        assert e(t) == pytest.approx([2.0, 2.0])
        # J^0.5 c = c t^0.5 / Gamma(1.5); frozen 1/Gamma(1.5)
        assert e.rl_integral(0.5, np.array([1.0]))[0] == pytest.approx(
            2.0 * 1.1283791670955125739, rel=1e-14
        )
        # D^0.5 c = c t^-0.5 / Gamma(0.5); frozen 1/Gamma(0.5)
        assert e.rl_derivative(0.5, np.array([1.0]))[0] == pytest.approx(
            2.0 * 0.5641895835477562869, rel=1e-14
        )
        assert np.all(e.caputo_derivative(0.5, t) == 0.0)

    def test_taylor(self):
        e = catalog.builtin("constant", {"c": 3.5})
        assert e.taylor[0] == 3.5
        assert catalog.taylor_for_order(e, 1) == (3.5,)


class TestPower:
    def test_fractional_exponent(self):
        e = catalog.builtin("power", {"p": 0.5})
        t = np.array([0.0, 0.25, 1.0])
        assert e(t) == pytest.approx([0.0, 0.5, 1.0])
        # D^0.5 t^0.5 = Gamma(1.5), constant in t
        d = e.rl_derivative(0.5, np.array([0.3, 0.9]))
        assert d == pytest.approx([0.88622692545275801] * 2, rel=1e-14)
        assert e.taylor == (0.0,)

    def test_large_integer_exponent_lists_lazily(self):
        # Derivatives through order max(p, 3) are made when read: p = 1e9 lists none up front.
        tracemalloc.start()
        try:
            e = catalog.builtin("power", {"p": 1e9})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(e.taylor) == 10**9 + 1
        assert catalog.taylor_for_order(e, 5) == (0.0,) * 5
        assert e.taylor[-1] == math.inf and e.taylor[10**9 - 1] == 0.0
        with pytest.raises(IndexError):
            e.taylor[10**9 + 1]

    def test_large_integer_exponent_prints_in_constant_length(self):
        # repr and describe show the zeros before p! as a repeat count.
        e = catalog.builtin("power", {"p": 1e7})
        assert len(repr(e)) < 2000 and len(e.describe()) < 2000
        assert "taylor at start: (0.0,) * 10000000 + (inf,)" in e.describe()
        assert repr(e.taylor[:20]) == "(0.0,) * 20"
        # Each repr is an expression for the entries, also of a slice.
        small = catalog.builtin("power", {"p": 12}).taylor
        assert eval(repr(small)) == (0.0,) * 12 + (479001600.0,)
        assert eval(repr(small[::-1])) == tuple(small)[::-1] and eval(repr(small[3:])) == tuple(small)[3:]

    def test_integer_exponent_past_the_factorial_range(self):
        # 170! is a float, 171! is not: a Caputo order that needs it is refused (exit code 4).
        assert catalog.builtin("power", {"p": 170}).taylor[170] == float(math.factorial(170))
        e = catalog.builtin("power", {"p": 200})
        assert e.taylor == (0.0,) * 200 + (math.inf,)
        g = catalog.sample(e, 0.0, 1.0, 257)
        assert np.all(np.isfinite(fc.frac_integral(g, 0.5).values))
        assert not fc.rl_derivative(g, 0.5).singular_start
        with pytest.raises(fc.TaylorMismatchError, match="finite"):
            fc.caputo_derivative(g, 200.5, catalog.taylor_for_order(e, 201))

    def test_half_derivative_annihilates_sqrt_again(self):
        # D^1.5 t^0.5 has coefficient Gamma(1.5)/Gamma(0) = 0.
        e = catalog.builtin("power", {"p": 0.5})
        assert np.all(e.rl_derivative(1.5, np.array([0.2, 0.8])) == 0.0)

    def test_integer_exponent_taylor_and_caputo(self):
        e = catalog.builtin("power", {"p": 2.0})
        assert e.taylor == (0.0, 0.0, 2.0, 0.0)
        # Caputo of order above the polynomial degree vanishes.
        assert np.all(e.caputo_derivative(2.3, np.array([0.5, 1.0])) == 0.0)

    @pytest.mark.parametrize(
        "p,taylor",
        [
            (1.0, (0.0, 1.0, 0.0, 0.0)),
            (3.0, (0.0, 0.0, 0.0, 6.0)),
            (4.0, (0.0, 0.0, 0.0, 0.0, 24.0)),
        ],
    )
    def test_integer_powers_list_derivatives_through_order_three(self, p, taylor):
        # Like the constant and p = 0: every derivative at t0 through order max(p, 3).
        e = catalog.builtin("power", {"p": p})
        assert e.taylor == taylor
        # So the Caputo derivative of order 2.5 has its Taylor data and a closed form.
        t = np.linspace(0.0, 1.0, 4097)
        g = fc.caputo_derivative(catalog.sample(e, 0.0, 1.0, 4097), 2.5, catalog.taylor_for_order(e, 3))
        # 7.0e-4 measured at p = 3; the last three nodes carry the open order-(2, 3) end defect.
        assert np.max(np.abs(g.values[8:-3] - e.caputo_derivative(2.5, t)[8:-3])) <= 1e-3

    def test_caputo_refuses_orders_past_smoothness(self):
        e = catalog.builtin("power", {"p": 0.5})
        with pytest.raises(InvalidParameterError):
            e.caputo_derivative(1.6, np.array([0.5]))

    def test_p_zero_is_the_constant_one(self):
        e = catalog.builtin("power", {"p": 0.0})
        assert np.all(e(np.array([0.0, 0.5])) == 1.0)
        assert np.all(e.caputo_derivative(0.5, np.array([0.5, 1.0])) == 0.0)

    def test_p_zero_describes_itself_as_power(self):
        e = catalog.builtin("power", {"p": 0.0, "t0": 0.5})
        assert (e.name, e.base_point, e.params) == ("power", 0.5, {"p": 0.0, "t0": 0.5})
        assert e.describe() == "\n".join(
            [
                "power(p=0, t0=0.5)",
                "  (t - t0)^0, i.e. the constant 1",
                "  parameters: p=0, t0=0.5",
                "  taylor at start: [1.0, 0.0, 0.0, 0.0]",
                "  closed fractional integral: available",
                r"  closed fractional derivative: D^\alpha_{t_0,t}c=\dfrac{(t-t_0)^{-\alpha}c}{\Gamma(1-\alpha)}",
                r"  closed Caputo derivative: cD^\alpha_{t_0,t}c=0",
            ]
        )


class TestMittagLefflerExponential:
    def test_value_at_base_point(self):
        e = catalog.builtin("ml_exp", {"alpha": 0.7})
        assert e(np.array([0.0]))[0] == 1.0
        assert e.taylor == (1.0,)

    def test_caputo_eigenfunction_property(self):
        # cD^alpha E_alpha((t)^alpha) returns the function itself.
        e = catalog.builtin("ml_exp", {"alpha": 0.7})
        t = np.array([0.3, 0.8])
        assert e.caputo_derivative(0.7, t) == pytest.approx(e(t), rel=1e-13)

    def test_rl_and_caputo_differ_by_start_term(self):
        e = catalog.builtin("ml_exp", {"alpha": 0.7})
        t = np.array([0.4, 1.0])
        gap = e.rl_derivative(0.5, t) - e.caputo_derivative(0.5, t)
        assert gap == pytest.approx(fc.rgamma(0.5) * t**-0.5, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha, taylor",
        [(1.0, (1.0, 1.0, 1.0, 1.0)), (1.5, (1.0, 0.0)), (2.0, (1.0, 0.0, 1.0, 0.0))],
    )
    def test_taylor_holds_the_derivatives_that_exist(self, alpha, taylor):
        # The term t**alpha / gamma(alpha + 1) has no derivative at 0 past order alpha, unless
        # alpha is an integer.
        assert catalog.builtin("ml_exp", {"alpha": alpha}).taylor == taylor

    @staticmethod
    def _caputo_start(alpha, order):
        # The Caputo derivative of order o subtracts the Taylor polynomial of degree m - 1,
        # m = ceil(o): the series terms of exponent alpha k <= m - 1.  Returns the first kept k,
        # or None when a subtracted term other than the constant has a non-integer exponent, so
        # that f^(m-1)(t0) does not exist.
        if order == 0.0:
            return 0
        a, m = mpmath.mpf(alpha), math.ceil(order)
        first = next(k for k in range(1, 100) if a * k > m - 1)
        return first if all(mpmath.isint(a * k) for k in range(1, first)) else None

    @classmethod
    def _forms(cls, alpha):
        # Each closed form is the series sum_{k >= k0} x**(alpha k + s) / gamma(alpha k + 1 + s),
        # x = t - t0, for an s set by the order: J adds it, the derivatives take it off, and
        # Caputo also drops the terms below k0, its Taylor polynomial at t0.
        e = catalog.builtin("ml_exp", {"alpha": alpha})
        for k in range(31):
            order = k / 10
            yield order, "J", e.rl_integral, order, 0
            yield order, "RL", e.rl_derivative, -order, 0
            if (k0 := cls._caputo_start(alpha, order)) is not None:
                yield order, "Caputo", e.caputo_derivative, -order, k0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.2, 1.5])
    def test_caputo_refuses_orders_without_taylor_data(self, alpha):
        # Refused past order floor(alpha) + 1, where t**alpha has no derivative of order m - 1.
        e = catalog.builtin("ml_exp", {"alpha": alpha})
        refused = [k / 10 for k in range(31) if self._caputo_start(alpha, k / 10) is None]
        assert refused == [k / 10 for k in range(31) if k / 10 > math.floor(alpha) + 1]
        for order in refused:
            with pytest.raises(InvalidParameterError, match="no closed Caputo form"):
                e.caputo_derivative(order, np.array([0.5]))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 2.0])
    def test_start_value_is_the_series_limit(self, alpha):
        # As x -> 0+ the first term with a finite gamma decides: +-inf below exponent 0, its
        # coefficient at 0 and 0 above, never NaN from 1/gamma(0) * inf or inf * 0.
        for order, form, closed, s, k in self._forms(alpha):
            with mpmath.workdps(40):
                a = mpmath.mpf(alpha)
                while (c := mpmath.rgamma(a * k + 1 + s)) == 0:
                    k += 1
                expo = a * k + s
                want = 0.0 if expo > 0 else float(c) if expo == 0 else math.copysign(math.inf, c)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = closed(order, np.array([0.0]))[0]
            assert got == want, (order, form, got, want)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 1.2, 1.5, 2.0])
    def test_closed_forms_match_the_series(self, alpha):
        t = np.array([1.0 / 32, 0.37, 1.0])
        for order, form, closed, s, k0 in self._forms(alpha):
            with mpmath.workdps(40):
                a, sm = mpmath.mpf(alpha), mpmath.mpf(s)
                # At x <= 1 the terms are below 1e-43 once gamma's argument passes 38.
                ks = range(k0, k0 + int(40 / alpha) + 2)
                want = [
                    float(mpmath.fsum(mpmath.rgamma(a * k + 1 + sm) * mpmath.mpf(x) ** (a * k + sm) for k in ks))
                    for x in t
                ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = closed(order, t)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"{form} order {order}")


class TestStep:
    def test_right_continuous_at_jump(self):
        e = catalog.builtin("step", {"t_jump": 0.5})
        assert e(np.array([0.4999, 0.5, 0.5001])) == pytest.approx([0.0, 1.0, 1.0])
        assert e.label == "step(t_jump=0.5)"

    def test_integral_closed_form(self):
        e = catalog.builtin("step", {"t_jump": 0.5})
        j = e.rl_integral(0.5, np.array([0.25, 0.5, 1.0]))
        assert j[0] == 0.0 and j[1] == 0.0
        # (1 - 0.5)^0.5 / Gamma(1.5), frozen
        assert j[2] == pytest.approx(0.7978845608028653559, rel=1e-14)

    def test_no_closed_derivatives(self):
        e = catalog.builtin("step", {"t_jump": 0.5})
        assert e.rl_derivative is None and e.caputo_derivative is None


class TestIntegerOrders:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("constant", {"c": 2.0}),
            ("constant", {"c": -3.0, "t0": 0.5}),
            ("power", {"p": 0.0}),
            ("power", {"p": 0.5}),
            ("power", {"p": 2.0, "t0": -1.0}),
            ("ml_exp", {"alpha": 0.7}),
            ("ml_exp", {"alpha": 1.6, "t0": 0.25}),
            ("step", {"t_jump": 0.5}),
        ],
    )
    def test_order_zero_is_the_function(self, name, params):
        e = catalog.builtin(name, params)
        t = np.linspace(e.base_point, e.base_point + 1.0, 33)
        forms = [f for f in (e.rl_integral, e.rl_derivative, e.caputo_derivative) if f is not None]
        for closed in forms:
            np.testing.assert_array_equal(closed(0.0, t), e(t))

    @pytest.mark.parametrize("order", [1.0, 2.0])
    @pytest.mark.parametrize("name, params", [("constant", {"c": 2.0}), ("power", {"p": 0.0})])
    def test_constant_rl_derivative_vanishes_at_every_node(self, name, params, order):
        # 1/gamma(1 - order) is 0 here; times t^-order at t0 it used to give 0 * inf = NaN.
        e = catalog.builtin(name, params)
        assert np.all(e.rl_derivative(order, np.linspace(0.0, 1.0, 9)) == 0.0)


class TestWeierstrassShifted:
    def test_vanishes_at_base_point(self):
        e = catalog.builtin("weierstrass_shifted")
        assert e(np.array([0.0]))[0] == 0.0

    def test_no_taylor_data(self):
        e = catalog.builtin("weierstrass_shifted")
        assert e.taylor is None
        with pytest.raises(InvalidParameterError):
            catalog.taylor_for_order(e, 1)


class TestSample:
    def test_grid_matches_eval(self):
        e = catalog.builtin("power", {"p": 2.0})
        g = catalog.sample(e, 0.0, 2.0, 9)
        assert g.n == 9 and g.t1 == 2.0
        assert g.values == pytest.approx(g.times() ** 2)

    def test_validation(self):
        e = catalog.builtin("power", {"p": 2.0})
        with pytest.raises(InvalidParameterError):
            catalog.sample(e, 0.0, 1.0, 1)
        with pytest.raises(InvalidParameterError):
            catalog.sample(e, 1.0, 0.0, 9)
        with pytest.raises(InvalidParameterError):
            catalog.sample(e, 0.5, 1.0, 9)  # must start at the base point

    @pytest.mark.parametrize(
        "t0,t1,n",
        [
            (0.0, math.inf, 9),
            (0.0, math.nan, 9),
            (math.nan, 1.0, 9),
            (-math.inf, 1.0, 9),
            (0.0, 1.0, 10.0),
            (0.0, 1.0, "10"),
            (0.0, 1.0, None),
        ],
    )
    def test_non_finite_interval_or_non_integer_n_raise(self, t0, t1, n):
        e = catalog.builtin("power", {"p": 2.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                catalog.sample(e, t0, t1, n)

    def test_overflowing_span_raises(self):
        e = catalog.builtin("constant", {"t0": -1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError):
                catalog.sample(e, -1e308, 1e308, 9)
            with pytest.raises(InvalidParameterError):
                catalog.sample(e, np.float64(-1e308), np.float64(1e308), 9)

    def test_numpy_integer_n(self):
        e = catalog.builtin("power", {"p": 2.0})
        assert catalog.sample(e, 0.0, 1.0, np.int64(9)).n == 9

    def test_shifted_base_point(self):
        e = catalog.builtin("power", {"p": 1.0, "t0": 1.0})
        g = catalog.sample(e, 1.0, 2.0, 5)
        assert g.values == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_taylor_for_order_bounds():
    e = catalog.builtin("power", {"p": 0.5})
    assert catalog.taylor_for_order(e, 1) == (0.0,)
    with pytest.raises(InvalidParameterError):
        catalog.taylor_for_order(e, 2)


def test_describe_builtin():
    text = catalog.describe_builtin("power")
    assert "p (required)" in text and "t0 (default 0)" in text
    with pytest.raises(UnknownNameError):
        catalog.describe_builtin("nope")


_DESCRIPTIONS = {
    "constant": [
        "constant",
        "  parameters: c (default 1), t0 (default 0)",
        "  constant(c=1)",
        "    constant value 1",
        "    parameters: c=1, t0=0",
        "    taylor at start: [1.0, 0.0, 0.0, 0.0]",
        "    closed fractional integral: available",
        r"    closed fractional derivative: D^\alpha_{t_0,t}c=\dfrac{(t-t_0)^{-\alpha}c}{\Gamma(1-\alpha)}",
        r"    closed Caputo derivative: cD^\alpha_{t_0,t}c=0",
    ],
    "ml_exp": [
        "ml_exp",
        "  parameters: alpha (default 0.7), t0 (default 0)",
        "  ml_exp(alpha=0.7)",
        "    Mittag-Leffler exponential E_alpha((t - t0)^alpha), alpha=0.7",
        "    parameters: alpha=0.7, t0=0",
        "    taylor at start: [1.0]",
        "    closed fractional integral: available",
        "    closed fractional derivative: available",
        r"    closed Caputo derivative: cD^{\beta}_{t_0,t}E_\alpha\big((t-t_0)^\alpha\big)"
        r"=(t-t_0)^{\alpha-\beta}E_{\alpha,1+\alpha-\beta}\big((t-t_0)^\alpha\big)",
    ],
    "power": [
        "power",
        "  parameters: p (required), t0 (default 0)",
        "  shown below for: power:p=0.5",
        "  power(p=0.5)",
        "    (t - t0)^0.5",
        "    parameters: p=0.5, t0=0",
        "    taylor at start: [0.0]",
        "    closed fractional integral: available",
        r"    closed fractional derivative: D_{0,t}^\beta f(t)=\dfrac{\Gamma(\alpha+1)}{\Gamma(\alpha-\beta+1)}t^{\alpha-\beta}",
        "    closed Caputo derivative: available",
    ],
    "step": [
        "step",
        "  parameters: t_jump (required), t0 (default 0)",
        "  shown below for: step:t_jump=0.5",
        "  step(t_jump=0.5)",
        "    unit jump at t=0.5 (0 before, 1 from the jump on)",
        "    parameters: t0=0, t_jump=0.5",
        "    taylor at start: [0.0]",
        r"    closed fractional integral: has no representative in $C^0([t_0, t_1], \mathbb{R})$",
        "    closed fractional derivative: none",
        "    closed Caputo derivative: none",
    ],
    "weierstrass_shifted": [
        "weierstrass_shifted",
        "  parameters: alpha (default 0.5), sigma (default 2), t0 (default 0)",
        "  weierstrass_shifted(alpha=0.5, sigma=2)",
        "    lacunary cosine sum W(t) - W(t0), alpha=0.5, sigma=2; "
        "Hoelder-continuous of its own order but nowhere smoother",
        "    parameters: alpha=0.5, sigma=2, t0=0",
        "    closed fractional integral: none",
        "    closed fractional derivative: none",
        "    closed Caputo derivative: none",
    ],
}


@pytest.mark.parametrize("name", sorted(_DESCRIPTIONS))
def test_describe_builtin_text(name):
    assert sorted(_DESCRIPTIONS) == catalog.builtin_names()
    assert catalog.describe_builtin(name) == "\n".join(_DESCRIPTIONS[name])


class TestQuadratureOracle:
    """Every closed fractional integral is cross-checked against adaptive
    weighted quadrature (an implementation the closed forms never touch)."""

    @staticmethod
    def _j_quad(f, alpha, tk, lower=0.0):
        val, _ = quad(f, lower, tk, weight="alg", wvar=(0.0, alpha - 1.0), limit=200)
        return val * fc.rgamma(alpha)

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    @pytest.mark.parametrize(
        "name,params",
        [
            ("constant", {"c": 3.0}),
            ("power", {"p": 0.5}),
            ("power", {"p": 1.4}),
            ("ml_exp", {"alpha": 0.7}),
        ],
    )
    def test_integral_closed_forms(self, alpha, name, params):
        entry = catalog.builtin(name, params)
        tk = 0.35
        closed = entry.rl_integral(alpha, np.array([tk]))[0]
        numeric = self._j_quad(lambda s: float(entry(np.array([s]))[0]), alpha, tk)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_step_integral(self):
        entry = catalog.builtin("step", {"t_jump": 0.2})
        closed = entry.rl_integral(0.5, np.array([0.9]))[0]
        numeric = self._j_quad(lambda s: 1.0, 0.5, 0.9, lower=0.2)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_power_derivative_against_differentiated_quadrature(self):
        # D^alpha f = d/dt J^(1-alpha) f; differentiate the quadrature route
        # with a central stencil and compare to the closed form.
        entry = catalog.builtin("power", {"p": 1.4})
        alpha, tk, dt = 0.5, 0.6, 1e-4
        f = lambda s: float(entry(np.array([s]))[0])
        num = (self._j_quad(f, 1 - alpha, tk + dt) - self._j_quad(f, 1 - alpha, tk - dt)) / (2 * dt)
        closed = entry.rl_derivative(alpha, np.array([tk]))[0]
        assert closed == pytest.approx(num, rel=1e-6)
