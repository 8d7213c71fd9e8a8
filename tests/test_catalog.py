"""Catalog tests: parameter handling, closed forms, and an independent
quadrature oracle for every closed fractional integral."""

import math

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

    def test_half_derivative_annihilates_sqrt_again(self):
        # D^1.5 t^0.5 has coefficient Gamma(1.5)/Gamma(0) = 0.
        e = catalog.builtin("power", {"p": 0.5})
        assert np.all(e.rl_derivative(1.5, np.array([0.2, 0.8])) == 0.0)

    def test_integer_exponent_taylor_and_caputo(self):
        e = catalog.builtin("power", {"p": 2.0})
        assert e.taylor == (0.0, 0.0, 2.0)
        # Caputo of order above the polynomial degree vanishes.
        assert np.all(e.caputo_derivative(2.3, np.array([0.5, 1.0])) == 0.0)

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
            np.testing.assert_allclose(closed(0.0, t), e(t), rtol=1e-14, atol=0.0)

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
