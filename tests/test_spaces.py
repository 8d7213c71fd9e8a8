"""Hölder diagnostics and membership norms for the two regularity classes."""

import math

import numpy as np
import pytest

import fraccalc as fc
from fraccalc import spaces
from fraccalc.spaces import (
    EXCLUDED_START_NODES,
    c_norm,
    continuous_at_start,
    holder_exponent,
    holder_seminorm,
    rl_norm,
)

GAMMA_3_2 = 0.8862269254527580136


def _sqrt_grid(n=1025):
    t = np.linspace(0.0, 1.0, n)
    return fc.GridFunction(0.0, 1.0, np.sqrt(t))


class TestHolderSeminorm:
    def test_sqrt_at_matching_exponent(self):
        # |sqrt(a) - sqrt(b)| <= |a - b|^(1/2) with equality against 0:
        # the seminorm is exactly 1, attained at the first pair.
        est = holder_seminorm(_sqrt_grid(), 0.5)
        assert est.value == 1.0
        assert est.argmax_pair == (0, 1)
        assert est.exact
        assert est.pairs_examined == 1025 * 1024 // 2

    def test_sqrt_at_exponent_one_scales_with_grid(self):
        # The difference quotient of sqrt blows up like h^(-1/2); on 1025
        # nodes the steepest chord is the first one: sqrt(h)/h = 32.
        est = holder_seminorm(_sqrt_grid(), 1.0)
        assert est.value == pytest.approx(32.0, rel=1e-13)
        assert est.argmax_pair == (0, 1)

    def test_linear_function(self):
        g = fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 1025))
        assert holder_seminorm(g, 1.0).value == pytest.approx(1.0, rel=1e-13)
        # Against exponent 1/2 the widest chord dominates: 1 / 1^0.5 = 1.
        assert holder_seminorm(g, 0.5).value == pytest.approx(1.0, rel=1e-13)

    def test_smooth_data_scan_is_exact(self):
        # At gamma = 0.8 the seminorm of sin(20 t) is a chord of about 600
        # nodes.  The rise/gap bounds of close block pairs stay above it, so
        # without the slope bound the scan stops at the pair budget.
        t = np.linspace(0.0, 1.0, 8193)
        est = holder_seminorm(fc.GridFunction(0.0, 1.0, np.sin(20.0 * t)), 0.8)
        assert est.exact
        assert est.upper == est.value

    def test_budget_subsampling_keeps_the_peak(self, monkeypatch):
        # The block pairs at the start, where the sqrt ratio peaks, have some
        # of the largest bounds, so the first chunk finds the value.
        monkeypatch.setattr(spaces, "_PAIR_BUDGET", 10_000)
        est = holder_seminorm(_sqrt_grid(), 0.5)
        assert not est.exact
        assert est.value == 1.0
        assert est.pairs_examined < 1025 * 1024 // 2

    def test_budgeted_values_beyond_float_range_give_inf(self, monkeypatch):
        # Neighbours 2e308 apart overflow their difference; the 65 nodes fit
        # in one chunk, so even a budget of 100 pairs gives the exact inf,
        # and raises no RuntimeWarning.
        g = fc.GridFunction(0.0, 1.0, np.where(np.arange(65) % 2, 1e308, -1e308))
        monkeypatch.setattr(spaces, "_PAIR_BUDGET", 100)
        est = holder_seminorm(g, 0.5)
        assert est.exact
        assert est.value == math.inf
        assert est.upper == math.inf

    def test_validation(self):
        g = _sqrt_grid(65)
        for gamma in (0.0, 1.2, -0.5):
            with pytest.raises(fc.InvalidParameterError):
                holder_seminorm(g, gamma)
        marked = fc.GridFunction(0.0, 1.0, np.r_[np.nan, np.ones(64)], singular_start=True)
        with pytest.raises(fc.PreconditionError):
            holder_seminorm(marked, 0.5)


class TestHolderExponent:
    def test_sqrt(self):
        assert holder_exponent(_sqrt_grid()) == pytest.approx(0.5, abs=1e-9)

    def test_linear_clamps_to_one(self):
        g = fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 1025))
        assert holder_exponent(g) == 1.0

    def test_raw_jump_has_no_regularity(self):
        # A discontinuity keeps the modulus of continuity flat at 1, so the
        # fitted slope collapses to the clamp floor.
        s = fc.sample(fc.builtin("step", {"t_jump": 0.5}), 0.0, 1.0, 1025)
        assert holder_exponent(s) == pytest.approx(1e-6)

    def test_smoothed_jump_frozen_value(self):
        s = fc.sample(fc.builtin("step", {"t_jump": 0.5}), 0.0, 1.0, 2049)
        g = fc.frac_integral(s, 0.5)
        assert holder_exponent(g) == pytest.approx(0.5445920266110602, abs=1e-9)

    def test_lacunary_sum_frozen_value(self):
        w = fc.sample(fc.builtin("weierstrass_shifted"), 0.0, 1.0, 1025)
        assert holder_exponent(w) == pytest.approx(0.5018847171520358, abs=1e-9)

    @pytest.mark.parametrize(
        "make",
        [
            _sqrt_grid,
            lambda: fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 1025)),
            lambda: fc.sample(fc.builtin("step", {"t_jump": 0.5}), 0.0, 1.0, 1025),
            lambda: fc.frac_integral(fc.sample(fc.builtin("step", {"t_jump": 0.5}), 0.0, 1.0, 2049), 0.5),
            lambda: fc.sample(fc.builtin("weierstrass_shifted"), 0.0, 1.0, 1025),
            lambda: fc.sample(fc.builtin("weierstrass_shifted"), 0.0, 1.0, 4097),
        ],
        ids=["sqrt", "linear", "jump", "smoothed_jump", "lacunary", "lacunary_4097"],
    )
    def test_fit_needs_no_linear_solve(self, monkeypatch, make):
        # The slope of the least-squares line, in closed form; np.polyfit on the same points is the oracle.
        g = make()
        lags = [1 << k for k in range(((g.n - 1) // 4).bit_length())]
        moduli = [np.max(np.abs(g.values[..., lag:] - g.values[..., :-lag])) for lag in lags]
        x, y = zip(*[(lag * g.h, w) for lag, w in zip(lags, moduli) if w > 0.0])
        want = min(max(float(np.polyfit(np.log(x), np.log(y), 1)[0]), 1e-6), 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("linear solve called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        assert abs(holder_exponent(g) - want) <= 4 * np.spacing(want)

    def test_constant_raises(self):
        g = fc.GridFunction(0.0, 1.0, np.ones(65))
        with pytest.raises(fc.ConstantInputError):
            holder_exponent(g)

    @pytest.mark.parametrize(
        "values",
        [np.where(np.arange(65) % 2, 1e308, -1e308), np.where(np.arange(65) < 32, -1e308, 1e308)],
        ids=["alternating", "step"],
    )
    def test_modulus_beyond_float_range_raises(self, values):
        # The moduli overflow to inf; the fit refuses them instead of
        # warning and returning nan or calling the data constant.
        with pytest.raises(fc.PreconditionError, match="float range"):
            holder_exponent(fc.GridFunction(0.0, 1.0, values))

    def test_needs_enough_nodes(self):
        g = fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 5))
        with pytest.raises(fc.PreconditionError):
            holder_exponent(g)

    def test_rejects_marked_data(self):
        marked = fc.GridFunction(0.0, 1.0, np.r_[np.nan, np.linspace(0.0, 1.0, 64)], singular_start=True)
        with pytest.raises(fc.PreconditionError):
            holder_exponent(marked)


class TestContinuityClassifier:
    def test_bounded_data_passes(self):
        assert continuous_at_start(_sqrt_grid())
        d = fc.rl_derivative(_sqrt_grid(), 0.5)
        assert continuous_at_start(d)

    def test_marker_fails_immediately(self):
        g = fc.GridFunction(0.0, 1.0, np.r_[np.nan, np.ones(1024)], singular_start=True)
        assert not continuous_at_start(g)

    def test_algebraic_blowup_fails(self):
        t = np.linspace(0.0, 1.0, 1025)
        v = np.zeros(1025)
        v[1:] = t[1:] ** -0.2
        assert not continuous_at_start(fc.GridFunction(0.0, 1.0, v))

    def test_all_zero_data_passes(self):
        assert continuous_at_start(fc.GridFunction(0.0, 1.0, np.zeros(65)))

    def test_needs_enough_nodes(self):
        with pytest.raises(fc.PreconditionError):
            continuous_at_start(fc.GridFunction(0.0, 1.0, np.ones(9)))

    @pytest.mark.parametrize("n", range(10, 24))
    def test_short_grids_look_at_the_last_values_from_index_one(self, n):
        # Below 24 nodes the 16 values past the 8-node window do not exist;
        # the window is then the last 16 values, or all from index 1 on.
        first = max(1, n - 16)
        v = np.ones(n)
        v[0] = 100.0  # never looked at
        assert continuous_at_start(fc.GridFunction(0.0, 1.0, v))
        v[first] = 2.0
        assert not continuous_at_start(fc.GridFunction(0.0, 1.0, v))


class TestMembershipNorms:
    def test_sqrt_is_a_member(self):
        # sup|f| + sup|D^0.5 f| = 1 + Gamma(1.5) up to scheme error near the
        # excluded window; frozen measured value.
        norm = rl_norm(_sqrt_grid(), 0.5)
        assert norm == pytest.approx(1.8867091724358684, abs=1e-10)
        assert norm == pytest.approx(1.0 + GAMMA_3_2, abs=1e-3)

    def test_smooth_power_is_a_member(self):
        t = np.linspace(0.0, 1.0, 1025)
        norm = rl_norm(fc.GridFunction(0.0, 1.0, t**1.5), 0.5)
        assert norm == pytest.approx(1.0 + fc.gamma(2.5), abs=1e-3)

    def test_constant_is_rejected(self):
        g = fc.GridFunction(0.0, 1.0, np.ones(1025))
        with pytest.raises(fc.MembershipError):
            rl_norm(g, 0.5)

    def test_constant_is_a_caputo_member(self):
        g = fc.GridFunction(0.0, 1.0, np.ones(1025))
        assert c_norm(g, 0.5, (1.0,)) == 1.0

    def test_mittag_leffler_caputo_norm(self):
        # f = E_0.7(t^0.7) satisfies cD^0.7 f = f, so the norm is twice the
        # endpoint value E_0.7(1).
        g = fc.sample(fc.builtin("ml_exp", {"alpha": 0.7}), 0.0, 1.0, 1025)
        norm = c_norm(g, 0.7, (1.0,))
        assert norm == pytest.approx(2.0 * 3.7041461454375860340, rel=1e-6)

    def test_mittag_leffler_is_not_an_rl_member(self):
        # f(0) = 1 != 0 forces a t^-alpha tail in the plain derivative.
        g = fc.sample(fc.builtin("ml_exp", {"alpha": 0.7}), 0.0, 1.0, 1025)
        with pytest.raises(fc.MembershipError):
            rl_norm(g, 0.7)

    def test_marked_input_rejected(self):
        g = fc.GridFunction(0.0, 1.0, np.r_[np.nan, np.ones(1024)], singular_start=True)
        with pytest.raises(fc.MembershipError):
            rl_norm(g, 0.5)

    @pytest.mark.parametrize("order", [0.0, 1.0, 1.5])
    def test_order_range(self, order):
        g = _sqrt_grid(65)
        with pytest.raises(fc.InvalidParameterError):
            rl_norm(g, order)


def test_excluded_window_is_eight_nodes():
    # Several frozen tolerances in this suite assume the 8-node window;
    # changing it silently would invalidate them.
    assert EXCLUDED_START_NODES == 8
