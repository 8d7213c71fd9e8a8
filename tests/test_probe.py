"""The singular-start probe: its verdict and the D -> J round trip it enables
must not depend on the grid size, and the subgrid prefix it reads must give
the same first-node estimates as the whole subgrid."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraccalc as fc
from fraccalc.operators import _PROBE_GROWTH, DerivativeMethod, _rl_values


def _round_trip(g: fc.GridFunction, alpha: float) -> tuple[bool, float]:
    d = fc.rl_derivative(g, alpha)
    back = fc.frac_integral(d, alpha)
    return d.singular_start, float(np.max(np.abs(back.values[8:] - g.values[8:])))


def _sampled(name, params, n):
    return fc.sample(fc.builtin(name, params), 0.0, 1.0, n)


class TestRoundTripOffLattice:
    # n = 1025 is 4k + 1; the others are not.
    @pytest.mark.parametrize("n", [1000, 1024, 1026, 1027])
    def test_constant_matches_lattice_grid(self, n):
        marked, err = _round_trip(_sampled("constant", {"c": 1.0}, n), 0.5)
        ref_marked, ref_err = _round_trip(_sampled("constant", {"c": 1.0}, 1025), 0.5)
        assert marked and ref_marked
        # The start error of constant data is self-similar: the same at every n.
        assert err == pytest.approx(ref_err, abs=1e-9)
        assert err == pytest.approx(5.091e-3, abs=1e-6)

    @pytest.mark.parametrize("n", [1000, 1024, 1026, 1027])
    def test_mittag_leffler_matches_lattice_grid(self, n):
        marked, err = _round_trip(_sampled("ml_exp", {"alpha": 0.7}, n), 0.5)
        ref_marked, ref_err = _round_trip(_sampled("ml_exp", {"alpha": 0.7}, 1025), 0.5)
        assert marked and ref_marked
        # Not self-similar, so the error drifts smoothly with h (3.316e-3 at
        # n = 1000, 3.350e-3 at n = 1027); an unmarked start is off by 0.17.
        assert err == pytest.approx(ref_err, rel=0.02)


def _expected_marker(alpha: float, p: float) -> bool:
    # On c t^p every subgrid estimate at index 1 scales exactly like h^(p-alpha),
    # so each halving multiplies it by 2^(alpha-p).
    return p < alpha and 2.0 ** (alpha - p) >= _PROBE_GROWTH


_ORDERS = {
    DerivativeMethod.MARCHAUD: st.floats(0.05, 0.95),
    DerivativeMethod.INTEGRAL_THEN_DIFFERENCE: st.floats(1.05, 1.95),
}


class TestMarkerIndependentOfGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(13, 4097),
        method=st.sampled_from(list(_ORDERS)),
        data=st.data(),
        p=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        c=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    )
    def test_power_marker(self, n, method, data, p, c):
        alpha = data.draw(_ORDERS[method], label="alpha")
        # Stay clear of the decision boundary 2^(alpha-p) = 1.15.
        assume(abs(alpha - p - math.log2(_PROBE_GROWTH)) > 1e-6)
        t = np.linspace(0.0, 1.0, n)
        d = fc.rl_derivative(fc.GridFunction(0.0, 1.0, c * t**p), alpha, method)
        assert d.singular_start == _expected_marker(alpha, p)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(13, 4097), alpha=st.floats(0.3, 0.95), c=st.floats(0.1, 10.0))
    def test_constant_round_trip(self, n, alpha, c):
        marked, err = _round_trip(fc.GridFunction(0.0, 1.0, np.full(n, c)), alpha)
        ref_marked, ref_err = _round_trip(fc.GridFunction(0.0, 1.0, np.full(1025, c)), alpha)
        assert marked and ref_marked
        assert err == pytest.approx(ref_err, abs=1e-9 * c)


class TestProbePrefix:
    @pytest.mark.parametrize(
        "alpha,method",
        [
            (0.5, DerivativeMethod.MARCHAUD),
            (0.5, DerivativeMethod.INTEGRAL_THEN_DIFFERENCE),
            (1.5, DerivativeMethod.INTEGRAL_THEN_DIFFERENCE),
            (2.5, DerivativeMethod.INTEGRAL_THEN_DIFFERENCE),
            (12.0, DerivativeMethod.INTEGRAL_THEN_DIFFERENCE),
        ],
    )
    def test_prefix_gives_the_whole_grid_estimate(self, alpha, method):
        # The probe cuts each subgrid to its first ceil(alpha) + 2 nodes.
        t = np.linspace(0.0, 1.0, 2049)
        v = np.exp(-t) + t**0.3
        h = t[1]
        whole = _rl_values(v, h, alpha, method)[1]
        prefix = _rl_values(v[: math.ceil(alpha) + 2], h, alpha, method)[1]
        assert prefix == pytest.approx(whole, rel=1e-11)
