"""The singular-start probe: its verdict and the D -> J round trip it enables
must not depend on the grid size, and the subgrid prefix it reads must give
the same first-node estimates as the whole subgrid."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraccalc as fc
from fraccalc.operators import _PROBE_GROWTH, _first_node_estimates, _marchaud_values, _rl_values


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


def _off_integers(lo: float, hi: float):
    # At an integer order D of a constant is 0, and the t^p marker rule does not hold.
    return st.floats(lo, hi).filter(lambda a: abs(a - round(a)) >= 0.05)


_ORDERS = {
    None: _off_integers(0.05, 2.95),
    "marchaud": st.floats(0.05, 0.95),
    "integral_then_difference": _off_integers(1.05, 2.95),
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
        # Stay clear of the decision boundary 2^(alpha-p) = 1.15, and of grids whose stride-4
        # subgrid is shorter than the ceil(alpha) + 2 nodes the probe reads.
        assume(abs(alpha - p - math.log2(_PROBE_GROWTH)) > 1e-6)
        assume(n >= 4 * math.ceil(alpha) + 5)
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
        "alpha,marchaud",
        [(0.5, True), (0.5, False), (1.5, False), (2.5, False), (12.0, False), (1.5, True), (2.5, True),
         (12.0, True)],
    )
    def test_prefix_gives_the_whole_grid_estimate(self, alpha, marchaud):
        # The probe cuts each subgrid to its first ceil(alpha) + 2 nodes.
        t = np.linspace(0.0, 1.0, 2049)
        v = np.exp(-t) + t**0.3
        h = t[1]
        whole = _rl_values(v, h, alpha, marchaud)[1]
        prefix = _rl_values(v[: math.ceil(alpha) + 2], h, alpha, marchaud)[1]
        assert prefix == pytest.approx(whole, rel=1e-11)


class TestClosedFormEstimates:
    # Below order 1 the probe reads index 1 of a 3-node Marchaud pass in closed form; the pass
    # itself, on the stride prefixes, is the oracle.
    @staticmethod
    def _pass_estimates(v, h, alpha):
        return [np.abs(_marchaud_values(v[..., ::s][..., :3], h * s, alpha)[..., 1]) for s in (4, 2, 1)]

    def _assert_bitwise(self, v, h, alpha):
        got = _first_node_estimates(v, h, alpha, True)
        for e, want in zip(got, self._pass_estimates(v, h, alpha)):
            assert e.shape == want.shape
            assert np.array_equal(e.view(np.int64), want.view(np.int64))

    def test_bitwise_on_random_rows(self):
        rng = np.random.default_rng(21)
        for k in range(2000):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(13, 80))
            scale = 10.0 ** rng.uniform(-30, 30)
            v = scale * (rng.standard_normal((d, n)) if k % 2 else np.round(rng.uniform(-3.0, 3.0, (d, n))))
            self._assert_bitwise(v[0] if d == 1 and k % 3 == 0 else v, float(rng.uniform(1e-4, 2.0)),
                                 float(rng.uniform(0.01, 0.99)))

    @pytest.mark.parametrize("n", [13, 14, 20])
    def test_coarse_mittag_leffler_keeps_its_decision(self, n):
        # The documented miss on coarse grids: the stride-4 -> 2 growth stays below 1.15.
        g = _sampled("ml_exp", {"alpha": 0.7}, n)
        self._assert_bitwise(g.values, g.h, 0.5)
        assert not fc.rl_derivative(g, 0.5).singular_start
