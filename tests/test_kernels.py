"""Oracle tests for the convolution kernels under the grid operators: the
moment and kernel tables against 60-digit closed forms, the direct/FFT causal
convolution, the convolution form of the Leibniz correction, and the Leibniz
error against closed forms."""

import mpmath
import numpy as np
import pytest

import fraccalc as fc
from fraccalc.operators import (
    _FFT_MIN_NODES,
    _causal_convolve,
    _cell_moments,
    _integral_kernel,
    _marchaud_values,
    _product_correction,
)


def _product_correction_loop(u: np.ndarray, v: np.ndarray, a: float) -> np.ndarray:
    """The original O(n^2) row loop: on cell m of row k the increments are
    linear, U(xi) = UR + (UL - UR) xi, and their product is integrated against
    the mu moments; the first cell's mu0 weight multiplies UR * VR = 0."""
    n = u.size
    mu0, mu1, mu2 = _cell_moments(n, a)[:3]
    mu0 = mu0.copy()
    mu0[0] = 0.0
    out = np.zeros(n)
    for k in range(1, n):
        ur = u[k:0:-1] - u[k]
        ul = u[k - 1 :: -1] - u[k]
        vr = v[k:0:-1] - v[k]
        vl = v[k - 1 :: -1] - v[k]
        du = ul - ur
        dv = vl - vr
        out[k] = (
            np.dot(ur * vr, mu0[:k]) + np.dot(ur * dv + vr * du, mu1[:k]) + np.dot(du * dv, mu2[:k])
        )
    return out


@pytest.mark.parametrize("a", [0.1, 0.5, 0.95, 1.7, 2.2])
@pytest.mark.parametrize("n", [2, 3, 64, 513, 8193])
def test_integral_kernel_matches_four_pow_formula(n, a):
    # The kernel takes its powers from one table over m = 0..n; that must give
    # the same floats as the four powers per cell it replaced.
    m = np.arange(1, n + 1, dtype=float)
    phi0 = (m**a - (m - 1.0) ** a) / a
    phi1 = (m ** (a + 1.0) - (m - 1.0) ** (a + 1.0)) / (a + 1.0)
    A = m * phi0 - phi1
    B = phi1 - (m - 1.0) * phi0
    kernel, got_A = _integral_kernel(n, a)
    assert np.array_equal(got_A, A)
    assert np.array_equal(kernel, np.concatenate(([A[0]], A[1:] + B[:-1])))


_EPS = 2.0**-52


def _moments_mp(m, a):
    # mu_j(m) = int_{m-1}^{m} (tau - l)**j tau**(-a-1) dtau with l = m - 1,
    # from the antiderivatives of the expanded integrands.
    l = mpmath.mpf(m - 1)
    antiderivatives = (
        lambda t: -(t**-a) / a,
        lambda t: t ** (1 - a) / (1 - a) + l * t**-a / a,
        lambda t: t ** (2 - a) / (2 - a) - 2 * l * t ** (1 - a) / (1 - a) - l**2 * t**-a / a,
    )
    return [F(mpmath.mpf(m)) - F(l) for F in antiderivatives]


def _integral_kernel_mp(k, a):
    # Weight of the node at tau = k: the falling hat on [k, k+1] and the
    # rising hat on [k-1, k], integrated against tau**(a-1).
    k = mpmath.mpf(k)
    phi0 = [((k + i) ** a - (k + i - 1) ** a) / a for i in (0, 1)]
    phi1 = [((k + i) ** (a + 1) - (k + i - 1) ** (a + 1)) / (a + 1) for i in (0, 1)]
    falling = (k + 1) * phi0[1] - phi1[1]
    rising = phi1[0] - (k - 1) * phi0[0]
    return falling + rising


_TABLE_MS = [2, 3, 10, 100, 1000, 10000, 32768]


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_tables_against_closed_forms(a):
    # The float tables cancel terms m and m**2 times their value, so their
    # relative error grows like eps, m eps, m**2 eps (mu0, mu1, mu2) and
    # m**2 eps (J kernel).  Past mu0 (1.1 eps here) the bounds are twice the
    # three-power tables' worst case here: 5.3 m, 18 m**2 and 9.4 m**2 eps.
    mu = _cell_moments(max(_TABLE_MS), a)
    kernel, _ = _integral_kernel(max(_TABLE_MS) + 1, a)
    with mpmath.workdps(60):
        am = mpmath.mpf(a)
        for m in _TABLE_MS:
            for j, (table, exact, bound) in enumerate(zip(mu, _moments_mp(m, am), (12.0, 11.0, 36.0))):
                rel = abs((table[m - 1] - exact) / exact)
                assert rel <= bound * m**j * _EPS, (j, m)
            exact = _integral_kernel_mp(m, am)
            assert abs((kernel[m] - exact) / exact) <= 19.0 * m**2 * _EPS, m


class TestCausalConvolve:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, _FFT_MIN_NODES - 1, _FFT_MIN_NODES, _FFT_MIN_NODES + 1, 1025, 4097, 8193]
    )
    @pytest.mark.parametrize("k", ["1", "2", "n//2", "n"])
    def test_matches_direct_convolution(self, n, k):
        # The FFT length must cover n outputs and every wrapped term but the
        # last; k = 1 at n = 1025 asks for n + k - 2 = 1024 < n.
        size = {"1": 1, "2": 2, "n//2": max(n // 2, 1), "n": n}[k]
        rng = np.random.default_rng(n + size)
        kernel = rng.standard_normal(size)
        rows = rng.standard_normal((2, 3, n))
        for g in (rows[0, 0], rows[0], rows):
            got = _causal_convolve(g, kernel)
            assert got.shape == g.shape
            ref = np.array([np.convolve(row, kernel)[:n] for row in g.reshape(-1, n)]).reshape(g.shape)
            if n < _FFT_MIN_NODES:
                assert np.array_equal(got, ref)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
                # The one wrapped term lands on index 0, which is set exactly.
                assert np.array_equal(got[..., 0], g[..., 0] * kernel[0])


def _factor_pairs(n):
    t = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    return {
        "random": tuple(rng.standard_normal((2, n))),
        "smooth": (t**0.6, np.cos(3.0 * t)),
        "offset": (100.0 + t**0.6, 50.0 + t),
    }


class TestProductCorrection:
    @pytest.mark.parametrize("n", [2, 3, 5, 64, 600, 1025])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("data", ["random", "smooth", "offset"])
    def test_matches_row_loop(self, n, a, data):
        u, v = _factor_pairs(n)[data]
        # The correction leaves the (u - u0)(v - v0) k**-a / a part of the
        # loop's sum to its caller, where the Caputo formula cancels it.
        k = np.maximum(np.arange(n), 1.0)
        ref = _product_correction_loop(u, v, a) + (u - u[0]) * (v - v[0]) * k**-a / a
        got = _product_correction(u, v, a, _cell_moments(n + 1, a))
        # The sum depends only on increments, so its rounding scale is set by
        # the ranges of the data, not by their offsets.
        scale = max(np.ptp(u) * np.ptp(v), 1e-300)
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        assert got[0] == 0.0

    def test_constant_factor_gives_zero(self):
        u = np.sqrt(np.linspace(0.0, 1.0, 700))
        assert np.all(_product_correction(u, np.full(700, 3.0), 0.5, _cell_moments(701, 0.5)) == 0.0)

    @pytest.mark.parametrize("n", [129, 1025])
    def test_symmetric_bit_for_bit(self, n):
        u, v = _factor_pairs(n)["random"]
        moments = _cell_moments(n + 1, 0.4)
        assert np.array_equal(_product_correction(u, v, 0.4, moments), _product_correction(v, u, 0.4, moments))


@pytest.mark.parametrize("n", [257, 1025, 4097])
@pytest.mark.parametrize("a", [0.3, 0.9])
def test_stacked_marchaud_matches_per_factor_calls(n, a):
    # The RL product formula takes both factor derivatives from one stacked
    # call that shares the moments, kernel and kernel spectrum.
    u, v = _factor_pairs(n)["smooth"]
    h = 1.0 / (n - 1)
    both = _marchaud_values(np.stack((u, v)), h, a, _cell_moments(n + 1, a))
    assert np.array_equal(both[0], _marchaud_values(u, h, a))
    assert np.array_equal(both[1], _marchaud_values(v, h, a))


# Sup error past node 8 against the closed form, computed with the O(n^2)
# loop at commit 2d10e6e719fcc490b0a5e23b715c41a8283713ec.  The convolution
# form must stay within 1.1x of them.
_LEIBNIZ_RL_ERRORS = {257: 9.160531e-05, 1025: 2.630672e-05, 4097: 7.554620e-06, 8193: 4.048421e-06}
_LEIBNIZ_CAPUTO_SHIFTED_ERRORS = {257: 1.348408e-04, 1025: 1.576157e-04, 4097: 1.497222e-04, 8193: 1.423612e-04}


def _power_rl(p, t):
    return fc.builtin("power", {"p": p}).rl_derivative(0.5, t)


class TestLeibnizErrorPinned:
    @pytest.mark.parametrize("n", sorted(_LEIBNIZ_RL_ERRORS))
    def test_rl_against_closed_form(self, n):
        t = np.linspace(0.0, 1.0, n)
        u = fc.GridFunction(0.0, 1.0, t**0.6)
        v = fc.GridFunction(0.0, 1.0, t**0.8)
        got = fc.leibniz_rl(u, v, 0.5).values
        err = np.max(np.abs(got[8:] - _power_rl(1.4, t)[8:]))
        assert err <= 1.1 * _LEIBNIZ_RL_ERRORS[n]

    @pytest.mark.parametrize("n", sorted(_LEIBNIZ_CAPUTO_SHIFTED_ERRORS))
    def test_caputo_shifted_factors_against_closed_form(self, n):
        # cD[(1 + t^0.6)(2 + t^0.8)] = 2 D t^0.6 + D t^0.8 + D t^1.4.
        t = np.linspace(0.0, 1.0, n)
        u = fc.GridFunction(0.0, 1.0, 1.0 + t**0.6)
        v = fc.GridFunction(0.0, 1.0, 2.0 + t**0.8)
        closed = 2.0 * _power_rl(0.6, t) + _power_rl(0.8, t) + _power_rl(1.4, t)
        got = fc.leibniz_caputo(u, v, 0.5).values
        err = np.max(np.abs(got[8:] - closed[8:]))
        assert err <= 1.1 * _LEIBNIZ_CAPUTO_SHIFTED_ERRORS[n]
