"""Oracle tests for the convolution kernels under the grid operators: the
moment and kernel tables against 60-digit closed forms, the direct/FFT causal
convolution, the product formulas against the row loop of their correction,
and the Leibniz error against closed forms."""

import mpmath
import numpy as np
import pytest

import fraccalc as fc
from fraccalc import operators
from fraccalc.operators import (
    _FFT_MIN_NODES,
    _causal_convolve,
    _cell_moments,
    _frac_integral_values,
    _marchaud_values,
)
from fraccalc.special import rgamma, weierstrass


def _product_correction_loop(u: np.ndarray, v: np.ndarray, a: float) -> np.ndarray:
    """The original O(n^2) row loop: on cell m of row k the increments are
    linear, U(xi) = UR + (UL - UR) xi, and their product is integrated against
    the mu moments; the first cell's mu0 weight multiplies UR * VR = 0."""
    n = u.size
    mu0, mu1, mu2 = _cell_moments(n, a, 3)[:3]
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
    # Weight of the node at tau = k: the falling hat on [k, k+1] and, from k = 1 on, the rising hat
    # on [k-1, k], integrated against tau**(a-1).
    F0 = lambda t: t**a / a  # noqa: E731
    F1 = lambda t: t ** (a + 1) / (a + 1)  # noqa: E731
    k = mpmath.mpf(k)
    falling = (k + 1) * (F0(k + 1) - F0(k)) - (F1(k + 1) - F1(k))
    return falling + (F1(k) - F1(k - 1) - (k - 1) * (F0(k) - F0(k - 1)) if k >= 1 else 0)


def _integral_kernel(n, a):
    # The kernel J of order a convolves data of n nodes with, as it hands it to the convolution.
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_causal_convolve", lambda g, kernel: seen.append(kernel) or np.zeros(g.shape))
        _frac_integral_values(np.zeros(n), 1.0, a)
    return seen[0]


_TABLE_MS = [2, 3, 10, 100, 1000, 10000, 32768]


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9, 1.5, 1.7, 2.2, 2.5])
def test_tables_against_closed_forms(a):
    # The float moments cancel terms m and m**2 times their value, so their relative error grows
    # like eps, m eps and m**2 eps (mu0, mu1, mu2).  Past mu0 (1.1 eps here) the bounds are twice
    # the three-power tables' worst case here: 5.3 m and 18 m**2 eps.  J's kernel adds two moments
    # at order -a without cancelling, so it keeps mu1's m eps: at most 3.0 m eps here, on every
    # grid from 2 nodes on.
    with mpmath.workdps(60):
        am = mpmath.mpf(a)
        if a < 1.0:
            mu = _cell_moments(max(_TABLE_MS), a, 3)
            for m in _TABLE_MS:
                for j, (table, exact, bound) in enumerate(zip(mu, _moments_mp(m, am), (12.0, 11.0, 36.0))):
                    rel = abs((table[m - 1] - exact) / exact)
                    assert rel <= bound * m**j * _EPS, (j, m)
        assert mpmath.almosteq(_integral_kernel_mp(0, am), 1 / (am * (am + 1)), rel_eps=mpmath.mpf(10) ** -50)
        for n in (2, 3, max(_TABLE_MS) + 1):
            kernel = _integral_kernel(n, a)
            assert kernel.shape == (n,)
            for m in [0, 1] + [m for m in _TABLE_MS if m < n]:
                exact = _integral_kernel_mp(m, am)
                assert abs((kernel[m] - exact) / exact) <= 6.0 * max(m, 1) * _EPS, (n, m)


def _ld(values):
    # Long doubles of mpmath numbers, as a double and its remainder.
    hi = np.array([float(x) for x in values])
    lo = np.array([float(x - y) for x, y in zip(values, hi)])
    return hi.astype(np.longdouble) + lo.astype(np.longdouble)


def _frac_integral_direct(g, a):
    # J of the rows of g (shape (..., n)) on [0, 1] by the same piecewise-linear rule, with its weights
    # to 40 digits and a direct sum in long double: row k takes kernel[k - j] at node j >= 1 and B(k)
    # at node 0.
    n = g.shape[-1]
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        F0 = [mpmath.mpf(m) ** am / am for m in range(n + 1)]
        F1 = [mpmath.mpf(m) ** (am + 1) / (am + 1) for m in range(n + 1)]
        A = [m * (F0[m] - F0[m - 1]) - (F1[m] - F1[m - 1]) for m in range(1, n + 1)]
        B = [F1[m] - F1[m - 1] - (m - 1) * (F0[m] - F0[m - 1]) for m in range(1, n)]
        kernel = _ld([A[0]] + [A[k] + B[k - 1] for k in range(1, n)])
        B, scale = _ld(B), _ld([(n - 1) ** -am / mpmath.gamma(am)])[0]
    out = np.zeros(g.shape, dtype=np.longdouble)
    for row, x in zip(out.reshape(-1, n), g.reshape(-1, n).astype(np.longdouble)):
        row[1:] = (np.convolve(x[1:], kernel)[: n - 1] + B * x[0]) * scale
    return out


# max over three seeded standard-normal rows of |J g - direct| / (eps sup J|g|), the direct sum below
# the FFT threshold at n = 257; weights built from differences of m**a and m**(a+1) read 830-2,440 and
# 3.9e4-1.0e5 here.
_WHITE_NOISE_WORST = {
    257: {0.1: 1.58, 0.5: 12.6, 0.9: 24.3, 1.5: 21.9},
    2049: {0.1: 6.41, 0.5: 43.1, 0.9: 85.5, 1.5: 128.2},
}


@pytest.mark.parametrize("n", sorted(_WHITE_NOISE_WORST))
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 1.5])
def test_frac_integral_of_white_noise(a, n):
    # Rough data meet every kernel entry at full weight, so J's error against the 40-digit weights
    # shows the kernel's rounding; it is held to twice the measured worst.
    g = np.random.default_rng(n).standard_normal((3, n))
    got = fc.frac_integral(fc.GridFunction(0.0, 1.0, g), a).values
    ref, ref_abs = _frac_integral_direct(np.stack((g, np.abs(g))), a)
    sup = np.max(ref_abs, axis=-1)
    assert np.all(np.max(np.abs(got - ref), axis=-1) <= 2.0 * _WHITE_NOISE_WORST[n][a] * _EPS * sup)


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
            assert got.shape == g.shape and got.flags.c_contiguous
            # Its own memory of exactly g's size, never a view into the FFT's longer buffer.
            assert got.base is None and got.flags.owndata and got.nbytes == 8 * g.size
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
        "same": (rng.standard_normal(n),) * 2,
        "weierstrass": (weierstrass(0.3, 2.0, t),) * 2,
    }


def _caputo_rule_from_loop(u: np.ndarray, v: np.ndarray, a: float) -> tuple[np.ndarray, float]:
    # The Caputo product rule u cD v + v cD u - q I on [0, 1], I from the row loop with the
    # (u - u0)(v - v0) k**-a / a part the rule's last term cancels, the factor derivatives from the
    # public Marchaud pass; and q = a h**-a / Gamma(1 - a), which takes I to the rule's scale.
    n = u.size
    k = np.maximum(np.arange(n), 1.0)
    correction = _product_correction_loop(u, v, a) + (u - u[0]) * (v - v[0]) * k**-a / a
    q = a * rgamma(1.0 - a) * (n - 1.0) ** a
    du, dv = (fc.marchaud_derivative(fc.GridFunction(0.0, 1.0, f - f[0]), a).values for f in (u, v))
    return u * dv + v * du - q * correction, q


class TestProductCorrection:
    @pytest.mark.parametrize("n", [2, 3, 5, 64, 600, 1025, 4097, 8193])
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("data", ["random", "smooth", "offset", "same", "weierstrass"])
    def test_matches_row_loop(self, n, a, data):
        u, v = _factor_pairs(n)[data]
        ref, q = _caputo_rule_from_loop(u, v, a)
        got = fc.leibniz_caputo(fc.GridFunction(0.0, 1.0, u), fc.GridFunction(0.0, 1.0, v), a).values
        # The correction depends only on increments, so its rounding scale is set by the ranges of
        # the data, not by their offsets; q takes it to the rule's.  On rough correlated factors
        # ("same", "weierstrass") d_u d_v is one-signed, and the bound must hold at every n.
        scale = max(np.ptp(u) * np.ptp(v), 1e-300)
        assert np.max(np.abs(got - ref)) <= 1e-12 * q * scale
        assert got[0] == 0.0

    def test_constant_factor_adds_no_correction(self):
        # With v = 3 every term that carries the correction (v's increments, their products with
        # u's and v's edge terms) is exactly 0, so the rule is bit for bit its factor term as the
        # closed form sums it, q [3 grad(d_u * wL) - (3 d_u) * K + 3 wL(k-1) e_u], built here from
        # the same tables and convolution; and that is 3 cD u to the rounding of one Marchaud pass.
        n, a = 700, 0.5
        u = np.sqrt(np.linspace(0.0, 1.0, n))
        U, V = fc.GridFunction(0.0, 1.0, u), fc.GridFunction(0.0, 1.0, np.full(n, 3.0))
        got = fc.leibniz_caputo(U, V, a).values
        _, mu1, mu2, tail = _cell_moments(n + 1, a, 3)
        wL = (mu2[:n] - mu1[:n]) / 2.0
        du = np.zeros(n)
        du[1:] = u[:-1] - u[1:]
        factor = _causal_convolve(3.0 * du, mu1[:n] + tail[:n])
        factor[1] += wL[0] * (3.0 * du[1])
        factor[2:] -= wL[1 : n - 1] * (3.0 * (du[2] - 2.0 * du[1]))
        factor[1:] = 3.0 * np.diff(_causal_convolve(du, wL)) - factor[1:]
        factor *= a * rgamma(1.0 - a) * U.h**-a
        factor[0] = 0.0
        assert got.tobytes() == factor.tobytes()
        ref, _ = _caputo_rule_from_loop(u, np.full(n, 3.0), a)
        assert np.max(np.abs(got - ref)) <= 4.0 * _EPS * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [129, 1025])
    @pytest.mark.parametrize("data", ["random", "offset"])
    def test_symmetric_bit_for_bit(self, n, data):
        u, v = (fc.GridFunction(0.0, 1.0, f) for f in _factor_pairs(n)[data])
        for formula in (fc.leibniz_rl, fc.leibniz_caputo):
            assert np.array_equal(formula(u, v, 0.4).values, formula(v, u, 0.4).values)


@pytest.mark.parametrize("n", [257, 1025, 4097])
@pytest.mark.parametrize("a", [0.3, 0.9])
def test_stacked_marchaud_matches_per_factor_calls(n, a):
    # Stacked rows share the moments, kernel and kernel spectrum, and keep
    # the bits of one call per row.
    u, v = _factor_pairs(n)["smooth"]
    h = 1.0 / (n - 1)
    both = _marchaud_values(np.stack((u, v)), h, a)
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
