"""Invariance laws of the grid fractional integral and the Marchaud derivative
on random piecewise-linear data: values do not depend on where the interval
starts, they scale like c**alpha (integral) and c**-alpha (derivative) when
the interval is stretched by c, and so do the Riemann-Liouville derivative's
values and singular-start marker; both operators are linear, and the integral
obeys the semigroup law J^a J^b f = J^(a+b) f up to the discretization error
its closed form predicts.  Grid sizes are drawn on both sides of the
direct/FFT convolution switch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraccalc as fc
from fraccalc.operators import _FFT_MIN_NODES

_SIDES = {
    "direct": st.integers(13, _FFT_MIN_NODES - 1),
    "fft": st.integers(_FFT_MIN_NODES, 2049),
}

_OPERATORS = {
    # name -> (operator, order range, scaling exponent sign)
    "frac_integral": (fc.frac_integral, st.floats(0.05, 1.95), 1.0),
    "marchaud_derivative": (fc.marchaud_derivative, st.floats(0.05, 0.95), -1.0),
}
# The laws of start and length also hold for the singular-start marker, whose probe reads no step.
# Orders stay off the integers, where the derivative takes no fractional pass.
_MOVED = {
    **_OPERATORS,
    "rl_derivative": (fc.rl_derivative, st.floats(0.05, 2.95).filter(lambda a: abs(a - round(a)) >= 0.05), -1.0),
}

_REL = 1e-12

# Linear-combination coefficients: zero, or at least 1e-3 in magnitude.  A
# coefficient like 5e-324 pushes the data into the subnormal range, where no
# floating-point computation keeps a relative accuracy.
_COEFFICIENTS = st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


def _piecewise_linear(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    knots = rng.integers(2, 13)
    return np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, knots), rng.uniform(-1.0, 1.0, knots))


def _close(a: np.ndarray, b: np.ndarray, scale: float) -> bool:
    return float(np.max(np.abs(a - b))) <= _REL * scale


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _same_output(got: fc.GridFunction, want: fc.GridFunction, factor: float = 1.0) -> bool:
    # Equal markers, and values within _REL of factor times want's; index 0 holds NaN when marked.
    start = 1 if want.singular_start else 0
    expected = factor * want.values[start:]
    return got.singular_start == want.singular_start and _close(got.values[start:], expected, _sup(expected))


@pytest.mark.parametrize("side", sorted(_SIDES))
class TestInvariance:
    @pytest.mark.parametrize("op", sorted(_MOVED))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), length=st.floats(0.25, 4.0),
           shift=st.floats(-50.0, 50.0))
    def test_shift_of_start(self, op, side, data, seed, length, shift):
        apply, orders, _ = _MOVED[op]
        n = data.draw(_SIDES[side])
        alpha = data.draw(orders)
        v = _piecewise_linear(seed, n)
        base = apply(fc.GridFunction(0.0, length, v), alpha)
        moved = apply(fc.GridFunction(shift, shift + length, v), alpha)
        assert _same_output(moved, base)

    @pytest.mark.parametrize("op", sorted(_MOVED))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), length=st.floats(0.25, 4.0),
           c=st.floats(0.1, 10.0))
    def test_interval_scaling(self, op, side, data, seed, length, c):
        apply, orders, sign = _MOVED[op]
        n = data.draw(_SIDES[side])
        alpha = data.draw(orders)
        v = _piecewise_linear(seed, n)
        base = apply(fc.GridFunction(0.0, length, v), alpha)
        stretched = apply(fc.GridFunction(0.0, c * length, v), alpha)
        assert _same_output(stretched, base, c ** (sign * alpha))

    @pytest.mark.parametrize("op", sorted(_OPERATORS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), a=_COEFFICIENTS, b=_COEFFICIENTS)
    def test_linearity(self, op, side, data, seed, a, b):
        apply, orders, _ = _OPERATORS[op]
        n = data.draw(_SIDES[side])
        alpha = data.draw(orders)
        u = _piecewise_linear(seed, n)
        w = _piecewise_linear(seed + 1, n)
        f = apply(fc.GridFunction(0.0, 1.0, u), alpha).values
        g = apply(fc.GridFunction(0.0, 1.0, w), alpha).values
        combined = apply(fc.GridFunction(0.0, 1.0, a * u + b * w), alpha).values
        assert _close(combined, a * f + b * g, abs(a) * _sup(f) + abs(b) * _sup(g))


def _semigroup_error_bound(t: np.ndarray, knots: np.ndarray, kv: np.ndarray, a: float, b: float) -> np.ndarray:
    """Per-node bound on |J^a_h J^b_h f - J^(a+b)_h f| for the piecewise-linear f
    through (t[knots], kv), derived from the closed form of J^b f.

    Product integration is exact on piecewise-linear data with knots on grid
    nodes, so J^b_h f and J^(a+b)_h f are the exact integrals, and the only
    error is J^a of g - I_h g, where g = J^b f and I_h interpolates linearly
    between nodes.  In closed form
        g(t) = kv[0] t^b / Gamma(1+b) + sum_k s_k (t - t[knots[k]])_+^(1+b) / Gamma(2+b),
    with s_k the slope jump at knot k.  Per cell, x^b and x_+^p (p = 1+b)
    deviate from their chords by at most h^b b^(b/(1-b)) (1-b) and p h^p / 4
    on the first cell past their start, and by h^2/8 sup|second derivative|
    on the d-th cell, d >= 1.  J^a has a positive kernel, so the bound at a
    node sums each cell's deviation times the kernel's exact integral over
    that cell.
    """
    n = t.size
    h = t[1] - t[0]
    p = 1.0 + b
    d = np.arange(1, n - 1, dtype=float)
    kink = np.empty(n - 1)
    kink[0] = p * h**p / 4.0
    kink[1:] = np.minimum(kink[0], p * (p - 1.0) * h**p * d ** (p - 2.0) / 8.0)
    start = np.empty(n - 1)
    start[0] = h**b * b ** (b / (1.0 - b)) * (1.0 - b)
    start[1:] = h**b * b * (1.0 - b) * d ** (b - 2.0) / 8.0
    cells = abs(kv[0]) * start / math.gamma(1.0 + b)
    slope_jumps = np.diff(np.diff(kv) / np.diff(t[knots]), prepend=0.0)
    for k, s in zip(knots[:-1], slope_jumps):
        cells[k:] += abs(s) * kink[: n - 1 - k] / math.gamma(2.0 + b)
    m = np.arange(1, n, dtype=float)
    kernel = h**a * (m**a - (m - 1.0) ** a) / math.gamma(1.0 + a)
    return np.concatenate([[0.0], np.convolve(cells, kernel)[: n - 1]])


@pytest.mark.parametrize("side", sorted(_SIDES))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), a=st.floats(0.05, 1.95),
       b=st.floats(0.05, 0.95), length=st.floats(0.25, 4.0))
def test_semigroup_law(side, data, seed, a, b, length):
    n = data.draw(_SIDES[side])
    rng = np.random.default_rng(seed)
    # Knots on grid nodes, so the data is exactly piecewise linear.
    knots = np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, rng.integers(1, 12))]))
    kv = rng.uniform(-1.0, 1.0, knots.size)
    t = np.linspace(0.0, length, n)
    g = fc.GridFunction(0.0, length, np.interp(t, t[knots], kv))
    composed = fc.frac_integral(fc.frac_integral(g, b), a).values
    direct = fc.frac_integral(g, a + b).values
    bound = _semigroup_error_bound(t, knots, kv, a, b)
    assert np.all(np.abs(composed - direct) <= bound + _REL * _sup(direct))
