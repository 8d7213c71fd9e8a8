"""Invariance laws of the grid fractional integral and the Marchaud derivative
on random piecewise-linear data: values do not depend on where the interval
starts, they scale like c**alpha (integral) and c**-alpha (derivative) when
the interval is stretched by c, and both operators are linear.  Grid sizes
are drawn on both sides of the direct/FFT convolution switch."""

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


@pytest.mark.parametrize("side", sorted(_SIDES))
@pytest.mark.parametrize("op", sorted(_OPERATORS))
class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), length=st.floats(0.25, 4.0),
           shift=st.floats(-50.0, 50.0))
    def test_shift_of_start(self, op, side, data, seed, length, shift):
        apply, orders, _ = _OPERATORS[op]
        n = data.draw(_SIDES[side])
        alpha = data.draw(orders)
        v = _piecewise_linear(seed, n)
        base = apply(fc.GridFunction(0.0, length, v), alpha).values
        moved = apply(fc.GridFunction(shift, shift + length, v), alpha).values
        assert _close(moved, base, _sup(base))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), length=st.floats(0.25, 4.0),
           c=st.floats(0.1, 10.0))
    def test_interval_scaling(self, op, side, data, seed, length, c):
        apply, orders, sign = _OPERATORS[op]
        n = data.draw(_SIDES[side])
        alpha = data.draw(orders)
        v = _piecewise_linear(seed, n)
        base = apply(fc.GridFunction(0.0, length, v), alpha).values
        stretched = apply(fc.GridFunction(0.0, c * length, v), alpha).values
        expected = c ** (sign * alpha) * base
        assert _close(stretched, expected, _sup(expected))

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
