"""GridFunction and order-coercion contracts."""

import math

import numpy as np
import pytest

from fraccalc import DataError, FracOrder, GridFunction, InvalidParameterError
from fraccalc.grid import as_order


class TestFracOrder:
    def test_basic(self):
        a = FracOrder(0.5)
        assert a.alpha == 0.5
        assert a.ceil_alpha == 1
        assert FracOrder(0.0).ceil_alpha == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            FracOrder(-0.5)
        with pytest.raises(InvalidParameterError):
            FracOrder(math.inf)

    def test_coercion(self):
        assert as_order(0.7).alpha == 0.7
        o = FracOrder(0.7)
        assert as_order(o) is o


class TestGridFunction:
    def test_properties(self):
        g = GridFunction(0.0, 2.0, np.zeros(5))
        assert g.n == 5
        assert g.h == 0.5
        assert g.times() == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_values_are_read_only(self):
        g = GridFunction(0.0, 1.0, np.zeros(5))
        with pytest.raises(ValueError):
            g.values[0] = 1.0

    def test_marker_normalizes_first_value(self):
        g = GridFunction(0.0, 1.0, np.array([123.0, 1.0, 1.0]), singular_start=True)
        assert math.isnan(g.values[0])
        assert g.singular_start

    def test_validation(self):
        # Malformed grids are data errors (CSV loading reuses these checks).
        with pytest.raises(DataError):
            GridFunction(1.0, 1.0, np.zeros(5))          # empty interval
        with pytest.raises(DataError):
            GridFunction(0.0, 1.0, np.zeros(1))          # single node
        with pytest.raises(DataError):
            GridFunction(0.0, 1.0, np.zeros((2, 2, 2)))  # neither (n,) nor (d, n)
        with pytest.raises(DataError):
            GridFunction(0.0, 1.0, np.array([0.0, math.inf]))
        # NaN at index 0 is only legal under the marker.
        with pytest.raises(DataError):
            GridFunction(0.0, 1.0, np.array([math.nan, 1.0]))
        GridFunction(0.0, 1.0, np.array([math.nan, 1.0]), singular_start=True)

    def test_step_must_exceed_float_spacing(self):
        # 1e-9 / 1024 is below the spacing of floats near 1e6 (1.2e-10), so
        # the nodes would repeat; an overflowing step is refused too.
        with pytest.raises(DataError):
            GridFunction(1e6, 1e6 + 1e-9, np.zeros(1025))
        with pytest.raises(DataError):
            GridFunction(-1e308, 1e308, np.zeros(3))
        g = GridFunction(1e6, 1e6 + 1e-3, np.zeros(1025))
        assert np.all(np.diff(g.times()) > 0.0)

    def test_with_values(self):
        g = GridFunction(0.0, 1.0, np.zeros(5))
        g2 = g.with_values(np.ones(5))
        assert g2.t0 == g.t0 and g2.t1 == g.t1
        assert np.all(g2.values == 1.0)
        with pytest.raises(DataError):
            g.with_values(np.ones(4))
