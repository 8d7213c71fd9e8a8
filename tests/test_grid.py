"""GridFunction and order-coercion contracts."""

import math

import numpy as np
import pytest

from fraccalc import DataError, GridFunction, InvalidParameterError
from fraccalc.grid import as_order


class TestAsOrder:
    def test_returns_a_float(self):
        assert as_order(0.5) == 0.5 and type(as_order(0.5)) is float
        assert as_order(2) == 2.0 and type(as_order(2)) is float
        assert as_order(0.0) == 0.0
        # numpy real scalars keep the bits float() gives them
        assert as_order(np.float32(0.3)) == float(np.float32(0.3)) and type(as_order(np.int64(3))) is float

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            as_order(-0.5)
        with pytest.raises(InvalidParameterError):
            as_order(math.inf)


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

    @pytest.mark.parametrize("writeable", [True, False])
    def test_caller_arrays_are_copied(self, writeable):
        # A caller's array is never adopted, written to or frozen, writeable or not.
        data = np.array([[5.0, 1.0, 2.0], [6.0, 3.0, 4.0]])
        bits = data.tobytes()
        data.flags.writeable = writeable
        g = GridFunction(0.0, 1.0, data)
        assert not np.shares_memory(g.values, data) and g.values.base is None
        assert data.flags.writeable == writeable and not g.values.flags.writeable
        marked = GridFunction(0.0, 1.0, data, singular_start=True)
        assert np.isnan(marked.values[:, 0]).all() and not np.shares_memory(marked.values, data)
        assert data.tobytes() == bits and data.flags.writeable == writeable
        if writeable:
            data[0, 1] = 9.0
            assert g.values[0, 1] == 1.0

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

    @pytest.mark.parametrize("values", [np.array([1 + 2j, 3, 5j]), ["a", "b"]], ids=["complex", "text"])
    def test_non_real_values_are_data_errors(self, values):
        # Not a dropped imaginary part with a ComplexWarning, nor a bare ValueError.
        with pytest.raises(DataError, match="values must be real numbers"):
            GridFunction(0.0, 1.0, values)

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
