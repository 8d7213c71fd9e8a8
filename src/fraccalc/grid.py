"""Uniform-grid function values and the admission of fractional orders.

A :class:`GridFunction` is the package's working representation of a function
on ``[t0, t1]``: values at ``n`` equally spaced nodes.  Index 0 is special —
several operators produce outputs that blow up at the left endpoint, and such
results carry ``singular_start=True`` with the index-0 value stored as NaN
(serialized as the token ``sing`` in CSV).

Values of shape (d, n) hold d components, a function with values in X = R^d
under the sup norm; time is always the last axis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidParameterError


def as_order(order: float) -> float:
    """The one admission of a fractional order: a real number, finite and >= 0, as a float."""
    if not isinstance(order, numbers.Real):
        raise InvalidParameterError(f"order must be a real number, got {order!r}")
    a = float(order)
    if not (math.isfinite(a) and a >= 0.0):
        raise InvalidParameterError(f"order must be finite and >= 0, got {a}")
    return a


def _real_array(values, error: type[Exception], what: str) -> np.ndarray:
    # A new float64 array of ``values``, admitted as an order is: numpy booleans, integers and floats, or
    # objects that are numbers.Real.  Ragged nesting, complex numbers, text, bytes, other objects and
    # integers past the float range raise ``error``, not numpy's bare errors, warnings or parsed text.
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "biuf" or arr.dtype == object and all(isinstance(x, numbers.Real) for x in arr.flat):
            return arr.astype(float)
    except (ValueError, OverflowError):
        raise error(f"{what} must be real numbers in the float range, nested as a rectangular array") from None
    raise error(f"{what} must be real numbers, got {arr.dtype} data")


@dataclass(frozen=True)
class GridFunction:
    """Values of a function at ``n`` uniform nodes on ``[t0, t1]``.

    ``values`` has shape (n,), or (d, n) for d >= 1 components.  The step
    (t1-t0)/(n-1) must be finite and above the float spacing at t0 and t1.
    ``values`` must be real numbers and ``values[..., 1:]`` finite.  If
    ``singular_start`` is set, ``values[..., 0]`` is normalized to NaN and
    means "unbounded as t -> t0"; otherwise ``values[..., 0]`` must be finite
    as well.

    ``values`` is always a read-only array of the instance's own.  A caller's
    array is copied, writeable or not, and never written to or frozen; only an
    operator's fresh result, handed over as ``_Owned``, is adopted uncopied.
    """

    t0: float
    t1: float
    values: np.ndarray
    singular_start: bool = False

    def __post_init__(self) -> None:
        t0 = float(self.t0)
        t1 = float(self.t1)
        vals = self.values.array if isinstance(self.values, _Owned) else _real_array(self.values, DataError, "values")
        if vals.ndim not in (1, 2) or vals.shape[-1] < 2 or vals.size < 2:
            raise DataError(f"values must have shape (n,) or (d, n) with n >= 2 and d >= 1, got shape {vals.shape}")
        n = vals.shape[-1]
        h = (t1 - t0) / (n - 1)
        if not (math.isfinite(h) and h > math.ulp(max(abs(t0), abs(t1)))):
            raise DataError(f"need finite t1 > t0 and a step above float spacing, got {n} nodes on [{self.t0}, {self.t1}]")
        if not np.all(np.isfinite(vals[..., 1:])):
            raise DataError("values must be finite at every node past index 0")
        if self.singular_start:
            vals[..., 0] = np.nan
        elif not np.all(np.isfinite(vals[..., 0])):
            raise DataError("values[0] is not finite; pass singular_start=True to mark it")
        vals.flags.writeable = False
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "singular_start", bool(self.singular_start))

    @property
    def n(self) -> int:
        return int(self.values.shape[-1])

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.n - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        """Same grid, new data of the same shape, finite at every node."""
        g = GridFunction(self.t0, self.t1, values)
        if g.values.shape != self.values.shape:
            raise DataError("with_values requires data of identical shape")
        return g


class _Owned:
    # An operator's fresh float64 result, referenced nowhere else: GridFunction adopts it without the copy.
    def __init__(self, array: np.ndarray) -> None:
        self.array = array
