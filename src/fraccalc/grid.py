"""Uniform-grid function values and the admission of every number a caller passes.

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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidParameterError


def _real(value, error: type[Exception], what: str, lower: float = -math.inf, finite: bool = True) -> float:
    # The one admission of a caller's real number, as a float: a numpy boolean, integer or float, or an
    # object that is numbers.Real.  Text, bytes, None, complex numbers, sequences, arrays and integers
    # past the float range raise ``error`` naming ``what``, as does a value that is not finite and
    # >= ``lower``; with ``finite`` False any real number passes, nan and infinities too.
    try:  # the first isinstance is the quicker one
        x = float(value) if isinstance(value, (float, int)) or isinstance(value, (numbers.Real, np.bool_)) else None
    except OverflowError:
        x = None
    if x is None:
        raise error(f"{what} must be a real number in the float range, got {value!r}")
    if finite and not (math.isfinite(x) and x >= lower):
        raise error(f"{what} must be finite{'' if lower == -math.inf else f' and >= {lower:g}'}, got {x}")
    return x


def _count(value, lower: int, what: str) -> int:
    # The one admission of a caller's count: an integer (operator.index) >= ``lower``; ``what`` reads "<who> needs n".
    try:
        k = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{what} to be an integer, got {value!r}") from None
    if k < lower:
        raise InvalidParameterError(f"{what} >= {lower}, got {k}")
    return k


def as_order(order: float) -> float:
    """The one admission of a fractional order: a real number, finite and >= 0, as a float."""
    return _real(order, InvalidParameterError, "order", 0.0)


def _real_array(values, error: type[Exception], what: str) -> np.ndarray:
    # A new float64 array of ``values``, each entry admitted as _real admits a number.  Ragged nesting,
    # complex numbers, text, bytes, other objects and integers past the float range raise ``error``, not
    # numpy's bare errors, warnings or parsed text.
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

    ``t0`` and ``t1`` must be finite real numbers.
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
        t0, t1 = _real(self.t0, DataError, "t0"), _real(self.t1, DataError, "t1")
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
