"""Hölder seminorms and exponents, fractional-space norms, and the
continuity-at-start classifier.

Grid derivative estimates are unreliable on the first few nodes (the schemes
see too few cells there), so everything in this module that inspects a
derivative skips the first ``EXCLUDED_START_NODES`` nodes.  The classifier
additionally cross-checks its verdict on a stride-2 subsample: a genuine
(t-t0)^-q blow-up looks the same at every resolution, while discretization
wiggle does not survive the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantInputError, InvalidParameterError, MembershipError, PreconditionError
from .grid import FracOrder, GridFunction, as_order
from .operators import DerivativeMethod, caputo_derivative, rl_derivative

__all__ = [
    "EXCLUDED_START_NODES",
    "HolderEstimate",
    "holder_seminorm",
    "holder_exponent",
    "continuous_at_start",
    "rl_norm",
    "c_norm",
]

# Number of leading nodes on which derivative values are not trusted.
EXCLUDED_START_NODES = 8

# The classifier examines this many consecutive values after the window.
_CLASSIFY_COUNT = 16

# Node pairs the Hölder scan evaluates per vectorized block.
_BLOCK_PAIRS = 1 << 14


@dataclass(frozen=True)
class HolderEstimate:
    """Lower bound for a Hölder seminorm from examined node pairs.

    ``value`` is sup over examined pairs of |f(t)-f(s)| / |t-s|**gamma; it is
    the exact grid seminorm when ``exact`` is True, otherwise a lower bound.
    ``argmax_pair`` holds the node indices attaining it.
    """

    gamma: float
    value: float
    argmax_pair: tuple[int, int]
    pairs_examined: int
    exact: bool


def _budget_blocks(n: int, pair_budget: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # Every pair touching the first or last ``edge`` nodes, plus every pair of
    # a strided subsample, as (anchors, partners) sets that name each pair once.
    edge = min(32, n // 2)
    # Subsample stride chosen so the internal pair count fits the budget left
    # after the edge rows; endpoints are always part of the subsample.
    remaining = max(pair_budget - 2 * edge * (n - 1), 0)
    m = max(int((2.0 * remaining) ** 0.5), 2)
    stride = max(n // m, 1)
    sub = np.unique(np.concatenate([np.arange(0, n, stride), [n - 1]]))
    inner = sub[(sub >= edge) & (sub < n - edge)]
    return [
        (np.arange(edge), np.arange(n)),
        (np.arange(edge, n - 1), np.arange(n - edge, n)),
        (inner, inner),
    ]


def holder_seminorm(
    g: GridFunction,
    gamma: float,
    pair_budget: int = 2_000_000,
) -> HolderEstimate:
    """Grid Hölder seminorm of exponent ``gamma`` in (0, 1].

    When the grid has more pairs than ``pair_budget``, the scan drops to a
    strided subsample plus every pair touching the first or last 32 nodes
    (endpoint pairs dominate seminorms of power-type data, so they are always
    kept); the result is then a certified lower bound rather than the exact
    grid value.  Either way each examined pair i < j is visited once; on the
    exact path ``argmax_pair`` is the first maximizing pair in (i, j) order.
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"need 0 < gamma <= 1, got {gamma}")
    if pair_budget < 1:
        raise InvalidParameterError(f"need a positive pair budget, got {pair_budget}")
    if g.singular_start:
        raise PreconditionError("seminorm needs finite data; index 0 is marked singular")
    v = g.values
    t = g.times()
    n = v.size
    exact = n * (n - 1) // 2 <= pair_budget
    blocks = [(np.arange(n - 1), np.arange(n))] if exact else _budget_blocks(n, pair_budget)

    best = -1.0
    best_pair = (0, 1)
    examined = 0
    for anchors, partners in blocks:
        # Blocks of anchor rows against the partners past the block's first
        # anchor; pairs with j <= i inside a block are masked out.
        step = max(_BLOCK_PAIRS // max(partners.size, 1), 1)
        for lo in range(0, anchors.size, step):
            i = anchors[lo : lo + step, None]
            j = partners[partners > i[0, 0]]
            if j.size == 0:
                continue
            keep = j > i
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(keep, np.abs(v[j] - v[i]) / (t[j] - t[i]) ** gamma, -1.0)
            examined += int(np.count_nonzero(keep))
            row, col = divmod(int(np.argmax(r)), j.size)
            if r[row, col] > best:
                best = float(r[row, col])
                best_pair = (int(i[row, 0]), int(j[col]))
    return HolderEstimate(gamma, best, best_pair, examined, exact)


def holder_exponent(g: GridFunction) -> float:
    """Least-squares estimate of the Hölder exponent, clamped to (0, 1].

    Fits the log-log slope of the modulus of continuity over dyadic lags
    h, 2h, 4h, ... up to a quarter of the interval.  Constant data has no
    exponent and raises :class:`ConstantInputError`.
    """
    if g.singular_start:
        raise PreconditionError("exponent fit needs finite data; index 0 is marked singular")
    v = g.values
    n = v.size
    if n < 9:
        raise PreconditionError(f"need at least 9 nodes for the exponent fit, got {n}")
    max_lag = (n - 1) // 4
    lags = []
    lag = 1
    while lag <= max_lag:
        lags.append(lag)
        lag *= 2
    scales = []
    moduli = []
    for lag in lags:
        w = float(np.max(np.abs(v[lag:] - v[:-lag])))
        if w > 0.0:
            scales.append(lag * g.h)
            moduli.append(w)
    if len(moduli) < 2:
        raise ConstantInputError("data shows no variation; Hölder exponent is undefined")
    slope = float(np.polyfit(np.log(scales), np.log(moduli), 1)[0])
    return float(min(max(slope, 1e-6), 1.0))


def continuous_at_start(
    g: GridFunction,
    abs_tol: float = 1e-7,
    rel_tol: float = 0.15,
) -> bool:
    """Decide whether the data tends to a finite limit as t -> t0.

    Looks at the spread (max minus min) of the first ``_CLASSIFY_COUNT``
    values past the excluded window, on the grid itself and on its stride-2
    subsample, against a threshold of ``max(abs_tol, rel_tol * scale)`` where
    ``scale`` is the sup of the trusted values.  Data like (t-t0)^-q keeps a
    scale-proportional spread at every resolution and fails both looks.
    """
    if g.singular_start:
        return False
    v = g.values
    n = v.size
    if n < 10:
        raise PreconditionError(f"need at least 10 nodes to classify, got {n}")

    def spread(vals: np.ndarray) -> float:
        start = EXCLUDED_START_NODES
        if vals.size < start + _CLASSIFY_COUNT:
            start = max(1, vals.size - _CLASSIFY_COUNT)
        w = vals[start : start + _CLASSIFY_COUNT]
        return float(np.max(w) - np.min(w))

    scale = float(np.max(np.abs(v[min(EXCLUDED_START_NODES, n - 2) :])))
    if scale == 0.0:
        return True
    threshold = max(abs_tol, rel_tol * scale)
    if spread(v) > threshold:
        return False
    if (n - 1) % 2 == 0 and (n - 1) // 2 + 1 >= 10:
        if spread(v[::2]) > threshold:
            return False
    return True


def _norm_order(order: FracOrder | float) -> FracOrder:
    o = as_order(order)
    if not 0.0 < o.alpha < 1.0:
        raise InvalidParameterError(f"space norms are defined here for 0 < order < 1, got {o.alpha}")
    return o


def rl_norm(g: GridFunction, order: FracOrder | float) -> float:
    """sup|f| + sup|Df| when the Riemann-Liouville derivative is continuous.

    Raises :class:`MembershipError` when the derivative estimate blows up at
    the start or fails the continuity classifier — the function is then not a
    member of the order-``order`` space, and it has no finite norm.
    """
    o = _norm_order(order)
    if g.singular_start:
        raise MembershipError("data marked singular at the start has no finite norm")
    d = rl_derivative(g, o, DerivativeMethod.MARCHAUD)
    if d.singular_start:
        raise MembershipError(
            f"derivative of order {o.alpha} diverges at the start; not a member"
        )
    if not continuous_at_start(d):
        raise MembershipError(
            f"derivative of order {o.alpha} fails the continuity-at-start test; not a member"
        )
    return float(np.max(np.abs(g.values)) + np.max(np.abs(d.values[EXCLUDED_START_NODES:])))


def c_norm(g: GridFunction, order: FracOrder | float, taylor) -> float:
    """sup|f| + sup|cDf| when the Caputo derivative is continuous.

    Same membership rules as :func:`rl_norm`, with the Caputo derivative built
    from the supplied Taylor data.
    """
    o = _norm_order(order)
    if g.singular_start:
        raise MembershipError("data marked singular at the start has no finite norm")
    d = caputo_derivative(g, o, taylor, DerivativeMethod.MARCHAUD)
    if d.singular_start:
        raise MembershipError(
            f"Caputo derivative of order {o.alpha} diverges at the start; not a member"
        )
    if not continuous_at_start(d):
        raise MembershipError(
            f"Caputo derivative of order {o.alpha} fails the continuity-at-start test; not a member"
        )
    return float(np.max(np.abs(g.values)) + np.max(np.abs(d.values[EXCLUDED_START_NODES:])))
