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

# Nodes per block of the exact Hölder scan's block bounds.
_SCAN_BLOCK = 32

# Relative margin on block bounds; _exact_scan says what it covers in the slope bound.  The rise
# bound needs it only for ``pow``: subtraction and division round monotonically.
_BOUND_MARGIN = 1.0 + 64 * np.finfo(float).eps


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


# An overflow to inf is still a valid bound or quotient; masked pairs j <= i give 0/0 or NaN.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _exact_scan(v: np.ndarray, t: np.ndarray, gamma: float) -> tuple[float, tuple[int, int]]:
    # The exact path of holder_seminorm (its docstring describes the pruning):
    # the largest quotient over all pairs i < j and the first pair attaining it.
    n = v.size
    starts = np.arange(0, n, _SCAN_BLOCK)
    last = np.minimum(starts + _SCAN_BLOCK, n) - 1
    vmin = np.minimum.reduceat(v, starts)
    vmax = np.maximum.reduceat(v, starts)
    p, q = np.triu_indices(starts.size)
    live = (p < q) | (last[p] > starts[p])  # a one-node block holds no pair
    p, q = p[live], q[live]
    rise = np.maximum(vmax[q] - vmin[p], vmax[p] - vmin[q])
    h_min = np.min(np.diff(t))
    gap = np.where(p < q, t[starts[q]] - t[last[p]], h_min)
    # |v[k+1] - v[k]|, 0 past the last node; inner[b] leaves out the step from block b to b + 1.
    steps = np.abs(np.diff(v, append=v[-1]))
    inner = np.maximum.reduceat(np.where(np.arange(n) % _SCAN_BLOCK == _SCAN_BLOCK - 1, 0.0, steps), starts)
    # reach[p, q]: the largest step from the first node of block p to the first of block q.
    owned = np.concatenate(([0.0], np.maximum(inner, steps[last])[:-1]))
    reach = np.maximum.accumulate(np.triu(np.broadcast_to(owned, (starts.size,) * 2), 1), axis=1)
    # Slope bound: pairs of P x Q are j - i <= L = last(Q) - first(P) nodes apart, no step between
    # them exceeds D and no grid step is below h_min, so a quotient is at most D (j - i) / ((j - i)
    # h_min)**gamma <= D L**(1 - gamma) / h_min**gamma.  Rounding the steps, differences, quotients,
    # 1 - gamma and pow moves the sides under 20 ulps apart; the margin, applied before the product
    # with D so that a subnormal product keeps it, covers that.
    D = np.maximum(reach[p, q], inner[q])
    L = (last[q] - starts[p]).astype(float)
    slope = D * (L ** (1.0 - gamma) / h_min**gamma * _BOUND_MARGIN)
    bound = np.where(rise > 0.0, np.minimum(rise / gap**gamma * _BOUND_MARGIN, slope), 0.0)
    # Each block pair's first node pair, keyed i * n + j so keys sort in (i, j) order.
    first = starts[p] * n + np.where(p < q, starts[q], starts[p] + 1)
    order = np.argsort(-bound, kind="stable")
    offsets = np.arange(_SCAN_BLOCK)
    per_chunk = _BLOCK_PAIRS // _SCAN_BLOCK**2

    best = -1.0
    best_key = 1  # the pair (0, 1)
    while order.size:
        top = bound[order[0]]
        if top < best:
            break
        if top == best:
            # Nothing left can exceed the best quotient; a block pair can
            # only tie it, and matters only if it starts before the best pair.
            order = order[(bound[order] == best) & (first[order] < best_key)]
            if not order.size:
                break
        take, order = order[:per_chunk], order[per_chunk:]
        sp, sq = starts[p[take]], starts[q[take]]
        i = sp[:, None, None] + offsets[:, None]
        j = sq[:, None, None] + offsets
        keep = (j > i) & (j < n)
        i, j = np.minimum(i, n - 1), np.minimum(j, n - 1)
        r = np.where(keep, np.abs(v[j] - v[i]) / (t[j] - t[i]) ** gamma, -1.0)
        top_r = float(np.max(r))
        # The chunk matters only if it beats the best quotient or ties it at an earlier pair.
        if top_r < max(best, 0.0) or (top_r == best and first[take].min() > best_key):
            continue
        k, a, c = np.unravel_index(np.flatnonzero(r == top_r), r.shape)
        key = int(np.min((sp[k] + a) * n + sq[k] + c))
        if top_r > best or key < best_key:
            best, best_key = top_r, key
    return best, divmod(best_key, n)


def holder_seminorm(
    g: GridFunction,
    gamma: float,
    pair_budget: int = 2_000_000,
) -> HolderEstimate:
    """Grid Hölder seminorm of exponent ``gamma`` in (0, 1].

    When the grid has at most ``pair_budget`` node pairs, the result is exact:
    the largest |f(t_j)-f(t_i)| / (t_j-t_i)**gamma over all n(n-1)/2 pairs
    i < j, and ``argmax_pair`` is the first pair in (i, j) order attaining it.
    The scan bounds every pair and evaluates only the pairs that can still
    win.  It splits the nodes into blocks of 32 and bounds each block pair
    P <= Q by the smaller of the largest value difference between the blocks
    over the smallest time gap between them (the smallest grid step when
    P = Q), and the largest step |f(t_k+1)-f(t_k)| from the first node of P
    to the last of Q times L**(1-gamma) / h_min**gamma, for the L steps
    spanned and the smallest grid step h_min, with a margin of 64 ulps.  It
    then evaluates block pairs in order of descending bound, each quotient
    computed exactly as a full scan would, and stops when no bound left
    reaches the best quotient found; a block pair whose bound only ties it is
    skipped when all its pairs come after the best pair.  Every skipped pair
    is certified not to change the result, so ``pairs_examined`` reports all
    n(n-1)/2 pairs, the pairs the value is exact over, although only a
    fraction of them are evaluated (about 5% for the suite's embedding check
    at n = 1025).  Data of constant slope at gamma = 1 prunes nothing: every
    block bound exceeds the slope, so every pair is evaluated.

    When the grid has more pairs than ``pair_budget``, the scan drops to a
    strided subsample plus every pair touching the first or last 32 nodes
    (endpoint pairs dominate seminorms of power-type data, so they are always
    kept), evaluates each of those pairs once, and returns a certified lower
    bound rather than the exact grid value.  The budget bounds only the
    strided subsample: the edge rows always cost about 2·32·(n−1) pairs, and
    what the budget has left after them sizes the subsample (stride n//2 once
    nothing is left).  So ``pairs_examined`` can exceed ``pair_budget``:
    63,520 pairs at n = 1025 with a budget of 10,000.

    On both paths, values more than the float range apart give ``value`` =
    inf, without a warning.
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
    if n * (n - 1) // 2 <= pair_budget:
        best, best_pair = _exact_scan(v, t, gamma)
        return HolderEstimate(gamma, best, best_pair, n * (n - 1) // 2, True)

    best = -1.0
    best_pair = (0, 1)
    examined = 0
    for anchors, partners in _budget_blocks(n, pair_budget):
        # Blocks of anchor rows against the partners past the block's first
        # anchor; pairs with j <= i inside a block are masked out.
        step = max(_BLOCK_PAIRS // max(partners.size, 1), 1)
        for lo in range(0, anchors.size, step):
            i = anchors[lo : lo + step, None]
            j = partners[partners > i[0, 0]]
            if j.size == 0:
                continue
            keep = j > i
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                r = np.where(keep, np.abs(v[j] - v[i]) / (t[j] - t[i]) ** gamma, -1.0)
            examined += int(np.count_nonzero(keep))
            row, col = divmod(int(np.argmax(r)), j.size)
            if r[row, col] > best:
                best = float(r[row, col])
                best_pair = (int(i[row, 0]), int(j[col]))
    return HolderEstimate(gamma, best, best_pair, examined, False)


def holder_exponent(g: GridFunction) -> float:
    """Least-squares estimate of the Hölder exponent, clamped to (0, 1].

    Fits the log-log slope of the modulus of continuity over dyadic lags
    h, 2h, 4h, ... up to a quarter of the interval.  Constant data has no
    exponent and raises :class:`ConstantInputError`; a modulus that overflows
    the float range raises :class:`PreconditionError`.
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
        with np.errstate(over="ignore"):
            w = float(np.max(np.abs(v[lag:] - v[:-lag])))
        if not np.isfinite(w):
            raise PreconditionError(f"values {lag} nodes apart differ by more than the float range")
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
