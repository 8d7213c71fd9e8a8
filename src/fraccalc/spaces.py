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
from .operators import caputo_derivative, rl_derivative

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

# The classifier's spread threshold: max(_ABS_TOL, _REL_TOL * the sup of the trusted values).
_ABS_TOL = 1e-7
_REL_TOL = 0.15

# Node pairs the Hölder scan evaluates per vectorized chunk, when its blocks are small enough.
_BLOCK_PAIRS = 1 << 14

# Largest number of blocks the Hölder scan splits the nodes into; its block-pair tables grow with
# the square of this.
_SCAN_BLOCKS = 512

# Relative margin on block bounds; _block_scan says what it covers in the slope bound.  The rise
# bound needs it only for ``pow``: subtraction and division round monotonically.
_BOUND_MARGIN = 1.0 + 64 * np.finfo(float).eps


@dataclass(frozen=True)
class HolderEstimate:
    """A grid Hölder seminorm, or a certified bracket around it.

    ``value`` is the largest |f(t)-f(s)| / |t-s|**gamma over the evaluated
    node pairs, attained at the node indices ``argmax_pair``.  ``upper`` is
    the largest block bound left unevaluated, or ``value`` itself when the
    scan finished, so the grid seminorm lies in [value, upper].  ``exact`` is
    ``upper <= value``: ``value`` is then the grid seminorm, and
    ``pairs_examined`` is n(n-1)/2, the pairs it is exact over.  Otherwise
    ``pairs_examined`` counts the evaluated pairs.
    """

    gamma: float
    value: float
    argmax_pair: tuple[int, int]
    pairs_examined: int
    exact: bool
    upper: float


# An overflow to inf is still a valid bound or quotient; masked pairs j <= i give 0/0 or NaN.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _block_scan(
    v: np.ndarray, t: np.ndarray, gamma: float, pair_budget: int
) -> tuple[float, tuple[int, int], int, float]:
    # The scan of holder_seminorm (its docstring describes the pruning): the largest quotient over
    # the evaluated pairs i < j, the first pair attaining it, the pairs examined and ``upper``.
    n = v.size
    size = 32
    while -(-n // size) > _SCAN_BLOCKS:
        size *= 2
    starts = np.arange(0, n, size)
    last = np.minimum(starts + size, n) - 1
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
    inner = np.maximum.reduceat(np.where(np.arange(n) % size == size - 1, 0.0, steps), starts)
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
    offsets = np.arange(size)
    per_chunk = max(_BLOCK_PAIRS // size**2, 1)

    best = -1.0
    best_key = 1  # the pair (0, 1)
    evaluated = 0
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
        elif evaluated >= pair_budget:
            return best, divmod(best_key, n), evaluated, float(top)
        take, order = order[:per_chunk], order[per_chunk:]
        sp, sq = starts[p[take]], starts[q[take]]
        i = sp[:, None, None] + offsets[:, None]
        j = sq[:, None, None] + offsets
        keep = (j > i) & (j < n)
        evaluated += int(np.count_nonzero(keep))
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
    return best, divmod(best_key, n), n * (n - 1) // 2, best


def holder_seminorm(
    g: GridFunction,
    gamma: float,
    pair_budget: int = 2_000_000,
) -> HolderEstimate:
    """Grid Hölder seminorm of exponent ``gamma`` in (0, 1].

    The seminorm is the largest |f(t_j)-f(t_i)| / (t_j-t_i)**gamma over all
    n(n-1)/2 node pairs i < j.  The scan bounds every pair and evaluates only
    the pairs that can still win.  It splits the nodes into blocks of 32, or
    of the smallest larger power of two that leaves at most 512 blocks (64
    nodes from n = 16385 on), and bounds each block pair P <= Q by the
    smaller of the largest value difference between the blocks over the
    smallest time gap between them (the smallest grid step when P = Q), and
    the largest step |f(t_k+1)-f(t_k)| from the first node of P to the last
    of Q times L**(1-gamma) / h_min**gamma, for the L steps spanned and the
    smallest grid step h_min, with a margin of 64 ulps.  It then evaluates
    block pairs in order of descending bound, in chunks of 16,384 pairs (one
    block pair once blocks hold 128 nodes or more), each quotient computed
    exactly as a full scan would.  It stops when no bound left reaches the
    best quotient found; a block pair whose bound only ties it is skipped
    when all its pairs come after the best pair.

    A finished scan is exact: ``value`` is the grid seminorm, ``upper``
    equals it, ``argmax_pair`` is the first pair in (i, j) order attaining
    it, and ``pairs_examined`` reports all n(n-1)/2 pairs, although only a
    fraction of them are evaluated (about 5% for the suite's embedding check
    at n = 1025).  Data of constant slope at gamma = 1 prunes nothing: every
    block bound exceeds the slope, so every pair is evaluated.

    The scan also stops before the next chunk once ``pair_budget`` pairs have
    been evaluated while a bound above the best quotient is left.  It then
    returns ``exact`` False, ``value`` a certified lower bound, ``upper`` the
    largest bound left, a certified upper bound, and ``pairs_examined`` the
    evaluated pairs, which exceed the budget by less than one chunk.

    Values more than the float range apart give ``value`` = inf, without a
    warning.
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"need 0 < gamma <= 1, got {gamma}")
    if pair_budget < 1:
        raise InvalidParameterError(f"need a positive pair budget, got {pair_budget}")
    if g.singular_start:
        raise PreconditionError("seminorm needs finite data; index 0 is marked singular")
    value, pair, examined, upper = _block_scan(g.values, g.times(), gamma, pair_budget)
    return HolderEstimate(gamma, value, pair, examined, upper <= value, upper)


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


def continuous_at_start(g: GridFunction) -> bool:
    """Decide whether the data tends to a finite limit as t -> t0.

    Looks at the spread (max minus min) of the first 16 values past the
    excluded window, on the grid itself and on its stride-2 subsample, against
    the fixed threshold ``max(1e-7, 0.15 * scale)`` where ``scale`` is the sup
    of the trusted values.  Grids of 10 to 23 nodes are too short for that;
    there the last 16 values are looked at, or all from index 1 on.  Data like
    (t-t0)^-q keeps a scale-proportional spread at every resolution and fails
    both looks.
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
    threshold = max(_ABS_TOL, _REL_TOL * scale)
    if spread(v) > threshold:
        return False
    if (n - 1) % 2 == 0 and (n - 1) // 2 + 1 >= 10:
        if spread(v[::2]) > threshold:
            return False
    return True


def _space_norm(g: GridFunction, order: FracOrder | float, name: str, derivative) -> float:
    # The checks and sup formula of rl_norm and c_norm; ``derivative(o)`` is called only once the
    # order and the data have passed theirs.
    o = as_order(order)
    if not 0.0 < o.alpha < 1.0:
        raise InvalidParameterError(f"space norms are defined here for 0 < order < 1, got {o.alpha}")
    if g.singular_start:
        raise MembershipError("data marked singular at the start has no finite norm")
    d = derivative(o)
    if d.singular_start:
        raise MembershipError(f"{name} of order {o.alpha} diverges at the start; not a member")
    if not continuous_at_start(d):
        raise MembershipError(
            f"{name} of order {o.alpha} fails the continuity-at-start test; not a member"
        )
    return float(np.max(np.abs(g.values)) + np.max(np.abs(d.values[EXCLUDED_START_NODES:])))


def rl_norm(g: GridFunction, order: FracOrder | float) -> float:
    """sup|f| + sup|Df| when the Riemann-Liouville derivative is continuous.

    Raises :class:`MembershipError` when the derivative estimate blows up at
    the start or fails the continuity classifier — the function is then not a
    member of the order-``order`` space, and it has no finite norm.
    """
    return _space_norm(g, order, "derivative", lambda o: rl_derivative(g, o))


def c_norm(g: GridFunction, order: FracOrder | float, taylor) -> float:
    """sup|f| + sup|cDf| when the Caputo derivative is continuous.

    Same membership rules as :func:`rl_norm`, with the Caputo derivative built
    from the supplied Taylor data.
    """
    return _space_norm(g, order, "Caputo derivative", lambda o: caputo_derivative(g, o, taylor))
