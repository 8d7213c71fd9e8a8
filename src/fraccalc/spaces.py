"""Hölder seminorms and exponents, fractional-space norms, and the
continuity-at-start classifier.

Grid derivative estimates are unreliable on the first few nodes (the schemes
see too few cells there), so everything in this module that inspects a
derivative skips the first ``EXCLUDED_START_NODES`` nodes.  The classifier
additionally cross-checks its verdict on a stride-2 subsample: a genuine
(t-t0)^-q blow-up looks the same at every resolution, while discretization
wiggle does not survive the comparison.

Data of d components is a function with values in X = R^d under the sup
norm: the seminorm, the modulus of continuity and the norms take the largest
component, and data is continuous at the start when every component is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstantInputError, InvalidParameterError, MembershipError, PreconditionError
from .grid import GridFunction, _real, as_order
from .operators import caputo_derivative, rl_derivative

# Number of leading nodes on which derivative values are not trusted.
EXCLUDED_START_NODES = 8

# The classifier examines this many consecutive values after the window.
_CLASSIFY_COUNT = 16

# The classifier's spread threshold: max(_ABS_TOL, _REL_TOL * the sup of the trusted values).
_ABS_TOL = 1e-7
_REL_TOL = 0.15

# Node pairs the Hölder scan evaluates per vectorized chunk, when its blocks are small enough.
_BLOCK_PAIRS = 1 << 14

# Largest number of blocks the Hölder scan splits the nodes into; the square of this bounds the
# block pairs of the tables it builds at once, over a group of components.
_SCAN_BLOCKS = 512

# Evaluated node pairs after which the Hölder scan stops while a bound above its best quotient is
# left; holder_seminorm's docstring says what it returns then.
_PAIR_BUDGET = 2_000_000

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
    ``pairs_examined`` is d n(n-1)/2 for d components, the pairs it is exact
    over.  Otherwise ``pairs_examined`` counts the evaluated pairs.
    """

    gamma: float
    value: float
    argmax_pair: tuple[int, int]
    pairs_examined: int
    exact: bool
    upper: float


# An overflow to inf is still a valid bound or quotient; masked pairs j <= i give 0/0 or NaN.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _block_scan(v: np.ndarray, t: np.ndarray, gamma: float) -> tuple[float, tuple[int, int], int, float]:
    # The scan of holder_seminorm (its docstring describes the pruning) over the rows of v, shape
    # (d, n): the largest quotient over the evaluated pairs i < j of any row, the first pair (i, j)
    # attaining it in any row, the pairs examined and ``upper``.  The rows are padded with their
    # last value to (d, blocks, size) tiles; a candidate is a (row, block pair).
    d, n = v.shape
    size = 32
    while -(-n // size) > _SCAN_BLOCKS:
        size *= 2
    blocks = -(-n // size)
    tiles = np.pad(v, ((0, 0), (0, blocks * size - n)), mode="edge").reshape(d, blocks, size)
    times = np.pad(t, (0, blocks * size - n), mode="edge").reshape(blocks, size)
    starts = np.arange(0, n, size)
    width = np.minimum(starts + size, n) - starts
    p, q = np.triu_indices(blocks)
    live = (p < q) | (width[p] > 1)  # a one-node block holds no pair
    p, q = p[live], q[live]
    h_min = np.min(np.diff(t))
    gap = np.where(p < q, t[starts[q]] - t[starts[p] + width[p] - 1], h_min)
    L = (starts[q] + width[q] - 1 - starts[p]).astype(float)
    # Each block pair's node pairs, and its first keyed i * n + j: keys sort in (i, j) order in any row.
    pairs = np.where(p < q, width[p] * width[q], width[p] * (width[p] - 1) // 2)
    first = starts[p] * n + np.where(p < q, starts[q], starts[p] + 1)

    def bounds(tile: np.ndarray) -> np.ndarray:  # of every candidate of the rows of tile, row by row
        vmin, vmax = tile.min(axis=2), tile.max(axis=2)
        rise = np.maximum(vmax[:, q] - vmin[:, p], vmax[:, p] - vmin[:, q])
        # |v[k+1] - v[k]| inside each block, and owned[b] the largest step from block 0 to block b.
        inner = np.max(np.abs(np.diff(tile, axis=2)), axis=2)
        cross = np.abs(tile[:, 1:, 0] - tile[:, :-1, -1])  # the step from each block to the next
        owned = np.concatenate((np.zeros((len(tile), 1)), np.maximum(inner[:, :-1], cross)), axis=1)
        # reach[p, q]: the largest step from the first node of block p to the first of block q.
        reach = np.maximum.accumulate(np.triu(np.broadcast_to(owned[:, None], (len(tile), blocks, blocks)), 1), axis=2)
        # Slope bound: pairs of P x Q are j - i <= L = last(Q) - first(P) nodes apart, no step
        # between them exceeds D and no grid step is below h_min, so a quotient is at most
        # D (j - i) / ((j - i) h_min)**gamma <= D L**(1 - gamma) / h_min**gamma.  Rounding the
        # steps, differences, quotients, 1 - gamma and pow moves the sides under 20 ulps apart; the
        # margin, applied before the product with D so that a subnormal product keeps it, covers that.
        slope = np.maximum(reach[:, p, q], inner[:, q]) * (L ** (1.0 - gamma) / h_min**gamma * _BOUND_MARGIN)
        return np.where(rise > 0.0, np.minimum(rise / gap**gamma * _BOUND_MARGIN, slope), 0.0).ravel()
    # A floor under the result: the quotient of some row's extreme values.  Its block pair's bound
    # covers it, so no candidate below it is ever evaluated, and the sort can leave those out.  An
    # overflowing floor gives no such guarantee and keeps every candidate.
    lo, hi = np.sort((np.argmin(v, axis=1), np.argmax(v, axis=1)), axis=0)
    extreme = np.abs(v[np.arange(d), hi] - v[np.arange(d), lo]) / (t[hi] - t[lo]) ** gamma
    floor = np.max(extreme, where=hi > lo, initial=0.0)
    below = np.tri(size, dtype=bool)  # the offsets of j at or before i, no pair in a diagonal block
    per_chunk = max(_BLOCK_PAIRS // size**2, 1)
    group = max(_SCAN_BLOCKS**2 // blocks**2, 1)  # rows whose tables are built at once
    best, best_key, evaluated = -1.0, 1, 0  # key 1 is the pair (0, 1)
    for g0 in range(0, d, group):
        bound = bounds(tiles[g0 : g0 + group])
        order = np.flatnonzero(bound >= (floor if np.isfinite(floor) else 0.0))
        order = order[np.argsort(-bound[order], kind="stable")]
        while order.size:
            top = bound[order[0]]
            if top < best:
                break
            if top == best:
                # Nothing left can exceed the best quotient; a block pair can
                # only tie it, and matters only if it starts before the best pair.
                order = order[(bound[order] == best) & (first[order % p.size] < best_key)]
                if not order.size:
                    break
            elif evaluated >= _PAIR_BUDGET:
                later = [np.max(bounds(tiles[k : k + group])) for k in range(g0 + group, d, group)]
                return best, divmod(best_key, n), evaluated, float(max([top, *later]))
            take, order = order[:per_chunk], order[per_chunk:]
            row, k = np.divmod(take, p.size)
            sp, sq = p[k], q[k]
            vi, vj, ti, tj = tiles[g0 + row, sp], tiles[g0 + row, sq], times[sp], times[sq]
            r = np.abs(vj[:, None, :] - vi[:, :, None]) / (tj[:, None, :] - ti[:, :, None]) ** gamma
            r[sp == sq] = np.where(below, -1.0, r[sp == sq])
            r[sq == blocks - 1, :, width[-1] :] = -1.0  # the padding of the last block
            evaluated += int(pairs[k].sum())
            top_r = float(np.max(r))
            # The chunk matters only if it beats the best quotient or ties it at an earlier pair.
            if top_r < max(best, 0.0) or (top_r == best and first[k].min() > best_key):
                continue
            c, a, b = np.unravel_index(np.flatnonzero(r == top_r), r.shape)
            key = int(np.min((starts[sp[c]] + a) * n + starts[sq[c]] + b))
            if top_r > best or key < best_key:
                best, best_key = top_r, key
    return best, divmod(best_key, n), d * n * (n - 1) // 2, best


def holder_seminorm(g: GridFunction, gamma: float) -> HolderEstimate:
    """Grid Hölder seminorm of exponent ``gamma`` in (0, 1].

    The seminorm is the largest |f(t_j)-f(t_i)| / (t_j-t_i)**gamma over all
    n(n-1)/2 node pairs i < j; for data of d components it is the sup-norm
    seminorm, the largest over the d n(n-1)/2 pairs of all of them.  One scan
    covers every component: it bounds every pair and evaluates only the pairs
    that can still win against one best quotient.  It splits the nodes into
    blocks of 32, or of the smallest larger power of two that leaves at most
    512 blocks (64 nodes from n = 16385 on), viewing each component, padded
    with its last value, as tiles of one block each.  Components go in groups
    of max(1, 512**2 // blocks**2) that build their block tables in turn, one
    group for the suite's 20 of 1025 nodes.  It bounds each block pair P <= Q
    of each component by the smaller of the largest value difference between
    the blocks over the smallest time gap between them (the smallest grid step
    when P = Q), and the largest step |f(t_k+1)-f(t_k)| from the first node of
    P to the last of Q times L**(1-gamma) / h_min**gamma, for the L steps
    spanned and the smallest grid step h_min, with a margin of 64 ulps.  Block
    pairs bounded below the quotient of some component's minimum and maximum
    can never win and are dropped before the rest are sorted.  It then
    evaluates block pairs in order of descending bound, in chunks of 16,384
    pairs (one block pair once blocks hold 128 nodes or more), broadcasting
    each block pair's two value and two time tiles to its quotients, each
    computed exactly as a full scan would; only diagonal and last-block pairs
    take a mask.  It stops when no bound left reaches the best quotient found;
    a block pair whose bound only ties it is skipped when all its pairs come
    after the best pair.

    A finished scan is exact: ``value`` is the grid seminorm, ``upper``
    equals it, ``argmax_pair`` is the first pair in (i, j) order attaining
    it in any component, and ``pairs_examined`` reports all d n(n-1)/2
    pairs, although only a fraction of them are evaluated (1% to 3% for the
    suite's embedding check, 20 components of 1025 nodes).  Data of constant
    slope at gamma = 1 prunes nothing: every block bound exceeds the slope,
    so every pair is evaluated.

    The scan also stops before the next chunk once a fixed budget of
    2,000,000 pairs has been evaluated while a bound above the best quotient
    is left.  It then returns ``exact`` False, ``value`` a certified lower
    bound, ``upper`` the largest bound left in this group or a later one, a
    certified upper bound, and
    ``pairs_examined`` the evaluated pairs, which exceed the budget by less
    than one chunk.  No scan of the suite comes near the budget.  √t at
    n = 32769 reaches it, as does data of constant slope at gamma = 1 with
    more than 2,000,000 pairs.

    Values more than the float range apart give ``value`` = inf, without a
    warning.
    """
    gamma = _real(gamma, InvalidParameterError, "gamma")
    if not 0.0 < gamma <= 1.0:
        raise InvalidParameterError(f"need 0 < gamma <= 1, got {gamma}")
    if g.singular_start:
        raise PreconditionError("seminorm needs finite data; index 0 is marked singular")
    value, pair, examined, upper = _block_scan(g.values.reshape(-1, g.n), g.times(), gamma)
    return HolderEstimate(gamma, value, pair, examined, upper <= value, upper)


def holder_exponent(g: GridFunction) -> float:
    """Least-squares estimate of the Hölder exponent, clamped to (0, 1].

    Fits the log-log slope of the modulus of continuity (the largest over
    components) over dyadic lags h, 2h, 4h, ... up to a quarter of the
    interval.  Constant data has no
    exponent and raises :class:`ConstantInputError`; a modulus that overflows
    the float range raises :class:`PreconditionError`.
    """
    if g.singular_start:
        raise PreconditionError("exponent fit needs finite data; index 0 is marked singular")
    v = g.values
    n = g.n
    if n < 9:
        raise PreconditionError(f"need at least 9 nodes for the exponent fit, got {n}")
    lags = [1 << k for k in range(((n - 1) // 4).bit_length())]  # 1, 2, 4, ... up to (n - 1) // 4
    scales, moduli = [], []
    for lag in lags:
        with np.errstate(over="ignore"):
            w = float(np.max(np.abs(v[..., lag:] - v[..., :-lag])))
        if not np.isfinite(w):
            raise PreconditionError(f"values {lag} nodes apart differ by more than the float range")
        if w > 0.0:
            scales.append(lag * g.h)
            moduli.append(w)
    if len(moduli) < 2:
        raise ConstantInputError("data shows no variation; Hölder exponent is undefined")
    x, y = np.log(scales), np.log(moduli)
    x -= x.mean()  # centred, the least-squares slope is a ratio of two sums: no linear solve
    slope = float(np.sum(x * (y - y.mean())) / np.sum(x * x))
    return float(min(max(slope, 1e-6), 1.0))


def continuous_at_start(g: GridFunction) -> bool:
    """Decide whether the data tends to a finite limit as t -> t0.

    Looks at the spread (max minus min) of the first 16 values past the
    excluded window, on the grid itself and on its stride-2 subsample, against
    the fixed threshold ``max(1e-7, 0.15 * scale)`` where ``scale`` is the sup
    of the trusted values.  Grids of 10 to 23 nodes are too short for that;
    there the last 16 values are looked at, or all from index 1 on.  Data like
    (t-t0)^-q keeps a scale-proportional spread at every resolution and fails
    both looks.  Data of d components is continuous at the start when
    every component passes, each against its own scale.
    """
    if g.singular_start:
        return False
    v = g.values
    n = g.n
    if n < 10:
        raise PreconditionError(f"need at least 10 nodes to classify, got {n}")

    def spread(vals: np.ndarray) -> np.ndarray:
        start = EXCLUDED_START_NODES
        if vals.shape[-1] < start + _CLASSIFY_COUNT:
            start = max(1, vals.shape[-1] - _CLASSIFY_COUNT)
        w = vals[..., start : start + _CLASSIFY_COUNT]
        return np.max(w, axis=-1) - np.min(w, axis=-1)

    # Each component against its own scale; a component that is 0 on the trusted nodes passes.
    scale = np.max(np.abs(v[..., min(EXCLUDED_START_NODES, n - 2) :]), axis=-1)
    threshold = np.maximum(_ABS_TOL, _REL_TOL * scale)
    jumps = spread(v) > threshold
    if (n - 1) % 2 == 0 and (n - 1) // 2 + 1 >= 10:
        jumps |= spread(v[..., ::2]) > threshold
    return not np.any(jumps & (scale > 0.0))


def _space_norm(g: GridFunction, order: float, name: str, derivative) -> float:
    # The checks and sup formula of rl_norm and c_norm; ``derivative(a)`` is called only once the
    # order and the data have passed theirs.
    a = as_order(order)
    if not 0.0 < a < 1.0:
        raise InvalidParameterError(f"space norms are defined here for 0 < order < 1, got {a}")
    if g.singular_start:
        raise MembershipError("data marked singular at the start has no finite norm")
    d = derivative(a)
    if d.singular_start:
        raise MembershipError(f"{name} of order {a} diverges at the start; not a member")
    if not continuous_at_start(d):
        raise MembershipError(f"{name} of order {a} fails the continuity-at-start test; not a member")
    return float(np.max(np.abs(g.values)) + np.max(np.abs(d.values[..., EXCLUDED_START_NODES:])))


def rl_norm(g: GridFunction, order: float) -> float:
    """sup|f| + sup|Df| when the Riemann-Liouville derivative is continuous.

    Each sup is taken over nodes and components.

    Raises :class:`MembershipError` when the derivative estimate blows up at
    the start or fails the continuity classifier — the function is then not a
    member of the order-``order`` space, and it has no finite norm.
    """
    return _space_norm(g, order, "derivative", lambda a: rl_derivative(g, a))


def c_norm(g: GridFunction, order: float, taylor) -> float:
    """sup|f| + sup|cDf| when the Caputo derivative is continuous.

    Same membership rules as :func:`rl_norm`, with the Caputo derivative built
    from the supplied Taylor data.
    """
    return _space_norm(g, order, "Caputo derivative", lambda a: caputo_derivative(g, a, taylor))
