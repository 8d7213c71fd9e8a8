"""Arithmetic of the benchmark: order statistics, power-law fits, span self
time and failure accounting.

Pure functions on plain numbers; nothing here imports fraccalc, so the
benchmark's own arithmetic can be tested on synthetic inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it.
TAIL_BEYOND = 10


def median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(xs: Sequence[float]) -> tuple[float, float, int] | None:
    """Highest percentile of ``xs`` with at least ``TAIL_BEYOND`` samples
    above it.

    Returns ``(value, percentile, count)``: ``value`` is the sorted sample of
    rank ``count - TAIL_BEYOND`` (1-based), ``percentile`` the share of
    samples at or below that rank, in percent.  ``None`` when there are too
    few samples to leave ``TAIL_BEYOND`` of them above any sample.
    """
    count = len(xs)
    if count <= TAIL_BEYOND:
        return None
    rank = count - TAIL_BEYOND
    return sorted(xs)[rank - 1], 100.0 * rank / count, count


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x); needs two distinct x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0.0:
        raise ValueError("need at least two distinct x")
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def observed_order(ns: Sequence[int], errors: Sequence[float]) -> float:
    """Convergence order p in err ~ h**p, with h = 1/(n-1), fitted over ``ns``."""
    return loglog_slope([1.0 / (n - 1) for n in ns], errors)


def covered_length(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(start, end, children)


def tally(outcomes: Iterable[tuple[str, bool]], known_defects: Iterable[str]) -> tuple[int, int, bool]:
    """Count ``(case, ok)`` outcomes: returns ``(attempted, failed, correct)``.

    Every miss is a failure, known defects included.  ``correct`` is False
    only when some case outside ``known_defects`` failed.
    """
    known = set(known_defects)
    attempted = failed = 0
    correct = True
    for case, ok in outcomes:
        attempted += 1
        if not ok:
            failed += 1
            if case not in known:
                correct = False
    return attempted, failed, correct


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return failed / attempted


def fill_not_run(values: dict[str, float], names: Iterable[str], not_run: Iterable[str]) -> None:
    """Set to 0 each of ``names`` that ``values`` lacks and that starts with
    an entry of ``not_run``; raise KeyError if any other name is missing."""
    prefixes = tuple(not_run)
    missing = [name for name in names if name not in values and not name.startswith(prefixes)]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    for name in names:
        values.setdefault(name, 0.0)
