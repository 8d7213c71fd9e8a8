"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m pytest bench -q
"""

import math

import pytest

from arith import (
    covered_length,
    failed_frac,
    fill_not_run,
    loglog_slope,
    median,
    observed_order,
    self_time,
    tail,
    tally,
)
from tracing import profile_rounds


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(25, 0, -1)]  # 25 samples, unsorted
    value, pct, count = tail(xs)
    assert count == 25
    assert value == 15.0  # rank 15 of 25: samples 16..25 lie beyond it
    assert pct == 60.0
    assert sum(x > value for x in xs) == 10


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    value, pct, count = tail([float(i) for i in range(11)])
    assert (value, count) == (0.0, 11)
    assert pct == pytest.approx(100.0 / 11)


def test_self_time_without_children():
    assert self_time(1.0, 3.0, []) == 2.0


def test_self_time_subtracts_union_of_overlapping_children():
    # Children [1,2] and [1.5,3] overlap; [5,7] sticks out past the parent's end.
    children = [(1.5, 3.0), (1.0, 2.0), (5.0, 7.0)]
    assert covered_length(0.0, 6.0, children) == pytest.approx(3.0)
    assert self_time(0.0, 6.0, children) == pytest.approx(3.0)


def test_self_time_ignores_children_outside_the_span():
    assert self_time(0.0, 1.0, [(2.0, 3.0), (-2.0, -1.0)]) == 1.0


def test_loglog_slope_recovers_power_law():
    ns = [2049, 8193, 32769]
    ts = [3e-9 * n**2 for n in ns]
    assert loglog_slope(ns, ts) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        loglog_slope([4.0, 4.0], [1.0, 2.0])


def test_observed_order_uses_grid_spacing():
    ns = [2049, 8193, 32769]
    errs = [0.7 * (1.0 / (n - 1)) ** 1.5 for n in ns]
    assert observed_order(ns, errs) == pytest.approx(1.5)
    # Error constant in n: order 0, the self-similar start plateau.
    assert observed_order(ns, [4.8e-4] * 3) == pytest.approx(0.0, abs=1e-12)


def test_tally_counts_every_miss_and_flags_only_unknown_ones():
    outcomes = [("a", True), ("known", False), ("a", True), ("known", False)]
    assert tally(outcomes, ["known"]) == (4, 2, True)
    assert tally(outcomes + [("b", False)], ["known"]) == (5, 3, False)
    assert failed_frac(5, 3) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        failed_frac(0, 0)


def test_fill_not_run_zeroes_only_declared_metrics():
    values = {"operators.leibniz_rl.s": 1.5}
    names = ["operators.leibniz_rl.s", "cli.main.s", "order.J"]
    fill_not_run(values, names, ["cli.", "order."])
    assert values == {"operators.leibniz_rl.s": 1.5, "cli.main.s": 0.0, "order.J": 0.0}
    # A metric of a layer the workload loads must be computed.
    with pytest.raises(KeyError, match="spaces.rl_norm.s"):
        fill_not_run({}, ["spaces.rl_norm.s", "cli.main.s"], ["cli."])


def test_profile_rounds_self_time_counts_and_top_level():
    # Round 1: run_suite [0, 10] encloses a check [1, 6] that encloses an
    # operator call [2, 5]; round 2: one operator call [20, 21].
    spans = [
        ["harness.run_suite", 0.0, 10.0, -1, 1, None],
        ["harness.check_leibniz", 1.0, 6.0, 0, 1, "leibniz_rl"],
        ["operators.leibniz_rl", 2.0, 5.0, 1, 1, None],
        ["operators.leibniz_rl", 20.0, 21.0, -1, 2, None],
        ["spaces.holder_seminorm", 7.0, 8.0, 0, 1, 1024],
    ]
    rounds = profile_rounds(spans)
    r1, r2 = rounds[1], rounds[2]
    assert r1["harness.run_suite.s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert r1["harness.check_leibniz.s"] == pytest.approx(2.0)
    assert r1["harness.leibniz_rl.s"] == pytest.approx(5.0)  # whole check
    assert r1["operators.leibniz_rl.s"] == pytest.approx(3.0)
    assert r1["harness.self_s"] == pytest.approx(6.0)
    assert r1["spaces.holder_seminorm.pairs_examined"] == 1024
    assert r1["trace.top_level_s"] == pytest.approx(10.0)
    assert r2["operators.leibniz_rl.calls"] == 1
    assert r2["trace.top_level_s"] == pytest.approx(1.0)
    total_self = sum(v for k, v in r1.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(r1["trace.top_level_s"])
    assert not math.isnan(total_self)
