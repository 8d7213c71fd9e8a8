"""The benchmark's workloads: what one round calls, how the seed picks its
inputs, and how every output is checked.

Each workload is a closed loop with one client: a round is a fixed list of
calls made one after another in this process.  The seed picks, per parameter
family, one entry of a fixed table whose functions have closed forms; the
library only ever sees the sampled inputs.  Every output is compared with an
independent oracle (a catalog closed form, or the input of a D -> J round
trip) past the first ``WINDOW`` nodes, against a frozen per-case bound.

Library functions are always looked up through ``fc.<name>`` or
``cli.main`` at call time, so that a tracer installed in those namespaces
sees the calls.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fraccalc as fc
from fraccalc import cli

# Accuracy contracts of the package start at this node.
WINDOW = 8

# transform_large: (family, op label, grid sizes).  D and D_raw share the
# D family's inputs, so their times compare the same work with and without
# the singular-start probe.
LARGE_FAMILIES = {
    "J": [(0.5, 0.3), (1.5, 0.5), (0.8, 0.7)],  # (p, alpha) for t**p
    "D": [(0.5, 0.3), (1.5, 0.5), (1.2, 0.7)],  # (p, alpha)
    "D_itd": [(2.0, 1.3), (2.5, 1.5), (3.0, 1.7)],  # (p, alpha), alpha in (1, 2)
    "cD": [(1.0, 1.5, 0.5), (2.0, 2.5, 0.7), (1.0, 2.5, 1.5)],  # (c, p, alpha) for c + t**p
    "leibniz": [(0.6, 0.8, 0.5), (0.5, 1.0, 0.3), (1.0, 1.5, 0.7)],  # (p_u, p_v, alpha)
}
LARGE_OPS = (
    ("J", "J", (2049, 8193, 32769)),
    ("D", "D", (2049, 8193, 32769)),
    ("D", "D_raw", (2049, 8193, 32769)),
    ("D_itd", "D_itd", (2049, 8193)),
    ("cD", "cD", (2049, 8193)),
    ("leibniz", "leibniz_rl", (2049, 8193)),
    ("leibniz", "leibniz_caputo", (2049,)),
)

# transform_cli: `fraccalc transform` argument tables.  n = 1024 is off the
# 4k+1 lattice on purpose: CSV inputs come in any length.
CLI_NS = (257, 1024, 1025, 2049)
CLI_FAMILIES = {
    "power": [(1.5, 0.5), (0.8, 0.3), (2.5, 0.7)],  # (p, alpha): J, D, cD
    "constant": [(1.0, 0.5), (2.0, 0.3), (0.5, 0.7)],  # (c, alpha): J, D, cD
    "step": [(0.5, 0.5), (0.3, 0.3), (0.7, 0.7)],  # (t_jump, alpha): J
    "leibniz": [(0.6, 0.8, 0.5), (0.5, 1.0, 0.3), (1.0, 1.5, 0.7)],  # n = 257
    "ml_exp": [(0.7, 0.5), (0.9, 0.3), (0.6, 0.5)],  # (ml alpha, order): cD at n = 257
}
# D -> J round trips at order 0.5: the README chain, and constant and ml_exp
# inputs read from CSV on both sides of the 4k+1 lattice.
README_CHAIN_N = 2049
ROUND_TRIP_NS = (1024, 1025)

SUITE_N = 2049


def pick(workload: str, seed: int) -> dict[str, int]:
    """Seed -> index into each parameter family of the workload."""
    families = {"transform_large": LARGE_FAMILIES, "transform_cli": CLI_FAMILIES}.get(workload, {})
    rng = np.random.default_rng(seed)
    return {fam: int(rng.integers(len(families[fam]))) for fam in sorted(families)}


def _sup_past_window(values: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(values[WINDOW:] - expected[WINDOW:])))


def _fmt(**params: float) -> str:
    return ",".join(f"{k}={v:g}" for k, v in params.items())


# Reference work: fixed code of the same kind as a workload's rounds that runs
# no fraccalc code.  It is timed before every round; dividing the round's time
# by it cancels the host's slow spells, which slow interpreted code by up to
# 1.7x and long vectorised loops less.


def suite_reference() -> None:
    # Row scans like holder_seminorm's and a compensated cosine series like
    # special.weierstrass: the two take about 80% of a suite round.
    v = np.sin(np.linspace(0.0, 20.0, 1025))
    t = np.linspace(0.0, 1.0, 1025)
    for i in range(0, 1025, 4):
        d = np.abs(v - v[i])
        dist = np.abs(t - t[i])
        dist[i] = np.inf
        int(np.argmax(d / dist**0.5))
    total = comp = 0.0
    for j in range(10000):
        y = 0.5 ** (j % 50) * math.cos(j * 0.37) - comp
        s = total + y
        comp = (s - total) - y
        total = s


def convolve_reference() -> None:
    # The direct O(n^2) convolution that dominates transform_large.
    a = np.linspace(0.0, 1.0, 16384)
    np.convolve(a, a)


def cli_reference() -> None:
    # Scalar loops, float formatting and a small convolution, as in a CLI call.
    x = 0.0
    for i in range(20000):
        x += math.cos(i * 1e-3)
    "\n".join(f"{i * 1e-3:.17g}" for i in range(5000))
    a = np.linspace(0.0, 1.0, 4096)
    np.convolve(a, a)


@dataclass
class Call:
    """One call of a round and the cases its output is checked as."""

    label: str
    n: int
    run: Callable[[], object]
    # Maps the output to one (case, error, ratio-to-bound, ok) per case.
    check: Callable[[object], list[tuple[str, float, float, bool]]]
    cases: list[str]


@dataclass
class Result:
    output: object
    error: BaseException | None
    seconds: float


class Workload:
    def __init__(self, name: str, calls: list[Call], params: dict, reference: Callable[[], None],
                 outputs: list[str] = ()) -> None:
        self.name = name
        self.calls = calls
        self.params = params
        self.reference = reference
        self.outputs = list(outputs)

    def reset(self) -> None:
        """Remove the previous round's output files, so that a call which
        fails to write its output cannot pass on a stale one."""
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)

    def run_round(self) -> list[Result]:
        results = []
        clock = time.perf_counter
        for call in self.calls:
            t0 = clock()
            try:
                out, err = call.run(), None
            except Exception as exc:  # a failed call is counted, never fatal
                out, err = None, exc
            results.append(Result(out, err, clock() - t0))
        return results

    def check(self, results: list[Result]) -> list[tuple[str, float, float, bool]]:
        """One (case, error, ratio-to-bound, ok) per case; a call that raised,
        or whose output cannot be checked, fails all of its cases with an
        infinite error."""
        outcomes = []
        for call, res in zip(self.calls, results):
            checked = None
            if res.error is None:
                try:
                    checked = call.check(res.output)
                except Exception:  # an output that cannot be read or compared is a miss
                    pass
            outcomes.extend(checked or [(case, math.inf, math.inf, False) for case in call.cases])
        return outcomes


def _closed_case(case: str, expected: np.ndarray, bounds: dict | None, values_of: Callable):
    # Case checker against precomputed oracle values.  With no bounds (while
    # freezing them) every case reports ratio 0 and passes.
    def check(output):
        err = _sup_past_window(values_of(output), expected)
        if bounds is None:
            return [(case, err, 0.0, True)]
        bound = bounds[case]
        return [(case, err, err / bound, bool(err <= bound))]

    return check


def _grid_values(g) -> np.ndarray:
    return g.values


def _power(p: float, n: int):
    return fc.sample(fc.builtin("power", {"p": p}), 0.0, 1.0, n)


def build_transform_large(choice: dict[str, int], bounds: dict | None) -> Workload:
    params = {fam: LARGE_FAMILIES[fam][k] for fam, k in choice.items()}
    calls = []
    for fam, label, ns in LARGE_OPS:
        prm = params[fam]
        for n in ns:
            if fam in ("J", "D", "D_itd"):
                p, a = prm
                entry = fc.builtin("power", {"p": p})
                g = _power(p, n)
                slot = entry.rl_integral if fam == "J" else entry.rl_derivative
                expected = slot(a, g.times())
                tag = _fmt(p=p, alpha=a)
                run = {
                    "J": lambda g=g, a=a: fc.frac_integral(g, a),
                    "D": lambda g=g, a=a: fc.rl_derivative(g, a),
                    "D_raw": lambda g=g, a=a: fc.marchaud_derivative(g, a),
                    "D_itd": lambda g=g, a=a: fc.rl_derivative(g, a, "integral_then_difference"),
                }[label]
            elif fam == "cD":
                c, p, a = prm
                entry = fc.builtin("power", {"p": p})
                base = _power(p, n)
                g = base.with_values(base.values + c)
                taylor = (c,) + (0.0,) * (math.ceil(a) - 1)
                expected = entry.caputo_derivative(a, g.times())
                tag = _fmt(c=c, p=p, alpha=a)
                run = lambda g=g, a=a, taylor=taylor: fc.caputo_derivative(g, a, taylor)  # noqa: E731
            else:
                pu, pv, a = prm
                u, v = _power(pu, n), _power(pv, n)
                prod = fc.builtin("power", {"p": pu + pv})
                slot = prod.rl_derivative if label == "leibniz_rl" else prod.caputo_derivative
                expected = slot(a, u.times())
                tag = _fmt(pu=pu, pv=pv, alpha=a)
                op = label
                run = lambda u=u, v=v, a=a, op=op: getattr(fc, op)(u, v, a)  # noqa: E731
            case = f"transform_large/{label}/{tag}/n{n}"
            calls.append(Call(label, n, run, _closed_case(case, expected, bounds, _grid_values), [case]))
    return Workload("transform_large", calls, params, convolve_reference)


def read_csv_values(path: str) -> np.ndarray:
    """Value column of a ``t,value`` CSV; the ``sing`` token reads as NaN.

    The benchmark's own reader, so CLI output is not checked with the
    library's parser."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "t,value":
        raise ValueError(f"{path}: bad header {lines[0]!r}")
    vals = [ln.split(",")[1] for ln in lines[1:] if ln]
    return np.array([math.nan if v == "sing" else float(v) for v in vals])


def _cli_run(argv: list[str]) -> Callable[[], str]:
    out = argv[argv.index("--output") + 1]

    def run() -> str:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fraccalc {' '.join(argv)} exited with {code}")
        return out

    return run


def build_transform_cli(choice: dict[str, int], bounds: dict | None, workdir: str) -> Workload:
    params = {fam: CLI_FAMILIES[fam][k] for fam, k in choice.items()}
    calls: list[Call] = []
    outputs: list[str] = []

    def add(label, n, argv, case, expected):
        out = os.path.join(workdir, f"out{len(outputs)}.csv")
        outputs.append(out)
        argv = ["transform", *argv, "--output", out]
        calls.append(Call(label, n, _cli_run(argv), _closed_case(case, expected, bounds, read_csv_values), [case]))
        return out

    p, a_pow = params["power"]
    c, a_const = params["constant"]
    tj, a_step = params["step"]
    fn_ops = [
        (f"power:p={p:g}", fc.builtin("power", {"p": p}), a_pow, ("J", "D", "cD")),
        (f"constant:c={c:g}", fc.builtin("constant", {"c": c}), a_const, ("J", "D", "cD")),
        (f"step:t_jump={tj:g}", fc.builtin("step", {"t_jump": tj}), a_step, ("J",)),
    ]
    slots = {"J": "rl_integral", "D": "rl_derivative", "cD": "caputo_derivative"}
    for n in CLI_NS:
        t = np.linspace(0.0, 1.0, n)
        for spec, entry, a, ops in fn_ops:
            for op in ops:
                expected = getattr(entry, slots[op])(a, t)
                case = f"transform_cli/{op}/{spec},alpha={a:g}/n{n}"
                add(op, n, ["--fn", spec, "--op", op, "--alpha", repr(a), "--n", str(n)], case, expected)

    n = 257
    t = np.linspace(0.0, 1.0, n)
    pu, pv, a = params["leibniz"]
    expected = fc.builtin("power", {"p": pu + pv}).rl_derivative(a, t)
    add("leibniz_rl", n, ["--fn", f"power:p={pu:g}", "--fn2", f"power:p={pv:g}", "--op", "leibniz",
                       "--alpha", repr(a), "--n", str(n)],
        f"transform_cli/leibniz_rl/{_fmt(pu=pu, pv=pv, alpha=a)}/n{n}", expected)
    ml, a = params["ml_exp"]
    expected = fc.builtin("ml_exp", {"alpha": ml}).caputo_derivative(a, t)
    add("cD", n, ["--fn", f"ml_exp:alpha={ml:g}", "--op", "cD", "--alpha", repr(a), "--n", str(n)],
        f"transform_cli/cD/ml_exp:alpha={ml:g},alpha={a:g}/n{n}", expected)

    # README chain: D of sqrt(t) from the catalog, then J of D's CSV.
    n = README_CHAIN_N
    t = np.linspace(0.0, 1.0, n)
    entry = fc.builtin("power", {"p": 0.5})
    d_out = add("chain.D", n, ["--fn", "power:p=0.5", "--op", "D", "--alpha", "0.5", "--n", str(n)],
                f"transform_cli/chain.D/power:p=0.5,alpha=0.5/n{n}", entry.rl_derivative(0.5, t))
    add("chain.J", n, ["--input", d_out, "--op", "J", "--alpha", "0.5"],
        f"transform_cli/chain.J/power:p=0.5,alpha=0.5/n{n}", entry(t))

    # Round trips of CSV inputs written once, before timing.
    for spec, entry in (("constant:c=1", fc.builtin("constant", {"c": 1.0})),
                        ("ml_exp:alpha=0.7", fc.builtin("ml_exp", {"alpha": 0.7}))):
        for n in ROUND_TRIP_NS:
            g = fc.sample(entry, 0.0, 1.0, n)
            src = os.path.join(workdir, f"in-{spec.split(':')[0]}-{n}.csv")
            cli.write_grid_csv(src, g)
            d_out = add("chain.D", n, ["--input", src, "--op", "D", "--alpha", "0.5"],
                        f"transform_cli/chain.D/{spec},alpha=0.5/n{n}", entry.rl_derivative(0.5, g.times()))
            add("chain.J", n, ["--input", d_out, "--op", "J", "--alpha", "0.5"],
                f"transform_cli/chain.J/{spec},alpha=0.5/n{n}", g.values)
    return Workload("transform_cli", calls, params, cli_reference, outputs)


def build_suite(seed: int) -> Workload:
    ids = fc.check_ids()
    cases = [f"suite/{cid}" for cid in ids]
    reference: dict[str, str] = {}

    def check(reports):
        # A check passes when its report passes and its JSON is byte-identical
        # to the first round's; the ratio is the report's own max_error over
        # its frozen tolerance.
        outcomes = []
        got = {r.check_id: r for r in reports}
        for cid, case in zip(ids, cases):
            r = got.get(cid)
            if r is None:
                outcomes.append((case, math.inf, math.inf, False))
                continue
            text = json.dumps(r.to_dict(), sort_keys=True)
            same = reference.setdefault(cid, text) == text
            outcomes.append((case, r.max_error, r.max_error / r.tolerance, bool(r.passed and same)))
        return outcomes

    config = fc.SuiteConfig(n=SUITE_N, seed=seed)
    run = lambda: fc.run_suite(config)  # noqa: E731
    return Workload("suite", [Call("suite", SUITE_N, run, check, cases)], {"n": SUITE_N, "seed": seed},
                    suite_reference)


def build(name: str, seed: int, bounds: dict | None, workdir: str, choice: dict[str, int] | None = None) -> Workload:
    if name == "suite":
        return build_suite(seed)
    choice = choice if choice is not None else pick(name, seed)
    if name == "transform_large":
        return build_transform_large(choice, bounds)
    if name == "transform_cli":
        return build_transform_cli(choice, bounds, workdir)
    raise ValueError(f"unknown workload {name!r}")
