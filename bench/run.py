"""fraccalc benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload suite|transform_large|transform_cli \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the library is imported from
``src/`` there, and the run fails without it.  Workloads, their seeds and the
layers they load are described in ``bench/spec.json``.

After one untimed warm-up round the workload runs round after round, as a
closed loop with one client, until ``--seconds`` have passed.  Before each
round the workload's fixed reference work is timed, and round times are also
reported in its units (``round_ref.p50``), which cancels the host's slow
spells.  Every output is checked (see ``workloads.py``).  The run prints a
report, then as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
``end_to_end`` metrics named in ``BENCHMARK.json``, with ``--trace 1`` its
``per_layer`` metrics.  A traced run alternates untraced and traced rounds;
its spans are written to ``.bench_out/`` when it ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from arith import failed_frac, fill_not_run, loglog_slope, median, observed_order, tail, tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# setup_s: fresh interpreter to ready, as the median of this many starts.
SETUP_STARTS = 9
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fraccalc as fc; "
    "fc.frac_integral(fc.GridFunction(0.0, 1.0, [0.0, 0.5, 1.0]), 0.5)"
)

E2E_UNITS = {"round_ref.p50": "ratio", "setup_s": "s", "round_s.p50": "s", "peak_rss_mb": "MB", "err_ratio": "ratio"}

# Op label in a round -> name of its err.* / order.* metric.
ACCURACY_OPS = {"J": "J", "D": "D", "D_itd": "D_itd", "cD": "cD", "leibniz_rl": "leibniz"}

@dataclass
class Round:
    index: int
    traced: bool
    wall: float
    reference: float  # seconds of the workload's reference work just before the round
    seconds: list[float]  # per call
    errors: list[str]  # exceptions raised by calls
    outcomes: list


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread() -> None:
    """One client thread and no helper threads, so that no round competes
    with itself for the cores.  Must run before numpy is imported: numpy's
    convolution calls BLAS dot, which otherwise starts a thread per core.
    FRACCALC_THREADS would select the suite's thread pool; the benchmark
    measures the serial default."""
    os.environ.pop("FRACCALC_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout itself is not a repository.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client_threads": 1,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS + ("FRACCALC_THREADS",)},
    }


def setup_once() -> float:
    """Wall time of one fresh interpreter importing fraccalc and making one
    small call."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, str(SRC)], stdout=subprocess.DEVNULL)
    # A blocking wait with a watchdog: Popen.wait(timeout) polls with sleeps
    # of up to 50 ms, which would quantize the measurement.
    watchdog = threading.Timer(60.0, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    if code != 0:
        raise RuntimeError(f"setup start exited with {code}")
    return time.perf_counter() - t0


def measure(wl, seconds: float, tracer=None, setup_times: list[float] | None = None) -> list[Round]:
    """Warm up, then run rounds until ``seconds`` have passed.

    With a tracer, odd rounds are traced.  With ``setup_times``, SETUP_STARTS
    set-up starts are spread evenly over the run, between rounds, so that
    they sample the same machine conditions as the rounds do.
    """
    wl.reset()
    wl.check(wl.run_round())  # warm-up; also fixes the suite's reference JSON
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        if setup_times is not None:
            while len(setup_times) < SETUP_STARTS and (
                time.perf_counter() - start >= len(setup_times) * seconds / SETUP_STARTS
            ):
                setup_times.append(setup_once())
        i = len(rounds)
        traced = tracer is not None and i % 2 == 1
        wl.reset()
        t0 = time.perf_counter()
        wl.reference()
        reference = time.perf_counter() - t0
        if traced:
            tracer.round = i
            tracer.install()
        try:
            t0 = time.perf_counter()
            results = wl.run_round()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        # Outputs are dropped once checked, so memory does not grow with rounds.
        rounds.append(Round(i, traced, wall, reference, [r.seconds for r in results],
                            [repr(r.error) for r in results if r.error is not None], wl.check(results)))
        done = time.perf_counter() - start >= seconds
        if done and len(rounds) >= (2 if tracer else 1) and (setup_times is None or len(setup_times) >= SETUP_STARTS):
            return rounds


def per_call(wl, rnd: Round) -> list[tuple[str, int, float, float]]:
    """(label, n, seconds, error) for each checked case of a round."""
    out, pos = [], 0
    for call, seconds in zip(wl.calls, rnd.seconds):
        for case, err, _, _ in rnd.outcomes[pos : pos + len(call.cases)]:
            out.append((call.label, call.n, seconds, err))
        pos += len(call.cases)
    return out


def accuracy(wl, rnd: Round) -> tuple[dict, dict]:
    """err.<op> (sup error at the op's largest n) and order.<op> with bases."""
    by_op: dict[str, dict[int, float]] = defaultdict(dict)
    for label, n, _, err in per_call(wl, rnd):
        if label in ACCURACY_OPS:
            errs = by_op[ACCURACY_OPS[label]]
            errs[n] = max(errs.get(n, 0.0), err)
    values, notes = {}, {}
    for op, errs in by_op.items():
        ns = sorted(errs)
        values[f"err.{op}"] = errs[ns[-1]]
        notes[f"err.{op}"] = f"sup error past node 8 at n = {ns[-1]}"
        if wl.name == "transform_large" and len(ns) > 1:
            values[f"order.{op}"] = observed_order(ns, [errs[n] for n in ns])
            notes[f"order.{op}"] = (
                f"slope of log err on log h, h = 1/(n-1), n = {ns}, err = {[errs[n] for n in ns]}"
            )
    return values, notes


def operator_times(wl, rounds: list[Round]) -> tuple[dict, dict]:
    """transform_large's per-call medians and the metrics derived from them."""
    samples: dict[tuple[str, int], list[float]] = defaultdict(list)
    for rnd in rounds:
        for label, n, seconds, _ in per_call(wl, rnd):
            samples[(label, n)].append(seconds)
    med = {key: median(v) for key, v in samples.items()}
    values, notes = {}, {}
    ns_of: dict[str, list[int]] = defaultdict(list)
    for (label, n), t in sorted(med.items()):
        values[f"operators.{label}.s.n{n}"] = t
        ns_of[label].append(n)
    for label, ns in ns_of.items():
        if len(ns) > 1:
            ts = [med[(label, n)] for n in ns]
            values[f"operators.{label}.n_exponent"] = loglog_slope(ns, ts)
            notes[f"operators.{label}.n_exponent"] = f"slope of log t on log n, n = {ns}, t = {ts}"
    d, raw = med[("D", 32769)], med[("D_raw", 32769)]
    values["operators.probe_overhead"] = d / raw
    notes["operators.probe_overhead"] = f"t(D) / t(D_raw) at n = 32769 = {d} / {raw}"
    lz, raw = med[("leibniz_rl", 8193)], med[("D_raw", 8193)]
    values["operators.leibniz_rl.corr_share"] = (lz - 2.0 * raw) / lz
    notes["operators.leibniz_rl.corr_share"] = (
        f"(t(leibniz_rl) - 2 t(D_raw)) / t(leibniz_rl) at n = 8193 = ({lz} - 2 * {raw}) / {lz}"
    )
    return values, notes


def layer_metrics(wl, rounds: list[Round], tracer, names: list[str], not_run: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run.  A metric that is not computed
    reads 0 only when it starts with one of ``not_run``, the workload's
    bypassed layers and the functions and ops it does not call (``spec.json``);
    any other missing metric means the tracer lost calls, and raises."""
    from tracing import profile_rounds

    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    profiles = profile_rounds(tracer.spans)
    keys = set().union(*(profiles[r.index].keys() for r in traced))
    values = {k: median([profiles[r.index].get(k, 0.0) for r in traced]) for k in keys}
    notes: dict[str, str] = {}
    # Traced and untraced rounds alternate, so the host's slow spells weigh
    # on both medians alike.
    base, with_spans = median([r.wall for r in plain]), median([r.wall for r in traced])
    values["trace.round_s"] = with_spans
    values["trace.overhead"] = with_spans / base
    notes["trace.overhead"] = f"traced / untraced round_s.p50 = {with_spans} / {base}"
    values["trace.unattributed_s"] = median(
        [r.wall - profiles[r.index].get("trace.top_level_s", 0.0) for r in traced]
    )
    acc_values, acc_notes = accuracy(wl, plain[0])
    values.update(acc_values)
    notes.update(acc_notes)
    if wl.name == "transform_large":
        op_values, op_notes = operator_times(wl, plain)
        values.update(op_values)
        notes.update(op_notes)
    if wl.name == "suite":
        for case, _, ratio, _ in plain[0].outcomes:
            values[f"harness.{case.split('/', 1)[1]}.err_ratio"] = ratio
    fill_not_run(values, names, not_run)
    return values, notes


def emit(values: dict, specs: list[dict]) -> dict:
    out = {}
    for spec in specs:
        value = values[spec["name"]]
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite: {value}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def run(args) -> int:
    if not (SRC / "fraccalc" / "__init__.py").is_file():
        print(f"bench: no fraccalc sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    single_thread()
    sys.path.insert(0, str(SRC))
    import fraccalc

    if Path(fraccalc.__file__).resolve().parent != (SRC / "fraccalc").resolve():
        print(f"bench: imported fraccalc from {fraccalc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    frozen = json.loads((HERE / "bounds.json").read_text(encoding="utf-8"))["cases"]
    bounds = {case: v["bound"] for case, v in frozen.items()}
    known = [d["case"] for d in spec["known_defects"]]

    report = {"machine": machine_record(args)}
    setup_times: list[float] | None = None if args.trace else []
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp)
    try:
        wl = workloads.build(args.workload, args.seed, bounds, workdir)
        report["params"] = wl.params
        tracer = Tracer(fraccalc) if args.trace else None
        rounds = measure(wl, args.seconds, tracer, setup_times)
    finally:
        shutil.rmtree(workdir)

    outcomes = [o for r in rounds for o in r.outcomes]
    attempted, failed, correct = tally(((case, ok) for case, _, _, ok in outcomes), known)
    misses = sorted({case for case, _, _, ok in outcomes if not ok})
    errors = sorted({e for r in rounds for e in r.errors})
    plain = [r.wall for r in rounds if not r.traced]
    # Known defects fail every round and would pin err_ratio at their own
    # ratio; they are counted in failed_frac and reported apart instead.
    ratios = [ratio for case, _, ratio, _ in outcomes if case not in known and math.isfinite(ratio)]
    values = {
        "round_ref.p50": median([r.wall / r.reference for r in rounds if not r.traced]),
        "round_s.p50": median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_ratio": max(ratios, default=0.0),
    }
    if setup_times:
        values["setup_s"] = median(setup_times)
        report["setup_s.samples"] = setup_times
    report["rounds"] = {"untraced": len(plain), "traced": len(rounds) - len(plain), "untraced_s": plain,
                        "reference_s": [r.reference for r in rounds if not r.traced]}
    e2e = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    t = tail(plain)
    e2e["round_s.tail"] = (
        {"value": t[0], "unit": "s", "percentile": t[1], "samples": t[2]} if t else "absent: ten rounds or fewer"
    )
    e2e["failed_frac"] = {"value": failed_frac(attempted, failed), "unit": "ratio",
                          "failed": failed, "attempted": attempted}
    acc_values, acc_notes = accuracy(wl, next(r for r in rounds if not r.traced))
    for name, v in acc_values.items():
        e2e[name] = {"value": v, "unit": "order" if name.startswith("order.") else "abs", "note": acc_notes[name]}
    report["end_to_end"] = e2e
    report["misses"] = misses
    report["known_defects"] = {
        case: {"err_ratio": max((r for c, _, r, _ in outcomes if c == case), default=None)}
        for case in known if case.startswith(args.workload + "/")
    }
    report["exceptions"] = errors

    if args.trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        record = spec["workloads"][args.workload]
        not_run = [f"{layer}." for layer in record["bypasses"]] + record["not_run"]
        layer_values, notes = layer_metrics(wl, rounds, tracer, names, not_run)
        report["derived"] = {k: {"value": layer_values[k], "formula": v} for k, v in notes.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = emit(layer_values, benchmark["per_layer"])
    else:
        metrics = emit(values, benchmark["end_to_end"])
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "transform_large", "transform_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
