"""Freeze the per-case error bounds the benchmark checks outputs against.

    python3 bench/freeze_bounds.py

Runs one round of each transform workload for every entry of every parameter
family and writes ``bench/bounds.json``: each case's sup error past the start
window, and its bound, twice that error (at least 1e-10, far above rounding).  A known defect
takes the bound of the case it should match once fixed (``bound_from`` in
``bench/spec.json``), so it keeps failing until the defect is fixed.

Re-freezing loosens nothing only if the code is unchanged; run it to add
cases, never to make a failing case pass.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, single_thread

HERE = Path(__file__).resolve().parent
single_thread()  # the same BLAS settings as the benchmark: errors depend on summation order
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

FACTOR = 2.0
FLOOR = 1e-10


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    errors: dict[str, float] = {}
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp)
    try:
        for name, families in (("transform_large", workloads.LARGE_FAMILIES),
                               ("transform_cli", workloads.CLI_FAMILIES)):
            for k in range(max(len(v) for v in families.values())):
                choice = {fam: min(k, len(v) - 1) for fam, v in families.items()}
                wl = workloads.build(name, 0, None, workdir, choice)
                for case, err, _, _ in wl.check(wl.run_round()):
                    if not math.isfinite(err):
                        raise SystemExit(f"{case}: no finite error to freeze")
                    errors[case] = err
    finally:
        shutil.rmtree(workdir)
    cases = {case: {"frozen_error": err, "bound": max(FACTOR * err, FLOOR)} for case, err in sorted(errors.items())}
    for defect in spec["known_defects"]:
        cases[defect["case"]]["bound"] = cases[defect["bound_from"]]["bound"]
    doc = {
        "rule": f"bound = max({FACTOR:g} * frozen_error, {FLOOR:g}); known defects take the bound of bound_from",
        "cases": cases,
    }
    (HERE / "bounds.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"froze {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
