"""Command-line interface: catalog inspection, grid transforms, verification.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical-precondition
error.  CSV files are UTF-8 with LF endings, header ``t,value``, 17
significant digits (lossless float round-trip), and the token ``sing`` for a
singular index-0 value.  They hold scalar data only: writing data of d
components is a data error.  All file writes go through a temp file + rename,
and a path that cannot be written is a data error, for ``verify`` before any check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Iterator, TextIO

import numpy as np

from . import __version__, catalog
from .errors import DataError, FracCalcError, PreconditionError, UsageError
from .grid import GridFunction, as_order
from .harness import SuiteConfig, run_suite
from .operators import caputo_derivative, frac_integral, leibniz_rl, rl_derivative

_SING = "sing"


@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator[TextIO]:
    # A temp file beside ``path``, made on entry and renamed onto it when the block, which should
    # only write to it, ends without an error.  An OSError in any of these steps is a DataError.
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f".fraccalc-{os.urandom(8).hex()}")
        # A fresh file of mode 0o666 less the umask, which the kernel applies: what a plain open gives.
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
        tmp = None  # renamed: no temp file is left to look for
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_grid_csv(path: str, g: GridFunction) -> None:
    # One format operation for the whole table.  Only a singular index 0 can
    # format as "nan": every other value of a GridFunction is finite.
    if g.values.ndim != 1:
        raise DataError(f"CSV holds scalar data; got values of shape {g.values.shape}")
    cells = np.column_stack([g.times(), g.values]).ravel().tolist()
    table = ("%.17g,%.17g\n" * g.n) % tuple(cells)
    if g.singular_start:
        table = table.replace(",nan\n", f",{_SING}\n", 1)
    with _atomic_write(path) as fh:
        fh.write("t,value\n" + table)


def read_grid_csv(path: str) -> GridFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    # Blank lines are skipped, but errors name the physical line.
    rows = [(lineno, ln) for lineno, ln in enumerate(lines, start=1) if ln.strip()]
    if not rows or rows[0][1].strip() != "t,value":
        raise DataError(f"{path}: first line must be the header 't,value'")
    ts: list[float] = []
    vals: list[float] = []
    singular = False
    for lineno, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 't,value', got {ln!r}")
        try:
            t = float(parts[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad t value {parts[0]!r}") from None
        token = parts[1].strip()
        if token == _SING:
            if len(ts) != 0:
                raise DataError(f"{path}:{lineno}: '{_SING}' is only allowed on the first data row")
            singular = True
            v = math.nan
        else:
            try:
                v = float(token)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad value {token!r}") from None
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite value {token!r}")
        if not math.isfinite(t):
            raise DataError(f"{path}:{lineno}: non-finite t {parts[0]!r}")
        ts.append(t)
        vals.append(v)
    if len(ts) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    t_arr = np.asarray(ts)
    span = t_arr[-1] - t_arr[0]
    if span <= 0:
        raise DataError(f"{path}: t column must be strictly increasing")
    h = span / (len(ts) - 1)
    dt = np.diff(t_arr)
    if np.any(dt <= 0) or np.max(np.abs(dt - h)) > 1e-9 * span:
        raise DataError(f"{path}: t column is not uniformly spaced (relative tolerance 1e-9)")
    return GridFunction(float(t_arr[0]), float(t_arr[-1]), np.asarray(vals), singular)


def _parse_fn_spec(spec: str) -> catalog.AnalyticFunction:
    name, _, rest = spec.partition(":")
    name = name.strip()
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise UsageError(f"bad --fn parameter {item!r}; expected key=value")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise UsageError(f"bad --fn parameter value {value!r} for {key.strip()!r}") from None
    return catalog.builtin(name, params)


def _parse_taylor(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad --taylor value {text!r}; expected comma-separated numbers") from None


def _cmd_catalog(args: argparse.Namespace) -> tuple[int, str]:
    return 0, "\n".join(catalog.builtin_names()) if args.action == "list" else catalog.describe_builtin(args.id)


def _transform_input(args: argparse.Namespace) -> tuple[GridFunction, catalog.AnalyticFunction | None]:
    if args.input:
        for flag in ("n", "t1"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} only applies to --fn inputs")
        return read_grid_csv(args.input), None
    entry = _parse_fn_spec(args.fn)
    n = args.n if args.n is not None else 1025
    t1 = args.t1 if args.t1 is not None else entry.base_point + 1.0
    return catalog.sample(entry, entry.base_point, t1, n), entry


# The optional flags each --op reads; giving one to an op that does not read it is a usage error.
_OP_FLAGS = {"J": (), "D": (), "cD": ("taylor",), "leibniz": ("fn2",)}


def _cmd_transform(args: argparse.Namespace) -> tuple[int, str]:
    for flag in ("fn2", "taylor"):
        if getattr(args, flag) is not None and flag not in _OP_FLAGS[args.op]:
            raise UsageError(f"--{flag} does not apply to --op {args.op}")
    if args.op == "leibniz":
        if not (args.fn and args.fn2):
            raise UsageError("--op leibniz needs --fn and --fn2 (catalog factors on a shared grid)")
        u, _ = _transform_input(args)
        v = catalog.sample(_parse_fn_spec(args.fn2), u.t0, u.t1, u.n)
        out = leibniz_rl(u, v, args.alpha)
    else:
        g, entry = _transform_input(args)
        if args.op == "J":
            out = frac_integral(g, args.alpha)
        elif args.op == "D":
            out = rl_derivative(g, args.alpha)
        else:  # cD
            m = math.ceil(as_order(args.alpha))  # the order is refused before any Taylor data is read
            if args.taylor is not None:
                taylor = _parse_taylor(args.taylor)
            elif entry is not None:
                taylor = catalog.taylor_for_order(entry, m)
            elif g.singular_start:
                raise PreconditionError("cannot infer Taylor data from a singular first value; pass --taylor")
            elif m > 1:
                raise UsageError(f"--taylor is required for CSV input with order {args.alpha}")
            else:
                taylor = (float(g.values[0]),) if m == 1 else ()
            out = caputo_derivative(g, args.alpha, taylor)
    write_grid_csv(args.output, out)
    return 0, ""


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    config = SuiteConfig(n=args.n, seed=args.seed, checks=tuple(args.suite))
    with _atomic_write(args.json) if args.json else contextlib.nullcontext() as report:
        reports = run_suite(config)
        aggregate = all(r.passed for r in reports)
        if report is not None:
            document = {
                "schema": 2,
                "tool_version": __version__,
                "config_echo": {"suite": list(config.checks), "n": config.n, "seed": config.seed},
                "reports": [r.to_dict() for r in reports],
                "aggregate_pass": aggregate,
            }
            report.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    verdict = {True: "PASS", False: "FAIL"}
    lines = [f"[{verdict[r.passed]}] {r.check_id}: max_error={r.max_error:.6g} tolerance={r.tolerance:g} n={r.grid_n}"
             for r in reports]
    lines.append(f"{verdict[aggregate]}: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return (0 if aggregate else 1), "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraccalc",
        description="Fractional-calculus transforms on uniform grids, with a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="list or describe the analytic test functions")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    cat_sub.add_parser("list", help="print the catalog ids")
    p_desc = cat_sub.add_parser("describe", help="print parameters and closed forms")
    p_desc.add_argument("id")

    p_tr = sub.add_parser("transform", help="apply a fractional operator to a grid function")
    src = p_tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="input CSV (header 't,value')")
    src.add_argument("--fn", help="catalog spec, e.g. power:p=0.5; its grid starts at the spec's t0=")
    p_tr.add_argument("--fn2", help="second factor for --op leibniz, same syntax as --fn")
    p_tr.add_argument("--op", required=True, choices=list(_OP_FLAGS))
    p_tr.add_argument("--alpha", required=True, type=float)
    p_tr.add_argument("--n", type=int, help="grid nodes for --fn sampling (default 1025)")
    p_tr.add_argument("--t1", type=float, help="grid end for --fn sampling (default: base point + 1)")
    p_tr.add_argument("--taylor", help="comma-separated Taylor data at t0 for --op cD")
    p_tr.add_argument("--output", required=True, help="output CSV path")

    p_ver = sub.add_parser("verify", help="run verification checks and report")
    p_ver.add_argument("--suite", nargs="+", default=["all"], help="'all' or check ids")
    p_ver.add_argument("--n", type=int, default=SuiteConfig.n)
    p_ver.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_ver.add_argument("--json", help="write the JSON report document here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one per process serves every call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Each command returns its exit code and the text for stdout, which is printed last.
    command = {"catalog": _cmd_catalog, "transform": _cmd_transform, "verify": _cmd_verify}[args.command]
    try:
        code, text = command(args)
    except FracCalcError as exc:
        print(f"fraccalc: error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        if text:
            print(text, flush=True)
    except BrokenPipeError:
        # A reader that closed stdout (``| head``) ends the output; the rest goes to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
