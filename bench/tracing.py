"""Spans around fraccalc's public functions, installed from outside the package.

A :class:`Tracer` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, round).  The
wrapper is installed in every ``fraccalc`` namespace that holds the function
by name, because ``harness``, ``spaces`` and ``cli`` import operators by name
and ``catalog`` imports the special functions by name; patching only the
defining module would miss those calls.  Construction of ``GridFunction`` is
traced by wrapping the class's ``__init__``.  Only public names are wrapped,
so renaming private helpers inside the package does not break the tracer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

from arith import self_time

LAYERS = ("cli", "harness", "operators", "spaces", "catalog", "special", "grid")

# What a span keeps from its call's return value: the pairs a Hölder scan
# examined, and the id of the check a harness report belongs to.
_RESULT_EXTRAS: dict[str, Callable[[object], object]] = {
    "spaces.holder_seminorm": lambda r: getattr(r, "pairs_examined", None),
}
_HARNESS_EXTRA = lambda r: getattr(r, "check_id", None)  # noqa: E731


def _public_functions(module) -> list[tuple[str, Callable]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Records spans while installed; spans stay in memory until written."""

    def __init__(self, package) -> None:
        self.package = package
        # Each span is [name, start, end, parent index or -1, round, extra].
        self.spans: list[list] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in _public_functions(module):
                self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        grid_cls = sys.modules[f"{package.__name__}.grid"].GridFunction
        self._grid_cls = grid_cls
        self._grid_init = grid_cls.__init__
        self._grid_wrapper = self._wrap("grid.GridFunction", grid_cls.__init__)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _RESULT_EXTRAS.get(name, _HARNESS_EXTRA if name.startswith("harness.") else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        self._grid_cls.__init__ = self._grid_wrapper
        self._patches.append((self._grid_cls, "__init__", self._grid_init))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tround\n")
            for i, (name, start, end, parent, rnd, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{rnd}\n")


def profile_rounds(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per-round sums over spans, keyed by metric name.

    ``<layer>.<fn>.s`` is self time and ``<layer>.<fn>.calls`` the call
    count; ``<layer>.self_s`` is the layer's total self time; harness checks
    add ``harness.<check_id>.s`` with the check's whole duration;
    ``trace.top_level_s`` sums the spans no other span encloses.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    rounds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, rnd, extra) in enumerate(spans):
        acc = rounds[rnd]
        own = self_time(start, end, children.get(i, ()))
        acc[f"{name}.s"] += own
        acc[f"{name}.calls"] += 1
        acc[f"{name.split('.', 1)[0]}.self_s"] += own
        if parent < 0:
            acc["trace.top_level_s"] += end - start
        if name.startswith("harness.") and extra is not None:
            acc[f"harness.{extra}.s"] += end - start
        elif name == "spaces.holder_seminorm" and extra is not None:
            acc["spaces.holder_seminorm.pairs_examined"] += extra
    return rounds
