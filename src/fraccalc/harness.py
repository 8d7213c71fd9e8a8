"""Named verification checks: one per identity / embedding / counterexample.

Every check builds its inputs from the catalog, runs the grid operators, and
returns a :class:`CheckReport` with ``passed == (max_error <= tolerance)``.
Single-assertion checks report the raw sup-norm error against a frozen
tolerance.  Checks that bundle several assertions report *normalized* ratios
(each sub-error divided by its own frozen tolerance, booleans mapped to 0.0
pass / 2.0 fail) with ``tolerance = 1.0``, which keeps the pass/fail invariant
exact while preserving every sub-diagnostic in ``details``.

Tolerances are not theory: each was frozen from a grid-refinement study
against the closed-form oracles before being committed here.

The ``anchor`` field of each report quotes, verbatim, the identity the check
validates, so reports can be traced back to their source statement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import catalog
from .errors import FracCalcError, InvalidParameterError, UnknownNameError
from .grid import GridFunction, _count
from .operators import (
    caputo_derivative,
    frac_integral,
    leibniz_caputo,
    leibniz_rl,
    marchaud_derivative,
    rl_derivative,
)
from .spaces import (
    EXCLUDED_START_NODES,
    _space_norm,
    continuous_at_start,
    holder_exponent,
    holder_seminorm,
    rl_norm,
)
from .special import rgamma

# Nodes of the *coarse* grid ahead of which refinement levels are compared;
# deeper than the per-grid exclusion window so that all levels are compared on
# one fixed physical subinterval.
_PROTOCOL_WINDOW = 32

_W = EXCLUDED_START_NODES

_FAIL = 2.0  # normalized ratio assigned to a failed boolean sub-assertion

# Smallest grid any check that takes ``n`` (and the suite) accepts.
_MIN_N = 65


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check."""

    check_id: str
    anchor: str
    grid_n: int
    max_error: float
    tolerance: float
    passed: bool
    details: Mapping[str, float | bool | str]

    def to_dict(self) -> dict:
        def safe(x):
            if isinstance(x, float) and not math.isfinite(x):
                return None
            if isinstance(x, (np.floating, np.integer, np.bool_)):
                return x.item()
            return x

        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "grid_n": self.grid_n,
            "max_error": safe(float(self.max_error)),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "details": {k: safe(v) for k, v in self.details.items()},
        }


def _report(check_id: str, anchor: str, grid_n: int, max_error: float, tolerance: float, details: dict) -> CheckReport:
    max_error = float(max_error)
    return CheckReport(
        check_id=check_id,
        anchor=anchor,
        grid_n=int(grid_n),
        max_error=max_error,
        tolerance=float(tolerance),
        passed=bool(max_error <= tolerance),
        details=details,
    )


def _power(p: float, n: int, scale: float = 1.0) -> GridFunction:
    f = catalog.builtin("power", {"p": p})
    g = catalog.sample(f, 0.0, 1.0, n)
    return g if scale == 1.0 else g.with_values(scale * g.values)


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def check_semigroup(n: int) -> CheckReport:
    """J^0.3[J^0.4 f] versus J^0.7 f for f(t) = t on [0, 1]."""
    n = _count(n, _MIN_N, "check_semigroup needs n")
    alpha, beta = 0.3, 0.4
    f = catalog.builtin("power", {"p": 1.0})
    g = catalog.sample(f, 0.0, 1.0, n)
    composed = frac_integral(frac_integral(g, beta), alpha)
    direct = frac_integral(g, alpha + beta)
    err = _sup(composed.values - direct.values)
    details: dict = {"composed_vs_direct": err}
    closed = f.rl_integral(alpha + beta, g.times())
    details["direct_vs_closed"] = _sup(direct.values - closed)
    details["composed_vs_closed"] = _sup(composed.values - closed)
    return _report(
        "semigroup",
        r"J_{t_0,t}^{\alpha+\beta} f(t)=J_{t_0,t}^{\alpha}\left[J_{t_0,t}^{\beta} f(t)\right]",
        n,
        err,
        1e-4,
        details,
    )


def check_integral_shift(n: int) -> CheckReport:
    """J^0.5 f versus J^1.5 f', f = t^2, whose Taylor boundary term f(0) vanishes."""
    n = _count(n, _MIN_N, "check_integral_shift needs n")
    alpha = 0.5
    lhs = frac_integral(_power(2.0, n), alpha).values
    rhs = frac_integral(_power(1.0, n, scale=2.0), alpha + 1).values
    err = _sup(lhs - rhs)
    return _report(
        "integral_shift",
        r"J_{t_0,t}^{\alpha} f(t)=J_{t_0,t}^{\alpha+m} f^{(m)}(t)",
        n,
        err,
        1e-4,
        {"m": 1.0, "alpha": alpha},
    )


def check_derivative_commute(n: int) -> CheckReport:
    """d/dt of J^0.5 f, by the difference stencil of rl_derivative at order 1,
    versus J^0.5 f', f = t^2."""
    n = _count(n, _MIN_N, "check_derivative_commute needs n")
    alpha = 0.5
    lhs = rl_derivative(frac_integral(_power(2.0, n), alpha), 1).values
    rhs = frac_integral(_power(1.0, n, scale=2.0), alpha).values
    # The stencil is one-sided at the ends; exclude those nodes along with
    # the start window.
    err = _sup(lhs[_W : n - 2] - rhs[_W : n - 2])
    return _report(
        "derivative_commute",
        r"\dfrac{d^{m}}{dt^{m}}\bigg[J_{t_0,t}^{\alpha} f(t)\bigg]=J_{t_0,t}^{\alpha} f^{(m)}(t)",
        n,
        err,
        1e-4,
        {"m": 1.0, "alpha": alpha},
    )


def check_inversion(n: int) -> CheckReport:
    """J^0.6[D^0.6 f] versus f for f = t^1.5, off the start window."""
    n = _count(n, _MIN_N, "check_inversion needs n")
    alpha = 0.6
    g = _power(1.5, n)
    d = rl_derivative(g, alpha)
    recon = frac_integral(d, alpha)
    err = _sup(recon.values[_W:] - g.values[_W:])
    return _report(
        "inversion",
        r"J_{t_0,t}^{\alpha}\Big[D_{t_0,t}^\alpha f(t)\Big]=f(t)",
        n,
        err,
        5e-3,
        {"alpha": alpha},
    )


def check_vanishing_at_start() -> CheckReport:
    """Members of the order-0.5 space carry f(t0) = 0; a constant must be rejected."""
    n = 1025
    starts = [_power(p, 257).values[0] for p in (0.5, 0.7, 1.0, 1.5)]
    starts.append(catalog.sample(catalog.builtin("constant", {"c": 0.0}), 0.0, 1.0, 257).values[0])
    worst = max(abs(float(s)) for s in starts)

    const = catalog.sample(catalog.builtin("constant", {"c": 1.0}), 0.0, 1.0, n)
    d = rl_derivative(const, 0.5)
    rejected = not continuous_at_start(d)
    ratios = [worst / 1e-12, 0.0 if rejected else _FAIL]
    return _report(
        "vanishing_at_start",
        r"f^{(j)}(t_0)= 0",
        n,
        max(ratios),
        1.0,
        {"worst_start_value": worst, "constant_rejected": rejected},
    )


def check_hardy_littlewood(n: int) -> CheckReport:
    """The Hölder-0.7 power t^0.7 is a member of the order-0.3 space."""
    n = _count(n, _MIN_N, "check_hardy_littlewood needs n")
    alpha, beta = 0.3, 0.7
    entry = catalog.builtin("power", {"p": beta})
    f = catalog.sample(entry, 0.0, 1.0, n)
    d = marchaud_derivative(f, alpha)
    closed = entry.rl_derivative(alpha, f.times())
    err = _sup(d.values[_W:] - closed[_W:])
    cont = continuous_at_start(d)
    starts_at_zero = float(d.values[0]) == 0.0

    # Strictness witness: t^alpha lies in the order-alpha space, but the Hölder-beta
    # quotients of the sampled t^alpha against t0 grow from node 64 to node 1.  The
    # growth is recorded as a diagnostic only (no rate is asserted).
    w = _power(alpha, n)
    quotients = np.abs(w.values[[1, 64]] - w.values[0]) / (w.times()[[1, 64]] - w.t0) ** beta
    blowup = float(quotients[0] / quotients[1])

    tol_err = 5e-3
    ratios = [err / tol_err, 0.0 if cont else _FAIL, 0.0 if starts_at_zero else _FAIL]
    return _report(
        "hardy_littlewood",
        r"H^{0,\beta}_{t_0}([t_0,t_1];X) \subsetneq RL^{\alpha}([t_0,t_1];X)",
        n,
        max(ratios),
        1.0,
        {
            "closed_form_error": err,
            "continuous_at_start": cont,
            "starts_at_zero": starts_at_zero,
            "strictness_blowup_ratio": blowup,
        },
    )


def check_embedding_constant(seed: int) -> CheckReport:
    """Order-0.5 seminorm of J^0.5 h bounded by 2 sup|h| / Gamma(1.5), over 20
    rough random h on 1025 nodes.  Each h interpolates 16 equispaced knot
    values, drawn row by row from ``random.Random(seed).uniform(-1, 1)``, with
    the first set to 0.  Each nonzero h is divided by its bound first; J is
    linear, so the worst ratio is the seminorm of one X-valued J over the
    stacked trials, with the sup norm on X."""
    seed = _count(seed, 0, "embedding_constant needs seed")
    alpha, trials, n = 0.5, 20, 1025
    knots = np.linspace(0.0, 1.0, 16)
    t = np.linspace(0.0, 1.0, n)
    rng = random.Random(seed)
    kv = np.array([[rng.uniform(-1.0, 1.0) for _ in knots] for _ in range(trials)])
    kv[:, 0] = 0.0
    h = np.array([np.interp(t, knots, row) for row in kv])
    bound = 2.0 * np.max(np.abs(h), axis=1) * rgamma(alpha + 1.0)
    rows = h[bound > 0.0] / bound[bound > 0.0, None]
    worst = holder_seminorm(frac_integral(GridFunction(0.0, 1.0, rows), alpha), alpha).value
    return _report(
        "embedding_constant",
        r"g(w) \leq 2",
        n,
        max(worst - 1.0, 0.0),
        0.05,
        {"worst_ratio": worst, "trials": float(trials), "seed": float(seed)},
    )


def check_leibniz(n: int, caputo: bool) -> CheckReport:
    """Product formula of order 0.5 against closed forms: RL on t^0.6 * t^0.8,
    the derivative of t^1.4; Caputo on (1 + t^0.6)(2 + t^0.8), whose derivative
    is 2 D t^0.6 + D t^0.8 + D t^1.4.  ``grid_derivative_gap`` is the sup past
    node 8 of the formula minus the grid derivative of the product."""
    n = _count(n, _MIN_N, "check_leibniz needs n")
    alpha = 0.5
    u0, v0 = (1.0, 2.0) if caputo else (0.0, 0.0)
    u, v = _power(0.6, n), _power(0.8, n)
    u, v = u.with_values(u0 + u.values), v.with_values(v0 + v.values)
    d = lambda p: catalog.builtin("power", {"p": p}).rl_derivative(alpha, u.times())  # noqa: E731
    closed = v0 * d(0.6) + u0 * d(0.8) + d(1.4) if caputo else d(1.4)
    uv = u.with_values(u.values * v.values)
    out = leibniz_caputo(u, v, alpha) if caputo else leibniz_rl(u, v, alpha)
    grid = caputo_derivative(uv, alpha, (u0 * v0,)) if caputo else rl_derivative(uv, alpha)
    err = _sup(out.values[_W:] - closed[_W:])
    anchor = (
        r"cD^{\alpha}_{0,t}(uv)(t) = u(t)\,cD^{\alpha}_{0,t}v(t) + v(t)\,cD^{\alpha}_{0,t}u(t)"
        if caputo
        else r"D^{\alpha}_{0,t}(uv)(t)=u(t)D^{\alpha}_{0,t}v(t)+v(t)D^{\alpha}_{0,t}u(t)"
    )
    return _report(
        "leibniz_caputo" if caputo else "leibniz_rl",
        anchor,
        n,
        err,
        1e-2,
        {"alpha": alpha, "caputo": bool(caputo), "grid_derivative_gap": _sup(out.values[_W:] - grid.values[_W:])},
    )


def check_banach_algebra(n: int) -> CheckReport:
    """Products of order-0.5 members stay members: D^0.5(t^0.7 t^0.9) continuous, start limit 0."""
    n = _count(n, _MIN_N, "check_banach_algebra needs n")
    alpha = 0.5
    u = _power(0.7, n)
    v = _power(0.9, n)
    w = u.with_values(u.values * v.values)
    d = rl_derivative(w, alpha)
    cont = continuous_at_start(d)
    limit_estimate = _sup(d.values[_W : _W + 16]) if not d.singular_start else math.inf
    details: dict = {"start_limit_estimate": limit_estimate, "continuous_at_start": cont}
    try:
        nu, nv, nw = rl_norm(u, alpha), rl_norm(v, alpha), _space_norm(w, alpha, "derivative", lambda o: d)
        details["product_norm"] = nw
        details["submultiplicative_ratio"] = nw / (nu * nv)
    except FracCalcError as exc:  # norms are diagnostics; membership is asserted above
        details["norm_error"] = f"{type(exc).__name__}: {exc}"
    ratios = [limit_estimate / 1e-2, 0.0 if cont else _FAIL]
    return _report(
        "banach_algebra",
        r"RL^\alpha([t_0,t_1], \mathbb{R})$ and $C^\alpha([t_0,t_1], \mathbb{R})$ are Banach algebras",
        n,
        max(ratios),
        1.0,
        details,
    )


def _interior_jump_detected(d: np.ndarray, jump_index: int) -> bool:
    # Consecutive-node increments within 8 nodes of the jump, against the
    # spread of the trusted values: a function with continuous derivative
    # keeps per-cell increments orders of magnitude below its overall spread.
    lo = max(jump_index - 8, 1)
    hi = min(jump_index + 8, d.size - 1)
    near = float(np.max(np.abs(np.diff(d[lo : hi + 1]))))
    spread = float(np.max(d[_W:]) - np.min(d[_W:]))
    return near >= 0.25 * max(spread, 1e-30)


def check_counterexample_step(n: int) -> CheckReport:
    """J^0.5 of a jump at t = 0.5: Hölder exponent 0.5, derivative reproducing
    the jump, and an interior discontinuity that expels it from the order-0.5 space."""
    n = _count(n, _MIN_N, "check_counterexample_step needs n")
    alpha, t_jump = 0.5, 0.5
    entry = catalog.builtin("step", {"t_jump": t_jump})
    step = catalog.sample(entry, 0.0, 1.0, n)
    g = frac_integral(step, alpha)
    expo = holder_exponent(g)
    d = rl_derivative(g, alpha)
    jump_index = int(np.searchsorted(step.times(), t_jump))
    keep = np.ones(n, dtype=bool)
    keep[:_W] = False
    keep[max(jump_index - _W, 0) : jump_index + _W + 1] = False
    recon_err = _sup(d.values[keep] - step.values[keep])
    jumped = _interior_jump_detected(d.values, jump_index)
    ratios = [abs(expo - alpha) / 0.05, recon_err / 5e-2, 0.0 if jumped else _FAIL]
    return _report(
        "counterexample_step",
        r"has no representative in $C^0([t_0, t_1], \mathbb{R})$",
        n,
        max(ratios),
        1.0,
        {
            "holder_exponent": expo,
            "reconstruction_error": recon_err,
            "interior_jump_detected": jumped,
            "t_jump": t_jump,
        },
    )


def check_weierstrass_nonmembership() -> CheckReport:
    """The lacunary cosine sum (alpha = 0.5, sigma = 2) has Hölder exponent 0.5, but its
    order-0.5 derivative estimates on 1025, 2049 and 4097 nodes never settle; the
    refinement quadruples the grid, so it starts at 1025, not at the suite's n."""
    alpha, sigma, n = 0.5, 2.0, 1025
    entry = catalog.builtin("weierstrass_shifted", {"alpha": alpha, "sigma": sigma})
    # The n and 2n-1 node grids are every fourth and every second node of the
    # 4n-3 node grid, bit for bit, so one sampling serves all three levels.
    fine = catalog.sample(entry, 0.0, 1.0, 4 * n - 3)
    samples = [GridFunction(0.0, 1.0, fine.values[::s]) for s in (4, 2)] + [fine]
    derivs = [marchaud_derivative(s, alpha).values for s in samples]
    # Compare consecutive levels on the coarse-aligned nodes past the protocol
    # window (a fixed physical subinterval, the same for both comparisons).
    d0, d1, d2 = derivs
    dev1 = _sup(d0[_PROTOCOL_WINDOW:] - d1[2 * _PROTOCOL_WINDOW :: 2])
    dev2 = _sup(d1[2 * _PROTOCOL_WINDOW :: 2] - d2[4 * _PROTOCOL_WINDOW :: 4])
    expo = holder_exponent(samples[-1])
    # Non-convergence: the deviation fails to shrink by >= 1.5x, and is not
    # trivially zero.
    r_conv = _FAIL if dev2 <= 1e-12 else dev1 / (1.5 * dev2)
    ratios = [abs(expo - alpha) / 0.1, r_conv]
    return _report(
        "weierstrass_nonmembership",
        r"does not admit a fractional derivative of order $\alpha$ at any point",
        n,
        max(ratios),
        1.0,
        {
            "holder_exponent": expo,
            "deviation_1": dev1,
            "deviation_2": dev2,
            "sigma": sigma,
        },
    )


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Frozen parameters for a reproducible suite run, admitted here.  ``checks`` takes ids,
    ``check_``-prefixed ids and ``all`` (None: all; a bare string is one of them) and keeps
    registry ids without repeats; ``n`` must be an integer >= 65 and ``seed`` an integer >= 0, the
    ``random.Random`` seed of embedding_constant's knot values."""

    n: int = 2049
    seed: int = 7
    checks: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        checks = (self.checks,) if isinstance(self.checks, str) else self.checks
        tokens = ("all",) if checks is None else tuple(checks)
        for t in tokens:
            if t != "all" and not (isinstance(t, str) and t.removeprefix("check_") in _REGISTRY):
                raise UnknownNameError(f"unknown check id {t!r}; known: all, {', '.join(check_ids())}")
        ids = _REGISTRY if "all" in tokens else dict.fromkeys(t.removeprefix("check_") for t in tokens)
        n, seed = _count(self.n, _MIN_N, "suite needs n"), _count(self.seed, 0, "suite needs seed")
        for name, value in (("checks", tuple(ids)), ("n", n), ("seed", seed)):
            object.__setattr__(self, name, value)


# Each lambda looks its check up at call time, so a wrapper set on the module attribute runs.
_REGISTRY: dict[str, Callable[[SuiteConfig], CheckReport]] = {
    "semigroup": lambda c: check_semigroup(c.n),
    "integral_shift": lambda c: check_integral_shift(c.n),
    "derivative_commute": lambda c: check_derivative_commute(c.n),
    "inversion": lambda c: check_inversion(c.n),
    "vanishing_at_start": lambda c: check_vanishing_at_start(),
    "hardy_littlewood": lambda c: check_hardy_littlewood(c.n),
    "embedding_constant": lambda c: check_embedding_constant(c.seed),
    "leibniz_rl": lambda c: check_leibniz(c.n, caputo=False),
    "leibniz_caputo": lambda c: check_leibniz(c.n, caputo=True),
    "banach_algebra": lambda c: check_banach_algebra(c.n),
    "counterexample_step": lambda c: check_counterexample_step(c.n),
    "weierstrass_nonmembership": lambda c: check_weierstrass_nonmembership(),
}


def check_ids() -> list[str]:
    return list(_REGISTRY)


def _run_one(check_id: str, config: SuiteConfig) -> CheckReport:
    try:
        return _REGISTRY[check_id](config)
    except Exception as exc:
        details = {"error": f"{type(exc).__name__}: {exc}"}
        return _report(check_id, "(check crashed before producing a report)", config.n, math.inf, 1.0, details)


def run_suite(config: SuiteConfig | None = None) -> list[CheckReport]:
    """Run the selected checks one after another with frozen defaults; never
    aborts on a crash.

    Reports come back in the order the checks were selected (registry order
    for the full suite).
    """
    config = SuiteConfig() if config is None else config
    if not isinstance(config, SuiteConfig):
        raise InvalidParameterError(f"run_suite needs a SuiteConfig or None, got {type(config).__name__}")
    return [_run_one(cid, config) for cid in config.checks]
