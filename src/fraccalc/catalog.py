"""Catalog of analytic test functions with known fractional transforms.

Each entry bundles a vectorized evaluator with whatever closed-form
fractional integrals/derivatives and Taylor data it has, so operators can be
checked against exact answers.  Closed forms are anchored to the base point
``t0`` the entry was built with (default 0).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, UnknownNameError
from .grid import GridFunction
from .special import gamma, mittag_leffler, rgamma, weierstrass

ClosedForm = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AnalyticFunction:
    """A named scalar function with optional exact fractional transforms.

    ``taylor`` holds the derivatives at the base point, ``(f(t0), f'(t0), ...)``,
    up to the highest order that exists and is known, and stops at order 170;
    ``None`` means no usable Taylor data at all.  The closed-form slots may be
    ``None`` when the transform has no elementary expression (or none exists,
    as for the RL derivative of a jump).  ``anchors`` carries, per closed form, a verbatim
    quote of the identity it implements, used by the docs and the harness
    cross-reference test.
    """

    name: str
    label: str
    params: dict[str, float] = field(repr=False)
    base_point: float
    eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    taylor: tuple[float, ...] | None = None
    rl_integral: ClosedForm | None = field(default=None, repr=False)
    rl_derivative: ClosedForm | None = field(default=None, repr=False)
    caputo_derivative: ClosedForm | None = field(default=None, repr=False)
    anchors: dict[str, str] = field(default_factory=dict, repr=False)
    summary: str = ""

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        return self.eval(np.asarray(t, dtype=float))

    def describe(self) -> str:
        lines = [f"{self.label}", f"  {self.summary}"]
        if self.params:
            pairs = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            lines.append(f"  parameters: {pairs}")
        if self.taylor is not None:
            lines.append(f"  taylor at start: {list(self.taylor)}")
        for slot, title in (
            ("rl_integral", "fractional integral"),
            ("rl_derivative", "fractional derivative"),
            ("caputo_derivative", "Caputo derivative"),
        ):
            if getattr(self, slot) is not None:
                anchor = self.anchors.get(slot, "")
                lines.append(f"  closed {title}: {anchor}" if anchor else f"  closed {title}: available")
            else:
                lines.append(f"  closed {title}: none")
        return "\n".join(lines)


def _positive_power(base: np.ndarray, expo: float) -> np.ndarray:
    # base**expo for base >= 0 where expo may be negative: 0**negative -> inf
    # without a warning, 0**0 -> 1.
    with np.errstate(divide="ignore"):
        return np.power(base, expo)


def _coerce_params(name: str, params: dict | None, allowed: dict[str, float | None]) -> dict[str, float]:
    given = dict(params or {})
    out: dict[str, float] = {}
    for key, default in allowed.items():
        if key in given:
            try:
                out[key] = float(given.pop(key))
            except (TypeError, ValueError):
                raise InvalidParameterError(f"{name}: parameter {key!r} is not a number") from None
            if not math.isfinite(out[key]):
                raise InvalidParameterError(f"{name}: parameter {key!r} must be finite, got {out[key]}")
        elif default is None:
            raise InvalidParameterError(f"{name}: missing required parameter {key!r}")
        else:
            out[key] = default
    if given:
        raise InvalidParameterError(f"{name}: unknown parameter(s) {sorted(given)}")
    return out


# Each maker takes the coerced parameters in the order of its spec and returns
# the entry's own fields; `builtin` adds the name, label, parameters and base point.


def _constant(c: float, t0: float) -> dict:
    def rl_int(order: float, t: np.ndarray) -> np.ndarray:
        return c * rgamma(order + 1.0) * _positive_power(np.asarray(t, float) - t0, order)

    def rl_der(order: float, t: np.ndarray) -> np.ndarray:
        # At integer orders 1/gamma(1 - order) is 0, and so is the derivative, at t0 too.
        coef = c * rgamma(1.0 - order)
        return coef * _positive_power(np.asarray(t, float) - t0, -order) if coef else np.zeros_like(t, float)

    def cap_der(order: float, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), c if order == 0.0 else 0.0)

    return dict(
        eval=lambda t: np.full_like(np.asarray(t, dtype=float), c),
        taylor=(c, 0.0, 0.0, 0.0),
        rl_integral=rl_int,
        rl_derivative=rl_der,
        caputo_derivative=cap_der,
        anchors={
            "rl_derivative": r"D^\alpha_{t_0,t}c=\dfrac{(t-t_0)^{-\alpha}c}{\Gamma(1-\alpha)}",
            "caputo_derivative": r"cD^\alpha_{t_0,t}c=0",
        },
        summary=f"constant value {c:g}",
    )


def _power(expo: float, t0: float) -> dict:
    if expo < 0.0:
        raise InvalidParameterError(f"power: need exponent p >= 0, got {expo}")
    if expo == 0.0:
        return {**_constant(1.0, t0), "summary": "(t - t0)^0, i.e. the constant 1"}

    def rl_int(order: float, t: np.ndarray) -> np.ndarray:
        coef = gamma(expo + 1.0) * rgamma(expo + order + 1.0)
        return coef * _positive_power(np.asarray(t, float) - t0, expo + order)

    def rl_der(order: float, t: np.ndarray) -> np.ndarray:
        coef = gamma(expo + 1.0) * rgamma(expo - order + 1.0)
        if coef == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        return coef * _positive_power(np.asarray(t, float) - t0, expo - order)

    def cap_der(order: float, t: np.ndarray) -> np.ndarray:
        m = math.ceil(order)
        if expo == math.floor(expo):
            if m > expo:
                return np.zeros_like(np.asarray(t, dtype=float))
            return rl_der(order, t)
        if order >= expo + 1.0:
            raise InvalidParameterError(
                f"power: no closed Caputo form for order {order} with exponent {expo}"
            )
        return rl_der(order, t)

    # An integer p has p! at order p and 0 elsewhere, listed through order max(p, 3) like the constant's but
    # only up to 170: 171! is not a float, so a Caputo order past 171 finds no Taylor data and is refused.
    taylor = (0.0,)  # f(t0) only, for a non-integer p
    if (p := int(expo)) == expo:
        taylor = tuple(float(math.factorial(p)) if k == p else 0.0 for k in range(max(min(p, 170), 3) + 1))
    return dict(
        eval=lambda t: _positive_power(np.asarray(t, float) - t0, expo),
        taylor=taylor,
        rl_integral=rl_int,
        rl_derivative=rl_der,
        caputo_derivative=cap_der,
        anchors={
            "rl_derivative": r"D_{0,t}^\beta f(t)=\dfrac{\Gamma(\alpha+1)}{\Gamma(\alpha-\beta+1)}t^{\alpha-\beta}",
        },
        summary=f"(t - t0)^{expo:g}",
    )


def _ml_exp(a: float, t0: float) -> dict:
    if not (0.3 <= a <= 2.0):
        raise InvalidParameterError(f"ml_exp: alpha must lie in [0.3, 2], got {a}")

    def series(s: float, t: np.ndarray) -> np.ndarray:
        # (t - t0)^s E_{a,1+s}((t - t0)^a) = sum_k (t - t0)^(a k + s) / gamma(a k + 1 + s).  While
        # 1 + s is a pole of gamma the leading term is 0: E_{a,b}(z) = z E_{a,a+b}(z) peels it off,
        # so the value at t0 is the series' limit there, not 0 * inf.
        while 1.0 + s <= 0.0 and (1.0 + s).is_integer():
            s += a
        x = np.asarray(t, dtype=float) - t0
        return _positive_power(x, s) * mittag_leffler(a, 1.0 + s, x**a)

    def cap_der(order: float, t: np.ndarray) -> np.ndarray:
        # Above order 0 the form drops the Taylor polynomial of degree m - 1 = ceil(order) - 1 at t0:
        # the terms k < K, where a k <= m - 1.  For K > 1 that needs f^(m-1)(t0), which (t - t0)^a
        # lacks unless a is an integer.
        if order <= 0.0:
            return series(0.0, t)
        K = math.floor((math.ceil(order) - 1) / a) + 1
        if K > 1 and not a.is_integer():
            raise InvalidParameterError(f"ml_exp: no closed Caputo form for order {order} with alpha {a}")
        return series(a * K - order, t)

    return dict(
        eval=lambda t: series(0.0, t),
        # Only the derivatives that exist at t0: (t - t0)^a has none past order a unless a is an integer.
        taylor=(1.0, 1.0, 1.0, 1.0) if a == 1.0 else (1.0, 0.0, 1.0, 0.0) if a == 2.0 else (1.0, 0.0) if a > 1.0 else (1.0,),
        rl_integral=series,
        rl_derivative=lambda order, t: series(-order, t),
        caputo_derivative=cap_der,
        anchors={
            "caputo_derivative": r"cD^{\beta}_{t_0,t}E_\alpha\big((t-t_0)^\alpha\big)=(t-t_0)^{\alpha-\beta}E_{\alpha,1+\alpha-\beta}\big((t-t_0)^\alpha\big)",
        },
        summary=f"Mittag-Leffler exponential E_alpha((t - t0)^alpha), alpha={a:g}",
    )


def _step(tj: float, t0: float) -> dict:
    if tj <= t0:
        raise InvalidParameterError(f"step: need t_jump > t0, got t_jump={tj}, t0={t0}")

    def rl_int(order: float, t: np.ndarray) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        shifted = np.where(tt >= tj, tt - tj, 0.0)
        return np.where(tt >= tj, rgamma(order + 1.0) * np.power(shifted, order), 0.0)  # 0**0 is 1

    # The jump admits no continuous derivative of any positive order: no derivative forms.
    return dict(
        eval=lambda t: (np.asarray(t, dtype=float) >= tj).astype(float),
        taylor=(0.0,),
        rl_integral=rl_int,
        anchors={
            "rl_integral": r"has no representative in $C^0([t_0, t_1], \mathbb{R})$",
        },
        summary=f"unit jump at t={tj:g} (0 before, 1 from the jump on)",
    )


def _weierstrass_shifted(a: float, sigma: float, t0: float) -> dict:
    if not (0.0 < a < 1.0):
        raise InvalidParameterError(f"weierstrass_shifted: need 0 < alpha < 1, got {a}")
    if sigma <= 1.0:
        raise InvalidParameterError(f"weierstrass_shifted: need sigma > 1, got {sigma}")
    w0 = weierstrass(a, sigma, t0)
    # Nowhere differentiable: no Taylor data and no closed forms exist.
    return dict(
        eval=lambda t: weierstrass(a, sigma, t) - w0,
        summary=(
            f"lacunary cosine sum W(t) - W(t0), alpha={a:g}, sigma={sigma:g}; "
            "Hoelder-continuous of its own order but nowhere smoother"
        ),
    )


# name -> (maker, {parameter: default, None if required}, the parameters `describe` shows it for)
_ENTRIES = {
    "constant": (_constant, {"c": 1.0, "t0": 0.0}, {}),
    "power": (_power, {"p": None, "t0": 0.0}, {"p": 0.5}),
    "ml_exp": (_ml_exp, {"alpha": 0.7, "t0": 0.0}, {}),
    "step": (_step, {"t_jump": None, "t0": 0.0}, {"t_jump": 0.5}),
    "weierstrass_shifted": (_weierstrass_shifted, {"alpha": 0.5, "sigma": 2.0, "t0": 0.0}, {}),
}


def _entry(name: str) -> tuple[Callable[..., dict], dict[str, float | None], dict[str, float]]:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown catalog entry {name!r}; known: {', '.join(builtin_names())}"
        ) from None


def builtin_names() -> list[str]:
    return sorted(_ENTRIES)


def describe_builtin(name: str) -> str:
    """Human-readable description of a catalog entry, without needing params.

    Required parameters are shown as such; the closed-form summary below the
    parameter list is rendered for a representative instantiation.
    """
    _, spec, example = _entry(name)
    parts = [
        f"{key} (required)" if default is None else f"{key} (default {default:g})"
        for key, default in spec.items()
    ]
    lines = [name, f"  parameters: {', '.join(parts)}"]
    if example:
        shown = ",".join(f"{k}={v:g}" for k, v in sorted(example.items()))
        lines.append(f"  shown below for: {name}:{shown}")
    lines.extend("  " + ln for ln in builtin(name, example).describe().splitlines())
    return "\n".join(lines)


def builtin(name: str, params: dict | None = None) -> AnalyticFunction:
    """Construct a catalog entry by name; unknown names raise UnknownNameError."""
    maker, spec, _ = _entry(name)
    p = _coerce_params(name, params, spec)
    shown = sorted((k, v) for k, v in p.items() if not (k == "t0" and v == 0.0))
    label = name + "(" + ", ".join(f"{k}={v:g}" for k, v in shown) + ")"
    return AnalyticFunction(name=name, label=label, params=p, base_point=p["t0"], **maker(*p.values()))


def sample(f: AnalyticFunction, t0: float, t1: float, n: int) -> GridFunction:
    """Evaluate ``f`` on the uniform grid with ``n`` nodes over ``[t0, t1]``.

    The grid must start at the entry's base point, since that is where its
    closed forms and Taylor data are anchored.  ``n`` must be an integer >= 2
    and ``t1 - t0`` positive and finite, or InvalidParameterError is raised.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidParameterError(f"need an integer number of grid nodes, got {n!r}") from None
    if n < 2:
        raise InvalidParameterError(f"need n >= 2 grid nodes, got {n}")
    if not (t1 > t0 and math.isfinite(float(t1) - float(t0))):
        raise InvalidParameterError(f"need t1 > t0 and a finite t1 - t0, got [{t0}, {t1}]")
    if t0 != f.base_point:
        raise InvalidParameterError(
            f"{f.label} is anchored at t0={f.base_point:g}; sampling must start there, not {t0:g}"
        )
    t = np.linspace(t0, t1, n)
    return GridFunction(t0, t1, f(t))


def taylor_for_order(f: AnalyticFunction, order_ceil: int) -> Sequence[float]:
    """First ``order_ceil`` Taylor coefficients of ``f`` at its base point.

    Raises if the entry has no (or not enough) Taylor data for the request.
    """
    if f.taylor is None:
        raise InvalidParameterError(f"{f.label} has no Taylor data at its base point")
    if len(f.taylor) < order_ceil:
        raise InvalidParameterError(
            f"{f.label} has Taylor data only up to order {len(f.taylor) - 1}, need {order_ceil - 1}"
        )
    return f.taylor[:order_ceil]
