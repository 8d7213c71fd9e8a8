"""Catalog of analytic test functions with known fractional transforms.

Each entry bundles a vectorized evaluator with whatever closed-form
fractional integrals/derivatives and Taylor data it has, so operators can be
checked against exact answers.  Closed forms are anchored to the base point
``t0`` the entry was built with (default 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, UnknownNameError
from .grid import GridFunction
from .special import gamma, mittag_leffler, rgamma, weierstrass

ClosedForm = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AnalyticFunction:
    """A named scalar function with optional exact fractional transforms.

    ``taylor`` holds the derivatives at the base point, ``(f(t0), f'(t0), ...)``,
    up to the highest order that exists and is known; ``None`` means no usable
    Taylor data at all.  The closed-form slots may be ``None`` when the
    transform has no elementary expression (or none exists, as for the RL
    derivative of a jump).  ``anchors`` carries, per closed form, a verbatim
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
        elif default is None:
            raise InvalidParameterError(f"{name}: missing required parameter {key!r}")
        else:
            out[key] = default
    if given:
        raise InvalidParameterError(f"{name}: unknown parameter(s) {sorted(given)}")
    return out


def _label(name: str, params: dict[str, float]) -> str:
    shown = {k: v for k, v in params.items() if not (k == "t0" and v == 0.0)}
    if not shown:
        return name
    return name + "(" + ", ".join(f"{k}={v:g}" for k, v in sorted(shown.items())) + ")"


# name -> {param: default}, with None marking a required parameter; the second
# table supplies a representative value so `describe` can show closed forms.
_PARAM_SPECS: dict[str, dict[str, float | None]] = {
    "constant": {"c": 1.0, "t0": 0.0},
    "power": {"p": None, "t0": 0.0},
    "ml_exp": {"alpha": 0.7, "t0": 0.0},
    "step": {"t_jump": None, "t0": 0.0},
    "weierstrass_shifted": {"alpha": 0.5, "sigma": 2.0, "t0": 0.0},
}
_EXAMPLE_PARAMS: dict[str, dict[str, float]] = {
    "power": {"p": 0.5},
    "step": {"t_jump": 0.5},
}


def _make_constant(params: dict | None) -> AnalyticFunction:
    p = _coerce_params("constant", params, _PARAM_SPECS["constant"])
    c, t0 = p["c"], p["t0"]

    def rl_int(order: float, t: np.ndarray) -> np.ndarray:
        return c * rgamma(order + 1.0) * _positive_power(np.asarray(t, float) - t0, order)

    def rl_der(order: float, t: np.ndarray) -> np.ndarray:
        # At integer orders 1/gamma(1 - order) is 0, and so is the derivative, at t0 too.
        coef = c * rgamma(1.0 - order)
        return coef * _positive_power(np.asarray(t, float) - t0, -order) if coef else np.zeros_like(t, float)

    def cap_der(order: float, t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), c if order == 0.0 else 0.0)

    return AnalyticFunction(
        name="constant",
        label=_label("constant", p),
        params=p,
        base_point=t0,
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


def _power_taylor(p: float) -> tuple[float, ...]:
    if p == math.floor(p):
        k = int(p)
        coeffs = [0.0] * (k + 1)
        coeffs[k] = float(math.factorial(k))
        return tuple(coeffs)
    # Non-integer exponent: only the value at the base point is usable.
    return (0.0,)


def _make_power(params: dict | None) -> AnalyticFunction:
    p = _coerce_params("power", params, _PARAM_SPECS["power"])
    expo, t0 = p["p"], p["t0"]
    if expo < 0.0:
        raise InvalidParameterError(f"power: need exponent p >= 0, got {expo}")
    if expo == 0.0:
        return replace(
            _make_constant({"c": 1.0, "t0": t0}),
            name="power",
            label=_label("power", p),
            params=p,
            summary="(t - t0)^0, i.e. the constant 1",
        )

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

    return AnalyticFunction(
        name="power",
        label=_label("power", p),
        params=p,
        base_point=t0,
        eval=lambda t: _positive_power(np.asarray(t, float) - t0, expo),
        taylor=_power_taylor(expo),
        rl_integral=rl_int,
        rl_derivative=rl_der,
        caputo_derivative=cap_der,
        anchors={
            "rl_derivative": r"D_{0,t}^\beta f(t)=\dfrac{\Gamma(\alpha+1)}{\Gamma(\alpha-\beta+1)}t^{\alpha-\beta}",
        },
        summary=f"(t - t0)^{expo:g}",
    )


def _make_ml_exp(params: dict | None) -> AnalyticFunction:
    p = _coerce_params("ml_exp", params, _PARAM_SPECS["ml_exp"])
    a, t0 = p["alpha"], p["t0"]
    if not (0.3 <= a <= 2.0):
        raise InvalidParameterError(f"ml_exp: alpha must lie in [0.3, 2], got {a}")

    def ml_vec(order_shift: float, t: np.ndarray) -> np.ndarray:
        # E_{a, 1 + order_shift}((t - t0)^a), elementwise.
        return mittag_leffler(a, 1.0 + order_shift, (np.asarray(t, dtype=float) - t0) ** a)

    def rl_int(order: float, t: np.ndarray) -> np.ndarray:
        return _positive_power(np.asarray(t, float) - t0, order) * ml_vec(order, t)

    def shifted(order: float, t: np.ndarray) -> np.ndarray:
        # The series less its first term, the value 1 at t0, differentiated termwise.
        return _positive_power(np.asarray(t, float) - t0, a - order) * ml_vec(a - order, t)

    def cap_der(order: float, t: np.ndarray) -> np.ndarray:
        # Above order 0 the Caputo form drops the Taylor term 1 at t0, the series' first term.
        return shifted(order, t) if order > 0.0 else ml_vec(0.0, t)

    def rl_der(order: float, t: np.ndarray) -> np.ndarray:
        return shifted(order, t) + rgamma(1.0 - order) * _positive_power(np.asarray(t, float) - t0, -order)

    return AnalyticFunction(
        name="ml_exp",
        label=_label("ml_exp", p),
        params=p,
        base_point=t0,
        eval=lambda t: ml_vec(0.0, t),
        taylor=(1.0,),
        rl_integral=rl_int,
        rl_derivative=rl_der,
        caputo_derivative=cap_der,
        anchors={
            "caputo_derivative": r"cD^{\beta}_{t_0,t}E_\alpha\big((t-t_0)^\alpha\big)=(t-t_0)^{\alpha-\beta}E_{\alpha,1+\alpha-\beta}\big((t-t_0)^\alpha\big)",
        },
        summary=f"Mittag-Leffler exponential E_alpha((t - t0)^alpha), alpha={a:g}",
    )


def _make_step(params: dict | None) -> AnalyticFunction:
    p = _coerce_params("step", params, _PARAM_SPECS["step"])
    tj, t0 = p["t_jump"], p["t0"]
    if tj <= t0:
        raise InvalidParameterError(f"step: need t_jump > t0, got t_jump={tj}, t0={t0}")

    def rl_int(order: float, t: np.ndarray) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        shifted = np.where(tt >= tj, tt - tj, 0.0)
        return np.where(tt >= tj, rgamma(order + 1.0) * np.power(shifted, order), 0.0)  # 0**0 is 1

    return AnalyticFunction(
        name="step",
        label=_label("step", p),
        params=p,
        base_point=t0,
        eval=lambda t: (np.asarray(t, dtype=float) >= tj).astype(float),
        taylor=(0.0,),
        rl_integral=rl_int,
        rl_derivative=None,  # the jump admits no continuous derivative of any positive order
        caputo_derivative=None,
        anchors={
            "rl_integral": r"has no representative in $C^0([t_0, t_1], \mathbb{R})$",
        },
        summary=f"unit jump at t={tj:g} (0 before, 1 from the jump on)",
    )


def _make_weierstrass_shifted(params: dict | None) -> AnalyticFunction:
    p = _coerce_params("weierstrass_shifted", params, _PARAM_SPECS["weierstrass_shifted"])
    a, sigma, t0 = p["alpha"], p["sigma"], p["t0"]
    if not (0.0 < a < 1.0):
        raise InvalidParameterError(f"weierstrass_shifted: need 0 < alpha < 1, got {a}")
    if sigma <= 1.0:
        raise InvalidParameterError(f"weierstrass_shifted: need sigma > 1, got {sigma}")
    w0 = weierstrass(a, sigma, t0)
    return AnalyticFunction(
        name="weierstrass_shifted",
        label=_label("weierstrass_shifted", p),
        params=p,
        base_point=t0,
        eval=lambda t: weierstrass(a, sigma, t) - w0,
        taylor=None,  # nowhere differentiable; no Taylor data exists
        anchors={},
        summary=(
            f"lacunary cosine sum W(t) - W(t0), alpha={a:g}, sigma={sigma:g}; "
            "Hoelder-continuous of its own order but nowhere smoother"
        ),
    )


_BUILTINS: dict[str, Callable[[dict | None], AnalyticFunction]] = {
    "constant": _make_constant,
    "power": _make_power,
    "ml_exp": _make_ml_exp,
    "step": _make_step,
    "weierstrass_shifted": _make_weierstrass_shifted,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def describe_builtin(name: str) -> str:
    """Human-readable description of a catalog entry, without needing params.

    Required parameters are shown as such; the closed-form summary below the
    parameter list is rendered for a representative instantiation.
    """
    if name not in _BUILTINS:
        raise UnknownNameError(
            f"unknown catalog entry {name!r}; known: {', '.join(builtin_names())}"
        )
    spec = _PARAM_SPECS[name]
    parts = [
        f"{key} (required)" if default is None else f"{key} (default {default:g})"
        for key, default in spec.items()
    ]
    example = _EXAMPLE_PARAMS.get(name, {})
    entry = builtin(name, example)
    lines = [name, f"  parameters: {', '.join(parts)}"]
    if example:
        shown = ",".join(f"{k}={v:g}" for k, v in sorted(example.items()))
        lines.append(f"  shown below for: {name}:{shown}")
    lines.extend("  " + ln for ln in entry.describe().splitlines())
    return "\n".join(lines)


def builtin(name: str, params: dict | None = None) -> AnalyticFunction:
    """Construct a catalog entry by name; unknown names raise UnknownNameError."""
    try:
        maker = _BUILTINS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown catalog entry {name!r}; known: {', '.join(builtin_names())}"
        ) from None
    return maker(params)


def sample(f: AnalyticFunction, t0: float, t1: float, n: int) -> GridFunction:
    """Evaluate ``f`` on the uniform grid with ``n`` nodes over ``[t0, t1]``.

    The grid must start at the entry's base point, since that is where its
    closed forms and Taylor data are anchored.
    """
    if n < 2:
        raise InvalidParameterError(f"need n >= 2 grid nodes, got {n}")
    if not (t1 > t0):
        raise InvalidParameterError(f"need t1 > t0, got [{t0}, {t1}]")
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
    return tuple(f.taylor[:order_ceil])
