"""Special functions: gamma, Mittag-Leffler, and a Weierstrass-type sum.

Gamma and Mittag-Leffler take scalar arguments; the Weierstrass-type sum
takes a scalar or an array of points.  Everything here is elementary
floating-point arithmetic with explicit error control, so the rest of the
package has no hidden dependency on third-party special-function libraries.
The gamma implementation uses a 15-term Lanczos approximation (g = 607/128)
with the reflection formula below 1/2; the series evaluators use compensated
(Kahan) summation with documented stopping rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NonConvergenceError, PoleError

__all__ = [
    "SeriesControl",
    "gamma",
    "rgamma",
    "mittag_leffler",
    "weierstrass",
]


@dataclass(frozen=True)
class SeriesControl:
    """Stopping data for series evaluation.

    ``tol`` is a relative target for the truncation error; ``max_terms`` is a
    hard budget after which :class:`NonConvergenceError` is raised.
    """

    tol: float = 1e-14
    max_terms: int = 2000

    def __post_init__(self) -> None:
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise InvalidParameterError(f"tol must be positive and finite, got {self.tol}")
        if self.max_terms < 1:
            raise InvalidParameterError(f"max_terms must be >= 1, got {self.max_terms}")


_DEFAULT_CONTROL = SeriesControl()

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set).  Relative
# error of the rational part is below 1e-15 on the right half-line.
_LANCZOS_G = 4.7421875
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_SQRT_TWO_PI = 2.5066282746310005024


def _sinpi(x: float) -> float:
    # sin(pi*x) with the argument reduced exactly: x - round(x) is exact in
    # floating point (Sterbenz), so the result stays accurate near integers
    # where sin(pi*x) itself would cancel catastrophically.
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def _lanczos_series(z: float) -> float:
    ser = _LANCZOS[0]
    for j in range(1, 15):
        ser += _LANCZOS[j] / (z + j)
    return ser


def gamma(x: float) -> float:
    """Gamma function for real ``x``.

    Raises :class:`PoleError` at non-positive integers.  Relative accuracy is
    better than 1e-12 on [-170, 170] away from the poles; arguments beyond the
    overflow threshold (~171.6) return ``inf``.
    """
    x = float(x)
    if math.isnan(x):
        return x
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at non-positive integer x={x}")
    if x >= 1.0 and x <= 170.0 and x == math.floor(x):
        return float(math.factorial(int(x) - 1))
    if x < 0.5:
        # Reflection: gamma(x) = pi / (sin(pi x) * gamma(1 - x)).
        return math.pi / (_sinpi(x) * gamma(1.0 - x))
    z = x - 1.0
    ser = _lanczos_series(z)
    t = z + _LANCZOS_G + 0.5
    # Evaluate as a square so t**(z+0.5) cannot overflow prematurely: the
    # half-exponent root stays finite up to the true overflow threshold.
    try:
        root = t ** ((z + 0.5) / 2.0) * math.exp(-t / 2.0) * math.sqrt(_SQRT_TWO_PI * ser)
        return root * root
    except OverflowError:
        return math.inf


def rgamma(x: float) -> float:
    """Reciprocal gamma, 1/gamma(x), with the poles mapped to 0."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    g = gamma(x)
    if math.isinf(g):
        return 0.0
    return 1.0 / g


def _lgamma_pos(x: float) -> float:
    # log(gamma(x)) for x > 0, from the same Lanczos data.
    if x < 0.5:
        return math.log(math.pi / _sinpi(x)) - _lgamma_pos(1.0 - x)
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return (z + 0.5) * math.log(t) - t + math.log(_SQRT_TWO_PI * _lanczos_series(z))


def mittag_leffler(
    alpha: float,
    beta: float,
    z: float,
    control: SeriesControl | None = None,
) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) by direct series.

    The series sum_{j>=0} z**j / gamma(alpha*j + beta) is summed with Kahan
    compensation.  Direct summation is only trustworthy on a bounded argument
    box, enforced here as ``|z| <= 5`` and ``alpha >= 0.3``; outside it the
    call raises :class:`InvalidParameterError` rather than return garbage.
    Summation stops once alpha*j + beta > 2 and the current term is below
    ``tol`` relative to the running total; exhausting ``max_terms`` raises
    :class:`NonConvergenceError`.
    """
    ctl = control if control is not None else _DEFAULT_CONTROL
    if not (alpha > 0.0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidParameterError(f"need alpha > 0 and finite beta, got alpha={alpha}, beta={beta}")
    if alpha < 0.3:
        raise InvalidParameterError(
            f"alpha={alpha} below the supported direct-summation box (alpha >= 0.3)"
        )
    if not (math.isfinite(z) and abs(z) <= 5.0):
        raise InvalidParameterError(f"z={z} outside the supported direct-summation box (|z| <= 5)")
    if z == 0.0:
        return rgamma(beta)

    log_abs_z = math.log(abs(z))
    total = 0.0
    comp = 0.0
    for j in range(ctl.max_terms):
        den = alpha * j + beta
        if j == 0:
            term = rgamma(beta)
        elif den > 0.0:
            # Log-space evaluation keeps z**j from overflowing before the
            # 1/gamma decay takes over (matters near the |z|=5, alpha=0.3
            # corner of the box, where intermediate terms reach ~1e90).
            mag = j * log_abs_z - _lgamma_pos(den)
            term = math.exp(mag) if mag > -745.0 else 0.0
            if z < 0.0 and j % 2:
                term = -term
        else:
            term = z**j * rgamma(den)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if den > 2.0 and abs(term) <= ctl.tol * max(1.0, abs(total)):
            return total
    raise NonConvergenceError(
        f"Mittag-Leffler series did not converge within {ctl.max_terms} terms "
        f"(alpha={alpha}, beta={beta}, z={z})"
    )


def weierstrass(
    alpha: float,
    sigma: float,
    t: float | np.ndarray,
    control: SeriesControl | None = None,
) -> float | np.ndarray:
    """Weierstrass-type lacunary sum  sum_{j>=0} sigma**(-j*alpha) * cos(sigma**j * t).

    ``t`` may be a scalar, which returns a ``float``, or an array, which
    returns an array of the same shape.  Truncation uses the geometric tail
    bound w_N / (1 - sigma**(-alpha)) <= tol where w_N = sigma**(-N*alpha), so
    the term count depends on (alpha, sigma) only, never on ``t``.  Requires
    sigma > 1 and 0 < alpha <= 1.
    Note the reduced arguments sigma**j * t grow exponentially, so individual
    cosines carry an argument-reduction noise floor of order |t|*sigma**N*eps;
    for the defaults this is ~1e-8 absolute and perfectly reproducible.
    """
    ctl = control if control is not None else _DEFAULT_CONTROL
    if not (sigma > 1.0 and math.isfinite(sigma)):
        raise InvalidParameterError(f"need sigma > 1, got {sigma}")
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"need 0 < alpha <= 1, got {alpha}")
    arg = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arg)):
        raise InvalidParameterError(f"need finite t, got {t}")

    q = sigma**-alpha
    tail_scale = 1.0 / (1.0 - q)
    total = np.zeros_like(arg)
    comp = np.zeros_like(arg)
    w = 1.0
    for _ in range(ctl.max_terms):
        y = w * np.cos(arg) - comp
        s = total + y
        comp = (s - total) - y
        total = s
        w *= q
        arg = arg * sigma
        if w * tail_scale <= ctl.tol:
            return float(total) if np.ndim(total) == 0 else total
    raise NonConvergenceError(
        f"Weierstrass sum did not reach its tail bound within {ctl.max_terms} terms "
        f"(alpha={alpha}, sigma={sigma})"
    )
