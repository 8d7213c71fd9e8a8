"""Special functions: gamma, Mittag-Leffler, and a Weierstrass-type sum.

Gamma and its reciprocal take scalar arguments and wrap :func:`math.gamma`,
which is good to about 1e-15 relative.  The wrappers raise the package's
errors at the poles and at -inf, and return signed infinities where a value
overflows.  Mittag-Leffler and the Weierstrass-type sum take a scalar or an
array of points.  They are summed here with compensated (Kahan) summation to
a fixed truncation tolerance of 1e-14 within a fixed budget of 2,000 terms,
so the package needs no special-function library beyond the standard one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, NonConvergenceError, PoleError

__all__ = [
    "gamma",
    "rgamma",
    "mittag_leffler",
    "weierstrass",
]

_TOL = 1e-14  # truncation target of both series, relative to the sum
_MAX_TERMS = 2000  # term budget past which both series raise NonConvergenceError
_EPS = 2.0**-52
# Largest relative rounding error a Mittag-Leffler value may carry.
_CANCELLATION_LIMIT = 1e-10
# 1/(2*pi) as limbs, each the double nearest to the rest, so limb k leaves <= ulp(limb k)/2.
_INV_2PI = (0.15915494309189535, -9.839338337591243e-18, -5.360718141446502e-34, 4.026781963297056e-50)
_FRACTION_T_MAX = 2.0**20  # |t| bound of the Weierstrass fraction path


def gamma(x: float) -> float:
    """Gamma function for real ``x``, from :func:`math.gamma`.

    Raises :class:`PoleError` at non-positive integers and
    :class:`InvalidParameterError` at -inf.  Where the value overflows (past
    ~171.6, and for |x| below ~5.6e-309, where gamma ~ 1/x) the result is an
    infinity of the sign of x; ``nan`` passes through.
    """
    x = float(x)
    if x <= 0.0 and x.is_integer():
        raise PoleError(f"gamma pole at non-positive integer x={x}")
    if x == -math.inf:
        raise InvalidParameterError("gamma is undefined at x=-inf")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def rgamma(x: float) -> float:
    """Reciprocal gamma, 1/gamma(x), with the poles mapped to 0.

    Where gamma overflows for x > 0 the result is exp(-lgamma(x)), a
    subnormal past x ~ 171.6 that underflows to 0 only past x ~ 178.  For
    x < 0 an overflowing gamma gives a zero of its sign; where 1/gamma
    overflows (x below about -171) the result is an infinity of its sign.
    """
    x = float(x)
    if x <= 0.0 and x.is_integer():
        return 0.0
    g = gamma(x)
    if g == math.inf and x > 0.0:
        return math.exp(-math.lgamma(x))
    return math.copysign(math.inf, g) if g == 0.0 else 1.0 / g


def mittag_leffler(
    alpha: float,
    beta: float,
    z: float | np.ndarray,
) -> float | np.ndarray:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) by direct series.

    ``z`` may be a scalar, which returns a ``float``, or an array, which
    returns an array of the same shape.  The series
    sum_{j>=0} z**j / gamma(alpha*j + beta) is summed with Kahan compensation,
    one pass over j for all points.  Direct summation is only trustworthy on a
    bounded argument box, enforced here as ``|z| <= 5`` and ``alpha >= 0.3``;
    outside it the call raises :class:`InvalidParameterError` rather than
    return garbage.  Summation of a point stops once alpha*j + beta > 2 and
    its current term is below 1e-14 relative to its running total;
    exhausting the 2,000-term budget raises :class:`NonConvergenceError`.  So does a
    negative z whose estimated rounding error exceeds 1e-10 relative to its
    value: there the alternating terms cancel (E_{0.5}(-5) ~ 0.11 sums terms
    up to ~1e10, E_{0.3}(-5) terms up to ~1e90).  A point z > 0 is never
    refused.  Its terms are positive once alpha*j + beta > 0, so its absolute
    error stays a few ulps of the largest term; with beta <= 0 that is a
    large relative error only near a zero of E.
    """
    if not (alpha > 0.0 and math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidParameterError(f"need alpha > 0 and finite beta, got alpha={alpha}, beta={beta}")
    if alpha < 0.3:
        raise InvalidParameterError(
            f"alpha={alpha} below the supported direct-summation box (alpha >= 0.3)"
        )
    arg = np.asarray(z, dtype=float)
    outside = ~(np.abs(arg) <= 5.0)
    if np.any(outside):
        raise InvalidParameterError(
            f"z={arg[outside].flat[0]} outside the supported direct-summation box (|z| <= 5)"
        )

    out = np.full(arg.shape, rgamma(beta))  # the value at z = 0
    live = np.flatnonzero(arg)  # points still being summed
    x = arg.ravel()[live]
    log_abs_x = np.log(np.abs(x))
    abs_log = np.abs(log_abs_x)
    total = np.zeros_like(x)
    comp = np.zeros_like(x)
    err2 = np.zeros_like(x)  # squared rounding-error estimate of total, in units of _EPS
    # Terms and their error estimates may underflow to 0, harmlessly.
    with np.errstate(under="ignore"):
        for j in range(_MAX_TERMS):
            if live.size == 0:
                break
            den = alpha * j + beta
            lg = 0.0
            if j == 0:
                term = np.full_like(x, rgamma(beta))
            elif den > 0.0:
                # Log-space evaluation keeps z**j from overflowing before the
                # 1/gamma decay takes over (matters near the |z|=5, alpha=0.3
                # corner of the box, where intermediate terms reach ~1e90).
                lg = math.lgamma(den)
                term = np.exp(j * log_abs_x - lg)
                if j % 2:
                    term = np.copysign(term, x)
            else:
                term = x**j * rgamma(den)
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            # A term's relative error is the absolute error of its exponent:
            # a few ulps of j*log|x|, plus that of math.lgamma(den), which
            # against mpmath stays within 1.27*(|lg| + 8) eps on (0, 2000].
            # The errors of different terms are independent and add in
            # quadrature; adding their magnitudes would refuse E_1(-5), whose
            # actual error is 1e-11.
            e = term * (j * abs_log + (abs(lg) + 8.0))
            err2 += e * e
            if den > 2.0:
                done = np.abs(term) <= _TOL * np.maximum(1.0, np.abs(total))
                if not done.any():
                    continue
                lossy = (x[done] < 0.0) & (
                    err2[done] > (_CANCELLATION_LIMIT / _EPS * total[done]) ** 2
                )
                if lossy.any():
                    raise NonConvergenceError(
                        f"Mittag-Leffler series loses more than {_CANCELLATION_LIMIT:g} relative "
                        f"accuracy to cancellation (alpha={alpha}, beta={beta}, z={x[done][lossy][0]})"
                    )
                out.flat[live[done]] = total[done]
                keep = ~done
                live, x, log_abs_x, abs_log = live[keep], x[keep], log_abs_x[keep], abs_log[keep]
                total, comp, err2 = total[keep], comp[keep], err2[keep]
    if live.size:
        raise NonConvergenceError(
            f"Mittag-Leffler series did not converge within {_MAX_TERMS} terms "
            f"(alpha={alpha}, beta={beta}, z={x[0]})"
        )
    return float(out) if out.ndim == 0 else out


def _two_product(a: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    # p + e == a * b exactly: Dekker's product of Veltkamp's 26-bit halves (2**27 + 1 splits).
    ah, bh = (s - (s - x) for x, s in ((a, 134217729.0 * a), (b, 134217729.0 * b)))
    al, bl, p = a - ah, b - bh, a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def weierstrass(
    alpha: float,
    sigma: float,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Weierstrass-type lacunary sum  sum_{j>=0} sigma**(-j*alpha) * cos(sigma**j * t).

    ``t`` may be a scalar, which returns a ``float``, or an array, which returns an array of
    the same shape.  The sum runs N terms, the fewest with geometric tail bound
    w_N / (1 - sigma**(-alpha)) <= 1e-14, where w_N = sigma**(-N*alpha) is formed by repeated
    products, so N depends on (alpha, sigma) only, never on ``t``.  Requires sigma > 1 and
    0 < alpha <= 1.  Where sigma**-alpha rounds to 1, N exceeds the 2,000-term budget or
    max|t| * sigma**N overflows, :class:`NonConvergenceError` is raised before any cosine.
    For sigma a power of two the arguments sigma**j * t are exact.  There, if
    all |t| <= 2**20, terms of weight <= 2**-12 take the fraction path: cos of
    2*pi*frac(sigma**j * t / (2*pi)) in [-pi, pi], the fraction kept exactly
    from t*sigma**j0 times at most 4 limbs of 1/(2*pi), which move the sum by
    < 2**-60.  Only every r-th fraction term, an anchor, reduces the fraction,
    scaled exactly by sigma**r since the last anchor, and takes cos and sin of
    its angle; the terms between rotate (c, s) to (c*c - s*s, 2*c*s),
    log2(sigma) times per term.  A rotation step doubles the error it
    inherits and adds about 2u (u = 2**-53), so the term k places past an
    anchor is off by about 3u*(sigma*q)**k of the anchor's weight,
    q = sigma**-alpha.  The spacing r is the largest r <= N with
    2**-12 / (1 - q) * 3u * ((sigma*q)**r - 1) / (sigma*q - 1) <= 2**-55:
    10 at (alpha, sigma) = (0.5, 2), 4 at (0.3, 8); r = 1 takes no sine and
    gives the values of a cosine at every term.  Other sigma and parameters
    needing more limbs (sigma = 2, alpha < ~0.28) take cos(sigma**j * t);
    other sigma round it, a reproducible noise ~|t|*sigma**N*eps.  While all
    |t| <= 2**20 no entry depends on the others.
    """
    if not (sigma > 1.0 and math.isfinite(sigma)):
        raise InvalidParameterError(f"need sigma > 1, got {sigma}")
    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError(f"need 0 < alpha <= 1, got {alpha}")
    arg = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arg)):
        raise InvalidParameterError(f"need finite t, got {t}")

    q = sigma**-alpha
    if q == 1.0:
        raise NonConvergenceError(f"sigma**-alpha rounds to 1: the Weierstrass sum has no tail bound (alpha={alpha})")
    tail_scale = 1.0 / (1.0 - q)
    # The term count N, with the largest argument max|t| * sigma**N that the direct path forms,
    # by the same float operations as the sum.
    w, reach, terms = 1.0, float(np.max(np.abs(arg), initial=0.0)), 0
    fits = math.frexp(sigma)[0] == 0.5 and reach <= _FRACTION_T_MAX
    while w * tail_scale > _TOL:
        if terms == _MAX_TERMS:
            raise NonConvergenceError(
                f"Weierstrass sum needs more than {_MAX_TERMS} terms to reach its tail bound "
                f"(alpha={alpha}, sigma={sigma})"
            )
        w, reach, terms = w * q, reach * sigma, terms + 1
    if not math.isfinite(reach):
        raise NonConvergenceError(f"sigma**j * t overflows within {terms} terms (alpha={alpha}, sigma={sigma})")
    # Limbs of 1/(2*pi) for the fraction path, 0 for the direct path.  What they leave, with the last
    # product's error, is < 2*ulp(last limb) and moves the sum by < 2*pi*|t|*N*(sigma*q)**(N-1) times
    # that, bounded here with N + 1 for N.
    bits = math.log2(4.0 * math.pi * _FRACTION_T_MAX * (terms + 1)) + terms * math.log2(sigma * q) + 60.0
    limbs = next((k + 1 for k, limb in enumerate(_INV_2PI) if fits and math.ulp(limb) < 2.0**-bits), 0)
    # The fraction path's anchor spacing r, by the docstring's rotation-error budget; ratio is
    # ((sigma*q)**r - 1) / (sigma*q - 1), summed term by term so that sigma*q = 1 needs no case.
    spacing, ratio, growth = 1, 1.0, sigma * q
    while spacing < terms and 2.0**-12 * tail_scale * 3.0 * 2.0**-53 * (ratio + growth) <= 2.0**-55:
        spacing, ratio, growth = spacing + 1, ratio + growth, growth * sigma * q
    doublings = math.frexp(sigma)[1] - 1  # log2(sigma) double-angle steps per term
    total = np.zeros_like(arg)
    comp = np.zeros_like(arg)
    frac = None  # the fraction path's limb products, scaled and reduced modulo 1 at each anchor
    w = 1.0
    for j in range(terms):
        if frac is None and limbs and w <= 2.0**-12:
            frac = np.stack([part for limb in _INV_2PI[:limbs] for part in _two_product(arg, limb)][:-1])
            j0 = j
        if frac is None:
            c = np.cos(arg)
            arg = arg * sigma
        elif (j - j0) % spacing:
            for _ in range(doublings):
                c, sine = c * c - sine * sine, 2.0 * c * sine
        else:
            frac -= np.rint(frac)
            f = frac[0] + frac[1]  # row by row for any shape (np.sum adds a lone entry's rows pairwise)
            for row in frac[2:]:
                f += row
            angle = 2.0 * math.pi * (f - np.rint(f))
            c = np.cos(angle)
            if spacing > 1:
                sine = np.sin(angle)
            frac *= sigma**spacing
        y = w * c - comp
        s = total + y
        comp = (s - total) - y
        total = s
        w *= q
    return float(total) if np.ndim(total) == 0 else total
