"""Grid operators: fractional integral, Riemann-Liouville and Caputo
derivatives, and product (Leibniz) formulas.

All operators use product integration on the uniform grid: the integrand's
kernel factor is kept exact inside each cell and the data factor is
interpolated, so weakly singular kernels are handled without ad-hoc cutoffs.

The fractional integral interpolates the data linearly per cell.  The
Marchaud-form derivative interpolates the *increments* f(s) - f(t) by a
quadratic through three neighbouring nodes (anchored so the increment is
exactly zero at s = t), which is what keeps the scheme's error at the first
non-excluded nodes within tolerance; a piecewise-linear rule would plateau
near 5e-3 at node 8 no matter the grid, since for self-similar data the node-k
error is independent of h.  Above order 1 one second-order difference stencil
takes the k = floor(alpha)-th derivative of the Marchaud pass of order alpha - k.

Every operator reduces to causal convolutions with a translation-invariant
kernel plus O(1) per-row edge terms.  They share one primitive that sums
directly on short grids and goes through a real FFT from 512 nodes on, so the
operators cost O(n log n) (the fast product-integration route of Hairer,
Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).

Near t0 a derivative estimate may diverge under refinement (for example the
derivative of any function with f(t0) != 0 behaves like (t-t0)^-alpha).  The
first-node estimates are probed on stride-4/2/1 subgrids, and if they grow by
>= 1.15x at each halving the output carries the singular-start marker instead
of a meaningless number.  The probe reads only the first ceil(alpha) + 2
nodes of each subgrid, so its cost does not depend on n; it gives no verdict
when the stride-4 subgrid has fewer than max(4, ceil(alpha) + 2) nodes.

Data of shape (d, n) holds d components (X = R^d with the sup norm).  Every
operator acts on each component as on scalar data, with the same bits, and
the components share the kernel tables and their spectra.  An output is
marked singular at the start when any component's probe detects a blow-up.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DataError,
    InvalidParameterError,
    PreconditionError,
    TaylorMismatchError,
    UnintegrableSingularityError,
)
from .grid import GridFunction, _Owned, _real_array, as_order
from .special import gamma, rgamma

__all__ = [
    "frac_integral",
    "rl_derivative",
    "marchaud_derivative",
    "caputo_derivative",
    "leibniz_rl",
    "leibniz_caputo",
]

# Estimates at the first node must grow by at least this factor under each of
# two successive grid refinements before the output is marked singular.
_PROBE_GROWTH = 1.15
# Grids of at least this many nodes convolve by FFT; below it the direct sum
# is faster.  Measured with numpy 2.4 on one core: 22 us direct against 42 us
# FFT at n = 256, 51 against 55 at n = 512, 169 against 66 at n = 1024.
_FFT_MIN_NODES = 512


def _is_marchaud(method: str | None, a: float, n: int) -> bool:
    # Admits the route ``method`` (None: Marchaud) for order a on n nodes; True for Marchaud.
    if method not in (None, "integral_then_difference"):
        raise InvalidParameterError(f"unknown derivative method {method!r}; known: integral_then_difference")
    marchaud = method is None
    # Refused before any difference, which a huge order would take for ever; the probe reads ceil(a) + 2 nodes.
    if (a >= 1.0 or not marchaud) and math.ceil(a) + 2 > n:
        raise PreconditionError(f"order {a} needs ceil(order) + 2 nodes to difference, got {n}")
    return marchaud


def _result(g: GridFunction, vals: np.ndarray, singular_start: bool = False) -> GridFunction:
    # vals is fresh and owns its memory, so the constructor adopts it.  It refuses only non-finite
    # values on g's grid: an overflow, under the callers' np.errstate.
    try:
        return GridFunction(g.t0, g.t1, _Owned(vals), singular_start)
    except DataError:
        raise PreconditionError("the computation overflows the float range") from None


def _fft_size(m: int) -> int:
    # Smallest c * 2**j >= m with c in (1, 3, 5, 9); numpy's FFT is fast on
    # these.  The circular lengths asked for on n = 2**k + 1 grids are 2**(k+1).
    return min(c << (-(-m // c) - 1).bit_length() for c in (1, 3, 5, 9))


def _causal_convolve(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """First n terms of the linear convolutions of the rows of ``g`` (shape (..., n)) with ``kernel``.

    The result is a new C-contiguous array of exactly ``g.shape`` that owns its memory: the FFT
    path cuts its longer ``irfft`` buffer down in place rather than returning a view into it.
    """
    n = g.shape[-1]
    rows = g.reshape(-1, n)
    if n < _FFT_MIN_NODES:
        out = np.array([np.convolve(row, kernel)[:n] for row in rows])
    else:
        # Length >= n + k - 2 wraps only the last linear term, onto index 0 (set below); >= n keeps all.
        size = _fft_size(max(n, n + kernel.size - 2))
        spec = np.fft.rfft(rows, size)
        spec *= np.fft.rfft(kernel, size)
        out = np.fft.irfft(spec, size)
        for i in range(1, len(rows)):  # row i's first n entries move down to i * n: a forward 1-D copy
            out.reshape(-1)[i * n : (i + 1) * n] = out[i, :n]
    # In place, to the first g.size entries; reshape would return a view.  Every view of out above
    # dies with its statement, so no reference check: it would count the extra reference that a
    # tracer's or profiler's call path holds, and refuse.
    out.resize(g.shape, refcheck=False)
    out[..., 0] = g[..., 0] * kernel[0]
    return out


# ---------------------------------------------------------------------------
# fractional integral (piecewise-linear product integration)
# ---------------------------------------------------------------------------


def _integral_kernel(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    # Per-cell moments of tau**(a-1) against the two linear hat factors.
    # With phi0 = int tau^(a-1), phi1 = int tau^a over [m-1, m]:
    #   A(m) = m*phi0 - phi1   weights the node at tau = m-1,
    #   B(m) = phi1 - (m-1)*phi0 weights the node at tau = m.
    # Built in place, four arrays of n at most: the kernel takes phi0's buffer and B phi1's.
    m = np.arange(n + 1, dtype=float)
    phi0 = np.diff(m**a)
    phi0 /= a
    phi1 = np.diff(m ** (a + 1.0))
    phi1 /= a + 1.0
    A = m[1:] * phi0
    A -= phi1
    phi0 *= m[:-1]
    B = np.subtract(phi1, phi0, out=phi1)
    kernel = phi0
    kernel[0] = A[0]
    np.add(A[1:], B[:-1], out=kernel[1:])
    return kernel, A


def _frac_integral_values(g: np.ndarray, h: float, a: float) -> np.ndarray:
    # Rows of ``g`` (shape (..., n)) are integrated independently, sharing the kernel.  The
    # convolution's own buffer becomes the output, so no other array of g's size is made.
    kernel, A = _integral_kernel(g.shape[-1], a)
    out = _causal_convolve(g, kernel)
    # Data near the float range overflow the convolution first: rescale each such row exactly, by a
    # power of two of its own, so that a small row stacked with it keeps its bits.
    bad = ~np.isfinite(out).all(axis=-1)
    # The full convolution pretends the data extends past node 0; remove the
    # phantom left-neighbour contribution A(k+1) * g[0] from each row.
    body = out[..., 1:]
    body -= g[..., :1] * A[1:]
    body *= h**a
    body *= rgamma(a)
    out[..., 0] = 0.0
    if bad.any():
        e = np.frexp(np.max(np.abs(g), axis=-1))[1]
        redo = bad & (e > 0)
        e = e[redo][:, None]
        out[redo] = np.ldexp(_frac_integral_values(np.ldexp(g[redo], -e), h, a), e)
    return out


def _estimate_decay_exponent(g1: float, g2: float) -> float:
    # Model the unresolved first cell as g1 * ((s - t0)/h)^(-q), reading q off
    # the first two trusted nodes.  q >= 1 means a non-integrable singularity.
    if g1 == 0.0 or g2 == 0.0 or (g1 > 0.0) != (g2 > 0.0) or abs(g1) <= abs(g2):
        return 0.0
    q = math.log(abs(g1 / g2)) / math.log(2.0)
    if q >= 0.999:
        raise UnintegrableSingularityError(
            f"singular start decays like (t-t0)^(-{q:.3f}); only exponents < 1 are integrable"
        )
    return min(q, 0.95)


def _frac_integral_singular(g: GridFunction, a: float) -> np.ndarray:
    # Integral of data whose index-0 value is the singular marker: the cells past the first use the
    # ordinary rule on nodes 1..n-1, whose output (0 at its index 0) becomes out[1:], while the first
    # cell is modelled by the power decay fitted to the first trusted nodes.
    v = g.values
    n = g.n
    if n < 3:
        raise PreconditionError("need at least 3 nodes to integrate marked data")
    h = g.h
    out = np.concatenate((np.zeros(v.shape[:-1] + (1,)), _frac_integral_values(v[..., 1:], h, a)), axis=-1)
    k = np.arange(1, n, dtype=float)
    first = np.empty(n - 1)
    # Each component fits its own decay.  Exact Beta-moment for the cell ending
    # at node 1; for later rows the kernel is smooth across the first cell and
    # is frozen at the centroid of the u^(-q) mass.
    for row, vals in zip(out.reshape(-1, n), v.reshape(-1, n)):
        q = _estimate_decay_exponent(float(vals[1]), float(vals[2]))
        first[0] = gamma(1.0 - q) * rgamma(a + 1.0 - q)
        centroid = (1.0 - q) / (2.0 - q)
        first[1:] = rgamma(a) * (k[1:] - centroid) ** (a - 1.0) / (1.0 - q)
        row[1:] += vals[1] * h**a * first
    return out


@np.errstate(over="ignore", invalid="ignore")
def frac_integral(g: GridFunction, order: float) -> GridFunction:
    """Fractional integral of ``g`` of the given order (order 0 is identity).

    Output index 0 is exactly 0 (the integral vanishes at t0).  Data marked
    singular at the start is accepted as long as the fitted decay is milder
    than (t-t0)^-1; otherwise :class:`UnintegrableSingularityError` is raised.
    """
    a = as_order(order)
    if a == 0.0:
        return g
    if g.singular_start:
        vals = _frac_integral_singular(g, a)
    else:
        vals = _frac_integral_values(g.values, g.h, a)
    return _result(g, vals)


# ---------------------------------------------------------------------------
# Marchaud-form derivative (quadratic product integration of increments)
# ---------------------------------------------------------------------------


def _cell_moments(nmax: int, a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # mu_j(m) = int_{m-1}^{m} (tau - (m-1))**j * tau**(-a-1) dtau, j = 0,1,2, from
    # p_j = int_{m-1}^{m} tau**(j-a-1) dtau = -m**(j-a) expm1((j-a) log1p(-1/m)) / (j-a)
    # and one power table m**-a, also kept as tail[m-1] = m**-a / a.  mu0 keeps a few ulps,
    # but mu1 and mu2 cancel terms m and m**2 times their size: their relative error
    # reaches 6 m eps and 15 m**2 eps (m <= 32770, a in {0.1, 0.5, 0.9}, against 40 digits).
    mu0, mu1, mu2, tail = table = np.empty((4, nmax))
    table[:, 0] = np.inf, 1.0 / (1.0 - a), 1.0 / (2.0 - a), 1.0 / a  # mu0 only meets a zero weight there
    m = np.arange(2, nmax + 1, dtype=float)
    lg = np.log1p(-1.0 / m)
    pw = m**-a
    np.divide(pw, a, out=tail[1:])
    for j, p in enumerate(table[:3, 1:]):
        if j:
            pw *= m
        np.expm1(np.multiply(lg, j - a, out=p), out=p)
        p *= pw
        p /= a - j
    # mu1 = p1 - (m-1) p0 and mu2 = p2 - (m-1) (2 p1 - (m-1) p0), in the spent pw and lg.
    p0, p1, p2 = table[:3, 1:]
    m -= 1.0
    mp0 = np.multiply(m, p0, out=pw)
    p2 -= np.multiply(m, np.subtract(np.multiply(p1, 2.0, out=lg), mp0, out=lg), out=lg)
    p1 -= mp0
    return mu0, mu1, mu2, tail


def _marchaud_values(g: np.ndarray, h: float, a: float) -> np.ndarray:
    """Marchaud-form derivative values on the grid (index 0 left at zero).

    D f(t) = (-a / Gamma(1-a)) * int_{t0}^{t} (t-s)^(-a-1) [f(s) - f(t)] ds
             + (t-t0)^(-a) f(t) / Gamma(1-a)

    The increment G(tau) = f(t - tau h) - f(t) is integrated against
    tau**(-a-1) cell by cell with a quadratic interpolant: the cell at tau in
    [0,1] uses the parabola through G(0)=0, G(1), G(2) (so the kernel's
    non-integrable end multiplies an exactly-vanishing factor), interior cells
    the parabola through their three surrounding nodes, and the cell touching
    tau = k the one through G(k-2), G(k-1), G(k).  From node 3 on the rows are
    summed by parts: the increments d[i] = g[i-1] - g[i] (d[0] = 0) are convolved
    with the tails T_j of one translation-invariant kernel, so rounding scales
    with the increments, not the values, and two per-row edge terms remain.
    Stacked rows of ``g`` share the kernel.
    """
    n = g.shape[-1]
    mu0, mu1, mu2, tail = _cell_moments(n + 1, a)
    r = rgamma(1.0 - a)
    # First-cell weights for the anchored parabola through (0,0), (1,G1), (2,G2); with the cell
    # [1, 2] they give the weights of rows 1 and 2.
    s1 = 2.0 * mu1[0] - mu2[0]
    s2 = (mu2[0] - mu1[0]) / 2.0
    w1, w21, w20 = mu1[0], s1 + (mu0[1] - mu2[1]), s2 + (mu2[1] + mu1[1]) / 2.0
    # Cell [i, i+1] (table index i) takes the parabola through tau = i, i+1, i+2 with
    # weights wR, wM, wL adding up to mu0.  The tails are T_0 = s1 + s2 + 1/a and
    # T_j = j**-a / a + wL(j-1) - wR(j), where wL(0) is the first cell's s2, by the same operations.
    wL = (mu2[:n] - mu1[:n]) / 2.0
    T = np.empty(n)
    T[0] = s1 + s2 + 1.0 / a
    tj = np.add(tail[: n - 1], wL[: n - 1], out=T[1:])
    tj -= wL[1:]  # less wR = mu0 - mu1 + wL
    tj -= mu0[1:n] - mu1[1:n]
    # Rows 3.. read only wL(k-1) and tail[k-1] after the convolution, so the table is freed before it.
    wL, start = wL[2 : n - 1], tail[2 : n - 1].copy()
    del mu0, mu1, mu2, tail
    d = np.zeros(g.shape)
    np.subtract(g[..., :-1], g[..., 1:], out=d[..., 1:])
    out = _causal_convolve(d, T)
    # On row k the cell [k-1, k] takes the parabola through tau = k-2, k-1, k
    # (tau = k+1 is past t0).  With the T_k g[0] left by the summation, that
    # leaves -wL(k-1) (d[2] - 2 d[1]) and the start term -tail[k-1] g[0].
    body = out[..., 3:]
    body -= wL * (d[..., 2:3] - 2.0 * d[..., 1:2])  # empty on n <= 3 nodes
    body -= start * g[..., 0, None]
    out[..., 1] = (g[..., 0] - g[..., 1]) * w1  # index 0 stays d[0] T_0 = 0
    if n > 2:
        out[..., 2] = w21 * (g[..., 1] - g[..., 2]) + w20 * (g[..., 0] - g[..., 2])
    out[..., 1:] *= -a * r * h**-a
    out[..., 1:3] += (np.arange(1, min(n, 3)) * h) ** -a * r * g[..., 1:3]
    return out


def _derivative(w: np.ndarray, h: float, k: int) -> np.ndarray:
    # The k-th derivative (k >= 1) of each row of w (k + 2 or more nodes) by one second-order
    # stencil, central inside.  Each difference is divided by h as it is taken, so h**k is never formed.
    d = w
    for _ in range(k - 1):
        d = np.diff(d) / h
    dk = np.diff(d) / h  # the k-th differences
    out = np.empty_like(w)
    c = (k + 1) // 2  # the central stencil reaches nodes c to n - 1 - c
    out[..., c:-c] = (d[..., 2:] - d[..., :-2]) / (2.0 * h) if k % 2 else dk
    # End node s takes the k-th derivative of the degree-(k + 1) polynomial through the k + 2
    # end nodes: the k-th difference plus (s - k/2) times the (k + 1)-th.
    for s in range(c):
        out[..., s] = dk[..., 0] + (s - k / 2) * (dk[..., 1] - dk[..., 0])
        out[..., -1 - s] = dk[..., -1] - (s - k / 2) * (dk[..., -1] - dk[..., -2])
    return out


def _rl_values(v: np.ndarray, h: float, a: float, marchaud: bool) -> np.ndarray:
    # D^a = (d/dt)^k of one fractional pass: the Marchaud form of order a - floor(a), or J^(ceil(a) - a).
    k = math.floor(a) if marchaud else math.ceil(a)
    if a != k:
        v = _marchaud_values(v, h, a - k) if marchaud else _frac_integral_values(v, h, k - a)
    return _derivative(v, h, k) if k else v


def _first_node_estimates(v: np.ndarray, a: float, marchaud: bool) -> np.ndarray:
    # |index 1| of the derivative of each row of v on its stride-4, 2 and 1 subgrids, as one (3, ...)
    # array: on steps h s it is (h s)**-a times its unit-step value, so one pass on unit steps over
    # the subgrids' stacked ceil(a) + 2 node prefixes (all index 1 reads), times s**-a, reads no h.
    p = np.stack([v[..., ::s][..., : math.ceil(a) + 2] for s in (4, 2, 1)])
    if marchaud and a < 1.0:
        # Row 1 of a 3-node unit-step _marchaud_values, by its operations: ((g0 - g1) mu1[0]) (-a r) + r g1.
        r = rgamma(1.0 - a)
        e = ((p[..., 0] - p[..., 1]) * (1.0 / (1.0 - a))) * (-a * r) + r * p[..., 1]
    else:
        e = _rl_values(p, 1.0, a, marchaud)[..., 1]
    return np.abs(e) * np.reshape([s**-a for s in (4, 2, 1)], (3,) + (1,) * (v.ndim - 1))


def _probe_singular_start(v: np.ndarray, a: float, marchaud: bool) -> bool:
    # Re-estimate the first-node derivative on stride-4 and stride-2 subgrids.  A genuine
    # (t-t0)^-a blow-up makes the estimate grow like 2**a per halving; bounded derivatives keep it
    # flat or shrinking.  Components are probed separately, and one blow-up marks the whole output.
    # No verdict when the stride-4 subgrid is shorter than 4 nodes or than the ceil(a) + 2 read.
    if (v.shape[-1] - 1) // 4 + 1 < max(4, math.ceil(a) + 2):
        return False
    e4, e2, e1 = _first_node_estimates(v, a, marchaud)
    with np.errstate(divide="ignore", invalid="ignore"):
        grows = (e4 > 0.0) & (e2 > 0.0) & (e2 / e4 >= _PROBE_GROWTH) & (e1 / e2 >= _PROBE_GROWTH)
    return bool(np.any(grows))


def _rl(g: GridFunction, v: np.ndarray, a: float, marchaud: bool) -> GridFunction:
    # The derivative of the data v on g's grid, marked when the probe sees it blow up at t0.
    return _result(g, _rl_values(v, g.h, a, marchaud), _probe_singular_start(v, a, marchaud))


@np.errstate(over="ignore", invalid="ignore")
def marchaud_derivative(g: GridFunction, alpha: float) -> GridFunction:
    """Marchaud-form derivative for 0 < alpha < 1; output index 0 is zero.

    No singularity probe is applied here — use :func:`rl_derivative` for the
    marker-aware entry point.
    """
    a = as_order(alpha)
    if not 0.0 < a < 1.0:
        raise PreconditionError(f"the Marchaud form requires 0 < order < 1, got {a}; use rl_derivative")
    if g.singular_start:
        raise PreconditionError("cannot differentiate data marked singular at the start")
    return _result(g, _marchaud_values(g.values, g.h, a))


@np.errstate(over="ignore", invalid="ignore")
def rl_derivative(g: GridFunction, order: float, method: str | None = None) -> GridFunction:
    """Riemann-Liouville derivative of ``g``: the k-th derivative of one fractional pass.

    By default (``method=None``) the pass takes k = floor(order) and the Marchaud form of order
    order - k, none at an integer order; ``"integral_then_difference"``, the one string accepted,
    takes k = ceil(order) and J^(k - order).  Either needs ceil(order) + 2 nodes from order 1 on.
    When the first-node probe detects divergence under refinement, the output carries
    ``singular_start=True`` instead of an unreliable index-0 value.  Its error cannot go below
    the conditioning floor c * eps * h**-order * sup|f| that no grid derivative of float data
    beats: data off by one ulp move the output by about that much.
    """
    a = as_order(order)
    if g.singular_start:
        raise PreconditionError("cannot differentiate data marked singular at the start")
    if a == 0.0:
        return g
    return _rl(g, g.values, a, _is_marchaud(method, a, g.n))


@np.errstate(over="ignore", invalid="ignore")
def caputo_derivative(g: GridFunction, order: float, taylor: Sequence[float]) -> GridFunction:
    """Caputo derivative: subtract the Taylor polynomial at t0, then apply the
    Riemann-Liouville derivative by its default route.

    ``taylor`` must hold exactly ceil(order) derivatives (f(t0), f'(t0), ...);
    for data of d components each entry is a scalar, shared by all of them,
    or a length-d vector.  Wrong Taylor data does not crash: the residual
    behaves like a function with f(t0) != 0 and typically surfaces as the
    singular-start marker.  Refusals come before any work on the entries:
    the Taylor length, then the order and node count, then each entry's
    realness, shape and finiteness.  As for :func:`rl_derivative`, the error
    cannot go below the conditioning floor c * eps * h**-order * sup|f|.
    """
    a = as_order(order)
    if g.singular_start:
        raise PreconditionError("cannot differentiate data marked singular at the start")
    m = math.ceil(a)
    if len(taylor) != m:
        raise TaylorMismatchError(f"order {a} needs exactly {m} Taylor coefficient(s), got {len(taylor)}")
    if m == 0:
        return g
    marchaud = _is_marchaud(None, a, g.n)
    # Each entry as a column: a scalar, or one value per component.
    coeffs = [_real_array(c, TaylorMismatchError, "Taylor coefficients")[..., None] for c in taylor]
    if any(c.shape not in ((1,), g.values.shape[:-1] + (1,)) for c in coeffs):
        raise TaylorMismatchError("each Taylor entry must be a scalar or hold one value per component")
    if not all(np.isfinite(c).all() for c in coeffs):
        raise TaylorMismatchError("Taylor coefficients must be finite")
    t_rel = g.times() - g.t0
    res = np.zeros(g.values.shape)  # the Taylor polynomial, then the residual in its buffer
    factorial = 1
    for j, c in enumerate(coeffs):
        factorial *= max(j, 1)  # past the float range (j >= 171) scaled by 2**-e, which c takes exactly
        e = max(factorial.bit_length() - 1023, 0)
        res += (np.ldexp(c, -e) / (factorial >> e)) * t_rel**j
    del t_rel  # only the residual is alive through the pass
    return _rl(g, np.subtract(g.values, res, out=res), a, marchaud)


# ---------------------------------------------------------------------------
# Leibniz (product) formulas
# ---------------------------------------------------------------------------


def _require_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.values.shape != v.values.shape or u.t0 != v.t0 or u.t1 != v.t1:
        raise PreconditionError("product formulas need both factors on the identical grid, with equal shapes")
    if u.singular_start or v.singular_start:
        raise PreconditionError("product formulas need factors finite at the start")


@np.errstate(over="ignore", invalid="ignore")
def _leibniz(u: GridFunction, v: GridFunction, alpha: float, caputo: bool) -> GridFunction:
    # The Caputo formula is u D(v - v0) + v D(u - u0) - q I: D is the Marchaud pass, q = a h**-a /
    # Gamma(1-a), and I is the kernel integral of the product of the increments, piecewise linear per
    # cell, less the part the formula's last term cancels.  Both are sums by parts over the increments
    # d[i] = f[i-1] - f[i] (d[0] = 0).  On row k >= 3, D g = -q (d * T - wL(k-1) e) with the pass's
    # kernel T, its left weights wL = (mu2 - mu1) / 2 and e = d[2] - 2 d[1]; with s = f - f(t0) and
    # K = mu1 + tail, I convolves s_u d_v + s_v d_u against K and d_u d_v against mu2 + tail, less
    # s_u (d_v * K) + s_v (d_u * K).  As tail[j] - tail[j-1] = -mu0[j], K - T = grad wL (grad wL[j] =
    # wL[j] - wL[j-1], wL[-1] = 0), so the convolutions against T and K cancel down to
    #   q [u grad(d_v * wL) + v grad(d_u * wL) - d_uv * K - 2 (d_u d_v) * wL + wL(k-1) (u e_v + v e_u)],
    # where d_uv = u d_v + v d_u + d_u d_v are the increments of u v, taken from the factors' so that
    # the rounding of u v does not enter, grad wL * d is taken as the difference of wL * d, and the
    # d_u d_v term meets mu2 - mu1 = 2 wL.  All three rows then share wL and stay as small as the
    # increments: no row is a running sum, whose FFT rounding would grow with n on rough factors.
    # Row 2, whose pass takes its own weights, comes out the same, and row 1 takes -d[1] for e.
    # Pairing the u and v terms as (A_u + A_v) makes a u, v swap bit-identical.  The
    # Riemann-Liouville output adds u0 v0 (t-t0)**-a / Gamma(1-a) = q u0 v0 tail[k-1].
    a = as_order(alpha)
    if not 0.0 < a < 1.0:
        raise PreconditionError(f"the product formula requires 0 < order < 1, got {a}")
    _require_same_grid(u, v)
    h, n, uu, vv = u.h, u.n, u.values, v.values
    x = np.zeros((3,) + uu.shape)  # d_u, d_v, and 2 d_u d_v
    np.subtract(uu[..., :-1], uu[..., 1:], out=x[0, ..., 1:])
    np.subtract(vv[..., :-1], vv[..., 1:], out=x[1, ..., 1:])
    du, dv, pairs = x
    np.multiply(du, dv, out=pairs)
    duv = uu * dv + vv * du + pairs
    pairs *= 2.0
    # The kernels and the edge terms of rows 1.. are taken from the moment table, which then dies.
    mu1, mu2, tail = _cell_moments(n + 1, a)[1:]
    wL = (mu2[:n] - mu1[:n]) / 2.0
    eu, ev = x[:2, ..., 2:3] - 2.0 * x[:2, ..., 1:2]  # empty on 2 nodes
    edge = np.zeros(uu.shape[:-1] + (n - 1,)) if caputo else (uu[..., :1] * vv[..., :1]) * tail[: n - 1]
    edge[..., 0] -= wL[0] * (uu[..., 1] * dv[..., 1] + vv[..., 1] * du[..., 1])
    edge[..., 1:] += wL[1 : n - 1] * (uu[..., 2:] * ev + vv[..., 2:] * eu)
    K = mu1[:n] + tail[:n]
    del mu1, mu2, tail, du, dv, pairs
    out = _causal_convolve(duv, K)
    out[..., 1:] -= edge
    del duv, K, edge
    cu, cv, cp = _causal_convolve(x, wL)
    del x
    np.subtract(uu[..., 1:] * np.diff(cv) + vv[..., 1:] * np.diff(cu), out[..., 1:], out=out[..., 1:])
    out -= cp
    out *= a * rgamma(1.0 - a) * h**-a
    out[..., 0] = 0.0  # not -0.0
    return _result(u, out)


def leibniz_rl(u: GridFunction, v: GridFunction, alpha: float) -> GridFunction:
    """Product formula for the Riemann-Liouville derivative, 0 < alpha < 1:

    D(uv) = u Dv + v Du - (alpha/Gamma(1-alpha)) * K(u, v)
            - u v (t-t0)^(-alpha) / Gamma(1-alpha)

    where K is the kernel integral of the product of increments.  Output
    index 0 is zero.
    """
    return _leibniz(u, v, alpha, caputo=False)


def leibniz_caputo(u: GridFunction, v: GridFunction, alpha: float) -> GridFunction:
    """Product formula for the Caputo derivative, 0 < alpha < 1:

    cD(uv) = u cDv + v cDu - (alpha/Gamma(1-alpha)) * K(u, v)
             - [u - u(t0)] [v - v(t0)] (t-t0)^(-alpha) / Gamma(1-alpha)

    The increment-product kernel integral K is the same one as in the
    Riemann-Liouville formula, and the two results differ by one start term:
    cD(uv) = D(uv) - u(t0) v(t0) (t-t0)^(-alpha) / Gamma(1-alpha).
    Output index 0 is zero.
    """
    return _leibniz(u, v, alpha, caputo=True)
