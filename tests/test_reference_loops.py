"""The array Weierstrass sum and the block Hölder scan against the per-point
and per-row loops they replaced.  The old loops are copied here verbatim as
references, so the comparison does not depend on any earlier version of the
package."""

import math

import mpmath
import numpy as np
import pytest

import fraccalc as fc
from fraccalc.spaces import HolderEstimate, holder_seminorm
from fraccalc.special import weierstrass


# ---------------------------------------------------------------------------
# references: the scalar Kahan loop and the full-row Hölder scan
# ---------------------------------------------------------------------------


def _weierstrass_scalar(alpha, sigma, t, tol=1e-14, max_terms=2000):
    q = sigma**-alpha
    tail_scale = 1.0 / (1.0 - q)
    total = 0.0
    comp = 0.0
    w = 1.0
    arg = t
    for _ in range(max_terms):
        y = w * math.cos(arg) - comp
        s = total + y
        comp = (s - total) - y
        total = s
        w *= q
        arg *= sigma
        if w * tail_scale <= tol:
            return total
    raise AssertionError("reference sum did not reach its tail bound")


def _row_max(v, t, gamma, i):
    d = np.abs(v - v[i])
    dist = np.abs(t - t[i])
    dist[i] = np.inf
    r = d / dist**gamma
    j = int(np.argmax(r))
    return float(r[j]), j


def _holder_seminorm_rows(g, gamma, pair_budget=2_000_000):
    v = g.values
    t = g.times()
    n = v.size
    total_pairs = n * (n - 1) // 2

    best = -1.0
    best_pair = (0, 1)
    examined = 0

    def scan(indices):
        nonlocal best, best_pair, examined
        for i in indices:
            val, j = _row_max(v, t, gamma, int(i))
            examined += n - 1
            if val > best:
                best = val
                best_pair = (min(int(i), j), max(int(i), j))

    if total_pairs <= pair_budget:
        scan(np.arange(n - 1))
        return HolderEstimate(gamma, best, best_pair, total_pairs, exact=True)

    edge = min(32, n // 2)
    edge_rows = np.concatenate([np.arange(edge), np.arange(n - edge, n)])
    scan(edge_rows)
    remaining = max(pair_budget - examined, 0)
    m = max(int((2.0 * remaining) ** 0.5), 2)
    stride = max(n // m, 1)
    sub = np.unique(np.concatenate([np.arange(0, n, stride), [n - 1]]))
    for a_pos, i in enumerate(sub[:-1]):
        js = sub[a_pos + 1 :]
        r = np.abs(v[js] - v[i]) / (t[js] - t[i]) ** gamma
        examined += js.size
        jloc = int(np.argmax(r))
        if float(r[jloc]) > best:
            best = float(r[jloc])
            best_pair = (int(i), int(js[jloc]))
    return HolderEstimate(gamma, best, best_pair, examined, exact=False)


# ---------------------------------------------------------------------------
# Weierstrass sum
# ---------------------------------------------------------------------------


class TestWeierstrassArray:
    @pytest.mark.parametrize("n", [1025, 2049, 4097])
    def test_matches_scalar_loop_on_grids(self, n):
        t = np.linspace(0.0, 1.0, n)
        got = weierstrass(0.5, 2.0, t)
        want = np.array([_weierstrass_scalar(0.5, 2.0, float(x)) for x in t])
        assert got.shape == t.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("sigma", [2.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_against_mpmath(self, alpha, sigma):
        # With sigma a power of two the scaled arguments sigma**j * t are
        # exact in binary floating point, so this compares the summation and
        # its truncation, not the rounding of the arguments.
        points = [0.0, 0.3, 1.0, 2.5]
        got = weierstrass(alpha, sigma, np.array(points))
        with mpmath.workdps(40):
            a, s = mpmath.mpf(alpha), mpmath.mpf(sigma)
            terms = int(math.ceil(22.0 / (alpha * math.log10(sigma))))
            for x, value in zip(points, got):
                exact = mpmath.fsum(
                    s ** (-j * a) * mpmath.cos(mpmath.mpf(x) * s**j) for j in range(terms)
                )
                assert abs(value - float(exact)) <= 1e-12

    def test_scalar_returns_float(self):
        out = weierstrass(0.5, 2.0, 0.3)
        assert type(out) is float
        assert out == _weierstrass_scalar(0.5, 2.0, 0.3)
        assert type(weierstrass(0.5, 2.0, np.float64(0.3))) is float

    def test_array_keeps_shape(self):
        t = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        out = weierstrass(0.5, 2.0, t)
        assert out.shape == (3, 4)
        assert out[1, 2] == weierstrass(0.5, 2.0, float(t[1, 2]))

    def test_non_finite_entry_raises(self):
        with pytest.raises(fc.InvalidParameterError):
            weierstrass(0.5, 2.0, np.array([0.0, math.nan]))


# ---------------------------------------------------------------------------
# Hölder scan
# ---------------------------------------------------------------------------


def _data(kind: str, n: int) -> fc.GridFunction:
    t = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    if kind == "random":
        v = rng.standard_normal(n)
    elif kind == "sqrt":
        v = np.sqrt(t)
    elif kind == "integer":
        v = rng.integers(-3, 4, n).astype(float)
    else:  # oscillating
        v = np.sin(40.0 * t) * t**0.3
    return fc.GridFunction(0.0, 1.0, v)


_KINDS = ["random", "sqrt", "integer", "oscillating"]
_GAMMAS = [0.3, 0.5, 0.77, 1.0]


class TestHolderScan:
    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("n", [2, 3, 65, 1025, 1500])
    def test_exact_scan_matches_full_rows(self, n, kind):
        g = _data(kind, n)
        for gamma in _GAMMAS:
            # Dataclass equality: value, argmax_pair, pairs_examined, exact.
            assert holder_seminorm(g, gamma) == _holder_seminorm_rows(g, gamma), (n, kind, gamma)

    def test_constant_data_names_a_real_pair(self):
        # The one departure from the row scan: when every value equals the
        # first, the row scan named the degenerate pair (0, 0).
        g = fc.GridFunction(0.0, 1.0, np.full(9, 2.5))
        est = holder_seminorm(g, 0.5)
        assert est.value == 0.0
        assert est.argmax_pair == (0, 1)
        assert _holder_seminorm_rows(g, 0.5).argmax_pair == (0, 0)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("n", [1025, 3001])
    def test_budgeted_value_unchanged(self, n, kind):
        g = _data(kind, n)
        for gamma in _GAMMAS:
            est = holder_seminorm(g, gamma, pair_budget=10_000)
            ref = _holder_seminorm_rows(g, gamma, pair_budget=10_000)
            assert not est.exact and not ref.exact
            assert est.value == ref.value, (n, kind, gamma)
            # The block scan counts each examined pair once; the row scan
            # counted pairs between two edge rows, and subsample pairs that
            # touch an edge, twice.
            assert est.pairs_examined < ref.pairs_examined

    def test_budgeted_pairs_are_distinct(self):
        # n = 200 under a budget of 15,000: the 32 + 32 edge nodes and a
        # stride-2 subsample.
        n, budget = 200, 15_000
        est = holder_seminorm(_data("random", n), 0.5, pair_budget=budget)
        edge = 32
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if i < edge or j >= n - edge}
        remaining = max(budget - 2 * edge * (n - 1), 0)
        stride = max(n // max(int((2.0 * remaining) ** 0.5), 2), 1)
        assert stride == 2
        sub = sorted(set(range(0, n, stride)) | {n - 1})
        pairs |= {(i, j) for i in sub for j in sub if i < j}
        assert est.pairs_examined == len(pairs)
