"""The array Weierstrass and Mittag-Leffler sums, the block Hölder scan and
the list-based CSV reader and writer against the per-point, per-row and
per-line loops they replaced.  The old loops are copied here verbatim as
references, so the comparison does not depend on any earlier version of the
package."""

import math

import mpmath
import numpy as np
import pytest

import fraccalc as fc
from fraccalc import cli
from fraccalc.spaces import HolderEstimate, holder_seminorm
from fraccalc.special import _lgamma_pos, mittag_leffler, rgamma, weierstrass


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


# ---------------------------------------------------------------------------
# Mittag-Leffler sum: the scalar Kahan loop
# ---------------------------------------------------------------------------


def _mittag_leffler_scalar(alpha, beta, z, tol=1e-14, max_terms=2000):
    if z == 0.0:
        return rgamma(beta)
    log_abs_z = math.log(abs(z))
    total = 0.0
    comp = 0.0
    for j in range(max_terms):
        den = alpha * j + beta
        if j == 0:
            term = rgamma(beta)
        elif den > 0.0:
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
        if den > 2.0 and abs(term) <= tol * max(1.0, abs(total)):
            return total
    raise AssertionError("reference series did not converge")


class TestMittagLefflerArray:
    @pytest.mark.parametrize("beta", [1.0, 1.2, 1.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7, 0.9, 2.0])
    def test_matches_scalar_loop_on_catalog_arguments(self, alpha, beta):
        # The catalog's ml_exp arguments.  The two sums differ only by ulps
        # of numpy's exp/log against the math module's.
        z = np.linspace(0.0, 1.0, 1025) ** alpha
        got = mittag_leffler(alpha, beta, z)
        want = np.array([_mittag_leffler_scalar(alpha, beta, float(x)) for x in z])
        assert got.shape == z.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_shapes_are_kept(self):
        z = np.linspace(-1.0, 2.0, 12)
        flat = mittag_leffler(0.7, 1.2, z)
        assert flat.shape == (12,)
        grid = mittag_leffler(0.7, 1.2, z.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert np.array_equal(grid.ravel(), flat)
        assert mittag_leffler(0.7, 1.2, np.zeros((0,))).shape == (0,)
        # A scalar or a 0-d array returns a float, equal to its entry of
        # the array call.
        for scalar in (z[5], float(z[5]), np.asarray(z[5])):
            out = mittag_leffler(0.7, 1.2, scalar)
            assert type(out) is float
            assert out == flat[5]

    def test_zero_entries_are_reciprocal_gamma(self):
        out = mittag_leffler(0.8, 1.7, np.array([0.0, 0.5, -0.0]))
        assert out[0] == out[2] == rgamma(1.7)
        assert out[1] == mittag_leffler(0.8, 1.7, 0.5)

    def test_out_of_box_entry_raises(self):
        for bad in (5.5, math.nan, -math.inf):
            with pytest.raises(fc.InvalidParameterError):
                mittag_leffler(0.7, 1.0, np.array([0.0, 1.0, bad]))


# ---------------------------------------------------------------------------
# CSV: the per-index writer and the per-line reader
# ---------------------------------------------------------------------------


def _csv_text_loop(g):
    t = g.times()
    lines = ["t,value"]
    for i in range(g.n):
        if i == 0 and g.singular_start:
            lines.append(f"{t[i]:.17g},sing")
        else:
            lines.append(f"{t[i]:.17g},{g.values[i]:.17g}")
    return "\n".join(lines) + "\n"


def _read_grid_csv_loop(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise fc.DataError(f"cannot read {path}: {exc}") from None
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0].strip() != "t,value":
        raise fc.DataError(f"{path}: first line must be the header 't,value'")
    ts = []
    vals = []
    singular = False
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise fc.DataError(f"{path}:{lineno}: expected 't,value', got {ln!r}")
        try:
            t = float(parts[0])
        except ValueError:
            raise fc.DataError(f"{path}:{lineno}: bad t value {parts[0]!r}") from None
        token = parts[1].strip()
        if token == "sing":
            if len(ts) != 0:
                raise fc.DataError(f"{path}:{lineno}: 'sing' is only allowed on the first data row")
            singular = True
            v = math.nan
        else:
            try:
                v = float(token)
            except ValueError:
                raise fc.DataError(f"{path}:{lineno}: bad value {token!r}") from None
            if not math.isfinite(v):
                raise fc.DataError(f"{path}:{lineno}: non-finite value {token!r}")
        if not math.isfinite(t):
            raise fc.DataError(f"{path}:{lineno}: non-finite t {parts[0]!r}")
        ts.append(t)
        vals.append(v)
    if len(ts) < 2:
        raise fc.DataError(f"{path}: need at least 2 data rows")
    t_arr = np.asarray(ts)
    span = t_arr[-1] - t_arr[0]
    if span <= 0:
        raise fc.DataError(f"{path}: t column must be strictly increasing")
    h = span / (len(ts) - 1)
    dt = np.diff(t_arr)
    if np.any(dt <= 0) or np.max(np.abs(dt - h)) > 1e-9 * span:
        raise fc.DataError(f"{path}: t column is not uniformly spaced (relative tolerance 1e-9)")
    return fc.GridFunction(float(t_arr[0]), float(t_arr[-1]), np.asarray(vals), singular)


def _csv_grid(kind, n):
    rng = np.random.default_rng(n)
    if kind == "sampled":
        return fc.sample(fc.builtin("ml_exp", {"alpha": 0.7, "t0": 0.25}), 0.25, 1.75, n)
    if kind == "sing":
        return fc.GridFunction(0.0, 1.0, rng.standard_normal(n), singular_start=True)
    if kind == "signed_zero":
        return fc.GridFunction(-1.0, 0.0, np.where(np.arange(n) % 2, -0.0, 0.0))
    if kind == "subnormal":
        return fc.GridFunction(0.0, 3e-300, rng.standard_normal(n) * 5e-324 * 1000.0)
    return fc.GridFunction(-1e300, 1e300, np.where(np.arange(n) % 2, -1e300, 1e300))


_CSV_KINDS = ["sampled", "sing", "signed_zero", "subnormal", "huge"]


class TestCsvWriter:
    @pytest.mark.parametrize("kind", _CSV_KINDS)
    @pytest.mark.parametrize("n", [2, 257, 1024, 2049])
    def test_bytes_match_index_loop(self, tmp_path, n, kind):
        g = _csv_grid(kind, n)
        p = tmp_path / "g.csv"
        cli.write_grid_csv(str(p), g)
        assert p.read_bytes() == _csv_text_loop(g).encode("utf-8")


class TestCsvReader:
    @pytest.mark.parametrize("kind", _CSV_KINDS)
    @pytest.mark.parametrize("n", [2, 257, 1024])
    def test_grid_matches_line_loop(self, tmp_path, n, kind):
        p = tmp_path / "g.csv"
        # Padded fields and a blank line, which both readers accept.
        header, rows = _csv_text_loop(_csv_grid(kind, n)).split("\n", 1)
        p.write_text(header + "\n\n" + rows.replace(",", " ,  "))
        got, want = cli.read_grid_csv(str(p)), _read_grid_csv_loop(str(p))
        assert (got.t0, got.t1, got.singular_start) == (want.t0, want.t1, want.singular_start)
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "content",
        [
            "t,value\n0,1_0\n0.5,2\n1,3\n",  # digit grouping
            "t,value\n0,sing\n0.5,\u0662\n1,3\n",  # a non-ASCII digit
            "t,value\n0,1\n0.5,\u00a02\n1,3\n",  # a no-break space
            "t,value\n0,1e-400\n1e-300,1e5\n2e-300,-0\n",
        ],
    )
    def test_values_only_float_accepts_match_line_loop(self, tmp_path, content):
        # Strings that float() parses but stricter number readers refuse
        # must still read as they did.
        p = tmp_path / "g.csv"
        p.write_text(content, encoding="utf-8")
        got, want = cli.read_grid_csv(str(p)), _read_grid_csv_loop(str(p))
        assert (got.t0, got.t1, got.singular_start) == (want.t0, want.t1, want.singular_start)
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "content",
        [
            "time,value\n0,1\n1,2\n",  # bad header
            "",  # no header
            "t,value\n0,1\n0.5,2,7\n1,3\n",  # 3 fields
            "t,value\n0,1\n0.5\n1,3\n",  # 1 field
            "t,value\n0,1\nx,2\n1,3\n",  # bad t
            "t,value\n0,1\n0.5,y\n1,3\n",  # bad value
            "t,value\n0,1\n0.5,nan\n1,3\n",  # non-finite value
            "t,value\n0,1\ninf,2\n1,3\n",  # non-finite t
            "t,value\n0,1\n0.5,sing\n1,3\n",  # sing past the first row
            "t,value\n0,1\n0.5,2\n0.7,3\n",  # non-uniform t
            "t,value\n1,1\n0,2\n",  # decreasing t
            "t,value\n0,sing\n",  # fewer than 2 rows
            "t,value\n",  # no rows
            "t,value\n0,1\n0.5,y\nx,3\n",  # the first of two bad rows wins
            "t,value\n0,1\n0.5,2,7\nx,sing\n",
            "t,value\nx,sing\n0.5,2\n",
        ],
    )
    def test_errors_match_line_loop(self, tmp_path, content):
        p = tmp_path / "bad.csv"
        p.write_text(content)
        with pytest.raises(fc.DataError) as want:
            _read_grid_csv_loop(str(p))
        with pytest.raises(fc.DataError) as got:
            cli.read_grid_csv(str(p))
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# CLI: one argument parser per process
# ---------------------------------------------------------------------------


def test_repeated_main_calls_are_independent(tmp_path):
    # The second call must not inherit the first call's options: here --n
    # and --taylor, which the second argv leaves at their defaults.
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["transform", "--fn", "power:p=1.5", "--op", "cD", "--alpha", "0.5",
                     "--n", "65", "--taylor", "0", "--output", str(first)]) == 0
    assert cli.main(["transform", "--fn", "constant:c=2", "--op", "J", "--alpha", "0.5",
                     "--output", str(second)]) == 0
    a, b = cli.read_grid_csv(str(first)), cli.read_grid_csv(str(second))
    assert a.n == 65 and b.n == 1025
    t = b.times()
    np.testing.assert_allclose(b.values, 2.0 * np.sqrt(t) / math.gamma(1.5), rtol=1e-12, atol=1e-12)
    # And the first transform again, after the second.
    again = tmp_path / "c.csv"
    assert cli.main(["transform", "--fn", "power:p=1.5", "--op", "cD", "--alpha", "0.5",
                     "--n", "65", "--taylor", "0", "--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
