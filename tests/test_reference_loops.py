"""The array Weierstrass and Mittag-Leffler sums, the block Hölder scan, the
pruned exact Hölder scan, the list-based CSV reader and writer, the
one-sampling Weierstrass check and the one-power Marchaud weights against the
per-point, per-row and per-line loops, the three-sampling check and the
three-power weight tables they replaced.  The old code is copied
here verbatim as references, so the comparison does not depend on any
earlier version of the package.  The one-body product formulas are checked
against the two-branch formulas they replaced, ported to long double with
direct sums."""

import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraccalc as fc
import fraccalc.harness as hz
from fraccalc import catalog, cli, spaces
from fraccalc.harness import check_weierstrass_nonmembership
from fraccalc.operators import (
    _causal_convolve,
    _cell_moments,
    _marchaud_values,
    _product_correction,
    _start_shifted,
    marchaud_derivative,
)
from fraccalc.spaces import HolderEstimate, holder_exponent, holder_seminorm
from fraccalc.special import mittag_leffler, rgamma, weierstrass


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


def _holder_seminorm_rows(g, gamma):
    v = g.values
    t = g.times()
    n = v.size
    best = -1.0
    best_pair = (0, 1)
    for i in range(n - 1):
        val, j = _row_max(v, t, gamma, i)
        if val > best:
            best = val
            best_pair = (min(i, j), max(i, j))
    return HolderEstimate(gamma, best, best_pair, n * (n - 1) // 2, exact=True, upper=best)


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
    @pytest.mark.parametrize("n", [2, 3, 65, 1025, 1500, 3001])
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
    def test_budget_brackets_the_seminorm(self, n, kind, monkeypatch):
        g = _data(kind, n)
        for gamma in _GAMMAS:
            ref = _holder_seminorm_rows(g, gamma)
            for budget in (1, 10_000, 100_000):
                monkeypatch.setattr(spaces, "_PAIR_BUDGET", budget)
                est = holder_seminorm(g, gamma)
                assert est.value <= ref.value <= est.upper, (n, kind, gamma, budget)
                assert est.exact == (est.upper <= est.value)
                if est.exact:
                    assert est == ref, (n, kind, gamma, budget)
                else:
                    # The budget is checked before each chunk of block pairs.
                    assert est.pairs_examined < budget + spaces._BLOCK_PAIRS

    @pytest.mark.parametrize("blocks", [2, 8])
    @pytest.mark.parametrize("n", [65, 1025, 1500])
    def test_large_blocks_match_full_rows(self, n, blocks, monkeypatch):
        # Blocks of 32 to 1024 nodes, and one block pair per chunk from 128.
        monkeypatch.setattr(spaces, "_SCAN_BLOCKS", blocks)
        for kind in _KINDS:
            g = _data(kind, n)
            for gamma in _GAMMAS:
                assert holder_seminorm(g, gamma) == _holder_seminorm_rows(g, gamma), (kind, gamma)

    @pytest.mark.parametrize("kind", ["random", "sqrt"])
    def test_block_tables_stay_small(self, kind):
        # 257 blocks of 512 nodes at n = 131073; with 32-node blocks the bound
        # tables alone would take about 900 MiB.
        g = _data(kind, 131073)
        tracemalloc.start()
        try:
            holder_seminorm(g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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
            mag = j * log_abs_z - math.lgamma(den)
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


# ---------------------------------------------------------------------------
# Hölder scan: the exact path evaluates only block pairs that can still win
# ---------------------------------------------------------------------------


def _rows_reference(g, gamma):
    # When every quotient is 0 the row scan names the degenerate pair (0, 0);
    # the block scans name (0, 1), the first real pair (see
    # test_constant_data_names_a_real_pair).
    ref = _holder_seminorm_rows(g, gamma)
    return replace(ref, argmax_pair=(0, 1)) if ref.value == 0.0 else ref


def _pruning_data(kind: str, n: int, t0: float, length: float, scale: float) -> fc.GridFunction:
    x = np.linspace(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    if kind == "constant":
        v = np.full(n, -0.75)
    elif kind == "two_valued":
        v = rng.integers(0, 2, n) * 2.0 - 1.0
    elif kind == "random":
        v = rng.standard_normal(n)
    elif kind == "sqrt":
        v = np.sqrt(x)
    elif kind == "linear":  # every step equal, so slope bounds are tight
        v = x
    elif kind == "monotone":
        v = np.cumsum(rng.uniform(0.0, 1.0, n)) / n
    elif kind == "huge_step":  # one step a million times the others
        v = rng.uniform(-1e-6, 1e-6, n) + (x >= 0.4)
    elif kind == "zigzag":  # runs of 31 unit steps: tied best pairs span whole blocks
        k = np.arange(n)
        v = np.where(k // 31 % 2 == 0, k % 31, 31 - k % 31).astype(float)
    else:  # embedding: J^0.5 of rough piecewise-linear data, as the suite scans
        knots = np.linspace(0.0, 1.0, 16)
        h = fc.GridFunction(0.0, 1.0, np.interp(x, knots, rng.uniform(-1.0, 1.0, knots.size)))
        v = fc.frac_integral(h, 0.5).values
    return fc.GridFunction(t0, t0 + length, scale * v)


class TestPrunedHolderScan:
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    @pytest.mark.parametrize("t0, length", [(0.0, 1.0), (1e6, 1e-3)])
    @pytest.mark.parametrize(
        "kind",
        ["constant", "two_valued", "random", "sqrt", "linear", "monotone", "huge_step", "zigzag", "embedding"],
    )
    @pytest.mark.parametrize("n", [31, 32, 33, 65, 1025])
    def test_matches_full_rows(self, n, kind, t0, length, scale):
        g = _pruning_data(kind, n, t0, length, scale)
        for gamma in (1e-3, 0.5, 1.0):
            # Dataclass equality: value, argmax_pair, pairs_examined, exact.
            assert holder_seminorm(g, gamma) == _rows_reference(g, gamma), (gamma,)

    def test_overflowing_bounds_are_silent(self):
        # Quotients of about 1e307, so the diagonal block bounds, about 31
        # times larger, overflow to inf; that must raise no RuntimeWarning.
        g = fc.GridFunction(0.0, 1e-7, np.linspace(0.0, 1e300, 1025))
        assert holder_seminorm(g, 1.0) == _rows_reference(g, 1.0)

    def test_linear_data_at_gamma_one(self):
        # Every quotient is 3 up to rounding, so the pairs tie within a few
        # ulps and the slope bound, 3 in exact arithmetic, is tight.
        for n in range(200, 400):
            g = fc.GridFunction(0.0, 0.3, 3.0 * np.linspace(0.0, 0.3, n))
            assert holder_seminorm(g, 1.0) == _rows_reference(g, 1.0), (n,)

    def test_values_beyond_float_range_give_inf(self):
        # Neighbours 2e308 apart: the steps and quotients overflow, silently.
        g = fc.GridFunction(0.0, 1.0, np.where(np.arange(65) % 2, 1e308, -1e308))
        est = holder_seminorm(g, 0.5)
        assert est.value == math.inf
        assert est.argmax_pair == (0, 1) and est.exact

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400), gamma=st.floats(1e-3, 1.0),
           step=st.booleans(), t0=st.floats(-1e6, 1e6), length=st.floats(1e-3, 1e3))
    def test_matches_full_rows_on_random_data(self, seed, n, gamma, step, t0, length):
        rng = np.random.default_rng(seed)
        knots = int(rng.integers(1, 13))
        x = np.linspace(0.0, 1.0, n)
        if step:
            # Few integer levels, so many pairs tie for the maximum.
            levels = rng.integers(-2, 3, knots).astype(float)
            v = levels[np.minimum((x * knots).astype(int), knots - 1)]
        else:
            v = np.interp(x, np.linspace(0.0, 1.0, max(knots, 2)), rng.uniform(-1.0, 1.0, max(knots, 2)))
        g = fc.GridFunction(t0, t0 + length, v)
        assert holder_seminorm(g, gamma) == _rows_reference(g, gamma)


def _xvalued_rows_reference(v, t, gamma):
    # Node i against every later node of every component, one i at a time; the first pair in
    # (i, j) order attaining the largest quotient, and (0, 1) when every quotient is 0.
    d, n = v.shape
    best, pair = -1.0, (0, 1)
    for i in range(n - 1):
        r = np.abs(v[:, i + 1 :] - v[:, i : i + 1]) / (t[i + 1 :] - t[i]) ** gamma
        top = float(np.max(r))
        if top > best:
            best, pair = top, (i, i + 1 + int(np.flatnonzero((r == top).any(axis=0))[0]))
    return HolderEstimate(gamma, best, pair, d * n * (n - 1) // 2, exact=True, upper=best)


# The scan as it was before the tiles: per-pair index gathers and one table over all rows,
# copied verbatim but for its name and the module prefix of the constants.
# An overflow to inf is still a valid bound or quotient; masked pairs j <= i give 0/0 or NaN.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _block_scan_gathers(v: np.ndarray, t: np.ndarray, gamma: float) -> tuple[float, tuple[int, int], int, float]:
    # The scan of holder_seminorm (its docstring describes the pruning) over the rows of v, shape
    # (d, n): the largest quotient over the evaluated pairs i < j of any row, the first pair (i, j)
    # attaining it in any row, the pairs examined and ``upper``.  Every table below holds one row
    # per component; a candidate is a (row, block pair), flattened row by row.
    d, n = v.shape
    size = 32
    while -(-n // size) > spaces._SCAN_BLOCKS:
        size *= 2
    starts = np.arange(0, n, size)
    last = np.minimum(starts + size, n) - 1
    vmin = np.minimum.reduceat(v, starts, axis=1)
    vmax = np.maximum.reduceat(v, starts, axis=1)
    p, q = np.triu_indices(starts.size)
    live = (p < q) | (last[p] > starts[p])  # a one-node block holds no pair
    p, q = p[live], q[live]
    rise = np.maximum(vmax[:, q] - vmin[:, p], vmax[:, p] - vmin[:, q])
    h_min = np.min(np.diff(t))
    gap = np.where(p < q, t[starts[q]] - t[last[p]], h_min)
    # |v[k+1] - v[k]|, 0 past the last node; inner[b] leaves out the step from block b to b + 1.
    steps = np.abs(np.diff(v, append=v[:, -1:]))
    inner = np.maximum.reduceat(np.where(np.arange(n) % size == size - 1, 0.0, steps), starts, axis=1)
    # reach[p, q]: the largest step from the first node of block p to the first of block q.
    owned = np.concatenate((np.zeros((d, 1)), np.maximum(inner, steps[:, last])[:, :-1]), axis=1)
    reach = np.maximum.accumulate(np.triu(np.broadcast_to(owned[:, None], (d,) + (starts.size,) * 2), 1), axis=2)
    # Slope bound: pairs of P x Q are j - i <= L = last(Q) - first(P) nodes apart, no step between
    # them exceeds D and no grid step is below h_min, so a quotient is at most D (j - i) / ((j - i)
    # h_min)**gamma <= D L**(1 - gamma) / h_min**gamma.  Rounding the steps, differences, quotients,
    # 1 - gamma and pow moves the sides under 20 ulps apart; the margin, applied before the product
    # with D so that a subnormal product keeps it, covers that.
    D = np.maximum(reach[:, p, q], inner[:, q])
    L = (last[q] - starts[p]).astype(float)
    slope = D * (L ** (1.0 - gamma) / h_min**gamma * spaces._BOUND_MARGIN)
    bound = np.where(rise > 0.0, np.minimum(rise / gap**gamma * spaces._BOUND_MARGIN, slope), 0.0).ravel()
    # Each candidate's row offset into v.ravel() and its first node pair, keyed i * n + j so keys
    # sort in (i, j) order whatever the row.
    base = np.repeat(np.arange(0, d * n, n), p.size)
    p, q = np.tile(starts[p], d), np.tile(starts[q], d)
    first = p * n + np.where(p < q, q, p + 1)
    # A floor under the result: the quotient of some row's extreme values.  Its block pair's bound
    # covers it, so no candidate below it is ever evaluated, and the sort can leave those out.  An
    # overflowing floor gives no such guarantee and keeps every candidate.
    lo, hi = np.sort((np.argmin(v, axis=1), np.argmax(v, axis=1)), axis=0)
    extreme = np.abs(v[np.arange(d), hi] - v[np.arange(d), lo]) / (t[hi] - t[lo]) ** gamma
    floor = np.max(extreme, where=hi > lo, initial=0.0)
    order = np.flatnonzero(bound >= (floor if np.isfinite(floor) else 0.0))
    order = order[np.argsort(-bound[order], kind="stable")]
    offsets = np.arange(size)
    per_chunk = max(spaces._BLOCK_PAIRS // size**2, 1)
    flat = v.ravel()

    best = -1.0
    best_key = 1  # the pair (0, 1)
    evaluated = 0
    while order.size:
        top = bound[order[0]]
        if top < best:
            break
        if top == best:
            # Nothing left can exceed the best quotient; a block pair can
            # only tie it, and matters only if it starts before the best pair.
            order = order[(bound[order] == best) & (first[order] < best_key)]
            if not order.size:
                break
        elif evaluated >= spaces._PAIR_BUDGET:
            return best, divmod(best_key, n), evaluated, float(top)
        take, order = order[:per_chunk], order[per_chunk:]
        sp, sq, row = p[take], q[take], base[take, None, None]
        i = sp[:, None, None] + offsets[:, None]
        j = sq[:, None, None] + offsets
        keep = (j > i) & (j < n)
        evaluated += int(np.count_nonzero(keep))
        i, j = np.minimum(i, n - 1), np.minimum(j, n - 1)
        r = np.where(keep, np.abs(flat[row + j] - flat[row + i]) / (t[j] - t[i]) ** gamma, -1.0)
        top_r = float(np.max(r))
        # The chunk matters only if it beats the best quotient or ties it at an earlier pair.
        if top_r < max(best, 0.0) or (top_r == best and first[take].min() > best_key):
            continue
        k, a, c = np.unravel_index(np.flatnonzero(r == top_r), r.shape)
        key = int(np.min((sp[k] + a) * n + sq[k] + c))
        if top_r > best or key < best_key:
            best, best_key = top_r, key
    return best, divmod(best_key, n), d * n * (n - 1) // 2, best


def test_tiles_match_the_gather_scan_under_any_budget(monkeypatch):
    # Budget-stopped scans too: value, pair, evaluated pairs and upper bound all agree, while the
    # rows fit one group.
    rng = np.random.default_rng(404)
    for k in range(300):
        d, n, gamma = int(rng.integers(1, 5)), int(rng.integers(2, 900)), float(rng.uniform(0.05, 1.0))
        v = rng.standard_normal((d, n)) if k % 3 else np.round(np.cumsum(rng.standard_normal((d, n)), axis=1))
        monkeypatch.setattr(spaces, "_PAIR_BUDGET", [1, 5000, 50_000, 2_000_000][k % 4])
        t = np.linspace(0.0, 1.0, n)
        value, pair, examined, upper = _block_scan_gathers(v, t, gamma)
        want = HolderEstimate(gamma, value, pair, examined, upper <= value, upper)
        assert holder_seminorm(fc.GridFunction(0.0, 1.0, v), gamma) == want, (k, d, n, gamma)

class TestTiledHolderScan:
    # The scan over (d, blocks, size) tiles, with masks only on diagonal and last-block pairs.
    @pytest.mark.parametrize("kind", ["constant", "ties", "walk", "embedding"])
    @pytest.mark.parametrize("d", [1, 3, 20])
    @pytest.mark.parametrize("n", [2, 31, 32, 33, 1025])
    def test_all_fields_match_row_loop(self, n, d, kind):
        rng = np.random.default_rng(1000 * n + d)
        t = np.linspace(0.0, 1.0, n)
        if kind == "constant":
            v = np.full((d, n), 0.25)
        elif kind == "ties":  # few levels, so many pairs in many components tie for the maximum
            v = np.round(rng.uniform(-2.0, 2.0, (d, n)))
        elif kind == "walk":
            v = np.cumsum(rng.standard_normal((d, n)), axis=1)
        else:
            v = np.array([_pruning_data("embedding", n, 0.0, 1.0, 1.0).values] * d) * rng.uniform(0.5, 1.0, (d, 1))
        g = fc.GridFunction(0.0, 1.0, v[0] if d == 1 else v)
        for gamma in (0.3, 0.5, 1.0):
            assert holder_seminorm(g, gamma) == _xvalued_rows_reference(v, t, gamma), (gamma,)

    @pytest.mark.parametrize("budget", [1, 2000, 20_000, 2_000_000])
    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_row_groups_share_the_best_pair(self, n, budget, monkeypatch):
        # 4 blocks at most, so each row is a group of its own; a stopped scan's upper bound covers
        # the rows of the groups it never reached.
        monkeypatch.setattr(spaces, "_SCAN_BLOCKS", 4)
        monkeypatch.setattr(spaces, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(n)
        t = np.linspace(0.0, 1.0, n)
        v = np.cumsum(rng.standard_normal((5, n)), axis=1) * np.array([[0.2], [1.0], [0.5], [3.0], [0.1]])
        for gamma in (0.3, 0.5, 1.0):
            est = holder_seminorm(fc.GridFunction(0.0, 1.0, v), gamma)
            ref = _xvalued_rows_reference(v, t, gamma)
            assert est.value <= ref.value <= est.upper and est.exact == (est.upper <= est.value)
            if est.exact:
                assert est == ref
            else:
                assert est.pairs_examined < budget + spaces._BLOCK_PAIRS

    def test_many_components_scan_in_small_row_groups(self):
        # 20 components of 8193 nodes: 257 blocks, so rows go in groups of 3 that share the best
        # pair; one table over all 20 rows would peak at 63 MiB.  Each row's own scan is one group.
        rng = np.random.default_rng(8193)
        x = np.linspace(0.0, 1.0, 8193)
        knots = np.linspace(0.0, 1.0, 16)
        h = np.array([np.interp(x, knots, rng.uniform(-1.0, 1.0, knots.size)) for _ in range(20)])
        g = fc.frac_integral(fc.GridFunction(0.0, 1.0, h), 0.5)
        tracemalloc.start()
        try:
            est = holder_seminorm(g, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        rows = [holder_seminorm(fc.GridFunction(0.0, 1.0, row), 0.5) for row in g.values]
        value = max(r.value for r in rows)
        pair = min(r.argmax_pair for r in rows if r.value == value)
        assert est == HolderEstimate(0.5, value, pair, 20 * 8193 * 8192 // 2, exact=True, upper=value)


# ---------------------------------------------------------------------------
# Weierstrass non-membership: one sampling serves all three levels
# ---------------------------------------------------------------------------


def _weierstrass_nonmembership_three_samplings(alpha, sigma, n):
    entry = catalog.builtin("weierstrass_shifted", {"alpha": alpha, "sigma": sigma})
    sizes = [n, 2 * n - 1, 4 * n - 3]
    samples = [catalog.sample(entry, 0.0, 1.0, m) for m in sizes]
    derivs = [marchaud_derivative(s, alpha).values for s in samples]
    d0, d1, d2 = derivs
    dev1 = hz._sup(d0[hz._PROTOCOL_WINDOW:] - d1[2 * hz._PROTOCOL_WINDOW :: 2])
    dev2 = hz._sup(d1[2 * hz._PROTOCOL_WINDOW :: 2] - d2[4 * hz._PROTOCOL_WINDOW :: 4])
    expo = holder_exponent(samples[-1])
    if dev2 <= 1e-12:
        r_conv = hz._FAIL
    else:
        r_conv = dev1 / (1.5 * dev2)
    ratios = [abs(expo - alpha) / 0.1, r_conv]
    return hz._report(
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


def test_weierstrass_check_matches_three_samplings():
    got = check_weierstrass_nonmembership()
    want = _weierstrass_nonmembership_three_samplings(0.5, 2.0, 1025)
    assert got.max_error == want.max_error
    assert dict(got.details) == dict(want.details)
    assert got == want


# ---------------------------------------------------------------------------
# Marchaud derivative: three pow passes and full-length weight tables
# ---------------------------------------------------------------------------


def _cell_moments_three_pows(nmax, a):
    m = np.arange(1, nmax + 1, dtype=float)
    mu0 = np.empty(nmax)
    mu1 = np.empty(nmax)
    mu2 = np.empty(nmax)
    mu0[0] = np.inf
    mu1[0] = 1.0 / (1.0 - a)
    mu2[0] = 1.0 / (2.0 - a)
    mm = m[1:]
    lg = np.log1p(-1.0 / mm)
    p0 = mm**-a * np.expm1(-a * lg) / a
    p1 = -(mm ** (1.0 - a)) * np.expm1((1.0 - a) * lg) / (1.0 - a)
    p2 = -(mm ** (2.0 - a)) * np.expm1((2.0 - a) * lg) / (2.0 - a)
    mu0[1:] = p0
    mu1[1:] = p1 - (mm - 1.0) * p0
    mu2[1:] = p2 - 2.0 * (mm - 1.0) * p1 + (mm - 1.0) ** 2 * p0
    return mu0, mu1, mu2


def _marchaud_values_weight_tables(g, h, a, moments=None):
    n = g.shape[-1]
    out = np.zeros(g.shape)
    pref = -a * rgamma(1.0 - a)
    tpow = (np.arange(1, n) * h) ** -a * rgamma(1.0 - a)
    mu0, mu1, mu2 = _cell_moments_three_pows(n + 1, a) if moments is None else moments
    s1 = 2.0 * mu1[0] - mu2[0]
    s2 = (mu2[0] - mu1[0]) / 2.0
    wR = (mu2 - 3.0 * mu1 + 2.0 * mu0) / 2.0
    wM = 2.0 * mu1 - mu2
    wL = (mu2 - mu1) / 2.0
    e1 = mu0 - mu2
    e0 = (mu2 + mu1) / 2.0

    sums = np.zeros(g.shape)
    sums[..., 1] = (g[..., 0] - g[..., 1]) * mu1[0]
    if n > 2:
        sums[..., 2] = (s1 + e1[1]) * (g[..., 1] - g[..., 2]) + (s2 + e0[1]) * (g[..., 0] - g[..., 2])
    if n > 3:
        c = np.zeros(n)
        c[1] = s1 + wR[1]
        c[2] = s2 + wM[1] + wR[2]
        c[3:] = wL[1 : n - 2] + wM[2 : n - 1] + wR[3:n]
        conv = _causal_convolve(g, c)
        k = np.arange(3, n)
        T = s1 + s2 + (1.0 - k ** (-a)) / a
        sums[..., 3:] = (
            conv[..., 3:]
            + wL[2 : n - 1] * g[..., 2, None]
            + (e1[2 : n - 1] - wR[2 : n - 1]) * g[..., 1, None]
            + (e0[2 : n - 1] - wM[2 : n - 1] - wR[3:n]) * g[..., 0, None]
            - T * g[..., 3:]
        )
    out[..., 1:] = pref * h**-a * sums[..., 1:] + tpow * g[..., 1:]
    return out


def _marchaud_rows(kind, n):
    t = np.linspace(0.0, 1.0, n)
    if kind == "single":
        return np.sqrt(t) + t
    return np.stack((1.0 + t**0.6, 2.0 + t**0.8, np.cos(3.0 * t)))


class TestMarchaudWeights:
    @pytest.mark.parametrize("kind", ["single", "stacked"])
    @pytest.mark.parametrize("n", [13, 64, 511, 512, 2049, 32769])
    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_weight_tables(self, a, n, kind):
        # The reference rounds its moment tables differently and forms the
        # k**-a terms that cancel in closed form; near a = 1 the conv - T g
        # cancellation amplifies both differences.
        g = _marchaud_rows(kind, n)
        h = 1.0 / (n - 1)
        ref = _marchaud_values_weight_tables(g, h, a)
        got = _marchaud_values(g, h, a)
        assert got.shape == ref.shape
        assert np.all(got[..., 0] == 0.0)
        sup = np.max(np.abs(ref[..., 8:]), axis=-1)
        move = np.max(np.abs(got - ref), axis=-1) / sup
        assert np.all(move <= (1e-11 if a > 0.7 else 2e-12))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 13, 511, 512, 4097])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_same_tables_give_the_reference_on_rough_data(self, a, n):
        # On rough data the two moment tables' rounding (~m**2 eps in mu2)
        # moves the output by up to ~3e-11 of its sup at n = 32769, a = 0.1;
        # from one table the weights, edge terms and the folded k**-a terms
        # must agree to rounding.
        g = np.random.default_rng(n).standard_normal((2, n))
        h = 1.0 / (n - 1)
        table = _cell_moments_three_pows(n + 1, a)
        ref = _marchaud_values_weight_tables(g, h, a, table)
        got = _marchaud_values(g, h, a, (*table, np.arange(1.0, n + 2) ** -a / a))
        sup = np.max(np.abs(ref[..., 1:]), axis=-1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * sup)

    @pytest.mark.parametrize("shape", [(), (2,)], ids=["scalar", "stacked"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    def test_two_and_three_nodes(self, a, n, shape):
        # The body that serves long grids serves 2 and 3 nodes, with no convolution term left: from
        # the same tables the output is the reference's bit for bit, with or without the increments
        # passed in, and from the pass's own tables it agrees to rounding.
        g = np.random.default_rng(n).standard_normal(shape + (n,))
        h = 1.0 / (n - 1)
        d = np.zeros(g.shape)
        d[..., 1:] = g[..., :-1] - g[..., 1:]
        kept = d.copy()
        table = _cell_moments_three_pows(n + 1, a)
        moments = (*table, np.arange(1.0, n + 2) ** -a / a)
        ref = _marchaud_values_weight_tables(g, h, a, table)
        for got in (_marchaud_values(g, h, a, moments), _marchaud_values(g, h, a, moments, d)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        ref = _marchaud_values_weight_tables(g, h, a)
        for got in (_marchaud_values(g, h, a), _marchaud_values(g, h, a, d=d)):
            assert got.shape == ref.shape
            assert np.all(got[..., 0] == 0.0)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.max(np.abs(ref)))
        assert d.tobytes() == kept.tobytes()


def _probe_inputs():
    # The D and cD inputs of tests/test_probe.py, on fixed grids and orders.
    cases = []
    for n in (13, 14, 20, 30, 1000, 1024, 1025, 1026, 1027):
        for name, params in (("constant", {"c": 1.0}), ("ml_exp", {"alpha": 0.7})):
            g = fc.sample(fc.builtin(name, params), 0.0, 1.0, n)
            cases += [(g, 0.5, None), (g, 0.5, (1.0,))]
    for n in (13, 100, 4097):
        t = np.linspace(0.0, 1.0, n)
        for alpha in np.linspace(0.05, 0.95, 19):
            for p in (0.0, 0.5, 1.0, 1.5, 2.0):
                for c in (0.1, -10.0):
                    cases.append((fc.GridFunction(0.0, 1.0, c * t**p), alpha, None))
                cases.append((fc.GridFunction(0.0, 1.0, 1.0 + t**p), alpha, (1.0,)))
    t = np.linspace(0.0, 1.0, 2049)
    cases.append((fc.GridFunction(0.0, 1.0, np.exp(-t) + t**0.3), 0.5, None))
    return cases


def test_singular_start_unchanged_on_probe_inputs():
    # The reference probe: index 1 of the weight-table Marchaud pass on the stride-4, 2 and 1
    # prefixes of the data (for cD, of the residual g - f(t0)), marked when it grows by 1.15x twice.
    def marker(g, alpha, taylor):
        v = g.values if taylor is None else g.values - taylor[0]
        if g.n < 13:
            return False
        e4, e2, e1 = (abs(_marchaud_values_weight_tables(v[::s][:3], g.h * s, alpha)[1]) for s in (4, 2, 1))
        return bool(e4 > 0.0 and e2 > 0.0 and e2 / e4 >= 1.15 and e1 / e2 >= 1.15)

    cases = _probe_inputs()
    got = [
        (fc.rl_derivative(g, alpha) if taylor is None else fc.caputo_derivative(g, alpha, taylor)).singular_start
        for g, alpha, taylor in cases
    ]
    assert got == [marker(*case) for case in cases]
    assert any(got) and not all(got)


# ---------------------------------------------------------------------------
# the two-branch product formulas, in long double with direct sums
# ---------------------------------------------------------------------------

_LD = np.longdouble


def _cell_moments_ld(nmax, a):
    mu = np.empty((3, nmax), dtype=_LD)
    mu[:, 0] = np.inf, 1 / (1 - a), 1 / (2 - a)
    m = np.arange(2, nmax + 1, dtype=_LD)
    lg = np.log1p(-1 / m)
    p0, p1, p2 = (m ** (j - a) * -np.expm1((j - a) * lg) / (j - a) for j in range(3))
    mu[0, 1:] = p0
    mu[1, 1:] = p1 - (m - 1) * p0
    mu[2, 1:] = p2 - (m - 1) * (2 * p1 - (m - 1) * p0)
    return mu


def _marchaud_ld(g, h, a, mu):
    # The Marchaud rows of the quadratic increment rule: first-cell weights
    # s1, s2, one convolution kernel from node 3 on, and the edge terms.
    mu0, mu1, mu2 = mu
    n = g.size
    r = 1 / _LD(math.gamma(1.0 - a))
    s1, s2 = 2 * mu1[0] - mu2[0], (mu2[0] - mu1[0]) / 2
    out = np.zeros(n, dtype=_LD)
    if n > 3:
        wL, wM = (mu2[:n] - mu1[:n]) / 2, 2 * mu1[:n] - mu2[:n]
        wR = mu0[:n] - mu1[:n] + wL
        c = np.zeros(n, dtype=_LD)
        c[1], c[2] = s1 + wR[1], s2 + wM[1] + wR[2]
        c[3:] = wL[1 : n - 2] + wM[2 : n - 1] + wR[3:n]
        k = np.arange(3, n, dtype=_LD)
        out[3:] = (
            np.convolve(g, c)[3:n]
            - (s1 + s2 + (1 - k**-a) / a) * g[3:]
            + wL[2 : n - 1] * (g[2] - 3 * (g[1] - g[0]))
            - wR[3:n] * g[0]
        )
    out[1] = (g[0] - g[1]) * mu1[0]
    if n > 2:
        e1, e0 = mu0[1] - mu2[1], (mu2[1] + mu1[1]) / 2
        out[2] = (s1 + e1) * (g[1] - g[2]) + (s2 + e0) * (g[0] - g[2])
    out[1:] *= -a * r * h**-a
    out[1:] += (np.arange(1, n, dtype=_LD) * h) ** -a * r * g[1:]
    return out


def _correction_ld(u, v, a, mu):
    # The increment-product integral I[k] as seven direct convolutions.
    n = u.size
    u, v = u - u[0], v - v[0]
    mu0, mu1, mu2 = (m[: n - 1] for m in mu)
    mu0 = np.concatenate(([_LD(0)], mu0[1:]))
    ur, vr = u[1:], v[1:]
    du, dv = u[:-1] - ur, v[:-1] - vr
    conv = lambda x, m: np.convolve(x, m)[: n - 1]  # noqa: E731
    from_u = conv(ur, mu0) + conv(du, mu1)
    from_v = conv(vr, mu0) + conv(dv, mu1)
    pair = conv(ur * vr, mu0) + conv(ur * dv + vr * du, mu1) + conv(du * dv, mu2)
    k = np.arange(1, n, dtype=_LD)
    out = np.zeros(n, dtype=_LD)
    out[1:] = pair + ur * vr * (1 - k**-a) / a - (ur * from_v + vr * from_u)
    return out


def _leibniz_two_branches_ld(u, v, a, caputo):
    # Caputo: the factor derivatives are those of u - u0 and v - v0, and the
    # last term takes the start-shifted product; RL: neither is shifted.
    n = u.size
    h = _LD(1.0 / (n - 1))
    mu = _cell_moments_ld(n + 1, a)
    u0, v0 = (u[0], v[0]) if caputo else (_LD(0), _LD(0))
    du, dv = _marchaud_ld(u - u0, h, a, mu), _marchaud_ld(v - v0, h, a, mu)
    r = 1 / _LD(math.gamma(1.0 - a))
    k = np.arange(1, n, dtype=_LD)
    out = np.zeros(n, dtype=_LD)
    out[1:] = (
        u[1:] * dv[1:]
        + v[1:] * du[1:]
        - a * r * h**-a * _correction_ld(u, v, a, mu)[1:]
        - (u[1:] - u0) * (v[1:] - v0) * r * (k * h) ** -a
    )
    return out


def _leibniz_factors(kind, n):
    t = np.linspace(0.0, 1.0, n)
    return {
        "powers": (t**0.6, t**0.8),
        "offset": (1.0 + t**0.6, 2.0 + t**0.8),
        "cos": (100.0 + t**0.7, np.cos(3.0 * t)),
        "random": tuple(np.random.default_rng(n).standard_normal((2, n))),
    }[kind]


@pytest.mark.parametrize("kind", ["powers", "offset", "cos", "random"])
@pytest.mark.parametrize("n", [257, 2049])
@pytest.mark.parametrize("a", [0.5, 0.9])
def test_leibniz_matches_long_double_two_branch_formulas(a, n, kind):
    # One body, Caputo terms plus the RL start term, against both formulas
    # as two branches evaluated in long double with direct sums.
    u, v = _leibniz_factors(kind, n)
    U, V = fc.GridFunction(0.0, 1.0, u), fc.GridFunction(0.0, 1.0, v)
    for formula, caputo in ((fc.leibniz_rl, False), (fc.leibniz_caputo, True)):
        ref = _leibniz_two_branches_ld(u.astype(_LD), v.astype(_LD), a, caputo)
        got = formula(U, V, a).values
        assert got[0] == 0.0
        move = np.max(np.abs(got[8:] - ref[8:])) / np.max(np.abs(ref[8:]))
        assert move <= (2e-12 if a > 0.7 else 2e-13), (formula.__name__, float(move))


@pytest.mark.parametrize("kind", ["powers", "offset", "cos"])
@pytest.mark.parametrize("n", [2049, 4097])
@pytest.mark.parametrize("a", [0.5, 0.9])
def test_product_correction_matches_long_double(a, n, kind):
    # Summed by parts, every convolution of the correction takes increments
    # and a decaying kernel, so its FFT rounding scales with the result, not
    # with mu0 sums of the data's values that cancel down to it.
    u, v = _leibniz_factors(kind, n)
    k = np.maximum(np.arange(n), 1.0)
    # The correction leaves the (u - u0)(v - v0) k**-a / a part to its caller.
    ref = _correction_ld(u.astype(_LD), v.astype(_LD), a, _cell_moments_ld(n + 1, a))
    ref += (u - u[0]) * (v - v[0]) * k.astype(_LD) ** -a / a
    got = _product_correction(*_start_shifted(u, v), _cell_moments(n + 1, a))
    move = np.max(np.abs(got[8:] - ref[8:])) / np.max(np.abs(ref[8:]))
    assert move <= 2e-14, float(move)
