"""The array Weierstrass and Mittag-Leffler sums, the block Hölder scan, the
pruned exact Hölder scan, the list-based CSV reader and writer and the
one-sampling Weierstrass check against the per-point, per-row and per-line
loops and the three-sampling check they replaced.  The old code is copied
here verbatim as references, so the comparison does not depend on any
earlier version of the package."""

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
from fraccalc.operators import marchaud_derivative
from fraccalc.spaces import HolderEstimate, holder_exponent, holder_seminorm
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
    def test_budget_brackets_the_seminorm(self, n, kind):
        g = _data(kind, n)
        for gamma in _GAMMAS:
            ref = _holder_seminorm_rows(g, gamma)
            for budget in (1, 10_000, 100_000):
                est = holder_seminorm(g, gamma, pair_budget=budget)
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


@pytest.mark.parametrize("alpha, sigma", [(0.5, 2.0), (0.3, 3.0)])
@pytest.mark.parametrize("n", [65, 1025])
def test_weierstrass_check_matches_three_samplings(n, alpha, sigma):
    got = check_weierstrass_nonmembership(alpha, sigma, n)
    want = _weierstrass_nonmembership_three_samplings(alpha, sigma, n)
    assert got.max_error == want.max_error
    assert dict(got.details) == dict(want.details)
    assert got == want
