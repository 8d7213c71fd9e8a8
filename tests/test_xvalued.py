"""X-valued grid functions: values of shape (d, n), X = R^d with the sup norm.

Every operator must give each component the bits of the scalar call on that
component, on the direct path (n = 257) and on the FFT path (n = 2049); the
spaces take the sup over components.  The Hölder scan is checked against a
brute-force oracle over all d n (n - 1) / 2 pairs.
"""

import math

import numpy as np
import pytest

import fraccalc as fc
from fraccalc import cli, spaces
from fraccalc.errors import DataError, MembershipError, PreconditionError, TaylorMismatchError

SIZES = (257, 2049)
DIMS = (1, 3)


def _rows(n: int, d: int, start: float = 0.0) -> np.ndarray:
    # Components of different shape and scale.  The middle one starts at ``start``, the others at 0.
    t = np.linspace(0.0, 1.0, n)
    rows = np.array([t**1.3 * np.cos(5.0 * t), t**0.7, -3.0 * np.sin(3.0 * t)])
    rows[1] += start
    return rows[1 - d // 2 : 2 + d // 2]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_per_component(stacked: fc.GridFunction, scalars: list[fc.GridFunction]) -> None:
    assert stacked.values.shape == (len(scalars), scalars[0].n)
    assert stacked.singular_start == any(s.singular_start for s in scalars)
    for row, s in zip(stacked.values, scalars):
        # A marked output stores NaN at index 0 in every component.
        lo = 1 if stacked.singular_start else 0
        assert _same_bits(row[lo:], s.values[lo:])


def _apply(op, data: np.ndarray, *args, singular: bool = False, **kwargs):
    stacked = op(fc.GridFunction(0.0, 1.0, data, singular), *args, **kwargs)
    scalars = [op(fc.GridFunction(0.0, 1.0, row, singular), *args, **kwargs) for row in data]
    return stacked, scalars


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("d", DIMS)
class TestPerComponentBits:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.6])
    def test_frac_integral(self, n, d, alpha):
        _assert_per_component(*_apply(fc.frac_integral, _rows(n, d), alpha))

    def test_frac_integral_of_marked_data(self, n, d):
        # Each component fits its own start decay (t^-0.3, t^-0.6, none).
        t = np.linspace(0.0, 1.0, n)
        t[0] = 1.0
        data = np.array([2.0 * t**-0.3, -(t**-0.6), np.cos(t)])[:d]
        stacked, scalars = _apply(fc.frac_integral, data, 0.5, singular=True)
        assert not stacked.singular_start
        _assert_per_component(stacked, scalars)

    @pytest.mark.parametrize("method", [None, "integral_then_difference"])
    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_rl_derivative(self, n, d, method, start):
        # A start value of 1 in one component makes its probe, and so the output, marked.
        stacked, scalars = _apply(fc.rl_derivative, _rows(n, d, start), 0.4, method)
        assert stacked.singular_start == (start != 0.0)
        _assert_per_component(stacked, scalars)

    def test_rl_derivative_above_order_one(self, n, d):
        _assert_per_component(*_apply(fc.rl_derivative, _rows(n, d), 1.5))

    def test_marchaud_derivative(self, n, d):
        _assert_per_component(*_apply(fc.marchaud_derivative, _rows(n, d, 1.0), 0.6))

    def test_caputo_derivative(self, n, d):
        data = _rows(n, d) + np.array([[1.0], [2.0], [-0.5]])[:d]
        taylor = data[:, 0]
        stacked = fc.caputo_derivative(fc.GridFunction(0.0, 1.0, data), 0.4, (taylor,))
        scalars = [fc.caputo_derivative(fc.GridFunction(0.0, 1.0, r), 0.4, (c,)) for r, c in zip(data, taylor)]
        _assert_per_component(stacked, scalars)
        # A scalar entry is shared by every component.
        _assert_per_component(*_apply(fc.caputo_derivative, data, 1.5, (0.5, -1.0)))

    @pytest.mark.parametrize("caputo", [False, True])
    def test_leibniz(self, n, d, caputo):
        op = fc.leibniz_caputo if caputo else fc.leibniz_rl
        u, v = _rows(n, d, 1.0), 2.0 - _rows(n, d)[::-1]
        stacked = op(fc.GridFunction(0.0, 1.0, u), fc.GridFunction(0.0, 1.0, v), 0.5)
        scalars = [op(fc.GridFunction(0.0, 1.0, a), fc.GridFunction(0.0, 1.0, b), 0.5) for a, b in zip(u, v)]
        _assert_per_component(stacked, scalars)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0])
    def test_holder_seminorm_value(self, n, d, gamma):
        data = _rows(n, d)
        stacked = fc.holder_seminorm(fc.GridFunction(0.0, 1.0, data), gamma)
        scalars = [fc.holder_seminorm(fc.GridFunction(0.0, 1.0, row), gamma) for row in data]
        assert stacked.value == max(s.value for s in scalars)
        assert stacked.exact
        assert stacked.pairs_examined == d * n * (n - 1) // 2
        if d == 1:
            assert stacked == scalars[0]


class TestOverflowRescale:
    @pytest.mark.parametrize("n", SIZES)
    def test_rows_rescale_by_their_own_power_of_two(self, n):
        # The large row overflows the convolution and is rescaled; the tiny
        # row would sink into subnormals under the large row's exponent.
        t = np.linspace(0.0, 1.0, n)
        data = np.array([1e-300 * (1.0 + t), 1.5e308 * np.cos(3.0 * t), 0.5 - t])
        stacked, scalars = _apply(fc.frac_integral, data, 0.5)
        _assert_per_component(stacked, scalars)
        assert np.all(np.isfinite(stacked.values))
        assert np.max(np.abs(stacked.values[0])) < 1e-299


def _oracle(data: np.ndarray, t: np.ndarray, gamma: float) -> tuple[float, tuple[int, int]]:
    # Every pair i < j of every component, with the scan's quotient formula.
    n = t.size
    i, j = np.triu_indices(n, 1)
    quotients = np.abs(data[:, j] - data[:, i]) / (t[j] - t[i]) ** gamma
    best = float(np.max(quotients))
    k = np.flatnonzero((quotients == best).any(axis=0))[0]  # pairs come in (i, j) order
    return best, (int(i[k]), int(j[k]))


def _oracle_cases():
    rng = np.random.default_rng(18)
    for d in DIMS:
        for n in (2, 3, 40, 129, 257):
            t = np.linspace(0.0, 1.0, n)
            yield d, n, "walk", np.cumsum(rng.standard_normal((d, n)), axis=1)
            yield d, n, "noise", rng.standard_normal((d, n))
            # Integer data ties across components and pairs.
            yield d, n, "ties", np.round(rng.uniform(-2.0, 2.0, (d, n)))
            yield d, n, "roots", np.array([t**0.5, 0.5 * t**0.3, 1.0 - t])[:d]


@pytest.mark.parametrize("d, n, kind, data", list(_oracle_cases()), ids=lambda x: x if isinstance(x, str) else None)
@pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
class TestHolderOracle:
    def test_exact_scan(self, d, n, kind, data, gamma):
        t = np.linspace(0.0, 1.0, n)
        est = fc.holder_seminorm(fc.GridFunction(0.0, 1.0, data), gamma)
        value, pair = _oracle(data, t, gamma)
        assert est.value == value
        assert est.argmax_pair == pair
        assert est.exact and est.upper == value
        assert est.pairs_examined == d * n * (n - 1) // 2

    def test_budget_brackets_the_seminorm(self, d, n, kind, data, gamma, monkeypatch):
        # One block pair per chunk, and a budget that stops the scan after the first.
        monkeypatch.setattr(spaces, "_PAIR_BUDGET", 1)
        monkeypatch.setattr(spaces, "_BLOCK_PAIRS", 1024)
        t = np.linspace(0.0, 1.0, n)
        est = fc.holder_seminorm(fc.GridFunction(0.0, 1.0, data), gamma)
        value, _ = _oracle(data, t, gamma)
        assert est.value <= value <= est.upper
        if not est.exact:
            assert est.pairs_examined < 1 + spaces._BLOCK_PAIRS


class TestSupNormRules:
    def test_grid_shapes(self):
        g = fc.GridFunction(0.0, 1.0, np.ones((3, 5)), singular_start=True)
        assert g.n == 5 and g.h == 0.25
        assert np.isnan(g.values[:, 0]).all() and (g.values[:, 1:] == 1.0).all()
        for bad in (np.zeros((0, 5)), np.zeros((3, 1)), np.zeros(()), np.ones((2, 5)) * [[1.0], [math.inf]]):
            with pytest.raises(DataError):
                fc.GridFunction(0.0, 1.0, bad)
        with pytest.raises(DataError):
            g.with_values(np.ones(5))

    def test_holder_exponent_takes_the_largest_modulus(self):
        f = _rows(1025, 1)[0]
        g = fc.GridFunction(0.0, 1.0, f)
        assert fc.holder_exponent(fc.GridFunction(0.0, 1.0, np.array([f]))) == fc.holder_exponent(g)
        assert fc.holder_exponent(fc.GridFunction(0.0, 1.0, np.array([0.5 * f, f, 0.0 * f]))) == fc.holder_exponent(g)

    def test_continuous_at_start_needs_every_component(self):
        t = np.linspace(0.0, 1.0, 1025)
        t[0] = 1.0
        smooth, blowup = np.sin(t), t**-0.4
        assert fc.continuous_at_start(fc.GridFunction(0.0, 1.0, np.array([smooth, 0.0 * t])))
        assert not fc.continuous_at_start(fc.GridFunction(0.0, 1.0, blowup))
        assert not fc.continuous_at_start(fc.GridFunction(0.0, 1.0, np.array([smooth, blowup])))

    def test_norms_take_the_sup_over_components(self):
        f = _rows(2049, 1)[0]
        # Doubling is exact, so the second component's norm is the larger one, to the bit.
        pair = fc.GridFunction(0.0, 1.0, np.array([f, 2.0 * f]))
        assert fc.rl_norm(pair, 0.5) == fc.rl_norm(fc.GridFunction(0.0, 1.0, 2.0 * f), 0.5)
        assert fc.c_norm(pair, 0.5, (0.0,)) == fc.c_norm(fc.GridFunction(0.0, 1.0, 2.0 * f), 0.5, (0.0,))
        with pytest.raises(MembershipError):
            fc.rl_norm(fc.GridFunction(0.0, 1.0, np.array([f, 1.0 + f])), 0.5)


class TestRefusals:
    def test_taylor_entries_match_the_components(self):
        g = fc.GridFunction(0.0, 1.0, _rows(257, 3))
        with pytest.raises(TaylorMismatchError):
            fc.caputo_derivative(g, 0.5, ([0.0, 0.0],))
        with pytest.raises(TaylorMismatchError):
            fc.caputo_derivative(g, 0.5, ([0.0, math.nan, 0.0],))
        with pytest.raises(TaylorMismatchError):
            fc.caputo_derivative(fc.GridFunction(0.0, 1.0, _rows(257, 1)[0]), 0.5, ([0.0],))

    def test_product_factors_need_equal_shapes(self):
        u = fc.GridFunction(0.0, 1.0, _rows(257, 3))
        with pytest.raises(PreconditionError):
            fc.leibniz_rl(u, fc.GridFunction(0.0, 1.0, _rows(257, 1)[0]), 0.5)

    def test_csv_stays_scalar(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(DataError):
            cli.write_grid_csv(str(path), fc.GridFunction(0.0, 1.0, _rows(9, 2)))
        assert not path.exists()

    def test_cli_refuses_x_valued_data(self, tmp_path, monkeypatch, capsys):
        # No CLI input is X-valued today; a sampler that returned such data
        # would end in the data-error exit code, with no file written.
        monkeypatch.setattr(cli.catalog, "sample", lambda entry, t0, t1, n: fc.GridFunction(t0, t1, _rows(n, 2)))
        path = tmp_path / "out.csv"
        argv = ["transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5", "--n", "65", "--output", str(path)]
        assert cli.main(argv) == DataError.exit_code == 3
        assert "scalar" in capsys.readouterr().err
        assert not path.exists()
