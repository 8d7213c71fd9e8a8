"""End-to-end CLI tests: argument handling, CSV round-trips, exit codes,
and the verification subcommand's JSON document."""

import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fraccalc as fc
from fraccalc import catalog, cli
from fraccalc.cli import build_parser, main, read_grid_csv, write_grid_csv

GAMMA_3_2 = 0.8862269254527580136


def run_cli(*args):
    """Invoke the CLI in-process; argparse rejections surface as SystemExit."""
    try:
        return main(list(args))
    except SystemExit as exc:
        return int(exc.code or 0)


class TestCatalogCommand:
    def test_list(self, capsys):
        assert run_cli("catalog", "list") == 0
        out = capsys.readouterr().out.split()
        assert out == ["constant", "ml_exp", "power", "step", "weierstrass_shifted"]

    def test_describe(self, capsys):
        assert run_cli("catalog", "describe", "power") == 0
        text = capsys.readouterr().out
        assert "p (required)" in text

    def test_describe_unknown(self, capsys):
        assert run_cli("catalog", "describe", "spline") == 2
        assert "unknown catalog entry" in capsys.readouterr().err


class TestCsvFormat:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(21)
        g = fc.GridFunction(0.0, 1.0, rng.standard_normal(65))
        p = tmp_path / "g.csv"
        write_grid_csv(str(p), g)
        back = read_grid_csv(str(p))
        assert np.array_equal(back.values, g.values)
        write_grid_csv(str(tmp_path / "g2.csv"), back)
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()

    def test_singular_marker_round_trip(self, tmp_path):
        g = fc.GridFunction(0.0, 1.0, np.r_[np.nan, np.ones(64)], singular_start=True)
        p = tmp_path / "s.csv"
        write_grid_csv(str(p), g)
        assert p.read_text().splitlines()[1] == "0,sing"
        back = read_grid_csv(str(p))
        assert back.singular_start
        assert np.array_equal(back.values[1:], g.values[1:])

    @pytest.mark.parametrize(
        "content",
        [
            "time,value\n0,1\n1,2\n",          # wrong header
            "t,value\n0,1\n0.5,2\n0.7,3\n",     # non-uniform spacing
            "t,value\n0,1\n0.5,sing\n1,2\n",    # marker not on the first row
            "t,value\n0,1\n0.5,inf\n1,2\n",     # non-finite value
            "t,value\n0,1\n",                    # too short
            "t,value\n1,1\n0,2\n",               # decreasing t
            "t,value\n0,1,9\n1,2\n",             # too many columns
        ],
    )
    def test_malformed_files_exit_3(self, tmp_path, content, capsys):
        p = tmp_path / "bad.csv"
        p.write_text(content)
        code = run_cli("transform", "--input", str(p), "--op", "J",
                       "--alpha", "0.5", "--output", str(tmp_path / "o.csv"))
        assert code == 3
        assert capsys.readouterr().err.startswith("fraccalc: error:")


    @pytest.mark.parametrize(
        "content, where",
        [
            ("t,value\n0,1\n\n0.5,2\nx,3\n", ":5: bad t value 'x'"),
            ("\nt,value\n0,1\n0.5,sing\n1,2\n", ":4: 'sing' is only allowed"),
            ("t,value\n\n\n0,1,9\n1,2\n", ":4: expected 't,value'"),
        ],
    )
    def test_errors_name_the_physical_line(self, tmp_path, content, where):
        # Blank lines are skipped as data but still count as lines.
        p = tmp_path / "bad.csv"
        p.write_text(content)
        with pytest.raises(fc.DataError) as info:
            read_grid_csv(str(p))
        assert str(info.value).startswith(str(p) + where)


class TestTransformCommand:
    def test_derivative_of_sqrt(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "D",
                       "--alpha", "0.5", "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        assert g.n == 1025  # default sampling
        assert abs(g.values[-1] - GAMMA_3_2) <= 1e-3

    def test_caputo_of_constant_is_zero(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("transform", "--fn", "constant:c=7", "--op", "cD",
                       "--alpha", "0.4", "--n", "257", "--output", str(out)) == 0
        assert np.all(read_grid_csv(str(out)).values == 0.0)

    def test_caputo_of_ml_exp_above_order_one(self, tmp_path):
        # e^t has Taylor data (1, 1) at 0, and cD^1.5 e^t = e^t erf(sqrt(t)).
        out = tmp_path / "c.csv"
        assert run_cli("transform", "--fn", "ml_exp:alpha=1", "--op", "cD",
                       "--alpha", "1.5", "--n", "4097", "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        want = np.exp(g.times()) * np.array([math.erf(math.sqrt(x)) for x in g.times()])
        assert np.max(np.abs(g.values[8:-2] - want[8:-2])) <= 2e-4  # 8.2e-5 measured
        # With alpha = 0.7 the first derivative does not exist at 0.
        assert run_cli("transform", "--fn", "ml_exp:alpha=0.7", "--op", "cD",
                       "--alpha", "1.5", "--output", str(out)) == 2

    def test_caputo_of_ml_exp_above_order_two(self, tmp_path):
        # 1.2e-6 measured; three composed difference passes left 0.53 on the last nodes.
        out = tmp_path / "c.csv"
        assert run_cli("transform", "--fn", "ml_exp:alpha=2", "--op", "cD", "--alpha", "2.5",
                       "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        want = catalog.builtin("ml_exp", {"alpha": 2.0}).caputo_derivative(2.5, g.times())
        assert np.max(np.abs(g.values[8:] - want[8:])) <= 1e-4

    def test_order_zero_identity_bytes(self, tmp_path):
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "D",
                       "--alpha", "0.5", "--n", "257", "--output", str(src)) == 0
        assert run_cli("transform", "--input", str(src), "--op", "J",
                       "--alpha", "0", "--output", str(dst)) == 0
        assert src.read_bytes() == dst.read_bytes()

    def test_singular_output_then_reintegration(self, tmp_path):
        marked = tmp_path / "m.csv"
        assert run_cli("transform", "--fn", "constant", "--op", "D",
                       "--alpha", "0.5", "--n", "257", "--output", str(marked)) == 0
        assert marked.read_text().splitlines()[1] == "0,sing"
        # J^0.5 of the marked data exists (integrable singularity) and should
        # land back near the constant 1.
        out = tmp_path / "r.csv"
        assert run_cli("transform", "--input", str(marked), "--op", "J",
                       "--alpha", "0.5", "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        assert not g.singular_start
        # Frozen profile: 5.1e-3 at node 8 decaying to 1.6e-3 by node 64.
        assert np.max(np.abs(g.values[8:] - 1.0)) <= 6e-3
        assert np.max(np.abs(g.values[64:] - 1.0)) <= 2e-3

    def test_caputo_from_csv_uses_first_row(self, tmp_path):
        src = tmp_path / "f.csv"
        t = np.linspace(0.0, 1.0, 257)
        write_grid_csv(str(src), fc.GridFunction(0.0, 1.0, np.sqrt(t) + 3.0))
        out = tmp_path / "o.csv"
        assert run_cli("transform", "--input", str(src), "--op", "cD",
                       "--alpha", "0.5", "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        assert np.max(np.abs(g.values[8:] - GAMMA_3_2)) <= 2e-3

    def test_custom_interval(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run_cli("transform", "--fn", "power:p=1,t0=1", "--op", "J",
                       "--alpha", "1", "--t1", "2",
                       "--n", "129", "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        assert g.t0 == 1.0 and g.t1 == 2.0
        assert g.values[-1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("op", ["J", "D", "cD", "leibniz"])
    @pytest.mark.parametrize("flag, value", [("fn2", "power:p=0.8"), ("method", "integral_then_difference"),
                                             ("taylor", "0")])
    def test_op_admits_only_the_flags_it_reads(self, tmp_path, capsys, op, flag, value):
        reads = {"J": (), "D": (), "cD": ("taylor",), "leibniz": ("fn2",)}[op]
        given = ["--fn2", "power:p=0.8"] if op == "leibniz" else []
        if flag != "fn2" or op != "leibniz":
            given += [f"--{flag}", value]
        out = tmp_path / "o.csv"
        code = run_cli("transform", "--fn", "power:p=0.6", "--op", op, "--alpha", "0.5", "--n", "129",
                       *given, "--output", str(out))
        if flag in reads:
            assert code == 0
        else:
            assert code == 2
            refusal = "unrecognized arguments: --method" if flag == "method" else f"--{flag} does not apply to --op {op}"
            assert refusal in capsys.readouterr().err
            assert not out.exists()

    def test_grid_start_comes_from_the_spec(self, tmp_path, capsys):
        assert run_cli("transform", "--fn", "power:p=1,t0=1", "--op", "J", "--alpha", "1",
                       "--t0", "1", "--output", str(tmp_path / "o.csv")) == 2
        assert "unrecognized arguments: --t0" in capsys.readouterr().err

    def test_leibniz(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run_cli("transform", "--fn", "power:p=0.6", "--fn2", "power:p=0.8",
                       "--op", "leibniz", "--alpha", "0.5", "--n", "257",
                       "--output", str(out)) == 0
        g = read_grid_csv(str(out))
        closed = fc.builtin("power", {"p": 1.4}).rl_derivative(0.5, g.times())
        assert np.max(np.abs(g.values[8:] - closed[8:])) <= 1.2e-4

    @pytest.mark.parametrize(
        "args",
        [
            # usage errors, exit 2
            ("transform", "--fn", "nosuch", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "power:p", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "power:p=abc", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5",
             "--fn2", "power:p=1"),
            ("transform", "--fn", "power:p=0.5", "--op", "leibniz", "--alpha", "0.5"),
            ("transform", "--fn", "power:p=0.5", "--op", "cD", "--alpha", "0.5",
             "--taylor", "a,b"),
            ("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5",
             "--method", "marchaud"),
            # non-finite catalog parameters and sampling intervals
            ("transform", "--fn", "power:p=nan", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "power:p=inf", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "step:t_jump=nan", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "constant:t0=nan", "--op", "J", "--alpha", "0.5"),
            ("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5", "--t1", "inf"),
        ],
    )
    def test_usage_errors(self, tmp_path, capsys, args):
        assert run_cli(*args, "--output", str(tmp_path / "o.csv")) == 2
        assert "Warning" not in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_caputo_of_integer_power_past_its_degree(self, tmp_path):
        # t has Taylor data (0, 1, 0, 0) at 0, so order 2.5 runs, and cD^2.5 t = 0.
        out = tmp_path / "c.csv"
        assert run_cli("transform", "--fn", "power:p=1", "--op", "cD", "--alpha", "2.5",
                       "--n", "257", "--output", str(out)) == 0
        assert np.max(np.abs(read_grid_csv(str(out)).values[8:])) <= 1e-9

    @pytest.mark.parametrize("method", ["marchaud", "integral_then_difference"])
    def test_no_derivative_method_flag(self, tmp_path, capsys, method):
        # The route is the one the order picks.
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "D", "--alpha", "0.5",
                       "--method", method, "--output", str(tmp_path / "o.csv")) == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("target", ["missing/o.csv", "taken"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, target):
        # A missing directory fails the temp file; a directory at the path fails the rename.
        (tmp_path / "taken").mkdir()
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5", "--n", "65",
                       "--output", str(tmp_path / target)) == 3
        assert f"cannot write {tmp_path / target}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_successful_write_looks_for_no_temp_file(self, tmp_path, monkeypatch):
        # Once the temp file is renamed onto the target, its name is gone: no stat of it is needed.
        calls = []
        exists = os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda p: calls.append(p) or exists(p))
        write_grid_csv(str(tmp_path / "o.csv"), fc.GridFunction(0.0, 1.0, np.ones(65)))
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv"]

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        assert run_cli("transform", "--input", str(tmp_path / "missing.csv"), "--op", "J",
                       "--alpha", "0.5", "--output", str(tmp_path / "o.csv")) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_sampling_flags_refused_for_csv_input(self, tmp_path):
        src = tmp_path / "in.csv"
        write_grid_csv(str(src), fc.GridFunction(0.0, 1.0, np.ones(65)))
        assert run_cli("transform", "--input", str(src), "--op", "J", "--alpha", "0.5",
                       "--n", "129", "--output", str(tmp_path / "o.csv")) == 2

    def test_csv_caputo_above_order_one_needs_taylor(self, tmp_path):
        src = tmp_path / "in.csv"
        write_grid_csv(str(src), fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 65) ** 2))
        assert run_cli("transform", "--input", str(src), "--op", "cD", "--alpha", "1.3",
                       "--output", str(tmp_path / "o.csv")) == 2
        assert run_cli("transform", "--input", str(src), "--op", "cD", "--alpha", "1.3",
                       "--taylor", "0,0", "--output", str(tmp_path / "o.csv")) == 0

    def test_precondition_errors_exit_4(self, tmp_path, capsys):
        # No route flag: Marchaud outside (0, 1) cannot be asked for
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "D", "--alpha", "1.5",
                       "--method", "marchaud", "--output", str(tmp_path / "o.csv")) == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()
        # Taylor data of the wrong length for the requested order
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "cD", "--alpha", "0.5",
                       "--taylor", "0,1", "--output", str(tmp_path / "o.csv")) == 4
        # Caputo of singular-start CSV data cannot infer its Taylor value
        marked = tmp_path / "m.csv"
        assert run_cli("transform", "--fn", "constant", "--op", "D", "--alpha", "0.5",
                       "--n", "257", "--output", str(marked)) == 0
        assert run_cli("transform", "--input", str(marked), "--op", "cD", "--alpha", "0.5",
                       "--output", str(tmp_path / "o.csv")) == 4
        # More difference passes than the grid has nodes for, refused before the first
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "D", "--alpha", "1e308",
                       "--output", str(tmp_path / "o.csv")) == 4
        # An order past the range of math.lgamma: a precondition error, not a traceback
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "1e306",
                       "--output", str(tmp_path / "o.csv")) == 4

    @pytest.mark.parametrize("alpha", ["0.05", "1e-17"])
    def test_weierstrass_without_tail_bound_exits_4(self, tmp_path, capsys, alpha):
        # alpha = 0.05 has a term count of 1029, so sigma**j * t overflows on [0, 1];
        # at 1e-17 sigma**-alpha rounds to 1.  No value is written.
        assert run_cli("transform", "--fn", f"weierstrass_shifted:alpha={alpha}", "--op", "D",
                       "--alpha", "0.5", "--output", str(tmp_path / "o.csv")) == 4
        assert f"(alpha={alpha}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_overflowing_result_exits_4(self, tmp_path, capsys):
        # Data inside the float range whose derivative is not: a precondition
        # error, not malformed input (exit 3), and no numpy warning first.
        src = tmp_path / "big.csv"
        write_grid_csv(str(src), fc.GridFunction(0.0, 1.0, np.where(np.arange(65) % 2, 1e308, -1e308)))
        assert run_cli("transform", "--input", str(src), "--op", "D", "--alpha", "0.5",
                       "--output", str(tmp_path / "o.csv")) == 4
        assert "overflows the float range" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_large_integer_power(self, tmp_path, capsys):
        # p = 200: J and D run; a Caputo order above p needs 200!, which is not a float.
        for op, alpha in (("J", "0.5"), ("D", "0.5"), ("cD", "0.5"), ("cD", "2.5")):
            assert run_cli("transform", "--fn", "power:p=200", "--op", op, "--alpha", alpha,
                           "--output", str(tmp_path / "o.csv")) == 0, (op, alpha)
        assert run_cli("transform", "--fn", "power:p=200", "--op", "cD", "--alpha", "200.5",
                       "--output", str(tmp_path / "o.csv")) == 4
        assert "must be finite" in capsys.readouterr().err

    def test_caputo_with_200_taylor_entries(self, tmp_path):
        # The difference passes of e^t overflow (4); the residual of the constant vanishes (0).
        zeros = ",".join(["0"] * 199)
        assert run_cli("transform", "--fn", "ml_exp:alpha=1", "--op", "cD", "--alpha", "199.5", "--n", "257",
                       "--taylor", "1," + zeros, "--output", str(tmp_path / "o.csv")) == 4
        assert run_cli("transform", "--fn", "constant", "--op", "cD", "--alpha", "199.5", "--n", "257",
                       "--taylor", "1," + zeros, "--output", str(tmp_path / "o.csv")) == 0
        assert np.all(read_grid_csv(str(tmp_path / "o.csv")).values == 0.0)

    def test_caputo_builds_the_catalog_entry_once(self, tmp_path, monkeypatch):
        # The Taylor data come from the entry the grid was sampled from.
        calls = []
        builtin = catalog.builtin
        monkeypatch.setattr(catalog, "builtin", lambda *args: calls.append(args) or builtin(*args))
        assert run_cli("transform", "--fn", "power:p=2", "--op", "cD", "--alpha", "1.5",
                       "--output", str(tmp_path / "o.csv")) == 0
        assert len(calls) == 1

    def test_huge_caputo_order_refused_before_any_taylor_entry(self, tmp_path, capsys):
        # Order 999999.5 on 1025 nodes fails the node count before any of the 10**6 Taylor
        # entries of p = 2e6 is made.
        tracemalloc.start()
        try:
            code = run_cli("transform", "--fn", "power:p=2e6", "--op", "cD", "--alpha", "999999.5",
                           "--output", str(tmp_path / "o.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "order 999999.5 needs ceil(order) + 2 nodes to difference, got 1025" in capsys.readouterr().err
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_caputo_order_refused_before_taylor_inference(self, tmp_path, capsys, alpha):
        # Catalog and CSV input alike: a usage error (2), not a traceback from ceil(order).
        src = tmp_path / "f.csv"
        write_grid_csv(str(src), fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 65)))
        for given in (["--fn", "power:p=2"], ["--input", str(src)]):
            assert run_cli("transform", *given, "--op", "cD", "--alpha", alpha,
                           "--output", str(tmp_path / "o.csv")) == 2
            assert f"order must be finite and >= 0, got {alpha}" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_check_with_prefix(self, capsys):
        assert run_cli("verify", "--suite", "check_semigroup", "--n", "257") == 0
        out = capsys.readouterr().out
        assert "[PASS] semigroup" in out
        assert "1/1 checks passed" in out

    def test_unknown_check_exits_2(self):
        assert run_cli("verify", "--suite", "nope") == 2

    def test_negative_seed_exits_2_before_any_check(self, tmp_path, capsys):
        assert run_cli("verify", "--seed", "-1", "--json", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed >= 0" in captured.err
        assert not (tmp_path / "r.json").exists()

    def test_unwritable_json_exits_3(self, tmp_path, capsys):
        # Exit 1 would say a check failed.
        assert run_cli("verify", "--suite", "semigroup", "--n", "129",
                       "--json", str(tmp_path / "missing" / "r.json")) == 3
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_json_exits_3_before_any_check(self, tmp_path, capsys, monkeypatch):
        def no_suite(config):
            raise AssertionError("run_suite called for an unwritable --json path")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        assert run_cli("verify", "--json", str(tmp_path / "missing" / "r.json")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {tmp_path / 'missing' / 'r.json'}" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_defaults_come_from_the_suite_config(self):
        args = build_parser().parse_args(["verify"])
        assert (args.n, args.seed) == (fc.SuiteConfig.n, fc.SuiteConfig.seed)

    def test_json_document(self, tmp_path, capsys):
        p = tmp_path / "rep.json"
        assert run_cli("verify", "--suite", "semigroup", "inversion",
                       "--n", "257", "--json", str(p)) == 0
        doc = json.loads(p.read_text())
        assert doc["schema"] == 2
        assert doc["tool_version"] == fc.__version__
        assert doc["aggregate_pass"] is True
        assert doc["config_echo"]["suite"] == ["semigroup", "inversion"]
        assert doc["config_echo"]["n"] == 257
        assert doc["config_echo"]["seed"] == 7
        assert set(doc["config_echo"]) == {"suite", "n", "seed"}
        assert [r["check_id"] for r in doc["reports"]] == ["semigroup", "inversion"]
        for r in doc["reports"]:
            assert r["passed"] is True

    def test_closed_stdout_keeps_the_verdict(self, monkeypatch):
        # The reader has gone before the first line: the exit code is still the failed check's 1.
        failed = fc.CheckReport("semigroup", "", 65, 2.0, 1.0, False, {})
        monkeypatch.setattr(cli, "run_suite", lambda config: [failed])
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed:
            monkeypatch.setattr(sys, "stdout", closed)
            assert run_cli("verify", "--suite", "semigroup") == 1

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert run_cli("verify", "--suite", "semigroup", "leibniz_rl",
                           "--n", "257", "--json", str(p)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_import_loads_no_package_metadata():
    # __version__ is a literal, so importing the package reads no
    # distribution metadata; importlib.metadata alone costs tens of ms.
    src = str(Path(fc.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
        "before = set(sys.modules); import fraccalc; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('importlib.metadata')))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_closed_stdout_ends_the_output():
    # As `fraccalc catalog describe constant | head -c 10`: the reader closes the pipe before
    # the text is written, and the command exits 0 without a traceback.
    src = str(Path(fc.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "fraccalc", "catalog", "describe", "constant"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_the_mode_of_a_plain_open(tmp_path, umask, mode):
    # 0o666 less the umask, as a plain open gives.
    old = os.umask(umask)
    try:
        assert run_cli("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5", "--n", "65",
                       "--output", str(tmp_path / "o.csv")) == 0
        assert run_cli("verify", "--suite", "semigroup", "--n", "129", "--json", str(tmp_path / "r.json")) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("o.csv", "r.json")] == [mode, mode]


def test_writes_leave_the_umask_alone(tmp_path, monkeypatch):
    # Setting the process-wide umask, even to read it, would race with files other threads create.
    def refuse(mask):
        raise AssertionError("umask set")

    monkeypatch.setattr(os, "umask", refuse)
    assert run_cli("transform", "--fn", "power:p=0.5", "--op", "J", "--alpha", "0.5", "--n", "65",
                   "--output", str(tmp_path / "o.csv")) == 0
    assert run_cli("verify", "--suite", "semigroup", "--n", "129", "--json", str(tmp_path / "r.json")) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "r.json"]
