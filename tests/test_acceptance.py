"""Acceptance tests: one per shipped guarantee, one pass/fail line each.

Each test prints a single ``A<nn>: PASS/FAIL`` line with the measured
numbers, then asserts.  Tolerances are frozen here and must not be loosened
to make a failing build green.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import fraccalc as fc
from fraccalc.harness import (
    check_embedding_constant,
    check_weierstrass_nonmembership,
)

GAMMA_3_2 = 0.8862269254527580136491  # Gamma(1.5)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_a01_sqrt_derivative_flat_and_fast():
    # D^0.5 of t^0.5 is the constant Gamma(1.5); demand 5e-3 pointwise past
    # the 8-node start window on 2049 nodes, in under a second.
    t = np.linspace(0.0, 1.0, 2049)
    g = fc.GridFunction(0.0, 1.0, np.sqrt(t))
    start = time.perf_counter()
    d = fc.marchaud_derivative(g, 0.5)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(d.values[8:] - GAMMA_3_2)))
    _report(
        "A01",
        err <= 5e-3 and elapsed < 1.0,
        f"max|D^0.5 sqrt(t) - Gamma(1.5)| = {err:.4e} (tol 5e-3), {elapsed * 1e3:.1f} ms",
    )


def test_a02_integral_semigroup():
    # J^0.3 applied to J^0.4 must agree with J^0.7, and both with the closed
    # form of J^0.7 t, to 1e-4 on 2049 nodes.
    n = 2049
    t = np.linspace(0.0, 1.0, n)
    f = fc.GridFunction(0.0, 1.0, t)
    direct = fc.frac_integral(f, 0.7)
    composed = fc.frac_integral(fc.frac_integral(f, 0.4), 0.3)
    closed = fc.rgamma(2.7) * t**1.7  # Gamma(2) = 1
    e_comp = float(np.max(np.abs(composed.values - direct.values)))
    e_dir = float(np.max(np.abs(direct.values - closed)))
    e_comp_closed = float(np.max(np.abs(composed.values - closed)))
    worst = max(e_comp, e_dir, e_comp_closed)
    _report(
        "A02",
        worst <= 1e-4,
        f"composed vs direct {e_comp:.3e}, direct vs closed {e_dir:.3e}, "
        f"composed vs closed {e_comp_closed:.3e} (tol 1e-4)",
    )


def test_a03_inversion_converges():
    # J^0.6[D^0.6 t^1.5] returns t^1.5 within 5e-3 past the start window,
    # and refining 2049 -> 4097 strictly shrinks the error.
    errs = {}
    for n in (2049, 4097):
        t = np.linspace(0.0, 1.0, n)
        f = fc.GridFunction(0.0, 1.0, t**1.5)
        recon = fc.frac_integral(fc.rl_derivative(f, 0.6), 0.6)
        errs[n] = float(np.max(np.abs(recon.values[8:] - f.values[8:])))
    _report(
        "A03",
        errs[2049] <= 5e-3 and errs[4097] <= 5e-3 and errs[4097] < errs[2049],
        f"err(2049) = {errs[2049]:.4e}, err(4097) = {errs[4097]:.4e} "
        "(tol 5e-3, strictly decreasing)",
    )


def test_a04_caputo_kills_constants():
    # cD^0.4 of the constant 7 vanishes identically, to 1e-10 at every node.
    g = fc.GridFunction(0.0, 1.0, np.full(257, 7.0))
    d = fc.caputo_derivative(g, 0.4, (7.0,))
    err = float(np.max(np.abs(d.values)))
    _report("A04", err <= 1e-10, f"max|cD^0.4 7| = {err:.3e} (tol 1e-10)")


def test_a05_caputo_mittag_leffler_eigenfunction():
    # cD^0.7 E_0.7(t^0.7) = E_0.7(t^0.7): relative error at most 1e-2 on
    # t in [0.1, 1] with 4097 nodes.
    entry = fc.builtin("ml_exp", {"alpha": 0.7})
    g = fc.sample(entry, 0.0, 1.0, 4097)
    d = fc.caputo_derivative(g, 0.7, (1.0,))
    t = g.times()
    mask = t >= 0.1
    closed = entry.caputo_derivative(0.7, t)
    rel = float(np.max(np.abs(d.values[mask] - closed[mask]) / np.abs(closed[mask])))
    _report("A05", rel <= 1e-2, f"max rel err on [0.1, 1] = {rel:.4e} (tol 1e-2)")


def test_a06_product_formula_matches_closed_form():
    # The product formula applied to t^0.6 * t^0.8 must reproduce the closed
    # D^0.5 t^1.4 within 1e-2 past the start window.
    n = 2049
    u = fc.sample(fc.builtin("power", {"p": 0.6}), 0.0, 1.0, n)
    v = fc.sample(fc.builtin("power", {"p": 0.8}), 0.0, 1.0, n)
    got = fc.leibniz_rl(u, v, 0.5)
    closed = fc.builtin("power", {"p": 1.4}).rl_derivative(0.5, u.times())
    err = float(np.max(np.abs(got.values[8:] - closed[8:])))
    _report("A06", err <= 1e-2, f"max err vs closed D^0.5 t^1.4 = {err:.4e} (tol 1e-2)")


def test_a07_embedding_constant_bound():
    # 20 seeded piecewise-linear functions: the 0.5-Hölder seminorm of J^0.5 h
    # never exceeds 2 sup|h| / Gamma(1.5) by more than 5 percent.
    rep = check_embedding_constant(7)
    worst = rep.details["worst_ratio"]
    _report(
        "A07",
        rep.passed and worst <= 1.05,
        f"worst seminorm / bound ratio = {worst:.6f} over 20 trials (limit 1.05)",
    )


def test_a08_special_function_cross_checks():
    # E_{1,1} degenerates to exp (absolute error within 1e-10 * e^|z|), and
    # the gamma recurrence Gamma(x+1) = x Gamma(x) holds to 1e-11 relative.
    zs = np.linspace(-5.0, 5.0, 100)
    e_ml = max(
        abs(fc.mittag_leffler(1.0, 1.0, z) - math.exp(z)) / math.exp(abs(z)) for z in zs
    )
    rng = np.random.default_rng(123)
    e_rec = 0.0
    for x in rng.uniform(0.5, 60.0, 1000):
        lhs = fc.gamma(x + 1.0)
        e_rec = max(e_rec, abs(lhs - x * fc.gamma(x)) / abs(lhs))
    _report(
        "A08",
        e_ml <= 1e-10 and e_rec <= 1e-11,
        f"E_1 vs exp {e_ml:.3e} (tol 1e-10), recurrence {e_rec:.3e} (tol 1e-11)",
    )


def test_a09_smoothed_jump_has_half_regularity():
    # J^0.5 of a unit jump: fitted Hölder exponent lands in [0.45, 0.55] and
    # D^0.5 reproduces the jump to 5e-2 away from the start and jump windows.
    n = 2049
    step = fc.sample(fc.builtin("step", {"t_jump": 0.5}), 0.0, 1.0, n)
    g = fc.frac_integral(step, 0.5)
    expo = fc.holder_exponent(g)
    d = fc.rl_derivative(g, 0.5)
    keep = np.ones(n, dtype=bool)
    keep[:8] = False
    j = int(np.searchsorted(step.times(), 0.5))
    keep[j - 8 : j + 9] = False
    recon = float(np.max(np.abs(d.values[keep] - step.values[keep])))
    _report(
        "A09",
        0.45 <= expo <= 0.55 and recon <= 5e-2,
        f"exponent = {expo:.4f} (in [0.45, 0.55]), recon err = {recon:.4e} (tol 5e-2)",
    )


def test_a10_membership_boundary():
    # The constant sits outside the half-order derivative space but inside
    # the Caputo one; t^0.5 is a member; the lacunary cosine sum never
    # converges under refinement (factor-1.5 shrink fails on 1025/2049/4097).
    n = 1025
    t = np.linspace(0.0, 1.0, n)
    const = fc.GridFunction(0.0, 1.0, np.ones(n))
    with pytest.raises(fc.MembershipError):
        fc.rl_norm(const, 0.5)
    caputo_norm = fc.c_norm(const, 0.5, (1.0,))
    sqrt_norm = fc.rl_norm(fc.GridFunction(0.0, 1.0, np.sqrt(t)), 0.5)
    rep = check_weierstrass_nonmembership()
    dev1, dev2 = rep.details["deviation_1"], rep.details["deviation_2"]
    shrink = dev1 / dev2
    ok = (
        caputo_norm == 1.0
        and math.isfinite(sqrt_norm)
        and rep.passed
        and shrink < 1.5
    )
    _report(
        "A10",
        ok,
        f"constant: rejected/accepted, |t^0.5| = {sqrt_norm:.4f}, "
        f"refinement shrink = {shrink:.6f} (< 1.5 means no convergence)",
    )


def test_a11_verification_runs_are_byte_identical(tmp_path):
    # Two full suite runs with the same seed must produce byte-identical
    # JSON reports and a passing aggregate.
    outs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fraccalc", "verify", "--suite", "all",
             "--seed", "7", "--json", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(path.read_bytes())
    doc = json.loads(outs[0])
    ok = outs[0] == outs[1] and doc["aggregate_pass"] is True and doc["schema"] == 2
    _report(
        "A11",
        ok,
        f"{len(outs[0])} bytes, identical = {outs[0] == outs[1]}, "
        f"aggregate_pass = {doc['aggregate_pass']}",
    )
