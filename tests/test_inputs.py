"""Every public entry point admits a caller's number by one rule (README, "Inputs").

``CASES`` pairs each number a public callable takes with one hostile argument at
a time: text, bytes, None, a complex number, a ragged list and a list of text,
plus nan and inf wherever the contract says finite.  Each call must raise the
``FracCalcError`` subclass whose exit code README gives: 2 for parameters and
counts, 3 for grid data, 4 for Taylor entries.  The table is plain data so that
other scripts can replay it against another version of the package.
"""

import math
import warnings

import numpy as np
import pytest

import fraccalc as fc
from fraccalc import harness

HOSTILE = {"text": "1.5", "bytes": b"1.5", "None": None, "complex": 2j, "ragged": [[1.0], [1.0, 2.0]],
           "text-list": ["1.5"]}
NON_FINITE = {"nan": math.nan, "inf": math.inf}


def _grid() -> fc.GridFunction:
    return fc.GridFunction(0.0, 1.0, np.linspace(0.0, 1.0, 65) ** 2)


# (name, call taking the argument, exit code of its refusal, whether the contract says finite)
_CALLS = [
    ("builtin-p", lambda x: fc.builtin("power", {"p": x}), 2, True),
    ("builtin-t0", lambda x: fc.builtin("constant", {"t0": x}), 2, True),
    ("sample-t0", lambda x: fc.sample(fc.builtin("constant"), x, 1.0, 9), 2, True),
    ("sample-t1", lambda x: fc.sample(fc.builtin("constant"), 0.0, x, 9), 2, True),
    ("sample-n", lambda x: fc.sample(fc.builtin("constant"), 0.0, 1.0, x), 2, True),
    ("GridFunction-t0", lambda x: fc.GridFunction(x, 2.0, [0.0, 1.0]), 3, True),
    ("GridFunction-t1", lambda x: fc.GridFunction(0.0, x, [0.0, 1.0]), 3, True),
    ("GridFunction-values", lambda x: fc.GridFunction(0.0, 1.0, x), 3, True),
    ("frac_integral-order", lambda x: fc.frac_integral(_grid(), x), 2, True),
    ("rl_derivative-order", lambda x: fc.rl_derivative(_grid(), x), 2, True),
    ("marchaud_derivative-order", lambda x: fc.marchaud_derivative(_grid(), x), 2, True),
    ("caputo_derivative-order", lambda x: fc.caputo_derivative(_grid(), x, (0.0,)), 2, True),
    ("caputo_derivative-taylor", lambda x: fc.caputo_derivative(_grid(), 0.5, (x,)), 4, True),
    ("leibniz_rl-order", lambda x: fc.leibniz_rl(_grid(), _grid(), x), 2, True),
    ("leibniz_caputo-order", lambda x: fc.leibniz_caputo(_grid(), _grid(), x), 2, True),
    ("rl_norm-order", lambda x: fc.rl_norm(_grid(), x), 2, True),
    ("c_norm-order", lambda x: fc.c_norm(_grid(), x, (0.0,)), 2, True),
    ("c_norm-taylor", lambda x: fc.c_norm(_grid(), 0.5, (x,)), 4, True),
    ("caputo_derivative-taylor-sequence", lambda x: fc.caputo_derivative(_grid(), 0.5, x), 4, True),
    ("c_norm-taylor-sequence", lambda x: fc.c_norm(_grid(), 0.5, x), 4, True),
    ("holder_seminorm-gamma", lambda x: fc.holder_seminorm(_grid(), x), 2, True),
    ("gamma-x", fc.gamma, 2, False),  # nan and infinities are documented results
    ("rgamma-x", fc.rgamma, 2, False),
    ("mittag_leffler-alpha", lambda x: fc.mittag_leffler(x, 1.0, 0.1), 2, True),
    ("mittag_leffler-beta", lambda x: fc.mittag_leffler(0.5, x, 0.1), 2, True),
    ("mittag_leffler-z", lambda x: fc.mittag_leffler(0.5, 1.0, x), 2, True),
    ("weierstrass-alpha", lambda x: fc.weierstrass(x, 2.0, 0.1), 2, True),
    ("weierstrass-sigma", lambda x: fc.weierstrass(0.5, x, 0.1), 2, True),
    ("weierstrass-t", lambda x: fc.weierstrass(0.5, 2.0, x), 2, True),
    ("SuiteConfig-n", lambda x: fc.SuiteConfig(n=x), 2, True),
    ("SuiteConfig-seed", lambda x: fc.SuiteConfig(seed=x), 2, True),
    ("run_suite-config", fc.run_suite, 2, True),
    ("check_embedding_constant-seed", harness.check_embedding_constant, 2, True),
    ("check_leibniz-n", lambda x: harness.check_leibniz(x, caputo=False), 2, True),
] + [
    (f"{name}-n", getattr(harness, name), 2, True)
    for name in ("check_semigroup", "check_integral_shift", "check_derivative_commute", "check_inversion",
                 "check_hardy_littlewood", "check_banach_algebra", "check_counterexample_step")
]

# Hostile arguments beyond HOSTILE for one position: a one-byte text is no list of one entry.
_EXTRA = {
    "caputo_derivative-taylor-sequence": {"one-byte": b"\x00"},
    "c_norm-taylor-sequence": {"one-byte": b"\x00"},
    "run_suite-config": {"int": 5, "ndarray": np.zeros(3)},
}

# (id, call, argument, exit code), one row per call and hostile argument; None is run_suite's default config.
CASES = [
    (f"{name}-{arg_id}", call, arg, code)
    for name, call, code, finite in _CALLS
    for arg_id, arg in {**HOSTILE, **(NON_FINITE if finite else {}), **_EXTRA.get(name, {})}.items()
    if (name, arg_id) != ("run_suite-config", "None")
]


@pytest.mark.parametrize("call, arg, code", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_hostile_argument_is_refused(call, arg, code):
    # A FracCalcError with README's exit code: no value, no bare TypeError, no parsed text, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fc.FracCalcError) as info:
            call(arg)
    assert info.value.exit_code == code
