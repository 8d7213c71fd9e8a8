"""Numerical fractional calculus on uniform grids.

The package provides Riemann-Liouville integrals, two fractional-derivative
discretizations, Caputo derivatives, product (Leibniz) formulas, Hölder-type
diagnostics for fractional regularity classes, and a verification suite that
checks the implemented operators against their known identities.  Grid
functions take scalar values, or values in X = R^d with the sup norm.  Each
module is imported on the first use of one of its names.
"""

import importlib

__version__ = "0.1.0"  # pyproject.toml reads the package version from here

# Each module with the public names it defines; a new public name is one more word here.
_NAMES = {
    "catalog": "AnalyticFunction builtin builtin_names sample",
    "errors": "ConstantInputError DataError FracCalcError InvalidParameterError MembershipError NonConvergenceError"
    " PoleError PreconditionError TaylorMismatchError UnintegrableSingularityError UnknownNameError UsageError",
    "grid": "GridFunction",
    "harness": "CheckReport SuiteConfig check_ids run_suite",
    "operators": "caputo_derivative frac_integral leibniz_caputo leibniz_rl marchaud_derivative rl_derivative",
    "spaces": "HolderEstimate c_norm continuous_at_start holder_exponent holder_seminorm rl_norm",
    "special": "gamma mittag_leffler rgamma weierstrass",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    # Imports the module of a public name, or a module itself, on first use and binds it here.
    module = _MODULE_OF.get(name, name if name in _NAMES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_NAMES})
