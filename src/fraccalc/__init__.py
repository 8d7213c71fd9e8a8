"""Numerical fractional calculus on uniform grids.

The package provides Riemann-Liouville integrals, two fractional-derivative
discretizations, Caputo derivatives, product (Leibniz) formulas, Hölder-type
diagnostics for fractional regularity classes, and a verification suite that
checks the implemented operators against their known identities.  Grid
functions take scalar values, or values in X = R^d with the sup norm.
"""

__version__ = "0.1.0"  # pyproject.toml reads the package version from here

from .catalog import AnalyticFunction, builtin, builtin_names, sample
from .errors import (
    ConstantInputError,
    DataError,
    FracCalcError,
    InvalidParameterError,
    MembershipError,
    NonConvergenceError,
    PoleError,
    PreconditionError,
    TaylorMismatchError,
    UnintegrableSingularityError,
    UnknownNameError,
    UsageError,
)
from .grid import GridFunction
from .harness import CheckReport, SuiteConfig, check_ids, run_suite
from .operators import (
    caputo_derivative,
    frac_integral,
    leibniz_caputo,
    leibniz_rl,
    marchaud_derivative,
    rl_derivative,
)
from .spaces import (
    HolderEstimate,
    c_norm,
    continuous_at_start,
    holder_exponent,
    holder_seminorm,
    rl_norm,
)
from .special import gamma, mittag_leffler, rgamma, weierstrass

__all__ = [
    "AnalyticFunction",
    "CheckReport",
    "ConstantInputError",
    "DataError",
    "FracCalcError",
    "GridFunction",
    "HolderEstimate",
    "InvalidParameterError",
    "MembershipError",
    "NonConvergenceError",
    "PoleError",
    "PreconditionError",
    "SuiteConfig",
    "TaylorMismatchError",
    "UnintegrableSingularityError",
    "UnknownNameError",
    "UsageError",
    "builtin",
    "builtin_names",
    "c_norm",
    "caputo_derivative",
    "check_ids",
    "continuous_at_start",
    "frac_integral",
    "gamma",
    "holder_exponent",
    "holder_seminorm",
    "leibniz_caputo",
    "leibniz_rl",
    "marchaud_derivative",
    "mittag_leffler",
    "rgamma",
    "rl_derivative",
    "rl_norm",
    "run_suite",
    "sample",
    "weierstrass",
    "__version__",
]
