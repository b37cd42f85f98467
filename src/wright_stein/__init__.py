"""Stein characterization of the M-Wright distribution M_{1/3}.

Special functions (Airy, Scorer, Mittag-Leffler, Wright M), the explicit
Stein-equation solvers built on Airy Green's functions, and a sample-based
Stein-discrepancy goodness-of-fit engine, with a CLI front door.
"""

from .errors import (
    AiryOverflowError,
    DomainError,
    NonFiniteError,
    RangeError,
    SolverAccuracyError,
    ToleranceNotMetError,
    WrightSteinError,
)
from .numerics import (
    IntegralResult,
    gamma_fn,
    integrate,
)
from .specfun import (
    AiryValues,
    airy,
    airy_many,
    mittag_leffler,
    scorer_gi,
    scorer_gi_norms,
    scorer_gi_prime,
    wright_m_series,
)
from .mwright import (
    SampleSet,
    WrightParameter,
    cdf,
    density,
    density_prime_at_zero,
    density_sym,
    laplace_check,
    moment,
    sample,
)
from .stein import (
    BoundReport,
    SteinSolution,
    TestFunction,
    check_domain,
    default_grid,
    expectation_mwright,
    general_particular_solution,
    solve_stein,
    solve_stein_sym,
    stein_apply,
    stein_apply_sym,
    verify_bounds,
)
from .gof import (
    DiscrepancyReport,
    default_test_functions,
    discrepancy,
    discrepancy_sym,
)

__version__ = "0.1.0"

__all__ = [
    "AiryOverflowError",
    "AiryValues",
    "BoundReport",
    "DiscrepancyReport",
    "DomainError",
    "IntegralResult",
    "NonFiniteError",
    "RangeError",
    "SampleSet",
    "SolverAccuracyError",
    "SteinSolution",
    "TestFunction",
    "ToleranceNotMetError",
    "WrightParameter",
    "WrightSteinError",
    "airy",
    "airy_many",
    "cdf",
    "check_domain",
    "default_grid",
    "default_test_functions",
    "density",
    "density_prime_at_zero",
    "density_sym",
    "discrepancy",
    "discrepancy_sym",
    "expectation_mwright",
    "gamma_fn",
    "general_particular_solution",
    "integrate",
    "laplace_check",
    "mittag_leffler",
    "moment",
    "sample",
    "scorer_gi",
    "scorer_gi_norms",
    "scorer_gi_prime",
    "solve_stein",
    "solve_stein_sym",
    "stein_apply",
    "stein_apply_sym",
    "verify_bounds",
    "wright_m_series",
]
