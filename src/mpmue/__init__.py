"""Mixed Poisson processes driven by a max-of-uniform-and-exponential mixing law.

The mixing variable is the larger of a uniform draw on (0, a) and an
exponential draw with rate lambda.  This package provides that distribution
(:class:`MaxUExp`), the inter-arrival and n-th arrival laws of the mixed
Poisson process it drives (:class:`ExpMaxUExp`, :class:`ErlangMaxUExp`), the
counting process itself with deterministic operational time
(:class:`MixedPoissonMaxUExp`), moment and least-squares estimators, and a
self-verification harness with a machine-readable discrepancy ledger.
"""

from .distribution import MaxUExp
from .errors import (
    BracketError,
    DegenerateSampleError,
    DivergenceError,
    DomainError,
    InsufficientDataError,
    NumericError,
    RangeError,
)
from .estimation import (
    FitReport,
    MaxUExpEstimator,
    empirical_moments,
    exceedance_confidence,
    fit_auto,
    histogram_init,
    lsq_fit,
    lsq_objective,
    mom_curve,
    mom_curve_extrema,
    ratio_stat,
    solve_mom,
)
from .process import (
    MixedPoissonMaxUExp,
    PathBatch,
    PowerTransform,
    ProcessPath,
    TableTransform,
    conditional_binomial_pmf,
    to_cumulative,
    to_increments,
)
from .rng import RandomStream
from .verify import (
    CheckResult,
    DiscrepancyRecord,
    run_checks,
    run_ledger,
    write_ledger,
)
from .waiting import ErlangMaxUExp, ExpMaxUExp

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CheckResult",
    "DegenerateSampleError",
    "DiscrepancyRecord",
    "DivergenceError",
    "DomainError",
    "ErlangMaxUExp",
    "ExpMaxUExp",
    "FitReport",
    "InsufficientDataError",
    "MaxUExp",
    "MaxUExpEstimator",
    "MixedPoissonMaxUExp",
    "NumericError",
    "PathBatch",
    "PowerTransform",
    "ProcessPath",
    "RandomStream",
    "RangeError",
    "TableTransform",
    "conditional_binomial_pmf",
    "empirical_moments",
    "exceedance_confidence",
    "fit_auto",
    "histogram_init",
    "lsq_fit",
    "lsq_objective",
    "mom_curve",
    "mom_curve_extrema",
    "ratio_stat",
    "run_checks",
    "run_ledger",
    "solve_mom",
    "to_cumulative",
    "to_increments",
    "write_ledger",
    "__version__",
]
