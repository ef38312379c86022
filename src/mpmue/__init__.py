"""Mixed Poisson processes driven by a max-of-uniform-and-exponential mixing law.

The mixing variable is the larger of a uniform draw on (0, a) and an
exponential draw with rate lambda.  This package provides that distribution
(:class:`MaxUExp`), the inter-arrival and n-th arrival laws of the mixed
Poisson process it drives (:class:`ExpMaxUExp`, :class:`ErlangMaxUExp`), the
counting process itself with deterministic operational time
(:class:`MixedPoissonMaxUExp`), moment and least-squares estimators, and a
self-verification harness with a machine-readable discrepancy ledger.

``import mpmue`` loads no submodule.  Each public name is looked up in its
submodule on first access (PEP 562), so ``from mpmue import MaxUExp`` loads
the law and its numerics but not the fitters or the audit battery, and
``from mpmue import fit_auto`` loads the fitters but not the counting
process.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.  ``__all__``, ``__getattr__`` and
# ``__dir__`` all read this one table.
_MODULES = {
    "distribution": ("MaxUExp",),
    "errors": (
        "BracketError",
        "DegenerateSampleError",
        "DivergenceError",
        "DomainError",
        "InsufficientDataError",
        "NumericError",
        "RangeError",
    ),
    "estimation": (
        "FitReport",
        "MaxUExpEstimator",
        "empirical_moments",
        "exceedance_confidence",
        "fit_auto",
        "histogram_init",
        "lsq_fit",
        "lsq_objective",
        "mom_curve",
        "mom_curve_extrema",
        "ratio_stat",
        "solve_mom",
    ),
    "process": (
        "MixedPoissonMaxUExp",
        "PathBatch",
        "PowerTransform",
        "ProcessPath",
        "TableTransform",
        "conditional_binomial_pmf",
        "to_cumulative",
        "to_increments",
    ),
    "rng": ("RandomStream",),
    "verify": ("CheckResult", "DiscrepancyRecord", "run_checks", "run_ledger", "write_ledger"),
    "waiting": ("ErlangMaxUExp", "ExpMaxUExp"),
}
_SOURCE = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_SOURCE) + ["__version__"]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
