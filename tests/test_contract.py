"""Every public callable returns a finite, in-range value or raises one of
the package's typed errors, on an extreme grid.

The grid: a, lam and every float argument in {1e-300, 1e-12, 1, 1e12,
1e300}, and the arguments at inf and at the int 10**400, past the double
range, as well.  Counts, orders and draw counts
are integers and take small fixed sets; the counts include a numpy integer
and two past 2^53, the largest count any law takes.  An evaluator that
takes arrays is called with a float and with a one-element array.  Warnings
count as errors.

The simulators run at every horizon.  On this grid each batch expects
either at most about 3 events or at least 3e11, past the simulator's event
cap, where it raises NumericError before its first round.

Left out, on purpose: the verify battery (``run_checks``, ``run_ledger``,
``write_ledger`` and their records), which runs at fixed parameter points;
see test_verify.py.
"""

import inspect
import math
import numbers
import warnings
from fractions import Fraction

import numpy as np
import pytest

import mpmue
from mpmue import (
    BracketError,
    DegenerateSampleError,
    DomainError,
    ErlangMaxUExp,
    ExpMaxUExp,
    FitReport,
    InsufficientDataError,
    MaxUExp,
    MaxUExpEstimator,
    MixedPoissonMaxUExp,
    NumericError,
    PathBatch,
    PowerTransform,
    ProcessPath,
    RandomStream,
    RangeError,
    TableTransform,
)
from mpmue.estimation import validate_sample
from mpmue.verify import ks_statistic

GRID = (1e-300, 1e-12, 1.0, 1e12, 1e300)
ARGS = GRID + (math.inf, 10**400)
COUNTS = (0, 1, 5, 1000, np.int64(5), 2**53 + 1, 10**400)
TYPED = (
    BracketError,
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    NumericError,
    RangeError,
)
PARAMS = [(a, lam) for a in GRID for lam in GRID]

ONE = [(x,) for x in ARGS]
PAIRS = [(x, y) for x in ARGS for y in ARGS]
RISING = [(x, y) for x, y in PAIRS if x < y]
CLOCK_COUNTS = [(m, n) for m in ARGS for n in COUNTS]
SAMPLES = [v * MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 30) for v in GRID]


def _numbers(value):
    """The numbers in a return value, objects unpacked into their fields."""
    if isinstance(value, FitReport):
        fields = [value.a, value.lam, value.x_product, value.r_hat, *np.ravel(value.candidates)]
        return fields + ([value.objective] if value.objective is not None else [])
    if isinstance(value, MaxUExpEstimator):
        return _numbers(value.report_) if hasattr(value, "report_") else []
    if isinstance(value, MaxUExp):
        return [value.a, value.lam]
    if isinstance(value, ProcessPath):
        return [value.xi, *value.events]
    if isinstance(value, PathBatch):
        return [*value.xi.tolist(), *value.events.tolist()]
    if isinstance(value, RandomStream):
        return [value.seed, value.position]
    if isinstance(value, dict):
        return [v for v in value.values() if isinstance(v, numbers.Real)]
    if isinstance(value, (tuple, list, np.ndarray)):
        return [x for item in value for x in _numbers(item)]
    return [value]


def _in_range(x, kind: str) -> bool:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        return False
    if kind == "prob":
        return 0.0 <= x <= 1.0
    if kind == "count":
        return isinstance(x, numbers.Integral) and x >= 0
    return kind == "real" or x >= 0.0


def _leaks(where: str, f, calls, kind: str, arrays: bool = False) -> list[str]:
    """The calls of f that neither return an in-range value nor raise a
    typed error.  With ``arrays``, each float argument list is run a second
    time with its first argument as a one-element array."""
    if arrays:
        calls = [*calls, *((np.array([c[0]]), *c[1:]) for c in calls)]
    leaks = []
    for args in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = f(*args)
            except TYPED:
                continue
            except Exception as exc:  # a raw error is the leak under test
                leaks.append(f"{where}{args!r}: {type(exc).__name__}: {exc}")
                continue
        out = _numbers(value)
        if not all(_in_range(x, kind) for x in out):
            leaks.append(f"{where}{args!r} -> {value!r}")
    return leaks


def _public_methods(cls) -> set[str]:
    return {n for n, _ in inspect.getmembers(cls, inspect.isfunction) if not n.startswith("_")}


# method -> (argument lists, kind, takes arrays).  A function in place of
# the lists builds them for each instance: a fresh stream for each draw.
MAXUEXP = {
    "cdf": (ONE, "prob", True),
    "pdf": (ONE, "nonneg", True),
    "hazard": (ONE, "nonneg", True),
    "quantile": (ONE, "nonneg", False),
    "sample": (lambda d: [(RandomStream(11),)], "nonneg", False),
    "sample_many": (lambda d: [(RandomStream(11), 3)], "nonneg", False),
    "moment": (ONE, "nonneg", False),
    "mean": ([()], "nonneg", False),
    "variance": ([()], "nonneg", False),
    "neg_moment": (ONE, "nonneg", False),
    "lst": (ONE, "prob", False),
    "log_tilted_moment": (CLOCK_COUNTS, "real", False),
    "tilted_moment": (CLOCK_COUNTS, "nonneg", False),
    "scaled": (ONE, "nonneg", False),
}

ERLANG = {
    "pdf": (ONE, "nonneg", True),
    "cdf": (ONE, "prob", True),
    "sample": (lambda d: [(RandomStream(11),)], "nonneg", False),
    "sample_many": (lambda d: [(RandomStream(11), 3)], "nonneg", False),
    "moment": (ONE, "nonneg", False),
}

EXP = {
    **ERLANG,
    "cdf": (ONE, "prob", True),
    "joint_pdf": (PAIRS, "nonneg", False),
    "conditional_mixing_pdf": (PAIRS, "nonneg", False),
    "mean_mixing_given_arrival": (ONE, "nonneg", False),
    "mean_arrival_given_mixing": (ONE, "nonneg", False),
    "joint_interarrival_pdf": (
        [([t],) for t in ARGS] + [([s, t],) for s, t in PAIRS],
        "nonneg",
        False,
    ),
}


PROCESS = {
    "pmf": (CLOCK_COUNTS, "prob", False),
    "pmf_upper_tail_bound": (CLOCK_COUNTS, "prob", False),
    "truncation_point": (PAIRS, "count", False),
    "mean_variance": (ONE, "nonneg", False),
    "pgf": (PAIRS, "prob", False),
    "posterior_pdf": ([(m, n, x) for m, n in CLOCK_COUNTS for x in ARGS], "nonneg", False),
    "posterior_mean": (CLOCK_COUNTS, "nonneg", False),
    "factorial_moment": ([(m, k) for m in ARGS for k in (1, 2, 5)], "nonneg", False),
    "ordered_pmf": ([(mus, ks) for mus in RISING for ks in ((0, 0), (1, 3))], "prob", False),
    "increments_pmf": ([(mus, ms) for mus in RISING for ms in ((0, 0), (1, 2))], "prob", False),
    "simulate_path": (
        lambda p: [(PowerTransform(1.0), h, RandomStream(11)) for h in ARGS],
        "nonneg",
        False,
    ),
    "simulate_paths": ([(PowerTransform(1.0), h, 3, 11) for h in ARGS], "nonneg", False),
}

TRANSFORM = {
    "value": (ONE, "nonneg", False),
    "inverse": (ONE, "nonneg", True),
}

STREAM = {
    "uniform": ([()], "prob", False),
    "uniforms": ([(0,), (3,)], "prob", False),
    "exponential": (ONE, "nonneg", False),
    "exponentials": ([(3, r) for r in ARGS], "nonneg", False),
    "gamma_int": ([(k, r) for k in (1, 5) for r in ARGS], "nonneg", False),
    "substream": ([(0,), (1,)], "count", False),
}

PATH = {"count_at": (ONE, "count", False)}

# ``count`` and ``index`` are the Sequence mixins, called with a path the
# batch holds (``index`` raises ValueError for one it does not, as a list does).
BATCH = {
    "counts_at": (ONE, "count", False),
    "count": (lambda b: [(p,) for p in [*b[:1], ProcessPath(1.0, [0.5], 1.0)]], "count", False),
    "index": (lambda b: [(p,) for p in b[:1]], "count", False),
}

REPORT = {
    "params": ([()], "nonneg", False),
    "to_json_dict": ([()], "nonneg", False),
}

ESTIMATOR = {
    "fit": ([(x,) for x in SAMPLES], "nonneg", False),
    "get_params": ([()], "nonneg", False),
    "set_params": ([()], "nonneg", False),
}

# class -> (its method table, the instances to call it on)
CLASSES = {
    MaxUExp: (MAXUEXP, [MaxUExp(a, lam) for a, lam in PARAMS]),
    ErlangMaxUExp: (ERLANG, [ErlangMaxUExp(n, a, lam) for n in (2, 10) for a, lam in PARAMS]),
    ExpMaxUExp: (EXP, [ExpMaxUExp(a, lam) for a, lam in PARAMS]),
    MixedPoissonMaxUExp: (PROCESS, [MixedPoissonMaxUExp(MaxUExp(a, lam)) for a, lam in PARAMS]),
    PowerTransform: (TRANSFORM, [PowerTransform(c) for c in GRID]),
    TableTransform: (TRANSFORM, [TableTransform([(0.0, 0.0), (1.0, v), (2.0, 2.0 * v)]) for v in GRID]),
    RandomStream: (STREAM, [RandomStream(11)]),
    ProcessPath: (PATH, [ProcessPath(1.0, [0.5], 1.0)]),
    PathBatch: (
        BATCH,
        [
            MixedPoissonMaxUExp(MaxUExp(1.0, 1.0)).simulate_paths(PowerTransform(1.0), h, k, 11)
            for h in GRID[:3]
            for k in (0, 3)
        ],
    ),
    MaxUExpEstimator: (ESTIMATOR, [MaxUExpEstimator(m) for m in ("auto", "mom", "lsq")]),
    FitReport: (REPORT, [f(SAMPLES[2]) for f in (mpmue.solve_mom, mpmue.lsq_fit, mpmue.fit_auto)]),
}

# function -> (argument lists, kind)
FUNCTIONS = {
    "conditional_binomial_pmf": (
        [(n, s, t, j) for n in COUNTS for s, t in PAIRS for j in (0, 1)],
        "prob",
    ),
    "empirical_moments": ([(x,) for x in SAMPLES], "nonneg"),
    "exceedance_confidence": (
        [(n, p, k) for n in (1, 1000, 10**6) for p in ARGS for k in (0, 1)],
        "prob",
    ),
    "fit_auto": ([(x,) for x in SAMPLES], "nonneg"),
    "histogram_init": ([(x,) for x in SAMPLES], "nonneg"),
    "lsq_fit": ([(x,) for x in SAMPLES], "nonneg"),
    "lsq_objective": ([(x, a, lam) for x in SAMPLES for a, lam in PARAMS], "nonneg"),
    "mom_curve": (ONE, "nonneg"),
    "mom_curve_extrema": ([()], "nonneg"),
    "ratio_stat": ([(x, v) for x in SAMPLES for v in ("unbiased", "plain")], "nonneg"),
    "solve_mom": ([(x, v) for x in SAMPLES for v in ("unbiased", "plain")], "nonneg"),
    "to_cumulative": ([(list(COUNTS),), ([1000, 0, 5],), ([],)], "count"),
    "to_increments": ([(list(COUNTS),), ([0, 0, 1000],), ([],)], "count"),
}

LEFT_OUT = {
    "CheckResult",
    "DiscrepancyRecord",
    "run_checks",
    "run_ledger",
    "write_ledger",
    "__version__",
}


def test_every_public_name_is_covered():
    errors = {n for n in mpmue.__all__ if n.endswith("Error")}
    classes = {cls.__name__ for cls in CLASSES}
    assert set(mpmue.__all__) == errors | classes | set(FUNCTIONS) | LEFT_OUT
    for cls, (table, _) in CLASSES.items():
        assert _public_methods(cls) == set(table), cls.__name__


@pytest.mark.parametrize("cls", list(CLASSES), ids=lambda c: c.__name__)
def test_methods_return_finite_in_range_or_raise_typed_errors(cls):
    table, instances = CLASSES[cls]
    leaks = []
    for obj in instances:
        for name, (calls, kind, arrays) in table.items():
            args = calls(obj) if callable(calls) else calls
            leaks += _leaks(f"{obj!r}.{name}", getattr(obj, name), args, kind, arrays)
    assert leaks == []


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_functions_return_finite_in_range_or_raise_typed_errors(name):
    calls, kind = FUNCTIONS[name]
    assert _leaks(name, getattr(mpmue, name), calls, kind) == []


def test_ints_with_no_str_and_non_integers_raise_domain_error():
    # Python will not print an int of over 4300 digits, so a message that
    # formatted the argument itself would raise ValueError instead.
    huge = 10**5000
    d = MaxUExp(1.0, 1.0)
    proc = MixedPoissonMaxUExp(d)
    flat = np.linspace(1.0, 2.0, 30)  # ratio below the curve: fit_auto refits with trim
    probes = [
        lambda: d.quantile(huge),
        lambda: proc.pgf(1.0, huge),
        lambda: proc.truncation_point(1.0, huge),
        lambda: mpmue.exceedance_confidence(10, huge, 1),
        lambda: mpmue.lsq_objective(flat, 1.0, 1.0, huge),
        lambda: mpmue.fit_auto(flat, trim=huge),
        lambda: ProcessPath(1.0, [0.5], 1.0).count_at(huge),
        lambda: RandomStream(1).substream(2.5),
        lambda: RandomStream(1, 2.5),
    ]
    for probe in probes:
        with pytest.raises(DomainError):
            probe()
    # Positions wrap mod 2^64 and have no 2^53 bound.
    s1, s2 = RandomStream(1, 2**60), RandomStream(1, 2**60)
    assert s1.uniforms(3).tolist() == [s2.uniform() for _ in range(3)]
    assert s1.position == s2.position == 2**60 + 3


def test_scalar_arguments_reject_numpy_arrays():
    # These take inf and nan, and one number only: an array raises
    # DomainError, not numpy's "truth value ... is ambiguous".
    arr = np.array([1.0, 2.0])
    d = MaxUExp(1.0, 1.0)
    flat = np.linspace(1.0, 2.0, 30)
    probes = [
        lambda: d.moment(arr),
        lambda: d.neg_moment(arr),
        lambda: ExpMaxUExp(1.0, 1.0).joint_pdf(arr, 1.0),
        lambda: ExpMaxUExp(1.0, 1.0).joint_pdf(1.0, arr),
        lambda: ExpMaxUExp(1.0, 1.0).joint_interarrival_pdf([arr]),
        lambda: MixedPoissonMaxUExp(d).posterior_pdf(1.0, 1, arr),
        lambda: ProcessPath(1.0, [0.5], 1.0).count_at(arr),
        lambda: TableTransform([(0.0, 0.0), (arr, 1.0)]),
        lambda: mpmue.lsq_objective(flat, arr, 1.0),
        lambda: mpmue.lsq_objective(flat, 1.0, arr),
        lambda: mpmue.fit_auto(flat, trim=np.array([0.1, 0.2])),
    ]
    for probe in probes:
        with pytest.raises(DomainError):
            probe()


# Every public function that takes a sample, called on the sample alone.
SAMPLE_READERS = {
    "validate_sample": validate_sample,
    "empirical_moments": mpmue.empirical_moments,
    "ratio_stat": mpmue.ratio_stat,
    "solve_mom": mpmue.solve_mom,
    "lsq_objective": lambda v: mpmue.lsq_objective(v, 1.0, 1.0),
    "lsq_fit": mpmue.lsq_fit,
    "histogram_init": mpmue.histogram_init,
    "fit_auto": mpmue.fit_auto,
    "MaxUExpEstimator.fit": lambda v: MaxUExpEstimator().fit(v),
    "ks_statistic": lambda v: ks_statistic(v, MaxUExp(1.0, 1.0).cdf),
}


def test_bad_samples_raise_domain_error():
    # Each is a good sample but for its values' type.  Read as numpy reads
    # them, four raise OverflowError, TypeError or ValueError, the complex
    # array loses its imaginary parts and the strings and bytes are numbers.
    good = MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 30).tolist()
    bad = {
        "past the double range": good + [10**400],
        "complex": good + [2.0 + 1.0j],
        "complex array": np.array(good, dtype=complex),
        "not a number": good + ["a"],
        "ragged": good + [[2.0]],
        "strings": [repr(v) for v in good],
        "bytes": [repr(v).encode() for v in good],
    }
    leaks = []
    for name, f in SAMPLE_READERS.items():
        for case, values in bad.items():
            try:
                f(values)
            except DomainError:
                continue
            except Exception as exc:  # a raw error is the leak under test
                leaks.append(f"{name}({case}): {type(exc).__name__}: {exc}")
                continue
            leaks.append(f"{name}({case}) returned")
    assert leaks == []


def test_numeric_samples_read_as_their_floats():
    draws = MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 30)
    ints = (draws * 1000).astype(int)
    for values, floats in (
        ([Fraction(v) for v in draws], draws),
        (draws.tolist(), draws),
        (ints.tolist(), ints.astype(float)),
        ([True] * 30, np.ones(30)),
    ):
        for name, f in SAMPLE_READERS.items():
            try:
                want = f(floats)
            except TYPED as exc:
                with pytest.raises(type(exc)):
                    f(values)
                continue
            got = f(values)
            if isinstance(want, MaxUExpEstimator):
                got, want = got.report_, want.report_
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, name
