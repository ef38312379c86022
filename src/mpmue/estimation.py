"""Parameter estimation for Max-U-Exp samples.

Method of moments: with x = a*lam and y = lam the first two moments become
E(X)  = (x^2/2 + 1 - e^-x) / (x y)
E(X^2) = (x^3/3 + 4 - 2 e^-x (x + 2)) / (x y^2)
so the scale-free ratio E(X^2)/E(X)^2 equals

    g(x) = x (x^3/3 + 4 - 2 e^-x (x + 2)) / (x^2/2 + 1 - e^-x)^2.

g decreases from 2 at the origin to a minimum of about 1.24523 at
x ~ 4.02317, then climbs back toward 4/3; it crosses 4/3 on the way down at
x ~ 2.17382.  A sample ratio therefore lands in one of four regimes: a
unique root, a two-root ambiguity resolved by the least-squares criterion,
a fallback to the curve minimum, or a clamp for ratios at or above the
exponential limit 2.

The fallback refines the fit by trimmed least squares on the empirical cdf,
as ``lsq_fit`` does.  The model (x/a)(1 - e^(-lam x)) is linear in 1/a, so
the best a has a closed form for each lam, and the fit is a one-dimensional
search in lam a_floor, which has no units (variable projection): a fixed
log grid, then a bounded Brent refinement.  It takes no start.  One
evaluator, ``_objective``, gives the trimmed objective everywhere: to
``lsq_objective``, to the ambiguous branch's pick between its two roots and
to the fallback's grid, refinement and reported objective.  ``_trimmed``
builds the retained order statistics and their plotting positions once per
sample.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    NumericError,
    _require_count,
    _require_positive,
    _require_real,
    _scalar,
)
from .numerics import _cs, find_root, minimize_bounded

FOUR_THIRDS = 4.0 / 3.0
_CLAMP_EPS = 1e-6


def validate_sample(values) -> np.ndarray:
    """Coerce observations to a sorted 1-D float array; all finite and positive.

    Of the public functions, the ones that read order statistics sort:
    ``lsq_fit``, ``lsq_objective``, ``histogram_init`` and ``fit_auto`` on its
    two least-squares branches.  The moments (``empirical_moments``,
    ``ratio_stat``, ``solve_mom`` and ``fit_auto``'s unique branch) do not
    depend on order and take the sample as it comes.  No fitter loads scipy.
    """
    return np.sort(_check_sample(values))


def _check_sample(values) -> np.ndarray:
    """Observations as a 1-D float array, all finite and positive, unsorted."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise InsufficientDataError("sample is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError("sample contains non-finite values")
    if np.any(arr <= 0.0):
        raise DomainError("sample contains non-positive values")
    return arr


# The public functions below check their input; fit_auto checks once and
# calls the private helpers, which take an already checked array.


def empirical_moments(values) -> tuple[float, float, float]:
    """(m1, m2, unbiased mean square (n m1^2 - m2)/(n - 1)); needs n >= 2."""
    return _empirical_moments(_check_sample(values))


def _empirical_moments(x: np.ndarray) -> tuple[float, float, float]:
    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least two observations")
    with np.errstate(over="ignore"):
        m1 = float(np.mean(x))
        m2 = float(np.dot(x, x)) / n  # no n-sized temporary, unlike mean(x * x)
    ms_unbiased = (n * m1 * m1 - m2) / (n - 1)
    # Squares of a sample past about 1e154 overflow, and below 1e-154 they
    # underflow.
    if not (sys.float_info.min <= m2 and math.isfinite(ms_unbiased)):
        raise NumericError(f"the sample's second moment {m2!r} passes the double range")
    return m1, m2, ms_unbiased


def ratio_stat(values, variant: str = "unbiased") -> float:
    """Sample analogue of E(X^2)/E(X)^2.

    ``plain`` is m2/m1^2; ``unbiased`` replaces the squared mean with its
    unbiased estimate, giving m2 (n-1) / (n m1^2 - m2).  The plain variant
    is never below the unbiased one.
    """
    return _ratio_stat(_empirical_moments(_check_sample(values)), variant)


def _ratio_stat(moments: tuple[float, float, float], variant: str) -> float:
    m1, m2, ms_unbiased = moments
    if variant == "plain":
        return m2 / (m1 * m1)
    if variant != "unbiased":
        raise DomainError(f"unknown variant {variant!r}")
    if ms_unbiased <= 0.0:
        raise DegenerateSampleError("unbiased mean square is not positive")
    return m2 / ms_unbiased


def mom_curve(x: float) -> float:
    """The moment-ratio curve g(x) for x > 0; series below 1e-3 avoids the
    0/0 cancellation at the origin (limit 2)."""
    x = _require_positive("x", x)
    if x < 1e-3:
        return 2.0 - 2.0 * x * x / 3.0 + x**3 / 3.0 + x**4 / 12.0
    if x < 1e100:  # where x**3 is a double
        ex = math.exp(-x)
        num = x * (x**3 / 3.0 + 4.0 - 2.0 * ex * (x + 2.0))
        root = x * x / 2.0 - math.expm1(-x)
        g = num / (root * root)
        if math.isfinite(g):
            return g
    # Past x = 1.5e77, x^4 leaves the double range, while
    # g = (1/3 + 4/x^3) / (1/4 + 1/x^2 + 1/x^4) rounds to 4/3.
    return FOUR_THIRDS


@lru_cache(maxsize=1)
def mom_curve_extrema() -> tuple[float, float, float]:
    """(crossing of 4/3, argmin, min value) of the moment-ratio curve.  With
    g = x N / D^2 as in the module docstring, the argmin is the root on [3, 5]
    of (N + x N') D - 2 x N D', where N' = x^2 + 2 e^-x (x + 1), D' = x + e^-x."""

    def slope(x: float) -> float:
        ex = math.exp(-x)
        n = x**3 / 3.0 + 4.0 - 2.0 * ex * (x + 2.0)
        d = x * x / 2.0 - math.expm1(-x)
        return (n + x * (x * x + 2.0 * ex * (x + 1.0))) * d - 2.0 * x * n * (x + ex)

    argmin = find_root(slope, 3.0, 5.0, tol=1e-15)
    gmin = mom_curve(argmin)
    x43 = find_root(lambda v: mom_curve(v) - FOUR_THIRDS, 0.5, argmin, tol=1e-12)
    return x43, argmin, gmin


@dataclass
class FitReport:
    a: float
    lam: float
    x_product: float
    r_hat: float
    r_hat_variant: str
    branch: str
    objective: float | None = None
    warnings: list[str] = field(default_factory=list)
    candidates: list[tuple[float, float]] = field(default_factory=list)

    def params(self) -> tuple[float, float]:
        return self.a, self.lam


def _params_from_x(x: float, m1: float) -> tuple[float, float]:
    # Second moment equation: lam = (x^2/2 + 1 - e^-x) / (x m1), a = x / lam.
    y = (x * x / 2.0 - math.expm1(-x)) / (x * m1)
    return x / y, y


def solve_mom(values, variant: str = "unbiased") -> FitReport:
    """Method-of-moments fit via the ratio statistic and the curve g.

    Regimes by the observed ratio r:
      r >= 2          clamp to the near-zero root of g = 2 - 1e-6 (warned);
      4/3 < r < 2     unique root left of the 4/3 crossing;
      gmin <= r <= 4/3  two candidate roots bracketing the argmin, both
                      reported, selection deferred to least squares;
      r < gmin        the curve cannot reach r; use the argmin (warned).
    """
    return _solve_mom(_check_sample(values), variant)


def _solve_mom(x: np.ndarray, variant: str) -> FitReport:
    moments = _empirical_moments(x)
    m1, r = moments[0], _ratio_stat(moments, variant)
    x43, argmin, gmin = mom_curve_extrema()
    warnings: list[str] = []
    candidates: list[tuple[float, float]] = []

    if r >= 2.0:
        warnings.append(
            f"ratio {r:.6g} is at or above the exponential limit 2; clamped to g(x) = 2 - 1e-6"
        )
    if r > FOUR_THIRDS:
        target = r if r < 2.0 else 2.0 - _CLAMP_EPS
        xr = find_root(lambda v: mom_curve(v) - target, 1e-9, x43, tol=1e-12)
        branch = "unique"
    elif r >= gmin:
        branch = "ambiguous_two_roots"
        lo_root = find_root(lambda v: mom_curve(v) - r, x43, argmin, tol=1e-12)
        candidates.append(_params_from_x(lo_root, m1))
        hi = argmin * 2.0
        while mom_curve(hi) <= r and hi < 1e9:
            hi *= 2.0
        if mom_curve(hi) > r:
            hi_root = find_root(lambda v: mom_curve(v) - r, argmin, hi, tol=1e-12)
            candidates.append(_params_from_x(hi_root, m1))
        else:
            warnings.append(
                "ratio sits at the 4/3 boundary; the upper candidate diverges and is dropped"
            )
        xr = lo_root
    else:
        warnings.append(
            f"ratio {r:.6g} is below the curve minimum {gmin:.6g}; using the argmin"
        )
        xr = argmin
        branch = "fallback_min"

    a, lam = _params_from_x(xr, m1)
    return FitReport(
        a=a,
        lam=lam,
        x_product=xr,
        r_hat=r,
        r_hat_variant=variant,
        branch=branch,
        warnings=warnings,
        candidates=candidates,
    )


def _require_trim(trim) -> float:
    trim = _scalar("trim", trim)
    if not (0.0 <= trim < 1.0):
        raise DomainError(f"trim must lie in [0, 1), got {trim!r}")
    return trim


def _trimmed(x: np.ndarray, trim: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(retained order statistics over a_floor, their positions i/(n+1), a_floor)."""
    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least two observations")
    # Keep at least two order statistics no matter how aggressive the trim.
    drop = min(math.ceil(trim * n), n - 2)
    kept = x[: n - drop]
    a_floor = float(kept[-1])
    return kept / a_floor, np.arange(1, kept.size + 1, dtype=float) / (n + 1.0), a_floor


def _objective(
    xs: np.ndarray, ps: np.ndarray, u: float, c: float | None = None
) -> tuple[float, float]:
    """(|p + w/c|^2 with w = expm1(-u xs) xs, c) at u = lam a_floor, c = a/a_floor;
    with no c, at the best one, max(1, <w, w>/<p, |w|>), 1 where <p, |w|> = 0."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.expm1(-u * xs) * xs
        if c is None:
            pw, ww = -float(np.dot(w, ps)), float(np.dot(w, w))
            c = max(1.0, ww / pw) if pw > 0.0 else 1.0
        gaps = ps + w / c
        value = float(np.dot(gaps, gaps))
    if not math.isfinite(value):
        raise NumericError(f"the objective at u={u!r}, c={c!r} passes the double range")
    return value, c


def lsq_objective(values, a: float, lam: float, trim: float = 0.25) -> float:
    """Sum of squared gaps between plotting positions i/(n+1) (n the original
    size) and the uniform-branch cdf (x_i/a)(1 - e^(-lam x_i)) over the
    retained (smallest) order statistics."""
    x, a, lam = validate_sample(values), _scalar("a", a), _scalar("lam", lam)
    xs, ps, a_floor = _trimmed(x, _require_trim(trim))
    return _objective(xs, ps, lam * a_floor, a / a_floor)[0]


def lsq_fit(values, trim: float = 0.25) -> FitReport:
    """Trimmed least squares on the empirical cdf, constrained to a at least
    the largest retained observation (the model branch assumes x <= a).
    It takes no start and no units: the search runs in lam a_floor, over a
    fixed grid, and the best a is solved exactly at each lam.  The plain
    r_hat is taken on the sample over its largest value, the same ratio at
    any scale, so a sample whose squares pass the double range fits too."""
    x, trim = validate_sample(values), _require_trim(trim)
    r_hat = _ratio_stat(_empirical_moments(x / x[-1]), "plain")
    a, lam, objective = _lsq_fit(x, trim)
    return FitReport(a, lam, a * lam, r_hat, "plain", "lsq_refined", objective)


# The coarse grid of u = lam a_floor: 73 points a quarter decade apart on
# [1e-12, 1e6], taken on at most _GRID_SAMPLE evenly thinned order statistics.
_GRID_U = np.logspace(-12.0, 6.0, 73)
_GRID_SAMPLE = 1_000


def _lsq_fit(x: np.ndarray, trim: float) -> tuple[float, float, float]:
    """(a, lam, objective) of ``lsq_fit`` by variable projection (Golub &
    Pereyra 1973).  The model (x/a)(1 - e^(-lam x)) is linear in 1/a: with
    w = -(kept/a_floor)(1 - e^(-u kept/a_floor)) and plotting positions p,
    the objective is |p + w a_floor/a|^2, whose best a under a >= a_floor is
    a_floor max(1, <w, w>/<p, |w|>), at most (n + 1) a_floor as p >= 1/(n + 1)
    and |w| <= 1.  In u = lam a_floor nothing depends on the sample's units.
    The profile in u is not unimodal, so its argmin on a log grid, taken on a
    thinned sample, picks the step, and a bounded Brent search in log u on
    the full sample (``minimize_bounded``) refines it between the grid
    point's neighbours.  ``_objective`` gives the grid, the refinement and the
    reported objective, as it gives ``lsq_objective`` and the ambiguous pick.
    An a or a lam past the double range raises NumericError."""
    xs, ps, a_floor = _trimmed(x, trim)
    step = math.ceil(xs.size / _GRID_SAMPLE)
    grid = [_objective(xs[::step], ps[::step], u)[0] for u in _GRID_U]
    i = int(np.argmin(grid))
    log_u = np.log(_GRID_U[max(i - 1, 0) : i + 2])
    s = minimize_bounded(
        lambda s: _objective(xs, ps, math.exp(s))[0], log_u[0], log_u[-1], xatol=1e-10
    )
    objective, c = _objective(xs, ps, math.exp(s))
    a, lam = a_floor * c, math.exp(s) / a_floor
    if not (math.isfinite(a) and math.isfinite(lam)):
        raise NumericError(f"the fitted (a, lam) = ({a!r}, {lam!r}) passes the double range")
    return a, lam, objective


def histogram_init(values) -> tuple[float, float]:
    """Crude (a, lam) values from the shape of a square-root-rule histogram, a
    standalone heuristic that no fitter calls.

    The density drops sharply past a, so a is read off as the left edge of
    the first post-peak bin whose height falls below half its predecessor's
    (else the sample maximum).  The tail beyond a is
    memoryless, so lam is the inverted mean exceedance when at least five
    observations land there, else 1/mean.
    """
    x = validate_sample(values)
    n = x.size
    if n < 20:
        raise InsufficientDataError("histogram heuristic needs at least 20 observations")
    top = float(x[-1])
    counts, edges = np.histogram(x, bins=math.ceil(math.sqrt(n)), range=(0.0, top))
    peak = int(np.argmax(counts))
    a0 = top
    for i in range(peak + 1, counts.size):
        if counts[i - 1] > 0 and counts[i] < 0.5 * counts[i - 1]:
            a0 = float(edges[i])
            break
    tail = x[x > a0]
    with np.errstate(over="ignore", divide="ignore"):
        lam0 = float(1.0 / np.mean(tail - a0 if tail.size >= 5 else x))
    if not 0.0 < lam0 < math.inf:
        raise NumericError(f"the start lam0 = {lam0!r} passes the double range")
    return a0, lam0


def exceedance_confidence(n: int, p: float, max_exceed: int) -> float:
    """P(Binomial(n, p) <= max_exceed): chance the count of tail exceedances
    stays within the allowance.  For k = max_exceed < n it is 1 - I_p(k + 1,
    n - k), scipy's complemented regularized incomplete beta, accurate for
    any n up to 2^53.  Where scipy gives that as nan (near the median at
    n ~ 2^53) it takes the same value as I_(1-p)(n - k, k + 1), which scipy
    gives less accurately there: 4e-12 relative at p = 1/2, 1e-8 at 1/3.
    NumericError if neither form is finite."""
    n, max_exceed = _require_count("n", n, lo=1), _require_count("max_exceed", max_exceed)
    p = _require_real("p", p, 0.0, 1.0)
    if max_exceed >= n:
        return 1.0
    value = _cs.betaincc(max_exceed + 1.0, n - max_exceed, p)
    if not math.isfinite(value):
        value = _cs.betainc(float(n - max_exceed), max_exceed + 1.0, 1.0 - p)
    if not math.isfinite(value):
        raise NumericError(f"P(Binomial({n}, {p!r}) <= {max_exceed}) is not a finite double")
    return float(value)


def fit_auto(values, trim: float = 0.25, variant: str = "unbiased") -> FitReport:
    """Moment fit with automatic disambiguation.

    The unique branch is returned as is (no least-squares polish).  An
    ambiguous ratio picks the candidate with the lower trimmed
    least-squares objective.  The fallback branch refits by ``lsq_fit``,
    which needs no start.  Both refined branches are the moment report with
    the fitted (a, lam), branch ``lsq_refined``, the objective, and the
    warnings and candidates replaced in one step, so each keeps the moment
    fit's r_hat and its variant.  The moments are taken on the sample as it
    comes; only the two least-squares branches sort it.  Every branch needs
    m1 and m2, so a sample whose squares pass the double range raises
    NumericError here, where ``lsq_fit`` fits it.
    """
    x, trim = _check_sample(values), _require_trim(trim)
    rep = _solve_mom(x, variant)
    if rep.branch == "unique":
        return rep
    x = np.sort(x)
    if rep.branch == "ambiguous_two_roots":
        xs, ps, a_floor = _trimmed(x, trim)
        scored = [_objective(xs, ps, lam * a_floor, a / a_floor)[0] for a, lam in rep.candidates]
        objective = min(scored)
        a, lam = rep.candidates[scored.index(objective)]
        warnings = rep.warnings + [
            f"ambiguous ratio: kept the candidate with objective {objective:.6g}"
        ]
        candidates = rep.candidates
    else:  # fallback_min: refine by least squares.
        a, lam, objective = _lsq_fit(x, trim)
        warnings, candidates = rep.warnings, [(rep.a, rep.lam)]
    return replace(
        rep,
        a=a,
        lam=lam,
        x_product=a * lam,
        branch="lsq_refined",
        objective=objective,
        warnings=warnings,
        candidates=candidates,
    )


class MaxUExpEstimator:
    """Thin estimator wrapper with the scikit-learn calling convention.

    ``fit(X)`` accepts a 1-D array (or single-column matrix) of positive
    observations and exposes the fitted parameters as ``a_`` and
    ``lambda_`` with the full ``FitReport`` in ``report_``.
    """

    def __init__(self, method: str = "auto", trim: float = 0.25, variant: str = "unbiased"):
        self.method = method
        self.trim = trim
        self.variant = variant

    def get_params(self, deep: bool = True) -> dict:
        return {"method": self.method, "trim": self.trim, "variant": self.variant}

    def set_params(self, **params) -> "MaxUExpEstimator":
        for key, value in params.items():
            if key not in ("method", "trim", "variant"):
                raise DomainError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "MaxUExpEstimator":
        arr = np.asarray(X, dtype=float)
        if arr.ndim == 2 and arr.shape[1] == 1:
            arr = arr[:, 0]
        if arr.ndim != 1:
            raise DomainError("expected a 1-D array or a single-column matrix")
        if self.method == "auto":
            report = fit_auto(arr, trim=self.trim, variant=self.variant)
        elif self.method == "mom":
            report = solve_mom(arr, variant=self.variant)
        elif self.method == "lsq":
            report = lsq_fit(arr, self.trim)
        else:
            raise DomainError(f"unknown method {self.method!r}")
        self.report_ = report
        self.a_ = report.a
        self.lambda_ = report.lam
        return self
