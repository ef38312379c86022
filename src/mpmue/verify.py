"""Cross-checking harness for every closed form in the library.

Each closed-form operation in the distribution, waiting-time, and counting
modules is re-derived here by an independent route (adaptive quadrature,
series summation, transform identities, or seeded Monte Carlo) and the two
routes are compared at run time.  Coverage is enforced by construction:
``REQUIRED_OPS`` names the operations that must be vouched for, every check
declares which operations it covers, and ``run_checks`` fails loudly if any
operation is left unregistered.

The discrepancy ledger handles a different job: the source derivations this
library implements contain a handful of internally inconsistent printed
formulas.  ``run_ledger`` evaluates each literal transcription next to the
corrected form the library adopts and an oracle that depends on neither,
then emits one verdict per formula.  Ledger JSON field names (formula_id,
params, paper_literal, corrected, oracle, abs_dev_literal,
abs_dev_corrected, verdict) are a fixed contract for downstream tooling.

Tolerances are constants, pinned check by check in the test suite:
``QUAD_TOL`` = 1e-8 for quadrature against a closed form; 1e-7 to 1e-5
where the oracle integrates a heavy tail, a transform or a small-t limit
(density masses of the waiting laws, Mellin and moment integrals, the
transform, pgf, posterior and factorial-moment checks); 1e-12 to 1e-9 where
both routes are exact or nearly so (identities, round trips, elementary
integrals); 0 for exact remaps and yes/no properties; 5% for the t^2 tail
index; four standard errors for Monte Carlo means and quantile z-scores,
three binomial sigma for single-probability gates, and 1% significance for
KS comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .distribution import MaxUExp
from .errors import DomainError, _require_count, _sample
from .numerics import gamma_lower, gamma_upper, integrate
from .process import (
    MixedPoissonMaxUExp,
    PowerTransform,
    TableTransform,
    conditional_binomial_pmf,
    to_cumulative,
    to_increments,
)
from .rng import _BLOCK, RandomStream
from .waiting import ErlangMaxUExp, ExpMaxUExp

# Quadrature against closed form: the tier of every check that compares two
# smooth routes without a weaker oracle in between.
QUAD_TOL = 1e-8
# Asymptotic two-sided Kolmogorov coefficient at the 1% level.
KS_COEFF_1PCT = 1.6276


# -- goodness-of-fit helpers ---------------------------------------------------


def ks_statistic(values, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov distance between a sample and a cdf.

    ``cdf`` maps an array to an array of the same shape.  It is called on
    the sorted sample in consecutive blocks of ``rng._BLOCK`` values, with a
    running maximum, so no temporary is larger than a block; the statistic
    equals that of one call on the whole sorted sample bit for bit.  A
    sample of any shape is read flat.
    """
    x = np.sort(_sample("values", values).ravel())
    n = x.size
    if n == 0:
        raise DomainError("empty sample")
    # Sorting puts nan last.
    if not (-math.inf < x[0] and x[-1] < math.inf):
        raise DomainError("sample values must be finite")
    stat = -math.inf
    for lo in range(0, n, _BLOCK):
        block = x[lo : lo + _BLOCK]
        f = np.asarray(cdf(block), dtype=float)
        if f.shape != block.shape:
            raise DomainError(f"cdf returned shape {f.shape} for a block of shape {block.shape}")
        steps = np.arange(lo + 1, lo + block.size + 1, dtype=float) / n
        stat = np.max((stat, np.max(steps - f), np.max(f - (steps - 1.0 / n))))
    return float(stat)


def ks_critical(n: int) -> float:
    """The 1% gate 1.6276/sqrt(n) on ``ks_statistic`` for n draws, against a
    law with known parameters only.  Parameters fitted to the same sample
    change the statistic's law (Lilliefors 1967): at n = 2000 the gate is
    too strict for ``fit_auto``'s parameters, which failed it on 12-20% of
    true-model samples."""
    return KS_COEFF_1PCT / math.sqrt(_require_count("n", n, lo=1))


# -- check plumbing --------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    target: float
    tol: float
    detail: str = ""
    ops: tuple[str, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"{status} {self.name}: value={self.value:.6g} "
            f"target={self.target:.6g} tol={self.tol:.3g}{extra}"
        )


def check_value(
    name: str,
    pairs: Sequence[tuple[float, float]],
    tol: float,
    ops: tuple[str, ...] = (),
    relative: bool = False,
    detail: str = "",
) -> CheckResult:
    """Worst deviation over (computed, reference) pairs against one tolerance."""
    worst = 0.0
    for got, want in pairs:
        dev = abs(got - want)
        if relative:
            dev /= max(abs(want), 1e-300)
        worst = max(worst, dev)
    return CheckResult(
        name=name,
        passed=worst <= tol,
        value=worst,
        target=0.0,
        tol=tol,
        detail=detail or ("max relative deviation" if relative else "max absolute deviation"),
        ops=ops,
    )


def check_density(
    name: str,
    pdf: Callable[[float], float],
    support: tuple[float, float],
    tol: float,
    breakpoints: Sequence[float] = (),
    ops: tuple[str, ...] = (),
) -> CheckResult:
    """Total mass of a density within tol of 1."""
    inner = max(min(tol * 1e-2, 1e-9), 1e-12)
    mass = integrate(pdf, support[0], support[1], tol=inner, breakpoints=breakpoints).value
    return CheckResult(
        name=name,
        passed=abs(mass - 1.0) <= tol,
        value=mass,
        target=1.0,
        tol=tol,
        detail="quadrature mass",
        ops=ops,
    )


def check_ks(
    name: str, draws: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray], ops: tuple[str, ...]
) -> CheckResult:
    """1% Kolmogorov gate of a sample against a cdf."""
    stat = ks_statistic(draws, cdf)
    crit = ks_critical(len(draws))
    return CheckResult(name, stat <= crit, stat, crit, crit, "1% Kolmogorov gate", ops)


def check_flag(name: str, ok: bool, detail: str, ops: tuple[str, ...]) -> CheckResult:
    """A yes/no property: value 1 when it holds, 0 when it does not."""
    return CheckResult(name, ok, 1.0 if ok else 0.0, 1.0, 0.0, detail, ops)


def check_quantiles(
    name: str,
    draws: np.ndarray,
    cdf: Callable[[float], float],
    points: Sequence[float],
    why: str,
    ops: tuple[str, ...],
) -> CheckResult:
    """Empirical cdf of the draws against ``cdf`` at ``points``: the worst
    binomial z-score must stay within four."""
    worst = 0.0
    for point in points:
        ref = cdf(point)
        se = math.sqrt(max(ref * (1.0 - ref), 1e-12) / draws.size)
        z = abs(float(np.mean(draws <= point)) - ref) / se
        worst = max(worst, z)
    detail = f"quantile mode ({why}); worst z over {len(points)} cdf points"
    return CheckResult(name, worst <= 4.0, worst, 4.0, 4.0, detail, ops)


def _z_score(mean: float, reference: float, se: float) -> float:
    """|mean - reference| / se; at se = 0, 0 if the mean is exact and inf if not."""
    if se == 0.0:
        return 0.0 if mean == reference else math.inf
    return abs(mean - reference) / se


def _mean_se(draws: np.ndarray) -> tuple[float, float, float]:
    """Mean, sum of squared deviations and standard error (the ddof=1
    standard deviation over sqrt(n)) of at least two draws.  The deviations
    are squared in place; their sum is np.std's numerator, so the error
    equals np.std's bit for bit."""
    mean = float(draws.mean())
    squares = draws - mean
    squares *= squares
    total = float(squares.sum())
    return mean, total, math.sqrt(total / (draws.size - 1)) / math.sqrt(draws.size)


def check_mc(
    name: str,
    draws: np.ndarray,
    closed_form: float,
    ops: tuple[str, ...] = (),
    cdf: Callable[[float], float] | None = None,
    cdf_points: Sequence[float] = (),
) -> CheckResult:
    """Mean of the draws against ``closed_form`` at four standard errors.

    Mean mode needs the draws to have finite variance.  When the reference
    value is not finite, or a single draw dominates the variance estimate,
    the comparison switches to ``check_quantiles`` on the draws, against
    ``cdf`` at ``cdf_points``.  It needs at least two draws.
    """
    draws = _sample("draws", draws).ravel()
    _require_count("len(draws)", draws.size, lo=2)
    why = None
    if not math.isfinite(closed_form):
        why = "reference value is not finite"
    else:
        mean, total, se = _mean_se(draws)
        # Rounding is monotone: the largest squared deviation is the max's or the min's.
        dev = max(float(draws.max()) - mean, mean - float(draws.min()))
        if draws.size >= 100 and total > 0.0 and dev * dev > 0.05 * total:
            why = "one draw dominates the variance estimate"

    if why is not None:
        if cdf is None or not cdf_points:
            return CheckResult(
                name=name,
                passed=False,
                value=math.inf,
                target=4.0,
                tol=4.0,
                detail=f"quantile mode needed ({why}) but no cdf supplied",
                ops=ops,
            )
        return check_quantiles(name, draws, cdf, cdf_points, why, ops)

    z = _z_score(mean, closed_form, se)
    return CheckResult(
        name=name,
        passed=z <= 4.0,
        value=z,
        target=4.0,
        tol=4.0,
        detail=f"mean mode; empirical {mean:.6g} vs {closed_form:.6g}",
        ops=ops,
    )


# -- coverage registry -----------------------------------------------------------

REQUIRED_OPS = frozenset(
    {
        "maxuexp.cdf",
        "maxuexp.pdf",
        "maxuexp.hazard",
        "maxuexp.quantile",
        "maxuexp.sample",
        "maxuexp.moment",
        "maxuexp.mean",
        "maxuexp.variance",
        "maxuexp.neg_moment",
        "maxuexp.lst",
        "maxuexp.tilted_moment",
        "maxuexp.scaled",
        "waiting.emue_pdf",
        "waiting.emue_cdf",
        "waiting.emue_sample",
        "waiting.emue_moment",
        "waiting.joint_pdf",
        "waiting.conditional_mixing_pdf",
        "waiting.mean_mixing_given_arrival",
        "waiting.mean_arrival_given_mixing",
        "waiting.joint_interarrival_pdf",
        "waiting.erlang_pdf",
        "waiting.erlang_cdf",
        "waiting.erlang_sample",
        "waiting.erlang_moment",
        "process.pmf",
        "process.pmf_upper_tail_bound",
        "process.truncation_point",
        "process.mean_variance",
        "process.pgf",
        "process.posterior_pdf",
        "process.posterior_mean",
        "process.factorial_moment",
        "process.ordered_pmf",
        "process.increments_pmf",
        "process.to_increments",
        "process.to_cumulative",
        "process.conditional_binomial_pmf",
        "process.simulate_path",
        "process.time_transform",
    }
)

_PARAM_POINTS = ((1.0, 1.0), (2.0, 0.5))


def _quad(f: Callable[[float], float], a: float, tol: float) -> float:
    """Integral of f over (0, inf), split at the jump a of the mixing density."""
    return integrate(f, 0.0, math.inf, tol=tol, breakpoints=[a]).value


def _expect(d: MaxUExp, g: Callable[[float], float], tol: float) -> float:
    """Oracle for E g(X): the integral of g(x) * pdf(x)."""
    return _quad(lambda x: g(x) * d.pdf(x), d.a, tol)


def _tilted_quad(d: MaxUExp, m: float, n: float) -> float:
    """Oracle for E(X^n e^(-mX)) that never touches the closed kernel."""
    return _expect(d, lambda x: x**n * math.exp(-m * x), 1e-12)


def _variance_quad(d: MaxUExp) -> float:
    """Oracle for Var(X) from the first two raw moments by quadrature."""
    m1 = _expect(d, lambda x: x, 1e-13)
    m2 = _expect(d, lambda x: x * x, 1e-13)
    return m2 - m1 * m1


def _distribution_checks(a: float, lam: float, seed: int, mc_draws: int):
    d = MaxUExp(a, lam)
    tag = f"a={a:g},lam={lam:g}"
    inner = 1e-12
    checks: list[CheckResult] = []

    xs = [0.35 * a, 0.8 * a, a, a + 0.5 / lam, a + 2.0 / lam]
    checks.append(
        check_density(
            f"maxuexp-pdf-mass[{tag}]", d.pdf, (0.0, math.inf), QUAD_TOL, [a], ops=("maxuexp.pdf",)
        )
    )
    checks.append(
        check_value(
            f"maxuexp-cdf-vs-quadrature[{tag}]",
            [
                (d.cdf(x), integrate(d.pdf, 0.0, x, tol=inner, breakpoints=[a]).value)
                for x in xs
            ],
            QUAD_TOL,
            ops=("maxuexp.cdf",),
        )
    )
    checks.append(
        check_value(
            f"maxuexp-hazard-identity[{tag}]",
            [(d.hazard(x), d.pdf(x) / (1.0 - d.cdf(x))) for x in xs],
            1e-12,
            ops=("maxuexp.hazard",),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"maxuexp-quantile-roundtrip[{tag}]",
            [(d.cdf(d.quantile(q)), q) for q in (0.05, 0.3, 0.6, d.cdf(a), 0.99)],
            1e-9,
            ops=("maxuexp.quantile",),
        )
    )
    checks.append(
        check_value(
            f"maxuexp-moment-vs-quadrature[{tag}]",
            [(d.moment(k), _expect(d, lambda x, k=k: x**k, inner)) for k in (0.5, 1.0, 2.0, 3.0)]
            + [(d.mean(), d.moment(1.0))],
            QUAD_TOL,
            ops=("maxuexp.moment", "maxuexp.mean"),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"maxuexp-variance-vs-quadrature[{tag}]",
            [(d.variance(), _variance_quad(d))],
            QUAD_TOL,
            ops=("maxuexp.variance",),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"maxuexp-neg-moment-vs-quadrature[{tag}]",
            [(d.neg_moment(q), _expect(d, lambda x, q=q: x**-q, 1e-11)) for q in (0.25, 0.5, 0.75)],
            QUAD_TOL,
            ops=("maxuexp.neg_moment",),
            relative=True,
        )
    )
    # Mellin route: E(X^-q) = (1/Gamma(q)) * integral of t^(q-1) lst(t), an
    # integral in t, not x.  Its q >= 1 points reach the orders 1 - q <= 0
    # that the moment kernel takes from a continued fraction.
    checks.append(
        check_value(
            f"maxuexp-neg-moment-mellin[{tag}]",
            [
                (
                    d.neg_moment(q),
                    integrate(
                        lambda t, q=q: t ** (q - 1.0) * d.lst(t), 0.0, math.inf, tol=1e-11
                    ).value
                    / math.exp(math.lgamma(q)),
                )
                for q in (0.5, 1.0, 1.5)
            ],
            1e-7,
            ops=("maxuexp.neg_moment", "maxuexp.lst"),
            relative=True,
            detail="transform-identity route",
        )
    )
    checks.append(
        check_value(
            f"maxuexp-lst-vs-quadrature[{tag}]",
            [
                (d.lst(t), _tilted_quad(d, t, 0.0))
                for t in (0.5, 1.0, 2.0)
            ]
            + [(d.lst(1e-9), 1.0)],
            1e-6,
            ops=("maxuexp.lst",),
        )
    )
    checks.append(
        check_value(
            f"maxuexp-tilted-vs-quadrature[{tag}]",
            [
                (d.tilted_moment(m, n), _tilted_quad(d, m, float(n)))
                for (m, n) in ((1.0, 0), (1.0, 1), (0.7, 2), (2.0, 5), (1e-4, 1))
            ],
            QUAD_TOL,
            ops=("maxuexp.tilted_moment",),
            relative=True,
        )
    )
    c = 2.5
    dc = d.scaled(c)
    checks.append(
        check_value(
            f"maxuexp-scaling-identity[{tag}]",
            [(dc.cdf(c * x), d.cdf(x)) for x in xs]
            + [(dc.quantile(0.4), c * d.quantile(0.4))],
            1e-9,
            ops=("maxuexp.scaled",),
        )
    )
    checks.append(
        check_mc(
            f"maxuexp-sample-mean[{tag}]",
            d.sample_many(RandomStream(seed + 1), mc_draws),
            d.mean(),
            ops=("maxuexp.sample",),
            cdf=d.cdf,
            cdf_points=(0.5 * d.mean(), d.mean(), a + 1.0 / lam),
        )
    )
    draws = d.sample_many(RandomStream(seed + 2), mc_draws)
    checks.append(check_ks(f"maxuexp-sample-ks[{tag}]", draws, d.cdf, ("maxuexp.sample",)))
    return checks


def _waiting_checks(a: float, lam: float, seed: int, mc_draws: int):
    w = ExpMaxUExp(a, lam)
    d = w.xi
    tag = f"a={a:g},lam={lam:g}"
    checks: list[CheckResult] = []

    checks.append(
        check_density(
            f"emue-pdf-mass[{tag}]", w.pdf, (0.0, math.inf), 1e-6, ops=("waiting.emue_pdf",)
        )
    )
    checks.append(
        check_value(
            f"emue-cdf-vs-quadrature[{tag}]",
            [
                (w.cdf(t), integrate(w.pdf, 0.0, t, tol=1e-12).value)
                for t in (0.1, 0.5, 1.0, 2.0, 5.0)
            ],
            QUAD_TOL,
            ops=("waiting.emue_cdf",),
        )
    )
    checks.append(
        check_value(
            f"emue-tail-index[{tag}]",
            [(1e6 * (1.0 - w.cdf(1e3)), 2.0 * lam / a)],
            0.05,
            ops=("waiting.emue_cdf",),
            relative=True,
            detail="t^2 tail mass vs 2*lam/a at t=1e3",
        )
    )
    checks.append(
        check_value(
            f"emue-moment-vs-quadrature[{tag}]",
            [
                (
                    w.moment(q),
                    integrate(lambda t, q=q: t**q * w.pdf(t), 0.0, math.inf, tol=1e-11).value,
                )
                for q in (0.5, 1.0, 1.5)
            ],
            1e-7,
            ops=("waiting.emue_moment",),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"emue-joint-marginals[{tag}]",
            [(_quad(lambda x, t=t: w.joint_pdf(t, x), a, 1e-12), w.pdf(t)) for t in (0.5, 2.0)]
            + [
                (
                    integrate(lambda t, x=x: w.joint_pdf(t, x), 0.0, math.inf, tol=1e-12).value,
                    d.pdf(x),
                )
                for x in (0.4 * a, 0.9 * a)
            ],
            QUAD_TOL,
            ops=("waiting.joint_pdf",),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"emue-conditional-mass[{tag}]",
            [
                (_quad(lambda x, t=t: w.conditional_mixing_pdf(t, x), a, 1e-10), 1.0)
                for t in (0.5, 2.0)
            ],
            QUAD_TOL,
            ops=("waiting.conditional_mixing_pdf",),
        )
    )
    regress_pairs = []
    for t in (0.5, 1.0, 2.0):
        num = _tilted_quad(d, t, 2.0)
        den = _tilted_quad(d, t, 1.0)
        regress_pairs.append((w.mean_mixing_given_arrival(t), num / den))
    regress_pairs.append(
        (w.mean_mixing_given_arrival(1e-6) * d.mean(), d.moment(2.0))
    )
    checks.append(
        check_value(
            f"emue-regress-mixing[{tag}]",
            regress_pairs,
            1e-5,
            ops=("waiting.mean_mixing_given_arrival",),
            relative=True,
            detail="tilted-ratio vs quadrature, small-t limit E(X^2)/E(X)",
        )
    )
    checks.append(
        check_value(
            f"emue-regress-arrival[{tag}]",
            [
                (
                    w.mean_arrival_given_mixing(x),
                    integrate(lambda t, x=x: t * x * math.exp(-t * x), 0.0, math.inf, tol=1e-12).value,
                )
                for x in (0.5, 2.0)
            ],
            1e-9,
            ops=("waiting.mean_arrival_given_mixing",),
            relative=True,
        )
    )
    joint_pairs = [
        (w.joint_interarrival_pdf([0.7]), w.pdf(0.7)),
        (w.joint_interarrival_pdf([0.3, 0.9]), w.joint_interarrival_pdf([0.9, 0.3])),
        (
            integrate(lambda s: w.joint_interarrival_pdf([0.6, s]), 0.0, math.inf, tol=1e-11).value,
            w.pdf(0.6),
        ),
        (
            w.joint_interarrival_pdf([0.4, 0.3, 0.3]),
            _tilted_quad(d, 1.0, 3.0),
        ),
    ]
    checks.append(
        check_value(
            f"emue-joint-interarrival[{tag}]",
            joint_pairs,
            1e-7,
            ops=("waiting.joint_interarrival_pdf",),
            relative=True,
            detail="reduction, symmetry, marginalization, mixture integral",
        )
    )
    for n in (1, 2, 3):
        checks.append(
            check_density(
                f"erlang-pdf-mass-n{n}[{tag}]",
                ErlangMaxUExp(n, a, lam).pdf,
                (0.0, math.inf),
                1e-6,
                ops=("waiting.erlang_pdf",),
            )
        )
    e1 = ErlangMaxUExp(1, a, lam)
    e2 = ErlangMaxUExp(2, a, lam)
    checks.append(
        check_value(
            f"erlang-first-order-reduction[{tag}]",
            [(e1.pdf(t), _tilted_quad(d, t, 1.0)) for t in (0.3, 1.0, 2.5)],
            1e-12,
            ops=("waiting.erlang_pdf",),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"erlang-pdf-mixture[{tag}]",
            [
                (e2.pdf(1.0), 1.0 * _tilted_quad(d, 1.0, 2.0)),
                (
                    ErlangMaxUExp(3, a, lam).pdf(0.8),
                    0.8**2 / 2.0 * _tilted_quad(d, 0.8, 3.0),
                ),
            ],
            QUAD_TOL,
            ops=("waiting.erlang_pdf",),
            relative=True,
        )
    )
    checks.append(
        check_value(
            f"erlang-cdf-mass-split[{tag}]",
            [
                (e2.cdf(5.0) + integrate(e2.pdf, 5.0, math.inf, tol=1e-12).value, 1.0),
                (e2.cdf(1e4), 1.0 - integrate(e2.pdf, 1e4, math.inf, tol=1e-12).value),
            ],
            QUAD_TOL,
            ops=("waiting.erlang_cdf",),
            detail="finite piece plus complementary tail",
        )
    )
    checks.append(
        check_value(
            f"erlang-moment-vs-quadrature[{tag}]",
            [
                (
                    e2.moment(q),
                    integrate(lambda t, q=q: t**q * e2.pdf(t), 0.0, math.inf, tol=1e-10).value,
                )
                for q in (0.5, 1.0)
            ],
            1e-6,
            ops=("waiting.erlang_moment",),
            relative=True,
        )
    )
    tau_draws = w.sample_many(RandomStream(seed + 3), max(mc_draws // 2, 1000))
    checks.append(check_ks(f"emue-sample-ks[{tag}]", tau_draws, w.cdf, ("waiting.emue_sample",)))
    scale = 1.0 / d.mean()
    checks.append(
        check_quantiles(
            f"erlang-sample-quantiles[{tag}]",
            e2.sample_many(RandomStream(seed + 4), max(mc_draws // 4, 1000)),
            e2.cdf,
            (0.8 * scale, 2.0 * scale, 4.0 * scale),
            "requested",
            ("waiting.erlang_sample", "waiting.erlang_cdf"),
        )
    )
    return checks


def _process_checks(a: float, lam: float, seed: int, paths: int):
    d = MaxUExp(a, lam)
    pp = MixedPoissonMaxUExp(d)
    tag = f"a={a:g},lam={lam:g}"
    checks: list[CheckResult] = []

    # One pmf table per clock value, up to its 1e-12 cutoff, serves the
    # mass, quadrature, tail-bound and mean/variance checks below.
    tables = {
        m: [pp.pmf(m, n) for n in range(pp.truncation_point(m, tail=1e-12) + 1)]
        for m in (0.5, 1.0, 2.0)
    }
    checks.append(
        check_value(
            f"pmf-total-mass[{tag}]",
            [(math.fsum(p[: pp.truncation_point(m, tail=1e-10) + 1]), 1.0) for m, p in tables.items()],
            QUAD_TOL,
            ops=("process.pmf", "process.truncation_point"),
        )
    )

    def pmf_oracle(m: float, n: int) -> float:
        return _expect(
            d,
            lambda x: math.exp(n * math.log(m * x) - m * x - math.lgamma(n + 1)) if x > 0 else 0.0,
            1e-13,
        )

    checks.append(
        check_value(
            f"pmf-vs-quadrature[{tag}]",
            [(tables[1.0][n], pmf_oracle(1.0, n)) for n in range(11)],
            QUAD_TOL,
            ops=("process.pmf",),
            relative=True,
        )
    )
    all_pmf = tables[1.0]
    bound_ok = True
    worst_gap = -math.inf
    for kk in (5, 10, 20):
        actual_tail = max(0.0, 1.0 - math.fsum(all_pmf[:kk]))
        gap = actual_tail - pp.pmf_upper_tail_bound(1.0, kk)
        worst_gap = max(worst_gap, gap)
        bound_ok = bound_ok and gap <= 1e-12
    checks.append(
        CheckResult(
            name=f"pmf-tail-bound-valid[{tag}]",
            passed=bound_ok,
            value=worst_gap,
            target=0.0,
            tol=1e-12,
            detail="actual tail minus bound must stay <= 0",
            ops=("process.pmf_upper_tail_bound",),
        )
    )
    mv_pairs = []
    for m, probs in ((1.0, all_pmf), (2.0, tables[2.0])):
        s1 = math.fsum(n * p for n, p in enumerate(probs))
        s2 = math.fsum(n * n * p for n, p in enumerate(probs))
        mean, var = pp.mean_variance(m)
        mv_pairs.append((mean, s1))
        mv_pairs.append((var, s2 - s1 * s1))
    checks.append(
        check_value(
            f"meanvar-vs-series[{tag}]",
            mv_pairs,
            QUAD_TOL,
            ops=("process.mean_variance",),
            relative=True,
        )
    )
    over = all(
        var > mean
        for aa in (0.5, 1.0, 2.0, 5.0)
        for ll in (0.5, 1.0, 2.0, 5.0)
        for m in (0.5, 1.0, 2.0)
        for mean, var in (MixedPoissonMaxUExp(MaxUExp(aa, ll)).mean_variance(m),)
    )
    checks.append(
        check_flag(
            f"overdispersion-strict[{tag}]",
            over,
            "variance > mean on the parameter grid",
            ("process.mean_variance",),
        )
    )
    pgf_pairs = [
        (pp.pgf(1.0, z), _tilted_quad(d, 1.0 * (1.0 - z), 0.0)) for z in (-0.5, 0.3, 0.9)
    ]
    pgf_pairs.append((pp.pgf(1.0, 1.0 - 1e-8), 1.0))
    pgf_pairs.append(((pp.pgf(1.0, 1e-4) - pp.pgf(1.0, -1e-4)) / 2e-4, pp.pmf(1.0, 1)))
    checks.append(
        check_value(
            f"pgf-vs-quadrature[{tag}]",
            pgf_pairs,
            1e-6,
            ops=("process.pgf",),
            detail="transform identity, z->1 limit, derivative extracts pmf(1)",
        )
    )
    post_cases = ((1.0, 0), (1.0, 3), (2.0, 5))
    checks.append(
        check_value(
            f"posterior-mass[{tag}]",
            [
                (_quad(lambda x, m=m, n=n: pp.posterior_pdf(m, n, x), a, 1e-11), 1.0)
                for (m, n) in post_cases
            ],
            QUAD_TOL,
            ops=("process.posterior_pdf",),
        )
    )
    post_pairs = [
        (
            pp.posterior_mean(m, n),
            _quad(lambda x, m=m, n=n: x * pp.posterior_pdf(m, n, x), a, 1e-11),
        )
        for (m, n) in post_cases
    ]
    tower = math.fsum(pp.posterior_mean(1.0, n) * p for n, p in enumerate(all_pmf))
    post_pairs.append((tower, d.mean()))
    checks.append(
        check_value(
            f"posterior-mean-vs-quadrature[{tag}]",
            post_pairs,
            1e-6,
            ops=("process.posterior_mean",),
            relative=True,
            detail="quadrature ratio plus tower property",
        )
    )
    mono = all(
        pp.posterior_mean(1.0, n + 1) > pp.posterior_mean(1.0, n) for n in range(10)
    )
    checks.append(
        check_flag(
            f"posterior-mean-monotone[{tag}]",
            mono,
            "E(xi | N=n) increases with n",
            ("process.posterior_mean",),
        )
    )
    fact_pairs = []
    for k in (1, 2, 3):
        series = math.fsum(
            math.exp(math.lgamma(n + 1) - math.lgamma(n - k + 1)) * all_pmf[n]
            for n in range(k, len(all_pmf))
        )
        fact_pairs.append((pp.factorial_moment(1.0, k), series))
    checks.append(
        check_value(
            f"factorial-moment-vs-series[{tag}]",
            fact_pairs,
            1e-6,
            ops=("process.factorial_moment",),
            relative=True,
        )
    )
    ordered_pairs = [
        (pp.ordered_pmf([1.0], [0]), pp.pmf(1.0, 0)),
        (pp.ordered_pmf([0.7], [3]), pp.pmf(0.7, 3)),
        (pp.ordered_pmf([0.5, 1.5], [2, 1]), 0.0),
    ]
    for k1 in (0, 2):
        top = k1 + 60
        sigma = math.fsum(pp.ordered_pmf([0.6, 1.4], [k1, k2]) for k2 in range(k1, top))
        ordered_pairs.append((sigma, pp.pmf(0.6, k1)))
    checks.append(
        check_value(
            f"ordered-pmf-identities[{tag}]",
            ordered_pairs,
            QUAD_TOL,
            ops=("process.ordered_pmf",),
            detail="single-time reduction, non-monotone zero, marginalization",
        )
    )
    rng = np.random.default_rng(seed)
    inc_dev = 0.0
    round_ok = True
    for _ in range(20):
        r = int(rng.integers(1, 5))
        mus = np.cumsum(rng.uniform(0.2, 1.0, size=r)).tolist()
        ms = [int(v) for v in rng.integers(0, 4, size=r)]
        inc_dev = max(
            inc_dev, abs(pp.increments_pmf(mus, ms) - pp.ordered_pmf(mus, to_cumulative(ms)))
        )
        round_ok = round_ok and to_increments(to_cumulative(ms)) == ms
    checks.append(
        CheckResult(
            name=f"increments-ordered-consistency[{tag}]",
            passed=(inc_dev == 0.0) and round_ok,
            value=inc_dev,
            target=0.0,
            tol=0.0,
            detail="cumulative-sum remap is exact; vector maps round-trip",
            ops=("process.increments_pmf", "process.to_increments", "process.to_cumulative"),
        )
    )
    cond_pairs = [(math.fsum(conditional_binomial_pmf(4, 1.0, 2.0, j) for j in range(5)), 1.0)]
    for j in range(5):
        cond_pairs.append(
            (
                conditional_binomial_pmf(4, 1.0, 2.0, j),
                pp.ordered_pmf([1.0, 2.0], [j, 4]) / pp.pmf(2.0, 4),
            )
        )
    checks.append(
        check_value(
            f"conditional-binomial-vs-ordered[{tag}]",
            cond_pairs,
            QUAD_TOL,
            ops=("process.conditional_binomial_pmf",),
        )
    )
    pw = PowerTransform(1.7)
    table = TableTransform([(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)])
    tt_pairs = [(pw.inverse(pw.value(t)), t) for t in (0.3, 2.0, 9.0)]
    tt_pairs += [(table.value(2.0), 3.0), (table.inverse(3.0), 2.0)]
    checks.append(
        check_value(
            f"time-transform-roundtrip[{tag}]",
            tt_pairs,
            1e-10,
            ops=("process.time_transform",),
        )
    )

    sim = pp.simulate_paths(PowerTransform(1.0), 2.0, paths, seed + 5)
    shape_ok = True
    for path in sim[:200]:
        ev = path.events
        shape_ok = shape_ok and all(b > a2 for a2, b in zip(ev[:-1], ev[1:]))
        shape_ok = shape_ok and all(0.0 < e <= path.horizon for e in ev)
        shape_ok = shape_ok and path.count_at(2.0) == len(ev)
    checks.append(
        check_flag(
            f"path-shape[{tag}]",
            shape_ok,
            "events strictly ascending, within horizon, count_at consistent",
            ("process.simulate_path",),
        )
    )
    p0_hat = np.count_nonzero(sim.counts_at(1.0) == 0) / len(sim)
    p0 = pp.pmf(1.0, 0)
    z0 = abs(p0_hat - p0) / math.sqrt(p0 * (1.0 - p0) / len(sim))
    mean2, _, se2 = _mean_se(sim.counts_at(2.0).astype(float))
    z2 = _z_score(mean2, pp.mean_variance(2.0)[0], se2)
    checks.append(
        CheckResult(
            name=f"path-count-law[{tag}]",
            passed=(z0 <= 3.0) and (z2 <= 4.0),
            value=max(z0, z2),
            target=4.0,
            tol=4.0,
            detail=f"P(N(1)=0) z={z0:.2f} (3-sigma gate), E N(2) z={z2:.2f} (4-sigma gate)",
            ops=("process.simulate_path",),
        )
    )
    return checks


def run_checks(
    seed: int = 20260814, mc_draws: int = 200_000, paths: int = 10_000
) -> list[CheckResult]:
    """The full oracle battery plus the coverage audit.  Both budgets are
    at least 2: a standard error needs two draws."""
    mc_draws = _require_count("mc_draws", mc_draws, lo=2)
    paths = _require_count("paths", paths, lo=2)
    checks: list[CheckResult] = []
    for i, (a, lam) in enumerate(_PARAM_POINTS):
        checks.extend(_distribution_checks(a, lam, seed + 100 * i, mc_draws))
        checks.extend(_waiting_checks(a, lam, seed + 100 * i + 10, mc_draws))
    a, lam = _PARAM_POINTS[0]
    checks.extend(_process_checks(a, lam, seed + 50, paths))
    covered = set()
    for c in checks:
        covered.update(c.ops)
    missing = sorted(REQUIRED_OPS - covered)
    checks.append(
        CheckResult(
            name="coverage-registry",
            passed=not missing,
            value=float(len(missing)),
            target=0.0,
            tol=0.0,
            detail="uncovered: " + ", ".join(missing) if missing else "all operations vouched for",
            ops=(),
        )
    )
    return checks


# -- discrepancy ledger -----------------------------------------------------------


@dataclass
class DiscrepancyRecord:
    formula_id: str
    params: str
    paper_literal: float
    corrected: float
    oracle: float
    abs_dev_literal: float
    abs_dev_corrected: float
    verdict: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _point_verdict(dev_literal: float, dev_corrected: float, tol: float) -> str:
    if dev_literal <= tol:
        return "paper_ok"
    if dev_corrected <= tol and dev_literal > 10.0 * tol:
        return "corrected_adopted"
    return "unresolved"


def _ledger_entry(formula_id: str, points: list[tuple[str, float, float, float, float]]):
    """Combine per-point evaluations; a verdict that flips across points is
    downgraded to unresolved.  The emitted numbers come from the first
    (most discriminating) point."""
    verdicts = []
    for _, literal, corrected, oracle, tol in points:
        verdicts.append(
            _point_verdict(abs(literal - oracle), abs(corrected - oracle), tol)
        )
    verdict = verdicts[0] if len(set(verdicts)) == 1 else "unresolved"
    params, literal, corrected, oracle, _ = points[0]
    return DiscrepancyRecord(
        formula_id=formula_id,
        params=params,
        paper_literal=literal,
        corrected=corrected,
        oracle=oracle,
        abs_dev_literal=abs(literal - oracle),
        abs_dev_corrected=abs(corrected - oracle),
        verdict=verdict,
    )


def _literal_lst(d: MaxUExp, t: float) -> float:
    # First term carries e^(-lam*a) where the corrected form has e^(-t*a).
    a, lam = d.a, d.lam
    s = lam + t
    return (-math.expm1(-lam * a)) / (a * t) + t * math.expm1(-s * a) / (a * s * s)


def _literal_variance(d: MaxUExp) -> float:
    # Final squared term enters with a plus sign instead of minus.
    a, lam = d.a, d.lam
    w = -math.expm1(-a * lam)
    return (
        a * a / 12.0
        - (1.0 + math.exp(-a * lam)) / lam**2
        + 4.0 * w / (a * lam**3)
        + w * w / (a * lam * lam) ** 2
    )


def _literal_recip_moment(d: MaxUExp, q: float) -> float:
    # The (lam*a)^(1-q) e^(-lam*a) term enters with a plus sign.
    a, lam = d.a, d.lam
    al = a * lam
    return 1.0 / (a**q * (1.0 - q)) + (lam ** (q - 1.0) / a) * (
        (q + al) * gamma_upper(1.0 - q, al)
        + al ** (1.0 - q) * math.exp(-al)
        - q * math.exp(math.lgamma(1.0 - q))
    )


def _literal_pgf(d: MaxUExp, m: float, z: float) -> float:
    # First term lacks any z dependence in its exponential.
    a, lam = d.a, d.lam
    v = m * (1.0 - z)
    s = lam + v
    esa = math.exp(-s * a)
    term1 = (-math.expm1(-lam * a)) / (a * v)
    term2 = -(1.0 - esa - lam * a * esa) / (a * s)
    term3 = lam * (1.0 - esa - s * a * esa) / (a * s * s)
    return term1 + term2 + term3


def _literal_regression(d: MaxUExp, t: float) -> float:
    # Mean of the mixing rate given an inter-arrival of t, as printed.
    a, lam = d.a, d.lam
    s = lam + t
    num = math.exp(-a * t) * (
        2.0 * math.exp(a * t) * (1.0 - 6.0 * lam * t**3)
        - (a * t + 1.0) ** 2
        - 1.0
        + math.exp(-a * lam)
        * t**3
        * ((a * s + 1.0) ** 2 + lam * a * a * s - 4.0 * a * lam + 1.0)
    )
    den = (
        t * s**3 * (1.0 - math.exp(-a * t) - a * t * lam * math.exp(-a * t))
        + t**3 * (lam - t) * (-math.expm1(-a * s))
        + a * s * t**4 * math.exp(-a * s)
    )
    return num / den


def _literal_conditional_density(d: MaxUExp, t: float, x: float) -> float:
    # Denominator's first brace multiplies the a*t*e^(-a*t) piece by lam.
    a, lam = d.a, d.lam
    s = lam + t
    den = (
        s**3 * (1.0 - math.exp(-a * t) - a * t * lam * math.exp(-a * t))
        + t * t * (lam - t) * (-math.expm1(-a * s))
        + a * s * t**3 * math.exp(-a * s)
    )
    if x <= 0.0:
        return 0.0
    if x <= a:
        z = lam * x
        num = x * t * t * s**3 * math.exp(-t * x) * (-math.expm1(-z) + z * math.exp(-z))
        return num / den
    return a * lam * x * t * t * s**3 * math.exp(-s * x) / den


def _literal_posterior_pdf(pp: MixedPoissonMaxUExp, m: float, n: int, x: float) -> float:
    # Carries one extra factor of m, and the tail exponent reads m - lam
    # instead of m + lam.
    d = pp.xi
    a, lam = d.a, d.lam
    s = lam + m
    den = (
        gamma_lower(n + 1.0, a * m) / m
        + m**n * gamma_lower(n + 1.0, a * s) * (n * lam - m) / s ** (n + 2.0)
        + (n * a * lam * m**n * gamma_upper(float(n), a * s) / s ** (n + 1.0) if n > 0 else 0.0)
    )
    if x <= 0.0:
        return 0.0
    if x <= a:
        z = lam * x
        num = m ** (n + 1.0) * x**n * math.exp(-m * x) * (-math.expm1(-z) + z * math.exp(-z))
        return num / den
    return a * m ** (n + 1.0) * x**n * lam * math.exp(-x * (m - lam)) / den


def run_ledger(mc_draws: int = 200_000, seed: int = 7_654_321) -> list[DiscrepancyRecord]:
    """Evaluate every recorded formula discrepancy at two parameter points,
    with at least 2 Monte Carlo draws: a standard error needs two."""
    mc_draws = _require_count("mc_draws", mc_draws, lo=2)
    tol = QUAD_TOL
    records: list[DiscrepancyRecord] = []

    # Transform of the mixing law: literal vs corrected first term.
    points = []
    for a, lam, t in ((2.0, 0.5, 1.0), (1.0, 2.0, 1.0)):
        d = MaxUExp(a, lam)
        oracle = _tilted_quad(d, t, 0.0)
        points.append(
            (f"a={a:g}, lambda={lam:g}, t={t:g}", _literal_lst(d, t), d.lst(t), oracle, tol)
        )
    records.append(_ledger_entry("lst-first-term", points))

    # Count variance: sign of the final squared term.
    points = []
    for a, lam in ((2.0, 0.5), (1.0, 1.0)):
        d = MaxUExp(a, lam)
        points.append(
            (f"a={a:g}, lambda={lam:g}", _literal_variance(d), d.variance(), _variance_quad(d), 1e-10)
        )
    records.append(_ledger_entry("count-variance-sign", points))

    # Arrival-time moments: spurious lam^(-p) factor (invisible at lam=1).
    points = []
    for i, (a, lam, n, p) in enumerate(((1.0, 2.0, 1, 0.5), (2.0, 0.5, 2, 0.5))):
        e = ErlangMaxUExp(n, a, lam)
        corrected = e.moment(p)
        literal = corrected * lam ** (-p)
        mc_mean, _, se = _mean_se(e.sample_many(RandomStream(seed + i), mc_draws) ** p)
        # Floor keeps the verdict seed-stable; the literal deviates by O(1).
        mc_tol = max(4.0 * se, 0.02)
        points.append(
            (
                f"a={a:g}, lambda={lam:g}, n={n}, p={p:g}",
                literal,
                corrected,
                mc_mean,
                mc_tol,
            )
        )
    records.append(_ledger_entry("arrival-moment-rate-factor", points))

    # Generating function of the counts: literal three-term expansion.  The
    # second point keeps m(1-z) away from lam, where the forms coincide.
    points = []
    for a, lam, m, z in ((1.0, 1.0, 1.0, 0.5), (2.0, 0.5, 2.0, 0.5)):
        d = MaxUExp(a, lam)
        pp = MixedPoissonMaxUExp(d)
        oracle = _tilted_quad(d, m * (1.0 - z), 0.0)
        points.append(
            (
                f"a={a:g}, lambda={lam:g}, m={m:g}, z={z:g}",
                _literal_pgf(d, m, z),
                pp.pgf(m, z),
                oracle,
                tol,
            )
        )
    records.append(_ledger_entry("pgf-literal-terms", points))

    # Mean mixing rate given an inter-arrival time: literal closed form.
    points = []
    for a, lam in ((1.0, 1.0), (2.0, 0.5)):
        d = MaxUExp(a, lam)
        w = ExpMaxUExp(a, lam)
        t = 1.0
        oracle = _tilted_quad(d, t, 2.0) / _tilted_quad(d, t, 1.0)
        points.append(
            (
                f"a={a:g}, lambda={lam:g}, t={t:g}",
                _literal_regression(d, t),
                w.mean_mixing_given_arrival(t),
                oracle,
                tol,
            )
        )
    records.append(_ledger_entry("regression-mixing-on-arrival", points))

    # Reciprocal moments of the mixing law: sign of the e^(-lam*a) term.
    points = []
    for a, lam in ((1.0, 1.0), (2.0, 0.5)):
        d = MaxUExp(a, lam)
        q = 0.5
        oracle = _expect(d, lambda x: x**-q, 1e-11)
        points.append(
            (
                f"a={a:g}, lambda={lam:g}, q={q:g}",
                _literal_recip_moment(d, q),
                d.neg_moment(q),
                oracle,
                tol,
            )
        )
    records.append(_ledger_entry("reciprocal-moment-sign", points))

    # Conditional mixing density: spurious lam in the normalizer (invisible
    # at lam=1).
    points = []
    for a, lam in ((1.0, 2.0), (2.0, 0.5)):
        d = MaxUExp(a, lam)
        w = ExpMaxUExp(a, lam)
        t, x = 1.0, 0.5
        oracle = w.joint_pdf(t, x) / _tilted_quad(d, t, 1.0)
        points.append(
            (
                f"a={a:g}, lambda={lam:g}, t={t:g}, x={x:g}",
                _literal_conditional_density(d, t, x),
                w.conditional_mixing_pdf(t, x),
                oracle,
                tol,
            )
        )
    records.append(_ledger_entry("conditional-density-factor", points))

    # Posterior mixing density: total mass (extra m factor and flipped tail
    # exponent make the literal variant integrate far from 1).
    points = []
    for a, lam, m, n in ((1.0, 1.0, 2.0, 1), (2.0, 0.5, 1.5, 2)):
        pp = MixedPoissonMaxUExp(MaxUExp(a, lam))
        literal_mass = _quad(lambda x: _literal_posterior_pdf(pp, m, n, x), a, 1e-10)
        corrected_mass = _quad(lambda x: pp.posterior_pdf(m, n, x), a, 1e-10)
        points.append(
            (f"a={a:g}, lambda={lam:g}, m={m:g}, n={n}", literal_mass, corrected_mass, 1.0, 1e-6)
        )
    records.append(_ledger_entry("posterior-density-scale", points))

    # First-power inter-arrival moment: claimed divergent, measured finite.
    points = []
    for i, (a, lam) in enumerate(((1.0, 1.0), (2.0, 0.5))):
        w = ExpMaxUExp(a, lam)
        draws = w.sample_many(RandomStream(seed + 10 + i), 2 * mc_draws)
        mc_mean, _, se = _mean_se(draws)
        # The inter-arrival law has a finite mean but infinite variance, so
        # the empirical standard error understates the fluctuation; a 5%
        # absolute floor still separates "finite" from "divergent" cleanly.
        mc_tol = max(4.0 * se, 0.05)
        points.append(
            (
                f"a={a:g}, lambda={lam:g}, p=1",
                math.inf,
                w.moment(1.0),
                mc_mean,
                mc_tol,
            )
        )
    records.append(_ledger_entry("interarrival-mean-finite", points))

    return records


def write_ledger(path: str, records: Sequence[DiscrepancyRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in records], fh, indent=2)
        fh.write("\n")
