import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmue import (
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
    MaxUExp,
    MaxUExpEstimator,
    NumericError,
    RandomStream,
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
from mpmue import estimation
from mpmue.estimation import empirical_moments, validate_sample


def test_validate_sample():
    out = validate_sample([3.0, 1.0, 2.0])
    assert list(out) == [1.0, 2.0, 3.0]
    with pytest.raises(InsufficientDataError):
        validate_sample([])
    for bad in ([1.0, -2.0], [1.0, 0.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(DomainError):
            validate_sample(bad)


def test_empirical_moments_two_point():
    m1, m2, sq = empirical_moments([1.0, 3.0])
    assert m1 == 2.0
    assert m2 == 5.0
    # Unbiased estimate of the squared mean: (n m1^2 - m2)/(n - 1).
    assert sq == pytest.approx(3.0)
    with pytest.raises(InsufficientDataError):
        empirical_moments([1.0])


def test_ratio_stat_variants():
    c = 3.0
    vals = [1.0, c]
    assert ratio_stat(vals, variant="plain") == pytest.approx(
        ((1.0 + c * c) / 2.0) / ((1.0 + c) / 2.0) ** 2
    )
    assert ratio_stat(vals, variant="unbiased") == pytest.approx((1.0 + c * c) / (2.0 * c))
    with pytest.raises(DomainError):
        ratio_stat(vals, variant="median")


@given(scale=st.floats(0.1, 50.0))
@settings(max_examples=60, deadline=None)
def test_ratio_stat_scale_free(scale):
    base = np.array([0.4, 1.1, 2.3, 0.9, 1.7])
    for variant in ("plain", "unbiased"):
        assert ratio_stat(base * scale, variant) == pytest.approx(
            ratio_stat(base, variant), rel=1e-12
        )


def test_mom_curve_limits_and_extrema():
    x43, argmin, gmin = mom_curve_extrema()
    assert x43 == pytest.approx(2.1738234, abs=1e-6)
    # The root of g' from 40-digit mpmath.
    assert argmin == pytest.approx(4.023167173887866, abs=1e-12)
    assert gmin == pytest.approx(1.2452328, abs=1e-6)
    assert mom_curve(x43) == pytest.approx(4.0 / 3.0, abs=1e-11)
    assert mom_curve(1.0) == pytest.approx(1.6587827, abs=1e-6)
    # Exponential limit at 0, uniform-plus-tail limit 4/3 far out.
    assert mom_curve(1e-8) == pytest.approx(2.0, abs=1e-8)
    assert mom_curve(200.0) == pytest.approx(4.0 / 3.0, abs=0.03)
    with pytest.raises(DomainError):
        mom_curve(0.0)
    with pytest.raises(DomainError):
        mom_curve(-1.0)


def test_mom_curve_stays_finite_where_x4_overflows():
    # x^4 leaves the double range past 1.5e77 and x**3 past 5.6e102; g(x)
    # rounds to 4/3 long before.  Below that the closed form is untouched.
    for x in (1.53e77, 1e80, 1e102, 1e200, 1.7e308):
        assert mom_curve(x) == 4.0 / 3.0
    x = 1.5e77
    root = x * x / 2.0 - math.expm1(-x)
    assert mom_curve(x) == x * (x**3 / 3.0 + 4.0 - 2.0 * math.exp(-x) * (x + 2.0)) / (root * root)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_sample_moments_past_the_double_range_raise(scale):
    # The squares of the sample overflow (or underflow), so m2 is no double.
    sample = [scale, 2.0 * scale, 1.5 * scale]
    for f in (empirical_moments, ratio_stat, solve_mom, fit_auto):
        with pytest.raises(NumericError):
            f(sample)


def test_mom_curve_series_handover():
    # The genuine slope contributes ~2.7e-9 over this gap; anything beyond
    # that would be a jump between the series and closed-form routes.
    assert mom_curve(0.000999) == pytest.approx(mom_curve(0.001001), abs=1e-8)


@given(x=st.floats(1e-6, 100.0))
@settings(max_examples=200, deadline=None)
def test_mom_curve_range(x):
    _, _, gmin = mom_curve_extrema()
    g = mom_curve(x)
    assert gmin - 1e-12 <= g < 2.0


def test_mom_curve_matches_population_ratio():
    # g(a lam) equals E(xi^2)/(E xi)^2 for the matching distribution.
    for a, lam in ((1.0, 1.0), (2.0, 0.5), (0.7, 3.0)):
        d = MaxUExp(a, lam)
        want = d.moment(2.0) / d.mean() ** 2
        assert mom_curve(a * lam) == pytest.approx(want, rel=1e-10)


def test_solve_mom_unique_branch_recovers_population():
    # Construct a sample whose first two moments match the population ones
    # exactly; the unique branch then returns the true parameters.
    d = MaxUExp(1.0, 1.0)
    m1, m2 = d.mean(), d.moment(2.0)
    # Two-point sample with prescribed m1 and m2 (plain variant).
    spread = math.sqrt(m2 - m1 * m1)
    vals = [m1 - spread, m1 + spread]
    rep = solve_mom(vals, variant="plain")
    assert rep.branch == "unique"
    assert rep.a == pytest.approx(1.0, rel=1e-6)
    assert rep.lam == pytest.approx(1.0, rel=1e-6)
    assert rep.x_product == pytest.approx(1.0, rel=1e-6)
    assert rep.warnings == []


def test_solve_mom_clamps_exponential_like_ratios():
    rep = solve_mom([1.0, 4.0])  # unbiased ratio 2.125, beyond the family range
    assert rep.branch == "unique"
    assert rep.warnings
    assert rep.x_product < 0.01
    assert rep.r_hat == pytest.approx(2.125)


def test_solve_mom_ambiguous_branch():
    rep = solve_mom([1.0, 2.13066])  # unbiased ratio 1.3, inside the fold
    assert rep.branch == "ambiguous_two_roots"
    assert len(rep.candidates) == 2
    (a1, l1), (a2, l2) = rep.candidates
    assert a1 * l1 < a2 * l2
    # Both candidates reproduce the observed ratio.
    for a, lam in rep.candidates:
        assert mom_curve(a * lam) == pytest.approx(rep.r_hat, abs=1e-9)
    # The report carries the lower root.
    assert rep.x_product == pytest.approx(a1 * l1, rel=1e-12)


def test_solve_mom_fallback_branch():
    rep = solve_mom([1.0, 1.86332])  # unbiased ratio 1.2, below the curve minimum
    assert rep.branch == "fallback_min"
    assert rep.x_product == pytest.approx(4.0231672, abs=1e-4)
    assert rep.warnings


def test_lsq_fit_exact_plotting_positions():
    # Order statistics placed exactly at their plotting positions make the
    # retained-branch model exact, so the fit must return to the truth.
    d = MaxUExp(1.0, 1.0)
    n = 40
    vals = [d.quantile(i / (n + 1)) for i in range(1, n + 1)]
    rep = lsq_fit(vals, (1.3, 0.7), trim=0.4)
    assert rep.branch == "lsq_refined"
    assert rep.a == pytest.approx(1.0, abs=1e-3)
    assert rep.lam == pytest.approx(1.0, abs=1e-3)
    assert rep.objective < 1e-12


def test_lsq_fit_respects_a_floor():
    vals = [0.5, 1.0, 2.0, 4.0]
    rep = lsq_fit(vals, (0.1, 1.0), trim=0.25)
    kept_max = sorted(vals)[2]  # trim drops ceil(0.25*4) = 1 observation
    assert rep.a >= kept_max - 1e-12


def test_lsq_objective_matches_reported():
    d = MaxUExp(2.0, 0.5)
    vals = d.sample_many(RandomStream(3), 200)
    rep = lsq_fit(vals, (2.0, 0.5), trim=0.25)
    assert rep.objective == pytest.approx(lsq_objective(vals, rep.a, rep.lam, 0.25), rel=1e-12)


def test_histogram_init_locates_endpoint():
    draws = MaxUExp(2.0, 1.0).sample_many(RandomStream(8), 5_000)
    a0, lam0 = histogram_init(draws)
    assert 1.5 < a0 < 2.6
    assert 0.4 < lam0 < 2.5
    with pytest.raises(InsufficientDataError):
        histogram_init([1.0, 2.0, 3.0])


def test_exceedance_confidence():
    assert exceedance_confidence(20, 0.11, 5) == pytest.approx(0.9824518, abs=1e-6)
    assert exceedance_confidence(10, 0.2, 10) == 1.0
    with pytest.raises(DomainError):
        exceedance_confidence(0, 0.1, 1)
    with pytest.raises(DomainError):
        exceedance_confidence(10, 1.5, 1)
    with pytest.raises(DomainError):
        exceedance_confidence(10, 0.1, -1)


def test_fit_auto_branches():
    d = MaxUExp(1.0, 1.0)
    rep = fit_auto(d.sample_many(RandomStream(2), 4_000))
    assert rep.branch == "unique"

    d8 = MaxUExp(1.0, 8.0)
    rep8 = fit_auto(d8.sample_many(RandomStream(4), 4_000))
    assert rep8.branch == "lsq_refined"
    assert len(rep8.candidates) == 2
    assert rep8.warnings


def test_fit_auto_tiny_sample_does_not_crash():
    rep = fit_auto([1.0, 2.13066])
    assert rep.branch in ("lsq_refined", "ambiguous_two_roots")
    rep2 = fit_auto([1.0, 1.86332])
    assert rep2.branch in ("lsq_refined", "fallback_min")


def test_estimator_facade(monkeypatch):
    est = MaxUExpEstimator()
    assert est.get_params() == {"method": "auto", "trim": 0.25, "variant": "unbiased"}
    est.set_params(trim=0.3)
    assert est.get_params()["trim"] == 0.3
    with pytest.raises(DomainError):
        est.set_params(bogus=1)

    draws = MaxUExp(1.0, 1.0).sample_many(RandomStream(6), 3_000)
    fitted = MaxUExpEstimator().fit(draws.reshape(-1, 1))
    assert fitted.a_ == pytest.approx(1.0, abs=0.2)
    assert fitted.lambda_ == pytest.approx(1.0, abs=0.2)
    assert fitted.report_.branch in ("unique", "lsq_refined")
    # 1-D input works the same.
    again = MaxUExpEstimator().fit(draws)
    assert again.a_ == fitted.a_

    # Without a moment fit to start from, lsq starts from the histogram.
    def no_moment_fit(x, variant):
        raise DegenerateSampleError("no moment start")

    monkeypatch.setattr(estimation, "_solve_mom", no_moment_fit)
    report = MaxUExpEstimator("lsq").fit(draws).report_
    assert report.params() == lsq_fit(draws, histogram_init(draws)).params()


def test_estimator_rejects_matrix_input():
    with pytest.raises(DomainError):
        MaxUExpEstimator().fit(np.ones((5, 2)))


@pytest.mark.parametrize("n,p,k", [(2000, 0.3, 580), (2000, 0.01, 25), (10**6, 1e-5, 14), (10**6, 0.5, 499_500)])
def test_exceedance_confidence_large_n(n, p, k):
    # Independent reference: the binomial cdf summed term by term in log space.
    logs = [
        math.lgamma(n + 1.0) - math.lgamma(i + 1.0) - math.lgamma(n - i + 1.0)
        + i * math.log(p) + (n - i) * math.log1p(-p)
        for i in range(k + 1)
    ]
    top = max(logs)
    want = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    rel = 1e-14 * math.lgamma(n + 1.0)
    assert exceedance_confidence(n, p, k) == pytest.approx(min(1.0, want), rel=rel)


def test_fit_auto_validates_the_sample_once(monkeypatch):
    calls = []

    def counting(values):
        calls.append(1)
        return validate_sample(values)

    monkeypatch.setattr("mpmue.estimation.validate_sample", counting)
    gen = np.random.Generator(np.random.PCG64(3))
    samples = {
        "unique": MaxUExp(1.0, 1.0).sample_many(RandomStream(2), 4_000),
        "ambiguous": MaxUExp(1.0, 8.0).sample_many(RandomStream(4), 4_000),
        "fallback": gen.uniform(0.5, 1.0, 4_000),
    }
    for name, sample in samples.items():
        calls.clear()
        rep = fit_auto(sample)
        assert len(calls) == 1, name
        if name == "fallback":
            assert rep.candidates and "below the curve minimum" in rep.warnings[0]
    for method, branch in (("mom", "unique"), ("lsq", "lsq_refined")):
        calls.clear()
        est = MaxUExpEstimator(method=method).fit(samples["unique"])
        assert len(calls) == 1, method
        assert est.report_.branch == branch
