import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmue import (
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
from mpmue.estimation import _check_sample, empirical_moments, validate_sample


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
    rep = lsq_fit(vals, trim=0.4)
    assert rep.branch == "lsq_refined"
    assert rep.a == pytest.approx(1.0, abs=1e-3)
    assert rep.lam == pytest.approx(1.0, abs=1e-3)
    assert rep.objective < 1e-12


def test_lsq_fit_respects_a_floor():
    vals = [0.5, 1.0, 2.0, 4.0]
    rep = lsq_fit(vals, trim=0.25)
    kept_max = sorted(vals)[2]  # trim drops ceil(0.25*4) = 1 observation
    assert rep.a >= kept_max - 1e-12


def test_lsq_fit_a_at_its_floor_is_the_largest_retained_observation():
    # The bound binds on a uniform sample; a is clipped, not 1/a, so it is
    # the floor exactly.
    x = np.random.Generator(np.random.PCG64(11)).uniform(0.5, 1.0, 2_000)
    kept_max = np.sort(x)[1_500 - 1]
    assert lsq_fit(x, trim=0.25).a == kept_max


@pytest.mark.parametrize("seed", [1, 2])
def test_lsq_fit_minimises_the_profile(seed):
    # At lam(1 +- 1e-6), each with its best a (the clipped closed form),
    # the objective is no lower than at the fit.
    d = MaxUExp(2.0, 0.5)
    vals = np.sort(d.sample_many(RandomStream(seed), 500))
    rep = lsq_fit(vals, trim=0.25)
    kept = vals[: 500 - 125]
    p = np.arange(1, kept.size + 1) / 501.0
    for lam in (rep.lam * (1.0 - 1e-6), rep.lam * (1.0 + 1e-6)):
        g = kept * -np.expm1(-lam * kept)
        a = max(np.dot(g, g) / np.dot(p, g), kept[-1])
        assert lsq_objective(vals, a, lam, 0.25) >= rep.objective


def test_fit_auto_checks_trim_on_every_branch():
    # The unique branch uses no trim, yet rejects a bad one like the others.
    sample = MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 30)
    assert fit_auto(sample).branch == "unique"
    for trim in (2.0, -0.1, 1.0, math.nan, 10**5000, "0.25"):
        with pytest.raises(DomainError):
            fit_auto(sample, trim=trim)


def test_lsq_objective_matches_reported():
    d = MaxUExp(2.0, 0.5)
    vals = d.sample_many(RandomStream(3), 200)
    rep = lsq_fit(vals, trim=0.25)
    assert rep.objective == pytest.approx(lsq_objective(vals, rep.a, rep.lam, 0.25), rel=1e-12)


# 300 uniform(0.5, 1) draws, where the objective is flat in lam past about
# 1e4: a fit that started there stayed at 5.365.
FLAT = np.random.Generator(np.random.PCG64(1)).uniform(0.5, 1.0, 300)


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_lsq_fit_leaves_the_flat_region(scale):
    assert lsq_fit(scale * FLAT).objective <= 2.8896824362


SCALE_SAMPLES = {
    "30 draws": MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 30),
    "20000 draws": MaxUExp(1.0, 1.0).sample_many(RandomStream(200), 20_000),
}


@pytest.mark.parametrize("name", list(SCALE_SAMPLES))
@pytest.mark.parametrize("c", [1e-12, 1e-6, 1e6, 1e13])
def test_lsq_fit_has_no_units(name, c):
    # Rescaling the sample by c rescales a by c and lam by 1/c, and leaves
    # the objective as it was.
    x = SCALE_SAMPLES[name]
    base, rep = lsq_fit(x), lsq_fit(c * x)
    assert rep.objective == pytest.approx(base.objective, rel=1e-12)
    assert rep.a / c == pytest.approx(base.a, rel=1e-6)
    assert rep.lam * c == pytest.approx(base.lam, rel=1e-6)


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
def test_lsq_fit_fits_samples_whose_squares_pass_the_double_range(c):
    # The plain r_hat is taken on the sample over its largest value, so
    # squares that overflow or underflow raise nothing.
    base, rep = lsq_fit(FLAT), lsq_fit(c * FLAT)
    assert rep.a / c == pytest.approx(base.a, rel=1e-7)
    assert rep.lam * c == pytest.approx(base.lam, rel=1e-7)
    assert rep.r_hat == pytest.approx(base.r_hat, rel=1e-13)


def test_fit_auto_fallback_has_no_units():
    x = np.random.Generator(np.random.PCG64(1)).uniform(0.5, 1.0, 2_000)
    base, rep = fit_auto(x), fit_auto(1e-7 * x)
    assert rep.branch == base.branch == "lsq_refined"
    assert rep.objective == pytest.approx(base.objective, rel=1e-12)
    assert rep.a / 1e-7 == pytest.approx(base.a, rel=1e-6)
    assert rep.lam * 1e-7 == pytest.approx(base.lam, rel=1e-6)


def test_lsq_fit_takes_no_start():
    # A stale positional start lands in trim.
    with pytest.raises(DomainError):
        lsq_fit(FLAT, (1.0, 1.0))


def test_lsq_fit_lam_past_the_double_range_raises():
    # lam = u / a_floor overflows where the retained values are subnormal.
    with pytest.raises(NumericError):
        lsq_fit([5e-324, 5e-324, 5e-324, 1.0])


def test_lsq_objective_at_a_zero_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            lsq_objective(FLAT, 0.0, 1.0)


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


def test_estimator_facade():
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

    # The lsq method is lsq_fit at the estimator's trim.
    assert MaxUExpEstimator("lsq").fit(draws).report_.params() == lsq_fit(draws).params()


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


BRANCH_SAMPLES = {
    "unique": MaxUExp(1.0, 1.0).sample_many(RandomStream(2), 4_000),
    "ambiguous": MaxUExp(1.0, 8.0).sample_many(RandomStream(4), 4_000),
    "fallback": np.random.Generator(np.random.PCG64(3)).uniform(0.5, 1.0, 4_000),
}


def test_fit_auto_validates_the_sample_once(monkeypatch):
    calls = []

    def counting(values):
        calls.append(1)
        return _check_sample(values)

    monkeypatch.setattr("mpmue.estimation._check_sample", counting)
    samples = BRANCH_SAMPLES
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


def test_fit_auto_unique_branch_does_not_depend_on_order():
    x = BRANCH_SAMPLES["unique"]
    shuffled = np.random.Generator(np.random.PCG64(9)).permutation(x)
    base, rep = fit_auto(np.sort(x)), fit_auto(shuffled)
    assert rep.branch == base.branch == "unique"
    assert rep.a == pytest.approx(base.a, rel=1e-12)
    assert rep.lam == pytest.approx(base.lam, rel=1e-12)


@pytest.mark.parametrize("name", ["ambiguous", "fallback"])
def test_fit_auto_least_squares_branches_do_not_depend_on_order(name):
    # Both branches sort before they read order statistics, so the
    # fallback's refit is the same to the bit.  The ambiguous pick is one of
    # the moment roots, and the moments are sums whose rounding depends on
    # the order of the terms.
    x = BRANCH_SAMPLES[name]
    shuffled = np.random.Generator(np.random.PCG64(9)).permutation(x)
    base, rep = fit_auto(np.sort(x)), fit_auto(shuffled)
    assert rep.branch == base.branch == "lsq_refined"
    if name == "fallback":
        assert (rep.a, rep.lam, rep.objective) == (base.a, base.lam, base.objective)
    else:
        pick = base.candidates.index((base.a, base.lam))
        assert rep.candidates.index((rep.a, rep.lam)) == pick
        assert rep.params() == pytest.approx(base.params(), rel=1e-12)
        assert rep.objective == pytest.approx(base.objective, rel=1e-12)


@pytest.mark.parametrize(
    "k, n, p",
    [
        (3, 2**31, 2.0**-31),
        (3, 2**40, 1e-12),
        (0, 2**53, 1e-15),
        (14, 10**6, 1e-5),
        (25, 2000, 0.01),
        (580, 2000, 0.3),
    ],
)
def test_exceedance_confidence_matches_exact_binomial_sums(k, n, p):
    # Past n = 2^31 a C-int count argument overflows, and at n = 2^53 the
    # log-space sum of the test above cannot be formed.  The reference is the
    # binomial cdf summed at 50 digits.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mp = mpmath.mpf(p)
        want = mpmath.fsum(
            mpmath.binomial(n, i) * mp**i * (1 - mp) ** (n - i) for i in range(k + 1)
        )
    assert exceedance_confidence(n, p, k) == pytest.approx(float(want), rel=1e-13)
