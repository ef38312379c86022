"""Release gate: one test per acceptance criterion.

Each criterion gets exactly one test function so that `pytest -v` prints one
pass/fail line per criterion.  Every numeric target below was fixed in
advance against an independent oracle (adaptive quadrature, seeded Monte
Carlo, or a hand-checked constant); tolerances are part of the contract and
must not be loosened to make a failing build green.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import chdtrc

from mpmue import (
    ErlangMaxUExp,
    ExpMaxUExp,
    MaxUExp,
    MixedPoissonMaxUExp,
    PowerTransform,
    RandomStream,
    conditional_binomial_pmf,
    exceedance_confidence,
    fit_auto,
    mom_curve,
    mom_curve_extrema,
    run_ledger,
    solve_mom,
    to_cumulative,
    to_increments,
)
from mpmue.numerics import integrate
from mpmue.verify import ks_critical, ks_statistic

POINTS = ((1.0, 1.0), (2.0, 0.5))


def tilt_quad(d: MaxUExp, m: float, n: float) -> float:
    """Quadrature route for E(xi^n e^(-m xi)), independent of the
    incomplete-gamma closed forms."""
    val = integrate(
        lambda x: x**n * math.exp(-m * x) * d.pdf(x),
        0.0,
        math.inf,
        tol=1e-12,
        breakpoints=(d.a,),
    )
    return val.value


@functools.lru_cache(maxsize=None)
def tau_draws_1e6():
    return ExpMaxUExp(1.0, 1.0).sample_many(RandomStream(202), 1_000_000)


@functools.lru_cache(maxsize=None)
def paths_1e5():
    proc = MixedPoissonMaxUExp(MaxUExp(1.0, 1.0))
    return proc.simulate_paths(PowerTransform(1.0), 2.0, 100_000, seed=303)


def test_criterion_1_estimation_constants():
    x43, argmin, gmin = mom_curve_extrema()
    assert argmin == pytest.approx(4.0232, abs=1e-3)
    assert gmin == pytest.approx(1.2452, abs=5e-4)
    assert mom_curve(2.1738) == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert mom_curve(1e-4) == pytest.approx(2.0, abs=1e-3)
    assert mom_curve(1000.0) == pytest.approx(1.3333, abs=1e-4)
    assert math.exp(-x43) == pytest.approx(0.1137, abs=5e-5)
    assert exceedance_confidence(20, 0.11, 5) == pytest.approx(0.98, abs=5e-3)


def test_criterion_2_normalization():
    for a in (0.5, 1.0, 2.0, 5.0):
        for lam in (0.5, 1.0, 2.0, 5.0):
            d = MaxUExp(a, lam)
            mass = integrate(d.pdf, 0.0, math.inf, tol=1e-11, breakpoints=(a,)).value
            assert mass == pytest.approx(1.0, abs=1e-8), (a, lam)
    for a, lam in POINTS:
        emue_mass = integrate(
            ExpMaxUExp(a, lam).pdf, 0.0, math.inf, tol=1e-9
        ).value
        assert emue_mass == pytest.approx(1.0, abs=1e-6), (a, lam)
        for n in (1, 2, 3):
            w = ErlangMaxUExp(n, a, lam)
            mass = integrate(w.pdf, 0.0, math.inf, tol=1e-9).value
            assert mass == pytest.approx(1.0, abs=1e-6), (a, lam, n)
        proc = MixedPoissonMaxUExp(MaxUExp(a, lam))
        for m in (0.5, 1.0, 2.0):
            total = sum(proc.pmf(m, n) for n in range(proc.truncation_point(m) + 1))
            assert total == pytest.approx(1.0, abs=1e-8), (a, lam, m)


def test_criterion_3_closed_form_vs_quadrature():
    rel = 1e-6
    for a, lam in POINTS:
        d = MaxUExp(a, lam)
        for k in (0.5, 1.0, 2.0, 3.0):
            assert d.moment(k) == pytest.approx(tilt_quad(d, 0.0, k), rel=rel)
        quad_var = tilt_quad(d, 0.0, 2.0) - tilt_quad(d, 0.0, 1.0) ** 2
        assert d.variance() == pytest.approx(quad_var, rel=rel)
        for t in (0.5, 1.0, 2.0):
            assert d.lst(t) == pytest.approx(tilt_quad(d, t, 0.0), rel=rel)
        for q in (0.25, 0.5, 0.75):
            assert d.neg_moment(q) == pytest.approx(tilt_quad(d, 0.0, -q), rel=rel)
        for m, n in ((0.5, 1), (1.0, 2), (1.5, 3)):
            assert d.tilted_moment(m, n) == pytest.approx(tilt_quad(d, m, n), rel=rel)

        w = ExpMaxUExp(a, lam)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert w.pdf(t) == pytest.approx(tilt_quad(d, t, 1.0), rel=rel)
            assert w.cdf(t) == pytest.approx(1.0 - tilt_quad(d, t, 0.0), rel=rel)
        for n in (1, 2, 3):
            en = ErlangMaxUExp(n, a, lam)
            for t in (0.5, 1.5, 3.0):
                mixture = t ** (n - 1) / math.factorial(n - 1) * tilt_quad(d, t, n)
                assert en.pdf(t) == pytest.approx(mixture, rel=rel), (a, lam, n, t)

        proc = MixedPoissonMaxUExp(d)
        m = 1.0
        for n in range(11):
            mixture = m**n / math.factorial(n) * tilt_quad(d, m, n)
            assert proc.pmf(m, n) == pytest.approx(mixture, rel=rel), (a, lam, n)
        for k in (1, 2, 3):
            assert proc.factorial_moment(m, k) == pytest.approx(
                m**k * tilt_quad(d, 0.0, k), rel=rel
            )
        for mm, nn in ((1.0, 0), (1.0, 3), (2.0, 5)):
            want = tilt_quad(d, mm, nn + 1) / tilt_quad(d, mm, nn)
            assert proc.posterior_mean(mm, nn) == pytest.approx(want, rel=rel)


def test_criterion_4_reduction_identities():
    for a, lam in POINTS:
        d = MaxUExp(a, lam)
        w = ExpMaxUExp(a, lam)
        e1 = ErlangMaxUExp(1, a, lam)
        proc = MixedPoissonMaxUExp(d)
        for t in (0.3, 1.0, 2.5):
            assert d.tilted_moment(t, 1) == pytest.approx(w.pdf(t), rel=1e-12)
            assert e1.pdf(t) == pytest.approx(w.pdf(t), rel=1e-12)
        for n in (0, 1, 4):
            assert proc.ordered_pmf([1.3], [n]) == pytest.approx(
                proc.pmf(1.3, n), rel=1e-12
            )
            assert proc.increments_pmf([1.3], [n]) == pytest.approx(
                proc.pmf(1.3, n), rel=1e-12
            )
    ms = [2, 0, 3, 1]
    assert to_increments(to_cumulative(ms)) == ms
    ns = [1, 1, 4, 6]
    assert to_cumulative(to_increments(ns)) == ns


def test_criterion_5_discrepancy_ledger():
    records = {r.formula_id: r for r in run_ledger()}

    lst_rec = records["lst-first-term"]
    assert lst_rec.params.startswith("a=2, lambda=0.5")
    assert lst_rec.abs_dev_literal > 1e-3
    assert lst_rec.abs_dev_corrected <= 1e-8
    assert lst_rec.verdict == "corrected_adopted"

    var_rec = records["count-variance-sign"]
    assert var_rec.params.startswith("a=2, lambda=0.5")
    assert var_rec.abs_dev_literal > 1e-3
    assert var_rec.abs_dev_corrected <= 1e-10
    assert var_rec.verdict == "corrected_adopted"

    arr_rec = records["arrival-moment-rate-factor"]
    assert "lambda=2" in arr_rec.params and "p=0.5" in arr_rec.params
    assert "n=1" in arr_rec.params
    ratio = arr_rec.corrected / arr_rec.paper_literal
    assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert arr_rec.verdict == "corrected_adopted"


def test_criterion_6_monte_carlo_seeded():
    d = MaxUExp(1.0, 1.0)

    draws = d.sample_many(RandomStream(101), 1_000_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.132121) <= 4.0 * se

    ks_draws = d.sample_many(RandomStream(11), 1_000_000)
    assert ks_statistic(ks_draws, d.cdf) <= ks_critical(ks_draws.size)

    tau = tau_draws_1e6()
    w = ExpMaxUExp(1.0, 1.0)
    assert ks_statistic(tau, w.cdf) <= ks_critical(tau.size)

    paths = paths_1e5()
    n1 = np.array([p.count_at(1.0) for p in paths])
    n2 = np.array([p.count_at(2.0) for p in paths])

    p0_target = 0.415955
    p0_hat = float(np.mean(n1 == 0))
    sigma = math.sqrt(p0_target * (1.0 - p0_target) / n1.size)
    assert abs(p0_hat - p0_target) <= 3.0 * sigma

    se2 = n2.std(ddof=1) / math.sqrt(n2.size)
    assert abs(n2.mean() - 2.264242) <= 4.0 * se2

    # Conditional law of N(1) given N(2)=n is Binomial(n, 1/2): chi-square
    # over strata, cells merged left to right until each expects >= 5.
    stat = 0.0
    dof = 0
    for n in range(1, int(n2.max()) + 1):
        sel = n1[n2 == n]
        if sel.size == 0:
            continue
        expected = np.array(
            [sel.size * conditional_binomial_pmf(n, 1.0, 2.0, j) for j in range(n + 1)]
        )
        observed = np.array([float(np.sum(sel == j)) for j in range(n + 1)])
        cells_exp, cells_obs = [], []
        acc_e = acc_o = 0.0
        for e, o in zip(expected, observed):
            acc_e += e
            acc_o += o
            if acc_e >= 5.0:
                cells_exp.append(acc_e)
                cells_obs.append(acc_o)
                acc_e = acc_o = 0.0
        if acc_e > 0.0 and cells_exp:
            cells_exp[-1] += acc_e
            cells_obs[-1] += acc_o
        if len(cells_exp) < 2:
            continue
        stat += sum((o - e) ** 2 / e for e, o in zip(cells_exp, cells_obs))
        dof += len(cells_exp) - 1
    assert dof > 0
    assert chdtrc(dof, stat) > 0.01


def test_criterion_7_overdispersion_strict():
    for a in (0.5, 1.0, 2.0, 5.0):
        for lam in (0.5, 1.0, 2.0, 5.0):
            proc = MixedPoissonMaxUExp(MaxUExp(a, lam))
            for m in (0.5, 1.0, 2.0):
                mean, var = proc.mean_variance(m)
                assert var > mean, (a, lam, m)


def test_criterion_8_fit_recovery():
    d = MaxUExp(1.0, 1.0)
    root = RandomStream(1234)
    a_errs, lam_errs = [], []
    for k in range(20):
        sample = d.sample_many(root.substream(k), 10_000)
        rep = fit_auto(sample)
        a_errs.append(abs(rep.a - 1.0))
        lam_errs.append(abs(rep.lam - 1.0))
    assert float(np.median(a_errs)) <= 0.05
    assert float(np.median(lam_errs)) <= 0.05

    d8 = MaxUExp(1.0, 8.0)
    root8 = RandomStream(777)
    for k in range(3):
        rep = fit_auto(d8.sample_many(root8.substream(k), 10_000))
        assert rep.branch == "lsq_refined", k
        assert abs(rep.a - 1.0) <= 0.15, k

    # A sample whose moment ratio falls below the curve minimum must engage
    # the fallback rule and pin the product at the argmin.
    fallback = solve_mom([1.0, 1.86332])
    assert fallback.branch == "fallback_min"
    assert fallback.r_hat < 1.2452
    assert fallback.x_product == pytest.approx(4.0232, abs=1e-3)


def test_criterion_9_heavy_tail_adjudication():
    for a, lam in POINTS:
        w = ExpMaxUExp(a, lam)
        t = 1_000.0
        scaled_tail = t * t * (1.0 - w.cdf(t))
        assert scaled_tail == pytest.approx(2.0 * lam / a, rel=0.05), (a, lam)

    tau = tau_draws_1e6()
    target = 1.648105
    se = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(tau.mean() - target) <= 4.0 * se

    rec = {r.formula_id: r for r in run_ledger()}["interarrival-mean-finite"]
    assert rec.paper_literal == math.inf
    assert rec.verdict == "corrected_adopted"
