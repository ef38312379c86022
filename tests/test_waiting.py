import math
import warnings

import numpy as np
import pytest

from mpmue import (
    DivergenceError,
    DomainError,
    ErlangMaxUExp,
    ExpMaxUExp,
    MaxUExp,
    RandomStream,
)
from mpmue.numerics import integrate
from mpmue.rng import _BLOCK
from mpmue.waiting import _EM1_CUT, _EM1_SERIES, _em1


def _ks2(x, y):
    x, y = np.sort(np.asarray(x)), np.sort(np.asarray(y))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def test_pdf_cdf_anchor_values():
    w = ExpMaxUExp(1.0, 1.0)
    assert w.pdf(1.0) == pytest.approx(0.29807493847, rel=1e-9)
    assert w.cdf(1.0) == pytest.approx(0.58404562036, rel=1e-9)
    for t in (-1.0, 0.0):
        assert w.pdf(t) == 0.0
        assert w.cdf(t) == 0.0


def test_pdf_series_matches_direct_branch():
    # The cdf's series hands over to its direct form at a t = _EM1_CUT, and
    # the density must show no seam there: one ulp of t moves it by about
    # 1e-16, so anything larger is a branch mismatch.
    for a, lam in ((1.0, 1.0), (2.0, 0.5)):
        w = ExpMaxUExp(a, lam)
        at_cut = _EM1_CUT / a
        below = w.pdf(math.nextafter(at_cut, 0.0))
        assert below == pytest.approx(w.pdf(at_cut), rel=2e-15, abs=0.0)


def _em_reference(z):
    """1 - (1 - e^-z)/z in 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        return float(1 - (-mpmath.expm1(-z)) / z)


def _pdf_reference(a, lam, t):
    """The inter-arrival density's closed form in 40 digits, where it does not cancel."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, lam, t = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(t)
        s, z = lam + t, a * t
        em2 = (-mpmath.expm1(-z) - z * mpmath.exp(-z)) / z**2
        ratio = -mpmath.expm1(-a * s) / (a * s)
        return float(a * em2 + (lam - t) / s**2 * ratio + t / s**2 * mpmath.exp(-a * s))


def test_em1_series_is_polyval_bit_for_bit():
    # _em1 takes Horner's steps on the elements below the cut only, as
    # polyval takes them on the whole array, so every value is the same.
    def polyval_form(z):
        zs, zd = np.minimum(z, _EM1_CUT), np.maximum(z, _EM1_CUT)
        series = np.polynomial.polynomial.polyval(zs, _EM1_SERIES) * zs
        return np.where(z < _EM1_CUT, series, 1.0 - (-np.expm1(-zd)) / zd)

    near = np.nextafter(_EM1_CUT, 0.0) + np.arange(-40, 41) * 1e-17
    grid = np.concatenate([np.logspace(-12, 3, 1501), near, [_EM1_CUT]])
    for z in (grid, grid[:1500].reshape(30, 50), np.array([]), 0.3, _EM1_CUT, 2.0,
              np.float64(1e-9), np.array(0.7)):
        got, want = _em1(z), polyval_form(z)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_em1_em2_and_pdf_match_mpmath():
    # _em1 comes from its series below _EM1_CUT.
    zs = np.logspace(-8, 2, 1001)
    ref = np.array([_em_reference(z) for z in zs])
    for got in (np.array([_em1(z) for z in zs]), _em1(zs)):
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-15
    # The density is the n = 1 Erlang density, (1/t) P(N(t) = 1) from the
    # count kernel's linear route on this grid; its worst error is 1.8e-15,
    # at (2, 0.5).
    ts = np.logspace(-5, 1, 601)
    for a, lam in ((1.0, 1.0), (2.0, 0.5)):
        w = ExpMaxUExp(a, lam)
        ref = np.array([_pdf_reference(a, lam, t) for t in ts])
        for got in (np.array([w.pdf(float(t)) for t in ts]), w.pdf(ts)):
            assert np.max(np.abs(got / ref - 1.0)) <= 2e-15


def _cdf_reference(a, lam, t):
    # The closed form in 60-digit arithmetic, where 1 - (1 - e^-at)/(at)
    # does not cancel.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, lam, t = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(t)
        s = lam + t
        return float(1 - (-mpmath.expm1(-a * t)) / (a * t) + t * (-mpmath.expm1(-a * s)) / (a * s * s))


@pytest.mark.parametrize("a,lam", [(1.0, 1.0), (2.0, 0.5), (0.01, 100.0)])
def test_cdf_small_t_keeps_relative_accuracy(a, lam):
    # a*t around the old series cutover 1e-3, where the direct form cancelled
    # over three digits, and around the new one at 0.5.
    w = ExpMaxUExp(a, lam)
    for at in (1e-8, 1e-3 - 1e-12, 1e-3 + 1e-12, 2e-3, 1e-2, 0.5 - 1e-12, 0.5 + 1e-12, 1.0, 10.0):
        t = at / a
        want = _cdf_reference(a, lam, t)
        got, got_array = w.cdf(t), w.cdf(np.array([t]))[0]
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)
        assert got_array == pytest.approx(want, rel=2e-15, abs=0.0)
        assert abs(got - got_array) <= np.spacing(got)


@pytest.mark.parametrize("lam", [1e-30, 1e-25])
def test_cdf_never_passes_one(lam):
    # t/s rounds to 1 here, and the unclipped sum to 1 + 2^-52.
    w = ExpMaxUExp(1.0, lam)
    want = _cdf_reference(1.0, lam, 1e-6)
    for got in (w.cdf(1e-6), w.cdf(np.array([1e-6]))[0]):
        assert got <= 1.0
        assert got == pytest.approx(want, rel=2e-16, abs=0.0)


def test_cdf_is_integral_of_pdf():
    w = ExpMaxUExp(2.0, 0.5)
    for t in (0.2, 1.0, 3.0):
        quad = integrate(w.pdf, 0.0, t, tol=1e-12).value
        assert w.cdf(t) == pytest.approx(quad, abs=1e-10)


def test_tail_is_second_order():
    # t^2 (1 - F(t)) approaches 2 lam / a.
    for a, lam in ((1.0, 1.0), (2.0, 0.5)):
        w = ExpMaxUExp(a, lam)
        t = 1e3
        assert t * t * (1.0 - w.cdf(t)) == pytest.approx(2.0 * lam / a, rel=0.05)


def test_moment_finiteness_window():
    w = ExpMaxUExp(1.0, 1.0)
    assert w.moment(0.5) == pytest.approx(1.0316585464, rel=1e-8)
    assert w.moment(1.0) == pytest.approx(1.6481040925, rel=1e-7)
    # Gamma(q+1) E(xi^-q) with q = 1.5 is still finite; the window closes at 2.
    assert w.moment(1.5) > 0.0
    with pytest.raises(DivergenceError):
        w.moment(2.0)
    with pytest.raises(DomainError):
        w.moment(0.0)


def test_joint_pdf_support_and_marginal():
    w = ExpMaxUExp(1.0, 1.0)
    assert w.joint_pdf(-0.5, 0.5) == 0.0
    assert w.joint_pdf(0.0, 0.5) == 0.0
    assert w.joint_pdf(0.5, -0.5) == 0.0
    marg = integrate(lambda x: w.joint_pdf(1.0, x), 0.0, math.inf, tol=1e-12,
                     breakpoints=[w.a]).value
    assert marg == pytest.approx(w.pdf(1.0), rel=1e-9)


def test_joint_and_conditional_pdf_reject_nan():
    w = ExpMaxUExp(1.0, 1.0)
    for t, x in ((math.nan, 0.5), (1.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(DomainError):
            w.joint_pdf(t, x)
    with pytest.raises(DomainError):
        w.conditional_mixing_pdf(1.0, math.nan)
    assert w.joint_pdf(1.0, math.inf) == w.joint_pdf(1.0, -math.inf) == 0.0
    assert w.joint_pdf(math.inf, 0.5) == w.joint_pdf(-math.inf, 0.5) == 0.0
    assert w.conditional_mixing_pdf(1.0, math.inf) == w.conditional_mixing_pdf(1.0, -math.inf) == 0.0


def test_extreme_parameters_keep_closed_forms_finite():
    # a s = 2e-600 and s^2 = 4e-600 underflow; with a -> 0 the law is the
    # Exp(lam)-mixed exponential, pdf lam/(lam + t)^2 and cdf t/(lam + t).
    w = ExpMaxUExp(1e-300, 1e-300)
    assert w.pdf(1e-300) == pytest.approx(2.5e299, rel=1e-12)
    assert w.cdf(1e-300) == pytest.approx(0.5, rel=1e-12)
    assert w.pdf(np.array([1e-300]))[0] == w.pdf(1e-300)
    assert w.cdf(np.array([1e-300]))[0] == w.cdf(1e-300)
    # The T marginal underflows at t = 1e300; the log-space ratio does not.
    u = ExpMaxUExp(1.0, 1.0)
    assert u.conditional_mixing_pdf(1e300, 1.0) == 0.0
    assert u.conditional_mixing_pdf(1.0, 0.5) == pytest.approx(u.joint_pdf(1.0, 0.5) / u.pdf(1.0), rel=1e-14)
    assert u.conditional_mixing_pdf(1.0, -0.5) == 0.0


@pytest.mark.parametrize(
    "f,x,limit",
    [
        (MaxUExp(1e300, 1e300).pdf, 1e12, 1e-300),
        (MaxUExp(1e300, 1e300).hazard, 1e12, 1e-300),
        (ExpMaxUExp(1e300, 1.0).pdf, 1e300, 0.0),
        (ExpMaxUExp(1e300, 1e300).pdf, 1e300, 0.0),
        (MaxUExp(1e300, 1e300).cdf, 1e12, 1e-288),
        (ExpMaxUExp(1e300, 1.0).cdf, 1e300, 1.0),
    ],
    ids=["pdf", "hazard", "interarrival-pdf-lam-1", "interarrival-pdf-lam-1e300", "cdf",
         "interarrival-cdf-lam-1"],
)
def test_density_where_the_exponent_overflows_is_its_limit(f, x, limit):
    # lam*x or a*t overflows to inf, where z e^-z is 0, not inf * 0; the
    # array branch reaches the same limit without a numpy warning.
    assert f(x) == pytest.approx(limit, rel=1e-12, abs=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f(np.array([x, 1.0]))
    assert got[0] == f(x)


def test_conditional_mixing_pdf_normalizes():
    w = ExpMaxUExp(2.0, 0.5)
    mass = integrate(lambda x: w.conditional_mixing_pdf(1.0, x), 0.0, math.inf,
                     tol=1e-11, breakpoints=[w.a]).value
    assert mass == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        w.conditional_mixing_pdf(0.0, 1.0)


def test_regression_both_directions():
    w = ExpMaxUExp(1.0, 1.0)
    # E(xi | T = t) falls as the arrival stretches out.
    assert w.mean_mixing_given_arrival(0.5) > w.mean_mixing_given_arrival(2.0)
    # Short-arrival limit is the size-biased mean E(xi^2)/E(xi).
    limit = w.xi.moment(2.0) / w.xi.mean()
    assert w.mean_mixing_given_arrival(1e-7) == pytest.approx(limit, rel=1e-5)
    assert w.mean_arrival_given_mixing(2.0) == 0.5
    with pytest.raises(DomainError):
        w.mean_mixing_given_arrival(0.0)
    with pytest.raises(DomainError):
        w.mean_arrival_given_mixing(0.0)


def test_joint_interarrival_pdf_contracts():
    w = ExpMaxUExp(1.0, 1.0)
    assert w.joint_interarrival_pdf([0.7]) == pytest.approx(w.pdf(0.7), rel=1e-12)
    # Exchangeable: depends on the coordinates only through the sum.
    assert w.joint_interarrival_pdf([0.3, 0.9]) == pytest.approx(
        w.joint_interarrival_pdf([0.9, 0.3]), rel=1e-15
    )
    assert w.joint_interarrival_pdf([0.4, 0.8]) == pytest.approx(
        w.joint_interarrival_pdf([0.6, 0.6]), rel=1e-15
    )
    assert w.joint_interarrival_pdf([0.5, -0.1]) == 0.0
    assert w.joint_interarrival_pdf([0.5, 0.0]) == 0.0
    with pytest.raises(DomainError):
        w.joint_interarrival_pdf([])
    # Finite coordinates only, as pdf's t: joint([t]) = pdf(t) holds or
    # raises alike at every t, and the error names t.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t must"):
            w.joint_interarrival_pdf([bad])
        with pytest.raises(DomainError, match="t must"):
            w.pdf(bad)
        with pytest.raises(DomainError, match="t must"):
            w.joint_interarrival_pdf([0.5, bad])
    # A sum past the double range gives the density's limit there, 0.
    assert w.joint_interarrival_pdf([1e308, 1e308]) == 0.0
    assert w.joint_interarrival_pdf([1e300] * 3) == 0.0
    # Positive dependence: the joint density at equal coordinates exceeds
    # the product of the marginals.
    t = 1.0
    assert w.joint_interarrival_pdf([t, t]) > w.pdf(t) ** 2


def test_interarrival_dependence_rejected_by_two_sample_ks():
    # The sum of the first three inter-arrivals shares one mixing draw; three
    # independent copies do not.  A two-sample KS test tells them apart.
    w = ExpMaxUExp(1.0, 1.0)
    e3 = ErlangMaxUExp(3, 1.0, 1.0)
    root = RandomStream(55)
    n = 20_000
    indep = sum(w.sample_many(root.substream(i), n) for i in range(3))
    coupled = e3.sample_many(root.substream(9), n)
    crit = 1.6276 * math.sqrt((n + n) / (n * n))
    assert _ks2(indep, coupled) > 3.0 * crit
    # Control: two independent coupled samples agree.
    again = e3.sample_many(root.substream(11), n)
    assert _ks2(coupled, again) < crit


def test_erlang_validation_and_reduction():
    with pytest.raises(DomainError):
        ErlangMaxUExp(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ErlangMaxUExp(2.5, 1.0, 1.0)
    w = ExpMaxUExp(1.3, 0.7)
    e1 = ErlangMaxUExp(1, 1.3, 0.7)
    for t in (0.3, 1.0, 2.5):
        assert e1.pdf(t) == pytest.approx(w.pdf(t), rel=1e-12)
    assert e1.pdf(0.0) == 0.0
    assert e1.pdf(-1.0) == 0.0
    assert e1.cdf(0.0) == 0.0
    # The inter-arrival law is the n = 1 arrival: same draws, same moments.
    assert w.n == 1 and not hasattr(w, "__dict__")
    assert np.array_equal(w.sample_many(RandomStream(9), 50), e1.sample_many(RandomStream(9), 50))
    assert w.moment(0.5) == e1.moment(0.5)


def test_erlang_cdf_monotone_and_tail_route():
    e2 = ErlangMaxUExp(2, 1.0, 1.0)
    ts = (1e-3, 0.5, 1.0, 2.0, 5.0, 50.0)
    vals = [e2.cdf(t) for t in ts]
    assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 1.0
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            e2.cdf(bad)


def _count_pmf_reference(mpmath, a, lam, k, t):
    """P(N(t) = k) = t^k/k! E(xi^k e^(-t xi)) from mpmath's incomplete
    gammas, at the working precision, for mpf a, lam and t."""
    s = t + lam
    tilted = (
        mpmath.gammainc(k + 1, 0, a * t) / t ** (k + 1)
        - mpmath.gammainc(k + 1, 0, a * s) / s ** (k + 1)
        + lam * mpmath.gammainc(k + 2, 0, a * s) / s ** (k + 2)
    ) / a + lam * mpmath.gammainc(k + 1, a * s) / s ** (k + 1)
    return t**k / mpmath.factorial(k) * tilted


def _erlang_cdf_reference(a, lam, n, t):
    """1 - sum over k < n of P(N(t) = k) in 80-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        a, lam, t = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(t)
        return 1 - sum(_count_pmf_reference(mpmath, a, lam, k, t) for k in range(n))


@pytest.mark.parametrize("a,lam", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0)])
def test_erlang_pdf_matches_mpmath(a, lam):
    # f(t) = (n/t) P(N(t) = n) straight from the count kernel, at the counts
    # workload's points.  Through the tilted moment, the lgamma(n) and
    # lgamma(n + 1) round trip cost up to 1.7e-13 relative here.
    mpmath = pytest.importorskip("mpmath")
    for n in (1, 5, 30, 60, 120):
        e = ErlangMaxUExp(n, a, lam)
        for f in (0.4, 0.9, 1.5):
            t = f * n
            with mpmath.workdps(40):
                pmf = _count_pmf_reference(mpmath, mpmath.mpf(a), mpmath.mpf(lam), n, mpmath.mpf(t))
                want = float(n / mpmath.mpf(t) * pmf)
            assert e.pdf(t) == pytest.approx(want, rel=1e-14, abs=0.0), (n, t)
    with pytest.raises(DomainError):
        e.pdf(math.inf)
    with pytest.raises(DomainError):
        e.pdf(math.nan)


@pytest.mark.parametrize(
    "n,a,lam",
    [(n, a, lam) for n in (1, 2, 10) for a, lam in ((1.0, 1.0), (2.0, 0.5), (0.01, 100.0))]
    + [(10, 1.0, 1000.0), (120, 1.0, 1.0)],
)
def test_erlang_cdf_matches_mpmath(n, a, lam):
    # Relative accuracy holds in the lower tail too: at (1, 1), n = 10 and
    # t = 1e-3 the cdf is 9.90054794805e-31, where 1 - P(N < n) is noise.
    # At (1, 1000) xi is nearly uniform, and the uniform part of the tail
    # cancels to about P(n, a t)/(n + 1).
    # At n = 120 the 80-digit reference sums 120 count probabilities, so it
    # takes 10 clock values, from t = 1 where the cdf is 7.5e-37: the
    # reference resolves it there, as it does not below 1e-60.
    e = ErlangMaxUExp(n, a, lam)
    ts = np.logspace(0.0, 4.0, 10) if n == 120 else np.logspace(-3.0, 4.0, 29)
    previous = 0.0
    for t in ts:
        t = float(t)
        got, want = e.cdf(t), _erlang_cdf_reference(a, lam, n, t)
        assert abs(got - want) <= 1e-13 * want, (t, got, float(want))
        assert previous <= got <= 1.0
        previous = got


def test_erlang_moment_scaling():
    # E(T_n^q) = (Gamma(q+n)/Gamma(n)) E(xi^-q): ratios across orders are
    # pure gamma-function factors.
    q = 0.5
    m1 = ErlangMaxUExp(1, 1.0, 1.0).moment(q)
    m2 = ErlangMaxUExp(2, 1.0, 1.0).moment(q)
    assert m2 / m1 == pytest.approx(math.gamma(q + 2.0) / math.gamma(q + 1.0), rel=1e-10)
    assert m2 == pytest.approx(1.5474878196, rel=1e-8)
    with pytest.raises(DivergenceError):
        ErlangMaxUExp(2, 1.0, 1.0).moment(2.0)


def test_sampling_scalar_vector_agree():
    w = ExpMaxUExp(1.1, 0.6)
    vec = w.sample_many(RandomStream(31), 30)
    s = RandomStream(31)
    scl = np.array([w.sample(s) for _ in range(30)])
    assert np.array_equal(vec, scl)

    e = ErlangMaxUExp(3, 1.1, 0.6)
    vec = e.sample_many(RandomStream(32), 30)
    s = RandomStream(32)
    scl = np.array([e.sample(s) for _ in range(30)])
    assert np.array_equal(vec, scl)


def _one_shot_erlang(e, stream, count):
    # The unblocked formula: all rows of n + 2 uniforms at once.
    n = e.n
    u = stream.uniforms((n + 2) * count).reshape(count, n + 2)
    top = -np.log(u[:, :n]).sum(axis=1)
    return top / np.maximum(e.a * u[:, n], -np.log(u[:, n + 1]) / e.lam)


# numpy sums a row of up to 7 legs left to right and of 8 or more pairwise.
ERLANG_ORDERS = [1, 2, 3, 7, 8, 9, 40]


@pytest.mark.parametrize("n", ERLANG_ORDERS)
def test_sample_many_blocks_match_one_shot(n):
    e = ErlangMaxUExp(n, 1.1, 0.6)
    rows = _BLOCK // (n + 2)  # rows drawn per block
    start = 2**64 - 2 * rows  # the 2^64 wrap falls inside the first block
    for count in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 5):
        s = RandomStream(33, position=start)
        got = e.sample_many(s, count)
        assert np.array_equal(got, _one_shot_erlang(e, RandomStream(33, position=start), count))
        assert s.position == start + (n + 2) * count


@pytest.mark.parametrize("n", ERLANG_ORDERS + [40_000])
def test_sample_many_matches_sample_across_a_block_edge(n):
    # At n = 40 000 a variate's n + 2 draws are more than a block: each
    # block holds one variate, and there are 3.
    e = ErlangMaxUExp(n, 1.1, 0.6)
    count = _BLOCK // (n + 2) + 3
    s = RandomStream(34)
    scl = np.array([e.sample(s) for _ in range(count)])
    t = RandomStream(34)
    assert np.array_equal(e.sample_many(t, count), scl)
    assert t.position == s.position


def test_erlang_orders_ordered_in_distribution():
    # T_3 stochastically dominates T_1 (same mixing draw, more summands).
    root = RandomStream(64)
    t1 = ErlangMaxUExp(1, 1.0, 1.0).sample_many(root.substream(0), 20_000)
    t3 = ErlangMaxUExp(3, 1.0, 1.0).sample_many(root.substream(1), 20_000)
    q1 = np.quantile(t1, [0.25, 0.5, 0.75])
    q3 = np.quantile(t3, [0.25, 0.5, 0.75])
    assert np.all(q3 > q1)


@pytest.mark.parametrize("name", ["cdf", "pdf"])
@pytest.mark.parametrize("a,lam", [(1.0, 1.0), (2.0, 0.5), (1.0, 1e-6)])
def test_array_evaluators_match_scalar(name, a, lam):
    # The grid takes edge points around 0, a*t = 1e-3 and t = a, then 2000
    # log-spaced a*t from 1e-10 to 1e3.  cdf is one numpy
    # expression, and pdf runs an array through its float path element by
    # element, so a float gives the array's value exactly, as a Python float.
    f = getattr(ExpMaxUExp(a, lam), name)
    edges = [-3.0, -1e-300, 0.0, 1e-300, 1e-9, 0.9e-3 / a, 1.1e-3 / a, a - 1e-12, a, a + 1e-12, 50.0 * a]
    ts = np.concatenate([edges, np.logspace(-10, 3, 2000) / a])
    got = f(ts)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    floats = [f(float(t)) for t in ts]
    assert all(type(v) is float for v in floats)
    assert got.tolist() == floats


@pytest.mark.parametrize("t", [1e103, 1e300])
def test_pdf_far_tail_float_is_finite_and_matches_array(t):
    # A float s**3 raised OverflowError past t ~ 5.6e102.
    w = ExpMaxUExp(1.0, 1.0)
    got = w.pdf(t)
    assert math.isfinite(got) and got >= 0.0
    with np.errstate(over="ignore"):
        assert got == w.pdf(np.array([t]))[0]


@pytest.mark.parametrize("name", ["cdf", "pdf"])
def test_array_evaluators_keep_shape(name):
    f = getattr(ExpMaxUExp(1.0, 1.0), name)
    assert f(np.empty(0)).shape == (0,)
    ts = np.linspace(-1.0, 4.0, 12).reshape(3, 4)
    got = f(ts)
    assert got.shape == (3, 4)
    assert got[2, 1] == pytest.approx(f(float(ts[2, 1])), abs=1e-15)
