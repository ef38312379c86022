import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmue import DivergenceError, DomainError, MaxUExp, NumericError, RandomStream
from mpmue.rng import _BLOCK

params = st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0))


def test_parameter_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            MaxUExp(bad, 1.0)
        with pytest.raises(DomainError):
            MaxUExp(1.0, bad)


def test_cdf_anchor_values():
    d = MaxUExp(1.0, 1.0)
    assert d.cdf(0.5) == pytest.approx(0.19673467014, rel=1e-9)
    assert d.cdf(-3.0) == 0.0
    assert d.cdf(0.0) == 0.0
    # Beyond the uniform endpoint only the exponential tail remains.
    assert d.cdf(2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_pdf_anchor_and_jump():
    d = MaxUExp(1.0, 1.0)
    assert d.pdf(0.5) == pytest.approx(0.69673467014, rel=1e-9)
    assert d.pdf(0.0) == 0.0
    assert d.pdf(-1.0) == 0.0
    # Left value at the endpoint: (1 - e^(-lam a))/a + lam e^(-lam a);
    # right limit: lam e^(-lam a).  The density drops by cdf(a)/a there.
    left = (1.0 - math.exp(-1.0)) / 1.0 + math.exp(-1.0)
    right = math.exp(-1.0)
    assert d.pdf(1.0) == pytest.approx(left, rel=1e-12)
    assert d.pdf(1.0 + 1e-12) == pytest.approx(right, rel=1e-9)
    assert left - right == pytest.approx(d.cdf(1.0) / 1.0, rel=1e-12)


def test_cdf_continuous_at_endpoint():
    d = MaxUExp(2.0, 0.5)
    assert d.cdf(2.0 - 1e-12) == pytest.approx(d.cdf(2.0 + 1e-12), abs=1e-11)


def test_hazard_values_and_zero_left_of_support():
    d = MaxUExp(1.0, 1.0)
    assert d.hazard(0.5) == pytest.approx(0.8673779936, rel=1e-9)
    assert d.hazard(0.0) == 0.0
    assert d.hazard(-2.0) == 0.0
    # Beyond the endpoint the law is memoryless.
    assert d.hazard(1.5) == 1.0
    assert d.hazard(7.0) == 1.0
    assert MaxUExp(2.0, 0.7).hazard(5.0) == 0.7
    # A nan point gives nan in all three evaluators, as a float or an array.
    for f in (d.cdf, d.pdf, d.hazard):
        assert math.isnan(f(math.nan)) and math.isnan(f(np.array([math.nan]))[0])


MOMENT_GRID = [(1.0, 1.0), (2.0, 0.5), (1e-12, 1.0), (1e-14, 1.0), (1e-300, 1.0), (1e300, 1.0),
               (100.0, 0.01), (0.01, 100.0)]
MOMENT_ORDERS = [0.3, 0.5, 0.9, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.3, 1.7, 1.99]


def _neg_moment_reference(a, lam, q):
    """E(X^-q) = lam^q [K(q, x)/x + Gamma(1 - q, x)] in 50-digit arithmetic,
    with x = a lam and K(q, x) the integral of u^-q (1 - e^-u + u e^-u) over
    (0, x).  K is summed from its series up to x = 1, because the bracket
    form [x^(1-q) (1 - e^-x) - q gamma(2-q, x)]/(1-q) cancels to noise at
    x = 1e-300 even at 60 digits; past x = 1 the integral over (1, x) is
    added from mpmath's incomplete gammas."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, lam, q = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(q)
        s, x = 1 - q, a * lam

        def k_series(y):
            return mpmath.nsum(
                lambda j: (-1) ** (j + 1) * (j + 1) * y ** (j + s) / (mpmath.factorial(j) * (j + s)), [1, mpmath.inf]
            )

        if x <= 1:
            k = k_series(x)
        else:
            head = mpmath.log(x) if s == 0 else mpmath.expm1(s * mpmath.log(x)) / s
            bump = (mpmath.gammainc(s + 1, 1) - mpmath.gammainc(s + 1, x)) - (
                mpmath.gammainc(s, 1) - mpmath.gammainc(s, x)
            )
            k = k_series(mpmath.mpf(1)) + head + bump
        return lam**q * (k / x + mpmath.gammainc(s, x))


@pytest.mark.parametrize("a,lam", MOMENT_GRID)
def test_negative_moments_match_mpmath(a, lam):
    d = MaxUExp(a, lam)
    for q in MOMENT_ORDERS:
        want = _neg_moment_reference(a, lam, q)
        got = d.neg_moment(q)
        assert got == d.moment(-q)
        assert math.isfinite(got) and abs(got - want) <= 1e-13 * want, (q, got, float(want))


def test_moment_diverges_exactly_from_minus_two():
    d = MaxUExp(1.0, 1.0)
    assert d.moment(-1.5) == d.neg_moment(1.5)
    assert math.isfinite(d.moment(math.nextafter(-2.0, 0.0)))
    assert math.isfinite(d.neg_moment(math.nextafter(2.0, 0.0)))
    for k in (-2.0, -2.5, -math.inf, math.nan):
        with pytest.raises(DivergenceError):
            d.moment(k)
    for q in (2.0, 2.5, math.inf):
        with pytest.raises(DivergenceError):
            d.neg_moment(q)


@pytest.mark.parametrize("a,lam", [(1e-300, 1e-300), (1e300, 1e300), (1e100, 1e250), (5e-324, 1.0), (1.0, 5e-324)])
def test_negative_moments_at_extreme_scales_are_finite_or_typed(a, lam):
    # a lam underflows or overflows here; the kernel works from log a + log lam.
    d = MaxUExp(a, lam)
    for q in (0.01, 0.5, 1.0, 1.5, 1.999):
        try:
            value = d.neg_moment(q)
        except NumericError:
            continue
        assert math.isfinite(value) and value > 0.0


def test_variance_is_a_function_of_a_lam_over_lam_squared():
    mpmath = pytest.importorskip("mpmath")
    for x in np.logspace(-7.0, 5.0, 49):
        x = float(x)
        with mpmath.workdps(50):
            xm = mpmath.mpf(x)
            w = -mpmath.expm1(-xm)
            want = xm * xm / 12 - 1 - mpmath.exp(-xm) + 4 * w / xm - (w / xm) ** 2
        assert abs(MaxUExp(x, 1.0).variance() - want) <= 4e-16 * want, x
    # Where a lam, lam^2 or the variance leave the double range.
    assert MaxUExp(1e-300, 1.0).variance() == 1.0
    assert MaxUExp(1e100, 1e250).variance() == pytest.approx(1e200 / 12.0, rel=1e-15)
    for a, lam in ((1e300, 1e300), (1.0, 1e-300), (1e-300, 1e-300), (1e200, 1e-160)):
        with pytest.raises(NumericError):
            MaxUExp(a, lam).variance()


def test_quantile_roundtrip_and_domain():
    d = MaxUExp(2.0, 0.5)
    for q in (0.01, 0.2, 0.5, 0.9, 0.999):
        assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-10)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            d.quantile(bad)


def test_moments_closed_form():
    d = MaxUExp(1.0, 1.0)
    assert d.mean() == pytest.approx(1.5 - math.exp(-1.0), rel=1e-12)
    assert d.moment(0.0) == 1.0
    assert d.variance() == pytest.approx(0.8443597266, rel=1e-9)
    assert d.moment(2.0) == pytest.approx(d.variance() + d.mean() ** 2, rel=1e-12)
    # The density behaves like 2 lam x / a near 0: E(X^k) is finite for k > -2.
    assert d.moment(-1.0) == d.neg_moment(1.0)
    assert d.moment(-1.5) == pytest.approx(3.394851390999008, rel=1e-14)
    with pytest.raises(DivergenceError):
        d.moment(-2.0)
    with pytest.raises(DivergenceError):
        d.moment(-2.5)
    # A high moment whose closed-form terms overflow on their own: X is
    # nearly U(0, 1) when lam = 100.
    assert MaxUExp(1.0, 100.0).moment(200.0) == pytest.approx(1.0 / 201.0, rel=1e-12)
    with pytest.raises(NumericError):
        MaxUExp(10.0, 1.0).moment(400.0)
    # Where Q(k, a lam) underflows, X is U(0, a) up to e^-(a lam), so
    # E(X^k) = a^k/(k + 1).
    assert MaxUExp(1.0, 1e210).moment(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    want = math.exp(1e-12 * math.log(1e-12)) / (1.0 + 1e-12)
    assert MaxUExp(1e-12, 1e300).moment(1e-12) == pytest.approx(want, rel=1e-15)


def test_neg_moment_values_and_domain():
    d = MaxUExp(1.0, 1.0)
    assert d.neg_moment(0.5) == pytest.approx(1.1641020113, rel=1e-8)
    assert d.neg_moment(1.0) == pytest.approx(1.6481040925, rel=1e-7)
    # Same number through the generic moment entry point.
    assert d.moment(-0.5) == pytest.approx(d.neg_moment(0.5), rel=1e-9)
    with pytest.raises(DomainError):
        d.neg_moment(0.0)
    with pytest.raises(DivergenceError):
        d.neg_moment(2.0)
    with pytest.raises(DivergenceError):
        d.neg_moment(2.5)


def test_lst_values():
    d = MaxUExp(2.0, 0.5)
    assert d.lst(1.0) == pytest.approx(0.221173929, rel=1e-8)
    assert d.lst(0.0) == 1.0
    with pytest.raises(DomainError):
        d.lst(-0.5)
    # Completely monotone: decreasing in t.
    assert d.lst(0.5) > d.lst(1.0) > d.lst(2.0)
    # Past t = 50/a the e^(-ta) terms are below 1e-21 of the value, which
    # regroups to lam(lam + 2t)/(a t (lam + t)^2) with no cancellation.
    for a, lam in ((2.0, 0.5), (1.0, 1.0), (0.01, 100.0), (100.0, 0.01)):
        law = MaxUExp(a, lam)
        for t in (50.0 / a, 1e3 / a, 1e8 / a, 1e100 / a):
            exact = lam * (lam + 2.0 * t) / (a * t * (lam + t) ** 2)
            assert law.lst(t) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert MaxUExp(1.0, 1.0).lst(1e300) == 0.0


def test_tilted_moment_reductions():
    d = MaxUExp(1.5, 0.8)
    assert d.tilted_moment(1.3, 0) == pytest.approx(d.lst(1.3), rel=1e-12)
    # Small tilt approaches the plain moment.
    assert d.tilted_moment(1e-9, 2) == pytest.approx(d.moment(2.0), rel=1e-6)
    with pytest.raises(DomainError):
        d.tilted_moment(-1.0, 1)
    with pytest.raises(DomainError):
        d.tilted_moment(1.0, -1)


def test_scaled_is_scale_family():
    d = MaxUExp(1.0, 1.0)
    s = d.scaled(2.5)
    assert s.a == pytest.approx(2.5)
    assert s.lam == pytest.approx(0.4)
    for x in (0.3, 1.0, 2.0, 4.0):
        assert s.cdf(2.5 * x) == pytest.approx(d.cdf(x), rel=1e-12)
    assert s.mean() == pytest.approx(2.5 * d.mean(), rel=1e-12)
    with pytest.raises(DomainError):
        d.scaled(0.0)


def test_sample_scalar_vector_agree():
    d = MaxUExp(1.3, 0.9)
    vec = d.sample_many(RandomStream(21), 40)
    s = RandomStream(21)
    scl = np.array([d.sample(s) for _ in range(40)])
    assert np.array_equal(vec, scl)


def test_sample_scalar_vector_agree_long_run():
    # Scalar and batch exponential legs share numpy's log; the math module's
    # log differs from it in the last bit for a few draws in 10^4.
    d = MaxUExp(1.3, 0.9)
    vec = d.sample_many(RandomStream(21), 20_000)
    s = RandomStream(21)
    scl = np.array([d.sample(s) for _ in range(20_000)])
    assert np.array_equal(vec, scl)


# sample_many draws rows of two uniforms, _BLOCK uniforms at a time.
ROWS = _BLOCK // 2


@pytest.mark.parametrize("count", [0, 1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 5])
def test_sample_many_blocks_match_one_shot(count):
    d = MaxUExp(1.3, 0.9)
    s = RandomStream(8, position=2**64 - ROWS)
    got = d.sample_many(s, count)
    u = RandomStream(8, position=2**64 - ROWS).uniforms(2 * count)
    assert np.array_equal(got, np.maximum(d.a * u[0::2], -np.log(u[1::2]) / d.lam))
    assert s.position == 2**64 - ROWS + 2 * count


def test_sample_many_matches_sample_across_a_block_edge():
    d = MaxUExp(1.3, 0.9)
    s = RandomStream(9)
    scl = np.array([d.sample(s) for _ in range(ROWS + 3)])
    t = RandomStream(9)
    assert np.array_equal(d.sample_many(t, ROWS + 3), scl)
    assert t.position == s.position


def test_sample_within_support():
    d = MaxUExp(2.0, 0.5)
    draws = d.sample_many(RandomStream(77), 5_000)
    assert float(draws.min()) > 0.0
    # max(uniform, exponential) stochastically dominates the uniform leg.
    assert float(np.mean(draws > 2.0)) == pytest.approx(math.exp(-1.0), abs=0.03)


@given(p=params, x=st.floats(0.01, 20.0), bump=st.floats(0.01, 5.0))
@settings(max_examples=150, deadline=None)
def test_cdf_monotone(p, x, bump):
    d = MaxUExp(*p)
    assert d.cdf(x + bump) >= d.cdf(x)


@given(p=params, x=st.floats(0.01, 20.0))
@settings(max_examples=150, deadline=None)
def test_hazard_matches_pdf_over_survival(p, x):
    d = MaxUExp(*p)
    surv = 1.0 - d.cdf(x)
    if surv == 0.0:
        return
    # Computing 1 - cdf here cancels to ~eps/surv relative error when the
    # survival is tiny, so the bar must widen accordingly.
    rel = max(1e-10, 1e-14 / surv)
    assert d.hazard(x) * surv == pytest.approx(d.pdf(x), rel=rel, abs=1e-12)


@given(p=params, q=st.floats(0.001, 0.999))
@settings(max_examples=150, deadline=None)
def test_quantile_inverts_cdf(p, q):
    d = MaxUExp(*p)
    assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-8)


def _array_grid(a):
    # The edges of the support and of the jump at a, then 2000 log-spaced
    # points from 1e-10 a to 1e3 a.
    edges = [-3.0, -1e-300, 0.0, 1e-300, 1e-9, 0.3 * a, a - 1e-12, a, a + 1e-12, 2.0 * a, 50.0 * a]
    return np.concatenate([edges, a * np.logspace(-10, 3, 2000)])


@pytest.mark.parametrize("name", ["cdf", "pdf", "hazard"])
@pytest.mark.parametrize("a,lam", [(1.0, 1.0), (2.0, 0.5), (1.0, 1e-6)])
def test_array_evaluators_match_scalar(name, a, lam):
    # The array branch must agree with the scalar one on both sides of the
    # jump at a, at a itself (left value) and at or below zero.  cdf and
    # hazard are one numpy expression, so a float gives the array's value
    # exactly, as a Python float; pdf keeps a math-module branch for floats.
    f = getattr(MaxUExp(a, lam), name)
    xs = _array_grid(a)
    got = f(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    floats = [f(float(x)) for x in xs]
    assert all(type(v) is float for v in floats)
    if name == "pdf":
        for value, want in zip(got, floats):
            assert value == pytest.approx(want, abs=1e-15)
    else:
        assert got.tolist() == floats


def test_hazard_past_the_double_range_raises_typed_error():
    # Just below the jump the survival is e^(-lam a): e^(-1000) underflows.
    d = MaxUExp(1.0, 1000.0)
    with pytest.raises(NumericError):
        d.hazard(1.0)
    with pytest.raises(NumericError):
        d.hazard(np.array([0.5, 1.0, 2.0]))
    # Elsewhere the values are those of pdf/(1 - cdf), as before.
    assert d.hazard(2.0) == 1000.0
    assert np.array_equal(d.hazard(np.array([0.5, 2.0])), [d.hazard(0.5), 1000.0])
    near = MaxUExp(1.0, 700.0)
    assert near.hazard(1.0) == pytest.approx(math.exp(700.0), rel=1e-12)


@pytest.mark.parametrize("name", ["cdf", "pdf", "hazard"])
def test_array_evaluators_keep_shape(name):
    f = getattr(MaxUExp(1.0, 1.0), name)
    assert f(np.empty(0)).shape == (0,)
    xs = np.linspace(-1.0, 4.0, 12).reshape(3, 4)
    got = f(xs)
    assert got.shape == (3, 4)
    assert got[2, 1] == pytest.approx(f(float(xs[2, 1])), abs=1e-15)


@pytest.mark.parametrize(
    "a, lam", [(1.0, 1.0), (2.0, 0.5), (1e-3, 1.0), (1e3, 1e-3), (1e-6, 1e6), (5.0, 3.0)]
)
def test_quantile_relative_accuracy_matches_mpmath(a, lam):
    # The uniform branch down to q = 1e-300 and up to just below the jump,
    # against a 60-digit inverse of (x/a)(1 - e^(-lam x)) = q; a q past the
    # jump's cdf inverts the exponential branch.
    mpmath = pytest.importorskip("mpmath")
    d = MaxUExp(a, lam)
    top = -math.expm1(-lam * a)
    qs = [1e-300, 1e-100, 1e-20, 1e-12, 1e-8, 1e-3, 0.3 * top, 0.9 * top, top * (1.0 - 1e-12)]
    with mpmath.workdps(60):
        ma, ml = mpmath.mpf(a), mpmath.mpf(lam)
        for q in qs:
            mq = mpmath.mpf(q)

            def excess(t):
                x = mpmath.exp(t)
                return mpmath.log(x / ma) + mpmath.log(-mpmath.expm1(-ml * x)) - mpmath.log(mq)

            if mq >= -mpmath.expm1(-ml * ma):
                want = -mpmath.log1p(-mq) / ml
            else:
                lo = mpmath.log(ma * mq / ml) / 2 - 1
                want = mpmath.exp(mpmath.findroot(excess, (lo, mpmath.log(ma)), solver="anderson"))
            got = d.quantile(q)
            assert abs(got - want) <= 1e-12 * want, (q, got, want)
