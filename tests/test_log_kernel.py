"""Large counts and orders through the log-space tilted-moment kernel.

Every case here overflowed or failed to converge when the tilted moment was
assembled from non-normalized incomplete gammas.  The oracle is quadrature
of the defining integral E(X^n e^(-mX)), independent of any incomplete
gamma: each piece of the density (uniform branch on (0, a), exponential
branch beyond) is scaled by the value of its integrand at its peak, near
x = n/m, in log space, so that the integral itself stays near 1.

The tests at the end hold the kernel's two routes, linear and log, to
mpmath's closed form in incomplete gammas instead.
"""

import math
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import cython_special

from mpmue import ErlangMaxUExp, MaxUExp, MixedPoissonMaxUExp, NumericError, distribution, numerics
from mpmue.numerics import gamma_lower, gamma_lower_reg, gamma_upper, gamma_upper_reg

A = LAM = 1.0
# The oracle's own rounding: its log weights such as n*log(m) - lgamma(n+1)
# carry an absolute error of about n*log(m)*1e-16, 1e-11 at n = 1e4.
REL = 1e-9


def _log_piece(log_h, lo, hi, peak, width):
    top = log_h(peak)
    f = lambda x: math.exp(log_h(x) - top) if x > 0.0 else 0.0
    cut = min(hi, peak + 50.0 * width)
    pts = [p for p in (peak + k * width for k in (-16, -4, -1, 0, 1, 4, 16)) if lo < p < cut]
    value = quad(f, lo, cut, points=pts or None, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    if cut < hi:
        value += quad(f, cut, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return top + math.log(value)


def log_tilted_quad(m, n, a=A, lam=LAM):
    """log E(X^n e^(-mX)) by quadrature of the Max-U-Exp density."""

    def log_left(x):
        z = lam * x
        return n * math.log(x) - m * x + math.log((-math.expm1(-z) + z * math.exp(-z)) / a)

    def log_right(x):
        return n * math.log(x) - (m + lam) * x + math.log(lam)

    # Near 0 the uniform-branch density grows like x^2, which shifts its peak.
    left = _log_piece(log_left, 0.0, a, min(a, (n + 2.0) / m), math.sqrt(n + 2.0) / m)
    s = m + lam
    right = _log_piece(log_right, a, math.inf, max(a, n / s), max(1.0, math.sqrt(n)) / s)
    top = max(left, right)
    return top + math.log(math.exp(left - top) + math.exp(right - top))


@pytest.fixture
def pp():
    return MixedPoissonMaxUExp(MaxUExp(A, LAM))


@pytest.mark.parametrize("m,n", [(1e4, 10000), (4000.0, 3999)])
def test_pmf_at_the_mode_of_large_clocks(pp, m, n):
    want = math.exp(log_tilted_quad(m, n) + n * math.log(m) - math.lgamma(n + 1.0))
    got = pp.pmf(m, n)
    assert 0.0 < got <= 1.0
    assert got == pytest.approx(want, rel=REL, abs=0.0)


@pytest.mark.parametrize("n", [171, 400])
def test_posterior_mean_at_large_counts(pp, n):
    want = math.exp(log_tilted_quad(1.0, n + 1) - log_tilted_quad(1.0, n))
    got = pp.posterior_mean(1.0, n)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=REL, abs=0.0)


@pytest.mark.parametrize("n,x", [(400, 200.0), (10000, 5000.0)])
def test_posterior_pdf_at_large_counts(pp, n, x):
    # At x = 5000 the prior density e^-x itself underflows a double.
    log_prior = math.log(LAM) - LAM * x
    want = math.exp(n * math.log(x) - x + log_prior - log_tilted_quad(1.0, n))
    got = pp.posterior_pdf(1.0, n, x)
    assert got > 0.0
    assert got == pytest.approx(want, rel=REL, abs=0.0)


@pytest.mark.parametrize("mus,ks", [([0.5, 1.0], [0, 172]), ([100.0], [300])])
def test_ordered_pmf_at_large_counts(pp, mus, ks):
    weight, prev_m, prev_k = 0.0, 0.0, 0
    for m, k in zip(mus, ks):
        weight += (k - prev_k) * math.log(m - prev_m) - math.lgamma(k - prev_k + 1.0)
        prev_m, prev_k = m, k
    want = math.exp(weight + log_tilted_quad(mus[-1], ks[-1]))
    got = pp.ordered_pmf(mus, ks)
    assert 0.0 < got <= 1.0
    assert got == pytest.approx(want, rel=REL, abs=0.0)
    increments = [ks[0]] + [b - c for c, b in zip(ks[:-1], ks[1:])]
    assert pp.increments_pmf(mus, increments) == got


@pytest.mark.parametrize("n,t", [(142, 142.0), (200, 100.0)])
def test_erlang_pdf_at_large_orders(n, t):
    want = math.exp((n - 1) * math.log(t) - math.lgamma(n) + log_tilted_quad(t, n))
    got = ErlangMaxUExp(n, A, LAM).pdf(t)
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(want, rel=REL, abs=0.0)


def test_log_tilted_moment_past_the_double_range():
    d = MaxUExp(A, LAM)
    got = d.log_tilted_moment(1.0, 400)
    assert math.isfinite(got) and got > math.log(sys.float_info.max)
    assert got == pytest.approx(log_tilted_quad(1.0, 400), rel=1e-13, abs=0.0)
    with pytest.raises(NumericError):
        d.tilted_moment(1.0, 400)


def test_tilted_moment_is_exp_of_its_log():
    d = MaxUExp(2.0, 0.5)
    for m, n in ((0.3, 0), (0.3, 5), (4.0, 1), (4.0, 60)):
        log_t = d.log_tilted_moment(m, n)
        assert d.tilted_moment(m, n) == pytest.approx(math.exp(log_t), rel=1e-15, abs=0.0)
        assert log_t == pytest.approx(log_tilted_quad(m, n, 2.0, 0.5), rel=1e-12, abs=0.0)


def test_non_normalized_gammas_raise_numeric_error_past_the_double_range():
    assert math.isfinite(gamma_lower_reg(400.0, 300.0))
    assert gamma_upper_reg(400.0, 300.0) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(NumericError):
        gamma_upper(400.0, 300.0)
    with pytest.raises(NumericError):
        gamma_lower(400.0, 500.0)
    # Gamma(180) alone is past the double range, the lower integral to 1 is
    # not: it is e^-1 * sum over k of 1 / (180 * 181 * ... * (180 + k)).
    terms, term = [], 1.0
    for j in range(20):
        term /= 180.0 + j
        terms.append(term)
    want = math.exp(-1.0) * math.fsum(terms)
    assert gamma_lower(180.0, 1.0) == pytest.approx(want, rel=1e-13, abs=0.0)


def _log_pmf_mpmath(a, lam, m, n, dps=50):
    """log P(N = n) from the closed form of ``MaxUExp._count_pmf`` in
    mpmath at ``dps`` digits: [P(n+1, am) + (c/s) r^(n+1) P(n+1, as) +
    a lam r^(n+1) Q(n, as)] / (a m), s = m + lam, c = lam n - m, r = m/s."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, lam, m = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(m)
        s = m + lam
        r_n1 = (m / s) ** (n + 1)
        total = mpmath.gammainc(n + 1, 0, a * m, regularized=True)
        total += (lam * n - m) / s * r_n1 * mpmath.gammainc(n + 1, 0, a * s, regularized=True)
        if n > 0:
            total += a * lam * r_n1 * mpmath.gammainc(n, a * s, mpmath.inf, regularized=True)
        return float(mpmath.log(total / (a * m)))


def _budget(log_p):
    """|error of log P| allowed: 1e-12 absolute plus 4 ulps of log P."""
    return 1e-12 + 4.0 * sys.float_info.epsilon * abs(log_p)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda u: 10.0**u)


_DRAWS = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
_COUNT_LAWS = given(
    a=_log_uniform(1e-2, 1e2),
    lam=_log_uniform(1e-2, 1e2),
    m=_log_uniform(1e-3, 1e3),
    n=st.one_of(st.integers(0, 9), st.integers(10, 99), st.integers(100, 500)),
)


@_DRAWS
@_COUNT_LAWS
def test_count_kernel_against_mpmath(a, lam, m, n):
    """Both routes of the count kernel, to 1e-12 plus 4 ulps of log P,
    wherever a lam >= 0.1 and P itself is at least 1e-300."""
    assume(a * lam >= 0.1)
    want = _log_pmf_mpmath(a, lam, m, n)
    assume(want >= math.log(1e-300))
    got = MaxUExp(a, lam)._count_pmf(m, n)[1]
    assert abs(got - want) <= _budget(want), (a, lam, m, n, got, want)


def _log_sf_mpmath(a, lam, m, n, dps=60):
    """log P(N >= n) from the closed form of ``MaxUExp._log_count_sf`` in
    mpmath at ``dps`` digits: [P(n, y) - (n/y) P(n+1, y)] + r^n [Q(n, z) +
    (n/z) P(n+1, z)], y = a m, z = a (m + lam), r = m/(m + lam)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, lam, m = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(m)
        y, z = a * m, a * (m + lam)
        p = lambda s, x: mpmath.gammainc(s, 0, x, regularized=True)
        uniform = p(n, y) - n / y * p(n + 1, y)
        q = mpmath.gammainc(n, z, mpmath.inf, regularized=True)
        tail = (m / (m + lam)) ** n * (q + n / z * p(n + 1, z))
        return float(mpmath.log(uniform + tail))


@_DRAWS
@_COUNT_LAWS
def test_count_tail_against_mpmath(a, lam, m, n):
    """The closed-form count tail, to 1e-12 plus 4 ulps of log P(N >= n),
    wherever P(N >= n) is at least 1e-300."""
    assume(n >= 1)
    want = _log_sf_mpmath(a, lam, m, n)
    assume(want >= math.log(1e-300))
    got = MaxUExp(a, lam)._log_count_sf(m, n)
    assert abs(got - want) <= _budget(want), (a, lam, m, n, got, want)


def _log_moment_mpmath(a, lam, k, dps=50):
    """log E(X^k) for -2 < k != 0 in mpmath at ``dps`` digits, from the
    density split at a.  With x = a lam, s = k + 1 and g, G the lower and
    upper incomplete gammas, E(X^k) = lam^-s [A + g(k+2, x)]/a +
    lam^-k G(k+1, x), where A = [x^s (1 - e^-x) - g(k+2, x)]/s integrates
    u^k (1 - e^-u) over (0, x); at s = 0 it is Ein(x) = E1(x) + log x +
    Euler's constant."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        a, lam, k = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(k)
        x, s = a * lam, k + 1
        g = mpmath.gammainc(k + 2, 0, x)
        if s == 0:
            head = mpmath.e1(x) + mpmath.log(x) + mpmath.euler
        else:
            head = (x**s * -mpmath.expm1(-x) - g) / s
        value = lam**-s * (head + g) / a + lam**-k * mpmath.gammainc(k + 1, x, mpmath.inf)
        return float(mpmath.log(value))


@_DRAWS
@given(
    a=_log_uniform(1e-2, 1e2),
    lam=_log_uniform(1e-2, 1e2),
    k=st.one_of(
        st.floats(-2.0, 0.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 60.0, exclude_min=True),
    ),
)
def test_moment_kernel_against_mpmath(a, lam, k):
    """The moment kernel at every order k in (-2, 0) and (0, 60], to 1e-12
    plus 4 ulps of log E(X^k), wherever E(X^k) is at least 1e-300."""
    want = _log_moment_mpmath(a, lam, k)
    assume(want >= math.log(1e-300))
    got = MaxUExp(a, lam)._log_moment(k)
    assert abs(got - want) <= _budget(want), (a, lam, k, got, want)


def test_count_tail_at_a_large_order():
    """Up to a m = n the uniform bracket is Kummer's M times the lead
    y^n e^-y / n!, whose logs of size n log n cancel: taken as they stand,
    they put the tail 1.1e-11 off here, 11 times the budget."""
    a, lam, m, n = 1.0, 100.0, 9950.0, 10000
    want = _log_sf_mpmath(a, lam, m, n)
    got = MaxUExp(a, lam)._log_count_sf(m, n)
    assert abs(got - want) <= _budget(want), (got, want)


def test_posterior_mean_where_the_lower_gamma_is_subnormal():
    """At m = 6630.4, n = 9999 scipy's P(10001, 6630.4) is subnormal, and its
    own log put the posterior mean 50% off; Kummer's M takes over there.
    E(xi | N = n) = (n+1)/m P(N = n+1)/P(N = n)."""
    a, lam, m, n = 1.0, 1e4, 6630.4, 9999
    assert cython_special.gammainc(n + 2.0, a * m) < sys.float_info.min
    log_ratio = _log_pmf_mpmath(a, lam, m, n + 1, dps=60) - _log_pmf_mpmath(a, lam, m, n, dps=60)
    want = (n + 1) / m * math.exp(log_ratio)
    got = MixedPoissonMaxUExp(MaxUExp(a, lam)).posterior_mean(m, n)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class _CountingGammas:
    """Stand-in for ``cython_special`` that records each incomplete gamma
    call with its arguments."""

    def __init__(self):
        self.calls = []

    def gammainc(self, alpha, x):
        self.calls.append(("P", alpha, x))
        return cython_special.gammainc(alpha, x)

    def gammaincc(self, alpha, x):
        self.calls.append(("Q", alpha, x))
        return cython_special.gammaincc(alpha, x)

    def hyp1f1(self, a, b, x):
        return cython_special.hyp1f1(a, b, x)


@pytest.mark.parametrize(
    "a,lam,m,n,route",
    [
        (1.0, 1.0, 0.5, 3, "linear"),  # c > 0
        (1.0, 1.0, 5.0, 1, "linear"),  # c < 0, the pair cancels to about half of P1
        (1.0, 1.0, 1e100, 0, "log"),  # lst(1e100): the pair cancels to 2e-100
        (1.0, 1.0, 1e-3, 120, "log"),  # P(121, 1e-3) underflows: Kummer's M
        (1.0, 1000.0, 1.0, 5, "log"),  # Q(5, 1001) underflows: the continued fraction
        (1.0, 600.0, 15.0, 199, "log"),  # r^200 = 3e-323, all three gammas normal
    ],
)
def test_count_kernel_routes(monkeypatch, a, lam, m, n, route):
    """Each route against 150-digit mpmath, with each gamma evaluated once:
    the log route reuses the values the linear route computed."""
    gammas = _CountingGammas()
    monkeypatch.setattr(distribution, "_cs", gammas)
    monkeypatch.setattr(numerics, "_cs", gammas)
    logged = []
    for name in ("_log_from_p", "_log_from_q"):
        inner = getattr(distribution, name)
        recorder = lambda *args, inner=inner: logged.append(args) or inner(*args)
        monkeypatch.setattr(distribution, name, recorder)
    got = MaxUExp(a, lam)._count_pmf(m, n)[1]
    want = _log_pmf_mpmath(a, lam, m, n, dps=150)
    assert abs(got - want) <= _budget(want), (got, want)
    assert (route == "log") == bool(logged)
    expected = [("P", n + 1.0, a * m), ("P", n + 1.0, a * (lam + m))]
    if n > 0:
        expected.append(("Q", n, a * (lam + m)))
    assert sorted(gammas.calls) == sorted(expected)
