import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mpmue import (
    DomainError,
    ErlangMaxUExp,
    ExpMaxUExp,
    MaxUExp,
    MixedPoissonMaxUExp,
    NumericError,
    PowerTransform,
    ProcessPath,
    RangeError,
    RandomStream,
    TableTransform,
    conditional_binomial_pmf,
    to_cumulative,
    to_increments,
)
from mpmue.rng import _BLOCK


@pytest.fixture
def pp():
    return MixedPoissonMaxUExp(MaxUExp(1.0, 1.0))


def test_pmf_anchor_values(pp):
    assert pp.pmf(1.0, 0) == pytest.approx(0.41595437964, rel=1e-9)
    pp2 = MixedPoissonMaxUExp(MaxUExp(2.0, 1.0))
    assert pp2.pmf(1.0, 1) == pytest.approx(0.30157598487, rel=1e-9)


def test_pmf_validation(pp):
    with pytest.raises(DomainError):
        pp.pmf(0.0, 1)
    with pytest.raises(DomainError):
        pp.pmf(-1.0, 1)
    with pytest.raises(DomainError):
        pp.pmf(1.0, -1)
    with pytest.raises(DomainError):
        pp.pmf(1.0, 1.5)


def test_pmf_mass_and_truncation(pp):
    for m in (0.5, 1.0, 2.0):
        cut = pp.truncation_point(m, tail=1e-10)
        mass = math.fsum(pp.pmf(m, n) for n in range(cut + 1))
        assert mass == pytest.approx(1.0, abs=1e-8)
    assert pp.truncation_point(1.0, tail=1e-4) <= pp.truncation_point(1.0, tail=1e-12)
    # The cutoff is the first count whose tail reaches the target, with no
    # cap: the bound is the exact tail, so at m = 1e3 it is the true 1e-12
    # cutoff, 27645.
    for m, tail in ((1.0, 1e-12), (2.0, 1e-4), (1e3, 1e-12), (1e4, 1e-12)):
        cut = pp.truncation_point(m, tail)
        assert pp.pmf_upper_tail_bound(m, cut) <= tail < pp.pmf_upper_tail_bound(m, cut - 1)
    assert pp.truncation_point(1.0) == 40
    assert pp.truncation_point(1e3) == 27_645
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(DomainError):
            pp.truncation_point(1.0, tail=bad)


def test_tail_bound_dominates_actual_tail(pp):
    cut = pp.truncation_point(1.0, tail=1e-13)
    probs = [pp.pmf(1.0, n) for n in range(cut + 1)]
    for kk in (3, 7, 15):
        actual = max(0.0, 1.0 - math.fsum(probs[:kk]))
        assert actual <= pp.pmf_upper_tail_bound(1.0, kk) + 1e-12
    # Across parameters and clock values, from the body of the law to four
    # times its mean; the bound never increases with the count.
    for a, lam in ((1.0, 1.0), (2.0, 0.5), (0.01, 100.0), (100.0, 0.01)):
        law = MixedPoissonMaxUExp(MaxUExp(a, lam))
        for m in (0.5, 2.0, 50.0):
            mean = math.ceil(law.mean_variance(m)[0])
            probs = [law.pmf(m, n) for n in range(4 * mean + 8)]
            bounds = []
            for kk in sorted({1, 2, mean, 2 * mean + 1, len(probs)}):
                actual = max(0.0, 1.0 - math.fsum(probs[:kk]))
                bounds.append(law.pmf_upper_tail_bound(m, kk))
                assert actual <= bounds[-1] + 1e-12
            assert all(b <= a2 for a2, b in zip(bounds[:-1], bounds[1:]))


def _mpmath_q(mpmath, s, x):
    """Q(s, x) for x > s, from the integral of (1 + v/x)^(s-1) e^-v over
    (0, inf); mpmath's own Q does not converge at these orders."""
    tail = mpmath.quad(lambda v: mpmath.exp((s - 1) * mpmath.log1p(v / x) - v), [0, mpmath.inf])
    return mpmath.exp(s * mpmath.log(x) - x - mpmath.loggamma(s)) * tail / x


def test_count_law_where_q_underflows_at_large_orders(pp):
    # n = 2^35 at m = 2^36: Q(n, m + 1) underflows, and the continued
    # fraction gives its log.  The references are the closed forms of pmf
    # and of the tail at a = lam = 1, in 40-digit mpmath.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n, m = mpmath.mpf(2) ** 35, mpmath.mpf(2) ** 36
        z, r = m + 1, m / (m + 1)
        q = lambda s, x: _mpmath_q(mpmath, s, x)
        p = lambda s, x: 1 - q(s, x)
        pmf = (p(n + 1, m) + (n - m) / z * r ** (n + 1) * p(n + 1, z) + r ** (n + 1) * q(n, z)) / m
        tail = p(n, m) - n / m * p(n + 1, m) + r**n * (q(n, z) + n / z * p(n + 1, z))
    assert pp.pmf(2.0**36, 2**35) == pytest.approx(float(pmf), rel=1e-14)
    assert pp.pmf_upper_tail_bound(2.0**36, 2**35) == pytest.approx(float(tail), rel=1e-14)


def test_tail_bound_takes_counts_as_pmf_does(pp):
    assert pp.pmf_upper_tail_bound(2.0, 0) == 1.0
    for bad in (2.5, 2.0, -1, math.nan, math.inf):
        with pytest.raises(DomainError):
            pp.pmf_upper_tail_bound(2.0, bad)
        with pytest.raises(DomainError):
            pp.pmf(2.0, bad)


def test_mean_variance_closed_form(pp):
    mean, var = pp.mean_variance(2.0)
    assert mean == pytest.approx(2.2642411177, rel=1e-9)
    assert var == pytest.approx(5.6416800240, rel=1e-9)
    # Law of total variance: m E(xi) + m^2 Var(xi).
    xi = pp.xi
    assert var == pytest.approx(2.0 * xi.mean() + 4.0 * xi.variance(), rel=1e-12)
    assert var > mean
    # Var(xi) = 1/lam^2 + ... passes the double range at lam = 1e-300.
    with pytest.raises(NumericError):
        MixedPoissonMaxUExp(MaxUExp(1.0, 1e-300)).mean_variance(1.0)
    # m^2 Var(xi) passes the double range at m = 1e200.
    with pytest.raises(NumericError):
        pp.mean_variance(1e200)


@pytest.mark.parametrize("a,lam,m", [(1e-300, 1e-300, 1e-12), (1e-300, 1e-300, 1.0), (1.0, 1e-300, 1.0)])
def test_truncation_point_past_two_to_the_53_raises_typed_error(a, lam, m):
    # The tail stays above 1e-12 at every count up to 2^53; a range over a
    # cutoff past 2^63 raised a raw OverflowError.
    with pytest.raises(NumericError):
        MixedPoissonMaxUExp(MaxUExp(a, lam)).truncation_point(m)


def test_pgf_domain_and_derivative(pp):
    for z in (-1.0, 1.0, 1.5, -2.0):
        with pytest.raises(DomainError):
            pp.pgf(1.0, z)
    # d/dz at 0 extracts P(N = 1).
    h = 1e-5
    deriv = (pp.pgf(1.0, h) - pp.pgf(1.0, -h)) / (2.0 * h)
    assert deriv == pytest.approx(pp.pmf(1.0, 1), abs=1e-8)


def test_posterior_reduces_to_prior_at_zero_time(pp):
    # m -> 0 carries no information, so the posterior tends to the prior.
    xi = pp.xi
    for x in (0.4, 0.9, 1.7):
        assert pp.posterior_pdf(1e-9, 0, x) == pytest.approx(xi.pdf(x), rel=1e-6)
    assert pp.posterior_mean(1e-9, 0) == pytest.approx(xi.mean(), rel=1e-6)


def test_posterior_pdf_rejects_nan(pp):
    with pytest.raises(DomainError):
        pp.posterior_pdf(1.0, 2, math.nan)
    assert pp.posterior_pdf(1.0, 2, math.inf) == pp.posterior_pdf(1.0, 2, -math.inf) == 0.0


def test_posterior_mean_anchor_and_monotonicity(pp):
    assert pp.posterior_mean(1.0, 0) == pytest.approx(0.7166048804, rel=1e-8)
    means = [pp.posterior_mean(1.0, n) for n in range(8)]
    assert all(b > a for a, b in zip(means[:-1], means[1:]))


def test_factorial_moment_first_is_mean(pp):
    mean, _ = pp.mean_variance(1.3)
    assert pp.factorial_moment(1.3, 1) == pytest.approx(mean, rel=1e-12)
    with pytest.raises(DomainError):
        pp.factorial_moment(1.0, 0)
    # m^k E(xi^k) in log space: overflow is a NumericError, and a tiny clock
    # offsets a huge moment (E(xi^120) is about 120!).
    with pytest.raises(NumericError):
        pp.factorial_moment(1e3, 120)
    small = 1e-180 * (1e-180 * pp.xi.moment(120.0))
    assert pp.factorial_moment(1e-3, 120) == pytest.approx(small, rel=1e-12, abs=0.0)


def test_ordered_pmf_reductions(pp):
    assert pp.ordered_pmf([1.0], [2]) == pytest.approx(pp.pmf(1.0, 2), rel=1e-12)
    # Counting paths cannot decrease.
    assert pp.ordered_pmf([0.5, 1.5], [3, 1]) == 0.0
    with pytest.raises(DomainError):
        pp.ordered_pmf([1.5, 0.5], [1, 2])
    with pytest.raises(DomainError):
        pp.ordered_pmf([], [])
    with pytest.raises(DomainError):
        pp.ordered_pmf([1.0, 2.0], [1])
    # Marginalizing the later count recovers the single-time pmf.
    total = math.fsum(pp.ordered_pmf([0.6, 1.4], [1, k2]) for k2 in range(1, 60))
    assert total == pytest.approx(pp.pmf(0.6, 1), abs=1e-10)


def test_increments_pmf_matches_ordered(pp):
    mus = [0.5, 1.2, 2.0]
    ms = [1, 0, 2]
    want = pp.ordered_pmf(mus, to_cumulative(ms))
    assert pp.increments_pmf(mus, ms) == want
    with pytest.raises(DomainError):
        pp.increments_pmf(mus, [1, -1, 2])


def test_count_vector_maps_roundtrip():
    ms = [2, 0, 3, 1]
    assert to_increments(to_cumulative(ms)) == ms
    assert to_cumulative(ms) == [2, 2, 5, 6]
    with pytest.raises(DomainError):
        to_increments([1, 0])
    with pytest.raises(DomainError):
        to_cumulative([1, -2])


def test_conditional_binomial(pp):
    # Given N(t) = n, the count at an earlier operational time is binomial
    # with success probability mu_s / mu_t, free of the mixing law.
    n, mu_s, mu_t = 5, 1.0, 2.5
    p = mu_s / mu_t
    for j in range(n + 1):
        want = math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
        assert conditional_binomial_pmf(n, mu_s, mu_t, j) == pytest.approx(want, rel=1e-12)
        ratio = pp.ordered_pmf([mu_s, mu_t], [j, n]) / pp.pmf(mu_t, n)
        assert ratio == pytest.approx(want, rel=1e-9)
    assert conditional_binomial_pmf(n, mu_s, mu_t, n + 1) == 0.0
    with pytest.raises(DomainError):
        conditional_binomial_pmf(n, 2.5, 1.0, 1)


def test_power_transform():
    tr = PowerTransform(2.0)
    assert tr.value(3.0) == pytest.approx(9.0)
    assert tr.inverse(9.0) == pytest.approx(3.0)
    assert tr.value(0.0) == 0.0
    with pytest.raises(DomainError):
        PowerTransform(0.0)
    with pytest.raises(DomainError):
        tr.value(-1.0)


@pytest.mark.parametrize(
    "call",
    [lambda: PowerTransform(400.0).value(10.0), lambda: PowerTransform(0.0025).inverse(10.0)],
    ids=["value", "inverse"],
)
def test_power_transform_overflow_is_typed(call):
    # Float powers past the double range raised a raw OverflowError.
    with pytest.raises(NumericError):
        call()


def test_table_transform():
    tr = TableTransform([(0.0, 0.0), (1.0, 2.0), (3.0, 4.0)])
    assert tr.value(0.5) == pytest.approx(1.0)
    assert tr.value(2.0) == pytest.approx(3.0)
    assert tr.inverse(3.0) == pytest.approx(2.0)
    with pytest.raises(RangeError):
        tr.value(4.0)
    with pytest.raises(RangeError):
        tr.inverse(5.0)
    with pytest.raises(DomainError):
        TableTransform([(0.0, 0.0)])
    with pytest.raises(DomainError):
        TableTransform([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(DomainError):
        TableTransform([(0.0, 0.0), (1.0, 2.0), (2.0, 1.5)])
    # An infinite last anchor was accepted: value and inverse then gave nan
    # past the last finite one, and a path batch on it expected nan events.
    for anchor in [(math.inf, math.inf), (2.0, math.inf), (math.inf, 3.0), (2.0, math.nan)]:
        with pytest.raises(DomainError, match="table"):
            TableTransform([(0.0, 0.0), (1.0, 2.0), anchor])


def test_table_transform_rejects_slopes_past_the_double_range():
    # np.interp steps along each segment's slope: a slope of 1e600 gave
    # value(5e-301) = inf and inverse(5e299) = 0.0, and one of 1e-600 gave
    # inverse(5e-301) = inf, inside the table's range.
    for points in (
        [(0.0, 0.0), (1e-300, 1e300)],
        [(0.0, 0.0), (1e300, 1e-300)],
        [(0.0, 0.0), (1.0, 2.0), (1.0 + 2.0**-52, 1e300)],
        [(0.0, 0.0), (1.0, 1e-300), (2.0, 1e-300 + 1e-310)],
    ):
        with pytest.raises(DomainError, match="segment"):
            TableTransform(points)
    # The steepest and flattest slopes the contract tables use still pass.
    steep = TableTransform([(0.0, 0.0), (1.0, 5e299), (2.0, 1e300)])
    flat = TableTransform([(0.0, 0.0), (1.0, 5e-301), (2.0, 1e-300)])
    for tr, mu in ((steep, 2.5e299), (flat, 2.5e-301)):
        assert tr.value(0.5) == pytest.approx(mu, rel=1e-15)
        assert tr.inverse(mu) == pytest.approx(0.5, rel=1e-15)


def test_process_path_container():
    path = ProcessPath(xi=1.5, events=(0.2, 0.9), horizon=2.0)
    assert path.count_at(0.1) == 0
    assert path.count_at(0.2) == 1
    assert path.count_at(2.0) == 2
    with pytest.raises(DomainError):
        path.count_at(2.5)
    with pytest.raises(DomainError):
        path.count_at(-0.1)


def test_simulate_path_deterministic(pp):
    p1 = pp.simulate_path(PowerTransform(1.0), 2.0, RandomStream(7))
    p2 = pp.simulate_path(PowerTransform(1.0), 2.0, RandomStream(7))
    assert p1.xi == p2.xi
    assert p1.events == p2.events
    assert all(0.0 < t <= 2.0 for t in p1.events)
    assert all(b > a for a, b in zip(p1.events[:-1], p1.events[1:]))


@pytest.mark.parametrize("seed", [np.int64(2), np.uint64(2)])
def test_simulate_paths_takes_numpy_integer_seeds(pp, seed):
    got = pp.simulate_paths(PowerTransform(1.0), 2.0, 20, seed=seed)
    want = pp.simulate_paths(PowerTransform(1.0), 2.0, 20, seed=2)
    assert [p.events for p in got] == [p.events for p in want]


def test_simulate_paths_substreams_independent(pp):
    paths = pp.simulate_paths(PowerTransform(1.0), 1.0, 50, seed=99)
    assert len(paths) == 50
    again = pp.simulate_paths(PowerTransform(1.0), 1.0, 50, seed=99)
    assert [p.events for p in paths] == [p.events for p in again]
    xis = {p.xi for p in paths}
    assert len(xis) == 50


def test_time_transform_changes_intensity(pp):
    # Under mu(t) = t^2 the expected count over [0, 2] quadruples relative
    # to mu(t) = t... it equals E N(mu(2)) = E N(4).
    paths = pp.simulate_paths(PowerTransform(2.0), 2.0, 4_000, seed=5)
    counts = np.array([p.count_at(2.0) for p in paths], dtype=float)
    mean4, _ = pp.mean_variance(4.0)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - mean4) < 4.0 * se


def test_count_at_matches_event_scan(pp):
    for path in pp.simulate_paths(PowerTransform(1.5), 3.0, 40, seed=5):
        for t in (0.0, 0.4, 1.0, 2.2, 3.0, *path.events):
            assert path.count_at(t) == sum(1 for e in path.events if e <= t)


def test_pmf_never_exceeds_one(pp):
    # At a vanishing clock the three kernel terms cancel to 1 up to rounding.
    assert pp.pmf(1e-300, 0) <= 1.0
    for m in (1e-300, 1e-200, 1e-20, 1e-8):
        assert 0.0 <= pp.pmf(m, 0) <= 1.0


def _log_binomial_reference(n, p, j):
    # log C(n, j) as a sum of logs, independent of lgamma.
    log_comb = math.fsum(math.log((n - j + i) / i) for i in range(1, j + 1))
    return log_comb + j * math.log(p) + (n - j) * math.log(1.0 - p)


@pytest.mark.parametrize("n,j", [(2000, 1000), (2000, 3), (10**6, 500_000), (10**6, 499_000)])
def test_conditional_binomial_large_counts(n, j):
    want = math.exp(_log_binomial_reference(n, 0.5, j))
    # The log weight is near lgamma(n + 1); allow a few ulps of that.
    rel = 1e-14 * math.lgamma(n + 1.0)
    assert conditional_binomial_pmf(n, 1.0, 2.0, j) == pytest.approx(want, rel=rel)


CLOCKS = [
    (PowerTransform(1.0), 2.0),
    (PowerTransform(1.5), 3.0),
    (PowerTransform(2.0), 5.15),
    (TableTransform([(0.0, 0.0), (1.0, 2.0), (3.0, 4.0), (4.0, 9.0)]), 4.0),
]


@pytest.mark.parametrize("clock,horizon", CLOCKS)
def test_batch_prefix_matches_single_paths(pp, clock, horizon):
    # Path i of a batch is simulate_path on substream i, bit for bit, and a
    # batch of k is the first k paths of a batch of N.
    batch = pp.simulate_paths(clock, horizon, 300, seed=17)
    prefix = pp.simulate_paths(clock, horizon, 40, seed=17)
    assert [(p.xi, p.events) for p in prefix] == [(p.xi, p.events) for p in batch[:40]]
    root = RandomStream(17)
    for i, path in enumerate(batch[:60]):
        single = pp.simulate_path(clock, horizon, root.substream(i))
        assert (single.xi, single.events, single.horizon) == (path.xi, path.events, horizon)
    # Counts are long enough to need several rounds of exponentials.
    assert max(len(p.events) for p in batch) > 16


def _event_loop(pp, clock, horizon, stream):
    # The event-at-a-time simulation: one exponential per arrival, accepted
    # while the running sum stays within xi mu(horizon).  The clock inverse
    # takes floats: it is one numpy expression for floats and arrays alike.
    xi = pp.xi.sample(stream)
    budget = xi * clock.value(horizon)
    events, s = [], 0.0
    while True:
        s += stream.exponential(1.0)
        if s > budget:
            return xi, events
        events.append(min(clock.inverse(s / xi), horizon))


@pytest.mark.parametrize("clock,horizon", CLOCKS)
def test_batch_matches_event_loop(pp, clock, horizon):
    batch = pp.simulate_paths(clock, horizon, 100, seed=29)
    root = RandomStream(29)
    for i, path in enumerate(batch):
        stream = root.substream(i)
        assert _event_loop(pp, clock, horizon, stream) == (path.xi, path.events)
        assert stream.position == 3 + len(path.events)


def test_long_path_matches_event_loop(pp):
    # Rounds grow to a quarter of the draws so far, capped at _BLOCK draws,
    # and the path is still the event-at-a-time one, bit for bit:
    # - about 2e4 events, in growing rounds;
    # - past 5 * _BLOCK events, so at least one round is capped (the draws
    #   so far grow by a quarter a round, so some round starts between 4 and
    #   5 * _BLOCK draws);
    # - a stream at position 2^64 - 4, whose first round wraps mod 2^64.
    clock = PowerTransform(1.0)
    for horizon, position, fewest, most in (
        (3.5e4, 0, 1.5e4, 3e4),
        (3.5e5, 0, 5 * _BLOCK, 3e5),
        (50.0, 2**64 - 4, 50, 200),
    ):
        stream, loop = RandomStream(1, position), RandomStream(1, position)
        path = pp.simulate_path(clock, horizon, stream)
        assert fewest < len(path.events) < most
        assert _event_loop(pp, clock, horizon, loop) == (path.xi, path.events)
        assert stream.position == loop.position == position + 3 + len(path.events)


def test_simulate_path_consumes_its_draws(pp):
    # xi takes two positions and each arrival one, plus the one that passes
    # the budget, so a stream can carry on after a path.
    stream = RandomStream(3)
    path = pp.simulate_path(PowerTransform(2.0), 5.15, stream)
    assert stream.position == 3 + len(path.events)
    again = RandomStream(3, position=stream.position)
    assert pp.simulate_path(PowerTransform(1.0), 2.0, stream) == pp.simulate_path(
        PowerTransform(1.0), 2.0, again
    )


def test_simulate_past_two_to_the_53_events_raises_typed_error():
    # xi is about 1e300 here, so the event budget xi mu(1) passes 2^53, the
    # bound truncation_point uses; the rounds would fill memory instead.
    proc = MixedPoissonMaxUExp(MaxUExp(1e-300, 1e-300))
    with pytest.raises(NumericError):
        proc.simulate_paths(PowerTransform(1.0), 1.0, 3, seed=1)
    stream = RandomStream(1)
    with pytest.raises(NumericError):
        proc.simulate_path(PowerTransform(1.0), 1.0, stream)
    assert stream.position == 0


def test_simulate_past_the_event_cap_raises_at_once():
    # xi is near 1e8 at lam = 1e-8, so one path to horizon 1 expects about
    # 1e8 events, past the batch cap of 2^24; the rounds would take minutes
    # and gigabytes.
    proc = MixedPoissonMaxUExp(MaxUExp(1.0, 1e-8))
    with pytest.raises(NumericError):
        proc.simulate_paths(PowerTransform(1.0), 1.0, 1, seed=1)
    with pytest.raises(NumericError):
        proc.simulate_path(PowerTransform(1.0), 1.0, RandomStream(1))


def test_counts_are_integers_from_zero_to_two_to_the_53(pp):
    """Every count, order and draw count takes a Python or numpy integer
    from its lower bound to 2^53, and raises DomainError otherwise: for a
    non-integral float, 2.0 included, a negative count, and one past 2^53,
    also one with too many digits to print."""
    stream = RandomStream(1)
    bad_counts = (2.7, 2.0, -1, 2**53 + 1, 10**5000)
    calls = [
        lambda k: pp.pmf(1.0, k),
        lambda k: pp.ordered_pmf([1.0, 2.0], [1, k]),
        lambda k: to_cumulative([1, k]),
        lambda k: to_increments([k]),
        lambda k: pp.simulate_paths(PowerTransform(1.0), 1.0, k, seed=1),
        lambda k: MaxUExp(1.0, 1.0).sample_many(stream, k),
        lambda k: ErlangMaxUExp(2, 1.0, 1.0).sample_many(stream, k),
        lambda k: ErlangMaxUExp(k, 1.0, 1.0),
    ]
    for call in calls:
        for k in bad_counts:
            with pytest.raises(DomainError):
                call(k)
    assert pp.pmf(1.0, np.int64(3)) == pp.pmf(1.0, 3)
    assert pp.ordered_pmf([1.0, 2.0], [np.int64(1), 3]) == pp.ordered_pmf([1.0, 2.0], [1, 3])
    assert to_cumulative([np.int64(1), 2]) == [1, 3]
    erlang = ErlangMaxUExp(np.int64(5), 1.0, 1.0)
    assert erlang.pdf(2.0) == ErlangMaxUExp(5, 1.0, 1.0).pdf(2.0)
    assert len(pp.simulate_paths(PowerTransform(1.0), 1.0, np.int64(2), seed=1)) == 2
    assert stream.position == 0
    # The count kernel takes counts up to 2^53 itself.
    assert 0.0 <= pp.pmf(1.0, 2**53) <= 1.0


def test_simulate_paths_empty_batch(pp):
    assert pp.simulate_paths(PowerTransform(1.0), 2.0, 0, seed=1) == []
    with pytest.raises(DomainError):
        pp.simulate_paths(PowerTransform(1.0), 2.0, -1, seed=1)


@pytest.mark.parametrize("clock,horizon", CLOCKS)
def test_batch_events_rise_within_horizon(pp, clock, horizon):
    for path in pp.simulate_paths(clock, horizon, 500, seed=23):
        ev = path.events
        assert all(0.0 < t <= horizon for t in ev)
        assert all(b > a for a, b in zip(ev[:-1], ev[1:]))
        assert all(type(t) is float for t in ev) and type(path.xi) is float


@pytest.mark.parametrize("clock,horizon", CLOCKS)
def test_path_batch_is_a_sequence_of_paths(pp, clock, horizon):
    batch = pp.simulate_paths(clock, horizon, 50, seed=31)
    assert len(batch) == 50
    root = RandomStream(31)
    for i in (0, 7, 49, -1, -50):
        want = _event_loop(pp, clock, horizon, root.substream(i % 50))
        assert (batch[i].xi, batch[i].events, batch[i].horizon) == (*want, horizon)
        assert type(batch[i]) is ProcessPath and type(batch[i].events) is list
    assert batch[np.int64(3)] == batch[3]
    for i in (50, -51):
        with pytest.raises(IndexError):
            batch[i]
    paths = list(batch)
    assert paths == [batch[i] for i in range(50)]
    for cut in (slice(None, 40), slice(10, 20), slice(45, None), slice(None, None, -3), slice(60, 70)):
        assert type(batch[cut]) is list and batch[cut] == paths[cut]
    assert batch.offsets[0] == 0 and batch.offsets[-1] == len(batch.events)
    assert batch.events.tolist() == [t for p in paths for t in p.events]


def test_path_batch_equality(pp):
    batch = pp.simulate_paths(PowerTransform(1.5), 3.0, 40, seed=5)
    same = pp.simulate_paths(PowerTransform(1.5), 3.0, 40, seed=5)
    other = pp.simulate_paths(PowerTransform(1.5), 3.0, 40, seed=6)
    assert batch == same and not batch != same
    assert batch != other and not batch == other
    assert batch == list(batch) and list(batch) == batch and batch == tuple(batch)
    assert batch != list(batch)[:-1] and batch != list(other)
    assert batch != pp.simulate_paths(PowerTransform(1.5), 3.0, 39, seed=5)
    assert (batch == "paths") is False
    empty = pp.simulate_paths(PowerTransform(1.0), 2.0, 0, seed=1)
    assert empty == [] and len(empty) == 0 and list(empty) == [] and empty[:5] == []


@pytest.mark.parametrize("clock,horizon", CLOCKS)
def test_counts_at_matches_count_at(pp, clock, horizon):
    batch = pp.simulate_paths(clock, horizon, 200, seed=37)
    times = [0.0, horizon, *np.linspace(0.0, horizon, 17).tolist(), *batch.events.tolist()]
    for t in times:
        counts = batch.counts_at(t)
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [p.count_at(t) for p in batch]
    for bad in (-1e-300, np.nextafter(horizon, math.inf), math.nan, np.array([1.0])):
        with pytest.raises(DomainError):
            batch.counts_at(bad)
    assert pp.simulate_paths(clock, horizon, 0, seed=1).counts_at(horizon).tolist() == []


def test_steep_clock_raises_rather_than_put_events_at_zero(pp):
    # Under t^(1/1000) the clock's inverse y^1000 underflows: 1 126 of the
    # 2 325 events of these 2 000 paths map to 0, and consecutive ones tie.
    with pytest.raises(NumericError):
        pp.simulate_paths(PowerTransform(1e-3), 2.0, 2000, seed=1)
    stream = RandomStream(1)
    with pytest.raises(NumericError):
        pp.simulate_path(PowerTransform(1e-3), 2.0, stream)
    assert stream.position == 0
    # Under t^(1/50) the events still rise, and match the event loop.
    clock = PowerTransform(0.02)
    batch = pp.simulate_paths(clock, 2.0, 2000, seed=1)
    for i, path in enumerate(batch[:100]):
        assert _event_loop(pp, clock, 2.0, RandomStream(1).substream(i)) == (path.xi, path.events)
    assert 0.0 < batch.events.min() and batch.counts_at(0.0).max() == 0


def test_path_batch_memory_per_event(pp):
    # 1.27e6 events in 1000 paths: the batch peaks below 64 bytes per event
    # and holds at most 16 (the flat float64 column is 8), also once a path
    # has been indexed, sliced or iterated.
    tracemalloc.start()
    try:
        batch = pp.simulate_paths(PowerTransform(1.0), 1100.0, 1000, seed=1)
        held, peak = tracemalloc.get_traced_memory()
        batch[0]
        after = [tracemalloc.get_traced_memory()[0]]
        batch[:200]
        after.append(tracemalloc.get_traced_memory()[0])
        for _ in batch:
            pass
        after.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    events = len(batch.events)
    assert events > 10**6
    assert peak <= 64 * events
    assert held <= 16 * events
    assert all(h <= 16 * events for h in after), [h / events for h in after]


def test_table_inverse_array_matches_scalar():
    # At the anchor (2.9, 2.75) the segment to its left would give
    # 0.7 + 1.0 * (2.9 - 0.7) = 2.9000000000000004.
    tr = TableTransform([(0.0, 0.0), (0.3, 1.0), (0.7, 2.5), (2.9, 2.75), (5.0, 9.0)])
    ys = np.concatenate([tr.mus, np.linspace(0.0, 9.0, 1001), RandomStream(4).uniforms(500) * 9.0])
    ts = np.concatenate([tr.ts, np.linspace(0.0, 5.0, 1001)])
    floats = [tr.inverse(y) for y in ys.tolist()]
    assert tr.inverse(ys).tolist() == floats and all(type(t) is float for t in floats)
    assert tr.value(ts).tolist() == [tr.value(t) for t in ts.tolist()]
    assert tr.inverse(np.array(tr.mus)).tolist() == tr.ts
    assert [tr.value(t) for t in tr.ts] == tr.mus
    assert tr.inverse(np.zeros((2, 0))).shape == (2, 0)
    for bad in (np.array([1.0, 9.5]), np.array([-1e-300]), np.array([math.nan])):
        with pytest.raises(RangeError):
            tr.inverse(bad)


def test_power_inverse_array_matches_scalar():
    for c in (1.0, 1.5, 2.0):
        tr = PowerTransform(c)
        ys = RandomStream(6).uniforms(1000) * 30.0
        floats = [tr.inverse(y) for y in ys.tolist()]
        assert tr.inverse(ys).tolist() == floats and all(type(t) is float for t in floats)
        assert tr.value(ys).tolist() == [tr.value(y) for y in ys.tolist()]
        with pytest.raises(DomainError):
            tr.inverse(np.array([1.0, -1.0]))


STRESS_SCALES = [1e-300, 1e-12, 1.0, 1e12, 1e300]
STRESS_CLOCKS = [1e-320, 1e-300, 1e-12, 1.0, 1e12, 1e300, 1.7e308]
STRESS_COUNTS = [0, 1, 5, 1000, 10**6]


def _finite_or_typed(f, *args, probability=False):
    """1 for a finite float (within [0, 1] for a probability), 0 for a
    DomainError or NumericError; anything else fails the test."""
    try:
        v = f(*args)
    except (DomainError, NumericError):
        return 0
    assert type(v) is float and math.isfinite(v), (f.__name__, args, v)
    if probability:
        assert 0.0 <= v <= 1.0, (f.__name__, args, v)
    return 1


@pytest.mark.parametrize("a", STRESS_SCALES)
def test_count_laws_return_finite_or_raise_typed_errors(a):
    """The count kernels call the incomplete gammas without their argument
    checks; at extreme scales, clocks and counts only typed errors escape.
    ``truncation_point`` evaluates the count tail at orders up to 2^53, where
    Q underflows and the continued fraction takes over."""
    finite = 0
    for lam in STRESS_SCALES:
        xi = MaxUExp(a, lam)
        proc = MixedPoissonMaxUExp(xi)
        for k in (1e-12, 0.5, 1.5):
            finite += _finite_or_typed(xi.moment, k)
        for m in STRESS_CLOCKS:
            finite += _finite_or_typed(lambda m: float(proc.truncation_point(m)), m)
            finite += _finite_or_typed(lambda m: proc.mean_variance(m)[0], m)
            finite += _finite_or_typed(lambda m: proc.mean_variance(m)[1], m)
            for n in STRESS_COUNTS:
                finite += _finite_or_typed(proc.pmf, m, n, probability=True)
                finite += _finite_or_typed(proc.posterior_mean, m, n)
                finite += _finite_or_typed(xi.lst, m, probability=True)
                finite += _finite_or_typed(proc.pmf_upper_tail_bound, m, n, probability=True)
                if n >= 1:
                    erlang = ErlangMaxUExp(n, a, lam)
                    finite += _finite_or_typed(erlang.cdf, m, probability=True)
    assert finite > 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (m, n) of every count-kernel call, counted on the class."""
    calls = []
    kernel = MaxUExp._count_pmf

    def counted(self, m, n):
        calls.append((m, n))
        return kernel(self, m, n)

    monkeypatch.setattr(MaxUExp, "_count_pmf", counted)
    return calls


def test_posterior_mean_sweep_runs_the_kernel_once_per_count(kernel_calls):
    # posterior_mean asks for the tilted moment at n, then at n + 1, and the
    # law remembers its last one, so the next n finds it: 122 kernel calls
    # for 121 means, where recomputing both moments took 242.
    pp = MixedPoissonMaxUExp(MaxUExp(1.0, 1.0))
    means = [pp.posterior_mean(2.0, n) for n in range(121)]
    assert len(kernel_calls) == 122
    fresh = [MixedPoissonMaxUExp(MaxUExp(1.0, 1.0)).posterior_mean(2.0, n) for n in range(121)]
    assert means == fresh


def test_posterior_pdf_over_x_computes_its_normalizer_once(kernel_calls):
    pp = MixedPoissonMaxUExp(MaxUExp(1.0, 1.0))
    xs = [0.05 * i for i in range(1, 51)]
    values = [pp.posterior_pdf(1.5, 3, x) for x in xs]
    assert len(kernel_calls) == 1
    fresh = [MixedPoissonMaxUExp(MaxUExp(1.0, 1.0)).posterior_pdf(1.5, 3, x) for x in xs]
    assert values == fresh
    # The conditional mixing density is the n = 1 posterior at clock t.
    w = ExpMaxUExp(2.0, 0.5)
    kernel_calls.clear()
    values = [w.conditional_mixing_pdf(0.7, x) for x in xs]
    assert len(kernel_calls) == 1
    assert values == [ExpMaxUExp(2.0, 0.5).conditional_mixing_pdf(0.7, x) for x in xs]


def test_ordered_pmf_at_one_last_clock_and_count_runs_the_kernel_once(kernel_calls):
    # The conditional-binomial identity divides ordered_pmf([1, 2], [j, 4])
    # by pmf(2, 4); every j has the same last clock value and count.
    pp = MixedPoissonMaxUExp(MaxUExp(1.0, 1.0))
    values = [pp.ordered_pmf([1.0, 2.0], [j, 4]) for j in range(5)]
    assert len(kernel_calls) == 1
    assert values == [
        MixedPoissonMaxUExp(MaxUExp(1.0, 1.0)).ordered_pmf([1.0, 2.0], [j, 4]) for j in range(5)
    ]


def test_remembered_tilted_moments_are_the_recomputed_doubles(kernel_calls):
    # Calls that alternate two laws, two clock values and two counts: each
    # equals, bit for bit, the same call on a fresh law, and each law
    # remembers only its own last moment.
    laws = (MaxUExp(1.0, 1.0), MaxUExp(2.0, 0.5))
    cases = [
        (laws[i % 2], (0.5, 3.0)[i // 2 % 2], (2, 7)[i // 4 % 2]) for i in range(16)
    ] * 2
    for d, m, n in cases:
        fresh = MaxUExp(d.a, d.lam)
        pp, fresh_pp = MixedPoissonMaxUExp(d), MixedPoissonMaxUExp(fresh)
        assert d.log_tilted_moment(m, n).hex() == fresh.log_tilted_moment(m, n).hex()
        assert pp.posterior_pdf(m, n, 0.8).hex() == fresh_pp.posterior_pdf(m, n, 0.8).hex()
        assert pp.posterior_mean(m, n).hex() == fresh_pp.posterior_mean(m, n).hex()
        assert pp.ordered_pmf([m], [n]).hex() == fresh_pp.ordered_pmf([m], [n]).hex()
    kernel_calls.clear()
    d1, d2 = laws
    d1.log_tilted_moment(0.5, 2)
    d2.log_tilted_moment(0.5, 2)
    d1.log_tilted_moment(0.5, 2)
    d2.log_tilted_moment(0.5, 2)
    assert len(kernel_calls) == 2


def test_threads_sharing_a_law_read_only_whole_entries():
    # Four threads on one law step through the same four (m, n) at four
    # phases, so the remembered entry keeps changing under each of them.
    # A reader that saw one call's (m, n) with another's value would
    # return a wrong double.
    d = MaxUExp(1.0, 1.0)
    cases = [(0.5, 2), (3.0, 7), (0.75, 3), (8.0, 11)]
    want = {c: MaxUExp(1.0, 1.0).log_tilted_moment(*c) for c in cases}
    wrong = []

    def work(phase):
        for i in range(8000):
            c = cases[(i // 2 + phase) % 4]
            if d.log_tilted_moment(*c) != want[c]:
                wrong.append(c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
