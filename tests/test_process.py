import math

import numpy as np
import pytest

from mpmue import (
    DomainError,
    ErlangMaxUExp,
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
    # About 2e4 events: the rounds grow to a quarter of the draws so far,
    # and the path is still the event-at-a-time one, bit for bit.
    clock, horizon = PowerTransform(1.0), 3.5e4
    stream, loop = RandomStream(1), RandomStream(1)
    path = pp.simulate_path(clock, horizon, stream)
    assert 1.5e4 < len(path.events) < 3e4
    assert _event_loop(pp, clock, horizon, loop) == (path.xi, path.events)
    assert stream.position == loop.position == 3 + len(path.events)


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
