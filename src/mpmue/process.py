"""Counting process N(t) = N1(xi * mu(t)): a unit-rate Poisson process run on
the clock mu, sped up by one Max-U-Exp draw xi per path.

Counts at a single time follow the mixed Poisson law whose pmf is
m^n / n! * E(xi^n e^(-m xi)) with m = mu(t); joint laws over several times
reduce to the same tilted-moment kernel evaluated at the latest clock value.
The shared xi makes increments dependent (overdispersed), yet given
N(t) = n the earlier count N(s) is plain Binomial(n, mu(s)/mu(t)).

Simulated paths come as a ``PathBatch``: every path's xi and event times in
flat numpy columns and nothing else, counted at a time by ``counts_at`` in
one pass.  Indexing builds one ``ProcessPath`` from its slices of the
columns; a pass over the batch converts the columns for that pass only.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import abc
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .distribution import MaxUExp, _like
from .errors import (
    _COUNT_MAX, DomainError, NumericError, RangeError, _not_nan, _real, _require_count,
    _require_positive, _require_real, _scalar,
)
from .numerics import checked_exp
from .rng import _BLOCK, RandomStream, _uniform_block, substream_seeds

# Fewest exponentials drawn per active path in one round of ``_simulate``.
_ROUND = 8
# Most events a batch may expect, the sum of its budgets xi mu(horizon),
# checked before the first round.  A batch peaks at about 49 bytes per event
# (tracemalloc, 1.3e6 events in 1000 paths or 1.2e6 in 10), so 2^24 events
# is about 0.8 GB; the returned batch holds 8.
_EVENT_CAP = 2**24


class TimeTransform(Protocol):
    """A clock mu; ``value`` and ``inverse`` map a float to a float and an
    array to an array of its shape.  The library's clocks evaluate both as
    one numpy expression, so a float and a one-element array give the same
    value."""

    def value(self, t: float | np.ndarray) -> float | np.ndarray: ...

    def inverse(self, y: float | np.ndarray) -> float | np.ndarray: ...


class PowerTransform:
    """mu(t) = t^c for c > 0; c = 1 is the homogeneous clock."""

    __slots__ = ("c",)

    def __init__(self, c: float = 1.0):
        self.c = _require_positive("power exponent", c)

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        return self._power(t, self.c)

    def inverse(self, y: float | np.ndarray) -> float | np.ndarray:
        """mu^-1(y), for a float or an array."""
        return self._power(y, 1.0 / self.c)

    @staticmethod
    def _power(x: float | np.ndarray, p: float) -> float | np.ndarray:
        """x^p for finite x >= 0 (DomainError otherwise), NumericError where
        it passes the double range."""
        x = _real("time or clock value", x)
        if np.size(x) and not (np.min(x) >= 0.0 and np.max(x) < math.inf):
            raise DomainError("times and clock values must be finite and >= 0")
        with np.errstate(over="raise"):
            try:
                return _like(x, np.power(x, p))
            except FloatingPointError:
                raise NumericError(f"a clock value ** {p!r} overflows a double") from None


class TableTransform:
    """Piecewise-linear mu through (t_i, mu_i) anchors, starting at (0, 0).

    Both coordinates must be finite and strictly increasing, which makes
    each segment exactly invertible.  Each segment's slope and its
    reciprocal must be finite normal doubles, since ``np.interp`` steps
    along the slope: a steeper or flatter segment would give inf or 0
    inside the table's range.  Queries beyond the last anchor raise
    RangeError rather than extrapolate.
    """

    __slots__ = ("ts", "mus")

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = [(_require_real("table t", t), _require_real("table mu", m)) for t, m in points]
        if len(pts) < 2:
            raise DomainError("table needs at least two points")
        if pts[0] != (0.0, 0.0):
            raise DomainError("table must start at (0, 0)")
        tiny = sys.float_info.min
        for (t0, m0), (t1, m1) in zip(pts, pts[1:]):
            if not (t1 > t0 and m1 > m0):
                raise DomainError("table coordinates must be strictly increasing")
            dt, dm = t1 - t0, m1 - m0
            if not (tiny <= dm / dt < math.inf and tiny <= dt / dm < math.inf):
                raise DomainError(
                    f"table segment ({t0!r}, {m0!r}) to ({t1!r}, {m1!r}) has a slope or inverse "
                    "slope outside the normal double range"
                )
        self.ts, self.mus = (list(column) for column in zip(*pts))

    @staticmethod
    def _interpolate(xs: list[float], ys: list[float], x: float | np.ndarray) -> float | np.ndarray:
        """The polyline through (xs, ys) at x, exact at the anchors."""
        x = _real("time or clock value", x)
        if np.size(x) and not (xs[0] <= np.min(x) and np.max(x) <= xs[-1]):
            raise RangeError(f"values outside table range [{xs[0]}, {xs[-1]}]")
        return _like(x, np.interp(x, xs, ys))

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        return self._interpolate(self.ts, self.mus, t)

    def inverse(self, y: float | np.ndarray) -> float | np.ndarray:
        return self._interpolate(self.mus, self.ts, y)


@dataclass(slots=True)
class ProcessPath:
    xi: float
    events: list[float]
    horizon: float

    def count_at(self, t: float) -> int:
        """N(t): events at or before t (``events`` is ascending)."""
        if type(t) is not float:  # a float, as a scan of paths gives, takes no call
            t = _scalar("t", t)
        if not (0.0 <= t <= self.horizon):
            raise DomainError(f"t must lie in [0, horizon], got {t!r}")
        return bisect.bisect_right(self.events, t)


class PathBatch(abc.Sequence):
    """Paths on [0, horizon] held as columns: ``xi`` (n,), the events of
    every path in one flat path-major array, and ``offsets`` (n + 1,), so
    that path i's events are ``events[offsets[i]:offsets[i + 1]]``.

    A sequence of ``ProcessPath`` that keeps only these columns: an index
    builds one path from its slices of them, a pass converts the columns
    once for that pass alone, and a slice is a list of paths.  ``==``
    compares another batch column by column and a list or tuple path by
    path."""

    __slots__ = ("xi", "events", "offsets", "horizon")

    def __init__(self, xi: np.ndarray, events: np.ndarray, offsets: np.ndarray, horizon: float):
        self.xi, self.events, self.offsets, self.horizon = xi, events, offsets, horizon

    def __repr__(self) -> str:
        return f"PathBatch({len(self)} paths, {len(self.events)} events, horizon={self.horizon!r})"

    def __len__(self) -> int:
        return len(self.xi)

    def __getitem__(self, i):
        k = range(len(self))[i]
        if isinstance(k, range):
            return [self[j] for j in k]
        lo, hi = self.offsets[k : k + 2].tolist()
        return ProcessPath(self.xi[k].item(), self.events[lo:hi].tolist(), self.horizon)

    def __iter__(self):
        events, offsets = self.events.tolist(), self.offsets.tolist()
        for x, lo, hi in zip(self.xi.tolist(), offsets, offsets[1:]):
            yield ProcessPath(x, events[lo:hi], self.horizon)

    def __eq__(self, other) -> bool:
        if isinstance(other, PathBatch):
            return (
                self.horizon == other.horizon
                and np.array_equal(self.xi, other.xi)
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.events, other.events)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(p == q for p, q in zip(self, other))
        return NotImplemented

    def counts_at(self, t: float) -> np.ndarray:
        """N(t) of every path, as one int array; t as ``ProcessPath.count_at`` takes it."""
        t = _scalar("t", t)
        if not (0.0 <= t <= self.horizon):
            raise DomainError(f"t must lie in [0, horizon], got {t!r}")
        seen = np.zeros(len(self.events) + 1, dtype=np.intp)
        np.cumsum(self.events <= t, out=seen[1:])
        return seen[self.offsets[1:]] - seen[self.offsets[:-1]]


def to_increments(cumulative: Sequence[int]) -> list[int]:
    ks = [_require_count("count", k) for k in cumulative]
    if any(b < a for a, b in zip(ks[:-1], ks[1:])):
        raise DomainError("cumulative counts must be non-decreasing")
    return ks[:1] + [b - a for a, b in zip(ks[:-1], ks[1:])]


def to_cumulative(increments: Sequence[int]) -> list[int]:
    return list(itertools.accumulate(_require_count("increment", m) for m in increments))


def conditional_binomial_pmf(n: int, mu_s: float, mu_t: float, j: int) -> float:
    """P(N(s) = j | N(t) = n) = Binomial(n, mu(s)/mu(t)) mass at j."""
    n, j = _require_count("n", n), _require_count("j", j, lo=-_COUNT_MAX)
    mu_s, mu_t = _require_positive("mu_s", mu_s), _require_positive("mu_t", mu_t)
    if not mu_s < mu_t:
        raise DomainError(f"need mu_s < mu_t, got {mu_s!r}, {mu_t!r}")
    if j < 0 or j > n:
        return 0.0
    # Log-space weight: math.comb(n, j) overflows a float at n ~ 1030.  The
    # log of p is taken as a difference so that a p below the float range
    # still gives a finite log.
    log_comb = math.lgamma(n + 1.0) - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0)
    log_p = math.log(mu_s) - math.log(mu_t)
    return math.exp(log_comb + j * log_p + (n - j) * math.log1p(-mu_s / mu_t))


class MixedPoissonMaxUExp:
    """Count laws and path simulation for N(t) = N1(xi * mu(t))."""

    __slots__ = ("xi",)

    def __init__(self, xi: MaxUExp):
        if not isinstance(xi, MaxUExp):
            raise DomainError("xi must be a MaxUExp instance")
        self.xi = xi

    def __repr__(self) -> str:
        return f"MixedPoissonMaxUExp({self.xi!r})"

    # -- single-time laws -------------------------------------------------

    def pmf(self, m: float, n: int) -> float:
        """P(N = n) at clock value m = mu(t)."""
        m, n = _require_positive("m", m), _require_count("n", n)
        return min(1.0, self.xi._count_pmf(m, n)[0])

    def pmf_upper_tail_bound(self, m: float, kk: int) -> float:
        """Bound on P(N >= kk) that does not increase with kk: the tail itself,
        ``MaxUExp._log_count_sf``, its own tightest bound."""
        m, kk = _require_positive("m", m), _require_count("kk", kk)
        if kk == 0:
            return 1.0
        return min(1.0, math.exp(self.xi._log_count_sf(m, kk)))

    def truncation_point(self, m: float, tail: float = 1e-12) -> int:
        """Smallest count cutoff K with P(N >= K) at most ``tail``, found by
        doubling and then bisection (the tail does not increase).  A cutoff
        past 2^53, where counts stop being exact doubles, raises NumericError."""
        m, tail = _require_positive("m", m), _require_real("tail", tail, 0.0, 1.0)
        lo, hi = 0, 1
        while self.pmf_upper_tail_bound(m, hi) > tail:
            if hi >= _COUNT_MAX:
                raise NumericError(f"truncation point of {self!r} at m={m!r} passes 2^53")
            lo, hi = hi, 2 * hi
        return bisect.bisect_left(
            range(hi + 1), True, lo=lo + 1, key=lambda kk: self.pmf_upper_tail_bound(m, kk) <= tail
        )

    def mean_variance(self, m: float) -> tuple[float, float]:
        """m E(xi) and m E(xi) + m^2 Var(xi); NumericError past the double range."""
        m = _require_positive("m", m)
        mean = m * self.xi.mean()
        var = mean + m * (m * self.xi.variance())
        if var == math.inf:
            raise NumericError(f"count variance of {self!r} at m={m!r} exceeds the double range")
        return mean, var

    def pgf(self, m: float, z: float) -> float:
        """E(z^N) = lst(m(1-z)) for |z| < 1."""
        m, z = _require_positive("m", m), _require_real("z", z, -1.0, 1.0)
        return self.xi.lst(m * (1.0 - z))

    def posterior_pdf(self, m: float, n: int, x: float) -> float:
        """Density of xi given N = n at clock value m (Bayes weighting of the
        prior).  Its normalizer is the tilted moment at (m, n), which the law
        remembers (``MaxUExp._log_tilted``): over many x at one (m, n), as a
        grid or a quadrature asks, it is computed once."""
        m, n, x = _require_positive("m", m), _require_count("n", n), _not_nan("x", x)
        if x <= 0.0 or x == math.inf:
            return 0.0
        xi = self.xi
        return checked_exp(n * math.log(x) - m * x + xi._log_pdf(x) - xi._log_tilted(m, n))

    def posterior_mean(self, m: float, n: int) -> float:
        """E(xi | N = n), a ratio of consecutive tilted moments.  The moment
        at n is asked for first, so that in a sweep over n the moment at
        n + 1 is the next call's first, which the law remembers
        (``MaxUExp._log_tilted``): the sweep runs the kernel once per n."""
        m, n = _require_positive("m", m), _require_count("n", n)
        lo = self.xi._log_tilted(m, n)
        return checked_exp(self.xi._log_tilted(m, n + 1) - lo)

    def factorial_moment(self, m: float, k: int) -> float:
        """E(N(N-1)...(N-k+1)) = m^k E(xi^k)."""
        m, k = _require_positive("m", m), _require_count("k", k, lo=1)
        return checked_exp(k * math.log(m) + self.xi._log_moment(float(k)))

    # -- finite-dimensional laws ------------------------------------------

    def ordered_pmf(self, mus: Sequence[float], ks: Sequence[int]) -> float:
        """P(N(t_1) = k_1, ..., N(t_r) = k_r) for strictly increasing clock values."""
        mus = [_require_positive("clock value", m) for m in mus]
        ks = [_require_count("count", k) for k in ks]
        if len(mus) != len(ks) or not mus:
            raise DomainError("mus and ks must be non-empty and equal length")
        if any(b <= a for a, b in zip(mus[:-1], mus[1:])):
            raise DomainError("clock values must be strictly increasing")
        if any(b < a for a, b in zip(ks[:-1], ks[1:])):
            return 0.0
        prev_m = 0.0
        prev_k = 0
        weight = 0.0
        for m, k in zip(mus, ks):
            dm, dk = m - prev_m, k - prev_k
            weight += dk * math.log(dm) - math.lgamma(dk + 1.0)
            prev_m, prev_k = m, k
        return min(1.0, math.exp(weight + self.xi._log_tilted(mus[-1], ks[-1])))

    def increments_pmf(self, mus: Sequence[float], ms: Sequence[int]) -> float:
        """Joint pmf of the increments over consecutive clock intervals.

        Identical arithmetic to ``ordered_pmf`` after the cumulative-sum
        remap, so the two finite-dimensional views agree exactly.
        """
        return self.ordered_pmf(mus, to_cumulative(ms))

    # -- simulation ---------------------------------------------------------

    def simulate_path(
        self, transform: TimeTransform, horizon: float, stream: RandomStream
    ) -> ProcessPath:
        """One trajectory on [0, horizon]: draw xi, then unit-rate arrival
        epochs S_k accepted while S_k <= xi * mu(horizon), mapped back through
        the clock as t_k = mu^-1(S_k / xi).  The only path of the batch of
        one stream, starting at its position; consumes 2 + (events + 1)
        positions, and none where the batch raises."""
        seeds = np.array([stream.seed], dtype=np.uint64)
        batch = self._simulate(transform, horizon, seeds, stream.position)
        stream.position += 3 + len(batch.events)
        return batch[0]

    def simulate_paths(
        self, transform: TimeTransform, horizon: float, count: int, seed: int
    ) -> PathBatch:
        """Batch of paths on per-path substreams of one seed, so any prefix of
        the batch is reproducible independently of the others: path i equals
        ``simulate_path(transform, horizon, RandomStream(seed).substream(i))``.
        The ``PathBatch`` holds the paths as columns; ``counts_at`` counts
        them all at one time, and a ``ProcessPath`` is built for a path only
        when it is indexed or iterated."""
        seeds = substream_seeds(RandomStream(seed).seed, _require_count("count", count))
        return self._simulate(transform, horizon, seeds, 0)

    def _simulate(
        self, transform: TimeTransform, horizon: float, seeds: np.ndarray, position: int
    ) -> PathBatch:
        """Paths on the streams with the given seeds, all from one position,
        in one numpy pass.  Each stream gives xi from its next two draws and
        then unit exponentials, in rounds of a quarter of its draws so far
        (``_ROUND`` at least, ``_BLOCK`` at most) while below its budget.
        Both come as ``rng``'s one block layout, a column per path, so a
        round's running sums go down contiguous rows; the values do not
        depend on how the draws are cut into rounds.  The accepted sums,
        sorted path-major and mapped through the clock's inverse, are the
        batch's flat ``events`` column.  A batch whose budgets sum past
        ``_EVENT_CAP`` raises NumericError before the first round, and one
        whose event times do not rise from 0 within each path (a steep
        clock's inverse underflows) raises it after the last."""
        horizon = _require_positive("horizon", horizon)
        mu_h = transform.value(horizon)
        xi = self.xi._from_uniforms(_uniform_block(seeds, position, 2))
        with np.errstate(over="ignore"):
            budget = xi * mu_h
            expected = budget.sum()
        # The sum is inf or nan wherever a budget is.
        if not expected <= _EVENT_CAP:
            raise NumericError(f"{self!r} expects {expected:.3g} events, past the cap 2^24")
        position += 2
        first = position
        s = np.zeros(len(seeds))
        active = np.arange(len(seeds))
        sums, owners = [], []
        while active.size:
            width = min(_BLOCK, max(_ROUND, (position - first) // 4))
            # Column i holds path active[i]'s next exponentials, its carried
            # sum added to the first: each column adds exactly as ``s += e``
            # would, one draw at a time.
            cum = _uniform_block(seeds[active], position, width)
            np.log(cum, out=cum)
            np.negative(cum, out=cum)
            cum[0] += s[active]
            np.cumsum(cum, axis=0, out=cum)
            kept = cum <= budget[active]
            sums.append(cum[kept])
            owners.append(active[np.nonzero(kept)[1]])
            going = kept[-1]
            s[active[going]] = cum[-1, going]
            active = active[going]
            position += width
        sums = np.concatenate([np.zeros(0)] + sums)
        owners = np.concatenate([np.zeros(0, dtype=np.intp)] + owners)
        order = np.argsort(owners, kind="stable")
        events = np.minimum(transform.inverse(sums[order] / xi[owners[order]]), horizon)
        offsets = np.zeros(len(seeds) + 1, dtype=np.intp)
        np.cumsum(np.bincount(owners, minlength=len(seeds)), out=offsets[1:])
        # Each event against the one before it, or against 0 at a path's
        # start: a steep clock's inverse underflows to 0 or to ties.
        before = np.zeros(len(events) + 1)
        before[1:] = events
        before[offsets[:-1]] = 0.0
        if not np.all(events > before[:-1]):
            raise NumericError(
                f"event times of {self!r} do not rise from 0: the clock's inverse underflows"
            )
        return PathBatch(xi, events, offsets, horizon)
