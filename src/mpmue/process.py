"""Counting process N(t) = N1(xi * mu(t)): a unit-rate Poisson process run on
the clock mu, sped up by one Max-U-Exp draw xi per path.

Counts at a single time follow the mixed Poisson law whose pmf is
m^n / n! * E(xi^n e^(-m xi)) with m = mu(t); joint laws over several times
reduce to the same tilted-moment kernel evaluated at the latest clock value.
The shared xi makes increments dependent (overdispersed), yet given
N(t) = n the earlier count N(s) is plain Binomial(n, mu(s)/mu(t)).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .distribution import MaxUExp, _like
from .errors import DomainError, NumericError, RangeError
from .numerics import checked_exp
from .rng import RandomStream, counter_uniforms, substream_seeds

# Exponentials drawn per active path in each round of ``_simulate``.
_ROUND = 8


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
        c = float(c)
        if not math.isfinite(c) or c <= 0.0:
            raise DomainError(f"power exponent must be finite and positive, got {c!r}")
        self.c = c

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        return self._power(t, self.c)

    def inverse(self, y: float | np.ndarray) -> float | np.ndarray:
        """mu^-1(y), for a float or an array."""
        return self._power(y, 1.0 / self.c)

    @staticmethod
    def _power(x: float | np.ndarray, p: float) -> float | np.ndarray:
        """x^p for finite x >= 0 (DomainError otherwise), NumericError where
        it passes the double range."""
        if np.size(x) and not (np.min(x) >= 0.0 and np.max(x) < math.inf):
            raise DomainError("times and clock values must be finite and >= 0")
        with np.errstate(over="raise"):
            try:
                return _like(x, np.power(x, p))
            except FloatingPointError:
                raise NumericError(f"a clock value ** {p!r} overflows a double") from None


class TableTransform:
    """Piecewise-linear mu through (t_i, mu_i) anchors, starting at (0, 0).

    Both coordinates must be strictly increasing, which makes each segment
    exactly invertible.  Queries beyond the last anchor raise RangeError
    rather than extrapolate.
    """

    __slots__ = ("ts", "mus")

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = [(float(t), float(m)) for t, m in points]
        if len(pts) < 2:
            raise DomainError("table needs at least two points")
        if pts[0] != (0.0, 0.0):
            raise DomainError("table must start at (0, 0)")
        for (t0, m0), (t1, m1) in zip(pts[:-1], pts[1:]):
            if not (t1 > t0 and m1 > m0):
                raise DomainError("table coordinates must be strictly increasing")
        self.ts = [p[0] for p in pts]
        self.mus = [p[1] for p in pts]

    @staticmethod
    def _interpolate(xs: list[float], ys: list[float], x: float | np.ndarray) -> float | np.ndarray:
        """The polyline through (xs, ys) at x, exact at the anchors."""
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
        if not (0.0 <= t <= self.horizon):
            raise DomainError(f"t must lie in [0, horizon], got {t!r}")
        return bisect.bisect_right(self.events, t)


def to_increments(cumulative: Sequence[int]) -> list[int]:
    ks = [int(k) for k in cumulative]
    if any(k < 0 for k in ks):
        raise DomainError("counts must be >= 0")
    if any(b < a for a, b in zip(ks[:-1], ks[1:])):
        raise DomainError("cumulative counts must be non-decreasing")
    return ks[:1] + [b - a for a, b in zip(ks[:-1], ks[1:])]


def to_cumulative(increments: Sequence[int]) -> list[int]:
    ms = [int(m) for m in increments]
    if any(m < 0 for m in ms):
        raise DomainError("increments must be >= 0")
    out: list[int] = []
    total = 0
    for m in ms:
        total += m
        out.append(total)
    return out


def conditional_binomial_pmf(n: int, mu_s: float, mu_t: float, j: int) -> float:
    """P(N(s) = j | N(t) = n) = Binomial(n, mu(s)/mu(t)) mass at j."""
    if not isinstance(n, int) or n < 0 or not isinstance(j, int):
        raise DomainError("n and j must be integers with n >= 0")
    if not (0.0 < mu_s < mu_t < math.inf):
        raise DomainError(f"need 0 < mu_s < mu_t < inf, got {mu_s!r}, {mu_t!r}")
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

    def _check_m(self, m: float) -> float:
        m = float(m)
        if not math.isfinite(m) or m <= 0.0:
            raise DomainError(f"clock value m must be finite and positive, got {m!r}")
        return m

    @staticmethod
    def _check_count(n: int) -> None:
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"count n must be an integer >= 0, got {n!r}")

    def pmf(self, m: float, n: int) -> float:
        """P(N = n) at clock value m = mu(t)."""
        m = self._check_m(m)
        self._check_count(n)
        return min(1.0, self.xi._count_pmf(m, n)[0])

    def pmf_upper_tail_bound(self, m: float, kk: int) -> float:
        """Bound on P(N >= kk) that does not increase with kk: the tail itself,
        ``MaxUExp._log_count_sf``, its own tightest bound."""
        m = self._check_m(m)
        self._check_count(kk)
        if kk == 0:
            return 1.0
        return min(1.0, math.exp(self.xi._log_count_sf(m, kk)))

    def truncation_point(self, m: float, tail: float = 1e-12) -> int:
        """Smallest count cutoff K with P(N >= K) at most ``tail``, found by
        doubling and then bisection (the tail does not increase).  A cutoff
        past 2^53, where counts stop being exact doubles, raises NumericError."""
        m = self._check_m(m)
        if not (0.0 < tail < 1.0):
            raise DomainError(f"tail must lie in (0, 1), got {tail!r}")
        lo, hi = 0, 1
        while self.pmf_upper_tail_bound(m, hi) > tail:
            if hi >= 2**53:
                raise NumericError(f"truncation point of {self!r} at m={m!r} passes 2^53")
            lo, hi = hi, 2 * hi
        return bisect.bisect_left(
            range(hi + 1), True, lo=lo + 1, key=lambda kk: self.pmf_upper_tail_bound(m, kk) <= tail
        )

    def mean_variance(self, m: float) -> tuple[float, float]:
        """m E(xi) and m E(xi) + m^2 Var(xi); NumericError past the double range."""
        m = self._check_m(m)
        mean = m * self.xi.mean()
        var = mean + m * (m * self.xi.variance())
        if var == math.inf:
            raise NumericError(f"count variance of {self!r} at m={m!r} exceeds the double range")
        return mean, var

    def pgf(self, m: float, z: float) -> float:
        """E(z^N) = lst(m(1-z)) for |z| < 1."""
        m = self._check_m(m)
        if not (-1.0 < z < 1.0):
            raise DomainError(f"pgf requires |z| < 1, got {z!r}")
        return self.xi.lst(m * (1.0 - z))

    def posterior_pdf(self, m: float, n: int, x: float) -> float:
        """Density of xi given N = n at clock value m (Bayes weighting of the prior)."""
        m = self._check_m(m)
        self._check_count(n)
        if x <= 0.0 or x == math.inf:
            return 0.0
        xi = self.xi
        return checked_exp(n * math.log(x) - m * x + xi._log_pdf(x) - xi.log_tilted_moment(m, n))

    def posterior_mean(self, m: float, n: int) -> float:
        """E(xi | N = n), a ratio of consecutive tilted moments."""
        m = self._check_m(m)
        self._check_count(n)
        return checked_exp(self.xi.log_tilted_moment(m, n + 1) - self.xi.log_tilted_moment(m, n))

    def factorial_moment(self, m: float, k: int) -> float:
        """E(N(N-1)...(N-k+1)) = m^k E(xi^k)."""
        m = self._check_m(m)
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"order k must be an integer >= 1, got {k!r}")
        return checked_exp(k * math.log(m) + self.xi._log_moment(float(k)))

    # -- finite-dimensional laws ------------------------------------------

    def ordered_pmf(self, mus: Sequence[float], ks: Sequence[int]) -> float:
        """P(N(t_1) = k_1, ..., N(t_r) = k_r) for strictly increasing clock values."""
        mus = [self._check_m(m) for m in mus]
        ks = [int(k) for k in ks]
        if len(mus) != len(ks) or not mus:
            raise DomainError("mus and ks must be non-empty and equal length")
        if any(b <= a for a, b in zip(mus[:-1], mus[1:])):
            raise DomainError("clock values must be strictly increasing")
        if any(k < 0 for k in ks):
            raise DomainError("counts must be >= 0")
        if any(b < a for a, b in zip(ks[:-1], ks[1:])):
            return 0.0
        prev_m = 0.0
        prev_k = 0
        weight = 0.0
        for m, k in zip(mus, ks):
            dm, dk = m - prev_m, k - prev_k
            weight += dk * math.log(dm) - math.lgamma(dk + 1.0)
            prev_m, prev_k = m, k
        return min(1.0, math.exp(weight + self.xi.log_tilted_moment(mus[-1], ks[-1])))

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
        the clock as t_k = mu^-1(S_k / xi).  The path batch of one stream,
        starting at its position; consumes 2 + (events + 1) positions."""
        seeds = np.array([stream.seed], dtype=np.uint64)
        paths = self._simulate(transform, horizon, seeds, stream.position)
        stream.position += 3 + len(paths[0].events)
        return paths[0]

    def simulate_paths(
        self, transform: TimeTransform, horizon: float, count: int, seed: int
    ) -> list[ProcessPath]:
        """Batch of paths on per-path substreams of one seed, so any prefix of
        the batch is reproducible independently of the others: path i equals
        ``simulate_path(transform, horizon, RandomStream(seed).substream(i))``."""
        if count < 0:
            raise DomainError("count must be >= 0")
        return self._simulate(transform, horizon, substream_seeds(RandomStream(seed).seed, count), 0)

    def _simulate(
        self, transform: TimeTransform, horizon: float, seeds: np.ndarray, position: int
    ) -> list[ProcessPath]:
        """Paths on the streams with the given seeds, all from one position,
        in one numpy pass.  Each stream gives xi from its next two draws and
        then unit exponentials, drawn in rounds of ``_ROUND`` for the paths
        still below their budget."""
        horizon = float(horizon)
        if not (horizon > 0.0) or not math.isfinite(horizon):
            raise DomainError(f"horizon must be finite and positive, got {horizon!r}")
        mu_h = transform.value(horizon)
        xi = self.xi._from_uniforms(counter_uniforms(seeds[:, None], position, 2))
        with np.errstate(over="ignore"):
            budget = xi * mu_h
        if not np.all(budget < 2.0**53):
            # truncation_point's bound: past it counts stop being exact
            # doubles, and the rounds would run until memory runs out.
            raise NumericError(f"event budget xi mu({horizon!r}) of {self!r} passes 2^53")
        position += 2
        s = np.zeros(len(seeds))
        active = np.arange(len(seeds))
        sums, owners = [], []
        while active.size:
            e = -np.log(counter_uniforms(seeds[active, None], position, _ROUND))
            # The carried sum goes in first, so each row adds exactly as
            # ``s += e`` would, one draw at a time.
            cum = np.cumsum(np.concatenate([s[active, None], e], axis=1), axis=1)[:, 1:]
            kept = cum <= budget[active, None]
            sums.append(cum[kept])
            owners.append(np.repeat(active, kept.sum(axis=1)))
            going = kept[:, -1]
            s[active[going]] = cum[going, -1]
            active = active[going]
            position += _ROUND
        sums = np.concatenate([np.zeros(0)] + sums)
        owners = np.concatenate([np.zeros(0, dtype=np.intp)] + owners)
        order = np.argsort(owners, kind="stable")
        events = np.minimum(transform.inverse(sums[order] / xi[owners[order]]), horizon).tolist()
        ends = np.cumsum(np.bincount(owners, minlength=len(seeds))).tolist()
        starts = [0] + ends[:-1]
        return [
            ProcessPath(x, events[lo:hi], horizon) for x, lo, hi in zip(xi.tolist(), starts, ends)
        ]
