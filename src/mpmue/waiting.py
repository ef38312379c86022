"""Waiting times of a Poisson process whose rate is a Max-U-Exp draw.

Conditional on the mixing rate xi = x, inter-arrival times are Exp(x) and
the n-th arrival is Gamma(n, x).  Mixing over x gives every closed form
here, through ``MaxUExp.log_tilted_moment`` or, for the Erlang cdf, the count
tail ``MaxUExp._log_count_sf``.  The unconditional inter-arrival tail decays
like 2*lam/(a*t^2), so the mean is finite but the variance is not, and
moments E(T^q) exist exactly for q < 2.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .distribution import MaxUExp, _like
from .errors import (
    DomainError, NumericError, _not_nan, _real, _require_count, _require_positive, _require_real,
)
from .numerics import checked_exp
from .process import MixedPoissonMaxUExp
from .rng import RandomStream, _draw_columns


# 1 - (1 - e^-z)/z = sum over k >= 1 of (-1)^(k+1) z^k / (k+1)!.  Below
# _EM1_CUT sixteen terms reach double precision; above it the direct form
# loses at most two bits to cancellation.
_EM1_CUT = 0.5
_EM1_SERIES = tuple((-1.0) ** (k + 1) / math.factorial(k + 1) for k in range(1, 17))
# numpy sums fewer terms than this left to right, and this many or more
# pairwise.
_PAIRWISE_MIN = 8


def _em1(z: float | np.ndarray) -> np.ndarray:
    """1 - (1 - e^-z) / z for z > 0, a float or an array, by its series
    below z = _EM1_CUT, on those elements only."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < _EM1_CUT
    large = ~small
    zs, zd = z[small], z[large]
    # Horner's rule in place, in np.polyval's steps and order.
    y = np.zeros_like(zs)
    for c in _EM1_SERIES[::-1]:
        y *= zs
        y += c
    y *= zs
    out[small] = y
    out[large] = 1.0 - (-np.expm1(-zd)) / zd
    return out


def _each(f, t: np.ndarray) -> np.ndarray:
    """f over an array element by element, as Python floats, as an array of
    its shape."""
    return np.array([f(x) for x in t.ravel().tolist()], dtype=float).reshape(t.shape)


class ErlangMaxUExp:
    """Time of the n-th arrival: Gamma(n, 1) / xi with one shared mixing draw."""

    __slots__ = ("n", "xi")

    def __init__(self, n: int, a: float, lam: float):
        self.n = _require_count("order n", n, lo=1)
        self.xi = MaxUExp(a, lam)

    @property
    def a(self) -> float:
        return self.xi.a

    @property
    def lam(self) -> float:
        return self.xi.lam

    def __repr__(self) -> str:
        return f"ErlangMaxUExp(n={self.n}, a={self.a}, lam={self.lam})"

    def pdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """f(t) = (n/t) P(N(t) = n), N the mixed Poisson count on the unit
        clock: the count kernel ``MaxUExp._count_pmf``, as in ``cdf``.  Taken
        as (n/t) P where P and the product are normal doubles, and from log P
        elsewhere.  An array is evaluated element by element (``_each``)."""
        if isinstance(t, np.ndarray):
            return _each(self.pdf, t)
        t = _require_real("t", t)
        if t <= 0.0:
            return 0.0
        n = self.n
        p, log_p = self.xi._count_pmf(t, n)
        if not log_p > -math.inf:
            raise NumericError(f"density of {self!r} at t={t!r} lost to cancellation")
        if p >= sys.float_info.min:
            density = n / t * p
            if density < math.inf:
                return density
        return checked_exp(math.log(n) - math.log(t) + log_p)

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        """P(T_n <= t) = P(N(t) >= n), N the mixed Poisson count on the unit
        clock: the closed-form tail ``MaxUExp._log_count_sf``, at any n.  An
        array is evaluated element by element (``_each``)."""
        if isinstance(t, np.ndarray):
            return _each(self.cdf, t)
        t = _require_real("t", t)
        if t <= 0.0:
            return 0.0
        return min(1.0, math.exp(self.xi._log_count_sf(t, self.n)))

    def sample(self, stream: RandomStream) -> float:
        """One draw; consumes n + 2 stream values (n exponential legs, then xi)."""
        top = stream.gamma_int(self.n, 1.0)
        return top / self.xi.sample(stream)

    def sample_many(self, stream: RandomStream, count: int) -> np.ndarray:
        """Vectorized draws, identical to ``count`` sequential ``sample`` calls."""
        return _draw_columns(stream, count, self.n + 2, self._from_uniforms)

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Draws from the columns of an (n + 2, k) block of uniforms, its
        rows taken in ``sample``'s order.  The top sums the legs as numpy
        sums a row of n (``sample``'s ``np.sum``): left to right below
        ``_PAIRWISE_MIN`` terms, so by row adds, and pairwise from there,
        so by numpy's own sum over the legs laid out as contiguous rows.
        Summing the logs and negating the sum once is exact."""
        n = self.n
        legs = np.log(u[:n])
        if n < _PAIRWISE_MIN:
            top = legs[0]
            for leg in legs[1:]:
                top += leg
        else:
            top = np.ascontiguousarray(legs.T).sum(axis=1)
        return -top / self.xi._from_uniforms(u[n:])

    def moment(self, q: float) -> float:
        """E(T_n^q) = (Gamma(q+n)/Gamma(n)) E(xi^-q); finite exactly for 0 < q < 2,
        NumericError past the double range."""
        neg = self.xi.neg_moment(q)  # raises outside 0 < q < 2
        value = math.exp(math.lgamma(q + self.n) - math.lgamma(self.n)) * neg
        if value == math.inf:
            raise NumericError(f"E(T^{q!r}) of {self!r} exceeds the double range")
        return value


class ExpMaxUExp(ErlangMaxUExp):
    """Inter-arrival time eta / xi with eta a unit exponential independent of
    xi: the n = 1 arrival, whose density it inherits, with a closed-form cdf."""

    __slots__ = ()

    def __init__(self, a: float, lam: float):
        super().__init__(1, a, lam)

    def __repr__(self) -> str:
        return f"ExpMaxUExp(a={self.a}, lam={self.lam})"

    # cdf takes a float or a numpy array, as MaxUExp's evaluators do, and is
    # one numpy expression that gives a float back for a float (``_like``).
    # With s = lam + t and y = a s, it carries (1 - e^-y)/y over s; the
    # quotient is 1 where y underflows.  At t = inf it returns its limit, 1.
    # Where t/s rounds to 1 the sum can round past 1, so it is clipped at 1.

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        t = _real("t", t)
        a, lam = self.a, self.lam
        tp = np.where((t <= 0.0) | (t == math.inf), 1.0, t)
        s = lam + tp
        with np.errstate(over="ignore"):
            y = a * s
            ratio = np.divide(-np.expm1(-y), y, out=np.ones_like(y), where=y > 0.0)
            value = np.minimum(_em1(a * tp) + tp / s * ratio, 1.0)
        return _like(t, np.where(t <= 0.0, 0.0, np.where(t == math.inf, 1.0, value)))

    def joint_pdf(self, t: float, x: float) -> float:
        """Joint density of (T, xi) at (t, x): x e^(-tx) times the mixing density."""
        t, x = _not_nan("t", t), _not_nan("x", x)
        if t <= 0.0 or x <= 0.0 or x == math.inf:
            return 0.0
        return x * math.exp(-t * x) * self.xi.pdf(x)

    def conditional_mixing_pdf(self, t: float, x: float) -> float:
        """Density of xi given T = t.  Given T = t, xi has the law it has
        given N(t) = 1, so this is that count's posterior density."""
        return MixedPoissonMaxUExp(self.xi).posterior_pdf(t, 1, x)

    def mean_mixing_given_arrival(self, t: float) -> float:
        """E(xi | T = t) = E(xi | N(t) = 1), a ratio of tilted moments."""
        return MixedPoissonMaxUExp(self.xi).posterior_mean(t, 1)

    def mean_arrival_given_mixing(self, x: float) -> float:
        """E(T | xi = x) = 1/x."""
        x = _require_positive("x", x)
        return 1.0 / x

    def joint_interarrival_pdf(self, ts) -> float:
        """Joint density of the first k inter-arrival times at (t_1, ..., t_k).

        A single mixing draw couples the coordinates, so this depends on the
        arguments only through their sum.  The coordinates must be finite, as
        ``pdf``'s t must; the density is 0 where their sum passes the double
        range.
        """
        ts = [_require_real("t", t) for t in ts]
        if not ts:
            raise DomainError("need at least one coordinate")
        if any(t <= 0.0 for t in ts):
            return 0.0
        total = sum(ts)
        if total == math.inf:
            return 0.0
        return self.xi.tilted_moment(total, len(ts))
