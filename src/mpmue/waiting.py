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

import numpy as np

from .distribution import MaxUExp, _like, _require_positive, _z_exp, _z_exp_array
from .errors import DomainError, NumericError
from .numerics import checked_exp, log_gamma
from .rng import RandomStream, _draw_rows


# 1 - (1 - e^-z)/z = sum over k >= 1 of (-1)^(k+1) z^k / (k+1)!, and its
# derivative (1 - e^-z - z e^-z)/z^2 is the term-wise derivative.  Below
# _EM1_CUT sixteen terms reach double precision for both; above it the
# direct forms lose at most two bits to cancellation.
_EM1_CUT = 0.5
_EM1_SERIES = tuple((-1.0) ** (k + 1) / math.factorial(k + 1) for k in range(1, 17))
_EM2_SERIES = tuple(k * c for k, c in enumerate(_EM1_SERIES, 1))


def _horner(coeffs: tuple[float, ...], z: float | np.ndarray) -> float | np.ndarray:
    """sum of coeffs[i] z^i, for a float or an array."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _em1(z: float | np.ndarray) -> np.ndarray:
    """1 - (1 - e^-z) / z for z > 0, a float or an array, by its series
    below z = _EM1_CUT."""
    zs, zd = np.minimum(z, _EM1_CUT), np.maximum(z, _EM1_CUT)
    return np.where(z < _EM1_CUT, _horner(_EM1_SERIES, zs) * zs, 1.0 - (-np.expm1(-zd)) / zd)


def _em2(z: float) -> float:
    """(1 - e^-z - z e^-z) / z^2, the derivative of ``_em1``, by its series
    below z = _EM1_CUT."""
    if z < 0.0:
        raise DomainError(f"_em2 requires z >= 0, got {z!r}")
    if z < _EM1_CUT:
        return _horner(_EM2_SERIES, z)
    return (-math.expm1(-z) - _z_exp(z)) / (z * z)


def _em2_array(z: np.ndarray) -> np.ndarray:
    """``_em2`` over an array of z >= 0, with the same series cutover."""
    zd = np.maximum(z, _EM1_CUT)
    direct = (-np.expm1(-zd) - _z_exp_array(zd, np.exp(-zd))) / (zd * zd)
    return np.where(z < _EM1_CUT, _horner(_EM2_SERIES, np.minimum(z, _EM1_CUT)), direct)


class ErlangMaxUExp:
    """Time of the n-th arrival: Gamma(n, 1) / xi with one shared mixing draw."""

    __slots__ = ("n", "xi")

    def __init__(self, n: int, a: float, lam: float):
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"order n must be an integer >= 1, got {n!r}")
        self.n = n
        self.xi = MaxUExp(a, lam)

    @property
    def a(self) -> float:
        return self.xi.a

    @property
    def lam(self) -> float:
        return self.xi.lam

    def __repr__(self) -> str:
        return f"ErlangMaxUExp(n={self.n}, a={self.a}, lam={self.lam})"

    def pdf(self, t: float) -> float:
        """f(t) = (n/t) P(N(t) = n), N the mixed Poisson count on the unit
        clock: the count kernel ``MaxUExp._log_count_pmf``, as in ``cdf``."""
        if t <= 0.0:
            return 0.0
        if not t < math.inf:
            raise DomainError(f"pdf requires finite t, got {t!r}")
        n = self.n
        log_p = self.xi._log_count_pmf(t, n)
        if not log_p > -math.inf:
            raise NumericError(f"density of {self!r} at t={t!r} lost to cancellation")
        return checked_exp(math.log(n) - math.log(t) + log_p)

    def cdf(self, t: float) -> float:
        """P(T_n <= t) = P(N(t) >= n), N the mixed Poisson count on the unit
        clock: the closed-form tail ``MaxUExp._log_count_sf``, at any n."""
        if t <= 0.0:
            return 0.0
        if not t < math.inf:
            raise DomainError(f"cdf requires finite t, got {t!r}")
        return min(1.0, math.exp(self.xi._log_count_sf(t, self.n)))

    def sample(self, stream: RandomStream) -> float:
        """One draw; consumes n + 2 stream values (n exponential legs, then xi)."""
        top = stream.gamma_int(self.n, 1.0)
        return top / self.xi.sample(stream)

    def sample_many(self, stream: RandomStream, count: int) -> np.ndarray:
        """Vectorized draws, identical to ``count`` sequential ``sample`` calls."""
        return _draw_rows(stream, count, self.n + 2, self._from_uniforms)

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Draws from rows of n + 2 uniforms, taken in ``sample``'s order."""
        n = self.n
        top = -np.log(u[:, :n]).sum(axis=1)
        return top / self.xi._from_uniforms(u[:, n:])

    def moment(self, q: float) -> float:
        """E(T_n^q) = (Gamma(q+n)/Gamma(n)) E(xi^-q); finite exactly for 0 < q < 2,
        NumericError past the double range."""
        neg = self.xi.neg_moment(q)  # raises outside 0 < q < 2
        value = math.exp(log_gamma(q + self.n) - log_gamma(float(self.n))) * neg
        if value == math.inf:
            raise NumericError(f"E(T^{q!r}) of {self!r} exceeds the double range")
        return value


class ExpMaxUExp(ErlangMaxUExp):
    """Inter-arrival time eta / xi with eta a unit exponential independent of
    xi: the n = 1 arrival, with closed-form pdf and cdf."""

    __slots__ = ()

    def __init__(self, a: float, lam: float):
        super().__init__(1, a, lam)

    def __repr__(self) -> str:
        return f"ExpMaxUExp(a={self.a}, lam={self.lam})"

    # pdf and cdf take a float or a numpy array, as MaxUExp's evaluators do:
    # cdf is one numpy expression and gives a float back for a float
    # (``_like``); pdf keeps a math-module branch for floats, since it is a
    # quadrature integrand, called about 3,000 times with a float per default
    # ``verify``.  With s = lam + t and y = a s, both carry (1 - e^-y)/y over
    # powers of s.  Each division by s comes alone, and the quotient is 1
    # where y underflows, so no product such as a s^3 can underflow to 0.  At
    # t = inf they return their limits, 0 and 1.  The pdf's signed
    # (lam - t)/s term can cancel the rest to below its rounding; the pdf is
    # clamped at 0.

    def pdf(self, t: float | np.ndarray) -> float | np.ndarray:
        a, lam = self.a, self.lam
        if isinstance(t, np.ndarray):
            edge = (t <= 0.0) | (t == math.inf)
            tp = np.where(edge, 1.0, t)
            s = lam + tp
            with np.errstate(over="ignore"):
                y = a * s
                ratio = np.divide(-np.expm1(-y), y, out=np.ones_like(y), where=y > 0.0)
                value = a * _em2_array(a * tp) + (lam - tp) / s * ratio / s + tp / s * np.exp(-y) / s
            return np.where(edge, 0.0, np.maximum(value, 0.0))
        if t <= 0.0 or t == math.inf:
            return 0.0
        s = lam + t
        y = a * s
        ratio = -math.expm1(-y) / y if y > 0.0 else 1.0
        return max(0.0, a * _em2(a * t) + (lam - t) / s * ratio / s + t / s * math.exp(-y) / s)

    def cdf(self, t: float | np.ndarray) -> float | np.ndarray:
        a, lam = self.a, self.lam
        tp = np.where((t <= 0.0) | (t == math.inf), 1.0, t)
        s = lam + tp
        with np.errstate(over="ignore"):
            y = a * s
            ratio = np.divide(-np.expm1(-y), y, out=np.ones_like(y), where=y > 0.0)
            value = _em1(a * tp) + tp / s * ratio
        return _like(t, np.where(t <= 0.0, 0.0, np.where(t == math.inf, 1.0, value)))

    def joint_pdf(self, t: float, x: float) -> float:
        """Joint density of (T, xi) at (t, x): x e^(-tx) times the mixing density."""
        if t <= 0.0 or x <= 0.0 or x == math.inf:
            return 0.0
        return x * math.exp(-t * x) * self.xi.pdf(x)

    def conditional_mixing_pdf(self, t: float, x: float) -> float:
        """Density of xi given T = t: the joint density x e^(-tx) f(x) over the
        T marginal E(xi e^(-t xi)), in log space as ``posterior_pdf`` is, so
        that neither underflows alone."""
        if not (t > 0.0):
            raise DomainError(f"conditioning requires t > 0, got {t!r}")
        if x <= 0.0 or x == math.inf:
            return 0.0
        xi = self.xi
        return checked_exp(math.log(x) - t * x + xi._log_pdf(x) - xi.log_tilted_moment(t, 1))

    def mean_mixing_given_arrival(self, t: float) -> float:
        """E(xi | T = t), a ratio of tilted moments."""
        if not (t > 0.0):
            raise DomainError(f"requires t > 0, got {t!r}")
        return checked_exp(self.xi.log_tilted_moment(t, 2) - self.xi.log_tilted_moment(t, 1))

    def mean_arrival_given_mixing(self, x: float) -> float:
        """E(T | xi = x) = 1/x."""
        x = _require_positive("x", x)
        return 1.0 / x

    def joint_interarrival_pdf(self, ts) -> float:
        """Joint density of the first k inter-arrival times at (t_1, ..., t_k).

        A single mixing draw couples the coordinates, so this depends on the
        arguments only through their sum.
        """
        ts = [float(t) for t in ts]
        if not ts:
            raise DomainError("need at least one coordinate")
        if any(t <= 0.0 for t in ts):
            return 0.0
        return self.xi.tilted_moment(sum(ts), len(ts))
