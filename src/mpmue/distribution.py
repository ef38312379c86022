"""The Max-U-Exp law: the distribution of max(U(0, a), Exp(lambda)) with the
two ingredients independent.

The cdf factorizes as F(x) = (x/a)(1 - e^(-lambda x)) on (0, a] and
1 - e^(-lambda x) beyond a, so the density has an upward jump of size
(1 - e^(-lambda a))/a at x = a.  Closed-form moments, the Laplace-Stieltjes
transform, reciprocal moments, and the exponentially tilted moments that
drive the mixed Poisson formulas all reduce to incomplete gamma functions,
with no quadrature.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from .errors import (
    DivergenceError, NumericError, _real, _require_count, _require_positive, _require_real, _scalar
)
from .numerics import (
    _cs,
    _gamma_upper_cf,
    _log_from_p,
    _log_from_q,
    _log_lead,
    _log_p,
    _log_q,
    checked_exp,
    find_root,
)
from .rng import RandomStream, _draw_rows


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _z_exp(z: float) -> float:
    """z e^-z for z >= 0, 0 where z overflows to inf (not inf * 0)."""
    ez = math.exp(-z)
    return z * ez if ez > 0.0 else 0.0


def _z_exp_array(z: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """``_z_exp`` over an array, given ez = e^-z."""
    return np.multiply(z, ez, out=np.zeros_like(z), where=ez > 0.0)


def _like(x: float | np.ndarray, out: np.ndarray) -> float | np.ndarray:
    """The result ``out`` of a numpy evaluator at x: a Python float where x
    is a number, the array itself where x is an array."""
    return out if isinstance(x, np.ndarray) else float(out)


def _alternating_sum(terms) -> float:
    """Sum of a series whose terms fall in size, stopped at the first term
    below double precision of the partial sum."""
    total = 0.0
    for term in terms:
        total += term
        if abs(term) <= 2.0**-53 * abs(total):
            return total


class MaxUExp:
    """max(U(0, a), Exp(lam)); frozen parameter pair (a, lam)."""

    __slots__ = ("a", "lam")

    def __init__(self, a: float, lam: float):
        self.a = _require_positive("a", a)
        self.lam = _require_positive("lam", lam)

    def __repr__(self) -> str:
        return f"MaxUExp(a={self.a}, lam={self.lam})"

    # -- pointwise evaluators -------------------------------------------------
    #
    # Each evaluator takes a float or a numpy array and is one numpy
    # expression: an array gives an array of its shape, a float gives a float
    # (``_like``).  Only ``pdf`` keeps a math-module branch for floats: it is
    # a quadrature integrand, called about 23,000 times with a float per
    # default ``verify``, where a numpy expression would cost 10-40 us a call
    # against about 1 us.  (The waiting-time densities are float code over
    # the count kernel, ``ErlangMaxUExp.pdf``, and run arrays through it.)  No
    # workload or library loop calls ``cdf`` or ``hazard`` with floats in
    # bulk (66 and 10 calls per ``verify``), and ``quantile`` bisects on the
    # math module rather than through ``cdf``.

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        x = _real("x", x)
        xp = np.maximum(x, 0.0)
        with np.errstate(over="ignore"):
            tail = -np.expm1(-self.lam * xp)
            out = np.where(x <= 0.0, 0.0, np.where(x <= self.a, (xp / self.a) * tail, tail))
        return _like(x, out)

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density; at the jump point x = a returns the left (uniform-branch) value."""
        if type(x) is not float:  # a quadrature's float takes no call
            x = _real("x", x)
            if isinstance(x, np.ndarray):
                with np.errstate(over="ignore"):
                    z = self.lam * np.maximum(x, 0.0)
                ez = np.exp(-z)
                left = (-np.expm1(-z) + _z_exp_array(z, ez)) / self.a
                return np.where(x <= 0.0, 0.0, np.where(x <= self.a, left, self.lam * ez))
        if x <= 0.0:
            return 0.0
        if x <= self.a:
            z = self.lam * x
            return (-math.expm1(-z) + _z_exp(z)) / self.a
        return self.lam * math.exp(-self.lam * x)

    def _log_pdf(self, x: float) -> float:
        """log of the density at a float x > 0.  The exponential branch is in
        log form: its density underflows where a posterior of a large count,
        or of a late arrival, still has its mass."""
        return math.log(self.lam) - self.lam * x if x > self.a else _log(self.pdf(x))

    def hazard(self, x: float | np.ndarray) -> float | np.ndarray:
        """pdf/(1 - cdf).  Just below the jump the survival is about
        e^(-lam a), so the hazard passes the double range once lam*a exceeds
        about 709; there it raises NumericError."""
        x = _real("x", x)
        # Evaluate the uniform branch on [0, a] only: past a its denominator
        # can vanish.  A nan point fails both tests below and gives nan.
        xl = np.clip(x, 0.0, self.a)
        with np.errstate(divide="ignore", over="ignore"):
            z = self.lam * xl
            ez = np.exp(-z)
            left = (-np.expm1(-z) + _z_exp_array(z, ez)) / (self.a - xl + xl * ez)
        out = np.where(x <= 0.0, 0.0, np.where(x > self.a, self.lam, left))
        if np.any(out == math.inf):
            raise NumericError(f"hazard of {self!r} exceeds the double range near the jump")
        return _like(x, out)

    def quantile(self, q: float) -> float:
        """Inverse cdf.  The exponential branch inverts in closed form.  The
        uniform branch bisects log cdf = log q in t = log x on the math
        module (a numpy ``cdf`` call would cost each step 10 us or more), so
        x keeps its relative accuracy at any q.  As cdf(x) <= lam x^2 / a
        there, the root lies above sqrt(aq/lam)/e.  e^(log a) can round
        below a, so the bracket's top sits 2^-40 above log a, with x held
        at a."""
        q = _require_real("q", q, 0.0, 1.0)
        a, lam = self.a, self.lam
        if q >= -math.expm1(-lam * a):
            return -math.log1p(-q) / lam
        log_a, log_q = math.log(a), math.log(q)

        def excess(t: float) -> float:
            x = min(a, math.exp(t))
            return _log(x / a) + _log(-math.expm1(-lam * x)) - log_q

        lo = 0.5 * (log_a + log_q - math.log(lam)) - 1.0
        return min(a, math.exp(find_root(excess, lo, log_a + 2.0**-40, tol=2.0**-50)))

    # -- sampling -------------------------------------------------------------

    def sample(self, stream: RandomStream) -> float:
        """One draw; consumes two stream values (uniform leg first, exponential leg second)."""
        theta = self.a * stream.uniform()
        eta = stream.exponential(self.lam)
        return max(theta, eta)

    def sample_many(self, stream: RandomStream, count: int) -> np.ndarray:
        """Vectorized draws, identical to ``count`` sequential ``sample`` calls."""
        return _draw_rows(stream, count, 2, self._from_uniforms)

    def _from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Draws from rows of two uniforms, the uniform leg's first, as
        ``sample`` takes them."""
        return np.maximum(self.a * u[:, 0], -np.log(u[:, 1]) / self.lam)

    # -- closed-form functionals ----------------------------------------------

    def moment(self, k: float) -> float:
        """E(X^k) for k > -2, from ``_log_moment``; 1 at k = 0.  The density
        behaves like 2 lam x / a near 0, so E(X^k) diverges exactly for k <= -2
        (and nan); k = inf raises DomainError."""
        k = _scalar("k", k)
        if not k > -2.0:
            raise DivergenceError(f"moment diverges for k <= -2, got {k!r}")
        return checked_exp(self._log_moment(_require_real("k", k)))

    def _log_moment(self, k: float) -> float:
        """log E(X^k) for k > -2, the one moment kernel.

        For k > 0 it is a log-sum-exp of the three closed-form terms
        a^k/(k+1), k gamma(k+1, a lam)/(a lam^(k+1)) and k Gamma(k, a lam)/lam^k,
        each built from a regularized incomplete gamma, so that none overflows
        where the moment itself is a double.

        For k = -q < 0, split at a and put x = a lam and s = 1 - q:
        E(X^-q) = lam^q [K(q, x)/x + Gamma(s, x)], where K(q, x) is the
        integral of u^-q (1 - e^-u + u e^-u) over (0, x).  Up to x = 1, K is
        its alternating series, and Gamma(s, x) is Gamma(s, 1) plus the series
        of the integral of u^-q e^-u over (x, 1).  Past x = 1, K(q, 1) gains
        the integral over (1, x) in closed form.  Gamma(s, .) at x >= 1 is a
        continued fraction, since s <= 0 is outside scipy's ``gammaincc``.
        The scale lam^i a^j comes out with exact exponents and goes through
        pow, so that the log of the product is the only rounding at its size;
        logs take over only where the product leaves the double range.
        """
        if k == 0.0:
            return 0.0
        a, lam = self.a, self.lam
        log_a, log_lam = math.log(a), math.log(lam)
        x = a * lam
        if k > 0.0:
            log_k = math.log(k)
            terms = (
                k * log_a - math.log1p(k),
                log_k + _log_p(k + 1.0, x) + math.lgamma(k + 1.0)
                - log_a - (k + 1.0) * log_lam,
                log_k + _log_q(k, x) + math.lgamma(k) - k * log_lam,
            )
            top = max(terms)
            return top + math.log(math.fsum(math.exp(t - top) for t in terms))
        q = -k
        s = 1.0 - q
        log_x = log_a + log_lam
        # K(q, y)/y^s at y = min(x, 1).
        y = min(x, 1.0)
        k_series = _alternating_sum(
            (-1.0) ** (j + 1) * (j + 1) * y ** (j - 1) / (math.factorial(j) * (j + s))
            for j in itertools.count(1)
        )
        gamma_1 = _gamma_upper_cf(s, 1.0) / math.e
        if x < 1.0:
            # Gamma(s, x) = tail + rest: tail integrates u^-q over (x, 1), and
            # rest is Gamma(s, 1) plus the integral of u^-q (e^-u - 1).
            rest = gamma_1 + _alternating_sum(
                (-1.0) ** j * -math.expm1((j + s) * log_x) / (math.factorial(j) * (j + s))
                for j in itertools.count(1)
            )
            if s < 0.0:
                # x^s may pass the double range, so it goes into the scale.
                scale_lam, scale_a = 1.0, s
                core = k_series + math.expm1(-s * log_x) / s + rest * math.exp(-s * log_x)
            else:
                scale_lam, scale_a = q, 0.0
                tail = -log_x if s == 0.0 else -math.expm1(s * log_x) / s
                core = math.exp(s * log_x) * k_series + tail + rest
        else:
            # K(q, x) = K(q, 1) + head + bump, where head integrates u^-q and
            # bump u^-q (u - 1) e^-u over (1, x).  Gamma(s, x) = x^s e^-x h,
            # and e^-x underflows past x = 745.
            h = _gamma_upper_cf(s, x) if x < 746.0 else 0.0
            x_s_e_x = math.exp(s * log_x - x)
            bump = -q * (gamma_1 - x_s_e_x * h) + 1.0 / math.e - x_s_e_x
            if s > 0.0:
                scale_lam, scale_a = 0.0, -q
                core = (
                    (k_series + bump) * math.exp(-s * log_x)
                    - math.expm1(-s * log_x) / s
                    + math.exp(log_x - x) * h
                )
            else:
                scale_lam, scale_a = q - 1.0, -1.0
                head = log_x if s == 0.0 else math.expm1(s * log_x) / s
                core = k_series + head + bump + math.exp((s + 1.0) * log_x - x) * h
        # E(X^-q) = lam^scale_lam a^scale_a core.  a^scale_a is taken as
        # (1/a)^-scale_a, since scale_a <= 0 and a float power that
        # overflows raises where one of 1/a gives inf.
        value = lam**scale_lam * (1.0 / a) ** -scale_a * core
        if sys.float_info.min <= value < math.inf:
            return math.log(value)
        return scale_lam * log_lam + scale_a * log_a + math.log(core)

    def mean(self) -> float:
        return self.moment(1.0)

    def variance(self) -> float:
        """Var X = v(a lam)/lam^2, where v(x) = x^2/12 + c(x) is the variance
        at lam = 1 (``scaled``).  Its x^2/(12 lam^2) part is formed as a^2/12,
        so neither a lam nor lam^2 has to be a double; past the double range
        the variance raises NumericError."""
        a, lam = self.a, self.lam
        x = a * lam
        r = -math.expm1(-x) / x if x > 0.0 else 1.0  # (1 - e^-x)/x
        value = a * a / 12.0 + math.fsum((4.0 * r, -r * r, -1.0, -math.exp(-x))) / lam / lam
        if not math.isfinite(value):
            raise NumericError(f"variance of {self!r} exceeds the double range")
        return value

    def neg_moment(self, q: float) -> float:
        """E(X^-q) = ``moment(-q)`` for 0 < q < 2; q >= 2 diverges.

        The printed closed form for 0 < q < 1 carries its
        (lam a)^(1-q) e^(-lam a) term with a plus sign, which fails against
        quadrature by a wide margin; the verification ledger records it as
        ``reciprocal-moment-sign``.
        """
        q = _scalar("q", q)
        if q >= 2.0:
            raise DivergenceError(f"E(X^-q) diverges for q >= 2, got q={q!r}")
        return self.moment(-_require_real("q", q, 0.0))

    def lst(self, t: float) -> float:
        """Laplace-Stieltjes transform E(e^(-tX)) for finite t >= 0: the n = 0
        count probability at clock value t."""
        if t == 0.0:
            return 1.0
        return min(1.0, self._count_pmf(_require_positive("t", t), 0)[0])

    def _count_pmf(self, m: float, n: int) -> tuple[float, float]:
        """(P(N = n), log P(N = n)) for N mixed Poisson with mean m*X; m > 0,
        integer n >= 0; (0.0, -inf) where the value is lost to cancellation.

        P(N = n) = m^n/n! E(X^n e^(-mX)) is 1/(a*m) times P1 + w2 P2 + w3 Q:
        P1 = P(n+1, am), P2 = P(n+1, as), Q = Q(n, as), s = m + lam, with
        weights w2 = (c/s) r^(n+1), w3 = a lam r^(n+1), c = lam*n - m and
        r = m/s.  The n = 0 case drops the third term (its n factor vanishes).
        This is the one kernel behind every tilted-moment form and every
        waiting-time density, and each of the three gammas is evaluated once
        on either of its two routes.

        Where the gammas and r^(n+1) are normal doubles, the sum is taken as
        it stands, provided a negative middle term cancels at most half of P1
        and P = total/(a m) is normal: then each term is good to a few ulps
        and so is P, which is returned with its log.  Elsewhere the terms go
        to log space, so that none overflows or underflows, and P is the exp
        of the log; P and Q that underflow come from Kummer's M and the
        continued fraction.  There a negative middle term is paired with P1
        through expm1, which keeps their difference accurate at m >> lam.
        """
        a, lam = self.a, self.lam
        s = lam + m
        c = lam * n - m
        log_r = -math.log1p(lam / m)  # log(m/s)
        am, as_ = a * m, a * s
        p1 = _cs.gammainc(n + 1.0, am)
        p2 = _cs.gammainc(n + 1.0, as_)
        q = _cs.gammaincc(n, as_) if n > 0 else 1.0
        # r^(n+1) is off by about (n+1) eps through pow, and (n+1) |log r| eps
        # through exp, so pow takes r < 1/2 (m < lam) and exp the rest.
        r_n1 = (m / s) ** (n + 1) if m < lam else math.exp((n + 1) * log_r)
        tiny = sys.float_info.min
        if p1 >= tiny and p2 >= tiny and q >= tiny and r_n1 >= tiny:
            w2p2 = c / s * r_n1 * p2
            if c >= 0.0 or -w2p2 <= 0.5 * p1:
                total = p1 + w2p2 + (a * lam * r_n1 * q if n > 0 else 0.0)
                p = total / a / m
                if total >= tiny and tiny <= p < math.inf:
                    return p, math.log(p)
        u1 = _log_from_p(n + 1.0, am, p1)
        # log(|c|/s).  For c < 0, |c|/s = 1 - lam(n+1)/s; log1p keeps it exact
        # at m >> lam, where the quotient itself rounds to 1.
        shortfall = lam * (n + 1) / s
        log_c = math.log1p(-shortfall) if c < 0.0 and shortfall < 0.5 else _log(abs(c) / s)
        u2 = _log_from_p(n + 1.0, as_, p2) + log_c + (n + 1) * log_r
        u3 = -math.inf
        if n > 0:
            u3 = _log_from_q(n, as_, q) + (n + 1) * log_r
            u3 += math.log(a) + math.log(lam)
        top = max(u1, u2, u3)
        if c < 0.0:
            total = -math.expm1(u2 - u1) * math.exp(u1 - top) + math.exp(u3 - top)
        else:
            total = math.exp(u1 - top) + math.exp(u2 - top) + math.exp(u3 - top)
        if not total > 0.0:
            return 0.0, -math.inf
        log_p = top + math.log(total) - math.log(a) - math.log(m)
        return math.exp(log_p), log_p

    def _log_count_sf(self, m: float, n: int) -> float:
        """log P(N >= n) for N mixed Poisson with mean m*X; m > 0, integer n >= 1.

        P(N >= n) = E P(n, m X) = [P(n, y) - (n/y) P(n+1, y)] + r^n [Q(n, z) +
        (n/z) P(n+1, z)], y = a m, z = a (m + lam), r = m/(m + lam); the first
        bracket is E P(n, U m), U uniform on (0, a), so no term is negative.
        Up to y = n it cancels to about P(n, y)/(n+1), so it comes from
        Kummer's M, not scipy's P (1e-12 relative off at n = 1000); past y = n,
        or where M is nan (n past 2^34, y near n), from P.  As z underflows,
        Q(n, z) is 1 and (n/z) P(n+1, z) tends to 0."""
        a, lam = self.a, self.lam
        y, z = a * m, a * (m + lam)
        uniform = -math.inf
        kummer = 1.0 - (n - y) / (n + 1.0) * _cs.hyp1f1(1.0, n + 2.0, y) if 0.0 < y <= n else math.nan
        if kummer >= 0.0:
            uniform = _log_lead(n, y) - math.log(n) + _log(kummer)
        elif y > 0.0:
            uniform = _log(_cs.gammainc(n, y) - n / y * _cs.gammainc(n + 1.0, y))
        log_r_n = -n * math.log1p(lam / m)
        p_z = math.log(n) - math.log(z) + _log_p(n + 1.0, z) if z > 0.0 else -math.inf
        terms = (uniform, _log_q(n, z) + log_r_n, p_z + log_r_n)
        top = max(terms)
        if top == -math.inf:
            return top
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    def log_tilted_moment(self, m: float, n: int) -> float:
        """log E(X^n e^(-mX)) for finite m > 0 and integer n >= 0; finite where
        the moment itself is beyond the double range."""
        return self._log_tilted(_require_positive("m", m), _require_count("n", n))

    def _log_tilted(self, m: float, n: int) -> float:
        """``log_tilted_moment`` for checked arguments."""
        log_p = self._count_pmf(m, n)[1]
        if not log_p > -math.inf:
            raise NumericError(f"tilted moment lost to cancellation at m={m!r}, n={n}")
        return log_p + math.lgamma(n + 1.0) - n * math.log(m)

    def tilted_moment(self, m: float, n: int) -> float:
        """E(X^n e^(-mX)), the common core of the inter-arrival, Erlang and
        mixed Poisson closed forms."""
        return checked_exp(self.log_tilted_moment(m, n))

    def scaled(self, c: float) -> "MaxUExp":
        """Law of c*X: parameters map to (c*a, lam/c)."""
        c = _require_positive("scale factor", c)
        return MaxUExp(c * self.a, self.lam / c)
