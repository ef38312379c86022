"""The Max-U-Exp law: the distribution of max(U(0, a), Exp(lambda)) with the
two ingredients independent.

The cdf factorizes as F(x) = (x/a)(1 - e^(-lambda x)) on (0, a] and
1 - e^(-lambda x) beyond a, so the density has an upward jump of size
(1 - e^(-lambda a))/a at x = a.  Closed-form moments, the Laplace-Stieltjes
transform, reciprocal moments, and the exponentially tilted moments that
drive the mixed Poisson formulas all reduce to incomplete gamma functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError, NumericError
from .numerics import _log_p, _log_q, checked_exp, find_root, gamma_upper, integrate, log_gamma
from .rng import RandomStream, _draw_rows


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    return value


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
    # Each evaluator takes a float or a numpy array.  Floats keep the math
    # module path, which is ~50x cheaper per call than a numpy expression
    # (quadrature callbacks pass floats); arrays are evaluated in one pass
    # with np.where branches that match the scalar ones point for point.

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        if isinstance(x, np.ndarray):
            xp = np.maximum(x, 0.0)
            tail = -np.expm1(-self.lam * xp)
            return np.where(x <= 0.0, 0.0, np.where(x <= self.a, (xp / self.a) * tail, tail))
        if x <= 0.0:
            return 0.0
        tail = -math.expm1(-self.lam * x)
        if x <= self.a:
            return (x / self.a) * tail
        return tail

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density; at the jump point x = a returns the left (uniform-branch) value."""
        if isinstance(x, np.ndarray):
            z = self.lam * np.maximum(x, 0.0)
            ez = np.exp(-z)
            left = (-np.expm1(-z) + z * ez) / self.a
            return np.where(x <= 0.0, 0.0, np.where(x <= self.a, left, self.lam * ez))
        if x <= 0.0:
            return 0.0
        if x <= self.a:
            z = self.lam * x
            return (-math.expm1(-z) + z * math.exp(-z)) / self.a
        return self.lam * math.exp(-self.lam * x)

    def hazard(self, x: float | np.ndarray) -> float | np.ndarray:
        if isinstance(x, np.ndarray):
            # Evaluate the uniform branch on [0, a] only: past a its
            # denominator can vanish.
            xl = np.clip(x, 0.0, self.a)
            z = self.lam * xl
            ez = np.exp(-z)
            left = (-np.expm1(-z) + z * ez) / (self.a - xl + xl * ez)
            return np.where(x <= 0.0, 0.0, np.where(x <= self.a, left, self.lam))
        if x <= 0.0:
            return 0.0
        if x <= self.a:
            z = self.lam * x
            num = -math.expm1(-z) + z * math.exp(-z)
            den = self.a - x + x * math.exp(-z)
            return num / den
        return self.lam

    def quantile(self, q: float) -> float:
        """Inverse cdf.  The exponential branch inverts in closed form; the
        uniform branch bisects the cdf (monotone, bracket (0, a))."""
        if not (0.0 < q < 1.0):
            raise DomainError(f"quantile requires 0 < q < 1, got {q!r}")
        if q >= self.cdf(self.a):
            return -math.log1p(-q) / self.lam
        return find_root(lambda x: self.cdf(x) - q, 0.0, self.a, tol=1e-13 * max(1.0, self.a))

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
        """E(X^k) for k > -1.  Closed form for k > 0, quadrature on (-1, 0),
        and 1 by continuity at k = 0."""
        if not (k > -1.0):
            raise DivergenceError(f"moment diverges for k <= -1, got {k!r}")
        if k == math.inf:
            raise DomainError("moment requires finite k, got inf")
        if k == 0.0:
            return 1.0
        if k > 0.0:
            return checked_exp(self._log_moment(k))
        a = self.a
        return integrate(lambda x: x**k * self.pdf(x), 0.0, math.inf, tol=1e-11, breakpoints=[a]).value

    def _log_moment(self, k: float) -> float:
        """log E(X^k) for k > 0: a log-sum-exp of the three closed-form terms
        a^k/(k+1), k gamma(k+1, a lam)/(a lam^(k+1)) and k Gamma(k, a lam)/lam^k,
        each built from a regularized incomplete gamma, so that none overflows
        where the moment itself is a double."""
        a, lam = self.a, self.lam
        al = a * lam
        log_a, log_lam, log_k = math.log(a), math.log(lam), math.log(k)
        terms = (
            k * log_a - math.log1p(k),
            log_k + _log_p(k + 1.0, al) + math.lgamma(k + 1.0)
            - log_a - (k + 1.0) * log_lam,
            log_k + _log_q(k, al) + math.lgamma(k) - k * log_lam,
        )
        top = max(terms)
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    def mean(self) -> float:
        return self.moment(1.0)

    def variance(self) -> float:
        a, lam = self.a, self.lam
        al = a * lam
        w = -math.expm1(-al)
        return (
            a * a / 12.0
            - (1.0 + math.exp(-al)) / lam**2
            + 4.0 * w / (a * lam**3)
            - w * w / (a * lam * lam) ** 2
        )

    def neg_moment(self, q: float) -> float:
        """E(X^-q) for 0 < q < 2.

        On (0, 1) the closed form holds; the sign of the e^(-lambda a) term
        is negative (the positive variant fails against quadrature by a wide
        margin; see the verification ledger).  On [1, 2) the density near 0
        behaves like 2*lam*x/a, so the integral converges and is evaluated by
        quadrature.  q >= 2 diverges.
        """
        if not (q > 0.0):
            raise DomainError(f"neg_moment requires q > 0, got {q!r}")
        if q >= 2.0:
            raise DivergenceError(f"E(X^-q) diverges for q >= 2, got q={q!r}")
        a, lam = self.a, self.lam
        if q < 1.0:
            al = a * lam
            return 1.0 / (a**q * (1.0 - q)) + (lam ** (q - 1.0) / a) * (
                (q + al) * gamma_upper(1.0 - q, al)
                - al ** (1.0 - q) * math.exp(-al)
                - q * math.exp(log_gamma(1.0 - q))
            )
        return integrate(lambda x: x**-q * self.pdf(x), 0.0, math.inf, tol=1e-11, breakpoints=[a]).value

    def lst(self, t: float) -> float:
        """Laplace-Stieltjes transform E(e^(-tX)) for finite t >= 0: the n = 0
        count probability at clock value t."""
        if not (0.0 <= t < math.inf):
            raise DomainError(f"lst requires finite t >= 0, got {t!r}")
        if t == 0.0:
            return 1.0
        return min(1.0, math.exp(self._log_count_pmf(t, 0)))

    def _log_count_pmf(self, m: float, n: int) -> float:
        """log P(N = n) for N mixed Poisson with mean m*X; m > 0, integer n >= 0.

        P(N = n) = m^n/n! E(X^n e^(-mX)) is 1/(a*m) times a signed sum of
        three regularized incomplete gammas, with weights taken in log space
        so that none overflows or underflows.  The middle weight carries the
        sign of lam*n - m; when it is negative the first two terms are paired
        through expm1, which keeps their difference accurate at m >> lam.  The
        n = 0 case drops the third term (its n factor vanishes).  This is the
        one kernel behind every tilted-moment form.
        """
        a, lam = self.a, self.lam
        s = lam + m
        c = lam * n - m
        log_r = -math.log1p(lam / m)  # log(m/s)
        u1 = _log_p(n + 1.0, a * m)
        # log(|c|/s).  For c < 0, |c|/s = 1 - lam(n+1)/s; log1p keeps it exact
        # at m >> lam, where the quotient itself rounds to 1.
        shortfall = lam * (n + 1) / s
        log_c = math.log1p(-shortfall) if c < 0.0 and shortfall < 0.5 else _log(abs(c) / s)
        u2 = _log_p(n + 1.0, a * s) + log_c + (n + 1) * log_r
        u3 = -math.inf
        if n > 0:
            u3 = _log_q(n, a * s) + (n + 1) * log_r
            u3 += math.log(a) + math.log(lam)
        top = max(u1, u2, u3)
        if c < 0.0:
            total = -math.expm1(u2 - u1) * math.exp(u1 - top) + math.exp(u3 - top)
        else:
            total = math.exp(u1 - top) + math.exp(u2 - top) + math.exp(u3 - top)
        if not total > 0.0:
            return -math.inf
        return top + math.log(total) - math.log(a) - math.log(m)

    def log_tilted_moment(self, m: float, n: int) -> float:
        """log E(X^n e^(-mX)) for m > 0 and integer n >= 0; finite where the
        moment itself is beyond the double range."""
        if not (m > 0.0) or not math.isfinite(m):
            raise DomainError(f"tilted_moment requires finite m > 0, got {m!r}")
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"tilted_moment requires integer n >= 0, got {n!r}")
        log_p = self._log_count_pmf(m, n)
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
