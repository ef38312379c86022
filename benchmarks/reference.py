"""Reference values for the benchmark's output checks, computed apart from mpmue.

Nothing here imports mpmue.  The Max-U-Exp density is coded from its
definition: with U uniform on (0, a) and E exponential with rate lam, the
cdf of max(aU, E) is the product P(aU <= x) P(E <= x), and the density is
its derivative.  Every expectation over the mixing law is an adaptive
quadrature (``scipy.integrate.quad``) of that density, split at the jump
point ``a`` and at the peak of the integrand.

This module imports scipy.  The benchmark imports it only after the timed
region, so its import cost never lands in ``setup_s``.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.special import pdtr, pdtrc


def log_density(a: float, lam: float, x: float) -> float:
    """log of d/dx [min(x/a, 1) (1 - e^(-lam x))] for x > 0."""
    if x < a:
        e = math.exp(-lam * x)
        return math.log(((1.0 - e) + x * lam * e) / a)
    return math.log(lam) - lam * x


def _expect(a: float, lam: float, log_weight, peak: float) -> float:
    """E w(xi) = integral of w(x) f(x) over (0, inf), where log_weight(x) = log w(x).

    The integrand is scaled by its value at the larger of the peak and the
    jump point before integrating, so that weights like x^120 e^(-m x) stay
    within double range; the scale is restored at the end.
    """
    cuts = sorted({a, peak} | ({peak / 2.0, 2.0 * peak} if peak > 0.0 else set()))
    cuts = [c for c in cuts if c > 0.0]
    log_scale = max(log_weight(c) + log_density(a, lam, c) for c in cuts)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return math.exp(log_weight(x) + log_density(a, lam, x) - log_scale)

    total = 0.0
    for lo, hi in zip([0.0, *cuts], [*cuts, math.inf]):
        total += quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return total * math.exp(log_scale)


def mean(a: float, lam: float) -> float:
    """E xi."""
    return _expect(a, lam, math.log, 1.0 / lam)


def laplace(a: float, lam: float, s: float) -> float:
    """E e^(-s xi): P(N = 0) for a path whose clock reads s."""
    return _expect(a, lam, lambda x: -s * x, a)


def tilted(a: float, lam: float, m: float, n: int) -> float:
    """E xi^n e^(-m xi)."""
    return _expect(a, lam, lambda x: n * math.log(x) - m * x, n / (m + lam))


def window_mass(a: float, lam: float, m: float, lo: int, hi: int) -> tuple[float, float]:
    """(P(lo <= N <= hi), E[N; lo <= N <= hi]) for N mixed Poisson with mean m xi.

    Uses scipy's Poisson cdf: the upper-tail form where the window lies
    above the Poisson mean, so that small window masses keep their digits.
    """

    def window(mu: float, k0: int, k1: int) -> float:
        if k1 < k0 or k1 < 0:
            return 0.0
        if k0 <= 0:
            return float(pdtr(k1, mu))
        if mu < k0:
            return float(pdtrc(k0 - 1, mu) - pdtrc(k1, mu))
        return float(pdtr(k1, mu) - pdtr(k0 - 1, mu))

    def integral(g) -> float:
        def integrand(x: float) -> float:
            return 0.0 if x <= 0.0 else g(x) * math.exp(log_density(a, lam, x))

        cuts = sorted({a, max(lo, 1) / m, max(hi, 1) / m})
        return sum(
            quad(integrand, l0, h0, epsabs=1e-15, epsrel=1e-12, limit=400)[0]
            for l0, h0 in zip([0.0, *cuts], [*cuts, math.inf])
        )

    mass = integral(lambda x: window(m * x, lo, hi))
    # E[N 1{lo <= N <= hi}] = mu P(lo - 1 <= N' <= hi - 1) for N' ~ Poisson(mu).
    first = integral(lambda x: m * x * window(m * x, lo - 1, hi - 1))
    return mass, first


def ordered_pmf(a: float, lam: float, mus, ks) -> float:
    """P(N(t_1) = k_1, ...) as the mixture of independent Poisson increments."""
    log_const = 0.0
    prev_m, prev_k = 0.0, 0
    for m, k in zip(mus, ks):
        dk = k - prev_k
        log_const += dk * math.log(m - prev_m) - math.lgamma(dk + 1.0)
        prev_m, prev_k = m, k
    return math.exp(log_const) * tilted(a, lam, mus[-1], ks[-1])


def erlang_pdf(a: float, lam: float, n: int, t: float) -> float:
    """Density at t of the n-th arrival: the Gamma(n, rate xi) density mixed over xi."""

    def log_weight(x: float) -> float:
        return n * math.log(x) + (n - 1) * math.log(t) - x * t - math.lgamma(n)

    return _expect(a, lam, log_weight, n / (t + lam))
