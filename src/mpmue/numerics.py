"""Scalar numerical kernels: incomplete gamma functions, root-finding by
bisection, bounded minimization by Brent's method, and adaptive quadrature.

The regularized incomplete gammas are scipy's ``gammainc``/``gammaincc``
(DiDonato & Morris, with Temme's uniform asymptotics at large order).  Where
scipy's P is below the normal range (0, or a subnormal with few significant
bits), log P comes from Kummer's M.  Gamma(s, x) beyond scipy's reach has
one algorithm, the continued fraction ``_gamma_upper_cf``: log Q where Q is
below the normal range, and the orders s <= 0 of the negative moments.  Both
fallbacks share one lead, ``_log_lead``, free of cancelling logs at large
order.  The non-normalized pair is assembled from the logs.  The scipy
calls are scalar, so they reach the same C routines as the ``scipy.special``
ufuncs through ``scipy.special.cython_special``, with the same results and
without the ufunc dispatch, which costs several times the routine itself on
one pair of floats.  ``_log_p`` and ``_log_q`` take already-checked
arguments, and the public functions check first.  The count kernel calls
``cython_special`` itself, since it uses P and Q as they are wherever they
are normal doubles, and hands the values to ``_log_from_p`` and
``_log_from_q`` for their logs elsewhere, so that no gamma is evaluated
twice.
``import mpmue`` loads no scipy module.  ``_cs`` is a stand-in that
imports ``scipy.special`` at the first incomplete gamma (moments, ``lst``,
``pmf``, the Erlang pdf and cdf, ``verify``) and rebinds ``_cs`` to
``cython_special``; the samplers, ``simulate_paths``, ``MaxUExp``'s pdf, cdf
and quantile, ``mom_curve*`` and the fitters need only numpy.  The
least-squares fit refines its step with ``minimize_bounded``, a port of
scipy's bounded scalar minimizer that loads no scipy.  ``integrate`` runs
``_quadpack``, a step-for-step port of QUADPACK's QAGS and QAGI (Piessens
et al. 1983), the routines behind ``scipy.integrate.quad``, with the same
points, value, error estimate and evaluation count, so it loads no
``scipy.integrate`` either; it imports ``_quadpack`` on first call.  Only ``minimize`` and ``least_squares`` import ``scipy.optimize``,
on first call, which also keeps the ``scipy.linalg`` and ``scipy.sparse``
it pulls in unloaded.

``minimize``, ``least_squares``, ``gamma_lower_reg`` and ``gamma_upper_reg``
have no caller in the library, so nothing in it loads ``scipy.optimize``.
They stay only because the benchmark's tracer (``benchmarks/tracing.py``)
looks each up by name, with no default.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BracketError, DomainError, NumericError, _require_positive, _require_real, _scalar
)


class _LazyCythonSpecial:
    """Stands in for ``scipy.special.cython_special`` until the first gamma.

    The first attribute access imports the module and rebinds ``_cs`` to it
    in each module of this package that still holds this stand-in, so warm
    kernel calls reach the module directly.  A ``_cs`` bound to anything
    else is left alone.
    """

    def __getattr__(self, name: str):
        from scipy.special import cython_special

        prefix = __package__ + "."
        for modname, module in list(sys.modules.items()):
            if modname.startswith(prefix) and getattr(module, "_cs", None) is self:
                module._cs = cython_special
        return getattr(cython_special, name)


_cs = _LazyCythonSpecial()


def checked_exp(x: float) -> float:
    """e^x, raising NumericError rather than OverflowError past the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise NumericError(f"e^{x:.17g} exceeds the double range") from None


def _check_gamma_args(alpha: float, x: float) -> tuple[float, float]:
    alpha, x = _require_positive("alpha", alpha), _scalar("x", x)
    if not (x >= 0.0):
        raise DomainError(f"incomplete gamma requires x >= 0, got {x!r}")
    return alpha, x


def gamma_lower(alpha: float, x: float) -> float:
    """Non-normalized lower incomplete gamma: integral of t^(alpha-1) e^-t over (0, x).

    Assembled in log space, so it is finite whenever the value is a double,
    even where Gamma(alpha) alone overflows; past the double range it raises
    NumericError.
    """
    alpha, x = _check_gamma_args(alpha, x)
    return checked_exp(_log_p(alpha, x) + math.lgamma(alpha))


def gamma_upper(alpha: float, x: float) -> float:
    """Non-normalized upper incomplete gamma: integral of t^(alpha-1) e^-t over (x, inf)."""
    alpha, x = _check_gamma_args(alpha, x)
    return checked_exp(_log_q(alpha, x) + math.lgamma(alpha))


def gamma_lower_reg(alpha: float, x: float) -> float:
    """Regularized lower incomplete gamma P(alpha, x), always within [0, 1]."""
    return _cs.gammainc(*_check_gamma_args(alpha, x))


def gamma_upper_reg(alpha: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(alpha, x), always within [0, 1]."""
    return _cs.gammaincc(*_check_gamma_args(alpha, x))


def _log_p(alpha: float, x: float) -> float:
    """log P(alpha, x) for arguments that pass ``_check_gamma_args``."""
    return _log_from_p(alpha, x, _cs.gammainc(alpha, x))


def _log_from_p(alpha: float, x: float, p: float) -> float:
    """log P(alpha, x) given scipy's p = P(alpha, x).  Where p is below the
    normal range it is 0 or a subnormal with few significant bits, and log P
    comes from Kummer's M instead: P = x^alpha e^-x / Gamma(alpha + 1)
    M(1, alpha + 1, x)."""
    if p >= sys.float_info.min:
        return math.log(p)
    if x == 0.0:
        return -math.inf
    return _log_lead(alpha, x) - math.log(alpha) + math.log(_cs.hyp1f1(1.0, alpha + 1.0, x))


def _log_q(alpha: float, x: float) -> float:
    """log Q(alpha, x) for arguments that pass ``_check_gamma_args``."""
    return _log_from_q(alpha, x, _cs.gammaincc(alpha, x))


def _log_from_q(alpha: float, x: float, q: float) -> float:
    """log Q(alpha, x) given scipy's q = Q(alpha, x).  Where q is below the
    normal range, log Q comes from the continued fraction.  Q underflows only
    at x > alpha (by 38 sqrt(alpha) or more at large alpha), where the
    continued fraction takes at most 7 steps for alpha >= 1, or at x < 1
    for alpha below about 1e-307.  There the fraction converges too slowly,
    and Q = alpha E1(x) to double precision, since Gamma(alpha, x) is E1(x)
    and 1/Gamma(alpha) is alpha, each to O(alpha)."""
    if q >= sys.float_info.min:
        return math.log(q)
    if math.isinf(x):
        return -math.inf
    if x < 1.0:
        return math.log(alpha) + math.log(_cs.exp1(x))
    return _log_lead(alpha, x) + math.log(_gamma_upper_cf(alpha, x))


def _log_lead(alpha: float, x: float) -> float:
    """log(x^alpha e^-x / Gamma(alpha)) for x > 0: the lead of Q's continued
    fraction, and alpha times the lead of P's Kummer form.  Its logs of size
    alpha log alpha cancel, so from alpha = 10 on it is taken with
    x = alpha (1 + t) as alpha (log1p(t) - t) + log(alpha / 2 pi) / 2 less
    Stirling's remainder of lgamma(alpha), which has no such terms."""
    if alpha < 10.0:
        return alpha * math.log(x) - x - math.lgamma(alpha)
    t = (x - alpha) / alpha
    if t > -0.5:
        log1pmx = _log1pmx(t)
    else:
        # t = -1 + x/alpha has lost the digits of x/alpha, so log1p(t) is
        # log(x/alpha), in two logs where the quotient leaves the normal range.
        ratio = x / alpha
        if ratio >= sys.float_info.min:
            log1pmx = math.log(ratio) - t
        else:
            log1pmx = math.log(x) - math.log(alpha) - t
    return alpha * log1pmx + 0.5 * math.log(alpha / (2.0 * math.pi)) - _stirling_remainder(alpha)


def _log1pmx(t: float) -> float:
    """log1p(t) - t for t > -1/2.  Below t = 1 the difference cancels, so it
    is the series of 2 atanh(u) - t with u = t/(2 + t): -t u + 2 u^3 (1/3 +
    u^2/5 + ...), whose terms fall by u^2 <= 1/9."""
    if t >= 1.0:
        return math.log1p(t) - t
    u = t / (2.0 + t)
    u2 = u * u
    total, power, k = 0.0, 1.0, 3
    while True:
        term = power / k
        total += term
        if term <= 2.0**-53 * total:
            return 2.0 * u * u2 * total - t * u
        power *= u2
        k += 2


# B_2k / (2k (2k - 1)) for k = 1..8: lgamma(x) = (x - 1/2) log x - x +
# log(2 pi)/2 + sum over k of these over x^(2k-1), to 1e-18 from x = 10 on.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)


def _stirling_remainder(x: float) -> float:
    """lgamma(x) - (x - 1/2) log x + x - log(2 pi)/2 for x >= 10."""
    z = 1.0 / (x * x)
    total = 0.0
    for coeff in reversed(_STIRLING):
        total = total * z + coeff
    return total / x


def _gamma_upper_cf(s: float, x: float) -> float:
    """h with Gamma(s, x) = x^s e^-x h, for real s and x > max(0, s - 1):
    Legendre's continued fraction, evaluated by the modified Lentz method.
    With partial numerators -i (i - s) and denominators b_i = x + 2i + 1 - s,
    both Lentz denominators at step i are at least x + i + 1 - s > 0, so
    Lentz's guard against a vanishing one is left out.  Induction: given
    x + i - s > 0 at step i - 1, the next is at least b_i for i <= s (a
    numerator >= 0), and above b_i - i (i - s)/(x + i - s) >= b_i - i for
    i > s.  It needs at most about 100 steps at x >= 1, and 731 at x = 0.1."""
    b = x - s + 1.0  # x + 1 would round once x passes 2^53
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= 2.0**-53:
            return h
    raise NumericError(f"continued fraction for Gamma({s!r}, {x!r}) did not converge")


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of f on [lo, hi] by bisection.

    Requires a sign change over the bracket (an endpoint with f == 0 counts).
    Stops once the bracket width drops below ``tol``, once its midpoint
    rounds to an end (further halvings would leave it as it is), or after
    200 halvings, which cover any bracket up to 2^200 times ``tol``; the
    library's brackets and tolerances need at most 70.
    """
    lo, hi = _require_real("lo", lo), _require_real("hi", hi)
    if not (lo < hi):
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    tol = _require_positive("tol", tol)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def minimize_bounded(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> float:
    """Local minimizer of f on [lo, hi] by Brent's method, golden-section
    steps with parabolic interpolation (Brent 1973, ch. 5).

    A step-for-step port of scipy's ``minimize_scalar(method="bounded")``:
    the same points, the same result and the same evaluation count.  It
    stops once the bracket around the best point is within 2 tol1 of it,
    where tol1 = sqrt(2.2e-16) |x| + xatol/3, or after 500 evaluations, and
    returns the best point seen.  A bracket narrower than about xatol takes
    one evaluation, at its golden-section point.
    """
    a, b = _require_real("lo", lo), _require_real("hi", hi)
    if not (a <= b):
        raise DomainError(f"invalid bracket [{a}, {b}]")
    xatol = _require_positive("xatol", xatol)
    # xf is the best point, nfc the second best and fulc the one before.
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = f(xf)
    num, rat, e = 1, 0.0, 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            # A parabola through the three points, taken if its vertex lies
            # inside the bracket and moves less than half the step before last.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
            if parabolic:
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)  # never closer than tol1 to xf
        x = xf + step if rat >= 0.0 else xf - step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def minimize(
    f: Callable[[Sequence[float]], float],
    start: Sequence[float],
    bounds: Sequence[tuple[float, float]] | None = None,
    tol: float = 1e-10,
) -> np.ndarray:
    """Derivative-free simplex descent from ``start``, deterministic, bounds by clipping.

    Restarts the simplex from its own optimum until the objective stops
    improving, which guards against premature shrinkage.  The result never
    has a larger objective than the (clipped) start point.
    """
    from scipy.optimize import minimize as scipy_minimize

    x0 = np.asarray(start, dtype=float)
    if bounds is not None:
        lob = np.array([b[0] for b in bounds])
        hib = np.array([b[1] for b in bounds])
        x0 = np.clip(x0, lob, hib)
    best_x = x0
    best_f = f(x0)
    for _ in range(4):
        res = scipy_minimize(
            f,
            best_x,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": tol, "fatol": tol, "maxiter": 2000},
        )
        if res.fun < best_f - 1e-15:
            best_x, best_f = res.x, res.fun
        else:
            if res.fun <= best_f:
                best_x, best_f = res.x, res.fun
            break
    best_x = np.asarray(best_x, dtype=float)
    if bounds is not None:
        # The simplex solver clips evaluation points but can report a vertex
        # slightly outside the box; the contract promises an in-bounds result.
        best_x = np.clip(best_x, lob, hib)
    return best_x


def least_squares(
    residuals: Callable[[Sequence[float]], np.ndarray],
    start: Sequence[float],
    bounds: Sequence[tuple[float, float]],
) -> np.ndarray:
    """Bounded nonlinear least squares via a trust-region solver, to 1e-14
    in the step, the cost and the gradient.

    ``residuals`` maps a parameter vector to a residual vector; the result
    minimizes the residual sum of squares and always lies inside ``bounds``.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    lob = np.array([b[0] for b in bounds])
    hib = np.array([b[1] for b in bounds])
    x0 = np.clip(np.asarray(start, dtype=float), lob, hib)
    res = scipy_least_squares(
        residuals, x0, bounds=(lob, hib), xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=10_000
    )
    return np.clip(np.asarray(res.x, dtype=float), lob, hib)


class QuadResult(NamedTuple):
    value: float
    err_estimate: float
    evaluations: int


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Adaptive quadrature of f over (lo, hi); hi may be math.inf.

    The interval is split at the supplied interior breakpoints (known kinks
    or jumps), each cut once however often it is given, and each piece is
    integrated adaptively to absolute and relative tolerance ``tol``: a
    finite piece by QUADPACK's QAGS and the semi-infinite tail by QAGI,
    which maps it onto (0, 1].  Raises NumericError as soon as a rule's sum
    or error estimate is not finite.
    """
    from . import _quadpack

    tol, lo = _require_positive("tol", tol), _require_real("lower limit", lo)
    hi = _scalar("upper limit", hi)
    if not (lo < hi):
        raise DomainError(f"invalid interval [{lo}, {hi}]")
    cuts = sorted({b for b in (_scalar("breakpoint", b) for b in breakpoints) if lo < b < hi})
    edges = [lo, *cuts, hi]
    value = 0.0
    err = 0.0
    evals = 0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e, n = _quadpack.qagi(f, a, tol) if b == math.inf else _quadpack.qags(f, a, b, tol)
        value += v
        err += e
        evals += n
    return QuadResult(value, err, evals)
