import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmue
from mpmue.errors import BracketError, DomainError, NumericError
from mpmue import numerics
from mpmue.numerics import (
    find_root,
    gamma_lower,
    gamma_upper,
    integrate,
    minimize,
    minimize_bounded,
)


def test_gamma_pieces_sum_to_gamma():
    for alpha in (0.3, 1.0, 2.5, 7.0):
        for x in (0.1, 1.0, 4.0, 20.0):
            total = gamma_lower(alpha, x) + gamma_upper(alpha, x)
            assert total == pytest.approx(math.gamma(alpha), rel=1e-12)


def test_gamma_upper_integer_closed_form():
    # Gamma(2, x) = (x + 1) e^(-x)
    for x in (0.5, 1.0, 3.0):
        assert gamma_upper(2.0, x) == pytest.approx((x + 1.0) * math.exp(-x), rel=1e-12)
    # Gamma(1, x) = e^(-x)
    assert gamma_upper(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gamma_half_via_erfc():
    # Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x))
    for x in (0.25, 1.0, 2.0):
        want = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
        assert gamma_upper(0.5, x) == pytest.approx(want, rel=1e-11)


@given(
    alpha=st.floats(0.1, 20.0),
    x=st.floats(0.01, 50.0),
    bump=st.floats(0.01, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_gamma_lower_monotone_in_x(alpha, x, bump):
    assert gamma_lower(alpha, x + bump) >= gamma_lower(alpha, x)


@given(alpha=st.floats(0.2, 15.0), x=st.floats(0.05, 40.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence(alpha, x):
    # Gamma(alpha+1, x) = alpha Gamma(alpha, x) + x^alpha e^(-x)
    lhs = gamma_upper(alpha + 1.0, x)
    rhs = alpha * gamma_upper(alpha, x) + x**alpha * math.exp(-x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)


def test_gamma_domain_errors():
    with pytest.raises(DomainError):
        gamma_lower(0.0, 1.0)
    with pytest.raises(DomainError):
        gamma_upper(1.0, -0.5)


def _ufunc_log_p(alpha, x):
    p = float(sc.gammainc(alpha, x))
    if p >= sys.float_info.min:
        return math.log(p)
    if x == 0.0:
        return -math.inf
    log_lead = numerics._log_lead(alpha, x) - math.log(alpha)
    return log_lead + math.log(sc.hyp1f1(1.0, alpha + 1.0, x))


def _mpmath_log_q(alpha, x):
    """log Q(alpha, x) from 40-digit mpmath.  Past order 2^34 its series does
    not converge, so there Gamma(alpha, x) is x^alpha e^-x times the integral
    of (1 + v/x)^(alpha-1) e^-v over (0, inf), divided by x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s, x = mpmath.mpf(alpha), mpmath.mpf(x)
        try:
            return float(mpmath.log(mpmath.gammainc(s, x, mpmath.inf, regularized=True)))
        except mpmath.libmp.NoConvergence:
            h = mpmath.quad(lambda v: mpmath.exp((s - 1) * mpmath.log1p(v / x) - v), [0, mpmath.inf])
            return float(s * mpmath.log(x) - x + mpmath.log(h / x) - mpmath.loggamma(s))


def _bits(v):
    assert type(v) is float
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _gamma_grid():
    alphas = [1e-3, 0.5, 1.0, 2.5, 3.0, 7.0, 30.0, 171.5, 400.0, 1e4]
    xs = [0.0, 1e-300, 1e-3, 0.5, 1.0, 2.5, 10.0, 300.0, 2000.0, 1e5, math.inf]
    grid = [(a, x) for a in alphas for x in xs]
    rng = np.random.default_rng(7)
    logs = rng.uniform(-6.0, 4.0, size=(1000, 2))
    return grid + [(float(10.0**u), float(10.0**v)) for u, v in logs]


def test_scalar_gammas_match_the_ufuncs_bit_for_bit():
    """The cython_special route gives the ufuncs' bits for plain P and Q and
    for Kummer's M where P is below the normal range (its lead is
    ``_log_lead``, held to mpmath in ``test_log_p_below_the_normal_range``).
    Where Q is below the normal range, log Q comes from the continued
    fraction and is held to mpmath: 1e-15 relative, plus the rounding of
    alpha log x in its lead (about alpha eps, so only orders past about 1e10
    use it)."""
    kummer = continued = 0
    extra = [(0.5, 1e288), (1e-12, 1e300), (2.0**35, 2.0**36), (2.0**40, 1.1 * 2.0**40)]
    for alpha, x in _gamma_grid() + extra:
        kummer += sc.gammainc(alpha, x) < sys.float_info.min and x > 0.0
        q = float(sc.gammaincc(alpha, x))
        pairs = [
            (numerics._log_p(alpha, x), _ufunc_log_p(alpha, x)),
            (numerics.gamma_lower_reg(alpha, x), float(sc.gammainc(alpha, x))),
            (numerics.gamma_upper_reg(alpha, x), q),
        ]
        got_q = numerics._log_q(alpha, x)
        if q >= sys.float_info.min or x == math.inf:
            pairs.append((got_q, math.log(q) if q > 0.0 else -math.inf))
        else:
            continued += 1
            want_q = _mpmath_log_q(alpha, x)
            tol = 1e-15 * abs(want_q) + 2.0**-53 * alpha * abs(math.log(x))
            assert abs(got_q - want_q) <= tol, (alpha, x, got_q, want_q)
        for got, want in pairs:
            assert _bits(got) == _bits(want), (alpha, x, got, want)
    assert sc.gammainc(400.0, 1e-3) == 0.0 and sc.gammaincc(3.0, 2000.0) == 0.0
    assert kummer > 0 and continued == 113 + len(extra)


@pytest.mark.parametrize(
    "alpha,x", [(1e4, 14267.367071117078), (1.1e12, 1100040338301.4668), (2.0**53, 9007202904892574.0)]
)
def test_log_q_just_past_the_underflow_of_q(alpha, x):
    """Where Q first underflows at large order, its log is about -744 and
    its lead's logs are of size alpha log alpha; the lead in log1p(t) - t
    and Stirling's remainder keeps it to a few ulps."""
    mpmath = pytest.importorskip("mpmath")
    assert sc.gammaincc(alpha, x) == 0.0
    # Gamma(alpha, x) = x^(alpha-1) e^-x times the integral of
    # (1 + v/x)^(alpha-1) e^-v over (0, inf), independent of the lead.
    with mpmath.workdps(40):
        s, x_ = mpmath.mpf(alpha), mpmath.mpf(x)
        h = mpmath.quad(lambda v: mpmath.exp((s - 1) * mpmath.log1p(v / x_) - v), [0, 1, 10, mpmath.inf])
        want = float((s - 1) * mpmath.log(x_) - x_ + mpmath.log(h) - mpmath.loggamma(s))
    assert abs(numerics._log_q(alpha, x) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize(
    "alpha,x",
    [(1e4, 6600.0), (1e4, 6630.4), (1e4, 6640.0), (1e4, 4000.0), (1e4, 1.0), (1e4, 1e-305), (5.0, 1e-70)],
)
def test_log_p_below_the_normal_range(alpha, x):
    """Where scipy's P is 0 or subnormal, log P comes from Kummer's M, to
    1e-12 plus 4 ulps of |log P|.  At (1e4, 6630.4) and (1e4, 6640) P is
    subnormal, and its own log was 0.7 and 3.4e-3 off; at 6600 and 4000 the
    lead alpha log x - x - lgamma(alpha + 1) lost about alpha eps.  x = 1
    takes the lead's log(x/alpha) branch, x = 1e-305 its two logs, where
    x/alpha is subnormal, and alpha = 5 its plain form."""
    mpmath = pytest.importorskip("mpmath")
    assert sc.gammainc(alpha, x) < sys.float_info.min
    with mpmath.workdps(60):
        want = float(mpmath.log(mpmath.gammainc(mpmath.mpf(alpha), 0, mpmath.mpf(x), regularized=True)))
    assert abs(numerics._log_p(alpha, x) - want) <= 1e-12 + 4.0 * sys.float_info.epsilon * abs(want)


@pytest.mark.parametrize("name", ["gamma_lower_reg", "gamma_upper_reg", "gamma_lower", "gamma_upper"])
@pytest.mark.parametrize(
    "alpha,x", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (2.0, -1e-300), (2.0, math.nan)]
)
def test_public_gammas_check_their_arguments(name, alpha, x):
    with pytest.raises(DomainError):
        getattr(numerics, name)(alpha, x)


def test_ints_past_the_double_range_raise_domain_error():
    # An int of over 4300 digits has no str, so the messages show floats.
    probes = [
        *(lambda n=n: getattr(numerics, n)(1.0, 10**400) for n in (
            "gamma_lower", "gamma_upper", "gamma_lower_reg", "gamma_upper_reg")),
        lambda: find_root(lambda x: x, -1.0, 10**5000),
        lambda: find_root(lambda x: x, -(10**400), 1.0),
        lambda: integrate(lambda x: 0.0, 0.0, 10**400),
        lambda: integrate(lambda x: 0.0, 0.0, math.inf, breakpoints=[10**400]),
    ]
    for probe in probes:
        with pytest.raises(DomainError, match="double range"):
            probe()
    with pytest.raises(DomainError, match=r"\[1.0, 1.0\]"):
        find_root(lambda x: x, 1, 1)
    with pytest.raises(DomainError, match=r"\[0.0, -inf\]"):
        integrate(lambda x: 0.0, 0, -math.inf)


def test_find_root_simple():
    r = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-14)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_find_root_needs_bracket():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_minimize_quadratic_with_bounds():
    res = minimize(lambda p: (p[0] - 3.0) ** 2 + (p[1] + 1.0) ** 2, [0.0, 0.0],
                   bounds=[(-10.0, 10.0), (-10.0, 10.0)], tol=1e-12)
    assert res[0] == pytest.approx(3.0, abs=1e-5)
    assert res[1] == pytest.approx(-1.0, abs=1e-5)


def test_minimize_respects_bounds():
    res = minimize(lambda p: (p[0] - 3.0) ** 2, [0.5], bounds=[(0.0, 1.0)], tol=1e-12)
    assert 0.0 <= res[0] <= 1.0
    assert res[0] == pytest.approx(1.0, abs=1e-6)


# (function, lo, hi, xatol): smooth and non-smooth minima inside the
# bracket, minima at or next to either end (1e-9 past the lower end takes
# the near-bound tol1 nudge), several local minima, a flat function, a
# bracket so wide that the search stops at its 500-evaluation cap, and
# brackets narrower than xatol.
BOUNDED_CASES = [
    (lambda x: x * x, 0.0, 2.0, 1e-10),
    (lambda x: (x - 1e-9) ** 2, 0.0, 2.0, 1e-10),
    (lambda x: abs(x), -1e300, 1e300, 1e-10),
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-10),
    (lambda x: (x - 0.3) ** 2, -1.0, 2.0, 1e-5),
    (lambda x: abs(x - 0.3), -1.0, 2.0, 1e-10),
    (lambda x: abs(x - 1.7), 0.0, 4.0, 1e-8),
    (lambda x: x, 1.0, 5.0, 1e-10),
    (lambda x: -x, 1.0, 5.0, 1e-10),
    (lambda x: (x - 7.0) ** 2, -3.0, 2.0, 1e-6),
    (lambda x: math.sin(5.0 * x) + 0.1 * x * x, -4.0, 4.0, 1e-10),
    (lambda x: math.cos(x) * math.exp(-abs(x - 1.0)), -10.0, 10.0, 1e-9),
    (lambda x: x**4 - 3.0 * x * x, -2.0, 3.0, 1e-12),
    (lambda x: math.floor(3.0 * x) + (x - 0.5) ** 2, -2.0, 2.0, 1e-10),
    (lambda x: 1.0, 0.0, 1.0, 1e-10),
    (lambda x: math.exp(x) - 2.0 * x, -30.0, 30.0, 1e-10),
    (lambda x: (x - 1e-3) ** 2, 0.0, 1e-11, 1e-10),
    (lambda x: (x - 2.0) ** 2, 2.0, 2.0, 1e-10),
]


@pytest.mark.parametrize("f, lo, hi, xatol", BOUNDED_CASES)
def test_minimize_bounded_is_scipys_bounded_method(f, lo, hi, xatol):
    from scipy.optimize import minimize_scalar

    calls = {"ours": 0, "scipy": 0}

    def counted(key):
        def g(x):
            calls[key] += 1
            return f(float(x))

        return g

    with np.errstate(over="ignore", invalid="ignore"):  # the 1e300-wide bracket
        want = minimize_scalar(counted("scipy"), bounds=(lo, hi), method="bounded",
                               options={"xatol": xatol})
    got = minimize_bounded(counted("ours"), lo, hi, xatol)
    assert got == float(want.x)
    assert calls["ours"] == calls["scipy"]


def test_minimize_bounded_checks_its_bracket():
    with pytest.raises(DomainError):
        minimize_bounded(abs, 1.0, 0.0, 1e-10)
    with pytest.raises(DomainError):
        minimize_bounded(abs, 0.0, math.inf, 1e-10)
    with pytest.raises(DomainError):
        minimize_bounded(abs, 0.0, 1.0, 0.0)


def test_integrate_finite_and_infinite():
    assert integrate(lambda x: x * x, 0.0, 1.0, tol=1e-12).value == pytest.approx(1.0 / 3.0)
    assert integrate(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-12).value == pytest.approx(1.0)


def test_integrate_breakpoints_with_infinite_tail():
    # Discontinuous integrand; the breakpoint keeps the panels clean.
    f = lambda x: 1.0 if x < 1.0 else math.exp(-(x - 1.0))
    got = integrate(f, 0.0, math.inf, tol=1e-12, breakpoints=[1.0]).value
    assert got == pytest.approx(2.0, rel=1e-10)


def test_integrate_cuts_a_repeated_breakpoint_once():
    # A repeated cut had split off an empty piece and integrated it: 63
    # evaluations against 42 for the one cut, with the same value.
    once = integrate(lambda x: x * x, 0.0, 2.0, breakpoints=[1.0])
    assert integrate(lambda x: x * x, 0.0, 2.0, breakpoints=[1.0, 1.0]) == once
    assert integrate(lambda x: x * x, 0.0, 2.0, breakpoints=[1.0, 1, 1.0]) == once


# integrate is a port of QUADPACK's QAGS and QAGI, so each piece must give
# what scipy.integrate.quad gives with limit 200 and epsabs = epsrel = tol:
# the same value, error estimate and evaluation count, bit for bit.  The
# rows take the plain rule, bisection, extrapolation, the tail's
# substitution, the subdivision limit, extreme scales and a breakpoint.
_QUADPACK_ROWS = [
    ("x^2", lambda x: x * x, 0.0, 1.0, 1e-10, ()),
    ("x^-0.5", lambda x: x**-0.5, 0.0, 1.0, 1e-10, ()),
    ("log x", math.log, 0.0, 1.0, 1e-10, ()),
    ("x^-0.9", lambda x: x**-0.9, 0.0, 1.0, 1e-10, ()),
    ("|x - 1/3|^-0.5", lambda x: abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0, 1e-10, ()),
    ("step at 1.3", lambda x: 1.0 if x > 1.3 else 0.0, 0.0, 2.0, 1e-10, ()),
    ("sin(1/x)", lambda x: math.sin(1.0 / x), 0.001, 1.0, 1e-10, ()),
    ("sin(1/x) to the limit", lambda x: math.sin(1.0 / x), 0.0, 1.0, 1e-14, ()),
    ("e^-x", lambda x: math.exp(-x), 0.0, math.inf, 1e-12, ()),
    ("1/(1 + x^2)", lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, 1e-12, ()),
    ("e^-x cos 30x", lambda x: math.exp(-x) * math.cos(30.0 * x), 0.0, math.inf, 1e-10, ()),
    ("x^-1.5", lambda x: x**-1.5, 1.0, math.inf, 1e-10, ()),
    ("x^-1.01", lambda x: x**-1.01, 1.0, math.inf, 1e-10, ()),
    ("1/x", lambda x: 1.0 / x, 1.0, math.inf, 1e-10, ()),
    ("zero", lambda x: 0.0, 0.0, 1.0, 1e-10, ()),
    ("zero tail", lambda x: 0.0, 2.0, math.inf, 1e-10, ()),
    ("1e-300 x^-0.5", lambda x: 1e-300 * x**-0.5, 0.0, 1.0, 1e-10, ()),
    ("1e-300 e^-x", lambda x: 1e-300 * math.exp(-x), 0.0, math.inf, 1e-12, ()),
    ("1e300 x^2", lambda x: 1e300 * x * x, 0.0, 1.0, 1e-12, ()),
    ("1e300 / (1 + x^2)", lambda x: 1e300 / (1.0 + x * x), 0.0, math.inf, 1e-12, ()),
    ("x^-0.5 then e^-x, split at 1", lambda x: math.exp(-x) if x > 1.0 else x**-0.5,
     0.0, math.inf, 1e-11, (1.0,)),
]


@pytest.mark.parametrize("name, f, lo, hi, tol, breakpoints", _QUADPACK_ROWS,
                         ids=[row[0] for row in _QUADPACK_ROWS])
def test_integrate_is_quadpack(name, f, lo, hi, tol, breakpoints):
    from scipy.integrate import quad

    edges = [lo, *breakpoints, hi]
    want = [0.0, 0.0, 0]
    for a, b in zip(edges[:-1], edges[1:]):
        value, err, info = quad(f, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1)[:3]
        want = [want[0] + value, want[1] + err, want[2] + info["neval"]]
    assert list(integrate(f, lo, hi, tol=tol, breakpoints=breakpoints)) == want


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, math.inf)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_raises_on_a_non_finite_integrand(lo, hi, bad):
    # The first rule already meets the bad value, at the centre node of
    # (0, 1) or of the tail's t in (0, 1), x = 1: 21 or 15 evaluations.
    calls = []

    def f(x):
        calls.append(x)
        return bad if x == 0.5 or x == 1.0 or math.isnan(bad) else 1.0 / (1.0 + x * x)

    with pytest.raises(NumericError, match="not finite"):
        integrate(f, lo, hi, tol=1e-10)
    assert len(calls) == (21 if hi == 1.0 else 15)


# Run in a fresh interpreter.  Import and the numpy-only evaluators (the
# samplers, the path simulator, MaxUExp's pdf, cdf and quantile, the fitters
# on every fit_auto branch, the CLI's eval maxuexp and simulate path) must
# leave all of scipy unloaded.  The first pmf loads scipy.special's
# cython_special without scipy.special's package __init__ or the array-API
# layer it pulls in, and rebinds both kernels' _cs to it; a later import of
# scipy.special runs the real __init__ and finds the same cython_special.
# The sweep over every library evaluator must leave scipy.integrate,
# scipy.optimize and the QUADPACK port (mpmue._quadpack) unloaded.
# Quadrature loads the port at its first call and no scipy.integrate; the
# two scipy-backed optimizers must still work once they import
# scipy.optimize on first call.
_COLD_START_CHILD = """
import contextlib, io, json, math, sys
import numpy as np
import mpmue, mpmue.cli
from mpmue import (ErlangMaxUExp, ExpMaxUExp, MaxUExp, MixedPoissonMaxUExp, PowerTransform,
                   RandomStream)

def lazy_loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"])
                  or m == "mpmue._quadpack")

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = lazy_loaded()
scipy_after_import = scipy_loaded()
xi = MaxUExp(1.0, 1.0)
proc = MixedPoissonMaxUExp(xi)
# Needs numpy only: the samplers, the path simulator, MaxUExp's pdf, cdf and
# quantile, ExpMaxUExp's cdf and the moment-ratio curve.
xi.pdf(0.5)
xi.pdf(np.array([0.5, 2.0]))
xi.cdf(0.5)
xi.cdf(np.array([0.5, 2.0]))
xi.quantile(0.3)
xi.sample_many(RandomStream(1), 1000)
ErlangMaxUExp(3, 1.0, 1.0).sample_many(RandomStream(2), 1000)
ExpMaxUExp(1.0, 1.0).sample_many(RandomStream(3), 1000)
ExpMaxUExp(1.0, 1.0).cdf(2.0)
ExpMaxUExp(1.0, 1.0).cdf(np.array([0.5, 2.0]))
proc.simulate_paths(PowerTransform(1.0), 2.0, 100, seed=5)
mpmue.mom_curve_extrema()
# The fitters need only numpy: fit_auto on each of its three branches,
# solve_mom, lsq_fit and the estimator's lsq method.
gen = np.random.Generator(np.random.PCG64(1))
branch_samples = [MaxUExp(1.0, 1.0).sample_many(RandomStream(2), 4000),
                  MaxUExp(1.0, 8.0).sample_many(RandomStream(4), 4000),
                  gen.uniform(0.5, 1.0, 4000)]
fits = [mpmue.fit_auto(x) for x in branch_samples]
fit_branches = [f.branch for f in fits] + [len(f.candidates) for f in fits]
mpmue.solve_mom(branch_samples[0])
mpmue.lsq_fit(branch_samples[2])
mpmue.MaxUExpEstimator("lsq").fit(branch_samples[0])
with contextlib.redirect_stdout(io.StringIO()):
    cli_codes = [mpmue.cli.main(["eval", "maxuexp", "--a", "1", "--lambda", "1", "--x", "0.5",
                                 "--grid", "0:3:4"]),
                 mpmue.cli.main(["simulate", "path", "--a", "1", "--lambda", "1",
                                 "--horizon", "5", "--seed", "3"])]
scipy_after_numpy_sweep = scipy_loaded()
proc.pmf(1.0, 3)
cs = mpmue.numerics._cs
cs_loaded = [type(cs) is type(sys), getattr(cs, "__name__", None)]
special_after_pmf = [m for m in ("scipy.special", "scipy.special._support_alternative_backends",
                                 "scipy._lib.array_api_compat") if m in sys.modules]
import scipy.special
from scipy.special import bdtr
import scipy.special.cython_special
from scipy.special import cython_special
later_imports = [scipy.special.cython_special is cs,
                 scipy.special.cython_special.gammainc(2.5, 1.5) == mpmue.numerics._cs.gammainc(2.5, 1.5),
                 bool(bdtr(3, 10, 0.5) == scipy.special.bdtr(3, 10, 0.5))]
warm = [mpmue.distribution._cs is cython_special, mpmue.numerics._cs is cython_special]
proc.posterior_mean(1.0, 3)
proc.ordered_pmf([0.5, 1.0], [1, 2])
ErlangMaxUExp(3, 1.0, 1.0).pdf(2.0)
xi.lst(1.0)
xi.moment(2.0)
xi.moment(-0.5)
xi.moment(-1.5)
xi.neg_moment(1.5)
ErlangMaxUExp(10, 1.0, 1.0).cdf(1.0)   # lower tail: the closed-form count tail
ErlangMaxUExp(10, 1.0, 1.0).cdf(20.0)  # the same closed form near the median
ErlangMaxUExp(2, 1.0, 1.0).moment(1.5)
after_sweep = lazy_loaded()

from mpmue.numerics import integrate, least_squares, minimize
quad = integrate(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-12).value
lsq = least_squares(lambda p: np.array([p[0] - 2.0, 3.0 * (p[1] + 0.5)]), [0.0, 0.0],
                    bounds=[(-5.0, 5.0), (-5.0, 5.0)]).tolist()
nm = minimize(lambda p: (p[0] - 3.0) ** 2, [0.0], bounds=[(-10.0, 10.0)], tol=1e-12).tolist()
print(json.dumps({"after_import": after_import, "after_sweep": after_sweep,
                  "scipy_after_import": scipy_after_import, "cli_codes": cli_codes,
                  "scipy_after_numpy_sweep": scipy_after_numpy_sweep,
                  "fit_branches": fit_branches,
                  "cs_loaded": cs_loaded, "special_after_pmf": special_after_pmf,
                  "later_imports": later_imports, "warm": warm,
                  "after_calls": lazy_loaded(), "quad": quad, "lsq": lsq, "minimize": nm}))
"""


def test_import_leaves_quadrature_and_optimizers_unloaded():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mpmue.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _COLD_START_CHILD],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["after_import"] == []
    assert out["after_sweep"] == []
    assert out["scipy_after_import"] == []
    assert out["cli_codes"] == [0, 0]
    assert out["scipy_after_numpy_sweep"] == []
    assert out["fit_branches"] == ["unique", "lsq_refined", "lsq_refined", 0, 2, 1]
    assert out["cs_loaded"] == [True, "scipy.special.cython_special"]
    assert out["special_after_pmf"] == []
    assert out["later_imports"] == [True, True, True]
    assert out["warm"] == [True, True]
    assert "scipy.integrate" not in out["after_calls"]
    assert "mpmue._quadpack" in out["after_calls"]
    assert "scipy.optimize" in out["after_calls"]
    assert out["quad"] == pytest.approx(1.0, rel=1e-12)
    assert out["lsq"] == pytest.approx([2.0, -0.5], abs=1e-10)
    assert out["minimize"] == pytest.approx([3.0], abs=1e-6)


def test_failed_cython_special_load_restores_sys_modules(monkeypatch):
    """If the load that skips scipy.special's __init__ raises ImportError,
    it returns None and leaves sys.modules exactly as it found it."""
    import importlib

    def blocked(name, package=None):
        raise ImportError(f"blocked: {name}")

    for name in [m for m in sys.modules if m == "scipy.special" or m.startswith("scipy.special.")]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib, "import_module", blocked)
    before = dict(sys.modules)
    assert numerics._import_cython_special_alone() is None
    assert sys.modules.keys() == before.keys()
    assert all(sys.modules[m] is module for m, module in before.items())


def test_lazy_gammas_rebind_only_the_stand_in(monkeypatch):
    """The first gamma rebinds ``_cs`` to cython_special in each module that
    holds the firing stand-in, and leaves a ``_cs`` bound to anything else."""
    from types import SimpleNamespace

    from scipy.special import cython_special

    from mpmue import MaxUExp, MixedPoissonMaxUExp, distribution

    stand_in = numerics._LazyCythonSpecial()
    monkeypatch.setattr(numerics, "_cs", stand_in)
    monkeypatch.setattr(distribution, "_cs", stand_in)
    MixedPoissonMaxUExp(MaxUExp(1.0, 1.0)).pmf(1.0, 3)
    assert numerics._cs is cython_special
    assert distribution._cs is cython_special

    double = SimpleNamespace()
    for fires, patched in ((numerics, distribution), (distribution, numerics)):
        monkeypatch.setattr(fires, "_cs", numerics._LazyCythonSpecial())
        monkeypatch.setattr(patched, "_cs", double)
        assert fires._cs.gammainc(2.0, 1.0) == cython_special.gammainc(2.0, 1.0)
        assert fires._cs is cython_special
        assert patched._cs is double
