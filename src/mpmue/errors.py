"""Exception types shared across the package, and the argument checks that
raise them."""

import math
import operator

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DivergenceError(DomainError):
    """The requested quantity is a divergent integral or series."""


class BracketError(ValueError):
    """A root bracket does not enclose a sign change."""


class NumericError(ArithmeticError):
    """An iteration failed to converge or overflowed."""


class DegenerateSampleError(ValueError):
    """A sample statistic is undefined for this data (zero denominator)."""


class InsufficientDataError(ValueError):
    """Too few observations for the requested procedure."""


class RangeError(ValueError):
    """A value falls outside the range covered by a table."""


# -- argument checks ----------------------------------------------------------
#
# Every layer checks its counts and reals here, once, at its public entry;
# private kernels take checked arguments.  Messages show converted values:
# ints of over 4300 digits have no str.  Nothing here imports the package.

# Counts stop being exact doubles past 2^53, where the kernels take them.
_COUNT_MAX = 2**53


def _real(name: str, x):
    """x as a float, or a numpy array of numbers as it stands; DomainError for
    anything else, a string too, or past the double range.  inf and nan pass."""
    if type(x) is float or isinstance(x, np.ndarray) and x.dtype.kind in "biuf":
        return x
    if not isinstance(x, (str, bytes)):
        try:
            return float(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a number within the double range, got {type(x).__name__}")


def _scalar(name: str, x) -> float:
    """``_real`` of one number: a numpy array raises DomainError too.  inf
    and nan pass."""
    if type(x) is not float:
        x = _real(name, x)
        if type(x) is not float:
            raise DomainError(f"{name} must be a single number, got a numpy array")
    return x


def _not_nan(name: str, x) -> float:
    """``_scalar`` of x, DomainError for nan; inf passes."""
    x = _scalar(name, x)
    if math.isnan(x):
        raise DomainError(f"{name} must be a number, got nan")
    return x


def _require_real(name: str, x, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``_scalar`` of x, DomainError unless lo < x < hi, so finite by
    default.  A float takes no further call: every pmf call runs this."""
    if type(x) is not float:
        x = _scalar(name, x)
    if not lo < x < hi:
        raise DomainError(f"{name} must be a number in ({lo:g}, {hi:g}), got {x!r}")
    return x


def _require_positive(name: str, x) -> float:
    """x as a float, DomainError unless it is finite and positive."""
    return _require_real(name, x, 0.0)


def _require_count(name: str, n: int, lo: int = 0, hi: float = _COUNT_MAX) -> int:
    """``n`` as an int, DomainError unless it is an integer (a Python int, a
    numpy integer or a bool) from ``lo`` to ``hi``, 2^53 by default.  Past
    2^53 the message gives the bit length."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got a {type(n).__name__}") from None
    if not lo <= n <= hi:
        shown = repr(n) if abs(n) <= _COUNT_MAX else f"an int of {n.bit_length()} bits"
        raise DomainError(f"{name} must be an integer from {lo} to {hi}, got {shown}")
    return n
