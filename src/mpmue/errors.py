"""Exception types shared across the package, and the argument checks that
raise them."""

import math
import operator


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
# Every layer checks its counts and its positive reals here, once, at its
# public entry; private kernels take checked arguments.  This module imports
# nothing from the package, so every module can import it.

# Counts stop being exact doubles past 2^53, where the kernels take them.
_COUNT_MAX = 2**53


def _require_positive(name: str, value: float) -> float:
    """``value`` as a float, DomainError unless it is finite and positive."""
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite and positive, got an int past a double") from None
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    return value


def _require_count(name: str, n: int, lo: int = 0) -> int:
    """``n`` as an int, DomainError unless it is an integer (a Python int, a
    numpy integer or a bool) from ``lo`` to 2^53.  Past that bound the
    message gives the bit length: ints of over 4300 digits have no str."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got a {type(n).__name__}") from None
    if not lo <= n <= _COUNT_MAX:
        shown = repr(n) if abs(n) <= _COUNT_MAX else f"an int of {n.bit_length()} bits"
        raise DomainError(f"{name} must be an integer from {lo} to 2^53, got {shown}")
    return n
