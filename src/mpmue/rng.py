"""Seeded, portable random streams.

The generator is counter-based splitmix64: draw ``i`` of a stream with seed
``s`` is ``mix64((s + (i+1) * GAMMA) mod 2^64)`` where GAMMA is the odd
golden-ratio constant 0x9E3779B97F4A7C15 and ``mix64`` is the xor-shift /
multiply finalizer with constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB
and shifts 30, 27, 31.  Uniform doubles take the top 53 bits:
``u = ((z >> 11) + 0.5) * 2^-53``, which lies strictly inside (0, 1).
Positions wrap mod 2^64, in scalar and batch draws alike.

Because output depends only on (seed, position), batch draws vectorize to
the exact sequence scalar draws produce, and substreams derive from the seed
alone: ``substream(k)`` has seed ``mix64((seed + (k+1) * SUBSTREAM_GAMMA)
mod 2^64)`` with SUBSTREAM_GAMMA = 0xD1B54A32D192ED03.

Batch draws have one layout, filled by one routine (``_fill_uniforms``): a
(width, n) block whose column i holds draws position + 1 to position +
width of the stream with seed ``seeds[i]``.  A stream's k consecutive
variates of ``width`` draws each are k such columns, whose seeds are the
stream's seed plus r * width * GAMMA for r < k, exact mod 2^64; so one
stream's variates and many streams' rounds (``MixedPoissonMaxUExp``'s
paths) are the same block.  Each leg of the variates (the uniform leg, the
exponential leg, each Erlang summand, a path's next arrival) is then a
contiguous row, so logs run on contiguous rows and legs add row by row.
The routine mixes a uint64 buffer in place, with the float output as its
scratch, and ``_draw_columns`` fills about ``_BLOCK`` draws at a time into
reused buffers, so a batch holds about the size of its output rather than
several uint64 copies of it.  Any block is a pure function of (seed,
position), so the blocked values are bit-identical to one-shot draws.

Exponentials are ``-log(u) / rate`` with numpy's ``log`` in scalar and batch
draws alike: numpy's and the math module's logarithms can differ in the
last bit, and one shared logarithm keeps ``sample`` and ``sample_many``, and
a path and its batch, bit-identical.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

import numpy as np

from .errors import DomainError, _require_count, _require_positive

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SUBSTREAM_GAMMA = 0xD1B54A32D192ED03
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0**-53
# Draws computed per pass of the mixer: two uint64 buffers of this many
# fit in a core's L2 cache.
_BLOCK = 1 << 15
# The uint64 operands of the array code, converted once: a path round draws
# for only a few columns, where converting Python ints on each call would cost
# more than the arithmetic.
_MIX_STEPS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_SHIFT_LAST = np.uint64(31)
_SHIFT_UNIT = np.uint64(11)
_GAMMA_U64 = np.uint64(_GAMMA)


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``_mix64`` over a uint64 array in place, which wraps mod 2^64 by
    itself; ``scratch`` is a uint64 buffer of the same shape."""
    for shift, factor in _MIX_STEPS:
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= factor
    np.right_shift(z, _SHIFT_LAST, out=scratch)
    z ^= scratch
    return z


def _steps(width: int) -> np.ndarray:
    """The (width, 1) column j * GAMMA mod 2^64 for j = 1 .. width."""
    steps = np.arange(1, width + 1, dtype=np.uint64)
    steps *= _GAMMA_U64
    return steps[:, None]


def _fill_uniforms(
    seeds: np.ndarray, position: int, steps: np.ndarray, z: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Uniforms into the (width, n) float array ``out``: column i holds draws
    ``position + 1`` to ``position + width`` of the stream with the uint64
    seed ``seeds[i]``, positions taken mod 2^64.  ``steps`` is
    ``_steps(width)``, ``out`` is contiguous and ``z`` is a contiguous uint64
    buffer of its shape.  The mixer's scratch is ``out`` itself, which it
    leaves before the uniforms are written."""
    np.add(seeds, np.add(steps, np.uint64((position * _GAMMA) & _MASK)), out=z)
    # numpy runs the mixer's ufuncs faster on one axis; both arrays are
    # contiguous, so the flat arrays are views.
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    _mix64_array(flat_z, flat_out.view(np.uint64))
    # z >> 11 is below 2^53, so its conversion to a double is exact; numpy
    # converts it faster read as int64, which holds it too.
    flat_z >>= _SHIFT_UNIT
    np.add(flat_z.view(np.int64), 0.5, out=flat_out, casting="unsafe")
    flat_out *= _TO_UNIT
    return out


def _uniform_block(seeds: np.ndarray, position: int, width: int) -> np.ndarray:
    """A new (width, len(seeds)) block of ``_fill_uniforms``."""
    out = np.empty((width, len(seeds)))
    return _fill_uniforms(seeds, position, _steps(width), np.empty(out.shape, np.uint64), out)


def _draw_columns(
    stream: RandomStream, count: int, width: int, draw: Callable[[np.ndarray], np.ndarray] | None
) -> np.ndarray:
    """``count`` variates that each take ``width`` consecutive uniforms of
    ``stream``: ``draw`` maps a (width, k) block of uniforms, one variate's
    draws per column, to one value per column; with no ``draw`` (width 1)
    the uniforms are the variates, filled straight into the output.
    Columns are drawn about ``_BLOCK`` uniforms at a time, in stream order,
    so the output equals ``draw`` of all columns at once bit for bit."""
    count = _require_count("count", count)
    out = np.empty(count)
    cols = max(1, min(count, _BLOCK // width))
    # Column r of a block starts r * width draws past the block's start.
    seeds = np.arange(cols, dtype=np.uint64)
    seeds *= np.uint64((width * _GAMMA) & _MASK)
    seeds += np.uint64(stream.seed)
    steps = _steps(width)
    # Flat buffers, so that a short last block is contiguous too.
    z, u = np.empty(width * cols, dtype=np.uint64), np.empty(width * cols if draw else 0)
    for lo in range(0, count, cols):
        k = min(cols, count - lo)
        zb = z[: width * k].reshape(width, k)
        ub = u[: width * k].reshape(width, k) if draw else out[None, lo : lo + k]
        block = _fill_uniforms(seeds[:k], stream.position, steps, zb, ub)
        stream.position += width * k
        if draw:
            out[lo : lo + k] = draw(block)
    return out


def substream_seeds(seed: int, count: int) -> np.ndarray:
    """Seeds of ``RandomStream(seed).substream(i)`` for i < count, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_SUBSTREAM_GAMMA)
    z += np.uint64(seed & _MASK)
    return _mix64_array(z, np.empty_like(z))


class RandomStream:
    """Deterministic stream of variates; equal seeds give equal sequences."""

    __slots__ = ("seed", "position")

    def __init__(self, seed: int, position: int = 0):
        # Any integer a Python int or a numpy integer can hold, but no bool.
        if isinstance(seed, bool) or not hasattr(seed, "__index__"):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        self.seed = operator.index(seed) & _MASK
        self.position = _require_count("position", position, hi=math.inf)

    def uniform(self) -> float:
        """One double in the open interval (0, 1)."""
        self.position += 1
        return ((_mix64(self.seed + self.position * _GAMMA) >> 11) + 0.5) * _TO_UNIT

    def uniforms(self, count: int) -> np.ndarray:
        """Vectorized batch of uniforms, bit-identical to ``count`` scalar draws."""
        return _draw_columns(self, count, 1, None)

    def exponential(self, rate: float = 1.0) -> float:
        """Exponential draw by inverse transform; consumes one position.
        The logarithm is numpy's, as in ``exponentials``."""
        rate = _require_positive("rate", rate)
        return float(-np.log(self.uniform())) / rate

    def exponentials(self, count: int, rate: float = 1.0) -> np.ndarray:
        rate = _require_positive("rate", rate)
        return -np.log(self.uniforms(count)) / rate

    def gamma_int(self, shape: int, rate: float = 1.0) -> float:
        """Gamma draw with integer shape as a sum of exponentials; consumes ``shape`` positions."""
        return float(np.sum(self.exponentials(_require_count("shape", shape, lo=1), rate)))

    def substream(self, index: int) -> "RandomStream":
        """Independent stream derived from (seed, index); parent state is untouched."""
        index = _require_count("substream index", index)
        return RandomStream(_mix64(self.seed + (index + 1) * _SUBSTREAM_GAMMA))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed:#x}, position={self.position})"
