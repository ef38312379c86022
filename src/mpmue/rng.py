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
mod 2^64)`` with SUBSTREAM_GAMMA = 0xD1B54A32D192ED03.  ``counter_uniforms``
computes any range of draws of many streams without stepping a stream;
``MixedPoissonMaxUExp.simulate_paths`` draws every path of a batch that way.

Batch draws are computed in blocks of ``_BLOCK`` positions, each mixed in
place on two reused uint64 buffers and written straight into the float
output, so a batch holds about the size of its output rather than several
uint64 copies of it.  The samplers draw rows of uniforms block by block the
same way (``_draw_rows``).  Any block of draws is a pure function of (seed,
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
# for only a few rows, where converting Python ints on each call would cost
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


def counter_uniforms(seeds: np.ndarray, position: int, count: int) -> np.ndarray:
    """Uniform draws ``position + 1`` to ``position + count`` of the streams
    with the given uint64 seeds, positions taken mod 2^64.  A scalar seed
    gives a vector; a seed column of shape (n, 1) gives one row per stream.
    The output is filled in blocks of ``_BLOCK`` draws along its last axis."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty(seeds.shape[:-1] + (count,))
    width = min(count, _BLOCK)
    # j * GAMMA mod 2^64 for j = 1 .. width: the draws of a block past its offset.
    steps = np.arange(1, width + 1, dtype=np.uint64)
    steps *= _GAMMA_U64
    z = np.empty(out.shape[:-1] + (width,), dtype=np.uint64)
    scratch = np.empty_like(z)
    for lo in range(0, count, _BLOCK):
        w = min(_BLOCK, count - lo)
        zb, block = z[..., :w], out[..., lo : lo + w]
        # Draw position + lo + j of a stream is seeds + (position + lo) * GAMMA
        # + j * GAMMA mod 2^64: one offset per block, then the fixed steps.
        np.add(steps[:w], np.add(seeds, np.uint64(((position + lo) * _GAMMA) & _MASK)), out=zb)
        _mix64_array(zb, scratch[..., :w])
        # z >> 11 is below 2^53, so its conversion to a double is exact.
        zb >>= _SHIFT_UNIT
        np.add(zb, 0.5, out=block, casting="unsafe")
        block *= _TO_UNIT
    return out


def _draw_rows(
    stream: RandomStream, count: int, width: int, draw: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``count`` variates that each take ``width`` consecutive uniforms of
    ``stream``: ``draw`` maps a (rows, width) block of uniforms to one value
    per row.  Rows are drawn about ``_BLOCK`` uniforms at a time, in stream
    order, so the output equals ``draw`` of all rows at once bit for bit."""
    count = _require_count("count", count)
    out = np.empty(count)
    rows = max(1, _BLOCK // width)
    for lo in range(0, count, rows):
        k = min(rows, count - lo)
        out[lo : lo + k] = draw(stream.uniforms(width * k).reshape(k, width))
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

    def _next_u64(self) -> int:
        self.position += 1
        return _mix64(self.seed + self.position * _GAMMA)

    def uniform(self) -> float:
        """One double in the open interval (0, 1)."""
        return ((self._next_u64() >> 11) + 0.5) * _TO_UNIT

    def uniforms(self, count: int) -> np.ndarray:
        """Vectorized batch of uniforms, bit-identical to ``count`` scalar draws."""
        count = _require_count("count", count)
        u = counter_uniforms(np.uint64(self.seed), self.position, count)
        self.position += count
        return u

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
