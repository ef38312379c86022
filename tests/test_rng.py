import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmue import DomainError, ErlangMaxUExp, ExpMaxUExp, MaxUExp
from mpmue.rng import _BLOCK, RandomStream, _uniform_block, substream_seeds


def test_deterministic_and_seed_sensitive():
    a = RandomStream(42).uniforms(8)
    b = RandomStream(42).uniforms(8)
    c = RandomStream(43).uniforms(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_open_interval():
    u = RandomStream(7).uniforms(10_000)
    assert float(u.min()) > 0.0
    assert float(u.max()) < 1.0


@given(seed=st.integers(0, 2**32), count=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_vectorized_matches_scalar(seed, count):
    s1 = RandomStream(seed)
    s2 = RandomStream(seed)
    vec = s1.uniforms(count)
    scl = np.array([s2.uniform() for _ in range(count)])
    assert np.array_equal(vec, scl)


def test_position_advances_consistently():
    s = RandomStream(5)
    s.uniforms(10)
    tail_a = s.uniforms(3)
    s2 = RandomStream(5)
    for _ in range(10):
        s2.uniform()
    tail_b = s2.uniforms(3)
    assert np.array_equal(tail_a, tail_b)


def test_exponential_consumes_one_value():
    s1 = RandomStream(9)
    s2 = RandomStream(9)
    e = s1.exponential(2.0)
    u = s2.uniform()
    assert e == pytest.approx(-np.log(u) / 2.0)


def test_gamma_int_is_sum_of_exponentials():
    s1 = RandomStream(13)
    s2 = RandomStream(13)
    g = s1.gamma_int(3, 1.5)
    total = sum(s2.exponential(1.5) for _ in range(3))
    assert g == pytest.approx(total, rel=1e-12)


def test_substreams_disjoint_and_deterministic():
    root = RandomStream(100)
    a1 = root.substream(0).uniforms(6)
    a2 = root.substream(0).uniforms(6)
    b = root.substream(1).uniforms(6)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    # Drawing from the root does not disturb substream identities.
    root.uniforms(5)
    assert np.array_equal(root.substream(0).uniforms(6), a1)


def test_uniform_moments_sane():
    u = RandomStream(3).uniforms(200_000)
    assert float(u.mean()) == pytest.approx(0.5, abs=0.005)
    assert float(u.var()) == pytest.approx(1.0 / 12.0, abs=0.002)


def test_uniforms_wrap_past_the_last_position():
    # Positions wrap mod 2^64 in batch draws as in scalar draws.
    s1 = RandomStream(11, position=2**64 - 2)
    s2 = RandomStream(11, position=2**64 - 2)
    vec = s1.uniforms(5)
    assert np.array_equal(vec, [s2.uniform() for _ in range(5)])
    assert s1.position == s2.position == 2**64 + 3
    assert np.array_equal(RandomStream(11, position=2**64 + 3).uniforms(3), s1.uniforms(3))


def test_exponential_matches_batch_bit_for_bit():
    s1 = RandomStream(21)
    s2 = RandomStream(21)
    vec = s1.exponentials(20_000, 0.9)
    assert np.array_equal(vec, [s2.exponential(0.9) for _ in range(20_000)])


def _one_shot_uniforms(seeds, position, count):
    # The unblocked formula: every draw of the batch through whole-array
    # uint64 temporaries.
    idx = np.uint64(position % 2**64) + np.arange(1, count + 1, dtype=np.uint64)
    z = seeds + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


BLOCK_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_blocked_draws_match_one_shot(count):
    seed = np.uint64(0xC0FFEE)
    want = _one_shot_uniforms(seed, 12345, count)
    assert np.array_equal(_uniform_block(np.array([seed]), 12345, count)[:, 0], want)
    s = RandomStream(0xC0FFEE, position=12345)
    assert np.array_equal(s.uniforms(count), want)
    assert s.position == 12345 + count


@pytest.mark.parametrize(
    "position", [2**64 - 3, 2**64 - _BLOCK // 2, 2**64 - _BLOCK - 5, 2**65 - 7]
)
def test_blocked_draws_wrap_inside_a_block(position):
    # The 2^64 wrap falls inside the first or the second block.
    count = 2 * _BLOCK + 3
    want = _one_shot_uniforms(np.uint64(77), position, count)
    got = _uniform_block(np.array([77], dtype=np.uint64), position, count)
    assert np.array_equal(got[:, 0], want)
    assert np.array_equal(RandomStream(77, position=position).uniforms(count), want)


@pytest.mark.parametrize("rows,count", [(1000, 8), (3, _BLOCK + 5)])
def test_blocked_draws_of_a_seed_column(rows, count):
    # One column per seed, each the one-shot draws of its stream; the 2^64
    # wrap falls inside every column.
    seeds = substream_seeds(2024, rows)
    got = _uniform_block(seeds, 2**64 - 4, count)
    assert got.shape == (count, rows)
    for i, seed in enumerate(seeds):
        assert np.array_equal(got[:, i], _one_shot_uniforms(seed, 2**64 - 4, count))


def _peak_ratio(draw):
    # tracemalloc sees numpy's buffers, so the peak counts every temporary.
    tracemalloc.start()
    try:
        out = draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


@pytest.mark.parametrize(
    "sampler",
    [
        lambda s: s.uniforms(10**6),
        lambda s: MaxUExp(1.0, 1.0).sample_many(s, 10**6),
        lambda s: ExpMaxUExp(1.0, 1.0).sample_many(s, 10**6),
        lambda s: ErlangMaxUExp(3, 1.0, 1.0).sample_many(s, 10**6),
        lambda s: ErlangMaxUExp(9, 1.0, 1.0).sample_many(s, 10**6),
    ],
    ids=["uniforms", "maxuexp", "emue", "erlang3", "erlang9"],
)
def test_batch_draws_peak_near_output_size(sampler):
    # One-shot draws held 4x (uniforms), 8x (Max-U-Exp) and 20x (Erlang) of
    # their output; blocked draws hold the output plus a block's buffers
    # (steps, counters, uniforms) and its temporaries.
    stream = RandomStream(5)
    assert _peak_ratio(lambda: sampler(stream)) <= 1.5


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.int32(5), np.uint64(2**64 - 1)])
def test_numpy_integer_seeds_give_the_python_int_draws(seed):
    want = RandomStream(int(seed))
    got = RandomStream(seed)
    assert type(got.seed) is int and got.seed == want.seed
    assert np.array_equal(got.uniforms(8), want.uniforms(8))
    assert got.uniform() == want.uniform()


@pytest.mark.parametrize("seed", [True, np.True_, 5.0, np.float64(5.0), "5", None])
def test_seed_rejects_bools_and_non_integers(seed):
    with pytest.raises(DomainError, match="seed"):
        RandomStream(seed)
