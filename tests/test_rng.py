import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmue.rng import RandomStream


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
