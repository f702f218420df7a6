"""Counter-stream generator: known answers, stream separation, determinism."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from mclt_lab import rng

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64_int(z: int) -> int:
    """Independent pure-integer reimplementation of the mixer."""
    z &= MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def word_int(seed: int, stream: int, path: int, draw: int) -> int:
    """The mixed 64-bit word behind one uniform."""
    key = mix64_int(mix64_int(seed & MASK) ^ ((stream * GOLDEN) & MASK))
    counter = ((path << 20) | draw) & MASK
    return mix64_int((key + counter * GOLDEN) & MASK)


def uniform_int(seed: int, stream: int, path: int, draw: int) -> float:
    return (word_int(seed, stream, path, draw) >> 11) * 2.0**-53


def test_mix64_matches_integer_oracle():
    inputs = [0, 1, 2, 0xDEADBEEF, (1 << 63) | 12345, MASK]
    got = rng.mix64(np.array(inputs, dtype=np.uint64))
    expected = [mix64_int(z) for z in inputs]
    assert got.tolist() == expected


def test_mix64_known_vectors():
    # frozen outputs of the canonical splitmix64 finalizer
    assert int(rng.mix64(np.uint64(0))) == 0
    assert int(rng.mix64(np.uint64(1))) == 6238072747940578789
    # the latter is the first output of splitmix64 seeded with 0
    assert int(rng.mix64(np.uint64(0x9E3779B97F4A7C15))) == 16294208416658607535


def test_uniforms_match_integer_oracle():
    key = rng.stream_key(42, rng.STREAM_SIMULATION)
    got = rng.uniforms(key, np.array([0, 1, 2, 77]), 5)
    expected = [uniform_int(42, rng.STREAM_SIMULATION, j, 5) for j in (0, 1, 2, 77)]
    assert got.tolist() == expected


def test_streams_are_disjoint():
    a = rng.uniforms(rng.stream_key(7, rng.STREAM_SIMULATION), np.arange(64), 0)
    b = rng.uniforms(rng.stream_key(7, rng.STREAM_PADDING), np.arange(64), 0)
    assert not np.array_equal(a, b)


def test_seed_changes_everything():
    a = rng.uniforms(rng.stream_key(1), np.arange(256), 0)
    b = rng.uniforms(rng.stream_key(2), np.arange(256), 0)
    assert not np.array_equal(a, b)


def test_uniform_range_and_rough_uniformity():
    u = rng.uniforms(rng.stream_key(3), np.arange(200_000), 0)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.005
    hist, _ = np.histogram(u, bins=16, range=(0.0, 1.0))
    assert hist.min() > 0.8 * 200_000 / 16


def test_draw_budget_guard():
    with pytest.raises(ValueError):
        rng.uniforms(rng.stream_key(1), 0, rng.MAX_DRAWS_PER_PATH)
    with pytest.raises(ValueError):
        rng.uniforms_at(rng.stream_key(1), rng.path_counter_base(np.arange(2)), rng.MAX_DRAWS_PER_PATH,
                        *_block_buffers(2))


def _block_buffers(count):
    return np.empty(count), (np.empty(count, dtype=np.uint64), np.empty(count, dtype=np.uint64))


def test_fast_block_path_is_identical():
    key = rng.stream_key(99)
    idx = np.arange(1000, dtype=np.uint64)
    base = rng.path_counter_base(idx)
    out, scratch = _block_buffers(1000)
    words = np.empty(1000, dtype=np.uint64)
    for draw in (0, 1, 511):  # the buffers are reused across draws
        assert rng.uniforms_at(key, base, draw, out, scratch) is out
        assert np.array_equal(rng.uniforms(key, idx, draw), out)
        # a uint64 out receives the raw mixed words of the same uniforms:
        # shifted right by 11 they are the 53-bit words u * 2**53
        assert rng.uniforms_at(key, base, draw, words, scratch) is words
        assert words.tolist() == [word_int(99, rng.STREAM_SIMULATION, j, draw) for j in range(1000)]
        assert np.array_equal((words >> np.uint64(11)) * 2.0**-53, out)


U64 = st.integers(min_value=0, max_value=MASK)


@given(key=U64, counters=st.lists(U64, max_size=8), draw=st.integers(0, rng.MAX_DRAWS_PER_PATH - 1))
def test_sign_only_words_keep_the_sign_bit(key, counters, draw):
    # keyed counters 0, 2**63 - 1, 2**63 and 2**64 - 1 enter the mix as given
    keyed = [0, (1 << 63) - 1, 1 << 63, MASK, *((key + c) & MASK for c in counters)]
    draw_part = (key + draw * GOLDEN) & MASK
    base = np.array([(z - draw_part) & MASK for z in keyed], dtype=np.uint64)
    words, scratch = np.empty(len(base), dtype=np.uint64), _block_buffers(len(base))[1]
    assert rng.uniforms_at(np.uint64(key), base, draw, words, scratch, sign_only=True) is words
    assert [int(w) >> 63 for w in words] == [mix64_int(z) >> 63 for z in keyed]
    # the uniforms of the same counters stay those of the full mix
    full = rng.uniforms_at(np.uint64(key), base, draw, np.empty(len(base)), scratch)
    assert full.tolist() == [(mix64_int(z) >> 11) * 2.0**-53 for z in keyed]


def test_normals_are_standard():
    # inverse-CDF normals, offset half a grid step so every uniform lies in (0, 1)
    z = ndtri(rng.uniforms(rng.stream_key(11), np.arange(200_000), 0) + 2.0**-54)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
