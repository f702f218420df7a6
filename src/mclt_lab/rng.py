"""Counter-based random streams.

Every variate consumed anywhere in the lab is a pure function of
``(seed, stream, path_index, draw_index)``.  This makes simulation output
independent of how replicates are partitioned across chunks or worker
threads: replicate j always reads the same words no matter who computes it.

The generator is a keyed SplitMix64 stream (Stafford mix13 finalizer).  It is
a bijective 64-bit mixer applied to an affine counter sequence, the standard
construction for splittable simulation streams.  Known-answer vectors are
frozen in the test suite against an independent pure-integer implementation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "mix64",
    "stream_key",
    "uniforms",
    "MAX_DRAWS_PER_PATH",
    "STREAM_SIMULATION",
    "STREAM_PADDING",
    "STREAM_CORPUS",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))

# Draw indices are packed into the low 20 bits of the counter, path indices
# into the high 44.  A single path may therefore consume at most 2**20 words.
_DRAW_BITS = 20
MAX_DRAWS_PER_PATH = 1 << _DRAW_BITS

# Disjoint purposes get disjoint streams so that e.g. padding randomness can
# never collide with the simulation randomness it extends.
STREAM_SIMULATION = 0
STREAM_PADDING = 1
STREAM_CORPUS = 2


def _mix_into(z: np.ndarray, scratch: np.ndarray, sign_only: bool = False) -> None:
    """SplitMix64 finalizer applied in place to the uint64 array ``z``.

    With ``sign_only`` the mix stops after the second multiply, and only bit
    63 of each word is valid: the last round ``z ^= z >> 31`` never changes
    bit 63, because ``z >> 31 < 2**33``.
    """
    # uint64 array arithmetic wraps mod 2**64 without warnings
    np.right_shift(z, _S30, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _MIX_A, out=z)
    np.right_shift(z, _S27, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _MIX_B, out=z)
    if sign_only:
        return
    np.right_shift(z, _S31, out=scratch)
    np.bitwise_xor(z, scratch, out=z)


def mix64(z: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer; bijective on uint64 scalars and arrays."""
    z = np.array(z, dtype=np.uint64)
    _mix_into(z, np.empty_like(z))
    return z if z.ndim else z[()]


@lru_cache(maxsize=128)
def stream_key(seed: int, stream: int = STREAM_SIMULATION) -> np.uint64:
    """Derive the 64-bit key for one (seed, stream) pair.

    Cached: the key is a pure function of the two integers, and callers such
    as the verification corpora ask for the same one once per item.
    """
    base = mix64(np.uint64(int(seed) & _U64_MASK))
    with np.errstate(over="ignore"):
        salt = np.uint64(int(stream) & _U64_MASK) * _GOLDEN
    return mix64(base ^ salt)


def _check_draws(draw_index) -> None:
    if np.any(np.asarray(draw_index) >= MAX_DRAWS_PER_PATH):
        raise ValueError(
            f"draw index exceeds the per-path budget of {MAX_DRAWS_PER_PATH}"
        )


def _uniforms_into(z: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The word -> uniform core, in place.

    ``z`` holds the keyed counters ``key + counter * golden`` and is consumed;
    ``scratch`` is a uint64 buffer of the same shape.  The float64 ``out``
    receives the uniforms ``(w >> 11) * 2**-53`` of the mixed words ``w``, on
    the 53-bit grid of [0, 1).
    """
    _mix_into(z, scratch)
    np.right_shift(z, _S11, out=z)
    np.multiply(z, 2.0**-53, out=out)  # exact: every shifted word is below 2**53
    return out


def uniforms(key: np.uint64, path_index, draw_index) -> np.ndarray:
    """Uniform [0, 1) variates at the given (path, draw) counters.

    ``path_index`` and ``draw_index`` broadcast against each other, so one
    call can fill a step across all paths or a whole row for one path.
    """
    _check_draws(draw_index)
    paths = np.asarray(path_index, dtype=np.uint64)
    draws = np.asarray(draw_index, dtype=np.uint64)
    z = np.atleast_1d((paths << np.uint64(_DRAW_BITS)) | draws)
    np.multiply(z, _GOLDEN, out=z)
    np.add(z, np.uint64(key), out=z)
    return _uniforms_into(z, np.empty_like(z), np.empty(z.shape))


def path_counter_base(path_index) -> np.ndarray:
    """Precomputed path part ``(path << 20) * golden`` of the keyed counters."""
    return (np.asarray(path_index, dtype=np.uint64) << np.uint64(_DRAW_BITS)) * _GOLDEN


def uniforms_at(
    key: np.uint64,
    counter_base: np.ndarray,
    draw_index: int,
    out: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray],
    sign_only: bool = False,
) -> np.ndarray:
    """Fast path for simulation loops: the uniforms of ``uniforms(key, paths,
    draw_index)`` with ``counter_base = path_counter_base(paths)``, written
    into and returned as ``out``.

    ``out`` and ``scratch`` (two uint64 buffers), each shaped like
    ``counter_base``, let a loop draw every step without allocating; the
    scratch buffers hold no result and may be reused between calls.  A
    float64 ``out`` receives the uniforms, a uint64 one the raw mixed 64-bit
    words ``w`` they are made of: each uniform is ``(w >> 11) * 2**-53``.
    With ``sign_only`` a uint64 ``out`` receives sign-only words, of which
    only bit 63 is valid, equal to bit 63 of ``w``: two passes fewer, for
    a caller that reads nothing else.
    """
    _check_draws(draw_index)
    z, spare = scratch
    # draw_index < 2**20 fills the low counter bits, so mod 2**64
    # key + ((path << 20) | draw) * golden == base + (key + draw * golden)
    draw_part = np.uint64((int(key) + int(draw_index) * int(_GOLDEN)) & _U64_MASK)
    if out.dtype == np.uint64:
        np.add(counter_base, draw_part, out=out)
        _mix_into(out, spare, sign_only)
        return out
    np.add(counter_base, draw_part, out=z)
    return _uniforms_into(z, spare, out)
