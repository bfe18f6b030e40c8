"""Deterministic, splittable 64-bit seed derivation and seeded normal streams.

Seeds are integers in [0, 2^64); ``_uint64`` turns them into uint64 words
and is the one place that range is checked.  Replica seeds derive from a
master seed by SplitMix64, written once over uint64 arrays: the finalizer
of state ``master + (k+1) * GOLDEN``.  The finalizer is bijective and
GOLDEN is odd, so distinct indices map to distinct seeds.  An ensemble
draws one normal stream per replica, from the replica's seed.

Normal variates are those of ``Generator(PCG64(seed)).standard_normal``
(ziggurat); golden outputs are tied to the numpy version, and also to the
SIMD loops numpy dispatches to and the OpenBLAS core it picks on the CPU
(README, "Determinism").  No stream builds
its own ``PCG64(seed)``, and no stream is seeded one at a time:
``stream_keys`` follows numpy's ``SeedSequence`` step by step for a whole
array of seeds at once, 32 bytes per seed, and ``normal_stream`` sets the
PCG64 state of one row of its result (``_pcg64_state``) on the one
generator its thread owns; it can write into a buffer the caller owns.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import PCG64, Generator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence (bit_generator.pyx): a pool of 4 uint32 words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = (1 << 32) - 1

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint64(seeds) -> np.ndarray:
    """Integer ``seeds`` as a uint64 array of their shape; ValueError for any other value."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    objects = np.asarray(seeds, dtype=object)
    bad = [s for s in objects.flat if not (isinstance(s, (int, np.integer)) and 0 <= s <= _MASK)]
    if bad:
        raise ValueError(f"seeds must be integers in [0, 2^64), got {bad[0]}")
    return objects.astype(np.uint64)


def _splitmix64(master: np.ndarray, index: np.ndarray) -> np.ndarray:
    """SplitMix64 output ``index`` of each ``master`` seed, over broadcast uint64 arrays:
    they wrap mod 2^64 silently, where numpy warns on uint64 scalars."""
    z = master + (index + 1) * _GOLDEN
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for substream ``index`` of ``master_seed``; injective in index."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return int(_splitmix64(_uint64([master_seed]), np.array([index], dtype=np.uint64))[0])


def replica_seeds(master_seed: int, n_reps: int) -> np.ndarray:
    """Pairwise-distinct per-replica seeds ``derive_seed(master_seed, k)``, k < n_reps."""
    return _splitmix64(_uint64([master_seed]), np.arange(n_reps, dtype=np.uint64))


def _hashmix(value: np.ndarray, hash_const: list[int], mult: int = _MULT_A) -> np.ndarray:
    """SeedSequence's ``hashmix`` of a uint32 column; it advances ``hash_const[0]``."""
    value = value ^ np.uint32(hash_const[0])
    hash_const[0] = hash_const[0] * mult & _MASK32
    value = value * np.uint32(hash_const[0])
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two uint32 columns."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def stream_keys(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed at once.

    ``seeds`` holds integers in an array or nested sequence of shape S; the
    result has shape S + (4,).  A seed's row holds the initial state and
    sequence, as (high, low, high, low) 64-bit words, that ``PCG64(seed)``
    seeds itself from.  A seed enters SeedSequence as its little-endian
    uint32 words, one below 2^32 and two above; the pool word a one-word
    seed leaves empty hashes as 0, the same as a zero high word.
    """
    seeds = _uint64(seeds)
    low, high = seeds.reshape(-1, 1).astype("<u8").view("<u4").T
    # mix_entropy: hash the entropy into the pool, running the hash out on 0
    # past it, then mix every pool word into every other one.
    hash_const, zero = [_INIT_A], np.zeros_like(low)
    mixer = [_hashmix(word, hash_const) for word in (low, high, zero, zero)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], _hashmix(mixer[i_src], hash_const))
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool, each
    # hashed with the B constants, read in little-endian pairs.
    hash_const = [_INIT_B]
    state = np.stack([_hashmix(mixer[i % _POOL_SIZE], hash_const, _MULT_B)
                      for i in range(2 * _POOL_SIZE)], axis=1)
    return state.astype("<u4").view("<u8").reshape(seeds.shape + (4,))


def _pcg64_state(key: np.ndarray) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` from a row of ``stream_keys``, as ``PCG64(seed).state`` holds it.

    These are ``pcg64_set_seed``'s steps: inc = 2 * initseq + 1, then two
    128-bit LCG steps from state 0 with the initial state added between them.
    """
    s_hi, s_lo, i_hi, i_lo = key.tolist()
    inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
    return (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc


_local = threading.local()


def _generator() -> Generator:
    """This thread's generator; every draw sets its state first."""
    gen = getattr(_local, "generator", None)
    if gen is None:
        gen = _local.generator = Generator(PCG64(0))
    return gen


def normal_stream(key: np.ndarray, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """``size`` i.i.d. standard normals, a pure function of ``key``.

    ``key`` is a seed's row of ``stream_keys``; the normals are those of
    ``Generator(PCG64(seed)).standard_normal(size)``.  They are written into
    ``out``, a C-contiguous float64 vector of ``size`` values, when it is
    given, and into a new array otherwise.
    """
    state, inc = _pcg64_state(key)
    gen = _generator()
    gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal(size, out=out)
