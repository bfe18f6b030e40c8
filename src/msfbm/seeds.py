"""Deterministic, splittable 64-bit seed derivation and seeded normal streams.

Replica and component streams are derived from a master seed with the
SplitMix64 finalizer over state ``master + (k+1) * GOLDEN``.  The
finalizer is bijective and GOLDEN is odd, so distinct indices always map
to distinct seeds.

Normal variates are those of ``Generator(PCG64(seed)).standard_normal``
(ziggurat); golden outputs are tied to the numpy version recorded in the
lock/install metadata.  No stream builds its own ``PCG64(seed)``, and no
stream is seeded one at a time: ``stream_keys`` runs numpy's
``SeedSequence`` hash over a whole array of seeds at once in vectorized
uint32 arithmetic, 32 bytes per seed, and ``normal_stream`` takes only a
row of its result.  Each draw turns its key into PCG64's state with the two
seeding LCG steps (``_pcg64_state``) and sets it on the one generator its
thread owns; it can write into a buffer the caller owns.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence (bit_generator.pyx): a pool of 4 uint32 words
# hashed from the entropy words, then expanded by generate_state.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = (1 << 32) - 1

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant before and after each of ``count`` successive hash steps.

    A step xors its value with the constant, advances the constant by one
    multiplication, and multiplies the value by the advanced constant.  The
    constants do not depend on the values hashed, so they are computed once.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


def _mix_steps() -> list[tuple[np.ndarray, np.ndarray]]:
    """``mix_entropy``'s mixing constants, one pair of pool-length rows per source word.

    Source word ``src`` is hashed once per other pool word, with the next
    steps of the A sequence after the pool fill; its own column holds 0,
    and the value computed there is discarded.
    """
    before, after = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
    table = []
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        cols = [dst for dst in range(_POOL_SIZE) if dst != src]
        row_before = np.zeros(_POOL_SIZE, dtype=np.uint32)
        row_after = np.zeros(_POOL_SIZE, dtype=np.uint32)
        row_before[cols] = before[k:k + len(cols)]
        row_after[cols] = after[k:k + len(cols)]
        table.append((row_before, row_after))
        k += len(cols)
    return table


_FILL_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE)
_MIX_STEPS = _mix_steps()
# generate_state(4, np.uint64) hashes 8 uint32 words, cycling over the pool.
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_STATE_WORDS = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _hash(value: np.ndarray, steps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    value = (value ^ steps[0]) * steps[1]
    value ^= value >> _XSHIFT
    return value


def stream_keys(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed at once.

    Row k holds the initial state and sequence, as (high, low, high, low)
    64-bit words, that ``PCG64(seeds[k])`` seeds itself from;
    ``_pcg64_state`` turns a row into the generator's state.  A seed lies in
    [0, 2^64) and enters SeedSequence as its two little-endian uint32
    words; a seed below 2^32 has one word, and the pool word it leaves
    empty hashes as 0, the same as a zero high word.
    """
    seeds = [int(s) for s in seeds]
    if any(not 0 <= s <= _MASK for s in seeds):
        raise ValueError("stream seeds must be integers in [0, 2^64)")
    words = np.zeros((len(seeds), _POOL_SIZE), dtype=np.uint32)
    words[:, :2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2)
    # SeedSequence.mix_entropy: hash each word into the pool, then mix each
    # pool word into every other one, in order of the source word.
    pool = _hash(words, _FILL_STEPS)
    for src in range(_POOL_SIZE):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hash(pool[:, src:src + 1], _MIX_STEPS[src])
        mixed ^= mixed >> _XSHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    # SeedSequence.generate_state(4, np.uint64): its uint32 words read in
    # little-endian pairs.
    return _hash(pool.take(_STATE_WORDS, axis=1), _STATE_STEPS).astype("<u4").view("<u8")


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


def splitmix64(state: int) -> int:
    """One SplitMix64 finalization step of a 64-bit state."""
    z = state & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for substream ``index`` of ``master_seed``; injective in index."""
    if index < 0:
        raise ValueError("substream index must be nonnegative")
    return splitmix64((int(master_seed) + (index + 1) * _GOLDEN) & _MASK)


def replica_seeds(master_seed: int, n_reps: int) -> tuple[int, ...]:
    """Pairwise-distinct per-replica seeds for an ensemble."""
    return tuple(derive_seed(master_seed, k) for k in range(n_reps))


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
