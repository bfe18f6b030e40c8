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
``stream_keys`` follows numpy's ``SeedSequence`` and ``pcg64_set_seed``
step by step for a whole array of seeds at once, and gives each seed the
32 bytes of state that ``PCG64(seed)`` holds after seeding.
``normal_stream`` writes one such key into the state of the one generator
its thread owns, through a uint64 view bound once per thread, or through
PCG64's ``state`` setter where the view finds another layout; it can write
the normals into a buffer the caller owns.
"""

from __future__ import annotations

import ctypes
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

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h): its high
# and low 64-bit words, and the low word's 32-bit limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK)
_MULT_LO1, _MULT_LO0 = np.uint64(_PCG_MULT >> 32 & _MASK32), np.uint64(_PCG_MULT & _MASK32)
_LOW32, _ONE = np.uint64(_MASK32), np.uint64(1)
_SHIFT32, _SHIFT63 = np.uint64(32), np.uint64(63)


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


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(high, low) words of a + b mod 2^128, over uint64 arrays.  The carry out
    of the low words is bit 63 of their halved sum, which fits a uint64."""
    carry = ((a_lo >> _ONE) + (b_lo >> _ONE) + (a_lo & b_lo & _ONE)) >> _SHIFT63
    return a_hi + b_hi + carry, a_lo + b_lo


def _times_mult(hi, lo):
    """(high, low) words of (hi, lo) times PCG64's multiplier mod 2^128.  Only
    the high half of lo * mult_lo needs more than a wrapping uint64 product:
    it is formed from 32-bit limbs, whose products and partial sums each fit
    a uint64 (the "mulhu" of Hacker's Delight)."""
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    mid1 = lo1 * _MULT_LO0 + (lo0 * _MULT_LO0 >> _SHIFT32)
    mid2 = lo0 * _MULT_LO1 + (mid1 & _LOW32)
    carry = lo1 * _MULT_LO1 + (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32)
    return hi * _MULT_LO + lo * _MULT_HI + carry, lo * _MULT_LO


def _generate_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every uint64 seed,
    one row each: the initial state and sequence as (high, low, high, low).

    A seed enters SeedSequence as its little-endian uint32 words, one below
    2^32 and two above; the pool word a one-word seed leaves empty hashes as
    0, the same as a zero high word.
    """
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
    return state.astype("<u4", copy=False).view("<u8")


def stream_keys(seeds) -> np.ndarray:
    """PCG64's state right after ``PCG64(seed)`` seeds it, for every seed at once.

    ``seeds`` holds integers in an array or nested sequence of shape S; the
    result has shape S + (4,).  A seed's row holds PCG64's 128-bit ``state``
    and ``inc`` as (low, high, low, high) 64-bit words, the order in which a
    little-endian PCG64 keeps them in memory (``normal_stream``).

    The row follows numpy step by step: ``SeedSequence(seed)`` gives the
    initial state and sequence (``_generate_state``), and ``pcg64_set_seed``
    sets inc = 2 * initseq + 1 and takes two LCG steps from state 0, adding
    the initial state between them.  A 128-bit value is a (high, low) pair
    of uint64 arrays, which wrap mod 2^64 silently, as ``_splitmix64``'s do;
    the one product whose carry counts is formed from 32-bit limbs
    (``_times_mult``).
    """
    seeds = _uint64(seeds)
    seed_hi, seed_lo, seq_hi, seq_lo = _generate_state(seeds).T
    # Only +, *, & and >> on uint64: a first use of another uint64 loop (a
    # comparison, a left shift, an or) maps up to 128 KiB more of numpy's code
    # into the process's peak resident set.
    inc_hi, inc_lo = seq_hi + seq_hi + (seq_lo >> _SHIFT63), seq_lo + seq_lo + _ONE
    state_hi, state_lo = _add128(*_times_mult(*_add128(inc_hi, inc_lo, seed_hi, seed_lo)),
                                 inc_hi, inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=-1).reshape(seeds.shape + (4,))


def _set_state(bitgen: PCG64, key) -> None:
    """Set a row of ``stream_keys`` on ``bitgen`` through PCG64's public ``state`` setter."""
    s_lo, s_hi, i_lo, i_hi = (int(w) for w in key)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                    "has_uint32": 0, "uinteger": 0}


# Four distinct words, odd inc: a state whose read-back tells the layouts apart.
_PROBE = (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6979, 0x8796A5B4C3D2E1F0)


def _state_words(bitgen: PCG64) -> np.ndarray | None:
    """A writable uint64 view of ``bitgen``'s (state, inc) in ``stream_keys``'s
    word order, or None where PCG64 keeps them otherwise.

    ``ctypes.state_address`` is the address of numpy's ``pcg64_state``, whose
    first field points at the (state, inc) pair inside the same object.  The
    pointer is followed only if the 32 bytes it names lie within the object,
    and the view is kept only if it reads back ``_PROBE`` set through the
    public setter: a big-endian build, or one whose 128-bit integers are a
    (high, low) struct, fails that and draws through the setter instead.
    """
    pointer = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value or 0
    if not id(bitgen) <= pointer <= id(bitgen) + type(bitgen).__basicsize__ - 32:
        return None
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(pointer), dtype=np.uint64)
    _set_state(bitgen, _PROBE)
    return words if words.tolist() == list(_PROBE) else None


_local = threading.local()


def _bound() -> tuple[Generator, np.ndarray | None]:
    """This thread's generator and the view of its state words (``_state_words``),
    bound on the thread's first draw and held together, so the view never
    outlives the state it points into."""
    bound = getattr(_local, "bound", None)
    if bound is None:
        gen = Generator(PCG64(0))
        bound = _local.bound = gen, _state_words(gen.bit_generator)
    return bound


def normal_stream(key: np.ndarray, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """``size`` i.i.d. standard normals, a pure function of ``key``.

    ``key`` is a seed's row of ``stream_keys``; the normals are those of
    ``Generator(PCG64(seed)).standard_normal(size)``.  The key's four words
    are written into the state of the one generator this thread owns, through
    the view ``_state_words`` binds, or through PCG64's ``state`` setter where
    that finds another layout.  The setter also clears the cached 32-bit
    half-word; the view need not, because ``standard_normal`` draws whole
    64-bit words only, and nothing else draws from this generator.  The
    normals are written into ``out``, a C-contiguous float64 vector of
    ``size`` values, when it is given, and into a new array otherwise.
    """
    gen, words = _bound()
    if words is None:
        _set_state(gen.bit_generator, key)
    else:
        words[:] = key
    return gen.standard_normal(size, out=out)
