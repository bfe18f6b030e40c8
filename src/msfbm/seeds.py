"""Deterministic, splittable 64-bit seed derivation.

Replica and component streams are derived from a master seed with the
SplitMix64 finalizer over state ``master + (k+1) * GOLDEN``.  The
finalizer is bijective and GOLDEN is odd, so distinct indices always map
to distinct seeds.  Normal variates are drawn from numpy's PCG64 stream
through ``Generator.standard_normal`` (ziggurat); golden outputs are tied
to the numpy version recorded in the lock/install metadata.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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


def normal_stream(seed: int, size: int) -> np.ndarray:
    """``size`` i.i.d. standard normals, a pure function of ``seed``."""
    return Generator(PCG64(int(seed))).standard_normal(size)
