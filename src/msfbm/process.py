"""Parameter triple (N, a, H) of a mixed sub-fractional Brownian motion.

A process is described by N weighted components: real weights ``coeffs``
and Hurst indices ``hurst`` in the open interval (0, 1).  Components with
zero weight are inert; every derived quantity (``active_set``, ``h_min``,
``h_max``) ignores them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

HURST_RANGE_MSG = "hurst out of open interval (0,1)"


def _as_floats(values: Iterable[float]) -> tuple[float, ...]:
    return tuple([float(v) for v in values])


@dataclass(frozen=True)
class ProcessSpec:
    """Immutable (coeffs, hurst) pair defining one mixed process."""

    coeffs: tuple[float, ...]
    hurst: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float], hurst: Sequence[float]):
        object.__setattr__(self, "coeffs", _as_floats(coeffs))
        object.__setattr__(self, "hurst", _as_floats(hurst))
        self._validate()
        # Built once: every spec-level kernel iterates over it.
        object.__setattr__(self, "_active", tuple(
            (a, h) for a, h in zip(self.coeffs, self.hurst) if a != 0.0))

    def _validate(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("spec needs at least one component")
        if len(self.coeffs) != len(self.hurst):
            raise ValueError(
                f"coeffs and hurst lengths differ: {len(self.coeffs)} != {len(self.hurst)}"
            )
        for a in self.coeffs:
            if not math.isfinite(a):
                raise ValueError("coeffs must be finite")
        for h in self.hurst:
            if not (0.0 < h < 1.0):
                raise ValueError(HURST_RANGE_MSG)
        if all(a == 0.0 for a in self.coeffs):
            raise ValueError("at least one coefficient must be nonzero")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def active_set(self) -> tuple[int, ...]:
        """Indices of components with nonzero weight (never empty)."""
        return tuple(i for i, a in enumerate(self.coeffs) if a != 0.0)

    @property
    def h_min(self) -> float:
        """Smallest Hurst index over the active set."""
        return min(self.hurst[i] for i in self.active_set)

    @property
    def h_max(self) -> float:
        """Largest Hurst index over the active set."""
        return max(self.hurst[i] for i in self.active_set)

    def active(self) -> tuple[tuple[float, float], ...]:
        """(coeff, hurst) pairs of the active components."""
        return self._active

    def unit(self) -> tuple[float, "ProcessSpec"]:
        """s = max |a_i| and the spec with weights a_i / s: the process is s
        times the unit spec's, whose largest weight is +-1, so its squared
        weights neither overflow nor all underflow."""
        scale = max(abs(a) for a in self.coeffs)
        return scale, ProcessSpec([a / scale for a in self.coeffs], self.hurst)

    def with_coeff(self, slot: int, value: float) -> "ProcessSpec":
        """Copy of the spec with one coefficient replaced."""
        coeffs = list(self.coeffs)
        coeffs[slot] = float(value)
        return ProcessSpec(coeffs, self.hurst)


@dataclass(frozen=True)
class IncrementWindow:
    """Ordered finite quadruple 0 <= u < v <= s < t of non-overlapping increments."""

    u: float
    v: float
    s: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "t", float(self.t))
        if not (0.0 <= self.u < self.v <= self.s < self.t < math.inf):
            raise ValueError(
                f"window must satisfy 0 <= u < v <= s < t < inf, got "
                f"({self.u}, {self.v}, {self.s}, {self.t})"
            )


@dataclass(frozen=True)
class IncrementBoundConstants:
    """Per-component envelope constants for the increment second moment.

    For each component, ``gamma[i] * dt^(2H_i)`` lower-bounds and
    ``nu[i] * dt^(2H_i)`` upper-bounds the increment variance contribution,
    with gamma = nu = 1 exactly at H = 1/2.
    """

    gamma: tuple[float, ...]
    nu: tuple[float, ...]

    def __post_init__(self):
        for g, v in zip(self.gamma, self.nu):
            if not (0.0 < g <= v < 2.0):
                raise ValueError("bound constants must satisfy 0 < gamma <= nu < 2")
