"""Rule-based classification of a spec's qualitative path properties.

All verdicts are functions of the active components only (zero-weight
components never influence an outcome).  Hurst comparisons against 1/2
and 3/4 are exact floating-point comparisons by default; ``half_tol``
widens the H = 1/2 detection band for callers that need it.  A negative or
non-finite ``half_tol`` raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .kernels import increment_cov_component, kernel_scale
from .process import IncrementWindow, ProcessSpec

__all__ = [
    "SemimartingaleReason",
    "SemimartingaleVerdict",
    "SignVerdict",
    "Ordering",
    "PreconditionViolated",
    "PredictionContradicted",
    "semimartingale_classify",
    "markov_verdict",
    "increment_sign_predict",
    "dependence_compare",
]


class PreconditionViolated(ValueError):
    """An operation was called outside its stated precondition."""


class PredictionContradicted(ArithmeticError):
    """A rule-based prediction disagrees with the numeric kernel evaluation."""


class SemimartingaleReason(str, Enum):
    HALF_WITNESS_AND_REST = "HalfWitnessAndRest"
    LOW_HURST_COMPONENT = "LowHurstComponent"
    ALL_ABOVE_HALF = "AllAboveHalf"
    INTERMEDIATE_HURST = "IntermediateHurst"


class SignVerdict(str, Enum):
    ZERO = "Zero"
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    INDETERMINATE = "Indeterminate"


class Ordering(str, Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


@dataclass(frozen=True)
class SemimartingaleVerdict:
    """Classification outcome with the clause that decided it.

    ``witness`` is the 1-based index of the H = 1/2 component that makes
    the process a semimartingale; present exactly when the verdict is
    positive (lowest index wins when several qualify).
    """

    is_semimartingale: bool
    witness: Optional[int]
    reason: SemimartingaleReason

    def __post_init__(self):
        positive = self.reason is SemimartingaleReason.HALF_WITNESS_AND_REST
        if self.is_semimartingale != positive or (self.witness is not None) != positive:
            raise ValueError("verdict fields are inconsistent with the reason clause")


def _is_half(h: float, half_tol: float) -> bool:
    return h == 0.5 if half_tol == 0.0 else abs(h - 0.5) <= half_tol


def _check_half_tol(half_tol: float) -> None:
    """Refuse a band that would silently detect no H = 1/2 (NaN or negative) or every H."""
    if not 0.0 <= half_tol < math.inf:
        raise ValueError(f"half_tol must be a nonnegative finite number, got {half_tol!r}")


def semimartingale_classify(
    spec: ProcessSpec, half_tol: float = 0.0
) -> SemimartingaleVerdict:
    """Semimartingale status of the process.

    Semimartingale exactly when some active component has H = 1/2 and
    every other active component has H in {1/2} or (3/4, 1); an active
    component with H = 3/4 exactly breaks the property (the intermediate
    band is closed on the right).
    """
    _check_half_tol(half_tol)
    active = [(i, spec.hurst[i]) for i in spec.active_set]
    if any(h < 0.5 and not _is_half(h, half_tol) for _, h in active):
        return SemimartingaleVerdict(False, None, SemimartingaleReason.LOW_HURST_COMPONENT)
    halves = [i for i, h in active if _is_half(h, half_tol)]
    if halves:
        rest_ok = all(_is_half(h, half_tol) or h > 0.75 for _, h in active)
        if rest_ok:
            return SemimartingaleVerdict(
                True, halves[0] + 1, SemimartingaleReason.HALF_WITNESS_AND_REST
            )
        return SemimartingaleVerdict(False, None, SemimartingaleReason.INTERMEDIATE_HURST)
    return SemimartingaleVerdict(False, None, SemimartingaleReason.ALL_ABOVE_HALF)


def markov_verdict(spec: ProcessSpec, half_tol: float = 0.0) -> bool:
    """True iff every active component is a plain Brownian one (H = 1/2)."""
    _check_half_tol(half_tol)
    return all(_is_half(spec.hurst[i], half_tol) for i in spec.active_set)


def increment_sign_predict(spec: ProcessSpec, half_tol: float = 0.0) -> SignVerdict:
    """Sign of increment correlations over non-overlapping windows.

    Zero / Positive / Negative when the active Hurst indices sit uniformly
    at / above / below 1/2; Indeterminate for mixed configurations, where
    the sign genuinely depends on the window and the weights.
    """
    _check_half_tol(half_tol)
    hs = [spec.hurst[i] for i in spec.active_set]
    if all(_is_half(h, half_tol) for h in hs):
        return SignVerdict.ZERO
    if all(h > 0.5 for h in hs):
        return SignVerdict.POSITIVE
    if all(h < 0.5 for h in hs):
        return SignVerdict.NEGATIVE
    return SignVerdict.INDETERMINATE


def dependence_compare(
    spec: ProcessSpec,
    slot: int,
    b: float,
    c: float,
    w: IncrementWindow,
    half_tol: float = 0.0,
) -> Ordering:
    """Ordering of the increment covariance when slot's weight grows from b to c.

    Requires |b| <= |c|.  Returns how the |c| version compares to the |b|
    version: Greater when H_slot > 1/2 (larger weight strengthens the
    positive dependence), Less when H_slot < 1/2, Equal at H_slot = 1/2 or
    |b| = |c|.  The prediction is checked against the kernel decomposition
    before being returned; a disagreement raises PredictionContradicted.
    """
    _check_half_tol(half_tol)
    b = float(b)
    c = float(c)
    if abs(b) > abs(c):
        raise PreconditionViolated(f"requires |b| <= |c|, got |{b}| > |{c}|")
    if slot < 0 or slot >= spec.n:
        raise ValueError(f"slot {slot} out of range for {spec.n} components")
    h_slot = spec.hurst[slot]
    if b * b == c * c:
        predicted = Ordering.EQUAL
    elif _is_half(h_slot, half_tol):
        predicted = Ordering.EQUAL
    elif h_slot > 0.5:
        predicted = Ordering.GREATER
    else:
        predicted = Ordering.LESS

    component = increment_cov_component(h_slot, w)
    delta = (c * c - b * b) * component
    tol = 1e-12 * max(b * b, c * c, 1.0) * kernel_scale(
        ProcessSpec((1.0,), (h_slot,)), w.t
    )
    numeric = (
        Ordering.EQUAL
        if abs(delta) <= tol
        else (Ordering.GREATER if delta > 0.0 else Ordering.LESS)
    )
    contradiction = (
        numeric is not Ordering.EQUAL
        if predicted is Ordering.EQUAL
        else numeric not in (Ordering.EQUAL, predicted)
    )
    if contradiction:
        raise PredictionContradicted(
            f"kernel decomposition gives {numeric.value}, clause predicts {predicted.value}"
        )
    return predicted
