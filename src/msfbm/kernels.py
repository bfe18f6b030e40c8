"""Closed-form covariance kernels of the mixed sub-fractional family.

Every function here is a pure, deterministic evaluation of a closed form:
plain and sub-fractional Brownian covariances, their weighted mixtures,
increment second moments and envelopes, lag covariances of unit
increments, the stationary mixed-fBm comparator, and the factorization
residual used by the Markov test.

Spec-level sums run over the active components: a zero-weight component
is never evaluated (``bound_constants`` and ``rescale_coeffs`` map all).

Powers x^(2H) are evaluated as exp(2H*log(x)) with an explicit x = 0
branch.  Differences of nearly equal large powers are grouped pairwise
before summation; at large times the pairing, not the raw eight-term sum,
is what keeps the increment covariances meaningful.  The second difference
of unit lags, (m+1)^(2H) - 2 m^(2H) + (m-1)^(2H), has one evaluator,
``_second_diff``, which ``lag_cov_series``, ``mfbm_lag_cov_r`` and the fgn
sampler's autocovariance share.

Each per-component closed form is written once, as a private ``_*_term``
helper generic in its power function: the scalar API passes ``_p2h``
(libm), and the verify suites pass ``_p2h_array`` to evaluate the same
formula over (draws x components) arrays, where numpy's exp and log move
results at ulp level.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .process import HURST_RANGE_MSG, IncrementBoundConstants, IncrementWindow, ProcessSpec

__all__ = [
    "fbm_cov",
    "sfbm_cov",
    "msfbm_cov",
    "msfbm_var",
    "mfbm_cov",
    "increment_second_moment",
    "increment_bounds",
    "bound_constants",
    "increment_cov",
    "increment_cov_component",
    "lag_cov_c",
    "lag_cov_series",
    "lag_cov_c_asymptotic",
    "mfbm_lag_cov_r",
    "stationarity_gap",
    "markov_residual",
    "conditional_variance",
    "rescale_coeffs",
    "kernel_scale",
]


def _check_hurst(h: float) -> float:
    h = float(h)
    if not (0.0 < h < 1.0):
        raise ValueError(HURST_RANGE_MSG)
    return h


def _times(*ts: float) -> tuple[float, ...]:
    """``ts`` as floats; ValueError unless each is finite and nonnegative (NaN is neither)."""
    ts = tuple(map(float, ts))
    for t in ts:  # a plain loop: all() over a generator doubles the cost of a scalar call
        if not 0.0 <= t < math.inf:
            raise ValueError(f"times must be finite and nonnegative, got {t!r}")
    return ts


def _p2h(x: float, two_h: float) -> float:
    """x^(2h) for x >= 0, with 0^(2h) = 0."""
    if x == 0.0:
        return 0.0
    try:
        return math.exp(two_h * math.log(x))
    except OverflowError:
        raise OverflowError(f"x^(2H) overflows a double at x = {x!r}, 2H = {two_h!r}") from None


def _finite(value: float, name: str, *args: float) -> float:
    """``value`` of ``name(*args)``; ArithmeticError when it is not a finite double."""
    if not math.isfinite(value):
        raise ArithmeticError(
            f"{name}({', '.join(map(repr, args))}) = {value!r} is not a finite double"
        )
    return value


def _p2h_array(x, two_h) -> np.ndarray:
    """Elementwise x^(2h) for x >= 0, with 0^(2h) = 0; x broadcasts against two_h."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 0.0, np.exp(two_h * np.log(safe)))


# Per-component closed forms, generic in the power function p; a2 is the weight a*a.
def _sfbm_term(p, two_h, s, t):
    return p(s, two_h) + p(t, two_h) - 0.5 * (p(s + t, two_h) + p(abs(t - s), two_h))


def _var_term(p, a2, two_h, t):
    return a2 * (2.0 - p(2.0, two_h - 1.0)) * p(t, two_h)


def _moment_term(p, a2, two_h, s, t):
    return a2 * (p(t + s, two_h) + p(t - s, two_h)
                 - p(2.0, two_h - 1.0) * (p(t, two_h) + p(s, two_h)))


def _pair_term(p, two_h, tu, tv, tmu, tmv, sv, su, smv, smu):
    """The eight power terms grouped pairwise, then halved."""
    d1 = p(tu, two_h) - p(tv, two_h)
    d2 = p(tmu, two_h) - p(tmv, two_h)
    d3 = p(sv, two_h) - p(su, two_h)
    d4 = p(smv, two_h) - p(smu, two_h)
    return 0.5 * ((d1 + d2) + (d3 + d4))


def _window_term(p, two_h, u, v, s, t):
    return _pair_term(p, two_h, t + u, t + v, t - u, t - v, s + v, s + u, s - v, s - u)


def _scale_term(p, a2, two_h, tmax, top=max):
    return a2 * top(1.0, p(2.0 * tmax, two_h))


def _envelope_terms(p, a2, two_h, dt, low=min, top=max):
    """(gamma, nu) * a2 * dt^(2H), with {gamma, nu} = {2 - 2^(2H-1), 1} ordered."""
    c = 2.0 - p(2.0, two_h - 1.0)
    base = a2 * p(dt, two_h)
    return low(c, 1.0) * base, top(c, 1.0) * base


def _rescale_term(p, a, hurst, factor):
    return a * p(factor, hurst)


def fbm_cov(h: float, s: float, t: float) -> float:
    """Fractional Brownian covariance (|t|^2h + |s|^2h - |t-s|^2h)/2 on the line."""
    two_h = 2.0 * _check_hurst(h)
    s, t = float(s), float(t)
    _times(abs(s), abs(t))  # finite: fbm_cov is defined on the whole line
    return 0.5 * (_p2h(abs(t), two_h) + _p2h(abs(s), two_h) - _p2h(abs(t - s), two_h))


def sfbm_cov(h: float, s: float, t: float) -> float:
    """Sub-fractional covariance s^2h + t^2h - ((s+t)^2h + |t-s|^2h)/2, s,t >= 0."""
    h = _check_hurst(h)
    s, t = _times(s, t)
    return _sfbm_term(_p2h, 2.0 * h, s, t)


def msfbm_cov(spec: ProcessSpec, s: float, t: float) -> float:
    """Mixture covariance sum(a_i^2 * sfbm_cov(H_i, s, t))."""
    s, t = _times(s, t)
    value = sum(a * a * _sfbm_term(_p2h, 2.0 * h, s, t) for a, h in spec.active())
    return _finite(value, "msfbm_cov", s, t)


def msfbm_var(spec: ProcessSpec, t: float) -> float:
    """Variance sum(a_i^2 * (2 - 2^(2H_i - 1)) * t^(2H_i)) at time t >= 0."""
    (t,) = _times(t)
    return sum(_var_term(_p2h, a * a, 2.0 * h, t) for a, h in spec.active())


def mfbm_cov(spec: ProcessSpec, s: float, t: float) -> float:
    """Mixed fractional (stationary-increment comparator) covariance."""
    s, t = _times(s, t)
    return sum(a * a * fbm_cov(h, s, t) for a, h in spec.active())


def _check_increment_times(s: float, t: float) -> tuple[float, float]:
    s, t = _times(s, t)
    if s > t:
        raise ValueError("increment requires s <= t")
    return s, t


def increment_second_moment(spec: ProcessSpec, s: float, t: float) -> float:
    """E(S_t - S_s)^2 for 0 <= s <= t, component by component.

    Clamped at zero: for s = t the exact value is 0 and roundoff must not
    surface as a negative variance.
    """
    s, t = _check_increment_times(s, t)
    return max(sum(_moment_term(_p2h, a * a, 2.0 * h, s, t)
                   for a, h in spec.active()), 0.0)


def increment_bounds(spec: ProcessSpec, s: float, t: float) -> tuple[float, float]:
    """Two-sided envelope (lower, upper) for the increment second moment."""
    s, t = _check_increment_times(s, t)
    terms = [_envelope_terms(_p2h, a * a, 2.0 * h, t - s) for a, h in spec.active()]
    return sum(lo for lo, _ in terms), sum(hi for _, hi in terms)


def bound_constants(spec: ProcessSpec) -> IncrementBoundConstants:
    """Envelope constants (gamma_i, nu_i) for every component of ``spec``."""
    terms = [_envelope_terms(_p2h, 1.0, 2.0 * h, 1.0) for h in spec.hurst]
    return IncrementBoundConstants(*map(tuple, zip(*terms)))


def increment_cov_component(h: float, w: IncrementWindow) -> float:
    """Unit-weight contribution of one Hurst index to the increment covariance.

    Pairwise grouping of the eight power terms (``_pair_term``).
    """
    return _window_term(_p2h, 2.0 * _check_hurst(h), w.u, w.v, w.s, w.t)


def increment_cov(spec: ProcessSpec, w: IncrementWindow) -> float:
    """Covariance of increments over the non-overlapping window (u,v) x (s,t)."""
    value = sum(a * a * increment_cov_component(h, w) for a, h in spec.active())
    return _finite(value, "increment_cov", w.u, w.v, w.s, w.t)


def kernel_scale(spec: ProcessSpec, tmax: float) -> float:
    """Natural magnitude of kernel terms at times up to ``tmax``.

    Identity checks on cancellation-prone sums are meaningful relative to
    this scale, not to the (possibly vanishing) result.
    """
    (tmax,) = _times(abs(float(tmax)))
    return sum(_scale_term(_p2h, a * a, 2.0 * h, tmax) for a, h in spec.active())


def _lag_window(x: float, n: int) -> IncrementWindow:
    return IncrementWindow(x, x + 1.0, x + n, x + n + 1.0)


def _whole(name: str, value: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a finite
    whole number (an integral float such as 3.0 is taken as 3)."""
    if not isinstance(value, (int, np.integer)):
        as_float = float(value)
        if not as_float.is_integer():  # False for inf and NaN as well
            raise ValueError(f"{name} must be a finite whole number, got {as_float!r}")
        value = as_float
    return int(value)


def _check_lag(n: int) -> int:
    n = _whole("lag n", n)
    if n < 1:
        raise ValueError("lag n must be >= 1 (n = 0 overlaps the base window)")
    return n


def _check_offset(p: int) -> int:
    p = _whole("offset p", p)
    if p < 0:
        raise ValueError("p must be a nonnegative integer")
    return p


def lag_cov_c(spec: ProcessSpec, x: float, n: int) -> float:
    """Lag covariance C(x, n) of unit increments at (x, x+1) and (x+n, x+n+1):
    ``increment_cov``'s pairwise eight-term sum on that window."""
    n = _check_lag(n)
    (x,) = _times(x)
    return increment_cov(spec, _lag_window(x, n))


def _second_diff(m, two_h):
    """The second difference (m+1)^2h - 2 m^2h + (m-1)^2h for m >= 1 (2h a
    float, or a column of them that broadcasts against m), as
    m^2h * ((1+1/m)^2h + (1-1/m)^2h - 2) expanded through expm1/log1p;
    exact at m = 1.  The two expm1 terms, each about +-2h/m, cancel to
    2h(2h-1)/m^2, so the relative error grows like eps * m / |2h - 1|."""
    inv = 1.0 / m
    with np.errstate(divide="ignore"):
        bracket = np.expm1(two_h * np.log1p(inv)) + np.expm1(two_h * np.log1p(-inv))
    return _p2h_array(m, two_h) * bracket


# Lags per pass of ``lag_cov_series``: its (components, 2 * block) float
# temporaries hold at most 256 KiB each, whatever the number of lags.
_LAG_BLOCK = 4096


def lag_cov_series(spec: ProcessSpec, p: int, ns: Sequence[int]) -> np.ndarray:
    """C(p, n) over many integer lags, evaluated for large-lag tails.

    Writes C(p, n) = (D(n) - D(n + 2p + 1)) / 2 with D the second
    difference ``_second_diff``, evaluated in one pass for every active
    component (a row each) at n and n + 2p + 1, then summed component by
    component; lags go ``_LAG_BLOCK`` at a time, so the temporaries stay
    small however many there are.  The two D cancel by a further factor of
    about n / (2p + 1), so at p = 0 the relative error grows like eps * n^2:
    1e-8 to 2e-7 at n = 1e4 and up to 7e-5 at n = 1e5 (README, "Numerical
    notes"); the raw eight-term sum would have lost every digit there.
    """
    p = _check_offset(p)
    ns = np.asarray(ns, dtype=float)
    not_whole = ns[~np.isfinite(ns) | (ns != np.floor(ns))]
    if not_whole.size:
        _whole("lag n", not_whole[0])
    if ns.size and ns.min() < 1:
        raise ValueError("lag n must be >= 1 (n = 0 overlaps the base window)")

    out = np.zeros(ns.shape)
    active = spec.active()
    two_h = np.array([[2.0 * h] for _, h in active])
    lags, sums = ns.ravel(), out.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, lags.size, _LAG_BLOCK):
            block = lags[lo:lo + _LAG_BLOCK]
            near_far = _second_diff(np.concatenate([block, block + (2 * p + 1)]), two_h)
            for (a, _), (near, far) in zip(active, near_far.reshape(len(active), 2, -1)):
                sums[lo:lo + _LAG_BLOCK] += (a * a / 2.0) * (near - far)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"lag_cov_series(p = {p}) holds values that are not finite doubles")
    return out


def lag_cov_c_asymptotic(spec: ProcessSpec, p: int, n: int) -> float:
    """Leading large-n term 2(1-H)H(2H-1)(2p+1) a^2 n^(2H-3), summed over components."""
    n = _check_lag(n)
    p = _check_offset(p)
    out = 0.0
    for a, h in spec.active():
        out += (
            2.0 * (1.0 - h) * h * (2.0 * h - 1.0) * (2 * p + 1) * a * a
            * _p2h(float(n), 2.0 * h - 3.0)
        )
    return out


def mfbm_lag_cov_r(spec: ProcessSpec, n: int) -> float:
    """Stationary lag covariance R(0, n) of the mixed fractional comparator,
    sum(a_i^2 / 2 * second difference of n^(2H_i))."""
    n = _check_lag(n)
    out = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, h in spec.active():
            out += (a * a / 2.0) * float(_second_diff(float(n), 2.0 * h))
    return _finite(out, "mfbm_lag_cov_r", n)


def stationarity_gap(spec: ProcessSpec, x: float, n: int) -> float:
    """C(x, n) - R(0, n): how far lagged increment covariances sit from stationarity."""
    return lag_cov_c(spec, x, n) - mfbm_lag_cov_r(spec, n)


def markov_residual(spec: ProcessSpec, s: float, t: float, u: float) -> float:
    """Cov(s,u) Var(t) - Cov(s,t) Cov(t,u); vanishes identically iff Markov."""
    s, t, u = float(s), float(t), float(u)
    if not (0.0 < s < t < u):
        raise ValueError("markov residual requires 0 < s < t < u")
    return msfbm_cov(spec, s, u) * msfbm_var(spec, t) - msfbm_cov(
        spec, s, t
    ) * msfbm_cov(spec, t, u)


def conditional_variance(spec: ProcessSpec, t: float, s: float) -> float:
    """Var(S_t | S_s) = Var(t) - Cov(s,t)^2 / Var(s) for s, t > 0."""
    s, t = float(s), float(t)
    if s <= 0.0:
        raise ValueError("conditioning time s must be positive")
    if t <= 0.0:
        raise ValueError("time t must be positive")
    var_s = msfbm_var(spec, s)
    cov_st = msfbm_cov(spec, s, t)
    return msfbm_var(spec, t) - cov_st * cov_st / var_s


def rescale_coeffs(spec: ProcessSpec, h: float) -> ProcessSpec:
    """Spec with weights a_i * h^(H_i); time scaling t -> h t in kernel form."""
    h = float(h)
    if h <= 0.0:
        raise ValueError("scale factor h must be positive")
    return ProcessSpec([_rescale_term(_p2h, a, hu, h) for a, hu in zip(spec.coeffs, spec.hurst)],
                       spec.hurst)
