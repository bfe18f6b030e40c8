"""Runnable verification suites: identity, sampler, dependence and law checks.

Each suite re-derives a family of theoretical facts at desk scale and
reports one pass/fail entry per invariant, with the measured value and
the gate it was held against.  Reports contain nothing run-dependent
(no timings, no thread counts), so a fixed master seed yields
byte-identical reports under any degree of parallelism.

The randomized suites draw their cases as arrays, one batch per kind of
case from the suite's own generator: ``_draw_specs`` gives padded (n, 4)
weights and Hurst indices, ``_draw_windows`` sorted (n, 4) windows.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .analysis import _loglog_fit
from .classify import PredictionContradicted, dependence_compare, markov_verdict
from .process import IncrementWindow, ProcessSpec
from .sampler import Ensemble, TimeGrid, gram_matrix, psd_factor, sample_ensemble
from .seeds import derive_seed

# Each suite and the inputs its runner ``run_<suite>_suite`` reads.  Runners are looked up
# by name when called, so that a rebinding of the name (a tracer, a test's stub) reaches them.
SUITES = {
    "kernels": ("seed",),
    "sampler": ("spec", "seed", "n_reps", "n_threads"),
    "srd": ("spec",),
    # The seed draws the residual's time triples, which only a Markov spec samples: for
    # any other spec the report differs across seeds in ``master_seed`` alone.
    "markov": ("spec", "seed"),
    "selfsim": ("seed",),
}
SUITE_NAMES = tuple(SUITES)

_IDENTITY_TOL = 1e-12
_PAD = 4  # components per padded spec row: random specs have 1 to 4


def _check(name: str, measured: float, tolerance: float, target, passed: bool) -> dict:
    return {"name": name, "measured": measured, "tolerance": tolerance, "target": target,
            "passed": bool(passed)}


def _at_most(name: str, measured: float, tolerance: float) -> dict:
    """Check with target 0 that passes when ``measured <= tolerance``."""
    return _check(name, measured, tolerance, 0.0, measured <= tolerance)


def _draw_specs(rng: np.random.Generator, n: int, h_lo: float = 0.05, h_hi: float = 0.95,
                a_max: float = 10.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coeffs, hurst, counts) of n random specs with 1 to _PAD components each: weights
    uniform on (-a_max, a_max) and H on (h_lo, h_hi), as (n, _PAD) arrays padded past
    each row's count with weight 0 and H = 1/2.  An all-zero row gets weight 1 in its
    first slot."""
    counts = rng.integers(1, _PAD + 1, n)
    live = np.arange(_PAD) < counts[:, None]
    coeffs = np.where(live, rng.uniform(-a_max, a_max, (n, _PAD)), 0.0)
    coeffs[~coeffs.any(axis=1), 0] = 1.0
    return coeffs, np.where(live, rng.uniform(h_lo, h_hi, (n, _PAD)), 0.5), counts


def _draw_windows(rng: np.random.Generator, n: int, tmax: float = 10.0) -> np.ndarray:
    """(n, 4) sorted (u, v, s, t) of random windows; s = v with probability 0.2.  A row
    with u = v or s = t is redrawn, the one rejection a sorted window needs."""
    pts = np.sort(rng.uniform(0.0, tmax, (n, 4)), axis=1)
    while (tied := np.flatnonzero((pts[:, 0] == pts[:, 1]) | (pts[:, 2] == pts[:, 3]))).size:
        pts[tied] = np.sort(rng.uniform(0.0, tmax, (tied.size, 4)), axis=1)
    at_v = rng.random(n) < 0.2
    pts[at_v, 2] = pts[at_v, 1]
    return pts


def _spec_list(coeffs: np.ndarray, hurst: np.ndarray, counts: np.ndarray) -> list:
    """One ProcessSpec per drawn row, its padding cut off."""
    return [ProcessSpec(a[:k], h[:k]) for a, h, k in zip(coeffs, hurst, counts)]


def _scaled_dev(lhs, rhs, scale) -> float:
    """Largest |lhs - rhs| / max(|lhs|, |rhs|, scale) over scalars or arrays."""
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                                                        scale)))


class _Mixtures:
    """Random specs as (n_draws, _PAD) arrays padded with weight 0 and H = 1/2."""

    p = staticmethod(kernels._p2h_array)

    def __init__(self, coeffs: np.ndarray, hurst: np.ndarray):
        self.coeffs, self.hurst = coeffs, hurst
        self.a2, self.two_h = coeffs * coeffs, 2.0 * hurst

    def cov(self, s, t, a2=None):
        a2 = self.a2 if a2 is None else a2
        return np.sum(a2 * kernels._sfbm_term(self.p, self.two_h, s, t), axis=1)

    def var(self, t):
        return np.sum(kernels._var_term(self.p, self.a2, self.two_h, t), axis=1)

    def scale(self, tmax):
        return np.sum(kernels._scale_term(self.p, self.a2, self.two_h, tmax, np.maximum), axis=1)

    def rescaling_dev(self, factor, s, t) -> float:
        """Scaled deviation of Cov(f s, f t) from the f-rescaled spec's Cov(s, t)."""
        a = kernels._rescale_term(self.p, self.coeffs, self.hurst, factor)
        return _scaled_dev(self.cov(factor * s, factor * t), self.cov(s, t, a * a),
                           self.scale(factor * t))


def run_kernels_suite(seed: int = 0, n_draws: int = 2000) -> dict:
    """Randomized closed-form identity checks (all gates at 1e-12 scaled)."""
    rng = np.random.default_rng(derive_seed(seed, 101))
    mix = _Mixtures(*_draw_specs(rng, n_draws)[:2])
    u, v, ws, wt = _draw_windows(rng, n_draws).T[..., None]
    s, t = np.sort(rng.uniform(0.0, 10.0, (n_draws, 2)), axis=1).T[..., None]
    factor = rng.uniform(0.1, 4.0, (n_draws, 1))
    p, a2, two_h = mix.p, mix.a2, mix.two_h
    scale = mix.scale(wt)
    incr = np.sum(a2 * kernels._window_term(p, two_h, u, v, ws, wt), axis=1)
    expanded = mix.cov(v, wt) - mix.cov(v, ws) - mix.cov(u, wt) + mix.cov(u, ws)
    mom = np.maximum(np.sum(kernels._moment_term(p, a2, two_h, s, t), axis=1), 0.0)
    lo, hi = (np.sum(x, axis=1) for x in
              kernels._envelope_terms(p, a2, two_h, t - s, np.minimum, np.maximum))
    bounds_violations = int(np.count_nonzero(~((lo <= mom) & (mom <= hi))))
    identities = [
        ("bilinear_expansion_identity", _scaled_dev(incr, expanded, scale)),
        ("increment_moment_identity",
         _scaled_dev(mom, mix.var(t) + mix.var(s) - 2.0 * mix.cov(s, t), scale)),
        ("diagonal_consistency", _scaled_dev(mix.cov(t, t), mix.var(t), scale)),
        ("rescaling_identity", mix.rescaling_dev(factor, s, t)),
    ]

    # Scalar on purpose: these exercise the public entry points one call at a time, on
    # cases drawn as arrays before each loop.
    dev_lag = 0.0
    specs = _spec_list(*_draw_specs(rng, 200))
    for spec, x, n in zip(specs, rng.integers(0, 6, 200).tolist(),
                          rng.integers(1, 101, 200).tolist()):
        win = kernels.lag_cov_c(spec, float(x), n)
        series = float(kernels.lag_cov_series(spec, x, [n])[0])
        dev_lag = max(dev_lag, _scaled_dev(win, series, kernels.kernel_scale(spec, x + n + 1.0)))

    sign_pos, sign_neg, sign_zero = math.inf, -math.inf, 0.0
    windows = _draw_windows(rng, 300)
    above = _spec_list(*_draw_specs(rng, 300, h_lo=0.51))
    below = _spec_list(*_draw_specs(rng, 300, h_hi=0.49))
    half = _spec_list(rng.uniform(0.1, 3.0, (300, 3)), np.full((300, 3), 0.5),
                      rng.integers(1, 4, 300))
    for w, pos, neg, zero in zip(windows, above, below, half):
        w = IncrementWindow(*w)
        sign_pos = min(sign_pos, kernels.increment_cov(pos, w))
        sign_neg = max(sign_neg, kernels.increment_cov(neg, w))
        sign_zero = max(sign_zero, abs(kernels.increment_cov(zero, w)))

    compare_failures = 0
    coeffs, hurst, counts = _draw_specs(rng, 300, a_max=3.0)
    cases = zip(_spec_list(coeffs, hurst, counts), _draw_windows(rng, 300),
                rng.integers(0, counts).tolist(), np.sort(rng.uniform(0.0, 3.0, (300, 2)), axis=1))
    for spec, w, slot, (b, c) in cases:
        try:
            dependence_compare(spec, slot, b, c, IncrementWindow(*w))
        except PredictionContradicted:
            compare_failures += 1

    checks = [_at_most(name, dev, _IDENTITY_TOL) for name, dev in identities]
    checks += [
        _at_most("increment_bounds_hold", float(bounds_violations), 0.0),
        _at_most("lag_closed_vs_window", dev_lag, 1e-9),
        _check("sign_all_above_half_positive", sign_pos, 0.0, "positive", sign_pos > 0.0),
        _check("sign_all_below_half_negative", sign_neg, 0.0, "negative", sign_neg < 0.0),
        _at_most("sign_all_half_zero", sign_zero, 1e-12),
        _at_most("dependence_compare_consistent", float(compare_failures), 0.0),
    ]
    return _suite_report("kernels", checks)


def _second_moments(ens: Ensemble, scale: float) -> np.ndarray:
    """Empirical E[S(s) S(t)] over the replicas at the grid's positive times,
    of the paths divided by ``scale``."""
    v = ens.values[:, 1:] / scale
    return (v.T @ v) / ens.n_reps


def run_sampler_suite(
    spec: Optional[ProcessSpec] = None,
    seed: int = 0,
    n_reps: int = 3000,
    n_threads: int = 1,
) -> dict:
    """Distributional and determinism checks for both sampler constructions.

    The Gram, its factor and the z-gates read the unit spec, s times smaller
    (``ProcessSpec.unit``), and the ensembles, drawn from the spec as given,
    are divided by s, so weights far from 1 neither overflow nor underflow
    the checks; with s = 1 no bit moves.
    """
    spec = spec or ProcessSpec((1.0, 1.0), (0.4, 0.8))
    scale, unit = spec.unit()
    grid = TimeGrid.uniform(9, 1.0)
    g = gram_matrix(unit, grid)
    eig_min = float(np.linalg.eigvalsh(g).min())
    max_diag = float(np.max(np.diag(g)))

    factor = psd_factor(g)
    fidelity = float(
        np.max(np.abs(factor.lower @ factor.lower.T - (g + factor.jitter * np.eye(g.shape[0]))))
    )

    ens_exact = sample_ensemble(spec, grid, n_reps, derive_seed(seed, 1),
                                sampler="exact", n_threads=n_threads)
    ens_fbm = sample_ensemble(spec, grid, n_reps, derive_seed(seed, 2),
                              sampler="fbm", n_threads=n_threads)
    emp_e, emp_f = _second_moments(ens_exact, scale), _second_moments(ens_fbm, scale)
    # Gaussian fourth moments: R times the variance of one entry of emp_e or emp_f.
    fourth = np.outer(np.diag(g), np.diag(g)) + g * g
    se = np.sqrt(fourth / n_reps)
    z_exact = float(np.max(np.abs(emp_e - g) / se))
    z_fbm = float(np.max(np.abs(emp_f - g) / se))
    z_pair = float(np.max(np.abs(emp_e - emp_f) / np.sqrt(2.0 * fourth / n_reps)))

    again = sample_ensemble(spec, grid, n_reps, derive_seed(seed, 1),
                            sampler="exact", n_threads=1)
    deterministic = np.array_equal(ens_exact.values, again.values)
    starts_at_zero = bool(np.all(ens_exact.values[:, 0] == 0.0)
                          and np.all(ens_fbm.values[:, 0] == 0.0))

    checks = [
        _check("gram_psd", eig_min, -1e-10 * max_diag, 0.0, eig_min >= -1e-10 * max_diag),
        _at_most("factor_fidelity", fidelity, 1e-10 * max_diag),
        _at_most("exact_sampler_cov_zmax", z_exact, 5.0),
        _at_most("fbm_sampler_cov_zmax", z_fbm, 5.0),
        _at_most("sampler_equivalence_zmax", z_pair, 5.0),
        _check("replica_determinism", float(deterministic), 1.0, 1.0, deterministic),
        _check("paths_start_at_zero", float(starts_at_zero), 1.0, 1.0, starts_at_zero),
    ]
    return _suite_report("sampler", checks)


def run_srd_suite(spec: Optional[ProcessSpec] = None) -> dict:
    """Lag-covariance tail decay against its leading asymptotic terms.

    Each active component with H != 1/2 adds a term of order n^(2H-3)
    (``lag_cov_c_asymptotic``).  The tail's log-log slope is held to the
    fitted slope of their sum on the same lags (2H - 3 for one component),
    and the tail itself to that sum, beyond ``lag_cov_series``'s rounding;
    an all-Brownian spec has identically zero lag covariances instead.
    These two tail checks are scale-free and read the unit spec, s times
    smaller (``ProcessSpec.unit``), so weights far from 1 do not underflow
    them; the partial sums read the spec as given, their bound times s^2.
    """
    spec = spec or ProcessSpec((1.0,), (0.75,))
    scale, unit = spec.unit()
    non_half = [(a, h) for a, h in unit.active() if h != 0.5]
    ns = np.round(np.logspace(3, 5, 40)).astype(int)  # sorted; drop adjacent repeats
    ns = ns[np.concatenate(([True], ns[1:] != ns[:-1]))]
    terms = kernels.lag_cov_series(unit, 0, ns)
    # Each H != 1/2 component's asymptotic term at lag 10^3; its power n^(2H-3)
    # carries it to the other lags.
    at_1e3 = np.array([kernels.lag_cov_c_asymptotic(ProcessSpec((a,), (h,)), 0, 10 ** 3)
                       for a, h in non_half])
    checks = []
    if non_half:
        hs = np.array([h for _, h in non_half])[:, None]
        by_component = at_1e3[:, None] * (ns / 1e3) ** (2.0 * hs - 3.0)
        asymptotic = by_component.sum(axis=0)
        if not (np.all(terms) and np.all(asymptotic)):
            raise ArithmeticError("the lag covariances are 0 in doubles, by underflow or by "
                                  "cancellation near H = 1/2, so their tail slope cannot be "
                                  "fitted")
        slope, _ = _loglog_fit(ns, np.abs(terms))
        target, _ = _loglog_fit(ns, np.abs(asymptotic))
        # lag_cov_series rounds each active component by up to about eps 2H a^2 n^(2H-1)
        # (at most 1.7 times that against 60-digit sums over 192 values of H), a relative
        # eps n^2 / |(2H-1)(2H-2)| that passes 1e-2 at n = 1e5 within about 1e-5 of
        # H = 1/2 or 1.  Only the gap beyond four times it is held, relative to the
        # terms' summed magnitudes: |sum| unless their signs differ.
        rounding = 4.0 * np.finfo(float).eps * sum(a * a * 2.0 * h * ns ** (2.0 * h - 1.0)
                                                   for a, h in unit.active())
        excess = np.maximum(np.abs(terms - asymptotic) - rounding, 0.0)
        checks += [
            _check("tail_loglog_slope", slope, 0.1, target, abs(slope - target) <= 0.1),
            _at_most("tail_matches_asymptotic",
                     float(np.max(excess / np.sum(np.abs(by_component), axis=0))), 1e-2),
        ]
    else:
        worst = float(np.max(np.abs(terms)))
        checks.append(_at_most("tail_vanishes", worst, 1e-12))
    partial = np.cumsum(kernels.lag_cov_series(spec, 0, np.arange(1, 10 ** 4 + 1)))
    last = partial[10 ** 3 - 1:]
    width = float(last.max() - last.min())
    # Every component's tail bound from lag 10^3 on, |term(10^3)| 10^3 / (2 - 2H),
    # summed, so that it bounds the sum of the tails whatever their signs.
    bound = scale * (scale * sum(abs(c) * 1e3 / max(2.0 - 2.0 * h, 0.05)
                                 for c, (_, h) in zip(at_1e3, non_half)))
    gate = max(1e-6, 4.0 * bound)
    checks.append(_at_most("partial_sums_cauchy", width, gate))
    return _suite_report("srd", checks)


def run_markov_suite(spec: Optional[ProcessSpec] = None, seed: int = 0) -> dict:
    """Factorization residual behaviour against the Markov classification, on
    the unit spec: the residual is homogeneous of degree 4 in the weights."""
    spec = spec or ProcessSpec((1.0,), (0.6,))
    is_markov = markov_verdict(spec)
    spec = spec.unit()[1]
    rng = np.random.default_rng(derive_seed(seed, 301))
    checks = []
    if is_markov:
        worst = 0.0
        for _ in range(1000):
            s, t, u = np.sort(rng.uniform(1e-3, 2.0, 3))
            if not (s < t < u):
                continue
            worst = max(worst, abs(kernels.markov_residual(spec, s, t, u)))
        checks.append(_at_most("residual_zero_when_markov", worst, 1e-12))
    else:
        if spec.h_max > 0.5:
            t = 1e3
            s, u = math.sqrt(t), t * t
        else:
            t = 1e-3
            s, u = t * t, math.sqrt(t)
        res = kernels.markov_residual(spec, s, t, u)
        base = abs(kernels.msfbm_cov(spec, s, u) * kernels.msfbm_var(spec, t)) + abs(
            kernels.msfbm_cov(spec, s, t) * kernels.msfbm_cov(spec, t, u)
        )
        gate = 1e-8 * base
        checks.append(_check("residual_nonzero_at_proof_triple", abs(res), gate,
                             "nonzero", abs(res) > gate))
    checks.append(_check("verdict_matches_active_set", float(is_markov), 1.0,
                         is_markov,
                         is_markov == all(h == 0.5 for _, h in spec.active())))
    return _suite_report("markov", checks)


def run_selfsim_suite(seed: int = 0, n_draws: int = 2000) -> dict:
    """Mixed self-similarity kernel identity over randomized draws."""
    rng = np.random.default_rng(derive_seed(seed, 401))
    mix = _Mixtures(*_draw_specs(rng, n_draws)[:2])
    factor = rng.uniform(0.05, 8.0, (n_draws, 1))
    s, t = np.sort(rng.uniform(0.0, 10.0, (n_draws, 2)), axis=1).T[..., None]
    worst = mix.rescaling_dev(factor, s, t)
    return _suite_report("selfsim", [_at_most("rescaling_identity", worst, _IDENTITY_TOL)])


def _suite_report(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "checks": checks, "all_passed": all(c["passed"] for c in checks)}


def run_suites(
    names: Sequence[str],
    spec: Optional[ProcessSpec] = None,
    seed: int = 0,
    n_reps: int = 3000,
    n_threads: int = 1,
) -> dict:
    """Run the named suites: their checks, and whether every check passed."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown verify suite(s): {unknown}; choose from {SUITE_NAMES}")
    inputs = {"spec": spec, "seed": seed, "n_reps": n_reps, "n_threads": n_threads}
    suites = [globals()[f"run_{n}_suite"](**{k: inputs[k] for k in SUITES[n]}) for n in names]
    return {"suites": suites, "all_passed": all(s["all_passed"] for s in suites)}
