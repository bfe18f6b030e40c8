"""Runnable verification suites: identity, sampler, dependence and law checks.

Each suite re-derives a family of theoretical facts at desk scale and
reports one pass/fail entry per invariant, with the measured value and
the gate it was held against.  Reports contain nothing run-dependent
(no timings, no thread counts), so a fixed master seed yields
byte-identical reports under any degree of parallelism.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

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


def _draw_spec(rng: np.random.Generator, h_lo: float = 0.05, h_hi: float = 0.95,
               a_max: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
    """Raw (coeffs, hurst) of a random spec with 1 to _PAD components."""
    n = int(rng.integers(1, _PAD + 1))
    coeffs = rng.uniform(-a_max, a_max, n)
    if not coeffs.any():
        coeffs[0] = 1.0
    return coeffs, rng.uniform(h_lo, h_hi, n)


def _draw_window(rng: np.random.Generator, tmax: float = 10.0) -> np.ndarray:
    """Raw sorted (u, v, s, t) of a random window; s = v with probability 0.2."""
    while True:
        pts = np.sort(rng.uniform(0.0, tmax, 4))
        if pts[0] < pts[1] and pts[2] < pts[3] and pts[1] <= pts[2]:
            if rng.random() < 0.2:
                pts[2] = pts[1]
            return pts


def _scaled_dev(lhs, rhs, scale) -> float:
    """Largest |lhs - rhs| / max(|lhs|, |rhs|, scale) over scalars or arrays."""
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)),
                                                        scale)))


class _Mixtures:
    """Random specs as (n_draws, _PAD) arrays padded with weight 0 and H = 1/2."""

    p = staticmethod(kernels._p2h_array)

    def __init__(self, specs: list):
        self.coeffs = np.zeros((len(specs), _PAD))
        self.hurst = np.full((len(specs), _PAD), 0.5)
        for i, (a, h) in enumerate(specs):
            self.coeffs[i, :len(a)], self.hurst[i, :len(h)] = a, h
        self.a2, self.two_h = self.coeffs * self.coeffs, 2.0 * self.hurst

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


def _kernel_row(rng: np.random.Generator) -> tuple:
    """Window (u, v, s, t), sorted (s, t) and rescaling factor of one kernels-suite draw."""
    return (*_draw_window(rng), *sorted(rng.uniform(0.0, 10.0, 2)), rng.uniform(0.1, 4.0))


def _selfsim_row(rng: np.random.Generator) -> tuple:
    return (rng.uniform(0.05, 8.0), *np.sort(rng.uniform(0.0, 10.0, 2)))


def _draws(rng: np.random.Generator, n_draws: int, row: Callable) -> tuple:
    """n_draws random specs, each followed by ``row(rng)``, in report order.  The rows
    come back as (n_draws, 1) columns that broadcast against the specs' arrays."""
    specs, rows = [], []
    for _ in range(n_draws):
        specs.append(_draw_spec(rng))
        rows.append(row(rng))
    return _Mixtures(specs), list(np.array(rows, dtype=float).T[..., None])


def run_kernels_suite(seed: int = 0, n_draws: int = 2000) -> dict:
    """Randomized closed-form identity checks (all gates at 1e-12 scaled)."""
    rng = np.random.default_rng(derive_seed(seed, 101))
    mix, (u, v, ws, wt, s, t, factor) = _draws(rng, n_draws, _kernel_row)
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

    # Scalar on purpose: these exercise the public entry points one call at a time.
    dev_lag = 0.0
    for _ in range(200):
        spec = ProcessSpec(*_draw_spec(rng))
        x = int(rng.integers(0, 6))
        n = int(rng.integers(1, 101))
        win = kernels.lag_cov_c(spec, float(x), n)
        series = float(kernels.lag_cov_series(spec, x, [n])[0])
        dev_lag = max(dev_lag, _scaled_dev(win, series, kernels.kernel_scale(spec, x + n + 1.0)))

    sign_pos, sign_neg, sign_zero = math.inf, -math.inf, 0.0
    for _ in range(300):
        w = IncrementWindow(*_draw_window(rng))
        sign_pos = min(sign_pos, kernels.increment_cov(ProcessSpec(*_draw_spec(rng, 0.51)), w))
        sign_neg = max(sign_neg, kernels.increment_cov(ProcessSpec(*_draw_spec(rng, h_hi=0.49)), w))
        nz = int(rng.integers(1, 4))
        sz = ProcessSpec(rng.uniform(0.1, 3.0, nz), [0.5] * nz)
        sign_zero = max(sign_zero, abs(kernels.increment_cov(sz, w)))

    compare_failures = 0
    for _ in range(300):
        spec = ProcessSpec(*_draw_spec(rng, a_max=3.0))
        w = IncrementWindow(*_draw_window(rng))
        slot = int(rng.integers(0, spec.n))
        b, c = sorted(rng.uniform(0.0, 3.0, 2))
        try:
            dependence_compare(spec, slot, b, c, w)
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


def _second_moments(ens: Ensemble) -> np.ndarray:
    """Empirical E[S(s) S(t)] over the replicas at the grid's positive times."""
    v = ens.values[:, 1:]
    return (v.T @ v) / ens.n_reps


def run_sampler_suite(
    spec: Optional[ProcessSpec] = None,
    seed: int = 0,
    n_reps: int = 3000,
    n_threads: int = 1,
) -> dict:
    """Distributional and determinism checks for both sampler constructions."""
    spec = spec or ProcessSpec((1.0, 1.0), (0.4, 0.8))
    grid = TimeGrid.uniform(9, 1.0)
    g = gram_matrix(spec, grid)
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
    emp_e, emp_f = _second_moments(ens_exact), _second_moments(ens_fbm)
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
    """Lag-covariance tail decay against its dominant power law.

    The component with the largest active H != 1/2 dominates the tail at
    rate n^(2H-3); an all-Brownian spec has identically zero lag
    covariances instead.
    """
    spec = spec or ProcessSpec((1.0,), (0.75,))
    non_half = [h for _, h in spec.active() if h != 0.5]
    ns = np.round(np.logspace(3, 5, 40)).astype(int)  # sorted; drop adjacent repeats
    ns = ns[np.concatenate(([True], ns[1:] != ns[:-1]))]
    terms = kernels.lag_cov_series(spec, 0, ns)
    checks = []
    if non_half:
        h_star = max(non_half)
        lead = sum(
            2.0 * (1.0 - h) * h * (2.0 * h - 1.0) * a * a
            for a, h in spec.active()
            if h == h_star
        )
        if not np.all(terms):
            raise ArithmeticError("the lag covariances underflow to 0, so their tail slope "
                                  "cannot be fitted")
        slope, _ = _loglog_fit(ns, np.abs(terms))
        target = 2.0 * h_star - 3.0
        checks.append(
            _check("tail_loglog_slope", slope, 0.1, target, abs(slope - target) <= 0.1)
        )
    else:
        h_star = 0.5
        lead = 0.0
        worst = float(np.max(np.abs(terms)))
        checks.append(_at_most("tail_vanishes", worst, 1e-12))
    partial = np.cumsum(kernels.lag_cov_series(spec, 0, np.arange(1, 10 ** 4 + 1)))
    last = partial[10 ** 3 - 1:]
    width = float(last.max() - last.min())
    bound = abs(lead) / max(2.0 - 2.0 * h_star, 0.05) * float(10 ** 3) ** (2 * h_star - 2.0)
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
    mix, (factor, s, t) = _draws(rng, n_draws, _selfsim_row)
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
