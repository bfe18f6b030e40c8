"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its measured values (visible with -s or
in the failure report).  Expected decimals tagged "oracle" are frozen
50-digit evaluations from scripts/oracle_values.py.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import linregress

import msfbm
from msfbm import ProcessSpec, TimeGrid, kernel_scale
from msfbm.analysis import (
    graph_box_dimension,
    holder_exponent_estimate,
    level_set_box_dimension,
    nondiff_probe,
    qv_scaling_exponent,
    range_dimension,
)
from msfbm.classify import Ordering, dependence_compare, increment_sign_predict, SignVerdict
from msfbm.sampler import gram_matrix, sample_ensemble
from msfbm.seeds import derive_seed

from conftest import rand_spec, rand_window

SEED = 20240817


def _report(criterion, detail):
    print(f"criterion {criterion}: PASS ({detail})")


def test_criterion_01_kernel_identity_suite():
    rng = np.random.default_rng(derive_seed(SEED, 1))
    worst = {"bilinear": 0.0, "moment": 0.0, "diagonal": 0.0, "rescale": 0.0}
    for _ in range(10_000):
        spec = rand_spec(rng)
        w = rand_window(rng)
        scale = kernel_scale(spec, w.t)

        lhs = msfbm.increment_cov(spec, w)
        rhs = (
            msfbm.msfbm_cov(spec, w.v, w.t)
            - msfbm.msfbm_cov(spec, w.v, w.s)
            - msfbm.msfbm_cov(spec, w.u, w.t)
            + msfbm.msfbm_cov(spec, w.u, w.s)
        )
        worst["bilinear"] = max(worst["bilinear"],
                                abs(lhs - rhs) / max(abs(lhs), abs(rhs), scale))

        s, t = np.sort(rng.uniform(0.0, 10.0, 2))
        mom = msfbm.increment_second_moment(spec, s, t)
        expanded = (msfbm.msfbm_var(spec, t) + msfbm.msfbm_var(spec, s)
                    - 2.0 * msfbm.msfbm_cov(spec, s, t))
        worst["moment"] = max(worst["moment"],
                              abs(mom - expanded) / max(abs(mom), abs(expanded), scale))

        worst["diagonal"] = max(
            worst["diagonal"],
            abs(msfbm.msfbm_cov(spec, t, t) - msfbm.msfbm_var(spec, t))
            / max(msfbm.msfbm_var(spec, t), scale),
        )

        factor = rng.uniform(0.1, 4.0)
        l4 = msfbm.msfbm_cov(spec, factor * s, factor * t)
        r4 = msfbm.msfbm_cov(msfbm.rescale_coeffs(spec, factor), s, t)
        worst["rescale"] = max(
            worst["rescale"],
            abs(l4 - r4) / max(abs(l4), abs(r4), kernel_scale(spec, factor * t)),
        )

    for name, dev in worst.items():
        assert dev <= 1e-12, f"{name} identity deviates by {dev:.3e}"
    _report(1, "; ".join(f"{k} dev {v:.2e}" for k, v in worst.items()))


def test_criterion_02_increment_bounds_exact():
    rng = np.random.default_rng(derive_seed(SEED, 2))
    for _ in range(10_000):
        spec = rand_spec(rng)
        s, t = np.sort(rng.uniform(0.0, 10.0, 2))
        lo, hi = msfbm.increment_bounds(spec, s, t)
        mom = msfbm.increment_second_moment(spec, s, t)
        assert lo <= mom <= hi, (spec, s, t, lo, mom, hi)
    _report(2, "10^4 draws, exact inequality, no tolerance")


def test_criterion_03_sign_laws_and_monotonicity():
    rng = np.random.default_rng(derive_seed(SEED, 3))
    sign_pos = math.inf
    sign_neg = -math.inf
    sign_zero = 0.0
    for _ in range(1000):
        w = rand_window(rng)
        sp = rand_spec(rng, h_lo=0.51, h_hi=0.95)
        sign_pos = min(sign_pos, msfbm.increment_cov(sp, w))
        sn = rand_spec(rng, h_lo=0.05, h_hi=0.49)
        sign_neg = max(sign_neg, msfbm.increment_cov(sn, w))
        n = int(rng.integers(1, 4))
        sz = ProcessSpec(rng.uniform(0.1, 3.0, n), [0.5] * n)
        sign_zero = max(sign_zero, abs(msfbm.increment_cov(sz, w)))
    assert sign_pos > 0.0
    assert sign_neg < 0.0
    assert sign_zero <= 1e-12

    for _ in range(1000):
        spec = rand_spec(rng, a_max=3.0)
        w = rand_window(rng)
        slot = int(rng.integers(0, spec.n))
        b, c = sorted(rng.uniform(0.0, 3.0, 2))
        result = dependence_compare(spec, slot, b, c, w)
        h = spec.hurst[slot]
        expected = (Ordering.EQUAL if (b == c or h == 0.5)
                    else Ordering.GREATER if h > 0.5 else Ordering.LESS)
        assert result is expected
    _report(3, f"pos min {sign_pos:.2e}, neg max {sign_neg:.2e}, "
               f"zero max {sign_zero:.2e}, 10^3 orderings consistent")


def test_criterion_04_markov_residual():
    rng = np.random.default_rng(derive_seed(SEED, 4))
    markov_spec = ProcessSpec((1.0, 2.0), (0.5, 0.5))
    worst = 0.0
    for _ in range(1000):
        s, t, u = np.sort(rng.uniform(1e-3, 2.0, 3))
        if not (s < t < u):
            continue
        worst = max(worst, abs(msfbm.markov_residual(markov_spec, s, t, u)))
    assert worst <= 1e-12

    # oracle comparisons at 1e-7: the proof triples stress cancellation
    # (1e9-scale powers collapsing to 1e6), so full 1e-12 agreement is not
    # available in double precision there.
    t_hi = 1e3
    res_hi = msfbm.markov_residual(ProcessSpec((1.0,), (0.75,)),
                                   math.sqrt(t_hi), t_hi, t_hi * t_hi)
    assert abs(res_hi) > 1e-6
    assert res_hi == pytest.approx(-1898978.9132574247, rel=1e-7)  # oracle

    t_lo = 1e-3
    res_lo = msfbm.markov_residual(ProcessSpec((1.0,), (0.25,)),
                                   t_lo * t_lo, t_lo, math.sqrt(t_lo))
    assert abs(res_lo) > 1e-6
    assert res_lo == pytest.approx(9.2397372048839857e-6, rel=1e-7)  # oracle
    _report(4, f"markov residual max {worst:.2e}; proof triples "
               f"{res_hi:.4e} and {res_lo:.4e}")


def _local_lag_closed_form(spec, p, n):
    # Six-term closed form, grouped into the same stable pairs as the
    # window evaluation (differences of nearly equal powers first).
    from msfbm.kernels import _p2h

    total = 0.0
    big = 2.0 * p + n
    for a, h in zip(spec.coeffs, spec.hurst):
        two_h = 2.0 * h
        d1 = _p2h(big + 1.0, two_h) - _p2h(big + 2.0, two_h)
        d2 = _p2h(n + 1.0, two_h) - _p2h(float(n), two_h)
        d3 = _p2h(big + 1.0, two_h) - _p2h(big, two_h)
        d4 = _p2h(n - 1.0, two_h) - _p2h(float(n), two_h)
        total += a * a * (0.5 * ((d1 + d2) + (d3 + d4)))
    return total


def test_criterion_05_short_range_dependence():
    ns = np.unique(np.round(np.logspace(3, 5, 40)).astype(int))
    slopes = {}
    for h in (0.6, 0.75, 0.9):
        spec = ProcessSpec((1.0,), (h,))
        terms = msfbm.lag_cov_series(spec, 0, ns)
        fit = linregress(np.log(ns), np.log(np.abs(terms)))
        target = 2.0 * h - 3.0
        assert abs(fit.slope - target) <= 0.1, (h, fit.slope)
        slopes[h] = fit.slope

    worst = 0.0
    spec = ProcessSpec((1.0, 0.5), (0.9, 0.3))
    for p in range(0, 11):
        for n in range(1, 1001):
            window_value = msfbm.lag_cov_c(spec, float(p), n)
            closed_value = _local_lag_closed_form(spec, p, n)
            dev = abs(window_value - closed_value) / max(
                abs(window_value), abs(closed_value), 1e-300
            )
            worst = max(worst, dev)
    assert worst <= 1e-12
    _report(5, f"tail slopes {slopes}; closed-vs-window max rel dev {worst:.2e}")


def test_criterion_06_stationarity_gap():
    spec = ProcessSpec((1.0,), (0.75,))
    xs = np.unique(np.round(np.logspace(3, 5, 25))).astype(float)
    gaps = np.array([msfbm.stationarity_gap(spec, x, 1) for x in xs])
    fit = linregress(np.log(xs), np.log(np.abs(gaps)))
    assert abs(fit.slope - (-0.5)) <= 0.1
    assert np.all(np.diff(np.abs(gaps)) < 0.0)
    _report(6, f"gap slope {fit.slope:.4f}, |gap| monotone on [1e3, 1e5]")


ACCEPTANCE_SPECS = [
    ProcessSpec((1.0,), (0.5,)),
    ProcessSpec((1.0,), (0.75,)),
    ProcessSpec((1.0, 1.0), (0.4, 0.8)),
]


def test_criterion_07_sampler_correctness():
    grid = TimeGrid.uniform(16, 1.0)
    n_reps = 10_000
    worst_z = 0.0
    worst_pair = 0.0
    for idx, spec in enumerate(ACCEPTANCE_SPECS):
        g = gram_matrix(spec, grid)
        se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / n_reps)

        ens_e = sample_ensemble(spec, grid, n_reps, derive_seed(SEED, 70 + idx))
        ve = ens_e.values[:, 1:]
        emp_e = (ve.T @ ve) / n_reps
        z_e = float(np.max(np.abs(emp_e - g) / se))
        assert z_e <= 5.0, (spec, z_e)
        worst_z = max(worst_z, z_e)

        ens_f = sample_ensemble(spec, grid, n_reps, derive_seed(SEED, 80 + idx),
                                sampler="fbm")
        vf = ens_f.values[:, 1:]
        emp_f = (vf.T @ vf) / n_reps
        z_f = float(np.max(np.abs(emp_f - g) / se))
        assert z_f <= 5.0, (spec, z_f)
        worst_z = max(worst_z, z_f)

        pooled = np.sqrt(2.0) * se
        z_pair = float(np.max(np.abs(emp_e - emp_f) / pooled))
        assert z_pair <= 5.0, (spec, z_pair)
        worst_pair = max(worst_pair, z_pair)
    _report(7, f"max |z| vs theory {worst_z:.2f}, max pairwise |z| {worst_pair:.2f}")


def test_criterion_08_quadratic_variation_scaling():
    levels = range(8, 14)
    report_rough = qv_scaling_exponent(ProcessSpec((1.0,), (0.3,)), levels, 200,
                                       derive_seed(SEED, 81))
    assert abs(report_rough.fitted_log_slope - 0.4) <= 0.1

    report_smooth = qv_scaling_exponent(ProcessSpec((1.0,), (0.8,)), levels, 200,
                                        derive_seed(SEED, 82))
    assert abs(report_smooth.fitted_log_slope - (-0.6)) <= 0.1

    report_bm = qv_scaling_exponent(ProcessSpec((2.0,), (0.5,)), levels, 200,
                                    derive_seed(SEED, 83))
    n_last = report_bm.partition_sizes[-1]
    stderr = math.sqrt(2.0 * 2.0 ** 4 / (n_last * 200))
    assert abs(report_bm.statistics[-1] - 4.0) <= 4 * stderr
    _report(8, f"slopes {report_rough.fitted_log_slope:.3f} (target 0.4), "
               f"{report_smooth.fitted_log_slope:.3f} (target -0.6); "
               f"A(n,2) level {report_bm.statistics[-1]:.4f} (target 4)")


def test_criterion_09_fractal_dimensions():
    grid16 = TimeGrid.uniform(2 ** 16 + 1, 1.0)
    results = {}
    for label, spec, target in [
        ("H=0.5", ProcessSpec((1.0,), (0.5,)), 1.5),
        ("H=(0.3,0.8)", ProcessSpec((1.0, 1.0), (0.3, 0.8)), 1.7),
    ]:
        ens = sample_ensemble(spec, grid16, 1, derive_seed(SEED, 90), sampler="fgn")
        (graph,) = graph_box_dimension(ens)
        assert abs(graph.value - target) <= 0.15, (label, graph.value)
        (rng_est,) = range_dimension(ens)
        assert abs(rng_est.value - 1.0) <= 0.1, (label, rng_est.value)
        results[label] = (graph.value, rng_est.value)

    spec_bm = ProcessSpec((1.0,), (0.5,))
    ens = sample_ensemble(spec_bm, grid16, 20, derive_seed(SEED, 91), sampler="fgn")
    level_values = [est.value for est in level_set_box_dimension(ens, 0.0, 0.01)]
    assert len(level_values) >= 10
    median = float(np.median(level_values))
    assert abs(median - 0.5) <= 0.15
    _report(9, f"graph/range {results}; level-set median {median:.3f} "
               f"over {len(level_values)} crossing paths (target 0.5)")


def test_criterion_10_holder_regularity():
    grid = TimeGrid.uniform(2 ** 12 + 1, 1.0)
    measured = {}
    for idx, spec in enumerate(ACCEPTANCE_SPECS):
        ens = sample_ensemble(spec, grid, 100, derive_seed(SEED, 100 + idx),
                              sampler="fgn")
        h_hat, stderr = holder_exponent_estimate(ens)
        assert abs(h_hat - spec.h_min) <= 0.05, (spec, h_hat)
        measured[spec.h_min] = round(h_hat, 4)
    _report(10, f"h_hat by target: {measured}")


def test_criterion_11_classifier_truth_table():
    from test_classify import SEMIMARTINGALE_CASES, reference_semimartingale_predicate

    for coeffs, hurst, expected, reason, witness in SEMIMARTINGALE_CASES:
        verdict = msfbm.semimartingale_classify(ProcessSpec(coeffs, hurst))
        assert verdict.is_semimartingale is expected
        assert verdict.reason is reason
        assert verdict.witness == witness

    import itertools

    values = (0.3, 0.5, 0.6, 0.75, 0.8)
    n_checked = 0
    for h1, h2 in itertools.product(values, repeat=2):
        spec = ProcessSpec((1.0, 1.0), (h1, h2))
        verdict = msfbm.semimartingale_classify(spec)
        assert verdict.is_semimartingale == reference_semimartingale_predicate(spec)
        n_checked += 1
    _report(11, f"7 enumerated cases plus {n_checked} pair sweep, 100% agreement")


def test_criterion_12_verify_determinism_across_threads():
    outputs = []
    for threads in ("1", "4", "8"):
        env = dict(os.environ, MSFBM_THREADS=threads)
        cp = subprocess.run(
            [sys.executable, "-m", "msfbm", "verify", "--seed", "123"],
            capture_output=True, text=True, env=env,
        )
        assert cp.returncode == 0, cp.stderr
        outputs.append(cp.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    report = json.loads(outputs[0])
    assert report["all_passed"] is True
    _report(12, "full verify byte-identical under 1, 4, 8 threads")


# Supplementary theory probes exercised at acceptance scale: the
# difference-quotient divergence around an interior point.
def test_nondiff_probe_slopes():
    grid = TimeGrid.uniform(2 ** 12 + 1, 1.0)
    for h, target in [(0.5, -0.5), (0.8, -0.2)]:
        spec = ProcessSpec((1.0,), (h,))
        ens = sample_ensemble(spec, grid, 800, derive_seed(SEED, 110), sampler="fgn")
        rows = nondiff_probe(ens, 0.5)
        eps = np.array([r[0] for r in rows])
        quot = np.array([r[1] for r in rows])
        assert np.all(np.diff(quot) < 0.0)  # grows as eps shrinks
        fit = linregress(np.log(eps), np.log(quot))
        assert abs(fit.slope - target) <= 0.15, (h, fit.slope)
    print("nondiff probe: slopes within 0.15 of h-1")


def test_sign_verdict_matches_numeric_on_uniform_regimes():
    rng = np.random.default_rng(derive_seed(SEED, 120))
    for _ in range(1000):
        spec = rand_spec(rng)
        verdict = increment_sign_predict(spec)
        if verdict is SignVerdict.INDETERMINATE:
            continue
        w = rand_window(rng)
        value = msfbm.increment_cov(spec, w)
        tol = 1e-12 * kernel_scale(spec, w.t)
        if verdict is SignVerdict.ZERO:
            assert abs(value) <= tol
        elif verdict is SignVerdict.POSITIVE:
            assert value > -tol
        else:
            assert value < tol
