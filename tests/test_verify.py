"""verify's suites: the law and draw order of their random cases, report skeleton, and
numerical failures."""

import json
import math
import subprocess
import sys
import textwrap
from statistics import NormalDist

import numpy as np
import pytest

from msfbm import IncrementWindow, ProcessSpec, cli, kernels, verify
from msfbm.seeds import derive_seed

from conftest import package_env

# (suite, [(check, tolerance, target, passed)]) of `msfbm verify` at seeds 0, 5 and 123.
# The srd target is the fitted slope of H = 0.75's asymptotic term, 2H - 3 to rounding.
REPORT_SKELETON = [
    ("kernels", [
        ("bilinear_expansion_identity", 1e-12, 0.0, True),
        ("increment_moment_identity", 1e-12, 0.0, True),
        ("diagonal_consistency", 1e-12, 0.0, True),
        ("rescaling_identity", 1e-12, 0.0, True),
        ("increment_bounds_hold", 0.0, 0.0, True),
        ("lag_closed_vs_window", 1e-09, 0.0, True),
        ("sign_all_above_half_positive", 0.0, "positive", True),
        ("sign_all_below_half_negative", 0.0, "negative", True),
        ("sign_all_half_zero", 1e-12, 0.0, True),
        ("dependence_compare_consistent", 0.0, 0.0, True),
    ]),
    ("sampler", [
        ("gram_psd", -1.613732870193478e-10, 0.0, True),
        ("factor_fidelity", 1.613732870193478e-10, 0.0, True),
        ("exact_sampler_cov_zmax", 5.0, 0.0, True),
        ("fbm_sampler_cov_zmax", 5.0, 0.0, True),
        ("sampler_equivalence_zmax", 5.0, 0.0, True),
        ("replica_determinism", 1.0, 1.0, True),
        ("paths_start_at_zero", 1.0, 1.0, True),
    ]),
    ("srd", [
        ("tail_loglog_slope", 0.1, -1.4999999999999998, True),
        ("tail_matches_asymptotic", 0.01, 0.0, True),
        ("partial_sums_cauchy", 0.0474341649025257, 0.0, True),
    ]),
    ("markov", [
        ("residual_nonzero_at_proof_triple", 0.004629983111832693, "nonzero", True),
        ("verdict_matches_active_set", 1.0, False, True),
    ]),
    ("selfsim", [
        ("rescaling_identity", 1e-12, 0.0, True),
    ]),
]

IDENTITY_CHECKS = {
    ("kernels", "bilinear_expansion_identity"),
    ("kernels", "increment_moment_identity"),
    ("kernels", "diagonal_consistency"),
    ("kernels", "rescaling_identity"),
    ("selfsim", "rescaling_identity"),
}


# The law of verify's random cases, drawn one ProcessSpec and window at a time: the
# oracle that its array drawers verify._draw_specs and verify._draw_windows must match.
def reference_spec(rng):
    n = int(rng.integers(1, 5))
    coeffs = rng.uniform(-10.0, 10.0, n)
    if np.all(coeffs == 0.0):
        coeffs[0] = 1.0
    return ProcessSpec(coeffs, rng.uniform(0.05, 0.95, n))


def reference_window(rng):
    while True:
        pts = np.sort(rng.uniform(0.0, 10.0, 4))
        if pts[0] < pts[1] and pts[2] < pts[3] and pts[1] <= pts[2]:
            if rng.random() < 0.2:
                pts[2] = pts[1]
            return IncrementWindow(*pts)


# Each statistic of a drawer with the reference law leaves its gate with probability
# _TAIL (two-sided, normal approximation of a two-sample z statistic at 10^4 draws).
_TAIL = 1e-6
_Z = NormalDist().inv_cdf(1.0 - _TAIL / 2.0)  # 4.89
_N_LAW = 10 ** 4
# (h_lo, h_hi, a_max) of every spec law the kernels and selfsim suites draw from.
_SPEC_LAWS = [(0.05, 0.95, 10.0), (0.51, 0.95, 10.0), (0.05, 0.49, 10.0), (0.05, 0.95, 3.0)]


def _statistics(coeffs, hurst, counts, windows):
    """Samples, by name, whose means a draw law fixes."""
    live = np.arange(verify._PAD) < counts[:, None]
    a, h = coeffs[live], hurst[live]
    u, v, s, t = windows.T
    return {**{f"share of count {k}": counts == k for k in range(1, verify._PAD + 1)},
            "a": a, "a^2": a * a, "H": h, "H^2": h * h,
            "u": u, "v - u": v - u, "s - v": s - v, "t - s": t - s, "share of s = v": s == v}


def _reference_draws(rng, n):
    specs = [reference_spec(rng) for _ in range(n)]
    coeffs, hurst = np.zeros((n, verify._PAD)), np.full((n, verify._PAD), 0.5)
    for i, spec in enumerate(specs):
        coeffs[i, :spec.n], hurst[i, :spec.n] = spec.coeffs, spec.hurst
    counts = np.array([spec.n for spec in specs])
    windows = np.array([[w.u, w.v, w.s, w.t] for w in (reference_window(rng) for _ in range(n))])
    return coeffs, hurst, counts, windows


def assert_drawers_keep_the_law(draw_specs, draw_windows, seed):
    """Invariants of every spec law, then agreement with the reference drawers."""
    for h_lo, h_hi, a_max in _SPEC_LAWS:
        coeffs, hurst, counts = draw_specs(np.random.default_rng(seed), 2000, h_lo, h_hi, a_max)
        live = np.arange(verify._PAD) < counts[:, None]
        assert counts.min() >= 1 and counts.max() <= verify._PAD, "counts"
        assert np.all(coeffs[~live] == 0.0) and np.all(hurst[~live] == 0.5), "padding"
        assert np.all(np.abs(coeffs[live]) <= a_max), "coefficient range"
        assert np.all((h_lo <= hurst[live]) & (hurst[live] < h_hi)), "H range"
        assert np.all(coeffs.any(axis=1)), "all-zero row"
    windows = draw_windows(np.random.default_rng(seed), 2000)
    for row in windows:
        IncrementWindow(*row)
    assert np.all(np.diff(windows, axis=1) >= 0.0), "sorted windows"

    rng = np.random.default_rng(seed)
    bulk = _statistics(*draw_specs(rng, _N_LAW), draw_windows(rng, _N_LAW))
    ref = _statistics(*_reference_draws(np.random.default_rng(seed + 1), _N_LAW))
    off = []
    for name, x in bulk.items():
        x, y = np.asarray(x, dtype=float), np.asarray(ref[name], dtype=float)
        se = math.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
        if not abs(x.mean() - y.mean()) <= _Z * se:
            off.append(f"{name}: {x.mean()} against {y.mean()}")
    assert off == [], "; ".join(off)


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_array_draws_keep_the_reference_law(seed):
    assert_drawers_keep_the_law(verify._draw_specs, verify._draw_windows, seed)


def test_an_all_zero_row_gets_weight_one():
    coeffs, _, _ = verify._draw_specs(np.random.default_rng(0), 100, a_max=0.0)
    assert np.all(coeffs[:, 0] == 1.0) and np.all(coeffs[:, 1:] == 0.0)


def _unmasked_specs(rng, n, h_lo=0.05, h_hi=0.95, a_max=10.0):
    counts = rng.integers(1, verify._PAD + 1, n)
    return (rng.uniform(-a_max, a_max, (n, verify._PAD)),
            rng.uniform(h_lo, h_hi, (n, verify._PAD)), counts)


def _half_tied_windows(rng, n, tmax=10.0):
    pts = np.sort(rng.uniform(0.0, tmax, (n, 4)), axis=1)
    at_v = rng.random(n) < 0.5
    pts[at_v, 2] = pts[at_v, 1]
    return pts


@pytest.mark.parametrize("draw_specs,draw_windows,fault", [
    (_unmasked_specs, verify._draw_windows, "padding"),
    (verify._draw_specs, _half_tied_windows, "share of s = v"),
])
def test_law_check_fails_a_broken_drawer(draw_specs, draw_windows, fault):
    with pytest.raises(AssertionError, match=fault):
        assert_drawers_keep_the_law(draw_specs, draw_windows, 0)


class _DrawSpy:
    """Records, while a suite runs, the Generator it draws specs from, its first window
    batch, and the spec arrays and (factor, s, t) of its first rescaling, with the
    Generator's state at that rescaling: the end of the kernels and selfsim suites'
    identity draws."""

    def __init__(self, monkeypatch):
        self.rng = self.windows = self.rescaling = None
        draw_specs, draw_windows = verify._draw_specs, verify._draw_windows
        mixtures = verify._Mixtures
        spy = self

        def specs(rng, *args, **kwargs):
            spy.rng = spy.rng or rng
            return draw_specs(rng, *args, **kwargs)

        def windows(rng, *args, **kwargs):
            out = draw_windows(rng, *args, **kwargs)
            spy.windows = out.copy() if spy.windows is None else spy.windows
            return out

        class Mixtures(mixtures):
            def rescaling_dev(self, factor, s, t):
                if spy.rescaling is None:
                    spy.rescaling = tuple(np.ravel(x).copy() for x in (factor, s, t))
                    spy.coeffs, spy.hurst = self.coeffs.copy(), self.hurst.copy()
                    spy.state = spy.rng.bit_generator.state
                return super().rescaling_dev(factor, s, t)

        monkeypatch.setattr(verify, "_draw_specs", specs)
        monkeypatch.setattr(verify, "_draw_windows", windows)
        monkeypatch.setattr(verify, "_Mixtures", Mixtures)


def _kernel_row(spy, seed):
    """The kernels suite's case columns past its specs: window, (s, t), rescaling factor."""
    verify.run_kernels_suite(seed=seed)
    factor, s, t = spy.rescaling
    return (*spy.windows.T, s, t, factor)


def _selfsim_row(spy, seed):
    verify.run_selfsim_suite(seed=seed)
    return spy.rescaling


# The suites' identity draws replayed as raw Generator calls in the order the array
# drawers make them, with the padding, the all-zero fix, the tie redraws and s = v set
# row by row.
def _replayed_specs(rng, n):
    counts = rng.integers(1, 5, n)
    a, h = rng.uniform(-10.0, 10.0, (n, 4)), rng.uniform(0.05, 0.95, (n, 4))
    coeffs, hurst = np.zeros((n, 4)), np.full((n, 4), 0.5)
    for i, k in enumerate(counts):
        coeffs[i, :k], hurst[i, :k] = a[i, :k], h[i, :k]
        if not coeffs[i].any():
            coeffs[i, 0] = 1.0
    return coeffs, hurst


def _replayed_windows(rng, n):
    pts = np.sort(rng.uniform(0.0, 10.0, (n, 4)), axis=1)
    while tied := [i for i, p in enumerate(pts) if not (p[0] < p[1] and p[2] < p[3])]:
        pts[tied] = np.sort(rng.uniform(0.0, 10.0, (len(tied), 4)), axis=1)
    for i, at_v in enumerate(rng.random(n) < 0.2):
        if at_v:
            pts[i, 2] = pts[i, 1]
    return pts


def reference_kernel_draws(rng, n_draws):
    coeffs, hurst = _replayed_specs(rng, n_draws)
    u, v, ws, wt = _replayed_windows(rng, n_draws).T
    s, t = np.sort(rng.uniform(0.0, 10.0, (n_draws, 2)), axis=1).T
    return coeffs, hurst, (u, v, ws, wt, s, t, rng.uniform(0.1, 4.0, n_draws))


def reference_selfsim_draws(rng, n_draws):
    coeffs, hurst = _replayed_specs(rng, n_draws)
    factor = rng.uniform(0.05, 8.0, n_draws)
    s, t = np.sort(rng.uniform(0.0, 10.0, (n_draws, 2)), axis=1).T
    return coeffs, hurst, (factor, s, t)


@pytest.mark.parametrize("row,reference,stream", [
    (_kernel_row, reference_kernel_draws, 101),
    (_selfsim_row, reference_selfsim_draws, 401),
])
@pytest.mark.parametrize("seed", [0, 5, 123])
def test_draw_phase_keeps_generator_state_and_values(row, reference, stream, seed, monkeypatch):
    spy = _DrawSpy(monkeypatch)
    cols = row(spy, seed)
    ref_rng = np.random.default_rng(derive_seed(seed, stream))
    coeffs, hurst, ref_cols = reference(ref_rng, 2000)
    assert spy.state == ref_rng.bit_generator.state
    assert np.array_equal(spy.coeffs, coeffs) and np.array_equal(spy.hurst, hurst)
    assert len(cols) == len(ref_cols)
    for col, ref_col in zip(cols, ref_cols):
        assert np.array_equal(col, ref_col)


def test_identity_suites_pass_at_seeds_0_to_39():
    failed = [s for s in range(40)
              if not verify.run_suites(("kernels", "selfsim"), seed=s)["all_passed"]]
    assert failed == []


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_report_skeleton_is_unchanged(seed, tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--seed", str(seed), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    skeleton = [(s["suite"], [(c["name"], c["tolerance"], c["target"], c["passed"])
                              for c in s["checks"]]) for s in report["suites"]]
    assert skeleton == REPORT_SKELETON
    for suite in report["suites"]:
        for c in suite["checks"]:
            if (suite["suite"], c["name"]) in IDENTITY_CHECKS:
                assert c["measured"] < 1e-14, (suite["suite"], c)


def test_lag_window_form_disagreement_fails_its_check():
    # A wrong window form is caught by the check against lag_cov_series.
    code = textwrap.dedent("""
        import sys
        from msfbm import cli, kernels
        honest = kernels.increment_cov
        kernels.increment_cov = lambda spec, w: honest(spec, w) + 1.0
        sys.exit(cli.main(["verify", "--suite", "kernels"]))
    """)
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                        env=package_env())
    assert cp.returncode == cli.EXIT_VERIFY_FAILED, cp.stderr
    assert cp.stderr == ""
    (suite,) = json.loads(cp.stdout)["suites"]
    passed = {c["name"]: c["passed"] for c in suite["checks"]}
    assert passed["lag_closed_vs_window"] is False


# Specs where a component other than the largest H != 1/2 still shapes the tail at
# lags 1e3..1e5, so 2H* - 3 is not the slope there; the last one's lesser H has the
# larger weight.
@pytest.mark.parametrize("argv", [
    ["--hurst", "0.7,0.55", "--coeffs", "0.1,1"],
    ["--hurst", "0.3,0.49", "--coeffs", "1,0.1"],
    ["--hurst", "0.01,0.18724409285650429", "--coeffs", "2.0,0.18724409285650429"],
], ids=" ".join)
def test_srd_suite_passes_where_a_lesser_term_shapes_the_tail(argv, tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--suite", "srd", *argv, "--out", str(out)]) == cli.EXIT_OK


# lag_cov_series's relative rounding, eps n^2 / |(2H-1)(2H-2)|, reaches 5e-2 to 1.3e-1
# at lag 1e5 for the first three; the last adds an H = 1/2 component, whose terms are
# rounding alone, with 30 times the weight.
@pytest.mark.parametrize("argv", [
    ["--hurst", "0.50001"],
    ["--hurst", "0.49999"],
    ["--hurst", "0.99999"],
    ["--hurst", "0.5,0.55", "--coeffs", "30,1"],
], ids=" ".join)
def test_srd_tail_check_allows_for_the_series_rounding(argv, tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--suite", "srd", *argv, "--out", str(out)]) == cli.EXIT_OK
    (suite,) = json.loads(out.read_text())["suites"]
    gap = {c["name"]: c["measured"] for c in suite["checks"]}["tail_matches_asymptotic"]
    assert gap < 2e-3


def test_srd_tail_off_its_asymptotic_sum_fails_its_check(monkeypatch):
    honest = kernels.lag_cov_series
    monkeypatch.setattr(kernels, "lag_cov_series", lambda *args: 1.02 * honest(*args))
    passed = {c["name"]: c["passed"] for c in verify.run_srd_suite()["checks"]}
    assert passed["tail_matches_asymptotic"] is False and passed["tail_loglog_slope"]


def test_underflowing_lag_covariances_are_a_numerical_failure():
    # a^2 = 1.25e-606 underflows, so every lag covariance is 0 and has no log.
    with pytest.raises(ArithmeticError, match="underflow"):
        verify.run_srd_suite(ProcessSpec([1.1182970176725395e-303], [0.25]))


# Markov and non-Markov specs whose weights span many scales.  The last one
# fails the proof triple at every scale (FOUND in CHANGES.md).
_MARKOV_SUITE_SPECS = [
    ProcessSpec([1000.0, 1.0], [0.5, 0.5]),
    ProcessSpec([-4.384202115766353e-135], [0.05]),
    ProcessSpec([1.0, -2.0, 0.0], [0.5, 0.5, 0.7]),
    ProcessSpec([0.3, -2.0], [0.2, 0.9]),
    ProcessSpec([1.0], [0.6]),
    ProcessSpec([1.0, 0.001], [0.5, 0.51]),
]


@pytest.mark.parametrize("spec", _MARKOV_SUITE_SPECS, ids=str)
def test_markov_verdicts_do_not_depend_on_the_weights_scale(spec):
    # The residual is homogeneous of degree 4 in the weights, and the suite
    # evaluates it on the unit spec, so scaling every weight moves no verdict.
    want = [c["passed"] for c in verify.run_markov_suite(spec)["checks"]]
    for c in (1e-150, 1e-3, 1e3, 1e150):
        scaled = ProcessSpec([a * c for a in spec.coeffs], spec.hurst)
        assert [chk["passed"] for chk in verify.run_markov_suite(scaled)["checks"]] == want


@pytest.mark.parametrize("spec", _MARKOV_SUITE_SPECS[:2], ids=str)
def test_markov_suite_passes_far_from_unit_weights(spec):
    # A residual of 1.46e-3 at weights (1000, 1) and an underflowing one at
    # weight -4.38e-135 failed the absolute 1e-12 gate before the unit spec.
    assert verify.run_markov_suite(spec)["all_passed"]
