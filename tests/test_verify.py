"""verify's identity suites: draw order, report skeleton, and numerical failures."""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from msfbm import IncrementWindow, ProcessSpec, cli, verify
from msfbm.seeds import derive_seed

from conftest import package_env

# (suite, [(check, tolerance, target, passed)]) of `msfbm verify` at seeds 0, 5 and 123,
# as reported when every identity draw was evaluated one scalar call at a time.
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
        ("tail_loglog_slope", 0.1, -1.5, True),
        ("partial_sums_cauchy", 0.04743416490252569, 0.0, True),
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


def reference_kernel_draws(rng, n_draws):
    """The kernels suite's identity draws, made one ProcessSpec and window at a time."""
    out = []
    for _ in range(n_draws):
        spec = reference_spec(rng)
        w = reference_window(rng)
        s, t = sorted(rng.uniform(0.0, 10.0, 2))
        out.append((spec, (w.u, w.v, w.s, w.t, s, t, rng.uniform(0.1, 4.0))))
    return out


def reference_selfsim_draws(rng, n_draws):
    out = []
    for _ in range(n_draws):
        spec = reference_spec(rng)
        factor = rng.uniform(0.05, 8.0)
        s, t = np.sort(rng.uniform(0.0, 10.0, 2))
        out.append((spec, (factor, s, t)))
    return out


@pytest.mark.parametrize("row,reference,stream", [
    (verify._kernel_row, reference_kernel_draws, 101),
    (verify._selfsim_row, reference_selfsim_draws, 401),
])
@pytest.mark.parametrize("seed", [0, 5, 123])
def test_draw_phase_keeps_generator_state_and_values(row, reference, stream, seed):
    rng = np.random.default_rng(derive_seed(seed, stream))
    mix, cols = verify._draws(rng, 2000, row)
    ref_rng = np.random.default_rng(derive_seed(seed, stream))
    ref = reference(ref_rng, 2000)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for i, (spec, values) in enumerate(ref):
        assert mix.coeffs[i, :spec.n].tolist() == list(spec.coeffs)
        assert mix.hurst[i, :spec.n].tolist() == list(spec.hurst)
        assert np.all(mix.coeffs[i, spec.n:] == 0.0) and np.all(mix.hurst[i, spec.n:] == 0.5)
        assert [float(c[i, 0]) for c in cols] == [float(v) for v in values]


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
