"""Rule-engine verdicts against the independently coded classification predicate."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msfbm
from msfbm import IncrementWindow, ProcessSpec, verify
from msfbm.classify import (
    Ordering,
    PreconditionViolated,
    PredictionContradicted,
    SemimartingaleReason,
    SignVerdict,
    dependence_compare,
    increment_sign_predict,
    markov_verdict,
    semimartingale_classify,
)

from conftest import rand_spec, rand_window


def reference_semimartingale_predicate(spec):
    """Set-theoretic restatement: some active H equals 1/2 and every other
    active H lies in {1/2} union (3/4, 1)."""
    active = [(i, spec.hurst[i]) for i in spec.active_set]
    for k0, hk in active:
        if hk != 0.5:
            continue
        if all(h == 0.5 or 0.75 < h < 1.0 for i, h in active if i != k0):
            return True
    return False


SEMIMARTINGALE_CASES = [
    ((1.0,), (0.5,), True, SemimartingaleReason.HALF_WITNESS_AND_REST, 1),
    ((1.0, 1.0), (0.5, 0.8), True, SemimartingaleReason.HALF_WITNESS_AND_REST, 1),
    ((1.0, 1.0), (0.5, 0.7), False, SemimartingaleReason.INTERMEDIATE_HURST, None),
    ((1.0, 1.0), (0.5, 0.75), False, SemimartingaleReason.INTERMEDIATE_HURST, None),
    ((1.0, 1.0), (0.3, 0.9), False, SemimartingaleReason.LOW_HURST_COMPONENT, None),
    ((1.0, 1.0), (0.8, 0.9), False, SemimartingaleReason.ALL_ABOVE_HALF, None),
    ((1.0, 0.0), (0.5, 0.3), True, SemimartingaleReason.HALF_WITNESS_AND_REST, 1),
]


class TestSemimartingaleClassify:
    @pytest.mark.parametrize("coeffs,hurst,expected,reason,witness", SEMIMARTINGALE_CASES)
    def test_enumerated_cases(self, coeffs, hurst, expected, reason, witness):
        verdict = semimartingale_classify(ProcessSpec(coeffs, hurst))
        assert verdict.is_semimartingale is expected
        assert verdict.reason is reason
        assert verdict.witness == witness

    def test_agrees_with_reference_predicate_on_pair_sweep(self):
        values = (0.3, 0.5, 0.6, 0.75, 0.8)
        for h1, h2 in itertools.product(values, repeat=2):
            spec = ProcessSpec((1.0, 1.0), (h1, h2))
            verdict = semimartingale_classify(spec)
            assert verdict.is_semimartingale == reference_semimartingale_predicate(spec)

    def test_lowest_witness_wins(self):
        verdict = semimartingale_classify(ProcessSpec((1.0, 2.0, 3.0), (0.8, 0.5, 0.5)))
        assert verdict.witness == 2

    def test_exactly_one_reason_clause(self, rng):
        for _ in range(500):
            spec = rand_spec(rng)
            verdict = semimartingale_classify(spec)
            clauses = {
                SemimartingaleReason.LOW_HURST_COMPONENT: any(
                    h < 0.5 for _, h in spec.active()
                ),
                SemimartingaleReason.HALF_WITNESS_AND_REST: reference_semimartingale_predicate(spec),
                SemimartingaleReason.ALL_ABOVE_HALF: all(h > 0.5 for _, h in spec.active()),
            }
            if clauses[SemimartingaleReason.LOW_HURST_COMPONENT]:
                assert verdict.reason is SemimartingaleReason.LOW_HURST_COMPONENT
            elif clauses[SemimartingaleReason.HALF_WITNESS_AND_REST]:
                assert verdict.reason is SemimartingaleReason.HALF_WITNESS_AND_REST
            elif clauses[SemimartingaleReason.ALL_ABOVE_HALF]:
                assert verdict.reason is SemimartingaleReason.ALL_ABOVE_HALF
            else:
                assert verdict.reason is SemimartingaleReason.INTERMEDIATE_HURST

    def test_scaling_invariance(self, rng):
        for _ in range(200):
            spec = rand_spec(rng)
            factor = float(rng.uniform(0.1, 5.0))
            before = semimartingale_classify(spec)
            after = semimartingale_classify(msfbm.rescale_coeffs(spec, factor))
            assert before == after

    def test_half_tolerance_knob(self):
        spec = ProcessSpec((1.0,), (0.5 + 1e-9,))
        assert not semimartingale_classify(spec).is_semimartingale
        assert semimartingale_classify(spec, half_tol=1e-6).is_semimartingale

    @pytest.mark.parametrize("half_tol", (float("nan"), -1.0, -1e-300, float("inf")))
    def test_bad_half_tol_is_refused(self, half_tol):
        spec = ProcessSpec((1.0,), (0.5,))
        w = IncrementWindow(0.0, 1.0, 2.0, 3.0)
        for call in (lambda: semimartingale_classify(spec, half_tol=half_tol),
                     lambda: markov_verdict(spec, half_tol=half_tol),
                     lambda: increment_sign_predict(spec, half_tol=half_tol),
                     lambda: dependence_compare(spec, 0, 1.0, 2.0, w, half_tol=half_tol)):
            with pytest.raises(ValueError, match="half_tol"):
                call()

    def test_serialization_reason_names(self):
        verdict = semimartingale_classify(ProcessSpec((1.0,), (0.5,)))
        payload = json.dumps(dataclasses.asdict(verdict))
        assert "HalfWitnessAndRest" in payload


class TestMarkovVerdict:
    def test_sum_of_brownians(self):
        assert markov_verdict(ProcessSpec((1.0, 2.0), (0.5, 0.5))) is True

    def test_non_markov(self):
        assert markov_verdict(ProcessSpec((1.0,), (0.6,))) is False

    def test_inactive_component(self):
        assert markov_verdict(ProcessSpec((1.0, 0.0), (0.5, 0.9))) is True

    def test_consistent_with_residual(self, rng):
        # verdict False implies a visibly nonzero residual at a proof triple
        for h in (0.25, 0.4, 0.6, 0.75, 0.9):
            spec = ProcessSpec((1.0,), (h,))
            assert markov_verdict(spec) is False
            if h > 0.5:
                t = 1e3
                s, u = np.sqrt(t), t * t
            else:
                t = 1e-3
                s, u = t * t, np.sqrt(t)
            assert abs(msfbm.markov_residual(spec, s, t, u)) > 1e-9


class TestSignPredict:
    def test_all_half(self):
        assert increment_sign_predict(ProcessSpec((1.0, 2.0), (0.5, 0.5))) is SignVerdict.ZERO

    def test_all_above(self):
        assert increment_sign_predict(ProcessSpec((1.0, 1.0), (0.6, 0.9))) is SignVerdict.POSITIVE

    def test_all_below(self):
        assert increment_sign_predict(ProcessSpec((1.0, 1.0), (0.3, 0.4))) is SignVerdict.NEGATIVE

    def test_mixed_indeterminate(self):
        assert increment_sign_predict(ProcessSpec((1.0, 1.0), (0.3, 0.8))) is SignVerdict.INDETERMINATE

    def test_agrees_with_numeric_sign(self, rng):
        for _ in range(300):
            spec = rand_spec(rng)
            verdict = increment_sign_predict(spec)
            if verdict is SignVerdict.INDETERMINATE:
                continue
            w = rand_window(rng)
            value = msfbm.increment_cov(spec, w)
            tol = 1e-12 * msfbm.kernel_scale(spec, w.t)
            if verdict is SignVerdict.ZERO:
                assert abs(value) <= tol
            elif verdict is SignVerdict.POSITIVE:
                assert value > -tol
            else:
                assert value < tol


class TestDependenceCompare:
    W = IncrementWindow(0.0, 1.0, 1.0, 2.0)

    def test_half_equal(self):
        spec = ProcessSpec((1.0, 1.0), (0.5, 0.8))
        assert dependence_compare(spec, 0, 1.0, 2.0, self.W) is Ordering.EQUAL

    def test_high_hurst_greater(self):
        spec = ProcessSpec((1.0, 1.0), (0.8, 0.5))
        assert dependence_compare(spec, 0, 1.0, 2.0, self.W) is Ordering.GREATER

    def test_low_hurst_less(self):
        spec = ProcessSpec((1.0,), (0.3,))
        assert dependence_compare(spec, 0, 0.5, 2.0, self.W) is Ordering.LESS

    def test_equal_magnitudes(self):
        spec = ProcessSpec((1.0,), (0.8,))
        assert dependence_compare(spec, 0, -2.0, 2.0, self.W) is Ordering.EQUAL

    def test_precondition(self):
        spec = ProcessSpec((1.0,), (0.8,))
        with pytest.raises(PreconditionViolated):
            dependence_compare(spec, 0, 3.0, 2.0, self.W)

    def test_contradiction_raises_named_error(self, monkeypatch):
        monkeypatch.setattr(msfbm.classify, "increment_cov_component", lambda h, w: -1.0)
        spec = ProcessSpec((1.0,), (0.8,))
        with pytest.raises(PredictionContradicted, match="clause predicts Greater"):
            dependence_compare(spec, 0, 1.0, 2.0, self.W)
        assert issubclass(PredictionContradicted, ArithmeticError)
        assert msfbm.PredictionContradicted is PredictionContradicted

    def test_kernels_suite_counts_only_contradictions(self, monkeypatch):
        def contradict(*args):
            raise PredictionContradicted("synthetic")

        monkeypatch.setattr(verify, "dependence_compare", contradict)
        report = verify.run_kernels_suite(n_draws=1)
        check = next(c for c in report["checks"] if c["name"] == "dependence_compare_consistent")
        assert check["measured"] == 300.0 and not check["passed"]

        def broken(*args):
            raise AssertionError("unrelated bug")

        monkeypatch.setattr(verify, "dependence_compare", broken)
        with pytest.raises(AssertionError, match="unrelated bug"):
            verify.run_kernels_suite(n_draws=1)

    def test_numeric_agreement_randomized(self, rng):
        for _ in range(300):
            spec = rand_spec(rng, a_max=3.0)
            w = rand_window(rng)
            slot = int(rng.integers(0, spec.n))
            b, c = sorted(rng.uniform(0.0, 3.0, 2))
            result = dependence_compare(spec, slot, b, c, w)
            h = spec.hurst[slot]
            if b == c or h == 0.5:
                assert result is Ordering.EQUAL
            elif h > 0.5:
                assert result is Ordering.GREATER
            else:
                assert result is Ordering.LESS


@given(
    hs=st.lists(st.sampled_from([0.3, 0.5, 0.6, 0.75, 0.8, 0.9]), min_size=1, max_size=4),
    mask=st.lists(st.booleans(), min_size=4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_verdict_matches_reference_with_inactive_components(hs, mask):
    coeffs = [1.0 if (i >= len(mask) or mask[i]) else 0.0 for i in range(len(hs))]
    if all(c == 0.0 for c in coeffs):
        coeffs[0] = 1.0
    spec = ProcessSpec(coeffs, hs)
    verdict = semimartingale_classify(spec)
    assert verdict.is_semimartingale == reference_semimartingale_predicate(spec)
    assert (verdict.witness is not None) == verdict.is_semimartingale
    if verdict.witness is not None:
        assert spec.coeffs[verdict.witness - 1] != 0.0
        assert spec.hurst[verdict.witness - 1] == 0.5


def test_verdicts_agree_with_variation_signature():
    """30 randomized specs: the measured quadratic-variation scaling slope
    must match the clause the classifier fires."""
    from msfbm.analysis import qv_scaling_exponent
    from msfbm.seeds import derive_seed

    rng = np.random.default_rng(424242)
    levels = range(6, 11)
    families = []
    for k in range(10):  # rough component present
        n = int(rng.integers(1, 4))
        hs = list(rng.uniform(0.55, 0.95, n)) + [float(rng.uniform(0.05, 0.38))]
        families.append((ProcessSpec([1.0] * len(hs), hs), "divergent"))
    for k in range(10):  # everything smoother than Brownian
        n = int(rng.integers(1, 4))
        families.append((ProcessSpec([1.0] * n, rng.uniform(0.6, 0.95, n)), "vanishing"))
    for k in range(10):  # Brownian witness plus admissible rest
        n = int(rng.integers(0, 3))
        hs = [0.5] + list(rng.uniform(0.76, 0.95, n))
        families.append((ProcessSpec([1.0] * len(hs), hs), "brownian"))

    for idx, (spec, family) in enumerate(families):
        report = qv_scaling_exponent(spec, levels, 100, derive_seed(31337, idx))
        slope = report.fitted_log_slope
        verdict = semimartingale_classify(spec)
        if family == "divergent":
            assert slope >= 0.1, (spec, slope)
            assert verdict.reason is SemimartingaleReason.LOW_HURST_COMPONENT
        elif family == "vanishing":
            assert slope <= -0.1, (spec, slope)
            assert verdict.reason is SemimartingaleReason.ALL_ABOVE_HALF
        else:
            assert abs(slope) < 0.1, (spec, slope)
            assert verdict.is_semimartingale
