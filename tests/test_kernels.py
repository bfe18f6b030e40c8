"""Closed-form kernel values, validation rules, and identity properties.

Expected decimals tagged "oracle" are frozen from
scripts/oracle_values.py (50-digit evaluation, rounded to 17 digits);
the library must reproduce them to 1e-12 relative.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import msfbm
from msfbm import IncrementWindow, ProcessSpec, bound_constants, kernel_scale, kernels
from msfbm.sampler import _fgn_autocov

from conftest import rand_spec, rand_window, scaled_close

approx12 = lambda x: pytest.approx(x, rel=1e-12, abs=1e-15)

SQRT2 = math.sqrt(2.0)


class TestProcessSpec:
    def test_valid_construction(self):
        spec = ProcessSpec([1.0, 0.0, -2.0], [0.3, 0.9, 0.5])
        assert spec.n == 3
        assert spec.active_set == (0, 2)
        assert spec.h_min == 0.3
        assert spec.h_max == 0.5

    def test_inactive_components_ignored_in_h_range(self):
        spec = ProcessSpec([0.0, 1.0], [0.05, 0.6])
        assert spec.h_min == spec.h_max == 0.6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ProcessSpec([1.0, 2.0], [0.5])

    def test_hurst_out_of_range(self):
        for h in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="open interval"):
                ProcessSpec([1.0], [h])

    def test_all_zero_coeffs_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec([0.0, 0.0], [0.4, 0.6])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec([], [])

    def test_immutable(self):
        spec = ProcessSpec([1.0], [0.5])
        with pytest.raises(AttributeError):
            spec.coeffs = (2.0,)

    def test_unit_divides_by_the_largest_weight(self):
        scale, unit = ProcessSpec([2.0, 0.0, -4.0], [0.3, 0.9, 0.5]).unit()
        assert scale == 4.0
        assert unit == ProcessSpec([0.5, 0.0, -1.0], [0.3, 0.9, 0.5])
        spec = ProcessSpec([1.0, -0.3], [0.2, 0.7])
        assert spec.unit() == (1.0, spec)


class TestIncrementWindow:
    def test_touching_middle_allowed(self):
        w = IncrementWindow(0.0, 1.0, 1.0, 2.0)
        assert w.v == w.s

    @pytest.mark.parametrize("quad", [(1, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (-1, 0, 1, 2)])
    def test_bad_ordering_rejected(self, quad):
        with pytest.raises(ValueError):
            IncrementWindow(*quad)


class TestBoundConstants:
    def test_brownian_degenerates_to_one(self):
        c = bound_constants(ProcessSpec([1.0], [0.5]))
        assert c.gamma == (1.0,)
        assert c.nu == (1.0,)

    def test_bit_equal_to_closed_form(self):
        hs = np.concatenate([np.linspace(0.001, 0.999, 999), [0.5, 0.5 - 1e-16, 0.5 + 1e-16]])
        got = bound_constants(ProcessSpec(np.ones(hs.size), hs))
        for h, gamma, nu in zip(hs, got.gamma, got.nu):
            c = 2.0 - math.exp((2.0 * h - 1.0) * math.log(2.0))
            want = (c, 1.0) if h > 0.5 else (1.0, c)
            assert (gamma, nu) == want

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_gamma_le_nu_in_unit_band(self, h):
        c = bound_constants(ProcessSpec([1.0], [h]))
        assert 0.0 < c.gamma[0] <= c.nu[0] < 2.0


class TestFbmCov:
    def test_brownian_is_min(self):
        assert msfbm.fbm_cov(0.5, 1.0, 2.0) == approx12(1.0)

    def test_diagonal(self):
        assert msfbm.fbm_cov(0.7, 3.0, 3.0) == approx12(3.0 ** 1.4)

    def test_negative_time_oracle(self):
        assert msfbm.fbm_cov(0.75, -1.0, 1.0) == approx12(-0.41421356237309505)

    def test_symmetry(self):
        assert msfbm.fbm_cov(0.3, 0.7, 4.2) == msfbm.fbm_cov(0.3, 4.2, 0.7)

    def test_hurst_validation(self):
        with pytest.raises(ValueError, match="open interval"):
            msfbm.fbm_cov(1.0, 1.0, 2.0)


class TestSfbmCov:
    def test_brownian_is_min(self):
        assert msfbm.sfbm_cov(0.5, 1.0, 2.0) == approx12(1.0)

    def test_diagonal_closed_form(self):
        assert msfbm.sfbm_cov(0.75, 1.0, 1.0) == approx12(2.0 - SQRT2)

    def test_off_diagonal_oracle(self):
        assert msfbm.sfbm_cov(0.75, 1.0, 2.0) == approx12(0.73035091339287416)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            msfbm.sfbm_cov(0.75, -1.0, 2.0)


class TestMsfbmCovVar:
    def test_single_brownian(self):
        assert msfbm.msfbm_cov(ProcessSpec([1.0], [0.5]), 1.0, 2.0) == approx12(1.0)

    def test_two_component_oracle(self):
        spec = ProcessSpec([1.0, 1.0], [0.5, 0.75])
        assert msfbm.msfbm_cov(spec, 1.0, 2.0) == approx12(1.7303509133928742)

    def test_zero_at_origin(self):
        spec = ProcessSpec([2.0, -1.0], [0.3, 0.8])
        assert msfbm.msfbm_cov(spec, 0.0, 3.0) == 0.0

    def test_var_brownian(self):
        assert msfbm.msfbm_var(ProcessSpec([1.0], [0.5]), 5.0) == approx12(5.0)

    def test_var_closed_form(self):
        assert msfbm.msfbm_var(ProcessSpec([1.0], [0.75]), 1.0) == approx12(2.0 - SQRT2)

    def test_var_ignores_zero_coeff(self):
        assert msfbm.msfbm_var(ProcessSpec([2.0, 0.0], [0.5, 0.3]), 1.0) == approx12(4.0)

    def test_var_rejects_negative(self):
        with pytest.raises(ValueError):
            msfbm.msfbm_var(ProcessSpec([1.0], [0.5]), -1.0)


class TestMfbmCov:
    def test_brownian(self):
        assert msfbm.mfbm_cov(ProcessSpec([1.0], [0.5]), 1.0, 2.0) == approx12(1.0)

    def test_diagonal(self):
        assert msfbm.mfbm_cov(ProcessSpec([1.0], [0.75]), 1.0, 1.0) == approx12(1.0)

    def test_two_component_oracle(self):
        spec = ProcessSpec([1.0, 1.0], [0.5, 0.75])
        assert msfbm.mfbm_cov(spec, 1.0, 2.0) == approx12(2.414213562373095)


class TestIncrementSecondMoment:
    def test_brownian_increment(self):
        assert msfbm.increment_second_moment(ProcessSpec([1.0], [0.5]), 1.0, 2.0) == approx12(1.0)

    def test_zero_increment(self):
        assert msfbm.increment_second_moment(ProcessSpec([1.5, 2.0], [0.3, 0.8]), 2.0, 2.0) == 0.0

    def test_oracle_value(self):
        got = msfbm.increment_second_moment(ProcessSpec([1.0], [0.75]), 1.0, 2.0)
        assert got == approx12(0.78193886033353683)

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            msfbm.increment_second_moment(ProcessSpec([1.0], [0.5]), 2.0, 1.0)


class TestIncrementBounds:
    def test_brownian_tight(self):
        assert msfbm.increment_bounds(ProcessSpec([1.0], [0.5]), 0.0, 1.0) == (approx12(1.0), approx12(1.0))

    def test_high_hurst(self):
        lo, hi = msfbm.increment_bounds(ProcessSpec([1.0], [0.75]), 0.0, 1.0)
        assert lo == approx12(2.0 - SQRT2)
        assert hi == approx12(1.0)

    def test_low_hurst_branch_flip(self):
        lo, hi = msfbm.increment_bounds(ProcessSpec([1.0], [0.25]), 0.0, 1.0)
        assert lo == approx12(1.0)
        assert hi == approx12(1.2928932188134525)


class TestIncrementCov:
    W = IncrementWindow(0.0, 1.0, 1.0, 2.0)

    def test_brownian_zero(self):
        v = msfbm.increment_cov(ProcessSpec([1.0], [0.5]), self.W)
        assert abs(v) <= 1e-12

    def test_positive_oracle(self):
        v = msfbm.increment_cov(ProcessSpec([1.0], [0.75]), self.W)
        assert v == approx12(0.14456447576596921)

    def test_negative_oracle(self):
        v = msfbm.increment_cov(ProcessSpec([1.0], [0.25]), self.W)
        assert v < 0.0
        assert v == approx12(-0.24470506022479607)


class TestLagCov:
    def test_brownian_zero(self):
        assert abs(msfbm.lag_cov_c(ProcessSpec([1.0], [0.5]), 3.0, 7)) <= 1e-12

    def test_oracle_c01(self):
        assert msfbm.lag_cov_c(ProcessSpec([1.0], [0.75]), 0.0, 1) == approx12(0.14456447576596921)

    def test_negative_for_low_hurst(self):
        assert msfbm.lag_cov_c(ProcessSpec([1.0], [0.25]), 0.0, 1) < 0.0

    def test_rejects_overlapping(self):
        with pytest.raises(ValueError, match="n = 0"):
            msfbm.lag_cov_c(ProcessSpec([1.0], [0.5]), 0.0, 0)

    @pytest.mark.parametrize("call", [
        lambda s, v: msfbm.lag_cov_c(s, 0.0, v),
        lambda s, v: msfbm.mfbm_lag_cov_r(s, v),
        lambda s, v: msfbm.stationarity_gap(s, 0.0, v),
        lambda s, v: msfbm.lag_cov_c_asymptotic(s, 0, v),
        lambda s, v: msfbm.lag_cov_series(s, 0, [1.0, v]),
    ], ids=["lag_cov_c", "mfbm_lag_cov_r", "stationarity_gap", "asymptotic", "series"])
    @pytest.mark.parametrize("lag", (2.5, math.inf, -math.inf, math.nan))
    def test_lag_not_a_whole_number_is_refused(self, call, lag):
        with pytest.raises(ValueError, match=r"lag n must be a finite whole number"):
            call(ProcessSpec([1.0], [0.7]), lag)

    @pytest.mark.parametrize("call", [
        lambda s, v: msfbm.lag_cov_c_asymptotic(s, v, 3),
        lambda s, v: msfbm.lag_cov_series(s, v, [3]),
    ], ids=["asymptotic", "series"])
    @pytest.mark.parametrize("offset", (0.5, math.inf, math.nan))
    def test_offset_not_a_whole_number_is_refused(self, call, offset):
        with pytest.raises(ValueError, match=r"offset p must be a finite whole number"):
            call(ProcessSpec([1.0], [0.7]), offset)

    def test_whole_number_floats_are_their_integers(self):
        spec = ProcessSpec([1.0, 0.5], [0.7, 0.3])
        assert msfbm.lag_cov_c(spec, 0.0, 3.0) == msfbm.lag_cov_c(spec, 0.0, 3)
        assert msfbm.lag_cov_c_asymptotic(spec, 2.0, 9.0) == msfbm.lag_cov_c_asymptotic(spec, 2, 9)
        assert np.array_equal(msfbm.lag_cov_series(spec, np.float64(1.0), [2.0, 5.0]),
                              msfbm.lag_cov_series(spec, 1, [2, 5]))

    def test_non_integer_x_uses_window_form(self):
        spec = ProcessSpec([1.0], [0.7])
        x = 2.5
        expected = msfbm.increment_cov(spec, IncrementWindow(x, x + 1, x + 3, x + 4))
        assert msfbm.lag_cov_c(spec, x, 3) == expected

    def test_asymptotic_brownian_vanishes(self):
        assert msfbm.lag_cov_c_asymptotic(ProcessSpec([1.0], [0.5]), 0, 100) == 0.0

    def test_asymptotic_oracle(self):
        got = msfbm.lag_cov_c_asymptotic(ProcessSpec([1.0], [0.75]), 0, 10)
        assert got == approx12(0.0059292706128157112)

    def test_asymptotic_linear_in_2p_plus_1(self):
        spec = ProcessSpec([1.0], [0.75])
        v0 = msfbm.lag_cov_c_asymptotic(spec, 0, 10)
        v1 = msfbm.lag_cov_c_asymptotic(spec, 1, 10)
        assert v1 == approx12(3.0 * v0)


class TestMfbmLagCov:
    def test_brownian_second_difference_vanishes(self):
        assert abs(msfbm.mfbm_lag_cov_r(ProcessSpec([1.0], [0.5]), 4)) <= 1e-15

    def test_closed_form_n1(self):
        assert msfbm.mfbm_lag_cov_r(ProcessSpec([1.0], [0.75]), 1) == approx12(SQRT2 - 1.0)

    def test_brownian_component_contributes_nothing(self):
        got = msfbm.mfbm_lag_cov_r(ProcessSpec([1.0, 1.0], [0.5, 0.75]), 1)
        assert got == approx12(SQRT2 - 1.0)

    def test_rejects_zero_lag(self):
        with pytest.raises(ValueError):
            msfbm.mfbm_lag_cov_r(ProcessSpec([1.0], [0.75]), 0)


# oracle: ((m+1)^2H - 2 m^2H + (m-1)^2H) / 2, the unit-step fGn autocovariance
# at lag m and the one-component R(0, m), keyed by (H, m).
_HALF_SECOND_DIFF = {
    (0.05, 1): -0.46411326873185342,
    (0.05, 10): -0.00056913438133822814,
    (0.05, 10 ** 3): -8.9786845400733427e-8,
    (0.05, 10 ** 5): -1.4230249471411113e-11,
    (0.05, 2 ** 17): -8.5102761716133699e-12,
    (0.3, 1): -0.24214171674480096,
    (0.3, 10): -0.0047907295657464309,
    (0.3, 10 ** 3): -7.5714902537800536e-6,
    (0.3, 10 ** 5): -1.2000000000336e-8,
    (0.3, 2 ** 17): -8.2161308885747671e-9,
    (0.75, 1): 0.41421356237309505,
    (0.75, 10): 0.11865974527090585,
    (0.75, 10 ** 3): 0.011858541966790465,
    (0.75, 10 ** 5): 0.0011858541225705538,
    (0.75, 2 ** 17): 0.0010358009490074999,
    (0.99, 1): 0.97246540898671835,
    (0.99, 10): 0.92654959017796792,
    (0.99, 10 ** 3): 0.84500887641190481,
    (0.99, 10 ** 5): 0.77065725332962893,
    (0.99, 2 ** 17): 0.76649808076992436,
}
_HURSTS = sorted({h for h, _ in _HALF_SECOND_DIFF})
_LAGS = sorted({m for _, m in _HALF_SECOND_DIFF})


class TestSecondDifferenceOracle:
    """The fGn autocovariance and R(0, n) share one second difference, held to
    50-digit values up to the dims size's 2^17 lags."""

    @pytest.mark.parametrize("h", _HURSTS)
    def test_fgn_autocov(self, h):
        gamma = _fgn_autocov(max(_LAGS), 1.0, 2.0 * h)
        for m in _LAGS:
            assert gamma[m] == pytest.approx(_HALF_SECOND_DIFF[h, m], rel=2e-10, abs=0.0)

    @pytest.mark.parametrize("h", _HURSTS)
    def test_mfbm_lag_cov_r(self, h):
        for m in _LAGS:
            got = msfbm.mfbm_lag_cov_r(ProcessSpec([1.0], [h]), m)
            assert got == pytest.approx(_HALF_SECOND_DIFF[h, m], rel=2e-10, abs=0.0)

    def test_brownian_lags_are_zero(self):
        gamma = _fgn_autocov(max(_LAGS), 1.0, 1.0)
        assert gamma[0] == 1.0
        for m in _LAGS:
            assert abs(gamma[m]) <= 1e-15
            assert abs(msfbm.mfbm_lag_cov_r(ProcessSpec([1.0], [0.5]), m)) <= 1e-15


class TestStationarityGap:
    def test_brownian_zero(self):
        assert abs(msfbm.stationarity_gap(ProcessSpec([1.0], [0.5]), 10.0, 2)) <= 1e-12

    def test_oracle_at_origin(self):
        got = msfbm.stationarity_gap(ProcessSpec([1.0], [0.75]), 0.0, 1)
        assert got == approx12(-0.26964908660712584)


class TestMarkovResidual:
    def test_brownian_vanishes(self):
        got = msfbm.markov_residual(ProcessSpec([1.0], [0.5]), 1.0, 2.0, 3.0)
        assert abs(got) <= 1e-12

    def test_nonzero_oracle(self):
        got = msfbm.markov_residual(ProcessSpec([1.0], [0.75]), 1.0, 2.0, 4.0)
        assert got == approx12(-0.16376045373054155)

    def test_inactive_component_ignored(self):
        got = msfbm.markov_residual(ProcessSpec([3.0, 0.0], [0.5, 0.9]), 1.0, 2.0, 3.0)
        assert abs(got) <= 1e-10

    @pytest.mark.parametrize("triple", [(0.0, 1.0, 2.0), (2.0, 1.0, 3.0), (1.0, 1.0, 2.0)])
    def test_rejects_bad_triples(self, triple):
        with pytest.raises(ValueError):
            msfbm.markov_residual(ProcessSpec([1.0], [0.6]), *triple)


class TestConditionalVariance:
    def test_brownian(self):
        assert msfbm.conditional_variance(ProcessSpec([1.0], [0.5]), 3.0, 1.0) == approx12(2.0)

    def test_perfect_conditioning(self):
        got = msfbm.conditional_variance(ProcessSpec([1.0, 2.0], [0.3, 0.8]), 1.5, 1.5)
        assert abs(got) <= 1e-12 * msfbm.msfbm_var(ProcessSpec([1.0, 2.0], [0.3, 0.8]), 1.5)

    def test_oracle_value(self):
        got = msfbm.conditional_variance(ProcessSpec([1.0], [0.75]), 2.0, 1.0)
        assert got == approx12(0.7462622275010091)

    def test_rejects_zero_conditioner(self):
        with pytest.raises(ValueError):
            msfbm.conditional_variance(ProcessSpec([1.0], [0.5]), 2.0, 0.0)


class TestRescaleCoeffs:
    def test_brownian_scaling(self):
        out = msfbm.rescale_coeffs(ProcessSpec([1.0], [0.5]), 4.0)
        assert out.coeffs[0] == approx12(2.0)

    def test_identity(self):
        spec = ProcessSpec([1.0, 2.0], [0.3, 0.8])
        out = msfbm.rescale_coeffs(spec, 1.0)
        assert out.coeffs == spec.coeffs

    def test_coefficients_oracle(self):
        out = msfbm.rescale_coeffs(ProcessSpec([1.0, 2.0], [0.3, 0.8]), 2.0)
        assert out.coeffs[0] == approx12(2.0 ** 0.3)
        assert out.coeffs[1] == approx12(2.0 * 2.0 ** 0.8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            msfbm.rescale_coeffs(ProcessSpec([1.0], [0.5]), 0.0)


class TestLagCovSeries:
    @pytest.mark.parametrize("h,p,n,expected,rtol", [
        (0.6, 0, 1000, 3.8183940007734583e-7, 1e-8),
        (0.6, 0, 100000, 9.5999136012095847e-11, 1e-4),
        (0.75, 0, 1000, 5.9248292120709022e-6, 1e-8),
        (0.9, 10, 1000, 0.000750168686815398, 1e-8),
        (0.9, 0, 100000, 1.439991360095039e-7, 1e-4),
    ])
    def test_oracle_spot_values(self, h, p, n, expected, rtol):
        got = float(msfbm.lag_cov_series(ProcessSpec([1.0], [h]), p, [n])[0])
        assert got == pytest.approx(expected, rel=rtol)

    def test_matches_window_form_at_small_lags(self, rng):
        for _ in range(50):
            spec = rand_spec(rng)
            p = int(rng.integers(0, 4))
            ns = [1, 2, 5, 20, 80]
            series = msfbm.lag_cov_series(spec, p, ns)
            scale = kernel_scale(spec, p + 81.0)
            for n, sv in zip(ns, series):
                wv = msfbm.lag_cov_c(spec, float(p), n)
                assert scaled_close(sv, wv, scale, rtol=1e-9)

    @staticmethod
    def _per_component(spec, p, ns):
        """lag_cov_series as one loop over the components, each its own pass."""
        ns = np.asarray(ns, dtype=float)
        out = np.zeros_like(ns)
        far = ns + (2 * p + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for a, h in spec.active():
                if h == 0.5:  # a Brownian component's second difference is exactly 0
                    continue
                two_h = 2.0 * h
                out += (a * a / 2.0) * (kernels._second_diff(ns, two_h)
                                        - kernels._second_diff(far, two_h))
        return out

    def test_bit_equal_to_the_per_component_loop(self):
        rng = np.random.default_rng(29)
        for _ in range(3000):
            k = int(rng.integers(1, 5))
            coeffs = rng.uniform(-10.0, 10.0, k)
            coeffs[rng.random(k) < 0.1] = 0.0
            if not coeffs.any():
                coeffs[0] = 1.0
            hurst = rng.uniform(0.01, 0.99, k)
            hurst[rng.random(k) < 0.2] = 0.5
            spec = ProcessSpec(coeffs, hurst)
            p = int(rng.integers(0, 11))
            size = int(rng.choice([1, rng.integers(2, 40), rng.integers(40, 400)]))
            ns = np.floor(10.0 ** rng.uniform(0.0, 6.0, size))
            ns[rng.random(size) < 0.05] = 1e6
            if size % 2 == 0 and rng.random() < 0.1:
                ns = ns.reshape(2, -1)
            got = msfbm.lag_cov_series(spec, p, ns)
            want = self._per_component(spec, p, ns)
            assert got.shape == ns.shape
            assert got.tobytes() == want.tobytes(), (spec, p, ns)
        # Lags past one block of the pass.
        spec = ProcessSpec([3.0, -0.5, 0.0, 7.0], [0.3, 0.5, 0.2, 0.95])
        ns = np.arange(1, 2 * kernels._LAG_BLOCK + 100)[::-1]
        assert msfbm.lag_cov_series(spec, 2, ns).tobytes() == \
            self._per_component(spec, 2, ns).tobytes()

    def test_brownian_components_are_exactly_zero(self):
        # Their second difference is exactly 0, so they are skipped, and a
        # weight whose square overflows a double never enters the sum.
        ns = np.arange(1, 11)
        live = ProcessSpec([1.0], [0.7])
        for p in (0, 3):
            for coeff in (1.0, 1e200):
                brownian = ProcessSpec([coeff], [0.5])
                assert msfbm.lag_cov_series(brownian, p, ns).tobytes() == np.zeros(10).tobytes()
                mixed = ProcessSpec([coeff, 1.0], [0.5, 0.7])
                assert msfbm.lag_cov_series(mixed, p, ns).tobytes() == \
                    msfbm.lag_cov_series(live, p, ns).tobytes()
        assert msfbm.mfbm_lag_cov_r(ProcessSpec([1e200], [0.5]), 4) == 0.0
        assert msfbm.mfbm_lag_cov_r(ProcessSpec([1e200, 1.0], [0.5, 0.7]), 4) == \
            msfbm.mfbm_lag_cov_r(live, 4)

    def test_overflowing_weight_is_an_arithmetic_error(self):
        # a^2 overflows to inf, and inf times the H = 0.4 component's series is inf.
        spec = ProcessSpec([-1e300, -1e300], [0.4, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="not finite doubles"):
                msfbm.lag_cov_series(spec, 0, np.arange(1, 11))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_symmetry_exact(rng):
    for _ in range(200):
        spec = rand_spec(rng)
        s, t = rng.uniform(0.0, 10.0, 2)
        assert msfbm.msfbm_cov(spec, s, t) == msfbm.msfbm_cov(spec, t, s)
        assert msfbm.mfbm_cov(spec, s, t) == msfbm.mfbm_cov(spec, t, s)


def test_bilinear_expansion_equivalence(rng):
    for _ in range(2000):
        spec = rand_spec(rng)
        w = rand_window(rng)
        lhs = msfbm.increment_cov(spec, w)
        rhs = (
            msfbm.msfbm_cov(spec, w.v, w.t)
            - msfbm.msfbm_cov(spec, w.v, w.s)
            - msfbm.msfbm_cov(spec, w.u, w.t)
            + msfbm.msfbm_cov(spec, w.u, w.s)
        )
        assert scaled_close(lhs, rhs, kernel_scale(spec, w.t))


def test_increment_moment_equivalence(rng):
    for _ in range(2000):
        spec = rand_spec(rng)
        s, t = np.sort(rng.uniform(0.0, 10.0, 2))
        lhs = msfbm.increment_second_moment(spec, s, t)
        rhs = msfbm.msfbm_var(spec, t) + msfbm.msfbm_var(spec, s) - 2 * msfbm.msfbm_cov(spec, s, t)
        assert scaled_close(lhs, rhs, kernel_scale(spec, t))


def test_diagonal_consistency(rng):
    for _ in range(500):
        spec = rand_spec(rng)
        t = rng.uniform(0.0, 10.0)
        assert scaled_close(
            msfbm.msfbm_cov(spec, t, t), msfbm.msfbm_var(spec, t), kernel_scale(spec, t)
        )


def test_bounds_envelope_edges(rng):
    # s = 0 and s = t sit exactly on the envelope; allow roundoff at scale.
    for _ in range(300):
        spec = rand_spec(rng)
        t = rng.uniform(0.01, 10.0)
        slack = 1e-12 * kernel_scale(spec, t)
        for s in (0.0, t):
            lo, hi = msfbm.increment_bounds(spec, s, t)
            mom = msfbm.increment_second_moment(spec, s, t)
            assert lo - slack <= mom <= hi + slack


def test_per_component_monotonicity_decomposition(rng):
    # increment_cov is monotone in b^2 with the sign of the component value.
    for _ in range(300):
        spec = rand_spec(rng, a_max=3.0)
        w = rand_window(rng)
        slot = int(rng.integers(0, spec.n))
        b, c = sorted(rng.uniform(0.0, 3.0, 2))
        component = msfbm.increment_cov_component(spec.hurst[slot], w)
        low = msfbm.increment_cov(spec.with_coeff(slot, b), w)
        high = msfbm.increment_cov(spec.with_coeff(slot, c), w)
        assert scaled_close(high - low, (c * c - b * b) * component, kernel_scale(spec, w.t))


@given(
    h=st.floats(min_value=0.05, max_value=0.95),
    s=st.floats(min_value=0.0, max_value=10.0),
    t=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=300, deadline=None)
def test_sfbm_cov_symmetric_and_diagonal_nonnegative(h, s, t):
    assert msfbm.sfbm_cov(h, s, t) == msfbm.sfbm_cov(h, t, s)
    assert msfbm.sfbm_cov(h, t, t) >= 0.0


@given(
    h=st.floats(min_value=0.05, max_value=0.95),
    factor=st.floats(min_value=0.05, max_value=8.0),
    s=st.floats(min_value=0.0, max_value=10.0),
    t=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=300, deadline=None)
def test_self_similarity_kernel_identity(h, factor, s, t):
    # at |t - s| near one ulp, scaling the times destroys the separation
    # before the kernel sees it; the identity is tested where the scaled
    # difference is representable
    assume(t == s or abs(t - s) >= 1e-9 * max(t, s, 1.0))
    spec = ProcessSpec([1.0, -0.5], [h, min(0.95, h / 2 + 0.3)])
    lhs = msfbm.msfbm_cov(spec, factor * s, factor * t)
    rhs = msfbm.msfbm_cov(msfbm.rescale_coeffs(spec, factor), s, t)
    assert scaled_close(lhs, rhs, kernel_scale(spec, factor * max(s, t)))


def test_lag_cov_asymptotic_agreement():
    # ratio to the leading large-n term approaches 1; gate 10/sqrt(n)
    for h in (0.6, 0.75, 0.9):
        spec = ProcessSpec([1.0], [h])
        for n in (10 ** 3, 10 ** 4):
            ratio = msfbm.lag_cov_c(spec, 0.0, n) / msfbm.lag_cov_c_asymptotic(spec, 0, n)
            assert abs(ratio - 1.0) <= 10.0 / math.sqrt(n), (h, n, ratio)


def test_lag_cov_asymptotic_agreement_with_offset():
    spec = ProcessSpec([1.0, 0.5], [0.8, 0.7])
    for p in (0, 2):
        for n in (10 ** 3, 10 ** 4):
            ratio = msfbm.lag_cov_c(spec, float(p), n) / msfbm.lag_cov_c_asymptotic(spec, p, n)
            assert abs(ratio - 1.0) <= 10.0 / math.sqrt(n), (p, n, ratio)


_MIX = ProcessSpec([1.0, 2.0], [0.3, 0.7])
# Each public kernel that takes a time, with that time set to x.
_TIME_KERNELS = {
    "fbm_cov": lambda x: msfbm.fbm_cov(0.7, 1.0, x),
    "fbm_cov_negative": lambda x: msfbm.fbm_cov(0.7, -x, 1.0),
    "sfbm_cov": lambda x: msfbm.sfbm_cov(0.7, x, 1.0),
    "msfbm_cov": lambda x: msfbm.msfbm_cov(_MIX, 1.0, x),
    "msfbm_var": lambda x: msfbm.msfbm_var(_MIX, x),
    "mfbm_cov": lambda x: msfbm.mfbm_cov(_MIX, x, 1.0),
    "increment_second_moment": lambda x: msfbm.increment_second_moment(_MIX, 1.0, x),
    "increment_bounds": lambda x: msfbm.increment_bounds(_MIX, 1.0, x),
    "increment_cov": lambda x: msfbm.increment_cov(_MIX, IncrementWindow(0.0, 1.0, 2.0, x)),
    "kernel_scale": lambda x: kernel_scale(_MIX, x),
    "kernel_scale_negative": lambda x: kernel_scale(_MIX, -x),
    "lag_cov_c": lambda x: msfbm.lag_cov_c(_MIX, x, 3),
    "stationarity_gap": lambda x: msfbm.stationarity_gap(_MIX, x, 3),
    "markov_residual": lambda x: msfbm.markov_residual(_MIX, 0.5, 1.0, x),
    "conditional_variance": lambda x: msfbm.conditional_variance(_MIX, x, 1.0),
}


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("kernel", sorted(_TIME_KERNELS))
def test_non_finite_time_is_refused(kernel, bad):
    with pytest.raises(ValueError):
        _TIME_KERNELS[kernel](bad)


# Each spec-level kernel that sums a^2 terms, at the spec given.
_SUM_KERNELS = {
    "msfbm_var": lambda spec: msfbm.msfbm_var(spec, 1.0),
    "mfbm_cov": lambda spec: msfbm.mfbm_cov(spec, 1.0, 2.0),
    "increment_second_moment": lambda spec: msfbm.increment_second_moment(spec, 1.0, 2.0),
    "increment_bounds": lambda spec: msfbm.increment_bounds(spec, 1.0, 2.0),
    "kernel_scale": lambda spec: kernel_scale(spec, 1.0),
}


@pytest.mark.parametrize("kernel", sorted(_SUM_KERNELS))
def test_non_finite_result_is_an_arithmetic_error(kernel):
    # The weight's square overflows a double, so the sum is inf.
    with pytest.raises(ArithmeticError, match=rf"^{kernel}\(.*\) = inf is not a finite double$"):
        _SUM_KERNELS[kernel](ProcessSpec([1e200], [0.5]))


class TestInertComponents:
    """Zero-weight components are never evaluated: a padded spec gives the live
    spec's bits, also where the inert component alone would overflow a double."""

    LIVE = ProcessSpec([1.0], [0.5])
    PADDED = ProcessSpec([1.0, 0.0], [0.5, 0.99])

    @staticmethod
    def evaluations(spec, x):
        half = 0.5 * x
        return [
            msfbm.msfbm_cov(spec, half, x),
            msfbm.msfbm_var(spec, x),
            msfbm.mfbm_cov(spec, half, x),
            msfbm.increment_second_moment(spec, half, x),
            *msfbm.increment_bounds(spec, half, x),
            msfbm.increment_cov(spec, IncrementWindow(0.25 * x, half, half, x)),
            kernel_scale(spec, x),
            *msfbm.lag_cov_series(spec, 0, [x]),
            msfbm.lag_cov_c_asymptotic(spec, 0, int(x)),
            msfbm.mfbm_lag_cov_r(spec, int(x)),
            msfbm.lag_cov_c(spec, 2.0, 7),
            msfbm.stationarity_gap(spec, 2.0, 7),
            msfbm.markov_residual(spec, 0.5, 1.0, 2.0),
            msfbm.conditional_variance(spec, 2.0, 1.0),
        ]

    @pytest.mark.parametrize("x", (3.0, 1e300))
    def test_padded_spec_evaluates_the_live_spec(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            padded = self.evaluations(self.PADDED, x)
            live = self.evaluations(self.LIVE, x)
        assert np.array(padded).tobytes() == np.array(live).tobytes()

    def test_per_component_maps_keep_every_component(self):
        assert len(bound_constants(self.PADDED).gamma) == 2
        assert msfbm.rescale_coeffs(self.PADDED, 2.0).coeffs == (approx12(2.0 ** 0.5), 0.0)


class TestSharedClosedForms:
    """Each closed form is one helper, fed ``_p2h`` on scalars or ``_p2h_array`` on arrays."""

    @staticmethod
    def mixture_terms(p, low, top, a, h, u, v, s, t, f, x, m):
        a2, two_h, big = a * a, 2.0 * h, 2.0 * x + m
        r = kernels._rescale_term(p, a, h, f)
        return [
            a2 * kernels._sfbm_term(p, two_h, s, t),
            kernels._var_term(p, a2, two_h, t),
            kernels._moment_term(p, a2, two_h, s, t),
            a2 * kernels._window_term(p, two_h, u, v, s, t),
            a2 * kernels._pair_term(p, two_h, big + 1.0, big + 2.0, m + 1.0, m,
                                    big + 1.0, big, m - 1.0, m),
            kernels._scale_term(p, a2, two_h, t, top),
            *kernels._envelope_terms(p, a2, two_h, t - s, low, top),
            r * r * kernels._sfbm_term(p, two_h, s, t),
        ]

    def draws(self, rng, n_draws=400):
        specs, rows = [], []
        for _ in range(n_draws):
            specs.append(rand_spec(rng))
            w = rand_window(rng)
            rows.append((w.u, w.v, w.s, w.t, rng.uniform(0.05, 8.0),
                         float(rng.integers(0, 6)), float(rng.integers(1, 101))))
        return specs, rows

    def test_array_form_matches_scalar_form(self, rng):
        specs, rows = self.draws(rng)
        a = np.zeros((len(specs), 4))
        h = np.full((len(specs), 4), 0.5)
        for i, spec in enumerate(specs):
            a[i, :spec.n], h[i, :spec.n] = spec.coeffs, spec.hurst
        cols = np.array(rows).T[..., None]
        arrays = self.mixture_terms(kernels._p2h_array, np.minimum, np.maximum, a, h, *cols)
        for i, (spec, (u, v, s, t, f, x, m)) in enumerate(zip(specs, rows)):
            per_component = [self.mixture_terms(kernels._p2h, min, max, ai, hi, u, v, s, t, f, x, m)
                             for ai, hi in zip(spec.coeffs, spec.hurst)]
            scalar = [sum(col) for col in zip(*per_component)]
            scale = kernel_scale(spec, max(f * t, 2.0 * x + m + 2.0))
            for k, arr in enumerate(arrays):
                # the padding adds exact zeros
                assert np.all(arr[i, spec.n:] == 0.0), k
                assert abs(arr[i].sum() - scalar[k]) <= 1e-14 * scale, (k, arr[i].sum(), scalar[k])

    def test_scalar_api_is_the_helper_on_libm(self, rng):
        specs, rows = self.draws(rng, 200)
        for spec, (u, v, s, t, f, x, m) in zip(specs, rows):
            terms = [sum(col) for col in zip(*(
                self.mixture_terms(kernels._p2h, min, max, a, h, u, v, s, t, f, x, m)
                for a, h in zip(spec.coeffs, spec.hurst)))]
            w = IncrementWindow(u, v, s, t)
            assert terms[0] == msfbm.msfbm_cov(spec, s, t)
            assert terms[1] == msfbm.msfbm_var(spec, t)
            assert max(terms[2], 0.0) == msfbm.increment_second_moment(spec, s, t)
            assert terms[3] == msfbm.increment_cov(spec, w)
            assert terms[5] == kernel_scale(spec, t)
            assert (terms[6], terms[7]) == msfbm.increment_bounds(spec, s, t)
            assert terms[8] == msfbm.msfbm_cov(msfbm.rescale_coeffs(spec, f), s, t)
            lag = msfbm.lag_cov_c(spec, x, int(m))
            assert abs(terms[4] - lag) <= 1e-12 * kernel_scale(spec, x + m + 1.0)
