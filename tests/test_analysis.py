"""Estimator behaviour on fixtures and small Monte Carlo runs.

Heavy theory-targeted runs (dimension targets, variation slopes at full
scale) live in test_acceptance.py; here the estimators are exercised on
hand-checkable fixtures, edge cases, and reduced-scale simulations.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import linregress

import msfbm
from msfbm import ProcessSpec, TimeGrid
from msfbm.analysis import (
    _loglog_fit,
    BoxCountMethod,
    DimensionEstimate,
    GridMismatch,
    InsufficientReplicas,
    InsufficientResolution,
    LevelNotCrossed,
    VariationReport,
    empirical_cov,
    graph_box_dimension,
    holder_exponent_estimate,
    level_set_box_dimension,
    nondiff_probe,
    p_variation_stat,
    qv_scaling_exponent,
    range_dimension,
    srd_series,
)
from msfbm.sampler import Ensemble, sample_ensemble

from conftest import package_env


def fixture(grid, *rows):
    """An Ensemble whose replicas are the given value rows on ``grid``."""
    return Ensemble(spec=ProcessSpec([1.0], [0.5]), grid=grid, values=np.vstack(rows),
                    master_seed=0)


def constant_zero_path(n_points=2 ** 14 + 1):
    return fixture(TimeGrid.uniform(n_points, 1.0), np.zeros(n_points))


def line_path(n_points=2 ** 14 + 1, slope=1.0):
    grid = TimeGrid.uniform(n_points, 1.0)
    return fixture(grid, slope * grid.times)


def linregress_fit(x, y):
    """Oracle: scipy's slope and stderr of log y on log x, nan stderr as 0."""
    fit = linregress(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)))
    return float(fit.slope), 0.0 if math.isnan(fit.stderr) else float(fit.stderr)


class TestLogLogFit:
    def test_cli_import_leaves_scipy_unloaded(self):
        cp = subprocess.run(
            [sys.executable, "-c",
             "import msfbm.cli, sys; sys.exit('scipy' in sys.modules)"],
            capture_output=True, text=True, env=package_env(),
        )
        assert cp.returncode == 0, cp.stderr or "scipy imported by msfbm.cli"

    def test_matches_linregress_random(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 40))
            x = np.sort(rng.uniform(0.5, 1e4, n))
            y = rng.uniform(1e-3, 1e3, n) * x ** rng.uniform(-3.0, 3.0)
            assert _loglog_fit(x, y) == linregress_fit(x, y)

    def test_matches_linregress_edge_cases(self):
        scales = np.array([2.0 ** k for k in range(1, 9)])
        cases = [
            (scales[:2], np.array([3.0, 7.0])),
            (scales[:2], np.array([5.0, 5.0])),
            (scales, np.ones_like(scales)),
            (scales, 3.0 * scales ** 1.5),
        ]
        for x, y in cases:
            assert _loglog_fit(x, y) == linregress_fit(x, y)
        assert _loglog_fit(*cases[1]) == (0.0, 0.0)
        assert _loglog_fit(*cases[2]) == (0.0, 0.0)

    def test_flat_path_range_counts_match_linregress(self):
        (est,) = range_dimension(constant_zero_path(2 ** 10 + 1))
        lo, hi = est.scale_range
        scales = [2.0 ** k for k in range(int(math.log2(lo)), int(math.log2(hi)) + 1)]
        assert (est.value, est.stderr) == linregress_fit(scales, [1.0] * len(scales))

    def test_needs_two_scales(self):
        with pytest.raises(InsufficientResolution):
            _loglog_fit(np.array([2.0]), np.array([3.0]))


class TestReportTypes:
    def test_variation_report_validation(self):
        with pytest.raises(ValueError):
            VariationReport(2.0, (4, 4), (1.0, 1.0), 0.0, 0.0)
        with pytest.raises(ValueError):
            VariationReport(2.0, (2, 4), (-1.0, 1.0), 0.0, 0.0)

    def test_dimension_estimate_validation(self):
        with pytest.raises(ValueError):
            DimensionEstimate(2.5, 0.0, (4, 64), BoxCountMethod.GRAPH_BOX_COUNT)
        with pytest.raises(ValueError):
            DimensionEstimate(1.0, 0.0, (64, 4), BoxCountMethod.GRAPH_BOX_COUNT)


class TestEmpiricalCov:
    def test_pinned_zero_column(self):
        spec = ProcessSpec([1.0], [0.5])
        ens = sample_ensemble(spec, TimeGrid.uniform(6, 1.0), 100, 1)
        est, stderr, z = empirical_cov(ens, 0, 3)
        assert est == 0.0 and stderr == 0.0 and z == 0.0

    def test_brownian_cov(self):
        spec = ProcessSpec([1.0], [0.5])
        grid = TimeGrid.uniform(17, 2.0)
        ens = sample_ensemble(spec, grid, 10_000, 2)
        j = 8
        assert grid.times[j] == 1.0
        est, stderr, z = empirical_cov(ens, j, 16)
        assert abs(est - 1.0) <= 4 * stderr
        assert abs(z) <= 4.0

    def test_high_hurst_cov_oracle(self):
        spec = ProcessSpec([1.0], [0.75])
        grid = TimeGrid.uniform(17, 2.0)
        ens = sample_ensemble(spec, grid, 10_000, 4)
        est, stderr, z = empirical_cov(ens, 8, 16)
        assert abs(est - 0.73035091339287416) <= 4 * stderr

    def test_insufficient_replicas(self):
        ens = sample_ensemble(ProcessSpec([1.0], [0.5]), TimeGrid.uniform(4, 1.0), 1, 1)
        with pytest.raises(InsufficientReplicas):
            empirical_cov(ens, 1, 2)


class TestPVariation:
    def test_constant_path(self):
        path = constant_zero_path(9)
        for p in (0.5, 1.0, 2.0, 3.0):
            assert p_variation_stat(path, p, 4).tolist() == [0.0]

    def test_hand_computed_quadratic(self):
        grid = TimeGrid([0.0, 0.5, 1.0])
        path = fixture(grid, [0.0, 1.0, 0.0])
        assert p_variation_stat(path, 2.0, 2).tolist() == [2.0]

    def test_hand_computed_first_order(self):
        grid = TimeGrid([0.0, 0.5, 1.0])
        path = fixture(grid, [0.0, 1.0, 0.0])
        assert p_variation_stat(path, 1.0, 2).tolist() == [2.0]

    def test_refinement_subsampling(self):
        grid = TimeGrid.uniform(9, 1.0)
        values = np.concatenate([[0.0], np.arange(1, 9, dtype=float)])
        path = fixture(grid, values)
        assert p_variation_stat(path, 1.0, 4).tolist() == [8.0]

    def test_grid_mismatch(self):
        path = fixture(TimeGrid.uniform(9, 1.0), np.zeros(9))
        with pytest.raises(GridMismatch):
            p_variation_stat(path, 2.0, 3)

    def test_nonuniform_grid_rejected(self):
        grid = TimeGrid([0.0, 0.2, 1.0])
        path = fixture(grid, [0.0, 1.0, 0.0])
        with pytest.raises(GridMismatch):
            p_variation_stat(path, 2.0, 2)

    def test_matches_naive_double_loop(self, rng):
        grid = TimeGrid.uniform(17, 1.0)
        # Integer values keep every sum exact, whatever order numpy adds in.
        rows = [np.concatenate([[0.0], rng.integers(-99, 100, size=16)]) for _ in range(5)]
        ens = fixture(grid, *rows)
        for n_sub in (2, 4, 8, 16):
            stride = 16 // n_sub
            naive = []
            for values in rows:
                total = 0.0
                for j in range(1, n_sub + 1):
                    total += abs(values[j * stride] - values[(j - 1) * stride]) ** 2
                naive.append(total)
            assert p_variation_stat(ens, 2.0, n_sub).tolist() == naive


class TestQvScaling:
    def test_brownian_level(self):
        report = qv_scaling_exponent(ProcessSpec([2.0], [0.5]), range(6, 10), 100, 77)
        assert report.partition_sizes == (64, 128, 256, 512)
        assert abs(report.fitted_log_slope) <= 0.1
        n = report.partition_sizes[-1]
        stderr = np.sqrt(2.0 * 16.0 / (n * 100))
        assert abs(report.statistics[-1] - 4.0) <= 4 * stderr

    def test_levels_must_ascend(self):
        with pytest.raises(ValueError):
            qv_scaling_exponent(ProcessSpec([1.0], [0.5]), [8, 8], 10, 1)


class TestHolder:
    def test_inactive_component_excluded(self):
        spec = ProcessSpec([1.0, 0.0], [0.3, 0.1])
        ens = sample_ensemble(spec, TimeGrid.uniform(2 ** 10 + 1, 1.0), 100, 21, sampler="fgn")
        h_hat, stderr = holder_exponent_estimate(ens)
        assert abs(h_hat - 0.3) <= 0.05

    def test_scale_invariance_of_slope(self):
        grid = TimeGrid.uniform(2 ** 10 + 1, 1.0)
        base = ProcessSpec([1.0, 1.0], [0.4, 0.8])
        scaled = ProcessSpec([10.0, 10.0], [0.4, 0.8])
        h1, se1 = holder_exponent_estimate(sample_ensemble(base, grid, 100, 5, sampler="fgn"))
        h2, se2 = holder_exponent_estimate(sample_ensemble(scaled, grid, 100, 5, sampler="fgn"))
        assert abs(h1 - h2) <= 4 * (se1 + se2) + 1e-9

    def test_requires_resolution_and_replicas(self):
        spec = ProcessSpec([1.0], [0.5])
        small_grid = sample_ensemble(spec, TimeGrid.uniform(64, 1.0), 100, 1)
        with pytest.raises(InsufficientResolution):
            holder_exponent_estimate(small_grid)
        few_reps = sample_ensemble(spec, TimeGrid.uniform(2 ** 8, 1.0), 10, 1)
        with pytest.raises(InsufficientReplicas):
            holder_exponent_estimate(few_reps)


class TestGraphDimension:
    def test_straight_line(self):
        (est,) = graph_box_dimension(line_path(2 ** 14 + 1))
        assert est.method is BoxCountMethod.GRAPH_BOX_COUNT
        assert abs(est.value - 1.0) <= 0.1

    def test_requires_resolution(self):
        with pytest.raises(InsufficientResolution):
            graph_box_dimension(line_path(2 ** 10 + 1))

    def test_estimate_within_global_bounds(self):
        spec = ProcessSpec([1.0], [0.6])
        ens = sample_ensemble(spec, TimeGrid.uniform(2 ** 14 + 1, 1.0), 3, 3, sampler="fgn")
        estimates = graph_box_dimension(ens)
        assert len(estimates) == 3
        assert all(0.9 <= est.value <= 2.0 for est in estimates)


class TestLevelSetDimension:
    def test_monotone_path_single_crossing(self):
        (est,) = level_set_box_dimension(line_path(2 ** 14 + 1), 0.5, 0.01)
        assert est.method is BoxCountMethod.LEVEL_SET_BOX_COUNT
        assert est.value <= 0.05

    def test_level_above_maximum(self):
        with pytest.raises(LevelNotCrossed):
            level_set_box_dimension(line_path(2 ** 14 + 1), 2.0, 0.01)

    def test_rows_that_never_cross_are_skipped(self):
        grid = TimeGrid.uniform(2 ** 14 + 1, 1.0)
        flat, steep, line = np.zeros(grid.n_points), 3.0 * grid.times, grid.times
        crossing = level_set_box_dimension(fixture(grid, flat, steep, flat, line), 0.5, 0.01)
        assert crossing == (level_set_box_dimension(fixture(grid, steep), 0.5, 0.01)
                            + level_set_box_dimension(fixture(grid, line), 0.5, 0.01))
        uncrossed = r"no replica crossed level 0\.5 on \[0\.01, 1\.0\]"
        with pytest.raises(LevelNotCrossed, match=uncrossed):
            level_set_box_dimension(fixture(grid, flat, flat), 0.5, 0.01)

    def test_horizon_near_the_largest_double_crosses_without_overflow(self):
        # Midpoints of crossing intervals near T = 1e308 would overflow as a sum.
        grid, unit = TimeGrid.uniform(2 ** 14 + 1, 1e308), TimeGrid.uniform(2 ** 14 + 1, 1.0)
        steps = np.where(np.arange(unit.n_points) % 2 == 0, 1.0, -1.0)
        steps[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = level_set_box_dimension(fixture(grid, steps), 0.0, 1e306)
        assert wide == level_set_box_dimension(fixture(unit, steps), 0.0, 0.01)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            level_set_box_dimension(line_path(), 0.5, 0.0)

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_non_finite_level_is_invalid_input_not_an_uncrossed_level(self, x):
        with pytest.raises(ValueError, match="level x must be finite") as info:
            level_set_box_dimension(line_path(), x, 0.01)
        assert not isinstance(info.value, LevelNotCrossed)


class TestRangeDimension:
    def test_constant_path(self):
        (est,) = range_dimension(constant_zero_path(2 ** 10 + 1))
        assert est.value == 0.0
        assert est.method is BoxCountMethod.RANGE_BOX_COUNT

    def test_interval_range(self):
        (est,) = range_dimension(line_path(2 ** 14 + 1))
        assert abs(est.value - 1.0) <= 0.1


class TestNondiffProbe:
    def test_linear_fixture_constant_quotient(self):
        grid = TimeGrid.uniform(2 ** 8 + 1, 1.0)
        ens = fixture(grid, 3.0 * grid.times, 3.0 * grid.times)
        rows = nondiff_probe(ens, 0.5)
        eps = [r[0] for r in rows]
        assert eps == sorted(eps)
        assert all(abs(q - 3.0) <= 1e-9 for _, q in rows)

    def test_window_count_guard(self):
        spec = ProcessSpec([1.0], [0.5])
        ens = sample_ensemble(spec, TimeGrid.uniform(2 ** 6 + 1, 1.0), 4, 1)
        with pytest.raises(InsufficientResolution):
            nondiff_probe(ens, ens.grid.times[1])

    def test_t0_must_be_interior_grid_point(self):
        spec = ProcessSpec([1.0], [0.5])
        ens = sample_ensemble(spec, TimeGrid.uniform(2 ** 6 + 1, 1.0), 4, 1)
        with pytest.raises(ValueError):
            nondiff_probe(ens, 0.0)
        with pytest.raises(ValueError):
            nondiff_probe(ens, 0.5 + 1e-4)

    def test_quotients_grow_as_windows_shrink(self):
        spec = ProcessSpec([1.0], [0.5])
        ens = sample_ensemble(spec, TimeGrid.uniform(2 ** 10 + 1, 1.0), 400, 8, sampler="fgn")
        rows = nondiff_probe(ens, 0.5)
        quot = [q for _, q in rows]
        assert all(b < a for a, b in zip(quot, quot[1:]))


class TestSrdPartialSums:
    def test_brownian_all_zero(self):
        _, sums = srd_series(ProcessSpec([1.0], [0.5]), 0, 100)
        assert np.max(np.abs(sums)) <= 1e-12

    def test_low_hurst_last_decade_cauchy(self):
        _, sums = srd_series(ProcessSpec([1.0], [0.3]), 0, 10 ** 5)
        last = sums[10 ** 4 - 1:]
        assert float(last.max() - last.min()) <= 1e-6

    def test_monotone_decreasing_tail_for_high_hurst(self):
        spec = ProcessSpec([1.0], [0.75])
        _, sums = srd_series(spec, 0, 10 ** 4)
        diffs = np.diff(sums[100:])
        assert np.all(diffs > 0.0)  # positive terms, shrinking
        assert np.all(np.diff(diffs) < 0.0)

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            srd_series(ProcessSpec([1.0], [0.5]), 0, 5)


class TestCsvSerialization:
    def test_variation_report_round_trip(self):
        report = qv_scaling_exponent(ProcessSpec([1.0], [0.5]), range(4, 8), 20, 55)
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "scale,statistic,fit"
        assert len(lines) == 1 + len(report.partition_sizes)
        n, stat, fit = lines[1].split(",")
        assert int(n) == report.partition_sizes[0]
        assert float(stat) == report.statistics[0]
        assert float(fit) > 0.0

    def test_dimension_estimate_csv(self):
        (est,) = range_dimension(line_path(2 ** 12 + 1))
        lines = est.to_csv().strip().splitlines()
        assert lines[0] == "method,value,stderr,min_boxes,max_boxes"
        method, value, stderr, lo, hi = lines[1].split(",")
        assert method == "RangeBoxCount"
        assert float(value) == est.value
        assert int(lo) == est.scale_range[0]
