"""Statistical estimators confronting simulated paths with theory.

Covers variation statistics over dyadic refinements, variogram-based
regularity estimation, a difference-quotient divergence probe, lag-sum
short-range-dependence checks, and box-counting dimension estimates for
the graph, range and level sets of a path.  Every path estimator reads an
``Ensemble``; the variation sums and box dimensions give one result per
replica.

All regressions are ordinary least squares on log-log points; every
estimate carries the regression stderr and the scale window it was fit
on.  Box counting stands in for Hausdorff dimension: the two coincide for
the graphs and level sets probed here, but only box counts are computable
from finite data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .kernels import lag_cov_series, msfbm_cov, msfbm_var
from .process import ProcessSpec
from .sampler import _check_budget, Ensemble, TimeGrid, sample_ensemble
from .seeds import derive_seed

__all__ = [
    "GridMismatch",
    "InsufficientReplicas",
    "InsufficientResolution",
    "LevelNotCrossed",
    "BoxCountMethod",
    "VariationReport",
    "DimensionEstimate",
    "empirical_cov",
    "p_variation_stat",
    "qv_scaling_exponent",
    "holder_exponent_estimate",
    "graph_box_dimension",
    "level_set_box_dimension",
    "range_dimension",
    "nondiff_probe",
    "srd_series",
]


# Peak bytes per lag of ``msfbm srd``: the lag covariances, the text of its
# output and the partial sums' float temporaries.  Measured 299 B per lag for
# JSON, 226 for CSV and 73 for the sums alone while the command still held the
# lag covariances twice, so it is an upper bound.
_SRD_BYTES_PER_LAG = 320


class GridMismatch(ValueError):
    """The requested uniform partition is not contained in the path's grid."""


class InsufficientReplicas(ValueError):
    """The ensemble has too few replicas for the estimator."""


class InsufficientResolution(ValueError):
    """The grid is too coarse for the requested scale window."""


class LevelNotCrossed(ValueError):
    """The path never crosses the requested level on the probed interval."""


class BoxCountMethod(str, Enum):
    GRAPH_BOX_COUNT = "GraphBoxCount"
    LEVEL_SET_BOX_COUNT = "LevelSetBoxCount"
    RANGE_BOX_COUNT = "RangeBoxCount"


@dataclass(frozen=True)
class VariationReport:
    """Mean order-p variation statistics across dyadic refinements."""

    p: float
    partition_sizes: tuple[int, ...]
    statistics: tuple[float, ...]
    fitted_log_slope: float
    slope_stderr: float

    def __post_init__(self):
        sizes = self.partition_sizes
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("partition sizes must be strictly increasing")
        if any(s < 0.0 for s in self.statistics):
            raise ValueError("variation statistics must be nonnegative")

    def to_csv(self) -> str:
        """Plot-ready table: scale, statistic, and the fitted power law."""
        logn = np.log(np.array(self.partition_sizes, dtype=float))
        intercept = float(np.mean(np.log(self.statistics) - self.fitted_log_slope * logn))
        lines = ["scale,statistic,fit"]
        for n, stat in zip(self.partition_sizes, self.statistics):
            fit = math.exp(intercept + self.fitted_log_slope * math.log(n))
            lines.append(f"{n},{stat!r},{fit!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DimensionEstimate:
    """Box-counting dimension with its regression stderr and scale window."""

    value: float
    stderr: float
    scale_range: tuple[int, int]
    method: BoxCountMethod

    def __post_init__(self):
        if not (0.0 <= self.value <= 2.0):
            raise ValueError("dimension estimate must lie in [0, 2]")
        lo, hi = self.scale_range
        if lo < 1 or hi < lo:
            raise ValueError("scale_range must satisfy 1 <= min_boxes <= max_boxes")

    def to_csv(self) -> str:
        return (
            "method,value,stderr,min_boxes,max_boxes\n"
            f"{self.method.value},{self.value!r},{self.stderr!r},"
            f"{self.scale_range[0]},{self.scale_range[1]}\n"
        )


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope and stderr of log(y) against log(x), from population moments with
    r clamped to [-1, 1]; a nan stderr (constant y) is reported as 0."""
    n = len(x)
    if n < 2:
        raise InsufficientResolution("need at least two scales to fit a slope")
    ssxm, ssxym, _, ssym = np.cov(np.log(x), np.log(y), bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    stderr = 0.0 if n == 2 else np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
    return float(ssxym / ssxm), 0.0 if math.isnan(stderr) else float(stderr)


def empirical_cov(ens: Ensemble, j: int, k: int) -> tuple[float, float, float]:
    """Unbiased cross-replica covariance at grid indices (j, k).

    Returns (estimate, stderr, zscore) where the stderr is the Gaussian
    fourth-moment value sqrt((G_jj G_kk + G_jk^2)/R) at the theory target
    and the z-score compares the estimate against the exact kernel; a zero
    stderr (pinned t = 0 column) reports a zero z-score by convention.
    """
    if ens.n_reps < 2:
        raise InsufficientReplicas("empirical covariance needs at least 2 replicas")
    times = ens.grid.times
    if not (0 <= j < times.size and 0 <= k < times.size):
        raise ValueError("grid index out of range")
    v = ens.values
    x = v[:, j]
    y = v[:, k]
    xc = x - x.mean()
    yc = y - y.mean()
    est = float(xc @ yc) / (ens.n_reps - 1)
    theory = msfbm_cov(ens.spec, times[j], times[k])
    var_j = msfbm_var(ens.spec, times[j])
    var_k = msfbm_var(ens.spec, times[k])
    stderr = math.sqrt((var_j * var_k + theory * theory) / ens.n_reps)
    z = 0.0 if stderr == 0.0 else (est - theory) / stderr
    return est, stderr, z


def p_variation_stat(ens: Ensemble, p: float, n_sub: int) -> np.ndarray:
    """Each replica's order-p variation sum over the uniform n_sub-interval
    partition of [0, T], as an (n_reps,) array."""
    p = float(p)
    if p <= 0.0:
        raise ValueError("variation order p must be positive")
    n_sub = int(n_sub)
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    times = ens.grid.times
    n_steps = times.size - 1
    if n_steps % n_sub != 0:
        raise GridMismatch(
            f"grid with {n_steps} steps does not contain a uniform {n_sub}-interval partition"
        )
    stride = n_steps // n_sub
    horizon = ens.grid.horizon
    sel_times = times[::stride]
    targets = np.linspace(0.0, horizon, n_sub + 1)
    if not np.allclose(sel_times, targets, rtol=0.0, atol=1e-9 * max(horizon, 1.0)):
        raise GridMismatch("grid points at the partition stride are not uniform")
    increments = np.diff(ens.values[:, ::stride], axis=1)
    return np.sum(np.abs(increments) ** p, axis=1)


def qv_scaling_exponent(
    spec: ProcessSpec,
    levels: Sequence[int],
    n_reps: int,
    master_seed: int,
) -> VariationReport:
    """Mean quadratic variation across dyadic grids 2^m on [0, 1], with slope fit.

    The fitted log-log slope of the mean statistic against the partition
    size discriminates the variation regimes: positive slope 1 - 2*h_min
    for a rough component, level sum(a_i^2) at slope 0 in the all-Brownian
    case, negative slope when every component is smoother than Brownian.
    """
    levels = [int(m) for m in levels]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be at least two ascending dyadic exponents")
    sizes = []
    stats = []
    for li, m in enumerate(levels):
        n = 2 ** m
        grid = TimeGrid.uniform(n + 1, 1.0)
        ens = sample_ensemble(spec, grid, n_reps, derive_seed(master_seed, li), sampler="fgn")
        sizes.append(n)
        stats.append(float(np.mean(p_variation_stat(ens, 2.0, n))))
    slope, stderr = _loglog_fit(np.array(sizes, dtype=float), np.array(stats))
    return VariationReport(
        p=2.0,
        partition_sizes=tuple(sizes),
        statistics=tuple(stats),
        fitted_log_slope=slope,
        slope_stderr=stderr,
    )


def holder_exponent_estimate(ens: Ensemble) -> tuple[float, float]:
    """Variogram regression estimate of the path regularity exponent.

    Fits log E|S(t+d) - S(t)|^2 against log d over the smallest decade of
    lags (multiples 1..10 of the grid step) and returns half the slope
    with its stderr.  Small scales are governed by the roughest active
    component, so the estimate targets h_min.
    """
    if not ens.grid.is_uniform():
        raise InsufficientResolution("variogram regression requires a uniform grid")
    n_points = ens.grid.n_points
    if n_points < 2 ** 8:
        raise InsufficientResolution("variogram regression requires at least 2^8 points")
    if ens.n_reps < 10 ** 2:
        raise InsufficientReplicas("variogram regression requires at least 100 replicas")
    step = ens.grid.horizon / (n_points - 1)
    v = ens.values
    xs = []
    ys = []
    for k in range(1, 11):
        diff = v[:, k:] - v[:, :-k]
        xs.append(k * step)
        ys.append(float(np.mean(diff * diff)))
    slope, stderr = _loglog_fit(np.array(xs), np.array(ys))
    return slope / 2.0, stderr / 2.0


def _box_levels(k_min: int, k_max: int) -> range:
    if k_max - k_min < 4:
        raise InsufficientResolution("box sizes must span at least 4 octaves")
    return range(k_min, k_max + 1)


def _box_fit(levels: range, counts: list[float], method: BoxCountMethod) -> DimensionEstimate:
    """The estimate of ``method``: the log-log slope of the box ``counts`` against
    2^k, the boxes per side at each level k of ``levels``, clipped to [0, 2]."""
    slope, stderr = _loglog_fit(np.array([2.0 ** k for k in levels]), np.array(counts))
    return DimensionEstimate(value=float(np.clip(slope, 0.0, 2.0)), stderr=stderr,
                             scale_range=(2 ** levels[0], 2 ** levels[-1]), method=method)


def _occupied_boxes(rel: np.ndarray, levels: range) -> list[float]:
    """How many of the 2^k boxes of [0, 1] hold a point of ``rel``, per level k."""
    counts = []
    for k in levels:
        m = 2 ** k
        boxes = np.minimum((rel * m).astype(np.int64), m - 1)
        counts.append(float(np.count_nonzero(np.bincount(boxes, minlength=m))))
    return counts


def _graph_boxes(t_norm: np.ndarray, v: np.ndarray, levels: range) -> list[float]:
    """Boxes hit by the linearly interpolated graph of ``v`` over ``t_norm``, per level."""
    vmin, vmax = float(v.min()), float(v.max())
    y = np.zeros_like(v) if vmax == vmin else (v - vmin) / (vmax - vmin)
    counts = []
    for k in levels:
        m = 2 ** k
        cols = np.minimum((t_norm * m).astype(np.int64), m - 1)
        fy = np.minimum(np.floor(y * m), m - 1)
        lo = np.full(m, np.inf)
        hi = np.full(m, -np.inf)
        np.minimum.at(lo, cols, fy)
        np.maximum.at(hi, cols, fy)
        borders = np.arange(1, m) / m
        fw = np.minimum(np.floor(np.interp(borders, t_norm, y) * m), m - 1)
        # Border j, at (j + 1) / m, bounds columns j and j + 1.
        np.minimum(lo[:-1], fw, out=lo[:-1])
        np.maximum(hi[:-1], fw, out=hi[:-1])
        np.minimum(lo[1:], fw, out=lo[1:])
        np.maximum(hi[1:], fw, out=hi[1:])
        occupied = np.isfinite(lo)
        counts.append(float(np.sum(hi[occupied] - lo[occupied] + 1.0)))
    return counts


def graph_box_dimension(ens: Ensemble) -> list[DimensionEstimate]:
    """Box-counting dimension of each replica's rescaled graph {(t, S_t)}.

    Counts boxes of side 2^-k hit by the linearly interpolated graph (per
    time column, the vertical span of the samples plus the interpolated
    values at the column boundaries), then fits log N against log 2^k for
    k from 3 to log2(steps) - 5.
    """
    n_steps = ens.grid.n_points - 1
    if n_steps + 1 < 2 ** 14:
        raise InsufficientResolution("graph box counting requires at least 2^14 points")
    levels = _box_levels(3, int(math.log2(n_steps)) - 5)
    t_norm = ens.grid.times / ens.grid.horizon
    return [_box_fit(levels, _graph_boxes(t_norm, v, levels), BoxCountMethod.GRAPH_BOX_COUNT)
            for v in ens.values]


class _LevelSet:
    """Level-x crossing sets of paths on one grid over [eps, T], one path at a time.

    The inputs are checked, and the mask of times >= eps and the box levels
    built, once; ``estimate`` then reads one path and ``crossed`` gathers the
    estimates (see ``level_set_box_dimension``).
    """

    def __init__(self, grid: TimeGrid, x: float, eps: float):
        self.eps, self.x = float(eps), float(x)
        self.horizon = grid.horizon
        if not (0.0 < self.eps < self.horizon):
            raise ValueError("eps must lie strictly inside (0, T)")
        if not math.isfinite(self.x):
            raise ValueError(f"level x must be finite, got {self.x!r}")
        self.mask = grid.times >= self.eps
        self.times = grid.times[self.mask]
        if self.times.size < 2:
            raise InsufficientResolution("no grid points beyond eps")
        self.levels = _box_levels(2, int(math.log2(self.times.size)) - 4)

    def estimate(self, v: np.ndarray) -> Optional[DimensionEstimate]:
        """The estimate of the path ``v``, or None where it does not cross the level."""
        times = self.times
        d = v[self.mask] - self.x
        inner = (d[:-1] == 0.0) | (np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
        # Halving each time before the sum keeps a horizon near the largest
        # double finite; outside subnormals it is the same bits as halving the sum.
        cross_times = np.where(d[:-1] == 0.0, times[:-1],
                               0.5 * times[:-1] + 0.5 * times[1:])[inner]
        if d[-1] == 0.0:
            cross_times = np.append(cross_times, times[-1])
        if not cross_times.size:
            return None
        counts = _occupied_boxes((cross_times - self.eps) / (self.horizon - self.eps),
                                 self.levels)
        return _box_fit(self.levels, counts, BoxCountMethod.LEVEL_SET_BOX_COUNT)

    def crossed(self, estimates: Iterable[Optional[DimensionEstimate]]) -> list[DimensionEstimate]:
        """The estimates of the paths that cross, in order; LevelNotCrossed where none does."""
        found = [e for e in estimates if e is not None]
        if not found:
            raise LevelNotCrossed(
                f"no replica crossed level {self.x} on [{self.eps}, {self.horizon}]")
        return found


def level_set_box_dimension(ens: Ensemble, x: float, eps: float) -> list[DimensionEstimate]:
    """Box-counting dimension of each replica's level-x crossing set on [eps, T].

    Counts, at every dyadic subdivision of [eps, T] into 2^k intervals for k
    from 2 to log2(points) - 4, the intervals that contain a sign change of
    S - x.  Returns the estimates of the replicas that cross the level, in
    row order, and raises LevelNotCrossed when none does.  The matching
    theorem is a positive-probability statement, so single-path estimates
    are expected to scatter; aggregate with a median across replicas.
    """
    level_set = _LevelSet(ens.grid, x, eps)
    return level_set.crossed(map(level_set.estimate, ens.values))


def range_dimension(ens: Ensemble) -> list[DimensionEstimate]:
    """Box-counting dimension of each replica's set of attained values, over
    2^k boxes for k from 1 to max(log2(points) - 4, 5)."""
    levels = _box_levels(1, max(int(math.log2(ens.grid.n_points)) - 4, 5))
    estimates = []
    for v in ens.values:
        vmin, vmax = float(v.min()), float(v.max())
        counts = ([1.0] * len(levels) if vmax == vmin
                  else _occupied_boxes((v - vmin) / (vmax - vmin), levels))
        estimates.append(_box_fit(levels, counts, BoxCountMethod.RANGE_BOX_COUNT))
    return estimates


def nondiff_probe(ens: Ensemble, t0: float) -> list[tuple[float, float]]:
    """Mean difference-quotient magnitude at dyadic offsets around t0.

    For each window half-width eps = step * 2^j the probe evaluates
    max(|S(t0 - eps) - S(t0)|, |S(t0 + eps) - S(t0)|) / eps, i.e. the
    quotient at the window boundary, and averages it over replicas.  For a
    non-differentiable path the quotient grows as eps shrinks, with
    log-log slope near h_min - 1; rows are returned with eps ascending.
    """
    if not ens.grid.is_uniform():
        raise InsufficientResolution("the probe requires a uniform grid")
    times = ens.grid.times
    n_points = times.size
    step = ens.grid.horizon / (n_points - 1)
    i0 = int(round(float(t0) / step))
    if not (0 < i0 < n_points - 1) or abs(times[i0] - t0) > 1e-9 * max(ens.grid.horizon, 1.0):
        raise ValueError("t0 must be an interior grid point")
    reach = min(i0, n_points - 1 - i0)
    n_windows = int(math.floor(math.log2(reach))) + 1 if reach >= 1 else 0
    if n_windows < 4:
        raise InsufficientResolution("fewer than 4 nested windows available around t0")
    v = ens.values
    center = v[:, i0]
    rows = []
    for j in range(n_windows):
        offset = 2 ** j
        eps = offset * step
        quot = np.maximum(
            np.abs(v[:, i0 + offset] - center), np.abs(v[:, i0 - offset] - center)
        ) / eps
        rows.append((float(eps), float(np.mean(quot))))
    return rows


def srd_series(spec: ProcessSpec, p: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag covariances C(p, n) for n = 1..n_max and their partial sums.

    Summation order is fixed (ascending n), so results are bit-stable.
    The terms decay like n^(2*h_max - 3); the sums converge for every
    admissible spec, at a pace set by h_max.  An ``n_max`` whose arrays, and
    the output ``msfbm srd`` builds from them, would exceed the memory budget
    raises ValueError before anything is allocated.
    """
    n_max = int(n_max)
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    _check_budget(f"n_max = {n_max}", _SRD_BYTES_PER_LAG * n_max)
    terms = lag_cov_series(spec, p, np.arange(1, n_max + 1))
    return terms, np.cumsum(terms)
