"""Grid/path types, Gram factorization, the three sampler routes and the router."""

import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import PCG64, Generator

import msfbm
from msfbm import ProcessSpec, TimeGrid, sampler
from msfbm.kernels import _p2h_array
from msfbm.sampler import (
    _GRAM_ROWS,
    _SYM_TILE,
    JITTER_LADDER,
    FactorizationFailure,
    _fbm_fill,
    _fgn_autocov,
    _fgn_spectrum,
    _plan,
    _route_rows,
    gram_matrix,
)
from msfbm.seeds import _state_words, derive_seed, normal_stream, replica_seeds, stream_keys

from conftest import package_env, rand_spec


def pcg64_words(seed):
    """``PCG64(seed)``'s state and inc as (low, high, low, high) 64-bit words."""
    state = PCG64(seed).state["state"]
    return [state["state"] & 2 ** 64 - 1, state["state"] >> 64,
            state["inc"] & 2 ** 64 - 1, state["inc"] >> 64]


class TestTimeGrid:
    def test_uniform(self):
        grid = TimeGrid.uniform(5, 2.0)
        assert grid.n_points == 5
        assert grid.horizon == 2.0
        assert grid.is_uniform()

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at t = 0"):
            TimeGrid([1.0, 2.0])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeGrid([0.0, 1.0, 1.0])

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            TimeGrid([0.0])

    @pytest.mark.parametrize("times", ([0.0, math.nan], [0.0, 1.0, math.nan], [0.0, math.inf]))
    def test_non_finite_times_are_named(self, times):
        with pytest.raises(ValueError, match="grid times must be finite"):
            TimeGrid(times)

    @pytest.mark.parametrize("horizon", (0.0, -1.0, math.nan, math.inf))
    def test_uniform_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be a positive finite number"):
            TimeGrid.uniform(5, horizon)

    def test_non_uniform_detected(self):
        assert not TimeGrid([0.0, 0.1, 1.0]).is_uniform()


class TestSeeds:
    def test_replica_seeds_distinct(self):
        seeds = replica_seeds(1234, 10_000)
        assert len(set(seeds)) == 10_000

    def test_derivation_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(42, 3) != derive_seed(43, 3)

    def test_splitmix_reference_values(self):
        # finalizer of state 0 and 1 from the published splitmix64 stream
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(1, 0) == 0x910A2DEC89025CC1

    @pytest.mark.parametrize("seed", (-1, 2 ** 64, 1.5))
    def test_master_seed_not_a_64_bit_integer_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            derive_seed(seed, 0)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            replica_seeds(seed, 3)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            msfbm.sample_ensemble(ProcessSpec([1.0], [0.5]), TimeGrid.uniform(4, 1.0), 2, seed)

    def test_keys_equal_seed_sequence_state(self):
        # One-word and two-word entropy, and random seeds over the whole range.
        rng = np.random.default_rng(5)
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        seeds += [int(s) for s in rng.integers(0, 2 ** 64, size=10_000, dtype=np.uint64)]
        keys = stream_keys(seeds)
        assert keys.shape == (len(seeds), 4) and keys.dtype == np.uint64
        for seed, key in zip(seeds, keys):
            assert key.tolist() == pcg64_words(seed), seed

    def test_keys_keep_the_shape_of_their_seeds(self):
        seeds = replica_seeds(9, 6).reshape(3, 2)
        assert stream_keys(seeds).tobytes() == stream_keys(seeds.ravel()).tobytes()
        assert stream_keys(seeds).shape == (3, 2, 4)


class TestGramMatrix:
    def test_brownian_example(self):
        g = msfbm.gram_matrix(ProcessSpec([1.0], [0.5]), TimeGrid([0.0, 1.0, 2.0]))
        assert np.allclose(g, [[1.0, 1.0], [1.0, 2.0]], rtol=1e-12)

    def test_single_point_diagonal(self):
        g = msfbm.gram_matrix(ProcessSpec([1.0], [0.75]), TimeGrid([0.0, 1.0]))
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-12)

    def test_mixed_example_oracle(self):
        g = msfbm.gram_matrix(ProcessSpec([1.0, 1.0], [0.5, 0.75]), TimeGrid([0.0, 1.0, 2.0]))
        expected = [
            [1.585786437626905, 1.7303509133928742],
            [1.7303509133928742, 3.6568542494923802],
        ]
        assert np.allclose(g, expected, rtol=1e-12)

    def test_psd_over_random_specs(self, rng):
        for _ in range(20):
            spec = rand_spec(rng)
            n = int(rng.integers(2, 65))
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 10.0, n))])
            times = np.unique(times)
            g = msfbm.gram_matrix(spec, TimeGrid(times))
            eig_min = float(np.linalg.eigvalsh(g).min())
            assert eig_min >= -1e-10 * float(np.max(np.diag(g)))


def _reference_gram(spec, grid):
    """Unblocked full-matrix msfbm Gram: the formula the blocked evaluator must match."""
    t = grid.times[1:]
    ts = t[:, None] + t[None, :]
    td = np.abs(t[:, None] - t[None, :])
    g = np.zeros((t.size, t.size))
    for a, h in zip(spec.coeffs, spec.hurst):
        two_h = 2.0 * h
        pt = _p2h_array(t, two_h)
        g += (a * a) * (pt[:, None] + pt[None, :]
                        - 0.5 * (_p2h_array(ts, two_h) + _p2h_array(td, two_h)))
    return 0.5 * (g + g.T)


def _fbm_gram(spec, grid):
    """The fbm route's blocked Gram of W on the symmetric grid, whole."""
    return sampler._symmetric_gram(*_fbm_fill(spec, grid))


def _reference_fbm_gram(spec, grid):
    """Unblocked Gram of W = sum_i a_i B_i on the symmetric grid: the fBm
    kernels weighted by a_i^2 and summed in the order of the components."""
    pos = grid.times[1:]
    sym = np.concatenate([-pos[::-1], pos])
    abs_diff = np.abs(sym[:, None] - sym[None, :])
    g = np.zeros((sym.size, sym.size))
    for a, h in zip(spec.coeffs, spec.hurst):
        two_h = 2.0 * h
        pt = _p2h_array(np.abs(sym), two_h)
        g += (0.5 * (a * a)) * (pt[:, None] + pt[None, :] - _p2h_array(abs_diff, two_h))
    return 0.5 * (g + g.T)


# Two times 1e-12 apart: the process Gram factors only on a nonzero jitter rung.
_COINCIDENT_PAIR = np.concatenate([[0.0], np.linspace(0.5, 1.0, 50), [1.0 + 1e-12]])

# Positive grid sizes: one point, around one block height, and several
# blocks plus a remainder (the fBm Gram is twice as wide).
_BLOCK_EDGE_SIZES = (1, _GRAM_ROWS // 2, _GRAM_ROWS - 1, _GRAM_ROWS, _GRAM_ROWS + 1,
                     3 * _GRAM_ROWS + 5)


class TestBlockedGram:
    @staticmethod
    def _grids(rng, n):
        yield TimeGrid.uniform(n + 1, float(rng.uniform(0.1, 10.0)))
        steps = rng.uniform(0.01, 1.0, n)
        yield TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]) ** 1.5)

    @pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
    def test_gram_matrix_bit_equal_to_reference(self, rng, n):
        for n_comp in (1, 2, 3):
            spec = ProcessSpec(rng.uniform(-3.0, 3.0, n_comp), rng.uniform(0.05, 0.95, n_comp))
            for grid in self._grids(rng, n):
                assert np.array_equal(msfbm.gram_matrix(spec, grid), _reference_gram(spec, grid))

    @pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
    def test_fbm_grams_bit_equal_to_reference(self, rng, n):
        for n_comp in (1, 2, 3):
            spec = ProcessSpec(rng.uniform(-3.0, 3.0, n_comp), rng.uniform(0.05, 0.95, n_comp))
            for grid in self._grids(rng, n):
                assert np.array_equal(_fbm_gram(spec, grid), _reference_fbm_gram(spec, grid))


class TestPsdFactor:
    def test_identity(self):
        fr = msfbm.psd_factor(np.eye(3))
        assert np.array_equal(fr.lower, np.eye(3))
        assert fr.jitter == 0.0

    def test_hand_checkable(self):
        fr = msfbm.psd_factor(np.array([[1.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(fr.lower, [[1.0, 0.0], [1.0, 1.0]])
        assert fr.jitter == 0.0

    def test_near_singular_dense_grid(self):
        # The uniform 1000-point Gram factors at jitter 0; the coincident pair's
        # only on a higher rung of the ladder, which must still stay small.
        for times, needs_jitter in ((np.linspace(0.0, 1.0, 1000), False),
                                    (_COINCIDENT_PAIR, True)):
            g = msfbm.gram_matrix(ProcessSpec([1.0], [0.9]), TimeGrid(times))
            fr = msfbm.psd_factor(g.copy())
            max_diag = float(np.max(np.diag(g)))
            assert (fr.jitter > 0.0) == needs_jitter
            assert fr.jitter <= 1e-10 * max_diag
            recon = fr.lower @ fr.lower.T
            target = g + fr.jitter * np.eye(g.shape[0])
            assert float(np.max(np.abs(recon - target))) <= 1e-10 * max_diag

    def test_indefinite_matrix_fails(self):
        with pytest.raises(msfbm.FactorizationFailure):
            msfbm.psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("value", (np.inf, -np.inf))
    def test_rejects_infinite_diagonal(self, value):
        g = np.array([[value, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal must be finite"):
            msfbm.psd_factor(g)
        assert np.array_equal(g, [[value, 0.0], [0.0, 1.0]])

    def test_infinite_off_diagonal_fails(self):
        with pytest.raises(msfbm.FactorizationFailure):
            msfbm.psd_factor(np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            msfbm.psd_factor(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_one_ulp_asymmetry_and_nan(self):
        off = np.nextafter(0.5, 1.0)
        with pytest.raises(ValueError, match="must be symmetric"):
            msfbm.psd_factor(np.array([[1.0, 0.5], [off, 1.0]]))
        with pytest.raises(ValueError, match="must be symmetric"):
            msfbm.psd_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @staticmethod
    def _planted_entries(n):
        """Entries in different tiles of the symmetry check: the far off-diagonal
        corners, the last (partial) tile, and one in the middle of the lower half."""
        return [(0, n - 1), (n - 1, 0), (n - 1, n - 2), (n // 2, 1)]

    @pytest.mark.parametrize("n", (_SYM_TILE - 1, _SYM_TILE, _SYM_TILE + 1, 3 * _SYM_TILE + 5))
    def test_tiled_check_refuses_every_planted_asymmetry(self, rng, n):
        m = rng.standard_normal((n, n))
        g = m + m.T + 2.0 * n * np.eye(n)
        assert msfbm.psd_factor(g.copy()).jitter == 0.0
        for i, j in self._planted_entries(n):
            bad = g.copy()
            bad[i, j] = np.nextafter(bad[i, j], np.inf)
            with pytest.raises(ValueError, match="must be symmetric"):
                msfbm.psd_factor(bad)
        for i, j in [*self._planted_entries(n), (n - 1, n - 1)]:
            bad = g.copy()
            bad[i, j] = bad[j, i] = np.nan
            with pytest.raises(ValueError, match="must be symmetric"):
                msfbm.psd_factor(bad)

    @staticmethod
    def _layouts(g):
        """g in C order, in F order, and as a non-contiguous slice."""
        n = g.shape[0]
        wide = np.zeros((2 * n, 2 * n))
        wide[::2, 1::2] = g
        sliced = wide[::2, 1::2]
        assert n == 1 or not (sliced.flags.c_contiguous or sliced.flags.f_contiguous)
        return [np.ascontiguousarray(g), np.asfortranarray(g), sliced]

    @pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES + (_SYM_TILE - 1, _SYM_TILE, _SYM_TILE + 1,
                                                       2 * _SYM_TILE + 5))
    def test_factor_bit_equal_to_cholesky_in_every_layout(self, n):
        g = msfbm.gram_matrix(ProcessSpec([1.0, 0.5], [0.3, 0.8]), TimeGrid.uniform(n + 1, 2.0))
        for x in self._layouts(g):
            want = np.linalg.cholesky(x)
            fr = msfbm.psd_factor(x)
            assert fr.jitter == 0.0
            assert fr.lower.flags.c_contiguous
            assert np.array_equal(fr.lower, want)

    def test_jittered_factor_bit_equal_to_cholesky_in_every_layout(self):
        # All ones is singular, so it factors only on a nonzero rung.
        n = 3 * _GRAM_ROWS + 5
        for x in self._layouts(np.ones((n, n))):
            untouched = x.copy()
            fr = msfbm.psd_factor(x)
            assert fr.jitter > 0.0
            assert np.array_equal(fr.lower, np.linalg.cholesky(untouched + fr.jitter * np.eye(n)))

    def test_failed_rung_is_not_a_floating_point_error(self):
        # sample_ensemble factors under over="raise", invalid="raise"; a rung that
        # is not positive definite must still step up the jitter ladder.
        with np.errstate(over="raise", invalid="raise"):
            fr = msfbm.psd_factor(np.ones((5, 5)))
        assert fr.jitter > 0.0
        assert np.array_equal(fr.lower, np.linalg.cholesky(np.ones((5, 5)) + fr.jitter * np.eye(5)))

    @pytest.mark.parametrize("times,needs_jitter", [
        # test_near_singular_dense_grid's Gram, which factors at the first rung.
        (np.linspace(0.0, 1.0, 1000), False),
        (_COINCIDENT_PAIR, True),
    ], ids=["uniform-1000", "coincident-pair"])
    def test_exact_route_steps_up_the_ladder_without_arithmetic_error(self, times, needs_jitter):
        spec, grid = ProcessSpec([1.0], [0.9]), TimeGrid(times)
        ens = msfbm.sample_ensemble(spec, grid, 2, 7, sampler="exact")
        assert ens.jitter == msfbm.psd_factor(msfbm.gram_matrix(spec, grid)).jitter
        assert (ens.jitter > 0.0) == needs_jitter

    def test_input_is_left_unchanged(self):
        # A Gram that factors at jitter 0, and all ones, which fails rung 0 and
        # factors only on a nonzero rung.
        spec, grid = ProcessSpec([1.0, 0.5], [0.3, 0.8]), TimeGrid.uniform(2 * _SYM_TILE, 2.0)
        gram, ones = msfbm.gram_matrix(spec, grid), np.ones((2 * _SYM_TILE, 2 * _SYM_TILE))
        for g in (gram, ones):
            for x in self._layouts(g):
                before = x.copy()
                fr = msfbm.psd_factor(x)
                assert (fr.jitter > 0.0) == (g is ones)
                assert not np.shares_memory(fr.lower, x)
                assert x.tobytes() == before.tobytes()

    def test_strided_input_is_left_untouched(self):
        spec, grid = ProcessSpec([1.0, 0.5], [0.3, 0.8]), TimeGrid.uniform(2 * _SYM_TILE, 2.0)
        g = msfbm.gram_matrix(spec, grid)
        sliced = self._layouts(g)[2]
        fr = msfbm.psd_factor(sliced)
        assert not np.shares_memory(fr.lower, sliced)
        assert sliced.tobytes() == g.tobytes()

    def test_rung_failing_at_its_last_column_is_undone(self):
        # The leading block is positive definite and the last row copies the one
        # before it with a smaller diagonal, so rungs 0 and 1 fail only at the
        # last column, after LAPACK has overwritten every column before it.
        n = 400
        m = np.random.default_rng(3).standard_normal((n - 1, n - 1))
        lead = m @ m.T / n + np.eye(n - 1)
        lead += lead.T
        g0 = np.empty((n, n))
        g0[:-1, :-1] = lead
        g0[-1, :-1] = g0[:-1, -1] = lead[-1]
        g0[-1, -1] = lead[-1, -1] * (1.0 - 1e-13)
        np.linalg.cholesky(g0[:-1, :-1])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g0)
        fr = msfbm.psd_factor(g0.copy())
        assert fr.jitter > 0.0
        assert np.array_equal(fr.lower, np.linalg.cholesky(g0 + fr.jitter * np.eye(n)))


class TestSampleExact:
    def test_determinism(self):
        spec = ProcessSpec([1.0], [0.6])
        grid = TimeGrid.uniform(16, 1.0)
        a = msfbm.sample_ensemble(spec, grid, 1, 42, sampler="exact")
        b = msfbm.sample_ensemble(spec, grid, 1, 42, sampler="exact")
        assert np.array_equal(a.values, b.values)
        c = msfbm.sample_ensemble(spec, grid, 1, 43, sampler="exact")
        assert not np.array_equal(a.values, c.values)

    def test_brownian_terminal_variance(self):
        spec = ProcessSpec([1.0], [0.5])
        grid = TimeGrid.uniform(16, 1.0)
        ens = msfbm.sample_ensemble(spec, grid, 10_000, 7)
        terminal = ens.values[:, -1]
        est = float(np.mean(terminal ** 2))
        se = np.sqrt(2.0 / 10_000)  # Var(X^2) = 2 Var^2 for centered Gaussian
        assert abs(est - 1.0) <= 4 * se

    def test_cov_at_1_2_oracle(self):
        spec = ProcessSpec([1.0], [0.75])
        grid = TimeGrid.uniform(17, 2.0)
        times = grid.times
        j = int(np.argmin(np.abs(times - 1.0)))
        k = 16
        assert times[j] == 1.0 and times[k] == 2.0
        ens = msfbm.sample_ensemble(spec, grid, 10_000, 11)
        v = ens.values
        est = float(np.mean(v[:, j] * v[:, k]))
        target = 0.73035091339287416
        var_j = msfbm.msfbm_var(spec, 1.0)
        var_k = msfbm.msfbm_var(spec, 2.0)
        se = np.sqrt((var_j * var_k + target ** 2) / 10_000)
        assert abs(est - target) <= 4 * se


def _key(seed):
    return stream_keys([seed])[0]


def _three_power_autocov(length, step, two_h):
    """fGn autocovariance at lags 0..length: step^2H / 2 times 2 at lag 0 and
    the three-power second difference (m+1)^2H - 2 m^2H + (m-1)^2H at lags
    m >= 1, written m^2H * ((1+1/m)^2H + (1-1/m)^2H - 2) through expm1/log1p."""
    m = np.arange(1.0, length + 1.0)
    with np.errstate(divide="ignore"):
        bracket = np.expm1(two_h * np.log1p(1.0 / m)) + np.expm1(two_h * np.log1p(-1.0 / m))
    return 0.5 * _p2h_array(np.full(1, step), two_h)[0] * np.concatenate(
        [[2.0], _p2h_array(m, two_h) * bracket])


def _reference_sqrt_spectrum(spec, grid):
    """Square roots of W's circulant eigenvalues over [-T, T], clipped at 0: the
    active components' increment autocovariances weighted by a_i^2 and summed
    into one circulant row.  The half spectrum before the 1/sqrt(2) of the bins."""
    m = grid.n_points - 1
    gamma = sum((a * a) * _three_power_autocov(2 * m, grid.horizon / m, 2.0 * h)
                for a, h in spec.active())
    eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    return np.sqrt(np.clip(eig, 0.0, None))


def _odd_part_normals(v):
    """G_1..G_2m, at indices 1..2m, from one replica's 2m normals ``v`` as the
    circulant map places them: the pair (v[2k], v[2k+1]) of bin k drives
    G_{2m-k} and G_k for 0 < k < m, v[0] drives G_2m and v[1] G_m."""
    m = v.size // 2
    g = np.zeros(2 * m + 1)
    ks = np.arange(1, m)
    g[2 * m - ks], g[ks] = v[2 * ks], v[2 * ks + 1]
    g[2 * m], g[m] = v[0], v[1]
    return g


def _reference_odd_part_draw(sqrt_eig, seed):
    """Index-array assembly of the circulant map's path from the clipped
    square-root eigenvalues ``sqrt_eig`` of the embedding, N = 4m: its bins,
    one real inverse FFT of length 2m, and the de-interleaved read-back with
    its (-1)^i sign, cumulated.  ``_fgn_map`` must match it bit for bit."""
    m = (sqrt_eig.size - 1) // 2
    r = sqrt_eig * math.sqrt(m)
    v = normal_stream(_key(seed), 2 * m)
    ks = np.arange(1, m)
    bins = np.zeros(m + 1, dtype=complex)
    bins.real[0] = (r[2 * m] * math.sqrt(2.0)) * v[0]
    bins.real[ks] = r[2 * m - ks] * v[2 * ks]
    bins.imag[ks] = -r[ks] * v[2 * ks + 1]
    bins.real[m] = (r[m] * 2.0) * v[1]
    bins *= np.exp(1j * (math.pi / (4 * m)) * np.arange(m + 1))
    x = np.fft.irfft(bins, n=2 * m)
    i = np.arange(m)
    at = np.where(i % 2 == 0, i // 2, 2 * m - 1 - i // 2)
    return np.cumsum(np.where(i % 2 == 0, 1.0, -1.0) * x[at])


def _reference_sine_sum_draw(sqrt_eig, seed):
    """The same path from the odd part's definition, through a full complex
    FFT of length N = 4m: with sigma_k^2 = 2 lambda_k / N (lambda_2m / N at
    k = 2m) and u_k = 2 sigma_k G_k, the increments are
    d_i = sum_{k=1}^{2m} u_k sin(pi k (2i + 1) / N), the imaginary part of
    N ifft(u_k exp(i pi k / N)), and the path is their cumulative sum over
    sqrt(2)."""
    m = (sqrt_eig.size - 1) // 2
    size = 4 * m
    sigma = sqrt_eig * math.sqrt(2.0 / size)
    sigma[2 * m] = sqrt_eig[2 * m] / math.sqrt(size)
    g = _odd_part_normals(normal_stream(_key(seed), 2 * m))
    ks = np.arange(1, 2 * m + 1)
    u = np.zeros(size, dtype=complex)
    u[ks] = 2.0 * sigma[ks] * g[ks] * np.exp(1j * math.pi * ks / size)
    return np.cumsum((size * np.fft.ifft(u)).imag[:m]) / math.sqrt(2.0)


def _fgn_path(weights, key):
    """``_fgn_map``'s path from ``_fgn_spectrum``'s ``weights`` and the
    normal stream of ``key``, drawn into a fresh map."""
    z, apply = sampler._fgn_map(weights)
    normal_stream(key, z.size, out=z)
    body = np.empty(weights.shape[0] - 1)
    apply(body)
    return body


class TestSampleViaFbm:
    def test_degenerate_grid_law(self):
        spec = ProcessSpec([1.0, 0.5], [0.3, 0.8])
        grid = TimeGrid([0.0, 0.7])
        vals = msfbm.sample_ensemble(spec, grid, 10_000, 5, sampler="fbm").values[:, 1]
        var = msfbm.msfbm_var(spec, 0.7)
        est = float(np.mean(vals ** 2))
        se = var * np.sqrt(2.0 / 10_000)
        assert abs(est - var) <= 4 * se

    def test_brownian_cov_matches_min(self):
        spec = ProcessSpec([1.0], [0.5])
        grid = TimeGrid.uniform(9, 1.0)
        ens = msfbm.sample_ensemble(spec, grid, 10_000, 3, sampler="fbm")
        v = ens.values[:, 1:]
        g = msfbm.gram_matrix(spec, grid)
        emp = (v.T @ v) / 10_000
        se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / 10_000)
        assert float(np.max(np.abs(emp - g) / se)) <= 5.0

    def test_differs_from_exact_pathwise(self):
        spec = ProcessSpec([1.0], [0.75])
        grid = TimeGrid.uniform(8, 1.0)
        a = msfbm.sample_ensemble(spec, grid, 1, 99, sampler="exact")
        b = msfbm.sample_ensemble(spec, grid, 1, 99, sampler="fbm")
        assert not np.allclose(a.values, b.values)

    def test_fgn_route_matches_gram(self):
        spec = ProcessSpec([1.0, 1.0], [0.4, 0.8])
        grid = TimeGrid.uniform(33, 2.0)
        ens = msfbm.sample_ensemble(spec, grid, 8000, 17, sampler="fgn")
        v = ens.values[:, 1:]
        g = msfbm.gram_matrix(spec, grid)
        emp = (v.T @ v) / 8000
        se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / 8000)
        assert float(np.max(np.abs(emp - g) / se)) <= 5.0

    def test_fgn_exact_increment_covariance(self):
        # The path's increments over the grid steps have the process's
        # increment covariance: E[x_a x_b] across many draws at small size.
        spec = ProcessSpec([1.0], [0.3])
        grid = TimeGrid.uniform(5, 1.0)
        n_reps = 40_000
        draws = np.diff(msfbm.sample_ensemble(spec, grid, n_reps, 2, sampler="fgn").values)
        emp = draws.T @ draws / n_reps
        t = grid.times
        want = np.empty((4, 4))
        for a in range(4):
            want[a, a] = msfbm.increment_second_moment(spec, t[a], t[a + 1])
            for b in range(a + 1, 4):
                w = msfbm.IncrementWindow(t[a], t[a + 1], t[b], t[b + 1])
                want[a, b] = want[b, a] = msfbm.increment_cov(spec, w)
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want * want) / n_reps)
        assert float(np.max(np.abs(emp - want) / se)) <= 5.0

    @pytest.mark.parametrize("n_points", (5, 257, 2049, 2 ** 16 + 1))
    def test_fgn_draw_bit_equal_to_reference(self, n_points):
        grid = TimeGrid.uniform(n_points, 1.0)
        for spec in (ProcessSpec([1.0], [0.2]), ProcessSpec([1.5, -0.7, 2.0], [0.2, 0.5, 0.9])):
            weights, sqrt_eig = _fgn_spectrum(spec, grid), _reference_sqrt_spectrum(spec, grid)
            for k in range(3):
                got = _fgn_path(weights, _key(derive_seed(7, k)))
                want = _reference_odd_part_draw(sqrt_eig, derive_seed(7, k))
                assert got.tobytes() == want.tobytes()
                # The same realization as the sine sum's full complex FFT, up to rounding.
                want = _reference_sine_sum_draw(sqrt_eig, derive_seed(7, k))
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_ensemble_matches_per_component_fold(self):
        # Each replica is the sine sum's path from its own seed, over the
        # spectrum of the live components' summed autocovariances.
        spec = ProcessSpec([1.5, 0.0, -0.7, 2.0], [0.2, 0.6, 0.5, 0.9])
        grid = TimeGrid.uniform(2049, 3.0)
        got = msfbm.sample_ensemble(spec, grid, 6, 21, sampler="fgn").values
        sqrt_eig = _reference_sqrt_spectrum(spec, grid)
        want = np.zeros_like(got)
        for k, seed in enumerate(replica_seeds(21, 6)):
            want[k, 1:] = _reference_sine_sum_draw(sqrt_eig, seed)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    def test_one_inverse_fft_and_one_stream_per_replica(self, monkeypatch, route):
        counts = {"irfft": 0, "normal_stream": 0}
        real_irfft, real_stream = np.fft.irfft, sampler.normal_stream

        def irfft(*args, **kwargs):
            counts["irfft"] += 1
            return real_irfft(*args, **kwargs)

        def stream(*args, **kwargs):
            counts["normal_stream"] += 1
            return real_stream(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", irfft)
        monkeypatch.setattr(sampler, "normal_stream", stream)
        spec = ProcessSpec([1.5, -0.7, 2.0], [0.2, 0.5, 0.9])
        msfbm.sample_ensemble(spec, TimeGrid.uniform(65, 1.0), 5, 3, sampler=route)
        assert counts == {"irfft": 5 if route == "fgn" else 0, "normal_stream": 5}

    def test_workspace_peak_within_route_estimate(self):
        spec = ProcessSpec([1.5, -0.7, 2.0], [0.2, 0.5, 0.9])
        grid = TimeGrid.uniform(2 ** 14 + 1, 1.0)
        tracemalloc.start()
        try:
            msfbm.sample_ensemble(spec, grid, 4, 3, sampler="fgn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _plan(grid, 4, "fgn").need

    @pytest.mark.parametrize("route", ("exact", "fbm"))
    def test_dense_peak_within_route_estimate(self, route):
        # The estimate counts the three matrices of the fallback kernel,
        # np.linalg.cholesky, whose LAPACK working copy is malloc'd outside
        # tracemalloc's view; the RFP kernel holds one triangle of the Gram.
        spec = ProcessSpec([1.5, -0.7], [0.3, 0.8])
        times = np.cumsum(np.concatenate([[0.0], np.random.default_rng(5).uniform(0.5, 1.5, 300)]))
        grid = TimeGrid(times)
        assert not grid.is_uniform()
        tracemalloc.start()
        try:
            msfbm.sample_ensemble(spec, grid, 4, 3, sampler=route)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _plan(grid, 4, route).need

    # Prints how far a draw on m points raises a child interpreter's
    # peak RSS.  That is VmHWM, the peak of the process's own address space:
    # ru_maxrss also carries the forking parent's RSS over the exec, so under
    # a large test process it would not move.  A draw on a quarter-size grid
    # first puts the one-time buffers of the interpreter and of BLAS into the
    # baseline.  The child runs one BLAS thread: each further OpenBLAS thread
    # touches more of a buffer of its own the larger the factor (2.8 MiB more
    # at two threads and m = 1500 on a 2-vCPU Xeon, OpenBLAS core SkylakeX),
    # which no smaller draw puts in the baseline.
    _RSS_SCRIPT = """
import numpy as np, msfbm
def peak_bytes():
    with open("/proc/self/status") as status:
        return 1024 * next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
def grid(m):
    steps = np.random.default_rng(5).uniform(0.5, 1.5, m)
    return msfbm.TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
spec = msfbm.ProcessSpec([1.5, -0.7], [0.3, 0.8])
msfbm.sample_ensemble(spec, grid({m} // 4), 4, 3, sampler="{route}")
before = peak_bytes()
msfbm.sample_ensemble(spec, grid({m}), 4, 3, sampler="{route}")
print(peak_bytes() - before)
"""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="VmHWM is read from Linux's /proc/self/status")
    @pytest.mark.skipif(sampler._rfp() is None,
                        reason="without dpftrf a dense route holds the whole Gram")
    @pytest.mark.parametrize("route", ("exact", "fbm"))
    def test_dense_draw_holds_one_gram_triangle(self, route):
        # The Gram's one triangle in RFP storage is half a matrix of n x n
        # doubles, n = 1500 on both routes: m for exact, 2m for fbm.
        n = 1500
        m = n if route == "exact" else n // 2
        proc = subprocess.run([sys.executable, "-c", self._RSS_SCRIPT.format(m=m, route=route)],
                              capture_output=True, text=True,
                              env=dict(package_env(), OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 0.75 * 8 * n * n

    @pytest.mark.parametrize("length", (4, 512, 4096, 2 ** 17))
    @pytest.mark.parametrize("h", (0.2, 0.5, 0.9))
    def test_fgn_autocov_bit_equal_to_three_power_formula(self, length, h):
        two_h, step = 2.0 * h, 1.0 / length
        want = _three_power_autocov(length, step, two_h)
        assert _fgn_autocov(length, step, two_h).tobytes() == want.tobytes()

    def test_indefinite_embedding_is_refused(self, monkeypatch):
        # Row (1, 1, 0, ..., 0, 1) has eigenvalues 1 + 2 cos(2 pi k / N), -1 at k = N/2.
        monkeypatch.setattr(sampler, "_fgn_autocov",
                            lambda length, step, two_h: np.r_[1.0, 1.0, np.zeros(length - 1)])
        with pytest.raises(FactorizationFailure, match="indefinite"):
            _fgn_spectrum(ProcessSpec([1.0], [0.5]), TimeGrid.uniform(9, 1.0))


class TestBulkSeeding:
    """``stream_keys`` and ``normal_stream`` against numpy's own seeding, the oracle."""

    @staticmethod
    def _seeds():
        rng = np.random.default_rng(20240817)
        seeds = [int(s) for s in rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)]
        seeds += [0, 1, 2, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        # The acceptance tests' master seeds, their replica seeds and component streams.
        for k in range(200):
            master = derive_seed(20240817, k)
            seeds.append(master)
            for rep in replica_seeds(master, 20):
                seeds += [rep] + [derive_seed(rep, i) for i in range(3)]
        return seeds

    def test_states_equal_pcg64_seeding(self):
        seeds = self._seeds()
        assert len(seeds) >= 100_000
        for seed, key in zip(seeds, stream_keys(seeds)):
            assert key.tolist() == pcg64_words(seed), seed

    def test_streams_equal_pcg64_streams(self):
        seeds = self._seeds()[::400]
        for seed, key in zip(seeds, stream_keys(seeds)):
            for size in (1, 7, 257):
                want = Generator(PCG64(seed)).standard_normal(size)
                assert np.array_equal(normal_stream(key, size), want)

    def test_stream_into_buffer_equals_new_stream(self):
        for key in stream_keys([0, 5, 2 ** 64 - 1]):
            for size in (1, 7, 2 ** 18):
                buf = np.full(size, np.nan)
                assert normal_stream(key, size, out=buf) is buf
                assert buf.tobytes() == normal_stream(key, size).tobytes()

    def test_stream_after_another_equals_a_fresh_stream(self):
        # Streams of other sizes leave the thread's generator at other states;
        # none of that may reach the next stream.
        seeds = self._seeds()[::2000]
        keys = stream_keys(seeds)
        for (seed, key), size in zip(zip(seeds, keys), (1, 9, 16, 257, 3)):
            normal_stream(keys[-1], 1001)
            assert normal_stream(key, size).tobytes() == \
                Generator(PCG64(seed)).standard_normal(size).tobytes()

    def test_interleaved_threads_draw_their_own_streams(self):
        # More threads than cores, switching often, each drawing every fourth
        # stream in lockstep with the others; a draw this long releases the GIL
        # while it runs, so a generator or state view shared between threads
        # would hand one thread another's state.
        n_threads = 4
        seeds = self._seeds()[::1000][:100]
        keys = stream_keys(seeds)
        want = [Generator(PCG64(seed)).standard_normal(4096).tobytes() for seed in seeds]
        turn = threading.Barrier(n_threads, timeout=60)
        got = [[] for _ in range(n_threads)]

        def draw(first):
            for k in range(first, len(keys), n_threads):
                turn.wait()
                got[first].append(normal_stream(keys[k], 4096).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(first,)) for first in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for first in range(n_threads):
            assert got[first] == want[first::n_threads]

    def test_bound_view_writes_what_the_setter_reads(self):
        bitgen = PCG64(0)
        words = _state_words(bitgen)
        if words is None:
            pytest.skip("PCG64 keeps (state, inc) in another layout here; draws use the setter")
        key = stream_keys([2 ** 64 - 1])[0]
        words[:] = key
        state = bitgen.state["state"]
        assert [state["state"], state["inc"]] == [
            int(key[1]) << 64 | int(key[0]), int(key[3]) << 64 | int(key[2])]

    @pytest.mark.parametrize("seed", (-1, 2 ** 64))
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            stream_keys([seed])


class TestSampleEnsemble:
    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    def test_reproducible_and_thread_invariant(self, route):
        spec = ProcessSpec([1.0, 0.0, 0.5], [0.3, 0.6, 0.8])
        grid = TimeGrid.uniform(12, 1.0)
        a = msfbm.sample_ensemble(spec, grid, 64, 5, sampler=route, n_threads=1)
        b = msfbm.sample_ensemble(spec, grid, 64, 5, sampler=route, n_threads=4)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    @pytest.mark.parametrize("n_reps", (1, 5, 64))
    def test_blocks_are_thread_invariant(self, route, n_reps):
        spec = ProcessSpec([1.0, 0.0, -0.5], [0.3, 0.6, 0.8])
        grid = TimeGrid.uniform(12, 1.0)
        one = msfbm.sample_ensemble(spec, grid, n_reps, 5, sampler=route, n_threads=1)
        for n_threads in (2, 4, 7):
            many = msfbm.sample_ensemble(spec, grid, n_reps, 5, sampler=route, n_threads=n_threads)
            assert many.values.tobytes() == one.values.tobytes()

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    def test_stream_seeds_follow_the_scalar_chain(self, route, monkeypatch):
        # The top master seed wraps every uint64 sum.  Every route draws replica
        # k's one stream from derive_seed(master, k), whatever its components.
        spec = ProcessSpec([1.0, 0.0, 0.5], [0.3, 0.6, 0.8])
        grid = TimeGrid.uniform(12, 1.0)
        master, n_reps = 2 ** 64 - 1, 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = msfbm.sample_ensemble(spec, grid, n_reps, master, sampler=route).values
            chain = [derive_seed(master, k) for k in range(n_reps)]
            monkeypatch.setattr(sampler, "replica_seeds",
                                lambda *args: np.array(chain, dtype=np.uint64))
            want = msfbm.sample_ensemble(spec, grid, n_reps, master, sampler=route).values
        assert got.tobytes() == want.tobytes()

    def test_values_are_read_only(self):
        ens = msfbm.sample_ensemble(ProcessSpec([1.0], [0.3]), TimeGrid.uniform(6, 1.0), 4, 1)
        assert ens.values.shape == (4, 6)
        with pytest.raises(ValueError, match="read-only"):
            ens.values[0, 1] = 1.0

    def test_non_finite_row_is_refused_once(self, monkeypatch):
        # One replica's stream is poisoned; the check on the whole matrix refuses it.
        real_stream = sampler.normal_stream
        poison = stream_keys([derive_seed(3, 2)])[0]

        def stream(key, size, out=None):
            z = real_stream(key, size, out=out)
            if np.array_equal(key, poison):
                z.fill(np.nan)
            return z

        monkeypatch.setattr(sampler, "normal_stream", stream)
        with pytest.raises(ValueError, match="path values must be finite"):
            msfbm.sample_ensemble(ProcessSpec([1.0], [0.3]), TimeGrid.uniform(6, 1.0), 5, 3,
                                  sampler="exact")
        grid = TimeGrid.uniform(3, 1.0)
        for values, diagnostic in [
            ([[0.0, 1.0, 2.0], [0.0, np.nan, 1.0]], "path values must be finite"),
            ([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]], "start at value 0"),
            ([[0.0, 1.0, 2.0, 3.0]], "values and grid lengths differ"),
            ([0.0, 1.0, 2.0], "values and grid lengths differ"),
        ]:
            with pytest.raises(ValueError, match=diagnostic):
                sampler.Ensemble(spec=ProcessSpec([1.0], [0.5]), grid=grid, values=values,
                                 master_seed=0)

    def test_centered_mean(self):
        spec = ProcessSpec([1.0], [0.3])
        grid = TimeGrid.uniform(8, 1.0)
        ens = msfbm.sample_ensemble(spec, grid, 10_000, 13)
        v = ens.values
        for idx in range(1, grid.n_points):
            sd = np.sqrt(msfbm.msfbm_var(spec, grid.times[idx]) / 10_000)
            assert abs(float(np.mean(v[:, idx]))) <= 4 * sd

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            msfbm.sample_ensemble(ProcessSpec([1.0], [0.5]), TimeGrid.uniform(4, 1.0), 0, 1)

    def test_values_start_at_zero(self):
        ens = msfbm.sample_ensemble(
            ProcessSpec([1.0], [0.8]), TimeGrid.uniform(6, 1.0), 50, 9, sampler="fbm"
        )
        assert np.all(ens.values[:, 0] == 0.0)


class TestPreparedDraw:
    """``_Draw``: one route, factor or spectrum and set of stream keys, drawn in blocks."""

    SPEC = ProcessSpec([1.0, 0.0, -0.5], [0.3, 0.6, 0.8])
    GRID = TimeGrid.uniform(12, 1.0)

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    def test_blocks_are_the_rows_of_the_whole_ensemble(self, route):
        whole = msfbm.sample_ensemble(self.SPEC, self.GRID, 7, 5, sampler=route)
        draw = sampler._Draw(self.SPEC, self.GRID, 7, 5, sampler=route, n_threads=2,
                             streamed=True)
        first = draw.block(0, 3)
        before = first.values.tobytes()
        later = [draw.block(3, 4), draw.block(4, 7)]
        # A later block reuses the workers' draw buffers, never an earlier block's rows.
        assert first.values.tobytes() == before
        assert not any(np.shares_memory(first.values, b.values) for b in later)
        got = np.concatenate([first.values] + [b.values for b in later])
        assert got.tobytes() == whole.values.tobytes()
        assert (first.sampler, first.jitter, first.master_seed) == (
            whole.sampler, whole.jitter, whole.master_seed)

    def test_one_spectrum_for_every_block(self, monkeypatch):
        calls = []
        real = sampler._fgn_spectrum
        monkeypatch.setattr(sampler, "_fgn_spectrum",
                            lambda *args: calls.append(1) or real(*args))
        draw = sampler._Draw(self.SPEC, self.GRID, 4, 5, sampler="fgn", streamed=True)
        for lo in range(4):
            draw.block(lo, lo + 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("lo,hi", [(0, 0), (2, 1), (-1, 2), (3, 5)])
    def test_block_outside_the_draw_is_refused(self, lo, hi):
        draw = sampler._Draw(self.SPEC, self.GRID, 4, 5, sampler="fgn")
        with pytest.raises(ValueError, match="is not a non-empty part of"):
            draw.block(lo, hi)

    def test_streamed_draw_counts_one_row(self, monkeypatch):
        grid = TimeGrid.uniform(2 ** 14 + 1, 1.0)
        budget = (_plan(grid, 4, "fgn", streamed=True).need + _plan(grid, 4, "fgn").need) // 2
        monkeypatch.setattr(sampler, "_MEMORY_BUDGET", budget)
        monkeypatch.setattr(sampler, "_fgn_spectrum", _fail_if_called)
        with pytest.raises(ValueError, match=r"the fgn route for 4 replica\(s\) on 16385 points"):
            sampler._Draw(self.SPEC, grid, 4, 5, sampler="fgn")
        with pytest.raises(AssertionError, match="allocated"):
            sampler._Draw(self.SPEC, grid, 4, 5, sampler="fgn", streamed=True)


class TestWorkerCap:
    """``_plan``'s workers: a further replica worker starts only where its buffers fit."""

    M = 2 ** 14

    def test_default_budget_caps_by_threads_and_replicas(self):
        grid = TimeGrid.uniform(257, 1.0)
        for route in ("exact", "fbm", "fgn"):
            for streamed in (False, True):
                assert _plan(grid, 5, route, 4, streamed).n_workers == 4
                assert _plan(grid, 3, route, 64, streamed).n_workers == 3
                assert _plan(grid, 5, route, 1, streamed).n_workers == 1

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    @pytest.mark.parametrize("streamed", (False, True))
    def test_further_workers_only_where_they_fit(self, monkeypatch, route, streamed):
        grid, n_reps = TimeGrid.uniform(self.M + 1, 1.0), 40
        # The estimates do not depend on the budget; a large one lets them be read.
        monkeypatch.setattr(sampler, "_MEMORY_BUDGET", 2 ** 62)
        plan = _plan(grid, n_reps, route, 8, streamed)
        base, further = plan.need, plan.further
        for room, want in ((0, 1), (further - 1, 1), (further, 2), (3 * further - 1, 3),
                           (3 * further, 4), (100 * further, 8)):
            monkeypatch.setattr(sampler, "_MEMORY_BUDGET", base + room)
            assert _plan(grid, n_reps, route, 8, streamed).n_workers == want

    def test_estimates_are_the_documented_counts(self):
        # Doubles: three n x n Grams (n = m for exact, 2m for fbm), or fgn's
        # half spectrum and one workspace of six vectors of 4m + 1, plus the
        # rows held; a further worker holds its workspace and, streamed, a row.
        m = 256
        grid = TimeGrid.uniform(m + 1, 1.0)
        for route, held, workspace in (("exact", 3 * m * m, m), ("fbm", 12 * m * m, 2 * m),
                                       ("fgn", 2 * m + 1 + 6 * (4 * m + 1), 6 * (4 * m + 1))):
            for streamed, rows in ((False, 5), (True, 1)):
                plan = _plan(grid, 5, route, streamed=streamed)
                assert plan.need == 8 * (held + rows * (m + 1))
                assert plan.further == 8 * (workspace + (m + 1 if streamed else 0))

    def test_plan_is_a_pure_function_of_the_request(self):
        grid = TimeGrid.uniform(257, 1.0)
        for route in ("exact", "fbm", "fgn"):
            for streamed in (False, True):
                plans = [_plan(grid, 100, route, n, streamed) for n in (1, 2, 4, 64)]
                assert [p.n_workers for p in plans] == [1, 2, 4, 64]
                assert {replace(p, n_workers=1) for p in plans} == {plans[0]}
        # 10^5 rows of 4097 points are 3.1 GiB on every route.
        grid = TimeGrid.uniform(4097, 1.0)
        for route in ("exact", "fbm", "fgn"):
            refusals = set()
            for n in (1, 2, 4, 64):
                with pytest.raises(ValueError, match="memory budget") as refused:
                    _plan(grid, 10 ** 5, route, n)
                refusals.add(str(refused.value))
            assert len(refusals) == 1

    @pytest.mark.parametrize("route,grid", [
        ("fgn", TimeGrid.uniform(2 ** 14 + 1, 1.0)),
        ("exact", TimeGrid(np.cumsum(np.concatenate(
            [[0.0], np.random.default_rng(5).uniform(0.5, 1.5, 300)])))),
    ], ids=("fgn", "exact"))
    def test_further_workers_peak_within_plan_estimate(self, route, grid):
        # The draw buffers of four workers, all live at once, against the
        # estimate with every further worker counted.
        spec = ProcessSpec([1.5, -0.7], [0.3, 0.8])
        plan = _plan(grid, 4, route, 4)
        assert plan.n_workers == 4
        tracemalloc.start()
        try:
            msfbm.sample_ensemble(spec, grid, 4, 3, sampler=route, n_threads=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= plan.need + (plan.n_workers - 1) * plan.further

    def test_capped_workers_draw_the_same_bytes(self, monkeypatch):
        spec, grid = ProcessSpec([1.0, -0.5], [0.3, 0.8]), TimeGrid.uniform(2 ** 10 + 1, 1.0)
        one = msfbm.sample_ensemble(spec, grid, 5, 3, sampler="fgn", n_threads=1)
        plan = _plan(grid, 5, "fgn")
        monkeypatch.setattr(sampler, "_MEMORY_BUDGET", plan.need + plan.further)
        draw = sampler._Draw(spec, grid, 5, 3, sampler="fgn", n_threads=4)
        assert draw.plan.n_workers == len(draw.fills) == 2
        assert draw.block(0, 5).values.tobytes() == one.values.tobytes()


def _fail_if_called(*args, **kwargs):
    raise AssertionError("a refused route allocated its arrays")


class TestRoute:
    SPEC = ProcessSpec([1.0, 1.0], [0.4, 0.8])

    def test_auto_takes_circulant_where_cheaper(self):
        grid = TimeGrid.uniform(2049, 1.0)
        assert _plan(grid, 64, "auto").route == "fgn"
        auto = msfbm.sample_ensemble(self.SPEC, grid, 64, 3)
        fgn = msfbm.sample_ensemble(self.SPEC, grid, 64, 3, sampler="fgn")
        assert auto.sampler == "fgn"
        assert np.array_equal(auto.values, fgn.values)

    def test_non_uniform_grid_stays_exact(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, 2049) ** 1.5)
        assert _plan(grid, 64, "auto").route == "exact"

    def test_auto_follows_the_cost_estimate_alone(self):
        # The README's crossover table at 129 points: fgn measured faster for one
        # replica and exact for 64, with one active component and with two; the
        # router reads no spec.
        grid = TimeGrid.uniform(129, 1.0)
        assert _plan(grid, 1, "auto").route == "fgn"
        assert _plan(grid, 64, "auto").route == "exact"

    def test_many_replicas_on_short_grid_stay_exact(self):
        # The exact route measured about five times faster here (README, "Sampler routing").
        assert _plan(TimeGrid.uniform(257, 1.0), 3000, "auto").route == "exact"

    def test_explicit_sampler_is_kept(self):
        grid = TimeGrid.uniform(2049, 1.0)
        for name in ("exact", "fbm", "fgn"):
            assert _plan(grid, 1, name).route == name
        with pytest.raises(ValueError, match="unknown sampler"):
            _plan(grid, 1, "dense")

    def test_fbm_route_over_budget_is_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(sampler, "_fbm_fill", _fail_if_called)
        grid = TimeGrid.uniform(20_000, 1.0)
        with pytest.raises(ValueError, match="the fbm route .* memory budget"):
            msfbm.sample_ensemble(self.SPEC, grid, 1, 0, sampler="fbm")


class TestInertComponents:
    """Zero-weight components are never evaluated, factored, budgeted or drawn."""

    LIVE = ProcessSpec([1.0], [0.5])
    PADDED = ProcessSpec([1.0, 0.0], [0.5, 0.99])

    # The fbm builder returns the Gram's size, scratch count and block filler;
    # what it builds is the Gram they make.
    @pytest.mark.parametrize("route,builder,built_array", [
        ("fbm", "_fbm_fill", lambda fill: sampler._symmetric_gram(*fill)),
        ("fgn", "_fgn_spectrum", np.asarray),
    ], ids=["fbm-_fbm_fill", "fgn-_fgn_spectrum"])
    def test_padded_spec_draws_the_live_spec(self, monkeypatch, route, builder, built_array):
        grid = TimeGrid.uniform(65, 1.0)
        live = msfbm.sample_ensemble(self.LIVE, grid, 5, 11, sampler=route)
        built = []
        original = getattr(sampler, builder)

        def counted(spec, grid):
            out = original(spec, grid)
            built.append(built_array(out).tobytes())
            return out

        monkeypatch.setattr(sampler, builder, counted)
        padded = msfbm.sample_ensemble(self.PADDED, grid, 5, 11, sampler=route)
        assert built == [built_array(original(self.LIVE, grid)).tobytes()]
        assert padded.values.tobytes() == live.values.tobytes()
        assert padded.jitter == live.jitter

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    def test_front_padded_spec_draws_the_live_spec(self, route):
        # A zero weight ahead of the live component must not move its stream.
        grid = TimeGrid.uniform(65, 1.0)
        live = msfbm.sample_ensemble(self.LIVE, grid, 5, 11, sampler=route)
        padded = msfbm.sample_ensemble(ProcessSpec([0.0, 1.0], [0.3, 0.5]), grid, 5, 11,
                                       sampler=route)
        assert padded.values.tobytes() == live.values.tobytes()

    def test_builders_skip_zero_weights(self):
        grid = TimeGrid.uniform(9, 1.0)
        spec = ProcessSpec([0.0, 2.0, 0.0], [0.3, 0.7, 0.9])
        live = ProcessSpec([2.0], [0.7])
        for build in (gram_matrix, _fbm_gram, _fgn_spectrum):
            assert build(spec, grid).tobytes() == build(live, grid).tobytes()


def _linear_map(route, spec, grid):
    """The route's map A from one replica's normals to its path at t > 0,
    built column by column: the path that one worker's map (``_route_rows``)
    writes from each unit vector in its normals buffer z."""
    z, apply = _route_rows(route, spec, grid)[0]()
    columns = np.empty((z.size, grid.n_points - 1))
    for i, column in enumerate(columns):
        z.fill(0.0)
        z[i] = 1.0
        apply(column)
    return columns.T


_LAW_GRIDS = {"uniform-2": TimeGrid.uniform(2, 1.0), "uniform-4": TimeGrid.uniform(4, 0.5),
              "uniform-9": TimeGrid.uniform(9, 1.0), "uniform-10": TimeGrid.uniform(10, 3.0),
              "uniform-33": TimeGrid.uniform(33, 2.0),
              "non-uniform": TimeGrid(np.linspace(0.0, 2.0, 20) ** 1.5)}


class TestLaw:
    """Every route is one linear map A of one normal stream, so its paths have
    covariance A A^T: noise-free, it must be the process Gram."""

    SPEC = ProcessSpec([1.5, -0.7, 2.0], [0.2, 0.5, 0.9])

    @pytest.mark.parametrize("route,grid", [
        (route, grid) for route in ("exact", "fbm", "fgn") for grid in _LAW_GRIDS
        if route != "fgn" or grid != "non-uniform"])
    def test_map_reproduces_the_process_gram(self, route, grid):
        grid = _LAW_GRIDS[grid]
        a = _linear_map(route, self.SPEC, grid)
        g = gram_matrix(self.SPEC, grid)
        assert np.max(np.abs(a @ a.T - g)) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    @pytest.mark.parametrize("weight", (1e200, 1e-200))
    def test_extreme_weights_are_drawn(self, route, weight):
        # Every route draws the spec with weights a_i / max |a_i| and scales the
        # paths by max |a_i|, so neither a^2 overflowing nor a^2 underflowing
        # refuses these specs.
        grid = TimeGrid.uniform(17, 1.0)
        unit = msfbm.sample_ensemble(ProcessSpec([1.0], [0.3]), grid, 3, 4, sampler=route).values
        got = msfbm.sample_ensemble(ProcessSpec([weight], [0.3]), grid, 3, 4, sampler=route).values
        assert np.max(np.abs(got / weight - unit)) <= 1e-14 * np.max(np.abs(unit))
        for coeffs in ([weight, 1.0], [1.0, -weight]):
            ens = msfbm.sample_ensemble(ProcessSpec(coeffs, [0.3, 0.8]), grid, 3, 4, sampler=route)
            assert np.max(np.abs(ens.values)) > 0.0


def _rfp_reference(g):
    """G in RFP storage (TRANSR = 'N', UPLO = 'L'), mapped entry by entry from
    the layout's definition: G[i, j], i <= j, sits in R[i, j + 1 - e] for
    i < k and in R[j - k + e, i - k] for i >= k; k = ceil(n/2), e = n mod 2.
    Also counts how often each cell is written."""
    n = g.shape[0]
    k, e = (n + 1) // 2, n % 2
    ref = np.full((k, n + 1 - e), np.nan)
    writes = np.zeros(ref.shape, dtype=int)
    for i in range(n):
        for j in range(i, n):
            cell = (i, j + 1 - e) if i < k else (j - k + e, i - k)
            ref[cell] = g[i, j]
            writes[cell] += 1
    return ref, writes


@pytest.mark.skipif(sampler._rfp() is None,
                    reason="numpy's BLAS does not export dpftrf, dtrmv and dgemv")
class TestRfpFactor:
    """The dense routes' Gram, factor and draw in rectangular full packed storage."""

    @pytest.mark.parametrize("n", (1, 2, 7, 8, 31, 32, 33, 64, 65, 301))
    @pytest.mark.parametrize("n_components", (1, 2, 3))
    @pytest.mark.parametrize("uniform", (True, False), ids=("uniform", "non-uniform"))
    def test_fill_bit_equal_to_gram_matrix(self, n, n_components, uniform):
        rng = np.random.default_rng(1000 * n + 10 * n_components + uniform)
        spec = ProcessSpec(rng.uniform(-2.0, 2.0, n_components),
                           rng.uniform(0.05, 0.95, n_components))
        times = (np.linspace(0.0, 2.0, n + 1) if uniform
                 else np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n))]))
        grid = TimeGrid(times)
        assert grid.is_uniform() == uniform or n == 1  # two points are always uniform
        # The process Gram, and the fbm route's Gram of W on the symmetric grid.
        for fill, gram in ((sampler._gram_fill, gram_matrix), (_fbm_fill, _fbm_gram)):
            ref, writes = _rfp_reference(gram(spec, grid))
            assert np.all(writes == 1)
            got = sampler._rfp_gram(*fill(spec, grid))
            assert got.tobytes() == ref.tobytes()

    def test_failed_rung_is_refilled_and_jittered_as_psd_factor(self, monkeypatch):
        # test_near_singular_dense_grid's coincident pair: dpftrf fails at
        # jitter 0, and the rung that succeeds is psd_factor's.
        spec, grid = ProcessSpec([1.0], [0.9]), TimeGrid(_COINCIDENT_PAIR)
        builds = []
        real = sampler._rfp_gram
        monkeypatch.setattr(sampler, "_rfp_gram", lambda *args: builds.append(1) or real(*args))
        ens = msfbm.sample_ensemble(spec, grid, 3, 7, sampler="exact")
        g = gram_matrix(spec, grid)
        assert ens.jitter > 0.0
        assert ens.jitter == msfbm.psd_factor(g.copy()).jitter
        # One build per rung tried, the last the one that succeeded.
        assert ens.jitter == JITTER_LADDER[len(builds) - 1] * np.max(np.diag(g))
        a = _linear_map("exact", spec, grid)
        assert np.max(np.abs(a @ a.T - g)) <= 1e-12 * np.max(np.abs(g))

    def test_indefinite_gram_fails_on_every_rung(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        builds = []

        def fill_block(lo, hi, dest, work):
            builds.append(lo)
            dest[...] = bad[lo:hi, lo:]

        with pytest.raises(FactorizationFailure, match="all jitter levels"):
            sampler._rfp_factor(2, 0, fill_block, lambda diag: None)
        # Two blocks of one row, built again on every rung.
        assert builds == [1, 0] * len(JITTER_LADDER)


class _WithoutRfp:
    """Runs its class's tests with the RFP binding patched away, so the dense
    routes take the whole Gram, ``np.linalg.cholesky`` and ``_dense_map``
    path of platforms whose BLAS lacks it."""

    @pytest.fixture(autouse=True)
    def _without_rfp(self, monkeypatch):
        monkeypatch.setattr(sampler, "_rfp", lambda: None)


class TestLawWithoutRfp(_WithoutRfp, TestLaw):
    pass


class TestPreparedDrawWithoutRfp(_WithoutRfp, TestPreparedDraw):
    pass


class TestWorkerCapWithoutRfp(_WithoutRfp, TestWorkerCap):
    pass


class TestBlasThreads:
    """The dense routes' bytes at one and two BLAS threads, in child processes,
    since OpenBLAS reads its thread count once, when it loads."""

    # Grids made as the benchmark's simulate-nonuniform grid is: gaps uniform
    # in [0.5, 1.5), scaled to [0, 1] and warped by t^1.5.
    _SCRIPT = """
import numpy as np, msfbm
spec = msfbm.ProcessSpec([1.0, 1.0], [0.4, 0.8])
for n_points in (65, 301):
    steps = np.random.default_rng(3).uniform(0.5, 1.5, n_points - 1)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    times = (cum / cum[-1]) ** 1.5
    for route in ("exact", "fbm"):
        values = msfbm.sample_ensemble(spec, msfbm.TimeGrid(times), 4, 3, sampler=route).values
        print(n_points, route, values.tobytes().hex())
"""

    @staticmethod
    def _paths(blas_threads):
        proc = subprocess.run([sys.executable, "-c", TestBlasThreads._SCRIPT],
                              capture_output=True, text=True,
                              env=dict(package_env(), OPENBLAS_NUM_THREADS=blas_threads))
        assert proc.returncode == 0, proc.stderr
        return {(int(n), route): np.frombuffer(bytes.fromhex(hexed))
                for n, route, hexed in map(str.split, proc.stdout.splitlines())}

    def test_paths_agree_to_rounding_and_small_exact_grids_to_the_bit(self):
        one, two = self._paths("1"), self._paths("2")
        assert one.keys() == two.keys() == {(n, r) for n in (65, 301) for r in ("exact", "fbm")}
        for key in one:
            scale = np.max(np.abs(one[key]))
            assert np.max(np.abs(one[key] - two[key])) <= 1e-12 * scale, key
        # On a 2-vCPU Xeon (OpenBLAS core SkylakeX) exact bytes first differed
        # at 100 points, fbm's at 52 (README, "Determinism").
        assert one[65, "exact"].tobytes() == two[65, "exact"].tobytes()


class TestOverflow:
    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    def test_overflowing_covariance_is_an_arithmetic_error(self, route):
        grid = TimeGrid.uniform(5, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=f"the {route} route's .* overflow"):
                msfbm.sample_ensemble(ProcessSpec([1.0], [0.9]), grid, 1, 0, sampler=route)

    @pytest.mark.parametrize("route,hurst,horizon", [("exact", 0.7, 1e-310),
                                                     ("fbm", 0.7, 1e-310),
                                                     ("fgn", 0.9, 1e-200)])
    def test_underflowing_covariance_is_an_arithmetic_error(self, route, hurst, horizon):
        # The paths' scale horizon^H is a double, but their variances underflow to 0:
        # fgn drew all-zero paths, and exact and fbm failed to factor.
        grid = TimeGrid.uniform(5, horizon)
        with pytest.raises(ArithmeticError, match=f"the {route} route's .* underflow to 0"):
            msfbm.sample_ensemble(ProcessSpec([1.0], [hurst]), grid, 1, 0, sampler=route)

    @pytest.mark.parametrize("route", ("exact", "fbm", "fgn"))
    @pytest.mark.parametrize("weight,horizon,word", [(1e300, 1e30, "overflow"),
                                                     (1e-300, 1e-100, "underflow to 0")])
    def test_paths_out_of_range_once_scaled_are_an_arithmetic_error(self, route, weight, horizon,
                                                                    word):
        # The unit spec's covariances are positive and finite here; its paths
        # times the weight are not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=f"the {route} route's paths .* {word}"):
                msfbm.sample_ensemble(ProcessSpec([weight], [0.9]), TimeGrid.uniform(5, horizon),
                                      2, 0, sampler=route)
