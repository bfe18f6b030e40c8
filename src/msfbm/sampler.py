"""Exact Gaussian samplers for mixed sub-fractional paths on finite grids.

``sample_ensemble`` is the only way to draw paths.  Its router takes one of
three routes, all with the process's finite-dimensional law, and every
route maps one i.i.d. normal stream per replica to its path:

* "exact" factorizes the process Gram matrix on the grid and maps the
  normals through the factor.
* "fbm" and "fgn" draw W = sum_i a_i B_i over the active components, the
  B_i independent fractional Brownian motions on the symmetric grid
  {-t_k, ..., t_k}, and one fold writes (W(t) + W(-t))/sqrt(2) into the
  path.  W is one centred Gaussian vector with covariance sum_i a_i^2 K_i,
  K_i the fBm kernel of H_i, and is drawn from that covariance at once.
* "fbm" maps the normals through the factor of W's dense Gram.
* "fgn" draws W's increments on uniform grids through circulant embedding
  (Davies-Harte; Wood & Chan 1994), which is still exact and scales to
  2^16-point paths.  The embedding's circulant row, W's weighted sum of
  the components' increment autocovariances, is real and symmetric, so
  only its N/2 + 1 distinct eigenvalues are kept.

Both dense routes factor their Gram with one kernel and one jitter loop
(``_ladder``): in rectangular full packed storage, one triangle in
n(n + 1)/2 doubles, where numpy's BLAS exports LAPACK's ``dpftrf``
(``_rfp_factor``), and with ``np.linalg.cholesky`` elsewhere.

Every route draws the unit spec, whose weights are a_i / s with
s = max |a_i| (``ProcessSpec.unit``), and the ensemble is scaled by s once,
so the squared weights neither overflow nor all underflow on any route.

Zero-weight components are inert on every route: they are never evaluated,
factored or drawn, so a spec padded with them draws its live spec's bytes.

All paths are pure functions of (spec, grid, seed): replicas can be
generated concurrently in any order without changing a single bit.  An
ensemble is one read-only (n_reps, n_points) array.  A draw is prepared
once (``_Draw``): its route, unit spec, scale, factor or spectrum, jitter and
the seeding of all its normal streams.  It then fills blocks of replica rows
lo..hi-1, each a fresh array with the bytes of those rows of the whole
ensemble, each replica writing its path straight into its own row;
``sample_ensemble`` is one block of every row.  Each replica worker takes a
contiguous part of a block, and its draw buffers are allocated once per
draw, not once per block.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .kernels import _p2h_array, _second_diff
from .process import ProcessSpec
from .seeds import normal_stream, replica_seeds, stream_keys

__all__ = [
    "TimeGrid",
    "Ensemble",
    "FactorResult",
    "FactorizationFailure",
    "gram_matrix",
    "psd_factor",
    "sample_ensemble",
    "JITTER_LADDER",
]

# Relative jitter escalation for barely-indefinite Gram matrices.
JITTER_LADDER = (0.0, 1e-14, 1e-12, 1e-10)

# Fixed cost of one circulant replica draw beyond its inverse FFT (seeding and
# drawing its normal stream, scaling it by the spectrum, and the cumulative
# sum and fold) in the operation units of the routing estimates, measured by
# scripts/route_crossover.py (README, "Sampler routing").
_FGN_DRAW_OPS = 3.5e5

# Most bytes the arrays of one route may hold at once.  A request over it is
# refused before anything is allocated, so it ends in a diagnostic and not in
# an out-of-memory kill.  It is a constant, not a probe of the machine, so
# routing stays a pure function of its inputs.
_MEMORY_BUDGET = 2 * 2 ** 30

# Row height of the blocks in which dense Gram matrices are evaluated: small
# enough that a block's temporaries stay in cache, tall enough that the
# per-block numpy call overhead is negligible.
_GRAM_ROWS = 32

# Edge of the square tiles in which ``psd_factor`` compares a matrix with its
# transpose: a tile and its mirror tile fit in cache together.
_SYM_TILE = 64


class FactorizationFailure(RuntimeError):
    """Gram factorization failed at every jitter level."""


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0."""

    times: np.ndarray

    def __init__(self, times: Sequence[float]):
        arr = np.asarray(times, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("grid needs at least two time points")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid times must be finite")
        if arr[0] != 0.0:
            raise ValueError("grid must start at t = 0")
        if not np.all(np.diff(arr) > 0.0):
            raise ValueError("grid times must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "times", arr)

    @classmethod
    def uniform(cls, n_points: int, horizon: float) -> "TimeGrid":
        if n_points < 2:
            raise ValueError("grid needs at least two time points")
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"horizon must be a positive finite number, got {horizon!r}")
        return cls(np.linspace(0.0, float(horizon), int(n_points)))

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def is_uniform(self) -> bool:
        """True when every step is within a relative 1e-9 of the first."""
        steps = np.diff(self.times)
        return bool(np.all(np.abs(steps - steps[0]) <= 1e-9 * steps[0]))


@dataclass(frozen=True)
class Ensemble:
    """Independent replicas sharing a grid, drawn from one master seed.

    ``values`` is one read-only (n_reps, n_points) array whose row k is the
    path of replica k; every row starts at 0 and all values are finite, which
    is checked once on the whole array.
    """

    spec: ProcessSpec
    grid: TimeGrid
    values: np.ndarray
    master_seed: int
    sampler: str = "exact"
    jitter: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.grid.n_points:
            raise ValueError("values and grid lengths differ")
        if np.any(arr[:, 0] != 0.0):
            raise ValueError("path must start at value 0")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_reps(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class FactorResult:
    """Lower-triangular factor with the jitter that made it succeed."""

    lower: np.ndarray
    jitter: float


def _symmetric_gram(
    n: int, n_work: int, fill_block: Callable[[int, int, np.ndarray, list], None]
) -> np.ndarray:
    """A symmetric n x n matrix built from its upper triangle.

    ``fill_block(lo, hi, dest, work)`` writes into ``dest`` the matrix's
    rows lo..hi-1 from the diagonal column lo rightward, of a kernel
    symmetric in its two points.  ``work`` holds ``n_work`` scratch
    arrays of the same (hi - lo, n - lo) shape: C-contiguous views of one
    workspace that every block reuses.  The block's part right of its
    diagonal square is mirrored into the lower triangle, so about half the
    entries are evaluated.  The square itself is evaluated whole, and is
    exactly symmetric because every operation of the kernels is symmetric
    in its two points, so the result is exactly symmetric.
    """
    mat = np.empty((n, n))
    for lo, hi, work in _gram_blocks(n, n_work, (0, n)):
        fill_block(lo, hi, mat[lo:hi, lo:], work)
        mat[hi:, lo:hi] = mat[lo:hi, hi:].T
    return mat


def _gram_blocks(n: int, n_work: int, *spans: tuple[int, int]) -> Iterator[tuple[int, int, list]]:
    """(lo, hi, work) for the ``_GRAM_ROWS``-row blocks of the rows
    start..stop-1 of an n x n matrix, for each (start, stop) of ``spans`` in
    turn, ``work`` being ``n_work`` scratch arrays of the block's
    (hi - lo, n - lo) shape: C-contiguous views of one workspace."""
    space = np.empty((n_work, _GRAM_ROWS * n))
    for start, stop in spans:
        for lo in range(start, stop, _GRAM_ROWS):
            hi = min(lo + _GRAM_ROWS, stop)
            size = (hi - lo) * (n - lo)
            yield lo, hi, [buf[:size].reshape(hi - lo, n - lo) for buf in space]


def _log_abs_diff(rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> None:
    """log|t_i - t_j| of a block from the diagonal rightward into ``out``,
    with log 1 on the block diagonal.  Distinct times never differ by 0, so
    the diagonal, where each time meets itself, holds the only zeros."""
    np.subtract(rows, cols, out=out)
    np.abs(out, out=out)
    np.fill_diagonal(out, 1.0)
    np.log(out, out=out)


def _pow_abs_diff(two_h: float, log_diff: np.ndarray, out: np.ndarray) -> None:
    """|t_i - t_j|^(2h) from ``_log_abs_diff`` into ``out``: the same bits as
    ``_p2h_array``, with 0^(2h) = 0 on the block diagonal."""
    np.multiply(two_h, log_diff, out=out)
    np.exp(out, out=out)
    np.fill_diagonal(out, 0.0)


def _gram_fill(spec: ProcessSpec, grid: TimeGrid) -> tuple[int, int, Callable]:
    """The process Gram's size n at the positive grid times, and the count of
    scratch arrays and block filler that ``_symmetric_gram`` or ``_rfp_gram``
    builds it from."""
    t = grid.times[1:]
    two_hs = [2.0 * h for _, h in spec.active()]
    powers = [_p2h_array(t, two_h) for two_h in two_hs]
    # Squared in numpy, so that an overflowing a^2 sets its floating-point flag.
    weights = np.square(np.asarray([a for a, _ in spec.active()], dtype=float))

    def fill_block(lo: int, hi: int, g: np.ndarray, work: list) -> None:
        # g += w * (t_i^2h + t_j^2h - 0.5 * ((t_i + t_j)^2h + |t_i - t_j|^2h)),
        # one operation at a time in the order numpy evaluates that expression,
        # so the block has the expression's bits.
        log_sum, log_diff, term, pow_sum, pow_diff = work
        rows, cols = t[lo:hi, None], t[None, lo:]
        np.add(rows, cols, out=log_sum)
        np.log(log_sum, out=log_sum)
        _log_abs_diff(rows, cols, log_diff)
        g.fill(0.0)
        for w, two_h, pt in zip(weights, two_hs, powers):
            np.add(pt[lo:hi, None], pt[None, lo:], out=term)
            np.multiply(two_h, log_sum, out=pow_sum)
            np.exp(pow_sum, out=pow_sum)
            _pow_abs_diff(two_h, log_diff, pow_diff)
            np.add(pow_sum, pow_diff, out=pow_sum)
            np.multiply(0.5, pow_sum, out=pow_sum)
            np.subtract(term, pow_sum, out=term)
            np.multiply(w, term, out=term)
            np.add(g, term, out=g)

    return t.size, 5, fill_block


def gram_matrix(spec: ProcessSpec, grid: TimeGrid) -> np.ndarray:
    """Process covariance at the positive grid times (t = 0 row excluded)."""
    return _symmetric_gram(*_gram_fill(spec, grid))


def _is_symmetric(g: np.ndarray) -> bool:
    """Whether the square ``g`` equals its transpose in every entry (NaN never
    does), each tile on and below the diagonal against its mirror tile."""
    tiles = [slice(lo, lo + _SYM_TILE) for lo in range(0, g.shape[0], _SYM_TILE)]
    return all(np.array_equal(g[rows, cols], g[cols, rows].T)
               for i, rows in enumerate(tiles) for cols in tiles[:i + 1])


def _ladder(gram: np.ndarray, cells: np.ndarray, check: Callable, kernel: Callable,
            refill: Callable | None = None) -> tuple[np.ndarray, float]:
    """The factor L that ``kernel`` makes of G + eps*I, and eps: the first rung
    of ``JITTER_LADDER`` times G's largest diagonal value on which it succeeds.

    ``gram`` holds the symmetric G, the caller's to overwrite, and ``cells``
    the flat indices of G's diagonal in it, whose values ``check`` sees
    first.  ``kernel(gram)`` returns L or, as ``np.linalg.cholesky`` does in
    any floating-point state, raises LinAlgError.  Each further rung writes
    G's diagonal plus eps into those cells, after ``refill(gram)`` builds G
    again where the kernel overwrites its input.
    """
    flat = gram.reshape(-1)
    diag = flat[cells]
    check(diag)
    max_diag = float(np.max(diag)) if diag.size else 0.0
    for rung, level in enumerate(JITTER_LADDER):
        eps = level * max_diag
        if rung:
            if refill:
                refill(gram)
            flat[cells] = diag + eps
        try:
            return kernel(gram), eps
        except np.linalg.LinAlgError:
            pass
    raise FactorizationFailure(f"cholesky failed at all jitter levels {JITTER_LADDER}")


def _finite_diagonal(diag: np.ndarray) -> None:
    if not np.all(np.isfinite(diag)):
        raise ValueError("gram matrix diagonal must be finite")


def psd_factor(g: np.ndarray) -> FactorResult:
    """Cholesky factor of g + eps*I, escalating eps until factorization succeeds.

    ``g`` must be square and symmetric with a finite diagonal (ValueError).
    It is factored in a private copy and never written.  The factor is
    ``np.linalg.cholesky``'s of g with eps added on its diagonal, C-ordered:
    the dense routes' per-replica ``L @ z`` keeps its bits only in C order.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("gram matrix must be square")
    if not _is_symmetric(g):
        raise ValueError("gram matrix must be symmetric")
    n = g.shape[0]
    return FactorResult(*_ladder(np.array(g, order="C"), np.arange(n) * (n + 1),
                                 _finite_diagonal, np.linalg.cholesky))


def _refuse_underflow(route: str, grid: TimeGrid, variances: np.ndarray) -> None:
    """Raise ArithmeticError unless ``variances`` has a positive value: a
    covariance that underflowed to 0 would draw all-zero paths or fail to factor."""
    if not np.max(variances) > 0.0:
        raise ArithmeticError(f"the {route} route's covariances on [0, {grid.horizon!r}] "
                              "underflow to 0")


def _dense_rows(mat: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """A row filler with its own normals buffer: ``fill(keys, out)`` writes
    M z into each row of ``out``, z the normal stream of the row's
    ``stream_keys`` row and M a dense route's map (``_route_rows``)."""
    normals = np.empty(mat.shape[1])

    def fill(keys: np.ndarray, out: np.ndarray) -> None:
        for key, body in zip(keys, out):
            np.matmul(mat, normal_stream(key, normals.size, out=normals), out=body)

    return fill


# LAPACK's rectangular full packed (RFP) storage with TRANSR = 'N' and
# UPLO = 'L' (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 37(2), 2010)
# holds a symmetric n x n matrix G in the n(n + 1)/2 doubles of one C-order
# (k, w) array R, with k = ceil(n/2), e = n mod 2 and w = n + 1 - e:
#
#   R[j, j + 1 - e:] = G[j, j:]                  for j < k,      G's leading upper rows;
#   R[j + e, :j + 1] = G[k + j, k:k + j + 1]     for j < n - k,  its trailing lower triangle.
#
# LAPACK reads R as a column-major (w, k) array.  ``dpftrf`` overwrites it
# with the Cholesky factor L = [[L11, 0], [L21, L22]] of G, k leading rows:
# L11 is lower triangular at R + 1 - e, L21 at R + k + 1 - e and L22's
# transpose upper triangular at R + e*w, each with leading dimension w.


def _rfp_shape(n: int) -> tuple[int, int, int]:
    """k, e and w of the RFP array of an n x n matrix."""
    return (n + 1) // 2, n % 2, n + 1 - n % 2


@cache
def _rfp() -> tuple[Callable, Callable, Callable] | None:
    """LAPACK's ``dpftrf`` and BLAS's ``dtrmv`` and ``dgemv`` in numpy's own
    BLAS as ``scipy_dpftrf_64_`` and so on (64-bit integers), looked up on
    first use through the handle of numpy's linalg extension, or None where
    that library lacks any of them (numpy 1.x wheels, Accelerate or MKL
    builds).  Every argument is passed as a ctypes object: a byte string for
    a character, a pointer for anything else."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        fns = (lib.scipy_dpftrf_64_, lib.scipy_dtrmv_64_, lib.scipy_dgemv_64_)
    except (OSError, AttributeError):
        return None
    for fn in fns:
        fn.restype = None
    return fns


def _rfp_gram(n: int, n_work: int, fill_block: Callable, rfp: np.ndarray | None = None
              ) -> np.ndarray:
    """The matrix ``_symmetric_gram`` builds from the same ``fill_block``, in
    RFP storage, with the same bits in every entry; written into ``rfp`` when
    given.

    The trailing rows go in first, each transposed down a column of R:
    R[j + e:, j] = G[k + j, k + j:].  The lower half of such a block's
    diagonal square lands on leading cells, which the leading rows, written
    next, overwrite.  A leading block's square would in turn overwrite
    trailing cells with its lower half, so those cells are kept and put back.
    """
    k, e, w = _rfp_shape(n)
    if rfp is None:
        rfp = np.empty((k, w))
    for lo, hi, work in _gram_blocks(n, n_work, (k, n), (0, k)):
        if lo >= k:
            fill_block(lo, hi, rfp[lo - k + e:, lo - k:hi - k].T, work)
            continue
        dest = rfp[lo:hi, lo + 1 - e:]
        square, below = dest[:, :hi - lo], np.tri(hi - lo, hi - lo, -1, dtype=bool)
        kept = square[below]
        fill_block(lo, hi, dest, work)
        square[below] = kept
    return rfp


def _rfp_factor(n: int, n_work: int, fill_block: Callable,
                check: Callable[[np.ndarray], None]) -> tuple[np.ndarray, float]:
    """``_ladder``'s factor of the Gram G that ``_rfp_gram`` builds from
    ``_gram_fill``'s or ``_fbm_fill``'s triple, made in RFP storage by
    ``dpftrf``, and its jitter.  A failed ``dpftrf`` has overwritten R, so
    each further rung builds G into R again."""
    k, e, w = _rfp_shape(n)
    # G[j, j] is R[j, j + 1 - e] for j < k and R[j - k + e, j - k] beyond.
    cells = np.concatenate([np.arange(k) * (w + 1) + 1 - e, np.arange(n - k) * (w + 1) + e * w])
    info = ctypes.c_int64(0)

    def dpftrf(rfp: np.ndarray) -> np.ndarray:
        _rfp()[0](b"N", b"L", ctypes.byref(ctypes.c_int64(n)), ctypes.c_void_p(rfp.ctypes.data),
                  ctypes.byref(info))
        if info.value:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return rfp

    return _ladder(_rfp_gram(n, n_work, fill_block), cells, check, dpftrf,
                   partial(_rfp_gram, n, n_work, fill_block))


def _rfp_rows(rfp: np.ndarray, n: int, fold: bool) -> Callable[[np.ndarray, np.ndarray], None]:
    """A row filler for ``_rfp_factor``'s L: ``fill(keys, out)`` overwrites the
    normal stream z of each row's ``stream_keys`` row with L z in place, z1
    and z2 its first k and last n - k values: z2 <- L22 z2, then
    z2 += L21 z1, which reads z1 before z1 <- L11 z1.  The exact route draws
    z into its C-contiguous row of ``out``; the fbm route (``fold``) into one
    worker buffer, and ``_fold``s L z, W on the symmetric grid, into the row."""
    _, trmv, gemv = _rfp()
    k, e, w = _rfp_shape(n)
    n1, n2, lda, inc = (ctypes.byref(ctypes.c_int64(v)) for v in (k, n - k, w, 1))
    one = ctypes.byref(ctypes.c_double(1.0))
    # Pointers from ``data_as`` keep the factor alive as long as the filler.
    l22, l21, l11 = (rfp.reshape(-1)[at:].ctypes.data_as(ctypes.c_void_p)
                     for at in (e * w, k + 1 - e, 1 - e))
    z1, z2 = ctypes.c_void_p(), ctypes.c_void_p()

    def times_factor(at: int) -> None:
        """Overwrite the n doubles at address ``at`` with L times them."""
        z1.value, z2.value = at, at + 8 * k
        trmv(b"U", b"T", b"N", n2, l22, lda, z2, inc)
        gemv(b"N", n2, n1, one, l21, lda, z1, inc, one, z2, inc)
        trmv(b"L", b"N", b"N", n1, l11, lda, z1, inc)

    if fold:
        m, buf = n // 2, np.empty(n)
        at, neg, pos = buf.ctypes.data, buf[m - 1::-1], buf[m:]

        def fill(keys: np.ndarray, out: np.ndarray) -> None:
            for key, body in zip(keys, out):
                normal_stream(key, n, out=buf)
                times_factor(at)
                _fold(neg, pos, body)

        return fill

    def fill(keys: np.ndarray, out: np.ndarray) -> None:
        row, step = out.ctypes.data, out.strides[0]
        for key, body in zip(keys, out):
            normal_stream(key, n, out=body)
            times_factor(row)
            row += step

    return fill


def _fbm_fill(spec: ProcessSpec, grid: TimeGrid) -> tuple[int, int, Callable]:
    """The size of the Gram of W = sum_i a_i B_i on {-t_k ... -t_1, t_1 ... t_k},
    and the count of scratch arrays and block filler that ``_symmetric_gram``
    or ``_rfp_gram`` builds it from."""
    pos = grid.times[1:]
    sym = np.concatenate([-pos[::-1], pos])
    two_hs = [2.0 * h for _, h in spec.active()]
    powers = [_p2h_array(np.abs(sym), two_h) for two_h in two_hs]
    halves = [0.5 * (a * a) for a, _ in spec.active()]

    def fill_block(lo: int, hi: int, g: np.ndarray, work: list) -> None:
        # g += 0.5 w * (s_i^2h + s_j^2h - |s_i - s_j|^2h) with |s|^2h in ``powers``.
        log_diff, term, pow_diff = work
        _log_abs_diff(sym[lo:hi, None], sym[None, lo:], log_diff)
        g.fill(0.0)
        for half_w, two_h, pt in zip(halves, two_hs, powers):
            np.add(pt[lo:hi, None], pt[None, lo:], out=term)
            _pow_abs_diff(two_h, log_diff, pow_diff)
            np.subtract(term, pow_diff, out=term)
            np.multiply(half_w, term, out=term)
            np.add(g, term, out=g)

    return sym.size, 3, fill_block


def _fold(neg: np.ndarray, pos: np.ndarray, body: np.ndarray) -> None:
    """Write (W(t) + W(-t)) / sqrt(2) into ``body``, the values at t > 0, from
    ``neg`` = W(-t) and ``pos`` = W(t), t ascending along the first axis."""
    np.add(pos, neg, out=body)
    body /= math.sqrt(2.0)


def _fgn_autocov(length: int, step: float, two_h: float) -> np.ndarray:
    """fGn autocovariance at lags 0..length for grid step ``step``:
    step^2H / 2 times 2 at lag 0 and ``_second_diff`` of the lag beyond it."""
    gamma = np.empty(length + 1)
    gamma[0] = 2.0
    gamma[1:] = _second_diff(np.arange(1.0, length + 1.0), two_h)
    return 0.5 * _p2h_array(np.full(1, step), two_h)[0] * gamma


def _fgn_spectrum(spec: ProcessSpec, grid: TimeGrid) -> np.ndarray:
    """Square roots of the N/2 + 1 distinct circulant-embedding eigenvalues of
    W's increments over [-T, T], W = sum_i a_i B_i, clipped at 0, and the
    interior bins 0 < k < N/2 also times 1/sqrt(2): the factor each bin's
    normals take in ``_fgn_draw``.  The circulant row is W's increment
    autocovariance, the components' weighted by a_i^2 and summed.
    """
    if not grid.is_uniform():
        raise ValueError("circulant embedding requires a uniform grid")
    m = grid.n_points - 1
    step = grid.horizon / m
    length = 2 * m  # increments covering [-T, T]
    gamma = sum((a * a) * _fgn_autocov(length, step, 2.0 * h) for a, h in spec.active())
    eig = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if eig.min() < -1e-8 * float(eig.max()):
        raise FactorizationFailure(
            f"circulant embedding is indefinite (min eigenvalue {eig.min():.3e})"
        )
    sqrt_eig = np.clip(eig, 0.0, None)
    _refuse_underflow("fgn", grid, sqrt_eig)
    np.sqrt(sqrt_eig, out=sqrt_eig)
    sqrt_eig[1:-1] /= math.sqrt(2.0)
    return sqrt_eig


def _fgn_draw(sqrt_eig: np.ndarray, key: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One exact draw of W's N/2 increments over [-T, T].

    ``sqrt_eig`` is ``_fgn_spectrum``'s half spectrum of N/2 + 1 values and
    ``key`` a row of ``stream_keys``.  ``z`` (N/2 + 1 complex values) is the
    caller's buffer, into which the N normals are drawn; it is overwritten.
    """
    half = z.size - 1
    size = 2 * half
    v = z.view(np.float64)
    normal_stream(key, size, out=v[:size])
    # Bin k, 0 < k < N/2, takes normals 2k and 2k+1 as (re, im); bins 0
    # and N/2 take normals 0 and 1 as real values.
    v[size], v[1], v[size + 1] = v[1], 0.0, 0.0
    z *= sqrt_eig
    # The real inverse transform of conj(z) is the forward transform of z's
    # Hermitian extension, so the draw is the one a full complex FFT gives.
    np.conjugate(z, out=z)
    return np.fft.irfft(z, n=size, norm="ortho")[:half]


def _fgn_rows(sqrt_eig: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """A row filler with its own draw buffers: ``fill(keys, out)`` folds W
    into each row of ``out``, from one draw of its increments over [-T, T]
    (``_fgn_draw``) from the row's ``stream_keys`` row, cumulated and
    shifted so that W(0) = 0."""
    half = sqrt_eig.size - 1
    m = half // 2
    z, cum = np.empty(half + 1, dtype=complex), np.empty(half + 1)

    def fill(keys: np.ndarray, out: np.ndarray) -> None:
        for key, body in zip(keys, out):
            cum[0] = 0.0
            np.cumsum(_fgn_draw(sqrt_eig, key, z), out=cum[1:])
            np.subtract(cum, cum[m], out=cum)
            _fold(cum[m - 1::-1], cum[m + 1:], body)

    return fill


def _route_ops(route: str, m: int, n_reps: int) -> float:
    """Estimated operations of the "exact" or "fgn" route drawing ``n_reps``
    replicas on ``m`` grid steps."""
    if route == "fgn":
        size = 4 * m  # circulant length: increments over [-T, T], embedded twice
        # One normal stream and one real inverse FFT of length N per replica,
        # the FFT about half a complex one's 5 N log2 N.
        return n_reps * (_FGN_DRAW_OPS + 2.5 * size * math.log2(size))
    # A Cholesky of the Gram plus a matvec per replica.
    return m ** 3 / 3.0 + 2.0 * n_reps * m * m


def _workspace(route: str, m: int) -> int:
    """Doubles of one replica worker's draw buffers on ``m`` grid steps.

    A dense route's worker holds the normals of one replica (m for exact,
    2m for fbm); the exact route's RFP filler draws them into the path's
    own row instead, and the count is kept so that it never depends on
    which kernel the platform has.  The circulant route's worker holds the complex spectrum
    of N/2 + 1 values the normals are drawn into, the real inverse
    transform and its working copy, and the N/2 + 1 cumulative sums the
    fold reads, N = 4m: six vectors of N + 1 doubles bound them all.
    """
    if route == "fgn":
        return 6 * (4 * m + 1)
    return m if route == "exact" else 2 * m


def _route_bytes(route: str, m: int, n_rows: int) -> int:
    """Estimated peak bytes of one replica worker's draw on the route, with
    ``n_rows`` rows of paths held: the whole ensemble in ``sample_ensemble``,
    one row in a streamed draw (``_Draw``).

    A dense route's Gram is n x n, n = m for exact and 2m for fbm.  The
    estimate counts three such matrices, what the fallback kernel holds: the
    Gram, whose diagonal ``_ladder`` jitters in place, and the working copy
    and factor of ``np.linalg.cholesky`` (at n = 3000 and one BLAS thread,
    ``cholesky(g)`` raised the peak about 2.1 n^2 doubles over its input and
    ``cholesky(g + eps*I)`` 3.1 n^2).  The RFP kernel holds n(n + 1)/2
    doubles, but counting it would make a refusal depend on the platform's
    BLAS (exact draws up to about 23,000 points, not 9,460, on some
    platforms only).  The worker's normals fit in the freed copies.  The
    circulant route of length N = 4m holds W's half spectrum of N/2 + 1
    values and one worker's ``_workspace``.  None of these depends
    on the number of components.  Each further replica worker holds a
    workspace of its own, and in a streamed draw a row of its own; those
    are not counted here, so a refusal never depends on MSFBM_THREADS:
    ``_n_workers`` starts a further worker only where they fit.
    """
    if route == "exact":
        held = 3 * m * m
    elif route == "fbm":
        held = 3 * (2 * m) ** 2
    else:
        held = (2 * m + 1) + _workspace("fgn", m)
    return 8 * (held + n_rows * (m + 1))


def _n_workers(route: str, m: int, n_reps: int, n_threads: int, streamed: bool) -> int:
    """Replica workers of a draw of ``n_reps`` replicas on ``m`` grid steps:
    at most ``n_threads`` and one per replica.  The first worker is the one
    ``_route_bytes`` counts; each further one starts only while its
    ``_workspace``, and in a streamed draw its row, still fit the memory budget."""
    n_rows = 1 if streamed else n_reps
    further = 8 * (_workspace(route, m) + (m + 1 if streamed else 0))
    room = (_MEMORY_BUDGET - _route_bytes(route, m, n_rows)) // further
    return max(1, min(n_threads, n_reps, 1 + room))


def _check_budget(what: str, need: int) -> None:
    """Raise ValueError naming ``what`` when its ``need`` bytes exceed the memory budget."""
    if need > _MEMORY_BUDGET:
        raise ValueError(
            f"{what} needs an estimated {need / 2 ** 30:.3g} GiB, over the "
            f"{_MEMORY_BUDGET / 2 ** 30:.3g} GiB memory budget"
        )


def _route(grid: TimeGrid, n_reps: int, sampler: str, streamed: bool = False) -> str:
    """The route ("exact", "fbm" or "fgn") that draws ``n_reps`` replicas.

    "auto" takes circulant embedding ("fgn") on uniform grids where its
    estimated cost (``_route_ops``) is below that of the exact route, and
    "exact" otherwise; any other sampler names its route.
    Raises ValueError, before anything is allocated, when the route's arrays
    would exceed the memory budget: with every row held, or with one row
    where the draw is ``streamed``.
    """
    m = grid.n_points - 1
    if sampler == "auto":
        cheaper = (grid.is_uniform()
                   and _route_ops("fgn", m, n_reps) < _route_ops("exact", m, n_reps))
        sampler = "fgn" if cheaper else "exact"
    if sampler not in ("exact", "fbm", "fgn"):
        raise ValueError(f"unknown sampler {sampler!r}")
    held = ", one at a time," if streamed else ""
    _check_budget(f"the {sampler} route for {n_reps} replica(s){held} on {grid.n_points} points",
                  _route_bytes(sampler, m, 1 if streamed else n_reps))
    return sampler


def _route_rows(route: str, spec: ProcessSpec, grid: TimeGrid) -> tuple[Callable, float]:
    """The route's maker of row fillers and the jitter its factor took.  Each
    call ``new_fill()`` allocates one worker's draw buffers and returns its
    filler ``fill(keys, out)``, which writes a block of replicas' paths at
    t > 0 into ``out`` from their rows of ``stream_keys``.  A dense route
    draws from its Gram's factor in RFP storage (``_rfp_factor``) where
    ``_rfp`` binds, and otherwise from ``np.linalg.cholesky``'s, the fbm
    route's map then the fold (L[m + k] + L[m - 1 - k]) / sqrt(2) written
    into the factor's last m rows."""
    if route == "fgn":
        return partial(_fgn_rows, _fgn_spectrum(spec, grid)), 0.0
    n, n_work, fill_block = (_gram_fill if route == "exact" else _fbm_fill)(spec, grid)
    check = partial(_refuse_underflow, route, grid)
    if _rfp():
        rfp, jitter = _rfp_factor(n, n_work, fill_block, check)
        return partial(_rfp_rows, rfp, n, route == "fbm"), jitter
    mat, jitter = _ladder(_symmetric_gram(n, n_work, fill_block), np.arange(n) * (n + 1), check,
                          np.linalg.cholesky)
    if route == "fbm":
        m = n // 2
        _fold(mat[m - 1::-1], mat[m:], mat[m:])
        mat = mat[m:]
    return partial(_dense_rows, mat), jitter


def _replica_runner(fills: list, keys: np.ndarray, out: np.ndarray) -> None:
    """Call ``fills[w](keys[lo:hi], out[lo:hi])`` on contiguous parts that cover
    every row of ``out``, one part per worker thread w, and at most one worker
    per row, so no two threads share a filler's buffers."""
    n_rows = len(out)
    n_workers = min(len(fills), n_rows)
    if n_workers == 1:
        fills[0](keys, out)
        return
    # Imported here, where a pool starts: at module level every command paid for it.
    from concurrent.futures import ThreadPoolExecutor

    bounds = [n_rows * w // n_workers for w in range(n_workers + 1)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(fill, keys[lo:hi], out[lo:hi])
                   for fill, lo, hi in zip(fills, bounds, bounds[1:])]
    # Reading every result re-raises the first part's exception.
    for future in futures:
        future.result()


@contextmanager
def _refuse_overflow(what: str) -> Iterator[None]:
    """Raise ArithmeticError, naming ``what``, on an overflow or invalid operation in the block."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ArithmeticError(f"{what} overflow a double ({exc})") from None


class _Draw:
    """A prepared draw of ``n_reps`` replicas, filled in blocks of rows.

    Construction makes, once and in this order: the route (``_route``), the
    unit spec and scale s (``ProcessSpec.unit``), the unit spec's factor or
    spectrum with its jitter, every replica's stream key, and the fillers of
    ``n_workers`` replica workers (``_n_workers``), each with the draw
    buffers that every block reuses.  ``block(lo, hi)`` draws replicas
    lo..hi-1 into a fresh array, so a block shares no memory with any other.
    A ``streamed`` draw is checked against the memory budget with one row
    held, for callers that read one block at a time and let it go.
    """

    def __init__(self, spec: ProcessSpec, grid: TimeGrid, n_reps: int, master_seed: int,
                 sampler: str = "auto", n_threads: int = 1, streamed: bool = False):
        if n_reps < 1:
            raise ValueError("n_reps must be >= 1")
        self.spec, self.grid, self.n_reps = spec, grid, n_reps
        self.route = _route(grid, n_reps, sampler, streamed)
        self.scale, unit = spec.unit()
        with _refuse_overflow(f"the {self.route} route's covariances on [0, {grid.horizon!r}]"):
            new_fill, self.jitter = _route_rows(self.route, unit, grid)
        self.keys = stream_keys(replica_seeds(master_seed, n_reps))
        self.master_seed = int(master_seed)
        n_workers = _n_workers(self.route, grid.n_points - 1, n_reps, n_threads, streamed)
        self.fills = [new_fill() for _ in range(n_workers)]

    def block(self, lo: int, hi: int) -> Ensemble:
        """Replicas lo..hi-1: the bytes of those rows of the whole ensemble.

        Paths that overflow a double or underflow to 0 once scaled by s
        raise ArithmeticError.
        """
        if not 0 <= lo < hi <= self.n_reps:
            raise ValueError(f"block [{lo}, {hi}) is not a non-empty part of "
                             f"[0, {self.n_reps})")
        values = np.zeros((hi - lo, self.grid.n_points))
        _replica_runner(self.fills, self.keys[lo:hi], values[:, 1:])
        paths = f"the {self.route} route's paths on [0, {self.grid.horizon!r}]"
        with _refuse_overflow(paths):
            values *= self.scale
        if not values.any():
            raise ArithmeticError(f"{paths} underflow to 0")
        return Ensemble(spec=self.spec, grid=self.grid, values=values,
                        master_seed=self.master_seed, sampler=self.route, jitter=self.jitter)


def sample_ensemble(
    spec: ProcessSpec,
    grid: TimeGrid,
    n_reps: int,
    master_seed: int,
    sampler: str = "auto",
    n_threads: int = 1,
) -> Ensemble:
    """Generate ``n_reps`` independent replicas with derived per-replica seeds.

    ``sampler`` is "exact" (factored process Gram), "fbm" (folded mixed fBm
    from its symmetric-grid Gram), "fgn" (folded mixed fBm from circulant
    embedding, uniform grids only) or "auto", which takes "fgn" on uniform grids where its
    estimated cost (``_route_ops``) is below the exact route's, and "exact"
    otherwise; every route is distribution-exact.
    Every route is checked against a fixed memory budget first: a request
    over it raises ValueError before anything is allocated.  The route
    draws the unit spec (``ProcessSpec.unit``), and the ensemble is then
    scaled by s = max |a_i|; the ensemble's jitter is that of the unit
    spec's factor.  Covariances that overflow a double or underflow to 0,
    and paths that do so once scaled, raise ArithmeticError.
    The result is a pure function of (spec, grid, n_reps, master_seed,
    sampler) regardless of ``n_threads``; ``Ensemble.sampler`` records the
    route taken.

    Every route draws one normal stream per replica k, from its seed
    ``derive_seed(master_seed, k)``.  All replica seeds are derived and
    hashed at once (``replica_seeds``, ``stream_keys``); a master seed
    outside [0, 2^64) raises ValueError.  Each replica writes its path into its own
    row of a zeroed (n_reps, n_points) array, the t = 0 column left at 0:
    the one block of every row of a prepared draw (``_Draw``).  Each of at
    most ``n_threads`` workers, fewer where a further worker's draw buffers
    would not fit the memory budget, fills a contiguous part of the rows.
    """
    return _Draw(spec, grid, n_reps, master_seed, sampler, n_threads).block(0, n_reps)
