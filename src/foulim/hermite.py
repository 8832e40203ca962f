"""Hermite processes by discretized multiple Wiener-Ito integrals.

Z^{H,m} is the m-fold Wiener integral, over the off-diagonal region, of
the time-integrated product kernel

    F_t(xi) = int_0^t prod_j (s - xi_j)_+^{(H-1)/m - 1/2} ds,

scaled by K(H,m)/m! to unit variance (m = 1 is the Mandelbrot-Van Ness
fBM, m = 2 the Rosenblatt process).  One engine serves every caller.
The white noise lives on graded cells: 2n of width dt on [-T, T],
aligned with the time grid, then n_far growing x1.05 out to -1e30, so
no noise window is cut off (1,863 cells at 200 steps, 2,277 at 400).
Step s enters through a_s, its kernel's exact cell averages times
sqrt(width), as the Wick form ||a_s||^m He_m(u_s/||a_s||), u_s = a_s . N,
of the multiple integral of a_s^{(x)m}.  On the uniform cells an entry
of a kernel depends only on the lag, so a kernel is held there as one lag
profile of 3n values, each row a window of it; on the far cells, where it
is smooth in the row time, at 20 Chebyshev rows that a barycentric matrix
interpolates to every row.  Those node rows are never held whole: each
kernel evaluates them on a range of far cells, and ``_far_gram`` sums
their Gram over chunks of cells.  The far cells' projections on the node
rows are Gaussian with that Gram as covariance, of rank r (5 to 7), so
they are drawn as r normals times a factor of it (``_far_factor``) rather
than from the n_far cells.  The covariance is exact, m! ds^2 sum_{s<j,
s'<k} gram_{ss'}^m, and one pass over the Gram's lags (``_gram_lags``)
gives its diagonal in O(n^2) time and O(n) memory; ``exact_covariance``
builds it at the times asked for.  A replica draws r + 2n normals and
costs O(2n log n + 20 r) for every m.  A ``HermiteEngine`` holds all this
for one (grid, H, m), built once per operation and handed to every chunk;
``hermite_ensemble`` draws a row of noise per key from the stream of
the first, a block at a time; ensembles take their keys by chunk from
``harness.run_replicated``.  A kernel of many rows is a Toeplitz matrix
on the uniform cells, so a block's projections on it are one correlation
of the noise with the lag profile, by FFT on a circulant of 5-smooth
length (as ``fgn`` embeds; Dietrich and Newsam, SIAM J. Sci. Comput. 18
(1997) 1088-1107), read at the rows' starts: no kernel row is copied, and
a replica's projections do not depend on the block it is drawn in.  No
n x 2n, n x n or (n + 1)^2 array is built outside ``exact_covariance``,
and each large array is held once, only while something reads it: a
block's projections are dropped before the next block's are allocated,
the Wick power is written over u, and the far cell averages and ghat
values are computed a chunk of cells at a time, in one work array.

``ghat`` is the moving-average kernel of the fast fOU, y^eps_t =
eps^{-1/2} int ghat((t-s)/eps) dW_s, in closed form: ghat(v) = C(H)
v^{H-1/2}/(H-1/2) 1F1(1; H+1/2; -v), by ``scipy.special.hyp1f1`` up to
v = 700 and Watson's series beyond, within about 1e-14 for H in (1/2, 1).
``harness.l2_convergence_hermite`` builds the fOU through it and the
Hermite limit from one white noise on the engine's cells, which makes L2
(not merely weak) convergence measurable on coupled samples.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import chaos, fgn, fou
from .paths import FoulimError, TimeGrid, as_hurst
from .streams import normals

__all__ = [
    "HermiteEngine",
    "hermite_ensemble",
    "exact_covariance",
    "ghat",
]

# ghat: Kummer's transformed form (it holds e^v) up to this v, Watson's series beyond
_KUMMER_MAX_V = 700.0
_WATSON_TERMS = 10
# noise cells below -T grow by this ratio until they reach this distance
_CELL_GROWTH = 1.05
_FAR_EDGE = 1e30
# a kernel is held as a lag profile of 3n doubles and P; the engine's build is
# O(n^2) time in O(n) memory (2.5 s and 4.7 MB traced at this many steps), and
# a replica's projection O(n log n) flops
_MAX_STEPS = 10_000
# noise rows are projected a block at a time, whose normals, their spectrum, the
# correlation's buffers and the projections fit in about this many bytes (6 rows
# at 400 steps); the engine's Gram is built in lag blocks of this size, and a
# far Gram whose stacked node rows do not fit in it from chunks of a quarter of it
BLOCK_BYTES = 2**18
# Chebyshev rows of a far block: 16 leave a gram error of 1.6e-13, 20 (as 24) 3e-15
_FAR_NODES = 20
# the far Gram's factor keeps the eigenvalues above this fraction of the largest
_FAR_RANK_TOL = 1e-15


def _cell_edges(grid: TimeGrid) -> np.ndarray:
    """Ascending edges of the noise cells of a time grid.

    The last 2n cells have width dt and edges k dt, k = -n..n; below
    them the widths are dt 1.05^k, k = 1, 2, ..., until the first edge
    at or beyond -1e30.  A horizon T >= 1e30, more than _MAX_STEPS steps, or
    a step whose dt^2 (in C) underflows, is refused.
    """
    n, dt = grid.n_steps, grid.dt
    if not dt * dt >= np.finfo(float).tiny:
        raise FoulimError(f"time step {dt:g} is too small for the Hermite engine")
    if not grid.horizon < _FAR_EDGE:
        raise FoulimError(f"horizon {grid.horizon:g} reaches the Hermite far edge {_FAR_EDGE:g}")
    if n > _MAX_STEPS:
        raise FoulimError(f"{n} steps exceed the Hermite engine's cap of {_MAX_STEPS}")
    near = dt * np.arange(-n, n + 1)
    g = _CELL_GROWTH
    n_far = math.ceil(math.log1p((_FAR_EDGE + near[0]) * (g - 1.0) / (dt * g))
                      / math.log(g))
    far = near[0] - np.cumsum(dt * g ** np.arange(1, n_far + 1))
    return np.concatenate([far[::-1], near])


class _CellKernel(NamedTuple):
    """A kernel M on the noise cells.  On the 2n uniform cells row r is the
    window of the lag profile that starts at first - r step: the profile ends
    where row 0's window does, and the last row's starts at first mod step.  M's
    far block, smooth in the row time, is P F, F (nodes x n_far) its values at
    the nodes of ``_far_nodes`` and P (rows x nodes).  F is never held whole:
    far(a, b) evaluates its far cells a to b - 1, and ``_far_gram`` sums its
    Gram over chunks of cells."""

    profile: np.ndarray
    first: int
    step: int
    far: Callable[[int, int], np.ndarray]
    n_far: int
    P: np.ndarray

    @property
    def near(self) -> np.ndarray:
        """M on the uniform cells, rows x 2n: a view of the profile, no copy."""
        width = len(self.profile) - self.first
        return sliding_window_view(self.profile, width)[self.first :: -self.step]

    def starts(self) -> np.ndarray:
        """The profile index where each row's window starts."""
        return self.first - self.step * np.arange(len(self.P))

    def variances(self, gram: np.ndarray) -> np.ndarray:
        """||M[r]||^2 for every row r, gram its node Gram F F^T (its block of
        ``_far_gram``), the uniform part a difference of the profile's tail
        sums of squares (exact where the profile is zero past the window, as
        it is for every kernel built here)."""
        starts = self.starts()
        tail = np.append(np.cumsum(self.profile[::-1] ** 2)[::-1], 0.0)
        width = len(self.profile) - self.first
        return tail[starts] - tail[starts + width] + np.einsum("ij,ij->i", self.P @ gram, self.P)

    def contract(self, w: np.ndarray) -> "_CellKernel":
        """The one-row kernel w M, whose projection is the w-weighted sum of M's
        rows' projections: its profile sum_r w_r (row r's window), one
        correlation of the profile with w placed at the rows' starts."""
        placed = np.zeros(self.first + 1)
        placed[self.starts()] = w
        return _CellKernel(np.correlate(self.profile, placed, "valid"), 0, 1, self.far,
                           self.n_far, (w @ self.P)[None])


def _far_nodes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x, the ``_FAR_NODES`` Chebyshev points of the second kind on
    [t[0], t[-1]], and the barycentric matrix P[r, j] = (w_j / (t_r - x_j))
    / sum_k w_k / (t_r - x_k), w = (1/2, -1, 1, ..., 1/2), from x to t
    (Berrut and Trefethen, SIAM Review 46 (2004) 501-517); x = t and P = I
    when t has no more points than that."""
    if len(t) <= _FAR_NODES:
        return t, np.eye(len(t))
    j = np.arange(_FAR_NODES)
    x = 0.5 * (t[0] + t[-1]) - 0.5 * (t[-1] - t[0]) * np.cos(np.pi * j / (_FAR_NODES - 1))
    w = (-1.0) ** j * np.where(j % (_FAR_NODES - 1) == 0, 0.5, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        P = w / np.subtract.outer(t, x)
        P /= P.sum(axis=1, keepdims=True)
    return x, np.nan_to_num(P, nan=1.0)  # t_r on x_j: inf / inf at j, 0 elsewhere


def _cell_average(u, w, p: float):
    """sqrt(w) times the average of (s - xi)^{p-1} over a cell of width w
    ending u > 0 before s, u^p ((1 + w/u)^p - 1) / (p sqrt(w)), by log1p and
    expm1, free of the antiderivative difference's cancellation (to 3e-12).
    w / u is the one work array: log1p, the scaling by p and expm1 are taken
    in place, then it is multiplied by u^p (the only other array of its
    shape) and divided by p sqrt(w), the operations of the one-line form in
    its order, so the bits are the same."""
    work = w / u
    np.log1p(work, out=work)
    work *= p
    np.expm1(work, out=work)
    work *= u**p
    work /= p * np.sqrt(w)
    return work


def _kernel(grid: TimeGrid, H: float, m: int) -> _CellKernel:
    """The kernel of Z^{H,m}, H in (1/2, 1) and 1 <= m <= MAX_HERMITE_ORDER:
    M[s, i] is sqrt(width) times the exact average over cell i of the kernel
    at step s's midpoint (so its singularity needs no quadrature) and u_s =
    M[s] . N has variance ||M[s]||^2.  On the uniform cells an entry depends
    only on the lag: row s is the profile's window from n - 1 - s, and the
    profile is zero from 2n on, past the cell that holds the midpoint."""
    chaos._check_hermite_target(H, m)
    edges = _cell_edges(grid)
    b = (H - 1.0) / m - 0.5  # the power on each factor (s - xi)_+
    n, dt, p = grid.n_steps, grid.dt, b + 1.0
    n_far = len(edges) - 1 - 2 * n
    # uniform cell j ends (r + n - j - 1/2) dt before step r's midpoint, profile
    # entry n - 1 - r + j; the cell holding the midpoint is half covered, later ones 0
    profile = np.concatenate([_cell_average((2 * n - 1.5 - np.arange(2 * n - 1)) * dt, dt, p),
                              [(0.5 * dt) ** p / (p * math.sqrt(dt))], np.zeros(n - 1)])
    nodes, P = _far_nodes(grid.times()[:-1] + 0.5 * dt)
    widths = np.diff(edges[: n_far + 1])

    def far(a: int, b: int) -> np.ndarray:
        return _cell_average(np.subtract.outer(nodes, edges[a + 1 : b + 1]), widths[a:b], p)
    return _CellKernel(profile, n - 1, 1, far, n_far, P)


def _far_factor(far_gram: np.ndarray) -> tuple[np.ndarray, float]:
    """L (nodes x r) with L L^T = far_gram, and the fraction of its trace dropped.

    far_gram is ``_far_gram`` of the kernels of one noise; their node rows'
    projections of the far cells' unit normals have the law of L z for r
    unit normals z.  L is V sqrt(w) over numpy's ``eigh`` pairs (w, V)
    whose w exceeds _FAR_RANK_TOL of the largest; r is 5 to 7 where the
    far cells number 1,463 to 1,477.
    """
    w, V = np.linalg.eigh(far_gram)
    keep = w > _FAR_RANK_TOL * w[-1]
    dropped = float(np.abs(w[~keep]).sum() / np.trace(far_gram))
    return V[:, keep] * np.sqrt(w[keep]), dropped


def _far_gram(kernels: list[_CellKernel]) -> np.ndarray:
    """F F^T for F the kernels' node rows on the far cells, stacked in order.

    An F that fits in BLOCK_BYTES is evaluated whole and its Gram is one
    product: the engine's 20 x 1,477 node rows, whose Gram and factor are
    then those of the dense far block, bit for bit.  A larger F, such as
    l2-hermite's 4 x 20 node rows, is evaluated a chunk of far cells at a
    time, each chunk within a quarter of BLOCK_BYTES (102 cells), and the
    chunks' Grams are summed, so it is never held whole.
    """
    rows = sum(kern.P.shape[1] for kern in kernels)
    n_far = kernels[0].n_far
    whole = 8 * rows * n_far <= BLOCK_BYTES
    cells = n_far if whole else max(1, BLOCK_BYTES // 4 // (8 * rows))
    F = np.empty((rows, cells))
    gram = np.zeros((rows, rows))
    for a in range(0, n_far, cells):
        chunk = F[:, : min(cells, n_far - a)]
        np.concatenate([kern.far(a, a + chunk.shape[1]) for kern in kernels], out=chunk)
        gram += chunk @ chunk.T
    return gram


def _far_rows(kernels: list[_CellKernel], far_factor: np.ndarray) -> list[np.ndarray]:
    """P L for each kernel, L its node rows of far_factor (``_far_factor`` of
    ``_far_gram(kernels)``): the rows' projections of the far cells are N[:r]
    (P L)^T for the replica's first r normals."""
    cuts = np.cumsum([kern.P.shape[1] for kern in kernels])[:-1]
    return [kern.P @ L for kern, L in zip(kernels, np.split(far_factor, cuts))]


class HermiteEngine:
    """Kernel, step variances and per-time scale of Z^{H,m} on a grid.

    Built once per operation by the caller and handed to every chunk.
    ``kernel`` is ``_kernel`` and far_factor ``_far_factor``'s factor L of
    its node Gram (``_far_gram``), which is not held; u_s has the Gram
    near near^T + (P L)(P L)^T (``_gram_lags``) and var is its diagonal.
    The cumulative Wick series has the exact covariance C[j, k] = m! ds^2
    sum_{s<j, s'<k} gram[s, s']^m, and scale[k] = t_k^H / sqrt(C[k, k])
    maps it to Var(Z_t) = t^{2H}, absorbing the discretization loss that
    plain K/m! scaling would leave.  One pass over the Gram's lag blocks
    gives var and the diagonal of C; neither the Gram nor C is held
    (``exact_covariance`` builds C at the times it is asked for).  The
    arrays are read-only, so concurrent chunks share them.
    """

    def __init__(self, grid: TimeGrid, H: float, m: int):
        self.grid, self.H, self.m = grid, H, m
        self.kernel = _kernel(grid, H, m)
        self.far_factor = _far_factor(_far_gram([self.kernel]))[0]
        row_sums = np.zeros(grid.n_steps)  # sum_{s' < s} 2 gram[s, s']^m + gram[s, s]^m
        for d0, g in _gram_lags(self.kernel, self.far_factor):
            if d0 == 0:
                self.var = g[:, 0].copy()
            np.power(g, m, out=g)
            row_sums += g @ np.where(d0 + np.arange(g.shape[1]) == 0, 1.0, 2.0)
        series_var = math.factorial(m) * grid.dt * grid.dt * np.cumsum(row_sums)
        self.scale = np.zeros(grid.n_steps + 1)
        self.scale[1:] = grid.times()[1:] ** H / np.sqrt(series_var)
        for arr in (self.kernel.profile, self.kernel.P, self.far_factor, self.var, self.scale):
            arr.flags.writeable = False


def _gram_lags(kernel: _CellKernel, far_factor: np.ndarray):
    """The Gram of the engine's u_s, near near^T + (P L)(P L)^T with L =
    far_factor, a block of k lags at a time: (d0, g) with g[s, j] the entry
    at rows s and s - d0 - j, and 0 where s < d0 + j.

    Row s's window starts at profile index n - 1 - s and the profile is zero
    from 2n on, so the near entry at lag d is sum_{i >= n-1-s} p_i p_{i+d}:
    the lags' sums over i >= n, then a cumulative sum down the rows.  The far
    entry is the row product of P L with itself shifted by d.  O(n^2) time;
    g is n x k doubles, k from BLOCK_BYTES.
    """
    p, n = kernel.profile, len(kernel.P)
    Q = kernel.P @ far_factor
    Qz = np.concatenate([np.zeros_like(Q), Q])  # Qz[n + s] = Q[s], zero above row 0
    lags = max(1, BLOCK_BYTES // (8 * n))
    for d0 in range(0, n, lags):
        k = min(lags, n - d0)
        windows = sliding_window_view(p, k)  # windows[i, j] = p[i + j]
        g = p[n - 1 :: -1, None] * windows[d0 : d0 + n][::-1]
        g[0] += p[n : 2 * n] @ windows[n + d0 : 2 * n + d0]
        np.cumsum(g, axis=0, out=g)
        shifted = sliding_window_view(Qz, k, axis=0)[n - d0 - k + 1 : 2 * n - d0 - k + 1, :, ::-1]
        g += (Q[:, None, :] @ shifted)[:, 0]
        g[: d0 + k] = np.tril(g[: d0 + k], -d0)
        yield d0, g


def _wick_power(u: np.ndarray, var: np.ndarray, m: int) -> np.ndarray:
    """The Wick power :u^m: = var^{m/2} He_m(u / sqrt(var)) of u ~ N(0, var).

    By the recurrence :u^{k+1}: = u :u^k: - k var :u^{k-1}:, whose last
    step writes over its operands: m = 1 returns u itself, m = 2 writes
    :u^2: over u and returns u, and m >= 3 writes :u^m: over :u^{m-1}:
    and (m - 1) var :u^{m-2}: over :u^{m-2}:, which is u when m = 3.  So
    u is consumed: callers drop it.  The values are those of the
    out-of-place recurrence, bit for bit.
    """
    prev, cur = None, u
    for k in range(1, m):
        last = k == m - 1
        if prev is None:  # :u^0: = 1
            nxt = np.multiply(u, cur, out=u if last else None)
            nxt -= var
        else:
            nxt = np.multiply(u, cur, out=cur if last else None)
            nxt -= np.multiply(k * var, prev, out=prev if last else None)
        prev, cur = cur, nxt
    return cur


def _projections(keys: np.ndarray, kernels: list[_CellKernel], far_factor: np.ndarray):
    """(start, [u for each kernel]) for a block of the replicas keys[start :
    start + len(u)] at a time.  Replica i's noise N is run i of r + 2n normals
    of keys[0]'s stream: N[:r] project the far cells on the stacked node rows
    of all kernels as N[:r] L^T, L = far_factor (``_far_factor`` of
    ``_far_gram(kernels)``), and N[r:] are the uniform cells, so u = N [P L,
    near]^T.

    A kernel of one row (``_CellKernel.contract``) is that plain product.  A
    kernel of many rows takes its near part from the correlation of N[r:]
    with its profile, sum_j N[r + j] profile[i + j] at each row's start i:
    one rfft of the block's noise serves every kernel, and each kernel takes
    one multiply by its profile's spectrum and one irfft on a 5-smooth length
    no shorter than the profile, where the circular correlation has no
    wrapped terms at the starts, and its far part is N[:r] (P L)^T.  The
    products are einsums, not BLAS, whose rounding would depend on the
    block's row count: a row's projections are the same in a block of any
    size.  The block's noise, spectrum and correlation buffers are
    allocated once per call and fit in about BLOCK_BYTES with the
    projections, which are new arrays for every block, dropped here before
    the next block's are allocated; the caller drops them too
    (``_wick_power`` writes over them)."""
    r, width = far_factor.shape[1], len(kernels[0].profile) - kernels[0].first
    PLs = _far_rows(kernels, far_factor)
    size = fgn._smooth_length(max(len(kern.profile) for kern in kernels))
    # a many-row kernel's profile spectrum, or a one-row kernel's [P L, near]
    spectra = [np.fft.rfft(kern.profile, size) if len(PL) > 1 else None
               for kern, PL in zip(kernels, PLs)]
    plain = [np.hstack([PL, kern.near]) if len(PL) == 1 else None
             for kern, PL in zip(kernels, PLs)]
    many = any(len(PL) > 1 for PL in PLs)
    row_bytes = 8 * (r + width + many * (3 * size + 4) + sum(len(PL) for PL in PLs))
    rows = max(1, min(len(keys), BLOCK_BYTES // row_bytes))
    buf = np.empty((rows, r + width))
    if many:
        spec, prod = (np.empty((rows, size // 2 + 1), complex) for _ in range(2))
        corr = np.empty((rows, size))
    for start, N in zip(range(0, len(keys), rows), normals(keys, buf)):
        count = len(N)
        if many:
            S = np.fft.rfft(N[:, r:], size, out=spec[:count])
            np.conjugate(S, out=S)
        us = []
        for kern, PL, spectrum, row in zip(kernels, PLs, spectra, plain):
            if spectrum is None:
                u = np.einsum("bk,jk->bj", N, row)
            else:
                u = np.einsum("bk,jk->bj", N[:, :r], PL)
                c = np.fft.irfft(np.multiply(S, spectrum, out=prod[:count]), size,
                                 out=corr[:count])
                u += c[:, kern.first :: -kern.step]
            us.append(u)
        yield start, us
        del u, us  # so the block is freed, once the caller drops it, before the next one


def hermite_ensemble(engine: HermiteEngine, keys: np.ndarray,
                     report_idx=None) -> np.ndarray:
    """Replica matrix of Z^{H,m} values on the engine's grid.

    Row i is driven by run i of the noise of the stream of keys[0];
    report_idx selects grid indices (default: the endpoint only).  A row
    is the same, bit for bit, in a block of any size, and the first k rows
    are those of the first k keys: ``_projections`` takes each row's
    projections on its own, by FFT and einsum.
    """
    if report_idx is None:
        report_idx = np.array([engine.grid.n_steps])
    report_idx = np.asarray(report_idx, dtype=int)
    out = np.empty((len(keys), len(report_idx)))
    for start, (u,) in _projections(keys, [engine.kernel], engine.far_factor):
        series = _wick_power(u, engine.var, engine.m)
        series *= engine.grid.dt
        cum = np.cumsum(series, axis=1, out=series)  # Z at t_1, ..., t_n; Z at t_0 = 0 is 0
        Z = np.where(report_idx > 0, cum[:, report_idx - 1], 0.0)
        out[start : start + len(u)] = Z * engine.scale[report_idx]
        del u, series, cum  # before the next block's projections are allocated
    return out


def exact_covariance(engine: HermiteEngine, times) -> np.ndarray:
    """Exact covariance matrix of ``hermite_ensemble``'s values at grid times.

    Its diagonal is t^{2H}; its off-diagonal departure from the fBM
    covariance is the sampler's own correlation-shape error.  C is built
    at the asked times only, from one pass over the Gram's lag blocks
    (``_gram_lags``): for each row s, the sums of gram[s, s']^m over s' <= s
    and below each time, then their cumulative sums over s.
    """
    grid, m = engine.grid, engine.m
    t = np.atleast_1d(np.asarray(times, dtype=float))
    idx = np.rint(t / grid.dt).astype(int)
    if np.any(idx < 0) or np.any(idx > grid.n_steps) \
            or not np.allclose(idx * grid.dt, t, rtol=0.0, atol=1e-9 * grid.dt):
        raise ValueError("times must be points of the grid")
    rows = np.arange(grid.n_steps)[:, None]
    lower = np.zeros((grid.n_steps, len(idx)))  # sum over s' <= s, s' < idx of gram[s, s']^m
    for d0, g in _gram_lags(engine.kernel, engine.far_factor):
        np.power(g, m, out=g)
        if d0 == 0:
            diag = g[:, 0].copy()
        k = g.shape[1]
        tails = np.zeros((len(g), k + 1))  # tails[s, j] = sum_{j' >= j} g[s, j']
        tails[:, :k] = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]
        lower += np.take_along_axis(tails, np.clip(rows - d0 - idx + 1, 0, k), axis=1)
    L = np.concatenate([np.zeros((1, len(idx))), np.cumsum(lower, axis=0)])[idx]
    D = np.concatenate([[0.0], np.cumsum(diag)])[np.minimum.outer(idx, idx)]
    C = math.factorial(m) * grid.dt * grid.dt * (L + L.T - D)
    return engine.scale[idx, None] * C * engine.scale[idx]


# ----------------------------------------------------------------- fOU kernel


def _fou_kernel(fine: TimeGrid, H: float, eps: float, stride: int) -> _CellKernel:
    """Wiener kernel of y^eps at every stride-th point of fine, on fine's cells.

    Row k, cell i holds eps^{-1/2} ghat((t_k - c_i)/eps) sqrt(w_i), with
    t_k = k stride dt, c_i the midpoint and w_i the width of cell i, so
    y^eps_{t_k} = M[k] . N for the unit normals N of the cells.  On the
    uniform cells an entry depends only on the lag t_k - c_i, so that
    block is a set of windows of one lag profile; on the geometric cells
    ghat is evaluated at the node rows of ``_far_nodes`` only, a range of
    cells at a time.
    """
    edges = _cell_edges(fine)
    n, dt = fine.n_steps, fine.dt
    n_far = len(edges) - 1 - 2 * n
    rows = stride * np.arange(n // stride + 1)
    nodes, P = _far_nodes(rows * dt)
    far_mid = 0.5 * (edges[:n_far] + edges[1 : n_far + 1])
    scale = np.sqrt(np.diff(edges[: n_far + 1]) / eps)

    def far(a: int, b: int) -> np.ndarray:
        v = np.subtract.outer(nodes, far_mid[a:b])
        v /= eps
        values = ghat(v, H)
        values *= scale[a:b]
        return values
    # uniform cell j's midpoint lies (r + n - j - 1/2) dt before fine point r:
    # profile entry n - r + j
    profile = ghat((2 * n - 0.5 - np.arange(3 * n)) * (dt / eps), H) * math.sqrt(dt / eps)
    return _CellKernel(profile, n, stride, far, n_far, P)


@functools.lru_cache(maxsize=16)
def _ghat_constants(h: float) -> tuple:
    """ghat's C(H), q and Watson coefficients (1-q)_k, k = 1..9, for one H."""
    q = h - 0.5
    return fou.kernel_amplitude(h), q, np.cumprod(1.0 - q + np.arange(_WATSON_TERMS - 1))


def ghat(v, H) -> np.ndarray | float:
    """Moving-average kernel of the unit-rate stationary fOU, in closed form.

    ghat(v) = C(H) e^{-v} int_0^v e^u u^{q-1} du = C(H) v^q/q 1F1(1; q+1; -v)
    for v > 0 and zero otherwise, with q = H - 1/2 and C(H) =
    ``fou.kernel_amplitude``; ghat(v) ~ C(H) v^{H-3/2} at infinity and
    int_0^inf ghat^2 = 1 (unit stationary variance via the Wiener
    isometry).  Up to v = 700 it is evaluated in Kummer's transformed
    form v^q/q e^{-v} 1F1(q; q+1; v), whose series has positive terms;
    beyond, where e^v overflows, by ten terms of Watson's series
    v^{q-1} sum_k (1-q)_k v^{-k} (the dropped ones are below 1e-21), by
    Horner's rule in place.  Both stay within about 1e-14 of a 40-digit
    evaluation for all H in (1/2, 1).  Requires H > 1/2.  C(H), q and the
    Watson coefficients are cached for recent H (``_ghat_constants``): a
    kernel's far rows call ghat once per chunk of far cells.
    """
    from scipy import special  # 0.3 s to import: only once ghat is evaluated
    h = as_hurst(H)
    amp, q, poch = _ghat_constants(h)  # raises for H <= 1/2
    flat = np.ravel(np.clip(np.asarray(v, dtype=float), 0.0, None))  # the result's buffer
    near = flat <= _KUMMER_MAX_V
    vn = flat[near]
    x = flat[~near]
    np.reciprocal(x, out=x)
    flat[near] = vn**q / q * np.exp(-vn) * special.hyp1f1(q, q + 1.0, vn)
    series = poch[-1] * x
    for coef in poch[-2::-1]:
        series += coef
        series *= x
    series += 1.0
    series *= np.power(x, 1.0 - q, out=x)
    flat[~near] = series
    flat *= amp
    out = flat.reshape(np.shape(v))
    return float(out) if out.ndim == 0 else out
