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
of the multiple integral of a_s^{(x)m}.  A kernel is held dense on the
uniform cells, and on the far cells, where it is smooth in the row time,
at 20 Chebyshev rows that a barycentric matrix interpolates to every
row.  The far cells' projections on those rows are Gaussian with the
far Gram as covariance, of rank r (5 to 7), so they are drawn as r
normals times a factor of it (``_far_factor``) rather than from the
n_far cells.  The covariance is exact in one line, m! ds^2 sum_{s<j, s'<k}
gram_{ss'}^m (``exact_covariance``), and a replica draws r + 2n normals
and costs O(n_s * 2n + 20 r) for every m.  A ``HermiteEngine`` holds all
this for one (grid, H, m), built once per operation and handed to every
chunk; ``hermite_ensemble`` draws one row of noise per Philox key,
a block of rows at a time, and ensembles take their keys chunk by chunk
from ``harness.run_replicated``.

``ghat`` is the moving-average kernel of the fast fOU, y^eps_t =
eps^{-1/2} int ghat((t-s)/eps) dW_s, in closed form: ghat(v) = C(H)
v^{H-1/2}/(H-1/2) 1F1(1; H+1/2; -v), by ``scipy.special.hyp1f1`` up to
v = 700 and Watson's series beyond, within about 1e-14 for H in (1/2, 1).
``harness.l2_convergence_hermite`` builds the fOU through it and the
Hermite limit from one white noise on the engine's cells, which makes L2
(not merely weak) convergence measurable on coupled samples.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from . import chaos, fou
from .fgn import BLOCK_BYTES
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
# Chebyshev rows of a far block: 16 leave a gram error of 1.6e-13, 20 (as 24) 3e-15
_FAR_NODES = 20
# the far Gram's factor keeps the eigenvalues above this fraction of the largest
_FAR_RANK_TOL = 1e-15


def _cell_edges(grid: TimeGrid) -> np.ndarray:
    """Ascending edges of the noise cells of a time grid.

    The last 2n cells have width dt and edges k dt, k = -n..n; below
    them the widths are dt 1.05^k, k = 1, 2, ..., until the first edge
    at or beyond -1e30.  A step whose square underflows (C holds dt^2) is refused.
    """
    n, dt = grid.n_steps, grid.dt
    if not dt * dt >= np.finfo(float).tiny:
        raise FoulimError(f"time step {dt:g} is too small for the Hermite engine")
    near = dt * np.arange(-n, n + 1)
    g = _CELL_GROWTH
    n_far = math.ceil(math.log1p((_FAR_EDGE + near[0]) * (g - 1.0) / (dt * g))
                      / math.log(g))
    far = near[0] - np.cumsum(dt * g ** np.arange(1, n_far + 1))
    return np.concatenate([far[::-1], near])


class _CellKernel(NamedTuple):
    """A kernel M on the noise cells: near (rows x 2n) is M on the uniform
    cells; M's far block, smooth in the row time, is P far, with far
    (nodes x n_far) at the nodes of ``_far_nodes`` and P (rows x nodes)."""

    near: np.ndarray
    far: np.ndarray
    P: np.ndarray

    def variances(self) -> np.ndarray:
        """||M[r]||^2 for every row r."""
        PG = self.P @ (self.far @ self.far.T)
        return np.einsum("ij,ij->i", self.near, self.near) + np.einsum("ij,ij->i", PG, self.P)


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
    expm1, free of the antiderivative difference's cancellation (to 3e-12)."""
    return u**p * np.expm1(p * np.log1p(w / u)) / (p * np.sqrt(w))


def _kernel(grid: TimeGrid, H: float, m: int) -> _CellKernel:
    """The kernel of Z^{H,m}, H in (1/2, 1) and 1 <= m <= MAX_HERMITE_ORDER:
    M[s, i] is sqrt(width) times the exact average over cell i of the kernel
    at step s's midpoint (so its singularity needs no quadrature) and u_s =
    M[s] . N has variance ||M[s]||^2; near is windows of one lag profile, an
    entry there depends only on the lag."""
    chaos._check_hermite_target(H, m)
    edges = _cell_edges(grid)
    b = (H - 1.0) / m - 0.5  # the power on each factor (s - xi)_+
    n, dt, p = grid.n_steps, grid.dt, b + 1.0
    n_far = len(edges) - 1 - 2 * n
    # uniform cell j ends (r + n - j - 1/2) dt before step r's midpoint, profile
    # entry n - 1 - r + j; the cell holding the midpoint is half covered, later ones 0
    profile = np.concatenate([_cell_average((2 * n - 1.5 - np.arange(2 * n - 1)) * dt, dt, p),
                              [(0.5 * dt) ** p / (p * math.sqrt(dt))], np.zeros(n - 1)])
    near = sliding_window_view(profile, 2 * n)[n - 1 - np.arange(n)]
    nodes, P = _far_nodes(grid.times()[:-1] + 0.5 * dt)
    u = np.subtract.outer(nodes, edges[1 : n_far + 1])
    return _CellKernel(near, _cell_average(u, np.diff(edges[: n_far + 1]), p), P)


def _far_factor(far_gram: np.ndarray) -> tuple[np.ndarray, float]:
    """L (nodes x r) with L L^T = far_gram, and the fraction of its trace dropped.

    far_gram is far far^T for the stacked far blocks of one noise; its
    projections of the far cells' unit normals have the law of L z for r
    unit normals z.  L is V sqrt(w) over numpy's ``eigh`` pairs (w, V)
    whose w exceeds _FAR_RANK_TOL of the largest; r is 5 to 7 where the
    far cells number 1,463 to 1,477.
    """
    w, V = np.linalg.eigh(far_gram)
    keep = w > _FAR_RANK_TOL * w[-1]
    dropped = float(np.abs(w[~keep]).sum() / np.trace(far_gram))
    return V[:, keep] * np.sqrt(w[keep]), dropped


class HermiteEngine:
    """Kernel, step variances, per-time scale and raw covariance of Z^{H,m} on a grid.

    Built once per operation by the caller and handed to every chunk.
    ``kernel`` is ``_kernel``, with gram near near^T + P (far far^T) P^T
    and var its diagonal.  C is the exact covariance of the cumulative
    Wick series (``_series_covariance``), and scale[k] = t_k^H /
    sqrt(C[k, k]) maps it to Var(Z_t) = t^{2H}, absorbing the
    discretization loss that plain K/m! scaling would leave.  far_factor
    is ``_far_factor`` of far far^T, its rank far_rank and the fraction of
    the trace it drops far_gram_dropped.  The arrays are read-only, so
    concurrent chunks share them.
    """

    def __init__(self, grid: TimeGrid, H: float, m: int):
        self.grid, self.H, self.m = grid, H, m
        self.kernel = near, far, P = _kernel(grid, H, m)
        far_gram = far @ far.T
        self.far_factor, self.far_gram_dropped = _far_factor(far_gram)
        self.far_rank = self.far_factor.shape[1]
        gram = near @ near.T + P @ far_gram @ P.T
        self.var = np.diag(gram).copy()
        self.C = _series_covariance(gram, m, grid.dt)
        self.scale = np.zeros(grid.n_steps + 1)
        self.scale[1:] = grid.times()[1:] ** H / np.sqrt(np.diag(self.C)[1:])
        for arr in (*self.kernel, self.far_factor, self.var, self.C, self.scale):
            arr.flags.writeable = False


def _series_covariance(gram: np.ndarray, m: int, ds: float) -> np.ndarray:
    """Covariance of the cumulative series sum_{s<k} ds :u_s^m: at k = 0..n.

    With gram[s, s'] = E[u_s u_s'] the step terms have E[:u_s^m: :u_s'^m:]
    = m! gram[s, s']^m, so C[j, k] = m! ds^2 sum_{s<j, s'<k} gram[s, s']^m,
    built in place in C.
    """
    n = gram.shape[0]
    C = np.zeros((n + 1, n + 1))
    np.power(gram, m, out=C[1:, 1:])
    C *= math.factorial(m) * ds * ds
    return C.cumsum(0, out=C).cumsum(1, out=C)


def _wick_power(u: np.ndarray, var: np.ndarray, m: int) -> np.ndarray:
    """The Wick power :u^m: = var^{m/2} He_m(u / sqrt(var)) of u ~ N(0, var).

    By the recurrence :u^{k+1}: = u :u^k: - k var :u^{k-1}:, so m = 1
    returns u itself.
    """
    prev, cur = np.ones_like(u), u
    for k in range(1, m):
        prev, cur = cur, u * cur - k * var * prev
    return cur


def _projections(keys: np.ndarray, kernels: list[_CellKernel], far_factor: np.ndarray):
    """(start, [u for each kernel]) for a block of the replicas keys[start :
    start + len(u)] at a time.  A replica's noise is r + 2n normals N: N[r:]
    are the uniform cells, and the far projections on the stacked node rows
    of all kernels are N[:r] L^T, L = far_factor (``_far_factor`` of the
    stacked far Gram), so u = N[r:] near^T + (N[:r] L^T) P^T.  A block's
    noise and projections fit in about BLOCK_BYTES, its noise drawn into
    one buffer."""
    r, n_near = far_factor.shape[1], kernels[0].near.shape[1]
    cuts = np.cumsum([0] + [len(kern.far) for kern in kernels])
    row_bytes = 8 * (r + n_near + len(far_factor) + sum(len(kern.near) for kern in kernels))
    rows = max(1, min(len(keys), BLOCK_BYTES // row_bytes))
    buf = np.empty((rows, r + n_near))
    for start in range(0, len(keys), rows):
        N = normals(keys[start : start + rows], buf[: min(rows, len(keys) - start)])
        far_proj = N[:, :r] @ far_factor.T
        yield start, [N[:, r:] @ kern.near.T + far_proj[:, a:b] @ kern.P.T
                      for kern, a, b in zip(kernels, cuts, cuts[1:])]


def hermite_ensemble(engine: HermiteEngine, keys: np.ndarray,
                     report_idx=None) -> np.ndarray:
    """Replica matrix of Z^{H,m} values on the engine's grid.

    Row i is driven by the noise of the stream whose Philox key is
    keys[i]; report_idx selects grid indices (default: the endpoint
    only).  A row is reproducible for a fixed chunking, but not
    bit-identical across chunkings: the projections are matrix products
    over a ``_projections`` block, whose rounding depends on its row
    count, so the same replica drawn in chunks of different sizes moves
    in the last few ulps.  Callers that promise bit-identical output fix
    the chunk size, as ``harness.run_replicated`` does.
    """
    if report_idx is None:
        report_idx = np.array([engine.grid.n_steps])
    report_idx = np.asarray(report_idx, dtype=int)
    out = np.empty((len(keys), len(report_idx)))
    for start, (u,) in _projections(keys, [engine.kernel], engine.far_factor):
        series = _wick_power(u, engine.var, engine.m) * engine.grid.dt
        cum = np.cumsum(np.pad(series, ((0, 0), (1, 0))), axis=1)  # Z at t_0 = 0 is 0
        out[start : start + len(u)] = cum[:, report_idx] * engine.scale[report_idx]
    return out


def exact_covariance(engine: HermiteEngine, times) -> np.ndarray:
    """Exact covariance matrix of ``hermite_ensemble``'s values at grid times.

    Its diagonal is t^{2H}; its off-diagonal departure from the fBM
    covariance is the sampler's own correlation-shape error.
    """
    grid = engine.grid
    t = np.atleast_1d(np.asarray(times, dtype=float))
    idx = np.rint(t / grid.dt).astype(int)
    if np.any(idx < 0) or np.any(idx > grid.n_steps) \
            or not np.allclose(idx * grid.dt, t, rtol=0.0, atol=1e-9 * grid.dt):
        raise ValueError("times must be points of the grid")
    return engine.scale[idx, None] * engine.C[np.ix_(idx, idx)] * engine.scale[idx]


# ----------------------------------------------------------------- fOU kernel


def _fou_kernel(fine: TimeGrid, H: float, eps: float, stride: int) -> _CellKernel:
    """Wiener kernel of y^eps at every stride-th point of fine, on fine's cells.

    Row k, cell i holds eps^{-1/2} ghat((t_k - c_i)/eps) sqrt(w_i), with
    t_k = k stride dt, c_i the midpoint and w_i the width of cell i, so
    y^eps_{t_k} = M[k] . N for the unit normals N of the cells.  On the
    uniform cells an entry depends only on the lag t_k - c_i, so that
    block is a set of windows of one lag profile; on the geometric cells
    ghat is evaluated at the node rows of ``_far_nodes`` only.
    """
    edges = _cell_edges(fine)
    n, dt = fine.n_steps, fine.dt
    n_far = len(edges) - 1 - 2 * n
    rows = stride * np.arange(n // stride + 1)
    nodes, P = _far_nodes(rows * dt)
    far_mid = 0.5 * (edges[:n_far] + edges[1 : n_far + 1])
    far = ghat((nodes[:, None] - far_mid) / eps, H) * np.sqrt(np.diff(edges[: n_far + 1]) / eps)
    # uniform cell j's midpoint lies (r + n - j - 1/2) dt before fine point r:
    # profile entry n - r + j
    profile = ghat((2 * n - 0.5 - np.arange(3 * n)) * (dt / eps), H) * math.sqrt(dt / eps)
    return _CellKernel(sliding_window_view(profile, 2 * n)[n - rows], far, P)


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
    evaluation for all H in (1/2, 1).  Requires H > 1/2.
    """
    h = as_hurst(H)
    amp = fou.kernel_amplitude(h)  # raises for H <= 1/2
    v_arr = np.clip(np.asarray(v, dtype=float), 0.0, None)
    q = h - 0.5
    flat = v_arr.ravel()
    near = flat <= _KUMMER_MAX_V
    vn = flat[near]
    out = np.empty_like(flat)
    out[near] = vn**q / q * np.exp(-vn) * special.hyp1f1(q, q + 1.0, vn)
    poch = np.cumprod(1.0 - q + np.arange(_WATSON_TERMS - 1))  # (1-q)_k, k = 1..9
    x = np.reciprocal(flat[~near])
    series = poch[-1] * x
    for coef in poch[-2::-1]:
        series += coef
        series *= x
    series += 1.0
    series *= np.power(x, 1.0 - q, out=x)
    out[~near] = series
    out = amp * out.reshape(v_arr.shape)
    return float(out) if out.ndim == 0 else out
