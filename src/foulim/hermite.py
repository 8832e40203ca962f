"""Hermite processes by discretized multiple Wiener-Ito integrals.

Z^{H,m} is defined by an m-fold Wiener integral, over the off-diagonal
region, of the time-integrated product kernel

    F_t(xi) = int_0^t prod_j (s - xi_j)_+^{(H-1)/m - 1/2} ds,

scaled by K(H,m)/m! with K from the unit-variance normalization
(m = 1 recovers the Mandelbrot-Van Ness fBM, m = 2 the Rosenblatt
process).  One engine serves every caller.  The white noise lives on
graded cells: width dt, aligned with the time grid, on [-T, T], then
widths growing geometrically (x1.05) out to -1e30, so no noise window
is cut off (1,863 cells at 200 steps, 2,277 at 400).  The kernel at the
midpoint of step s enters through its exact per-cell averages times
sqrt(width), a_s, and the step's term is the Wick form of the multiple
integral of a_s^{(x)m}, I_m = ||a_s||^m He_m(u_s/||a_s||) with
u_s = sum_i a_s[i] N_i (u_s itself for m = 1).  Its discrete covariance
is exact in one line, m! ds^2 sum_{s<j, s'<k} ((A A^T)^m)_{ss'}
(``exact_covariance``), and the cost is O(n_s * n_cells) for every m.
A ``HermiteEngine`` holds them for one (grid, spec), built once per
operation and handed to every chunk, as with ``fou.path_sampler``.
``hermite_ensemble`` draws one row of cell noise per Philox key it is
given; ensembles take their keys chunk by chunk from
``harness.run_replicated``.

``ghat`` is the moving-average kernel of the fast fOU,
y^eps_t = eps^{-1/2} int ghat((t-s)/eps) dW_s (Taqqu's moving-average
framework).  It is a confluent hypergeometric function in closed form,
ghat(v) = C(H) v^{H-1/2}/(H-1/2) 1F1(1; H+1/2; -v), by ``scipy.special.hyp1f1``
up to v = 700 and Watson's series beyond, within about 1e-14 for H in (1/2, 1).
``harness.l2_convergence_hermite`` builds both the fOU (through ghat at
the cell midpoints) and the Hermite limit from one white noise on the
engine's cells, which is what makes L2 (not merely weak) convergence of
the scaled functionals toward the Hermite limits directly measurable on
coupled samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from . import chaos, fou
from .fgn import BLOCK_BYTES
from .paths import TimeGrid, as_hurst
from .streams import normals

__all__ = [
    "HermiteSpec",
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


@dataclass(frozen=True)
class HermiteSpec:
    """Target Hermite process: exponent H in (1/2,1), order m in {1,2,3}."""

    H: float
    m: int

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ValueError("Hermite process exponent H must lie in (1/2, 1)")
        if self.m < 1:
            raise ValueError("order m must be >= 1")
        if self.m > chaos.MAX_HERMITE_ORDER:
            raise ValueError(
                f"order not supported: m={self.m} exceeds cap {chaos.MAX_HERMITE_ORDER}"
            )

    @property
    def kernel_exponent(self) -> float:
        """(H-1)/m - 1/2, the power on each factor (s - xi)_+."""
        return (self.H - 1.0) / self.m - 0.5


def _cell_edges(grid: TimeGrid) -> np.ndarray:
    """Ascending edges of the noise cells of a time grid.

    The last 2n cells have width dt and edges k dt, k = -n..n; below
    them the widths are dt 1.05^k, k = 1, 2, ..., until the first edge
    at or beyond -1e30.
    """
    n, dt = grid.n_steps, grid.dt
    near = dt * np.arange(-n, n + 1)
    g = _CELL_GROWTH
    n_far = math.ceil(math.log1p((_FAR_EDGE + near[0]) * (g - 1.0) / (dt * g))
                      / math.log(g))
    far = near[0] - np.cumsum(dt * g ** np.arange(1, n_far + 1))
    return np.concatenate([far[::-1], near])


def _cell_averaged_kernel(s: np.ndarray, edges: np.ndarray, b: float) -> np.ndarray:
    """Exact cell averages of (s - xi)_+^b, shape (len(s), n_cells).

    Integrating the power analytically per cell keeps the integrable
    singularity at xi -> s- from polluting the quadrature.  The
    antiderivative (s - e)_+^{b+1} is taken at every edge e once, a
    block of rows at a time, and cell i is its difference between edges
    i and i + 1, so the result is the only array of its size.
    """
    p = b + 1.0
    out = np.empty((len(s), len(edges) - 1))
    rows = max(1, BLOCK_BYTES // (8 * len(edges)))
    for a in range(0, len(s), rows):
        P = np.clip(np.subtract.outer(s[a : a + rows], edges), 0.0, None)
        np.power(P, p, out=P)
        np.subtract(P[:, :-1], P[:, 1:], out=out[a : a + rows])
    out /= p * np.diff(edges)
    return out


def _kernel(grid: TimeGrid, spec: HermiteSpec) -> np.ndarray:
    """The engine's kernel: A[s, i] is the cell-averaged kernel of step s
    times sqrt(width of cell i), so u_s = A[s] . N has variance ||A[s]||^2."""
    edges = _cell_edges(grid)
    s_mid = grid.times()[:-1] + 0.5 * grid.dt
    A = _cell_averaged_kernel(s_mid, edges, spec.kernel_exponent)
    A *= np.sqrt(np.diff(edges))
    return A


class HermiteEngine:
    """Kernel, step variances, per-time scale and raw covariance of a (grid, spec).

    Built once per operation by the caller and handed to every chunk.  A
    (n_steps x n_cells) is ``_kernel`` and var[s] = ||A[s]||^2.  C is the
    exact covariance of the cumulative Wick series (``_series_covariance``),
    and scale[k] = t_k^H / sqrt(C[k, k]) maps it to Var(Z_t) = t^{2H},
    absorbing the discretization loss that plain K/m! scaling would
    leave.  The arrays are read-only, so concurrent chunks share them.
    """

    def __init__(self, grid: TimeGrid, spec: HermiteSpec):
        self.grid, self.spec = grid, spec
        self.A = _kernel(grid, spec)
        gram = self.A @ self.A.T
        self.var = np.diag(gram).copy()
        self.C = _series_covariance(gram, spec.m, grid.dt)
        self.scale = np.zeros(grid.n_steps + 1)
        self.scale[1:] = grid.times()[1:] ** spec.H / np.sqrt(np.diag(self.C)[1:])
        for arr in (self.A, self.var, self.C, self.scale):
            arr.flags.writeable = False


def _series_covariance(gram: np.ndarray, m: int, ds: float) -> np.ndarray:
    """Covariance of the cumulative series sum_{s<k} ds :u_s^m: at k = 0..n.

    With gram = A A^T the step terms have E[:u_s^m: :u_s'^m:] =
    m! gram[s, s']^m, so C[j, k] = m! ds^2 sum_{s<j, s'<k} gram[s, s']^m.
    """
    n = gram.shape[0]
    C = np.zeros((n + 1, n + 1))
    C[1:, 1:] = (math.factorial(m) * ds * ds * gram**m).cumsum(0).cumsum(1)
    return C


def _wick_power(u: np.ndarray, var: np.ndarray, m: int) -> np.ndarray:
    """The Wick power :u^m: = var^{m/2} He_m(u / sqrt(var)) of u ~ N(0, var).

    By the recurrence :u^{k+1}: = u :u^k: - k var :u^{k-1}:, so m = 1
    returns u itself.
    """
    prev, cur = np.ones_like(u), u
    for k in range(1, m):
        prev, cur = cur, u * cur - k * var * prev
    return cur


def hermite_ensemble(engine: HermiteEngine, keys: np.ndarray,
                     report_idx=None) -> np.ndarray:
    """Replica matrix of Z^{H,m} values on the engine's grid.

    Row i is driven by the noise of the stream whose Philox key is
    keys[i]; report_idx selects grid indices (default: the endpoint
    only).  A row is reproducible for a fixed chunking, but not
    bit-identical across chunkings: the projections are one matrix
    product over all rows, whose rounding depends on the row count, so
    the same replica drawn in chunks of different sizes moves in the
    last few ulps.  Callers that promise bit-identical output fix the
    chunk size, as ``harness.run_replicated`` does.
    """
    if report_idx is None:
        report_idx = np.array([engine.grid.n_steps])
    report_idx = np.asarray(report_idx, dtype=int)
    N = normals(keys, np.empty((len(keys), engine.A.shape[1])))
    series = _wick_power(N @ engine.A.T, engine.var, engine.spec.m)
    cum = np.concatenate(
        [np.zeros((len(keys), 1)), np.cumsum(series * engine.grid.dt, axis=1)], axis=1
    )
    return cum[:, report_idx] * engine.scale[report_idx]


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


def _fou_kernel(fine: TimeGrid, H: float, eps: float, stride: int) -> np.ndarray:
    """Wiener kernel of y^eps at every stride-th point of fine, on fine's cells.

    Row k, cell i holds eps^{-1/2} ghat((t_k - c_i)/eps) sqrt(w_i), with
    t_k = k stride dt, c_i the midpoint and w_i the width of cell i, so
    y^eps_{t_k} = M[k] . N for the unit normals N of the cells.  On the
    uniform cells an entry depends only on the lag t_k - c_i, so that
    block is a set of windows of one lag profile; the geometric cells
    are evaluated dense, a block of rows at a time, straight into M.
    """
    edges = _cell_edges(fine)
    n, dt = fine.n_steps, fine.dt
    n_far = len(edges) - 1 - 2 * n
    rows = stride * np.arange(n // stride + 1)
    far_mid = 0.5 * (edges[:n_far] + edges[1 : n_far + 1])
    M = np.empty((len(rows), len(edges) - 1))
    block = max(1, BLOCK_BYTES // (8 * n_far))
    for a in range(0, len(rows), block):
        M[a : a + block, :n_far] = ghat((rows[a : a + block, None] * dt - far_mid) / eps, H)
    # uniform cell j's midpoint lies (r + n - j - 1/2) dt before fine point r:
    # profile entry n - r + j
    profile = ghat((2 * n - 0.5 - np.arange(3 * n)) * (dt / eps), H)
    M[:, n_far:] = sliding_window_view(profile, 2 * n)[n - rows]
    M *= np.sqrt(np.diff(edges) / eps)
    return M


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
