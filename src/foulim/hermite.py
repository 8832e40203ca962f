"""Hermite processes by discretized multiple Wiener-Ito integrals.

Z^{H,m} is defined by an m-fold Wiener integral, over the off-diagonal
region, of the time-integrated product kernel

    F_t(xi) = int_0^t prod_j (s - xi_j)_+^{(H-1)/m - 1/2} ds,

scaled by K(H,m)/m! with K from the unit-variance normalization
(m = 1 recovers the Mandelbrot-Van Ness fBM, m = 2 the Rosenblatt
process).  The white noise lives on a uniform grid of cells; the kernel
enters through exact per-cell averages, and the off-diagonal sums reduce
to power sums of the per-time projections u_s = sum_i a_s[i] W_i, which
keeps the cost at O(n_s * n_xi) for every m <= 3.

``ghat`` is the moving-average kernel of the fast fOU,
y^eps_t = eps^{-1/2} int ghat((t-s)/eps) dW_s (Taqqu's moving-average
framework).  It is a confluent hypergeometric function in closed form,
ghat(v) = C(H) v^{H-1/2}/(H-1/2) 1F1(1; H+1/2; -v), evaluated through
``scipy.special.hyp1f1`` to about 1e-14 relative on all of H in (1/2, 1).
``harness.l2_convergence_hermite`` builds both the fOU and the Hermite
limit from one white noise on a shared cell grid, which is what makes L2
(not merely weak) convergence of the scaled functionals toward the
Hermite limits directly measurable on coupled samples.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import chaos, fou
from .paths import TimeGrid, as_hurst
from .streams import stream

__all__ = [
    "HermiteSpec",
    "hermite_ensemble",
    "ghat",
    "truncation_bias_estimate",
]

# ghat switches from Kummer's transformed form, which holds e^v, at this v
_KUMMER_MAX_V = 700.0
# the window tail in truncation_bias_estimate: a 24-node Gauss-Legendre
# rule on this many geometric panels per decade, out to _TAIL_FAR
# times the larger of window and horizon
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_TAIL_PANELS_PER_DECADE = 2
_TAIL_FAR = 1e8


@dataclass(frozen=True)
class HermiteSpec:
    """Target Hermite process: exponent H in (1/2,1), order m in {1,2,3}."""

    H: float
    m: int
    xi_window: float
    n_xi: int

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ValueError("Hermite process exponent H must lie in (1/2, 1)")
        if self.m < 1:
            raise ValueError("order m must be >= 1")
        if self.m > chaos.MAX_HERMITE_ORDER:
            raise ValueError(
                f"order not supported: m={self.m} exceeds cap {chaos.MAX_HERMITE_ORDER}"
            )
        if self.xi_window <= 0:
            raise ValueError("xi_window must be positive")
        if self.n_xi < 2:
            raise ValueError("n_xi must be at least 2")

    @property
    def kernel_exponent(self) -> float:
        """(H-1)/m - 1/2, the power on each factor (s - xi)_+."""
        return (self.H - 1.0) / self.m - 0.5


def _cell_averaged_kernel(s: np.ndarray, edges: np.ndarray, b: float) -> np.ndarray:
    """Exact cell averages of (s - xi)_+^b, shape (len(s), n_cells).

    Integrating the power analytically per cell keeps the integrable
    singularity at xi -> s- from polluting the quadrature.  The matrix is
    built in place, with one temporary of its size.
    """
    lo = edges[:-1]
    hi = edges[1:]
    p = b + 1.0
    out = np.subtract.outer(s, lo)
    bot = np.subtract.outer(s, hi)
    for arr in (out, bot):
        np.clip(arr, 0.0, None, out=arr)
        np.power(arr, p, out=arr)
    out -= bot
    out /= p * (hi - lo)
    return out


def _offdiag_series(A_hat: np.ndarray, m: int, N: np.ndarray) -> np.ndarray:
    """Off-diagonal m-fold sums per time step.

    A_hat[s, i] is the cell-averaged kernel times sqrt(dxi); N holds unit
    normals, shape (..., n_xi).  Row s of the result is the strictly
    off-diagonal contraction sum_{i1 != ... != im} prod A_hat[s, i_j] N_{i_j},
    reduced to power sums of u = A_hat N (elementary symmetric identities),
    which is the discrete multiple Wiener-Ito integral of the rank-one
    kernel at time s.
    """
    u = N @ A_hat.T
    if m == 1:
        return u
    q = (N * N) @ (A_hat * A_hat).T
    if m == 2:
        return u * u - q
    r = (N**3) @ (A_hat**3).T
    return u**3 - 3.0 * q * u + 2.0 * r


def _prefix_diag(P: np.ndarray) -> np.ndarray:
    """D[k] = sum_{s < k, s' < k} P[s, s'] for k = 0..n (symmetric P)."""
    n = P.shape[0]
    D = np.empty(n + 1)
    D[0] = 0.0
    for k in range(n):
        D[k + 1] = D[k] + 2.0 * P[k, :k].sum() + P[k, k]
    return D


def _exact_variances(A_hat: np.ndarray, m: int, ds: float) -> np.ndarray:
    """Exact Var of the cumulative off-diagonal series at every grid point.

    Uses Gram-matrix identities in the (small) time dimension, e.g. for
    m = 2: Var = 2*(sum_{s,s'} ds^2 Gamma^2 - sum_i c[i]^2) with
    Gamma = A_hat A_hat^T and c the running column sums of ds*A_hat^2.
    """
    n_s = A_hat.shape[0]
    G = A_hat @ A_hat.T
    if m == 1:
        return _prefix_diag(ds * ds * G)
    A2 = A_hat * A_hat
    if m == 2:
        full = _prefix_diag(ds * ds * G * G)
        c = np.zeros(A_hat.shape[1])
        diag = np.empty(n_s + 1)
        diag[0] = 0.0
        for k in range(n_s):
            row = A2[k]
            diag[k + 1] = diag[k] + 2.0 * ds * (c @ row) + ds * ds * (row @ row)
            c += ds * row
        return 2.0 * (full - diag)
    # m = 3: subtract the two coincidence patterns (i=j!=k and i=j=k)
    Q = A2 @ A2.T
    full = _prefix_diag(ds * ds * G**3)
    pair = _prefix_diag(ds * ds * Q * G)
    A3 = A2 * A_hat
    d = np.zeros(A_hat.shape[1])
    triple = np.empty(n_s + 1)
    triple[0] = 0.0
    for k in range(n_s):
        row = A3[k]
        triple[k + 1] = triple[k] + 2.0 * ds * (d @ row) + ds * ds * (row @ row)
        d += ds * row
    return 6.0 * (full - 3.0 * pair + 2.0 * triple)


@functools.lru_cache(maxsize=8)  # each entry holds n_steps * n_xi floats
def _sampler_arrays(grid: TimeGrid, spec: HermiteSpec):
    """Kernel matrix and per-time normalization for a (grid, spec) pair.

    Returns (A_hat, scale) where scale[k] maps the cumulative raw series
    at grid point k to the unit-variance-at-1 Hermite process: the law of
    the multiple integral is matched exactly at second order,
    Var(Z_t) = t^{2H}, absorbing the cell-projection and window losses
    that plain K/m! scaling would leave (those vanish only at impractical
    resolutions for m >= 2).  Both arrays are cached and must not be
    modified; when a pair is built, it warns if the xi window cuts off
    more than a quarter of the kernel mass.
    """
    bias = truncation_bias_estimate(spec, grid.horizon)
    if bias > 0.25:
        warnings.warn(
            f"xi_window={spec.xi_window} truncates an estimated {bias:.1%} of the "
            "raw kernel mass; the variance is renormalized exactly but the "
            "correlation shape may be distorted",
            stacklevel=3,
        )
    edges = np.linspace(-spec.xi_window, grid.horizon, spec.n_xi + 1)
    dxi = edges[1] - edges[0]
    s_mid = grid.times()[:-1] + 0.5 * grid.dt
    A_hat = _cell_averaged_kernel(s_mid, edges, spec.kernel_exponent)
    A_hat *= np.sqrt(dxi)
    V = _exact_variances(A_hat, spec.m, grid.dt)
    t = grid.times()
    scale = np.zeros(grid.n_steps + 1)
    scale[1:] = t[1:] ** spec.H / np.sqrt(V[1:])
    return A_hat, scale


def hermite_ensemble(
    grid: TimeGrid,
    spec: HermiteSpec,
    master_seed: int,
    n_replicas: int,
    name: str = "hermite",
    report_idx=None,
    replica_offset: int = 0,
) -> np.ndarray:
    """Replica matrix of Z^{H,m} values (kernel matrices built once).

    Row i is driven by the noise of stream (master_seed, name,
    replica_offset + i); report_idx selects grid indices (default: the
    endpoint only).  A row is reproducible for a fixed chunking, but not
    bit-identical across chunkings: the projections are one matrix
    product over all rows, whose rounding depends on the row count, so
    the same replica drawn in chunks of different sizes moves in the
    last few ulps.  Callers that promise bit-identical output fix the
    chunk size, as ``harness.run_replicated`` does.
    """
    if report_idx is None:
        report_idx = np.array([grid.n_steps])
    report_idx = np.asarray(report_idx, dtype=int)
    A_hat, scale = _sampler_arrays(grid, spec)
    N = np.empty((n_replicas, spec.n_xi))
    for i, row in enumerate(N):
        stream(master_seed, name, replica_offset + i).standard_normal(out=row)
    series = _offdiag_series(A_hat, spec.m, N)
    cum = np.concatenate(
        [np.zeros((n_replicas, 1)), np.cumsum(series * grid.dt, axis=1)], axis=1
    )
    return cum[:, report_idx] * scale[report_idx]


def truncation_bias_estimate(spec: HermiteSpec, horizon: float) -> float:
    """Estimated relative variance loss from truncating xi at -xi_window.

    Union bound: m times the one-coordinate tail share of the kernel's
    L2 norm.  With u = -xi and p = b + 1 (b the kernel exponent) the tail
    is int_L^inf ((u+T)^p - u^p)^2/p^2 du, whose integrand decays only
    like u^{2p-2} = u^{2(H-1)/m - 1}.  An adaptive rule on the infinite
    range loses most of that mass for wide windows, so the tail is summed
    by Gauss-Legendre on geometric panels from L out to U = 1e8 max(L, T)
    and completed beyond U in closed form from the first two terms of
    its expansion in T/u, which leave a relative error of (T/U)^2.
    """
    p = spec.kernel_exponent + 1.0
    L = spec.xi_window
    T = horizon
    U = _TAIL_FAR * max(L, T)
    n_panels = math.ceil(_TAIL_PANELS_PER_DECADE * math.log10(U / L))
    edges = np.geomspace(L, U, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    u = lo + half * (1.0 + _GL_X)
    # (u+T)^p - u^p without cancelling the two large powers
    diff = u**p * np.expm1(p * np.log1p(T / u)) / p
    near = float(np.sum(half * _GL_W * diff**2))
    e = 2.0 * p - 1.0  # < 0
    far = T**2 * U**e / -e + (p - 1.0) * T**3 * U ** (e - 1.0) / (1.0 - e)
    full = _kernel_marginal_norm_sq(p - 1.0, T)
    return float(min(1.0, spec.m * (near + far) / full))


def _kernel_marginal_norm_sq(b: float, T: float) -> float:
    # ||int_0^T (s-xi)_+^b ds||^2_{L2(dxi)} = J(b) * T^{2b+3} * 2/((2b+2)(2b+3))
    J = chaos._kernel_pair_integral(b)
    e = 2.0 * b + 1.0
    return J * T ** (e + 2.0) * 2.0 * (1.0 / (e + 1.0) - 1.0 / (e + 2.0))


# ----------------------------------------------------------------- fOU kernel


def ghat(v, H) -> np.ndarray | float:
    """Moving-average kernel of the unit-rate stationary fOU, in closed form.

    ghat(v) = C(H) e^{-v} int_0^v e^u u^{q-1} du = C(H) v^q/q 1F1(1; q+1; -v)
    for v > 0 and zero otherwise, with q = H - 1/2 and C(H) =
    ``fou.kernel_amplitude``; ghat(v) ~ C(H) v^{H-3/2} at infinity and
    int_0^inf ghat^2 = 1 (unit stationary variance via the Wiener
    isometry).  Up to v = 700 it is evaluated in Kummer's transformed
    form v^q/q e^{-v} 1F1(q; q+1; v), whose series has positive terms;
    beyond, where e^v overflows, 1F1(1; b; -v) with b = fl(q + 1) is
    divided by b - 1 rather than by q, which cancels the rounding of b
    in its tail (b - 1)/v.  Both stay within about 1e-14 of a 40-digit
    evaluation for all H in (1/2, 1).  Requires H > 1/2.
    """
    h = as_hurst(H)
    amp = fou.kernel_amplitude(h)  # raises for H <= 1/2
    v_arr = np.clip(np.asarray(v, dtype=float), 0.0, None)
    q = h - 0.5
    b = q + 1.0
    flat = v_arr.ravel()
    near = flat <= _KUMMER_MAX_V
    vn, vf = flat[near], flat[~near]
    out = np.empty_like(flat)
    out[near] = vn**q / q * np.exp(-vn) * special.hyp1f1(q, b, vn)
    out[~near] = vf**q / (b - 1.0) * special.hyp1f1(1.0, b, -vf)
    out = amp * out.reshape(v_arr.shape)
    return float(out) if out.ndim == 0 else out
