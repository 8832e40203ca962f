"""Exact finite-eps second moments that the Monte Carlo scans estimate.

The variance of the time integral of G(y^eps): for a centred
G = sum_k c_k He_k of the stationary fOU, Mehler's formula gives
Cov(G(y_s), G(y_u)) = C(rho((u - s)/eps)), C(r) = sum_k c_k^2 k! r^k.
The variance of int_0^t G(y^eps) ds is then one integral over the lag in
continuous time, and one sum over lags for the trapezoid rule on the
grid ``harness.variance_scan`` samples: O(n) per chaos order, exact up to
rounding (and the quadrature, in continuous time).  Their ratio is the
relative bias of the sampled variance: ``resolve_dt_ratio`` turns it into
the one grid rule of every sampled integral of G(y^eps).  The trapezoid
integral of He_2(y^eps) is a Gaussian quadratic form, whose spectrum gives
its cumulants, its excess kurtosis and the SE of a sample's.

The covariance of the kinetic scan's chain: the exponential-Euler
recursion y_k = a y_{k-1} + dB_k, a = e^{-r}, r = dt/eps, on fGN
increments dB of spacing dt, is a filtered stationary sequence, so its
stationary autocovariance in eps units is the Toeplitz sum

    R(L) = r^{2H} / (1 - a^2) sum_m a^{|m|} gamma_H(L + m)

over the unit-spacing fGN autocovariance gamma_H.  It is r a^L / (1 - a^2)
at H = 1/2 and tends to H Gamma(2H) rho(L r) as r -> 0.  Read at the
reporting times by the scan's linear interpolation, it gives every
pairwise second moment behind ``solvers.kinetic_error_scan``'s statistic
exactly (up to the e^{-10} remainder of the scan's burn-in), and so the
sup over pairs that the scan's sample sup estimates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import fgn, fou
from .paths import TimeGrid, as_eps, as_eps_list, as_horizon, as_hurst

__all__ = [
    "DT_RATIO_LADDER",
    "trapezoid_lag_weights",
    "trapezoid_variance",
    "continuous_variance",
    "resolve_dt_ratio",
    "he2_trapezoid_spectrum",
    "quadratic_form_kurtosis",
    "loglog_slope",
    "reading_weights",
    "kinetic_chain_autocovariance",
    "kinetic_reading_covariance",
    "kinetic_sup_errors",
]

# the ratios eps/dt that resolve_dt_ratio tries, coarsest first
DT_RATIO_LADDER = (10.0, 20.0, 50.0, 100.0, 200.0, 400.0)


def _chaos_covariance(G, r: np.ndarray) -> np.ndarray:
    """C(r) = sum_k c_k^2 k! r^k, by Horner's rule."""
    c = G.coefficients
    return np.polynomial.polynomial.polyval(r, c**2 * special.factorial(np.arange(len(c))))


def trapezoid_lag_weights(n_steps: int) -> np.ndarray:
    """S(l) = sum_i w_i w_{i+l}, l = 0..n, of the trapezoid weights (1/2, 1, ..., 1, 1/2).

    In units of dt^2 on n steps: S(0) = n - 1/2, S(l) = n - l for
    0 < l < n, S(n) = 1/4.
    """
    S = n_steps - np.arange(n_steps + 1, dtype=float)
    S[0] -= 0.5
    S[-1] = 0.25
    return S


def trapezoid_variance(G, H, t: float, eps: float, dt_ratio: float) -> float:
    """Var(trapezoid integral of G(y^eps) over [0, t]) on the grid of step eps/dt_ratio.

    The grid is ``TimeGrid.with_step(t, eps / dt_ratio)``, the one the
    scan samples; the variance is
    dt^2 [S(0) C(1) + 2 sum_{l >= 1} S(l) C(rho(l dt / eps))].
    A grid the sampler cannot embed raises SamplerInfeasibleError before
    the O(n) arrays are allocated.
    """
    e = as_eps(eps)
    grid = TimeGrid.with_step(t, e / dt_ratio)
    if grid.n_steps > fgn.MAX_EMBEDDING_LAGS:
        raise fgn.SamplerInfeasibleError(f"{grid.n_steps} steps exceed the circulant "
                                         f"embedding cap of {fgn.MAX_EMBEDDING_LAGS} lags")
    S = trapezoid_lag_weights(grid.n_steps)
    S[1:] *= 2.0
    r = fou.rho(np.arange(grid.n_steps + 1) * (grid.dt / e), H)
    return grid.dt**2 * float(S @ _chaos_covariance(G, r))


def continuous_variance(G, H, t: float, eps: float) -> float:
    """Var(int_0^t G(y^eps_s) ds) = 2 eps int_0^{t/eps} (t - eps u) C(rho(u)) du.

    Gauss-Legendre on the geometric panels of ``fou.rho_power_integral``.
    """
    e, T = as_eps(eps), as_horizon(t)
    u, w = fou._panel_rule(T / e)
    return float(2.0 * e * np.sum(w * (T - e * u) * _chaos_covariance(G, fou.rho(u, H))))


def resolve_dt_ratio(G, H, t: float, eps_list, n_replicas: int,
                     dt_ratio: float | None = None) -> tuple[dict, np.ndarray]:
    """The ratio eps/dt of n_replicas sampled integrals of G(y^eps), and its exact variances.

    None takes the first rung of DT_RATIO_LADDER whose trapezoid variance is
    within the bias budget of ``continuous_variance`` at every eps of
    ``as_eps_list(eps_list)``, and whose grids all resolve the fast scale
    (dt <= eps / fou.MIN_STEPS_PER_EPS, which rounding the step count can
    break at 10); failing that, the last.  A positive finite number is taken
    as it is.  The dict holds dt_ratio, trapezoid_bias (one relative bias per
    eps, 0 where the variance is 0), bias_budget and bias_budget_met.  The
    budget counts G's trapezoid bias alone, not the error of a solver
    stepped on the same grid (``homogenize`` with a drift).
    """
    if dt_ratio is not None and not 0.0 < dt_ratio < np.inf:
        raise ValueError(f"--dt-ratio must be positive and finite, got {dt_ratio}")
    if n_replicas < 2:
        raise ValueError(f"a sample variance needs at least 2 replicas, got {n_replicas}")
    # a tenth of sqrt(2 / (n - 1)), the Gaussian relative SE of a sample
    # variance: heavy tails only widen that SE, so the budget is conservative
    budget = 0.1 * float(np.sqrt(2.0 / (n_replicas - 1)))
    eps_arr = as_eps_list(eps_list)
    target = np.array([continuous_variance(G, H, t, e) for e in eps_arr])
    for ratio in DT_RATIO_LADDER if dt_ratio is None else (dt_ratio,):
        var = np.array([trapezoid_variance(G, H, t, e, ratio) for e in eps_arr])
        # a variance that underflows to 0 (a horizon such as 1e-300) has no bias
        bias = np.divide(var, target, out=np.ones_like(var), where=target != 0.0) - 1.0
        met = bool(np.max(np.abs(bias)) <= budget)
        if met and all(fou._resolves(TimeGrid.with_step(t, e / ratio).dt, e) for e in eps_arr):
            break
    return {"dt_ratio": ratio, "trapezoid_bias": bias, "bias_budget": budget,
            "bias_budget_met": met}, var


def he2_trapezoid_spectrum(H, t: float, eps: float, dt_ratio: float) -> np.ndarray:
    """Eigenvalues lam of W^{1/2} R W^{1/2}, R_ij = rho(|t_i - t_j| / eps) and W the
    trapezoid weights on the grid of step eps/dt_ratio: the trapezoid integral of
    He_2(y^eps) over [0, t] is sum lam_k (e_k^2 - 1), e iid N(0, 1).  Dense, and one
    ``eigvalsh``: about 1 s at 2,000 steps.
    """
    e = as_eps(eps)
    grid = TimeGrid.with_step(t, e / dt_ratio)
    idx = np.arange(grid.n_steps + 1)
    sw = np.full(len(idx), np.sqrt(grid.dt))
    sw[[0, -1]] *= np.sqrt(0.5)
    M = fou.rho(idx * (grid.dt / e), H)[np.abs(idx[:, None] - idx[None, :])]
    M *= sw
    M *= sw[:, None]
    return np.linalg.eigvalsh(M)


def _central_moments(kappa: np.ndarray) -> np.ndarray:
    """mu_n = sum_{k=1}^n C(n - 1, k - 1) kappa_k mu_{n-k}: moments from cumulants."""
    mu = np.ones(len(kappa))
    for n in range(1, len(kappa)):
        mu[n] = sum(math.comb(n - 1, k - 1) * kappa[k] * mu[n - k] for k in range(1, n + 1))
    return mu


def quadratic_form_kurtosis(lam, n_samples: int) -> tuple[np.ndarray, float, float]:
    """Cumulants kappa[j] = 2^{j-1} (j - 1)! sum lam^j (j = 2..8; kappa[0], kappa[1]
    are 0), excess kurtosis and the delta-method SE of the sample excess kurtosis
    of n_samples draws of u = sum lam_k (e_k^2 - 1): sqrt(E[IF^2] / n), IF the
    influence function ``harness.excess_kurtosis_with_se`` takes on a sample.
    """
    kappa = np.zeros(9)
    for j in range(2, 9):
        kappa[j] = 2.0 ** (j - 1) * math.factorial(j - 1) * np.sum(np.asarray(lam) ** j)
    # at unit variance IF = u^4 - mu_4 - 4 mu_3 u + b (u^2 - 1), b = -2 mu_4
    mu = _central_moments(kappa / kappa[2] ** (np.arange(9) / 2.0))
    b = -2.0 * mu[4]
    var_if = (mu[8] - mu[4] ** 2 + b * b * (mu[4] - 1.0) + 2.0 * b * (mu[6] - mu[4])
              + 16.0 * mu[3] ** 2 - 8.0 * mu[3] * mu[5] - 8.0 * b * mu[3] ** 2)
    return kappa, float(kappa[4] / kappa[2] ** 2), float(np.sqrt(var_if / n_samples))


def loglog_slope(eps_values, values) -> float:
    """Least-squares slope of log(values) against log(1/eps), as a scan fits it.

    Written out: np.polyfit's LAPACK call adds 0.6 MB to the peak RSS.
    """
    x = np.log(1.0 / np.asarray(eps_values, dtype=float))
    x -= x.mean()
    return float(np.sum(x * np.log(values)) / np.sum(x * x))


def reading_weights(times, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices lo and weights w that read grid point k*dt at ``times`` linearly.

    A reading is (1 - w) v[lo] + w v[lo + 1].  A time within 1e-9 steps
    of a grid point reads that point exactly (w = 0), so on-grid reads
    are bit-exact.
    """
    pos = np.asarray(times, dtype=float) / dt
    near = np.round(pos)
    on_grid = np.abs(pos - near) < 1e-9
    lo = np.where(on_grid, near, np.floor(pos)).astype(int)
    return lo, np.where(on_grid, 0.0, pos - lo)


def kinetic_chain_autocovariance(H, r: float, n_lags: int) -> np.ndarray:
    """R(L), L = 0..n_lags-1, of the chain y_k = e^{-r} y_{k-1} + dB_k in eps units.

    The sum over m is cut where a^{|m|} < e^{-45}, far below rounding,
    and taken as one FFT convolution (numpy's, which the fGN engine has
    already set up, at a 5-smooth length).
    """
    h = as_hurst(H)
    reach = int(np.ceil(45.0 / r))
    kernel = np.exp(-r * np.abs(np.arange(-reach, reach + 1)))
    gamma = fgn.fgn_autocovariance(np.arange(-reach, n_lags + reach), h)
    size = fgn._smooth_length(len(gamma) + 2 * reach)
    conv = np.fft.irfft(np.fft.rfft(gamma, size) * np.fft.rfft(kernel, size), size)
    return r ** (2.0 * h) / -np.expm1(-2.0 * r) * conv[2 * reach : 2 * reach + n_lags]


def kinetic_reading_covariance(H, eps: float, times, dt_ratio: float) -> np.ndarray:
    """Cov of sigma * y read at ``times`` on the grid of step eps/dt_ratio, y the
    stationary chain of ``kinetic_chain_autocovariance`` with gain eps^H.

    These are the scan's eps v readings; its error X - sigma B is minus
    their increment from t = 0.
    """
    e = as_eps(eps)
    lo, w = reading_weights(times, e / dt_ratio)
    points = np.concatenate([lo, lo + 1])
    R = kinetic_chain_autocovariance(H, 1.0 / dt_ratio, int(points.max()) + 1)
    read = np.hstack([np.diag(1.0 - w), np.diag(w)])
    scale = fou.stationary_sigma(H) ** 2 * e ** (2.0 * H)
    return scale * (read @ R[np.abs(points[:, None] - points[None, :])] @ read.T)


def kinetic_sup_errors(H, eps_list, times, dt_ratio: float) -> np.ndarray:
    """sup over pairs j, k of sqrt(E(d_j - d_k)^2), d the readings of X - sigma B,
    one per eps of ``as_eps_list(eps_list)``: the target of the kinetic scan."""
    out = []
    for e in as_eps_list(eps_list):
        C = kinetic_reading_covariance(H, e, times, dt_ratio)
        d = np.diag(C)
        out.append(np.sqrt(np.max(d[:, None] + d[None, :] - 2.0 * C)))
    return np.array(out)
