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
at H = 1/2 and tends to H Gamma(2H) rho(L r) as r -> 0.  It is also
the autocovariance the scan draws its chains from, R(s k) for the
lattice of stride s that an eps's readings touch, so read at the
reporting times by the scan's linear interpolation it gives every
pairwise second moment behind ``solvers.kinetic_error_scan``'s statistic
exactly, and so the sup over pairs and the pair where it falls, at which
the scan reads its sample error; ``sup_over_pairs`` takes the sup a block
of rows at a time.
"""

from __future__ import annotations

import math

import numpy as np

from . import chaos, fgn, fou
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
    "sup_over_pairs",
    "kinetic_sup_errors",
]

# the ratios eps/dt that resolve_dt_ratio tries, coarsest first
DT_RATIO_LADDER = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 20.0, 50.0, 100.0, 200.0, 400.0)


def _chaos_covariance(G, r: np.ndarray) -> np.ndarray:
    """C(r) = sum_k c_k^2 k! r^k, by Horner's rule."""
    c = G.coefficients
    return np.polynomial.polynomial.polyval(r, c**2 * chaos._factorials(len(c)))


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


def resolve_dt_ratio(G, H, t: float, eps_list, n_replicas: int) -> tuple[dict, np.ndarray]:
    """The ratio eps/dt of n_replicas sampled integrals of G(y^eps), and its exact variances.

    The ratio is the first rung of DT_RATIO_LADDER whose trapezoid variance
    is within the bias budget of ``continuous_variance`` at every eps of
    ``as_eps_list(eps_list)``; failing that, the last.  This is the one grid
    rule of every sampled integral of G(y^eps): the sampler is exact in law
    at any step, so that bias is the whole rule, for ``homogenize`` with a
    drift too: Heun's own error on the trapezoid increments of that grid
    moves the variance by under 1e-5 relative (He_2 at eps 0.02, H 0.6 and
    0.85).  The dict holds dt_ratio, trapezoid_bias (one relative bias per
    eps, 0 where the variance is 0), bias_budget and bias_budget_met.
    """
    if n_replicas < 2:
        raise ValueError(f"a sample variance needs at least 2 replicas, got {n_replicas}")
    # a tenth of sqrt(2 / (n - 1)), the Gaussian relative SE of a sample
    # variance: heavy tails only widen that SE, so the budget is conservative
    budget = 0.1 * float(np.sqrt(2.0 / (n_replicas - 1)))
    eps_arr = as_eps_list(eps_list)
    for k, ratio in enumerate(DT_RATIO_LADDER):
        var = np.array([trapezoid_variance(G, H, t, e, ratio) for e in eps_arr])
        if k == 0:  # a grid that has no finite step count is refused before the quadrature
            target = np.array([continuous_variance(G, H, t, e) for e in eps_arr])
        # a variance that underflows to 0 (a horizon such as 1e-300) has no bias
        bias = np.divide(var, target, out=np.ones_like(var), where=target != 0.0) - 1.0
        met = bool(np.max(np.abs(bias)) <= budget)
        if met:
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


def sup_over_pairs(m: np.ndarray, rows) -> tuple[float, tuple[int, int]]:
    """max(0, max over j < k of m_j + m_k - 2 M_jk), the largest E(d_j - d_k)^2 of d with
    second moments M, m = diag(M), and the first pair (j, k) where it falls.  ``rows(J)``
    returns M[J, :] for a block of indices J under fgn.BLOCK_BYTES: no len(m)^2 array."""
    n = len(m)
    step = max(1, fgn.BLOCK_BYTES // (8 * n))
    best, pair = 0.0, (0, 1)
    for start in range(0, n - 1, step):
        J = np.arange(start, min(start + step, n - 1))
        sq = np.triu(m[J, None] + m[None, :] - 2.0 * rows(J), start + 1)  # k > j only
        flat = int(np.argmax(sq))
        if sq.flat[flat] > best:
            best, pair = float(sq.flat[flat]), (start + flat // n, flat % n)
    return best, pair


def _kinetic_reading_covariances(H, eps_list, times, dt_ratio: float) -> list:
    """For each eps of ``as_eps_list(eps_list)``, (j, k) -> Cov of sigma ((1 - w) y[lo]
    + w y[lo + 1]) read at times[j] and times[k], for broadcast index arrays, y the chain
    of ``kinetic_chain_autocovariance`` with gain eps^H on the grid of step eps/dt_ratio:
    the scan's eps v readings, whose increment from t = 0 is -(X - sigma B).  The chain's
    R depends on H and dt_ratio alone: one R, out to the finest eps's lags, serves all."""
    eps_arr = as_eps_list(eps_list)
    reads = [reading_weights(times, e / dt_ratio) for e in eps_arr]
    R = kinetic_chain_autocovariance(H, 1.0 / dt_ratio, int(reads[-1][0].max()) + 2)

    def covariance(e, lo, w):
        Re = R * (fou.stationary_sigma(H) ** 2 * e ** (2.0 * H))

        def cov(j, k):
            lag = lo[j] - lo[k]
            return ((1.0 - w[j]) * ((1.0 - w[k]) * Re[np.abs(lag)] + w[k] * Re[np.abs(lag - 1)])
                    + w[j] * ((1.0 - w[k]) * Re[np.abs(lag + 1)] + w[k] * Re[np.abs(lag)]))
        return cov
    return [covariance(e, lo, w) for e, (lo, w) in zip(eps_arr, reads)]


def kinetic_sup_errors(H, eps_list, times, dt_ratio: float) -> tuple[list, np.ndarray]:
    """The pairs (j, k) where sqrt(E(d_j - d_k)^2) is largest, d the readings of
    X - sigma B, and that sup, one each per eps of ``as_eps_list(eps_list)``: the
    kinetic scan reads its sample error at the pairs and targets the sups."""
    idx = np.arange(len(times))
    covs = _kinetic_reading_covariances(H, eps_list, times, dt_ratio)
    sq, pairs = zip(*(sup_over_pairs(c(idx, idx), lambda J: c(J[:, None], idx)) for c in covs))
    return list(pairs), np.sqrt(sq)
