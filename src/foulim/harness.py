"""Monte Carlo verification harness for the scaling-limit claims.

Everything here is replica-parallel with a fixed chunking policy, owned
by ``run_replicated``: replica i of an ensemble named ``name`` always
draws from stream (master_seed, name, i), and chunks have a fixed size,
so results are bit-identical for any worker count.  ``run_replicated``
derives the Philox keys of every replica with one ``streams.keys`` call
and hands each chunk its slice; a chunk function is a pure function of
those keys and passes them on to the samplers.  Within a chunk, the fOU
scans take their paths block by block from one ``fou.path_sampler`` per
scale, built before the chunks, and reduce each block to its per-replica
scalars before the next is drawn, so no chunk-sized path matrix is ever
built.  The trapezoid integral of G(y) is the row sum less half the two
end values, with no array of interval averages.  Scalar aggregation goes
through math.fsum (compensated), keeping reduction reassociation out of
the reported statistics.

Slopes of log statistic against log(1/eps) are fitted by
inverse-variance-weighted least squares, with the closed-form normal
confidence interval of that fit; acceptance checks consume the CI, not
the point estimate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import chaos, exact, fou, hermite
from .chaos import ChaosFunction, Regime
from .paths import TimeGrid, as_eps_list, as_hurst
from .streams import keys

__all__ = [
    "ScanResult",
    "run_replicated",
    "fsum_mean",
    "fsum_variance",
    "variance_stderr",
    "functional_values",
    "fit_loglog_slope",
    "slope_ci_hits",
    "variance_scan",
    "clt_diagnostics",
    "joint_covariance_check",
    "l2_convergence_hermite",
]

CHUNK_SIZE = 250
# a slope passes when its 95% CI comes within this of the expected slope
SLOPE_CI_TOL = 0.1
# l2_convergence_hermite's finest fOU grid has dt = min(eps) / L2_DT_RATIO
L2_DT_RATIO = 20.0


@dataclass
class ScanResult:
    """Statistic vs eps with standard errors and a fitted log-log slope.

    slope is with respect to log(1/eps); slope_ci is its 95% normal
    interval.  meta carries scan-specific extras.
    """

    eps_values: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    n_replicas: int
    slope: float | None = None
    slope_ci: tuple[float, float] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eps_values = np.asarray(self.eps_values, dtype=float)
        if len(self.eps_values) and np.any(np.diff(self.eps_values) >= 0):
            raise ValueError("eps_values must be strictly decreasing")


def run_replicated(n_replicas: int, master_seed: int, name: str, make_chunk,
                   threads: int = 1, chunk_size: int = CHUNK_SIZE) -> np.ndarray:
    """Concatenate make_chunk(chunk_keys) over fixed-size replica chunks.

    Replica i of the ensemble reads stream (master_seed, name, i): the
    keys of all replicas come from one ``streams.keys`` call, and each
    chunk gets its (count, 2) slice.  make_chunk must be a pure function
    of its keys; the chunking is independent of the worker count, so the
    output is too.
    """
    replica_keys = keys(master_seed, name, 0, n_replicas)
    chunks = [replica_keys[a : a + chunk_size] for a in range(0, n_replicas, chunk_size)]
    if threads <= 1:
        parts = [make_chunk(k) for k in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(make_chunk, chunks))
    return np.concatenate(parts, axis=0)


def fsum_mean(x) -> float:
    x = np.asarray(x, dtype=float)
    return math.fsum(x.tolist()) / len(x)


def fsum_variance(x, ddof: int = 1) -> float:
    x = np.asarray(x, dtype=float)
    if len(x) <= ddof:
        raise ValueError(
            f"variance with ddof={ddof} needs more than {ddof} samples, got {len(x)}"
        )
    mu = fsum_mean(x)
    return math.fsum(((x - mu) ** 2).tolist()) / (len(x) - ddof)


def variance_stderr(x) -> float:
    """Influence-function standard error of the sample variance, std((x - mean)^2) / sqrt(n).

    It holds for any law with a finite fourth moment, sqrt((mu_4 - sigma^4) / n);
    the Gaussian v sqrt(2 / (n - 1)) is several times too narrow for the
    heavy-tailed integrals of He_3.
    """
    x = np.asarray(x, dtype=float)
    return float(np.std((x - fsum_mean(x)) ** 2, ddof=1) / np.sqrt(len(x)))


def functional_values(G, y_matrix: np.ndarray, dt: float, alpha: float = 1.0) -> np.ndarray:
    """Endpoint alpha * int_0^T G(y) for each replica row of y_matrix.

    The trapezoid rule as the row sum less half of its two end values.
    """
    gy = np.asarray(G(y_matrix), dtype=float)
    return alpha * dt * (gy.sum(axis=1) - 0.5 * (gy[:, 0] + gy[:, -1]))


def _functional_cumulative(G, y_matrix: np.ndarray, dt: float, alpha: float = 1.0) -> np.ndarray:
    """Paths t -> alpha * int_0^t G(y_s) ds per replica row (cumulative trapezoid)."""
    gy = np.asarray(G(y_matrix), dtype=float)
    inner = 0.5 * (gy[:, 1:] + gy[:, :-1])
    out = np.empty_like(gy)
    out[:, 0] = 0.0
    np.cumsum(inner, axis=1, out=out[:, 1:])
    return alpha * dt * out


def fit_loglog_slope(inv_eps: np.ndarray, values: np.ndarray,
                     stderrs: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Weighted LSQ slope of log(values) vs log(inv_eps), with its 95% CI.

    Weights w are the inverse variances of log(values).  The slope is
    linear in log(values), so under their normal error model it is
    N(slope, 1/D), D = sum w (x - x_w)^2, and the CI is
    slope -+ ndtri(0.975) / sqrt(D): what a parametric bootstrap of the
    fit estimates by sampling.
    """
    x = np.log(np.asarray(inv_eps, dtype=float))
    v = np.asarray(values, dtype=float)
    se = np.asarray(stderrs, dtype=float)
    if np.any(v <= 0):
        raise ValueError("log-log fit requires positive statistics")
    y = np.log(v)
    sig = np.clip(se / v, 1e-12, None)  # delta method
    w = 1.0 / sig**2

    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    D = np.sum(w * (x - xm) ** 2)
    slope = float(np.sum(w * (x - xm) * (y - ym)) / D)
    half = float(special.ndtri(0.975) / np.sqrt(D))
    return slope, (slope - half, slope + half)


def slope_ci_hits(ci, target: float) -> bool:
    """Whether a slope CI (lo, hi) comes within SLOPE_CI_TOL of the target slope."""
    lo, hi = ci
    return bool(lo <= target + SLOPE_CI_TOL and hi >= target - SLOPE_CI_TOL)


def _fou_endpoint_samples(G, h: float, t: float, eps: float, n_replicas: int,
                          master_seed: int, name: str, dt_ratio: float,
                          alpha: float, threads: int = 1) -> np.ndarray:
    """Replica samples of alpha * int_0^t G(y^eps) ds."""
    grid = TimeGrid.with_step(t, eps / dt_ratio)
    sampler = fou.path_sampler(grid, h, eps)

    def make_chunk(chunk_keys):
        return np.concatenate([functional_values(G, y, grid.dt, alpha)
                               for y in sampler.blocks(chunk_keys)])

    return run_replicated(n_replicas, master_seed, name, make_chunk, threads)


def variance_scan(G: ChaosFunction, H, t: float, eps_list, n_replicas: int,
                  master_seed: int = 0, dt_ratio: float | None = None,
                  threads: int = 1) -> ScanResult:
    """Variance of the time integral of G(y^eps) across scales.

    For each eps the statistic is Var(int_0^t G(y^eps) ds), reported both
    raw ("unscaled", the slope source: expected log-log slope against
    log(1/eps) is -1 in the short-range regime and 2H*(m)-2 in the
    long-range one) and multiplied by alpha(eps)^2, which must stabilize
    in every regime.  Each standard error is ``variance_stderr`` of that
    eps's replicas, which holds for heavy-tailed integrals too.
    Each eps is sampled at the ratio eps/dt that ``exact.resolve_dt_ratio``
    resolves dt_ratio to (None: the coarsest unbiased rung); meta["resolution"]
    is its report, meta["exact_slope"] the slope of its exact variances.
    meta["finest_samples"] holds the raw integrals at
    the finest eps, so callers can run diagnostics on them without
    drawing that scale again.
    """
    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    if len(eps_arr) < 3:
        raise ValueError("variance scan needs at least 3 eps values")
    resolution, exact_var = exact.resolve_dt_ratio(G, h, t, eps_arr, n_replicas, dt_ratio)
    regime = chaos.classify_regime(G.hermite_rank, h)
    var_raw, se_raw = np.empty(len(eps_arr)), np.empty(len(eps_arr))
    for i, eps in enumerate(eps_arr):
        x = _fou_endpoint_samples(G, h, t, eps, n_replicas, master_seed, f"vscan-eps{i}",
                                  resolution["dt_ratio"], 1.0, threads)
        var_raw[i], se_raw[i] = fsum_variance(x), variance_stderr(x)
    slope, ci = fit_loglog_slope(1.0 / eps_arr, var_raw, se_raw)
    var_scaled = var_raw * np.array([regime.alpha(eps) ** 2 for eps in eps_arr])
    flatness, sd_flatness = (float(np.max(np.abs(v / v.mean() - 1.0)))
                             for v in (var_scaled, np.sqrt(var_scaled)))
    return ScanResult(
        eps_arr, var_raw, se_raw, n_replicas, slope, ci,
        meta={
            "scaled_variance": var_scaled,
            "scaled_flatness": flatness,
            "scaled_sd_flatness": sd_flatness,
            "regime": regime.kind.value,
            "h_star": regime.h_star,
            "resolution": resolution,
            "exact_slope": exact.loglog_slope(eps_arr, exact_var),
            "finest_samples": x,
        },
    )


def excess_kurtosis_with_se(samples) -> tuple[float, float]:
    """Excess kurtosis and its influence-function standard error.

    The normal-theory sqrt(24/n) badly underestimates the estimator
    spread for heavy-tailed inputs (the kurtosis estimator involves
    eighth moments), so the SE comes from the empirical variance of the
    influence function of m4/m2^2.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    xc = x - x.mean()
    m2 = np.mean(xc**2)
    m3 = np.mean(xc**3)
    m4 = np.mean(xc**4)
    kurt = m4 / m2**2 - 3.0
    infl = (xc**4 - m4 - 4.0 * m3 * xc) / m2**2 - 2.0 * (m4 / m2**3) * (xc**2 - m2)
    return float(kurt), float(np.std(infl, ddof=1) / np.sqrt(n))


def clt_diagnostics(samples) -> dict:
    """Moment and distribution diagnostics of Monte Carlo samples.

    Mean, variance, skewness and excess kurtosis with standard errors
    (variance and kurtosis by their influence-function estimates, mean
    and skewness normal-theory), plus the KS statistic against
    N(0, sample variance).
    """
    from scipy import stats

    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 1000:
        raise ValueError("need at least 1e3 samples for stable diagnostics")
    mu = fsum_mean(x)
    var = fsum_variance(x)
    sd = np.sqrt(var)
    z = (x - mu) / sd
    skew = fsum_mean(z**3)
    kurt, kurt_se = excess_kurtosis_with_se(x)
    ks = stats.kstest(x, "norm", args=(0.0, sd))
    return {
        "n": n,
        "mean": mu,
        "se_mean": sd / np.sqrt(n),
        "variance": var,
        "se_variance": variance_stderr(x),
        "skewness": skew,
        "se_skewness": np.sqrt(6.0 / n),
        "excess_kurtosis": kurt,
        "se_excess_kurtosis": kurt_se,
        "ks_statistic": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
    }


def joint_covariance_check(G_list, H, t: float, s: float, eps: float,
                           n_replicas: int, master_seed: int = 0,
                           dt_ratio: float | None = None, threads: int = 1) -> dict:
    """Empirical covariance matrix of (X^{k,eps}_t, X^{k,eps}_s) vs theory.

    Wiener-Wiener pairs must match 2(t^s)A^{ij}; Wiener-Hermite cross
    pairs and Hermite-Hermite pairs of different rank must vanish.  All
    components ride on the same fOU replicas, at the finest ratio eps/dt
    that ``exact.resolve_dt_ratio`` gives any G over [0, max(t, s)].
    """
    h = as_hurst(H)
    horizon = max(t, s)
    dt_ratio = max(exact.resolve_dt_ratio(G, h, horizon, [eps], n_replicas, dt_ratio)[0][
        "dt_ratio"] for G in G_list)
    grid = TimeGrid.with_step(horizon, eps / dt_ratio)
    sampler = fou.path_sampler(grid, h, eps)
    it = int(round(t / grid.dt))
    i_s = int(round(s / grid.dt))
    regimes = [chaos.classify_regime(G.hermite_rank, h) for G in G_list]
    alphas = [r.alpha(eps) for r in regimes]

    def block_columns(y):
        cols = []
        for G, a in zip(G_list, alphas):
            X = _functional_cumulative(G, y, grid.dt, a)
            cols.append(X[:, it])
            cols.append(X[:, i_s])
        return np.stack(cols, axis=1)

    data = run_replicated(
        n_replicas, master_seed, "joint-cov",
        lambda k: np.concatenate([block_columns(y) for y in sampler.blocks(k)]), threads)
    n_g = len(G_list)
    report = {"eps": eps, "t": t, "s": s, "n": n_replicas, "dt_ratio": dt_ratio, "pairs": []}
    for i in range(n_g):
        for j in range(n_g):
            xi = data[:, 2 * i]       # X^i_t
            xj = data[:, 2 * j + 1]   # X^j_s
            prod = xi * xj - xi.mean() * xj.mean()
            emp = float(xi @ xj / len(xi) - xi.mean() * xj.mean())
            se = float(np.std(prod, ddof=1) / np.sqrt(len(xi)))
            ri, rj = regimes[i], regimes[j]
            if ri.kind is not Regime.LONG_RANGE and rj.kind is not Regime.LONG_RANGE:
                if Regime.BOUNDARY in (ri.kind, rj.kind):
                    # the A-series diverges at the boundary; no prediction
                    pred, kind = None, "wiener-wiener-boundary"
                else:
                    A, _ = chaos.limit_covariance_A(G_list[i], G_list[j], h)
                    pred = 2.0 * min(t, s) * A
                    kind = "wiener-wiener"
            elif ri.kind is Regime.LONG_RANGE and rj.kind is Regime.LONG_RANGE:
                if G_list[i].hermite_rank != G_list[j].hermite_rank:
                    pred, kind = 0.0, "hermite-hermite-distinct"
                else:
                    pred, kind = None, "hermite-hermite-same-rank"
            else:
                pred, kind = 0.0, "wiener-hermite-cross"
            entry = {"i": i, "j": j, "kind": kind, "empirical": emp, "stderr": se,
                     "predicted": pred}
            if pred is not None:
                entry["z"] = (emp - pred) / se if se > 0 else np.inf
            report["pairs"].append(entry)
    return report


def l2_convergence_hermite(G: ChaosFunction, H, t: float, eps_list,
                           n_replicas: int, master_seed: int = 0,
                           threads: int = 1) -> ScanResult:
    """Coupled L2 distance between the scaled integral and its Hermite limit.

    Every replica owns one white noise on the cells of the Hermite
    engine (``hermite._kernel``) for the fine grid of n_fine =
    round(t / (min eps / L2_DT_RATIO)) steps.  The limit c_m (m!/K) C^m
    Z^{H*(m),m} is the engine's Wick series on the fine grid, scaled by
    K/m!, and for each eps the fOU is built from the same noise through
    its Wiener kernel ghat at the cell midpoints (``hermite._fou_kernel``)
    on every r-th fine point, r the largest divisor of n_fine with r dt
    <= eps/L2_DT_RATIO, so the distance ||X^eps_t - limit_t||_{L2(Omega)}
    is measured on coupled samples and must decrease as eps -> 0.  No
    cell is cut off, so every fOU row has unit variance to the midpoint
    rule's accuracy.  The kernels are projected together a block of noise
    rows at a time (``hermite._projections``) and freed on return.
    """
    h = as_hurst(H)
    m = G.hermite_rank
    regime = chaos.classify_regime(m, h)
    if regime.kind is not Regime.LONG_RANGE:
        raise ValueError(
            f"coupled Hermite comparison requires the long-range regime; "
            f"H*(m) = {regime.h_star:.3f}"
        )
    eps_arr = as_eps_list(eps_list)
    fine = TimeGrid.with_step(t, eps_arr[-1] / L2_DT_RATIO)
    n_fine, hs = fine.n_steps, regime.h_star
    strides = [max((k for k in range(1, n_fine + 1)
                    if n_fine % k == 0 and k * fine.dt <= eps / L2_DT_RATIO * (1.0 + 1e-12)),
                   default=1) for eps in eps_arr]
    kernels = [hermite._kernel(fine, hs, m)]
    kernels += [hermite._fou_kernel(fine, h, eps, r) for eps, r in zip(eps_arr, strides)]
    var_lim = kernels[0].variances()
    far = np.concatenate([kern.far for kern in kernels])
    far_factor, far_dropped = hermite._far_factor(far @ far.T)
    K = chaos.K_normalizer(hs, m)
    lam = G.coefficients[m] * math.factorial(m) / K * fou.kernel_amplitude(h) ** m

    def make_chunk(chunk_keys):
        out = np.empty((len(chunk_keys), len(eps_arr)))
        for start, (u, *ys) in hermite._projections(chunk_keys, kernels, far_factor):
            Z_t = hermite._wick_power(u, var_lim, m).sum(axis=1) * fine.dt * K / math.factorial(m)
            for i, (y, eps, r) in enumerate(zip(ys, eps_arr, strides)):
                X = functional_values(G, y, fine.horizon / (n_fine // r), eps ** (hs - 1.0))
                out[start : start + len(u), i] = (X - lam * Z_t) ** 2
        return out

    sq = run_replicated(n_replicas, master_seed, "l2-noise", make_chunk, threads)
    dists = np.array([np.sqrt(fsum_mean(col)) for col in sq.T])
    se = 0.5 * np.std(sq, axis=0, ddof=1) / np.sqrt(n_replicas) / dists
    monotone = bool(np.all(np.diff(dists) < 0))
    return ScanResult(
        eps_arr, dists, se, n_replicas,
        meta={"monotone_decreasing": monotone, "limit_coefficient": lam, "h_star": hs,
              "far_rank": far_factor.shape[1], "far_gram_dropped": far_dropped},
    )
