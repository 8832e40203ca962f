"""Monte Carlo verification harness for the scaling-limit claims.

Everything here is replica-parallel with a fixed chunking policy, owned
by ``run_replicated``: replica i of an ensemble named ``name`` always
draws from stream (master_seed, name, i), and chunks have a fixed size,
so results are bit-identical for any worker count.  Within a chunk, the
fOU scans take their paths block by block from one ``fou.path_sampler``
per grid, built before the chunks, and reduce each block to its
per-replica scalars before the next is drawn, so no chunk-sized path
matrix is ever built.  The trapezoid integral of G(y) over any prefix of
a path is its sum less half the two end values, so one path of the
unit-rate fOU Y_{s/eps} = y^eps_s serves every eps of a scan that shares
its spacing.  Scalar aggregation goes through math.fsum (compensated),
keeping reduction reassociation out of the reported statistics.

Slopes of log statistic against log(1/eps) are fitted by
inverse-variance-weighted least squares, with the closed-form normal
confidence interval of that fit under the estimates' joint covariance;
a slope passes within 3 SE, the CI's half-width / 1.96, of its exact slope (``slope_z``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chaos, exact, fgn, fou, hermite
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
    "slope_z",
    "variance_scan",
    "clt_diagnostics",
    "joint_covariance_check",
    "l2_convergence_hermite",
]

CHUNK_SIZE = 250
_Z975 = 1.959963984540054  # ndtri(0.975): a 95% CI's half-width in standard errors
# l2_convergence_hermite's finest fOU grid has dt = min(eps) / L2_DT_RATIO
L2_DT_RATIO = 20.0


@dataclass
class ScanResult:
    """Statistic vs eps with standard errors and a fitted log-log slope.

    slope is with respect to log(1/eps); slope_ci is its 95% normal
    interval.  meta carries scan-specific extras, and "slope_z" beside any "exact_slope".
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
        if "exact_slope" in self.meta:
            self.meta["slope_z"] = slope_z(self.slope, self.slope_ci, self.meta["exact_slope"])


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
        from concurrent.futures import ThreadPoolExecutor  # 4-8 ms to import: only with workers
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
    if len(x) < 3:
        raise ValueError(f"a variance SE needs at least 3 samples, got {len(x)} "
                         "(with 2 the squared deviations are equal and the SE is 0)")
    return float(np.std((x - fsum_mean(x)) ** 2, ddof=1) / np.sqrt(len(x)))


def functional_values(G, y_matrix: np.ndarray, dt: float, alpha: float = 1.0) -> np.ndarray:
    """Endpoint alpha * int_0^T G(y) for each replica row of y_matrix."""
    return _prefix_integrals([G], y_matrix, [(y_matrix.shape[1] - 1, alpha * dt)])[:, 0]


def _prefix_integrals(funcs, y: np.ndarray, prefixes) -> np.ndarray:
    """Trapezoid integrals w (sum - half the two ends) of G(y) over the first n + 1 points
    of each row of y, for each G of funcs and (n, w) of prefixes; no G(y) outlives the call."""
    gys = (np.asarray(G(y), dtype=float) for G in funcs)
    return np.stack([w * (gy[:, : n + 1].sum(axis=1) - 0.5 * (gy[:, 0] + gy[:, n]))
                     for gy in gys for n, w in prefixes], axis=1)


def fit_loglog_slope(inv_eps: np.ndarray, values: np.ndarray,
                     cov: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Weighted LSQ slope of log(values) vs log(inv_eps), with its 95% CI.

    cov is the covariance of the values, and C = cov / (v v^T) that of their
    logs (delta method); the weights are w = 1 / C_ii.  The slope is c^T log(v),
    c = w (x - x_w) / D, D = sum w (x - x_w)^2, so under a normal error model
    the CI is slope -+ ndtri(0.975) sqrt(c^T C c) (1/D for independent values):
    what a parametric bootstrap of the fit estimates by sampling.  c^T C c is
    clipped at 0, where rounding can take it for exactly proportional values:
    their CI has zero width.  No BLAS call.
    """
    x = np.log(np.asarray(inv_eps, dtype=float))
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0):
        raise ValueError("log-log fit requires positive statistics")
    y = np.log(v)
    C = np.asarray(cov, dtype=float) / np.outer(v, v)
    sig = np.clip(np.sqrt(np.diag(cov)) / v, 1e-12, None)  # delta method
    w = 1.0 / sig**2
    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    D = np.sum(w * (x - xm) ** 2)
    slope = float(np.sum(w * (x - xm) * (y - ym)) / D)
    c = w * (x - xm) / D
    half = float(_Z975 * np.sqrt(max(0.0, np.sum(c[:, None] * C * c))))
    return slope, (slope - half, slope + half)


def _mean_covariance(rows, se) -> np.ndarray:
    """Covariance of the means of rows (k, n): cov(rows[i], rows[j]) / n, ddof 1, off
    the diagonal and each mean's own SE se squared on it, with no BLAS call."""
    dev = [r - r.mean() for r in rows]
    cov = np.array([[np.sum(a * b) for b in dev] for a in dev]) / (len(dev[0]) - 1) / len(dev[0])
    np.fill_diagonal(cov, np.square(se))
    return cov


def slope_z(slope: float, ci, target: float) -> float:
    """(slope - target) / SE, SE the 95% CI's half-width / ndtri(0.975); always finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.float64(slope - target) * 2.0 * _Z975 / (ci[1] - ci[0])
    return float(np.nan_to_num(z, nan=0.0))


def _fou_prefix_samples(funcs, h: float, grid: TimeGrid, eps: float, prefixes, n_replicas: int,
                        master_seed: int, name: str, threads: int = 1) -> np.ndarray:
    """(n_replicas, len(funcs) * len(prefixes)) ``_prefix_integrals`` of G(y^eps) on the grid."""
    sampler = fou.path_sampler(grid, h, eps)
    return run_replicated(n_replicas, master_seed, name, lambda k: np.concatenate(
        [_prefix_integrals(funcs, y, prefixes) for y in sampler.blocks(k)]), threads)


def _fou_endpoint_samples(G, h: float, t: float, eps: float, n_replicas: int,
                          master_seed: int, name: str, dt_ratio: float,
                          alpha: float, threads: int = 1) -> np.ndarray:
    """Replica samples of alpha * int_0^t G(y^eps) ds."""
    grid = TimeGrid.with_step(t, eps / dt_ratio)
    return _fou_prefix_samples([G], h, grid, eps, [(grid.n_steps, alpha * grid.dt)],
                               n_replicas, master_seed, name, threads)[:, 0]


def variance_scan(G: ChaosFunction, H, t: float, eps_list, n_replicas: int,
                  master_seed: int = 0, threads: int = 1) -> ScanResult:
    """Variance of the time integral of G(y^eps) across scales.

    For each eps the statistic is Var(int_0^t G(y^eps) ds), raw (the slope
    source: its log-log slope against log(1/eps) tends to -1 short range and
    2H*(m)-2 long range) and times alpha(eps)^2, which must stabilize in every
    regime; its SE, ``variance_stderr``, holds for heavy tails.  The ratio
    eps/dt is the rung ``exact.resolve_dt_ratio`` picks for these eps and
    n_replicas, reported in meta["resolution"]; meta["exact_slope"] is the
    slope of the exact variances, and meta["slope_z"] the fit's z against it.  As
    y^eps_s = Y_{s/eps}, Y the unit-rate fOU, the eps whose grids share the
    spacing dt/eps (to 1e-12) form a group:
    each replica draws one path, on its finest member's grid from that eps's
    stream "vscan-eps{i}", and each member integrates its first n + 1 points.
    The slope CI takes the covariance of a group's variances; groups are
    independent.  meta["finest_samples"] holds the integrals at the finest eps.
    """
    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    if len(eps_arr) < 3:
        raise ValueError("variance scan needs at least 3 eps values")
    resolution, exact_var = exact.resolve_dt_ratio(G, h, t, eps_arr, n_replicas)
    regime = chaos.classify_regime(G.hermite_rank, h)
    grids = [TimeGrid.with_step(t, eps / resolution["dt_ratio"]) for eps in eps_arr]
    # each eps joins the first eps of its unit-rate spacing dt/eps, to 1e-12 relative
    steps = np.array([grid.dt / eps for grid, eps in zip(grids, eps_arr)])
    first = [int(np.argmax(np.abs(steps - s) <= 1e-12 * s)) for s in steps]
    groups = [[i for i, f in enumerate(first) if f == j] for j in sorted(set(first))]
    # eps decreases, so a group's finest member is its last; x is built after the draws
    x = np.hstack([_fou_prefix_samples([G], h, grids[g[-1]], eps_arr[g[-1]],
                                       [(grids[i].n_steps, grids[i].dt) for i in g], n_replicas,
                                       master_seed, f"vscan-eps{g[-1]}", threads)
                   for g in groups]).T[np.argsort(sum(groups, []))]
    cov = np.zeros((len(eps_arr), len(eps_arr)))
    for g in groups:
        cov[np.ix_(g, g)] = _mean_covariance([(x[i] - fsum_mean(x[i])) ** 2 for i in g],
                                             [variance_stderr(x[i]) for i in g])
    var_raw = np.array([fsum_variance(row) for row in x])
    slope, ci = fit_loglog_slope(1.0 / eps_arr, var_raw, cov)
    var_scaled = var_raw * np.array([regime.alpha(eps) ** 2 for eps in eps_arr])
    flatness, sd_flatness = (float(np.max(np.abs(v / v.mean() - 1.0)))
                             for v in (var_scaled, np.sqrt(var_scaled)))
    return ScanResult(eps_arr, var_raw, np.sqrt(np.diag(cov)), n_replicas, slope, ci,
                      meta={"scaled_variance": var_scaled, "scaled_flatness": flatness,
                            "scaled_sd_flatness": sd_flatness, "regime": regime.kind.value,
                            "h_star": regime.h_star, "resolution": resolution,
                            "exact_slope": exact.loglog_slope(eps_arr, exact_var),
                            "finest_samples": x[-1]})


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
    N(0, sample variance), from the sorted samples as ``scipy.stats.kstest``
    takes it, with its exact p-value ``kstwo.sf``.
    """
    from scipy import special, stats

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
    cdf = special.ndtr(np.sort(x) / sd)
    ks_stat = max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n))
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
        "ks_statistic": float(ks_stat),
        "ks_pvalue": float(np.clip(stats.kstwo.sf(ks_stat, n), 0.0, 1.0)),
    }


def joint_covariance_check(G_list, H, t: float, s: float, eps: float,
                           n_replicas: int, master_seed: int = 0, threads: int = 1) -> dict:
    """Empirical covariance matrix of (X^{k,eps}_t, X^{k,eps}_s) vs theory.

    Every prediction is Sigma^{ij} = ``chaos.limit_covariance`` times the
    limit's time covariance: (t^s) for a Wiener pair, R_{H*}(t, s) of fBM for a
    Hermite pair of one rank H*(m) = H*.  Wiener-Hermite cross pairs and
    Hermite-Hermite pairs of different rank have Sigma^{ij} = 0.  All
    components ride on the same fOU replicas, at the finest ratio eps/dt
    that ``exact.resolve_dt_ratio`` gives any G over [0, max(t, s)].
    """
    h = as_hurst(H)
    horizon = max(t, s)
    dt_ratio = max(exact.resolve_dt_ratio(G, h, horizon, [eps], n_replicas)[0]["dt_ratio"]
                   for G in G_list)
    grid = TimeGrid.with_step(horizon, eps / dt_ratio)
    regimes = [chaos.classify_regime(G.hermite_rank, h) for G in G_list]
    ends = [(int(round(u / grid.dt)), grid.dt) for u in (t, s)]  # X^k_t, X^k_s of each G_k
    data = np.repeat([r.alpha(eps) for r in regimes], 2) * _fou_prefix_samples(
        G_list, h, grid, eps, ends, n_replicas, master_seed, "joint-cov", threads)
    n_g = len(G_list)
    report = {"eps": eps, "t": t, "s": s, "n": n_replicas, "dt_ratio": dt_ratio, "pairs": []}
    for i in range(n_g):
        for j in range(n_g):
            xi = data[:, 2 * i]       # X^i_t
            xj = data[:, 2 * j + 1]   # X^j_s
            prod = xi * xj - xi.mean() * xj.mean()
            emp = float(xi @ xj / len(xi) - xi.mean() * xj.mean())
            se = float(np.std(prod, ddof=1) / np.sqrt(len(xi)))
            sigma = chaos.limit_covariance(G_list[i], G_list[j], h)[0]
            kinds = {regimes[i].kind, regimes[j].kind}
            if kinds == {Regime.LONG_RANGE}:  # Z^{H*,m} has the covariance of fBM
                same = G_list[i].hermite_rank == G_list[j].hermite_rank
                kind = "hermite-hermite-same-rank" if same else "hermite-hermite-distinct"
                pred = sigma * fgn.fbm_covariance(t, s, regimes[i].h_star)
            else:  # a Wiener limit; sigma = 0 for a Wiener-Hermite pair
                kind = ("wiener-hermite-cross" if Regime.LONG_RANGE in kinds else
                        "wiener-wiener-boundary" if Regime.BOUNDARY in kinds else "wiener-wiener")
                pred = sigma * min(t, s)
            report["pairs"].append({"i": i, "j": j, "kind": kind, "empirical": emp,
                                    "stderr": se, "predicted": pred,
                                    "z": (emp - pred) / se if se > 0 else np.inf})
    return report


def l2_convergence_hermite(G: ChaosFunction, H, t: float, eps_list,
                           n_replicas: int, master_seed: int = 0,
                           threads: int = 1) -> ScanResult:
    """Coupled L2 distance between the scaled integral and its Hermite limit.

    Every replica owns one white noise on the cells of the Hermite
    engine (``hermite._kernel``) for the fine grid of n_fine =
    round(t / (min eps / L2_DT_RATIO)) steps.  The limit is lambda Z^{H*(m),m},
    lambda = sign(c_m) ``chaos.c_constant``, with Z the engine's Wick series
    on the fine grid scaled by K/m!, and for each eps the fOU is built from
    the same noise through its Wiener kernel ghat at the cell midpoints
    (``hermite._fou_kernel``) on every r-th fine point, r the largest divisor
    of n_fine with r dt <= eps/L2_DT_RATIO, so the distance ||X^eps_t - limit_t||_{L2(Omega)}
    is measured on coupled samples and must decrease as eps -> 0.  The
    cells stop at ``hermite._FAR_EDGE``, so an fOU row misses the kernel's
    tail beyond it: on the default 400-step fine grid a row's variance
    reads 1.0001 at H 0.9, 0.9993 at 0.95, 0.988 at 0.97 and 0.766-0.773
    at 0.99 (ROADMAP item 19).  The kernels are projected together a block
    of noise rows at a time (``hermite._projections``) and freed on return.

    A kernel whose rows are read only through a weighted sum is contracted
    to that one row as soon as it is built (``_CellKernel.contract``): the
    limit's when m = 1, Z_t = dt K sum_s u_s, and each fOU kernel when
    G = c_1 He_1, X^eps its trapezoid sum times c_1 eps^{H*-1}.  For such
    a G, X^eps - lambda Z_t is one linear functional of the noise, whose
    norm (its far part on the stacked far factor's r normals) is the exact
    distance: meta["exact_values"], with each sampled distance's z against
    it in meta["exact_z"].
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
    if len(eps_arr) < 2:
        raise ValueError("L2 Hermite scan needs at least 2 distinct eps values")
    fine = TimeGrid.with_step(t, eps_arr[-1] / L2_DT_RATIO)
    n_fine, hs = fine.n_steps, regime.h_star
    K = chaos.K_normalizer(hs, m)
    z_scale = fine.dt * K / math.factorial(m)
    kernels = [hermite._kernel(fine, hs, m)]  # a fine grid too large to hold fails here
    if m == 1:  # Z_t = dt K sum_s u_s reads the sum of the limit's rows alone
        kernels[0] = kernels[0].contract(np.ones(n_fine))
    linear = m == 1 and not np.any(G.coefficients[2:])
    strides = [next((k for k in range(min(n_fine, int(b / fine.dt) + 1), 0, -1)
                     if n_fine % k == 0 and k * fine.dt <= b), 1)
               for b in eps_arr / L2_DT_RATIO * (1.0 + 1e-12)]
    for eps, r in zip(eps_arr, strides):
        kernels.append(hermite._fou_kernel(fine, h, eps, r))
        if linear:  # X^eps is the trapezoid sum of the rows times c_1 and eps^{H*-1}
            w = np.full(n_fine // r + 1, G.coefficients[1] * fine.horizon / (n_fine // r)
                        * eps ** (hs - 1.0))
            w[[0, -1]] *= 0.5
            kernels[-1] = kernels[-1].contract(w)
    var_lim = kernels[0].variances()
    far = np.concatenate([kern.far for kern in kernels])
    far_factor, far_dropped = hermite._far_factor(far @ far.T)
    lam = math.copysign(chaos.c_constant(G, h), G.coefficients[m])

    def make_chunk(chunk_keys):
        out = np.empty((len(chunk_keys), len(eps_arr)))
        for start, (u, *ys) in hermite._projections(chunk_keys, kernels, far_factor):
            Z_t = hermite._wick_power(u, var_lim, m).sum(axis=1) * z_scale
            for i, (y, eps, r) in enumerate(zip(ys, eps_arr, strides)):
                X = y[:, 0] if linear else functional_values(
                    G, y, fine.horizon / (n_fine // r), eps ** (hs - 1.0))
                out[start : start + len(u), i] = (X - lam * Z_t) ** 2
        return out

    sq = run_replicated(n_replicas, master_seed, "l2-noise", make_chunk, threads)
    dists = np.array([np.sqrt(fsum_mean(col)) for col in sq.T])
    se = 0.5 * np.std(sq, axis=0, ddof=1) / np.sqrt(n_replicas) / dists
    meta = {"monotone_decreasing": bool(np.all(np.diff(dists) < 0)), "limit_coefficient": lam,
            "h_star": hs, "far_rank": far_factor.shape[1], "far_gram_dropped": far_dropped}
    if linear:
        cuts = np.cumsum([0] + [len(kern.far) for kern in kernels])
        v = [np.concatenate([kern.near[0], kern.P[0] @ far_factor[a:b]])
             for kern, a, b in zip(kernels, cuts, cuts[1:])]
        exact_dists = np.array([np.linalg.norm(v_eps - lam * z_scale * v[0]) for v_eps in v[1:]])
        meta.update(exact_values=exact_dists, exact_z=(dists - exact_dists) / se)
    return ScanResult(eps_arr, dists, se, n_replicas, meta=meta)
