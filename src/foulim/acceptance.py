"""Acceptance suite: every release-gating check, one function per criterion.

Each criterion is a statistical assertion at a pinned replica count and
tolerance, run from a pinned master seed so the gate is deterministic.
The "full" suite uses the contract parameters; "quick" shrinks replica
counts and scale lists for a fast smoke run of the same checks.

The pytest module tests/test_acceptance.py asserts each criterion; the
CLI `verify` subcommand runs the same functions and exits 2 on failure.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats

from . import chaos, exact, fgn, fou, harness, hermite, solvers
from .chaos import ChaosFunction
from .paths import MASTER_SEED, TimeGrid
from .streams import normals

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

H2 = ChaosFunction([0.0, 0.0, 1.0])
H1 = ChaosFunction([0.0, 1.0])


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    seconds: float = 0.0


def _cov_zscore_max(X: np.ndarray, times: np.ndarray, H: float) -> float:
    """Max |z| of the empirical covariance of X's columns against fBM's at those times.

    Each entry's SE is that of a mean of the products X_i X_j, from those
    products: Isserlis' Gaussian formula is wrong for m = 2.
    """
    n = len(X)
    emp = X.T @ X / n
    theory = fgn.fbm_covariance(times[:, None], times[None, :], H)
    sq = X * X
    var_entry = (sq.T @ sq / n - emp**2) / (n - 1)
    z = (emp - theory) / np.sqrt(var_entry)
    return float(np.max(np.abs(z)))


def crit_1_fbm_exactness(seed, suite, threads=1) -> CriterionResult:
    n_rep = 20_000 if suite == "full" else 4000
    grid = TimeGrid(1.0, 256)
    details = {}
    passed = True
    for H in (0.3, 0.5, 0.7):
        def make_chunk(chunk_keys, H=H):
            incs = fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, chunk_keys)
            return np.concatenate([np.zeros((len(incs), 1)), np.cumsum(incs, axis=1)], axis=1)

        values = harness.run_replicated(n_rep, seed, f"acc1-H{H}", make_chunk, threads)
        zmax = _cov_zscore_max(values[:, 1:], grid.times()[1:], H)  # B_0 = 0 is not random
        details[f"zmax_H{H}"] = zmax
        passed &= zmax < 5.0
    return CriterionResult(1, "fbm covariance exactness (5 SE)", passed, details)


def crit_2_fou_stationarity_decay(seed, suite, threads=1) -> CriterionResult:
    # the unit variance is gated within 3 of its own standard errors
    # (about 0.7% at 4e4 replicas, 2.2% at 4000)
    n_rep = 40_000 if suite == "full" else 4000
    H, eps = 0.75, 0.05
    grid = TimeGrid.with_step(0.1, eps / 100.0)
    sampler = fou.path_sampler(grid, H, eps)
    y = harness.run_replicated(n_rep, seed, "acc2", sampler.batch, threads)
    var_end = harness.fsum_variance(y[:, -1])
    se_var = harness.variance_stderr(y[:, -1])
    s = np.geomspace(10.0, 100.0, 21)
    r = fou.rho(s, H)
    slope = np.polyfit(np.log(s), np.log(r), 1)[0]
    details = {"var_y": var_end, "var_y_se": se_var, "rho_loglog_slope": float(slope),
               "expected_slope": 2 * H - 2}
    passed = abs(var_end - 1.0) <= 3.0 * se_var and abs(slope - (2 * H - 2)) <= 0.1
    return CriterionResult(2, "fOU stationarity and correlation decay", passed, details)


def crit_3_degenerate_constant(seed, suite, threads=1) -> CriterionResult:
    i1 = fou.rho_power_integral(1, 0.4)
    vals = {S: fou.rho_power_integral(2, 0.6, s_max=S) for S in (500.0, 1000.0, 2000.0)}
    ref = vals[1000.0]
    spread = max(abs(v - ref) / ref for v in vals.values())
    details = {"int_rho_H04": i1, "int_rho2_H06": ref, "tail_split_spread": spread}
    passed = abs(i1) < 0.01 and ref > 0 and spread < 0.01
    return CriterionResult(3, "degenerate CLT constant and tail stability", passed,
                           details)


def crit_4_scaling_regimes(seed, suite, threads=1) -> CriterionResult:
    if suite == "full":
        n_rep, eps_list = 10_000, [0.1, 0.05, 0.02, 0.01]
    else:
        n_rep, eps_list = 2000, [0.1, 0.05, 0.02]
    details = {}
    scans = []
    for k, (label, G, H) in enumerate((("short_range", H2, 0.6), ("long_range", H1, 0.8),
                                       ("boundary", H2, 0.75))):
        scan = harness.variance_scan(G, H, 1.0, eps_list, n_rep, seed + k, threads=threads)
        # the slope's z against the exact finite-eps one, with the CI's
        # half-width / 1.96 as its SE: reported, not gated
        lo, hi = scan.slope_ci
        z = (scan.slope - scan.meta["exact_slope"]) * 2.0 * stats.norm.ppf(0.975) / (hi - lo)
        details.update({f"{label}_slope": scan.slope, f"{label}_ci": scan.slope_ci,
                        f"{label}_exact_slope": scan.meta["exact_slope"],
                        f"{label}_exact_slope_z": z,
                        f"{label}_dt_ratio": scan.meta["resolution"]["dt_ratio"]})
        scans.append(scan)
    sr, lr, bd = scans
    ok_sr = harness.slope_ci_hits(sr.slope_ci, -1.0)
    ok_lr = harness.slope_ci_hits(lr.slope_ci, 2 * 0.8 - 2.0)
    # flatness asserted on the scale the integral lemma bounds (the square
    # root of the double correlation integral); the variance-scale ratio
    # carries a genuine ~2/|ln eps| sub-leading term that puts it right at
    # the 15% line over these scales, so it is reported, not asserted
    details["boundary_flatness_sd"] = bd.meta["scaled_sd_flatness"]
    details["boundary_flatness_var"] = bd.meta["scaled_flatness"]
    ok_bd = bd.meta["scaled_sd_flatness"] <= 0.15
    passed = ok_sr and ok_lr and ok_bd
    return CriterionResult(4, "variance scaling regimes", passed, details)


def _short_range_samples(seed, suite, threads, ctx) -> tuple[np.ndarray, float, float]:
    """The integrals of alpha He_2(y^eps) at H 0.6 of criteria 5 and 6, their eps and ratio."""
    key = ("sr_samples", suite)
    if key not in ctx:
        n_rep = 10_000 if suite == "full" else 2500
        eps = 0.005 if suite == "full" else 0.01
        ratio = exact.resolve_dt_ratio(H2, 0.6, 1.0, [eps], n_rep)[0]["dt_ratio"]
        alpha = chaos.classify_regime(2, 0.6).alpha(eps)
        x = harness._fou_endpoint_samples(H2, 0.6, 1.0, eps, n_rep, seed, "acc5", ratio, alpha,
                                          threads)
        ctx[key] = x, eps, ratio
    return ctx[key]


def crit_5_limit_covariance(seed, suite, threads=1, ctx=None) -> CriterionResult:
    ctx = {} if ctx is None else ctx
    x, eps, ratio = _short_range_samples(seed, suite, threads, ctx)
    A, _ = chaos.limit_covariance_A(H2, H2, 0.6)
    var = harness.fsum_variance(x)
    details = {"var_X": var, "2A": 2 * A, "ratio": var / (2 * A), "eps": eps, "dt_ratio": ratio}
    passed = abs(var / (2 * A) - 1.0) <= 0.10
    return CriterionResult(5, "Wiener limit covariance 2A", passed, details)


def crit_6_limit_kurtosis(seed, suite, threads=1, ctx=None) -> CriterionResult:
    ctx = {} if ctx is None else ctx
    x, eps_sr, ratio = _short_range_samples(seed, suite, threads, ctx)
    kurt, se_infl = harness.excess_kurtosis_with_se(x)
    # the limit is Gaussian, but at a fixed eps the integral is a quadratic form
    # with an exact excess kurtosis (0.584 at eps 0.01, 0.308 at 0.005) and SE of
    # its estimate, which gate it; the decrease along eps is the Gaussianization
    law = {e: exact.quadratic_form_kurtosis(exact.he2_trapezoid_spectrum(0.6, 1.0, e, ratio),
                                            len(x))[1:] for e in (0.01, 0.005)}
    kappa, se = law[eps_sr]
    details = {
        "short_range_kurtosis": kurt,
        "short_range_kurtosis_se": se,
        "short_range_kurtosis_se_influence": se_infl,
        "short_range_kurtosis_z": (kurt - kappa) / se,
        "exact_kurtosis_eps0.01": law[0.01][0],
        "exact_kurtosis_eps0.005": law[0.005][0],
        "short_range_dt_ratio": ratio,
    }
    ok_sr = abs(details["short_range_kurtosis_z"]) <= 3.0 and law[0.005][0] < law[0.01][0]

    n_rep, H, eps = (10_000 if suite == "full" else 2500), 0.85, 0.02
    hs = chaos.h_star(2, H)  # 0.7
    alpha = chaos.classify_regime(2, H).alpha(eps)
    ratio = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n_rep)[0]["dt_ratio"]
    x_lr = harness._fou_endpoint_samples(H2, H, 1.0, eps, n_rep, seed + 1, "acc6", ratio, alpha,
                                         threads)
    kurt_x, se_x = harness.excess_kurtosis_with_se(x_lr)

    engine = hermite.HermiteEngine(TimeGrid(1.0, 200), hs, 2)
    z = harness.run_replicated(n_rep, seed + 2, "acc6-z",
                               lambda k: hermite.hermite_ensemble(engine, k)[:, 0],
                               threads)
    kurt_z, se_z = harness.excess_kurtosis_with_se(z)
    se = np.hypot(se_x, se_z)
    details.update({
        "rosenblatt_kurtosis_integral": kurt_x,
        "rosenblatt_kurtosis_integral_exact": exact.quadratic_form_kurtosis(
            exact.he2_trapezoid_spectrum(H, 1.0, eps, ratio), n_rep)[1],
        "rosenblatt_kurtosis_direct": kurt_z,
        "match_se": se,
        "rosenblatt_dt_ratio": ratio,
    })
    ok_lr = kurt_x > 0.3 and abs(kurt_x - kurt_z) <= 3.0 * se
    return CriterionResult(6, "Gaussian vs non-Gaussian limit shape",
                           ok_sr and ok_lr, details)


def crit_7_hermite_sampler(seed, suite, threads=1) -> CriterionResult:
    n_rep = 10_000 if suite == "full" else 2500
    H = 0.7
    grid = TimeGrid(1.0, 200)
    report_idx = np.arange(0, 201, 25)[1:]  # 8 interior/end times
    details = {}
    passed = True

    def z_matrix(engine, tag, n):
        return harness.run_replicated(
            n, seed, tag, lambda k: hermite.hermite_ensemble(engine, k, report_idx),
            threads)

    def correlation(cov):
        sd = np.sqrt(np.diag(cov))
        return cov / np.outer(sd, sd)

    # m = 2 runs at twice the replicas: its variance estimator is heavy
    # tailed (excess kurtosis ~ 6), so SE(Var) ~ sqrt(8/N)
    for m, n in ((1, n_rep), (2, 2 * n_rep)):
        engine = hermite.HermiteEngine(grid, H, m)
        Z = z_matrix(engine, f"acc7-m{m}", n)
        var1 = harness.fsum_variance(Z[:, -1])
        se_var1 = harness.variance_stderr(Z[:, -1])
        times = grid.times()[report_idx]
        zmax = _cov_zscore_max(Z, times, H)
        theory = fgn.fbm_covariance(times[:, None], times[None, :], H)
        # the sampler's own correlation-shape error, from its exact covariance
        exact = hermite.exact_covariance(engine, times)
        shape = float(np.max(np.abs(correlation(exact) - correlation(theory))))
        details[f"m{m}_var_Z1"] = var1
        details[f"m{m}_var_Z1_se"] = se_var1
        details[f"m{m}_cov_zmax"] = zmax
        details[f"m{m}_exact_shape_error"] = shape
        passed &= abs(var1 - 1.0) <= 3.0 * se_var1 and zmax < 5.0 and shape <= 0.01
        if m == 1:
            b1 = harness.run_replicated(
                n_rep, seed, "acc7-fbm",
                lambda k: np.cumsum(fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, k),
                                    axis=1)[:, -1],
                threads)
            ks = stats.ks_2samp(Z[:, -1], b1)
            details["m1_ks_pvalue"] = float(ks.pvalue)
            passed &= ks.pvalue > 0.01
    return CriterionResult(7, "Hermite process sampler law", passed, details)


def crit_8_l2_coupled(seed, suite, threads=1) -> CriterionResult:
    n_rep = 2000 if suite == "full" else 500
    scan = harness.l2_convergence_hermite(
        H1, 0.8, 1.0, [0.2, 0.1, 0.05], n_rep, seed, threads=threads,
    )
    details = {
        "distances": scan.values,
        "monotone": scan.meta["monotone_decreasing"],
        "halving": scan.values[-1] < 0.5 * scan.values[0],
    }
    passed = bool(details["monotone"] and details["halving"])
    return CriterionResult(8, "coupled L2 convergence to the Hermite limit",
                           passed, details)


def crit_9_kinetic_rate(seed, suite, threads=1) -> CriterionResult:
    if suite == "full":
        n_rep, eps_list = 400, [0.1, 0.05, 0.02, 0.01]
    else:
        n_rep, eps_list = 150, [0.1, 0.05, 0.02]
    grid = TimeGrid(1.0, 50)
    details = {}
    passed = True
    for H in (0.3, 0.7):
        scan = solvers.kinetic_error_scan(H, eps_list, grid, n_rep, seed,
                                          threads=threads)
        lo, hi = scan.slope_ci
        slope_vs_logeps = -scan.slope
        ci = (-hi, -lo)
        details[f"H{H}_slope"] = slope_vs_logeps
        details[f"H{H}_ci"] = ci
        details[f"H{H}_exact_slope_vs_log_eps"] = -scan.meta["exact_slope"]
        details[f"H{H}_identity_defect"] = scan.meta["identity_defect_max"]
        passed &= harness.slope_ci_hits(ci, H)
        passed &= scan.meta["identity_defect_max"] < 1e-6
    return CriterionResult(9, "kinetic coupling rate eps^H and on-grid identity",
                           passed, details)


def _inverse_flow_sin2(x) -> np.ndarray:
    """Driver value u = phi^{-1}(x) = int_0^x dz / (2 + sin z) of the flow of sin + 2.

    On r in [-pi, pi] the antiderivative is
    (2/sqrt 3)(arctan((2 tan(r/2) + 1)/sqrt 3) - pi/6); each full period
    adds 2 pi/sqrt 3.
    """
    x = np.asarray(x, dtype=float)
    periods = np.round(x / (2.0 * np.pi))
    r = x - 2.0 * np.pi * periods
    s3 = np.sqrt(3.0)
    return (2.0 * np.pi / s3) * periods + (2.0 / s3) * (
        np.arctan((2.0 * np.tan(r / 2.0) + 1.0) / s3) - np.pi / 6.0
    )


def _driver_moment_zscores(x, H, eps, trapezoid_var) -> dict:
    """z-scores of the driver u = phi^{-1}(x_1) against its exact finite-eps moments.

    With h = 0 the slow equation is solved by x_t = phi(u_t), u_t the trapezoid sum of
    alpha He_2(y^eps), so E u_1 = 0 and Var u_1 = V_eps = alpha^2 ``trapezoid_var`` exactly
    at every eps: this checks the sampler and the flow.  The variance is in units of
    its influence-function standard error.
    """
    u = _inverse_flow_sin2(x)
    n = len(u)
    mean = harness.fsum_mean(u)
    var = harness.fsum_variance(u)
    se_var = harness.variance_stderr(u)
    alpha = chaos.classify_regime(2, H).alpha(eps)
    v_eps = alpha**2 * trapezoid_var
    return {
        "mean_z": float(mean / np.sqrt(var / n)),
        "var": var,
        "V_eps": v_eps,
        "var_z": (var - v_eps) / se_var,
    }


def crit_10_homogenization(seed, suite, threads=1) -> CriterionResult:
    # The theorem is a limit in law as eps -> 0 and promises nothing at a
    # fixed eps, where N = 2000 resolves the finite-eps gap (long range:
    # Var u = V_eps = 3.876 at eps 0.02 and 3.968 at 0.01, against the limit
    # c^2 = 4.239).  So at each eps the driver u = phi^{-1}(x_1) is checked
    # against its exact mean and variance on the grid of
    # ``exact.resolve_dt_ratio`` (eps/10 throughout); the limit-law KS
    # p-values are reported.
    n_rep = 2000 if suite == "full" else 600
    f = lambda x: np.sin(x) + 2.0
    details = {"c_short_range": chaos.c_constant(H2, 0.6),
               "c_long_range": chaos.c_constant(H2, 0.85)}
    passed = True

    for k, eps in enumerate((0.02, 0.01)):
        s = seed + 10 * k
        for label, H, offset in (("short_range", 0.6, 0), ("long_range", 0.85, 1)):
            resolution, var = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n_rep)
            ratio = resolution["dt_ratio"]
            x, lim = solvers.homogenize(H2, H, eps, f, None, None, n_rep, s + offset,
                                        dt_ratio=ratio, threads=threads)
            details[f"{label}_dt_ratio_eps{eps}"] = ratio
            details[f"{label}_ks_pvalue_eps{eps}"] = float(stats.ks_2samp(x, lim).pvalue)
            for key, val in _driver_moment_zscores(x, H, eps, var[0]).items():
                details[f"{label}_{key}_eps{eps}"] = val
            passed &= (abs(details[f"{label}_mean_z_eps{eps}"]) <= 3.0
                       and abs(details[f"{label}_var_z_eps{eps}"]) <= 3.0)
    return CriterionResult(10, "homogenization endpoint law vs limit equation",
                           bool(passed), details)


def crit_11_solver_oracles(seed, suite, threads=1) -> CriterionResult:
    details = {}
    # Heun solver, smooth driver Z_t = t^2: dx = x dZ => x_T = x0 e^{T^2}.
    # A second-order scheme whose finite-dt dyadic orders approach 2 from
    # below; "observed order >= 2" is asserted on the dyadic order within
    # 0.01 plus its Aitken limit within 1e-3.
    errs = []
    for n in (200, 400, 800, 1600):
        grid = TimeGrid(1.0, n)
        x = solvers.solve_limit_stratonovich(1.0, lambda u: u, lambda u: 0.0 * u,
                                             np.diff(grid.times() ** 2), 0.0)
        errs.append(abs(x - np.exp(1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    d1, d2 = orders[1] - orders[0], orders[2] - orders[1]
    order_limit = float(orders[2] + d2 * d2 / (d1 - d2))
    details["heun_smooth_observed_order"] = float(orders[-1])
    details["heun_smooth_order_aitken_limit"] = order_limit
    ok_smooth = orders[-1] >= 1.99 and order_limit >= 2.0 - 1e-3

    # Heun-Stratonovich exponential: Var(log x_1) = c^2 t
    n_rep = 4000 if suite == "full" else 1500
    c, t = 0.8, 1.0
    grid = TimeGrid(t, 2000)

    def heun_chunk(chunk_keys):
        dW = normals(chunk_keys, np.empty((len(chunk_keys), grid.n_steps)))
        W = np.concatenate([np.zeros((len(dW), 1)), np.cumsum(dW, axis=1)], axis=1)
        x = solvers.solve_limit_stratonovich(1.0, lambda u: u, lambda u: 0.0 * u,
                                             np.diff(c * W * np.sqrt(grid.dt)).T, 0.0)
        return np.log(x)

    logs = harness.run_replicated(n_rep, seed, "acc11", heun_chunk, threads)
    lv = harness.fsum_variance(logs)
    se_lv = harness.variance_stderr(logs)
    details["heun_log_variance"] = lv
    details["heun_log_variance_se"] = se_lv
    details["c_sq_t"] = c * c * t
    ok_heun = abs(lv - c * c * t) <= 3.0 * se_lv
    return CriterionResult(11, "solver closed-form oracles", ok_smooth and ok_heun,
                           details)


def crit_12_determinism(seed, suite, threads=1) -> CriterionResult:
    import tempfile
    from pathlib import Path

    from . import cli

    details = {}
    passed = True
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for tag, thr in (("a", 1), ("b", 4), ("c", 1)):
            prefix = str(Path(tmp) / f"run{tag}")
            rc = cli.main([
                "sample-fou", "--H", "0.7", "--eps", "0.1", "--horizon", "0.5",
                "--n-steps", "200", "--replicas", "8", "--seed", str(seed),
                "--threads", str(thr), "--out", prefix,
            ])
            passed &= rc == 0
            outs.append(Path(prefix + ".csv").read_bytes())
        details["fou_identical"] = outs[0] == outs[1] == outs[2]
        passed &= details["fou_identical"]

        outs = []
        for tag, thr in (("x", 1), ("y", 3)):
            prefix = str(Path(tmp) / f"scan{tag}")
            rc = cli.main([
                "clt-scan", "--H", "0.6", "--coeffs", "0,0,1",
                "--eps-list", "0.2,0.1,0.05", "--replicas", "600",
                "--seed", str(seed), "--threads", str(thr), "--out", prefix,
            ])
            passed &= rc == 0
            outs.append(Path(prefix + ".csv").read_bytes()
                        + Path(prefix + ".json").read_bytes())
        details["scan_identical"] = outs[0] == outs[1]
        passed &= details["scan_identical"]
    return CriterionResult(12, "bit-identical reruns across thread counts",
                           passed, details)


CRITERIA = [
    crit_1_fbm_exactness,
    crit_2_fou_stationarity_decay,
    crit_3_degenerate_constant,
    crit_4_scaling_regimes,
    crit_5_limit_covariance,
    crit_6_limit_kurtosis,
    crit_7_hermite_sampler,
    crit_8_l2_coupled,
    crit_9_kinetic_rate,
    crit_10_homogenization,
    crit_11_solver_oracles,
    crit_12_determinism,
]


def run_all(suite: str = "full", seed: int = MASTER_SEED, threads: int = 1) -> dict:
    if suite not in ("full", "quick"):
        raise ValueError("suite must be 'full' or 'quick'")
    ctx: dict = {}
    results = []
    t_start = time.time()
    for func in CRITERIA:
        t0 = time.time()
        kwargs = {"threads": threads}
        if func in (crit_5_limit_covariance, crit_6_limit_kurtosis):
            kwargs["ctx"] = ctx
        res = func(seed, suite, **kwargs)
        res.seconds = time.time() - t0
        results.append(res)
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "seconds": time.time() - t_start,
        "criteria": [asdict(r) for r in results],
    }
