import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from foulim import chaos, exact, fgn, fou, harness, hermite
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid
from foulim.streams import keys

H1 = ChaosFunction([0, 1.0])
H2 = ChaosFunction([0, 0, 1.0])
H3 = ChaosFunction([0, 0, 0, 1.0])


@pytest.mark.parametrize("G", [ChaosFunction([0, 0.3, -1.0, 0.5]), np.cos],
                         ids=["chaos", "cos"])
def test_functional_values_match_the_interval_trapezoid(G):
    y = np.random.default_rng(4).standard_normal((7, 501))
    gy = G(y)
    ref = 0.7 * 0.002 * (0.5 * (gy[:, 1:] + gy[:, :-1])).sum(axis=1)
    np.testing.assert_allclose(harness.functional_values(G, y, 0.002, 0.7), ref,
                               rtol=1e-13, atol=0)


def test_functional_integral_constant_path():
    grid = TimeGrid(2.0, 40)
    y = np.full((1, 41), 3.0)
    X = harness._prefix_integrals([H1], y, [(k, 5.0 * grid.dt) for k in range(41)])
    np.testing.assert_allclose(X[0], 5.0 * 3.0 * grid.times(), rtol=1e-14)


def test_ergodic_average_of_noncentred_function():
    # int_0^t g(y^eps) -> t * gbar in probability: the spread shrinks with eps
    g = np.cos
    g_bar = chaos.gaussian_expectation(g)
    grid = TimeGrid(1.0, 2000)
    sds = []
    for eps, name in ((0.05, "erg1"), (0.01, "erg2")):
        y = fou.path_sampler(grid, 0.7, eps).batch(keys(4, name, 0, 600))
        vals = harness.functional_values(g, y, grid.dt)
        assert vals.mean() == pytest.approx(g_bar, abs=0.03)
        sds.append(vals.std())
    assert sds[1] < sds[0]


def test_variance_scan_requires_three_scales():
    with pytest.raises(ValueError, match="3 eps"):
        harness.variance_scan(H2, 0.6, 1.0, [0.1, 0.05], 100)


def test_variance_scan_short_range_slope():
    scan = harness.variance_scan(H2, 0.6, 1.0, [0.1, 0.05, 0.02], 1500, 101)
    lo, hi = scan.slope_ci
    assert lo <= -1.0 + 0.1 and hi >= -1.0 - 0.1
    assert scan.meta["regime"] == "short_range"


def test_variance_scan_stderr_is_the_influence_function_se():
    # the integral of He_3 is heavy-tailed at these scales: its variance's
    # SE is 2-4x the Gaussian v sqrt(2 / (n - 1))
    He3 = ChaosFunction([0, 0, 0, 1.0])
    scan = harness.variance_scan(He3, 0.7, 1.0, [0.2, 0.1, 0.05], 600, 5)
    assert scan.stderrs[-1] == harness.variance_stderr(scan.meta["finest_samples"])
    assert np.all(scan.stderrs > 1.5 * scan.values * np.sqrt(2 / 599))


def test_clt_diagnostics_gaussian_calibration():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20_000)
    d = harness.clt_diagnostics(x)
    assert abs(d["excess_kurtosis"]) < 3 * d["se_excess_kurtosis"]
    assert abs(d["skewness"]) < 3 * d["se_skewness"]
    assert d["ks_pvalue"] > 0.01
    with pytest.raises(ValueError):
        harness.clt_diagnostics(np.zeros(10))


@pytest.mark.parametrize("law", ["normal", "student3", "shifted"])
def test_clt_diagnostics_ks_is_scipy_kstest_bit_for_bit(law):
    # the statistic from the sorted samples and ndtr, the p-value from kstwo.sf:
    # what kstest(x, "norm", args=(0, sd)) returns, to the bit
    from scipy import stats

    rng = np.random.default_rng(11)
    x = {"normal": rng.standard_normal(1200), "student3": rng.standard_t(3, 1500),
         "shifted": rng.standard_normal(1000) + 0.2}[law]
    d = harness.clt_diagnostics(x)
    ks = stats.kstest(x, "norm", args=(0.0, np.sqrt(d["variance"])))
    assert (d["ks_statistic"], d["ks_pvalue"]) == (float(ks.statistic), float(ks.pvalue))


def test_joint_covariance_check_pairs():
    report = harness.joint_covariance_check(
        [H2, H3], 0.6, t=1.0, s=0.5, eps=0.05, n_replicas=4000, master_seed=7,
    )
    pairs = {(p["i"], p["j"]): p for p in report["pairs"]}
    # disjoint chaos orders: prediction 0, within 3 SE
    cross = pairs[(0, 1)]
    assert cross["predicted"] == 0.0
    assert abs(cross["z"]) < 3.0
    # diagonal H2 matches 2*min(t,s)*A within sampling error
    diag = pairs[(0, 0)]
    two_A, _ = chaos.limit_covariance(H2, H2, 0.6)
    assert diag["predicted"] == pytest.approx(0.5 * two_A)
    assert abs(diag["z"]) < 4.0
    # long range: a same-rank pair predicts Sigma R_{H*}(t, s), which was None
    report = harness.joint_covariance_check(
        [H1, H2], 0.9, t=1.0, s=0.5, eps=0.05, n_replicas=1000, master_seed=7,
    )
    pairs = {(p["i"], p["j"]): p for p in report["pairs"]}
    assert [pairs[ij]["kind"] for ij in sorted(pairs)] == [
        "hermite-hermite-same-rank", "hermite-hermite-distinct",
        "hermite-hermite-distinct", "hermite-hermite-same-rank"]
    for k, G in enumerate([H1, H2]):
        hs = chaos.h_star(G.hermite_rank, 0.9)
        sigma, _ = chaos.limit_covariance(G, G, 0.9)
        assert pairs[(k, k)]["predicted"] == pytest.approx(
            sigma * fgn.fbm_covariance(1.0, 0.5, hs), rel=1e-15)
        assert np.isfinite(pairs[(k, k)]["z"])
    assert pairs[(0, 1)]["predicted"] == 0.0
    # He_1's integral is Gaussian and near its fBM limit already at eps 0.05
    assert abs(pairs[(0, 0)]["z"]) < 3.0


def test_joint_covariance_wiener_hermite_cross():
    report = harness.joint_covariance_check(
        [H2, H1], 0.75, t=1.0, s=1.0, eps=0.05, n_replicas=3000, master_seed=8,
    )
    pairs = {(p["i"], p["j"]): p for p in report["pairs"]}
    assert pairs[(0, 1)]["kind"] == "wiener-hermite-cross"
    assert abs(pairs[(0, 1)]["z"]) < 3.5
    # He_2 at H*(2) = 1/2: alpha^2 Cov -> 2 (t^s) 2! D^2, D = rho's tail constant;
    # this pair had no prediction.  The approach is like 1/|ln eps| (2.20 against
    # 1.27 here), so its z is reported and not gated
    assert pairs[(0, 0)]["kind"] == "wiener-wiener-boundary"
    assert pairs[(0, 0)]["predicted"] == pytest.approx(
        4.0 * fou.rho_asymptote_constant(0.75) ** 2, rel=1e-14)
    assert np.isfinite(pairs[(0, 0)]["z"])


def _spy_path_samplers(monkeypatch):
    """A list that receives (grid, eps) for every fOU path sampler built."""
    built = []
    make_sampler = fou.path_sampler

    def spy(grid, H, eps):
        built.append((grid, eps))
        return make_sampler(grid, H, eps)

    monkeypatch.setattr(fou, "path_sampler", spy)
    return built


def test_variance_scan_defaults_to_the_coarsest_unbiased_grid(monkeypatch):
    built = _spy_path_samplers(monkeypatch)
    eps_list = [0.1, 0.05, 0.02]
    ratios = []
    for H, t in ((0.85, 1.0), (0.05, 0.1)):
        scan = harness.variance_scan(H2, H, t, eps_list, 40, 2)
        resolution, var = exact.resolve_dt_ratio(H2, H, t, eps_list, 40)
        ratios.append(resolution["dt_ratio"])
        # one spacing group: the finest eps's grid at the resolved ratio
        assert built[-1] == (TimeGrid.with_step(t, 0.02 / ratios[-1]), 0.02)
        assert scan.meta["resolution"]["dt_ratio"] == resolution["dt_ratio"]
        assert scan.meta["exact_slope"] == exact.loglog_slope(eps_list, var)
    assert ratios == [2.0, 400.0] and len(built) == 2


def _old_slope_ci(eps, values, stderrs):
    """The independence-only CI: slope -+ ndtri(0.975) / sqrt(D), D = sum w (x - x_w)^2."""
    x, w = np.log(1 / eps), (values / stderrs) ** 2
    D = np.sum(w * (x - np.average(x, weights=w)) ** 2)
    return 1.959963984540054 / np.sqrt(D)


def test_variance_scan_reads_every_eps_of_a_group_off_the_finest_path(monkeypatch):
    # t 0.5 at any whole eps/dt r: 5r, 10r and 20r steps of one unit-rate spacing 1/r
    built = _spy_path_samplers(monkeypatch)
    eps_list, n, seed = [0.1, 0.05, 0.025], 300, 9
    scan = harness.variance_scan(H2, 0.7, 0.5, eps_list, n, seed)
    ratio = scan.meta["resolution"]["dt_ratio"]
    finest = TimeGrid.with_step(0.5, 0.025 / ratio)
    assert built == [(finest, 0.025)]
    # the finest column is the one an independent draw from its stream gives
    x = harness._fou_endpoint_samples(H2, 0.7, 0.5, 0.025, n, seed, "vscan-eps2", ratio, 1.0)
    np.testing.assert_array_equal(scan.meta["finest_samples"], x)
    assert scan.values[-1] == harness.fsum_variance(x)
    assert scan.stderrs[-1] == harness.variance_stderr(x)
    # each coarser column is the trapezoid integral over its prefix of those paths
    y = harness.run_replicated(n, seed, "vscan-eps2", fou.path_sampler(finest, 0.7, 0.025).batch)
    cols = []
    for i, eps in enumerate(eps_list):
        grid = TimeGrid.with_step(0.5, eps / ratio)
        cols.append(harness.functional_values(H2, y[:, : grid.n_steps + 1], grid.dt))
        assert scan.values[i] == harness.fsum_variance(cols[-1])
        assert scan.stderrs[i] == harness.variance_stderr(cols[-1])
    # the CI takes the covariance of the three variances, ddof 1
    sq = np.array([(c - c.mean()) ** 2 for c in cols])
    cov = np.cov(sq) / n
    np.fill_diagonal(cov, scan.stderrs**2)
    assert scan.slope_ci == pytest.approx(harness.fit_loglog_slope(1 / np.array(eps_list),
                                                                    scan.values, cov)[1],
                                          rel=0, abs=1e-12)


def test_variance_scan_draws_eps_of_different_spacings_apart(monkeypatch):
    # at eps/dt 5, the rung of 1,200 replicas, eps 0.1, 0.07 and 0.03 take 50,
    # 71 and 167 steps, of unit-rate spacings 0.2, 0.2012 and 0.1996: three
    # groups of one, each drawn from its own stream on its own grid, as
    # independent estimates
    built = _spy_path_samplers(monkeypatch)
    eps, n, seed = np.array([0.1, 0.07, 0.03]), 1200, 4
    scan = harness.variance_scan(H2, 0.6, 1.0, eps, n, seed)
    assert scan.meta["resolution"]["dt_ratio"] == 5.0
    assert [grid.n_steps for grid, _ in built] == [50, 71, 167]
    xs = [harness._fou_endpoint_samples(H2, 0.6, 1.0, e, n, seed, f"vscan-eps{i}", 5.0, 1.0)
          for i, e in enumerate(eps)]
    np.testing.assert_array_equal(scan.values, [harness.fsum_variance(x) for x in xs])
    np.testing.assert_array_equal(scan.stderrs, [harness.variance_stderr(x) for x in xs])
    half = _old_slope_ci(eps, scan.values, scan.stderrs)
    np.testing.assert_allclose(scan.slope_ci, [scan.slope - half, scan.slope + half],
                               rtol=0, atol=1e-12)


# the eps lists and (coefficients, H) pairs of the benchmark's clt-scan
# operations, at its 1200 replicas and the default --t 1
BENCH_SCANS = [(coeffs, H, eps) for coeffs, H in (((0, 0, 1), 0.6), ((0, 0, 1), 0.75),
                                                  ((0, 1), 0.8), ((0, 0, 1), 0.85),
                                                  ((0, 0, 0, 1), 0.7))
               for eps in ((0.1, 0.05, 0.02), (0.05, 0.02, 0.01))]


@pytest.mark.parametrize("coeffs, H, eps_list", BENCH_SCANS)
def test_variance_scan_builds_one_sampler_per_spacing_group(coeffs, H, eps_list, monkeypatch):
    built = _spy_path_samplers(monkeypatch)
    scan = harness.variance_scan(ChaosFunction(coeffs), H, 1.0, eps_list, 1200, 1)
    ratio = scan.meta["resolution"]["dt_ratio"]
    assert built == [(TimeGrid.with_step(1.0, eps_list[-1] / ratio), eps_list[-1])]


def test_joint_check_takes_the_finest_rung_its_functions_need(monkeypatch):
    built = _spy_path_samplers(monkeypatch)
    # He_1 and He_2 at H 0.3 over [0, 0.2], eps 0.05, 40 replicas: 8 and 20
    rungs = [exact.resolve_dt_ratio(G, 0.3, 0.2, [0.05], 40)[0]["dt_ratio"] for G in (H1, H2)]
    report = harness.joint_covariance_check([H1, H2], 0.3, 0.2, 0.1, 0.05, 40, 3)
    assert rungs == [8.0, 20.0] and report["dt_ratio"] == 20.0
    assert [grid.dt for grid, _ in built] == [TimeGrid.with_step(0.2, 0.05 / 20.0).dt]


def test_l2_convergence_requires_long_range():
    with pytest.raises(ValueError, match="long-range"):
        harness.l2_convergence_hermite(H2, 0.6, 1.0, [0.2, 0.1, 0.05], 100)


def test_l2_convergence_single_chaos_m2():
    scan = harness.l2_convergence_hermite(
        H2, 0.85, 1.0, [0.2, 0.1, 0.05], 400, 11,
    )
    assert scan.meta["monotone_decreasing"]
    assert scan.values[-1] < scan.values[0]


@pytest.mark.parametrize("H", [0.8, 0.9])
def test_l2_fou_kernel_rows_have_unit_variance(H, monkeypatch):
    # each row of each fOU kernel l2-hermite builds is y^eps at a grid
    # point, of variance sum_i M[k, i]^2 = 1; noise cut off at a finite
    # window loses the slow ghat^2 tail, most of all at H 0.9
    built = _spy_fou_kernels(monkeypatch)
    harness.l2_convergence_hermite(H1, H, 1.0, [0.2, 0.1, 0.05, 0.025], 2, 0)
    assert len(built) == 4
    for _, kernel in built:
        assert np.max(np.abs(kernel.variances(hermite._far_gram([kernel])) - 1.0)) < 2e-3


def _spy_fou_kernels(monkeypatch):
    """A list that receives (stride, kernel) for every fOU kernel built."""
    built = []
    build = hermite._fou_kernel

    def spy(fine, H, eps, stride):
        built.append((stride, build(fine, H, eps, stride)))
        return built[-1][1]

    monkeypatch.setattr(hermite, "_fou_kernel", spy)
    return built


def _dense(kernel):
    """The whole kernel matrix, its far block interpolated from the node rows."""
    return np.hstack([kernel.P @ kernel.far(0, kernel.n_far), kernel.near])


@pytest.mark.parametrize("eps_list, n_steps", [
    ([0.2, 0.1, 0.05], [100, 200, 400]),    # round(t L2_DT_RATIO / eps) steps each
    ([0.3, 0.13, 0.05], [80, 200, 400]),    # non-commensurate: strides 5, 2 and 1
])
def test_lag_profile_kernels_match_dense_construction(eps_list, n_steps, monkeypatch):
    # the fOU kernels l2-hermite builds, whose uniform block is windows of
    # one lag profile and whose far block is interpolated from its node
    # rows, against ghat at every midpoint of the graded cells; the limit
    # kernel's cell averages against 30-digit quadrature
    h, t, dt_ratio = 0.8, 1.0, harness.L2_DT_RATIO
    fine = TimeGrid(t, 400)
    edges = hermite._cell_edges(fine)
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = np.diff(edges)
    kernels = _spy_fou_kernels(monkeypatch)
    harness.l2_convergence_hermite(H1, h, t, eps_list, 2, 0)
    assert [fine.n_steps // stride for stride, _ in kernels] == n_steps
    for eps, (stride, kernel) in zip(eps_list, kernels):
        grid = TimeGrid(t, fine.n_steps // stride)
        assert grid.dt <= eps / dt_ratio * (1 + 1e-12)
        assert fine.n_steps % grid.n_steps == 0
        dense = hermite.ghat((grid.times()[:, None] - mids) / eps, h) * np.sqrt(w / eps)
        np.testing.assert_allclose(_dense(kernel), dense, rtol=1e-12, atol=0)
    A = _dense(hermite._kernel(fine, h, 1))
    n_far = len(w) - 2 * fine.n_steps
    with mpmath.workdps(30):
        for s in (0, 137, 399):
            s_mid = (s + 0.5) * fine.dt
            # the far end, the cells nearest -T, and the cells around s_mid
            for i in (0, 700, n_far - 1, n_far, n_far + 400 + s - 1, n_far + 400 + s):
                lo, hi = mpmath.mpf(edges[i]), mpmath.mpf(edges[i + 1])
                avg = mpmath.quad(lambda x: (s_mid - x) ** (h - 1.5),
                                  [lo, min(hi, mpmath.mpf(s_mid))]) / (hi - lo)
                assert A[s, i] == pytest.approx(float(avg * mpmath.sqrt(hi - lo)), rel=1e-9)
    # cells after a step's midpoint carry no kernel, every other cell does
    future = np.triu(np.ones((400, 400), dtype=bool), 1)
    np.testing.assert_array_equal(A[:, n_far + 400:] == 0.0, future)
    assert np.all(A[:, :n_far + 400] > 0.0)


def _projected_l2_squares(G, H, eps_list, strides, n_replicas, seed):
    """(X^eps - lambda Z_t)^2 per replica and eps of l2-hermite's noise on a
    400-step fine grid, every row of every kernel projected, as a reference."""
    m = G.hermite_rank
    hs = chaos.classify_regime(m, H).h_star
    fine = TimeGrid(1.0, 400)
    kernels = [hermite._kernel(fine, hs, m)] + [
        hermite._fou_kernel(fine, H, eps, r) for eps, r in zip(eps_list, strides)]
    gram = hermite._far_gram(kernels)
    far_factor, _ = hermite._far_factor(gram)
    K = chaos.K_normalizer(hs, m)
    lam = G.coefficients[m] * math.factorial(m) / K * fou.kernel_amplitude(H) ** m
    nodes = kernels[0].P.shape[1]
    var = kernels[0].variances(gram[:nodes, :nodes])
    blocks = []
    for _, (u, *ys) in hermite._projections(keys(seed, "l2-noise", 0, n_replicas), kernels,
                                           far_factor):
        Z = hermite._wick_power(u, var, m).sum(axis=1) * fine.dt * K / math.factorial(m)
        blocks.append(np.stack([(harness.functional_values(G, y, r * fine.dt, eps ** (hs - 1.0))
                                 - lam * Z) ** 2 for y, eps, r in zip(ys, eps_list, strides)],
                               axis=1))
    return np.concatenate(blocks)


@pytest.mark.parametrize("G", [H1, ChaosFunction([0, 1.0, 0.5])], ids=["He1", "He1+He2"])
def test_contracted_l2_matches_every_row_projected(G, monkeypatch):
    # He_1 reads a weighted sum of each kernel's rows, contracted to one row
    # before it is projected; with He_2 beside it only the limit's is
    captured = []
    run = harness.run_replicated

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(harness, "run_replicated", spy)
    built = _spy_fou_kernels(monkeypatch)
    harness.l2_convergence_hermite(G, 0.8, 1.0, [0.2, 0.1, 0.05], 200, 17)
    assert [stride for stride, _ in built] == [4, 2, 1]
    ref = _projected_l2_squares(G, 0.8, [0.2, 0.1, 0.05], [4, 2, 1], 200, 17)
    np.testing.assert_allclose(captured[0], ref, rtol=0, atol=1e-13)


def test_l2_exact_coupled_distances_of_a_linear_functional():
    # for He_1, X^eps - lambda Z_t is one linear functional of the noise, whose
    # norm is the exact distance; the 2,000-replica distances sit within 3 SE
    scan = harness.l2_convergence_hermite(H1, 0.8, 1.0, [0.2, 0.1, 0.05], 2000, 11)
    exact_values = scan.meta["exact_values"]
    np.testing.assert_allclose(exact_values, [0.310823, 0.191497, 0.114702], rtol=0, atol=1e-5)
    np.testing.assert_allclose(scan.meta["exact_z"], (scan.values - exact_values) / scan.stderrs,
                               rtol=1e-12)
    assert np.all(np.abs(scan.meta["exact_z"]) <= 3.0)
    # the scan reports exact distances for linear G only
    assert "exact_values" not in harness.l2_convergence_hermite(H2, 0.85, 1.0, [0.2, 0.1],
                                                                 4, 11).meta


def test_l2_exact_values_match_the_dense_kernels(monkeypatch):
    # meta["exact_values"] against the dense formula: each kernel as built,
    # before it is contracted, made dense on every cell (P far on the far
    # cells, its windows on the uniform ones), weighted, and differenced
    built = []
    for name in ("_kernel", "_fou_kernel"):
        def spy(*args, build=getattr(hermite, name)):
            built.append((args, build(*args)))
            return built[-1][1]
        monkeypatch.setattr(hermite, name, spy)
    H, eps_list = 0.8, [0.2, 0.1, 0.05]
    scan = harness.l2_convergence_hermite(H1, H, 1.0, eps_list, 4, 3)
    ((fine, hs, m), limit), *fou_kernels = built
    n = fine.n_steps

    def dense_sum(w, kernel):
        return np.concatenate([w @ kernel.P @ kernel.far(0, kernel.n_far),
                               w @ np.array(kernel.near)])

    lam_z = chaos.c_constant(H1, H) * fine.dt * chaos.K_normalizer(hs, m)
    v_lim = dense_sum(np.full(n, lam_z), limit)
    exact = []
    for ((_, _, eps, r), kernel) in fou_kernels:
        w = np.full(n // r + 1, fine.horizon / (n // r) * eps ** (hs - 1.0))
        w[[0, -1]] *= 0.5
        exact.append(np.linalg.norm(dense_sum(w, kernel) - v_lim))
    np.testing.assert_allclose(scan.meta["exact_values"], exact, rtol=1e-13, atol=0)


def test_l2_convergence_bit_identical_across_threads():
    # 300 replicas: two chunks of 250 and 50
    runs = [harness.l2_convergence_hermite(H2, 0.85, 1.0, [0.3, 0.13, 0.05], 300, 4,
                                           threads=threads) for threads in (1, 2)]
    np.testing.assert_array_equal(runs[0].values, runs[1].values)
    np.testing.assert_array_equal(runs[0].stderrs, runs[1].stderrs)


def test_each_embedding_is_computed_once_per_scale(monkeypatch):
    calls = []
    compute = fgn._embedding_eigenvalues

    def spy(acov, n):
        calls.append(n)
        return compute(acov, n)

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", spy)
    # 600 replicas: three chunks; the four scales share the unit-rate
    # spacing 1/6 of their rung, so one embedding of the finest grid serves them all
    scan = harness.variance_scan(H2, 0.7, 0.2, [0.2, 0.1, 0.05, 0.025], 600, 3)
    assert scan.meta["resolution"]["dt_ratio"] == 6.0 and calls == [48]
    calls.clear()
    report = harness.joint_covariance_check([H1, H2], 0.7, 0.2, 0.1, 0.05, 600, 3)
    assert report["dt_ratio"] == 2.0 and calls == [8]


def test_gaussian_moment_constant_for_linear_functional():
    # G = He_1: the integral is Gaussian, so E|X|^4 / (E X^2)^2 = 3
    grid = TimeGrid(1.0, 1000)
    y = fou.path_sampler(grid, 0.8, 0.05).batch(keys(15, "gm", 0, 6000))
    x = harness.functional_values(H1, y, grid.dt)
    ratio = np.mean(x**4) / np.mean(x**2) ** 2
    assert ratio == pytest.approx(3.0, abs=0.25)


def test_reduction_to_leading_chaos_term():
    # long-range regime: the variance share of the higher-order term
    # vanishes as eps -> 0 (the short-range remainder is swept out at rate
    # eps^{1-2(1-H*(2))} = eps^0.4 here, so the share at eps = 0.0125 is
    # still ~50%).  The He_4 integral is too heavy tailed (excess kurtosis
    # in the hundreds) for a sample variance to see the decay, so the share
    # is exact, and the samples are checked to split into the two chaos
    # terms on the same keys.
    G4 = ChaosFunction([0, 0, 0, 0, 0.5])
    G_mix = ChaosFunction([0, 0, 1.0, 0, 0.5])
    shares = []
    for eps in (0.2, 0.05, 0.0125):
        v2, v4 = (exact.trapezoid_variance(G, 0.85, 1.0, eps, 50.0) for G in (H2, G4))
        shares.append(v4 / (v2 + v4))
        alpha = chaos.classify_regime(2, 0.85).alpha(eps)
        x_mix, x_pure, x_4 = (harness._fou_endpoint_samples(
            G, 0.85, 1.0, eps, 200, 17, f"red-{eps}", 50.0, alpha) for G in (G_mix, H2, G4))
        np.testing.assert_allclose(x_mix - x_pure, x_4, rtol=1e-12,
                                   atol=1e-14 * np.max(np.abs(x_mix)))
    assert shares[0] > shares[1] > shares[2]
    # consistent with the eps^0.4 sweep-out rate (each step is eps/4)
    assert shares[2] / shares[0] < 2 * 0.25**0.4


def test_holder_moment_diagnostic():
    # E|X_t - X_s|^2 ~ |t-s|^{2 max(H*, 1/2)} at small lags (long-range case)
    eps, H = 0.05, 0.8
    grid = TimeGrid(1.0, 400)
    y = fou.path_sampler(grid, H, eps).batch(keys(19, "hm", 0, 1500))
    lags = np.array([20, 40, 80, 160])
    X = harness._prefix_integrals([H1], y, [(k, grid.dt * eps ** (H - 1.0))
                                            for k in (200, *(200 + lags))])
    mom = [np.mean((X[:, 1 + i] - X[:, 0]) ** 2) for i in range(len(lags))]
    slope = np.polyfit(np.log(lags * grid.dt), np.log(mom), 1)[0]
    assert slope == pytest.approx(2 * H, abs=0.35)


def test_reproducibility_bitwise():
    a = harness.variance_scan(H2, 0.6, 0.5, [0.2, 0.1, 0.05], 300, 23)
    b = harness.variance_scan(H2, 0.6, 0.5, [0.2, 0.1, 0.05], 300, 23)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.slope == b.slope and a.slope_ci == b.slope_ci


def test_threaded_run_matches_serial():
    def chunk(chunk_keys):
        rng = np.random.default_rng(chunk_keys[0])
        return rng.standard_normal((len(chunk_keys), 3))

    serial = harness.run_replicated(1000, 5, "threads", chunk, threads=1)
    threaded = harness.run_replicated(1000, 5, "threads", chunk, threads=4)
    np.testing.assert_array_equal(serial, threaded)


def test_run_replicated_hands_each_chunk_the_keys_of_its_replicas(monkeypatch):
    # chunks of CHUNK_SIZE replicas, each handed the keys (seed, name, i) of
    # its replicas i, whose first names the chunk's stream
    chunks = []

    def record(chunk_keys):
        chunks.append(chunk_keys)
        return chunk_keys

    monkeypatch.setattr(harness, "CHUNK_SIZE", 3)
    got = harness.run_replicated(7, 11, "keyed", record)
    assert [len(k) for k in chunks] == [3, 3, 1]
    np.testing.assert_array_equal(got, keys(11, "keyed", 0, 7))


def test_fsum_aggregation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10_001) * 1e6
    assert harness.fsum_mean(x) == pytest.approx(np.mean(x), rel=1e-12)
    assert harness.fsum_variance(x) == pytest.approx(np.var(x, ddof=1), rel=1e-10)


def test_fsum_variance_needs_more_samples_than_ddof():
    for x, ddof in (([], 1), ([2.0], 1), ([1.0, 2.0], 2)):
        with pytest.raises(ValueError, match="needs more than"):
            harness.fsum_variance(x, ddof)
    assert harness.fsum_variance([1.0, 3.0]) == 2.0


def test_scan_result_requires_decreasing_eps():
    with pytest.raises(ValueError, match="strictly decreasing"):
        harness.ScanResult(np.array([0.1, 0.2]), np.ones(2), np.ones(2), 10)


def test_fit_loglog_slope_recovers_power_law():
    eps = np.array([0.2, 0.1, 0.05, 0.02])
    values = 3.0 * eps**1.5
    slope, (lo, hi) = harness.fit_loglog_slope(1 / eps, values, np.diag((0.01 * values) ** 2))
    assert slope == pytest.approx(-1.5, abs=0.02)
    assert lo < -1.5 < hi


SLOPE_POINTS = (np.array([0.1, 0.05, 0.02, 0.01]), np.array([0.31, 0.22, 0.12, 0.09]),
                np.array([0.02, 0.01, 0.015, 0.006]))
# correlations of the SLOPE_POINTS estimates when the first three share
# their paths and the last is drawn apart
SLOPE_CORRELATION = np.array([[1.0, 0.7, 0.4, 0.0], [0.7, 1.0, 0.6, 0.0],
                              [0.4, 0.6, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def test_fit_loglog_slope_quantile_is_scipy_ndtri_bit_for_bit():
    from scipy import special

    # x = log(1/eps) = -1, -1, 1, 1 with weights 1/4: D = 1 and slope 0,
    # so the CI is (-q, q) with q the quantile itself
    inv_eps = np.exp([-1.0, -1.0, 1.0, 1.0])
    values = np.full(4, 3.0)
    slope, (lo, hi) = harness.fit_loglog_slope(inv_eps, values, np.diag((2.0 * values) ** 2))
    assert slope == 0.0 and lo == -hi
    assert hi == special.ndtri(0.975)


def test_fit_loglog_slope_ci_is_the_normal_interval_of_the_wls_slope():
    # a diagonal covariance, independent estimates: the CI of 1 / sqrt(D)
    eps, values, stderrs = SLOPE_POINTS
    slope, (lo, hi) = harness.fit_loglog_slope(1 / eps, values, np.diag(stderrs**2))
    # the slope of a weighted line through the points, by least squares
    x, y = np.log(1 / eps), np.log(values)
    w = (values / stderrs) ** 2
    assert slope == pytest.approx(np.polyfit(x, y, 1, w=np.sqrt(w))[0], rel=1e-10)
    half = _old_slope_ci(eps, values, stderrs)
    np.testing.assert_allclose([lo, hi], [slope - half, slope + half], rtol=0, atol=1e-12)


def test_fit_loglog_slope_takes_only_its_weights_from_the_diagonal():
    # correlations move the CI, not the weighted slope
    eps, values, stderrs = SLOPE_POINTS
    cov = SLOPE_CORRELATION * np.outer(stderrs, stderrs)
    slope, ci = harness.fit_loglog_slope(1 / eps, values, cov)
    assert slope == harness.fit_loglog_slope(1 / eps, values, np.diag(stderrs**2))[0]
    assert ci[1] - slope != pytest.approx(_old_slope_ci(eps, values, stderrs), rel=0.01)


def test_fit_loglog_slope_of_exactly_proportional_estimates_has_a_zero_width_ci():
    # estimates that are one sample times constants carry no information about
    # their slope: c'Cc is 0, and rounding takes it below 0 at seeds 3 to 7
    # (a NaN CI, which slope_z read as z = 0, a pass); clipped, the CI has
    # zero width and its z fails unless the slope sits on the target
    inv_eps = np.array([10.0, 20.0, 50.0])
    for seed in range(10):
        x = np.random.default_rng(seed).standard_normal(50) ** 2 + 1.0
        rows = [k * x for k in (1.0, 0.6, 0.3)]
        cov = harness._mean_covariance(rows, [np.std(r, ddof=1) / np.sqrt(50) for r in rows])
        slope, ci = harness.fit_loglog_slope(inv_eps, [r.mean() for r in rows], cov)
        assert np.all(np.isfinite(ci)) and 0.0 <= ci[1] - ci[0] <= 1e-6
        assert abs(harness.slope_z(slope, ci, slope + 1e-3)) > 3.0


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_fit_loglog_slope_ci_matches_a_parametric_bootstrap(seed):
    _check_against_a_parametric_bootstrap(seed, np.eye(len(SLOPE_POINTS[0])))


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_fit_loglog_slope_ci_matches_a_correlated_parametric_bootstrap(seed):
    _check_against_a_parametric_bootstrap(seed, SLOPE_CORRELATION)


def _check_against_a_parametric_bootstrap(seed, corr):
    # the oracle the closed form replaces: refit log-points redrawn from
    # N(log v, C), C = cov / (v v^T), 200,000 times, and take the 2.5/97.5
    # percentiles; the weights stay the inverse variances diag(C)^-1
    eps, values, stderrs = SLOPE_POINTS
    cov = corr * np.outer(stderrs, stderrs)
    slope, ci = harness.fit_loglog_slope(1 / eps, values, cov)
    x, y, sig = np.log(1 / eps), np.log(values), stderrs / values
    w = 1.0 / sig**2
    xc = x - np.average(x, weights=w)
    L = np.linalg.cholesky(corr * np.outer(sig, sig))
    y_draws = y + np.random.default_rng(seed).standard_normal((200_000, len(y))) @ L.T
    y_draws -= np.average(y_draws, axis=1, weights=w)[:, None]
    draws = y_draws @ (w * xc) / np.sum(w * xc**2)
    sd = (ci[1] - slope) / 1.959963984540054
    assert np.mean(draws) == pytest.approx(slope, abs=5 * sd / np.sqrt(len(draws)))
    # a 2.5% quantile of n normal draws has SE sqrt(p (1 - p) / n) / phi(z_p) sd,
    # 0.006 sd here: allow 5 of those
    np.testing.assert_allclose(np.percentile(draws, [2.5, 97.5]), ci, rtol=0, atol=0.03 * sd)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_endpoint_samples_memory_does_not_grow_with_replicas():
    # eps = 0.01, dt = eps/50: 5001-point paths, a 10,000-point embedding;
    # each block of paths is reduced before the next is drawn, so neither the
    # 250-replica chunk nor four of them ever hold a chunk-sized path matrix;
    # an untraced first call pays the one-time allocations, as in _l2_scan_traced_mb
    harness._fou_endpoint_samples(H2, 0.6, 1.0, 0.01, 2, 3, "mem", 50.0, 1.0)
    peaks = [_traced_peak_mb(lambda n=n: harness._fou_endpoint_samples(
        H2, 0.6, 1.0, 0.01, n, 3, "mem", 50.0, 1.0)) for n in (250, 1000)]
    assert max(peaks) < 10.0
    assert peaks[1] == pytest.approx(peaks[0], rel=0.05)


def _l2_scan_traced_mb(G) -> tuple[float, float]:
    """(peak, retained) MB traced by an l2 scan at eps 0.1, 0.05, 0.02 and
    250 replicas, over the memory traced when it starts."""
    harness.l2_convergence_hermite(H1, 0.8, 1.0, [0.2, 0.1], 2, 9)  # imports only
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        harness.l2_convergence_hermite(G, 0.8, 1.0, [0.1, 0.05, 0.02], 250, 9)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / 1e6, (after - before) / 1e6


def test_l2_scan_memory_is_its_kernels_and_is_freed_on_return():
    # at eps 0.1, 0.05, 0.02 the fine grid has 1000 steps and 3495 noise
    # cells, 1495 of them far; the kernels are the 1000-row limit kernel and
    # the fOU kernels at strides 5, 2 and 1 (201 + 501 + 1001 rows), each a
    # lag profile of 3000 values (0.1 MB in all) and an interpolation matrix
    # (0.4 MB in all); their node rows on the far cells are evaluated in
    # 102-cell chunks of the stacked Gram (80 x 102 doubles), never whole.
    # He_1 contracts each kernel to one row as it is built; with the build
    # and a 250-replica chunk, drawn in 16-row noise blocks, the call traces
    # 0.61 MB, bounded here at 0.8.  With the kernels' far blocks (1.0 MB in
    # all) moved into a stacked block it traced 2.0 MB, held twice while
    # stacked and to return 3.1 MB (the transient dense near block of the
    # finest fOU kernel took it to 17.3 MB)
    peak, retained = _l2_scan_traced_mb(H1)
    assert peak < 0.8
    assert retained < 1.0


def test_l2_scan_memory_with_every_kernel_row_held():
    # He_2 keeps every row of every kernel: noise blocks of 2 rows, each with
    # a 3,000-point spectrum and correlation and 2,703 projections, trace
    # 1.29 MB in all, bounded at 1.6; with the far blocks stacked and every
    # noise block multiplied by 8 kernel rows at a time it traced 2.5 MB,
    # with the stacked far block held to return and :u^2: beside u 4.4 MB,
    # with the near blocks held dense 47.7 MB
    peak, retained = _l2_scan_traced_mb(H2)
    assert peak < 1.6
    assert retained < 1.0


@pytest.mark.parametrize("horizon, step, n", [(1.0, 0.02 / 50, 2500), (0.1, 0.05 / 100, 200),
                                              (1.0, 0.3, 3), (1.0, 5.0, 1)])
def test_time_grid_with_step_rounds_to_at_least_one_step(horizon, step, n):
    assert TimeGrid.with_step(horizon, step) == TimeGrid(horizon, n)


@pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0])
def test_time_grid_with_step_rejects_a_bad_horizon_before_rounding(horizon):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        TimeGrid.with_step(horizon, 0.01)


@pytest.mark.parametrize("step", [1e-309, 0.0, -0.01, np.nan])
def test_time_grid_with_step_rejects_a_step_count_that_is_not_finite(step):
    with pytest.raises(ValueError, match="gives no finite step count"):
        TimeGrid.with_step(1.0, step)


def test_slope_z_is_the_distance_in_ci_standard_errors():
    from scipy import special

    se = 0.05 / special.ndtri(0.975)
    assert harness.slope_z(-0.9, (-0.95, -0.85), -1.0) == pytest.approx(0.1 / se, rel=1e-15)
    assert harness.slope_z(-0.9, (-0.95, -0.85), -0.8) == pytest.approx(-0.1 / se, rel=1e-15)
    assert harness.slope_z(-0.9, (-0.95, -0.85), -0.9) == 0.0


@pytest.mark.parametrize("slope, target, z", [(1.05, -0.95, np.finfo(float).max),
                                              (1.05, 3.0, -np.finfo(float).max),
                                              (1.05, 1.05, 0.0)])
def test_slope_z_of_a_zero_width_ci_is_finite(slope, target, z):
    # two replicas give equal squared deviations: the variances' SEs, and the CI, vanish
    assert harness.slope_z(slope, (slope, slope), target) == z


def test_variance_scan_reports_the_slope_z_against_its_exact_slope():
    scan = harness.variance_scan(H2, 0.6, 1.0, [0.2, 0.1, 0.05], 200, 3)
    assert scan.meta["slope_z"] == harness.slope_z(scan.slope, scan.slope_ci,
                                                   scan.meta["exact_slope"])
