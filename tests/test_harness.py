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
    X = harness._functional_cumulative(H1, y, grid.dt, alpha=5.0)
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
    scan = harness.variance_scan(He3, 0.7, 1.0, [0.2, 0.1, 0.05], 600, 5, dt_ratio=10.0)
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
    A, _ = chaos.limit_covariance_A(H2, H2, 0.6)
    assert diag["predicted"] == pytest.approx(2 * 0.5 * A)
    assert abs(diag["z"]) < 4.0


def test_joint_covariance_wiener_hermite_cross():
    report = harness.joint_covariance_check(
        [H2, H1], 0.75, t=1.0, s=1.0, eps=0.05, n_replicas=3000, master_seed=8,
    )
    pairs = {(p["i"], p["j"]): p for p in report["pairs"]}
    assert pairs[(0, 1)]["kind"] == "wiener-hermite-cross"
    assert abs(pairs[(0, 1)]["z"]) < 3.5
    assert pairs[(0, 0)]["kind"] == "wiener-wiener-boundary"
    assert pairs[(0, 0)]["predicted"] is None


def test_variance_scan_defaults_to_the_coarsest_unbiased_grid(monkeypatch):
    ratios = []
    samples = harness._fou_endpoint_samples

    def spy(*args):
        ratios.append(args[7])
        return samples(*args)

    monkeypatch.setattr(harness, "_fou_endpoint_samples", spy)
    eps_list = [0.1, 0.05, 0.02]
    for H, t in ((0.85, 1.0), (0.05, 0.1)):
        scan = harness.variance_scan(H2, H, t, eps_list, 40, 2)
        resolution, var = exact.resolve_dt_ratio(H2, H, t, eps_list, 40)
        assert ratios[-3:] == [resolution["dt_ratio"]] * 3
        assert scan.meta["resolution"]["dt_ratio"] == resolution["dt_ratio"]
        assert scan.meta["exact_slope"] == exact.loglog_slope(eps_list, var)
    assert ratios == [10.0] * 3 + [400.0] * 3


def test_joint_check_takes_the_finest_rung_its_functions_need(monkeypatch):
    steps = []
    make_sampler = fou.path_sampler

    def spy(grid, H, eps):
        steps.append(grid.dt)
        return make_sampler(grid, H, eps)

    monkeypatch.setattr(fou, "path_sampler", spy)
    # He_1 and He_2 at H 0.3 over [0, 0.2], eps 0.05, 40 replicas: 10 and 20
    rungs = [exact.resolve_dt_ratio(G, 0.3, 0.2, [0.05], 40)[0]["dt_ratio"] for G in (H1, H2)]
    report = harness.joint_covariance_check([H1, H2], 0.3, 0.2, 0.1, 0.05, 40, 3)
    assert rungs == [10.0, 20.0] and report["dt_ratio"] == 20.0
    assert steps == [TimeGrid.with_step(0.2, 0.05 / 20.0).dt]


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
        assert np.max(np.abs(kernel.variances() - 1.0)) < 2e-3


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
    return np.hstack([kernel.P @ kernel.far, kernel.near])


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
    # 600 replicas: three chunks per scale
    harness.variance_scan(H2, 0.7, 0.2, [0.2, 0.1, 0.05, 0.025], 600, 3, dt_ratio=10.0)
    assert calls == [10, 20, 40, 80]
    calls.clear()
    harness.joint_covariance_check([H1, H2], 0.7, 0.2, 0.1, 0.05, 600, 3, dt_ratio=10.0)
    assert calls == [40]


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
    X = harness._functional_cumulative(H1, y, grid.dt, eps ** (H - 1.0))
    lags = np.array([20, 40, 80, 160])
    mom = [np.mean((X[:, 200 + k] - X[:, 200]) ** 2) for k in lags]
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


def test_run_replicated_hands_each_chunk_the_keys_of_its_replicas():
    # replica i reads stream (seed, name, i), whatever the chunk it lands in
    chunks = []

    def record(chunk_keys):
        chunks.append(chunk_keys)
        return chunk_keys

    got = harness.run_replicated(7, 11, "keyed", record, chunk_size=3)
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
    slope, (lo, hi) = harness.fit_loglog_slope(1 / eps, values, 0.01 * values)
    assert slope == pytest.approx(-1.5, abs=0.02)
    assert lo < -1.5 < hi


SLOPE_POINTS = (np.array([0.1, 0.05, 0.02, 0.01]), np.array([0.31, 0.22, 0.12, 0.09]),
                np.array([0.02, 0.01, 0.015, 0.006]))


def test_fit_loglog_slope_ci_is_the_normal_interval_of_the_wls_slope():
    eps, values, stderrs = SLOPE_POINTS
    slope, (lo, hi) = harness.fit_loglog_slope(1 / eps, values, stderrs)
    # the slope of a weighted line through the points, by least squares
    x, y = np.log(1 / eps), np.log(values)
    w = (values / stderrs) ** 2
    assert slope == pytest.approx(np.polyfit(x, y, 1, w=np.sqrt(w))[0], rel=1e-10)
    D = np.sum(w * (x - np.average(x, weights=w)) ** 2)
    half = 1.959963984540054 / np.sqrt(D)
    np.testing.assert_allclose([lo, hi], [slope - half, slope + half], rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_fit_loglog_slope_ci_matches_a_parametric_bootstrap(seed):
    # the oracle the closed form replaces: refit log-points redrawn from
    # N(log v, (se / v)^2), 200,000 times, and take the 2.5/97.5 percentiles
    eps, values, stderrs = SLOPE_POINTS
    slope, ci = harness.fit_loglog_slope(1 / eps, values, stderrs)
    x, y, sig = np.log(1 / eps), np.log(values), stderrs / values
    w = 1.0 / sig**2
    xc = x - np.average(x, weights=w)
    y_draws = y + sig * np.random.default_rng(seed).standard_normal((200_000, len(y)))
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
    # 250-replica chunk nor four of them ever hold a chunk-sized path matrix
    peaks = [_traced_peak_mb(lambda n=n: harness._fou_endpoint_samples(
        H2, 0.6, 1.0, 0.01, n, 3, "mem", 50.0, 1.0)) for n in (250, 1000)]
    assert max(peaks) < 10.0
    assert peaks[1] == pytest.approx(peaks[0], rel=0.05)


def test_l2_scan_memory_is_its_kernels_and_is_freed_on_return():
    # at eps 0.1, 0.05, 0.02 the fine grid has 1000 steps and 3495 noise
    # cells, 1495 of them far; the kernels are the 1000-row limit kernel and
    # the fOU kernels at strides 5, 2 and 1 (201 + 501 + 1001 rows): their
    # near blocks on the 2000 uniform cells and their interpolation
    # matrices, 43.7 MB, and four far blocks at 20 node rows, 1.0 MB.  The
    # kernel build and a 250-replica chunk, drawn in 37-row noise blocks,
    # add 3.9 MB to them, bounded here at that plus 25% (the dense kernels
    # took 75.6 MB, and a whole-chunk noise matrix added 16.1 MB to them);
    # the engine cache kept the limit kernel after the call
    fine = TimeGrid(1.0, 1000)
    n_far = len(hermite._cell_edges(fine)) - 1 - 2000
    rows = 1000 + 201 + 501 + 1001
    kernels_mb = 8 * (rows * (2000 + hermite._FAR_NODES) + 4 * hermite._FAR_NODES * n_far) / 1e6
    harness.l2_convergence_hermite(H1, 0.8, 1.0, [0.2, 0.1], 2, 9)  # imports only
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        harness.l2_convergence_hermite(H1, 0.8, 1.0, [0.1, 0.05, 0.02], 250, 9)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / 1e6 < kernels_mb + 1.25 * 3.9
    assert (after - before) / 1e6 < 1.0


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


def test_slope_ci_hits_within_its_tolerance():
    assert harness.slope_ci_hits((-1.09, -1.05), -1.0)
    assert not harness.slope_ci_hits((-1.3, -1.11), -1.0)
    assert not harness.slope_ci_hits((-0.89, -0.5), -1.0)
