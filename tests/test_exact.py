"""Oracles for the exact finite-eps variances of ``foulim.exact``."""

import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from foulim import exact, fgn, fou, harness
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid
from foulim.streams import keys

He1 = ChaosFunction([0, 1])
He2 = ChaosFunction([0, 0, 1])
MIXED = ChaosFunction([0, 0.5, -1.0, 0.3])


def _chaos_covariance_by_loop(G, r):
    return sum(c**2 * math.factorial(k) * r**k for k, c in enumerate(G.coefficients))


def test_chaos_covariance_weights_match_scipy_factorials():
    from scipy import special

    weights = special.factorial(np.arange(30))
    c = 1.0 / np.sqrt(weights)
    c[0] = 0.0
    r = np.linspace(0.1, 1.0, 10)
    ref = np.polynomial.polynomial.polyval(r, c**2 * weights)
    got = exact._chaos_covariance(ChaosFunction(c), r)
    assert np.max(np.abs(got / ref - 1.0)) <= 4e-15


@pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
def test_lag_weights_are_the_autocorrelation_of_the_trapezoid_weights(n):
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    np.testing.assert_allclose(exact.trapezoid_lag_weights(n),
                               np.correlate(w, w, "full")[n:], rtol=1e-15, atol=0)


@pytest.mark.parametrize("G", [He1, He2, MIXED], ids=["He1", "He2", "mixed"])
@pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("t, eps, ratio", [(0.37, 0.1, 10.0), (1.0, 0.2, 23.5),
                                           (0.05, 1.0, 20.0)])
def test_trapezoid_variance_is_the_toeplitz_quadratic_form(G, H, t, eps, ratio):
    grid = TimeGrid.with_step(t, eps / ratio)
    w = np.full(grid.n_steps + 1, grid.dt)
    w[[0, -1]] *= 0.5
    lags = np.arange(grid.n_steps + 1) * grid.dt / eps
    R = toeplitz(_chaos_covariance_by_loop(G, fou.rho(lags, H)))
    assert exact.trapezoid_variance(G, H, t, eps, ratio) == pytest.approx(w @ R @ w,
                                                                          rel=1e-12)


@pytest.mark.parametrize("t, eps, ratio", [(1.0, 0.1, 10.0), (0.3, 0.02, 50.0),
                                           (1.0, 1.0, 400.0)])
def test_variances_at_half_match_the_geometric_sums_of_exp(t, eps, ratio):
    # rho(s) = e^{-s} at H = 1/2: with q = e^{-k dt/eps} the lag sum is closed,
    # sum_{l=1}^{n-1} (n - l) q^l = q (n (1 - q) - 1 + q^n) / (1 - q)^2, and so is
    # 2 int_0^t (t - s) e^{-k s/eps} ds = 2 (t eps/k - (eps/k)^2 (1 - e^{-k t/eps}))
    grid = TimeGrid.with_step(t, eps / ratio)
    n, dt = grid.n_steps, grid.dt
    discrete = continuous = 0.0
    for k, c in enumerate(MIXED.coefficients[1:], start=1):
        q = math.exp(-k * dt / eps)
        inner = q * (n * (1 - q) - 1 + q**n) / (1 - q) ** 2
        weight = c**2 * math.factorial(k)
        discrete += weight * dt**2 * (n - 0.5 + 2 * inner + 0.5 * q**n)
        continuous += weight * 2 * (t * eps / k - (eps / k) ** 2 * -math.expm1(-k * t / eps))
    assert exact.trapezoid_variance(MIXED, 0.5, t, eps, ratio) == pytest.approx(discrete,
                                                                                rel=1e-12)
    assert exact.continuous_variance(MIXED, 0.5, t, eps) == pytest.approx(continuous,
                                                                         rel=1e-12)


def test_trapezoid_variance_matches_monte_carlo_of_the_sampler():
    # He_2 at H 0.6, eps 0.1, dt = eps/10: the scan's own sampler and reduction
    t, eps, ratio, n = 1.0, 0.1, 10.0, 20_000
    grid = TimeGrid.with_step(t, eps / ratio)
    y = fou.path_sampler(grid, 0.6, eps).batch(keys(31, "exact-mc", 0, n))
    x = harness.functional_values(He2, y, grid.dt)
    z = (harness.fsum_variance(x) - exact.trapezoid_variance(He2, 0.6, t, eps, ratio)) \
        / harness.variance_stderr(x)
    assert abs(z) < 4.0


def test_trapezoid_bias_falls_at_its_rate_as_the_ratio_doubles():
    # rho(u) = 1 - a u^{2H} + ... at 0, so the trapezoid rule errs by
    # O((dt/eps)^{1+2H}) relative: the exponent 1.6 at H = 0.3
    H = 0.3
    target = exact.continuous_variance(He2, H, 1.0, 0.1)
    bias = np.array([exact.trapezoid_variance(He2, H, 1.0, 0.1, r) / target - 1.0
                     for r in (20, 40, 80, 160, 320)])
    assert np.all(bias > 0)
    rates = np.log2(bias[:-1] / bias[1:])
    assert np.all(np.abs(rates - (1 + 2 * H)) < 0.03), rates


def test_variance_stderr_matches_the_chi_square_fourth_moment():
    # chi^2_1: sigma^2 = 2 and central mu_4 = 60, so the SE of a sample
    # variance is sqrt((60 - 4) / n), sqrt(7) times the Gaussian 2 sqrt(2 / n)
    n = 400_000
    x = np.random.default_rng(11).chisquare(1, n)
    assert harness.variance_stderr(x) == pytest.approx(math.sqrt(56 / n), rel=0.05)


MC_PAIRS = [(He2, 0.6), (He2, 0.75), (He1, 0.8), (He2, 0.85),
            (ChaosFunction([0, 0, 0, 1]), 0.7)]


# the coarsest rung whose exact bias fits the budget of 1,200 replicas
AUTO_RATIO_1200 = {0.6: 5.0, 0.75: 2.0, 0.8: 2.0, 0.85: 2.0, 0.7: 4.0}
BUDGET_1200 = 0.1 * math.sqrt(2 / 1199)


def _relative_biases(G, H, eps_list, ratio):
    """Exact relative bias of the trapezoid variance on the grid of step eps/ratio, per eps."""
    return np.array([exact.trapezoid_variance(G, H, 1.0, e, ratio)
                     / exact.continuous_variance(G, H, 1.0, e) - 1.0 for e in eps_list])


@pytest.mark.parametrize("eps_list", [[0.1, 0.05, 0.02], [0.05, 0.02, 0.01]])
@pytest.mark.parametrize("G, H", MC_PAIRS, ids=["He2-0.6", "He2-0.75", "He1-0.8",
                                                "He2-0.85", "He3-0.7"])
def test_auto_ratio_is_ten_where_paths_are_smooth(G, H, eps_list):
    # the budget alone picks the rung, ten or coarser: it fits there and
    # misses one rung coarser, and eps/10 fits too; a drift takes the same
    # rung, as Heun stepped on it adds no error the budget sees
    resolution, var = exact.resolve_dt_ratio(G, H, 1.0, eps_list, 1200)
    ratio = resolution["dt_ratio"]
    assert ratio == AUTO_RATIO_1200[H] and resolution["bias_budget_met"]
    rung = exact.DT_RATIO_LADDER.index(ratio)
    if rung > 0:
        coarser = exact.DT_RATIO_LADDER[rung - 1]
        assert np.max(np.abs(_relative_biases(G, H, eps_list, coarser))) > BUDGET_1200
    assert var == pytest.approx([exact.trapezoid_variance(G, H, 1.0, e, ratio)
                                 for e in eps_list], rel=1e-15)
    assert ratio <= 10.0
    assert np.max(np.abs(_relative_biases(G, H, eps_list, 10.0))) <= BUDGET_1200


def test_auto_ratio_refines_for_rough_paths_and_caps_at_400():
    eps_list, budget = [0.1, 0.05, 0.02], BUDGET_1200
    res = exact.resolve_dt_ratio(He2, 0.3, 1.0, eps_list, 1200)[0]
    assert res["dt_ratio"] == 50.0 and res["bias_budget_met"]
    assert np.all(res["trapezoid_bias"] > 0) and res["bias_budget"] == pytest.approx(budget)
    assert np.max(_relative_biases(He2, 0.3, eps_list, 20.0)) > budget
    res = exact.resolve_dt_ratio(He2, 0.05, 1.0, eps_list, 1200)[0]
    assert res["dt_ratio"] == 400.0 and not res["bias_budget_met"]
    assert np.min(res["trapezoid_bias"]) > budget


def test_auto_ratio_reports_the_bias_of_a_rounded_grid():
    # 1 / (0.03 / 2) = 66.7 rounds to 67 steps, dt = 0.014925 < eps / 2: the
    # rung is the grid as rounded, and its variances and biases are that
    # grid's exact ones; every rung is a candidate, with or without a drift,
    # and the first is 2
    assert TimeGrid.with_step(1.0, 0.015).dt < 0.03 / 2.0
    eps_list = [0.1, 0.03, 0.01]
    resolution, var = exact.resolve_dt_ratio(He1, 0.8, 1.0, eps_list, 1200)
    trapezoid = [exact.trapezoid_variance(He1, 0.8, 1.0, e, 2.0) for e in eps_list]
    continuous = [exact.continuous_variance(He1, 0.8, 1.0, e) for e in eps_list]
    np.testing.assert_array_equal(var, trapezoid)
    assert resolution == {"dt_ratio": 2.0,
                          "trapezoid_bias": pytest.approx(np.divide(trapezoid, continuous) - 1,
                                                          rel=1e-15),
                          "bias_budget": pytest.approx(BUDGET_1200, rel=1e-15),
                          "bias_budget_met": True}
    with pytest.raises(ValueError, match="at least 2 replicas, got 1"):
        exact.resolve_dt_ratio(He2, 0.6, 1.0, [0.1], 1)


@pytest.mark.parametrize("H", [0.6, 0.85])
def test_he2_kurtosis_at_the_resolved_rung_is_that_of_a_fine_grid(H):
    # criterion 6's forms at eps 0.02 and 2,500 replicas: the exact excess
    # kurtosis on the auto grid (eps/6 at H 0.6, eps/2 at 0.85) is within a
    # tenth of a sample's SE of the one at eps/50 (1.092 against 1.095 and
    # 9.073 against 9.077, SE 0.42 and 3.2)
    n, eps = 2500, 0.02
    def kurtosis(ratio):
        return exact.quadratic_form_kurtosis(exact.he2_trapezoid_spectrum(H, 1.0, eps, ratio), n)

    ratio = exact.resolve_dt_ratio(He2, H, 1.0, [eps], n)[0]["dt_ratio"]
    (_, kurt, _), (_, fine, se) = kurtosis(ratio), kurtosis(50.0)
    assert ratio < fou.MIN_STEPS_PER_EPS
    assert abs(kurt - fine) <= 0.1 * se


@pytest.mark.parametrize("H, eps, ratio", [(0.6, 0.05, 10.0), (0.85, 0.1, 23.5),
                                           (0.3, 0.2, 50.0)])
def test_he2_spectrum_is_the_trapezoid_quadratic_form(H, eps, ratio):
    lam = exact.he2_trapezoid_spectrum(H, 1.0, eps, ratio)
    assert 2.0 * np.sum(lam**2) == pytest.approx(
        exact.trapezoid_variance(He2, H, 1.0, eps, ratio), rel=1e-12)
    grid = TimeGrid.with_step(1.0, eps / ratio)
    sw = np.full(grid.n_steps + 1, np.sqrt(grid.dt))
    sw[[0, -1]] *= np.sqrt(0.5)
    M = sw[:, None] * toeplitz(fou.rho(np.arange(grid.n_steps + 1) * grid.dt / eps, H)) * sw
    M2 = M @ M
    kappa, kurt, _ = exact.quadratic_form_kurtosis(lam, 100)
    assert kurt == pytest.approx(12.0 * np.sum(M2 * M2) / np.sum(M * M) ** 2, rel=1e-10)
    assert kappa[3] == pytest.approx(8.0 * np.trace(M2 @ M), rel=1e-10)


def test_one_eigenvalue_gives_the_chi_square_central_moments():
    # u = e^2 - 1: E u^n = sum_j C(n, j) (-1)^{n-j} (2j - 1)!!
    kappa, kurt, _ = exact.quadratic_form_kurtosis([1.0], 100)
    closed = [sum(math.comb(n, j) * (-1) ** (n - j) * math.prod(range(1, 2 * j, 2))
                  for j in range(n + 1)) for n in range(9)]
    np.testing.assert_allclose(exact._central_moments(kappa), closed, rtol=1e-14)
    assert closed[:5] == [1, 0, 2, 8, 60] and kurt == pytest.approx(12.0, rel=1e-14)


def test_kurtosis_se_of_many_equal_eigenvalues_tends_to_the_gaussian_one():
    # N equal terms: excess kurtosis 12 / N, and the SE tends to sqrt(24 / n)
    for n in (100, 10_000):
        _, kurt, se = exact.quadratic_form_kurtosis(np.full(10**6, 0.3), n)
        assert kurt == pytest.approx(12e-6, rel=1e-9)
        assert se == pytest.approx(math.sqrt(24.0 / n), rel=1e-4)


def test_kurtosis_se_is_the_expected_square_of_the_influence_function():
    # IF = u^4 - mu_4 - 4 mu_3 u - 2 mu_4 (u^2 - 1) at unit variance: E[IF^2]
    # as the moments of the squared polynomial
    lam = 1.0 / np.arange(1, 21)
    kappa, _, se = exact.quadratic_form_kurtosis(lam, 1)
    mu = exact._central_moments(kappa / kappa[2] ** (np.arange(9) / 2.0))
    IF = np.array([mu[4], -4.0 * mu[3], -2.0 * mu[4], 0.0, 1.0])
    IF_sq = np.polynomial.polynomial.polymul(IF, IF)
    assert se == pytest.approx(math.sqrt(IF_sq @ mu), rel=1e-12)


def test_kurtosis_se_matches_the_spread_of_sample_kurtoses():
    # excess kurtosis 0.96, as criterion 6's integrals have at n = 2500: the
    # asymptotic SE is at most slightly wide there (the sd of 400 estimates
    # read 0.84-0.97 of it at three seeds)
    lam = 1.0 / np.sqrt(np.arange(1, 51))
    n = 2500
    rng = np.random.default_rng(12)
    kurts = [harness.excess_kurtosis_with_se((e * e - 1.0) @ lam)[0]
             for e in (rng.standard_normal((n, len(lam))) for _ in range(400))]
    _, kurt_exact, se = exact.quadratic_form_kurtosis(lam, n)
    assert 0.75 * se < np.std(kurts) < 1.1 * se
    assert abs(np.mean(kurts) - kurt_exact) < 4.0 * se / math.sqrt(len(kurts))


def test_trapezoid_variance_refuses_a_grid_beyond_the_embedding_cap(monkeypatch):
    # such a grid can never be sampled; it is refused before rho is evaluated
    # or any array of its length is allocated
    monkeypatch.setattr(fgn, "MAX_EMBEDDING_LAGS", 1000)
    assert exact.trapezoid_variance(He2, 0.6, 1.0, 0.1, 100.0) > 0  # 1000 steps
    monkeypatch.setattr(fou, "rho", lambda *args: pytest.fail("rho evaluated"))
    with pytest.raises(fgn.SamplerInfeasibleError,
                       match="1001 steps exceed the circulant embedding cap of 1000 lags"):
        exact.trapezoid_variance(He2, 0.6, 1.0, 0.1, 100.1)


@pytest.mark.parametrize("r", [0.5, 0.1, 0.01])
def test_chain_autocovariance_at_half_is_geometric(r):
    # at H = 1/2 the increments are white, so R(L) = r a^L / (1 - a^2)
    a = math.exp(-r)
    L = np.arange(int(5.0 / r))
    np.testing.assert_allclose(exact.kinetic_chain_autocovariance(0.5, r, len(L)),
                               r * a**L / (1.0 - a * a), rtol=0, atol=1e-14)


@pytest.mark.parametrize("H", [0.05, 0.3, 0.7, 0.95])
def test_chain_autocovariance_is_the_filtered_fgn_covariance(H):
    # y = F dB with F lower-triangular Toeplitz in a^k: Cov(y) = F Gamma F^T,
    # whose last row, 600 steps after a zero start, is the stationary R
    r, n = 0.1, 600
    a = math.exp(-r)
    F = np.tril(toeplitz(a ** np.arange(n)))
    cov = F @ toeplitz(fgn.fgn_autocovariance(np.arange(n), H)) @ F.T * r ** (2 * H)
    R = exact.kinetic_chain_autocovariance(H, r, 100)
    np.testing.assert_allclose(cov[-1, -1 : -101 : -1], R, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("H", [0.01, 0.3, 0.5, 0.7, 0.99])
def test_chain_increments_have_the_fgn_covariance(H):
    # the kinetic scan draws its unit-rate chain y from R and takes its fGN as
    # dt^H dB_k = y_k - a y_{k-1}, whose covariance (1 + a^2) R(L) - a (R(L - 1)
    # + R(L + 1)) must be dt^{2H} gamma_H(L) (1.1e-15 to 1.4e-13 of the variance)
    dt = 1.0 / fou.MIN_STEPS_PER_EPS
    a = math.exp(-dt)
    L = np.arange(2001)
    R = exact.kinetic_chain_autocovariance(H, dt, len(L) + 1)
    below = np.concatenate([[R[1]], R[:-2]])  # R(L - 1), R(-1) = R(1)
    inc = (1.0 + a * a) * R[:-1] - a * (below + R[1:])
    ref = dt ** (2 * H) * fgn.fgn_autocovariance(L, H)
    np.testing.assert_allclose(inc, ref, rtol=0, atol=1e-12 * ref[0])


@pytest.mark.parametrize("H", [0.05, 0.3, 0.7, 0.95])
def test_chain_autocovariance_tends_to_the_fou_covariance(H):
    # as r -> 0 the chain is the fOU of unit gain, whose variance is H Gamma(2H):
    # R(L) -> H Gamma(2H) rho(L r), at first order in r
    var = H * math.gamma(2 * H)
    for r in (1e-2, 1e-3):
        L = np.arange(int(5.0 / r))
        err = exact.kinetic_chain_autocovariance(H, r, len(L)) - var * fou.rho(L * r, H)
        assert np.max(np.abs(err)) < 1.1 * r * var


@pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_kinetic_exact_slope_is_the_same_at_ten_and_a_hundred_steps_per_eps(H):
    # the finer grid raises the level by a nearly constant factor, not the slope
    eps_list = [0.1, 0.05, 0.02, 0.01]
    times = TimeGrid(1.0, 50).times()
    errs = [exact.kinetic_sup_errors(H, eps_list, times, ratio)[1] for ratio in (10.0, 100.0)]
    slopes = [exact.loglog_slope(eps_list, e) for e in errs]
    assert abs(slopes[0] - slopes[1]) <= 1e-3
    assert np.all((errs[0] / errs[1] > 1.0) & (errs[0] / errs[1] < 1.05))


def _dense_reading_covariance(H, eps, times, dt_ratio):
    """Cov of the scan's eps v readings from one (2n)^2 gather of R between
    (n, 2n) reading matrices, as a reference."""
    lo, w = exact.reading_weights(times, eps / dt_ratio)
    points = np.concatenate([lo, lo + 1])
    R = exact.kinetic_chain_autocovariance(H, 1.0 / dt_ratio, int(points.max()) + 1)
    read = np.hstack([np.diag(1.0 - w), np.diag(w)])
    scale = fou.stationary_sigma(H) ** 2 * eps ** (2.0 * H)
    return scale * (read @ R[np.abs(points[:, None] - points[None, :])] @ read.T)


def _dense_pair_errors(H, eps_list, times, dt_ratio):
    """sqrt(E(d_j - d_k)^2) over all pairs (j, k), one matrix per eps, from the
    dense covariance, as a reference."""
    out = []
    for e in eps_list:
        C = _dense_reading_covariance(H, e, times, dt_ratio)
        d = np.diag(C)
        out.append(np.sqrt(np.maximum(d[:, None] + d[None, :] - 2.0 * C, 0.0)))
    return out


@pytest.mark.parametrize("n", [2, 3, 8, 51])
@pytest.mark.parametrize("rows_per_block", [1, 3, 1000])
def test_sup_over_pairs_is_the_dense_max_and_its_first_pair(n, rows_per_block, monkeypatch):
    # one block, several, and a partial last one; the last two columns are
    # equal, so the maximum falls on tied pairs (j, n - 2) and (j, n - 1)
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 8 * n * rows_per_block)
    d = np.random.default_rng(n).standard_normal((40, n))
    d[:, -1] += 10.0
    if n > 2:
        d[:, -2] = d[:, -1]
    M = d.T @ d / len(d)
    m = np.diag(M).copy()
    sq = m[:, None] + m[None, :] - 2.0 * M
    sq[np.tril_indices(n)] = -np.inf
    best, pair = exact.sup_over_pairs(m, lambda J: M[J])
    assert best == sq.max()
    assert pair == np.unravel_index(np.argmax(sq), sq.shape)


@pytest.mark.parametrize("H", [0.3, 0.7])
@pytest.mark.parametrize("eps_list", [[0.1, 0.05, 0.02, 0.01], [0.1, 0.05, 0.02],
                                      [0.1, 0.03, 0.01]])
def test_kinetic_sup_errors_take_one_chain_covariance_for_every_eps(H, eps_list, monkeypatch):
    # the kinetic-scan lists of the limit_eqs benchmark on the scan's grid: one
    # R, out to the finest eps's lags, against one R per eps (each eps alone)
    lags = []
    chain = exact.kinetic_chain_autocovariance

    def spy(H, r, n_lags):
        lags.append(n_lags)
        return chain(H, r, n_lags)

    monkeypatch.setattr(exact, "kinetic_chain_autocovariance", spy)
    times = TimeGrid(1.0, 50).times()
    pairs, shared = exact.kinetic_sup_errors(H, eps_list, times, fou.MIN_STEPS_PER_EPS)
    assert lags == [int(round(fou.MIN_STEPS_PER_EPS / eps_list[-1])) + 2]
    each = [exact.kinetic_sup_errors(H, [e], times, fou.MIN_STEPS_PER_EPS) for e in eps_list]
    np.testing.assert_allclose(shared, [err[0] for _, err in each], rtol=1e-14, atol=0)
    assert pairs == [pair[0] for pair, _ in each]


@pytest.mark.parametrize("H", [0.3, 0.7])
@pytest.mark.parametrize("n_report, eps_list", [
    (1, [0.1, 0.05, 0.02, 0.01]), (7, [0.1, 0.05, 0.02, 0.01]),
    (50, [0.1, 0.05, 0.02, 0.01]), (50, [0.07, 0.05, 0.03])])
def test_kinetic_sup_errors_equal_the_dense_form(H, n_report, eps_list, monkeypatch):
    # three rows a block: several blocks and, but at n_report 1, a partial last one
    times = TimeGrid(1.0, n_report).times()
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 8 * 3 * len(times))
    idx = np.arange(len(times))
    for e, cov in zip(eps_list, exact._kinetic_reading_covariances(H, eps_list, times, 10.0)):
        np.testing.assert_allclose(cov(idx[:, None], idx),
                                   _dense_reading_covariance(H, e, times, 10.0),
                                   rtol=1e-12, atol=0)
    pairs, errs = exact.kinetic_sup_errors(H, eps_list, times, 10.0)
    dense = _dense_pair_errors(H, eps_list, times, 10.0)
    np.testing.assert_allclose(errs, [e.max() for e in dense], rtol=1e-12, atol=0)
    # each pair is one where the dense errors reach their max
    assert all(j < k for j, k in pairs)
    np.testing.assert_allclose([e[pair] for e, pair in zip(dense, pairs)], errs,
                               rtol=1e-12, atol=0)
