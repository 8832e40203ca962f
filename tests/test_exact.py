"""Oracles for the exact finite-eps variances of ``foulim.exact``."""

import math

import numpy as np
import pytest
from scipy.linalg import toeplitz

from foulim import exact, fou, harness
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid
from foulim.streams import keys

He1 = ChaosFunction([0, 1])
He2 = ChaosFunction([0, 0, 1])
MIXED = ChaosFunction([0, 0.5, -1.0, 0.3])


def _chaos_covariance_by_loop(G, r):
    return sum(c**2 * math.factorial(k) * r**k for k, c in enumerate(G.coefficients))


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


@pytest.mark.parametrize("eps_list", [[0.1, 0.05, 0.02], [0.05, 0.02, 0.01]])
@pytest.mark.parametrize("G, H", MC_PAIRS, ids=["He2-0.6", "He2-0.75", "He1-0.8",
                                                "He2-0.85", "He3-0.7"])
def test_auto_ratio_is_ten_where_paths_are_smooth(G, H, eps_list):
    ratio, var, bias, met = exact.coarsest_dt_ratio(G, H, 1.0, eps_list,
                                                    exact.bias_budget(1200))
    assert ratio == 10.0 and met
    assert np.max(np.abs(bias)) < 1e-3
    assert var == pytest.approx([exact.trapezoid_variance(G, H, 1.0, e, 10.0)
                                 for e in eps_list], rel=1e-15)


def test_auto_ratio_refines_for_rough_paths_and_caps_at_400():
    budget = exact.bias_budget(1200)
    ratio, _, bias, met = exact.coarsest_dt_ratio(He2, 0.3, 1.0, [0.1, 0.05, 0.02], budget)
    assert ratio == 50.0 and met and np.all(bias > 0)
    below = exact.coarsest_dt_ratio(He2, 0.3, 1.0, [0.1, 0.05, 0.02], budget, (20.0,))
    assert not below[3] and np.max(below[2]) > budget
    ratio, _, bias, met = exact.coarsest_dt_ratio(He2, 0.05, 1.0, [0.1, 0.05, 0.02], budget)
    assert ratio == 400.0 and not met and np.min(bias) > budget


def test_auto_ratio_skips_a_grid_that_rounding_leaves_unresolved():
    # 1 / (0.03 / 10) = 333.3 rounds to 333 steps, dt = 0.003003 > eps / 10
    assert not fou._resolves(TimeGrid.with_step(1.0, 0.003).dt, 0.03)
    ratio, _, _, met = exact.coarsest_dt_ratio(He1, 0.8, 1.0, [0.1, 0.03, 0.01],
                                               exact.bias_budget(1200))
    assert ratio == 20.0 and met
