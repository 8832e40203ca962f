import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import engine_covariance
from foulim import fgn, fou, harness
from foulim.paths import TimeGrid
from foulim.streams import keys

SIGMA_075 = 1.2265828778062045  # frozen from the double-integral oracle


def sigma_oracle(H):
    """Independent oracle: stationary variance by the covariance double integral.

    Var = H(2H-1) int_0^inf int_0^inf e^{-u-v}|u-v|^{2H-2} du dv (H > 1/2).
    """

    def inner(u):
        f = lambda v: np.exp(-v) * abs(u - v) ** (2 * H - 2)
        a, _ = integrate.quad(f, 0, u, points=[u], limit=200)
        b, _ = integrate.quad(f, u, np.inf, limit=200)
        return a + b

    val, _ = integrate.quad(lambda u: np.exp(-u) * inner(u), 0, np.inf, limit=200)
    return 1.0 / np.sqrt(H * (2 * H - 1) * val)


def rho_double_integral_oracle(s, H):
    """Covariance route for H > 1/2.

    rho(s) = sigma^2 H(2H-1) int_0^inf int_0^inf e^{-u-v} |s+v-u|^{2H-2} du dv
    (u, v the times-to-past of the two exponential kernels).
    """
    sig2 = fou.stationary_sigma(H) ** 2

    def inner(u):
        f = lambda v: np.exp(-v) * abs(s + v - u) ** (2 * H - 2)
        brk = u - s
        if brk > 0:
            a, _ = integrate.quad(f, 0, brk, points=[brk], limit=200)
            b, _ = integrate.quad(f, brk, np.inf, limit=200)
            return a + b
        v, _ = integrate.quad(f, 0, np.inf, limit=200)
        return v

    val, _ = integrate.quad(lambda u: np.exp(-u) * inner(u), 0, np.inf, limit=200)
    return sig2 * H * (2 * H - 1) * val


def rho_spectral_oracle(s, H):
    """Spectral route, valid on both sides of H = 1/2.

    rho(s) = (2 sin(pi H) / pi) int_0^inf cos(s x) x^{1-2H} / (1 + x^2) dx:
    the substitution x = u^{1/(2-2H)} absorbs the power on [0, 1], and
    the oscillatory tail uses the Fourier-weight rule (so s >= 0.25).
    """
    q = 2.0 - 2.0 * H
    near, _ = integrate.quad(
        lambda u: np.cos(s * u ** (1.0 / q)) / (1.0 + u ** (2.0 / q)) / q,
        0.0, 1.0, epsabs=1e-12, limit=200,
    )
    far, _ = integrate.quad(
        lambda x: x ** (1.0 - 2.0 * H) / (1.0 + x * x), 1.0, np.inf,
        weight="cos", wvar=s, epsabs=1e-12, limit=400,
    )
    return 2.0 * np.sin(np.pi * H) / np.pi * (near + far)


def rho_mpmath(s, H):
    """Closed-form rho in 40-digit arithmetic (no series switch).

    rho(s) = [(e^{-s} G + s^{2H+1}/(2H+1) 1F1(1; 2H+2; -s) + e^s Gamma(2H+1, s)) / 2
              - s^{2H}] / G,  G = Gamma(2H+1).
    """
    if s == 0.0:
        return mpmath.mpf(1)
    with mpmath.workdps(40):
        s, h = mpmath.mpf(s), mpmath.mpf(H)
        g = mpmath.gamma(2 * h + 1)
        a = (mpmath.exp(-s) * g
             + s ** (2 * h + 1) / (2 * h + 1) * mpmath.hyp1f1(1, 2 * h + 2, -s)
             + mpmath.exp(s) * mpmath.gammainc(2 * h + 1, s))
        return (a / 2 - s ** (2 * h)) / g


def rho_power_integral_mpmath(m, H):
    """int_0^inf rho^m by tanh-sinh quadrature of the 20-digit closed form.

    The closed form is integrated up to s = 200 and the asymptotic series,
    with twenty terms, beyond; there its truncation error is below 1e-40.
    """
    with mpmath.workdps(20):
        h = mpmath.mpf(H)

        def series(s):
            term, total = mpmath.mpf(1), mpmath.mpf(0)
            for k in range(1, 21):
                term *= (2 * h - 2 * k + 2) * (2 * h - 2 * k + 1)
                total += term * s ** (2 * h - 2 * k)
            return total / mpmath.gamma(2 * h + 1)

        head = mpmath.quad(lambda s: rho_mpmath(s, H) ** m,
                           [0, 1e-6, 0.01, 0.1, 1, 3, 10, 30, 100, 200])
        tail = mpmath.quad(lambda s: series(s) ** m, [200, 1000, mpmath.inf])
        return float(head + tail)


def test_stationary_sigma_classical_case():
    assert fou.stationary_sigma(0.5) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_stationary_sigma_matches_scipy_and_stays_finite_as_h_vanishes():
    from scipy import special

    H = np.linspace(0.001, 0.999, 999)
    sigma = np.array([fou.stationary_sigma(h) for h in H])
    assert np.max(np.abs(sigma * np.sqrt(H * special.gamma(2.0 * H)) - 1.0)) <= 4e-15
    assert fou.stationary_sigma(0.5) == np.sqrt(2.0)
    # H Gamma(2H) overflows to H * inf below H ~ 2.8e-309; sigma tends to sqrt(2)
    for h in (1e-300, 1e-309, 5e-324):
        assert fou.stationary_sigma(h) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_stationary_sigma_against_quadrature_oracle():
    assert fou.stationary_sigma(0.75) == pytest.approx(SIGMA_075, rel=1e-12)
    for H in (0.6, 0.75, 0.9):
        assert fou.stationary_sigma(H) == pytest.approx(sigma_oracle(H), abs=1e-6)


def test_rho_at_zero_and_symmetry():
    assert fou.rho(0.0, 0.7) == 1.0
    s = np.array([-2.0, 2.0])
    vals = fou.rho(s, 0.7)
    assert vals[0] == vals[1]


def test_rho_classical_ou_is_exponential():
    for s in (0.5, 1.0, 3.0):
        assert fou.rho(s, 0.5) == pytest.approx(np.exp(-s), abs=1e-8)


def test_rho_against_double_integral_oracle():
    # spectral route vs the H > 1/2 covariance route
    for H in (0.7, 0.85):
        for s in (0.5, 2.0, 10.0):
            assert fou.rho(s, H) == pytest.approx(
                rho_double_integral_oracle(s, H), abs=2e-6
            )


def test_rho_against_spectral_oracle():
    for H in (0.2, 0.4, 0.7, 0.9):
        for s in (0.5, 2.0, 10.0, 40.0):
            assert fou.rho(s, H) == pytest.approx(rho_spectral_oracle(s, H), abs=1e-9)


@pytest.mark.parametrize("H", [0.05, 0.3, 0.5, 0.7, 0.95, 0.99])
def test_rho_against_mpmath_closed_form(H):
    # lags on both sides of the series switch at s = 30
    s = np.concatenate([[0.0, 1e-8], np.geomspace(1e-4, 29.9, 30),
                        [30.0, 30.1], np.geomspace(31.0, 1000.0, 15)])
    ref = np.array([float(rho_mpmath(v, H)) for v in s])
    assert np.max(np.abs(fou.rho(s, H) - ref)) <= 1e-12
    if H == 0.5:
        np.testing.assert_array_equal(fou.rho(s, H), np.exp(-s))


@pytest.mark.parametrize("H", [0.01, 0.05, 0.2, 0.3, 0.49, 0.51, 0.7, 0.8, 0.95, 0.99])
def test_rho_small_lag_series_against_mpmath(H):
    # lags on both sides of the switch from the small-lag series to the closed form at
    # s = 1: the series is within 1e-15 up to it, the closed form within 7e-15 beyond
    below = np.concatenate([[1e-12, 1e-6], np.geomspace(1e-4, 0.9, 25),
                            np.linspace(0.9, 1.0, 11)[:-1], [np.nextafter(1.0, 0.0)]])
    above = np.concatenate([[1.0, np.nextafter(1.0, 2.0)], np.linspace(1.01, 1.1, 10),
                            np.geomspace(1.1, 3.0, 10)])
    for s, tol in ((below, 1e-15), (above, 1e-14)):
        ref = np.array([float(rho_mpmath(v, H)) for v in s])
        assert np.max(np.abs(fou.rho(s, H) - ref)) <= tol


def test_rho_keeps_zero_nan_and_infinite_lags():
    for H in (0.05, 0.3, 0.5, 0.7, 0.95):
        assert fou.rho(0.0, H) == 1.0
        out = fou.rho(np.array([np.nan, np.inf, -np.inf, 0.0]), H)
        assert np.isnan(out[0])
        np.testing.assert_array_equal(out[1:], [0.0, 0.0, 1.0])


def test_rho_decay_slope():
    s = np.geomspace(10.0, 100.0, 15)
    r = fou.rho(s, 0.75)
    slope = np.polyfit(np.log(s), np.log(r), 1)[0]
    assert slope == pytest.approx(2 * 0.75 - 2, abs=0.05)


def test_rho_bounded_by_power_envelope():
    H = 0.8
    s = np.concatenate([np.linspace(0.0, 1.0, 11), np.geomspace(1.0, 200.0, 20)])
    r = fou.rho(s, H)
    assert np.all(np.abs(r) <= 1.0 + 1e-12)
    env = np.minimum(1.0, s[1:] ** (2 * H - 2))
    C = np.max(np.abs(r[1:]) / env)
    assert C < 1.5  # fitted envelope constant stays O(1)


def test_rho_power_integral_degenerate_H04():
    assert abs(fou.rho_power_integral([1], 0.4)[0]) < 0.01


def test_rho_power_integral_m2_oracle_and_stability():
    # independent oracle: Simpson rule on a different grid + asymptotic tail
    H, m = 0.6, 2
    (val,) = fou.rho_power_integral([m], H)
    assert val > 0
    grid = np.concatenate([np.linspace(0, 20, 1601), np.geomspace(20, 800, 401)[1:]])
    vals = fou.rho(grid, H) ** m
    head = integrate.simpson(vals, x=grid)
    D = fou.rho_asymptote_constant(H)
    tail = D**m * 800.0 ** (m * (2 * H - 2) + 1) / -(m * (2 * H - 2) + 1)
    assert val == pytest.approx(head + tail, rel=0.01)
    for s_max in (500.0, 2000.0):
        assert fou.rho_power_integral([m], H, s_max)[0] == pytest.approx(val, rel=0.01)


@pytest.mark.parametrize("m, H", [(2, 0.6), (3, 0.7)])
def test_rho_power_integral_against_mpmath(m, H):
    assert fou.rho_power_integral([m], H)[0] == pytest.approx(
        rho_power_integral_mpmath(m, H), rel=1e-8
    )


def test_rho_integral_vanishes_below_half():
    # the spectral density |x|^{1-2H}/(1+x^2) vanishes at 0 for H < 1/2
    for H in np.linspace(0.05, 0.45, 9):
        assert abs(fou.rho_power_integral([1], H)[0]) <= 1e-6


def test_rho_power_integral_needs_the_series_range():
    with pytest.raises(ValueError, match="s_max"):
        fou.rho_power_integral([2], 0.6, s_max=10.0)


def test_rho_power_integral_divergent_regime_raises():
    with pytest.raises(ValueError, match="divergent"):
        fou.rho_power_integral([3], 0.9)
    with pytest.raises(ValueError, match="divergent"):
        fou.rho_power_integral([2], 0.75)  # H*(2) = 1/2 exactly
    with pytest.raises(ValueError, match="divergent"):
        fou.rho_power_integral([4, 2], 0.75)  # one divergent order refuses the batch


def test_rho_power_integral_takes_every_order_from_one_rho_pass(monkeypatch):
    # orders 1 and 3 at H 0.4: each integral as the order alone gives it, bit for bit
    alone = [fou.rho_power_integral([m], 0.4)[0] for m in (1, 3)]
    calls = []
    rho = fou.rho
    monkeypatch.setattr(fou, "rho", lambda s, H: calls.append(np.size(s)) or rho(s, H))
    np.testing.assert_array_equal(fou.rho_power_integral([1, 3], 0.4), alone)
    assert len(calls) == 1
    np.testing.assert_array_equal(fou.rho_power_integral([1, 2, 3], 0.5), [1.0, 0.5, 1.0 / 3.0])
    with pytest.raises(ValueError, match=">= 1"):
        fou.rho_power_integral([0, 1], 0.4)


def test_double_integral_rescaling_identity():
    # int_0^t int_0^t |rho^eps|^m = eps^2 int_0^{t/eps} int_0^{t/eps} |rho|^m
    H, m, t, eps = 0.7, 2, 0.5, 0.1
    u = np.linspace(0, t, 161)
    r_eps = np.abs(fou.rho(np.abs(u[:, None] - u[None, :]) / eps, H)) ** m
    lhs = np.trapezoid(np.trapezoid(r_eps, u, axis=0), u)
    w = np.linspace(0, t / eps, 161)
    r = np.abs(fou.rho(np.abs(w[:, None] - w[None, :]), H)) ** m
    rhs = eps**2 * np.trapezoid(np.trapezoid(r, w, axis=0), w)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_sample_fou_stationary_variance_and_law():
    H, eps = 0.7, 0.1
    grid = TimeGrid(0.05, 100)  # dt = eps/200
    y = fou.path_sampler(grid, H, eps).batch(keys(21, "sv", 0, 10_000))
    endpoint = y[:, -1]
    assert endpoint.var() == pytest.approx(1.0, abs=0.03)
    from scipy import stats

    ks = stats.kstest(endpoint, "norm")
    assert ks.pvalue > 0.01


def test_sample_fou_classical_autocorrelation():
    # eps = 1, H = 1/2: Markov OU, autocorrelation e^{-s} at s = 1
    grid = TimeGrid(2.0, 200)
    y = fou.path_sampler(grid, 0.5, 1.0).batch(keys(5, "ou", 0, 8000))
    k = int(round(1.0 / grid.dt))
    c = np.mean(y[:, 100] * y[:, 100 + k]) / np.mean(y[:, 100] ** 2)
    assert c == pytest.approx(np.exp(-1.0), abs=0.02)


def test_sample_fou_matches_rho_at_scale_eps():
    H, eps = 0.75, 0.1
    grid = TimeGrid(0.3, 600)  # dt = eps/200
    y = fou.path_sampler(grid, H, eps).batch(keys(77, "ac", 0, 4000))
    for lag_time in (0.05, 0.1):
        k = int(round(lag_time / grid.dt))
        emp = np.mean(y[:, 200] * y[:, 200 + k])
        assert emp == pytest.approx(fou.rho(lag_time / eps, H), abs=0.05)


def test_sample_fou_holder_diagnostic():
    H, eps = 0.7, 0.1
    grid = TimeGrid(0.2, 400)
    y = fou.path_sampler(grid, H, eps).batch(keys(31, "hold", 0, 2000))
    lags = np.array([1, 2, 4, 8])
    mom = [np.sqrt(np.mean((y[:, 50 + k] - y[:, 50]) ** 2)) for k in lags]
    slope = np.polyfit(np.log(lags * grid.dt), np.log(mom), 1)[0]
    assert slope == pytest.approx(H, abs=0.1)


def test_sample_fou_draws_a_coarse_grid():
    # dt = 0.02 > eps/10: the sampler draws the exact law there, rho at lags
    # of dt / eps = 0.2; no grid is refused for its resolution
    grid = TimeGrid(1.0, 50)
    assert fou.path_sampler(grid, 0.7, 0.1).batch(keys(5, "coarse", 0, 2)).shape == (2, 51)
    cov = engine_covariance(lambda k: fou.rho(k * 0.2, 0.7), 50)
    lags = np.abs(np.subtract.outer(np.arange(51), np.arange(51)))
    np.testing.assert_allclose(cov, fou.rho(lags * 0.2, 0.7), rtol=0, atol=1e-12)


def test_fou_config_validation():
    grid = TimeGrid(1.0, 50)
    with pytest.raises(ValueError, match="eps must lie"):
        fou.path_sampler(grid, 0.7, 1.5)
    with pytest.raises(ValueError, match="Hurst parameter"):
        fou.path_sampler(grid, 1.2, 0.5)


def implied_autocovariance(H, step, n):
    """Autocovariance on lags 0..n of the circulant the fOU sampler draws from.

    The first n + 1 entries of ifft(lambda), lambda the (clipped)
    eigenvalues of the embedding the engine settles on.
    """
    m, lam = fgn._embedding_eigenvalues(lambda k: fou.rho(k * step, H), n)
    return m, np.fft.ifft(lam).real[: n + 1]


@pytest.mark.parametrize("H, step, n, padded", [
    (0.3, 1 / 2, 1000, False),
    (0.3, 1 / 10, 1000, False),
    (0.85, 1 / 2, 500, False),
    (0.7, 1 / 50, 2000, False),
    (0.85, 1 / 50, 100, True),
    (0.85, 1 / 50, 500, True),
    (0.95, 1 / 100, 5000, True),
    (0.99, 1 / 200, 2, True),
])
def test_fou_embedding_reproduces_rho(H, step, n, padded):
    m, acov = implied_autocovariance(H, step, n)
    assert (m > n) == padded
    np.testing.assert_allclose(acov, fou.rho(np.arange(n + 1) * step, H), rtol=0, atol=1e-12)


@pytest.mark.parametrize("H", [0.3, 0.6, 0.85])
@pytest.mark.parametrize("step", [1 / 10, 1 / 50, 1 / 100])
def test_fou_sampler_covariance_is_exact(H, step):
    # at H = 0.85 the embedding is doubled once (step 1/50) and twice (1/100)
    n = 500
    lags = np.arange(n + 1)
    cov = engine_covariance(lambda k: fou.rho(k * step, H), n)
    exact = fou.rho((lags[:, None] - lags[None, :]) * step, H)
    np.testing.assert_allclose(cov, exact, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(H=st.floats(0.01, 0.99), inv_step=st.floats(2.0, 200.0), n=st.integers(1, 5000))
def test_fou_embedding_reproduces_rho_property(H, inv_step, n):
    step = 1.0 / inv_step
    _, acov = implied_autocovariance(H, step, n)
    np.testing.assert_allclose(acov, fou.rho(np.arange(n + 1) * step, H), rtol=0, atol=1e-12)


def test_sample_fou_rows_do_not_depend_on_batching():
    sampler = fou.path_sampler(TimeGrid(0.02, 100), 0.85, 0.01)  # a padded embedding
    whole = sampler.batch(keys(3, "batch", 0, 5))
    parts = [sampler.batch(keys(3, "batch", 0, 2)), sampler.batch(keys(3, "batch", 2, 3))]
    np.testing.assert_array_equal(whole, np.concatenate(parts))
    single = sampler.batch(keys(3, "batch", 4))
    np.testing.assert_array_equal(whole[4:], single)
    # the same rows in run_replicated's chunks of 2, on 1 and 2 workers
    for threads in (1, 2):
        np.testing.assert_array_equal(
            harness.run_replicated(5, 3, "batch", sampler.batch, threads, chunk_size=2), whole)


def test_sample_fou_centred_he2_at_coarse_resolution():
    # dt = eps/10, and eps/2, the coarsest rung of exact.DT_RATIO_LADDER
    eps = 0.1
    for grid, H in itertools.product((TimeGrid(0.1, 10), TimeGrid(0.1, 2)), (0.3, 0.85)):
        y = fou.path_sampler(grid, H, eps).batch(keys(41, "he2", 0, 8000))
        he2 = y[:, -1] ** 2 - 1.0
        se = he2.std(ddof=1) / np.sqrt(len(he2))
        assert abs(he2.mean()) < 3.0 * se
