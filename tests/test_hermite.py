import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from foulim import fgn, fou, hermite
from foulim.hermite import HermiteSpec
from foulim.paths import TimeGrid
from foulim.streams import stream


def test_ghat_isometry_unit_variance():
    # int_0^inf ghat^2 = 1 is the Wiener-isometry image of Var(y) = 1
    for H in (0.65, 0.8):
        val, err = integrate.quad(lambda v: hermite.ghat(v, H) ** 2, 0, np.inf,
                                  limit=400)
        assert val == pytest.approx(1.0, abs=5e-4)


def test_ghat_tail_slope():
    H = 0.75
    v1, v2 = 50.0, 500.0
    slope = (np.log(hermite.ghat(v2, H)) - np.log(hermite.ghat(v1, H))) / (
        np.log(v2) - np.log(v1)
    )
    assert slope == pytest.approx(H - 1.5, abs=0.05)


def test_ghat_matches_40_digit_oracle():
    # C(H) v^q/q 1F1(1; q+1; -v), q = H - 1/2, at 40 digits on {0} and
    # [1e-14, 1e7], with points on both sides of the switch at v = 700;
    # H near 1/2 is where a float q + 1 loses the tail (q + 1 - 1)/v
    v = np.concatenate([np.geomspace(1e-14, 1e7, 120),
                        [1.0, 39.9, 40.5, 699.999, 700.0, 700.001]])
    with mpmath.workdps(40):
        for H in (0.500001, 0.501, 0.6, 0.99, 0.999999):
            q = mpmath.mpf(H) - mpmath.mpf(1) / 2
            oracle = fou.kernel_amplitude(H) * np.array(
                [float(mpmath.mpf(x) ** q / q * mpmath.hyp1f1(1, q + 1, -mpmath.mpf(x)))
                 for x in v])
            np.testing.assert_allclose(hermite.ghat(v, H), oracle, rtol=1e-10, atol=0)
            assert hermite.ghat(0.0, H) == 0.0


def test_ghat_requires_long_memory_H():
    with pytest.raises(ValueError):
        hermite.ghat(1.0, 0.4)


def test_h_eps_kernel_zero_for_future_and_isometry():
    # h_eps(t, s) = eps^{-1/2} ghat((t - s)/eps) vanishes for s > t, and
    # int_R h_eps(t, s)^2 ds = int_0^inf ghat^2 = 1 at any eps
    assert hermite.ghat(-5.0, 0.7) == 0.0
    eps, H = 0.1, 0.7
    val, _ = integrate.quad(
        lambda s: (hermite.ghat((2.0 - s) / eps, H) / np.sqrt(eps)) ** 2, -np.inf, 2.0,
        limit=400,
    )
    assert val == pytest.approx(1.0, abs=1e-3)


def test_fou_from_kernel_variance_autocorr_and_law():
    H, eps = 0.8, 0.02
    n_xi = 24_000
    window = 40.0
    grid = TimeGrid(0.2, 100)
    times = grid.times()
    edges = np.linspace(-window, grid.horizon, n_xi + 1)
    dxi = edges[1] - edges[0]
    mids = 0.5 * (edges[:-1] + edges[1:])
    Mk = hermite.ghat((times[:, None] - mids[None, :]) / eps, H) / np.sqrt(eps)
    vals = np.empty((3000, len(times)))
    for i in range(0, 3000, 500):
        W = np.stack([
            stream(5, "fk", i + k).standard_normal(n_xi) for k in range(500)
        ]) * np.sqrt(dxi)
        vals[i : i + 500] = W @ Mk.T
    var = vals[:, -1].var()
    assert var == pytest.approx(1.0, abs=0.03)
    # autocorrelation at lag 0.1: the Monte Carlo must match the exact
    # second moment of the discretized construction, which itself matches
    # rho(lag/eps) up to the analytic window-tail bound
    k = int(round(0.1 / grid.dt))
    emp = np.mean(vals[:, 0] * vals[:, k])
    disc = float((Mk[0] * Mk[k]).sum() * dxi)
    assert emp == pytest.approx(disc, abs=0.055)  # ~3 SE at N=3000
    C2 = fou.kernel_amplitude(H) ** 2
    V = window / eps
    tail = C2 * V ** (2 * H - 2) / (2 - 2 * H)
    assert abs(disc - fou.rho(0.1 / eps, H)) < tail + 0.01
    # the endpoint has the construction's exact law N(0, sum Mk[-1]^2 dxi)
    ks = stats.kstest(vals[:, -1], "norm", args=(0.0, np.sqrt((Mk[-1] ** 2).sum() * dxi)))
    assert ks.pvalue > 0.01


def test_hermite_m1_matches_fbm_law():
    grid = TimeGrid(1.0, 200)
    spec = HermiteSpec(0.7, 1, 100.0, 10_000)
    Z = hermite.hermite_ensemble(grid, spec, 3, 4000, "m1",
                                 report_idx=np.array([50, 100, 200]))
    tt = grid.times()[np.array([50, 100, 200])]
    emp = Z.T @ Z / len(Z)
    thr = fgn.fbm_covariance(tt[:, None], tt[None, :], 0.7)
    se = np.sqrt((np.outer(np.diag(thr), np.diag(thr)) + thr**2) / len(Z))
    assert np.max(np.abs(emp - thr) / se) < 5.0
    # two-sample KS against the circulant-embedding fBM endpoint
    rngs = [stream(3, "m1-fbm", i) for i in range(4000)]
    b = np.cumsum(fgn.sample_fgn_batch(grid.n_steps, grid.dt, 0.7, rngs), axis=1)
    ks = stats.ks_2samp(Z[:, -1], b[:, -1])
    assert ks.pvalue > 0.01


def test_hermite_m2_variance_and_covariance():
    grid = TimeGrid(1.0, 300)
    spec = HermiteSpec(0.7, 2, 40.0, 8000)
    idx = np.array([75, 150, 225, 300])
    Z = hermite.hermite_ensemble(grid, spec, 9, 10_000, "m2", idx)
    # the per-time normalization is exact in expectation; assert at 3 sigma
    # of the (heavy-tailed) variance estimator
    x = Z[:, -1]
    se_var = np.sqrt((np.mean(((x - x.mean()) ** 2 - x.var()) ** 2)) / len(x))
    assert abs(x.var() - 1.0) < 3 * se_var
    tt = grid.times()[idx]
    emp = Z.T @ Z / len(Z)
    thr = fgn.fbm_covariance(tt[:, None], tt[None, :], 0.7)
    se = np.sqrt((np.outer(np.diag(thr), np.diag(thr)) + thr**2) / len(Z))
    assert np.max(np.abs(emp - thr) / se) < 5.0


def test_exact_variance_identities_brute_force():
    # Gram-matrix prefix formulas vs direct enumeration of the discrete
    # off-diagonal second moments, small configuration, all orders
    rng = np.random.default_rng(4)
    n_s, n_xi, ds = 12, 40, 0.1
    A = rng.uniform(0.0, 1.0, size=(n_s, n_xi)) ** 2
    for m in (1, 2, 3):
        V = hermite._exact_variances(A, m, ds)
        # brute force at the final time
        T = np.zeros((n_xi,) * m)
        for s in range(n_s):
            outer = A[s]
            t = outer
            for _ in range(m - 1):
                t = np.multiply.outer(t, outer)
            T += ds * t
        idx = np.indices(T.shape)
        distinct = np.ones(T.shape, dtype=bool)
        for a in range(m):
            for b in range(a + 1, m):
                distinct &= idx[a] != idx[b]
        import math as _math

        brute = _math.factorial(m) * np.sum((T * distinct) ** 2)
        assert V[-1] == pytest.approx(brute, rel=1e-10)


def test_hermite_self_similarity_and_stationary_increments():
    grid = TimeGrid(1.0, 256)
    spec = HermiteSpec(0.75, 2, 40.0, 8000)
    idx = np.array([64, 128, 192, 256])
    Z = hermite.hermite_ensemble(grid, spec, 13, 8000, "ss", idx)
    var1 = Z[:, -1].var()
    for lam, col in ((2.0, 1), (4.0, 0)):
        scaled = lam**0.75 * Z[:, col]
        se = var1 * np.sqrt(2.0 / len(Z)) * 3  # generous: non-Gaussian spread
        assert abs(scaled.var() - var1) < 5 * se
    # increments over equal spans have equal variance
    d1 = Z[:, 1] - Z[:, 0]
    d2 = Z[:, 3] - Z[:, 2]
    se = d1.var() * np.sqrt(2.0 / len(Z)) * 3
    assert abs(d1.var() - d2.var()) < 5 * se


def test_chaos_orthogonality_across_orders():
    # Z^{H,2} and Z^{H',1} on the same noise are uncorrelated
    grid = TimeGrid(1.0, 200)
    spec2 = HermiteSpec(0.7, 2, 40.0, 6000)
    spec1 = HermiteSpec(0.8, 1, 40.0, 6000)
    n = 4000
    z2 = np.empty(n)
    z1 = np.empty(n)
    A2, s2 = hermite._sampler_arrays(grid, spec2)
    A1, s1 = hermite._sampler_arrays(grid, spec1)
    for i in range(0, n, 500):
        N = np.stack([
            stream(15, "orth", i + k).standard_normal(6000) for k in range(500)
        ])
        ser2 = hermite._offdiag_series(A2, 2, N)
        ser1 = hermite._offdiag_series(A1, 1, N)
        z2[i : i + 500] = ser2.sum(axis=1) * grid.dt * s2[-1]
        z1[i : i + 500] = ser1.sum(axis=1) * grid.dt * s1[-1]
    corr = np.mean(z2 * z1) / (z2.std() * z1.std())
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_truncation_bias_estimate_and_warning():
    spec = HermiteSpec(0.7, 2, 2.0, 500)
    bias = hermite.truncation_bias_estimate(spec, 1.0)
    assert bias > 0.25
    hermite._sampler_arrays.cache_clear()  # the warning fires when the kernel is built
    with pytest.warns(UserWarning, match="truncates"):
        hermite.hermite_ensemble(TimeGrid(1.0, 50), spec, 1, 2, "w")


def _window_tail_40_digits(p, a, T):
    """int_a^inf ((u+T)^p - u^p)^2/p^2 du by mpmath (at the working precision).

    Quadrature in log u up to max(a, 1000 T), and beyond it the binomial
    series of ((1+x)^p - 1)^2, x = T/u, integrated term by term.
    """
    U = max(a, 1000 * T)
    f = lambda u: (((u + T) ** p - u ** p) / p) ** 2
    head = 0
    if U > a:
        head = mpmath.quad(lambda s: mpmath.exp(s) * f(mpmath.exp(s)),
                           mpmath.linspace(mpmath.log(a), mpmath.log(U), 8))
    binom = [mpmath.binomial(p, j) for j in range(1, 41)]
    far = 0
    for k in range(2, 41):
        c = sum(binom[i - 1] * binom[k - i - 1] for i in range(1, k))
        far += c * T ** k * U ** (2 * p - k + 1) / (k - 2 * p - 1)
    return head + far / p ** 2


@pytest.mark.parametrize("H, m", [(0.7, 2), (0.85, 2), (0.9, 3)])
def test_truncation_bias_estimate_matches_40_digit_oracle(H, m):
    # m times the tail share of the kernel marginal beyond the window, capped
    # at 1; the whole marginal is int_0^T (v^p/p)^2 dv plus the tail from 0.
    # An adaptive rule on (-inf, -L) read 0.0199 at L = 1e5 and -3e-9 at 1e6
    # for H = 0.7, m = 2 (the oracle: 0.022805 and 0.011430)
    T = 1.0
    with mpmath.workdps(40):
        p = (mpmath.mpf(H) - 1) / m + mpmath.mpf(1) / 2
        full = (T ** (2 * p + 1) / (p * p * (2 * p + 1))
                + _window_tail_40_digits(p, mpmath.mpf("1e-30"), T))
        for L in (40.0, 1e4, 1e5, 1e6):
            oracle = min(1.0, float(m * _window_tail_40_digits(p, mpmath.mpf(L), T) / full))
            est = hermite.truncation_bias_estimate(HermiteSpec(H, m, L, 10), T)
            assert est == pytest.approx(oracle, rel=1e-6, abs=0)


def test_sample_hermite_errors():
    with pytest.raises(ValueError, match="order not supported"):
        HermiteSpec(0.7, 4, 50.0, 1000)


@pytest.mark.filterwarnings("error::UserWarning")
def test_hermite_values_deterministic_in_noise():
    # xi_window 40 stays below the sampler's 25% kernel-truncation warning
    grid = TimeGrid(1.0, 100)
    spec = HermiteSpec(0.7, 2, 40.0, 2000)
    every_step = np.arange(grid.n_steps + 1)
    hermite._sampler_arrays.cache_clear()
    a = hermite.hermite_ensemble(grid, spec, 8, 1, "det", every_step)
    b = hermite.hermite_ensemble(grid, spec, 8, 1, "det", every_step)
    np.testing.assert_array_equal(a, b)
    assert a[0, 0] == 0.0


@pytest.mark.filterwarnings("ignore:xi_window")
def test_hermite_ensemble_rows_agree_across_chunkings():
    # each row is a matrix product over the chunk, so its rounding moves
    # with the chunk size; the values agree to a few ulps, not bit for bit
    grid = TimeGrid(1.0, 100)
    every_step = np.arange(grid.n_steps + 1)
    for m in (1, 2, 3):
        spec = HermiteSpec(0.8, m, 40.0, 2000)
        whole = hermite.hermite_ensemble(grid, spec, 6, 5, "chunks", every_step)
        rows = np.concatenate([
            hermite.hermite_ensemble(grid, spec, 6, 1, "chunks", every_step, r)
            for r in range(5)
        ])
        split = np.concatenate([
            hermite.hermite_ensemble(grid, spec, 6, 2, "chunks", every_step, 0),
            hermite.hermite_ensemble(grid, spec, 6, 3, "chunks", every_step, 2),
        ])
        np.testing.assert_allclose(rows, whole, rtol=0, atol=1e-13)
        np.testing.assert_allclose(split, whole, rtol=0, atol=1e-13)
