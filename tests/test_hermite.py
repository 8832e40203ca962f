import numpy as np
import pytest
from scipy import integrate, stats

from foulim import chaos, fgn, fou, hermite
from foulim.hermite import HermiteSpec, sample_shared_noise
from foulim.paths import TimeGrid
from foulim.streams import stream


def test_hermite_kernel_positive_part_and_symmetry():
    assert hermite.hermite_kernel(1.0, [0.5, 1.2], 0.7, 2) == 0.0
    a = hermite.hermite_kernel(1.0, [0.3, -0.6], 0.7, 2)
    b = hermite.hermite_kernel(1.0, [-0.6, 0.3], 0.7, 2)
    assert a == pytest.approx(b, rel=1e-14)
    # m = 1 exponent is H - 3/2
    H = 0.8
    v = hermite.hermite_kernel(1.0, [0.0], H, 1)
    assert v == pytest.approx(1.0 ** (H - 1.5))
    u = hermite.hermite_kernel(1.25, [0.25], H, 1)
    assert u == pytest.approx(1.0 ** (H - 1.5))


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


def test_ghat_continuous_at_asymptotic_switch():
    for H in (0.6, 0.9):
        lo = hermite.ghat(hermite._GHAT_ASYMPTOTIC_V - 1e-6, H)
        hi = hermite.ghat(hermite._GHAT_ASYMPTOTIC_V + 1e-6, H)
        assert lo == pytest.approx(hi, rel=1e-6)


def test_ghat_requires_long_memory_H():
    with pytest.raises(ValueError):
        hermite.ghat(1.0, 0.4)


def test_h_eps_kernel_zero_for_future_and_isometry():
    assert hermite.fou_kernel_h_eps(1.0, 1.5, 0.1, 0.7) == 0.0
    eps, H = 0.1, 0.7
    val, _ = integrate.quad(
        lambda s: hermite.fou_kernel_h_eps(2.0, s, eps, H) ** 2, -np.inf, 2.0,
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
    # same law as the exponential-Euler construction
    grid2 = TimeGrid(0.05, 100)
    y2 = fou.sample_fou_ensemble(grid2, fou.FouConfig(H, eps), 6, 3000, "fk2")
    ks = stats.ks_2samp(vals[:, -1], y2[:, -1])
    assert ks.pvalue > 0.01
    # the public single-path constructor agrees with the matrix route
    noise = hermite.SharedNoise(edges, stream(5, "fk", 0).standard_normal(n_xi)
                                * np.sqrt(dxi))
    path = hermite.sample_fou_from_kernel(grid, eps, H, noise)
    np.testing.assert_allclose(path.values, vals[0], rtol=1e-10)


def test_sample_fou_from_kernel_resolution_guard():
    noise = sample_shared_noise(5.0, 1.0, 100, stream(0, "n"))
    with pytest.raises(ValueError, match="under-resolved"):
        hermite.sample_fou_from_kernel(TimeGrid(1.0, 10), 0.05, 0.8, noise)


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


def test_kernel_l2_convergence_monotone():
    for m in (1, 2):
        d = [
            hermite.kernel_l2_distance(eps, 0.8, m, t=1.0, xi_lo=-20.0,
                                       n_xi=1200, n_s=160)
            for eps in (0.2, 0.1, 0.05)
        ]
        assert d[0] > d[1] > d[2], d


def test_truncation_bias_estimate_and_warning():
    spec = HermiteSpec(0.7, 2, 2.0, 500)
    bias = hermite.truncation_bias_estimate(spec, 1.0)
    assert bias > 0.25
    noise = sample_shared_noise(2.0, 1.0, 500, stream(1, "w"))
    with pytest.warns(UserWarning, match="truncates"):
        hermite.hermite_values(TimeGrid(1.0, 50), spec, noise)


def test_sample_hermite_errors():
    with pytest.raises(ValueError, match="order not supported"):
        HermiteSpec(0.7, 4, 50.0, 1000)
    spec = HermiteSpec(0.7, 2, 50.0, 1000)
    small = sample_shared_noise(10.0, 1.0, 1000, stream(2, "w"))
    with pytest.raises(ValueError, match="does not cover"):
        hermite.sample_hermite(TimeGrid(1.0, 50), spec, small)


@pytest.mark.filterwarnings("error::UserWarning")
def test_hermite_values_deterministic_in_noise():
    # xi_window 40 stays below the sampler's 25% kernel-truncation warning
    grid = TimeGrid(1.0, 100)
    spec = HermiteSpec(0.7, 2, 40.0, 2000)
    noise = sample_shared_noise(40.0, 1.0, 2000, stream(8, "det"))
    a = hermite.hermite_values(grid, spec, noise)
    b = hermite.hermite_values(grid, spec, noise)
    np.testing.assert_array_equal(a, b)
    assert a[0] == 0.0
