import numpy as np
import pytest
from scipy import linalg

from conftest import engine_covariance, fbm_paths, full_spectrum_reference
from foulim import fgn, fou
from foulim.paths import TimeGrid
from foulim.streams import keys


def test_covariance_examples():
    for H in (0.3, 0.5, 0.75):
        assert fgn.fbm_covariance(1.0, 1.0, H) == pytest.approx(1.0)
        assert fgn.fbm_covariance(3.7, 0.0, H) == 0.0
    # direct evaluation of the formula at (2, 1, 0.75)
    assert fgn.fbm_covariance(2.0, 1.0, 0.75) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_covariance_rejects_negative_times():
    with pytest.raises(ValueError):
        fgn.fbm_covariance(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        fgn.fbm_covariance(1.0, 1.0, 1.5)


def test_covariance_self_similarity_and_stationary_increments():
    rng = np.random.default_rng(7)
    for _ in range(50):
        H = rng.uniform(0.05, 0.95)
        t, s = rng.uniform(0.01, 5.0, 2)
        lam = rng.uniform(0.1, 10.0)
        c = fgn.fbm_covariance
        assert c(lam * t, lam * s, H) == pytest.approx(
            lam ** (2 * H) * c(t, s, H), rel=1e-12
        )
        var_inc = c(t, t, H) + c(s, s, H) - 2 * c(t, s, H)
        assert var_inc == pytest.approx(abs(t - s) ** (2 * H), rel=1e-12, abs=1e-12)


def test_fgn_autocovariance_lag_values():
    g = fgn.fgn_autocovariance([0, 1], 0.75)
    assert g[0] == pytest.approx(1.0)
    # gamma(1)/gamma(0) = 2^{1.5}/2 - 1
    assert g[1] / g[0] == pytest.approx(2**1.5 / 2 - 1, rel=1e-12)


def test_fgn_lag1_autocorrelation_monte_carlo():
    # the known-mean lag-1 autocovariance of each of 16 paths (their variance
    # is 1, so it is the correlation), gated on the standard error across
    # the paths: that error holds whatever the correlation of the lag
    # products along a path, which decays slowly at H 0.75
    for H, target in ((0.75, 2**1.5 / 2 - 1), (0.25, 2**-0.5 - 1)):
        x = fgn.sample_fgn_batch(100_000, 1.0, H, keys(11, f"lag1-{H}", 0, 16))
        per_path = np.mean(x[:, :-1] * x[:, 1:], axis=1)
        se = per_path.std(ddof=1) / np.sqrt(len(per_path))
        assert abs(per_path.mean() - target) <= 3.0 * se


def test_fgn_brownian_case_iid():
    dt = 0.25
    x = fgn.sample_fgn_batch(50_000, dt, 0.5, keys(3, "bm"))[0]
    assert x.var() == pytest.approx(dt, rel=0.02)
    assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 0.02
    # variance-ratio test: blocks of 4 behave like sums of 4 iid terms
    blocks = x[: 4 * (len(x) // 4)].reshape(-1, 4).sum(axis=1)
    assert blocks.var() / (4 * x.var()) == pytest.approx(1.0, abs=0.03)


def test_fbm_path_normalization_and_variance():
    grid = TimeGrid(1.0, 16)
    vals = fbm_paths(grid, 0.7, keys(5, "fbm", 0, 20_000))
    assert np.all(vals[:, 0] == 0.0)
    assert vals[:, -1].var() == pytest.approx(1.0, abs=0.03)
    times = grid.times()
    for t in (0.25, 0.5, 1.0):
        k = int(round(t / grid.dt))
        var = vals[:, k].var()
        se = var * np.sqrt(2.0 / len(vals))
        assert abs(var - t ** (2 * 0.7)) < 3 * se + 1e-12


def test_fbm_empirical_covariance_matrix():
    grid = TimeGrid(1.0, 16)
    H = 0.3
    incs = fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, keys(9, "cov", 0, 20_000))
    paths = np.cumsum(incs, axis=1)
    times = grid.times()[1:]
    emp = paths.T @ paths / len(paths)
    theory = fgn.fbm_covariance(times[:, None], times[None, :], H)
    se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / len(paths))
    assert np.max(np.abs(emp - theory) / se) < 5.0


def test_batch_matches_single_stream_draws():
    # a key array is the one stream of its first row: the rows read its runs
    # in order, whatever the later keys, and the first k rows are the k-key call
    n, dt, H = 64, 0.1, 0.6
    batch = fgn.sample_fgn_batch(n, dt, H, keys(2, "b", 0, 3))
    np.testing.assert_array_equal(
        fgn.sample_fgn_batch(n, dt, H, np.repeat(keys(2, "b", 0), 3, axis=0)), batch)
    for k in (1, 2):
        np.testing.assert_array_equal(fgn.sample_fgn_batch(n, dt, H, keys(2, "b", 0, k)),
                                      batch[:k])
    assert not np.array_equal(fgn.sample_fgn_batch(n, dt, H, keys(2, "b", 1)), batch[1:2])


# (label, acov, n, embedding half-length): fGN, and the fOU on TimeGrid(1, 500)
# at eps = 0.1, whose embedding is doubled once at H = 0.85
HALF_SPECTRUM_CASES = [
    *[(f"fgn-{H}", lambda k, H=H: fgn.fgn_autocovariance(k, H), 300, 300)
      for H in (0.2, 0.5, 0.9)],
    *[(f"fou-{H}", lambda k, H=H: fou.rho(k * 0.02, H), 500, m)
      for H, m in ((0.6, 500), (0.85, 1000))],
]


@pytest.mark.parametrize("label, acov, n, m", HALF_SPECTRUM_CASES,
                         ids=[c[0] for c in HALF_SPECTRUM_CASES])
def test_half_spectrum_engine_matches_full_spectrum_reference(label, acov, n, m):
    assert fgn._embedding_eigenvalues(acov, n)[0] == m
    batch = fgn.StationarySampler(acov, n).batch(keys(4, label, 0, 5))
    ref = full_spectrum_reference(acov, n, keys(4, label, 0, 5))
    np.testing.assert_allclose(batch, ref, rtol=0, atol=1e-13)
    for k in (1, 4):
        np.testing.assert_array_equal(
            fgn.StationarySampler(acov, n).batch(keys(4, label, 0, k)), batch[:k])


# (label, acov, n): fGN at H 0.3, and the fOU at H 0.85, eps 0.1, dt = eps/50,
# whose embedding is doubled
BLOCK_CASES = [
    ("fgn-0.3", lambda k: fgn.fgn_autocovariance(k, 0.3), 2000),
    ("fou-0.85", lambda k: fou.rho(k * 0.02, 0.85), 500),
]


@pytest.mark.parametrize("label, acov, n", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
def test_blocked_engine_rows_equal_one_row_calls(label, acov, n, monkeypatch):
    # the rows of blocks of the default budget equal those drawn a row at a
    # time (a budget below one row) and all in one block, bit for bit, and
    # the first k rows of a call are the k-key call
    sampler = fgn.StationarySampler(acov, n)  # one embedding serves every call
    block = fgn.BLOCK_BYTES // (8 * 2 * sampler.m)
    assert block > 1
    every = keys(6, label, 0, 3 * block + 2)
    whole = sampler.batch(every)
    for budget, size in ((1, 1), (2**30, len(every))):
        with monkeypatch.context() as mp:
            mp.setattr(fgn, "BLOCK_BYTES", budget)
            assert {len(b) for b in sampler.blocks(every)} == {size}
            np.testing.assert_array_equal(sampler.batch(every), whole)
    for rows in (1, block - 1, block, block + 1, 3 * block + 2):
        sizes = [len(b) for b in sampler.blocks(keys(6, label, 0, rows))]
        assert sizes == [block] * (rows // block) + ([rows % block] if rows % block else [])
        np.testing.assert_array_equal(sampler.batch(keys(6, label, 0, rows)), whole[:rows])


# n = 67 is not 5-smooth: its embedding is padded to m = 72
@pytest.mark.parametrize("H, n", [(0.05, 64), (0.5, 64), (0.95, 64), (0.7, 67)],
                         ids=["0.05", "0.5", "0.95", "0.7-n67"])
def test_fgn_sampler_covariance_is_exact(H, n):
    cov = engine_covariance(lambda k: fgn.fgn_autocovariance(k, H), n)
    gamma = fgn.fgn_autocovariance(np.arange(n + 1), H)
    np.testing.assert_allclose(cov, linalg.toeplitz(gamma), rtol=0, atol=1e-12)


@pytest.mark.parametrize("acov, n", [
    (lambda k: fgn.fgn_autocovariance(k, 0.3), 67),
    (lambda k: fgn.fgn_autocovariance(k, 0.7), 67),
    (lambda k: fou.rho(k * 0.02, 0.85), 100),
], ids=["fgn-0.3", "fgn-0.7", "fou-0.85"])
def test_every_n_plus_one_values_of_a_whole_period_are_exact(acov, n):
    # a row of length 2m is one whole period of the circulant, on the same
    # embedding as the n + 1 default; each of its runs of n + 1 consecutive
    # values has the Toeplitz covariance of acov (Dietrich & Newsam 1997)
    m = fgn.StationarySampler(acov, n).m
    cov = engine_covariance(acov, n, 2 * m)
    assert cov.shape == (2 * m, 2 * m)
    exact = linalg.toeplitz(acov(np.arange(n + 1)))
    for start in range(2 * m - n):
        np.testing.assert_allclose(cov[start : start + n + 1, start : start + n + 1], exact,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("H", [0.001, 0.2, 0.5, 0.8, 0.999])
def test_fgn_embedding_is_never_doubled(H):
    # m is the smallest 5-smooth length >= n, a fast FFT length, and no more
    for n, smooth in ((1, 1), (2, 2), (17, 18), (67, 72), (256, 256), (4097, 4320)):
        m, _ = fgn._embedding_eigenvalues(lambda k: fgn.fgn_autocovariance(k, H), n)
        assert m == smooth


def test_non_positive_definite_autocovariance_raises_at_the_cap():
    calls = []

    def acov(k):  # |correlation| 1.2 > 1 at every nonzero lag: no process has it
        calls.append(len(k) - 1)
        return np.where(k == 0, 1.0, 1.2)

    with pytest.raises(fgn.SamplerInfeasibleError, match="cap"):
        fgn.StationarySampler(acov, 3)
    assert calls[0] == 3 and calls[-1] <= fgn.MAX_EMBEDDING_LAGS < 2 * calls[-1]


@pytest.mark.parametrize("n", [fgn.MAX_EMBEDDING_LAGS + 1, 10**300])
def test_more_lags_than_the_cap_raise_before_any_embedding(n):
    def acov(k):
        raise AssertionError("no embedding may be tried")

    with pytest.raises(fgn.SamplerInfeasibleError, match="exceed the circulant embedding cap") \
            as info:
        fgn.StationarySampler(acov, n)
    assert "positive definite" not in str(info.value)


def _mvn_normalizer_oracle(H):
    """c1(H) by 40-digit quadrature of its defining integral.

    int_0^inf ((1+x)^a - x^a)^2 dx, a = H - 1/2, is taken in u = log x,
    with the difference written x^a expm1(a log1p(1/x)) for x > 1 so the
    cancellation in the tail costs no digits; plain quadrature on
    [0, inf) is off by up to 4e-4 at H = 0.05 and 0.95.
    """
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpf(H) - mp.mpf(1) / 2

        def body(u):
            x = mp.exp(u)
            d = x**a * mp.expm1(a * mp.log1p(1 / x)) if u > 0 else (1 + x) ** a - x**a
            return d * d * x

        tail = mp.quad(body, [-mp.inf, -200, -50, -10, 0, 10, 50, 200, mp.inf])
        return float(mp.sqrt(tail + 1 / (2 * mp.mpf(H))))


def test_mvn_normalizer_matches_scipy_gamma():
    from scipy import special

    H = np.linspace(0.001, 0.999, 999)
    ref = special.gamma(H + 0.5) / np.sqrt(special.gamma(2.0 * H + 1.0) * np.sin(np.pi * H))
    c1 = np.array([fgn.mvn_normalizer(h) for h in H])
    assert np.max(np.abs(c1 / ref - 1.0)) <= 4e-15


def test_mvn_normalizer_closed_form():
    from scipy import special

    for H in (0.05, 0.3, 0.5, 0.7, 0.95):
        assert fgn.mvn_normalizer(H) == pytest.approx(_mvn_normalizer_oracle(H), rel=1e-12)
    # c1(H)^2 = (H-1/2)^2 B(H-1/2, 2-2H) / (H(2H-1)) for H > 1/2
    for H in (0.6, 0.75, 0.9):
        c1 = fgn.mvn_normalizer(H)
        closed = np.sqrt(
            (H - 0.5) ** 2 * special.beta(H - 0.5, 2 - 2 * H) / (H * (2 * H - 1))
        )
        assert c1 == pytest.approx(closed, rel=1e-7)
