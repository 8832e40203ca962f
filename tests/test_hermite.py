import inspect
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from conftest import stream
from foulim import fgn, fou, harness, hermite, streams
from foulim.chaos import ChaosFunction
from foulim.hermite import HermiteEngine
from foulim.paths import FoulimError, TimeGrid
from foulim.streams import keys


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
    # [1e-14, 1e32], with points on both sides of the switch at v = 700;
    # H near 1/2 is where a float q + 1 loses the tail (q + 1 - 1)/v.
    # Beyond the switch Watson's series is within a few ulps
    v = np.concatenate([np.geomspace(1e-14, 1e7, 120), np.geomspace(1e7, 1e32, 26)[1:],
                        [1.0, 39.9, 40.5, 699.999, 700.0, 700.001]])
    far = v > 700.0
    with mpmath.workdps(40):
        for H in (0.500001, 0.501, 0.6, 0.99, 0.999999):
            q = mpmath.mpf(H) - mpmath.mpf(1) / 2
            oracle = fou.kernel_amplitude(H) * np.array(
                [float(mpmath.mpf(x) ** q / q * mpmath.hyp1f1(1, q + 1, -mpmath.mpf(x)))
                 for x in v])
            got = hermite.ghat(v, H)
            np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=0)
            np.testing.assert_allclose(got[far], oracle[far], rtol=2e-15, atol=0)
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
    # the construction's exact variance is 1 up to the window's tail, and the
    # Monte Carlo variance matches it within 3 of its own standard errors
    C2 = fou.kernel_amplitude(H) ** 2
    tail = C2 * (window / eps) ** (2 * H - 2) / (2 - 2 * H)
    exact_var = float((Mk[-1] ** 2).sum() * dxi)
    assert 1.0 - tail < exact_var <= 1.0
    assert abs(vals[:, -1].var() - exact_var) <= 3.0 * harness.variance_stderr(vals[:, -1])
    # autocorrelation at lag 0.1: the Monte Carlo must match the exact
    # second moment of the discretized construction, which itself matches
    # rho(lag/eps) up to the analytic window-tail bound
    k = int(round(0.1 / grid.dt))
    emp = np.mean(vals[:, 0] * vals[:, k])
    disc = float((Mk[0] * Mk[k]).sum() * dxi)
    assert emp == pytest.approx(disc, abs=0.055)  # ~3 SE at N=3000
    assert abs(disc - fou.rho(0.1 / eps, H)) < tail + 0.01
    # the endpoint has the construction's exact law N(0, exact_var)
    ks = stats.kstest(vals[:, -1], "norm", args=(0.0, np.sqrt(exact_var)))
    assert ks.pvalue > 0.01


def test_hermite_m1_matches_fbm_law():
    grid = TimeGrid(1.0, 200)
    engine = HermiteEngine(grid, 0.7, 1)
    Z = hermite.hermite_ensemble(engine, keys(3, "m1", 0, 4000),
                                 report_idx=np.array([50, 100, 200]))
    tt = grid.times()[np.array([50, 100, 200])]
    emp = Z.T @ Z / len(Z)
    thr = fgn.fbm_covariance(tt[:, None], tt[None, :], 0.7)
    se = np.sqrt((np.outer(np.diag(thr), np.diag(thr)) + thr**2) / len(Z))
    assert np.max(np.abs(emp - thr) / se) < 5.0
    # two-sample KS against the circulant-embedding fBM endpoint
    b = np.cumsum(fgn.sample_fgn_batch(grid.n_steps, grid.dt, 0.7, keys(3, "m1-fbm", 0, 4000)),
                  axis=1)
    ks = stats.ks_2samp(Z[:, -1], b[:, -1])
    assert ks.pvalue > 0.01


def test_hermite_m2_variance_and_covariance():
    grid = TimeGrid(1.0, 300)
    engine = HermiteEngine(grid, 0.7, 2)
    idx = np.array([75, 150, 225, 300])
    Z = hermite.hermite_ensemble(engine, keys(9, "m2", 0, 10_000), idx)
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


def _series_covariance(gram: np.ndarray, m: int, ds: float) -> np.ndarray:
    """Covariance of the cumulative series sum_{s<k} ds :u_s^m: at k = 0..n,
    dense: C[j, k] = m! ds^2 sum_{s<j, s'<k} gram[s, s']^m, the reference
    for the engine's one pass over the Gram's lags."""
    C = np.zeros((len(gram) + 1,) * 2)
    C[1:, 1:] = math.factorial(m) * ds * ds * gram**m
    return C.cumsum(0).cumsum(1)


def _dense_engine(grid, H, m):
    """(kernel, var, C, scale) of ``HermiteEngine`` from the dense Gram
    near near^T + P (far far^T) P^T and ``_series_covariance``."""
    kernel = hermite._kernel(grid, H, m)
    near = np.array(kernel.near)
    gram = near @ near.T + kernel.P @ (kernel.far @ kernel.far.T) @ kernel.P.T
    C = _series_covariance(gram, m, grid.dt)
    scale = np.zeros(grid.n_steps + 1)
    scale[1:] = grid.times()[1:] ** H / np.sqrt(np.diag(C)[1:])
    return kernel, np.diag(gram), C, scale


def _wick_tensor_series(A, m, ds, N):
    """sum_s ds I_m(A[s]^{(x)m}) by enumerating every index tuple.

    The discrete Wick product of N_{i_1} ... N_{i_m} is prod_i He_{c_i}(N_i),
    c_i the number of times cell i occurs in the tuple.
    """
    n_xi = A.shape[1]
    total = 0.0
    for tup in itertools.product(range(n_xi), repeat=m):
        counts = np.bincount(tup, minlength=n_xi)
        wick = np.prod([np.polynomial.hermite_e.hermeval(N[i], np.eye(c + 1)[c])
                        for i, c in enumerate(counts) if c])
        total += ds * np.prod(A[:, list(tup)], axis=1).sum() * wick
    return total


def test_exact_variance_identities_brute_force():
    # the Wick power of u_s = A[s] . N is the discrete multiple integral
    # of the tensor A[s]^{(x)m}; its covariance is m! times the tensor
    # inner product, T_k = sum_{s<k} ds A[s]^{(x)m} enumerated in full
    rng = np.random.default_rng(4)
    n_s, n_xi, ds = 5, 6, 0.1
    A = rng.uniform(0.0, 1.0, size=(n_s, n_xi)) ** 2
    var = (A * A).sum(axis=1)
    for m in (1, 2, 3):
        for N in rng.normal(size=(3, n_xi)):
            series = hermite._wick_power(A @ N, var, m).sum() * ds
            assert series == pytest.approx(_wick_tensor_series(A, m, ds, N), rel=1e-10)
        C = _series_covariance(A @ A.T, m, ds)
        tensors = [np.zeros((n_xi,) * m)]
        for s in range(n_s):
            t = A[s]
            for _ in range(m - 1):
                t = np.multiply.outer(t, A[s])
            tensors.append(tensors[-1] + ds * t)
        brute = np.array([[math.factorial(m) * np.sum(Tj * Tk) for Tk in tensors]
                          for Tj in tensors])
        np.testing.assert_allclose(C, brute, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 20, 400])
def test_engine_matches_the_dense_gram_and_series_covariance(n, m):
    # the engine's one pass over the Gram's lags against the dense formula:
    # var, scale, the exact covariance at every grid time, and the values
    # hermite_ensemble draws from five fixed keys (relative to the largest)
    grid = TimeGrid(1.0, n)
    engine = HermiteEngine(grid, 0.7, m)
    kernel, var, C, scale = _dense_engine(grid, 0.7, m)
    np.testing.assert_allclose(engine.var, var, rtol=1e-13, atol=0)
    np.testing.assert_allclose(engine.scale, scale, rtol=1e-13, atol=0)
    np.testing.assert_allclose(hermite.exact_covariance(engine, grid.times()),
                               scale[:, None] * C * scale, rtol=1e-13, atol=0)
    key_rows = keys(7, "oracle", 0, 5)
    L = engine.far_factor
    N = streams.normals(key_rows, np.empty((5, L.shape[1] + 2 * n)))
    u = N @ np.hstack([kernel.P @ L, kernel.near]).T
    series = np.pad(hermite._wick_power(u, var, m) * grid.dt, ((0, 0), (1, 0)))
    ref = np.cumsum(series, axis=1) * scale
    got = hermite.hermite_ensemble(engine, key_rows, np.arange(n + 1))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("n", [1, 2, 20, 400])
def test_fou_kernel_contract_and_variances_match_the_dense_kernel(n):
    # a kernel held as a lag profile against its windows made dense
    rng = np.random.default_rng(n)
    for stride in (1, 2, 5):
        kernel = hermite._fou_kernel(TimeGrid(1.0, n), 0.8, 0.1, stride)
        near = np.array(kernel.near)
        assert near.shape == (n // stride + 1, 2 * n)
        PG = kernel.P @ kernel.far @ kernel.far.T
        dense = np.einsum("ij,ij->i", near, near) + np.einsum("ij,ij->i", PG, kernel.P)
        np.testing.assert_allclose(kernel.variances(), dense, rtol=1e-13, atol=0)
        w = rng.uniform(0.5, 1.5, len(near))
        one = kernel.contract(w)
        np.testing.assert_allclose(one.near, (w @ near)[None], rtol=1e-13, atol=0)
        np.testing.assert_array_equal(one.P, (w @ kernel.P)[None])
        assert one.far is kernel.far


def test_exact_covariance_diagonal_and_shape():
    # the sampler's covariance: t^{2H} on the diagonal by construction, and
    # within 1.2% of the fBM correlation shape at criterion 7's eight times
    # (0.013%, 0.87% and 1.10% for m = 1, 2, 3)
    grid = TimeGrid(1.0, 200)
    tt = grid.times()[25::25]
    for m in (1, 2, 3):
        engine = HermiteEngine(grid, 0.7, m)
        C = hermite.exact_covariance(engine, tt)
        np.testing.assert_allclose(np.diag(C), tt**1.4, rtol=1e-12)
        thr = fgn.fbm_covariance(tt[:, None], tt[None, :], 0.7)
        corr = C / np.outer(tt**0.7, tt**0.7)
        assert np.max(np.abs(corr - thr / np.outer(tt**0.7, tt**0.7))) < 0.012
    with pytest.raises(ValueError, match="points of the grid"):
        hermite.exact_covariance(engine, [0.5, 0.5001])


def test_graded_cells():
    # width dt on [-T, T] aligned with the grid, then x1.05 out to -1e30
    for n, count in ((200, 1863), (400, 2277)):
        grid = TimeGrid(1.0, n)
        edges = hermite._cell_edges(grid)
        w = np.diff(edges)
        assert len(w) == count
        np.testing.assert_allclose(edges[-2 * n - 1:], grid.dt * np.arange(-n, n + 1),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(w[:-2 * n][:-1] / w[:-2 * n][1:], 1.05, rtol=1e-9)
        assert edges[0] <= -1e30 < edges[1]
    # the step cap is checked before any edge is built
    assert len(hermite._cell_edges(TimeGrid(1.0, hermite._MAX_STEPS))) > 2 * hermite._MAX_STEPS
    with pytest.raises(FoulimError, match="10001 steps exceed the Hermite engine's cap of 10000"):
        hermite._cell_edges(TimeGrid(1.0, hermite._MAX_STEPS + 1))


def _difference_form(s, edges, p):
    """sqrt(w_i) times the average of (s - xi)_+^{p-1} over cell i, as the
    difference of the antiderivative at its edges, for every s and cell."""
    lo, hi = (np.clip(np.subtract.outer(s, e), 0.0, None) ** p for e in (edges[:-1], edges[1:]))
    return (lo - hi) / (p * np.sqrt(np.diff(edges)))


@pytest.mark.parametrize("block_bytes", [hermite.BLOCK_BYTES, 8_000])
def test_blocked_kernels_equal_whole_array_forms(block_bytes, monkeypatch):
    # the near block, windows of one lag profile, against the whole-array
    # difference form of the cell averages; the far block of an fOU kernel
    # at its node rows against ghat there, bit for bit; and projections of
    # the noise, r normals for the far field's factor and 2n for the uniform
    # cells, a block of rows at a time (one row at 8 kB) against one product
    # with the whole factored kernel
    monkeypatch.setattr(hermite, "BLOCK_BYTES", block_bytes)
    grid = TimeGrid(1.0, 200)
    edges = hermite._cell_edges(grid)
    n_far = len(edges) - 1 - 2 * grid.n_steps
    s = grid.times()[:-1] + 0.5 * grid.dt
    kernel = hermite._kernel(grid, 0.7, 2)
    dense = _difference_form(s, edges[n_far:], (0.7 - 1.0) / 2 + 0.5)
    np.testing.assert_allclose(kernel.near, dense, rtol=1e-12, atol=0)
    x, _ = hermite._far_nodes(grid.times()[::2])
    far_mid = 0.5 * (edges[:n_far] + edges[1 : n_far + 1])
    far = hermite.ghat((x[:, None] - far_mid) / 0.1, 0.8) * np.sqrt(np.diff(edges) / 0.1)[:n_far]
    np.testing.assert_array_equal(hermite._fou_kernel(grid, 0.8, 0.1, 2).far, far)
    key_rows = keys(4, "blocks", 0, 9)
    far_factor, _ = hermite._far_factor(kernel.far @ kernel.far.T)
    N = streams.normals(key_rows, np.empty((9, far_factor.shape[1] + 2 * grid.n_steps)))
    whole = N @ np.hstack([kernel.P @ far_factor, kernel.near]).T
    blocks = [u for _, (u,) in hermite._projections(key_rows, [kernel], far_factor)]
    assert len(blocks) == (9 if block_bytes == 8_000 else 1)
    np.testing.assert_allclose(np.concatenate(blocks), whole, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [1, 19, 20, 21, 200, 400])
def test_far_field_interpolation_matches_dense_kernels(n):
    # the far block, held at _FAR_NODES Chebyshev rows and interpolated
    # by P, against every row evaluated dense: the Hermite kernel's cell
    # averages in the cancellation-free form (2e-15 measured) and in the
    # difference form, which cancels to 3.1e-12 next to -T at H* 0.55, m 1;
    # its gram; and ghat's rows of the fOU kernel.  With no more rows than
    # nodes P is the identity
    grid = TimeGrid(1.0, n)
    edges = hermite._cell_edges(grid)
    n_far = len(edges) - 1 - 2 * n
    w = np.diff(edges)[:n_far]
    s = grid.times()[:-1] + 0.5 * grid.dt
    for H, m in itertools.product((0.55, 0.7, 0.99), (1, 2, 3)):
        kernel = hermite._kernel(grid, H, m)
        if n <= hermite._FAR_NODES:
            np.testing.assert_array_equal(kernel.P, np.eye(n))
        far = kernel.P @ kernel.far
        p = (H - 1.0) / m + 0.5
        u = s[:, None] - edges[1 : n_far + 1]
        exact = u**p * np.expm1(p * np.log1p(w / u)) / (p * np.sqrt(w))
        np.testing.assert_allclose(far, exact, rtol=1e-12, atol=0)
        dense = _difference_form(s, edges[: n_far + 1], p)
        np.testing.assert_allclose(far, dense, rtol=1e-11, atol=0)
        gram = dense @ dense.T
        assert np.abs(far @ far.T - gram).max() <= 1e-14 * gram.max()
    mids = 0.5 * (edges[:n_far] + edges[1 : n_far + 1])
    for H, eps, stride in itertools.product((0.51, 0.75, 0.99), (0.01, 0.2), (1, 4)):
        kernel = hermite._fou_kernel(grid, H, eps, stride)
        rows = grid.times()[::stride]
        if len(rows) <= hermite._FAR_NODES:
            np.testing.assert_array_equal(kernel.P, np.eye(len(rows)))
        dense = hermite.ghat((rows[:, None] - mids) / eps, H) * np.sqrt(w / eps)
        np.testing.assert_allclose(kernel.P @ kernel.far, dense, rtol=1e-12, atol=0)


def _recording_draws(monkeypatch) -> list[int]:
    """The number of normals each replica of hermite's ``normals`` calls draws."""
    widths = []
    draw = hermite.normals

    def spy(key_rows, out):
        widths.append(out.shape[1])
        return draw(key_rows, out)

    monkeypatch.setattr(hermite, "normals", spy)
    return widths


@pytest.mark.parametrize("n, H, m", [(200, 0.7, 2), (400, 0.8, 1), (400, 0.75, 3)])
def test_engine_far_factor_is_a_rank_r_factor_of_the_far_gram(n, H, m, monkeypatch):
    # L L^T against far far^T within 1e-13 of its trace, on r < 20 columns
    # (5 to 7 measured), and each replica draws r + 2n normals
    engine = HermiteEngine(TimeGrid(1.0, n), H, m)
    L, far = engine.far_factor, engine.kernel.far
    gram = far @ far.T
    assert np.abs(L @ L.T - gram).max() <= 1e-13 * np.trace(gram)
    assert L.shape[1] < hermite._FAR_NODES
    assert 0.0 <= hermite._far_factor(gram)[1] < 1e-13
    assert not L.flags.writeable
    widths = _recording_draws(monkeypatch)
    hermite.hermite_ensemble(engine, keys(2, "rank", 0, 3))
    assert widths == [L.shape[1] + 2 * n]


def test_l2_far_factor_is_a_rank_r_factor_of_the_stacked_far_gram(monkeypatch):
    # one factor per call, of the stacked far blocks of the Hermite kernel
    # and the three fOU kernels, reported in meta; each replica draws r + 2n
    seen = []
    factor = hermite._far_factor

    def spy(gram):
        seen.append((gram, factor(gram)))
        return seen[-1][1]

    monkeypatch.setattr(hermite, "_far_factor", spy)
    widths = _recording_draws(monkeypatch)
    scan = harness.l2_convergence_hermite(ChaosFunction([0, 1.0]), 0.8, 1.0, [0.2, 0.1, 0.05],
                                          20, 3)
    ((gram, (L, dropped)),) = seen
    assert gram.shape == (4 * hermite._FAR_NODES,) * 2
    assert np.abs(L @ L.T - gram).max() <= 1e-13 * np.trace(gram)
    assert (scan.meta["far_rank"], scan.meta["far_gram_dropped"]) == (L.shape[1], dropped)
    assert set(widths) == {L.shape[1] + 2 * 400}  # the fine grid: 0.05 / 20


def _traced_growth_mb(fn) -> float:
    """The traced peak of fn() over the memory traced when it starts, in MB,
    after a 20-step engine and ensemble have paid for the imports."""
    hermite.hermite_ensemble(HermiteEngine(TimeGrid(1.0, 20), 0.7, 2), keys(1, "warm", 0, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def test_engine_and_ensemble_memory_is_one_noise_block():
    # at 400 steps a kernel is a 1,199-entry lag profile and its far block
    # (20 x 1,477); the build's lag blocks are 400 x 81, and the ensemble
    # draws 108-row noise blocks, 806 normals and 400 projections a row
    # within 1 MiB, with a 20-row window buffer.  600 replicas trace 2.3 MB,
    # bounded at 3.0; the near block held dense, with its Gram and C, traced
    # 7.0 MB, and the whole (600, 2277) noise matrix 27.3 MB
    assert _traced_growth_mb(lambda: hermite.hermite_ensemble(
        HermiteEngine(TimeGrid(1.0, 400), 0.7, 2), keys(3, "mem", 0, 600))) < 3.0


def test_engine_memory_at_2000_steps_is_linear_in_the_steps():
    # the engine at 2,000 steps and 100 replicas trace 2.7 MB, bounded at
    # 3.5: no n x 2n, n x n or (n + 1)^2 array (the dense near block, Gram
    # and C traced 129 MB here)
    assert _traced_growth_mb(lambda: hermite.hermite_ensemble(
        HermiteEngine(TimeGrid(1.0, 2000), 0.7, 2), keys(3, "mem", 0, 100))) < 3.5


def test_hermite_self_similarity_and_stationary_increments():
    grid = TimeGrid(1.0, 256)
    engine = HermiteEngine(grid, 0.75, 2)
    idx = np.array([64, 128, 192, 256])
    Z = hermite.hermite_ensemble(engine, keys(13, "ss", 0, 8000), idx)
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
    n = 4000
    z2 = np.empty(n)
    z1 = np.empty(n)
    e2 = HermiteEngine(grid, 0.7, 2)
    e1 = HermiteEngine(grid, 0.8, 1)
    # row k of the noise is stream (15, "orth", k), projected on both kernels
    # through the factor of their stacked far Gram
    far = np.concatenate([e2.kernel.far, e1.kernel.far])
    far_factor, _ = hermite._far_factor(far @ far.T)
    for i, (u2, u1) in hermite._projections(keys(15, "orth", 0, n), [e2.kernel, e1.kernel],
                                            far_factor):
        ser2 = hermite._wick_power(u2, e2.var, 2)
        ser1 = hermite._wick_power(u1, e1.var, 1)
        z2[i : i + len(u2)] = ser2.sum(axis=1) * grid.dt * e2.scale[-1]
        z1[i : i + len(u1)] = ser1.sum(axis=1) * grid.dt * e1.scale[-1]
    # the standardized product is not unit-variance (Z^{H,2} is heavy
    # tailed), so its mean is gated on its own standard error
    prod = z2 * z1 / (z2.std() * z1.std())
    assert abs(prod.mean()) < 3.0 * prod.std() / np.sqrt(n)


def test_spec_is_exponent_and_order():
    # the engine is built from the grid, the exponent and the order alone:
    # no noise-window options
    assert list(inspect.signature(HermiteEngine).parameters) == ["grid", "H", "m"]
    engine = HermiteEngine(TimeGrid(1.0, 20), 0.7, 2)
    assert (engine.H, engine.m) == (0.7, 2)


def test_sample_hermite_errors():
    grid = TimeGrid(1.0, 20)
    with pytest.raises(ValueError, match="order not supported"):
        HermiteEngine(grid, 0.7, 4)
    with pytest.raises(ValueError, match="order m must be >= 1"):
        HermiteEngine(grid, 0.7, 0)
    for H in (0.5, 1.0, 0.3):
        with pytest.raises(ValueError, match=r"\(1/2, 1\)"):
            HermiteEngine(grid, H, 1)
    # the kernel alone, as harness.l2_convergence_hermite builds it, checks the same
    with pytest.raises(ValueError, match="order not supported"):
        hermite._kernel(grid, 0.7, 4)


@pytest.mark.filterwarnings("error::UserWarning")
def test_hermite_values_deterministic_in_noise():
    grid = TimeGrid(1.0, 100)
    every_step = np.arange(grid.n_steps + 1)
    a, b = (hermite.hermite_ensemble(HermiteEngine(grid, 0.7, 2), keys(8, "det"),
                                     every_step) for _ in range(2))
    np.testing.assert_array_equal(a, b)
    assert a[0, 0] == 0.0


def test_hermite_ensemble_rows_agree_across_chunkings():
    # each row is a matrix product over the chunk, so its rounding moves
    # with the chunk size; the values agree to a few ulps, not bit for bit
    grid = TimeGrid(1.0, 100)
    every_step = np.arange(grid.n_steps + 1)
    for m in (1, 2, 3):
        engine = HermiteEngine(grid, 0.8, m)
        whole = hermite.hermite_ensemble(engine, keys(6, "chunks", 0, 5), every_step)
        rows = np.concatenate([
            hermite.hermite_ensemble(engine, keys(6, "chunks", r), every_step)
            for r in range(5)
        ])
        split = np.concatenate([
            hermite.hermite_ensemble(engine, keys(6, "chunks", 0, 2), every_step),
            hermite.hermite_ensemble(engine, keys(6, "chunks", 2, 3), every_step),
        ])
        np.testing.assert_allclose(rows, whole, rtol=0, atol=1e-13)
        np.testing.assert_allclose(split, whole, rtol=0, atol=1e-13)
