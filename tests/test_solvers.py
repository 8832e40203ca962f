import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import fbm_paths, stream
from foulim import acceptance, chaos, exact, fgn, fou, harness, solvers
from foulim.chaos import ChaosFunction
from foulim.paths import FoulimError, TimeGrid
from foulim.streams import keys

H1 = ChaosFunction([0, 1.0])
H2 = ChaosFunction([0, 0, 1.0])


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _sin2(u):
    return np.sin(u) + 2.0


def _slow_fast(G, H, eps, f, h, g, n, seed, x0=0.0, t=1.0, dt_ratio=50.0, threads=1):
    """Slow/fast endpoints at dt = eps / dt_ratio; h None takes the flow of f
    at the driver, as ``homogenize`` does."""
    x = solvers._slow_fast_endpoints(G, H, t, eps, x0, f, h, g, n, seed, dt_ratio, threads)
    return x if h is not None else solvers.flow_map_1d(f, x0, x)


def test_slow_fast_endpoints_compute_the_embedding_once(monkeypatch):
    calls = []
    compute = fgn._embedding_eigenvalues

    def spy(acov, n):
        calls.append(n)
        return compute(acov, n)

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", spy)
    _slow_fast(H1, 0.7, 0.1, _one, _zero, _zero, 600, 3, t=0.2, dt_ratio=10.0)  # three chunks
    assert calls == [20]


def test_young_additive_case():
    grid = TimeGrid(1.0, 100)
    Z = np.sin(grid.times())
    x = solvers.solve_limit_stratonovich(2.0, _one, _zero, np.diff(Z), 0.0)
    assert x == pytest.approx(2.0 + Z[-1] - Z[0], rel=1e-14)


def test_young_smooth_driver_exponential_order():
    errs = []
    for n in (200, 400, 800, 1600):
        grid = TimeGrid(1.0, n)
        x = solvers.solve_limit_stratonovich(1.0, lambda u: u, _zero,
                                             np.diff(grid.times() ** 2), 0.0)
        errs.append(abs(x - np.exp(1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # Heun is second order: dyadic orders increase toward 2
    assert np.all(np.diff(orders) > 0)
    assert orders[-1] > 1.99
    # Aitken extrapolation of the order sequence reaches 2
    d1, d2 = orders[1] - orders[0], orders[2] - orders[1]
    order_limit = orders[2] + d2 * d2 / (d1 - d2)
    assert order_limit >= 2.0 - 1e-3


def test_young_fbm_driver_matches_chain_rule():
    grid = TimeGrid(1.0, 4000)
    Z = fbm_paths(grid, 0.8, keys(1, "yfbm", 0, 20))
    x = solvers.solve_limit_stratonovich(1.0, lambda u: u, _zero, np.diff(Z).T, 0.0)
    exact = np.exp(Z[:, -1] - Z[:, 0])
    assert np.max(np.abs(x - exact)) < 0.02 * np.max(exact)


def test_limit_young_drift_only_is_ode_flow():
    grid = TimeGrid(1.0, 2000)
    x = solvers.solve_limit_stratonovich(1.0, _zero, lambda u: u, np.zeros(2000),
                                         0.7 * grid.dt)
    assert x == pytest.approx(np.exp(0.7), rel=1e-3)


def test_limit_young_exponential_closed_form():
    grid = TimeGrid(1.0, 4000)
    Z = fbm_paths(grid, 0.8, keys(2, "ly", 0, 20))
    x = solvers.solve_limit_stratonovich(1.0, lambda u: u, _zero, np.diff(Z).T, 0.0)
    exact = np.exp(Z[:, -1])
    assert np.max(np.abs(x - exact)) < 0.02 * np.max(exact)


def test_limit_young_degenerate_constants():
    dU = np.zeros(100)  # c = 0 folded into the driver
    x = solvers.solve_limit_stratonovich(0.3, lambda u: u, lambda u: u, dU, 0.0)
    assert x == 0.3


def test_limit_solvers_reject_driver_off_grid():
    # the drift's increments must lie on the driver's grid
    with pytest.raises(ValueError, match="broadcast"):
        solvers.solve_limit_stratonovich(0.0, _zero, _zero, np.zeros((100, 3)),
                                         np.zeros((101, 3)))
    with pytest.raises(ValueError, match="broadcast"):
        solvers.solve_limit_stratonovich(0.0, _zero, _zero, np.zeros(100), np.zeros(102))


def test_limit_solver_blows_up_on_a_smooth_driver():
    # dx = (1 + x^2) dU, U_t = t: x = tan(t) passes the guard near t = pi/2
    with pytest.raises(solvers.BlowUpError, match="blew up") as info:
        solvers.solve_limit_stratonovich(0.0, lambda u: 1.0 + u**2, _zero,
                                         np.full(400, 0.01), 0.0)
    step = int(str(info.value).split("at step ")[1].split(";")[0])
    assert 157 <= step <= 170


def _heun_loop(x0, f, h, dU, dV):
    """Heun's scheme for dx = f(x) dU + h(x) dV, one scalar step at a time."""
    x = x0
    for du, dv in zip(dU, dV):
        pred = x + f(x) * du + h(x) * dv
        x = x + 0.5 * (f(x) + f(pred)) * du + 0.5 * (h(x) + h(pred)) * dv
    return x


def test_batched_limit_solvers_match_one_row_calls():
    grid = TimeGrid(1.0, 500)
    dU = np.diff(0.8 * fbm_paths(grid, 0.7, keys(7, "batch", 0, 5))).T
    dV = 0.6 * grid.dt
    f = lambda u: np.sin(u) + 2.0
    h = lambda u: np.cos(u)
    heun = solvers.solve_limit_stratonovich(0.4, f, h, dU, dV)
    assert heun.shape == (5,)
    for r in range(5):
        np.testing.assert_allclose(
            heun[r : r + 1], solvers.solve_limit_stratonovich(0.4, f, h, dU[:, r : r + 1], dV),
            rtol=0, atol=1e-14)
        # a single path is the one-row case
        np.testing.assert_allclose(
            heun[r], solvers.solve_limit_stratonovich(0.4, f, h, dU[:, r], dV),
            rtol=0, atol=1e-14)
        # the scalar per-replica loop is the reference
        np.testing.assert_allclose(heun[r], _heun_loop(0.4, f, h, dU[:, r], np.full(500, dV)),
                                   rtol=0, atol=1e-14)


def test_stratonovich_deterministic_when_c_zero():
    grid = TimeGrid(1.0, 1000)
    x = solvers.solve_limit_stratonovich(1.0, lambda u: u, lambda u: u, np.zeros(1000),
                                         0.5 * grid.dt)
    assert x == pytest.approx(np.exp(0.5), rel=1e-4)


def test_stratonovich_additive_matches_quadrature():
    # additive noise, linear drift: x_t = e^{g_bar t} x0 + c int e^{g_bar (t - s)} dW_s,
    # the stochastic integral taken at the midpoints of the steps
    grid = TimeGrid(1.0, 2000)
    dW = stream(4, "wa").standard_normal(2000) * np.sqrt(grid.dt)
    c, g_bar = 0.7, 0.3
    x = solvers.solve_limit_stratonovich(0.2, _one, lambda u: u, c * dW, g_bar * grid.dt)
    mid = grid.times()[:-1] + 0.5 * grid.dt
    expect = np.exp(g_bar) * 0.2 + c * np.sum(np.exp(g_bar * (1.0 - mid)) * dW)
    assert abs(x - expect) < 1e-3


def test_stratonovich_no_ito_correction():
    # multiplicative case: log x - log x0 - cW - gbar*t must average to 0,
    # not drift by -c^2 t/2 as the Ito reading would
    grid = TimeGrid(1.0, 2000)
    c, g_bar = 0.8, 0.4
    dW = np.stack([stream(5, "strat", i).standard_normal(2000) for i in range(200)], axis=1)
    dW *= np.sqrt(grid.dt)
    x = solvers.solve_limit_stratonovich(1.0, lambda u: u, lambda u: u, c * dW,
                                         g_bar * grid.dt)
    resid = np.log(x) - c * dW.sum(axis=0) - g_bar
    assert abs(resid.mean()) < 0.01
    assert abs(resid.mean()) < 0.1 * c**2 / 2


@pytest.mark.parametrize("a2", [1.0, -1.0])
def test_long_range_limit_is_driven_by_the_hermite_path(a2):
    # additive noise and constant drift: Heun is exact, so the limit endpoint
    # is x0 + g_bar t + sign(a_2) c Z_t with Z the Hermite path itself
    from foulim import hermite

    H, t, x0, seed, n = 0.85, 1.0, 0.3, 17, 6
    G = ChaosFunction([0, 0, a2])
    x = solvers._limit_endpoints(G, H, t, x0, _one, _one, 1.0, n, seed)
    regime = chaos.classify_regime(2, H)
    engine = hermite.HermiteEngine(TimeGrid(t, 400), regime.h_star, 2)
    z = hermite.hermite_ensemble(engine, keys(seed, "limit-endpoint-z", 0, n))[:, 0]
    expect = x0 + t + np.sign(a2) * chaos.c_constant(G, H) * z
    np.testing.assert_allclose(x, expect, rtol=0, atol=1e-12)


def _hermite_limit_args(n, seed=23):
    G = ChaosFunction([0, 0, -1.0])
    return (G, 0.85, 1.0, 0.0, _sin2, None, 0.0, n, seed)


def test_limit_endpoint_samples_agree_with_one_hermite_call():
    # 300 replicas, a full chunk and a partial one: without a drift the
    # samples are the driver sign(a_2) c Z_t, and each chunk's rows agree
    # with one call over all replicas to rounding
    from foulim import hermite

    G, H, t, *_, n, seed = _hermite_limit_args(300)
    regime = chaos.classify_regime(2, H)
    engine = hermite.HermiteEngine(TimeGrid(t, 400), regime.h_star, 2)
    z = hermite.hermite_ensemble(engine, keys(seed, "limit-endpoint-z", 0, n))[:, 0]
    expect = -chaos.c_constant(G, H) * z
    for threads in (1, 2):
        u = solvers._limit_endpoints(*_hermite_limit_args(300), threads)
        np.testing.assert_allclose(u, expect, rtol=0, atol=1e-13)


def _peak_traced_mb(func, *args) -> float:
    """Peak traced allocation of func(*args) in MB."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_limit_endpoint_samples_memory_is_chunked():
    # 600 replicas, drawn in one call, once took 157 MB traced; in
    # 250-replica chunks the noise of one chunk is held at a time.  The
    # Hermite engine is built inside every call, so its kernel counts too
    # (16.4 MB traced in all)
    solvers._limit_endpoints(*_hermite_limit_args(2))  # warm the imports only
    assert _peak_traced_mb(solvers._limit_endpoints, *_hermite_limit_args(600)) < 120.0


@pytest.mark.parametrize("H", [0.6, 0.75])
def test_short_range_limit_reads_one_keyed_stream_per_replica(H):
    # short range and boundary without drift: row i of the driver is c
    # sqrt(t) times the first normal of stream (seed, "limit-endpoint", i),
    # whatever the worker count
    t, n, seed = 0.7, 300, 29
    out = [solvers._limit_endpoints(H2, H, t, 0.0, _sin2, None, 0.0, n, seed, threads)
           for threads in (1, 2)]
    np.testing.assert_array_equal(out[0], out[1])
    first = np.array([stream(seed, "limit-endpoint", i).standard_normal() for i in range(n)])
    np.testing.assert_array_equal(out[0], chaos.c_constant(H2, H) * np.sqrt(t) * first)


def test_brownian_limit_with_drift_holds_one_chunk():
    # with drift every replica's 4000-step W is solved by Heun; drawn as one
    # (600, 4000) matrix it took 77 MB traced.  In 250-replica chunks one
    # chunk's increments and their time-major copy (8 MB each) are held at a
    # time, 16 MB traced
    args = (H2, 0.6, 1.0, 0.0, _sin2, np.cos, 0.5)
    solvers._limit_endpoints(*args, 2, 3)  # warm the imports only
    assert _peak_traced_mb(solvers._limit_endpoints, *args, 600, 3) < 30.0


def test_flow_map_exponential():
    u = np.array([-1.0, 0.0, 0.5, 2.0])
    out = solvers.flow_map_1d(lambda x: x, 1.5, u)
    np.testing.assert_allclose(out, 1.5 * np.exp(u), rtol=1e-8)


def test_flow_map_raises_at_a_finite_u_blow_up():
    # phi = tan(50 u + arctan 5) passes 1e8 near u = 0.0039; before the
    # guard the map returned [6.7, 21.1, 5.7e66] here without an error
    f = lambda x: 50.0 * (1.0 + x**2)
    with pytest.raises(solvers.BlowUpError, match="blew up"):
        solvers.flow_map_1d(f, 5.0, [0.001, 0.003, 0.01])
    np.testing.assert_allclose(solvers.flow_map_1d(f, 5.0, [0.001, 0.003, -0.01]),
                               np.tan(50.0 * np.array([0.001, 0.003, -0.01]) + np.arctan(5.0)),
                               rtol=1e-7)


def test_flow_map_raises_at_once_on_a_non_finite_f():
    # f = NaN did not return within 60 s before the right-hand side was checked
    start = time.perf_counter()
    with pytest.raises(solvers.BlowUpError, match="blew up"):
        solvers.flow_map_1d(lambda x: np.nan, 0.0, [0.5, -0.5])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("eps", [0.02, 0.01])
@pytest.mark.parametrize("H, tol", [(0.6, 2e-3), (0.85, 5e-4)])
def test_flow_path_agrees_with_heun_on_the_same_keys(H, tol, eps):
    # the exact flow at the trapezoid u against second-order Heun with zero h
    # and g callables on the same increments: max |difference| 4.0e-4 to
    # 8.9e-4 (H 0.6) and 3.7e-5 to 2.0e-4 (H 0.85) at an endpoint sd of about 3
    flow = _slow_fast(H2, H, eps, _sin2, None, None, 300, 5)
    heun = _slow_fast(H2, H, eps, _sin2, _zero, _zero, 300, 5)
    assert flow.std() > 2.5
    assert np.max(np.abs(flow - heun)) <= tol


def test_flow_path_is_the_flow_map_of_the_trapezoid_driver(monkeypatch):
    # bit for bit, and whatever the sampler's row blocks
    H, eps, n, seed = 0.85, 0.02, 30, 7
    alpha = chaos.classify_regime(2, H).alpha(eps)
    ends = _slow_fast(H2, H, eps, _sin2, None, None, n, seed)
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 1)  # one row per block
    u = harness._fou_endpoint_samples(H2, H, 1.0, eps, n, seed, "slowfast", 50.0, alpha)
    np.testing.assert_array_equal(ends, solvers.flow_map_1d(_sin2, 0.0, u))


def test_homogenize_without_drift_is_byte_identical_across_threads(tmp_path):
    from foulim import cli

    base = ["homogenize", "--H", "0.7", "--coeffs", "0,0,1", "--hfun", "zero", "--gfun", "cos",
            "--eps", "0.05", "--replicas", "300", "--seed", "8"]
    for threads in (1, 2):
        assert cli.main(base + ["--threads", str(threads),
                                "--out", str(tmp_path / f"t{threads}")]) in (0, 2)
    for ext in ("csv", "json"):
        assert (tmp_path / f"t1.{ext}").read_bytes() == (tmp_path / f"t2.{ext}").read_bytes()


@pytest.mark.parametrize("f", [lambda u: 50.0 * (1.0 + u**2), lambda u: np.nan * u])
def test_flow_path_blows_up_within_a_second(f):
    start = time.perf_counter()
    with pytest.raises(solvers.BlowUpError, match="blew up"):
        _slow_fast(H1, 0.7, 0.1, f, None, None, 3, 0, x0=5.0)
    assert time.perf_counter() - start < 1.0


def test_flow_path_builds_no_chunk_path_matrix():
    # a 250-replica chunk at eps 0.01 has 5,001 x 250 paths, 10 MB; the flow
    # path reduces each row block of the sampler as it is drawn (2.7 MB traced)
    _slow_fast(H2, 0.6, 0.01, _sin2, None, None, 2, 4)  # warm the imports
    assert _peak_traced_mb(_slow_fast, H2, 0.6, 0.01, _sin2, None, None, 250, 4) \
        < 0.5 * 8 * 5_001 * 250 / 1e6


def test_drift_free_homogenize_takes_one_flow_of_both_drivers(monkeypatch):
    # the slow/fast and limit drivers go through one flow_map_1d call, and
    # each side agrees with the flow of its own driver to the solver's tolerance
    calls = []
    flow = solvers.flow_map_1d

    def spy(f, x0, u):
        calls.append(np.array(u))
        return flow(f, x0, u)

    monkeypatch.setattr(solvers, "flow_map_1d", spy)
    H, eps, n, seed, x0 = 0.85, 0.02, 40, 6, 0.3
    x, lim = solvers.homogenize(H2, H, eps, _sin2, None, None, n, seed, x0=x0)
    assert len(calls) == 1
    ratio = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n)[0]["dt_ratio"]
    u_eps = solvers._slow_fast_endpoints(H2, H, 1.0, eps, x0, _sin2, None, None, n, seed, ratio)
    u_lim = solvers._limit_endpoints(H2, H, 1.0, x0, _sin2, None, 0.0, n, seed + 1)
    np.testing.assert_array_equal(calls[0], np.concatenate([u_eps, u_lim]))
    np.testing.assert_allclose(x, flow(_sin2, x0, u_eps), rtol=1e-8, atol=0)
    np.testing.assert_allclose(lim, flow(_sin2, x0, u_lim), rtol=1e-8, atol=0)


def test_multiscale_config_validation():
    # dt = eps/5: the drift path steps Heun on the grid and refuses it; the
    # flow path takes the trapezoid integral there, whose law is exact
    with pytest.raises(ValueError, match="resolve the fast scale"):
        solvers.homogenize(H1, 0.7, 0.01, _zero, _zero, _zero, 1, 0, dt_ratio=5.0)
    x, _ = solvers.homogenize(H1, 0.7, 0.01, _zero, None, None, 2, 0, dt_ratio=5.0)
    np.testing.assert_array_equal(x, 0.0)


def test_slow_fast_reduces_to_functional_integral():
    # f = 1, h = 0: the slow variable is the scaled trapezoid integral of G(y)
    eps, H = 0.05, 0.8
    grid = TimeGrid.with_step(1.0, eps / 20.0)
    alpha = chaos.classify_regime(1, H).alpha(eps)
    y = fou.path_sampler(grid, H, eps).batch(keys(33, "slowfast", 0, 50))
    x = _slow_fast(H1, H, eps, _one, _zero, _zero, 50, 33, dt_ratio=20.0)
    np.testing.assert_allclose(x, harness.functional_values(H1, y, grid.dt, alpha),
                               rtol=0, atol=1e-12)


def test_slow_fast_drift_only_is_the_trapezoid_integral_of_g():
    # f = 0, h = 1: x_t = x0 + int g(y), the trapezoid rule on the solver's grid
    eps, H = 0.05, 0.7
    grid = TimeGrid.with_step(1.0, eps / 20.0)
    y = fou.path_sampler(grid, H, eps).batch(keys(34, "slowfast", 0, 50))
    x = _slow_fast(H2, H, eps, _zero, _one, np.cos, 50, 34, x0=0.4, dt_ratio=20.0)
    np.testing.assert_allclose(x, 0.4 + harness.functional_values(np.cos, y, grid.dt),
                               rtol=0, atol=1e-12)


def test_slow_fast_ergodic_drift_only():
    # f = 0: dx = h(x) g(y) with h = 1: x_t - x0 -> t * gbar
    g = np.cos
    g_bar = chaos.gaussian_expectation(g)
    ends = []
    for eps, seed in ((0.05, 35), (0.01, 36)):
        end = _slow_fast(H1, 0.7, eps, _zero, _one, g, 400, seed, dt_ratio=20.0)
        assert end.mean() == pytest.approx(g_bar, abs=0.03)
        ends.append(end.std())
    assert ends[1] < ends[0]


def _blowup(f=lambda u: 50.0 * (1.0 + u**2), n=1, seed=0):
    return _slow_fast(H1, 0.7, 0.1, f, _zero, _zero, n, seed, x0=5.0, dt_ratio=10.0)


def test_slow_fast_blowup_guard():
    with pytest.raises(FloatingPointError, match="blew up"):
        _blowup()


def test_slow_fast_blowup_guard_catches_nan():
    # NaN compares False with the guard, so only an all-finite check sees it
    nan_f = lambda u: np.full_like(np.asarray(u, dtype=float), np.nan)
    with pytest.raises(solvers.BlowUpError, match="at step 1;"):
        _blowup(nan_f, 3)


def test_slow_fast_errors_are_foulim_errors():
    assert issubclass(fgn.SamplerInfeasibleError, FoulimError)
    with pytest.raises(FoulimError) as info:
        _blowup()
    assert type(info.value) is solvers.BlowUpError


def test_slow_fast_endpoints_ignore_row_blocks_and_threads(monkeypatch):
    # 260 replicas, a full chunk and a partial one; the increments of 1-row
    # sampler blocks land in the same columns as those of whole blocks
    args = (H2, 0.85, 0.02, _sin2, _sin2, np.cos, 260, 9)
    ref = _slow_fast(*args, dt_ratio=25.0)
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 1)  # one row per block
    for threads in (1, 2):
        np.testing.assert_array_equal(_slow_fast(*args, dt_ratio=25.0, threads=threads), ref)


def test_slow_fast_chunk_memory_stays_near_its_paths():
    # one 250-replica chunk at eps 0.01 holds the 5,000 x 250 time-major
    # increments of U and V, 20 MB, and the sampler's row blocks (23.7 MB
    # traced), never the chunk's paths
    _slow_fast(H2, 0.6, 0.01, _sin2, _zero, _zero, 2, 4)  # warm the imports
    peak = _peak_traced_mb(_slow_fast, H2, 0.6, 0.01, _sin2, _zero, _zero, 250, 4)
    assert peak < 1.5 * 2 * 8 * 5_000 * 250 / 1e6


@pytest.mark.parametrize("hfun, gfun", [
    (_zero, _zero),
    (lambda u: np.sin(u) + 2.0, np.cos),
])
def test_slow_fast_solver_matches_per_stage_evaluation(hfun, gfun):
    # G(y) and g(y) evaluated replica by replica, their trapezoid increments
    # taken step by step and Heun run on scalars, against the batched solver
    H, eps, t, ratio, n = 0.85, 0.02, 0.4, 25.0, 40
    alpha = chaos.classify_regime(2, H).alpha(eps)
    grid = TimeGrid.with_step(t, eps / ratio)
    y = fou.path_sampler(grid, H, eps).batch(keys(12, "slowfast", 0, n))
    ends = _slow_fast(H2, H, eps, _sin2, hfun, gfun, n, 12, t=t, dt_ratio=ratio)
    for r in range(n):
        Gy, gy = H2(y[r]), gfun(y[r])
        dU = [0.5 * alpha * grid.dt * (Gy[k] + Gy[k + 1]) for k in range(grid.n_steps)]
        dV = [0.5 * grid.dt * (gy[k] + gy[k + 1]) for k in range(grid.n_steps)]
        assert ends[r] == pytest.approx(_heun_loop(0.0, _sin2, hfun, dU, dV), rel=0, abs=1e-14)


def test_homogenize_defaults_to_the_coarsest_unbiased_grid(monkeypatch):
    ratios = []
    slow_fast = solvers._slow_fast_endpoints

    def spy(*args):
        ratios.append(args[10])
        return slow_fast(*args)

    monkeypatch.setattr(solvers, "_slow_fast_endpoints", spy)
    solvers.homogenize(H2, 0.85, 0.02, _sin2, None, None, 40, 2)
    solvers.homogenize(H2, 0.05, 0.02, _sin2, None, None, 40, 2, t=0.1)
    # a drift steps Heun on the grid: the coarsest unbiased rung that resolves eps
    solvers.homogenize(H2, 0.85, 0.02, _sin2, _one, np.cos, 40, 2)
    assert ratios == [2.0, exact.resolve_dt_ratio(H2, 0.05, 0.1, [0.02], 40)[0]["dt_ratio"],
                      fou.MIN_STEPS_PER_EPS]
    assert ratios[1] > 10.0


@pytest.mark.parametrize("H", [0.6, 0.85])
@pytest.mark.parametrize("hfun", [_one, _sin2], ids=["one", "sin2"])
def test_heun_error_with_drift_at_the_auto_ratio_fits_the_bias_budget(monkeypatch, H, hfun):
    # each trapezoid step stepped as it is and again on 8 equal substeps: the
    # driver is piecewise linear, so the substep solve is the same driver
    # solved more accurately.  At the drift path's auto ratio (eps/10) and
    # 600 replicas the relative variance gap
    # (1.0e-3 to 1.2e-3 at H 0.6, 1.8e-4 to 2.1e-4 at 0.85) plus the exact
    # trapezoid bias of the grid fits the budget of 600 replicas, 5.8e-3; the gap alone
    # would exceed the budget beyond about 13,000 replicas at H 0.6 and
    # 470,000 at H 0.85
    eps, n = 0.02, 600
    resolution, _ = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n, stepped=True)
    ratio, bias, budget = (resolution[k] for k in ("dt_ratio", "trapezoid_bias", "bias_budget"))
    assert ratio == fou.MIN_STEPS_PER_EPS
    heun, fine = solvers.solve_limit_stratonovich, []

    def both(x0, f, h, dU, dV):
        fine.append(heun(x0, f, h, np.repeat(dU / 8, 8, axis=0), np.repeat(dV / 8, 8, axis=0)))
        return heun(x0, f, h, dU, dV)

    monkeypatch.setattr(solvers, "solve_limit_stratonovich", both)
    coarse = _slow_fast(H2, H, eps, _sin2, hfun, np.cos, n, 41, dt_ratio=ratio)
    gap = abs(np.var(coarse) / np.var(np.concatenate(fine)) - 1.0)
    assert gap + abs(bias[0]) <= budget


def test_grid_refinement_stability():
    ends = [_slow_fast(H2, 0.6, 0.05, _sin2, _zero, _zero, 300, 37, dt_ratio=ratio)
            for ratio in (10.0, 20.0)]
    # the standard error of a difference of two means
    se = np.hypot(ends[0].std(), ends[1].std()) / np.sqrt(len(ends[0]))
    assert abs(ends[0].mean() - ends[1].mean()) < 3.0 * se


def test_kinetic_identity_and_slope():
    grid = TimeGrid(1.0, 20)
    scan = solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.025], grid, 120, 39)
    assert scan.meta["identity_defect_max"] < 1e-6
    slope = -scan.slope
    assert slope == pytest.approx(0.7, abs=0.2)
    # errors shrink monotonically
    assert np.all(np.diff(scan.values) < 0)


def test_kinetic_identity_defect_sees_a_shifted_origin(monkeypatch):
    # a constant added to every reading cancels in differences of readings;
    # the defect is taken from t = 0, where X - sigma B is zero
    reader = solvers._grid_reader

    def shifted(times, dt):
        read = reader(times, dt)
        return lambda values: read(values) + 1.0

    monkeypatch.setattr(solvers, "_grid_reader", shifted)
    scan = solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.025], TimeGrid(1.0, 20), 20, 39)
    assert scan.meta["identity_defect_max"] > 1e-6


def test_kinetic_incommensurate_scales_rejected():
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError, match="common refinement"):
        solvers.kinetic_error_scan(0.5, [0.1, 0.1 / np.pi], grid, 10, 0)


def test_inverse_flow_of_sin2_round_trips_flow_map():
    # criterion 10 maps endpoints back to the driver u = phi^{-1}(x)
    u = np.linspace(-12.0, 12.0, 49)
    x = solvers.flow_map_1d(lambda z: np.sin(z) + 2.0, 0.0, u)
    assert acceptance._inverse_flow_sin2(x) == pytest.approx(u, abs=1e-8)


def test_kinetic_read_interpolates_between_grid_points():
    # a linear-in-time array read at the 50-point report grid off the grid
    dt = 3e-4
    t_grid = dt * np.arange(3400)
    a, b = np.array([[0.7], [-1.3]]), np.array([[2.5], [0.4]])
    times = TimeGrid(1.0, 50).times()
    out = solvers._grid_reader(times, dt)(a + b * t_grid)
    np.testing.assert_allclose(out, a + b * times, rtol=0, atol=1e-12)
    # on-grid times read their grid point bit for bit
    vals = stream(8, "read").standard_normal((3, 201))
    on = TimeGrid(1.0, 20).times()
    assert np.array_equal(solvers._grid_reader(on, 1.0 / 200)(vals), vals[:, ::10])


def _whole_chunk_kinetic_data(H, eps_list, grid, n_replicas, seed, reduction="prefix"):
    """Readings of kinetic_error_scan drawn the whole-chunk way, as a reference.

    Each 250-replica chunk samples its whole fGN matrix in one batch and
    reduces it eps by eps; returns the (replicas, n_eps, 2, n_report)
    array of X - sigma B and eps v.  ``reduction="prefix"`` reads every
    eps grid off one prefix sum of B, as the scan does; ``"blocks"`` is
    the independent long way: block sums of the scaled increments by
    reshape, B and X by their own cumulative sums, scaled before they
    are read.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    sigma = fou.stationary_sigma(H)
    dt_ratio = fou.MIN_STEPS_PER_EPS
    dt_min = eps_arr[-1] / dt_ratio
    for k in range(1, 101):
        dt_master = dt_min / k
        ratios = eps_arr / dt_ratio / dt_master
        if np.all(np.abs(ratios - np.round(ratios)) < 1e-9):
            break
    blocks = [int(round(r)) for r in ratios]
    n_burn_m = int(round(10.0 * eps_arr[0] / dt_master))
    n_steps = int(round(grid.horizon / dt_master))
    n_total = n_burn_m + max(b * math.ceil(n_steps / b) for b in blocks)
    sampler = fgn.StationarySampler(lambda k: fgn.fgn_autocovariance(k, H), n_total)
    times = grid.times()

    def prefix(dB, eps, b, a, dt, n_burn):
        S = np.concatenate([np.zeros((len(dB), 1)), np.cumsum(dB, axis=1)], axis=1)
        S *= dt_master**H
        y = lfilter([1.0], [1.0, -a], np.diff(S[:, n_burn_m % b :: b]), axis=1)
        C = np.concatenate([np.zeros((len(S), 1)),
                            np.cumsum(y[:, n_burn - 1 : -1], axis=1)], axis=1)
        read = solvers._grid_reader(times, dt)
        B = read(S[:, n_burn_m::b]) - S[:, n_burn_m, None]
        return (sigma * ((1.0 - a) * read(C) - B), sigma * read(y[:, n_burn - 1 :]))

    def block_sums(dB, eps, b, a, dt, n_burn):
        lead = n_burn_m % b
        n_blocks = (n_total - lead) // b
        agg = (dB[:, lead : lead + b * n_blocks] * dt_master**H).reshape(
            len(dB), -1, b).sum(axis=2)
        y = lfilter([sigma / eps**H], [1.0, -a], agg, axis=1)
        y_main = y[:, n_burn - 1 :]
        B_main = np.concatenate(
            [np.zeros((len(dB), 1)), np.cumsum(agg[:, n_burn:], axis=1)], axis=1)
        X = eps**H * (1.0 - a) * np.concatenate(
            [np.zeros((len(dB), 1)), np.cumsum(y_main[:, :-1], axis=1)], axis=1)
        read = solvers._grid_reader(times, dt)
        return read(X - sigma * B_main), read(eps**H * y_main)

    read = {"prefix": prefix, "blocks": block_sums}[reduction]

    def make_chunk(chunk_keys):
        dB = sampler.batch(chunk_keys)[:, :n_total]
        out = np.empty((len(dB), len(eps_arr), 2, len(times)))
        for i, (eps, b) in enumerate(zip(eps_arr, blocks)):
            dt = b * dt_master
            out[:, i, 0, :], out[:, i, 1, :] = read(dB, eps, b, np.exp(-dt / eps), dt,
                                                    n_burn_m // b)
        return out

    return harness.run_replicated(n_replicas, seed, "kinetic", make_chunk)


KINETIC_EPS_LISTS = [
    [0.1, 0.05, 0.02, 0.01],   # the CLI default
    [0.1, 0.03, 0.01],         # blocks of 10, 3 and 1 master steps
    [0.07, 0.05, 0.03],        # coprime blocks of 7, 5 and 3
]


@pytest.mark.parametrize("eps_list", KINETIC_EPS_LISTS)
def test_streamed_kinetic_scan_matches_whole_chunk_reference(eps_list, monkeypatch):
    # 260 replicas: a full 250-replica chunk and a partial one, each
    # streamed in row blocks of a few rows
    grid = TimeGrid(1.0, 20)
    captured = []
    run = solvers.run_replicated

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(solvers, "run_replicated", spy)
    ref = _whole_chunk_kinetic_data(0.7, eps_list, grid, 260, 41)
    scans = [solvers.kinetic_error_scan(0.7, eps_list, grid, 260, 41, threads=t)
             for t in (1, 2)]
    for data in captured:
        np.testing.assert_array_equal(data, ref)
    np.testing.assert_array_equal(scans[0].values, scans[1].values)
    assert scans[0].meta["identity_defect_max"] < 1e-6


def test_kinetic_scan_grid_follows_the_resolution_rule(monkeypatch):
    # the scan and its whole-chunk reference both take dt = eps / MIN_STEPS_PER_EPS
    monkeypatch.setattr(fou, "MIN_STEPS_PER_EPS", 20.0)
    lengths, captured = [], []
    sampler, run = fgn.StationarySampler, solvers.run_replicated

    class Spy(sampler):
        def __init__(self, acov, n):
            lengths.append(n)
            super().__init__(acov, n)

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(fgn, "StationarySampler", Spy)
    monkeypatch.setattr(solvers, "run_replicated", spy)
    grid, eps_list = TimeGrid(1.0, 20), [0.1, 0.05]
    ref = _whole_chunk_kinetic_data(0.7, eps_list, grid, 20, 45)
    solvers.kinetic_error_scan(0.7, eps_list, grid, 20, 45)
    # 10 * 0.1 of burn-in and a unit horizon at dt = 0.05 / 20
    assert lengths == [800, 800]
    np.testing.assert_array_equal(captured[0], ref)


@pytest.mark.parametrize("eps_list", KINETIC_EPS_LISTS)
def test_prefix_sum_readings_match_block_sums(eps_list):
    # the scan's prefix-sum readings against block sums by reshape, on the
    # same draws: equal to rounding, with the on-grid identity intact
    grid = TimeGrid(1.0, 20)
    ref = _whole_chunk_kinetic_data(0.7, eps_list, grid, 30, 43, reduction="blocks")
    new = _whole_chunk_kinetic_data(0.7, eps_list, grid, 30, 43)
    np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12 * np.max(np.abs(new)))
    scan = solvers.kinetic_error_scan(0.7, eps_list, grid, 30, 43)
    assert scan.meta["identity_defect_max"] < 1e-12


def test_kinetic_scan_memory_stays_below_a_chunk_matrix():
    # one 250-replica chunk of 2,000-step fGN is 4 MB, and the whole-chunk
    # reduction held about a dozen arrays of that size (221 MB traced at
    # 400 replicas on the 20,000-step grid of 100 steps per eps); streamed,
    # only row blocks are held (5.3 MB traced)
    tracemalloc.start()
    try:
        solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.02, 0.01], TimeGrid(1.0, 50), 400, 3)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 12.0


def _broadcast_holder_seminorms(d, times, gam):
    """Each replica's Hoelder seminorm over all ordered pairs and the
    diagonal, by one (replicas, n_report, n_report) broadcast, as a reference."""
    lag = np.abs(times[:, None] - times[None, :])
    np.fill_diagonal(lag, np.inf)
    return np.max(np.abs(d[:, :, None] - d[:, None, :]) / lag**gam, axis=(1, 2))


def _pairwise_statistics(data, times, h):
    """sup pair L2 error and mean Hoelder seminorm per eps, from the full
    (replicas, n_report, n_report) pairwise arrays, as a reference."""
    sup, holder = [], []
    for i in range(data.shape[1]):
        d = data[:, i, 0, :]
        pair = d[:, :, None] - d[:, None, :]
        sup.append(np.sqrt(np.max(np.mean(pair**2, axis=0))))
        holder.append(np.mean(_broadcast_holder_seminorms(
            d, times, solvers.HOLDER_GAMMA_FACTOR * h)))
    return np.array(sup), np.array(holder)


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_kinetic_scan_statistics_match_the_pairwise_formula(H, monkeypatch):
    grid = TimeGrid(1.0, 50)
    captured = []
    run = solvers.run_replicated

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(solvers, "run_replicated", spy)
    scan = solvers.kinetic_error_scan(H, [0.1, 0.05, 0.02, 0.01], grid, 300, 6)
    sup, holder = _pairwise_statistics(captured[0], grid.times(), H)
    np.testing.assert_allclose(scan.values, sup, rtol=1e-10, atol=0)
    np.testing.assert_allclose(scan.meta["holder_seminorm"], holder, rtol=1e-10, atol=0)


@pytest.mark.parametrize("H, n_report", [(0.3, 50), (0.7, 1), (0.7, 7)])
def test_kinetic_holder_seminorms_equal_the_broadcast_form(H, n_report, monkeypatch):
    # each pair j < k once, lag by lag, against every ordered pair and the
    # diagonal at once, bit for bit: on the scan's readings and its mean,
    # and on a non-uniform grid
    grid = TimeGrid(1.0, n_report)
    captured = []
    run = solvers.run_replicated

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(solvers, "run_replicated", spy)
    scan = solvers.kinetic_error_scan(H, [0.1, 0.05], grid, 300, 6)
    gam = scan.meta["holder_gamma"]
    for i in range(2):
        d = np.ascontiguousarray(captured[0][:, i, 0, :])
        ref = _broadcast_holder_seminorms(d, grid.times(), gam)
        np.testing.assert_array_equal(solvers._holder_seminorms(d, grid.times(), gam), ref)
        assert scan.meta["holder_seminorm"][i] == harness.fsum_mean(ref)
    rng = np.random.default_rng(n_report)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_report))])
    d = rng.standard_normal((50, n_report + 1))
    np.testing.assert_array_equal(solvers._holder_seminorms(d, times, gam),
                                  _broadcast_holder_seminorms(d, times, gam))


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_kinetic_scan_readings_have_the_exact_chain_covariance(H, monkeypatch):
    # every second moment of the eps v readings, a mean of products whose SE
    # comes from those products, against exact.kinetic_reading_covariance
    grid, eps_list = TimeGrid(1.0, 10), [0.1, 0.05, 0.02, 0.01]
    captured = []
    run = solvers.run_replicated

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(solvers, "run_replicated", spy)
    scan = solvers.kinetic_error_scan(H, eps_list, grid, 1000, 6)
    for i, eps in enumerate(eps_list):
        v = captured[0][:, i, 1, :]
        prod = v[:, :, None] * v[:, None, :]
        se = prod.std(axis=0, ddof=1) / np.sqrt(len(v))
        cov = exact.kinetic_reading_covariance(H, eps, grid.times(), fou.MIN_STEPS_PER_EPS)
        assert np.max(np.abs(prod.mean(axis=0) - cov) / se) < 4.0, eps
    np.testing.assert_allclose(
        scan.meta["exact_values"],
        exact.kinetic_sup_errors(H, eps_list, grid.times(), fou.MIN_STEPS_PER_EPS), rtol=0)
    assert scan.meta["exact_slope"] == exact.loglog_slope(eps_list, scan.meta["exact_values"])


def test_kinetic_scan_refuses_a_reporting_grid_over_the_pairwise_budget(monkeypatch):
    # the (n_report + 1)^2 arrays are checked before the sampler is built
    monkeypatch.setattr(fgn, "StationarySampler", None)
    n_report = int(np.sqrt(solvers.PAIRWISE_BYTES / 8))  # 1448 at 16 MiB
    with pytest.raises(ValueError, match="1449 reporting times need 16,796,808 bytes"):
        solvers.kinetic_error_scan(0.7, [0.1], TimeGrid(1.0, n_report), 2, 0)


def test_kinetic_scan_reduction_memory_does_not_grow_with_replicas():
    # the pairwise reduction held (replicas, 51, 51) arrays: 18.4 MB traced
    # at 400 replicas against 6.0 MB at 100
    peaks = {}
    for n in (100, 400):
        tracemalloc.start()
        try:
            solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.02, 0.01], TimeGrid(1.0, 50), n, 3)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 1.5 * peaks[100]
