import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import fbm_paths, stream
from foulim import chaos, exact, fgn, fou, harness, solvers
from foulim.chaos import ChaosFunction
from foulim.paths import FoulimError, TimeGrid
from foulim.streams import keys, normals

H1 = ChaosFunction([0, 1.0])
H2 = ChaosFunction([0, 0, 1.0])
SIN2, ONE, LINEAR, ZERO = (solvers.FLOWS[k] for k in ("sin2", "one", "linear", "zero"))


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _sin2(u):
    return np.sin(u) + 2.0


def _identity(x):
    return np.asarray(x, dtype=float)


def _slow_fast(G, H, eps, f, h, g, n, seed, x0=0.0, t=1.0, dt_ratio=50.0, threads=1):
    """Slow/fast endpoints of the flow f at dt = eps / dt_ratio."""
    return solvers._slow_fast_endpoints(G, H, t, eps, x0, f, h, g, n, seed, dt_ratio, threads)


@pytest.mark.parametrize("name", sorted(solvers.FLOWS))
def test_flows_are_groups_with_their_derivative(name):
    # phi(u + v; x0) = phi(v; phi(u; x0)), phi(u; x0) = phi(u, coordinate(x0)),
    # and d_s phi against central differences
    flow = solvers.FLOWS[name]
    u, v = np.meshgrid(np.linspace(-3.0, 3.0, 13), np.linspace(-2.0, 2.0, 9))
    for x0 in (-2.5, 0.0, 0.7):
        x_u = flow.phi(u, flow.coordinate(x0))
        np.testing.assert_allclose(flow.phi(u + v, flow.coordinate(x0)),
                                   flow.phi(v, flow.coordinate(x_u)), rtol=1e-13, atol=1e-13)
        s, d = flow.coordinate(x0), 1e-6
        central = (flow.phi(u, s + d) - flow.phi(u, s - d)) / (2.0 * d)
        np.testing.assert_allclose(flow.dphi_ds(u, x_u) + 0.0 * u, central,
                                   rtol=1e-8, atol=1e-8)


def test_sin2_coordinate_round_trips_its_flow():
    # F(phi(u, s0)) - F(x0) = u for F the coordinate map, across many periods;
    # criterion 10 maps endpoints back to the driver this way
    u = np.linspace(-20.0, 20.0, 4001)
    for x0 in (0.0, 0.3, -2.0, 7.5):
        s0 = SIN2.coordinate(x0)
        assert abs(SIN2.phi(0.0, s0) - x0) <= 1e-15 * max(1.0, abs(x0))
        np.testing.assert_allclose(SIN2.coordinate(SIN2.phi(u, s0)) - s0, u, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["sin2", "one", "linear"])
def test_flows_match_an_ode_solve(name):
    # each closed form against scipy's integration of dphi/du = f(phi) at rtol 1e-12
    from scipy.integrate import solve_ivp

    flow = solvers.FLOWS[name]
    for x0 in (0.3, -1.2):
        for end in (20.0, -20.0):
            u = np.linspace(0.0, end, 81)
            sol = solve_ivp(lambda _, x: flow.f(x), (0.0, end), [x0], method="DOP853",
                            t_eval=u, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(flow.phi(u, flow.coordinate(x0)), sol.y[0],
                                       rtol=1e-10, atol=1e-11)


def test_linear_flow_overflows_without_a_warning():
    # e^800 overflows: to inf from x0 = 1, which the guard refuses, while
    # from x0 = 0 the flow stays at 0
    u = np.array([800.0, 1.0])
    np.testing.assert_array_equal(LINEAR.phi(u, 1.0), [np.inf, np.e])
    np.testing.assert_array_equal(LINEAR.phi(u, 0.0), [0.0, 0.0])
    with pytest.raises(solvers.BlowUpError, match="at step 1;"):
        solvers.solve_limit_stratonovich(LINEAR, 1.0, None, u[None], 0.0)


def test_slow_fast_endpoints_compute_the_embedding_once(monkeypatch):
    calls = []
    compute = fgn._embedding_eigenvalues

    def spy(acov, n):
        calls.append(n)
        return compute(acov, n)

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", spy)
    _slow_fast(H1, 0.7, 0.1, ONE, _zero, _zero, 600, 3, t=0.2, dt_ratio=10.0)  # three chunks
    assert calls == [20]


def test_young_additive_case():
    grid = TimeGrid(1.0, 100)
    Z = np.sin(grid.times())
    x = solvers.solve_limit_stratonovich(ONE, 2.0, _zero, np.diff(Z), 0.0)
    assert x == pytest.approx(2.0 + Z[-1] - Z[0], rel=1e-14)


def test_young_smooth_driver_exponential_order():
    # Heun on ds = s dV (f = 0, h(x) = x) along V_t = t^2: s_1 = e
    errs = []
    for n in (200, 400, 800, 1600):
        grid = TimeGrid(1.0, n)
        x = solvers.solve_limit_stratonovich(ZERO, 1.0, _identity, np.zeros(n),
                                             np.diff(grid.times() ** 2))
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
    # Heun on ds = s dV along an fBM V (H 0.8): the Young solution e^{V_1}
    grid = TimeGrid(1.0, 4000)
    Z = fbm_paths(grid, 0.8, keys(1, "yfbm", 0, 20))
    dZ = np.diff(Z).T
    x = solvers.solve_limit_stratonovich(ZERO, 1.0, _identity, np.zeros_like(dZ), dZ)
    exact = np.exp(Z[:, -1] - Z[:, 0])
    assert np.max(np.abs(x - exact)) < 0.02 * np.max(exact)


def test_limit_young_drift_only_is_ode_flow():
    grid = TimeGrid(1.0, 2000)
    x = solvers.solve_limit_stratonovich(ZERO, 1.0, _identity, np.zeros(2000), 0.7 * grid.dt)
    assert x == pytest.approx(np.exp(0.7), rel=1e-3)


def test_limit_young_exponential_closed_form():
    grid = TimeGrid(1.0, 4000)
    Z = fbm_paths(grid, 0.8, keys(2, "ly", 0, 20))
    dZ = np.diff(Z).T
    x = solvers.solve_limit_stratonovich(ZERO, 1.0, _identity, np.zeros_like(dZ), dZ)
    exact = np.exp(Z[:, -1])
    assert np.max(np.abs(x - exact)) < 0.02 * np.max(exact)


def test_limit_young_degenerate_constants():
    dU = np.zeros(100)  # c = 0 folded into the driver
    x = solvers.solve_limit_stratonovich(LINEAR, 0.3, _identity, dU, 0.0)
    assert x == 0.3


def test_limit_solvers_reject_driver_off_grid():
    # the drift's increments must lie on the driver's grid
    with pytest.raises(ValueError, match="broadcast"):
        solvers.solve_limit_stratonovich(ZERO, 0.0, _zero, np.zeros((100, 3)),
                                         np.zeros((101, 3)))
    with pytest.raises(ValueError, match="broadcast"):
        solvers.solve_limit_stratonovich(ZERO, 0.0, _zero, np.zeros(100), np.zeros(102))


def test_limit_solver_blows_up_on_a_smooth_driver():
    # dx = (1 + x^2) dV, V_t = t: x = tan(t) passes the guard near t = pi/2
    with pytest.raises(solvers.BlowUpError, match="blew up") as info:
        solvers.solve_limit_stratonovich(ZERO, 0.0, lambda u: 1.0 + u**2, np.zeros(400),
                                         np.full(400, 0.01))
    step = int(str(info.value).split("at step ")[1].split(";")[0])
    assert 157 <= step <= 170


def _heun_loop(flow, x0, h, dU, dV):
    """Heun's scheme for ds = h(x) / d_s phi dV, x = phi(U, s), one scalar step at a time."""
    u, s, x = 0.0, flow.coordinate(x0), x0
    for du, dv in zip(dU, dV):
        b = h(x) / flow.dphi_ds(u, x)
        u += du
        pred = flow.phi(u, s + b * dv)
        s = s + 0.5 * (b + h(pred) / flow.dphi_ds(u, pred)) * dv
        x = flow.phi(u, s)
    return x


def test_batched_limit_solvers_match_one_row_calls():
    grid = TimeGrid(1.0, 500)
    dU = np.diff(0.8 * fbm_paths(grid, 0.7, keys(7, "batch", 0, 5))).T
    dV = 0.6 * grid.dt
    f, h = SIN2, lambda u: np.cos(u)
    heun = solvers.solve_limit_stratonovich(f, 0.4, h, dU, dV)
    assert heun.shape == (5,)
    for r in range(5):
        np.testing.assert_allclose(
            heun[r : r + 1], solvers.solve_limit_stratonovich(f, 0.4, h, dU[:, r : r + 1], dV),
            rtol=0, atol=1e-14)
        # a single path is the one-row case
        np.testing.assert_allclose(
            heun[r], solvers.solve_limit_stratonovich(f, 0.4, h, dU[:, r], dV),
            rtol=0, atol=1e-14)
        # the scalar per-replica loop is the reference
        np.testing.assert_allclose(heun[r], _heun_loop(f, 0.4, h, dU[:, r], np.full(500, dV)),
                                   rtol=0, atol=1e-14)


def test_drift_along_the_field_is_exact_at_any_step_count():
    # h = f = sin + 2 makes ds = dV, so three steps give phi(U_T, s0 + V_T)
    # to rounding; without a drift no step is taken and x_T = phi(U_T, s0)
    dU = 0.9 * stream(3, "exact-drift").standard_normal((3, 50))
    dV = np.array([0.2, -0.1, 0.4])[:, None]
    s0 = SIN2.coordinate(0.4)
    np.testing.assert_allclose(solvers.solve_limit_stratonovich(SIN2, 0.4, _sin2, dU, dV),
                               SIN2.phi(dU.sum(axis=0), s0 + 0.5), rtol=0, atol=1e-13)
    np.testing.assert_array_equal(solvers.solve_limit_stratonovich(SIN2, 0.4, None, dU, dV),
                                  SIN2.phi(dU.sum(axis=0), s0))


@pytest.mark.parametrize("name", sorted(solvers.FLOWS))
def test_drift_along_the_flows_own_field_takes_no_step(name):
    # h is f: dx = f(x) d(U + V), so x_T = phi(U_T + V_T, s0) with no step;
    # Heun on 4,000 steps, handed a copy of f, reaches it to its own error
    flow, n = solvers.FLOWS[name], 4000
    dU = 0.8 * stream(9, f"commuting-{name}").standard_normal((n, 3)) / np.sqrt(n)
    closed = solvers.solve_limit_stratonovich(flow, 0.4, flow.f, dU, 0.6 / n)
    np.testing.assert_array_equal(
        closed, flow.phi((dU + 0.6 / n).sum(axis=0), flow.coordinate(0.4)))
    heun = solvers.solve_limit_stratonovich(flow, 0.4, lambda x: flow.f(x), dU, 0.6 / n)
    np.testing.assert_allclose(closed, heun, rtol=1e-8, atol=1e-12)


def test_drift_along_the_field_still_refuses_an_overflow():
    # x0 e^{U + V} past the float range: with no step, the endpoint guard refuses it
    with pytest.raises(solvers.BlowUpError, match="at step 10;"):
        solvers.solve_limit_stratonovich(LINEAR, 1.0, LINEAR.f, np.full((10, 2), 80.0), 0.5)


@pytest.mark.parametrize("H", [0.6, 0.7])
def test_brownian_limit_steps_are_within_1e_4_of_a_fine_solve(H, monkeypatch):
    # the 100 steps of the Brownian limit (He_2, f = sin + 2, h = 1, g = cos)
    # against 400 on the same paths, 20,000 of them: the relative Var x_1
    # gap reads 8.9e-6 (H 0.6) and -2.6e-6 (H 0.7); at 3,200 steps the
    # 100-step gap is -3.0e-6 and 7.7e-6
    steps = []
    solve = solvers.solve_limit_stratonovich

    def spy(flow, x0, h, dU, dV):
        steps.append(len(dU))
        return solve(flow, x0, h, dU, dV)

    monkeypatch.setattr(solvers, "solve_limit_stratonovich", spy)
    solvers._limit_endpoints(H2, H, 1.0, 0.0, SIN2, _one, 0.6, 3, 0)
    assert steps == [100]

    c, g_bar, fine = chaos.c_constant(H2, H), np.exp(-0.5), 400
    coarse_x, fine_x = [], []
    for i in range(4):
        dW = normals(keys(44, "bias-paths", 5000 * i, 5000), np.empty((5000, fine))).T
        dW *= c / np.sqrt(fine)
        fine_x.append(solve(SIN2, 0.0, _one, dW, g_bar / fine))
        coarse_x.append(solve(SIN2, 0.0, _one, dW.reshape(100, -1, 5000).sum(axis=1),
                              g_bar / 100))
    gap = np.var(np.concatenate(coarse_x)) / np.var(np.concatenate(fine_x)) - 1.0
    assert abs(gap) < 1e-4


def test_stratonovich_deterministic_when_c_zero():
    grid = TimeGrid(1.0, 1000)
    x = solvers.solve_limit_stratonovich(LINEAR, 1.0, _identity, np.zeros(1000),
                                         0.5 * grid.dt)
    assert x == pytest.approx(np.exp(0.5), rel=1e-4)


def test_stratonovich_additive_matches_quadrature():
    # additive noise, linear drift: x_t = e^{g_bar t} x0 + c int e^{g_bar (t - s)} dW_s,
    # the stochastic integral taken at the midpoints of the steps
    grid = TimeGrid(1.0, 2000)
    dW = stream(4, "wa").standard_normal(2000) * np.sqrt(grid.dt)
    c, g_bar = 0.7, 0.3
    x = solvers.solve_limit_stratonovich(ONE, 0.2, _identity, c * dW, g_bar * grid.dt)
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
    x = solvers.solve_limit_stratonovich(LINEAR, 1.0, _identity, c * dW, g_bar * grid.dt)
    resid = np.log(x) - c * dW.sum(axis=0) - g_bar
    assert abs(resid.mean()) < 0.01
    assert abs(resid.mean()) < 0.1 * c**2 / 2


@pytest.mark.parametrize("a2", [1.0, -1.0])
def test_long_range_limit_is_driven_by_the_hermite_path(a2):
    # additive noise and constant drift: the s step is exact, so the limit endpoint
    # is x0 + g_bar t + sign(a_2) c Z_t with Z the Hermite path itself
    from foulim import hermite

    H, t, x0, seed, n = 0.85, 1.0, 0.3, 17, 6
    G = ChaosFunction([0, 0, a2])
    x = solvers._limit_endpoints(G, H, t, x0, ONE, _one, 1.0, n, seed)
    regime = chaos.classify_regime(2, H)
    engine = hermite.HermiteEngine(TimeGrid(t, 400), regime.h_star, 2)
    z = hermite.hermite_ensemble(engine, keys(seed, "limit-endpoint-z", 0, n))[:, 0]
    expect = x0 + t + np.sign(a2) * chaos.c_constant(G, H) * z
    np.testing.assert_allclose(x, expect, rtol=0, atol=1e-12)


def _hermite_limit_args(n, seed=23):
    G = ChaosFunction([0, 0, -1.0])
    return (G, 0.85, 1.0, 0.0, ONE, None, 0.0, n, seed)


def test_limit_endpoint_samples_agree_with_one_hermite_call():
    # 300 replicas, a full chunk and a partial one: without a drift and with
    # f = 1 the samples are the driver sign(a_2) c Z_t, and each chunk's rows
    # agree with one call over all replicas to rounding
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
    # short range and boundary without drift, f = 1: row i of the driver is
    # c sqrt(t) times the first normal of stream (seed, "limit-endpoint", i),
    # whatever the worker count
    t, n, seed = 0.7, 300, 29
    out = [solvers._limit_endpoints(H2, H, t, 0.0, ONE, None, 0.0, n, seed, threads)
           for threads in (1, 2)]
    np.testing.assert_array_equal(out[0], out[1])
    first = np.array([stream(seed, "limit-endpoint", i).standard_normal() for i in range(n)])
    np.testing.assert_array_equal(out[0], chaos.c_constant(H2, H) * np.sqrt(t) * first)


def test_brownian_limit_with_drift_holds_one_chunk():
    # with drift every replica's 100-step W is solved in flow coordinates;
    # in 250-replica chunks one chunk's increments (0.2 MB) and the stepper's
    # replica-sized arrays are held at a time, 0.25 MB traced
    args = (H2, 0.6, 1.0, 0.0, SIN2, np.cos, 0.5)
    solvers._limit_endpoints(*args, 2, 3)  # warm the imports only
    assert _peak_traced_mb(solvers._limit_endpoints, *args, 600, 3) < 1.0


@pytest.mark.parametrize("eps", [0.02, 0.01])
@pytest.mark.parametrize("H, tol", [(0.6, 2e-3), (0.85, 5e-4)])
def test_flow_path_agrees_with_heun_on_the_same_keys(H, tol, eps):
    # the flow at the trapezoid u against the stepper with zero h and g
    # callables on the same increments, whose s stays at s0 step by step
    flow = _slow_fast(H2, H, eps, SIN2, None, None, 300, 5)
    heun = _slow_fast(H2, H, eps, SIN2, _zero, _zero, 300, 5)
    assert flow.std() > 2.5
    assert np.max(np.abs(flow - heun)) <= tol


def test_flow_path_is_the_flow_map_of_the_trapezoid_driver(monkeypatch):
    # bit for bit, and whatever the sampler's row blocks
    H, eps, n, seed = 0.85, 0.02, 30, 7
    alpha = chaos.classify_regime(2, H).alpha(eps)
    ends = _slow_fast(H2, H, eps, SIN2, None, None, n, seed)
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 1)  # one row per block
    u = harness._fou_endpoint_samples(H2, H, 1.0, eps, n, seed, "slowfast", 50.0, alpha)
    np.testing.assert_array_equal(ends, SIN2.phi(u, SIN2.coordinate(0.0)))


def test_homogenize_without_drift_is_byte_identical_across_threads(tmp_path):
    from foulim import cli

    base = ["homogenize", "--H", "0.7", "--coeffs", "0,0,1", "--hfun", "zero", "--gfun", "cos",
            "--eps", "0.05", "--replicas", "300", "--seed", "8"]
    for threads in (1, 2):
        assert cli.main(base + ["--threads", str(threads),
                                "--out", str(tmp_path / f"t{threads}")]) in (0, 2)
    for ext in ("csv", "json"):
        assert (tmp_path / f"t1.{ext}").read_bytes() == (tmp_path / f"t2.{ext}").read_bytes()


@pytest.mark.parametrize("phi", [lambda u, s: LINEAR.phi(u, s), lambda u, s: np.nan * u])
def test_flow_path_blows_up_within_a_second(phi):
    # x0 e^u past the guard (the driver -100 He_1 reaches u = 163 in one of
    # its 3 replicas), and a flow that gives NaN
    flow = solvers.Flow(_identity, phi, LINEAR.dphi_ds, LINEAR.coordinate)
    start = time.perf_counter()
    with pytest.raises(solvers.BlowUpError, match="blew up"):
        _slow_fast(ChaosFunction([0, -100.0]), 0.7, 0.1, flow, None, None, 3, 0, x0=5.0)
    assert time.perf_counter() - start < 1.0


def test_flow_path_builds_no_chunk_path_matrix():
    # a 250-replica chunk at eps 0.01 has 5,001 x 250 paths, 10 MB; the flow
    # path reduces each row block of the sampler as it is drawn (2.7 MB traced)
    _slow_fast(H2, 0.6, 0.01, SIN2, None, None, 2, 4)  # warm the imports
    assert _peak_traced_mb(_slow_fast, H2, 0.6, 0.01, SIN2, None, None, 250, 4) \
        < 0.5 * 8 * 5_001 * 250 / 1e6


def test_drift_free_homogenize_is_the_flow_of_both_drivers(monkeypatch):
    # each side is phi(U_t, s0) at its own driver, with no step taken
    steps = []
    solve = solvers.solve_limit_stratonovich

    def spy(flow, x0, h, dU, dV):
        steps.append((h, len(dU)))
        return solve(flow, x0, h, dU, dV)

    monkeypatch.setattr(solvers, "solve_limit_stratonovich", spy)
    H, eps, n, seed, x0 = 0.85, 0.02, 40, 6, 0.3
    x, lim = solvers.homogenize(H2, H, eps, SIN2, None, None, n, seed, x0=x0)
    assert set(steps) == {(None, 1)}
    ratio = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n)[0]["dt_ratio"]
    u_eps = solvers._slow_fast_endpoints(H2, H, 1.0, eps, 0.0, ONE, None, None, n, seed, ratio)
    u_lim = solvers._limit_endpoints(H2, H, 1.0, 0.0, ONE, None, 0.0, n, seed + 1)
    s0 = SIN2.coordinate(x0)
    np.testing.assert_array_equal(x, SIN2.phi(u_eps, s0))
    np.testing.assert_array_equal(lim, SIN2.phi(u_lim, s0))


def test_multiscale_config_validation():
    # dt = eps/5: the drift path steps Heun on the grid and refuses it; the
    # flow path takes the trapezoid integral there, whose law is exact
    with pytest.raises(ValueError, match="resolve the fast scale"):
        solvers.homogenize(H1, 0.7, 0.01, ZERO, _zero, _zero, 1, 0, dt_ratio=5.0)
    x, _ = solvers.homogenize(H1, 0.7, 0.01, ZERO, None, None, 2, 0, dt_ratio=5.0)
    np.testing.assert_array_equal(x, 0.0)


def test_slow_fast_reduces_to_functional_integral():
    # f = 1, h = 0: the slow variable is the scaled trapezoid integral of G(y)
    eps, H = 0.05, 0.8
    grid = TimeGrid.with_step(1.0, eps / 20.0)
    alpha = chaos.classify_regime(1, H).alpha(eps)
    y = fou.path_sampler(grid, H, eps).batch(keys(33, "slowfast", 0, 50))
    x = _slow_fast(H1, H, eps, ONE, _zero, _zero, 50, 33, dt_ratio=20.0)
    np.testing.assert_allclose(x, harness.functional_values(H1, y, grid.dt, alpha),
                               rtol=0, atol=1e-12)


def test_slow_fast_drift_only_is_the_trapezoid_integral_of_g():
    # f = 0, h = 1: x_t = x0 + int g(y), the trapezoid rule on the solver's grid
    eps, H = 0.05, 0.7
    grid = TimeGrid.with_step(1.0, eps / 20.0)
    y = fou.path_sampler(grid, H, eps).batch(keys(34, "slowfast", 0, 50))
    x = _slow_fast(H2, H, eps, ZERO, _one, np.cos, 50, 34, x0=0.4, dt_ratio=20.0)
    np.testing.assert_allclose(x, 0.4 + harness.functional_values(np.cos, y, grid.dt),
                               rtol=0, atol=1e-12)


def test_slow_fast_ergodic_drift_only():
    # f = 0: dx = h(x) g(y) with h = 1: x_t - x0 -> t * gbar
    g = np.cos
    g_bar = chaos.gaussian_expectation(g)
    ends = []
    for eps, seed in ((0.05, 35), (0.01, 36)):
        end = _slow_fast(H1, 0.7, eps, ZERO, _one, g, 400, seed, dt_ratio=20.0)
        assert end.mean() == pytest.approx(g_bar, abs=0.03)
        ends.append(end.std())
    assert ends[1] < ends[0]


def _blowup(h=lambda x: 50.0 * (1.0 + x**2), n=1, seed=0):
    # f = 0, g = 1: dx = h(x) dt, which for this h passes the guard near t = 0.004
    return _slow_fast(H1, 0.7, 0.1, ZERO, h, _one, n, seed, x0=5.0, dt_ratio=10.0)


def test_slow_fast_blowup_guard():
    with pytest.raises(FloatingPointError, match="blew up"):
        _blowup()


def test_slow_fast_blowup_guard_catches_nan():
    # NaN compares False with the guard, so only an all-finite check sees it
    nan_h = lambda u: np.full_like(np.asarray(u, dtype=float), np.nan)
    with pytest.raises(solvers.BlowUpError, match="at step 1;"):
        _blowup(nan_h, 3)


def test_slow_fast_errors_are_foulim_errors():
    assert issubclass(fgn.SamplerInfeasibleError, FoulimError)
    with pytest.raises(FoulimError) as info:
        _blowup()
    assert type(info.value) is solvers.BlowUpError


def test_slow_fast_endpoints_ignore_row_blocks_and_threads(monkeypatch):
    # 260 replicas, a full chunk and a partial one; the increments of 1-row
    # sampler blocks land in the same columns as those of whole blocks
    args = (H2, 0.85, 0.02, SIN2, _one, np.cos, 260, 9)
    ref = _slow_fast(*args, dt_ratio=25.0)
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 1)  # one row per block
    for threads in (1, 2):
        np.testing.assert_array_equal(_slow_fast(*args, dt_ratio=25.0, threads=threads), ref)


def test_slow_fast_chunk_memory_stays_near_its_paths():
    # one 250-replica chunk at eps 0.01 holds the 5,000 x 250 time-major
    # increments of U and V, 20 MB, and the sampler's row blocks (23.7 MB
    # traced), never the chunk's paths
    _slow_fast(H2, 0.6, 0.01, SIN2, _zero, _zero, 2, 4)  # warm the imports
    peak = _peak_traced_mb(_slow_fast, H2, 0.6, 0.01, SIN2, _zero, _zero, 250, 4)
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
    ends = _slow_fast(H2, H, eps, SIN2, hfun, gfun, n, 12, t=t, dt_ratio=ratio)
    for r in range(n):
        Gy, gy = H2(y[r]), gfun(y[r])
        dU = [0.5 * alpha * grid.dt * (Gy[k] + Gy[k + 1]) for k in range(grid.n_steps)]
        dV = [0.5 * grid.dt * (gy[k] + gy[k + 1]) for k in range(grid.n_steps)]
        assert ends[r] == pytest.approx(_heun_loop(SIN2, 0.0, hfun, dU, dV), rel=0, abs=1e-14)


def test_homogenize_defaults_to_the_coarsest_unbiased_grid(monkeypatch):
    ratios = []
    slow_fast = solvers._slow_fast_endpoints

    def spy(*args):
        ratios.append(args[10])
        return slow_fast(*args)

    monkeypatch.setattr(solvers, "_slow_fast_endpoints", spy)
    solvers.homogenize(H2, 0.85, 0.02, SIN2, None, None, 40, 2)
    solvers.homogenize(H2, 0.05, 0.02, SIN2, None, None, 40, 2, t=0.1)
    # a drift steps Heun on the grid: the coarsest unbiased rung that resolves eps
    solvers.homogenize(H2, 0.85, 0.02, SIN2, _one, np.cos, 40, 2)
    assert ratios == [2.0, exact.resolve_dt_ratio(H2, 0.05, 0.1, [0.02], 40)[0]["dt_ratio"],
                      fou.MIN_STEPS_PER_EPS]
    assert ratios[1] > 10.0


@pytest.mark.parametrize("H", [0.6, 0.85])
@pytest.mark.parametrize("hfun", [_one, _sin2], ids=["one", "sin2"])
def test_heun_error_with_drift_at_the_auto_ratio_fits_the_bias_budget(monkeypatch, H, hfun):
    # each trapezoid step stepped as it is and again on 8 equal substeps: the
    # driver is piecewise linear, so the substep solve is the same driver
    # solved more accurately.  At the drift path's auto ratio (eps/10) and
    # 600 replicas the relative variance gap (-1.9e-6 at H 0.6 and -7.9e-7
    # at 0.85 for h = 1, 0 to rounding for h = f) plus the exact trapezoid
    # bias of the grid fits the budget of 600 replicas, 5.8e-3
    eps, n = 0.02, 600
    resolution, _ = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n, stepped=True)
    ratio, bias, budget = (resolution[k] for k in ("dt_ratio", "trapezoid_bias", "bias_budget"))
    assert ratio == fou.MIN_STEPS_PER_EPS
    heun, fine = solvers.solve_limit_stratonovich, []

    def both(flow, x0, h, dU, dV):
        fine.append(heun(flow, x0, h, np.repeat(dU / 8, 8, axis=0),
                         np.repeat(dV / 8, 8, axis=0)))
        return heun(flow, x0, h, dU, dV)

    monkeypatch.setattr(solvers, "solve_limit_stratonovich", both)
    coarse = _slow_fast(H2, H, eps, SIN2, hfun, np.cos, n, 41, dt_ratio=ratio)
    gap = abs(np.var(coarse) / np.var(np.concatenate(fine)) - 1.0)
    assert gap + abs(bias[0]) <= budget


def test_grid_refinement_stability():
    ends = [_slow_fast(H2, 0.6, 0.05, SIN2, _zero, _zero, 300, 37, dt_ratio=ratio)
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


def test_kinetic_incommensurate_scales_run():
    # 0.1 and 0.1 / pi have no common grid; both read one unit-rate chain
    scan = solvers.kinetic_error_scan(0.5, [0.1, 0.1 / np.pi], TimeGrid(1.0, 10), 200, 0)
    assert scan.meta["identity_defect_max"] <= 1e-12
    assert abs(scan.meta["slope_z"]) <= 3.0


@pytest.mark.parametrize("seed", [4, 18, 20, 48])
def test_kinetic_eps_windows_share_no_pair(seed):
    # at H 0.3 the sup sits inside the window; had 0.1 and 0.05 shared one
    # window, these seeds' sample sups would come from one pair of the chain,
    # exactly proportional, with a CI of zero (or NaN) width
    scan = solvers.kinetic_error_scan(0.3, [0.1, 0.05], TimeGrid(1.0, 50), 150, seed)
    assert scan.slope_ci[1] - scan.slope_ci[0] > 0.05
    assert abs(scan.meta["slope_z"]) <= 3.0


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


def _whole_chunk_kinetic_data(H, eps_list, grid, n_replicas, seed, reduction="unit"):
    """Readings of kinetic_error_scan drawn the whole-chunk way, as a reference.

    Each 250-replica chunk samples its whole fGN matrix in one batch and
    reduces it eps by eps; returns the (replicas, n_eps, 2, n_report)
    array of X - sigma B and eps v.  ``reduction="unit"`` reads every eps
    off its window of one unit-rate chain at times / eps, as the scan does;
    ``"own"`` is the independent long way: each eps runs its own chain, with
    gain sigma / eps^H on its own grid of step eps / MIN_STEPS_PER_EPS up to
    the end of its window, and its own B and X from the window's start by
    cumulative sums, read at the reporting times.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    sigma = fou.stationary_sigma(H)
    dt = 1.0 / fou.MIN_STEPS_PER_EPS
    n_burn = int(round(10.0 / dt))
    n_main = [math.ceil(grid.horizon / eps / dt - 1e-9) for eps in eps_arr]
    starts = np.cumsum([0] + n_main[:-1])
    n_total = n_burn + sum(n_main)
    sampler = fgn.StationarySampler(lambda k: fgn.fgn_autocovariance(k, H), n_total)
    times, a = grid.times(), np.exp(-dt)

    def unit(dB, eps, p, n):
        y = lfilter([dt**H], [1.0, -a], dB, axis=1)
        Y = np.zeros((len(dB), 2, n_total - n_burn + 1))
        np.cumsum((1.0 - a) * y[:, n_burn - 1 : -1] - dt**H * dB[:, n_burn:],
                  axis=1, out=Y[:, 0, 1:])
        Y[:, 1] = y[:, n_burn - 1 :]
        r = solvers._grid_reader(p * dt + times / eps, dt)(Y)
        r[:, 0] -= Y[:, 0, p, None]
        out = sigma * eps**H * r
        return out[:, 0], out[:, 1]

    def own(dB, eps, p, n):
        dB_eps = dB * (eps * dt) ** H
        first = n_burn + p  # the window's first step
        y = lfilter([sigma / eps**H], [1.0, -a], dB_eps[:, : first + n], axis=1)
        y_main = y[:, first - 1 :]
        B_main = np.concatenate(
            [np.zeros((len(dB), 1)), np.cumsum(dB_eps[:, first : first + n], axis=1)], axis=1)
        X = eps**H * (1.0 - a) * np.concatenate(
            [np.zeros((len(dB), 1)), np.cumsum(y_main[:, :-1], axis=1)], axis=1)
        read = solvers._grid_reader(times, eps * dt)
        return read(X - sigma * B_main), read(eps**H * y_main)

    read = {"unit": unit, "own": own}[reduction]

    def make_chunk(chunk_keys):
        dB = sampler.batch(chunk_keys)[:, :n_total]
        out = np.empty((len(dB), len(eps_arr), 2, len(times)))
        for i, (eps, p, n) in enumerate(zip(eps_arr, starts, n_main)):
            out[:, i, 0, :], out[:, i, 1, :] = read(dB, eps, p, n)
        return out

    return harness.run_replicated(n_replicas, seed, "kinetic", make_chunk)


KINETIC_EPS_LISTS = [
    [0.1, 0.05, 0.02, 0.01],   # the CLI default
    [0.1, 0.03, 0.01],         # eps 0.03 reads between unit-rate grid points
    [0.07, 0.05, 0.03],        # and so do 0.07 and 0.03, with no common grid
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
    # the scan and its whole-chunk reference both run the unit-rate chain on
    # step 1 / MIN_STEPS_PER_EPS, which is dt = eps / MIN_STEPS_PER_EPS for every eps
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
    # 10 units of burn-in and windows of 1 / 0.1 and 1 / 0.05 units at step 1 / 20
    assert lengths == [800, 800]
    np.testing.assert_array_equal(captured[0], ref)


@pytest.mark.parametrize("eps_list", KINETIC_EPS_LISTS)
def test_prefix_sum_readings_match_block_sums(eps_list):
    # the scan's readings off one unit-rate chain against each eps's own
    # chain on its own grid, on the same draws: equal to rounding (self-
    # similarity), with the on-grid identity intact
    grid = TimeGrid(1.0, 20)
    ref = _whole_chunk_kinetic_data(0.7, eps_list, grid, 30, 43, reduction="own")
    new = _whole_chunk_kinetic_data(0.7, eps_list, grid, 30, 43)
    np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12 * np.max(np.abs(new)))
    scan = solvers.kinetic_error_scan(0.7, eps_list, grid, 30, 43)
    assert scan.meta["identity_defect_max"] < 1e-12


def test_kinetic_scan_memory_stays_below_a_chunk_matrix():
    # one 250-replica chunk of 1,900-step fGN is 3.8 MB, and the whole-chunk
    # reduction held about a dozen arrays of that size (221 MB traced at
    # 400 replicas on the 20,000-step grid of 100 steps per eps); streamed,
    # only row blocks are held (5.8 MB traced)
    tracemalloc.start()
    try:
        solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.02, 0.01], TimeGrid(1.0, 50), 400, 3)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 12.0


def _broadcast_holder_seminorms(d, times, gam):
    """Each replica's Hoelder seminorm over the ordered pairs at dyadic index
    lags 1, 2, 4, ..., by one (replicas, n_report, n_report) broadcast with
    every other pair masked out, as a reference."""
    idx = np.arange(len(times))
    lag = np.abs(idx[:, None] - idx[None, :])
    span = np.where((lag > 0) & (lag & (lag - 1) == 0),
                    np.abs(times[:, None] - times[None, :]), np.inf)
    return np.max(np.abs(d[:, :, None] - d[:, None, :]) / span**gam, axis=(1, 2))


def _pairwise_statistics(data, times, h):
    """sup pair L2 error and mean dyadic-lag Hoelder seminorm per eps, from
    the full (replicas, n_report, n_report) pairwise arrays, as a reference."""
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


def _gram_sup_pairs(data):
    """sup pair L2 error and its SE per eps from one (n_report + 1)^2 Gram matrix
    of the readings and its flat argmax, as a reference."""
    sup, se = [], []
    for i in range(data.shape[1]):
        d = np.ascontiguousarray(data[:, i, 0, :])
        gram = d.T @ d / len(d)
        sq = np.diag(gram)
        pair_sq = sq[:, None] + sq[None, :] - 2.0 * gram
        j, k = np.unravel_index(np.argmax(pair_sq), pair_sq.shape)
        sup.append(np.sqrt(pair_sq[j, k]))
        worst = (d[:, j] - d[:, k]) ** 2
        se.append(0.5 * np.std(worst, ddof=1) / np.sqrt(len(worst)) / sup[-1])
    return np.array(sup), np.array(se)


@pytest.mark.parametrize("n_report, eps_list", [
    (1, [0.1, 0.05]), (7, [0.1, 0.05]), (50, [0.1, 0.05, 0.02]), (50, [0.07, 0.05, 0.03])])
def test_kinetic_scan_blocked_sup_equals_the_gram_form(n_report, eps_list, monkeypatch):
    # three rows a block: several blocks and, but at n_report 1, a partial last one
    monkeypatch.setattr(fgn, "BLOCK_BYTES", 8 * 3 * (n_report + 1))
    captured = []
    run = solvers.run_replicated

    def spy(*args, **kwargs):
        captured.append(run(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(solvers, "run_replicated", spy)
    scan = solvers.kinetic_error_scan(0.7, eps_list, TimeGrid(1.0, n_report), 60, 8)
    sup, se = _gram_sup_pairs(captured[0])
    np.testing.assert_allclose(scan.values, sup, rtol=1e-12, atol=0)
    np.testing.assert_allclose(scan.stderrs, se, rtol=1e-12, atol=0)


@pytest.mark.parametrize("H, n_report", [(0.3, 50), (0.7, 1), (0.7, 7)])
def test_kinetic_holder_seminorms_equal_the_broadcast_form(H, n_report, monkeypatch):
    # each dyadic lag once, against the masked pairs all at once, bit for
    # bit: on the scan's readings and its mean, and on a non-uniform grid
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
    # comes from those products, against their exact covariance
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
        idx = np.arange(grid.n_steps + 1)
        cov = exact._kinetic_reading_covariance(H, eps, grid.times(),
                                                fou.MIN_STEPS_PER_EPS)(idx[:, None], idx)
        assert np.max(np.abs(prod.mean(axis=0) - cov) / se) < 4.0, eps
    np.testing.assert_allclose(
        scan.meta["exact_values"],
        exact.kinetic_sup_errors(H, eps_list, grid.times(), fou.MIN_STEPS_PER_EPS), rtol=0)
    assert scan.meta["exact_slope"] == exact.loglog_slope(eps_list, scan.meta["exact_values"])
    assert scan.meta["holder_slope"] == exact.loglog_slope(eps_list,
                                                           scan.meta["holder_seminorm"])


def test_kinetic_scan_refuses_fewer_than_two_distinct_scales(monkeypatch):
    # one eps has no slope (its fit divided by zero and wrote NaN); checked before drawing
    monkeypatch.setattr(fgn, "StationarySampler", None)
    for eps_list in ([0.1], [0.1, 0.1]):
        with pytest.raises(ValueError, match="at least 2 distinct eps"):
            solvers.kinetic_error_scan(0.7, eps_list, TimeGrid(1.0, 10), 2, 0)


def test_kinetic_scan_memory_above_the_old_reporting_cap():
    # 1,501 reporting times, over the 1,449 that a 16 MiB pairwise array
    # allowed: the sample and exact sups take the second moments in blocks
    # (8.7 MB traced; the dense exact form alone took 185 MB at 1,448 times)
    tracemalloc.start()
    try:
        solvers.kinetic_error_scan(0.7, [0.1, 0.05], TimeGrid(1.0, 1500), 20, 5)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 20.0


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
