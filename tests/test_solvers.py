import math
import time
import tracemalloc

import numpy as np
import pytest

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
    solvers._limit_endpoints(H2, H, chaos.c_constant(H2, H), 1.0, 0.0, SIN2, _one, 0.6, 3, 0)
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


def test_hermite_limit_steps_are_within_2e_5_of_the_whole_path(monkeypatch):
    # the 100 steps of the long-range limit (He_2 at H 0.85, f = sin + 2,
    # h = 1, g = cos), Z at every fourth point of its 400-step path, against
    # all 400 steps of the same 4,000 paths: the relative Var x_1 gap reads
    # 7.4e-6, near the 7.7e-6 the Brownian 100 steps were accepted with
    from foulim import hermite

    H, n, seed = 0.85, 4000, 45
    c, g_bar = chaos.c_constant(H2, H), np.exp(-0.5)
    steps, solve = [], solvers.solve_limit_stratonovich

    def spy(flow, x0, h, dU, dV):
        steps.append(len(dU))
        return solve(flow, x0, h, dU, dV)

    monkeypatch.setattr(solvers, "solve_limit_stratonovich", spy)
    coarse = solvers._limit_endpoints(H2, H, c, 1.0, 0.0, SIN2, _one, g_bar, n, seed)
    assert set(steps) == {100}
    engine = hermite.HermiteEngine(TimeGrid(1.0, 400), chaos.classify_regime(2, H).h_star, 2)
    k, fine = keys(seed, "limit-endpoint-z", 0, n), []
    for a in range(0, n, 250):  # the run's chunks, whose GEMM rounding the paths share
        path = hermite.hermite_ensemble(engine, k[a : a + 250], np.arange(401))
        fine.append(solve(SIN2, 0.0, _one, np.ascontiguousarray(c * np.diff(path).T), g_bar / 400))
    gap = np.var(coarse) / np.var(np.concatenate(fine)) - 1.0
    assert abs(gap) < 2e-5


@pytest.mark.parametrize("H", [0.6, 0.85])
def test_drift_free_limit_is_the_flow_at_its_drivers_endpoint(H):
    # no drift: phi(c W_t, s0), W_t = sqrt(t) times the first normal of each
    # replica's stream, or phi(sign(a_2) c Z_t, s0), Z_t alone from the
    # 400-step engine in the run's 250-replica chunks; bit for bit
    from foulim import hermite

    G, t, x0, n, seed = ChaosFunction([0, 0, -1.0]), 0.9, 0.3, 300, 31
    c = chaos.c_constant(G, H)
    x = solvers._limit_endpoints(G, H, c, t, x0, SIN2, None, 0.0, n, seed)
    if H == 0.6:
        w = np.array([stream(seed, "limit-endpoint", i).standard_normal() for i in range(n)])
        drive = w * (c * np.sqrt(t))
    else:
        engine = hermite.HermiteEngine(TimeGrid(t, 400), chaos.classify_regime(2, H).h_star, 2)
        k = keys(seed, "limit-endpoint-z", 0, n)
        drive = -c * np.concatenate([hermite.hermite_ensemble(engine, k[a : a + 250])
                                     for a in (0, 250)])[:, 0]
    np.testing.assert_array_equal(x, SIN2.phi(drive, SIN2.coordinate(x0)))


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
    c = chaos.c_constant(G, H)
    x = solvers._limit_endpoints(G, H, c, t, x0, ONE, _one, 1.0, n, seed)
    regime = chaos.classify_regime(2, H)
    engine = hermite.HermiteEngine(TimeGrid(t, 400), regime.h_star, 2)
    z = hermite.hermite_ensemble(engine, keys(seed, "limit-endpoint-z", 0, n))[:, 0]
    expect = x0 + t + np.sign(a2) * c * z
    np.testing.assert_allclose(x, expect, rtol=0, atol=1e-12)


def _hermite_limit_args(n, seed=23):
    G = ChaosFunction([0, 0, -1.0])
    return (G, 0.85, chaos.c_constant(G, 0.85), 1.0, 0.0, ONE, None, 0.0, n, seed)


def test_limit_endpoint_samples_agree_with_one_hermite_call():
    # 300 replicas, a full chunk and a partial one: without a drift and with
    # f = 1 the samples are the driver sign(a_2) c Z_t, and each chunk's rows
    # agree with one call over all replicas to rounding
    from foulim import hermite

    G, H, c, t, *_, n, seed = _hermite_limit_args(300)
    regime = chaos.classify_regime(2, H)
    engine = hermite.HermiteEngine(TimeGrid(t, 400), regime.h_star, 2)
    z = hermite.hermite_ensemble(engine, keys(seed, "limit-endpoint-z", 0, n))[:, 0]
    expect = -c * z
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
    c = chaos.c_constant(H2, H)
    out = [solvers._limit_endpoints(H2, H, c, t, 0.0, ONE, None, 0.0, n, seed, threads)
           for threads in (1, 2)]
    np.testing.assert_array_equal(out[0], out[1])
    first = np.array([stream(seed, "limit-endpoint", i).standard_normal() for i in range(n)])
    np.testing.assert_array_equal(out[0], c * np.sqrt(t) * first)


def test_brownian_limit_with_drift_holds_one_chunk():
    # with drift every replica's 100-step W is solved in flow coordinates;
    # in 250-replica chunks one chunk's increments (0.2 MB) and the stepper's
    # replica-sized arrays are held at a time, 0.25 MB traced
    args = (H2, 0.6, chaos.c_constant(H2, 0.6), 1.0, 0.0, SIN2, np.cos, 0.5)
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
    run = solvers.homogenize(H2, H, eps, SIN2, None, None, n, seed, x0=x0)
    assert set(steps) == {(None, 1)}
    resolution, var = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n)
    assert run.resolution["dt_ratio"] == resolution["dt_ratio"] and run.variance == var[0]
    assert run.steps == {"limit_steps": 1, "hermite_steps": 400} and run.g_bar == 0.0
    u_eps = solvers._slow_fast_endpoints(H2, H, 1.0, eps, 0.0, ONE, None, None, n, seed,
                                         resolution["dt_ratio"])
    assert run.c == chaos.c_constant(H2, H)
    u_lim = solvers._limit_endpoints(H2, H, run.c, 1.0, 0.0, ONE, None, 0.0, n, seed + 1)
    s0 = SIN2.coordinate(x0)
    np.testing.assert_array_equal(run.x_eps, SIN2.phi(u_eps, s0))
    np.testing.assert_array_equal(run.x_lim, SIN2.phi(u_lim, s0))


@pytest.mark.parametrize("H", [0.6, 0.85])
def test_commuting_drift_is_the_flow_at_both_drivers_endpoints(H):
    # h = f: each side is phi(U_t + V_t, s0) with no step, the slow/fast side
    # at the trapezoid integrals of alpha He_2 and cos, the limit at
    # c W_t (one normal) or sign(a_2) c Z_t, plus g_bar t
    from foulim import hermite

    eps, n, seed, x0, t = 0.02, 300, 14, 0.4, 0.8
    run = solvers.homogenize(H2, H, eps, SIN2, SIN2.f, np.cos, n, seed, t=t, x0=x0)
    assert run.steps["limit_steps"] == 1
    ratio, s0 = run.resolution["dt_ratio"], SIN2.coordinate(x0)
    alpha = chaos.classify_regime(2, H).alpha(eps)
    u, v = (harness._fou_endpoint_samples(G, H, t, eps, n, seed, "slowfast", ratio, a)
            for G, a in ((H2, alpha), (np.cos, 1.0)))
    np.testing.assert_allclose(run.x_eps, SIN2.phi(u + v, s0), rtol=0, atol=1e-14)
    if H == 0.6:
        w = np.array([stream(seed + 1, "limit-endpoint", i).standard_normal() for i in range(n)])
        drive = run.c * np.sqrt(t) * w
    else:
        # Z_t in the run's 250-replica chunks, whose GEMM rounding it shares
        engine = hermite.HermiteEngine(TimeGrid(t, 400), chaos.classify_regime(2, H).h_star, 2)
        k = keys(seed + 1, "limit-endpoint-z", 0, n)
        drive = run.c * np.concatenate([hermite.hermite_ensemble(engine, k[a : a + 250])[:, 0]
                                        for a in (0, 250)])
    np.testing.assert_allclose(run.x_lim, SIN2.phi(drive + run.g_bar * t, s0), rtol=0, atol=1e-14)


def test_multiscale_config_validation():
    # dt = eps/5: the drift path steps Heun on the trapezoid increments of the
    # grid and the flow path takes their sum, both on a law that is exact;
    # a ratio with no finite step count is refused
    for h in (_zero, None):
        x = solvers._slow_fast_endpoints(H1, 0.7, 1.0, 0.01, 0.0, ZERO, h, h, 2, 0, 5.0)
        np.testing.assert_array_equal(x, 0.0)
    with pytest.raises(ValueError, match="no finite step count"):
        solvers._slow_fast_endpoints(H1, 0.7, 1.0, 0.01, 0.0, ZERO, _zero, _zero, 1, 0, np.inf)


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
    # a drift steps Heun on the same coarsest unbiased rung
    solvers.homogenize(H2, 0.85, 0.02, SIN2, _one, np.cos, 40, 2)
    assert ratios == [2.0, exact.resolve_dt_ratio(H2, 0.05, 0.1, [0.02], 40)[0]["dt_ratio"],
                      2.0]
    assert ratios[1] > 10.0


@pytest.mark.parametrize("H", [0.6, 0.85])
@pytest.mark.parametrize("hfun", [_one, _sin2], ids=["one", "sin2"])
def test_heun_error_with_drift_at_the_auto_ratio_fits_the_bias_budget(monkeypatch, H, hfun):
    # each trapezoid step stepped as it is and again on 8 equal substeps: the
    # driver is piecewise linear, so the substep solve is the same driver
    # solved more accurately.  At the auto ratio (eps/5 at H 0.6, eps/2 at
    # 0.85) and 600 replicas the relative variance gap (6.1e-6 and 8.5e-6
    # for h = 1, 0 to rounding for h = f) plus the exact trapezoid bias of
    # the grid fits the budget of 600 replicas, 5.8e-3
    eps, n = 0.02, 600
    resolution, _ = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n)
    ratio, bias, budget = (resolution[k] for k in ("dt_ratio", "trapezoid_bias", "bias_budget"))
    assert ratio == {0.6: 5.0, 0.85: 2.0}[H]
    heun, fine = solvers.solve_limit_stratonovich, []

    def both(flow, x0, h, dU, dV):
        fine.append(heun(flow, x0, h, np.repeat(dU / 8, 8, axis=0),
                         np.repeat(dV / 8, 8, axis=0)))
        return heun(flow, x0, h, dU, dV)

    monkeypatch.setattr(solvers, "solve_limit_stratonovich", both)
    coarse = _slow_fast(H2, H, eps, SIN2, hfun, np.cos, n, 41, dt_ratio=ratio)
    gap = abs(np.var(coarse) / np.var(np.concatenate(fine)) - 1.0)
    assert gap + abs(bias[0]) <= budget


def _relative_variance_gap(a, b):
    """var(a) / var(b) - 1 and its influence function, one value per sample."""
    va, vb = np.var(a), np.var(b)
    infl = ((a - a.mean()) ** 2 - va) / vb - va / vb**2 * ((b - b.mean()) ** 2 - vb)
    return va / vb - 1.0, infl


@pytest.mark.parametrize("H", [0.6, 0.85])
def test_drift_at_the_auto_rung_matches_a_fine_solve_on_the_same_paths(H):
    # He_2 at eps 0.02, f = sin + 2, g = cos, x0 = 0.7: Heun on the auto rung's
    # own trapezoid increments (eps/3 and eps/5 for 40 and 600 replicas at
    # H 0.6, eps/2 at 0.85), read off eps/30 paths, against Heun on all of
    # them, 2,000 coupled replicas.  The relative variance gap of x is taken
    # with the driver's exact trapezoid gap between the two grids as a
    # control variate, and is within 3 of its SEs of the bias budget of the
    # rung's replicas, as a scan's gates are (H 0.6 with h = x reads 4e-3 to
    # 6e-3, SE 1.7e-3, against 5.8e-3); the mean gap is within a tenth of
    # the SE of a mean of the rung's replicas
    eps, ref, N, x0 = 0.02, 30.0, 2000, 0.7
    fine = TimeGrid.with_step(1.0, eps / ref)
    y = fou.path_sampler(fine, H, eps).batch(keys(51, "coupled-drift", 0, N))
    alpha = chaos.classify_regime(2, H).alpha(eps)

    def increments(path, dt):
        return [(0.5 * scale * dt * (v[:, :-1] + v[:, 1:])).T
                for v, scale in ((H2(path), alpha), (np.cos(path), 1.0))]

    dU_fine, dV_fine = increments(y, fine.dt)
    x_fine = {h: solvers.solve_limit_stratonovich(SIN2, x0, h, dU_fine, dV_fine)
              for h in (_one, _identity)}
    for n in (40, 600):
        resolution = exact.resolve_dt_ratio(H2, H, 1.0, [eps], n)[0]
        ratio, budget = resolution["dt_ratio"], resolution["bias_budget"]
        assert ratio < fou.MIN_STEPS_PER_EPS and ref % ratio == 0.0
        k = int(ref / ratio)
        dU, dV = increments(y[:, ::k], k * fine.dt)
        u_gap, u_infl = _relative_variance_gap(dU.sum(axis=0), dU_fine.sum(axis=0))
        u_exact = (exact.trapezoid_variance(H2, H, 1.0, eps, ratio)
                   / exact.trapezoid_variance(H2, H, 1.0, eps, ref) - 1.0)
        for h, xf in x_fine.items():
            x = solvers.solve_limit_stratonovich(SIN2, x0, h, dU, dV)
            x_gap, x_infl = _relative_variance_gap(x, xf)
            gap, se = x_gap - u_gap + u_exact, np.std(x_infl - u_infl) / np.sqrt(N)
            assert abs(gap) <= budget + 3.0 * se
            assert abs(x.mean() - xf.mean()) <= 0.1 * xf.std() / np.sqrt(n)


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
    # window, their errors could be read off one pair of the chain, exactly
    # proportional, with a CI of zero (or NaN) width
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

    Each eps draws its own ensemble (stream "kinetic-eps{i}") of unit-rate
    chains on the lattice of stride s its readings touch, with autocovariance
    R(s k) from the one R the scan computes out to the longest window; each
    250-replica chunk samples its whole matrix of lattice rows in one batch.
    Returns the (replicas, n_eps, 2, n_report) array of X - sigma B and eps v.
    ``reduction="unit"`` reads the prefix sums of the lattice increments
    y_{(k-1)s} - y_{ks} at times / eps, as the scan does; ``"own"`` takes
    X - sigma B = sigma eps^H (y_0 - y) and eps v = sigma eps^H y in closed
    form and reads them on the eps's own time grid of step eps s dt.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    dt = 1.0 / fou.MIN_STEPS_PER_EPS
    times = grid.times()
    R = exact.kinetic_chain_autocovariance(H, dt, math.ceil(grid.horizon / eps_arr[-1] / dt
                                                            - 1e-9) + 1)
    out = np.empty((n_replicas, len(eps_arr), 2, len(times)))
    for i, eps in enumerate(eps_arr):
        lo, w = exact.reading_weights(times / eps, dt)
        touched = [int(p) for p in lo] + [int(p) + 1 for p in lo[w > 0]]
        s = math.gcd(*touched)

        def acov(k, s=s):
            big = s * k[-1] >= len(R)
            return (exact.kinetic_chain_autocovariance(H, dt, s * k[-1] + 1) if big else R)[s * k]

        sampler = fgn.StationarySampler(acov, max(touched) // s)

        def unit(y, eps=eps, s=s):
            Y = np.zeros((len(y), 2, y.shape[1]))
            Y[:, 0, 1:] = np.cumsum(y[:, :-1] - y[:, 1:], axis=1)
            Y[:, 1] = y
            return solvers._grid_reader(times / eps, s * dt)(Y)

        def own(y, eps=eps, s=s):
            read = solvers._grid_reader(times, eps * s * dt)
            return np.stack([read(y[:, :1] - y), read(y)], axis=1)

        read = {"unit": unit, "own": own}[reduction]
        out[:, i] = fou.stationary_sigma(H) * eps**H * harness.run_replicated(
            n_replicas, seed, f"kinetic-eps{i}", lambda k: read(sampler.batch(k)))
    return out


def _capture_kinetic_readings(monkeypatch):
    """Record the (rows, 2, n_report) readings that the kinetic scan reduces, in call
    order; returns a function of n_eps that stacks those of one single-thread scan
    as (replicas, n_eps, 2, n_report)."""
    blocks = []
    statistics = solvers._kinetic_statistics

    def spy(r, *args):
        blocks.append(r.copy())
        return statistics(r, *args)

    monkeypatch.setattr(solvers, "_kinetic_statistics", spy)
    return lambda n_eps: np.stack(np.split(np.concatenate(blocks), n_eps), axis=1)


def _spy_samplers(monkeypatch):
    """A list that collects (n, length, sampler) for every StationarySampler made."""
    made = []

    class Spy(fgn.StationarySampler):
        def __init__(self, acov, n, length=None):
            super().__init__(acov, n, length)
            made.append((n, self.length, self))

    monkeypatch.setattr(fgn, "StationarySampler", Spy)
    return made


KINETIC_EPS_LISTS = [
    [0.1, 0.05, 0.02, 0.01],   # the CLI default
    [0.1, 0.03, 0.01],         # eps 0.03 reads between unit-rate grid points
    [0.07, 0.05, 0.03],        # and so do 0.07 and 0.03, with no common grid
]


@pytest.mark.parametrize("eps_list", KINETIC_EPS_LISTS)
def test_streamed_kinetic_scan_matches_whole_chunk_reference(eps_list, monkeypatch):
    # 260 replicas: a full 250-replica chunk and a partial one, each
    # streamed in row blocks; the readings bit for bit, on 1 and 2 threads
    grid = TimeGrid(1.0, 20)
    ref = _whole_chunk_kinetic_data(0.7, eps_list, grid, 260, 41)
    two = solvers.kinetic_error_scan(0.7, eps_list, grid, 260, 41, threads=2)
    readings = _capture_kinetic_readings(monkeypatch)
    one = solvers.kinetic_error_scan(0.7, eps_list, grid, 260, 41)
    np.testing.assert_array_equal(readings(len(eps_list)), ref)
    for key in ("holder_seminorm", "exact_values"):
        np.testing.assert_array_equal(one.meta[key], two.meta[key])
    np.testing.assert_array_equal(one.values, two.values)
    np.testing.assert_array_equal(one.stderrs, two.stderrs)
    assert one.slope_ci == two.slope_ci
    assert one.meta["identity_defect_max"] < 1e-6


def test_kinetic_scan_grid_follows_the_resolution_rule(monkeypatch):
    # the scan and its whole-chunk reference both run the unit-rate chain on
    # step 1 / MIN_STEPS_PER_EPS, which is dt = eps / MIN_STEPS_PER_EPS for every
    # eps, and compute its covariance once, out to the longest window
    monkeypatch.setattr(fou, "MIN_STEPS_PER_EPS", 20.0)
    chain_steps = []
    chain_acov = exact.kinetic_chain_autocovariance

    def spy(H, r, n_lags):
        chain_steps.append((r, n_lags))
        return chain_acov(H, r, n_lags)

    monkeypatch.setattr(exact, "kinetic_chain_autocovariance", spy)
    grid, eps_list = TimeGrid(1.0, 20), [0.1, 0.05]
    ref = _whole_chunk_kinetic_data(0.7, eps_list, grid, 20, 45)
    made = _spy_samplers(monkeypatch)
    readings = _capture_kinetic_readings(monkeypatch)
    chain_steps.clear()
    solvers.kinetic_error_scan(0.7, eps_list, grid, 20, 45)
    # windows of 1 / 0.1 and 1 / 0.05 units at step 1 / 20, 200 and 400 steps,
    # read every 10 and 20 steps: 21 lattice points each, 42 normals per eps
    assert [(n, length) for n, length, _ in made] == [(20, 21), (20, 21)]
    assert [2 * sampler.m for *_, sampler in made] == [40, 40]
    # the scan's R, then the exact side's
    assert chain_steps == [(0.05, 401), (0.05, 402)]
    np.testing.assert_array_equal(readings(2), ref)


@pytest.mark.parametrize("eps_list", KINETIC_EPS_LISTS)
def test_prefix_sum_readings_match_block_sums(eps_list):
    # the scan's prefix sums of the lattice increments, read on the unit-rate
    # axis, against X - sigma B = sigma eps^H (y_0 - y) read on each eps's own
    # time grid, on the same draws: equal to rounding (self-similarity), with
    # the on-grid identity intact
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


def _pairwise_statistics(data, times, h, pairs):
    """L2 error and its SE at each eps's pair (j, k), and the mean dyadic-lag
    Hoelder seminorm, per eps, from the full (replicas, n_report, n_report)
    pairwise arrays, as a reference."""
    err, se, holder = [], [], []
    for i, (j, k) in enumerate(pairs):
        d = data[:, i, 0, :]
        pair = (d[:, :, None] - d[:, None, :])[:, j, k] ** 2
        err.append(np.sqrt(np.mean(pair)))
        se.append(0.5 * np.std(pair, ddof=1) / np.sqrt(len(pair)) / err[-1])
        holder.append(np.mean(_broadcast_holder_seminorms(
            d, times, solvers.HOLDER_GAMMA_FACTOR * h)))
    return np.array(err), np.array(se), np.array(holder)


def _dense_worst_pairs(H, eps_list, times):
    """Each eps's first pair j < k of largest exact E(d_j - d_k)^2, from the
    dense covariance of its readings, as a reference."""
    idx = np.arange(len(times))
    pairs = []
    for cov in exact._kinetic_reading_covariances(H, eps_list, times, fou.MIN_STEPS_PER_EPS):
        C = cov(idx[:, None], idx)
        sq = np.diag(C)[:, None] + np.diag(C)[None, :] - 2.0 * C
        sq[np.tril_indices(len(idx))] = -np.inf
        pairs.append(np.unravel_index(np.argmax(sq), sq.shape))
    return pairs


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_kinetic_scan_statistics_match_the_pairwise_formula(H, monkeypatch):
    # the error is read at the exact worst pair of the dense covariance, and
    # its SE is that pair's
    grid, eps_list = TimeGrid(1.0, 50), [0.1, 0.05, 0.02, 0.01]
    readings = _capture_kinetic_readings(monkeypatch)
    scan = solvers.kinetic_error_scan(H, eps_list, grid, 300, 6)
    pairs = _dense_worst_pairs(H, eps_list, grid.times())
    err, se, holder = _pairwise_statistics(readings(4), grid.times(), H, pairs)
    np.testing.assert_allclose(scan.values, err, rtol=1e-10, atol=0)
    np.testing.assert_allclose(scan.stderrs, se, rtol=1e-10, atol=0)
    np.testing.assert_allclose(scan.meta["holder_seminorm"], holder, rtol=1e-10, atol=0)


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_kinetic_statistic_squared_is_unbiased_for_the_exact_sup(H):
    # at the exact worst pair, mean (d_j - d_k)^2 estimates the exact sup
    # squared without bias: at 4,000 replicas it lies within 3 of its SEs
    # std((d_j - d_k)^2) / sqrt(n) = 2 err SE(err) of it
    scan = solvers.kinetic_error_scan(H, [0.1, 0.05], TimeGrid(1.0, 50), 4000, 12)
    err, exact_err = scan.values[0], scan.meta["exact_values"][0]
    assert abs(err**2 - exact_err**2) <= 3.0 * 2.0 * err * scan.stderrs[0]


@pytest.mark.parametrize("eps_list, m", [([0.1, 0.05, 0.02, 0.01], 1000),
                                         ([0.1, 0.05, 0.02], 500), ([0.1, 0.03, 0.01], 1000)])
@pytest.mark.parametrize("H", [0.01, 0.3, 0.5, 0.7, 0.99])
def test_kinetic_scan_chain_takes_its_minimal_embedding(eps_list, m, H, monkeypatch):
    # the limit_eqs benchmark's lists at 50 reporting intervals: the chain's R
    # is computed once, out to the longest window of m steps, and each eps's
    # lattice embeds R(s k) at its smallest 5-smooth half-length with every
    # eigenvalue positive.  The one exception is eps 0.1's stride-2 lattice at
    # H 0.99, doubled once, from 50 to 100
    lags = []
    chain_acov = exact.kinetic_chain_autocovariance

    def spy(H, r, n_lags):
        lags.append(n_lags)
        return chain_acov(H, r, n_lags)

    monkeypatch.setattr(exact, "kinetic_chain_autocovariance", spy)
    made = _spy_samplers(monkeypatch)
    solvers.kinetic_error_scan(H, eps_list, TimeGrid(1.0, 50), 2, 0)
    assert lags == [m + 1, m + 2]  # the scan's R, then the exact side's
    minimal = [fgn._smooth_length(max(n, (length + 1) // 2)) for n, length, _ in made]
    if H == 0.99:
        minimal[0] *= 2
    assert [sampler.m for *_, sampler in made] == minimal
    assert all(sampler.lam.min() > 0.0 for *_, sampler in made)
    # normals per replica: 2,000, 1,000 and 2,000 for one step-0.1 chain holding every window
    normals = {4: 400, 3: 300 if eps_list[1] == 0.05 else 920}[len(eps_list)]
    assert sum(2 * sampler.m for *_, sampler in made) == normals + (100 if H == 0.99 else 0)


@pytest.mark.parametrize("H, n_report", [(0.3, 50), (0.7, 1), (0.7, 7)])
def test_kinetic_holder_seminorms_equal_the_broadcast_form(H, n_report, monkeypatch):
    # each dyadic lag once, against the masked pairs all at once, bit for
    # bit: on the scan's readings and its mean, and on a non-uniform grid
    grid = TimeGrid(1.0, n_report)
    readings = _capture_kinetic_readings(monkeypatch)
    scan = solvers.kinetic_error_scan(H, [0.1, 0.05], grid, 300, 6)
    gam = scan.meta["holder_gamma"]
    data = readings(2)
    for i in range(2):
        d = np.ascontiguousarray(data[:, i, 0, :])
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
    # comes from those products, against their exact covariance.  A max of 66
    # z per eps against 4 has tail draws: at seed 6 eps 0.01 reads 4.18 over
    # 1,000 replicas and 2.51 over 40,000, so this runs at seed 7
    grid, eps_list = TimeGrid(1.0, 10), [0.1, 0.05, 0.02, 0.01]
    readings = _capture_kinetic_readings(monkeypatch)
    scan = solvers.kinetic_error_scan(H, eps_list, grid, 1000, 7)
    data = readings(4)
    covs = exact._kinetic_reading_covariances(H, eps_list, grid.times(), fou.MIN_STEPS_PER_EPS)
    for i, eps in enumerate(eps_list):
        v = data[:, i, 1, :]
        prod = v[:, :, None] * v[:, None, :]
        se = prod.std(axis=0, ddof=1) / np.sqrt(len(v))
        idx = np.arange(grid.n_steps + 1)
        cov = covs[i](idx[:, None], idx)
        assert np.max(np.abs(prod.mean(axis=0) - cov) / se) < 4.0, eps
    np.testing.assert_allclose(
        scan.meta["exact_values"],
        exact.kinetic_sup_errors(H, eps_list, grid.times(), fou.MIN_STEPS_PER_EPS)[1], rtol=0)
    assert scan.meta["exact_slope"] == exact.loglog_slope(eps_list, scan.meta["exact_values"])
    assert scan.meta["holder_slope"] == exact.loglog_slope(eps_list,
                                                           scan.meta["holder_seminorm"])


@pytest.mark.parametrize("H", [0.3, 0.7])
def test_strided_kinetic_readings_have_the_exact_covariance(H, monkeypatch):
    # eps 0.1 reads a stride-2 lattice and eps 0.03 reads between the chain's
    # points (stride 1, an embedding past the longest window's lags): at 4,000
    # replicas every second moment of each eps's eps v readings is within 5 of
    # its SEs of the exact covariance, and the two eps, drawn from their own
    # streams, are uncorrelated
    grid, eps_list, n = TimeGrid(1.0, 50), [0.1, 0.03], 4000
    readings = _capture_kinetic_readings(monkeypatch)
    solvers.kinetic_error_scan(H, eps_list, grid, n, 17)
    v = readings(2)[:, :, 1, :]
    covs = exact._kinetic_reading_covariances(H, eps_list, grid.times(), fou.MIN_STEPS_PER_EPS)
    idx = np.arange(grid.n_steps + 1)

    def z(a, b, target):
        """(mean a_j b_k - target) / SE, SE from the products, with no (n, 51, 51) array."""
        mean, square = a.T @ b / n, (a * a).T @ (b * b) / n
        return (mean - target) / np.sqrt((square - mean**2) / (n - 1))

    for i in range(2):
        assert np.max(np.abs(z(v[:, i], v[:, i], covs[i](idx[:, None], idx)))) <= 5.0
    assert np.max(np.abs(z(v[:, 0], v[:, 1], 0.0))) <= 5.0


def test_kinetic_scan_refuses_fewer_than_two_distinct_scales(monkeypatch):
    # one eps has no slope (its fit divided by zero and wrote NaN); checked before drawing
    monkeypatch.setattr(fgn, "StationarySampler", None)
    for eps_list in ([0.1], [0.1, 0.1]):
        with pytest.raises(ValueError, match="at least 2 distinct eps"):
            solvers.kinetic_error_scan(0.7, eps_list, TimeGrid(1.0, 10), 2, 0)


def test_kinetic_scan_memory_above_the_old_reporting_cap():
    # 1,501 reporting times, over the 1,449 that a 16 MiB pairwise array
    # allowed: the exact sup takes its second moments in blocks and the
    # sample error is read at its one pair (3.2 MB traced; the dense exact
    # form alone took 185 MB at 1,448 times)
    tracemalloc.start()
    try:
        solvers.kinetic_error_scan(0.7, [0.1, 0.05], TimeGrid(1.0, 1500), 20, 5)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 20.0


def test_kinetic_scan_reduction_memory_does_not_grow_with_replicas():
    # the pairwise reduction held (replicas, 51, 51) arrays: 18.4 MB traced
    # at 400 replicas against 6.0 MB at 100.  Each chunk is now reduced to
    # three numbers per replica, so past one 250-replica chunk the peak is
    # flat (1.3 MB at 400 and 1,600 replicas); holding every eps's readings
    # read 3.0 and 8.7 MB.  Below a chunk the row blocks are smaller
    peaks = {}
    for n in (400, 1600):
        tracemalloc.start()
        try:
            solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.02, 0.01], TimeGrid(1.0, 50), n, 3)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1600] < 1.5 * peaks[400]
