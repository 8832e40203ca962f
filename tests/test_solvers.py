import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import fbm_paths
from foulim import acceptance, chaos, fgn, fou, harness, solvers
from foulim.chaos import ChaosFunction
from foulim.paths import FoulimError, TimeGrid
from foulim.streams import stream

H1 = ChaosFunction.from_coefficients([0, 1.0])
H2 = ChaosFunction.from_coefficients([0, 0, 1.0])


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def test_slow_fast_endpoints_compute_the_embedding_once(monkeypatch):
    calls = []
    compute = fgn._embedding_eigenvalues

    def spy(acov, n):
        calls.append(n)
        return compute(acov, n)

    monkeypatch.setattr(fgn, "_embedding_eigenvalues", spy)
    cfg = solvers.MultiscaleConfig(
        f=lambda u: np.ones_like(np.asarray(u, dtype=float)), h=_zero,
        G=H1, g=_zero, H=0.7, eps=0.1, x0=0.0, grid=TimeGrid(0.2, 20),
    )
    solvers.solve_slow_fast_endpoints(cfg, 600, 3)  # three chunks
    assert calls == [40]


def test_young_additive_case():
    grid = TimeGrid(1.0, 100)
    Z = np.sin(grid.times())
    x = solvers.solve_limit_young(2.0, lambda u: np.ones_like(u), _zero, 0.0, grid, Z)
    np.testing.assert_allclose(x, 2.0 + Z - Z[0], rtol=1e-14)


def test_young_smooth_driver_exponential_order():
    errs = []
    for n in (200, 400, 800, 1600):
        grid = TimeGrid(1.0, n)
        x = solvers.solve_limit_young(1.0, lambda u: u, _zero, 0.0, grid, grid.times() ** 2)
        errs.append(abs(x[-1] - np.exp(1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # first-order scheme: dyadic orders increase toward 1
    assert np.all(np.diff(orders) > 0)
    assert orders[-1] > 0.99
    # Aitken extrapolation of the order sequence reaches 1
    d1, d2 = orders[1] - orders[0], orders[2] - orders[1]
    order_limit = orders[2] + d2 * d2 / (d1 - d2)
    assert order_limit >= 1.0 - 1e-3


def test_young_fbm_driver_matches_chain_rule():
    grid = TimeGrid(1.0, 4000)
    Z = fbm_paths(grid, 0.8, [stream(1, "yfbm")])[0]
    x = solvers.solve_limit_young(1.0, lambda u: u, _zero, 0.0, grid, Z)
    exact = np.exp(Z - Z[0])
    assert np.max(np.abs(x - exact)) < 0.02 * np.max(exact)


def test_limit_young_drift_only_is_ode_flow():
    grid = TimeGrid(1.0, 2000)
    x = solvers.solve_limit_young(1.0, _zero, lambda u: u, 0.7, grid, np.zeros(2001))
    assert x[-1] == pytest.approx(np.exp(0.7), rel=1e-3)


def test_limit_young_exponential_closed_form():
    grid = TimeGrid(1.0, 4000)
    Z = fbm_paths(grid, 0.8, [stream(2, "ly")])[0]
    x = solvers.solve_limit_young(1.0, lambda u: u, _zero, 0.0, grid, Z)
    exact = np.exp(Z)
    assert np.max(np.abs(x - exact)) < 0.02 * np.max(exact)


def test_limit_young_degenerate_constants():
    grid = TimeGrid(1.0, 100)
    Z = np.zeros(101)  # c = 0 folded into the driver
    x = solvers.solve_limit_young(0.3, lambda u: u, lambda u: u, 0.0, grid, Z)
    np.testing.assert_allclose(x, 0.3)


def test_limit_solvers_reject_driver_off_grid():
    grid = TimeGrid(1.0, 100)
    with pytest.raises(ValueError, match="101"):
        solvers.solve_limit_young(0.0, _zero, _zero, 0.0, grid, np.zeros((3, 100)))
    with pytest.raises(ValueError, match="101"):
        solvers.solve_limit_stratonovich(0.0, _zero, _zero, 0.0, 1.0, grid, np.zeros(102))


def _young_loop(x0, f, h, g_bar, dt, Z):
    x = [x0]
    for dz in np.diff(Z):
        x.append(x[-1] + f(x[-1]) * dz + g_bar * h(x[-1]) * dt)
    return np.array(x)


def _heun_loop(x0, f, h, g_bar, c, dt, W):
    x = [x0]
    for dw in np.diff(W):
        xk = x[-1]
        pred = xk + c * f(xk) * dw + g_bar * h(xk) * dt
        x.append(xk + 0.5 * (c * f(xk) + c * f(pred)) * dw
                 + 0.5 * (g_bar * h(xk) + g_bar * h(pred)) * dt)
    return np.array(x)


def test_batched_limit_solvers_match_one_row_calls():
    grid = TimeGrid(1.0, 500)
    Z = fbm_paths(grid, 0.7, [stream(7, "batch", r) for r in range(5)])
    f = lambda u: np.sin(u) + 2.0
    h = lambda u: np.cos(u)
    young = solvers.solve_limit_young(0.4, f, h, 0.6, grid, Z)
    heun = solvers.solve_limit_stratonovich(0.4, f, h, 0.6, 0.8, grid, Z)
    assert young.shape == heun.shape == Z.shape
    for r in range(5):
        one = Z[r : r + 1]
        np.testing.assert_allclose(
            young[r : r + 1], solvers.solve_limit_young(0.4, f, h, 0.6, grid, one),
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            heun[r : r + 1],
            solvers.solve_limit_stratonovich(0.4, f, h, 0.6, 0.8, grid, one),
            rtol=0, atol=1e-14)
        # the scalar per-replica loops are the reference
        np.testing.assert_allclose(young[r], _young_loop(0.4, f, h, 0.6, grid.dt, Z[r]),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(heun[r], _heun_loop(0.4, f, h, 0.6, 0.8, grid.dt, Z[r]),
                                   rtol=0, atol=1e-14)


def test_stratonovich_deterministic_when_c_zero():
    grid = TimeGrid(1.0, 1000)
    W = stream(3, "w0").standard_normal(1001).cumsum() * 0.0
    x = solvers.solve_limit_stratonovich(1.0, lambda u: u, lambda u: u, 0.5, 0.0, grid, W)
    assert x[-1] == pytest.approx(np.exp(0.5), rel=1e-4)


def test_stratonovich_additive_matches_quadrature():
    grid = TimeGrid(1.0, 2000)
    incs = stream(4, "wa").standard_normal(2000) * np.sqrt(grid.dt)
    W = np.concatenate([[0.0], np.cumsum(incs)])
    c, g_bar = 0.7, 0.3
    h = lambda u: np.cos(u)
    x = solvers.solve_limit_stratonovich(0.2, lambda u: np.ones_like(u), h, g_bar, c, grid, W)
    # additive noise: x_t = x0 + c W_t + g_bar int h(x_s) ds
    drift = g_bar * grid.dt * np.cumsum(np.cos(x[:-1]))
    expect = 0.2 + c * W[1:] + drift
    assert np.max(np.abs(x[1:] - expect)) < 5e-3


def test_stratonovich_no_ito_correction():
    # multiplicative case: log x - log x0 - cW - gbar*t must average to 0,
    # not drift by -c^2 t/2 as the Ito reading would
    grid = TimeGrid(1.0, 2000)
    c, g_bar = 0.8, 0.4
    incs = np.stack([stream(5, "strat", i).standard_normal(2000) for i in range(200)])
    W = np.concatenate([np.zeros((200, 1)), np.cumsum(incs, axis=1)], axis=1)
    W *= np.sqrt(grid.dt)
    x = solvers.solve_limit_stratonovich(1.0, lambda u: u, lambda u: u, g_bar, c, grid, W)
    resid = np.log(x[:, -1]) - c * W[:, -1] - g_bar
    assert abs(resid.mean()) < 0.01
    assert abs(resid.mean()) < 0.1 * c**2 / 2


@pytest.mark.parametrize("a2", [1.0, -1.0])
def test_long_range_limit_is_driven_by_the_hermite_path(a2):
    # additive noise and constant drift: Heun is exact, so the limit endpoint
    # is x0 + g_bar t + sign(a_2) c Z_t with Z the Hermite path itself
    from foulim import cli, hermite

    H, t, x0, seed, n = 0.85, 1.0, 0.3, 17, 6
    one = cli._F_PRESETS["one"]
    G = ChaosFunction.from_coefficients([0, 0, a2])
    x = cli._limit_endpoint_samples(G, H, t, x0, one, one, 1.0, n, seed)
    regime = chaos.classify_regime(2, H)
    spec = hermite.HermiteSpec(regime.h_star, 2, 60.0 * t, 12000)
    z = hermite.hermite_ensemble(TimeGrid(t, 400), spec, seed, n, "limit-endpoint-z")[:, 0]
    expect = x0 + t + np.sign(a2) * chaos.c_constant(G, H) * z
    np.testing.assert_allclose(x, expect, rtol=0, atol=1e-12)


def _hermite_limit_args(n, seed=23):
    from foulim import cli

    G = ChaosFunction.from_coefficients([0, 0, -1.0])
    return (G, 0.85, 1.0, 0.0, cli._F_PRESETS["sin2"], cli._F_PRESETS["zero"], 0.0,
            n, seed)


def test_limit_endpoint_samples_agree_with_one_hermite_call(monkeypatch):
    # 300 replicas, a full chunk and a partial one: with the flow map
    # replaced by the identity the samples are sign(a_2) c Z_t, and each
    # chunk's rows agree with one call over all replicas to rounding
    from foulim import cli, hermite

    monkeypatch.setattr(solvers, "flow_map_1d", lambda f, x0, u: u)
    G, H, t, *_, n, seed = _hermite_limit_args(300)
    regime = chaos.classify_regime(2, H)
    spec = hermite.HermiteSpec(regime.h_star, 2, 60.0 * t, 12000)
    z = hermite.hermite_ensemble(TimeGrid(t, 400), spec, seed, n, "limit-endpoint-z")[:, 0]
    expect = -chaos.c_constant(G, H) * z
    for threads in (1, 2):
        u = cli._limit_endpoint_samples(*_hermite_limit_args(300), threads)
        np.testing.assert_allclose(u, expect, rtol=0, atol=1e-13)


def test_limit_endpoint_samples_memory_is_chunked():
    # 600 replicas of 12,000 noise cells: drawn in one call, the noise, its
    # square and the squared kernel took 157 MB traced; in 250-replica
    # chunks the noise of one chunk is held at a time
    from foulim import cli

    cli._limit_endpoint_samples(*_hermite_limit_args(2))  # warm the kernel cache
    tracemalloc.start()
    try:
        cli._limit_endpoint_samples(*_hermite_limit_args(600))
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 120.0


def test_flow_map_exponential():
    u = np.array([-1.0, 0.0, 0.5, 2.0])
    out = solvers.flow_map_1d(lambda x: x, 1.5, u)
    np.testing.assert_allclose(out, 1.5 * np.exp(u), rtol=1e-8)


def test_multiscale_config_validation():
    with pytest.raises(ValueError, match="resolve the fast scale"):
        solvers.MultiscaleConfig(
            f=_zero, h=_zero, G=H1, g=_zero, H=0.7, eps=0.01, x0=0.0,
            grid=TimeGrid(1.0, 50),
        )


def test_slow_fast_reduces_to_functional_integral():
    # f = 1, h = 0: the slow variable is exactly the scaled time integral
    eps = 0.05
    n_steps = 400  # dt = eps/20
    cfg = solvers.MultiscaleConfig(
        f=lambda u: np.ones_like(np.asarray(u, dtype=float)), h=_zero,
        G=H1, g=_zero, H=0.8, eps=eps, x0=0.0, grid=TimeGrid(1.0, n_steps),
    )
    fine = TimeGrid(1.0, 2 * n_steps)
    y = fou.sample_fou_ensemble(fine, fou.FouConfig(0.8, eps), 33, 50, "c1")
    x = solvers._solve_slow_fast_from_y(cfg, y)
    X = harness._functional_cumulative(H1, y, fine.dt, cfg.alpha())
    assert np.max(np.abs(x[:, -1] - X[:, -1])) < 0.01


def test_slow_fast_ergodic_drift_only():
    # f = 0: dx = h(x) g(y) with h = 1: x_t - x0 -> t * gbar
    g = np.cos
    g_bar = chaos.gaussian_expectation(g)
    ends = []
    for eps, name in ((0.05, "e1"), (0.01, "e2")):
        n_steps = int(round(1.0 / (eps / 20)))
        cfg = solvers.MultiscaleConfig(
            f=_zero, h=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            G=H1, g=g, H=0.7, eps=eps, x0=0.0, grid=TimeGrid(1.0, n_steps),
            alpha_override=0.0,
        )
        end = solvers.solve_slow_fast_endpoints(cfg, 400, 35, name)
        assert end.mean() == pytest.approx(g_bar, abs=0.03)
        ends.append(end.std())
    assert ends[1] < ends[0]


def test_slow_fast_blowup_guard():
    cfg = solvers.MultiscaleConfig(
        f=lambda u: 1.0 + u**2, h=_zero, G=H1, g=_zero, H=0.7, eps=0.1,
        x0=5.0, grid=TimeGrid(1.0, 100), alpha_override=50.0,
    )
    with pytest.raises(FloatingPointError, match="blew up"):
        solvers.solve_slow_fast_endpoints(cfg, 1, 0, "blow")


def test_slow_fast_errors_are_foulim_errors():
    assert issubclass(fgn.SamplerInfeasibleError, FoulimError)
    cfg = solvers.MultiscaleConfig(
        f=lambda u: 1.0 + u**2, h=_zero, G=H1, g=_zero, H=0.7, eps=0.1,
        x0=5.0, grid=TimeGrid(1.0, 100), alpha_override=50.0,
    )
    with pytest.raises(FoulimError) as info:
        solvers.solve_slow_fast_endpoints(cfg, 1, 0, "blow")
    assert type(info.value) is solvers.BlowUpError


def _per_stage_rk4_endpoints(cfg, y):
    """Slow/fast RK4 endpoints with G and g evaluated anew at every stage."""
    alpha, dt = cfg.alpha(), cfg.grid.dt

    def rhs(u, yv):
        return alpha * cfg.f(u) * cfg.G(yv) + cfg.h(u) * cfg.g(yv)

    x = np.full(len(y), float(cfg.x0))
    for k in range(cfg.grid.n_steps):
        y0, yh, y1 = y[:, 2 * k], y[:, 2 * k + 1], y[:, 2 * k + 2]
        k1 = rhs(x, y0)
        k2 = rhs(x + 0.5 * dt * k1, yh)
        k3 = rhs(x + 0.5 * dt * k2, yh)
        k4 = rhs(x + dt * k3, y1)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("hfun, gfun", [
    (_zero, _zero),
    (lambda u: np.sin(u) + 2.0, np.cos),
])
def test_slow_fast_solver_matches_per_stage_evaluation(hfun, gfun):
    eps, n_steps = 0.02, 500
    cfg = solvers.MultiscaleConfig(
        f=lambda u: np.sin(u) + 2.0, h=hfun, G=H2, g=gfun, H=0.85, eps=eps, x0=0.0,
        grid=TimeGrid(1.0, n_steps),
    )
    y = fou.sample_fou_ensemble(TimeGrid(1.0, 2 * n_steps), fou.FouConfig(0.85, eps),
                                12, 40, "stages")
    np.testing.assert_array_equal(solvers.solve_slow_fast_endpoints(cfg, 40, 12, "stages"),
                                  _per_stage_rk4_endpoints(cfg, y))


def test_grid_refinement_stability():
    eps = 0.05
    ends = []
    for n_steps in (200, 400):
        cfg = solvers.MultiscaleConfig(
            f=lambda u: np.sin(u) + 2.0, h=_zero, G=H2, g=_zero,
            H=0.6, eps=eps, x0=0.0, grid=TimeGrid(1.0, n_steps),
        )
        ends.append(solvers.solve_slow_fast_endpoints(cfg, 300, 37, "grid"))
    se = ends[0].std() / np.sqrt(len(ends[0]))
    assert abs(ends[0].mean() - ends[1].mean()) < se


def test_kinetic_identity_and_slope():
    grid = TimeGrid(1.0, 20)
    scan = solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.025], grid, 120, 39)
    assert scan.meta["identity_defect_max"] < 1e-6
    slope = -scan.slope
    assert slope == pytest.approx(0.7, abs=0.2)
    # errors shrink monotonically
    assert np.all(np.diff(scan.values) < 0)


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
    out = solvers._read_on_grid(a + b * t_grid, times, dt)
    np.testing.assert_allclose(out, a + b * times, rtol=0, atol=1e-12)
    # on-grid times read their grid point bit for bit
    vals = stream(8, "read").standard_normal((3, 201))
    on = TimeGrid(1.0, 20).times()
    assert np.array_equal(solvers._read_on_grid(vals, on, 1.0 / 200), vals[:, ::10])


def _whole_chunk_kinetic_data(H, eps_list, grid, n_replicas, seed, dt_ratio=100.0):
    """Readings of kinetic_error_scan drawn the whole-chunk way, as a reference.

    Each 250-replica chunk samples its whole fGN matrix with
    sample_fgn_batch and reduces it eps by eps; returns the
    (replicas, n_eps, 2, n_report) array of X - sigma B and eps v.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    sigma = fou.stationary_sigma(H)
    dt_min = eps_arr[-1] / dt_ratio
    for k in range(1, 101):
        dt_master = dt_min / k
        ratios = eps_arr / dt_ratio / dt_master
        if np.all(np.abs(ratios - np.round(ratios)) < 1e-9):
            break
    blocks = [int(round(r)) for r in ratios]
    n_burn_m = int(round(10.0 * eps_arr[0] / dt_master))
    n_steps = int(round(grid.horizon / dt_master))
    n_main_m = max(b * math.ceil(n_steps / b) for b in blocks)
    times = grid.times()

    def make_chunk(offset, count):
        rngs = [stream(seed, "kinetic", offset + k) for k in range(count)]
        dB = fgn.sample_fgn_batch(n_burn_m + n_main_m, dt_master, H, rngs)
        out = np.empty((count, len(eps_arr), 2, len(times)))
        for i, (eps, b) in enumerate(zip(eps_arr, blocks)):
            dt = b * dt_master
            lead = n_burn_m % b
            n_blocks = (n_burn_m + n_main_m - lead) // b
            agg = dB[:, lead : lead + b * n_blocks].reshape(count, -1, b).sum(axis=2)
            n_burn = n_burn_m // b
            a = np.exp(-dt / eps)
            y = lfilter([sigma / eps**H], [1.0, -a], agg, axis=1)
            y_main = np.concatenate([y[:, n_burn - 1 : n_burn], y[:, n_burn:]], axis=1)
            B_main = np.concatenate(
                [np.zeros((count, 1)), np.cumsum(agg[:, n_burn:], axis=1)], axis=1)
            X = eps ** (H - 1.0) * eps * (1.0 - a) * np.concatenate(
                [np.zeros((count, 1)), np.cumsum(y_main[:, :-1], axis=1)], axis=1)
            out[:, i, 0, :] = solvers._read_on_grid(X - sigma * B_main, times, dt)
            out[:, i, 1, :] = solvers._read_on_grid(eps**H * y_main, times, dt)
        return out

    return harness.run_replicated(n_replicas, make_chunk)


@pytest.mark.parametrize("eps_list", [
    [0.1, 0.05, 0.02, 0.01],   # the CLI default
    [0.1, 0.03, 0.01],         # blocks of 10, 3 and 1 master steps
    [0.07, 0.05, 0.03],        # coprime blocks of 7, 5 and 3
])
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


def test_kinetic_scan_memory_stays_below_a_chunk_matrix():
    # one 250-replica chunk of 20,000-step fGN is 40 MB, and the
    # whole-chunk reduction held about a dozen arrays of that size
    # (221 MB traced at 400 replicas); streamed, only row blocks are held
    tracemalloc.start()
    try:
        solvers.kinetic_error_scan(0.7, [0.1, 0.05, 0.02, 0.01], TimeGrid(1.0, 50), 400, 3)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 40.0
