"""Path-wise solvers for the slow/fast system and its limit equations.

The limit equation dx = f(x) dZ + g_bar h(x) dt is driven by Z = c W
(Brownian) in the short-range regime and by Z = c Z^{H*,m} (a Hermite
process, H* > 1/2) in the long-range regime.  Its solver, the
Heun-Stratonovich scheme, is batched: it takes a driver matrix of shape
(n_replicas, n_steps + 1), c folded in, and steps every replica at once.  ``homogenize`` is the one place
that samples both sides of the homogenization limit, the slow/fast
endpoints and the limit equation's, every replica's driver drawn from
its own keyed stream inside a ``run_replicated`` chunk.  The slow/fast RK4 solver is batched the same
way over fOU paths, which it keeps time-major so that every stage reads
one contiguous row, and it evaluates G and g on them a block of time
rows at a time; without the drift h(x) g(y) the system is solved by its
exact flow at u = alpha int G(y) (Simpson's rule) instead.  The kinetic
scan reduces its fGN row block by row block, like ``harness``'s scans.

Scalar state only: in one dimension the rough-driver solution obeys the
classical chain rule (the symmetric second-order lift carries no extra
information), so Heun converges to the Stratonovich solution for a
Brownian driver and to the Young solution for a driver of Hoelder
regularity > 1/2.  Vector states with H < 1/2 would need genuine
Levy-area simulation and are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chaos, fgn, fou, hermite
from .chaos import ChaosFunction, Regime
from .harness import ScanResult, fit_loglog_slope, fsum_mean, run_replicated
from .paths import FoulimError, TimeGrid, as_eps, as_eps_list, as_hurst
from .streams import normals

__all__ = [
    "BlowUpError",
    "MultiscaleConfig",
    "solve_slow_fast_endpoints",
    "homogenize",
    "solve_limit_stratonovich",
    "flow_map_1d",
    "kinetic_error_scan",
]

BLOWUP_GUARD = 1e8
# kinetic_error_scan: the finest eps grid has dt = min(eps) / KINETIC_DT_RATIO,
# and the Hoelder seminorm is taken at gamma = HOLDER_GAMMA_FACTOR * H
KINETIC_DT_RATIO = 100.0
HOLDER_GAMMA_FACTOR = 0.5


class BlowUpError(FoulimError, FloatingPointError):
    """The slow variable of a slow/fast system exceeded BLOWUP_GUARD."""


@dataclass(frozen=True)
class MultiscaleConfig:
    """Slow/fast system dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt.

    f is assumed C^3-bounded, h C^2-bounded, g bounded (not enforced).
    h or g None means the drift term h(x) g(y) is absent, and the system
    is solved by its exact flow.  alpha is the scaling of G's regime.
    """

    f: object
    h: object
    G: ChaosFunction
    g: object
    H: float
    eps: float
    x0: float
    grid: TimeGrid

    def __post_init__(self):
        as_hurst(self.H)
        as_eps(self.eps)
        fou._check_resolution(self.grid.dt, self.eps)

    def alpha(self) -> float:
        return chaos.classify_regime(self.G.hermite_rank, self.H).alpha(self.eps)


def solve_limit_stratonovich(x0, f, h, g_bar: float, grid: TimeGrid, W) -> np.ndarray:
    """Heun (midpoint-predictor) scheme for dx = f(x) o dW + g_bar h(x)dt.

    W holds driver values of shape (n_replicas, n_steps + 1) on ``grid``
    (a single path is the one-row case); every replica is stepped at
    once and the solution comes back in W's shape.  Strong order 1/2 for
    Brownian W; the predictor-corrector average makes the scheme
    consistent with the Stratonovich integral (no Ito correction), and
    in one dimension it converges to the Young solution for a driver of
    Hoelder regularity > 1/2, at order 2 for a smooth one.  The caller
    folds the homogenization constant c into W's scaling.
    """
    W = np.asarray(W, dtype=float)
    if W.shape[-1] != grid.n_steps + 1:
        raise ValueError(
            f"driver has {W.shape[-1]} points per path, grid has {grid.n_steps + 1}"
        )
    dW = np.moveaxis(np.diff(W, axis=-1), -1, 0)  # time axis first
    x = np.empty((grid.n_steps + 1,) + dW.shape[1:])
    x[0] = x0
    dt = grid.dt
    for k in range(grid.n_steps):
        xk, dw = x[k], dW[k]
        diff_k, drift_k = f(xk), g_bar * h(xk)
        pred = xk + diff_k * dw + drift_k * dt
        x[k + 1] = (
            xk
            + 0.5 * (diff_k + f(pred)) * dw
            + 0.5 * (drift_k + g_bar * h(pred)) * dt
        )
    return np.moveaxis(x, 0, -1)


def flow_map_1d(f, x0: float, u_values) -> np.ndarray:
    """Endpoints of dphi/du = f(phi), phi(0) = x0, evaluated at u_values.

    In one dimension the Young and Stratonovich solutions of
    dx = f(x) dU (no drift) are the flow of f evaluated at the driver
    increment, so this is the exact solution map for driver endpoints.
    Raises BlowUpError if f is not finite, |phi| reaches BLOWUP_GUARD or a step fails.
    """
    from scipy.integrate import solve_ivp

    def rhs(_, x):
        dx = np.atleast_1d(f(x[0]))
        if not np.all(np.isfinite(dx)):
            raise BlowUpError(f"the flow blew up: f({x[0]:g}) is not finite")
        return dx

    def guard(_, x):
        return abs(x[0]) - BLOWUP_GUARD
    guard.terminal = True

    u = np.asarray(u_values, dtype=float)
    out = np.empty(u.shape)
    for end, mask in ((float(u.max(initial=0.0)), u >= 0),
                      (float(u.min(initial=0.0)), u < 0)):
        if not np.any(mask):
            continue
        sol = solve_ivp(rhs, (0.0, end if end != 0.0 else 1e-12), [x0], events=guard,
                        dense_output=True, rtol=1e-10, atol=1e-12)
        if sol.status != 0:  # 1: |phi| reached BLOWUP_GUARD at sol.t[-1]; -1: a step failed
            raise BlowUpError(f"the flow blew up at u = {sol.t[-1]:g} of {end:g}: {sol.message}")
        out[mask] = sol.sol(u[mask])[0]
    return out


def _rk4_step(x, dt, rhs_now, rhs_half, rhs_next):
    k1 = rhs_now(x)
    k2 = rhs_half(x + 0.5 * dt * k1)
    k3 = rhs_half(x + 0.5 * dt * k2)
    k4 = rhs_next(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _solve_slow_fast_from_y(cfg: MultiscaleConfig, y: np.ndarray) -> np.ndarray:
    """RK4 on the random ODE; y sampled at twice the solver resolution.

    y has shape (..., 2*n_steps + 1): values at every half-step, so the
    classical RK4 stages see the fast variable at t, t + dt/2 and t + dt.
    G(y) and g(y) are evaluated time-major on blocks of time rows of
    about BLOCK_BYTES (copied unless y is the transpose of a C-ordered
    time-major array), so each stage reads one contiguous row and no
    array of y's size is built.  Returns x at the endpoint.
    """
    alpha = cfg.alpha()
    f, h = cfg.f, cfg.h
    y_t = np.moveaxis(y, -1, 0)
    dt = cfg.grid.dt
    n = cfg.grid.n_steps
    x = np.full(y.shape[:-1], float(cfg.x0))
    steps = max(1, fgn.BLOCK_BYTES // (16 * max(x.size, 1)))

    for k0 in range(0, n, steps):
        rows = np.ascontiguousarray(y_t[2 * k0 : 2 * min(k0 + steps, n) + 1])
        Gy, gy = cfg.G(rows), cfg.g(rows)

        def rhs(j):
            G_j, g_j = Gy[j], gy[j]
            return lambda u: alpha * f(u) * G_j + h(u) * g_j

        for k in range(k0, min(k0 + steps, n)):
            j = 2 * (k - k0)
            x = _rk4_step(x, dt, rhs(j), rhs(j + 1), rhs(j + 2))
            # written so that a NaN state fails the guard too
            if not np.all(np.abs(x) <= BLOWUP_GUARD):
                raise BlowUpError(
                    f"slow variable exceeded {BLOWUP_GUARD:g} or became NaN at step {k + 1}; "
                    "the system blew up"
                )
    return x


def _flow_driver(cfg: MultiscaleConfig, sampler, keys) -> np.ndarray:
    """u = alpha int_0^T G(y) dt per key by Simpson's rule, dt/6 (1, 4, 2, ..., 4, 1)
    on the half-step grid (RK4's quadrature of a pure-time ODE), one row block of
    ``sampler`` at a time; each row is summed alone, so u ignores the blocking."""
    w = np.full(2 * cfg.grid.n_steps + 1, 2.0)
    w[1::2], w[[0, -1]] = 4.0, 1.0
    w *= cfg.alpha() * cfg.grid.dt / 6.0
    return np.concatenate([(cfg.G(block) * w).sum(axis=1) for block in sampler.blocks(keys)])


def solve_slow_fast_endpoints(cfg: MultiscaleConfig, n_replicas: int,
                              master_seed: int, name: str = "slowfast",
                              threads: int = 1) -> np.ndarray:
    """Replica endpoints x^eps_T: RK4 with drift, the exact flow without."""
    fine = TimeGrid(cfg.grid.horizon, 2 * cfg.grid.n_steps)
    sampler = fou.path_sampler(fine, cfg.H, cfg.eps)
    if cfg.h is None or cfg.g is None:
        u = run_replicated(n_replicas, master_seed, name,
                           lambda k: _flow_driver(cfg, sampler, k), threads)
        return flow_map_1d(cfg.f, cfg.x0, u)

    def make_chunk(chunk_keys):
        # the paths are stored time-major, the layout the RK4 stages read
        y = np.empty((fine.n_steps + 1, len(chunk_keys))).T
        sampler.batch(chunk_keys, out=y)
        return _solve_slow_fast_from_y(cfg, y)

    return run_replicated(n_replicas, master_seed, name, make_chunk, threads)


def _limit_endpoints(G, H, t, x0, f, h, g_bar, n, seed, threads=1) -> np.ndarray:
    """Endpoints x_t of dx = f(x) dU + g_bar h(x) dt, n replicas from ``seed``.

    U = c W in the short-range and boundary regimes, W from stream
    (seed, "limit-endpoint", i); U = sign(a_m) c Z^{H*,m} in the long-range
    regime, the 400-step Hermite path of (seed, "limit-endpoint-z", i).
    Each ``run_replicated`` chunk is solved before the next is drawn.  With
    h None the scalar chain rule makes x_t the flow of f at U_t, so only U_t
    is kept (W takes one step); otherwise the batched Heun solver runs on
    U's path (W takes 4000 steps), converging to the Stratonovich solution
    for Brownian U and to the Young one for the Hermite U (H* > 1/2).
    """
    regime = chaos.classify_regime(G.hermite_rank, H)
    c = chaos.c_constant(G, H)
    if regime.kind is Regime.LONG_RANGE:
        m = G.hermite_rank
        name, grid = "limit-endpoint-z", TimeGrid(t, 400)
        scale = np.sign(G.coefficients[m]) * c
        engine = hermite.HermiteEngine(grid, regime.h_star, m)
        report_idx = None if h is None else np.arange(grid.n_steps + 1)

        def driver(chunk_keys):
            return hermite.hermite_ensemble(engine, chunk_keys, report_idx)
    else:
        name, grid = "limit-endpoint", TimeGrid(t, 1 if h is None else 4000)
        scale = c * np.sqrt(grid.dt)

        def driver(chunk_keys):
            W = np.zeros((len(chunk_keys), grid.n_steps + 1))
            np.cumsum(normals(chunk_keys, W[:, 1:]), axis=1, out=W[:, 1:])
            return W

    def solve_chunk(chunk_keys):
        U = driver(chunk_keys)
        U *= scale
        if h is not None:
            U = solve_limit_stratonovich(x0, f, h, g_bar, grid, U)
        return U[:, -1].copy()  # a view would keep the chunk's paths alive

    x = run_replicated(n, seed, name, solve_chunk, threads)
    return x if h is not None else flow_map_1d(f, x0, x)


def homogenize(G, H, eps, f, h, g, n_replicas: int, master_seed: int, t: float = 1.0,
               x0: float = 0.0, dt_ratio: float = 50.0,
               threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints x^eps_t of the slow/fast system and x_t of its limit equation.

    The system dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt is
    solved at dt = eps / dt_ratio from streams (master_seed, "slowfast", i);
    the limit dx = f(x) dU + g_bar h(x) dt, g_bar = E g(N(0, 1)), is
    sampled by ``_limit_endpoints`` from master_seed + 1.  h or g None
    means the drift h(x) g(y) is absent, and both sides take the flow of f.
    """
    eps = as_eps(eps)
    cfg = MultiscaleConfig(f, h, G, g, H, eps, x0, TimeGrid.with_step(t, eps / dt_ratio))
    x_eps = solve_slow_fast_endpoints(cfg, n_replicas, master_seed, threads=threads)
    drift = h is not None and g is not None
    x_lim = _limit_endpoints(G, H, t, x0, f, h if drift else None,
                             chaos.gaussian_expectation(g) if drift else 0.0,
                             n_replicas, master_seed + 1, threads)
    return x_eps, x_lim


def _grid_reader(times: np.ndarray, dt: float):
    """A map reading values[..., k] (grid point k*dt) at ``times`` by linear
    interpolation, its indices and weights computed once.

    A time within 1e-9 steps of a grid point reads that point exactly
    (weight 0 on its neighbour), so on-grid reads are bit-exact.
    """
    pos = np.asarray(times, dtype=float) / dt
    near = np.round(pos)
    on_grid = np.abs(pos - near) < 1e-9
    lo = np.where(on_grid, near, np.floor(pos)).astype(int)
    w = np.where(on_grid, 0.0, pos - lo)
    return lambda values: ((1.0 - w) * values[..., lo]
                           + w * values[..., np.minimum(lo + 1, values.shape[-1] - 1)])


def kinetic_error_scan(H, eps_list, grid: TimeGrid, n_replicas: int,
                       master_seed: int = 0, threads: int = 1) -> ScanResult:
    """Convergence rate of X^eps = eps^{H-1} int_0^t y^eps ds toward sigma B^H.

    Couples every eps to the same underlying fBM per replica (increments
    aggregated from one master grid of spacing min(eps)/KINETIC_DT_RATIO).
    The integral uses the exponential left-point rule, under which

        X_{s,t} - sigma B_{s,t} = -eps (v_t - v_s),   v = eps^{H-1} y,

    holds on the grid to floating-point accuracy.  Each eps grid is read
    at the reporting times by linear interpolation, under which the
    identity still holds.  The reported statistic is the sup over
    reporting-grid pairs of the replica-L2 error, whose log-log slope
    against log(1/eps) is H.  meta carries the max identity defect,
    taken from the origin t = 0 where X - sigma B and its readings are
    zero, and the Hoelder-seminorm slope at gamma = HOLDER_GAMMA_FACTOR*H.

    The fGN comes from one ``fgn.StationarySampler`` built per scan (at
    its fast 5-smooth length).  Within each replica chunk its row blocks
    are reduced, one after the other, to their (rows, n_eps, 2, n_report)
    readings.  A block becomes one prefix sum S of B on the master grid;
    each eps takes its block increments as the differences of the strided
    view S[lead::b], and B on its main grid is that view itself, so no
    block sums or scaled copies are formed.  The recursion (unit gain) and
    one cumulative sum C of y follow; y, C and B are read on the
    reporting grid first and scaled by sigma after.  So no chunk-sized fGN
    matrix is built, and every row is the same as from a whole-chunk draw.  The
    pairwise second moments come from one Gram matrix of the readings,
    and the Hoelder seminorms are taken a block of replicas at a time, so
    no (replicas, n_report + 1, n_report + 1) array is built either.
    """
    from scipy.signal import lfilter

    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    T = grid.horizon
    sigma = fou.stationary_sigma(h)
    # master spacing: finest dt refined until every eps grid sits on it
    dt_min = eps_arr[-1] / KINETIC_DT_RATIO
    for k in range(1, 101):
        dt_master = dt_min / k
        ratios = eps_arr / KINETIC_DT_RATIO / dt_master
        if np.all(np.abs(ratios - np.round(ratios)) < 1e-9):
            break
    else:
        raise ValueError(
            f"eps values {eps_arr} have no common refinement within 100x of "
            "the finest grid; choose commensurate scales"
        )
    blocks = [int(round(r)) for r in ratios]
    burn = 10.0 * eps_arr[0]
    n_burn_m = int(round(burn / dt_master))
    # main length: at least ceil(N / b) whole blocks on every eps grid
    n_steps = int(round(T / dt_master))
    n_main_m = max(b * math.ceil(n_steps / b) for b in blocks)
    n_total = n_burn_m + n_main_m
    sampler = fgn.StationarySampler(lambda k: fgn.fgn_autocovariance(k, h), n_total)
    report_times = grid.times()
    reads = [_grid_reader(report_times, b * dt_master) for b in blocks]

    def readings(dB):
        """(rows, n_eps, 2, n_report) readings of X - sigma B and eps v from
        unit-spacing fGN rows, through the prefix sums S of B on the master grid."""
        S = np.zeros((len(dB), n_total + 1))
        np.cumsum(dB[:, :n_total], axis=1, out=S[:, 1:])
        S *= dt_master**h
        out = np.empty((len(S), len(eps_arr), 2, len(report_times)))
        for i, (eps, b, read) in enumerate(zip(eps_arr, blocks, reads)):
            n_burn = n_burn_m // b
            a = np.exp(-b * dt_master / eps)
            # blocks from master point n_burn_m % b, so that main-grid point 0
            # (master point n_burn_m) is a block edge; y is y^eps / (sigma
            # eps^-H), y_k the state after the k-th block, and C its left-point
            # sums on main-grid points 0..n_main
            y = lfilter([1.0], [1.0, -a], np.diff(S[:, n_burn_m % b :: b]), axis=1)
            C = np.zeros((len(S), y.shape[1] - n_burn + 1))
            np.cumsum(y[:, n_burn - 1 : -1], axis=1, out=C[:, 1:])
            B = read(S[:, n_burn_m::b]) - S[:, n_burn_m, None]
            out[:, i, 0, :] = sigma * ((1.0 - a) * read(C) - B)
            out[:, i, 1, :] = sigma * read(y[:, n_burn - 1 :])
        return out

    data = run_replicated(
        n_replicas, master_seed, "kinetic",
        lambda k: np.concatenate([readings(block) for block in sampler.blocks(k)]), threads)
    diff = data[:, :, 0, :]   # X - sigma*B at reporting times
    epsv = data[:, :, 1, :]   # eps * v at reporting times

    # identity defect: X_t - sigma B_t + eps(v_t - v_0) == 0 on-grid, with
    # X_0 = B_0 = 0, so a reading taken from a shifted origin shows
    defect = np.max(np.abs(diff + (epsv - epsv[:, :, :1])))

    n_rep = len(report_times)
    sup_err = np.empty(len(eps_arr))
    sup_se = np.empty(len(eps_arr))
    holder = np.empty(len(eps_arr))
    gam = HOLDER_GAMMA_FACTOR * h
    lag = np.abs(report_times[:, None] - report_times[None, :])
    np.fill_diagonal(lag, np.inf)
    lag_gam = lag**gam
    # replicas per block of the Hoelder reduction, which holds (rows, n_rep, n_rep)
    rows = max(1, fgn.BLOCK_BYTES // (8 * n_rep * n_rep))
    semi = np.empty(n_replicas)
    for i in range(len(eps_arr)):
        d = np.ascontiguousarray(diff[:, i, :])
        # pairwise second moments E d_j^2 + E d_k^2 - 2 E[d_j d_k] from one Gram matrix
        gram = d.T @ d / n_replicas
        sq = np.diag(gram)
        pair_sq = sq[:, None] + sq[None, :] - 2.0 * gram
        k_flat = np.argmax(pair_sq)
        sup_err[i] = np.sqrt(pair_sq.ravel()[k_flat])
        if not sup_err[i] > 0.0:
            raise FoulimError(f"kinetic error vanishes at H={h}, eps={eps_arr[i]}: "
                              "no rate can be fitted to it")
        worst = (d[:, k_flat // n_rep] - d[:, k_flat % n_rep]) ** 2
        sup_se[i] = 0.5 * np.std(worst, ddof=1) / np.sqrt(len(worst)) / sup_err[i]
        for a in range(0, n_replicas, rows):
            blk = d[a : a + rows]
            semi[a : a + rows] = np.max(
                np.abs(blk[:, :, None] - blk[:, None, :]) / lag_gam, axis=(1, 2))
        holder[i] = fsum_mean(semi)
    slope, ci = fit_loglog_slope(1.0 / eps_arr, sup_err, sup_se)
    h_slope, h_ci = fit_loglog_slope(1.0 / eps_arr, holder, np.maximum(1e-3 * holder, 1e-12))
    return ScanResult(
        eps_arr, sup_err, sup_se, n_replicas, slope, ci,
        meta={
            "identity_defect_max": float(defect),
            "holder_seminorm": holder,
            "holder_gamma": gam,
            "holder_slope": h_slope,
            "holder_slope_ci": h_ci,
            "statistic": "sup_pair_l2_error",
        },
    )
