"""Path-wise solvers for the slow/fast system and its limit equations.

The limit equation dx = f(x) dZ + g_bar h(x) dt is driven by Z = c W
(Brownian) in the short-range regime and by Z = c Z^{H*,m} (a Hermite
process, H* > 1/2) in the long-range regime.  Its two solvers, the
left-point Young scheme and the Heun-Stratonovich scheme, are batched:
each takes a driver matrix of shape (n_replicas, n_steps + 1) and steps
every replica at once.  The slow/fast RK4 solver is batched the same
way over fOU paths, which it keeps time-major so that every stage reads
one contiguous row.  The kinetic scan reduces its fGN row block by row
block, like the fOU scans of ``harness``.

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
from scipy.signal import lfilter

from . import chaos, fgn, fou
from .chaos import ChaosFunction
from .harness import ScanResult, fit_loglog_slope, fsum_mean, run_replicated
from .paths import FoulimError, TimeGrid, as_eps, as_eps_list, as_hurst
from .streams import stream

__all__ = [
    "BlowUpError",
    "MultiscaleConfig",
    "solve_slow_fast_endpoints",
    "solve_limit_young",
    "solve_limit_stratonovich",
    "flow_map_1d",
    "kinetic_error_scan",
]

BLOWUP_GUARD = 1e8


class BlowUpError(FoulimError, FloatingPointError):
    """The slow variable of a slow/fast system exceeded BLOWUP_GUARD."""


@dataclass(frozen=True)
class MultiscaleConfig:
    """Slow/fast system dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt.

    f is assumed C^3-bounded, h C^2-bounded, g bounded (not enforced).
    alpha defaults to the scaling of G's regime; alpha_override replaces
    it (e.g. for sanity regimes outside the theory's parameter range).
    """

    f: object
    h: object
    G: ChaosFunction
    g: object
    H: float
    eps: float
    x0: float
    grid: TimeGrid
    seed: int = 0
    alpha_override: float | None = None

    def __post_init__(self):
        as_hurst(self.H)
        as_eps(self.eps)
        if self.grid.dt > self.eps / fou.MIN_STEPS_PER_EPS * (1 + 1e-12):
            raise ValueError("grid.dt must be <= eps/10 to resolve the fast scale")

    def alpha(self) -> float:
        if self.alpha_override is not None:
            return self.alpha_override
        return chaos.classify_regime(self.G.hermite_rank, self.H).alpha(self.eps)


def _stepping_arrays(x0, grid: TimeGrid, Z) -> tuple[np.ndarray, np.ndarray]:
    """Increments of driver values Z (..., n_steps + 1) and the solution
    buffer started at x0, both with the time axis first."""
    Z = np.asarray(Z, dtype=float)
    if Z.shape[-1] != grid.n_steps + 1:
        raise ValueError(
            f"driver has {Z.shape[-1]} points per path, grid has {grid.n_steps + 1}"
        )
    dZ = np.moveaxis(np.diff(Z, axis=-1), -1, 0)
    x = np.empty((grid.n_steps + 1,) + dZ.shape[1:])
    x[0] = x0
    return dZ, x


def solve_limit_young(x0, f, h, g_bar: float, grid: TimeGrid, Z) -> np.ndarray:
    """Left-point scheme for the limit Young equation dx = f(x)dZ + g_bar h(x)dt.

    Z holds driver values of shape (n_replicas, n_steps + 1) on ``grid``
    (a single path is the one-row case); every replica is stepped at
    once and the solution comes back in Z's shape.  With h = 0 this is
    the Young integral equation dx = f(x) dZ, whose grid error is
    O(dt^{2*gamma-1}) for a gamma-Hoelder driver, gamma > 1/2.  The
    homogenization constant c is expected to be folded into Z's scaling
    by the caller.
    """
    dZ, x = _stepping_arrays(x0, grid, Z)
    dt = grid.dt
    for k in range(grid.n_steps):
        xk = x[k]
        x[k + 1] = xk + f(xk) * dZ[k] + g_bar * h(xk) * dt
    return np.moveaxis(x, 0, -1)


def solve_limit_stratonovich(x0, f, h, g_bar: float, c: float, grid: TimeGrid,
                             W) -> np.ndarray:
    """Heun (midpoint-predictor) scheme for dx = c f(x) o dW + g_bar h(x)dt.

    W holds driver values of shape (n_replicas, n_steps + 1) on ``grid``
    (a single path is the one-row case); every replica is stepped at
    once and the solution comes back in W's shape.  Strong order 1/2 for
    Brownian W; the predictor-corrector average makes the scheme
    consistent with the Stratonovich integral (no Ito correction), and
    in one dimension it converges to the Young solution for a driver of
    Hoelder regularity > 1/2.
    """
    dW, x = _stepping_arrays(x0, grid, W)
    dt = grid.dt
    for k in range(grid.n_steps):
        xk, dw = x[k], dW[k]
        diff_k, drift_k = c * f(xk), g_bar * h(xk)
        pred = xk + diff_k * dw + drift_k * dt
        x[k + 1] = (
            xk
            + 0.5 * (diff_k + c * f(pred)) * dw
            + 0.5 * (drift_k + g_bar * h(pred)) * dt
        )
    return np.moveaxis(x, 0, -1)


def flow_map_1d(f, x0: float, u_values) -> np.ndarray:
    """Endpoints of dphi/du = f(phi), phi(0) = x0, evaluated at u_values.

    In one dimension the Young and Stratonovich solutions of
    dx = f(x) dU (no drift) are the flow of f evaluated at the driver
    increment, so this is the exact solution map for driver endpoints.
    """
    from scipy.integrate import solve_ivp

    u = np.asarray(u_values, dtype=float)
    out = np.empty(u.shape)
    for lo, hi, mask in (
        (0.0, float(u.max(initial=0.0)), u >= 0),
        (0.0, float(u.min(initial=0.0)), u < 0),
    ):
        if not np.any(mask):
            continue
        span = (lo, hi if hi != lo else lo + 1e-12)
        sol = solve_ivp(
            lambda _, x: np.atleast_1d(f(x[0])), span, [x0],
            dense_output=True, rtol=1e-10, atol=1e-12,
        )
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
    G(y) and g(y) are evaluated once on all of y, time-major, so each
    stage reads one contiguous row (y is copied unless it is the
    transpose of a C-ordered time-major array); where g(y) is
    identically zero its term h(x) g(y), which would add only zeros, is
    dropped.
    """
    alpha = cfg.alpha()
    f, h = cfg.f, cfg.h
    y_t = np.ascontiguousarray(np.moveaxis(y, -1, 0))
    Gy, gy = cfg.G(y_t), cfg.g(y_t)
    dt = cfg.grid.dt
    n = cfg.grid.n_steps
    x = np.full(y.shape[:-1], float(cfg.x0))
    out = np.empty((n + 1,) + y.shape[:-1])
    out[0] = x

    if np.any(gy):
        def rhs(k):
            G_k, g_k = Gy[k], gy[k]
            return lambda u: alpha * f(u) * G_k + h(u) * g_k
    else:
        def rhs(k):
            G_k = Gy[k]
            return lambda u: alpha * f(u) * G_k

    for k in range(n):
        x = _rk4_step(x, dt, rhs(2 * k), rhs(2 * k + 1), rhs(2 * k + 2))
        if np.any(np.abs(x) > BLOWUP_GUARD):
            raise BlowUpError(
                f"slow variable exceeded {BLOWUP_GUARD:g} at step {k + 1}; "
                "the system blew up"
            )
        out[k + 1] = x
    return np.moveaxis(out, 0, -1)


def solve_slow_fast_endpoints(cfg: MultiscaleConfig, n_replicas: int,
                              master_seed: int, name: str = "slowfast",
                              threads: int = 1) -> np.ndarray:
    """Replica endpoints x^eps_T for the distributional limit checks."""
    fine = TimeGrid(cfg.grid.horizon, 2 * cfg.grid.n_steps)
    sampler = fou.path_sampler(fine, fou.FouConfig(cfg.H, cfg.eps))

    def make_chunk(offset, count):
        # the paths are stored time-major, the layout the RK4 stages read
        y = np.empty((fine.n_steps + 1, count)).T
        sampler.batch(fou.ensemble_streams(master_seed, name, count, offset), out=y)
        return _solve_slow_fast_from_y(cfg, y)[:, -1]

    return run_replicated(n_replicas, make_chunk, threads)


def _read_on_grid(values: np.ndarray, times: np.ndarray, dt: float) -> np.ndarray:
    """values[..., k] (grid point k*dt) read at ``times`` by linear interpolation.

    A time within 1e-9 steps of a grid point reads that point exactly
    (weight 0 on its neighbour), so on-grid reads are bit-exact.
    """
    pos = np.asarray(times, dtype=float) / dt
    near = np.round(pos)
    on_grid = np.abs(pos - near) < 1e-9
    lo = np.where(on_grid, near, np.floor(pos)).astype(int)
    w = np.where(on_grid, 0.0, pos - lo)
    hi = np.minimum(lo + 1, values.shape[-1] - 1)
    return (1.0 - w) * values[..., lo] + w * values[..., hi]


def kinetic_error_scan(H, eps_list, grid: TimeGrid, n_replicas: int,
                       master_seed: int = 0, dt_ratio: float = 100.0,
                       holder_gamma_factor: float = 0.5,
                       threads: int = 1) -> ScanResult:
    """Convergence rate of X^eps = eps^{H-1} int_0^t y^eps ds toward sigma B^H.

    Couples every eps to the same underlying fBM per replica (increments
    aggregated from one master grid of spacing min(eps)/dt_ratio).  The
    integral uses the exponential left-point rule, under which

        X_{s,t} - sigma B_{s,t} = -eps (v_t - v_s),   v = eps^{H-1} y,

    holds on the grid to floating-point accuracy.  Each eps grid is read
    at the reporting times by linear interpolation, under which the
    identity still holds.  The reported statistic is the sup over
    reporting-grid pairs of the replica-L2 error, whose log-log slope
    against log(1/eps) is H.  meta carries the max identity
    defect and the Hoelder-seminorm slope at gamma = holder_gamma_factor*H.

    The fGN comes from one ``fgn.StationarySampler`` built per scan.
    Within each replica chunk its row blocks are reduced, one after the
    other, to their (rows, n_eps, 2, n_report) readings: block
    aggregation, the recursion, the cumulative sums and the reads on the
    reporting grid all act on one block, so no chunk-sized fGN matrix is
    built, and every row is the same as from a whole-chunk draw.
    """
    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    T = grid.horizon
    sigma = fou.stationary_sigma(h)
    # master spacing: finest dt refined until every eps grid sits on it
    dt_min = eps_arr[-1] / dt_ratio
    for k in range(1, 101):
        dt_master = dt_min / k
        ratios = eps_arr / dt_ratio / dt_master
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
    inc_scale = dt_master**h

    report_times = grid.times()

    def readings(dB):
        """(rows, n_eps, 2, n_report) readings of X - sigma B and eps v from fGN rows."""
        rows = len(dB)
        out = np.empty((rows, len(eps_arr), 2, len(report_times)))
        for i, (eps, b) in enumerate(zip(eps_arr, blocks)):
            dt = b * dt_master
            # drop the leading n_burn_m % b burn-in steps so that main-grid
            # point 0 sits on a block edge, and the trailing partial block
            lead = n_burn_m % b
            n_blocks = (n_total - lead) // b
            agg = dB[:, lead : lead + b * n_blocks].reshape(rows, -1, b).sum(axis=2)
            n_burn = n_burn_m // b
            a = np.exp(-dt / eps)
            y = lfilter([sigma / eps**h], [1.0, -a], agg, axis=1)
            # states at main-grid points 0..n_main (y_k = state after k-th step)
            y_main = y[:, n_burn - 1 :]
            B_main = np.zeros((rows, y_main.shape[1]))
            np.cumsum(agg[:, n_burn:], axis=1, out=B_main[:, 1:])
            # exponential left-point integral of y on [0, t_k]
            X = np.zeros_like(B_main)
            np.cumsum(y_main[:, :-1], axis=1, out=X[:, 1:])
            X *= eps ** (h - 1.0) * eps * (1.0 - a)
            X -= sigma * B_main
            out[:, i, 0, :] = _read_on_grid(X, report_times, dt)
            out[:, i, 1, :] = _read_on_grid(eps**h * y_main, report_times, dt)  # eps * v
        return out

    def make_chunk(offset, count):
        rngs = [stream(master_seed, "kinetic", offset + k) for k in range(count)]
        return np.concatenate([readings(block[:, :n_total] * inc_scale)
                               for block in sampler.blocks(rngs)])

    data = run_replicated(n_replicas, make_chunk, threads)
    diff = data[:, :, 0, :]   # X - sigma*B at reporting times
    epsv = data[:, :, 1, :]   # eps * v at reporting times

    # identity defect: X_{s,t} - sigma B_{s,t} + eps(v_t - v_s) == 0 on-grid
    defect = np.max(np.abs((diff - diff[:, :, :1]) + (epsv - epsv[:, :, :1])))

    n_rep = len(report_times)
    sup_err = np.empty(len(eps_arr))
    sup_se = np.empty(len(eps_arr))
    holder = np.empty(len(eps_arr))
    gam = holder_gamma_factor * h
    lag = np.abs(report_times[:, None] - report_times[None, :])
    np.fill_diagonal(lag, np.inf)
    for i in range(len(eps_arr)):
        d = diff[:, i, :]
        pair_sq = np.mean(
            (d[:, :, None] - d[:, None, :]) ** 2, axis=0
        )  # (n_rep, n_rep) pairwise second moments
        k_flat = np.argmax(pair_sq)
        sup_err[i] = np.sqrt(pair_sq.ravel()[k_flat])
        worst = (d[:, k_flat // n_rep] - d[:, k_flat % n_rep]) ** 2
        sup_se[i] = 0.5 * np.std(worst, ddof=1) / np.sqrt(len(worst)) / sup_err[i]
        semi = np.max(
            np.abs(d[:, :, None] - d[:, None, :]) / lag[None, :, :] ** gam,
            axis=(1, 2),
        )
        holder[i] = fsum_mean(semi)
    slope, ci = fit_loglog_slope(1.0 / eps_arr, sup_err, sup_se, master_seed)
    h_slope, h_ci = fit_loglog_slope(
        1.0 / eps_arr, holder, np.maximum(1e-3 * holder, 1e-12), master_seed + 1
    )
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
