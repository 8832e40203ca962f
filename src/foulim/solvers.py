"""Path-wise solvers for the slow/fast system and its limit equations.

Both sides of the homogenization limit are the one equation

    dx = f(x) dU + h(x) dV,

and one batched Heun (midpoint-predictor) scheme, ``solve_limit_stratonovich``,
solves it from time-major increments of U and V, stepping every replica
at once and keeping only the endpoints.  On the slow/fast side,
dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt, the increments are
the trapezoid integrals U = alpha int G(y^eps) and V = int g(y^eps) on the
solver's own grid, built row block by row block from the fOU sampler.
On the limit side dU = c dW in the short-range regime and c dZ^{H*,m} (a
Hermite process, H* > 1/2) in the long-range one, and dV = g_bar dt.
``homogenize`` is the one place that samples both sides, every replica's
driver drawn from its own keyed stream inside a ``run_replicated`` chunk;
without the drift h(x) g(y) both sides take the exact flow of f at
their drivers' endpoints instead, in one ``flow_map_1d`` call.  The
drift path and the kinetic scan step a solver on the sampled grid, so
both keep dt <= eps/fou.MIN_STEPS_PER_EPS.
The kinetic scan reduces its fGN row block by row block, like ``harness``'s
scans; the exact covariance of its chain (``exact.kinetic_chain_autocovariance``)
shows that a finer grid moves the slope it fits by less than 3e-4.

Scalar state only: in one dimension the rough-driver solution obeys the
classical chain rule (the symmetric second-order lift carries no extra
information), so Heun converges to the Stratonovich solution for a
Brownian driver and to the Young solution for a driver of Hoelder
regularity > 1/2.  Vector states with H < 1/2 would need genuine
Levy-area simulation and are out of scope.
"""

from __future__ import annotations

import math

import numpy as np

from . import chaos, exact, fgn, fou, harness, hermite
from .chaos import Regime
from .harness import ScanResult, fit_loglog_slope, fsum_mean, run_replicated
from .paths import FoulimError, TimeGrid, as_eps, as_eps_list, as_hurst
from .streams import normals

__all__ = [
    "BlowUpError",
    "homogenize",
    "solve_limit_stratonovich",
    "flow_map_1d",
    "kinetic_error_scan",
]

BLOWUP_GUARD = 1e8
# kinetic_error_scan: the Hoelder seminorm is taken at gamma = HOLDER_GAMMA_FACTOR * H,
# and each (n_report + 1)^2 array of its pairwise reduction must fit in PAIRWISE_BYTES
HOLDER_GAMMA_FACTOR = 0.5
PAIRWISE_BYTES = 2**24


class BlowUpError(FoulimError, FloatingPointError):
    """The solution of a slow/fast or limit equation exceeded BLOWUP_GUARD."""


def solve_limit_stratonovich(x0, f, h, dU, dV) -> np.ndarray:
    """Endpoints of dx = f(x) dU + h(x) dV by the Heun (midpoint-predictor) scheme.

    dU holds the driver's increments time-major, shape (n_steps,) or
    (n_steps, n_replicas), and dV the drift's, broadcast to dU's shape
    (a scalar g_bar * dt for the limit equation); every replica is
    stepped at once and x at the last point comes back in the replica
    shape.  Strong order 1/2 for a Brownian U; the predictor-corrector
    average makes the scheme consistent with the Stratonovich integral
    (no Ito correction), and in one dimension it converges to the Young
    solution for a driver of Hoelder regularity > 1/2, at order 2 for a
    smooth one.  Raises BlowUpError once |x| exceeds BLOWUP_GUARD or x is NaN.
    """
    dU = np.asarray(dU, dtype=float)
    dV = np.broadcast_to(dV, dU.shape)
    x = np.full(dU.shape[1:], float(x0))
    for k, (du, dv) in enumerate(zip(dU, dV)):
        f_k, h_k = f(x), h(x)
        pred = x + f_k * du + h_k * dv
        x = x + 0.5 * (f_k + f(pred)) * du + 0.5 * (h_k + h(pred)) * dv
        if not np.abs(x).max() <= BLOWUP_GUARD:  # a NaN fails it too
            raise BlowUpError(f"x exceeded {BLOWUP_GUARD:g} or became NaN at step {k + 1}; "
                              "the system blew up")
    return x


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


def _slow_fast_endpoints(G, H, t, eps, x0, f, h, g, n, seed, dt_ratio,
                         threads=1) -> np.ndarray:
    """Endpoints x^eps_t of dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt.

    n replicas from streams (seed, "slowfast", i), at dt = eps / dt_ratio
    (``homogenize`` passes the ratio of ``exact.resolve_dt_ratio``).
    The system is dx = f(x) dU + h(x) dV with U = alpha int G(y^eps) and
    V = int g(y^eps), whose trapezoid increments on the grid are written
    time-major, row block by row block of the sampler, into one chunk's
    (n_steps, rows) arrays; ``solve_limit_stratonovich`` steps them, on a
    grid that must resolve the fast scale (``fou._check_resolution``).
    With h None the drift is absent and the driver U_t, the trapezoid
    integral ``harness._fou_endpoint_samples`` reduces each row block to,
    comes back in place of x_t, for ``homogenize`` to take the flow of f at.
    """
    alpha = chaos.classify_regime(G.hermite_rank, H).alpha(eps)
    if h is None:
        return harness._fou_endpoint_samples(G, H, t, eps, n, seed, "slowfast", dt_ratio,
                                             alpha, threads)
    grid = TimeGrid.with_step(t, eps / dt_ratio)
    fou._check_resolution(grid.dt, eps)
    sampler = fou.path_sampler(grid, H, eps)

    def solve_chunk(chunk_keys):
        dU, dV = np.empty((2, grid.n_steps, len(chunk_keys)))
        start = 0
        for y in sampler.blocks(chunk_keys):
            for d, fun, scale in ((dU, G, alpha), (dV, g, 1.0)):
                v = fun(y)
                d[:, start : start + len(y)] = ((0.5 * scale * grid.dt)
                                                * (v[:, :-1] + v[:, 1:])).T
            start += len(y)
        return solve_limit_stratonovich(x0, f, h, dU, dV)

    return run_replicated(n, seed, "slowfast", solve_chunk, threads)


def _limit_endpoints(G, H, t, x0, f, h, g_bar, n, seed, threads=1) -> np.ndarray:
    """Endpoints x_t of dx = f(x) dU + h(x) g_bar dt, n replicas from ``seed``.

    U = c W in the short-range and boundary regimes, W from stream
    (seed, "limit-endpoint", i); U = sign(a_m) c Z^{H*,m} in the long-range
    regime, the 400-step Hermite path of (seed, "limit-endpoint-z", i).
    Each ``run_replicated`` chunk is solved before the next is drawn.  With
    h None the scalar chain rule makes x_t the flow of f at U_t, so U_t
    itself comes back (W takes one step) and ``homogenize`` takes the flow.
    Otherwise the Heun solver steps U's increments (W takes 4000 steps),
    converging to the Stratonovich solution for Brownian U and to the Young
    one for the Hermite U (H* > 1/2).  For He_2 with f = sin + 2, h = 1 or
    sin + 2 and g = cos, the 4000 steps leave the endpoint variance
    3.0e-4 to 3.1e-4 (H 0.6) and 6.8e-4 to 7.1e-4 (H 0.7) below that of a
    16,000-step solve on the same refined Brownian paths (20,000 replicas);
    1,000 steps leave 1.5e-3 (H 0.6) and 3.3e-3 to 3.4e-3 (H 0.7).
    """
    regime = chaos.classify_regime(G.hermite_rank, H)
    c = chaos.c_constant(G, H)
    if regime.kind is Regime.LONG_RANGE:
        m = G.hermite_rank
        name, grid = "limit-endpoint-z", TimeGrid(t, 400)
        scale = np.sign(G.coefficients[m]) * c
        engine = hermite.HermiteEngine(grid, regime.h_star, m)

        def increments(chunk_keys):
            if h is None:
                return hermite.hermite_ensemble(engine, chunk_keys)  # Z_t alone
            path = hermite.hermite_ensemble(engine, chunk_keys, np.arange(grid.n_steps + 1))
            return np.diff(path, axis=1)
    else:
        name, grid = "limit-endpoint", TimeGrid(t, 1 if h is None else 4000)
        scale = c * np.sqrt(grid.dt)

        def increments(chunk_keys):
            return normals(chunk_keys, np.empty((len(chunk_keys), grid.n_steps)))

    def solve_chunk(chunk_keys):
        dU = increments(chunk_keys)
        dU *= scale
        if h is None:
            return dU[:, 0]  # one step: U_t itself
        return solve_limit_stratonovich(x0, f, h, np.ascontiguousarray(dU.T), g_bar * grid.dt)

    return run_replicated(n, seed, name, solve_chunk, threads)


def homogenize(G, H, eps, f, h, g, n_replicas: int, master_seed: int, t: float = 1.0,
               x0: float = 0.0, dt_ratio: float | None = None,
               threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints x^eps_t of the slow/fast system and x_t of its limit equation.

    The system dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt is
    solved at dt = eps / dt_ratio from streams (master_seed, "slowfast", i)
    by ``_slow_fast_endpoints``.  dt_ratio None takes the coarsest unbiased
    ratio of ``exact.resolve_dt_ratio`` for G and n_replicas (eps/5 for He_2
    at H 0.6 and eps/2 at 0.85, eps 0.02, 600 replicas); with a drift, the
    coarsest of at least fou.MIN_STEPS_PER_EPS, where Heun's own error, not
    in the budget, alone exceeds it beyond about 13,000 replicas at H 0.6.
    The limit dx = f(x) dU + g_bar h(x) dt, g_bar = E g(N(0, 1)), is
    sampled by ``_limit_endpoints`` from master_seed + 1.  With the drift h(x) g(y) both sides are stepped by
    ``solve_limit_stratonovich``; h or g None means it is absent, and both
    sides take the flow of f at their drivers' endpoints, one
    ``flow_map_1d`` call on the two sides' drivers together.
    """
    eps = as_eps(eps)
    if h is None or g is None:
        h = g = None
    if dt_ratio is None:
        dt_ratio = exact.resolve_dt_ratio(G, H, t, [eps], n_replicas,
                                          stepped=h is not None)[0]["dt_ratio"]
    x_eps = _slow_fast_endpoints(G, H, t, eps, x0, f, h, g, n_replicas, master_seed,
                                 dt_ratio, threads)
    g_bar = 0.0 if g is None else chaos.gaussian_expectation(g)
    x_lim = _limit_endpoints(G, H, t, x0, f, h, g_bar, n_replicas, master_seed + 1, threads)
    if h is None:  # both are drivers, and one flow of f serves both
        x_eps, x_lim = np.split(flow_map_1d(f, x0, np.concatenate([x_eps, x_lim])),
                                [len(x_eps)])
    return x_eps, x_lim


def _grid_reader(times: np.ndarray, dt: float):
    """A map reading values[..., k] (grid point k*dt) at ``times`` by linear
    interpolation, its indices and weights (``exact.reading_weights``) computed once."""
    lo, w = exact.reading_weights(times, dt)
    return lambda values: ((1.0 - w) * values[..., lo]
                           + w * values[..., np.minimum(lo + 1, values.shape[-1] - 1)])


def _holder_seminorms(d: np.ndarray, times: np.ndarray, gam: float) -> np.ndarray:
    """max over j < k of |d[:, k] - d[:, j]| / |t_k - t_j|^gam, row by row.

    Each pair is taken once, one index lag k - j at a time, so no array
    larger than d is formed.
    """
    semi = np.zeros(len(d))
    for lag in range(1, len(times)):
        quot = np.abs(d[:, lag:] - d[:, :-lag])
        quot /= np.abs(times[lag:] - times[:-lag]) ** gam
        np.maximum(semi, quot.max(axis=1), out=semi)
    return semi


def kinetic_error_scan(H, eps_list, grid: TimeGrid, n_replicas: int,
                       master_seed: int = 0, threads: int = 1) -> ScanResult:
    """Convergence rate of X^eps = eps^{H-1} int_0^t y^eps ds toward sigma B^H.

    Couples every eps to the same underlying fBM per replica (increments
    aggregated from one master grid of spacing min(eps)/fou.MIN_STEPS_PER_EPS,
    so that each eps grid has dt = eps/MIN_STEPS_PER_EPS).
    The integral uses the exponential left-point rule, under which

        X_{s,t} - sigma B_{s,t} = -eps (v_t - v_s),   v = eps^{H-1} y,

    holds on the grid to floating-point accuracy.  Each eps grid is read
    at the reporting times by linear interpolation, under which the
    identity still holds.  The reported statistic is the sup over
    reporting-grid pairs of the replica-L2 error, whose log-log slope
    against log(1/eps) is H.  Its exact value on these grids,
    ``exact.kinetic_sup_errors``, is 3-5% above that at 100 steps per eps,
    a factor that moves the slope by under 3e-4 for H in [0.05, 0.95].  meta
    carries those exact values and their least-squares slope, the max identity
    defect, taken from the origin t = 0 where X - sigma B and its readings
    are zero, and the Hoelder-seminorm slope at gamma = HOLDER_GAMMA_FACTOR*H.

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
    and the Hoelder seminorms (``_holder_seminorms``) from each pair j < k
    once, lag by lag, so no (replicas, n_report + 1, n_report + 1) array is
    built either.  A reporting grid whose
    (n_report + 1)^2 pairwise arrays would exceed PAIRWISE_BYTES each
    raises ValueError before anything is drawn.
    """
    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    T = grid.horizon
    report_times = grid.times()
    n_rep = len(report_times)
    if 8 * n_rep**2 > PAIRWISE_BYTES:
        raise ValueError(f"{n_rep} reporting times need {8 * n_rep**2:,} bytes per "
                         f"pairwise array, over the budget of {PAIRWISE_BYTES:,}; "
                         "report at fewer times")
    sigma = fou.stationary_sigma(h)
    # master spacing: finest dt refined until every eps grid sits on it
    dt_min = eps_arr[-1] / fou.MIN_STEPS_PER_EPS
    for k in range(1, 101):
        dt_master = dt_min / k
        ratios = eps_arr / fou.MIN_STEPS_PER_EPS / dt_master
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
    reads = [_grid_reader(report_times, b * dt_master) for b in blocks]
    from scipy.signal import lfilter  # 0.6 s to import: only once the scan is accepted

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

    sup_err = np.empty(len(eps_arr))
    sup_se = np.empty(len(eps_arr))
    holder = np.empty(len(eps_arr))
    gam = HOLDER_GAMMA_FACTOR * h
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
        holder[i] = fsum_mean(_holder_seminorms(d, report_times, gam))
    slope, ci = fit_loglog_slope(1.0 / eps_arr, sup_err, sup_se)
    h_slope, _ = fit_loglog_slope(1.0 / eps_arr, holder, np.maximum(1e-3 * holder, 1e-12))
    exact_err = exact.kinetic_sup_errors(h, eps_arr, report_times, fou.MIN_STEPS_PER_EPS)
    return ScanResult(
        eps_arr, sup_err, sup_se, n_replicas, slope, ci,
        meta={
            "exact_values": exact_err,
            "exact_slope": exact.loglog_slope(eps_arr, exact_err),
            "identity_defect_max": float(defect),
            "holder_seminorm": holder,
            "holder_gamma": gam,
            "holder_slope": h_slope,
        },
    )
