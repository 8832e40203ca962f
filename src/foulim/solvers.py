"""Path-wise solvers for the slow/fast system and its limit equations.

Both sides of the homogenization limit are the one equation
dx = f(x) dU + h(x) dV.  In one dimension the flow of f turns it into an
ODE along the driver (Doss, Ann. IHP 13 (1977); Sussmann, Ann. Probab. 6
(1978) 19-41): x_t = phi(U_t, s_t) with ds = h(x) / d_s phi(U_t, s) dV,
where each ``Flow`` of ``FLOWS``, one per ``--f`` preset, carries phi,
d_s phi and the coordinate s0 of x0 in closed form.  So
``solve_limit_stratonovich`` steps s alone, by one batched Heun scheme
along U's grid values, and with no drift, or the drift h = f, takes no
step.  The chain rule behind it gives the Stratonovich solution for a Brownian driver and the
Young one for a driver of Hoelder regularity > 1/2; vector states with
H < 1/2 would need Levy-area simulation and are out of scope.
On the slow/fast side, dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt,
U = alpha int G(y^eps) and V = int g(y^eps) are trapezoid integrals on the
solver's own grid, built row block by row block from the fOU sampler.
On the limit side dU = c dW in the short-range regime and c dZ^{H*,m} (a
Hermite process, H* > 1/2) in the long-range one, and dV = g_bar dt.
``homogenize`` is the one place that samples both sides, every replica's
driver drawn from its own keyed stream inside a ``run_replicated`` chunk.
The drift path and the kinetic scan step on the sampled grid, so both
keep dt <= eps/fou.MIN_STEPS_PER_EPS.  The kinetic scan reads every eps
off one unit-rate chain per replica (self-similarity), row block by row
block like ``harness``'s scans; the exact covariance of its chain
(``exact.kinetic_chain_autocovariance``) shows that a finer grid moves
the slope it fits by less than 3e-4.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import chaos, exact, fgn, fou, harness, hermite
from .chaos import Regime
from .harness import ScanResult, fit_loglog_slope, fsum_mean, run_replicated
from .paths import FoulimError, TimeGrid, as_eps, as_eps_list, as_hurst
from .streams import normals

__all__ = [
    "BlowUpError",
    "Flow",
    "FLOWS",
    "homogenize",
    "solve_limit_stratonovich",
    "kinetic_error_scan",
]

BLOWUP_GUARD = 1e8
# kinetic_error_scan takes the Hoelder seminorm at gamma = HOLDER_GAMMA_FACTOR * H
HOLDER_GAMMA_FACTOR = 0.5


class BlowUpError(FoulimError, FloatingPointError):
    """The solution of a slow/fast or limit equation exceeded BLOWUP_GUARD."""


class Flow(NamedTuple):
    """A field f and its flow in Doss-Sussmann coordinates, in closed form.

    phi(u, s) is the point the flow of f reaches in time u from phi(0, s),
    dphi_ds(u, x) is d_s phi(u, s) at the point x = phi(u, s), and
    coordinate(x0) is the s0 with phi(0, s0) = x0.
    """

    f: Callable
    phi: Callable
    dphi_ds: Callable
    coordinate: Callable


_S3 = math.sqrt(3.0)


def _sin2_coordinate(x) -> np.ndarray:
    """s = int_0^x dz / (2 + sin z), the time the flow of sin + 2 takes from 0 to x.

    On r in [-pi, pi] the antiderivative is
    (2/sqrt 3)(arctan((2 tan(r/2) + 1)/sqrt 3) - pi/6); each full period
    adds 2 pi/sqrt 3.
    """
    x = np.asarray(x, dtype=float)
    periods = np.round(x / (2.0 * np.pi))
    r = x - 2.0 * np.pi * periods
    return (2.0 * np.pi / _S3) * periods + (2.0 / _S3) * (
        np.arctan((2.0 * np.tan(r / 2.0) + 1.0) / _S3) - np.pi / 6.0
    )


def _sin2_phi(u, s) -> np.ndarray:
    """The flow of sin + 2 from 0 for time u + s, inverting ``_sin2_coordinate``:
    ((sqrt 3/2)(u + s) + pi/6) / pi = p + a/pi with a = arctan((2 tan(r/2) + 1)/sqrt 3)
    in [-pi/2, pi/2] and p whole, and x = r + 2 pi p."""
    tau = (0.5 * _S3 / np.pi) * (u + s) + 1.0 / 6.0
    p = np.rint(tau)
    return 2.0 * (np.pi * p + np.arctan((0.5 * _S3) * np.tan(np.pi * (tau - p)) - 0.5))


def _linear_phi(u, s) -> np.ndarray:
    """s e^u, inf past the float range for the guard to refuse; 0 from s = 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = s * np.exp(u)
    return np.where(s == 0.0, 0.0, x)


# the --f presets; sin + 2 has phi(u, s) = phi_0(u + s) and d_s phi = f(phi)
FLOWS = {
    "sin2": Flow(lambda x: np.sin(x) + 2.0, _sin2_phi, lambda u, x: np.sin(x) + 2.0,
                 _sin2_coordinate),
    "one": Flow(lambda x: np.ones_like(x, dtype=float), lambda u, s: s + u,
                lambda u, x: 1.0, np.asarray),
    "linear": Flow(np.asarray, _linear_phi, lambda u, x: np.exp(u), np.asarray),
    "zero": Flow(lambda x: np.zeros_like(x, dtype=float), lambda u, s: s,
                 lambda u, x: 1.0, np.asarray),
}


def _guarded(x: np.ndarray, step: int) -> np.ndarray:
    if not np.abs(x).max(initial=0.0) <= BLOWUP_GUARD:  # a NaN fails it too
        raise BlowUpError(f"x exceeded {BLOWUP_GUARD:g} or became NaN at step {step}; "
                          "the system blew up")
    return x


def solve_limit_stratonovich(flow: Flow, x0, h, dU, dV) -> np.ndarray:
    """Endpoints of dx = f(x) dU + h(x) dV, f the field of ``flow``, in its coordinates.

    dU holds the driver's increments time-major, shape (n_steps,) or
    (n_steps, n_replicas), and dV the drift's, broadcast to dU's shape
    (a scalar g_bar * dt for the limit equation); x at the last point
    comes back in the replica shape.  x_t = phi(U_t, s_t), and the Heun
    (midpoint-predictor) scheme steps ds = h(x) / d_s phi(U_t, s) dV at
    U's grid values, every replica at once: the error is that of an ODE
    in s along U's path, order 2 for a smooth one.  h None is no drift:
    x_T = phi(U_T, s0) with no step.  h the flow's own field f commutes
    with it, dx = f(x) d(U + V): x_T = phi(U_T + V_T, s0), again with no
    step.  Raises BlowUpError once |x| exceeds BLOWUP_GUARD or x is NaN,
    at the endpoint when no step is taken.
    """
    dU = np.asarray(dU, dtype=float)
    dV = np.broadcast_to(dV, dU.shape)
    s = np.full(dU.shape[1:], flow.coordinate(float(x0)))
    if h is None or h is flow.f:
        return _guarded(flow.phi((dU if h is None else dU + dV).sum(axis=0), s), len(dU))
    u, x = 0.0, np.full(dU.shape[1:], float(x0))
    with np.errstate(over="ignore"):  # a flow that overflows to inf fails the guard
        for k, (du, dv) in enumerate(zip(dU, dV), 1):
            b = h(x) / flow.dphi_ds(u, x)
            u = u + du
            pred = flow.phi(u, s + b * dv)
            s = s + 0.5 * (b + h(pred) / flow.dphi_ds(u, pred)) * dv
            x = _guarded(flow.phi(u, s), k)
    return x


def _slow_fast_endpoints(G, H, t, eps, x0, f, h, g, n, seed, dt_ratio,
                         threads=1) -> np.ndarray:
    """Endpoints x^eps_t of dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt.

    f is a ``Flow``; n replicas from streams (seed, "slowfast", i), at
    dt = eps / dt_ratio.  The system is dx = f(x) dU + h(x) dV with
    U = alpha int G(y^eps) and V = int g(y^eps), whose trapezoid increments
    are written time-major, row block by row block of the sampler, into one
    chunk's (n_steps, rows) arrays for ``solve_limit_stratonovich``, on a
    grid that must resolve the fast scale (``fou._check_resolution``).
    With h None x_t = phi(U_t, s0) at the trapezoid integral U_t that
    ``harness._fou_endpoint_samples`` reduces each row block to, on any grid.
    """
    alpha = chaos.classify_regime(G.hermite_rank, H).alpha(eps)
    if h is None:
        u = harness._fou_endpoint_samples(G, H, t, eps, n, seed, "slowfast", dt_ratio,
                                          alpha, threads)
        return solve_limit_stratonovich(f, x0, None, u[None], 0.0)
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
        return solve_limit_stratonovich(f, x0, h, dU, dV)

    return run_replicated(n, seed, "slowfast", solve_chunk, threads)


def _limit_endpoints(G, H, t, x0, f, h, g_bar, n, seed, threads=1) -> np.ndarray:
    """Endpoints x_t of dx = f(x) dU + h(x) g_bar dt, n replicas from ``seed``.

    f is a ``Flow``.  U = c W in the short-range and boundary regimes, W
    from stream (seed, "limit-endpoint", i); U = sign(a_m) c Z^{H*,m} in the
    long-range regime, the 400-step Hermite path of (seed, "limit-endpoint-z", i).
    Each ``run_replicated`` chunk is solved before the next is drawn.  With
    h None x_t = phi(U_t, s0), so W takes one step and Z gives its endpoint.
    Otherwise W takes 100 steps: for He_2, f = sin + 2, h = 1 and g = cos
    they leave Var x_1 within 3.0e-6 (H 0.6) and 7.7e-6 (H 0.7) relative of
    a 3,200-step solve on the same paths (20,000 replicas).
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
        name, grid = "limit-endpoint", TimeGrid(t, 1 if h is None else 100)
        scale = c * np.sqrt(grid.dt)

        def increments(chunk_keys):
            return normals(chunk_keys, np.empty((len(chunk_keys), grid.n_steps)))

    def solve_chunk(chunk_keys):
        dU = increments(chunk_keys)
        dU *= scale
        return solve_limit_stratonovich(f, x0, h, np.ascontiguousarray(dU.T), g_bar * grid.dt)

    return run_replicated(n, seed, name, solve_chunk, threads)


def homogenize(G, H, eps, f: Flow, h, g, n_replicas: int, master_seed: int, t: float = 1.0,
               x0: float = 0.0, dt_ratio: float | None = None,
               threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints x^eps_t of the slow/fast system and x_t of its limit equation.

    f is a ``Flow`` (one of ``FLOWS``), h and g plain fields.  The system
    dx = alpha(eps) f(x) G(y^eps) dt + h(x) g(y^eps) dt is solved at
    dt = eps / dt_ratio from streams (master_seed, "slowfast", i) by
    ``_slow_fast_endpoints``.  dt_ratio None takes the coarsest unbiased
    ratio of ``exact.resolve_dt_ratio`` for G and n_replicas (eps/5 for He_2
    at H 0.6 and eps/2 at 0.85, eps 0.02, 600 replicas); with a drift, the
    coarsest of at least fou.MIN_STEPS_PER_EPS, where Heun's own error is
    2e-6 relative at H 0.6.  The limit dx = f(x) dU + g_bar h(x) dt,
    g_bar = E g(N(0, 1)), is sampled by ``_limit_endpoints`` from
    master_seed + 1.  Both sides are solved in f's flow coordinates; h or g
    None means no drift, and each side is phi(U_t, s0) at its driver.
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
    return x_eps, x_lim


def _grid_reader(times: np.ndarray, dt: float):
    """A map reading values[..., k] (grid point k*dt) at ``times`` by linear
    interpolation, its indices and weights (``exact.reading_weights``) computed once."""
    lo, w = exact.reading_weights(times, dt)
    return lambda values: ((1.0 - w) * values[..., lo]
                           + w * values[..., np.minimum(lo + 1, values.shape[-1] - 1)])


def _holder_seminorms(d: np.ndarray, times: np.ndarray, gam: float) -> np.ndarray:
    """max over k and the dyadic index lags L = 1, 2, 4, ... <= len(times) - 1 of
    |d[:, k] - d[:, k - L]| / |t_k - t_{k-L}|^gam, row by row.

    A sampled seminorm on the dyadic lags alone: O(rows n log n) for n
    times, where every pair j < k costs O(rows n^2).  On a uniform grid a
    lag is a sum of at most log2 n dyadic ones, so the seminorm over every
    pair is at most 1 / (1 - 2^-gam) times this one.
    """
    semi = np.zeros(len(d))
    for lag in (1 << j for j in range((len(times) - 1).bit_length())):
        quot = np.abs(d[:, lag:] - d[:, :-lag])
        quot /= np.abs(times[lag:] - times[:-lag]) ** gam
        np.maximum(semi, quot.max(axis=1), out=semi)
    return semi


def kinetic_error_scan(H, eps_list, grid: TimeGrid, n_replicas: int,
                       master_seed: int = 0, threads: int = 1) -> ScanResult:
    """Convergence rate of X^eps = eps^{H-1} int_0^t y^eps ds toward sigma B^H.

    Each eps runs the exponential-Euler chain on dt = eps/fou.MIN_STEPS_PER_EPS,
    under whose left-point rule

        X_{s,t} - sigma B_{s,t} = -eps (v_t - v_s),   v = eps^{H-1} y,

    holds on the grid to floating-point accuracy.  By self-similarity its
    readings at t are sigma eps^H times those of the unit-rate (eps = 1)
    chain on step 1/MIN_STEPS_PER_EPS at t/eps, so one unit-rate chain per
    replica serves every eps, each with its own law.  After 10 units of
    burn-in (a memory of e^{-10}), eps i, largest first, reads its own
    window of t/eps_i units from starts[i] by linear interpolation, under
    which the identity still holds, and takes X - sigma B from the window's
    origin.  The windows do not overlap: on a shared one the eps of a
    commensurate list read the same pairs of the chain, and at H < 1/2,
    whose sup lies inside the window, their sample sups can come from one
    pair, exactly proportional, and leave the slope's CI zero wide.

    The reported statistic is the sup over reporting-grid pairs of the
    replica-L2 error, whose log-log slope against log(1/eps) is H.  Its
    exact value on these grids, ``exact.kinetic_sup_errors``, is 3-5% above
    that at 100 steps per eps, a factor that moves the slope by under 3e-4
    for H in [0.05, 0.95].  meta carries those exact values, their
    least-squares slope and the fit's z against it (``harness.slope_z``),
    the max identity defect, taken from the origin t = 0 where X - sigma B
    and its readings are zero, and the mean Hoelder seminorm at
    gamma = HOLDER_GAMMA_FACTOR*H on the dyadic lags of ``_holder_seminorms``
    with its least-squares slope (``exact.loglog_slope``).

    The fGN comes from one ``fgn.StationarySampler`` built per scan (at
    its fast 5-smooth length).  Within each replica chunk its row blocks
    are reduced, one after the other, to their (rows, n_eps, 2, n_report)
    readings: one recursion and one cumulative sum of the increments of
    X - sigma B per block, read by every eps and scaled by sigma eps^H.  So
    no chunk-sized fGN matrix is built, and every row is the same as from
    a whole-chunk draw.  The sup over pairs takes the sample second moments
    d[:, J].T @ d / n a block of rows J at a time (``exact.sup_over_pairs``),
    so no (n_report + 1)^2 array is built.
    """
    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    if len(eps_arr) < 2:
        raise ValueError("kinetic scan needs at least 2 distinct eps values")
    report_times = grid.times()
    dt = 1.0 / fou.MIN_STEPS_PER_EPS
    n_burn = int(round(10.0 / dt))
    # eps i reads t/eps units of the chain from main point starts[i], after the
    # burn-in and the windows of the larger eps
    n_main = [math.ceil(grid.horizon / eps / dt - 1e-9) for eps in eps_arr]
    starts = np.cumsum([0] + n_main[:-1])
    n_total = n_burn + sum(n_main)
    sampler = fgn.StationarySampler(lambda k: fgn.fgn_autocovariance(k, h), n_total)
    reads = [_grid_reader(p * dt + report_times / eps, dt) for p, eps in zip(starts, eps_arr)]
    gains = [fou.stationary_sigma(h) * eps**h for eps in eps_arr]
    a = math.exp(-dt)
    from scipy.signal import lfilter  # 0.6 s to import: only once the scan is accepted

    def readings(dB):
        """(rows, n_eps, 2, n_report) readings of X - sigma B and eps v from
        unit-spacing fGN rows, through the unit-rate chain."""
        y = lfilter([dt**h], [1.0, -a], dB[:, :n_total], axis=1)
        # y[:, k] is the chain after step k + 1 and the main grid starts after
        # n_burn steps; on its points, Y[:, 0] sums the left-point increments
        # (1 - a) y - dB of X - sigma B and Y[:, 1] is y
        Y = np.zeros((len(y), 2, n_total - n_burn + 1))
        np.cumsum((1.0 - a) * y[:, n_burn - 1 : -1] - dt**h * dB[:, n_burn:n_total],
                  axis=1, out=Y[:, 0, 1:])
        Y[:, 1] = y[:, n_burn - 1 :]
        out = np.empty((len(y), len(eps_arr), 2, len(report_times)))
        for i, (p, gain, read) in enumerate(zip(starts, gains, reads)):
            r = read(Y)
            r[:, 0] -= Y[:, 0, p, None]  # X - sigma B from the window's origin
            out[:, i] = gain * r
        return out

    data = run_replicated(
        n_replicas, master_seed, "kinetic",
        lambda k: np.concatenate([readings(block) for block in sampler.blocks(k)]), threads)
    diff = data[:, :, 0, :]   # X - sigma*B at reporting times
    epsv = data[:, :, 1, :]   # eps * v at reporting times

    # identity defect: X_t - sigma B_t + eps(v_t - v_0) == 0 on-grid, with
    # X_0 = B_0 = 0, so a reading taken from a shifted origin shows
    defect = np.max(np.abs(diff + (epsv - epsv[:, :, :1])))

    sup_err, sup_se, holder = np.empty((3, len(eps_arr)))
    worst = np.empty((len(eps_arr), n_replicas))
    gam = HOLDER_GAMMA_FACTOR * h
    for i in range(len(eps_arr)):
        d = np.ascontiguousarray(diff[:, i, :])
        sq_max, (j, k) = exact.sup_over_pairs(np.einsum("ij,ij->j", d, d) / n_replicas,
                                              lambda J: d[:, J].T @ d / n_replicas)
        sup_err[i] = np.sqrt(sq_max)
        if not sup_err[i] > 0.0:
            raise FoulimError(f"kinetic error vanishes at H={h}, eps={eps_arr[i]}: "
                              "no rate can be fitted to it")
        worst[i] = (d[:, j] - d[:, k]) ** 2
        sup_se[i] = 0.5 * np.std(worst[i], ddof=1) / np.sqrt(n_replicas) / sup_err[i]
        holder[i] = fsum_mean(_holder_seminorms(d, report_times, gam))
    # all eps read one fGN: the sup errors sqrt(mean(worst)) covary (delta method)
    cov = harness._mean_covariance(worst / (2.0 * sup_err[:, None]), sup_se)
    slope, ci = fit_loglog_slope(1.0 / eps_arr, sup_err, cov)
    exact_err = exact.kinetic_sup_errors(h, eps_arr, report_times, fou.MIN_STEPS_PER_EPS)
    return ScanResult(
        eps_arr, sup_err, sup_se, n_replicas, slope, ci,
        meta={
            "exact_values": exact_err,
            "exact_slope": exact.loglog_slope(eps_arr, exact_err),
            "identity_defect_max": float(defect),
            "holder_seminorm": holder,
            "holder_gamma": gam,
            "holder_slope": exact.loglog_slope(eps_arr, holder),
        },
    )
