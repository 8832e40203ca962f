"""Path-wise solvers for the slow/fast system and its limit equations.

Both sides of the homogenization limit are the one equation
dx = f(x) dU + h(x) dV.  In one dimension the flow of f turns it into an
ODE along the driver (Doss, Ann. IHP 13 (1977); Sussmann, Ann. Probab. 6
(1978) 19-41): x_t = phi(U_t, s_t) with ds = h(x) / d_s phi(U_t, s) dV,
where each ``Flow`` of ``FLOWS``, one per ``--f`` preset, carries phi,
d_s phi and the coordinate s0 of x0 in closed form.  So
``solve_limit_stratonovich`` steps s alone, by one batched Heun scheme
along U's grid values: the Stratonovich solution for a Brownian driver,
the Young one for a driver of Hoelder regularity > 1/2 (vector states
with H < 1/2 would need Levy-area simulation and are out of scope).  One
rule, ``_stepped``, holds on both sides: Heun steps only when h is neither
None nor f's own field; otherwise x_t = phi(U_t + V_t, s0) at the drivers'
endpoints.  On the slow/fast side, dx = alpha(eps) f(x) G(y^eps) dt +
h(x) g(y^eps) dt, U = alpha int G(y^eps) and V = int g(y^eps) are
trapezoid integrals on the grid of ``exact.resolve_dt_ratio``, built row
block by row block from the fOU sampler.  On the limit side dU = c dW in
the short-range regime and c dZ^{H*,m} (a Hermite process, H* > 1/2) in
the long-range one, and dV = g_bar dt.  The kinetic scan reads each eps
off its own unit-rate exponential-Euler chain (self-similarity), at
dt = eps/fou.MIN_STEPS_PER_EPS, drawn only on the lattice its readings
touch, row block by row block like ``harness``'s scans, from the engine
on the chain's exact covariance (``exact.kinetic_chain_autocovariance``)
read every s steps.  That covariance names the pair
of reporting times where the scan reads its error and shows that a finer
grid moves the slope it fits by less than 3e-4.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
    "Homogenization",
    "homogenize",
    "solve_limit_stratonovich",
    "kinetic_error_scan",
]

BLOWUP_GUARD = 1e8
# a stepping limit takes LIMIT_STEPS Heun steps; the Hermite path has HERMITE_STEPS
LIMIT_STEPS, HERMITE_STEPS = 100, 400
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


def _stepped(flow: Flow, h) -> bool:
    """Whether dx = f(x) dU + h(x) dV needs Heun steps: h neither None nor f's own field."""
    return h is not None and h is not flow.f


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
    if not _stepped(flow, h):
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

    f is a ``Flow``; n replicas of the ensemble (seed, "slowfast"), at
    dt = eps / dt_ratio.  The system is dx = f(x) dU + h(x) dV with the
    trapezoid integrals U = alpha int G(y^eps) and V = int g(y^eps).
    Unstepped, x_t = phi(U_t + V_t, s0) at the one integral of G + g / alpha
    (G without a drift) that ``harness._fou_endpoint_samples`` reduces each
    row block to; stepped, their increments go time-major, row block by row
    block, into one chunk's (n_steps, rows) arrays for Heun.
    """
    alpha = chaos.classify_regime(G.hermite_rank, H).alpha(eps)
    if not _stepped(f, h):
        F = G if h is None else (lambda y: G(y) + g(y) / alpha)
        u = harness._fou_endpoint_samples(F, H, t, eps, n, seed, "slowfast", dt_ratio,
                                          alpha, threads)
        return solve_limit_stratonovich(f, x0, None, u[None], 0.0)
    grid = TimeGrid.with_step(t, eps / dt_ratio)
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


def _limit_endpoints(G, H, c, t, x0, f, h, g_bar, n, seed, threads=1) -> np.ndarray:
    """Endpoints x_t of dx = f(x) dU + h(x) g_bar dt, n replicas from ``seed``.

    f is a ``Flow`` and c = ``chaos.c_constant(G, H)``.  U = c W in the
    short-range and boundary regimes, W from the ensemble (seed, "limit-endpoint");
    U = sign(a_m) c Z^{H*,m} in the long-range regime, Z on HERMITE_STEPS
    steps from (seed, "limit-endpoint-z").  Unstepped, x_t =
    phi(U_t + g_bar t, s0) at W_t, one normal, or at Z_t.  Stepped, Heun
    takes LIMIT_STEPS steps in both regimes, on W's increments or on Z's at
    every fourth point: for He_2, f = sin + 2, h = 1 and g = cos, Var x_1 is
    within 3.0e-6 (H 0.6) and 7.7e-6 (H 0.7) relative of 3,200 steps on the
    same W (20,000 replicas), and 1.7e-5 (H 0.85, five seeds of 4,000) of all
    400 on the same Z.  Each ``run_replicated`` chunk is solved before the next.
    """
    regime = chaos.classify_regime(G.hermite_rank, H)
    steps = LIMIT_STEPS if _stepped(f, h) else 1
    if regime.kind is Regime.LONG_RANGE:
        m = G.hermite_rank
        engine = hermite.HermiteEngine(TimeGrid(t, HERMITE_STEPS), regime.h_star, m)
        idx = np.arange(0, HERMITE_STEPS + 1, HERMITE_STEPS // steps)  # Z_0 = 0, ..., Z_t
        name, scale = "limit-endpoint-z", np.sign(G.coefficients[m]) * c

        def increments(chunk_keys):
            return np.diff(hermite.hermite_ensemble(engine, chunk_keys, idx), axis=1)
    else:
        name, scale = "limit-endpoint", c * np.sqrt(t / steps)

        def increments(chunk_keys):
            return next(normals(chunk_keys, np.empty((len(chunk_keys), steps))))

    def solve_chunk(chunk_keys):
        dU = np.ascontiguousarray(increments(chunk_keys).T) * scale
        return solve_limit_stratonovich(f, x0, h, dU, g_bar * (t / steps))

    return run_replicated(n, seed, name, solve_chunk, threads)


# ``homogenize``'s endpoints, c, g_bar, grid rung with its exact variance, and limit steps
Homogenization = namedtuple("Homogenization", "x_eps x_lim c g_bar resolution variance steps")


def homogenize(G, H, eps, f: Flow, h, g, n_replicas: int, master_seed: int, t: float = 1.0,
               x0: float = 0.0, threads: int = 1) -> Homogenization:
    """Endpoints x^eps_t of the slow/fast system and x_t of its limit equation.

    f is a ``Flow`` (one of ``FLOWS``), h and g plain fields; h or g None
    is no drift.  ``_slow_fast_endpoints`` solves dx = alpha(eps) f(x)
    G(y^eps) dt + h(x) g(y^eps) dt from the ensemble (master_seed, "slowfast")
    on the rung of one ``exact.resolve_dt_ratio`` call (eps/5 for He_2 at
    H 0.6, eps/2 at 0.85, eps 0.02 and 600 replicas, where Heun with a drift
    moves the variance by under 1e-5 relative), and ``_limit_endpoints`` the
    limit dx = f(x) dU + g_bar h(x) dt, g_bar = E g(N(0, 1)), from
    master_seed + 1; both by the rule of ``_stepped``.
    """
    eps = as_eps(eps)
    if h is None or g is None:
        h = g = None
    resolution, var = exact.resolve_dt_ratio(G, H, t, [eps], n_replicas)
    x_eps = _slow_fast_endpoints(G, H, t, eps, x0, f, h, g, n_replicas, master_seed,
                                 resolution["dt_ratio"], threads)
    g_bar = 0.0 if g is None else chaos.gaussian_expectation(g)
    c = chaos.c_constant(G, H)
    x_lim = _limit_endpoints(G, H, c, t, x0, f, h, g_bar, n_replicas, master_seed + 1,
                             threads)
    steps = {"limit_steps": LIMIT_STEPS if _stepped(f, h) else 1}
    if chaos.classify_regime(G.hermite_rank, H).kind is Regime.LONG_RANGE:
        steps["hermite_steps"] = HERMITE_STEPS
    return Homogenization(x_eps, x_lim, c, g_bar, resolution, float(var[0]), steps)


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


def _kinetic_statistics(r: np.ndarray, pair, times: np.ndarray, gam: float) -> np.ndarray:
    """(rows, 3): for each row of the (rows, 2, n_report) readings r of d = X - sigma B
    and eps v, the squared error (d_j - d_k)^2 at pair = (j, k), the Hoelder seminorm
    of d at gam (``_holder_seminorms``) and the identity defect max |d + eps (v - v_0)|,
    zero on-grid where X_0 = B_0 = 0, so a reading taken from a shifted origin shows."""
    d, epsv = r[:, 0], r[:, 1]
    j, k = pair
    return np.column_stack([(d[:, j] - d[:, k]) ** 2, _holder_seminorms(d, times, gam),
                            np.max(np.abs(d + (epsv - epsv[:, :1])), axis=1)])


def kinetic_error_scan(H, eps_list, grid: TimeGrid, n_replicas: int,
                       master_seed: int = 0, threads: int = 1) -> ScanResult:
    """Convergence rate of X^eps = eps^{H-1} int_0^t y^eps ds toward sigma B^H.

    Each eps runs the exponential-Euler chain on dt = eps/fou.MIN_STEPS_PER_EPS,
    under whose left-point rule

        X_{s,t} - sigma B_{s,t} = -eps (v_t - v_s),   v = eps^{H-1} y,

    holds on the grid to floating-point accuracy.  By self-similarity its
    readings at t are sigma eps^H times those of the unit-rate (eps = 1)
    chain y_k = a y_{k-1} + dt^H dB_k on step dt = 1/MIN_STEPS_PER_EPS at
    t/eps, read by linear interpolation, under which the identity still
    holds.  Each eps draws its own chain, on the lattice of every s-th
    point: s is the largest step whose multiples hold every point that its
    readings touch (lo, and lo + 1 where w > 0, of ``exact.reading_weights``).
    Read every s steps, a stationary sequence with autocovariance R is
    stationary with R(s k); the chain's exact R
    (``exact.kinetic_chain_autocovariance``) is computed once, out to the
    longest window or to the exact side's reading lags
    (``exact.kinetic_reading_lags``), whichever is longer; it serves both
    sides, and each lattice comes straight from
    ``fgn.StationarySampler`` on R(s k): 400 normals per replica for
    the default list, where one step-dt chain holding every window took
    2,000.  Each eps is its own ensemble, stream "kinetic-eps{i}", so the
    windows are independent; the slope CI takes the errors' covariance
    from the replicas all the same.  X - sigma B over one lattice step is
    the sum of its s left-point increments (1 - a) y_{k-1} - dt^H dB_k,
    dt^H dB_k = y_k - a y_{k-1}, which telescopes to y_{(k-1)s} - y_{ks};
    it is summed from the window's origin, and each row block is reduced
    to its per-replica ``_kinetic_statistics`` before the next is drawn,
    so no replica's readings outlive their block.  A window longer than
    ``fgn.MAX_EMBEDDING_LAGS`` steps is refused before R is built.

    The exact covariance of the readings (``exact.kinetic_sup_errors``)
    names each eps's pair (j, k) of reporting times where the L2 error
    of X - sigma B is largest.  The reported statistic is the replica-L2
    error sqrt(mean (d_j - d_k)^2) at that pair, unbiased in its square
    for the exact sup, whose log-log slope against log(1/eps) is H.  That
    exact sup is 3-5% above that at 100 steps per eps, a factor that moves
    the slope by under 3e-4 for H in [0.05, 0.95].  meta carries the exact
    sups, their least-squares slope and the fit's z against it
    (``harness.slope_z``), the max identity defect, taken from the origin
    t = 0 where X - sigma B and its readings are zero, and the mean
    Hoelder seminorm at gamma = HOLDER_GAMMA_FACTOR*H on the dyadic lags
    of ``_holder_seminorms`` with its least-squares slope
    (``exact.loglog_slope``).
    """
    h = as_hurst(H)
    eps_arr = as_eps_list(eps_list)
    if len(eps_arr) < 2:
        raise ValueError("kinetic scan needs at least 2 distinct eps values")
    report_times = grid.times()
    dt = 1.0 / fou.MIN_STEPS_PER_EPS
    longest = grid.horizon / float(eps_arr[-1]) / dt - 1e-9  # the finest eps's window
    if not longest <= fgn.MAX_EMBEDDING_LAGS:
        size = math.ceil(longest) if longest < 1e9 else f"~{longest:.0e}"
        raise fgn.SamplerInfeasibleError(
            f"{size} lags exceed the circulant embedding cap of {fgn.MAX_EMBEDDING_LAGS} lags")
    R = exact.kinetic_chain_autocovariance(h, dt, max(
        math.ceil(longest) + 1,
        exact.kinetic_reading_lags(eps_arr, report_times, fou.MIN_STEPS_PER_EPS)))
    pairs, exact_err = exact.kinetic_sup_errors(h, eps_arr, report_times,
                                                fou.MIN_STEPS_PER_EPS, R)
    gam = HOLDER_GAMMA_FACTOR * h

    def draw(i, eps):
        """The (3, n_replicas) ``_kinetic_statistics`` of eps i, read at its pair."""
        lo, w = exact.reading_weights(report_times / eps, dt)
        touched = np.concatenate([lo, lo[w > 0] + 1])
        s = int(np.gcd.reduce(touched)) or 1
        # R(s k); a doubled embedding can ask for lags past the longest window
        sampler = fgn.StationarySampler(
            lambda k: (R if s * k[-1] < len(R)
                       else exact.kinetic_chain_autocovariance(h, dt, s * k[-1] + 1))[s * k],
            int(touched.max()) // s)
        read = _grid_reader(report_times / eps, s * dt)
        gain = fou.stationary_sigma(h) * eps**h

        def readings(y):
            # on the lattice, Y[:, 0] sums X - sigma B's telescoped increments and Y[:, 1] is y
            Y = np.empty((len(y), 2, y.shape[1]))
            Y[:, 0, 0] = 0.0
            np.cumsum(y[:, :-1] - y[:, 1:], axis=1, out=Y[:, 0, 1:])
            Y[:, 1] = y
            return gain * read(Y)

        return run_replicated(n_replicas, master_seed, f"kinetic-eps{i}", lambda k: np.concatenate(
            [_kinetic_statistics(readings(block), pairs[i], report_times, gam)
             for block in sampler.blocks(k)]), threads).T

    worst, holders, defects = np.stack([draw(i, eps) for i, eps in enumerate(eps_arr)], axis=1)
    sup_err = np.sqrt(np.mean(worst, axis=1))
    for eps, err in zip(eps_arr, sup_err):
        if not err > 0.0:
            raise FoulimError(f"kinetic error vanishes at H={h}, eps={eps}: "
                              "no rate can be fitted to it")
    sup_se = 0.5 * np.std(worst, axis=1, ddof=1) / np.sqrt(n_replicas) / sup_err
    holder = np.array([fsum_mean(row) for row in holders])
    # the errors sqrt(mean(worst)) covary as the replicas say (delta method)
    cov = harness._mean_covariance(worst / (2.0 * sup_err[:, None]), sup_se)
    slope, ci = fit_loglog_slope(1.0 / eps_arr, sup_err, cov)
    return ScanResult(
        eps_arr, sup_err, sup_se, n_replicas, slope, ci,
        meta={
            "exact_values": exact_err,
            "exact_slope": exact.loglog_slope(eps_arr, exact_err),
            "identity_defect_max": float(defects.max()),
            "holder_seminorm": holder,
            "holder_gamma": gam,
            "holder_slope": exact.loglog_slope(eps_arr, holder),
        },
    )
