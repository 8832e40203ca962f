"""Stationary (rescaled) fractional Ornstein-Uhlenbeck process.

The process is the stationary solution of

    dy_t = -(1/eps) y_t dt + (sigma / eps^H) dB^H_t,

with sigma chosen so the stationary law is N(0, 1).  Its autocorrelation
rho decays only algebraically, rho(s) ~ sigma^2 H(2H-1) s^{2H-2} for
H != 1/2 (Cheridito, Kawaguchi & Maejima 2003), which is what drives all
the scaling-regime behaviour downstream.

rho is evaluated in closed form, through the incomplete gamma and
Kummer functions, below s = 30 and by the asymptotic series of
Cheridito, Kawaguchi & Maejima beyond; both hold on either side of
H = 1/2.  The spectral cosine integral and the double-integral
covariance formula (H > 1/2 only) are kept in the test suite as
independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.signal import lfilter

from . import fgn
from .paths import SamplePath, TimeGrid, as_eps, as_hurst
from .streams import stream

__all__ = [
    "FouConfig",
    "stationary_sigma",
    "kernel_amplitude",
    "rho",
    "rho_asymptote_constant",
    "rho_power_integral",
    "variance_growth",
    "sample_fou",
    "sample_fou_ensemble",
]

# resolve the relaxation time: dt <= eps / MIN_STEPS_PER_EPS
MIN_STEPS_PER_EPS = 10.0

# rho switches from its closed form to the asymptotic series at this lag
_RHO_SERIES_FROM = 30.0
_RHO_SERIES_TERMS = 12
# int_0^{s_max} rho^m: a 24-node Gauss-Legendre rule on each of 1 + 60 panels
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_HEAD_PANELS = 60


def stationary_sigma(H) -> float:
    """Noise amplitude giving the unit-rate fOU stationary variance 1.

    Var(int_{-inf}^t e^{-(t-s)} dB^H_s) = H*Gamma(2H), so
    sigma = 1/sqrt(H*Gamma(2H)).  (H = 1/2 gives the classical sqrt(2).)
    """
    h = as_hurst(H)
    return float(1.0 / np.sqrt(h * special.gamma(2.0 * h)))


def kernel_amplitude(H) -> float:
    """Amplitude C(H) of the moving-average kernel tail.

    The stationary fOU has the Wiener representation
    y_t = eps^{-1/2} int ghat((t-s)/eps) dW_s with
    ghat(v) ~ C(H) v^{H-3/2} as v -> infinity, where
    C(H) = sigma(H) (H - 1/2) / c1(H).  This constant carries through to
    the Hermite-limit normalization, satisfying
    C^2 = sigma^2 H (2H-1) / Beta(H-1/2, 2-2H).
    """
    h = as_hurst(H)
    if h <= 0.5:
        raise ValueError("the moving-average representation requires H > 1/2")
    return stationary_sigma(h) * (h - 0.5) / fgn.mvn_normalizer(h)


def rho_asymptote_constant(H) -> float:
    """Constant D in rho(s) = D s^{2H-2} + O(s^{2H-4}), D = sigma^2 H(2H-1)."""
    h = as_hurst(H)
    return stationary_sigma(h) ** 2 * h * (2.0 * h - 1.0)


def _rho_closed_form(s: np.ndarray, h: float) -> np.ndarray:
    """rho on 0 <= s < _RHO_SERIES_FROM from its closed form.

    Solving (1 - d^2/ds^2) rho = (s^{2H})'' / Gamma(2H+1) gives
    rho(s) = [(e^{-s} G + s^{2H+1}/(2H+1) 1F1(1; 2H+2; -s) + e^s Gamma(2H+1, s)) / 2
              - s^{2H}] / G,  G = Gamma(2H+1).
    One integration by parts of both incomplete integrals turns this into

        rho(s) = (e^{-s} + e^s Q(2H, s) - s^{2H}/G 1F1(1; 2H+1; -s)) / 2,

    with Q the regularized upper incomplete gamma function.  Its two large
    terms are of size s^{2H-1} rather than s^{2H}, so the cancellation
    toward rho ~ s^{2H-2} costs one power of s less.
    """
    g = special.gamma(2.0 * h + 1.0)
    return 0.5 * (
        np.exp(-s)
        + np.exp(s) * special.gammaincc(2.0 * h, s)
        - s ** (2.0 * h) / g * special.hyp1f1(1.0, 2.0 * h + 1.0, -s)
    )


def _rho_series(s: np.ndarray, h: float) -> np.ndarray:
    """Asymptotic series sum_k (2H)(2H-1)...(2H-2k+1) s^{2H-2k} / Gamma(2H+1).

    Cheridito, Kawaguchi & Maejima (2003), Theorem 2.3; from s = 30 on,
    twelve terms leave an error of the size of the dropped e^{-s} part.
    """
    k = np.arange(1, _RHO_SERIES_TERMS + 1)
    falling = np.cumprod(2.0 * h - np.arange(2 * _RHO_SERIES_TERMS))[2 * k - 1]
    powers = s[None, :] ** (2.0 * h - 2.0 * k[:, None])
    return falling @ powers / special.gamma(2.0 * h + 1.0)


def rho(s, H):
    """Autocorrelation of the stationary unit-rate fOU at lag |s|.

    Closed form below s = 30 and the asymptotic series beyond, both
    within about 1e-13 of a high-precision evaluation; exactly exp(-|s|)
    at H = 1/2.  Even in s, rho(0) = 1.  Scalar or array input.
    """
    h = as_hurst(H)
    s_arr = np.abs(np.asarray(s, dtype=float))
    if h == 0.5:
        out = np.exp(-s_arr)
    else:
        flat = s_arr.ravel()
        near = flat < _RHO_SERIES_FROM
        out = np.empty_like(flat)
        out[near] = _rho_closed_form(flat[near], h)
        out[~near] = _rho_series(flat[~near], h)
        out = out.reshape(s_arr.shape)
    return float(out) if out.ndim == 0 else out


def _h_star(m: int, h: float) -> float:
    return m * (h - 1.0) + 1.0


def _rho_power_head(h: float, m: int, s_max: float) -> float:
    """int_0^{s_max} rho(s)^m ds by 24-node Gauss-Legendre on fixed panels.

    One panel [0, 1e-10], then geometric panels up to s_max: they resolve
    the s^{2H} cusp at 0 and the slow power-law decay alike.
    """
    edges = np.concatenate([[0.0], np.geomspace(1e-10, s_max, _HEAD_PANELS + 1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    s = lo + half * (1.0 + _GL_X)
    return float(np.sum(half * _GL_W * rho(s, h) ** m))


def rho_power_integral(m: int, H, s_max: float = 1000.0) -> float:
    """int_0^infinity rho(s)^m ds (finite only when H*(m) < 1/2).

    Quadrature on [0, s_max] plus the closed-form power-law tail from the
    first two terms of the asymptotic series, rho(s) ~ D s^{2H-2}
    (1 + (2H-2)(2H-3) s^{-2}).  Raises for H*(m) >= 1/2, where the
    integral diverges (that regime belongs to the non-Gaussian limit).
    """
    h = as_hurst(H)
    if m < 1:
        raise ValueError("chaos order m must be >= 1")
    if s_max < _RHO_SERIES_FROM:
        raise ValueError(f"s_max must be at least {_RHO_SERIES_FROM:g}, where the tail series holds")
    if h == 0.5:
        return 1.0 / m  # exponential correlations: int e^{-ms} ds
    hs = _h_star(m, h)
    if hs >= 0.5 - 1e-12:
        raise ValueError(
            f"divergent integral: H*(m) = {hs:.4f} >= 1/2 for m={m}, H={h}"
        )
    head = _rho_power_head(h, m, s_max)
    D = rho_asymptote_constant(h)
    tail_exp = m * (2.0 * h - 2.0) + 1.0  # = 2 H*(m) - 1 < 0
    second = m * (2.0 * h - 2.0) * (2.0 * h - 3.0)
    tail = D**m * s_max**tail_exp * (
        1.0 / -tail_exp + second * s_max**-2.0 / (2.0 - tail_exp)
    )
    return head + tail


def variance_growth(m: int, H, t: float, eps: float) -> float:
    """Predicted order of (int_0^{t/eps} int_0^{t/eps} |rho|^m)^{1/2}.

    sqrt(t/eps * int rho^m), sqrt((t/eps)|ln eps|) or (t/eps)^{H*(m)}
    depending on the regime of H*(m).
    """
    h = as_hurst(H)
    hs = _h_star(m, h)
    tau = t / eps
    if abs(hs - 0.5) <= 1e-12:
        return float(np.sqrt(tau * abs(np.log(eps))))
    if hs < 0.5:
        return float(np.sqrt(tau * rho_power_integral(m, h)))
    return float(tau**hs)


@dataclass(frozen=True)
class FouConfig:
    """Configuration of the rescaled stationary fOU sampler.

    sigma defaults to the value that makes the stationary variance 1;
    burn_in is the pre-horizon relaxation length in units of eps (the
    residual initialization bias is e^{-burn_in}).
    """

    H: float
    eps: float
    sigma: float | None = None
    burn_in: float = 10.0

    def __post_init__(self):
        as_hurst(self.H)
        as_eps(self.eps)
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.sigma is None:
            object.__setattr__(self, "sigma", stationary_sigma(self.H))
        elif self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _check_resolution(dt: float, eps: float):
    if dt > eps / MIN_STEPS_PER_EPS * (1.0 + 1e-12):
        raise ValueError(
            f"under-resolved fast scale: dt={dt:.3g} > eps/{MIN_STEPS_PER_EPS:.0f}"
            f"={eps / MIN_STEPS_PER_EPS:.3g}"
        )


# terms of the zeta series in _grid_variance_ratio; the k-th term is
# O((dt/eps / 2 pi)^k), below 1e-17 of the leading one from k = 20 for dt <= eps/10
_POLYLOG_SERIES_TERMS = 24


@lru_cache(maxsize=256)
def _grid_variance_ratio(H, step: float) -> float:
    """Stationary variance of the exponential-Euler fOU chain, relative to the fOU's.

    The chain y_{k+1} = a y_k + (sigma/eps^H) dB_k, a = e^{-step},
    step = dt/eps, driven by exact fGN increments dB_k, has stationary
    variance (sigma/eps^H)^2 sum_{i,j>=0} a^{i+j} gamma(i-j).  With the
    fGN autocovariance gamma the double sum collapses to

        sigma^2 step^{2H} (1 - a) Li_{-2H}(a) / (a (1 + a)),

    and Li_{-2H}(e^{-step}) = Gamma(1+2H) step^{-1-2H}
    + sum_k zeta(-2H-k) (-step)^k / k!  (convergent for step < 2 pi).
    Dividing by the continuous-time variance sigma^2 H Gamma(2H) gives
    1 + step + O(step^2): +1% at dt = eps/100.
    """
    h = as_hurst(H)
    k = np.arange(_POLYLOG_SERIES_TERMS)
    series = np.sum(special.zeta(-2.0 * h - k) * (-step) ** k / special.factorial(k))
    a = np.exp(-step)
    prefactor = 2.0 * -np.expm1(-step) / (step * a * (1.0 + a))
    return float(prefactor * (1.0 + step ** (1.0 + 2.0 * h) / special.gamma(1.0 + 2.0 * h) * series))


def _chain_coefficients(dt: float, cfg: FouConfig) -> tuple[float, float]:
    """Decay a and noise gain of the grid chain y_{k+1} = a y_k + gain dB_k.

    The gain is sigma/eps^H rescaled by _grid_variance_ratio, so the
    chain's stationary marginal is exactly the fOU's N(0, (sigma/sigma_H)^2),
    sigma_H = stationary_sigma(H), at every resolution dt/eps.
    """
    step = dt / cfg.eps
    gain = cfg.sigma / cfg.eps ** float(cfg.H) / np.sqrt(_grid_variance_ratio(cfg.H, step))
    return float(np.exp(-step)), float(gain)


def _fou_from_increments(dB: np.ndarray, dt: float, cfg: FouConfig, n_burn: int) -> np.ndarray:
    """Exponential-Euler recursion y_{k+1} = e^{-dt/eps} y_k + gain dB_k."""
    a, gain = _chain_coefficients(dt, cfg)
    y = lfilter([gain], [1.0, -a], dB, axis=-1)
    out = y[..., n_burn:]
    # prepend the state at t=0 (end of burn-in); y starts from 0 there if no burn-in
    if n_burn == 0:
        lead = np.zeros(out.shape[:-1] + (1,))
    else:
        lead = y[..., n_burn - 1 : n_burn]
    return np.concatenate([lead, out], axis=-1)


def sample_fou(grid: TimeGrid, cfg: FouConfig, rng: np.random.Generator) -> SamplePath:
    """Stationary fOU path on the grid.

    Runs the exponential-Euler update over burn_in*eps of pre-horizon
    time, driven by exact fGN increments, then returns the segment on
    [0, horizon].  The noise gain is normalized so the stationary marginal
    is exact at the grid resolution.  Requires grid.dt <= eps/10.
    """
    dt = grid.dt
    _check_resolution(dt, cfg.eps)
    n_burn = int(np.ceil(cfg.burn_in * cfg.eps / dt))
    n_total = n_burn + grid.n_steps
    dB = fgn.sample_fgn(n_total, dt, cfg.H, rng)
    values = _fou_from_increments(dB, dt, cfg, n_burn)
    return SamplePath(grid, values)


def sample_fou_ensemble(
    grid: TimeGrid,
    cfg: FouConfig,
    master_seed: int,
    n_replicas: int,
    name: str = "fou",
    replica_offset: int = 0,
) -> np.ndarray:
    """Matrix of stationary fOU paths, one replica per row.

    Replica i is driven by the stream (master_seed, name, replica_offset+i),
    so any contiguous block of replicas can be generated independently and
    the result never depends on batching.
    """
    dt = grid.dt
    _check_resolution(dt, cfg.eps)
    n_burn = int(np.ceil(cfg.burn_in * cfg.eps / dt))
    n_total = n_burn + grid.n_steps
    rngs = [stream(master_seed, name, replica_offset + i) for i in range(n_replicas)]
    dB = fgn.sample_fgn_batch(n_total, dt, cfg.H, rngs)
    return _fou_from_increments(dB, dt, cfg, n_burn)
