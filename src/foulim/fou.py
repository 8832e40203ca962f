"""Stationary (rescaled) fractional Ornstein-Uhlenbeck process.

The process is the stationary solution of

    dy_t = -(1/eps) y_t dt + (sigma / eps^H) dB^H_t,

with sigma chosen so the stationary law is N(0, 1).  Its autocorrelation
rho decays only algebraically, rho(s) ~ sigma^2 H(2H-1) s^{2H-2} for
H != 1/2 (Cheridito, Kawaguchi & Maejima 2003), which is what drives all
the scaling-regime behaviour downstream.

The sampler draws the process on a grid directly as a stationary
Gaussian sequence with autocovariance rho(k dt/eps), on the circulant
embedding engine of ``fgn``: exact in law at every resolution, with no
burn-in.  ``path_sampler`` builds the engine for one (grid, scale) once;
its ``blocks`` hand the paths over in row blocks, for callers that
reduce each block before drawing the next, and its ``batch`` collects
them into one matrix.  The sampler takes one Philox key per row, the
keys that ``harness.run_replicated`` hands each replica chunk, so any
range of replicas is drawn on its own and batching never changes a row.

rho is evaluated in three regimes, each on either side of H = 1/2: a
convergent power series below s = 1, the closed form through the
incomplete gamma and Kummer functions on [1, 30), and the asymptotic
series of Cheridito, Kawaguchi & Maejima from s = 30 on.  The spectral
cosine integral and the double-integral covariance formula (H > 1/2
only) are kept in the test suite as independent cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import fgn
from .paths import TimeGrid, as_eps, as_hurst

__all__ = [
    "stationary_sigma",
    "kernel_amplitude",
    "rho",
    "rho_asymptote_constant",
    "rho_power_integral",
    "path_sampler",
]

# the kinetic scan's exponential-Euler chain takes this many steps per unit of eps
MIN_STEPS_PER_EPS = 10.0

# rho takes its small-lag series below the first lag, its closed form up to the
# second and its asymptotic series from there on
_RHO_SMALL_UNTIL = 1.0
_RHO_SMALL_TERMS = 12
_RHO_SERIES_FROM = 30.0
_RHO_SERIES_TERMS = 12
# int_0^{s_max} rho^m: a 24-node Gauss-Legendre rule on each of 1 + 60 panels
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_HEAD_PANELS = 60


def stationary_sigma(H) -> float:
    """Noise amplitude giving the unit-rate fOU stationary variance 1.

    Var(int_{-inf}^t e^{-(t-s)} dB^H_s) = H*Gamma(2H) = Gamma(2H+1)/2, so sigma =
    sqrt(2/Gamma(2H+1)): sqrt(2) at H = 1/2 and as H -> 0, where H*Gamma(2H) is H*inf.
    """
    h = as_hurst(H)
    return math.sqrt(2.0 / math.gamma(2.0 * h + 1.0))


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


def _rho_small(s: np.ndarray, h: float) -> np.ndarray:
    """rho on 0 <= s < _RHO_SMALL_UNTIL from its power series.

    With P(a, s) = 1 - Q(a, s) = s^a e^{-s} 1F1(1; a+1; s) / Gamma(a+1)
    (DLMF 8.5.1) and Kummer's transformation, the closed form of
    ``_rho_closed_form`` becomes

        rho(s) = cosh s - s^{2H}/Gamma(2H+1) sum_{k>=0} s^{2k} / (2H+1)_{2k},

    the odd terms of the two Kummer series cancelling.  Twelve terms leave
    an error below 1e-15 on [0, 1] for H in [0.01, 0.99] (against 40-digit
    mpmath), and rho(0) = 1 exactly.
    """
    pochhammer = np.cumprod(2.0 * h + 1.0 + np.arange(2 * _RHO_SMALL_TERMS - 1))
    coef = 1.0 / np.concatenate([[1.0], pochhammer[1::2]])
    return (np.cosh(s) - s ** (2.0 * h) / math.gamma(2.0 * h + 1.0)
            * np.polynomial.polynomial.polyval(s * s, coef))


def _rho_closed_form(s: np.ndarray, h: float) -> np.ndarray:
    """rho on _RHO_SMALL_UNTIL <= s < _RHO_SERIES_FROM from its closed form.

    Solving (1 - d^2/ds^2) rho = (s^{2H})'' / Gamma(2H+1) gives
    rho(s) = [(e^{-s} G + s^{2H+1}/(2H+1) 1F1(1; 2H+2; -s) + e^s Gamma(2H+1, s)) / 2
              - s^{2H}] / G,  G = Gamma(2H+1).
    One integration by parts of both incomplete integrals turns this into

        rho(s) = (e^{-s} + e^s Q(2H, s) - s^{2H}/G 1F1(1; 2H+1; -s)) / 2,

    with Q the regularized upper incomplete gamma function.  Its two large
    terms are of size s^{2H-1} rather than s^{2H}, so the cancellation
    toward rho ~ s^{2H-2} costs one power of s less.
    """
    from scipy import special  # 0.3 s to import: only once rho is evaluated
    return 0.5 * (
        np.exp(-s)
        + np.exp(s) * special.gammaincc(2.0 * h, s)
        - s ** (2.0 * h) / math.gamma(2.0 * h + 1.0) * special.hyp1f1(1.0, 2.0 * h + 1.0, -s)
    )


def _rho_series(s: np.ndarray, h: float) -> np.ndarray:
    """Asymptotic series sum_k (2H)(2H-1)...(2H-2k+1) s^{2H-2k} / Gamma(2H+1).

    Cheridito, Kawaguchi & Maejima (2003), Theorem 2.3; from s = 30 on,
    twelve terms leave an error of the size of the dropped e^{-s} part.
    """
    k = np.arange(1, _RHO_SERIES_TERMS + 1)
    falling = np.cumprod(2.0 * h - np.arange(2 * _RHO_SERIES_TERMS))[2 * k - 1]
    powers = s[None, :] ** (2.0 * h - 2.0 * k[:, None])
    return falling @ powers / math.gamma(2.0 * h + 1.0)


def rho(s, H):
    """Autocorrelation of the stationary unit-rate fOU at lag |s|.

    The small-lag series below s = 1, the closed form below s = 30 and the
    asymptotic series beyond (which also takes NaN lags, to NaN, and
    infinite ones, to 0), all within about 1e-13 of a high-precision
    evaluation; exactly exp(-|s|) at H = 1/2.  Even in s, rho(0) = 1.
    Scalar or array input.
    """
    h = as_hurst(H)
    s_arr = np.abs(np.asarray(s, dtype=float))
    if h == 0.5:
        out = np.exp(-s_arr)
    else:
        flat = s_arr.ravel()
        small = flat < _RHO_SMALL_UNTIL
        mid = (flat >= _RHO_SMALL_UNTIL) & (flat < _RHO_SERIES_FROM)
        far = ~(small | mid)
        out = np.empty_like(flat)
        out[small] = _rho_small(flat[small], h)
        out[mid] = _rho_closed_form(flat[mid], h)
        out[far] = _rho_series(flat[far], h)
        out = out.reshape(s_arr.shape)
    return float(out) if out.ndim == 0 else out


def _panel_rule(s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 24-node Gauss-Legendre on fixed panels of [0, s_max].

    One panel [0, a], then geometric panels from a up to s_max, with
    a = 1e-10 min(s_max, 1): they resolve the s^{2H} cusp of rho at 0 and
    its slow power-law decay alike.  Both come as (panels, 24) arrays.
    """
    a = 1e-10 * min(s_max, 1.0)
    edges = np.concatenate([[0.0], np.geomspace(a, s_max, _HEAD_PANELS + 1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return lo + half * (1.0 + _GL_X), half * _GL_W


def rho_power_integral(orders, H, s_max: float = 1000.0) -> np.ndarray:
    """int_0^infinity rho(s)^m ds for each m of ``orders`` (finite only when H*(m) < 1/2).

    Quadrature on the panels of ``_panel_rule`` over [0, s_max], with rho
    evaluated once for all orders, plus the closed-form power-law tail
    from the first two terms of the asymptotic series,
    rho(s) ~ D s^{2H-2} (1 + (2H-2)(2H-3) s^{-2}).  Raises if some order
    has H*(m) >= 1/2, where the integral diverges (that regime belongs to
    the non-Gaussian limit).  At H = 1/2 rho = e^{-s}, and each is 1/m.
    """
    h = as_hurst(H)
    ms = [int(m) for m in orders]
    if any(m < 1 for m in ms):
        raise ValueError(f"chaos orders must be >= 1, got {ms}")
    if s_max < _RHO_SERIES_FROM:
        raise ValueError(f"s_max must be at least {_RHO_SERIES_FROM:g}, where the tail series holds")
    if h == 0.5:
        return 1.0 / np.array(ms, dtype=float)  # exponential correlations: int e^{-ms} ds
    for m in ms:
        hs = m * (h - 1.0) + 1.0  # H*(m)
        if hs >= 0.5 - 1e-12:
            raise ValueError(
                f"divergent integral: H*(m) = {hs:.4f} >= 1/2 for m={m}, H={h}"
            )
    s, w = _panel_rule(s_max)
    r = rho(s, h)
    D = rho_asymptote_constant(h)
    out = np.empty(len(ms))
    for i, m in enumerate(ms):
        tail_exp = m * (2.0 * h - 2.0) + 1.0  # = 2 H*(m) - 1 < 0
        second = m * (2.0 * h - 2.0) * (2.0 * h - 3.0)
        tail = D**m * s_max**tail_exp * (
            1.0 / -tail_exp + second * s_max**-2.0 / (2.0 - tail_exp)
        )
        out[i] = float(np.sum(w * r ** m)) + tail
    return out


def path_sampler(grid: TimeGrid, H, eps) -> fgn.StationarySampler:
    """The sampler of stationary fOU paths of (H, eps) on the grid, its embedding computed once.

    Its rows are stationary Gaussian sequences of n_steps + 1 values
    with autocovariance rho(k dt/eps), exact in law at any step, one per
    row of a ``streams.keys`` array: ``blocks(keys)`` hands them over in
    row blocks, for callers that reduce each block before taking the next,
    and ``batch(keys)`` in one matrix.
    """
    h, eps = as_hurst(H), as_eps(eps)
    step = grid.dt / eps
    return fgn.StationarySampler(lambda k: rho(k * step, h), grid.n_steps)

