"""Exact sampling of stationary Gaussian sequences, fGN and fBM.

One circulant-embedding engine (Davies & Harte 1987, in the form given
by Dieker 2004) samples any stationary Gaussian sequence from its
autocovariance, exact in law and O(n log n).  Where the minimal
embedding has negative eigenvalues beyond rounding level it is doubled,
extending the autocovariance to the longer range, until it has none
(Wood & Chan 1994); past a fixed length the sampler raises.  fGN is one
caller, the stationary fOU of ``fou`` the other.  Exactness matters here
because everything downstream reads rates off exponents.

The fBM is normalised so that B_0 = 0 and Var(B_1) = 1, with covariance
0.5*(t^{2H} + s^{2H} - |t-s|^{2H}).
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from .paths import SamplePath, TimeGrid, as_hurst

__all__ = [
    "SamplerInfeasibleError",
    "sample_stationary_batch",
    "fbm_covariance",
    "fgn_autocovariance",
    "sample_fgn",
    "sample_fgn_batch",
    "sample_fbm",
    "mvn_normalizer",
]

# clipping the negative eigenvalues moves every lag of the sampled
# autocovariance by at most their sum over the circulant length; the
# embedding is doubled until that is below this fraction of the variance
NEGATIVE_EIG_TOL = 1e-13
# the embedding is doubled up to this many lags (a circulant of twice that)
MAX_EMBEDDING_LAGS = 2**20


class SamplerInfeasibleError(RuntimeError):
    """No circulant embedding up to MAX_EMBEDDING_LAGS lags is usable."""


def fbm_covariance(t, s, H) -> np.ndarray | float:
    """Covariance E(B_t B_s) = 0.5*(t^{2H} + s^{2H} - |t-s|^{2H}).

    Accepts scalars or arrays (broadcast).  Times must be non-negative.
    """
    h = as_hurst(H)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0) or np.any(s < 0):
        raise ValueError("fBM covariance is defined for non-negative times")
    out = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
    return out if out.ndim else float(out)


def fgn_autocovariance(lags, H, dt: float = 1.0) -> np.ndarray:
    """gamma(k) = 0.5*(|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H}) * dt^{2H}."""
    h = as_hurst(H)
    k = np.abs(np.asarray(lags, dtype=float))
    g = 0.5 * ((k + 1) ** (2 * h) + np.abs(k - 1) ** (2 * h) - 2 * k ** (2 * h))
    return g * dt ** (2 * h)


def _embedding_eigenvalues(acov, n: int) -> tuple[int, np.ndarray]:
    """Half-length m >= n and eigenvalues of the first usable circulant embedding.

    The circulant of length 2m holds acov(0..m) and its mirror image;
    m doubles from n until its negative eigenvalues sum to at most
    NEGATIVE_EIG_TOL * 2m * acov(0), and those left are clipped.
    """
    m = n
    while m <= MAX_EMBEDDING_LAGS:
        g = acov(np.arange(m + 1))
        lam = np.fft.fft(np.concatenate([g, g[-2:0:-1]])).real
        if -lam[lam < 0].sum() <= NEGATIVE_EIG_TOL * 2 * m * g[0]:
            return m, np.clip(lam, 0.0, None)
        m *= 2
    raise SamplerInfeasibleError(
        f"no usable circulant embedding of {n} lags up to the cap of "
        f"{MAX_EMBEDDING_LAGS} lags; the autocovariance may not be positive definite"
    )


def sample_stationary_batch(acov, n: int, rngs) -> np.ndarray:
    """One stationary Gaussian sequence of n + 1 values per generator in ``rngs``.

    ``acov`` maps an integer lag array 0..m to the autocovariance there;
    it is read on lags 0..n, and beyond when the embedding is doubled.
    Returns shape (len(rngs), n + 1), exact in law.  Each row consumes
    exactly 2m standard normals from its own stream (m the embedding
    half-length, which depends on acov and n only), so results are
    independent of batching.
    """
    if n < 1:
        raise ValueError("need n >= 1 lags")
    m, lam = _embedding_eigenvalues(acov, n)
    size = 2 * m
    raw = np.stack([rng.standard_normal(size) for rng in rngs])
    W = np.empty((len(raw), size), dtype=complex)
    W[:, 0] = np.sqrt(lam[0] / size) * raw[:, 0]
    W[:, m] = np.sqrt(lam[m] / size) * raw[:, 1]
    half = np.sqrt(lam[1:m] / (2 * size))
    W[:, 1:m] = half * (raw[:, 2 : m + 1] + 1j * raw[:, m + 1 : size])
    W[:, m + 1 :] = np.conj(W[:, m - 1 : 0 : -1])
    return np.fft.fft(W, axis=1).real[:, : n + 1]


def sample_fgn_batch(n: int, dt: float, H, rngs) -> np.ndarray:
    """Sample one fGN vector of length n per generator in ``rngs``.

    Returns an array of shape (len(rngs), n) with the exact joint law of
    fBM increments on spacing dt.  Each row consumes exactly 2n standard
    normals from its own stream (the minimal fGN embedding has no
    negative eigenvalues, so it is never doubled), so results are
    independent of batching.
    """
    h = as_hurst(H)
    if n < 1:
        raise ValueError("need n >= 1 increments")
    if dt <= 0:
        raise ValueError("dt must be positive")
    incs = sample_stationary_batch(lambda k: fgn_autocovariance(k, h), n, rngs)
    return incs[:, :n] * dt**h


def sample_fgn(n: int, dt: float, H, rng: np.random.Generator) -> np.ndarray:
    """n increments of fBM on spacing dt, exact in law."""
    return sample_fgn_batch(n, dt, H, [rng])[0]


def sample_fbm(grid: TimeGrid, H, rng: np.random.Generator) -> SamplePath:
    """Fractional Brownian motion on the grid, started at 0."""
    incs = sample_fgn(grid.n_steps, grid.dt, H, rng)
    values = np.concatenate([[0.0], np.cumsum(incs)])
    return SamplePath(grid, values)


def mvn_normalizer(H) -> float:
    """Moving-average normalizer c1(H) for the two-sided representation.

    c1(H)^2 = int_{-inf}^0 ((1-s)^{H-1/2} - (-s)^{H-1/2})^2 ds + 1/(2H),
    the L2 norm of the Mandelbrot-Van Ness kernel at t = 1, so that
    B_t = (1/c1) int ((t-s)_+^{H-1/2} - (-s)_+^{H-1/2}) dW_s has unit
    variance at t = 1.
    """
    h = as_hurst(H)
    a = h - 0.5

    def body(x):
        return ((1.0 + x) ** a - x**a) ** 2

    tail, _ = integrate.quad(body, 0.0, np.inf, limit=400)
    return float(np.sqrt(tail + 1.0 / (2.0 * h)))
