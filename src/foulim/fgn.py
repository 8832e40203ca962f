"""Exact sampling of stationary Gaussian sequences, fGN and fBM.

One circulant-embedding engine (Davies & Harte 1987, in the form given
by Dieker 2004) samples any stationary Gaussian sequence from its
autocovariance, exact in law and O(n log n).  Where the minimal
embedding has negative eigenvalues beyond rounding level it is doubled,
extending the autocovariance to the longer range, until it has none
(Wood & Chan 1994); past a fixed length the sampler raises.  The
random spectrum of each row is Hermitian, so only its first half is
built and ``numpy.fft.hfft`` turns it into the real sequence.  A
``StationarySampler`` computes the embedding once; rows then stream
through it in row blocks of a fixed byte budget (``blocks``), so memory
per call is O(block * m) however many rows are drawn, and ``batch``
collects the blocks into one array.  fGN is one caller, the stationary
fOU of ``fou`` the other.  Exactness matters here because everything
downstream reads rates off exponents.

The fBM is normalised so that B_0 = 0 and Var(B_1) = 1, with covariance
0.5*(t^{2H} + s^{2H} - |t-s|^{2H}); a path is the cumulative sum of a
``sample_fgn_batch`` row.  The Mandelbrot-Van Ness normalizer c1(H) of
the moving-average representation is evaluated in closed form.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .paths import FoulimError, as_hurst

__all__ = [
    "SamplerInfeasibleError",
    "StationarySampler",
    "fbm_covariance",
    "fgn_autocovariance",
    "sample_fgn_batch",
    "mvn_normalizer",
]

# clipping the negative eigenvalues moves every lag of the sampled
# autocovariance by at most their sum over the circulant length; the
# embedding is doubled until that is below this fraction of the variance
NEGATIVE_EIG_TOL = 1e-13
# the embedding is doubled up to this many lags (a circulant of twice that)
MAX_EMBEDDING_LAGS = 2**20
# rows go through the engine in blocks of this many bytes of normals (13
# rows at m = 5000): with the half spectrum, the FFT output and the caller's
# reduction the block stays within a few MB, near the size of an L2 cache
BLOCK_BYTES = 2**20


class SamplerInfeasibleError(FoulimError, RuntimeError):
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


class StationarySampler:
    """Stationary Gaussian sequences of n + 1 values from one circulant embedding.

    ``acov`` maps an integer lag array 0..m to the autocovariance there;
    it is read on lags 0..n, and beyond when the embedding is doubled.
    The embedding is computed, and its errors raised, once on
    construction; every call of ``blocks`` or ``batch`` then draws one
    row per generator in the sequence ``rngs`` and in its order, exact
    in law.  Each row consumes exactly 2m standard normals from its own
    stream (m the embedding half-length, which depends on acov and n
    only), so results are independent of batching and blocking.

    Of the Hermitian spectrum W of length 2m only W[0..m] is assembled,
    and its real-output FFT is taken: ``np.fft.hfft(W, n=2m)``, which
    equals the real part of the complex FFT of the whole W to rounding.
    hfft is an unnormalized inverse real FFT of conj(W), so conj(W) is
    assembled in place and transformed directly, bit for bit as hfft.
    """

    def __init__(self, acov, n: int):
        if n < 1:
            raise ValueError("need n >= 1 lags")
        self.n = n
        self.m, self.lam = _embedding_eigenvalues(acov, n)

    def blocks(self, rngs):
        """An iterator of (rows, n + 1) blocks, BLOCK_BYTES of normals each.

        Rows are drawn as it is consumed, through two buffers (normals,
        half spectrum) of its own, so concurrent calls share only lam.
        """
        m, lam, n = self.m, self.lam, self.n
        size = 2 * m
        rows = max(1, min(len(rngs), BLOCK_BYTES // (8 * size)))
        raw = np.empty((rows, size))
        W_conj = np.empty((rows, m + 1), dtype=complex)
        W_conj.imag[:, [0, m]] = 0.0
        edge0, edge_m = np.sqrt(lam[0] / size), np.sqrt(lam[m] / size)
        half = np.sqrt(lam[1:m] / (2 * size))
        for start in range(0, len(rngs), rows):
            block = rngs[start : start + rows]
            k = len(block)
            for i, rng in enumerate(block):
                raw[i] = rng.standard_normal(size)
            W_conj.real[:k, 0] = edge0 * raw[:k, 0]
            W_conj.real[:k, m] = edge_m * raw[:k, 1]
            np.multiply(half, raw[:k, 2 : m + 1], out=W_conj.real[:k, 1:m])
            np.multiply(-half, raw[:k, m + 1 : size], out=W_conj.imag[:k, 1:m])
            yield np.fft.irfft(W_conj[:k], n=size, axis=1, norm="forward")[:, : n + 1]

    def batch(self, rngs, out=None) -> np.ndarray:
        """All rows of ``blocks(rngs)`` in one (len(rngs), n + 1) array.

        The rows are written into ``out`` when it is given, an array of
        that shape in any layout (say, the transpose of a time-major one).
        """
        if out is None:
            out = np.empty((len(rngs), self.n + 1))
        start = 0
        for block in self.blocks(rngs):
            out[start : start + len(block)] = block
            start += len(block)
        return out


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
    incs = StationarySampler(lambda k: fgn_autocovariance(k, h), n).batch(rngs)
    return incs[:, :n] * dt**h


def mvn_normalizer(H) -> float:
    """Moving-average normalizer c1(H) for the two-sided representation.

    c1(H)^2 = int_{-inf}^0 ((1-s)^{H-1/2} - (-s)^{H-1/2})^2 ds + 1/(2H),
    the L2 norm of the Mandelbrot-Van Ness kernel at t = 1, so that
    B_t = (1/c1) int ((t-s)_+^{H-1/2} - (-s)_+^{H-1/2}) dW_s has unit
    variance at t = 1.  The integral has the closed form
    c1(H)^2 = Gamma(H+1/2)^2 / (Gamma(2H+1) sin(pi H)) on all of (0, 1)
    (Mandelbrot & Van Ness 1968).
    """
    h = as_hurst(H)
    return float(
        special.gamma(h + 0.5) / np.sqrt(special.gamma(2.0 * h + 1.0) * np.sin(np.pi * h))
    )
