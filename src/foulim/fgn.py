"""Exact sampling of stationary Gaussian sequences, fGN and fBM.

One circulant-embedding engine (Davies & Harte 1987, in the form given
by Dieker 2004) samples any stationary Gaussian sequence from its
autocovariance, exact in law and O(n log n).  The embedding of n lags
starts at the smallest 5-smooth half-length m >= n, whose FFT is fast
(a large prime factor takes the slow Bluestein path).  Where it has
negative eigenvalues beyond rounding level it is doubled, extending the
autocovariance to the longer range, until it has none (Wood & Chan
1994, who also pad, to powers of two); past a fixed length it raises.  The
random spectrum of each row is Hermitian, so only its first half is
built and ``numpy.fft.hfft`` turns it into the real sequence.  A
``StationarySampler`` computes the embedding once; rows then stream
through it in row blocks of a fixed byte budget (``blocks``), so memory
per call is O(block * m) however many rows are drawn, and ``batch``
collects the blocks into one array.  Each row is addressed by its
Philox key (a row of ``streams.keys``), and a block's normals are drawn
from its keys by ``streams.normals``, so no Generator is built per row.
Its callers are fGN, the stationary fOU of ``fou`` and the kinetic
scan's exponential-Euler chain (``solvers.kinetic_error_scan``), each
eps's on the lattice of every s-th step, with autocovariance R(s k).
Exactness matters here because everything downstream reads rates off
exponents.

The fBM is normalised so that B_0 = 0 and Var(B_1) = 1, with covariance
0.5*(t^{2H} + s^{2H} - |t-s|^{2H}); a path is the cumulative sum of a
``sample_fgn_batch`` row.  The Mandelbrot-Van Ness normalizer c1(H) of
the moving-average representation is evaluated in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .paths import FoulimError, as_hurst
from .streams import normals

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
# rows go through the engine in blocks of this many bytes of normals (3 rows
# at m = 5000, 16 at m = 1000): with the half spectrum, the FFT output and the
# caller's reduction a block holds about 1 MB; with 1 MiB blocks a 200-replica
# kinetic-scan grew the process's resident peak by 3.7-4.7 MB, with these by 0-1
BLOCK_BYTES = 2**18


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


def fgn_autocovariance(lags, H) -> np.ndarray:
    """gamma(k) = 0.5*(|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H})."""
    h = as_hurst(H)
    k = np.abs(np.asarray(lags, dtype=float))
    return 0.5 * ((k + 1) ** (2 * h) + np.abs(k - 1) ** (2 * h) - 2 * k ** (2 * h))


def _smooth_length(n: int) -> int:
    """The smallest 5-smooth integer (no prime factor above 5) >= n."""
    m = max(n, 1)
    while pow(30, 64, m):  # 0 exactly when m divides 30^64: m < 2^64 is 5-smooth
        m += 1
    return m


def _embedding_eigenvalues(acov, n: int) -> tuple[int, np.ndarray]:
    """Half-length m >= n and eigenvalues of the first usable circulant embedding.

    The circulant of length 2m holds acov(0..m) and its mirror image;
    m starts at the smallest 5-smooth length >= n, where the FFT is fast,
    and doubles until its negative eigenvalues sum to at most
    NEGATIVE_EIG_TOL * 2m * acov(0), and those left are clipped.  More
    than MAX_EMBEDDING_LAGS lags are refused before any embedding is tried.
    """
    if n > MAX_EMBEDDING_LAGS:
        size = n if n < 10**9 else f"~1e{len(str(n)) - 1}"  # n may exceed a float
        raise SamplerInfeasibleError(
            f"{size} lags exceed the circulant embedding cap of {MAX_EMBEDDING_LAGS} lags"
        )
    m = _smooth_length(n)
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
    """Stationary Gaussian sequences from one circulant embedding of at least n lags.

    ``acov`` maps an integer lag array 0..m to the autocovariance there, m
    the embedding half-length, which covers max(n, length / 2) lags.  A row
    is the first ``length`` values (default n + 1) of one period of 2m, in
    which any m + 1 consecutive values have the exact Toeplitz covariance
    (Dietrich & Newsam, SIAM J. Sci. Comput. 18 (1997)): every n + 1
    consecutive values of a row are exact in law.  The embedding is
    computed, and its errors raised, once on construction; every call of
    ``blocks`` or ``batch`` then draws one row per Philox key in the
    (rows, 2) array ``keys`` and in its order.  Each row consumes exactly
    2m standard normals from its own stream (m depends on acov, n and
    length only), so results are independent of batching and blocking.

    Of the Hermitian spectrum W of length 2m only W[0..m] is assembled,
    and its real-output FFT is taken: ``np.fft.hfft(W, n=2m)``, which
    equals the real part of the complex FFT of the whole W to rounding.
    hfft is an unnormalized inverse real FFT of conj(W), so conj(W) is
    assembled in place and transformed directly, bit for bit as hfft.
    """

    def __init__(self, acov, n: int, length: int | None = None):
        if n < 1:
            raise ValueError("need n >= 1 lags")
        self.length = n + 1 if length is None else length
        self.m, self.lam = _embedding_eigenvalues(acov, max(n, (self.length + 1) // 2))

    def blocks(self, keys):
        """An iterator of (rows, length) blocks, BLOCK_BYTES of normals each.

        Rows are drawn as it is consumed, through two buffers (normals,
        half spectrum) of its own, so concurrent calls share only lam.
        Each block is a view of the normals buffer, valid until the next.
        """
        size = 2 * self.m
        rows = max(1, min(len(keys), BLOCK_BYTES // (8 * size)))
        raw = np.empty((rows, size))
        W_conj = np.empty((rows, self.m + 1), dtype=complex)
        for start in range(0, len(keys), rows):
            block = keys[start : start + rows]
            k = len(block)
            yield self._rows_from_normals(normals(block, raw[:k]), W_conj[:k])

    def _rows_from_normals(self, raw: np.ndarray, W_conj: np.ndarray) -> np.ndarray:
        """The engine's linear map: (k, 2m) standard normals to (k, length) rows.

        W_conj is a (k, m + 1) complex buffer that receives conj(W); the
        FFT then writes over ``raw`` (twice as fast at m = 20000 as into a
        new array).
        """
        m, lam = self.m, self.lam
        size = 2 * m
        half = np.sqrt(lam[1:m] / (2 * size))
        W_conj.real[:, 0] = np.sqrt(lam[0] / size) * raw[:, 0]
        W_conj.real[:, m] = np.sqrt(lam[m] / size) * raw[:, 1]
        W_conj.imag[:, [0, m]] = 0.0
        np.multiply(half, raw[:, 2 : m + 1], out=W_conj.real[:, 1:m])
        np.multiply(-half, raw[:, m + 1 : size], out=W_conj.imag[:, 1:m])
        return np.fft.irfft(W_conj, n=size, axis=1, norm="forward", out=raw)[:, : self.length]

    def batch(self, keys) -> np.ndarray:
        """All rows of ``blocks(keys)`` in one (len(keys), length) array."""
        out = np.empty((len(keys), self.length))
        start = 0
        for block in self.blocks(keys):
            out[start : start + len(block)] = block
            start += len(block)
        return out


def sample_fgn_batch(n: int, dt: float, H, keys) -> np.ndarray:
    """Sample one fGN vector of length n per Philox key in ``keys``.

    Returns an array of shape (len(keys), n) with the exact joint law of
    fBM increments on spacing dt.  Each row consumes exactly 2m standard
    normals from its own stream, m the smallest 5-smooth integer >= n
    (the minimal fGN embedding of any length has no negative eigenvalues,
    so it is never doubled), so results are independent of batching.
    """
    h = as_hurst(H)
    if n < 1:
        raise ValueError("need n >= 1 increments")
    if dt <= 0:
        raise ValueError("dt must be positive")
    incs = StationarySampler(lambda k: fgn_autocovariance(k, h), n).batch(keys)
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
    return math.gamma(h + 0.5) / math.sqrt(math.gamma(2.0 * h + 1.0) * math.sin(math.pi * h))
