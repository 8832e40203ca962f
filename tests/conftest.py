import os

import numpy as np
import pytest


class UnitVectorGenerator:
    """Stands in for a Generator: its standard normals are the j-th unit vector.

    A linear sampler fed one such generator per coordinate returns the
    columns of its linear map A, so A A^T is the exact covariance of its
    output.
    """

    def __init__(self, j):
        self.j = j

    def standard_normal(self, size):
        e = np.zeros(size)
        e[self.j] = 1.0
        return e


def engine_covariance(acov, n):
    """Exact covariance of fgn.StationarySampler(acov, n) output."""
    from foulim import fgn

    sampler = fgn.StationarySampler(acov, n)
    A = sampler.batch([UnitVectorGenerator(j) for j in range(2 * sampler.m)])
    return A.T @ A


def full_spectrum_reference(acov, n, rngs):
    """fgn.StationarySampler(acov, n).batch(rngs) built the long way, as an oracle.

    Assembles the whole Hermitian spectrum W of length 2m, mirroring
    W[m+1..2m-1] from W[1..m-1], and takes the real part of its complex
    FFT; the same normals in the same order as the engine.
    """
    from foulim import fgn

    m, lam = fgn._embedding_eigenvalues(acov, n)
    size = 2 * m
    raw = np.stack([rng.standard_normal(size) for rng in rngs])
    W = np.empty((len(raw), size), dtype=complex)
    W[:, 0] = np.sqrt(lam[0] / size) * raw[:, 0]
    W[:, m] = np.sqrt(lam[m] / size) * raw[:, 1]
    half = np.sqrt(lam[1:m] / (2 * size))
    W[:, 1:m] = half * (raw[:, 2 : m + 1] + 1j * raw[:, m + 1 : size])
    W[:, m + 1 :] = np.conj(W[:, m - 1 : 0 : -1])
    return np.fft.fft(W, axis=1).real[:, : n + 1]


def fbm_paths(grid, H, rngs):
    """fBM paths on ``grid``, one row per generator, started at 0."""
    from foulim import fgn

    incs = fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, rngs)
    return np.concatenate([np.zeros((len(incs), 1)), np.cumsum(incs, axis=1)], axis=1)


@pytest.fixture(scope="session")
def threads():
    return max(1, int(os.environ.get("FOULIM_THREADS", "1")))
