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
    """Exact covariance of fgn.sample_stationary_batch(acov, n, .) output."""
    from foulim import fgn

    m, _ = fgn._embedding_eigenvalues(acov, n)
    A = fgn.sample_stationary_batch(acov, n, [UnitVectorGenerator(j) for j in range(2 * m)])
    return A.T @ A


def fbm_paths(grid, H, rngs):
    """fBM paths on ``grid``, one row per generator, started at 0."""
    from foulim import fgn

    incs = fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, rngs)
    return np.concatenate([np.zeros((len(incs), 1)), np.cumsum(incs, axis=1)], axis=1)


@pytest.fixture(scope="session")
def threads():
    return max(1, int(os.environ.get("FOULIM_THREADS", "1")))
