import os

import numpy as np
import pytest


def kurtosis(x):
    x = np.asarray(x, dtype=float)
    z = (x - x.mean()) / x.std()
    return float((z**4).mean() - 3.0)


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


@pytest.fixture(scope="session")
def threads():
    return max(1, int(os.environ.get("FOULIM_THREADS", "1")))
