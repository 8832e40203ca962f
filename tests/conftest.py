import os

import numpy as np
import pytest


def engine_covariance(acov, n, length=None):
    """Exact covariance of fgn.StationarySampler(acov, n, length) output.

    The engine maps each row's run of 2m + 2 standard normals (the float
    view of its half spectrum) linearly to its values; applied to the
    identity block, that map returns its own matrix A, and A^T A is the
    covariance.
    """
    from foulim import fgn

    sampler = fgn.StationarySampler(acov, n, length)
    size = 2 * sampler.m + 2
    A = sampler._rows(np.eye(size), np.empty((size, 2 * sampler.m)))
    return A.T @ A


def full_spectrum_reference(acov, n, keys):
    """fgn.StationarySampler(acov, n).batch(keys) built the long way, as an oracle.

    Draws all rows' normals at once from one Generator of keys[0]'s
    Philox key, run i of 2m + 2 for row i, assembles the whole Hermitian
    spectrum W of length 2m, W[j] = sqrt(lam_j / 4m) (a_j + i b_j) from
    normals a_j = 2j and b_j = 2j + 1 of the run (real and sqrt(lam_j / 2m)
    a_j at j = 0 and m), mirrors W[m+1..2m-1] from W[1..m-1], and takes the
    real part of its complex FFT; the same normals in the same order as
    the engine.
    """
    from foulim import fgn

    m, lam = fgn._embedding_eigenvalues(acov, n)
    size = 2 * m
    raw = np.random.Generator(np.random.Philox(key=keys[0])).standard_normal(
        (len(keys), m + 1, 2))
    W = np.empty((len(raw), size), dtype=complex)
    W[:, 0] = np.sqrt(lam[0] / size) * raw[:, 0, 0]
    W[:, m] = np.sqrt(lam[m] / size) * raw[:, m, 0]
    half = np.sqrt(lam[1:m] / (2 * size))
    W[:, 1:m] = half * (raw[:, 1:m, 0] + 1j * raw[:, 1:m, 1])
    W[:, m + 1 :] = np.conj(W[:, m - 1 : 0 : -1])
    return np.fft.fft(W, axis=1).real[:, : n + 1]


def stream(seed, name, index=0):
    """The Generator of stream (seed, name, index): its Philox key from ``streams.keys``."""
    from foulim.streams import keys

    return np.random.Generator(np.random.Philox(key=keys(seed, name, index)[0]))


def chunk_normals(seed, name, n, k):
    """(n, k) normals of ``harness.run_replicated``'s layout, drawn the long way:
    replica i's row is run i - c of k normals of stream (seed, name, c), c =
    CHUNK_SIZE floor(i / CHUNK_SIZE), each chunk from a Generator of its own."""
    from foulim.harness import CHUNK_SIZE

    return np.concatenate([stream(seed, name, c).standard_normal((min(CHUNK_SIZE, n - c), k))
                           for c in range(0, n, CHUNK_SIZE)])


def fbm_paths(grid, H, keys):
    """fBM paths on ``grid``, one row per Philox key, started at 0."""
    from foulim import fgn

    incs = fgn.sample_fgn_batch(grid.n_steps, grid.dt, H, keys)
    return np.concatenate([np.zeros((len(incs), 1)), np.cumsum(incs, axis=1)], axis=1)


# the positions of H and of the eps list in the calls that give each scan its exact values
_EXACT_ARGS = {"resolve_dt_ratio": (1, 3), "kinetic_sup_errors": (0, 1)}


def tilt_exact_slopes(monkeypatch, name, tilts):
    """Raise the exact slope of every scan at an H of ``tilts`` by tilts[H]: the values
    ``exact.<name>`` returns, times (1/eps)^tilt, have a log-log slope tilt higher."""
    from foulim import exact
    from foulim.paths import as_eps_list

    make = getattr(exact, name)
    h_at, eps_at = _EXACT_ARGS[name]

    def tilted(*args, **kwargs):
        got = make(*args, **kwargs)
        w = as_eps_list(args[eps_at]) ** -tilts.get(args[h_at], 0.0)
        return (got[0], got[1] * w) if isinstance(got, tuple) else got * w

    monkeypatch.setattr(exact, name, tilted)


def slope_se(ci):
    """A slope's SE, its 95% CI's half-width / ndtri(0.975)."""
    from scipy import special

    return (ci[1] - ci[0]) / (2.0 * special.ndtri(0.975))


@pytest.fixture(scope="session")
def threads():
    return max(1, int(os.environ.get("FOULIM_THREADS", "1")))
