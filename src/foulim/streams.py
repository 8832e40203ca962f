"""Named, counter-based random streams.

Every random draw in the package comes from a stream addressed by
``(master_seed, name, index)``.  Streams are backed by the Philox
counter-based bit generator, so they are reproducible regardless of the
order in which they are created or consumed, which makes replica-parallel
runs bit-identical for any worker count.

A Philox stream is set by its 128-bit key and a zero counter, and
distinct keys give independent streams (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  Stream i's key is the uint64
pair ``(tag, i)``, tag a 64-bit blake2b digest of seed and name.
``keys`` builds a range of them at once.  A key array stands for the
stream of its first row, the later rows only counting runs (their keys
are not read): ``normals`` reads one run of k normals per row from that
stream, in row order, so a block of rows is one ``standard_normal`` call.  ``harness.run_replicated`` hands each chunk of
``CHUNK_SIZE`` replicas the keys of its rows, so replica i reads run
i - c of stream (master_seed, name, c), c its chunk's first replica.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["keys", "normals"]


def keys(master_seed: int, name: str, offset: int = 0, count: int = 1) -> np.ndarray:
    """Philox keys of streams (master_seed, name, offset .. offset + count - 1).

    Returns a (count, 2) uint64 array whose row i is ``(tag, offset + i)``,
    tag the little-endian 64-bit blake2b digest of ``f"{master_seed}/{name}"``.
    Indices must lie below 2**64.  ``normals`` reads stream offset's alone.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if offset < 0:
        raise ValueError("stream index must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    if offset + count > 2**64:
        raise ValueError("stream index must be below 2**64")
    digest = hashlib.blake2b(f"{master_seed}/{name}".encode(), digest_size=8).digest()
    out = np.empty((count, 2), dtype=np.uint64)
    out[:, 0] = int.from_bytes(digest, "little")
    out[:, 1] = np.arange(offset, offset + count, dtype=np.uint64)
    return out


def normals(key_rows: np.ndarray, out: np.ndarray):
    """Row blocks of standard normals, run i of out.shape[1] in row i of key_rows.

    Every run comes from the one stream of key_rows[0] (the keys of later
    rows are ignored), drawn in order through one Generator: a block of len(out) rows at a time, each by one
    ``standard_normal`` call into ``out``.  Yields out[:k] for each block of
    k rows, valid until the next; the runs do not depend on len(out).
    """
    if not len(key_rows):
        return
    gen = np.random.Generator(np.random.Philox(key=key_rows[0]))
    for start in range(0, len(key_rows), len(out)):
        yield gen.standard_normal(out=out[: min(len(out), len(key_rows) - start)])
