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
``keys`` builds a range of them at once; ``normals`` fills a block with
one row per key through one generator re-keyed for each row.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["keys", "normals"]


def keys(master_seed: int, name: str, offset: int = 0, count: int = 1) -> np.ndarray:
    """Philox keys of streams (master_seed, name, offset .. offset + count - 1).

    Returns a (count, 2) uint64 array whose row i is ``(tag, offset + i)``,
    tag the little-endian 64-bit blake2b digest of ``f"{master_seed}/{name}"``.
    Indices must lie below 2**64, the range of the second word.
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


def normals(key_rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill row i of ``out`` with the first standard normals of key_rows[i]'s stream.

    One Philox and one Generator serve every row: the bit generator's
    state is reset to the row's key and a zero counter before the row is
    drawn, so row i equals
    ``Generator(Philox(key=key_rows[i])).standard_normal(out.shape[1])``.
    """
    if len(key_rows) != len(out):
        raise ValueError(f"{len(key_rows)} keys for {len(out)} rows")
    if not len(out):
        return out
    bitgen = np.random.Philox(key=key_rows[0])
    gen = np.random.Generator(bitgen)
    # counter 0 and an empty buffer, as Python ints: setting the state
    # converts them faster than uint64 arrays
    inner = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key, row in zip(key_rows.tolist(), out):
        inner["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)
    return out
