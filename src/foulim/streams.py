"""Named, counter-based random streams.

Every random draw in the package comes from a stream addressed by
``(master_seed, name, index)``.  Streams are backed by the Philox
counter-based bit generator, so they are pairwise independent by
construction and reproducible regardless of the order in which they are
created or consumed.  This is what makes replica-parallel runs give
bit-identical results for any worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def _name_tag(name: str) -> int:
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(master_seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Return the generator for stream ``(master_seed, name, index)``.

    The same triple always yields the same generator state; distinct
    triples yield statistically independent streams.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if index < 0:
        raise ValueError("stream index must be non-negative")
    ss = np.random.SeedSequence(entropy=(master_seed, _name_tag(name), index))
    return np.random.Generator(np.random.Philox(ss))
