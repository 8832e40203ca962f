"""Named, counter-based random streams.

Every random draw in the package comes from a stream addressed by
``(master_seed, name, index)``.  Streams are backed by the Philox
counter-based bit generator, so they are pairwise independent by
construction and reproducible regardless of the order in which they are
created or consumed.  This is what makes replica-parallel runs give
bit-identical results for any worker count.

A Philox stream is fully set by its 128-bit key and a zero counter
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
The key of stream i is numpy's ``SeedSequence((master_seed, tag, i))``
hash of the triple, ``generate_state(2, uint64)``, with tag a 64-bit
digest of the name.  ``keys`` computes that hash for a whole range of
indices at once, bit for bit as SeedSequence does it one index at a
time, so an ensemble costs one vectorized pass instead of one
SeedSequence, Philox and Generator per replica.  ``normals`` then fills
a block with one row per key through a single generator whose state is
reset to each key in turn.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["keys", "normals"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool
# of 4 uint32 words, hashmix/mix multipliers, and the output hash
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _name_tag(name: str) -> int:
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _words(n: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, low first."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _shift_xor(x: np.ndarray) -> np.ndarray:
    x ^= x >> _XSHIFT
    return x


class _HashMix:
    """SeedSequence's hashmix on uint32 arrays, its multiplier carried along."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * _MULT_A) & _MASK32
        value *= np.uint32(self.const)
        return _shift_xor(value)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _shift_xor(np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y)


def _seed_sequence_keys(prefix: list[int], idx: np.ndarray) -> np.ndarray:
    """generate_state(2, uint64) of SeedSequence(prefix + [i]) for each i in idx.

    prefix lists the leading uint32 words in order; idx holds the last
    word, one per key.
    """
    count = len(idx)
    words = [np.full(count, w, dtype=np.uint32) for w in prefix] + [idx]
    hashmix = _HashMix()
    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = np.empty((count, _POOL_SIZE), dtype="<u4")
    const = _INIT_B
    for i in range(_POOL_SIZE):
        value = pool[i] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value *= np.uint32(const)
        state[:, i] = _shift_xor(value)
    return state.view("<u8").astype(np.uint64)


def keys(master_seed: int, name: str, offset: int = 0, count: int = 1) -> np.ndarray:
    """Philox keys of streams (master_seed, name, offset .. offset + count - 1).

    Returns a (count, 2) uint64 array whose row i equals
    ``SeedSequence((master_seed, tag, offset + i)).generate_state(2, np.uint64)``
    bit for bit, computed for all indices in one pass.  Indices must
    lie below 2**32, where SeedSequence reads each as a single word;
    2**32 keys alone would take 64 GiB.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if offset < 0:
        raise ValueError("stream index must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    if offset + count > 2**32:
        raise ValueError("stream index must be below 2**32")
    prefix = _words(int(master_seed)) + _words(_name_tag(name))
    return _seed_sequence_keys(prefix, np.arange(offset, offset + count, dtype=np.uint32))


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
    state = bitgen.state  # counter 0, empty buffer
    for key, row in zip(key_rows, out):
        state["state"]["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)
    return out
