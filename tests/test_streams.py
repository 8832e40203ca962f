"""Keyed streams: the (tag, index) key layout, one stream per key array
read a run per row, and the block, prefix and thread invariance of the
ensemble APIs built on them."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stream
from foulim import cli, fgn, fou, harness, hermite, solvers, streams
from foulim.chaos import ChaosFunction
from foulim.paths import TimeGrid

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _tag(seed, name):
    digest = hashlib.blake2b(f"{seed}/{name}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 2**40 + 3])
@pytest.mark.parametrize("name", ["", "vscan-eps0", "kinetic", "acc1-H0.3"])
@pytest.mark.parametrize("offset", [0, 1, 249, 123_457, 2**64 - 7])
def test_keys_are_bit_exact_seed_sequence_states(seed, name, offset):
    # one (seed, name) keys a sequence of Philox states indexed by offset;
    # row i is bit-exactly the digest of seed and name, then offset + i
    k = streams.keys(seed, name, offset, 7)
    assert k.dtype == np.uint64 and k.shape == (7, 2)
    assert [int(w) for w in k[:, 0]] == [_tag(seed, name)] * 7
    assert [int(w) for w in k[:, 1]] == list(range(offset, offset + 7))


def test_offset_slices_of_keys_equal_the_whole_range():
    for offset in (0, 1000, 2**64 - 40):
        whole = streams.keys(7, "slices", offset, 40)
        for cut in (0, 1, 17, 40):
            np.testing.assert_array_equal(
                np.concatenate([streams.keys(7, "slices", offset, cut),
                                streams.keys(7, "slices", offset + cut, 40 - cut)]), whole)
            if cut < 40:
                np.testing.assert_array_equal(streams.keys(7, "slices", offset + cut)[0],
                                              whole[cut])


def test_tags_differ_across_seed_and_name():
    # the "/" keeps a seed's digits apart from a name's: (1, "2") and (12, "")
    # are among the pairs, and hash different strings
    pairs = [(seed, name) for seed in (*range(50), 2**40 + 3)
             for name in ("", "2", "acc1-H0.3", "acc1-H0.5", "acc7-m1", "acc7-m2")]
    tags = {int(streams.keys(seed, name)[0, 0]) for seed, name in pairs}
    assert len(tags) == len(pairs)


def test_keys_reject_an_index_range_beyond_two_to_the_64():
    # the index is the key's second uint64 word; the range is checked
    # before anything is allocated
    tracemalloc.start()
    try:
        for offset, count in ((2**64 - 1, 2), (2**64, 1), (0, 2**64 + 1), (2**65, 0)):
            with pytest.raises(ValueError, match="below 2\\*\\*64"):
                streams.keys(0, "x", offset, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert streams.keys(0, "x", 2**64 - 1, 1)[0, 1] == 2**64 - 1
    assert streams.keys(0, "x", 2**64, 0).shape == (0, 2)
    with pytest.raises(ValueError, match="non-negative"):
        streams.keys(-1, "x")
    with pytest.raises(ValueError, match="non-negative"):
        streams.keys(0, "x", -1)
    with pytest.raises(ValueError, match="non-negative"):
        streams.keys(0, "x", 0, -1)


def test_rows_drawn_from_keys_equal_their_streams():
    # a key array is the stream of its first row, read in order: row i is
    # run i of it, however many rows a block holds
    k = streams.keys(2**40 + 3, "rows", 10, 6)
    expect = stream(2**40 + 3, "rows", 10).standard_normal((6, 333))
    for rows in (1, 4, 6, 9):
        out = np.concatenate([b.copy() for b in streams.normals(k, np.empty((rows, 333)))])
        np.testing.assert_array_equal(out, expect)


def test_rows_of_keys_beyond_two_to_the_63_equal_their_streams():
    # tags at and above 2**63 and indices above 2**32 key the generator
    # exactly as a fresh Philox takes them
    k = np.array([[2**63, 2**32], [2**64 - 1, 2**32 + 5], [2**63 + 12345, 2**64 - 1]],
                 dtype=np.uint64)
    for i, key in enumerate(k):
        (row,) = next(streams.normals(k[i:], np.empty((1, 257))))
        expect = np.random.Generator(np.random.Philox(key=key)).standard_normal(257)
        np.testing.assert_array_equal(row, expect)


def test_normals_needs_one_key_per_row():
    # one row per key, a block of the buffer's rows at a time, and none for no keys
    blocks = streams.normals(streams.keys(0, "x", 0, 3), np.empty((2, 4)))
    assert [len(b) for b in blocks] == [2, 1]
    assert list(streams.normals(streams.keys(0, "x", 0, 0), np.empty((2, 4)))) == []


def test_cli_maps_a_stream_domain_error_to_exit_2(tmp_path, capsys):
    rc = cli.main(["sample-fbm", "--H", "0.3", "--n-steps", "4", "--replicas", "2",
                   "--seed", "-1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err.lower()


# ------------------------------------------------------ ensemble invariance


@PROPERTY
@given(n=st.integers(3, 40), chunk=st.integers(1, 40), budget=st.sampled_from([1, 2**12, 2**30]),
       threads=st.sampled_from([1, 2]))
def test_variance_scan_block_and_thread_invariance(n, chunk, budget, threads):
    # at any chunk size, the engine's block budget and the worker count leave
    # every column bit-identical: each reads the shared path of its group, so
    # the values, their SEs and the covariance-aware CI are too
    G = ChaosFunction([0, 0, 1])
    args = (G, 0.6, 0.5, [0.2, 0.1, 0.05], n, 17)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "CHUNK_SIZE", chunk)
        ref = harness.variance_scan(*args)
        mp.setattr(fgn, "BLOCK_BYTES", budget)
        got = harness.variance_scan(*args, threads=threads)
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(got.stderrs, ref.stderrs)
    np.testing.assert_array_equal(got.meta["finest_samples"], ref.meta["finest_samples"])
    assert got.slope == ref.slope and got.slope_ci == ref.slope_ci


@PROPERTY
@given(n=st.integers(1, 30), chunk=st.integers(1, 30), cut=st.integers(1, 30),
       budget=st.sampled_from([1, 2**12, 2**30]))
def test_path_sampler_batch_block_prefix_and_thread_invariance(n, chunk, cut, budget):
    # a batch is its first key's stream read in order: its first cut rows are
    # the cut-key batch, and any block budget gives the same rows; ensembles
    # in chunks of any size give the same rows on 1 and 2 workers, and the
    # first cut replicas of n are the cut-replica ensemble
    sampler = fou.path_sampler(TimeGrid(0.02, 100), 0.85, 0.01)  # a doubled embedding
    whole = sampler.batch(streams.keys(3, "inv", 0, n))
    cut = min(cut, n)
    np.testing.assert_array_equal(sampler.batch(streams.keys(3, "inv", 0, cut)), whole[:cut])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fgn, "BLOCK_BYTES", budget)
        np.testing.assert_array_equal(sampler.batch(streams.keys(3, "inv", 0, n)), whole)
        mp.setattr(harness, "CHUNK_SIZE", chunk)
        runs = [harness.run_replicated(k, 3, "inv", sampler.batch, t)
                for k, t in ((n, 1), (n, 2), (cut, 2))]
    np.testing.assert_array_equal(runs[0], runs[1])
    np.testing.assert_array_equal(runs[2], runs[0][:cut])
    if n <= chunk:  # one chunk: the batch itself
        np.testing.assert_array_equal(runs[0], whole)


@PROPERTY
@given(n=st.integers(1, 12), chunk=st.integers(1, 12), cut=st.integers(1, 12),
       budget=st.sampled_from([1, 2**12, 2**30]), threads=st.sampled_from([1, 2]))
def test_hermite_ensemble_block_prefix_and_thread_invariance(n, chunk, cut, budget, threads):
    engine = hermite.HermiteEngine(TimeGrid(1.0, 40), 0.7, 2)
    idx = np.arange(0, 41, 10)
    whole = hermite.hermite_ensemble(engine, streams.keys(9, "inv", 0, n), idx)
    cut = min(cut, n)
    np.testing.assert_array_equal(
        hermite.hermite_ensemble(engine, streams.keys(9, "inv", 0, cut), idx), whole[:cut])

    def make_chunk(chunk_keys):
        return hermite.hermite_ensemble(engine, chunk_keys, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermite, "BLOCK_BYTES", budget)
        np.testing.assert_array_equal(
            hermite.hermite_ensemble(engine, streams.keys(9, "inv", 0, n), idx), whole)
        mp.setattr(harness, "CHUNK_SIZE", chunk)
        runs = [harness.run_replicated(k, 9, "inv", make_chunk, t)
                for k, t in ((n, threads), (n, 1), (cut, threads))]
    np.testing.assert_array_equal(runs[0], runs[1])
    np.testing.assert_array_equal(runs[2], runs[0][:cut])


@PROPERTY
@given(n=st.integers(2, 30), chunk=st.integers(1, 30), budget=st.sampled_from([1, 2**12, 2**30]),
       threads=st.sampled_from([1, 2]))
def test_kinetic_error_scan_block_and_thread_invariance(n, chunk, budget, threads):
    args = (0.7, [0.1, 0.05, 0.02], TimeGrid(0.5, 10), n, 23)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "CHUNK_SIZE", chunk)
        ref = solvers.kinetic_error_scan(*args)
        mp.setattr(fgn, "BLOCK_BYTES", budget)
        got = solvers.kinetic_error_scan(*args, threads=threads)
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(got.meta["holder_seminorm"], ref.meta["holder_seminorm"])
