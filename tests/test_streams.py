"""Keyed streams: the (tag, index) key layout, rows drawn from keys, and
chunk, offset and thread invariance of the ensemble APIs built on them."""

import hashlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stream
from foulim import cli, fou, harness, hermite, solvers, streams
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
    k = streams.keys(2**40 + 3, "rows", 10, 6)
    out = streams.normals(k, np.empty((6, 333)))
    for i, row in enumerate(out):
        np.testing.assert_array_equal(row, stream(2**40 + 3, "rows", 10 + i).standard_normal(333))


def test_rows_of_keys_beyond_two_to_the_63_equal_their_streams():
    # tags at and above 2**63 and indices above 2**32 re-key the generator
    # through Python ints exactly as a fresh Philox takes them
    k = np.array([[2**63, 2**32], [2**64 - 1, 2**32 + 5], [2**63 + 12345, 2**64 - 1]],
                 dtype=np.uint64)
    out = streams.normals(k, np.empty((3, 257)))
    for key, row in zip(k, out):
        expect = np.random.Generator(np.random.Philox(key=key)).standard_normal(257)
        np.testing.assert_array_equal(row, expect)


def test_normals_needs_one_key_per_row():
    with pytest.raises(ValueError, match="3 keys for 2 rows"):
        streams.normals(streams.keys(0, "x", 0, 3), np.empty((2, 4)))


def test_cli_maps_a_stream_domain_error_to_exit_2(tmp_path, capsys):
    rc = cli.main(["sample-fbm", "--H", "0.3", "--n-steps", "4", "--replicas", "2",
                   "--seed", "-1", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err.lower()


# ------------------------------------------------------ ensemble invariance


def _chunked(monkeypatch, module, chunk_size):
    """Make ``module.run_replicated`` chunk by chunk_size."""
    run = harness.run_replicated
    monkeypatch.setattr(
        module, "run_replicated",
        lambda n, seed, name, make, threads=1: run(n, seed, name, make, threads, chunk_size))


@PROPERTY
@given(n=st.integers(3, 40), chunk=st.integers(1, 40), threads=st.sampled_from([1, 2]))
def test_variance_scan_chunk_and_thread_invariance(n, chunk, threads):
    G = ChaosFunction([0, 0, 1])
    args = (G, 0.6, 0.5, [0.2, 0.1, 0.05], n, 17)
    ref = harness.variance_scan(*args)
    with pytest.MonkeyPatch.context() as mp:
        _chunked(mp, harness, chunk)
        got = harness.variance_scan(*args, threads=threads)
    # every column reads the shared path of its group, so the values,
    # their SEs and the covariance-aware CI are all bit-identical
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(got.stderrs, ref.stderrs)
    np.testing.assert_array_equal(got.meta["finest_samples"], ref.meta["finest_samples"])
    assert got.slope == ref.slope and got.slope_ci == ref.slope_ci


@PROPERTY
@given(n=st.integers(1, 30), offset=st.integers(0, 2**64 - 30), cut=st.integers(0, 30))
def test_path_sampler_batch_offset_chunk_and_thread_invariance(n, offset, cut):
    sampler = fou.path_sampler(TimeGrid(0.02, 100), 0.85, 0.01)  # a doubled embedding
    whole = sampler.batch(streams.keys(3, "inv", offset, n))
    cut = min(cut, n)
    parts = [sampler.batch(streams.keys(3, "inv", offset, cut)),
             sampler.batch(streams.keys(3, "inv", offset + cut, n - cut))]
    np.testing.assert_array_equal(np.concatenate(parts), whole)
    with ThreadPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(lambda i: sampler.batch(streams.keys(3, "inv", offset + i)),
                             range(n)))
    np.testing.assert_array_equal(np.concatenate(rows), whole)


@PROPERTY
@given(n=st.integers(1, 12), offset=st.integers(0, 1000), cut=st.integers(0, 12),
       threads=st.sampled_from([1, 2]))
def test_hermite_ensemble_offset_chunk_and_thread_invariance(n, offset, cut, threads):
    engine = hermite.HermiteEngine(TimeGrid(1.0, 40), 0.7, 2)
    idx = np.arange(0, 41, 10)
    whole = hermite.hermite_ensemble(engine, streams.keys(9, "inv", offset, n), idx)
    cut = min(cut, n)
    parts = np.concatenate([
        hermite.hermite_ensemble(engine, streams.keys(9, "inv", offset, cut), idx),
        hermite.hermite_ensemble(engine, streams.keys(9, "inv", offset + cut, n - cut), idx)])
    # the projections are one matrix product per call, whose rounding
    # depends on its row count
    np.testing.assert_allclose(parts, whole, rtol=1e-13, atol=1e-13)

    def make_chunk(chunk_keys):
        return hermite.hermite_ensemble(engine, chunk_keys, idx)

    runs = [harness.run_replicated(n, 9, "inv", make_chunk, t, 5) for t in (threads, 1)]
    np.testing.assert_array_equal(runs[0], runs[1])
    # run_replicated's chunks read replicas 0..n-1 of the stream family
    np.testing.assert_allclose(runs[0], hermite.hermite_ensemble(
        engine, streams.keys(9, "inv", 0, n), idx), rtol=1e-13, atol=1e-13)


@PROPERTY
@given(n=st.integers(2, 30), chunk=st.integers(1, 30), threads=st.sampled_from([1, 2]))
def test_kinetic_error_scan_chunk_and_thread_invariance(n, chunk, threads):
    args = (0.7, [0.1, 0.05, 0.02], TimeGrid(0.5, 10), n, 23)
    ref = solvers.kinetic_error_scan(*args)
    with pytest.MonkeyPatch.context() as mp:
        _chunked(mp, solvers, chunk)
        got = solvers.kinetic_error_scan(*args, threads=threads)
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(got.meta["holder_seminorm"], ref.meta["holder_seminorm"])
