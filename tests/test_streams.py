"""Keyed streams: keys bit-exact against SeedSequence, rows drawn from keys,
and chunk, offset and thread invariance of the ensemble APIs built on them."""

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


def _reference_keys(seed, name, offset, count):
    tag = streams._name_tag(name)
    return np.array([np.random.SeedSequence((seed, tag, offset + i)).generate_state(2, np.uint64)
                     for i in range(count)], dtype=np.uint64).reshape(count, 2)


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 2**40 + 3])
@pytest.mark.parametrize("name", ["", "vscan-eps0", "kinetic", "acc1-H0.3"])
@pytest.mark.parametrize("offset", [0, 1, 249, 123_457])
def test_keys_are_bit_exact_seed_sequence_states(seed, name, offset):
    np.testing.assert_array_equal(streams.keys(seed, name, offset, 7),
                                  _reference_keys(seed, name, offset, 7))


@pytest.mark.parametrize("offset", [2**32 - 7, 2**32 - 1, 2**32])
def test_keys_up_to_the_one_word_bound_match_seed_sequence(offset):
    count = 2**32 - offset
    np.testing.assert_array_equal(streams.keys(5, "big", offset, count),
                                  _reference_keys(5, "big", offset, count))
    assert streams.keys(5, "big", offset, 0).shape == (0, 2)


def test_keys_reject_what_seed_sequence_cannot_take():
    # keys takes one-word indices only, and checks the range before it allocates
    tracemalloc.start()
    try:
        for offset, count in ((2**32 - 1, 2), (2**32, 1), (0, 2**32 + 1), (2**64, 1)):
            with pytest.raises(ValueError, match="below 2\\*\\*32"):
                streams.keys(0, "x", offset, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError, match="non-negative"):
        streams.keys(-1, "x")
    with pytest.raises(ValueError, match="non-negative"):
        streams.keys(0, "x", -1)


def test_rows_drawn_from_keys_equal_their_streams():
    k = streams.keys(2**40 + 3, "rows", 10, 6)
    out = streams.normals(k, np.empty((6, 333)))
    for i, row in enumerate(out):
        np.testing.assert_array_equal(row, stream(2**40 + 3, "rows", 10 + i).standard_normal(333))
        # the stream before keyed streams: a Generator per SeedSequence
        ss = np.random.SeedSequence((2**40 + 3, streams._name_tag("rows"), 10 + i))
        np.testing.assert_array_equal(
            row, np.random.Generator(np.random.Philox(ss)).standard_normal(333))


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
@given(n=st.integers(2, 40), chunk=st.integers(1, 40), threads=st.sampled_from([1, 2]))
def test_variance_scan_chunk_and_thread_invariance(n, chunk, threads):
    G = ChaosFunction([0, 0, 1])
    args = (G, 0.6, 0.5, [0.2, 0.1, 0.05], n, 17)
    ref = harness.variance_scan(*args, dt_ratio=20.0)
    with pytest.MonkeyPatch.context() as mp:
        _chunked(mp, harness, chunk)
        got = harness.variance_scan(*args, dt_ratio=20.0, threads=threads)
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(got.meta["finest_samples"], ref.meta["finest_samples"])


@PROPERTY
@given(n=st.integers(1, 30), offset=st.integers(0, 2**32 - 30), cut=st.integers(0, 30))
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
