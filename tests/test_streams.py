import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from trimcusum import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ResamplePlan,
    SimulationSpec,
    generate_null,
    null_statistics,
    quantile,
    resampled_critical_value,
    resampled_path,
    sample_iid,
    sample_substream,
    two_sided_pareto,
)
from trimcusum import heavy_tail_models, montecarlo, resampling
from trimcusum._streams import STREAM_STRIDE, stream_generator
from trimcusum.heavy_tail_models import _uniform_rows
from trimcusum.trimmed_cusum import _trim_one

# the word boundaries of the two 64-bit words that hold a seed or stream index
EDGES = (0, 1, 2**64 - 1, 2**64, 2**128 - 1)
indices = st.sampled_from(EDGES) | st.integers(0, 2**128 - 1)


def reference(seed: int, stream: int) -> np.random.Generator:
    """A newly built generator at the start of the stream, as the streams are defined."""
    return np.random.Generator(np.random.Philox(key=seed, counter=stream * STREAM_STRIDE))


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(indices, min_size=2, max_size=4, unique=True),
    streams=st.lists(indices, min_size=1, max_size=4),
    n=st.integers(0, 70),
)
def test_streams_match_a_new_generator_bit_for_bit(seeds, streams, n):
    # consecutive calls alternate between seeds, so the shared generator is
    # rekeyed and moved on every call
    for stream in streams:
        for seed in seeds:
            expected = np.maximum(reference(seed, stream).random(n), 2.0 ** -53)
            assert_array_equal(_uniform_rows(seed, stream, np.empty((1, n)))[0], expected)
    for stream in streams:
        for seed in seeds:
            assert_array_equal(
                stream_generator(seed, stream).permutation(n), reference(seed, stream).permutation(n)
            )
            assert_array_equal(
                stream_generator(seed, stream).integers(0, n + 1, size=n),
                reference(seed, stream).integers(0, n + 1, size=n),
            )


def test_a_partly_drawn_stream_is_restarted():
    # the shared generator has drawn an odd number of 32-bit words and part of
    # a four-word block; moving it must drop both buffers
    gen = stream_generator(3, 4)
    gen.integers(0, 2**32, size=3, dtype=np.uint32)
    gen.random(5)
    assert_array_equal(stream_generator(3, 4).random(9), reference(3, 4).random(9))
    assert_array_equal(
        stream_generator(3, 4).integers(0, 2**32, size=5, dtype=np.uint32),
        reference(3, 4).integers(0, 2**32, size=5, dtype=np.uint32),
    )


@pytest.mark.parametrize(
    "seed, stream, message",
    [
        (-1, 0, "seed must be an integer in [0, 2**128), got -1"),
        (2**128, 3, f"seed must be an integer in [0, 2**128), got {2**128}"),
        (0, -1, "stream index must be an integer in [0, 2**128), got -1"),
        (0, 2**128, f"stream index must be an integer in [0, 2**128), got {2**128}"),
        (5, 2**130 + 7, f"stream index must be an integer in [0, 2**128), got {2**130 + 7}"),
    ],
)
def test_indices_outside_128_bits_are_rejected(seed, stream, message):
    # 2**128 would alias 0 in the key or wrap onto another replicate's counter
    with pytest.raises(ValueError, match=re.escape(message)):
        sample_substream(two_sided_pareto(1.5), 5, seed, stream)
    with pytest.raises(ValueError, match=re.escape(message)):
        stream_generator(seed, stream)


@pytest.mark.parametrize(
    "n, message", [(-1, "n must be at least 1"), (0, "n must be at least 1"), (STREAM_STRIDE, None)]
)
def test_draw_counts_outside_a_stream_are_rejected_before_any_draw(n, message):
    # the shared generator is neither moved nor drawn from: it goes on with
    # the stream it was at.  No array holds a stream's 2**128 draws, and
    # numpy refuses to allocate one before any stream is addressed
    gen = stream_generator(3, 4)
    gen.random(5)
    with pytest.raises(ValueError, match=message):
        sample_substream(two_sided_pareto(1.5), n, 1, 2)
    assert_array_equal(gen.random(3), reference(3, 4).random(8)[5:])


def test_seeds_outside_128_bits_are_rejected_by_the_specs():
    model = two_sided_pareto(1.5)
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match="master_seed"):
            SimulationSpec(model, n=20, replications=5, master_seed=bad)
        with pytest.raises(ValueError, match="seed"):
            ResamplePlan(m=5, seed=bad)
    SimulationSpec(model, n=20, replications=5, master_seed=2**128 - 1)
    ResamplePlan(m=5, seed=2**128 - 1)


def _null(seed):
    spec = SimulationSpec(two_sided_pareto(1.2), n=60, replications=300, master_seed=seed)
    return null_statistics(spec)


def _resampled(seed):
    x = sample_iid(two_sided_pareto(1.5), 80, seed=seed)
    mode = WITH_REPLACEMENT if seed % 2 else WITHOUT_REPLACEMENT
    plan = ResamplePlan(m=80, mode=mode, replications=300, seed=seed)
    return resampled_critical_value(x, 3, plan)


def test_threads_draw_the_serial_bits():
    # each thread moves its own generator; a shared one would hand a thread
    # another thread's stream part-way through a draw
    seeds = (0, 1, 2**64, 2**128 - 1)
    serial = {s: (_null(s), _resampled(s)) for s in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                (s, pool.submit(_null, s), pool.submit(_resampled, s)) for s in seeds * 2
            ]
            results = [(s, a.result(timeout=120), b.result(timeout=120)) for s, a, b in futures]
    finally:
        sys.setswitchinterval(interval)
    for s, stats, estimate in results:
        assert_array_equal(stats, serial[s][0])
        assert estimate == serial[s][1]


@pytest.mark.parametrize("kind", [np.uint8, np.int64, np.uint64])
def test_numpy_integer_indices_draw_what_python_ints_draw(kind):
    model = two_sided_pareto(1.5)
    for seed, stream in ((0, 0), (3, 7), (200, 101)):
        expected = reference(seed, stream).random(6)
        assert_array_equal(stream_generator(kind(seed), stream).random(6), expected)
        assert_array_equal(stream_generator(seed, kind(stream)).random(6), expected)
        assert_array_equal(
            sample_substream(model, 6, kind(seed), kind(stream)),
            quantile(model, np.maximum(expected, 2.0**-53)),
        )
    big = np.uint64(2**64 - 1)
    assert_array_equal(stream_generator(big, big).random(3), reference(2**64 - 1, 2**64 - 1).random(3))


def test_bools_floats_and_out_of_range_indices_are_rejected_by_name():
    # a bool is an int to Python and a float is no index; neither names a stream
    for seed, stream, name in (
        (True, 0, "seed"), (np.True_, 0, "seed"), (1.0, 0, "seed"),
        (-1, 0, "seed"), (2**128, 0, "seed"),
        (0, False, "stream index"), (0, np.False_, "stream index"), (0, 2.0, "stream index"),
        (0, -1, "stream index"), (0, 2**128, "stream index"),
    ):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[0, 2\*\*128\)"):
            stream_generator(seed, stream)


def _path_of_replicate(index):
    x = np.linspace(-1.0, 1.0, 9)
    return resampled_path(x, ResamplePlan(m=9, replications=3, seed=2), index).points


SPEC = SimulationSpec(two_sided_pareto(1.5), n=20, replications=3, master_seed=4)

# each public entry that takes a replicate, seed or stream index, and the name
# its error gives that index; the samplers check their size n the same way
INDEXED_ENTRIES = {
    "resampled_path": (_path_of_replicate, "replicate_index"),
    "generate_null": (lambda i: generate_null(SPEC, i), "replicate"),
    "sample_iid": (lambda i: sample_iid(two_sided_pareto(1.5), 5, seed=i), "seed"),
    "sample_substream": (lambda i: sample_substream(two_sided_pareto(1.5), 5, 0, i), "stream"),
    "sample_iid_n": (lambda n: sample_iid(two_sided_pareto(1.5), n, 0), "n must be an integer"),
    "sample_substream_n": (
        lambda n: sample_substream(two_sided_pareto(1.5), n, 0, 3), "n must be an integer"),
}


@pytest.mark.parametrize("bad", [True, np.True_, 1.0], ids=["True", "np.True_", "1.0"])
@pytest.mark.parametrize("entry", INDEXED_ENTRIES.values(), ids=INDEXED_ENTRIES.keys())
def test_a_bool_or_float_index_is_a_named_error(entry, bad):
    # True would otherwise pick replicate, seed or stream 1 silently, and
    # numpy fails on a bool or float n with a TypeError that names no parameter
    call, name = entry
    with pytest.raises(ValueError, match=name):
        call(bad)
    assert_array_equal(call(np.int64(1)), call(1))


def test_threads_moving_in_lockstep_draw_their_own_streams():
    # both threads move their generators between the same two barriers; a
    # state dict shared between threads would hand one the other's stream
    barrier = threading.Barrier(2, timeout=60)
    draws = {}

    def worker(seed):
        rows = []
        for b in range(150):
            barrier.wait()
            gen = stream_generator(seed, b)
            barrier.wait()
            rows.append(gen.random(5))
        draws[seed] = rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (7, 2**100)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for seed in (7, 2**100):
        for b, row in enumerate(draws[seed]):
            assert_array_equal(row, reference(seed, b).random(5))


def _counting(monkeypatch, module, calls):
    original = module.stream_generator

    def spy(seed, stream=0):
        calls.append(stream)
        return original(seed, stream)

    monkeypatch.setattr(module, "stream_generator", spy)


def test_each_replicate_addresses_its_stream_once(monkeypatch):
    # the benchmark counts these calls as streams addressed and replicates
    calls = []
    _counting(monkeypatch, heavy_tail_models, calls)
    montecarlo._sample_block(two_sided_pareto(1.5), 50, 3, 10, 7)
    assert calls == list(range(10, 17))
    _counting(monkeypatch, resampling, calls)
    rows = _trim_one(sample_iid(two_sided_pareto(1.5), 300, seed=1), 3)[1]
    for mode in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        calls.clear()
        # 301 replicates: several blocks, and an odd one at the end
        resampling._critical_value(rows, ResamplePlan(m=300, mode=mode, replications=301, seed=2))
        assert calls == list(range(301))
