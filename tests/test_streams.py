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
    null_statistics,
    resampled_critical_value,
    sample_iid,
    two_sided_pareto,
)
from trimcusum import montecarlo, resampling
from trimcusum._streams import STREAM_STRIDE, stream_generator, stream_uniforms
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
            assert_array_equal(stream_uniforms(seed, stream, n), expected)
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
        stream_uniforms(seed, stream, 5)
    with pytest.raises(ValueError, match=re.escape(message)):
        stream_generator(seed, stream)


@pytest.mark.parametrize(
    "n, message", [(-1, "n must be nonnegative"), (STREAM_STRIDE, "exceeds the per-stream reservation")]
)
def test_draw_counts_outside_a_stream_are_rejected_before_any_draw(n, message):
    # the shared generator is neither moved nor drawn from: it goes on with
    # the stream it was at
    gen = stream_generator(3, 4)
    gen.random(5)
    with pytest.raises(ValueError, match=message):
        stream_uniforms(1, 2, n)
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
    for seed, stream in ((0, 0), (3, 7), (200, 101)):
        expected = reference(seed, stream).random(6)
        assert_array_equal(stream_generator(kind(seed), stream).random(6), expected)
        assert_array_equal(stream_generator(seed, kind(stream)).random(6), expected)
        assert_array_equal(stream_uniforms(kind(seed), kind(stream), 6), np.maximum(expected, 2.0**-53))
    big = np.uint64(2**64 - 1)
    assert_array_equal(stream_generator(big, big).random(3), reference(2**64 - 1, 2**64 - 1).random(3))


def test_bools_floats_and_out_of_range_indices_keep_their_results():
    # a bool is an int; a float is not an index at all
    assert_array_equal(stream_generator(True, False).random(4), reference(1, 0).random(4))
    for seed, stream in ((1.0, 0), (0, 2.0)):
        with pytest.raises(TypeError):
            stream_generator(seed, stream)
    for seed, stream in ((-1, 0), (2**128, 0), (0, -1), (0, 2**128)):
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*128\)"):
            stream_generator(seed, stream)


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
    _counting(monkeypatch, montecarlo, calls)
    montecarlo._sample_block(two_sided_pareto(1.5), 50, 3, 10, 7)
    assert calls == list(range(10, 17))
    _counting(monkeypatch, resampling, calls)
    rows = _trim_one(sample_iid(two_sided_pareto(1.5), 300, seed=1), 3)[1]
    for mode in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        calls.clear()
        # 301 replicates: several blocks, and an odd one at the end
        resampling._critical_value(rows, ResamplePlan(m=300, mode=mode, replications=301, seed=2))
        assert calls == list(range(301))
