import re
import sys
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
from trimcusum._streams import STREAM_STRIDE, stream_generator, stream_uniforms

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
            # a row of a block, written in place
            block = np.full((2, n), np.nan)
            stream_uniforms(seed, stream, n, out=block[1])
            assert_array_equal(block[1], expected)
            assert np.isnan(block[0]).all()
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
