"""Counter-based Philox streams for reproducible, order-independent draws.

Every consumer of randomness in this package addresses a (seed, stream) pair,
both integers in [0, 2**128).  The seed is the Philox key and stream r starts
at counter r * STREAM_STRIDE of that key, so replicate streams never overlap
and results do not depend on the order or degree of parallelism with which
replicates are evaluated.  This module only addresses streams: the samplers
draw their uniforms in heavy_tail_models._uniform_rows, and the resampler its
indices and shuffles in resampling.

Each thread keeps one Philox bit generator and one state dict for it, and
moves the generator to the addressed stream by rewriting the dict's key and
counter and setting it as the generator's state, which gives the same bits
as a newly built ``Philox(key=seed, counter=stream * STREAM_STRIDE)`` at a
fraction of the cost.  The dict's buffers stay empty, so the next draw starts
at the counter.  The shared generator is only valid until the next call of
this module on the same thread.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

__all__ = ["SEED_LIMIT", "STREAM_STRIDE", "stream_generator"]

_WORD = (1 << 64) - 1

# Seeds and stream indices lie in [0, SEED_LIMIT): the Philox key is two
# 64-bit words, and a stream's counter offset fills the upper two of the four
# counter words, so a larger value would alias a smaller one.
SEED_LIMIT = 1 << 128

# Philox counter units reserved per stream index.  One counter unit yields four
# 64-bit words, so a single stream can serve ~2**130 draws before touching its
# neighbor; actual per-replicate consumption is bounded by the sample size.
STREAM_STRIDE = 1 << 128

_local = threading.local()


def _check_index(value: int, name: str) -> int:
    """value as an int, or a ValueError naming it if it lies outside [0, 2**128)
    or is no integer.  A bool is not an index, though Python's is an int:
    stream=True would draw stream 1."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if 0 <= value < SEED_LIMIT:
                return value
    raise ValueError(f"{name} must be an integer in [0, 2**128), got {value!r}")


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """This thread's generator, moved to the start of substream `stream` of
    family `seed`.

    The generator is shared: the next call on the same thread moves it to
    another stream, so draw from it before then.
    """
    # a Python int in range passes at once; anything else goes through
    # _check_index, which converts it or raises
    if type(seed) is not int or not 0 <= seed < SEED_LIMIT:
        seed = _check_index(seed, "seed")
    if type(stream) is not int or not 0 <= stream < SEED_LIMIT:
        stream = _check_index(stream, "stream index")
    try:
        gen, state = _local.generator, _local.state
    except AttributeError:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
        state = _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # empty buffer: the next draw starts at the counter
            "has_uint32": 0,
            "uinteger": 0,
        }
    words = state["state"]
    words["counter"] = (0, 0, stream & _WORD, stream >> 64)
    words["key"] = (seed & _WORD, seed >> 64)
    gen.bit_generator.state = state
    return gen

