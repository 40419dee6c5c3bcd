"""Counter-based uniform streams (Philox) for reproducible, order-independent draws.

Every consumer of randomness in this package addresses a (seed, stream) pair,
both integers in [0, 2**128).  The seed is the Philox key and stream r starts
at counter r * STREAM_STRIDE of that key, so replicate streams never overlap
and results do not depend on the order or degree of parallelism with which
replicates are evaluated.

Each thread keeps one Philox bit generator and moves it to the addressed
stream by setting its key and counter, which gives the same bits as a newly
built ``Philox(key=seed, counter=stream * STREAM_STRIDE)`` at a fraction of
the cost.  The shared generator is only valid until the next call of this
module on the same thread.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

__all__ = ["SEED_LIMIT", "STREAM_STRIDE", "stream_generator", "stream_uniforms"]

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
    """value as an int, or a ValueError naming it if it lies outside [0, 2**128)."""
    value = operator.index(value)
    if not 0 <= value < SEED_LIMIT:
        raise ValueError(f"{name} must be an integer in [0, 2**128), got {value}")
    return value


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """This thread's generator, moved to the start of substream `stream` of
    family `seed`.

    The generator is shared: the next call of `stream_generator` or
    `stream_uniforms` on the same thread moves it to another stream, so draw
    from it before then.
    """
    seed = _check_index(seed, "seed")
    stream = _check_index(stream, "stream index")
    try:
        gen = _local.generator
    except AttributeError:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (0, 0, stream & _WORD, stream >> 64),
            "key": (seed & _WORD, seed >> 64),
        },
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty buffer: the next draw starts at the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def stream_uniforms(seed: int, stream: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """n uniforms from the given substream, nudged off 0 so (0,1) maps are safe.

    With `out`, a float64 array of shape (n,), the uniforms are written into
    it and it is returned.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= STREAM_STRIDE:
        raise ValueError("draw count exceeds the per-stream reservation")
    u = stream_generator(seed, stream).random(n, out=out)
    return np.maximum(u, 2.0 ** -53, out=u)
