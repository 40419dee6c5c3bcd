"""Bootstrap and permutation resampling of the trimmed, centered observations.

Critical values for small and moderate samples: draw m values from the trimmed
and centered sample (with replacement = bootstrap, without = permutation),
build the CUSUM path of each resample, normalize by sigma_hat * sqrt(m), and
take an empirical quantile over B replicates.  Replicate b draws from
substream b of the plan's seed, so replicates are independent and the whole
procedure is reproducible regardless of evaluation order.

Replicate b's draw is exactly numpy's: ``x[Generator.integers(0, n, size=m)]``
(with replacement) or ``x[Generator.permutation(n)[:m]]`` (without) on stream
b.  The critical value works through the replicates in blocks of about 128 KiB
of drawn values (trimmed_cusum._BLOCK_ELEMS, the size of montecarlo's sample
blocks), and one path step serves every row of a block.  A block holds its
replicates in pairs, replicates 2i and 2i + 1 as the real and imaginary lanes
of one complex128 row, and sums them through the helper that the Monte Carlo
kernel's path step also uses (trimmed_cusum._pair_sums): one complex
cumulative sum runs two independent add chains per pass, and each lane's
sums are the same IEEE adds in the same order as a real row's, so the layout
changes no bit.  A bootstrap block takes the raw Philox words of each
replicate's first m candidates, applies numpy's own bounded-integer rule to
the whole block at once, writing each replicate's indices straight into its
lane, lets numpy itself draw the rare replicate with a rejected candidate
among them, and gathers the values in one call.  A permutation block copies
x into every lane and shuffles each lane in place on its stream:
``permutation(n)`` is the same shuffle applied to ``arange(n)``, so the
shuffled lane is the permuted sample without an index array or a gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._streams import SEED_LIMIT, stream_generator
from .trimmed_cusum import (
    _BLOCK_ELEMS, CusumPath, _Rows, _integer, _pair_sums, _tie_down,
    _trim_one, cusum_path, trim,
)

__all__ = [
    "WITH_REPLACEMENT",
    "WITHOUT_REPLACEMENT",
    "ResamplePlan",
    "CriticalValueEstimate",
    "trimmed_centered",
    "resampled_path",
    "resampled_critical_value",
    "empirical_quantile",
]

WITH_REPLACEMENT = "with_replacement"
WITHOUT_REPLACEMENT = "without_replacement"


@dataclass(frozen=True)
class ResamplePlan:
    """Resample size m, draw mode, replicate count B, level and seed."""

    m: int
    mode: str = WITHOUT_REPLACEMENT
    replications: int = 2000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("m", "replications", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.m < 1:
            raise ValueError("resample size m must be at least 1")
        if self.mode not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
            raise ValueError(f"unknown resampling mode {self.mode!r}")
        if self.replications < 1:
            raise ValueError("replication count B must be at least 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be an integer in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class CriticalValueEstimate:
    """Empirical critical value with a binomial-order-statistic standard error."""

    value: float
    level: float
    replications: int
    standard_error: float


def _sorted_quantile_and_error(v: np.ndarray, level: float) -> tuple[float, float]:
    """The ceil(B * level)-th smallest of the B values v, already sorted in
    ascending order (the 1e-9 guard keeps B * level from crossing an integer
    through float rounding alone), and its distribution-free dispersion: half
    the spread between the order statistics one binomial standard deviation
    to either side of that rank.  A caller owning its array sorts it in place
    instead of copying."""
    if v.size == 0:
        raise ValueError("cannot take a quantile of an empty collection")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    count = v.size
    rank = max(math.ceil(count * level - 1e-9), 1)
    spread = math.sqrt(count * level * (1.0 - level))
    lo = min(max(int(math.floor(rank - spread)), 1), count)
    hi = min(max(int(math.ceil(rank + spread)), 1), count)
    return float(v[rank - 1]), float(v[hi - 1] - v[lo - 1]) / 2.0


def empirical_quantile(values, level: float) -> float:
    """Ceiling order statistic: the ceil(B * level)-th smallest value, the
    conservative convention shared by the resampling and Monte Carlo estimators.
    NaN has no rank, so a NaN among the values is an error."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size and np.isnan(v[-1]):  # np.sort puts NaN last
        raise ValueError("cannot take a quantile of values that include NaN")
    return _sorted_quantile_and_error(v, level)[0]


def trimmed_centered(sample, d: int) -> np.ndarray:
    """x_j = X_j * 1{|X_j| <= threshold} - trimmed_mean; sums to zero."""
    ts = trim(sample, d)
    return ts.trimmed_values - ts.trimmed_mean


def _check_size(plan: ResamplePlan, n: int) -> None:
    """Without replacement, a resample cannot be larger than the sample."""
    if plan.mode == WITHOUT_REPLACEMENT and plan.m > n:
        raise ValueError(f"without-replacement draws need m <= n, got m={plan.m} > n={n}")


def _numpy_draw(plan: ResamplePlan, n: int, replicate_index: int) -> np.ndarray:
    """The replicate's m bootstrap indices into a sample of size n, drawn by
    numpy on the replicate's stream."""
    return stream_generator(plan.seed, replicate_index).integers(0, n, size=plan.m)


class _Workspace(NamedTuple):
    """The buffers of one critical-value run, all views of one allocation
    (_workspace), so that nothing of a block's size is allocated inside the
    block loop.  The last three serve bootstrap blocks only and are empty for
    permutations."""

    lanes: np.ndarray  # (pairs, width, 2) float64: the drawn values, summed in place
    sums: np.ndarray  # (2 pairs, m) float64: the partial sums, tied down in place
    product: np.ndarray  # (2 pairs, m) float64: the tie-down's S_m * k/m
    words: np.ndarray  # (2 pairs, ceil(m/2)) uint64: each row's raw Philox words
    candidates: np.ndarray  # (2 pairs, m) <u8: each row's first m candidates times n
    indices: np.ndarray  # (pairs, m, 2) uint64: the drawn indices, in pairs


def _workspace(plan: ResamplePlan, n: int, pairs: int) -> _Workspace:
    """The buffers of blocks of up to `pairs` pairs of replicates of a
    sample of size n, carved from one float64 allocation."""
    m, width = plan.m, _block_width(plan, n)
    words = raw = 0  # the bootstrap buffers' widths
    if plan.mode == WITH_REPLACEMENT:
        words, raw = (m + 1) // 2, m
    rows = 2 * pairs
    layout = [  # (shape, dtype, float64 slots)
        ((pairs, width, 2), np.float64, rows * width),
        ((rows, m), np.float64, rows * m),
        ((rows, m), np.float64, rows * m),
        ((rows, words), np.uint64, rows * words),
        ((rows, raw), "<u8", rows * raw),  # little-endian: its first half is the low word
        ((pairs, raw, 2), np.uint64, rows * raw),
    ]
    buffer = np.empty(sum(slots for _, _, slots in layout))
    views, offset = [], 0
    for shape, dtype, slots in layout:
        views.append(buffer[offset : offset + slots].view(dtype).reshape(shape))
        offset += slots
    return _Workspace(*views)


def _indices(plan: ResamplePlan, n: int, start: int, stop: int, ws: _Workspace) -> np.ndarray:
    """The bootstrap indices of replicates start..stop-1 in pairs, written
    into ws.indices and returned as an (h, m, 2) intp view with
    h = ceil((stop - start) / 2): lane i % 2 of pair i // 2 is exactly
    _numpy_draw(plan, n, start + i).  When stop - start is odd, the last
    pair's second lane holds indices in [0, n) that belong to no
    replicate.

    numpy's Generator.integers(0, n) for n <= 2**32 is Lemire's method on
    32-bit candidates c, which Philox serves as the low and then the high half
    of each 64-bit word: with prod = c * n, c is accepted iff
    prod mod 2**32 >= (2**32 - n) % n, and the index is prod >> 32.  So a row
    whose first m candidates are all accepted draws exactly their indices,
    and one pass over the whole block takes each row's ceil(m/2) raw words,
    forms each product once in 64 bits, writes its high word straight into
    the row's lane as the index and reads its low word, prod mod 2**32, as a
    uint32 view of the product.  Every other row, one with a rejected
    candidate among its first m (about one in 14 500 at n = m = 1000) and
    every row where n passes 2**32, is drawn by numpy itself.  Every array of
    the block's size is a view of the workspace `ws`.
    """
    m, count = plan.m, stop - start
    pairs = (count + 1) // 2
    idx = ws.indices[:pairs]
    if n > 1 << 32:  # numpy's 64-bit rule
        idx.fill(0)
        redraw = range(count)
    else:
        words = ws.words[: 2 * pairs]
        width, seed = words.shape[1], plan.seed  # locals: the loop runs once a replicate
        for row in range(count):
            words[row] = stream_generator(seed, start + row).bit_generator.random_raw(width)
        words[count:] = 0  # the unused lane of an odd block: index 0
        c = words.astype("<u8", copy=False).view("<u4")[:, :m]  # the 32-bit candidates
        # exact in 64 bits; the loop's dtype is explicit, as numpy 1.24's
        # value-based casting would pick the uint32 loop and wrap the product
        prod = np.multiply(c, np.uint64(n), out=ws.candidates[: 2 * pairs], dtype=np.uint64)
        np.right_shift(prod.reshape(pairs, 2, m), np.uint64(32), out=idx.transpose(0, 2, 1))
        threshold = (2**32 - n) % n
        redraw = ()
        if threshold:  # zero where n divides 2**32: every candidate is accepted
            low = prod[:count].view("<u4")[:, 0::2]  # prod mod 2**32
            if np.minimum.reduce(low, axis=None) < threshold:  # rare unless n is near 2**32
                # Python ints, as start + row can pass the int64 range
                redraw = np.flatnonzero((low < threshold).any(axis=1)).tolist()
    for row in redraw:
        idx[row // 2, :, row % 2] = _numpy_draw(plan, n, start + row)
    return idx.view(np.intp)  # every index is below n


def _block_width(plan: ResamplePlan, n: int) -> int:
    """Values a replicate's row of a draw block holds: a shuffled row is the
    whole sample, of which the first m are the draw; a bootstrap row is the
    draw."""
    return n if plan.mode == WITHOUT_REPLACEMENT else plan.m


def _draw_source(x: np.ndarray, plan: ResamplePlan) -> np.ndarray:
    """What _draw_pairs reads: x for a bootstrap, and x in both lanes of one
    complex row, x + x*1j, for a permutation, so that a block is filled by
    copying whole complex values."""
    if plan.mode == WITH_REPLACEMENT:
        return x
    return np.repeat(x, 2).view(np.complex128)


def _draw_pairs(source: np.ndarray, plan: ResamplePlan, start: int, stop: int,
                ws: _Workspace) -> None:
    """The drawn values of replicates start..stop-1, written in pairs into
    ws.lanes, an (h, _block_width(plan, n), 2) buffer of at least
    ceil((stop - start) / 2) pairs: replicate start + i is lane i % 2 of pair
    i // 2, and its first m values are its draw.  `source` is
    _draw_source(x, plan).

    A permutation lane is x shuffled in place on the replicate's stream; numpy's
    shuffle honours the lane's stride, and its permutation(n) is arange(n) put
    through the same shuffle, which draws one bounded integer per position
    whatever the dtype, so the lane is x[permutation(n)] exactly.  A bootstrap
    lane gathers x at the replicate's indices.  When stop - start is odd the
    last pair's second lane holds values of x that belong to no replicate.
    """
    count = stop - start
    pairs = (count + 1) // 2
    lanes = ws.lanes
    if plan.mode == WITH_REPLACEMENT:
        # every index is in range; the default mode="raise" would gather
        # through a temporary buffer instead of straight into the block
        np.take(source, _indices(plan, source.size, start, stop, ws), out=lanes[:pairs],
                mode="clip")
        return
    lanes[:pairs].view(np.complex128)[..., 0] = source
    seed = plan.seed
    for row in range(count):
        stream_generator(seed, start + row).shuffle(lanes[row // 2, :, row % 2])


def resampled_path(x, plan: ResamplePlan, replicate_index: int) -> CusumPath:
    """CUSUM path of one resample; deterministic in (x, plan, replicate_index)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
        raise ValueError("x must be a nonempty vector of finite values")
    if not 0 <= replicate_index < plan.replications:
        raise ValueError(
            f"replicate_index {replicate_index} outside [0, {plan.replications})"
        )
    _check_size(plan, arr.size)
    ws = _workspace(plan, arr.size, 1)
    _draw_pairs(_draw_source(arr, plan), plan, replicate_index, replicate_index + 1, ws)
    return cusum_path(ws.lanes[0, : plan.m, 0])


def resampled_critical_value(sample, d: int, plan: ResamplePlan) -> CriticalValueEstimate:
    """Empirical level-quantile of sup |T_mn| / (sigma_hat * sqrt(m)) over B resamples."""
    return _critical_value(_trim_one(sample, d)[1], plan)


def _critical_value(trimmed: _Rows, plan: ResamplePlan) -> CriticalValueEstimate:
    """resampled_critical_value of the kernel's one-row output.  Replicate b
    draws from its own stream.

    Each block of replicates is drawn in pairs into the lanes of one
    workspace (_draw_pairs), each pair the real and imaginary lanes of one
    complex128 row.  _pair_sums, the Monte Carlo path step's helper, sums
    both lanes in one complex cumulative sum, bit-identical to one replicate
    at a time, and copies them out lane by lane into the workspace's
    contiguous (rows, m) sums, as _tie_down needs a whole block; they are
    tied down, with the products in the workspace too, and reduced to their
    row sups.  An odd B leaves the last pair's second lane unused: its values
    are finite and never read.

    The workspace is allocated once a call, and every array of a block's
    size is a view of it, filled through out=: allocating them a block at a
    time would free and map the same memory again on every block wherever
    the allocator returns blocks of this size to the system at once.
    """
    trimmed.statistics()  # a sample without a statistic raises the kernel's error
    # At the kernel's scale 2**-e the trimmed values and their mean lie below
    # 1 in modulus, so |x| < 2, the resampled sums stay far inside the float
    # range and the path step's 2**-e fallback is never needed here.
    e = trimmed.exponent[0]
    x = np.ldexp(trimmed.values[0], -e) - np.ldexp(trimmed.mean[0], -e)
    _check_size(plan, x.size)
    m, b_total = plan.m, plan.replications
    width = _block_width(plan, x.size)
    pairs = min(max(1, _BLOCK_ELEMS // (2 * width)), (b_total + 1) // 2)
    ws = _workspace(plan, x.size, pairs)
    source = _draw_source(x, plan)
    stats = np.empty(b_total)
    for start in range(0, b_total, 2 * pairs):
        stop = min(start + 2 * pairs, b_total)
        _draw_pairs(source, plan, start, stop, ws)
        count = stop - start
        path = _tie_down(_pair_sums(ws.lanes[:, :m], count, ws.sums), m, ws.product[:count])
        np.maximum.reduce(np.abs(path, out=path), axis=1, out=stats[start:stop])
    stats /= math.sqrt(trimmed.scaled_sum_sq[0] / x.size) * math.sqrt(m)
    stats.sort()
    value, standard_error = _sorted_quantile_and_error(stats, plan.level)
    return CriticalValueEstimate(value, plan.level, b_total, standard_error)
