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
of one complex128 row, and goes through the path step that the Monte Carlo
kernel also uses (trimmed_cusum._pair_sups), which sums, ties down and takes
each row's sup: one complex cumulative sum runs two independent add chains
per pass, and each lane's sums are the same IEEE adds in the same order as a
real row's, so the layout changes no bit.

One function, _drawer, reads the plan's mode: it checks the size, sizes the
block, carves every buffer of the call from one allocation and returns the
block's writer.  A bootstrap block takes the raw Philox words of each
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

import numpy as np

from ._streams import SEED_LIMIT, stream_generator
from .trimmed_cusum import (
    _BLOCK_ELEMS, CusumPath, _Rows, _integer, _pair_sups, _trim_one, cusum_path, trim,
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


def _numpy_draw(plan: ResamplePlan, n: int, replicate_index: int) -> np.ndarray:
    """The replicate's m bootstrap indices into a sample of size n, drawn by
    numpy on the replicate's stream."""
    return stream_generator(plan.seed, replicate_index).integers(0, n, size=plan.m)


def _drawer(x: np.ndarray, plan: ResamplePlan, replicates: int):
    """The one place that reads the plan's mode: the buffers of blocks of up
    to `replicates` replicates of the sample x, and the block's writer.

    Returns (lanes, sums, draw).  `lanes` is an (h, width, 2) float64
    buffer of h pairs, as many as a block of about _BLOCK_ELEMS drawn values
    holds and no more than the replicates need; a row is the whole shuffled
    sample (width n) for a permutation, of which the first m are the draw,
    and the draw itself (width m) for a bootstrap.  `sums` is the (2h, m)
    float64 block the path step writes its paths into; the step's products
    and moduli reuse the lanes' memory (_pair_sups).  draw(start,
    stop), for stop - start <= 2h, writes the drawn values of replicates
    start..stop-1 into the lanes: replicate start + i is lane i % 2 of pair
    i // 2.  When stop - start is odd, the last pair's second lane holds
    values of x that belong to no replicate.

    A permutation lane is x shuffled in place on the replicate's stream
    (numpy's shuffle honours the lane's stride), after x + x*1j is copied
    into the lanes' complex view; a bootstrap lane gathers x at the
    replicate's indices (_indices), whose words, products and indices are
    the drawer's bootstrap-only buffers.

    Every buffer is a view of one np.empty, and the caller keeps them for
    all its blocks, so that nothing of a block's size is allocated inside the
    block loop.  The one allocation matters beyond that: a buffer over
    glibc's 128 KiB mmap threshold raises the allocator's thresholds once it
    is freed, and later calls then reuse a heap that is never trimmed.  With
    separate buffers under that threshold the heap is trimmed and grown back
    call after call.  On a 2-vCPU Linux host with glibc, a traced perfbench
    `observed` pass took 5 835 to 7 719 minor faults with separate buffers
    against 133 to 280 with one allocation, and 20 resampled_critical_value
    calls in a fresh interpreter (n = m = B = 1000, both modes, after one
    warm-up each) 770 against 78.
    """
    n, m = x.size, plan.m
    bootstrap = plan.mode == WITH_REPLACEMENT
    if not bootstrap and m > n:
        raise ValueError(f"without-replacement draws need m <= n, got m={m} > n={n}")
    width = m if bootstrap else n
    pairs = min(max(1, _BLOCK_ELEMS // (2 * width)), (replicates + 1) // 2)
    rows = 2 * pairs
    layout = [((pairs, width, 2), np.float64), ((rows, m), np.float64)]
    if bootstrap:
        layout += [
            ((rows, (m + 1) // 2), np.uint64),  # each row's raw Philox words
            ((rows, m), "<u8"),  # the candidates times n; little-endian: low word first
            ((pairs, m, 2), np.uint64),  # the drawn indices, in pairs
        ]
    # every dtype is 8 bytes wide, so a shape's size counts float64 slots
    buffer = np.empty(sum(math.prod(shape) for shape, _ in layout))
    views, offset = [], 0
    for shape, dtype in layout:
        size = math.prod(shape)
        views.append(buffer[offset : offset + size].view(dtype).reshape(shape))
        offset += size
    lanes, sums = views[:2]
    if bootstrap:
        def draw(start: int, stop: int) -> None:
            idx = _indices(plan, n, start, stop, *views[2:])
            # every index is in range; the default mode="raise" would gather
            # through a temporary buffer instead of straight into the block
            np.take(x, idx, out=lanes[: idx.shape[0]], mode="clip")
    else:
        source = np.repeat(x, 2).view(np.complex128)
        seed = plan.seed  # a local: the loop runs once a replicate

        def draw(start: int, stop: int) -> None:
            lanes[: (stop - start + 1) // 2].view(np.complex128)[..., 0] = source
            for row in range(stop - start):
                stream_generator(seed, start + row).shuffle(lanes[row // 2, :, row % 2])

    return lanes, sums, draw


def _indices(plan: ResamplePlan, n: int, start: int, stop: int, words: np.ndarray,
             products: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The bootstrap indices of replicates start..stop-1 in pairs, written
    into `indices` and returned as an (h, m, 2) intp view with
    h = ceil((stop - start) / 2): lane i % 2 of pair i // 2 is exactly
    _numpy_draw(plan, n, start + i).  When stop - start is odd, the last
    pair's second lane holds indices in [0, n) that belong to no
    replicate.  `words` is a (2h', ceil(m/2)) uint64 buffer, `products` a
    (2h', m) <u8 buffer and `indices` an (h', m, 2) uint64 buffer, h' >= h.

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
    every row where n passes 2**32, is drawn by numpy itself.
    """
    m, count = plan.m, stop - start
    pairs = (count + 1) // 2
    idx = indices[:pairs]
    if n > 1 << 32:  # numpy's 64-bit rule
        idx.fill(0)
        redraw = range(count)
    else:
        words = words[: 2 * pairs]
        width, seed = words.shape[1], plan.seed  # locals: the loop runs once a replicate
        for row in range(count):
            words[row] = stream_generator(seed, start + row).bit_generator.random_raw(width)
        words[count:] = 0  # the unused lane of an odd block: index 0
        c = words.astype("<u8", copy=False).view("<u4")[:, :m]  # the 32-bit candidates
        prod = products[: 2 * pairs]
        prod[...] = c  # widened in place, so the product is exact in 64 bits
        np.multiply(prod, np.uint64(n), out=prod)
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


def resampled_path(x, plan: ResamplePlan, replicate_index: int) -> CusumPath:
    """CUSUM path of one resample; deterministic in (x, plan, replicate_index)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
        raise ValueError("x must be a nonempty vector of finite values")
    replicate_index = _integer(replicate_index, "replicate_index")
    if not 0 <= replicate_index < plan.replications:
        raise ValueError(
            f"replicate_index {replicate_index} outside [0, {plan.replications})"
        )
    lanes, _, draw = _drawer(arr, plan, 1)
    draw(replicate_index, replicate_index + 1)
    return cusum_path(lanes[0, : plan.m, 0])


def resampled_critical_value(sample, d: int, plan: ResamplePlan) -> CriticalValueEstimate:
    """Empirical level-quantile of sup |T_mn| / (sigma_hat * sqrt(m)) over B resamples."""
    return _critical_value(_trim_one(sample, d)[1], plan)


def _critical_value(trimmed: _Rows, plan: ResamplePlan) -> CriticalValueEstimate:
    """resampled_critical_value of the kernel's one-row output.  Replicate b
    draws from its own stream.

    Each block of replicates is drawn in pairs into the drawer's lanes
    (_drawer), each pair the real and imaginary lanes of one complex128 row.
    _pair_sups, the Monte Carlo kernel's path step too, sums both lanes in
    one complex cumulative sum, bit-identical to one replicate at a time,
    copies them out lane by lane into the drawer's contiguous (rows, m) sums,
    ties them down and writes their row sups straight into the replicates'
    statistics; its products and moduli reuse the lanes, which the next
    block's draw overwrites.  An odd B leaves the last pair's second lane
    unused: its values are finite and never read.  The drawer's buffers are
    allocated once a call and serve every block.
    """
    trimmed.statistics()  # a sample without a statistic raises the kernel's error
    # At the kernel's scale 2**-e the trimmed values and their mean lie below
    # 1 in modulus, so |x| < 2, the resampled sums stay far inside the float
    # range and the path step's 2**-e fallback is never needed here.
    e = trimmed.exponent[0]
    x = np.ldexp(trimmed.values[0], -e) - np.ldexp(trimmed.mean[0], -e)
    m, b_total = plan.m, plan.replications
    lanes, sums, draw = _drawer(x, plan, b_total)
    block = 2 * lanes.shape[0]
    stats = np.empty(b_total)
    for start in range(0, b_total, block):
        stop = min(start + block, b_total)
        draw(start, stop)
        _pair_sups(lanes, stop - start, m, sums, stats[start:stop])
    stats /= math.sqrt(trimmed.scaled_sum_sq[0] / x.size) * math.sqrt(m)
    stats.sort()
    value, standard_error = _sorted_quantile_and_error(stats, plan.level)
    return CriticalValueEstimate(value, plan.level, b_total, standard_error)
