"""Bootstrap and permutation resampling of the trimmed, centered observations.

Critical values for small and moderate samples: draw m values from the trimmed
and centered sample (with replacement = bootstrap, without = permutation),
build the CUSUM path of each resample, normalize by sigma_hat * sqrt(m), and
take an empirical quantile over B replicates.  Replicate b draws from
substream b of the plan's seed, so replicates are independent and the whole
procedure is reproducible regardless of evaluation order.

Replicate b's draw is exactly numpy's: ``x[Generator.integers(0, n, size=m)]``
(with replacement) or ``x[Generator.permutation(n)[:m]]`` (without) on stream
b.  The critical value works through the replicates in blocks of about 64 KiB
of drawn values, and one path step serves every row of a block.  A bootstrap
block takes each replicate's raw Philox words, applies numpy's own
bounded-integer rule to the whole block at once and gathers the values in one
call.  A permutation block copies x into every row and shuffles each row in
place on its stream: ``permutation(n)`` is the same shuffle applied to
``arange(n)``, so the shuffled row is the permuted sample without an index
array or a gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import SEED_LIMIT, stream_generator
from .trimmed_cusum import (
    CusumPath, DegenerateSampleError, _Rows, _tie_down, _trim_one, cusum_path, trim
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

# Drawn values per block pushed through the path step in one call: enough rows
# to amortize numpy's per-call overhead, and 64 KiB of doubles, so that the
# block's buffers and temporaries (raw words, indices, draws, path) stay in L2
# cache and under glibc's 128 KiB mmap threshold: freed blocks come back from
# the heap instead of costing fresh page faults.  montecarlo's blocks are the
# same size.
_BLOCK_ELEMS = 1 << 13


@dataclass(frozen=True)
class ResamplePlan:
    """Resample size m, draw mode, replicate count B, level and seed."""

    m: int
    mode: str = WITHOUT_REPLACEMENT
    replications: int = 2000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
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


def _quantile_and_error(values, level: float) -> tuple[float, float]:
    """The ceil(B * level)-th smallest value (the 1e-9 guard keeps B * level
    from crossing an integer through float rounding alone) and its
    distribution-free dispersion: half the spread between the order
    statistics one binomial standard deviation to either side of that rank."""
    return _sorted_quantile_and_error(np.sort(np.asarray(values, dtype=float)), level)


def _sorted_quantile_and_error(v: np.ndarray, level: float) -> tuple[float, float]:
    """_quantile_and_error of values v already sorted in ascending order, so
    that a caller owning its array can sort it in place instead of copying."""
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
    conservative convention shared by the resampling and Monte Carlo estimators."""
    return _quantile_and_error(values, level)[0]


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


def _indices(plan: ResamplePlan, n: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, m) bootstrap indices of replicates start..stop-1:
    row b - start is exactly _numpy_draw(plan, n, b)."""
    if n <= 1 << 32:
        return _bootstrap_indices(plan, n, start, stop)
    out = np.empty((stop - start, plan.m), dtype=np.intp)
    for row in range(stop - start):
        out[row] = _numpy_draw(plan, n, start + row)
    return out


def _bootstrap_indices(plan: ResamplePlan, n: int, start: int, stop: int) -> np.ndarray:
    """_indices with replacement, for n <= 2**32, from raw Philox words.

    numpy's Generator.integers(0, n) for n <= 2**32 is Lemire's method on
    32-bit candidates c, which Philox serves as the low and then the high half
    of each 64-bit word: with prod = c * n, c is accepted iff
    prod mod 2**32 >= (2**32 - n) % n, and the index is prod >> 32.  Acceptance
    depends on c alone, so a replicate's draws are the first m accepted
    candidates of its stream, and one pass over the whole block applies the
    rule.  A row gets m candidates and, as spares, twice the rejections
    expected among them (fewer than m * n / 2**32) plus 16; a row that still
    comes up short is drawn by numpy itself.
    """
    m = plan.m
    width = (m + 16 + 2 * (m * n >> 32) + 1) // 2  # two candidates per word
    words = np.empty((stop - start, width), dtype=np.uint64)
    for row in range(stop - start):
        words[row] = stream_generator(plan.seed, start + row).bit_generator.random_raw(width)
    prod = words.astype("<u8", copy=False).view("<u4").astype(np.uint64)
    prod *= np.uint64(n)
    idx = prod[:, :m] >> np.uint64(32)
    threshold = (2**32 - n) % n
    low = prod.astype(np.uint32)  # prod mod 2**32
    if low[:, :m].min() < threshold:  # a rejection, rare unless n is near 2**32
        for row in np.flatnonzero((low[:, :m] < threshold).any(axis=1)):
            accepted = prod[row, low[row] >= threshold][:m] >> np.uint64(32)
            if accepted.size < m:
                accepted = _numpy_draw(plan, n, start + row)
            idx[row] = accepted
    return idx.view(np.int64)  # every index is below 2**32


def _block_width(plan: ResamplePlan, n: int) -> int:
    """Values a replicate's row of a draw block holds: a shuffled row is the
    whole sample, of which the first m are the draw; a bootstrap row is the
    draw."""
    return n if plan.mode == WITHOUT_REPLACEMENT else plan.m


def _draw_block(x: np.ndarray, plan: ResamplePlan, start: int, stop: int,
                out: np.ndarray) -> np.ndarray:
    """The drawn values of replicates start..stop-1, written into the first
    stop - start rows of `out` (_block_width(plan, x.size) columns) and
    returned as a (stop - start, m) view.

    A permutation row is x shuffled in place on the replicate's stream, of
    which the view keeps the first m columns: numpy's permutation(n) is
    arange(n) put through the same shuffle, which draws one bounded integer
    per position whatever the dtype, so the row is x[permutation(n)] exactly.
    A bootstrap row gathers x at the replicate's indices.
    """
    block = out[: stop - start]
    if plan.mode == WITH_REPLACEMENT:
        # every index is in range; the default mode="raise" would gather
        # through a temporary buffer instead of straight into the block
        return np.take(x, _indices(plan, x.size, start, stop), out=block, mode="clip")
    block[:] = x
    for row in range(stop - start):
        stream_generator(plan.seed, start + row).shuffle(block[row])
    return block[:, : plan.m]


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
    out = np.empty((1, _block_width(plan, arr.size)))
    return cusum_path(_draw_block(arr, plan, replicate_index, replicate_index + 1, out)[0])


def resampled_critical_value(sample, d: int, plan: ResamplePlan) -> CriticalValueEstimate:
    """Empirical level-quantile of sup |T_mn| / (sigma_hat * sqrt(m)) over B resamples."""
    return _critical_value(_trim_one(sample, d)[1], plan)


def _critical_value(trimmed: _Rows, plan: ResamplePlan) -> CriticalValueEstimate:
    """resampled_critical_value of the kernel's one-row output.  Replicate b
    draws from its own stream.  Each block of replicates is drawn into one
    reused buffer (_draw_block) and reduced to its row sups in a few numpy
    calls; a permutation block with m < n is summed from its first m columns
    into a second, contiguous buffer, as _tie_down needs a whole block."""
    if trimmed.undefined().size:
        raise DegenerateSampleError("all retained observations are identical")
    # At the kernel's scale 2**-e the trimmed values and their mean lie below
    # 1 in modulus, so |x| < 2, the resampled sums stay far inside the float
    # range and the path step's 2**-e fallback is never needed here.
    e = trimmed.exponent[0]
    x = np.ldexp(trimmed.values[0], -e) - np.ldexp(trimmed.mean[0], -e)
    _check_size(plan, x.size)
    scale = math.sqrt(trimmed.scaled_sum_sq[0] / x.size) * math.sqrt(plan.m)
    b_total = plan.replications
    width = _block_width(plan, x.size)
    rows = max(1, _BLOCK_ELEMS // width)
    drawn = np.empty((min(rows, b_total), width))
    sums = drawn if width == plan.m else np.empty((drawn.shape[0], plan.m))
    stats = np.empty(b_total)
    for start in range(0, b_total, rows):
        stop = min(start + rows, b_total)
        y = np.cumsum(_draw_block(x, plan, start, stop, drawn), axis=1, out=sums[: stop - start])
        path = np.abs(_tie_down(y, plan.m), out=y)
        stats[start:stop] = path.max(axis=1) / scale
    value, standard_error = _quantile_and_error(stats, plan.level)
    return CriticalValueEstimate(value, plan.level, b_total, standard_error)
