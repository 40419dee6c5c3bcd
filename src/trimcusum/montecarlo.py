"""Seeded Monte Carlo harness: critical-value tables, power curves, diagnostics.

Replicate r of a run always draws from substream r of the master seed, so every
aggregate is a pure function of its spec and is bit-identical however the
replicates are scheduled.  Replicates are split into blocks whose row count
depends on n alone, never on the worker count; each block is one job, sampled
once and evaluated as a whole, and jobs may run in parallel processes.  A
critical-value table's blocks depend on its largest n: replicate r at size n
is the first n values of stream r, so a table draws each replicate once, at
that n, and every smaller n reads its prefix.  Per-replicate results land in
replicate order and are reduced once at the end.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from .heavy_tail_models import (
    TailModel,
    _quantile_unchecked,
    centering_scale,
    gaussian,
    mean_shift,
    sample_substream,
    tail_survival_inv,
    truncated_sum_scale,
)
from ._streams import SEED_LIMIT, stream_uniforms
from .limit_dist import sup_bridge_quantile
from .resampling import _sorted_quantile_and_error
from .trimmed_cusum import (
    DegenerateSampleError, _check_depth, _gap_sup, _gap_terms, _trim_rows, _trim_rule,
    default_trim_depth,
)

__all__ = [
    "SimulationSpec",
    "ChangeSpec",
    "PowerSpec",
    "DiagnosticSummary",
    "GapSummary",
    "DEFAULT_SHIFT_GRID",
    "generate_null",
    "null_statistics",
    "rejection_rate",
    "critical_value_table",
    "power_curve",
    "size_under_finite_variance",
    "centering_normality_diagnostic",
    "trim_truncation_divergence",
]

# Shift levels used for power curves: -3.0, -2.9, ..., 2.9, 3.0.
DEFAULT_SHIFT_GRID: tuple[float, ...] = tuple(i / 10 for i in range(-30, 31))

# Elements per sample block: 2**13 doubles are 64 KiB, so the block and each of
# the kernel's temporaries fit in L2 cache and stay under glibc's 128 KiB mmap
# threshold (see _block_rows).
_BATCH_ELEMS = 1 << 13
# Elements per block for rows longer than _BATCH_ELEMS (see _block_rows).
_LONG_ROW_ELEMS = 1 << 22


@dataclass(frozen=True)
class SimulationSpec:
    """One Monte Carlo experiment: model, sample size, trim rule, N, level, seed.

    d = None applies the default depth floor(n**0.3) (clamped to >= 2); an
    explicit d is used as given.
    """

    model: TailModel
    n: int
    replications: int
    level: float = 0.95
    master_seed: int = 0
    d: int | None = None

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.replications < 1:
            raise ValueError("replication count must be at least 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ValueError(
                f"master_seed must be an integer in [0, 2**128), got {self.master_seed}"
            )
        _check_depth(self.trim_depth, self.n)

    @property
    def trim_depth(self) -> int:
        return default_trim_depth(self.n) if self.d is None else self.d


@dataclass(frozen=True)
class ChangeSpec:
    """Mean-shift alternative: after index n_i (1-based) the level becomes c_i."""

    breaks: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.breaks:
            raise ValueError("at least one change is required")
        prev_idx = 0
        prev_level = 0.0  # the pre-change level is zero
        for idx, level in self.breaks:
            if idx <= prev_idx:
                raise ValueError("change indices must be strictly increasing and >= 1")
            if level == prev_level:
                raise ValueError("consecutive shift levels must differ")
            prev_idx, prev_level = idx, level

    def shift_vector(self, n: int) -> np.ndarray:
        """Additive shifts for a sample of size n; change indices must be interior."""
        if self.breaks[-1][0] >= n:
            raise ValueError("change indices must be interior (last break < n)")
        shifts = np.zeros(n)
        for idx, level in self.breaks:
            shifts[idx:] = level
        return shifts


@dataclass(frozen=True)
class PowerSpec:
    """Power experiment: one change at `change_at`, scanned over `shift_grid`."""

    base: SimulationSpec
    change_at: int
    critical_value: float
    shift_grid: tuple[float, ...] = DEFAULT_SHIFT_GRID

    def __post_init__(self) -> None:
        if not 1 <= self.change_at < self.base.n:
            raise ValueError("change_at must satisfy 1 <= k < n")
        if not self.critical_value > 0.0:
            raise ValueError("critical_value must be positive")
        if not self.shift_grid:
            raise ValueError("shift_grid must be nonempty")


@dataclass(frozen=True)
class DiagnosticSummary:
    """Moments and KS-to-normal distance of the standardized centering term."""

    mean: float
    variance: float | None
    ks_to_normal: float


@dataclass(frozen=True)
class GapSummary:
    """Medians of the centered / uncentered trimmed-minus-truncated sup gaps,
    both normalized by the truncated partial-sum scale."""

    centered_median: float
    uncentered_median: float


def generate_null(spec: SimulationSpec, replicate: int) -> np.ndarray:
    """i.i.d. draw of length n from substream `replicate` of the master seed."""
    if not 0 <= replicate < spec.replications:
        raise ValueError(f"replicate {replicate} outside [0, {spec.replications})")
    return sample_substream(spec.model, spec.n, spec.master_seed, replicate)


def _sample_block(model: TailModel, n: int, seed: int, start: int, count: int) -> np.ndarray:
    """One job's sample block: row i holds the uniforms of substream start + i,
    exactly as sample_substream draws them, drawn straight into the block, and
    the whole block goes through the inverse CDF in one call."""
    u = np.empty((count, n))
    for i in range(count):
        stream_uniforms(seed, start + i, n, out=u[i])
    return _quantile_unchecked(model, u)


def _statistics(x: np.ndarray, d: int, seed: int, start: int) -> np.ndarray:
    """Test statistic of each row of a block whose row i is replicate start + i.

    The first replicate without a statistic (identical retained values, or
    draws that overflowed) is reported instead of letting a NaN reach the
    aggregates.
    """
    rows = _trim_rows(x, d)
    try:
        return rows.statistics()
    except DegenerateSampleError:
        i = int(rows.undefined()[0])
        raise DegenerateSampleError(
            f"replicate {start + i} (master seed {seed}, n={x.shape[1]}, d={d}) has "
            f"trimmed sum of squares {float(rows.centered_sum_sq[i])}, so its statistic is "
            "undefined"
        ) from None


def _block_rows(n: int) -> int:
    """Rows of a sample block of length-n rows.

    A block holds _BATCH_ELEMS values, 64 KiB of doubles.  It and every
    temporary the kernel makes from it then stay in L2 cache, and each is
    below glibc's 128 KiB mmap threshold, so a freed temporary is reused from
    the heap by the next block instead of being mapped and faulted in again.
    A row longer than that cannot stay in cache, and a block of one such row
    would fault in every temporary once per replicate, so long rows keep
    blocks of _LONG_ROW_ELEMS values (32 MB).
    """
    return _BATCH_ELEMS // n if n <= _BATCH_ELEMS else max(1, _LONG_ROW_ELEMS // n)


def _call(payload):
    job, *args = payload
    return job(*args)


def _run_jobs(job, workers: int, total: int, rows: int, *args) -> list:
    """job(start, count, *args) of each run of `rows` replicates, in replicate
    order.

    Replicates 0..total-1 are split into runs of a row count the caller fixes
    from the sample sizes, never from the worker count, so results never
    depend on it: a single n's job is one sample block of _block_rows(n) rows
    (_run_blocks), and a table's jobs are sized from its largest n
    (critical_value_table).  The pool takes the jobs in chunks, about four
    per worker, so that small jobs do not each pay an inter-process round
    trip.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if total < 1:
        raise ValueError("reps must be at least 1")
    payloads = [
        (job, start, min(rows, total - start), *args) for start in range(0, total, rows)
    ]
    if workers == 1 or len(payloads) <= 1:
        return [_call(p) for p in payloads]
    chunksize = -(-len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_call, payloads, chunksize=chunksize))


def _block_job(start, count, fn, model, n, d, seed, *extra):
    return fn(_sample_block(model, n, seed, start, count), d, seed, start, *extra)


def _run_blocks(
    fn, workers: int, model: TailModel, n: int, d: int, seed: int, total: int, *extra
) -> list:
    """fn(block, d, seed, start, *extra) of each sample block of length-n rows,
    in replicate order."""
    _check_depth(d, n)
    return _run_jobs(_block_job, workers, total, _block_rows(n), fn, model, n, d, seed, *extra)


def null_statistics(spec: SimulationSpec, workers: int = 1) -> np.ndarray:
    """The N replicated test statistics under the no-change hypothesis."""
    jobs = _run_blocks(
        _statistics, workers, spec.model, spec.n, spec.trim_depth, spec.master_seed,
        spec.replications,
    )
    return np.concatenate(jobs)


def rejection_rate(spec: SimulationSpec, critical_value: float, workers: int = 1) -> float:
    """Fraction of null replicates whose statistic exceeds the critical value."""
    stats = null_statistics(spec, workers)
    return int(np.count_nonzero(stats > critical_value)) / spec.replications


def _table_job(start, count, model, sizes, depths, seed):
    """Statistics of replicates start..start+count-1 at each of `sizes`
    (distinct, ascending) as a (len(sizes), count) array, and for each size
    the DegenerateSampleError of its lowest replicate without a statistic,
    or None.

    Replicate r at size n is the first n values of stream r, so each replicate
    is drawn once, at the largest size, one sample block at a time, and each
    size reads its sample blocks as slices of that one draw.
    """
    top = sizes[-1]
    x = np.empty((count, top))
    rows = _block_rows(top)
    for lo in range(0, count, rows):
        x[lo : lo + rows] = _sample_block(model, top, seed, start + lo, min(rows, count - lo))
    stats = np.empty((len(sizes), count))
    errors = [None] * len(sizes)
    for k, (n, d) in enumerate(zip(sizes, depths)):
        rows = _block_rows(n)
        for lo in range(0, count, rows):
            try:
                stats[k, lo : lo + rows] = _statistics(x[lo : lo + rows, :n], d, seed, start + lo)
            except DegenerateSampleError as err:
                errors[k] = err
                break
    return stats, errors


def critical_value_table(
    spec: SimulationSpec, n_list: Sequence[int], workers: int = 1
) -> list[tuple[float, float]]:
    """Empirical level-quantiles of the null statistic for each n, plus the
    asymptotic value as a final row labeled n = inf.

    Each row equals empirical_quantile(null_statistics(replace(spec, n=n))),
    but the whole list is one pass: a replicate is drawn once, at the largest
    n, and every smaller n reads its prefix (_table_job).
    """
    depths = {int(n): replace(spec, n=int(n)).trim_depth for n in n_list}
    quantiles = {}
    if depths:
        sizes = sorted(depths)
        # as many whole sample blocks of the largest n as fit in one block of
        # the smallest, so that every n's slices are about whole blocks; at
        # n = 100, 200, 400, 800 (blocks of 81, 40, 20 and 10 rows) a job is
        # 80 rows, drawn as one 500 KB array
        job_rows = _block_rows(sizes[-1])
        job_rows *= max(1, max(map(_block_rows, sizes)) // job_rows)
        jobs = _run_jobs(
            _table_job, workers, spec.replications, job_rows, spec.model, sizes,
            [depths[n] for n in sizes], spec.master_seed,
        )
        # the error the per-n loop would meet first: the first n in list
        # order that has one, at its lowest replicate
        for n in n_list:
            k = sizes.index(int(n))
            for _, errors in jobs:
                if errors[k] is not None:
                    raise errors[k]
        stats = np.concatenate([s for s, _ in jobs], axis=1)
        for k, n in enumerate(sizes):
            stats[k].sort()
            quantiles[n] = _sorted_quantile_and_error(stats[k], spec.level)[0]
    rows = [(float(n), quantiles[int(n)]) for n in n_list]
    rows.append((math.inf, sup_bridge_quantile(spec.level)))
    return rows


def _power_job(errors: np.ndarray, d: int, seed: int, start: int, change_at, grid, crit):
    counts = np.zeros(len(grid), dtype=np.int64)
    x = errors.copy()
    for gi, shift in enumerate(grid):
        np.add(errors[:, change_at:], shift, out=x[:, change_at:])
        try:
            counts[gi] = np.count_nonzero(_statistics(x, d, seed, start) > crit)
        except DegenerateSampleError as err:
            raise DegenerateSampleError(f"{err} at shift {shift}") from None
    return counts


def power_curve(spec: PowerSpec, workers: int = 1) -> list[tuple[float, float]]:
    """Empirical rejection rate at each shift level of the grid.

    Every shift level reuses the same error streams (one per replicate), so
    curves for different change locations or levels are directly comparable.
    """
    base = spec.base
    jobs = _run_blocks(
        _power_job, workers, base.model, base.n, base.trim_depth, base.master_seed,
        base.replications, spec.change_at, spec.shift_grid, spec.critical_value,
    )
    counts = sum(jobs)
    return [
        (shift, int(c) / base.replications) for shift, c in zip(spec.shift_grid, counts)
    ]


def size_under_finite_variance(
    n: int, replications: int, level: float = 0.95, seed: int = 0, workers: int = 1
) -> float:
    """Null rejection rate of the Gaussian model at the asymptotic critical value."""
    spec = SimulationSpec(gaussian(), n=n, replications=replications, level=level, master_seed=seed)
    return rejection_rate(spec, sup_bridge_quantile(level), workers)


def _ks_to_standard_normal(values: np.ndarray) -> float:
    v = np.sort(values)
    count = v.size
    f = ndtr(v)
    grid = np.arange(1, count + 1) / count
    return float(max((grid - f).max(), (f - (grid - 1.0 / count)).max()))


def _centering_job(x: np.ndarray, d: int, seed: int, start: int, model: TailModel):
    n = x.shape[1]
    eta = _trim_rule(x, d)[0]
    return n * mean_shift(model, eta, d, n) / centering_scale(model, d, n)


def centering_normality_diagnostic(
    model: TailModel, n: int, d: int, reps: int, seed: int = 0, workers: int = 1
) -> DiagnosticSummary:
    """Distribution of the standardized mean shift at the realized trim threshold.

    Each replicate draws a sample, takes its trim threshold, and evaluates
    n * mean_shift(threshold) / centering_scale.  For one-sided regularly
    varying densities this is asymptotically standard normal; the summary
    reports the sample mean, sample variance (absent when reps = 1) and the
    KS distance to N(0, 1).
    """
    vals = np.concatenate(_run_blocks(_centering_job, workers, model, n, d, seed, reps, model))
    variance = float(np.var(vals, ddof=1)) if reps > 1 else None
    return DiagnosticSummary(float(np.mean(vals)), variance, _ks_to_standard_normal(vals))


def _gap_job(x: np.ndarray, d: int, seed: int, start: int, model: TailModel):
    n = x.shape[1]
    eta, terms = _gap_terms(x, d, tail_survival_inv(model, d / n))
    scale = truncated_sum_scale(model, d, n)
    centered = _gap_sup(terms, mean_shift(model, eta, d, n)) / scale
    return centered, _gap_sup(terms, 0.0) / scale


def trim_truncation_divergence(
    model: TailModel, n: int, d: int, reps: int, seed: int = 0, workers: int = 1
) -> GapSummary:
    """Medians of the centered and uncentered sup gaps between trimmed and
    truncated partial sums, normalized by the truncated partial-sum scale.

    The centered gap shrinks with n for any Pareto-type model; the uncentered
    one stays bounded away from zero for asymmetric laws, which is exactly the
    effect of the random centering term.
    """
    results = _run_blocks(_gap_job, workers, model, n, d, seed, reps, model)
    centered = np.concatenate([r[0] for r in results])
    uncentered = np.concatenate([r[1] for r in results])
    return GapSummary(float(np.median(centered)), float(np.median(uncentered)))
