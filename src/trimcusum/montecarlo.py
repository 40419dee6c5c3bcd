"""Seeded Monte Carlo harness: critical-value tables, power curves, diagnostics.

Replicate r of a run always draws from substream r of the master seed, so every
aggregate is a pure function of its spec and is bit-identical however the
replicates are scheduled.  Every run, one n or a table of several, is one pass
of one job shape (_job, through _run_jobs): replicate r at size n is the first
n values of stream r, so a job draws its replicates once, at the run's largest
n, into one staging array of _JOB_BLOCKS sample blocks, and every n measures
slices of at most one sample block of that n read from it.  Row counts depend
on the sizes alone, never on the worker count, and jobs may run in parallel
processes.  The measures (the statistic, power counts, both diagnostics from
one trim) return per-replicate results in replicate order, reduced once at the
end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .heavy_tail_models import (
    TailModel,
    _depth_threshold,
    _normal,
    _quantile_unchecked,
    _uniform_rows,
    centering_scale,
    gaussian,
    mean_shift,
    sample_substream,
    truncated_sum_scale,
)
from ._streams import SEED_LIMIT
from .limit_dist import sup_bridge_quantile
from .resampling import _sorted_quantile_and_error
from .trimmed_cusum import (
    _BLOCK_ELEMS, DegenerateSampleError, _check_depth, _gap_sup, _gap_terms, _integer,
    _trim_rows, _trim_rule, default_trim_depth,
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

# Sample blocks of the largest n per job.  At n = 100, 200, 400, 800 a job is
# 80 rows, drawn in place as one 500 KB staging array in four blocks of 20
# rows, and its kernel slices are 80, 80, 40 and 20 rows; at n = 1e5 it is 4
# rows, 3.2 MB.  glibc trims the top of its heap once the free space there
# reaches twice the largest mapped chunk it has freed, which is the staging
# array; a job's other temporaries, at most about three blocks (the
# kernel's), stay smaller than the array, so the heap is not trimmed and
# grown back page by page between jobs.
_JOB_BLOCKS = 4


def _check_critical_value(critical_value: float) -> None:
    """The critical-value contract: positive, so not NaN."""
    if not critical_value > 0.0:
        raise ValueError("critical_value must be positive")


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
        for name in ("n", "replications", "master_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.d is not None:
            object.__setattr__(self, "d", _integer(self.d, "d"))
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
        object.__setattr__(self, "change_at", _integer(self.change_at, "change_at"))
        if not 1 <= self.change_at < self.base.n:
            raise ValueError("change_at must satisfy 1 <= k < n")
        _check_critical_value(self.critical_value)
        if not self.shift_grid:
            raise ValueError("shift_grid must be nonempty")
        for shift in self.shift_grid:
            if not math.isfinite(shift):
                raise ValueError(f"shift_grid entries must be finite, got {shift}")


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
    replicate = _integer(replicate, "replicate")
    if not 0 <= replicate < spec.replications:
        raise ValueError(f"replicate {replicate} outside [0, {spec.replications})")
    return sample_substream(spec.model, spec.n, spec.master_seed, replicate)


def _sample_block(
    model: TailModel, n: int, seed: int, start: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """One job's sample block: row i is sample_substream(model, n, seed,
    start + i), bit for bit, as both draw their uniforms through _uniform_rows;
    the whole block goes through the inverse CDF in one call, in place.  With
    `out`, a C-contiguous (count, n) array, the block is drawn into it."""
    u = np.empty((count, n)) if out is None else out
    return _quantile_unchecked(model, _uniform_rows(seed, start, u), overwrite=True)


def _overflow_error(replicate: int, seed: int, n: int, d: int, result: str):
    """The error of a replicate with d or more draws past the float range:
    its trim threshold is inf, so it has no `result`."""
    return DegenerateSampleError(
        f"replicate {replicate} (master seed {seed}, n={n}, d={d}) has {d} or more draws "
        f"past the float range, so its trim threshold is inf and it has no {result}"
    )


def _statistics(x: np.ndarray, d: int, seed: int, start: int) -> np.ndarray:
    """Test statistic of each row of a block whose row i is replicate start + i.

    The first replicate without a statistic is reported instead of letting a
    NaN reach the aggregates, with its cause: draws past the float range, as
    _diagnostic_job names them, or a trimmed sum of squares that is zero
    (identical retained values) or not finite.
    """
    rows = _trim_rows(x, d)
    try:
        return rows.statistics()
    except DegenerateSampleError:
        i = int(rows.undefined()[0])
        n = x.shape[1]
        if math.isinf(rows.threshold[i]):
            raise _overflow_error(start + i, seed, n, d, "statistic") from None
        raise DegenerateSampleError(
            f"replicate {start + i} (master seed {seed}, n={n}, d={d}) has trimmed sum of "
            f"squares {float(rows.centered_sum_sq[i])}, so its statistic is undefined"
        ) from None


def _block_rows(n: int) -> int:
    """Rows of a sample block of length-n rows: _BLOCK_ELEMS values (see
    there), or one row if a row is longer."""
    return max(1, _BLOCK_ELEMS // n)


def _job(start, count, model, depths, seed, measure, *extra):
    """measure(slice, d, seed, first replicate, *extra) of replicates
    start..start+count-1 at each size n of `depths` ({n: d}), in the caller's
    order: (one list of slice results per size, None), or (None, (k, error))
    at the first size k with a replicate without a result, `error` being the
    DegenerateSampleError of its lowest such replicate; later sizes are not
    measured.

    Replicate r at size n is the first n values of stream r, so each replicate
    is drawn once, at the largest size, one sample block at a time, and each
    size reads its sample blocks as slices of that one draw.
    """
    top = max(depths)
    x = np.empty((count, top))
    rows = _block_rows(top)
    for lo in range(0, count, rows):
        _sample_block(model, top, seed, start + lo, min(rows, count - lo), out=x[lo : lo + rows])
    results = []
    for k, (n, d) in enumerate(depths.items()):
        rows = _block_rows(n)
        try:
            results.append([measure(x[lo : lo + rows, :n], d, seed, start + lo, *extra)
                            for lo in range(0, count, rows)])
        except DegenerateSampleError as err:
            return None, (k, err)
    return results, None


def _call(payload):
    return _job(*payload)


def _run_jobs(
    measure, workers: int, model: TailModel, depths: dict, seed: int, total: int, *extra
) -> dict:
    """measure's results for replicates 0..total-1 at each size n of `depths`
    ({n: d}, in the caller's order), as {n: slice results in replicate order}.

    Every run is one pass of _job: a job draws _JOB_BLOCKS sample blocks of
    the largest n, so its row count depends on the sizes alone, never on the
    worker count, and results never depend on it.  The error raised is the
    one a loop over the sizes in the caller's order would meet first: that of
    the least size index k a job failed at, from the first job failing there,
    which holds the lowest replicate.  So a serial run stops at a job failing
    at k = 0.  The pool holds at most one process a job, as a forked pool
    starts all of its workers at the first submit, and takes the jobs in
    chunks, about four per worker, so that small jobs do not each pay an
    inter-process round trip.  concurrent.futures, and the multiprocessing
    modules under it, are imported by the first run that starts a pool, so a
    serial run, and the command line's start, load none of them.
    """
    for n, d in depths.items():
        _check_depth(d, n)
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if total < 1:
        raise ValueError("reps must be at least 1")
    rows = _block_rows(max(depths)) * _JOB_BLOCKS
    args = (model, depths, seed, measure, *extra)
    payloads = [(start, min(rows, total - start), *args) for start in range(0, total, rows)]
    if workers == 1 or len(payloads) <= 1:
        jobs = []
        for payload in payloads:
            jobs.append(_call(payload))
            if jobs[-1][1] is not None and jobs[-1][1][0] == 0:
                break
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(payloads))
        chunksize = -(-len(payloads) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = list(pool.map(_call, payloads, chunksize=chunksize))
    errors = [error for _, error in jobs if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return {n: [r for results, _ in jobs for r in results[k]] for k, n in enumerate(depths)}


def null_statistics(spec: SimulationSpec, workers: int = 1) -> np.ndarray:
    """The N replicated test statistics under the no-change hypothesis."""
    jobs = _run_jobs(
        _statistics, workers, spec.model, {spec.n: spec.trim_depth}, spec.master_seed,
        spec.replications,
    )
    return np.concatenate(jobs[spec.n])


def rejection_rate(spec: SimulationSpec, critical_value: float, workers: int = 1) -> float:
    """Fraction of null replicates whose statistic exceeds the critical value."""
    _check_critical_value(critical_value)
    stats = null_statistics(spec, workers)
    return int(np.count_nonzero(stats > critical_value)) / spec.replications


def critical_value_table(
    spec: SimulationSpec, n_list: Sequence[int], workers: int = 1
) -> list[tuple[float, float]]:
    """Empirical level-quantiles of the null statistic for each n, plus the
    asymptotic value as a final row labeled n = inf.

    Each row equals empirical_quantile(null_statistics(replace(spec, n=n))),
    but the whole list is one pass: a replicate is drawn once, at the largest
    n, and every smaller n reads its prefix (_job).
    """
    n_list = [_integer(n, "n_list entry") for n in n_list]
    depths = {n: replace(spec, n=n).trim_depth for n in n_list}
    quantiles = {}
    if depths:
        jobs = _run_jobs(
            _statistics, workers, spec.model, depths, spec.master_seed, spec.replications
        )
        for n, slices in jobs.items():
            stats = np.concatenate(slices)
            stats.sort()
            quantiles[n] = _sorted_quantile_and_error(stats, spec.level)[0]
    rows = [(float(n), quantiles[n]) for n in n_list]
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
    jobs = _run_jobs(
        _power_job, workers, base.model, {base.n: base.trim_depth}, base.master_seed,
        base.replications, spec.change_at, spec.shift_grid, spec.critical_value,
    )
    counts = sum(jobs[base.n])
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
    f = _normal().ndtr(v)
    grid = np.arange(1, count + 1) / count
    return float(max((grid - f).max(), (f - (grid - 1.0 / count)).max()))


def _diagnostic_job(
    x: np.ndarray, d: int, seed: int, start: int, model: TailModel, threshold: float | None
):
    """The diagnostics of each row of a block whose row i is replicate
    start + i, unscaled: the mean shift at the row's trim threshold eta, and
    the sups of its trimmed-minus-truncated gap terms centered by that shift
    and uncentered.  `threshold` is the truncation threshold H^-1(d/n); None
    asks for the shift alone, and no gap term is formed.

    A row with d or more draws past the float range has eta = inf and no
    diagnostic; the first is reported before any arithmetic on it.
    """
    n = x.shape[1]
    eta, kept = _trim_rule(x, d)
    infinite = np.flatnonzero(np.isinf(eta))
    if infinite.size:
        raise _overflow_error(start + int(infinite[0]), seed, n, d, "diagnostic")
    shift = mean_shift(model, eta, d, n)
    if threshold is None:
        return (shift,)
    terms = _gap_terms(x, kept, threshold)
    del kept  # freed before the sups take their temporaries of the block
    return shift, _gap_sup(terms, shift), _gap_sup(terms, 0.0)


def _diagnostics(
    model: TailModel, n: int, d: int, reps: int, seed: int = 0, workers: int = 1,
    centering: bool = True, gaps: bool = True,
) -> tuple[DiagnosticSummary | None, GapSummary | None]:
    """The centering and gap summaries from one pass: each replicate is drawn,
    trimmed and measured once (_diagnostic_job), in one pool.

    The scales are scalars, taken once before the pool starts, and each
    summary divides its half of the pass by its own.  A half that is not
    asked for is None, and the pass does not measure it: without `centering`
    the centering scale is not taken and scipy's normal law is not loaded
    (the scale is defined for the one-sided family only); without `gaps` no
    gap term or sup is formed.
    """
    n, d = _integer(n, "n"), _integer(d, "d")
    reps, seed = _integer(reps, "reps"), _integer(seed, "seed")
    center_scale = centering_scale(model, d, n) if centering else None
    if centering:
        _normal()  # the KS distance's normal law: a missing scipy fails before the pass
    gap_scale = truncated_sum_scale(model, d, n) if gaps else None
    threshold = _depth_threshold(model, d, n) if gaps else None
    jobs = _run_jobs(_diagnostic_job, workers, model, {n: d}, seed, reps, model, threshold)
    shifts, *sups = (np.concatenate(col) for col in zip(*jobs[n]))
    summary = gap_summary = None
    if centering:
        vals = n * shifts / center_scale
        variance = float(np.var(vals, ddof=1)) if reps > 1 else None
        summary = DiagnosticSummary(float(np.mean(vals)), variance, _ks_to_standard_normal(vals))
    if gaps:
        centered, uncentered = sups
        gap_summary = GapSummary(
            float(np.median(centered / gap_scale)), float(np.median(uncentered / gap_scale))
        )
    return summary, gap_summary


def centering_normality_diagnostic(
    model: TailModel, n: int, d: int, reps: int, seed: int = 0, workers: int = 1
) -> DiagnosticSummary:
    """Distribution of the standardized mean shift at the realized trim threshold.

    Each replicate draws a sample, takes its trim threshold, and evaluates
    n * mean_shift(threshold) / centering_scale.  For one-sided regularly
    varying densities this is asymptotically standard normal; the summary
    reports the sample mean, sample variance (absent when reps = 1) and the
    KS distance to N(0, 1).  It is the centering half of _diagnostics, whose
    pass then takes no gap term.
    """
    return _diagnostics(model, n, d, reps, seed, workers, gaps=False)[0]


def trim_truncation_divergence(
    model: TailModel, n: int, d: int, reps: int, seed: int = 0, workers: int = 1
) -> GapSummary:
    """Medians of the centered and uncentered sup gaps between trimmed and
    truncated partial sums, normalized by the truncated partial-sum scale.

    The centered gap shrinks with n for any Pareto-type model; the uncentered
    one stays bounded away from zero for asymmetric laws, which is exactly the
    effect of the random centering term.  It is the gap half of _diagnostics.
    """
    return _diagnostics(model, n, d, reps, seed, workers, centering=False)[1]
