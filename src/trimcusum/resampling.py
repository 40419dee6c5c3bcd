"""Bootstrap and permutation resampling of the trimmed, centered observations.

Critical values for small and moderate samples: draw m values from the trimmed
and centered sample (with replacement = bootstrap, without = permutation),
build the CUSUM path of each resample, normalize by sigma_hat * sqrt(m), and
take an empirical quantile over B replicates.  Replicate b draws from
substream b of the plan's seed, so replicates are independent and the whole
procedure is reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import SEED_LIMIT, stream_generator
from .trimmed_cusum import (
    CusumPath, DegenerateSampleError, _path_sup, _Rows, _trim_one, cusum_path, trim
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

# Draws per block pushed through the path step in one call: enough rows to
# amortize the per-call overhead, few enough that the block's temporaries stay
# small (all B x m draws at once would cost tens of MB at B = 1000, m = 1000).
_BLOCK_ELEMS = 1 << 16


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
    v = np.sort(np.asarray(values, dtype=float))
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


def _draw(x: np.ndarray, plan: ResamplePlan, replicate_index: int) -> np.ndarray:
    n = x.size
    rng = stream_generator(plan.seed, replicate_index)
    if plan.mode == WITH_REPLACEMENT:
        return x[rng.integers(0, n, size=plan.m)]
    if plan.m > n:
        raise ValueError(f"without-replacement draws need m <= n, got m={plan.m} > n={n}")
    return x[rng.permutation(n)[: plan.m]]


def resampled_path(x, plan: ResamplePlan, replicate_index: int) -> CusumPath:
    """CUSUM path of one resample; deterministic in (x, plan, replicate_index)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
        raise ValueError("x must be a nonempty vector of finite values")
    if not 0 <= replicate_index < plan.replications:
        raise ValueError(
            f"replicate_index {replicate_index} outside [0, {plan.replications})"
        )
    return cusum_path(_draw(arr, plan, replicate_index))


def resampled_critical_value(sample, d: int, plan: ResamplePlan) -> CriticalValueEstimate:
    """Empirical level-quantile of sup |T_mn| / (sigma_hat * sqrt(m)) over B resamples."""
    return _critical_value(_trim_one(sample, d)[1], plan)


def _critical_value(trimmed: _Rows, plan: ResamplePlan) -> CriticalValueEstimate:
    """resampled_critical_value of the kernel's one-row output.  Replicate b
    draws from its own stream; blocks of draws go through the path step."""
    if trimmed.undefined().size:
        raise DegenerateSampleError("all retained observations are identical")
    # at the kernel's scale 2**-e, so that the resampled sums cannot overflow
    e = trimmed.exponent[0]
    x = np.ldexp(trimmed.values[0], -e) - np.ldexp(trimmed.mean[0], -e)
    scale = math.sqrt(trimmed.scaled_sum_sq[0] / x.size) * math.sqrt(plan.m)
    b_total = plan.replications
    rows = max(1, _BLOCK_ELEMS // plan.m)
    stats = np.empty(b_total)
    for start in range(0, b_total, rows):
        stop = min(start + rows, b_total)
        block = np.array([_draw(x, plan, b) for b in range(start, stop)])
        stats[start:stop] = _path_sup(block, np.zeros(stop - start, dtype=int))[1] / scale
    value, standard_error = _quantile_and_error(stats, plan.level)
    return CriticalValueEstimate(value, plan.level, b_total, standard_error)
