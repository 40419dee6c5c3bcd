"""Modulus trimming and the self-normalized trimmed CUSUM statistic.

The trim threshold is the d-th largest of |X_1|, ..., |X_n|; observations whose
modulus exceeds it are zeroed (the threshold itself is kept, so exactly d-1
values drop when all moduli are distinct).  The test statistic is the sup of
the tied-down partial-sum path of the trimmed values divided by the trimmed
standard-deviation estimate times sqrt(n).  One row-batched kernel,
_trim_rows, computes all of it; the one-sample functions here, the Monte Carlo
jobs and the CLI call it, and the resampler calls its path step, _path_sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateSampleError",
    "TrimmedSample",
    "CusumPath",
    "ChangeLocation",
    "TestReport",
    "as_sample",
    "default_trim_depth",
    "trim",
    "cusum_path",
    "test_statistic",
    "truncated_cusum_path",
    "trim_trunc_gap",
    "locate_change",
    "centered_gap_process",
]


class DegenerateSampleError(ValueError):
    """The trimmed variance estimate is zero (all retained observations are
    identical) or not finite, so the statistic is undefined."""


def as_sample(values) -> np.ndarray:
    """Validate and copy observations: 1-D, finite, at least two entries."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError("a sample must be one-dimensional")
    if arr.size < 2:
        raise ValueError("a sample needs at least two observations")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample entries must be finite")
    return arr


@dataclass(frozen=True)
class TrimmedSample:
    """A sample together with its trim depth, threshold and trimmed estimates.

    kept[j] is True iff |source[j]| <= threshold; trimmed_mean and
    centered_sum_sq are computed over all n slots with trimmed-out entries
    contributing zero, and sigma_hat = sqrt(centered_sum_sq / n).
    """

    source: np.ndarray
    d: int
    threshold: float
    kept: np.ndarray
    trimmed_mean: float
    centered_sum_sq: float
    sigma_hat: float

    @property
    def n(self) -> int:
        return self.source.size

    @property
    def trimmed_values(self) -> np.ndarray:
        """X_j * 1{|X_j| <= threshold}, length n."""
        return np.where(self.kept, self.source, 0.0)


@dataclass(frozen=True)
class CusumPath:
    """Tied-down partial-sum path points[k] = S_k - (k/n) S_n, k = 0..n."""

    points: np.ndarray
    sup_abs: float
    argmax_k: int

    @property
    def n(self) -> int:
        return self.points.size - 1


class ChangeLocation(NamedTuple):
    k: int
    degenerate: bool


@dataclass(frozen=True)
class TestReport:
    """Outcome of one change-point test run."""

    statistic: float
    critical_value: float
    level: float
    reject: bool
    change_at: int
    method: str  # "asymptotic" or "resampled"

    def __post_init__(self) -> None:
        if self.method not in ("asymptotic", "resampled"):
            raise ValueError("method must be 'asymptotic' or 'resampled'")
        if self.reject != (self.statistic > self.critical_value):
            raise ValueError("reject flag inconsistent with statistic and critical value")


def default_trim_depth(n: int) -> int:
    """floor(n**0.3), clamped to at least 2.

    The epsilon shields cases where n**0.3 is mathematically an integer from
    being floored one step too low by float rounding.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return max(2, int(math.floor(n ** 0.3 + 1e-9)))


def _check_depth(d: int, n: int) -> None:
    """The trim-depth contract of every entry point: 1 <= d < n."""
    if not 1 <= d < n:
        raise ValueError(f"trim depth d={d} must satisfy 1 <= d < n={n}")


def _trim_rule(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise threshold (d-th largest modulus) of an (R, n) block and the
    inclusive indicator |x| <= threshold."""
    n = x.shape[1]
    _check_depth(d, n)
    absx = np.abs(x)
    # a copy, so that the partitioned block is freed before the caller goes on
    threshold = np.partition(absx, n - d, axis=1)[:, n - d].copy()
    return threshold, absx <= threshold[:, None]


def _path_sup(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tied-down partial sums S_k - (k/n) S_n, k = 0..n, of each row of an
    (R, n) block, with the row-wise max modulus and its first argmax.

    points[:, 0] and points[:, n] are exactly zero: S_n is computed once and
    k/n is exactly 1 at k = n, so the subtraction cancels bit-for-bit.  The
    first argmax is therefore interior, or 0 on a flat path.
    """
    r, n = y.shape
    points = np.zeros((r, n + 1))
    np.cumsum(y, axis=1, out=points[:, 1:])
    points -= points[:, -1:] * (np.arange(n + 1) / n)
    abs_points = np.abs(points)
    argmax = abs_points.argmax(axis=1)
    return points, abs_points[np.arange(r), argmax], argmax


class _Rows(NamedTuple):
    """The trimmed-CUSUM kernel's output for an (R, n) block, row by row."""

    threshold: np.ndarray  # (R,)
    kept: np.ndarray  # (R, n)
    values: np.ndarray  # (R, n) trimmed values, zero where not kept
    mean: np.ndarray  # (R,) over all n slots
    centered_sum_sq: np.ndarray  # (R,)
    points: np.ndarray  # (R, n + 1) tied-down path of the trimmed values
    sup: np.ndarray  # (R,)
    argmax: np.ndarray  # (R,)

    def statistics(self) -> np.ndarray:
        """sup / sqrt(centered_sum_sq) = sup / (sigma_hat * sqrt(n)) per row."""
        if np.any(self.centered_sum_sq == 0.0):
            raise DegenerateSampleError("all retained observations are identical")
        return self.sup / np.sqrt(self.centered_sum_sq)

    def sample(self, source: np.ndarray, d: int, i: int = 0) -> TrimmedSample:
        css = float(self.centered_sum_sq[i])
        sigma_hat = math.sqrt(css / source.size)
        threshold, mean = float(self.threshold[i]), float(self.mean[i])
        return TrimmedSample(source, d, threshold, self.kept[i], mean, css, sigma_hat)

    def path(self, i: int = 0) -> CusumPath:
        return CusumPath(self.points[i], float(self.sup[i]), int(self.argmax[i]))


def _trim_rows(x: np.ndarray, d: int) -> _Rows:
    """The trimmed-CUSUM kernel: trim each row of an (R, n) block at its d-th
    largest modulus, centre at the trimmed mean, and build the tied-down path."""
    n = x.shape[1]
    threshold, kept = _trim_rule(x, d)
    values = np.where(kept, x, 0.0)
    mean = values.sum(axis=1) / n
    centered_sum_sq = ((values - mean[:, None]) ** 2).sum(axis=1)
    return _Rows(threshold, kept, values, mean, centered_sum_sq, *_path_sup(values))


def _trim_one(sample, d: int) -> tuple[np.ndarray, _Rows]:
    v = as_sample(sample)
    return v, _trim_rows(v[None, :], d)


def _gap_terms(x: np.ndarray, d: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise trim thresholds eta and X_j * (1{|X_j| <= eta} - 1{|X_j| <= threshold})."""
    eta, kept = _trim_rule(x, d)
    return eta, x * (kept.astype(float) - (np.abs(x) <= threshold).astype(float))


def trim(sample, d: int) -> TrimmedSample:
    """Trim at the d-th largest modulus and compute the trimmed estimates.

    Ties at the threshold are all kept (the indicator is inclusive), so with
    distinct moduli exactly d-1 observations are zeroed out.  sigma_hat may be
    zero here; downstream consumers flag that case.
    """
    v, rows = _trim_one(sample, d)
    return rows.sample(v, d)


def cusum_path(terms) -> CusumPath:
    """Tied-down partial sums of the given terms.

    points[0] and points[n] are exactly zero.  A length-one input yields the
    two-point zero path.
    """
    y = np.asarray(terms, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("terms must be a nonempty one-dimensional vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("terms must be finite")
    points, sup, argmax = _path_sup(y[None, :])
    return CusumPath(points[0], float(sup[0]), int(argmax[0]))


def test_statistic(sample, d: int) -> float:
    """sup_k |trimmed CUSUM| / (sigma_hat * sqrt(n)).

    The denominator equals sqrt(centered_sum_sq) and is computed that way.
    Scale-invariant: multiplying the sample by any lambda > 0 leaves it
    unchanged.
    """
    return float(_trim_one(sample, d)[1].statistics()[0])


def truncated_cusum_path(sample, threshold: float) -> CusumPath:
    """CUSUM path of X_j * 1{|X_j| <= threshold} for a fixed threshold."""
    v = as_sample(sample)
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    return cusum_path(np.where(np.abs(v) <= threshold, v, 0.0))


def trim_trunc_gap(sample, d: int, threshold: float) -> float:
    """Componentwise sup distance between the trimmed and truncated CUSUM paths."""
    v, rows = _trim_one(sample, d)
    truncated = truncated_cusum_path(v, threshold)
    return float(np.abs(rows.points[0] - truncated.points).max())


def locate_change(path: CusumPath) -> ChangeLocation:
    """Smallest interior k maximizing |points[k]|, 1 <= k <= n-1.

    The path's first argmax is that k, or 0 on a flat (all-zero) path, which
    carries no location information; k = 1 is returned with the degenerate
    flag set.
    """
    if path.argmax_k == 0:
        return ChangeLocation(1, True)
    return ChangeLocation(path.argmax_k, False)


def centered_gap_process(sample, d: int, threshold: float, center: float) -> float:
    """Sup of the randomly centered trimmed-minus-truncated partial sums.

    max over k of |sum_{j<=k} [X_j*(1{|X_j| <= eta} - 1{|X_j| <= threshold})
    - center]| where eta is the realized trim threshold and `center` is the
    mean shift evaluated at eta (see heavy_tail_models.mean_shift).
    """
    v = as_sample(sample)
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    terms = _gap_terms(v[None, :], d, threshold)[1][0]
    return float(np.abs(np.cumsum(terms - center)).max())
