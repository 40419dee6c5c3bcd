"""Modulus trimming and the self-normalized trimmed CUSUM statistic.

The trim threshold is the d-th largest of |X_1|, ..., |X_n|; observations whose
modulus exceeds it are zeroed (the threshold itself is kept, so exactly d-1
values drop when all moduli are distinct).  The test statistic is the sup of
the tied-down partial-sum path of the trimmed values divided by the trimmed
standard-deviation estimate times sqrt(n).  One row-batched kernel,
_trim_rows, computes all of it; the one-sample functions here, the Monte Carlo
jobs and the CLI call it.  Its path step, _path_sup, which also builds every
path cusum_path returns, owns the float-range fallback (summing again at
2**-e).  The resampler sums its own paths at the kernel's scale, where no
fallback is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateSampleError",
    "TrimmedSample",
    "CusumPath",
    "ChangeLocation",
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


@functools.lru_cache(maxsize=32)
def _tie_down_weights(n: int, c: int) -> np.ndarray:
    """k/n for k = n - c + 1..n, read-only, as _tie_down uses it."""
    weights = np.arange(n + 1 - c, n + 1) / n
    weights.flags.writeable = False
    return weights


def _tie_down(sums: np.ndarray, n: int) -> np.ndarray:
    """S_k - S_n * (k/n), in place, on each row of partial sums of n terms.
    The c columns of sums hold S_k for k = n - c + 1..n: c = n + 1 with a
    leading S_0, or c = n.  Callers pass a whole contiguous block, not a
    column slice, which numpy would loop over row by row."""
    sums -= sums[:, -1:] * _tie_down_weights(n, sums.shape[1])
    return sums


def _path_sup(y: np.ndarray, exponent: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The path step: writes the tied-down partial sums S_k - (k/n) S_n of each
    row of an (R, n) block into `out` and returns the row-wise max modulus
    times 2**-exponent.

    `out` holds k = 1..n (n columns), or k = 0..n (n + 1 columns, the first
    zero).  The k = 0 and k = n sums are exactly zero: S_n is computed once and
    k/n is exactly 1 at k = n, so the subtraction cancels bit-for-bit.  A row
    whose sup is not finite is summed again on y * 2**-exponent and its sums
    scaled back: where 2**exponent exceeds its max modulus, its scaled sup is
    finite and its sums are inf only past the float range.
    """
    n = y.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(y, axis=1, out=out[:, out.shape[1] - n :])
        sup = np.ldexp(np.abs(_tie_down(out, n)).max(axis=1), -exponent)
        big = ~np.isfinite(sup) & (exponent != 0)  # at exponent 0 a second sum is the same
        if big.any():
            # into zeros: a leading S_0 column of out is NaN now (0 - inf * 0)
            redo = np.zeros((np.count_nonzero(big), out.shape[1]))
            scaled = np.ldexp(y[big], -exponent[big, None])
            sup[big] = _path_sup(scaled, np.zeros_like(exponent[big]), redo)
            out[big] = np.ldexp(redo, exponent[big, None])
    return sup


class _Rows(NamedTuple):
    """The trimmed-CUSUM kernel's output for an (R, n) block, row by row.  The
    unscaled sum of squares is inf past the float range; the tied-down path
    itself does not leave the kernel, only its sup."""

    threshold: np.ndarray  # (R,)
    kept: np.ndarray  # (R, n)
    values: np.ndarray  # (R, n) trimmed values, zero where not kept
    mean: np.ndarray  # (R,) over all n slots
    exponent: np.ndarray  # (R,) e with 2**(e-1) <= threshold < 2**e
    scaled_sum_sq: np.ndarray  # (R,) centred sum of squares * 2**(-2e)
    scaled_sup: np.ndarray  # (R,) sup of the tied-down path of the values * 2**-e

    @property
    def centered_sum_sq(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.ldexp(self.scaled_sum_sq, 2 * self.exponent)

    def undefined(self) -> np.ndarray:
        """Rows whose trimmed sum of squares is zero (identical retained
        values) or not finite (non-finite draws): no statistic exists."""
        return np.flatnonzero(~(np.isfinite(self.scaled_sum_sq) & (self.scaled_sum_sq > 0.0)))

    def statistics(self) -> np.ndarray:
        """sup / sqrt(centered_sum_sq) = sup / (sigma_hat * sqrt(n)) per row."""
        ss = self.scaled_sum_sq
        # a NaN fails both comparisons
        if ss.size and not (0.0 < ss.min() and ss.max() < math.inf):
            raise DegenerateSampleError(
                "the trimmed sum of squares is zero (identical retained values) or not finite")
        return self.scaled_sup / np.sqrt(self.scaled_sum_sq)

    def sample(self, source: np.ndarray, d: int, i: int = 0) -> TrimmedSample:
        css = float(self.centered_sum_sq[i])
        sigma_hat = math.ldexp(math.sqrt(self.scaled_sum_sq[i] / source.size), int(self.exponent[i]))
        threshold, mean = float(self.threshold[i]), float(self.mean[i])
        return TrimmedSample(source, d, threshold, self.kept[i], mean, css, sigma_hat)


def _trim_rows(x: np.ndarray, d: int) -> _Rows:
    """The trimmed-CUSUM kernel: trim each row of an (R, n) block at its d-th
    largest modulus, centre at the trimmed mean, and take the sup of the
    tied-down path.

    The values are scaled by 2**-e (e the threshold's binary exponent) before
    squaring, a row whose unscaled sum overflows is averaged at that scale, and
    the path step owns the path's fallback.  The scaling is exact: where the
    unscaled sums and squares neither over- nor underflow, nothing changes.
    """
    n = x.shape[1]
    threshold, kept = _trim_rule(x, d)
    values = np.where(kept, x, 0.0)
    exponent = np.frexp(threshold)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        centered = np.ldexp(values, -exponent[:, None])
        mean = values.sum(axis=1) / n
        big = ~np.isfinite(mean)
        if big.any():
            mean[big] = np.ldexp(centered[big].sum(axis=1) / n, exponent[big])
        centered -= np.ldexp(mean, -exponent)[:, None]
        scaled_sum_sq = np.square(centered, out=centered).sum(axis=1)
    scaled_sup = _path_sup(values, exponent, out=centered)  # the squares are spent
    return _Rows(threshold, kept, values, mean, exponent, scaled_sum_sq, scaled_sup)


def _trim_one(sample, d: int) -> tuple[np.ndarray, _Rows]:
    v = as_sample(sample)
    return v, _trim_rows(v[None, :], d)


def _gap_terms(x: np.ndarray, d: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise trim thresholds eta and X_j * (1{|X_j| <= eta} - 1{|X_j| <= threshold})."""
    eta, kept = _trim_rule(x, d)
    return eta, x * (kept.astype(float) - (np.abs(x) <= threshold).astype(float))


def _gap_sup(terms: np.ndarray, center) -> np.ndarray:
    """max_k |sum_{j<=k} (terms_j - center)| of each row; center is a scalar
    or one value per row.  A sum past the float range gives inf."""
    with np.errstate(over="ignore"):
        return np.abs(np.cumsum(terms - np.reshape(center, (-1, 1)), axis=1)).max(axis=1)


def _truncation_sample(sample, threshold: float) -> np.ndarray:
    """as_sample for a fixed truncation threshold, which must be nonnegative."""
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be nonnegative, got {threshold!r}")
    return as_sample(sample)


def _gap_row(sample, d: int, threshold: float) -> np.ndarray:
    """_gap_terms of one sample, as a (1, n) block."""
    return _gap_terms(_truncation_sample(sample, threshold)[None, :], d, threshold)[1]


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

    points[0] and points[n] are exactly zero, so argmax_k, the first k
    maximizing |points[k]|, is interior, or 0 on a flat path.  Where several
    points pass the float range, it is that of the path summed at 2**-e (e
    the exponent of the largest term).  A length-one input yields the
    two-point zero path.
    """
    y = np.asarray(terms, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("terms must be a nonempty one-dimensional vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("terms must be finite")
    e = np.frexp(np.abs(y).max(keepdims=True))[1]
    points = np.zeros((1, y.size + 1))
    _path_sup(y[None, :], e, points)
    k = int(np.abs(points[0]).argmax())
    if not np.isfinite(points[0, k]):
        scaled = np.zeros_like(points)
        _path_sup(np.ldexp(y, -e)[None, :], np.zeros_like(e), scaled)
        k = int(np.abs(scaled[0]).argmax())
    return CusumPath(points[0], float(np.abs(points[0, k])), k)


def test_statistic(sample, d: int) -> float:
    """sup_k |trimmed CUSUM| / (sigma_hat * sqrt(n)).

    The denominator equals sqrt(centered_sum_sq) and is computed that way.
    Scale-invariant: multiplying the sample by any lambda > 0 leaves it
    unchanged.
    """
    return float(_trim_one(sample, d)[1].statistics()[0])


def truncated_cusum_path(sample, threshold: float) -> CusumPath:
    """CUSUM path of X_j * 1{|X_j| <= threshold} for a fixed threshold."""
    v = _truncation_sample(sample, threshold)
    return cusum_path(np.where(np.abs(v) <= threshold, v, 0.0))


def trim_trunc_gap(sample, d: int, threshold: float) -> float:
    """Componentwise sup distance between the trimmed and truncated CUSUM paths:
    the paths are linear in their terms, so the sup of the path of the gap terms."""
    return cusum_path(_gap_row(sample, d, threshold)[0]).sup_abs


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
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    return float(_gap_sup(_gap_row(sample, d, threshold), center)[0])
