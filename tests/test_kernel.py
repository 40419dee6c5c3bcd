"""Bit identity of the row-batched trimmed-CUSUM kernel.

The references below are the one-sample formulas written out directly; the
kernel must reproduce them bit for bit on every row, and the blocked resampler
must reproduce the one-replicate-at-a-time loop.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_array_equal

import trimcusum.resampling as resampling
from trimcusum import (
    WITH_REPLACEMENT,
    DegenerateSampleError,
    WITHOUT_REPLACEMENT,
    ResamplePlan,
    cusum_path,
    empirical_quantile,
    resampled_critical_value,
    resampled_path,
    sample_iid,
    test_statistic as trimmed_statistic,
    trim,
    trimmed_centered,
    two_sided_pareto,
)
from trimcusum.trimmed_cusum import _trim_rows


def reference_path(y):
    n = y.size
    s = np.empty(n + 1)
    s[0] = 0.0
    np.cumsum(y, out=s[1:])
    points = s - (np.arange(n + 1) / n) * s[n]
    abs_points = np.abs(points)
    k = int(np.argmax(abs_points))
    return points, float(abs_points[k]), k


def reference_trim(v, d):
    n = v.size
    threshold = float(np.partition(np.abs(v), n - d)[n - d])
    y = np.where(np.abs(v) <= threshold, v, 0.0)
    mean = float(y.sum() / n)
    return threshold, y, mean, float(((y - mean) ** 2).sum())


def check_rows(x, d):
    rows = _trim_rows(x, d)
    for i, v in enumerate(x):
        threshold, y, mean, css = reference_trim(v, d)
        points, sup, k = reference_path(y)
        assert rows.threshold[i] == threshold
        assert_array_equal(rows.values[i], y)
        assert rows.mean[i] == mean
        assert np.ldexp(rows.scaled_sup[i], rows.exponent[i]) == sup
        path = cusum_path(y)
        assert_array_equal(path.points, points)
        assert (path.sup_abs, path.argmax_k) == (sup, k)
        squares = (y - mean) ** 2
        if math.isfinite(css) and np.all((squares == 0.0) | (squares >= np.finfo(float).tiny)):
            assert rows.centered_sum_sq[i] == css
            if css > 0.0:
                assert trimmed_statistic(v, d) == sup / math.sqrt(css)
        else:
            check_exact_sum_of_squares(rows, i, v, d, y, mean, sup)
    return rows


def check_exact_sum_of_squares(rows, i, v, d, y, mean, sup):
    # Where the squares underflow to subnormals or their sum overflows, the
    # formulas above lose the sum of squares; the kernel squares the values
    # scaled by 2**-e, so it is compared with the exact rational sum instead.
    m = Fraction(mean)
    exact = sum((Fraction(value) - m) ** 2 for value in y.tolist())
    kernel = Fraction(float(rows.scaled_sum_sq[i])) * Fraction(2) ** (2 * int(rows.exponent[i]))
    assert abs(kernel - exact) <= Fraction(1e-13) * exact
    if exact > 0:
        # statistic**2 * exact sum of squares == sup**2
        statistic = Fraction(trimmed_statistic(v, d))
        assert abs(statistic**2 * exact - Fraction(sup) ** 2) <= Fraction(1e-13) * Fraction(sup) ** 2


@pytest.mark.parametrize("r,n", [(7, 53), (3, 1000), (1, 2), (2, 100_003)])
def test_kernel_rows_match_one_sample_formulas(r, n):
    rng = np.random.default_rng(n)
    x = rng.standard_cauchy((r, n))
    for d in sorted({d for d in (1, 2, n // 3, n - 1) if 1 <= d < n}):
        rows = check_rows(x, d)
        assert_array_equal(rows.statistics(), [trimmed_statistic(v, d) for v in x])


@settings(max_examples=60, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=24),
        elements=st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6)),
    ),
    data=st.data(),
)
def test_kernel_rows_property(x, data):
    d = data.draw(st.integers(1, x.shape[1] - 1))
    check_rows(x, d)


def test_kernel_rows_where_the_squares_underflow():
    x = np.array([[1.6e-158, -1.6e-158, 0.0, 5e-160], [3e-170, 1e-170, -2e-170, 1e-171]])
    for d in (1, 2, 3):
        rows = check_rows(x, d)
        assert np.all(rows.centered_sum_sq < np.finfo(float).tiny)
        assert_array_equal(rows.statistics(), [trimmed_statistic(v, d) for v in x])


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_statistics_raise_on_a_row_without_a_statistic(bad):
    rows = _trim_rows(np.random.default_rng(1).standard_cauchy((3, 20)), 2)
    assert rows.statistics().shape == (3,)
    ss = rows.scaled_sum_sq.copy()
    ss[1] = bad
    with pytest.raises(DegenerateSampleError):
        rows._replace(scaled_sum_sq=ss).statistics()
    assert rows._replace(scaled_sum_sq=ss).undefined().tolist() == [1]


def test_statistics_of_an_empty_block_are_empty():
    rows = _trim_rows(np.empty((0, 20)), 2)
    assert rows.statistics().shape == (0,)


def reference_critical_value(sample, d, plan):
    ts = trim(sample, d)
    x = trimmed_centered(sample, d)
    scale = ts.sigma_hat * math.sqrt(plan.m)
    stats = np.sort(
        [resampled_path(x, plan, b).sup_abs / scale for b in range(plan.replications)]
    )
    b_total = plan.replications
    rank = max(math.ceil(b_total * plan.level - 1e-9), 1)
    spread = math.sqrt(b_total * plan.level * (1.0 - plan.level))
    lo = min(max(int(math.floor(rank - spread)), 1), b_total)
    hi = min(max(int(math.ceil(rank + spread)), 1), b_total)
    return empirical_quantile(stats, plan.level), float(stats[hi - 1] - stats[lo - 1]) / 2.0


@pytest.mark.parametrize("block_rows", [None, 7, 64])
@pytest.mark.parametrize("mode", [WITHOUT_REPLACEMENT, WITH_REPLACEMENT])
@pytest.mark.parametrize(
    "n,m", [(37, 37), (200, 71), (200, 1), (1000, 1000), (1000, 333), (53, 17)]
)
def test_blocked_resampling_matches_replicate_loop(monkeypatch, block_rows, mode, n, m):
    plan = ResamplePlan(m=m, mode=mode, replications=151, level=0.9, seed=4)
    # a block row holds n values in permutation mode and m in bootstrap mode,
    # and a block holds whole pairs of rows (7 rows' worth make 3 pairs)
    width = resampling._block_width(plan, n)
    if block_rows is not None:
        monkeypatch.setattr(resampling, "_BLOCK_ELEMS", block_rows * width)
    sample = sample_iid(two_sided_pareto(1.5), n, seed=n + m)
    d = 3
    # 151 replicates are never a whole number of blocks, so the last block is
    # partial and ends in half a pair
    assert plan.replications % (2 * (resampling._BLOCK_ELEMS // (2 * width))) != 0
    est = resampled_critical_value(sample, d, plan)
    assert (est.value, est.standard_error) == reference_critical_value(sample, d, plan)


@pytest.mark.parametrize("mode", [WITHOUT_REPLACEMENT, WITH_REPLACEMENT])
@pytest.mark.parametrize("n", [2, 3, 7, 50, 1000, 5000])
def test_paired_lanes_match_replicate_loop(mode, n):
    # odd B leaves the last pair's second lane unused; at n = 5000 a
    # permutation block holds a single pair
    sample = sample_iid(two_sided_pareto(1.5), n, seed=n)
    d = 1 if n < 4 else 3
    for m in sorted({1, max(1, n // 3), n}):
        for b_total in (1, 2, 3, 37, 1001):
            plan = ResamplePlan(m=m, mode=mode, replications=b_total, level=0.9, seed=n + m)
            est = resampled_critical_value(sample, d, plan)
            assert (est.value, est.standard_error) == reference_critical_value(sample, d, plan)
