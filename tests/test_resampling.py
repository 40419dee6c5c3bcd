import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from trimcusum import resampling
from trimcusum import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    DegenerateSampleError,
    ResamplePlan,
    cusum_path,
    empirical_quantile,
    resampled_critical_value,
    resampled_path,
    trim,
    trimmed_centered,
    two_sided_pareto,
    sample_iid,
)
from trimcusum._streams import STREAM_STRIDE, stream_generator


def test_plan_validation():
    with pytest.raises(ValueError):
        ResamplePlan(m=0)
    with pytest.raises(ValueError):
        ResamplePlan(m=5, mode="jackknife")
    with pytest.raises(ValueError):
        ResamplePlan(m=5, replications=0)
    with pytest.raises(ValueError):
        ResamplePlan(m=5, level=1.0)
    with pytest.raises(ValueError):
        ResamplePlan(m=5, seed=-1)


def test_trimmed_centered_hand_values(hand_sample):
    x = trimmed_centered(hand_sample, 2)
    assert_allclose(x, [2.1, -1.9, -0.4, -0.9, 1.1], atol=1e-12)
    assert abs(x.sum()) <= 1e-9 * np.abs(hand_sample).sum()
    ts = trim(hand_sample, 2)
    assert (x ** 2).sum() / x.size == pytest.approx(ts.sigma_hat ** 2, rel=1e-12)


def test_resampled_path_m1_is_zero(hand_sample):
    x = trimmed_centered(hand_sample, 2)
    path = resampled_path(x, ResamplePlan(m=1, replications=3, seed=0), 0)
    assert_array_equal(path.points, [0.0, 0.0])


def test_resampled_path_permutation_multiset(hand_sample):
    # without replacement at m = n the draw is a permutation of x, so the
    # drawn multiset is exactly x's and the path is its CUSUM path
    x = trimmed_centered(hand_sample, 2)
    plan = ResamplePlan(m=x.size, mode=WITHOUT_REPLACEMENT, replications=4, seed=5)
    rng = stream_generator(plan.seed, 2)
    y = x[rng.permutation(x.size)]
    assert_array_equal(np.sort(y), np.sort(x))
    assert_array_equal(resampled_path(x, plan, 2).points, cusum_path(y).points)


def test_resampled_path_deterministic(hand_sample):
    x = trimmed_centered(hand_sample, 2)
    plan = ResamplePlan(m=5, mode=WITH_REPLACEMENT, replications=10, seed=3)
    a = resampled_path(x, plan, 7)
    b = resampled_path(x, plan, 7)
    assert_array_equal(a.points, b.points)
    c = resampled_path(x, plan, 6)
    assert not np.array_equal(a.points, c.points)


def test_resampled_path_errors(hand_sample):
    x = trimmed_centered(hand_sample, 2)
    plan = ResamplePlan(m=9, mode=WITHOUT_REPLACEMENT, replications=2)
    with pytest.raises(ValueError):
        resampled_path(x, plan, 0)
    with pytest.raises(ValueError):
        resampled_path(x, ResamplePlan(m=2, replications=2), 2)


def test_resampled_path_rejects_non_finite_x():
    # a NaN that only some replicates would draw is rejected by every one
    plan = ResamplePlan(m=1, mode=WITH_REPLACEMENT, replications=20, seed=0)
    for b in range(plan.replications):
        with pytest.raises(ValueError, match="finite"):
            resampled_path([1.0, math.nan, 2.0, 3.0], plan, b)


def test_conditional_moments_bootstrap():
    x = trimmed_centered(sample_iid(two_sided_pareto(1.5), 200, seed=1), 4)
    sigma_sq = (x ** 2).sum() / x.size
    plan = ResamplePlan(m=200, mode=WITH_REPLACEMENT, replications=400, seed=2)
    draws = np.concatenate(
        [np.diff(resampled_path(x, plan, b).points) for b in range(plan.replications)]
    )
    # increments are y_j - ybar per replicate; their grand mean is 0 by construction,
    # so check moments of the raw draws instead
    rng_draws = []
    for b in range(plan.replications):
        rng = stream_generator(plan.seed, b)
        rng_draws.append(x[rng.integers(0, x.size, size=plan.m)])
    y = np.concatenate(rng_draws)
    se_mean = math.sqrt(sigma_sq / y.size)
    assert abs(y.mean()) <= 3.0 * se_mean
    fourth = (x ** 4).sum() / x.size
    se_var = math.sqrt(max(fourth - sigma_sq ** 2, 0.0) / y.size)
    assert abs((y ** 2).mean() - sigma_sq) <= 3.0 * se_var
    assert draws.size == plan.replications * plan.m


def test_conditional_moments_permutation_exact(hand_sample):
    # without replacement at m = n every resample is a permutation of x:
    # mean exactly 0 and second moment exactly sigma_hat**2
    x = trimmed_centered(hand_sample, 2)
    plan = ResamplePlan(m=5, mode=WITHOUT_REPLACEMENT, replications=20, seed=11)
    for b in range(plan.replications):
        rng = stream_generator(plan.seed, b)
        y = x[rng.permutation(5)]
        assert y.sum() == pytest.approx(0.0, abs=1e-12)
        assert (y ** 2).mean() == pytest.approx((x ** 2).mean(), rel=1e-12)


def test_empirical_quantile_ceiling_convention():
    values = np.arange(1.0, 2001.0)
    assert empirical_quantile(values, 0.95) == 1900.0
    assert empirical_quantile(values, 0.9501) == 1901.0
    assert empirical_quantile([3.0], 0.5) == 3.0
    assert empirical_quantile([5.0, 1.0], 0.95) == 5.0
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.0)


def test_resampled_critical_value_single_replicate(hand_sample):
    plan = ResamplePlan(m=5, mode=WITH_REPLACEMENT, replications=1, seed=4)
    est = resampled_critical_value(hand_sample, 2, plan)
    ts = trim(hand_sample, 2)
    x = trimmed_centered(hand_sample, 2)
    expected = resampled_path(x, plan, 0).sup_abs / (ts.sigma_hat * math.sqrt(5))
    assert est.value == pytest.approx(expected, rel=1e-12)
    assert est.replications == 1
    assert est.standard_error >= 0.0


def test_resampled_critical_value_deterministic(hand_sample):
    plan = ResamplePlan(m=5, replications=50, seed=9)
    a = resampled_critical_value(hand_sample, 2, plan)
    b = resampled_critical_value(hand_sample, 2, plan)
    assert a == b


def test_resampled_critical_value_degenerate():
    plan = ResamplePlan(m=4, replications=10)
    with pytest.raises(DegenerateSampleError):
        resampled_critical_value([2.0, 2.0, 2.0, 2.0], 2, plan)


def test_resampled_critical_value_m_cap(hand_sample):
    plan = ResamplePlan(m=6, mode=WITHOUT_REPLACEMENT, replications=10)
    with pytest.raises(ValueError):
        resampled_critical_value(hand_sample, 2, plan)


def test_replicate_streams_do_not_overlap():
    # replicate b draws from counter offset b * STREAM_STRIDE of the same key
    for b in (0, 1, 5):
        gen = stream_generator(123, b)
        counter = gen.bit_generator.state["state"]["counter"]
        value = sum(int(w) << (64 * i) for i, w in enumerate(counter))
        assert value == b * STREAM_STRIDE
    assert STREAM_STRIDE > 10 ** 9  # far above any per-replicate consumption


def numpy_draw(seed, b, n, m, mode):
    """Replicate b's indices from a newly built generator on stream b."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=b * STREAM_STRIDE))
    if mode == WITH_REPLACEMENT:
        return gen.integers(0, n, size=m)
    return gen.permutation(n)[:m]


# 2**31 + 1 and 3 * 2**30 reject about 50 % and 25 % of the 32-bit candidates;
# 2**32 takes them whole and 2**32 + 1 takes numpy's 64-bit rule.
WIDE_N = (2**31 + 1, 3 * 2**30, 2**32, 2**32 + 1)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    start=st.one_of(st.integers(0, 40), st.integers(0, 2**128 - 8)),
    rows=st.integers(1, 6),
    n=st.one_of(st.sampled_from((1, 2, 3, 1000) + WIDE_N), st.integers(1, 3000)),
    m=st.integers(1, 400),
    mode=st.sampled_from((WITH_REPLACEMENT, WITHOUT_REPLACEMENT)),
)
@example(seed=0, start=0, rows=1, n=2, m=1, mode=WITH_REPLACEMENT)
@example(seed=5, start=3, rows=4, n=2, m=300, mode=WITH_REPLACEMENT)
@example(seed=1, start=0, rows=6, n=2**31 + 1, m=400, mode=WITH_REPLACEMENT)
@example(seed=2, start=7, rows=6, n=3 * 2**30, m=400, mode=WITH_REPLACEMENT)
@example(seed=3, start=0, rows=3, n=5, m=5, mode=WITHOUT_REPLACEMENT)
def test_indices_are_numpys_draws_bit_for_bit(seed, start, rows, n, m, mode):
    if mode == WITHOUT_REPLACEMENT:
        n = min(n, 3000)  # each shuffled row holds n values
        m = min(m, n)
    plan = ResamplePlan(m=m, mode=mode, replications=1, seed=seed)
    if mode == WITH_REPLACEMENT:
        got = resampling._indices(plan, n, start, start + rows)
    else:
        # shuffled copies of 0..n-1 are the permuted indices themselves; the
        # block buffer has a spare row the draw must not need
        x = np.arange(n, dtype=float)
        got = resampling._draw_block(x, plan, start, start + rows, np.empty((rows + 1, n)))
    assert got.shape == (rows, m)
    for row in range(rows):
        assert_array_equal(got[row], numpy_draw(seed, start + row, n, m, mode))


@pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
def test_permutation_path_is_the_path_of_numpys_draw(n):
    x = trimmed_centered(sample_iid(two_sided_pareto(1.5), max(n, 2), seed=n), 1)[:n]
    for m in sorted({1, max(1, n // 3), n}):
        plan = ResamplePlan(m=m, mode=WITHOUT_REPLACEMENT, replications=40, seed=n + m)
        for b in (0, 1, 39):
            path = resampled_path(x, plan, b)
            expected = cusum_path(x[numpy_draw(plan.seed, b, n, m, WITHOUT_REPLACEMENT)])
            assert_array_equal(path.points, expected.points)
            assert (path.sup_abs, path.argmax_k) == (expected.sup_abs, expected.argmax_k)


def test_rows_short_of_accepted_candidates_are_drawn_by_numpy(monkeypatch):
    # at n = 2**31 + 1 half of the candidates are rejected, more than the
    # spare candidates cover in some rows of this block
    redrawn = []
    draw = resampling._numpy_draw

    def spy(plan, n, b):
        redrawn.append(b)
        return draw(plan, n, b)

    monkeypatch.setattr(resampling, "_numpy_draw", spy)
    n, m = 2**31 + 1, 400
    plan = ResamplePlan(m=m, mode=WITH_REPLACEMENT, replications=1, seed=1)
    got = resampling._indices(plan, n, 0, 16)
    assert 0 < len(redrawn) < 16
    for b in range(16):
        assert_array_equal(got[b], numpy_draw(1, b, n, m, WITH_REPLACEMENT))


def test_a_rejected_candidate_is_skipped_as_numpy_skips_it():
    # stream 28814 of seed 0 rejects its 229th 32-bit candidate at n = 1000
    n = m = 1000
    words = np.random.Philox(key=0, counter=28814 * STREAM_STRIDE).random_raw(m)
    prod = words.astype("<u8").view("<u4").astype(np.uint64) * np.uint64(n)
    rejected = np.flatnonzero(prod % 2**32 < (2**32 - n) % n)
    assert rejected.tolist() == [228]
    plan = ResamplePlan(m=m, mode=WITH_REPLACEMENT, replications=1, seed=0)
    got = resampling._indices(plan, n, 28810, 28818)  # one block of 8 rows
    for row in range(8):
        assert_array_equal(got[row], numpy_draw(0, 28810 + row, n, m, WITH_REPLACEMENT))
