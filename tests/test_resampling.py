import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

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
