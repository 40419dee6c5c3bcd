import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from trimcusum import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    DegenerateSampleError,
    PowerSpec,
    ResamplePlan,
    SimulationSpec,
    centered_gap_process,
    cusum_path,
    default_trim_depth,
    gaussian,
    locate_change,
    mean_shift,
    quantile,
    resampled_path,
    sup_bridge_cdf,
    tail_survival,
    tail_survival_inv,
    test_statistic as trimmed_statistic,
    trim,
    trim_trunc_gap,
    truncated_cusum_path,
    two_sided_pareto,
)
from trimcusum.trimmed_cusum import _gap_terms

HAND_PATH = [0.0, 2.1, 0.2, -0.2, -1.1, 0.0]


def test_default_trim_depth():
    assert default_trim_depth(100) == 3
    assert default_trim_depth(800) == 7
    assert default_trim_depth(2) == 2
    assert default_trim_depth(100_000) == 31
    with pytest.raises(ValueError):
        default_trim_depth(1)


def test_trim_threshold(hand_sample):
    assert trim(hand_sample, 1).threshold == 4.0
    assert trim(hand_sample, 2).threshold == 3.0
    assert trim(hand_sample, 4).threshold == 1.0
    with pytest.raises(ValueError):
        trim(hand_sample, 0)
    with pytest.raises(ValueError):
        trim(hand_sample, 6)


def test_trim_threshold_ties_keep_everything():
    ts = trim([2.0, -2.0, 1.0], 2)
    assert ts.threshold == 2.0
    assert ts.kept.all()


def test_trim_hand_values(hand_sample):
    ts = trim(hand_sample, 2)
    assert ts.threshold == 3.0
    assert_array_equal(ts.kept, [True, True, True, False, True])
    assert ts.trimmed_mean == pytest.approx(0.9, abs=1e-12)
    assert ts.centered_sum_sq == pytest.approx(10.2, abs=1e-9)
    assert ts.sigma_hat == pytest.approx(math.sqrt(2.04), abs=1e-9)
    assert_allclose(ts.trimmed_values, [3.0, -1.0, 0.5, 0.0, 2.0])


def test_trim_degenerate_constant_sample():
    ts = trim([4.0, 4.0, 4.0], 2)
    assert ts.threshold == 4.0
    assert ts.kept.all()
    assert ts.trimmed_mean == 4.0
    assert ts.centered_sum_sq == 0.0
    assert ts.sigma_hat == 0.0


def test_trim_scale_equivariance(hand_sample):
    lam = 7.0
    base = trim(hand_sample, 2)
    scaled = trim(lam * hand_sample, 2)
    assert scaled.threshold == pytest.approx(lam * base.threshold, rel=1e-12)
    assert scaled.trimmed_mean == pytest.approx(lam * base.trimmed_mean, rel=1e-12)
    assert scaled.centered_sum_sq == pytest.approx(lam * lam * base.centered_sum_sq, rel=1e-12)
    assert_array_equal(scaled.kept, base.kept)


def test_trim_depth_bounds(hand_sample):
    with pytest.raises(ValueError):
        trim(hand_sample, 5)
    with pytest.raises(ValueError):
        trim(hand_sample, 0)
    trim(hand_sample, 1)  # keeping through the largest modulus is allowed


def test_sample_validation():
    with pytest.raises(ValueError):
        trim([1.0], 1)
    with pytest.raises(ValueError):
        trim([1.0, np.nan, 2.0], 1)
    with pytest.raises(ValueError):
        trim([[1.0, 2.0], [3.0, 4.0]], 1)


def test_cusum_path_hand_values():
    path = cusum_path([3.0, -1.0, 0.5, 0.0, 2.0])
    assert_allclose(path.points, HAND_PATH, atol=1e-12)
    assert path.sup_abs == pytest.approx(2.1, abs=1e-12)
    assert path.argmax_k == 1
    assert path.n == 5


def test_cusum_path_tied_down_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.standard_cauchy(rng.integers(2, 200))
        path = cusum_path(y)
        assert path.points[0] == 0.0
        assert path.points[-1] == 0.0


def test_cusum_path_constant_terms_vanish():
    path = cusum_path(np.full(9, 3.7))
    assert_allclose(path.points, 0.0, atol=1e-12)


def test_cusum_path_centering_invariance():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(50)
    scale = np.abs(y).sum()
    for c in (-11.0, 0.5, 1e4):
        assert_allclose(cusum_path(y + c).points, cusum_path(y).points, atol=1e-9 * max(scale, c))


@pytest.mark.parametrize(
    "terms, message",
    [
        ([[1.0, 2.0], [3.0, 4.0]], "nonempty one-dimensional"),
        ([], "nonempty one-dimensional"),
        ([1.0, np.inf, 2.0], "finite"),
        ([1.0, np.nan], "finite"),
    ],
)
def test_cusum_path_validation(terms, message):
    with pytest.raises(ValueError, match=message):
        cusum_path(terms)


def test_cusum_path_length_one_is_zero():
    path = cusum_path([5.0])
    assert_array_equal(path.points, [0.0, 0.0])


def test_test_statistic_hand_value(hand_sample):
    assert trimmed_statistic(hand_sample, 2) == pytest.approx(2.1 / math.sqrt(10.2), abs=1e-9)


def test_test_statistic_scale_invariance(hand_sample):
    base = trimmed_statistic(hand_sample, 2)
    assert trimmed_statistic(7.0 * hand_sample, 2) == pytest.approx(base, rel=1e-12)


def test_test_statistic_degenerate():
    with pytest.raises(DegenerateSampleError):
        trimmed_statistic([1.0, 1.0, 1.0, 1.0], 2)


def test_truncated_cusum_path(hand_sample):
    full = truncated_cusum_path(hand_sample, np.abs(hand_sample).max())
    assert_allclose(full.points, cusum_path(hand_sample).points, atol=0)
    zero = truncated_cusum_path(hand_sample, 0.0)
    assert_allclose(zero.points, 0.0, atol=0)
    part = truncated_cusum_path(hand_sample, 2.5)
    assert_allclose(part.points, [0.0, -0.3, -1.6, -1.4, -1.7, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        truncated_cusum_path(hand_sample, -1.0)


def test_trim_trunc_gap(hand_sample):
    assert trim_trunc_gap(hand_sample, 2, trim(hand_sample, 2).threshold) == 0.0
    expected = np.abs(np.array(HAND_PATH) - np.array([0.0, -0.3, -1.6, -1.4, -1.7, 0.0])).max()
    assert trim_trunc_gap(hand_sample, 2, 2.5) == pytest.approx(expected, abs=1e-12)
    assert trim_trunc_gap(hand_sample, 2, 2.5) == pytest.approx(2.4, abs=1e-9)
    with pytest.raises(ValueError):
        trim_trunc_gap(hand_sample, 2, -1.0)


@pytest.mark.parametrize("seed", range(20))
def test_trim_trunc_gap_matches_two_path_definition(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 400))
    x = rng.standard_cauchy(n) * 10.0 ** rng.uniform(-5, 5)
    d = int(rng.integers(1, n))
    own = trim(x, d)
    assert trim_trunc_gap(x, d, own.threshold) == 0.0
    threshold = float(np.quantile(np.abs(x), rng.uniform(0.3, 1.0)))
    trimmed = cusum_path(own.trimmed_values).points
    two_path = np.abs(trimmed - truncated_cusum_path(x, threshold).points).max()
    assert trim_trunc_gap(x, d, threshold) == pytest.approx(two_path, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.integers(-1000, 1000).map(float), min_size=4, max_size=50),
    # up to 1000 * 1e305: sums of such values pass the float range
    exponent=st.floats(-300, 305),
    data=st.data(),
)
def test_scale_invariance_over_the_float_range(values, exponent, data):
    # integer values keep distinct moduli distinct after rounding x * scale,
    # so the trim keeps the same observations at every scale
    x = np.asarray(values)
    d = data.draw(st.integers(1, x.size - 1))
    base = trim(x, d)
    assume(base.sigma_hat > 0.0)
    scale = 10.0 ** exponent
    scaled = trim(x * scale, d)
    assert math.isfinite(scaled.sigma_hat)
    assert scaled.sigma_hat == pytest.approx(base.sigma_hat * scale, rel=1e-12)
    assert trimmed_statistic(x * scale, d) == pytest.approx(trimmed_statistic(x, d), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(4, 50),
        elements=st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
    ),
    # values up to 1e3 < 2**10, so the top powers make the unscaled sums overflow
    power=st.one_of(st.integers(-900, 1013), st.integers(1008, 1013)),
    data=st.data(),
)
def test_power_of_two_scaling_is_exact(x, power, data):
    # x * 2**power is exact, and every value stays normal
    d = data.draw(st.integers(1, x.size - 1))
    base = trim(x, d)
    assume(base.sigma_hat > 0.0)
    scaled = x * 2.0**power
    assert trim(scaled, d).sigma_hat == math.ldexp(base.sigma_hat, power)
    assert trimmed_statistic(scaled, d) == trimmed_statistic(x, d)
    # so do the one-path helpers, whose sums pass the float range at the top
    # powers; np.ldexp is inf where the scaled value is past the range
    threshold = data.draw(st.sampled_from(np.abs(x).tolist()))
    big_threshold = math.ldexp(threshold, power)
    mode = data.draw(st.sampled_from([WITH_REPLACEMENT, WITHOUT_REPLACEMENT]))
    plan = ResamplePlan(m=data.draw(st.integers(1, x.size)), mode=mode, replications=3)
    b = data.draw(st.integers(0, 2))
    pairs = [
        (cusum_path(scaled), cusum_path(x)),
        (truncated_cusum_path(scaled, big_threshold), truncated_cusum_path(x, threshold)),
        (resampled_path(scaled, plan, b), resampled_path(x, plan, b)),
    ]
    with np.errstate(over="ignore"):
        for big, unit in pairs:
            assert_array_equal(big.points, np.ldexp(unit.points, power))
            assert big.sup_abs == np.ldexp(unit.sup_abs, power)
        gap = trim_trunc_gap(x, d, threshold)
        assert trim_trunc_gap(scaled, d, big_threshold) == np.ldexp(gap, power)


def test_trimmed_sums_past_the_float_range():
    # the kept values sum to 2.5e308
    x = np.array([1.5, 1.0, 1.0, 0.5])
    big = trim(x * 1e308, 2)
    assert big.trimmed_mean == pytest.approx(0.625e308, rel=1e-15)
    assert big.sigma_hat == pytest.approx(trim(x, 2).sigma_hat * 1e308, rel=1e-15)
    assert trimmed_statistic(x * 1e308, 2) == pytest.approx(trimmed_statistic(x, 2), rel=1e-15)
    assert trimmed_statistic(x, 2) == pytest.approx(0.625 / math.sqrt(0.6875), rel=1e-15)


def test_one_path_helpers_past_the_float_range():
    # the partial sums pass the float range; the sups do not
    x = np.array([1.5, 1.0, 1.0, 0.5])
    big = np.ldexp(x, 1023)
    assert cusum_path(big).sup_abs == 2.0**1022
    assert_array_equal(cusum_path(big).points, np.ldexp(cusum_path(x).points, 1023))
    unit = truncated_cusum_path(x, 1.2).sup_abs
    assert truncated_cusum_path(big, math.ldexp(1.2, 1023)).sup_abs == math.ldexp(unit, 1023)
    for mode in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        plan = ResamplePlan(m=4, mode=mode, replications=20, seed=0)
        for b in range(plan.replications):
            unit = resampled_path(x, plan, b).sup_abs
            assert resampled_path(big, plan, b).sup_abs == math.ldexp(unit, 1023)


def test_cusum_path_argmax_where_several_points_pass_the_float_range():
    # points 2, 3 and 4 are inf; the first argmax is the true peak, k = 3
    a = 1e308
    path = cusum_path([a, a, a, -a, -a, -a])
    assert_array_equal(path.points, [0.0, a, np.inf, np.inf, np.inf, a, 0.0])
    assert (path.sup_abs, path.argmax_k) == (np.inf, 3)
    assert locate_change(path) == (3, False)
    assert trim_trunc_gap([1e308, 1e308, 1.7e308, 1.0], 2, 2.0) == 1e308


def test_one_path_helpers_past_the_float_range_raise_no_warning():
    # the path step opens no errstate of its own; each entry point holds one
    # around it, the inf points and their argmax redo included
    a = [1e308] * 3 + [-1e308] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cusum_path(a).argmax_k == 3
        assert truncated_cusum_path(a, 1e308).argmax_k == 3
        assert trim_trunc_gap(a, 2, 0.0) == math.inf


def test_gap_sup_past_the_float_range_is_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert centered_gap_process([1e308, 1e308, 1.7e308, 1.0], 2, 2.0, 0.0) == math.inf


@pytest.mark.parametrize(
    "call,name",
    [
        pytest.param(lambda x: truncated_cusum_path(x, math.nan), "threshold",
                     id="truncated_cusum_path-threshold"),
        pytest.param(lambda x: trim_trunc_gap(x, 2, math.nan), "threshold",
                     id="trim_trunc_gap-threshold"),
        pytest.param(lambda x: centered_gap_process(x, 2, math.nan, 0.0), "threshold",
                     id="centered_gap_process-threshold"),
        pytest.param(lambda x: centered_gap_process(x, 2, 2.5, math.nan), "center",
                     id="centered_gap_process-center"),
        pytest.param(
            lambda x: PowerSpec(SimulationSpec(two_sided_pareto(1.5), x.size, 10), 2, math.nan),
            "critical_value", id="PowerSpec-critical_value",
        ),
        pytest.param(lambda x: quantile(two_sided_pareto(1.5), math.nan), "probability",
                     id="quantile-u"),
        pytest.param(lambda x: quantile(gaussian(), np.array([0.5, math.nan])), "probability",
                     id="quantile-u-array"),
        pytest.param(lambda x: tail_survival(two_sided_pareto(1.5), math.nan), "t must",
                     id="tail_survival-t"),
        pytest.param(lambda x: tail_survival_inv(two_sided_pareto(1.5), math.nan), "probability",
                     id="tail_survival_inv-u"),
        pytest.param(lambda x: mean_shift(two_sided_pareto(1.5), math.nan, 4, 100), "t must",
                     id="mean_shift-t"),
        pytest.param(lambda x: sup_bridge_cdf(math.nan), "x must", id="sup_bridge_cdf-x"),
    ],
)
def test_nan_parameters_are_rejected(hand_sample, call, name):
    # each check names the valid range, so NaN fails it
    with pytest.raises(ValueError, match=name):
        call(hand_sample)


def test_locate_change_hand(hand_sample):
    path = cusum_path(trim(hand_sample, 2).trimmed_values)
    assert locate_change(path) == (1, False)


def test_locate_change_tent_and_ties():
    n = 10
    tent = np.minimum(np.arange(n + 1), n - np.arange(n + 1)).astype(float)
    path = cusum_path(np.diff(tent))
    assert locate_change(path).k == n // 2
    two_peaks = cusum_path([1.0, 0.0, -1.0, 1.0, 0.0, -1.0])
    k, degenerate = locate_change(two_peaks)
    assert not degenerate
    interior = np.abs(two_peaks.points[1:-1])
    assert interior[k - 1] == interior.max()
    assert k == 1 + int(np.flatnonzero(interior == interior.max())[0])


def test_locate_change_degenerate():
    assert locate_change(cusum_path([2.0, 2.0, 2.0])) == (1, True)


def test_centered_gap_process(hand_sample):
    eta = trim(hand_sample, 2).threshold
    assert centered_gap_process(hand_sample, 2, eta, 0.0) == 0.0
    assert centered_gap_process(hand_sample, 2, 2.5, 0.1) == pytest.approx(2.9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=20,
    ),
    d=st.integers(1, 5),
)
def test_kept_count_property(values, d):
    x = np.asarray(values)
    assume(d < x.size)
    assume(len(np.unique(np.abs(x))) == x.size)
    ts = trim(x, d)
    assert int((~ts.kept).sum()) == d - 1


def test_permutation_invariance(hand_sample):
    rng = np.random.default_rng(9)
    base = trim(hand_sample, 2)
    for _ in range(10):
        perm = rng.permutation(hand_sample.size)
        shuffled = trim(hand_sample[perm], 2)
        assert shuffled.threshold == base.threshold
        assert shuffled.trimmed_mean == pytest.approx(base.trimmed_mean, rel=1e-12)
        assert shuffled.centered_sum_sq == pytest.approx(base.centered_sum_sq, rel=1e-12)
        assert_array_equal(shuffled.kept, base.kept[perm])


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=30),
    c=st.floats(-50, 50, allow_nan=False),
)
def test_centering_invariance_property(values, c):
    y = np.asarray(values)
    scale = max(np.abs(y).sum(), abs(c) * y.size, 1.0)
    assert_allclose(cusum_path(y + c).points, cusum_path(y).points, atol=1e-9 * scale)


def test_gap_terms_of_a_draw_past_the_float_range_are_zero():
    # the draw lies beyond both thresholds: its term is selected as 0, where
    # the product inf * (0 - 0) would be a NaN
    x = np.array([[np.inf, 3.0, -2.0, 1.0, 0.5, -np.inf]])
    with np.errstate(all="raise"):
        terms = _gap_terms(x, np.abs(x) <= 2.0, 1.0)
    assert_array_equal(terms, [[0.0, 0.0, -2.0, 0.0, 0.0, 0.0]])
