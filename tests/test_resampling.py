import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    test_statistic as trimmed_statistic,
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


PLAN_INTEGERS = {"m": 5, "replications": 50, "seed": 7}


@pytest.mark.parametrize("field", sorted(PLAN_INTEGERS))
@pytest.mark.parametrize("convert", [float, lambda v: v + 0.5, str])
def test_plan_rejects_a_non_integer_field_by_name(field, convert):
    fields = dict(PLAN_INTEGERS, **{field: convert(PLAN_INTEGERS[field])})
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        ResamplePlan(**fields)


@pytest.mark.parametrize("field", sorted(PLAN_INTEGERS))
def test_plan_takes_numpy_integers_as_ints(field):
    plan = ResamplePlan(**dict(PLAN_INTEGERS, **{field: np.int32(PLAN_INTEGERS[field])}))
    assert plan == ResamplePlan(**PLAN_INTEGERS)
    assert type(getattr(plan, field)) is int


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_plan_rejects_a_bool_seed_by_name(flag):
    # a Python bool is an int: seed=False used to run seed 0
    with pytest.raises(ValueError, match=rf"^seed must be an integer, got {flag!r}$"):
        ResamplePlan(m=5, seed=flag)


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


@pytest.mark.parametrize("values", [[1.0, np.nan, 2.0], [np.nan, 1.0, 2.0], [np.nan]])
@pytest.mark.parametrize("level", [0.1, 0.5, 0.9])
def test_empirical_quantile_rejects_nan(values, level):
    # np.sort puts NaN last: [1, nan, 2] at 0.5 would give 2.0, and
    # [nan, 1, 2] at 0.9 would give nan
    with pytest.raises(ValueError, match="NaN"):
        empirical_quantile(values, level)


@pytest.mark.parametrize("mode", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_a_sample_without_a_statistic_has_the_kernels_error(mode):
    # the resampler raises what the statistic itself raises on the sample
    flat = np.full(20, 2.0)
    with pytest.raises(DegenerateSampleError) as kernel:
        trimmed_statistic(flat, 2)
    with pytest.raises(DegenerateSampleError) as raised:
        resampled_critical_value(flat, 2, ResamplePlan(m=20, mode=mode, replications=10))
    assert str(raised.value) == str(kernel.value)


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


def lane(pairs, row):
    """Replicate row's lane of a paired (h, width, 2) block."""
    return pairs[row // 2, :, row % 2]


def paired_draw(plan, n, start, stop):
    """The drawer's lanes on x = 0..n-1, whose drawn values are the drawn
    indices, trimmed to their first m columns.  The drawer holds a spare pair
    filled with NaN, which the draw must leave alone; its block size is
    lifted so that it holds every pair at any n."""
    x = np.arange(n, dtype=float)
    pairs = (stop - start + 1) // 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resampling, "_BLOCK_ELEMS", 1 << 62)
        lanes, _, draw = resampling._drawer(x, plan, 2 * pairs + 2)
    assert lanes.shape[0] == pairs + 1
    lanes.fill(np.nan)
    draw(start, stop)
    assert np.isnan(lanes[pairs:]).all()
    return lanes[:pairs, : plan.m]


def indices(plan, n, start, stop):
    """The bootstrap indices of replicates start..stop-1 in pairs, drawn into
    buffers of exactly that many pairs."""
    pairs, m = (stop - start + 1) // 2, plan.m
    words = np.empty((2 * pairs, (m + 1) // 2), np.uint64)
    products = np.empty((2 * pairs, m), "<u8")
    return resampling._indices(plan, n, start, stop, words, products,
                               np.empty((pairs, m, 2), np.uint64))


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
    # every lane of the paired writer, the unused lane of an odd block aside
    if mode == WITHOUT_REPLACEMENT:
        n = min(n, 3000)  # each shuffled lane holds n values
        m = min(m, n)
    plan = ResamplePlan(m=m, mode=mode, replications=1, seed=seed)
    blocks = []
    if mode == WITH_REPLACEMENT:
        blocks.append(indices(plan, n, start, start + rows))
    if n <= 3000:
        blocks.append(paired_draw(plan, n, start, start + rows))
    for got in blocks:
        assert got.shape == ((rows + 1) // 2, m, 2)
        for row in range(rows):
            assert_array_equal(lane(got, row), numpy_draw(seed, start + row, n, m, mode))


def test_indices_past_two_to_the_32_are_numpys_64_bit_draws():
    # numpy draws every row where n passes 2**32; at m = 50 that takes 13 ms
    plan = ResamplePlan(m=50, mode=WITH_REPLACEMENT, replications=1, seed=1)
    n = 2**32 + 1
    got = indices(plan, n, 3, 10)
    assert got.shape == (4, 50, 2)
    for row in range(7):
        assert_array_equal(lane(got, row), stream_generator(1, 3 + row).integers(0, n, size=50))


def test_redrawn_rows_past_the_int64_range_are_numpys_draws(monkeypatch):
    # replicate 2**64 - 49 245 of seed 0 rejects its one candidate at
    # n = 2**31 + 1, so numpy redraws it; its index does not fit an int64
    seen = []
    draw = resampling._numpy_draw

    def spy(plan, n, replicate_index):
        seen.append(replicate_index)
        return draw(plan, n, replicate_index)

    monkeypatch.setattr(resampling, "_numpy_draw", spy)
    plan = ResamplePlan(m=1, mode=WITH_REPLACEMENT, replications=1, seed=0)
    n, start = 2**31 + 1, 2**64 - 49_247
    got = indices(plan, n, start, start + 3)
    assert seen == [2**64 - 49_245]
    for row in range(3):
        assert_array_equal(lane(got, row), numpy_draw(0, start + row, n, 1, WITH_REPLACEMENT))


@pytest.mark.parametrize("mode", [WITHOUT_REPLACEMENT, WITH_REPLACEMENT])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 1000])
def test_resampled_path_is_the_path_of_numpys_draw(n, mode):
    # a bootstrap resample may be larger than the sample
    x = trimmed_centered(sample_iid(two_sided_pareto(1.5), max(n, 2), seed=n), 1)[:n]
    sizes = {1, max(1, n // 3), n}
    if mode == WITH_REPLACEMENT:
        sizes |= {n + 1, 2 * n}
    for m in sorted(sizes):
        plan = ResamplePlan(m=m, mode=mode, replications=40, seed=n + m)
        for b in (0, 1, 39):
            path = resampled_path(x, plan, b)
            expected = cusum_path(x[numpy_draw(plan.seed, b, n, m, mode)])
            assert_array_equal(path.points, expected.points)
            assert (path.sup_abs, path.argmax_k) == (expected.sup_abs, expected.argmax_k)


@pytest.mark.parametrize(
    "n, m, seed, start, rows, redrawn",
    [
        # half of the candidates are rejected at n = 2**31 + 1: numpy draws
        # every row, in both lanes
        (2**31 + 1, 400, 1, 0, 16, list(range(16))),
        # one row of each block rejects one candidate (see the next test),
        # in a first lane and in a second lane
        (1000, 1000, 0, 28808, 8, [28814]),
        (1000, 1000, 0, 64960, 8, [64967]),
    ],
)
def test_rows_with_a_rejected_candidate_are_drawn_by_numpy(
    monkeypatch, n, m, seed, start, rows, redrawn
):
    seen = []
    draw = resampling._numpy_draw

    def spy(plan, n, b):
        seen.append(b)
        return draw(plan, n, b)

    monkeypatch.setattr(resampling, "_numpy_draw", spy)
    plan = ResamplePlan(m=m, mode=WITH_REPLACEMENT, replications=1, seed=seed)
    got = indices(plan, n, start, start + rows)
    assert seen == redrawn
    for row in range(rows):
        assert_array_equal(lane(got, row), numpy_draw(seed, start + row, n, m, WITH_REPLACEMENT))


def test_a_rejected_candidate_is_skipped_as_numpy_skips_it():
    # at n = 1000, stream 28814 of seed 0 rejects its 229th 32-bit candidate
    # and stream 64967 its 327th; blocks start at even replicates, so the
    # first lands in a first lane and the second in a second lane
    n = m = 1000
    plan = ResamplePlan(m=m, mode=WITH_REPLACEMENT, replications=1, seed=0)
    for stream, candidate in ((28814, 228), (64967, 326)):
        words = np.random.Philox(key=0, counter=stream * STREAM_STRIDE).random_raw(m)
        prod = words.astype("<u8").view("<u4").astype(np.uint64) * np.uint64(n)
        rejected = np.flatnonzero(prod % 2**32 < (2**32 - n) % n)
        assert rejected.tolist() == [candidate]
        start = stream - stream % 8  # one block of 8 rows
        for got in (indices(plan, n, start, start + 8),
                    paired_draw(plan, n, start, start + 8)):
            for row in range(8):
                assert_array_equal(lane(got, row), numpy_draw(0, start + row, n, m, WITH_REPLACEMENT))


@pytest.mark.parametrize("mode", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_critical_value_is_the_quantile_of_a_per_replicate_loop(mode):
    # the reference draws each replicate on its own generator and sums its
    # path alone; at these settings bootstrap replicates 10, 11, 15 and 18
    # each have a rejected candidate among their first m
    n = m = 50_000
    d, seed = 3, 0
    sample = sample_iid(two_sided_pareto(1.5), n, seed=5)
    plan = ResamplePlan(m=m, mode=mode, replications=21, level=0.9, seed=seed)
    x = trimmed_centered(sample, d)
    scale = trim(sample, d).sigma_hat * math.sqrt(m)
    stats = np.sort([
        cusum_path(x[numpy_draw(seed, b, n, m, mode)]).sup_abs / scale
        for b in range(plan.replications)
    ])
    # rank ceil(21 * 0.9) = 19; sqrt(21 * 0.9 * 0.1) = 1.37 puts the
    # spread's order statistics at ranks 17 and 21
    est = resampled_critical_value(sample, d, plan)
    assert (est.value, est.standard_error) == (stats[18], (stats[20] - stats[16]) / 2)
    assert (est.level, est.replications) == (0.9, 21)


@pytest.mark.parametrize("mode", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
def test_a_critical_value_holds_no_block_past_the_drawers_buffers(mode):
    # n = m = B = 1000, so a block is 16 rows of 1000 doubles.  The drawer's
    # buffers are the lanes and the sums, one block each, and for a bootstrap
    # also the raw words (half a block), the products and the indices; the
    # path step's products and moduli reuse the lanes.  With numpy 2.4 the
    # traced peaks were 655 KiB (bootstrap) and 295 KiB (permutation), 93 and
    # 45 KiB above the buffers; a product buffer of its own, one block more,
    # read 780 and 420 KiB
    n = m = 1000
    x = sample_iid(two_sided_pareto(1.5), n, seed=1)
    plan = ResamplePlan(m=m, mode=mode, replications=1000, seed=0)
    block = 2 * (resampling._BLOCK_ELEMS // (2 * m)) * m * 8
    buffers = block * (4.5 if mode == WITH_REPLACEMENT else 2)
    resampled_critical_value(x, 5, plan)  # the weights' cache and the generator
    tracemalloc.start()
    try:
        resampled_critical_value(x, 5, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers + block


_FAULT_PROBE = """
import resource
from trimcusum import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, ResamplePlan,
                       resampled_critical_value, sample_iid, two_sided_pareto)
x = sample_iid(two_sided_pareto(1.5), 1000, seed=1)
plans = [ResamplePlan(m=1000, mode=mode, replications=1000, seed=seed)
         for mode in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT) for seed in range(10)]
for plan in plans[::10]:
    resampled_critical_value(x, 5, plan)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for plan in plans:
    resampled_critical_value(x, 5, plan)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's allocator thresholds")
def test_repeated_critical_values_do_not_map_their_buffers_again():
    # a fresh interpreter, so other tests' heap does not count.  On a 2-vCPU
    # Linux host with glibc, 20 calls at n = m = B = 1000 (both modes, after
    # one warm-up each) took 78-79 minor faults with every buffer of a call
    # carved from one allocation, and 770 with the drawer's buffers allocated
    # apart, each under glibc's 128 KiB mmap threshold, as the heap is then
    # trimmed and grown back call after call
    package_root = str(Path(resampling.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert int(result.stdout) < 300
