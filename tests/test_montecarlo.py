import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from trimcusum import (
    ChangeSpec,
    DegenerateSampleError,
    DiagnosticSummary,
    GapSummary,
    PowerSpec,
    SimulationSpec,
    centered_gap_process,
    centering_normality_diagnostic,
    centering_scale,
    critical_value_table,
    cusum_path,
    default_trim_depth,
    empirical_quantile,
    gaussian,
    generate_null,
    mean_shift,
    null_statistics,
    one_sided_pareto,
    power_curve,
    rejection_rate,
    sample_substream,
    size_under_finite_variance,
    sup_bridge_quantile,
    tail_survival_inv,
    test_statistic as trimmed_statistic,
    trim,
    trim_truncation_divergence,
    truncated_sum_scale,
    two_sided_pareto,
)
import trimcusum.montecarlo as montecarlo
from trimcusum import cli
from trimcusum.heavy_tail_models import ONE_SIDED_PARETO
from trimcusum.montecarlo import _sample_block, _statistics
from trimcusum.trimmed_cusum import _trim_rows

MODEL = two_sided_pareto(1.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(MODEL, n=3, replications=10)
    with pytest.raises(ValueError):
        SimulationSpec(MODEL, n=100, replications=0)
    with pytest.raises(ValueError):
        SimulationSpec(MODEL, n=100, replications=10, level=1.0)
    with pytest.raises(ValueError):
        SimulationSpec(MODEL, n=100, replications=10, d=100)
    spec = SimulationSpec(MODEL, n=100, replications=10)
    assert spec.trim_depth == 3
    assert SimulationSpec(MODEL, n=100, replications=10, d=5).trim_depth == 5


SPEC_INTEGERS = {"n": 100, "replications": 50, "master_seed": 7, "d": 3}
NOT_INTEGERS = [float, lambda v: v + 0.5, str]


@pytest.mark.parametrize("field", sorted(SPEC_INTEGERS))
@pytest.mark.parametrize("convert", NOT_INTEGERS)
def test_spec_rejects_a_non_integer_field_by_name(field, convert):
    fields = dict(SPEC_INTEGERS, **{field: convert(SPEC_INTEGERS[field])})
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        SimulationSpec(MODEL, **fields)


@pytest.mark.parametrize("field", sorted(SPEC_INTEGERS))
def test_spec_takes_numpy_integers_as_ints(field):
    spec = SimulationSpec(MODEL, **dict(SPEC_INTEGERS, **{field: np.int64(SPEC_INTEGERS[field])}))
    assert spec == SimulationSpec(MODEL, **SPEC_INTEGERS)
    assert type(getattr(spec, field)) is int


@pytest.mark.parametrize("convert", NOT_INTEGERS)
def test_table_rejects_a_non_integer_size_by_name(convert):
    # a size of 100.5 used to give a row labelled 100.5 computed at n = 100
    spec = SimulationSpec(MODEL, n=100, replications=50)
    with pytest.raises(ValueError, match=r"^n_list entry must be an integer, got "):
        critical_value_table(spec, [40, convert(100)])


@pytest.mark.parametrize("workers", [2.5, "2", 1.0])
def test_every_entry_point_rejects_a_non_integer_workers_by_name(workers):
    # the check must not depend on whether a pool starts (2000 replicates)
    # or the run is one job (50)
    small = SimulationSpec(MODEL, n=100, replications=50)
    pspec = PowerSpec(base=small, change_at=50, critical_value=1.3, shift_grid=(0.0,))
    runs = [
        lambda: null_statistics(small, workers),
        lambda: null_statistics(replace(small, replications=2000), workers),
        lambda: critical_value_table(small, [40, 100], workers),
        lambda: power_curve(pspec, workers),
        lambda: montecarlo._diagnostics(one_sided_pareto(1.5), 100, 3, 5, workers=workers),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=rf"^workers must be an integer, got {workers!r}$"):
            run()


@pytest.mark.parametrize("field", ["n", "d", "reps", "seed"])
@pytest.mark.parametrize(
    "diagnostic", [centering_normality_diagnostic, trim_truncation_divergence]
)
def test_diagnostics_reject_a_non_integer_argument_by_name(diagnostic, field):
    args = {"n": 200, "d": 3, "reps": 5, "seed": 2}
    args[field] += 0.5 if field == "n" else 0.0
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        diagnostic(one_sided_pareto(1.5), **args)


BOOLS = [True, False, np.True_, np.False_]


@pytest.mark.parametrize("flag", BOOLS)
def test_spec_rejects_a_bool_seed_by_name(flag):
    # a Python bool is an int: master_seed=True used to run seed 1
    with pytest.raises(ValueError, match=rf"^master_seed must be an integer, got {flag!r}$"):
        SimulationSpec(MODEL, n=100, replications=50, master_seed=flag)


@pytest.mark.parametrize("flag", BOOLS)
def test_null_statistics_reject_a_bool_workers_by_name(flag):
    # workers=True used to run one worker
    spec = SimulationSpec(MODEL, n=100, replications=50)
    with pytest.raises(ValueError, match=rf"^workers must be an integer, got {flag!r}$"):
        null_statistics(spec, flag)


def test_diagnostics_take_numpy_integers_as_ints():
    model = one_sided_pareto(1.5)
    assert trim_truncation_divergence(
        model, np.int64(200), np.int32(3), np.int64(5), np.int64(2)
    ) == trim_truncation_divergence(model, 200, 3, 5, 2)


def test_table_takes_numpy_integer_sizes():
    spec = SimulationSpec(MODEL, n=40, replications=50, master_seed=3)
    assert critical_value_table(spec, [np.int64(80), np.int32(40)]) == critical_value_table(
        spec, [80, 40]
    )


def test_change_spec_validation():
    ChangeSpec(breaks=((10, 1.0), (20, -1.0)))
    with pytest.raises(ValueError):
        ChangeSpec(breaks=())
    with pytest.raises(ValueError):
        ChangeSpec(breaks=((10, 0.0),))  # first level must differ from zero
    with pytest.raises(ValueError):
        ChangeSpec(breaks=((10, 1.0), (20, 1.0)))
    with pytest.raises(ValueError):
        ChangeSpec(breaks=((20, 1.0), (10, 2.0)))
    with pytest.raises(ValueError):
        ChangeSpec(breaks=((0, 1.0),))
    with pytest.raises(ValueError):
        ChangeSpec(breaks=((30, 1.0),)).shift_vector(30)


def test_generate_null_deterministic():
    spec = SimulationSpec(MODEL, n=50, replications=5, master_seed=7)
    a = generate_null(spec, 2)
    b = generate_null(spec, 2)
    assert_array_equal(a, b)
    assert a.size == 50
    assert not np.array_equal(a, generate_null(spec, 3))
    with pytest.raises(ValueError):
        generate_null(spec, 5)


def test_generate_null_matches_substream():
    spec = SimulationSpec(MODEL, n=64, replications=4, master_seed=99)
    for r in range(4):
        assert_array_equal(generate_null(spec, r), sample_substream(MODEL, 64, 99, r))


def test_shifted_null_segments():
    spec = SimulationSpec(MODEL, n=30, replications=3, master_seed=1)
    change = ChangeSpec(breaks=((10, 1.0), (20, -1.0)))
    errors = generate_null(spec, 0)
    x = generate_null(spec, 0) + change.shift_vector(spec.n)
    assert_array_equal(x[:10], errors[:10])
    assert_array_equal(x[10:20], errors[10:20] + 1.0)
    assert_array_equal(x[20:], errors[20:] - 1.0)


def test_shifted_null_mean_difference():
    # one change of size 2 at n/2: difference of half-sample trimmed means is
    # close to 2 (trimmed means because the errors have infinite variance)
    n = 10_000
    spec = SimulationSpec(MODEL, n=n, replications=2, master_seed=0)
    x = generate_null(spec, 0) + ChangeSpec(breaks=((n // 2, 2.0),)).shift_vector(n)
    half_d = default_trim_depth(n // 2)
    first = trim(x[: n // 2], half_d).trimmed_mean
    second = trim(x[n // 2 :], half_d).trimmed_mean
    assert second - first == pytest.approx(2.0, abs=0.15)


def test_batch_statistics_match_scalar_path():
    spec = SimulationSpec(MODEL, n=73, replications=50, master_seed=13)
    d = spec.trim_depth
    block = _sample_block(MODEL, spec.n, spec.master_seed, 0, spec.replications)
    batch = _trim_rows(block, d).statistics()
    scalar = np.array([trimmed_statistic(generate_null(spec, r), d) for r in range(50)])
    assert_array_equal(batch, scalar)
    assert_array_equal(null_statistics(spec), scalar)


@pytest.mark.parametrize(
    "model", [two_sided_pareto(1.3, p=0.3), one_sided_pareto(0.8), gaussian()],
    ids=["two_sided", "one_sided", "gaussian"],
)
def test_sample_block_rows_are_the_substream_samples(model):
    # both samplers draw through one routine: row i of a block is the sample
    # of stream start + i bit for bit, for every family's inverse CDF
    seed, start, count, n = 17, 2**70 + 5, 4, 61
    block = _sample_block(model, n, seed, start, count)
    assert block.shape == (count, n)
    for i in range(count):
        assert_array_equal(block[i], sample_substream(model, n, seed, start + i))


@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_that_do_not_divide_the_replicates_match_the_replicate_loop(
    monkeypatch, workers
):
    # 7-row blocks: 100 replicates end in a 2-row block
    spec = SimulationSpec(MODEL, n=50, replications=100, master_seed=31)
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", 7 * spec.n)
    d = spec.trim_depth
    nulls = [generate_null(spec, r) for r in range(spec.replications)]
    scalar = np.array([trimmed_statistic(x, d) for x in nulls])
    assert_array_equal(null_statistics(spec, workers), scalar)

    grid, crit = (-1.5, 0.0, 0.7), 1.2
    pspec = PowerSpec(base=spec, change_at=20, critical_value=crit, shift_grid=grid)
    assert power_curve(pspec, workers) == power_by_replicate(spec, 20, grid, crit)


LONG_N = 20_000  # above 2**14, so its sample blocks hold one row


BLOCK_SPEC = SimulationSpec(MODEL, n=60, replications=1500, master_seed=8)
# unsorted, with a duplicate, and with a row longer than 2**14
TABLE_N = [80, 20, 80, LONG_N]


def block_results(workers):
    """Every Monte Carlo entry point on short rows (6 blocks of 2**14 values,
    the last partial) and on rows longer than 2**14."""
    spec = BLOCK_SPEC
    pspec = PowerSpec(base=spec, change_at=30, critical_value=1.2, shift_grid=(-1.0, 0.0, 0.5))
    long = SimulationSpec(one_sided_pareto(1.5), n=LONG_N, replications=7, master_seed=3)
    d = long.trim_depth
    return (
        null_statistics(spec, workers),
        power_curve(pspec, workers),
        null_statistics(long, workers),
        centering_normality_diagnostic(long.model, LONG_N, d, 7, seed=3, workers=workers),
        trim_truncation_divergence(long.model, LONG_N, d, 7, seed=3, workers=workers),
        critical_value_table(spec, TABLE_N, workers),
    )


@pytest.fixture(scope="module")
def default_block_results():
    return block_results(1)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "block_elems, job_blocks",
    # 3 * LONG_N: long rows get blocks of three rows
    [(1 << 14, 4), (1 << 13, 4), (1 << 22, 4), (3 * LONG_N, 4), (1 << 14, 1), (1 << 14, 3)],
)
def test_results_do_not_depend_on_block_size_or_workers(
    monkeypatch, default_block_results, workers, block_elems, job_blocks
):
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(montecarlo, "_JOB_BLOCKS", job_blocks)
    nulls, power, long_nulls, centering, gaps, table = block_results(workers)
    assert_array_equal(nulls, default_block_results[0])
    assert power == default_block_results[1]
    assert_array_equal(long_nulls, default_block_results[2])
    assert centering == default_block_results[3]
    assert gaps == default_block_results[4]
    assert table == default_block_results[5]


def test_table_rows_are_the_quantiles_of_each_n_alone(default_block_results):
    # each n reads the prefix of a draw at the largest n, which must give the
    # statistics that n's own run draws
    table = default_block_results[5]
    assert [n for n, _ in table] == [float(n) for n in TABLE_N] + [math.inf]
    for (_, cv), n in zip(table, TABLE_N):
        stats = null_statistics(replace(BLOCK_SPEC, n=n))
        assert cv == empirical_quantile(stats, BLOCK_SPEC.level)


def test_partial_sums_past_the_float_range_give_the_scaled_statistic():
    # the pairwise sum of the row is 0.0, but its running sum overflows at k = 2
    row = np.zeros(16)
    row[[0, 1]], row[[8, 9]] = 1e308, -1e308
    x = np.vstack([row, row[::-1]])
    stats = _statistics(x, 1, 0, 0)
    assert np.all(np.isfinite(stats))
    assert_array_equal(stats, _statistics(np.ldexp(x, -1000), 1, 0, 0))


def test_overflowing_rows_in_paired_lanes_give_the_one_sample_sups():
    # the path step sums rows 2i and 2i + 1 as the two lanes of one pair and
    # an odd last row beside a zero lane; here row 1 (the second lane of a
    # pair) and row 4 (the unpaired last row) have partial sums past the
    # float range, so the fallback sums them again at 2**-e, next to rows
    # that need no fallback
    row = np.zeros(16)
    row[[0, 1]], row[[8, 9]] = 1e308, -1e308
    x = np.random.default_rng(5).standard_cauchy((5, 16))
    x[1], x[4] = row, -row[::-1]
    with np.errstate(over="ignore"):
        assert [np.isinf(np.cumsum(v)).any() for v in x] == [False, True, False, False, True]
    stats = _statistics(x, 1, 0, 0)
    assert_array_equal(stats, [trimmed_statistic(v, 1) for v in x])
    assert_array_equal(stats, _statistics(np.ldexp(x, -1000), 1, 0, 0))
    rows = _trim_rows(x, 1)
    for i, e in enumerate(rows.exponent):
        assert rows.scaled_sup[i] == cusum_path(np.ldexp(rows.values[i], -e)).sup_abs
        with np.errstate(over="ignore"):  # the overflowing rows' sups are inf unscaled
            assert np.ldexp(rows.scaled_sup[i], e) == cusum_path(rows.values[i]).sup_abs
    assert np.all(np.isfinite(rows.scaled_sup))


def test_overflowing_draws_raise_instead_of_nan():
    # alpha = 0.01 draws overflow to inf, so the trimmed sum of squares is NaN
    spec = SimulationSpec(two_sided_pareto(0.01), n=100_000, replications=4)
    named = r"replicate 0 \(master seed 0, n=100000, d=31\)"
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateSampleError, match=named):
            null_statistics(spec)
        with pytest.raises(DegenerateSampleError):
            rejection_rate(spec, 1.3)


def test_fewer_than_d_overflowed_draws_give_statistics_without_a_warning():
    # at alpha = 0.01 a draw overflows with probability 8.3e-4, so about one
    # row in six holds an inf draw; the trim removes it, and the inverse CDF's
    # expected overflow must not escape as a RuntimeWarning
    spec = SimulationSpec(two_sided_pareto(0.01), 200, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isinf(_sample_block(spec.model, spec.n, 0, 0, 2000)).any(axis=1).sum() > 100
        stats = null_statistics(spec)
        assert np.all(np.isfinite(stats))
        # at d = 2 some row holds two overflowed draws, so it has no statistic
        with pytest.raises(DegenerateSampleError, match=r"master seed 0, n=200, d=2\)"):
            null_statistics(replace(spec, d=2))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_list", [[400, 200], [200, 400]])
def test_table_raises_the_error_of_the_first_n_in_list_order(workers, n_list):
    # at d = 2 both sizes have replicates with two overflowed draws; the
    # table names the one the per-n loop would meet first
    spec = SimulationSpec(two_sided_pareto(0.01), 200, 2000, d=2)
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateSampleError) as first:
            null_statistics(replace(spec, n=n_list[0]))
        with pytest.raises(DegenerateSampleError) as raised:
            critical_value_table(spec, n_list, workers)
    assert f"n={n_list[0]}, d=2)" in str(first.value)
    assert str(raised.value) == str(first.value)


def counting_jobs(monkeypatch):
    starts = []
    job = montecarlo._job

    def counted(start, *args):
        starts.append(start)
        return job(start, *args)

    monkeypatch.setattr(montecarlo, "_job", counted)
    return starts


def test_serial_run_stops_at_the_job_with_the_error_it_raises(monkeypatch):
    # replicate 4 has two overflowed draws, so the first of the seven jobs
    # (324 rows at n = 200) holds the error; the others need not run
    starts = counting_jobs(monkeypatch)
    spec = SimulationSpec(two_sided_pareto(0.01), 200, 2000, d=2)
    with np.errstate(all="ignore"):
        with pytest.raises(DegenerateSampleError, match=r"^replicate 4 \(master seed 0, n=200,"):
            null_statistics(spec)
    assert starts == [0]


def test_serial_run_goes_on_past_an_error_of_a_later_size(monkeypatch):
    # jobs are 160 rows of n = 400; the first size in the caller's order,
    # 400, fails only at replicate 350 (the third job), and 100 already in
    # the first job, whose error is not the one raised
    def measure(x, d, seed, start):
        bad = {100: 0, 400: 350}[x.shape[1]]
        if start <= bad < start + x.shape[0]:
            raise DegenerateSampleError(f"replicate {bad} at n={x.shape[1]}")
        return x.shape[0]

    starts = counting_jobs(monkeypatch)
    with pytest.raises(DegenerateSampleError, match=r"^replicate 350 at n=400$"):
        montecarlo._run_jobs(measure, 1, gaussian(), {400: 2, 100: 2}, 0, 1000)
    assert starts == [0, 160, 320]


def test_a_job_stops_at_its_first_size_with_an_error(monkeypatch):
    # one job of 160 rows at n = 400; replicate 5 has no result at 400, the
    # first size in the caller's order, so the job never measures n = 100
    measured = []

    def measure(x, d, seed, start):
        measured.append(x.shape[1])
        if start <= 5 < start + x.shape[0] and x.shape[1] == 400:
            raise DegenerateSampleError("replicate 5 at n=400")
        return x.shape[0]

    starts = counting_jobs(monkeypatch)
    with pytest.raises(DegenerateSampleError, match=r"^replicate 5 at n=400$"):
        montecarlo._run_jobs(measure, 1, gaussian(), {400: 2, 100: 2}, 0, 1000)
    assert starts == [0]
    assert measured == [400]


def test_a_worker_count_below_one_is_rejected():
    spec = SimulationSpec(MODEL, 100, 10)
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        null_statistics(spec, 0)


def test_a_pool_holds_no_more_processes_than_jobs(monkeypatch):
    # 2000 replicates at n = 100 are four jobs: a pool of 64 would fork 64
    # processes at its first submit.  The stand-in pool maps in this process
    # and starts none
    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            pools.append((self.max_workers, chunksize))
            return map(fn, iterable)

    starts = counting_jobs(monkeypatch)
    spec = SimulationSpec(MODEL, 100, 2000)
    serial = null_statistics(spec)
    assert len(starts) == 4
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    assert_array_equal(null_statistics(spec, 64), serial)
    assert pools == [(4, 1)]
    assert len(starts) == 8


def test_table_memory_stays_within_a_few_sample_blocks():
    # a table job draws its replicates once, at the largest n, into one array
    # (80 x 800 doubles here, 500 KB, four sample blocks), and each n sends it
    # to the kernel in slices of at most one sample block of that n, not whole
    # (about 2 MB with its temporaries)
    spec = SimulationSpec(MODEL, 100, 2000)
    n_list = [100, 200, 400, 800]
    critical_value_table(spec, n_list)  # warm-up
    tracemalloc.start()
    try:
        critical_value_table(spec, n_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# A table's short rows, and diagnose's long rows (4 rows of 1e5 a job, 3.2 MB).
# Power is left out: _power_job copies its sample block, which puts it about
# 534 KB over a 512 KB staging array at n = 400.
STAGED_RUNS = {
    "table": lambda: critical_value_table(
        SimulationSpec(MODEL, 100, 2000), [100, 200, 400, 800]
    ),
    "diagnose": lambda: montecarlo._diagnostics(one_sided_pareto(1.5), 100_000, 31, 8),
}


@pytest.mark.parametrize("run", sorted(STAGED_RUNS))
def test_job_temporaries_stay_below_its_staging_array(monkeypatch, run):
    # glibc trims the top of its heap once the free space there reaches twice
    # the largest mapped chunk it has freed, here a job's staging array; while
    # a job's other temporaries stay below that array, the heap is never
    # trimmed and grown again, page by page, between jobs
    job, peaks = montecarlo._job, []

    def traced_job(start, count, model, sizes, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = job(start, count, model, sizes, *args)
        peaks.append((count * max(sizes) * 8, tracemalloc.get_traced_memory()[1] - before))
        return result

    monkeypatch.setattr(montecarlo, "_job", traced_job)
    STAGED_RUNS[run]()  # warm-up
    peaks.clear()
    tracemalloc.start()
    try:
        STAGED_RUNS[run]()
    finally:
        tracemalloc.stop()
    assert peaks
    for staging, peak in peaks:
        assert peak - staging < staging


def test_zero_variance_replicate_is_named():
    x = np.vstack([np.arange(10.0), np.full(10, 2.0)])
    with pytest.raises(DegenerateSampleError, match=r"replicate 8 \(master seed 5, n=10, d=2\)"):
        _statistics(x, 2, seed=5, start=7)


def test_power_error_names_the_shift_and_prints_a_plain_float():
    # at alpha = 0.01 draws overflow to inf, so replicate 4 has no statistic at the
    # first shift: two of its draws are past the float range, and that cause is
    # named.  A sum of squares is printed where it is the cause, and must read
    # the same under numpy 1.x and 2.x
    base = SimulationSpec(two_sided_pareto(0.01), 200, 500, d=2)
    spec = PowerSpec(base, change_at=100, critical_value=sup_bridge_quantile(0.95))
    with pytest.raises(DegenerateSampleError) as err:
        power_curve(spec)
    message = str(err.value)
    assert "replicate 4 (master seed 0, n=200, d=2)" in message
    assert "2 or more draws past the float range, so its trim threshold is inf" in message
    assert "shift -3.0" in message
    flat = np.ones((3, 10))
    flat[0] = np.arange(10)
    with pytest.raises(DegenerateSampleError, match=r"^replicate 8 .* sum of squares 0\.0, so"):
        _statistics(flat, 2, 0, 7)


def test_null_statistics_deterministic_and_batch_invariant():
    spec = SimulationSpec(MODEL, n=40, replications=300, master_seed=5)
    a = null_statistics(spec)
    b = null_statistics(spec)
    assert_array_equal(a, b)
    assert a.size == 300


def test_workers_bit_identical():
    spec = SimulationSpec(MODEL, n=64, replications=600, master_seed=21)
    stats1 = null_statistics(spec, workers=1)
    stats2 = null_statistics(spec, workers=2)
    assert_array_equal(stats1, stats2)


def test_critical_value_table_shape_and_membership():
    spec = SimulationSpec(MODEL, n=40, replications=200, master_seed=3)
    rows = critical_value_table(spec, [40, 80])
    assert [n for n, _ in rows] == [40.0, 80.0, math.inf]
    assert rows[-1][1] == pytest.approx(sup_bridge_quantile(0.95), abs=1e-12)
    for n, cv in rows[:-1]:
        sub = SimulationSpec(MODEL, n=int(n), replications=200, master_seed=3)
        stats = null_statistics(sub)
        assert cv in stats  # quantile is an element of the simulated multiset


def test_critical_value_table_single_replicate():
    spec = SimulationSpec(MODEL, n=40, replications=1, master_seed=2)
    rows = critical_value_table(spec, [40])
    stats = null_statistics(spec)
    assert rows[0][1] == stats[0]


def test_rejection_rate_bounds():
    spec = SimulationSpec(MODEL, n=40, replications=400, master_seed=0)
    for crit in (0.1, 1.3, 10.0):
        rate = rejection_rate(spec, crit)
        assert 0.0 <= rate <= 1.0
    assert rejection_rate(spec, 1e9) == 0.0


@pytest.mark.parametrize("crit", [math.nan, 0.0, -1.0])
def test_rejection_rate_rejects_a_critical_value_power_rejects(crit):
    # a NaN critical value used to give a rate of 0.0
    spec = SimulationSpec(MODEL, n=40, replications=50)
    with pytest.raises(ValueError, match="^critical_value must be positive$"):
        rejection_rate(spec, crit)
    with pytest.raises(ValueError, match="^critical_value must be positive$"):
        PowerSpec(base=spec, change_at=20, critical_value=crit)


def test_power_curve_zero_shift_equals_null_rate():
    # the c = 0 grid point embeds the no-change model on the same streams
    spec = SimulationSpec(MODEL, n=60, replications=500, master_seed=8)
    pspec = PowerSpec(base=spec, change_at=30, critical_value=1.3, shift_grid=(0.0, 2.0))
    points = power_curve(pspec)
    assert points[0][0] == 0.0
    assert points[0][1] == rejection_rate(spec, 1.3)
    assert points[1][1] > points[0][1]
    for _, rate in points:
        assert 0.0 <= rate <= 1.0


def test_power_curve_workers_bit_identical():
    spec = SimulationSpec(MODEL, n=50, replications=400, master_seed=4)
    pspec = PowerSpec(base=spec, change_at=25, critical_value=1.3, shift_grid=(-2.0, 0.0, 2.0))
    assert power_curve(pspec, workers=1) == power_curve(pspec, workers=2)


EDGE_SPEC = SimulationSpec(MODEL, n=60, replications=300, master_seed=12)
EDGE_GRID = (-2.0, -0.5, 0.0, 1.0, 2.5)


def power_by_replicate(spec, change_at, grid, crit, sample=generate_null):
    """The power curve from one replicate at a time: its null draw, shifted
    after `change_at`, rejects when its statistic exceeds `crit`."""
    d = spec.trim_depth
    nulls = [sample(spec, r) for r in range(spec.replications)]
    curve = []
    for shift in grid:
        rejections = 0
        for x in nulls:
            shifted = x.copy()
            shifted[change_at:] += shift
            rejections += trimmed_statistic(shifted, d) > crit
        curve.append((shift, rejections / spec.replications))
    return curve


EDGE_CHANGES = {
    "1": lambda n, d: 1,
    "d": lambda n, d: d,
    "n-d": lambda n, d: n - d,
    "n-1": lambda n, d: n - 1,
}


@pytest.mark.parametrize("change", EDGE_CHANGES.values(), ids=EDGE_CHANGES.keys())
def test_power_curve_at_the_edge_change_locations_matches_the_replicate_loop(change):
    # a change after the first value, after the last, and at the trim depth
    # from either end: one segment then holds fewer than 2d values
    spec = EDGE_SPEC
    change_at = change(spec.n, spec.trim_depth)
    pspec = PowerSpec(base=spec, change_at=change_at, critical_value=1.2, shift_grid=EDGE_GRID)
    assert power_curve(pspec) == power_by_replicate(spec, change_at, EDGE_GRID, 1.2)


def test_power_curve_on_tied_moduli_matches_the_replicate_loop(monkeypatch):
    # draws rounded to integers, shifted by integers and halves: moduli tie
    # within a segment and across the change, at the trim threshold of more
    # than a quarter of the rows too, where the inclusive rule keeps them all
    spec = EDGE_SPEC
    sample_block = montecarlo._sample_block

    def rounded_block(*args, out):
        return np.round(sample_block(*args, out=out), out=out)

    def rounded_null(spec, replicate):
        return np.round(generate_null(spec, replicate))

    monkeypatch.setattr(montecarlo, "_sample_block", rounded_block)
    ties = 0
    for r in range(spec.replications):
        moduli = np.sort(np.abs(rounded_null(spec, r)))
        ties += moduli[-spec.trim_depth] == moduli[-spec.trim_depth - 1]
    assert ties > spec.replications // 4
    for change_at in (1, 30, spec.n - 1):
        pspec = PowerSpec(base=spec, change_at=change_at, critical_value=1.2, shift_grid=EDGE_GRID)
        expected = power_by_replicate(spec, change_at, EDGE_GRID, 1.2, sample=rounded_null)
        assert power_curve(pspec) == expected


def test_power_spec_validation():
    spec = SimulationSpec(MODEL, n=60, replications=10)
    with pytest.raises(ValueError):
        PowerSpec(base=spec, change_at=0, critical_value=1.3)
    with pytest.raises(ValueError):
        PowerSpec(base=spec, change_at=60, critical_value=1.3)
    with pytest.raises(ValueError):
        PowerSpec(base=spec, change_at=30, critical_value=0.0)
    with pytest.raises(ValueError):
        PowerSpec(base=spec, change_at=30, critical_value=1.3, shift_grid=())
    with pytest.raises(ValueError, match=r"^change_at must be an integer, got 30.0$"):
        PowerSpec(base=spec, change_at=30.0, critical_value=1.3)
    pspec = PowerSpec(base=spec, change_at=np.int64(30), critical_value=1.3)
    assert type(pspec.change_at) is int


@pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
def test_power_spec_rejects_a_non_finite_shift_by_value(shift):
    # such a shift used to surface as a DegenerateSampleError blaming
    # replicate 0 of the sample
    spec = SimulationSpec(MODEL, n=60, replications=10)
    with pytest.raises(ValueError, match=rf"^shift_grid entries must be finite, got {shift}$"):
        PowerSpec(base=spec, change_at=30, critical_value=1.3, shift_grid=(0.5, shift))


def test_size_under_finite_variance_smoke():
    rate = size_under_finite_variance(100, 400, level=0.95, seed=6)
    assert 0.0 <= rate <= 0.2


def test_centering_diagnostic_smoke():
    one = one_sided_pareto(1.5)
    single = centering_normality_diagnostic(one, 1000, 7, reps=1, seed=0)
    assert single.variance is None
    summary = centering_normality_diagnostic(one, 1000, 7, reps=200, seed=0)
    again = centering_normality_diagnostic(one, 1000, 7, reps=200, seed=0)
    assert summary == again
    assert abs(summary.mean) < 1.0
    assert summary.variance is not None and 0.2 < summary.variance < 3.0
    assert 0.0 < summary.ks_to_normal < 0.5
    with pytest.raises(ValueError, match="trim depth"):
        centering_normality_diagnostic(one, 0, 2, reps=3)


def test_trim_truncation_divergence_smoke():
    one = one_sided_pareto(1.5)
    gaps = trim_truncation_divergence(one, 1000, 7, reps=100, seed=0)
    again = trim_truncation_divergence(one, 1000, 7, reps=100, seed=0)
    assert gaps == again
    assert gaps.centered_median > 0.0
    assert gaps.uncentered_median > 0.0


@pytest.mark.parametrize(
    "model",
    [one_sided_pareto(0.7), one_sided_pareto(1.5), two_sided_pareto(1.5, 0.8)],
    ids=["one-sided-0.7", "one-sided-1.5", "two-sided-p0.8"],
)
def test_diagnostics_equal_the_one_sample_definitions(model):
    # each replicate drawn, trimmed and measured on its own, from the public
    # one-sample functions; rows longer than 2**14 are sample blocks of one row
    n, reps, seed = LONG_N, 9, 5
    d = default_trim_depth(n)
    samples = [sample_substream(model, n, seed, r) for r in range(reps)]
    # the thresholds go to mean_shift as one 1-d array, as the pass does: a
    # 0-d operand gets numpy's scalar pow, which rounds differently
    shifts = mean_shift(model, np.array([trim(x, d).threshold for x in samples]), d, n)
    threshold = tail_survival_inv(model, d / n)
    scale = truncated_sum_scale(model, d, n)
    centered = [centered_gap_process(x, d, threshold, c) / scale for x, c in zip(samples, shifts)]
    uncentered = [centered_gap_process(x, d, threshold, 0.0) / scale for x in samples]
    gaps = GapSummary(float(np.median(centered)), float(np.median(uncentered)))
    assert trim_truncation_divergence(model, n, d, reps, seed) == gaps
    if model.family == ONE_SIDED_PARETO:
        vals = n * shifts / centering_scale(model, d, n)
        expected = DiagnosticSummary(
            float(np.mean(vals)), float(np.var(vals, ddof=1)),
            montecarlo._ks_to_standard_normal(vals),
        )
        assert centering_normality_diagnostic(model, n, d, reps, seed) == expected


def test_diagnose_is_one_pass_with_the_summaries_of_each_function_alone(monkeypatch, capsys):
    # the CLI draws and trims each replicate once, in one pool, and reports
    # what the two public functions report when each is called alone
    pools = []
    run_jobs = montecarlo._run_jobs

    def counted(job, *args):
        pools.append(job)
        return run_jobs(job, *args)

    monkeypatch.setattr(montecarlo, "_run_jobs", counted)
    assert cli.main(["diagnose", "--n", "2000", "--reps", "30", "--seed", "4", "--workers", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(pools) == 1
    model, d = one_sided_pareto(1.5), default_trim_depth(2000)
    summary = centering_normality_diagnostic(model, 2000, d, 30, seed=4)
    gaps = trim_truncation_divergence(model, 2000, d, 30, seed=4)
    assert montecarlo._diagnostics(model, 2000, d, 30, 4, 2) == (summary, gaps)
    assert doc["centering"] == {
        "mean": cli._sig6(summary.mean),
        "variance": cli._sig6(summary.variance),
        "ks_to_normal": cli._sig6(summary.ks_to_normal),
    }
    assert doc["gap_medians"] == {
        "centered": cli._sig6(gaps.centered_median),
        "uncentered": cli._sig6(gaps.uncentered_median),
    }


def test_a_missing_normal_law_fails_the_centering_summary_before_any_draw(monkeypatch):
    # the KS distance to N(0, 1) takes the normal law from scipy; without it
    # the centering summary fails before the pass, and the gap summary, which
    # needs no normal law, is what it is with scipy
    model, n, d = one_sided_pareto(1.5), 2000, default_trim_depth(2000)
    gaps = trim_truncation_divergence(model, n, d, 20, seed=4)

    def missing():
        raise ModuleNotFoundError("No module named 'scipy'")

    pools = []
    run_jobs = montecarlo._run_jobs

    def counted(job, *args):
        pools.append(job)
        return run_jobs(job, *args)

    monkeypatch.setattr(montecarlo, "_normal", missing)
    monkeypatch.setattr(montecarlo, "_run_jobs", counted)
    with pytest.raises(ModuleNotFoundError):
        centering_normality_diagnostic(model, n, d, 20, seed=4)
    assert pools == []
    assert trim_truncation_divergence(model, n, d, 20, seed=4) == gaps
    assert len(pools) == 1


def test_overflowed_draws_beyond_both_thresholds_give_finite_gaps():
    # at alpha = 0.02 four replicates each hold one draw past the float range;
    # it lies beyond both thresholds, so its gap term is 0, not inf * 0 = NaN.
    # The truncated-sum scale, 2.7e175 * 0.55, must not overflow in its square
    model, n, d, reps = one_sided_pareto(0.02), 100_000, 31, 60
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        overflowed = np.isinf(_sample_block(model, n, 0, 0, reps)).any(axis=1)
        assert np.flatnonzero(overflowed).tolist() == [20, 29, 56, 57]
        gaps = trim_truncation_divergence(model, n, d, reps)
    assert 0.0 < gaps.centered_median < math.inf
    assert 0.0 < gaps.uncentered_median < math.inf


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_with_an_infinite_trim_threshold_are_named(workers):
    # at d = 2 replicate 0 holds two draws past the float range, so its trim
    # threshold is inf; the pass names it before any inf arithmetic warns
    model = one_sided_pareto(0.01)
    named = r"^replicate 0 \(master seed 0, n=1000, d=2\) has 2 or more draws past"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for diagnostic in (centering_normality_diagnostic, trim_truncation_divergence):
            with pytest.raises(DegenerateSampleError, match=named):
                diagnostic(model, 1000, 2, 50, workers=workers)


def test_a_centering_only_pass_forms_no_gap_term(monkeypatch):
    # the centering summary needs each row's trim threshold alone: its pass
    # takes no gap term and no sup, gives the summary of the pass that takes
    # both, and still names a replicate whose trim threshold is inf
    model, n, d = one_sided_pareto(1.5), 2000, default_trim_depth(2000)
    both = montecarlo._diagnostics(model, n, d, 30, 4)

    def unwanted(*args):
        raise AssertionError("a gap term was formed")

    monkeypatch.setattr(montecarlo, "_gap_terms", unwanted)
    monkeypatch.setattr(montecarlo, "_gap_sup", unwanted)
    assert montecarlo._diagnostics(model, n, d, 30, 4, gaps=False) == (both[0], None)
    assert centering_normality_diagnostic(model, n, d, 30, seed=4) == both[0]
    overflowed = montecarlo._overflow_error(0, 0, 1000, 2, "diagnostic")
    with pytest.raises(DegenerateSampleError) as err:
        centering_normality_diagnostic(one_sided_pareto(0.01), 1000, 2, 50)
    assert str(err.value) == str(overflowed)


def test_a_depth_threshold_past_the_float_range_is_a_named_value_error():
    # H^-1(31/1e5) = (31/1e5)**-100 - 1 passes the float range at alpha = 0.01
    model = one_sided_pareto(0.01)
    named = r"alpha=0\.01, d=31, n=100000"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for diagnostic in (centering_normality_diagnostic, trim_truncation_divergence):
            with pytest.raises(ValueError, match=named):
                diagnostic(model, 100_000, 31, 4)


def test_trim_truncation_divergence_symmetric_control():
    # with p = q the mean shift vanishes identically, so centered and
    # uncentered gaps coincide and the uncentered median shrinks overall
    # (the path across the floor(n**0.3) depth sequence is not monotone
    # through the middle point, so only the endpoints are compared)
    medians = []
    for n in (1000, 100_000):
        d = default_trim_depth(n)
        gaps = trim_truncation_divergence(MODEL, n, d, reps=200, seed=1)
        assert gaps.centered_median == pytest.approx(gaps.uncentered_median, rel=1e-12)
        medians.append(gaps.uncentered_median)
    assert medians[1] < medians[0]


def test_symmetric_uncentered_gap_far_below_asymmetric():
    # the asymmetric model's uncentered gap stays bounded away from zero
    # (random centering matters); the symmetric one's does not
    n, reps = 100_000, 200
    d = default_trim_depth(n)
    asymmetric = trim_truncation_divergence(one_sided_pareto(1.5), n, d, reps=reps, seed=1)
    symmetric = trim_truncation_divergence(MODEL, n, d, reps=reps, seed=1)
    assert symmetric.uncentered_median < asymmetric.uncentered_median - 0.05


def test_trim_trunc_gap_shrinks_with_n():
    # the sup distance between trimmed and truncated CUSUM paths is small
    # relative to the partial-sum scale, and shrinks as n grows
    from trimcusum import tail_survival_inv, trim_trunc_gap

    one = one_sided_pareto(1.5)
    reps = 300  # the decay is slow (d grows like n**0.3), so medians need depth
    medians = []
    for n in (1000, 10_000, 100_000):
        d = default_trim_depth(n)
        threshold = tail_survival_inv(one, d / n)
        scale = truncated_sum_scale(one, d, n)
        spec = SimulationSpec(one, n=n, replications=reps, master_seed=17)
        values = [
            trim_trunc_gap(generate_null(spec, r), d, threshold) / scale for r in range(reps)
        ]
        medians.append(float(np.median(values)))
    assert medians[0] > medians[1] > medians[2]


def test_estimator_scale_ratio_band():
    # sqrt(centered_sum_sq) over the deterministic scale: median across
    # replicates settles near 1, slowly; a coarse band at n = 1e5
    n, reps = 100_000, 200
    d = default_trim_depth(n)
    an = truncated_sum_scale(MODEL, d, n)
    spec = SimulationSpec(MODEL, n=n, replications=reps, master_seed=23)
    ratios = [
        math.sqrt(trim(generate_null(spec, r), d).centered_sum_sq) / an for r in range(reps)
    ]
    assert 0.8 <= float(np.median(ratios)) <= 1.25
