import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import trimcusum
from trimcusum import limit_dist, sup_bridge_cdf, sup_bridge_quantile


def test_cdf_at_zero_and_below():
    assert sup_bridge_cdf(0.0) == 0.0
    assert sup_bridge_cdf(-3.0) == 0.0


def test_cdf_series_value():
    # partial sums 0.6065307 - 0.1353353 + 0.0111090 - 0.0003355 + ...
    assert sup_bridge_cdf(0.5) == pytest.approx(0.0360548, abs=1e-6)


def test_cdf_at_tabulated_critical_value():
    assert sup_bridge_cdf(1.358) == pytest.approx(0.950, abs=1e-3)


def test_cdf_against_scipy_survival():
    # scipy.special.kolmogorov is the survival function of the same law.
    for x in np.concatenate([np.linspace(0.05, 0.35, 31), np.linspace(0.4, 3.0, 53)]):
        assert sup_bridge_cdf(float(x)) == pytest.approx(
            1.0 - scipy.special.kolmogorov(float(x)), abs=1e-10
        )


def test_cdf_strictly_increasing():
    grid = np.arange(0.30, 3.0001, 0.01)
    values = [sup_bridge_cdf(float(x)) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_quantile_tabulated_value():
    # the correctly rounded quantile at 0.95, which scipy's _kolmogci gives too
    assert sup_bridge_quantile(0.95) == 1.3580986393225505


def test_quantile_round_trip():
    for level in (0.5, 0.9, 0.99):
        assert sup_bridge_cdf(sup_bridge_quantile(level)) == pytest.approx(level, abs=1e-9)


def test_quantile_monotone():
    assert sup_bridge_quantile(0.90) < sup_bridge_quantile(0.95) < sup_bridge_quantile(0.99)


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            sup_bridge_quantile(bad)


@pytest.mark.parametrize(
    "level,reference",
    [
        (1e-16, 0.17674325659716230703),
        (1e-6, 0.27753935399861560029),
        (0.5, 0.82757355518990769011),
        (0.95, 1.3580986393225504408),
        (0.999, 1.9494746035043751594),
        (1e-300, 0.042136243271946001408),
        (5e-324, 0.040596694898186968995),
    ],
)
def test_quantile_against_40_digit_reference(level, reference):
    # solutions at the double levels (0.95 as a double is 4.4e-17 below
    # 0.95, which moves the 17th digit), found by bisection on the CDF's
    # series summed at 70 digits; the quantile is their correctly rounded
    # double.  scipy's _kolmogci gives 0.8275735551899059 at 0.5 and is off
    # by 1.4e-6 relative at 5e-324
    assert sup_bridge_quantile(level) == reference


@pytest.mark.parametrize(
    "x,expected",
    [(5e-324, 0.0), (1e-300, 0.0), (1e300, 1.0), (math.inf, 1.0)],
)
def test_cdf_at_the_ends_of_the_float_range_is_exact_and_prompt(x, expected):
    # far in the left tail every term of the theta series underflows, far
    # in the right every term of the alternating one: the sums must end
    started = time.perf_counter()
    assert sup_bridge_cdf(x) == expected
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "level,reference",
    [(5e-324, 0.040596694898186968995), (1 - 2**-53, 4.3260806598026490512)],
)
def test_quantile_at_the_ends_of_the_unit_interval_is_exact_and_prompt(level, reference):
    started = time.perf_counter()
    assert limit_dist._quantile.__wrapped__(level) == reference  # not the memo
    assert time.perf_counter() - started < 1.0


def test_cdf_left_tail_against_40_digit_reference():
    # at the double 0.2, 1.1e-17 above 0.2, where the CDF is 3.4e-15
    # relative above its value at 0.2 itself (5.0504073386700709e-13)
    assert sup_bridge_cdf(0.2) == 5.0504073386700878765e-13


def test_quantile_is_memoised_per_level():
    limit_dist._quantile.cache_clear()
    for level in (0.95, 0.95, 0.9, 0.95):
        sup_bridge_quantile(level)
    info = limit_dist._quantile.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_cli_import_loads_neither_optimize_nor_stats():
    # a fresh interpreter, so modules imported by other tests do not count;
    # the Kolmogorov law is the standard library's, and the normal law's
    # scipy.special is imported only where the Gaussian family or diagnose
    # uses it, so no scipy module is loaded at all
    package_root = str(Path(trimcusum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, trimcusum.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


_POOL_PROBE = """
import contextlib, io, json, sys
from trimcusum.cli import main

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(args))
    return status, out.getvalue()

def pool_modules():
    return sorted(m for m in sys.modules if m.startswith(("concurrent", "multiprocessing")))

table = ("simulate", "--n", "100", "--reps", "2000")
serial = run(*table, "--workers", "1")
calls = [
    run("test", "--input", sys.argv[1], "--resample-B", "200"),
    run("resample", "--input", sys.argv[1], "--reps", "200"),
    run("quantile", "--level", "0.95"),
]
after_serial = pool_modules()
pooled = run(*table, "--workers", "2")
print(json.dumps({
    "statuses": [serial[0]] + [status for status, _ in calls],
    "after_serial": after_serial,
    "after_pool": pool_modules(),
    "same_table": pooled == serial,
}))
"""


def test_serial_runs_never_load_the_process_pool(tmp_path):
    # a fresh interpreter, as in the test above: concurrent.futures and the
    # multiprocessing modules under it are imported by the first run that
    # starts a pool, and a serial run starts none
    series = tmp_path / "series.csv"
    values = trimcusum.sample_iid(trimcusum.two_sided_pareto(1.5), 300, seed=11)
    series.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    package_root = str(Path(trimcusum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, str(series)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
        timeout=120,
    )
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["statuses"][0] == 0 and report["statuses"][2:] == [0, 0]
    assert report["statuses"][1] in (0, 1)  # keep or reject H0
    assert report["after_serial"] == []
    assert "concurrent.futures.process" in report["after_pool"]
    assert "multiprocessing" in report["after_pool"]
    assert report["same_table"]
