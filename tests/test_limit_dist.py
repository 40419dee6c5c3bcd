import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import trimcusum
from trimcusum import sup_bridge_cdf, sup_bridge_quantile


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
    assert sup_bridge_quantile(0.95) == pytest.approx(1.3581, abs=5e-4)


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
        (1e-16, 0.17674325659716231),
        (1e-6, 0.27753935399861560),
        (0.5, 0.82757355518990769),
        (0.95, 1.35809863932255060),
        (0.999, 1.94947460350437527),
    ],
)
def test_quantile_against_40_digit_reference(level, reference):
    # 40-digit values at the decimal levels, from the theta series of the CDF
    assert sup_bridge_quantile(level) == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_cdf_left_tail_against_40_digit_reference():
    assert sup_bridge_cdf(0.2) == pytest.approx(5.0504073386700709e-13, rel=1e-13, abs=0.0)


def test_cli_import_loads_neither_optimize_nor_stats():
    # a fresh interpreter, so modules imported by other tests do not count
    package_root = str(Path(trimcusum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, trimcusum.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
