"""Tests of the benchmark itself: checks feed the failure count, identical seeds
give identical digests and counts, and the trace accounts for its wall time.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

GOOD_TABLE = (
    "n,critical_value\n100,1.244\n200,1.272\n400,1.299\n800,1.312\ninf,1.3580986393225503\n"
)


def _fake_cli(text: str):
    def main(argv):
        sys.stdout.write(text)
        return 0

    return main


def test_corrupted_table_row_counts_as_failed(tmp_path):
    wl = workloads.build("table", 0, tmp_path)
    clean = run.measure(_fake_cli(GOOD_TABLE), wl, seconds=0, max_passes=2)["tally"]
    assert (clean.attempted, clean.failed) == (3, 0)

    corrupted = GOOD_TABLE.replace("100,1.244", "100,1.344")
    tally = run.measure(_fake_cli(corrupted), wl, seconds=0, max_passes=2)["tally"]
    assert (tally.attempted, tally.failed) == (3, 3)
    assert "n=100" in tally.failures[0]["problems"][0]


def test_output_that_changes_between_identical_calls_is_a_failure(tmp_path):
    wl = workloads.build("table", 0, tmp_path)
    outputs = iter([GOOD_TABLE, GOOD_TABLE, GOOD_TABLE.replace("1.312", "1.313")])

    def main(argv):
        sys.stdout.write(next(outputs))
        return 0

    tally = run.measure(main, wl, seconds=0, max_passes=2)["tally"]
    assert (tally.attempted, tally.failed) == (3, 1)


def _traced(name: str, tmp_path: Path, **params) -> tuple[dict, str]:
    import trimcusum.cli

    wl = workloads.build(name, 11, tmp_path / name, **params)
    tracer = Tracer()
    result = run.measure_traced(trimcusum.cli.main, wl, 0, tracer, max_passes=2)
    assert result["tally"].failed == 0, result["tally"].failures
    metrics = run.per_layer_metrics(wl, result, tracer.summary())
    return metrics, result["tally"].digest([op.key for op in wl.ops])


SMALL = {
    "power": {"reps": 100},
    "observed": {"sizes": [200], "copies": 1, "resample_B": 500},
}
COUNTS = ("streams.generators", "montecarlo.stat_elems", "resampling.replicates")


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    pairs = {}
    for name, params in SMALL.items():
        pairs[name] = [
            _traced(name, tmp_path_factory.mktemp(f"{name}{k}"), **params) for k in range(2)
        ]
    return pairs


def test_same_seed_gives_identical_digests_and_counts(traced_pairs):
    for name, ((first, digest1), (second, digest2)) in traced_pairs.items():
        assert digest1 == digest2, name
        for key in COUNTS:
            assert first[key] == second[key], (name, key)
    power = traced_pairs["power"][0][0]
    assert power["streams.generators"] == 100
    assert power["montecarlo.stat_elems"] == 100 * 400 * len(workloads.POWER_GRID)
    observed = traced_pairs["observed"][0][0]
    assert observed["resampling.replicates"] == 12 * 500
    assert observed["montecarlo.stat_elems"] == 0


def test_layer_self_times_sum_to_traced_wall(traced_pairs):
    # observed records some 12000 spans per pass, so its tracing overhead
    # stands well clear of the run-to-run noise of a sub-second pass.
    for metrics, _ in traced_pairs["observed"]:
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        gap = abs(self_sum - metrics["trace.wall_s"])
        assert gap <= metrics["trace.overhead_s"], (self_sum, metrics)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "table", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
