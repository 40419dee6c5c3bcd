"""The benchmark's four workloads: inputs made from the seed, the CLI calls that
make up one pass, and the check applied to every output.

Inputs are made here, outside the program: the `observed` series come from
numpy's own generator and closed-form inverse CDFs and reach the CLI only as
CSV files.  The mix of sizes, families and modes is the same for every seed,
so a seed changes the data but not the amount of work.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("table", "power", "observed", "diagnose")

# Seed kept out of every tuning run; a later change confirms its claim on it.
HELD_OUT_SEED = 9973

# Reference values and tolerances, as in tests/test_acceptance.py.
TABLE_TARGETS = {100: 1.244, 200: 1.272, 400: 1.299, 800: 1.312}
TABLE_TOL = 0.05
TABLE_MIN_REPS = 10_000
ASYMPTOTIC_95 = 1.3581
ASYMPTOTIC_TOL = 1e-4
NOMINAL_SIZE = 0.05
# Size at shift 0 must lie within SIZE_SE binomial standard errors of 0.05.
# The acceptance suite uses 2 at one fixed seed; across many seeds 2 would
# flag about one seed in twenty by chance alone.
SIZE_SE = 4.0
MIN_EDGE_POWER = 0.9
# Resampled critical values of the observed series must lie in
# [RESAMPLED_LOW, ASYMPTOTIC_95 + RESAMPLED_ABOVE].  Finite-n values mostly sit
# just below the asymptote, but when one retained value carries most of the
# centred sum of squares, as in some one-sided Pareto series at n = 200, a
# permutation moves little more than that value, the statistic is close to
# max(U, 1 - U) with U uniform, and the critical value falls toward its 95 %
# point, 0.975.
RESAMPLED_LOW = 0.9
RESAMPLED_ABOVE = 0.25
# The CLI rounds report values to 6 significant digits.
REPORT_RTOL = 1e-5

FAMILIES = ("two_sided_pareto", "one_sided_pareto", "gaussian")
MODES = ("permutation", "bootstrap")

DEFAULTS = {
    "table": {"n": [100, 200, 400, 800], "reps": 10_000, "family": "two_sided_pareto",
              "alpha": 1.5, "p": 0.5, "workers": 1},
    "power": {"n": 400, "change_at": 200, "critical_value": 1.299, "reps": 2000,
              "family": "two_sided_pareto", "alpha": 1.5, "p": 0.5, "workers": 1},
    "observed": {"sizes": [200, 400, 1000], "families": list(FAMILIES), "modes": list(MODES),
                 "copies": 3, "alpha": 1.5, "shift": 1.0, "resample_B": 1000},
    "diagnose": {"n": 100_000, "alpha": 1.5, "reps": 328, "workers": 2},
}


@dataclass
class Op:
    """One CLI call: its arguments, the random samples it completes, its check."""

    key: str
    argv: list[str]
    replicates: int
    check: Callable[[int | None, str], list[str]]


@dataclass
class Workload:
    name: str
    params: dict
    ops: list[Op]  # one pass of the timed loop
    trace_ops: list[Op]  # one pass of the traced run
    # Statistic evaluations per drawn sample: power reuses each block per shift.
    evals_per_draw: int = 1
    input_dir: Path | None = None


def build(name: str, seed: int, input_dir: Path, **overrides) -> Workload:
    """Resolve the parameters of workload `name` and make its inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    unknown = set(overrides) - set(DEFAULTS[name])
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    params = {**DEFAULTS[name], **overrides}
    return _BUILDERS[name](seed, params, input_dir)


def _build_table(seed: int, params: dict, input_dir: Path) -> Workload:
    argv = [
        "simulate", "--n", ",".join(str(n) for n in params["n"]),
        "--reps", str(params["reps"]), "--family", params["family"],
        "--alpha", repr(params["alpha"]), "--p", repr(params["p"]),
        "--workers", str(params["workers"]), "--seed", str(seed),
    ]
    check = functools.partial(check_table, n_list=params["n"], reps=params["reps"])
    op = Op("table", argv, params["reps"] * len(params["n"]), check)
    return Workload("table", params, [op], [op])


def _build_power(seed: int, params: dict, input_dir: Path) -> Workload:
    argv = [
        "power", "--n", str(params["n"]), "--change-at", str(params["change_at"]),
        "--critical-value", repr(params["critical_value"]), "--reps", str(params["reps"]),
        "--family", params["family"], "--alpha", repr(params["alpha"]), "--p", repr(params["p"]),
        "--workers", str(params["workers"]), "--seed", str(seed),
    ]
    check = functools.partial(check_power, reps=params["reps"])
    op = Op("power", argv, params["reps"], check)
    return Workload("power", params, [op], [op], evals_per_draw=len(POWER_GRID))


def _build_diagnose(seed: int, params: dict, input_dir: Path) -> Workload:
    def op(workers: int) -> Op:
        argv = [
            "diagnose", "--n", str(params["n"]), "--alpha", repr(params["alpha"]),
            "--reps", str(params["reps"]), "--workers", str(workers), "--seed", str(seed),
        ]
        return Op(f"diagnose-w{workers}", argv, 2 * params["reps"], check_diagnose)

    parallel = op(params["workers"])
    # The traced pass adds a serial call: spans inside pool workers are lost
    # with the worker, so the layers below montecarlo are seen only here, and
    # the pair gives the parallel efficiency.
    return Workload("diagnose", params, [parallel], [parallel, op(1)])


def _build_observed(seed: int, params: dict, input_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    input_dir.mkdir(parents=True, exist_ok=True)
    combos = [
        (family, n, shifted, mode)
        for family in params["families"]
        for n in params["sizes"]
        for shifted in (False, True)
        for mode in params["modes"]
    ]
    ops = []
    for i in range(params["copies"] * len(combos)):
        family, n, shifted, mode = combos[i % len(combos)]
        x = draw_series(rng, family, n, params["alpha"])
        if shifted:
            x[n // 2:] += params["shift"]
        path = input_dir / f"series-{i:03d}.csv"
        text = "value\n" + "\n".join(repr(v) for v in x.tolist()) + "\n"
        path.write_text(text, encoding="utf-8")
        argv = [
            "test", "--input", str(path), "--resample-B", str(params["resample_B"]),
            "--mode", mode, "--seed", str(seed),
        ]
        check = functools.partial(check_observed, series=x)
        ops.append(Op(path.name, argv, params["resample_B"], check))
    # Modes alternate from one call to the next: combos vary mode fastest.
    return Workload("observed", params, ops, ops, input_dir=input_dir)


_BUILDERS = {
    "table": _build_table,
    "power": _build_power,
    "observed": _build_observed,
    "diagnose": _build_diagnose,
}

POWER_GRID = tuple(i / 10 for i in range(-30, 31))


def draw_series(rng: np.random.Generator, family: str, n: int, alpha: float) -> np.ndarray:
    """n i.i.d. draws by closed-form inverse CDF (Pareto laws: p = q = 1/2)."""
    if family == "gaussian":
        return rng.standard_normal(n)
    u = np.maximum(rng.random(n), 2.0 ** -53)
    if family == "one_sided_pareto":
        return (1.0 - u) ** (-1.0 / alpha) - 1.0
    if family == "two_sided_pareto":
        left = 1.0 - (2.0 * u) ** (-1.0 / alpha)
        right = (2.0 * (1.0 - u)) ** (-1.0 / alpha) - 1.0
        return np.where(u <= 0.5, left, right)
    raise ValueError(f"unknown family {family!r}")


def reference_statistic(x: np.ndarray) -> float:
    """The trimmed, self-normalized CUSUM statistic from its definition, at the
    default depth d = max(2, floor(n**0.3))."""
    n = x.size
    d = max(2, math.floor(n ** 0.3 + 1e-9))
    a = np.abs(x)
    threshold = np.sort(a)[n - d]
    y = np.where(a <= threshold, x, 0.0)
    centered_sum_sq = float(((y - y.sum() / n) ** 2).sum())
    s = np.cumsum(y)
    path = s - np.arange(1, n + 1) / n * s[-1]
    return float(np.abs(path).max()) / math.sqrt(centered_sum_sq)


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_table(code: int | None, text: str, *, n_list, reps: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        rows = {key: float(value) for key, value in _csv_rows(text, "n,critical_value")}
    except ValueError as exc:
        return problems + [f"unparseable table: {exc}"]
    expected = [str(n) for n in n_list] + ["inf"]
    if list(rows) != expected:
        return problems + [f"rows {list(rows)} != {expected}"]
    if reps >= TABLE_MIN_REPS:
        for n in n_list:
            target = TABLE_TARGETS.get(n)
            if target is not None and abs(rows[str(n)] - target) > TABLE_TOL:
                problems.append(f"n={n}: {rows[str(n)]:.4f} vs {target} +- {TABLE_TOL}")
    if abs(rows["inf"] - ASYMPTOTIC_95) > ASYMPTOTIC_TOL:
        problems.append(f"n=inf: {rows['inf']:.6f} vs {ASYMPTOTIC_95}")
    return problems


def check_power(code: int | None, text: str, *, reps: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        points = {float(s): float(p) for s, p in _csv_rows(text, "shift,power")}
    except ValueError as exc:
        return problems + [f"unparseable power curve: {exc}"]
    if tuple(points) != POWER_GRID:
        return problems + [f"{len(points)} shifts, expected the {len(POWER_GRID)}-point grid"]
    se = math.sqrt(NOMINAL_SIZE * (1.0 - NOMINAL_SIZE) / reps)
    if abs(points[0.0] - NOMINAL_SIZE) > SIZE_SE * se:
        problems.append(f"size {points[0.0]:.4f} vs {NOMINAL_SIZE} +- {SIZE_SE * se:.4f}")
    for edge in (-3.0, 3.0):
        if points[edge] < MIN_EDGE_POWER:
            problems.append(f"power({edge}) = {points[edge]:.3f} < {MIN_EDGE_POWER}")
    return problems


def check_observed(code: int | None, text: str, *, series: np.ndarray) -> list[str]:
    try:
        doc = json.loads(text)
        statistic = float(doc["statistic"])
        used = float(doc["critical_value_used"])
        resampled = float(doc["critical_value_resampled"])
        reject = doc["reject"]
        n = doc["n"]
        method = doc["method"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable report: {exc!r}"]
    problems = []
    if code != (1 if reject else 0):
        problems.append(f"exit code {code} disagrees with reject={reject}")
    if reject != (statistic > used):
        problems.append(f"reject={reject} but statistic {statistic} vs critical {used}")
    if method != "resampled" or used != resampled:
        problems.append(f"method {method!r} with critical value {used} != resampled {resampled}")
    high = ASYMPTOTIC_95 + RESAMPLED_ABOVE
    if not RESAMPLED_LOW <= resampled <= high:
        problems.append(f"resampled critical value {resampled} outside [{RESAMPLED_LOW}, {high}]")
    if n != series.size:
        problems.append(f"n={n}, series has {series.size} values")
    expected = reference_statistic(series)
    if not math.isclose(statistic, expected, rel_tol=REPORT_RTOL):
        problems.append(f"statistic {statistic} vs {expected:.6g} from the definition")
    return problems


def check_diagnose(code: int | None, text: str) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        gaps = json.loads(text)["gap_medians"]
        centered, uncentered = float(gaps["centered"]), float(gaps["uncentered"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unparseable report: {exc!r}"]
    if not centered < uncentered:
        problems.append(f"centered gap median {centered} not below uncentered {uncentered}")
    return problems
