"""Command line front end: run the test on CSV data, simulate tables and power
curves, estimate resampled critical values, and print asymptotic quantiles.

Exit status: 0 success (or no rejection), 1 rejection (test subcommand),
2 usage error (a missing scipy included), 3 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .heavy_tail_models import (
    GAUSSIAN,
    ONE_SIDED_PARETO,
    TWO_SIDED_PARETO,
    TailModel,
    gaussian,
    one_sided_pareto,
    two_sided_pareto,
)
from .limit_dist import sup_bridge_quantile
from .montecarlo import (
    PowerSpec,
    SimulationSpec,
    _diagnostics,
    critical_value_table,
    power_curve,
)
from .resampling import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ResamplePlan,
    _critical_value,
    resampled_critical_value,
)
from .trimmed_cusum import (
    DegenerateSampleError,
    _trim_rows,
    cusum_path,
    default_trim_depth,
    locate_change,
)

__all__ = ["DataError", "load_series", "main", "entry_point"]

_MODE_NAMES = {"bootstrap": WITH_REPLACEMENT, "permutation": WITHOUT_REPLACEMENT}


class DataError(Exception):
    """Problem with input data (missing file, bad line, too few values)."""


class UsageError(Exception):
    """Problem with the requested configuration."""


def load_series(path: str) -> np.ndarray:
    """One real per line; an optional leading 'value' header row is skipped.

    A UTF-8 byte-order mark and trailing blank lines are ignored; a blank line
    inside the data is an error, since skipping it would shift every later
    index.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    start = 0
    if lines and lines[0].strip().lower() == "value":
        start = 1
    values = []
    for lineno in range(start, len(lines)):
        text = lines[lineno].strip()
        try:
            x = float(text)
        except ValueError:
            raise DataError(f"{path}: unparseable value on line {lineno + 1}: {text!r}") from None
        if not math.isfinite(x):
            raise DataError(f"{path}: non-finite value on line {lineno + 1}")
        values.append(x)
    if len(values) < 4:
        raise DataError(f"{path}: need at least 4 values, got {len(values)}")
    return np.asarray(values)


def _sig6(x: float) -> float:
    """Round to 6 significant digits for report output."""
    return float(f"{x:.6g}")


def _model_from_args(args) -> TailModel:
    if args.family == GAUSSIAN:
        return gaussian()
    if args.family == ONE_SIDED_PARETO:
        return one_sided_pareto(args.alpha)
    return two_sided_pareto(args.alpha, args.p)


def _resolve_workers(args) -> int:
    """--workers if given, else TRIMCUSUM_WORKERS, else 1."""
    workers = args.workers
    if workers is None:
        env = os.environ.get("TRIMCUSUM_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise UsageError(f"TRIMCUSUM_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise UsageError("worker count must be at least 1")
    return workers


def _csv(header: list[str], rows: list[list]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(out) + "\n"


def _json_doc(config: dict, body: dict) -> str:
    return json.dumps({"config": config, **body}, indent=2) + "\n"


def _depth(args, n: int) -> int:
    """--d, else the default depth, for samples of size n.  The CLI requires
    2 <= d < n: the library allows d = 1, which trims nothing."""
    d = args.d if args.d is not None else default_trim_depth(n)
    if not 2 <= d < n:
        raise UsageError(f"trim depth d={d} must satisfy 2 <= d < n={n}")
    return d


def _plan(args, n: int, replications: int) -> ResamplePlan:
    m = args.m if args.m is not None else n
    mode = _MODE_NAMES[args.mode]
    return ResamplePlan(m, mode, replications, level=args.level, seed=args.seed)


def _cmd_test(args) -> tuple[int, str]:
    """One kernel call gives the statistic, the trimmed estimates and the
    resampling input; the path of its trimmed values gives the change
    location."""
    series = load_series(args.input)
    n = series.size
    d = _depth(args, n)
    rows = _trim_rows(series[None, :], d)
    try:
        statistic = float(rows.statistics()[0])
    except DegenerateSampleError as exc:
        raise DataError(str(exc)) from exc
    ts = rows.sample(series, d)
    crit_asym = sup_bridge_quantile(args.level)
    crit_resampled = None
    method = "asymptotic"
    critical = crit_asym
    if args.resample_B is not None:
        crit_resampled = _critical_value(rows, _plan(args, n, args.resample_B)).value
        method = "resampled"
        critical = crit_resampled
    location = locate_change(cusum_path(rows.values[0]))
    reject = statistic > critical
    config = {
        "subcommand": "test",
        "input": args.input,
        "d": d,
        "level": args.level,
        "seed": args.seed,
        "resample_B": args.resample_B,
        "m": args.m,
        "mode": args.mode,
    }
    body = {
        "n": n,
        "statistic": _sig6(statistic),
        "critical_value_asymptotic": _sig6(crit_asym),
        "critical_value_resampled": None if crit_resampled is None else _sig6(crit_resampled),
        "critical_value_used": _sig6(critical),
        "method": method,
        "reject": reject,
        "change_at": location.k,
        "degenerate_path": location.degenerate,
        "threshold": _sig6(ts.threshold),
        "trimmed_mean": _sig6(ts.trimmed_mean),
        "sigma_hat": _sig6(ts.sigma_hat),
    }
    if args.format == "csv":
        header = list(body)
        text = _csv(header, [[body[k] for k in header]])
    else:
        text = _json_doc(config, body)
    return (1 if reject else 0), text


def _spec(args, n_list: list[int]) -> SimulationSpec:
    """The spec at the first n; --d is checked against every n."""
    for n in n_list:
        _depth(args, n)
    return SimulationSpec(
        _model_from_args(args), n=n_list[0], replications=args.reps, level=args.level,
        master_seed=args.seed, d=args.d,
    )


def _cmd_simulate(args) -> tuple[int, str]:
    n_list = _parse_n_list(args.n)
    spec = _spec(args, n_list)
    rows = [[_inf_str(n), cv] for n, cv in critical_value_table(spec, n_list, workers=_resolve_workers(args))]
    if args.format == "json":
        return 0, _json_doc(_sim_config("simulate", args, n_list), {"table": rows})
    return 0, _csv(["n", "critical_value"], rows)


def _cmd_power(args) -> tuple[int, str]:
    spec = _spec(args, [args.n])
    change_at = args.change_at if args.change_at is not None else args.n // 2
    critical = args.critical_value
    if critical is None:
        critical = sup_bridge_quantile(args.level)
    pspec = PowerSpec(base=spec, change_at=change_at, critical_value=critical)
    points = power_curve(pspec, workers=_resolve_workers(args))
    if args.format == "json":
        config = _sim_config("power", args, [args.n])
        config.update({"change_at": change_at, "critical_value": critical})
        return 0, _json_doc(config, {"points": [[s, p] for s, p in points]})
    return 0, _csv(["shift", "power"], [[s, p] for s, p in points])


def _cmd_resample(args) -> tuple[int, str]:
    series = load_series(args.input)
    d = _depth(args, series.size)
    plan = _plan(args, series.size, args.reps)
    try:
        est = resampled_critical_value(series, d, plan)
    except DegenerateSampleError as exc:
        raise DataError(str(exc)) from exc
    if args.format == "json":
        config = {
            "subcommand": "resample",
            "input": args.input,
            "d": d,
            "m": plan.m,
            "mode": args.mode,
            "B": plan.replications,
            "level": plan.level,
            "seed": plan.seed,
        }
        body = {
            "critical_value": est.value,
            "standard_error": est.standard_error,
        }
        return 0, _json_doc(config, body)
    return 0, _csv(
        ["value", "level", "B", "standard_error"],
        [[est.value, est.level, est.replications, est.standard_error]],
    )


def _cmd_diagnose(args) -> tuple[int, str]:
    model = one_sided_pareto(args.alpha)
    d = _depth(args, args.n)
    workers = _resolve_workers(args)
    summary, gaps = _diagnostics(model, args.n, d, args.reps, seed=args.seed, workers=workers)
    config = {
        "subcommand": "diagnose",
        "family": ONE_SIDED_PARETO,
        "alpha": args.alpha,
        "n": args.n,
        "d": d,
        "reps": args.reps,
        "seed": args.seed,
    }
    body = {
        "centering": {
            "mean": _sig6(summary.mean),
            "variance": None if summary.variance is None else _sig6(summary.variance),
            "ks_to_normal": _sig6(summary.ks_to_normal),
        },
        "gap_medians": {
            "centered": _sig6(gaps.centered_median),
            "uncentered": _sig6(gaps.uncentered_median),
        },
    }
    return 0, _json_doc(config, body)


def _cmd_quantile(args) -> tuple[int, str]:
    value = sup_bridge_quantile(args.level)
    if args.format == "json":
        return 0, _json_doc(
            {"subcommand": "quantile", "level": args.level}, {"quantile": _sig6(value)}
        )
    return 0, f"{value:.6g}\n"


def _sim_config(subcommand: str, args, n_list: list[int]) -> dict:
    return {
        "subcommand": subcommand,
        "family": args.family,
        "alpha": args.alpha,
        "p": args.p,
        "n": n_list if subcommand == "simulate" else n_list[0],
        "d": args.d,
        "reps": args.reps,
        "level": args.level,
        "seed": args.seed,
    }


def _inf_str(n: float):
    return "inf" if math.isinf(n) else int(n)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--n expects a comma-separated list of integers, got {text!r}") from None
    if not values:
        raise UsageError("--n list is empty")
    return values


# Options shared by several subcommands; each subcommand registers only those
# it reads.
_SHARED = {
    "level": {"type": float, "default": 0.95},
    "seed": {"type": int, "default": 0},
    "d": {"type": int, "default": None},
    "format": {"choices": ("json", "csv"), "default": None},
    "family": {"choices": (TWO_SIDED_PARETO, ONE_SIDED_PARETO, GAUSSIAN),
               "default": TWO_SIDED_PARETO},
    "alpha": {"type": float, "default": 1.5},
    "p": {"type": float, "default": 0.5},
    "workers": {"type": int, "default": None},
}
_MODEL = ("family", "alpha", "p")


def _add_shared(sub, *names: str) -> None:
    """--output and the named shared options."""
    sub.add_argument("--output", default=None)
    for name in names:
        sub.add_argument(f"--{name}", **_SHARED[name])


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: building it costs
    about 1.5 ms, and each parse fills a new namespace, so no call sees
    another's options."""
    parser = argparse.ArgumentParser(
        prog="trimcusum",
        description="Trimmed CUSUM change-point test for heavy-tailed data.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_test = subs.add_parser("test", help="run the change-point test on a CSV series")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--resample-B", type=int, default=None, dest="resample_B")
    p_test.add_argument("--m", type=int, default=None)
    p_test.add_argument("--mode", choices=tuple(_MODE_NAMES), default="permutation")
    _add_shared(p_test, "level", "seed", "d", "format")

    p_sim = subs.add_parser("simulate", help="simulate a critical-value table")
    p_sim.add_argument("--n", default="100,200,400,800")
    p_sim.add_argument("--reps", type=int, default=100_000)
    _add_shared(p_sim, "level", "seed", "d", "format", *_MODEL, "workers")

    p_pow = subs.add_parser("power", help="simulate an empirical power curve")
    p_pow.add_argument("--n", type=int, required=True)
    p_pow.add_argument("--reps", type=int, default=10_000)
    p_pow.add_argument("--change-at", type=int, default=None, dest="change_at")
    p_pow.add_argument("--critical-value", type=float, default=None, dest="critical_value")
    _add_shared(p_pow, "level", "seed", "d", "format", *_MODEL, "workers")

    p_res = subs.add_parser("resample", help="resampled critical value for a CSV series")
    p_res.add_argument("--input", required=True)
    p_res.add_argument("--m", type=int, default=None)
    p_res.add_argument("--mode", choices=tuple(_MODE_NAMES), default="permutation")
    p_res.add_argument("--reps", type=int, default=2000)
    _add_shared(p_res, "level", "seed", "d", "format")

    p_diag = subs.add_parser("diagnose", help="centering and gap diagnostics")
    p_diag.add_argument("--n", type=int, default=100_000)
    p_diag.add_argument("--reps", type=int, default=2000)
    _add_shared(p_diag, "seed", "d", "alpha", "workers")

    p_q = subs.add_parser("quantile", help="asymptotic critical value")
    _add_shared(p_q, "level", "format")

    return parser


_COMMANDS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
    "resample": _cmd_resample,
    "diagnose": _cmd_diagnose,
    "quantile": _cmd_quantile,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "level" in args and not 0.0 < args.level < 1.0:
            raise UsageError("--level must lie in (0, 1)")
        code, text = _COMMANDS[args.subcommand](args)
    except DataError as exc:
        print(f"trimcusum: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"trimcusum: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:  # scipy, which the Gaussian family and diagnose load
        print(f"trimcusum: this command needs {exc.name}, which cannot be imported", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"trimcusum: cannot write {args.output}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
