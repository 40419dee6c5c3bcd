#!/usr/bin/env python3
"""Benchmark of the trimcusum command line, end to end and layer by layer.

    python3 perfbench/run.py --workload table --seed 0 --seconds 50 --trace 0

Run from the root of a checkout.  Each workload drives ``trimcusum.cli.main``
in this process as one closed-loop client: the next call starts only after the
previous one returned.  Every output is checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every call once untraced and once traced
and reports the per-layer metrics (see perfbench/README.md).  ``--workload
all`` runs the four workloads one after another, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record goes
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_PASSES = 3  # untraced passes, so that a median exists
LOOP_CAP_S = 120.0  # keeps a run well inside its time limit on a slow machine
SETUP_REPEATS = 5

# Measures the import every CLI user pays, in a fresh interpreter.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import trimcusum.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "streams.generators": "count",
    "streams.construct_s": "s",
    "streams.self_s": "s",
    "heavy_tail_models.icdf_s": "s",
    "heavy_tail_models.icdf_elems": "count",
    "heavy_tail_models.moments_s": "s",
    "heavy_tail_models.self_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.stat_elems": "count",
    "montecarlo.stat_elems_per_s": "1/s",
    "montecarlo.stat_bytes_computed": "B",
    "montecarlo.parallel_efficiency": "ratio",
    "resampling.self_s": "s",
    "resampling.replicates": "count",
    "trimmed_cusum.trim_s": "s",
    "trimmed_cusum.trim_calls": "count",
    "trimmed_cusum.path_s": "s",
    "trimmed_cusum.path_calls": "count",
    "trimmed_cusum.statistic_s": "s",
    "trimmed_cusum.self_s": "s",
    "cli.self_s": "s",
    "cli.load_series_s": "s",
    "cli.output_bytes": "B",
    "limit_dist.quantile_s": "s",
    "limit_dist.calls": "count",
    "limit_dist.self_s": "s",
    "process.minor_faults": "count",
    "process.sys_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

_MOMENTS = ("mean_shift", "centering_scale", "truncated_sum_scale", "tail_survival_inv")
_ICDF = ("_quantile_unchecked", "quantile")


@dataclass
class Tally:
    """Checked outcomes of every call, and the first output of each input."""

    input_dir: Path | None = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def record(self, key: str, text: str, problems: list[str]) -> None:
        if self.input_dir is not None:
            text = text.replace(str(self.input_dir), "<inputs>")
        if self.outputs.setdefault(key, text) != text:
            problems = problems + ["output differs from an earlier call on the same input"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"op": key, "problems": problems})

    def digest(self, keys: list[str]) -> str:
        h = hashlib.sha256()
        for key in keys:
            h.update(f"{key}\n{self.outputs.get(key, '')}\n".encode())
        return h.hexdigest()


def run_op(main, op, tally: Tally) -> tuple[float, str]:
    """One checked CLI call; returns its wall time and its output."""
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
        except Exception:  # counted as a failed call; the loop goes on
            code = None
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
    text = buf.getvalue()
    problems = [f"raised: {error}"] if error else op.check(code, text)
    tally.record(op.key, text, problems)
    return wall, text


def _more_passes(
    started: float, passes: int, seconds: float, max_passes: int | None, min_passes: int
) -> bool:
    if max_passes is not None and passes >= max_passes:
        return False
    elapsed = time.perf_counter() - started
    if elapsed >= LOOP_CAP_S:
        return False
    return passes < min_passes or elapsed < seconds


def measure(main, wl, seconds: float, max_passes: int | None = None) -> dict:
    """Untraced closed loop over whole passes of the workload's calls."""
    tally = Tally(wl.input_dir)
    run_op(main, wl.ops[0], tally)  # warm-up: lazy imports and caches
    op_walls: list[float] = []
    walls_by_key: dict[str, list[float]] = {op.key: [] for op in wl.ops}
    passes = 0
    started = time.perf_counter()
    while _more_passes(started, passes, seconds, max_passes, MIN_PASSES):
        for op in wl.ops:
            wall, _ = run_op(main, op, tally)
            op_walls.append(wall)
            walls_by_key[op.key].append(wall)
        passes += 1
    return {"tally": tally, "op_walls": op_walls, "walls_by_key": walls_by_key,
            "passes": passes, "loop_s": time.perf_counter() - started}


def measure_traced(main, wl, seconds: float, tracer, max_passes: int | None = None) -> dict:
    """Each call of a pass runs untraced and traced, in alternating order."""
    tally = Tally(wl.input_dir)
    root = tracer.wrap(main, "cli.main", "cli")
    run_op(main, wl.trace_ops[0], tally)  # warm-up, untraced
    tracer.install()  # finds the boundaries once, outside the timed calls
    tracer.uninstall()
    walls = {"untraced": {}, "traced": {}}
    output_bytes = 0
    minor_faults, system_s = 0, 0.0  # over the untraced calls
    passes = 0
    started = time.perf_counter()
    while _more_passes(started, passes, seconds, max_passes, 1):
        order = ("untraced", "traced") if passes % 2 == 0 else ("traced", "untraced")
        for op in wl.trace_ops:
            for mode in order:
                if mode == "traced":
                    tracer.install()
                    try:
                        wall, text = run_op(root, op, tally)
                    finally:
                        tracer.uninstall()
                    output_bytes += len(text.encode())
                else:
                    faults, sys_s = _os_usage()
                    wall, _ = run_op(main, op, tally)
                    after = _os_usage()
                    minor_faults += after[0] - faults
                    system_s += after[1] - sys_s
                walls[mode].setdefault(op.key, []).append(wall)
        passes += 1
    return {"tally": tally, "walls": walls, "passes": passes, "output_bytes": output_bytes,
            "minor_faults": minor_faults, "sys_s": system_s,
            "loop_s": time.perf_counter() - started}


def _os_usage() -> tuple[int, float]:
    """Minor page faults and system CPU seconds of this process and its
    finished children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_minflt + children.ru_minflt, own.ru_stime + children.ru_stime


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end_metrics(wl, run: dict, setup_s: float, peak_rss_mb: float) -> dict:
    """Timings are 90th percentiles.  The host alternates between a steady
    speed and spells of up to 1.7 times that; a median reads whichever held
    for more than half the run, while the 90th percentile reads the steady
    speed unless the spells cover nine tenths of it.  Throughput divides a
    pass's samples by the sum, over its calls, of each call's 90th
    percentile wall time."""
    per_pass = sum(op.replicates for op in wl.ops)
    p90_pass_s = sum(_p90(w) for w in run["walls_by_key"].values())
    return {
        "setup_s": setup_s,
        "replicates_per_s": per_pass / p90_pass_s,
        "op_p90_ms": _p90(run["op_walls"]) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(wl, run: dict, summary: dict) -> dict:
    """Per-pass averages over the traced calls of a traced run."""
    passes = run["passes"]
    names = summary["names"]

    def spans(pred):
        return [entry for name, entry in names.items() if pred(name.split(".", 1)[1], entry, name)]

    def total(entries, key="total_s"):
        return sum(e[key] for e in entries) / passes

    def by_attr(*attrs):
        return spans(lambda attr, e, name: attr in attrs)

    def by_layer(layer):
        return spans(lambda attr, e, name: e["layer"] == layer)

    layer_self = {k: v / passes for k, v in summary["layer_self_s"].items()}
    drawn = total(spans(lambda attr, e, name: name == "montecarlo._quantile_unchecked"), "elems")
    stat_elems = drawn * wl.evals_per_draw
    mc_self = layer_self["montecarlo"]
    traced = sum(sum(v) for v in run["walls"]["traced"].values())
    untraced = sum(sum(v) for v in run["walls"]["untraced"].values())
    efficiency = 0.0
    if wl.name == "diagnose":
        walls = run["walls"]["untraced"]
        workers = wl.params["workers"]
        efficiency = statistics.median(walls["diagnose-w1"]) / (
            workers * statistics.median(walls[f"diagnose-w{workers}"])
        )
    streams = by_layer("_streams")
    limit = by_layer("limit_dist")
    return {
        "streams.generators": total(streams, "calls"),
        "streams.construct_s": total(streams),
        "streams.self_s": layer_self["_streams"],
        "heavy_tail_models.icdf_s": total(by_attr(*_ICDF)),
        "heavy_tail_models.icdf_elems": total(by_attr(*_ICDF), "elems"),
        "heavy_tail_models.moments_s": total(by_attr(*_MOMENTS)),
        "heavy_tail_models.self_s": layer_self["heavy_tail_models"],
        "montecarlo.self_s": mc_self,
        "montecarlo.stat_elems": stat_elems,
        "montecarlo.stat_elems_per_s": stat_elems / mc_self if stat_elems and mc_self > 0 else 0.0,
        "montecarlo.stat_bytes_computed": 8.0 * stat_elems,
        "montecarlo.parallel_efficiency": efficiency,
        "resampling.self_s": layer_self["resampling"],
        "resampling.replicates": total(
            spans(lambda attr, e, name: name == "resampling.stream_generator"), "calls"
        ),
        "trimmed_cusum.trim_s": total(by_attr("trim")),
        "trimmed_cusum.trim_calls": total(by_attr("trim"), "calls"),
        "trimmed_cusum.path_s": total(by_attr("cusum_path")),
        "trimmed_cusum.path_calls": total(by_attr("cusum_path"), "calls"),
        "trimmed_cusum.statistic_s": total(by_attr("test_statistic")),
        "trimmed_cusum.self_s": layer_self["trimmed_cusum"],
        "cli.self_s": layer_self["cli"],
        "cli.load_series_s": total(spans(lambda attr, e, name: name == "cli.load_series")),
        "cli.output_bytes": run["output_bytes"] / passes,
        "limit_dist.quantile_s": total(by_attr("sup_bridge_quantile")),
        "limit_dist.calls": total(limit, "calls"),
        "limit_dist.self_s": layer_self["limit_dist"],
        "process.minor_faults": run["minor_faults"] / passes,
        "process.sys_s": run["sys_s"] / passes,
        "trace.wall_s": traced / passes,
        "trace.overhead_s": (traced - untraced) / passes,
        "trace.spans": summary["spans"] / passes,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its finished children."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def provenance(name: str, seed: int, params: dict) -> dict:
    import numpy
    import scipy

    import workloads

    cpu_model = None
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "trimcusum").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": name,
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "params": params,
    }


def recorded_digest(name: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name)


def _metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import trimcusum.cli as cli

    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    input_dir = OUT / f"inputs-{name}-{seed}-{os.getpid()}"
    try:
        started = time.perf_counter()
        wl = workloads.build(name, seed, input_dir)
        first_setup_s = time.perf_counter() - started
        if trace:
            tracer = Tracer()
            run = measure_traced(cli.main, wl, seconds, tracer)
            summary = tracer.summary()
            metrics = _metric_block(per_layer_metrics(wl, run, summary), PER_LAYER_UNITS)
            spans_path = OUT / f"{name}-seed{seed}-spans.npz"
            tracer.save(spans_path)
            extra = {"passes": run["passes"], "walls_s": run["walls"],
                     "spans_file": str(spans_path.relative_to(ROOT)), "by_name": summary["names"]}
        else:
            run = measure(cli.main, wl, seconds)
            rss = peak_rss_mb()  # before the set-up probes add children of their own
            imports, builds = [], [first_setup_s]
            for _ in range(SETUP_REPEATS):
                imports.append(import_seconds())
                started = time.perf_counter()
                workloads.build(name, seed, input_dir)
                builds.append(time.perf_counter() - started)
            setup_s = statistics.median(imports) + statistics.median(builds)
            metrics = _metric_block(end_to_end_metrics(wl, run, setup_s, rss), END_TO_END_UNITS)
            extra = {"passes": run["passes"], "ops_timed": len(run["op_walls"]),
                     "op_p50_ms": statistics.median(run["op_walls"]) * 1e3,
                     "op_walls_s": run["op_walls"],
                     "import_s": imports, "input_build_s": builds}
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    tally = run["tally"]
    digest = tally.digest([op.key for op in wl.ops])
    recorded = recorded_digest(name, seed)
    return {
        "provenance": provenance(name, seed, wl.params),
        "trace": trace,
        "seconds": seconds,
        "loop_s": run["loop_s"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "output_sha256": digest,
        "recorded_sha256": recorded,
        "matches_recorded": None if recorded is None else digest == recorded,
        "metrics": metrics,
        **extra,
    }


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    name = result["provenance"]["workload"]
    print(f"# {name}: seed {result['provenance']['seed']}, trace {int(result['trace'])}, "
          f"{result['passes']} passes in {result['loop_s']:.1f} s")
    for key, metric in result["metrics"].items():
        print(f"{name}.{key} = {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        # Printed, not a BENCHMARK.json metric: see perfbench/README.md.
        print(f"{name}.op_p50_ms = {result['op_p50_ms']:.6g} ms")
        print(f"{name}: op latency over {result['ops_timed']} timed calls")
    print(f"{name}.failed_frac = {result['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} calls)")
    match = result["matches_recorded"]
    note = "no digest recorded for this seed" if match is None else (
        "matches the digest recorded for the default seed" if match
        else "differs from the digest recorded for the default seed")
    print(f"{name}.output_sha256 = {result['output_sha256']} ({note})")
    for failure in result["failures"][:5]:
        print(f"{name}: FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process, so peak RSS and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("table", "power", "observed", "diagnose"):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table", "power", "observed", "diagnose", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    if not (SRC / "trimcusum" / "__init__.py").is_file():
        print(f"perfbench: no trimcusum sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return 0

    sys.path.insert(0, str(SRC))
    import trimcusum

    if not Path(trimcusum.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: trimcusum imported from {trimcusum.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
