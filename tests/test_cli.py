import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trimcusum import cli
from trimcusum.cli import DataError, load_series, main
from trimcusum.limit_dist import sup_bridge_quantile


@pytest.fixture
def hand_csv(tmp_path, hand_sample):
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{v}\n" for v in hand_sample))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_load_series_plain(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1.0\n-2.5\n0.0\n3\n")
    np.testing.assert_array_equal(load_series(str(path)), [1.0, -2.5, 0.0, 3.0])


def test_load_series_header_skip(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("value\n1\n2\n3\n4\n")
    np.testing.assert_array_equal(load_series(str(path)), [1.0, 2.0, 3.0, 4.0])


def test_load_series_scientific_notation(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1e-3\n-2.5E2\n0.0\n3\n")
    np.testing.assert_array_equal(load_series(str(path)), [0.001, -250.0, 0.0, 3.0])


def test_load_series_error_line_number(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1\nabc\n")
    with pytest.raises(DataError, match="line 2"):
        load_series(str(path))


def test_load_series_rejects_nan(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1\n2\nnan\n4\n")
    with pytest.raises(DataError, match="line 3"):
        load_series(str(path))


def test_load_series_too_short(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1\n2\n3\n")
    with pytest.raises(DataError, match="at least 4"):
        load_series(str(path))


@pytest.mark.parametrize("header", ["", "value\n"])
def test_load_series_skips_a_utf8_byte_order_mark(tmp_path, header):
    # Excel's "CSV UTF-8" starts the file with U+FEFF
    path = tmp_path / "a.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"{header}1\n2\n3\n4\n".encode())
    np.testing.assert_array_equal(load_series(str(path)), [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("tail", ["\n", "\n\n", " \n\t\n", "\r\n\r\n", "\n  "])
def test_load_series_ignores_trailing_blank_lines(tmp_path, tail):
    path = tmp_path / "a.csv"
    path.write_bytes(f"value\n1\n2\n3\n4{tail}".encode())
    np.testing.assert_array_equal(load_series(str(path)), [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("gap", ["", "   "])
def test_load_series_rejects_a_blank_line_inside_the_data(tmp_path, gap):
    # skipping it would shift the index of every later value
    path = tmp_path / "a.csv"
    path.write_text(f"value\n1\n2\n{gap}\n3\n4\n\n")
    with pytest.raises(DataError, match="line 4: ''"):
        load_series(str(path))


def test_test_subcommand_reads_a_byte_order_mark_and_trailing_blank_line(
    capsys, tmp_path, hand_csv
):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + Path(hand_csv).read_bytes() + b"\n\n")
    code, out, _ = run_cli(capsys, "test", "--input", str(path))
    plain_code, plain_out, _ = run_cli(capsys, "test", "--input", hand_csv)
    assert code == plain_code != 3
    # the reports differ only in the echoed input path
    assert out.replace(str(path), hand_csv) == plain_out


def test_load_series_missing_file():
    with pytest.raises(DataError):
        load_series("/nonexistent/series.csv")


def test_test_subcommand_hand_sample(capsys, hand_csv):
    code, out, err = run_cli(capsys, "test", "--input", hand_csv, "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["statistic"] == pytest.approx(0.65754, abs=1e-5)
    assert report["critical_value_asymptotic"] == pytest.approx(1.3581, abs=5e-4)
    assert report["reject"] is False
    assert report["change_at"] == 1
    assert report["method"] == "asymptotic"
    assert report["config"]["subcommand"] == "test"


def test_test_subcommand_resampled(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "test", "--input", hand_csv, "--d", "2", "--resample-B", "50", "--seed", "1"
    )
    report = json.loads(out)
    assert report["method"] == "resampled"
    assert report["critical_value_resampled"] is not None
    assert code in (0, 1)
    assert report["reject"] is (code == 1)


def test_test_subcommand_rejects_large_shift(capsys, tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200)
    x[100:] += 5.0
    path = tmp_path / "shift.csv"
    path.write_text("".join(f"{v}\n" for v in x))
    code, out, _ = run_cli(capsys, "test", "--input", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["reject"] is True
    assert abs(report["change_at"] - 100) <= 10


def test_test_subcommand_degenerate_is_data_error(capsys, tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("2\n2\n2\n2\n2\n")
    code, out, err = run_cli(capsys, "test", "--input", str(path), "--d", "2")
    assert code == 3
    assert "identical" in err


def test_test_subcommand_csv_is_the_json_body_in_one_row(capsys, hand_csv):
    # floats at full precision (repr), everything else as str
    argv = ("test", "--input", hand_csv, "--d", "2", "--resample-B", "50")
    code, out, _ = run_cli(capsys, *argv)
    body = json.loads(out)
    del body["config"]
    row = [repr(v) if isinstance(v, float) else str(v) for v in body.values()]
    expected = ",".join(body) + "\n" + ",".join(row) + "\n"
    assert run_cli(capsys, *argv, "--format", "csv") == (code, expected, "")


def test_test_subcommand_bad_depth(capsys, hand_csv):
    code, _, err = run_cli(capsys, "test", "--input", hand_csv, "--d", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "test", "--input", hand_csv, "--d", "5")
    assert code == 2


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_test_subcommand_is_scale_invariant_at_1e160(capsys, tmp_path):
    from trimcusum import sample_iid, two_sided_pareto

    x = sample_iid(two_sided_pareto(1.5), 50, 1)
    reports = []
    for scale in (1.0, 1e160):
        path = tmp_path / f"scaled-{scale:g}.csv"
        path.write_text("".join(f"{v!r}\n" for v in (x * scale).tolist()))
        code, out, _ = run_cli(
            capsys, "test", "--input", str(path), "--d", "4", "--resample-B", "200"
        )
        reports.append((code, _strict_json(out)))
    (code, base), (scaled_code, scaled) = reports
    assert scaled_code == code
    assert base["statistic"] == pytest.approx(0.651194, rel=1e-5)
    for key in ("statistic", "critical_value_resampled"):
        assert scaled[key] == pytest.approx(base[key], rel=1e-5), key
    assert scaled["sigma_hat"] == pytest.approx(base["sigma_hat"] * 1e160, rel=1e-5)
    assert scaled["reject"] == base["reject"]
    for key in ("change_at", "degenerate_path"):
        assert scaled[key] == base[key], key


def test_test_subcommand_where_the_trimmed_values_sum_past_the_float_range(capsys, tmp_path):
    reports = []
    for scale in (1.0, 1e308):
        path = tmp_path / f"scaled-{scale:g}.csv"
        path.write_text("".join(f"{v * scale!r}\n" for v in (1.5, 1.0, 1.0, 0.5)))
        code, out, _ = run_cli(
            capsys, "test", "--input", str(path), "--d", "2", "--resample-B", "50"
        )
        assert code == 0
        reports.append(_strict_json(out))
    base, scaled = reports
    for key in ("statistic", "critical_value_resampled"):
        assert scaled[key] == pytest.approx(base[key], rel=1e-12), key
    assert scaled["sigma_hat"] == pytest.approx(base["sigma_hat"] * 1e308, rel=1e-12)
    for key in ("change_at", "degenerate_path"):
        assert scaled[key] == base[key], key


def test_test_subcommand_locates_a_change_where_the_path_passes_the_float_range(
    capsys, tmp_path
):
    # the path's points 2..6 are inf; the change is at its true peak, k = 4
    path = tmp_path / "huge.csv"
    path.write_text("1e308\n" * 4 + "-1e308\n" * 4)
    code, out, _ = run_cli(capsys, "test", "--input", str(path), "--d", "2")
    assert code == 1
    report = _strict_json(out)
    assert (report["change_at"], report["degenerate_path"]) == (4, False)
    assert report["statistic"] == pytest.approx(math.sqrt(2.0), rel=1e-5)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "20", "--reps", "10", "--d", "1"),
        ("simulate", "--n", "40,20", "--reps", "10", "--d", "20"),
        ("power", "--n", "20", "--reps", "10", "--d", "1"),
        ("diagnose", "--n", "500", "--reps", "5", "--d", "1"),
        ("diagnose", "--n", "500", "--reps", "5", "--d", "500"),
    ],
)
def test_every_depth_option_follows_the_cli_rule(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must satisfy 2 <= d < n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("quantile", "--seed", "1"),
        ("quantile", "--d", "3"),
        ("diagnose", "--n", "500", "--reps", "5", "--format", "csv"),
        ("diagnose", "--n", "500", "--reps", "5", "--level", "0.9"),
    ],
)
def test_options_a_subcommand_would_ignore_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("subcommand", ["simulate", "power", "diagnose"])
def test_seeds_past_128_bits_are_usage_errors(capsys, subcommand):
    # 2**128 would key the same Philox family as seed 0
    argv = (subcommand, "--n", "500", "--reps", "5", "--seed", str(2**128))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"must be an integer in [0, 2**128), got {2**128}" in err


def test_test_subcommand_rejects_a_resample_seed_past_128_bits(capsys, hand_csv):
    code, out, err = run_cli(
        capsys, "test", "--input", hand_csv, "--d", "2", "--resample-B", "10",
        "--seed", str(2**128),
    )
    assert code == 2
    assert out == ""
    assert "seed must be an integer in [0, 2**128)" in err


def test_one_parser_serves_every_call_without_carrying_state_over(capsys, tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("".join(f"{v}\n" for v in np.random.default_rng(3).standard_normal(40)))
    cli._parser.cache_clear()
    alone = run_cli(capsys, "quantile", "--level", "0.9")
    assert cli._parser() is cli._parser()

    code, out, _ = run_cli(capsys, "test", "--input", str(path), "--d", "5")
    assert json.loads(out)["config"]["d"] == 5
    code, out, _ = run_cli(capsys, "test", "--input", str(path))
    assert json.loads(out)["config"]["d"] == 3  # the default depth, floor(40**0.3)
    assert json.loads(out)["config"]["resample_B"] is None
    assert run_cli(capsys, "quantile", "--level", "0.9") == alone

    code, _, err = run_cli(capsys, "test", "--input", str(path), "--no-such-option")
    assert code == 2 and "--no-such-option" in err
    code, _, err = run_cli(capsys, "quantile", "--level", "2")
    assert code == 2
    assert run_cli(capsys, "quantile", "--level", "0.9") == alone


def test_quantile_prints_tabulated_value(capsys):
    code, out, _ = run_cli(capsys, "quantile", "--level", "0.95")
    assert code == 0
    assert out == "1.3581\n"


def test_quantile_json(capsys):
    code, out, _ = run_cli(capsys, "quantile", "--level", "0.95", "--format", "json")
    doc = json.loads(out)
    assert doc["quantile"] == pytest.approx(1.3581, abs=5e-4)
    assert doc["config"]["level"] == 0.95


def test_quantile_bad_level(capsys):
    code, _, err = run_cli(capsys, "quantile", "--level", "1.5")
    assert code == 2


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--n", "20,40", "--reps", "50", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "n,critical_value"
    assert len(lines) == 4
    assert lines[-1].startswith("inf,")


def test_simulate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "20", "--reps", "20", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["config"]["subcommand"] == "simulate"
    assert doc["table"][-1][0] == "inf"


def test_power_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "power", "--n", "20", "--reps", "10", "--seed", "2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "shift,power"
    assert len(lines) == 62  # 61 default grid points
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= r <= 1.0 for r in rates)


@pytest.mark.parametrize(
    "options, change_at, critical",
    [
        ((), 10, None),  # the defaults: n // 2 and the asymptotic value at the level
        (("--change-at", "5", "--critical-value", "1.2"), 5, 1.2),
    ],
)
def test_power_json_echoes_the_change_and_the_critical_value(capsys, options, change_at, critical):
    argv = ("power", "--n", "20", "--reps", "10", "--seed", "2", *options)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["change_at"] == change_at
    if critical is None:
        critical = sup_bridge_quantile(0.95)
    assert doc["config"]["critical_value"] == critical
    csv_rows = run_cli(capsys, *argv)[1].splitlines()[1:]
    assert [f"{s!r},{p!r}" for s, p in doc["points"]] == csv_rows


def test_power_rejects_a_nan_critical_value(capsys):
    code, out, err = run_cli(
        capsys, "power", "--n", "20", "--reps", "10", "--critical-value", "nan"
    )
    assert code == 2
    assert out == ""
    assert "critical_value must be positive" in err


def test_resample_subcommand(capsys, hand_csv):
    code, out, _ = run_cli(
        capsys, "resample", "--input", hand_csv, "--d", "2", "--reps", "40", "--mode", "bootstrap"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "value,level,B,standard_error"
    value = float(lines[1].split(",")[0])
    assert value > 0.0


@pytest.mark.parametrize("mode", ["bootstrap", "permutation"])
def test_resample_json_is_the_csv_estimate_with_its_config(capsys, hand_csv, mode):
    argv = ("resample", "--input", hand_csv, "--d", "2", "--reps", "40", "--mode", mode)
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"] == {
        "subcommand": "resample", "input": hand_csv, "d": 2, "m": 5, "mode": mode,
        "B": 40, "level": 0.95, "seed": 5,
    }
    row = run_cli(capsys, *argv, "--seed", "5")[1].splitlines()[1]
    assert row == f"{doc['critical_value']!r},0.95,40,{doc['standard_error']!r}"


def test_resample_and_test_name_a_constant_sample_alike(capsys, tmp_path):
    # the resampler raises the kernel's error, as the statistic does: exit 3
    path = tmp_path / "flat.csv"
    path.write_text("2\n" * 20)
    resampled = run_cli(capsys, "resample", "--input", str(path), "--d", "2")
    assert resampled == run_cli(capsys, "test", "--input", str(path), "--d", "2")
    assert resampled == (
        3, "", "trimcusum: the trimmed sum of squares is zero (identical retained values) "
        "or not finite\n",
    )


def test_diagnose_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "diagnose", "--n", "500", "--reps", "20", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert "centering" in doc and "gap_medians" in doc
    assert doc["gap_medians"]["uncentered"] >= 0.0


@pytest.mark.parametrize(
    "argv, named",
    [
        # replicate 0 holds two draws past the float range: its trim threshold is inf
        (("--n", "1000", "--alpha", "0.01", "--d", "2", "--reps", "50"), "replicate 0 (master seed 0"),
        # H^-1(31/1e5) passes the float range at alpha = 0.01
        (("--n", "100000", "--alpha", "0.01"), "alpha=0.01, d=31, n=100000"),
    ],
)
def test_diagnose_at_an_extreme_tail_index_is_a_usage_error(capsys, argv, named):
    code, out, err = run_cli(capsys, "diagnose", *argv)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize(
    "subcommand, n, replicate, ending",
    [
        ("simulate", 200, 4, "no statistic"),
        ("power", 200, 4, "no statistic at shift -3.0"),
        ("diagnose", 1000, 0, "no diagnostic"),
    ],
)
def test_draws_past_the_float_range_are_named_alike(capsys, subcommand, n, replicate, ending):
    # at d = 2 the replicate holds two draws past the float range: its trim
    # threshold is inf, which is the cause every subcommand names (simulate
    # and power once named the NaN sum of squares that follows from it)
    code, out, err = run_cli(
        capsys, subcommand, "--n", str(n), "--alpha", "0.01", "--d", "2", "--reps", "500"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"trimcusum: replicate {replicate} (master seed 0, n={n}, d=2) has 2 or more draws "
        f"past the float range, so its trim threshold is inf and it has {ending}\n"
    )


def test_output_file(capsys, tmp_path, hand_csv):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "test", "--input", hand_csv, "--d", "2", "--output", str(out_path)
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["statistic"] == pytest.approx(0.65754, abs=1e-5)


def test_output_into_a_missing_directory_is_a_data_error(capsys, tmp_path, hand_csv):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "test", "--input", hand_csv, "--output", str(target))
    assert (code, out) == (3, "")
    assert err.startswith(f"trimcusum: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b", "--n expects a comma-separated list of integers, got 'a,b'"),
        ("100,x", "--n expects a comma-separated list of integers, got '100,x'"),
        (",", "--n list is empty"),
        (" , ", "--n list is empty"),
    ],
)
def test_a_malformed_n_list_is_a_usage_error(capsys, text, message):
    assert run_cli(capsys, "simulate", "--n", text, "--reps", "10") == (
        2, "", f"trimcusum: {message}\n"
    )


def test_missing_input_is_data_error(capsys):
    code, _, err = run_cli(capsys, "test", "--input", "/nonexistent.csv")
    assert code == 3


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_workers_env_override(capsys, monkeypatch):
    monkeypatch.setenv("TRIMCUSUM_WORKERS", "not-a-number")
    code, _, err = run_cli(capsys, "simulate", "--n", "20", "--reps", "10")
    assert code == 2
    monkeypatch.setenv("TRIMCUSUM_WORKERS", "2")
    code, out, _ = run_cli(capsys, "simulate", "--n", "20", "--reps", "10")
    assert code == 0


def test_workers_flag_beats_env(capsys, monkeypatch):
    import trimcusum.cli as cli

    seen = []
    real = cli.critical_value_table

    def spy(spec, n_list, workers=1):
        seen.append(workers)
        return real(spec, n_list, workers=1)

    monkeypatch.setattr(cli, "critical_value_table", spy)
    argv = ("simulate", "--n", "20", "--reps", "10")
    monkeypatch.setenv("TRIMCUSUM_WORKERS", "3")
    assert run_cli(capsys, *argv, "--workers", "2")[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("TRIMCUSUM_WORKERS", "not-a-number")
    assert run_cli(capsys, *argv, "--workers", "1")[0] == 0
    monkeypatch.delenv("TRIMCUSUM_WORKERS")
    assert run_cli(capsys, *argv)[0] == 0
    assert seen == [2, 3, 1, 1]


@pytest.mark.parametrize("subcommand", ["simulate", "power", "diagnose"])
@pytest.mark.parametrize("flag, env", [("0", None), ("-1", None), (None, "0")])
def test_a_worker_count_below_one_is_a_usage_error(capsys, monkeypatch, subcommand, flag, env):
    argv = [subcommand, "--n", "500", "--reps", "5"]
    if flag is not None:
        argv += ["--workers", flag]
    if env is None:
        monkeypatch.delenv("TRIMCUSUM_WORKERS", raising=False)
    else:
        monkeypatch.setenv("TRIMCUSUM_WORKERS", env)
    assert run_cli(capsys, *argv) == (2, "", "trimcusum: worker count must be at least 1\n")


def test_diagnose_without_replicates_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "diagnose", "--n", "500", "--reps", "0")
    assert (code, out, err) == (2, "", "trimcusum: reps must be at least 1\n")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "trimcusum.cli", "quantile", "--level", "0.95"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.3581\n"


# Runs CLI commands in a fresh interpreter where importing scipy fails, and
# prints each one's exit code and standard output as JSON.
_SCIPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from trimcusum.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    runs.append([code, buf.getvalue()])
loaded = [m for m in sys.modules if m.startswith("scipy.")]
print(json.dumps({"runs": runs, "loaded": loaded}))
"""


def test_pareto_paths_run_without_scipy(capsys, tmp_path):
    # the Kolmogorov law is the standard library's and the normal law is
    # imported only by the Gaussian family and diagnose, so every Pareto path
    # of the command line runs, with the same output, where scipy is missing
    from trimcusum import sample_iid, two_sided_pareto

    path = tmp_path / "series.csv"
    series = sample_iid(two_sided_pareto(1.5), 300, seed=4).tolist()
    path.write_text("".join(f"{v!r}\n" for v in series))
    commands = [
        ["quantile", "--level", "0.95"],
        ["quantile", "--level", "0.5", "--format", "json"],
        ["test", "--input", str(path), "--resample-B", "200", "--mode", "permutation"],
        ["test", "--input", str(path), "--resample-B", "200", "--mode", "bootstrap"],
        ["simulate", "--n", "200,50", "--reps", "300"],
        ["simulate", "--n", "100", "--reps", "300", "--family", "one_sided_pareto"],
        ["power", "--n", "100", "--reps", "100"],
        ["resample", "--input", str(path), "--reps", "200"],
    ]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, check=True,
    )
    blocked = json.loads(proc.stdout)
    assert blocked["loaded"] == []
    for argv, (code, out) in zip(commands, blocked["runs"], strict=True):
        assert code == 0, argv
        assert run_cli(capsys, *argv)[:2] == (0, out), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("diagnose", "--n", "2000", "--reps", "10"),
        ("simulate", "--family", "gaussian", "--n", "100", "--reps", "10"),
    ],
)
def test_a_missing_scipy_is_a_one_line_usage_error(capsys, monkeypatch, argv):
    # diagnose and the Gaussian family load scipy.special; without scipy they
    # print one line naming it and exit 2, not 1, the status of a rejection
    monkeypatch.setitem(sys.modules, "scipy", None)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("trimcusum: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "scipy" in err


def test_gaussian_simulation_is_the_same_for_any_worker_count(capsys):
    # the parent loads the normal law when it builds the model, and the
    # forked workers inherit it
    argv = ("simulate", "--n", "300,100", "--reps", "600", "--family", "gaussian")
    code, out, _ = run_cli(capsys, *argv, "--workers", "1")
    assert code == 0
    assert run_cli(capsys, *argv, "--workers", "2")[:2] == (0, out)
