import argparse
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from collections.abc import Generator
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepsim.cli
import sepsim.forward
import sepsim.moments
from sepsim.cli import build_parser, main


def run(args):
    return main(args)


def read_config_line(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: ") :])


def test_exact_writes_tables(tmp_path, capsys):
    out = tmp_path / "ex.csv"
    assert run(["exact", "--size", "2", "--deterministic", "--output", str(out)]) == 0
    assert "max |m1(x) - x/(S+1)|" in capsys.readouterr().err
    m2 = (tmp_path / "ex_m2.csv").read_text().splitlines()
    assert m2[1] == "x,y,m2"
    x, y, val = m2[2].split(",")
    assert (x, y) == ("1", "2")
    assert abs(float(val) - 1 / 6) < 1e-12
    pi_rows = (tmp_path / "ex_pi.csv").read_text().splitlines()[2:]
    probs = {row.split(",")[0]: float(row.split(",")[1]) for row in pi_rows}
    assert abs(probs["00"] - 1 / 6) < 1e-12
    assert abs(probs["01"] - 1 / 2) < 1e-12
    assert abs(probs["10"] - 1 / 6) < 1e-12
    assert abs(probs["11"] - 1 / 6) < 1e-12
    assert "rate" not in read_config_line(tmp_path / "ex_m1.csv")
    assert run(["exact", "--size", "2", "--format", "json", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["command"] == "exact"
    assert run(["exact", "--size", "2", "--deterministic"]) == 0
    assert capsys.readouterr().out.startswith("# config: ")


def test_exact_size_cap_exit_code(capsys):
    assert run(["exact", "--size", "21"]) == 4
    assert "error:" in capsys.readouterr().err


def test_exact_json_format(tmp_path):
    out = tmp_path / "ex.json"
    assert run(["exact", "--size", "3", "--format", "json", "--deterministic",
                "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["command"] == "exact"
    m1 = {x: v for x, v in doc["m1"]}
    assert abs(m1[2] - 0.5) < 1e-10


def test_simulate_profile_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = run([
        "simulate", "--size", "4", "--replicas", "6", "--samples", "40",
        "--threads", "1", "--deterministic", "--output", str(out),
    ])
    assert code == 0
    cfg = read_config_line(out)
    assert cfg["size"] == 4 and cfg["replicas"] == 6
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 4
    est = [float(r.split(",")[1]) for r in rows]
    assert all(0 <= e <= 1 for e in est)


def test_simulate_scientific_replica_count(tmp_path):
    out = tmp_path / "sim.csv"
    code = run([
        "simulate", "--size", "3", "--replicas", "1e1", "--samples", "10",
        "--threads", "1", "--deterministic", "--output", str(out),
    ])
    assert code == 0
    assert read_config_line(out)["replicas"] == 10


def test_simulate_json_reports_rounds(tmp_path):
    out = tmp_path / "sim.json"
    code = run([
        "simulate", "--size", "4", "--replicas", "6", "--samples", "20",
        "--threads", "1", "--format", "json", "--deterministic", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert isinstance(doc["rounds"], int)
    assert 0 < doc["total_events"] <= doc["rounds"] * 6 * 20


@pytest.mark.parametrize("flag", ["--replicas", "--samples"])
def test_simulate_refuses_oversize_run(flag, capsys, monkeypatch):
    # Refused on its lane-rounds before a lane is allocated or drawn.
    monkeypatch.setattr(sepsim.forward, "_exact_start", None)
    argv = ["simulate", "--size", "4", "--replicas", "2", "--samples", "2", "--threads", "1"]
    assert run([*argv, flag, "1e19"]) == 4
    assert "error:" in capsys.readouterr().err


def test_simulate_budget_warning(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = run([
        "simulate", "--size", "4", "--replicas", "4", "--samples", "10",
        "--tol", "1e-6", "--threads", "1", "--deterministic",
        "--output", str(out),
    ])
    assert code == 0
    assert "warning" in capsys.readouterr().err


def test_simulate_tol_with_one_replica_warns_without_numpy(capsys):
    # One lane has no standard error: sepsim says so in place of numpy's
    # all-NaN warning, and the run still succeeds.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([
            "simulate", "--size", "4", "--replicas", "1", "--samples", "1",
            "--tol", "1e-6", "--deterministic",
        ])
    assert code == 0
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "warning: one lane has no standard error" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_simulate_tol_must_be_finite_and_positive(tol, monkeypatch, capsys):
    # Refused while parsing, before anything is drawn.
    monkeypatch.setattr(sepsim.forward, "_exact_start", None)
    with pytest.raises(SystemExit) as exc:
        # "=" so that argparse hands "-1" to the tolerance parser
        run(["simulate", "--size", "4", "--replicas", "4", "--samples", "5", f"--tol={tol}"])
    assert exc.value.code == 2
    assert "tolerance must be finite and > 0" in capsys.readouterr().err


def test_simulate_refuses_rounds_past_the_round_cap(monkeypatch, capsys):
    # One lane at S = 700 asks for 20,070,400 rounds, far below the lane-round
    # cap but past ROUND_CAP: refused before any lane is drawn or fired.
    def refuse(*_):
        raise AssertionError("engine ran")

    monkeypatch.setattr(sepsim.forward, "_exact_start", refuse)
    monkeypatch.setattr(sepsim.forward, "_run_rounds", refuse)
    assert run(["simulate", "--size", "700", "--replicas", "1", "--samples", "1"]) == 4
    assert "20070400 rounds per lane" in capsys.readouterr().err


def test_dual_csv_has_exact_column(tmp_path):
    out = tmp_path / "du.csv"
    code = run([
        "dual", "--size", "2", "--points", "1,2", "--replicas", "2e4",
        "--deterministic", "--output", str(out),
    ])
    assert code == 0
    row = out.read_text().splitlines()[2].split(",")
    est, se, exact = float(row[1]), float(row[2]), float(row[3])
    assert abs(exact - 1 / 6) < 1e-12
    assert abs(est - exact) < 3.5 * se


def test_dual_exact_column_at_large_size(tmp_path):
    out = tmp_path / "du.json"
    code = run([
        "dual", "--size", "2000", "--points", "3,1500", "--replicas", "10",
        "--format", "json", "--deterministic", "--output", str(out),
    ])
    assert code == 0
    exact = json.loads(out.read_text())["exact"]
    assert exact == pytest.approx(3 * 1499 / (2000 * 2001), rel=1e-15)


def test_dual_exact_for_three_points(capsys):
    code = run([
        "dual", "--size", "12", "--points", "2,5,9", "--replicas", "10",
        "--format", "json", "--deterministic",
    ])
    assert code == 0
    exact = json.loads(capsys.readouterr().out)["exact"]
    assert abs(exact - 2 * 4 * 7 / (13 * 12 * 11)) < 1e-15


def test_ladder_size_cap_exit_code(capsys):
    assert run(["ladder", "--size", "513", "--start", "2,5"]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["4", "2,5,7"])
def test_ladder_start_needs_two_sites(start, capsys):
    assert run(["ladder", "--size", "8", "--start", start]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --start takes two sites")
    assert err.count("\n") == 1


def test_ladder_outputs(tmp_path):
    out = tmp_path / "lad.csv"
    code = run([
        "ladder", "--size", "16", "--start", "4,9", "--kmax", "10",
        "--deterministic", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "k,C_k,gamma_k,P_k"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 10
    assert "rate" not in read_config_line(out)
    for row in rows:
        assert float(row[1]) <= float(row[2])  # C_k <= gamma_k
    summary = json.loads((tmp_path / "lad_summary.json").read_text())["summary"]
    assert summary["P0"] >= summary["P_inf"]
    assert summary["slack"] >= 0


def test_odes_stationary_matches_exact(tmp_path):
    out = tmp_path / "od.csv"
    assert run(["odes", "--size", "4", "--deterministic", "--output", str(out)]) == 0
    m1 = (tmp_path / "od_m1.csv").read_text().splitlines()[2:]
    for row in m1:
        x, v = row.split(",")
        assert abs(float(v) - int(x) / 5) < 1e-9
    m2 = (tmp_path / "od_m2.csv").read_text().splitlines()[2:]
    assert len(m2) == 6


def test_odes_transient(tmp_path):
    out = tmp_path / "od.json"
    code = run([
        "odes", "--size", "4", "--time", "0.5", "--format", "json",
        "--deterministic", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["time"] == 0.5
    vals = [v for _, v in doc["m1"]]
    assert all(-1e-9 <= v <= 1 + 1e-9 for v in vals)


@pytest.mark.parametrize(
    "argv",
    [
        ["odes", "--size", "4"],
        ["ladder", "--size", "8", "--start", "2,5"],
        ["exact", "--size", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_has_no_tol_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--tol", "1e-9"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra,code",
    [
        (["--time", "nan"], 2),
        (["--time", "inf"], 2),
        (["--time", "1e12"], 4),
        (["--time", "1e300"], 4),
    ],
    ids=["time-nan", "time-inf", "time-1e12", "time-1e300"],
)
def test_odes_refuses_unusable_time_and_rate(extra, code, capsys):
    assert run(["odes", "--size", "4"] + extra) == code
    assert "error:" in capsys.readouterr().err


def test_duality_check_json(tmp_path):
    out = tmp_path / "dc.json"
    code = run([
        "duality-check", "--size", "6", "--points", "2,5", "--time", "1.5",
        "--replicas", "3e4", "--deterministic", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["initial"] == "111000"
    z = (doc["lhs"] - doc["rhs"]) / np.hypot(doc["lhs_se"], doc["rhs_se"])
    assert abs(doc["z"] - z) < 1e-12


def test_duality_check_z_is_nan_without_a_stderr(tmp_path):
    # One replica gives NaN standard errors, so the discrepancy has no scale.
    out = tmp_path / "dc.json"
    code = run([
        "duality-check", "--size", "4", "--points", "2", "--time", "1",
        "--replicas", "1", "--deterministic", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.isnan(doc["lhs_se"]) and np.isnan(doc["rhs_se"])
    assert np.isnan(doc["z"])


@pytest.mark.parametrize("replicas", ["inf", "-inf", "1e400", "nan"])
def test_replica_count_refuses_non_finite(replicas, capsys):
    with pytest.raises(SystemExit) as exc:
        # "=" so that argparse hands "-inf" to the count parser
        run(["dual", "--size", "10", "--points", "3,7", f"--replicas={replicas}"])
    assert exc.value.code == 2
    assert "not a count" in capsys.readouterr().err


@pytest.mark.parametrize("replicas", ["2.7", "1.9", "0.5", "1e-1", "1000.5"])
def test_replica_count_refuses_fractions(replicas, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["dual", "--size", "10", "--points", "3,7", "--replicas", replicas])
    assert exc.value.code == 2
    assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize("text,count", [("1e6", 10**6), ("2.0", 2), ("7", 7), ("2.5e3", 2500)])
def test_replica_count_accepts_whole_numbers(text, count):
    argv = ["dual", "--size", "10", "--points", "3,7", "--replicas", text]
    assert build_parser().parse_args(argv).replicas == count


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "--size", "5", "--points", "2,,4"],
        ["ladder", "--size", "16", "--start", "4,,9"],
        ["sweep", "--grid", "8,,16"],
    ],
    ids=["points", "start", "grid"],
)
def test_int_list_refuses_an_empty_item(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "not a comma-separated int list" in capsys.readouterr().err


def test_duality_check_custom_initial(tmp_path):
    out = tmp_path / "dc.json"
    code = run([
        "duality-check", "--size", "4", "--points", "2", "--time", "1.0",
        "--replicas", "1e3", "--initial", "0101", "--deterministic",
        "--output", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["config"]["initial"] == "0101"
    assert run([
        "duality-check", "--size", "4", "--points", "2", "--time", "1.0",
        "--replicas", "1e3", "--initial", "01",
    ]) == 2


def test_duality_check_refuses_non_binary_initial(capsys):
    assert run([
        "duality-check", "--size", "4", "--points", "2,3", "--time", "1",
        "--initial", "1a01",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'1a01'" in err


@pytest.mark.parametrize("time,code", [("1e19", 4), ("1e9", 4), ("inf", 2)])
def test_duality_check_refuses_unusable_time(time, code, capsys):
    assert run([
        "duality-check", "--size", "10", "--points", "3,7", "--time", time,
        "--replicas", "10",
    ]) == code
    assert "error:" in capsys.readouterr().err


def test_duality_check_at_time_zero_with_one_replica_has_nan_z(capsys):
    # Both samplers read the start, and one replica has no standard error.
    assert run([
        "duality-check", "--size", "10", "--points", "3,7", "--time", "0",
        "--replicas", "1", "--deterministic",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lhs"] == doc["rhs"] == 0.0
    assert all(math.isnan(doc[key]) for key in ("lhs_se", "rhs_se", "z"))


def test_duality_check_rejects_points_before_sampling(monkeypatch, capsys):
    import sepsim.cli

    def sampler(*args):
        raise AssertionError("a sampler ran before the points were checked")

    monkeypatch.setattr(sepsim.cli, "transient_moment", sampler)
    monkeypatch.setattr(sepsim.cli, "transient_dual_moment", sampler)
    assert run(["duality-check", "--size", "10", "--points", "0,7", "--time", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_duality_check_refuses_lane_rows_past_the_cap(monkeypatch, capsys):
    # 10^8 replicas of 1,002 occupancy rows at S = 1000 would ask np.repeat
    # for 11.7 GiB of words: refused with exit 4 before any draw or lane array.
    def refuse(*_, **__):
        raise AssertionError("the sampler drew or allocated before refusing")

    monkeypatch.setattr(sepsim.forward, "timed_rounds", refuse)
    monkeypatch.setattr(np, "repeat", refuse)
    assert run(["duality-check", "--size", "1000", "--points", "500", "--time", "1",
                "--replicas", "1e8"]) == 4
    assert "100000000 replicas of 1002 bit rows" in capsys.readouterr().err


def test_dual_refuses_lane_rows_past_the_cap(monkeypatch, capsys):
    # 500 points at S = 1000 hold (500 + 2) * 10 position-plane rows per 64
    # replicas; 10^8 replicas would ask np.repeat for 58.4 GiB of words.
    def refuse(*_, **__):
        raise AssertionError("the sampler allocated before refusing")

    monkeypatch.setattr(np, "repeat", refuse)
    points = ",".join(str(x) for x in range(1, 501))
    assert run(["dual", "--size", "1000", "--points", points, "--replicas", "1e8"]) == 4
    assert "100000000 replicas of 5020 bit rows" in capsys.readouterr().err


def test_duality_check_refuses_either_cap_before_either_sampler(monkeypatch, capsys):
    # Ten points at S = 10: the forward sampler's 12 rows fit 10^8 replicas,
    # the dual's 12 * 4 rows do not, so the run is refused before the forward
    # sampler runs.
    def sampler(*_):
        raise AssertionError("a sampler ran before both caps were checked")

    monkeypatch.setattr(sepsim.cli, "transient_moment", sampler)
    monkeypatch.setattr(sepsim.cli, "transient_dual_moment", sampler)
    assert run(["duality-check", "--size", "10", "--points", "1,2,3,4,5,6,7,8,9,10",
                "--time", "1", "--replicas", "1e8"]) == 4
    assert "100000000 replicas of 48 bit rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "points,time",
    [
        # forward 2^4 t = 3.2e6 rounds fit the cap, the dual's 2 * 16 t = 6.4e6 do not
        ("1,2,3,4,5,6,7,8,9,10", "200000"),
        # forward 2^4 t = 6.4e6 rounds do not fit, the dual's 2 * 2 t = 1.6e6 do
        ("3,7", "400000"),
    ],
)
def test_duality_check_refuses_either_round_cap_before_either_sampler(
    points, time, monkeypatch, capsys
):
    def sampler(*_):
        raise AssertionError("a sampler ran before both round caps were checked")

    monkeypatch.setattr(sepsim.cli, "transient_moment", sampler)
    monkeypatch.setattr(sepsim.cli, "transient_dual_moment", sampler)
    assert run(["duality-check", "--size", "10", "--points", points, "--time", time,
                "--replicas", "64"]) == 4
    assert "6.4e+06 rounds per replica expected" in capsys.readouterr().err


def test_closed_stdout_ends_the_output_quietly():
    # exact --size 14 writes about 500 kB of CSV, far more than a pipe holds,
    # so the writer is still writing when the reader closes after one line.
    # Its stderr holds its status line and nothing else.
    env = {**os.environ, "PYTHONPATH": str(Path(sepsim.cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepsim.cli", "exact", "--size", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"# config: ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err.startswith(b"max |m1(x) - x/(S+1)| = ") and err.count(b"\n") == 1


def test_sweep_outputs_and_slope(tmp_path):
    out = tmp_path / "sw.csv"
    code = run([
        "sweep", "--alphas", "0.3,0.7", "--grid", "16,32,64",
        "--deterministic", "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "S,x1,x2,m2,target,abs_err"
    assert len(lines) == 5
    assert "rate" not in read_config_line(out)
    summary = json.loads((tmp_path / "sw_summary.json").read_text())["summary"]
    assert summary["target"] == pytest.approx(0.21)
    assert summary["slope"] < 0


def test_sweep_beyond_former_solver_limits(tmp_path):
    out = tmp_path / "sw.json"
    code = run([
        "sweep", "--grid", "2048,20000,100000", "--format", "json",
        "--deterministic", "--output", str(out),
    ])
    assert code == 0
    for s, x1, x2, m2, _, _ in json.loads(out.read_text())["rows"]:
        n = s + 1
        want = x1 * x2 / n**2 - x1 * (n - x2) / (s * n**2)
        assert abs(m2 - want) < 1e-15


def test_sweep_rejects_equal_alphas(capsys):
    assert run(["sweep", "--alphas", "0.4,0.4", "--grid", "8,16"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_repeated_sizes(capsys):
    # A repeated size would fit the slope through fewer distinct points than rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sweep", "--grid", "8,16,8"]) == 2
    err = capsys.readouterr().err
    assert "error: grid sizes must be distinct" in err
    assert "Warning" not in err


def test_aux_table(tmp_path):
    out = tmp_path / "aux.csv"
    code = run([
        "aux", "--size", "10", "--kmax", "3", "--replicas", "2e4",
        "--deterministic", "--output", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    for k, row in zip((1, 2, 3), rows):
        assert abs(float(row[1]) - 0.9**k) < 1e-12
        assert abs(float(row[2]) - float(row[1])) < 4 * float(row[3])


def test_aux_refuses_size_beyond_round_cap(capsys):
    # The mean move count is S^2 - 1 = 4e8 at S = 20000, far above the cap.
    assert run(["aux", "--size", "20000", "--replicas", "4"]) == 4
    assert "moves per replica expected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["aux", "--size", "10", "--replicas", "1e13"],
        ["dual", "--size", "10", "--points", "3,7", "--replicas", "1e15"],
        ["duality-check", "--size", "10", "--points", "3,7", "--time", "1", "--replicas", "1e15"],
    ],
    ids=["aux", "dual", "duality-check"],
)
def test_replica_count_above_the_cap_exits_4(argv, capsys):
    # Refused before any replica array is allocated, so no MemoryError.
    assert run(argv) == 4
    assert "replicas asked for, cap is 1e+08" in capsys.readouterr().err


def test_aux_exits_3_when_walks_outlast_the_move_cap(monkeypatch, capsys):
    # 45 moves is not a whole number of chunks. At the default --kmax 3 a walk
    # at S = 10 closes at S or at its third return, after 26.1 moves on
    # average, but 16% of walks need more than 45, so some of 2000 do; a cap
    # of 45 chunks would let every one of them finish.
    import sepsim.core

    monkeypatch.setattr(sepsim.core, "ROUND_CAP", 45)
    assert run(["aux", "--size", "10", "--replicas", "2000"]) == 3
    assert "walks open after 45 moves" in capsys.readouterr().err


def test_deterministic_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["duality-check", "--size", "5", "--points", "2,4", "--time", "1.0",
            "--replicas", "2e3", "--deterministic"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timestamp_present_without_deterministic(tmp_path):
    out = tmp_path / "lad.csv"
    assert run(["ladder", "--size", "8", "--start", "2,5", "--kmax", "3",
                "--output", str(out)]) == 0
    assert "timestamp" in read_config_line(out)


def test_stdout_mode(capsys):
    assert run(["sweep", "--grid", "8,16", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert "# config:" in out
    assert "S,x1,x2,m2,target,abs_err" in out


SMALL_RUNS = {
    "exact": ["exact", "--size", "3"],
    "simulate": ["simulate", "--size", "4", "--replicas", "4", "--samples", "5",
                 "--threads", "1"],
    "dual": ["dual", "--size", "5", "--points", "2,4", "--replicas", "100"],
    "ladder": ["ladder", "--size", "8", "--start", "2,5", "--kmax", "3"],
    "odes": ["odes", "--size", "4"],
    "odes-size-1": ["odes", "--size", "1"],
    "duality-check": ["duality-check", "--size", "4", "--points", "2", "--time", "0.5",
                      "--replicas", "100"],
    "aux": ["aux", "--size", "6", "--kmax", "2", "--replicas", "100"],
    "sweep": ["sweep", "--grid", "8,16"],
}
CSV_FILES = {
    "exact": {"run_m1.csv", "run_m2.csv", "run_pi.csv"},
    "ladder": {"run.csv", "run_summary.json"},
    "sweep": {"run.csv", "run_summary.json"},
    "odes": {"run_m1.csv", "run_m2.csv"},
    "odes-size-1": {"run_m1.csv"},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_files_written_per_command(name, fmt, tmp_path):
    argv = SMALL_RUNS[name] + ["--deterministic", "--output", str(tmp_path / f"run.{fmt}")]
    if name == "duality-check":  # no --format: always one JSON file at --output
        want = {f"run.{fmt}"}
    else:
        argv += ["--format", fmt]
        want = CSV_FILES.get(name, {"run.csv"}) if fmt == "csv" else {"run.json"}
    assert run(argv) == 0
    assert {p.name for p in tmp_path.iterdir()} == want


def _subcommands():
    actions = build_parser()._actions
    (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


@pytest.mark.parametrize("name", _subcommands())
def test_command_has_no_rate_flag(name, tmp_path):
    # Time is in units of the bond rate, so no command takes or echoes a rate.
    with pytest.raises(SystemExit) as exc:
        run([*SMALL_RUNS[name], "--rate", "2"])
    assert exc.value.code == 2
    out = tmp_path / "run.json"
    argv = SMALL_RUNS[name] + ["--deterministic", "--output", str(out)]
    if name != "duality-check":  # always JSON, and has no --format
        argv += ["--format", "json"]
    assert run(argv) == 0
    assert "rate" not in json.loads(out.read_text())["config"]


# md5 of every file a --deterministic run writes, taken from the output of the
# row-by-row writer that the column writer replaced. A writer change that
# moves a byte fails here.
GOLDEN_MD5 = {
    "exact --size 1 --format csv": {
        "run_m1.csv": "2cfa821c113d0fbe65f6d6999200c0c9",
        "run_m2.csv": "b88e4b2f0067bafc7ffa65f296a64af9",
        "run_pi.csv": "067825d2e38192f38894f0b612271801",
    },
    "exact --size 1 --format json": {"run.json": "c123a0d2d84f2792bfad79aedbef608f"},
    "exact --size 2 --format csv": {
        "run_m1.csv": "92dd2ac54182c65590115e75dfd63209",
        "run_m2.csv": "0c2300c20e399aa83bfe593b421d7b19",
        "run_pi.csv": "d64bd5c8e53d21acfbba2110decb98e4",
    },
    "exact --size 2 --format json": {"run.json": "d56315c31895b15f74c9bf6c33ebc8ff"},
    "exact --size 5 --format csv": {
        "run_m1.csv": "fec66079bcddb0a305945e9cd54a4b3f",
        "run_m2.csv": "256fb08142190aa2c5749f2876e3b7cd",
        "run_pi.csv": "44ce46db5a14e789008df8fce86631d9",
    },
    "exact --size 5 --format json": {"run.json": "e3e68683f5478dfe663bfae8712b509f"},
    "exact --size 12 --format csv": {
        "run_m1.csv": "78befc1747b4f796a1aefafbbc8c28d8",
        "run_m2.csv": "a2f95daf7f2662a9f6d16434d58da00c",
        "run_pi.csv": "b758cc70e148cd8b9fdb367d2dde4307",
    },
    "exact --size 12 --format json": {"run.json": "2058ba209569f2dc940c92dd876b785e"},
    "odes --size 1 --format csv": {"run_m1.csv": "5dfaa242f125b4c33ae8ee1482f514ef"},
    "odes --size 1 --format json": {"run.json": "3c58d36f0102461c2a89d4cc54e0000f"},
    "odes --size 2 --format csv": {
        "run_m1.csv": "433bee76ba8380e51dea7d974e4096b2",
        "run_m2.csv": "943064eecad6441cb8c6bac08b097c66",
    },
    "odes --size 2 --format json": {"run.json": "fdbcb26225d80750bf30f237f82d7302"},
    "odes --size 6 --format csv": {
        "run_m1.csv": "237518fc2cd631ffbed6548384eefefa",
        "run_m2.csv": "02991796d9c25507b3746c9bc9bfd09c",
    },
    "odes --size 6 --format json": {"run.json": "dce0d7006f49fc0d7017de6da2f446b3"},
    "odes --size 30 --format csv": {
        "run_m1.csv": "ca8e6521915c3bdcd480025f5d4255b9",
        "run_m2.csv": "307c8a723e966d88a7d7da93b8a92879",
    },
    "odes --size 30 --format json": {"run.json": "8b904323719f6dcb09d2448d09d500da"},
    "odes --size 6 --time 5 --format csv": {
        "run_m1.csv": "67c11f26971b317cc6b2c798e1b44282",
        "run_m2.csv": "5770abb0056eb0c60c75fba6d09707ba",
    },
    "odes --size 6 --time 5 --format json": {"run.json": "91deaba93cdc436ec5b56adbae97bb68"},
    # The summaries, taken while they had a writer of their own beside _json_parts.
    "ladder --size 16 --start 4,9 --kmax 10 --format csv": {
        "run.csv": "18fe82e4ee36019925b8c5e85e365557",
        "run_summary.json": "3c352d8ce4d199f1693963a371b4dfff",
    },
    "sweep --grid 8,16 --format csv": {
        "run.csv": "9881296d475a665857ee4e28e76a62fb",
        "run_summary.json": "f2218ef0c76eb73b81da771a97ec9a2d",
    },
}


@pytest.mark.parametrize("chunk", [7, sepsim.cli._CHUNK_ROWS])
@pytest.mark.parametrize("command", sorted(GOLDEN_MD5))
def test_deterministic_output_bytes_are_unchanged(command, chunk, monkeypatch, tmp_path):
    monkeypatch.setattr(sepsim.cli, "_CHUNK_ROWS", chunk)  # 7: most tables span chunks
    fmt = command.split()[-1]
    assert run([*command.split(), "--deterministic", "--output", str(tmp_path / f"run.{fmt}")]) == 0
    digests = {p.name: hashlib.md5(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GOLDEN_MD5[command]


# md5 of the JSON each sampler writes under --deterministic, taken before the
# aux walk moved to byte tables and the dual repack to index gathers, and for
# the three-point duality-check before the round loop and the lane split moved
# to core. The simulate digests were re-taken when exact starts moved from a
# shuffled permutation to S insertion points, once the law tests passed, and
# again when the standard error moved from replica means to the binomial error
# of the lanes, which left estimates and events as they were. Each
# keeps every draw, so a kernel change that moves a bit fails here. At S = 70
# the 71 bonds need all 7 planes and the last word of 200 lanes is
# part-filled; three walkers leave index 3 idle.
SAMPLER_MD5 = {
    "aux --size 10 --kmax 3 --replicas 1e5 --format json": "bcd5d996ba610a154f5794fc5fef91e8",
    "aux --size 200 --kmax 100000 --replicas 1000 --format json": (
        "f6e6488f9499e4e59e6f15af6d7567d5"
    ),
    "dual --size 10 --points 3,7 --format json": "0ddc25fbff8a53c7eef6f76b1ac10c34",
    "dual --size 40 --points 10,20,30 --replicas 2e4 --format json": (
        "aade1b7c3828aadd07ee137686e8c8ea"
    ),
    "duality-check --size 10 --points 3,7 --time 5 --replicas 1e5": (
        "2cf2dfc05ab909896380e3a50a3e7bf2"
    ),
    "duality-check --size 40 --points 5,20,33 --time 3 --replicas 70001": (
        "1f508aa431f93237596b96fda9a6626d"
    ),
    "simulate --size 16 --replicas 32 --samples 1500 --format json": (
        "3c0681706c2d35cb4fa88c223a040d24"
    ),
    "simulate --size 10 --points 3,7 --replicas 8 --samples 300 --format json": (
        "ef8cdb724499e9c16f77dfb53b67714b"
    ),
    "simulate --size 70 --replicas 2 --samples 100 --format json": (
        "63d371311b632dc0cd94ff85c1cb740b"
    ),
}


@pytest.mark.parametrize("command", sorted(SAMPLER_MD5))
def test_deterministic_sampler_output_bytes_are_unchanged(command, tmp_path):
    out = tmp_path / "run.json"
    assert run([*command.split(), "--deterministic", "--output", str(out)]) == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == SAMPLER_MD5[command]


def test_odes_without_time_builds_no_matrix(monkeypatch, tmp_path):
    def refuse(size, k):
        raise AssertionError("odes built a moment matrix")

    monkeypatch.setattr(sepsim.moments, "_structure", refuse)
    assert run(["odes", "--size", "30", "--output", str(tmp_path / "m.csv")]) == 0
    assert run(["odes", "--size", "30", "--format", "json", "--output", str(tmp_path / "m.json")]) == 0


@pytest.mark.parametrize("fmt,calls", [("csv", 0), ("json", 1)])
def test_exact_builds_the_pi_payload_only_for_json(fmt, calls, monkeypatch, tmp_path):
    # The pi payload is a generator: its key order and its 2^S entries are
    # built in its body, which only the JSON writer runs.
    pis = []
    emit = sepsim.cli._emit

    def spy(args, config, payload, tables=()):
        pis.append(payload["pi"])
        emit(args, config, payload, tables)

    monkeypatch.setattr(sepsim.cli, "_emit", spy)
    out = tmp_path / f"ex.{fmt}"
    assert run(["exact", "--size", "4", "--format", fmt, "--output", str(out)]) == 0
    [pi] = pis
    assert isinstance(pi, Generator)
    assert inspect.getgeneratorstate(pi) == ("GEN_CLOSED" if calls else "GEN_CREATED")


@pytest.mark.parametrize("chunk", [7, sepsim.cli._CHUNK_ROWS])
def test_exact_json_streams_what_json_dumps_writes(chunk, monkeypatch, tmp_path):
    # The "pi" object goes out in chunks; the file must still be the
    # json.dumps text of its own content, sorted keys and indent included.
    monkeypatch.setattr(sepsim.cli, "_CHUNK_ROWS", chunk)
    out = tmp_path / "ex.json"
    assert run(["exact", "--size", "10", "--format", "json", "--output", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert len(doc["pi"]) == 1 << 10
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_json_parts_lay_out_nested_values_as_json_dumps():
    # The summaries of ladder and sweep go through the same writer as whole
    # documents; nested objects, lists and empty containers keep the layout.
    config = {"command": "x", "points": [3, 7], "seed": 1}
    payload = {"summary": {"b": [1.5, {"c": None, "a": []}], "a": {}}, "rows": [[1, 2.0]]}
    text = "".join(sepsim.cli._json_parts(config, payload))
    assert text == json.dumps({"config": config, **payload}, sort_keys=True, indent=2) + "\n"


def test_cli_import_loads_numpy_random_and_no_scipy():
    # A command imports nothing inside main that loading sepsim.cli could
    # have imported, and sepsim runs on numpy alone.
    src = Path(sepsim.cli.__file__).parent
    code = (
        "import sys, sepsim.cli; "
        "print([m for m in sys.modules if m.startswith('scipy')], 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(src.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "True"]
    for module in src.glob("*.py"):
        assert "scipy" not in module.read_text(), module.name


def _sepsim_child(code, **env):
    """stdout of `python -c code` with sepsim importable and OPENBLAS_NUM_THREADS as given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"} | env
    env["PYTHONPATH"] = str(Path(sepsim.cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_sepsim_runs_in_one_thread_by_default(tmp_path):
    # numpy's OpenBLAS would start an idle worker thread at import; importing
    # sepsim first pins it to one thread, and a ladder run (BLAS products)
    # starts none either.
    out = str(tmp_path / "ladder.csv")
    code = (
        "import os, sepsim.cli; n = len(os.listdir('/proc/self/task')); "
        f"sepsim.cli.main(['ladder', '--size', '64', '--start', '16,48', '--output', {out!r}]); "
        "print(os.environ['OPENBLAS_NUM_THREADS'], n, len(os.listdir('/proc/self/task')))"
    )
    assert _sepsim_child(code) == ["1", "1", "1"]
    assert (tmp_path / "ladder_summary.json").exists()


def test_sepsim_keeps_an_explicit_blas_thread_count():
    code = "import os, sepsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _sepsim_child(code, OPENBLAS_NUM_THREADS="2") == ["2"]


def test_output_in_a_missing_directory_is_refused_before_the_run(monkeypatch, capsys, tmp_path):
    def sampler(*_):
        raise AssertionError("the sampler ran before --output was checked")

    monkeypatch.setattr(sepsim.cli, "estimate_stationary_moments", sampler)
    out = tmp_path / "missing" / "run.json"
    assert run(["simulate", "--size", "3", "--format", "json", "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --output directory does not exist: {out}\n"


def test_output_naming_a_directory_is_refused(capsys, tmp_path):
    assert run(["sweep", "--grid", "8", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --output names a directory: {tmp_path}\n"
    assert not any(tmp_path.iterdir())


def test_a_file_that_cannot_be_written_is_a_one_line_error(capsys, tmp_path):
    # --output is a fine path, but the second table's file is a directory.
    (tmp_path / "run_m2.csv").mkdir()
    assert run(["exact", "--size", "3", "--output", str(tmp_path / "run.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: cannot write {tmp_path / 'run_m2.csv'}: Is a directory"
    assert len(err) == 2  # the status line, then the error; no traceback


def test_a_command_builds_only_its_own_subparser(monkeypatch, tmp_path):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run(["sweep", "--grid", "8", "--output", str(tmp_path / "sw.csv")]) == 0
    assert built == ["sweep"]
    built.clear()
    build_parser()
    assert sorted(built) == _subcommands()


def _exit_text(parse, argv, capsys):
    """The exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("extra", ["--help", "--bogus"])
@pytest.mark.parametrize("name", _subcommands())
def test_a_lone_subparser_prints_what_the_full_parser_prints(name, extra, monkeypatch, capsys):
    # A subcommand's help, its own errors and the top-level "unrecognized
    # arguments" error (which prints the top-level usage) read the same
    # whether main built one subparser or all of them.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in ([name, extra], [*SMALL_RUNS[name], extra]):
        lazy = _exit_text(main, argv, capsys)
        assert lazy == _exit_text(build_parser().parse_args, argv, capsys)
        assert any(lazy[1:])


TOP_USAGE = """\
usage: sepsim [-h]
              {exact,simulate,dual,ladder,odes,duality-check,aux,sweep} ...
"""
TOP_HELP = TOP_USAGE + """
boundary-driven exclusion process: simulation and exact checks

positional arguments:
  {exact,simulate,dual,ladder,odes,duality-check,aux,sweep}
    exact               exact stationary distribution and moments
    simulate            stationary moments by forward Monte Carlo
    dual                absorption probability of the dual walk
    ladder              meeting ladder between exclusion and free pairs
    odes                moment hierarchy: closed-form stationary field or
                        integration
    duality-check       forward and dual transient estimates of one moment
    aux                 reflected-walk return counts against the closed form
    sweep               two-point moment against the product limit

options:
  -h, --help            show this help message and exit
"""


def test_top_level_text_is_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_text(main, [], capsys) == (
        2, "", TOP_USAGE + "sepsim: error: the following arguments are required: command\n"
    )
    assert _exit_text(main, ["--help"], capsys) == (0, TOP_HELP, "")
    code, out, err = _exit_text(main, ["bogus", "--size", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(TOP_USAGE + "sepsim: error: argument command: invalid choice: 'bogus'")


# Values a float column formats alike by value but not by bit pattern, or
# that JSON spells its own way; drawn often, so columns repeat them.
ODD_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1]
COLUMN_VALUES = {
    "float": st.one_of(st.sampled_from(ODD_FLOATS), st.floats()),
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
}


@st.composite
def tables(draw):
    """Equal-length columns of Python floats, ints or bools, one to four of them."""
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_VALUES)), min_size=1, max_size=4))
    return [draw(st.lists(COLUMN_VALUES[k], min_size=n, max_size=n)) for k in kinds]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(columns=tables())
@example(columns=[[0.0, -0.0, 0.0, math.nan], [1, 2, 1, 2]])
def test_cells_print_each_value_as_str_and_json_do(columns):
    # Each distinct bit pattern is formatted once and spread back over its
    # rows; rows span chunks of 7, and 0.0 beside -0.0 must keep its sign.
    rows = [list(r) for r in zip(*columns)]
    arrays = [np.asarray(c) for c in columns]
    with mock.patch.object(sepsim.cli, "_CHUNK_ROWS", 7):
        csv = "".join(sepsim.cli._csv_lines({}, ["h"], arrays)).split("\n", 2)[2]
        text = "".join(sepsim.cli._json_table(arrays))
    assert csv == "".join(",".join(map(str, r)) + "\n" for r in rows)
    assert text == json.dumps(rows, sort_keys=True, indent=2).replace("\n", "\n  ")
