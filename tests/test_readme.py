"""The limits README states must be the limits the code enforces."""

import argparse
import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sepsim.core
import sepsim.forward
import sepsim.moments
from sepsim.cli import build_parser, main
from sepsim.core import MAX_REPLICAS, ROUND_CAP, Configuration, ModelParams, check_replicas
from sepsim.dual import transient_dual_moment
from sepsim.errors import ResourceError
from sepsim.exact import MAX_EXACT_SIZE
from sepsim.forward import _DRAW_LANES, CHUNK_WORDS, transient_moment
from sepsim.ladder import MAX_LADDER_SIZE

README = Path(__file__).resolve().parents[1] / "README.md"


def text():
    """README with every line break and indent read as one space."""
    return " ".join(README.read_text().split())


def stated(pattern):
    """Groups of the one match of pattern in README."""
    found = re.findall(pattern, text())
    assert len(found) == 1, f"README states {pattern!r} {len(found)} times"
    return found[0]


def test_round_cap():
    # the round caps of the absorbing and timed samplers and the Euler step cap
    caps = re.findall(r"\b\d,\d{3},\d{3}\b", text())
    assert len(caps) == 3
    assert {int(cap.replace(",", "")) for cap in caps} == {ROUND_CAP}


def test_duality_check_time_cap(monkeypatch):
    # At S=10 the clock runs 2**4 = 16 rounds per unit time.
    time = float(stated(r"at `S = 10`, about `--time ([\d.e]+)`"))
    assert time == float(f"{ROUND_CAP / 2 ** (10).bit_length():.2g}")
    # The same bound at a cap of 160 rounds is t = 10.
    monkeypatch.setattr(sepsim.core, "ROUND_CAP", 160)
    p = ModelParams(size=10)
    c0 = Configuration.from_interior_string("1111100000")
    transient_moment(p, c0, 10.0, (3,), 4, p.stream(0))
    with pytest.raises(ResourceError):
        transient_moment(p, c0, 10.001, (3,), 4, p.stream(0))


def test_duality_check_dual_time_cap(monkeypatch):
    # The dual clock runs 2K rounds per unit time, K the smallest power of two
    # >= k; at S=10 it outruns the forward clock of 16 from k = 9 on.
    k, rate, time = stated(
        r"at `S = 10` from (\d+) points on, `2K = (\d+)` and about `--time ([\d.e]+)`"
    )
    assert int(k) == 2 ** ((10).bit_length() - 1) + 1
    assert int(rate) == 2 * 16
    assert float(time) == float(f"{ROUND_CAP / int(rate):.2g}")
    # The same bounds at a cap of 160 rounds: t = 40 for a pair (2K = 4),
    # t = 10 for 8 points (2K = 16), t = 5 for 9 points (2K = 32).
    monkeypatch.setattr(sepsim.core, "ROUND_CAP", 160)
    p = ModelParams(size=10)
    c0 = Configuration.from_interior_string("1111100000")
    for pts, limit in [((3, 7), 40.0), (tuple(range(1, 9)), 10.0), (tuple(range(1, 10)), 5.0)]:
        transient_dual_moment(p, pts, c0, limit, 4, p.stream(0))
        with pytest.raises(ResourceError):
            transient_dual_moment(p, pts, c0, limit * 1.0001, 4, p.stream(0))


def test_exact_size_cap():
    # the feature list and the `exact` description state the same cap
    sizes = re.findall(r"`S <= (\d+)`", text())
    assert len(sizes) == 2
    assert {int(size) for size in sizes} == {MAX_EXACT_SIZE}


def test_replica_cap():
    exponent = stated(r"refuse more than `10\^(\d+)` replicas")
    assert 10 ** int(exponent) == MAX_REPLICAS


def test_replica_row_cap():
    factor, exponent = stated(r"refuses more than `(\d+)\*10\^(\d+)` replica-rows")
    cap = int(factor) * 10 ** int(exponent)
    assert cap == 32 * MAX_REPLICAS
    # S + 2 = 1002 occupancy rows at S = 1000
    mantissa, exponent = stated(
        r"at `S = 1000` the forward sampler refuses more than `([\d.]+)\*10\^(\d+)` replicas"
    )
    assert float(mantissa) * 10 ** int(exponent) == float(f"{cap // 1002:.3g}")
    check_replicas(cap // 1002, 1002)
    with pytest.raises(ResourceError, match="1002 bit rows"):
        check_replicas(cap // 1002 + 1, 1002)
    # (500 + 2) * 10 position-plane rows for 500 points at S = 1000
    mantissa, exponent = stated(r"`dual` at 500 points more than `([\d.]+)\*10\^(\d+)`")
    assert float(mantissa) * 10 ** int(exponent) == float(f"{cap // 5020:.3g}")


def test_aux_size_cap():
    size = int(stated(r"`S\^2 - 1` steps on average, so sizes above `S = (\d+)`"))
    assert size**2 - 1 <= ROUND_CAP < (size + 1) ** 2 - 1


def test_ladder_size_cap():
    size = int(stated(r"so sizes above `S = (\d+)` are refused with exit code 4\. \* `odes`"))
    assert size == MAX_LADDER_SIZE


def test_odes_euler_step_cap(monkeypatch, tmp_path):
    step, time = stated(r"at `S >= 3` the step is (1/\d+), so about `--time ([\d.e]+)`")
    assert float(time) == ROUND_CAP * Fraction(step)
    # The same bound at a cap of 80 steps is t = 80 * step.
    monkeypatch.setattr(sepsim.moments, "ROUND_CAP", 80)
    limit = 80 * Fraction(step)
    out = str(tmp_path / "m.json")
    for size in ("3", "30"):
        argv = ["odes", "--size", size, "--format", "json", "--output", out, "--time"]
        assert main([*argv, str(float(limit))]) == 0
        assert main([*argv, str(float(limit) * 1.001)]) == 4


def test_simulate_lane_round_cap(monkeypatch, tmp_path):
    size = int(stated(r"at the default 32 replicas and 200 samples, every size above `S = (\d+)`"))
    # The engine is stubbed: only the cap decides.
    monkeypatch.setattr(
        sepsim.forward, "_exact_start", lambda s, w, gen: np.zeros((s + 2, w), np.uint64)
    )
    monkeypatch.setattr(sepsim.forward, "_run_rounds", lambda *_: 0)
    out = str(tmp_path / "sim.json")
    argv = ["simulate", "--points", "1", "--format", "json", "--output", out, "--size"]
    assert main([*argv, str(size)]) == 0
    assert main([*argv, str(size + 1)]) == 4


def test_simulate_chunk_size():
    chunks = re.findall(r"(\d+,\d{3}) (?:lanes )?at a time", text())
    assert len(chunks) == 2
    assert {int(c.replace(",", "")) for c in chunks} == {64 * CHUNK_WORDS}
    assert int(stated(r"in blocks of (\d+,\d{3}) lanes").replace(",", "")) == _DRAW_LANES


def command_lines():
    """argv of each `sepsim ...` line in README's command-line block, comments cut."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("sepsim ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_command_lines_parse():
    # Every example parses as it stands, so a renamed or removed flag cannot
    # leave a stale one; every command has an example.
    lines = command_lines()
    assert {argv[0] for argv in lines} == set(subcommands())
    parser = build_parser()
    for argv in lines:
        assert parser.parse_args(argv).command == argv[0]


def test_simulate_flags_in_readme_are_accepted():
    # Every flag the README's simulate example and bullet name must parse.
    (bullet,) = re.findall(r"\* `simulate` .*?(?= \* `)", text())
    examples = [" ".join(argv) for argv in command_lines() if argv[0] == "simulate"]
    assert len(examples) == 1
    flags = set(re.findall(r"--[a-z][a-z-]*", " ".join([bullet, *examples])))
    accepted = subcommands()["simulate"]._option_string_actions
    assert {"--size", "--replicas", "--samples", "--points", "--threads"} <= flags
    assert flags <= set(accepted), flags - set(accepted)
