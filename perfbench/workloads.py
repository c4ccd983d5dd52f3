"""The three benchmark workloads, each a list of steps run one at a time.

Every step runs in its own fresh process, as a CLI user would run it, so the
lru_cache tables in ladder and moments start cold each time.

mc_stationary: few replicas with long trajectories. The scalar n-fold-way
  forward engine does nearly all the work; a vectorised engine has to win at
  this small replica width too.
mc_replicas: about 10^6 short replicas moved in numpy rounds with shrinking
  active sets, through the forward, dual and ladder samplers, including the
  hybrid sampler that has no CLI command. No linear algebra.
exact_solvers: no sampling. The sparse pair LU, the kernel-table LU, the
  Gauss-Seidel moment solve, Euler integration, power iteration and a
  16 384-row CSV carry the load.

The sampling workloads call no solver and the solver workload samples
nothing, so a change to one side must leave the other side's figures alone.
The small variants keep every step and check at toy sizes for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Step:
    """One command (or library call) and the checks on what it produced.

    name keys the per-step metrics: cli.<name> for a command, lib.<name> for
    a library call. check receives the output path (the file stem for
    multi-file CSV output) and the library call's return value. observe
    returns the work counts that rates are based on, given the output path.
    """

    name: str
    check: Callable[[Path, object], list[checks.Check]]
    argv: tuple[str, ...] = ()
    output: str = ""
    call: str = ""
    kwargs: dict = field(default_factory=dict)
    observe: Callable[[Path], dict[str, float]] | None = None

    @property
    def metric(self) -> str:
        return f"lib.{self.name}" if self.call else f"cli.{self.name}"


def _cli(name: str, argv: list, output: str, check, **extra) -> Step:
    return Step(
        name=name,
        argv=tuple(str(a) for a in argv),
        output=output,
        check=check,
        **extra,
    )


def _simulate_events(path: Path) -> dict[str, float]:
    return {"forward.events": float(checks.read_json(path)["total_events"])}


def mc_stationary(small: bool) -> list[Step]:
    size, replicas, samples = (6, 32, 400) if small else (16, 32, 1500)
    argv = ["simulate", "--size", size, "--replicas", replicas, "--samples", samples]
    argv += ["--threads", 1, "--format", "json", "--deterministic"]
    return [
        _cli(
            "simulate",
            argv,
            "simulate.json",
            lambda out, _: checks.check_profile_mc(out, size),
            observe=_simulate_events,
        )
    ]


def _ladder_rung(size: int, x: int, y: int, k: int) -> float:
    """Reference for the hybrid sampler: rung k of the kernel-table ladder."""
    from sepsim.core import ModelParams
    from sepsim.ladder import ladder_tables

    return float(ladder_tables(ModelParams(size=size), x, y, k_max=k).p[k])


def mc_replicas(small: bool) -> list[Step]:
    size, t = 10, 5.0
    n_fwd, n_dual, n_aux, n_hyb = (2e4, 2e4, 2e4, 1e4) if small else (1e6, 5e5, 1e6, 1e5)
    hyb = {"size": 16, "x": 4, "y": 9, "k": 2, "replicas": int(n_hyb)}
    return [
        _cli(
            "duality-check",
            ["duality-check", "--size", size, "--points", "3,7", "--time", t,
             "--replicas", f"{n_fwd:g}", "--deterministic"],
            "duality-check.json",
            lambda out, _: checks.check_duality(out),
            observe=lambda _: {"forward.replica_events": n_fwd * (size + 1) * t},
        ),
        _cli(
            "dual",
            ["dual", "--size", size, "--points", "3,7", "--replicas", f"{n_dual:g}",
             "--format", "json", "--deterministic"],
            "dual.json",
            lambda out, _: checks.check_dual(out, size, 3, 7),
        ),
        _cli(
            "aux",
            ["aux", "--size", size, "--kmax", 3, "--replicas", f"{n_aux:g}",
             "--format", "json", "--deterministic"],
            "aux.json",
            lambda out, _: checks.check_aux(out, size, 3),
        ),
        Step(
            name="hybrid",
            call="hybrid",
            kwargs=hyb,
            check=lambda _, value: checks.check_hybrid(
                value, _ladder_rung(hyb["size"], hyb["x"], hyb["y"], hyb["k"])
            ),
        ),
    ]


def exact_solvers(small: bool) -> list[Step]:
    grid = [8, 16, 32] if small else [32, 64, 128, 256, 512, 1024]
    l_size, l_start = (16, (4, 12)) if small else (256, (64, 192))
    o_size, t = (6, 5.0) if small else (30, 5.0)
    e_size = 6 if small else 14
    return [
        _cli(
            "sweep",
            ["sweep", "--grid", ",".join(map(str, grid)), "--format", "json",
             "--deterministic"],
            "sweep.json",
            lambda out, _: checks.check_sweep(out, grid),
        ),
        _cli(
            "ladder",
            ["ladder", "--size", l_size, "--start", "%d,%d" % l_start, "--kmax", 40,
             "--format", "json", "--deterministic"],
            "ladder.json",
            lambda out, _: checks.check_ladder(out, l_size, *l_start),
        ),
        _cli(
            "odes",
            ["odes", "--size", o_size, "--format", "json", "--deterministic"],
            "odes.json",
            lambda out, _: checks.check_odes_stationary(out, o_size),
        ),
        _cli(
            "odes-time",
            ["odes", "--size", o_size, "--time", t, "--format", "json",
             "--deterministic"],
            "odes-time.json",
            lambda out, _: checks.check_odes_transient(out, o_size, t),
        ),
        _cli(
            "exact",
            ["exact", "--size", e_size, "--deterministic"],
            "exact.csv",
            lambda out, _: checks.check_exact(out.with_suffix(""), e_size),
        ),
    ]


WORKLOADS = {
    "mc_stationary": mc_stationary,
    "mc_replicas": mc_replicas,
    "exact_solvers": exact_solvers,
}
