"""In-memory call spans around the public functions of each sepsim layer.

The benchmark installs the wrappers from its own files: the package itself
is not changed. A wrapper replaces the function in its defining module and
in every other sepsim module that imported it by name (the CLI, and the
ladder's use of the pair solver), so every call path records a span.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Public entry points of each layer, by defining module. core and errors get
# no span: core is called per replica or per event inside the other layers,
# so a wrapper around it would mostly measure itself.
TRACED = {
    "forward": ("estimate_stationary_moments", "transient_moment"),
    "dual": ("transient_dual_moment", "estimate_absorption", "pair_absorption_exact"),
    "ladder": ("ladder_tables", "simulate_aux_walk", "simulate_hybrid_pair"),
    "moments": ("build_moment_system", "stationary_moments", "integrate_moments"),
    "exact": (
        "build_generator",
        "stationary_distribution",
        "occupation_profile",
        "pair_moments",
    ),
}


class Recorder:
    """Collects spans of one process: name, start and end (ns), parent id.

    Span ids count from 0 within the process; pid tells processes apart.
    Spans stay in memory; the caller writes them out when its run ends.
    """

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "pid": self.pid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start_ns"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
        residual = getattr(result, "residual", None)
        if isinstance(residual, float):
            span["residual"] = residual
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every function in TRACED wherever sepsim binds it.

    Returns the names that were not found, so a renamed or deleted function
    shows up as a warning and not as a silent zero.
    """
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "sepsim" or name.startswith("sepsim.")
    }
    missing = []
    for layer, names in TRACED.items():
        home = modules.get(f"sepsim.{layer}")
        for name in names:
            fn = getattr(home, name, None)
            if fn is None:
                missing.append(f"{layer}.{name}")
                continue
            traced = recorder.wrap(f"{layer}.{name}", fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
    return missing


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time covered by its direct children (ns).

    Spans of one process nest and never overlap, so the children's durations
    add up to the covered time.
    """
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out
