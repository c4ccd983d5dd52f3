"""One benchmark step in a fresh process: import sepsim, run, report.

Usage: python3 child.py SPEC_JSON SPAWN_NS

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so setup time covers interpreter start-up and the imports of
sepsim.cli, numpy and scipy. The step is either a CLI command (its argv) or
one library call. The result, with wall and CPU time of the call, peak RSS
and any spans, is written as JSON to the path named in the spec.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    """CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _hybrid(seed: int, size: int, x: int, y: int, k: int, replicas: int):
    from sepsim.core import ModelParams
    from sepsim.ladder import simulate_hybrid_pair

    params = ModelParams(size=size, seed=seed)
    return list(simulate_hybrid_pair(params, x, y, k, replicas, params.stream(0)))


# Library calls a workload may make; each takes the seed plus its keywords.
LIBRARY_CALLS = {"hybrid": _hybrid}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    spawn_ns = int(sys.argv[2])
    import sepsim.cli

    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    recorder = None
    missing: list[str] = []
    if spec["trace"]:
        import spans

        recorder = spans.Recorder(spec["workload"], spec["run_id"])
        missing = spans.install(recorder)
    value = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        if recorder is None:
            rc = sepsim.cli.main(spec["argv"])
        else:
            rc = recorder.call("cli.main", sepsim.cli.main, spec["argv"])
    else:
        call = LIBRARY_CALLS[spec["call"]]
        value = call(spec["seed"], **spec["kwargs"])
        rc = 0
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "value": value,
        "spans": recorder.spans if recorder is not None else [],
        "missing_spans": missing,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
