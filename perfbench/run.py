"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload knn-paged --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced for half the time, then replays the same operations
with per-layer wrappers installed and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
are a human-readable table and the workload's own figures.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("knn-paged", "knn-resident", "ingest-mixed", "serve-sharded")


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_state(workload: Any, setups: int) -> Tuple[Any, List[float]]:
    """Set up ``setups`` times; keep the last state, time every one."""
    times: List[float] = []
    state = None
    for i in range(setups):
        if state is not None:
            workload.close(state)
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    workload.prepare(state)
    return state, times


def measure(workload: Any, seconds: float, min_cycles: int, setups: int, recorder: Any = None):  # type: ignore[no-untyped-def]
    """Set up, run one window (traced when ``recorder`` is given), check."""
    from perfbench.layers import LayerWrappers

    state, setup_times = setup_state(workload, setups)
    try:
        if recorder is None:
            run = workload.run(state, seconds, min_cycles)
        else:
            with LayerWrappers(recorder):
                run = workload.run(state, seconds, min_cycles)
        run.verify()
    finally:
        workload.close(state)
    return run, setup_times


def print_table(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")


def main(argv: List[str]) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the repro sources (src/repro) are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    from perfbench import metrics, workloads
    from perfbench.layers import SpanRecorder

    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        if not args.trace:
            run, setup_times = measure(workload, args.seconds, 1, workloads.SETUPS)
            everything = metrics.end_to_end(setup_times, run)
            attempted, failed, failures = run.attempted, run.failed, run.failures
            print_table(f"{args.workload} seed {args.seed} (untraced)", everything)
            reported = {name: everything[name] for name in metrics.END_TO_END}
        else:
            half = args.seconds / 2
            plain, _ = measure(workload, half, 1, 1)
            recorder = SpanRecorder()
            seconds = half if not workload.cyclic else 0.0
            traced, _ = measure(workload, seconds, plain.cycles, 1, recorder)
            reported = metrics.per_layer(recorder, traced, plain)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            failures = plain.failures + traced.failures
            print_table(f"{args.workload} seed {args.seed} (traced)", reported)
        for line in failures[:20]:
            print(f"FAILED {line}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # other runs or builds still use it
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
