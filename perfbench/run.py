"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lex-elim --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from `src/`
there, never from an installed copy.  `--trace 0` measures the end-to-end
metrics; `--trace 1` interleaves traced and untraced solves of the same
instances and reports the per-layer metrics.  Times are scaled to a reference
machine speed (see calibration.py); the unscaled median is printed too.
Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is short, so one run repeats it and reports the median.  The
# calibration reference runs after every group of repeats, and each group is
# scaled by the references around it.
SETUP_GROUPS = 6
SETUP_GROUP_SIZE = 5


def timed_setup(workload: Workload, seed: int, preloaded: set[str]) -> tuple[float, list]:
    """Seconds to import the package and generate the workload's inputs.

    Every module loaded since `preloaded` was taken is dropped first, so each
    repeat pays the imports a fresh process would pay, module-level work
    included.
    """
    for name in set(sys.modules) - preloaded:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("hermitecount.cli")
    instances = workload.instances(seed)
    return perf_counter() - start, instances


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "hermitecount" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/hermitecount", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))

    preloaded = set(sys.modules)
    setup_times = []
    before = calibration.reference_seconds()
    for _ in range(SETUP_GROUPS):
        group = []
        for _ in range(SETUP_GROUP_SIZE):
            seconds, instances = timed_setup(workload, args.seed, preloaded)
            group.append(seconds)
        after = calibration.reference_seconds()
        setup_times += [seconds * calibration.scale(before, after) for seconds in group]
        before = after
    setup_s = statistics.median(setup_times)

    import harness
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    result = harness.run(workload, instances, args.seconds, tracer)
    if tracer is None:
        values = harness.end_to_end(result, setup_s)
    else:
        values = harness.per_layer(result, tracer)
        tracer.write(ROOT / ".bench_build" / "perfbench" / f"spans-{workload.name}-{args.seed}.json")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    mode = "traced" if tracer else "untraced"
    print(f"{workload.name} seed {args.seed}: {len(result.solves)} untraced and "
          f"{len(result.traced)} traced solves ({mode} run)")
    print(f"  failed_frac = {result.failed / result.attempted} ({result.failed}/{result.attempted})")
    unscaled_rate = sum(o.passed for o in result.solves) / sum(o.seconds for o in result.solves)
    print(f"  unscaled systems_per_s = {unscaled_rate} 1/s, "
          f"unscaled solve p50 = {statistics.median(o.seconds for o in result.solves)} s, "
          f"median speed scale = {statistics.median(o.scale for o in result.solves)}")
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
