"""Run the benchmark once per seed and summarise each metric across seeds.

    python3 perfbench/seeds.py --seeds 1-10 [--workload NAME ...] [--trace 1]

Run from the root of a checkout.  Each run is a separate process, with the
`run_seconds` of BENCHMARK.json.  For every workload and metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread,
which is the distance between the quartiles as a share of the median; for an
end-to-end metric it also prints the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
                  flush=True)
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = f"  bound {bounds[name]}" if name in bounds else ""
            print(f"  {name}: median {median:.6g}  quartiles {q1:.6g} {q3:.6g}  spread {spread:.4f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
