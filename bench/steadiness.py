"""Run the benchmark on several seeds and report each end-to-end metric's
spread, the distance between its first and third quartile as a share of
its median.

    python3 bench/steadiness.py [--workloads A B ...] [--seeds 1 2 ...] [--seconds T]

Run from the repository root.  One line per run, then per workload and
metric: median, quartile spread and the metric's bound from BENCHMARK.json
(spread is not held against setup_s).  With one seed this prints every
end-to-end metric of every workload by name and unit.  Exits 1 if a run
fails or is incorrect, or if a spread other than setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="multi-seed steadiness check")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bad = False
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            bad = bad or not result["correct"]
            cells = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {cells}", flush=True)
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        for m in spec["end_to_end"]:
            s = spread(values[m["name"]])
            over = m["name"] != "setup_s" and s > m["bound"]
            bad = bad or over
            print(f"  {workload} {m['name']}: median {statistics.median(values[m['name']]):.6g} "
                  f"{m['unit']}, spread {s:.4f}, bound {m['bound']}{'  OVER' if over else ''}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
