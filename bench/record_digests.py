"""Store each part's output digest for the seeds the benchmark ships.

    python3 bench/record_digests.py [--seeds 0 1 ...] [--workloads A B ...]

Run from the repository root, on a commit whose outputs are trusted: a seed
is stored only if every operation passed its exact check.  bench/run.py
then marks any later run on a stored seed incorrect unless its digest is
identical.  Re-record only in a change that alters the workloads' inputs or
canonical outputs, never in one that claims a speed-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import HERE, ROOT, spawn


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(20)))
    parser.add_argument("--workloads", nargs="+", default=names)
    args = parser.parse_args(argv)

    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    for workload in args.workloads:
        for seed in args.seeds:
            report = spawn(workload, seed, "run")
            limit = report["known_limit"]
            if report["failed"] or (limit and limit["wrong"]):
                print(f"{workload} seed {seed}: failed checks, not stored", file=sys.stderr)
                return 1
            for part, digest in report["digest"].items():
                stored.setdefault(part, {})[str(seed)] = digest
                print(f"{part} {seed} {digest}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
