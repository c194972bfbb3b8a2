"""Benchmark runner for freeradial.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root.  Inputs come from the seed.  Each repetition
runs in a fresh worker process (bench/worker.py), one at a time, so every
repetition starts with cold library caches.

--trace 0 repeats the workload for about T seconds (at least MIN_REPS
times) and reports the end-to-end metrics as medians over repetitions.
--trace 1 runs one untraced and one cProfile-traced repetition, plus the
command-line probe, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the environment,
the output digest and the known-limit probe.  Metric names and units come
from BENCHMARK.json.  Exits 1 without a result if a worker fails, 2 if the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 3
SETUP_SAMPLES = 9
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, cli: bool = False, timeout: float = DEADLINE_S) -> dict:
    """Run one worker; its setup_s runs from process start to inputs ready."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if cli:
        cmd.append("--cli")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    report["elapsed_s"] = time.monotonic() - start
    return report


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "workload": workload, "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next(line.split()[0] for line in fh if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def stored_digest(part: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(part, {}).get(str(seed))


def check_reps(reps: list[dict], seed: int) -> tuple[bool, list[str]]:
    """Exact checks over repetitions: no failed operation, and for each part
    one digest on every repetition, equal to the stored one when the seed
    has one."""
    notes = []
    ok = True
    for part in reps[0]["digest"]:
        digests = {r["digest"][part] for r in reps}
        stored = stored_digest(part, seed)
        verdict = "none" if stored is None else "match" if digests == {stored} else "MISMATCH"
        notes.append(f"{part} digest {sorted(digests)[0]} (stored for seed {seed}: {verdict})")
        ok = ok and len(digests) == 1 and (stored is None or digests == {stored})
    for r in reps:
        for label in r["failed"][:5]:
            notes.append(f"FAILED {label}")
        ok = ok and not r["failed"]
        limit = r["known_limit"]
        if limit:
            ok = ok and not limit["wrong"]
            notes += [f"WRONG known-limit product {label}" for label in limit["wrong"]]
        for name, c in (r.get("cli") or {}).items():
            if not c["ok"]:
                notes.append(f"CLI {name}: exit {c['exit_code']}, stdout sha256 {c['sha256']}")
            ok = ok and c["ok"]
    limit = reps[0]["known_limit"]
    if limit:
        notes.append(
            f"known limit: radial_mul raised RecursionError on {limit['recursion_errors']}/"
            f"{limit['attempted']} probe products (untimed, not counted as operations; "
            "see bench/NOTES.md)")
    return ok, notes


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    start = time.monotonic()
    reps: list[dict] = []
    while len(reps) < MIN_REPS or (
        time.monotonic() - start + statistics.median(r["elapsed_s"] for r in reps) / 2 <= seconds
    ):
        reps.append(spawn(workload, seed, "run", timeout=DEADLINE_S - (time.monotonic() - start)))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup",
                            timeout=DEADLINE_S - (time.monotonic() - start))["setup_s"])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    op_medians = [statistics.median(times) for times in zip(*(r["op_s"] for r in reps))]
    metrics = {
        "wall_s": sum(op_medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "pass_ratio": (attempted - failed) / attempted,
    }
    info = [f"repetitions {len(reps)}, wall_s per repetition "
            + " ".join(f"{r['wall_s']:.4f}" for r in reps),
            f"setup samples {len(setups)}: " + " ".join(f"{t:.4f}" for t in setups)]
    first = 0
    for part, count in reps[0]["parts"].items():
        info.append(f"part {part}: {sum(op_medians[first:first + count]):.4f} s "
                    f"over {count} operations")
        first += count
    return metrics, reps, info


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    start = time.monotonic()
    plain = spawn(workload, seed, "run", cli=True)
    traced = spawn(workload, seed, "trace", cli=True, timeout=DEADLINE_S - (time.monotonic() - start))
    metrics = dict(traced["trace"])
    untraced = plain["wall_s"] + sum(c["s"] for c in plain["cli"].values())
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced
    for name, c in plain["cli"].items():
        metrics[f"cli.{name}.s"] = c["s"]
    p = traced["partition"]
    info = [f"operations and command-line probe: untraced {untraced:.4f} s, "
            f"traced {metrics['trace.wall_s']:.4f} s",
            f"profile {p['profile_s']:.6f} s, attributed {p['attributed_s']:.6f} s, "
            f"to library layers {p['library_s']:.6f} s"]
    return metrics, [plain, traced], info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="freeradial benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "freeradial", "__init__.py")):
        print(f"package sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            metrics, reps, info = traced_run(args.workload, args.seed)
        else:
            metrics, reps, info = timed_run(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        print(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    correct, notes = check_reps(reps, args.seed)
    env = environment(args.workload, args.seed)
    env["operations"] = reps[0]["operations"]
    print("env " + json.dumps(env))
    for line in info + list(dict.fromkeys(notes)):
        print(line)
    for m in declared:
        print(f"{m['name']:<40} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(len(r["failed"]) for r in reps),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
