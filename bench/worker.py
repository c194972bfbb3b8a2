"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode MODE [--cli]

Run from the repository root with ``src`` on PYTHONPATH (bench/run.py does
this).  Every repetition starts with cold library caches, as a command-line
invocation does.  Modes:

    setup  build the inputs and stop;
    run    also time each operation's library call and check its output;
    trace  the same under cProfile, adding per-layer figures.

``--cli`` adds the command-line probe (bench/cli_probe.json) after the
operations.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import sys
import time
import traceback

import attribution as at

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("words", "algebra", "radial", "counting", "freeproduct", "verify", "cli")


def raised_in(exc: BaseException, filename: str, function: str) -> bool:
    return any(
        frame.f_code.co_name == function and frame.f_code.co_filename.endswith(filename)
        for frame, _ in traceback.walk_tb(exc.__traceback__)
    )


def run_ops(ops, profile=None, tally=None):
    """Call each operation, timing only the library call; check afterwards."""
    digest = hashlib.sha256()
    times: list[int] = []
    failed: list[str] = []
    radial_errors = 0
    for op in ops:
        if profile is not None:
            profile.enable()
        start = time.perf_counter_ns()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a raising operation is a failed operation
            out, error = None, exc
        elapsed = time.perf_counter_ns() - start
        if profile is not None:
            profile.disable()
        times.append(elapsed)
        if error is None and op.check(out):
            digest.update(op.canon(out).encode() + b"\n")
            if tally is not None:
                tally(out)
        else:
            digest.update(f"{op.label}|FAILED\n".encode())
            failed.append(op.label if error is None else f"{op.label}: {error!r}"[:200])
            radial_errors += error is not None and raised_in(error, "radial.py", "radial_mul")
    return times, failed, digest.hexdigest(), radial_errors


def known_limit(probes) -> dict:
    """Run the known-limit probe: RecursionError is the documented limit,
    any other failure is a wrong result."""
    hits, wrong = 0, []
    for op in probes:
        try:
            out = op.call()
        except RecursionError:
            hits += 1
            continue
        except Exception as exc:  # reported, and makes the run incorrect
            wrong.append(f"{op.label}: {exc!r}"[:200])
            continue
        if not op.check(out):
            wrong.append(op.label)
    return {"attempted": len(probes), "recursion_errors": hits, "wrong": wrong}


def cli_probe(profile=None) -> dict:
    """Each command of cli_probe.json once through CliRunner; stdout must
    match its stored SHA-256 byte for byte."""
    from click.testing import CliRunner

    from freeradial.cli import main as cli_main

    with open(os.path.join(HERE, "cli_probe.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["commands"]
    runner = CliRunner()
    out = {}
    for name, entry in spec.items():
        if profile is not None:
            profile.enable()
        start = time.perf_counter_ns()
        result = runner.invoke(cli_main, entry["args"])
        elapsed = time.perf_counter_ns() - start
        if profile is not None:
            profile.disable()
        sha = hashlib.sha256(result.stdout_bytes).hexdigest()
        out[name] = {
            "s": elapsed / 1e9,
            "exit_code": result.exit_code,
            "sha256": sha,
            "ok": result.exit_code == 0 and sha == entry["sha256"],
        }
    return out


def trace_metrics(parts, profile, wall: float, radial_errors: int, members: int):
    """Per-layer figures from the profile of the operations and the
    command-line probe."""
    import freeradial
    from workloads import FP_CANDIDATES, VERIFY_CHECKS

    owner = at.owner_rule(os.path.dirname(freeradial.__file__), HERE)
    stats = pstats.Stats(profile).stats
    self_times = at.layer_self_times(stats, owner)
    library = sum(v for layer, v in self_times.items() if layer != at.HARNESS)
    # Harness time is the benchmark's own frames plus profiler time outside
    # any frame, so library layers and harness partition the traced wall.
    m: dict[str, float] = {f"{layer}.self_s": self_times.get(layer, 0.0) for layer in LAYERS}
    m["harness.self_s"] = wall - library
    m["trace.wall_s"] = wall
    partition = {"profile_s": sum(v[2] for v in stats.values()),
                 "attributed_s": sum(self_times.values()), "library_s": library}

    def calls(layer, name):
        return at.calls(stats, owner, layer, name)

    def seconds(layer, name):
        return at.cumulative(stats, owner, layer, name)

    m["words.enumerate_words.words"] = at.calls_from(
        stats, owner, "words", "_raw_word", "words", "enumerate_words")
    m["words.enumerate_words.s"] = seconds("words", "enumerate_words")
    m["words.concat.calls"] = calls("words", "concat")
    m["algebra.mul.calls"] = calls("algebra", "mul")
    m["algebra.mul.s"] = seconds("algebra", "mul")
    m["algebra.mul.pairs"] = at.calls_from(stats, owner, "words", "concat", "algebra", "mul")
    for name in ("radial_mul", "expect_xwny", "expect_xwny_explicit"):
        m[f"radial.{name}.calls"] = calls("radial", name)
        m[f"radial.{name}.s"] = seconds("radial", name)
    m["radial.radial_mul.errors"] = radial_errors
    m["counting.nu_sets.calls"] = calls("counting", "nu_sets")
    m["counting.nu_sets.s"] = seconds("counting", "nu_sets")
    m["counting.count_table.s"] = seconds("counting", "count_table")
    candidates = FP_CANDIDATES if "freeproduct_chi" in parts else 0
    m["freeproduct.expect_fp.s"] = seconds("freeproduct", "expect_fp")
    m["freeproduct.fp_reduce.calls"] = calls("freeproduct", "fp_reduce")
    m["freeproduct.candidates"] = candidates
    m["freeproduct.members"] = members
    m["freeproduct.useful_ratio"] = members / candidates if candidates else 0.0
    for name in VERIFY_CHECKS:
        m[f"verify.check.{name}.s"] = seconds("verify", f"check_{name}")
    m["verify.oracle_expect.calls"] = calls("verify", "oracle_expect")
    m["verify.oracle_mu_table.calls"] = calls("verify", "oracle_mu_table")
    return m, partition


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--cli", action="store_true")
    args = parser.parse_args(argv)

    import freeradial  # the import is part of the measured set-up
    import workloads

    if not os.path.realpath(freeradial.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"freeradial imported from {freeradial.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    parts = workloads.WORKLOADS[args.workload]
    ops = {part: workloads.PARTS[part](args.seed) for part in parts}
    report: dict = {"ready": time.monotonic(),
                    "operations": sum(len(part_ops) for part_ops in ops.values()),
                    "parts": {part: len(part_ops) for part, part_ops in ops.items()}}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    profile = cProfile.Profile() if args.mode == "trace" else None
    sizes: list[int] = []  # expect_fp's member counts
    times: list[int] = []
    failed: list[str] = []
    digests: dict[str, str] = {}
    radial_errors = 0
    for part, part_ops in ops.items():
        tally = (lambda out: sizes.append(out[1])) if part == "freeproduct_chi" else None
        part_times, part_failed, digests[part], errors = run_ops(part_ops, profile, tally)
        times += part_times
        failed += part_failed
        radial_errors += errors
    report.update(
        wall_s=sum(times) / 1e9,
        op_s=[t / 1e9 for t in times],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(times),
        failed=failed,
        digest=digests,
    )
    probes = [op for part in parts if part in workloads.PROBES
              for op in workloads.PROBES[part](args.seed)]
    report["known_limit"] = known_limit(probes) if probes else None
    if report["known_limit"]:
        radial_errors += report["known_limit"]["recursion_errors"]
    report["cli"] = cli_probe(profile) if args.cli else None
    if profile is not None:
        wall = report["wall_s"] + sum(c["s"] for c in (report["cli"] or {}).values())
        report["trace"], report["partition"] = trace_metrics(
            parts, profile, wall, radial_errors, sum(sizes))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
