"""Tests of the benchmark itself: the exact checks trip on a perturbed
output, the digest is reproducible and matches the stored one, the
profile attribution partitions the traced time, and the runner refuses to
run without the package sources.

    python3 -m pytest bench
"""

import cProfile
import json
import os
import pstats
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import attribution
import workloads
from freeradial import radial
from freeradial.radial import RadialElement
from freeradial.verify import VerificationReport
from worker import run_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def perturbed(element: RadialElement, index: int) -> RadialElement:
    coeffs = list(element.coeffs)
    coeffs[index] += 1
    return RadialElement(element.rank, coeffs)


def test_radial_check_trips_on_one_perturbed_coefficient():
    op = workloads.radial_dense(3)[0]
    product = op.call()
    assert op.check(product)
    for index in (0, len(product.coeffs) // 2, len(product.coeffs) - 1):
        assert not op.check(perturbed(product, index))


def test_freeproduct_check_trips_on_one_perturbed_coefficient():
    ops = workloads.freeproduct_chi(3)
    op = next(op for op in ops if op.call()[1] > 0)
    element, size = op.call()
    assert op.check((element, size))
    assert not op.check((perturbed(element, element.degree), size))
    assert not op.check((element, size + 1))


def test_deviation_check_trips_and_canonical_line_changes():
    op = next(op for op in workloads.deviation_series(3) if op.label.endswith("|40"))
    value = op.call()
    assert op.check(value)
    assert not op.check(-Fraction(1, 7))
    assert not op.check(float(value))
    assert not op.check(value + 10**12)  # far past the deviation bound
    assert op.canon(value + Fraction(1, 10**9)) != op.canon(value)


def test_verify_check_trips_on_one_failing_report():
    op = next(op for op in workloads.verify_suite(3) if op.label == "closed_form")
    reports = op.call()
    assert op.check(reports)
    first = reports[0]
    reports[0] = VerificationReport(first.check, first.params, first.expected, (0, 0, 0))
    assert not op.check(reports)
    assert not op.check([])


def test_digest_is_reproducible_and_matches_stored():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        stored = json.load(fh)["freeproduct_chi"]["0"]
    ops = workloads.freeproduct_chi(0)
    _, failed, digest, _ = run_ops(ops)
    assert failed == [] and digest == stored
    broken = list(ops)
    original = broken[-1]
    broken[-1] = workloads.Op(original.label, original.call, original.check,
                              lambda result: original.canon(result) + "0")
    assert run_ops(broken)[2] != stored


def test_attribution_partitions_profile_time():
    a = workloads._dense(random.Random(1), 2, 30, fractions=True)
    profile = cProfile.Profile()
    profile.enable()
    radial.radial_mul(a, a)
    profile.disable()
    stats = pstats.Stats(profile).stats
    owner = attribution.owner_rule(os.path.join(ROOT, "src", "freeradial"), HERE)
    shares = attribution.layer_self_times(stats, owner)
    total = sum(v[2] for v in stats.values())
    assert abs(sum(shares.values()) - total) <= 1e-9 * max(total, 1.0)
    # Fraction arithmetic called from radial_mul is charged to radial
    fraction_time = sum(v[2] for k, v in stats.items() if k[0].endswith("fractions.py"))
    assert fraction_time > 0 and shares["radial"] >= fraction_time
    assert attribution.calls(stats, owner, "radial", "radial_mul") == 1


def test_runner_refuses_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
