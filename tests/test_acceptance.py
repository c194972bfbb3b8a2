"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line (visible under ``pytest -v -s``) with
its elapsed time; the stated runtime budgets are asserted alongside the
mathematical content.
"""

import time
from fractions import Fraction

import pytest

from freeradial import counting, freeproduct, radial, verify
from freeradial.freeproduct import Designated, FPConfig, FPWord
from freeradial.radial import RadialElement
from freeradial.words import ReducedWord, enumerate_words, word_count


def _report(number, name, started):
    print(f"ACCEPTANCE criterion {number:02d} ({name}): PASS in {time.monotonic() - started:.1f}s")


def _assert_all_pass(reports, budget, started, number, name):
    failures = [r for r in reports if not r.passed]
    assert failures == [], f"criterion {number}: {len(failures)} failing checks: {failures[:3]}"
    if budget is not None:
        elapsed = time.monotonic() - started
        assert elapsed < budget, f"criterion {number} overran its {budget}s budget: {elapsed:.1f}s"
    _report(number, name, started)


def test_criterion_01_radial_recurrence():
    started = time.monotonic()
    reports = []
    for k in (2, 3):
        reports += verify.check_radial_recurrence(k, 6)
    assert len(reports) == 12  # n = 1..6 for each rank
    _assert_all_pass(reports, 10, started, 1, "radial recurrence by explicit convolution")


def test_criterion_02_norm_formula():
    started = time.monotonic()
    reports = []
    for k in (2, 3):
        reports += verify.check_norms(k, 6)
        for n in range(1, 7):
            assert word_count(k, n) == 2 * k * (2 * k - 1) ** (n - 1)
    _assert_all_pass(reports, 5, started, 2, "norm formula via explicit supports")


def test_criterion_03_counting():
    started = time.monotonic()
    reports = []
    for k in (2, 3):
        reports += verify.check_counts_vs_enumeration(k, 8)
    assert counting.abc_recurrence(2, 4)[4] == (7, 7, 6)
    for k in (2, 3, 5):
        reports += verify.check_closed_form(k)
        reports += verify.check_count_identities(k)
        assert counting.constant_C(k) == Fraction(2) + Fraction(3, 2 * k)
    _assert_all_pass(reports, 30, started, 3, "count recurrence, closed form, uniform bound")


def test_criterion_04_nu_uniformity():
    started = time.monotonic()
    reports = []
    for k in range(2, 7):
        reports += verify.check_nu_uniformity(k, 8)
    # the exact spread over matched sizes is k at every level n = 2..8
    assert [r.params for r in reports] == [
        (k, n, f"max_spread={k}") for k in range(2, 7) for n in range(2, 9)
    ]
    assert counting.constant_D(2) == 8 * 4 * counting.constant_C(2) == 88
    _assert_all_pass(reports, 60, started, 4, "nu spread over matched sizes is k, under D_k")


def test_criterion_05_mu_formula():
    started = time.monotonic()
    reports = verify.check_mu_vs_oracle(2, 8)
    # 16 pairs at joint length 2, 96 at 3, 144 at 4; n runs from l+m+2 to 8
    assert len(reports) == 16 * 5 + 96 * 4 + 144 * 3 == 896
    _assert_all_pass(reports, 60, started, 5, "cancellation counts against tracking oracle")


def test_criterion_06_expectation_formula():
    started = time.monotonic()
    reports = verify.check_expectation_vs_oracle(2, 8)
    assert len(reports) == 896  # same grid as criterion 5
    _assert_all_pass(reports, 15, started, 6, "sandwich expectation against convolution oracle")


def test_criterion_07_deviation_bound_and_series():
    started = time.monotonic()
    reports = verify.check_deviation_bound(2, 8)
    words = [w for length in (1, 2) for w in enumerate_words(2, length)]
    for x in words:
        for y in words:
            ell, m = len(x), len(y)
            bound = radial.deviation_bound(ell, m, 2)
            sums = radial.partial_sum_criterion(x, y, 12)
            assert sums == sorted(sums), (x, y)
            terms = [sums[0]] + [sums[i] - sums[i - 1] for i in range(1, 13)]
            for n in range(ell + m + 2, 13):
                scaled = radial.deviation(x, y, n) * word_count(2, n)
                assert scaled <= bound, (x, y, n)
                assert terms[n] <= Fraction(bound, word_count(2, n) ** 2), (x, y, n)
    _assert_all_pass(reports, 60, started, 7, "deviation bound and dominated partial sums")


def _fp_config(powers=(1, 1)):
    z2 = freeproduct.AbelianGroupSpec(2)
    z1 = freeproduct.AbelianGroupSpec(1)
    return FPConfig(
        (z2, z1),
        (
            Designated(0, z2.element((1, 0)), powers[0]),
            Designated(1, z1.element((1,)), powers[1]),
        ),
    )


def _run_freeproduct_criterion(cfg, number, name, budget=120):
    started = time.monotonic()
    z2 = cfg.factors[0]
    # x and y each carry a syllable that is not a power of the designated
    # generator of its factor
    x = FPWord(((0, z2.element((0, 1))),))
    y = FPWord(((0, z2.element((0, -1))),))
    nonempty_seen = 0
    case_tags = set()
    for n in range(0, 9):
        members = freeproduct.chi_n(x, y, n, cfg)
        assert members == verify.oracle_chi_n(x, y, n, cfg), n
        element, size = freeproduct.expect_fp(x, y, n, cfg)
        assert size == len(members)
        assert size <= (n + 1) * (2 * n + 1), n
        assert element.norm_sq() <= Fraction(size * size), n
        for u in members:
            case, p = freeproduct.case_classify(u, x, y, cfg)
            assert case in (1, 2) and 0 <= p <= max(len(u), 1), (n, u)
            case_tags.add(case)
        nonempty_seen += bool(members)
    assert nonempty_seen >= 5  # the criterion is vacuous if chi stays empty
    # a longer x whose inner syllable is an exact generator power forces
    # full-cancellation (case 1) members as well
    x2 = FPWord(((0, z2.element((0, 1))), cfg.generator_syllable(2, 1)))
    for n in range(0, 9):
        members = freeproduct.chi_n(x2, y, n, cfg)
        assert members == verify.oracle_chi_n(x2, y, n, cfg), n
        element, size = freeproduct.expect_fp(x2, y, n, cfg)
        assert size == len(members)
        assert size <= (n + 1) * (2 * n + 1)
        assert element.norm_sq() <= Fraction(size * size)
        for u in members:
            case, _ = freeproduct.case_classify(u, x2, y, cfg)
            case_tags.add(case)
    assert case_tags == {1, 2}
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} overran: {elapsed:.1f}s"
    _report(number, name, started)


def test_criterion_08_free_product():
    _run_freeproduct_criterion(_fp_config(), 8, "free-product chi bound and expectation norm")


def test_criterion_09_free_product_with_powers():
    _run_freeproduct_criterion(
        _fp_config(powers=(2, 3)), 9, "free-product criterion with generator powers (2, 3)"
    )


def test_criterion_10_negative_control(monkeypatch):
    started = time.monotonic()
    k = 2
    # rerun the count recurrence with (2k-3) bumped to (2k-2)
    a, b, g = 1, 1, 0
    corrupted = {2: (a, b, g)}
    for n in range(3, 7):
        a, b, g = (2 * k - 2) * a + b + g, b + (2 * k - 2) * a, g + (2 * k - 2) * a
        corrupted[n] = (a, b, g)
    monkeypatch.setattr(counting, "abc_recurrence", lambda k, n_max: corrupted)
    reports = verify.run_suite(k=2, n_max=6, checks=("counts_vs_enumeration",))
    failures = [r for r in reports if not r.passed]
    assert failures, "corrupted recurrence was not detected"
    first = next(r for r in reports if not r.passed)
    assert first.params == (2, 3), f"first failure should be at n=3, got {first.params}"
    # the check is ordered by n, so the report itself names the first bad level
    assert all(r.passed for r in reports if r.params[1] < 3)
    _report(10, "corrupted recurrence detected at first failing n", started)
