"""Word-layer smoke checks that need only the standard library.

Run it with any supported interpreter, with or without pytest and click:

    PYTHONPATH=src python tests/smoke_stdlib.py

It checks the canonical enumeration order against a filtered
itertools.product, the cancellation count against free reduction, that the
words of S_8 hash apart, that words built without validation stay frozen,
that word codes decode back to their words, sort in canonical order and
invert a letter by XOR with 1, that convolution over the coded term
storage matches a per-pair concat loop (terms and their order), that
embedding a radial element and building the level sums agree word for
word, that a dense radial product (the packed big-int path) matches
convolution of the embedded factors, that the sandwich counts of each t = r + s equal the sum of the
public cell_count over its cells, that deviation agrees with and without
the cached per-t statistics at consecutive levels, that the
sandwich expectation with the identity on either side matches the
convolution oracle and that expect_fp gives it for an embedded pair, that the
free-product members and expectation of the benchmark's probe pair match
the sphere-enumeration oracle, and that a small verify suite passes.  It
prints one line and exits 0, or stops at the first failed assertion.
"""

import dataclasses
import itertools
import platform
import random
from fractions import Fraction
from pathlib import Path

from freeradial import counting, freeproduct, radial, verify, words
from freeradial.algebra import AlgebraElement, mul, w_n_explicit
from freeradial.radial import RadialElement
from freeradial.words import (
    ReducedWord,
    all_letters,
    concat,
    enumerate_words,
    reduce,
    word_code,
    word_count,
)


def check_order() -> None:
    for k, n_max in ((2, 7), (3, 5), (4, 4)):
        for n in range(n_max + 1):
            reference = [
                t for t in itertools.product(all_letters(k), repeat=n)
                if all(a != -b for a, b in zip(t, t[1:]))
            ]
            assert [w.letters for w in enumerate_words(k, n)] == reference, (k, n)


def check_cancellation() -> None:
    rng = random.Random(0)
    letters = all_letters(3)
    for _ in range(2000):
        a = reduce(rng.choices(letters, k=rng.randrange(10)), 3).letters
        b = reduce(rng.choices(letters, k=rng.randrange(10)), 3).letters
        lost = len(a) + len(b) - len(reduce(a + b, 3))
        assert 2 * words._cancelled_pairs(a, b) == lost, (a, b)


def check_hashes() -> None:
    for k in (2, 3):
        assert len({hash(w) for w in enumerate_words(k, 8)}) == word_count(k, 8), k


def check_frozen() -> None:
    w = words._raw_word(2, (1, 2))
    assert w == words.ReducedWord(2, (1, 2)) and hash(w) == hash(words.ReducedWord(2, (1, 2)))
    try:
        w.rank = 3
    except dataclasses.FrozenInstanceError:
        return
    raise AssertionError("a word built by _raw_word accepted an assignment")


def canonical_key(w: ReducedWord) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Canonical word order, a reference kept apart from the codes: by
    length, then letter by letter, each generator before its inverse."""
    return (len(w.letters), tuple((abs(x), 0 if x > 0 else 1) for x in w.letters))


def check_codes() -> None:
    for k, n_max in ((2, 6), (3, 4), (20, 2)):
        ball = [w for n in range(n_max + 1) for w in enumerate_words(k, n)]
        codes = [word_code(w) for w in ball]
        letters = words._code_letters(k)
        assert [ReducedWord(k, letters(c)) for c in codes] == ball, k
        assert sorted(codes) == [word_code(w) for w in sorted(ball, key=canonical_key)], k
        for x in all_letters(k):
            assert word_code(ReducedWord(k, (-x,))) == word_code(ReducedWord(k, (x,))) ^ 1, (k, x)


def check_mul() -> None:
    rng = random.Random(0)
    for k in (2, 3):
        letters = all_letters(k)
        for _ in range(200):
            # short words over few letters, so pairs cancel often; the
            # identity is among them
            a, b = (
                AlgebraElement(k, [
                    (reduce(rng.choices(letters, k=rng.randrange(4)), k), rng.randint(-2, 2))
                    for _ in range(rng.randrange(7))
                ])
                for _ in range(2)
            )
            acc = {}
            for u, cu in a.items():
                for v, cv in b.items():
                    w, _ = concat(u, v)
                    acc[w] = acc.get(w, 0) + cu * cv
            expected = [(w, c) for w, c in acc.items() if c != 0]
            assert list(mul(a, b).items()) == expected, (a, b)


def check_embed() -> None:
    for k, n_max in ((2, 6), (3, 4)):
        coeffs = list(range(1, n_max + 2))
        embedded = RadialElement(k, coeffs).embed()
        expected = [
            (w, c) for n, c in enumerate(coeffs) for w in enumerate_words(k, n)
        ]
        assert list(embedded.items()) == expected, k
        for n in range(n_max + 1):
            level = w_n_explicit(k, n)
            assert list(level.items()) == [(w, 1) for w in enumerate_words(k, n)], (k, n)
            assert level == RadialElement.basis(k, n).embed(), (k, n)


def check_dense_product() -> None:
    # every coefficient nonzero, so the 30 pairs outnumber the 10 output
    # degrees and radial_mul takes the packed path
    for k in (2, 3):
        a = RadialElement(k, (3, Fraction(-1, 2), 2, Fraction(5, 3), -1))
        b = RadialElement(k, (-2, 1, Fraction(7, 4), 4, -3, 1))
        assert radial.radial_mul(a, b).embed() == mul(a.embed(), b.embed()), k


def random_word(rng: random.Random, k: int, length: int) -> ReducedWord:
    letters: list[int] = []
    while len(letters) < length:
        a = rng.choice(all_letters(k))
        if not letters or a != -letters[-1]:
            letters.append(a)
    return ReducedWord(k, tuple(letters))


def seeded_pairs(seed: int, count: int) -> list[tuple[ReducedWord, ReducedWord]]:
    """Nonempty words of length at most 4, at a seeded rank from 2 to 4."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        k = rng.randint(2, 4)
        x, y = (random_word(rng, k, rng.randint(1, 4)) for _ in range(2))
        pairs.append((x, y))
    return pairs


def check_sandwich_cells() -> None:
    for x, y in seeded_pairs(0, 12):
        k, ell, m = x.rank, len(x), len(y)
        for n in (ell + m + 1, ell + m + 2, 40):
            counts = counting.sandwich_counts(x, y, n)
            for t in range(ell + m + 1):
                cells = sum(
                    counting.cell_count(k, counting.sigma_r(x, r), counting.tau_s(y, t - r), n - t)
                    for r in range(max(0, t - m), min(ell, t) + 1)
                )
                assert counts[n + ell + m - 2 * t] == cells, (x, y, n, t)


def check_deviation_cache() -> None:
    # 400 and 401 read both parity sums that _pair_stats stores
    for x, y in seeded_pairs(1, 12):
        levels = [*range(len(x) + len(y) + 4), 400, 401]
        warm = [radial.deviation(x, y, n) for n in levels]
        cold = []
        for n in levels:
            counting._pair_stats.cache_clear()
            cold.append(radial.deviation(x, y, n))
        assert warm == cold and list(map(type, warm)) == list(map(type, cold)), (x, y)


def probe_config() -> freeproduct.FPConfig:
    """bench/fp_config.json"""
    return freeproduct.load_config(
        str(Path(__file__).resolve().parents[1] / "bench" / "fp_config.json"))


def check_identity_sandwich() -> None:
    # the identity on the left, on the right, and on both sides
    for k in (2, 3):
        e = ReducedWord(k)
        for w in (e, *(random_word(random.Random(k), k, length) for length in (1, 2, 3))):
            for n in range(6):
                for x, y in ((e, w), (w, e)):
                    expected = verify.oracle_expect(x, y, n)
                    assert radial.expect_xwny(x, y, n) == expected, (x, y, n)
    # expect_fp on embedded pairs with an empty side: g = g1^2 g2^-1
    cfg, e = probe_config(), freeproduct.FPWord()
    g = freeproduct.parse_fp_word(
        '[[0, {"free": [2, 0]}], [1, {"free": [-2], "torsion": [1]}]]', cfg)
    for x, y in ((e, g), (g, e), (e, e)):
        gx, gy = freeproduct.is_in_fk(x, cfg), freeproduct.is_in_fk(y, cfg)
        for n in range(6):
            expected = (radial.expect_xwny(gx, gy, n), word_count(cfg.rank, n))
            assert freeproduct.expect_fp(x, y, n, cfg) == expected, (x, y, n)


def check_free_product() -> None:
    # bench/fp_config.json and the freeproduct_chi pair of bench/cli_probe.json
    fp = freeproduct
    cfg = probe_config()
    x = fp.parse_fp_word('[[0, {"free": [0, 1]}]]', cfg)
    y = fp.parse_fp_word('[[0, {"free": [2, -1]}], [1, {"free": [2], "torsion": [2]}]]', cfg)
    for n in range(6):
        members = verify.oracle_chi_n(x, y, n, cfg)
        assert fp.chi_n(x, y, n, cfg) == members, n
        expected = RadialElement.zero(cfg.rank)
        for u in members:
            z = fp.fp_reduce(x.syllables + fp.embed_fk_word(u, cfg).syllables + y.syllables, cfg)
            expected = expected + radial.expect(AlgebraElement.from_word(fp.is_in_fk(z, cfg)))
        assert fp.expect_fp(x, y, n, cfg) == (expected, len(members)), n
    assert fp.expect_fp(x, y, 20_000, cfg)[1] == 2


def check_suite() -> None:
    failed = [str(r) for r in verify.run_suite(2, 5) if not r.passed]
    assert not failed, failed


if __name__ == "__main__":
    check_order()
    check_cancellation()
    check_hashes()
    check_frozen()
    check_codes()
    check_mul()
    check_embed()
    check_dense_product()
    check_sandwich_cells()
    check_deviation_cache()
    check_identity_sandwich()
    check_free_product()
    check_suite()
    print(f"smoke ok on Python {platform.python_version()}")
