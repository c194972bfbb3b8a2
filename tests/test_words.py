import itertools
import tracemalloc
from operator import add
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeradial import words
from freeradial.words import (
    CapExceededError,
    RankMismatchError,
    ReducedWord,
    WordParseError,
    all_letters,
    concat,
    enumerate_words,
    format_word,
    parse_word,
    reduce,
    word_code,
    word_count,
)


def letter_key(x):
    """Canonical letter order, a reference kept apart from the codes: by
    index, the generator before its inverse."""
    return (abs(x), 0 if x > 0 else 1)


def canonical_key(w):
    """Canonical word order: by length, then letter by letter."""
    return (len(w.letters), tuple(letter_key(x) for x in w.letters))


def letter_seqs(k, max_size=10):
    return st.lists(st.sampled_from(all_letters(k)), max_size=max_size)


class TestReduce:
    def test_inverse_pair_cancels(self):
        assert reduce([1, -1], 2) == ReducedWord(2)

    def test_inner_pair_cancels(self):
        assert reduce([1, 2, -2, 1], 2) == ReducedWord(2, (1, 1))

    def test_already_reduced_unchanged(self):
        assert reduce([1, 2, -1], 2) == ReducedWord(2, (1, 2, -1))

    def test_nested_cancellation(self):
        # collapse must continue through newly adjacent pairs
        assert reduce([1, 2, -2, -1, 2], 2) == ReducedWord(2, (2,))

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            reduce([3], 2)
        with pytest.raises(ValueError):
            reduce([0], 2)

    @given(letter_seqs(2))
    def test_idempotent(self, seq):
        once = reduce(seq, 2)
        assert reduce(once.letters, 2) == once

    @given(letter_seqs(3))
    def test_result_is_reduced(self, seq):
        w = reduce(seq, 3)
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))
        assert (len(seq) - len(w)) % 2 == 0


class TestReducedWordInvariants:
    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            ReducedWord(2, (1, -1))

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            ReducedWord(1, ())

    def test_rejects_out_of_range_letter(self):
        with pytest.raises(ValueError):
            ReducedWord(2, (3,))

    def test_identity(self):
        e = ReducedWord(2)
        assert len(e) == 0 and e.is_identity


class TestConcat:
    def test_one_cancellation(self):
        u = parse_word("g1 g2", 2)
        v = parse_word("g2^-1 g1", 2)
        assert concat(u, v) == (ReducedWord(2, (1, 1)), 1)

    def test_identity_left(self):
        w = parse_word("g2 g1^-1", 2)
        assert concat(ReducedWord(2), w) == (w, 0)

    def test_full_cancellation(self):
        u = parse_word("g1 g2", 2)
        v = parse_word("g2^-1 g1^-1", 2)
        assert concat(u, v) == (ReducedWord(2), 2)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            concat(ReducedWord(2, (1,)), ReducedWord(3, (1,)))

    @given(letter_seqs(2), letter_seqs(2))
    def test_length_parity(self, s1, s2):
        u, v = reduce(s1, 2), reduce(s2, 2)
        w, cancellations = concat(u, v)
        assert len(w) <= len(u) + len(v)
        assert len(u) + len(v) - len(w) == 2 * cancellations

    @given(letter_seqs(2), letter_seqs(2))
    def test_agrees_with_reduce(self, s1, s2):
        u, v = reduce(s1, 2), reduce(s2, 2)
        assert concat(u, v)[0] == reduce(u.letters + v.letters, 2)


class TestCancelledPairs:
    @pytest.mark.parametrize(
        "a, b, pairs",
        [
            ((), (), 0),
            ((1, 2), (), 0),
            ((), (-2, 1), 0),
            ((1, 2), (2, -1), 0),
            ((1, 2), (-2, 1), 1),
            ((1, 2), (-2, -1), 2),
            ((2,), (-2, -1, -1), 1),
            ((1, 1, 2), (-2, -1), 2),
        ],
    )
    def test_examples(self, a, b, pairs):
        assert words._cancelled_pairs(a, b) == pairs

    @given(letter_seqs(3, max_size=12), letter_seqs(3, max_size=12))
    def test_half_the_letters_lost_in_reduction(self, s1, s2):
        a, b = reduce(s1, 3).letters, reduce(s2, 3).letters
        lost = len(a) + len(b) - len(reduce(a + b, 3))
        assert words._cancelled_pairs(a, b) * 2 == lost


def test_trusted_words_stay_frozen():
    # _raw_word writes through the slot descriptors; assignment still fails
    w = words._raw_word(2, (1,))
    with pytest.raises(FrozenInstanceError):
        w.letters = (2,)


class TestInverse:
    def test_examples(self):
        assert parse_word("g1 g2", 2).inverse() == parse_word("g2^-1 g1^-1", 2)
        assert ReducedWord(2).inverse() == ReducedWord(2)
        assert parse_word("g1^-1", 2).inverse() == parse_word("g1", 2)

    @given(letter_seqs(3))
    def test_concat_with_inverse_is_identity(self, seq):
        u = reduce(seq, 3)
        assert concat(u, u.inverse())[0] == ReducedWord(3)


class TestEnumeration:
    def test_level_one(self):
        words = list(enumerate_words(2, 1))
        assert [format_word(w) for w in words] == ["g1", "g1^-1", "g2", "g2^-1"]

    def test_level_two_count(self):
        assert len(list(enumerate_words(2, 2))) == 12

    def test_k3_level_four_count(self):
        assert len(list(enumerate_words(3, 4))) == 750

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", range(0, 9))
    def test_matches_formula_distinct_and_reduced(self, k, n):
        # strictly increasing canonical keys prove distinctness without
        # materializing the sphere; within one length canonical_key order
        # is the order of the letters' canonical indices, read by a table
        index = {x: i for i, x in enumerate(sorted(all_letters(k), key=letter_key))}.__getitem__
        count = 0
        previous = None
        for w in enumerate_words(k, n):
            letters = w.letters
            assert w.rank == k and len(letters) == n
            # adjacent letters a, b cancel exactly when a + b == 0
            assert all(map(add, letters, letters[1:]))
            key = tuple(map(index, letters))
            assert previous is None or previous < key
            previous = key
            count += 1
        assert count == word_count(k, n)

    def test_canonical_order(self):
        words = list(enumerate_words(2, 3))
        keys = [canonical_key(w) for w in words]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "k, n",
        [(2, n) for n in range(8)] + [(3, n) for n in range(6)] + [(4, n) for n in range(5)],
    )
    def test_matches_filtered_product(self, k, n):
        # every n-tuple of letters in lexicographic order, kept when reduced
        reference = [
            t for t in itertools.product(all_letters(k), repeat=n)
            if all(a != -b for a, b in zip(t, t[1:]))
        ]
        assert [w.letters for w in enumerate_words(k, n)] == reference

    def test_first_word_streams(self):
        # S_14 at rank 2 holds 6.4 million words; the first one must come
        # without holding more than the O(sqrt) heads and tails
        tracemalloc.start()
        try:
            first = next(enumerate_words(2, 14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.letters == (1,) * 14
        assert peak < 8 * 2**20

    def test_cap(self, monkeypatch):
        # refused before the first word is built
        monkeypatch.setattr(words, "DEFAULT_ENUMERATION_CAP", 100)
        with pytest.raises(CapExceededError):
            next(enumerate_words(2, 4))
        with pytest.raises(CapExceededError):
            next(words._sphere(2, 4, keys=True))

    @pytest.mark.parametrize(
        "k, n", [(2, n) for n in range(9)] + [(3, n) for n in range(6)]
    )
    def test_key_stream_follows_the_words(self, k, n):
        # the same enumerator, read as word codes, in the same order
        assert list(words._sphere(k, n, keys=True)) == [
            word_code(w) for w in enumerate_words(k, n)
        ]


class TestWordCount:
    def test_values(self):
        assert word_count(2, 0) == 1
        assert word_count(2, 3) == 36
        assert word_count(3, 4) == 750

    def test_negative_length(self):
        with pytest.raises(ValueError):
            word_count(2, -1)

    @pytest.mark.parametrize("length", [-1, True, 2.0, "3"])
    def test_length_follows_the_level_rule(self, length):
        # radial's and freeproduct's level rule, under the name "length":
        # a bool is no length
        with pytest.raises(ValueError, match="length must be a nonnegative integer, got "):
            word_count(2, length)


class TestParseFormat:
    def test_atoms(self):
        assert parse_word("g1 g2^-1", 2) == ReducedWord(2, (1, -2))

    def test_parser_reduces(self):
        assert parse_word("g1 g1^-1", 2) == ReducedWord(2)

    def test_exponent_expansion(self):
        assert parse_word("g1^3", 2) == ReducedWord(2, (1, 1, 1))
        assert parse_word("g2^-2", 2) == ReducedWord(2, (-2, -2))

    def test_identity_atom(self):
        assert parse_word("e", 2) == ReducedWord(2)
        assert parse_word("g1 e g2", 2) == ReducedWord(2, (1, 2))

    def test_letters_shorthand(self):
        assert parse_word("a b^-1", 2, letters=True) == ReducedWord(2, (1, -2))
        with pytest.raises(WordParseError):
            parse_word("a", 2)

    @pytest.mark.parametrize("letters", [False, True])
    @pytest.mark.parametrize("text", ["e^2", "e^-1", "e^1"])
    def test_identity_takes_no_exponent(self, text, letters):
        # 'e' is always the identity, never generator 5, so e^E is no atom
        with pytest.raises(WordParseError, match="bad atom 'e\\^"):
            parse_word(text, 6, letters=letters)

    def test_letters_shorthand_skips_e(self):
        assert parse_word("d f", 6, letters=True) == ReducedWord(6, (4, 6))
        assert parse_word("a e b", 6, letters=True) == ReducedWord(6, (1, 2))
        g5 = ReducedWord(6, (5, 5, -6))
        assert format_word(g5, letters=True) == "g5^2 f^-1"
        assert parse_word(format_word(g5, letters=True), 6, letters=True) == g5

    def test_errors(self):
        with pytest.raises(WordParseError):
            parse_word("g3", 2)
        with pytest.raises(WordParseError):
            parse_word("g1^0", 2)
        with pytest.raises(WordParseError):
            parse_word("h1", 2)
        with pytest.raises(WordParseError):
            parse_word("", 2)

    @given(letter_seqs(3))
    def test_round_trip(self, seq):
        w = reduce(seq, 3)
        assert parse_word(format_word(w), 3) == w

    @given(letter_seqs(2))
    def test_round_trip_letters_mode(self, seq):
        w = reduce(seq, 2)
        assert parse_word(format_word(w, letters=True), 2, letters=True) == w


class TestHashing:
    @pytest.mark.parametrize("k, n", [(2, 10), (3, 7)])
    def test_sphere_hashes_distinct(self, k, n):
        # hash(-1) == hash(-2) in CPython; a hash of the raw letters puts
        # words differing only in g1^-1 against g2^-1 into one bucket
        assert len({hash(w) for w in enumerate_words(k, n)}) == word_count(k, n)

    def test_hash_is_the_hash_of_the_key(self):
        # a word hashes its inverted letters, which are distinct small ints
        for w in enumerate_words(2, 8):
            assert hash(w) == hash(tuple(~x for x in w.letters))

    def test_inverse_letters_hash_apart(self):
        for k in (2, 3):
            inverses = [ReducedWord(k, (-i,)) for i in range(1, k + 1)]
            assert len({hash(w) for w in inverses}) == k

    @given(letter_seqs(3, max_size=12), st.integers(min_value=0, max_value=12))
    def test_equal_words_hash_equal(self, seq, cut):
        w = reduce(seq, 3)
        left, right = reduce(seq[:cut], 3), reduce(seq[cut:], 3)
        builds = [
            ReducedWord(3, w.letters),
            reduce(list(w.letters), 3),
            concat(left, right)[0],
            concat(w, ReducedWord(3))[0],
            w.inverse().inverse(),
        ]
        for other in builds:
            assert other == w and hash(other) == hash(w)
        assert len({w, *builds}) == 1


class TestWordCode:
    @pytest.mark.parametrize(
        "k, n_max", [(2, 8), (3, 5), (4, 4), (20, 2)]
    )
    def test_injective_and_in_canonical_order(self, k, n_max):
        # rank 20 has 2k - 1 = 39 >= 32, so each letter takes 6 bits
        spheres = [list(enumerate_words(k, n)) for n in range(n_max + 1)]
        ball = [w for sphere in spheres for w in sphere]
        codes = [word_code(w) for w in ball]
        assert len(set(codes)) == len(ball)
        by_code = [w for _, w in sorted(zip(codes, ball))]
        assert by_code == sorted(ball, key=canonical_key)

    @pytest.mark.parametrize("k, n_max", [(2, 5), (3, 4), (4, 3), (20, 2)])
    def test_decode_inverse_letter_and_length(self, k, n_max):
        bits = (2 * k - 1).bit_length()
        letters, inverse = words._code_letters(k), words._code_inverse(k)
        for x in all_letters(k):
            assert word_code(ReducedWord(k, (-x,))) == word_code(ReducedWord(k, (x,))) ^ 1
        for n in range(n_max + 1):
            for w in enumerate_words(k, n):
                code = word_code(w)
                assert letters(code) == w.letters
                assert (code.bit_length() - 1) // bits == len(w)
                # the inverse word reverses the digits and flips each one's low bit
                assert inverse(code) == word_code(w.inverse())
                assert _digits(inverse(code), bits) == [d ^ 1 for d in reversed(_digits(code, bits))]

    def test_concatenation_without_cancellation(self):
        k, bits = 3, 3
        for u in enumerate_words(k, 2):
            for v in enumerate_words(k, 2):
                if u.letters[-1] != -v.letters[0]:
                    expected = (word_code(u) << bits * len(v)) | (word_code(v) ^ 1 << bits * len(v))
                    assert word_code(concat(u, v)[0]) == expected


def _digits(code, bits):
    """The digits of a code, first letter first, as ints."""
    n = (code.bit_length() - 1) // bits
    return [(code >> bits * (n - 1 - i)) & ((1 << bits) - 1) for i in range(n)]
