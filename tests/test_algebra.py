import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeradial import algebra
from freeradial.algebra import (
    AlgebraElement,
    format_element,
    inner,
    mul,
    parse_element,
    w_n_explicit,
)
from freeradial.radial import RadialElement
from freeradial.words import (
    CapExceededError,
    RankMismatchError,
    ReducedWord,
    all_letters,
    concat,
    format_word,
    parse_word,
    reduce,
    word_count,
)


def words(k, max_size=4):
    return st.lists(st.sampled_from(all_letters(k)), max_size=max_size).map(
        lambda seq: reduce(seq, k)
    )


def elements(k, max_terms=5, max_len=4):
    coeffs = st.integers(-3, 3)
    return st.dictionaries(words(k, max_len), coeffs, max_size=max_terms).map(
        lambda d: AlgebraElement(k, d)
    )


def single(text, k=2, coeff=1):
    return AlgebraElement.from_word(parse_word(text, k), coeff)


class TestLinearOps:
    def test_cancellation_to_zero(self):
        w = single("g1 g2")
        assert w + (-1) * w == AlgebraElement.zero(2)

    def test_scalar_zero(self):
        assert 0 * single("g1") == AlgebraElement.zero(2)

    def test_doubling(self):
        assert single("g1") + single("g1") == single("g1", coeff=2)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            single("g1", k=2) + single("g1", k=3)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            AlgebraElement(2, {ReducedWord(2, (1,)): 0.5})
        with pytest.raises(TypeError):
            single("g1").scalar_mul(1.5)


class Small(int):
    """An int subclass: a Rational that the exact-type fast path skips."""


REJECTED = [0.5, True, False, complex(1), Decimal(1)]
ACCEPTED = [3, Fraction(-2, 7), Small(5)]


class TestScalarCheck:
    @pytest.mark.parametrize("c", REJECTED, ids=repr)
    def test_rejects_inexact_and_bool(self, c):
        w = ReducedWord(2, (1,))
        with pytest.raises(TypeError):
            AlgebraElement(2, {w: c})
        with pytest.raises(TypeError):
            AlgebraElement.from_word(w).scalar_mul(c)
        with pytest.raises(TypeError):
            RadialElement(2, (1, c))
        with pytest.raises(TypeError):
            RadialElement.basis(2, 1).scalar_mul(c)

    @pytest.mark.parametrize("c", ACCEPTED, ids=repr)
    def test_accepts_exact_rationals(self, c):
        w = ReducedWord(2, (1,))
        assert AlgebraElement(2, {w: c}).coeff(w) == c
        assert AlgebraElement.from_word(w).scalar_mul(c).coeff(w) == c
        assert RadialElement(2, (1, c)).coeff(1) == c
        assert RadialElement.basis(2, 1).scalar_mul(c).coeff(1) == c


def mul_by_concat(a, b):
    """(word, coefficient) pairs of a * b from a per-pair loop over words
    with concat, in the order of each word's first pair, zeros dropped."""
    acc = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w, _ = concat(u, v)
            acc[w] = acc.get(w, 0) + cu * cv
    return [(w, c) for w, c in acc.items() if c != 0]


class TestKeyedStorage:
    @pytest.mark.parametrize("k", [2, 3])
    @given(data=st.data())
    @settings(max_examples=60)
    def test_mul_matches_per_pair_concat(self, k, data):
        a = data.draw(elements(k, max_terms=6, max_len=3))
        b = data.draw(elements(k, max_terms=6, max_len=3))
        unit = AlgebraElement.from_word(ReducedWord(k), data.draw(st.integers(1, 3)))
        # a * a^* cancels every pair of a word with its inverse, and the
        # unit puts the empty word on either side
        for left, right in ((a, b), (a, a.adjoint()), (unit + a, b), (b, a + unit)):
            assert list(mul(left, right).items()) == mul_by_concat(left, right)

    def test_mul_of_spheres_matches_per_pair_concat(self):
        for k, m, n in ((2, 2, 3), (2, 3, 3), (3, 2, 2)):
            a, b = w_n_explicit(k, m), w_n_explicit(k, n)
            assert list(mul(a, b).items()) == mul_by_concat(a, b)

    @pytest.mark.parametrize("k", [2, 3])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_adjoint_inverts_each_term(self, k, data):
        a = data.draw(elements(k, max_terms=6, max_len=4))
        assert list(a.adjoint().items()) == [(w.inverse(), c) for w, c in a.items()]

    def test_coeff_of_another_rank_is_zero(self):
        a = AlgebraElement(3, {ReducedWord(3, (1, 2)): 5, ReducedWord(3): 7})
        assert a.coeff(ReducedWord(3, (1, 2))) == 5 and a.trace() == 7
        assert a.coeff(ReducedWord(2, (1, 2))) == 0
        assert a.coeff(ReducedWord(2)) == 0

    def test_items_and_support_give_words(self):
        a = AlgebraElement(2, [(parse_word("g2 g1^-1", 2), 3), (ReducedWord(2), -1)])
        assert list(a.items()) == [(parse_word("g2 g1^-1", 2), 3), (ReducedWord(2), -1)]
        assert a.support() == [ReducedWord(2), parse_word("g2 g1^-1", 2)]

    @pytest.mark.parametrize("k", [2, 20])
    def test_mul_of_long_words_matches_per_pair_concat(self, k):
        # codes of 31 or more letters at rank 2 pass 2^61, where the int
        # hash wraps; shared cores make pairs cancel up to 90 letters deep;
        # rank 20 takes 6 bits per letter
        rng = random.Random(0)

        def word(n):
            out = [rng.choice(all_letters(k))]
            while len(out) < n:
                out.append(rng.choice([x for x in all_letters(k) if x != -out[-1]]))
            return ReducedWord(k, tuple(out))

        cores = [word(n) for n in (1, 31, 40, 90)]
        heads = [word(n) for n in (0, 3, 31)]
        pairs = list(itertools.product(heads, cores))
        a = AlgebraElement(k, {concat(h, c)[0]: i for i, (h, c) in enumerate(pairs, start=1)})
        b = AlgebraElement(k, {concat(c.inverse(), h)[0]: -i for i, (h, c) in enumerate(pairs, start=1)})
        assert max(len(w) for w in a.support()) >= 31
        for left, right in ((a, b), (b, a), (a, a.adjoint()), (a, a)):
            assert list(mul(left, right).items()) == mul_by_concat(left, right)

    def test_long_word_round_trips(self):
        # encoding, decoding and inverting stay linear in the length
        w = ReducedWord(2, (1, 2, -1, -2) * 250_000)
        a = AlgebraElement.from_word(w, 3)
        assert a.items() == [(w, 3)]
        assert a.adjoint().items() == [(w.inverse(), 3)]
        assert mul(a, a.adjoint()).items() == [(ReducedWord(2), 9)]

    def test_keyed_paths_hash_no_word(self, monkeypatch):
        w5 = w_n_explicit(2, 5)
        calls = []
        original = ReducedWord.__hash__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ReducedWord, "__hash__", counted)
        product = mul(w5, w5)
        embedded = RadialElement.basis(2, 10).embed()
        level = w_n_explicit(2, 8)
        assert calls == []
        assert product.support_size() == 88573
        assert embedded.support_size() == word_count(2, 10)
        assert level.support_size() == word_count(2, 8)
        hash(ReducedWord(2, (1,)))  # the counter is live
        assert len(calls) == 1


class TestMul:
    def test_w1_squared(self):
        k = 2
        w1 = w_n_explicit(k, 1)
        expected = w_n_explicit(k, 2) + w_n_explicit(k, 0).scalar_mul(2 * k)
        got = mul(w1, w1)
        assert got == expected
        assert got.coeff(ReducedWord(k)) == 4

    def test_w1_w3(self):
        assert mul(w_n_explicit(2, 1), w_n_explicit(2, 3)) == w_n_explicit(
            2, 4
        ) + w_n_explicit(2, 2).scalar_mul(3)

    def test_generator_times_inverse(self):
        assert mul(single("g1"), single("g1^-1")) == single("e")

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(algebra, "DEFAULT_PRODUCT_CAP", 10)
        with pytest.raises(CapExceededError):
            mul(w_n_explicit(2, 3), w_n_explicit(2, 3))

    @pytest.mark.parametrize("k", [2, 3])
    def test_degree_one_recurrence(self, k):
        w1 = w_n_explicit(k, 1)
        for n in range(2, 7):
            wn = w_n_explicit(k, n)
            expected = w_n_explicit(k, n + 1) + w_n_explicit(k, n - 1).scalar_mul(2 * k - 1)
            assert mul(w1, wn) == expected
            assert mul(wn, w1) == expected

    @given(elements(2, max_terms=4, max_len=3), elements(2, max_terms=4, max_len=3),
           elements(2, max_terms=4, max_len=3))
    @settings(max_examples=40)
    def test_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(elements(2), elements(2))
    @settings(max_examples=40)
    def test_trace_commutes(self, a, b):
        assert mul(a, b).trace() == mul(b, a).trace()


class TestStarStructure:
    def test_wn_self_adjoint(self):
        for n in range(0, 6):
            wn = w_n_explicit(2, n)
            assert wn.adjoint() == wn

    def test_generator_adjoint(self):
        assert single("g1").adjoint() == single("g1^-1")

    @given(elements(2))
    def test_involution(self, a):
        assert a.adjoint().adjoint() == a

    @given(elements(2))
    def test_norm_via_trace(self, a):
        assert a.l2_norm_sq() == mul(a.adjoint(), a).trace()

    @given(elements(2), elements(2))
    @settings(max_examples=40)
    def test_inner_via_trace(self, a, b):
        assert inner(a, b) == mul(b.adjoint(), a).trace()


class TestTraceAndNorm:
    def test_trace_w0(self):
        assert w_n_explicit(2, 0).trace() == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_trace_wn_vanishes(self, n):
        assert w_n_explicit(2, n).trace() == 0

    def test_trace_w1_squared(self):
        assert mul(w_n_explicit(2, 1), w_n_explicit(2, 1)).trace() == 4

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_norm_formula(self, k, n):
        assert w_n_explicit(k, n).l2_norm_sq() == word_count(k, n)

    def test_levels_orthogonal(self):
        levels = [w_n_explicit(2, n) for n in range(6)]
        for n, a in enumerate(levels):
            for m, b in enumerate(levels):
                assert inner(a, b) == (word_count(2, n) if n == m else 0)

    def test_mixed_coefficients(self):
        a = single("g1", coeff=2) + single("g2", coeff=3)
        assert a.l2_norm_sq() == 13


class TestExplicitLevels:
    def test_w0_is_identity(self):
        assert w_n_explicit(2, 0) == single("e")

    def test_w1_support(self):
        assert w_n_explicit(2, 1) == (
            single("g1") + single("g2") + single("g1^-1") + single("g2^-1")
        )

    def test_w4_support_size(self):
        assert w_n_explicit(2, 4).support_size() == 108


class TestTextForm:
    def test_format(self):
        a = single("g1 g2", coeff=Fraction(3, 4)) + single("e", coeff=-2)
        assert format_element(a) == "-2 e\n3/4 g1 g2"

    def test_round_trip(self):
        a = single("g1 g2", coeff=Fraction(3, 4)) + single("g1^-1", coeff=5)
        assert parse_element(format_element(a), 2) == a

    def test_parse_accumulates_and_skips_blanks(self):
        text = "1 g1\n\n1 g1\n-2 g1\n"
        assert parse_element(text, 2) == AlgebraElement.zero(2)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_element("nonsense", 2)
        with pytest.raises(ValueError):
            parse_element("x g1", 2)

    def test_parse_zero_denominator(self):
        with pytest.raises(ValueError, match=r"line 2: bad rational '1/0'"):
            parse_element("1 g2\n1/0 g1", 2)

    @pytest.mark.parametrize(
        "coeff",
        ["1e4301", "1e-4301", "1E+0_4301", "1e" + "9" * 5000],
        ids=["over", "under", "signed-underscored", "5000-digit"],
    )
    def test_parse_refuses_huge_decimal_exponent(self, coeff):
        with pytest.raises(ValueError, match="decimal exponent .* exceeds 4300"):
            parse_element(f"{coeff} g1", 2)

    def test_parse_decimal_exponent_at_bound(self):
        assert parse_element("1e4300 g1\n1e-4300 g2", 2) == (
            single("g1", coeff=10**4300) + single("g2", coeff=Fraction(1, 10**4300))
        )


def repr_by_full_sort(a):
    """AlgebraElement's repr rebuilt from a sort of the whole support, by
    length and then letters with g_i before g_i^-1 before g_(i+1)."""
    terms = dict(a.items())
    order = sorted(terms, key=lambda w: (len(w), [(abs(x), x < 0) for x in w.letters]))
    body = " + ".join(f"{terms[w]}*{format_word(w)}" for w in order[:4])
    if len(terms) > 4:
        body += f" + ... ({len(terms)} terms)"
    return f"AlgebraElement({a.rank}, {body or '0'})"


class TestRepr:
    @pytest.mark.parametrize("size", [0, 3, 4, 5])
    def test_matches_full_sort(self, size):
        # listed out of canonical order, with signed and fractional coefficients
        texts = ["g2^-1 g1", "g1^-1", "g2", "e", "g1 g1"][:size]
        a = AlgebraElement(2, {parse_word(t, 2): Fraction(i - 2, 3) or 5 for i, t in enumerate(texts)})
        assert a.support_size() == size
        assert repr(a) == repr_by_full_sort(a)

    def test_product_of_level_sums(self):
        a = mul(w_n_explicit(2, 2), w_n_explicit(2, 3))
        assert a.support_size() > 4
        assert repr(a) == repr_by_full_sort(a)
