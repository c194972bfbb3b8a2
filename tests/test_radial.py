import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeradial import algebra, counting, radial
from freeradial.algebra import AlgebraElement, mul, w_n_explicit
from freeradial.radial import (
    RadialElement,
    deviation,
    deviation_bound,
    expect,
    expect_xwny,
    partial_sum_criterion,
    radial_mul,
)
from freeradial.verify import oracle_expect
from freeradial.words import (
    RankMismatchError,
    ReducedWord,
    all_letters,
    enumerate_words,
    parse_word,
    reduce,
    word_count,
)


def words(k, max_size=4):
    return st.lists(st.sampled_from(all_letters(k)), max_size=max_size).map(
        lambda seq: reduce(seq, k)
    )


def elements(k, max_terms=5, max_len=4):
    return st.dictionaries(words(k, max_len), st.integers(-3, 3), max_size=max_terms).map(
        lambda d: AlgebraElement(k, d)
    )


def basis(k, n):
    return RadialElement.basis(k, n)


class TestRadialMul:
    def test_w1_squared(self):
        assert radial_mul(basis(2, 1), basis(2, 1)) == RadialElement(2, (4, 0, 1))

    def test_w1_w4(self):
        assert radial_mul(basis(2, 1), basis(2, 4)) == RadialElement(2, (0, 0, 0, 3, 0, 1))

    def test_w2_squared_matches_convolution(self):
        product = radial_mul(basis(2, 2), basis(2, 2))
        assert product.embed() == mul(w_n_explicit(2, 2), w_n_explicit(2, 2))

    @pytest.mark.parametrize("k", [2, 3])
    def test_grid_against_convolution(self, k):
        top = 5 if k == 2 else 4
        for m in range(top + 1):
            for n in range(m, top + 1):
                product = radial_mul(basis(k, m), basis(k, n))
                assert product.embed() == mul(w_n_explicit(k, m), w_n_explicit(k, n)), (k, m, n)

    def test_commutative_and_bilinear(self):
        a = RadialElement(2, (1, -2, 3))
        b = RadialElement(2, (0, 5, 0, Fraction(1, 2)))
        assert radial_mul(a, b) == radial_mul(b, a)
        c = RadialElement(2, (2, 1))
        assert radial_mul(a + c, b) == radial_mul(a, b) + radial_mul(c, b)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            radial_mul(basis(2, 1), basis(3, 1))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_character_evaluations_high_degree(self, k):
        # every-letter-to-1 and every-letter-to-(-1) are algebra
        # homomorphisms, giving exact mass identities for the structure
        # constants far beyond what explicit supports can reach
        pairs = [(m, n) for m in range(0, 13) for n in range(m, 13)]
        if k == 2:
            pairs += [(1200, 1300), (5000, 5000)]
        for m, n in pairs:
            product = radial_mul(basis(k, m), basis(k, n))
            plus = sum(c * word_count(k, d) for d, c in enumerate(product.coeffs))
            minus = sum(
                c * (-1) ** d * word_count(k, d) for d, c in enumerate(product.coeffs)
            )
            assert plus == word_count(k, m) * word_count(k, n)
            assert minus == (-1) ** (m + n) * word_count(k, m) * word_count(k, n)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_linearization_formula(self, k):
        # term by term: w_m w_n = w_{m+n} + sum_{t=1}^{m-1} (q-1) q^(t-1) w_{m+n-2t}
        # + c w_{n-m} for m <= n, with c = q^m (m < n) or 2k q^(m-1) (m = n)
        q = 2 * k - 1
        for m in range(40):
            for n in range(m, 40):
                expected = [0] * (m + n + 1)
                expected[m + n] += 1
                if m > 0:
                    for t in range(1, m):
                        expected[m + n - 2 * t] += (q - 1) * q ** (t - 1)
                    expected[n - m] += q**m if m < n else 2 * k * q ** (m - 1)
                assert radial_mul(basis(k, m), basis(k, n)) == RadialElement(k, expected)
                assert radial_mul(basis(k, n), basis(k, m)) == RadialElement(k, expected)

    @given(
        st.lists(st.integers(-3, 3), max_size=5),
        st.lists(st.integers(-3, 3), max_size=5),
        st.lists(st.integers(-3, 3), max_size=5),
    )
    @settings(max_examples=50)
    def test_associative(self, u, v, w):
        a, b, c = RadialElement(2, u), RadialElement(2, v), RadialElement(2, w)
        assert radial_mul(radial_mul(a, b), c) == radial_mul(a, radial_mul(b, c))


def rationals():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def radial_elements(k, max_degree):
    return st.lists(rationals(), max_size=max_degree + 1).map(lambda c: RadialElement(k, c))


def dense(rng, k, degree, fractions):
    def coefficient():
        p = rng.choice((-5, -3, -2, -1, 1, 2, 4, 7))
        return Fraction(p, rng.randint(1, 6)) if fractions else p

    return RadialElement(k, [coefficient() for _ in range(degree + 1)])


def characters(element):
    """The element's images under every letter to 1 and every letter to -1."""
    k = element.rank
    plus = sum(c * word_count(k, d) for d, c in enumerate(element.coeffs))
    minus = sum(c * (-1) ** d * word_count(k, d) for d, c in enumerate(element.coeffs))
    return plus, minus


class TestRadialMulRational:
    @given(radial_elements(2, 3), radial_elements(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_against_convolution_k2(self, a, b):
        assert radial_mul(a, b).embed() == mul(a.embed(), b.embed())

    @given(radial_elements(3, 2), radial_elements(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_against_convolution_k3(self, a, b):
        assert radial_mul(a, b).embed() == mul(a.embed(), b.embed())

    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_high_degree_characters_and_bilinearity(self, k):
        rng = random.Random(k)
        a, c = dense(rng, k, 80, True), dense(rng, k, 77, True)
        b = dense(rng, k, 83, True)
        ab = radial_mul(a, b)
        (a_plus, a_minus), (b_plus, b_minus) = characters(a), characters(b)
        assert characters(ab) == (a_plus * b_plus, a_minus * b_minus)
        assert ab.degree == 163 and ab == radial_mul(b, a)
        assert radial_mul(a + c, b) == ab + radial_mul(c, b)
        assert radial_mul(a.scalar_mul(Fraction(-3, 5)), b) == ab.scalar_mul(Fraction(-3, 5))
        assert all(type(x) is Fraction for x in ab.coeffs)

    def test_output_type_rule(self):
        # a Fraction(0) among ints still gives int output; any nonzero
        # Fraction, even one equal to an int, gives Fraction output
        ints = radial_mul(RadialElement(2, (2, 0, 1)), RadialElement(2, (1, 3)))
        zero = radial_mul(RadialElement(2, (2, Fraction(0), 1)), RadialElement(2, (1, 3)))
        two = radial_mul(RadialElement(2, (Fraction(2, 1), 0, 1)), RadialElement(2, (1, 3)))
        assert ints == zero == two
        assert all(type(c) is int for c in ints.coeffs + zero.coeffs)
        assert all(type(c) is Fraction for c in two.coeffs)

    @pytest.mark.parametrize("k", [2, 3])
    def test_int_inputs_give_int_coefficients(self, k):
        rng = random.Random(10 + k)
        a, b = dense(rng, k, 60, False), dense(rng, k, 45, False)
        ab = radial_mul(a, b)
        assert ab.coeffs and all(type(x) is int for x in ab.coeffs)
        # the same values through Fraction-typed factors
        assert radial_mul(a.scalar_mul(Fraction(1)), b) == ab


def signed_list(rng, length, big):
    """Signed entries up to big in absolute value, about a third of them 0."""
    return [rng.randint(-big, big) if rng.random() < 0.7 else 0 for _ in range(length)]


def count_packed(monkeypatch):
    """Count the calls of the packed linearization from here on."""
    calls = []
    original = radial._linearize_packed

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(radial, "_linearize_packed", recording)
    return calls


class TestPackedLinearization:
    """The packed path against the pair loop, which stays the reference."""

    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    def test_matches_pair_loop(self, k):
        rng = random.Random(k)
        shapes = [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(60)]
        shapes += [(1, 1), (1, 25), (25, 1), (2, 2), (3, 90), (90, 2), (120, 7)]
        cases = []
        for la, lb in shapes:
            big = rng.choice((1, 7, 10**30))
            cases.append((signed_list(rng, la, big), signed_list(rng, lb, big)))
        # long runs of zeros inside and at the ends, and a factor of zeros
        a = [0, 0, 5, 0, 0, 0, -10**30, 0, 0, 3, 0, 0]
        b = [7, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 2]
        cases += [(a, b), (a, [0] * 9), ([0, 0, 0, 1], b), (b[::-1], a[::-1])]
        for a, b in cases:
            expected = radial._linearize_pairs(k, a, b)
            assert radial._linearize_packed(k, a, b) == expected, (k, a, b)
            assert radial._linearize_packed(k, b, a) == expected, (k, a, b)

    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    def test_fraction_factors_through_radial_mul(self, k, monkeypatch):
        rng = random.Random(100 + k)
        cases = [
            (dense(rng, k, 30, True), dense(rng, k, 4, False)),
            (dense(rng, k, 2, True), dense(rng, k, 50, True)),
            (dense(rng, k, 12, False), dense(rng, k, 12, True)),
            (dense(rng, k, 9, False), dense(rng, k, 11, False)),
        ]
        monkeypatch.setattr(radial, "_linearize", radial._linearize_packed)
        got = [radial_mul(a, b) for a, b in cases]
        monkeypatch.setattr(radial, "_linearize", radial._linearize_pairs)
        expected = [radial_mul(a, b) for a, b in cases]
        assert got == expected
        for g, e in zip(got, expected):
            assert list(map(type, g.coeffs)) == list(map(type, e.coeffs))

    @pytest.mark.parametrize("k, top", [(2, 4), (3, 3)])
    def test_against_convolution(self, k, top, monkeypatch):
        rng = random.Random(200 + k)
        calls = count_packed(monkeypatch)
        for _ in range(6):
            # no zero coefficient, so every product is dense
            degree = rng.randint(1, top)
            a = RadialElement(k, [rng.choice((-2, -1, 1, 3)) for _ in range(degree + 1)])
            b = RadialElement(k, [Fraction(rng.choice((-3, 1, 2)), rng.randint(1, 3))
                                  for _ in range(top + 1)])
            assert radial_mul(a, b).embed() == mul(a.embed(), b.embed()), (a, b)
        assert len(calls) == 6

    def test_sparse_products_keep_the_pair_loop(self, monkeypatch):
        calls = count_packed(monkeypatch)
        for k, m, n in [(2, 0, 0), (2, 3, 7), (3, 40, 40), (2, 500, 3000)]:
            radial_mul(basis(k, m), basis(k, n))
        # w_4 w_6 w_11, as deviation multiplies at its levels up to |x| + |y|
        radial._linearize(3, radial._linearize(3, radial._unit(4), radial._unit(6)), radial._unit(11))
        x, y = parse_word("g1 g2^-1", 2), parse_word("g2 g1 g1", 2)
        for n in range(len(x) + len(y) + 1):
            deviation(x, y, n)
            expect_xwny(ReducedWord(2), y, n)
        assert calls == []
        rng = random.Random(0)
        radial_mul(dense(rng, 2, 20, False), dense(rng, 2, 20, False))
        assert len(calls) == 1

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_wide_slots_keep_the_pair_loop(self, k, monkeypatch):
        # three nonzero entries times a dense factor of the same length:
        # packed, the wide product would hold length * log2(2k-1) bits per
        # slot for a few pairs per degree
        rng = random.Random(k)
        calls = count_packed(monkeypatch)
        for length in (101, 1001):
            sparse = [0] * length
            for i in (0, length // 2, length - 1):
                sparse[i] = rng.choice((-2, 1, 3))
            a, b = RadialElement(k, sparse), dense(rng, k, length - 1, False)
            assert radial_mul(a, b) == radial_mul(b, a)
        assert calls == []

    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_products_pack(self, k, monkeypatch):
        # the degrees of the benchmark's dense products, 20 to 120
        rng = random.Random(k)
        calls = count_packed(monkeypatch)
        for m, n in [(20, 20), (20, 120), (120, 33), (120, 120)]:
            radial_mul(dense(rng, k, m, m == 120), dense(rng, k, n, False))
        assert len(calls) == 4


class TestOperators:
    """The operator forms of both element classes; __rmul__ is __mul__."""

    @pytest.mark.parametrize("element", [
        RadialElement(2, (1, Fraction(-2, 3), 0, 5)),
        AlgebraElement(2, {parse_word("g1 g2", 2): 3, ReducedWord(2): Fraction(1, 4)}),
    ], ids=["radial", "algebra"])
    def test_scalars_on_either_side(self, element):
        assert 2 * element == element * 2 == element.scalar_mul(2)
        half = element.scalar_mul(Fraction(1, 2))
        assert element * Fraction(1, 2) == Fraction(1, 2) * element == half
        assert 0 * element == element.scalar_mul(0)
        for bad in (True, 0.5):
            with pytest.raises(TypeError):
                bad * element
            with pytest.raises(TypeError):
                element * bad

    def test_radial_times_algebra_is_refused(self):
        a, x = RadialElement.basis(2, 1), w_n_explicit(2, 1)
        with pytest.raises(TypeError):
            a * x
        with pytest.raises(TypeError):
            x * a


class TestNormAndEmbed:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_basis_norm(self, k, n):
        assert basis(k, n).norm_sq() == word_count(k, n)

    def test_zero(self):
        assert RadialElement.zero(2).norm_sq() == 0

    def test_normalized_basis(self):
        n = 3
        unit = basis(2, n).scalar_mul(Fraction(1, word_count(2, n)))
        assert unit.norm_sq() == Fraction(1, word_count(2, n))

    def test_embed_norm_agrees(self):
        a = RadialElement(2, (1, Fraction(-1, 2), 0, 2))
        assert a.embed().l2_norm_sq() == a.norm_sq()

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=5))
    @settings(max_examples=40)
    def test_embed_norm_agrees_random(self, coeffs):
        a = RadialElement(2, coeffs)
        assert a.embed().l2_norm_sq() == a.norm_sq()

    @pytest.mark.parametrize("degree", [True, False, 2.0, 1.0, -1], ids=repr)
    def test_degree_must_be_an_int(self, degree):
        # a bool or a float is no degree, although True == 1 and 2.0 == 2
        element = RadialElement(2, (1, 2, 3))
        with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
            RadialElement.basis(2, degree)
        with pytest.raises(ValueError, match="degree must be a nonnegative integer"):
            element.coeff(degree)

    def test_trailing_zeros_trimmed(self):
        assert RadialElement(2, (1, 0, 0)).coeffs == (1,)
        assert RadialElement(2, (1, 0, 0)).degree == 0


class TestExpect:
    def test_single_word(self):
        x = AlgebraElement.from_word(parse_word("g1 g2", 2))
        assert expect(x) == RadialElement(2, (0, 0, Fraction(1, 12)))

    def test_fixes_radial_elements(self):
        for n in range(0, 5):
            assert expect(w_n_explicit(2, n)) == basis(2, n)

    def test_empty_levels_are_fraction_zero(self):
        # every level below the word's length holds Fraction(0), as the
        # occupied one holds a Fraction
        x = AlgebraElement.from_word(parse_word("g1 g2 g1 g2 g1", 2))
        coeffs = expect(x).coeffs
        assert coeffs == (0, 0, 0, 0, 0, Fraction(1, 4 * 3**4))
        assert all(type(c) is Fraction for c in coeffs)

    def test_level_sum_zero(self):
        x = AlgebraElement.from_word(parse_word("g1", 2)) - AlgebraElement.from_word(
            parse_word("g2", 2)
        )
        assert expect(x) == RadialElement.zero(2)

    @given(elements(2))
    @settings(max_examples=40)
    def test_projection(self, x):
        p = expect(x)
        assert expect(p.embed()) == p

    @given(elements(2))
    @settings(max_examples=40)
    def test_trace_preserving(self, x):
        assert Fraction(x.trace()) == Fraction(expect(x).coeff(0))

    @given(elements(2, max_terms=4, max_len=3), st.lists(st.integers(-2, 2), max_size=4))
    @settings(max_examples=30)
    def test_modularity(self, x, b_coeffs):
        b = RadialElement(2, b_coeffs)
        assert expect(mul(b.embed(), x)) == radial_mul(b, expect(x))


K2_OUTER = [w for length in (1, 2) for w in enumerate_words(2, length)]
K3_PAIRS = [
    ("g1 g2", "g2^-1 g1^-1"),
    ("g3 g1^-1", "g1 g3^-1"),
    ("g2 g3 g1", "g1^-1"),
    ("g3^-1", "g3"),
    ("g1 g2", "g2^-1 g3"),
]


class TestExpectSandwich:
    def test_frozen_g1_g2_n4(self):
        # coefficient of w_6 is 61 / 972, the (r, s) = (0, 0) cell
        value = expect_xwny(parse_word("g1", 2), parse_word("g2", 2), 4)
        assert value.coeff(6) == Fraction(61, 972)

    def test_frozen_g1_g1inv_n5(self):
        # full vector frozen from the enumeration oracle
        value = expect_xwny(parse_word("g1", 2), parse_word("g1^-1", 2), 5)
        assert value == RadialElement(
            2,
            (0, 0, 0, Fraction(5, 9), 0, Fraction(61, 162), 0, Fraction(91, 1458)),
        )

    def test_threshold_matches_explicit(self):
        for x_text, y_text in [("g1", "g1"), ("g1 g2", "g2^-1"), ("g2 g1", "g1 g1")]:
            x, y = parse_word(x_text, 2), parse_word(y_text, 2)
            n = len(x) + len(y) + 2
            assert expect_xwny(x, y, n) == oracle_expect(x, y, n)

    def test_oracle_agreement_sample(self):
        x, y = parse_word("g2^-1", 2), parse_word("g1 g2", 2)
        for n in range(5, 9):
            assert expect_xwny(x, y, n) == oracle_expect(x, y, n)

    def test_small_n_matches_oracle(self):
        # every level up to |x| + |y| + 2, where the two cancellation zones
        # can meet or swallow the middle word whole
        pairs = [(x, y) for x in K2_OUTER for y in K2_OUTER]
        pairs += [(parse_word(x_text, 3), parse_word(y_text, 3)) for x_text, y_text in K3_PAIRS]
        long_x = parse_word("g1 g2^-1 g1 g2 g2 g1", 2)
        pairs += [(long_x, parse_word("g2 g1", 2)), (long_x, parse_word("g1^-1", 2))]
        # oracle_expect's convolutions, with w_n and x * w_n built once per
        # (rank, x, n) and each y convolved from the shared product
        wn, x_wn = {}, {}
        for x, y in pairs:
            for n in range(len(x) + len(y) + 3):
                if (x, n) not in x_wn:
                    if (x.rank, n) not in wn:
                        wn[x.rank, n] = w_n_explicit(x.rank, n)
                    x_wn[x, n] = mul(AlgebraElement.from_word(x), wn[x.rank, n])
                oracle = expect(mul(x_wn[x, n], AlgebraElement.from_word(y)))
                assert expect_xwny(x, y, n) == oracle, (x, y, n)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            expect_xwny(parse_word("g1", 2), parse_word("g1", 2), -1)

    @pytest.mark.parametrize("k, top", [(2, 7), (3, 4)])
    def test_identity_side_matches_oracle(self, k, top):
        # every other side of up to 3 letters, on the left and on the right,
        # at every level up to top
        e = ReducedWord(k)
        for w in (w for length in range(4) for w in enumerate_words(k, length)):
            for n in range(top + 1):
                for x, y in ((e, w), (w, e)):
                    assert expect_xwny(x, y, n) == oracle_expect(x, y, n), (x, y, n)
        # then one word per length up to level 7, by oracle_expect's
        # convolutions with each w_n built once (6 * 5^6 words at rank 3)
        for n in range(top + 1, 8):
            wn = w_n_explicit(k, n)
            for w in (next(enumerate_words(k, length)) for length in range(4)):
                single = AlgebraElement.from_word(w)
                assert expect_xwny(e, w, n) == expect(mul(wn, single)), (w, n)
                assert expect_xwny(w, e, n) == expect(mul(single, wn)), (w, n)

    @pytest.mark.parametrize("k", [2, 3])
    def test_identity_side_is_modularity(self, k):
        # E(x) w_n E(y) with two radial products, as expect_fp built it for
        # an embedded pair with an empty side: same values, same types
        e = ReducedWord(k)
        for w in (w for length in range(4) for w in enumerate_words(k, length)):
            for n in range(8):
                for x, y in ((e, w), (w, e)):
                    middle = radial_mul(basis(k, n), expect(AlgebraElement.from_word(y)))
                    modular = radial_mul(expect(AlgebraElement.from_word(x)), middle)
                    got = expect_xwny(x, y, n)
                    assert got == modular, (x, y, n)
                    assert list(map(type, got.coeffs)) == list(map(type, modular.coeffs))

    def test_identity_side_takes_no_radial_product(self, monkeypatch):
        # w_l w_n w_m / (|S_l| |S_m|) straight from the integer kernel: at
        # most 2 min(l + m, n) + 1 nonzero degrees, and the empty ones share
        # one Fraction(0)
        def refuse(*args):
            raise AssertionError("the identity side took a radial product")

        monkeypatch.setattr(radial, "radial_mul", refuse)
        e, w = ReducedWord(2), parse_word("g1 g2", 2)
        for n in (0, 1, 5, 20000):
            for x, y in ((e, w), (w, e)):
                coeffs = expect_xwny(x, y, n).coeffs
                assert len(coeffs) == n + 3 and set(map(type, coeffs)) == {Fraction}
                assert sum(map(bool, coeffs)) <= 2 * min(2, n) + 1
                assert len({id(c) for c in coeffs if not c}) <= 1

    def test_identity_side_rank_mismatch(self):
        for x, y in ((ReducedWord(2), parse_word("g1", 3)), (parse_word("g1", 2), ReducedWord(3)),
                     (ReducedWord(2), ReducedWord(3))):
            with pytest.raises(RankMismatchError):
                expect_xwny(x, y, 4)

    def test_sphere_average(self):
        # summing the sandwich expectation over a whole sphere of outer
        # words reproduces the expectation with the level sum in place
        y = parse_word("g1", 2)
        for ell, n in [(1, 4), (1, 6), (2, 5), (2, 7)]:
            total = RadialElement.zero(2)
            for z in enumerate_words(2, ell):
                total = total + expect_xwny(z, y, n)
            direct = expect(
                mul(mul(w_n_explicit(2, ell), w_n_explicit(2, n)), AlgebraElement.from_word(y))
            )
            assert total == direct, (ell, n)


def expect_of(w):
    return expect(AlgebraElement.from_word(w))


def deviation_by_norm(x, y, n):
    """||E(x w_n y) - E(x) E(y) w_n||^2 written out in RadialElement arithmetic."""
    right = expect_of(x) * (expect_of(y) * basis(x.rank, n))
    return (expect_xwny(x, y, n) - right).norm_sq()


class TestDeviation:
    @pytest.mark.parametrize("x", K2_OUTER, ids=str)
    def test_matches_norm_of_difference_rank_two(self, x):
        for y in K2_OUTER:
            for n in [*range(len(x) + len(y) + 13), 151]:
                value, expected = deviation(x, y, n), deviation_by_norm(x, y, n)
                assert value == expected and type(value) is type(expected), (y, n)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_norm_of_difference_long_words(self, k):
        # the closed form past |x| + |y| on words of up to 40 letters, where
        # the Horner pass in q^2 spans up to 81 offsets
        for x, y in seeded_pairs(60 + k, k, 10, max_len=40):
            ell_m = len(x) + len(y)
            for n in (ell_m + 1, ell_m + 2, 300):
                value, expected = deviation(x, y, n), deviation_by_norm(x, y, n)
                assert value == expected and type(value) is type(expected), (x, y, n)

    def test_scaled_deviation_takes_one_value_per_parity(self):
        # deviation * |S_n| = sums[n % 2] / (4k^2 q^(l+m)) at every level
        # n > l + m: every pair of nonempty words at k = 2 with l, m <= 3
        # and at k = 3 with l + m <= 4
        for k, lengths in ((2, [(ell, m) for ell in range(1, 4) for m in range(1, 4)]),
                           (3, [(ell, m) for ell in range(1, 4) for m in range(1, 5 - ell)])):
            q = 2 * k - 1
            for ell, m in lengths:
                levels = [*range(ell + m + 1, ell + m + 13), 1000, 1001]
                for x in enumerate_words(k, ell):
                    for y in enumerate_words(k, m):
                        _, sums = counting._pair_stats(k, x.letters, y.letters)
                        for n in levels:
                            expected = Fraction(sums[n % 2], 4 * k * k * q ** (ell + m))
                            assert deviation(x, y, n) * word_count(k, n) == expected, (x, y, n)

    @pytest.mark.parametrize(
        "x_text, y_text, odd, even",
        [("g1", "g1", Fraction(59, 8), Fraction(59, 72)),
         ("g1 g2", "g2^-1 g1^-1", Fraction(10643, 648), Fraction(3955, 72))],
    )
    def test_scaled_deviation_pinned(self, x_text, y_text, odd, even):
        # the two values of ROADMAP item 7, also through the norm of the
        # difference at the first two levels
        x, y = parse_word(x_text, 2), parse_word(y_text, 2)
        top = len(x) + len(y)
        for n in (top + 1, top + 2, 1000, 1001):
            assert deviation(x, y, n) * word_count(2, n) == (odd if n % 2 else even), n
        for n in (top + 1, top + 2):
            assert deviation_by_norm(x, y, n) * word_count(2, n) == (odd if n % 2 else even), n

    @pytest.mark.parametrize("x_text, y_text", K3_PAIRS)
    def test_matches_norm_of_difference_rank_three(self, x_text, y_text):
        x, y = parse_word(x_text, 3), parse_word(y_text, 3)
        for n in range(len(x) + len(y) + 13):
            value, expected = deviation(x, y, n), deviation_by_norm(x, y, n)
            assert value == expected and type(value) is type(expected), n

    @pytest.mark.parametrize("n", [100, 150, 400])
    def test_matches_norm_of_difference_high_level(self, n):
        x, y = parse_word("g1 g2^-1 g3", 3), parse_word("g3^-1 g2 g1^-1", 3)
        value, expected = deviation(x, y, n), deviation_by_norm(x, y, n)
        assert value == expected and type(value) is Fraction is type(expected)

    def test_partial_sums_are_running_sums(self):
        x, y = parse_word("g1 g2^-1 g3", 3), parse_word("g3^-1 g2 g1^-1", 3)
        terms = [Fraction(deviation(x, y, n), word_count(3, n)) for n in range(41)]
        assert partial_sum_criterion(x, y, 40) == list(accumulate(terms))

    def test_frozen_value(self):
        # frozen from the enumeration oracle
        x = parse_word("g1", 2)
        assert deviation(x, x, 4) == Fraction(59, 7776)

    def test_explicit_path_consistency(self):
        # same rational whether the right-hand product is recomputed by
        # embedding or by the radial recurrence
        x, y = parse_word("g1", 2), parse_word("g1", 2)
        n = 4
        left = expect_xwny(x, y, n)
        right = radial_mul(expect_of(x), radial_mul(expect_of(y), basis(2, n)))
        direct = (left - right).norm_sq()
        embedded = (left.embed() - right.embed()).l2_norm_sq()
        assert deviation(x, y, n) == direct == embedded

    def test_no_enumeration_at_small_n(self, monkeypatch):
        # deviation and the series stay on the counting path at every level,
        # even where a 6-letter outer word meets the middle word
        def refuse(*args, **kwargs):
            raise AssertionError("library path enumerated a sphere or convolved")

        # _sphere is the sphere enumerator behind w_n_explicit and embed
        monkeypatch.setattr(algebra, "_sphere", refuse)
        monkeypatch.setattr(radial, "_sphere", refuse)
        monkeypatch.setattr(algebra, "mul", refuse)
        x, y = parse_word("g1 g2^-1 g1 g2 g2 g1", 2), parse_word("g2 g1", 2)
        values = [deviation(x, y, n) for n in range(21)]
        sums = partial_sum_criterion(x, y, 20)
        assert sums[-1] == sum(Fraction(v, word_count(2, n)) for n, v in enumerate(values))

    def test_identity_short_circuit(self):
        e = ReducedWord(2)
        for n in range(0, 5):
            left, right = deviation(e, parse_word("g1", 2), n), deviation(parse_word("g1 g2", 2), e, n)
            assert left == right == 0 and type(left) is type(right) is int

    def test_scaled_bound_small_grid(self):
        for x_text in ("g1", "g2^-1"):
            for y_text in ("g1", "g1 g2"):
                x, y = parse_word(x_text, 2), parse_word(y_text, 2)
                bound = deviation_bound(len(x), len(y), 2)
                for n in range(len(x) + len(y) + 2, 11):
                    assert deviation(x, y, n) * word_count(2, n) <= bound


def random_word(rng, k, length):
    letters = []
    while len(letters) < length:
        a = rng.choice(all_letters(k))
        if not letters or a != -letters[-1]:
            letters.append(a)
    return ReducedWord(k, tuple(letters))


def seeded_pairs(seed, k, count, max_len=4):
    rng = random.Random(seed)
    return [
        (random_word(rng, k, rng.randint(1, max_len)), random_word(rng, k, rng.randint(1, max_len)))
        for _ in range(count)
    ]


def reference_sandwich_counts(x, y, n):
    """One cell_count per (r, s) cell over the public boundary sets, and the
    middle words swallowed whole, built and measured one by one."""
    k, ell, m = x.rank, len(x), len(y)
    counts = {}
    for r in range(min(ell, n - 1) + 1):
        for s in range(min(m, n - 1 - r) + 1):
            d = n + ell + m - 2 * (r + s)
            cell = counting.cell_count(k, counting.sigma_r(x, r), counting.tau_s(y, s), n - r - s)
            counts[d] = counts.get(d, 0) + cell
    x_inv, y_inv = x.inverse().letters, y.inverse().letters
    splits = range(max(0, n - m), min(ell, n) + 1)
    for u in {reduce(x_inv[:j] + y_inv[m - n + j :], k) for j in splits}:
        if len(u) == n:
            d = len(x * u * y)
            counts[d] = counts.get(d, 0) + 1
    return counts


class TestSandwichCounts:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_per_cell_reference(self, k):
        for x, y in seeded_pairs(k, k, 6):
            for n in [*range(61), 400, 1001]:
                expected = reference_sandwich_counts(x, y, n)
                assert counting.sandwich_counts(x, y, n) == expected, (x, y, n)

    @pytest.mark.parametrize("k, n_max", [(4, 4), (5, 3)])
    def test_expectation_matches_oracle_at_high_rank(self, k, n_max):
        for x, y in seeded_pairs(10 + k, k, 3, max_len=2):
            for n in range(n_max + 1):
                assert expect_xwny(x, y, n) == oracle_expect(x, y, n), (x, y, n)

    def test_deviation_work_is_independent_of_level(self, monkeypatch):
        # past |x| + |y| every (r, s) cell has a surviving middle, and no
        # middle word is swallowed whole; the leading parts of the counts
        # cancel against E(x) E(y) w_n, so deviation takes no closed form
        # and builds no word at any such level
        calls = {"cells": 0, "reduce": 0}

        def tally(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(counting, "_cell_closed_form", tally("cells", counting._cell_closed_form))
        monkeypatch.setattr(counting, "reduce", tally("reduce", counting.reduce))
        monkeypatch.setattr("freeradial.words.reduce", tally("reduce", reduce))
        x, y = parse_word("g1 g2^-1 g3", 3), parse_word("g3^-1 g2", 3)
        seen = []
        for n in (40, 4000):
            calls.update(cells=0, reduce=0)
            deviation(x, y, n)
            seen.append(dict(calls))
        assert seen == [{"cells": 0, "reduce": 0}] * 2


def cell_statistics(k, sigma, tau):
    """(S T, E, I) of a cell, read from its public boundary sets."""
    return len(sigma) * len(tau), len(sigma & tau), sum(1 for a in sigma if -a in tau)


def value_and_type(value):
    if isinstance(value, RadialElement):
        return value.rank, [(c, type(c)) for c in value.coeffs]
    return value, type(value)


def clear_pair_caches():
    counting._pair_stats.cache_clear()


class TestPairTables:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_sums_of_the_public_cells(self, k):
        for x, y in seeded_pairs(20 + k, k, 6, max_len=5):
            ell, m = len(x), len(y)
            stats, _ = counting._pair_stats(k, x.letters, y.letters)
            expected = [[0, 0, 0] for _ in range(ell + m + 1)]
            for r in range(ell + 1):
                for s in range(m + 1):
                    cell = cell_statistics(k, counting.sigma_r(x, r), counting.tau_s(y, s))
                    expected[r + s] = [a + b for a, b in zip(expected[r + s], cell)]
            assert stats == tuple(map(tuple, expected)), (x, y)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_leading_parts_are_the_product(self, k):
        # the first step of deviation's proof: past |x| + |y| the coefficient
        # c_t of w_l w_m w_n at degree n + l + m - 2t satisfies
        # 4k^2 q^(l+m-t) c_t = |S_l| |S_m| ST_t, so the q^(L-1) parts of the
        # counts are E(x) E(y) w_n's exactly
        rng = random.Random(50 + k)
        q = 2 * k - 1
        for ell in range(1, 7):
            for m in range(1, 7):
                x, y = random_word(rng, k, ell), random_word(rng, k, m)
                stats, _ = counting._pair_stats(k, x.letters, y.letters)
                sizes = [size for size, _, _ in stats]
                p = word_count(k, ell) * word_count(k, m)
                product_lm = radial_mul(basis(k, ell), basis(k, m))
                for n in (ell + m + 1, ell + m + 2):
                    c = radial_mul(product_lm, basis(k, n)).coeffs
                    top = ell + m + n
                    for t in range(ell + m + 1):
                        assert 4 * k * k * q ** (ell + m - t) * c[top - 2 * t] == p * sizes[t], (
                            ell, m, n, t)

    def test_offsets_cancel_over_the_spheres(self):
        # the second step: ST_t is the same for every pair of words of
        # lengths l, m, and the offsets R_t(n) of _cell_offset sum to zero
        # over S_l x S_m at either parity of n, though not pair by pair
        k = 2
        for ell in range(1, 4):
            for m in range(1, 4):
                rows = [counting._pair_stats(k, x.letters, y.letters)[0]
                        for x in enumerate_words(k, ell) for y in enumerate_words(k, m)]
                nonzero = 0
                for t in range(ell + m + 1):
                    assert len({row[t][0] for row in rows}) == 1, (ell, m, t)
                    for n in (ell + m + 1, ell + m + 2):
                        offsets = [counting._cell_offset(k, *row[t], n - t) for row in rows]
                        assert sum(offsets) == 0, (ell, m, t, n)
                        nonzero += any(offsets)
                assert nonzero, (ell, m)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_parity_sums_are_the_level_numerators(self, k):
        # sums[p] is the Horner pass in q^2 over the squared offsets R_t(n)
        # that deviation ran at every level n > |x| + |y| of parity p,
        # written here from the per-t statistics
        q = 2 * k - 1
        for x, y in seeded_pairs(70 + k, k, 10, max_len=40):
            stats, sums = counting._pair_stats(k, x.letters, y.letters)
            top = len(x) + len(y)
            for n in (top + 1, top + 2):
                total = 0
                for t in range(top, -1, -1):
                    size, equal, inverse = stats[t]
                    offset = (-1) ** (n - t) * (size - k * (equal + inverse)) + k * (equal - inverse)
                    total = total * q * q + offset**2
                assert sums[n % 2] == total, (x, y, n)

    def test_a_level_past_the_pair_reads_no_offset(self, monkeypatch):
        # the first call fills one Horner pass per parity; every later level
        # past |x| + |y| is a lookup, however large n is
        calls = []

        def recording(*args):
            calls.append(args)
            return original(*args)

        original = counting._cell_offset
        monkeypatch.setattr(counting, "_cell_offset", recording)
        for x_text, y_text in (("g1 g2^-1 g3", "g3^-1 g2 g1^-1"), ("g2", "g2"), ("g3 g1", "g1^-1")):
            x, y = parse_word(x_text, 3), parse_word(y_text, 3)
            top = len(x) + len(y)
            clear_pair_caches()
            deviation(x, y, top + 1)
            assert len(calls) == 2 * (top + 1), (x, y)
            calls.clear()
            for n in (top + 1, top + 2, 10**4, 10**4 + 1):
                deviation(x, y, n)
            assert calls == [], (x, y)

    def test_a_second_level_reads_no_excluded_letters(self, monkeypatch):
        calls = []

        def recording(z):
            calls.append(z)
            return original(z)

        original = counting._excluded
        monkeypatch.setattr(counting, "_excluded", recording)
        counting._pair_stats.cache_clear()
        x, y = parse_word("g1 g2^-1 g3", 3), parse_word("g3^-1 g2", 3)
        deviation(x, y, 40)
        assert len(calls) == 2
        calls.clear()
        for n in (41, 2, 400):
            deviation(x, y, n)
            expect_xwny(x, y, n)
        assert calls == []
        deviation(x, parse_word("g2 g1", 3), 40)
        assert len(calls) == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("function", [deviation, expect_xwny], ids=lambda f: f.__name__)
    def test_cold_and_warm_agree(self, function, k):
        for x, y in seeded_pairs(30 + k, k, 4):
            levels = [*range(len(x) + len(y) + 4), 400]
            cold = []
            for n in levels:
                clear_pair_caches()
                cold.append(value_and_type(function(x, y, n)))
            clear_pair_caches()
            warm = [value_and_type(function(x, y, n)) for n in levels]
            assert warm == cold, (x, y)

    def test_a_second_pair_of_the_same_lengths_multiplies_nothing(self, monkeypatch):
        # past |x| + |y| the products w_|x| w_|y| w_n cancel out of the
        # deviation, so no pair multiplies level sums there; below, each
        # level multiplies w_|x| w_|y| and then w_n, two basis products
        calls = []

        def recording(*args):
            calls.append(args)
            return original(*args)

        original = radial._linearize
        monkeypatch.setattr(radial, "_linearize", recording)
        pairs = [("g1 g2^-1 g3", "g3^-1 g2"), ("g2 g2 g1^-1", "g1 g3"), ("g1 g2^-1 g3", "g2")]
        for x_text, y_text in pairs:
            x, y = parse_word(x_text, 3), parse_word(y_text, 3)
            clear_pair_caches()
            for n in (len(x) + len(y) + 1, 40, 400):
                deviation(x, y, n)
            assert calls == [], (x, y)
            deviation(x, y, len(x) + len(y))
            assert len(calls) == 2, (x, y)
            calls.clear()

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_cold_expectation_multiplies_nothing(self, k, monkeypatch):
        def refuse(*args):
            raise AssertionError("expect_xwny took a product of level sums")

        monkeypatch.setattr(radial, "_linearize", refuse)
        for x, y in seeded_pairs(40 + k, k, 4):
            for n in [*range(len(x) + len(y) + 3), 400]:
                clear_pair_caches()
                value = expect_xwny(x, y, n)
                # every word of the sphere lands on one degree
                total = sum(c * word_count(k, d) for d, c in enumerate(value.coeffs))
                assert total == word_count(k, n), (x, y, n)

    def test_reference_counts_stay_per_cell(self, monkeypatch):
        # reference_sandwich_counts reads each cell from the public boundary
        # sets, never from the per-t statistics it is compared with
        def refuse(*args):
            raise AssertionError("the reference read the pair statistics")

        calls = {"cells": 0}
        original = counting.cell_count

        def tally(*args):
            calls["cells"] += 1
            return original(*args)

        monkeypatch.setattr(counting, "_pair_stats", refuse)
        monkeypatch.setattr(counting, "cell_count", tally)
        x, y = parse_word("g1 g2^-1 g3", 3), parse_word("g3^-1 g2", 3)
        reference_sandwich_counts(x, y, 40)
        assert calls["cells"] == 12
        with pytest.raises(AssertionError, match="pair statistics"):
            counting.sandwich_counts(x, y, 40)


class TestLevelValidation:
    @pytest.mark.parametrize("level", [-3, True, 2.0], ids=["negative", "bool", "float"])
    @pytest.mark.parametrize("path", ["identity", "counting", "rank-mismatch"])
    @pytest.mark.parametrize("function", [deviation, expect_xwny], ids=lambda f: f.__name__)
    def test_rejected(self, function, path, level):
        # the level is checked before the ranks
        g1 = parse_word("g1", 2)
        x = ReducedWord(2) if path == "identity" else g1
        y = parse_word("g1", 3) if path == "rank-mismatch" else g1
        with pytest.raises(ValueError, match="level must be a nonnegative integer"):
            function(x, y, level)


class TestDeviationBound:
    def test_frozen_k2(self):
        # H = 2 * 2 * 88 * 3 = 1056 for unit-length words at rank 2
        assert deviation_bound(1, 1, 2) == 1056**2 == 1115136

    def test_frozen_k3(self):
        # D_3 = 180, so H^2 = (2*3)^2 * 180^2 * 5^3
        assert deviation_bound(1, 2, 3) == 36 * 180**2 * 125

    def test_monotone(self):
        for k in (2, 3):
            for ell in range(1, 4):
                for m in range(1, 4):
                    assert deviation_bound(ell, m, k) < deviation_bound(ell + 1, m, k)
                    assert deviation_bound(ell, m, k) < deviation_bound(ell, m + 1, k)

    @pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
    def test_lengths_must_be_integers(self, value):
        # 1.0 used to give the float 1115136.0
        for ell, m in ((value, 1), (1, value)):
            with pytest.raises(ValueError, match="word length must be a nonnegative integer"):
                deviation_bound(ell, m, 2)


class TestSeries:
    @pytest.mark.parametrize(
        "n_max", [-1, True, 2.0, "3"], ids=["negative", "bool", "float", "str"]
    )
    def test_n_max_validated_as_a_level(self, n_max):
        g1 = parse_word("g1", 2)
        with pytest.raises(ValueError, match="n_max must be a nonnegative integer"):
            partial_sum_criterion(g1, g1, n_max)

    def test_frozen_partial_sums(self):
        # frozen from the enumeration oracle (small n) plus the counting
        # path (large n)
        x = parse_word("g1", 2)
        sums = partial_sum_criterion(x, x, 10)
        assert sums[0] == Fraction(13, 192)
        assert sums[1] == Fraction(41, 384)
        assert sums[2] == Fraction(2359, 20736)
        assert sums[3] == Fraction(2477, 20736)
        assert sums[4] == Fraction(200755, 1679616)
        assert sums[10] == Fraction(106753715623, 892616806656)
        assert sums == sorted(sums)
        assert len(sums) == 11

    def test_identity_gives_zeros(self):
        sums = partial_sum_criterion(ReducedWord(2), parse_word("g1", 2), 6)
        assert sums == [0] * 7

    def test_terms_match_deviation(self):
        x, y = parse_word("g1", 2), parse_word("g2", 2)
        sums = partial_sum_criterion(x, y, 6)
        terms = [sums[0]] + [sums[i] - sums[i - 1] for i in range(1, 7)]
        for n, term in enumerate(terms):
            assert term == Fraction(deviation(x, y, n), word_count(2, n))

    def test_geometric_tail_domination(self):
        x, y = parse_word("g1", 2), parse_word("g2", 2)
        bound = deviation_bound(1, 1, 2)
        sums = partial_sum_criterion(x, y, 9)
        terms = [sums[0]] + [sums[i] - sums[i - 1] for i in range(1, 10)]
        for n in range(4, 10):
            assert terms[n] <= Fraction(bound, word_count(2, n) ** 2)
