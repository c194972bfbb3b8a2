import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeradial import counting, radial, verify, words
from freeradial.algebra import AlgebraElement, mul, w_n_explicit
from freeradial.counting import abc_recurrence
from freeradial.radial import RadialElement, expect_xwny
from freeradial.verify import (
    VerificationReport,
    check_counts_vs_enumeration,
    check_radial_products,
    oracle_abc,
    oracle_expect,
    oracle_mu_table,
    oracle_nu_sets,
    run_suite,
)
from freeradial.words import (
    CapExceededError,
    RankMismatchError,
    ReducedWord,
    concat,
    enumerate_words,
    parse_word,
    word_count,
)


def corrupted_table(k, n_max):
    """Run the count recurrence with (2k-3) bumped to (2k-2)."""
    a, b, g = 1, 1, 0
    table = {2: (a, b, g)}
    for n in range(3, n_max + 1):
        a, b, g = (2 * k - 2) * a + b + g, b + (2 * k - 2) * a, g + (2 * k - 2) * a
        table[n] = (a, b, g)
    return table


class TestOracles:
    def test_nu_base_values(self):
        assert oracle_nu_sets(2, {1}, {2}, 2) == 1
        assert oracle_nu_sets(2, {1}, {-1}, 2) == 0
        assert oracle_nu_sets(2, {1}, {1}, 2) == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_nu_sets_rejects_short_words(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            oracle_nu_sets(2, {1}, {2}, n)

    def test_abc_matches_table(self):
        for n in (2, 3, 4, 5):
            assert oracle_abc(2, n) == abc_recurrence(2, n)[n]

    def test_mu_61(self):
        assert oracle_mu_table(parse_word("g1", 2), parse_word("g2", 2), 4)[(0, 0)] == 61

    def test_mu_table_total(self):
        x, y = parse_word("g1 g2", 2), parse_word("g1", 2)
        table = oracle_mu_table(x, y, 6)
        assert sum(table.values()) == word_count(2, 6)
        assert all(0 <= r <= 2 and 0 <= s <= 1 for r, s in table)

    def test_expect_identity_sides(self):
        e = ReducedWord(2)
        from freeradial.radial import RadialElement

        assert oracle_expect(e, e, 3) == RadialElement.basis(2, 3)

    def test_expect_rank_mismatch(self):
        with pytest.raises(RankMismatchError, match="rank mismatch: 2 vs 3"):
            oracle_expect(parse_word("g1", 2), parse_word("g1", 3), 2)

    def test_expect_agrees_with_counting_path(self):
        x, y = parse_word("g2", 2), parse_word("g1^-1", 2)
        for n in (4, 5, 6):
            assert oracle_expect(x, y, n) == expect_xwny(x, y, n)


class TestReports:
    def test_pass_iff_equal(self):
        assert VerificationReport("c", (1,), 3, 3).passed
        assert not VerificationReport("c", (1,), 3, 4).passed

    def test_to_dict(self):
        d = VerificationReport("c", (2, "x"), 1, 2).to_dict()
        assert d["check"] == "c" and d["passed"] is False

    def test_str_shows_expected_on_failure(self):
        text = str(VerificationReport("c", (2,), 1, 2))
        assert "FAIL" in text and "expected=1" in text


class TestRunSuite:
    def test_empty_selection(self):
        assert run_suite(checks=()) == []

    def test_repeated_names_run_once_at_their_first_place(self):
        once = run_suite(2, 4, checks=("norms", "word_counts"))
        assert run_suite(2, 4, checks=("norms", "word_counts", "norms", "word_counts")) == once
        assert [r.check for r in once] == ["norm_sq"] * 5 + ["word_count"] * 5

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            run_suite(checks=("bogus",))

    @pytest.mark.parametrize(
        "n_max", [True, 2.5, -3, "6"], ids=["bool", "float", "negative", "str"]
    )
    def test_rejects_a_bad_level_up_front(self, monkeypatch, n_max):
        def forbidden(*args, **kwargs):
            raise AssertionError("the suite ran on a level it should have refused")

        monkeypatch.setattr(verify, "CHECKS", dict.fromkeys(verify.CHECKS, forbidden))
        monkeypatch.setattr(verify, "check_held_sphere", forbidden)
        message = f"n_max must be a nonnegative integer, got {n_max!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_suite(2, n_max)

    @pytest.mark.parametrize("k", [1, True, 2.0, "2"], ids=["one", "bool", "float", "str"])
    def test_rejects_a_bad_rank_up_front(self, k):
        with pytest.raises(ValueError, match="^rank must be an integer >= 2"):
            run_suite(k, 4, checks=())

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_levels_below_two_stay_valid(self, n_max):
        reports = run_suite(2, n_max)
        assert reports and all(r.passed for r in reports)

    def test_small_suite_passes(self):
        reports = run_suite(k=2, n_max=5)
        assert reports
        failures = [r for r in reports if not r.passed]
        assert failures == []

    def test_rank_three_subset_passes(self):
        reports = run_suite(
            k=3,
            n_max=4,
            checks=("word_counts", "counts_vs_enumeration", "sphere_splitting",
                    "radial_recurrence", "norms"),
        )
        assert reports and all(r.passed for r in reports)

    def test_rank_three_sphere_splitting_full_grid(self):
        from freeradial.verify import check_sphere_splitting

        reports = check_sphere_splitting(3, 7)
        assert len(reports) == 18 and all(r.passed for r in reports)

    def test_order_is_deterministic(self):
        first = [(r.check, r.params) for r in run_suite(k=2, n_max=4, checks=("word_counts", "norms"))]
        second = [(r.check, r.params) for r in run_suite(k=2, n_max=4, checks=("word_counts", "norms"))]
        assert first == second

    def test_refuses_held_sphere_before_any_check(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a check ran before the held-sphere cap was checked")

        monkeypatch.setattr(verify, "CHECKS", dict.fromkeys(verify.CHECKS, forbidden))
        with pytest.raises(CapExceededError, match="holding 708588 words"):
            run_suite(k=2, n_max=12)
        with pytest.raises(CapExceededError, match="holding 2343750 words"):
            run_suite(k=3, checks=("expectation_properties",))
        # checks that hold no sphere are not limited by n_max
        monkeypatch.setattr(verify, "CHECKS", {"closed_form": lambda k, n_max: []})
        assert run_suite(k=2, n_max=40, checks=("closed_form",)) == []

    def test_nu_uniformity_takes_any_rank(self, monkeypatch):
        # two nu_sets calls a level, so rank 10 is as cheap as rank 2
        calls = []
        original = counting.nu_sets

        def tally(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(counting, "nu_sets", tally)
        reports = run_suite(k=10, n_max=4, checks=("nu_uniformity",))
        assert [str(r) for r in reports] == [
            f"ok  nu_uniformity [10 {n} max_spread=10]" for n in (2, 3, 4)
        ]
        assert len(calls) == 2 * 3

    def test_nu_uniformity_negative_control(self, monkeypatch):
        # nu off by one on the diagonal: the spread becomes k + 1 = 3, which
        # a bound by D_2 = 88 would let through
        original = counting.nu_sets

        def corrupted(k, sigma, tau, n):
            return original(k, sigma, tau, n) + (sigma == tau)

        monkeypatch.setattr(counting, "nu_sets", corrupted)
        reports = verify.check_nu_uniformity(2, 4)
        assert reports[0].params == (2, 2, "max_spread=3")
        assert not any(r.passed for r in reports)

    @pytest.mark.parametrize("k, n_max", [(2, 5), (3, 4)])
    def test_held_spheres_bound_the_elements_built(self, monkeypatch, k, n_max):
        # every element a check builds by convolution or as a level sum has
        # at most 1.5 times the words of the largest sphere HELD_SPHERES
        # declares for it; radial_products bounds its own spheres
        sizes = []

        def recording(fn):
            def wrapper(*args):
                out = fn(*args)
                sizes.append(out.support_size())
                return out

            return wrapper

        monkeypatch.setattr(verify, "mul", recording(mul))
        monkeypatch.setattr(verify, "w_n_explicit", recording(w_n_explicit))
        assert set(verify.HELD_SPHERES) < set(verify.CHECKS)
        for name in verify.CHECKS:
            sizes.clear()
            assert all(r.passed for r in run_suite(k=k, n_max=n_max, checks=(name,)))
            if name in verify.HELD_SPHERES:
                limit = word_count(k, verify.HELD_SPHERES[name](k, n_max))
            elif name == "radial_products":
                limit = verify._RADIAL_PRODUCTS_SPHERE_LIMIT
            else:
                limit = 0
            assert max(sizes, default=0) <= 1.5 * limit, name

    def test_negative_control_fails_at_first_bad_n(self, monkeypatch):
        bad = corrupted_table(2, 6)
        monkeypatch.setattr(counting, "abc_recurrence", lambda k, n_max: bad)
        reports = check_counts_vs_enumeration(2, 6)
        first_failure = next(r for r in reports if not r.passed)
        assert first_failure.params == (2, 3)
        # same behaviour through the suite entry point
        suite = run_suite(k=2, n_max=6, checks=("counts_vs_enumeration",))
        assert next(r for r in suite if not r.passed).params == (2, 3)


def mu_table_per_word(x, y, n):
    """The (r, s) histogram by one concat pair per enumerated word."""
    table = {}
    for u in enumerate_words(x.rank, n):
        key = (concat(x, u)[1], concat(u, y)[1])
        table[key] = table.get(key, 0) + 1
    return table


K2_SHORT_WORDS = [w for length in range(3) for w in enumerate_words(2, length)]
K3_PAIRS = [
    ("g1 g2", "g2^-1 g3"),
    ("g3^-1", "g3"),
    ("g1 g2^-1", "g1"),
    ("g2", "g1^-1 g2^-1"),
    ("g3 g1", "g1^-1 g3^-1"),
]


class TestSharedMuOracle:
    @pytest.mark.parametrize("x", K2_SHORT_WORDS, ids=str)
    def test_matches_per_word_loop_rank_two(self, x):
        for y in K2_SHORT_WORDS:
            for n in range(len(x) + len(y) + 3):
                table = oracle_mu_table(x, y, n)
                assert list(table.items()) == list(mu_table_per_word(x, y, n).items()), (y, n)

    @pytest.mark.parametrize("x_text, y_text", K3_PAIRS)
    def test_matches_per_word_loop_rank_three(self, x_text, y_text):
        x, y = parse_word(x_text, 3), parse_word(y_text, 3)
        for n in range(len(x) + len(y) + 3):
            assert list(oracle_mu_table(x, y, n).items()) == list(
                mu_table_per_word(x, y, n).items()
            ), n

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_cap_checked_before_memo(self, monkeypatch, warm):
        x, y = parse_word("g1 g2", 2), parse_word("g1", 2)
        if warm:
            oracle_mu_table(x, y, 5)
        monkeypatch.setattr(words, "DEFAULT_ENUMERATION_CAP", word_count(2, 5) - 1)
        with pytest.raises(CapExceededError):
            oracle_mu_table(x, y, 5)
        monkeypatch.setattr(words, "DEFAULT_ENUMERATION_CAP", word_count(2, 5))
        assert oracle_mu_table(x, y, 5) == mu_table_per_word(x, y, 5)

    def test_reads_no_counting_shortcut(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the counting path")

        for name in ("sigma_r", "tau_s", "nu_sets", "mu"):
            monkeypatch.setattr(counting, name, forbidden)
        x, y = parse_word("g1 g2", 2), parse_word("g2^-1", 2)
        for n in range(7):
            assert oracle_mu_table(x, y, n) == mu_table_per_word(x, y, n)


class TestExpectationHistogram:
    """The oracle side of check_expectation_vs_oracle: x * w_n histogrammed
    by (word length, last |y| letters), one letter comparison per cell."""

    @staticmethod
    def times_wn(x, n):
        return mul(AlgebraElement.from_word(x), w_n_explicit(x.rank, n))

    def by_cells(self, x, y, n):
        return verify._expect_times_cells(verify._tail_cells(self.times_wn(x, n), len(y)), y)

    @pytest.mark.parametrize("x", K2_SHORT_WORDS, ids=str)
    def test_matches_oracle_expect(self, monkeypatch, x):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the counting path")

        for name in ("sigma_r", "tau_s", "nu_sets", "mu", "cell_count"):
            monkeypatch.setattr(counting, name, forbidden)
        for y in K2_SHORT_WORDS:
            for n in range(7):
                routed, plain = self.by_cells(x, y, n), oracle_expect(x, y, n)
                assert routed == plain and repr(routed) == repr(plain), (y, n)

    def test_signed_coefficients(self):
        # coefficients that cancel within a cell still give E(left * y)
        x, y = parse_word("g1 g2", 2), parse_word("g2^-1", 2)
        left = self.times_wn(x, 3) - self.times_wn(parse_word("g2", 2), 4).scalar_mul(3)
        routed = verify._expect_times_cells(verify._tail_cells(left, len(y)), y)
        assert routed == verify._expect_times(left, y)

    @pytest.mark.parametrize(
        "k, n_max, len_max, count", [(3, 5, 2, 432), (2, 7, 3, 2080)], ids=["rank3", "len3"]
    )
    def test_check_on_wider_grids(self, monkeypatch, k, n_max, len_max, count):
        # rank 3 and three-letter outer words, beyond criterion 06's grid
        monkeypatch.setattr(verify, "_OUTER_LEN_MAX", len_max)
        reports = verify.check_expectation_vs_oracle(k, n_max)
        assert len(reports) == count
        assert [r for r in reports if not r.passed] == []


def test_cell_oracles_build_no_validated_words(monkeypatch):
    # the cell keys are slices of enumerated words: reading them must not
    # construct (and so re-validate) a ReducedWord per cell
    x, y = parse_word("g1 g2^-1", 2), parse_word("g2 g1", 2)
    cells = verify._tail_cells(mul(AlgebraElement.from_word(x), w_n_explicit(2, 6)), len(y))
    mu_before = oracle_mu_table(x, y, 6)
    expect_before = verify._expect_times_cells(cells, y)

    def forbidden(*args):
        raise AssertionError("a letter was validated again")

    monkeypatch.setattr(words, "_check_letter", forbidden)
    assert oracle_mu_table(x, y, 6) == mu_before
    assert verify._expect_times_cells(cells, y) == expect_before


class TestRadialProducts:
    def test_rank_three_grid_fits_memo(self):
        reports = run_suite(k=3, n_max=5, checks=("radial_products",))
        assert reports and all(r.passed for r in reports)
        assert max(r.params[1:] for r in reports) == (3, 3)

    def test_rank_two_grid_unchanged(self):
        params = [r.params for r in check_radial_products(2)]
        assert params == [(2, m, n) for m in range(6) for n in range(m, 6)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_passing_reports_hold_one_element(self, k):
        # the slice test proves conv == product.embed(), so a passing
        # report holds only the text it prints
        reports = check_radial_products(k)
        assert reports and all(r.passed and r.expected is r.actual for r in reports)

    @pytest.mark.parametrize("k", [2, 3])
    def test_passing_text_is_the_convolutions_repr(self, k):
        w = [w_n_explicit(k, n) for n in range(6 if k == 2 else 4)]
        for r in check_radial_products(k):
            _, m, n = r.params
            assert r.expected == str(mul(w[m], w[n])), r.params

    def test_memory(self):
        # one slice product of w_5 * w_5 at a time; with every whole
        # convolution held the peak is 14.4 MiB
        tracemalloc.start()
        try:
            reports = check_radial_products(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak < 6 * 2**20

    @staticmethod
    def _failing_under(monkeypatch, change):
        """The failing reports of check_radial_products(2) with every slice
        product passed through change(out)."""
        monkeypatch.setattr(verify, "mul", lambda a, b: change(mul(a, b)))
        return [r for r in check_radial_products(2) if not r.passed]

    def test_dropped_word_fails_only_its_report(self, monkeypatch):
        # the slice product of w_5 * w_5 that holds g1^10 loses it
        lost = parse_word("g1^10", 2)

        def dropping(out):
            c = out.coeff(lost)
            return out - AlgebraElement.from_word(lost, c) if c else out

        failed = self._failing_under(monkeypatch, dropping)
        assert [r.params for r in failed] == [(2, 5, 5)]
        five = RadialElement.basis(2, 5)
        assert failed[0].actual == radial.radial_mul(five, five).embed()
        assert failed[0].expected.coeff(lost) == 0
        assert failed[0].expected.support_size() == failed[0].actual.support_size() - 1

    def test_misplaced_word_fails_only_its_report(self, monkeypatch):
        # g1^10 turns into g2^-10 inside the slice of words that end in g1,
        # so the sum of the slices holds g2^-10 twice and g1^10 not at all,
        # while a fresh w_5 * w_5 would hide the fault
        moved, into = parse_word("g1^10", 2), parse_word("g2^-10", 2)

        def misplacing(out):
            c = out.coeff(moved)
            if not c:
                return out
            return out - AlgebraElement.from_word(moved, c) + AlgebraElement.from_word(into, c)

        failed = self._failing_under(monkeypatch, misplacing)
        assert [r.params for r in failed] == [(2, 5, 5)]
        expected, actual = failed[0].expected, failed[0].actual
        assert actual == mul(w_n_explicit(2, 5), w_n_explicit(2, 5))
        assert expected - actual == AlgebraElement(2, {moved: -1, into: 1})

    def test_perturbed_product_fails_only_its_report(self, monkeypatch):
        # w_2 w_3 = w_5 + 2 w_3 + 9 w_1 at rank 2, with 9 turned into 10
        original = radial.radial_mul
        perturbed = RadialElement(2, (0, 10, 0, 2, 0, 1))

        def perturbing(a, b):
            out = original(a, b)
            if (a.degree, b.degree) == (2, 3):
                assert out == RadialElement(2, (0, 9, 0, 2, 0, 1))
                return perturbed
            return out

        monkeypatch.setattr(radial, "radial_mul", perturbing)
        failed = [r for r in check_radial_products(2) if not r.passed]
        assert [r.params for r in failed] == [(2, 2, 3)]
        assert failed[0].actual == perturbed.embed()
        assert failed[0].expected == mul(w_n_explicit(2, 2), w_n_explicit(2, 3))


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3).map(Fraction),
)


def sliced_fit(a, r):
    """verify._slices_fit with w_0 = e as the left factor and a cut into
    its last-letter slices."""
    return verify._slices_fit(w_n_explicit(a.rank, 0), verify._last_letter_slices(a), r)


class TestLevelwiseEmbedding:
    """verify._slices_fit agrees with a == r.embed() when a, cut into its
    last-letter slices, is r.embed() as it is or changed in one way."""

    def test_a_word_in_the_wrong_slice_fails(self):
        # w_1 * w_2 = w_3 + 3 w_1 at rank 2, with g1^3 in the slice of g2
        r = RadialElement(2, (0, 3, 0, 1))
        a = r.embed()
        moved = parse_word("g1^3", 2)
        g2 = words.word_code(parse_word("g2", 2)) & 3
        parts = [
            (t, v + AlgebraElement.from_word(moved) if t == g2 else v)
            for t, v in verify._last_letter_slices(a - AlgebraElement.from_word(moved))
        ]
        assert sum((v for _, v in parts), AlgebraElement.zero(2)) == a
        assert not verify._slices_fit(w_n_explicit(2, 0), parts, r)
        assert sliced_fit(a, r)

    def test_a_missing_slice_fails(self):
        # the same product without the words that end in g1, whose digit is 0
        r = RadialElement(2, (0, 3, 0, 1))
        parts = [(t, v) for t, v in verify._last_letter_slices(r.embed()) if t != 0]
        assert len(parts) == 3 and sliced_fit(r.embed(), r)
        assert not verify._slices_fit(w_n_explicit(2, 0), parts, r)

    @pytest.mark.parametrize(
        "change", ["none", "drop", "change", "zero_level", "past_degree", "retype"]
    )
    @given(data=st.data())
    def test_agrees_with_the_embedding(self, change, data):
        k = data.draw(st.sampled_from([2, 3]))
        coeffs = data.draw(st.lists(COEFFS, min_size=2, max_size=5 if k == 2 else 4))
        # a zero level and a level with a whole coefficient, anywhere
        zero, whole = data.draw(
            st.lists(st.integers(0, len(coeffs) - 1), min_size=2, max_size=2, unique=True)
        )
        coeffs[zero] = 0
        coeffs[whole] = data.draw(st.sampled_from([-1, 3, Fraction(-1), Fraction(3)]))
        r = RadialElement(k, coeffs)
        terms = dict(r.embed().items())
        extra = data.draw(st.sampled_from([-2, 1, Fraction(1, 3)]))
        if change == "drop":
            del terms[data.draw(st.sampled_from(list(terms)))]
        elif change == "change":
            terms[data.draw(st.sampled_from(list(terms)))] += extra
        elif change == "zero_level":
            terms[data.draw(st.sampled_from(list(enumerate_words(k, zero))))] = extra
        elif change == "past_degree":
            d = len(coeffs) + data.draw(st.integers(0, 1))
            terms[data.draw(st.sampled_from(list(enumerate_words(k, d))))] = extra
        elif change == "retype":
            # an equal coefficient of the other exact type: Fraction(3, 1) for 3
            word = data.draw(st.sampled_from([w for w in terms if len(w) == whole]))
            c = terms[word]
            terms[word] = int(c) if type(c) is Fraction else Fraction(c)
        a = AlgebraElement(k, terms)
        same = a == r.embed()
        assert sliced_fit(a, r) is same
        assert same is (change in ("none", "retype"))


class TestSharedSpheres:
    """The two checks that revisit a sphere build it once per call."""

    def test_mu_check_builds_each_histogram_once(self, monkeypatch):
        calls = []
        build = verify._sphere_cells

        def counted(k, n, head, tail):
            calls.append((k, n, head, tail))
            return build(k, n, head, tail)

        monkeypatch.setattr(verify, "_sphere_cells", counted)
        reports = verify.check_mu_vs_oracle(2, 6)
        assert reports and all(r.passed for r in reports)
        expected = {
            (2, n, ell, m) for ell in (1, 2) for m in (1, 2) for n in range(ell + m + 2, 7)
        }
        assert sorted(calls) == sorted(expected)

    def test_expectation_check_builds_each_level_sum_once(self, monkeypatch):
        calls = []
        build = verify.w_n_explicit

        def counted(k, n):
            calls.append((k, n))
            return build(k, n)

        monkeypatch.setattr(verify, "w_n_explicit", counted)
        reports = verify.check_expectation_vs_oracle(2, 6)
        assert reports and all(r.passed for r in reports)
        assert sorted(calls) == [(2, 4), (2, 5), (2, 6)]
