from fractions import Fraction

import pytest

from freeradial import counting, radial
from freeradial.counting import (
    abc_closed_form,
    abc_recurrence,
    cell_count,
    constant_C,
    constant_D,
    mu,
    nu_sets,
    sigma_r,
    tau_s,
)
from freeradial.verify import oracle_abc, oracle_mu_table, oracle_nu_sets
from freeradial.words import (
    RankMismatchError,
    ReducedWord,
    all_letters,
    enumerate_words,
    parse_word,
    word_count,
)

S2 = frozenset(all_letters(2))


class TestRecurrence:
    def test_base_case(self):
        assert abc_recurrence(2, 2) == {2: (1, 1, 0)}

    def test_small_values_match_enumeration(self):
        # frozen from the enumeration oracle
        table = abc_recurrence(2, 4)
        assert table[3] == (2, 3, 2) == oracle_abc(2, 3)
        assert table[4] == (7, 7, 6) == oracle_abc(2, 4)

    def test_level_total_identity_k3(self):
        a, b, g = abc_recurrence(3, 6)[6]
        assert 4 * a + b + g == 5**5

    def test_table_bounds(self):
        assert sorted(abc_recurrence(2, 5)) == [2, 3, 4, 5]
        with pytest.raises(ValueError):
            abc_recurrence(2, 1)


class TestClosedForm:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_matches_recurrence(self, k):
        table = abc_recurrence(k, 60)
        for n in range(2, 61):
            assert abc_closed_form(k, n) == table[n]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_uniform_bound(self, k):
        ck = constant_C(k)
        for n in range(2, 31):
            center = Fraction((2 * k - 1) ** (n - 1), 2 * k)
            for v in abc_closed_form(k, n):
                assert abs(v - center) <= ck

    def test_alpha_gamma_alternation(self):
        table = abc_recurrence(2, 30)
        for n in range(2, 31):
            a, _, g = table[n]
            assert a - g == (1 if n % 2 == 0 else 0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            abc_closed_form(2, 1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_simplified_formulas(self, k):
        # independent confirmation of the eigen-solve: expanding the basis
        # weights by hand gives these closed expressions
        for n in range(2, 20):
            level = (2 * k - 1) ** (n - 1)
            sign = (-1) ** n
            alpha = Fraction(level + sign, 2 * k)
            beta = Fraction(level, 2 * k) + Fraction(1, 2) - Fraction((k - 1) * sign, 2 * k)
            gamma = Fraction(level, 2 * k) - Fraction(1, 2) - Fraction((k - 1) * sign, 2 * k)
            assert abc_closed_form(k, n) == (alpha, beta, gamma)


class TestTableIdentities:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_linear_identities(self, k):
        table = abc_recurrence(k, 30)
        for n in range(2, 31):
            a, b, g = table[n]
            assert b - g == 1
            assert a == g + (1 + (-1) ** n) // 2
            assert abs(a - g) <= 1 and abs(a - b) <= 2
            assert (2 * k - 2) * a + b + g == (2 * k - 1) ** (n - 1)
            assert abs(2 * k * a - (2 * k - 1) ** (n - 1)) <= 3
        for n in range(2, 30):
            (_, b1, g1), (_, b0, g0) = table[n + 1], table[n]
            assert b1 - g1 == b0 - g0


class TestNu:
    def test_classification(self):
        assert nu_sets(2, {-2}, {1}, 4) == 7  # distinct, non-inverse -> alpha
        assert nu_sets(2, {1}, {1}, 3) == 3  # equal -> beta
        assert nu_sets(2, {1}, {-1}, 2) == 0  # inverse pair -> gamma

    def test_against_oracle(self):
        for x in (1, -2):
            for y in (1, -1, 2):
                for n in (2, 3, 4):
                    assert nu_sets(2, {x}, {y}, n) == oracle_nu_sets(2, {x}, {y}, n)
        letters = sorted(S2)
        subsets = [
            frozenset(letters[i] for i in range(4) if mask >> i & 1) for mask in range(1, 16)
        ]
        for n in range(2, 6):
            for sigma in subsets:
                for tau in subsets:
                    assert nu_sets(2, sigma, tau, n) == oracle_nu_sets(2, sigma, tau, n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            nu_sets(2, {1}, {1}, 1)

    def test_full_sets(self):
        for n in (2, 3, 5):
            assert nu_sets(2, S2, S2, n) == word_count(2, n)

    def test_sixty_one(self):
        sigma = S2 - {-1}
        tau = S2 - {-2}
        assert nu_sets(2, sigma, tau, 4) == 61 == oracle_nu_sets(2, sigma, tau, 4)

    def test_singleton_reduces_to_single(self):
        # a distinct, non-inverse letter pair counts alpha words
        assert nu_sets(2, {1}, {2}, 4) == abc_closed_form(2, 4)[0] == oracle_nu_sets(2, {1}, {2}, 4)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            nu_sets(2, set(), S2, 3)


class TestBoundarySets:
    def test_sigma_example(self):
        x = parse_word("g1 g2", 2)
        assert sigma_r(x, 0) == S2 - {-2}
        assert sigma_r(x, 1) == S2 - {-1, 2}
        assert sigma_r(x, 2) == S2 - {1}

    def test_cardinalities(self):
        x = parse_word("g1 g2^-1 g1", 2)
        for r in range(0, 4):
            assert len(sigma_r(x, r)) == (3 if r in (0, 3) else 2)

    def test_tau_single_letter(self):
        y = parse_word("g1", 2)
        assert tau_s(y, 0) == S2 - {-1}
        assert tau_s(y, 1) == S2 - {1}

    def test_range_errors(self):
        x = parse_word("g1", 2)
        with pytest.raises(ValueError):
            sigma_r(x, 2)
        with pytest.raises(ValueError):
            tau_s(x, -1)
        with pytest.raises(ValueError):
            sigma_r(ReducedWord(2), 0)

    @pytest.mark.parametrize("k, len_max", [(2, 3), (3, 2)])
    def test_against_sphere_words(self, k, len_max):
        # sigma_r(x, r) is the set of letters u_{r+1} over the sphere words u
        # that cancel exactly r letters against x; tau_s(y, s) the same for
        # the letter before the s letters that y cancels at the right end.
        outer = [w for n in range(1, len_max + 1) for w in enumerate_words(k, n)]
        for ell in range(1, len_max + 1):
            for m in range(1, len_max + 1):
                sphere = list(enumerate_words(k, ell + m + 2))
                heads = {u.letters[: ell + 1] for u in sphere}
                tails = {u.letters[-(m + 1):] for u in sphere}
                for x in (w for w in outer if len(w) == ell):
                    seen = {}
                    for head in heads:
                        r = 0
                        while r < ell and head[r] == -x.letters[ell - 1 - r]:
                            r += 1
                        seen.setdefault(r, set()).add(head[r])
                    assert seen == {r: sigma_r(x, r) for r in range(ell + 1)}, x
                for y in (w for w in outer if len(w) == m):
                    seen = {}
                    for tail in tails:
                        s = 0
                        while s < m and tail[m - s] == -y.letters[s]:
                            s += 1
                        seen.setdefault(s, set()).add(tail[m - s])
                    assert seen == {s: tau_s(y, s) for s in range(m + 1)}, y

    @pytest.mark.parametrize("k, len_max", [(2, 3), (3, 2)])
    def test_tau_mirrors_sigma(self, k, len_max):
        for n in range(1, len_max + 1):
            for y in enumerate_words(k, n):
                for s in range(n + 1):
                    assert tau_s(y, s) == {-a for a in sigma_r(y.inverse(), s)}


class TestMu:
    def test_61_at_origin(self):
        x, y = parse_word("g1", 2), parse_word("g2", 2)
        assert mu(0, 0, 4, x, y) == 61 == oracle_mu_table(x, y, 4).get((0, 0), 0)

    def test_equals_nu_of_boundary_sets(self):
        x, y = parse_word("g1", 2), parse_word("g1^-1", 2)
        assert mu(1, 1, 4, x, y) == nu_sets(2, S2 - {1}, S2 - {-1}, 2)
        assert mu(1, 1, 4, x, y) == oracle_mu_table(x, y, 4).get((1, 1), 0) == 6

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_total_over_cells(self, n):
        x, y = parse_word("g1", 2), parse_word("g2^-1", 2)
        total = sum(mu(r, s, n, x, y) for r in range(2) for s in range(2))
        assert total == word_count(2, n)

    def test_preconditions(self):
        x, y = parse_word("g1", 2), parse_word("g2", 2)
        with pytest.raises(ValueError):
            mu(0, 0, 3, x, y)  # below the validity threshold
        with pytest.raises(ValueError):
            mu(2, 0, 6, x, y)
        with pytest.raises(ValueError):
            mu(0, 0, 6, ReducedWord(2), y)
        with pytest.raises(RankMismatchError, match="rank mismatch: 3 vs 2"):
            mu(0, 0, 6, parse_word("g1", 3), y)

    def test_reads_the_excluded_letters_as_the_sandwich_does(self, monkeypatch):
        # mu and the sandwich counts share counting._cell_stats, and mu
        # builds no boundary set, so verify's mu_vs_oracle audits the route
        # of expect_xwny and deviation
        def refuse(*args):
            raise AssertionError("mu built a boundary set")

        seen = []

        def recording(*args):
            seen.append(args)
            return original(*args)

        original = counting._cell_stats
        for name in ("sigma_r", "tau_s", "cell_count", "_boundary_set"):
            monkeypatch.setattr(counting, name, refuse)
        monkeypatch.setattr(counting, "_cell_stats", recording)
        x, y = parse_word("g1 g2^-1", 3), parse_word("g3 g1", 3)
        table = oracle_mu_table(x, y, 7)
        for r in range(3):
            for s in range(3):
                assert mu(r, s, 7, x, y) == table.get((r, s), 0), (r, s)
        assert len(seen) == 9
        seen.clear()
        counting._pair_stats.cache_clear()
        radial.deviation(x, y, 7)
        assert len(seen) == 9


class TestCellCount:
    def test_against_oracle(self):
        letters = sorted(S2)
        subsets = [
            frozenset(letters[i] for i in range(4) if mask >> i & 1) for mask in range(1, 16)
        ]
        for n in range(1, 5):
            for sigma in subsets:
                for tau in subsets:
                    assert cell_count(2, sigma, tau, n) == oracle_nu_sets(2, sigma, tau, n)

    def test_shared_by_mu_and_sandwich(self, monkeypatch):
        # mu, expect_xwny and deviation all count their (r, s) cells in the
        # one closed form behind cell_count
        seen = []

        def recording(k, size, equal, inverse, length, power):
            seen.append(length)
            return original(k, size, equal, inverse, length, power)

        original = counting._cell_closed_form
        monkeypatch.setattr(counting, "_cell_closed_form", recording)
        x, y = parse_word("g1 g2", 2), parse_word("g1", 2)
        assert mu(1, 0, 6, x, y) == oracle_mu_table(x, y, 6).get((1, 0), 0)
        assert seen == [5]
        seen.clear()
        # one call per t = r + s, on the statistics summed over its cells
        radial.expect_xwny(x, y, 3)
        assert sorted(seen) == [1, 2, 3]
        seen.clear()
        radial.deviation(x, y, 3)
        assert sorted(seen) == [1, 2, 3]


class TestCellCountClosedForm:
    def test_k3_against_sphere_histograms(self):
        # every pair of nonempty letter sets at k = 3, each cell summed from a
        # (first letter, last letter) histogram of the enumerated sphere
        k = 3
        letters = all_letters(k)
        subsets = [
            frozenset(letters[i] for i in range(2 * k) if mask >> i & 1)
            for mask in range(1, 1 << (2 * k))
        ]
        for length in range(1, 6):
            histogram = dict.fromkeys(((a, b) for a in letters for b in letters), 0)
            for w in enumerate_words(k, length):
                histogram[(w.letters[0], w.letters[-1])] += 1
            for sigma in subsets:
                by_last = {b: sum(histogram[(a, b)] for a in sigma) for b in letters}
                for tau in subsets:
                    expected = sum(by_last[b] for b in tau)
                    assert cell_count(k, sigma, tau, length) == expected, (sigma, tau, length)
                    if length >= 2:
                        assert nu_sets(k, sigma, tau, length) == expected

    @pytest.mark.parametrize(
        "sigma, tau, n",
        [(set(), {1}, 3), ({1}, set(), 3), ({4}, {1}, 3), ({1}, {0}, 3), ({1}, {1}, 1)],
        ids=["empty-sigma", "empty-tau", "letter-past-rank", "zero-letter", "n-below-2"],
    )
    def test_nu_sets_rejects(self, sigma, tau, n):
        with pytest.raises(ValueError):
            nu_sets(3, sigma, tau, n)


class TestConstants:
    def test_values(self):
        assert constant_C(2) == Fraction(11, 4)
        assert constant_D(2) == 88
        assert constant_C(3) == Fraction(5, 2)
        assert constant_D(3) == 180

    def test_nu_spread_within_D(self):
        # the oracle behind verify.check_nu_uniformity: every pair of letter
        # sets, where the check calls nu_sets on two; per pair of sizes the
        # spread is the range of the overlap |sigma & tau| (odd n) or
        # |sigma & -tau| (even n), and its largest value, k, is under D_k
        for k in (2, 3):
            letters = all_letters(k)
            subsets_by_size = {}
            for mask in range(1, 1 << 2 * k):
                s = frozenset(letters[i] for i in range(2 * k) if mask >> i & 1)
                subsets_by_size.setdefault(len(s), []).append(s)
            for n in range(2, 9):
                worst = 0
                for sig_size, sigmas in subsets_by_size.items():
                    for tau_size, taus in subsets_by_size.items():
                        values = [nu_sets(k, s, t, n) for s in sigmas for t in taus]
                        spread = max(values) - min(values)
                        assert spread == min(sig_size, tau_size) - max(
                            0, sig_size + tau_size - 2 * k
                        ), (k, n, sig_size, tau_size)
                        worst = max(worst, spread)
                assert worst == k < constant_D(k), (k, n)


G1, G2 = ReducedWord(2, (1,)), ReducedWord(2, (2,))
# Each call with a valid integer in the position under test.
LEVEL_ARGUMENTS = {
    "abc_recurrence": (lambda v: abc_recurrence(2, v), 4),
    "abc_closed_form": (lambda v: abc_closed_form(2, v), 3),
    "nu_sets": (lambda v: nu_sets(2, {1}, {2}, v), 3),
    "mu-r": (lambda v: mu(v, 0, 7, G1, G2), 1),
    "mu-s": (lambda v: mu(0, v, 7, G1, G2), 1),
    "mu-n": (lambda v: mu(0, 0, v, G1, G2), 7),
    "sigma_r": (lambda v: sigma_r(G1, v), 1),
    "tau_s": (lambda v: tau_s(G2, v), 1),
}


@pytest.mark.parametrize("kind", ["float", "bool"])
@pytest.mark.parametrize("name", sorted(LEVEL_ARGUMENTS))
def test_levels_must_be_integers(name, kind):
    # 3.0 and True used to run as 3 and 1, or to raise TypeError
    call, valid = LEVEL_ARGUMENTS[name]
    call(valid)
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        call(float(valid) if kind == "float" else True)
