import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from freeradial import freeproduct
from freeradial.freeproduct import (
    AbelianElement,
    AbelianGroupSpec,
    Designated,
    FPConfig,
    FPWord,
    case_classify,
    chi_n,
    config_from_dict,
    embed_fk_word,
    expect_fp,
    fp_inverse,
    fp_reduce,
    is_in_fk,
    load_config,
    parse_fp_word,
)
from freeradial.algebra import AlgebraElement
from freeradial.radial import RadialElement, expect
from freeradial.verify import oracle_chi_n, oracle_expect
from freeradial.words import (
    DEFAULT_ENUMERATION_CAP, CapExceededError, ReducedWord, enumerate_words, word_count,
)

Z2 = AbelianGroupSpec(2)
Z1 = AbelianGroupSpec(1)


@pytest.fixture
def cfg():
    # Z^2 * Z with the designated generators (1, 0) and 1
    return FPConfig(
        (Z2, Z1),
        (Designated(0, Z2.element((1, 0))), Designated(1, Z1.element((1,)))),
    )


def syl(factor, *free):
    spec = Z2 if factor == 0 else Z1
    return (factor, spec.element(free))


class TestAbelianGroups:
    def test_normal_form(self):
        spec = AbelianGroupSpec(1, (4,))
        a = spec.element((2,), (7,))
        assert a.free == (2,) and a.torsion == (3,)

    def test_ops(self):
        spec = AbelianGroupSpec(2, (3,))
        a = spec.element((1, -1), (2,))
        b = spec.element((0, 4), (2,))
        assert spec.mul(a, b) == spec.element((1, 3), (1,))
        assert spec.mul(a, spec.inv(a)) == spec.identity()
        assert spec.pow(a, -2) == spec.element((-2, 2), (2,))

    def test_exact_power(self):
        base = Z2.element((1, 0))
        assert Z2.exact_power(Z2.element((3, 0)), base) == 3
        assert Z2.exact_power(Z2.element((-2, 0)), base) == -2
        assert Z2.exact_power(Z2.element((3, 1)), base) is None
        assert Z2.exact_power(Z2.identity(), base) is None

    def test_exact_power_negative(self):
        base = Z2.element((2, 1))
        assert Z2.exact_power(Z2.element((-4, -2)), base) == -2
        assert Z2.exact_power(Z2.element((-4, 2)), base) is None
        assert Z2.exact_power(Z2.element((3, 1)), base) is None  # 3/2 not integral

    def test_torsion_power(self):
        spec = AbelianGroupSpec(1, (2,))
        base = spec.element((1,), (1,))
        assert spec.exact_power(spec.element((3,), (1,)), base) == 3
        assert spec.exact_power(spec.element((3,), (0,)), base) is None

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            AbelianGroupSpec(-1)
        with pytest.raises(ValueError):
            AbelianGroupSpec(1, (1,))
        with pytest.raises(ValueError):
            Z1.element((1, 2))
        for bad in (1.5, True):
            with pytest.raises(ValueError):
                Z1.element((bad,))
        with pytest.raises(ValueError):
            AbelianGroupSpec(1.5)


class TestFPReduce:
    def test_inverse_pair(self, cfg):
        a = Z2.element((1, 2))
        assert fp_reduce([(0, a), (0, Z2.inv(a))], cfg) == FPWord()

    def test_inner_merge_then_outer(self, cfg):
        a = Z2.element((1, 1))
        b = Z1.element((5,))
        word = fp_reduce([(0, a), (1, b), (1, Z1.inv(b)), (0, a)], cfg)
        assert word == FPWord(((0, Z2.element((2, 2))),))

    def test_already_normal(self, cfg):
        word = fp_reduce([syl(0, 1, 0), syl(1, 2)], cfg)
        assert word == FPWord((syl(0, 1, 0), syl(1, 2)))
        assert fp_reduce(word.syllables, cfg) == word

    def test_identity_syllables_dropped(self, cfg):
        assert fp_reduce([(0, Z2.identity()), (1, Z1.element((1,)))], cfg) == FPWord(
            ((1, Z1.element((1,))),)
        )

    def test_bad_factor(self, cfg):
        with pytest.raises(ValueError):
            fp_reduce([(7, Z2.element((1, 0)))], cfg)

    def test_inverse_and_concat(self, cfg):
        w = fp_reduce([syl(0, 2, 1), syl(1, -3)], cfg)
        assert fp_reduce(w.syllables + fp_inverse(w, cfg).syllables, cfg) == FPWord()

    def test_normal_form_invariants(self):
        with pytest.raises(ValueError):
            FPWord(((0, Z2.identity()),))
        with pytest.raises(ValueError):
            FPWord(((0, Z2.element((1, 0))), (0, Z2.element((1, 0)))))

    def test_idempotent_and_length_nonincreasing(self, cfg):
        import itertools

        alphabet = [
            (0, Z2.element((1, 0))),
            (0, Z2.element((-1, 0))),
            (0, Z2.element((0, 1))),
            (0, Z2.identity()),
            (1, Z1.element((2,))),
            (1, Z1.element((-2,))),
        ]
        for length in range(0, 5):
            for seq in itertools.product(alphabet, repeat=length):
                once = fp_reduce(seq, cfg)
                assert len(once) <= length
                assert fp_reduce(once.syllables, cfg) == once


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):  # same factor twice
            FPConfig((Z2, Z1), (Designated(0, Z2.element((1, 0))), Designated(0, Z2.element((0, 1)))))
        with pytest.raises(ValueError):  # finite order designated element
            FPConfig(
                (AbelianGroupSpec(0, (4,)), Z1),
                (Designated(0, AbelianGroupSpec(0, (4,)).element((), (1,))), Designated(1, Z1.element((1,)))),
            )
        with pytest.raises(ValueError):  # zero power
            FPConfig(
                (Z2, Z1),
                (Designated(0, Z2.element((1, 0)), 0), Designated(1, Z1.element((1,)))),
            )
        with pytest.raises(ValueError):  # too few designated
            FPConfig((Z2, Z1), (Designated(0, Z2.element((1, 0))),))

    # A bool is refused as parse_fp_word and config_from_dict refuse it in
    # JSON, not read as factor 1 or power 1.
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda cfg: fp_reduce([(True, Z1.element((1,)))], cfg), "factor index"),
            (lambda cfg: FPWord(((True, Z1.element((1,))),)), "factor index"),
            (lambda cfg: FPConfig(cfg.factors, (cfg.designated[0], Designated(True, Z1.element((1,))))),
             "factor index"),
            (lambda cfg: FPConfig(cfg.factors, (cfg.designated[0], Designated(1, Z1.element((1,)), True))),
             "power"),
        ],
        ids=["fp_reduce", "FPWord", "FPConfig-factor", "FPConfig-power"],
    )
    def test_bool_is_refused(self, cfg, build, what):
        with pytest.raises(ValueError, match=f"^{what} has the wrong type: True$"):
            build(cfg)

    def test_json_round_trip(self, cfg, tmp_path):
        data = {
            "factors": [{"free_rank": 2, "torsion": []}, {"free_rank": 1, "torsion": []}],
            "designated": [
                {"factor": 0, "element": {"free": [1, 0]}, "power": 1},
                {"factor": 1, "element": {"free": [1]}, "power": 1},
            ],
        }
        assert config_from_dict(data) == cfg
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert load_config(str(path)) == cfg

    def test_parse_fp_word(self, cfg):
        w = parse_fp_word('[[0, {"free": [0, 1]}], [1, {"free": [2]}]]', cfg)
        assert w == FPWord((syl(0, 0, 1), syl(1, 2)))


class TestEmbedding:
    def test_two_letters_two_syllables(self, cfg):
        w = embed_fk_word(ReducedWord(2, (1, 2)), cfg)
        assert w == FPWord((syl(0, 1, 0), syl(1, 1)))

    def test_run_merges(self, cfg):
        w = embed_fk_word(ReducedWord(2, (1, 1)), cfg)
        assert w == FPWord((syl(0, 2, 0),))

    def test_identity(self, cfg):
        assert embed_fk_word(ReducedWord(2), cfg) == FPWord()

    def test_powers_scale_exponents(self):
        cfg_t = FPConfig(
            (Z2, Z1),
            (Designated(0, Z2.element((1, 0)), 2), Designated(1, Z1.element((1,)), 3)),
        )
        w = embed_fk_word(ReducedWord(2, (1, -2)), cfg_t)
        assert w == FPWord((syl(0, 2, 0), syl(1, -3)))

    def test_rank_mismatch(self, cfg):
        with pytest.raises(ValueError):
            embed_fk_word(ReducedWord(3, (3,)), cfg)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_round_trip(self, cfg, n):
        for u in enumerate_words(2, n):
            assert is_in_fk(embed_fk_word(u, cfg), cfg) == u

    def test_round_trip_with_powers(self):
        cfg_t = FPConfig(
            (Z2, Z1),
            (Designated(0, Z2.element((1, 0)), 2), Designated(1, Z1.element((1,)), 3)),
        )
        for n in range(0, 4):
            for u in enumerate_words(2, n):
                assert is_in_fk(embed_fk_word(u, cfg_t), cfg_t) == u


class TestMembership:
    def test_non_designated_factor(self):
        cfg3 = FPConfig(
            (Z2, Z1, Z1),
            (Designated(0, Z2.element((1, 0))), Designated(1, Z1.element((1,)))),
        )
        w = FPWord(((2, Z1.element((1,))),))
        assert is_in_fk(w, cfg3) is None

    def test_proportionality(self, cfg):
        assert is_in_fk(FPWord((syl(0, 3, 1),)), cfg) is None
        assert is_in_fk(FPWord((syl(0, 3, 0),)), cfg) == ReducedWord(2, (1, 1, 1))

    def test_power_divisibility(self):
        cfg_t = FPConfig(
            (Z2, Z1),
            (Designated(0, Z2.element((1, 0)), 2), Designated(1, Z1.element((1,)))),
        )
        assert is_in_fk(FPWord((syl(0, 3, 0),)), cfg_t) is None  # odd multiple
        assert is_in_fk(FPWord((syl(0, 4, 0),)), cfg_t) == ReducedWord(2, (1, 1))


class TestChiAndExpectation:
    def test_embedded_words_full_sphere(self, cfg):
        x = embed_fk_word(ReducedWord(2, (1, 2)), cfg)
        y = embed_fk_word(ReducedWord(2, (-1,)), cfg)
        for n in range(0, 4):
            members = chi_n(x, y, n, cfg)
            assert len(members) == word_count(2, n)
            element, size = expect_fp(x, y, n, cfg)
            assert size == word_count(2, n)
            assert element == oracle_expect(ReducedWord(2, (1, 2)), ReducedWord(2, (-1,)), n)

    def test_non_power_syllables_quadratic_bound(self, cfg):
        x = FPWord((syl(0, 0, 1),))
        y = FPWord((syl(0, 0, -1),))
        for n in range(0, 7):
            members = chi_n(x, y, n, cfg)
            assert len(members) <= (n + 1) * (2 * n + 1)
            element, size = expect_fp(x, y, n, cfg)
            assert size == len(members)
            assert element.norm_sq() <= Fraction(size * size)

    def test_chi_structure_single_factor_blocker(self, cfg):
        # the (0, 1) syllable only dies by merging with a g1-power run,
        # so chi consists of the two pure powers at each length
        x = FPWord((syl(0, 0, 1),))
        y = FPWord((syl(0, 0, -1),))
        assert chi_n(x, y, 0, cfg) == [ReducedWord(2)]
        for n in (1, 2, 3, 4):
            members = chi_n(x, y, n, cfg)
            assert members == [
                ReducedWord(2, (1,) * n),
                ReducedWord(2, (-1,) * n),
            ]

    def test_empty_chi_gives_zero(self, cfg):
        x = FPWord((syl(0, 0, 1),))
        y = FPWord((syl(0, 1, 1),))
        element, size = expect_fp(x, y, 3, cfg)
        assert size == 0 and not element

    def test_torsion_factor_config(self):
        # (Z x Z_2) * Z with a designated generator carrying torsion
        zxz2 = AbelianGroupSpec(1, (2,))
        z = AbelianGroupSpec(1)
        cfg = FPConfig(
            (zxz2, z),
            (Designated(0, zxz2.element((1,), (1,))), Designated(1, z.element((1,)))),
        )
        for n in range(0, 4):
            for u in enumerate_words(2, n):
                assert is_in_fk(embed_fk_word(u, cfg), cfg) == u
        # a torsion-only syllable never embeds and blocks membership until
        # it is merged away
        x = FPWord(((0, zxz2.element((0,), (1,))),))
        y = FPWord(((0, zxz2.element((0,), (1,))),))
        for n in range(0, 6):
            members = chi_n(x, y, n, cfg)
            element, size = expect_fp(x, y, n, cfg)
            assert size == len(members) <= (n + 1) * (2 * n + 1)
            assert element.norm_sq() <= Fraction(size * size)
            for u in members:
                case, _ = case_classify(u, x, y, cfg)
                assert case in (1, 2)


class TestCaseClassification:
    def test_survivor_case(self, cfg):
        x = FPWord((syl(0, 0, 1),))
        y = FPWord((syl(0, 0, -1),))
        for u in chi_n(x, y, 3, cfg):
            assert case_classify(u, x, y, cfg) == (2, 1)

    def test_full_cancellation_case(self, cfg):
        # x ends with an exact designated power, so u = g2^-1 ... dies
        # completely against it
        x = FPWord((syl(0, 0, 1), syl(1, 1)))
        y = FPWord((syl(0, 0, -1),))
        members = chi_n(x, y, 1, cfg)
        assert members == [ReducedWord(2, (-2,))]
        assert case_classify(members[0], x, y, cfg) == (1, 1)

    def test_survivor_after_exact_cancellation(self, cfg):
        x = FPWord((syl(0, 0, 1), syl(1, 1)))
        y = FPWord((syl(0, 0, -1),))
        for n in (2, 3):
            for u in chi_n(x, y, n, cfg):
                case, p = case_classify(u, x, y, cfg)
                assert (case, p) == (2, 2)
                assert u.letters[0] == -2

    def test_identity_middle(self, cfg):
        x = FPWord((syl(0, 0, 1),))
        y = FPWord((syl(0, 0, -1),))
        assert case_classify(ReducedWord(2), x, y, cfg) == (1, 0)

    def test_rejects_non_member(self, cfg):
        x = FPWord((syl(0, 0, 1),))
        y = FPWord((syl(0, 0, -1),))
        with pytest.raises(ValueError):
            case_classify(ReducedWord(2, (2,)), x, y, cfg)


ZT2 = AbelianGroupSpec(1, (2,))
ZT3 = AbelianGroupSpec(1, (3,))
EXACTNESS_CONFIGS = {
    "acceptance-1-1": FPConfig(
        (Z2, Z1), (Designated(0, Z2.element((1, 0))), Designated(1, Z1.element((1,))))
    ),
    "acceptance-2-3": FPConfig(
        (Z2, Z1), (Designated(0, Z2.element((1, 0)), 2), Designated(1, Z1.element((1,)), 3))
    ),
    # torsion in a designated element, a negative power and a factor
    # outside the embedding
    "torsion": FPConfig(
        (ZT2, Z1, Z1),
        (Designated(0, ZT2.element((1,), (1,))), Designated(1, Z1.element((1,)), -2)),
    ),
    # three generators, one of them off the coordinate axes
    "rank-3": FPConfig(
        (Z2, Z1, ZT3, Z1),
        (
            Designated(0, Z2.element((2, 1))),
            Designated(1, Z1.element((1,)), 2),
            Designated(2, ZT3.element((1,), (2,)), -1),
        ),
    ),
}


def _random_word(cfg, rng, n_syllables):
    syllables = []
    for _ in range(n_syllables):
        if rng.random() < 0.6:  # mostly embedded runs, so cancellation happens
            gen = rng.randint(1, cfg.rank)
            syllables.append(cfg.generator_syllable(gen, rng.choice((-3, -2, -1, 1, 2, 3))))
        else:
            factor = rng.randrange(len(cfg.factors))
            spec = cfg.factors[factor]
            free = [rng.randint(-3, 3) for _ in range(spec.free_rank)]
            torsion = [rng.randrange(m) for m in spec.torsion_moduli]
            syllables.append((factor, spec.element(free, torsion)))
    return fp_reduce(syllables, cfg)


def _seeded_pair(cfg, rng, i):
    """x, and a y that is random (i % 3 == 0) or cancels against x."""
    x = _random_word(cfg, rng, rng.randint(0, 3))
    extra = _random_word(cfg, rng, rng.randint(0, 2))
    if i % 3 == 0:
        y = _random_word(cfg, rng, rng.randint(0, 3))
    elif i % 3 == 1:
        y = fp_reduce(extra.syllables + fp_inverse(x, cfg).syllables, cfg)
    else:
        y = fp_reduce(fp_inverse(x, cfg).syllables + extra.syllables, cfg)
    return x, y


def _oracle_expect_fp(members, x, y, cfg):
    """Sum of E(x u y) over the oracle's members, one product at a time."""
    out = RadialElement.zero(cfg.rank)
    for u in members:
        product = fp_reduce(x.syllables + embed_fk_word(u, cfg).syllables + y.syllables, cfg)
        out = out + expect(AlgebraElement.from_word(is_in_fk(product, cfg)))
    return out


def _assert_matches_oracle(x, y, n, cfg):
    members = oracle_chi_n(x, y, n, cfg)
    assert chi_n(x, y, n, cfg) == members, (x, y, n)
    element, size = expect_fp(x, y, n, cfg)
    assert size == len(members), (x, y, n)
    assert element == _oracle_expect_fp(members, x, y, cfg), (x, y, n)
    return members


class TestExactness:
    """chi_n and expect_fp against the sphere-enumeration oracle."""

    @pytest.mark.parametrize("name", sorted(EXACTNESS_CONFIGS))
    def test_random_pairs(self, name):
        cfg = EXACTNESS_CONFIGS[name]
        n_max = 6 if cfg.rank == 2 else 4
        rng = random.Random(name)
        nonempty = 0
        for i in range(12):
            x, y = _seeded_pair(cfg, rng, i)
            for n in range(n_max + 1):
                nonempty += bool(_assert_matches_oracle(x, y, n, cfg))
        assert nonempty >= 20  # the comparison is vacuous if chi stays empty

    @pytest.mark.parametrize("name", sorted(EXACTNESS_CONFIGS))
    def test_empty_and_embedded_sides(self, name):
        cfg = EXACTNESS_CONFIGS[name]
        n_max = 6 if cfg.rank == 2 else 4
        empty = FPWord()
        good = fp_reduce([cfg.generator_syllable(1, 2), cfg.generator_syllable(2, -1)], cfg)
        other = fp_reduce([cfg.generator_syllable(2, 1)], cfg)
        spec = cfg.factors[0]
        bad = FPWord(((0, spec.element((0,) * (spec.free_rank - 1) + (1,))),))
        assert is_in_fk(good, cfg) is not None and is_in_fk(bad, cfg) is None
        pairs = [
            (empty, empty), (empty, good), (good, empty), (good, other), (other, good),
            (empty, bad), (bad, empty), (good, bad), (bad, other),
        ]
        for x, y in pairs:
            for n in range(n_max + 1):
                _assert_matches_oracle(x, y, n, cfg)

    def test_differential_digest(self):
        # chi_n and expect_fp on 60 seeded pairs per config, far past the
        # oracle's reach, pinned by a digest of their values.  Sides that
        # both embed give the sphere, so only expect_fp enters for them.
        digest = hashlib.sha256()
        for name in sorted(EXACTNESS_CONFIGS):
            cfg = EXACTNESS_CONFIGS[name]
            rng = random.Random(f"digest-{name}")
            for i in range(60):
                x, y = _seeded_pair(cfg, rng, i)
                both = is_in_fk(x, cfg) is not None and is_in_fk(y, cfg) is not None
                for n in [*range(25), 60, 301]:
                    element, size = expect_fp(x, y, n, cfg)
                    members = [] if both else [u.letters for u in chi_n(x, y, n, cfg)]
                    digest.update(repr((name, i, n, members, element.coeffs, size)).encode())
        assert digest.hexdigest() == (
            "ed329cf5859d98b62614314b66005b0c9a4a818aa569359c203e5c760d97bb34"
        )

    def test_oracle_skips_the_fast_path(self, monkeypatch):
        cfg = config_from_dict(PROBE_CONFIG)
        x, y = parse_fp_word(PROBE_X, cfg), parse_fp_word(PROBE_Y, cfg)
        expected = [chi_n(x, y, n, cfg) for n in range(6)]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the fast path")

        for name in ("_members", "_fk_runs"):
            monkeypatch.setattr(freeproduct, name, refuse)
        assert [oracle_chi_n(x, y, n, cfg) for n in range(6)] == expected
        assert expected[5] != []


class TestNoEnumeration:
    def test_expect_and_chi_never_enumerate(self, cfg, monkeypatch):
        from freeradial import freeproduct

        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_words called")

        monkeypatch.setattr(freeproduct, "enumerate_words", refuse)
        y = FPWord((syl(0, 0, -1),))
        for x in (FPWord((syl(0, 0, 1),)), FPWord((syl(1, 2), syl(0, 0, 1)))):
            for n in range(0, 41):
                element, size = expect_fp(x, y, n, cfg)
                members = chi_n(x, y, n, cfg)
                assert size == len(members) <= (n + 1) * (2 * n + 1)
                assert element.norm_sq() <= Fraction(size * size)
        g = embed_fk_word(ReducedWord(2, (1, 2)), cfg)
        h = embed_fk_word(ReducedWord(2, (-1,)), cfg)
        for x, y in ((g, h), (g, FPWord()), (FPWord(), h), (FPWord(), FPWord())):
            for n in range(0, 41):
                assert expect_fp(x, y, n, cfg)[1] == word_count(2, n)


class TestEntryChecks:
    """Element shapes are checked where elements enter."""

    def test_fp_reduce_rejects_wrong_shape(self, cfg):
        with pytest.raises(ValueError, match="does not match group shape"):
            fp_reduce([(1, Z1.element((1,))), (0, Z1.element((1,)))], cfg)

    def test_config_rejects_foreign_designated_element(self):
        with pytest.raises(ValueError, match="not in factor 0"):
            FPConfig((Z2, Z1), (Designated(0, Z1.element((1,))), Designated(1, Z1.element((1,)))))

    def test_hand_built_word_with_foreign_element(self):
        cfg = EXACTNESS_CONFIGS["rank-3"]
        assert cfg.factors[2] == AbelianGroupSpec(1, (3,))  # Z x Z_3, designated
        bad = FPWord(((2, AbelianElement((3, 5), (1,))),))
        outside = FPWord(((0, Z2.element((0, 1))),))  # not in the embedded F_k
        with pytest.raises(ValueError, match="does not match group shape"):
            is_in_fk(bad, cfg)
        # inverting would truncate the extra torsion coordinate to a valid shape
        for el in (bad.syllables[0][1], AbelianElement((1,), (1, 1))):
            with pytest.raises(ValueError, match="does not match group shape"):
                fp_inverse(FPWord(((2, el),)), cfg)
        for x, y in ((bad, FPWord()), (FPWord(), bad), (outside, bad), (bad, outside)):
            for fn in (chi_n, expect_fp):
                with pytest.raises(ValueError, match="does not match group shape"):
                    fn(x, y, 3, cfg)

    @pytest.mark.parametrize("level", [-1, True, 2.0], ids=["negative", "bool", "float"])
    @pytest.mark.parametrize("sides", ["embedded", "identity", "mixed", "outside"])
    @pytest.mark.parametrize("function", [chi_n, expect_fp], ids=lambda f: f.__name__)
    def test_level_checked_before_the_sides(self, cfg, function, sides, level):
        # embedded sides take the sphere or the free-group sandwich, the
        # others the candidates; the level is refused the same way on each
        g = embed_fk_word(ReducedWord(2, (1, 2)), cfg)
        outside = FPWord((syl(0, 0, 1),))
        x, y = {
            "embedded": (g, embed_fk_word(ReducedWord(2, (-1,)), cfg)),
            "identity": (g, FPWord()),
            "mixed": (g, outside),
            "outside": (outside, FPWord((syl(0, 0, -1),))),
        }[sides]
        with pytest.raises(ValueError, match="level must be a nonnegative integer"):
            function(x, y, level, cfg)


# bench/fp_config.json and the freeproduct_chi pair of bench/cli_probe.json
PROBE_CONFIG = {
    "factors": [{"free_rank": 2, "torsion": []}, {"free_rank": 1, "torsion": [3]}],
    "designated": [
        {"factor": 0, "element": {"free": [1, 0]}, "power": 1},
        {"factor": 1, "element": {"free": [1], "torsion": [1]}, "power": 2},
    ],
}
PROBE_X = '[[0, {"free": [0, 1]}]]'
PROBE_Y = '[[0, {"free": [2, -1]}], [1, {"free": [2], "torsion": [2]}]]'
SPEC_METHODS = ("element", "identity", "contains", "_require", "mul", "inv", "pow", "exact_power")


class TestWorkCounts:
    """Embedded words are built by runs, so the work does not grow with n."""

    def test_embedding_makes_one_pow_per_run(self, cfg, monkeypatch):
        exponents = []
        pow_ = AbelianGroupSpec.pow

        def counting_pow(self, a, e):
            exponents.append(e)
            return pow_(self, a, e)

        monkeypatch.setattr(AbelianGroupSpec, "pow", counting_pow)
        u = ReducedWord(2, (1, 1, 1, -2, -2, 1, 2, 2, 2, 2))
        w = embed_fk_word(u, cfg)
        assert exponents == [3, -2, 1, 4] and len(w) == 4
        assert is_in_fk(w, cfg) == u

    def test_expect_fp_spec_calls_do_not_grow_with_n(self, monkeypatch):
        cfg = config_from_dict(PROBE_CONFIG)
        x, y = parse_fp_word(PROBE_X, cfg), parse_fp_word(PROBE_Y, cfg)
        calls = Counter()

        def counted(name):
            method = getattr(AbelianGroupSpec, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)

            return wrapper

        for name in SPEC_METHODS:
            monkeypatch.setattr(AbelianGroupSpec, name, counted(name))

        def spec_calls(n):
            calls.clear()
            assert expect_fp(x, y, n, cfg)[1] == 2  # two members at every n >= 2
            return dict(calls)

        at_40 = spec_calls(40)
        assert at_40 == spec_calls(400) == spec_calls(40_000)
        assert at_40["exact_power"] > 0

    def test_words_are_spelled_out_only_for_chi_members(self, monkeypatch):
        # expect_fp reads lengths off the runs; chi_n expands each member once
        cfg = config_from_dict(PROBE_CONFIG)
        x, y = parse_fp_word(PROBE_X, cfg), parse_fp_word(PROBE_Y, cfg)
        g = embed_fk_word(ReducedWord(2, (1, 2)), cfg)
        raw_word = freeproduct._raw_word
        calls = []

        def counted(*args):
            calls.append(args)
            return raw_word(*args)

        monkeypatch.setattr(freeproduct, "_raw_word", counted)
        for sides, size in (((x, y), 2), ((g, y), 0), ((x, g), 0)):
            for n in (40, 40_000):
                calls.clear()
                assert expect_fp(*sides, n, cfg)[1] == size
                assert calls == []
                assert len(chi_n(*sides, n, cfg)) == len(calls) == size


class TestLetterCap:
    """The letter cap is checked once membership is settled."""

    def test_long_leading_run_outside_fk(self):
        cfg = config_from_dict(PROBE_CONFIG)
        x = parse_fp_word(PROBE_X, cfg)
        y = FPWord((
            cfg.generator_syllable(1, DEFAULT_ENUMERATION_CAP + 1),
            cfg.generator_syllable(2, 1),
            (0, cfg.factors[0].element((0, 1))),
        ))
        assert is_in_fk(y, cfg) is None
        for n in range(3):
            assert chi_n(x, y, n, cfg) == []
            assert expect_fp(x, y, n, cfg) == (RadialElement.zero(2), 0)

    def test_words_of_fk_past_the_cap_raise(self):
        cfg = config_from_dict(PROBE_CONFIG)
        long_run = cfg.generator_syllable(1, DEFAULT_ENUMERATION_CAP + 1)
        with pytest.raises(CapExceededError):
            is_in_fk(FPWord((long_run,)), cfg)
        # neither side embeds, but x * y = g1^(cap+1) g2 does
        spec = cfg.factors[1]
        x = FPWord((long_run, (1, spec.element((0,), (1,)))))
        y = FPWord(((1, spec.element((2,), (1,))),))
        assert is_in_fk(x, cfg) is None and is_in_fk(y, cfg) is None
        with pytest.raises(CapExceededError):
            expect_fp(x, y, 0, cfg)
