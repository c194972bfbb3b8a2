"""Free products of finitely generated abelian groups.

Each factor is Z^r x Z_{m_1} x ... x Z_{m_t} in additive normal form, so
questions like "is this element an exact power of that one?" reduce to
integer divisibility.  Words in the free product are alternating-syllable
normal forms.  A configuration designates one infinite-order element in
each of k distinct factors; those generate a free group of rank k inside
the product, and the radial machinery runs on sandwiches x * w_n * y even
when x and y live outside the embedded free group.

A syllable is good when it is an exact power (designated element)^(power*m),
i.e. the image of a single-letter run; a word lies in the embedded F_k
exactly when all its syllables are good.  Multiplying a syllable that is
not good by a good one never makes it good or trivial, which fixes the
members of chi_n without enumerating the sphere of radius n:

- x and y both in F_k: every u is a member, and E(x w_n y) is the free
  group's sandwich expectation (radial.expect_xwny, which also takes an
  identity side).
- exactly one of them in F_k: x u y is in F_k iff the other one is, so
  there are no members.
- neither in F_k: the last non-good syllable of x can only become good by
  fusing with the first non-good syllable of y, so x's trailing good
  syllables G, then u, then y's leading good syllables H must reduce to
  nothing or to a single run l^m.  Hence u = G^-1 l^m H^-1, reduced.  The
  good syllables of one factor form a subgroup, so reduction merges at one
  point and leaves at most one cut run: u reads L_t M R_s, the inverses of
  x's last t good syllables, then M (empty, or one generator syllable),
  then the inverses of y's first s good syllables.  That gives at most
  (t_max+1)(s_max+1)(2k) candidates, each confirmed by reducing x u y.

Only chi_n enumerates, and only in the first case, where its output is
the whole sphere.

Shapes are checked where elements enter: element(), FPWord, FPConfig,
fp_reduce (every syllable, also for fp_inverse) and exact_power (the
element it tests, so a hand-built FPWord is caught).  Every factor index,
in a word, a config or JSON input, goes through _factor_index: an int,
never a bool, in 0..factors-1 (FPWord, which has no config, checks only
that it is nonnegative).  A designated power is an int, never a bool,
and nonzero.  mul, inv and pow take elements of their own spec.  chi_n
and expect_fp check the level first, with the rule of words._check_level,
whichever side embeds.

Candidates are built, reduced and confirmed as syllables, one per run, so
each costs O(|x| + |y|) syllable operations whatever n is; letters appear
only in embed_fk_word's input and in the words is_in_fk and chi_n return.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import Iterable, Iterator, Optional

from .radial import RadialElement, _sphere_average, expect_xwny
from .words import (
    DEFAULT_ENUMERATION_CAP, CapExceededError, ReducedWord, _check_level, _raw_word,
    enumerate_words, word_code, word_count,
)

Syllable = tuple[int, "AbelianElement"]

# Every element of a factor carries free_rank coordinates, so a free rank
# read from a config bounds the memory each parsed syllable takes.
MAX_FREE_RANK = 10_000


def _expect(value: object, kind: type | tuple[type, ...], what: str):
    """value itself when it is an instance of kind (a bool is no int)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} has the wrong type: {value!r}")
    return value


@dataclass(frozen=True)
class AbelianElement:
    """Normal form (free part vector, torsion residues); build via the spec."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return not any(self.free) and not any(self.torsion)


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Z^free_rank x prod Z_m for the listed torsion moduli.  Arithmetic
    takes elements of this spec; see the module docstring for the checks."""

    free_rank: int
    torsion_moduli: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= _expect(self.free_rank, int, "free rank") <= MAX_FREE_RANK:
            raise ValueError(f"free rank must lie in 0..{MAX_FREE_RANK}, got {self.free_rank}")
        object.__setattr__(self, "torsion_moduli", tuple(self.torsion_moduli))
        for m in self.torsion_moduli:
            if not isinstance(m, int) or m < 2:
                raise ValueError(f"torsion moduli must be integers >= 2, got {m!r}")

    def element(self, free: Iterable[int] = (), torsion: Iterable[int] = ()) -> AbelianElement:
        """Normalize coordinates into an element (short vectors are padded)."""
        f = tuple(free)
        t = tuple(torsion)
        for v in f + t:
            _expect(v, int, "coordinate")
        if len(f) > self.free_rank or len(t) > len(self.torsion_moduli):
            raise ValueError(
                f"coordinates ({len(f)} free, {len(t)} torsion) exceed group shape "
                f"({self.free_rank} free, {len(self.torsion_moduli)} torsion)"
            )
        f = f + (0,) * (self.free_rank - len(f))
        t = t + (0,) * (len(self.torsion_moduli) - len(t))
        return AbelianElement(f, tuple(v % m for v, m in zip(t, self.torsion_moduli)))

    def identity(self) -> AbelianElement:
        return self.element()

    def contains(self, a: AbelianElement) -> bool:
        return (
            len(a.free) == self.free_rank
            and len(a.torsion) == len(self.torsion_moduli)
            and all(0 <= v < m for v, m in zip(a.torsion, self.torsion_moduli))
        )

    def _require(self, a: AbelianElement) -> None:
        if not self.contains(a):
            raise ValueError(f"element {a} does not match group shape {self}")

    def mul(self, a: AbelianElement, b: AbelianElement) -> AbelianElement:
        return AbelianElement(
            tuple(x + y for x, y in zip(a.free, b.free)),
            tuple((x + y) % m for x, y, m in zip(a.torsion, b.torsion, self.torsion_moduli)),
        )

    def inv(self, a: AbelianElement) -> AbelianElement:
        return self.pow(a, -1)

    def pow(self, a: AbelianElement, e: int) -> AbelianElement:
        return AbelianElement(
            tuple(e * x for x in a.free),
            tuple((e * x) % m for x, m in zip(a.torsion, self.torsion_moduli)),
        )

    def exact_power(self, a: AbelianElement, base: AbelianElement) -> Optional[int]:
        """The nonzero integer q with a = base^q, if one exists.

        Requires base of infinite order (nonzero free part); the free part
        pins q by divisibility and the torsion part is then checked.
        """
        self._require(a)
        pivot = next((i for i, v in enumerate(base.free) if v != 0), None)
        if pivot is None:
            raise ValueError("base element must have infinite order")
        num, den = a.free[pivot], base.free[pivot]
        if num % den != 0:
            return None
        q = num // den
        if q == 0:
            return None
        if any(x != q * y for x, y in zip(a.free, base.free)):
            return None
        if any((q * y - x) % m for x, y, m in zip(a.torsion, base.torsion, self.torsion_moduli)):
            return None
        return q


@dataclass(frozen=True)
class FPWord:
    """Alternating-syllable normal form in the free product."""

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "syllables", tuple(self.syllables))
        prev = None
        for factor, el in self.syllables:
            _factor_index(factor, math.inf)  # a word has no config to bound it
            if el.is_identity:
                raise ValueError("identity syllable in normal form")
            if factor == prev:
                raise ValueError("adjacent syllables share a factor; word is not normal")
            prev = factor

    @classmethod
    def _trusted(cls, syllables: tuple[Syllable, ...]) -> "FPWord":
        """Wrap syllables in normal form whose factor indices are already
        checked (fp_reduce's stack), so no syllable is checked twice."""
        w = object.__new__(cls)
        object.__setattr__(w, "syllables", syllables)
        return w

    def __len__(self) -> int:
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables


@dataclass(frozen=True)
class Designated:
    """One chosen infinite-order element; the embedding uses element^power."""

    factor: int
    element: AbelianElement
    power: int = 1


@dataclass(frozen=True)
class FPConfig:
    """Factors of the free product plus the designated free-group generators."""

    factors: tuple[AbelianGroupSpec, ...]
    designated: tuple[Designated, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "designated", tuple(self.designated))
        if len(self.factors) < 2:
            raise ValueError("a free product needs at least 2 factors")
        if len(self.designated) < 2:
            raise ValueError("need at least 2 designated generators (free group of rank >= 2)")
        if len(self.designated) > len(self.factors):
            raise ValueError("cannot designate more generators than factors")
        seen: set[int] = set()
        for d in self.designated:
            _factor_index(d.factor, len(self.factors))
            if d.factor in seen:
                raise ValueError(f"factor {d.factor} designated twice")
            seen.add(d.factor)
            spec = self.factors[d.factor]
            if not spec.contains(d.element):
                raise ValueError(f"designated element {d.element} not in factor {d.factor}")
            if not any(d.element.free):
                raise ValueError(f"designated element in factor {d.factor} has finite order")
            if _expect(d.power, int, "power") == 0:
                raise ValueError("designated power must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.designated)

    def generator_syllable(self, index: int, exponent: int) -> Syllable:
        """Syllable for (designated generator index)^exponent, both 1-based
        generator index and arbitrary nonzero exponent."""
        d = self.designated[index - 1]
        spec = self.factors[d.factor]
        return (d.factor, spec.pow(d.element, d.power * exponent))


def _factor_index(value: object, n_factors: float) -> int:
    """value itself when it is an int in 0..n_factors-1 (a bool is no int)."""
    if not 0 <= _expect(value, int, "factor index") < n_factors:
        raise ValueError(f"factor index {value} out of range")
    return value


def _element_from_json(spec: AbelianGroupSpec, el: object) -> AbelianElement:
    el = _expect(el, dict, "element")
    return spec.element(
        _expect(el.get("free", []), (list, tuple), "element 'free'"),
        _expect(el.get("torsion", []), (list, tuple), "element 'torsion'"),
    )


def config_from_dict(data: dict) -> FPConfig:
    """Build a configuration from the JSON layout (factor indices 0-based)."""
    _expect(data, dict, "config")
    for key in ("factors", "designated"):
        if key not in data:
            raise ValueError(f"config is missing {key!r}")
    factors = []
    for f in _expect(data["factors"], (list, tuple), "factors"):
        f = _expect(f, dict, "factor")
        torsion = _expect(f.get("torsion", []), (list, tuple), "torsion")
        factors.append(AbelianGroupSpec(f.get("free_rank", 0), tuple(torsion)))
    designated = []
    for d in _expect(data["designated"], (list, tuple), "designated"):
        factor = _factor_index(_expect(d, dict, "designated entry").get("factor"), len(factors))
        el = _element_from_json(factors[factor], d.get("element", {}))
        designated.append(Designated(factor, el, d.get("power", 1)))
    return FPConfig(tuple(factors), tuple(designated))


def _json_value(text: str, what: str) -> object:
    """Decode JSON text; nesting past the recursion limit is bad input too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None


def load_config(path: str) -> FPConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(_json_value(fh.read(), "config"))


def parse_fp_word(data: str | list, cfg: FPConfig) -> FPWord:
    """Parse a word given as JSON: a list of [factor, {free, torsion}] pairs."""
    if isinstance(data, str):
        data = _json_value(data, "free-product word")
    if not isinstance(data, list):
        raise ValueError("free-product word must be a JSON list of syllables")
    syllables = []
    for item in data:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"syllable must be a [factor, {{free, torsion}}] pair, got {item!r}")
        factor = _factor_index(item[0], len(cfg.factors))
        syllables.append((factor, _element_from_json(cfg.factors[factor], item[1])))
    return fp_reduce(syllables, cfg)


def fp_reduce(syllables: Iterable[Syllable], cfg: FPConfig) -> FPWord:
    """Normal form: merge adjacent same-factor syllables, drop identities."""
    stack: list[Syllable] = []
    for factor, el in syllables:
        spec = cfg.factors[_factor_index(factor, len(cfg.factors))]
        spec._require(el)
        if el.is_identity:
            continue
        if stack and stack[-1][0] == factor:
            merged = spec.mul(stack[-1][1], el)
            stack.pop()
            if not merged.is_identity:
                stack.append((factor, merged))
        else:
            stack.append((factor, el))
    return FPWord._trusted(tuple(stack))


def fp_inverse(w: FPWord, cfg: FPConfig) -> FPWord:
    """Inverse of w, whose syllables fp_reduce checks on the way in."""
    syllables = reversed(fp_reduce(w.syllables, cfg).syllables)
    return FPWord(tuple((f, cfg.factors[f].inv(el)) for f, el in syllables))


def embed_fk_word(u: ReducedWord, cfg: FPConfig) -> FPWord:
    """Image of a free-group word under the designated-generator embedding:
    one syllable per run of a letter.  Adjacent runs carry distinct
    generators, which live in distinct factors, so this is the normal form."""
    if u.rank != cfg.rank:
        raise ValueError(f"word rank {u.rank} does not match configuration rank {cfg.rank}")
    runs = ((x, len(list(run))) for x, run in groupby(u.letters))
    return FPWord(tuple(cfg.generator_syllable(abs(x), c if x > 0 else -c) for x, c in runs))


def _run(syllable: Syllable, cfg: FPConfig) -> Optional[tuple[int, int]]:
    """(letter, count) when the syllable is the embedded run letter^count,
    i.e. an exact power (designated element)^(power * m); else None."""
    factor, el = syllable
    for gen, d in enumerate(cfg.designated, 1):
        if d.factor == factor:
            q = cfg.factors[factor].exact_power(el, d.element)
            if q is None or q % d.power != 0:
                return None
            p = q // d.power
            return (gen if p > 0 else -gen), abs(p)
    return None


def _fk_runs(w: FPWord, cfg: FPConfig) -> Optional[list[tuple[int, int]]]:
    """The (letter, count) run of each syllable of w, or None at the first
    one that is not a run (w is outside F_k); then the letter cap is checked."""
    runs = []
    for syllable in w.syllables:
        runs.append(_run(syllable, cfg))
        if runs[-1] is None:
            return None
    if sum(count for _, count in runs) > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(f"word expands past the {DEFAULT_ENUMERATION_CAP}-letter cap")
    return runs


def is_in_fk(w: FPWord, cfg: FPConfig) -> Optional[ReducedWord]:
    """The free-group word embedding to w, or None.

    Every syllable must live in a designated factor and be an exact power
    of (designated element)^power; adjacent syllables sit in distinct
    factors, so the recovered letter sequence is automatically reduced.
    """
    runs = _fk_runs(w, cfg)
    if runs is None:
        return None
    return _raw_word(cfg.rank, tuple(chain.from_iterable(repeat(*run) for run in runs)))


def _inverse_runs(
    syllables: Iterable[Syllable], n: int, cfg: FPConfig
) -> Iterator[tuple[Syllable, int]]:
    """The inverse of each leading good syllable, in order, with the
    running letter total, while that total stays within n."""
    total = 0
    for factor, el in syllables:
        run = _run((factor, el), cfg)
        if run is None or total + run[1] > n:
            return
        total += run[1]
        yield (factor, cfg.factors[factor].inv(el)), total


def _members(x: FPWord, y: FPWord, n: int, cfg: FPConfig) -> Iterator[tuple[FPWord, int]]:
    """The embedding of each length-n free-group word u with x * u * y back
    in the embedded free group, in no particular order, with the free-group
    length of that product.  Callers handle x and y both in F_k first.

    Candidates are the words L_t M R_s of the module docstring, built as
    syllables; each is confirmed by reducing x * u * y.
    """
    if _fk_runs(x, cfg) is not None or _fk_runs(y, cfg) is not None:
        return  # x u y is in F_k iff the other side is, and it is not
    lefts, rights = [((), 0)], [((), 0)]
    for syllable, total in _inverse_runs(reversed(x.syllables), n, cfg):
        lefts.append((lefts[-1][0] + (syllable,), total))
    for syllable, total in _inverse_runs(y.syllables, n, cfg):
        rights.append(((syllable,) + rights[-1][0], total))
    candidates: set[FPWord] = set()
    for left, a in lefts:
        for right, b in rights:
            m = n - a - b
            if m < 0:
                break  # the rights only get longer
            middles = [()] if m == 0 else [
                (cfg.generator_syllable(i, e),) for i in range(1, cfg.rank + 1) for e in (m, -m)
            ]
            for middle in middles:
                u = fp_reduce(left + middle + right, cfg)
                if sum(count for _, count in _fk_runs(u, cfg)) == n:
                    candidates.add(u)
    for u in candidates:
        runs = _fk_runs(fp_reduce(x.syllables + u.syllables + y.syllables, cfg), cfg)
        if runs is not None:
            yield u, sum(count for _, count in runs)


def chi_n(x: FPWord, y: FPWord, n: int, cfg: FPConfig) -> list[ReducedWord]:
    """All length-n free-group words u with x * u * y back in the embedded
    free group, in canonical enumeration order.

    When x and y are both in F_k the answer is the whole sphere, listed
    only if it fits DEFAULT_ENUMERATION_CAP; otherwise the members come
    from _members' L_t M R_s candidates, sorted by word_code (canonical
    order at one length), and nothing is enumerated.  The level is
    checked first, whichever side embeds.
    """
    _check_level(n)
    if _fk_runs(x, cfg) is not None and _fk_runs(y, cfg) is not None:
        return list(enumerate_words(cfg.rank, n))
    return sorted((is_in_fk(u, cfg) for u, _ in _members(x, y, n, cfg)), key=word_code)


def expect_fp(x: FPWord, y: FPWord, n: int, cfg: FPConfig) -> tuple[RadialElement, int]:
    """Expectation of x * w_n * y onto the radial subalgebra of the embedded
    free group, plus the number of contributing middle words.

    Each contributing u adds w_p / |sphere_p| where p is the free-group
    length of the reduced product; everything else expects to zero.  When
    x and y embed as g and h every u contributes, and the sum is
    E(g w_n h), which radial.expect_xwny gives for every pair of words, the
    identity included.  Otherwise the members come from _members.
    Nothing is enumerated.  The level is checked first, whichever side
    embeds.
    """
    _check_level(n)
    k = cfg.rank
    if _fk_runs(x, cfg) is not None and _fk_runs(y, cfg) is not None:
        return expect_xwny(is_in_fk(x, cfg), is_in_fk(y, cfg), n), word_count(k, n)
    counts: dict[int, int] = {}
    for _, p in _members(x, y, n, cfg):
        counts[p] = counts.get(p, 0) + 1
    return _sphere_average(k, counts), sum(counts.values())


def case_classify(
    u: ReducedWord, x: FPWord, y: FPWord, cfg: FPConfig
) -> tuple[int, int]:
    """Which structural case a chi_n member falls into, and its split index.

    Writing the embedded u as syllables u_1 ... u_r, case (1, p) means the
    first p syllables invert the trailing p syllables of x and the rest
    invert the leading r-p syllables of y; case (2, p) means the same with
    u_p surviving as a merge partner.  Raises for words whose product does
    not return to the embedded free group, or whose cancellation pattern
    fits neither shape.
    """
    emb = embed_fk_word(u, cfg).syllables
    if _fk_runs(fp_reduce(x.syllables + emb + y.syllables, cfg), cfg) is None:
        raise ValueError("word is not a chi_n member for these x, y")
    r = len(emb)
    a = _inverted_prefix(reversed(x.syllables), emb, cfg)
    b = _inverted_prefix(y.syllables, reversed(emb), cfg)
    if a + b >= r:
        return (1, a)
    if a + b == r - 1:
        return (2, a + 1)
    raise ValueError(
        f"cancellation pattern (left={a}, right={b}, syllables={r}) fits neither case"
    )


def _inverted_prefix(outer: Iterable[Syllable], inner: Iterable[Syllable], cfg: FPConfig) -> int:
    """How many leading syllables of inner invert the matching ones of outer."""
    count = 0
    for (factor, el), syllable in zip(outer, inner):
        if syllable != (factor, cfg.factors[factor].inv(el)):
            break
        count += 1
    return count
