"""Finitely supported rational combinations of reduced words.

The product is convolution over the free group: coefficients multiply and
land on the reduced concatenation of the supporting words.  Terms are
stored under words.word_key tuples, which hash and compare in C; a
ReducedWord is built only where one enters or leaves the API.  Supports can
multiply in size, so a fixed cap guards against accidental blowups.  Scalars are
exact (int or Fraction); floats are rejected so that every identity in the
test suite can be checked with plain equality.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from numbers import Rational
from operator import invert
from typing import Iterable, Mapping, Union

from .words import (
    CapExceededError,
    RankMismatchError,
    ReducedWord,
    _cancelled_pairs,
    _raw_word,
    _sphere,
    canonical_key,
    format_word,
    parse_word,
    word_key,
)

DEFAULT_PRODUCT_CAP = 10_000_000

# parse_element refuses a larger decimal exponent before Fraction expands
# it (Python's default int-to-str digit guard; must stay below 10_000).
MAX_DECIMAL_EXPONENT = 4300

Scalar = Union[int, Fraction]
Key = tuple[int, ...]


def _check_scalar(c: object) -> None:
    # Exact type tests first: they settle the common int and Fraction cases
    # without an ABC lookup, and bool fails them (type(True) is bool).
    if type(c) is int or type(c) is Fraction:
        return
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


class AlgebraElement:
    """Finitely supported map ReducedWord -> rational, under convolution.

    _terms maps word_key(w) to the coefficient of w, in the order the
    words first entered.
    """

    __slots__ = ("rank", "_terms")

    def __init__(
        self,
        rank: int,
        terms: Mapping[ReducedWord, Scalar] | Iterable[tuple[ReducedWord, Scalar]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Key, Scalar] = {}
        for w, c in items:
            if not isinstance(w, ReducedWord):
                raise TypeError(f"support must consist of ReducedWord, got {type(w).__name__}")
            if w.rank != rank:
                raise RankMismatchError(f"word of rank {w.rank} in element of rank {rank}")
            _check_scalar(c)
            key = word_key(w)
            total = clean.get(key, 0) + c
            if total == 0:
                clean.pop(key, None)
            else:
                clean[key] = total
        ReducedWord(rank)  # validates the rank itself
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _from_raw(cls, rank: int, terms: dict[Key, Scalar]) -> "AlgebraElement":
        el = object.__new__(cls)
        object.__setattr__(el, "rank", rank)
        object.__setattr__(el, "_terms", terms)
        return el

    @classmethod
    def zero(cls, rank: int) -> "AlgebraElement":
        return cls(rank)

    @classmethod
    def from_word(cls, w: ReducedWord, coeff: Scalar = 1) -> "AlgebraElement":
        return cls(w.rank, {w: coeff})

    # -- container-ish access ------------------------------------------------

    def _word(self, key: Key) -> ReducedWord:
        return _raw_word(self.rank, tuple(map(invert, key)))

    def coeff(self, w: ReducedWord) -> Scalar:
        """Coefficient of w; 0 for a word of another rank, as for any word
        outside the support."""
        if not isinstance(w, ReducedWord) or w.rank != self.rank:
            return 0
        return self._terms.get(word_key(w), 0)

    def items(self) -> list[tuple[ReducedWord, Scalar]]:
        """(word, coefficient) pairs in the order the words first entered."""
        return [(self._word(key), c) for key, c in self._terms.items()]

    def support(self) -> list[ReducedWord]:
        """Supporting words in canonical order."""
        return sorted(map(self._word, self._terms), key=canonical_key)

    def support_size(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        # The first 4 terms of support(), without sorting the rest.  The
        # order is by length first, so no word longer than the 4th-shortest
        # can be shown, and only the words up to that length are keyed.
        cutoff = max(heapq.nsmallest(4, map(len, self._terms)), default=0)
        shown = heapq.nsmallest(
            4,
            (self._word(key) for key in self._terms if len(key) <= cutoff),
            key=canonical_key,
        )
        body = " + ".join(f"{self._terms[word_key(w)]}*{format_word(w)}" for w in shown)
        if len(self._terms) > 4:
            body += f" + ... ({len(self._terms)} terms)"
        return f"AlgebraElement({self.rank}, {body or '0'})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")
        acc = dict(self._terms)
        for w, c in other._terms.items():
            total = acc.get(w, 0) + c
            if total == 0:
                acc.pop(w, None)
            else:
                acc[w] = total
        return AlgebraElement._from_raw(self.rank, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._from_raw(self.rank, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, c: Scalar) -> "AlgebraElement":
        _check_scalar(c)
        if c == 0:
            return AlgebraElement._from_raw(self.rank, {})
        return AlgebraElement._from_raw(self.rank, {w: c * x for w, x in self._terms.items()})

    def __mul__(self, other: object) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        if isinstance(other, Rational) and not isinstance(other, bool):
            return self.scalar_mul(other)  # type: ignore[arg-type]
        return NotImplemented

    def __rmul__(self, other: object) -> "AlgebraElement":
        if isinstance(other, Rational) and not isinstance(other, bool):
            return self.scalar_mul(other)  # type: ignore[arg-type]
        return NotImplemented

    # -- *-algebra structure -------------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        """Coefficient of v in the adjoint is the coefficient of v^-1.

        The key of v^-1 is key(v) reversed with each entry i = ~x replaced
        by ~(-x) = -2 - i.
        """
        return AlgebraElement._from_raw(
            self.rank,
            {tuple(-2 - i for i in reversed(key)): c for key, c in self._terms.items()},
        )

    def trace(self) -> Scalar:
        """Coefficient at the identity word."""
        return self._terms.get((), 0)

    def l2_norm_sq(self) -> Scalar:
        """Sum of squared coefficients; equals (self.adjoint() * self).trace()."""
        return sum(c * c for c in self._terms.values())


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product; its support may not exceed DEFAULT_PRODUCT_CAP.

    Works on keys alone, so no word is built or hashed.  A pair u, v
    cancels t = _cancelled_pairs(u, v) letter pairs, on letter tuples
    rebuilt once per term, and key(u v) is key(u) without its last t
    entries followed by key(v) without its first t.  Key entries i and j
    cancel when i + j == -2; most pairs do not, and those are told apart
    by their first and last entries alone.  Products land in the order of
    their first pair, as with a pass over the words.
    """
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")
    acc: dict[Key, Scalar] = {}
    get = acc.get
    # -1 is never a key entry, so it stands for "no first entry".
    right = [
        (kv, cv, kv[0] if kv else -1, tuple(map(invert, kv))) for kv, cv in b._terms.items()
    ]
    for ku, cu in a._terms.items():
        lu, cut = tuple(map(invert, ku)), len(ku)
        bar = -2 - ku[-1] if ku else None
        for kv, cv, first, lv in right:
            if first == bar:
                t = _cancelled_pairs(lu, lv)
                w = ku[: cut - t] + kv[t:]
            else:
                w = ku + kv
            acc[w] = get(w, 0) + cu * cv
        if len(acc) > DEFAULT_PRODUCT_CAP:
            raise CapExceededError(
                f"product support exceeds cap {DEFAULT_PRODUCT_CAP} "
                f"(operands have {a.support_size()} and {b.support_size()} terms)"
            )
    # Drop cancelled terms in place, keeping the order of the rest.
    for w in [w for w, c in acc.items() if c == 0]:
        del acc[w]
    return AlgebraElement._from_raw(a.rank, acc)


def inner(a: AlgebraElement, b: AlgebraElement) -> Scalar:
    """Trace inner product (b.adjoint() * a).trace()."""
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")
    # Only matching words contribute, so skip the full convolution.
    small, large = (a, b) if a.support_size() <= b.support_size() else (b, a)
    return sum(c * large._terms.get(w, 0) for w, c in small._terms.items())


def w_n_explicit(k: int, n: int) -> AlgebraElement:
    """The sum of all reduced words of length n, materialized term by term."""
    return AlgebraElement._from_raw(k, dict.fromkeys(_sphere(k, n, keys=True), 1))


def format_element(a: AlgebraElement, letters: bool = False) -> str:
    """One '<rational> <word-text>' line per term, in canonical word order."""
    return "\n".join(
        f"{a.coeff(w)} {format_word(w, letters=letters)}" for w in a.support()
    )


def parse_element(text: str, k: int, letters: bool = False) -> AlgebraElement:
    """Parse the line format produced by format_element; blank lines ignored."""
    terms: list[tuple[ReducedWord, Scalar]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<rational> <word-text>', got {line!r}")
        exponent = parts[0].lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        # an exponent of five or more digits passes the bound on its first five
        if exponent.isdecimal() and int(exponent[:5]) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"line {lineno}: decimal exponent of {parts[0]!r} exceeds {MAX_DECIMAL_EXPONENT}"
            )
        try:
            coeff = Fraction(parts[0])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational {parts[0]!r}") from exc
        terms.append((parse_word(parts[1], k, letters=letters), coeff))
    return AlgebraElement(k, terms)
