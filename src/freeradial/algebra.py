"""Finitely supported rational combinations of reduced words.

The product is convolution over the free group: coefficients multiply and
land on the reduced concatenation of the supporting words.  Terms are
stored under words.word_code ints, which hash and compare in C and are
never tracked by the garbage collector; a ReducedWord is built only where
one enters or leaves the API.  Supports can multiply in size, so a fixed
cap guards against accidental blowups.  Scalars are exact (int or
Fraction); floats are rejected so that every identity in the test suite
can be checked with plain equality.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Union

from .words import (
    CapExceededError,
    RankMismatchError,
    ReducedWord,
    _check_rank,
    _check_same_rank,
    _code_inverse,
    _code_letters,
    _digit_bits,
    _raw_word,
    _sphere,
    format_word,
    parse_word,
    word_code,
)

DEFAULT_PRODUCT_CAP = 10_000_000

# parse_element refuses a larger decimal exponent before Fraction expands
# it (Python's default int-to-str digit guard; must stay below 10_000).
MAX_DECIMAL_EXPONENT = 4300

Scalar = Union[int, Fraction]
Code = int


def _check_scalar(c: object) -> None:
    # Exact type tests first: they settle the common int and Fraction cases
    # without an ABC lookup, and bool fails them (type(True) is bool).
    if type(c) is int or type(c) is Fraction:
        return
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


class AlgebraElement:
    """Finitely supported map ReducedWord -> rational, under convolution.

    _terms maps word_code(w) to the coefficient of w, in the order the
    words first entered.
    """

    __slots__ = ("rank", "_terms")

    def __init__(
        self,
        rank: int,
        terms: Mapping[ReducedWord, Scalar] | Iterable[tuple[ReducedWord, Scalar]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Code, Scalar] = {}
        for w, c in items:
            if not isinstance(w, ReducedWord):
                raise TypeError(f"support must consist of ReducedWord, got {type(w).__name__}")
            if w.rank != rank:
                raise RankMismatchError(f"word of rank {w.rank} in element of rank {rank}")
            _check_scalar(c)
            code = word_code(w)
            total = clean.get(code, 0) + c
            if total == 0:
                clean.pop(code, None)
            else:
                clean[code] = total
        _check_rank(rank)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _from_raw(cls, rank: int, terms: dict[Code, Scalar]) -> "AlgebraElement":
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

    def _words(self, codes: Iterable[Code]) -> Iterator[ReducedWord]:
        letters = _code_letters(self.rank)
        return (_raw_word(self.rank, letters(code)) for code in codes)

    def coeff(self, w: ReducedWord) -> Scalar:
        """Coefficient of w; 0 for a word of another rank, as for any word
        outside the support."""
        if not isinstance(w, ReducedWord) or w.rank != self.rank:
            return 0
        return self._terms.get(word_code(w), 0)

    def items(self) -> list[tuple[ReducedWord, Scalar]]:
        """(word, coefficient) pairs in the order the words first entered."""
        return list(zip(self._words(self._terms), self._terms.values()))

    def support(self) -> list[ReducedWord]:
        """Supporting words in canonical order, which is the order of their codes."""
        return list(self._words(sorted(self._terms)))

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
        # The first 4 terms of support(), without sorting the rest.
        shown = heapq.nsmallest(4, self._terms)
        body = " + ".join(
            f"{self._terms[code]}*{format_word(w)}" for code, w in zip(shown, self._words(shown))
        )
        if len(self._terms) > 4:
            body += f" + ... ({len(self._terms)} terms)"
        return f"AlgebraElement({self.rank}, {body or '0'})"

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _check_same_rank(self, other)
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

    __rmul__ = __mul__  # called only when the left operand has another type

    # -- *-algebra structure -------------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        """Coefficient of v in the adjoint is the coefficient of v^-1."""
        inverse = _code_inverse(self.rank)
        return AlgebraElement._from_raw(
            self.rank, {inverse(code): c for code, c in self._terms.items()}
        )

    def trace(self) -> Scalar:
        """Coefficient at the identity word, whose code is 1."""
        return self._terms.get(1, 0)

    def l2_norm_sq(self) -> Scalar:
        """Sum of squared coefficients; equals (self.adjoint() * self).trace()."""
        return sum(c * c for c in self._terms.values())


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product; its support may not exceed DEFAULT_PRODUCT_CAP.

    Works on word codes alone, so no word is built or hashed.  With B bits
    per letter, v's code is 1 << B|v| followed by its body, and when the
    last digit of u does not cancel the first digit of v (d cancels d ^ 1)
    the code of u v is code(u) << B|v| | body(v).  Most pairs take that
    path.  When exactly one digit pair cancels, the code joins u without
    its last digit to v's body without its first.  When more cancel, they
    are the common prefix of the bodies of u^-1 and v, which one XOR reads
    off in time linear in the length; u^-1 is built once per term of a
    that needs it.  Products land in the order of their first pair, as
    with a pass over the words.
    """
    _check_same_rank(a, b)
    bits = _digit_bits(a.rank)
    mask = (1 << bits) - 1
    inverse = _code_inverse(a.rank)
    acc: dict[Code, Scalar] = {}
    get = acc.get
    # Per term of b: B|v|, its body, its first digit, its coefficient, and
    # (B(|v|-1), the body without the first digit, the second digit).  -1
    # is never a digit, so it stands for "no such digit".
    right = []
    for cv, xv in b._terms.items():
        sv = cv.bit_length() - 1
        bv = cv ^ (1 << sv)
        first, cut = -1, None
        if sv:
            rest = sv - bits
            low = bv & ((1 << rest) - 1)
            first, cut = bv >> rest, (rest, low, low >> (rest - bits) if rest else -1)
        right.append((sv, bv, first, xv, cut))
    for cu, xu in a._terms.items():
        su = cu.bit_length() - 1
        # the digits that cancel u's last and second-to-last ones; -2 where
        # u has no such digit, which matches neither a digit nor -1
        bar = (cu & mask) ^ 1 if su else -2
        cu1 = cu >> bits
        bar2 = (cu1 & mask) ^ 1 if su > bits else -2
        iu = None  # the body of u^-1
        for sv, bv, first, xv, cut in right:
            if first != bar:
                w = cu << sv | bv
            elif cut[2] != bar2:
                w = cu1 << cut[0] | cut[1]
            else:
                if iu is None:
                    iu = inverse(cu) ^ (1 << su)
                span = min(su, sv)
                differ = (iu >> (su - span)) ^ (bv >> (sv - span))
                # the bits above differ's highest set bit agree; whole digits cancel
                s = (span - differ.bit_length()) // bits * bits
                rest = sv - s
                w = (cu >> s) << rest | (bv & ((1 << rest) - 1))
            acc[w] = get(w, 0) + xu * xv
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
    _check_same_rank(a, b)
    # Only matching words contribute, so skip the full convolution.
    small, large = (a, b) if a.support_size() <= b.support_size() else (b, a)
    return sum(c * large._terms.get(w, 0) for w, c in small._terms.items())


def w_n_explicit(k: int, n: int) -> AlgebraElement:
    """The sum of all reduced words of length n, materialized term by term."""
    return AlgebraElement._from_raw(k, dict.fromkeys(_sphere(k, n, keys=True), 1))


def format_element(a: AlgebraElement, letters: bool = False) -> str:
    """One '<rational> <word-text>' line per term, in canonical word order."""
    codes = sorted(a._terms)
    return "\n".join(
        f"{a._terms[code]} {format_word(w, letters=letters)}"
        for code, w in zip(codes, a._words(codes))
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
