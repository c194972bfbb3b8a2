"""Reduced words in the free group on k generators.

A letter is a nonzero integer: ``+i`` stands for the generator ``g_i`` and
``-i`` for its inverse, so inversion is negation and a pair of adjacent
letters cancels exactly when they sum to zero.  A word is reduced when no
such pair occurs.  The canonical letter order ``g1 < g1^-1 < g2 < g2^-1 <
...`` fixes a deterministic enumeration order for the sphere of radius n
in the Cayley graph, which is what makes table output reproducible byte
for byte.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import invert
from typing import Any, Callable, Iterable, Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 10_000_000

# Largest sphere, in words, that a run may hold in memory all at once
# (identities, verify).  Measured peak RSS on 64-bit CPython 3.11 runs
# 0.25-0.66 KB per word of the largest sphere held, the smaller spheres
# and the interpreter included (identities --k 2 --n-max 10 holds S_11,
# 236,196 words, and peaks at 102 MB; identities --k 3 --n-max 7 holds
# S_8, 468,750 words, and peaks at 172 MB; verify --k 3 --n-max 6 fills
# S_8 and peaks at 118 MB; verify --k 2 --n-max 8 fills S_10, 78,732
# words, and peaks at 52 MB), so this bounds such a run to about 330 MB.
HELD_SPHERE_CAP = 500_000

# The shorthand letters skip 'e', which always means the identity.
_ATOM_RE = re.compile(r"^(?:g(?P<index>[1-9][0-9]*)|(?P<letter>[a-df-z]))(?:\^(?P<exp>-?[0-9]+))?$")


class RankMismatchError(ValueError):
    """Words or elements over different ranks were combined."""


class CapExceededError(RuntimeError):
    """An enumeration or product would exceed its fixed size cap."""


class WordParseError(ValueError):
    """Input text does not conform to the word grammar."""


def all_letters(k: int) -> tuple[int, ...]:
    """The 2k letters in canonical order g1, g1^-1, g2, g2^-1, ..."""
    _check_rank(k)
    out: list[int] = []
    for i in range(1, k + 1):
        out.append(i)
        out.append(-i)
    return tuple(out)


def _check_rank(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"rank must be an integer >= 2, got {k!r}")


def _check_same_rank(a: Any, b: Any) -> None:
    """Refuse to combine two words or elements of different ranks."""
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")


def _check_level(n: object, name: str = "level") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")


def _check_letter(x: int, k: int) -> None:
    if not isinstance(x, int) or isinstance(x, bool) or x == 0 or abs(x) > k:
        raise ValueError(f"invalid letter {x!r} for rank {k}")


@dataclass(frozen=True, slots=True)
class ReducedWord:
    """A freely reduced word; the empty tuple is the identity e."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_rank(self.rank)
        prev = 0
        for x in self.letters:
            _check_letter(x, self.rank)
            if x == -prev:
                raise ValueError(f"letter sequence {self.letters!r} is not freely reduced")
            prev = x

    def __hash__(self) -> int:
        # hash(-1) == hash(-2) in CPython, so hashing the letters directly
        # cannot tell g1^-1 from g2^-1 and a sphere collapses into clusters
        # of 2^j words.  ~x is injective and never -1 for a nonzero letter,
        # so hashing the inverted letters keeps distinct words apart.
        return hash(tuple(map(invert, self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"ReducedWord({self.rank}, {format_word(self)!r})"

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> "ReducedWord":
        return _raw_word(self.rank, tuple(-x for x in reversed(self.letters)))

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return concat(self, other)[0]


# The slot descriptors of the frozen dataclass: setting through them skips
# its __setattr__ guard and the generic object.__setattr__ lookup.
_set_rank = ReducedWord.__dict__["rank"].__set__
_set_letters = ReducedWord.__dict__["letters"].__set__


# -- word codes ---------------------------------------------------------------
#
# Group-algebra elements store their terms under one int per word.  The
# code of a word of rank k is a leading 1 bit followed by
# B = (2k-1).bit_length() bits per letter, first letter first, where g_i
# is the digit 2(i-1) and g_i^-1 the digit 2(i-1)+1.  So the inverse of
# digit d is d ^ 1, the length is (code.bit_length() - 1) // B, a product
# without cancellation is (code(u) << B|v|) | (code(v) without its leading
# bit), and among words of one rank integer order is canonical order: by
# length, then letter by letter in the order g1 < g1^-1 < g2 < ...  Codes
# are built and read through one binary string, so both directions are
# linear in the length.


def _digit_bits(k: int) -> int:
    """Bits per letter in a word code of rank k."""
    return (2 * k - 1).bit_length()


def _letter_digits(k: int) -> dict[int, str]:
    """Each letter's digit, written with _digit_bits(k) binary digits."""
    bits = _digit_bits(k)
    return {x: format(d, f"0{bits}b") for d, x in enumerate(all_letters(k))}


def _encode(digits: dict[int, str], letters: Iterable[int]) -> int:
    """The code of a reduced letter sequence, given _letter_digits(k)."""
    return int("1" + "".join(map(digits.__getitem__, letters)), 2)


def _code_letters(k: int) -> Callable[[int], tuple[int, ...]]:
    """The letter tuple of a code of rank k; the table is built once per call.

    zip cuts one bin() string into tuples of B characters in C, and one
    table lookup per tuple gives the letter.
    """
    bits = _digit_bits(k)
    letter = {tuple(s): x for x, s in _letter_digits(k).items()}.__getitem__

    def letters(code: int) -> tuple[int, ...]:
        s = bin(code)[3:]  # bin() starts "0b1", and then the digits follow
        return tuple(map(letter, zip(*[iter(s)] * bits)))

    return letters


def _code_inverse(k: int) -> Callable[[int], int]:
    """The code of w^-1 from the code of w, for words of rank k; the table
    is built once per call.

    w^-1 reverses the digits of w and flips each one's low bit.  The
    reversed bin() string holds the digits last first, each with its own
    characters reversed, so one table lookup per digit undoes that and
    flips the digit.
    """
    bits = _digit_bits(k)
    flipped = {
        tuple(reversed(format(d, f"0{bits}b"))): format(d ^ 1, f"0{bits}b") for d in range(2 * k)
    }.__getitem__

    def inverse(code: int) -> int:
        s = bin(code)[:2:-1]  # the digits, last first, each reversed
        return int("1" + "".join(map(flipped, zip(*[iter(s)] * bits))), 2)

    return inverse


def word_code(w: ReducedWord) -> int:
    """The integer code of w; within one rank it determines the word."""
    return _encode(_letter_digits(w.rank), w.letters)


def _raw_word(rank: int, letters: tuple[int, ...]) -> ReducedWord:
    # Trusted constructor: callers guarantee reducedness, skipping validation.
    w = object.__new__(ReducedWord)
    _set_rank(w, rank)
    _set_letters(w, letters)
    return w


def reduce(seq: Sequence[int] | Iterable[int], k: int) -> ReducedWord:
    """Freely reduce a letter sequence to its unique reduced form."""
    _check_rank(k)
    stack: list[int] = []
    for x in seq:
        _check_letter(x, k)
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return _raw_word(k, tuple(stack))


def _cancelled_pairs(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of letter pairs that cancel where the reduced letter tuples a
    and b meet: the largest t with a[-1-i] == -b[i] for every i < t.

    Most pairs of words do not cancel at all, so the boundary letters are
    compared first and a mismatch returns 0 without entering the loop.
    """
    if not a or not b or a[-1] != -b[0]:
        return 0
    la, t = len(a), 1
    limit = min(la, len(b))
    while t < limit and a[la - 1 - t] == -b[t]:
        t += 1
    return t


def concat(u: ReducedWord, v: ReducedWord) -> tuple[ReducedWord, int]:
    """Product of reduced words, plus the number of cancelled pairs.

    The pairs come from _cancelled_pairs; the product is u with its last t
    letters dropped followed by v with its first t letters dropped.
    """
    _check_same_rank(u, v)
    a, b = u.letters, v.letters
    t = _cancelled_pairs(a, b)
    return _raw_word(u.rank, a[: len(a) - t] + b[t:]), t


def word_count(k: int, n: int) -> int:
    """Number of reduced words of length n: 1 for n=0, else 2k(2k-1)^(n-1)."""
    _check_rank(k)
    _check_level(n, "length")
    if n == 0:
        return 1
    return 2 * k * (2 * k - 1) ** (n - 1)


def check_sphere_cap(k: int, n: int) -> None:
    """Raise CapExceededError when the length-n sphere has more than
    DEFAULT_ENUMERATION_CAP words."""
    total = word_count(k, n)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(
            f"enumerating {total} words of length {n} (rank {k}) "
            f"exceeds cap {DEFAULT_ENUMERATION_CAP}"
        )


def check_held_sphere(k: int, n: int) -> None:
    """Raise CapExceededError when the length-n sphere is too large to
    hold in memory: past DEFAULT_ENUMERATION_CAP or HELD_SPHERE_CAP words."""
    check_sphere_cap(k, n)
    total = word_count(k, n)
    if total > HELD_SPHERE_CAP:
        raise CapExceededError(
            f"holding {total} words of length {n} (rank {k}) in memory "
            f"exceeds cap {HELD_SPHERE_CAP}"
        )


def _reduced_tuples(order: tuple[int, ...], length: int) -> list[tuple[int, ...]]:
    """Every reduced letter tuple of the given length >= 1, built level by
    level in lexicographic order under the letter order `order`."""
    successors = {p: tuple(x for x in order if x != -p) for p in order}
    level = [(x,) for x in order]
    for _ in range(length - 1):
        level = [t + (x,) for t in level for x in successors[t[-1]]]
    return level


def _sphere_runs(
    k: int, n: int, keys: bool = False
) -> Iterator[tuple[Any, list[Any]]]:
    """The length-n sphere as runs (head, tails): the words of a run are
    head + tail for each tail in order, and the runs come in canonical
    order.  Heads and tails are letter tuples; with keys=True a head is a
    word code shifted past its tails and a tail is a code without its
    leading bit, so head + tail is the word_code of the same word.

    The order is lexicographic position by position under the canonical
    letter order, so repeated runs produce identical streams.  Raises
    CapExceededError up front when the sphere size exceeds the cap.

    For n >= 2 each word is a head (its first n - n//2 letters) followed by
    a tail (its last n//2 letters).  Both lists are built once, in
    lexicographic order, and the tails are grouped by the last head letter
    they may follow, so every word costs one tuple concatenation or one
    int addition.  Heads and tails number O(sqrt(|S_n|)) each, and so does
    the memory held; each is encoded once.
    """
    check_sphere_cap(k, n)
    if n == 0:
        yield (1, [0]) if keys else ((), [()])
        return
    order = all_letters(k)
    if n == 1:
        yield (1 << _digit_bits(k), list(range(2 * k))) if keys else ((), [(x,) for x in order])
        return
    tails = _reduced_tuples(order, n // 2)
    ends: list[Any] = tails
    if keys:
        digits, shift = _letter_digits(k), _digit_bits(k) * (n // 2)
        ends = [_encode(digits, t) ^ (1 << shift) for t in tails]
    # A head ending in p takes every tail that does not start with -p.
    tails_after = {p: [e for t, e in zip(tails, ends) if t[0] != -p] for p in order}
    for head in _reduced_tuples(order, n - n // 2):
        yield (_encode(digits, head) << shift if keys else head), tails_after[head[-1]]


def _sphere(k: int, n: int, keys: bool = False) -> Iterator[Any]:
    """The letter tuples (or with keys=True the word codes) of the
    length-n sphere in canonical order, joined from _sphere_runs."""
    for head, tails in _sphere_runs(k, n, keys):
        yield from map(head.__add__, tails)


def enumerate_words(k: int, n: int) -> Iterator[ReducedWord]:
    """Yield every reduced word of length n once, in canonical order.

    The words are joined from _sphere_runs, so repeated runs produce
    identical streams.  Raises CapExceededError up front when the sphere
    size exceeds the cap.
    """
    for head, tails in _sphere_runs(k, n):
        for tail in tails:
            yield _raw_word(k, head + tail)


def _letter_name(index: int, letters: bool) -> str:
    # 'e' always means the identity, so generator 5 keeps its gI spelling
    # even in shorthand mode.
    if letters and index <= 26 and index != 5:
        return chr(ord("a") + index - 1)
    return f"g{index}"


def format_word(w: ReducedWord, letters: bool = False) -> str:
    """Render a word in the grammar accepted by parse_word."""
    if not w.letters:
        return "e"
    parts: list[str] = []
    for letter, run in itertools.groupby(w.letters):
        count = sum(1 for _ in run)
        exp = count if letter > 0 else -count
        name = _letter_name(abs(letter), letters)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def parse_word(text: str, k: int, letters: bool = False) -> ReducedWord:
    """Parse whitespace-separated atoms gI, gI^E, or e; reduces the result.

    With letters=True the shorthand a, b, c, ... maps to g1, g2, g3, ...
    ('e' stays the identity).  Exponents are nonzero integers; negative
    exponents denote inverses.
    """
    _check_rank(k)
    tokens = text.split()
    if not tokens:
        raise WordParseError("empty word text (use 'e' for the identity)")
    seq: list[int] = []
    for tok in tokens:
        if tok == "e":
            continue
        m = _ATOM_RE.match(tok)
        if m is None:
            raise WordParseError(f"bad atom {tok!r}")
        if m.group("index") is not None:
            index = int(m.group("index"))
        else:
            if not letters:
                raise WordParseError(
                    f"letter shorthand {tok!r} requires the letters flag"
                )
            index = ord(m.group("letter")) - ord("a") + 1
        if index > k:
            raise WordParseError(f"generator g{index} out of range for rank {k}")
        exp = int(m.group("exp")) if m.group("exp") is not None else 1
        if exp == 0:
            raise WordParseError(f"zero exponent in {tok!r}")
        if len(seq) + abs(exp) > DEFAULT_ENUMERATION_CAP:
            raise WordParseError(f"word text expands past the {DEFAULT_ENUMERATION_CAP}-letter cap")
        seq.extend([index if exp > 0 else -index] * abs(exp))
    return reduce(seq, k)
