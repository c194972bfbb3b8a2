"""The radial subalgebra: the span of the level sums w_n.

w_n is the sum of all reduced words of length n, and the w_n are pairwise
orthogonal under the trace inner product, so an element of the subalgebra
is just a coefficient vector.  Products come from the linearization
formula for radial functions on F_k (see radial_mul); its degree-one case
is the rule w_1 w_n = w_{n+1} + (2k-1) w_{n-1} (with w_1^2 = w_2 + 2k w_0
at the bottom), which verify checks by explicit convolution.  Conditional
expectation onto the subalgebra averages an element over each sphere.
The deviation machinery measures how far that expectation is from being
multiplicative across a sandwich x * w_n * y, entirely in exact rationals:
every quantity here is kept squared so that no square roots ever enter.
The words of the sandwich are counted in counting.sandwich_counts.  Past
n = |x| + |y| the deviation needs no count and no product of level sums:
the leading parts of the two sides cancel term by term, and what is left
is one small integer per t from counting's pair statistics (the proof is
in deviation's docstring).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count, repeat
from numbers import Rational
from typing import Iterable

from . import counting
from .algebra import AlgebraElement, Scalar, _check_scalar
from .words import (
    ReducedWord, word_count, _check_level, _check_rank, _check_same_rank, _digit_bits, _sphere,
)


class RadialElement:
    """Coefficient vector over the orthogonal basis {w_n}, zeros trimmed."""

    __slots__ = ("rank", "coeffs")

    def __init__(self, rank: int, coeffs: Iterable[Scalar] = ()) -> None:
        _check_rank(rank)
        vec = list(coeffs)
        for c in vec:
            _check_scalar(c)
        while vec and vec[-1] == 0:
            vec.pop()
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coeffs", tuple(vec))

    @classmethod
    def _trusted(cls, rank: int, vec: list[Scalar]) -> "RadialElement":
        """Wrap coefficients the library computed itself (exact int or
        Fraction, rank already checked): trailing zeros are trimmed, and no
        coefficient is checked, so the cost is O(1) Python steps beyond
        the trimming plus one C-level tuple copy."""
        while vec and vec[-1] == 0:
            vec.pop()
        el = object.__new__(cls)
        object.__setattr__(el, "rank", rank)
        object.__setattr__(el, "coeffs", tuple(vec))
        return el

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadialElement is immutable")

    @classmethod
    def zero(cls, rank: int) -> "RadialElement":
        return cls(rank)

    @classmethod
    def basis(cls, rank: int, n: int) -> "RadialElement":
        """The basis vector w_n."""
        _check_level(n, "degree")
        return cls(rank, (0,) * n + (1,))

    @property
    def degree(self) -> int:
        """Largest n with a nonzero coefficient; -1 for the zero element."""
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Scalar:
        _check_level(n, "degree")
        return self.coeffs[n] if n < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadialElement):
            return NotImplemented
        return self.rank == other.rank and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.rank, self.coeffs))

    def __repr__(self) -> str:
        return f"RadialElement({self.rank}, {list(self.coeffs)})"

    def __add__(self, other: "RadialElement") -> "RadialElement":
        if not isinstance(other, RadialElement):
            return NotImplemented
        _check_same_rank(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RadialElement(self.rank, (self.coeff(i) + other.coeff(i) for i in range(n)))

    def __neg__(self) -> "RadialElement":
        return RadialElement(self.rank, (-c for c in self.coeffs))

    def __sub__(self, other: "RadialElement") -> "RadialElement":
        if not isinstance(other, RadialElement):
            return NotImplemented
        return self + (-other)

    def scalar_mul(self, c: Scalar) -> "RadialElement":
        _check_scalar(c)
        return RadialElement(self.rank, (c * x for x in self.coeffs))

    def __mul__(self, other: object) -> "RadialElement":
        if isinstance(other, RadialElement):
            return radial_mul(self, other)
        if isinstance(other, Rational) and not isinstance(other, bool):
            return self.scalar_mul(other)  # type: ignore[arg-type]
        return NotImplemented

    __rmul__ = __mul__  # called only when the left operand has another type

    def norm_sq(self) -> Scalar:
        """Squared trace norm: sum of c_n^2 times the sphere size."""
        return sum(c * c * word_count(self.rank, n) for n, c in enumerate(self.coeffs) if c)

    def embed(self) -> AlgebraElement:
        """Materialize as a full group-algebra element; each sphere it
        enumerates must fit DEFAULT_ENUMERATION_CAP.

        The spheres are disjoint, so one pass writes the code of each word
        of each sphere with a nonzero coefficient straight into a single
        dict; no word is built.
        """
        terms: dict[int, Scalar] = {}
        for n, c in enumerate(self.coeffs):
            if c:
                terms.update(zip(_sphere(self.rank, n, keys=True), repeat(c)))
        return AlgebraElement._from_raw(self.rank, terms)


def radial_mul(a: RadialElement, b: RadialElement) -> RadialElement:
    """Product in the radial subalgebra, by the linearization formula.

    For m <= n and q = 2k-1 (Pytlik; Figa-Talamanca and Picardello),

        w_m w_n = w_{m+n} + sum_{t=1}^{m-1} (q-1) q^(t-1) w_{m+n-2t} + c w_{n-m},

    with c = q^m for m < n, c = 2k q^(m-1) for m = n, and w_0 the unit.
    Every structure constant is an integer, so _linearize multiplies
    integer lists.  All-int factors go to it as they are.  Otherwise each
    factor is scaled once to integer coefficients over the least common
    multiple of its denominators, and each output coefficient is divided
    by the product of the two scales once.  When no nonzero input
    coefficient is a Fraction the output stays int.

    _linearize picks its method from what it sees in the factors.  When
    the pairs of nonzero coefficients outnumber both the output degrees
    and the bytes of the packed product (dense factors) it packs each
    family of sums into big ints by Kronecker substitution and makes them
    with two C-level multiplications and O(deg a + deg b) Python steps; at
    degree 120 by 120 that is six to nine times faster than the pair loop.
    Otherwise (sparse factors, such as every product of basis vectors) it
    visits each pair of nonzero coefficients once, which packing thousands
    of empty slots could not beat: w_5000 w_5000 is one pair.
    """
    _check_same_rank(a, b)
    k = a.rank
    if not a or not b:
        return RadialElement.zero(k)
    if set(map(type, a.coeffs)) | set(map(type, b.coeffs)) == {int}:
        return RadialElement._trusted(k, _linearize(k, list(a.coeffs), list(b.coeffs)))
    (ua, da), (ub, db) = _cleared(a.coeffs), _cleared(b.coeffs)
    out: list[Scalar] = _linearize(k, ua, ub)
    if any(c and type(c) is not int for c in a.coeffs + b.coeffs):
        den = da * db
        out = [Fraction(c, den) for c in out]
    return RadialElement._trusted(k, out)


def _cleared(coeffs: tuple[Scalar, ...]) -> tuple[list[int], int]:
    """Integer numerators over the least common multiple of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _linearize(k: int, a: list[int], b: list[int]) -> list[int]:
    """Integer coefficients of (sum a_i w_i)(sum b_j w_j), by radial_mul's formula.

    Both methods give the same list.  The pair loop (_linearize_pairs)
    costs one Python step per pair of nonzero coefficients, plus one per
    degree its runs span.  The packed method (_linearize_packed) costs
    O(len(a) + len(b)) Python steps and two big-int multiplications,
    however many entries are zero; the wider one spans len(a) + len(b) - 1
    slots of about min(len(a), len(b)) log2(2k-1) bits each.  So the
    packed method runs exactly when the pairs, nnz(a) nnz(b), outnumber
    both the output degrees and the bytes of that product.  A product
    with a basis vector never does, so deviation, the identity side of
    expect_xwny and the verify oracles keep the pair loop, and so do long
    sparse factors: packed, w_5000 w_5000 would be two products of 5,000
    wide slots in place of one pair, and at k = 2 a length-1,001 factor
    with three nonzero entries times a dense one would fill 2,001 slots
    of about 250 bytes for 3,003 pairs.
    """
    size, slot_bits = len(a) + len(b) - 1, min(len(a), len(b)) * (2 * k - 1).bit_length()
    if 8 * (len(a) - a.count(0)) * (len(b) - b.count(0)) > size * max(8, slot_bits):
        return _linearize_packed(k, a, b)
    return _linearize_pairs(k, a, b)


def _linearize_pairs(k: int, a: list[int], b: list[int]) -> list[int]:
    """_linearize by one step per pair of nonzero coefficients.

    Each pair adds its top and end terms at once.  Its middle terms form
    a geometric run down one parity class, so the pair records only where
    the run starts (weight 1 at m+n-2) and where it stops (weight q^(m-1)
    at n-m); _add_runs then sums every run.

    The nonzero entries of a and b are found by itertools.compress, so
    Python-level work grows with the pairs of nonzero coefficients and
    the span of the runs, not with the lengths of the lists: w_a w_b w_n
    for small a, b and large n costs O(a + b) such steps.
    """
    q = 2 * k - 1
    powers = [1]
    for _ in range(min(len(a), len(b)) - 1):
        powers.append(powers[-1] * q)
    size = len(a) + len(b) - 1
    out = [0] * size
    tail = [0] * size
    bs = list(zip(compress(count(), b), filter(None, b)))
    for i, ci in zip(compress(count(), a), filter(None, a)):
        for j, cj in bs:
            scale = ci * cj
            m, n = (i, j) if i <= j else (j, i)
            out[m + n] += scale
            if m == 0:
                continue
            out[n - m] += scale * (2 * k * powers[m - 1] if m == n else powers[m])
            if m > 1:
                tail[m + n - 2] += scale
                tail[n - m] -= scale * powers[m - 1]
    _add_runs(q, out, tail)
    return out


def _linearize_packed(k: int, a: list[int], b: list[int]) -> list[int]:
    """_linearize by two Kronecker-substituted products (see _pack).

    The pair (i, j), with m = min(i, j), n = max(i, j) and scale a_i b_j,
    adds scale at m+n; for m >= 1 it adds scale q^m at n-m (2k q^(m-1) =
    (q+1)/q q^m when m = n), and its run of middle terms starts at m+n-2
    with weight 1 and stops at n-m with weight q^(m-1), as in the pair
    loop.  Summed over all pairs these are four families:

    - top: conv(a, b), one product.
    - bottom: at d >= 1, C1[d] + C2[d] with C1[d] = sum_{i>=1} a_i q^i
      b_{i+d} and C2[d] = sum_{j>=1} b_j q^j a_{j+d}; at d = 0,
      (q+1)/q C1[0].  Let s be the shorter factor and l the longer, with
      s_0 and l_0 set to 0.  One product of sum_i s_i q^i X^i by
      sum_j l_j X^-j holds the correlation of s_i q^i with l at X^-d for
      d >= 0, and at X^e, e >= 1, it holds sum_j l_j s_{j+e} q^(j+e),
      which is q^e times the other correlation.  Packed with the powers
      on the shorter factor, its slots need only about len(s) log2 q bits.
    - run starts: conv(a[1:], b[1:]) at i+j-2.  The pairs with m = 0 add
      only their top term, so this is conv(a, b) less the row a_0 b and
      the column b_0 a.
    - run stops: bottom[d] / q at d >= 1 and C1[0] / q at d = 0, since
      a pair with m >= 1 stops its run at n-m with weight scale q^(m-1).
      A pair with m = 1 starts and stops at the same degree and cancels.

    Every correlation term with i, j >= 1 is a multiple of q, so all the
    divisions are exact.  Python-level steps are O(len(a) + len(b)), in
    packing, unpacking and _add_runs.
    """
    q = 2 * k - 1
    la, lb = len(a), len(b)
    size = la + lb - 1
    w = _slot_bytes(min(la, lb), a, b)
    top = _unpack(_pack(a, w) * _pack(b, w), w, size)
    shorter, longer = (a, b) if la <= lb else (b, a)
    short = len(shorter)
    powers, weighted = [1] * short, [0] * short
    for i in range(1, short):
        powers[i] = powers[i - 1] * q
        weighted[i] = shorter[i] * powers[i]
    weighted.reverse()
    longer = [0, *longer[1:]]
    w = _slot_bytes(short, weighted, longer)
    # slot short-1+d holds the correlation at d, slot short-1-e its mirror
    both = _unpack(_pack(weighted, w) * _pack(longer, w), w, size)
    bottom = both[short - 1:]
    for e in range(1, short):
        bottom[e] += both[short - 1 - e] // powers[e]
    out = [t + c for t, c in zip(top, bottom + [0] * (size - len(bottom)))]
    out[0] += bottom[0] // q
    a0, b0 = a[0], b[0]
    tail = [t - a0 * y - b0 * x
            for t, x, y in zip(top[2:], a[2:] + [0] * (size - la), b[2:] + [0] * (size - lb))]
    tail += [0] * (size - len(tail))
    for d, c in enumerate(bottom):
        tail[d] -= c // q
    _add_runs(q, out, tail)
    return out


def _slot_bytes(terms: int, x: list[int], y: list[int]) -> int:
    """Bytes per slot for sums of at most `terms` products x_i y_j: the
    bits of terms max|x| max|y|, plus a sign bit."""
    bits = (max(max(x), -min(x)).bit_length() + max(max(y), -min(y)).bit_length()
            + terms.bit_length() + 1)
    return (bits + 7) // 8


def _pack(v: list[int], w: int) -> int:
    """Kronecker substitution (Harvey 2009): sum_s v[s] 2^(8ws), so that the
    product of two packed lists holds their convolution, one sum per
    w-byte slot, as long as every sum fits a signed slot.

    Each entry is written as its value plus half = 2^(8w-1), which is
    never negative, and the biases are then taken back out of the int.
    """
    half = 1 << (8 * w - 1)
    raw = b"".join([(c + half).to_bytes(w, "little") for c in v])
    return int.from_bytes(raw, "little") - _biases(w, len(v))


def _unpack(z: int, w: int, slots: int) -> list[int]:
    """The signed w-byte slots 0..slots-1 of z, the inverse of _pack.

    Adding half to every slot makes each slot its value plus half, in
    [0, 2^(8w)), with no borrow between slots, so each slot reads back
    as an unsigned int less half.
    """
    half, from_bytes = 1 << (8 * w - 1), int.from_bytes
    raw = (z + _biases(w, slots)).to_bytes(w * slots, "little")
    return [from_bytes(raw[s:s + w], "little") - half for s in range(0, w * slots, w)]


def _biases(w: int, slots: int) -> int:
    """half = 2^(8w-1) in each of `slots` w-byte slots."""
    return int.from_bytes((b"\0" * (w - 1) + b"\x80") * slots, "little")


def _add_runs(q: int, out: list[int], tail: list[int]) -> None:
    """Add every geometric run of middle terms into out.

    tail holds +scale where a run starts and -scale q^(m-1) one step of
    2 below its last term, each run stepping down by 2 with ratio q; one
    downward pass h <- q h + tail[d] per parity sums them all, and
    degree d receives (q-1) h.  h is zero above the highest and below the
    lowest nonzero tail entry, so the pass spans only those.
    """
    marks = list(compress(range(len(tail)), tail))
    if marks:
        h = [0, 0]
        for d in range(marks[-1], marks[0] - 1, -1):
            h[d % 2] = q * h[d % 2] + tail[d]
            out[d] += (q - 1) * h[d % 2]


def _unit(n: int) -> list[int]:
    """Integer coefficients of w_n."""
    return [0] * n + [1]


def _modular_side(k: int, ell: int, m: int, n: int) -> tuple[list[int], int]:
    """The integer coefficients of w_l w_m w_n and P = S_l S_m, so that
    E(x) E(y) w_n = w_l w_m w_n / P for words x, y of lengths l, m: one
    _linearize pair loop on basis vectors after another."""
    product = _linearize(k, _linearize(k, _unit(ell), _unit(m)), _unit(n))
    return product, word_count(k, ell) * word_count(k, m)


def expect(x: AlgebraElement) -> RadialElement:
    """Conditional expectation: average the coefficients over each sphere.

    A word's length is read off its code, whose bit length is one more
    than B bits per letter.
    """
    by_bits: dict[int, Scalar] = {}
    for code, c in x._terms.items():
        size = code.bit_length()
        by_bits[size] = by_bits.get(size, 0) + c
    bits = _digit_bits(x.rank)
    return _sphere_average(x.rank, {(size - 1) // bits: c for size, c in by_bits.items()})


def _sphere_average(k: int, sums: dict[int, Scalar]) -> RadialElement:
    """The radial element with sums[n] / |sphere_n| at each level n in sums."""
    if not sums:
        return RadialElement.zero(k)
    # Only occupied spheres need their size: (2k-1)^(n-1) at every empty
    # level below a long word would cost time quadratic in its length.
    # Every empty level shares one Fraction(0).
    vec: list[Scalar] = [Fraction(0)] * (max(sums) + 1)
    for n, c in sums.items():
        vec[n] = Fraction(c, word_count(k, n))
    return RadialElement._trusted(k, vec)


def expect_xwny(x: ReducedWord, y: ReducedWord, n: int) -> RadialElement:
    """Expectation of x * w_n * y, for every pair of words and every n >= 0.

    The level is checked first, then the ranks.  E is bimodular over the
    radial subalgebra, so when x or y is the identity this is
    E(x) w_n E(y) = w_l w_n w_m / (S_l S_m) with l = |x|, m = |y| and S_d
    the sphere sizes (S_0 = 1): the integer side from _modular_side, which
    deviation reads too, then one Fraction per nonzero degree, of which
    there are at most 2 min(l + m, n) + 1.  The other degrees share one
    Fraction(0), as in _sphere_average: E(x) and E(y) carry Fraction
    zeros, so every coefficient of the product is a Fraction.

    Otherwise the words of x * w_n * y of reduced length d each expect to
    w_d / |sphere_d|, so degree d carries count_d / |sphere_d| with the
    counts of counting.sandwich_counts; no product of level sums is taken.
    """
    _check_level(n)
    _check_same_rank(x, y)
    k = x.rank
    if len(x) == 0 or len(y) == 0:
        product, p = _modular_side(k, len(x), len(y), n)
        out: list[Scalar] = [Fraction(0)] * len(product)
        for d in compress(range(len(product)), product):
            out[d] = Fraction(product[d], p)
        return RadialElement._trusted(k, out)
    counts = counting.sandwich_counts(x, y, n)
    top = max(counts)
    # At most |x| + |y| + 1 degrees are keys, and every other degree is the
    # int 0.  S_d = S_top / q^(top-d) for d >= 1, as in deviation, so S_top
    # is the only power of q with about n digits.
    q, s_top = 2 * k - 1, word_count(k, top)
    vec: list[Scalar] = [0] * (top + 1)
    for d, c in counts.items():
        vec[d] = Fraction(c, s_top // q ** (top - d) if d else 1)
    return RadialElement._trusted(k, vec)


def deviation(x: ReducedWord, y: ReducedWord, n: int) -> Scalar:
    """Squared deviation from multiplicativity at level n.

    Returns ||E(x w_n y) - E(x) E(y) w_n||^2 as an exact rational: the
    int 0 when the two sides agree, as the norm of a zero element is, and
    otherwise one Fraction.  The level must be an int >= 0, checked
    first, then the ranks; then an identity on either side short-circuits
    to zero by modularity.

    With l = |x|, m = |y|, S_d the sphere sizes, P = S_l S_m and
    q = 2k-1:

    - E(x w_n y) = sum_d count_d w_d / S_d, with count_d from
      counting.sandwich_counts.
    - E(x) E(y) w_n = w_l w_m w_n / P, and w_l w_m w_n = sum_d c_d w_d
      has integer coefficients (radial_mul's formula).
    - The w_d are orthogonal with ||w_d||^2 = S_d, so

          deviation = sum_d (count_d P - c_d S_d)^2 / (S_d P^2).

    Both sides live on the degrees d = top - 2t, top = l + m + n and
    0 <= t <= l + m, since every cancelling pair holds a letter of x or y.

    Past n = l + m no middle word is swallowed whole, and every (r, s)
    cell with r + s = t keeps a middle of length n - t >= 1, so the cells
    of one t sum to one closed form (counting._cell_closed_form):

        2k count_t = ST_t q^(n-t-1) + R_t(n),

    where (ST_t, E_t, I_t) are the per-t sums of counting._pair_stats
    and R_t(n) = (-1)^(n-t) (ST_t - k(E_t+I_t)) + k(E_t - I_t) is
    counting._cell_offset.  ST_t depends on k, l and m alone: the
    boundary sets exclude 1, 2, ..., 2, 1 letters as r runs over 0..l,
    whatever the letters are.  Now sum over x in S_l and y in S_m.  The
    sandwiches x w_n y add up to w_l w_n w_m, so sum_{x,y} count_t =
    c_d S_d with d = top - 2t, and

        2k c_d S_d = P ST_t q^(n-t-1) + sum_{x,y} R_t(n).

    The coefficient c_d is the same at every n > l + m: w_l w_m is a sum
    of w_j with j <= l + m < n, and the coefficient of w_(n+j-2s) in
    w_j w_n depends on j and s alone.  With S_d = 2k q^(d-1) the left
    side is a constant times q^n, and the right side is P ST_t q^(n-t-1)
    plus a sum that takes one value per parity of n.  So their
    difference, a constant times q^n (q >= 3), is bounded over every
    n > l + m of one parity, hence zero, and then the sum is zero too:

        c_d S_d = P ST_t q^(n-t-1) / 2k,   sum_{x,y} R_t(n) = 0.

    So count_t P - c_d S_d = P R_t(n) / 2k: the leading parts cancel term
    by term, and with S_d = S_top / q^(2t) (d >= 1 here)

        deviation = sum_t R_t(n)^2 q^(2t) / (4k^2 S_top).

    R_t(n) depends on n only through its parity, so the numerator takes
    two values, which counting._pair_stats stores next to the statistics
    as sums[0] and sums[1], one Horner pass in q^2 each when the pair is
    first seen.  With 4k^2 S_top = 8k^3 q^(top-1), a level past l + m is
    one lookup, one power of q and one Fraction: no count, no offset, no
    loop and no product of level sums.  tests/test_radial.py checks both
    steps of the proof on their own.

    At n <= l + m the loop below walks the degrees top - 2t downward,
    with count_d from sandwich_counts, and c_d and P from _modular_side,
    the integer side that expect_xwny divides out when x or y is the
    identity.  Over the common denominator S_top P^2, term d is scaled by
    S_top / S_d, which is q^(top-d) for d >= 1 and S_top for d = 0.  The
    per-t cell statistics are cached per pair of words
    (counting._pair_stats, the 8 pairs used last), so a series over n
    fills them once.
    """
    _check_level(n)
    _check_same_rank(x, y)
    if len(x) == 0 or len(y) == 0:
        return 0
    k, ell, m = x.rank, len(x), len(y)
    q, top = 2 * k - 1, ell + m + n
    if n > ell + m:
        _, sums = counting._pair_stats(k, x.letters, y.letters)
        total = sums[n % 2]
        return Fraction(total, 8 * k ** 3 * q ** (top - 1)) if total else 0
    s_top, step = word_count(k, top), q * q
    counts = counting.sandwich_counts(x, y, n)
    product, p = _modular_side(k, ell, m, n)
    total, scale, size = 0, 1, s_top
    # c is the coefficient c_d at d = top - 2t
    for t, c in enumerate(product[top::-2]):
        d = top - 2 * t
        if d == 0:
            scale, size = s_top, 1
        count_d = counts.get(d, 0)
        if count_d or c:
            total += (count_d * p - c * size) ** 2 * scale
        scale *= step
        size //= step
    return Fraction(total, s_top * p * p) if total else 0


def deviation_bound(ell: int, m: int, k: int) -> Fraction:
    """Squared level-independent bound H^2 with H = (l+1)(m+1) D_k (2k-1)^((l+m)/2).

    Returned squared so the value stays rational when l+m is odd.  The
    bound certifies deviation * sphere_size <= H^2 for n >= l + m + 2
    (for l = 0 or m = 0 the deviation vanishes and any bound holds).
    """
    _check_rank(k)
    _check_level(ell, "word length")
    _check_level(m, "word length")
    d = counting.constant_D(k)
    return ((ell + 1) * (m + 1) * d) ** 2 * (2 * k - 1) ** (ell + m)


def partial_sum_criterion(x: ReducedWord, y: ReducedWord, n_max: int) -> list[Fraction]:
    """Partial sums S_0..S_N of the normalized squared deviations.

    Term n is deviation(x, y, n) / |sphere_n|, i.e. the squared deviation
    along the unit vector w_n / ||w_n||.  Summability of the full series
    is what makes the expectation asymptotically multiplicative; here the
    finite partial sums are produced exactly.
    """
    _check_level(n_max, "n_max")
    sums: list[Fraction] = []
    total = Fraction(0)
    for n in range(n_max + 1):
        total += Fraction(deviation(x, y, n), word_count(x.rank, n))
        sums.append(total)
    return sums
