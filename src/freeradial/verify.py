"""Brute-force oracles and the cross-check suite.

The oracles work by enumeration, explicit convolution and letter-by-letter
cancellation only; none of them touches the recurrence or counting
shortcuts whose outputs they certify, so agreement between the two routes
is meaningful evidence.
Every check compares exact values -- there are no tolerances anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from . import counting, freeproduct, radial
from .algebra import AlgebraElement, Scalar, mul, w_n_explicit
from .radial import RadialElement
from .words import (
    ReducedWord,
    _cancelled_pairs,
    _check_level,
    _check_rank,
    _check_same_rank,
    _code_letters,
    _digit_bits,
    _sphere,
    check_held_sphere,
    enumerate_words,
    format_word,
    word_count,
)

# Nothing is kept between calls.  A check that revisits a sphere shares it
# in a local dict for the length of that one call.

# The largest top sphere S_2d of check_radial_products' degrees.
_RADIAL_PRODUCTS_SPHERE_LIMIT = 100_000

# The levels of the count-table checks; the longest outer word of the sandwich checks.
_COUNT_TABLE_N_MAX = 30
_OUTER_LEN_MAX = 2

# Sphere word counts by (first letters, last letters); see _sphere_cells.
_Cells = dict[tuple[tuple[int, ...], tuple[int, ...]], int]


def _sphere_cells(k: int, n: int, head: int, tail: int) -> _Cells:
    """Words of the length-n sphere counted by (first `head` letters, last
    `tail` letters), the cells in order of first occurrence in enumeration.
    The letter tuples come from the enumerator behind enumerate_words, and
    no word is built."""
    cells: _Cells = {}
    cut = max(n - tail, 0)
    for u in _sphere(k, n):
        cell = (u[:head], u[cut:])
        cells[cell] = cells.get(cell, 0) + 1
    return cells


@dataclass
class VerificationReport:
    """One cross-check outcome; passes exactly when expected == actual."""

    check: str
    params: tuple
    expected: Any
    actual: Any

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "params": [str(p) for p in self.params],
            "expected": str(self.expected),
            "actual": str(self.actual),
            "passed": self.passed,
        }

    def __str__(self) -> str:
        tag = "ok " if self.passed else "FAIL"
        detail = " ".join(str(p) for p in self.params)
        if self.passed:
            return f"{tag} {self.check} [{detail}]"
        return f"{tag} {self.check} [{detail}] expected={self.expected} actual={self.actual}"


# -- oracles ------------------------------------------------------------------


def oracle_expect(x: ReducedWord, y: ReducedWord, n: int) -> RadialElement:
    """Expectation of x * w_n * y the slow way: materialize and convolve."""
    _check_same_rank(x, y)
    return _expect_times(mul(AlgebraElement.from_word(x), w_n_explicit(x.rank, n)), y)


def _expect_times(left: AlgebraElement, y: ReducedWord) -> RadialElement:
    """E(left * y), with left * y by explicit convolution."""
    return radial.expect(mul(left, AlgebraElement.from_word(y)))


def oracle_nu_sets(
    k: int, sigma: frozenset[int] | set[int], tau: frozenset[int] | set[int], n: int
) -> int:
    """Count length-n words with first letter in sigma and last in tau, by
    enumeration: the (first letter, last letter) sphere histogram."""
    if n < 1:
        raise ValueError(f"oracle_nu_sets needs n >= 1, got {n}")
    cells = _sphere_cells(k, n, 1, 1)
    return sum(c for ((a,), (b,)), c in cells.items() if a in sigma and b in tau)


def oracle_abc(k: int, n: int) -> tuple[int, int, int]:
    """(alpha, beta, gamma) at length n >= 1: words with first letter g1 and
    last letter g2, g1 and g1^-1, read from one sphere histogram."""
    cells = _sphere_cells(k, n, 1, 1)
    return tuple(cells.get(((1,), (last,)), 0) for last in (2, 1, -1))


def oracle_mu_table(x: ReducedWord, y: ReducedWord, n: int) -> dict[tuple[int, int], int]:
    """Histogram of exact (left, right) cancellation counts of x * u * y
    over all words u of length n.

    The two boundary counts are the letter pairs that cancel where x meets
    u and where u meets y, compared letter by letter (words._cancelled_pairs,
    the loop inside concat); they describe the sandwich faithfully whenever
    n >= |x| + |y|, which keeps the two cancellation zones from touching.
    The count r of x*u depends only on the first |x| letters of u, and s of
    u*y only on the last |y| letters, so each cell of the shared sphere
    histogram is compared once and weighted by its size.  Keys appear in
    the order of their first word in enumeration, as a per-word pass would
    give.
    """
    return _mu_from_cells(x, y, _sphere_cells(x.rank, n, len(x), len(y)))


def _mu_from_cells(x: ReducedWord, y: ReducedWord, cells: _Cells) -> dict[tuple[int, int], int]:
    """The (r, s) histogram of oracle_mu_table from the sphere histogram
    _sphere_cells(k, n, |x|, |y|).  The cell keys are slices of enumerated
    words, so their letter tuples are compared as they are, with no word
    built or validated per cell."""
    a, b = x.letters, y.letters
    table: dict[tuple[int, int], int] = {}
    for (head, tail), count in cells.items():
        key = (_cancelled_pairs(a, head), _cancelled_pairs(tail, b))
        table[key] = table.get(key, 0) + count
    return table


def oracle_chi_n(
    x: freeproduct.FPWord, y: freeproduct.FPWord, n: int, cfg: freeproduct.FPConfig
) -> list[ReducedWord]:
    """Members of chi_n the slow way: every word u of the length-n sphere,
    in canonical order, for which the reduced x * u * y embeds in F_k,
    i.e. each of its syllables is a run (tested one by one, not through
    the membership test of the fast path)."""
    members = []
    for u in enumerate_words(cfg.rank, n):
        emb = freeproduct.embed_fk_word(u, cfg)
        z = freeproduct.fp_reduce(x.syllables + emb.syllables + y.syllables, cfg)
        if all(freeproduct._run(syllable, cfg) is not None for syllable in z.syllables):
            members.append(u)
    return members


# -- individual checks --------------------------------------------------------


def check_word_counts(k: int, n_max: int) -> list[VerificationReport]:
    """Sphere sizes: enumeration count and distinctness against the formula."""
    out = []
    for n in range(n_max + 1):
        seen = set(enumerate_words(k, n))
        out.append(VerificationReport("word_count", (k, n), word_count(k, n), len(seen)))
    return out


def check_radial_recurrence(k: int, n_max: int) -> list[VerificationReport]:
    """Degree-one products of level sums, by explicit convolution."""
    out = []
    w = [w_n_explicit(k, n) for n in range(n_max + 2)]
    for n in range(1, n_max + 1):
        lhs = mul(w[1], w[n])
        if n == 1:
            rhs = w[2] + w[0].scalar_mul(2 * k)
            label = f"w1*w1 = w2 + {2 * k}*w0"
        else:
            rhs = w[n + 1] + w[n - 1].scalar_mul(2 * k - 1)
            label = f"w1*w{n} = w{n + 1} + {2 * k - 1}*w{n - 1}"
        same = lhs == rhs and lhs == mul(w[n], w[1])
        out.append(VerificationReport("radial_recurrence", (k, n, label), True, same))
    return out


def check_norms(k: int, n_max: int) -> list[VerificationReport]:
    """Squared trace norm of w_n equals the sphere size, via explicit supports."""
    return [
        VerificationReport("norm_sq", (k, n), word_count(k, n), w_n_explicit(k, n).l2_norm_sq())
        for n in range(n_max + 1)
    ]


def check_counts_vs_enumeration(k: int, n_max: int) -> list[VerificationReport]:
    """alpha/beta/gamma from the recurrence against the enumeration oracle.

    Reports are ordered by n, so the first failing report names the first
    length at which the table went wrong.
    """
    table = counting.abc_recurrence(k, max(n_max, 2))
    return [
        VerificationReport("abc_vs_enumeration", (k, n), oracle_abc(k, n), table[n])
        for n in range(2, n_max + 1)
    ]


def check_closed_form(k: int) -> list[VerificationReport]:
    table = counting.abc_recurrence(k, _COUNT_TABLE_N_MAX)
    return [
        VerificationReport(
            "closed_form_vs_recurrence", (k, n), table[n], counting.abc_closed_form(k, n)
        )
        for n in range(2, _COUNT_TABLE_N_MAX + 1)
    ]


def check_count_identities(k: int) -> list[VerificationReport]:
    """The linear identities and uniform bounds carried by the count table."""
    table = counting.abc_recurrence(k, _COUNT_TABLE_N_MAX)
    ck = counting.constant_C(k)
    out = []
    for n in range(2, _COUNT_TABLE_N_MAX + 1):
        a, b, g = table[n]
        checks = {
            "beta_minus_gamma": b - g == 1,
            "alpha_parity": a - g == (1 + (-1) ** n) // 2,
            "pair_gaps": abs(a - g) <= 1 and abs(a - b) <= 2,
            "level_total": (2 * k - 2) * a + b + g == (2 * k - 1) ** (n - 1),
            "alpha_drift": abs(2 * k * a - (2 * k - 1) ** (n - 1)) <= 3,
            "uniform_C": max(
                abs(Fraction(v) - Fraction((2 * k - 1) ** (n - 1), 2 * k)) for v in (a, b, g)
            )
            <= ck,
        }
        for name, good in checks.items():
            out.append(VerificationReport(f"count_identity_{name}", (k, n), True, good))
    return out


def check_sphere_splitting(k: int, n_max: int) -> list[VerificationReport]:
    """Peeling the first letter off a sphere: the words of length n+1 that
    start with g1 and end with b are exactly g1 * (length-n words that do
    not start with g1^-1 and end with b)."""
    g1 = ReducedWord(k, (1,))
    out = []
    for n in range(2, n_max + 1):
        level_n = list(enumerate_words(k, n))
        level_up = list(enumerate_words(k, n + 1))
        for b in (2, 1, -1):
            direct = {w for w in level_up if w.letters[0] == 1 and w.letters[-1] == b}
            built = {
                (g1 * w)
                for w in level_n
                if w.letters[0] != -1 and w.letters[-1] == b
            }
            out.append(
                VerificationReport(
                    "sphere_splitting", (k, n, f"last={b}"), True, direct == built
                )
            )
    return out


def check_nu_uniformity(k: int, n_max: int) -> list[VerificationReport]:
    """Spread of nu over size-matched set pairs: exactly k at every level.

    With S = |sigma|, T = |tau|, E = |sigma & tau|, I = |sigma & -tau| and
    q = 2k-1, counting._cell_closed_form gives at every level n >= 2

        nu = S T (q^(n-1) - 1)/2k + E   for odd n,
        nu = S T (q^(n-1) + 1)/2k - I   for even n.

    At fixed sizes S and T of subsets of the 2k letters, the overlap
    E takes every value in [max(0, S+T-2k), min(S, T)], and so does I,
    which is the overlap of sigma with -tau, also of size T.  So the
    spread of nu at those sizes is min(S, T) - max(0, S+T-2k), whatever
    the parity of n.  It is at most k, since min(S, T) <= k when S+T <=
    2k and 2k - max(S, T) < k otherwise, and it is k at S = T = k: well
    under D_k = 8k^2 C_k.  With A = {g1, ..., gk}, the pairs (A, A),
    where E = k and I = 0, and (A, -A), where E = 0 and I = k, attain it
    at both parities.  So nu_sets is called on those two pairs only, and
    the check passes exactly when they are k apart; the sweep over every
    pair of letter sets is a test-only oracle.
    """
    a, mirror = frozenset(range(1, k + 1)), frozenset(range(-k, 0))
    out = []
    for n in range(2, n_max + 1):
        spread = counting.nu_sets(k, a, a, n) - counting.nu_sets(k, a, mirror, n)
        out.append(VerificationReport("nu_uniformity", (k, n, f"max_spread={spread}"), True, spread == k))
    return out


def _outer_words(k: int) -> list[ReducedWord]:
    words: list[ReducedWord] = []
    for length in range(1, _OUTER_LEN_MAX + 1):
        words.extend(enumerate_words(k, length))
    return words


def _word_pairs(k: int) -> list[tuple[ReducedWord, ReducedWord]]:
    words = _outer_words(k)
    return [(x, y) for x in words for y in words]


def check_mu_vs_oracle(k: int, n_max: int) -> list[VerificationReport]:
    """Cancellation-split counting formula against the tracking oracle.

    Each sphere histogram _sphere_cells(k, n, |x|, |y|) is built once and
    read by every pair with those lengths.
    """
    out = []
    spheres: dict[tuple[int, int, int], _Cells] = {}
    for x, y in _word_pairs(k):
        ell, m = len(x), len(y)
        for n in range(ell + m + 2, n_max + 1):
            if (n, ell, m) not in spheres:
                spheres[(n, ell, m)] = _sphere_cells(k, n, ell, m)
            observed = _mu_from_cells(x, y, spheres[(n, ell, m)])
            predicted = {
                (r, s): counting.mu(r, s, n, x, y)
                for r in range(ell + 1)
                for s in range(m + 1)
            }
            predicted = {key: v for key, v in predicted.items() if v != 0}
            out.append(
                VerificationReport(
                    "mu_vs_oracle", (k, n, format_word(x), format_word(y)), observed, predicted
                )
            )
    return out


def _tail_cells(left: AlgebraElement, tail: int) -> dict[tuple[int, tuple[int, ...]], Scalar]:
    """Coefficients of `left` summed by (word length, last `tail` letters).

    The sums are taken over the stored term codes (words.word_code), by
    bit length and the low B * tail bits, and each cell's tail is decoded
    once, so no word is built.  A word shorter than `tail` keeps its whole
    code, leading bit included, in those low bits.
    """
    bits = _digit_bits(left.rank)
    low = (1 << bits * tail) - 1
    coded: dict[tuple[int, int], Scalar] = {}
    for code, c in left._terms.items():
        cell = (code.bit_length(), code & low)
        coded[cell] = coded.get(cell, 0) + c
    letters = _code_letters(left.rank)
    out = {}
    for (size, end), c in coded.items():
        n = (size - 1) // bits
        out[(n, letters(end | 1 << bits * min(n, tail)))] = c
    return out


def _expect_times_cells(
    cells: dict[tuple[int, tuple[int, ...]], Scalar], y: ReducedWord
) -> RadialElement:
    """E(left * y) from the _tail_cells(left, |y|) histogram of left.

    Right multiplication by y is injective, so no two words of left * y
    merge, and each word z * y has length |z| + |y| - 2c, where the
    cancellation c depends only on the last |y| letters of z.  So one
    letter comparison per cell (words._cancelled_pairs on the cell's tail
    tuple and y's letters) gives the length of every product in it.
    """
    b = y.letters
    sums: dict[int, Scalar] = {}
    for (length, tail), c in cells.items():
        d = length + len(b) - 2 * _cancelled_pairs(tail, b)
        sums[d] = sums.get(d, 0) + c
    return radial._sphere_average(y.rank, sums)


def check_expectation_vs_oracle(k: int, n_max: int) -> list[VerificationReport]:
    """Counting-path expectation of the sandwich against the convolution oracle.

    The oracle side builds each w_n once, convolves x * w_n once per
    (x, n), as oracle_expect does, and histograms it once per |y| by (word
    length, last |y| letters).  Every y then reads that histogram through
    _expect_times_cells, which compares letters per cell in place of the
    convolution by y.  The pairs come in _word_pairs order.
    """
    out = []
    words = _outer_words(k)
    wn: dict[int, AlgebraElement] = {}
    for x in words:
        x_wn: dict[int, AlgebraElement] = {}
        cells: dict[tuple[int, int], dict[tuple[int, tuple[int, ...]], Scalar]] = {}
        for y in words:
            m = len(y)
            for n in range(len(x) + m + 2, n_max + 1):
                if (n, m) not in cells:
                    if n not in x_wn:
                        if n not in wn:
                            wn[n] = w_n_explicit(k, n)
                        x_wn[n] = mul(AlgebraElement.from_word(x), wn[n])
                    cells[(n, m)] = _tail_cells(x_wn[n], m)
                out.append(
                    VerificationReport(
                        "expectation_vs_oracle",
                        (k, n, format_word(x), format_word(y)),
                        _expect_times_cells(cells[(n, m)], y),
                        radial.expect_xwny(x, y, n),
                    )
                )
    return out


def check_deviation_bound(k: int, n_max: int) -> list[VerificationReport]:
    """Squared deviation times sphere size stays under the level-free bound."""
    out = []
    for x, y in _word_pairs(k):
        ell, m = len(x), len(y)
        bound = radial.deviation_bound(ell, m, k)
        for n in range(ell + m + 2, n_max + 1):
            value = radial.deviation(x, y, n) * word_count(k, n)
            out.append(
                VerificationReport(
                    "deviation_bound",
                    (k, n, format_word(x), format_word(y), f"value={value}"),
                    True,
                    value <= bound,
                )
            )
    return out


def _is_embedding(a: AlgebraElement, r: RadialElement) -> bool:
    """Whether a, of r's rank, equals r.embed(), read from a's terms level
    by level (see check_radial_products): one C-level Counter over (code
    bit length, coefficient), where a code of length d has bit length
    1 + B*d (words._digit_bits)."""
    bits = _digit_bits(r.rank)
    levels = {(1 + bits * d, c): word_count(r.rank, d) for d, c in enumerate(r.coeffs) if c}
    return Counter(zip(map(int.bit_length, a._terms), a._terms.values())) == levels


def check_radial_products(k: int) -> list[VerificationReport]:
    """Linearization-formula products against embed-then-convolve.

    The degrees run up to the largest d <= 5 for which the top sphere S_2d
    of the product w_d * w_d has at most _RADIAL_PRODUCTS_SPHERE_LIMIT
    words: d = 5 at rank 2 and d = 3 at rank 3.  Each w_n is built once.

    The convolution conv = w_m * w_n is compared with the radial product
    level by level (_is_embedding): every term's coefficient is the
    product's at the term's length, and each level d where the product is
    nonzero holds word_count(k, d) terms, the closed form that word_counts
    certifies.  The terms are distinct reduced words, so |S_d| of them at
    length d are all of S_d; hence the test holds exactly when
    conv == product.embed().  A passing report therefore holds conv as
    both sides, one element; only a failing one builds the embedding, as
    its actual side, and shows both as before.
    """
    deg_max = max(d for d in range(6) if word_count(k, 2 * d) <= _RADIAL_PRODUCTS_SPHERE_LIMIT)
    w = [w_n_explicit(k, n) for n in range(deg_max + 1)]
    out = []
    for m in range(deg_max + 1):
        for n in range(m, deg_max + 1):
            product = radial.radial_mul(RadialElement.basis(k, m), RadialElement.basis(k, n))
            conv = mul(w[m], w[n])
            actual = conv if _is_embedding(conv, product) else product.embed()
            out.append(VerificationReport("radial_product_vs_convolution", (k, m, n), conv, actual))
    return out


def check_expectation_properties(k: int, n_max: int) -> list[VerificationReport]:
    """Projection, trace preservation, modularity, and sphere averaging."""
    out = []
    sample_words = [
        ReducedWord(k, ()),
        ReducedWord(k, (1,)),
        ReducedWord(k, (1, 2)),
        ReducedWord(k, (-2, 1, 1)),
        ReducedWord(k, (2, -1, 2, 2)),
    ]
    sample = AlgebraElement(k, {w: c for c, w in enumerate(sample_words, start=1)})
    projected = radial.expect(sample)
    out.append(
        VerificationReport(
            "expect_projection", (k,), projected, radial.expect(projected.embed())
        )
    )
    out.append(
        VerificationReport(
            "expect_trace_preserving", (k,), Fraction(sample.trace()), Fraction(projected.coeff(0))
        )
    )
    b = RadialElement(k, (1, -2, 0, 3))
    out.append(
        VerificationReport(
            "expect_modularity",
            (k,),
            radial.radial_mul(b, radial.expect(sample)),
            radial.expect(mul(b.embed(), sample)),
        )
    )
    # Averaging the sandwich expectation over the whole sphere of radius
    # ell reproduces the expectation of w_ell * w_n * y.
    y = ReducedWord(k, (1,))
    for ell in (1, 2):
        for n in range(ell + len(y) + 2, n_max + 1):
            total = RadialElement.zero(k)
            for z in enumerate_words(k, ell):
                total = total + radial.expect_xwny(z, y, n)
            direct = _expect_times(mul(w_n_explicit(k, ell), w_n_explicit(k, n)), y)
            out.append(VerificationReport("expect_sphere_average", (k, ell, n), direct, total))
    return out


# -- suite --------------------------------------------------------------------

CHECKS: dict[str, Callable[..., list[VerificationReport]]] = {
    "word_counts": lambda k, n_max: check_word_counts(k, n_max),
    "radial_recurrence": lambda k, n_max: check_radial_recurrence(k, min(n_max, 6)),
    "norms": lambda k, n_max: check_norms(k, n_max),
    "counts_vs_enumeration": lambda k, n_max: check_counts_vs_enumeration(k, n_max),
    "closed_form": lambda k, n_max: check_closed_form(k),
    "count_identities": lambda k, n_max: check_count_identities(k),
    "sphere_splitting": lambda k, n_max: check_sphere_splitting(k, min(n_max, 7)),
    "nu_uniformity": lambda k, n_max: check_nu_uniformity(k, n_max),
    "mu_vs_oracle": lambda k, n_max: check_mu_vs_oracle(k, n_max),
    "expectation_vs_oracle": lambda k, n_max: check_expectation_vs_oracle(k, n_max),
    "deviation_bound": lambda k, n_max: check_deviation_bound(k, n_max),
    "radial_products": lambda k, n_max: check_radial_products(k),
    "expectation_properties": lambda k, n_max: check_expectation_properties(k, min(n_max, 7)),
}


# Degree of the largest sphere each check holds in memory at once, by
# (k, n_max); expectation_properties holds w_2 w_n, which fills S_{n+2}.
# The checks left out count, stream a sphere through enumerate_words, or
# (radial_products) bound their own degrees.
HELD_SPHERES: dict[str, Callable[[int, int], int]] = {
    "word_counts": lambda k, n_max: n_max,
    "radial_recurrence": lambda k, n_max: min(n_max, 6) + 1,
    "norms": lambda k, n_max: n_max,
    "sphere_splitting": lambda k, n_max: min(n_max, 7) + 1,
    "expectation_vs_oracle": lambda k, n_max: n_max,
    "expectation_properties": lambda k, n_max: min(n_max, 7) + 2,
}


def run_suite(
    k: int = 2,
    n_max: int = 8,
    checks: Iterable[str] | None = None,
) -> list[VerificationReport]:
    """Run the cross-check suite and return its reports in a fixed order.

    ``checks`` selects a subset by name; an empty selection gives no
    reports, and a name given twice runs once, at its first place.  Each
    check builds the spheres it needs, so a report does not depend on
    which checks ran before it.  A selection whose largest held
    sphere (HELD_SPHERES) is past words.HELD_SPHERE_CAP is refused with
    CapExceededError before any check runs.
    """
    _check_rank(k)
    _check_level(n_max, "n_max")
    if checks is None:
        selected: Sequence[str] = tuple(CHECKS)
    else:
        selected = tuple(dict.fromkeys(checks))
        unknown = [name for name in selected if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)} (known: {', '.join(CHECKS)})")
    held = [HELD_SPHERES[name](k, n_max) for name in selected if name in HELD_SPHERES]
    if held:
        check_held_sphere(k, max(held))
    reports: list[VerificationReport] = []
    for name in selected:
        reports.extend(CHECKS[name](k, n_max))
    return reports
