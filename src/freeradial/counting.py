"""First/last-letter statistics for spheres in the free group.

For n >= 2 the counts of length-n words split into three classes by the
relation between first and last letter: distinct non-inverse (alpha),
equal (beta), mutually inverse (gamma).  _cell_closed_form is the one
closed form for such counts: the words of a given length whose first
letter lies in one set and last letter in another, from four statistics
of the two sets.  cell_count reads those statistics from the sets;
alpha/beta/gamma (abc_closed_form) and the validated set count nu_sets go
through it.  The cancellation cells of the sandwich x * (word) * y have
boundary letter sets sigma_r/tau_s, built here too, but the library reads
their statistics from the at most two letters each set excludes
(_cell_stats): mu takes one cell that way, and _pair_stats sums the same
statistics per t = r + s for sandwich_counts, which splits a sphere by
the reduced length of the sandwich for radial.expect_xwny and
radial.deviation.  Past n = |x| + |y| radial.deviation reads only
_cell_offset, the part of the closed form that does not grow with the
length.  That part depends on the length only through its parity, so
_pair_stats also stores, per pair of words, the deviation's numerator at
each parity, and a level there is one lookup.  This module is the only
one that knows how a sandwich is counted.  A linear three-term
recurrence (abc_recurrence) builds whole tables and is the closed form's
check.  The uniform-deviation constants C_k and D_k close the module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .words import (
    ReducedWord, _check_letter, _check_level, _check_rank, _check_same_rank, reduce,
)


def abc_recurrence(k: int, n_max: int) -> dict[int, tuple[int, int, int]]:
    """The table {n: (alpha, beta, gamma)} for 2 <= n <= n_max, built from
    the base case (1, 1, 0) at n=2."""
    _check_rank(k)
    _check_level(n_max, "n_max")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    a, b, g = 1, 1, 0
    table = {2: (a, b, g)}
    for n in range(3, n_max + 1):
        a, b, g = (2 * k - 3) * a + b + g, b + (2 * k - 2) * a, g + (2 * k - 2) * a
        table[n] = (a, b, g)
    return table


def abc_closed_form(k: int, n: int) -> tuple[int, int, int]:
    """alpha/beta/gamma at n >= 2: the cell_count values for first letter g1
    and last letter g2, g1 and g1^-1."""
    _check_rank(k)
    _check_level(n)
    if n < 2:
        raise ValueError(f"closed form defined for n >= 2, got {n}")
    first = frozenset({1})
    alpha, beta, gamma = (cell_count(k, first, frozenset({last}), n) for last in (2, 1, -1))
    return alpha, beta, gamma


def _check_letter_set(s: frozenset[int] | set[int], k: int, name: str) -> frozenset[int]:
    out = frozenset(s)
    if not out:
        raise ValueError(f"{name} must be a nonempty subset of the 2k letters")
    for x in out:
        _check_letter(x, k)
    return out


def nu_sets(k: int, sigma: frozenset[int] | set[int], tau: frozenset[int] | set[int], n: int) -> int:
    """Count of length-n words (n >= 2) with first letter in sigma and last
    in tau, for nonempty sets of letters of F_k: the validated entry to
    cell_count's closed form."""
    sigma = _check_letter_set(sigma, k, "sigma")
    tau = _check_letter_set(tau, k, "tau")
    _check_level(n)
    if n < 2:
        raise ValueError(f"nu is defined for n >= 2, got n={n}")
    return cell_count(k, sigma, tau, n)


def sigma_r(x: ReducedWord, r: int) -> frozenset[int]:
    """Letters allowed to start the middle segment after exactly r left
    cancellations against x = x_l ... x_1 (x_1 adjacent to the middle)."""
    return _boundary_set(x.rank, x.letters[::-1], r)


def tau_s(y: ReducedWord, s: int) -> frozenset[int]:
    """Letters allowed to end the middle segment after exactly s right
    cancellations against y = y_1 ... y_m (y_1 adjacent to the middle)."""
    return _boundary_set(y.rank, y.letters, s)


def _boundary_set(k: int, z: tuple[int, ...], i: int) -> frozenset[int]:
    """Letters allowed next to the middle after exactly i cancellations
    against an outer word z_1 z_2 ... read from the middle outward: the
    2k letters minus _excluded(z)[i]."""
    if not z:
        raise ValueError("boundary sets require a nonempty outer word")
    _check_level(i, "cancellations")
    if not 0 <= i <= len(z):
        raise ValueError(f"{i} cancellations outside 0..{len(z)}")
    return frozenset(range(-k, k + 1)) - {0, *_excluded(z)[i]}


def _excluded(z: tuple[int, ...]) -> list[frozenset[int]]:
    """For i = 0..|z|, the at most two letters barred next to the middle
    after exactly i cancellations against z_1 z_2 ... read from the middle
    outward.

    They are z_{i+1}^-1 (no further cancellation) and z_i (reducedness of
    the original word); each constraint disappears at its end of the
    range, where the padding reads the non-letter 0.
    """
    return [frozenset({-after, before} - {0}) for before, after in zip((0, *z), (*z, 0))]


def cell_count(k: int, sigma: frozenset[int], tau: frozenset[int], length: int) -> int:
    """Words of the given length L >= 1 whose first letter is in sigma and
    last letter in tau: the size of one (r, s) cancellation cell, with sigma
    = sigma_r(x, r), tau = tau_s(y, s) and the surviving middle length
    n - r - s.  The sets are not validated here; nu_sets does that.

    This reads the four set statistics of _cell_closed_form, which holds
    the closed form, from the sets themselves.
    """
    return _cell_closed_form(
        k,
        len(sigma) * len(tau),
        len(sigma & tau),
        sum(1 for a in sigma if -a in tau),
        length,
        (2 * k - 1) ** (length - 1),
    )


def _cell_closed_form(k: int, size: int, equal: int, inverse: int, length: int, power: int) -> int:
    """The closed form behind cell_count, from the statistics of the sets.

    With S = |sigma|, T = |tau|, size = S T, equal = E = |sigma & tau|,
    inverse = I = |{a in sigma : -a in tau}|, q = 2k-1 and power =
    q^(L-1), taken by the caller so that cells sharing a length share it:

        2k cell = S T q^(L-1) + (-1)^L (S T - k(E+I)) + k(E-I),

    whose last two terms are _cell_offset.

    For L >= 2, each (first, last) pair counts beta words when the letters
    are equal, gamma when they are mutually inverse and alpha otherwise, so
    cell = E beta + I gamma + (S T - E - I) alpha.  The state (alpha, beta,
    gamma) steps from one length to the next by the transfer matrix
    [[2k-3, 1, 1], [2k-2, 1, 0], [2k-2, 0, 1]] of abc_recurrence, from
    (1, 1, 0) at length 2.  Its eigenvalues are 2k-1, 1, -1 with
    eigenvectors (1, 1, 1), (0, 1, -1) and (-1, k-1, k-1), and (1, 1, 0) =
    (q/2k)(1, 1, 1) + (1/2)(0, 1, -1) - (1/2k)(-1, k-1, k-1), so

        2k alpha = q^(L-1) + (-1)^L
        2k beta  = q^(L-1) + k - (k-1)(-1)^L
        2k gamma = q^(L-1) - k - (k-1)(-1)^L.

    Summed over the pairs, the q^(L-1) terms give S T q^(L-1), the terms
    free of (-1)^L give k(E-I), and the (-1)^L terms give S T - E - I -
    (k-1)(E+I) = S T - k(E+I).  For L = 1 a word is its own first and
    last letter, so the cell is E, and the right side is S T - S T +
    k(E+I) + k(E-I) = 2k E as well.

    The statistics need not come from the sets.  Every boundary set is
    the alphabet Lambda of 2k letters minus the at most two letters of
    _excluded: sigma = Lambda - A and tau = Lambda - B.  Then
    sigma & tau = Lambda - (A | B), and since a is in sigma with -a in
    tau exactly when a lies outside both A and -B,

        S = 2k - |A|,  T = 2k - |B|,  E = 2k - |A | B|,  I = 2k - |A | -B|,

    four counts over sets of at most four letters, whatever k is.
    _cell_stats reads a cell this way, for mu and for _pair_stats.

    The form is linear in (S T, E, I) at a fixed length, so the cells of
    one t = r + s, which share L = n - t, may be summed statistic by
    statistic and passed here once: sandwich_counts makes one call per t,
    not one per cell.  The remainder check stays on the summed
    call, although for integer statistics it can never fire, per cell or
    summed: q = 2k-1 is -1 mod 2k, so the numerator is -2k I mod 2k for
    even L and 2k E for odd L.  It guards the algebra of this function,
    not its inputs.
    """
    value = size * power + _cell_offset(k, size, equal, inverse, length)
    cell, remainder = divmod(value, 2 * k)
    if remainder:
        raise AssertionError(f"non-integer cell count {Fraction(value, 2 * k)} at length={length}")
    return cell


def _cell_offset(k: int, size: int, equal: int, inverse: int, length: int) -> int:
    """2k cell - S T q^(L-1), the part of _cell_closed_form that does not
    grow with the length: (-1)^L (S T - k(E+I)) + k(E-I).

    It is a small integer that depends on L only through its parity.
    Past |x| + |y| the q^(L-1) parts cancel against E(x) E(y) w_n (see
    radial.deviation's docstring), so the deviation reads only these
    offsets, squared and summed by _pair_stats once per parity.
    """
    sign = 1 if length % 2 == 0 else -1
    return sign * (size - k * (equal + inverse)) + k * (equal - inverse)


def _cell_stats(
    k: int, a: frozenset[int], b: frozenset[int], b_mirror: frozenset[int]
) -> tuple[int, int, int]:
    """(S T, E, I) of the cell whose first letter avoids the letters a and
    whose last letter avoids b, with b_mirror = {-c : c in b}: the
    statistics of _cell_closed_form, from the excluded letters of
    _excluded alone, as its docstring derives.  The mirror is the caller's,
    so that a side shared by many cells builds it once."""
    full = 2 * k
    return (full - len(a)) * (full - len(b)), full - len(a | b), full - len(a | b_mirror)


def mu(r: int, s: int, n: int, x: ReducedWord, y: ReducedWord) -> int:
    """Words of length n producing exactly r left and s right cancellations
    in the sandwich x * (word) * y; valid for n >= |x| + |y| + 2, where the
    middle of every cell survives (radial.expect_xwny covers every n).

    The cell is read from the letters its boundary sets exclude
    (_cell_stats), as the sandwich counts behind expect_xwny and deviation
    read it; sigma_r and tau_s are not built.
    """
    _check_same_rank(x, y)
    ell, m = len(x), len(y)
    if ell < 1 or m < 1:
        raise ValueError("mu requires nonempty outer words")
    for value, name in ((n, "level"), (r, "r"), (s, "s")):
        _check_level(value, name)
    if n < ell + m + 2:
        raise ValueError(f"mu requires n >= {ell + m + 2}, got n={n}")
    if not 0 <= r <= ell or not 0 <= s <= m:
        raise ValueError(f"(r, s)=({r}, {s}) outside 0..{ell} x 0..{m}")
    k, length = x.rank, n - r - s
    a, b = _excluded(x.letters[::-1])[r], _excluded(y.letters)[s]
    stats = _cell_stats(k, a, b, frozenset(-c for c in b))
    return _cell_closed_form(k, *stats, length, (2 * k - 1) ** (length - 1))


@lru_cache(maxsize=8)
def _pair_stats(
    k: int, x_letters: tuple[int, ...], y_letters: tuple[int, ...]
) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, int]]:
    """(stats, sums) for the sandwich x * (word) * y, nonempty x and y.

    stats[t] = (sum S T, sum E, sum I) over the cells r + s = t, for
    t = 0..|x|+|y|.  Each cell's statistics come from _cell_stats, as mu's
    do; they do not depend on the level, so a series over n sums them once.

    sums[p] = sum_t R_t^2 q^(2t) with q = 2k-1 and R_t = _cell_offset at
    any length of the parity of p - t: the numerator of radial.deviation
    at every level n > |x| + |y| with n = p mod 2 (see its docstring).
    One Horner pass in q^2 per parity makes it.

    Keyed on letter tuples, so a lookup hashes ints and never a
    ReducedWord.  A stats sum is below (2k)^2 (|x|+|y|+1) and a parity sum
    has O((|x|+|y|) log q) bits, so an entry holds O(|x|+|y|) small ints
    and two larger ones; the cache keeps the 8 pairs used last, enough for
    a series over n on one pair or a few pairs interleaved.
    """
    lefts = _excluded(x_letters[::-1])
    rights = [(b, frozenset(-c for c in b)) for b in _excluded(y_letters)]
    rows = [[0, 0, 0] for _ in range(len(x_letters) + len(y_letters) + 1)]
    for r, a in enumerate(lefts):
        for s, (b, b_mirror) in enumerate(rights):
            size, equal, inverse = _cell_stats(k, a, b, b_mirror)
            row = rows[r + s]
            row[0] += size
            row[1] += equal
            row[2] += inverse
    stats = tuple(map(tuple, rows))
    step = (2 * k - 1) ** 2
    sums = []
    for parity in (0, 1):
        total = 0
        for t in range(len(stats) - 1, -1, -1):
            total = total * step + _cell_offset(k, *stats[t], parity - t) ** 2
        sums.append(total)
    return stats, (sums[0], sums[1])


def sandwich_counts(x: ReducedWord, y: ReducedWord, n: int) -> dict[int, int]:
    """Words u of length n counted by the reduced length of x * u * y, for
    nonempty x and y.

    Each middle word u of length n cancels exactly r letters against x and
    s against y.  When t = r + s < n a middle segment of length L = n - t
    survives: the (r, s) cell holds the words of length L whose first
    letter avoids the letters _excluded bars after r cancellations against
    x and whose last letter avoids those barred after s against y, each of
    reduced length n + |x| + |y| - 2t.  The cells of one t share L, and
    _cell_closed_form is linear in the statistics, so each t takes one call
    on the per-t sums of _pair_stats: |x| + |y| + 1 calls once
    n > |x| + |y|, each a product of q^(L-1) by a small integer and a
    division by 2k, whose remainder check still holds for the sum.  q^(L-1)
    is taken once at the shortest L and multiplied up by q.

    Every other u is consumed whole, u = (last j letters of x)^-1 (first
    n-j letters of y)^-1 for some j, so at most n+1 such words exist, none
    once n > |x| + |y|, and each product's length is read off directly.
    The level is not validated here; the public callers do that.  Every
    degree that a cell reaches is a key, even when the cell is empty.
    """
    _check_same_rank(x, y)
    k = x.rank
    ell, m = len(x), len(y)
    if ell < 1 or m < 1:
        raise ValueError("outer words must be nonempty (expectation is modular otherwise)")
    stats, _ = _pair_stats(k, x.letters, y.letters)
    q = 2 * k - 1
    counts: dict[int, int] = {}
    reach = min(ell + m, n - 1)
    power = q ** (n - 1 - reach)
    for t in range(reach, -1, -1):
        counts[n + ell + m - 2 * t] = _cell_closed_form(k, *stats[t], n - t, power)
        power *= q
    # Middle words swallowed whole: one candidate per split j, kept when reduced.
    splits = range(max(0, n - m), min(ell, n) + 1)
    if splits:
        x_inv, y_inv = x.inverse().letters, y.inverse().letters
        for u in {reduce(x_inv[:j] + y_inv[m - n + j :], k) for j in splits}:
            if len(u) == n:
                d = len(x * u * y)
                counts[d] = counts.get(d, 0) + 1
    return counts


def constant_C(k: int) -> Fraction:
    """Uniform bound on |alpha_n - (2k-1)^(n-1)/2k| (and beta, gamma)."""
    _check_rank(k)
    return Fraction(2) + Fraction(3, 2 * k)


def constant_D(k: int) -> Fraction:
    """Uniform bound on |nu(s1,t1) - nu(s2,t2)| over size-matched set pairs.

    The paper's constant, and loose: the exact spread is k at every level
    (derived in verify.check_nu_uniformity), against D_2 = 88."""
    return 8 * k * k * constant_C(k)
