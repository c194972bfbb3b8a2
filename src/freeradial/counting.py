"""First/last-letter statistics for spheres in the free group.

For n >= 2 the counts of length-n words split into three classes by the
relation between first and last letter: distinct non-inverse (alpha),
equal (beta), mutually inverse (gamma).  A linear three-term recurrence
generates the whole table and serves as the check; abc_closed_form reads
the counts from the integer eigenvalues 2k-1, 1, -1 of the transfer
matrix.  cell_count sums that closed form over a pair of letter sets in
one integer expression: it is the set count nu_sets, and the size of
every cancellation cell in the sandwich x * (word) * y, whose boundary
letter sets sigma_r/tau_s are built here too.  The uniform-deviation
constants C_k and D_k close the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .words import ReducedWord, all_letters, _check_letter, _check_rank


@dataclass(frozen=True)
class CountTable:
    """alpha/beta/gamma values for 2 <= n <= n_max (index 0 holds n=2)."""

    rank: int
    alphas: tuple[int, ...]
    betas: tuple[int, ...]
    gammas: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.alphas) + 1

    def _index(self, n: int) -> int:
        if not 2 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 2..{self.n_max}")
        return n - 2

    def alpha(self, n: int) -> int:
        return self.alphas[self._index(n)]

    def beta(self, n: int) -> int:
        return self.betas[self._index(n)]

    def gamma(self, n: int) -> int:
        return self.gammas[self._index(n)]

    def triple(self, n: int) -> tuple[int, int, int]:
        i = self._index(n)
        return self.alphas[i], self.betas[i], self.gammas[i]


def abc_recurrence(k: int, n_max: int) -> CountTable:
    """Build the count table from the base case (1, 1, 0) at n=2."""
    _check_rank(k)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    a, b, g = 1, 1, 0
    alphas, betas, gammas = [a], [b], [g]
    for _ in range(2, n_max):
        a, b, g = (2 * k - 3) * a + b + g, b + (2 * k - 2) * a, g + (2 * k - 2) * a
        alphas.append(a)
        betas.append(b)
        gammas.append(g)
    return CountTable(k, tuple(alphas), tuple(betas), tuple(gammas))


def count_table(k: int, n_max: int) -> CountTable:
    """The recurrence table for 2 <= n <= max(n_max, 2)."""
    return abc_recurrence(k, max(n_max, 2))


def abc_closed_form(k: int, n: int) -> tuple[int, int, int]:
    """Exact alpha/beta/gamma at n from the eigen-expansion of the recurrence.

    The transfer matrix [[2k-3, 1, 1], [2k-2, 1, 0], [2k-2, 0, 1]] has
    eigenvalues 2k-1, 1, -1 with eigenvectors (1,1,1), (0,1,-1) and
    (-1, k-1, k-1); expanding the n=2 state (1, 1, 0) in that basis gives,
    with q = 2k-1,

        alpha = (q^(n-1) + (-1)^n) / 2k
        beta  = (q^(n-1) + k - (k-1)(-1)^n) / 2k
        gamma = (q^(n-1) - k - (k-1)(-1)^n) / 2k.
    """
    _check_rank(k)
    if n < 2:
        raise ValueError(f"closed form defined for n >= 2, got {n}")
    level, sign = (2 * k - 1) ** (n - 1), (-1) ** n
    numerators = (level + sign, level + k - (k - 1) * sign, level - k - (k - 1) * sign)
    for v in numerators:
        if v % (2 * k):
            raise AssertionError(f"non-integer closed-form value {Fraction(v, 2 * k)} at n={n}")
    alpha, beta, gamma = (v // (2 * k) for v in numerators)
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
    if n < 2:
        raise ValueError(f"nu is defined for n >= 2, got n={n}")
    return cell_count(k, sigma, tau, n)


def full_letter_set(k: int) -> frozenset[int]:
    return frozenset(all_letters(k))


def sigma_r(x: ReducedWord, r: int) -> frozenset[int]:
    """Letters allowed to start the middle segment after exactly r left
    cancellations against x.

    Writing x = x_l ... x_1 (so x_1 is the letter adjacent to the middle),
    the boundary constraints remove x_{r+1}^-1 (no further cancellation)
    and x_r (reducedness of the original word); each constraint disappears
    at its end of the range.
    """
    letters = x.letters
    ell = len(letters)
    if ell < 1:
        raise ValueError("sigma_r requires a nonempty word")
    if not 0 <= r <= ell:
        raise ValueError(f"r={r} outside 0..{ell}")
    full = full_letter_set(x.rank)
    if r == 0:
        return full - {-letters[ell - 1]}
    if r == ell:
        return full - {letters[0]}
    # index from the inner end: x_i = letters[ell - i]
    return full - {-letters[ell - r - 1], letters[ell - r]}


def tau_s(y: ReducedWord, s: int) -> frozenset[int]:
    """Letters allowed to end the middle segment after exactly s right
    cancellations against y = y_1 ... y_m (y_1 adjacent to the middle)."""
    letters = y.letters
    m = len(letters)
    if m < 1:
        raise ValueError("tau_s requires a nonempty word")
    if not 0 <= s <= m:
        raise ValueError(f"s={s} outside 0..{m}")
    full = full_letter_set(y.rank)
    if s == 0:
        return full - {-letters[0]}
    if s == m:
        return full - {letters[m - 1]}
    return full - {-letters[s], letters[s - 1]}


def cell_count(k: int, sigma: frozenset[int], tau: frozenset[int], length: int) -> int:
    """Words of the given length L >= 1 whose first letter is in sigma and
    last letter in tau: the size of one (r, s) cancellation cell, with sigma
    = sigma_r(x, r), tau = tau_s(y, s) and the surviving middle length
    n - r - s.  The sets are not validated here; nu_sets does that.

    With S = |sigma|, T = |tau|, E = |sigma & tau|, I = |{a in sigma :
    -a in tau}| and q = 2k-1:

        2k cell = S T q^(L-1) + (-1)^L (S T - k(E+I)) + k(E-I).

    For L >= 2, each (first, last) pair counts beta words when the letters
    are equal, gamma when they are mutually inverse and alpha otherwise, so
    cell = E beta + I gamma + (S T - E - I) alpha.  Put in abc_closed_form's
    values, 2k alpha = q^(L-1) + (-1)^L, 2k beta = q^(L-1) + k - (k-1)(-1)^L
    and 2k gamma = q^(L-1) - k - (k-1)(-1)^L: the q^(L-1) terms sum to
    S T q^(L-1), the terms free of (-1)^L to k(E-I), and the (-1)^L terms
    to S T - E - I - (k-1)(E+I) = S T - k(E+I).  For L = 1 a word is its
    own first and last letter, so the cell is E, and the right side is
    S T - S T + k(E+I) + k(E-I) = 2k E as well.
    """
    size, equal = len(sigma) * len(tau), len(sigma & tau)
    inverse = sum(1 for a in sigma if -a in tau)
    sign = 1 if length % 2 == 0 else -1
    value = (
        size * (2 * k - 1) ** (length - 1)
        + sign * (size - k * (equal + inverse))
        + k * (equal - inverse)
    )
    if value % (2 * k):
        raise AssertionError(f"non-integer cell count {Fraction(value, 2 * k)} at length={length}")
    return value // (2 * k)


def mu(r: int, s: int, n: int, x: ReducedWord, y: ReducedWord) -> int:
    """Words of length n producing exactly r left and s right cancellations
    in the sandwich x * (word) * y; valid for n >= |x| + |y| + 2, where the
    middle of every cell survives (radial.expect_xwny covers every n)."""
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} vs {y.rank}")
    ell, m = len(x), len(y)
    if ell < 1 or m < 1:
        raise ValueError("mu requires nonempty outer words")
    if n < ell + m + 2:
        raise ValueError(f"mu requires n >= {ell + m + 2}, got n={n}")
    if not 0 <= r <= ell or not 0 <= s <= m:
        raise ValueError(f"(r, s)=({r}, {s}) outside 0..{ell} x 0..{m}")
    return cell_count(x.rank, sigma_r(x, r), tau_s(y, s), n - r - s)


def constant_C(k: int) -> Fraction:
    """Uniform bound on |alpha_n - (2k-1)^(n-1)/2k| (and beta, gamma)."""
    _check_rank(k)
    return Fraction(2) + Fraction(3, 2 * k)


def constant_D(k: int) -> Fraction:
    """Uniform bound on |nu(s1,t1) - nu(s2,t2)| over size-matched set pairs."""
    return 8 * k * k * constant_C(k)
