"""The benchmark's parts and workloads: seeded inputs, the library call
behind each operation, its exact check, and its canonical output line.

Inputs depend only on the seed.  Each part fixes the shape of its
inputs (ranks, word lengths, degrees, operation counts) and lets the seed
choose only the letters and coefficients inside that shape, so the work a
run does is nearly the same on every seed while the values differ.

Checks use none of the library's formulas: sphere sizes and bounds are
recomputed here from their closed forms, so a wrong library result cannot
certify itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from freeradial import freeproduct, radial, verify
from freeradial.freeproduct import AbelianGroupSpec, Designated, FPConfig
from freeradial.radial import RadialElement
from freeradial.words import ReducedWord


@dataclass(frozen=True)
class Op:
    """One timed library call, its exact check, and its canonical output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    canon: Callable[[object], str]


def sphere(k: int, n: int) -> int:
    """|S_n| in F_k, recomputed independently of the library."""
    return 1 if n == 0 else 2 * k * (2 * k - 1) ** (n - 1)


def is_exact(value: object) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def coeffs_text(element: RadialElement) -> str:
    return ",".join(str(Fraction(c)) for c in element.coeffs)


def random_word(rng: random.Random, k: int, length: int) -> ReducedWord:
    letters: list[int] = []
    for _ in range(length):
        choices = [x for x in range(-k, k + 1) if x != 0 and not (letters and x == -letters[-1])]
        letters.append(rng.choice(choices))
    return ReducedWord(k, tuple(letters))


# -- verify_suite ---------------------------------------------------------------

# The 13 checks of verify.run_suite, listed here so that a renamed or added
# check changes the benchmark only through a benchmark change.
VERIFY_CHECKS = (
    "word_counts", "radial_recurrence", "norms", "counts_vs_enumeration",
    "closed_form", "count_identities", "sphere_splitting", "nu_uniformity",
    "mu_vs_oracle", "expectation_vs_oracle", "deviation_bound",
    "radial_products", "expectation_properties",
)
VERIFY_K = 2
VERIFY_N_MAX = 6


def verify_suite(seed: int) -> list[Op]:
    """run_suite once per check, in a seeded order (the order decides which
    check pays for filling the shared level-sum memo)."""
    order = list(VERIFY_CHECKS)
    random.Random(seed).shuffle(order)

    def op(name: str) -> Op:
        return Op(
            name,
            lambda: verify.run_suite(k=VERIFY_K, n_max=VERIFY_N_MAX, checks=(name,)),
            lambda reports: bool(reports) and all(r.passed for r in reports),
            lambda reports: name + ":" + ";".join(
                f"{r.check}[{' '.join(str(p) for p in r.params)}]={r.passed}" for r in reports
            ),
        )

    return [op(name) for name in order]


# -- deviation_series -----------------------------------------------------------

DEVIATION_SHAPES = tuple((k, ell, m) for k in (2, 3) for ell in (1, 2, 3) for m in (1, 2, 3))
DEVIATION_N_MAX = 150


def deviation_bound_sq(ell: int, m: int, k: int) -> Fraction:
    """H^2 with H = (l+1)(m+1) D_k (2k-1)^((l+m)/2), D_k = 8k^2 (2 + 3/2k)."""
    d = 8 * k * k * (Fraction(2) + Fraction(3, 2 * k))
    return ((ell + 1) * (m + 1) * d) ** 2 * (2 * k - 1) ** (ell + m)


def deviation_series(seed: int) -> list[Op]:
    """deviation(x, y, n) for n = 0..N on one seeded pair per (k, |x|, |y|)
    shape; small n takes the enumeration fallback, large n the counting path."""
    rng = random.Random(seed)
    ops = []
    for k, ell, m in DEVIATION_SHAPES:
        x, y = random_word(rng, k, ell), random_word(rng, k, m)
        bound = deviation_bound_sq(ell, m, k)
        for n in range(DEVIATION_N_MAX + 1):
            ops.append(_deviation_op(x, y, n, bound))
    return ops


def _deviation_op(x: ReducedWord, y: ReducedWord, n: int, bound: Fraction) -> Op:
    k, ell, m = x.rank, len(x), len(y)

    def check(value: object) -> bool:
        if not is_exact(value) or value < 0:
            return False
        return n < ell + m + 2 or value * sphere(k, n) <= bound

    label = f"{k}|{x.letters}|{y.letters}|{n}"
    return Op(label, lambda: radial.deviation(x, y, n), check,
              lambda value: f"{label}|{Fraction(value)}")


# -- radial_dense ---------------------------------------------------------------

RADIAL_PRODUCTS = 16
RADIAL_DEGREES = (20, 120)
# Single-basis products past the recursion depth of the cold structure-
# constant cache; see NOTES.md (known limits).  Run untimed, outside the
# operation count.
LIMIT_PROBES = 4
LIMIT_DEGREES = (500, 3000)


def _coefficient(rng: random.Random, fractions: bool) -> int | Fraction:
    p = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    q = rng.choice((1, 2, 3)) if fractions else 1
    return p if q == 1 else Fraction(p, q)


def _dense(rng: random.Random, k: int, degree: int, fractions: bool = False) -> RadialElement:
    return RadialElement(k, [_coefficient(rng, fractions) for _ in range(degree + 1)])


def augmentation(element: RadialElement) -> Fraction:
    """eps(sum c_n w_n) = sum c_n |S_n|: the sum of all group coefficients."""
    k = element.rank
    return sum((Fraction(c) * sphere(k, n) for n, c in enumerate(element.coeffs)), Fraction(0))


def product_check(a: RadialElement, b: RadialElement) -> Callable[[object], bool]:
    """Identities of any correct product, whatever the algorithm: eps is
    multiplicative, (ab)_0 = sum a_n b_n |S_n|, and the top term is
    a_top b_top w_{deg a + deg b}."""
    k = a.rank
    trace = sum(
        (Fraction(ca) * cb * sphere(k, n) for n, (ca, cb) in enumerate(zip(a.coeffs, b.coeffs))),
        Fraction(0),
    )
    eps = augmentation(a) * augmentation(b)
    top = Fraction(a.coeffs[-1]) * b.coeffs[-1]

    def check(ab: object) -> bool:
        return (
            isinstance(ab, RadialElement)
            and ab.rank == k
            and all(is_exact(c) for c in ab.coeffs)
            and ab.degree == a.degree + b.degree
            and ab.coeffs[-1] == top
            and ab.coeff(0) == trace
            and augmentation(ab) == eps
        )

    return check


def radial_dense(seed: int) -> list[Op]:
    """radial_mul on dense elements.  Degrees follow a fixed grid across
    [20, 120] with a small seeded offset and ranks alternate 2 and 3, so the
    work is nearly seed-independent.  One product in four has Fraction
    coefficients on its left factor (exact rational arithmetic dominates
    those); the rest are integer."""
    rng = random.Random(seed)
    lo, hi = RADIAL_DEGREES
    width = (hi - lo) // RADIAL_PRODUCTS
    ops = []
    for i in range(RADIAL_PRODUCTS):
        k = 2 + i % 2
        j = (i * 7) % RADIAL_PRODUCTS
        a = _dense(rng, k, lo + i * width + rng.randrange(3), fractions=i % 4 == 3)
        b = _dense(rng, k, lo + j * width + rng.randrange(3))
        label = f"{k}|{a.degree}x{b.degree}"
        ops.append(Op(label, lambda a=a, b=b: radial.radial_mul(a, b), product_check(a, b),
                      lambda ab, label=label: f"{label}|{coeffs_text(ab)}"))
    return ops


def limit_probes(seed: int) -> list[Op]:
    """w_m * w_n with m, n in [500, 3000]."""
    rng = random.Random(seed + 1)
    ops = []
    for i in range(LIMIT_PROBES):
        k = 2 + i % 2
        a = RadialElement.basis(k, rng.randint(*LIMIT_DEGREES))
        b = RadialElement.basis(k, rng.randint(*LIMIT_DEGREES))
        ops.append(Op(f"{k}|w{a.degree}*w{b.degree}", lambda a=a, b=b: radial.radial_mul(a, b),
                      product_check(a, b), lambda ab: coeffs_text(ab)))
    return ops


# -- freeproduct_chi -------------------------------------------------------------

FP_POWERS = ((1, 1), (2, 3))
FP_PAIRS = 3
FP_N_MAX = 7


def fp_config(powers: tuple[int, int]) -> FPConfig:
    """Z^2 * Z with designated (1, 0) and 1, as in the acceptance suite."""
    z2, z1 = AbelianGroupSpec(2), AbelianGroupSpec(1)
    return FPConfig(
        (z2, z1),
        (Designated(0, z2.element((1, 0)), powers[0]), Designated(1, z1.element((1,)), powers[1])),
    )


def freeproduct_chi(seed: int) -> list[Op]:
    """expect_fp(x, y, n) for n = 0..N on both acceptance configurations.

    x ends and y starts with a factor-0 syllable off the designated
    generator's axis, (a, b) and (c, -b), so x u y can return to the
    embedded free group; some pairs add an outer factor-1 syllable.
    """
    rng = random.Random(seed)
    ops = []
    for ci, powers in enumerate(FP_POWERS):
        cfg = fp_config(powers)
        z2, z1 = cfg.factors
        for i in range(FP_PAIRS):
            b = rng.choice((-3, -2, -1, 1, 2, 3))
            x_syl = [(0, z2.element((rng.randint(-3, 3), b)))]
            y_syl = [(0, z2.element((rng.randint(-3, 3), -b)))]
            if i % 2:
                x_syl.insert(0, (1, z1.element((rng.choice((-2, -1, 1, 2)),))))
            if i % 3 == 2:
                y_syl.append((1, z1.element((rng.choice((-2, -1, 1, 2)),))))
            x, y = freeproduct.fp_reduce(x_syl, cfg), freeproduct.fp_reduce(y_syl, cfg)
            for n in range(FP_N_MAX + 1):
                ops.append(_fp_op(f"{ci}|{i}|{n}", x, y, n, cfg))
    return ops


def _fp_op(label: str, x, y, n: int, cfg: FPConfig) -> Op:
    k = cfg.rank

    def check(result: object) -> bool:
        element, size = result
        if not isinstance(element, RadialElement) or not isinstance(size, int):
            return False
        if not all(is_exact(c) and c >= 0 for c in element.coeffs):
            return False
        norm_sq = sum(Fraction(c) ** 2 * sphere(k, p) for p, c in enumerate(element.coeffs))
        # each member adds w_p / |S_p|, so eps of the expectation is the count
        return (
            size <= (n + 1) * (2 * n + 1)
            and norm_sq <= size * size
            and augmentation(element) == size
        )

    return Op(label, lambda: freeproduct.expect_fp(x, y, n, cfg), check,
              lambda result: f"{label}|{result[1]}|{coeffs_text(result[0])}")


PARTS: dict[str, Callable[[int], list[Op]]] = {
    "verify_suite": verify_suite,
    "deviation_series": deviation_series,
    "radial_dense": radial_dense,
    "freeproduct_chi": freeproduct_chi,
}

# A workload runs its parts in this order in one cold process.  The three
# kernels share a workload so that each run measures about twice as long
# as it could with four workloads in the same total time: on a shared host
# that is what keeps run-to-run spread inside the bounds.  Each part keeps
# its own digest, and run.py prints each part's time.  Later parts see the
# structure-constant cache warmed by earlier ones, so radial_dense, whose
# dense products are the cold-cache case, runs first.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "verify_suite": ("verify_suite",),
    "kernels": ("radial_dense", "deviation_series", "freeproduct_chi"),
}

PROBES: dict[str, Callable[[int], list[Op]]] = {"radial_dense": limit_probes}


# Middle words expect_fp has to consider: sum of |S_n| over the
# freeproduct_chi operations (both configurations have rank 2).
FP_CANDIDATES = len(FP_POWERS) * FP_PAIRS * sum(sphere(2, n) for n in range(FP_N_MAX + 1))
