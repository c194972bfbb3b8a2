"""Exact arithmetic in the group algebra of a free group and its radial
subalgebra: reduced words, rational group-algebra elements, level-sum
products, first/last-letter word counts, expectation deviation bounds,
and free products of finitely generated abelian groups, all over exact
rationals with brute-force oracles for every shortcut formula.
"""

from .algebra import (
    AlgebraElement,
    format_element,
    inner,
    mul,
    parse_element,
    w_n_explicit,
)
from .counting import (
    abc_closed_form,
    abc_recurrence,
    constant_C,
    constant_D,
    mu,
    nu_sets,
    sigma_r,
    tau_s,
)
from .freeproduct import (
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
    fp_reduce,
    is_in_fk,
    load_config,
)
from .radial import (
    RadialElement,
    deviation,
    deviation_bound,
    expect,
    expect_xwny,
    partial_sum_criterion,
    radial_mul,
)
from .verify import VerificationReport, oracle_expect, run_suite
from .words import (
    CapExceededError,
    RankMismatchError,
    ReducedWord,
    WordParseError,
    all_letters,
    concat,
    enumerate_words,
    format_word,
    parse_word,
    reduce,
    word_count,
)

__version__ = "0.1.0"
