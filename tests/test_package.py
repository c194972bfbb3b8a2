"""Package-wide shape: the size caps are fixed constants, so no function
or method takes a per-call cap, the removed aliases stay removed, one
function builds the rank-mismatch error for every binary entry, and no
module keeps state that a call changes."""

import importlib
import inspect
import json
import operator
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import click
import pytest

import freeradial
from freeradial.algebra import AlgebraElement, inner, mul
from freeradial.counting import mu, sandwich_counts
from freeradial.radial import RadialElement, deviation, expect_xwny, radial_mul
from freeradial.verify import oracle_expect
from freeradial.words import RankMismatchError, ReducedWord, concat

MODULES = [
    importlib.import_module(f"freeradial.{info.name}")
    for info in pkgutil.iter_modules(freeradial.__path__)
]


def package_callables():
    """(qualified name, function) for every function, method and command
    callback defined in the package's modules."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if isinstance(obj, click.Command):
                obj = obj.callback
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_a_cap():
    found = dict(package_callables())
    # the walk reaches the functions that used to take one
    for name in (
        "freeradial.words.enumerate_words",
        "freeradial.algebra.mul",
        "freeradial.radial.RadialElement.embed",
        "freeradial.freeproduct.chi_n",
        "freeradial.verify._sphere_cells",
        "freeradial.verify.oracle_mu_table",
        "freeradial.cli.identities",
    ):
        assert name in found
    offenders = [
        name for name, fn in found.items() if "cap" in inspect.signature(fn).parameters
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("algebra", "adjoint"),
        ("algebra", "trace"),
        ("algebra", "l2_norm_sq"),
        ("words", "inverse"),
        ("radial", "radial_norm_sq"),
        ("counting", "nu_single"),
        ("counting", "CountTable"),
        ("counting", "count_table"),
        ("counting", "full_letter_set"),
        ("radial", "expect_word"),
        ("verify", "oracle_mu"),
        ("verify", "oracle_nu"),
        ("words", "canonical_key"),
        ("words", "letter_key"),
        ("freeproduct", "fp_concat"),
    ],
)
def test_alias_removed(module, name):
    assert not hasattr(importlib.import_module(f"freeradial.{module}"), name)
    assert not hasattr(freeradial, name)


def test_radial_rank_check_is_the_shared_one():
    assert not hasattr(RadialElement, "_binary_check")


def test_rank_message_is_built_in_one_module():
    counts = {m.__name__: inspect.getsource(m).count("rank mismatch") for m in MODULES}
    assert {name: c for name, c in counts.items() if c} == {"freeradial.words": 1}


RANK_WORD, RANK_ELEMENT, RANK_RADIAL = (
    lambda k: ReducedWord(k, (1,)),
    lambda k: AlgebraElement.from_word(ReducedWord(k, (1,))),
    lambda k: RadialElement.basis(k, 1),
)


@pytest.mark.parametrize(
    "make, call",
    [
        (RANK_WORD, concat),
        (RANK_WORD, operator.mul),
        (RANK_ELEMENT, operator.add),
        (RANK_ELEMENT, mul),
        (RANK_ELEMENT, inner),
        (RANK_RADIAL, operator.add),
        (RANK_RADIAL, radial_mul),
        (RANK_WORD, lambda x, y: expect_xwny(x, y, 3)),
        (RANK_WORD, lambda x, y: deviation(x, y, 3)),
        (RANK_WORD, lambda x, y: mu(0, 0, 4, x, y)),
        (RANK_WORD, lambda x, y: sandwich_counts(x, y, 3)),
        (RANK_WORD, lambda x, y: oracle_expect(x, y, 3)),
    ],
    ids=[
        "concat", "ReducedWord.__mul__", "AlgebraElement.__add__", "mul", "inner",
        "RadialElement.__add__", "radial_mul", "expect_xwny", "deviation", "mu",
        "sandwich_counts", "oracle_expect",
    ],
)
@pytest.mark.parametrize("left, right", [(2, 3), (3, 2)])
def test_every_binary_entry_names_both_ranks_in_order(make, call, left, right):
    with pytest.raises(RankMismatchError) as info:
        call(make(left), make(right))
    assert str(info.value) == f"rank mismatch: {left} vs {right}"


def test_caches_are_listed_and_bounded():
    # the only module-level state: the per-pair sandwich statistics, 8
    # entries; the stateless test below sees only dict, list and set globals
    caches = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if hasattr(member, "cache_parameters"):
                    qualified = ".".join(filter(None, (module.__name__, name, attr)))
                    caches[qualified] = member.cache_parameters()["maxsize"]
    assert caches == {"freeradial.counting._pair_stats": 8}


# Runs in a fresh interpreter, so state left behind by other tests cannot
# hide a global that a call fills.
STATELESS_SCRIPT = """
import copy, importlib, json, pkgutil
import freeradial
from freeradial import verify
from freeradial.words import parse_word

def mutable_globals():
    for info in pkgutil.iter_modules(freeradial.__path__):
        module = importlib.import_module(f"freeradial.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (dict, list, set)):
                yield f"{module.__name__}.{name}", value

before = {name: (value, copy.deepcopy(value)) for name, value in mutable_globals()}
verify.run_suite(k=2, n_max=6)
x, y = parse_word("g1 g2", 2), parse_word("g2^-1", 2)
verify.oracle_mu_table(x, y, 6)
verify.oracle_expect(x, y, 6)
after = dict(mutable_globals())
changed = sorted(
    name for name in before.keys() | after.keys()
    if name not in before or name not in after
    or after[name] is not before[name][0] or after[name] != before[name][1]
)
print(json.dumps({"seen": sorted(before), "changed": changed}))
"""


def test_no_module_state_changes_across_calls():
    src = str(Path(freeradial.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", STATELESS_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # the walk sees the module globals (the check table is one of them)
    assert "freeradial.verify.CHECKS" in result["seen"]
    assert result["changed"] == []
