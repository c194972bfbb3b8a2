"""Package-wide shape: the size caps are fixed constants, so no function
or method takes a per-call cap, and the removed aliases stay removed."""

import importlib
import inspect
import pkgutil

import click
import pytest

import freeradial

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
        "freeradial.verify._wn",
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
        ("verify", "oracle_mu"),
        ("verify", "oracle_nu"),
    ],
)
def test_alias_removed(module, name):
    assert not hasattr(importlib.import_module(f"freeradial.{module}"), name)
    assert not hasattr(freeradial, name)
