"""The package namespace is exactly the union of the modules' ``__all__``."""

from __future__ import annotations

import importlib
from fractions import Fraction

import arithproj

MODULES = (
    "chains",
    "errors",
    "groups",
    "instances",
    "kakeya",
    "patterns",
    "proofs",
    "sampling",
    "search",
)


def test_namespace_is_union_of_module_exports():
    expected = set()
    for name in MODULES:
        module = importlib.import_module(f"arithproj.{name}")
        expected.update(module.__all__)
        for attr in module.__all__:
            assert getattr(arithproj, attr) is getattr(module, attr), attr
    assert set(arithproj.__all__) == expected


def test_ladder_exponents_exported():
    from arithproj import FOUR_SLICE_EXPONENT, THREE_SLICE_EXPONENT

    assert (THREE_SLICE_EXPONENT, FOUR_SLICE_EXPONENT) == (
        Fraction(11, 6),
        Fraction(7, 4),
    )
