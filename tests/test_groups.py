"""Ambient group arithmetic."""

from __future__ import annotations

import random

import pytest

from arithproj.groups import AmbientGroup


def test_integer_group_arithmetic():
    g = AmbientGroup.integers()
    assert g.modulus is None
    assert g.add(3, -5) == -2
    assert g.sub(3, -5) == 8
    assert g.scale(2, -4) == -8
    assert g.canon(-123) == -123
    assert g.is_canonical(-123)


def test_modular_group_arithmetic():
    g = AmbientGroup.integers_mod(12)
    assert g.modulus == 12
    assert g.add(7, 8) == 3
    assert g.sub(2, 5) == 9
    assert g.scale(5, 11) == 7
    assert g.canon(-1) == 11
    assert g.is_canonical(11)
    assert not g.is_canonical(12)
    assert not g.is_canonical(-1)


def test_modulus_must_be_at_least_two():
    with pytest.raises(ValueError):
        AmbientGroup.integers_mod(1)
    with pytest.raises(ValueError):
        AmbientGroup.integers_mod(0)
    with pytest.raises(ValueError):
        AmbientGroup.integers_mod(-5)


def test_group_json_round_trip():
    for g in (AmbientGroup.integers(), AmbientGroup.integers_mod(9)):
        assert AmbientGroup.from_json(g.to_json()) == g
    assert AmbientGroup.integers().to_json() == "Z"
    assert AmbientGroup.integers_mod(9).to_json() == {"mod": 9}


def test_group_axioms_random():
    rng = random.Random(20)
    for _ in range(200):
        g = (
            AmbientGroup.integers()
            if rng.random() < 0.5
            else AmbientGroup.integers_mod(rng.randrange(2, 50))
        )
        x, y, z = (g.canon(rng.randrange(-100, 100)) for _ in range(3))
        assert g.add(x, g.add(y, z)) == g.add(g.add(x, y), z)
        assert g.add(x, y) == g.add(y, x)
        assert g.add(g.sub(x, y), y) == x
        assert g.scale(3, x) == g.add(x, g.add(x, x))
