"""Digit patterns, carry-free bases, and tensor constructions."""

from __future__ import annotations

import itertools
import random

import pytest

import frozen
from arithproj.errors import InstanceTooLarge, InvalidBase
from arithproj.groups import ELEMENT_MAGNITUDE_CAP
from arithproj.instances import DIFFERENCE, SKEW_SUM, SUM, Instance, project
from arithproj.patterns import (
    EXAMPLE_ONE_PATTERN,
    EXAMPLE_TWO_PATTERN,
    DigitPattern,
    build_example_one,
    build_example_two,
    max_slice,
    min_base,
    tensor_pattern,
    tensor_sizes,
)


def test_pattern_validation():
    with pytest.raises(ValueError):
        DigitPattern(pairs=())
    with pytest.raises(ValueError):
        DigitPattern(pairs=((-1, 0),))
    p = DigitPattern(pairs=((1, 2), (0, 0), (1, 2)))
    assert p.pairs == ((0, 0), (1, 2))
    # constrain_d takes the rule from_json_dict applies
    for flag in (1, "no", None):
        with pytest.raises(ValueError, match="constrain_d must be a boolean"):
            DigitPattern(pairs=((0, 0),), constrain_d=flag)


def test_example_one_pattern_frozen():
    p = EXAMPLE_ONE_PATTERN
    assert p.pairs == ((0, 1), (0, 3), (1, 0), (1, 3), (3, 0), (3, 1))
    assert not p.constrain_d
    assert p.slices == {"A": (0, 1, 3), "B": (0, 1, 3), "C": (1, 3, 4)}
    assert p.difference_slice == (-3, -2, -1, 1, 2, 3)
    assert p.difference_injective
    assert min_base(p) == 7

    assert len(p.pairs) == 6
    assert {len(values) for values in p.slices.values()} == {3}
    assert max_slice(p.pairs, p.constrain_d) == 3


def test_example_two_pattern_frozen():
    p = EXAMPLE_TWO_PATTERN
    assert p.pairs == (
        (0, 2),
        (0, 3),
        (2, 1),
        (2, 2),
        (2, 3),
        (3, 1),
        (4, 0),
        (4, 1),
    )
    assert p.constrain_d
    assert p.slices == {
        "A": (0, 2, 3, 4),
        "B": (0, 1, 2, 3),
        "C": (2, 3, 4, 5),
        "D": (4, 5, 6, 8),
    }
    assert len(p.difference_slice) == 8
    assert p.difference_injective
    assert min_base(p) == 9

    assert len(p.pairs) == 8
    assert max_slice(p.pairs, p.constrain_d) == 4


def test_min_base_cases():
    # single cell: base 2 floor
    assert min_base(DigitPattern(pairs=((0, 0),))) == 2
    # sums force the radix past max(x + y)
    assert min_base(DigitPattern(pairs=((3, 3),))) == 7
    # the skew slice only matters when constrained
    assert min_base(DigitPattern(pairs=((1, 2),))) == 4
    assert min_base(DigitPattern(pairs=((1, 2),), constrain_d=True)) == 6
    # difference spread can dominate the sums
    wide = DigitPattern(pairs=((0, 3), (3, 0)))
    assert min_base(wide) == 7


def test_pattern_json_round_trip():
    for p in (EXAMPLE_ONE_PATTERN, EXAMPLE_TWO_PATTERN):
        doc = p.to_json_dict()
        assert set(doc) == {"pairs", "constrain_d"}
        assert DigitPattern.from_json_dict(doc) == p


def test_tensor_sizes_match_enumeration():
    for pattern in (EXAMPLE_ONE_PATTERN, EXAMPLE_TWO_PATTERN):
        for n in (1, 2, 3, 4):
            inst = tensor_pattern(pattern, n)
            expected = tensor_sizes(pattern, n)
            assert len(inst.a_set) == expected["A"]
            assert len(inst.b_set) == expected["B"]
            assert len(inst.pairs) == expected["G"]
            assert len(project(inst, SUM)) == expected["C"]
            assert len(project(inst, DIFFERENCE)) == expected["differences"]
            if pattern.constrain_d:
                assert len(project(inst, SKEW_SUM)) == expected["D"]


def test_tensor_sizes_random_patterns():
    rng = random.Random(53)
    for _ in range(25):
        cells = rng.sample(
            [(x, y) for x in range(4) for y in range(4)], rng.randrange(1, 7)
        )
        pattern = DigitPattern(pairs=tuple(cells), constrain_d=bool(rng.random() < 0.5))
        for n in (1, 2):
            inst = tensor_pattern(pattern, n)
            expected = tensor_sizes(pattern, n)
            assert len(inst.a_set) == expected["A"]
            assert len(inst.b_set) == expected["B"]
            assert len(inst.pairs) == expected["G"]
            assert len(project(inst, SUM)) == expected["C"]
            assert len(project(inst, DIFFERENCE)) == expected["differences"]
            if pattern.constrain_d:
                assert len(project(inst, SKEW_SUM)) == expected["D"]
                assert "D" in expected
            else:
                assert "D" not in expected
        assert max_slice(pattern.pairs, pattern.constrain_d) == max(
            len(values) for values in pattern.slices.values()
        )


def test_injectivity_lifts_to_tensors():
    rng = random.Random(59)
    checked = 0
    while checked < 20:
        cells = rng.sample(
            [(x, y) for x in range(4) for y in range(4)], rng.randrange(1, 6)
        )
        pattern = DigitPattern(pairs=tuple(cells))
        if not pattern.difference_injective:
            continue
        checked += 1
        for n in (1, 2, 3):
            inst = tensor_pattern(pattern, n)
            assert len(project(inst, DIFFERENCE)) == len(inst.pairs)


def test_carry_free_base_is_tight():
    """One below the carry-free radix collapses the difference count."""
    base = 6  # min_base is 7; the difference spread 6 needs base > 6
    diffs = set()
    for combo in itertools.product(EXAMPLE_ONE_PATTERN.pairs, repeat=2):
        a = sum(x * base**i for i, (x, _) in enumerate(combo))
        b = sum(y * base**i for i, (_, y) in enumerate(combo))
        diffs.add(a - b)
    assert len(diffs) < 36


def test_constructed_instances_pass_hypotheses():
    from arithproj.instances import require_hypotheses

    for n in (1, 2, 3):
        assert require_hypotheses(build_example_one(n), 3**n) == {
            "A": 3**n, "B": 3**n, "C": 3**n,
        }
        assert require_hypotheses(build_example_two(n), 4**n, with_d=True) == {
            "A": 4**n, "B": 4**n, "C": 4**n, "D": 4**n,
        }


def test_tensor_pattern_errors():
    with pytest.raises(ValueError):
        tensor_pattern(EXAMPLE_ONE_PATTERN, 0)
    with pytest.raises(InvalidBase):
        tensor_pattern(EXAMPLE_ONE_PATTERN, 2, base=5)
    with pytest.raises(InstanceTooLarge):
        tensor_pattern(EXAMPLE_ONE_PATTERN, 8)  # 6**8 pairs exceed the 10**6 cap


def test_tensor_magnitude_cap_edge():
    # one digit of 2**63 - 1 needs base 2**63, so the largest element is
    # exactly the cap at one digit and far above it at two
    widest = DigitPattern(((0, 2**63 - 1),))
    inst = tensor_pattern(widest, 1)
    assert max(inst.b_set) == ELEMENT_MAGNITUDE_CAP
    assert inst.pairs == ((0, ELEMENT_MAGNITUDE_CAP),)
    with pytest.raises(InstanceTooLarge):
        tensor_pattern(widest, 2)
    # the all-zero pattern never reaches the magnitude cap, so the 63-digit
    # bound is what stops it; a huge length is rejected before any power
    zero = DigitPattern(((0, 0),))
    assert tensor_pattern(zero, 63).pairs == ((0, 0),)
    with pytest.raises(InstanceTooLarge):
        tensor_pattern(zero, 64)
    with pytest.raises(InstanceTooLarge):
        tensor_pattern(EXAMPLE_ONE_PATTERN, 10**9)


def test_build_example_one():
    inst = build_example_one(2)
    assert len(inst.pairs) == 36
    assert len(inst.a_set) == 9
    derived = tensor_pattern(EXAMPLE_ONE_PATTERN, 2, base=7)
    assert inst == derived
    with pytest.raises(InvalidBase):
        build_example_one(1, base=6)
    # a larger base is allowed and preserves all the counts
    big = build_example_one(2, base=11)
    assert len(big.pairs) == 36
    assert len(project(big, SUM)) == 9


def test_build_example_two():
    inst = build_example_two(2)
    assert len(inst.pairs) == 64
    assert len(project(inst, SKEW_SUM)) == 16
    with pytest.raises(InvalidBase):
        build_example_two(1, base=8)


def test_digit_elements_decode_positionally():
    """Tensor elements are little-endian digit strings of pattern cells."""
    inst = build_example_one(2)
    pair_set = set(EXAMPLE_ONE_PATTERN.pairs)
    for a, b in inst.pairs:
        digits_a = (a % 7, a // 7)
        digits_b = (b % 7, b // 7)
        for da, db in zip(digits_a, digits_b):
            assert (da, db) in pair_set


def test_exponent_none_when_degenerate():
    flat = DigitPattern(pairs=((0, 0),))
    assert max_slice(flat.pairs, flat.constrain_d) == 1
    dup = DigitPattern(pairs=((0, 0), (1, 1)))
    assert not dup.difference_injective


def test_all_pairs_distinct_in_tensor():
    # 6^3 pair strings give 6^3 distinct element pairs: no collisions
    inst = tensor_pattern(EXAMPLE_ONE_PATTERN, 3)
    assert len(inst.pairs) == 6**3
    assert len(set(inst.pairs)) == 6**3


def test_tensor_pattern_equals_the_validated_instance():
    """tensor_pattern skips Instance validation; Instance(...) over the same
    pairs, handed over in reverse with A and B unsorted, stores the same
    sorted, distinct, integral parts."""
    cases = [(EXAMPLE_ONE_PATTERN, n) for n in (1, 2, 3, 4)]
    cases += [(EXAMPLE_TWO_PATTERN, n) for n in (1, 2, 3, 4)]
    for witnesses, constrain_d in (
        (frozen.K5_WITNESSES, False),
        (frozen.K5_CONSTRAINED_WITNESSES, True),
    ):
        cases += [
            (DigitPattern(pairs, constrain_d=constrain_d), n)
            for pairs in sorted(witnesses)
            for n in (1, 2, 3)
        ]
    for pattern, n in cases:
        inst = tensor_pattern(pattern, n)
        pairs = inst.pairs[::-1]
        validated = Instance(
            group=inst.group,
            a_set=tuple({a for a, _ in pairs}),
            b_set=tuple({b for _, b in pairs}),
            pairs=pairs,
        )
        assert inst == validated
        assert len(inst.pairs) == len(pattern.pairs) ** n


def test_tensor_sets_are_the_sorted_projections_of_g():
    """A and B, built digit by digit from the sorted digit alphabets, are
    the sorted coordinate projections of the pairs, at min_base and above."""
    rng = random.Random(67)
    for _ in range(60):
        cells = rng.sample(
            [(x, y) for x in range(6) for y in range(6)], rng.randrange(1, 9)
        )
        pattern = DigitPattern(pairs=tuple(cells), constrain_d=bool(rng.random() < 0.5))
        n = rng.randrange(1, 4)
        base = min_base(pattern) + rng.choice((0, 0, 1, 5))
        inst = tensor_pattern(pattern, n, base=base)
        assert inst.a_set == tuple(sorted({a for a, _ in inst.pairs}))
        assert inst.b_set == tuple(sorted({b for _, b in inst.pairs}))
        assert len(inst.b_set) == len({y for _, y in pattern.pairs}) ** n
