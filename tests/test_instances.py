"""Instances, projections, hypotheses, and the difference-injective reduction."""

from __future__ import annotations

import json
import random

import pytest

from arithproj.errors import HypothesisViolated, MalformedInstance
from arithproj.groups import AmbientGroup
from arithproj.instances import (
    DIFFERENCE,
    SKEW_SUM,
    SUM,
    Instance,
    LinearForm,
    budgeted_slices,
    load_instance,
    project,
    reduce_to_difference_injective,
    require_hypotheses,
    save_instance,
    slice_sizes,
)
from arithproj.sampling import random_instance
from oracles import is_difference_injective

Z = AmbientGroup.integers()


def small_instance() -> Instance:
    return Instance(
        group=Z,
        a_set=(0, 1, 3),
        b_set=(0, 1, 3),
        pairs=((0, 1), (0, 3), (1, 0), (1, 3), (3, 0), (3, 1)),
    )


def test_linear_form_values():
    def projected(group, form, pair):
        inst = Instance(group=group, a_set=(pair[0],), b_set=(pair[1],), pairs=(pair,))
        return project(inst, form)

    assert SUM(4, 5) == 9
    assert DIFFERENCE(4, 5) == -1
    assert SKEW_SUM(4, 5) == 14
    assert LinearForm(3, -2)(1, 1) == 1
    assert LinearForm(3, -2)(1, 5) == -7
    # project takes the same values over Z and reduces them mod m
    assert projected(Z, SKEW_SUM, (4, 5)) == {14}
    assert projected(Z, DIFFERENCE, (4, 5)) == {-1}
    assert projected(Z, LinearForm(3, -2), (1, 5)) == {-7}
    m = AmbientGroup.integers_mod(7)
    assert projected(m, SKEW_SUM, (4, 5)) == {0}
    assert projected(m, DIFFERENCE, (4, 5)) == {6}
    assert projected(m, LinearForm(3, -2), (1, 5)) == {0}
    with pytest.raises(ValueError):
        LinearForm(0, 0)
    # the budgeted slices, in report order; D only under with_d
    assert budgeted_slices() == {
        "A": LinearForm(1, 0), "B": LinearForm(0, 1), "C": SUM,
    }
    assert budgeted_slices(with_d=True) == {**budgeted_slices(), "D": SKEW_SUM}
    assert list(budgeted_slices(with_d=True)) == ["A", "B", "C", "D"]


def test_instance_sorts_and_dedupes():
    inst = Instance(
        group=Z, a_set=(3, 0, 3), b_set=(1, 1, 0), pairs=((3, 1), (0, 0), (3, 1))
    )
    assert inst.a_set == (0, 3)
    assert inst.b_set == (0, 1)
    assert inst.pairs == ((0, 0), (3, 1))


def test_instance_validation_errors():
    with pytest.raises(MalformedInstance):
        Instance(group=Z, a_set=(), b_set=(0,), pairs=())
    with pytest.raises(MalformedInstance):
        Instance(group=Z, a_set=(0,), b_set=(), pairs=())
    with pytest.raises(MalformedInstance):
        Instance(group=Z, a_set=(0,), b_set=(0,), pairs=((0, 1),))
    with pytest.raises(MalformedInstance):
        Instance(group=Z, a_set=(True,), b_set=(0,), pairs=())
    m = AmbientGroup.integers_mod(5)
    with pytest.raises(MalformedInstance):
        Instance(group=m, a_set=(5,), b_set=(0,), pairs=())
    with pytest.raises(MalformedInstance):
        Instance(group=m, a_set=(-1,), b_set=(0,), pairs=())


def test_empty_relation_is_allowed():
    inst = Instance(group=Z, a_set=(0,), b_set=(0,), pairs=())
    assert inst.pairs == ()
    assert project(inst, SUM) == frozenset()


def test_partners():
    inst = small_instance()
    partners = inst.partners()
    assert partners == {0: (1, 3), 1: (0, 3), 3: (0, 1)}


def test_projections_frozen():
    inst = small_instance()
    assert project(inst, SUM) == frozenset({1, 3, 4})
    assert project(inst, SKEW_SUM) == frozenset({1, 2, 3, 5, 6, 7})
    assert project(inst, DIFFERENCE) == frozenset({-3, -2, -1, 1, 2, 3})


def test_projection_modular_wraps():
    m = AmbientGroup.integers_mod(4)
    inst = Instance(group=m, a_set=(3,), b_set=(2, 3), pairs=((3, 2), (3, 3)))
    assert project(inst, SUM) == frozenset({1, 2})
    assert project(inst, DIFFERENCE) == frozenset({0, 1})


def test_json_file_round_trip(tmp_path):
    inst = small_instance()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst
    doc = json.loads(path.read_text())
    assert set(doc) == {"group", "A", "B", "G"}
    assert doc["group"] == "Z"


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": "Z", "A": [0], "B": [0]}))
    with pytest.raises(MalformedInstance):
        load_instance(path)
    path.write_text(json.dumps({"group": "Z", "A": [0], "B": [0], "G": [[0, 1]]}))
    with pytest.raises(MalformedInstance):
        load_instance(path)


def test_hypothesis_report():
    inst = small_instance()
    assert slice_sizes(inst) == {"A": 3, "B": 3, "C": 3}
    assert require_hypotheses(inst, 3) == {"A": 3, "B": 3, "C": 3}

    assert slice_sizes(inst, with_d=True) == {"A": 3, "B": 3, "C": 3, "D": 6}
    with pytest.raises(HypothesisViolated, match=r"\['D'\]"):
        require_hypotheses(inst, 3, with_d=True)

    assert require_hypotheses(inst, 6, with_d=True)["D"] == 6
    with pytest.raises(ValueError):
        require_hypotheses(inst, 0)


def test_require_hypotheses_raises():
    inst = small_instance()
    require_hypotheses(inst, 3)
    with pytest.raises(HypothesisViolated):
        require_hypotheses(inst, 2)
    with pytest.raises(HypothesisViolated):
        require_hypotheses(inst, 3, with_d=True)


def test_difference_injective_detection():
    assert is_difference_injective(small_instance())
    inst = Instance(group=Z, a_set=(0, 1), b_set=(0, 1), pairs=((0, 0), (1, 1)))
    assert not is_difference_injective(inst)


def test_reduce_keeps_lex_smallest_pair():
    inst = Instance(
        group=Z, a_set=(0, 1, 2), b_set=(0, 1, 2), pairs=((0, 0), (1, 1), (2, 1))
    )
    reduced = reduce_to_difference_injective(inst)
    # differences 0, 0, 1: the tie at 0 resolves to (0, 0)
    assert reduced.pairs == ((0, 0), (2, 1))
    assert reduced.a_set == inst.a_set
    assert reduced.b_set == inst.b_set


def test_reduce_returns_injective_instance_itself():
    inst = small_instance()
    assert is_difference_injective(inst)
    assert reduce_to_difference_injective(inst) is inst
    clash = Instance(
        group=Z, a_set=(0, 1, 2), b_set=(0, 1, 2), pairs=((0, 0), (1, 1), (2, 1))
    )
    reduced = reduce_to_difference_injective(clash)
    assert reduced is not clash
    assert isinstance(reduced, Instance)
    assert len(reduced.pairs) < len(clash.pairs)
    assert reduce_to_difference_injective(reduced) is reduced


def test_reduce_properties_random():
    rng = random.Random(42)
    for _ in range(300):
        inst = random_instance(rng)
        reduced = reduce_to_difference_injective(inst)
        assert is_difference_injective(reduced)
        assert set(reduced.pairs) <= set(inst.pairs)
        assert project(reduced, DIFFERENCE) == project(inst, DIFFERENCE)
        assert len(reduced.pairs) == len(project(inst, DIFFERENCE))
        assert reduce_to_difference_injective(reduced) == reduced
        # sum and skew projections can only shrink
        assert project(reduced, SUM) <= project(inst, SUM)
        assert project(reduced, SKEW_SUM) <= project(inst, SKEW_SUM)


def test_reduce_builds_the_validated_instance():
    """The reduction skips validation; its result is what validation gives."""
    rng = random.Random(1)
    modular = dropped = 0
    for _ in range(2000):
        inst = random_instance(rng, max_side=12)
        reduced = reduce_to_difference_injective(inst)
        validated = Instance(
            group=inst.group, a_set=inst.a_set, b_set=inst.b_set, pairs=reduced.pairs
        )
        assert reduced == validated and hash(reduced) == hash(validated)
        assert reduce_to_difference_injective(reduced) is reduced
        modular += inst.group.modulus is not None
        dropped += reduced is not inst
    # both group kinds, and enough dropped pairs to exercise the fast path
    assert modular > 800 and dropped > 800


def test_random_instance_shape():
    rng = random.Random(5)
    saw_modular = saw_integers = saw_empty = False
    for _ in range(200):
        inst = random_instance(rng, max_side=6)
        assert 1 <= len(inst.a_set) <= 6
        assert 1 <= len(inst.b_set) <= 6
        assert all(a in set(inst.a_set) and b in set(inst.b_set) for a, b in inst.pairs)
        saw_modular = saw_modular or inst.group.modulus is not None
        saw_integers = saw_integers or inst.group.modulus is None
        saw_empty = saw_empty or not inst.pairs
    assert saw_modular and saw_integers and saw_empty


@pytest.mark.parametrize(
    "modulus, twin, with_d",
    # over Z/3, a - b = a + 2b; over Z/2, a - b = a + b
    [(3, SKEW_SUM, True), (2, SUM, False)],
)
def test_torsion_difference_is_a_budgeted_slice(modulus, twin, with_d):
    """The difference set is a budgeted slice, so the exponent is at most 1."""
    rng = random.Random(modulus)
    group = AmbientGroup.integers_mod(modulus)
    for _ in range(300):
        a_set = rng.sample(range(modulus), rng.randrange(1, modulus + 1))
        b_set = rng.sample(range(modulus), rng.randrange(1, modulus + 1))
        density = rng.random()
        pairs = tuple((a, b) for a in a_set for b in b_set if rng.random() < density)
        inst = Instance(group=group, a_set=tuple(a_set), b_set=tuple(b_set), pairs=pairs)
        differences = project(inst, DIFFERENCE)
        assert differences == project(inst, twin)
        assert len(differences) <= max(slice_sizes(inst, with_d=with_d).values())


def test_torsion_z3_needs_the_skew_slice():
    """Over Z/3 three differences fit in A, B and C of size 2; D has all three."""
    inst = Instance(
        group=AmbientGroup.integers_mod(3),
        a_set=(0, 1),
        b_set=(0, 1),
        pairs=((0, 0), (0, 1), (1, 0)),
    )
    assert len(project(inst, DIFFERENCE)) == 3
    assert slice_sizes(inst) == {"A": 2, "B": 2, "C": 2}
    assert slice_sizes(inst, with_d=True)["D"] == 3
