"""Chain counting: naive oracle vs product enumeration and the dynamic program,
lower bound, filter, tensoring."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from arithproj.chains import (
    ChainProblem,
    Labeling,
    chain_count_dp,
    chain_count_naive,
    chain_lower_bound,
)
from arithproj.errors import EmptyLabelSet, EnumerationCapExceeded
from arithproj.sampling import random_chain_problem
from oracles import popular_filter, tensor_power


def two_step_problem() -> ChainProblem:
    # items 0..3; first labeling by parity, second collapses everything
    items = (0, 1, 2, 3)
    parity = Labeling({x: x % 2 for x in items}, label_count=2)
    constant = Labeling({x: 0 for x in items}, label_count=1)
    return ChainProblem(items=items, labelings=(parity, constant))


def test_hand_counted_example():
    problem = two_step_problem()
    # triples (x0, x1, x2): x0 ~parity~ x1 gives 2*2*2 = 8 ordered pairs,
    # then x2 is free, so 8 * 4 = 32
    assert chain_count_naive(problem) == 32
    assert chain_count_dp(problem) == 32
    assert chain_lower_bound(problem) == Fraction(4**3, 2 * 1)
    assert chain_count_dp(problem) >= chain_lower_bound(problem)


def test_single_step_square_sum():
    items = tuple(range(5))
    lab = Labeling({0: 0, 1: 0, 2: 1, 3: 1, 4: 2}, label_count=3)
    problem = ChainProblem(items=items, labelings=(lab,))
    # fibers of sizes 2, 2, 1: pairs = 4 + 4 + 1
    assert chain_count_dp(problem) == 9
    assert chain_count_naive(problem) == 9


def test_labeling_validation():
    with pytest.raises(EmptyLabelSet):
        Labeling({0: 0}, label_count=0)
    with pytest.raises(ValueError):
        Labeling({0: 0, 1: 1}, label_count=1)
    # empty assignment with zero labels is fine
    Labeling({}, label_count=0)


def test_label_count_must_be_int():
    # bool is an int subclass, but True is no label-set size
    for count in (2.5, True, "2"):
        with pytest.raises(ValueError):
            Labeling({0: 0}, count)


def test_problem_validation():
    with pytest.raises(ValueError):
        ChainProblem(items=(0, 0), labelings=(Labeling({0: 0}, 1),))
    with pytest.raises(ValueError):
        ChainProblem(items=(0, 1), labelings=(Labeling({0: 0}, 1),))


def test_zero_step_problem():
    problem = ChainProblem(items=(0, 1), labelings=())
    assert chain_count_dp(problem) == 2
    assert chain_count_naive(problem) == 2
    assert chain_lower_bound(problem) == 2


def test_naive_cap():
    items = tuple(range(40))
    lab = Labeling({x: 0 for x in items}, label_count=1)
    problem = ChainProblem(items=items, labelings=(lab, lab, lab))
    with pytest.raises(EnumerationCapExceeded):
        chain_count_naive(problem, cap=10**4)
    assert chain_count_dp(problem) == 40**4


def test_dp_equals_naive_random():
    rng = random.Random(11)
    for _ in range(150):
        problem = random_chain_problem(rng, max_items=8, max_steps=5)
        assert chain_count_dp(problem) == chain_count_naive(problem)


def product_count(problem: ChainProblem) -> int:
    """Reference count: test the chain condition on every (n+1)-tuple."""
    maps = [lab.assignment for lab in problem.labelings]
    return sum(
        all(m[tup[i]] == m[tup[i + 1]] for i, m in enumerate(maps))
        for tup in itertools.product(problem.items, repeat=problem.steps + 1)
    )


def test_naive_equals_product_enumeration():
    rng = random.Random(19)
    for _ in range(150):
        # six items keep the 6**6 tuples of five steps cheap to enumerate
        problem = random_chain_problem(rng, max_items=6, max_steps=5)
        assert chain_count_naive(problem) == product_count(problem)
    empty = ChainProblem(items=(), labelings=(Labeling({}, 0),))
    assert chain_count_naive(empty) == product_count(empty) == 0


def test_naive_matches_labels_by_identity_or_equality():
    # list.index and list.count match a label that is the same object, as
    # the DP's dict fibers and Labeling's label set do, even when == says no
    nan = float("nan")
    problem = ChainProblem(items=(0, 1, 2), labelings=(Labeling({0: nan, 1: nan, 2: 1}, 2),))
    assert chain_count_naive(problem) == chain_count_dp(problem) == 5

    class NeverEqual:
        def __eq__(self, other):
            return False

        __hash__ = object.__hash__

    a, b = NeverEqual(), NeverEqual()
    lab = Labeling({0: a, 1: a, 2: b, 3: a}, 2)
    problem = ChainProblem(items=(0, 1, 2, 3), labelings=(lab, lab))
    # fibers of sizes 3 and 1: 27 + 1 triples
    assert chain_count_naive(problem) == chain_count_dp(problem) == 28


def test_naive_edge_shapes_match_product_enumeration():
    items = (0, 1, 2, 3, 4)
    by_tuple = Labeling({x: (x % 2, "t") for x in items}, 2)
    by_str = Labeling({x: "ab"[x < 2] for x in items}, 2)
    # only the last item carries True: after it, the only match is the last item
    last_alone = Labeling({x: x == 4 for x in items}, 2)
    constant = Labeling(dict.fromkeys(items, 0), 1)
    distinct = Labeling({x: x for x in items}, 5)
    proxy = Labeling(MappingProxyType({x: x % 3 for x in items}), 3)
    problems = [
        ChainProblem(items=items, labelings=()),
        ChainProblem(items=items, labelings=(by_tuple,)),
        ChainProblem(items=items, labelings=(by_str,)),
        ChainProblem(items=items, labelings=(distinct,)),
        ChainProblem(items=items, labelings=(by_tuple, by_str, by_tuple)),
        ChainProblem(items=items, labelings=(last_alone, by_tuple)),
        ChainProblem(items=items, labelings=(by_str, last_alone, by_tuple)),
        ChainProblem(items=items, labelings=(by_tuple, constant, by_str)),
        ChainProblem(items=items, labelings=(by_tuple, last_alone, by_str, constant)),
        ChainProblem(items=items, labelings=(by_str, by_tuple, distinct, last_alone, by_tuple)),
        ChainProblem(items=items, labelings=(proxy, by_str)),
        ChainProblem(items=items, labelings=(proxy, by_str, proxy)),
        ChainProblem(items=(), labelings=(Labeling({}, 0),)),
        ChainProblem(items=(), labelings=(Labeling({}, 0),) * 3),
    ]
    for problem in problems:
        assert chain_count_naive(problem) == product_count(problem) == chain_count_dp(problem)
    # zero steps count the items; one step sums the squared fibers 3**2 + 2**2,
    # or 1 per item when every label is distinct
    assert [chain_count_naive(p) for p in problems[:4]] == [5, 13, 13, 5]


def test_naive_dense_closed_form():
    # fibers of x % 3 over 200 items have sizes 67, 67 and 66
    items = tuple(range(200))
    lab = Labeling({x: x % 3 for x in items}, 3)
    problem = ChainProblem(items=items, labelings=(lab, lab))
    assert chain_count_naive(problem) == 2 * 67**3 + 66**3 == 889_022


def test_naive_long_chain_is_iterative():
    # far deeper than the default recursion limit, and within the cap
    steps = 5000
    lab = Labeling({"x": 0}, label_count=1)
    problem = ChainProblem(items=("x",), labelings=(lab,) * steps)
    assert chain_count_naive(problem) == 1


def test_lower_bound_random():
    rng = random.Random(13)
    for _ in range(400):
        problem = random_chain_problem(rng)
        assert chain_count_dp(problem) >= chain_lower_bound(problem)


def test_popular_filter_frozen():
    items = range(6)
    assignment = {0: "x", 1: "x", 2: "x", 3: "x", 4: "y", 5: "z"}
    # threshold is #X / (2 #labels) = 6/6 = 1: everything survives
    assert popular_filter(items, assignment, {"x", "y", "z"}) == frozenset(range(6))
    # with label budget 1 the threshold is 3, so only the x fiber survives
    assert popular_filter(items, assignment, 1) == frozenset({0, 1, 2, 3})


def test_popular_filter_keeps_half():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 60)
        labels = rng.randrange(1, 10)
        assignment = {i: rng.randrange(labels) for i in range(n)}
        survivors = popular_filter(range(n), assignment, labels)
        assert 2 * len(survivors) >= n
        for x in survivors:
            fiber = sum(1 for y in range(n) if assignment[y] == assignment[x])
            assert 2 * labels * fiber >= n


def test_popular_filter_empty_inputs():
    assert popular_filter((), {}, 3) == frozenset()
    with pytest.raises(EmptyLabelSet):
        popular_filter((0,), {0: 0}, 0)


def test_tensor_power_multiplicative():
    problem = two_step_problem()
    base_count = chain_count_dp(problem)
    base_bound = chain_lower_bound(problem)
    for power in (1, 2, 3):
        tensored = tensor_power(problem, power)
        assert len(tensored.items) == len(problem.items) ** power
        assert chain_count_dp(tensored) == base_count**power
        assert chain_lower_bound(tensored) == base_bound**power
    with pytest.raises(ValueError):
        tensor_power(problem, 0)


def test_tensor_power_random():
    rng = random.Random(23)
    for _ in range(40):
        problem = random_chain_problem(rng, max_items=5, max_steps=2)
        for power in (2, 3):
            tensored = tensor_power(problem, power)
            assert chain_count_dp(tensored) == chain_count_dp(problem) ** power
