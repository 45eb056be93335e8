"""Pattern search: canonical forms, exact score comparison, frozen optima."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import random
import sys
import timeit

import pytest

import frozen
from arithproj.errors import ArithprojError
from arithproj.instances import DIFFERENCE, SLICES, LinearForm, budgeted_slices
from arithproj.patterns import (
    EXAMPLE_ONE_PATTERN,
    EXAMPLE_TWO_PATTERN,
    K7_CONSTRAINED_OPTIMA,
    DigitPattern,
    max_slice,
)
from arithproj.search import (
    SearchResult,
    SearchSpec,
    _primitive_power,
    canonicalize,
    certify,
    compare_scores,
    search,
)

# the package namespace binds ``search`` to the function, not the module
search_module = importlib.import_module("arithproj.search")


def test_canonicalize_translates_to_origin():
    p = DigitPattern(pairs=((2, 5), (3, 7)))
    c = canonicalize(p)
    assert c.pairs == ((0, 0), (1, 2))


def test_canonicalize_idempotent_and_orbit_invariant():
    rng = random.Random(61)
    for _ in range(200):
        cells = rng.sample(
            [(x, y) for x in range(5) for y in range(5)], rng.randrange(1, 8)
        )
        p = DigitPattern(pairs=tuple(cells))
        c = canonicalize(p)
        assert canonicalize(c) == c
        # built unchecked, it is already in the checked constructor's form
        assert c == DigitPattern(c.pairs) and hash(c) == hash(DigitPattern(c.pairs))
        # translations land on the same representative
        dx, dy = rng.randrange(4), rng.randrange(4)
        shifted = DigitPattern(pairs=tuple((x + dx, y + dy) for x, y in p.pairs))
        assert canonicalize(shifted) == c
        # so does the joint reflection
        mx = max(x for x, _ in p.pairs)
        my = max(y for _, y in p.pairs)
        mirrored = DigitPattern(pairs=tuple((mx - x, my - y) for x, y in p.pairs))
        assert canonicalize(mirrored) == c


def test_canonicalize_preserves_statistics():
    rng = random.Random(67)
    for _ in range(100):
        cells = rng.sample(
            [(x, y) for x in range(5) for y in range(5)], rng.randrange(1, 8)
        )
        p = DigitPattern(pairs=tuple(cells), constrain_d=True)
        c = canonicalize(p)
        assert {name: len(values) for name, values in p.slices.items()} == {
            name: len(values) for name, values in c.slices.items()
        }
        assert len(p.difference_slice) == len(c.difference_slice)
        assert p.difference_injective == c.difference_injective


def test_compare_scores_rational_cases():
    # ln4/ln2 = 2 = ln16/ln4
    assert compare_scores(4, 2, 16, 4) == 0
    # ln8/ln4 = 3/2 < ln4/ln2 = 2
    assert compare_scores(8, 4, 4, 2) == -1
    # count 1 scores zero
    assert compare_scores(1, 5, 2, 7) == -1
    assert compare_scores(1, 5, 1, 9) == 0


def test_compare_scores_mixed_cases():
    # log6/log3 = 1.6309... vs 3/2
    assert compare_scores(6, 3, 8, 4) == 1
    assert compare_scores(8, 4, 6, 3) == -1
    # log6/log3 vs 2 = log9/log3
    assert compare_scores(6, 3, 9, 3) == -1


def test_compare_scores_irrational_cases():
    # identical up to a common power: log6/log3 = log36/log9
    assert compare_scores(6, 3, 36, 9) == 0
    assert compare_scores(6, 3, 216, 27) == 0
    # genuinely distinct irrationals
    assert compare_scores(6, 3, 8, 5) == 1
    assert compare_scores(8, 5, 6, 3) == -1


def test_compare_scores_big_integers():
    assert compare_scores(6**500, 3**500, 8, 4) == 1
    assert compare_scores(6**500, 3**500, 36, 9) == 0
    q, r = 10**160 + 7, 10**170 + 3
    assert compare_scores(q * q, r * r, q, r) == 0
    # equal slices compare by count, equal counts by the smaller slice
    assert compare_scores(2**60 + 1, 2, 2**60 + 3, 2) == -1
    assert compare_scores(5, 2**60 + 1, 5, 2**60 + 3) == 1
    # log2(2**60 + 1) and log2(2**60 + 3) differ by less than 1e-17, but the
    # slices share the root 2 and the counts share the root 2 respectively
    assert compare_scores(2**60 + 1, 2, (2**60 + 3) ** 2, 4) == -1
    assert compare_scores(2, 2**60 + 1, 4, (2**60 + 3) ** 2) == 1
    # no shared root and log ratios closer than floats resolve: refused
    with pytest.raises(ArithprojError):
        compare_scores(2**60 + 1, 2, 3**60 + 1, 3)


def every_exponent_power(n: int) -> tuple[int, int]:
    """Reference primitive power: the largest exponent k with an integer root."""
    for k in range(n.bit_length() - 1, 1, -1):
        r = next(r for r in itertools.count(2) if r**k >= n)
        if r**k == n:
            return r, k
    return n, 1


def test_primitive_power_prime_exponents(monkeypatch):
    for n in range(2, 3000):
        assert _primitive_power(n) == every_exponent_power(n)
    assert _primitive_power(64) == (2, 6)
    assert _primitive_power(6**12) == (6, 12)
    assert _primitive_power(2**60) == (2, 60)
    assert _primitive_power(10) == (10, 1)
    big = 10**170 + 3
    assert _primitive_power(big**2) == (big, 2)
    # every exponent from 1129 down would take 1128 roots; prime exponents
    # take two square roots, then one root per odd prime below 565
    roots = []
    root = search_module._integer_root
    monkeypatch.setattr(
        search_module, "_integer_root", lambda n, k: roots.append(k) or root(n, k)
    )
    assert _primitive_power(big**2) == (big, 2)
    assert len(roots) == 104
    monkeypatch.undo()
    assert min(timeit.repeat(lambda: _primitive_power(big**2), number=1, repeat=3)) < 0.01


def test_compare_scores_grid_unchanged_by_prime_exponents(monkeypatch):
    grid = list(itertools.product(range(1, 13), range(2, 12)))
    got = [compare_scores(*a, *b) for a in grid for b in grid]
    monkeypatch.setattr(search_module, "_primitive_power", every_exponent_power)
    assert got == [compare_scores(*a, *b) for a in grid for b in grid]


def test_compare_scores_agrees_with_floats():
    rng = random.Random(71)
    for _ in range(400):
        c1, s1 = rng.randrange(1, 30), rng.randrange(2, 30)
        c2, s2 = rng.randrange(1, 30), rng.randrange(2, 30)
        got = compare_scores(c1, s1, c2, s2)
        r1 = math.log(c1) / math.log(s1)
        r2 = math.log(c2) / math.log(s2)
        if abs(r1 - r2) > 1e-9:
            assert got == (1 if r1 > r2 else -1)
        else:
            assert got == 0


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(alphabet_max=-1)
    with pytest.raises(ValueError):
        SearchSpec(alphabet_max=3, mode="greedy")
    # exhaustive mode walks the pruned tree, so it has no alphabet limit of its own
    SearchSpec(alphabet_max=5, mode="exhaustive")
    SearchSpec(alphabet_max=5, mode="branch-bound")
    for budget in (0, -5):
        with pytest.raises(ValueError):
            SearchSpec(alphabet_max=2, node_budget=budget)
    # values of the wrong type: a float budget used to count 3.5 nodes, a
    # float alphabet failed later in range, a truthy string ran four slices
    # and True ran K=1
    for wrong in (
        {"alphabet_max": 2.5},
        {"alphabet_max": True},
        {"alphabet_max": "3"},
        {"alphabet_max": None},
        {"alphabet_max": 2, "node_budget": 2.5},
        {"alphabet_max": 2, "node_budget": True},
        {"alphabet_max": 2, "constrain_d": "no"},
        {"alphabet_max": 2, "constrain_d": 1},
        {"alphabet_max": 2, "require_difference_injective": None},
    ):
        with pytest.raises(ValueError):
            SearchSpec(**wrong)


def test_degenerate_alphabet():
    result = search(SearchSpec(alphabet_max=0))
    assert result.best_exponent == 0.0
    assert result.witnesses == ()
    assert result.exhaustive


def test_k2_unconstrained():
    result = search(SearchSpec(alphabet_max=2))
    assert result.exhaustive
    assert abs(result.best_exponent - math.log(3) / math.log(2)) < 1e-12
    assert {w.pairs for w in result.witnesses} == {
        ((0, 0), (0, 1), (1, 0)),
        ((0, 0), (0, 2), (2, 0)),
    }


def test_k3_frozen_optimum():
    spec = SearchSpec(alphabet_max=3)
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K3_EXHAUSTIVE_NODES
    assert abs(result.best_exponent - frozen.K3_BEST_EXPONENT) < 1e-12
    assert {w.pairs for w in result.witnesses} == frozen.K3_WITNESSES
    # the unique extremal class is the first construction's pattern
    assert canonicalize(EXAMPLE_ONE_PATTERN).pairs in frozen.K3_WITNESSES
    report = certify(result, spec)
    assert report.ok and report.diagnostics == ()


def test_k4_constrained_frozen_optimum():
    spec = SearchSpec(alphabet_max=4, constrain_d=True)
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K4_EXHAUSTIVE_NODES
    assert result.best_exponent == frozen.K4_BEST_EXPONENT
    assert {w.pairs for w in result.witnesses} == frozen.K4_WITNESSES
    canon2 = canonicalize(
        DigitPattern(EXAMPLE_TWO_PATTERN.pairs, constrain_d=True)
    )
    assert canon2.pairs in frozen.K4_WITNESSES
    assert certify(result, spec).ok


def test_branch_bound_agrees_with_exhaustive():
    """Both modes share one prune, so each meets the walk that never prunes."""
    for alphabet_max, constrain in ((2, False), (3, False), (3, True), (4, True)):
        spec = SearchSpec(alphabet_max=alphabet_max, constrain_d=constrain)
        expected = reference_results(spec)[-1]
        for mode in ("exhaustive", "branch-bound"):
            got = search(dataclasses.replace(spec, mode=mode))
            assert got.exhaustive
            assert got.best_score == expected.best_score
            assert {w.pairs for w in got.witnesses} == {
                w.pairs for w in expected.witnesses
            }
            assert got.nodes_explored <= expected.nodes_explored


def test_exhaustive_node_counts_follow_the_group_sizes():
    """Exhaustive mode counts the full tree, whatever it prunes.

    A node before a group of s cells has 1 + s children: the skip and one
    per cell.  So the tree below the groups of sizes s_1..s_m has
    1 + (1 + s_1) * (nodes below s_2..s_m) nodes, and a leaf is one node.
    """
    counts = []
    for k in range(6):
        expected = 1
        for diagonal in range(k, -k - 1, -1):
            cells = k + 1 - abs(diagonal)
            expected = 1 + (1 + cells) * expected
        counts.append(expected)
        for constrain_d in (False, True):
            result = search(SearchSpec(alphabet_max=k, constrain_d=constrain_d))
            assert result.exhaustive
            assert result.nodes_explored == expected
    assert counts[3:] == [
        frozen.K3_EXHAUSTIVE_NODES,
        frozen.K4_EXHAUSTIVE_NODES,
        frozen.K5_EXHAUSTIVE_NODES,
    ]
    # with one cell per group, every node has two children
    for k in range(3):
        for constrain_d in (False, True):
            spec = SearchSpec(
                alphabet_max=k, constrain_d=constrain_d, require_difference_injective=False
            )
            assert search(spec).nodes_explored == 2 ** ((k + 1) ** 2 + 1) - 1


def test_branch_bound_frozen_node_counts():
    r3 = search(SearchSpec(alphabet_max=3, mode="branch-bound"))
    assert r3.nodes_explored == frozen.K3_BRANCH_BOUND_NODES
    r4 = search(SearchSpec(alphabet_max=4, constrain_d=True, mode="branch-bound"))
    assert r4.nodes_explored == frozen.K4_BRANCH_BOUND_NODES


def test_noninjective_frozen_walks():
    spec = SearchSpec(
        alphabet_max=3, mode="branch-bound", require_difference_injective=False
    )
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K3_NONINJECTIVE_BRANCH_BOUND_NODES
    assert {w.pairs for w in result.witnesses} == frozen.K3_WITNESSES
    witness = result.witnesses[0]
    assert (
        len(witness.difference_slice),
        max_slice(witness.pairs, witness.constrain_d),
    ) == frozen.K3_BEST_SCORE
    assert certify(result, spec).ok

    full = search(SearchSpec(alphabet_max=2, require_difference_injective=False))
    assert full.exhaustive
    assert full.nodes_explored == frozen.K2_NONINJECTIVE_EXHAUSTIVE_NODES


def test_k5_branch_bound_frozen_optimum():
    spec = SearchSpec(alphabet_max=5, mode="branch-bound")
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K5_BRANCH_BOUND_NODES
    assert abs(result.best_exponent - frozen.K5_BEST_EXPONENT) < 1e-12
    assert {w.pairs for w in result.witnesses} == frozen.K5_WITNESSES
    for witness in result.witnesses:
        assert (
            len(witness.pairs),
            max_slice(witness.pairs, witness.constrain_d),
        ) == frozen.K5_BEST_SCORE
    assert certify(result, spec).ok


def test_k5_exhaustive_finds_the_branch_bound_optima():
    """Exhaustive mode at K=5 reports the full tree and, in both slice sets,
    the best score and witnesses that branch-bound froze."""
    for constrain_d, score, witnesses in (
        (False, frozen.K5_BEST_SCORE, frozen.K5_WITNESSES),
        (True, frozen.K5_CONSTRAINED_BEST_SCORE, frozen.K5_CONSTRAINED_WITNESSES),
    ):
        spec = SearchSpec(alphabet_max=5, constrain_d=constrain_d, mode="exhaustive")
        result = search(spec)
        assert result.exhaustive
        assert result.nodes_explored == frozen.K5_EXHAUSTIVE_NODES
        assert result.best_score == score
        assert {w.pairs for w in result.witnesses} == witnesses
        assert certify(result, spec).ok


def test_k6_branch_bound_frozen_optimum():
    spec = SearchSpec(alphabet_max=6, mode="branch-bound")
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K6_BRANCH_BOUND_NODES
    assert result.best_score == frozen.K6_BEST_SCORE
    assert len(result.witnesses) == 16
    assert {w.pairs for w in result.witnesses} == frozen.K6_WITNESSES
    # every K=5 optimum still fits in the larger alphabet
    assert frozen.K5_WITNESSES <= frozen.K6_WITNESSES
    assert certify(result, spec).ok


def test_k5_constrained_branch_bound_frozen_optimum():
    spec = SearchSpec(alphabet_max=5, constrain_d=True, mode="branch-bound")
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K5_CONSTRAINED_BRANCH_BOUND_NODES
    assert result.best_score == frozen.K5_CONSTRAINED_BEST_SCORE
    assert {w.pairs for w in result.witnesses} == frozen.K5_CONSTRAINED_WITNESSES
    # the K=4 optima fit in the larger alphabet, so the exponent stays 1.5
    assert frozen.K4_WITNESSES <= frozen.K5_CONSTRAINED_WITNESSES
    assert certify(result, spec).ok


def test_k6_constrained_branch_bound_frozen_optimum():
    spec = SearchSpec(alphabet_max=6, constrain_d=True, mode="branch-bound")
    result = search(spec)
    assert result.exhaustive
    assert result.nodes_explored == frozen.K6_CONSTRAINED_BRANCH_BOUND_NODES
    assert result.best_score == frozen.K6_CONSTRAINED_BEST_SCORE
    assert len(result.witnesses) == 12
    assert {w.pairs for w in result.witnesses} == frozen.K6_CONSTRAINED_WITNESSES
    # every K=5 constrained optimum still fits in the larger alphabet
    assert frozen.K5_CONSTRAINED_WITNESSES <= frozen.K6_CONSTRAINED_WITNESSES
    assert certify(result, spec).ok


def test_bit_blocks_hold_every_cell_value():
    """Each form's block spans exactly its values on {0..K}², blocks disjoint."""
    forms = [*SLICES.values(), LinearForm(1, 3), DIFFERENCE]
    for k in range(10):
        taken = 0
        for form, (offset, mask) in zip(forms, search_module._bit_blocks(forms, k)):
            assert not taken & mask
            taken |= mask
            values = {form(x, y) for x in range(k + 1) for y in range(k + 1)}
            assert all(1 << offset + v & mask for v in values)
            assert mask & -mask == 1 << offset + min(values)
            assert mask.bit_length() == offset + max(values) + 1
        assert taken == (1 << taken.bit_length()) - 1
    # the three-slice masks fit one 30-bit int digit up to K=6
    three = list(budgeted_slices().values())
    assert max(m for _, m in search_module._bit_blocks(three, 6)).bit_length() == 27


def test_walk_compares_each_score_once_per_incumbent(monkeypatch):
    calls = []
    compare = search_module.compare_scores
    monkeypatch.setattr(
        search_module,
        "compare_scores",
        lambda *args: calls.append(args) or compare(*args),
    )
    result = search(SearchSpec(alphabet_max=5, mode="branch-bound"))
    assert result.nodes_explored == frozen.K5_BRANCH_BOUND_NODES
    assert {w.pairs for w in result.witnesses} == frozen.K5_WITNESSES
    # the walk resolves compare_scores through the module, and never asks
    # the same question twice
    assert 0 < len(calls) == len(set(calls)) < 100


def test_walk_canonicalizes_only_origin_ties_and_new_bests(monkeypatch):
    """A tying leaf that misses x = 0 or y = 0 is not canonicalized.

    A completed walk reaches each tie class at its origin translate, so
    every leaf canonicalized either touches both axes or raised the best.
    """
    canonical = search_module._canonical_pairs
    for spec, nodes, witnesses in (
        (
            SearchSpec(alphabet_max=4, constrain_d=True, mode="branch-bound"),
            frozen.K4_BRANCH_BOUND_NODES,
            frozen.K4_WITNESSES,
        ),
        (
            SearchSpec(alphabet_max=5, mode="branch-bound"),
            frozen.K5_BRANCH_BOUND_NODES,
            frozen.K5_WITNESSES,
        ),
    ):
        inputs = []
        monkeypatch.setattr(
            search_module,
            "_canonical_pairs",
            lambda pairs: inputs.append(tuple(pairs)) or canonical(pairs),
        )
        result = search(spec)
        monkeypatch.undo()
        assert result.nodes_explored == nodes
        assert {w.pairs for w in result.witnesses} == witnesses
        best = None
        for cells in inputs:
            score = (len({x - y for x, y in cells}), max_slice(cells, spec.constrain_d))
            raised = best is None or compare_scores(*score, *best) > 0
            at_origin = min(x for x, _ in cells) == 0 == min(y for _, y in cells)
            assert raised or at_origin, (spec, cells)
            assert raised or compare_scores(*score, *best) == 0
            if raised:
                best = score
        assert best == result.best_score


def test_threshold_sweep_matches_compare_scores():
    """need[t] is the least count whose score ties or beats the incumbent at t."""
    sweep = search_module._thresholds
    limit = 60
    for best in ((6, 3), (8, 4), (10, 4), (12, 5)):
        verdict = lambda c, t, best=best: compare_scores(c, t, *best)
        need = sweep(verdict, [0, 0], 21, limit)
        expected = [
            next((c for c in range(1, limit + 1) if verdict(c, t) >= 0), limit + 1)
            for t in range(2, 21)
        ]
        assert need[2:] == expected, best
        # max slices where no count up to the limit reaches the incumbent
        assert expected[0] <= limit < expected[-1]
        # grown one max slice at a time, as the walk grows it, the list is the same
        grown = [0, 0]
        for tops in range(3, 22):
            sweep(verdict, grown, tops, limit)
        assert grown == need
    # ln 100 / ln 16 = ln 10 / ln 4 exactly, so 100 is the least count at 16
    assert compare_scores(100, 16, 10, 4) == 0
    verdict = lambda c, t: compare_scores(c, t, 10, 4)
    need = sweep(verdict, [0, 0], 17, 120)
    assert need[16] == 100 and verdict(99, 16) < 0
    # with the limit at 99 no count reaches it, so the entry is limit + 1
    assert sweep(verdict, [0, 0], 17, 99)[16] == 100


def test_spec_rejects_walks_deeper_than_the_group_limit():
    limit = search_module._GROUP_LIMIT
    with pytest.raises(ValueError, match="choice groups"):
        SearchSpec(alphabet_max=600, mode="branch-bound", node_budget=5000)
    with pytest.raises(ValueError, match="choice groups"):
        SearchSpec(
            alphabet_max=31, mode="branch-bound", require_difference_injective=False
        )
    # the deepest walks allowed run; skipping every group first, the walk
    # reaches full depth within the budget
    for spec in (
        SearchSpec(alphabet_max=(limit - 1) // 2, mode="branch-bound", node_budget=5000),
        SearchSpec(
            alphabet_max=math.isqrt(limit) - 1,
            mode="branch-bound",
            node_budget=5000,
            require_difference_injective=False,
        ),
    ):
        result = search(spec)
        assert not result.exhaustive
        assert result.nodes_explored == 5001


def test_node_budget_flags_result():
    result = search(SearchSpec(alphabet_max=3, node_budget=50))
    assert not result.exhaustive
    assert result.nodes_explored <= 51
    # a cut run counts the node that hit the budget, and keeps its incumbent
    assert result.nodes_explored == 51
    assert result.best_exponent == math.log(3) / math.log(2)
    assert [w.pairs for w in result.witnesses] == [((0, 0), (0, 1), (1, 0))]

    result = search(SearchSpec(alphabet_max=5, mode="branch-bound", node_budget=20000))
    assert not result.exhaustive
    assert result.nodes_explored == 20001
    assert result.best_exponent == math.log(6) / math.log(3)
    assert {w.pairs for w in result.witnesses} == frozen.K3_WITNESSES


# nodes the branch-bound walk enters (calls to search's inner expand) at
# node_budget = 1, 98, 195, ...: K=3 over its whole walk, K=4 and K=5 up
# to 3,784.  A walk that enters one more node after crossing the budget
# keeps its result, since nothing is recorded past the budget and the count
# is clamped, so only these counts see it.
BRANCH_BOUND_ENTRIES = {
    3: (1, 25, 46, 61, 74, 89, 112, 136, 155, 176, 194, 217, 241, 262, 282, 302),
    4: (
        1, 25, 46, 60, 73, 88, 103, 116, 136, 155, 171, 195, 217, 232, 257, 278,
        292, 313, 330, 347, 369, 388, 409, 425, 443, 457, 476, 491, 507, 521, 545,
        567, 588, 601, 621, 639, 659, 675, 692, 707,
    ),
    5: (
        1, 24, 45, 60, 73, 87, 102, 116, 135, 150, 167, 187, 202, 224, 249, 265,
        286, 308, 328, 344, 363, 379, 394, 413, 428, 446, 464, 477, 492, 506, 519,
        533, 546, 560, 576, 599, 617, 632, 652, 667,
    ),
}


def expand_entries(spec: SearchSpec) -> int:
    """The number of calls to search's inner expand during one walk."""
    entries = 0

    def profile(frame, event, arg):
        nonlocal entries
        if event == "call" and frame.f_code.co_name == "expand":
            entries += 1

    sys.setprofile(profile)
    try:
        search(spec)
    finally:
        sys.setprofile(None)
    return entries


def test_budget_stops_the_walk_on_entering_a_node():
    for k, entries in BRANCH_BOUND_ENTRIES.items():
        budgets = range(1, 97 * len(entries), 97)
        got = tuple(
            expand_entries(SearchSpec(alphabet_max=k, mode="branch-bound", node_budget=b))
            for b in budgets
        )
        assert got == entries, k


def test_all_subsets_mode_matches_brute_force():
    """With injectivity off, score every nonempty subset of the 2x2 grid."""
    spec = SearchSpec(alphabet_max=1, require_difference_injective=False)
    result = search(spec)
    assert result.exhaustive

    cells = [(x, y) for x in range(2) for y in range(2)]
    best = None
    for r in range(1, 5):
        for combo in itertools.combinations(cells, r):
            slice_size = max(
                len({x for x, _ in combo}),
                len({y for _, y in combo}),
                len({x + y for x, y in combo}),
            )
            if slice_size < 2:
                continue
            count = len({x - y for x, y in combo})
            ratio = math.log(count) / math.log(slice_size) if count > 1 else 0.0
            if best is None or ratio > best:
                best = ratio
    assert best is not None
    assert abs(result.best_exponent - best) < 1e-12


def orbit_representative(cells) -> tuple[tuple[int, int], ...]:
    """Least of the pattern and its joint reflection, both moved to the origin."""

    def to_origin(points):
        mx, my = min(x for x, _ in points), min(y for _, y in points)
        return tuple(sorted({(x - mx, y - my) for x, y in points}))

    base = to_origin(cells)
    top_x, top_y = max(x for x, _ in base), max(y for _, y in base)
    return min(base, to_origin({(top_x - x, top_y - y) for x, y in base}))


def brute_force_optimum(subsets, constrain_d):
    """Best score and maximal classes, from set comprehensions and floats.

    Scores are ranked by the float log ratio; for numbers this small two
    distinct ratios differ by far more than 1e-9.
    """
    scored = []
    for cells in subsets:
        slices = [
            {x for x, _ in cells},
            {y for _, y in cells},
            {x + y for x, y in cells},
        ]
        if constrain_d:
            slices.append({x + 2 * y for x, y in cells})
        slice_size = max(len(s) for s in slices)
        if slice_size >= 2:
            count = len({x - y for x, y in cells})
            ratio = math.log(count) / math.log(slice_size)
            scored.append((ratio, (count, slice_size), cells))
    top = max(ratio for ratio, _, _ in scored)
    maximal = [(score, cells) for ratio, score, cells in scored if ratio > top - 1e-9]
    return {score for score, _ in maximal}, {orbit_representative(c) for _, c in maximal}


@pytest.mark.parametrize("constrain_d", [False, True])
def test_k3_injective_walk_matches_brute_force(constrain_d):
    """Every difference-injective subset of the 4x4 grid, scored from scratch."""
    k = 3
    diagonals = [
        [None] + [(x, y) for x in range(k + 1) for y in range(k + 1) if x - y == d]
        for d in range(-k, k + 1)
    ]
    subsets = [
        {cell for cell in pick if cell is not None}
        for pick in itertools.product(*diagonals)
    ]
    assert len(subsets) == 2880
    scores, classes = brute_force_optimum(subsets, constrain_d)
    result = search(SearchSpec(alphabet_max=k, constrain_d=constrain_d))
    assert result.exhaustive
    assert scores == {result.best_score}
    assert classes == {w.pairs for w in result.witnesses}


def test_k2_noninjective_walk_matches_brute_force():
    """Every nonempty subset of the 3x3 grid, scored by distinct differences."""
    grid = [(x, y) for x in range(3) for y in range(3)]
    subsets = [
        {cell for i, cell in enumerate(grid) if mask >> i & 1}
        for mask in range(1, 1 << len(grid))
    ]
    assert len(subsets) == 511
    scores, classes = brute_force_optimum(subsets, constrain_d=False)
    result = search(SearchSpec(alphabet_max=2, require_difference_injective=False))
    assert result.exhaustive
    assert scores == {result.best_score}
    assert classes == {w.pairs for w in result.witnesses}


def test_search_payload_shape():
    result = search(SearchSpec(alphabet_max=2))
    doc = result.to_json_dict()
    assert set(doc) == {"best_exponent", "witnesses", "exhaustive", "nodes"}
    assert doc["exhaustive"] is True
    assert all(set(w) == {"pairs", "constrain_d"} for w in doc["witnesses"])


def test_certify_rejects_tampering():
    spec = SearchSpec(alphabet_max=3)
    result = search(spec)
    forged = SearchResult(
        witnesses=result.witnesses,
        exhaustive=True,
        nodes_explored=result.nodes_explored,
    )
    report = certify(forged, spec)
    assert not report.ok
    assert any("exponent mismatch" in d for d in report.diagnostics)

    outside = SearchResult(
        witnesses=(DigitPattern(pairs=((0, 9),)),),
        exhaustive=True,
        nodes_explored=1,
    )
    report = certify(outside, spec)
    assert not report.ok
    assert any("outside the alphabet" in d for d in report.diagnostics)

    skewed = SearchResult(
        witnesses=(DigitPattern(pairs=((1, 1), (2, 2))),),
        exhaustive=True,
        nodes_explored=1,
    )
    report = certify(skewed, spec)
    assert not report.ok  # not canonical, not injective, wrong exponent

    unwitnessed = SearchResult((), True, 0, (10, 4))
    report = certify(unwitnessed, SearchSpec(alphabet_max=2))
    assert not report.ok
    assert any("no witness" in d for d in report.diagnostics)


def test_certify_checks_exact_score():
    spec = SearchSpec(alphabet_max=3)
    result = search(spec)
    assert result.best_score == (6, 3)
    assert certify(result, spec).ok
    # (36, 9) has the same exponent as (6, 3), exactly
    same = dataclasses.replace(result, best_score=(36, 9))
    assert certify(same, spec).ok
    for score in ((6, 4), (7, 3), None):
        tampered = dataclasses.replace(result, best_score=score)
        report = certify(tampered, spec)
        assert not report.ok
        assert any("exponent mismatch" in d for d in report.diagnostics)


def test_certify_empty_result_is_ok():
    report = certify(SearchResult((), True, 0), SearchSpec(alphabet_max=2))
    assert report.ok


def test_k7_constrained_optima_certify():
    """The named K=7 four-slice optima certify at (12, 5), without the walk."""
    spec = SearchSpec(alphabet_max=7, constrain_d=True, mode="branch-bound")
    result = SearchResult(K7_CONSTRAINED_OPTIMA, True, 0, (12, 5))
    report = certify(result, spec)
    assert report.ok and report.diagnostics == ()
    # an exponent the patterns do not reach is refused
    assert not certify(dataclasses.replace(result, best_score=(12, 4)), spec).ok



def reference_results(spec: SearchSpec) -> list[SearchResult]:
    """The result at every node budget, from one walk that calls itself per node.

    The walk rebuilds the slice sets from the chosen cells at each node and
    keeps no tallies.  results[b - 1] is the result at node_budget=b: a run
    cut at b counts the node that exceeds the budget, b + 1, and keeps the
    incumbent of the b nodes before it; from the full node count on, the
    run is exhaustive.
    """
    k = spec.alphabet_max
    if spec.require_difference_injective:
        groups = [
            [(x, x - d) for x in range(max(0, d), min(k, k + d) + 1)]
            for d in range(-k, k + 1)
        ]
    else:
        groups = [[(x, y)] for x in range(k + 1) for y in range(k + 1)]
    last = len(groups)
    chosen: list[tuple[int, int]] = []
    best = None
    ties: dict = {}  # replaced, never mutated, so history can share it
    history = []  # (best, ties) after each count of nodes
    verdicts: dict = {}  # compare_scores(*score, *best) by (score, best)

    def beats(score) -> int:
        if best is None:
            return 1
        if (score, best) not in verdicts:
            verdicts[score, best] = compare_scores(*score, *best)
        return verdicts[score, best]

    def descend(index: int) -> None:
        nonlocal best, ties
        history.append((best, ties))
        slices = [{x for x, _ in chosen}, {y for _, y in chosen}]
        slices.append({x + y for x, y in chosen})
        if spec.constrain_d:
            slices.append({x + 2 * y for x, y in chosen})
        slice_size = max(len(s) for s in slices)
        if index == last:
            if slice_size < 2:
                return
            score = (len({x - y for x, y in chosen}), slice_size)
            sign = beats(score)
            if sign < 0:
                return
            pattern = canonicalize(DigitPattern(tuple(chosen), spec.constrain_d))
            if sign > 0:
                best, ties = score, {}
            if pattern.pairs not in ties:
                ties = {**ties, pattern.pairs: pattern}
            return
        if (
            spec.mode == "branch-bound"
            and slice_size >= 2
            and beats((len(chosen) + last - index, slice_size)) < 0
        ):
            return
        descend(index + 1)
        for cell in groups[index]:
            chosen.append(cell)
            descend(index + 1)
            chosen.pop()

    def result(best, ties, exhaustive: bool, nodes: int) -> SearchResult:
        witnesses = sorted(ties.values(), key=lambda p: (len(p.pairs), p.pairs))
        cap = search_module._WITNESS_CAP
        return SearchResult(tuple(witnesses[:cap]), exhaustive, nodes, best)

    descend(0)
    total = len(history)
    return [result(*history[b], False, b + 1) for b in range(1, total)] + [
        result(best, ties, True, total)
    ]


def test_budget_cuts_match_the_one_call_per_node_walk():
    """Cut at every budget, on leaves too, a run keeps the reference's incumbent."""
    # (spec, budget stride): every budget where the walk is small, a stride
    # where covering every budget would take seconds
    cases = [
        (
            SearchSpec(
                alphabet_max=k,
                constrain_d=constrain_d,
                mode=mode,
                require_difference_injective=injective,
            ),
            1 if injective or k < 2 else 11,
        )
        for k in (0, 1, 2)
        for constrain_d in (False, True)
        for mode in ("exhaustive", "branch-bound")
        for injective in (True, False)
    ]
    cases += [
        (SearchSpec(alphabet_max=3, constrain_d=constrain_d, mode=mode), 193)
        for constrain_d in (False, True)
        for mode in ("exhaustive", "branch-bound")
    ]
    # the benchmark's any-subset walk, whose difference count rides the walk
    cases.append(
        (
            SearchSpec(
                alphabet_max=3, mode="branch-bound", require_difference_injective=False
            ),
            997,
        )
    )
    # the benchmark's K=4 walks in four slices: exhaustive mode prunes too,
    # so only the reference walk checks it without a prune
    cases.append((SearchSpec(alphabet_max=4, constrain_d=True), 1009))
    cases.append(
        (SearchSpec(alphabet_max=4, constrain_d=True, mode="branch-bound"), 101)
    )
    for spec, stride in cases:
        expected = reference_results(spec)
        total = len(expected)
        assert search(spec) == expected[-1]
        for budget in [*range(1, total + 2, stride), total - 1, total, total + 1]:
            got = search(dataclasses.replace(spec, node_budget=budget))
            assert got == expected[min(budget, total) - 1], (spec, budget)
