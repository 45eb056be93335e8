"""Pattern search: canonical forms, exact score comparison, frozen optima."""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import math
import random
import timeit

import pytest

import frozen
from arithproj.errors import ArithprojError
from arithproj.patterns import (
    EXAMPLE_ONE_PATTERN,
    EXAMPLE_TWO_PATTERN,
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
        for name in ("x_alphabet", "y_alphabet", "sum_slice", "skew_slice"):
            assert len(getattr(p, name)) == len(getattr(c, name))
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
    with pytest.raises(ValueError):
        SearchSpec(alphabet_max=5, mode="exhaustive")  # 36 cells > 25
    SearchSpec(alphabet_max=5, mode="branch-bound")
    for budget in (0, -5):
        with pytest.raises(ValueError):
            SearchSpec(alphabet_max=2, node_budget=budget)


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
    for alphabet_max, constrain in ((2, False), (3, False), (3, True), (4, True)):
        full = search(SearchSpec(alphabet_max=alphabet_max, constrain_d=constrain))
        pruned = search(
            SearchSpec(
                alphabet_max=alphabet_max, constrain_d=constrain, mode="branch-bound"
            )
        )
        assert pruned.exhaustive
        assert pruned.best_exponent == full.best_exponent
        assert {w.pairs for w in pruned.witnesses} == {w.pairs for w in full.witnesses}
        assert pruned.nodes_explored <= full.nodes_explored


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


def test_all_subsets_mode_matches_brute_force():
    """With injectivity off, score every nonempty subset of the 2x2 grid."""
    spec = SearchSpec(alphabet_max=1, require_difference_injective=False)
    result = search(spec)
    assert result.exhaustive

    cells = [(x, y) for x in range(2) for y in range(2)]
    best = None
    for r in range(1, 5):
        for combo in itertools.combinations(cells, r):
            p = DigitPattern(pairs=combo)
            slice_size = max(
                len(p.x_alphabet), len(p.y_alphabet), len(p.sum_slice)
            )
            if slice_size < 2:
                continue
            count = len(p.difference_slice)
            ratio = math.log(count) / math.log(slice_size) if count > 1 else 0.0
            if best is None or ratio > best:
                best = ratio
    assert best is not None
    assert abs(result.best_exponent - best) < 1e-12


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
    assert not bool(report)
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
