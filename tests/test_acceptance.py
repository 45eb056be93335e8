"""Acceptance suite: one test per shipped criterion, each recording a
single pass/fail line via the conftest hook."""

from __future__ import annotations

import itertools
import math
import random
import time
from pathlib import Path

import frozen
from arithproj.chains import (
    chain_count_dp,
    chain_count_naive,
    chain_lower_bound,
    popular_filter,
    tensor_power,
)
from arithproj.instances import (
    DIFFERENCE,
    SKEW_SUM,
    SUM,
    project,
    reduce_to_difference_injective,
)
from arithproj.kakeya import (
    dimension_report,
    hausdorff_bound,
    minkowski_bound,
    novelty_threshold,
    wolff_bound,
)
from arithproj.patterns import build_example_one, build_example_two, max_slice
from arithproj.proofs import (
    collision_fingerprint,
    enumerate_wedges,
    quad_fingerprint,
    reconstruct_pair,
    reconstruct_quad,
    verify_four_slice_chain,
    verify_three_slice_chain,
)
from arithproj.sampling import random_chain_problem, random_instance
from arithproj.search import SearchSpec, certify, search


def test_criterion_1_first_construction_fidelity(acceptance):
    started = time.monotonic()
    failures = []
    for n in range(1, 7):
        inst = build_example_one(n, base=7)
        got = (
            len(inst.a_set),
            len(inst.b_set),
            len(project(inst, SUM)),
            len(inst.pairs),
            len(project(inst, DIFFERENCE)),
        )
        want = (3**n, 3**n, 3**n, 6**n, 6**n)
        if got != want:
            failures.append((n, got, want))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 10
    acceptance(
        ok,
        f"criterion 1: first construction n=1..6 at base 7, exact counts "
        f"3^n/6^n ({elapsed:.2f}s)",
    )
    assert not failures, failures
    assert elapsed < 10


def test_criterion_2_second_construction_fidelity(acceptance):
    failures = []
    for n in range(1, 5):
        inst = build_example_two(n, base=9)
        got = (
            len(inst.a_set),
            len(inst.b_set),
            len(project(inst, SUM)),
            len(project(inst, SKEW_SUM)),
            len(inst.pairs),
            len(project(inst, DIFFERENCE)),
        )
        want = (4**n, 4**n, 4**n, 4**n, 8**n, 8**n)
        if got != want:
            failures.append((n, got, want))
    ok = not failures
    acceptance(
        ok,
        "criterion 2: second construction n=1..4 at base 9, exact counts 4^n/8^n",
    )
    assert not failures, failures


def test_criterion_3_inequality_chains_on_random_instances(acceptance):
    started = time.monotonic()
    rng = random.Random(20260819)
    failures = 0
    runs = 1000
    for _ in range(runs):
        inst = random_instance(rng, max_side=12)
        budget6 = max(len(inst.a_set), len(inst.b_set), len(project(inst, SUM)))
        budget4 = max(budget6, len(project(inst, SKEW_SUM)))
        if not verify_three_slice_chain(inst, budget6).all_hold:
            failures += 1
        if not verify_four_slice_chain(inst, budget4).all_hold:
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 60
    acceptance(
        ok,
        f"criterion 3: both inequality chains hold on {runs} random instances, "
        f"{failures} failures ({elapsed:.1f}s)",
    )
    assert failures == 0
    assert elapsed < 60


def transfer_matrix_count(problem) -> int:
    """Third count: 1^T M_1 .. M_k 1 with 0/1 matrices M_i[x][y] = [f_i(x) == f_i(y)]."""
    items = problem.items
    vector = [1] * len(items)
    for lab in problem.labelings:
        f = lab.assignment
        matrix = [[int(f[x] == f[y]) for y in items] for x in items]
        vector = [sum(m * v for m, v in zip(row, vector)) for row in matrix]
    return sum(vector)


def test_criterion_4_chain_lemma_suite(acceptance):
    started = time.monotonic()
    rng = random.Random(97)
    runs = 1000
    bound_failures = naive_failures = filter_failures = matrix_failures = 0
    naive_checked = 0
    for _ in range(runs):
        problem = random_chain_problem(rng)
        count = chain_count_dp(problem)
        if count < chain_lower_bound(problem):
            bound_failures += 1
        if transfer_matrix_count(problem) != count:
            matrix_failures += 1
        if len(problem.items) ** (problem.steps + 1) <= 10**6:
            naive_checked += 1
            if chain_count_naive(problem) != count:
                naive_failures += 1
        for lab in problem.labelings:
            survivors = popular_filter(
                problem.items, lab.assignment, lab.label_count
            )
            if 2 * len(survivors) < len(problem.items):
                filter_failures += 1

    tensor_failures = 0
    for _ in range(30):
        problem = random_chain_problem(rng, max_items=5, max_steps=2)
        base = chain_count_dp(problem)
        for power in (1, 2, 3):
            if chain_count_dp(tensor_power(problem, power)) != base**power:
                tensor_failures += 1

    elapsed = time.monotonic() - started
    ok = (
        bound_failures == naive_failures == filter_failures == tensor_failures == 0
        and matrix_failures == 0
        and naive_checked > 0
        and elapsed < 60
    )
    acceptance(
        ok,
        f"criterion 4: chain lemma suite on {runs} problems "
        f"(naive cross-checked on {naive_checked}), popularity and tensor "
        f"properties, zero failures",
    )
    assert bound_failures == 0
    assert naive_failures == 0
    assert matrix_failures == 0
    assert filter_failures == 0
    assert tensor_failures == 0
    assert naive_checked > 0
    assert elapsed < 60


def test_criterion_5_fingerprint_round_trips(acceptance):
    results = {}
    for name, inst in (
        ("first", build_example_one(1)),
        ("second", build_example_two(1)),
    ):
        inst = reduce_to_difference_injective(inst)
        g = inst.group
        wedges = list(enumerate_wedges(inst))
        quad_fps = set()
        quads = 0
        for quad in itertools.product(wedges, repeat=4):
            w0, w1, w2, w3 = quad
            if (
                (g.add(w0.a, w0.b), g.add(w0.a, w0.b2))
                == (g.add(w1.a, w1.b), g.add(w1.a, w1.b2))
                and (w1.b, w1.b2) == (w2.b, w2.b2)
                and (g.add(w2.a, w2.b), w2.b2) == (g.add(w3.a, w3.b), w3.b2)
            ):
                quads += 1
                fp = quad_fingerprint(quad)
                quad_fps.add(fp)
                if reconstruct_quad(inst, *fp) != quad:
                    results[name] = "quad reconstruction failed"
        pair_fps = set()
        pairs = 0
        for pair in itertools.product(wedges, repeat=2):
            u, v = pair
            if (g.add(u.a, g.scale(2, u.b)), u.b2) == (
                g.add(v.a, g.scale(2, v.b)),
                v.b2,
            ):
                pairs += 1
                fp = collision_fingerprint(g, pair)
                pair_fps.add(fp)
                if reconstruct_pair(inst, *fp) != pair:
                    results[name] = "pair reconstruction failed"
        if len(quad_fps) != quads or len(pair_fps) != pairs:
            results[name] = "fingerprint not injective"
    ok = not results
    acceptance(
        ok,
        "criterion 5: fingerprints injective with exact round-trips on all "
        "quads and collision pairs of both reduced constructions (n=1)",
    )
    assert not results, results


def test_criterion_6_dimension_thresholds(acceptance):
    mink = novelty_threshold("minkowski")
    haus = novelty_threshold("hausdorff")
    # independent recomputation from the exact formulas
    from fractions import Fraction

    scan_mink = next(
        n for n in range(2, 100) if Fraction(4 * n + 3, 7) > Fraction(n + 2, 2)
    )
    scan_haus = next(
        n for n in range(2, 100) if Fraction(6 * n + 5, 11) > Fraction(n + 2, 2)
    )
    at8 = dimension_report(8)
    ok = (
        mink == scan_mink == 9
        and haus == scan_haus == 13
        and minkowski_bound(8) == wolff_bound(8) == 5
        and at8.best_minkowski == "equal"
        and hausdorff_bound(13) > wolff_bound(13)
    )
    acceptance(
        ok,
        f"criterion 6: novelty thresholds {mink} (box) and {haus} (Hausdorff) "
        f"by scan, crossover value 5 at dimension 8",
    )
    assert ok


def test_criterion_7_search_reproduction(acceptance):
    started = time.monotonic()
    spec3 = SearchSpec(alphabet_max=3)
    res3 = search(spec3)
    t3 = time.monotonic() - started

    started = time.monotonic()
    spec4 = SearchSpec(alphabet_max=4, constrain_d=True)
    res4 = search(spec4)
    t4 = time.monotonic() - started

    target = math.log(6) / math.log(3)
    three_ok = (
        res3.exhaustive
        and res3.best_exponent >= target - 1e-6
        and abs(res3.best_exponent - frozen.K3_BEST_EXPONENT) < 1e-12
        and {w.pairs for w in res3.witnesses} == frozen.K3_WITNESSES
        and certify(res3, spec3).ok
        and t3 < 300
    )
    # a witness must certify to the first construction's statistics
    three_ok = three_ok and any(
        len(w.pairs) == 6 and max_slice(w.pairs, w.constrain_d) == 3
        for w in res3.witnesses
    )
    four_ok = (
        res4.exhaustive
        and res4.best_exponent >= 1.5
        and res4.best_exponent == frozen.K4_BEST_EXPONENT
        and {w.pairs for w in res4.witnesses} == frozen.K4_WITNESSES
        and certify(res4, spec4).ok
        and t4 < 300
    )
    ok = three_ok and four_ok
    acceptance(
        ok,
        f"criterion 7: exhaustive searches reproduce the extremal patterns, "
        f"best exponents {res3.best_exponent:.6f} (K=3) and "
        f"{res4.best_exponent} (K=4, constrained) ({t3 + t4:.1f}s)",
    )
    assert three_ok
    assert four_ok


def test_criterion_8_scope_note_documented(acceptance):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = "exact formulas" in text and "not desk-scale experiments" in text
    acceptance(
        ok,
        "criterion 8: README records that geometric dimension statements are "
        "checked against exact formulas, not desk-scale experiments",
    )
    assert ok
