"""Wedges, linked counts, fingerprint inversion, and the inequality chains."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from arithproj.chains import chain_count_dp
from arithproj.errors import (
    EnumerationCapExceeded,
    HypothesisViolated,
    NoPreimage,
    NotDifferenceInjective,
)
from arithproj import proofs
from arithproj.groups import AmbientGroup
from arithproj.instances import (
    SKEW_SUM,
    SUM,
    Instance,
    is_difference_injective,
    project,
    reduce_to_difference_injective,
)
from arithproj.patterns import build_example_one, build_example_two
from arithproj.proofs import (
    Wedge,
    collision_fingerprint,
    count_linked_quads,
    count_skew_collisions,
    enumerate_wedges,
    linked_quad_problem,
    quad_fingerprint,
    reconstruct_pair,
    reconstruct_quad,
    skew_collision_problem,
    verify_four_slice_chain,
    verify_three_slice_chain,
    wedge_count,
)
from arithproj.sampling import random_instance

Z = AmbientGroup.integers()


def brute_counts(inst: Instance) -> tuple[int, int]:
    """Oracle: quads and collisions by direct label comparison over tuples."""
    g = inst.group
    wedges = list(enumerate_wedges(inst))

    def f1(w):
        return (g.add(w.a, w.b), g.add(w.a, w.b2))

    def f2(w):
        return (w.b, w.b2)

    def f3(w):
        return (g.add(w.a, w.b), w.b2)

    def f4(w):
        return (g.add(w.a, g.scale(2, w.b)), w.b2)

    quads = sum(
        1
        for w0, w1, w2, w3 in itertools.product(wedges, repeat=4)
        if f1(w0) == f1(w1) and f2(w1) == f2(w2) and f3(w2) == f3(w3)
    )
    pairs = sum(1 for u, v in itertools.product(wedges, repeat=2) if f4(u) == f4(v))
    return quads, pairs


def test_wedge_count_is_sum_of_squared_degrees():
    inst = build_example_one(1)
    assert wedge_count(inst) == 12
    assert len(enumerate_wedges(inst)) == 12
    inst2 = build_example_two(1)
    assert wedge_count(inst2) == 18
    assert len(enumerate_wedges(inst2)) == 18


def test_wedge_enumeration_matches_definition():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng, max_side=6)
        wedges = enumerate_wedges(inst)
        assert len(wedges) == wedge_count(inst)
        pair_set = set(inst.pairs)
        for w in wedges:
            assert (w.a, w.b) in pair_set and (w.a, w.b2) in pair_set
        assert len(set(wedges)) == len(wedges)


def test_wedge_cap():
    inst = build_example_one(2)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_wedges(inst, cap=10)


def test_linked_counts_frozen():
    ex1 = build_example_one(1)
    ex2 = build_example_two(1)
    assert count_linked_quads(ex1) == 36
    assert count_skew_collisions(ex1) == 12
    assert count_linked_quads(ex2) == 97
    assert count_skew_collisions(ex2) == 30


def test_linked_counts_match_brute_force():
    ex1 = build_example_one(1)
    ex2 = build_example_two(1)
    assert brute_counts(ex1) == (36, 12)
    assert brute_counts(ex2) == (97, 30)
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        inst = reduce_to_difference_injective(random_instance(rng, max_side=4))
        if wedge_count(inst) > 40:
            continue
        checked += 1
        assert brute_counts(inst) == (
            count_linked_quads(inst),
            count_skew_collisions(inst),
        )


def test_streaming_counts_match_chain_problems():
    rng = random.Random(47)
    modular = 0
    for _ in range(240):
        inst = reduce_to_difference_injective(random_instance(rng, max_side=8))
        modular += inst.group.is_modular
        assert count_linked_quads(inst) == chain_count_dp(linked_quad_problem(inst))
        assert count_skew_collisions(inst) == chain_count_dp(
            skew_collision_problem(inst)
        )
    assert 0 < modular < 240


def test_streaming_counts_match_chain_problems_unreduced():
    """The fiber-sum symmetry needs no difference-injectivity: raw draws."""
    rng = random.Random(53)
    wrap = Instance(
        group=AmbientGroup.integers_mod(7),
        a_set=(3, 5),
        b_set=(1, 2, 5, 6),
        pairs=((3, 1), (3, 2), (3, 5), (3, 6), (5, 1), (5, 6)),
    )
    draws = [wrap] + [random_instance(rng, max_side=8) for _ in range(240)]
    kinds = set()
    saw_wrapped_row = saw_not_injective = False
    for inst in draws:
        g = inst.group
        kinds.add(g.is_modular)
        saw_not_injective = saw_not_injective or not is_difference_injective(inst)
        for a, ys in inst.partners().items():
            sums = [g.add(a, b) for b in ys]
            saw_wrapped_row = saw_wrapped_row or sums != sorted(sums)
        assert count_linked_quads(inst) == chain_count_dp(linked_quad_problem(inst))
        assert count_skew_collisions(inst) == chain_count_dp(
            skew_collision_problem(inst)
        )
    assert kinds == {False, True}
    assert saw_wrapped_row and saw_not_injective


def test_streaming_counts_are_multiplicative_on_tensors():
    for n in (1, 2, 3):
        ex1 = build_example_one(n)
        ex2 = build_example_two(n)
        assert count_linked_quads(ex1) == 36**n
        assert count_skew_collisions(ex1) == 12**n
        assert count_linked_quads(ex2) == 97**n
        assert count_skew_collisions(ex2) == 30**n


def test_streaming_counts_at_benchmark_sizes():
    """The tensor sizes the ladder benchmark runs, frozen here as well."""
    assert count_linked_quads(build_example_one(5)) == 36**5
    ex2 = build_example_two(4)
    assert count_linked_quads(ex2) == 97**4
    assert count_skew_collisions(ex2) == 30**4


def test_streaming_counts_match_chain_problems_dense_rows():
    """Long partner rows, raw and reduced, against the explicit problems."""
    rng = random.Random(59)
    kinds = set()
    longest_row = 0
    for _ in range(40):
        raw = random_instance(rng, max_side=20)
        kinds.add(raw.group.is_modular)
        longest_row = max([longest_row] + [len(ys) for ys in raw.partners().values()])
        for inst in (raw, reduce_to_difference_injective(raw)):
            assert count_linked_quads(inst) == chain_count_dp(linked_quad_problem(inst))
            assert count_skew_collisions(inst) == chain_count_dp(
                skew_collision_problem(inst)
            )
    assert kinds == {False, True}
    assert longest_row >= 10


def test_streaming_counts_edge_cases():
    empty = Instance(group=Z, a_set=(0, 1), b_set=(0, 1), pairs=())
    assert count_linked_quads(empty) == 0
    assert count_skew_collisions(empty) == 0
    # one partner per row: every wedge is (a, b, b), and the labels of
    # distinct rows still collide through shared sums and partners
    single = [
        Instance(group=Z, a_set=(5,), b_set=(2,), pairs=((5, 2),)),
        Instance(group=Z, a_set=(0, 1, 2), b_set=(0, 1, 3), pairs=((0, 1), (1, 0), (2, 3))),
        Instance(
            group=AmbientGroup.integers_mod(5),
            a_set=(0, 1, 3, 4),
            b_set=(0, 2, 4),
            pairs=((0, 2), (1, 0), (3, 4), (4, 2)),
        ),
    ]
    for inst in single:
        assert all(len(ys) == 1 for ys in inst.partners().values())
        assert (count_linked_quads(inst), count_skew_collisions(inst)) == brute_counts(inst)
        assert count_linked_quads(inst) == chain_count_dp(linked_quad_problem(inst))
        assert count_skew_collisions(inst) == chain_count_dp(skew_collision_problem(inst))


def test_each_ladder_builds_partners_once(monkeypatch):
    calls = []
    partners = Instance.partners

    def counted(self):
        calls.append(self)
        return partners(self)

    monkeypatch.setattr(Instance, "partners", counted)
    for inst in (build_example_one(2), build_example_two(2)):
        budget = max(len(inst.a_set), len(project(inst, SUM)), len(project(inst, SKEW_SUM)))
        calls.clear()
        verify_three_slice_chain(inst, budget)
        assert len(calls) == 1
        calls.clear()
        verify_four_slice_chain(inst, budget)
        assert len(calls) == 1


def test_streaming_counts_respect_wedge_cap():
    inst = build_example_one(2)
    assert wedge_count(inst) == 144
    for count in (count_linked_quads, count_skew_collisions):
        with pytest.raises(EnumerationCapExceeded):
            count(inst, cap=143)
        assert count(inst, cap=144) > 0


def both_paths(inst: Instance) -> tuple[set[int], set[int]]:
    """Quads and collisions from the dense and the sparse kernels, whatever
    the rule would pick for inst: one value each when the paths agree."""
    partners, m = inst.partners(), inst.group.modulus
    rows = proofs._labelled_rows(m, 1, partners)
    quads = {proofs._linked_quads_dense(rows), proofs._linked_quads_sparse(rows)}
    rows = proofs._labelled_rows(m, 2, partners)
    collisions = {proofs._skew_collisions_dense(rows), proofs._skew_collisions_sparse(rows)}
    return quads, collisions


def checked_both_paths(inst: Instance) -> tuple[int, int]:
    """Quads and collisions, once both paths agree with the chain problems."""
    quads = chain_count_dp(linked_quad_problem(inst))
    collisions = chain_count_dp(skew_collision_problem(inst))
    assert both_paths(inst) == ({quads}, {collisions})
    return quads, collisions


def test_dense_and_sparse_paths_match_chain_problems():
    for n in (1, 2, 3):
        checked_both_paths(build_example_one(n))
        checked_both_paths(build_example_two(n))
    wrap = Instance(
        group=AmbientGroup.integers_mod(7),
        a_set=(3, 5),
        b_set=(1, 2, 5, 6),
        pairs=((3, 1), (3, 2), (3, 5), (3, 6), (5, 1), (5, 6)),
    )
    checked_both_paths(wrap)
    rng = random.Random(61)
    kinds = set()
    for _ in range(200):
        raw = random_instance(rng, max_side=8)
        kinds.add(raw.group.is_modular)
        checked_both_paths(raw)
        checked_both_paths(reduce_to_difference_injective(raw))
    assert kinds == {False, True}


def test_dense_and_sparse_paths_edge_shapes():
    empty = Instance(group=Z, a_set=(0, 1), b_set=(0, 1), pairs=())
    assert checked_both_paths(empty) == (0, 0)
    # a 2,000-pair matching with one common sum: the rule keeps it sparse,
    # and its forced dense quad tables hold 2,000^2 + 2,000 + 1 slots
    k = 2000
    pairs = tuple((i, k - 1 - i) for i in range(k))
    matching = Instance(group=Z, a_set=range(k), b_set=range(k), pairs=pairs)
    assert checked_both_paths(matching) == (k * k, k)
    # a path: a_i meets b_i and b_(i+1), over Z and wrapping round Z/30
    for group in (Z, AmbientGroup.integers_mod(30)):
        universe = range(30)
        path = Instance(
            group=group,
            a_set=universe,
            b_set=universe,
            pairs=tuple(
                (i, (i + j) % 30) for i in range(29 + group.is_modular) for j in (0, 1)
            ),
        )
        checked_both_paths(path)


def test_dense_rule_reads_the_slice_sizes(monkeypatch):
    """The tensors the ladder benchmark runs fit their dense tables; a
    5,000-pair matching (75M quad slots, 5,000 wedges) does not."""
    picked = []
    for name in (
        "_linked_quads_dense",
        "_linked_quads_sparse",
        "_skew_collisions_dense",
        "_skew_collisions_sparse",
    ):
        monkeypatch.setattr(proofs, name, lambda *_, _name=name: picked.append(_name) or 0)
    k = 5000
    matching = Instance(
        group=Z, a_set=range(k), b_set=range(k), pairs=tuple((i, i) for i in range(k))
    )
    ex2 = build_example_two(4)
    for inst, quads, collisions in (
        # example one's skew labels a+2b are all distinct: 7,776 x 243 slots > 12^5 wedges
        (build_example_one(5), "_linked_quads_dense", "_skew_collisions_sparse"),
        (ex2, "_linked_quads_dense", "_skew_collisions_dense"),
        (matching, "_linked_quads_sparse", "_skew_collisions_sparse"),
    ):
        picked.clear()
        count_linked_quads(inst)
        count_skew_collisions(inst)
        assert picked == [quads, collisions]
    # the ladders read the same sizes from require_hypotheses
    picked.clear()
    verify_three_slice_chain(ex2, 4**4)
    verify_four_slice_chain(ex2, 4**4)
    assert picked == ["_linked_quads_dense", "_skew_collisions_dense"]


def exhaustive_round_trip(inst: Instance) -> tuple[int, int]:
    """Check fingerprint injectivity and inversion on every quad and pair."""
    g = inst.group
    wedges = list(enumerate_wedges(inst))

    quad_fps = set()
    n_quads = 0
    for quad in itertools.product(wedges, repeat=4):
        w0, w1, w2, w3 = quad
        if (
            (g.add(w0.a, w0.b), g.add(w0.a, w0.b2))
            == (g.add(w1.a, w1.b), g.add(w1.a, w1.b2))
            and (w1.b, w1.b2) == (w2.b, w2.b2)
            and (g.add(w2.a, w2.b), w2.b2) == (g.add(w3.a, w3.b), w3.b2)
        ):
            n_quads += 1
            fp = quad_fingerprint(quad)
            assert reconstruct_quad(inst, *fp) == quad
            quad_fps.add(fp)
    assert len(quad_fps) == n_quads

    pair_fps = set()
    n_pairs = 0
    for pair in itertools.product(wedges, repeat=2):
        u, v = pair
        if (g.add(u.a, g.scale(2, u.b)), u.b2) == (g.add(v.a, g.scale(2, v.b)), v.b2):
            n_pairs += 1
            fp = collision_fingerprint(g, pair)
            assert reconstruct_pair(inst, *fp) == pair
            pair_fps.add(fp)
    assert len(pair_fps) == n_pairs
    return n_quads, n_pairs


def test_round_trip_examples():
    assert exhaustive_round_trip(build_example_one(1)) == (36, 12)
    assert exhaustive_round_trip(build_example_two(1)) == (97, 30)


def test_round_trip_random_reduced():
    rng = random.Random(41)
    checked = 0
    while checked < 15:
        inst = reduce_to_difference_injective(random_instance(rng, max_side=4))
        if not inst.pairs or wedge_count(inst) > 30:
            continue
        checked += 1
        assert exhaustive_round_trip(inst) == (
            count_linked_quads(inst),
            count_skew_collisions(inst),
        )


def test_reconstruction_domain_is_exactly_the_image():
    """Over the whole fingerprint codomain, inversion succeeds exactly on
    the image and raises NoPreimage everywhere else."""
    inst = build_example_one(1)
    g = inst.group
    wedges = list(enumerate_wedges(inst))
    c_slice = sorted(project(inst, SUM))
    b_slice = inst.b_set

    quad_hits = 0
    for w0, apex2, partner3 in itertools.product(wedges, inst.a_set, b_slice):
        try:
            quad = reconstruct_quad(inst, w0, apex2, partner3)
        except NoPreimage:
            continue
        quad_hits += 1
        assert quad_fingerprint(quad) == (w0, apex2, partner3)
    assert quad_hits == 36

    pair_hits = 0
    for sum0, alt_sum0, partner1 in itertools.product(c_slice, c_slice, b_slice):
        try:
            pair = reconstruct_pair(inst, sum0, alt_sum0, partner1)
        except NoPreimage:
            continue
        pair_hits += 1
        assert collision_fingerprint(g, pair) == (sum0, alt_sum0, partner1)
    assert pair_hits == 12


def test_reconstruction_error_cases():
    inst = build_example_one(1)
    # difference -5 is not attained by any pair
    with pytest.raises(NoPreimage):
        reconstruct_quad(inst, Wedge(0, 1, 3), 0, 3)
    with pytest.raises(NoPreimage):
        reconstruct_pair(inst, 0, 0, 3)
    # (0, 0) is not a pair, so (0, 0, 3) is not a wedge
    with pytest.raises(NoPreimage):
        reconstruct_quad(inst, Wedge(0, 0, 3), 0, 3)
    bad = Instance(group=Z, a_set=(0, 1), b_set=(0, 1), pairs=((0, 0), (1, 1)))
    with pytest.raises(NotDifferenceInjective):
        reconstruct_quad(bad, Wedge(0, 0, 0), 0, 0)
    with pytest.raises(NotDifferenceInjective):
        reconstruct_pair(bad, 0, 0, 0)


def test_three_slice_chain_report_shape():
    inst = build_example_one(1)
    report = verify_three_slice_chain(inst, 3)
    assert report.budget == 3
    assert report.all_hold
    assert report.cardinalities == {"relation": 6, "wedges": 12, "quads": 36}
    names = [q.name for q in report.inequalities]
    assert names == [
        "wedge-count-lower",
        "quad-count-lower-budget",
        "quad-count-lower-exact",
        "quad-count-upper",
        "wedge-count-upper",
        "difference-count-upper",
    ]
    doc = report.to_json_dict()
    assert doc["N"] == 3
    assert all(row["holds"] for row in doc["inequalities"])
    # the final row is (#differences)^6 <= N^11
    last = report.inequalities[-1]
    assert last.lhs == Fraction(6**6)
    assert last.rhs == Fraction(3**11)


def test_four_slice_chain_report_shape():
    inst = build_example_two(1)
    report = verify_four_slice_chain(inst, 4)
    assert report.budget == 4
    assert report.all_hold
    assert report.cardinalities == {"relation": 8, "wedges": 18, "collisions": 30}
    names = [q.name for q in report.inequalities]
    assert names == [
        "pair-count-lower-budget",
        "pair-count-lower-exact",
        "pair-count-upper",
        "wedge-count-upper",
        "difference-count-upper",
    ]
    last = report.inequalities[-1]
    assert last.lhs == Fraction(8**4)
    assert last.rhs == Fraction(4**7)
    assert last.slack == Fraction(4**7 - 8**4)


def test_verify_requires_hypotheses():
    inst = build_example_one(1)
    with pytest.raises(HypothesisViolated):
        verify_three_slice_chain(inst, 2)
    inst2 = build_example_two(1)
    with pytest.raises(HypothesisViolated):
        verify_four_slice_chain(inst2, 3)


def test_verify_reduces_first():
    # non-injective relation: reports must use the reduced relation size
    inst = Instance(
        group=Z,
        a_set=(0, 1, 2),
        b_set=(0, 1, 2),
        pairs=((0, 0), (1, 1), (2, 2), (0, 1)),
    )
    budget = max(3, len(project(inst, SUM)), len(project(inst, SKEW_SUM)))
    r6 = verify_three_slice_chain(inst, budget)
    assert r6.cardinalities["relation"] == 2
    assert r6.all_hold
    r4 = verify_four_slice_chain(inst, budget)
    assert r4.cardinalities["relation"] == 2
    assert r4.all_hold


def test_chains_hold_on_random_instances():
    rng = random.Random(43)
    for _ in range(250):
        inst = random_instance(rng)
        n6 = max(len(inst.a_set), len(inst.b_set), len(project(inst, SUM)))
        n4 = max(n6, len(project(inst, SKEW_SUM)))
        assert verify_three_slice_chain(inst, n6).all_hold
        assert verify_four_slice_chain(inst, n4).all_hold


def test_empty_relation_chains_hold():
    inst = Instance(group=Z, a_set=(0,), b_set=(0,), pairs=())
    r6 = verify_three_slice_chain(inst, 1)
    r4 = verify_four_slice_chain(inst, 1)
    assert r6.all_hold and r4.all_hold
    assert r6.cardinalities == {"relation": 0, "wedges": 0, "quads": 0}
