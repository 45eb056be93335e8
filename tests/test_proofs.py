"""Wedges, linked counts, fingerprint inversion, and the inequality chains."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import frozen
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
    require_hypotheses,
    slice_sizes,
)
from arithproj.patterns import (
    DigitPattern,
    build_example_one,
    build_example_two,
    tensor_pattern,
)
from arithproj.proofs import (
    ChainReport,
    Inequality,
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
    # one left element with 1,001 partners: 1,002,001 wedges, over the
    # 10**6 cap, so each entry point raises before it enumerates
    partners = tuple(range(1001))
    pairs = tuple((0, b) for b in partners)
    star = Instance(group=Z, a_set=(0,), b_set=partners, pairs=pairs)
    assert wedge_count(star) == 1_002_001
    for entry in (
        enumerate_wedges,
        linked_quad_problem,
        skew_collision_problem,
        count_linked_quads,
        count_skew_collisions,
    ):
        with pytest.raises(EnumerationCapExceeded):
            entry(star)


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


def test_ladders_make_their_own_walk_over_g(monkeypatch):
    """Both ladders reduce, size and number G in one walk of their own, so
    they verify with every public preparation step made to raise."""
    examples = [build_example_one(2), build_example_two(2)]
    budgets = [
        max(len(inst.a_set), len(project(inst, SUM)), len(project(inst, SKEW_SUM)))
        for inst in examples
    ]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the ladders make their own walk over G")

    monkeypatch.setattr(Instance, "partners", refuse)
    for name in ("project", "reduce_to_difference_injective", "require_hypotheses"):
        monkeypatch.setattr(proofs, name, refuse)
    for inst, budget in zip(examples, budgets):
        assert verify_three_slice_chain(inst, budget).all_hold
        assert verify_four_slice_chain(inst, budget).all_hold


def test_streaming_counts_respect_wedge_cap():
    inst = build_example_one(2)
    assert wedge_count(inst) == 144
    for verify in (verify_three_slice_chain, verify_four_slice_chain):
        with pytest.raises(EnumerationCapExceeded):
            verify(inst, 81, cap=143)
        assert verify(inst, 81, cap=144).cardinalities["wedges"] == 144


def reference_report(inst: Instance, budget: int, cap: int, with_d: bool) -> ChainReport:
    """A ladder's report from public pieces only: reduce, check the
    hypotheses, check the wedge cap, then count on the reduced instance."""
    reduced = reduce_to_difference_injective(inst)
    sizes = require_hypotheses(reduced, budget, with_d=with_d)
    wedges = wedge_count(reduced)
    if wedges > cap:
        raise EnumerationCapExceeded(f"{wedges} wedges exceed cap {cap}")
    relation, n, b = len(reduced.pairs), budget, sizes["B"]
    if not with_d:
        quads, c = count_linked_quads(reduced), sizes["C"]
        inequalities = (
            Inequality("wedge-count-lower", relation**2, wedges, lhs_den=n),
            Inequality("quad-count-lower-budget", wedges**4, quads, lhs_den=n**6),
            Inequality("quad-count-lower-exact", wedges**4, quads, lhs_den=max(1, c**3 * b**3)),
            Inequality("quad-count-upper", quads, n**2 * wedges),
            Inequality("wedge-count-upper", wedges**3, n**8),
            Inequality("difference-count-upper", relation**6, n**11),
        )
        cards = {"relation": relation, "wedges": wedges, "quads": quads}
        return ChainReport(budget, cards, inequalities)
    collisions, d = count_skew_collisions(reduced), sizes["D"]
    inequalities = (
        Inequality("pair-count-lower-budget", wedges**2, collisions, lhs_den=n**2),
        Inequality("pair-count-lower-exact", wedges**2, collisions, lhs_den=max(1, d * b)),
        Inequality("pair-count-upper", collisions, n**3),
        Inequality("wedge-count-upper", wedges**2, n**5),
        Inequality("difference-count-upper", relation**4, n**7),
    )
    cards = {"relation": relation, "wedges": wedges, "collisions": collisions}
    return ChainReport(budget, cards, inequalities)


def outcome(call) -> object:
    """The report's JSON, or the type and message of what call raised."""
    try:
        return call().to_json_dict()
    except (ValueError, HypothesisViolated, EnumerationCapExceeded) as exc:
        return type(exc).__name__, str(exc)


def test_ladders_match_the_public_preparation():
    """Each verify_* ladder, with its reduction, hypotheses, cap and counts
    in one walk over G, gives the report or the error of the public steps
    run one after another, at budgets and caps on both sides of each
    check."""
    wrap = Instance(  # 3 - 6 = 5 - 1 mod 7: one pair is dropped
        group=AmbientGroup.integers_mod(7),
        a_set=(3, 5),
        b_set=(1, 2, 5, 6),
        pairs=((3, 1), (3, 2), (3, 5), (3, 6), (5, 1), (5, 6)),
    )
    draws = [
        Instance(group=Z, a_set=(0, 1), b_set=(0, 1), pairs=()),
        Instance(group=AmbientGroup.integers_mod(5), a_set=(1,), b_set=(2,), pairs=()),
        wrap,
        build_example_one(1),
        build_example_two(1),
    ]
    rng = random.Random(67)
    draws += [random_instance(rng, max_side=8) for _ in range(120)]
    kinds, groups, dropped = set(), set(), 0
    for inst in draws:
        reduced = reduce_to_difference_injective(inst)
        dropped += reduced is not inst
        groups.add(inst.group.is_modular)
        wedges = wedge_count(reduced)
        for verify, with_d in ((verify_three_slice_chain, False), (verify_four_slice_chain, True)):
            sizes = slice_sizes(reduced, with_d=with_d)
            top = max(sizes.values())
            for budget in {0, max(1, top - 1), top, top + 1, *sizes.values()}:
                for cap in (wedges - 1, wedges):
                    got = outcome(lambda: verify(inst, budget, cap=cap))
                    want = outcome(lambda: reference_report(inst, budget, cap, with_d))
                    assert got == want, (inst, budget, cap)
                    kinds.add(got[0] if isinstance(got, tuple) else "report")
    assert groups == {False, True} and dropped >= 20
    assert kinds == {"report", "ValueError", "HypothesisViolated", "EnumerationCapExceeded"}
    # precedence: budget 0 before the hypotheses, the hypotheses before the cap
    ex1 = build_example_one(1)
    for verify in (verify_three_slice_chain, verify_four_slice_chain):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            verify(ex1, 0, cap=0)
        with pytest.raises(HypothesisViolated):
            verify(ex1, 2, cap=0)
        with pytest.raises(EnumerationCapExceeded):
            verify(ex1, 6, cap=wedge_count(ex1) - 1)


def both_paths(inst: Instance) -> tuple[set[int], set[int]]:
    """Quads and collisions from the dense and the sparse kernels, whatever
    the rule would pick for inst: one value each when the paths agree."""
    walk = proofs._id_rows(inst, 1, one_per_difference=False)
    quads = {proofs._linked_quads_dense(walk), proofs._linked_quads_sparse(walk)}
    walk = proofs._id_rows(inst, 2, one_per_difference=False)
    collisions = {proofs._skew_collisions_dense(walk), proofs._skew_collisions_sparse(walk)}
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


def test_packed_fields_at_their_width_edges():
    # Z/256, A the 128 even residues, N(a) = {0, beta, beta + 128} with
    # a + 2*beta = 0: both of a's other partners take the skew label 0, so
    # the collision fiber (0, 0) counts 2 * 128 = 256 pairs, one past the
    # 8-bit field that 128 rows would fit
    m = 256
    pairs = []
    for a in range(0, m, 2):
        beta = (-a // 2) % 128
        pairs += [(a, b) for b in {0, beta, beta + 128}]
    skew = Instance(
        group=AmbientGroup.integers_mod(m),
        a_set=range(0, m, 2),
        b_set=range(m),
        pairs=tuple(pairs),
    )
    partners = skew.partners()
    assert len(partners) == 128
    assert sum(1 for a, ys in partners.items() for b in ys if (a + 2 * b) % m == 0) == 256
    assert checked_both_paths(skew)[1] == 66937
    # 256 rows a with N(a) = {-a, 1-a}: every row's sums are 0 and 1, so
    # c1 at (0, 0) counts all 256 rows, one past an 8-bit field
    pairs = tuple((a, b) for a in range(256) for b in (-a, 1 - a))
    sums = Instance(group=Z, a_set=range(256), b_set=range(-255, 2), pairs=pairs)
    assert all({a + b for b in ys} == {0, 1} for a, ys in sums.partners().items())
    assert proofs._field_width(len(sums.partners())) == 16
    assert checked_both_paths(sums)[0] == 784384


def test_unpacked_round_trips_the_largest_field_at_every_width():
    for width, code in proofs._CAST_CODES.items():
        assert memoryview(bytes(8)).cast(code).itemsize * 8 == width
        largest = (1 << width) - 1
        assert proofs._field_width(largest) == width
        assert proofs._field_width(largest + 1) == (2 * width if width < 64 else None)
        table = [largest | largest << (2 * width), 0, largest << (2 * width)]
        assert proofs._unpacked(table, 3, width) == [
            [largest, 0, largest],
            [0, 0, 0],
            [0, 0, largest],
        ]


def test_frozen_k5_witnesses_are_multiplicative_on_both_kernels():
    """Relation, wedges and quads of every K=5 witness's n-digit tensor are
    its one-digit values to the n-th power, on both kernels.  Collisions
    are, too, only for the constrained witnesses: min_base keeps the skew
    digits a+2b carry-free only when the pattern tracks D, and two of the
    unconstrained witnesses carry at their min_base (700 and 740
    collisions at n=2, not 26**2 = 676)."""
    carried = {}
    for witnesses, constrain_d in (
        (frozen.K5_WITNESSES, False),
        (frozen.K5_CONSTRAINED_WITNESSES, True),
    ):
        for pairs in sorted(witnesses):
            pattern = DigitPattern(pairs, constrain_d=constrain_d)
            digit = tensor_pattern(pattern, 1)
            (quads,), (collisions,) = both_paths(digit)
            for n in (2, 3):
                inst = tensor_pattern(pattern, n)
                assert len(reduce_to_difference_injective(inst).pairs) == len(digit.pairs) ** n
                assert wedge_count(inst) == wedge_count(digit) ** n
                tensor_quads, tensor_collisions = both_paths(inst)
                assert tensor_quads == {quads**n}
                assert len(tensor_collisions) == 1
                if tensor_collisions != {collisions**n}:
                    carried[pairs, n] = (collisions**n, *tensor_collisions)
    assert {key for key, _ in carried} <= frozen.K5_WITNESSES
    carry_700 = ((0, 1), (0, 4), (0, 5), (1, 0), (1, 4), (3, 1), (3, 5), (4, 0), (4, 1), (4, 4))
    carry_740 = ((0, 1), (0, 4), (1, 0), (1, 3), (1, 4), (4, 0), (4, 1), (4, 4), (5, 0), (5, 3))
    assert {pairs: values for (pairs, n), values in carried.items() if n == 2} == {
        carry_700: (676, 700),
        carry_740: (676, 740),
    }


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
    # the ladders read the same sizes off their own walk over G
    picked.clear()
    verify_three_slice_chain(ex2, 4**4)
    verify_four_slice_chain(ex2, 4**4)
    assert picked == ["_linked_quads_dense", "_skew_collisions_dense"]
    # 18 pairs, 82 wedges: 399 quad slots, under 12 per wedge, go dense;
    # 45 collision slots fit inside the wedges, but with the rule's charge
    # per pair 45 + 8 * 18 >= 2 * 82, so the collisions stay sparse
    small = reduce_to_difference_injective(random_instance(random.Random(33)))
    sums = proofs._id_rows(small, 1, one_per_difference=False)
    skew = proofs._id_rows(small, 2, one_per_difference=False)
    assert (skew.pairs, skew.wedges) == (18, 82)
    c, d, b = sums.labels, skew.labels, skew.partners
    assert (c * c + c * b + b * b, d * b) == (399, 45)
    picked.clear()
    count_linked_quads(small)
    count_skew_collisions(small)
    assert picked == ["_linked_quads_dense", "_skew_collisions_sparse"]


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


def inequality_terms() -> list[tuple[int, int, int]]:
    """1,000 seeded (lhs_num, lhs_den, rhs_num): small terms, 200-digit
    terms, exact ties and ties missed by one."""
    rng = random.Random(97)
    big = 10**199
    terms = []
    for i in range(1000):
        kind = i % 4
        if kind == 0:
            terms.append((rng.randint(-50, 50), rng.randint(1, 12), rng.randint(-5, 5)))
            continue
        den, rhs_num = rng.randint(big, 10 * big), rng.randint(-big, big)
        if kind == 1:
            terms.append((rng.randint(-10 * big * big, 10 * big * big), den, rhs_num))
            continue
        terms.append((rhs_num * den + (kind == 3) * rng.choice((-1, 1)), den, rhs_num))
    return terms


def test_inequality_holds_on_integer_terms():
    ties = 0
    for lhs_num, lhs_den, rhs_num in inequality_terms():
        lhs, rhs = Fraction(lhs_num, lhs_den), Fraction(rhs_num)
        ineq = Inequality("t", lhs_num, rhs_num, lhs_den=lhs_den)
        assert ineq.holds == (lhs <= rhs)
        ties += lhs == rhs
    assert ties >= 250


def test_inequality_fraction_sides():
    for lhs_num, lhs_den, rhs_num in inequality_terms()[::7]:
        lhs, rhs = Fraction(lhs_num, lhs_den), Fraction(rhs_num)
        ineq = Inequality("t", lhs_num, rhs_num, lhs_den=lhs_den)
        assert (ineq.lhs, ineq.rhs, ineq.slack) == (lhs, rhs, rhs - lhs)
        assert ineq.to_json_dict() == {
            "name": "t",
            "lhs": {"num": lhs.numerator, "den": lhs.denominator},
            "rhs": {"num": rhs.numerator, "den": rhs.denominator},
            "holds": lhs <= rhs,
            "slack": {"num": (rhs - lhs).numerator, "den": (rhs - lhs).denominator},
        }
    # the denominator defaults to 1
    assert Inequality("t", 3, 2).lhs == Fraction(3)
    assert not Inequality("t", 3, 2).holds


@pytest.mark.parametrize("den", [0, -1, -(10**200)])
def test_inequality_rejects_non_positive_denominators(den):
    with pytest.raises(ValueError):
        Inequality("t", 1, 1, lhs_den=den)


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
