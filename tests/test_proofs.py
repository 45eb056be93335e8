"""Wedges, linked counts, fingerprint inversion, and the inequality chains."""

from __future__ import annotations

import contextlib
import itertools
import random
import struct
from collections import Counter
from fractions import Fraction

import pytest

import frozen
from arithproj.chains import chain_count_dp
from arithproj.errors import EnumerationCapExceeded, HypothesisViolated
from arithproj import proofs
from arithproj.groups import AmbientGroup
from arithproj.instances import (
    SKEW_SUM,
    SUM,
    Instance,
    project,
    reduce_to_difference_injective,
    require_hypotheses,
    slice_sizes,
)
from arithproj.patterns import (
    K7_CONSTRAINED_OPTIMA,
    DigitPattern,
    build_example_one,
    build_example_two,
    tensor_pattern,
)
from arithproj.proofs import (
    ChainReport,
    Inequality,
    Wedge,
    enumerate_wedges,
    linked_quad_problem,
    skew_collision_problem,
    verify_four_slice_chain,
    verify_three_slice_chain,
)
from arithproj.sampling import random_instance
from oracles import (
    NoPreimage,
    NotDifferenceInjective,
    collision_fingerprint,
    is_difference_injective,
    quad_fingerprint,
    reconstruct_pair,
    reconstruct_quad,
)

Z = AmbientGroup.integers()

# a budget above every slice of the instances below, so the ladders check
# their hypotheses and count
UNBOUNDED = 10**9


def wedge_count(inst: Instance) -> int:
    """Sum of squared left degrees, without materializing the wedges."""
    return sum(len(ys) ** 2 for ys in inst.partners().values())


def both_ladders(inst: Instance) -> tuple:
    """Calls of the 11/6 and the 7/4 ladder on inst."""
    return (
        lambda: verify_three_slice_chain(inst, UNBOUNDED),
        lambda: verify_four_slice_chain(inst, UNBOUNDED),
    )


def ladder_counts(inst: Instance) -> tuple[int, int]:
    """The quads and collisions of both ladders, which count on their own
    walk over G; on a difference-injective inst that walk keeps every pair."""
    three, four = both_ladders(inst)
    return three().cardinalities["quads"], four().cardinalities["collisions"]


def problem_counts(inst: Instance) -> tuple[int, int]:
    """The quads and collisions of the explicit chain problems."""
    return (
        chain_count_dp(linked_quad_problem(inst)),
        chain_count_dp(skew_collision_problem(inst)),
    )


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
        lambda inst: verify_three_slice_chain(inst, UNBOUNDED),
        lambda inst: verify_four_slice_chain(inst, UNBOUNDED),
    ):
        with pytest.raises(EnumerationCapExceeded):
            entry(star)


def test_linked_counts_frozen():
    ex1 = build_example_one(1)
    ex2 = build_example_two(1)
    assert ladder_counts(ex1) == (36, 12)
    assert ladder_counts(ex2) == (97, 30)


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
        assert brute_counts(inst) == ladder_counts(inst)


def test_streaming_counts_match_chain_problems():
    rng = random.Random(47)
    modular = 0
    for _ in range(240):
        inst = reduce_to_difference_injective(random_instance(rng, max_side=8))
        modular += inst.group.modulus is not None
        assert ladder_counts(inst) == problem_counts(inst)
    assert 0 < modular < 240


def test_streaming_counts_are_multiplicative_on_tensors():
    for n in (1, 2, 3):
        ex1 = build_example_one(n)
        ex2 = build_example_two(n)
        assert ladder_counts(ex1) == (36**n, 12**n)
        assert ladder_counts(ex2) == (97**n, 30**n)


def test_streaming_counts_at_benchmark_sizes():
    """The tensor sizes the ladder benchmark runs, frozen here as well."""
    assert verify_three_slice_chain(build_example_one(5), 3**5).cardinalities["quads"] == 36**5
    assert ladder_counts(build_example_two(4)) == (97**4, 30**4)


def test_streaming_counts_match_chain_problems_dense_rows():
    """Long partner rows, reduced, against the explicit problems."""
    rng = random.Random(59)
    kinds = set()
    longest_row = 0
    for _ in range(40):
        inst = reduce_to_difference_injective(random_instance(rng, max_side=20))
        kinds.add(inst.group.modulus is not None)
        longest_row = max([longest_row] + [len(ys) for ys in inst.partners().values()])
        assert ladder_counts(inst) == problem_counts(inst)
    assert kinds == {False, True}
    assert longest_row >= 10


def test_streaming_counts_edge_cases():
    empty = Instance(group=Z, a_set=(0, 1), b_set=(0, 1), pairs=())
    assert ladder_counts(empty) == (0, 0)
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
    for inst in map(reduce_to_difference_injective, single):
        assert all(len(ys) == 1 for ys in inst.partners().values())
        assert ladder_counts(inst) == brute_counts(inst) == problem_counts(inst)


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
    hypotheses, check the wedge cap, then count the explicit chain problem
    of the reduced instance."""
    reduced = reduce_to_difference_injective(inst)
    sizes = require_hypotheses(reduced, budget, with_d=with_d)
    wedges = wedge_count(reduced)
    if wedges > cap:
        raise EnumerationCapExceeded(f"{wedges} wedges exceed cap {cap}")
    relation, n, b = len(reduced.pairs), budget, sizes["B"]
    if not with_d:
        quads, c = chain_count_dp(linked_quad_problem(reduced)), sizes["C"]
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
    collisions, d = chain_count_dp(skew_collision_problem(reduced)), sizes["D"]
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
        groups.add(inst.group.modulus is not None)
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


# the rules are the only readers of walk.wedges, so a walk that claims no
# wedges takes dict tables and one that claims 10**18 takes packed rows
FORCED_WEDGES = {0: "dict", 10**18: "packed"}


@contextlib.contextmanager
def recorded_forms():
    """The table form of each builder call made inside the block, in order."""
    picked = []
    with pytest.MonkeyPatch.context() as patch:
        for form, name in (("packed", "_packed_fibers"), ("dict", "_dict_fibers")):
            build = getattr(proofs, name)
            patch.setattr(
                proofs, name, lambda *args, _f=form, _b=build: picked.append(_f) or _b(*args)
            )
        yield picked


def forms_taken(*calls) -> list[str]:
    """The one table form that each call builds all its tables in."""
    taken = []
    for call in calls:
        with recorded_forms() as picked:
            call()
        (form,) = set(picked)
        taken.append(form)
    return taken


def on_both_forms(kernel, walk) -> set[int]:
    """kernel(walk) with each table form forced, each run checked to build
    its tables in that form: one value when the forms agree."""
    values = set()
    for wedges, form in FORCED_WEDGES.items():
        with recorded_forms() as picked:
            values.add(kernel(walk._replace(wedges=wedges)))
        assert set(picked) == {form}
    return values


def both_paths(inst: Instance) -> tuple[set[int], set[int]]:
    """Quads and collisions on packed rows and on dict tables, whatever the
    rule would pick for inst: one value each when the forms agree."""
    walk = proofs._id_rows(inst, 1)
    quads = on_both_forms(proofs._linked_quads, walk)
    walk = proofs._id_rows(inst, 2)
    collisions = on_both_forms(proofs._skew_collisions, walk)
    return quads, collisions


def checked_both_paths(inst: Instance) -> tuple[int, int]:
    """Quads and collisions of a difference-injective inst, once both forms
    agree with the chain problems."""
    assert is_difference_injective(inst)
    quads, collisions = problem_counts(inst)
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
    checked_both_paths(reduce_to_difference_injective(wrap))
    rng = random.Random(61)
    kinds = set()
    for _ in range(200):
        inst = reduce_to_difference_injective(random_instance(rng, max_side=8))
        kinds.add(inst.group.modulus is not None)
        checked_both_paths(inst)
        measured_widths(inst)
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
    # rows of 12 partners that share all their sums: row a = 6i meets
    # b = c - a for each c in {-6..5}, so the differences 2a - c are
    # distinct, and neighbouring rows share 6 partners; over Z and round
    # Z/108, where a row's sums wrap
    for group in (Z, AmbientGroup.integers_mod(108)):
        pairs = sorted({(6 * i, group.canon(c - 6 * i)) for i in range(8) for c in range(-6, 6)})
        rows = Instance(
            group=group,
            a_set=range(0, 48, 6),
            b_set=sorted({b for _, b in pairs}),
            pairs=tuple(pairs),
        )
        sums = [[group.add(a, b) for b in ys] for a, ys in rows.partners().items()]
        assert all(len(row) == 12 for row in sums)
        assert any(row != sorted(row) for row in sums) == (group.modulus is not None)
        assert checked_both_paths(rows) == (25344, 1908)


def test_quad_kernels_ignore_the_numbering_of_partner_ids():
    """The quad kernel counts the same on both table forms under any
    renumbering of the partner ids, so neither leans on ids rising along a
    row."""
    rng = random.Random(83)
    draws = [build_example_two(2)] + [random_instance(rng, max_side=8) for _ in range(100)]
    multi = 0
    for inst in map(reduce_to_difference_injective, draws):
        quads = chain_count_dp(linked_quad_problem(inst))
        walk = proofs._id_rows(inst, 1)
        renumber = list(range(walk.partners))
        rng.shuffle(renumber)
        shuffled = walk._replace(
            rows=[([renumber[b] for b in ys], sums) for ys, sums in walk.rows]
        )
        multi += any(len(ys) > 1 for ys, _ in walk.rows)
        assert on_both_forms(proofs._linked_quads, walk) == {quads}
        assert on_both_forms(proofs._linked_quads, shuffled) == {quads}
    assert multi > 50


@contextlib.contextmanager
def recorded_widths():
    """The field width of each packed table built inside the block, in order."""
    taken = []
    build = proofs._packed_fibers
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            proofs, "_packed_fibers", lambda *args: taken.append(args[3]) or build(*args)
        )
        yield taken


def measured_widths(inst: Instance) -> tuple[int, int, int]:
    """The c1, F3 and collision field widths the packed tables take, once
    each is checked to hold the largest sum fiber, that fiber times the
    largest column degree, and the largest skew fiber, counted here over
    the pairs, and to be at most its bound by #rows, #rows^2 or #G."""
    g, width = inst.group, proofs._field_width
    fiber = max(Counter(g.add(a, b) for a, b in inst.pairs).values(), default=0)
    degree = max(Counter(b for _, b in inst.pairs).values(), default=0)
    skew = max(Counter(g.add(a, g.scale(2, b)) for a, b in inst.pairs).values(), default=0)
    rows = len(inst.partners())
    # c1, then n3 at F3's width, then the skew fibers, each forced packed
    widths = []
    for k, kernel in ((1, proofs._linked_quads), (2, proofs._skew_collisions)):
        walk = proofs._id_rows(inst, k)
        with recorded_widths() as taken:
            kernel(walk._replace(wedges=10**18))
        widths += taken
    first, wide, collision = widths
    assert (first, wide, collision) == (width(fiber), width(fiber * degree), width(skew))
    assert first <= width(rows) and wide <= width(rows**2)
    assert collision <= width(len(inst.pairs))
    return first, wide, collision


def test_packed_fields_at_their_width_edges():
    """Each width edge of the fields sized by the fibers the walk measures,
    on instances whose #rows or #G alone would ask for a wider field."""
    # k rows a with N(a) = {-a, 1-a} share the sums 0 and 1, so c1 at (0, 0)
    # counts k; one more row with a sum of its own puts #rows past 255
    for k, first in ((255, 8), (256, 16)):
        pairs = tuple((a, b) for a in range(k) for b in (-a, 1 - a)) + ((k, 10**6),)
        inst = Instance(
            group=Z,
            a_set=range(k + 1),
            b_set=sorted({b for _, b in pairs}),
            pairs=pairs,
        )
        assert measured_widths(inst) == (first, 16, 8)
        assert checked_both_paths(inst)[0] == 12 * k * k - 8 * k + 1
    # r rows a in P = {4^i : i < r}, each meeting b = c - a for every c in
    # P, plus two lone pairs, so 17 or 18 rows ask F3 for 16 bits: the
    # differences 2a - c are distinct (their 2-adic valuations tell them
    # apart), every sum fiber is r and the partner 0 is in all r rows, so
    # F3[0][0] = r * r reaches fiber * degree, 225 or 256.  Each row heads
    # r^2 (3r - 2) quads and each wedge collides only with itself
    for r, wide in ((15, 8), (16, 16)):
        powers = [4**i for i in range(r)]
        pairs = [(a, c - a) for a in powers for c in powers]
        pairs += [(10**12 + 2 * j, 10**11 + j) for j in range(2)]
        inst = Instance(
            group=Z,
            a_set=sorted({a for a, _ in pairs}),
            b_set=sorted({b for _, b in pairs}),
            pairs=tuple(sorted(pairs)),
        )
        assert len(inst.partners()) == r + 2
        assert measured_widths(inst) == (8, wide, 8)
        assert checked_both_paths(inst) == (r**3 * (3 * r - 2) + 2, r**3 + 2)
    # f rows a with partner -a share the sum 0, and the first `degree` rows
    # also meet 10**6: fiber * degree is 255 * 257 = 65535 (16 bits, where
    # 257 rows ask for 32) or 256 * 256 = 65536
    for fiber, degree, first, wide in ((255, 257, 8, 16), (256, 256, 16, 32)):
        pairs = tuple(
            (a, b)
            for a in range(max(fiber, degree))
            for b in (-a, 10**6)
            if (b == 10**6 and a < degree) or (b == -a and a < fiber)
        )
        inst = Instance(
            group=Z,
            a_set=range(max(fiber, degree)),
            b_set=sorted({b for _, b in pairs}),
            pairs=pairs,
        )
        assert measured_widths(inst) == (first, wide, 8)
        checked_both_paths(inst)
    # Z/1024, A the 128 residues a = 2t below 512 with t odd, N(a) = {0,
    # beta, beta + 512} with beta = 512 - t, so a + 2*beta = 0, the last row
    # short of beta + 512 when dropped: the differences 2t and the two lifts
    # of 3t mod 512 are distinct, since 2t is even and 3t odd.  The skew
    # label 0 repeats within a row, so its fiber counts 256 - dropped pairs,
    # and its field at partner 0, in every row, reaches that fiber
    m = 1024
    for dropped, skew, collisions in ((1, 8, 66425), (0, 16, 66944)):
        pairs = []
        for t in range(1, 256, 2):
            beta = 512 - t
            row = {0, beta, beta + 512}
            if dropped and t == 255:
                row.discard(beta + 512)
            pairs += [(2 * t, b) for b in sorted(row)]
        inst = Instance(
            group=AmbientGroup.integers_mod(m),
            a_set=range(2, 512, 4),
            b_set=range(m),
            pairs=tuple(pairs),
        )
        assert sum(1 for a, b in pairs if (a + 2 * b) % m == 0) == 256 - dropped
        assert len(pairs) >= 256
        assert measured_widths(inst)[2] == skew
        assert checked_both_paths(inst)[1] == collisions
    # the benchmark tensors: example two's F3 fits 16 bits and its skew
    # fibers 8, where its 256 rows and 4,096 pairs ask for 32 and 16
    assert measured_widths(build_example_two(4)) == (8, 16, 8)
    assert measured_widths(build_example_one(5)) == (8, 16, 8)


def test_field_width_counts_the_rows_only_where_the_ends_differ_past_8_bits():
    """The fibers are counted only for a field whose coarse bound and
    average give different widths past 8 bits, and each id column (0 for
    partner ids, 1 for label ids) at most once per walk.  Example one at
    n=5 counts nothing: 243 rows keep c1 at 8 bits, and F3's bound 243^2
    and average 32 * 32 both take 16.  Example two at n=4 counts its sums
    once for c1 and F3 and its partners for F3, and its skew labels once.
    The gate only saves time: every width is the same with the rows always
    counted."""
    cases = (
        (build_example_one(5), verify_three_slice_chain, [8, 16], []),
        (build_example_two(4), verify_three_slice_chain, [8, 16], [1, 0]),
        (build_example_two(4), verify_four_slice_chain, [8], [1]),
    )
    count = proofs._largest_fiber
    for inst, verify, widths, columns in cases:
        counted = []
        with pytest.MonkeyPatch.context() as patch, recorded_widths() as taken:
            patch.setattr(
                proofs, "_largest_fiber", lambda rows, c: counted.append(c) or count(rows, c)
            )
            verify(inst, UNBOUNDED)
        assert (taken, counted) == (widths, columns)


def test_unpacked_round_trips_the_largest_field_at_every_width():
    rng = random.Random(97)
    for width, code in proofs._CODES.items():
        assert struct.calcsize(f"<{code}") * 8 == width
        largest = (1 << width) - 1
        assert proofs._field_width(largest) == width
        if width < 64:
            assert proofs._field_width(largest + 1) == 2 * width
        else:
            with pytest.raises(OverflowError):
                proofs._field_width(largest + 1)
        table = [largest | largest << (2 * width), 0, largest << (2 * width)]
        rows = list(proofs._unpacked(table, 3, width))
        # 8-bit rows stay bytes, which read each field back as an int
        assert all(isinstance(row, bytes) == (width == 8) for row in rows)
        assert [list(row) for row in rows] == [
            [largest, 0, largest],
            [0, 0, 0],
            [0, 0, largest],
        ]
        # seeded random tables and full rows of 1 to 40 fields, read back
        # here by shift and mask
        for fields in range(1, 41):
            table = [rng.getrandbits(fields * width) for _ in range(3)]
            table.append((1 << (fields * width)) - 1)
            assert [list(row) for row in proofs._unpacked(table, fields, width)] == [
                [row >> (i * width) & largest for i in range(fields)] for row in table
            ]


def test_frozen_k5_witnesses_are_multiplicative_on_both_kernels():
    """Relation, wedges and quads of every K=5 witness's n-digit tensor are
    its one-digit values to the n-th power, on both table forms.  Collisions
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
                measured_widths(inst)
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


def test_k7_constrained_optima_hold_both_ladders():
    """The two-digit tensors of the named K=7 four-slice optima: every slice
    25 = 5**2, and both ladders hold at N = 25 on exact counts."""
    for pattern, quads in zip(K7_CONSTRAINED_OPTIMA, (231**2, 250**2)):
        inst = tensor_pattern(pattern, 2)
        assert slice_sizes(inst, with_d=True) == {"A": 25, "B": 25, "C": 25, "D": 25}
        three = proofs.verify_three_slice_chain(inst, 25)
        four = proofs.verify_four_slice_chain(inst, 25)
        assert three.all_hold and four.all_hold
        assert three.cardinalities == {
            "relation": 12**2,
            "wedges": 34**2,
            "quads": quads,
        }
        assert four.cardinalities == {
            "relation": 12**2,
            "wedges": 34**2,
            "collisions": 66**2,
        }


def test_dense_rule_reads_the_slice_sizes():
    """The ladders read the rule's sizes off their own walk over G.  The
    tensors the ladder benchmark runs fit their packed tables; a 5,000-pair
    matching (75M quad slots, 5,000 wedges) does not."""
    k = 5000
    matching = Instance(
        group=Z,
        a_set=range(k),
        b_set=range(0, 2 * k, 2),
        pairs=tuple((i, 2 * i) for i in range(k)),
    )
    for inst, forms in (
        # example one's skew labels a+2b are all distinct: 7,776 x 243 slots > 12^5 wedges
        (build_example_one(5), ["packed", "dict"]),
        (build_example_two(4), ["packed", "packed"]),
        (matching, ["dict", "dict"]),
    ):
        assert forms_taken(*both_ladders(inst)) == forms
    # 18 pairs, 82 wedges: 399 quad slots, under 12 per wedge, go packed;
    # 45 collision slots and the rule's charge per pair, 45 + 2 * 18, stay
    # under 3 * 82, so the collisions go packed too
    small = reduce_to_difference_injective(random_instance(random.Random(33)))
    sums = proofs._id_rows(small, 1)
    skew = proofs._id_rows(small, 2)
    assert (skew.pairs, skew.wedges) == (18, 82)
    c, d, b = sums.labels, skew.labels, skew.partners
    assert (c * c + c * b + b * b, d * b) == (399, 45)
    assert forms_taken(*both_ladders(small)) == ["packed", "packed"]
    # one seeded instance on each side of the collision boundary: 10 x 10
    # slots + 2 * 11 pairs is one under 3 * 41 wedges, and 7 x 7 + 2 * 7
    # meets 3 * 21
    for seed, sizes, form in (
        (687, (10, 10, 11, 41), "packed"),
        (1253, (7, 7, 7, 21), "dict"),
    ):
        inst = reduce_to_difference_injective(random_instance(random.Random(seed)))
        skew = proofs._id_rows(inst, 2)
        assert (skew.labels, skew.partners, skew.pairs, skew.wedges) == sizes
        assert forms_taken(both_ladders(inst)[1]) == [form]


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
        assert exhaustive_round_trip(inst) == ladder_counts(inst)


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
