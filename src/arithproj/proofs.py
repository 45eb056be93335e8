"""Wedge chains and the exact inequality ladders for difference projections.

A wedge is a triple (a, b, b2) with (a, b) and (a, b2) both in G: one left
element seen with an ordered pair of right partners.  Chaining wedges through
label collisions gives two counting arguments:

* three-slice chain: 4-tuples of wedges linked by the labels
  (a+b, a+b2), then (b, b2), then (a+b, b2).  Each linked 4-tuple is
  determined by its first wedge, the third wedge's left element, and the
  fourth wedge's first partner, so the 4-tuple count is at most
  #G_budget^2 * wedge count.  Combined with the chain lower bound this caps
  the number of distinct differences a - b at budget^(11/6).

* four-slice chain: wedge pairs sharing the label (a+2b, b2).  Each pair is
  determined by (a0+b0, a0+b0_2, b1), capping the pair count at budget^3 and
  the distinct differences at budget^(7/4).

Both "determined by" claims are realized below as explicit reconstruction
functions, so injectivity is checked by execution rather than argued.

Every verdict is an integer comparison: an Inequality keeps its left side
as a numerator over a positive denominator and its right side as an
integer, and cross-multiplies, so x <= N^(p/q) is x**q <= N**p; its
Fraction sides are built only when read.

The ladder counts stream: one forward walk over the sorted pairs of G
numbers its rows, and count_linked_quads and count_skew_collisions run the
fiber-sum recursion of chain_count_dp directly over them, so no wedge or
label tuple is built.  Each pair (a, b) appends to a's row the index of b
in the sorted B, so partner ids keep value order, and the id of its label
a + k*b (k = 1 for the quads, 2 for the collisions), reduced once and
numbered on first sight.  For a verify_* ladder the walk also keeps only
the first pair of each difference a - b, the lex-smallest one, which is
the pair reduce_to_difference_injective keeps, and the 7/4 ladder collects
the sums a + b as well.  #C or #D is the number of label ids and #A and #B
are the instance's own sets, so the hypotheses, the wedge cap and the
kernel rule read their sizes off the walk, in that order, before any
table is allocated.  Each fiber table is indexed by a label id and counts
the second coordinate of the label.  The rule picks the table's form:
packed dense rows over the label and partner ids, or int-keyed dicts
holding at most one entry per wedge.  A packed row is one int with a
fixed-width field per label or partner id, so a pair (a, b) adds a row's
whole indicator with one big-int add, and each table is unpacked once,
through int.to_bytes and memoryview.cast.  The dense quads are the sum over
first wedges (a, b, b2) of c1[a+b][a+b2] * F3[b][b2], where F3[b] sums
n3[a+b] & mask(partners of a) over the a with (a, b) in G.  A field is the
narrowest of 8, 16, 32 or 64 bits that holds its proven maximum: c1 and n3
fields count at most #rows (a row meets a sum at one partner at most), F3
fields at most #rows^2, and collision fields at most #G, because a+2b
repeats within a row mod an even m; a relation that fits no width takes
the sparse path.  The quads go dense while #C^2 + #C*#B + #B^2 <=
12 * wedges; up to that ratio the dense tracemalloc peak stays at or below
the sparse one.  The collisions go dense while #D*#B + 8 * #G <
2 * wedges, which also charges the dense kernel's work per pair.
linked_quad_problem and skew_collision_problem build the same counts as
explicit ChainProblems for cross-checking.
"""

from __future__ import annotations

import operator
import sys
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

# chain_count_dp is re-exported: it counts the explicit problems below.
from .chains import ChainProblem, Labeling, chain_count_dp  # noqa: F401
from .errors import EnumerationCapExceeded, NoPreimage, NotDifferenceInjective
from .groups import AmbientGroup
from .instances import SKEW_SUM, SUM, Instance, _within_budget, project

# the ladders reduce and check their hypotheses in their own walk over G;
# perfbench's trace sites still wrap these two as attributes of this module
from .instances import reduce_to_difference_injective, require_hypotheses  # noqa: F401

__all__ = [
    "DEFAULT_WEDGE_CAP",
    "FOUR_SLICE_EXPONENT",
    "THREE_SLICE_EXPONENT",
    "ChainReport",
    "Inequality",
    "Wedge",
    "collision_fingerprint",
    "count_linked_quads",
    "count_skew_collisions",
    "enumerate_wedges",
    "linked_quad_problem",
    "quad_fingerprint",
    "reconstruct_pair",
    "reconstruct_quad",
    "skew_collision_problem",
    "verify_four_slice_chain",
    "verify_three_slice_chain",
    "wedge_count",
]

DEFAULT_WEDGE_CAP = 10**6

# alpha in #differences <= budget**alpha, for each ladder; kakeya derives
# its dimension bounds from the same two values
THREE_SLICE_EXPONENT = Fraction(11, 6)
FOUR_SLICE_EXPONENT = Fraction(7, 4)

# each left element's sorted right partners, as Instance.partners() returns them
_Partners = dict[int, tuple[int, ...]]


class Wedge(NamedTuple):
    """A left element with an ordered pair of right partners, both pairs in G."""

    a: int
    b: int
    b2: int


def _square_degrees(partners: _Partners) -> int:
    """The wedge count of partner rows: the sum of their squared lengths."""
    return sum(len(ys) ** 2 for ys in partners.values())


def wedge_count(inst: Instance) -> int:
    """Sum of squared left degrees, without materializing the wedges."""
    return _square_degrees(inst.partners())


def _check_cap(wedges: int, cap: int) -> None:
    if wedges > cap:
        raise EnumerationCapExceeded(f"{wedges} wedges exceed cap {cap}")


# one (partner ids, label ids) per left element, in the order of its pairs
_Rows = list[tuple[list[int], list[int]]]


class _IdRows(NamedTuple):
    """Numbered rows of G and the sizes the ladders read off them."""

    rows: _Rows
    pairs: int  # the pairs kept
    wedges: int  # the sum of squared row lengths
    labels: int  # distinct labels a + k*b: #C for k = 1, #D for k = 2
    sums: int  # distinct sums a + b: #C
    partners: int  # #B, since a partner id indexes the whole sorted B


def _id_rows(inst: Instance, k: int, one_per_difference: bool) -> _IdRows:
    """One forward walk over the sorted pairs of G.

    With one_per_difference a pair is skipped when an earlier pair has its
    difference a - b, so each difference keeps its lex-smallest pair, the
    one reduce_to_difference_injective keeps.  A kept pair (a, b) appends
    to a's row the index of b in the sorted B, so partner ids keep value
    order, and the id of its label a + k*b, reduced once and numbered on
    first sight.  For k != 1 the walk also counts the distinct sums a + b.
    """
    m = inst.group.modulus
    partner_id = {b: i for i, b in enumerate(inst.b_set)}
    label_id: dict[int, int] = {}
    differences: set[int] = set()
    sums: set[int] = set()  # empty for k = 1, whose labels are the sums
    rows: _Rows = []
    last = None
    for a, b in inst.pairs:
        if m is None:
            d, s = a - b, a + k * b
        else:
            d, s = (a - b) % m, (a + k * b) % m
        if one_per_difference:
            if d in differences:
                continue
            differences.add(d)
        if k != 1:
            sums.add(a + b if m is None else (a + b) % m)
        if a != last:
            last = a
            ys, ids = [], []
            rows.append((ys, ids))
        ys.append(partner_id[b])
        ids.append(label_id.setdefault(s, len(label_id)))
    return _IdRows(
        rows=rows,
        pairs=len(differences) if one_per_difference else len(inst.pairs),
        wedges=sum(len(ys) ** 2 for ys, _ in rows),
        labels=len(label_id),
        sums=len(sums) if k != 1 else len(label_id),
        partners=len(partner_id),
    )


# memoryview cast codes of the packed field widths, in bits
_CAST_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _field_width(largest: int) -> int | None:
    """The narrowest field width that holds largest, or None past 64 bits."""
    for width in _CAST_CODES:
        if largest >> width == 0:
            return width
    return None


def _packed(ids: Sequence[int], width: int) -> int:
    """A row's indicator: the field of width bits at each id set to 1."""
    row = 0
    for i in ids:
        row |= 1 << (i * width)
    return row


def _unpacked(table: list[int], fields: int, width: int) -> list[list[int]]:
    """Each packed int of table as the list of its first fields fields,
    lowest bits first: one join and one cast for the whole table."""
    size = fields * width // 8
    data = b"".join([row.to_bytes(size, sys.byteorder) for row in table])
    view = memoryview(data).cast(_CAST_CODES[width])
    rows = [view[i * fields : (i + 1) * fields].tolist() for i in range(len(table))]
    if sys.byteorder == "big":  # to_bytes put each row's highest field first
        for values in rows:
            values.reverse()
    return rows


def enumerate_wedges(inst: Instance) -> tuple[Wedge, ...]:
    partners = inst.partners()
    _check_cap(_square_degrees(partners), DEFAULT_WEDGE_CAP)
    out = []
    for a, ys in sorted(partners.items()):
        for b in ys:
            for b2 in ys:
                out.append(Wedge(a, b, b2))
    return tuple(out)


def linked_quad_problem(inst: Instance) -> ChainProblem:
    """X = wedges, three labelings into C x C, B x B, C x B."""
    g = inst.group
    wedges = enumerate_wedges(inst)
    c_size = len(project(inst, SUM))
    b_size = len(inst.b_set)
    labelings = (
        Labeling({w: (g.add(w.a, w.b), g.add(w.a, w.b2)) for w in wedges}, c_size**2),
        Labeling({w: (w.b, w.b2) for w in wedges}, b_size**2),
        Labeling({w: (g.add(w.a, w.b), w.b2) for w in wedges}, c_size * b_size),
    )
    return ChainProblem(items=wedges, labelings=labelings)


def count_linked_quads(inst: Instance) -> int:
    """Chains of the three linked_quad_problem labelings, by fiber sums.

    The tables run over the numbered rows of one walk over G, in which the
    sums a+b are the labels, #C is the number of label ids and #B that of
    partner ids.  c1[a+b] counts the row's sums a+b2 and n3[a+b] its
    partners b2, so they hold the fiber sizes of (a+b, a+b2) and (a+b, b2).
    A first wedge (a, b, b2) heads c1[a+b][a+b2] chains into the label
    (b, b2), and a third wedge (a, b, b2) starts n3[a+b][b2] last wedges.
    The sparse tables sum c1 into c2[b][b2] over the unordered partner pairs
    of each row, mirror it (c1 is symmetric under swapping b and b2, so c2
    is too) and end with one dot product of c2[b] and n3[a+b] per pair
    (a, b).  The dense tables are packed rows: F3[b][b2] sums n3[a+b][b2]
    over the a with (a, b) and (a, b2) in G, at one AND with a's row mask
    and one add per pair, and the count is one dot product of c1[a+b] and
    F3[b] per pair (a, b).  Fields are 8 to 64 bits wide: at most #rows for
    c1 and n3, at most #rows^2 for F3.  The form is picked by the rule in
    the module docstring.
    """
    walk = _id_rows(inst, 1, one_per_difference=False)
    _check_cap(walk.wedges, DEFAULT_WEDGE_CAP)
    return _linked_quads(walk)


def _linked_quads(walk: _IdRows) -> int:
    c_size, b_size = walk.labels, walk.partners
    # at 12 slots per wedge the dense and sparse tracemalloc peaks meet
    if c_size * c_size + c_size * b_size + b_size * b_size <= 12 * walk.wedges:
        return _linked_quads_dense(walk)
    return _linked_quads_sparse(walk)


def _linked_quads_dense(walk: _IdRows) -> int:
    """Sum over first wedges (a, b, b2) of c1[a+b][a+b2] * F3[b][b2], on
    packed rows: F3[b][b2] counts the last wedges of the third wedges
    (a', b, b2) that the first wedge's chains reach."""
    rows, n_c, n_b = walk.rows, walk.labels, walk.partners
    first = _field_width(len(rows))  # a c1 or n3 field counts rows
    wide = _field_width(len(rows) ** 2)  # an F3 field sums n3 fields over rows
    if wide is None:
        return _linked_quads_sparse(walk)
    c1, n3 = [0] * n_c, [0] * n_c  # n3 has F3's width, so its fields add into F3
    masks = []
    full = (1 << wide) - 1
    for ys, sums in rows:
        row_sums, row_partners = _packed(sums, first), _packed(ys, wide)
        for s in sums:
            c1[s] += row_sums
            n3[s] += row_partners
        masks.append(row_partners * full)
    f3 = [0] * n_b
    for (ys, sums), mask in zip(rows, masks):
        for b, s in zip(ys, sums):
            f3[b] += n3[s] & mask
    del n3, masks
    c1 = _unpacked(c1, n_c, first)
    f3 = _unpacked(f3, n_b, wide)
    quads = 0
    for ys, sums in rows:
        if len(ys) == 1:  # itemgetter of one index returns no tuple
            quads += c1[sums[0]][sums[0]] * f3[ys[0]][ys[0]]
            continue
        at_sums, at_partners = operator.itemgetter(*sums), operator.itemgetter(*ys)
        for b, s in zip(ys, sums):
            quads += sum(map(operator.mul, at_sums(c1[s]), at_partners(f3[b])))
    return quads


def _linked_quads_sparse(walk: _IdRows) -> int:
    rows = walk.rows
    c1, n3, c2 = defaultdict(dict), defaultdict(dict), defaultdict(dict)
    for ys, sums in rows:
        for s in sums:
            sum_fiber, partner_fiber = c1[s], n3[s]
            for b2, t in zip(ys, sums):
                sum_fiber[t] = sum_fiber.get(t, 0) + 1
                partner_fiber[b2] = partner_fiber.get(b2, 0) + 1
    for ys, sums in rows:  # partner ids rise along a row, so b <= b2 below
        for i, (b, s) in enumerate(zip(ys, sums)):
            fiber, head = c1[s], c2[b]
            for b2, t in zip(ys[i:], sums[i:]):
                head[b2] = head.get(b2, 0) + fiber[t]
    for b, head in c2.items():  # every partner b2 is already a key of c2
        for b2, weight in head.items():
            if b2 > b:
                c2[b2][b] = weight
    return _last_wedges(rows, n3, c2)


def _last_wedges(rows: _Rows, n3, c2) -> int:
    """Sum over third wedges (a, b, b2) of c2[b][b2] * n3[a+b][b2]."""
    quads = 0
    for ys, sums in rows:
        for b, s in zip(ys, sums):
            last, heads = n3[s].__getitem__, c2[b].__getitem__
            quads += sum(map(operator.mul, map(last, ys), map(heads, ys)))
    return quads


def skew_collision_problem(inst: Instance) -> ChainProblem:
    """X = wedges, one labeling into D x B."""
    g = inst.group
    wedges = enumerate_wedges(inst)
    d_size = len(project(inst, SKEW_SUM))
    b_size = len(inst.b_set)
    labelings = (
        Labeling({w: (g.add(w.a, g.scale(2, w.b)), w.b2) for w in wedges}, d_size * b_size),
    )
    return ChainProblem(items=wedges, labelings=labelings)


def count_skew_collisions(inst: Instance) -> int:
    """Ordered wedge pairs sharing (a+2b, b2): the sum of squared fiber sizes.

    fibers[a+2b] counts the row's partners b2 over the numbered rows of one
    walk over G, whose labels are the skew sums a+2b, dense or sparse by
    the rule in the module docstring.  A dense fiber is one packed int with
    a field per partner of up to #G, not #rows, since a+2b repeats within a
    row mod an even m.
    """
    walk = _id_rows(inst, 2, one_per_difference=False)
    _check_cap(walk.wedges, DEFAULT_WEDGE_CAP)
    return _skew_collisions(walk)


def _skew_collisions(walk: _IdRows) -> int:
    # a dense pair costs what the dense table saves on about four wedges,
    # and a slot what it saves on half of one
    if walk.labels * walk.partners + 8 * walk.pairs < 2 * walk.wedges:
        return _skew_collisions_dense(walk)
    return _skew_collisions_sparse(walk)


def _skew_collisions_dense(walk: _IdRows) -> int:
    # a+2b repeats within a row mod an even m, so a field counts up to #G pairs
    width = _field_width(walk.pairs)
    if width is None:
        return _skew_collisions_sparse(walk)
    fibers = [0] * walk.labels
    for ys, labels in walk.rows:
        row_partners = _packed(ys, width)
        for d in labels:
            fibers[d] += row_partners
    size, code = walk.partners * width // 8, _CAST_CODES[width]
    collisions = 0
    for fiber in fibers:  # one fiber's bytes at a time; the order of fields is moot
        sizes = memoryview(fiber.to_bytes(size, sys.byteorder)).cast(code)
        collisions += sum(map(operator.mul, sizes, sizes))
    return collisions


def _skew_collisions_sparse(walk: _IdRows) -> int:
    fibers = defaultdict(dict)
    for ys, labels in walk.rows:
        for d in labels:
            fiber = fibers[d]
            for b2 in ys:
                fiber[b2] = fiber.get(b2, 0) + 1
    return sum(n * n for fiber in fibers.values() for n in fiber.values())


def quad_fingerprint(quad: tuple[Wedge, Wedge, Wedge, Wedge]) -> tuple[Wedge, int, int]:
    """(first wedge, third wedge's left element, fourth wedge's first partner)."""
    return (quad[0], quad[2].a, quad[3].b)


def collision_fingerprint(
    group: AmbientGroup, pair: tuple[Wedge, Wedge]
) -> tuple[int, int, int]:
    """(a0 + b0, a0 + b0_2, b1): two sums from the first wedge, one partner."""
    w0, w1 = pair
    return (group.add(w0.a, w0.b), group.add(w0.a, w0.b2), w1.b)


def _difference_index(inst: Instance) -> dict[int, tuple[int, int]]:
    g = inst.group
    index = {g.sub(x, y): (x, y) for x, y in inst.pairs}
    if len(index) != len(inst.pairs):
        raise NotDifferenceInjective(
            "reconstruction requires pairwise distinct differences a - b"
        )
    return index


def reconstruct_quad(
    inst: Instance, w0: Wedge, apex2: int, partner3: int
) -> tuple[Wedge, Wedge, Wedge, Wedge]:
    """Invert quad_fingerprint on a difference-injective instance.

    The three label equalities force
        a3 - b3_2 = apex2 - partner3 + (b0 - b0_2),
    and that difference determines the pair (a3, b3_2).  The remaining
    coordinates then unwind: b2 = a3 + b3 - a2 from the third label,
    (b1, b1_2) = (b2, b2_2) from the second, a1 = a0 + b0 - b1 from the
    first.  Raises NoPreimage when any forced coordinate fails its
    membership or consistency check.
    """
    g = inst.group
    index = _difference_index(inst)
    pairs = set(inst.pairs)
    if (w0.a, w0.b) not in pairs or (w0.a, w0.b2) not in pairs:
        raise NoPreimage(f"{w0} is not a wedge of the instance")
    delta = g.add(g.sub(apex2, partner3), g.sub(w0.b, w0.b2))
    hit = index.get(delta)
    if hit is None:
        raise NoPreimage(f"no pair with difference {delta}")
    a3, b3_2 = hit
    b3 = partner3
    b2 = g.sub(g.add(a3, b3), apex2)
    b2_2 = b3_2
    b1, b1_2 = b2, b2_2
    a1 = g.sub(g.add(w0.a, w0.b), b1)
    memberships = [
        (a1, b1),
        (a1, b1_2),
        (apex2, b2),
        (apex2, b2_2),
        (a3, b3),
    ]
    if any(p not in pairs for p in memberships):
        raise NoPreimage("forced coordinates leave the relation")
    if g.add(w0.a, w0.b2) != g.add(a1, b1_2):
        raise NoPreimage("second-sum consistency fails")
    return (w0, Wedge(a1, b1, b1_2), Wedge(apex2, b2, b2_2), Wedge(a3, b3, b3_2))


def reconstruct_pair(
    inst: Instance, sum0: int, alt_sum0: int, partner1: int
) -> tuple[Wedge, Wedge]:
    """Invert collision_fingerprint on a difference-injective instance.

    The skew label equality forces
        a1 - b1_2 = 2*sum0 - 2*partner1 - alt_sum0,
    determining (a1, b1_2); then b0_2 = b1_2, a0 = 2*sum0 - (a1 + 2*partner1)
    and b0 = sum0 - a0.
    """
    g = inst.group
    index = _difference_index(inst)
    pairs = set(inst.pairs)
    delta = g.sub(g.sub(g.scale(2, sum0), g.scale(2, partner1)), alt_sum0)
    hit = index.get(delta)
    if hit is None:
        raise NoPreimage(f"no pair with difference {delta}")
    a1, b1_2 = hit
    b0_2 = b1_2
    a0 = g.sub(g.scale(2, sum0), g.add(a1, g.scale(2, partner1)))
    b0 = g.sub(sum0, a0)
    if g.add(a0, b0_2) != alt_sum0:
        raise NoPreimage("second-sum consistency fails")
    memberships = [(a0, b0), (a0, b0_2), (a1, partner1), (a1, b1_2)]
    if any(p not in pairs for p in memberships):
        raise NoPreimage("forced coordinates leave the relation")
    return (Wedge(a0, b0, b0_2), Wedge(a1, partner1, b1_2))


@dataclass(slots=True)
class Inequality:
    """One exact comparison lhs <= rhs: a rational left side, kept as an
    integer numerator over a positive integer denominator, and an integer
    right side.

    holds is decided on the integers, lhs_num <= rhs_num * lhs_den; the
    Fraction sides lhs, rhs and slack are built only when read.
    """

    name: str
    lhs_num: int
    rhs_num: int
    lhs_den: int = 1
    holds: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.lhs_den < 1:
            raise ValueError(f"{self.name}: the denominator must be >= 1")
        self.holds = self.lhs_num <= self.rhs_num * self.lhs_den

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.lhs_den)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num)

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        lhs, rhs, slack = self.lhs, self.rhs, self.slack
        return {
            "name": self.name,
            "lhs": {"num": lhs.numerator, "den": lhs.denominator},
            "rhs": {"num": rhs.numerator, "den": rhs.denominator},
            "holds": self.holds,
            "slack": {"num": slack.numerator, "den": slack.denominator},
        }


@dataclass(frozen=True)
class ChainReport:
    budget: int
    cardinalities: dict[str, int]
    inequalities: tuple[Inequality, ...]

    @property
    def all_hold(self) -> bool:
        return all(ineq.holds for ineq in self.inequalities)

    def to_json_dict(self) -> dict:
        return {
            "N": self.budget,
            "cardinalities": dict(self.cardinalities),
            "inequalities": [ineq.to_json_dict() for ineq in self.inequalities],
            "all_hold": self.all_hold,
        }


def _ladder_walk(inst: Instance, k: int, budget: int, cap: int) -> _IdRows:
    """The numbered rows of the difference-injective reduction of inst, with
    labels a + k*b, once budget bounds #A, #B, #C and, for k = 2, #D (else
    ValueError or HypothesisViolated) and cap bounds the wedges (else
    EnumerationCapExceeded)."""
    walk = _id_rows(inst, k, one_per_difference=True)
    sizes = {"A": len(inst.a_set), "B": walk.partners, "C": walk.sums}
    if k == 2:
        sizes["D"] = walk.labels
    _within_budget(sizes, budget)
    _check_cap(walk.wedges, cap)
    return walk


def verify_three_slice_chain(
    inst: Instance, budget: int, cap: int = DEFAULT_WEDGE_CAP
) -> ChainReport:
    """Run the 11/6 ladder on the difference-injective reduction of inst.

    Requires #A, #B <= budget and #C <= budget on the reduced instance.
    The quad lower bound appears twice: once against budget powers and once
    against the actual ambient label sizes, which is sharper.
    """
    walk = _ladder_walk(inst, 1, budget, cap)
    relation, wedges, c_size, b_size = walk.pairs, walk.wedges, walk.sums, walk.partners
    quads = _linked_quads(walk)
    n = budget
    inequalities = (
        Inequality("wedge-count-lower", relation**2, wedges, lhs_den=n),
        Inequality("quad-count-lower-budget", wedges**4, quads, lhs_den=n**6),
        Inequality(
            "quad-count-lower-exact", wedges**4, quads, lhs_den=max(1, c_size**3 * b_size**3)
        ),
        Inequality("quad-count-upper", quads, n**2 * wedges),
        Inequality("wedge-count-upper", wedges**3, n**8),
        Inequality(
            "difference-count-upper",
            relation**THREE_SLICE_EXPONENT.denominator,
            n**THREE_SLICE_EXPONENT.numerator,
        ),
    )
    return ChainReport(
        budget=budget,
        cardinalities={"relation": relation, "wedges": wedges, "quads": quads},
        inequalities=inequalities,
    )


def verify_four_slice_chain(
    inst: Instance, budget: int, cap: int = DEFAULT_WEDGE_CAP
) -> ChainReport:
    """Run the 7/4 ladder on the difference-injective reduction of inst.

    Requires #A, #B, #C, #D <= budget on the reduced instance.
    """
    walk = _ladder_walk(inst, 2, budget, cap)
    relation, wedges, d_size, b_size = walk.pairs, walk.wedges, walk.labels, walk.partners
    collisions = _skew_collisions(walk)
    n = budget
    inequalities = (
        Inequality("pair-count-lower-budget", wedges**2, collisions, lhs_den=n**2),
        Inequality(
            "pair-count-lower-exact", wedges**2, collisions, lhs_den=max(1, d_size * b_size)
        ),
        Inequality("pair-count-upper", collisions, n**3),
        Inequality("wedge-count-upper", wedges**2, n**5),
        Inequality(
            "difference-count-upper",
            relation**FOUR_SLICE_EXPONENT.denominator,
            n**FOUR_SLICE_EXPONENT.numerator,
        ),
    )
    return ChainReport(
        budget=budget,
        cardinalities={"relation": relation, "wedges": wedges, "collisions": collisions},
        inequalities=inequalities,
    )
