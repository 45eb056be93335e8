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

Both "determined by" claims are realized as explicit reconstruction
functions in the test oracles (tests/oracles.py), so injectivity is
checked by execution rather than argued.

Every verdict is an integer comparison: an Inequality keeps its left side
as a numerator over a positive denominator and its right side as an
integer, and cross-multiplies, so x <= N^(p/q) is x**q <= N**p; its
Fraction sides are built only when read.

The ladder counts stream: each verify_* ladder makes one forward walk
over the sorted pairs of G that numbers its rows, and its count runs the
fiber-sum recursion of chain_count_dp directly over them, so no wedge or
label tuple is built.  The walk keeps only the first pair of each
difference a - b, the lex-smallest one, which is the pair
reduce_to_difference_injective keeps, so both ladders count on a
difference-injective G, as the paper's arguments require.  Each kept pair
(a, b) appends to a's row the index of b in the sorted B and the id of its
label a + k*b (k = 1 for the quads, 2 for the collisions), reduced once
and numbered on first sight; no kernel reads the order of either id.  The
7/4 ladder collects the sums a + b as well.  #C or #D is the number of
label ids and #A and #B are the instance's own sets, so the hypotheses,
the wedge cap and the kernel rule read their sizes off the walk, in that
order, before any table is allocated.  Each fiber table is indexed by a label id and
counts the second coordinate of the label, and each count picks its
table form once, by its rule: packed dense rows over the label and
partner ids, or int-keyed dicts holding at most one entry per wedge.
Two builders fill every table: _packed_fibers adds a row's packed
indicator into table[s] once per label id s of the row, and hands the
indicators back for the quads' row masks, and _dict_fibers does the same
on dicts.  A packed row is one int with a fixed-width field per label or
partner id, so a pair (a, b) adds a row's whole indicator with one
big-int add, and _unpacked reads the fields of every packed table back,
one row at a time, from the row's little-endian bytes: an 8-bit row stays
one bytes object, which reads each field back as an int, and a wider row
becomes a tuple through one struct unpack, so no step depends on the
host's byte order.  Each count is one kernel over either form.  The
collisions sum the squares of the skew fibers.  The quads are one
recursion: F3[b][b2] sums n3[a+b][b2] over the wedges (a, b, b2), on
packed rows as n3[a+b] & mask(partners of a) over the a with (a, b) in G,
and one shared last step sums c1[a+b][a+b2] * F3[b][b2] over the first
wedges (a, b, b2).  A field is the narrowest of 8, 16, 32 or 64 bits
that holds a bound the rows prove: c1 and n3 fields count at most the
largest sum fiber (a row meets a sum at one partner at most), F3 fields
at most that fiber times the largest partner column degree, and
collision fields at most the largest skew fiber, which counts pairs
because a+2b repeats within a row mod an even m.  _field_width sizes
every field from its coarse bound, #rows, #rows^2 or #G, and the average
of its fibers, and measures the fibers, by one C-level count of each id
column over the numbered rows, only when those two ends give different
widths, so no field is wider than its coarse bound, which passes 64 bits
only at 2^32 rows, where _field_width raises.  The quads go dense while
#C^2 + #C*#B + #B^2 <= 12 * wedges; up to that ratio the dense
tracemalloc peak stays below half the sparse one.  The collisions go
dense while #D*#B + 2 * #G < 3 * wedges, a rule fitted to the two kernels'
times on small random walks, which charges the dense kernel's work per
slot and per pair.  linked_quad_problem and skew_collision_problem build
the same counts as explicit ChainProblems for cross-checking.
"""

from __future__ import annotations

import operator
import struct
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

# chain_count_dp is re-exported: it counts the explicit problems below.
from .chains import ChainProblem, Labeling, chain_count_dp  # noqa: F401
from .errors import EnumerationCapExceeded
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
    "enumerate_wedges",
    "linked_quad_problem",
    "skew_collision_problem",
    "verify_four_slice_chain",
    "verify_three_slice_chain",
]

DEFAULT_WEDGE_CAP = 10**6

# alpha in #differences <= budget**alpha, for each ladder; kakeya derives
# its dimension bounds from the same two values
THREE_SLICE_EXPONENT = Fraction(11, 6)
FOUR_SLICE_EXPONENT = Fraction(7, 4)


class Wedge(NamedTuple):
    """A left element with an ordered pair of right partners, both pairs in G."""

    a: int
    b: int
    b2: int


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
    largest: dict[int, int]  # each id column's largest fiber, once counted


def _id_rows(inst: Instance, k: int) -> _IdRows:
    """One forward walk over the sorted pairs of G.

    A pair is skipped when an earlier pair has its difference a - b, so
    each difference keeps its lex-smallest pair, the one
    reduce_to_difference_injective keeps.  A kept pair (a, b) appends to
    a's row the index of b in the sorted B and the id of its label a + k*b,
    reduced once and numbered on first sight.  For k != 1 the walk also
    counts the distinct sums a + b.
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
        pairs=len(differences),
        wedges=sum(len(ys) ** 2 for ys, _ in rows),
        labels=len(label_id),
        sums=len(sums) if k != 1 else len(label_id),
        partners=len(partner_id),
        largest={},
    )


# struct format codes of the packed field widths, in bits
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _field_width(bound: int, walk: _IdRows | None = None, columns: tuple[int, ...] = ()) -> int:
    """The narrowest of 8, 16, 32 or 64 bits that holds every value up to
    bound.  Given a walk, the field also holds at most the product of the
    largest fibers of the given id columns of its rows (0 for partner ids,
    1 for label ids).  That product lies between bound and the product of
    the columns' averages over the #B partner ids and the label ids, so the
    rows are counted only when those two ends give different widths past 8
    bits, each column at most once per walk.  A coarse bound, #rows,
    #rows^2 or #G, passes 64 bits only when the relation has 2^32 rows."""
    width = 8
    while bound >> width:
        width *= 2
    if width > 64:
        raise OverflowError(f"{bound} needs a field wider than 64 bits")
    if walk is None or width == 8:  # past 8 bits there are labels to average over
        return width
    # loops, not generator expressions, whose cells every call would allocate
    average = measured = 1
    for c in columns:
        average *= -(-walk.pairs // (walk.labels if c else walk.partners))
    if width == _field_width(average):
        return width
    for c in columns:
        if c not in walk.largest:
            walk.largest[c] = _largest_fiber(walk.rows, c)
        measured *= walk.largest[c]
    return _field_width(measured)


def _largest_fiber(rows: _Rows, column: int) -> int:
    """The most times one id occurs in a column of the rows, by a C-level count."""
    return max(Counter(chain.from_iterable(row[column] for row in rows)).values(), default=0)


def _packed(ids: Sequence[int], width: int) -> int:
    """A row's indicator: the field of width bits at each id set to 1."""
    row = 0
    for i in ids:
        row |= 1 << (i * width)
    return row


def _packed_fibers(
    rows: _Rows, size: int, column: int, width: int
) -> tuple[list[int], list[int]]:
    """table[s] for s < size: the sum, over the rows and each label id s of
    the row, of the packed indicator of the row's column (0 for partner ids,
    1 for label ids), in fields of width bits; and each row's indicator, in
    row order."""
    table, indicators = [0] * size, []
    for row in rows:
        packed = _packed(row[column], width)
        for s in row[1]:
            table[s] += packed
        indicators.append(packed)
    return table, indicators


def _dict_fibers(rows: _Rows, column: int) -> defaultdict[int, dict[int, int]]:
    """The table _packed_fibers builds, as int-keyed dicts: table[s][i]
    counts the row entries i of the column over the rows with label id s."""
    table = defaultdict(dict)
    for row in rows:
        ids = row[column]
        for s in row[1]:
            fiber = table[s]
            for i in ids:
                fiber[i] = fiber.get(i, 0) + 1
    return table


def _unpacked(table: Iterable[int], fields: int, width: int) -> Iterator[Sequence[int]]:
    """Each packed int of table, in turn, as its first fields fields, lowest
    bits first: its little-endian bytes, which at width 8 read each field
    back as an int, and at wider widths one struct unpack of them, so the
    fields come back in the same order on every host."""
    size = fields * width // 8
    rows = (row.to_bytes(size, "little") for row in table)
    return rows if width == 8 else map(struct.Struct(f"<{fields}{_CODES[width]}").unpack, rows)


def enumerate_wedges(inst: Instance) -> tuple[Wedge, ...]:
    partners = inst.partners()
    _check_cap(sum(len(ys) ** 2 for ys in partners.values()), DEFAULT_WEDGE_CAP)
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


def _linked_quads(walk: _IdRows) -> int:
    """Chains of the three linked_quad_problem labelings, by fiber sums.

    The tables run over the numbered rows of one walk over G, in which the
    sums a+b are the labels, #C is the number of label ids and #B that of
    partner ids.  c1[a+b] counts the row's sums a+b2 and n3[a+b] its
    partners b2, so they hold the fiber sizes of (a+b, a+b2) and (a+b, b2).
    A first wedge (a, b, b2) heads c1[a+b][a+b2] chains into the label
    (b, b2), and a third wedge (a, b, b2) starts n3[a+b][b2] last wedges.
    F3[b][b2] sums n3[a+b][b2] over the a with (a, b) and (a, b2) in G, and
    the count is one dot product of c1[a+b] and F3[b] per pair (a, b).  The
    rule in the module docstring picks the form once: c1 and n3 come from
    _packed_fibers, with fields 8 to 64 bits wide that _field_width sizes,
    and F3 takes one AND with a's row mask (the row's n3 indicator with
    every field full) and one add per pair, and _unpacked reads c1 and F3
    back; or all three are int-keyed dicts, c1 and n3 from _dict_fibers.
    Both forms share the last step.
    """
    rows, c_size, b_size = walk.rows, walk.labels, walk.partners
    # up to 12 slots per wedge the dense tracemalloc peak stays below 0.42 of
    # the sparse one; on one-sum matchings the two meet near 145 slots per wedge
    if c_size * c_size + c_size * b_size + b_size * b_size <= 12 * walk.wedges:
        first = _field_width(len(rows), walk, (1,))
        wide = _field_width(len(rows) ** 2, walk, (1, 0))
        c1 = _packed_fibers(rows, c_size, 1, first)[0]
        # F3's width, so n3's fields add into F3
        n3, partners = _packed_fibers(rows, c_size, 0, wide)
        full = (1 << wide) - 1
        f3 = [0] * b_size
        for (ys, sums), row in zip(rows, partners):
            mask = row * full
            for b, s in zip(ys, sums):
                f3[b] += n3[s] & mask
        del n3, partners
        return _first_wedges(rows, [*_unpacked(c1, c_size, first)], [*_unpacked(f3, b_size, wide)])
    c1, n3, f3 = _dict_fibers(rows, 1), _dict_fibers(rows, 0), defaultdict(dict)
    for ys, sums in rows:
        for b, s in zip(ys, sums):
            fiber, head = n3[s], f3[b]
            for b2 in ys:
                head[b2] = head.get(b2, 0) + fiber[b2]
    return _first_wedges(rows, c1, f3)


def _first_wedges(rows: _Rows, c1, f3) -> int:
    """Sum over first wedges (a, b, b2) of c1[a+b][a+b2] * F3[b][b2]: one
    gather and one dot product per pair (a, b), on rows of bytes, int tuples
    or dicts, which all hold every key a wedge of the rows reads."""
    quads = 0
    for ys, sums in rows:
        if len(ys) == 1:  # itemgetter of one index returns no tuple
            quads += c1[sums[0]][sums[0]] * f3[ys[0]][ys[0]]
            continue
        at_sums, at_partners = operator.itemgetter(*sums), operator.itemgetter(*ys)
        for b, s in zip(ys, sums):
            quads += sum(map(operator.mul, at_sums(c1[s]), at_partners(f3[b])))
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


def _skew_collisions(walk: _IdRows) -> int:
    """Ordered wedge pairs sharing (a+2b, b2): the sum of squared fiber sizes.

    fibers[a+2b] counts the row's partners b2 over the numbered rows of one
    walk over G, whose labels are the skew sums a+2b, built by
    _packed_fibers or _dict_fibers as the rule in the module docstring
    picks.  A packed fiber is one int with a field per partner, sized by
    _field_width to hold the largest skew fiber, which counts pairs, not
    rows, since a+2b repeats within a row mod an even m, and _unpacked reads
    the fibers back one at a time.
    """
    # fitted to per-walk kernel timings: a dense slot costs what the dense
    # table saves on a third of a wedge, and a dense pair on two thirds
    if walk.labels * walk.partners + 2 * walk.pairs < 3 * walk.wedges:
        width = _field_width(walk.pairs, walk, (1,))
        fibers = _packed_fibers(walk.rows, walk.labels, 0, width)[0]
        collisions = 0
        # one fiber at a time, so no second table is held
        for sizes in _unpacked(fibers, walk.partners, width):
            collisions += sum(map(operator.mul, sizes, sizes))
        return collisions
    fibers = _dict_fibers(walk.rows, 0)
    return sum(n * n for fiber in fibers.values() for n in fiber.values())


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
    walk = _id_rows(inst, k)
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
