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
All denominators and fractional powers are handled exactly: x <= N^(p/q) is
evaluated as x**q <= N**p over arbitrary-width integers.

The ladder counts stream: count_linked_quads and count_skew_collisions run
the fiber-sum recursion of chain_count_dp directly over the rows of one
inst.partners() build, so no wedge or label tuple is built.  Each fiber
table is indexed by the first coordinate of a label and counts the second.
One rule on the slice sizes picks its form.  When the label spaces fit
inside the wedge set (#C^2 + #C*#B + #B^2 <= 3 * wedges for the quads,
#D*#B <= wedges for the collisions), the labels and partners that occur
are numbered, partners in value order, in one pass over the pairs, and
every table row is a dense int list updated in place; otherwise every row
is an int-keyed dict.  A sparse table holds at most one entry per wedge,
so either way memory is O(#G + min(#label slots, #wedges)).  The wedge cap
still bounds the work: both check it on their partner rows and raise
EnumerationCapExceeded before any table is allocated, and each verify_*
ladder takes its wedge count from those same rows and its slice sizes from
require_hypotheses, so the rule costs no extra pass.
linked_quad_problem and skew_collision_problem build the same counts as
explicit ChainProblems for cross-checking.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

# chain_count_dp is re-exported: it counts the explicit problems below.
from .chains import ChainProblem, Labeling, chain_count_dp  # noqa: F401
from .errors import EnumerationCapExceeded, NoPreimage, NotDifferenceInjective
from .groups import AmbientGroup
from .instances import (
    SKEW_SUM,
    SUM,
    Instance,
    project,
    reduce_to_difference_injective,
    require_hypotheses,
)

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


class Wedge(NamedTuple):
    """A left element with an ordered pair of right partners, both pairs in G."""

    a: int
    b: int
    b2: int


def _square_degrees(partners: dict[int, tuple[int, ...]]) -> int:
    """The wedge count of partner rows: the sum of their squared lengths."""
    return sum(len(ys) ** 2 for ys in partners.values())


def wedge_count(inst: Instance) -> int:
    """Sum of squared left degrees, without materializing the wedges."""
    return _square_degrees(inst.partners())


def _capped_partners(inst: Instance, cap: int) -> tuple[dict[int, tuple[int, ...]], int]:
    """inst.partners() and its wedge count, once that is known to be at most cap."""
    rows = inst.partners()
    total = _square_degrees(rows)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} wedges exceed cap {cap}")
    return rows, total


# one (partners b of a, labels a + k*b) per row, the partners sorted
_Rows = list[tuple[Sequence[int], list[int]]]


def _labelled_rows(
    modulus: int | None, k: int, partners: dict[int, tuple[int, ...]]
) -> _Rows:
    """Each row's sorted partners with their labels a + k*b, reduced once per
    value in a modular group."""
    if modulus is None:
        return [(ys, [a + k * b for b in ys]) for a, ys in partners.items()]
    return [(ys, [(a + k * b) % modulus for b in ys]) for a, ys in partners.items()]


def _numbered(rows: _Rows) -> tuple[_Rows, int, int]:
    """rows with labels numbered 0..#labels-1 and partners 0..#partners-1,
    and both counts.  Partners are numbered in value order, so each row's
    ids stay sorted."""
    labels: set[int] = set()
    partners: set[int] = set()
    for ys, row_labels in rows:
        labels.update(row_labels)
        partners.update(ys)
    label_id = {s: i for i, s in enumerate(labels)}
    partner_id = {b: i for i, b in enumerate(sorted(partners))}
    numbered = [
        (list(map(partner_id.__getitem__, ys)), list(map(label_id.__getitem__, row_labels)))
        for ys, row_labels in rows
    ]
    return numbered, len(labels), len(partners)


def enumerate_wedges(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> tuple[Wedge, ...]:
    out = []
    for a, ys in sorted(_capped_partners(inst, cap)[0].items()):
        for b in ys:
            for b2 in ys:
                out.append(Wedge(a, b, b2))
    return tuple(out)


def linked_quad_problem(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> ChainProblem:
    """X = wedges, three labelings into C x C, B x B, C x B."""
    g = inst.group
    wedges = enumerate_wedges(inst, cap=cap)
    c_size = len(project(inst, SUM))
    b_size = len(inst.b_set)
    labelings = (
        Labeling({w: (g.add(w.a, w.b), g.add(w.a, w.b2)) for w in wedges}, c_size**2),
        Labeling({w: (w.b, w.b2) for w in wedges}, b_size**2),
        Labeling({w: (g.add(w.a, w.b), w.b2) for w in wedges}, c_size * b_size),
    )
    return ChainProblem(items=wedges, labelings=labelings)


def count_linked_quads(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> int:
    """Chains of the three linked_quad_problem labelings, by fiber sums.

    The fibers are rows indexed by partner or sum: c1[a+b] counts the row's
    sums a+b2 and n3[a+b] its partners b2, so they hold the fiber sizes of
    (a+b, a+b2) and (a+b, b2).  c2[b] sums c1 over the fibers of (b, b2);
    c1 is symmetric under swapping b and b2, so c2 is too, and it is summed
    over the unordered partner pairs of each row, then mirrored.  A third
    wedge (a, b, b2) ends c2[b][b2] chain heads and starts n3[a+b][b2] last
    wedges, so the count is one dot product per pair (a, b).

    The tables are dense lists over the numbered sums and partners when
    #C^2 + #C*#B + #B^2 <= 3 * wedges, for the slices C (the sums) and B,
    and int-keyed dicts otherwise.  Each sparse table holds at most one
    entry per wedge, so the dense tables never take more room than the
    sparse worst case.
    """
    rows, wedges = _capped_partners(inst, cap)
    sizes = (len(project(inst, SUM)), len(inst.b_set))
    return _linked_quads(inst.group.modulus, rows, wedges, *sizes)


def _linked_quads(
    modulus: int | None,
    partners: dict[int, tuple[int, ...]],
    wedges: int,
    c_size: int,
    b_size: int,
) -> int:
    rows = _labelled_rows(modulus, 1, partners)
    if c_size * c_size + c_size * b_size + b_size * b_size <= 3 * wedges:
        return _linked_quads_dense(rows)
    return _linked_quads_sparse(rows)


def _linked_quads_dense(rows: _Rows) -> int:
    rows, n_c, n_b = _numbered(rows)
    c1 = [[0] * n_c for _ in range(n_c)]
    n3 = [[0] * n_b for _ in range(n_c)]
    c2 = [[0] * n_b for _ in range(n_b)]
    for ys, sums in rows:
        for s in sums:
            fiber = c1[s]
            for t in sums:
                fiber[t] += 1
            fiber = n3[s]
            for b2 in ys:
                fiber[b2] += 1
    for ys, sums in rows:  # ids keep the partners' order, so b <= b2 below
        for i, (b, s) in enumerate(zip(ys, sums)):
            fiber, head = c1[s], c2[b]
            for b2, t in zip(ys[i:], sums[i:]):
                head[b2] += fiber[t]
    for b, column in enumerate(zip(*c2)):  # column[j] is c2[j][b], filled for j <= b
        c2[b][:b] = column[:b]
    return _last_wedges(rows, n3, c2)


def _linked_quads_sparse(rows: _Rows) -> int:
    c1, n3, c2 = defaultdict(dict), defaultdict(dict), defaultdict(dict)
    for ys, sums in rows:
        for s in sums:
            sum_fiber, partner_fiber = c1[s], n3[s]
            for b2, t in zip(ys, sums):
                sum_fiber[t] = sum_fiber.get(t, 0) + 1
                partner_fiber[b2] = partner_fiber.get(b2, 0) + 1
    for ys, sums in rows:  # ys is sorted, so b <= b2 below, even where sums wrap
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


def skew_collision_problem(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> ChainProblem:
    """X = wedges, one labeling into D x B."""
    g = inst.group
    wedges = enumerate_wedges(inst, cap=cap)
    d_size = len(project(inst, SKEW_SUM))
    b_size = len(inst.b_set)
    labelings = (
        Labeling({w: (g.add(w.a, g.scale(2, w.b)), w.b2) for w in wedges}, d_size * b_size),
    )
    return ChainProblem(items=wedges, labelings=labelings)


def count_skew_collisions(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> int:
    """Ordered wedge pairs sharing (a+2b, b2): the sum of squared fiber sizes.

    fibers[a+2b] counts the row's partners b2: a dense list over the
    numbered labels and partners when #D*#B <= wedges, for the slices D
    (the skew sums) and B, and an int-keyed dict, at most one entry per
    wedge, otherwise.
    """
    rows, wedges = _capped_partners(inst, cap)
    sizes = (len(project(inst, SKEW_SUM)), len(inst.b_set))
    return _skew_collisions(inst.group.modulus, rows, wedges, *sizes)


def _skew_collisions(
    modulus: int | None,
    partners: dict[int, tuple[int, ...]],
    wedges: int,
    d_size: int,
    b_size: int,
) -> int:
    rows = _labelled_rows(modulus, 2, partners)
    if d_size * b_size <= wedges:
        return _skew_collisions_dense(rows)
    return _skew_collisions_sparse(rows)


def _skew_collisions_dense(rows: _Rows) -> int:
    rows, n_d, n_b = _numbered(rows)
    fibers = [[0] * n_b for _ in range(n_d)]
    for ys, labels in rows:
        for d in labels:
            fiber = fibers[d]
            for b2 in ys:
                fiber[b2] += 1
    return sum(sum(map(operator.mul, fiber, fiber)) for fiber in fibers)


def _skew_collisions_sparse(rows: _Rows) -> int:
    fibers = defaultdict(dict)
    for ys, labels in rows:
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


@dataclass(frozen=True)
class Inequality:
    """One exact comparison lhs <= rhs, both rationals."""

    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": {"num": self.lhs.numerator, "den": self.lhs.denominator},
            "rhs": {"num": self.rhs.numerator, "den": self.rhs.denominator},
            "holds": self.holds,
            "slack": {"num": self.slack.numerator, "den": self.slack.denominator},
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


def verify_three_slice_chain(
    inst: Instance, budget: int, cap: int = DEFAULT_WEDGE_CAP
) -> ChainReport:
    """Run the 11/6 ladder on the difference-injective reduction of inst.

    Requires #A, #B <= budget and #C <= budget on the reduced instance.
    The quad lower bound appears twice: once against budget powers and once
    against the actual ambient label sizes, which is sharper.
    """
    reduced = reduce_to_difference_injective(inst)
    sizes = require_hypotheses(reduced, budget, with_d=False)
    relation = len(reduced.pairs)
    rows, wedges = _capped_partners(reduced, cap)
    c_size, b_size = sizes["C"], sizes["B"]
    quads = _linked_quads(reduced.group.modulus, rows, wedges, c_size, b_size)
    n = budget
    inequalities = (
        Inequality("wedge-count-lower", Fraction(relation**2, n), Fraction(wedges)),
        Inequality(
            "quad-count-lower-budget", Fraction(wedges**4, n**6), Fraction(quads)
        ),
        Inequality(
            "quad-count-lower-exact",
            Fraction(wedges**4, max(1, c_size**3 * b_size**3)),
            Fraction(quads),
        ),
        Inequality("quad-count-upper", Fraction(quads), Fraction(n**2 * wedges)),
        Inequality("wedge-count-upper", Fraction(wedges**3), Fraction(n**8)),
        Inequality(
            "difference-count-upper",
            Fraction(relation**THREE_SLICE_EXPONENT.denominator),
            Fraction(n**THREE_SLICE_EXPONENT.numerator),
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
    reduced = reduce_to_difference_injective(inst)
    sizes = require_hypotheses(reduced, budget, with_d=True)
    relation = len(reduced.pairs)
    rows, wedges = _capped_partners(reduced, cap)
    d_size, b_size = sizes["D"], sizes["B"]
    collisions = _skew_collisions(reduced.group.modulus, rows, wedges, d_size, b_size)
    n = budget
    inequalities = (
        Inequality(
            "pair-count-lower-budget", Fraction(wedges**2, n**2), Fraction(collisions)
        ),
        Inequality(
            "pair-count-lower-exact",
            Fraction(wedges**2, max(1, d_size * b_size)),
            Fraction(collisions),
        ),
        Inequality("pair-count-upper", Fraction(collisions), Fraction(n**3)),
        Inequality("wedge-count-upper", Fraction(wedges**2), Fraction(n**5)),
        Inequality(
            "difference-count-upper",
            Fraction(relation**FOUR_SLICE_EXPONENT.denominator),
            Fraction(n**FOUR_SLICE_EXPONENT.numerator),
        ),
    )
    return ChainReport(
        budget=budget,
        cardinalities={"relation": relation, "wedges": wedges, "collisions": collisions},
        inequalities=inequalities,
    )
