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
the fiber-sum recursion of chain_count_dp directly over the rows of
inst.partners(), recomputing each wedge's labels in every pass and keeping
only label counters, so memory is O(#G + #labels) rather than O(#wedges).
The wedge cap still bounds the work: both raise EnumerationCapExceeded when
the wedge count exceeds it.  linked_quad_problem and skew_collision_problem
build the same counts as explicit ChainProblems for cross-checking.
"""

from __future__ import annotations

import itertools
from collections import Counter
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


def wedge_count(inst: Instance) -> int:
    """Sum of squared left degrees, without materializing the wedges."""
    return sum(len(ys) ** 2 for ys in inst.partners().values())


def _check_wedge_cap(inst: Instance, cap: int) -> None:
    total = wedge_count(inst)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} wedges exceed cap {cap}")


def enumerate_wedges(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> tuple[Wedge, ...]:
    _check_wedge_cap(inst, cap)
    out = []
    for a, ys in sorted(inst.partners().items()):
        for b in ys:
            for b2 in ys:
                out.append(Wedge(a, b, b2))
    return tuple(out)


def sum_pair_label(group: AmbientGroup, w: Wedge) -> tuple[int, int]:
    return (group.add(w.a, w.b), group.add(w.a, w.b2))


def partner_label(w: Wedge) -> tuple[int, int]:
    return (w.b, w.b2)


def sum_partner_label(group: AmbientGroup, w: Wedge) -> tuple[int, int]:
    return (group.add(w.a, w.b), w.b2)


def skew_label(group: AmbientGroup, w: Wedge) -> tuple[int, int]:
    return (group.add(w.a, group.scale(2, w.b)), w.b2)


def linked_quad_problem(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> ChainProblem:
    """X = wedges, three labelings into C x C, B x B, C x B."""
    g = inst.group
    wedges = enumerate_wedges(inst, cap=cap)
    c_size = len(project(inst, SUM))
    b_size = len(inst.b_set)
    labelings = (
        Labeling({w: sum_pair_label(g, w) for w in wedges}, c_size**2),
        Labeling({w: partner_label(w) for w in wedges}, b_size**2),
        Labeling({w: sum_partner_label(g, w) for w in wedges}, c_size * b_size),
    )
    return ChainProblem(items=wedges, labelings=labelings)


def count_linked_quads(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> int:
    """Chains of the three linked_quad_problem labelings, by fiber sums.

    c1 is the fiber size of (a+b, a+b2); c2 sums c1 over the fibers of
    (b, b2); c3 sums c2 over the fibers of (a+b, b2), whose sizes are n3.
    Each chain ends in some fiber of the last label, so the count is
    sum(c3[l] * n3[l]).
    """
    _check_wedge_cap(inst, cap)
    g = inst.group
    rows = [(ys, [g.add(a, b) for b in ys]) for a, ys in inst.partners().items()]
    c1: Counter = Counter()
    for _, sums in rows:
        c1.update(itertools.product(sums, sums))
    c2: Counter = Counter()
    for ys, sums in rows:
        weights = map(c1.__getitem__, itertools.product(sums, sums))
        for label, weight in zip(itertools.product(ys, ys), weights):
            c2[label] += weight
    c3: Counter = Counter()
    n3: Counter = Counter()
    for ys, sums in rows:
        n3.update(itertools.product(sums, ys))
        weights = map(c2.__getitem__, itertools.product(ys, ys))
        for label, weight in zip(itertools.product(sums, ys), weights):
            c3[label] += weight
    return sum(weight * n3[label] for label, weight in c3.items())


def skew_collision_problem(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> ChainProblem:
    """X = wedges, one labeling into D x B."""
    g = inst.group
    wedges = enumerate_wedges(inst, cap=cap)
    d_size = len(project(inst, SKEW_SUM))
    b_size = len(inst.b_set)
    labelings = (
        Labeling({w: skew_label(g, w) for w in wedges}, d_size * b_size),
    )
    return ChainProblem(items=wedges, labelings=labelings)


def count_skew_collisions(inst: Instance, cap: int = DEFAULT_WEDGE_CAP) -> int:
    """Ordered wedge pairs sharing (a+2b, b2): the sum of squared fiber sizes."""
    _check_wedge_cap(inst, cap)
    g = inst.group
    fibers: Counter = Counter()
    for a, ys in inst.partners().items():
        fibers.update(itertools.product([g.add(a, g.scale(2, b)) for b in ys], ys))
    return sum(n * n for n in fibers.values())


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
    sizes = require_hypotheses(reduced, budget, with_d=False).sizes
    relation = len(reduced.pairs)
    wedges = wedge_count(reduced)
    quads = count_linked_quads(reduced, cap=cap)
    c_size, b_size = sizes["C"], sizes["B"]
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
    sizes = require_hypotheses(reduced, budget, with_d=True).sizes
    relation = len(reduced.pairs)
    wedges = wedge_count(reduced)
    collisions = count_skew_collisions(reduced, cap=cap)
    d_size, b_size = sizes["D"], sizes["B"]
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
