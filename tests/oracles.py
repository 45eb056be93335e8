"""Test oracles: reference code that the tests compare the package against.

No command, ladder, demo or benchmark calls these, so they live with the
tests.  They import the package's data types only, and none of its counts,
so each check stays independent of the code it checks.

* The fingerprints and their inverses realize the two "determined by"
  claims of the ladders: each linked quad is fixed by (first wedge, third
  wedge's left element, fourth wedge's first partner), and each skew
  collision by (a0 + b0, a0 + b0_2, b1), on a difference-injective G.
* popular_filter and tensor_power are the popularity and tensoring steps
  of the chain-counting lemma.
* is_difference_injective checks the hypothesis the reconstructions need.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping

from arithproj.chains import ChainProblem, Labeling
from arithproj.errors import ArithprojError, EmptyLabelSet
from arithproj.groups import AmbientGroup
from arithproj.instances import Instance
from arithproj.proofs import Wedge


class NotDifferenceInjective(ArithprojError):
    """The operation requires pairwise distinct differences a - b."""


class NoPreimage(ArithprojError):
    """The given fingerprint is not in the image of the injective map."""


def is_difference_injective(inst: Instance) -> bool:
    """True when a - b is distinct across the pairs of G."""
    g = inst.group
    return len({g.sub(x, y) for x, y in inst.pairs}) == len(inst.pairs)


def popular_filter(items, assignment: Mapping, labels) -> frozenset:
    """Keep items whose label fiber has size >= #X / (2 * #labels).

    ``labels`` may be the label set itself or its size.  The comparison is
    exact (cross-multiplied integers).  The survivors always number at least
    #X / 2: each of the <= #labels unpopular fibers removes fewer than
    #X / (2 * #labels) items.
    """
    items = tuple(items)
    label_count = labels if isinstance(labels, int) else len(labels)
    if not items:
        return frozenset()
    if label_count <= 0:
        raise EmptyLabelSet("popularity undefined for an empty label set")
    fibers = Counter(assignment[x] for x in items)
    n = len(items)
    return frozenset(
        x for x in items if 2 * label_count * fibers[assignment[x]] >= n
    )


def tensor_power(problem: ChainProblem, power: int) -> ChainProblem:
    """The M-fold product problem: items X^M, labelings applied coordinatewise.

    Chain counts and the lower bound are both multiplicative in M, which is
    what makes first-digit losses vanish after tensoring.
    """
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    items = tuple(itertools.product(problem.items, repeat=power))
    labelings = []
    for lab in problem.labelings:
        assignment = {
            combo: tuple(lab.assignment[x] for x in combo) for combo in items
        }
        labelings.append(Labeling(assignment, lab.label_count**power))
    return ChainProblem(items=items, labelings=tuple(labelings))


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
