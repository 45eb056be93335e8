"""Chain counting over labeled finite sets.

A chain problem is a finite item set X and labelings f_1 .. f_n, where f_i
maps X into a label set of known size.  A chain is a tuple (x_0, .., x_n)
with f_i(x_{i-1}) = f_i(x_i) for 1 <= i <= n.  The number of chains is at
least (#X)^(n+1) / prod(#A_i): each step conditions on a label collision,
and averaging over fibers loses at most a factor #A_i per step.

Two counts are kept apart on purpose.  chain_count_dp aggregates weights
over label fibers.  chain_count_naive is the oracle: it grows chains one
position at a time, tests the defining label equality for every candidate
extension, and adds 1 per complete chain, so it shares no fiber sums,
grouping or weights with the DP.

Counts are exact arbitrary-width integers throughout.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import EmptyLabelSet, EnumerationCapExceeded

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "ChainProblem",
    "Labeling",
    "chain_count_dp",
    "chain_count_naive",
    "chain_lower_bound",
    "popular_filter",
    "tensor_power",
]

DEFAULT_ENUMERATION_CAP = 10**8


@dataclass(frozen=True)
class Labeling:
    """A total map from items to labels, plus the ambient label-set size.

    ``label_count`` is the size of the label set the map is considered to map
    into; it may exceed the number of labels actually used.  The chain lower
    bound depends on this ambient size, so it is stored explicitly.
    """

    assignment: Mapping[object, object]
    label_count: int

    def __post_init__(self) -> None:
        if isinstance(self.label_count, bool) or not isinstance(self.label_count, int):
            raise ValueError(f"label_count must be an int, got {self.label_count!r}")
        if self.label_count < 0:
            raise ValueError(f"label_count must be >= 0, got {self.label_count}")
        if self.label_count == 0 and self.assignment:
            raise EmptyLabelSet("nonempty item set labeled into an empty label set")
        used = len(set(self.assignment.values()))
        if used > self.label_count:
            raise ValueError(
                f"assignment uses {used} labels but label_count is {self.label_count}"
            )


@dataclass(frozen=True)
class ChainProblem:
    items: tuple
    labelings: tuple[Labeling, ...]

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise ValueError("items must be distinct")
        item_set = set(self.items)
        for i, lab in enumerate(self.labelings):
            if not item_set <= set(lab.assignment.keys()):
                raise ValueError(f"labeling {i} is not total on the item set")

    @property
    def steps(self) -> int:
        return len(self.labelings)


def chain_count_naive(problem: ChainProblem, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Count chains by a prefix-pruned walk over (n+1)-tuples.

    This is the oracle.  Position j scans every item y and keeps it only if
    f_j(x_{j-1}) == f_j(y); a prefix that breaks the equality is never
    extended, and each complete chain adds 1.  It uses no fiber sums, no
    label-to-items grouping and no weights, so it shares no machinery with
    chain_count_dp.  The walk is iterative: besides a by-index copy of the
    labels, it holds one cursor per position, so no step count can overflow
    the call stack.  ``cap`` bounds the #X**(n+1) tuples the walk ranges
    over and is checked before any work.
    """
    width = problem.steps + 1
    n = len(problem.items)
    if n**width > cap:
        raise EnumerationCapExceeded(f"{n}**{width} tuples exceed cap {cap}")
    # labels[i][y] is f_{i+1} of the y-th item
    labels = [[lab.assignment[x] for x in problem.items] for lab in problem.labelings]
    count = 0
    path: list[int] = []  # item indices of the prefix x_0 .. x_{j-1}
    cursor = [0]  # cursor[j]: the next item index to try at position j
    while cursor:
        j = len(path)
        y = cursor[-1]
        if j:
            row = labels[j - 1]
            target = row[path[-1]]
            while y < n and row[y] != target:
                y += 1
        if y >= n:
            cursor.pop()
            if path:
                path.pop()
            continue
        cursor[-1] = y + 1
        if j == width - 1:
            count += 1
        else:
            path.append(y)
            cursor.append(0)
    return count


def chain_count_dp(problem: ChainProblem) -> int:
    """Count chains by fiber aggregation, O(steps * #X) map operations.

    After step i, weight[x] is the number of valid prefixes ending at x.
    """
    weights = dict.fromkeys(problem.items, 1)
    for lab in problem.labelings:
        fiber_sum: dict = defaultdict(int)
        for x, w in weights.items():
            fiber_sum[lab.assignment[x]] += w
        weights = {x: fiber_sum[lab.assignment[x]] for x in problem.items}
    return sum(weights.values())


def chain_lower_bound(problem: ChainProblem) -> Fraction:
    """(#X)^(n+1) / prod(#A_i), exactly."""
    n_items = len(problem.items)
    if n_items == 0:
        return Fraction(0)
    for lab in problem.labelings:
        if lab.label_count == 0:
            raise EmptyLabelSet("lower bound undefined for an empty label set")
    denom = prod(lab.label_count for lab in problem.labelings)
    return Fraction(n_items ** (problem.steps + 1), denom)


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
