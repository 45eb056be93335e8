"""Chain counting over labeled finite sets.

A chain problem is a finite item set X and labelings f_1 .. f_n, where f_i
maps X into a label set of known size.  A chain is a tuple (x_0, .., x_n)
with f_i(x_{i-1}) = f_i(x_i) for 1 <= i <= n.  The number of chains is at
least (#X)^(n+1) / prod(#A_i): each step conditions on a label collision,
and averaging over fibers loses at most a factor #A_i per step.

Two counts are kept apart on purpose.  chain_count_dp reads each labeling
once as a list of labels in item order and aggregates weights over label
fibers.  chain_count_naive is the oracle: it grows chains one position at
a time and tests the defining label equality for every candidate
extension.  Its scans run in C, ``list.index`` to the next matching item
and ``list.count`` for the last position; one inner scan loop finishes
each next-to-last position, and one step is a sum of counts.  Each scan is
a fresh pass over every candidate, so the oracle shares no fiber sums,
grouping, weights or memo with the DP.

Counts are exact arbitrary-width integers throughout.
"""

from __future__ import annotations

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

    This is the oracle.  Position j keeps an item y only if
    f_j(x_{j-1}) matches f_j(y); a prefix that breaks the match is never
    extended.  The scan runs in C: ``list.index`` jumps to the next matching
    item, and ``list.count`` adds the number of matching last items instead
    of visiting each one.  One inner scan loop finishes each prefix that
    reaches the next-to-last position: ``count`` sizes the loop and
    ``index`` steps to each matching next-to-last item.  One step is the
    sum of the last items' counts over every first item.  Every scan tests
    the label of every candidate extension, and each is a fresh scan.
    Labels match when they are the same object or compare ``==``, the rule
    of the DP's dict fibers and of ``Labeling``'s label set, so one shared
    ``nan`` label matches itself.  The walk uses no fiber sums, no
    label-to-items grouping, no weights and no memo, so it shares no
    machinery with chain_count_dp.  It is iterative: besides a by-index copy
    of the labels, it holds one cursor per position, so no step count can
    overflow the call stack.  ``cap`` bounds the #X**(n+1) tuples the walk
    ranges over and is checked before any work.
    """
    width = problem.steps + 1
    n = len(problem.items)
    if n**width > cap:
        raise EnumerationCapExceeded(f"{n}**{width} tuples exceed cap {cap}")
    if width == 1:
        return n
    # labels[i][y] is f_{i+1} of the y-th item
    labels = [[lab.assignment[x] for x in problem.items] for lab in problem.labelings]
    last = labels[-1]
    if width == 2:
        return sum(map(last.count, last))
    penultimate = labels[-2]  # f_{n-1}, which picks the next-to-last item
    count = 0
    path: list[int] = []  # item indices of the prefix x_0 .. x_{j-1}
    cursor = [0]  # cursor[j]: the next item index to try at position j
    while cursor:
        j = len(path)
        y = cursor[-1]
        if j:
            row = labels[j - 1]
            try:
                y = row.index(row[path[-1]], y)
            except ValueError:
                y = n
        if y >= n:
            cursor.pop()
            if path:
                path.pop()
            continue
        cursor[-1] = y + 1
        if j < width - 3:
            path.append(y)
            cursor.append(0)
            continue
        # y ends a prefix x_0 .. x_{n-2}: each of its matching next-to-last
        # items z adds the number of last items that match z
        target = penultimate[y]
        z = -1
        for _ in range(penultimate.count(target)):
            z = penultimate.index(target, z + 1)
            count += last.count(last[z])
    return count


def chain_count_dp(problem: ChainProblem) -> int:
    """Count chains by fiber aggregation, O(steps * #X) map operations.

    Each labeling is read once, as a list of labels in item order.  After
    step i, weights[k] is the number of valid prefixes ending at the k-th
    item.  Every prefix of length one has weight 1, so the first step's
    fiber sums are the fiber sizes.
    """
    items = problem.items
    if not problem.labelings:
        return len(items)
    first, *rest = problem.labelings
    labels = list(map(first.assignment.__getitem__, items))
    weights = list(map(Counter(labels).__getitem__, labels))
    for lab in rest:
        labels = list(map(lab.assignment.__getitem__, items))
        fiber_sum: dict = defaultdict(int)
        for label, w in zip(labels, weights):
            fiber_sum[label] += w
        weights = list(map(fiber_sum.__getitem__, labels))
    return sum(weights)


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
