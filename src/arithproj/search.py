"""Deterministic search for extremal digit patterns over a bounded alphabet.

The space is patterns inside {0..K} x {0..K}, by default difference-injective
(at most one cell per diagonal x - y = const).  Patterns are scored by the
growth exponent ln(#differences) / ln(max slice size); for difference-injective
patterns #differences equals #pairs.  The slices are A, B, C and, when the
skew slice is constrained, D.  Translations of either axis and the joint
reflection (x, y) -> (max - x, max - y) preserve every slice size, so the
search keeps one representative per symmetry class.

One depth-first walk covers both spaces.  It visits a list of choice groups
and, at each group, first skips it and then tries each of its cells in turn.
A group is a diagonal x - y = d in the difference-injective space and a
single cell (in x-major order) otherwise.  A skip child keeps its parent's
cells, so the walk enters a run of skip children in one step and recurses
only to choose a cell, at most once per group: a spec may have at most
_GROUP_LIMIT groups.

The walk passes its state down as arguments, so choosing a cell pushes and
pops nothing.  The state is one int occupancy mask, with a bit per value of
each budgeted slice that the chosen cells take (and, only where pairs may
share a difference, a bit per difference), the slice sizes packed into
another int, the max slice, the number of cells and the cells as a linked
chain.  Each slice's bit block spans the values its form (alpha, beta)
takes on {0..K}^2, from K*(min(alpha,0) + min(beta,0)) to K*(max(alpha,0) +
max(beta,0)).  #differences is read at the leaves: the number of cells in
the difference-injective space, of difference bits otherwise.  Each node
computes once the mask of absent values in the slices at the max; a cell
raises the max by one exactly when one AND with that mask is nonzero.  Each
child is counted and pruned in its parent, so a pruned child or a leaf
costs no call; the last group is a single cell in both spaces, (K, 0) or
(K, K), so its two leaves are scored straight in their parent.  Both modes
prune a subtree only when even one more pair per remaining group could not
reach the incumbent's score, so no leaf in it could tie.  Branch-and-bound
mode counts a pruned child as one node; exhaustive mode counts its whole
subtree, whose size follows from the group sizes, so it reports the full
tree's node count (and, under a budget, the same cut) without visiting the
subtrees it proves dominated.  The budget is checked only where crossing it
can change the result: as a node is entered, before a leaf is recorded and
on return; nothing is recorded past it, and the count is clamped to budget+1.

Scores are compared exactly, by the root rule of compare_scores.  The walk
itself compares integers: need[t] is the least #differences that ties or
beats the incumbent at max slice t.  A score falls as its max slice rises,
so need never falls; one sweep of compare_scores, memoized per incumbent,
refills it when the incumbent rises, and it grows a max slice at a time as
the walk reaches one.  Prunes, cuts and leaves each read one entry; only
recording a leaf asks for the exact sign.  Only a leaf that ties or beats
the incumbent is canonicalized, and only a new tie class is built as a
pattern.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithprojError
from .instances import DIFFERENCE, LinearForm, budgeted_slices, project, slice_sizes
from .patterns import DigitPattern, max_slice, tensor_pattern, tensor_sizes

__all__ = [
    "CertificationReport",
    "SearchResult",
    "SearchSpec",
    "canonicalize",
    "certify",
    "compare_scores",
    "search",
]

_WITNESS_CAP = 64  # witnesses kept in a result, least first
# the walk recurses once per chosen cell, so at most once per choice group:
# this keeps it well under the default recursion limit of 1000
_GROUP_LIMIT = 256


def _normalized(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    mx = min(x for x, _ in pairs)
    my = min(y for _, y in pairs)
    return tuple(sorted((x - mx, y - my) for x, y in pairs))


def _canonical_pairs(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The least of the distinct cells and their joint reflection, both at the origin."""
    base = _normalized(pairs)
    top_x = max(x for x, _ in base)
    top_y = max(y for _, y in base)
    return min(base, _normalized(tuple((top_x - x, top_y - y) for x, y in base)))


def canonicalize(pattern: DigitPattern) -> DigitPattern:
    """Lexicographically least pattern in the symmetry orbit.

    The orbit is generated by x-translations, y-translations, and the joint
    reflection of both coordinates inside the pattern's bounding box.  All of
    these preserve the slice sizes and difference injectivity.
    """
    return DigitPattern(_canonical_pairs(pattern.pairs), pattern.constrain_d)


def _integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1, by integer Newton steps."""
    x = 1 << -(-n.bit_length() // k)  # a power of two at or above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@functools.lru_cache(maxsize=None)
def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes p < limit, by a sieve."""
    sieve = bytearray([1]) * max(limit, 2)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(sieve[p * p :: p]))
    return tuple(p for p in range(limit) if sieve[p])


def _primitive_power(n: int) -> tuple[int, int]:
    """Smallest root r >= 2 and largest k >= 1 with r**k == n, for n >= 2.

    Only prime exponents p <= bit_length - 1 are tried, in increasing
    order, each taken off for as long as it divides out.  After prime q is
    done the root is no q-th power, so no smaller prime is needed again.
    """
    k = 1
    for p in _primes_below(n.bit_length()):
        while p < n.bit_length():
            r = _integer_root(n, p)
            if r**p != n:
                break
            n, k = r, k * p
    return n, k


def _cmp_powers(base1: int, exp1: int, base2: int, exp2: int) -> int:
    """Sign of base1**exp1 - base2**exp2, both exponents divided by their gcd."""
    g = math.gcd(exp1, exp2)
    lhs, rhs = base1 ** (exp1 // g), base2 ** (exp2 // g)
    return (lhs > rhs) - (lhs < rhs)


def compare_scores(count1: int, slice1: int, count2: int, slice2: int) -> int:
    """Sign of ln(count1)/ln(slice1) - ln(count2)/ln(slice2), exactly.

    counts >= 1, slices >= 2.  Root rule: each number is written once as its
    primitive power r**k, a count of 1 as r**0 over its slice's root.  A
    count and slice with one root have the rational ratio k_count/k_slice.
    Slices with one root decide by count1**k_slice2 vs count2**k_slice1, and
    counts with one root by slice2**k_count1 vs slice1**k_count2.  In the
    remaining cases floats only propose separating rationals u/v and every
    verdict is confirmed with integer powers (count**v vs slice**u).  Raises
    ArithprojError when no rational of denominator up to 32768 separates
    two distinct irrational ratios.
    """
    root_s1, exp_s1 = _primitive_power(slice1)
    root_s2, exp_s2 = _primitive_power(slice2)
    if root_s1 == root_s2:
        return _cmp_powers(count1, exp_s2, count2, exp_s1)
    root_c1, exp_c1 = (root_s1, 0) if count1 == 1 else _primitive_power(count1)
    root_c2, exp_c2 = (root_s2, 0) if count2 == 1 else _primitive_power(count2)
    if root_c1 == root_c2:
        return _cmp_powers(slice2, exp_c1, slice1, exp_c2)
    frac1 = Fraction(exp_c1, exp_s1) if root_c1 == root_s1 else None
    frac2 = Fraction(exp_c2, exp_s2) if root_c2 == root_s2 else None
    if frac1 is not None and frac2 is not None:
        return (frac1 > frac2) - (frac1 < frac2)
    if frac1 is not None:
        return -_cmp_powers(count2, frac1.denominator, slice2, frac1.numerator)
    if frac2 is not None:
        return _cmp_powers(count1, frac2.denominator, slice1, frac2.numerator)
    midpoint = (
        math.log(count1) / math.log(slice1) + math.log(count2) / math.log(slice2)
    ) / 2
    for limit in (8, 64, 512, 4096, 32768):
        cand = Fraction(midpoint).limit_denominator(limit)
        side1 = _cmp_powers(count1, cand.denominator, slice1, cand.numerator)
        side2 = _cmp_powers(count2, cand.denominator, slice2, cand.numerator)
        if side1 != side2:  # never 0: both ratios are irrational here
            return side1
    raise ArithprojError(
        f"could not separate log ratios ({count1},{slice1}) vs ({count2},{slice2})"
    )


@dataclass(frozen=True)
class SearchSpec:
    """What to search: alphabet bound, slice set, mode, node budget."""

    alphabet_max: int
    constrain_d: bool = False
    mode: str = "exhaustive"
    node_budget: int | None = None
    require_difference_injective: bool = True

    def __post_init__(self) -> None:
        if self.alphabet_max < 0:
            raise ValueError("alphabet_max must be >= 0")
        if self.mode not in ("exhaustive", "branch-bound"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {self.node_budget}")
        groups = (self.alphabet_max + 1) ** 2
        if self.require_difference_injective:
            groups = 2 * self.alphabet_max + 1
        if groups > _GROUP_LIMIT:
            raise ValueError(
                f"the walk allows at most {_GROUP_LIMIT} choice groups, got {groups}"
            )


@dataclass(frozen=True)
class SearchResult:
    """The incumbent of a walk.

    ``best_score`` is the exact (#differences, max slice) pair of the
    incumbent, or None when no pattern scored.  ``best_exponent`` is derived
    from it for display.  ``nodes_explored`` counts the nodes of the walk,
    at most node_budget + 1.  In exhaustive mode that is the size of the
    full tree, each dominated subtree counted, not visited; in branch-bound
    mode a pruned subtree counts as one node.
    """

    witnesses: tuple[DigitPattern, ...]
    exhaustive: bool
    nodes_explored: int
    best_score: tuple[int, int] | None = None

    @property
    def best_exponent(self) -> float:
        return 0.0 if self.best_score is None else _exponent(*self.best_score)

    def to_json_dict(self) -> dict:
        return {
            "best_exponent": self.best_exponent,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "exhaustive": self.exhaustive,
            "nodes": self.nodes_explored,
        }


def _exponent(count: int, slice_size: int) -> float:
    """The displayed score ln(count) / ln(slice_size)."""
    return math.log(count) / math.log(slice_size) if count > 1 else 0.0


def _thresholds(verdict, need: list[int], tops: int, counts: int) -> list[int]:
    """Extend need in place to tops entries and return it.

    need[t] is the least c <= counts with verdict(c, t) >= 0, or counts + 1
    if there is none; need starts as [0, 0], as no max slice below 2 scores.
    A score falls as its max slice rises, so need never falls, and the sweep
    goes on from the last entry with one verdict per step up in c or t.
    """
    count = max(need[-1], 1)
    for top in range(len(need), tops):
        while count <= counts and verdict(count, top) < 0:
            count += 1
        need.append(count)
    return need


def _bit_blocks(forms: list[LinearForm], k: int) -> list[tuple[int, int]]:
    """Occupancy bit blocks for the values of each form on {0..k}²: (offset, mask).

    Form (alpha, beta) takes the values k*(min(alpha,0) + min(beta,0))
    through k*(max(alpha,0) + max(beta,0)) there.  Value v sits at bit
    offset + v, and mask covers the form's block; the blocks follow one
    another from bit 0.
    """
    blocks = []
    start = 0
    for form in forms:
        low = k * (min(form.alpha, 0) + min(form.beta, 0))
        width = k * (max(form.alpha, 0) + max(form.beta, 0)) - low + 1
        blocks.append((start - low, ((1 << width) - 1) << start))
        start += width
    return blocks


def search(spec: SearchSpec) -> SearchResult:
    """Explore the pattern space and return the best exponent with witnesses.

    Hitting the node budget returns the incumbent with exhaustive=False;
    that is a flagged result, not an error.
    """
    k = spec.alphabet_max
    injective = spec.require_difference_injective
    if injective:
        cell_groups = [
            [(x, x - d) for x in range(max(0, d), min(k, k + d) + 1)]
            for d in range(-k, k + 1)
        ]
    else:
        cell_groups = [[(x, y)] for x in range(k + 1) for y in range(k + 1)]
    # one block of bits per budgeted slice, then (only when pairs may share
    # a difference) one block for the differences
    forms = list(budgeted_slices(spec.constrain_d).values())
    blocks = _bit_blocks(forms + ([] if injective else [DIFFERENCE]), k)
    slice_blocks = [mask for _, mask in blocks[: len(forms)]]
    differences = 0 if injective else blocks[-1][1]
    # a cell's bits: its value in each block (zip stops at the last block)
    block_forms = list(zip(forms + [DIFFERENCE], blocks))
    groups = [
        [(cell, sum(1 << o + f(*cell) for f, (o, _) in block_forms)) for cell in group]
        for group in cell_groups
    ]
    # the slice sizes travel packed, one field per slice, each field wide
    # enough for every slice bit: grow[new] is what the new values in new
    # add to them, and at_max[sizes] the blocks of the slices at the max,
    # both filled on a miss (a dict subclass would slow every hit)
    field = slice_blocks[-1].bit_length().bit_length()
    grow: dict[int, int] = {}
    at_max: dict[int, int] = {}

    def fill_at_max(sizes: int) -> int:
        values = [sizes >> field * j & (1 << field) - 1 for j in range(len(forms))]
        top = max(values)
        mask = at_max[sizes] = sum(b for b, v in zip(slice_blocks, values) if v == top)
        return mask

    last = len(groups)
    # the last group is one cell in both spaces: the diagonal x - y = k
    # holds only (k, 0), and the x-major cells end at (k, k)
    ((last_cell, last_bits),) = groups[-1]
    limit = spec.node_budget or sys.maxsize  # the node count never gets there
    # what a pruned child at each group index adds to the node count
    weight = [1] * (last + 1)
    if spec.mode == "exhaustive":
        for i in reversed(range(last)):
            weight[i] = 1 + (1 + len(groups[i])) * weight[i + 1]
    nodes = 0  # expand counts each node it enters, the root too
    best: tuple[int, int] | None = None  # (#differences, max slice)
    # the sign of a score against the incumbent, asked once per incumbent;
    # anything that scores beats no incumbent, so need[2] = 1.  need covers
    # each max slice the walk has reached; no count or bound exceeds last
    verdict = lambda count, top: 1
    need = [0, 0, 1]
    ties: dict[tuple[tuple[int, int], ...], DigitPattern] = {}  # by canonical pairs

    def record(score: tuple[int, int], chain) -> None:
        # only ties and new bests are canonicalized: scores are
        # symmetry-invariant and best only rises, so a class that lost
        # once can never tie later.  Nothing past the budget is recorded.
        nonlocal best, ties, verdict
        if nodes > limit:
            return
        pairs = []
        while chain:
            cell, chain = chain
            pairs.append(cell)
        key = _canonical_pairs(tuple(pairs))
        if verdict(*score) > 0:
            best, ties = score, {}
            verdict = functools.cache(lambda c, t: compare_scores(c, t, *score))
            need[:] = _thresholds(verdict, [0, 0], len(need), last)
        if key not in ties:
            ties[key] = DigitPattern(key, spec.constrain_d)

    def expand(index: int, occ: int, sizes: int, top: int, size: int, chain) -> bool:
        """Count and visit a node entered by a cell (or the root); True past the budget.

        occ, sizes, top (the max slice), size (the number of cells) and
        chain ((cell, chain), () at the root) are the state the module
        docstring describes.  Pruned children may carry nodes past limit + 1.
        """
        nonlocal nodes
        # enter the run of skip children below at once, down to the first
        # whose skip child is pruned or whose children are leaves.  Only
        # strictly dominated subtrees are pruned (slices are monotone, so a
        # tie may hide a witness): a child at index c needs reach - c, one
        # more pair for each group from c on, to meet need[top]
        reach = size + last
        node = reach - need[top]
        node = last - 1 if node >= last else index if node < index else node
        nodes += node - index + 1
        if nodes > limit:
            return True
        vacant = ~occ
        # a cell that takes an absent value of a slice at the max raises it
        try:
            rises = at_max[sizes] & vacant
        except KeyError:
            rises = fill_at_max(sizes) & vacant
        if node < last - 1:
            nodes += weight[node + 1]
        else:
            # the children are leaves, scored without a call: the node
            # itself, and the one cell of the last group with it
            nodes += 1
            count = (occ & differences).bit_count() if differences else size
            if top >= 2 and count >= need[top]:
                record((count, top), chain)
            nodes += 1
            top_with = top + 1 if last_bits & rises else top
            with_last = occ | last_bits
            count = (with_last & differences).bit_count() if differences else size + 1
            if top_with >= 2 and count >= need[top_with]:
                record((count, top_with), (last_cell, chain))
            node -= 1
        # then the cell children of each chain node, deepest first.  One
        # that keeps the max needs no threshold: need[top] admitted its
        # parent or the parent's nearest admitted ancestor, and need only
        # rises.  need[top + 1] is read once per parent, at its first child
        # that raises the max, as what each such child adds when pruned (0:
        # admitted), and extended there to cover every max slice below.
        for parent in range(node, index - 1, -1):
            child = parent + 1
            cut = None
            for cell, bits in groups[parent]:
                if bits & rises:
                    if cut is None:
                        if len(need) < top + 3:
                            _thresholds(verdict, need, top + 3, last)
                        cut = 0 if reach - parent >= need[top + 1] else weight[child]
                    if cut:
                        nodes += cut
                        continue
                    child_top = top + 1
                else:
                    child_top = top
                new = bits & vacant
                try:
                    grown = grow[new]
                except KeyError:
                    grown = grow[new] = sum(
                        1 << field * j for j, b in enumerate(slice_blocks) if new & b
                    )
                if expand(
                    child, occ | bits, sizes + grown, child_top, size + 1, (cell, chain)
                ):
                    return True
        return nodes > limit

    exhausted = expand(0, 0, 0, 0, 0, ())
    witnesses = sorted(ties.values(), key=lambda p: (len(p.pairs), p.pairs))
    # a budget crossed inside a counted subtree stops the full walk there
    # too, at node limit + 1 and with the same incumbent
    nodes = min(nodes, limit + 1)
    return SearchResult(tuple(witnesses[:_WITNESS_CAP]), not exhausted, nodes, best)


@dataclass(frozen=True)
class CertificationReport:
    ok: bool
    diagnostics: tuple[str, ...]


def certify(result: SearchResult, spec: SearchSpec) -> CertificationReport:
    """Recheck every witness from scratch.

    Witnesses must be canonical, inside the alphabet, difference-injective
    when the search settings demand it, and score exactly the reported
    best_score: (#differences, max_slice) is compared by compare_scores, with
    no float tolerance.  Tensored to two digits at their own carry-free base
    (min_base), they must realize the slice sizes tensor_sizes predicts.
    best_exponent is derived from best_score, so it needs no check.
    """
    diagnostics: list[str] = []
    if result.best_score is not None and not result.witnesses:
        diagnostics.append(f"best score {result.best_score} has no witness")
    for i, witness in enumerate(result.witnesses):
        tag = f"witness {i}"
        if any(
            not (0 <= x <= spec.alphabet_max and 0 <= y <= spec.alphabet_max)
            for x, y in witness.pairs
        ):
            diagnostics.append(f"{tag}: pair outside the alphabet")
            continue
        if canonicalize(witness).pairs != witness.pairs:
            diagnostics.append(f"{tag}: not in canonical form")
        if spec.require_difference_injective and not witness.difference_injective:
            diagnostics.append(f"{tag}: not difference-injective")
            continue
        pattern = DigitPattern(witness.pairs, constrain_d=spec.constrain_d)
        slice_size = max_slice(pattern.pairs, pattern.constrain_d)
        if slice_size < 2:
            diagnostics.append(f"{tag}: degenerate slices cannot score")
            continue
        score = (len(pattern.difference_slice), slice_size)
        if result.best_score is None or compare_scores(*score, *result.best_score):
            diagnostics.append(
                f"{tag}: exponent mismatch (score {score} vs {result.best_score})"
            )
        inst = tensor_pattern(pattern, 2)
        measured = {
            **slice_sizes(inst, with_d=spec.constrain_d),
            "G": len(inst.pairs),
            "differences": len(project(inst, DIFFERENCE)),
        }
        expected = tensor_sizes(pattern, 2)
        if measured != expected:
            diagnostics.append(
                f"{tag}: tensor cardinality mismatch ({measured} vs {expected})"
            )
    return CertificationReport(ok=not diagnostics, diagnostics=tuple(diagnostics))
