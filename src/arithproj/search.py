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
single cell (in x-major order) otherwise.  Branch-and-bound mode prunes a
subtree only when even one more pair per remaining group could not reach
the incumbent's score.  Leaves are scored from the raw chosen cells; only
a leaf that ties or beats the incumbent is built as a pattern and
canonicalized.

Score comparisons are decided exactly by the root rule of compare_scores:
log ratios whose numbers share primitive roots compare through one integer
power comparison, and any other pair is separated by a rational u/v whose
position is checked through integer powers (count**v vs slice**u).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithprojError
from .instances import DIFFERENCE, check_hypotheses, project
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

_EXHAUSTIVE_CELL_LIMIT = 25  # (K+1)**2 above this forbids exhaustive mode
_WITNESS_CAP = 64  # witnesses kept in a result, least first


def _normalized(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    mx = min(x for x, _ in pairs)
    my = min(y for _, y in pairs)
    return tuple(sorted((x - mx, y - my) for x, y in pairs))


def canonicalize(pattern: DigitPattern) -> DigitPattern:
    """Lexicographically least pattern in the symmetry orbit.

    The orbit is generated by x-translations, y-translations, and the joint
    reflection of both coordinates inside the pattern's bounding box.  All of
    these preserve the slice sizes and difference injectivity.
    """
    base = _normalized(pattern.pairs)
    top_x = max(x for x, _ in base)
    top_y = max(y for _, y in base)
    mirrored = _normalized(tuple((top_x - x, top_y - y) for x, y in base))
    return DigitPattern(pairs=min(base, mirrored), constrain_d=pattern.constrain_d)


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
        cells = (self.alphabet_max + 1) ** 2
        if self.mode == "exhaustive" and cells > _EXHAUSTIVE_CELL_LIMIT:
            raise ValueError(
                f"exhaustive mode allows at most {_EXHAUSTIVE_CELL_LIMIT} cells, got {cells}"
            )
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be >= 1, got {self.node_budget}")


@dataclass(frozen=True)
class SearchResult:
    """The incumbent of a walk.

    ``best_score`` is the exact (#differences, max slice) pair of the
    incumbent, or None when no pattern scored.  ``best_exponent`` is derived
    from it for display.
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


def search(spec: SearchSpec) -> SearchResult:
    """Explore the pattern space and return the best exponent with witnesses.

    Hitting the node budget returns the incumbent with exhaustive=False;
    that is a flagged result, not an error.
    """
    k = spec.alphabet_max
    if spec.require_difference_injective:
        groups = [
            [(x, x - d) for x in range(max(0, d), min(k, k + d) + 1)]
            for d in range(-k, k + 1)
        ]
    else:
        groups = [[(x, y)] for x in range(k + 1) for y in range(k + 1)]
    prune = spec.mode == "branch-bound"
    chosen: list[tuple[int, int]] = []
    nodes = 0
    exhausted = False
    best: tuple[int, int] | None = None  # (#differences, max slice)
    ties: dict[tuple[tuple[int, int], ...], DigitPattern] = {}  # by canonical pairs

    def descend(index: int) -> None:
        nonlocal nodes, exhausted, best, ties
        if exhausted:
            return
        nodes += 1
        if spec.node_budget is not None and nodes > spec.node_budget:
            exhausted = True
            return
        if index == len(groups):
            slice_size = max_slice(chosen, spec.constrain_d)
            if slice_size < 2:
                return
            score = (len({x - y for x, y in chosen}), slice_size)
            verdict = 1 if best is None else compare_scores(*score, *best)
            if verdict < 0:
                return
            # only ties and new bests are canonicalized: scores are
            # symmetry-invariant and best only rises, so a class that lost
            # once can never tie later
            pattern = canonicalize(DigitPattern(tuple(chosen), spec.constrain_d))
            if verdict > 0:
                best, ties = score, {}
            ties.setdefault(pattern.pairs, pattern)
            return
        if prune and chosen and best is not None:
            slice_size = max_slice(chosen, spec.constrain_d)
            # prune only strictly dominated subtrees: slices are monotone
            # under adding cells, so a tie here may still hide a witness
            if (
                slice_size >= 2
                and compare_scores(len(chosen) + len(groups) - index, slice_size, *best)
                < 0
            ):
                return
        descend(index + 1)
        for cell in groups[index]:
            if exhausted:
                return
            chosen.append(cell)
            descend(index + 1)
            chosen.pop()

    descend(0)
    witnesses = sorted(ties.values(), key=lambda p: (len(p.pairs), p.pairs))
    return SearchResult(tuple(witnesses[:_WITNESS_CAP]), not exhausted, nodes, best)


@dataclass(frozen=True)
class CertificationReport:
    ok: bool
    diagnostics: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


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
            **check_hypotheses(inst, 1, with_d=spec.constrain_d).sizes,
            "G": len(inst.pairs),
            "differences": len(project(inst, DIFFERENCE)),
        }
        expected = tensor_sizes(pattern, 2)
        if measured != expected:
            diagnostics.append(
                f"{tag}: tensor cardinality mismatch ({measured} vs {expected})"
            )
    return CertificationReport(ok=not diagnostics, diagnostics=tuple(diagnostics))
