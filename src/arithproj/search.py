"""Deterministic search for extremal digit patterns over a bounded alphabet.

The space is patterns inside {0..K} x {0..K}, by default difference-injective
(at most one cell per diagonal x - y = const).  Patterns are scored by the
growth exponent ln(#differences) / ln(max slice size); for difference-injective
patterns #differences equals #pairs.  The slices are A, B, C and, when the
skew slice is constrained, D.  Translations of either axis and the joint
reflection (x, y) -> (max - x, max - y) preserve every slice size, so the
search scores one representative per symmetry class.

One depth-first walk covers both spaces.  It visits a list of choice groups
and, at each group, first skips it and then tries each of its cells in turn.
A group is a diagonal x - y = d in the difference-injective space and a
single cell (in x-major order) otherwise.  Branch-and-bound mode prunes a
subtree only when even one more pair per remaining group could not reach
the incumbent's score.

Score comparisons are decided exactly: log ratios of integers are either
equal as recognized by primitive-power reduction, or separated by a rational
u/v whose position is checked through integer powers (count**v vs slice**u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithprojError
from .patterns import DigitPattern, max_slice, pattern_stats, tensor_pattern, tensor_sizes

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


def _primitive_power(n: int) -> tuple[int, int]:
    """Smallest root r >= 2 and largest k >= 1 with r**k == n, for n >= 2."""
    for k in range(n.bit_length() - 1, 1, -1):
        r = _integer_root(n, k)
        if r**k == n:
            return r, k
    return n, 1


def _ratio_as_fraction(count: int, slice_size: int) -> Fraction | None:
    """ln(count)/ln(slice_size) as an exact rational, or None if irrational."""
    if count == 1:
        return Fraction(0)
    root_c, exp_c = _primitive_power(count)
    root_s, exp_s = _primitive_power(slice_size)
    if root_c == root_s:
        return Fraction(exp_c, exp_s)
    return None


def _cmp_ratio_to_fraction(count: int, slice_size: int, frac: Fraction) -> int:
    """Sign of ln(count)/ln(slice_size) - frac, via integer powers."""
    lhs = count**frac.denominator
    rhs = slice_size**frac.numerator
    return (lhs > rhs) - (lhs < rhs)


def _reduced_pair(count: int, slice_size: int) -> tuple[int, int]:
    root_c, exp_c = _primitive_power(count)
    root_s, exp_s = _primitive_power(slice_size)
    g = math.gcd(exp_c, exp_s)
    return root_c ** (exp_c // g), root_s ** (exp_s // g)


def compare_scores(count1: int, slice1: int, count2: int, slice2: int) -> int:
    """Sign of ln(count1)/ln(slice1) - ln(count2)/ln(slice2), exactly.

    counts >= 1, slices >= 2.  Floats only propose separating rationals;
    every verdict is confirmed with integer power comparisons.  Raises
    ArithprojError when no rational of denominator up to 32768 separates
    two distinct irrational ratios.
    """
    if slice1 == slice2:
        return (count1 > count2) - (count1 < count2)
    if count1 == count2 and count1 > 1:
        return (slice2 > slice1) - (slice2 < slice1)
    frac1 = _ratio_as_fraction(count1, slice1)
    frac2 = _ratio_as_fraction(count2, slice2)
    if frac1 is not None and frac2 is not None:
        return (frac1 > frac2) - (frac1 < frac2)
    if frac1 is not None:
        return -_cmp_ratio_to_fraction(count2, slice2, frac1)
    if frac2 is not None:
        return _cmp_ratio_to_fraction(count1, slice1, frac2)
    if _reduced_pair(count1, slice1) == _reduced_pair(count2, slice2):
        return 0
    midpoint = (
        math.log(count1) / math.log(slice1) + math.log(count2) / math.log(slice2)
    ) / 2
    for limit in (8, 64, 512, 4096, 32768):
        cand = Fraction(midpoint).limit_denominator(limit)
        side1 = _cmp_ratio_to_fraction(count1, slice1, cand)
        side2 = _cmp_ratio_to_fraction(count2, slice2, cand)
        if side1 != side2 and side1 != 0 and side2 != 0:
            return 1 if side1 > 0 else -1
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
    witness_cap: int = 64

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
        if self.witness_cap < 1:
            raise ValueError("witness_cap must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    best_exponent: float
    witnesses: tuple[DigitPattern, ...]
    exhaustive: bool
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "best_exponent": self.best_exponent,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "exhaustive": self.exhaustive,
            "nodes": self.nodes_explored,
        }


class _Budget:
    def __init__(self, node_budget: int | None) -> None:
        self.node_budget = node_budget
        self.nodes = 0
        self.exhausted = False

    def spend_node(self) -> bool:
        """Account one node; False once the budget is gone."""
        if self.exhausted:
            return False
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            self.exhausted = True
            return False
        return True


class _Incumbent:
    """Tracks the best (#differences, max slice) score and all canonical ties."""

    def __init__(self) -> None:
        self.best: tuple[int, int] | None = None
        self.ties: list[DigitPattern] = []
        self.seen: set[tuple[tuple[int, int], ...]] = set()

    def offer(self, pattern: DigitPattern) -> None:
        pattern = canonicalize(pattern)
        if pattern.pairs in self.seen:
            return
        self.seen.add(pattern.pairs)
        slice_size = max_slice(pattern)
        if slice_size < 2:
            return
        score = (len(pattern.difference_slice), slice_size)
        if self.best is None:
            self.best = score
            self.ties = [pattern]
            return
        verdict = compare_scores(*score, *self.best)
        if verdict > 0:
            self.best = score
            self.ties = [pattern]
        elif verdict == 0:
            self.ties.append(pattern)

    def result(self, exhaustive: bool, nodes: int, witness_cap: int) -> SearchResult:
        if self.best is None:
            return SearchResult(0.0, (), exhaustive, nodes)
        count, slice_size = self.best
        exponent = math.log(count) / math.log(slice_size) if count > 1 else 0.0
        witnesses = tuple(
            sorted(self.ties, key=lambda p: (len(p.pairs), p.pairs))[:witness_cap]
        )
        return SearchResult(exponent, witnesses, exhaustive, nodes)


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
    incumbent = _Incumbent()
    budget = _Budget(spec.node_budget)
    prune = spec.mode == "branch-bound"
    chosen: list[tuple[int, int]] = []

    def descend(index: int) -> None:
        if not budget.spend_node():
            return
        if index == len(groups):
            if chosen:
                incumbent.offer(
                    DigitPattern(tuple(chosen), constrain_d=spec.constrain_d)
                )
            return
        if prune and chosen and incumbent.best is not None:
            slice_size = max_slice(
                DigitPattern(tuple(chosen), constrain_d=spec.constrain_d)
            )
            # prune only strictly dominated subtrees: slices are monotone
            # under adding cells, so a tie here may still hide a witness
            if (
                slice_size >= 2
                and compare_scores(
                    len(chosen) + len(groups) - index, slice_size, *incumbent.best
                )
                < 0
            ):
                return
        descend(index + 1)
        for cell in groups[index]:
            if budget.exhausted:
                return
            chosen.append(cell)
            descend(index + 1)
            chosen.pop()

    descend(0)
    return incumbent.result(not budget.exhausted, budget.nodes, spec.witness_cap)


@dataclass(frozen=True)
class CertificationReport:
    ok: bool
    diagnostics: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def certify(result: SearchResult, spec: SearchSpec) -> CertificationReport:
    """Recheck every witness from scratch.

    Witnesses must be canonical, inside the alphabet, difference-injective
    when the search settings demand it, score exactly the reported
    exponent, and realize the slice sizes tensor_sizes predicts when
    tensored to two digits at their own carry-free base.
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
        stats = pattern_stats(pattern)
        if stats.max_slice < 2:
            diagnostics.append(f"{tag}: degenerate slices cannot score")
            continue
        exponent = math.log(stats.difference_size) / math.log(stats.max_slice)
        if abs(exponent - result.best_exponent) > 1e-9:
            diagnostics.append(
                f"{tag}: exponent mismatch ({exponent!r} vs {result.best_exponent!r})"
            )
        inst = tensor_pattern(pattern, 2, base=stats.min_base)
        measured = {
            "A": len(inst.a_set),
            "B": len(inst.b_set),
            "C": len({u + v for u, v in inst.pairs}),
            "G": len(inst.pairs),
            "differences": len({u - v for u, v in inst.pairs}),
        }
        if spec.constrain_d:
            measured["D"] = len({u + 2 * v for u, v in inst.pairs})
        expected = tensor_sizes(pattern, 2)
        if measured != expected:
            diagnostics.append(
                f"{tag}: tensor cardinality mismatch ({measured} vs {expected})"
            )
    return CertificationReport(ok=not diagnostics, diagnostics=tuple(diagnostics))
