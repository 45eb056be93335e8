"""Single-digit patterns and their carry-free tensor powers.

A pattern is a finite set of digit pairs (x, y) with x, y >= 0.  Repeating
it across n independent base-M digits produces an instance whose slices are
exact Cartesian powers of the single-digit slices, provided M is large
enough that no sum, skew sum, or difference ever carries between digits.
That threshold is computable from the pattern alone (min_base), which is
what lets a single digit's geometry certify growth exponents for every n.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection
from dataclasses import dataclass

from .errors import InstanceTooLarge, InvalidBase
from .groups import AmbientGroup, DigitVector, digits_to_elem
from .instances import Instance

__all__ = [
    "DEFAULT_PAIR_CAP",
    "EXAMPLE_ONE_PATTERN",
    "EXAMPLE_TWO_PATTERN",
    "DigitPattern",
    "PatternStats",
    "build_example_one",
    "build_example_two",
    "max_slice",
    "min_base",
    "pattern_stats",
    "tensor_pattern",
    "tensor_sizes",
]

DEFAULT_PAIR_CAP = 10**6


@dataclass(frozen=True)
class DigitPattern:
    """A set of nonnegative digit pairs, optionally tracking the skew slice."""

    pairs: tuple[tuple[int, int], ...]
    constrain_d: bool = False

    def __post_init__(self) -> None:
        cleaned = set()
        for pair in self.pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ValueError(f"pattern pair {pair!r} is not a 2-sequence")
            x, y = pair
            if isinstance(x, bool) or isinstance(y, bool):
                raise ValueError("pattern entries must be ints")
            if not (isinstance(x, int) and isinstance(y, int)):
                raise ValueError("pattern entries must be ints")
            if x < 0 or y < 0:
                raise ValueError(f"pattern entries must be nonnegative, got {pair}")
            cleaned.add((x, y))
        if not cleaned:
            raise ValueError("pattern must contain at least one pair")
        object.__setattr__(self, "pairs", tuple(sorted(cleaned)))

    # Slices are recomputed on demand, never stored, so they cannot go stale.
    @property
    def x_alphabet(self) -> tuple[int, ...]:
        return tuple(sorted({x for x, _ in self.pairs}))

    @property
    def y_alphabet(self) -> tuple[int, ...]:
        return tuple(sorted({y for _, y in self.pairs}))

    @property
    def sum_slice(self) -> tuple[int, ...]:
        return tuple(sorted({x + y for x, y in self.pairs}))

    @property
    def skew_slice(self) -> tuple[int, ...]:
        return tuple(sorted({x + 2 * y for x, y in self.pairs}))

    @property
    def difference_slice(self) -> tuple[int, ...]:
        return tuple(sorted({x - y for x, y in self.pairs}))

    @property
    def difference_injective(self) -> bool:
        return len(self.difference_slice) == len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "constrain_d": self.constrain_d,
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "DigitPattern":
        if not isinstance(obj, dict) or "pairs" not in obj:
            raise ValueError("pattern document must be an object with a 'pairs' key")
        constrain = obj.get("constrain_d", False)
        if not isinstance(constrain, bool):
            raise ValueError("constrain_d must be a boolean")
        return cls(
            pairs=tuple(tuple(p) if isinstance(p, list) else p for p in obj["pairs"]),
            constrain_d=constrain,
        )


EXAMPLE_ONE_PATTERN = DigitPattern(
    pairs=tuple((x, y) for x in (0, 1, 3) for y in (0, 1, 3) if x != y),
    constrain_d=False,
)

EXAMPLE_TWO_PATTERN = DigitPattern(
    pairs=((0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 0), (4, 1)),
    constrain_d=True,
)


def min_base(pattern: DigitPattern) -> int:
    """Least base at which tensoring the pattern is carry-free.

    Sums (and skew sums, when tracked) must stay below the base so they are
    single digits, and the difference alphabet must fit in a window of width
    base - 1 so signed digit vectors decode uniquely.
    """
    diffs = pattern.difference_slice
    needed = max(x + y for x, y in pattern.pairs)
    if pattern.constrain_d:
        needed = max(needed, max(x + 2 * y for x, y in pattern.pairs))
    needed = max(needed, diffs[-1] - diffs[0])
    return max(2, 1 + needed)


def max_slice(pairs: Collection[tuple[int, int]], constrain_d: bool = False) -> int:
    """Largest budgeted slice of the pairs: A, B, C and, when constrain_d, D."""
    sizes = [
        len({x for x, _ in pairs}),
        len({y for _, y in pairs}),
        len({x + y for x, y in pairs}),
    ]
    if constrain_d:
        sizes.append(len({x + 2 * y for x, y in pairs}))
    return max(sizes)


@dataclass(frozen=True)
class PatternStats:
    """Single-digit slice sizes and the growth exponent they certify."""

    pair_count: int
    a_size: int
    b_size: int
    sum_size: int
    skew_size: int
    difference_size: int
    max_slice: int
    difference_injective: bool
    min_base: int
    constrain_d: bool
    exponent: float | None

    def to_json_dict(self) -> dict:
        return {
            "pairs": self.pair_count,
            "sizes": {
                "A": self.a_size,
                "B": self.b_size,
                "C": self.sum_size,
                "D": self.skew_size,
                "differences": self.difference_size,
            },
            "difference_injective": self.difference_injective,
            "min_base": self.min_base,
            "constrain_d": self.constrain_d,
            "exponent": None if self.exponent is None else round(self.exponent, 6),
        }


def pattern_stats(pattern: DigitPattern) -> PatternStats:
    """Measure every slice of the single-digit pattern.

    The exponent ln(#pairs) / ln(max slice size) is the growth rate of the
    difference projection against the shared slice budget after tensoring.
    It is only defined when the pattern is difference-injective and some
    slice has at least two values.
    """
    largest = max_slice(pattern.pairs, pattern.constrain_d)
    exponent = None
    if pattern.difference_injective and largest >= 2:
        exponent = math.log(len(pattern.pairs)) / math.log(largest)
    return PatternStats(
        pair_count=len(pattern.pairs),
        a_size=len(pattern.x_alphabet),
        b_size=len(pattern.y_alphabet),
        sum_size=len(pattern.sum_slice),
        skew_size=len(pattern.skew_slice),
        difference_size=len(pattern.difference_slice),
        max_slice=largest,
        difference_injective=pattern.difference_injective,
        min_base=min_base(pattern),
        constrain_d=pattern.constrain_d,
        exponent=exponent,
    )


def tensor_sizes(pattern: DigitPattern, length: int) -> dict[str, int]:
    """Slice cardinalities of the length-digit tensor, computed analytically.

    "D" appears only for constrained patterns: min_base keeps skew digits
    carry-free only when the pattern tracks them, so the power identity for
    the skew slice is guaranteed only in that case.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    sizes = {
        "A": len(pattern.x_alphabet) ** length,
        "B": len(pattern.y_alphabet) ** length,
        "C": len(pattern.sum_slice) ** length,
        "G": len(pattern.pairs) ** length,
        "differences": len(pattern.difference_slice) ** length,
    }
    if pattern.constrain_d:
        sizes["D"] = len(pattern.skew_slice) ** length
    return sizes


def tensor_pattern(
    pattern: DigitPattern,
    length: int,
    base: int | None = None,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> Instance:
    """Materialize the length-digit instance of the pattern over the integers.

    Every element is sum(digit_i * base**i).  Raises InvalidBase below the
    carry-free threshold and InstanceTooLarge when the pair count would
    exceed pair_cap.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    threshold = min_base(pattern)
    if base is None:
        base = threshold
    if base < threshold:
        raise InvalidBase(f"base {base} is below the carry-free threshold {threshold}")
    if len(pattern.pairs) ** length > pair_cap:
        raise InstanceTooLarge(
            f"{len(pattern.pairs)}**{length} pairs exceed cap {pair_cap}"
        )
    group = AmbientGroup.integers()

    def decode(digits: tuple[int, ...]) -> int:
        return digits_to_elem(DigitVector(base, digits))

    a_set = tuple(
        decode(combo) for combo in itertools.product(pattern.x_alphabet, repeat=length)
    )
    b_set = tuple(
        decode(combo) for combo in itertools.product(pattern.y_alphabet, repeat=length)
    )
    pairs = tuple(
        (decode(tuple(x for x, _ in combo)), decode(tuple(y for _, y in combo)))
        for combo in itertools.product(pattern.pairs, repeat=length)
    )
    return Instance(group=group, a_set=a_set, b_set=b_set, pairs=pairs)


def build_example_one(
    length: int, base: int | None = None, pair_cap: int = DEFAULT_PAIR_CAP
) -> Instance:
    """Digits from {0, 1, 3} on both sides, paired exactly when they differ.

    Per digit: 6 pairs, all slices of size 3, six distinct differences.
    The base defaults to min_base, 7: the difference window (width 6) must
    decode uniquely.
    """
    return tensor_pattern(EXAMPLE_ONE_PATTERN, length, base=base, pair_cap=pair_cap)


def build_example_two(
    length: int, base: int | None = None, pair_cap: int = DEFAULT_PAIR_CAP
) -> Instance:
    """Eight fixed digit pairs with all four slices of size 4 per digit.

    The skew slice {x + 2y} is tracked, so carries must also be avoided
    there: the base defaults to min_base, 9.
    """
    return tensor_pattern(EXAMPLE_TWO_PATTERN, length, base=base, pair_cap=pair_cap)
