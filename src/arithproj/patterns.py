"""Single-digit patterns and their carry-free tensor powers.

A pattern is a finite set of digit pairs (x, y) with x, y >= 0.  Repeating
it across n independent base-M digits produces an instance whose slices are
exact Cartesian powers of the single-digit slices, provided M is large
enough that no sum, skew sum, or difference ever carries between digits.
That threshold is computable from the pattern alone (min_base), which is
what lets a single digit's geometry certify growth exponents for every n.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .errors import InstanceTooLarge, InvalidBase
from .groups import ELEMENT_MAGNITUDE_CAP, AmbientGroup
from .instances import Instance

__all__ = [
    "DEFAULT_PAIR_CAP",
    "EXAMPLE_ONE_PATTERN",
    "EXAMPLE_TWO_PATTERN",
    "DigitPattern",
    "build_example_one",
    "build_example_two",
    "max_slice",
    "min_base",
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

    Built one digit at a time: digit i adds (x * base**i, y * base**i) for
    every pattern pair (x, y), so every element is sum(digit_i * base**i).
    Every combination of alphabet digits occurs in some tensored pair, so A
    and B are the two coordinate projections of the pairs.  Raises
    InvalidBase below the carry-free threshold, and InstanceTooLarge when the
    pair count would exceed pair_cap or the largest element, max digit *
    (base**length - 1) / (base - 1), would exceed ELEMENT_MAGNITUDE_CAP.
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
    largest = max(map(max, pattern.pairs)) * (base**length - 1) // (base - 1)
    if largest > ELEMENT_MAGNITUDE_CAP:
        raise InstanceTooLarge(
            f"largest element {largest} exceeds cap {ELEMENT_MAGNITUDE_CAP}"
        )
    pairs, scale = [(0, 0)], 1
    for _ in range(length):
        pairs = [(a + x * scale, b + y * scale) for a, b in pairs for x, y in pattern.pairs]
        scale *= base
    return Instance(
        group=AmbientGroup.integers(),
        a_set=tuple({a for a, _ in pairs}),
        b_set=tuple({b for _, b in pairs}),
        pairs=tuple(pairs),
    )


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
