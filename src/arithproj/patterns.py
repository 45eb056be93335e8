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
from .instances import Instance, budgeted_slices

__all__ = [
    "DEFAULT_PAIR_CAP",
    "EXAMPLE_ONE_PATTERN",
    "EXAMPLE_TWO_PATTERN",
    "K7_CONSTRAINED_OPTIMA",
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
        if not isinstance(self.constrain_d, bool):
            raise ValueError("constrain_d must be a boolean")
        cleaned = set()
        for pair in self.pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ValueError(f"pattern pair {pair!r} is not a 2-sequence")
            x, y = pair
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (x, y)):
                raise ValueError("pattern entries must be ints")
            if x < 0 or y < 0:
                raise ValueError(f"pattern entries must be nonnegative, got {pair}")
            cleaned.add((x, y))
        if not cleaned:
            raise ValueError("pattern must contain at least one pair")
        object.__setattr__(self, "pairs", tuple(sorted(cleaned)))

    @classmethod
    def _unchecked(
        cls, pairs: tuple[tuple[int, int], ...], constrain_d: bool
    ) -> "DigitPattern":
        """A pattern from pairs already in stored form: distinct 2-tuples of
        nonnegative ints, sorted, and a bool constrain_d.

        __post_init__ is skipped, so the caller vouches for every check it
        would make.
        """
        pattern = object.__new__(cls)
        pattern.__dict__.update(pairs=pairs, constrain_d=constrain_d)
        return pattern

    # Slices are recomputed on demand, never stored, so they cannot go stale.
    @property
    def slices(self) -> dict[str, tuple[int, ...]]:
        """Each budgeted slice's sorted values: A, B, C and, if constrain_d, D."""
        return {
            name: tuple(sorted({form(x, y) for x, y in self.pairs}))
            for name, form in budgeted_slices(self.constrain_d).items()
        }

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
        return cls(
            pairs=tuple(tuple(p) if isinstance(p, list) else p for p in obj["pairs"]),
            constrain_d=obj.get("constrain_d", False),
        )


EXAMPLE_ONE_PATTERN = DigitPattern(
    pairs=tuple((x, y) for x in (0, 1, 3) for y in (0, 1, 3) if x != y),
    constrain_d=False,
)

EXAMPLE_TWO_PATTERN = DigitPattern(
    pairs=((0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 0), (4, 1)),
    constrain_d=True,
)

# The two symmetry classes the K=7 branch-bound search finds in four slices:
# 12 pairs, every slice 5, score ln 12 / ln 5.
K7_CONSTRAINED_OPTIMA = (
    DigitPattern(
        pairs=(
            (0, 3), (0, 4), (2, 1), (2, 2), (2, 3), (2, 4),
            (4, 0), (4, 1), (4, 2), (6, 0), (6, 1), (7, 0),
        ),
        constrain_d=True,
    ),
    DigitPattern(
        pairs=(
            (0, 3), (0, 4), (2, 2), (2, 3), (2, 4), (4, 0),
            (4, 1), (4, 2), (4, 3), (6, 0), (6, 1), (7, 0),
        ),
        constrain_d=True,
    ),
)


def min_base(pattern: DigitPattern) -> int:
    """Least base at which tensoring the pattern is carry-free.

    Every budgeted slice must stay below the base so its values are single
    digits (A and B never exceed C), and the difference alphabet must fit in
    a window of width base - 1 so distinct signed digit strings give
    distinct differences.
    """
    diffs = pattern.difference_slice
    needed = max(values[-1] for values in pattern.slices.values())
    return max(2, 1 + needed, 1 + diffs[-1] - diffs[0])


def max_slice(pairs: Collection[tuple[int, int]], constrain_d: bool = False) -> int:
    """Largest budgeted slice of the pairs: A, B, C and, when constrain_d, D."""
    return max(
        len({form(x, y) for x, y in pairs}) for form in budgeted_slices(constrain_d).values()
    )


def tensor_sizes(pattern: DigitPattern, length: int) -> dict[str, int]:
    """Slice cardinalities of the length-digit tensor, computed analytically.

    "D" appears only for constrained patterns: min_base keeps skew digits
    carry-free only when the pattern tracks them, so the power identity for
    the skew slice is guaranteed only in that case.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    sizes = {name: len(values) ** length for name, values in pattern.slices.items()}
    sizes["G"] = len(pattern.pairs) ** length
    sizes["differences"] = len(pattern.difference_slice) ** length
    return sizes


def tensor_pattern(pattern: DigitPattern, length: int, base: int | None = None) -> Instance:
    """Materialize the length-digit instance of the pattern over the integers.

    Built one digit at a time, most significant first: each step takes a
    value v to v * base + digit for every pattern pair (x, y), so every
    element is sum(digit_i * base**i), and pairs, A and B come out sorted.
    Every combination of alphabet digits occurs in some tensored pair, so
    A and B, each built over its sorted digit alphabet in the same steps,
    are the two coordinate projections of the pairs.  Raises
    InvalidBase below the carry-free threshold, and InstanceTooLarge when
    length exceeds 63 digits, when the pair count would exceed
    DEFAULT_PAIR_CAP, or when the largest element, max digit *
    (base**length - 1) / (base - 1), would exceed ELEMENT_MAGNITUDE_CAP.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    threshold = min_base(pattern)
    if base is None:
        base = threshold
    if base < threshold:
        raise InvalidBase(f"base {base} is below the carry-free threshold {threshold}")
    # Checked before any power of length is taken.  A nonzero digit in
    # position 63 is at least 2**63, so this adds a bound only for the
    # all-zero pattern, which the magnitude cap never stops.
    digit_cap = ELEMENT_MAGNITUDE_CAP.bit_length()
    if length > digit_cap:
        raise InstanceTooLarge(f"{length} digits exceed cap {digit_cap}")
    if len(pattern.pairs) ** length > DEFAULT_PAIR_CAP:
        raise InstanceTooLarge(
            f"{len(pattern.pairs)}**{length} pairs exceed cap {DEFAULT_PAIR_CAP}"
        )
    largest = max(map(max, pattern.pairs)) * (base**length - 1) // (base - 1)
    if largest > ELEMENT_MAGNITUDE_CAP:
        raise InstanceTooLarge(
            f"largest element {largest} exceeds cap {ELEMENT_MAGNITUDE_CAP}"
        )
    by_digit: dict[int, list[int]] = {}
    for x, y in pattern.pairs:  # sorted, so each list of y digits is too
        by_digit.setdefault(x, []).append(y)
    y_digits = sorted({y for _, y in pattern.pairs})
    # (a, partners of a), both sorted, and B: appending a digit below the
    # base to sorted values keeps them sorted
    rows, b_set = [(0, [0])], [0]
    for _ in range(length):
        rows = [
            (a * base + x, [b * base + y for b in partners for y in ys])
            for a, partners in rows
            for x, ys in by_digit.items()
        ]
        b_set = [b * base + y for b in b_set for y in y_digits]
    pairs = tuple([(a, b) for a, partners in rows for b in partners])
    # At or above min_base distinct digit strings give distinct integers, so
    # the pairs are distinct and already in stored form: nothing is checked.
    return Instance._unchecked(
        AmbientGroup.integers(), tuple([a for a, _ in rows]), tuple(b_set), pairs
    )


def build_example_one(length: int, base: int | None = None) -> Instance:
    """Digits from {0, 1, 3} on both sides, paired exactly when they differ.

    Per digit: 6 pairs, all slices of size 3, six distinct differences.
    The base defaults to min_base, 7: the difference window has width 6.
    """
    return tensor_pattern(EXAMPLE_ONE_PATTERN, length, base=base)


def build_example_two(length: int, base: int | None = None) -> Instance:
    """Eight fixed digit pairs with all four slices of size 4 per digit.

    The skew slice {x + 2y} is tracked, so carries must also be avoided
    there: the base defaults to min_base, 9.
    """
    return tensor_pattern(EXAMPLE_TWO_PATTERN, length, base=base)
