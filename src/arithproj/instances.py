"""Instances: finite sets A, B and a relation G inside A x B over an ambient group.

The objects of study are the projections {alpha*a + beta*b : (a, b) in G}
under integer linear forms.  SLICES is the one table of budgeted slices:
A = (1, 0), B = (0, 1), the sum slice C = (1, 1) and the skew slice
D = (1, 2).  The difference set is the projection under (1, -1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import HypothesisViolated, MalformedInstance
from .groups import AmbientGroup

__all__ = [
    "DIFFERENCE",
    "SKEW_SUM",
    "SLICES",
    "SUM",
    "Instance",
    "LinearForm",
    "budgeted_slices",
    "load_instance",
    "project",
    "read_json",
    "reduce_to_difference_injective",
    "require_hypotheses",
    "save_instance",
    "slice_sizes",
]


@dataclass(frozen=True)
class LinearForm:
    """The map (a, b) -> alpha*a + beta*b with fixed integer coefficients.

    A coefficient that is a bool or not an int raises ValueError, as two
    zero coefficients do.
    """

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        for coefficient in (self.alpha, self.beta):
            if isinstance(coefficient, bool) or not isinstance(coefficient, int):
                raise ValueError(f"coefficients must be ints, got {coefficient!r}")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("linear form must have a nonzero coefficient")

    def __call__(self, a: int, b: int) -> int:
        """The value over the integers."""
        return self.alpha * a + self.beta * b


SUM = LinearForm(1, 1)
DIFFERENCE = LinearForm(1, -1)
SKEW_SUM = LinearForm(1, 2)

# The budgeted slices, in report order.  Instances, patterns and the search
# walk all read their slice rules from here.
SLICES = {"A": LinearForm(1, 0), "B": LinearForm(0, 1), "C": SUM, "D": SKEW_SUM}


def budgeted_slices(with_d: bool = False) -> dict[str, LinearForm]:
    """The slices a budget bounds: A, B and C, and D only when with_d."""
    return {name: form for name, form in SLICES.items() if with_d or name != "D"}


def _check_element(group: AmbientGroup, x: object, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedInstance(f"{what} must be an int, got {x!r}")
    if not group.is_canonical(x):
        raise MalformedInstance(
            f"{what} {x} is not canonical for modulus {group.modulus}"
        )
    return x


@dataclass(frozen=True)
class Instance:
    """A, B, and pairs G, all stored sorted and deduplicated.

    G is a subset of A x B; A and B must be nonempty (G may be empty).
    """

    group: AmbientGroup
    a_set: tuple[int, ...]
    b_set: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        g = self.group
        a_sorted = tuple(sorted({_check_element(g, x, "A element") for x in self.a_set}))
        b_sorted = tuple(sorted({_check_element(g, x, "B element") for x in self.b_set}))
        if not a_sorted or not b_sorted:
            raise MalformedInstance("A and B must be nonempty")
        seen: set[tuple[int, int]] = set()
        for pair in self.pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise MalformedInstance(f"pair {pair!r} is not a 2-sequence")
            x = _check_element(g, pair[0], "pair first coordinate")
            y = _check_element(g, pair[1], "pair second coordinate")
            seen.add((x, y))
        a_lookup = set(a_sorted)
        b_lookup = set(b_sorted)
        for x, y in seen:
            if x not in a_lookup or y not in b_lookup:
                raise MalformedInstance(f"pair ({x}, {y}) lies outside A x B")
        object.__setattr__(self, "a_set", a_sorted)
        object.__setattr__(self, "b_set", b_sorted)
        object.__setattr__(self, "pairs", tuple(sorted(seen)))

    @classmethod
    def _unchecked(
        cls,
        group: AmbientGroup,
        a_set: tuple[int, ...],
        b_set: tuple[int, ...],
        pairs: tuple[tuple[int, int], ...],
    ) -> "Instance":
        """An instance from parts already in stored form: canonical ints,
        A and B sorted and distinct, pairs sorted, distinct and in A x B.

        __post_init__ is skipped, so the caller vouches for every check it
        would make.
        """
        inst = object.__new__(cls)
        inst.__dict__.update(group=group, a_set=a_set, b_set=b_set, pairs=pairs)
        return inst

    def partners(self) -> dict[int, tuple[int, ...]]:
        """For each a, the sorted tuple of b with (a, b) in G."""
        out: dict[int, list[int]] = {}
        for x, y in self.pairs:
            out.setdefault(x, []).append(y)
        return {x: tuple(ys) for x, ys in out.items()}

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.to_json(),
            "A": list(self.a_set),
            "B": list(self.b_set),
            "G": [list(p) for p in self.pairs],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "Instance":
        if not isinstance(obj, dict):
            raise MalformedInstance(f"instance document must be an object, got {type(obj).__name__}")
        missing = {"group", "A", "B", "G"} - set(obj)
        if missing:
            raise MalformedInstance(f"instance document missing keys: {sorted(missing)}")
        try:
            group = AmbientGroup.from_json(obj["group"])
        except ValueError as exc:
            raise MalformedInstance(str(exc)) from exc
        for key in ("A", "B", "G"):
            if not isinstance(obj[key], list):
                raise MalformedInstance(f"{key} must be a list")
        return cls(
            group=group,
            a_set=tuple(obj["A"]),
            b_set=tuple(obj["B"]),
            pairs=tuple(tuple(p) if isinstance(p, list) else p for p in obj["G"]),
        )


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: str) -> object:
    """The JSON document at path.

    Anything but UTF-8 JSON without NaN or Infinity, nested no deeper than
    the decoder allows, raises MalformedInstance.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors
            raise MalformedInstance(f"{path}: not valid JSON ({exc})") from exc


def load_instance(path: str) -> Instance:
    return Instance.from_json_dict(read_json(path))


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inst.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def project(inst: Instance, form: LinearForm) -> frozenset[int]:
    """The set {alpha*a + beta*b : (a, b) in G}."""
    alpha, beta, m = form.alpha, form.beta, inst.group.modulus
    if m is None:
        return frozenset(alpha * x + beta * y for x, y in inst.pairs)
    return frozenset((alpha * x + beta * y) % m for x, y in inst.pairs)


def slice_sizes(inst: Instance, with_d: bool = False) -> dict[str, int]:
    """The size of each slice in budgeted_slices(with_d).

    A and B are the instance's own sets, which may hold elements no pair of
    G uses; C and D project G under their forms.
    """
    own = {"A": inst.a_set, "B": inst.b_set}
    return {
        name: len(own[name]) if name in own else len(project(inst, form))
        for name, form in budgeted_slices(with_d).items()
    }


def require_hypotheses(inst: Instance, budget: int, with_d: bool = False) -> dict[str, int]:
    """slice_sizes, but raise HypothesisViolated when any slice exceeds
    budget, and ValueError when budget is not an int >= 1."""
    return _within_budget(slice_sizes(inst, with_d=with_d), budget)


def _within_budget(sizes: dict[str, int], budget: int) -> dict[str, int]:
    """sizes, in slice order, once budget is an int >= 1 (else ValueError;
    a bool is no budget) and no size exceeds it (else HypothesisViolated
    naming the slices above it)."""
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(f"budget must be an int, got {budget!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    failed = sorted(name for name, size in sizes.items() if size > budget)
    if failed:
        raise HypothesisViolated(
            f"hypotheses {failed} fail for budget {budget} (sizes {sizes})"
        )
    return sizes


def reduce_to_difference_injective(inst: Instance) -> Instance:
    """Keep one pair per distinct difference a - b.

    The kept pair is the lexicographically smallest with that difference, so
    the result is deterministic and the map is idempotent: when no pair is
    dropped, inst itself is returned.  The difference projection is
    unchanged; no slice grows.
    """
    m = inst.group.modulus
    # pairs are sorted and a later entry overwrites, so walking them in
    # reverse keeps the lex-smallest pair of each difference
    if m is None:
        kept = {x - y: (x, y) for x, y in reversed(inst.pairs)}
    else:
        kept = {(x - y) % m: (x, y) for x, y in reversed(inst.pairs)}
    if len(kept) == len(inst.pairs):
        return inst
    # a sorted subset of a validated relation needs no check
    return Instance._unchecked(inst.group, inst.a_set, inst.b_set, tuple(sorted(kept.values())))
