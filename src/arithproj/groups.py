"""Ambient groups: the integers, or the integers mod m."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ELEMENT_MAGNITUDE_CAP",
    "AmbientGroup",
]

# Elements are plain Python ints.  Arithmetic is total and exact, but tensor
# constructions are capped at a machine-word magnitude so construction sizes
# stay in a range where set operations are cheap.
ELEMENT_MAGNITUDE_CAP = 2**63 - 1


@dataclass(frozen=True)
class AmbientGroup:
    """The integers when ``modulus`` is None, else Z/modulus.

    Modular elements are kept canonical in ``range(modulus)``.
    """

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @classmethod
    def integers(cls) -> "AmbientGroup":
        return cls(None)

    @classmethod
    def integers_mod(cls, modulus: int) -> "AmbientGroup":
        return cls(modulus)

    def canon(self, x: int) -> int:
        if self.modulus is None:
            return x
        return x % self.modulus

    def is_canonical(self, x: int) -> bool:
        if self.modulus is None:
            return True
        return 0 <= x < self.modulus

    def add(self, x: int, y: int) -> int:
        return self.canon(x + y)

    def sub(self, x: int, y: int) -> int:
        return self.canon(x - y)

    def scale(self, k: int, x: int) -> int:
        """k-fold sum of x; k may be any integer, including 0 and negatives."""
        return self.canon(k * x)

    def to_json(self) -> object:
        if self.modulus is None:
            return "Z"
        return {"mod": self.modulus}

    @classmethod
    def from_json(cls, obj: object) -> "AmbientGroup":
        if obj == "Z":
            return cls(None)
        if isinstance(obj, dict) and set(obj) == {"mod"} and isinstance(obj["mod"], int):
            return cls(obj["mod"])
        raise ValueError(f"unrecognized group spec: {obj!r}")
