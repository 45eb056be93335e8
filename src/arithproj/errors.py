"""Shared exception taxonomy.

Every library-specific failure mode gets its own class so callers (and the
CLI exit-code mapping) can dispatch without string matching.
"""

from __future__ import annotations

__all__ = [
    "ArithprojError",
    "EmptyLabelSet",
    "EnumerationCapExceeded",
    "HypothesisViolated",
    "InstanceTooLarge",
    "InvalidBase",
    "InvalidDimension",
    "MalformedInstance",
]


class ArithprojError(Exception):
    """Base class for all library errors."""


class InstanceTooLarge(ArithprojError):
    """A requested object exceeds a materialization or magnitude cap."""


class MalformedInstance(ArithprojError):
    """An instance violates its structural invariants (or its file does)."""


class EnumerationCapExceeded(ArithprojError):
    """A brute-force enumeration would visit more tuples than the cap allows."""


class EmptyLabelSet(ArithprojError):
    """A labeling maps a nonempty item set into an empty label set."""


class HypothesisViolated(ArithprojError):
    """A cardinality hypothesis fails for the supplied budget."""


class InvalidBase(ArithprojError):
    """The digit base is too small for the requested construction."""


class InvalidDimension(ArithprojError):
    """Dimension reports require an integer dimension n >= 2."""
