"""Lower bounds for Besicovitch set dimensions, as exact rationals.

Three bound families in ambient dimension n >= 2:

* minkowski: (4n + 3) / 7 for the Minkowski (box) dimension,
* hausdorff: (6n + 5) / 11 for the Hausdorff dimension,
* wolff:     (n + 2) / 2, the prior benchmark for both notions.

The first two follow from the additive projection machinery in this
package by one rule: a ladder exponent alpha gives the bound
(n - 1) / alpha + 1.  One table maps each such bound's name to its
exponent in proofs: minkowski to 7/4, hausdorff to 11/6.  The report, its
winners and the thresholds all iterate that table, so a new proven bound
is one more entry, plus its two DimensionReport fields.  The benchmark is
listed so callers can see exactly where each new bound starts to win.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import InvalidDimension
from .proofs import FOUR_SLICE_EXPONENT, THREE_SLICE_EXPONENT

__all__ = [
    "DimensionReport",
    "dimension_report",
    "hausdorff_bound",
    "minkowski_bound",
    "novelty_threshold",
    "wolff_bound",
]

# each slice bound's ladder exponent, keyed by the bound's name, which is
# also its DimensionReport field, with its winner in best_<name>
_EXPONENTS = {"minkowski": FOUR_SLICE_EXPONENT, "hausdorff": THREE_SLICE_EXPONENT}


def _require_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidDimension(f"ambient dimension must be an integer >= 2, got {n!r}")


def _ladder_bound(kind: str, n: int) -> Fraction:
    """(n - 1) / alpha + 1 for the exponent alpha of the named bound."""
    _require_dimension(n)
    return (n - 1) / _EXPONENTS[kind] + 1


def minkowski_bound(n: int) -> Fraction:
    """Box-dimension lower bound (n - 1) / (7/4) + 1 = (4n + 3) / 7."""
    return _ladder_bound("minkowski", n)


def hausdorff_bound(n: int) -> Fraction:
    """Hausdorff-dimension lower bound (n - 1) / (11/6) + 1 = (6n + 5) / 11."""
    return _ladder_bound("hausdorff", n)


def wolff_bound(n: int) -> Fraction:
    """Benchmark lower bound (n + 2) / 2, valid for both dimension notions."""
    _require_dimension(n)
    return Fraction(n + 2, 2)


@dataclass(frozen=True)
class DimensionReport:
    """All three bounds at one dimension, with the winners named.

    best_minkowski compares minkowski against wolff; best_hausdorff
    compares hausdorff against wolff.  Ties are reported as "equal".
    """

    dimension: int
    minkowski: Fraction
    hausdorff: Fraction
    wolff: Fraction
    best_minkowski: str
    best_hausdorff: str

    def to_json_dict(self) -> dict:
        """The fields in order, each Fraction as {"num": ..., "den": ...}."""
        doc = {}
        for f in fields(self):
            q = getattr(self, f.name)
            if isinstance(q, Fraction):
                q = {"num": q.numerator, "den": q.denominator}
            doc[f.name] = q
        return doc


def _winner(candidate: Fraction, benchmark: Fraction, name: str) -> str:
    if candidate > benchmark:
        return name
    if candidate < benchmark:
        return "wolff"
    return "equal"


def dimension_report(n: int) -> DimensionReport:
    wolff = wolff_bound(n)
    bounds = {kind: _ladder_bound(kind, n) for kind in _EXPONENTS}
    winners = {f"best_{kind}": _winner(q, wolff, kind) for kind, q in bounds.items()}
    return DimensionReport(dimension=n, wolff=wolff, **bounds, **winners)


def novelty_threshold(kind: str) -> int:
    """Least dimension where the named bound strictly beats the benchmark.

    Computed by upward scan, not hard-coded, so the table stays the single
    source of truth.
    """
    if not isinstance(kind, str) or kind not in _EXPONENTS:
        raise ValueError(f"kind must be {' or '.join(map(repr, _EXPONENTS))}, got {kind!r}")
    n = 2
    while _ladder_bound(kind, n) <= wolff_bound(n):
        n += 1
    return n
