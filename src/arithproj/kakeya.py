"""Lower bounds for Besicovitch set dimensions, as exact rationals.

Three bound families in ambient dimension n >= 2:

* minkowski: (4n + 3) / 7 for the Minkowski (box) dimension,
* hausdorff: (6n + 5) / 11 for the Hausdorff dimension,
* wolff:     (n + 2) / 2, the prior benchmark for both notions.

The first two follow from the additive projection machinery in this
package: each is (n - 1) / alpha + 1 for the exponent alpha of the matching
ladder in proofs (7/4 and 11/6).  The benchmark is listed so callers can
see exactly where each new bound starts to win.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _require_dimension(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidDimension(f"ambient dimension must be an integer >= 2, got {n!r}")


def minkowski_bound(n: int) -> Fraction:
    """Box-dimension lower bound (n - 1) / (7/4) + 1 = (4n + 3) / 7."""
    _require_dimension(n)
    return (n - 1) / FOUR_SLICE_EXPONENT + 1


def hausdorff_bound(n: int) -> Fraction:
    """Hausdorff-dimension lower bound (n - 1) / (11/6) + 1 = (6n + 5) / 11."""
    _require_dimension(n)
    return (n - 1) / THREE_SLICE_EXPONENT + 1


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
        def enc(q: Fraction) -> dict:
            return {"num": q.numerator, "den": q.denominator}

        return {
            "dimension": self.dimension,
            "minkowski": enc(self.minkowski),
            "hausdorff": enc(self.hausdorff),
            "wolff": enc(self.wolff),
            "best_minkowski": self.best_minkowski,
            "best_hausdorff": self.best_hausdorff,
        }


def _winner(candidate: Fraction, benchmark: Fraction, name: str) -> str:
    if candidate > benchmark:
        return name
    if candidate < benchmark:
        return "wolff"
    return "equal"


def dimension_report(n: int) -> DimensionReport:
    _require_dimension(n)
    mink = minkowski_bound(n)
    haus = hausdorff_bound(n)
    wolff = wolff_bound(n)
    return DimensionReport(
        dimension=n,
        minkowski=mink,
        hausdorff=haus,
        wolff=wolff,
        best_minkowski=_winner(mink, wolff, "minkowski"),
        best_hausdorff=_winner(haus, wolff, "hausdorff"),
    )


def novelty_threshold(kind: str) -> int:
    """Least dimension where the named bound strictly beats the benchmark.

    Computed by upward scan, not hard-coded, so the formulas stay the
    single source of truth.
    """
    if kind == "minkowski":
        bound = minkowski_bound
    elif kind == "hausdorff":
        bound = hausdorff_bound
    else:
        raise ValueError(f"kind must be 'minkowski' or 'hausdorff', got {kind!r}")
    n = 2
    while bound(n) <= wolff_bound(n):
        n += 1
    return n
