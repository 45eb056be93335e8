"""Dimension lower bound formulas and crossover thresholds."""

from __future__ import annotations

from fractions import Fraction

import pytest

from arithproj import proofs
from arithproj.errors import InvalidDimension
from arithproj.kakeya import (
    dimension_report,
    hausdorff_bound,
    minkowski_bound,
    novelty_threshold,
    wolff_bound,
)


def test_bounds_are_exact_fractions():
    assert minkowski_bound(2) == Fraction(11, 7)
    assert minkowski_bound(3) == Fraction(15, 7)
    assert hausdorff_bound(2) == Fraction(17, 11)
    assert hausdorff_bound(3) == Fraction(23, 11)
    assert wolff_bound(2) == Fraction(2)
    assert wolff_bound(7) == Fraction(9, 2)
    for n in range(2, 40):
        assert minkowski_bound(n) == Fraction(4 * n + 3, 7)
        assert hausdorff_bound(n) == Fraction(6 * n + 5, 11)
        assert wolff_bound(n) == Fraction(n + 2, 2)


def test_dimension_validation():
    for bad in (1, 0, -3):
        with pytest.raises(InvalidDimension):
            minkowski_bound(bad)
        with pytest.raises(InvalidDimension):
            dimension_report(bad)
    with pytest.raises(InvalidDimension):
        hausdorff_bound(True)
    with pytest.raises(InvalidDimension):
        wolff_bound(2.0)


def test_thresholds_match_independent_scan():
    assert novelty_threshold("minkowski") == 9
    assert novelty_threshold("hausdorff") == 13
    # independent re-derivation straight from the formulas
    expected_mink = next(
        n for n in range(2, 100) if Fraction(4 * n + 3, 7) > Fraction(n + 2, 2)
    )
    expected_haus = next(
        n for n in range(2, 100) if Fraction(6 * n + 5, 11) > Fraction(n + 2, 2)
    )
    assert novelty_threshold("minkowski") == expected_mink
    assert novelty_threshold("hausdorff") == expected_haus
    with pytest.raises(ValueError) as excinfo:
        novelty_threshold("box")
    assert "'minkowski'" in str(excinfo.value)
    assert "'hausdorff'" in str(excinfo.value)


def test_crossover_at_eight():
    report = dimension_report(8)
    assert report.minkowski == Fraction(5)
    assert report.wolff == Fraction(5)
    assert report.best_minkowski == "equal"
    assert report.best_hausdorff == "wolff"


def test_report_winners():
    assert dimension_report(2).best_minkowski == "wolff"
    assert dimension_report(9).best_minkowski == "minkowski"
    assert dimension_report(11).best_hausdorff == "wolff"
    assert dimension_report(12).best_hausdorff == "equal"  # 77/11 = 14/2 = 7
    assert dimension_report(13).best_hausdorff == "hausdorff"
    for n in range(9, 30):
        assert dimension_report(n).best_minkowski == "minkowski"
    for n in range(13, 30):
        assert dimension_report(n).best_hausdorff == "hausdorff"


def test_report_json_shape():
    def winner(num: int, den: int, n: int, name: str) -> str:
        # num/den against (n + 2)/2, by integer cross-multiplication
        lhs, rhs = 2 * num, (n + 2) * den
        return name if lhs > rhs else "wolff" if lhs < rhs else "equal"

    def enc(num: int, den: int) -> dict:
        q = Fraction(num, den)
        return {"num": q.numerator, "den": q.denominator}

    for n in range(2, 61):
        expected = {
            "dimension": n,
            "minkowski": enc(4 * n + 3, 7),
            "hausdorff": enc(6 * n + 5, 11),
            "wolff": enc(n + 2, 2),
            "best_minkowski": winner(4 * n + 3, 7, n, "minkowski"),
            "best_hausdorff": winner(6 * n + 5, 11, n, "hausdorff"),
        }
        doc = dimension_report(n).to_json_dict()
        assert doc == expected
        assert list(doc) == list(expected)
        # the bounds are the rule (n - 1)/alpha + 1 on the proven exponents
        assert minkowski_bound(n) == (n - 1) / proofs.FOUR_SLICE_EXPONENT + 1
        assert hausdorff_bound(n) == (n - 1) / proofs.THREE_SLICE_EXPONENT + 1
