"""Tabulate the dimension lower bounds for Besicovitch sets in R^n.

Three bounds per dimension, all exact rationals: the box-counting bound
(4n+3)/7, the Hausdorff bound 6(n-1)/11 + 1, and the n/2 + 1 baseline.
The novelty thresholds mark the first dimension where each new bound
overtakes the baseline.
"""

from fractions import Fraction

from arithproj import dimension_report, novelty_threshold


def main():
    print(" n   box        hausdorff  baseline   winners")
    for n in range(2, 13):
        rep = dimension_report(n)
        row = (f"{n:>2}   {str(rep.minkowski):<10} {str(rep.hausdorff):<10} "
               f"{str(rep.wolff):<10} box:{rep.best_minkowski} "
               f"hausdorff:{rep.best_hausdorff}")
        print(row)

    box_at = novelty_threshold("minkowski")
    haus_at = novelty_threshold("hausdorff")
    print(f"\nbox bound first beats the baseline at n={box_at}")
    print(f"hausdorff bound first beats the baseline at n={haus_at}")

    rep = dimension_report(8)
    assert rep.minkowski == rep.wolff == Fraction(5)
    print(f"at n=8 the box bound ties the baseline exactly: {rep.minkowski}")


if __name__ == "__main__":
    main()
