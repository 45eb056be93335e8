"""Walk both counting chains on a construction and on random instances.

The three-slice chain bounds the sixth power of the difference count by
N**11 using wedges and linked quadruples. The four-slice chain adds the
skew projection, pairs wedges through skew collisions, and gets the
fourth power below N**7. Every line is an exact rational comparison.
"""

import random

from arithproj import (
    SKEW_SUM,
    SUM,
    build_example_two,
    project,
    random_instance,
    verify_four_slice_chain,
    verify_three_slice_chain,
)


def show(report, title):
    print(f"-- {title} (N={report.budget}) --")
    for step in report.to_json_dict()["inequalities"]:
        lhs = f"{step['lhs']['num']}/{step['lhs']['den']}"
        rhs = f"{step['rhs']['num']}/{step['rhs']['den']}"
        mark = "ok" if step["holds"] else "FAIL"
        print(f"  {step['name']:<28} {lhs:>14} <= {rhs:<14} {mark}")
    print(f"  all hold: {report.all_hold}")


def main():
    inst = build_example_two(length=1)
    show(verify_three_slice_chain(inst, budget=4), "construction, three slices")
    show(verify_four_slice_chain(inst, budget=4), "construction, four slices")

    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        inst = random_instance(rng)
        # smallest budget the hypotheses allow: the largest tracked slice
        n6 = max(len(inst.a_set), len(inst.b_set), len(project(inst, SUM)))
        n4 = max(n6, len(project(inst, SKEW_SUM)))
        assert verify_three_slice_chain(inst, budget=n6).all_hold
        assert verify_four_slice_chain(inst, budget=n4).all_hold
        checked += 1
    print(f"\nboth chains held on {checked} random instances")


if __name__ == "__main__":
    main()
