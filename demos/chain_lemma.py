"""The chain-counting lemma on a worked example and a random batch.

A chain problem is a finite item set walked through k labeling steps; a
chain is a (k+1)-tuple of items where consecutive entries share a label
at that step. The dynamic-programming count is exact, the naive count
grows chains item by item and tests every extension directly, and the
lemma guarantees the count is at least (#items)^(k+1) divided by the
product of the label-set sizes.
"""

import random

from arithproj import (
    ChainProblem,
    Labeling,
    chain_count_dp,
    chain_count_naive,
    chain_lower_bound,
    random_chain_problem,
)


def main():
    items = tuple(range(6))
    parity = Labeling(assignment={i: i % 2 for i in items}, label_count=2)
    thirds = Labeling(assignment={i: i % 3 for i in items}, label_count=3)
    problem = ChainProblem(items=items, labelings=(parity, thirds))

    dp = chain_count_dp(problem)
    naive = chain_count_naive(problem)
    bound = chain_lower_bound(problem)
    print(f"items={len(items)} steps={problem.steps}")
    print(f"dp count      = {dp}")
    print(f"naive count   = {naive}")
    print(f"lower bound   = {bound} = {float(bound):.2f}")
    assert dp == naive and bound <= dp

    rng = random.Random(20260819)
    worst = None
    for _ in range(500):
        prob = random_chain_problem(rng)
        count = chain_count_dp(prob)
        guarantee = chain_lower_bound(prob)
        assert guarantee <= count
        ratio = guarantee / count if count else 0
        if worst is None or ratio > worst[0]:
            worst = (ratio, len(prob.items), prob.steps, count, guarantee)
    ratio, n_items, steps, count, guarantee = worst
    print(f"\n500 random problems: lemma held every time")
    print(f"tightest case: items={n_items} steps={steps} "
          f"count={count} bound={guarantee} (ratio {float(ratio):.3f})")


if __name__ == "__main__":
    main()
