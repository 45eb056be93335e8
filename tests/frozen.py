"""Regression fixtures recorded from the first exhaustive runs.

These values were produced by the library itself and then frozen; the
tests assert the searches keep reproducing them exactly.
"""

import math

# alphabet {0..3}, difference-injective, no skew constraint
K3_BEST_SCORE = (6, 3)  # (pair count, max slice)
K3_BEST_EXPONENT = math.log(6) / math.log(3)
K3_WITNESSES = frozenset(
    {
        ((0, 1), (0, 3), (1, 0), (1, 3), (3, 0), (3, 1)),
    }
)
K3_EXHAUSTIVE_NODES = 4953
K3_BRANCH_BOUND_NODES = 1504

# alphabet {0..4}, difference-injective, skew slice constrained
K4_BEST_SCORE = (8, 4)
K4_BEST_EXPONENT = 1.5
K4_WITNESSES = frozenset(
    {
        ((0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (3, 0), (4, 0)),
        ((0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1)),
        ((0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1)),
    }
)
K4_EXHAUSTIVE_NODES = 148473
K4_BRANCH_BOUND_NODES = 14667

# alphabet {0..3}, any subset (require_difference_injective=False), scored
# by the number of distinct differences
K3_NONINJECTIVE_BRANCH_BOUND_NODES = 23901

# alphabet {0..2}, any subset, exhaustive
K2_NONINJECTIVE_EXHAUSTIVE_NODES = 1023

# alphabet {0..5}, difference-injective, no skew constraint, branch-bound
K5_BEST_SCORE = (10, 4)
K5_BEST_EXPONENT = math.log(10) / math.log(4)
K5_WITNESSES = frozenset(
    {
        ((0, 1), (0, 2), (0, 5), (1, 0), (1, 1), (1, 5), (4, 1), (4, 2), (5, 0), (5, 1)),
        ((0, 1), (0, 4), (0, 5), (1, 0), (1, 4), (3, 1), (3, 5), (4, 0), (4, 1), (4, 4)),
        ((0, 1), (0, 4), (1, 0), (1, 3), (1, 4), (4, 0), (4, 1), (4, 4), (5, 0), (5, 3)),
        ((0, 1), (0, 5), (1, 0), (1, 1), (1, 4), (1, 5), (2, 0), (2, 4), (5, 0), (5, 1)),
        ((0, 2), (0, 4), (0, 5), (2, 0), (2, 2), (2, 5), (3, 2), (3, 4), (5, 0), (5, 2)),
        ((0, 2), (0, 5), (2, 0), (2, 2), (2, 3), (2, 5), (4, 0), (4, 3), (5, 0), (5, 2)),
        ((0, 3), (0, 4), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 3), (5, 0), (5, 1)),
        ((0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (3, 0), (3, 2), (3, 3), (4, 0), (4, 2)),
    }
)
K5_BRANCH_BOUND_NODES = 99770
# the full K=5 tree, in either slice set, which exhaustive mode reports
K5_EXHAUSTIVE_NODES = 6235353

# alphabet {0..6}, difference-injective, no skew constraint, branch-bound;
# this and the K=5 constrained walk below were recorded by the walk that
# rebuilt the slice sets at every node, before the walk kept slice tallies
K6_BEST_SCORE = (10, 4)
K6_WITNESSES = frozenset(
    {
        ((0, 1), (0, 2), (0, 5), (1, 0), (1, 1), (1, 5), (4, 1), (4, 2), (5, 0), (5, 1)),
        ((0, 1), (0, 2), (0, 6), (1, 0), (1, 1), (1, 6), (5, 1), (5, 2), (6, 0), (6, 1)),
        ((0, 1), (0, 4), (0, 5), (1, 0), (1, 4), (3, 1), (3, 5), (4, 0), (4, 1), (4, 4)),
        ((0, 1), (0, 4), (1, 0), (1, 3), (1, 4), (4, 0), (4, 1), (4, 4), (5, 0), (5, 3)),
        ((0, 1), (0, 5), (0, 6), (1, 0), (1, 5), (4, 1), (4, 6), (5, 0), (5, 1), (5, 5)),
        ((0, 1), (0, 5), (1, 0), (1, 1), (1, 4), (1, 5), (2, 0), (2, 4), (5, 0), (5, 1)),
        ((0, 1), (0, 5), (1, 0), (1, 4), (1, 5), (5, 0), (5, 1), (5, 5), (6, 0), (6, 4)),
        ((0, 1), (0, 6), (1, 0), (1, 1), (1, 5), (1, 6), (2, 0), (2, 5), (6, 0), (6, 1)),
        ((0, 2), (0, 4), (0, 5), (2, 0), (2, 2), (2, 5), (3, 2), (3, 4), (5, 0), (5, 2)),
        ((0, 2), (0, 5), (2, 0), (2, 2), (2, 3), (2, 5), (4, 0), (4, 3), (5, 0), (5, 2)),
        ((0, 3), (0, 4), (0, 6), (1, 3), (1, 6), (3, 0), (3, 3), (3, 4), (4, 0), (4, 3)),
        ((0, 3), (0, 4), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 3), (5, 0), (5, 1)),
        ((0, 3), (0, 4), (2, 1), (2, 4), (3, 0), (3, 1), (3, 3), (3, 4), (6, 0), (6, 1)),
        ((0, 3), (0, 5), (0, 6), (2, 3), (2, 6), (3, 0), (3, 3), (3, 5), (5, 0), (5, 3)),
        ((0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (3, 0), (3, 2), (3, 3), (4, 0), (4, 2)),
        ((0, 3), (0, 5), (1, 2), (1, 5), (3, 0), (3, 2), (3, 3), (3, 5), (6, 0), (6, 2)),
    }
)
K6_BRANCH_BOUND_NODES = 1008781

# alphabet {0..5}, difference-injective, skew slice constrained, branch-bound
K5_CONSTRAINED_BEST_SCORE = (8, 4)
K5_CONSTRAINED_WITNESSES = frozenset(
    {
        ((0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (3, 0), (4, 0)),
        ((0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1)),
        ((0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1)),
        ((0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (5, 0)),
        ((0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1), (5, 0)),
        ((0, 3), (1, 1), (1, 2), (1, 3), (3, 0), (3, 1), (3, 2), (5, 0)),
    }
)
K5_CONSTRAINED_BRANCH_BOUND_NODES = 145162

# alphabet {0..6}, difference-injective, skew slice constrained, branch-bound
K6_CONSTRAINED_BEST_SCORE = (8, 4)
K6_CONSTRAINED_WITNESSES = frozenset(
    {
        ((0, 1), (0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (3, 0), (4, 0)),
        ((0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1)),
        ((0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1)),
        ((0, 2), (0, 3), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (5, 0)),
        ((0, 2), (0, 3), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1), (5, 0)),
        ((0, 3), (0, 4), (2, 1), (2, 3), (2, 4), (4, 0), (4, 1), (6, 0)),
        ((0, 3), (0, 4), (2, 2), (2, 3), (2, 4), (4, 0), (4, 2), (6, 0)),
        ((0, 3), (0, 4), (2, 2), (2, 4), (4, 0), (4, 2), (4, 3), (6, 0)),
        ((0, 3), (0, 5), (1, 2), (1, 5), (5, 0), (5, 3), (6, 0), (6, 2)),
        ((0, 3), (1, 1), (1, 2), (1, 3), (3, 0), (3, 1), (3, 2), (5, 0)),
        ((0, 3), (2, 1), (2, 2), (2, 3), (4, 0), (4, 1), (4, 2), (6, 0)),
        ((0, 4), (2, 1), (2, 2), (2, 4), (4, 0), (4, 1), (4, 2), (6, 0)),
    }
)
K6_CONSTRAINED_BRANCH_BOUND_NODES = 1201608
