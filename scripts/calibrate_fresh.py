#!/usr/bin/env python3
"""Calibrate the frozen test constants on a seed set disjoint from the
one the acceptance suite uses.

Reports, over calibration seeds and instance families:
  - the worst sparse-slack and sparse-class-size margins after a fresh
    coloring (justifying gamma = 1/16, C_bal = 8);
  - the largest ratio of sparse color trials to n*log2(n)^2
    (justifying the frozen C_trials).

Acceptance seeds start at 1000; calibration uses 1..50.
"""

import math
from fractions import Fraction

from dyncolor.config import Config
from dyncolor.engine import Engine
from dyncolor.instances import families
from dyncolor.verify import sparse_class_sizes, sparse_slacks, verify_fresh_properties

# the calibration grid: (n, delta) sizes, and seeds disjoint from the acceptance ones
SIZES = ((500, 64), (2000, 128))
SEEDS = range(1, 51)


def main() -> None:
    worst_slack = math.inf
    worst_class = 0
    worst_trial_ratio = 0.0
    cfg_proto = Config(epsilon=Fraction(1, 8), zeta=4)
    for n, delta in SIZES:
        log2n = math.log2(n)
        for seed in SEEDS:
            for fam, edges in families(n, delta, seed):
                eng = Engine(
                    n, delta, cfg_proto, seed=10_000 + seed, mode="phased",
                    initial_edges=edges,
                )
                viols = verify_fresh_properties(
                    eng.g, eng.decomp, eng.state, eng.cfg
                )
                ratio = eng.fresh_reports[-1].sparse_trials / (n * log2n**2)
                worst_trial_ratio = max(worst_trial_ratio, ratio)
                slacks = sparse_slacks(eng.decomp, eng.state)
                worst_slack = min(worst_slack, *slacks.values())
                worst_class = max(worst_class, *sparse_class_sizes(eng.state))
                if viols:
                    print(f"VIOLATION n={n} seed={seed} fam={fam}: {viols[:3]}")
    print(f"min sparse slack over runs:      {worst_slack}")
    print(f"max sparse class size over runs: {worst_class}")
    print(f"max sparse trials / (n log^2 n): {worst_trial_ratio:.4f}")


if __name__ == "__main__":
    main()
