#!/usr/bin/env python3
"""Doob decomposition walkthrough for the bundled functional models.

Shows the normalization pair (eps_n, delta_n), the variance sandwich, and
the exact normalized distance against the eps_n |ln eps_n| functional for
the coordinate-average model, plus the uniform-{0,1,2} case whose lower
sandwich legitimately fails (reported as a diagnostic).
"""

import argparse
import math

from mclt_lab.distance import exact_kolmogorov_discrete
from mclt_lab.lipschitz import (
    epsilon_delta_n,
    exact_distribution,
    make_model,
    variance_sandwich,
    verify_a1_lipschitz,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=16)
    args = ap.parse_args()

    print("coordinate-average model (fair signs):")
    print(f"{'n':>4} {'eps_n':>9} {'delta_n':>8} {'D_exact':>9} {'D/func':>8}")
    n = 2
    while n <= args.nmax:
        model = make_model("rademacher_average", n=n)
        pair = epsilon_delta_n(model)
        support, probs = exact_distribution(model)
        d = exact_kolmogorov_discrete(support, probs)
        func = pair.epsilon_n * abs(math.log(pair.epsilon_n)) + pair.delta_n
        print(f"{n:>4} {pair.epsilon_n:>9.5f} {pair.delta_n:>8.1f} {d:>9.5f} {d/func:>8.3f}")
        n *= 2

    print("\nmax of two bits:")
    sw = variance_sandwich(make_model("max_of_bits", n=2))
    print(f"  lower {sw.lower:.4f} <= var {sw.variance:.4f} <= upper {sw.upper:.4f}")
    for row in verify_a1_lipschitz(make_model("max_of_bits", n=2)):
        print(f"  step {row['step']}: holds={row['holds']} equality={row['equality']}")

    print("\nuniform-{0,1,2} sum (lower sandwich counterexample):")
    sw = variance_sandwich(make_model("uniform_triple_sum", n=2))
    print(
        f"  lower {sw.lower:.4f} vs var {sw.variance:.4f}: "
        f"lower_holds={sw.lower_holds} (diagnostic), upper_holds={sw.upper_holds}"
    )


if __name__ == "__main__":
    main()
