#!/usr/bin/env python3
"""Variance-drift kernels: exact deviation oracle vs Monte Carlo, and the
bounded-difference functional.

The drift kernel's terminal conditional variance is 1 + d(2H - n)/n with H
the number of steps spent on the high-variance side, and the side process is
the same lattice walk for every n.  The exact E|<X>_n - 1| therefore comes
from a lattice recursion, anchored at small n by the exact history walk of
``oracles.exact_terminal_moments``, and the Monte Carlo estimate should land
within a few standard errors of it.
"""

import argparse

from mclt_lab import make_kernel, oracles
from mclt_lab.bounds import evaluate_rate
from mclt_lab.distance import kolmogorov_distance
from mclt_lab.kernels import sample_terminal


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--m", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=707)
    ap.add_argument("--anchor", type=int, default=24, help="n of the exact history walk")
    args = ap.parse_args()

    d = 0.2
    walk = oracles.exact_terminal_moments(make_kernel("variance_drift", n=args.anchor, d=d))
    lattice = oracles.variance_drift_mean_abs_deviation(d, args.anchor)
    print(f"anchor n={args.anchor}: history walk {walk.mean_var_dev_p:.12f}")
    print(f"anchor n={args.anchor}: lattice      {lattice:.12f}")
    print(f"agreement: {abs(walk.mean_var_dev_p - lattice):.2e}\n")

    oracle = oracles.variance_drift_mean_abs_deviation(d, args.n)
    stats = sample_terminal(make_kernel("variance_drift", n=args.n, d=d),
                            seed=args.seed, count=args.m, p=1.0)
    se = stats.stderr_var_dev_p
    pull = (stats.mean_var_dev_p - oracle) / se
    print(f"n={args.n}: exact E|<X>_n - 1| = {oracle:.6f}")
    print(f"n={args.n}: MC ({args.m} paths)  = {stats.mean_var_dev_p:.6f}  ({pull:+.2f} se)\n")

    print(f"{'d':>5} {'eps':>8} {'d_hat':>9} {'C2':>8} {'d_hat/C2':>9}")
    for dd in (0.1, 0.2, 0.4):
        kernel = make_kernel("variance_drift", n=args.n, d=dd)
        st = sample_terminal(kernel, seed=args.seed, count=args.m, p=1.0)
        est = kolmogorov_distance(st.terminal)
        eps = kernel.certified_epsilon(1.0)
        c2 = evaluate_rate("C2", {"epsilon": eps, "p": 1.0, "var_dev_p": st.mean_var_dev_p})
        print(f"{dd:>5.2f} {eps:>8.5f} {est.d_hat:>9.5f} {c2:>8.5f} {est.d_hat / c2:>9.4f}")


if __name__ == "__main__":
    main()
