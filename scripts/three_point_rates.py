#!/usr/bin/env python3
"""Sub-unit moment exponent regime: rare-jump kernels with tight eps.

Each grid point is a three-point kernel with jump size b = eps and jump
probability q = 1/(n b^2), so the per-step variance is exactly 1/n and the
moment-domination condition is tight at eps for every rho.  The fitted slope
of log D against log eps is compared with the eps^rho functional at
rho = 1/2, and the exact finite-lattice distance (convolution powers) is
printed next to the Monte Carlo estimate.
"""

import argparse
import math

import numpy as np

from mclt_lab import cli
from mclt_lab.distance import exact_kolmogorov_discrete


def exact_distance(eps: float, n: int, q: float) -> float:
    step = np.array([q / 2.0, 1.0 - q, q / 2.0])
    pmf = np.array([1.0])
    for _ in range(n):
        pmf = np.convolve(pmf, step)
    mid = (len(pmf) - 1) // 2
    support = (np.arange(len(pmf)) - mid) * eps
    return exact_kolmogorov_discrete(support, pmf / pmf.sum())


def fit_skipped(manifest: dict) -> str:
    """The manifest's note on why it has no rate fit."""
    return next(note for note in manifest["notes"] if note.startswith("rate fit skipped"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/three_point_rates")
    ap.add_argument("--m", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=606)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--rho", type=float, default=0.5)
    args = ap.parse_args()

    grid = []
    for eps in (0.3, 0.2, 0.14, 0.1, 0.07):
        n = math.ceil(1.0 / (eps * eps)) + 1
        q = 1.0 / (n * eps * eps)
        grid.append(
            {"n": n, "M": args.m, "epsilon": eps, "kernel_params": {"b": eps, "q": q}}
        )
    config = {
        "kind": "rates",
        "kernel": {"name": "three_point", "params": {}},
        "grid": grid,
        "rho": args.rho,
        "p": 1.0,
        "alpha": 0.05,
        "bounds": ["C1"],
        "seed": args.seed,
    }
    manifest = cli.run_experiment(cli.parse_config(config), args.out, threads=args.threads)

    print(f"{'eps':>6} {'n':>5} {'d_hat':>10} {'d_exact':>10} {'d/eps^rho':>10}")
    for entry, r in zip(grid, manifest["records"]):
        exact = exact_distance(entry["epsilon"], entry["n"], entry["kernel_params"]["q"])
        ratio = r["d_hat"] / entry["epsilon"] ** args.rho
        print(
            f"{entry['epsilon']:>6.2f} {entry['n']:>5} {r['d_hat']:>10.6f} "
            f"{exact:>10.6f} {ratio:>10.4f}"
        )
    if manifest["fit"] is None:
        print("\n" + fit_skipped(manifest))
    else:
        print(f"\nfitted slope vs eps: {manifest['fit']['slope']:.4f}")


if __name__ == "__main__":
    main()
