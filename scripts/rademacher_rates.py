#!/usr/bin/env python3
"""Decay of the distance to normal for normalized fair-coin sums.

Runs the rates pipeline over a dyadic n grid, prints the fitted log-log
slope (expect about -1/2) and the per-point domination margin against the
eps |ln eps| functional at eps = n^(-1/2).
"""

import argparse
from pathlib import Path

from mclt_lab import cli


def fit_skipped(manifest: dict) -> str:
    """The manifest's note on why it has no rate fit."""
    notes = [note for note in manifest["notes"] if note.startswith("rate fit skipped")]
    return notes[0] if notes else "rate fit skipped: fewer than 3 grid points"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/rademacher_rates")
    ap.add_argument("--m", type=int, default=1_000_000, help="paths per grid point")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--emin", type=int, default=6, help="smallest dyadic exponent")
    ap.add_argument("--emax", type=int, default=12, help="largest dyadic exponent")
    args = ap.parse_args()

    config = {
        "kind": "rates",
        "kernel": {"name": "iid_rademacher", "params": {}},
        "grid": [{"n": 2**e, "M": args.m} for e in range(args.emin, args.emax + 1)],
        "rho": 1.0,
        "p": 1.0,
        "alpha": 0.05,
        "bounds": ["T1"],
        "seed": args.seed,
    }
    manifest = cli.run_experiment(cli.parse_config(config), args.out, threads=args.threads)

    print(f"{'n':>6} {'d_hat':>10} {'band':>10} {'T1':>10} {'d/T1':>8}")
    for r in manifest["records"]:
        print(
            f"{r['n']:>6} {r['d_hat']:>10.6f} {r['dkw_band']:>10.6f} "
            f"{r['bounds']['T1']:>10.6f} {r['d_hat'] / r['bounds']['T1']:>8.3f}"
        )
    fit = manifest["fit"]
    if fit is None:
        print("\n" + fit_skipped(manifest))
    else:
        # r^2 is null in the manifest when fewer than 3 points are kept
        r2 = "undefined" if fit["r_squared"] is None else f"{fit['r_squared']:.4f}"
        print(f"\nfitted slope {fit['slope']:.4f}  (r^2 = {r2})")
    print(f"outputs in {Path(args.out).resolve()}")


if __name__ == "__main__":
    main()
