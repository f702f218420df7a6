#!/usr/bin/env python3
"""Wall time and walk nodes per second of the exhaustive history walk.

Times the three callers of ``conditions._walk`` on ``variance_drift``
(d=0.2): ``minimal_epsilon`` (rho=1), ``minimal_delta`` and
``oracles.exact_terminal_moments`` (p=1).  A call's walk nodes are the sum
of its level sizes, counted in one untimed call; its peak is the traced
memory of another, also given per node of the widest level.  Each case gets
one untimed warm-up call first.  Writes every sample, the median of each,
and the machine and library versions to a JSON file.
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from engine_bench import environment

from mclt_lab import conditions, oracles
from mclt_lab.kernels import make_kernel

DRIFT = 0.2
SIZES = {
    "minimal_epsilon": (96, 128, 256),
    "minimal_delta": (32, 64),
    "exact_terminal_moments": (16,),
}
TINY_SIZES = {"minimal_epsilon": (12, 16), "minimal_delta": (8,), "exact_terminal_moments": (8,)}
CALLS = {
    "minimal_epsilon": lambda kernel: conditions.minimal_epsilon(kernel, 1.0),
    "minimal_delta": conditions.minimal_delta,
    "exact_terminal_moments": lambda kernel: oracles.exact_terminal_moments(kernel, 1.0),
}


def level_sizes(call, kernel) -> list[int]:
    """The size of each level of the call's walk, read off the grouping
    that merges each level's children."""
    sizes = []
    classes = conditions._classes

    def counted(columns, rows):
        order, starts = classes(columns, rows)
        sizes.append(len(starts))
        return order, starts

    conditions._classes = counted
    try:
        call(kernel)
    finally:
        conditions._classes = classes
    return sizes


def peak_bytes(call, kernel) -> int:
    tracemalloc.start()
    try:
        call(kernel)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per case")
    ap.add_argument("--tiny", action="store_true", help="small n, for a smoke run")
    ap.add_argument("--out", default="BENCH_walk.json")
    args = ap.parse_args()
    if args.repeat < 1:
        sys.exit("--repeat must be positive")

    results = {}
    print(f"{'call':<30} {'nodes':>9} {'median s':>10} {'nodes/s':>11} {'peak B/node':>12}")
    for name, ns in (TINY_SIZES if args.tiny else SIZES).items():
        call = CALLS[name]
        for n in ns:
            kernel = make_kernel("variance_drift", n=n, d=DRIFT)
            sizes = level_sizes(call, kernel)
            peak = peak_bytes(call, kernel)
            wall = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                call(kernel)
                wall.append(time.perf_counter() - t0)
            median = statistics.median(wall)
            key = f"{name} n={n}"
            results[key] = {
                "walk_nodes": sum(sizes),
                "widest_level": max(sizes),
                "wall_s": wall,
                "median_wall_s": median,
                "nodes_per_s": sum(sizes) / median,
                "peak_bytes": peak,
                "peak_bytes_per_node": peak / max(sizes),
            }
            print(f"{key:<30} {sum(sizes):>9} {median:>10.4f} {sum(sizes) / median:>11.4g} "
                  f"{peak / max(sizes):>12.1f}")

    record = {
        "bench": "walk",
        "what": "conditions._walk callers on variance_drift(d=0.2): wall s per call, walk nodes/s",
        "repeat": args.repeat,
        "environment": environment(),
        "calls": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {Path(args.out).resolve()}")


if __name__ == "__main__":
    main()
