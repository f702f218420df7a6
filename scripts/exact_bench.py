#!/usr/bin/env python3
"""Wall time of the exact track's three largest per-call costs.

Times ``oracles.variance_drift_mean_abs_deviation`` (d=0.2, p=1) at n=128
and 256, the Lipschitz enumeration ``lipschitz._enumeration`` of
``max_of_bits`` and ``rademacher_average`` at n=20 (its cache cleared
before each call), ``max_of_bits``' functional alone on one block of
2^14 outcome rows as the enumeration lays them out (the enumeration's
time also follows how many fresh pages its arrays fault in, which varies
from process to process), and ``kernels.sample_paths`` of ``variance_drift``
(d=0.2) for 20000 paths of 64 steps.  Each case gets one untimed warm-up
call first, and a sha256 of its output, so that two records show whether
their outputs agree bit for bit.  Writes every sample, the best and the
median of each, and the machine and library versions to a JSON file;
``--before`` embeds an earlier record of this script (say, at the parent
commit) and prints the ratio of the best times, which a shared host
disturbs less than the medians.
"""

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from engine_bench import environment

from mclt_lab import lipschitz, oracles
from mclt_lab.kernels import make_kernel, sample_paths

DRIFT = 0.2
SEED = 1


def lattice(n):
    return lambda: oracles.variance_drift_mean_abs_deviation(DRIFT, n, 1.0)


def enumeration(name, n):
    model = lipschitz.make_model(name, n=n)

    def call():
        lipschitz._enumeration.cache_clear()
        return lipschitz._enumeration(model)

    return call


def block_max(n):
    rows = min(2**n, lipschitz._BLOCK_ROWS)
    bits = rows.bit_length() - 1  # the trailing coordinates vary inside a block
    block = np.zeros((rows, n))
    block[:, n - bits:] = (np.arange(rows)[:, None] >> np.arange(bits - 1, -1, -1)) & 1
    f = lipschitz.make_model("max_of_bits", n=n).f
    return lambda: f(block)


def paths(count, n):
    kernel = make_kernel("variance_drift", n=n, d=DRIFT)
    return lambda: sample_paths(kernel, SEED, count)


def digest(result) -> str:
    """sha256 of a call's output: the float, the f tensor and Var f, or the
    three path arrays."""
    if isinstance(result, float):
        data = result.hex().encode()
    elif isinstance(result, np.ndarray):
        data = result.tobytes()
    elif isinstance(result, lipschitz._Enumeration):
        data = result.f_values.tobytes() + result.variance.hex().encode()
    else:
        data = b"".join(a.tobytes() for a in (result.increments, result.variances, result.sums))
    return hashlib.sha256(data).hexdigest()[:16]


def cases(tiny: bool):
    lattice_ns, lip_n, (count, n) = ((16, 32), 8, (200, 16)) if tiny else ((128, 256), 20, (20000, 64))
    for m in lattice_ns:
        yield f"lattice n={m}", lattice(m)
    for name in ("max_of_bits", "rademacher_average"):
        yield f"enumeration {name} n={lip_n}", enumeration(name, lip_n)
    yield f"max_of_bits f, one block n={lip_n}", block_max(lip_n)
    yield f"sample_paths variance_drift {count}x{n}", paths(count, n)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=7, help="timed calls per case")
    ap.add_argument("--tiny", action="store_true", help="small sizes, for a smoke run")
    ap.add_argument("--before", help="an earlier record of this script to embed and compare")
    ap.add_argument("--out", default="BENCH_exact.json")
    args = ap.parse_args()
    if args.repeat < 1:
        sys.exit("--repeat must be positive")
    before = json.loads(Path(args.before).read_text())["calls"] if args.before else {}

    results = {}
    print(f"{'call':<42} {'best s':>10} {'median s':>10} {'before':>10} {'ratio':>7}  output")
    for key, call in cases(args.tiny):
        out = digest(call())
        wall = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            call()
            wall.append(time.perf_counter() - t0)
        best, median = min(wall), statistics.median(wall)
        results[key] = {"wall_s": wall, "best_wall_s": best, "median_wall_s": median,
                        "output_sha256": out}
        line = f"{key:<42} {best:>10.4g} {median:>10.4g}"
        old = before.get(key)
        if old is not None:
            same = "same" if old["output_sha256"] == out else "DIFFERS"
            line += f" {old['best_wall_s']:>10.4g} {best / old['best_wall_s']:>7.3f}  {same}"
        print(line)

    record = {
        "bench": "exact",
        "what": "exact-track calls: lattice oracle, Lipschitz enumeration, sample_paths; wall s per call",
        "repeat": args.repeat,
        "environment": environment(),
        "calls": results,
    }
    if args.before:
        record["before"] = json.loads(Path(args.before).read_text())
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {Path(args.out).resolve()}")


if __name__ == "__main__":
    main()
