#!/usr/bin/env python3
"""Wall time of the exact track's largest per-call costs.

Times ``oracles.variance_drift_mean_abs_deviation`` (d=0.2, p=1) at n=128
and 256, the Lipschitz enumeration ``lipschitz._enumeration`` of
``max_of_bits`` and ``rademacher_average`` at n=20 (its cache cleared
before each call), ``max_of_bits``' functional alone on one block of
2^14 outcome rows as the enumeration lays them out (the enumeration's
time also follows how many fresh pages its arrays fault in, which varies
from process to process), ``kernels.sample_paths`` of ``variance_drift``
(d=0.2) for 20000 paths of 64 steps and a transforms-check run on the same
paths, a lemma-suite run over a corpus of 1000 (both ``cli.run_experiment``,
output bytes hashed), and the exact distance of the 2000-law stack of X and
X + Y of that corpus' joint laws, padded as the smoothing check pads it
(``--tiny``: 200 paths of 16 steps, corpus 30, 60 laws).  Each case gets
one untimed warm-up call first, traced by ``tracemalloc`` for the peak it
allocates, and a sha256 of its output, so that two records show whether
their outputs agree bit for bit.  Writes every sample, the best and the
median of each, the traced peak, and the machine and library versions to a
JSON file; ``--before`` embeds an earlier record of this script (say, at
the parent commit) and prints the ratio of the best times, which a shared
host disturbs less than the medians.
"""

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from engine_bench import environment

from mclt_lab import bounds, cli, corpus, lipschitz, oracles
from mclt_lab.distance import exact_kolmogorov_discrete
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


def experiment(doc, out_dir):
    cfg = cli.parse_config({**doc, "seed": SEED})

    def call():
        out = Path(out_dir) / doc["kind"]
        cli.run_experiment(cfg, out)
        return b"".join((out / name).read_bytes() for name in ("series.csv", "manifest.json"))

    return call


def transforms_check(count, n, out_dir):
    return experiment({"kind": "transforms-check", "grid": [{"n": n}], "count": count, "rho": 1.0,
                       "kernel": {"name": "variance_drift", "params": {"d": DRIFT}}}, out_dir)


def lemma_suite(size, out_dir):
    return experiment({"kind": "lemma-suite", "corpus_size": size}, out_dir)


def joint_stack(size):
    support, probs = bounds._stacked_laws(corpus.random_joint_laws(SEED, size))
    return lambda: exact_kolmogorov_discrete(support, probs)


def digest(result) -> str:
    """sha256 of a call's output: the float, the written files, the array,
    the f tensor and Var f, or the three path arrays."""
    if isinstance(result, float):
        data = result.hex().encode()
    elif isinstance(result, bytes):
        data = result
    elif isinstance(result, np.ndarray):
        data = result.tobytes()
    elif isinstance(result, lipschitz._Enumeration):
        data = result.f_values.tobytes() + result.variance.hex().encode()
    else:
        data = b"".join(a.tobytes() for a in (result.increments, result.variances, result.sums))
    return hashlib.sha256(data).hexdigest()[:16]


def cases(tiny: bool, out_dir):
    lattice_ns, lip_n, (count, n) = ((16, 32), 8, (200, 16)) if tiny else ((128, 256), 20, (20000, 64))
    size = 30 if tiny else 1000
    for m in lattice_ns:
        yield f"lattice n={m}", lattice(m)
    for name in ("max_of_bits", "rademacher_average"):
        yield f"enumeration {name} n={lip_n}", enumeration(name, lip_n)
    yield f"max_of_bits f, one block n={lip_n}", block_max(lip_n)
    yield f"sample_paths variance_drift {count}x{n}", paths(count, n)
    yield f"transforms-check {count}x{n}", transforms_check(count, n, out_dir)
    yield f"lemma-suite, corpus {size}", lemma_suite(size, out_dir)
    yield f"exact distance, {2 * size}-law joint stack", joint_stack(size)


def traced(call):
    """The call's result and the ``tracemalloc`` peak, in bytes, of what it
    allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    print(f"{'call':<42} {'best s':>10} {'median s':>10} {'peak MB':>8} {'before':>10} "
          f"{'ratio':>7} {'peak MB':>8}  output")
    scratch = tempfile.TemporaryDirectory()
    for key, call in cases(args.tiny, scratch.name):
        result, peak = traced(call)
        out = digest(result)
        del result
        wall = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            call()
            wall.append(time.perf_counter() - t0)
        best, median = min(wall), statistics.median(wall)
        results[key] = {"wall_s": wall, "best_wall_s": best, "median_wall_s": median,
                        "traced_peak_bytes": peak, "output_sha256": out}
        line = f"{key:<42} {best:>10.4g} {median:>10.4g} {peak / 1e6:>8.2f}"
        old = before.get(key)
        if old is not None:
            same = "same" if old["output_sha256"] == out else "DIFFERS"
            old_peak = old.get("traced_peak_bytes")  # records before the peak have none
            line += (f" {old['best_wall_s']:>10.4g} {best / old['best_wall_s']:>7.3f} "
                     f"{'-' if old_peak is None else f'{old_peak / 1e6:.2f}':>8}  {same}")
        print(line)
    scratch.cleanup()

    record = {
        "bench": "exact",
        "what": ("exact-track calls: lattice oracle, Lipschitz enumeration, sample_paths, "
                 "transforms-check, lemma suite, stacked exact distance; wall s per call "
                 "and the traced peak of the warm-up call"),
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
