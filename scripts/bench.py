#!/usr/bin/env python3
"""Wall and CPU seconds of the simulation engine, the history walks and the
exact track, one suite per run: ``python3 scripts/bench.py <suite>``.

- ``engine``: ``kernels.sample_terminals`` on one thread, 2^16 paths per
  call (``--tiny``: 4096), for four kernel families at n=256 (the fair
  single-regime step, the two-regime ``variance_drift`` step with its
  ``sum_inc`` and non-integer power accumulators, a three-atom table and a
  sampled-mode law) and for two rates grids in one step loop (fair-coin
  sums at n = 64 .. 4096, and ``variance_drift`` at n = 64 .. 512 with its
  ``sum_inc`` accumulator at p = 1.5).
- ``walk``: the three callers of ``conditions._walk`` on ``variance_drift``
  (d=0.2): ``minimal_epsilon`` (rho=1) at n = 96, 128, 256,
  ``minimal_delta`` at n = 32, 64 and ``oracles.exact_terminal_moments``
  (p=1) at n=16 (``--tiny``: 12 and 16, 8, 8).
- ``exact``: ``oracles.variance_drift_mean_abs_deviation`` (d=0.2, p=1) at
  n = 128, 256; the Lipschitz enumeration ``lipschitz._enumeration`` of
  ``max_of_bits`` and ``rademacher_average`` at n=20 (its cache cleared
  before each call), and ``max_of_bits``' functional alone on one block of
  2^14 outcome rows as the enumeration lays them out (the enumeration's
  time also follows how many fresh pages its arrays fault in, which varies
  from process to process); ``kernels.sample_paths`` of ``variance_drift``
  (d=0.2) for 20000 paths of 64 steps and a transforms-check run on the
  same paths; a lemma-suite run over a corpus of 1000 (both
  ``cli.run_experiment``, the written files hashed); and the exact distance
  of the 2000-law stack of X and X + Y of that corpus' joint laws, padded
  as the smoothing check pads it (``--tiny``: n = 16, 32; n=8; 200 paths of
  16 steps; corpus 30, 60 laws).

Every case runs one loop: an untimed warm-up call, traced by
``tracemalloc`` for the peak it allocates and hashed (sha256) for its
output, so that two records show whether their outputs agree bit for bit,
then ``--repeat`` timed calls.  Each case records its wall and CPU samples
with their best and median, the traced peak, the output digest and
``work``, the case's counts per call: path-steps for engine cases, walk
nodes (the sum of the level sizes) and the widest level for walk cases,
none for exact cases.  The record also holds the machine and library
versions.  ``--before`` embeds an earlier record and prints the ratio of
the best wall times, which a shared host disturbs less than the medians.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from mclt_lab import bounds, cli, conditions, corpus, kernels, lipschitz, oracles
from mclt_lab.distance import exact_kolmogorov_discrete
from mclt_lab.kernels import make_kernel

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
DRIFT = 0.2


# -- engine ---------------------------------------------------------------------


def engine_cases(tiny: bool, out_dir):
    n, count = 256, 4096 if tiny else 1 << 16
    drift = {"p": 1.5, "with_sum_inc": True}

    def case(name, grid, **options):
        return (name, lambda: kernels.sample_terminals(grid, SEED, count, threads=1, **options),
                {"path_steps": sum(kernel.n for kernel in grid) * count})

    yield case("iid_rademacher", [make_kernel("iid_rademacher", n=n)])
    yield case("variance_drift", [make_kernel("variance_drift", n=n, d=DRIFT)], **drift)
    # jump probability q = 1 / (n b^2) with b = 0.1: unit total variance
    yield case("three_point", [make_kernel("three_point", n=n, b=0.1, q=1.0 / (n * 0.01))])
    yield case("iid_gaussian", [make_kernel("iid_gaussian", n=n)])
    yield case("rates_iid_grid", [make_kernel("iid_rademacher", n=2**e) for e in range(6, 13)])
    yield case("rates_drift_grid",
               [make_kernel("variance_drift", n=2**e, d=DRIFT) for e in range(6, 10)], **drift)


# -- walk -----------------------------------------------------------------------

WALKS = {  # full sizes, --tiny sizes, call
    "minimal_epsilon": ((96, 128, 256), (12, 16), lambda kernel: conditions.minimal_epsilon(kernel, 1.0)),
    "minimal_delta": ((32, 64), (8,), conditions.minimal_delta),
    "exact_terminal_moments": ((16,), (8,), lambda kernel: oracles.exact_terminal_moments(kernel, 1.0)),
}


def level_sizes(call) -> list[int]:
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
        call()
    finally:
        conditions._classes = classes
    return sizes


def walk_cases(tiny: bool, out_dir):
    for name, (full, small, walk) in WALKS.items():
        for n in small if tiny else full:
            call = functools.partial(walk, make_kernel("variance_drift", n=n, d=DRIFT))
            sizes = level_sizes(call)
            yield f"{name} n={n}", call, {"walk_nodes": sum(sizes), "widest_level": max(sizes)}


# -- exact ----------------------------------------------------------------------


def enumeration(name, n):
    model = lipschitz.make_model(name, n=n)

    def call():
        lipschitz._enumeration.cache_clear()
        result = lipschitz._enumeration(model)
        return result.f_values, result.variance

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

    def call():
        result = kernels.sample_paths(kernel, SEED, count)
        return result.increments, result.variances, result.sums

    return call


def experiment(doc, out_dir):
    cfg = cli.parse_config({**doc, "seed": SEED})

    def call():
        out = Path(out_dir) / doc["kind"]
        cli.run_experiment(cfg, out)
        return b"".join((out / name).read_bytes() for name in ("series.csv", "manifest.json"))

    return call


def joint_stack(size):
    support, probs = bounds._stacked_laws(corpus.random_joint_laws(SEED, size))
    return lambda: exact_kolmogorov_discrete(support, probs)


def exact_cases(tiny: bool, out_dir):
    lattice_ns, lip_n, (count, n) = ((16, 32), 8, (200, 16)) if tiny else ((128, 256), 20, (20000, 64))
    size = 30 if tiny else 1000
    for m in lattice_ns:
        yield f"lattice n={m}", functools.partial(
            oracles.variance_drift_mean_abs_deviation, DRIFT, m, 1.0), {}
    for name in ("max_of_bits", "rademacher_average"):
        yield f"enumeration {name} n={lip_n}", enumeration(name, lip_n), {}
    yield f"max_of_bits f, one block n={lip_n}", block_max(lip_n), {}
    yield f"sample_paths variance_drift {count}x{n}", paths(count, n), {}
    yield f"transforms-check {count}x{n}", experiment(
        {"kind": "transforms-check", "grid": [{"n": n}], "count": count, "rho": 1.0,
         "kernel": {"name": "variance_drift", "params": {"d": DRIFT}}}, out_dir), {}
    yield f"lemma-suite, corpus {size}", experiment(
        {"kind": "lemma-suite", "corpus_size": size}, out_dir), {}
    yield f"exact distance, {2 * size}-law joint stack", joint_stack(size), {}


SUITES = {  # cases, default --repeat, what a record holds
    "engine": (engine_cases, 3, "kernels.sample_terminals, one thread"),
    "walk": (walk_cases, 5, "conditions._walk callers on variance_drift(d=0.2)"),
    "exact": (exact_cases, 7, "exact-track calls: lattice oracle, Lipschitz enumeration, "
              "sample_paths, transforms-check, lemma suite, stacked exact distance"),
}


# -- harness --------------------------------------------------------------------


def raw(output) -> bytes:
    """The bytes of a call's output: written files, float bits, array
    buffers, and sequences and dataclasses field by field."""
    if isinstance(output, bytes):
        return output
    if isinstance(output, float):
        return output.hex().encode()
    if isinstance(output, np.ndarray):
        return output.tobytes()
    if dataclasses.is_dataclass(output):
        output = [getattr(output, field.name) for field in dataclasses.fields(output)]
    if isinstance(output, (list, tuple)):
        return b"".join(map(raw, output))
    return repr(output).encode()


def measure(call, repeat: int, work: dict) -> dict:
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(raw(result)).hexdigest()[:16]
    del result
    wall, cpu = [], []
    for _ in range(repeat):
        w0, c0 = time.perf_counter(), time.process_time()
        call()
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    return {"wall_s": wall, "cpu_s": cpu,
            "best_wall_s": min(wall), "median_wall_s": statistics.median(wall),
            "best_cpu_s": min(cpu), "median_cpu_s": statistics.median(cpu),
            "traced_peak_bytes": peak, "output_sha256": digest, "work": work}


def git(*argv) -> str | None:
    """Standard output of a git command in this checkout, or None."""
    try:
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l2 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                size = (index / "size").read_text().strip()  # e.g. "2048K"
                l2 = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            pass
    sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "l2_bytes": l2,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        # the timed code differs from that commit
        "src_modified": None if status is None else bool(status),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("--repeat", type=int,
                    help="timed calls per case (default: engine 3, walk 5, exact 7)")
    ap.add_argument("--tiny", action="store_true", help="small sizes, for a smoke run")
    ap.add_argument("--before", help="an earlier record to embed and compare")
    ap.add_argument("--out", help="the record to write (default: BENCH_<suite>.json)")
    args = ap.parse_args(argv)
    cases, repeat, what = SUITES[args.suite]
    repeat = repeat if args.repeat is None else args.repeat
    if repeat < 1:
        sys.exit("--repeat must be positive")
    before = json.loads(Path(args.before).read_text()) if args.before else None
    if before is not None and "cases" not in before:
        sys.exit(f"{args.before} holds no cases of this script")

    results = {}
    print(f"{'case':<42} {'best s':>10} {'median s':>10} {'cpu s':>10} {'peak MB':>8}",
          f"{'before':>10} {'ratio':>7} {'peak MB':>8}  output" if before else "", " work")
    with tempfile.TemporaryDirectory() as out_dir:
        for name, call, work in cases(args.tiny, out_dir):
            r = results[name] = measure(call, repeat, work)
            line = (f"{name:<42} {r['best_wall_s']:>10.4g} {r['median_wall_s']:>10.4g} "
                    f"{r['best_cpu_s']:>10.4g} {r['traced_peak_bytes'] / 1e6:>8.2f}")
            old = before and before["cases"].get(name)
            if old:
                same = "same" if old["output_sha256"] == r["output_sha256"] else "DIFFERS"
                line += (f" {old['best_wall_s']:>10.4g} {r['best_wall_s'] / old['best_wall_s']:>7.3f}"
                         f" {old['traced_peak_bytes'] / 1e6:>8.2f}  {same}")
            if work:  # and the best wall time per unit of the first count
                line += ("  " + " ".join(f"{k}={v}" for k, v in work.items())
                         + f" ({r['best_wall_s'] / next(iter(work.values())) * 1e9:.3g} ns each)")
            print(line)

    record = {"suite": args.suite, "what": what, "tiny": args.tiny, "repeat": repeat,
              "seed": SEED, "environment": environment(), "cases": results}
    if before:
        record["before"] = before
    out = Path(args.out or f"BENCH_{args.suite}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {out.resolve()}")


if __name__ == "__main__":
    main()
