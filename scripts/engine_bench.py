#!/usr/bin/env python3
"""Nanoseconds per path-step of the streaming simulation engine.

Times ``kernels.sample_terminals`` on one thread for four kernel families
at n=256 (the fair single-regime step, the two-regime ``variance_drift``
step with its ``sum_inc`` and non-integer power accumulators, a three-atom
table and a sampled-mode law) and for two rates grids in one step loop
(fair-coin sums at n = 64 .. 4096, and ``variance_drift`` at n = 64 .. 512
with its ``sum_inc`` accumulator at p = 1.5; a grid's path-steps are its sum
of n), and writes every sample, the best of each, and the machine and library
versions to a JSON file.  Each case gets one untimed warm-up call first.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from mclt_lab import kernels

ROOT = Path(__file__).resolve().parent.parent
N = 256  # path length
SEED = 1


def cases():
    """(name, label, kernels, sample_terminals keywords) for each timed case."""
    for name, kernel, options in (
        ("iid_rademacher", kernels.make_kernel("iid_rademacher", n=N), {}),
        ("variance_drift", kernels.make_kernel("variance_drift", n=N, d=0.2),
         {"p": 1.5, "with_sum_inc": True}),
        # jump probability q = 1 / (n b^2) with b = 0.1: unit total variance
        ("three_point", kernels.make_kernel("three_point", n=N, b=0.1, q=1.0 / (N * 0.01)), {}),
        ("iid_gaussian", kernels.make_kernel("iid_gaussian", n=N), {}),
    ):
        yield name, kernel.label, (kernel,), options
    grid = [kernels.make_kernel("iid_rademacher", n=2**e) for e in range(6, 13)]
    yield "rates_iid_grid", "iid_rademacher(n=64..4096)", grid, {}
    grid = [kernels.make_kernel("variance_drift", n=2**e, d=0.2) for e in range(6, 10)]
    yield ("rates_drift_grid", "variance_drift(d=0.2, n=64..512)", grid,
           {"p": 1.5, "with_sum_inc": True})


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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=1 << 16, help="paths per call")
    ap.add_argument("--repeat", type=int, default=3, help="timed calls per kernel")
    ap.add_argument("--out", default="BENCH_engine.json")
    args = ap.parse_args()
    if args.paths < 1 or args.repeat < 1:
        sys.exit("--paths and --repeat must be positive")

    results = {}
    print(f"{'kernel':<16} {'best wall':>10} {'best cpu':>10}  (ns per path-step)")
    for name, label, grid, options in cases():
        steps = sum(kernel.n for kernel in grid) * args.paths
        kernels.sample_terminals(grid, SEED, min(args.paths, 1024), threads=1, **options)
        wall, cpu = [], []
        for _ in range(args.repeat):
            w0, c0 = time.perf_counter_ns(), time.process_time_ns()
            kernels.sample_terminals(grid, SEED, args.paths, threads=1, **options)
            wall.append((time.perf_counter_ns() - w0) / steps)
            cpu.append((time.process_time_ns() - c0) / steps)
        results[name] = {
            "label": label,
            "path_steps_per_path": steps // args.paths,
            "options": options,
            "wall_ns_per_path_step": wall,
            "cpu_ns_per_path_step": cpu,
            "best_wall_ns": min(wall),
            "best_cpu_ns": min(cpu),
        }
        print(f"{name:<16} {min(wall):>10.2f} {min(cpu):>10.2f}")

    record = {
        "bench": "engine",
        "what": "sample_terminals, one thread, ns per path-step",
        "n": N,
        "paths": args.paths,
        "repeat": args.repeat,
        "seed": SEED,
        "environment": environment(),
        "kernels": results,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {Path(args.out).resolve()}")


if __name__ == "__main__":
    main()
