"""Run one workload of the mclt-lab benchmark and print its result.

    python3 perfbench/run.py --workload rates-iid --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Each measurement is a fresh Python
process (``worker.py``) that imports ``mclt_lab`` from the checkout's
``src``.  With ``--trace 0`` the run also starts ``SETUP_PROBES`` processes
that only set the workload up, and ``setup_s`` is the median over them and
the measured process.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it list every metric with its unit, the
fail ratio with its base, and the environment; the same record is kept in
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

``--workload all`` runs every workload in turn; its last line maps each
workload to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150


def spawn(argv: list[str]) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv, "--spawned-at", repr(started)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
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
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "l2_bytes": l2,
        "git_sha": git_sha(),
    }


def steal_s() -> float | None:
    """Host steal time so far, summed over this machine's CPUs (from /proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = [] if trace else [spawn(common + ["--setup-only"])["setup_s"]
                               for _ in range(SETUP_PROBES)]
    steal0 = steal_s()
    child = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)])
    steal1 = steal_s()
    measured = child["metrics"]
    if not trace:
        setups.append(measured["setup_s"])
        measured["setup_s"] = median(setups)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"worker did not report {missing}")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env = {**machine(), **child["env"], "workload": name, "seed": seed, "trace": trace,
           "host_steal_s": None if steal0 is None or steal1 is None else steal1 - steal0}
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "pass_s": child["pass_s"], "call_s": child["call_s"],
              "setup_samples_s": setups, "problems": child["problems"]}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for metric, entry in result["metrics"].items():
        print(f"{name:13s} {metric:28s} {entry['value']:<14.6g} {entry['unit']}")
    print(f"{name:13s} {'fail_ratio':28s} {child['failed'] / child['attempted']:<14.6g} 1"
          f"  (ops={child['attempted']})")
    print(f"{name:13s} env {json.dumps(env, sort_keys=True)}")
    return result


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mclt_lab" / "__init__.py").is_file():
        print(f"run.py: no src/mclt_lab under {ROOT}; run from a checkout of mclt-lab",
              file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
