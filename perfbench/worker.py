"""One measured process of the mclt-lab benchmark, started by ``run.py``.

With ``--setup-only`` it sets the workload up, prints ``{"setup_s": ...}``
and exits.  Otherwise it sets up, runs passes of the workload's calls until
``--seconds`` have elapsed, checks every pass outside the timed region, and
prints one JSON line with the attempted and failed op counts and the
metrics.  ``setup_s`` counts from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process, to the first
timed call.

With ``--trace 1`` passes alternate untraced and traced; per-layer metrics
come from the traced passes and ``trace.overhead_s`` is the difference of
the two medians.  The spans of the traced passes are written to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl`` at the end.

``mclt_lab`` must be importable from the checkout's ``src`` directory
(``run.py`` puts it on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy
import scipy

import mclt_lab
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def run_pass(workload: workloads.Workload, scratch: Path, tracer: tracing.Tracer | None):
    """Run every call once; returns pass wall and CPU seconds, per-call wall
    seconds and the raw results."""
    results = []
    call_s = []
    root = tracer.open("bench", "pass") if tracer else None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for i, call in enumerate(workload.calls):
        out = workloads.call_dir(scratch, i, call)
        if tracer:
            tracer.op += 1
            span = tracer.open("bench", call.name)
        t0 = time.perf_counter()
        try:
            results.append((call.run(out), None))
        except Exception as exc:  # a failing call fails its ops; the pass goes on
            results.append((None, exc))
        finally:
            call_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(span)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer:
        tracer.close(root)
    return wall, cpu, call_s, results


def measure(workload: workloads.Workload, seconds: float, trace: bool, scratch: Path,
            digests: dict | None) -> dict:
    """Run passes for ``seconds`` (at least one; two with tracing) and score them."""
    tracer = tracing.Tracer() if trace else None
    plain: list[tuple[float, float]] = []
    plain_calls: list[list[float]] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans: list[tuple[int, list[tracing.Span]]] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    k = 0
    while True:
        use_trace = trace and k % 2 == 1
        pass_dir = scratch / f"pass{k}"
        if use_trace:
            tracer.install()
            try:
                wall, cpu, call_s, results = run_pass(workload, pass_dir, tracer)
            finally:
                tracer.uninstall()
            pass_spans, counts, peaks = tracer.take()
            traced.append(wall)
            layers.append(tracing.layer_metrics(pass_spans, counts, peaks))
            spans.append((k, pass_spans))
        else:
            wall, cpu, call_s, results = run_pass(workload, pass_dir, None)
            plain.append((wall, cpu))
            plain_calls.append(call_s)
        for i, (call, (result, error)) in enumerate(zip(workload.calls, results)):
            scored = workloads.score(call, result, error,
                                     workloads.call_dir(pass_dir, i, call), digests)
            attempted += scored.attempted
            failed += scored.failed
            problems += scored.problems
        shutil.rmtree(pass_dir, ignore_errors=True)
        k += 1
        if time.perf_counter() - start >= seconds and (traced or not trace):
            break
    run_s = median(w for w, _ in plain)
    if trace:
        metrics = tracing.median_metrics(layers)
        metrics["trace.overhead_s"] = median(traced) - run_s
    else:
        metrics = {
            "run_s": run_s,
            "cpu_s": median(c for _, c in plain),
            "path_steps_per_s": workload.path_steps / run_s,
        }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "pass_s": {"plain": [w for w, _ in plain], "traced": traced},
            "call_s": plain_calls,
            "metrics": metrics, "spans": spans}


def write_spans(path: Path, spans: list[tuple[int, list[tracing.Span]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, pass_spans in spans:
            for s in pass_spans:
                fh.write(json.dumps({
                    "pass": k, "id": s.sid, "parent": s.parent, "name": f"{s.layer}.{s.name}",
                    "start": s.t0, "end": s.t1, "op": s.op, "thread": s.thread,
                }) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(mclt_lab.__file__).resolve().parents:
        print(f"worker: mclt_lab was imported from {mclt_lab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    digests = None
    if args.seed == workloads.DEFAULT_SEED:
        stored = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
        digests = stored.get(args.workload, {})
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        result = measure(workload, args.seconds, bool(args.trace), scratch, digests)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    spans = result.pop("spans")
    if args.trace:
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", spans)
    else:
        result["metrics"]["setup_s"] = setup_s
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for problem in result["problems"]:
        print(f"worker: {args.workload}: {problem}", file=sys.stderr)
    result["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": workload.threads,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
