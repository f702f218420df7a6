"""In-memory span tracer for the traced benchmark run.

The tracer wraps public entry points of each ``mclt_lab`` module from the
outside; nothing in the package changes.  Modules import functions by name
(``cli.sample_terminal``, ``conditions.sample_paths``, ...), so a wrapper is
installed at every module attribute that is bound to the original function,
and a method is wrapped on every class that defines it in its own body.

Each span records its layer, name, start, end, parent span, thread and op
id.  Spans opened on the chunk pool threads of ``kernels._run_chunks`` have
no parent on their own thread; they are attached to the span that submitted
the work (``sample_terminal`` or ``sample_paths``).  Self time is a span's
duration minus the time its same-thread child spans cover; the part of a
span's own time during which its cross-thread children run is reported as
waiting instead.  Self times are therefore thread-seconds and their sum can
exceed wall time when the pool runs chunks in parallel.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from statistics import median

LAYERS = (
    "rng", "kernels", "conditions", "oracles", "lipschitz",
    "transforms", "distance", "bounds", "cli",
)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _result_size(fn, args, kwargs, result) -> int:
    return int(result.size)


def _path_steps(fn, args, kwargs, result) -> int:
    arguments = _bound(fn, args, kwargs)
    return int(arguments["count"]) * int(arguments["kernel"].n)


def _output_bytes(fn, args, kwargs, result) -> int:
    out = Path(_bound(fn, args, kwargs)["out_dir"])
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file())


def _one(fn, args, kwargs, result) -> int:
    return 1


# (module, attribute, counter, count function).  "Class.method" wraps a
# method; "*.method" wraps it on every class of the module that defines it.
SPANNED = (
    ("rng", "uniforms_at", "rng.draws", _result_size),
    ("rng", "uniforms", "rng.draws", _result_size),
    ("kernels", "sample_terminal", "kernels.path_steps", _path_steps),
    ("kernels", "sample_paths", "kernels.path_steps", _path_steps),
    ("kernels", "StepDistribution.sample_from_uniforms", "kernels.select_draws", _result_size),
    ("conditions", "minimal_epsilon", None, None),
    ("conditions", "minimal_delta", None, None),
    ("conditions", "verify_moment_lemmas", None, None),
    ("oracles", "exact_terminal_moments", "oracles.leaves", lambda f, a, k, r: r.leaves),
    ("oracles", "variance_drift_mean_abs_deviation", None, None),
    ("lipschitz", "exact_distribution", None, None),
    ("lipschitz", "variance_sandwich", None, None),
    ("lipschitz", "epsilon_delta_n", None, None),
    ("transforms", "pad_collection", "transforms.paths", lambda f, a, k, r: len(r)),
    ("transforms", "padding_ratio_report", None, None),
    ("transforms", "restrict_to_v", None, None),
    ("distance", "kolmogorov_distance", "distance.ks_samples", lambda f, a, k, r: r.count),
    ("distance", "exact_kolmogorov_discrete", "distance.exact_atoms",
     lambda f, a, k, r: len(_bound(f, a, k)["support"])),
    ("distance", "fit_rate", None, None),
    ("bounds", "evaluate_rate", "bounds.evals", _one),
    ("bounds", "compare_table", None, None),
    ("bounds", "verify_smoothing_lemma", "bounds.evals", _one),
    ("cli", "run_experiment", "cli.output_bytes", _output_bytes),
)

WALKS = frozenset({"minimal_epsilon", "minimal_delta"})


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "thread", "op", "t0", "t1", "counter", "n")

    def __init__(self, sid, parent, layer, name, thread, op, t0):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.thread = thread
        self.op = op
        self.t0 = t0
        self.t1 = t0
        self.counter = None
        self.n = 0


class Tracer:
    """Spans and counters collected while the wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.peaks: list[int] = []
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        # next() on itertools.count is a single C call, atomic under the GIL
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else getattr(self._local, "adopted", 0)
        span = Span(next(self._ids), parent, layer, name, threading.get_ident(), self.op,
                    time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def take(self) -> tuple[list[Span], dict[str, int], list[int]]:
        """Return and clear everything recorded since the last take."""
        out = (self.spans, self.counts, self.peaks)
        self.spans, self.counts, self.peaks = [], {}, []
        return out

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, layer, name, fn, counter, count):
        measure_memory = layer == "lipschitz"

        def wrapper(*args, **kwargs):
            started = measure_memory and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if started:
                    self.peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                span.counter = counter
                span.n = count(fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _law_from_state(self, fn):
        def wrapper(*args, **kwargs):
            if any(s.name in WALKS for s in self._stack()):
                self._count("conditions.states_visited", 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumeration(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            outcomes = 1
            for d in result.dims:
                outcomes *= d
            self._count("lipschitz.enumerations", 1)
            self._count("lipschitz.outcomes", outcomes)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _run_chunks(self, fn):
        def wrapper(chunk_fn, pieces, threads):
            stack = self._stack()
            parent = stack[-1].sid if stack else 0

            def chunk(*piece):
                self._local.adopted = parent
                span = self.open("kernels", "_simulate_chunk")
                try:
                    return chunk_fn(*piece)
                finally:
                    self.close(span)
                    self._local.adopted = 0

            return fn(chunk, pieces, threads)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Install every wrapper at every binding site in mclt_lab."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for module, attr, counter, count in SPANNED:
            self._wrap(module, attr,
                       lambda fn, m=module, a=attr, c=counter, k=count:
                       self._spanned(m, a.rsplit(".", 1)[-1], fn, c, k))
        self._wrap("kernels", "*.law_from_state", self._law_from_state)
        self._wrap("lipschitz", "_enumeration", self._enumeration)
        self._wrap("kernels", "_run_chunks", self._run_chunks)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, module: str, attr: str, make) -> None:
        home = sys.modules[f"mclt_lab.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            classes = (
                [c for c in vars(home).values()
                 if inspect.isclass(c) and c.__module__ == home.__name__ and method in vars(c)]
                if cls_name == "*" else [getattr(home, cls_name)]
            )
            for cls in classes:
                original = vars(cls)[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, make(original))
            return
        original = getattr(home, attr)
        wrapper = make(original)
        for owner in package_modules():
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, name, original))
                    setattr(owner, name, wrapper)


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "mclt_lab" or name.startswith("mclt_lab.")]


# ---------------------------------------------------------------------------
# analysis


def _union(intervals):
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _length(intervals) -> float:
    return sum(b - a for a, b in intervals)


def _overlap(xs, ys) -> float:
    """Length of the intersection of two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass(frozen=True)
class SpanTimes:
    self_s: float  # own time, not covered by same-thread children or waiting
    wait_s: float  # own time during which cross-thread children ran


def span_times(spans: list[Span]) -> dict[int, SpanTimes]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.sid, ())
        same = _union((c.t0, c.t1) for c in kids if c.thread == s.thread)
        cross = _union((max(c.t0, s.t0), min(c.t1, s.t1))
                       for c in kids if c.thread != s.thread and c.t1 > s.t0 and c.t0 < s.t1)
        wait = _length(cross) - _overlap(cross, same)
        out[s.sid] = SpanTimes(self_s=(s.t1 - s.t0) - _length(same) - wait, wait_s=wait)
    return out


def _per(value: float, base: float, scale: float = 1.0) -> float:
    return value / base * scale if base else 0.0


def layer_metrics(spans: list[Span], counts: dict[str, int], peaks: list[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The pass must be wrapped in one root span of layer ``bench``; the self
    time of ``bench`` spans is the benchmark's own code between calls.
    """
    times = span_times(spans)
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    wait_s = 0.0
    tally: dict[str, int] = dict(counts)
    wall: dict[str, float] = {}
    name_self: dict[str, float] = {}
    for s in spans:
        t = times[s.sid]
        self_s[s.layer] += t.self_s
        wait_s += t.wait_s
        wall[s.name] = wall.get(s.name, 0.0) + (s.t1 - s.t0)
        name_self[s.name] = name_self.get(s.name, 0.0) + t.self_s
        if s.counter is not None:
            tally[s.counter] = tally.get(s.counter, 0) + s.n

    def n(key: str) -> int:
        return tally.get(key, 0)

    roots = [s for s in spans if s.parent == 0]
    run_s = sum(s.t1 - s.t0 for s in roots)
    simulate_wall = wall.get("sample_terminal", 0.0) + wall.get("sample_paths", 0.0)
    walk_wall = sum(wall.get(name, 0.0) for name in WALKS)
    return {
        "rng.draws": n("rng.draws"),
        "rng.self_s": self_s["rng"],
        "rng.ns_per_draw": _per(self_s["rng"], n("rng.draws"), 1e9),
        "kernels.path_steps": n("kernels.path_steps"),
        "kernels.self_s": self_s["kernels"],
        "kernels.wait_s": wait_s,
        "kernels.ns_per_path_step": _per(simulate_wall, n("kernels.path_steps"), 1e9),
        "kernels.select_ns_per_draw": _per(name_self.get("sample_from_uniforms", 0.0),
                                           n("kernels.select_draws"), 1e9),
        "conditions.self_s": self_s["conditions"],
        "conditions.states_visited": n("conditions.states_visited"),
        "conditions.states_per_s": _per(n("conditions.states_visited"), walk_wall),
        "oracles.self_s": self_s["oracles"],
        "oracles.leaves": n("oracles.leaves"),
        "oracles.leaves_per_s": _per(n("oracles.leaves"), wall.get("exact_terminal_moments", 0.0)),
        "oracles.lattice_s": wall.get("variance_drift_mean_abs_deviation", 0.0),
        "lipschitz.enumerations": n("lipschitz.enumerations"),
        "lipschitz.outcomes": n("lipschitz.outcomes"),
        "lipschitz.self_s": self_s["lipschitz"],
        "lipschitz.peak_mb": max(peaks, default=0) / 2**20,
        "transforms.paths": n("transforms.paths"),
        "transforms.self_s": self_s["transforms"],
        "transforms.us_per_path": _per(self_s["transforms"], n("transforms.paths"), 1e6),
        "distance.ks_samples": n("distance.ks_samples"),
        "distance.ks_s_per_1e6": _per(name_self.get("kolmogorov_distance", 0.0),
                                      n("distance.ks_samples"), 1e6),
        "distance.exact_atoms": n("distance.exact_atoms"),
        "distance.self_s": self_s["distance"],
        "bounds.evals": n("bounds.evals"),
        "bounds.self_s": self_s["bounds"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": n("cli.output_bytes"),
        "trace.run_s": run_s,
        "trace.thread_s": sum(self_s.values()) + wait_s,
        "trace.unattributed_s": self_s["bench"],
        "trace.spans": len(spans),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
