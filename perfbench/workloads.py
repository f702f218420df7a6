"""The benchmark's workloads: configs generated from a seed, the timed calls
into mclt_lab, and the untimed checks of their outputs.

``rates-iid``     the criterion-5 rates config (fair-coin sums, n = 64..4096,
                  T1, threads=2): the two-point single-regime step, the path
                  that dominates the test suite's run time.
``rates-drift``   variance_drift (d=0.2, n = 64..512, p=1.5, four bounds,
                  threads=1): the multi-regime mask-and-scatter step and the
                  sum_inc / non-integer power accumulators; also the plain
                  single-threaded baseline.
``exact-verify``  the exact track: history walks, the path-tree and lattice
                  oracles, Lipschitz tensor enumeration, bundle-mode
                  simulation with padding and stopping, and the lemma suite.

An op is one grid-point record of a rates run, or one call of exact-verify.
An op fails if its call raises or a check of its output fails.  At
``DEFAULT_SEED`` every op's series.csv rows and manifest records must also
match the sha256 digests in ``digests.json``, taken when the benchmark was
defined.  A deliberate output format change regenerates them, from the
repository root, with ``PYTHONPATH=src python3 perfbench/workloads.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import gammaln, ndtr

from mclt_lab import cli, conditions, oracles
from mclt_lab.kernels import make_kernel

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")
DRIFT = 0.2
DKW_ALPHA = 1e-6  # d_hat vs exact D_n: fails by chance with probability 1e-6
ORACLE_SE = 5.0  # MC moment vs lattice oracle, in standard errors
LATTICE_TOL = 1e-13  # lattice recursion vs path enumeration
REL_TOL = 1e-12  # walked vs closed-form eps/delta: the two round differently


@dataclass(frozen=True)
class Outcome:
    op: str
    rows: tuple[str, ...]  # deterministic output, digested at DEFAULT_SEED
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Call:
    """One timed call into mclt_lab; ``check`` runs untimed on its result."""

    name: str
    ops: tuple[str, ...]
    run: Callable[[Path], Any]
    check: Callable[[Any, Path], list[Outcome]]


@dataclass(frozen=True)
class Workload:
    threads: int
    path_steps: int  # simulated path-steps per pass
    calls: tuple[Call, ...]


def config_seed(workload: str, seed: int, purpose: str) -> int:
    """The seed a generated config carries, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{purpose}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def digest(row: str) -> str:
    return hashlib.sha256(row.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# independent references


def exact_ks(support, probs) -> float:
    """sup |F - Phi| of a finite law, both one-sided limits at every atom."""
    order = np.argsort(support)
    x = np.asarray(support, dtype=float)[order]
    cdf = np.cumsum(np.asarray(probs, dtype=float)[order])
    phi = ndtr(x)
    left = np.concatenate([[0.0], cdf[:-1]])
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(left - phi))))


def rademacher_ks(n: int) -> float:
    """Exact D_n of a normalized sum of n fair signs (binomial atoms)."""
    k = np.arange(n + 1)
    log_pmf = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) - n * math.log(2.0)
    return exact_ks((2.0 * k - n) / math.sqrt(n), np.exp(log_pmf))


def max_of_bits_ks(n: int) -> float:
    """Exact D of the standardized maximum of n fair bits (two atoms)."""
    q = 0.5**n  # P(max = 0)
    sd = math.sqrt(q * (1.0 - q))
    return exact_ks([-(1.0 - q) / sd, q / sd], [q, 1.0 - q])


# ---------------------------------------------------------------------------
# reading CLI outputs


def _series_lines(out: Path) -> tuple[list[str], list[str]]:
    """(comment and header lines, data rows) of a series.csv."""
    lines = (out / "series.csv").read_text(encoding="utf-8").splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return head + body[:1], body[1:]


def _record_row(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _all_rows(manifest: dict, out: Path) -> tuple[str, ...]:
    head, body = _series_lines(out)
    return tuple(head + body + [_record_row(r) for r in manifest["records"]])


# ---------------------------------------------------------------------------
# rates workloads


def _check_iid(i: int, record: dict) -> list[str]:
    exact = rademacher_ks(record["n"])
    band = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * record["M"]))
    if abs(record["d_hat"] - exact) > band:
        return [f"d_hat {record['d_hat']} is {abs(record['d_hat'] - exact):.3g} from the exact "
                f"D_n {exact}, beyond the alpha={DKW_ALPHA} DKW half-width {band:.3g}"]
    return []


def _rates(name, seed, kernel, ns, m, p, bounds, threads, check_record) -> Workload:
    doc = {
        "kind": "rates",
        "kernel": kernel,
        "grid": [{"n": n, "M": m} for n in ns],
        "rho": 1.0,
        "p": p,
        "alpha": 0.05,
        "bounds": bounds,
        "seed": config_seed(name, seed, "rates"),
    }
    cfg = cli.parse_config(doc)
    labels = tuple(f"n={n}" for n in ns)

    def check(manifest, out):
        head, body = _series_lines(out)
        outcomes = []
        for i, (label, row, record) in enumerate(zip(labels, body, manifest["records"])):
            problems = [f"{key} is {record[key]!r}, not 'certified'"
                        for key in ("epsilon_mode", "delta_mode") if record[key] != "certified"]
            if not 0.0 <= record["d_hat"] <= 1.0:
                problems.append(f"d_hat {record['d_hat']} outside [0, 1]")
            problems += check_record(i, record)
            outcomes.append(Outcome(label, tuple(head + [row, _record_row(record)]),
                                    tuple(problems)))
        return outcomes

    call = Call("run_experiment", labels,
                lambda out: cli.run_experiment(cfg, out, threads=threads), check)
    return Workload(threads, sum(n * m for n in ns), (call,))


def rates_iid(seed: int, tiny: bool = False) -> Workload:
    ns = [16, 32, 64] if tiny else [2**e for e in range(6, 13)]
    # two full chunks of the default 2**16, so both pool threads work
    m = 2000 if tiny else 2**17
    return _rates("rates-iid", seed, {"name": "iid_rademacher", "params": {}},
                  ns, m, 1.0, ["T1"], 2, _check_iid)


def rates_drift(seed: int, tiny: bool = False) -> Workload:
    ns = [16, 32] if tiny else [64, 128, 256, 512]
    m = 2000 if tiny else 2**16
    p = 1.5
    oracle: dict[int, tuple[float, float]] = {}  # n -> (E|<X>_n-1|^p, its MC standard error)

    def check_record(i, record):
        if i > 0:
            return []
        n = record["n"]
        if n not in oracle:
            mean = oracles.variance_drift_mean_abs_deviation(DRIFT, n, p)
            second = oracles.variance_drift_mean_abs_deviation(DRIFT, n, 2.0 * p)
            oracle[n] = (mean, math.sqrt(max(second - mean * mean, 0.0) / record["M"]))
        mean, se = oracle[n]
        if abs(record["var_dev_p"] - mean) > ORACLE_SE * se:
            return [f"E|<X>_n-1|^p = {record['var_dev_p']} is more than {ORACLE_SE} se "
                    f"({se:.3g}) from the lattice oracle {mean}"]
        return []

    return _rates("rates-drift", seed, {"name": "variance_drift", "params": {"d": DRIFT}},
                  ns, m, p, ["T2", "C2", "HB", "EO"], 1, check_record)


# ---------------------------------------------------------------------------
# exact-verify


def _problems_if(condition: bool, message: str) -> tuple[str, ...]:
    return () if condition else (message,)


def _walk_call(kind: str, n: int) -> Call:
    kernel = make_kernel("variance_drift", n=n, d=DRIFT)
    label = f"{kind} n={n}"
    if kind == "minimal_epsilon":
        closed, field = kernel.certified_epsilon(1.0), "epsilon"
    else:
        closed, field = kernel.certified_delta(), "delta"

    def run(out):
        if kind == "minimal_epsilon":
            return conditions.minimal_epsilon(kernel, 1.0)
        return conditions.minimal_delta(kernel)

    def check(report, out):
        walked = getattr(report, field)
        problems = _problems_if(report.mode == "certified", f"mode is {report.mode!r}")
        problems += _problems_if(math.isclose(walked, closed, rel_tol=REL_TOL),
                                 f"walked {field} {walked} != certified {closed}")
        return [Outcome(label, (report.to_json(),), problems)]

    return Call(kind, (label,), run, check)


def _enumeration_call(n: int) -> Call:
    kernel = make_kernel("variance_drift", n=n, d=DRIFT)
    label = f"exact_terminal_moments n={n}"

    def check(result, out):
        lattice = oracles.variance_drift_mean_abs_deviation(DRIFT, n, 1.0)
        gap = abs(result.mean_var_dev_p - lattice)
        problems = _problems_if(gap <= LATTICE_TOL,
                                f"enumeration {result.mean_var_dev_p} and lattice {lattice} "
                                f"differ by {gap:.3g}")
        problems += _problems_if(result.leaves == 2**n, f"{result.leaves} leaves, not 2^{n}")
        return [Outcome(label, (json.dumps(asdict(result), sort_keys=True),), problems)]

    return Call("exact_terminal_moments", (label,),
                lambda out: oracles.exact_terminal_moments(kernel, 1.0), check)


def _lattice_call(n: int) -> Call:
    label = f"variance_drift_mean_abs_deviation n={n}"

    def check(value, out):
        # E|<X>_n - 1| = d E|2H/n - 1| lies in (0, d]
        problems = _problems_if(0.0 < value <= DRIFT, f"value {value} outside (0, {DRIFT}]")
        return [Outcome(label, (repr(value),), problems)]

    return Call("variance_drift_mean_abs_deviation", (label,),
                lambda out: oracles.variance_drift_mean_abs_deviation(DRIFT, n, 1.0), check)


def _cli_call(label: str, doc: dict, check_manifest) -> Call:
    cfg = cli.parse_config(doc)

    def check(manifest, out):
        return [Outcome(label, _all_rows(manifest, out), tuple(check_manifest(manifest)))]

    return Call(label, (label,), lambda out: cli.run_experiment(cfg, out), check)


def _check_rademacher_model(manifest) -> list[str]:
    problems = []
    for r in manifest["records"]:
        n = int(r["grid_point"])
        if not math.isclose(r["epsilon_n"], n**-0.5, rel_tol=REL_TOL) or r["delta_n"] != 0.0:
            problems.append(f"n={n}: (eps_n, delta_n) = ({r['epsilon_n']}, {r['delta_n']}), "
                            f"not (n^-1/2, 0)")
        exact = rademacher_ks(n)
        if abs(r["d_exact"] - exact) > REL_TOL:
            problems.append(f"n={n}: d_exact {r['d_exact']} != binomial D_n {exact}")
    return problems


def _check_max_model(manifest) -> list[str]:
    problems = []
    for r in manifest["records"]:
        n = int(r["grid_point"])
        exact = max_of_bits_ks(n)
        if abs(r["d_exact"] - exact) > REL_TOL:
            problems.append(f"n={n}: d_exact {r['d_exact']} != two-atom D {exact}")
    return problems


def _check_transforms(manifest) -> list[str]:
    r = manifest["records"][0]
    problems = []
    if r["max_unit_variance_error"] > 1e-9:
        problems.append(f"padded variance missed 1 by {r['max_unit_variance_error']}")
    if r["worst_ratio"] > 1.0 + 1e-12:
        problems.append(f"padded moment ratio {r['worst_ratio']} exceeds 1")
    return problems


def _check_lemmas(manifest) -> list[str]:
    return list(manifest["records"][0]["failures"])


def exact_verify(seed: int, tiny: bool = False) -> Workload:
    name = "exact-verify"
    eps_ns, delta_n, enum_n, lattice_n = ((12, 16), 10, 10, 16) if tiny else ((96, 128), 32, 16, 128)
    lip_grid = [{"n": n} for n in ((4, 6) if tiny else (16, 18, 20))]
    tc_n, tc_count = (16, 200) if tiny else (64, 20000)
    corpus = 30 if tiny else 1000

    def lipschitz(model: str) -> dict:
        return {
            "kind": "lipschitz",
            "model": {"name": model, "params": {}},
            "grid": lip_grid,
            "rho": 1.0,
            "bounds": ["T1"],
            "seed": config_seed(name, seed, model),
        }

    calls = (
        *(_walk_call("minimal_epsilon", n) for n in eps_ns),
        _walk_call("minimal_delta", delta_n),
        _enumeration_call(enum_n),
        _lattice_call(lattice_n),
        _cli_call("lipschitz rademacher_average", lipschitz("rademacher_average"),
                  _check_rademacher_model),
        _cli_call("lipschitz max_of_bits", lipschitz("max_of_bits"), _check_max_model),
        _cli_call("transforms-check", {
            "kind": "transforms-check",
            "kernel": {"name": "variance_drift", "params": {"d": DRIFT}},
            "grid": [{"n": tc_n}],
            "count": tc_count,
            "rho": 1.0,
            "seed": config_seed(name, seed, "transforms-check"),
        }, _check_transforms),
        _cli_call("lemma-suite", {
            "kind": "lemma-suite",
            "corpus_size": corpus,
            "seed": config_seed(name, seed, "lemma-suite"),
        }, _check_lemmas),
    )
    return Workload(1, tc_n * tc_count, calls)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "rates-iid": rates_iid,
    "rates-drift": rates_drift,
    "exact-verify": exact_verify,
}


# ---------------------------------------------------------------------------
# running one pass


@dataclass
class PassResult:
    attempted: int
    failed: int
    problems: list[str]
    rows: dict[str, tuple[str, ...]]


def score(call: Call, result: Any, error: BaseException | None, out: Path,
          digests: dict[str, list[str]] | None) -> PassResult:
    """Check one call's result (untimed) and count its ops."""
    if error is not None:
        message = f"{call.name}: {type(error).__name__}: {error}"
        return PassResult(len(call.ops), len(call.ops), [message], {})
    try:
        outcomes = call.check(result, out)
    except Exception as exc:  # a malformed result fails its ops, it does not stop the run
        message = f"{call.name}: check raised {type(exc).__name__}: {exc}"
        return PassResult(len(call.ops), len(call.ops), [message], {})
    problems: list[str] = []
    failed_ops = set()
    by_op = {o.op: o for o in outcomes}
    for op in call.ops:
        outcome = by_op.get(op)
        if outcome is None:
            problems.append(f"{op}: no output")
            failed_ops.add(op)
            continue
        found = list(outcome.problems)
        if digests is not None:
            expected = digests.get(op)
            actual = [digest(r) for r in outcome.rows]
            if expected is None:
                found.append("no stored digest")
            elif actual != expected:
                first = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
                             min(len(actual), len(expected)))
                found.append(f"output differs from the stored digest at row {first}")
        if found:
            failed_ops.add(op)
            problems += [f"{op}: {p}" for p in found]
    return PassResult(len(call.ops), len(failed_ops), problems,
                      {o.op: o.rows for o in outcomes})


def call_dir(root: Path, index: int, call: Call) -> Path:
    return root / f"{index}-{call.name.replace(' ', '_')}"


def collect_digests(workload: Workload, scratch: Path) -> dict[str, list[str]]:
    """Run every call once and digest its rows; fails if any check fails."""
    table: dict[str, list[str]] = {}
    for i, call in enumerate(workload.calls):
        out = call_dir(scratch, i, call)
        result = call.run(out)
        scored = score(call, result, None, out, None)
        if scored.failed:
            raise RuntimeError("; ".join(scored.problems))
        table.update({op: [digest(r) for r in rows] for op, rows in scored.rows.items()})
        shutil.rmtree(out, ignore_errors=True)
    return table


def main() -> int:
    scratch = Path(".perfbench_out") / "digests"
    table = {name: collect_digests(build(DEFAULT_SEED), scratch)
             for name, build in WORKLOADS.items()}
    shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
