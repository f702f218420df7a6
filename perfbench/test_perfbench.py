"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracing
import worker
import workloads
from mclt_lab import kernels

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(name, tmp_path, trace=False, digests=None, seed=5):
    workload = workloads.WORKLOADS[name](seed, tiny=True)
    return worker.measure(workload, 0.0, trace, tmp_path, digests)


def test_workload_names_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, tmp_path):
    plain = measure(name, tmp_path)
    assert plain["attempted"] >= 1 and plain["failed"] == 0, plain["problems"]
    # setup_s and peak_rss_mb are added by worker.main around measure()
    expected = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s", "peak_rss_mb"}
    assert set(plain["metrics"]) == expected
    assert all(v > 0 for v in plain["metrics"].values())

    traced = measure(name, tmp_path, trace=True)
    assert traced["failed"] == 0, traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_units_reach_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "rates-drift",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert "fail_ratio" in proc.stdout


@pytest.mark.parametrize("name", ["rates-drift", "exact-verify"])
def test_self_times_account_for_the_traced_pass(name, tmp_path):
    metrics = measure(name, tmp_path, trace=True)["metrics"]
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    total = layer_self + metrics["kernels.wait_s"] + metrics["trace.unattributed_s"]
    # single-threaded: the spans partition the traced pass exactly
    assert total == pytest.approx(metrics["trace.thread_s"], abs=1e-9)
    assert metrics["trace.thread_s"] == pytest.approx(metrics["trace.run_s"], abs=1e-9)
    assert metrics["trace.unattributed_s"] < 0.1 * metrics["trace.run_s"]


def test_exact_verify_layers_do_work(tmp_path):
    metrics = measure("exact-verify", tmp_path, trace=True)["metrics"]
    for key in ("conditions.states_visited", "oracles.leaves", "lipschitz.enumerations",
                "lipschitz.outcomes", "transforms.paths", "distance.exact_atoms",
                "bounds.evals", "rng.draws", "kernels.path_steps"):
        assert metrics[key] > 0, key
    assert metrics["oracles.leaves"] == 2**10
    assert metrics["lipschitz.peak_mb"] > 0


def test_wrappers_reach_every_binding_site():
    tracer = tracing.Tracer()
    originals = {}
    for module, attr, _, _ in tracing.SPANNED:
        if "." not in attr:
            originals[attr] = getattr(sys.modules[f"mclt_lab.{module}"], attr)
    classes = (kernels._IidKernel, kernels.TableKernel, kernels.VarianceDriftKernel)
    methods = {cls: vars(cls)["law_from_state"] for cls in classes}
    tracer.install()
    try:
        for module in tracing.package_modules():
            for name, value in vars(module).items():
                assert all(value is not fn for fn in originals.values()), (module, name)
        assert sys.modules["mclt_lab.cli"].sample_terminal.__wrapped__ is originals["sample_terminal"]
        assert sys.modules["mclt_lab.conditions"].sample_paths.__wrapped__ is originals["sample_paths"]
        for cls, method in methods.items():
            assert vars(cls)["law_from_state"].__wrapped__ is method
    finally:
        tracer.uninstall()
    assert sys.modules["mclt_lab.cli"].minimal_epsilon is originals["minimal_epsilon"]
    assert all(vars(cls)["law_from_state"] is m for cls, m in methods.items())


def test_pool_spans_attach_to_the_submitting_call():
    tracer = tracing.Tracer()
    kernel = kernels.make_kernel("iid_rademacher", n=8)
    tracer.install()
    try:
        root = tracer.open("bench", "pass")
        kernels.sample_terminal(kernel, 1, 4000, chunk_size=1000, threads=2)
        tracer.close(root)
    finally:
        tracer.uninstall()
    spans, counts, peaks = tracer.take()
    submit = next(s for s in spans if s.name == "sample_terminal")
    chunks = [s for s in spans if s.name == "_simulate_chunk"]
    assert len(chunks) == 4
    assert all(c.parent == submit.sid and c.thread != submit.thread for c in chunks)
    metrics = tracing.layer_metrics(spans, counts, peaks)
    assert metrics["kernels.path_steps"] == metrics["rng.draws"] == 4000 * 8
    assert metrics["kernels.wait_s"] > 0


def _digests_of(name, tmp_path):
    return workloads.collect_digests(workloads.WORKLOADS[name](5, tiny=True), tmp_path / "d")


def test_stored_digests_pass_and_an_altered_one_fails(tmp_path):
    digests = _digests_of("rates-iid", tmp_path)
    assert measure("rates-iid", tmp_path, digests=digests)["failed"] == 0

    altered = {op: list(rows) for op, rows in digests.items()}
    op = sorted(altered)[0]
    altered[op][-1] = "0" * 16
    result = measure("rates-iid", tmp_path, digests=altered)
    assert result["failed"] / result["attempted"] > 0
    assert any("stored digest" in p for p in result["problems"])


def test_the_stored_digest_table_covers_every_op():
    stored = json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
    for name, build in workloads.WORKLOADS.items():
        ops = {op for call in build(workloads.DEFAULT_SEED).calls for op in call.ops}
        assert set(stored[name]) == ops


def test_an_altered_oracle_fails_the_drift_check(tmp_path, monkeypatch):
    true_oracle = workloads.oracles.variance_drift_mean_abs_deviation
    monkeypatch.setattr(workloads.oracles, "variance_drift_mean_abs_deviation",
                        lambda d, n, p=1.0: true_oracle(d, n, p) + 0.05)
    result = measure("rates-drift", tmp_path)
    assert result["failed"] / result["attempted"] > 0
    assert any("lattice oracle" in p for p in result["problems"])


def test_an_altered_reference_fails_exact_verify(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "rademacher_ks", lambda n: 0.5)
    result = measure("exact-verify", tmp_path)
    assert result["failed"] == 1
    assert any("binomial D_n" in p for p in result["problems"])


def test_a_raising_call_fails_its_ops(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise workloads.cli.InvariantViolation("forced")

    monkeypatch.setattr(workloads.cli, "run_experiment", boom)
    result = measure("rates-drift", tmp_path)
    assert result["failed"] == result["attempted"] == 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rates-iid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
