"""The bench harness: one record schema for every suite, and its outputs
reproducible."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("engine", "walk", "exact")


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_every_suite_writes_one_schema_and_reproducible_digests(tmp_path):
    bench = _load_bench()
    runs = []
    for run in range(2):
        records = {}
        for suite in SUITES:
            out = tmp_path / f"{suite}-{run}.json"
            bench.main([suite, "--tiny", "--repeat", "1", "--out", str(out)])
            records[suite] = json.loads(out.read_text())
        runs.append(records)
    first, second = runs
    keys = {tuple(sorted(case)) for record in first.values() for case in record["cases"].values()}
    assert len(keys) == 1, keys
    assert {suite: {tuple(case["work"]) for case in first[suite]["cases"].values()}
            for suite in SUITES} == {"engine": {("path_steps",)},
                                     "walk": {("walk_nodes", "widest_level")},
                                     "exact": {()}}
    for suite in SUITES:
        assert first[suite]["tiny"] and first[suite]["repeat"] == 1
        for name, case in first[suite]["cases"].items():
            assert len(case["wall_s"]) == len(case["cpu_s"]) == 1
            assert case["output_sha256"] == second[suite]["cases"][name]["output_sha256"], name
            assert case["work"] == second[suite]["cases"][name]["work"], name


def test_committed_records_hold_the_full_size_cases():
    bench = _load_bench()
    for suite, (cases, repeat, _) in bench.SUITES.items():
        record = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
        assert (record["suite"], record["tiny"], record["repeat"]) == (suite, False, repeat)
        assert ({name: case["work"] for name, case in record["cases"].items()}
                == {name: work for name, _, work in cases(False, None)})
