"""End-to-end harness behavior: configs, outputs, exit codes, reproducibility."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from mclt_lab import cli, conditions, corpus

RATES_CONFIG = {
    "kind": "rates",
    "kernel": {"name": "iid_rademacher", "params": {}},
    "grid": [
        {"n": 16, "M": 2000},
        {"n": 32, "M": 2000},
        {"n": 64, "M": 2000},
    ],
    "rho": 1.0,
    "p": 1.0,
    "alpha": 0.05,
    "bounds": ["T1", "C2"],
    "seed": 9,
}


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_rates_run_outputs(tmp_path):
    cfg = write_config(tmp_path, RATES_CONFIG)
    out = tmp_path / "out"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 0
    series = (out / "series.csv").read_text()
    lines = series.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "grid_point,M,d_hat,dkw_lo,dkw_hi,epsilon,delta,T1,C2"
    assert len(lines) == 5  # comment + header + 3 grid rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["log_convention"] == "natural"
    assert manifest["config"]["seed"] == 9
    assert len(manifest["records"]) == 3
    assert manifest["fit"] is not None
    assert manifest["records"][0]["epsilon_mode"] == "certified"


def test_rates_reproducibility_and_thread_invariance(tmp_path):
    cfg = write_config(tmp_path, RATES_CONFIG)
    outs = []
    for name, threads in (("a", None), ("b", None), ("c", 2)):
        out = tmp_path / name
        argv = ["rates", "--config", str(cfg), "--out", str(out)]
        if threads:
            argv += ["--threads", str(threads)]
        assert cli.main(argv) == 0
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]  # identical reruns byte for byte
    assert outs[0] == outs[2]  # worker count does not change results


def test_rates_groups_keep_grid_order_and_bytes(tmp_path, monkeypatch):
    # runs of equal M share a step loop; a cap of one point per group gives
    # the bytes of points simulated one at a time
    grid = [{"n": 16, "M": 2000}, {"n": 8, "M": 2000}, {"n": 32, "M": 1000},
            {"n": 64, "M": 2000}, {"n": 4, "M": 2000}, {"n": 12, "M": 2000}]
    doc = dict(RATES_CONFIG, grid=grid, bounds=["T1", "HB"])
    groups = cli._rate_groups(cli.parse_config(doc).points)
    assert [[point[0]["n"] for point in group] for group in groups] == [[16, 8], [32], [64, 4, 12]]
    cfg = write_config(tmp_path, doc)
    outputs = []
    for name, cap in (("grouped", cli.GROUP_CELLS), ("capped", 4000), ("alone", 1999)):
        monkeypatch.setattr(cli, "GROUP_CELLS", cap)
        out = tmp_path / name
        assert cli.main(["rates", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 0
        outputs.append([(out / f).read_bytes() for f in ("series.csv", "manifest.json")])
    assert [len(g) for g in cli._rate_groups(cli.parse_config(doc).points)] == [1] * 6
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("kernel", [
    {"name": "three_point", "params": {"b": 10**400, "q": 0.5}},  # an int past float range
    {"name": "three_point", "params": {"b": 1e308, "q": 0.5}},  # E xi^2 overflows
    {"name": "two_point", "params": {"a": 1e308}},
    {"name": "table", "params": {"steps": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
                                           {"values": [-1e200, 1e200], "probs": [0.5, 0.5]}]}},
])
def test_step_law_past_float_range_is_config_error(tmp_path, capsys, kernel):
    n = len(kernel["params"].get("steps", [None] * 4))
    doc = dict(RATES_CONFIG, kernel=kernel, grid=[{"n": n, "M": 1000}])
    out = tmp_path / "never"
    assert cli.main(["rates", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert "is not a finite float" in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, RATES_CONFIG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out2), "--seed", "10"]) == 0
    assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 10


def test_empty_grid_is_config_error(tmp_path):
    doc = dict(RATES_CONFIG, grid=[])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_small_m_is_config_error(tmp_path):
    doc = dict(RATES_CONFIG, grid=[{"n": 16, "M": 10}])
    cfg = write_config(tmp_path, doc)
    assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_unknown_bound_and_kind_mismatch(tmp_path):
    doc = dict(RATES_CONFIG, bounds=["XX"])
    assert cli.main(["rates", "--config", str(write_config(tmp_path, doc, "a.json")),
                     "--out", str(tmp_path / "o1")]) == 2
    assert cli.main(["bounds", "--config", str(write_config(tmp_path, RATES_CONFIG, "b.json")),
                     "--out", str(tmp_path / "o2")]) == 2


def test_missing_seed_is_config_error(tmp_path):
    doc = {k: v for k, v in RATES_CONFIG.items() if k != "seed"}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("late_entry", [
    {"n": 32, "M": 1000, "kernel_params": {"q": 2.0}},  # jump probability above 1
    {"n": 1 << 20, "M": 1000},  # path length at the per-path draw budget
])
def test_later_grid_entry_is_config_error_before_any_work(tmp_path, late_entry):
    doc = {
        "kind": "rates",
        "kernel": {"name": "three_point", "params": {"b": 0.25, "q": 0.5}},
        "grid": [{"n": 16, "M": 1000}, late_entry],
        "seed": 4,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("epsilon", [0.6, 0.0])
def test_transforms_check_epsilon_out_of_range_is_config_error(tmp_path, epsilon):
    doc = {
        "kind": "transforms-check",
        "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
        "grid": [{"n": 16}],
        "count": 1,
        "epsilon": epsilon,
        "seed": 3,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kernel, n, count, epsilon", [
    # 16 + floor(1/eps^2) + 1 = 1234584 steps >= 2^20
    ({"name": "variance_drift", "params": {"d": 0.2}}, 16, 1, 0.0009),
    # no epsilon: the certified one, sqrt(1.2/4) = 0.548, lies past 1/2
    ({"name": "variance_drift", "params": {"d": 0.2}}, 4, 1, None),
    # no epsilon: at the certified 1/sqrt(n), 1000 padded paths of 60001
    # steps exceed the bundle guard
    ({"name": "iid_rademacher"}, 30000, 1000, None),
], ids=["epsilon-given", "certified-over-half", "certified-over-bundle-guard"])
def test_transforms_check_padded_length_over_limits_is_config_error(tmp_path, kernel, n, count, epsilon):
    doc = {"kind": "transforms-check", "kernel": kernel, "grid": [{"n": n}], "count": count, "seed": 3}
    if epsilon is not None:
        doc["epsilon"] = epsilon
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kernel", [
    # every kept step has E|xi|^3 = 0.00675 > eps E xi^2 = 0.0045, while
    # its conditional std sqrt(q) b = 0.15 lies below eps = 0.2, which the
    # padding report would pass
    {"name": "three_point", "params": {"b": 0.3, "q": 0.25}},
    {"name": "iid_scaled", "params": {"values": [-2.0, 1.0], "probs": [1.0 / 3.0, 2.0 / 3.0]}},
    {"name": "iid_gaussian"},
])
def test_transforms_check_refuses_laws_of_several_magnitudes(tmp_path, kernel):
    doc = {"kind": "transforms-check", "kernel": kernel, "grid": [{"n": 8}], "count": 200,
           "epsilon": 0.2, "seed": 3}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kernel", [
    {"params": {}},  # no "name"
    {"name": "iid_rademacher", "params": {"zz": 1}},  # a parameter the family does not take
])
def test_unbuildable_kernel_reference_is_config_error(tmp_path, kernel):
    doc = dict(RATES_CONFIG, kernel=kernel)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


LIPSCHITZ_CONFIG = {
    "kind": "lipschitz",
    "model": {"name": "rademacher_average", "params": {}},
    "grid": [{"n": 4}],
    "seed": 1,
}


@pytest.mark.parametrize("model, grid", [
    ({"f": {"kind": "sum"}}, None),  # expression form without coords
    ({"name": "rademacher_average", "params": {"zz": 1}}, None),  # a parameter the family does not take
    ({"name": "no_such_family", "params": {}}, None),
    ({"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}], "f": {"kind": "median"}}, None),
    ({"coords": [{"values": [-1.0, 1.0], "probs": [0.6, 0.6]}], "f": {"kind": "sum"}}, None),
    # json reads NaN and Infinity
    ({"coords": [{"values": [-1.0, 1.0], "probs": [float("nan"), 0.5]}], "f": {"kind": "sum"}}, None),
    ({"coords": [{"values": [0.0, float("inf")], "probs": [0.5, 0.5]}], "f": {"kind": "sum"}}, None),
    ({"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}], "f": {"kind": "sum"},
      "metrics": []}, None),
    ("rademacher_average", None),  # not an object
    (None, [{"n": 4}, {"n": 4, "zz": 1}]),  # only a later grid entry is unbuildable
    (None, [{"n": 0}]),  # scale 1/sqrt(n)
    # each coordinate sums to 1 within 1e-12, their product law does not
    ({"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5 + 9e-13]}] * 4, "f": {"kind": "sum"}}, None),
    ({"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}] * 2,
      "f": {"kind": "weighted_sum", "weights": [1.0]}}, None),
    # numpy 1.x arrays have at most 32 axes, one per coordinate
    ({"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}] + [{"values": [0.0], "probs": [1.0]}] * 32,
      "f": {"kind": "sum"}}, None),
], ids=["no-coords", "unknown-param", "unknown-family", "unknown-f-kind", "invalid-coord-law",
        "nan-coord-prob", "infinite-coord-value", "metrics-not-object", "not-an-object", "later-entry",
        "zero-coordinates", "product-law-total", "weights-count", "over-32-coordinates"])
def test_unbuildable_model_reference_is_config_error(tmp_path, model, grid):
    doc = dict(LIPSCHITZ_CONFIG)
    if model is not None:
        doc["model"] = model
    if grid is not None:
        doc["grid"] = grid
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["lipschitz", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


BOUNDS_CONFIG = {
    "kind": "bounds-table",
    "bounds": ["T1"],
    "grid": [{"rho": 1.0, "epsilon": 0.1, "delta": 0.0}],
    "seed": 0,
}


EXPRESSION_MODEL = {"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}] * 2,
                    "f": {"kind": "sum"}}  # grid n is only the fit abscissa
LEMMA_CONFIG = {"kind": "lemma-suite", "seed": 7, "corpus_size": 2}
TRANSFORMS_CONFIG = {
    "kind": "transforms-check",
    "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
    "count": 10,
    "seed": 3,
}


@pytest.mark.parametrize("command, doc", [
    ("rates", dict(RATES_CONFIG, rho="abc")),
    ("rates", dict(RATES_CONFIG, p=[2.0])),
    ("rates", dict(RATES_CONFIG, alpha={})),
    ("rates", dict(RATES_CONFIG, rho=float("nan"))),  # json reads NaN
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16, "M": "abc"}])),
    ("rates", dict(RATES_CONFIG, grid=[{"n": float("inf"), "M": 2000}])),  # json reads Infinity
    ("rates", dict(RATES_CONFIG, grid=[5])),
    ("verify", dict(LEMMA_CONFIG, corpus_size="abc")),
    ("verify", dict(LEMMA_CONFIG, s="abc")),
    ("verify", dict(LEMMA_CONFIG, t_grid=["x"])),
    ("verify", dict(LEMMA_CONFIG, t_grid=3.0)),
    ("verify", dict(LEMMA_CONFIG, p_values="12")),  # a string, not a list of numbers
    ("verify", dict(TRANSFORMS_CONFIG, n="abc")),
    # a fit abscissa at the second grid point
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16, "M": 1000}, {"n": 32, "M": 1000, "epsilon": "abc"}])),
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16, "M": 1000, "epsilon": float("nan")}])),
    ("lipschitz", dict(LIPSCHITZ_CONFIG, model=EXPRESSION_MODEL, grid=[{"n": 2}, {"n": "abc"}])),
    # a bounds-table parameter at the second grid point, one a functional reads and one the table prints
    ("bounds", dict(BOUNDS_CONFIG, grid=BOUNDS_CONFIG["grid"] + [{"rho": 1.0, "epsilon": "x", "delta": 0.0}])),
    ("bounds", dict(BOUNDS_CONFIG, grid=BOUNDS_CONFIG["grid"] + [{"rho": 1.0, "epsilon": 0.1, "delta": 0.0,
                                                                 "n": "x"}])),
    # an integer field refuses a fractional part or a boolean rather than truncate it
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16.5, "M": 1000}])),
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16, "M": 1000.7}])),
    ("rates", dict(RATES_CONFIG, seed=3.9)),
    ("rates", dict(RATES_CONFIG, seed=True)),
    ("rates", dict(RATES_CONFIG, grid=[{"n": True, "M": 1000}])),
    ("verify", dict(TRANSFORMS_CONFIG, n=8.5)),
    ("verify", dict(TRANSFORMS_CONFIG, n=8, count=10.5)),
    ("verify", dict(LEMMA_CONFIG, corpus_size=2.5)),
    # a float field refuses a boolean rather than read it as 1.0
    ("rates", dict(RATES_CONFIG, rho=True)),
    ("rates", dict(RATES_CONFIG, p=True)),
    ("bounds", dict(BOUNDS_CONFIG, bounds=["BOLT_A"], grid=[{"epsilon": True, "n": 64}])),
    # a grid value no functional reads is printed, so it must be finite too
    ("bounds", dict(BOUNDS_CONFIG, grid=[{"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "n": float("inf")}])),
], ids=["rho", "p", "alpha", "rho-nan", "M", "n-infinite", "grid-entry", "corpus_size", "s", "t_grid-entry",
        "t_grid-scalar", "p_values-string", "transforms-n", "rates-epsilon-string", "rates-epsilon-nan",
        "lipschitz-n-string", "bounds-epsilon-string", "bounds-table-value-string", "rates-n-fractional",
        "M-fractional", "seed-fractional", "seed-boolean", "rates-n-boolean", "transforms-n-fractional",
        "count-fractional", "corpus_size-fractional", "rho-boolean", "p-boolean", "bounds-epsilon-boolean",
        "bounds-table-value-infinite"])
def test_malformed_number_is_config_error(tmp_path, command, doc):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_integral_floats_and_large_ints_pass_unchanged():
    cfg = cli.parse_config(dict(RATES_CONFIG, grid=[{"n": 64.0, "M": 2000.0}], seed=2**64 + 1))
    (_, kernel, m, _), = cfg.points
    assert (kernel.n, m, cfg.seed) == (64, 2000, 2**64 + 1)
    assert all(type(v) is int for v in (kernel.n, m, cfg.seed))


def test_rates_epsilon_finite_where_the_moment_overflows(tmp_path):
    # 2^2002 is past float range: eps comes from log space, and the manifest
    # stays JSON, with no Infinity or NaN in it
    doc = dict(RATES_CONFIG, kernel={"name": "two_point", "params": {"a": 2.0}}, rho=2000.0,
               grid=[{"n": 4, "M": 1000}])
    out = tmp_path / "out"
    assert cli.main(["rates", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"{name} in manifest.json")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["records"][0]["epsilon"] == 2.0


def test_rates_gaussian_epsilon_finite_where_gamma_overflows(tmp_path):
    # Gamma(201.5) is past float range: the declared moment comes from log
    # space, and the manifest stays JSON
    doc = dict(RATES_CONFIG, kernel={"name": "iid_gaussian"}, rho=400.0, grid=[{"n": 64, "M": 1000}])
    out = tmp_path / "out"
    assert cli.main(["rates", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"{name} in manifest.json")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert 1.5 < manifest["records"][0]["epsilon"] < 1.6


def test_rate_fit_on_a_zero_reference(tmp_path):
    # at p = 400, eps^(2p) underflows and <X>_n is 1, so C2 is 0.0 at every
    # point: the fit is written, with a null ratio spread, since JSON has no NaN
    doc = dict(RATES_CONFIG, p=400.0, bounds=["C2"],
               grid=[{"n": 16, "M": 2000}, {"n": 32, "M": 2000}, {"n": 64, "M": 2000}])
    out = tmp_path / "out"
    assert cli.main(["rates", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"{name} in manifest.json")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert [r["bounds"]["C2"] for r in manifest["records"]] == [0.0] * 3
    assert manifest["fit"]["reference"] == "C2"
    assert manifest["fit"]["ratio_spread"] is None


@pytest.mark.parametrize("command, doc, message", [
    ("bounds", dict(BOUNDS_CONFIG, bounds=5), "bounds must be a list of bound ids"),
    ("bounds", dict(BOUNDS_CONFIG, bounds="T1"), "bounds must be a list of bound ids"),
    ("bounds", dict(BOUNDS_CONFIG, bounds=["T1", 2]), "bounds must be a list of bound ids"),
    ("verify", dict(LEMMA_CONFIG, corpus_size=0), "corpus_size must be >= 1"),
    ("verify", dict(LEMMA_CONFIG, corpus_size=-3), "corpus_size must be >= 1"),
    ("verify", dict(LEMMA_CONFIG, s=1.5), "s must exceed 2"),
    ("verify", dict(LEMMA_CONFIG, s=2.0), "s must exceed 2"),
    ("verify", dict(LEMMA_CONFIG, t_grid=[1.5]), "t_grid entries must lie in [2, s)"),
    ("verify", dict(LEMMA_CONFIG, s=3.0, t_grid=[2.5, 3.0]), "t_grid entries must lie in [2, s)"),
    ("verify", dict(LEMMA_CONFIG, p_values=[1.0, 0.5]), "p_values entries must be >= 1"),
    ("lipschitz", dict(LIPSCHITZ_CONFIG, grid=[{"n": 4}, {"n": 30}]),
     "product support size exceeds 10000000 outcomes"),
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16, "M": 1000, "epsilon": 0.0}]),
     "epsilon has an invalid value 0.0"),
    ("rates", dict(RATES_CONFIG, grid=[{"n": 16, "M": 1000, "epsilon": -0.5}]),
     "epsilon has an invalid value -0.5"),
    ("lipschitz", dict(LIPSCHITZ_CONFIG, model=EXPRESSION_MODEL, grid=[{"n": 0}]),
     "n has an invalid value 0"),
    ("bounds", dict(BOUNDS_CONFIG, grid=BOUNDS_CONFIG["grid"] + [{"rho": 1.0, "epsilon": 0.7, "delta": 0.0}]),
     "T1: epsilon 0.7 outside the stated range (0, 0.5]"),
    ("bounds", dict(BOUNDS_CONFIG, grid=BOUNDS_CONFIG["grid"] + [{"rho": 1.0, "delta": 0.0}]),
     "T1 at grid point {'rho': 1.0, 'delta': 0.0}: T1 requires parameter 'epsilon'"),
], ids=["bounds-int", "bounds-string", "bounds-entry", "corpus_size-0", "corpus_size-negative",
        "s-below-2", "s-at-2", "t-below-2",
        "t-at-s", "p-below-1", "lipschitz-over-guard", "rates-epsilon-zero", "rates-epsilon-negative",
        "lipschitz-n-zero", "bounds-epsilon-out-of-range", "bounds-epsilon-missing"])
def test_value_outside_hypotheses_is_config_error(tmp_path, capsys, command, doc, message):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("out_value", [5, ["dir"]], ids=["int", "list"])
def test_out_that_is_not_a_string_is_config_error(tmp_path, monkeypatch, capsys, out_value):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, dict(BOUNDS_CONFIG, out=out_value))
    assert cli.main(["bounds", "--config", str(cfg)]) == 2
    assert "out must be a directory path string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("epsilon", [1e-308, 5e-324, 2.0**-10.5])
def test_transforms_check_epsilon_past_the_draw_budget_is_config_error(tmp_path, epsilon):
    # 1/eps^2 underflows to a division by zero at 1e-308 and is no finite
    # float at 5e-324; at 2**-10.5 it is 2**21, over the budget of 2**20
    doc = dict(TRANSFORMS_CONFIG, grid=[{"n": 8}], epsilon=epsilon)
    out = tmp_path / "never"
    assert cli.main(["verify", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("count", [
    0,
    50_000_000 // 16 + 1,  # count * n just over the bundle memory guard, no epsilon
    float("inf"),  # json reads Infinity
])
def test_transforms_check_count_out_of_range_is_config_error(tmp_path, count):
    doc = {
        "kind": "transforms-check",
        "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
        "grid": [{"n": 16}],
        "count": count,
        "seed": 3,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_invalid_kernel_table_is_invariant_violation(tmp_path):
    doc = {
        "kind": "rates",
        "kernel": {
            "name": "table",
            "params": {"steps": [{"values": [1.0, -1.0], "probs": [0.6, 0.6]}]},
        },
        "grid": [{"n": 1, "M": 1000}],
        "seed": 4,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "bad"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 1
    assert not (out / "series.csv").exists()  # partial outputs removed


@pytest.mark.parametrize("command, doc, where", [
    # a key nothing reads would be echoed into manifest.json as Infinity
    ("rates", dict(RATES_CONFIG, note=float("inf")), "['note']"),
    ("rates", dict(RATES_CONFIG, note={"list": [1.0, float("-inf")]}), "['note']['list'][1]"),
    # a law with a NaN probability is refused before any kernel is built
    ("rates", {
        "kind": "rates",
        "kernel": {
            "name": "table",
            "params": {"steps": [{"values": [-1.0, 1.0], "probs": [float("nan"), 0.5]}]},
        },
        "grid": [{"n": 1, "M": 1000}],
        "seed": 4,
    }, "['kernel']['params']['steps'][0]['probs'][0]"),
    ("bounds", dict(BOUNDS_CONFIG, grid=[{"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "x": float("nan")}]),
     "['grid'][0]['x']"),
], ids=["unread-key", "unread-nested", "kernel-table-nan", "bounds-grid-nan"])
def test_non_finite_number_anywhere_is_config_error(tmp_path, capsys, command, doc, where):
    cfg = write_config(tmp_path, doc)  # Python's json writes and reads NaN and Infinity
    out = tmp_path / "never"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"non-finite number at {where}" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_json_number_is_config_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(RATES_CONFIG)[:-1] + ', "note": 1e999}', encoding="utf-8")
    assert json.loads(cfg.read_text(encoding="utf-8"))["note"] == float("inf")
    out = tmp_path / "never"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def _fail_replace_after(monkeypatch, renames: int) -> list:
    """Make ``os.replace`` in the CLI do ``renames`` renames, then fail as a
    kill would stop it; returns the destinations renamed."""
    real, done = cli.os.replace, []

    def replace(src, dst):
        if len(done) == renames:
            raise OSError("killed mid-commit")
        done.append(Path(dst))
        real(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    return done


def test_new_output_directory_appears_whole_or_not_at_all(tmp_path, monkeypatch):
    # a new directory is one rename: a commit that dies at it leaves no
    # output directory, even without the cleanup that a kill skips
    out = tmp_path / "run"
    stager = cli.OutputStager(out)
    stager.write_text("series.csv", "a\n")
    stager.write_text("manifest.json", "{}\n")
    assert not out.exists()
    _fail_replace_after(monkeypatch, 0)
    with pytest.raises(OSError, match="killed mid-commit"):
        stager.commit()
    assert not out.exists()
    monkeypatch.undo()
    stager.commit()
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "series.csv"]


def test_failed_commit_leaves_no_output_directory(tmp_path, monkeypatch):
    cfg = cli.parse_config(RATES_CONFIG)
    out = tmp_path / "out"
    _fail_replace_after(monkeypatch, 0)
    with pytest.raises(OSError, match="killed mid-commit"):
        cli.run_experiment(cfg, out)
    assert list(tmp_path.iterdir()) == []  # no output and no staging directory
    monkeypatch.undo()
    done = _fail_replace_after(monkeypatch, 1)
    cli.run_experiment(cfg, out)
    assert done == [out]  # one rename publishes both files
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "series.csv"]


def test_existing_output_directory_is_replaced_file_by_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    stager = cli.OutputStager(out)
    stager.write_text("series.csv", "a\n")
    stager.write_text("manifest.json", "{}\n")
    # an existing directory takes its files one rename at a time, so a
    # commit that dies after the first leaves it beside the older files
    done = _fail_replace_after(monkeypatch, 1)
    with pytest.raises(OSError, match="killed mid-commit"):
        stager.commit()
    stager.abort()
    assert done == [out / "series.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "series.csv"]


def test_walk_over_the_node_guard_is_invariant_violation(tmp_path, monkeypatch, capsys):
    # a table kernel has no closed form, so epsilon and delta come from the walk
    step = {"values": [-0.5, 0.5], "probs": [0.5, 0.5]}
    doc = {
        "kind": "rates",
        "kernel": {"name": "table", "params": {"steps": [step] * 4}},
        "grid": [{"n": 4, "M": 1000}],
        "seed": 4,
    }
    monkeypatch.setattr(conditions, "NODE_GUARD", 0)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "never"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invariant violation: history walk exceeded 0 nodes at step 1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("f, message", [
    ({"kind": "weighted_sum", "weights": [0.0, 0.0]}, "degenerate functional: zero variance"),
    ({"kind": "weighted_sum", "weights": [1e308, 1e308]}, "functional produced non-finite values"),
], ids=["constant", "overflowing"])
def test_degenerate_functional_is_invariant_violation(tmp_path, capsys, f, message):
    doc = dict(LIPSCHITZ_CONFIG, model={"coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}] * 2, "f": f})
    out = tmp_path / "never"
    assert cli.main(["lipschitz", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"invariant violation: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("error", [TypeError, ValueError, RuntimeError])
def test_unexpected_exception_is_not_an_invariant_violation(tmp_path, monkeypatch, capsys, error):
    def broken(cfg, stager):
        raise error("a bug, not a lab result")

    monkeypatch.setattr(cli, "_run_bounds_table", broken)
    out = tmp_path / "never"
    with pytest.raises(error):
        cli.main(["bounds", "--config", str(write_config(tmp_path, BOUNDS_CONFIG)), "--out", str(out)])
    assert "invariant violation" not in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_manifest_is_invariant_violation(tmp_path, monkeypatch, capsys):
    # JSON has no NaN or Infinity: a run whose manifest would hold one
    # writes nothing
    run = cli._run_bounds_table

    def with_nan(cfg, stager):
        manifest = run(cfg, stager)
        manifest["records"][0]["bounds"]["T1"] = math.nan
        return manifest

    monkeypatch.setattr(cli, "_run_bounds_table", with_nan)
    out = tmp_path / "never"
    assert cli.main(["bounds", "--config", str(write_config(tmp_path, BOUNDS_CONFIG)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invariant violation: non-finite number at ['records'][0]['bounds']['T1'] of manifest.json\n")
    assert not out.exists()


def test_bounds_table_run(tmp_path):
    doc = {
        "kind": "bounds-table",
        "bounds": ["T1", "BOLT_A"],
        "grid": [
            {"rho": 1.0, "epsilon": 0.01, "delta": 0.0, "n": 1e6},
            {"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "n": 100},
        ],
        "seed": 0,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "table"
    assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "series.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# log_convention=natural")
    assert len(lines) == 4


def test_lemma_suite_verify(tmp_path):
    doc = {"kind": "lemma-suite", "seed": 7, "corpus_size": 30}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "lemmas"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "series.csv").read_text()
    assert "moment_interpolation_and_cap" in text
    assert "smoothing" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("s", [1e6, 2.0**64, 1e308])
def test_lemma_suite_at_large_s(tmp_path, s):
    # E|X|^s underflows to 0 for a law within (-1, 1) and overflows past it;
    # eps then comes from log space and tends to the largest |atom|
    doc = dict(LEMMA_CONFIG, s=s, t_grid=[2.5, 3.0])
    out = tmp_path / "lemmas"
    assert cli.main(["verify", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "series.csv").read_text().splitlines()[1:]]
    moments = [row for row in rows if row[0] == "moment_interpolation_and_cap"]
    for (_, case, status, eps) in moments:
        law = corpus.random_mean_zero_distribution(7, int(case))
        top = max(abs(v) for v, p in zip(law.values, law.probs) if p > 0.0)
        assert status == "pass"
        assert math.isclose(float(eps), top, rel_tol=1e-9 if s > 1e6 else 1e-4)


LEMMA_OPTIONS = {"s": 5.5, "t_grid": [2.0, 3.25, 5.0], "p_values": [1.0, 1.25, 4.0]}


@pytest.mark.parametrize("seed, options, series_sha, manifest_sha", [
    (7, {}, "9e10f3c9c65e350050d750e4b6a56c66307df45916438898eef96c11504dcb01",
     "5ce5dda1e06a614bb7c3c27788b9b50c462d02e4e909b2963739a9db1b40c6d8"),
    (2024, {}, "3b8fc743a3e5cd0d05ea7c582870006917f0882ba5051db2c071b16e1f3815ee",
     "2b5355e50e20433661fef0f75173b41d589330f0639c93f6eb8016729d5032bc"),
    (7, LEMMA_OPTIONS, "e74684416bf28f21c6fb96b3aede966c57117cf0cfedbc18c1ce13a90bd7489a",
     "c09d3502007d186a157bdd5649069078fb377a40d8a2454e2d08e659fae1cec0"),
    (2024, LEMMA_OPTIONS, "3f8afce0eb2a78f537b07bdd9dffe4d9a7fc0f6d322901bc0f7ab9cf683819b1",
     "bc0c92bd1f558177d2162140901ec3d2a3d0dd29bc62c3bd08c76687f11ee4bd"),
], ids=["seed7", "seed2024", "seed7-options", "seed2024-options"])
def test_lemma_suite_bytes_are_pinned(tmp_path, seed, options, series_sha, manifest_sha):
    # the bytes the per-law suite wrote, one corpus draw and one distance at a time
    doc = {"kind": "lemma-suite", "corpus_size": 30, "seed": seed, **options}
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == series_sha
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == manifest_sha


def test_transforms_check_verify(tmp_path):
    doc = {
        "kind": "transforms-check",
        "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
        "grid": [{"n": 16}],
        "count": 200,
        "rho": 1.0,
        "seed": 3,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "transforms"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "series.csv").read_text()
    assert "padding_unit_variance" in text and "stopped_residual" in text


def test_transforms_check_undersized_epsilon_fails(tmp_path):
    doc = {
        "kind": "transforms-check",
        "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
        "grid": [{"n": 16}],
        "count": 50,
        "rho": 1.0,
        "epsilon": 0.05,  # below the certified moment-domination epsilon
        "seed": 3,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "fails"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    assert not (out / "series.csv").exists()


TRANSFORMS_PINNED = {
    "kind": "transforms-check",
    "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
    "grid": [{"n": 64}],
    "count": 2000,
    "seed": 11,
}


TRANSFORMS_PINNED_SHAS = [
    (1.0, "4249e56761f58fc6845b9b6c63fcc0afbbc66802489650c5ca1c97c45e8fc56e",
     "1ad390114db729cbea7d71695d96a69fa9fc4a9b0956a351d1e40d223191c5d7"),
    (1.5, "014de56989c3cbefb7636a4b53f1af3edc61eec6ee6a273137382b9adb21d12b",
     "76a18d7ede1be48763f813b1c3e14004716bc4a7c062636aac64981bcf9ff566"),
]
# (paths per block, threads); None keeps the module's block, which holds all
# 2000 paths.  One-path blocks run once: each is one chunk, so a pool adds
# nothing to threads=1, and 2000 blocks take about 5 s
TRANSFORMS_BLOCKS = [(None, 1), (1, 1), (7, 1), (7, 2), (4001, 1), (4001, 2)]


def _block_bytes(doc: dict, rows: int) -> int:
    """A ``cli._PATH_BLOCK_BYTES`` that puts ``rows`` paths of ``doc`` in a block."""
    kernel, _, eps = cli.parse_config(doc).settings
    return rows * 8 * (kernel.n + math.floor(1.0 / (eps * eps)) + 1)


@pytest.mark.parametrize("rho, series_sha, records_sha, rows, threads", [
    pytest.param(*shas, rows, threads, id="-".join(map(str, shas))
                 + ("" if rows is None else f"-block{rows}-threads{threads}"))
    for shas in TRANSFORMS_PINNED_SHAS for rows, threads in TRANSFORMS_BLOCKS
    if rows != 1 or shas[0] == 1.0
])
def test_transforms_check_bytes_are_pinned(tmp_path, monkeypatch, rho, series_sha, records_sha,
                                           rows, threads):
    # the paths run in blocks, and a block's rows are the same rows of the
    # whole collection, bit for bit, whatever the block and the threads
    doc = {**TRANSFORMS_PINNED, "rho": rho}
    if rows is not None:
        monkeypatch.setattr(cli, "_PATH_BLOCK_BYTES", _block_bytes(doc, rows))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    argv = ["verify", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
    assert cli.main(argv) == 0
    assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == series_sha
    records = json.loads((out / "manifest.json").read_text())["records"]
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == records_sha


def _assert_undersized_epsilon_messages(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {**TRANSFORMS_PINNED, "rho": 1.0, "epsilon": 0.1})
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
    # the first failing path's worst ratio; the largest over all paths ends in ...169
    assert capsys.readouterr().err == (
        "invariant violation: padded step violated the moment-domination ratio at "
        "eps=0.1 (worst ratio 1.3693063937629153)\n"
    )
    # with both checks failing, the unit-variance check reports first
    pad = cli.pad_collection

    def inflated(*args):
        padded = pad(*args)
        return dataclasses.replace(padded, step_scales=1.5 * padded.step_scales)

    monkeypatch.setattr(cli, "pad_collection", inflated)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
    assert "padded terminal variance missed 1" in capsys.readouterr().err


def test_transforms_check_undersized_epsilon_message(tmp_path, capsys, monkeypatch):
    _assert_undersized_epsilon_messages(tmp_path, capsys, monkeypatch)


def test_transforms_check_undersized_epsilon_message_in_blocks(tmp_path, capsys, monkeypatch):
    # every block fails both checks; the unit-variance check still reports
    # first, over all paths, and then the first failing path's ratio
    doc = {**TRANSFORMS_PINNED, "rho": 1.0, "epsilon": 0.1}
    monkeypatch.setattr(cli, "_PATH_BLOCK_BYTES", _block_bytes(doc, 7))
    _assert_undersized_epsilon_messages(tmp_path, capsys, monkeypatch)


def test_transforms_check_memory_is_one_block_and_a_few_bytes_per_path(tmp_path):
    # the whole collection took about 5.4 KB per path at n=64; a run in
    # blocks holds one block's matrices and keeps a few values per block
    peaks = []
    for count in (4096, 16384):
        cfg = cli.parse_config({**TRANSFORMS_PINNED, "count": count, "rho": 1.0})
        tracemalloc.start()
        try:
            cli.run_experiment(cfg, tmp_path / str(count))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 32 * (16384 - 4096), peaks


def test_plot_data(tmp_path):
    cfg = write_config(tmp_path, RATES_CONFIG)
    out = tmp_path / "run"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out)]) == 0
    plot_out = tmp_path / "plots"
    assert cli.main([
        "plot-data", "--config", str(out / "manifest.json"), "--out", str(plot_out)
    ]) == 0
    lines = (plot_out / "plot.csv").read_text().strip().split("\n")
    header = lines[1].split(",")
    assert header[:2] == ["log_abscissa", "log_d_hat"]
    assert "log_T1" in header and header[-1] == "warning"
    values = [float(r.split(",")[0]) for r in lines[2:]]
    assert values == sorted(values)


def test_plot_data_excludes_zero_distances():
    manifest = {
        "records": [
            {"grid_point": 2.0, "d_hat": 0.5, "bounds": {"T1": 0.9}},
            {"grid_point": 4.0, "d_hat": 0.0, "bounds": {"T1": 0.9}},
        ]
    }
    text = cli.emit_plot_data(manifest)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert "excluded: d_hat = 0" in lines[3]
    assert lines[3].split(",")[1] == ""  # no log column for the excluded row


@pytest.mark.parametrize("manifest, message", [
    ([1, 2], "manifest must be a JSON object"),
    ({"records": [1]}, "manifest has no record series"),
    ({"records": [{"grid_point": 2.0, "d_hat": 0.5}, {"grid_point": "abc", "d_hat": 0.5}]},
     "record 1: grid_point 'abc' is not a finite positive number"),
    ({"records": [{"grid_point": -1, "d_hat": 0.5}]},
     "record 0: grid_point -1 is not a finite positive number"),
    ({"records": [{"grid_point": 0.0, "d_hat": 0.5}]},
     "record 0: grid_point 0.0 is not a finite positive number"),
    ({"records": [{"grid_point": 2.0, "d_hat": 0.5}, {"grid_point": 4.0, "d_hat": "x"}]},
     "record 1: d_hat 'x' is not a finite number"),
    ({"records": [{"grid_point": 2.0, "d_exact": float("nan")}]},
     "record 0: d_exact nan is not a finite number"),
    ({"records": [{"grid_point": 2.0, "d_hat": 0.5, "bounds": {"T1": "x"}}]},
     "record 0: bound T1 'x' is not a finite number"),
    ({"records": [{"grid_point": 2.0, "d_hat": 0.5, "bounds": [1]}]},
     "record 0: bounds [1] is not an object"),
    ({"kind": "bounds-table", "records": [{"grid_point": 5, "bounds": {}}]},
     "config must be a JSON object"),
    ({"kind": "bounds-table", "config": [], "records": [{"grid_point": 5, "bounds": {}}]},
     "config must be a JSON object"),
    ({"kind": "bounds-table", "config": dict(BOUNDS_CONFIG, grid=[{"rho": 1.0, "epsilon": 0.7, "delta": 0.0}]),
      "records": [{"grid_point": {}, "bounds": {}}]},
     "T1 at grid point {'rho': 1.0, 'epsilon': 0.7, 'delta': 0.0}: "
     "T1: epsilon 0.7 outside the stated range (0, 0.5]"),
], ids=["not-an-object", "record-not-an-object", "grid-point-string", "grid-point-negative", "grid-point-zero",
        "d-hat-string", "d-exact-nan", "bound-string", "bounds-not-object", "table-without-config",
        "table-config-list", "table-config-invalid"])
def test_malformed_manifest_is_config_error(tmp_path, capsys, manifest, message):
    path = write_config(tmp_path, manifest, "manifest.json")
    out = tmp_path / "never"
    assert cli.main(["plot-data", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_plot_data_bounds_table_passthrough(tmp_path):
    point = {"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "n": 100.0, "p": 1.0, "var_dev_p": 0.01,
             "max_inc_2p": 0.02, "sum_inc_2p": 0.03, "var_dev_l1": 0.01, "var_dev_linf": 0.04}
    named = {
        "kind": "bounds-table",
        "bounds": ["T1", "BOLT_A"],
        "grid": [{"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "n": 100.0}],
        "seed": 0,
    }
    # without "bounds" the table has every functional, in BOUNDS order
    every = {"kind": "bounds-table", "grid": [point, dict(point, epsilon=0.2, n=7)], "seed": 0}
    for name, doc in (("named", named), ("every", every)):
        cfg = write_config(tmp_path, doc, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        passthrough = cli.emit_plot_data(manifest)
        assert passthrough == (out / "series.csv").read_text()


def test_lipschitz_run(tmp_path):
    doc = {
        "kind": "lipschitz",
        "model": {"name": "rademacher_average", "params": {}},
        "grid": [{"n": 4}, {"n": 8}, {"n": 12}],
        "rho": 1.0,
        "bounds": ["T1"],
        "seed": 1,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "lip"
    assert cli.main(["lipschitz", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    recs = manifest["records"]
    assert [r["grid_point"] for r in recs] == [4.0, 8.0, 12.0]
    assert all(r["delta_n"] == 0.0 for r in recs)
    assert recs[1]["epsilon_n"] == pytest.approx(8**-0.5, rel=1e-12)
    # exact distances decrease along the grid
    ds = [r["d_exact"] for r in recs]
    assert ds[0] > ds[1] > ds[2]


def test_threads_env_cap(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, RATES_CONFIG)
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
    monkeypatch.setenv("MCLT_LAB_THREADS", "2")
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_manifest_config_reproduces_run(tmp_path):
    cfg = write_config(tmp_path, RATES_CONFIG)
    out1 = tmp_path / "m1"
    assert cli.main(["rates", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    echoed = write_config(tmp_path, manifest["config"], "echo.json")
    out2 = tmp_path / "m2"
    assert cli.main(["rates", "--config", str(echoed), "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    second = json.loads((out2 / "manifest.json").read_text())
    assert second["records"] == manifest["records"]
