"""Exit codes by construction: a config or manifest one mutation away from a
working example exits 0, 1 or 2 and raises nothing, and exits 1 and 2 leave
no output directory.

A mutation replaces the value at one JSON path with null, a bool, a string,
a huge int, NaN, +-inf, an ordinary number (0, -1, 0.5, 2.0000001, +-1e308
and the subnormal edge 1e-308, 5e-324), a list or an object.  A mutated
config runs only when its work stays within twice the example's own (path
steps, Lipschitz outcomes, corpus items); the budget is fixed per kind,
never raised to let a config through.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mclt_lab import cli
from mclt_lab.lipschitz import check_enumeration

BOUNDS_EXAMPLE = {
    "kind": "bounds-table",
    "bounds": ["T1", "BOLT_A"],
    "grid": [{"rho": 1.0, "epsilon": 0.1, "delta": 0.0, "n": 100},
             {"rho": 0.5, "epsilon": 0.2, "delta": 0.1, "n": 10}],
    "seed": 0,
}

EXAMPLES = {
    "rates": ("rates", {
        "kind": "rates",
        "kernel": {"name": "three_point", "params": {"b": 0.25, "q": 0.5}},
        "grid": [{"n": 4, "M": 1000},
                 {"n": 8, "M": 1000, "epsilon": 0.2, "kernel_params": {"q": 0.25}}],
        "rho": 1.0,
        "p": 1.5,
        "alpha": 0.05,
        "bounds": ["T1", "HB"],
        "seed": 5,
    }),
    "bounds-table": ("bounds", BOUNDS_EXAMPLE),
    "lemma-suite": ("verify", {
        "kind": "lemma-suite",
        "corpus_size": 2,
        "s": 4.0,
        "t_grid": [2.5, 3.0],
        "p_values": [1.0, 2.0],
        "seed": 7,
    }),
    "transforms-check": ("verify", {
        "kind": "transforms-check",
        "kernel": {"name": "variance_drift", "params": {"d": 0.2}},
        "grid": [{"n": 8}],
        "count": 20,
        "epsilon": 0.4,
        "rho": 1.0,
        "seed": 3,
    }),
    "lipschitz": ("lipschitz", {
        "kind": "lipschitz",
        "model": {
            "coords": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
                       {"values": [0.0, 1.0, 2.0], "probs": [0.25, 0.5, 0.25]}],
            "f": {"kind": "weighted_sum", "weights": [1.0, 0.5]},
            "metrics": {"d1": {"kind": "abs_diff", "scales": [0.5, 0.25]},
                        "d2": {"kind": "abs_diff", "scale": 1.0}},
            "label": "pair",
        },
        "grid": [{"n": 2}, {"n": 4}],
        "rho": 1.0,
        "bounds": ["T1", "BOLT_A"],
        "seed": 1,
    }),
}

MANIFESTS = {
    "rates": {
        "kind": "rates",
        "records": [{"grid_point": 4.0, "d_hat": 0.2, "bounds": {"T1": 0.5, "C2": 0.4}},
                    {"grid_point": 8, "d_exact": 0.1, "bounds": {"T1": 0.3, "C2": None}}],
    },
    "bounds-table": {
        "kind": "bounds-table",
        "config": BOUNDS_EXAMPLE,
        "records": [{"grid_point": dict(BOUNDS_EXAMPLE["grid"][0]), "bounds": {"T1": 0.33}}],
    },
}

REPLACEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([2**64, -(2**64), 10**400]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([0, -1, 0.5, 2.0000001, 1e308, -1e308, 1e-308, 5e-324]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def json_paths(node, prefix=()):
    """Every path below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def work(cfg: cli.ExperimentConfig) -> int:
    if cfg.kind == "rates":
        return sum(kernel.n * m for _, kernel, m, _ in cfg.points)
    if cfg.kind == "lipschitz":
        return sum(check_enumeration(model) for _, model, _ in cfg.points)
    if cfg.kind == "transforms-check":
        kernel, count, _ = cfg.settings
        return kernel.n * count
    if cfg.kind == "lemma-suite":
        return cfg.settings[0]
    return len(cfg.points)


def run_main(command: str, doc) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert out.exists() == (code == 0)


def _refuse(name):
    raise ValueError(f"{name} in manifest.json")


@pytest.mark.parametrize("kind", EXAMPLES)
def test_examples_run(kind):
    # and each writes a manifest without NaN or Infinity, which Python's
    # json reads but JSON has not
    command, doc = EXAMPLES[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_refuse)
    assert manifest["kind"] == doc["kind"]


def test_lipschitz_ratio_past_float_range_is_a_config_error():
    # E d1^2 is subnormal, so delta_n = E d2^2 / E d1^2 - 1 overflows
    command, example = EXAMPLES["lipschitz"]
    doc = replaced(example, ("model", "metrics", "d1", "scales"), [1e-160, 1e-160])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("kind", EXAMPLES)
@PROPERTY
@given(data=st.data())
def test_mutated_config_exit_code(kind, data):
    command, example = EXAMPLES[kind]
    doc = replaced(example, data.draw(st.sampled_from(list(json_paths(example)))), data.draw(REPLACEMENTS))
    try:
        cfg = cli.parse_config(json.loads(json.dumps(doc)))
    except cli.ConfigError:
        pass
    else:
        assume(work(cfg) <= 2 * work(cli.parse_config(example)))
    run_main(command, doc)


@pytest.mark.parametrize("kind", MANIFESTS)
@PROPERTY
@given(data=st.data())
def test_mutated_manifest_exit_code(kind, data):
    example = MANIFESTS[kind]
    doc = replaced(example, data.draw(st.sampled_from(list(json_paths(example)))), data.draw(REPLACEMENTS))
    run_main("plot-data", doc)
