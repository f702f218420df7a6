"""The public surface: every exported name exists, and the package exports
exactly the names listed here."""

import importlib
import pkgutil

import pytest

import mclt_lab

PACKAGE_EXPORTS = [
    "__version__",
    "BOUNDS",
    "compare_table",
    "evaluate_rate",
    "verify_smoothing_lemma",
    "ConditionReport",
    "minimal_delta",
    "minimal_epsilon",
    "verify_moment_lemmas",
    "KolmogorovEstimate",
    "exact_kolmogorov_discrete",
    "fit_rate",
    "kolmogorov_distance",
    "standard_normal_cdf",
    "ConditionalKernel",
    "PathCollection",
    "StepDistribution",
    "TerminalStatistics",
    "make_kernel",
    "sample_paths",
    "sample_terminal",
    "LipschitzModel",
    "doob_decompose",
    "epsilon_delta_n",
    "make_model",
    "variance_sandwich",
    "verify_a1_lipschitz",
    "INF_GE_1",
    "SUP_LE_1",
    "restrict_to_v",
]

MODULES = sorted(info.name for info in pkgutil.iter_modules(mclt_lab.__path__))


def test_package_exports_are_pinned():
    # a stale or a newly added export has to be listed here on purpose
    assert mclt_lab.__all__ == PACKAGE_EXPORTS


@pytest.mark.parametrize("name", ["", *MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(f"mclt_lab.{name}" if name else "mclt_lab")
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []
