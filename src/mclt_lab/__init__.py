"""Martingale CLT rate laboratory.

Simulate martingale difference sequences from conditional kernels, certify
their moment conditions, estimate Kolmogorov distances to the standard
normal, and compare the resulting decay against explicit (constant-free)
rate functionals.  See the README for the CLI and the experiment scripts.
"""

__version__ = "0.1.0"

from .bounds import BOUNDS, compare_table, evaluate_rate, verify_smoothing_lemma
from .conditions import (
    ConditionReport,
    minimal_delta,
    minimal_epsilon,
    verify_moment_lemmas,
)
from .distance import (
    KolmogorovEstimate,
    exact_kolmogorov_discrete,
    fit_rate,
    kolmogorov_distance,
    standard_normal_cdf,
)
from .kernels import (
    ConditionalKernel,
    PathCollection,
    StepDistribution,
    TerminalStatistics,
    make_kernel,
    sample_paths,
    sample_terminal,
)
from .lipschitz import (
    LipschitzModel,
    doob_decompose,
    epsilon_delta_n,
    make_model,
    variance_sandwich,
    verify_a1_lipschitz,
)
from .transforms import (
    INF_GE_1,
    SUP_LE_1,
    restrict_to_v,
)

__all__ = [
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
