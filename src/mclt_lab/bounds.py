"""Normal-approximation rate functionals, constant-free.

Every bound in scope is evaluated as an explicit formula with its unknown
multiplicative constant dropped; empirical work therefore checks ratio
boundedness and fitted exponents, never absolute domination.  All logs are
natural (recorded in serialized output).

Functional ids and the parameters they consume:

=========  =============================================================
T1         gamma(rho, eps) + delta, gamma = eps^rho (rho<1) or eps|ln eps|
C1         gamma(rho, eps) alone (stopped-martingale variant)
T2         eps^rho (rho<1 only) + (E|<X>_n-1|^p + E max|xi|^(2p) + eps^(2p))^(1/(2p+1))
C2         (eps^(2p) + E|<X>_n-1|^p)^(1/(2p+1)) for bounded differences
HB         (E|<X>_n-1|^p + sum_i E|xi_i|^(2p))^(1/(2p+1))  (Heyde-Brown)
BOLT_A     eps^3 n ln n                                    (Bolthausen)
BOLT_B     eps^3 n ln n + min(||.||_1^(1/3) + eps^(2/3), ||.||_inf^(1/2))
RENZ       n^(-rho/2) (rho<1) or n^(-1/2) ln n (rho=1)     (Renz)
EO         eps ln n + ||<X>_n-1||_inf^(1/2)        (El Machkouri-Ouchti)
MOURRAT    eps^3 n ln n + eps^(2p/(2p+1)) + (E|<X>_n-1|^p)^(1/(2p+1))
=========  =============================================================

BOLT_B carries the published correction: the L1 branch of the minimum reads
``||<X>_n - 1||_1^(1/3) + eps^(2/3)``, not the bare L1 term.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .distance import exact_kolmogorov_discrete

__all__ = [
    "BoundSpec",
    "BOUNDS",
    "LOG_CONVENTION",
    "evaluate_rate",
    "evaluation_notes",
    "BoundTable",
    "compare_table",
    "JointLaw",
    "SmoothingCheck",
    "verify_smoothing_lemma",
    "BoundParameterError",
]

LOG_CONVENTION = "natural"

EPS_RANGE_IDS = frozenset({"T1", "C1", "T2", "C2"})


class BoundParameterError(ValueError):
    """Missing or out-of-range parameter for a bound functional."""


@dataclass(frozen=True)
class BoundSpec:
    id: str
    parameters: tuple[str, ...]
    description: str


BOUNDS: dict[str, BoundSpec] = {
    spec.id: spec
    for spec in (
        BoundSpec("T1", ("rho", "epsilon", "delta"),
                  "moment-ratio gamma plus terminal-variance delta"),
        BoundSpec("C1", ("rho", "epsilon"),
                  "moment-ratio gamma for the stopped martingale"),
        BoundSpec("T2", ("rho", "epsilon", "p", "var_dev_p", "max_inc_2p"),
                  "gamma plus pooled moment term at exponent 1/(2p+1)"),
        BoundSpec("C2", ("epsilon", "p", "var_dev_p"),
                  "bounded-difference specialization of T2"),
        BoundSpec("HB", ("p", "var_dev_p", "sum_inc_2p"),
                  "variance deviation plus summed increment moments"),
        BoundSpec("BOLT_A", ("epsilon", "n"),
                  "eps^3 n ln n under bounded increments and unit variance"),
        BoundSpec("BOLT_B", ("epsilon", "n", "var_dev_l1", "var_dev_linf"),
                  "eps^3 n ln n plus corrected variance-deviation minimum"),
        BoundSpec("RENZ", ("rho", "n"),
                  "n^(-rho/2), or n^(-1/2) ln n at rho = 1"),
        BoundSpec("EO", ("epsilon", "n", "var_dev_linf"),
                  "eps ln n plus sup variance deviation"),
        BoundSpec("MOURRAT", ("epsilon", "n", "p", "var_dev_p"),
                  "eps^3 n ln n plus eps and variance terms at 1/(2p+1)"),
    )
}


def _get(params: Mapping[str, float], bound_id: str, name: str) -> float:
    try:
        value = params[name]
    except KeyError:
        raise BoundParameterError(f"{bound_id} requires parameter {name!r}") from None
    value = float(value)
    if not math.isfinite(value):
        raise BoundParameterError(f"{bound_id}: parameter {name!r} is not finite")
    return value


def _gamma(rho: float, epsilon: float) -> float:
    """eps^rho below rho = 1, eps |ln eps| at and above."""
    if rho < 1.0:
        return epsilon**rho
    return epsilon * abs(math.log(epsilon))


def _check_common(bound_id: str, params: Mapping[str, float]) -> dict[str, float]:
    spec = BOUNDS.get(bound_id)
    if spec is None:
        raise BoundParameterError(f"unknown bound id {bound_id!r}")
    out = {name: _get(params, bound_id, name) for name in spec.parameters}
    if "rho" in out and out["rho"] <= 0.0:
        raise BoundParameterError(f"{bound_id}: rho must be positive")
    if "p" in out and out["p"] < 1.0:
        raise BoundParameterError(f"{bound_id}: p must be >= 1")
    if "n" in out and out["n"] < 2:
        raise BoundParameterError(f"{bound_id}: n must be >= 2")
    if "epsilon" in out:
        eps = out["epsilon"]
        if eps <= 0.0:
            raise BoundParameterError(f"{bound_id}: epsilon must be positive")
        if bound_id in EPS_RANGE_IDS and eps > 0.5:
            raise BoundParameterError(
                f"{bound_id}: epsilon {eps} outside the stated range (0, 0.5]"
            )
    for name in ("delta", "var_dev_p", "max_inc_2p", "sum_inc_2p", "var_dev_l1", "var_dev_linf"):
        if name in out and out[name] < 0.0:
            raise BoundParameterError(f"{bound_id}: {name} must be non-negative")
    return out


def evaluate_rate(bound_id: str, params: Mapping[str, float]) -> float:
    """Evaluate one rate functional (constant dropped) at named parameters."""
    v = _check_common(bound_id, params)
    if bound_id == "T1":
        return _gamma(v["rho"], v["epsilon"]) + v["delta"]
    if bound_id == "C1":
        return _gamma(v["rho"], v["epsilon"])
    if bound_id == "T2":
        core = (v["var_dev_p"] + v["max_inc_2p"] + v["epsilon"] ** (2.0 * v["p"])) ** (
            1.0 / (2.0 * v["p"] + 1.0)
        )
        if v["rho"] < 1.0:
            return v["epsilon"] ** v["rho"] + core
        return core
    if bound_id == "C2":
        return (v["epsilon"] ** (2.0 * v["p"]) + v["var_dev_p"]) ** (
            1.0 / (2.0 * v["p"] + 1.0)
        )
    if bound_id == "HB":
        return (v["var_dev_p"] + v["sum_inc_2p"]) ** (1.0 / (2.0 * v["p"] + 1.0))
    if bound_id == "BOLT_A":
        return v["epsilon"] ** 3 * v["n"] * math.log(v["n"])
    if bound_id == "BOLT_B":
        l1_branch = v["var_dev_l1"] ** (1.0 / 3.0) + v["epsilon"] ** (2.0 / 3.0)
        linf_branch = math.sqrt(v["var_dev_linf"])
        return v["epsilon"] ** 3 * v["n"] * math.log(v["n"]) + min(l1_branch, linf_branch)
    if bound_id == "RENZ":
        if v["rho"] > 1.0:
            raise BoundParameterError("RENZ is stated for rho in (0, 1]")
        if v["rho"] == 1.0:
            return v["n"] ** -0.5 * math.log(v["n"])
        return v["n"] ** (-v["rho"] / 2.0)
    if bound_id == "EO":
        return v["epsilon"] * math.log(v["n"]) + math.sqrt(v["var_dev_linf"])
    if bound_id == "MOURRAT":
        p = v["p"]
        return (
            v["epsilon"] ** 3 * v["n"] * math.log(v["n"])
            + v["epsilon"] ** (2.0 * p / (2.0 * p + 1.0))
            + v["var_dev_p"] ** (1.0 / (2.0 * p + 1.0))
        )
    raise BoundParameterError(f"unknown bound id {bound_id!r}")


def evaluation_notes(bound_id: str, params: Mapping[str, float]) -> tuple[str, ...]:
    """Non-fatal flags for an evaluation (e.g. extension regimes)."""
    notes = []
    if bound_id == "HB" and float(params.get("p", 1.0)) > 2.0:
        notes.append("HB at p > 2: extension regime beyond the original 1 < p <= 2")
    return tuple(notes)


@dataclass(frozen=True)
class BoundTable:
    ids: tuple[str, ...]
    grid: tuple[dict, ...]
    values: tuple[tuple[float, ...], ...]  # one row per grid point
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# log_convention={LOG_CONVENTION}; constant-free functionals\n")
        param_names = sorted({name for record in self.grid for name in record})
        buf.write(",".join(param_names + list(self.ids)) + "\n")
        for record, row in zip(self.grid, self.values):
            cells = [repr(float(record[name])) if name in record else "" for name in param_names]
            cells += [repr(value) for value in row]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def compare_table(ids: Sequence[str], grid: Sequence[Mapping[str, float]]) -> BoundTable:
    """Evaluate several functionals on a common parameter grid."""
    ids = tuple(ids)
    rows = []
    notes: list[str] = []
    for record in grid:
        row = []
        for bound_id in ids:
            row.append(evaluate_rate(bound_id, record))
            notes.extend(evaluation_notes(bound_id, record))
        rows.append(tuple(row))
    return BoundTable(
        ids=ids,
        grid=tuple(dict(r) for r in grid),
        values=tuple(rows),
        notes=tuple(dict.fromkeys(notes)),
    )


# ---------------------------------------------------------------------------
# smoothing inequality on finite joint laws


@dataclass(frozen=True)
class JointLaw:
    """Finite joint law of (X, Y): parallel value arrays with cell masses."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    probs: tuple[float, ...]

    def validate(self) -> None:
        if not (len(self.x) == len(self.y) == len(self.probs)) or not self.x:
            raise ValueError("joint law arrays must be equal-length and non-empty")
        # NaN fails every comparison below, so it has to be refused here
        if not all(math.isfinite(v) for v in (*self.x, *self.y, *self.probs)):
            raise ValueError("non-finite joint law value or probability")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("negative joint probabilities")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class SmoothingCheck:
    lhs: float  # D(X + Y)
    rhs: float  # 2 D(X) + 3 ||E[|Y|^(2p) | X]||_1 ^ (1/(2p+1))
    p: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def _smoothing_rhs(joint: JointLaw, d_x: float, p: float) -> float:
    """2 D(X) + 3 (E|Y|^(2p))^(1/(2p+1)), in Python floats."""
    try:
        moment = math.fsum(pr * abs(b) ** (2.0 * p) for b, pr in zip(joint.y, joint.probs))
    except OverflowError:  # E|Y|^(2p) past the float range: the bound holds vacuously
        moment = math.inf
    return 2.0 * d_x + 3.0 * moment ** (1.0 / (2.0 * p + 1.0))


def _stacked_laws(laws: Sequence[JointLaw]) -> tuple[np.ndarray, np.ndarray]:
    """The m laws' X (rows 0..m-1) and X + Y (rows m..2m-1) as one stack of
    (2m, width) supports and probabilities.  A row shorter than the longest
    law is padded with zero-mass copies of its first atom.

    Each law is checked as ``JointLaw.validate`` checks it; if one fails,
    the laws are validated one by one, in order, so the first bad law
    raises its own message."""
    lengths = [len(law.probs) for law in laws]
    flat = [np.fromiter(itertools.chain.from_iterable(getattr(law, name) for law in laws), float)
            for name in ("x", "y", "probs")]
    x, y, p = flat
    if not (all(len(law.x) == len(law.y) == n > 0 for law, n in zip(laws, lengths))
            and all(np.isfinite(a).all() for a in flat) and (p >= 0.0).all()
            and all(abs(math.fsum(law.probs) - 1.0) <= 1e-12 for law in laws)):
        for law in laws:
            law.validate()
    m = len(laws)
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]
    support = np.empty((2 * m, real.shape[1]))
    probs = np.zeros(support.shape)
    for rows, values in ((support[:m], x), (support[m:], x + y)):
        rows[real] = values
        np.copyto(rows, rows[:, :1], where=~real)
    probs[:m][real] = p
    probs[m:] = probs[:m]
    return support, probs


def verify_smoothing_lemma(
    joint: JointLaw | Sequence[JointLaw], p: float | Sequence[float]
) -> SmoothingCheck | list[tuple[SmoothingCheck, ...]]:
    """Exact two-sided evaluation of the smoothing inequality
    ``D(X+Y) <= 2 D(X) + 3 ||E[|Y|^(2p) | X]||_1^(1/(2p+1))`` on a finite law.

    Both distances come from exact enumeration; the conditional-moment term
    reduces to ``E|Y|^(2p)`` because the conditional expectation is
    non-negative.  A ``JointLaw`` and one p give one ``SmoothingCheck``.  A
    sequence of laws and a sequence of p give a list with one tuple of
    checks per law, one check per p, each equal to the one-law check: D(X)
    and D(X + Y) of all the laws come from one stacked
    ``exact_kolmogorov_discrete`` call, whatever the number of p.
    """
    if isinstance(joint, JointLaw):
        return verify_smoothing_lemma((joint,), (p,))[0][0]
    laws, p_values = tuple(joint), tuple(float(q) for q in p)
    if any(q < 1.0 for q in p_values):
        raise ValueError("p must be >= 1")
    if not laws:
        return []
    distances = exact_kolmogorov_discrete(*_stacked_laws(laws)).tolist()
    return [
        tuple(SmoothingCheck(lhs=d_sum, rhs=_smoothing_rhs(law, d_x, q), p=q) for q in p_values)
        for law, d_x, d_sum in zip(laws, distances[: len(laws)], distances[len(laws) :])
    ]
