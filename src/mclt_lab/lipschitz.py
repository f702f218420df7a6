"""Doob decomposition of separately Lipschitz functionals of independent
coordinates, with exact conditional expectations by tensor enumeration.

A model is ``f(eta_1..eta_n)`` with independent finite-support coordinates
and per-coordinate metrics d1_i <= |coordinate change of f| <= d2_i.  The
martingale increments are ``xi_k = g_k - g_{k-1}`` with
``g_k = E[f | eta_1..eta_k]``; everything here is computed by contracting
the full value tensor of f against coordinate weights, so all conditional
expectations, moments and the variance are exact up to float summation.

The normalization pair reported by :func:`epsilon_delta_n` is::

    eps_n   = max_i (E[(E[d2_i(eta_i, eta_i') | eta_i])^rho])^(1/rho)
              / sqrt(sum_i E[(E[d1_i(eta_i, eta_i') | eta_i])^2])
    delta_n = | sum_i E[(E[d2_i | eta_i])^2]
              / sum_i E[(E[d1_i | eta_i])^2]  -  1 |

with eta' an independent copy of eta.  The variance sandwich
``sum_i E[(E[d1_i|eta_i])^2] <= Var f <= sum_i E[(E[d2_i|eta_i])^2]`` has a
sound upper half (conditional Jensen); the lower half can fail on valid
inputs (three-point coordinates already break it), so it is reported as a
diagnostic, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CoordinateDistribution",
    "LipschitzModel",
    "DoobDecomposition",
    "doob_decompose",
    "EpsilonDelta",
    "epsilon_delta_n",
    "VarianceSandwich",
    "variance_sandwich",
    "verify_a1_lipschitz",
    "exact_distribution",
    "make_model",
    "model_from_config",
    "functional_sum",
    "functional_max",
    "functional_min",
    "abs_metric",
    "zero_metric",
    "discrete_metric",
    "MODEL_FAMILIES",
    "DegenerateMetricError",
    "DegenerateFunctionalError",
    "EnumerationGuardExceeded",
    "check_enumeration",
]

#: Outcomes in a model's product space.  The enumeration holds about 24 B
#: per outcome (f, the conditional tensors, the outcome weights) and peaks
#: near 40 B while it takes Var f, whatever n is, so the guard bounds its
#: memory near 400 MB.
ENUM_GUARD = 10_000_000
#: The enumeration's tensors have one axis per coordinate; numpy 1.x allows 32.
MAX_COORDS = 32
_BLOCK_ROWS = 1 << 14  # outcome rows per call of f
TOL = 1e-12


class EnumerationGuardExceeded(RuntimeError):
    """The model's product space has more than ENUM_GUARD outcomes."""


class DegenerateMetricError(ValueError):
    """The lower metrics are identically zero, so eps_n has no denominator."""


class DegenerateFunctionalError(ValueError):
    """f is not finite, or is constant, so (f - E f) / sd(f) has no law."""


@dataclass(frozen=True)
class CoordinateDistribution:
    values: tuple[float, ...]
    probs: tuple[float, ...]

    def validate(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("coordinate support and probabilities disagree")
        # NaN fails every comparison below, so it has to be refused here
        if not all(math.isfinite(x) for x in (*self.values, *self.probs)):
            raise ValueError("non-finite coordinate value or probability")
        if any(p < 0.0 for p in self.probs):
            raise ValueError("negative coordinate probability")
        if abs(math.fsum(self.probs) - 1.0) > TOL:
            raise ValueError("coordinate probabilities do not sum to 1")


Metric = Callable[[float, float], float]


def abs_metric(scale: float = 1.0) -> Metric:
    def d(x: float, y: float) -> float:
        return scale * abs(x - y)

    return d


def zero_metric() -> Metric:
    return lambda x, y: 0.0


def discrete_metric(scale: float = 1.0) -> Metric:
    """``scale`` off the diagonal, 0 on it; dominates any function whose
    total spread is at most ``scale``."""

    def d(x: float, y: float) -> float:
        return 0.0 if x == y else scale

    return d


def functional_sum(weights: Sequence[float] | None = None):
    if weights is None:
        return lambda grid: np.sum(grid, axis=-1)
    w = np.asarray(weights, dtype=float)
    return lambda grid: grid @ w


def _columnwise(op, zero):
    """Each row's reduction by ``op`` (``np.maximum`` or ``np.minimum``),
    folded one column at a time into one buffer: exact, as ``op`` picks an
    element, and less than half the time of ``np.max(grid, axis=-1)``,
    which reduces each short C-order row on its own.

    Where a row's result is a zero, it is ``zero`` if the row holds that
    zero, else the other one (+0.0 is the larger): ``np.max`` and ``np.min``
    pick the sign of a +-0.0 tie by their SIMD reduction order, which varies
    with the CPU features numpy dispatches to."""

    def f(grid: np.ndarray) -> np.ndarray:
        out = grid[:, 0].copy()
        for c in range(1, grid.shape[1]):
            op(out, grid[:, c], out=out)
        ties = out == 0.0
        if ties.any():
            rows = grid[ties]
            held = ((rows == 0.0) & (np.signbit(rows) == np.signbit(zero))).any(axis=1)
            out[ties] = np.where(held, zero, -zero)
        return out

    return f


def functional_max():
    return _columnwise(np.maximum, 0.0)


def functional_min():
    return _columnwise(np.minimum, -0.0)


@dataclass(frozen=True)
class LipschitzModel:
    """Coordinates, functional and two-sided coordinate metrics."""

    coords: tuple[CoordinateDistribution, ...]
    f: Callable[[np.ndarray], np.ndarray]  # (m, n) -> (m,), each row on its own
    d1: tuple[Metric, ...]
    d2: tuple[Metric, ...]
    rho: float = 1.0
    label: str = field(default="model", compare=False)  # any JSON value; not hashed

    @property
    def n(self) -> int:
        return len(self.coords)

    def validate(self) -> None:
        if not self.coords:
            raise ValueError("model needs at least one coordinate")
        if not (len(self.d1) == len(self.d2) == self.n):
            raise ValueError("one metric pair per coordinate required")
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")
        for c in self.coords:
            c.validate()
        # the enumerated weights are products of n <= MAX_COORDS probabilities;
        # their total is within 3n * 2^-53 of this one, so it passes TOL too
        total = math.prod(math.fsum(c.probs) for c in self.coords)
        if abs(total - 1.0) > TOL - min(self.n, MAX_COORDS) * 2.0**-50:
            raise ValueError(f"product probabilities sum to {total!r}, not 1")


def check_enumeration(model: LipschitzModel) -> int:
    """The number of outcomes in ``model``'s product space; more than
    ``ENUM_GUARD`` (or ``MAX_COORDS`` axes) is refused, before any is built."""
    if model.n > MAX_COORDS:
        raise EnumerationGuardExceeded(
            f"{model.n} coordinates exceed the enumeration's {MAX_COORDS} tensor axes"
        )
    size = 1
    for c in model.coords:
        size *= len(c.values)
        if size > ENUM_GUARD:
            raise EnumerationGuardExceeded(
                f"product support size exceeds {ENUM_GUARD} outcomes; "
                "use fewer coordinates or smaller supports"
            )
    return size


@dataclass(frozen=True)
class _Enumeration:
    dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    f_values: np.ndarray  # tensor of f over the product space
    g_tensors: tuple[np.ndarray, ...]  # g_0 (scalar) .. g_n (= f tensor)
    probs: np.ndarray  # product weight of every outcome, shape dims
    variance: float  # Var f

    @property
    def mean(self) -> float:
        return float(self.g_tensors[0])


@lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")  # a non-finite f or Var f is refused
def _enumeration(model: LipschitzModel) -> _Enumeration:
    """Everything exact about a model, from one pass of f over its outcomes.

    Cached for the latest model (models are frozen), so a run's calls on one
    model share the k^n tensor; the shared arrays are read-only.
    """
    model.validate()
    size = check_enumeration(model)
    dims = tuple(len(c.values) for c in model.coords)
    axes = [np.asarray(c.values, dtype=float) for c in model.coords]
    # f maps each outcome row on its own, so it runs on blocks of rows: the
    # trailing coordinates whose support product fits a block vary inside it
    # (their meshgrid is built once; at least the last coordinate, if its
    # support alone exceeds a block), the leading ones are fixed per block,
    # in C order
    split, rows = model.n - 1, dims[-1]
    while split > 0 and rows * dims[split - 1] <= _BLOCK_ROWS:
        split -= 1
        rows *= dims[split]
    block = np.empty((rows, model.n))
    for col, grid in enumerate(np.meshgrid(*axes[split:], indexing="ij", copy=False), split):
        block[:, col] = grid.reshape(rows)
    f_values = np.empty(size)
    for start, lead in zip(range(0, size, rows), np.ndindex(*dims[:split])):
        block[:, :split] = [axis[i] for axis, i in zip(axes, lead)]
        f_values[start : start + rows] = model.f(block)
    del block  # (rows, n) floats, up to 9 B per outcome at n=18
    f_values = f_values.reshape(dims)
    if not np.all(np.isfinite(f_values)):
        raise DegenerateFunctionalError("functional produced non-finite values")
    weights = tuple(np.asarray(c.probs, dtype=float) for c in model.coords)
    g_tensors: list[np.ndarray] = [f_values]
    g = f_values
    for k in range(model.n - 1, -1, -1):
        g = np.tensordot(g, weights[k], axes=([k], [0]))
        g_tensors.append(g)
    g_tensors.reverse()  # g_tensors[k] has shape dims[:k]
    # outcome weights one coordinate at a time into a contiguous (|P|, d)
    # buffer, left to right as reduce(np.multiply.outer, weights) multiplies,
    # but a column per atom instead of an inner loop of d elements
    probs = weights[0]
    for w in weights[1:]:
        out = np.empty((probs.size, w.size))
        for j, wj in enumerate(w.tolist()):
            np.multiply(probs, wj, out=out[:, j])
        probs = out.reshape(-1)
    probs = probs.reshape(dims)
    # Var f = sum probs * (f - E f)^2, each operation written into one buffer
    spread = np.subtract(f_values, float(g_tensors[0]))
    np.multiply(probs, np.square(spread, out=spread), out=spread)
    variance = float(np.sum(spread))
    if not math.isfinite(variance):
        raise DegenerateFunctionalError("functional's variance is not a finite float")
    for array in (*weights, *g_tensors, probs):
        array.flags.writeable = False
    return _Enumeration(
        dims=dims,
        weights=weights,
        f_values=f_values,
        g_tensors=tuple(g_tensors),
        probs=probs,
        variance=variance,
    )


@dataclass(frozen=True)
class DoobDecomposition:
    """Martingale increments of f - E f along one realization."""

    increments: tuple[float, ...]
    centered_value: float  # f(realization) - E f
    conditional_values: tuple[float, ...]  # g_0..g_n along the realization

    @property
    def telescoping_defect(self) -> float:
        return abs(math.fsum(self.increments) - self.centered_value)


def _coordinate_indexes(model: LipschitzModel, realization: Sequence[float]) -> list[int]:
    if len(realization) != model.n:
        raise ValueError("realization length does not match the coordinate count")
    idx = []
    for value, coord in zip(realization, model.coords):
        try:
            idx.append(coord.values.index(float(value)))
        except ValueError:
            raise ValueError(f"value {value!r} is not in the coordinate support") from None
    return idx


def doob_decompose(model: LipschitzModel, realization: Sequence[float]) -> DoobDecomposition:
    """Exact increments g_k - g_{k-1} along a realization (tensor contraction)."""
    enum = _enumeration(model)
    idx = _coordinate_indexes(model, realization)
    g_along = [float(enum.g_tensors[0])]
    for k in range(1, model.n + 1):
        g_along.append(float(enum.g_tensors[k][tuple(idx[:k])]))
    increments = tuple(g_along[k] - g_along[k - 1] for k in range(1, model.n + 1))
    return DoobDecomposition(
        increments=increments,
        centered_value=g_along[-1] - g_along[0],
        conditional_values=tuple(g_along),
    )


# ---------------------------------------------------------------------------
# normalization quantities


@np.errstate(over="ignore", invalid="ignore")
def _metric_moment(coord: CoordinateDistribution, metric: Metric, power: float) -> float:
    """E[(E[d(eta, eta') | eta])^power] with eta' an independent copy of eta;
    inf or NaN, without a warning, once it leaves the float range."""
    vals = coord.values
    probs = coord.probs
    inner = np.array(
        [math.fsum(p * metric(x, y) for y, p in zip(vals, probs)) for x in vals]
    )
    return float(np.sum(np.asarray(probs) * inner**power))


@dataclass(frozen=True)
class EpsilonDelta:
    epsilon_n: float
    delta_n: float
    numerator: float
    denominator_sq: float


def epsilon_delta_n(model: LipschitzModel) -> EpsilonDelta:
    """Exact (eps_n, delta_n) of the model; a metric moment, eps_n or delta_n
    past float range is a ValueError."""
    model.validate()
    numerator = max(
        _metric_moment(c, d, model.rho) ** (1.0 / model.rho) for c, d in zip(model.coords, model.d2)
    )
    denom_sq = math.fsum(_metric_moment(c, d, 2) for c, d in zip(model.coords, model.d1))
    upper_sq = math.fsum(_metric_moment(c, d, 2) for c, d in zip(model.coords, model.d2))
    if not all(map(math.isfinite, (numerator, denom_sq, upper_sq))):
        raise ValueError("a metric moment is not a finite float")
    if denom_sq <= 0.0:
        raise DegenerateMetricError("lower metrics are identically zero")
    epsilon_n = numerator / math.sqrt(denom_sq)
    delta_n = abs(upper_sq / denom_sq - 1.0)
    if not (math.isfinite(epsilon_n) and math.isfinite(delta_n)):
        # finite moments, but a lower one so small that a ratio overflows
        raise ValueError("epsilon_n or delta_n is not a finite float")
    return EpsilonDelta(
        epsilon_n=float(epsilon_n),
        delta_n=float(delta_n),
        numerator=float(numerator),
        denominator_sq=float(denom_sq),
    )


@dataclass(frozen=True)
class VarianceSandwich:
    lower: float
    variance: float
    upper: float
    upper_holds: bool  # must be true for valid d2; asserted by callers
    lower_holds: bool  # diagnostic only: fails on valid inputs


def variance_sandwich(model: LipschitzModel) -> VarianceSandwich:
    """Exact Var(f) against the metric sums; the lower bound is a diagnostic."""
    enum = _enumeration(model)
    variance = enum.variance
    lower = upper = 0.0
    for coord, m1, m2 in zip(model.coords, model.d1, model.d2):
        lower += _metric_moment(coord, m1, 2)
        upper += _metric_moment(coord, m2, 2)
    return VarianceSandwich(
        lower=lower,
        variance=variance,
        upper=upper,
        upper_holds=variance <= upper + TOL,
        lower_holds=lower <= variance + TOL,
    )


def verify_a1_lipschitz(model: LipschitzModel) -> list[dict]:
    """Per-step check of the moment-domination transfer.

    For every step i and prefix history, verifies
    ``E[|xi_i|^(2+rho) | prefix] <= E[(E[d2_i|eta_i])^rho] * E[xi_i^2 | prefix]``
    within 1e-12; degenerate prefixes (zero conditional variance) pass
    vacuously.
    """
    enum = _enumeration(model)
    rho = model.rho
    report = []
    for i in range(1, model.n + 1):
        g_i = enum.g_tensors[i]  # shape dims[:i]
        g_prev = enum.g_tensors[i - 1]  # shape dims[:i-1]
        xi = g_i - g_prev[..., None]
        w = enum.weights[i - 1]
        lhs = np.tensordot(np.abs(xi) ** (2.0 + rho), w, axes=([i - 1], [0]))
        m2 = np.tensordot(xi**2, w, axes=([i - 1], [0]))
        factor = _metric_moment(model.coords[i - 1], model.d2[i - 1], rho)
        rhs = factor * m2
        slack = rhs - lhs
        nontrivial = m2 > 0.0
        holds = bool(np.all(lhs <= rhs + TOL * np.maximum(rhs, 1.0)))
        equality = bool(
            np.all(np.abs(slack[nontrivial]) <= TOL * np.maximum(rhs[nontrivial], 1.0))
        ) if np.any(nontrivial) else True
        report.append(
            {
                "step": i,
                "holds": holds,
                "vacuous": not bool(np.any(nontrivial)),
                "equality": equality,
                "max_lhs_minus_rhs": float(np.max(lhs - rhs)) if lhs.size else 0.0,
            }
        )
    return report


def exact_distribution(model: LipschitzModel):
    """Support and probabilities of (f - E f) / sqrt(Var f)."""
    enum = _enumeration(model)
    if enum.variance <= 0.0:
        raise DegenerateFunctionalError("degenerate functional: zero variance")
    centered = (enum.f_values - enum.mean).reshape(-1) / math.sqrt(enum.variance)
    return centered, enum.probs.reshape(-1)


# ---------------------------------------------------------------------------
# model registry


def _rademacher_average(n: int, rho: float = 1.0) -> LipschitzModel:
    scale = 1.0 / math.sqrt(n)
    coord = CoordinateDistribution(values=(-1.0, 1.0), probs=(0.5, 0.5))
    metric = abs_metric(scale)
    return LipschitzModel(
        coords=(coord,) * n,
        f=functional_sum([scale] * n),
        d1=(metric,) * n,
        d2=(metric,) * n,
        rho=rho,
        label=f"rademacher_average(n={n})",
    )


def _max_of_bits(n: int, rho: float = 1.0) -> LipschitzModel:
    coord = CoordinateDistribution(values=(0.0, 1.0), probs=(0.5, 0.5))
    return LipschitzModel(
        coords=(coord,) * n,
        f=functional_max(),
        d1=(zero_metric(),) * n,
        d2=(abs_metric(),) * n,
        rho=rho,
        label=f"max_of_bits(n={n})",
    )


def _uniform_triple_sum(n: int, rho: float = 1.0) -> LipschitzModel:
    third = 1.0 / 3.0
    coord = CoordinateDistribution(values=(0.0, 1.0, 2.0), probs=(third, third, third))
    metric = abs_metric()
    return LipschitzModel(
        coords=(coord,) * n,
        f=functional_sum(),
        d1=(metric,) * n,
        d2=(metric,) * n,
        rho=rho,
        label=f"uniform_triple_sum(n={n})",
    )


MODEL_FAMILIES = {
    "rademacher_average": _rademacher_average,
    "max_of_bits": _max_of_bits,
    "uniform_triple_sum": _uniform_triple_sum,
}


def make_model(name: str, **params) -> LipschitzModel:
    try:
        family = MODEL_FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown model family {name!r}") from None
    return family(**params)


def _metric_from_config(spec: dict, n: int) -> tuple[Metric, ...]:
    kind = spec.get("kind", "abs_diff")
    if kind == "zero":
        return (zero_metric(),) * n
    if kind == "abs_diff":
        if "scales" in spec:
            scales = [float(s) for s in spec["scales"]]
            if len(scales) != n:
                raise ValueError("metric scales must match the coordinate count")
            return tuple(abs_metric(s) for s in scales)
        return (abs_metric(float(spec.get("scale", 1.0))),) * n
    raise ValueError(f"unknown metric kind {kind!r}")


def model_from_config(ref: dict) -> LipschitzModel:
    """Build a model from a config reference.

    Either ``{"name": ..., "params": {...}}`` for a registry family, or the
    expression form with ``coords`` (tabulated distributions), ``f`` (sum /
    weighted_sum / max / min) and ``metrics`` ({"d1": ..., "d2": ...}).
    """
    if "name" in ref:
        return make_model(ref["name"], **ref.get("params", {}))
    coords = tuple(
        CoordinateDistribution(
            values=tuple(float(v) for v in c["values"]),
            probs=tuple(float(p) for p in c["probs"]),
        )
        for c in ref["coords"]
    )
    n = len(coords)
    f_spec = ref["f"]
    kind = f_spec["kind"]
    if kind == "sum":
        f = functional_sum()
    elif kind == "weighted_sum":
        weights = [float(w) for w in f_spec["weights"]]
        if len(weights) != n:
            raise ValueError("weighted_sum needs one weight per coordinate")
        f = functional_sum(weights)
    elif kind == "max":
        f = functional_max()
    elif kind == "min":
        f = functional_min()
    else:
        raise ValueError(f"unknown functional kind {kind!r}")
    metrics = ref.get("metrics", {})
    d2 = _metric_from_config(metrics.get("d2", {"kind": "abs_diff"}), n)
    d1 = _metric_from_config(metrics.get("d1", metrics.get("d2", {"kind": "abs_diff"})), n)
    return LipschitzModel(
        coords=coords,
        f=f,
        d1=d1,
        d2=d2,
        rho=float(ref.get("rho", 1.0)),
        label=ref.get("label", "config_model"),
    )
