"""Moment-condition certification and the constant-free moment lemma checks.

Two conditions are certified for a kernel:

* moment domination: the smallest eps such that
  ``E[|xi_i|^(2+rho) | F] <= eps^rho E[xi_i^2 | F]`` holds at every step and
  every reachable history (the largest ``StepDistribution.epsilon(rho)``,
  ``(m_{2+rho}/m_2)^(1/rho)``, of the laws a step takes);
* terminal variance proximity: the smallest delta with
  ``|<X>_n - 1| <= delta^2`` over reachable histories.

Reports walk the full reachable history tree, deduplicating histories
through the kernel's declared Markov summary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .kernels import (
    ConditionalKernel,
    InvalidKernelError,
    KernelError,
    StepDistribution,
    _per_value,
    # unused here; perfbench's tracer wraps this binding and its self-test
    # asserts that it does
    sample_paths,
)

__all__ = [
    "ConditionReport",
    "minimal_epsilon",
    "minimal_delta",
    "MomentLemmaReport",
    "verify_moment_lemmas",
    "WalkGuardExceeded",
]

NODE_GUARD = 10_000_000
RANGE_LIMIT = 0.5  # the conditions are stated for eps, delta in (0, 1/2]


class WalkGuardExceeded(RuntimeError):
    """The reachable history tree is too large for exhaustive certification."""


@dataclass(frozen=True)
class ConditionReport:
    """Certified (epsilon, delta) for one kernel.

    ``mode`` is always "certified": every reachable history was examined.
    ``per_step`` carries each step's largest eps over the laws it takes.
    """

    rho: float | None
    epsilon: float | None
    delta: float | None
    mode: str
    per_step: tuple[dict, ...] = field(default_factory=tuple)
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def out_of_range(self) -> bool:
        eps_bad = self.epsilon is not None and self.epsilon > RANGE_LIMIT
        delta_bad = self.delta is not None and self.delta > RANGE_LIMIT
        return eps_bad or delta_bad

    def to_json(self) -> str:
        doc = {
            "rho": self.rho,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "mode": self.mode,
            "per_step": list(self.per_step),
            "out_of_range": self.out_of_range,
            "notes": list(self.notes),
        }
        return json.dumps(doc, sort_keys=True)


def _checked_law(step, dist: StepDistribution) -> tuple:
    """``(law, E xi^2, its (value, probability, |value|) atoms of nonzero
    probability)``, once the law is known valid and exact-mode."""
    reason = dist._check_cached
    if reason is not None:
        raise InvalidKernelError(step, reason)
    if dist.mode != "exact":
        raise KernelError("exhaustive certification requires an exact-mode kernel")
    atoms = tuple((v, p, abs(v)) for v, p in zip(dist.values, dist.probs) if p != 0.0)
    return dist, dist._m2_cached, atoms


def _packed(key: np.ndarray, size: int, column: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """``(key * span + column, size * span)`` for a key below ``size`` and
    a column below ``span``; a key about to pass 2^62 is replaced by its
    rank first."""
    if size * span > 2**62:
        key = np.unique(key, return_inverse=True)[1]
        size = int(key.max()) + 1
    return key * span + column, size * span


def _classes(columns, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by equal values in every column: ``(order, starts)``, a
    stable sort of the row indices by class and where each class begins in
    it, so that ``order[starts]`` holds each class's first row.

    The columns are packed into one int64 key, an integer column by its
    span and a float column by the rank of its value, so that equal floats
    share a class as equal dict keys do.
    """
    key, size = np.zeros(rows, dtype=np.int64), 1
    for column in columns:
        if column.dtype.kind == "f":
            column = np.unique(column, return_inverse=True)[1]
        low = int(column.min())
        key, size = _packed(key, size, column - low, int(column.max()) - low + 1)
    # with the row index every key is distinct, so any sort gives the one
    # order, the stable sort by class
    order = np.argsort(_packed(key, size, np.arange(rows), rows)[0])
    ordered = key[order]
    return order, np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


def _level_laws(kernel: ConditionalKernel, step, laws: list[StepDistribution]) -> tuple:
    """``(E xi^2, probabilities, |values|, moves, real)`` of a level's laws,
    once each is known valid and exact-mode: a row per law of its atoms of
    nonzero probability, padded to one width, with ``real`` marking the
    atoms that are not padding (None where no row is padded).  An atom's
    move is what it adds to a declared state's counts."""
    checked = [_checked_law(step, dist) for dist in laws]
    widths = np.array([len(atoms) for _, _, atoms in checked])
    width, init = int(widths.max()), kernel.initial_state()
    probs, sizes = np.zeros((len(laws), width)), np.zeros((len(laws), width))
    moves = np.zeros((len(laws), width, len(init or ())), dtype=np.int64)
    for j, (_, _, atoms) in enumerate(checked):
        for i, (value, p, size) in enumerate(atoms):
            probs[j, i], sizes[j, i] = p, size
            moves[j, i] = kernel.transition(init, value) or ()  # from zero counts; () for none
    real = None if widths.min() == width else np.arange(width) < widths[:, None]
    return np.array([m2 for _, m2, _ in checked]), probs, sizes, moves, real


def _walk(kernel: ConditionalKernel, carry=(), key=None, visit=None) -> dict[str, np.ndarray]:
    """Breadth-first walk of the reachable history tree, one numpy pass per step.

    A level holds its nodes as columns: ``state``, the kernel's declared
    counts (int64, one column per magnitude), and those of ``acc`` (<X>),
    ``prob``, ``top`` (max |xi|) and ``count`` (the histories a node stands
    for, as Python ints) that ``carry`` names.  Children are laid out
    parent-major, atom-minor.  Those whose states and ``key(children)``
    columns agree share one node: the first one in that order keeps its
    fields and the counts add up, and the nodes keep the order in which
    they were first reached.  ``visit(step, law)`` sees each distinct law of
    a level once, in that order; the return value is the columns of the
    terminal level.
    """
    init = kernel.initial_state()
    root = {"state": np.zeros((1, len(init or ())), dtype=np.int64), "acc": np.zeros(1),
            "prob": np.ones(1), "top": np.zeros(1), "count": np.array([1], dtype=object)}
    level = {name: root[name] for name in ("state", *carry)}
    # the atoms of each level's laws, keyed on their ids: hashing a law
    # hashes its value tuples; the table holds the laws, so no other law
    # can take their ids
    tables: dict[tuple, tuple] = {}
    nodes = 0
    for step in range(1, kernel.n + 1):
        state = level["state"]
        # each node's regime, then the law of each regime from the first state in it
        regime = kernel.regime_of_state(state.T, regime=np.empty(len(state), dtype=np.intp))
        switched = regime != regime[0]
        laws: list[StepDistribution] = []
        for first in (0, *np.flatnonzero(switched)[:1].tolist()):
            dist = kernel.law_from_state(step, None if init is None else tuple(state[first].tolist()))
            if all(dist is not law for law in laws):
                laws.append(dist)
        ids = tuple(map(id, laws))
        if ids not in tables:
            tables[ids] = (laws, _level_laws(kernel, step, laws))
        m2, probs, sizes, moves, real = tables[ids][1]
        if visit is not None:
            for dist in laws:
                visit(step, dist)
        # a parent in the first regime reached takes the first law's row
        row = slice(0, 1) if len(laws) == 1 else switched.astype(np.intp)
        width = probs.shape[1]
        children = {"state": (state[:, None, :] + moves[row]).reshape(len(state) * width, -1)}
        if "acc" in level:
            children["acc"] = np.repeat(level["acc"] + m2[row], width)
        if "prob" in level:
            children["prob"] = (level["prob"][:, None] * probs[row]).reshape(-1)
        if "top" in level:
            children["top"] = np.maximum(level["top"][:, None], sizes[row]).reshape(-1)
        if "count" in level:
            children["count"] = np.repeat(level["count"], width)
        if real is not None:
            children = {name: column[real[row].reshape(-1)] for name, column in children.items()}
        extra = () if key is None else key(children)
        order, starts = _classes([*children["state"].T, *extra], len(children["state"]))
        first = order[starts]
        rank = np.argsort(first)
        level = {name: column[first[rank]] for name, column in children.items()}
        if "count" in level:
            level["count"] = np.add.reduceat(children["count"][order], starts)[rank]
        nodes += len(first)
        if nodes > NODE_GUARD:
            raise WalkGuardExceeded(f"history walk exceeded {NODE_GUARD} nodes at step {step}")
    return level


def minimal_epsilon(kernel: ConditionalKernel, rho: float) -> ConditionReport:
    """Smallest eps satisfying the moment-domination condition at this rho."""
    if rho <= 0.0:
        raise KernelError("rho must be positive")
    per_step = [0.0] * kernel.n

    def visit(step, dist):
        per_step[step - 1] = max(per_step[step - 1], dist.epsilon(rho))

    _walk(kernel, visit=visit)
    epsilon = max(per_step) if per_step else 0.0
    table = tuple({"step": i + 1, "epsilon": e} for i, e in enumerate(per_step))
    notes: tuple[str, ...] = ()
    if epsilon > RANGE_LIMIT:
        notes = (f"epsilon {epsilon} exceeds the stated range (0, {RANGE_LIMIT}]",)
    return ConditionReport(
        rho=float(rho), epsilon=float(epsilon), delta=None, mode="certified",
        per_step=table, notes=notes,
    )


def minimal_delta(kernel: ConditionalKernel) -> ConditionReport:
    """Smallest delta with |<X>_n - 1| <= delta^2 over reachable histories."""
    # merged on the state and <X> to 14 decimals: the first <X> reached stands for its class
    acc = _walk(kernel, carry=("acc",),
                key=lambda children: (_per_value(lambda v: round(v, 14), children["acc"]),))["acc"]
    dev = float(np.abs(acc - 1.0).max())
    if dev < 1e-12:
        # summation dust on kernels whose variance path is constant 1; the
        # square root would otherwise inflate ~1e-16 into delta ~ 1e-8
        dev = 0.0
    delta = math.sqrt(dev)
    notes: tuple[str, ...] = ()
    if delta > RANGE_LIMIT:
        notes = (f"delta {delta} exceeds the stated range (0, {RANGE_LIMIT}]",)
    return ConditionReport(
        rho=None, epsilon=None, delta=float(delta), mode="certified", notes=notes,
    )


# ---------------------------------------------------------------------------
# moment lemmas (exact, constant-free)

REL_TOL = 1e-12


@dataclass(frozen=True)
class MomentLemmaReport:
    """Moment interpolation and variance cap checks for one distribution.

    With ``eps = (m_s / m_2)^(1/(s-2))`` (the smallest eps satisfying the
    s-moment hypothesis), interpolation asserts ``m_t <= eps^(t-2) m_2`` for
    each requested t in [2, s), and the variance cap asserts ``m_2 <= eps^2``.
    """

    s: float
    epsilon: float
    vacuous: bool
    interpolation: tuple[dict, ...]
    variance_cap: dict
    all_hold: bool


def verify_moment_lemmas(
    dist: StepDistribution,
    s: float,
    t_grid: Sequence[float],
    epsilon: float | None = None,
) -> MomentLemmaReport:
    """Check the interpolation and variance-cap implications on one law.

    ``epsilon`` defaults to the minimal value allowed by the s-moment
    hypothesis; a user-supplied larger value only weakens the conclusions.
    """
    if s <= 2.0:
        raise ValueError("the hypothesis needs s > 2")
    if any(t < 2.0 or t >= s for t in t_grid):
        raise ValueError("t grid must lie in [2, s)")
    if dist.mode != "exact":
        raise ValueError("exact-mode distribution required")
    m2 = dist.moment(2)
    if m2 == 0.0:
        return MomentLemmaReport(
            s=float(s), epsilon=0.0, vacuous=True, interpolation=(),
            variance_cap={"m2": 0.0, "bound": 0.0, "holds": True}, all_hold=True,
        )
    eps = dist.epsilon(s - 2.0) if epsilon is None else float(epsilon)
    rows = []
    ok = True
    for t in t_grid:
        mt = dist.moment(t)
        bound = eps ** (t - 2.0) * m2
        holds = mt <= bound * (1.0 + REL_TOL)
        ok = ok and holds
        rows.append({"t": float(t), "moment": mt, "bound": bound, "holds": holds})
    cap_bound = eps * eps
    cap_holds = m2 <= cap_bound * (1.0 + REL_TOL)
    ok = ok and cap_holds
    return MomentLemmaReport(
        s=float(s),
        epsilon=eps,
        vacuous=False,
        interpolation=tuple(rows),
        variance_cap={"m2": m2, "bound": cap_bound, "holds": cap_holds},
        all_hold=ok,
    )
