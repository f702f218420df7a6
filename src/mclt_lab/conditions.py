"""Moment-condition certification and the constant-free moment lemma checks.

Two conditions are certified for a kernel:

* moment domination: the smallest eps such that
  ``E[|xi_i|^(2+rho) | F] <= eps^rho E[xi_i^2 | F]`` holds at every step and
  every reachable history (the per-step ratio ``(m_{2+rho}/m_2)^(1/rho)``,
  with the 0/0 case counting as 0);
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

from .kernels import (
    ConditionalKernel,
    InvalidKernelError,
    KernelError,
    StepDistribution,
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
    ``per_step`` carries the worst per-step ratio seen (already raised to the
    1/rho power for the epsilon part).
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
        raise InvalidKernelError(step, (), reason)
    if dist.mode != "exact":
        raise KernelError("exhaustive certification requires an exact-mode kernel")
    atoms = tuple((v, p, abs(v)) for v, p in zip(dist.values, dist.probs) if p != 0.0)
    return dist, dist._m2_cached, atoms


def _ratio(dist: StepDistribution, rho: float) -> float:
    m2 = dist._m2_cached
    if m2 == 0.0:
        return 0.0  # degenerate step: the condition is vacuous
    value = dist.moment(2.0 + rho) / m2
    if not math.isfinite(value):
        raise KernelError("non-finite conditional moment ratio")
    return value


def _walk(kernel: ConditionalKernel, key, visit=None) -> list[list]:
    """Breadth-first walk of the reachable history tree, one level per step.

    A node is ``[state, <X>, probability, max |xi|, count]`` and stands for
    ``count`` histories.  Histories whose ``key(state, <X>, probability,
    max |xi|)`` agree share one node: the first one reached keeps its fields
    and the counts add up.  ``visit(step, law)`` sees each distinct law of a
    level once; the return value is the nodes of the terminal level.
    """
    init = kernel.initial_state()
    level = {key(init, 0.0, 1.0, 0.0): [init, 0.0, 1.0, 0.0, 1]}
    nodes = 0
    for step in range(1, kernel.n + 1):
        nxt: dict = {}
        # each law of the level is checked once, keyed on its id: hashing a
        # law hashes its value tuples; the table holds the law, so no other
        # law can take its id during the level
        laws: dict[int, tuple] = {}
        for state, acc, prob, top, count in level.values():
            dist = kernel.law_from_state(step, state)
            law = laws.get(id(dist))
            if law is None:
                law = laws[id(dist)] = _checked_law(step, dist)
                if visit is not None:
                    visit(step, dist)
            new_acc = acc + law[1]
            for value, p, size in law[2]:
                child = kernel.transition(state, value)
                child_prob = prob * p
                child_top = top if top >= size else size  # max(top, |value|)
                child_key = key(child, new_acc, child_prob, child_top)
                node = nxt.get(child_key)
                if node is not None:
                    node[4] += count
                    continue
                nxt[child_key] = [child, new_acc, child_prob, child_top, count]
                nodes += 1
                if nodes > NODE_GUARD:
                    raise WalkGuardExceeded(
                        f"history walk exceeded {NODE_GUARD} nodes at step {step}"
                    )
        level = nxt
    return list(level.values())


def _walk_epsilon(kernel: ConditionalKernel, rho: float) -> list[float]:
    """Worst per-step ratio over all reachable histories (state-deduplicated)."""
    per_step = [0.0] * kernel.n

    def visit(step, dist):
        per_step[step - 1] = max(per_step[step - 1], _ratio(dist, rho))

    _walk(kernel, lambda state, acc, prob, top: kernel.state_key(state), visit)
    return per_step


def _walk_delta(kernel: ConditionalKernel) -> float:
    """Sup over reachable histories of |<X>_n - 1| (state+variance dedup)."""
    terminal = _walk(
        kernel, lambda state, acc, prob, top: (kernel.state_key(state), round(acc, 14))
    )
    return max(abs(acc - 1.0) for _, acc, _, _, _ in terminal)


def minimal_epsilon(kernel: ConditionalKernel, rho: float) -> ConditionReport:
    """Smallest eps satisfying the moment-domination condition at this rho."""
    if rho <= 0.0:
        raise KernelError("rho must be positive")
    per_step_eps = [r ** (1.0 / rho) for r in _walk_epsilon(kernel, rho)]
    epsilon = max(per_step_eps) if per_step_eps else 0.0
    table = tuple(
        {"step": i + 1, "epsilon": e} for i, e in enumerate(per_step_eps)
    )
    notes: tuple[str, ...] = ()
    if epsilon > RANGE_LIMIT:
        notes = (f"epsilon {epsilon} exceeds the stated range (0, {RANGE_LIMIT}]",)
    return ConditionReport(
        rho=float(rho), epsilon=float(epsilon), delta=None, mode="certified",
        per_step=table, notes=notes,
    )


def minimal_delta(kernel: ConditionalKernel) -> ConditionReport:
    """Smallest delta with |<X>_n - 1| <= delta^2 over reachable histories."""
    dev = _walk_delta(kernel)
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


def _lemma_epsilon(dist: StepDistribution, s: float, m2: float) -> float:
    """(E|X|^s / m2)^(1/(s-2)), the least eps of the s-moment hypothesis.

    When E|X|^s is no normal float (it underflows or overflows at large s),
    the ratio is taken in log space around the largest |atom| A of positive
    probability: log eps = (s log A + log sum_i p_i (|x_i|/A)^s - log m2) / (s - 2).
    """
    ms = dist.moment(s)
    if 2.0**-1022 <= ms < math.inf:  # the least normal float
        return (ms / m2) ** (1.0 / (s - 2.0))
    atoms = [(p, abs(v)) for v, p in zip(dist.values, dist.probs) if p > 0.0 and v != 0.0]
    top = max(a for _, a in atoms)
    spread = math.fsum(p * (a / top) ** s for p, a in atoms)
    return math.exp(math.log(top) * (s / (s - 2.0)) + (math.log(spread) - math.log(m2)) / (s - 2.0))


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
    eps = _lemma_epsilon(dist, s, m2) if epsilon is None else float(epsilon)
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
