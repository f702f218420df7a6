"""The exact oracles against their reference forms: the terminal moments
against the full depth-first path search, the array walk of the history tree
against the dict walk that takes one node at a time, the variance-drift
lattice against its full-layout DP."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mclt_lab import conditions, kernels, oracles
from mclt_lab.kernels import (
    ConditionalKernel,
    InvalidKernelError,
    KernelError,
    StepDistribution,
    TableKernel,
    VarianceDriftKernel,
    make_kernel,
    rademacher_two_point,
)


def _depth_first_moments(kernel, p):
    """(E|<X>_n - 1|^p, E max|xi|^(2p), sup |<X>_n - 1|, leaf count) by the
    recursive search that visits every leaf of the path tree: the reference
    that the merged walk of ``exact_terminal_moments`` must equal bit for bit."""
    leaves = []

    def visit(step, state, prob, acc, top):
        if step > kernel.n:
            leaves.append((prob, acc, top))
            return
        dist = kernel.law_from_state(step, state)
        m2 = dist.moment(2)
        for value, q in zip(dist.values, dist.probs):
            if q != 0.0:
                visit(step + 1, kernel.transition(state, value), prob * q, acc + m2,
                      max(top, abs(value)))

    visit(1, kernel.initial_state(), 1.0, 0.0, 0.0)
    return (
        math.fsum(pr * abs(v - 1.0) ** p for pr, v, _ in leaves),
        math.fsum(pr * m ** (2.0 * p) for pr, _, m in leaves),
        max(abs(v - 1.0) for _, v, _ in leaves),
        len(leaves),
    )


_TABLE = TableKernel([
    StepDistribution(values=(-0.5, 0.5, 0.5), probs=(0.5, 0.25, 0.25)),  # a repeated atom
    StepDistribution(values=(-0.3, 0.0, 0.3), probs=(0.5, 0.0, 0.5)),  # a zero-probability atom
    StepDistribution(values=(-0.4, 0.0, 0.2), probs=(0.25, 0.25, 0.5)),
    StepDistribution(values=(-0.5, 0.5, 0.5), probs=(0.5, 0.25, 0.25)),
])

_KERNELS = [
    *(VarianceDriftKernel(n, 0.2) for n in range(1, 15)),
    make_kernel("three_point", n=8, b=0.5, q=0.5),
    make_kernel("iid_scaled", n=10, values=(-2.0, 1.0), probs=(1.0 / 3.0, 2.0 / 3.0)),
    _TABLE,
]


@pytest.mark.parametrize("kernel", _KERNELS, ids=lambda k: k.label)
def test_terminal_moments_equal_depth_first_search(kernel):
    for p in (1.0, 1.5, 2.0):
        got = oracles.exact_terminal_moments(kernel, p)
        want = _depth_first_moments(kernel, p)
        assert [x.hex() for x in want[:3]] == [
            got.mean_var_dev_p.hex(), got.mean_max_inc_2p.hex(), got.max_var_dev.hex()]
        assert got.leaves == want[3]


def test_terminal_moments_keep_an_infinite_variance():
    # a valid law whose E xi^2 overflows: the deviation term is inf, which no
    # exact rational sum takes, and at p < 1 the other terms stay finite
    huge = TableKernel([StepDistribution(values=(-1e200, 1e200), probs=(0.5, 0.5))] * 2)
    got = oracles.exact_terminal_moments(huge, 0.5)
    want = _depth_first_moments(huge, 0.5)
    assert (got.mean_var_dev_p, got.mean_max_inc_2p, got.max_var_dev, got.leaves) == want
    assert math.isinf(got.mean_var_dev_p)


def test_terminal_moments_refuse_invalid_and_sampled_laws():
    skewed = StepDistribution(values=(-0.5, 1.0), probs=(0.5, 0.5))  # mean 0.25
    with pytest.raises(InvalidKernelError):
        oracles.exact_terminal_moments(TableKernel([skewed]))
    with pytest.raises(KernelError):
        oracles.exact_terminal_moments(make_kernel("iid_gaussian", n=2))


def test_terminal_moments_stop_at_the_walk_guard(monkeypatch):
    monkeypatch.setattr(conditions, "NODE_GUARD", 100)
    with pytest.raises(conditions.WalkGuardExceeded):
        oracles.exact_terminal_moments(VarianceDriftKernel(16, 0.2))


def _dict_walk(kernel, key, visit=None) -> list[list]:
    """Breadth-first walk of the reachable history tree, one level per step.

    A node is ``[state, <X>, probability, max |xi|, count]`` and stands for
    ``count`` histories.  Histories whose ``key(state, <X>, probability,
    max |xi|)`` agree share one node: the first one reached keeps its fields
    and the counts add up.  ``visit(step, law)`` sees each distinct law of a
    level once; the return value is the nodes of the terminal level.

    The scalar reference that ``conditions._walk`` must equal bit for bit.
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
                law = laws[id(dist)] = conditions._checked_law(step, dist)
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
                if nodes > conditions.NODE_GUARD:
                    raise conditions.WalkGuardExceeded(
                        f"history walk exceeded {conditions.NODE_GUARD} nodes at step {step}"
                    )
        level = nxt
    return list(level.values())


# the key of each caller of the walk: the state alone (epsilon), the state
# and <X> to 14 decimals (delta), the state and every leaf term (moments)
_REFERENCE_KEYS = {
    (): lambda state, acc, prob, top: state,
    ("acc",): lambda state, acc, prob, top: (state, round(acc, 14)),
    ("acc", "prob", "top", "count"): lambda state, acc, prob, top: (state, acc, prob, top),
}
_ARRAY_KEYS = {
    (): None,
    ("acc",): lambda children: (kernels._per_value(lambda v: round(v, 14), children["acc"]),),
    ("acc", "prob", "top", "count"): lambda children: (children["acc"], children["prob"],
                                                       children["top"]),
}


def _reference_terminal_moments(kernel, p):
    """``exact_terminal_moments`` over the dict walk."""
    nodes = _dict_walk(kernel, _REFERENCE_KEYS[("acc", "prob", "top", "count")])

    def counted_sum(terms):
        if not all(math.isfinite(t) for _, t in terms):
            return math.fsum(t for _, t in terms)
        return float(sum(count * Fraction(t) for count, t in terms))

    return (
        counted_sum([(c, pr * abs(v - 1.0) ** p) for _, v, pr, _, c in nodes]),
        counted_sum([(c, pr * m ** (2.0 * p)) for _, _, pr, m, c in nodes]),
        max(abs(v - 1.0) for _, v, _, _, _ in nodes),
        sum(c for _, _, _, _, c in nodes),
    )


class _TwoLawKernel(ConditionalKernel):
    """Two laws by the sign of the canonical position, declared by its laws
    alone; the first ``fixed_steps`` steps take the first law."""

    def __init__(self, n, regimes, fixed_steps=0, label="two_law"):
        self.n, self.regimes, self.fixed_steps, self.label = n, regimes, fixed_steps, label

    def step_regimes(self, step):
        return self.regimes[:1] if step <= self.fixed_steps else self.regimes


# three magnitudes, a zero atom and laws of three and two atoms
_THREE_MAGNITUDES = (
    StepDistribution(values=(-1.0, 0.0, 1.0), probs=(0.25, 0.5, 0.25)),
    StepDistribution(values=(-0.7, 0.3), probs=(0.3, 0.7)),
)

_WALK_KERNELS = [
    *_KERNELS,
    VarianceDriftKernel(40, 0.3),
    _TwoLawKernel(12, _THREE_MAGNITUDES),
    _TwoLawKernel(12, _THREE_MAGNITUDES, fixed_steps=3, label="two_law_late"),
    # a repeated atom and a zero-probability atom in the second law, which
    # has more atoms than the first
    _TwoLawKernel(10, (rademacher_two_point(0.5),
                       StepDistribution(values=(-0.2, 0.0, 0.1, 0.1), probs=(1 / 3, 0.0, 1 / 3, 1 / 3))),
                  label="two_law_wider_second"),
    # both regimes take one law object: one law per level
    _TwoLawKernel(8, (rademacher_two_point(0.5),) * 2, label="two_law_shared"),
]


@pytest.mark.parametrize("kernel", _WALK_KERNELS, ids=lambda k: k.label)
@pytest.mark.parametrize("carry", list(_REFERENCE_KEYS), ids=["epsilon", "delta", "moments"])
def test_array_walk_equals_dict_walk(kernel, carry):
    seen = {"array": [], "dict": []}
    got = conditions._walk(kernel, carry, _ARRAY_KEYS[carry],
                           lambda step, law: seen["array"].append((step, id(law))))
    want = _dict_walk(kernel, _REFERENCE_KEYS[carry],
                      lambda step, law: seen["dict"].append((step, id(law))))
    assert seen["array"] == seen["dict"]
    # the terminal nodes in the order they were first reached, each with the
    # fields of the first history that reached it, floats bit for bit
    def hexed(node):
        return tuple(x.hex() if isinstance(x, float) else x for x in node)

    states = [None if kernel.initial_state() is None else tuple(s) for s in got["state"].tolist()]
    nodes = zip(states, *(got[name].tolist() for name in carry))  # carry is in node order
    assert list(map(hexed, nodes)) == [hexed(node[: len(carry) + 1]) for node in want]


@pytest.mark.parametrize("kernel", _WALK_KERNELS, ids=lambda k: k.label)
def test_certified_values_equal_the_dict_walk(kernel):
    for rho in (0.5, 1.0, 2.0):
        per_step = [0.0] * kernel.n

        def visit(step, dist):
            # the moment ratio m_{2+rho} / m_2, 0 for a law with m_2 = 0
            m2 = dist.moment(2)
            ratio = 0.0 if m2 == 0.0 else dist.moment(2.0 + rho) / m2
            per_step[step - 1] = max(per_step[step - 1], ratio)

        _dict_walk(kernel, _REFERENCE_KEYS[()], visit)
        report = conditions.minimal_epsilon(kernel, rho)
        assert [row["epsilon"].hex() for row in report.per_step] == [
            (r ** (1.0 / rho)).hex() for r in per_step]
    dev = max(abs(acc - 1.0) for _, acc, _, _, _ in _dict_walk(kernel, _REFERENCE_KEYS[("acc",)]))
    assert conditions.minimal_delta(kernel).delta.hex() == (
        0.0 if dev < 1e-12 else math.sqrt(dev)).hex()
    for p in (1.0, 1.5):
        got = oracles.exact_terminal_moments(kernel, p)
        want = _reference_terminal_moments(kernel, p)
        assert [x.hex() for x in want[:3]] == [
            got.mean_var_dev_p.hex(), got.mean_max_inc_2p.hex(), got.max_var_dev.hex()]
        assert got.leaves == want[3]
        if isinstance(kernel, VarianceDriftKernel):
            assert got.leaves == 2**kernel.n


@pytest.mark.parametrize("guard", [0, 1, 2, 7, 40, 333, 2000])
def test_walk_guard_stops_at_the_dict_walks_step(monkeypatch, guard):
    monkeypatch.setattr(conditions, "NODE_GUARD", guard)
    for kernel in (VarianceDriftKernel(30, 0.2), _TwoLawKernel(12, _THREE_MAGNITUDES), _TABLE):
        for carry in _REFERENCE_KEYS:
            errors = []
            for walk in (lambda: conditions._walk(kernel, carry, _ARRAY_KEYS[carry]),
                         lambda: _dict_walk(kernel, _REFERENCE_KEYS[carry])):
                try:
                    walk()
                except conditions.WalkGuardExceeded as exc:
                    errors.append(str(exc))
                else:
                    errors.append(None)
            assert errors[0] == errors[1]


def test_walk_refuses_a_law_reached_only_in_the_second_regime():
    skewed = StepDistribution(values=(-0.5, 1.0), probs=(0.5, 0.5))  # mean 0.25
    # the first law's positive atom comes first, so each level reaches
    # regime 0 first; regime 1 appears at step 2
    kernel = _TwoLawKernel(4, (StepDistribution(values=(0.5, -0.5), probs=(0.5, 0.5)), skewed))
    errors = []
    for walk in (lambda: conditions.minimal_epsilon(kernel, 1.0),
                 lambda: _dict_walk(kernel, _REFERENCE_KEYS[()])):
        with pytest.raises(InvalidKernelError) as err:
            walk()
        errors.append((err.value.step, str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2


def test_delta_key_rounds_as_python_does():
    # on these values np.round(x, 14) and round(x, 14) land on neighbouring
    # decimals: 1.46318171673974 against 1.46318171673973 for the first
    acc = np.array([1.463181716739735, 0.604083035178035, 1.4447045555986051, 1.0])
    want = [round(v, 14) for v in acc.tolist()]
    assert np.round(acc, 14).tolist() != want
    assert kernels._per_value(lambda v: round(v, 14), acc).tolist() == want


def test_certification_at_sizes_the_dict_walk_could_not_afford():
    # the walked values sum their floats in another order than the closed
    # forms, and may differ from them in the last bits
    drift = VarianceDriftKernel(256, 0.2)
    assert conditions.minimal_epsilon(drift, 1.0).epsilon == pytest.approx(
        drift.certified_epsilon(1.0), rel=1e-12)
    drift = VarianceDriftKernel(64, 0.2)
    assert conditions.minimal_delta(drift).delta == pytest.approx(drift.certified_delta(), rel=1e-12)


def _full_layout_lattice(d, n, ps):
    """E|<X>_n - 1|^p for each p in ``ps``, by the slab DP that stores every
    (a, b) cell of a slab, reachable or not: the reference that the
    parity-compressed DP must equal bit for bit."""
    kernel = VarianceDriftKernel(n, d)
    h, l = kernel.high_mag, kernel.low_mag
    slabs = {0: np.ones((1, 1))}
    for k in range(n):
        new = {}
        for H, P in slabs.items():
            a = np.arange(-H, H + 1)[:, None]
            b = np.arange(-(k - H), (k - H) + 1)[None, :]
            pos = a * h + b * l
            up = np.where(pos >= 0.0, P, 0.0) * 0.5
            dn = np.where(pos < 0.0, P, 0.0) * 0.5
            if up.any():
                tgt = new.setdefault(H + 1, np.zeros((2 * H + 3, 2 * (k - H) + 1)))
                tgt[0:-2, :] += up
                tgt[2:, :] += up
            if dn.any():
                tgt = new.setdefault(H, np.zeros((2 * H + 1, 2 * (k - H) + 3)))
                tgt[:, 0:-2] += dn
                tgt[:, 2:] += dn
        slabs = new
    totals = []
    for p in ps:
        total = 0.0
        for H, P in slabs.items():
            dev = abs(d * (2.0 * H - n) / n)
            total += dev**p * float(P.sum())
        totals.append(total)
    return totals


@pytest.mark.parametrize("n", range(1, 17))
def test_lattice_equals_the_walk_where_positions_cancel(n):
    # h == 2 * l in floats at d = 0.6, so positions cancel to +0.0 and the
    # regime's tie decides the law, in the lattice as in the walk
    kernel = VarianceDriftKernel(n, 0.6)
    assert kernel.high_mag == 2.0 * kernel.low_mag
    for p in (1.0, 1.5):
        want = oracles.exact_terminal_moments(kernel, p).mean_var_dev_p
        assert abs(oracles.variance_drift_mean_abs_deviation(0.6, n, p) - want) <= 1e-13


@pytest.mark.parametrize("n", [*range(1, 25), 33, 64, 128])
def test_lattice_equals_full_layout(n):
    ps = (1.0, 1.5, 2.0, 3.0)
    for d in (0.1, 0.2, 0.6, 0.9):
        want = _full_layout_lattice(d, n, ps)
        got = [oracles.variance_drift_mean_abs_deviation(d, n, p) for p in ps]
        assert got == want

