"""The exact oracles against their reference forms: the terminal moments
against the full depth-first path search, the variance-drift lattice against
its full-layout DP."""

import math

import numpy as np
import pytest

from mclt_lab import conditions, oracles
from mclt_lab.kernels import (
    InvalidKernelError,
    KernelError,
    StepDistribution,
    TableKernel,
    VarianceDriftKernel,
    make_kernel,
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


@pytest.mark.parametrize("n", [*range(1, 25), 33, 64, 128])
def test_lattice_equals_full_layout(n):
    ps = (1.0, 1.5, 2.0, 3.0)
    for d in (0.1, 0.2, 0.9):
        want = _full_layout_lattice(d, n, ps)
        got = [oracles.variance_drift_mean_abs_deviation(d, n, p) for p in ps]
        assert got == want

