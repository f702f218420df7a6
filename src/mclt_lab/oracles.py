"""Independent exact oracles used before trusting any Monte Carlo estimate.

Two tools live here:

* exact terminal moments of an exact-mode kernel, read from the history walk
  of :mod:`conditions` with histories merged only when every leaf term agrees
  bit for bit (the walk's node guard bounds it, not 2^n);
* a lattice dynamic program for the variance-drift family, exact at any n.
  A drift path's randomness is its sign sequence, and its position after any
  prefix is ``a*h + b*l`` where (a, b) are net signed counts of high/low
  magnitude steps.  Both the magnitudes and the occupation side are pure
  functions of that integer state, so the chain (a, b, #high steps) carries
  the full law of the terminal conditional variance.

The DP is validated against the exact terminal moments at small n in the
tests, then run at large n where the walk's node count grows too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditions import _walk
from .kernels import ConditionalKernel, VarianceDriftKernel, _per_value

__all__ = [
    "exact_terminal_moments",
    "variance_drift_mean_abs_deviation",
    "ExactTerminalMoments",
]


@dataclass(frozen=True)
class ExactTerminalMoments:
    """Exact expectations over the full path tree of a kernel."""

    mean_var_dev_p: float  # E |<X>_n - 1|^p
    mean_max_inc_2p: float  # E max_i |xi_i|^(2p)
    max_var_dev: float  # sup over paths of |<X>_n - 1|
    leaves: int


def _counted_sum(counts: np.ndarray, terms: np.ndarray) -> float:
    """Sum of ``count * term`` over the nodes, rounded once, as ``math.fsum``
    rounds the sum of every term repeated count times: the counts of equal
    terms add up first."""
    if not np.isfinite(terms).all():
        return math.fsum(terms.tolist())  # inf or nan at any count
    values, inverse = np.unique(terms, return_inverse=True)
    weights = np.zeros(len(values), dtype=object)
    np.add.at(weights, inverse, counts)
    return float(sum(w * Fraction(t) for w, t in zip(weights.tolist(), values.tolist())))


def exact_terminal_moments(kernel: ConditionalKernel, p: float = 1.0) -> ExactTerminalMoments:
    """Exact moments over every history of an exact-mode kernel.

    Histories share a walk node only when state, <X>, probability and
    max |xi| all agree, so each node's terms are each of its histories' own.
    """
    nodes = _walk(kernel, carry=("acc", "prob", "top", "count"),
                  key=lambda children: (children["acc"], children["prob"], children["top"]))
    dev = np.abs(nodes["acc"] - 1.0)
    return ExactTerminalMoments(
        mean_var_dev_p=_counted_sum(nodes["count"], nodes["prob"] * _per_value(lambda v: v**p, dev)),
        mean_max_inc_2p=_counted_sum(nodes["count"],
                                     nodes["prob"] * _per_value(lambda v: v**(2.0 * p), nodes["top"])),
        max_var_dev=float(dev.max()),
        leaves=int(nodes["count"].sum()),
    )


def variance_drift_mean_abs_deviation(d: float, n: int, p: float = 1.0) -> float:
    """Exact E|<X>_n - 1|^p for the variance-drift kernel at any n.

    The terminal conditional variance is ``1 + d (2H - n)/n`` with H the
    number of steps taken from the high-variance side, so only the law of H
    is needed.  States are (a, b, H); probabilities are propagated level by
    level with the occupation side decided by the kernel's own
    ``regime_of_state``.
    """
    kernel = VarianceDriftKernel(n, d)
    # slabs[H] = P over the reachable (a, b) at level k: a has the parity of
    # H and b that of k - H, so the array is indexed [i, j] with a = 2i - H
    # and b = 2j - (k - H), and holds no cell that no history reaches
    slabs = [np.ones((1, 1))]
    # high[a + n, b + n]: a path at (a, b) takes the high law, by the
    # kernel's own regime_of_state; a slab's cells are a strided block of
    # it, and the halves of P that step high and low are P times a block
    # of these 0.5/0.0 weights (both products exact)
    high = kernel.regime_of_state(np.ogrid[-n : n + 1, -n : n + 1]) == 0
    up_w, dn_w = np.where(high, 0.5, 0.0), np.where(high, 0.0, 0.5)
    for k in range(n):
        # slab H of level k + 1 takes the low step of slab H (b -> b -/+ 1,
        # j -> j, j + 1) and then the high step of slab H - 1 (a -> a -/+ 1,
        # i -> i, i + 1), so each cell adds dn[j], dn[j - 1], up[i], up[i - 1]
        # in that order, from H = k down; slab k + 1 has no low step
        new = [None] * (k + 1) + [np.zeros((k + 2, 1))]
        for H in range(k, -1, -1):
            P = slabs[H]
            cells = (slice(n - H, n + H + 1, 2), slice(n - (k - H), n + (k - H) + 1, 2))
            up, dn = P * up_w[cells], P * dn_w[cells]
            t = np.empty((H + 1, k - H + 2))
            t[:, :-1] = dn
            t[:, -1] = 0.0
            t[:, 1:] += dn
            new[H] = t
            new[H + 1][:-1] += up
            new[H + 1][1:] += up
        slabs = new
    total = 0.0
    for H in range(n, -1, -1):
        P = slabs[H]
        dev = abs(d * (2.0 * H - n) / n)
        # np.sum pairs its terms by position, so the sum runs over the full
        # (2H+1, 2(n-H)+1) layout, with zeros in the unreachable cells
        full = np.zeros((2 * H + 1, 2 * (n - H) + 1))
        full[::2, ::2] = P
        total += dev**p * float(full.sum())
    return total
