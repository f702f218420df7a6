"""The variance-drift lattice against its full-layout form."""

import numpy as np
import pytest

from mclt_lab import oracles
from mclt_lab.kernels import VarianceDriftKernel


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

