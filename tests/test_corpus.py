"""Verification corpora: batched draws equal the per-index ones."""

import math

import numpy as np
import pytest

from mclt_lab import corpus, rng
from mclt_lab.bounds import JointLaw
from mclt_lab.kernels import StepDistribution


def _mean_zero_reference(seed, index):
    """Corpus item ``index`` drawn on its own and built in numpy arrays."""
    key = rng.stream_key(seed, rng.STREAM_CORPUS)
    u = rng.uniforms(key, index, np.arange(12))
    k = 2 + int(u[0] * 4.0)
    values = np.sort(-3.0 + 6.0 * u[1 : 1 + k])
    raw = 0.05 + u[6 : 6 + k]
    probs = raw / math.fsum(raw.tolist())
    mean = math.fsum(p * v for p, v in zip(probs, values))
    values = values - mean
    return StepDistribution(values=tuple(values.tolist()), probs=tuple(probs.tolist()))


def _joint_reference(seed, index):
    """Joint corpus item ``index`` drawn on its own, cell by cell."""
    side = corpus.JOINT_SIDE
    key = rng.stream_key(seed, rng.STREAM_CORPUS)
    u = rng.uniforms(key, index + (1 << 32), np.arange(2 + 2 * side + side * side))
    kx = 2 + int(u[0] * (side - 1))
    ky = 2 + int(u[1] * (side - 1))
    xs = -2.0 + 4.0 * u[2 : 2 + kx]
    ys = -2.0 + 4.0 * u[2 + side : 2 + side + ky]
    cells = u[2 + 2 * side : 2 + 2 * side + kx * ky] + 0.02
    cells = cells / math.fsum(cells.tolist())
    cols = [(float(xs[i]), float(ys[j]), float(cells[i * ky + j]))
            for i in range(kx) for j in range(ky)]
    return JointLaw(*(tuple(c) for c in zip(*cols)))


def _bits(law):
    fields = ("values", "probs") if isinstance(law, StepDistribution) else ("x", "y", "probs")
    return tuple(np.array(getattr(law, f)).tobytes() for f in fields)


@pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1])
def test_batched_corpora_equal_the_per_index_draws(seed):
    size = 200
    for batched, single, reference in (
        (corpus.random_mean_zero_distributions, corpus.random_mean_zero_distribution,
         _mean_zero_reference),
        (corpus.random_joint_laws, corpus.random_joint_law, _joint_reference),
    ):
        want = [_bits(reference(seed, i)) for i in range(size)]
        assert [_bits(law) for law in batched(seed, size)] == want
        assert [_bits(single(seed, i)) for i in range(size)] == want


def test_corpus_laws_are_valid():
    for dist in corpus.random_mean_zero_distributions(3, 100):
        assert dist.check() is None
        assert 2 <= len(dist.values) <= 5
    for law in corpus.random_joint_laws(3, 100):
        law.validate()
        assert 4 <= len(law.probs) <= corpus.JOINT_SIDE**2
    assert corpus.random_joint_laws(3, 0) == []
