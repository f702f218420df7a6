"""Deterministic randomized corpora for the verification suites.

Corpus item i of a given seed is always the same object: values come from
the counter stream (seed, CORPUS, i, .), so suites are reproducible across
machines and partitionings.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .bounds import JointLaw
from .kernels import StepDistribution

__all__ = [
    "random_mean_zero_distribution",
    "random_mean_zero_distributions",
    "random_joint_law",
    "random_joint_laws",
]

JOINT_SIDE = 5  # a random joint law has 2..JOINT_SIDE atoms per axis

_MEAN_ZERO_DRAWS = 12
_JOINT_DRAWS = 2 + 2 * JOINT_SIDE + JOINT_SIDE * JOINT_SIDE
_JOINT_OFFSET = 1 << 32  # joint laws read paths past the mean-zero ones


def _rows(seed: int, first: int, size: int, draws: int) -> list[list[float]]:
    """The uniforms of corpus paths first .. first+size-1, one row per path.

    One ``rng.uniforms`` call fills them all; each word depends on its own
    (path, draw) counter alone, so a row is the same whether it is drawn on
    its own or with others.
    """
    key = rng.stream_key(seed, rng.STREAM_CORPUS)
    paths = np.arange(first, first + size, dtype=np.uint64)[:, None]
    return rng.uniforms(key, paths, np.arange(draws)).tolist()


def _mean_zero_from_row(u: list[float]) -> StepDistribution:
    k = 2 + int(u[0] * 4.0)  # 2..5 support points
    values = sorted(-3.0 + 6.0 * x for x in u[1 : 1 + k])
    raw = [0.05 + x for x in u[6 : 6 + k]]
    total = math.fsum(raw)
    probs = [r / total for r in raw]
    mean = math.fsum(p * v for p, v in zip(probs, values))
    return StepDistribution(values=tuple(v - mean for v in values), probs=tuple(probs))


def _joint_law_from_row(u: list[float]) -> JointLaw:
    kx = 2 + int(u[0] * (JOINT_SIDE - 1))
    ky = 2 + int(u[1] * (JOINT_SIDE - 1))
    xs = [-2.0 + 4.0 * a for a in u[2 : 2 + kx]]
    ys = [-2.0 + 4.0 * b for b in u[2 + JOINT_SIDE : 2 + JOINT_SIDE + ky]]
    cells = [c + 0.02 for c in u[2 + 2 * JOINT_SIDE : 2 + 2 * JOINT_SIDE + kx * ky]]
    total = math.fsum(cells)
    return JointLaw(x=tuple(a for a in xs for _ in ys), y=tuple(ys) * kx,
                    probs=tuple(c / total for c in cells))


def random_mean_zero_distributions(seed: int, size: int) -> list[StepDistribution]:
    """Corpus items 0 .. size-1 of ``random_mean_zero_distribution``."""
    return [_mean_zero_from_row(u) for u in _rows(seed, 0, size, _MEAN_ZERO_DRAWS)]


def random_mean_zero_distribution(seed: int, index: int) -> StepDistribution:
    """A random finite-support mean-zero law with 2..5 atoms.

    Atom locations are distinct draws in [-3, 3]; masses are bounded away
    from zero; the support is then recentered so the mean vanishes exactly
    up to one fused summation.
    """
    return _mean_zero_from_row(_rows(seed, index, 1, _MEAN_ZERO_DRAWS)[0])


def random_joint_laws(seed: int, size: int) -> list[JointLaw]:
    """Corpus items 0 .. size-1 of ``random_joint_law``."""
    return [_joint_law_from_row(u) for u in _rows(seed, _JOINT_OFFSET, size, _JOINT_DRAWS)]


def random_joint_law(seed: int, index: int) -> JointLaw:
    """A random finite joint law on a grid of at most JOINT_SIDE x JOINT_SIDE atoms."""
    return _joint_law_from_row(_rows(seed, _JOINT_OFFSET + index, 1, _JOINT_DRAWS)[0])
