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

__all__ = ["random_mean_zero_distribution", "random_joint_law"]

JOINT_SIDE = 5  # a random joint law has 2..JOINT_SIDE atoms per axis


def random_mean_zero_distribution(seed: int, index: int) -> StepDistribution:
    """A random finite-support mean-zero law with 2..5 atoms.

    Atom locations are distinct draws in [-3, 3]; masses are bounded away
    from zero; the support is then recentered so the mean vanishes exactly
    up to one fused summation.
    """
    key = rng.stream_key(seed, rng.STREAM_CORPUS)
    u = rng.uniforms(key, index, np.arange(12))
    k = 2 + int(u[0] * 4.0)  # 2..5 support points
    values = np.sort(-3.0 + 6.0 * u[1 : 1 + k])
    raw = 0.05 + u[6 : 6 + k]
    probs = raw / math.fsum(raw.tolist())
    mean = math.fsum(p * v for p, v in zip(probs, values))
    values = values - mean
    return StepDistribution(values=tuple(values.tolist()), probs=tuple(probs.tolist()))


def random_joint_law(seed: int, index: int) -> JointLaw:
    """A random finite joint law on a grid of at most JOINT_SIDE x JOINT_SIDE atoms."""
    key = rng.stream_key(seed, rng.STREAM_CORPUS)
    u = rng.uniforms(key, index + (1 << 32),
                     np.arange(2 + 2 * JOINT_SIDE + JOINT_SIDE * JOINT_SIDE))
    kx = 2 + int(u[0] * (JOINT_SIDE - 1))
    ky = 2 + int(u[1] * (JOINT_SIDE - 1))
    xs = -2.0 + 4.0 * u[2 : 2 + kx]
    ys = -2.0 + 4.0 * u[2 + JOINT_SIDE : 2 + JOINT_SIDE + ky]
    cells = u[2 + 2 * JOINT_SIDE : 2 + 2 * JOINT_SIDE + kx * ky] + 0.02
    cells = cells / math.fsum(cells.tolist())
    x_flat = []
    y_flat = []
    p_flat = []
    for i in range(kx):
        for j in range(ky):
            x_flat.append(float(xs[i]))
            y_flat.append(float(ys[j]))
            p_flat.append(float(cells[i * ky + j]))
    return JointLaw(x=tuple(x_flat), y=tuple(y_flat), probs=tuple(p_flat))
