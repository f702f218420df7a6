"""Executable path surgeries: unit-variance padding and stopping rules.

``pad_to_unit_variance`` extends a realized path so the padded conditional
variance lands exactly on 1: keep increments up to the last index tau at
which the running conditional variance is still <= 1, append
``r = floor((1 - <X>_tau) / eps^2)`` fair-sign steps of size eps, one
residual step of size ``sqrt(1 - <X>_tau - r eps^2)``, and zeros up to the
fixed length ``N = n + floor(1/eps^2) + 1``.  Each padded step has a
two-point conditional law, so the moment-domination ratio is available in
closed form: equality at eps-sized steps, slack at the residual.

``stop_time_v`` / ``restrict_to_v`` implement the two stopping variants
(last index with variance <= 1, first with variance >= 1) and check the
stopped variance stays within eps^2 of 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .kernels import PathBundle, PathCollection

__all__ = [
    "PaddedPath",
    "check_padding",
    "pad_to_unit_variance",
    "pad_collection",
    "padding_ratio_report",
    "stop_time_v",
    "restrict_to_v",
    "StoppedSample",
    "SUP_LE_1",
    "INF_GE_1",
]

SUP_LE_1 = "sup_le_1"
INF_GE_1 = "inf_ge_1"

UNIT_VARIANCE_TOL = 1e-9
RATIO_TOL = 1e-12


@dataclass(frozen=True)
class PaddedPath:
    """A path extended to conditional variance exactly 1.

    ``step_scales[i]`` is the conditional standard deviation of padded step
    i+1 given its past (the original kernel's magnitude for i < tau, eps for
    the fair-sign padding, the residual once, then 0), so the padded variance
    path is ``cumsum(step_scales**2)``.
    """

    epsilon: float
    tau: int
    pad_count: int
    residual: float
    total_length: int
    increments: np.ndarray  # xi'_1..xi'_N
    step_scales: np.ndarray  # conditional std of each padded step
    original_terminal: float

    @property
    def terminal(self) -> float:
        return float(np.sum(self.increments))

    @property
    def padded_variances(self) -> np.ndarray:
        """<X'>_0..<X'>_N."""
        return np.concatenate([[0.0], np.cumsum(self.step_scales**2)])

    @property
    def terminal_variance(self) -> float:
        return float(self.padded_variances[-1])


def _pad_one(
    increments: np.ndarray,
    variances: np.ndarray,
    epsilon: float,
    key: np.uint64,
    path_index: int,
) -> PaddedPath:
    n = len(increments)
    eps2 = epsilon * epsilon
    budget = math.floor(1.0 / eps2)
    total_length = n + budget + 1
    # last index whose running conditional variance is still <= 1
    le_one = np.flatnonzero(variances <= 1.0)
    tau = int(le_one[-1])
    v_tau = float(variances[tau])
    if v_tau > 1.0:
        raise AssertionError("internal invariant violation: <X>_tau > 1")
    r = math.floor((1.0 - v_tau) / eps2)
    if r > budget:
        raise AssertionError("internal invariant violation: pad count exceeds budget")
    residual_sq = 1.0 - v_tau - r * eps2
    residual = math.sqrt(max(residual_sq, 0.0))
    signs_u = rng.uniforms(key, path_index, np.arange(r + 1))
    signs = np.where(signs_u < 0.5, -1.0, 1.0)
    padded = np.zeros(total_length)
    padded[:tau] = increments[:tau]
    padded[tau : tau + r] = epsilon * signs[:r]
    padded[tau + r] = residual * signs[r]
    scales = np.zeros(total_length)
    # conditional std of the kept original steps is the realized magnitude
    # (every registry law is symmetric two-point given its history)
    scales[:tau] = np.sqrt(np.diff(variances[: tau + 1]))
    scales[tau : tau + r] = epsilon
    scales[tau + r] = residual
    return PaddedPath(
        epsilon=float(epsilon),
        tau=tau,
        pad_count=int(r),
        residual=float(residual),
        total_length=total_length,
        increments=padded,
        step_scales=scales,
        original_terminal=float(np.sum(increments)),
    )


def check_padding(n: int, count: int, epsilon: float) -> None:
    """Reject padding ``count`` paths of length ``n`` at ``epsilon`` unless
    eps lies in (0, 1/2], the padded length N = n + floor(1/eps^2) + 1 fits
    the per-path draw budget, and ``count * N`` fits the bundle memory guard
    (``kernels.check_bundle``)."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    total_length = n + math.floor(1.0 / (epsilon * epsilon)) + 1
    if total_length >= rng.MAX_DRAWS_PER_PATH:
        raise ValueError("padded length exceeds the per-path draw budget")
    kernels.check_bundle(count, total_length)


def pad_to_unit_variance(path: PathBundle, epsilon: float, seed: int, path_index: int = 0) -> PaddedPath:
    """Pad one path to terminal conditional variance exactly 1.

    ``epsilon`` must lie in (0, 1/2] and should be (at least) the kernel's
    certified moment-domination eps; smaller values leave the kept original
    steps outside the padded ratio guarantee, which the ratio report will
    surface.
    """
    check_padding(path.n, 1, epsilon)
    key = rng.stream_key(seed, rng.STREAM_PADDING)
    return _pad_one(path.increments, path.variances, epsilon, key, path_index)


def pad_collection(paths: PathCollection, epsilon: float, seed: int) -> list[PaddedPath]:
    """Pad every path of a collection; path i uses padding stream i."""
    check_padding(paths.increments.shape[1], len(paths), epsilon)
    key = rng.stream_key(seed, rng.STREAM_PADDING)
    return [
        _pad_one(paths.increments[i], paths.variances[i], epsilon, key, i)
        for i in range(len(paths))
    ]


def padding_ratio_report(padded: PaddedPath, rho: float) -> dict:
    """Moment-domination check for every padded step, in closed form.

    A step with conditional std m and a symmetric two-point law has
    ``E|xi|^(2+rho) = m^rho * E[xi^2]``, so the condition at level eps holds
    iff m <= eps, with equality exactly when m == eps.  Zero steps pass
    vacuously.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    eps_rho = padded.epsilon**rho
    worst = 0.0
    equality_steps = 0
    holds = True
    for m in padded.step_scales:
        if m == 0.0:
            continue
        ratio = m**rho  # E|xi|^(2+rho) / E[xi^2]
        if ratio > eps_rho * (1.0 + RATIO_TOL):
            holds = False
        if ratio == eps_rho:
            equality_steps += 1
        worst = max(worst, ratio / eps_rho)
    return {
        "holds": holds,
        "worst_ratio": worst,
        "equality_steps": equality_steps,
        "epsilon": padded.epsilon,
        "rho": rho,
    }


def _stop_indices(variances: np.ndarray, variant: str) -> np.ndarray:
    """Stopping index of every row of a (count, n+1) variance matrix."""
    if np.any(np.diff(variances, axis=1) < -1e-12):
        raise ValueError("variance path must be non-decreasing")
    n = variances.shape[1] - 1
    if variant == SUP_LE_1:
        # the last index, not a count of entries: dips of up to 1e-12 are
        # accepted, so entries <= 1 need not form a prefix
        le = variances[:, ::-1] <= 1.0
        return np.where(le.any(axis=1), n - np.argmax(le, axis=1), 0)
    if variant == INF_GE_1:
        ge = variances >= 1.0
        return np.where(ge.any(axis=1), np.argmax(ge, axis=1), n)
    raise ValueError(f"unknown stopping variant {variant!r}")


def stop_time_v(variance_path, variant: str) -> int:
    """Stopping index on a realized conditional-variance path.

    ``sup_le_1``: the largest k with <X>_k <= 1 (well-defined: <X>_0 = 0).
    ``inf_ge_1``: the smallest k with <X>_k >= 1, or n when the path never
    reaches 1 (out-of-hypothesis inputs take the boundary convention).
    """
    v = np.asarray(variance_path, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("variance path must be a 1-d sequence <X>_0..<X>_n")
    return int(_stop_indices(v[None, :], variant)[0])


@dataclass(frozen=True)
class StoppedSample:
    """Terminal values at the stopping index with the variance residuals."""

    variant: str
    indices: np.ndarray  # v(n) per path
    terminal: np.ndarray  # X_{v(n)} per path
    residuals: np.ndarray  # |<X>_{v(n)} - 1| per path
    out_of_hypothesis: np.ndarray  # paths with <X>_n < 1 (flagged, kept)

    @property
    def max_residual_in_hypothesis(self) -> float:
        kept = self.residuals[~self.out_of_hypothesis]
        return float(kept.max()) if kept.size else 0.0


def restrict_to_v(paths: PathCollection, variant: str) -> StoppedSample:
    """Stop every path at v(n) and report the stopped-variance residuals.

    Paths with <X>_n < 1 violate the hypothesis of the stopped-martingale
    bound; they are flagged rather than rejected, and excluded from the
    in-hypothesis residual summary.
    """
    indices = _stop_indices(paths.variances, variant)
    rows = np.arange(len(paths))
    terminal = paths.sums[rows, indices]
    residuals = np.abs(paths.variances[rows, indices] - 1.0)
    out = paths.variances[:, -1] < 1.0
    return StoppedSample(
        variant=variant,
        indices=indices,
        terminal=terminal,
        residuals=residuals,
        out_of_hypothesis=out,
    )
