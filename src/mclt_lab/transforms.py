"""Executable path surgeries on path matrices: unit-variance padding and
stopping rules.

``pad_collection`` extends every path of a collection so the padded
conditional variance lands exactly on 1: keep increments up to the last
index tau at which the running conditional variance is still <= 1, append
``r = floor((1 - <X>_tau) / eps^2)`` fair-sign steps of size eps, one
residual step of size ``sqrt(1 - <X>_tau - r eps^2)``, and zeros up to the
fixed length ``N = n + floor(1/eps^2) + 1``, all rows at once into (count, N)
matrices.  Each padded step has a two-point conditional law, so the
moment-domination ratio is available in closed form: equality at eps-sized
steps, slack at the residual.

``restrict_to_v`` stops every path by one of the two stopping variants
(last index with variance <= 1, first with variance >= 1) and reports how
far the stopped variance lies from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rng
from .kernels import PathCollection

__all__ = [
    "PaddedCollection",
    "check_padding",
    "pad_collection",
    "padding_ratio_report",
    "restrict_to_v",
    "StoppedSample",
    "SUP_LE_1",
    "INF_GE_1",
]

SUP_LE_1 = "sup_le_1"
INF_GE_1 = "inf_ge_1"

RATIO_TOL = 1e-12


@dataclass(frozen=True)
class PaddedCollection:
    """Padded paths stored as (count, N) matrices, one row per path.

    ``step_scales[j, i]`` is the conditional standard deviation of padded
    step i+1 of path j given its past: the original kernel's magnitude for
    i < tau, eps for the fair-sign padding, the residual once, then 0.
    """

    epsilon: float
    tau: np.ndarray  # (count,) kept original steps
    pad_count: np.ndarray  # (count,) eps-sized fair-sign steps
    residual: np.ndarray  # (count,)
    increments: np.ndarray  # (count, N)
    step_scales: np.ndarray  # (count, N)
    original_terminal: np.ndarray  # (count,)

    def __len__(self) -> int:
        return self.increments.shape[0]

    @property
    def terminal_variances(self) -> np.ndarray:
        """<X'>_N of every path, its squared step scales summed left to
        right; ``np.sum`` adds pairwise and would round differently."""
        total = np.zeros(len(self))
        for column in self.step_scales.T:
            total += column * column
        return total


def check_padding(n: int, count: int, epsilon: float) -> None:
    """Reject padding ``count`` paths of length ``n`` at ``epsilon`` unless
    eps lies in (0, 1/2], the padded length N = n + floor(1/eps^2) + 1 fits
    the per-path draw budget, and ``count * N`` fits the bundle memory guard
    (``kernels.check_bundle``)."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    # an eps^2 under 1/MAX_DRAWS_PER_PATH overruns the budget by itself, and
    # 1/eps^2 need not be a finite float there, so it is clamped
    total_length = n + math.floor(1.0 / max(epsilon * epsilon, 1.0 / rng.MAX_DRAWS_PER_PATH)) + 1
    if total_length >= rng.MAX_DRAWS_PER_PATH:
        raise ValueError("padded length exceeds the per-path draw budget")
    kernels.check_bundle(count, total_length)


def pad_collection(paths: PathCollection, epsilon: float, seed: int) -> PaddedCollection:
    """Pad every path of a collection; path i uses padding stream i.

    ``epsilon`` must lie in (0, 1/2] and should be (at least) the kernel's
    certified moment-domination eps; smaller values leave the kept original
    steps outside the padded ratio guarantee, which the ratio report will
    surface.
    """
    check_padding(paths.increments.shape[1], len(paths), epsilon)
    increments, variances = paths.increments, paths.variances
    count, n = increments.shape
    eps2 = epsilon * epsilon
    budget = math.floor(1.0 / eps2)
    rows = np.arange(count)
    tau = _stop_indices(variances, SUP_LE_1)
    v_tau = variances[rows, tau]
    if np.any(v_tau > 1.0):
        raise AssertionError("internal invariant violation: <X>_tau > 1")
    r = np.floor((1.0 - v_tau) / eps2).astype(np.int64)
    if np.any(r > budget):
        raise AssertionError("internal invariant violation: pad count exceeds budget")
    residual = np.sqrt(np.maximum(1.0 - v_tau - r * eps2, 0.0))
    # one sign word per pad and one for the residual: path j reads padding
    # counters 0..r_j of its own stream
    draws = r + 1
    ends = np.cumsum(draws)
    owner = np.repeat(rows, draws)
    step = np.arange(ends[-1]) - np.repeat(ends - draws, draws)
    key = rng.stream_key(seed, rng.STREAM_PADDING)
    signs = np.where(rng.uniforms(key, owner, step) < 0.5, -1.0, 1.0)
    magnitude = np.full(ends[-1], epsilon)
    magnitude[ends - 1] = residual
    total_length = n + budget + 1
    padded = np.zeros((count, total_length))
    scales = np.zeros((count, total_length))
    kept = np.arange(n) < tau[:, None]
    np.copyto(padded[:, :n], increments, where=kept)
    # conditional std of the kept original steps is the realized magnitude
    # for a law whose atoms share one |value|
    np.sqrt(np.diff(variances, axis=1), out=scales[:, :n], where=kept)
    cells = (owner, np.repeat(tau, draws) + step)
    padded[cells] = magnitude * signs
    scales[cells] = magnitude
    return PaddedCollection(
        epsilon=float(epsilon),
        tau=tau,
        pad_count=r,
        residual=residual,
        increments=padded,
        step_scales=scales,
        original_terminal=np.sum(increments, axis=1),
    )


def padding_ratio_report(padded: PaddedCollection, rho: float) -> dict:
    """Moment-domination check for every padded step, in closed form.

    A step with conditional std m whose atoms all have |value| m (as
    ``mclt-lab verify`` requires) has ``E|xi|^(2+rho) = m^rho * E[xi^2]``,
    so the condition at level eps holds iff m <= eps, with equality exactly
    when m == eps.  Zero steps pass vacuously.  ``holds``, ``worst_ratio``
    and ``equality_steps`` are arrays with one entry per path.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    scales, eps = padded.step_scales, padded.epsilon
    values = np.unique(scales)
    unit = eps**rho
    with np.errstate(over="ignore"):  # a ratio past float range is inf
        if unit > 0.0:
            # m**rho (= E|xi|^(2+rho) / E[xi^2]) in Python floats, once per
            # distinct scale: np.power can differ from it in the last ulp
            powers = np.array([m**rho for m in values.tolist()])
        else:  # eps**rho underflows to 0: compare (m/eps)**rho with 1
            powers, unit = (values / eps) ** rho, 1.0
        ratios = powers / unit
    cell = np.searchsorted(values, scales)
    holds = ~(powers > unit * (1.0 + RATIO_TOL))[cell].any(axis=1)
    equality_steps = np.count_nonzero((powers == unit)[cell], axis=1)
    # a NaN scale (from a variance dip in the kept steps) fails no comparison
    worst_ratio = np.fmax.reduce(ratios[cell], axis=1, initial=0.0)
    return {
        "holds": holds,
        "worst_ratio": worst_ratio,
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

    ``sup_le_1``: v(n) is the largest k with <X>_k <= 1 (well-defined:
    <X>_0 = 0).  ``inf_ge_1``: the smallest k with <X>_k >= 1, or n when the
    path never reaches 1 (out-of-hypothesis inputs take the boundary
    convention).  A variance path that falls by more than 1e-12, or an
    unknown variant, is a ``ValueError``.
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
