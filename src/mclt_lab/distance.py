"""Kolmogorov distance to the standard normal, and convergence-rate fits.

``kolmogorov_distance`` evaluates the exact sup distance between an empirical
CDF and Phi over the sample; ``exact_kolmogorov_discrete`` does the same for
a finite discrete law using left/right limits at every atom.  Phi itself is
evaluated through the complementary-error-function expansion (scipy's
``ndtr``), whose absolute error is below 1e-15 everywhere — far under the
DKW bands this module reports.

Rate fits are least squares on log-log points, with points excluded (and
reported) when their log is undefined or their DKW band swamps the estimate.
All logarithms in this package are natural logarithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

__all__ = [
    "standard_normal_cdf",
    "dkw_halfwidth",
    "KolmogorovEstimate",
    "kolmogorov_distance",
    "exact_kolmogorov_discrete",
    "RateFit",
    "fit_rate",
]


def standard_normal_cdf(x) -> np.ndarray | float:
    """Phi(x) with absolute error below 1e-15 (erfc-based evaluation)."""
    return ndtr(x)


def dkw_halfwidth(count: int, alpha: float) -> float:
    """Two-sided DKW band half-width: sqrt(ln(2/alpha) / (2 count))."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * count))


@dataclass(frozen=True)
class KolmogorovEstimate:
    """Estimated sup distance to Phi with its DKW confidence half-width."""

    d_hat: float
    count: int
    alpha: float

    @property
    def dkw_band(self) -> float:
        return dkw_halfwidth(self.count, self.alpha)

    @property
    def lower(self) -> float:
        return max(0.0, self.d_hat - self.dkw_band)

    @property
    def upper(self) -> float:
        return min(1.0, self.d_hat + self.dkw_band)


#: Order statistics per block of the maxima in ``kolmogorov_distance``.
_KS_BLOCK = 1 << 14


def kolmogorov_distance(samples, alpha: float = 0.05) -> KolmogorovEstimate:
    """Exact sup distance between the empirical CDF of ``samples`` and Phi.

    Over the sorted sample x_(1) <= ... <= x_(M) the sup is attained at an
    order statistic from the left or the right, so
    ``max_i max(|i/M - Phi(x_(i))|, |(i-1)/M - Phi(x_(i))|)`` is exact; ties
    are handled by the same formula.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite sample values")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    x = np.sort(x)
    m = x.size
    # the maxima run over blocks of the sorted copy, so no other array grows
    # with the sample; each term is the same float as over the whole sample
    d_hat = -math.inf
    for start in range(0, m, _KS_BLOCK):
        phi = ndtr(x[start : start + _KS_BLOCK])
        grid = np.arange(start + 1, start + 1 + phi.size, dtype=float) / m
        d_hat = max(d_hat, float(np.max(grid - phi)), float(np.max(phi - (grid - 1.0 / m))))
    return KolmogorovEstimate(d_hat=min(max(d_hat, 0.0), 1.0), count=m, alpha=alpha)


#: Atoms per block of the probability total in ``exact_kolmogorov_discrete``.
_FSUM_BLOCK = 1 << 14

#: How far inside the 1e-12 tolerance numpy's total must lie for the law to be
#: accepted without the correctly rounded sum.  ``np.sum`` adds a contiguous
#: float64 array pairwise: eight running sums over blocks of at most 128
#: atoms, then halving, so every atom passes through at most
#: 25 + ceil(log2(size / 128)) + 1 roundings, 43 at ``lipschitz.ENUM_GUARD``
#: (10^7) atoms and fewer than 60 at 2^40.  Its error is then below
#: 60 * 2^-53 * total < 7e-15 for non-negative atoms, far under this margin.
_TOTAL_MARGIN = 1e-13


def exact_kolmogorov_discrete(support, probs) -> float:
    """Exact sup distance between a finite discrete law and Phi.

    Checks both one-sided limits at every atom: ``F(x) - Phi(x)`` from the
    right and ``Phi(x) - F(x-)`` from the left.
    """
    v = np.asarray(support, dtype=float).ravel()
    p = np.asarray(probs, dtype=float).ravel()
    if v.size != p.size or v.size == 0:
        raise ValueError("support and probabilities must be equal-length and non-empty")
    # NaN fails the sign and total checks below, so it has to be refused here
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
        raise ValueError("non-finite support value or probability")
    if np.any(p < 0.0):
        raise ValueError("negative probabilities")
    if not abs(float(np.sum(p)) - 1.0) <= 1e-12 - _TOTAL_MARGIN:
        # fsum is correctly rounded, so feeding it one block's floats at a
        # time gives the total of p.tolist() without a Python float per atom
        blocks = (p[i : i + _FSUM_BLOCK].tolist() for i in range(0, p.size, _FSUM_BLOCK))
        total = math.fsum(itertools.chain.from_iterable(blocks))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
    # merge equal atoms (-0.0 with 0.0 too) so left limits are taken at
    # distinct points: bincount adds each group's probabilities in input
    # order from 0.0, as a stable sort followed by np.add.at does
    sv = np.sort(v)
    keep = np.empty(sv.size, dtype=bool)
    keep[0] = True
    np.not_equal(sv[1:], sv[:-1], out=keep[1:])
    merged_v = sv[keep]
    del sv, keep  # 9 B per atom, freed before the 8 B index is made
    merged_p = np.bincount(np.searchsorted(merged_v, v), weights=p, minlength=merged_v.size)
    cdf = np.cumsum(merged_p)
    phi = ndtr(merged_v)
    # F(x-) is 0 at the first atom and the previous atom's F after it
    left = np.max(np.abs(cdf[:-1] - phi[1:]), initial=phi[0])
    d = max(np.max(np.abs(cdf - phi)), left)
    return float(min(max(d, 0.0), 1.0))


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log abscissa, log d_hat)."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    r_squared: float
    ratio_spread: float
    excluded: tuple[str, ...] = field(default_factory=tuple)


def fit_rate(
    points: Sequence[tuple[float, KolmogorovEstimate]],
    reference: Callable[[float], float] | Sequence[float] | None = None,
) -> RateFit:
    """Fit a power law to distance estimates against their abscissae.

    Points with ``d_hat == 0`` (log undefined) or with a DKW band larger than
    half the estimate (noise-dominated) are excluded from the fit, each with
    a recorded reason.  ``reference`` — a callable on the abscissa or a
    per-point sequence — yields ``ratio_spread``: max over min of
    ``d_hat / reference`` across the surviving points.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    ref_values: list[float | None]
    if reference is None:
        ref_values = [None] * len(points)
    elif callable(reference):
        ref_values = [float(reference(a)) for a, _ in points]
    else:
        ref_values = [float(r) for r in reference]
        if len(ref_values) != len(points):
            raise ValueError("reference sequence length mismatch")
    kept: list[tuple[float, float, float | None]] = []
    excluded: list[str] = []
    for (abscissa, est), ref in zip(points, ref_values):
        if abscissa <= 0.0:
            raise ValueError("abscissae must be positive")
        if est.d_hat <= 0.0:
            excluded.append(f"abscissa {abscissa}: d_hat = 0 excluded from log fit")
            continue
        if est.dkw_band > 0.5 * est.d_hat:
            excluded.append(
                f"abscissa {abscissa}: DKW band {est.dkw_band:.3g} exceeds half of "
                f"d_hat {est.d_hat:.3g}"
            )
            continue
        kept.append((abscissa, est.d_hat, ref))
    if len(kept) < 2:
        raise ValueError("fewer than 2 usable points after exclusions")
    lx = np.log([a for a, _, _ in kept])
    ly = np.log([d for _, d, _ in kept])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    if len(kept) < 3:
        r2 = float("nan")
    elif ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    if all(r is not None for _, _, r in kept):
        ratios = [d / r for _, d, r in kept]
        ratio_spread = max(ratios) / min(ratios)
    else:
        ratio_spread = float("nan")
    return RateFit(
        points=tuple((a, d) for a, d, _ in kept),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        ratio_spread=float(ratio_spread),
        excluded=tuple(excluded),
    )
