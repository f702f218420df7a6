"""Martingale difference kernels and the simulation engine.

A :class:`ConditionalKernel` declares, per step, the one or two laws that
the step can take (``step_regimes``); of two, the sign of the path's
canonical position chooses.  The history walks and the engine derive the
dynamics from that declaration alone.  Exact-mode laws carry a finite
support and answer moment queries by finite summation; sampled-mode laws
carry an inverse-CDF sampler plus a declared moment oracle.

Simulation produces a :class:`PathCollection`, matrices with one row per
path: the increments, the partial sums ``X_0..X_n`` and the predictable
variance ``<X>_0..<X>_n`` (the running sum of conditional second moments).
All randomness is counter-based (see :mod:`mclt_lab.rng`), so results are
reproducible and independent of chunking or thread count.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import rng

__all__ = [
    "StepDistribution",
    "ConditionalKernel",
    "PathCollection",
    "TerminalStatistics",
    "KernelError",
    "InvalidKernelError",
    "make_kernel",
    "check_bundle",
    "sample_paths",
    "sample_terminal",
    "sample_terminals",
    "KERNEL_FAMILIES",
]

#: Hard cap on ``count * n`` for bundle-mode simulation; larger jobs must use
#: the streaming terminal sampler.
BUNDLE_CELL_GUARD = 50_000_000

#: Paths per chunk in the streaming engine.  No result depends on it: every
#: per-path value is a function of the path's own counter stream, and pooled
#: sums reduce over fixed blocks of ``_REDUCE_BLOCK`` paths.  Smaller chunks
#: only mean more, shorter numpy calls.
DEFAULT_CHUNK = 65536

#: Block length of the pooled sums in ``sample_terminal``: ``np.sum`` per
#: block, ``math.fsum`` across blocks.
_REDUCE_BLOCK = 1 << 16

PROB_TOL = 1e-12
MEAN_TOL = 1e-12
#: Below this rho, ``StepDistribution.epsilon`` takes an exact law's ratio
#: in log1p/expm1 form (see there).
SMALL_RHO = 2.0**-12


class KernelError(ValueError):
    """Base class for kernel construction and validation failures."""


class InvalidKernelError(KernelError):
    """A step distribution violated its invariants.

    Carries the offending step index and the realized history that produced
    the bad distribution.
    """

    def __init__(self, step: int, history, reason: str):
        self.step = step
        self.history = tuple(np.asarray(history, dtype=float).tolist())
        self.reason = reason
        super().__init__(f"invalid kernel at step {step}: {reason} (history={self.history})")


@dataclass(frozen=True)
class StepDistribution:
    """Conditional law of one increment given its history.

    Exact mode: ``values``/``probs`` give a finite support; moments are finite
    sums.  Sampled mode: ``sampler`` maps uniforms in [0,1) to variates via an
    inverse CDF and ``declared_moment(t)`` is a trusted oracle for E|xi|^t.
    """

    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    sampler: Callable[[np.ndarray], np.ndarray] | None = None
    declared_moment: Callable[[float], float] | None = None
    declared_log_moment: Callable[[float], float] | None = None  # log E|xi|^t

    @property
    def mode(self) -> str:
        return "exact" if self.sampler is None else "sampled"

    @cached_property
    def _check_cached(self) -> str | None:
        return self.check()

    @cached_property
    def _m2_cached(self) -> float:
        return self.moment(2)

    @cached_property
    def _table_key(self) -> tuple:
        """Equal for two laws only if every field agrees, the values and
        probabilities bit for bit: ``==`` holds -0.0 and 0.0 equal, but they
        are different increments."""
        return (np.asarray(self.values, dtype=float).tobytes(),
                np.asarray(self.probs, dtype=float).tobytes(),
                self.sampler, self.declared_moment)

    def check(self) -> str | None:
        """Return a violation description, or None if the invariants hold."""
        if self.mode == "sampled":
            if self.declared_moment is None:
                return "sampled-mode distribution lacks a declared moment oracle"
            return None
        if len(self.values) != len(self.probs) or not self.values:
            return "support and probability lists disagree or are empty"
        # NaN fails every comparison below, so it has to be refused here
        if not all(math.isfinite(x) for x in (*self.values, *self.probs)):
            return "non-finite value or probability"
        if any(p < 0 for p in self.probs):
            return "negative probability"
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROB_TOL:
            return f"probabilities sum to {total!r}, not 1"
        mean = math.fsum(p * v for v, p in zip(self.values, self.probs))
        if abs(mean) > MEAN_TOL:
            return f"mean is {mean!r}, not 0 (martingale-difference property)"
        return None

    def moment(self, t: float) -> float:
        """E|xi|^t.  Exact finite sum in exact mode, declared oracle otherwise;
        +inf once a term or the sum leaves the float range."""
        try:
            if self.mode == "sampled":
                return float(self.declared_moment(t))
            if t == 2.0:
                # the t==2 path avoids pow() so conditional variances accumulate
                # bit-identically between scalar and batch code
                return math.fsum(p * v * v for v, p in zip(self.values, self.probs))
            return math.fsum(p * abs(v) ** t for v, p in zip(self.values, self.probs))
        except OverflowError:
            return math.inf

    def epsilon(self, rho: float) -> float:
        """The least eps with E|xi|^(2+rho) <= eps^rho E xi^2, that is
        ``(m_{2+rho} / m_2)^(1/rho)``; 0 when m_2 is 0, the condition being
        vacuous there.

        For an exact law, with A the largest |atom| of positive probability,
        l_i = log(|x_i| / A) and Q the law reweighted by q_i ~ p_i x_i^2:

        * the 1/rho power magnifies the ratio's rounding by about 1/rho, so
          below ``SMALL_RHO`` eps = A exp(log1p(y) / rho) with
          y = E_Q expm1(rho l), which rounds to a few ulps: there
          rho |l_i| < 0.36 for any two floats, so y > -0.3.  Once
          rho |l_i| < 2^-53 for every atom, eps is the rho -> 0 limit
          A exp(E_Q l).  From ``SMALL_RHO`` up the ratio's error stays
          below 2^-41, and the formula keeps its bits;
        * when m_2 or m_{2+rho} is no normal float (at large rho m_{2+rho}
          underflows or overflows), the ratio is taken in log space, with
          S_t = sum_i p_i (|x_i|/A)^t:
          log eps = log A + (log S_{2+rho} - log S_2) / rho.

        A sampled law keeps the formula, or where a moment is no normal float
        takes the difference of its ``declared_log_moment``, if it has one.
        """
        m2, moment = self._m2_cached, self.moment(2.0 + rho)
        # 2^-1022 is the least normal float
        normal = 2.0**-1022 <= min(m2, moment) and moment < math.inf
        if self.mode == "sampled":
            if normal or self.declared_log_moment is None:
                return 0.0 if m2 == 0.0 else (moment / m2) ** (1.0 / rho)
            return math.exp((self.declared_log_moment(2.0 + rho) - self.declared_log_moment(2.0)) / rho)
        atoms = [(p, abs(v)) for v, p in zip(self.values, self.probs) if p > 0.0 and v != 0.0]
        if not atoms:
            return 0.0
        top = max(a for _, a in atoms)
        if rho < SMALL_RHO:
            ratios = [(p, a / top) for p, a in atoms]
            # an atom whose q underflows adds nothing
            weights = [(p * r * r, math.log(r)) for p, r in ratios if p * r * r > 0.0]
            total = math.fsum(q for q, _ in weights)
            if rho * max(-l for _, l in weights) < 2.0**-53:
                return top * math.exp(math.fsum(q * l for q, l in weights) / total)
            y = math.fsum(q * math.expm1(rho * l) for q, l in weights) / total
            return top * math.exp(math.log1p(y) / rho)
        if normal:
            return (moment / m2) ** (1.0 / rho)

        def log_spread(t):
            return math.log(math.fsum(p * (a / top) ** t for p, a in atoms))

        return math.exp(math.log(top) + (log_spread(2.0 + rho) - log_spread(2.0)) / rho)

    @cached_property
    def _cumprobs(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probs, dtype=float))

    @cached_property
    def _values_arr(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to variates (inverse CDF in both modes)."""
        u = np.asarray(u, dtype=float)
        if self.mode == "sampled":
            return self.sampler(u)
        idx = np.searchsorted(self._cumprobs, u, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return self._values_arr[idx]


def rademacher_two_point(magnitude: float) -> StepDistribution:
    return StepDistribution(values=(-magnitude, magnitude), probs=(0.5, 0.5))


# ---------------------------------------------------------------------------
# kernels


class ConditionalKernel:
    """Base class: a martingale difference sequence declared by its step laws.

    A kernel declares ``n``, a ``label`` and ``step_regimes(step)``, the one
    or two laws that increment ``step`` (1-based) can take; the walks, the
    engine and the lattice oracle take the dynamics from ``transition`` and
    ``regime_of_state``.  A step with one law takes it on every path.  A
    step with two exact laws takes law 0 or 1 by the sign bit of the
    canonical position ``s_0*m_0 + s_1*m_1 + ...``, summed left to right in
    floats: ``m_k`` is the k-th distinct nonzero |atom| of the kernel's laws
    in order of first appearance (step by step, law by law, atom by atom),
    and ``s_k`` the net signed count of the path's steps of size ``m_k`` so
    far.  The state is the tuple ``(s_0, s_1, ...)`` of ints, or None, under
    which every history merges, for a kernel without a two-law step.
    """

    label: str = "kernel"
    n: int = 0

    def step_regimes(self, step: int) -> tuple[StepDistribution, ...]:
        raise NotImplementedError

    @cached_property
    def _magnitudes(self) -> dict[float, int] | None:
        """Each distinct nonzero |atom| of a kernel with a two-law step
        mapped to its coordinate k; None when every step has one law."""
        if all(len(self.step_regimes(step)) == 1 for step in range(1, self.n + 1)):
            return None
        magnitudes: dict[float, int] = {}
        for step, laws in enumerate(map(self.step_regimes, range(1, self.n + 1)), 1):
            if len(laws) > 2:
                raise KernelError(f"step {step} declares {len(laws)} laws; a step takes one or two")
            for dist in laws:
                if dist.mode == "sampled":
                    raise KernelError(f"step {step}: a sampled law in a kernel with a two-law step")
                for value in filter(None, dist.values):  # the nonzero atoms
                    magnitudes.setdefault(abs(value), len(magnitudes))
        return magnitudes

    def initial_state(self):
        return None if self._magnitudes is None else (0,) * len(self._magnitudes)

    def transition(self, state, value):
        """The state after an increment ``value``."""
        if state is None or not value:
            return state
        k = self._magnitudes.get(abs(value))
        if k is None:
            raise KernelError(f"increment {value!r} is not in this kernel's support")
        return state[:k] + (state[k] + (1 if value > 0.0 else -1),) + state[k + 1:]

    def regime_of_state(self, state, position=None, regime=None) -> np.ndarray:
        """The law, 0 or 1, that a two-law step takes in ``state``, one integer
        count (an int or an array) per magnitude: the sign bit of ``count_k *
        m_k`` summed left to right from +0.0 in float64, as intp of the counts'
        broadcast shape.  ``position`` and ``regime`` buffers of that shape, if
        given, receive the position and the result, whatever they held."""
        if regime is None:
            regime = np.empty(np.broadcast_shapes(*map(np.shape, state)), dtype=np.intp)
        position = np.empty(regime.shape) if position is None else position
        term = regime.view(np.float64)  # scratch until the sign bits go in
        terms = list(zip(state, self._magnitudes or ())) or [(0, 0.0)]  # +0.0 without magnitudes
        np.multiply(*terms[0], out=position)  # is +0.0 + it: an integer count makes no -0.0
        for count, magnitude in terms[1:]:
            np.add(position, np.multiply(count, magnitude, out=term), out=position)
        np.right_shift(position.view(np.uint64), _SIGN_BIT, out=regime.view(np.uint64))
        return regime

    def law_from_state(self, step: int, state) -> StepDistribution:
        laws = self.step_regimes(step)
        return laws[0] if len(laws) == 1 else laws[self.regime_of_state(state)]

    def certified_epsilon(self, rho: float) -> float | None:
        """Closed-form sup of the per-step moment ratio, when the family has one.

        Verified against exhaustive history walks in the test suite.
        """
        return None

    def certified_delta(self) -> float | None:
        """Closed-form sup of |<X>_n - 1|^(1/2), when the family has one."""
        return None


class _IidKernel(ConditionalKernel):
    """n independent copies of one step distribution."""

    def __init__(self, label: str, n: int, dist: StepDistribution):
        if n < 1:
            raise KernelError("n must be positive")
        self.label = label
        self.n = int(n)
        self.dist = dist

    def law_from_state(self, step, state):
        return self.dist

    def step_regimes(self, step):
        return (self.dist,)

    def certified_epsilon(self, rho):
        return self.dist.epsilon(rho)

    def certified_delta(self):
        return math.sqrt(abs(self.n * self.dist.moment(2) - 1.0))


class TableKernel(ConditionalKernel):
    """History-independent kernel with an explicit table per step.

    Distributions are validated at simulation time, not construction, so a
    broken table is reported with the offending step.
    """

    def __init__(self, steps: Sequence[StepDistribution], label: str = "table"):
        if not steps:
            raise KernelError("table kernel needs at least one step")
        self.label = label
        self.n = len(steps)
        self.steps = tuple(steps)

    def law_from_state(self, step, state):
        return self.steps[step - 1]

    def step_regimes(self, step):
        return (self.steps[step - 1],)


class VarianceDriftKernel(ConditionalKernel):
    """Rademacher steps whose conditional variance drifts with the path sign.

    Step k has conditional standard deviation sqrt((1+d)/n) when the current
    partial sum is >= 0 and sqrt((1-d)/n) otherwise, with a fresh fair sign.
    The terminal conditional variance therefore lies in [1-d, 1+d], the
    deviation d being attained on paths that never change side.

    Declared by its two laws, so its state is the net signed counts
    ``(a, b)`` of high and low steps and its regime the sign of ``a*h + b*l``
    alike in simulation, exhaustive walks and enumeration oracles.
    """

    def __init__(self, n: int, d: float):
        if n < 1:
            raise KernelError("n must be positive")
        if not 0.0 < d < 1.0:
            raise KernelError("drift d must lie in (0, 1)")
        self.label = f"variance_drift(d={d}, n={n})"
        self.n = int(n)
        self.d = float(d)
        self.high_mag = math.sqrt((1.0 + d) / n)
        self.low_mag = math.sqrt((1.0 - d) / n)
        self._regimes = (rademacher_two_point(self.high_mag), rademacher_two_point(self.low_mag))

    def law_from_state(self, step, state):
        return self._regimes[self.regime_of_state(state)]

    def step_regimes(self, step):
        return self._regimes

    def certified_epsilon(self, rho):
        # both regimes are reachable for n >= 2 (step 1 is high; a first
        # negative step makes step 2 low); each regime's ratio equals its
        # magnitude because the support has a single magnitude
        return self.high_mag

    def certified_delta(self):
        # sup |<X>_n - 1| = d, attained by paths that never leave the
        # nonnegative side (verified by exhaustive walks at small n)
        return math.sqrt(self.d)


def _gaussian_log_moment(sigma: float) -> Callable[[float], float]:
    def declared(t: float) -> float:
        # log E|sigma Z|^t for Z standard normal, finite at every t
        return (t * math.log(sigma) + t / 2.0 * math.log(2.0) + math.lgamma((t + 1.0) / 2.0)
                - 0.5 * math.log(math.pi))

    return declared


def _gaussian_moment(sigma: float, log_moment: Callable[[float], float]) -> Callable[[float], float]:
    def declared(t: float) -> float:
        # E|sigma Z|^t for Z standard normal; t = 2 bypasses the gamma form
        # so conditional variances accumulate without an ulp of drift
        if t == 2.0:
            return sigma * sigma
        scale = sigma**t
        if scale >= 2.0**-1022:  # a normal float: no digits lost to underflow
            try:
                moment = scale * 2 ** (t / 2.0) * math.gamma((t + 1.0) / 2.0) / math.sqrt(math.pi)
            except OverflowError:  # gamma past the float range
                moment = math.inf
            if moment < math.inf:
                return moment
        # past the float range of a factor: from log space (OverflowError,
        # which ``moment`` reads as inf, once the moment itself is past it)
        return math.exp(log_moment(t))

    return declared


def _make_iid_rademacher(n: int) -> ConditionalKernel:
    mag = 1.0 / math.sqrt(n)
    return _IidKernel(f"iid_rademacher(n={n})", n, rademacher_two_point(mag))


def _make_two_point(n: int, a: float) -> ConditionalKernel:
    if a <= 0:
        raise KernelError("two_point magnitude must be positive")
    return _IidKernel(f"two_point(a={a}, n={n})", n, rademacher_two_point(a))


def _make_three_point(n: int, b: float, q: float) -> ConditionalKernel:
    if b <= 0:
        raise KernelError("three_point jump size must be positive")
    if not 0.0 < q <= 1.0:
        raise KernelError("three_point jump probability must lie in (0, 1]")
    dist = StepDistribution(values=(-b, 0.0, b), probs=(q / 2.0, 1.0 - q, q / 2.0))
    return _IidKernel(f"three_point(b={b}, q={q}, n={n})", n, dist)


def _make_iid_scaled(n: int, values: Sequence[float], probs: Sequence[float]) -> ConditionalKernel:
    base = StepDistribution(values=tuple(float(v) for v in values), probs=tuple(float(p) for p in probs))
    reason = base.check()
    if reason is not None:
        raise KernelError(f"iid_scaled base distribution invalid: {reason}")
    sigma = math.sqrt(base.moment(2))
    if sigma == 0.0:
        raise KernelError("iid_scaled base distribution is degenerate")
    scale = 1.0 / (sigma * math.sqrt(n))
    dist = StepDistribution(
        values=tuple(v * scale for v in base.values), probs=base.probs
    )
    return _IidKernel(f"iid_scaled(n={n})", n, dist)


def _make_iid_gaussian(n: int) -> ConditionalKernel:
    sigma = 1.0 / math.sqrt(n)

    def sampler(u: np.ndarray) -> np.ndarray:
        from scipy.special import ndtri

        u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
        return sigma * ndtri(u)

    log_moment = _gaussian_log_moment(sigma)
    dist = StepDistribution(sampler=sampler, declared_moment=_gaussian_moment(sigma, log_moment),
                            declared_log_moment=log_moment)
    return _IidKernel(f"iid_gaussian(n={n})", n, dist)


def _make_table(steps: Sequence[dict], n: int | None = None) -> ConditionalKernel:
    dists = [StepDistribution(values=tuple(float(v) for v in s["values"]),
                              probs=tuple(float(p) for p in s["probs"])) for s in steps]
    if n is not None and int(n) != len(dists):
        raise KernelError(f"table kernel has {len(dists)} steps, grid asked for n={n}")
    return TableKernel(dists)


KERNEL_FAMILIES: dict[str, Callable[..., ConditionalKernel]] = {
    "iid_rademacher": _make_iid_rademacher,
    "iid_scaled": _make_iid_scaled,
    "two_point": _make_two_point,
    "three_point": _make_three_point,
    "variance_drift": VarianceDriftKernel,
    "iid_gaussian": _make_iid_gaussian,
    "table": _make_table,
}


def make_kernel(name: str, **params) -> ConditionalKernel:
    """Instantiate a registry kernel by name."""
    if name not in KERNEL_FAMILIES:
        raise KernelError(f"unknown kernel family {name!r}")
    return KERNEL_FAMILIES[name](**params)


# ---------------------------------------------------------------------------
# path containers


@dataclass(frozen=True)
class PathCollection:
    """A batch of paths, one row per path."""

    increments: np.ndarray  # (count, n)
    sums: np.ndarray  # (count, n+1)
    variances: np.ndarray  # (count, n+1)

    def __len__(self) -> int:
        return self.increments.shape[0]


@dataclass(frozen=True)
class TerminalStatistics:
    """Terminal-sample statistics of one simulation (see ``sample_terminal``).

    The stored fields are raw sums over the paths; sample means are exposed
    as properties.
    """

    p: float
    count: int
    terminal: np.ndarray
    sum_var_dev_p: float  # sum over paths of |<X>_n - 1|^p
    sum_var_dev_2p: float  # sum over paths of |<X>_n - 1|^(2p), for stderrs
    sum_max_inc_2p: float  # sum over paths of max_i |xi_i|^(2p)
    sum_total_inc_2p: float  # sum over paths of sum_i |xi_i|^(2p)
    max_var_dev: float  # max over paths of |<X>_n - 1|

    @property
    def mean_var_dev_p(self) -> float:
        return self.sum_var_dev_p / self.count

    @property
    def stderr_var_dev_p(self) -> float:
        """Standard error of the E|<X>_n - 1|^p estimate."""
        mean = self.mean_var_dev_p
        var = max(self.sum_var_dev_2p / self.count - mean * mean, 0.0)
        return math.sqrt(var / self.count)

    @property
    def mean_max_inc_2p(self) -> float:
        return self.sum_max_inc_2p / self.count

    @property
    def mean_total_inc_2p(self) -> float:
        """Estimate of sum_i E|xi_i|^(2p)."""
        return self.sum_total_inc_2p / self.count


# ---------------------------------------------------------------------------
# simulation engine


#: No 53-bit word ``w >> 11`` of a mixed 64-bit word ``w`` reaches it.
_WORD_LIMIT = 2.0**53
_SHIFT = np.uint64(11)
_SIGN = np.uint64(1 << 63)
_SIGN_BIT = np.uint64(63)
_TOP_BIT = np.uint64(52)  # the highest bit of a 53-bit word
#: Uniforms per sampler call: 64 KiB of float64, under glibc's default
#: 128 KiB threshold for mapping an allocation afresh.
_SAMPLER_BLOCK = 1 << 13
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0


def _word_thresholds(c) -> np.ndarray:
    """Integer thresholds ``T(c) = min(ceil(c * 2**53), 2**53)`` (uint64) of
    cumulative probabilities ``c >= 0``.

    For a 53-bit word ``w`` and its uniform ``u = w * 2**-53``, ``w >= T(c)``
    exactly when ``u >= c``: ``c * 2**53`` and its ceiling are exact floats.
    An inf or NaN threshold, or one above 1, becomes ``2**53``, which no word
    reaches, just as no uniform reaches it.
    """
    t = np.ceil(np.asarray(c, dtype=float) * _WORD_LIMIT)
    return np.where(t < _WORD_LIMIT, t, _WORD_LIMIT).astype(np.uint64)


@dataclass(frozen=True)
class _StepTable:
    """The regime laws of one step, flattened for selection by gathers.

    Path i takes the flat atom ``regime_i * width + j_i``, where ``j`` counts
    the thresholds its 53-bit word ``w`` reaches: ``j = sum_s (w >= T_s)``
    with ``T_s = _word_thresholds(c_s)`` for the first ``width - 1``
    cumulative probabilities ``c_s``.  That is the
    ``searchsorted(side="right")`` inverse CDF of the uniform ``w * 2**-53``
    clipped to the last atom, so a uniform equal to a cumulative probability
    selects the upper atom.  A threshold is a uint64 scalar when every regime
    shares it and a per-regime array otherwise; a narrower support gets
    ``inf`` thresholds, so its padding atoms are never selected.  A single
    sampled-mode law carries its ``sampler`` instead, which maps the
    uniforms ``w * 2**-53``.

    A fair table, whose regimes are all fair laws +-a (``T_0 = 2**52``,
    atoms that differ only in the sign bit), selects without thresholds: a
    regime's second atom is taken exactly when ``(z >> 11) >= 2**52`` for
    the raw 64-bit word ``z``, that is when the sign bit of ``z`` is set, so
    the increment's bits are ``sign_base ^ (z & 2**63)`` with ``sign_base``
    the bits of the regime's first atom.  Only bit 63 of ``z`` is read, so
    its words may be sign-only (``rng.uniforms_at``).

    A step has one or two regimes.  A value per regime of two (a threshold,
    ``m2``, ``sign_base``, a fair table's ``pow2p``) is kept in the form
    ``select`` takes, the bits ``(lo, lo ^ hi)`` of its two values.
    """

    regimes: int
    width: int
    # each a uint64 scalar shared by every regime, or per regime
    thresholds: tuple = ()
    values: np.ndarray | None = None
    m2: tuple | np.ndarray | float = 0.0  # per regime; a float for one regime
    # |value|^(2p) per regime for a fair table (an array for one regime),
    # per flat atom otherwise
    pow2p: tuple | np.ndarray | None = None
    # the |value| of every atom of a single-regime table whose atoms share one
    abs_value: float | None = None
    # per regime, the |value| that all its atoms share (0.0 for zeros only),
    # or None where they share none; the engine's counts read it
    magnitudes: tuple = ()
    max_abs: float = math.inf  # the largest |atom|; inf for a sampler
    sampler: Callable[[np.ndarray], np.ndarray] | None = None
    # the first atoms' bits of a fair table: per regime, a scalar for one
    sign_base: tuple | np.ndarray | np.uint64 | None = None
    # (word thresholds, atoms, m2, |atom|^(2p)) as plain arrays, which chain
    # matching compares; empty for a sampler
    arrays: tuple = ()

    @property
    def gathers(self) -> bool:
        """Whether ``draw`` and the per-path sums need the gather buffer:
        for the atom indices of a finite table that is not fair, or the
        per-regime values of a fair one."""
        return self.sampler is None and (self.sign_base is None or self.regimes > 1)

    def select(self, per_regime, regime, out: np.ndarray) -> np.ndarray:
        """Write each path's value of ``per_regime`` (``_by_regime``) into
        ``out`` (8-byte elements) and return ``out``: the bits
        ``lo ^ (r * (lo ^ hi))`` with ``r`` the 0/1 regime as uint64, one
        multiply and one xor, exact for any bits, +-0.0 included."""
        lo, flip = per_regime
        bits = out.view(np.uint64)
        np.multiply(regime.view(np.uint64), flip, out=bits)
        np.bitwise_xor(bits, lo, out=bits)
        return out

    def draw(self, words, signs: bool, regime, spare, gather, xi) -> np.ndarray:
        """Select the increments that a step's shared ``words`` (uint64,
        left as they are) pick, and return the array that holds them.

        ``words`` holds each path's sign bit alone when ``signs``, which
        only a fair table reads, and its 53-bit word ``w >> 11`` otherwise.
        A fair table writes its increments into ``spare`` and returns its
        float64 view; ``gather`` is its scratch for the per-regime sign bases
        when the words are not signs.  A sampler writes its variates into
        ``xi``.  Any other table writes them into ``xi``, after using it as
        scratch for per-regime thresholds, the flat atom index of every path
        into ``gather`` (intp), and uses ``spare`` as scratch.
        """
        if self.sign_base is not None:
            base = self.sign_base
            if signs:
                if self.regimes > 1:
                    base = self.select(base, regime, spare)
                np.bitwise_xor(words, base, out=spare)
            else:
                if self.regimes > 1:
                    base = self.select(base, regime, gather)
                # bit 52 of w >> 11 is the sign bit of w
                np.right_shift(words, _TOP_BIT, out=spare)
                np.left_shift(spare, _SIGN_BIT, out=spare)
                np.bitwise_xor(spare, base, out=spare)
            return spare.view(np.float64)
        if self.sampler is not None:
            np.multiply(words, 2.0**-53, out=xi)  # the uniforms, as rng.uniforms makes them
            # an inverse CDF maps each uniform alone, so it runs on blocks
            # whose temporaries are reused from the heap, not mapped afresh
            for at in range(0, len(xi), _SAMPLER_BLOCK):
                xi[at : at + _SAMPLER_BLOCK] = self.sampler(xi[at : at + _SAMPLER_BLOCK])
            return xi
        idx, flag = gather.view(np.intp), spare.view(np.intp)
        if not self.thresholds:
            idx.fill(0)
        for s, c in enumerate(self.thresholds):
            if not isinstance(c, np.uint64):
                c = self.select(c, regime, xi.view(np.uint64))
            np.greater_equal(words, c, out=flag if s else idx)
            if s:
                np.add(idx, flag, out=idx)
        if self.regimes > 1:
            np.multiply(regime, self.width, out=flag, dtype=np.intp)
            np.add(idx, flag, out=idx)
        return np.take(self.values, idx, out=xi, mode="clip")


def _by_regime(values: np.ndarray):
    """Two 8-byte values, one per regime, in the form ``_StepTable.select`` takes."""
    bits = np.ascontiguousarray(values).view(np.uint64)
    return bits[0], bits[0] ^ bits[1]


def _step_table(step: int, laws: tuple[StepDistribution, ...], p: float) -> _StepTable:
    for k, dist in enumerate(laws):
        reason = dist._check_cached
        if reason is not None:
            if len(laws) > 1:
                reason = f"{reason} (regime {k})"
            raise InvalidKernelError(step, (), reason)
    if any(dist.mode == "sampled" for dist in laws):
        if len(laws) > 1:
            raise KernelError(f"step {step}: a sampled-mode law must be the step's only regime")
        return _StepTable(regimes=1, width=1, m2=laws[0]._m2_cached, sampler=laws[0].sampler)
    width = max(len(dist.values) for dist in laws)
    cum = np.full((len(laws), width - 1), np.inf)
    values = np.zeros((len(laws), width))
    for r, dist in enumerate(laws):
        k = len(dist.values)
        cum[r, : k - 1] = dist._cumprobs[:-1]
        values[r, :k] = dist._values_arr
    m2 = np.array([dist._m2_cached for dist in laws])
    abs_values = np.abs(values)
    magnitudes = tuple(float(row[0]) if np.all(row[: len(dist.values)] == row[0]) else None
                       for row, dist in zip(abs_values, laws))
    columns = _word_thresholds(cum).T
    thresholds = tuple(col[0] if np.all(col == col[0]) else _by_regime(col) for col in columns)
    sign_base = None
    if width == 2 and np.all(columns[0] == 1 << 52):
        first, second = values.view(np.uint64).T
        if np.all(first ^ second == _SIGN):
            sign_base = _by_regime(first) if len(laws) > 1 else first[0]
            abs_values = abs_values[:, 0]  # each regime's atoms share one |value|
    # elementwise the same floats as np.abs(xi) ** (2.0 * p) on the drawn
    # increments
    pow2p = abs_values.ravel() ** (2.0 * p)
    values = values.ravel()
    return _StepTable(
        regimes=len(laws),
        width=width,
        thresholds=thresholds,
        values=values,
        m2=float(m2[0]) if len(laws) == 1 else _by_regime(m2),
        pow2p=_by_regime(pow2p) if sign_base is not None and len(laws) > 1 else pow2p,
        abs_value=magnitudes[0] if len(laws) == 1 else None,
        max_abs=float(abs_values.max()),
        magnitudes=magnitudes,
        sign_base=sign_base,
        arrays=(columns, values, m2, pow2p),
    )


def _table_at(tables: dict, laws: tuple[StepDistribution, ...], step: int, p: float) -> _StepTable:
    """The table of a kernel's ``laws`` at ``step``, built once per distinct
    law tuple and kept in ``tables``."""
    law_bits = tuple(dist._table_key for dist in laws)
    table = tables.get(law_bits)
    if table is None:
        table = tables[law_bits] = _step_table(step, laws, p)
    return table


# ---------------------------------------------------------------------------
# chains


#: Chained tables keep every nonzero atom, m2 and |atom|^(2p) in
#: [_CHAIN_TINY, _CHAIN_HUGE / n].  Each of them is then a multiple of
#: 2**-952, and so is each rounded partial sum of them, which is therefore 0
#: or a normal float, and no sum of n of them comes near overflow: in the
#: leader's run and in the follower's alike.  In the normal range rounding
#: commutes with scaling by a power of two.
_CHAIN_TINY = 2.0**-900
_CHAIN_HUGE = 2.0**900
#: The largest |e| of a chain's scales 2**e: a scaled value stays within
#: 2**-1000 .. 2**1000.
_CHAIN_EXPONENT = 100


@dataclass(frozen=True)
class _Link:
    """A follower's chain: its leader's index among the call's kernels, and
    the powers of two that take the leader's atoms, m2 and |atom|^(2p) to
    its own."""

    leader: int
    atom: float
    m2: float
    pow2p: float


def _scales(follower: _StepTable, leader: _StepTable) -> tuple[float, float, float] | None:
    """The powers of two that take the leader's atoms, m2 and |atom|^(2p)
    to the follower's, read off each array's first nonzero leader entry
    (``_scaled`` checks them in full); None for a sampler, an array without
    such an entry, or a scale past ``_CHAIN_EXPONENT``."""
    if not (follower.arrays and leader.arrays):
        return None
    scales = []
    for mine, theirs in zip(follower.arrays[1:], leader.arrays[1:]):
        nonzero = np.flatnonzero(theirs)
        if not nonzero.size or mine.shape != theirs.shape:
            return None
        e = math.frexp(mine[nonzero[0]])[1] - math.frexp(theirs[nonzero[0]])[1]
        if abs(e) > _CHAIN_EXPONENT:
            return None
        scales.append(math.ldexp(1.0, e))
    return tuple(scales)


def _scaled(follower: _StepTable, leader: _StepTable, scales, n: int) -> bool:
    """Whether ``follower`` selects as ``leader`` does, and its atoms, m2 and
    |atom|^(2p) are the leader's times ``scales``, bit for bit, with each
    table's values in the range that keeps n-term sums exact to scale."""
    if not (follower.arrays and leader.arrays and follower.regimes == leader.regimes
            and follower.width == leader.width
            and np.array_equal(follower.arrays[0], leader.arrays[0])):
        return False
    for table in (follower, leader):
        magnitudes = np.abs(np.concatenate(table.arrays[1:]))
        if (n * magnitudes.max() > _CHAIN_HUGE
                or np.any((magnitudes > 0.0) & (magnitudes < _CHAIN_TINY))):
            return False
    return all(np.array_equal(mine.view(np.uint64), (theirs * scale).view(np.uint64))
               for mine, theirs, scale in zip(follower.arrays[1:], leader.arrays[1:], scales))


def _chain_link(follower: ConditionalKernel, leader: ConditionalKernel, index: int,
                tables: dict, p: float) -> _Link | None:
    """``follower``'s link to ``leader`` (``kernels[index]``, at least as
    long), or None when its run cannot be read off the leader's.

    It can when, at each of its steps, its table is the leader's scaled as
    ``_scaled`` checks, with one set of scales for every step.  It then
    picks the leader's regimes too: its magnitudes are the leader's first
    ones times 2**e, the others count 0 over its steps, so its canonical
    position is the leader's times 2**e.  A step whose laws are invalid
    refuses the link, and the chunks raise its error where a kernel
    simulated alone does.
    """
    scales, seen = None, set()
    try:
        for step in range(1, follower.n + 1):
            mine = _table_at(tables, follower.step_regimes(step), step, p)
            theirs = _table_at(tables, leader.step_regimes(step), step, p)
            if (id(mine), id(theirs)) in seen:  # ``tables`` holds both, so the ids stay theirs
                continue
            seen.add((id(mine), id(theirs)))
            scales = scales or _scales(mine, theirs)
            if scales is None or not _scaled(mine, theirs, scales, follower.n):
                return None
    except KernelError:
        return None
    return _Link(index, *scales)


def _chain_links(kernels: Sequence[ConditionalKernel], tables: dict, p: float) -> list:
    """Each kernel's ``_Link`` to its chain's leader, or None for a leader.

    Longest first, each kernel follows the first leader that it links to
    (``_chain_link``), and leads otherwise; a kernel with no partner is its
    own leader."""
    links: list = [None] * len(kernels)
    leaders: list[int] = []
    for i in sorted(range(len(kernels)), key=lambda i: -kernels[i].n):
        for j in leaders:
            links[i] = _chain_link(kernels[i], kernels[j], j, tables, p)
            if links[i] is not None:
                break
        else:
            leaders.append(i)
    return links


@dataclass
class _PathOutputs:
    """One kernel's per-path results over the paths of one chunk.

    ``variance``, ``max_abs`` and ``total_2p`` are each 0.0 on entry, and
    the chunk replaces it with its result: the value of every path while
    that is the same on every path, else a row of its own.  None asks for
    no such sum.
    """

    terminal: np.ndarray | None  # X_n; None where only the increments are kept
    variance: np.ndarray | float = 0.0  # <X>_n
    max_abs: np.ndarray | float | None = None  # max_i |xi_i|
    total_2p: np.ndarray | float | None = None  # sum_i |xi_i|^(2p)
    increments: np.ndarray | None = None  # (n, count), step-major
    variances: np.ndarray | None = None  # (n + 1, count), step-major


class _RunningSum:
    """A per-path running sum that stays one float while it is the same on
    every path, and becomes a row with the first value that differs between
    paths.  Either way every path adds the same floats in the same order."""

    __slots__ = ("value", "count")

    def __init__(self, count: int):
        self.value = 0.0  # every path's sum, or the row of them
        self.count = count

    def add(self, value) -> None:
        """Add ``value``: a float for every path, or one per path."""
        if isinstance(self.value, float) and not isinstance(value, float):
            self.value = np.full(self.count, self.value)
        self.value += value


class _RunningMax:
    """max_i |xi_i| per path: a floor that every path's maximum has reached,
    and a row only while some path may lie above it.

    The first per-path step allocates the row, and a finite table's step
    drops it again once no path lies above the floor.
    """

    __slots__ = ("floor", "row", "count")

    def __init__(self, count: int):
        self.floor = 0.0
        self.row = None
        self.count = count

    def take(self, inc: np.ndarray, scratch: np.ndarray, finite: bool) -> None:
        """Take each |inc| into its path's maximum; a ``finite`` table's
        least per-path maximum raises the floor."""
        if self.row is None:
            self.row = np.abs(inc, out=np.empty(self.count))
        else:
            np.maximum(self.row, np.abs(inc, out=scratch), out=self.row)
        if finite:
            self.floor = max(self.floor, float(self.row.min()))
            if float(self.row.max()) <= self.floor:
                self.row = None

    def result(self):
        if self.row is None:
            return self.floor
        np.maximum(self.row, self.floor, out=self.row)
        return self.row


class _ChunkPoint:
    """A leading kernel's share of a chunk: its outputs, sums and declared
    state, and its followers' outputs by the step that ends them.

    A kernel with a two-law step (see ``ConditionalKernel``) keeps a row of
    counts per magnitude, as integer floats, and ``regime_of_state``'s
    buffers; ``rows`` is None for any other kernel."""

    __slots__ = ("kernel", "out", "rows", "position", "regime", "plans",
                 "variance", "max_abs", "total_2p", "followers", "laws", "table")

    def __init__(self, kernel: ConditionalKernel, out: _PathOutputs, count: int):
        self.kernel, self.out = kernel, out
        self.variance = _RunningSum(count)
        self.max_abs = None if out.max_abs is None else _RunningMax(count)
        self.total_2p = None if out.total_2p is None else _RunningSum(count)
        init = kernel.initial_state()
        self.rows = None if init is None else [np.zeros(count) for _ in init]
        if init is not None:
            self.position, self.regime = np.empty(count), np.empty(count, dtype=np.intp)
            self.plans: dict[int, list] = {}  # per table id, how ``advance`` counts
        self.followers: dict[int, list[tuple[_PathOutputs, _Link]]] = {}
        self.laws: tuple = ()

    def table_at(self, tables: dict, step: int, p: float) -> _StepTable:
        """The kernel's table at ``step``: the last step's, without a
        lookup, when the kernel declares the same law objects again (by
        identity: laws that differ only in the sign of a zero are ``==``)."""
        laws = self.kernel.step_regimes(step)
        if laws is not self.laws and (len(laws) != len(self.laws)
                                      or not all(map(operator.is_, laws, self.laws))):
            self.laws, self.table = laws, _table_at(tables, laws, step, p)
        return self.table

    def regimes(self) -> np.ndarray:
        """Each path's regime (intp 0 or 1) by ``regime_of_state``, in the chunk's buffers."""
        return self.kernel.regime_of_state(self.rows, self.position, self.regime)

    def advance(self, table: _StepTable, inc: np.ndarray, gather) -> None:
        """Count each path's increment ``inc`` of a step of ``table``,
        consuming the regime.  Where each law's atoms share one magnitude,
        ``unit = (inc & 2**63) | bits(1.0)`` is the +-1.0 of the increment's
        sign and ``low = unit * r`` as integers +-1.0 on a path of law 1,
        +0.0 on one of law 0: law 1's row adds ``low``, law 0's ``unit ^
        low``.  Otherwise each row adds its +-1.0 or 0.0 per atom, by the
        flat atom index that ``_StepTable.draw`` left in ``gather``."""
        plan = self.plans.get(id(table))
        if plan is None:  # from the kernel's transitions out of zero counts
            init, move = self.kernel.initial_state(), self.kernel.transition
            if None in table.magnitudes:  # each row that an atom moves, and its move per atom
                moves = np.array([move(init, value) for value in table.values.tolist()]).T
                plan = [(k, row.astype(float)) for k, row in enumerate(moves) if row.any()]
            else:  # the row of each law's magnitude, None for a law of zeros
                plan = [move(init, m).index(1) if m else None for m in table.magnitudes]
            self.plans[id(table)] = plan
        if None in table.magnitudes:
            for k, per_atom in plan:
                np.take(per_atom, gather.view(np.intp), out=self.position, mode="clip")
                self.rows[k] += self.position
            return
        unit, low = self.position.view(np.uint64), self.regime.view(np.uint64)  # scratch by now
        np.bitwise_and(inc.view(np.uint64), _SIGN, out=unit)
        np.bitwise_or(unit, _ONE, out=unit)
        if table.regimes == 2:
            np.multiply(unit, low, out=low)
            if plan[1] is not None:
                self.rows[plan[1]] += self.regime.view(np.float64)
            np.bitwise_xor(unit, low, out=unit)
        if plan[0] is not None:
            self.rows[plan[0]] += self.position

    def lend(self, out: _PathOutputs, link: _Link) -> None:
        """Write this kernel's running values, scaled by ``link``, as a
        follower's results; the follower asks for the same sums."""
        if out.terminal is not None:
            np.multiply(self.out.terminal, link.atom, out=out.terminal)
        out.variance = self.variance.value * link.m2
        if self.max_abs is not None:
            floor, row = self.max_abs.floor, self.max_abs.row
            if row is None:
                out.max_abs = floor * link.atom
            else:
                out.max_abs = np.maximum(row, floor)
                out.max_abs *= link.atom
        if self.total_2p is not None:
            out.total_2p = self.total_2p.value * link.pow2p

    def finish(self) -> None:
        self.out.variance = self.variance.value
        if self.max_abs is not None:
            self.out.max_abs = self.max_abs.result()
        if self.total_2p is not None:
            self.out.total_2p = self.total_2p.value


def _simulate_chunk(kernels, key, start, count, outs, p, links=None):
    """Simulate paths ``start .. start + count - 1`` of each kernel in
    ``kernels`` into its ``_PathOutputs`` in ``outs``.

    One step loop serves every kernel.  Step k draws the paths' counter
    words once, in one ``rng.uniforms_at`` call, and advances each leading
    kernel with n >= k by its own operations, in the order a kernel
    simulated alone takes them, so its outputs keep their bits.  A kernel
    whose entry of ``links`` is a ``_Link`` follows its leader instead: it
    takes no step of its own, and at its last step it takes the leader's
    running values, scaled (``_ChunkPoint.lend``).

    The words are sign-only when each table of the step is fair, and full
    otherwise, shifted to 53 bits for tables that select with thresholds
    and for samplers.  Every buffer is allocated once per chunk and each
    step runs in place: the regime of a two-law step from the kernel's
    counts, table selection of the increment, gathers of its conditional
    variance and |xi|^(2p), then the counts' update (``_ChunkPoint``).

    Sums that are the same on every path stay Python floats, and max |xi|
    keeps a floor that every path has reached (``_RunningSum``,
    ``_RunningMax``).
    """
    links = [None] * len(kernels) if links is None else links
    ctr_base = rng.path_counter_base(np.arange(start, start + count, dtype=np.uint64))
    words = np.empty(count, dtype=np.uint64)
    # built per chunk: tables shared by the threads of a run raised the
    # peak RSS of perfbench's rates-iid workload by about 1 MB
    tables: dict[tuple, _StepTable] = {}
    leaders = {i: _ChunkPoint(kernel, out, count)
               for i, (kernel, out, link) in enumerate(zip(kernels, outs, links)) if link is None}
    for kernel, out, link in zip(kernels, outs, links):
        if link is not None:
            leaders[link.leader].followers.setdefault(kernel.n, []).append((out, link))
    points = list(leaders.values())

    # the gather buffer comes with the others if step 1 needs it, else with
    # the first step that does; the spare is the mix scratch until the
    # words are drawn, then a fair table's increments or the selection flags
    gather = (np.empty(count, dtype=np.uint64)
              if any(point.table_at(tables, 1, p).gathers for point in points) else None)
    spare = np.empty(count, dtype=np.uint64)
    xi = None  # allocated by the first table that is not fair
    for step in range(1, max(point.kernel.n for point in points) + 1):
        active = [(point, point.table_at(tables, step, p)) for point in points
                  if point.kernel.n >= step]
        signs = all(table.sign_base is not None for _, table in active)
        rng.uniforms_at(key, ctr_base, step - 1, out=words, scratch=spare, sign_only=signs)
        if signs:
            np.bitwise_and(words, _SIGN, out=words)
        else:
            np.right_shift(words, _SHIFT, out=words)
        for point, table in active:
            out = point.out
            regime = None if table.regimes == 1 else point.regimes()
            fair = table.sign_base is not None
            if gather is None and table.gathers:
                gather = np.empty(count, dtype=np.uint64)
            if xi is None and not fair:
                xi = np.empty(count)
            inc = table.draw(words, signs, regime, spare, gather, xi)
            # the scratch of the gathers below, free once the increments are drawn
            scratch = gather if fair else spare
            gathered = None if scratch is None else scratch.view(np.float64)
            if out.terminal is not None:
                out.terminal += inc
            point.variance.add(table.m2 if table.regimes == 1
                               else table.select(table.m2, regime, gathered))
            if out.increments is not None:
                out.increments[step - 1] = inc
                out.variances[step] = point.variance.value
            if point.max_abs is not None:
                if table.abs_value is not None:
                    point.max_abs.floor = max(point.max_abs.floor, table.abs_value)
                elif table.max_abs > point.max_abs.floor:
                    point.max_abs.take(inc, gathered, table.sampler is None)
            if point.total_2p is not None:
                if table.sampler is not None:
                    point.total_2p.add(np.abs(inc) ** (2.0 * p))
                elif table.abs_value is not None:
                    point.total_2p.add(table.pow2p[0])
                elif fair:
                    point.total_2p.add(table.select(table.pow2p, regime, gathered))
                else:
                    point.total_2p.add(np.take(table.pow2p, gather.view(np.intp),
                                               out=gathered, mode="clip"))
            if point.rows is not None:
                point.advance(table, inc, gather)
            for follower in point.followers.get(step, ()):
                point.lend(*follower)
    for point in points:
        point.finish()


def _chunks(count: int, chunk_size: int):
    return [(start, min(chunk_size, count - start)) for start in range(0, count, chunk_size)]


def _run_chunks(fn, pieces, threads: int):
    if threads <= 1:
        return [fn(*piece) for piece in pieces]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, *piece) for piece in pieces]
        return [f.result() for f in futures]


def _check_run(kernels, count: int) -> None:
    """Refuse a run without a kernel or a path, or past the draw budget."""
    if not kernels:
        raise KernelError("no kernel to simulate")
    if count < 1:
        raise KernelError("count must be >= 1")
    if any(kernel.n >= rng.MAX_DRAWS_PER_PATH for kernel in kernels):
        raise KernelError("path length exceeds the per-path draw budget")


def check_bundle(count: int, length: int) -> None:
    """Reject a bundle of ``count`` paths of ``length`` steps unless it holds
    at least one path and ``count * length`` fits ``BUNDLE_CELL_GUARD``."""
    if count < 1:
        raise KernelError("count must be >= 1")
    if count * length > BUNDLE_CELL_GUARD:
        raise KernelError(
            f"{count} paths of length {length} exceed the bundle memory guard of "
            f"{BUNDLE_CELL_GUARD} cells; use sample_terminal for large runs"
        )


def sample_paths(
    kernel: ConditionalKernel,
    seed: int,
    count: int,
    chunk_size: int = DEFAULT_CHUNK,
    threads: int = 1,
) -> PathCollection:
    """Simulate ``count`` full paths.

    Deterministic in (kernel, seed, count) and independent of chunking and
    thread assignment: replicate j always consumes the words of its own
    counter stream.
    """
    _check_run((kernel,), count)
    check_bundle(count, kernel.n)
    key = rng.stream_key(seed, rng.STREAM_SIMULATION)
    n = kernel.n
    # Each chunk fills arrays of its own, joined below and freed on return.
    # Writing into full-count arrays instead, or freeing the chunk arrays
    # before the joined ones exist, fragmented the heap enough to raise the
    # peak RSS of perfbench's exact-verify workload by about 35 MB.  The
    # chunk arrays are step-major, so each step writes a row of each; the
    # join transposes them into the path-major arrays, C-contiguous, so
    # that a sum along a path adds pairwise over a contiguous axis.
    pieces = [
        ((kernel,), key, start, size, (_PathOutputs(
            terminal=None,
            increments=np.empty((n, size)),
            variances=np.zeros((n + 1, size)),
        ),), 1.0)
        for start, size in _chunks(count, chunk_size)
    ]
    _run_chunks(_simulate_chunk, pieces, threads)
    increments, variances = np.empty((count, n)), np.empty((count, n + 1))
    for _, _, start, size, (out,), _ in pieces:
        increments[start : start + size] = out.increments.T
        variances[start : start + size] = out.variances.T
    sums = np.zeros((count, n + 1))
    np.cumsum(increments, axis=1, out=sums[:, 1:])
    return PathCollection(increments=increments, sums=sums, variances=variances)


def sample_terminal(
    kernel: ConditionalKernel,
    seed: int,
    count: int,
    p: float = 1.0,
    with_sum_inc: bool = False,
    chunk_size: int = DEFAULT_CHUNK,
    threads: int = 1,
) -> TerminalStatistics:
    """Streaming simulation: terminal samples and pooled moment statistics.

    Memory stays O(count + threads * _REDUCE_BLOCK); increments are never
    materialized.  Every field is bit-identical across chunk sizes and thread
    counts.
    """
    return sample_terminals((kernel,), seed, count, p, with_sum_inc, chunk_size, threads)[0]


def sample_terminals(
    kernels: Sequence[ConditionalKernel],
    seed: int,
    count: int,
    p: float = 1.0,
    with_sum_inc: bool = False,
    chunk_size: int = DEFAULT_CHUNK,
    threads: int = 1,
) -> list[TerminalStatistics]:
    """``sample_terminal`` of each kernel, in one step loop.

    Every kernel reads the same counter streams, so each step's words are
    drawn once for all kernels still running (see ``_simulate_chunk``).
    Result i is bit for bit ``sample_terminal(kernels[i], seed, count, p,
    with_sum_inc)``.  The terminals of every kernel are held at once; the
    kernels with a two-law step, which keep counts, share the chunk length
    that one such kernel would get.

    The kernels form chains (``_chain_links``).  A follower's tables are,
    at each of its steps, a leader's with every atom scaled by 2**e, m2 by
    2**e2 and |atom|^(2p) by 2**e3, bit for bit, for one (e, e2, e3).  Its
    increments are then the leader's times 2**e on every path, and as
    rounding commutes with such a scale in the normal range, it takes no
    step and reads its sums off the leader's, scaled, at its last step.  On
    a dyadic grid ``1/sqrt(n)`` at n and 4n differ by exactly 2.
    """
    kernels = tuple(kernels)
    _check_run(kernels, count)
    if p < 1.0:
        raise KernelError("p must be >= 1")
    key = rng.stream_key(seed, rng.STREAM_SIMULATION)
    terminals = [np.zeros(count) for _ in kernels]
    # a kernel's counts hold a few values per path of the chunk.  A
    # follower holds none, but dividing by the leaders alone doubles the
    # chunk of a grid that halves into chains, and its shared buffers with
    # it, for no measured speed (rates-drift: about 1 MB more peak RSS).
    # First, so that a step of three laws is refused before any table
    stateful = sum(kernel.initial_state() is not None for kernel in kernels)
    chunk_size = max(1, chunk_size // max(stateful, 1))
    links = _chain_links(kernels, {}, float(p))
    # The paths run in windows of whole reduction blocks, two per thread.
    # Chunks fill row slices of the terminals and return the other per-path
    # sums, and every block's sums are taken once the window is done, so the
    # pooled sums reduce the same per-path values whatever the chunking, and
    # only the terminals are held for all paths.
    window = min(count, 2 * max(threads, 1) * _REDUCE_BLOCK)
    pooled: list[list] = [[] for _ in kernels]  # per kernel, the sums of each block
    for first in range(0, count, window):
        size = min(window, count - first)
        blocks = [
            [(kernels, key, first + block + start, length,
              tuple(_PathOutputs(terminal=t[first + block + start : first + block + start + length],
                                 max_abs=0.0, total_2p=0.0 if with_sum_inc else None)
                    for t in terminals), float(p), links)
             for start, length in _chunks(min(_REDUCE_BLOCK, size - block), chunk_size)]
            for block in range(0, size, _REDUCE_BLOCK)
        ]
        _run_chunks(_simulate_chunk, [piece for block in blocks for piece in block], threads)
        for block in blocks:
            for i, sums in enumerate(pooled):
                sums.append(_block_sums([(piece[3], piece[4][i]) for piece in block], p))
    return [
        TerminalStatistics(
            p=float(p),
            count=count,
            terminal=terminal,
            sum_var_dev_p=math.fsum(b[0] for b in sums),
            sum_var_dev_2p=math.fsum(b[1] for b in sums),
            sum_max_inc_2p=math.fsum(b[2] for b in sums),
            sum_total_inc_2p=math.fsum(b[3] for b in sums),
            max_var_dev=max(b[4] for b in sums),
        )
        for terminal, sums in zip(terminals, pooled)
    ]


def _block_sums(parts, p: float) -> tuple[float, float, float, float, float]:
    """The pooled sums over one reduction block of one kernel's paths, from
    the ``(length, _PathOutputs)`` of the block's chunks in path order: of
    |<X>_n - 1|^p, |<X>_n - 1|^(2p), max|xi|^(2p) and sum|xi|^(2p) (0.0
    where the chunks kept no such sum), and the largest |<X>_n - 1|."""
    dev = _joined(parts, "variance")  # |<X>_n - 1|, in place
    np.abs(np.subtract(dev, 1.0, out=dev), out=dev)
    total = 0.0 if parts[0][1].total_2p is None else _block_sum(_joined(parts, "total_2p"))
    return (_block_sum(dev, p), _block_sum(dev, 2.0 * p),
            _block_sum(_joined(parts, "max_abs"), 2.0 * p), total, float(np.max(dev)))


def _joined(parts, field: str) -> np.ndarray:
    """The per-path values of ``field`` over one block, a new array unless
    one chunk's row is the whole block; a chunk's float stands for each of
    its paths."""
    if len(parts) == 1:
        length, value = parts[0][0], getattr(parts[0][1], field)
        return np.full(length, value) if isinstance(value, float) else value
    block = np.empty(sum(length for length, _ in parts))
    at = 0
    for length, out in parts:
        block[at : at + length] = getattr(out, field)
        at += length
    return block


def _block_sum(block: np.ndarray, power: float = 1.0) -> float:
    """``np.sum(block ** power)``, the same floats whichever array holds the block."""
    return float(np.sum(block if power == 1.0 else block**power))
