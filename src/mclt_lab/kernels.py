"""Martingale difference kernels and the simulation engine.

A :class:`ConditionalKernel` defines a martingale difference sequence through
per-step conditional laws: ``law_from_state(i, state)`` returns the
distribution of increment i given the kernel's summary of the realized
increments before it (``initial_state`` folded through ``transition``).
Exact-mode laws carry a finite support and answer moment queries by finite
summation; sampled-mode laws carry an inverse-CDF sampler plus a declared
moment oracle.

Simulation produces a :class:`PathCollection`, matrices with one row per
path: the increments, the partial sums ``X_0..X_n`` and the predictable
variance ``<X>_0..<X>_n`` (the running sum of conditional second moments).
All randomness is counter-based (see :mod:`mclt_lab.rng`), so results are
reproducible and independent of chunking or thread count.
"""

from __future__ import annotations

import math
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
    "kernel_from_config",
    "check_bundle",
    "sample_paths",
    "sample_terminal",
    "KERNEL_FAMILIES",
]

#: Hard cap on ``count * n`` for bundle-mode simulation; larger jobs must use
#: the streaming terminal sampler.
BUNDLE_CELL_GUARD = 50_000_000

#: Paths per chunk in the streaming engine.  No result depends on it: every
#: per-path value is a function of the path's own counter stream, and pooled
#: sums reduce over fixed blocks of ``_REDUCE_BLOCK`` paths.  Smaller chunks
#: only mean more, shorter numpy calls.
DEFAULT_CHUNK = 1 << 16

#: Block length of the pooled sums in ``sample_terminal``: ``np.sum`` per
#: block, ``math.fsum`` across blocks.
_REDUCE_BLOCK = 1 << 16

PROB_TOL = 1e-12
MEAN_TOL = 1e-12


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
    """Base class: a pure per-step conditional law plus a Markov summary.

    Subclasses provide ``law_from_state`` together with ``initial_state`` /
    ``transition`` (the declared history summary), so kernels whose law
    depends only on a small state get O(1)-state walks for free.
    """

    label: str = "kernel"
    n: int = 0

    # -- scalar (contract) interface ------------------------------------
    def initial_state(self):
        return ()

    def transition(self, state, value: float):
        return state + (float(value),)

    def state_key(self, state):
        return state

    def law_from_state(self, step: int, state) -> StepDistribution:
        raise NotImplementedError

    # -- batch (engine) interface ----------------------------------------
    # Default implementation covers kernels whose law at each step takes one
    # of a small number of "regimes" selected from the batch state.

    def step_regimes(self, step: int) -> tuple[StepDistribution, ...]:
        raise NotImplementedError

    def batch_init(self, count: int):
        return None

    def batch_regime(self, step: int, batch_state) -> np.ndarray | None:
        """Per-path regime index, or None when a single regime applies.

        The index is an intp array of values 0 .. R-1 for the R laws of
        ``step_regimes(step)``; the engine relies on exactly that, since its
        two-regime selection multiplies the 0/1 index, viewed as uint64,
        into the bits of the regime values, and refuses any other dtype.
        """
        return None

    def batch_advance(self, step: int, batch_state, increments: np.ndarray, regime):
        return batch_state

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

    def initial_state(self):
        return None

    def transition(self, state, value):
        return None

    def law_from_state(self, step, state):
        return self.dist

    def step_regimes(self, step):
        return (self.dist,)

    def certified_epsilon(self, rho):
        m2 = self.dist.moment(2)
        if m2 == 0.0:
            return 0.0
        return (self.dist.moment(2.0 + rho) / m2) ** (1.0 / rho)

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

    def initial_state(self):
        return None

    def transition(self, state, value):
        return None

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

    The regime decision uses the canonical position ``a*h + b*l`` built from
    integer counts of high/low signed steps, so simulation, exhaustive walks
    and enumeration oracles classify every history identically.
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
        self._regimes = (
            rademacher_two_point(self.high_mag),
            rademacher_two_point(self.low_mag),
        )

    # state: (net signed count of high steps, net signed count of low steps)
    def initial_state(self):
        return (0, 0)

    def transition(self, state, value):
        a, b = state
        v = float(value)
        if abs(v) == self.high_mag:
            return (a + (1 if v > 0 else -1), b)
        if abs(v) == self.low_mag:
            return (a, b + (1 if v > 0 else -1))
        raise KernelError(f"increment {v!r} is not in this kernel's support")

    def _position(self, a, b):
        return a * self.high_mag + b * self.low_mag

    def law_from_state(self, step, state):
        a, b = state
        return self._regimes[0 if self._position(a, b) >= 0.0 else 1]

    def step_regimes(self, step):
        return self._regimes

    def batch_init(self, count):
        # (a, b) as exact small-integer floats, the position a*h + b*l and
        # the per-path regime (intp, 1 for low), with the bit views that the
        # regime and the update take
        a, b, pos = np.zeros(count), np.zeros(count), np.empty(count)
        regime = np.empty(count, dtype=np.intp)
        return (a, b, pos, regime, pos.view(np.uint64), regime.view(np.float64),
                regime.view(np.uint64))

    def batch_regime(self, step, batch_state):
        a, b, pos, regime, pos_bits, scratch, regime_bits = batch_state
        np.multiply(a, self.high_mag, out=pos)
        np.multiply(b, self.low_mag, out=scratch)
        np.add(pos, scratch, out=pos)
        # high (0) iff a*h + b*l >= 0: a and b are integer floats that start
        # at +0.0, so pos is never -0.0 or NaN and its sign bit is pos < 0
        np.right_shift(pos_bits, _SIGN_BIT, out=regime_bits)
        return regime

    def batch_advance(self, step, batch_state, increments, regime):
        # pos is free once the regime is drawn, and the regime once it is
        # used, so this consumes it: unit is the +-1.0 of the increment's
        # sign, low = unit * r as integers, so +-1.0 on a low path and +0.0
        # on a high one, and unit ^ low the converse
        a, b, unit = batch_state[:3]
        unit_bits, low_bits = batch_state[4], regime.view(np.uint64)
        np.bitwise_and(increments.view(np.uint64), _SIGN, out=unit_bits)
        np.bitwise_or(unit_bits, _ONE, out=unit_bits)
        np.multiply(unit_bits, low_bits, out=low_bits)
        np.add(b, low_bits.view(np.float64), out=b)
        np.bitwise_xor(unit_bits, low_bits, out=unit_bits)
        np.add(a, unit, out=a)
        return batch_state

    def certified_epsilon(self, rho):
        # both regimes are reachable for n >= 2 (step 1 is high; a first
        # negative step makes step 2 low); each regime's ratio equals its
        # magnitude because the support has a single magnitude
        return self.high_mag

    def certified_delta(self):
        # sup |<X>_n - 1| = d, attained by paths that never leave the
        # nonnegative side (verified by exhaustive walks at small n)
        return math.sqrt(self.d)


def _gaussian_moment(sigma: float) -> Callable[[float], float]:
    def declared(t: float) -> float:
        # E|sigma Z|^t for Z standard normal; t = 2 bypasses the gamma form
        # so conditional variances accumulate without an ulp of drift
        if t == 2.0:
            return sigma * sigma
        return sigma**t * 2 ** (t / 2.0) * math.gamma((t + 1.0) / 2.0) / math.sqrt(math.pi)

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


def _make_variance_drift(n: int, d: float) -> ConditionalKernel:
    return VarianceDriftKernel(n, d)


def _make_iid_gaussian(n: int) -> ConditionalKernel:
    sigma = 1.0 / math.sqrt(n)

    def sampler(u: np.ndarray) -> np.ndarray:
        from scipy.special import ndtri

        u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
        return sigma * ndtri(u)

    dist = StepDistribution(sampler=sampler, declared_moment=_gaussian_moment(sigma))
    return _IidKernel(f"iid_gaussian(n={n})", n, dist)


def _make_table(steps: Sequence[dict], n: int | None = None) -> ConditionalKernel:
    dists = [
        StepDistribution(
            values=tuple(float(v) for v in s["values"]),
            probs=tuple(float(p) for p in s["probs"]),
        )
        for s in steps
    ]
    if n is not None and int(n) != len(dists):
        raise KernelError(f"table kernel has {len(dists)} steps, grid asked for n={n}")
    return TableKernel(dists)


KERNEL_FAMILIES: dict[str, Callable[..., ConditionalKernel]] = {
    "iid_rademacher": _make_iid_rademacher,
    "iid_scaled": _make_iid_scaled,
    "two_point": _make_two_point,
    "three_point": _make_three_point,
    "variance_drift": _make_variance_drift,
    "iid_gaussian": _make_iid_gaussian,
    "table": _make_table,
}


def make_kernel(name: str, **params) -> ConditionalKernel:
    """Instantiate a registry kernel by name."""
    try:
        family = KERNEL_FAMILIES[name]
    except KeyError:
        raise KernelError(f"unknown kernel family {name!r}") from None
    return family(**params)


def kernel_from_config(ref: dict) -> ConditionalKernel:
    """Build a kernel from a config reference ``{"name": ..., "params": {...}}``."""
    if not isinstance(ref, dict) or "name" not in ref:
        raise KernelError("kernel reference must be an object with a 'name' field")
    return make_kernel(ref["name"], **ref.get("params", {}))


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
    sampled-mode law carries its ``sampler`` instead and draws float uniforms.

    A fair table, whose regimes are all fair laws +-a (``T_0 = 2**52``,
    atoms that differ only in the sign bit), selects without thresholds: a
    regime's second atom is taken exactly when ``(z >> 11) >= 2**52`` for
    the raw 64-bit word ``z``, that is when the sign bit of ``z`` is set, so
    the increment's bits are ``sign_base ^ (z & 2**63)`` with ``sign_base``
    the bits of the regime's first atom.  Only bit 63 of ``z`` is read, so
    its words may be sign-only (``rng.uniforms_at``).

    A value per regime (a per-regime threshold, ``m2``, ``sign_base`` and a
    fair table's ``pow2p``) is kept in the form ``select`` takes: for two
    regimes the bits ``(lo, lo ^ hi)`` of its two values, otherwise its
    array of bits.
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
    max_abs: float = math.inf  # the largest |atom|; inf for a sampler
    sampler: Callable[[np.ndarray], np.ndarray] | None = None
    # the first atoms' bits of a fair table: per regime, a scalar for one
    sign_base: tuple | np.ndarray | np.uint64 | None = None

    def select(self, per_regime, regime, out: np.ndarray) -> np.ndarray:
        """Write each path's value of ``per_regime`` into ``out`` (8-byte
        elements) and return ``out``.

        For two regimes the bits are ``lo ^ (r * (lo ^ hi))`` with ``r`` the
        0/1 regime as uint64: one multiply and one xor, exact for any bits,
        +-0.0 included.  More regimes take a gather.
        """
        bits = out.view(np.uint64)
        if self.regimes == 2:
            lo, flip = per_regime
            np.multiply(regime.view(np.uint64), flip, out=bits)
            np.bitwise_xor(bits, lo, out=bits)
        else:
            np.take(per_regime, regime, out=bits, mode="clip")
        return out

    def draw(self, words, regime, idx, flag, xi) -> np.ndarray:
        """Select the increments that the raw words ``words`` (uint64,
        consumed) pick, and return the array that holds them.

        A fair table writes them over ``words`` and returns its float64 view;
        ``idx`` is its scratch for the per-regime sign bases.  Any other table
        writes them into ``xi``, after using it as scratch for per-regime
        thresholds, and the flat atom index of every path into ``idx`` (intp).
        """
        if self.sign_base is not None:
            np.bitwise_and(words, _SIGN, out=words)
            base = self.sign_base
            if self.regimes > 1:
                base = self.select(base, regime, idx.view(np.uint64))
            np.bitwise_xor(words, base, out=words)
            return words.view(np.float64)
        np.right_shift(words, _SHIFT, out=words)
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
    """One 8-byte value per regime in the form ``_StepTable.select`` takes."""
    bits = np.ascontiguousarray(values).view(np.uint64)
    return (bits[0], bits[0] ^ bits[1]) if len(bits) == 2 else bits


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
    shared = len(laws) == 1 and bool(np.all(abs_values == abs_values.flat[0]))
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
    return _StepTable(
        regimes=len(laws),
        width=width,
        thresholds=thresholds,
        values=values.ravel(),
        m2=float(m2[0]) if len(laws) == 1 else _by_regime(m2),
        pow2p=_by_regime(pow2p) if sign_base is not None and len(laws) > 1 else pow2p,
        abs_value=float(abs_values.flat[0]) if shared else None,
        max_abs=float(abs_values.max()),
        sign_base=sign_base,
    )


@dataclass(frozen=True)
class _PathOutputs:
    """The per-path arrays of one chunk, one row per path."""

    terminal: np.ndarray | None  # X_n; None where only the increments are kept
    variance: np.ndarray  # <X>_n
    max_abs: np.ndarray | None = None  # max_i |xi_i|
    total_2p: np.ndarray | None = None  # sum_i |xi_i|^(2p)
    increments: np.ndarray | None = None  # (count, n)
    variances: np.ndarray | None = None  # (count, n + 1)

    def rows(self, start: int, stop: int) -> "_PathOutputs":
        """Views of rows ``start:stop`` of the per-path sums (streaming outputs)."""

        def cut(a):
            return None if a is None else a[start:stop]

        return _PathOutputs(terminal=cut(self.terminal), variance=cut(self.variance),
                            max_abs=cut(self.max_abs), total_2p=cut(self.total_2p))


def _simulate_chunk(kernel, key, start, count, out: _PathOutputs, p):
    """Simulate paths ``start .. start + count - 1`` into the rows of ``out``,
    whose ``variance``, ``max_abs`` and ``total_2p`` rows are zero on entry.

    Every buffer is allocated once per chunk and each step runs in place:
    the raw 64-bit words (sign-only for a fair table, float uniforms for a
    sampled law), table selection of the increment, gathers of its
    conditional variance and |xi|^(2p), then the kernel's state update.  A
    fair table writes the increments over its words.  Accumulators that are
    the same on every path stay Python floats, added in the same order and
    written out once: <X> while every step so far had one regime, and a
    floor that every path's max |xi| has reached.  The floor takes the
    |value| of a step whose atoms share one, and the least per-path max
    after a finite table's per-path step; a step whose atoms are all within
    it leaves every max as it is.
    """
    n = kernel.n
    ctr_base = rng.path_counter_base(np.arange(start, start + count, dtype=np.uint64))
    X, V, max_abs, total_2p = out.terminal, out.variance, out.max_abs, out.total_2p
    u = np.empty(count)
    words = u.view(np.uint64)  # an exact table selects on words, a sampler on u
    xi = None  # allocated by the first step that does not draw over its words
    scratch = (np.empty(count, dtype=np.uint64), np.empty(count, dtype=np.uint64))
    # the selection indices reuse the RNG scratch, which is free once the
    # words are drawn, and the later gathers reuse flag, free once the
    # increments are drawn
    idx, flag = (w.view(np.intp) for w in scratch)
    gathered = flag.view(np.float64)
    v_acc: float | None = 0.0  # <X>; None once it differs between paths
    m_acc = 0.0  # a floor that every path's max |xi| has reached
    tables: dict[tuple, _StepTable] = {}
    state = kernel.batch_init(count)
    for step in range(1, n + 1):
        laws = kernel.step_regimes(step)
        law_bits = tuple(dist._table_key for dist in laws)
        table = tables.get(law_bits)
        if table is None:
            table = tables[law_bits] = _step_table(step, laws, p)
        fair = table.sign_base is not None
        rng.uniforms_at(key, ctr_base, step - 1, out=words if table.sampler is None else u,
                        scratch=scratch, sign_only=fair)
        regime = kernel.batch_regime(step, state)
        if regime is not None and regime.dtype != np.intp:
            raise KernelError(f"step {step}: batch_regime returned {regime.dtype}, not intp")
        if xi is None and not fair:
            xi = np.empty(count)
        if table.sampler is not None:
            inc = xi
            inc[:] = table.sampler(u)
        else:
            inc = table.draw(words, regime, idx, flag, xi)
        if X is not None:
            X += inc
        v_acc = _accumulate(v_acc, V, table.m2 if table.regimes == 1
                            else table.select(table.m2, regime, gathered))
        if out.increments is not None:
            out.increments[:, step - 1] = inc
            out.variances[:, step] = V if v_acc is None else v_acc
        if max_abs is not None:
            if table.abs_value is not None:
                m_acc = max(m_acc, table.abs_value)
            elif table.max_abs > m_acc:
                np.maximum(max_abs, np.abs(inc, out=gathered), out=max_abs)
                if table.sampler is None:
                    m_acc = max(m_acc, float(max_abs.min()))
        if total_2p is not None:
            if table.sampler is not None:
                total_2p += np.abs(inc) ** (2.0 * p)
            elif table.abs_value is not None:
                total_2p += table.pow2p[0]
            elif fair:
                total_2p += table.select(table.pow2p, regime, gathered)
            else:
                total_2p += np.take(table.pow2p, idx, out=gathered, mode="clip")
        state = kernel.batch_advance(step, state, inc, regime)
    if v_acc is not None:
        V += v_acc
    if max_abs is not None:
        np.maximum(max_abs, m_acc, out=max_abs)


def _accumulate(acc: float | None, per_path: np.ndarray, value) -> float | None:
    """Add ``value`` (a float for every path, or one per path) to the running
    sums ``acc`` or ``per_path`` and return the new ``acc``.

    While ``acc`` is a float, ``per_path`` is still zero and every path's sum
    is ``acc``, so a float is added to ``acc`` alone.  A per-path value first
    moves ``acc`` into ``per_path``; from then on ``acc`` is None.
    """
    if acc is not None:
        if isinstance(value, float):
            return acc + value
        per_path += acc
    per_path += value
    return None


def _chunks(count: int, chunk_size: int):
    start = 0
    while start < count:
        yield start, min(chunk_size, count - start)
        start += chunk_size


def _run_chunks(fn, pieces, threads: int):
    if threads <= 1:
        return [fn(*piece) for piece in pieces]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, *piece) for piece in pieces]
        return [f.result() for f in futures]


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
    check_bundle(count, kernel.n)
    if kernel.n >= rng.MAX_DRAWS_PER_PATH:
        raise KernelError("path length exceeds the per-path draw budget")
    key = rng.stream_key(seed, rng.STREAM_SIMULATION)
    n = kernel.n
    # Each chunk fills arrays of its own, joined below and freed on return.
    # Writing into full-count arrays instead, or freeing the chunk arrays
    # before the joined ones exist, fragmented the heap enough to raise the
    # peak RSS of perfbench's exact-verify workload by about 35 MB.
    pieces = [
        (kernel, key, start, size, _PathOutputs(
            terminal=None,
            variance=np.zeros(size),
            increments=np.empty((size, n)),
            variances=np.zeros((size, n + 1)),
        ), 1.0)
        for start, size in _chunks(count, chunk_size)
    ]
    _run_chunks(_simulate_chunk, pieces, threads)
    outs = [piece[4] for piece in pieces]
    increments = np.concatenate([o.increments for o in outs], axis=0)
    variances = np.concatenate([o.variances for o in outs], axis=0)
    sums = np.concatenate(
        [np.zeros((count, 1)), np.cumsum(increments, axis=1)], axis=1
    )
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
    if count < 1:
        raise KernelError("count must be >= 1")
    if p < 1.0:
        raise KernelError("p must be >= 1")
    if kernel.n >= rng.MAX_DRAWS_PER_PATH:
        raise KernelError("path length exceeds the per-path draw budget")
    key = rng.stream_key(seed, rng.STREAM_SIMULATION)
    terminal = np.zeros(count)
    # The paths run in windows of whole reduction blocks, two per thread.
    # Chunks fill row slices of the window's per-path arrays, and every
    # block's sums are taken once the window is done, so the pooled sums
    # reduce the same per-path values whatever the chunking, and only the
    # terminals are held for all paths.
    window = min(count, 2 * max(threads, 1) * _REDUCE_BLOCK)
    sums = np.empty((3 if with_sum_inc else 2, window))  # reused by every window
    var_p, var_2p, max_2p, total_2p = [], [], [], []
    max_var_dev = 0.0
    for first in range(0, count, window):
        size = min(window, count - first)
        sums.fill(0.0)
        out = _PathOutputs(terminal=terminal[first : first + size], variance=sums[0, :size],
                           max_abs=sums[1, :size], total_2p=sums[2, :size] if with_sum_inc else None)
        pieces = [
            (kernel, key, first + block + start, length,
             out.rows(block + start, block + start + length), float(p))
            for block in range(0, size, _REDUCE_BLOCK)
            for start, length in _chunks(min(_REDUCE_BLOCK, size - block), chunk_size)
        ]
        _run_chunks(_simulate_chunk, pieces, threads)
        dev = out.variance  # |<X>_n - 1|, in place
        np.abs(np.subtract(dev, 1.0, out=dev), out=dev)
        var_p += _block_sums(dev, p)
        var_2p += _block_sums(dev, 2.0 * p)
        max_2p += _block_sums(out.max_abs, 2.0 * p)
        if with_sum_inc:
            total_2p += _block_sums(out.total_2p)
        max_var_dev = max(max_var_dev, float(np.max(dev)))
    return TerminalStatistics(
        p=float(p),
        count=count,
        terminal=terminal,
        sum_var_dev_p=math.fsum(var_p),
        sum_var_dev_2p=math.fsum(var_2p),
        sum_max_inc_2p=math.fsum(max_2p),
        sum_total_inc_2p=math.fsum(total_2p),
        max_var_dev=max_var_dev,
    )


def _block_sums(values: np.ndarray, power: float = 1.0) -> list[float]:
    """``np.sum(block ** power)`` for each block of ``_REDUCE_BLOCK`` values;
    the power is taken a block at a time, so no temporary outgrows a block."""
    blocks = (values[i : i + _REDUCE_BLOCK] for i in range(0, len(values), _REDUCE_BLOCK))
    return [float(np.sum(b if power == 1.0 else b**power)) for b in blocks]
