"""Kernel registry, simulation determinism, and terminal statistics."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclt_lab as m
from mclt_lab import conditions, kernels, oracles, rng
from mclt_lab.kernels import (
    ConditionalKernel,
    InvalidKernelError,
    KernelError,
    StepDistribution,
    TableKernel,
    TerminalStatistics,
    VarianceDriftKernel,
    _word_thresholds,
    rademacher_two_point,
    sample_paths,
    sample_terminal,
    sample_terminals,
)


def _law(kernel, step, history):
    """The law of increment ``step`` given the realized ``history``, by
    replaying the history through the kernel's declared summary."""
    state = kernel.initial_state()
    for value in history:
        state = kernel.transition(state, value)
    return kernel.law_from_state(step, state)


def _collection_statistics(paths, p):
    """Terminal statistics of a simulated collection, each sum taken over all
    paths at once: the reference for the streaming sums of ``sample_terminal``."""
    dev = np.abs(paths.variances[:, -1] - 1.0)
    max_abs = np.max(np.abs(paths.increments), axis=1)
    total = np.sum(np.abs(paths.increments) ** (2.0 * p), axis=1)
    return TerminalStatistics(
        p=float(p),
        count=len(paths),
        terminal=paths.sums[:, -1].copy(),
        sum_var_dev_p=float(np.sum(dev**p)),
        sum_var_dev_2p=float(np.sum(dev ** (2.0 * p))),
        sum_max_inc_2p=float(np.sum(max_abs ** (2.0 * p))),
        sum_total_inc_2p=float(np.sum(total)),
        max_var_dev=float(np.max(dev)),
    )


def test_rademacher_paths_have_unit_terminal_variance():
    k = m.make_kernel("iid_rademacher", n=4)
    paths = sample_paths(k, seed=11, count=50)
    assert np.all(paths.variances[:, -1] == 1.0)
    # X_0 = 0 and the recurrence X_k = X_{k-1} + xi_k holds exactly
    assert np.all(paths.sums[:, 0] == 0.0)
    assert np.array_equal(paths.sums[:, 1:], np.cumsum(paths.increments, axis=1))


def test_invalid_probability_sum_rejected_with_step():
    bad = StepDistribution(values=(1.0, -1.0), probs=(0.6, 0.6))
    kernel = TableKernel([rademacher_two_point(0.5), bad])
    with pytest.raises(InvalidKernelError) as err:
        sample_paths(kernel, seed=1, count=3)
    assert err.value.step == 2
    assert "sum" in str(err.value)


def test_moment_past_float_range_is_infinite():
    dist = StepDistribution(values=(-1e200, 1e200), probs=(0.5, 0.5))
    assert dist.moment(3.0) == math.inf  # 1e600
    assert dist.moment(2.0) == math.inf  # v * v, no pow
    assert StepDistribution(values=(-0.5, 0.5), probs=(0.5, 0.5)).moment(2.0**64) == 0.0


def test_nonzero_mean_rejected():
    bad = StepDistribution(values=(1.0, 0.0), probs=(0.5, 0.5))
    kernel = TableKernel([bad])
    with pytest.raises(InvalidKernelError) as err:
        sample_paths(kernel, seed=1, count=3)
    assert "mean" in str(err.value)


@pytest.mark.parametrize("values, probs", [
    ((-1.0, 1.0), (math.nan, 0.5)),
    ((math.nan, 1.0), (0.5, 0.5)),
    ((-math.inf, math.inf), (0.5, 0.5)),
    ((-1.0, 0.0, 1.0), (0.5, math.inf, 0.5)),
])
def test_non_finite_law_rejected(values, probs):
    bad = StepDistribution(values=values, probs=probs)
    assert bad.check() == "non-finite value or probability"
    with pytest.raises(InvalidKernelError) as err:
        sample_terminal(TableKernel([rademacher_two_point(0.5), bad]), seed=1, count=1000)
    assert err.value.step == 2
    assert str(err.value) == "invalid kernel at step 2: non-finite value or probability"


def test_variance_drift_terminal_variance_band():
    k = m.make_kernel("variance_drift", n=64, d=0.2)
    paths = sample_paths(k, seed=7, count=1000)
    tv = paths.variances[:, -1]
    assert np.all(tv >= 0.8 - 1e-12)
    assert np.all(tv <= 1.2 + 1e-12)


def test_conditional_moment_examples():
    n = 16
    k = m.make_kernel("iid_rademacher", n=n)
    assert _law(k, 3, []).moment(3.0) == pytest.approx(n**-1.5, rel=1e-14)
    three = m.make_kernel("three_point", n=8, b=2.0, q=0.1)
    for t in (1.0, 2.0, 2.7, 4.0):
        assert _law(three, 1, []).moment(t) == pytest.approx(0.1 * 2.0**t, rel=1e-14)
    two = m.make_kernel("two_point", n=4, a=0.3)
    assert _law(two, 2, [0.3]).moment(2.0) == pytest.approx(0.09, rel=1e-14)


def test_conditional_moment_sampled_gaussian():
    k = m.make_kernel("iid_gaussian", n=4)
    sigma = 0.5
    # the declared oracle is exact
    dist = _law(k, 1, [])
    assert dist.moment(2.0) == pytest.approx(sigma**2, rel=1e-12)
    assert dist.moment(3.0) == pytest.approx(sigma**3 * 2 * math.sqrt(2 / math.pi), rel=1e-12)


def test_terminal_statistics_rademacher_exact():
    k = m.make_kernel("iid_rademacher", n=4)
    paths = sample_paths(k, seed=3, count=200)
    stats = _collection_statistics(paths, p=1.0)
    assert stats.mean_var_dev_p == 0.0
    assert stats.mean_max_inc_2p == 0.25  # (1/sqrt(4))^2 exactly
    assert stats.max_var_dev == 0.0


def test_terminal_statistics_p2():
    k = m.make_kernel("iid_rademacher", n=4)
    paths = sample_paths(k, seed=3, count=10)
    stats = _collection_statistics(paths, p=2.0)
    assert stats.mean_max_inc_2p == pytest.approx(0.0625, rel=1e-14)


def test_determinism_and_partition_independence():
    k = m.make_kernel("variance_drift", n=24, d=0.2)
    a = sample_paths(k, seed=9, count=100)
    b = sample_paths(k, seed=9, count=100, chunk_size=7)
    assert np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.variances, b.variances)
    c = sample_paths(k, seed=9, count=100, threads=3, chunk_size=13)
    assert np.array_equal(a.increments, c.increments)
    # streaming terminal sampler: same per-path values regardless of threads
    s1 = sample_terminal(k, seed=9, count=100)
    s2 = sample_terminal(k, seed=9, count=100, threads=2, chunk_size=17)
    assert np.array_equal(s1.terminal, s2.terminal)
    assert s1.sum_var_dev_p == pytest.approx(s2.sum_var_dev_p, abs=1e-12)
    # and the streaming sampler agrees with the bundle path
    assert np.array_equal(s1.terminal, a.sums[:, -1])


def test_streaming_matches_bundle_statistics():
    k = m.make_kernel("three_point", n=20, b=0.4, q=0.3)
    paths = sample_paths(k, seed=21, count=500)
    pooled = _collection_statistics(paths, p=1.0)
    stream = sample_terminal(k, seed=21, count=500, p=1.0, with_sum_inc=True)
    assert np.array_equal(stream.terminal, pooled.terminal)
    assert stream.sum_var_dev_p == pytest.approx(pooled.sum_var_dev_p, abs=1e-12)
    assert stream.sum_max_inc_2p == pytest.approx(pooled.sum_max_inc_2p, abs=1e-12)
    assert stream.sum_total_inc_2p == pytest.approx(pooled.sum_total_inc_2p, abs=1e-12)


def test_variance_additivity_against_step_laws():
    k = m.make_kernel("variance_drift", n=12, d=0.4)
    paths = sample_paths(k, seed=2, count=20)
    for increments, variances in zip(paths.increments, paths.variances):
        acc = 0.0
        for step in range(1, k.n + 1):
            acc += _law(k, step, increments[: step - 1]).moment(2.0)
        assert abs(acc - variances[-1]) < 1e-12


def test_batch_stepper_consistent_with_law():
    k = m.make_kernel("variance_drift", n=16, d=0.25)
    paths = sample_paths(k, seed=31, count=50)
    for increments, variances in zip(paths.increments[:10], paths.variances[:10]):
        for step in range(1, k.n + 1):
            dist = _law(k, step, increments[: step - 1])
            assert increments[step - 1] in dist.values
            m2 = dist.moment(2)
            assert variances[step] - variances[step - 1] == pytest.approx(m2, abs=1e-15)


def test_iid_scaled_normalizes_variance():
    k = m.make_kernel("iid_scaled", n=9, values=[-2.0, 1.0], probs=[1.0 / 3.0, 2.0 / 3.0])
    dist = _law(k, 1, [])
    assert dist.moment(2) == pytest.approx(1.0 / 9.0, rel=1e-12)
    paths = sample_paths(k, seed=1, count=10)
    assert np.all(np.abs(paths.variances[:, -1] - 1.0) < 1e-12)


def test_variance_drift_exhaustive_oracle_matches_simulation():
    # exact small-n oracle first, Monte Carlo against it afterwards
    d, n = 0.2, 8
    k = m.make_kernel("variance_drift", n=n, d=d)
    exact = oracles.exact_terminal_moments(k, p=1.0)
    assert exact.leaves == 2**n
    stats = sample_terminal(k, seed=17, count=100_000, p=1.0)
    se = 0.25 * d / math.sqrt(stats.count)  # crude bound on the std of |dev|
    assert abs(stats.mean_var_dev_p - exact.mean_var_dev_p) < 5 * se
    assert 0.0 < stats.mean_var_dev_p <= d


def test_registry_rejects_bad_parameters():
    with pytest.raises(KernelError):
        m.make_kernel("three_point", n=4, b=-1.0, q=0.5)
    with pytest.raises(KernelError):
        m.make_kernel("three_point", n=4, b=1.0, q=1.5)
    with pytest.raises(KernelError):
        m.make_kernel("variance_drift", n=4, d=1.5)
    with pytest.raises(KernelError):
        m.make_kernel("nope", n=4)


@settings(max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    count=st.integers(min_value=1, max_value=40),
)
def test_two_runs_identical(seed, count):
    k = m.make_kernel("iid_rademacher", n=8)
    a = sample_paths(k, seed=seed, count=count)
    b = sample_paths(k, seed=seed, count=count)
    assert np.array_equal(a.increments, b.increments)


def test_law_is_pure():
    k = m.make_kernel("variance_drift", n=8, d=0.2)
    history = [k.high_mag, -k.high_mag, -k.low_mag]
    a = _law(k, 4, history)
    b = _law(k, 4, history)
    assert a.values == b.values and a.probs == b.probs


def test_sampled_mode_simulation_is_standard_normal():
    k = m.make_kernel("iid_gaussian", n=16)
    stats = sample_terminal(k, seed=55, count=50_000)
    # terminal law is exactly N(0, 1); the distance sits inside the DKW band
    from mclt_lab.distance import dkw_halfwidth, kolmogorov_distance

    est = kolmogorov_distance(stats.terminal, alpha=0.01)
    assert est.d_hat <= dkw_halfwidth(stats.count, 0.001)
    assert stats.mean_var_dev_p == 0.0  # declared variance is exactly 1/n


def _reference_paths(kernel, seed, count):
    """Slow per-path scalar engine: the contract the batch engine must match.

    Replays ``transition`` -> ``law_from_state`` along each path, draws the
    path's uniforms with ``rng.uniforms`` and maps each through the law's
    own ``sample_from_uniforms``.
    """
    key = rng.stream_key(seed, rng.STREAM_SIMULATION)
    increments = np.empty((count, kernel.n))
    variances = np.zeros((count, kernel.n + 1))
    terminal = np.empty(count)
    for i in range(count):
        u = rng.uniforms(key, i, np.arange(kernel.n))
        state = kernel.initial_state()
        x = 0.0
        for step in range(1, kernel.n + 1):
            dist = kernel.law_from_state(step, state)
            xi = float(dist.sample_from_uniforms(u[step - 1 : step])[0])
            increments[i, step - 1] = xi
            variances[i, step] = variances[i, step - 1] + dist.moment(2)
            x += xi
            state = kernel.transition(state, xi)
        terminal[i] = x
    return increments, variances, terminal


class _SignSwitchKernel(ConditionalKernel):
    """Two laws, the first where the canonical position is >= 0, by default
    with different supports and thresholds, a zero atom beside a magnitude
    and two magnitudes in one law, so the engine counts by a per-atom
    gather; the first ``fixed_steps`` steps take the first law alone.  It
    declares its laws and nothing else."""

    def __init__(self, n, fixed_steps=0, regimes=None, label=None):
        self.n = n
        self.fixed_steps = fixed_steps
        self.label = label or ("sign_switch_late" if fixed_steps else "sign_switch")
        self.regimes = regimes or (
            StepDistribution(values=(-1.0, 0.0, 1.0), probs=(0.25, 0.5, 0.25)),
            StepDistribution(values=(-0.7, 0.3), probs=(0.3, 0.7)),
        )

    def step_regimes(self, step):
        return self.regimes[:1] if step <= self.fixed_steps else self.regimes


# the floor of max |xi| rises and is passed: a per-path step that leaves
# some paths at 0, a shared |value| (floor 0.2), a per-path step above the
# floor, one within it, a shared |value| below it and an asymmetric step
# above it
_MAX_FLOOR = TableKernel([
    StepDistribution(values=(-0.3, 0.0, 0.3), probs=(0.25, 0.5, 0.25)),
    StepDistribution(values=(-0.2, 0.2), probs=(0.5, 0.5)),
    StepDistribution(values=(-0.5, 0.0, 0.5), probs=(0.1, 0.8, 0.1)),
    StepDistribution(values=(-0.2, 0.0, 0.2), probs=(0.3, 0.4, 0.3)),
    StepDistribution(values=(-0.1, 0.1), probs=(0.5, 0.5)),
    StepDistribution(values=(-0.6, 0.4), probs=(0.4, 0.6)),
], label="max_floor")

REFERENCE_KERNELS = [
    m.make_kernel("iid_rademacher", n=12),
    m.make_kernel("iid_scaled", n=9, values=[-3.0, -1.0, 1.0, 3.0], probs=[0.1, 0.4, 0.4, 0.1]),
    m.make_kernel("two_point", n=7, a=0.3),
    m.make_kernel("three_point", n=10, b=0.4, q=0.3),
    m.make_kernel("variance_drift", n=16, d=0.3),
    m.make_kernel("iid_gaussian", n=8),
    m.make_kernel("table", steps=[
        {"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
        {"values": [-0.5, 0.0, 0.5], "probs": [0.2, 0.6, 0.2]},
        {"values": [-3.0, -1.0, 1.0, 3.0], "probs": [0.1, 0.4, 0.4, 0.1]},
        {"values": [-2.0, 1.0], "probs": [1.0 / 3.0, 2.0 / 3.0]},
    ]),
    _SignSwitchKernel(n=14),
    _SignSwitchKernel(n=14, fixed_steps=3),  # <X> is path-invariant up to step 3
    # two-regime tables whose fair regimes select on the sign bit with a
    # per-regime sign base: different magnitudes, a first atom positive, and
    # +-0.0 atoms (paths that turn negative stay there); a fair regime beside
    # an asymmetric one keeps the whole table on the shifted words
    _SignSwitchKernel(n=14, regimes=(rademacher_two_point(1.0), rademacher_two_point(0.3)),
                      label="fair_regimes"),
    # a stateful kernel's one-law steps count by the sign bit too
    _SignSwitchKernel(n=14, fixed_steps=3,
                      regimes=(rademacher_two_point(1.0), rademacher_two_point(0.3)),
                      label="fair_regimes_late"),
    _SignSwitchKernel(n=14, regimes=(StepDistribution(values=(0.6, -0.6), probs=(0.5, 0.5)),
                                     rademacher_two_point(0.2)),
                      label="fair_regimes_first_positive"),
    _SignSwitchKernel(n=14, regimes=(rademacher_two_point(0.4),
                                     StepDistribution(values=(0.0, -0.0), probs=(0.5, 0.5))),
                      label="fair_regimes_signed_zero"),
    # two laws of zeros only: no magnitude, so the position is 0 and the
    # first law, whose -0.0 steps have the sign bit set, holds throughout
    _SignSwitchKernel(n=6, regimes=(StepDistribution(values=(0.0, -0.0), probs=(0.5, 0.5)),
                                    StepDistribution(values=(0.0,), probs=(1.0,))),
                      label="zero_laws"),
    _SignSwitchKernel(n=14, regimes=(rademacher_two_point(0.5),
                                     StepDistribution(values=(-0.7, 0.3), probs=(0.3, 0.7))),
                      label="fair_and_asymmetric_regimes"),
    # a fair law +-a selects on the sign bit of the raw words (first atom
    # positive here); the other two-atom laws keep the shifted words: an
    # asymmetric law, a first atom of probability 0 (always the second atom)
    # and of probability 1 (threshold 2**53), equal odds on atoms that are
    # not +-a; signed zeros, fair and not, whose sign bit must survive
    TableKernel([StepDistribution(values=(0.7, -0.7), probs=(0.5, 0.5))] * 6,
                label="blend_fair"),
    TableKernel([StepDistribution(values=(1.0, -(1.0 - 2.0**-45)), probs=(0.5, 0.5))] * 6,
                label="blend_near_fair"),
    TableKernel([StepDistribution(values=(0.7, -0.3), probs=(0.3, 0.7))] * 6,
                label="blend_asymmetric"),
    TableKernel([StepDistribution(values=(4.0, 0.0), probs=(0.0, 1.0))] * 6,
                label="blend_first_never"),
    TableKernel([StepDistribution(values=(0.0, 4.0), probs=(1.0, 0.0))] * 6,
                label="blend_first_always"),
    TableKernel([
        StepDistribution(values=(-0.0, 0.0), probs=(0.5, 0.5)),
        StepDistribution(values=(0.0, -0.0), probs=(0.25, 0.75)),
    ] * 3, label="blend_signed_zero"),
    # laws that differ only in the sign of a zero atom are == but must not
    # share a step table
    TableKernel([
        StepDistribution(values=(-0.0, 0.0), probs=(0.5, 0.5)),
        StepDistribution(values=(0.0, -0.0), probs=(0.5, 0.5)),
    ] * 3, label="signed_zero_laws"),
    # the engine keeps <X> (one regime throughout) and max |xi| as scalars
    # over the steps whose atoms share one |value|: one |value| (scalar), a 0
    # atom among others (per path), the degenerate {0} and the first step
    # twice (scalar again); sum |xi|^(2p) is added path by path throughout
    TableKernel([
        StepDistribution(values=(-0.8, 0.8), probs=(0.5, 0.5)),
        StepDistribution(values=(-0.3, 0.0, 0.3), probs=(0.3, 0.4, 0.3)),
        StepDistribution(values=(0.0,), probs=(1.0,)),
        StepDistribution(values=(-0.8, 0.8), probs=(0.5, 0.5)),
        StepDistribution(values=(-0.8, 0.8), probs=(0.5, 0.5)),
    ], label="hoist_switch"),
    _MAX_FLOOR,
    # h == 2*l in floats at d=0.6, so a*h + b*l cancels to +0.0 where
    # b = -2a != 0 (first reached after -h, +l, +l), which is the high
    # regime; at d=0.9 the two magnitudes are far apart
    pytest.param(m.make_kernel("variance_drift", n=16, d=0.6), id="variance_drift_cancelling"),
    pytest.param(m.make_kernel("variance_drift", n=20, d=0.9), id="variance_drift_wide"),
]


def _reference_sums(increments, p):
    """Per-path max |xi| and sum |xi|^(2p) of reference increments."""
    absinc = np.abs(increments)
    total_2p = np.zeros(len(increments))
    for j in range(increments.shape[1]):  # the engine's step order
        total_2p += absinc[:, j] ** (2.0 * p)
    return absinc.max(axis=1), total_2p


def _same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


@pytest.mark.parametrize("name, params", [
    ("variance_drift", {"n": 24, "d": 0.2}),
    ("iid_gaussian", {"n": 9}),
    ("iid_rademacher", {"n": 1}),
])
def test_sample_paths_are_contiguous_and_partition_independent(name, params):
    # chunks fill step-major buffers, and the join transposes them into
    # C-contiguous path-major arrays: a sum along a path then adds pairwise
    # over a contiguous axis
    kernel = m.make_kernel(name, **params)
    runs = [sample_paths(kernel, 9, 301, chunk_size=chunk, threads=threads)
            for chunk, threads in ((1 << 16, 1), (7, 1), (64, 3), (300, 2))]
    for run in runs:
        for field in ("increments", "variances", "sums"):
            array = getattr(run, field)
            assert array.flags.c_contiguous, field
            assert _same_bits(array, getattr(runs[0], field)), field
    first = runs[0]
    assert first.increments.shape == (301, kernel.n)
    assert first.variances.shape == first.sums.shape == (301, kernel.n + 1)
    assert not first.sums[:, 0].any() and not first.variances[:, 0].any()
    assert _same_bits(first.sums[:, 1:], np.cumsum(first.increments, axis=1))
    # a block [s, s + k) is rows s..s+k-1 of the whole collection
    for start, size in ((0, 1), (0, 300), (1, 7), (150, 13), (294, 7), (300, 1)):
        block = sample_paths(kernel, 9, size, chunk_size=5, first=start)
        for field in ("increments", "variances", "sums"):
            assert _same_bits(getattr(block, field), getattr(first, field)[start : start + size]), \
                (field, start, size)
    with pytest.raises(KernelError, match="first"):
        sample_paths(kernel, 9, 1, first=-1)


@pytest.mark.parametrize("kernel", REFERENCE_KERNELS, ids=lambda k: k.label.split("(")[0])
def test_engine_matches_scalar_reference(kernel):
    count = 300
    increments, variances, terminal = _reference_paths(kernel, 8, count)
    for chunk_size, threads in ((1 << 16, 1), (37, 2)):
        paths = sample_paths(kernel, 8, count, chunk_size=chunk_size, threads=threads)
        assert _same_bits(paths.increments, increments)
        assert _same_bits(paths.variances, variances)
        stats = sample_terminal(kernel, 8, count, chunk_size=chunk_size, threads=threads)
        assert _same_bits(stats.terminal, terminal)
        # equal values: a cumsum over signed zeros may end on -0.0
        assert np.array_equal(stats.terminal, paths.sums[:, -1])
    dev = np.abs(variances[:, -1] - 1.0)
    for p in (1.0, 1.5):
        max_abs, total_2p = _reference_sums(increments, p)
        # the per-path sums of one chunk: the pooled sums below can hide an
        # ulp of difference on a few paths
        out = kernels._PathOutputs(terminal=np.zeros(count), max_abs=0.0, total_2p=0.0)
        kernels._simulate_chunk((kernel,), rng.stream_key(8, rng.STREAM_SIMULATION), 0, count, (out,), p)
        # a float stands for the same value on every path
        for got, want in zip((out.terminal, out.variance, out.max_abs, out.total_2p),
                             (terminal, variances[:, -1], max_abs, total_2p)):
            assert _same_bits(np.broadcast_to(got, count), want)
        expected = (float(np.sum(dev**p)), float(np.sum(dev ** (2.0 * p))),
                    float(np.sum(max_abs ** (2.0 * p))), float(np.sum(total_2p)), float(np.max(dev)))
        for chunk_size, threads in ((1 << 16, 1), (37, 2)):
            stats = sample_terminal(kernel, 8, count, p=p, with_sum_inc=True,
                                    chunk_size=chunk_size, threads=threads)
            assert _same_bits(stats.terminal, terminal)
            assert (stats.sum_var_dev_p, stats.sum_var_dev_2p, stats.sum_max_inc_2p,
                    stats.sum_total_inc_2p, stats.max_var_dev) == expected


def _grid(name, points, **params):
    return [m.make_kernel(name, n=n, **dict(params, **extra)) for n, extra in points]


# rates grids as parse_config builds them: points that mix n and the
# entry's kernel_params, over fair, finite non-fair, drift and sampled laws,
# and one call with every reference kernel, so that steps mix the three
# forms of the words
GRIDS = {
    "fair": _grid("iid_rademacher", [(5, {}), (33, {}), (12, {})]),
    "two_point": _grid("two_point", [(4, {"a": 0.5}), (9, {"a": 0.25})]),
    "three_point": _grid("three_point", [(6, {"q": 0.5}), (11, {"q": 0.25}), (3, {"b": 0.7})],
                         b=0.25, q=0.5),
    "variance_drift": _grid("variance_drift", [(8, {"d": 0.2}), (16, {"d": 0.6}), (5, {"d": 0.9})]),
    "iid_gaussian": _grid("iid_gaussian", [(3, {}), (8, {})]),
    "mixed": [k for k in REFERENCE_KERNELS if isinstance(k, ConditionalKernel)],
}


def _same_statistics(got: TerminalStatistics, want: TerminalStatistics) -> bool:
    fields = ("p", "count", "sum_var_dev_p", "sum_var_dev_2p", "sum_max_inc_2p",
              "sum_total_inc_2p", "max_var_dev")
    return (_same_bits(got.terminal, want.terminal)
            and [repr(getattr(got, f)) for f in fields] == [repr(getattr(want, f)) for f in fields])


@pytest.mark.parametrize("grid", GRIDS)
def test_grid_step_loop_matches_each_point_alone(grid):
    kernels_ = GRIDS[grid]
    count, p = 3000, 1.5
    alone = [sample_terminal(k, 4, count, p=p, with_sum_inc=True) for k in kernels_]
    for chunk_size in (1 << 16, 777):
        for threads in (1, 2, 5):
            together = sample_terminals(kernels_, 4, count, p=p, with_sum_inc=True,
                                        chunk_size=chunk_size, threads=threads)
            assert len(together) == len(kernels_)
            for got, want in zip(together, alone):
                assert _same_statistics(got, want)


def test_grid_step_loop_over_several_reduction_blocks():
    # windows of two blocks (threads=1) and a last one of 3000 paths; the
    # three drift kernels share one chunk length, so each block takes two
    # chunks
    kernels_ = GRIDS["fair"] + GRIDS["variance_drift"]
    count = 4 * kernels._REDUCE_BLOCK + 3000
    together = sample_terminals(kernels_, 2, count, p=1.0, chunk_size=1 << 17)
    for kernel, got in zip(kernels_, together):
        assert _same_statistics(got, sample_terminal(kernel, 2, count))


def _scaled_regimes(scale):
    return (StepDistribution(values=(-scale, 0.0, scale), probs=(0.25, 0.5, 0.25)),
            StepDistribution(values=(-0.7 * scale, 0.3 * scale), probs=(0.3, 0.7)))


def _scaled_steps(kernel, scale, n):
    """The first n steps of a ``TableKernel`` with every atom times ``scale``."""
    return TableKernel([StepDistribution(values=tuple(scale * v for v in d.values), probs=d.probs)
                        for d in kernel.steps[:n]])


def _chains(kernels_, p):
    """The chains ``sample_terminals`` forms: {leader n: sorted follower ns}."""
    links = kernels._chain_links(kernels_, {}, p)
    chains = {k.n: [] for k, link in zip(kernels_, links) if link is None}
    for k, link in zip(kernels_, links):
        if link is not None:
            chains[kernels_[link.leader].n].append(k.n)
    return {n: sorted(ns) for n, ns in chains.items()}


# (grid, p, the chains it must form); each point's statistics must equal its
# own run alone either way
CHAIN_GRIDS = {
    "iid_rademacher": (_grid("iid_rademacher", [(2**e, {}) for e in range(2, 9)]), 1.5,
                       {256: [4, 16, 64], 128: [8, 32]}),
    # a fixed magnitude: e = 0, so every point follows the longest, a
    # repeated point too
    "two_point": (_grid("two_point", [(3, {}), (8, {}), (20, {}), (5, {}), (20, {})], a=0.3),
                  1.5, {20: [3, 5, 8, 20]}),
    "variance_drift": (_grid("variance_drift", [(2**e, {}) for e in range(3, 8)], d=0.2), 1.5,
                       {128: [8, 32], 64: [16]}),
    "variance_drift_p1": (_grid("variance_drift", [(2**e, {}) for e in range(3, 8)], d=0.2), 1.0,
                          {128: [8, 32], 64: [16]}),
    # |xi|^(2p) at p = 1.25 scales by 2^(2.5 e): no power of two for odd e
    "odd_e_at_p_1_25": (_grid("variance_drift", [(16, {}), (64, {}), (4, {})], d=0.2), 1.25,
                        {64: [4], 16: []}),
    # a different d, and n that differ by a factor 2, do not chain
    "drift_unmatched": (_grid("variance_drift", [(16, {"d": 0.2}), (64, {"d": 0.3}),
                                                 (32, {"d": 0.2})]), 1.5,
                        {16: [], 64: [], 32: []}),
    # a two-law kernel that declares nothing but its laws chains; so does a
    # one-law table through a late switch's one-law steps, and a late switch
    # whose two-law steps start within its run
    "declared_state": ([_SignSwitchKernel(n=6, regimes=_scaled_regimes(2.0)),
                        _SignSwitchKernel(n=14, regimes=_scaled_regimes(1.0))], 1.5,
                       {14: [6]}),
    "table_follows_a_late_switch": ([_SignSwitchKernel(n=14, fixed_steps=4,
                                                       regimes=_scaled_regimes(1.0)),
                                     TableKernel(_scaled_regimes(0.5)[:1] * 3),
                                     _SignSwitchKernel(n=7, fixed_steps=4,
                                                       regimes=_scaled_regimes(0.25))], 1.5,
                                    {14: [3, 7]}),
    # followers that end where a shared |value| has raised the max floor
    # above the paths still at 0, and two steps later
    "max_floor": ([_scaled_steps(_MAX_FLOOR, 2.0, 2), _scaled_steps(_MAX_FLOOR, 0.5, 4),
                   _MAX_FLOOR], 1.0, {6: [2, 4]}),
    # sampled laws never chain
    "iid_gaussian": (_grid("iid_gaussian", [(4, {}), (16, {})]), 1.0, {4: [], 16: []}),
}


@pytest.mark.parametrize("grid", CHAIN_GRIDS)
def test_chained_points_match_each_point_alone(grid):
    kernels_, p, chains = CHAIN_GRIDS[grid]
    assert _chains(kernels_, p) == chains
    count = 3000
    alone = [sample_terminal(k, 6, count, p=p, with_sum_inc=True) for k in kernels_]
    for chunk_size in (1 << 16, 777):
        for threads in (1, 2, 5):
            together = sample_terminals(kernels_, 6, count, p=p, with_sum_inc=True,
                                        chunk_size=chunk_size, threads=threads)
            for got, want in zip(together, alone):
                assert _same_statistics(got, want)


@pytest.mark.parametrize("a", [2.0**-901, 2.0**450, 2.0**-460])
def test_chains_refuse_values_near_the_float_range_ends(a):
    # atoms below 2^-900, an m2 of 2^900 or more, or an m2 below 2^-900
    # could round differently once scaled; the run is each point's own
    grid = _grid("two_point", [(4, {}), (16, {})], a=a)
    assert kernels._chain_links(grid, {}, 1.0) == [None, None]
    assert _chains(_grid("two_point", [(4, {}), (16, {})], a=2.0**-440), 1.0) == {16: [4]}


def test_unchainable_group_keeps_every_point_leading():
    # a rates group whose points cannot chain runs as before: every kernel
    # leads and takes its own steps
    for grid in ("fair", "three_point", "iid_gaussian", "mixed"):
        assert kernels._chain_links(GRIDS[grid], {}, 1.5) == [None] * len(GRIDS[grid])


def test_invalid_law_refuses_the_chain_and_raises_where_it_would_alone():
    bad = {"values": [1.0, -1.0], "probs": [0.6, 0.6]}
    good = {"values": [-1.0, 1.0], "probs": [0.5, 0.5]}
    grid = [m.make_kernel("table", steps=[good, bad]), m.make_kernel("table", steps=[good, good, bad])]
    assert kernels._chain_links(grid, {}, 1.0) == [None, None]
    with pytest.raises(InvalidKernelError) as alone:
        sample_terminal(grid[0], 1, 100)
    with pytest.raises(InvalidKernelError) as together:
        sample_terminals(grid, 1, 100)
    assert str(together.value) == str(alone.value)


def test_variance_drift_chains_at_powers_of_four():
    # no kernel declares a chain: h and l at n and 4n differ by exactly 2,
    # at n and 2n by sqrt(2), and at another d by no power of two
    kernel = m.make_kernel("variance_drift", n=8, d=0.2)
    for n, d, follows in ((8, 0.2, True), (32, 0.2, True), (512, 0.2, True), (16, 0.2, False),
                          (24, 0.2, False), (32, 0.3, False)):
        leader = m.make_kernel("variance_drift", n=n, d=d)
        assert _chains([leader, kernel], 1.5) == ({n: [8]} if follows else {n: [], 8: []})
    switch = _SignSwitchKernel(n=32, regimes=_scaled_regimes(2.0**-20))
    assert _chains([_SignSwitchKernel(n=8), switch], 1.5) == {32: [8]}


@pytest.mark.parametrize("kernel, rows", [
    # one |value| per step: every sum is one float, no row is allocated
    (m.make_kernel("iid_rademacher", n=9), ()),
    # two regimes: <X> and sum |xi|^(2p) per path; max |xi| reaches the
    # high magnitude on every path at step 1, so its row is dropped again
    (m.make_kernel("variance_drift", n=9, d=0.3), ("variance", "total_2p")),
    # a zero atom: some paths stay below the largest |value|
    (m.make_kernel("three_point", n=9, b=0.4, q=0.3), ("max_abs", "total_2p")),
], ids=lambda v: v.label.split("(")[0] if isinstance(v, ConditionalKernel) else str(v))
def test_sums_equal_on_every_path_stay_floats(kernel, rows):
    count = 500
    out = kernels._PathOutputs(terminal=np.zeros(count), max_abs=0.0, total_2p=0.0)
    kernels._simulate_chunk((kernel,), rng.stream_key(3, rng.STREAM_SIMULATION), 0, count, (out,), 1.0)
    paths = sample_paths(kernel, 3, count)
    max_abs, total_2p = _reference_sums(paths.increments, 1.0)
    for field, want in (("variance", paths.variances[:, -1]), ("max_abs", max_abs),
                        ("total_2p", total_2p)):
        value = getattr(out, field)
        assert isinstance(value, np.ndarray) == (field in rows)
        assert _same_bits(np.broadcast_to(value, count), want)


def test_grid_step_loop_needs_a_kernel():
    with pytest.raises(KernelError):
        sample_terminals([], 1, 1000)


def _nudged(k: int) -> st.SearchStrategy:
    c = k * 2.0**-53
    return st.sampled_from([c, float(np.nextafter(c, -math.inf)), float(np.nextafter(c, math.inf))])


@settings(max_examples=300)
@given(
    c=st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2.0**-52, math.inf, math.nan]),
        st.integers(min_value=1, max_value=1 << 53).flatmap(_nudged),
        st.floats(min_value=0.0, max_value=2.0),
    ),
    random_words=st.lists(st.integers(min_value=0, max_value=(1 << 53) - 1), max_size=8),
)
def test_word_thresholds_decide_like_the_uniforms(c, random_words):
    # the engine selects on words w >= T(c); the uniforms it stands for are
    # u = w * 2**-53, and u >= c is the inverse-CDF decision
    threshold = _word_thresholds(c)
    t = int(threshold)
    assert 0 <= t <= 1 << 53
    candidates = [t - 1, t, t + 1, 0, (1 << 53) - 1, *random_words]
    words = [w for w in candidates if 0 <= w < 1 << 53]
    got = np.greater_equal(np.array(words, dtype=np.uint64), threshold)
    assert got.tolist() == [w * 2.0**-53 >= c for w in words]


@settings(max_examples=200)
@given(
    a=st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(min_value=0.0, max_value=1e100)),
    first_negative=st.booleans(),
    random_words=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=8),
)
def test_fair_law_selects_on_the_sign_bit(a, first_negative, random_words):
    # a fair law +-a takes its second atom when the 53-bit word z >> 11
    # reaches 2**52, that is exactly when the sign bit of the raw word z is set
    first = -a if first_negative else a
    table = kernels._step_table(1, (StepDistribution(values=(first, -first), probs=(0.5, 0.5)),), 1.0)
    assert table.sign_base is not None
    candidates = [0, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, *random_words]
    words = np.array(candidates, dtype=np.uint64)
    want = [-first if (z >> 11) >= 1 << 52 else first for z in candidates]
    spare = np.empty_like(words)
    # from the sign bits alone, a single fair regime writes the increments
    # into the spare buffer
    xi = table.draw(words & kernels._SIGN, True, None, spare, None, None)
    assert np.shares_memory(xi, spare)
    assert _same_bits(xi, want)
    # and from the 53-bit words of a step that also serves other tables
    assert _same_bits(table.draw(words >> np.uint64(11), False, None, spare, None, None), want)


@pytest.mark.parametrize("regimes, fair", [
    (VarianceDriftKernel(n=16, d=0.3).step_regimes(1), True),
    ((rademacher_two_point(1.0), StepDistribution(values=(0.0, -0.0), probs=(0.5, 0.5))), True),
    ((rademacher_two_point(1.0), StepDistribution(values=(-0.7, 0.3), probs=(0.3, 0.7))), False),
    ((rademacher_two_point(1.0), StepDistribution(values=(-1.0, 0.0, 1.0), probs=(0.25, 0.5, 0.25))),
     False),
    ((rademacher_two_point(1.0), StepDistribution(values=(-1.0, 1.0 - 2.0**-45), probs=(0.5, 0.5))),
     False),
])
def test_tables_of_fair_regimes_select_on_the_sign_bit(regimes, fair):
    table = kernels._step_table(1, regimes, 1.5)
    assert (table.sign_base is not None) == fair
    if fair:
        first = np.array([dist.values[0] for dist in regimes])
        each = np.arange(len(regimes), dtype=np.intp)
        assert _same_bits(table.select(table.sign_base, each, np.empty(len(regimes))), first)
        assert _same_bits(table.select(table.pow2p, each, np.empty(len(regimes))),
                          np.abs(first) ** 3.0)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.0, -1.0,
                   math.inf, -math.inf, math.nan]
_SPECIAL_WORDS = [0, 1, (1 << 52), (1 << 63) - 1, 1 << 63, (1 << 64) - 1]


@settings(max_examples=300)
@given(
    values=st.one_of(
        st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()), min_size=2, max_size=2)
        .map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(st.one_of(st.sampled_from(_SPECIAL_WORDS),
                           st.integers(min_value=0, max_value=(1 << 64) - 1)), min_size=2, max_size=2)
        .map(lambda v: np.array(v, dtype=np.uint64)),
    ),
    picks=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40),
)
def test_two_regime_selection_equals_the_gather(values, picks):
    # lo ^ (r * (lo ^ hi)) on the bits: every float, signed zeros,
    # subnormals, infinities and NaN payloads included, and every word
    regime = np.array(picks, dtype=np.intp)
    table = kernels._StepTable(regimes=2, width=2)
    got = table.select(kernels._by_regime(values), regime, np.empty(len(picks), dtype=values.dtype))
    assert got.dtype == values.dtype
    assert _same_bits(got, np.take(values, regime))


def test_a_third_law_is_refused():
    laws = (rademacher_two_point(1.0), rademacher_two_point(0.5), rademacher_two_point(0.25))
    kernel = _SignSwitchKernel(n=4, fixed_steps=1, regimes=laws)
    for run in (lambda: sample_terminal(kernel, 1, 8), lambda: sample_paths(kernel, 1, 8),
                lambda: sample_terminals([kernel, _SignSwitchKernel(n=2, regimes=laws)], 1, 8),
                kernel.initial_state):
        with pytest.raises(KernelError, match="step 2 declares 3 laws"):
            run()


def test_a_sampled_law_in_a_kernel_with_two_laws_is_refused():
    # a sampled increment has no magnitude to count
    gaussian = m.make_kernel("iid_gaussian", n=1).dist
    kernel = _SignSwitchKernel(n=3, fixed_steps=1, regimes=(gaussian, rademacher_two_point(0.5)))
    for run in (lambda: sample_terminal(kernel, 1, 8), kernel.initial_state):
        with pytest.raises(KernelError, match="step 1: a sampled law"):
            run()


def test_transition_counts_each_magnitude_and_refuses_an_unknown_one():
    # regimes (-1, 0, 1) and (-0.7, 0.3): coordinates 1.0, 0.7, 0.3; a zero
    # leaves the state
    kernel = _SignSwitchKernel(n=2)
    state = kernel.initial_state()
    assert state == (0, 0, 0)
    for value, child in ((1.0, (1, 0, 0)), (-0.7, (1, -1, 0)), (0.3, (1, -1, 1)),
                         (0.0, (1, -1, 1)), (-0.0, (1, -1, 1)), (-1.0, (0, -1, 1))):
        state = kernel.transition(state, value)
        assert state == child
        assert kernel.transition(state, 0.0) is state
    with pytest.raises(KernelError, match="not in this kernel's support"):
        kernel.transition(state, 0.5)


def test_position_sums_left_to_right_in_order_of_first_appearance():
    # 3 - 2**-52 rounds to 3, so (3 - 3) - 2**-52 < 0 but (3 - 2**-52) - 3
    # == 0: the order of the magnitudes decides the law, in the walks and in
    # the engine alike
    tiny = 2.0**-52
    for order, state, regime in (((3.0, 1.0, tiny), (1, -3, -1), 1),
                                 ((3.0, tiny, 1.0), (1, -1, -3), 0)):
        values = (-order[1], -order[2], order[1], order[2])
        kernel = _SignSwitchKernel(n=1, regimes=(rademacher_two_point(3.0),
                                                 StepDistribution(values=values, probs=(0.25,) * 4)))
        assert tuple(kernel._magnitudes) == order
        assert kernel.regime_of_state(state) == regime
        point = kernels._ChunkPoint(kernel, kernels._PathOutputs(terminal=None), 1)
        point.rows = [np.array([float(s)]) for s in state]
        assert point.regimes().tolist() == [regime]
    # laws +-1e308 and (+-1e308, +-1.6e308) reach the counts (-2, 2) at step
    # 5, where the position is -inf + inf, a NaN: its sign bit picks one law
    # in regime_of_state, the engine and the walk alike, and only law 1
    # leads from there to (-2, 3), which no other node of level 4 reaches
    big = StepDistribution(values=(-1.6e308, -1e308, 1e308, 1.6e308), probs=(0.25,) * 4)
    kernel = _SignSwitchKernel(n=5, regimes=(rademacher_two_point(1e308), big))
    with np.errstate(over="ignore", invalid="ignore"):
        regime = int(kernel.regime_of_state((-2, 2)))
        point = kernels._ChunkPoint(kernel, kernels._PathOutputs(terminal=None), 1)
        point.rows = [np.array([-2.0]), np.array([2.0])]
        assert point.regimes().tolist() == [regime]
        reached = {tuple(s) for s in conditions._walk(kernel)["state"].tolist()}
    assert ((-2, 3) in reached) == (regime == 1)


def test_counts_gather_only_where_a_law_has_no_one_magnitude():
    # variance_drift's laws each share one magnitude, so its counts update
    # bitwise; the sign switch has a zero atom beside 1.0, and 0.7 beside
    # 0.3, so its counts take the per-atom gather; laws of zeros count nothing
    drift = VarianceDriftKernel(n=4, d=0.2)
    zeros = (StepDistribution(values=(0.0,), probs=(1.0,)),
             StepDistribution(values=(0.0, -0.0), probs=(0.5, 0.5)))
    for laws, magnitudes in ((drift.step_regimes(1), (drift.high_mag, drift.low_mag)),
                             (_SignSwitchKernel(n=4).regimes, (None, None)),
                             (zeros, (0.0, 0.0))):
        assert kernels._step_table(1, laws, 1.0).magnitudes == magnitudes


@settings(max_examples=40, deadline=None)
@given(
    d=st.one_of(st.sampled_from([0.2, 0.3, 0.6, 0.9]), st.floats(min_value=0.01, max_value=0.99)),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_variance_drift_batch_state_follows_the_scalar_state(d, n, seed):
    # the engine keeps the counts (a, b) as float rows and takes the regime
    # from the sign bit of a*h + b*l; both must be the scalar transition's
    # and law_from_state's on every path and step, bit for bit
    kernel = VarianceDriftKernel(n=n, d=d)
    table = kernels._step_table(1, kernel.step_regimes(1), 1.0)
    mags = np.array([kernel.high_mag, kernel.low_mag])
    down = np.random.default_rng(seed).random((n, 64)) < 0.5
    down[:3, 0] = (True, False, False)[:n]  # -h, +l, +l: b = -2a = 2
    states = [kernel.initial_state()] * down.shape[1]
    counts = kernels._ChunkPoint(kernel, kernels._PathOutputs(terminal=None), down.shape[1])
    cancelled = False
    for step in range(1, n + 1):
        regime = counts.regimes()
        pos = counts.position
        assert not np.any(pos.view(np.uint64) == 1 << 63)  # never -0.0
        cancelled |= bool(np.any((pos == 0.0) & (counts.rows[0] != 0.0)))
        want = [kernel.step_regimes(step).index(kernel.law_from_state(step, s)) for s in states]
        assert regime.tolist() == want
        inc = np.where(down[step - 1], -1.0, 1.0) * mags[regime]
        states = [kernel.transition(s, x) for s, x in zip(states, inc.tolist())]
        counts.advance(table, inc, None)
        assert _same_bits(counts.rows, np.array(states, dtype=float).T)
    if d == 0.6 and n >= 4:
        # the cancelling position was reached and classified above
        assert kernel.high_mag == 2.0 * kernel.low_mag
        assert cancelled


@pytest.mark.parametrize("kernel, maxima, floors", [
    # step 1 is high on every path, so the floor reaches high_mag there and
    # the other steps take no per-path max
    (m.make_kernel("variance_drift", n=9, d=0.3), 1, 1),
    # a sampler's largest |xi| is unbounded: a per-path max every step and
    # no floor to raise
    (m.make_kernel("iid_gaussian", n=9), 9, 0),
    # one |value| per step: the floor alone
    (m.make_kernel("iid_rademacher", n=9), 0, 0),
    # per path at steps 1, 3 and 6 only
    (_MAX_FLOOR, 3, 3),
], ids=lambda v: v.label.split("(")[0] if isinstance(v, ConditionalKernel) else str(v))
def test_max_abs_runs_per_path_only_above_the_floor(kernel, maxima, floors, monkeypatch):
    count = 500
    takes = []  # the finite flag of each per-path maximum; a finite one raises the floor
    take = kernels._RunningMax.take

    def counted(self, inc, scratch, finite):
        takes.append(finite)
        take(self, inc, scratch, finite)

    monkeypatch.setattr(kernels._RunningMax, "take", counted)
    out = kernels._PathOutputs(terminal=np.zeros(count), max_abs=0.0)
    kernels._simulate_chunk((kernel,), rng.stream_key(3, rng.STREAM_SIMULATION), 0, count, (out,), 1.0)
    assert len(takes) == maxima
    assert takes.count(True) == floors
    increments = sample_paths(kernel, 3, count).increments
    assert _same_bits(np.broadcast_to(out.max_abs, count), np.abs(increments).max(axis=1))


def test_uniform_on_a_cumulative_probability_selects_the_upper_atom():
    seed = 6
    u0 = float(rng.uniforms(rng.stream_key(seed, rng.STREAM_SIMULATION), 0, 0)[0])
    # cum[0] == u0 exactly; the mean is 0 exactly
    boundary = StepDistribution(values=(-(1.0 - u0), u0), probs=(u0, 1.0 - u0))
    assert boundary.check() is None
    assert boundary.sample_from_uniforms(np.array([u0]))[0] == u0
    three = StepDistribution(values=(-1.0, 0.0, 1.0), probs=(0.25, 0.5, 0.25))
    assert list(three.sample_from_uniforms(np.array([0.25, 0.75]))) == [0.0, 1.0]
    paths = sample_paths(TableKernel([boundary]), seed, 3)
    assert paths.increments[0, 0] == u0


def test_invalid_regime_is_named():
    kernel = VarianceDriftKernel(n=4, d=0.2)
    kernel._regimes = (kernel._regimes[0], StepDistribution(values=(1.0, 0.0), probs=(0.5, 0.5)))
    with pytest.raises(InvalidKernelError) as err:
        sample_terminal(kernel, seed=1, count=10)
    assert err.value.step == 1
    assert "mean" in str(err.value) and "(regime 1)" in str(err.value)


@pytest.mark.parametrize("name, params, p", [
    ("iid_gaussian", {"n": 64}, 1.5),
    ("variance_drift", {"n": 64, "d": 0.2}, 1.5),
])
def test_terminal_statistics_are_chunk_and_thread_invariant(name, params, p):
    kernel = m.make_kernel(name, **params)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # chunks on more threads than cores, switching often
    try:
        runs = [
            sample_terminal(kernel, 3, 100_000, p=p, with_sum_inc=True,
                            chunk_size=chunk, threads=threads)
            for chunk, threads in ((1 << 16, 1), (777, 1), (1 << 16, 2), (4099, 5))
        ]
    finally:
        sys.setswitchinterval(interval)
    first = runs[0]
    for other in runs[1:]:
        assert np.array_equal(other.terminal, first.terminal)
        for field in ("count", "sum_var_dev_p", "sum_var_dev_2p", "sum_max_inc_2p",
                      "sum_total_inc_2p", "max_var_dev"):
            assert getattr(other, field) == getattr(first, field), field


def test_one_chunk_runs_without_a_pool(monkeypatch):
    kernel = m.make_kernel("variance_drift", n=16, d=0.2)
    alone = sample_paths(kernel, 3, 700)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one chunk")

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", no_pool)
    pooled = sample_paths(kernel, 3, 700, threads=2)
    for field in ("increments", "sums", "variances"):
        assert _same_bits(getattr(pooled, field), getattr(alone, field)), field


@pytest.mark.parametrize("name, params", [
    ("variance_drift", {"n": 4, "d": 0.2}),
    ("iid_gaussian", {"n": 4}),  # continuous increments
])
def test_pooled_sums_reduce_per_path_values_over_fixed_blocks(name, params):
    # more paths than one window holds at threads 1 and 2, with a short last block
    kernel = m.make_kernel(name, **params)
    count, p, block = 300_001, 1.5, 1 << 16
    paths = sample_paths(kernel, 5, count)
    dev = np.abs(paths.variances[:, -1] - 1.0)
    absinc = np.abs(paths.increments)
    total_2p = np.zeros(count)
    for j in range(kernel.n):  # the engine's step order
        total_2p += absinc[:, j] ** (2.0 * p)

    def pooled(values):
        return math.fsum(float(np.sum(values[i : i + block])) for i in range(0, count, block))

    expected = (pooled(dev**p), pooled(dev ** (2.0 * p)),
                pooled(absinc.max(axis=1) ** (2.0 * p)), pooled(total_2p), float(np.max(dev)))
    for threads in (1, 2):
        stats = sample_terminal(kernel, 5, count, p=p, with_sum_inc=True, threads=threads)
        assert np.array_equal(stats.terminal, paths.sums[:, -1])
        assert (stats.sum_var_dev_p, stats.sum_var_dev_2p, stats.sum_max_inc_2p,
                stats.sum_total_inc_2p, stats.max_var_dev) == expected


def test_per_value_calls_once_per_distinct_value_and_keeps_the_shape():
    calls = []

    def power(v):
        calls.append(v)
        return v**1.5

    x = np.array([[0.3, 0.7, 0.3], [math.nan, 0.7, math.nan]])
    out = kernels._per_value(power, x)
    assert out.shape == x.shape and out.dtype == np.float64
    assert calls[:2] == [0.3, 0.7] and len(calls) == 3 and math.isnan(calls[2])
    assert out[0].tolist() == [0.3**1.5, 0.7**1.5, 0.3**1.5]
    assert np.isnan(out[1, [0, 2]]).all() and out[1, 1] == 0.7**1.5
    assert kernels._per_value(power, np.empty((0, 3))).shape == (0, 3)
